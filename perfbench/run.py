#!/usr/bin/env python3
"""Build and run the repository's benchmark (perfbench/main.ml).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe with dune (in the checkout's own
_build directory, with the shared dune cache off) and runs one workload;
the last line of its standard output is the JSON summary. --seed
defaults to the seed recorded in perfbench/workloads.json.

--smoke runs every workload of BENCHMARK.json for a few ops, traced and
untraced, and checks that each run passes its output checks and prints
every metric BENCHMARK.json names, with the same unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850,
    )
    if proc.returncode != 0:
        fail(f"dune build failed with exit code {proc.returncode}")


def run(args, capture=False):
    return subprocess.run(
        [EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None, text=True,
    )


def smoke(seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", trace, "--smoke"], capture=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}")
                continue
            lines = proc.stdout.strip().splitlines()
            summary = json.loads(lines[-1])
            printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
            if not summary["correct"] or summary["failed"] != 0:
                problems.append(f"{label}: {summary['failed']} of {summary['attempted']} ops failed")
            for m in wanted:
                got = summary["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} [{m['unit']}] not printed as such")
            print(f"[perfbench] smoke {label}: {summary['attempted']} ops, "
                  f"{len(summary['metrics'])} metrics", file=sys.stderr)
    for p in problems:
        print(f"[perfbench] smoke FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    seed = args.seed
    if seed is None:
        with open(os.path.join(HERE, "workloads.json")) as f:
            seed = json.load(f)["default_seed"]
    if args.smoke:
        sys.exit(smoke(seed))
    if not args.workload:
        fail("--workload is required")
    sys.exit(run(["--workload", args.workload, "--seed", str(seed),
                  "--seconds", args.seconds, "--trace", args.trace]).returncode)


if __name__ == "__main__":
    main()
