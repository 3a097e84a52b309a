#!/bin/sh
# CI entry point: type-check, build, run the test suites (golden outputs
# included: the paper tables of `report all --quick` are diffed at -j 1
# and at -j 2 there), then the lint check on the build profile, the
# compare-free and inlined-path guards on the simulator core, the
# perf-regression gate, the sampled-simulation smoke, the differential
# fuzz smoke, the serving smokes and the benchmark smoke. `dune build
# @ci` runs the same build/test/smoke checks as a single dune
# invocation; the perf gate compares wall-clock rates and the benchmark
# smoke drives dune itself, so both run here (and in the GitHub
# workflow), not under dune.
set -eu
cd "$(dirname "$0")"

echo "== dune build @check"
dune build @check
echo "== dune build"
dune build
echo "== dune runtest"
dune runtest

# The lint, compare-free and inlined-path guards; the GitHub workflow
# runs the same script on both of its compilers.
sh ci/guards.sh

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== bench arguments: an unknown flag is an error, not a default"
if ./_build/default/bench/main.exe --bench-jsn /dev/null 2> /dev/null; then
  echo "bench/main.exe accepted the unknown flag --bench-jsn"
  exit 1
fi

echo "== perf gate: simulation rates vs bench/baseline.json"
# The rate records are the median of --runs 3 timed repeats each, and
# bench also runs the sampler's band and exactness smoke. The committed
# baseline's absolute rates are machine-dependent, so the tolerance
# absorbs host-to-host noise — but the packed-array/staged-dispatch
# rewrite cut per-instr work enough that 25% now holds on a loaded box
# (it used to need 60%); refresh with
#   dune exec bench/main.exe -- --bench-json bench/baseline.json
# --min-work rejects records measured over too few instructions to
# carry a meaningful rate. The gate also fails any sampled record that
# is slower than its full sibling, whatever the baseline says.
./_build/default/bench/main.exe --runs 3 --bench-json "$out/bench.json" \
  > "$out/bench.txt"
./_build/default/bench/main.exe gate --baseline bench/baseline.json \
  --current "$out/bench.json" --tolerance 25 --min-work 100000

echo "== sampling smoke: fibonacci, 25% coverage, -j 1 vs -j 2"
# The document is byte-identical at any -j (wall-clock figures go to
# stderr), and the full run must land inside the estimate's band.
./_build/default/bin/sempe_sim.exe sample fibonacci --iters 50 \
  --coverage 0.25 -j 1 --compare-full --json > "$out/sample-j1.json"
./_build/default/bin/sempe_sim.exe sample fibonacci --iters 50 \
  --coverage 0.25 -j 2 --compare-full --json > "$out/sample.json"
cmp "$out/sample-j1.json" "$out/sample.json"
grep -q '"in_bound":true' "$out/sample.json"

echo "== fuzz smoke: 100 cases, all oracles, pinned seed"
# Minimized reproducers land in corpus/ so CI can upload them as
# artifacts on failure; each failure's JSON carries its leakage
# attribution (divergent PC + hardware structure).
./_build/default/bin/sempe_sim.exe fuzz --seed 42 --count 100 -j 4 --json \
  > "$out/fuzz.json"

echo "== leakage attribution smoke: sempe indistinguishable on every channel"
# Full witness diff of the RSA runs across keys under every scheme; the
# attribution JSON and the per-scheme Perfetto divergence traces are the
# artifacts CI uploads when this (or the fuzz smoke) fails.
./_build/default/bin/sempe_sim.exe leakage --attribute --json -j 2 \
  --trace-out "$out/leakage-traces" > "$out/leakage-attribution.json"
./_build/default/bin/sempe_sim.exe leakage --attribute -j 2 \
  > "$out/leakage-attribution.txt"
grep -A 1 '^== sempe ==' "$out/leakage-attribution.txt" \
  | grep -q 'indistinguishable on every channel'

# The serve, loadgen, fleet and persistence smokes; the GitHub workflow
# runs the same script.
sh ci/serving-smokes.sh "$out/serving"

echo "== benchmark smoke: every perfbench workload, traced and untraced"
# One rotation per BENCHMARK.json workload. Fails unless every op passes
# its output checks (SeMPE/CTE checksums equal the baseline build's, the
# sampled path runs and lands inside its band, served bytes equal
# Api.perform's), every reconciliation is inside its band, and every
# metric BENCHMARK.json names is printed with its unit.
python3 perfbench/run.py --smoke

echo "CI OK"
