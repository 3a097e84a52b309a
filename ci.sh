#!/bin/sh
# CI entry point: type-check, build, run the test suites (golden outputs
# included), then the lint check on the build profile, the compare-free
# and inlined-path guards on the simulator core, the -j determinism
# sweep, the perf-regression gate, the sampled-simulation smoke, the
# differential fuzz smoke, the serving smokes and the benchmark smoke.
# `dune build @ci` runs the same build/test/sweep/smoke checks as a
# single dune invocation; the perf gate compares wall-clock
# rates and the benchmark smoke drives dune itself, so both run here
# (and in the GitHub workflow), not under dune.
set -eu
cd "$(dirname "$0")"

echo "== dune build @check"
dune build @check
echo "== dune build"
dune build
echo "== dune runtest"
dune runtest

echo "== lint: the release build keeps dev's warning set"
# dune-workspace selects the release profile, whose own flags are only
# -w -40; the root dune file's (env) stanza restores dev's lint. Fail if
# it ever stops applying.
flags=$(dune printenv .)
echo "$flags" | grep -q -- '-strict-sequence'
echo "$flags" | grep -qF -- '@1..3@5..28@30..39@43@46..47@49..57@61..62-40'

echo "== compare-free simulator core: no polymorphic compare in the hot libraries"
# Without flambda, a compare at a type not known to be int where it is
# written (Stdlib.max/min/compare, structural = or <>) stays a call into
# the C runtime even after inlining: several ns per µop that no test or
# allocation assert can see. No object of the interpreter, timing model,
# caches or predictors may reference one. OCaml 5.0 mangles Stdlib.max
# as camlStdlib__max_N, 5.1 as camlStdlib.max_N; both are matched.
poly='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)([^A-Za-z0-9_]|$)'
poly="$poly|camlStdlib(\.|__)(max|min|compare)_[0-9]+"
objs=$(find _build/default/lib/core _build/default/lib/pipeline \
  _build/default/lib/mem _build/default/lib/bpred -path '*/native/*.o')
test -n "$objs"
bad=0
for o in $objs; do
  if objdump -dr "$o" | grep -Eq "$poly"; then
    echo "polymorphic compare in $o:"
    objdump -dr "$o" | grep -E "$poly" | sed 's/^/    /'
    bad=1
  fi
done
test "$bad" = 0

echo "== inlined per-µop path: no generic application in the timing model"
# The release build inlines across modules, so the timing model's
# per-µop functions call their callees directly. A caml_applyN or
# caml_curryN relocation inside feed_uop_core, fetch or handle_control
# means a call there went back through a closure: the -opaque dev build
# had 6, 2 and 5 of them. All three functions must be present, so a
# rename cannot pass the guard vacuously. OCaml 5.0 separates the module
# path in symbol names with __, 5.1 with .; both are matched.
timing=$(find _build/default/lib/pipeline -path '*/native/*Timing.o')
test -n "$timing"
objdump -dr "$timing" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = ""
    if (match($2, /Timing(\.|__)(feed_uop_core|fetch|handle_control)_[0-9]+>/)) {
      fn = $2; seen[fn] = 1
    }
  }
  fn != "" && /R_[A-Z0-9_]+[ \t]+caml_(apply|curry)/ {
    print "generic application in " fn " " $NF; bad = 1
  }
  END { n = 0; for (f in seen) n++; if (n != 3) { print "found " n " of 3 per-uop functions"; bad = 1 }; exit bad }'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== determinism sweep: bench quick, -j 1 vs -j 2"
# Run each bench to completion before filtering: piping straight into
# sed would mask a non-zero bench exit under `set -eu` (sed exits 0
# regardless). The trailing bechamel micro-benchmark section measures
# wall time and is legitimately nondeterministic; the sweep compares
# everything before it.
./_build/default/bench/main.exe quick -j 1 --runs 3 \
  --bench-json "$out/bench.json" > "$out/j1.raw"
./_build/default/bench/main.exe quick -j 2 > "$out/j2.raw"
sed -n '/Component micro-benchmarks/q;p' "$out/j1.raw" > "$out/j1.txt"
sed -n '/Component micro-benchmarks/q;p' "$out/j2.raw" > "$out/j2.txt"
diff -u "$out/j1.txt" "$out/j2.txt"

echo "== perf gate: quick rates vs bench/baseline.json"
# Reuses the perf records the -j 1 sweep run just wrote (median of
# --runs 3 timed repeats per record). The committed baseline's absolute
# rates are machine-dependent, so the tolerance absorbs host-to-host
# noise — but the packed-array/staged-dispatch rewrite cut per-instr
# work enough that 25% now holds on a loaded box (it used to need 60%);
# refresh with
#   dune exec bench/main.exe -- quick --bench-json bench/baseline.json
# --min-work rejects records measured over too few instructions to
# carry a meaningful rate. The gate also fails any sampled record that
# is slower than its full sibling, whatever the baseline says.
./_build/default/bench/main.exe gate --baseline bench/baseline.json \
  --current "$out/bench.json" --tolerance 25 --min-work 100000

echo "== hot-path allocation smoke: probe-free modes stay allocation-free"
# Functional, warm, and full-detailed simulation must not allocate per
# instruction (closure creep in the dispatch loop shows up here first);
# only probe-attached runs are allowed to build event records.
./_build/default/bench/hotpath.exe --iters 150 --assert-alloc

echo "== sampling smoke: fibonacci, 25% coverage, -j 2"
./_build/default/bin/sempe_sim.exe sample fibonacci --iters 50 \
  --coverage 0.25 -j 2 --compare-full --json > "$out/sample.json"
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

echo "== serve smoke: daemon round-trips byte-identical to the batch CLI"
# Background daemon on a unix socket; each served response is compared
# byte-for-byte against the matching batch subcommand's --json output,
# a warm repeat must serve the identical cached bytes, and the client
# shutdown op must leave a clean exit.
sim=./_build/default/bin/sempe_sim.exe
sock="$out/serve.sock"
"$sim" serve --listen "$sock" --workers 2 2> "$out/serve.log" &
srv=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$sock"
"$sim" client simulate -c "$sock" --workload fibonacci > "$out/served-sim.json"
"$sim" microbench --json > "$out/batch-sim.json"
cmp "$out/served-sim.json" "$out/batch-sim.json"
"$sim" client simulate -c "$sock" --workload fibonacci > "$out/served-sim2.json"
cmp "$out/served-sim.json" "$out/served-sim2.json"
"$sim" client sample -c "$sock" --workload rsa > "$out/served-sample.json"
"$sim" rsa --sample --json > "$out/batch-sample.json"
cmp "$out/served-sample.json" "$out/batch-sample.json"
"$sim" client fuzz-smoke -c "$sock" --fuzz-seed 5 --count 25 \
  > "$out/served-fuzz.json"
"$sim" fuzz --seed 5 --count 25 --no-corpus --json > "$out/batch-fuzz.json"
cmp "$out/served-fuzz.json" "$out/batch-fuzz.json"
"$sim" client leakage -c "$sock" > "$out/served-leakage.json"
"$sim" leakage --json -j 2 > "$out/batch-leakage.json"
cmp "$out/served-leakage.json" "$out/batch-leakage.json"
"$sim" client stats -c "$sock" > /dev/null
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"

echo "== loadgen smoke: 8 concurrent clients, mixed workload, zero dropped"
"$sim" serve --listen "$sock" --workers 2 2>> "$out/serve.log" &
srv=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$sock"
# loadgen exits non-zero if any request is dropped
"$sim" loadgen -c "$sock" --clients 8 --requests 6 --mix simulate,sample \
  --json > "$out/loadgen.json"
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"

echo "== fleet smoke: router + 2 shards, byte-equality, failover, drain"
# The router relays each shard's reply bytes verbatim, so routed
# responses must be byte-identical to the batch CLI at any shard count.
# Placement is a pure function of the request bytes: the
# simulate/sample/leakage requests below hash onto shard 0 and the
# fuzz-smoke onto shard 1, so TERM-killing shard 0 mid-run forces a
# real failover (asserted from the router's counters) while the fleet
# keeps answering with identical bytes — losing a shard costs cache
# warmth, never correctness.
"$sim" serve --listen "$out/shard0.sock" --workers 2 2> "$out/shard0.log" &
sh0=$!
"$sim" serve --listen "$out/shard1.sock" --workers 2 2> "$out/shard1.log" &
sh1=$!
for s in "$out/shard0.sock" "$out/shard1.sock"; do
  i=0
  while [ ! -S "$s" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
  test -S "$s"
done
"$sim" router --listen "$out/router.sock" \
  --shard "$out/shard0.sock" --shard "$out/shard1.sock" \
  2> "$out/router.log" &
rtr=$!
i=0
while [ ! -S "$out/router.sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$out/router.sock"
"$sim" client simulate -c "$out/router.sock" --workload fibonacci \
  > "$out/routed-sim.json"
cmp "$out/routed-sim.json" "$out/batch-sim.json"
"$sim" client sample -c "$out/router.sock" --workload rsa \
  > "$out/routed-sample.json"
cmp "$out/routed-sample.json" "$out/batch-sample.json"
"$sim" client leakage -c "$out/router.sock" > "$out/routed-leakage.json"
cmp "$out/routed-leakage.json" "$out/batch-leakage.json"
"$sim" client fuzz-smoke -c "$out/router.sock" --fuzz-seed 5 --count 25 \
  > "$out/routed-fuzz.json"
cmp "$out/routed-fuzz.json" "$out/batch-fuzz.json"
kill -TERM "$sh0"
wait "$sh0"
"$sim" client simulate -c "$out/router.sock" --workload fibonacci \
  > "$out/failover-sim.json"
cmp "$out/failover-sim.json" "$out/batch-sim.json"
"$sim" client stats -c "$out/router.sock" > "$out/fleet-stats.json"
grep -q '"failovers":[1-9]' "$out/fleet-stats.json"
# 8 concurrent clients against the degraded fleet: still zero drops
"$sim" loadgen -c "$out/router.sock" --clients 8 --requests 6 \
  --mix simulate,sample --json > "$out/fleet-loadgen.json"
# client-driven shutdown drains the fleet: the surviving shard and the
# router both exit and remove their sockets
"$sim" client shutdown -c "$out/router.sock" > /dev/null
wait "$rtr"
wait "$sh1"
test ! -S "$out/shard1.sock"
test ! -S "$out/router.sock"

echo "== persistence smoke: store survives a TERM restart, warm p50 beats cold"
# Warm a shard through the loadgen, TERM it (the store flushes on the
# way out), restart on the same --store-dir: the stats must report
# disk-loaded entries and the same request mix must now be served from
# the reloaded cache — its p50 strictly below the cold run's, which
# paid for real simulation.
store="$out/store"
"$sim" serve --listen "$sock" --workers 2 --store-dir "$store" \
  2> "$out/persist.log" &
srv=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$sock"
"$sim" loadgen -c "$sock" --clients 2 --requests 1 --mix simulate,sample \
  --json > "$out/persist-cold.json"
kill -TERM "$srv"
wait "$srv"
test -f "$store/responses.v1.jsonl"
"$sim" serve --listen "$sock" --workers 2 --store-dir "$store" \
  2>> "$out/persist.log" &
srv=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
test -S "$sock"
"$sim" client stats -c "$sock" > "$out/persist-stats.json"
grep -q '"disk_loaded_results":[1-9]' "$out/persist-stats.json"
"$sim" loadgen -c "$sock" --clients 2 --requests 1 --mix simulate,sample \
  --json > "$out/persist-warm.json"
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"
p50_of() { sed -n 's/.*"p50_s":\([0-9.eE+-]*\).*/\1/p' "$1"; }
cold_p50=$(p50_of "$out/persist-cold.json")
warm_p50=$(p50_of "$out/persist-warm.json")
echo "   cold p50 ${cold_p50}s, warm (disk-loaded) p50 ${warm_p50}s"
awk -v c="$cold_p50" -v w="$warm_p50" 'BEGIN { exit !(w + 0 < c + 0) }'

echo "== benchmark smoke: every perfbench workload, traced and untraced"
# One rotation per BENCHMARK.json workload. Fails unless every op passes
# its output checks (SeMPE/CTE checksums equal the baseline build's, the
# sampled path runs and lands inside its band, served bytes equal
# Api.perform's), every reconciliation is inside its band, and every
# metric BENCHMARK.json names is printed with its unit.
python3 perfbench/run.py --smoke

echo "CI OK"
