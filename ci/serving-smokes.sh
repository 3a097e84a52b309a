#!/bin/sh
# The serving smokes: a daemon, the loadgen, a fleet and the persistent
# store, each driving the built CLI over unix sockets in OUT_DIR.
#
#   ci/serving-smokes.sh OUT_DIR
#
# Run from the repository root after `dune build`. Every socket, log,
# stats document and loadgen report lands in OUT_DIR, which CI uploads
# when a smoke fails. Both ./ci.sh and the GitHub workflow run this
# script.
set -eu
out=$1
sim=./_build/default/bin/sempe_sim.exe
mkdir -p "$out"
# A failed assertion must not leave daemons behind.
trap 'kill $(jobs -p) 2> /dev/null || true' EXIT

await_sock() {
  i=0
  while [ ! -S "$1" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
  test -S "$1"
}

echo "== serve smoke: daemon round-trips byte-identical to the batch CLI"
# Each served response is compared byte-for-byte against the matching
# batch subcommand's --json output (a served sample against both
# `rsa --sample` and `sample rsa`), a warm repeat must serve the
# identical cached bytes, the loadgen must drop nothing against the warm
# daemon, and the client shutdown op must leave a clean exit.
sock="$out/serve.sock"
"$sim" serve --listen "$sock" --workers 2 2> "$out/serve.log" &
srv=$!
await_sock "$sock"
"$sim" client simulate -c "$sock" --workload fibonacci > "$out/served-sim.json"
"$sim" microbench --json > "$out/batch-sim.json"
cmp "$out/served-sim.json" "$out/batch-sim.json"
"$sim" client simulate -c "$sock" --workload fibonacci > "$out/served-sim2.json"
cmp "$out/served-sim.json" "$out/served-sim2.json"
"$sim" client sample -c "$sock" --workload rsa > "$out/served-sample.json"
"$sim" rsa --sample --json > "$out/batch-sample.json"
cmp "$out/served-sample.json" "$out/batch-sample.json"
"$sim" sample rsa --json > "$out/batch-sample2.json"
cmp "$out/batch-sample2.json" "$out/batch-sample.json"
"$sim" client fuzz-smoke -c "$sock" --fuzz-seed 5 --count 25 \
  > "$out/served-fuzz.json"
"$sim" fuzz --seed 5 --count 25 --no-corpus --json > "$out/batch-fuzz.json"
cmp "$out/served-fuzz.json" "$out/batch-fuzz.json"
"$sim" client leakage -c "$sock" > "$out/served-leakage.json"
"$sim" leakage --json -j 2 > "$out/batch-leakage.json"
cmp "$out/served-leakage.json" "$out/batch-leakage.json"
"$sim" client stats -c "$sock" > /dev/null
# loadgen exits non-zero if any request is dropped
"$sim" loadgen -c "$sock" --clients 8 --requests 6 --mix simulate,sample \
  --json > "$out/warm-loadgen.json"
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"

echo "== loadgen smoke: 8 concurrent clients, mixed workload, zero dropped"
"$sim" serve --listen "$sock" --workers 2 2>> "$out/serve.log" &
srv=$!
await_sock "$sock"
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
# warmth, never correctness. The router reuses its links to a shard, so
# before the kill shard 0 has accepted exactly two connections: the
# router's one link, which carried all three routed requests, and the
# stats query itself.
"$sim" serve --listen "$out/shard0.sock" --workers 2 2> "$out/shard0.log" &
sh0=$!
"$sim" serve --listen "$out/shard1.sock" --workers 2 2> "$out/shard1.log" &
sh1=$!
await_sock "$out/shard0.sock"
await_sock "$out/shard1.sock"
"$sim" router --listen "$out/router.sock" \
  --shard "$out/shard0.sock" --shard "$out/shard1.sock" \
  2> "$out/router.log" &
rtr=$!
await_sock "$out/router.sock"
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
"$sim" client stats -c "$out/shard0.sock" > "$out/shard0-stats.json"
grep -q '"accepted":2[,}]' "$out/shard0-stats.json"
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
# paid for real simulation. A restart from another executable loads
# nothing.
store="$out/store"
rm -rf "$store"
"$sim" serve --listen "$sock" --workers 2 --store-dir "$store" \
  2> "$out/persist.log" &
srv=$!
await_sock "$sock"
"$sim" loadgen -c "$sock" --clients 2 --requests 1 --mix simulate,sample \
  --json > "$out/persist-cold.json"
kill -TERM "$srv"
wait "$srv"
# The flush writes one file, the response store, and nothing else.
test "$(ls -A "$store")" = "responses.v1.jsonl"
"$sim" serve --listen "$sock" --workers 2 --store-dir "$store" \
  2>> "$out/persist.log" &
srv=$!
await_sock "$sock"
"$sim" client stats -c "$sock" > "$out/persist-stats.json"
grep -q '"disk_loaded_results":[1-9]' "$out/persist-stats.json"
"$sim" loadgen -c "$sock" --clients 2 --requests 1 --mix simulate,sample \
  --json > "$out/persist-warm.json"
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"
# A store belongs to the executable that filled it. The same CLI with one
# byte appended has the same code and another digest: restarted from it,
# the daemon must load nothing from the store and say so on stderr.
other="$out/sempe_sim_other.exe"
cat "$sim" > "$other"
printf '\n' >> "$other"
chmod +x "$other"
"$other" serve --listen "$sock" --workers 2 --store-dir "$store" \
  2> "$out/persist-other.log" &
srv=$!
await_sock "$sock"
"$sim" client stats -c "$sock" > "$out/persist-other-stats.json"
"$sim" client shutdown -c "$sock" > /dev/null
wait "$srv"
grep -q '"disk_loaded_results":0[,}]' "$out/persist-other-stats.json"
grep -q 'store skipped: header ".*\\"model\\":\\"[0-9a-f]\{32\}\\"}", this is model [0-9a-f]\{32\}$' \
  "$out/persist-other.log"
p50_of() { sed -n 's/.*"p50_s":\([0-9.eE+-]*\).*/\1/p' "$1"; }
cold_p50=$(p50_of "$out/persist-cold.json")
warm_p50=$(p50_of "$out/persist-warm.json")
echo "   cold p50 ${cold_p50}s, warm (disk-loaded) p50 ${warm_p50}s"
awk -v c="$cold_p50" -v w="$warm_p50" 'BEGIN { exit !(w + 0 < c + 0) }'
