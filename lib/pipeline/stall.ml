type bucket =
  | Base
  | Icache
  | Redirect
  | Rob_full
  | Iq_full
  | Lq_full
  | Sq_full
  | Dcache
  | Fu_contention
  | Drain

let all =
  [
    Base; Icache; Redirect; Rob_full; Iq_full; Lq_full; Sq_full; Dcache;
    Fu_contention; Drain;
  ]

let count = List.length all

let[@inline] index = function
  | Base -> 0
  | Icache -> 1
  | Redirect -> 2
  | Rob_full -> 3
  | Iq_full -> 4
  | Lq_full -> 5
  | Sq_full -> 6
  | Dcache -> 7
  | Fu_contention -> 8
  | Drain -> 9

let name = function
  | Base -> "base"
  | Icache -> "icache"
  | Redirect -> "redirect"
  | Rob_full -> "rob-full"
  | Iq_full -> "iq-full"
  | Lq_full -> "lq-full"
  | Sq_full -> "sq-full"
  | Dcache -> "dcache"
  | Fu_contention -> "fu-contention"
  | Drain -> "drain-spm"

let describe = function
  | Base -> "ideal-machine work: dataflow, FU latency, commit bandwidth"
  | Icache -> "instruction-cache miss stalls at fetch"
  | Redirect -> "branch mispredict / BTB-miss redirect bubbles"
  | Rob_full -> "dispatch blocked on a full reorder buffer"
  | Iq_full -> "dispatch blocked on a full issue queue"
  | Lq_full -> "dispatch blocked on a full load queue"
  | Sq_full -> "dispatch blocked on a full store queue"
  | Dcache -> "load misses beyond the pipelined DL1 latency"
  | Fu_contention -> "issue-port / load-port contention"
  | Drain -> "SeMPE pipeline drains and SPM transfer cycles"
