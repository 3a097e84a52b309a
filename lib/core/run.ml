module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config

type outcome = {
  exec : Exec.result;
  timing : Timing.report;
}

let exec_config ~support ~(machine : Config.t) ~mem_words ~max_instrs
    ~forgiving_oob ~fault =
  {
    Exec.support;
    mem_words;
    max_instrs;
    spm = machine.Config.spm;
    jbtable_entries = machine.Config.jbtable_entries;
    forgiving_oob;
    fault;
  }

let simulate ?(support = Exec.Sempe_hw) ?(machine = Config.default)
    ?(mem_words = Exec.default_config.Exec.mem_words)
    ?(max_instrs = Exec.default_config.Exec.max_instrs)
    ?(forgiving_oob = true) ?(fault = Exec.No_fault) ?init_mem ?sink prog =
  let probe = Option.map (fun s -> s.Sempe_obs.Sink.probe) sink in
  let timing = Timing.create ~config:machine ?probe () in
  let config =
    exec_config ~support ~machine ~mem_words ~max_instrs ~forgiving_oob ~fault
  in
  let exec = Exec.run ~config ?init_mem ~sink:(Timing.feed timing) prog in
  { exec; timing = Timing.report timing }

let execute ?(support = Exec.Sempe_hw) ?(machine = Config.default)
    ?(mem_words = Exec.default_config.Exec.mem_words)
    ?(max_instrs = Exec.default_config.Exec.max_instrs)
    ?(forgiving_oob = true) ?(fault = Exec.No_fault) ?init_mem ?warm prog =
  let config =
    exec_config ~support ~machine ~mem_words ~max_instrs ~forgiving_oob ~fault
  in
  Exec.finish (Exec.start ~config ?init_mem ?warm prog)

let cycles o = o.timing.Timing.cycles

let overhead ~baseline o =
  Sempe_util.Stats.ratio ~num:(cycles o) ~den:(cycles baseline)

let seconds (machine : Config.t) c =
  float_of_int c /. (machine.Config.clock_ghz *. 1e9)
