(** Trace sinks: where timing-model probe events go.

    A sink is a {!Sempe_pipeline.Probe.t} plus a [close] finalizer.
    [Run.simulate ?sink] attaches the probe for the duration of a run;
    the creator of the sink owns the channel and must call [close] (the
    Perfetto sink writes its JSON footer there — the file is invalid
    without it). A run without a sink builds no event. Attaching any
    sink, {!null} included, makes the timing model build one
    {!Sempe_pipeline.Probe.uop_event} per µop and call its probe. *)

type t = {
  probe : Sempe_pipeline.Probe.t;
  close : unit -> unit;
}

val null : t
(** Discards every event; [close] is a no-op. *)

val of_probe : Sempe_pipeline.Probe.t -> t
(** Wrap a bare probe (e.g. {!Profile.probe}) with a no-op [close]. *)

val tee : t -> t -> t
(** Duplicate every event (and [close]) to both sinks, in order. *)

val jsonl : out_channel -> t
(** One compact JSON object per event, newline-separated
    (see {!Trace.jsonl_of_uop}). [close] flushes but does not close the
    channel. *)

val perfetto : out_channel -> t
(** Chrome trace-event stream for {{:https://ui.perfetto.dev}Perfetto}.
    Events are streamed as they arrive; [close] writes the closing
    bracket — call it before reading the file. *)
