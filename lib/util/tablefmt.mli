(** ASCII rendering of result tables and simple line charts.

    [sempe-sim report] prints each paper table/figure as an aligned text
    table (and, for the figures, an optional log-scale sparkline) so the
    regenerated rows can be compared with the paper side by side. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] is an aligned table with a separator under the
    header. All rows must have the same arity as the header. *)

val print : header:string list -> string list list -> unit
(** [render] followed by printing to stdout with a trailing newline. *)

val fixed : int -> float -> string
(** [fixed d x] formats [x] with [d] decimal places. *)

val percent : float -> string
(** [percent x] formats the fraction [x] as a percentage with one decimal,
    e.g. [percent 0.314 = "31.4%"]. *)

val times : float -> string
(** [times x] formats a slowdown factor, e.g. ["10.6x"]. *)

val chart :
  title:string -> xlabel:string -> series:(string * (float * float) list) list
  -> ?log_y:bool -> unit -> string
(** [chart ~title ~xlabel ~series ()] renders each series as a row-per-x
    table with one column per series, suitable for eyeballing figure shapes
    in a terminal. [log_y] annotates that the paper's axis is logarithmic
    (values are printed as-is). *)
