(** Plain-text experiment tables. *)

type t = {
  id : string;  (** experiment id, e.g. "E1" *)
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val make :
  id:string -> title:string -> header:string list -> ?notes:string list ->
  string list list -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> string
(** The same table as one JSON object
    [{"id", "title", "header", "rows", "notes"}] (all cells as
    strings), rendered by {!Ghost_metrics.Json}, for machine
    consumption of benchmark runs — e.g. the CI artifact. *)

exception Would_overwrite of string
(** Raised (with the offending path) by the writers below when the
    target file already exists and [force] was not passed: benchmark
    outputs are results, and clobbering a previous run silently is how
    baselines get corrupted. *)

val write_string : path:string -> ?force:bool -> string -> unit
(** Writes [contents] to [path] (ensuring a trailing newline).
    Refuses to replace an existing file — raises {!Would_overwrite} —
    unless [force] is set. *)

val write_file : dir:string -> ?force:bool -> t -> string
(** Writes the report as [dir/BENCH_<id>.json] (creating [dir] if
    missing) and returns the path. Same overwrite policy as
    {!write_string}. *)

val us : float -> string
(** Microseconds rendered with unit scaling ("1.23 s", "45 ms"). *)

val bytes : int -> string
(** Byte counts rendered with unit scaling ("12.3 KB"). *)

val factor : float -> string
(** "x12.3" *)
