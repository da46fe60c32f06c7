(** ASCII rendering of experiment results: headers, tables, CDF summaries
    and bar sketches, matching the rows/series the paper's figures show. *)

val section : string -> unit
(** A boxed heading on stdout. *)

val subsection : string -> unit

val table : header:string list -> string list list -> unit
(** Column-aligned table. *)

val cdf_summary : name:string -> float list -> unit
(** One line: min / p25 / median / p75 / max of a sample. *)

val cdf_series : name:string -> float list -> unit
(** The downsampled CDF itself, one point per line fraction. *)

val bar : label:string -> ?width:int -> float -> max:float -> unit
(** A labelled horizontal bar scaled to [max]. *)

(** {2 JSON}

    The one emitter behind every [BENCH_*.json] file.  Only deterministic
    counters go in: a committed file must regenerate byte for byte. *)

type json =
  | Int of int
  | Float of int * float  (** [(decimals, x)]: [x] with that many decimals *)
  | Bool of bool
  | String of string
  | Obj of (string * json) list  (** keys in the given order *)
  | List of json list

val json_to_string : (string * json) list -> string
(** The object with these ordered keys: one top-level key per line, one
    element per line in a top-level list, anything deeper inline
    ([{"k": v, ...}]). *)

val write_json : string option -> (string * json) list -> unit
(** [write_json (Some path) fields] writes {!json_to_string} [fields] to
    [path] and prints ["  wrote <path>"]; [None] does nothing. *)
