(** Write-ahead logging: redo records with length+checksum framing.

    The engine stays in-memory; durability comes from appending physical
    redo records to a {!store} at commit time and replaying them on
    restart.  A record never reaches the log before its transaction
    commits, so replay applies only committed work; a crash in the middle
    of an append leaves a torn tail that the framing detects and discards
    (every frame carries its payload length and an Adler-32 checksum, and
    a transaction's records only count once its [Commit] marker is seen).

    Stores come in two backings: [mem] (a buffer that survives a simulated
    server crash — the experiment substrate) and [file] (a real file, so a
    database outlives the process). *)

type store

val mem : unit -> store
(** An in-memory store.  It models the disk in crash experiments: the
    database's heap dies with the simulated process, the store does not. *)

val file : string -> store
(** A file-backed store.  [write_all] goes through a temp-file rename so a
    crash mid-rewrite cannot destroy the previous contents. *)

val contents : store -> string
val append : store -> string -> unit

val write_all : store -> string -> unit
(** Replace the whole contents (snapshot install, log truncation). *)

val write_frame : store -> (string * int) list -> unit
(** [write_frame store pieces] replaces the whole contents with one frame
    whose payload is the concatenation of [pieces], each given with its
    {!checksum}.  The frame checksum is combined from the pieces'
    ({!checksum_combine}) and the pieces are written one by one, so the
    payload is never assembled or re-scanned (checkpoint install).  The
    bytes equal [write_all store (Codec.frame_pieces pieces)]. *)

val length : store -> int
(** Byte length of the contents; O(1) for [mem]. *)

val is_empty : store -> bool

(** {2 Records} *)

type record =
  | Begin of int  (** transaction id *)
  | Commit of int
  | Set of { table : string; rid : int; row : Value.t array option }
      (** physical redo: slot [rid] of [table] holds [row] ([None] = the
          slot is empty).  Idempotent, so replaying a suffix that overlaps
          a checkpoint is harmless. *)
  | Create_table of Schema.t
  | Create_index of { table : string; column : string; ordered : bool }
  | Token of string
      (** idempotency token applied by the surrounding transaction; replay
          rebuilds the durable token registry from these. *)
  | Prepare of int
      (** two-phase commit, phase 1: closes a [Begin id .. Prepare id] chunk
          whose redo records are forced to the log but {e not yet} committed.
          Recovery holds such a chunk {e in doubt} until it sees a later
          standalone [Commit id] (the phase-2 completion marker) or resolves
          it through the coordinator's decision log — no decision means
          abort (presumed abort). *)
  | Decision of { gtid : int; participants : int list }
      (** coordinator decision-log record: global transaction [gtid]
          COMMITTED on [participants] (shard indices).  Aborts are never
          logged — the absence of a decision {e is} the abort record. *)

val encode : record list -> string
(** One frame per record, concatenated.  A transaction's
    [Begin ... Commit] chunk should be encoded and appended as one string
    so the torn-tail cut can only fall inside a single chunk. *)

val append_records : store -> record list -> unit

val scan : string -> record list * int
(** [scan bytes] decodes every complete, checksum-valid frame of the
    longest valid prefix; returns the records and the byte length of that
    prefix.  Never raises: a torn or corrupt tail just ends the scan. *)

val checksum : string -> int
(** Adler-32.  Also the shard router's hash ({!Shard.home}), so its values
    must never change. *)

val checksum_combine : int -> int -> int -> int
(** [checksum_combine (checksum a) (checksum b) (String.length b)] is
    [checksum (a ^ b)] (zlib's [adler32_combine]). *)

(** {2 Codec}

    Primitives shared with the checkpoint writer in {!Database}. *)

module Codec : sig
  exception Corrupt

  val put_int : Buffer.t -> int -> unit
  val put_string : Buffer.t -> string -> unit
  val put_value : Buffer.t -> Value.t -> unit
  val put_row_opt : Buffer.t -> Value.t array option -> unit
  val put_schema : Buffer.t -> Schema.t -> unit

  type reader

  val reader : string -> reader
  val at_end : reader -> bool
  val get_int : reader -> int
  val get_string : reader -> string
  val get_value : reader -> Value.t
  val get_row_opt : reader -> Value.t array option
  val get_schema : reader -> Schema.t
  (** All getters raise {!Corrupt} on malformed input. *)

  val frame_pieces : (string * int) list -> string
  (** Wrap the pieces' concatenation as [length | checksum | payload], each
      piece given with its {!checksum}: the bytes {!write_frame} writes. *)

  val unframe : string -> int -> (string * int) option
  (** [unframe bytes pos] reads one frame at [pos]; [Some (payload, next)]
      if complete and checksum-valid, [None] for a torn or corrupt frame. *)
end
