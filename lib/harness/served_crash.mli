(** The kv crash workload shared by the recovery, sharding and failover
    experiments, and the served crash run shared by recovery and both
    sharding matrices.

    Several closed-loop sessions submit seeded batch schedules to one
    {!Sloth_server.Admission} server in front of a deployment, while seeded
    random [Server_crash] faults kill the server under them.  Every crash
    tears the in-flight batches; the sessions reconnect and re-drive them.
    Afterwards the server's execution log is replayed serially on an
    oracle, and every delivered reply must match that replay (or, for a
    tokened batch, be a durable ack). *)

(** {2 The kv crash workload}

    The [kv (id INT, v TEXT, n INT)] table every crash experiment writes
    to.  Each experiment keeps its own batches and schedules. *)

val seed_sql : rows:int -> string list
(** [CREATE TABLE kv] and rows [1..rows] as [(i, 'r<i>', 10 * i)]. *)

val parse : string -> Sloth_sql.Ast.stmt
(** Parse one workload statement; fails loudly on a malformed one. *)

val seed_db : rows:int -> Sloth_storage.Database.t -> unit
(** Run {!seed_sql} on an engine. *)

val durable_db :
  rows:int -> checkpoint_every:int -> unit -> Sloth_storage.Database.t
(** A fresh engine with in-memory WAL and checkpoint storage, seeded after
    durability is on. *)

val shadow_fingerprints :
  rows:int ->
  fingerprint:(Sloth_storage.Database.t -> string) ->
  Sloth_sql.Ast.stmt list list ->
  string array
(** Fingerprints of the intended state after the seed (index 0) and after
    each batch, each applied atomically on a plain fault-free engine. *)

(** {2 The served crash run} *)

type batch = Sloth_sql.Ast.stmt list * string option * float
(** [(stmts, token, think_ms)]: one submission and the think time after
    it. *)

val batches_per_session : int
(** Ten: the length of every {!schedule}. *)

val schedule :
  seed:int -> keys:int -> token_prefix:string -> int -> batch list
(** [schedule ~seed ~keys ~token_prefix si] is session [si]'s schedule over
    the [kv (id, v, n)] table: ten batches, each either one or two reads or
    one or two tokened writes (token ["<token_prefix><si>-<b>"]).  Reads
    probe ids [1..keys]; updates and deletes hit ids [1..20]; inserts use
    fresh per-session ids from 200 up.  Deterministic in [(seed, si)]. *)

type oracle = {
  replay : Sloth_sql.Ast.stmt list -> Sloth_storage.Database.outcome list;
      (** run one logged batch serially; raises
          {!Sloth_storage.Database.Sql_error} when it fails *)
  agrees : unit -> bool;
      (** after the whole log was replayed: the deployment's final state
          matches the replay's *)
}

val same_outcome :
  Sloth_storage.Database.outcome -> Sloth_storage.Database.outcome -> bool
(** Column-, row- and rows-affected-exact outcome equality. *)

val reply_agrees :
  tokened:bool ->
  Sloth_storage.Database.outcome list option ->
  Sloth_storage.Database.outcome list ->
  bool
(** [reply_agrees ~tokened replayed outs]: the delivered [outs] equal the
    serial replay's outcomes, or the batch was tokened and [outs] is a
    synthesized durable ack (non-empty, every result set empty, zero rows
    affected).  False when the replay has no outcomes for the batch. *)

type result = {
  server : Sloth_server.Admission.t;
      (** read its counters with {!Sloth_server.Admission.stats} *)
  deployment : Sloth_storage.Shard.t;  (** the [~deployment] that was run *)
  sessions : int;
  batches : int;  (** batches submitted across all sessions *)
  errors : int;  (** batches answered with [Error] *)
  torn : int;
      (** batches never answered, plus one if the server did not end up
          serving — must be 0 *)
  reconnects : int;  (** per-session reconnect attempts, summed *)
  lost_acked : int;
      (** acknowledged tokened batches whose token is not durable in the
          deployment at quiescence — must be 0 *)
  identical : bool;
      (** the oracle agrees and every delivered reply matches the replay *)
}

val run :
  deployment:Sloth_storage.Shard.t ->
  schedule:(int -> batch list) ->
  fault_seed:int ->
  oracle:oracle ->
  crash:float ->
  unit ->
  result
(** Six sessions, session [si] starting at [0.3 * si] ms with fault seed
    [fault_seed + si] and crash rate [crash]; a 1 ms coalescing window and
    up to 40 attempts per batch.  Runs the simulation to the end, drains
    the deployment's replication ({!Sloth_storage.Shard.quiesce}), then
    replays the log on [oracle]. *)
