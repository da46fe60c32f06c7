(** Sharding experiment: crash-safe two-phase commit across hash
    partitions.

    The {e crash matrix} sweeps a scripted [Server_crash] over every 2PC
    protocol step of every write batch — participant PREPARE (before and
    after the force, first and last participant), the coordinator's
    decision append (before and after; these windows cover the batch's
    whole trip range and rely on per-target scoping to fire at the
    [Coordinator] decision point only), and the phase-2 completion of the
    first and last participant — for every shard count and checkpoint
    interval in the grid.  After each crash the surviving state must be
    {e exactly} the pre- or the post-batch state (matching whether the
    idempotency token is durable on some shard), an acked commit must never
    be lost, every shard's WAL must audit clean against the decision log,
    and re-driving the token must converge exactly-once; the finished run's
    per-shard fingerprints must equal a crash-free replay's.

    The {e served} arm puts the asynchronous multi-session server over a
    sharded deployment ([?sharding] on {!Sloth_server.Admission.create})
    under seeded random whole-process crashes, checking delivered results
    against a serial replay on a fresh same-shard-count deployment (exact,
    including row order) and the logical state against an unsharded replay
    (order-insensitive), and auditing every shard's WAL against the
    decision log at quiescence (folded into [sh_identical]).

    The {e single-shard} check pins [shards = 1] byte-identical to the
    unsharded engine: same heap fingerprint, same WAL byte stream, an empty
    decision log. *)

(** {2 Workload internals}

    Shared with {!Repl_sharding}, which runs the same batches through the
    same scripted crash points against replicated shard groups. *)

val n_batches : int
(** Write batches in the crash workload. *)

val token_of : int -> string
(** Batch [i]'s idempotency token. *)

val seed_shard : Sloth_storage.Shard.t -> unit
(** Create and populate the workload's table on a fresh deployment. *)

val seed_db : Sloth_storage.Database.t -> unit
(** The same seed on an unsharded engine (the shadow / oracle replays). *)

val drive : Sloth_storage.Shard.t -> int -> unit
(** Drive batch [i] to exactly-once completion: the caller-side
    idempotency loop (check the durable token, re-submit until applied). *)

val shadow_lfp : int -> string
(** Logical fingerprint of the intended state after the first [i] batches
    ([shadow_lfp 0] = after the seed), from an unsharded shadow run. *)

type role = {
  r_label : string;
  r_first : int;  (** first fault-trip index of the scripted window *)
  r_last : int;
  r_target : Sloth_net.Fault.target;
  r_leg : Sloth_net.Fault.leg;
}
(** One scripted crash point of the matrix. *)

val roles_of : t0:int -> trips:int -> role list
(** The crash points of a batch whose commit starts at global trip [t0]
    and consumes [trips] decision points: 2 for the 1PC fast path, 7 for a
    multi-participant commit (PREPARE first/last before/after the force,
    decision before/after the log append, first/last phase-2 ack). *)

type layout = {
  l_start : int array;
  l_trips : int array;
  l_ref : string list;
}
(** Fault-trip layout of a crash-free run: decision points consumed before
    each batch, per-batch trip counts (2P+1 for a P-participant commit, 1
    for the single-participant fast path), and the clean final per-shard
    fingerprints. *)

val probe : shards:int -> checkpoint_every:int -> layout

type config_result = {
  cfg_shards : int;
  cfg_checkpoint_every : int;
  cfg_cases : int;
  cfg_acked : int;  (** commits that returned success *)
  cfg_applied : int;  (** tokens durable after the crash *)
  cfg_aborted : int;  (** cases resolved as (presumed) abort *)
  cfg_in_doubt_committed : int;  (** in-doubt chunks recovery committed *)
  cfg_in_doubt_aborted : int;  (** in-doubt chunks recovery aborted *)
  cfg_atomicity_violations : int;  (** states neither pre nor post — must be 0 *)
  cfg_lost_writes : int;  (** acked but not durable — must be 0 *)
  cfg_audit_violations : int;  (** WAL-vs-decision-log mismatches — must be 0 *)
  cfg_misfires : int;  (** scripted windows injecting [<>] 1 crash — must be 0 *)
  cfg_resume_ok : int;  (** cases whose token re-drive converged exactly-once *)
  cfg_final_ok : int;  (** cases ending on the shadow state *)
  cfg_replay_ok : int;  (** cases whose shard fingerprints equal the replay *)
  cfg_by_role : (string * int * int * int) list;
}

val run_config : shards:int -> checkpoint_every:int -> config_result
(** Run the full crash matrix for one (shard count, checkpoint interval)
    cell. *)

type served = {
  sh_sessions : int;
  sh_batches : int;
  sh_errors : int;
  sh_crashes : int;
  sh_recoveries : int;
  sh_torn_inflight : int;
  sh_redriven : int;
  sh_durable_acks : int;
  sh_torn : int;
  sh_two_pc : int;
  sh_one_pc : int;
  sh_aborts : int;
  sh_gathers : int;
  sh_fanout : int;
  sh_decisions : int;
  sh_identical : bool;
}

val served_schedule : int -> Served_crash.batch list
(** Session [si]'s seeded batch schedule for the served arm.  Shared with
    the replicated-sharding served arm so both run the identical
    multi-session workload. *)

val served_oracle :
  shards:int ->
  checkpoint_every:int ->
  Sloth_storage.Shard.t ->
  Served_crash.oracle
(** The served arm's oracle for deployment [sh]: replay on a fresh
    unreplicated deployment with the same shard count (exact result sets
    and per-shard fingerprints) and on an unsharded engine (logical
    fingerprint), plus a clean {!Sloth_storage.Shard.audit} of [sh]. *)

val served_sharded :
  ?crash:float -> ?shards:int -> ?checkpoint_every:int -> unit -> served
(** The async admission server over a sharded deployment under seeded
    random server crashes (defaults: crash rate 0.06, 3 shards, checkpoint
    every 2 commits). *)

val single_shard_identical : unit -> bool
(** Run the whole workload on a [shards = 1] deployment and an unsharded
    durable database side by side: equal heap fingerprints, equal WAL
    sizes, empty decision log. *)

val sharding : ?json:string -> unit -> unit
(** Run the crash matrix over every grid cell, the served arm and the
    single-shard check; when [json] is given, also write the deterministic
    counters (no wall-clock values) as a machine-readable JSON file
    (e.g. [BENCH_sharding.json]). *)
