(** Client connection to a (simulated) remote database server.

    Two protocols are provided, mirroring the paper's Sec. 5:

    - {!execute}: the standard driver — one statement per round trip.
    - {!execute_batch}: the Sloth batch driver extension — many statements
      in a single round trip; the server runs the read statements in
      parallel and the writes sequentially in order.

    Every call charges the connection's virtual clock: the Network category
    for the round trip and payload, the Db category for server-side
    execution.

    {b Resilience.}  When a {!Sloth_net.Fault.t} is installed on the link,
    both protocols consult it per round trip and retry failed trips under
    the connection's {!Retry_policy}: bounded exponential backoff with
    deterministic jitter, all of it charged to the virtual clock, plus a
    circuit breaker that opens after a run of consecutive failures and
    lets a half-open probe through after a cooldown.  A trip whose retry
    budget is exhausted (or that arrives while the breaker is open) raises
    {!Retries_exhausted} instead of hanging.  Write batches passed an
    idempotency [token] are applied exactly once even when a response is
    lost and the batch retransmitted: the simulated server answers them
    through {!Sloth_server.Exactly_once}, the same window the
    multi-session server uses.  Without a fault plan the behaviour (and
    timing) is exactly the fault-free driver's.

    {b One engine path.}  The server side is always a
    {!Sloth_storage.Shard.t}: {!create} wraps a plain database in a
    one-shard router ({!Sloth_storage.Shard.of_database}), whose every
    call goes straight to that database; {!create_sharded} takes a sharded
    deployment.

    {b Multi-session serving.}  A connection is synchronous and owns its
    database: one client, one blocking round trip at a time.  To run many
    concurrent clients against one server — with reads coalesced {e across}
    sessions — use {!Session} (non-blocking [submit]/[await] futures on a
    {!Sloth_net.Des} simulation) against a {!Sloth_server.Admission.t}. *)

type t

exception Server_error of string
(** Surfaced [Database.Sql_error]s.  Time for the failed round trip is still
    charged, like a real wire error.  Never retried: the wire worked, the
    statement is bad. *)

exception Retries_exhausted of { attempts : int; last : string }
(** The round trip failed [attempts] times (the last failure is named) and
    the retry budget ran out — or the circuit breaker was open. *)

module Retry_policy = Sloth_net.Retry_policy
(** The shared retry/backoff/circuit-breaker policy (one type across the
    driver, the admission layer and the replication shipper); the driver
    starts on {!Sloth_net.Retry_policy.default}. *)

val create : Sloth_storage.Database.t -> Sloth_net.Link.t -> t
(** A connection to one database: [create_sharded (Shard.of_database db)]. *)

val create_sharded : Sloth_storage.Shard.t -> Sloth_net.Link.t -> t
(** A connection whose server side is a shard router: batches route
    through {!Sloth_storage.Shard} (hash partitioning + two-phase commit
    when it has several shards).  {!server_crash} crashes and recovers the
    whole deployment, coordinator first. *)

val app_cost_per_stmt_ms : float ref
(** Client-side CPU per statement: driver marshalling, ORM hydration,
    framework bookkeeping (default 0.55 ms — calibrated so the page-load
    time breakdown matches the paper's Fig. 8 proportions). *)

val app_cost_per_row_ms : float ref
(** Client-side CPU per returned row (default 0.02 ms). *)

val link : t -> Sloth_net.Link.t
val clock : t -> Sloth_net.Vclock.t
val stats : t -> Sloth_net.Stats.t
val retry_policy : t -> Retry_policy.t
val set_retry_policy : t -> Retry_policy.t -> unit

val breaker_state : t -> [ `Closed | `Open | `Half_open ]
(** Current circuit-breaker state, for tests and diagnostics. *)

val idempotency_window : t -> int
(** Capacity of the server's idempotency outcome cache (default 512). *)

val set_idempotency_window : t -> int -> unit
(** Bound the idempotency table ({!Sloth_server.Exactly_once}): when more
    than this many tokens are cached, the oldest (FIFO) are evicted.  A retransmission of an evicted
    token whose batch has no durable WAL record is answered with a
    {!Server_error} ("replay-window miss") rather than silently re-applied
    — an exactly-once guarantee the server can no longer honour must fail
    loudly.  Raises [Invalid_argument] for [n < 1]. *)

val server_crash : t -> unit
(** Simulate the server process dying and restarting: the volatile
    idempotency cache is lost and the database recovers from its
    checkpoint + WAL ({!Sloth_storage.Database.crash_restart}).  Injected
    automatically when an installed fault plan decides
    [Fail (Server_crash, _)]; exposed for tests and experiments. *)

val execute : t -> Sloth_sql.Ast.stmt -> Sloth_storage.Database.outcome
val execute_sql : t -> string -> Sloth_storage.Database.outcome

val query : t -> string -> Sloth_storage.Result_set.t

val execute_batch :
  ?token:string ->
  t ->
  Sloth_sql.Ast.stmt list ->
  Sloth_storage.Database.outcome list
(** Empty batches cost nothing and perform no round trip.

    A batch containing writes (and no explicit BEGIN/COMMIT/ROLLBACK)
    executes atomically on the server: a mid-batch error rolls back the
    statements already applied before surfacing as {!Server_error}.

    [token] is a batch idempotency token: if a write-containing batch with
    this token was already processed (its response may have been lost), the
    server replays the stored outcomes instead of executing again. *)

val execute_batch_sql :
  t -> string list -> Sloth_storage.Database.outcome list

(** {2 Asynchronous execution}

    The prefetching baseline (Ramachandra et al., discussed in the paper's
    Sec. 1) hides latency by issuing queries as soon as their parameters are
    known and overlapping the round trip with computation.  [execute_async]
    starts a query without blocking virtual time; [await] charges only the
    part of the round trip that computation did not cover. *)

type async_handle

val async_pool_size : int ref
(** Connections available for outstanding asynchronous queries
    (default 4). *)

val execute_async : t -> Sloth_sql.Ast.stmt -> async_handle
(** Issue the statement now.  Counts a round trip and the per-statement
    client cost; the wire-and-server time is only charged when awaited. *)

val await : t -> async_handle -> Sloth_storage.Database.outcome
(** Block (advance the clock) until the response would have arrived:
    [max 0 (ready_time - now)], attributed to the Network category.
    Idempotent. *)
