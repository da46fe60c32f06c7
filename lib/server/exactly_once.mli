(** Exactly-once execution of tokened write batches: the one home of the
    server's idempotency window, shared by the synchronous driver
    ({!Sloth_driver.Connection}) and the multi-session server
    ({!Admission}).

    A write batch may carry an idempotency token.  The server keeps the
    outcomes of the most recent tokened batches in a bounded FIFO window,
    plus the set of every token it ever admitted (strings only).  A batch
    arriving with a token is then answered in one of four ways:

    - the token is in the window: {e replay} the cached outcomes;
    - the window lost it (evicted, or wiped by a crash) but the engine's
      durable token registry ({!Sloth_storage.Shard.token_applied}) proves
      the batch committed: a {e durable ack} that carries only "applied"
      (empty result sets, zero rows affected);
    - the token was admitted before but neither the window nor the
      registry knows its outcome: {e refuse} with a replay-window-miss
      error, because re-applying would break exactly-once;
    - otherwise the batch is new: {e execute} it and remember the outcome.

    The window is volatile: {!reset} models the server process dying with
    it.  Only the engine's registry spans restarts. *)

type t

val create : window:int -> t
(** An empty window holding at most [window] cached outcomes.  Raises
    [Invalid_argument] when [window < 1]. *)

val window : t -> int

val set_window : t -> int -> unit
(** Shrink or grow the window; shrinking evicts the oldest entries at once.
    Raises [Invalid_argument] when [n < 1]. *)

val reset : t -> unit
(** Forget every cached outcome and every admitted token: the server
    process died. *)

type decision =
  | Replay of Sloth_storage.Database.outcome list
      (** the cached outcomes of the earlier execution *)
  | Durable_ack of Sloth_storage.Database.outcome list
      (** one empty outcome per statement, each costing the fixed
          per-statement time *)
  | Refuse of string  (** the replay-window-miss message *)
  | Execute  (** no token, or a token never seen before *)

val decide :
  t ->
  Sloth_storage.Shard.t ->
  token:string option ->
  Sloth_sql.Ast.stmt list ->
  decision

val execute :
  Sloth_storage.Shard.t ->
  token:string option ->
  Sloth_sql.Ast.stmt list ->
  Sloth_storage.Database.outcome list
(** Run the batch through the engine.  A batch that writes without explicit
    transaction control runs inside {!Sloth_storage.Shard.atomically},
    which records [token] durably with the commit; a mid-batch error rolls
    the whole batch back.  Raises {!Sloth_storage.Database.Sql_error}. *)

val remember :
  t ->
  token:string option ->
  Sloth_sql.Ast.stmt list ->
  Sloth_storage.Database.outcome list ->
  unit
(** Cache the outcomes of a successfully executed write batch under its
    token (a no-op without a token or for a read-only batch). *)

val service_ms :
  Sloth_storage.Cost.model ->
  Sloth_sql.Ast.stmt list ->
  Sloth_storage.Database.outcome list ->
  float
(** Server time of an executed batch: its reads run in parallel
    ({!Sloth_storage.Cost.batch_ms}), its writes one after another. *)

val abandoned_exec :
  Sloth_storage.Shard.t -> Sloth_sql.Ast.stmt list -> int -> unit
(** Run the first [k] statements of a batch inside a transaction that is
    never committed: the shape of a server that died mid-batch.  No redo
    reaches the WAL, so recovery lands on the pre-batch state.  A batch
    with explicit transaction control is left alone, and a statement error
    just ends the prefix. *)
