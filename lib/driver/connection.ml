module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Rs = Sloth_storage.Result_set
module Cost = Sloth_storage.Cost
module Link = Sloth_net.Link
module Vclock = Sloth_net.Vclock
module Stats = Sloth_net.Stats
module Fault = Sloth_net.Fault
module Exactly_once = Sloth_server.Exactly_once

module Retry_policy = Sloth_net.Retry_policy

type breaker = Closed | Open_until of float | Half_open

type t = {
  eng : Shard.t;
      (* the server-side engine: a sharded deployment, or a one-shard
         router over a plain database *)
  link : Sloth_net.Link.t;
  mutable slots : float array;
      (* async pool: when each pooled connection becomes free *)
  mutable retry : Retry_policy.t;
  mutable breaker : breaker;
  mutable consecutive_failures : int;
  once : Exactly_once.t;  (* the server's volatile idempotency window *)
  jitter_rng : Random.State.t;
}

exception Server_error of string
exception Retries_exhausted of { attempts : int; last : string }

let app_cost_per_stmt_ms = ref 1.0
let app_cost_per_row_ms = ref 0.02

let create_sharded eng link =
  {
    eng;
    link;
    slots = [||];
    retry = Retry_policy.default;
    breaker = Closed;
    consecutive_failures = 0;
    once = Exactly_once.create ~window:512;
    jitter_rng = Random.State.make [| 0x5107 |];
  }

let create db link = create_sharded (Shard.of_database db) link
let fixed_ms t = (Shard.cost_model t.eng).Cost.fixed_ms
let link t = t.link
let clock t = Sloth_net.Link.clock t.link
let stats t = Sloth_net.Link.stats t.link
let retry_policy t = t.retry
let set_retry_policy t p = t.retry <- p

let breaker_state t =
  match t.breaker with
  | Closed -> `Closed
  | Open_until _ -> `Open
  | Half_open -> `Half_open

let idempotency_window t = Exactly_once.window t.once
let set_idempotency_window t n = Exactly_once.set_window t.once n

(* The server process dies: its idempotency cache is volatile and vanishes
   with it; the database recovers from checkpoint + WAL (or is wiped, if
   durability is off). *)
let server_crash t =
  Shard.crash_restart t.eng;
  Exactly_once.reset t.once

let request_bytes stmts =
  List.fold_left
    (fun acc s -> acc + String.length (Sloth_sql.Printer.to_string s) + 8)
    16 stmts

let charge_db t ms = Sloth_net.Vclock.advance (clock t) Sloth_net.Vclock.Db ms

(* Client-side work: statement preparation before the trip plus result-set
   hydration after it. *)
let charge_app t ~stmts ~rows =
  Sloth_net.Vclock.advance (clock t) Sloth_net.Vclock.App
    ((!app_cost_per_stmt_ms *. float_of_int stmts)
    +. (!app_cost_per_row_ms *. float_of_int rows))

(* --- retry / circuit-breaker machinery ---------------------------------- *)

let breaker_check t ~attempt =
  match t.breaker with
  | Closed | Half_open -> ()
  | Open_until until ->
      if Vclock.now (clock t) >= until then
        (* cooldown over: this attempt is the half-open probe *)
        t.breaker <- Half_open
      else
        raise (Retries_exhausted { attempts = attempt - 1; last = "circuit open" })

let breaker_success t =
  t.consecutive_failures <- 0;
  t.breaker <- Closed

let breaker_failure t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  let open_now () =
    t.breaker <-
      Open_until (Vclock.now (clock t) +. t.retry.breaker_cooldown_ms)
  in
  match t.breaker with
  | Half_open -> open_now () (* the probe failed: back to open *)
  | Closed | Open_until _ ->
      if t.consecutive_failures >= t.retry.breaker_threshold then open_now ()

(* Bounded exponential backoff with deterministic jitter, charged to the
   virtual clock so latency experiments pay for every retry. *)
let backoff t attempt =
  let p = t.retry in
  let capped = Retry_policy.backoff_ms p attempt in
  let jit =
    if p.jitter <= 0.0 then 0.0
    else capped *. p.jitter *. Random.State.float t.jitter_rng 1.0
  in
  Vclock.advance (clock t) Vclock.Network (capped +. jit)

(* One logical round trip under the installed fault plan, retried per the
   policy.  [run ()] performs the server-side work and returns
   [(reply, db_ms, rows, response_bytes)]; the round trip returns the
   reply.  [run] is also called when the response leg fails after the
   server processed the request — the work happens (and any idempotency
   token is recorded) but the client sees only its timeout.  [partial k]
   simulates the server dying between statement [k] and [k+1] of the
   batch: the statements run inside a transaction that is never committed,
   so nothing reaches the WAL.  A [Db.Sql_error] from [run] is a real
   server answer, not an infrastructure fault: it is never retried and
   costs the round trip plus [error_db_ms]. *)
let resilient ?(partial = fun _ -> ()) t fault ~queries ~req_bytes ~error_db_ms
    ~run =
  let rec go attempt =
    breaker_check t ~attempt;
    match Fault.decide fault with
    | Fault.Deliver extra_ms -> (
        match run () with
        | reply, db_ms, rows, resp_bytes ->
            Link.deliver t.link ~queries ~bytes:(req_bytes + resp_bytes)
              ~extra_ms;
            breaker_success t;
            charge_db t db_ms;
            charge_app t ~stmts:queries ~rows;
            reply
        | exception Db.Sql_error msg ->
            Link.deliver t.link ~queries ~bytes:(req_bytes + 16) ~extra_ms;
            if error_db_ms > 0.0 then charge_db t error_db_ms;
            (* the wire and server are fine; only the statement is bad *)
            breaker_success t;
            raise (Server_error msg))
    | Fault.Fail (failure, leg) ->
        (match (failure, leg) with
        | Fault.Server_crash, leg ->
            (* How much of the request the server executed before dying
               depends on the leg it crashed on; either way the process is
               gone afterwards and restarts into recovery. *)
            (match leg with
            | Fault.Request -> ()
            | Fault.Mid_batch k -> partial k
            | Fault.Response -> (
                try ignore (run ()) with Db.Sql_error _ -> ()));
            server_crash t
        | _, Fault.Response -> (
            (* The request reached the server and was executed; only the
               reply vanished.  An error reply is lost along with it. *)
            try ignore (run ()) with Db.Sql_error _ -> ())
        | _, (Fault.Request | Fault.Mid_batch _) -> ());
        Link.charge_failure t.link ~queries ~bytes:req_bytes failure;
        breaker_failure t;
        if attempt >= t.retry.max_attempts then
          raise
            (Retries_exhausted
               { attempts = attempt; last = Fault.failure_label failure })
        else begin
          Stats.record_retry (stats t);
          backoff t attempt;
          go (attempt + 1)
        end
  in
  go 1

(* --- simple protocol ----------------------------------------------------- *)

let execute t stmt =
  match Link.fault t.link with
  | None ->
      let outcome =
        try Shard.exec t.eng stmt
        with Db.Sql_error msg ->
          (* A failed statement still consumed a round trip. *)
          Sloth_net.Link.round_trip t.link ~queries:1
            ~bytes:(request_bytes [ stmt ] + 16);
          charge_db t (fixed_ms t);
          raise (Server_error msg)
      in
      Sloth_net.Link.round_trip t.link ~queries:1
        ~bytes:(request_bytes [ stmt ] + Rs.size_bytes outcome.rs);
      charge_db t outcome.cost_ms;
      charge_app t ~stmts:1 ~rows:(Rs.num_rows outcome.rs);
      outcome
  | Some fault ->
      let run () =
        let o = Shard.exec t.eng stmt in
        (o, o.cost_ms, Rs.num_rows o.rs, Rs.size_bytes o.rs)
      in
      resilient t fault ~queries:1 ~req_bytes:(request_bytes [ stmt ])
        ~error_db_ms:(fixed_ms t) ~run

let execute_sql t sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> execute t stmt
  | exception Sloth_sql.Parser.Error msg -> raise (Server_error msg)

let query t sql = (execute_sql t sql).rs

(* --- batch protocol ------------------------------------------------------ *)

(* Server-side execution of a batch: reads run in parallel, writes
   sequentially, a write batch without explicit transaction control
   atomically.  A tokened batch is answered exactly once
   ({!Exactly_once}): a retransmission replays the cached outcomes, or a
   durable "applied" ack once the cache died with the server. *)
let run_batch t stmts ~token () =
  let totals outcomes =
    List.fold_left
      (fun (rows, resp) (o : Db.outcome) ->
        (rows + Rs.num_rows o.rs, resp + Rs.size_bytes o.rs))
      (0, 0) outcomes
  in
  match Exactly_once.decide t.once t.eng ~token stmts with
  | Replay outcomes ->
      let rows, resp = totals outcomes in
      (outcomes, fixed_ms t, rows, resp)
  | Durable_ack ack -> (ack, fixed_ms t, 0, 16)
  | Refuse msg -> raise (Db.Sql_error msg)
  | Execute ->
      let outcomes = Exactly_once.execute t.eng ~token stmts in
      Exactly_once.remember t.once ~token stmts outcomes;
      let rows, resp = totals outcomes in
      ( outcomes,
        Exactly_once.service_ms (Shard.cost_model t.eng) stmts outcomes,
        rows,
        resp )

let execute_batch ?token t stmts =
  match stmts with
  | [] -> [] (* the documented guarantee: no round trip, no cost *)
  | _ -> (
      let nq = List.length stmts in
      let req_bytes = request_bytes stmts in
      let run = run_batch t stmts ~token in
      match Link.fault t.link with
      | None -> (
          match run () with
          | outcomes, db_ms, rows, resp_bytes ->
              Sloth_net.Link.round_trip t.link ~queries:nq
                ~bytes:(req_bytes + resp_bytes);
              charge_db t db_ms;
              charge_app t ~stmts:nq ~rows;
              outcomes
          | exception Db.Sql_error msg ->
              Sloth_net.Link.round_trip t.link ~queries:nq
                ~bytes:(req_bytes + 16);
              raise (Server_error msg))
      | Some fault ->
          resilient t fault ~queries:nq ~req_bytes ~error_db_ms:0.0
            ~partial:(Exactly_once.abandoned_exec t.eng stmts)
            ~run)

let execute_batch_sql t sqls =
  let stmts =
    List.map
      (fun sql ->
        match Sloth_sql.Parser.parse sql with
        | stmt -> stmt
        | exception Sloth_sql.Parser.Error msg -> raise (Server_error msg))
      sqls
  in
  execute_batch t stmts

(* --- asynchronous (prefetch) protocol ------------------------------------ *)

type async_handle = {
  outcome_async : Db.outcome;
  ready_at : float;  (* absolute virtual time when the response lands *)
  mutable awaited : bool;
}

let async_pool_size = ref 4

(* One in-flight query per pooled connection: [slots.(i)] is the time at
   which connection [i] becomes free again. *)
let slots_for t =
  if Array.length t.slots <> max 1 !async_pool_size then
    t.slots <- Array.make (max 1 !async_pool_size) neg_infinity;
  t.slots

let execute_async t stmt =
  let outcome =
    try Shard.exec t.eng stmt
    with Db.Sql_error msg -> raise (Server_error msg)
  in
  (* The request goes out on the first free pooled connection; the response
     is due one round trip plus server execution after that.  The clock
     does not advance: the application keeps computing while the query is
     in flight — but parallelism is bounded by the pool, unlike a Sloth
     batch, which ships everything in one request. *)
  let bytes = request_bytes [ stmt ] + Rs.size_bytes outcome.rs in
  Sloth_net.Stats.record_round_trip (stats t) ~queries:1 ~bytes;
  charge_app t ~stmts:1 ~rows:(Rs.num_rows outcome.rs);
  let slots = slots_for t in
  let best = ref 0 in
  Array.iteri (fun i free -> if free < slots.(!best) then best := i) slots;
  let depart = Float.max (Sloth_net.Vclock.now (clock t)) slots.(!best) in
  let ready_at =
    depart
    +. Sloth_net.Link.rtt_ms t.link
    +. Sloth_net.Link.transfer_ms t.link ~bytes
    +. outcome.cost_ms
  in
  slots.(!best) <- ready_at;
  { outcome_async = outcome; ready_at; awaited = false }

let await t h =
  if not h.awaited then begin
    h.awaited <- true;
    let now = Sloth_net.Vclock.now (clock t) in
    if now < h.ready_at then
      Sloth_net.Vclock.advance (clock t) Sloth_net.Vclock.Network
        (h.ready_at -. now)
  end;
  h.outcome_async
