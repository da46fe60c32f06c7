module Conn = Sloth_driver.Connection
module Rs = Sloth_storage.Result_set

let log_src = Logs.Src.create "sloth.query_store" ~doc:"Query store batching"

type query_id = int

type flush_policy = On_demand | At_size of int

type event =
  | Registered of query_id * string
  | Dedup_hit of query_id * string
  | Write_through of query_id * string
  | Batch_sent of (query_id * string) list
  | Result_served of query_id
  | Query_poisoned of query_id * string

exception Query_failed of query_id * string

type entry = {
  stmt : Sloth_sql.Ast.stmt;
  sql : string;  (* canonical text, for display and tracing *)
  key : string;
      (* normalized canonical text, the dedup key; "" for a write, which
         never sits in the pending batch and so is never compared *)
  mutable result : Sloth_storage.Database.outcome option;
  mutable error : string option;  (* isolated poison query, or lost batch *)
}

type t = {
  conn : Conn.t;
  policy : flush_policy;
  entries : (query_id, entry) Hashtbl.t;
  mutable batch : query_id list;  (* pending, newest first *)
  mutable next_id : int;
  mutable next_token : int;
  mutable batches_sent : int;
  mutable max_batch_size : int;
  mutable registered : int;
  mutable degraded_batches : int;
  mutable poisoned : int;
  mutable tracer : (event -> unit) option;
}

let create ?(policy = On_demand) conn =
  {
    conn;
    policy;
    entries = Hashtbl.create 64;
    batch = [];
    next_id = 0;
    next_token = 0;
    batches_sent = 0;
    max_batch_size = 0;
    registered = 0;
    degraded_batches = 0;
    poisoned = 0;
    tracer = None;
  }

let connection t = t.conn
let policy t = t.policy
let set_tracer t tracer = t.tracer <- tracer
let emit t event = match t.tracer with Some f -> f event | None -> ()

let entry t id = Hashtbl.find t.entries id

let fresh_id t stmt sql ~key =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.entries id { stmt; sql; key; result = None; error = None };
  id

let fresh_token t =
  let k = t.next_token in
  t.next_token <- k + 1;
  Printf.sprintf "qs-batch-%d" k

let fill t ids outcomes =
  List.iter2 (fun id outcome -> (entry t id).result <- Some outcome) ids outcomes

let stmts_of t ids = List.map (fun id -> (entry t id).stmt) ids

(* Bisect an all-read batch that the server rejected: halve until the poison
   query (or queries) are isolated, fail only those ids, serve the rest.
   Infrastructure failures ([Retries_exhausted]) propagate — with the link
   down there is nothing to isolate. *)
let rec degrade t ids =
  match ids with
  | [] -> ()
  | [ id ] -> (
      let e = entry t id in
      match Conn.execute_batch t.conn [ e.stmt ] with
      | [ outcome ] -> e.result <- Some outcome
      | _ -> assert false
      | exception Conn.Server_error msg ->
          e.error <- Some msg;
          t.poisoned <- t.poisoned + 1;
          Logs.warn ~src:log_src (fun m ->
              m "poison query isolated [Q%d]: %s" id msg);
          emit t (Query_poisoned (id, msg)))
  | _ ->
      let n = List.length ids in
      let left = List.filteri (fun i _ -> i < n / 2) ids in
      let right = List.filteri (fun i _ -> i >= n / 2) ids in
      attempt t left;
      attempt t right

and attempt t ids =
  match ids with
  | [] -> ()
  | _ -> (
      match Conn.execute_batch t.conn (stmts_of t ids) with
      | outcomes -> fill t ids outcomes
      | exception Conn.Server_error _ -> degrade t ids)

let send t ids =
  match ids with
  | [] -> ()
  | _ ->
      let ids = List.rev ids in
      Logs.debug ~src:log_src (fun m ->
          m "shipping batch of %d queries" (List.length ids));
      emit t (Batch_sent (List.map (fun id -> (id, (entry t id).sql)) ids));
      let stmts = stmts_of t ids in
      let has_write = List.exists Sloth_sql.Ast.is_write stmts in
      (match
         if has_write then
           Conn.execute_batch ~token:(fresh_token t) t.conn stmts
         else Conn.execute_batch t.conn stmts
       with
      | outcomes -> fill t ids outcomes
      | exception Conn.Server_error _ when not has_write ->
          (* Graceful degradation: retry the reads by bisection so only the
             poison query fails; every other registered read is served. *)
          t.degraded_batches <- t.degraded_batches + 1;
          degrade t ids
      | exception Conn.Server_error msg ->
          (* A write-containing flush fails whole (the batch driver already
             rolled its statements back); the write's registrant sees the
             error, and the reads that rode along are marked lost. *)
          List.iter (fun id -> (entry t id).error <- Some msg) ids;
          raise (Conn.Server_error msg));
      t.batches_sent <- t.batches_sent + 1;
      let n = List.length ids in
      if n > t.max_batch_size then t.max_batch_size <- n

let flush t =
  let ids = t.batch in
  t.batch <- [];
  send t ids

let register t stmt =
  t.registered <- t.registered + 1;
  let sql = Sloth_sql.Printer.to_string stmt in
  if Sloth_sql.Ast.is_write stmt then begin
    (* Writes are never deferred: flush pending reads together with the
       write in a single round trip (reads first, preserving order). *)
    let id = fresh_id t stmt sql ~key:"" in
    emit t (Write_through (id, sql));
    let ids = id :: t.batch in
    t.batch <- [];
    send t ids;
    id
  end
  else
    (* Dedup against the *pending* batch only, keyed on the normalized
       canonical form: reads that differ in conjunct order or the operand
       order of commutative operators batch as one query.  A poisoned or
       lost query is never pending again, so re-registering its SQL builds
       a fresh entry. *)
    let key = Sloth_sql.Normalize.key stmt in
    let dup =
      List.find_opt (fun id -> String.equal (entry t id).key key) t.batch
    in
    match dup with
    | Some id ->
        emit t (Dedup_hit (id, sql));
        id
    | None ->
        let id = fresh_id t stmt sql ~key in
        emit t (Registered (id, sql));
        t.batch <- id :: t.batch;
        (match t.policy with
        | At_size k when List.length t.batch >= k -> flush t
        | _ -> ());
        id

let register_sql t sql = register t (Sloth_sql.Parser.parse sql)

let outcome_of t id =
  let e = entry t id in
  (match (e.result, e.error) with
  | None, None -> flush t
  | Some _, _ -> emit t (Result_served id)
  | None, Some _ -> ());
  let e = entry t id in
  match (e.result, e.error) with
  | Some outcome, _ -> outcome
  | None, Some msg -> raise (Query_failed (id, msg))
  | None, None ->
      (* The id was pending but the flush above did not resolve it: its
         batch was lost to an earlier infrastructure failure. *)
      let msg = "batch lost before a result arrived" in
      e.error <- Some msg;
      raise (Query_failed (id, msg))

let result t id = (outcome_of t id).rs
let rows_affected t id = (outcome_of t id).rows_affected

let is_available t id = (entry t id).result <> None
let error_of t id = (entry t id).error
let pending t = List.length t.batch
let batches_sent t = t.batches_sent
let max_batch_size t = t.max_batch_size
let registered t = t.registered
let degraded_batches t = t.degraded_batches
let poisoned t = t.poisoned
let sql_of_id t id = (entry t id).sql

let pp_event ppf = function
  | Registered (id, sql) -> Format.fprintf ppf "register [Q%d] %s" id sql
  | Dedup_hit (id, sql) -> Format.fprintf ppf "dedup -> [Q%d] %s" id sql
  | Write_through (id, sql) ->
      Format.fprintf ppf "write-through [Q%d] %s" id sql
  | Batch_sent batch ->
      Format.fprintf ppf "batch sent (%d):" (List.length batch);
      List.iter (fun (id, sql) -> Format.fprintf ppf " [Q%d] %s;" id sql) batch
  | Result_served id -> Format.fprintf ppf "cached result [Q%d]" id
  | Query_poisoned (id, msg) ->
      Format.fprintf ppf "poison isolated [Q%d]: %s" id msg
