(* Storage-side replay for the traced run.

   The in-line spans cannot see inside a query-store flush or an admission
   flush.  So the traced run records every batch that reached the server,
   and this module replays them, in order, on identically seeded state:
   through a [Connection] (driver) or a [Shard] router (sharded
   deployments), and through a plain engine whose [Planner.plan],
   execution and checkpoints are timed apart.  Each statement is also put
   through [Parser.parse], [Normalize.key] and [Printer.to_string]. *)

module Ast = Sloth_sql.Ast
module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Conn = Sloth_driver.Connection
module Rs = Sloth_storage.Result_set

type t = {
  mutable conn : Conn.t option;
  shard : Shard.t option;
  mutable engine : Db.t;
  checkpoint_every : int;  (** engine commits per checkpoint; 0 = none *)
  mutable commits : int;
  mutable tokens : int;
  mutable parses : int;
  mutable plans : int;
  mutable rows_scanned : int;
  mutable result_rows : int;
  mutable checkpoints : int;
  mutable wal_bytes : int;
}

(* [engine] must be seeded like the deployment.  When [checkpoint_every] is
   positive it must also be durable with automatic checkpoints off: the
   replay takes the checkpoints itself, so that it can time them. *)
let create ?conn ?shard ?(checkpoint_every = 0) engine =
  {
    conn; shard; engine; checkpoint_every; commits = 0; tokens = 0; parses = 0;
    plans = 0; rows_scanned = 0; result_rows = 0; checkpoints = 0;
    wal_bytes = 0;
  }

let timed = Bench.timed

let parse r sql =
  let stmt, us = timed (fun () -> Sloth_sql.Parser.parse sql) in
  r.parses <- r.parses + 1;
  (stmt, us)

(* Time the query store's registration work for one statement: it prints
   the statement once and normalizes it [normalizes] times. *)
let registration stmt ~normalizes =
  let _, p = timed (fun () -> Sloth_sql.Printer.to_string stmt) in
  let n = ref 0.0 in
  for _ = 1 to normalizes do
    n := !n +. snd (timed (fun () -> Sloth_sql.Normalize.key stmt))
  done;
  (p, !n)

let plan r (s : Ast.select) =
  let find name =
    match Db.table r.engine name with Some t -> t | None -> raise Not_found
  in
  let model = Db.cost_model r.engine in
  match timed (fun () -> Sloth_storage.Planner.plan ~find ~model s) with
  | _, us ->
      r.plans <- r.plans + 1;
      us
  | exception _ -> 0.0 (* CTE bindings and subqueries plan in the engine *)

type parts = {
  p_conn : float;
  p_shard : float;
  p_engine : float;
  p_plan : float;
  p_ckpt : float;
}

let with_time f = snd (timed f)

(* A shipped batch between the two halves of its replay. *)
type front = {
  stmts : Ast.stmt list;
  token : string option;
  f_conn : float;
  f_shard : float;
}

(* Run one shipped batch through the connection or the router, if any.  A
   write batch carries an idempotency token, as the query store's and the
   sessions' do: durable engines keep every token they commit, so tokens
   add to checkpoint work as the run goes on.  The tokens are numbered
   like the query store's. *)
let front r stmts =
  let has_write = List.exists Ast.is_write stmts in
  let token =
    if has_write then begin
      r.tokens <- r.tokens + 1;
      Some (Printf.sprintf "qs-batch-%d" (r.tokens - 1))
    end
    else None
  in
  let f_conn =
    match r.conn with
    | Some c -> with_time (fun () -> ignore (Conn.execute_batch ?token c stmts))
    | None -> 0.0
  in
  let f_shard =
    match r.shard with
    | Some sh ->
        with_time (fun () ->
            if has_write then
              ignore (Shard.atomically ?token sh (fun () -> Shard.exec_batch sh stmts))
            else ignore (Shard.exec_batch sh stmts))
    | None -> 0.0
  in
  { stmts; token; f_conn; f_shard }

(* Run the batch through the plain engine, timing the planner, execution
   and checkpoints apart; the outcomes are the engine's. *)
let back r { stmts; token; f_conn; f_shard } =
  let has_write = List.exists Ast.is_write stmts in
  let p_plan =
    List.fold_left
      (fun acc -> function Ast.Select s -> acc +. plan r s | _ -> acc)
      0.0 stmts
  in
  let outcomes, p_engine =
    if has_write then
      timed (fun () ->
          Db.atomically ?token r.engine (fun () -> Db.exec_batch r.engine stmts))
    else begin
      let sels = List.filter_map (function Ast.Select s -> Some s | _ -> None) stmts in
      let outs, us = timed (fun () -> Db.exec_reads r.engine sels) in
      List.iter
        (fun ((o : Db.outcome), scanned) ->
          r.rows_scanned <- r.rows_scanned + scanned;
          r.result_rows <- r.result_rows + List.length (Rs.rows o.rs))
        outs;
      (List.map fst outs, us)
    end
  in
  let p_ckpt =
    if has_write && r.checkpoint_every > 0 then begin
      r.commits <- r.commits + 1;
      if r.commits mod r.checkpoint_every = 0 then begin
        r.wal_bytes <- r.wal_bytes + Db.wal_size r.engine;
        r.checkpoints <- r.checkpoints + 1;
        with_time (fun () -> Db.checkpoint_now r.engine)
      end
      else 0.0
    end
    else 0.0
  in
  ({ p_conn = f_conn; p_shard = f_shard; p_engine; p_plan; p_ckpt }, outcomes)

(* Run one shipped batch through every replay target. *)
let batch r stmts = back r (front r stmts)

(* Move the replayed time of one batch out of the in-line layer [from] that
   shipped it, split into the self times of the layers below.  The replay
   timed nested totals (connection, router, engine plus checkpoint,
   planner); each is capped at its parent's, so the split never goes
   negative and always adds up to the outermost total. *)
let credit ~from p =
  let move into us = Trace.move ~from ~into:(Trace.layer into) us in
  let storage_raw = p.p_engine +. p.p_ckpt in
  let top =
    if p.p_conn > 0.0 then p.p_conn
    else if p.p_shard > 0.0 then p.p_shard
    else storage_raw
  in
  let router = Float.min top (if p.p_shard > 0.0 then p.p_shard else storage_raw) in
  let storage = Float.min router storage_raw in
  let wal = if storage_raw > 0.0 then storage *. p.p_ckpt /. storage_raw else 0.0 in
  let plan = Float.min p.p_plan (storage -. wal) in
  move "driver" (top -. router);
  move "shard" (router -. storage);
  move "wal" wal;
  move "planner" plan;
  move "executor" (storage -. wal -. plan)
