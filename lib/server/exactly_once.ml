module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Rs = Sloth_storage.Result_set
module Cost = Sloth_storage.Cost
module Ast = Sloth_sql.Ast

type t = {
  applied : (string, Db.outcome list) Hashtbl.t;  (* token -> outcomes *)
  order : string Queue.t;  (* FIFO of cached tokens, for eviction *)
  mutable capacity : int;
  admitted : (string, unit) Hashtbl.t;
      (* every token ever accepted: tells a brand-new token from one whose
         cached outcome was evicted, which must not be silently re-applied *)
}

let check_window fn n = if n < 1 then invalid_arg ("Exactly_once." ^ fn)

let create ~window =
  check_window "create" window;
  {
    applied = Hashtbl.create 32;
    order = Queue.create ();
    capacity = window;
    admitted = Hashtbl.create 32;
  }

let window t = t.capacity

let evict t =
  while Queue.length t.order > t.capacity do
    Hashtbl.remove t.applied (Queue.pop t.order)
  done

let set_window t n =
  check_window "set_window" n;
  t.capacity <- n;
  evict t

let reset t =
  Hashtbl.reset t.applied;
  Queue.clear t.order;
  Hashtbl.reset t.admitted

type decision =
  | Replay of Db.outcome list
  | Durable_ack of Db.outcome list
  | Refuse of string
  | Execute

let decide t eng ~token stmts =
  match token with
  | Some k when Hashtbl.mem t.applied k -> Replay (Hashtbl.find t.applied k)
  | Some k when Shard.token_applied eng k ->
      let fixed = (Shard.cost_model eng).Cost.fixed_ms in
      Durable_ack
        (List.map
           (fun _ : Db.outcome ->
             { Db.rs = Rs.empty; rows_affected = 0; cost_ms = fixed })
           stmts)
  | Some k when Hashtbl.mem t.admitted k ->
      Refuse (Printf.sprintf "idempotency replay-window miss for token %s" k)
  | _ -> Execute

let execute eng ~token stmts =
  (* Whole-batch execution: consecutive reads are planned together, so
     duplicates collapse and compatible scans are shared. *)
  let exec_all () = Shard.exec_batch eng stmts in
  if
    List.exists Ast.is_write stmts
    && not (List.exists Ast.is_txn_control stmts)
  then Shard.atomically ?token eng exec_all
  else exec_all ()

let remember t ~token stmts outcomes =
  match token with
  | Some k when List.exists Ast.is_write stmts ->
      if not (Hashtbl.mem t.applied k) then begin
        Queue.push k t.order;
        evict t
      end;
      Hashtbl.replace t.applied k outcomes;
      Hashtbl.replace t.admitted k ()
  | _ -> ()

let service_ms model stmts outcomes =
  let read_costs, write_cost =
    List.fold_left2
      (fun (reads, writes) stmt (o : Db.outcome) ->
        if Ast.is_write stmt then (reads, writes +. o.cost_ms)
        else (o.cost_ms :: reads, writes))
      ([], 0.0) stmts outcomes
  in
  Cost.batch_ms model (List.rev read_costs) +. write_cost

let abandoned_exec eng stmts k =
  let k = min k (List.length stmts) in
  if k > 0 && not (List.exists Ast.is_txn_control stmts) then
    try
      ignore (Shard.exec eng Ast.Begin_txn);
      List.iteri (fun i s -> if i < k then ignore (Shard.exec eng s)) stmts
    with Db.Sql_error _ -> ()
