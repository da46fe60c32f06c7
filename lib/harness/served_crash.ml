module Db = Sloth_storage.Database
module Wal = Sloth_storage.Wal
module Shard = Sloth_storage.Shard
module Rs = Sloth_storage.Result_set
module Fault = Sloth_net.Fault
module Des = Sloth_net.Des
module Adm = Sloth_server.Admission

(* --- the kv crash workload ------------------------------------------------ *)

let seed_sql ~rows =
  "CREATE TABLE kv (id INT NOT NULL, v TEXT NOT NULL, n INT NOT NULL, \
   PRIMARY KEY (id))"
  :: List.init rows (fun i ->
         Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 'r%d', %d)"
           (i + 1) (i + 1)
           ((i + 1) * 10))

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg -> failwith ("kv workload: " ^ msg)

let seed_db ~rows db =
  List.iter (fun sql -> ignore (Db.exec_sql db sql)) (seed_sql ~rows)

let durable_db ~rows ~checkpoint_every () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  seed_db ~rows db;
  db

let shadow_fingerprints ~rows ~fingerprint batches =
  let db = Db.create () in
  seed_db ~rows db;
  let fps = Array.make (List.length batches + 1) "" in
  fps.(0) <- fingerprint db;
  List.iteri
    (fun i stmts ->
      Db.atomically db (fun () ->
          List.iter (fun s -> ignore (Db.exec db s)) stmts);
      fps.(i + 1) <- fingerprint db)
    batches;
  fps

(* --- the served crash run ------------------------------------------------ *)

type batch = Sloth_sql.Ast.stmt list * string option * float

let n_sessions = 6
let batches_per_session = 10

let schedule ~seed ~keys ~token_prefix si =
  let rng = Random.State.make [| seed; si |] in
  let fresh = ref 0 in
  List.init batches_per_session (fun b ->
      let read () =
        match Random.State.int rng 3 with
        | 0 -> "SELECT COUNT(*) AS c FROM kv"
        | 1 ->
            Printf.sprintf "SELECT * FROM kv WHERE id = %d"
              (1 + Random.State.int rng keys)
        | _ ->
            Printf.sprintf "SELECT COUNT(*) AS c FROM kv WHERE n > %d"
              (Random.State.int rng 300)
      in
      let write () =
        match Random.State.int rng 3 with
        | 0 ->
            incr fresh;
            Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 's%d', %d)"
              (200 + (100 * si) + !fresh) si
              (Random.State.int rng 1000)
        | 1 ->
            Printf.sprintf "UPDATE kv SET n = %d WHERE id = %d"
              (Random.State.int rng 1000)
              (1 + Random.State.int rng 20)
        | _ ->
            Printf.sprintf "DELETE FROM kv WHERE id = %d"
              (1 + Random.State.int rng 20)
      in
      let think = Random.State.float rng 3.0 in
      if Random.State.int rng 2 = 0 then
        ( List.map parse
            (List.init (1 + Random.State.int rng 2) (fun _ -> read ())),
          None, think )
      else
        ( List.map parse
            (write () :: (if Random.State.bool rng then [ write () ] else [])),
          Some (Printf.sprintf "%s%d-%d" token_prefix si b),
          think ))

type oracle = {
  replay : Sloth_sql.Ast.stmt list -> Db.outcome list;
  agrees : unit -> bool;
}

let same_outcome (a : Db.outcome) (b : Db.outcome) =
  Rs.columns a.rs = Rs.columns b.rs
  && Rs.rows a.rs = Rs.rows b.rs
  && a.rows_affected = b.rows_affected

let ack_shaped outs =
  outs <> []
  && List.for_all
       (fun (o : Db.outcome) -> o.Db.rows_affected = 0 && Rs.rows o.Db.rs = [])
       outs

let reply_agrees ~tokened replayed outs =
  match replayed with
  | None -> false
  | Some replayed ->
      (List.length outs = List.length replayed
      && List.for_all2 same_outcome outs replayed)
      || (tokened && ack_shaped outs)

type result = {
  server : Adm.t;
  deployment : Shard.t;
  sessions : int;
  batches : int;
  errors : int;
  torn : int;
  reconnects : int;
  lost_acked : int;
  identical : bool;
}

let run ~deployment ~schedule ~fault_seed ~oracle ~crash () =
  let sim = Des.create () in
  let srv =
    Adm.create ~sim ~db:(Shard.shard_db deployment 0) ~sharding:deployment
      ~window_ms:1.0
      ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 40 }
      ()
  in
  let delivered = Hashtbl.create 64 in
  let sessions =
    List.init n_sessions (fun si ->
        let fault =
          Fault.create (Fault.plan ~crash_p:crash ~seed:(fault_seed + si) ())
        in
        Adm.open_session ~fault srv)
  in
  List.iteri
    (fun si ses ->
      let rec go seq = function
        | [] -> ()
        | (stmts, tok, think) :: rest ->
            let fut = Adm.submit ses ?token:tok stmts in
            Des.Future.on_resolve fut (fun r ->
                Hashtbl.replace delivered (si, seq) (tok, r));
            Des.delay sim think (fun () -> go (seq + 1) rest)
      in
      Des.at sim (0.3 *. float_of_int si) (fun () -> go 0 (schedule si)))
    sessions;
  Des.run sim ~until:Float.infinity;
  Shard.quiesce deployment;
  (* serial replay of the (crash-epoch-annotated) execution log *)
  let replayed = Hashtbl.create 64 in
  List.iter
    (fun (e : Adm.entry) ->
      match oracle.replay e.Adm.e_stmts with
      | outs -> Hashtbl.replace replayed (e.Adm.e_session, e.Adm.e_seq) outs
      | exception Db.Sql_error _ -> ())
    (Adm.log srv);
  let identical = ref (oracle.agrees ()) in
  let lost_acked = ref 0 in
  Hashtbl.iter
    (fun (si, seq) (tok, reply) ->
      match reply with
      | Error _ -> ()
      | Ok outs ->
          (* an acked write must be durable at quiescence *)
          (match tok with
          | Some k ->
              let sid = Adm.session_id (List.nth sessions si) in
              let tagged = Printf.sprintf "s%d:%s" sid k in
              if not (Shard.token_applied deployment tagged) then
                incr lost_acked
          | None -> ());
          if
            not
              (reply_agrees ~tokened:(tok <> None)
                 (Hashtbl.find_opt replayed (si, seq))
                 outs)
          then identical := false)
    delivered;
  let batches = n_sessions * batches_per_session in
  {
    server = srv;
    deployment;
    sessions = n_sessions;
    batches;
    errors =
      Hashtbl.fold
        (fun _ (_, r) acc -> match r with Error _ -> acc + 1 | Ok _ -> acc)
        delivered 0;
    torn =
      (batches - Hashtbl.length delivered)
      + (match Adm.state srv with Adm.Serving -> 0 | _ -> 1);
    reconnects =
      List.fold_left (fun acc ses -> acc + Adm.session_reconnects ses) 0
        sessions;
    lost_acked = !lost_acked;
    identical = !identical;
  }
