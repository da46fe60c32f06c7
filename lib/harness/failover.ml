module Db = Sloth_storage.Database
module Repl = Sloth_storage.Replication
module Des = Sloth_net.Des
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission
module Ast = Sloth_sql.Ast

(* --- workload ------------------------------------------------------------- *)

let seed_rows = 20

(* Closed-loop schedules: a session submits its next batch only after the
   previous reply resolved, so per-session program order is strict — which
   is exactly what the read-your-writes check below relies on.  Write
   batches are tokened and carry no explicit transaction control, so each
   one is a single atomic commit (one WAL chunk, one LSN) and its token
   lands in the durable registry — the granularity both the LSN-interleaved
   oracle and the lost-write detector need. *)
let schedule ~seed ~si ~batches ~read_only =
  let ro = if read_only then 1 else 0 in
  let rng = Random.State.make [| 0xfa110; seed; si; ro |] in
  let fresh = ref 0 in
  List.init batches (fun b ->
      let read () =
        match Random.State.int rng 3 with
        | 0 -> "SELECT COUNT(*) AS c FROM kv"
        | 1 ->
            Printf.sprintf "SELECT * FROM kv WHERE id = %d"
              (1 + Random.State.int rng 30)
        | _ ->
            Printf.sprintf "SELECT COUNT(*) AS c FROM kv WHERE n > %d"
              (Random.State.int rng 300)
      in
      let write () =
        match Random.State.int rng 3 with
        | 0 ->
            incr fresh;
            Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 's%d', %d)"
              (1000 + (100 * si) + !fresh)
              si
              (Random.State.int rng 1000)
        | 1 ->
            Printf.sprintf "UPDATE kv SET n = %d WHERE id = %d"
              (Random.State.int rng 1000)
              (1 + Random.State.int rng 20)
        | _ ->
            Printf.sprintf "DELETE FROM kv WHERE id = %d"
              (1 + Random.State.int rng 20)
      in
      let think = Random.State.float rng 2.0 in
      if read_only || Random.State.int rng 2 = 0 then
        ( List.map Served_crash.parse
            (List.init (1 + Random.State.int rng 2) (fun _ -> read ())),
          None, think )
      else
        ( List.map Served_crash.parse
            (write () :: (if Random.State.bool rng then [ write () ] else [])),
          Some (Printf.sprintf "fo%d-%d" si b),
          think ))

(* --- the LSN-interleaved serial-replay oracle ------------------------------ *)

let retained_log srv =
  let cuts = Adm.failover_log srv in
  List.filter
    (fun (e : Adm.entry) ->
      List.for_all
        (fun (epoch, cutoff) ->
          e.Adm.e_epoch >= epoch || e.Adm.e_lsn <= cutoff)
        cuts)
    (Adm.log srv)

let oracle_order entries =
  List.stable_sort
    (fun (a : Adm.entry) (b : Adm.entry) ->
      match compare a.Adm.e_lsn b.Adm.e_lsn with
      | 0 ->
          compare
            (if a.Adm.e_reads then 1 else 0)
            (if b.Adm.e_reads then 1 else 0)
      | c -> c)
    entries

(* A token only reaches the WAL's durable registry through the implicit
   [atomically] wrapper, i.e. for write batches without explicit
   transaction control — only those can be held to the durable-ack bar. *)
let durable_token_eligible stmts =
  List.exists Ast.is_write stmts && not (List.exists Ast.is_txn_control stmts)

type verdict = {
  v_identical : bool;
  v_converged : bool;
  v_lost_writes : int;
  v_ryw_violations : int;
}

let verify srv ~delivered =
  (* Serial replay on a plain twin: keep only executions whose effects
     survive on the final timeline (an entry from a pre-failover epoch is
     discarded when its LSN lies beyond that failover's cutoff — by quorum
     construction no such execution's reply was ever delivered), then
     linearize replica-served reads into commit order by sorting on
     [(e_lsn, writes-before-reads)]. *)
  let retained = oracle_order (retained_log srv) in
  let oracle = Db.create () in
  Served_crash.seed_db ~rows:seed_rows oracle;
  let oracle_out = Hashtbl.create 64 in
  List.iter
    (fun (e : Adm.entry) ->
      match Db.exec_batch oracle e.Adm.e_stmts with
      | outs -> Hashtbl.replace oracle_out (e.Adm.e_session, e.Adm.e_seq) outs
      | exception Db.Sql_error _ -> ())
    retained;
  let primary = Adm.database srv in
  let identical = ref (Db.fingerprint primary = Db.fingerprint oracle) in
  Hashtbl.iter
    (fun key (tok, _stmts, reply) ->
      match reply with
      | Error _ -> ()
      | Ok outs ->
          if
            not
              (Served_crash.reply_agrees ~tokened:(tok <> None)
                 (Hashtbl.find_opt oracle_out key)
                 outs)
          then identical := false)
    delivered;
  (* At quiescence the shipper has drained: every surviving follower must
     hold exactly the primary's state. *)
  let converged =
    match Adm.replication srv with
    | None -> true
    | Some repl ->
        let pfp = Db.fingerprint (Repl.primary repl) in
        List.for_all
          (fun (i : Repl.replica_info) ->
            Db.fingerprint (Repl.replica_db repl i.Repl.id) = pfp)
          (Repl.replicas repl)
  in
  (* Zero acknowledged-write loss: every delivered tokened atomic write
     must be vouched for by the final primary's durable token registry,
     whatever chain of crashes and promotions happened in between. *)
  let lost = ref 0 in
  Hashtbl.iter
    (fun (si, _) (tok, stmts, reply) ->
      match (tok, reply) with
      | Some k, Ok _ when durable_token_eligible stmts ->
          if not (Db.token_applied primary (Printf.sprintf "s%d:%s" si k))
          then incr lost
      | _ -> ())
    delivered;
  (* Read-your-writes over the delivered history: within a session (strict
     program order under closed-loop submission), every delivered read must
     have executed at an LSN covering every earlier delivered write. *)
  let last_entry = Hashtbl.create 64 in
  List.iter
    (fun (e : Adm.entry) ->
      Hashtbl.replace last_entry (e.Adm.e_session, e.Adm.e_seq) e)
    (Adm.log srv);
  let by_session = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (si, seq) v ->
      let prev =
        match Hashtbl.find_opt by_session si with Some l -> l | None -> []
      in
      Hashtbl.replace by_session si ((seq, v) :: prev))
    delivered;
  let ryw = ref 0 in
  Hashtbl.iter
    (fun si seqs ->
      let seqs = List.sort (fun (a, _) (b, _) -> compare a b) seqs in
      let floor = ref 0 in
      List.iter
        (fun (seq, (_tok, stmts, reply)) ->
          match reply with
          | Error _ -> ()
          | Ok _ -> (
              match Hashtbl.find_opt last_entry (si, seq) with
              | None -> ()
              | Some e ->
                  if e.Adm.e_reads then (
                    if e.Adm.e_lsn < !floor then incr ryw)
                  else if List.exists Ast.is_write stmts then
                    floor := max !floor e.Adm.e_lsn))
        seqs)
    by_session;
  {
    v_identical = !identical;
    v_converged = converged;
    v_lost_writes = !lost;
    v_ryw_violations = !ryw;
  }

(* --- one replicated run ---------------------------------------------------- *)

type cell = {
  fc_label : string;
  fc_ck : int;
  fc_batches : int;
  fc_errors : int;
  fc_crashes : int;
  fc_failovers : int;
  fc_recoveries : int;
  fc_torn_inflight : int;
  fc_redriven : int;
  fc_durable_acks : int;
  fc_replica_batches : int;
  fc_replica_rows : int;
  fc_ryw_fallbacks : int;
  fc_ryw_violations : int;
  fc_lost_writes : int;
  fc_torn : int;
  fc_chunks : int;
  fc_snapshots : int;
  fc_link_retransmits : int;
  fc_replicas_left : int;
  fc_identical : bool;
  fc_converged : bool;
  fc_stats : Adm.stats;
}

let run ?(label = "cell") ?(sessions = 6) ?(ro_sessions = 2) ?(batches = 12)
    ?(crash = 0.05) ?(checkpoint_every = 4) ?(rtts = [ 0.4; 0.9; 1.6 ])
    ?(drop = 0.0) ?(seed = 1) () =
  let db = Served_crash.durable_db ~rows:seed_rows ~checkpoint_every () in
  let sim = Des.create () in
  let repl = Repl.create ~sim ~primary:db () in
  List.iteri
    (fun i rtt ->
      let fault =
        if drop > 0.0 then
          Some
            (Fault.create (Fault.plan ~drop_p:drop ~seed:(seed + 700 + i) ()))
        else None
      in
      ignore (Repl.add_replica ~rtt_ms:rtt ?fault repl))
    rtts;
  let srv =
    Adm.create ~sim ~db ~window_ms:1.0
      ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 60 }
      ~replication:repl ()
  in
  let delivered = Hashtbl.create 64 in
  let drive si ses sched =
    let sid = Adm.session_id ses in
    let rec go seq = function
      | [] -> ()
      | (stmts, tok, think) :: rest ->
          let fut = Adm.submit ses ?token:tok stmts in
          Des.Future.on_resolve fut (fun r ->
              Hashtbl.replace delivered (sid, seq) (tok, stmts, r);
              Des.delay sim think (fun () -> go (seq + 1) rest))
    in
    Des.at sim (0.25 *. float_of_int si) (fun () -> go 0 sched)
  in
  for si = 0 to sessions - 1 do
    let fault =
      Fault.create (Fault.plan ~crash_p:crash ~seed:(seed + 100 + si) ())
    in
    drive si
      (Adm.open_session ~fault srv)
      (schedule ~seed ~si ~batches ~read_only:false)
  done;
  for ri = 0 to ro_sessions - 1 do
    let si = sessions + ri in
    drive si (Adm.open_session srv)
      (schedule ~seed ~si ~batches ~read_only:true)
  done;
  Des.run sim ~until:Float.infinity;
  let vd = verify srv ~delivered in
  let s = Adm.stats srv in
  let rs = Repl.stats repl in
  let total = (sessions + ro_sessions) * batches in
  let torn =
    (total - Hashtbl.length delivered)
    + (match Adm.state srv with Adm.Serving -> 0 | _ -> 1)
  in
  let errors =
    Hashtbl.fold
      (fun _ (_, _, r) acc -> match r with Error _ -> acc + 1 | Ok _ -> acc)
      delivered 0
  in
  {
    fc_label = label;
    fc_ck = checkpoint_every;
    fc_batches = total;
    fc_errors = errors;
    fc_crashes = s.Adm.crashes;
    fc_failovers = s.Adm.failovers;
    fc_recoveries = s.Adm.recoveries;
    fc_torn_inflight = s.Adm.torn_inflight;
    fc_redriven = s.Adm.redriven;
    fc_durable_acks = s.Adm.durable_acks;
    fc_replica_batches = s.Adm.replica_read_batches;
    fc_replica_rows = s.Adm.replica_rows_scanned;
    fc_ryw_fallbacks = s.Adm.ryw_fallbacks;
    fc_ryw_violations = s.Adm.ryw_violations + vd.v_ryw_violations;
    fc_lost_writes = vd.v_lost_writes;
    fc_torn = torn;
    fc_chunks = rs.Repl.chunks_shipped;
    fc_snapshots = rs.Repl.snapshots_shipped;
    fc_link_retransmits = rs.Repl.retransmits;
    fc_replicas_left = Repl.n_replicas repl;
    fc_identical = vd.v_identical;
    fc_converged = vd.v_converged;
    fc_stats = s;
  }

(* --- the experiment -------------------------------------------------------- *)

(* Lag profiles: how far behind the follower fleet trails the primary.
   [balanced] keeps everyone close; [skewed] has one fast follower and two
   laggards (read routing must pick the fast one, promotion must too);
   [lossy] drops 20% of shipping legs so catch-up leans on retransmits and
   ring/snapshot recovery. *)
let profiles =
  [
    ("balanced", [ 0.4; 0.6; 0.8 ], 0.0);
    ("skewed", [ 0.4; 2.5; 6.0 ], 0.0);
    ("lossy", [ 0.8; 1.2; 1.6 ], 0.2);
  ]

let checkpoint_intervals = [ 1; 4; 0 ]

let json_of cells =
  let cell c =
    Report.Obj
      [
        ("profile", String c.fc_label);
        ("checkpoint_every", Int c.fc_ck);
        ("batches", Int c.fc_batches);
        ("errors", Int c.fc_errors);
        ("crashes", Int c.fc_crashes);
        ("failovers", Int c.fc_failovers);
        ("recoveries", Int c.fc_recoveries);
        ("torn_inflight", Int c.fc_torn_inflight);
        ("redriven", Int c.fc_redriven);
        ("durable_acks", Int c.fc_durable_acks);
        ("replica_batches", Int c.fc_replica_batches);
        ("replica_rows", Int c.fc_replica_rows);
        ("ryw_fallbacks", Int c.fc_ryw_fallbacks);
        ("ryw_viol", Int c.fc_ryw_violations);
        ("lost", Int c.fc_lost_writes);
        ("torn", Int c.fc_torn);
        ("chunks", Int c.fc_chunks);
        ("snapshots", Int c.fc_snapshots);
        ("link_retransmits", Int c.fc_link_retransmits);
        ("replicas_left", Int c.fc_replicas_left);
        ("identical", Bool c.fc_identical);
        ("converged", Bool c.fc_converged);
      ]
  in
  let sum f = Report.Int (List.fold_left (fun acc c -> acc + f c) 0 cells) in
  [
    ("experiment", Report.String "failover");
    ("cells", List (List.map cell cells));
    ("failovers_total", sum (fun c -> c.fc_failovers));
    ("replica_read_batches_total", sum (fun c -> c.fc_replica_batches));
    ("replica_rows_total", sum (fun c -> c.fc_replica_rows));
    ("torn_total", sum (fun c -> c.fc_torn));
    ("lost_writes", sum (fun c -> c.fc_lost_writes));
    ("ryw_violations", sum (fun c -> c.fc_ryw_violations));
    ("results_identical", Bool (List.for_all (fun c -> c.fc_identical) cells));
    ( "replicas_converged",
      Bool (List.for_all (fun c -> c.fc_converged) cells) );
  ]

let failover ?json () =
  Report.section
    "Failover: WAL-shipping replication, replica reads, promotion";
  Printf.printf
    "  (closed-loop sessions on a replicated primary: quorum-acked writes, \
     read batches\n\
    \   routed to caught-up followers under read-your-writes, seeded random \
     primary\n\
    \   crashes recovered by promoting the most caught-up follower; \
     delivered results\n\
    \   checked against the LSN-interleaved serial-replay oracle)\n";
  let cells =
    List.concat_map
      (fun (name, rtts, drop) ->
        List.mapi
          (fun i ck ->
            run ~label:name ~checkpoint_every:ck ~rtts ~drop
              ~seed:(17 * (i + 1)) ())
          checkpoint_intervals)
      profiles
  in
  Report.table
    ~header:
      [ "profile"; "ck"; "batches"; "crashes"; "failovers"; "repl reads";
        "ryw fb"; "lost"; "ryw viol"; "torn"; "identical"; "converged" ]
    (List.map
       (fun c ->
         [
           c.fc_label;
           (if c.fc_ck = 0 then "never" else string_of_int c.fc_ck);
           string_of_int c.fc_batches;
           string_of_int c.fc_crashes;
           string_of_int c.fc_failovers;
           string_of_int c.fc_replica_batches;
           string_of_int c.fc_ryw_fallbacks;
           string_of_int c.fc_lost_writes;
           string_of_int c.fc_ryw_violations;
           string_of_int c.fc_torn;
           string_of_bool c.fc_identical;
           string_of_bool c.fc_converged;
         ])
       cells);
  (match List.rev cells with
  | last :: _ ->
      Report.subsection
        (Printf.sprintf "server counters, last cell (%s, checkpoint %s)"
           last.fc_label
           (if last.fc_ck = 0 then "never" else string_of_int last.fc_ck));
      Format.printf "%a@." Adm.pp_stats last.fc_stats
  | [] -> ());
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  Printf.printf
    "\n\
    \  lost acked writes: %d, RYW violations: %d, torn at quiescence: %d,\n\
    \  failovers: %d, replica-served read batches: %d, all identical to \
     oracle: %b\n"
    (sum (fun c -> c.fc_lost_writes))
    (sum (fun c -> c.fc_ryw_violations))
    (sum (fun c -> c.fc_torn))
    (sum (fun c -> c.fc_failovers))
    (sum (fun c -> c.fc_replica_batches))
    (List.for_all (fun c -> c.fc_identical && c.fc_converged) cells);
  Report.write_json json (json_of cells)
