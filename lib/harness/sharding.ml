module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission

(* --- the cross-shard write workload -------------------------------------- *)

let seed_rows = 24

(* Every batch touches three distinct primary keys, and every routed write
   definitely mutates its shard (inserts are fresh, updates and deletes hit
   live keys), so each touched shard votes a real PREPARE: a multi-shard
   commit over P shards consumes exactly 2P+1 fault decision points, which
   is what lets the crash matrix script a window at an exact protocol
   step. *)
let batches_sql =
  [
    [
      "INSERT INTO kv (id, v, n) VALUES (31, 'n31', 310)";
      "UPDATE kv SET v = 'u1' WHERE id = 1";
      "UPDATE kv SET n = 2000 WHERE id = 2";
    ];
    [
      "DELETE FROM kv WHERE id = 3";
      "INSERT INTO kv (id, v, n) VALUES (32, 'n32', 320)";
      "UPDATE kv SET v = 'u4' WHERE id = 4";
    ];
    [
      "UPDATE kv SET n = 55 WHERE id = 5";
      "UPDATE kv SET v = 'u6' WHERE id = 6";
      "INSERT INTO kv (id, v, n) VALUES (33, 'n33', 330)";
    ];
    [
      "INSERT INTO kv (id, v, n) VALUES (34, 'n34', 340)";
      "DELETE FROM kv WHERE id = 7";
      "UPDATE kv SET n = 88 WHERE id = 8";
    ];
    [
      "UPDATE kv SET v = 'u9' WHERE id = 9";
      "INSERT INTO kv (id, v, n) VALUES (35, 'n35', 350)";
      "DELETE FROM kv WHERE id = 10";
    ];
    [
      "DELETE FROM kv WHERE id = 31";
      "UPDATE kv SET n = 1100 WHERE id = 11";
      "UPDATE kv SET v = 'u12' WHERE id = 12";
    ];
    [
      "INSERT INTO kv (id, v, n) VALUES (36, 'n36', 360)";
      "UPDATE kv SET n = 999 WHERE id = 32";
      "UPDATE kv SET v = 'u13' WHERE id = 13";
    ];
    [
      "DELETE FROM kv WHERE id = 14";
      "INSERT INTO kv (id, v, n) VALUES (37, 'n37', 370)";
      "UPDATE kv SET n = 1500 WHERE id = 15";
    ];
    [
      "UPDATE kv SET v = 'u16' WHERE id = 16";
      "UPDATE kv SET n = 1700 WHERE id = 17";
      "INSERT INTO kv (id, v, n) VALUES (38, 'n38', 380)";
    ];
    [
      "DELETE FROM kv WHERE id = 18";
      "UPDATE kv SET v = 'u33' WHERE id = 33";
      "INSERT INTO kv (id, v, n) VALUES (39, 'n39', 390)";
    ];
  ]

let batches = List.map (List.map Served_crash.parse) batches_sql
let n_batches = List.length batches
let token_of i = Printf.sprintf "sh-%d" i

let seed_shard sh =
  List.iter
    (fun sql -> ignore (Shard.exec_sql sh sql))
    (Served_crash.seed_sql ~rows:seed_rows)

(* [replicas_per_shard = 0] is a plain sharded deployment; above that every
   shard is a WAL-shipping replication group, and a crash of a shard
   primary promotes its most caught-up follower instead of recovering in
   place. *)
let deployment ~replicas_per_shard ~shards ~checkpoint_every () =
  let sh = Shard.create ~checkpoint_every ~replicas_per_shard ~shards () in
  seed_shard sh;
  sh

(* Drive batch [i] to exactly-once completion: the caller-side idempotency
   loop the synchronous driver would run, against the router directly (a
   2PC crash abort surfaces as [Sql_error], which the driver treats as
   non-retryable — here the harness IS the retry loop). *)
let drive sh i =
  if not (Shard.token_applied sh (token_of i)) then
    Shard.atomically ~token:(token_of i) sh (fun () ->
        List.iter (fun s -> ignore (Shard.exec sh s)) (List.nth batches i))

(* Logical fingerprints of the intended state after the seed and after each
   batch, computed once on a plain unsharded database: the cross-shard-count
   ground truth. *)
let shadow_lfps =
  lazy
    (Served_crash.shadow_fingerprints ~rows:seed_rows
       ~fingerprint:Shard.logical_fingerprint_db batches)

let shadow_lfp i = (Lazy.force shadow_lfps).(i)

(* --- probe: the fault-trip layout of a fault-free run --------------------- *)

type layout = {
  l_start : int array;  (** decision points consumed before batch [i] *)
  l_trips : int array;  (** decision points batch [i]'s commit consumes *)
  l_ref : string list;  (** per-shard fingerprints of the clean final state *)
}

(* The layout is probed on an UNREPLICATED deployment (replication consumes
   no extra decision points), and its reference fingerprints double as a
   transparency check: a replicated run that crashed and promoted must land
   on the same per-shard heaps as a plain crash-free run. *)
let probe ~shards ~checkpoint_every =
  let sh = deployment ~replicas_per_shard:0 ~shards ~checkpoint_every () in
  let f = Fault.create (Fault.plan ()) in
  Shard.set_fault sh (Some f);
  let starts = Array.make n_batches 0 and trips = Array.make n_batches 0 in
  for i = 0 to n_batches - 1 do
    starts.(i) <- Fault.trips f;
    drive sh i;
    trips.(i) <- Fault.trips f - starts.(i)
  done;
  Shard.set_fault sh None;
  if Shard.logical_fingerprint sh <> shadow_lfp n_batches then
    Db.invariant_violation
      "sharding probe: %d shards, checkpoint every %d, crash point none, leg \
       none: the fault-free run diverged from the shadow state"
      shards checkpoint_every;
  { l_start = starts; l_trips = trips; l_ref = Shard.shard_fingerprints sh }

(* --- the crash matrix ------------------------------------------------------ *)

(* One scripted crash point.  [r_first..r_last] is a window of global fault-
   trip indices; [r_target] scopes it (the coordinator roles deliberately
   cover the batch's whole trip range and rely on target scoping to fire at
   the decision point only — exercising the per-component windows end to
   end). *)
type role = {
  r_label : string;
  r_first : int;
  r_last : int;
  r_target : Fault.target;
  r_leg : Fault.leg;
}

(* A single-participant batch commits 1PC and has one decision point; a
   multi-shard batch over P participants has 2P+1: P phase-1 PREPAREs (in
   touch order), the coordinator decision, P phase-2 completions. *)
let roles_of ~t0 ~trips =
  if trips <= 1 then
    [
      {
        r_label = "1pc/before-commit";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Request;
      };
      {
        r_label = "1pc/after-commit";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
    ]
  else begin
    let p = (trips - 1) / 2 in
    [
      {
        r_label = "prepare-first/before-force";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Request;
      };
      {
        r_label = "prepare-first/after-force";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "prepare-last/after-force";
        r_first = t0 + p;
        r_last = t0 + p;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "decision/before-log";
        r_first = t0 + 1;
        r_last = t0 + trips;
        r_target = Fault.Coordinator;
        r_leg = Fault.Request;
      };
      {
        r_label = "decision/after-log";
        r_first = t0 + 1;
        r_last = t0 + trips;
        r_target = Fault.Coordinator;
        r_leg = Fault.Response;
      };
      {
        r_label = "ack-first";
        r_first = t0 + p + 2;
        r_last = t0 + p + 2;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "ack-last";
        r_first = t0 + trips;
        r_last = t0 + trips;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
    ]
  end

type case_result = {
  cr_role : string;
  cr_acked : bool;  (** the commit call returned (no abort error) *)
  cr_applied : bool;  (** the idempotency token is durable on some shard *)
  cr_atomic : bool;  (** post-crash state is exactly pre or post, matching *)
  cr_lost : bool;  (** acked but not durably applied — must never happen *)
  cr_audit : int;  (** WAL-vs-decision-log audit violations *)
  cr_misfire : bool;  (** the scripted window injected [<>] 1 crash *)
  cr_resume : bool;  (** re-driving the token converged on the post state *)
  cr_final : bool;  (** remaining batches landed on the shadow state *)
  cr_replay : bool;  (** per-shard fingerprints equal the clean replay *)
  cr_in_doubt_committed : int;
  cr_in_doubt_aborted : int;
  cr_promotions : int;  (** shard-primary promotions this case performed *)
  cr_prepared_survived : bool;
      (** post-decision crashes only: the decided transaction is durably
          applied after recovery (and after any promotion) *)
}

(* Crash points whose window opens after the coordinator's decision is on
   disk: from there on the transaction is committed, and no single node
   death may un-commit it. *)
let post_decision_roles = [ "decision/after-log"; "ack-first"; "ack-last" ]

(* [role = None] is the follower-death axis: no crash is scripted — one
   follower of the shard the batch is about to touch is removed instead.
   The client must see a plain ack (the quorum denominator shrank with the
   cluster), so anything else counts as that case's misfire. *)
let run_case ~replicas_per_shard ~shards ~checkpoint_every ~layout ~crash_at
    role =
  let shadow = Lazy.force shadow_lfps in
  let sh = deployment ~replicas_per_shard ~shards ~checkpoint_every () in
  let fault =
    Option.map
      (fun r ->
        let f = Fault.create (Fault.plan ()) in
        Fault.script ~target:r.r_target f ~first:r.r_first ~last:r.r_last
          Fault.Server_crash r.r_leg;
        f)
      role
  in
  Shard.set_fault sh fault;
  for i = 0 to crash_at - 1 do
    drive sh i
  done;
  if Option.is_none role then Shard.kill_follower sh (crash_at mod shards);
  let acked =
    match drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  Shard.set_fault sh None;
  let label, misfire =
    match (role, fault) with
    | Some r, Some f -> (r.r_label, Fault.count f Fault.Server_crash <> 1)
    | _ -> ("follower-dies", not acked)
  in
  Shard.quiesce sh;
  let applied = Shard.token_applied sh (token_of crash_at) in
  let lfp = Shard.logical_fingerprint sh in
  let atomic =
    if applied then lfp = shadow.(crash_at + 1) else lfp = shadow.(crash_at)
  in
  let audit = List.length (Shard.audit sh) in
  let _, _, idc, ida = Shard.recovery_totals sh in
  (* the client saw either an ack or an abort/timeout: it re-drives the same
     token, which must converge on the post-batch state exactly once *)
  drive sh crash_at;
  let resume =
    Shard.logical_fingerprint sh = shadow.(crash_at + 1)
    && Shard.token_applied sh (token_of crash_at)
  in
  for i = crash_at + 1 to n_batches - 1 do
    drive sh i
  done;
  Shard.quiesce sh;
  let final = Shard.logical_fingerprint sh = shadow.(n_batches) in
  let replay = Shard.shard_fingerprints sh = layout.l_ref in
  {
    cr_role = label;
    cr_acked = acked;
    cr_applied = applied;
    cr_atomic = atomic;
    cr_lost = acked && not applied;
    cr_audit = audit;
    cr_misfire = misfire;
    cr_resume = resume;
    cr_final = final;
    cr_replay = replay;
    cr_in_doubt_committed = idc;
    cr_in_doubt_aborted = ida;
    cr_promotions = List.length (Shard.failovers sh);
    cr_prepared_survived =
      (not (List.mem label post_decision_roles)) || applied;
  }

type config_result = {
  cfg_shards : int;
  cfg_replicas_per_shard : int;
  cfg_checkpoint_every : int;
  cfg_cases : int;
  cfg_acked : int;
  cfg_applied : int;
  cfg_aborted : int;
  cfg_in_doubt_committed : int;
  cfg_in_doubt_aborted : int;
  cfg_promotions : int;
  cfg_atomicity_violations : int;
  cfg_lost_writes : int;
  cfg_audit_violations : int;
  cfg_prepared_survival_violations : int;
  cfg_misfires : int;
  cfg_resume_ok : int;
  cfg_final_ok : int;
  cfg_replay_ok : int;
  cfg_by_role : (string * int * int * int * int) list;
      (** role, cases, acked, applied, promotions — matrix rows for the
          report *)
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let run_config ~replicas_per_shard ~shards ~checkpoint_every =
  let layout = probe ~shards ~checkpoint_every in
  let follower = if replicas_per_shard > 0 then [ None ] else [] in
  let rs =
    List.concat
      (List.init n_batches (fun crash_at ->
           List.map
             (run_case ~replicas_per_shard ~shards ~checkpoint_every ~layout
                ~crash_at)
             (List.map Option.some
                (roles_of ~t0:layout.l_start.(crash_at)
                   ~trips:layout.l_trips.(crash_at))
             @ follower)))
  in
  let count p = List.length (List.filter p rs) in
  let by_role =
    List.fold_left
      (fun acc r ->
        if List.mem_assoc r.cr_role acc then acc else acc @ [ (r.cr_role, ()) ])
      [] rs
    |> List.map (fun (label, ()) ->
           let mine = List.filter (fun r -> r.cr_role = label) rs in
           ( label,
             List.length mine,
             List.length (List.filter (fun r -> r.cr_acked) mine),
             List.length (List.filter (fun r -> r.cr_applied) mine),
             sum (fun r -> r.cr_promotions) mine ))
  in
  {
    cfg_shards = shards;
    cfg_replicas_per_shard = replicas_per_shard;
    cfg_checkpoint_every = checkpoint_every;
    cfg_cases = List.length rs;
    cfg_acked = count (fun r -> r.cr_acked);
    cfg_applied = count (fun r -> r.cr_applied);
    cfg_aborted = count (fun r -> not r.cr_applied);
    cfg_in_doubt_committed = sum (fun r -> r.cr_in_doubt_committed) rs;
    cfg_in_doubt_aborted = sum (fun r -> r.cr_in_doubt_aborted) rs;
    cfg_promotions = sum (fun r -> r.cr_promotions) rs;
    cfg_atomicity_violations = count (fun r -> not r.cr_atomic);
    cfg_lost_writes = count (fun r -> r.cr_lost);
    cfg_audit_violations = sum (fun r -> r.cr_audit) rs;
    cfg_prepared_survival_violations =
      count (fun r -> not r.cr_prepared_survived);
    cfg_misfires = count (fun r -> r.cr_misfire);
    cfg_resume_ok = count (fun r -> r.cr_resume);
    cfg_final_ok = count (fun r -> r.cr_final);
    cfg_replay_ok = count (fun r -> r.cr_replay);
    cfg_by_role = by_role;
  }

let shard_counts = [ 2; 3 ]
let checkpoint_intervals = [ 1; 4; 0 ]

(* --- served arm: the async server over (replicated) shards ---------------- *)

let served_schedule =
  Served_crash.schedule ~seed:0x5a4d ~keys:30 ~token_prefix:"sh"

(* Serial replay on a fresh UNREPLICATED deployment with the same shard
   count: result sets (and row order) must match exactly, so replication
   and promotions must be invisible; a second, unsharded replay pins the
   logical state across shard counts, and the end-of-run audit checks
   every shard's WAL against the decision log, exactly as in each matrix
   cell. *)
let served_oracle ~shards ~checkpoint_every sh =
  let osh = deployment ~replicas_per_shard:0 ~shards ~checkpoint_every () in
  let odb = Db.create () in
  Served_crash.seed_db ~rows:seed_rows odb;
  {
    Served_crash.replay =
      (fun stmts ->
        (try ignore (Db.exec_batch odb stmts) with Db.Sql_error _ -> ());
        Shard.exec_batch osh stmts);
    agrees =
      (fun () ->
        Shard.shard_fingerprints sh = Shard.shard_fingerprints osh
        && Shard.logical_fingerprint sh = Shard.logical_fingerprint_db odb
        && Shard.audit sh = []);
  }

let served ~replicas_per_shard ?(crash = 0.06) ?(shards = 3)
    ?(checkpoint_every = 2) () =
  let sh = deployment ~replicas_per_shard ~shards ~checkpoint_every () in
  Served_crash.run ~deployment:sh ~schedule:served_schedule ~fault_seed:300
    ~oracle:(served_oracle ~shards ~checkpoint_every sh)
    ~crash ()

(* --- single-shard equivalence --------------------------------------------- *)

(* [Shard.of_database] over a caller-supplied engine must behave exactly
   like driving that engine directly: the seeded batch stream (tokened
   atomic writes, each followed by a read-back) yields the same outcomes,
   fingerprint, token answers and LSN, and a crash-restart recovers the
   same record counts — or, without durability, wipes both alike. *)
let wrapper_identical ~durable =
  let engine () =
    if durable then
      Served_crash.durable_db ~rows:seed_rows ~checkpoint_every:4 ()
    else
      let db = Db.create () in
      Served_crash.seed_db ~rows:seed_rows db;
      db
  in
  let wrapped = engine () and direct = engine () in
  let sh = Shard.of_database wrapped in
  let attempt f =
    match f () with v -> Ok v | exception Db.Sql_error m -> Error m
  in
  let same a b =
    match (a, b) with
    | Ok xs, Ok ys ->
        List.length xs = List.length ys
        && List.for_all2
             (fun (x : Db.outcome) (y : Db.outcome) ->
               Served_crash.same_outcome x y && x.cost_ms = y.cost_ms)
             xs ys
    | Error m, Error m' -> m = m'
    | _ -> false
  in
  let read_back = [ Served_crash.parse "SELECT * FROM kv ORDER BY id" ] in
  let outcomes_ok =
    List.for_all Fun.id
      (List.mapi
         (fun i stmts ->
           let token = token_of i in
           same
             (attempt (fun () ->
                  Shard.atomically ~token sh (fun () ->
                      Shard.exec_batch sh stmts)))
             (attempt (fun () ->
                  Db.atomically ~token direct (fun () ->
                      Db.exec_batch direct stmts)))
           && same
                (attempt (fun () -> Shard.exec_batch sh read_back))
                (attempt (fun () -> Db.exec_batch direct read_back)))
         batches)
  in
  let tokens_ok =
    List.for_all
      (fun k -> Shard.token_applied sh k = Db.token_applied direct k)
      ("never-issued" :: List.init n_batches token_of)
  in
  let state_ok () =
    Shard.shard_db sh 0 == wrapped
    && Db.fingerprint wrapped = Db.fingerprint direct
    && Shard.current_lsn sh = Db.current_lsn direct
  in
  let before_crash = outcomes_ok && tokens_ok && state_ok () in
  Shard.crash_restart sh;
  Db.crash_restart direct;
  let counts db =
    Option.map
      (fun (r : Db.recovery_stats) -> { r with recovery_ms = 0.0 })
      (Db.last_recovery db)
  in
  let totals =
    match Db.last_recovery direct with
    | None -> (0, 0, 0, 0)
    | Some r ->
        (r.replayed_txns, r.replayed_records, r.in_doubt_committed,
         r.in_doubt_aborted)
  in
  before_crash
  && counts wrapped = counts direct
  && Shard.recovery_totals sh = totals
  && state_ok ()
  && (durable || Db.table_names wrapped = [])

(* [shards = 1] must be byte-identical to the unsharded engine: same heap
   fingerprint AND the same WAL byte stream (no gtids, no PREPAREs, no
   decision log entries leak into a single-shard deployment).  The same
   holds for a one-shard router over a caller-supplied engine, durable or
   not. *)
let single_shard_identical () =
  let sh =
    deployment ~replicas_per_shard:0 ~shards:1 ~checkpoint_every:4 ()
  in
  let db = Served_crash.durable_db ~rows:seed_rows ~checkpoint_every:4 () in
  List.iteri
    (fun i stmts ->
      Shard.atomically ~token:(token_of i) sh (fun () ->
          List.iter (fun s -> ignore (Shard.exec sh s)) stmts);
      Db.atomically ~token:(token_of i) db (fun () ->
          List.iter (fun s -> ignore (Db.exec db s)) stmts))
    batches;
  Db.fingerprint (Shard.shard_db sh 0) = Db.fingerprint db
  && Db.wal_size (Shard.shard_db sh 0) = Db.wal_size db
  && Sloth_storage.Two_pc.log_size (Shard.coordinator sh) = 0
  && wrapper_identical ~durable:true
  && wrapper_identical ~durable:false

(* --- JSON + report --------------------------------------------------------- *)

(* The keys a JSON object carries only when [cond] holds. *)
let only cond (fields : (string * Report.json) list) =
  if cond then fields else []

let config_json c =
  let replicated = c.cfg_replicas_per_shard > 0 in
  Report.(
    Obj
      ([ ("shards", Int c.cfg_shards) ]
      @ only replicated
          [ ("replicas_per_shard", Int c.cfg_replicas_per_shard) ]
      @ [
          ("checkpoint_every", Int c.cfg_checkpoint_every);
          ("cases", Int c.cfg_cases);
          ("acked", Int c.cfg_acked);
          ("applied", Int c.cfg_applied);
          ("aborted", Int c.cfg_aborted);
        ]
      @ only (not replicated)
          [
            ("in_doubt_committed", Int c.cfg_in_doubt_committed);
            ("in_doubt_aborted", Int c.cfg_in_doubt_aborted);
          ]
      @ only replicated [ ("promotions", Int c.cfg_promotions) ]
      @ [
          ("atomicity_violations", Int c.cfg_atomicity_violations);
          ("lost_writes", Int c.cfg_lost_writes);
          ("audit_violations", Int c.cfg_audit_violations);
        ]
      @ only replicated
          [
            ( "prepared_survival_violations",
              Int c.cfg_prepared_survival_violations );
          ]
      @ [
          ("misfires", Int c.cfg_misfires);
          ("resume_exact_once", Int c.cfg_resume_ok);
          ("final_ok", Int c.cfg_final_ok);
          ("replay_identical", Int c.cfg_replay_ok);
        ]))

let ck_label ck = if ck = 0 then "never" else Printf.sprintf "every %d" ck

let print_config c =
  let replicated = c.cfg_replicas_per_shard > 0 in
  let promotions_col xs = if replicated then xs else [] in
  Report.subsection
    (Printf.sprintf "%d shards%s, checkpoint %s" c.cfg_shards
       (if replicated then
          Printf.sprintf " x %d replicas" c.cfg_replicas_per_shard
        else "")
       (ck_label c.cfg_checkpoint_every));
  Report.table
    ~header:
      ([ "crash point"; "cases"; "acked"; "applied" ]
      @ promotions_col [ "promotions" ])
    (List.map
       (fun (label, cases, acked, applied, promotions) ->
         [
           label;
           string_of_int cases;
           string_of_int acked;
           string_of_int applied;
         ]
         @ promotions_col [ string_of_int promotions ])
       c.cfg_by_role);
  if replicated then
    Printf.printf
      "  promotions %d; atomicity violations %d, lost acked writes %d, \
       audit violations %d,\n\
      \  prepared-survival violations %d, exact-once resume %d/%d, \
       replay identical %d/%d\n"
      c.cfg_promotions c.cfg_atomicity_violations c.cfg_lost_writes
      c.cfg_audit_violations c.cfg_prepared_survival_violations
      c.cfg_resume_ok c.cfg_cases c.cfg_replay_ok c.cfg_cases
  else
    Printf.printf
      "  in-doubt: %d committed / %d aborted by recovery; atomicity \
       violations %d, lost\n\
      \  acked writes %d, audit violations %d, exact-once resume %d/%d, \
       replay identical %d/%d\n"
      c.cfg_in_doubt_committed c.cfg_in_doubt_aborted
      c.cfg_atomicity_violations c.cfg_lost_writes c.cfg_audit_violations
      c.cfg_resume_ok c.cfg_cases c.cfg_replay_ok c.cfg_cases

let sharding ~replicas_per_shard ?json () =
  let replicated = replicas_per_shard > 0 in
  let grid = String.concat "/" (List.map string_of_int shard_counts) in
  if replicated then begin
    Report.section
      "Replicated shards: per-shard groups surviving failover mid-2PC";
    Printf.printf
      "  (every shard a %d-follower replication group; the sharding crash \
       matrix re-run with\n\
      \   promotion-on-crash — every 2PC step x which node dies \
       (coordinator, shard primary\n\
      \   pre/post-PREPARE-force and pre/post-decision, follower) x %s shard \
       counts x %d\n\
      \   checkpoint intervals; prepared transactions must survive promotion \
       and resolve per\n\
      \   the decision log)\n"
      replicas_per_shard grid
      (List.length checkpoint_intervals)
  end
  else begin
    Report.section "Sharding: crash-safe two-phase commit across partitions";
    Printf.printf
      "  (%d write batches two-phase-committed across hash partitions; a \
       scripted crash swept\n\
      \   over every 2PC protocol step x every batch x %s shard counts x %d \
       checkpoint\n\
      \   intervals; each surviving state must be exactly pre- or \
       post-batch, tokens re-driven\n\
      \   to exactly-once completion, per-shard WALs audited against the \
       decision log)\n"
      n_batches grid
      (List.length checkpoint_intervals)
  end;
  let cfgs =
    List.concat_map
      (fun shards ->
        List.map
          (fun ck ->
            let c =
              run_config ~replicas_per_shard ~shards ~checkpoint_every:ck
            in
            print_config c;
            c)
          checkpoint_intervals)
      shard_counts
  in
  let sv = served ~replicas_per_shard () in
  let s = Adm.stats sv.server in
  let ss = Shard.stats sv.deployment in
  let served_audit = List.length (Shard.audit sv.deployment) in
  if replicated then begin
    Report.subsection
      "served: async multi-session server over replicated shards";
    Printf.printf
      "  (%d sessions x %d batches over 3 shards x %d replicas, seeded \
       random server crashes;\n\
      \   whole-process recovery promotes every shard's most caught-up \
       follower; per-session\n\
      \   per-shard RYW floors re-checked on every read; reads may be \
       served by caught-up\n\
      \   followers under a consistent cut)\n"
      sv.sessions Served_crash.batches_per_session replicas_per_shard;
    Printf.printf
      "  crashes %d (recoveries %d), shard failovers %d, torn in-flight %d, \
       re-driven %d,\n\
      \  durable acks %d, errors %d, replica-served read batches %d, RYW \
       violations %d,\n\
      \  lost acked writes %d, audit violations %d, torn at quiescence %d, \
       results identical: %b\n"
      s.crashes s.recoveries s.failovers s.torn_inflight s.redriven
      s.durable_acks sv.errors s.replica_read_batches s.ryw_violations
      sv.lost_acked served_audit sv.torn sv.identical
  end
  else begin
    Report.subsection "served: async multi-session server over shards";
    Printf.printf
      "  (%d sessions x %d batches on the admission layer over %d shards, \
       seeded random server\n\
      \   crashes; whole-process recovery = decision log first, then every \
       shard's in-doubt\n\
      \   resolution; results checked against same-count and unsharded \
       serial replays)\n"
      sv.sessions Served_crash.batches_per_session 3;
    Printf.printf
      "  crashes %d (recoveries %d), torn in-flight %d, re-driven %d, \
       durable acks %d, errors %d\n\
      \  2pc commits %d, 1pc commits %d, aborts %d, gathered reads %d, \
       fanout writes %d,\n\
      \  decisions %d, torn at quiescence %d, results identical: %b\n"
      s.crashes s.recoveries s.torn_inflight s.redriven s.durable_acks
      sv.errors ss.two_pc_commits ss.one_pc_commits ss.dtxn_aborts
      ss.gathered_reads ss.fanout_writes ss.decisions sv.torn sv.identical
  end;
  let single_ok = replicated || single_shard_identical () in
  let total f = sum f cfgs in
  let cases = total (fun c -> c.cfg_cases) in
  let promotions = total (fun c -> c.cfg_promotions) in
  let atomicity = total (fun c -> c.cfg_atomicity_violations) in
  let lost = total (fun c -> c.cfg_lost_writes) in
  let survival = total (fun c -> c.cfg_prepared_survival_violations) in
  let audit = total (fun c -> c.cfg_audit_violations) in
  let torn = audit + total (fun c -> c.cfg_misfires) in
  if replicated then
    Printf.printf
      "\n\
      \  crash matrix: %d cases, %d promotions, atomicity violations %d, \
       lost acked writes %d,\n\
      \  prepared-survival violations %d\n"
      cases promotions atomicity lost survival
  else
    Printf.printf
      "\n\
      \  crash matrix: %d cases, atomicity violations %d, lost acked writes \
       %d,\n\
      \  single-shard deployment byte-identical to unsharded: %b\n"
      cases atomicity lost single_ok;
  let all_ok =
    List.for_all
      (fun c ->
        c.cfg_replay_ok = c.cfg_cases
        && c.cfg_resume_ok = c.cfg_cases
        && c.cfg_final_ok = c.cfg_cases)
      cfgs
    && sv.identical && single_ok && atomicity = 0 && lost = 0 && survival = 0
    && torn = 0 && s.ryw_violations = 0 && sv.lost_acked = 0 && sv.torn = 0
  in
  Report.write_json json
    Report.(
      [
        ( "experiment",
          String (if replicated then "repl_sharding" else "sharding") );
        ("configs", List (List.map config_json cfgs));
        ("cases_total", Int cases);
      ]
      @ only replicated [ ("promotions_total", Int promotions) ]
      @ [ ("atomicity_violations", Int atomicity); ("lost_writes", Int lost) ]
      @ only replicated
          [
            ("prepared_survival_violations", Int survival);
            ("audit_violations", Int audit);
          ]
      @ [
          ("torn_batches", Int torn);
          ( "served",
            Obj
              ([
                ("sessions", Int sv.sessions);
                ("batches", Int sv.batches);
                ("errors", Int sv.errors);
                ("crashes", Int s.crashes);
                ("recoveries", Int s.recoveries);
                ("torn_inflight", Int s.torn_inflight);
                ("redriven", Int s.redriven);
                ("durable_acks", Int s.durable_acks);
                ("torn", Int sv.torn);
              ]
              @ only replicated
                  [
                    ("failovers", Int s.failovers);
                    ("replica_read_batches", Int s.replica_read_batches);
                    ("ryw_violations", Int s.ryw_violations);
                    ("lost_acked_writes", Int sv.lost_acked);
                    ("audit_violations", Int served_audit);
                  ]
              @ only (not replicated)
                  [
                    ("two_pc_commits", Int ss.two_pc_commits);
                    ("one_pc_commits", Int ss.one_pc_commits);
                    ("dtxn_aborts", Int ss.dtxn_aborts);
                    ("gathered_reads", Int ss.gathered_reads);
                    ("fanout_writes", Int ss.fanout_writes);
                    ("decisions", Int ss.decisions);
                  ]
              @ [ ("results_identical", Bool sv.identical) ]) );
        ]
      @ only (not replicated) [ ("single_shard_identical", Bool single_ok) ]
      @ only replicated
          [
            ("ryw_violations", Int s.ryw_violations);
            ("shard_primary_failovers", Int (promotions + s.failovers));
          ]
      @ [ ("results_identical", Bool all_ok) ])
