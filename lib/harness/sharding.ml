module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Wal = Sloth_storage.Wal
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission

(* --- the cross-shard write workload -------------------------------------- *)

let seed_sql =
  "CREATE TABLE kv (id INT NOT NULL, v TEXT NOT NULL, n INT NOT NULL, \
   PRIMARY KEY (id))"
  :: List.init 24 (fun i ->
         Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 'r%d', %d)"
           (i + 1) (i + 1)
           ((i + 1) * 10))

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

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg ->
      failwith ("sharding workload: " ^ msg)

let batches = List.map (List.map parse) batches_sql
let n_batches = List.length batches
let token_of i = Printf.sprintf "sh-%d" i

let seed_shard sh = List.iter (fun sql -> ignore (Shard.exec_sql sh sql)) seed_sql
let seed_db db = List.iter (fun sql -> ignore (Db.exec_sql db sql)) seed_sql

let deployment ~shards ~checkpoint_every () =
  let sh = Shard.create ~checkpoint_every ~shards () in
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
    (let db = Db.create () in
     seed_db db;
     let fps = Array.make (n_batches + 1) "" in
     fps.(0) <- Shard.logical_fingerprint_db db;
     List.iteri
       (fun i stmts ->
         Db.atomically db (fun () ->
             List.iter (fun s -> ignore (Db.exec db s)) stmts);
         fps.(i + 1) <- Shard.logical_fingerprint_db db)
       batches;
     fps)

let shadow_lfp i = (Lazy.force shadow_lfps).(i)

(* --- probe: the fault-trip layout of a fault-free run --------------------- *)

type layout = {
  l_start : int array;  (** decision points consumed before batch [i] *)
  l_trips : int array;  (** decision points batch [i]'s commit consumes *)
  l_ref : string list;  (** per-shard fingerprints of the clean final state *)
}

let probe ~shards ~checkpoint_every =
  let sh = deployment ~shards ~checkpoint_every () in
  let f = Fault.create (Fault.plan ()) in
  Shard.set_fault sh (Some f);
  let starts = Array.make n_batches 0 and trips = Array.make n_batches 0 in
  for i = 0 to n_batches - 1 do
    starts.(i) <- Fault.trips f;
    drive sh i;
    trips.(i) <- Fault.trips f - starts.(i)
  done;
  Shard.set_fault sh None;
  assert (Shard.logical_fingerprint sh = (Lazy.force shadow_lfps).(n_batches));
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
}

let run_case ~shards ~checkpoint_every ~layout ~crash_at ~(role : role) =
  let shadow = Lazy.force shadow_lfps in
  let sh = deployment ~shards ~checkpoint_every () in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:role.r_target f ~first:role.r_first ~last:role.r_last
    Fault.Server_crash role.r_leg;
  Shard.set_fault sh (Some f);
  for i = 0 to crash_at - 1 do
    drive sh i
  done;
  let acked =
    match drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  Shard.set_fault sh None;
  let misfire = Fault.count f Fault.Server_crash <> 1 in
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
  let final = Shard.logical_fingerprint sh = shadow.(n_batches) in
  let replay = Shard.shard_fingerprints sh = layout.l_ref in
  {
    cr_role = role.r_label;
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
  }

type config_result = {
  cfg_shards : int;
  cfg_checkpoint_every : int;
  cfg_cases : int;
  cfg_acked : int;
  cfg_applied : int;
  cfg_aborted : int;
  cfg_in_doubt_committed : int;
  cfg_in_doubt_aborted : int;
  cfg_atomicity_violations : int;
  cfg_lost_writes : int;
  cfg_audit_violations : int;
  cfg_misfires : int;
  cfg_resume_ok : int;
  cfg_final_ok : int;
  cfg_replay_ok : int;
  cfg_by_role : (string * int * int * int) list;
      (** role, cases, acked, applied — matrix rows for the report *)
}

let run_config ~shards ~checkpoint_every =
  let layout = probe ~shards ~checkpoint_every in
  let results = ref [] in
  for crash_at = 0 to n_batches - 1 do
    List.iter
      (fun role ->
        results :=
          run_case ~shards ~checkpoint_every ~layout ~crash_at ~role
          :: !results)
      (roles_of ~t0:layout.l_start.(crash_at) ~trips:layout.l_trips.(crash_at))
  done;
  let rs = List.rev !results in
  let count p = List.length (List.filter p rs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
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
             List.length (List.filter (fun r -> r.cr_applied) mine) ))
  in
  {
    cfg_shards = shards;
    cfg_checkpoint_every = checkpoint_every;
    cfg_cases = List.length rs;
    cfg_acked = count (fun r -> r.cr_acked);
    cfg_applied = count (fun r -> r.cr_applied);
    cfg_aborted = count (fun r -> not r.cr_applied);
    cfg_in_doubt_committed = sum (fun r -> r.cr_in_doubt_committed);
    cfg_in_doubt_aborted = sum (fun r -> r.cr_in_doubt_aborted);
    cfg_atomicity_violations = count (fun r -> not r.cr_atomic);
    cfg_lost_writes = count (fun r -> r.cr_lost);
    cfg_audit_violations = sum (fun r -> r.cr_audit);
    cfg_misfires = count (fun r -> r.cr_misfire);
    cfg_resume_ok = count (fun r -> r.cr_resume);
    cfg_final_ok = count (fun r -> r.cr_final);
    cfg_replay_ok = count (fun r -> r.cr_replay);
    cfg_by_role = by_role;
  }

let shard_counts = [ 2; 3 ]
let checkpoint_intervals = [ 1; 4; 0 ]

(* --- served arm: the async server over sharded storage -------------------- *)

type served = {
  sh_sessions : int;
  sh_batches : int;
  sh_errors : int;
  sh_crashes : int;
  sh_recoveries : int;
  sh_torn_inflight : int;
  sh_redriven : int;
  sh_durable_acks : int;
  sh_torn : int;  (** batches left torn at quiescence — must be 0 *)
  sh_two_pc : int;
  sh_one_pc : int;
  sh_aborts : int;
  sh_gathers : int;
  sh_fanout : int;
  sh_decisions : int;
  sh_identical : bool;
      (** delivered results and per-shard fingerprints match a serial replay
          on a fresh same-shard-count deployment, and the logical state
          matches an unsharded replay *)
}

let served_schedule =
  Served_crash.schedule ~seed:0x5a4d ~keys:30 ~token_prefix:"sh"

(* Serial replay on a fresh deployment with the same shard count: result
   sets (and row order) must match exactly; a second, unsharded replay pins
   the logical state across shard counts, and the end-of-run audit checks
   every shard's WAL against the decision log, exactly as in each matrix
   cell. *)
let served_oracle ~shards ~checkpoint_every sh =
  let osh = deployment ~shards ~checkpoint_every () in
  let odb = Db.create () in
  seed_db odb;
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

let served_sharded ?(crash = 0.06) ?(shards = 3) ?(checkpoint_every = 2) () =
  let sh = deployment ~shards ~checkpoint_every () in
  let r =
    Served_crash.run ~deployment:sh ~schedule:served_schedule ~fault_seed:300
      ~oracle:(served_oracle ~shards ~checkpoint_every sh)
      ~crash ()
  in
  let s = Adm.stats r.server in
  let ss = Shard.stats sh in
  {
    sh_sessions = r.sessions;
    sh_batches = r.batches;
    sh_errors = r.errors;
    sh_crashes = s.Adm.crashes;
    sh_recoveries = s.Adm.recoveries;
    sh_torn_inflight = s.Adm.torn_inflight;
    sh_redriven = s.Adm.redriven;
    sh_durable_acks = s.Adm.durable_acks;
    sh_torn = r.torn;
    sh_two_pc = ss.Shard.two_pc_commits;
    sh_one_pc = ss.Shard.one_pc_commits;
    sh_aborts = ss.Shard.dtxn_aborts;
    sh_gathers = ss.Shard.gathered_reads;
    sh_fanout = ss.Shard.fanout_writes;
    sh_decisions = ss.Shard.decisions;
    sh_identical = r.identical;
  }

(* --- single-shard equivalence --------------------------------------------- *)

let durable_db () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:4 ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  db

(* [Shard.of_database] over a caller-supplied engine must behave exactly
   like driving that engine directly: the seeded batch stream (tokened
   atomic writes, each followed by a read-back) yields the same outcomes,
   fingerprint, token answers and LSN, and a crash-restart recovers the
   same record counts — or, without durability, wipes both alike. *)
let wrapper_identical ~durable =
  let engine () =
    let db = if durable then durable_db () else Db.create () in
    seed_db db;
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
  let read_back = [ parse "SELECT * FROM kv ORDER BY id" ] in
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
  let sh = Shard.create ~checkpoint_every:4 ~shards:1 () in
  seed_shard sh;
  let db = durable_db () in
  seed_db db;
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

let json_of cfgs served single_ok =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"experiment\": \"sharding\",\n  \"configs\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"checkpoint_every\": %d, \"cases\": %d, \
            \"acked\": %d, \"applied\": %d, \"aborted\": %d, \
            \"in_doubt_committed\": %d, \"in_doubt_aborted\": %d, \
            \"atomicity_violations\": %d, \"lost_writes\": %d, \
            \"audit_violations\": %d, \"misfires\": %d, \"resume_exact_once\": \
            %d, \"final_ok\": %d, \"replay_identical\": %d}"
           c.cfg_shards c.cfg_checkpoint_every c.cfg_cases c.cfg_acked
           c.cfg_applied c.cfg_aborted c.cfg_in_doubt_committed
           c.cfg_in_doubt_aborted c.cfg_atomicity_violations c.cfg_lost_writes
           c.cfg_audit_violations c.cfg_misfires c.cfg_resume_ok c.cfg_final_ok
           c.cfg_replay_ok))
    cfgs;
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cfgs in
  let cases = total (fun c -> c.cfg_cases) in
  let atomicity = total (fun c -> c.cfg_atomicity_violations) in
  let lost = total (fun c -> c.cfg_lost_writes) in
  let torn =
    total (fun c -> c.cfg_audit_violations) + total (fun c -> c.cfg_misfires)
  in
  let replay_ok = List.for_all (fun c -> c.cfg_replay_ok = c.cfg_cases) cfgs in
  let resume_ok =
    List.for_all
      (fun c -> c.cfg_resume_ok = c.cfg_cases && c.cfg_final_ok = c.cfg_cases)
      cfgs
  in
  Buffer.add_string b
    (Printf.sprintf
       "\n\
       \  ],\n\
       \  \"cases_total\": %d,\n\
       \  \"atomicity_violations\": %d,\n\
       \  \"lost_writes\": %d,\n\
       \  \"torn_batches\": %d,\n"
       cases atomicity lost torn);
  Buffer.add_string b
    (Printf.sprintf
       "  \"served\": {\"sessions\": %d, \"batches\": %d, \"errors\": %d, \
        \"crashes\": %d, \"recoveries\": %d, \"torn_inflight\": %d, \
        \"redriven\": %d, \"durable_acks\": %d, \"torn\": %d, \
        \"two_pc_commits\": %d, \"one_pc_commits\": %d, \"dtxn_aborts\": %d, \
        \"gathered_reads\": %d, \"fanout_writes\": %d, \"decisions\": %d, \
        \"results_identical\": %b},\n"
       served.sh_sessions served.sh_batches served.sh_errors served.sh_crashes
       served.sh_recoveries served.sh_torn_inflight served.sh_redriven
       served.sh_durable_acks served.sh_torn served.sh_two_pc served.sh_one_pc
       served.sh_aborts served.sh_gathers served.sh_fanout served.sh_decisions
       served.sh_identical);
  Buffer.add_string b
    (Printf.sprintf "  \"single_shard_identical\": %b,\n" single_ok);
  Buffer.add_string b
    (Printf.sprintf "  \"results_identical\": %b\n}\n"
       (replay_ok && resume_ok && served.sh_identical && single_ok
      && atomicity = 0 && lost = 0 && torn = 0));
  Buffer.contents b

let sharding ?json () =
  Report.section "Sharding: crash-safe two-phase commit across partitions";
  Printf.printf
    "  (%d write batches two-phase-committed across hash partitions; a \
     scripted crash swept\n\
    \   over every 2PC protocol step x every batch x %s shard counts x %d \
     checkpoint\n\
    \   intervals; each surviving state must be exactly pre- or post-batch, \
     tokens re-driven\n\
    \   to exactly-once completion, per-shard WALs audited against the \
     decision log)\n"
    n_batches
    (String.concat "/" (List.map string_of_int shard_counts))
    (List.length checkpoint_intervals);
  let cfgs = ref [] in
  List.iter
    (fun shards ->
      List.iter
        (fun ck ->
          let c = run_config ~shards ~checkpoint_every:ck in
          cfgs := !cfgs @ [ c ];
          Report.subsection
            (Printf.sprintf "%d shards, checkpoint %s" shards
               (if ck = 0 then "never" else Printf.sprintf "every %d" ck));
          Report.table
            ~header:[ "crash point"; "cases"; "acked"; "applied" ]
            (List.map
               (fun (label, cases, acked, applied) ->
                 [
                   label;
                   string_of_int cases;
                   string_of_int acked;
                   string_of_int applied;
                 ])
               c.cfg_by_role);
          Printf.printf
            "  in-doubt: %d committed / %d aborted by recovery; atomicity \
             violations %d, lost\n\
            \  acked writes %d, audit violations %d, exact-once resume %d/%d, \
             replay identical %d/%d\n"
            c.cfg_in_doubt_committed c.cfg_in_doubt_aborted
            c.cfg_atomicity_violations c.cfg_lost_writes c.cfg_audit_violations
            c.cfg_resume_ok c.cfg_cases c.cfg_replay_ok c.cfg_cases)
        checkpoint_intervals)
    shard_counts;
  let cfgs = !cfgs in
  Report.subsection "served: async multi-session server over shards";
  let sv = served_sharded () in
  Printf.printf
    "  (%d sessions x %d batches on the admission layer over %d shards, \
     seeded random server\n\
    \   crashes; whole-process recovery = decision log first, then every \
     shard's in-doubt\n\
    \   resolution; results checked against same-count and unsharded serial \
     replays)\n"
    sv.sh_sessions Served_crash.batches_per_session 3;
  Printf.printf
    "  crashes %d (recoveries %d), torn in-flight %d, re-driven %d, durable \
     acks %d, errors %d\n\
    \  2pc commits %d, 1pc commits %d, aborts %d, gathered reads %d, fanout \
     writes %d,\n\
    \  decisions %d, torn at quiescence %d, results identical: %b\n"
    sv.sh_crashes sv.sh_recoveries sv.sh_torn_inflight sv.sh_redriven
    sv.sh_durable_acks sv.sh_errors sv.sh_two_pc sv.sh_one_pc sv.sh_aborts
    sv.sh_gathers sv.sh_fanout sv.sh_decisions sv.sh_torn sv.sh_identical;
  let single_ok = single_shard_identical () in
  let cases = List.fold_left (fun acc c -> acc + c.cfg_cases) 0 cfgs in
  let atomicity =
    List.fold_left (fun acc c -> acc + c.cfg_atomicity_violations) 0 cfgs
  in
  let lost = List.fold_left (fun acc c -> acc + c.cfg_lost_writes) 0 cfgs in
  Printf.printf
    "\n\
    \  crash matrix: %d cases, atomicity violations %d, lost acked writes \
     %d,\n\
    \  single-shard deployment byte-identical to unsharded: %b\n"
    cases atomicity lost single_ok;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of cfgs sv single_ok);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    json
