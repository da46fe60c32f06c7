module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission

(* Replicated sharding chaos matrix: the {!Sharding} workload and scripted
   crash points, run against deployments where every shard is a
   WAL-shipping replication group.  A shard-primary crash at any 2PC step
   now promotes the most caught-up follower instead of recovering in
   place, so on top of the plain matrix's detectors (atomicity, lost acked
   writes, audit, exactly-once re-drive) this matrix checks that a
   quorum-shipped prepared transaction survives the promotion and still
   resolves per the decision log, and adds a follower-death axis: killing
   a follower mid-run must be completely invisible to the client. *)

let replicas_per_shard = 2

let deployment ~shards ~checkpoint_every () =
  let sh =
    Shard.create ~checkpoint_every ~replicas_per_shard ~shards ()
  in
  Sharding.seed_shard sh;
  sh

(* The fault-trip layout is probed on an UNREPLICATED deployment
   (replication consumes no extra decision points), and its reference
   fingerprints double as a transparency check: a replicated run that
   crashed and promoted must land on the same per-shard heaps as a plain
   crash-free run. *)

type case_result = {
  cr_role : string;
  cr_acked : bool;
  cr_applied : bool;
  cr_atomic : bool;
  cr_lost : bool;
  cr_audit : int;
  cr_misfire : bool;
  cr_resume : bool;
  cr_final : bool;
  cr_replay : bool;
  cr_promotions : int;  (** shard-primary promotions this case performed *)
  cr_prepared_survived : bool;
      (** post-decision crashes only: the decided transaction is durably
          applied after the promotion (the prepared chunk survived into
          the promoted follower and phase 2 finished per the decision
          log) *)
}

(* Crash points whose window opens after the coordinator's decision is on
   disk: from there on the transaction is committed, and no single node
   death may un-commit it. *)
let post_decision_roles = [ "decision/after-log"; "ack-first"; "ack-last" ]

let finish_case ~sh ~layout ~crash_at ~label ~acked ~misfire ~promotions0 =
  Shard.quiesce sh;
  let applied = Shard.token_applied sh (Sharding.token_of crash_at) in
  let lfp = Shard.logical_fingerprint sh in
  let atomic =
    if applied then lfp = Sharding.shadow_lfp (crash_at + 1)
    else lfp = Sharding.shadow_lfp crash_at
  in
  let audit = List.length (Shard.audit sh) in
  let prepared_survived =
    (not (List.mem label post_decision_roles)) || applied
  in
  Sharding.drive sh crash_at;
  let resume =
    Shard.logical_fingerprint sh = Sharding.shadow_lfp (crash_at + 1)
    && Shard.token_applied sh (Sharding.token_of crash_at)
  in
  for i = crash_at + 1 to Sharding.n_batches - 1 do
    Sharding.drive sh i
  done;
  Shard.quiesce sh;
  let final =
    Shard.logical_fingerprint sh = Sharding.shadow_lfp Sharding.n_batches
  in
  let replay = Shard.shard_fingerprints sh = layout.Sharding.l_ref in
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
    cr_promotions = List.length (Shard.failovers sh) - promotions0;
    cr_prepared_survived = prepared_survived;
  }

let run_case ~shards ~checkpoint_every ~layout ~crash_at
    ~(role : Sharding.role) =
  let sh = deployment ~shards ~checkpoint_every () in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:role.Sharding.r_target f ~first:role.Sharding.r_first
    ~last:role.Sharding.r_last Fault.Server_crash role.Sharding.r_leg;
  Shard.set_fault sh (Some f);
  for i = 0 to crash_at - 1 do
    Sharding.drive sh i
  done;
  let acked =
    match Sharding.drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  Shard.set_fault sh None;
  let misfire = Fault.count f Fault.Server_crash <> 1 in
  finish_case ~sh ~layout ~crash_at ~label:role.Sharding.r_label ~acked
    ~misfire ~promotions0:0

(* The follower-death axis: no crash is scripted — one follower of the
   shard the batch is about to touch is removed instead.  The client must
   see a plain ack (the quorum denominator shrank with the cluster), no
   promotion happens, and every downstream detector must hold exactly as
   in a fault-free run. *)
let run_follower_case ~shards ~checkpoint_every ~layout ~crash_at =
  let sh = deployment ~shards ~checkpoint_every () in
  for i = 0 to crash_at - 1 do
    Sharding.drive sh i
  done;
  Shard.kill_follower sh (crash_at mod shards);
  let acked =
    match Sharding.drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  (* a follower death must be invisible: anything but a clean ack counts
     as this case's misfire *)
  finish_case ~sh ~layout ~crash_at ~label:"follower-dies" ~acked
    ~misfire:(not acked) ~promotions0:0

type config_result = {
  rc_shards : int;
  rc_checkpoint_every : int;
  rc_replicas : int;
  rc_cases : int;
  rc_acked : int;
  rc_applied : int;
  rc_aborted : int;
  rc_promotions : int;
  rc_atomicity_violations : int;
  rc_lost_writes : int;
  rc_audit_violations : int;
  rc_prepared_survival_violations : int;
  rc_misfires : int;
  rc_resume_ok : int;
  rc_final_ok : int;
  rc_replay_ok : int;
  rc_by_role : (string * int * int * int * int) list;
      (** role, cases, acked, applied, promotions *)
}

let run_config ~shards ~checkpoint_every =
  let layout = Sharding.probe ~shards ~checkpoint_every in
  let results = ref [] in
  for crash_at = 0 to Sharding.n_batches - 1 do
    List.iter
      (fun role ->
        results :=
          run_case ~shards ~checkpoint_every ~layout ~crash_at ~role
          :: !results)
      (Sharding.roles_of
         ~t0:layout.Sharding.l_start.(crash_at)
         ~trips:layout.Sharding.l_trips.(crash_at));
    results :=
      run_follower_case ~shards ~checkpoint_every ~layout ~crash_at
      :: !results
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
             List.length (List.filter (fun r -> r.cr_applied) mine),
             List.fold_left (fun acc r -> acc + r.cr_promotions) 0 mine ))
  in
  {
    rc_shards = shards;
    rc_checkpoint_every = checkpoint_every;
    rc_replicas = replicas_per_shard;
    rc_cases = List.length rs;
    rc_acked = count (fun r -> r.cr_acked);
    rc_applied = count (fun r -> r.cr_applied);
    rc_aborted = count (fun r -> not r.cr_applied);
    rc_promotions = sum (fun r -> r.cr_promotions);
    rc_atomicity_violations = count (fun r -> not r.cr_atomic);
    rc_lost_writes = count (fun r -> r.cr_lost);
    rc_audit_violations = sum (fun r -> r.cr_audit);
    rc_prepared_survival_violations =
      count (fun r -> not r.cr_prepared_survived);
    rc_misfires = count (fun r -> r.cr_misfire);
    rc_resume_ok = count (fun r -> r.cr_resume);
    rc_final_ok = count (fun r -> r.cr_final);
    rc_replay_ok = count (fun r -> r.cr_replay);
    rc_by_role = by_role;
  }

let shard_counts = [ 2; 3 ]
let checkpoint_intervals = [ 1; 4; 0 ]

(* --- served arm: the async server over replicated shards ------------------ *)

type served = {
  rv_sessions : int;
  rv_batches : int;
  rv_errors : int;
  rv_crashes : int;
  rv_recoveries : int;
  rv_torn_inflight : int;
  rv_redriven : int;
  rv_durable_acks : int;
  rv_torn : int;
  rv_failovers : int;
      (** shard-primary promotions surfaced in the admission failover log *)
  rv_replica_read_batches : int;
  rv_ryw_violations : int;  (** armed per-shard floor detector — must be 0 *)
  rv_lost_acked_writes : int;
      (** acked write batches whose token is not durable at quiescence —
          must be 0 *)
  rv_audit_violations : int;
  rv_identical : bool;
}

let served_repl_sharded ?(crash = 0.06) ?(shards = 3) ?(checkpoint_every = 2)
    () =
  let sh = deployment ~shards ~checkpoint_every () in
  (* the oracles are UNREPLICATED: replication must be invisible in results
     and per-shard heaps, promotions included *)
  let r =
    Served_crash.run ~deployment:sh ~schedule:Sharding.served_schedule
      ~fault_seed:300
      ~oracle:(Sharding.served_oracle ~shards ~checkpoint_every sh)
      ~crash ()
  in
  let s = Adm.stats r.server in
  {
    rv_sessions = r.sessions;
    rv_batches = r.batches;
    rv_errors = r.errors;
    rv_crashes = s.Adm.crashes;
    rv_recoveries = s.Adm.recoveries;
    rv_torn_inflight = s.Adm.torn_inflight;
    rv_redriven = s.Adm.redriven;
    rv_durable_acks = s.Adm.durable_acks;
    rv_torn = r.torn;
    rv_failovers = s.Adm.failovers;
    rv_replica_read_batches = s.Adm.replica_read_batches;
    rv_ryw_violations = s.Adm.ryw_violations;
    rv_lost_acked_writes = r.lost_acked;
    rv_audit_violations = List.length (Shard.audit sh);
    rv_identical = r.identical;
  }

(* --- JSON + report -------------------------------------------------------- *)

let json_of cfgs served =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\n  \"experiment\": \"repl_sharding\",\n  \"configs\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"replicas_per_shard\": %d, \
            \"checkpoint_every\": %d, \"cases\": %d, \"acked\": %d, \
            \"applied\": %d, \"aborted\": %d, \"promotions\": %d, \
            \"atomicity_violations\": %d, \"lost_writes\": %d, \
            \"audit_violations\": %d, \"prepared_survival_violations\": %d, \
            \"misfires\": %d, \"resume_exact_once\": %d, \"final_ok\": %d, \
            \"replay_identical\": %d}"
           c.rc_shards c.rc_replicas c.rc_checkpoint_every c.rc_cases
           c.rc_acked c.rc_applied c.rc_aborted c.rc_promotions
           c.rc_atomicity_violations c.rc_lost_writes c.rc_audit_violations
           c.rc_prepared_survival_violations c.rc_misfires c.rc_resume_ok
           c.rc_final_ok c.rc_replay_ok))
    cfgs;
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cfgs in
  let cases = total (fun c -> c.rc_cases) in
  let atomicity = total (fun c -> c.rc_atomicity_violations) in
  let lost = total (fun c -> c.rc_lost_writes) in
  let survival = total (fun c -> c.rc_prepared_survival_violations) in
  let audit = total (fun c -> c.rc_audit_violations) in
  let promotions = total (fun c -> c.rc_promotions) in
  let torn = audit + total (fun c -> c.rc_misfires) in
  let replay_ok = List.for_all (fun c -> c.rc_replay_ok = c.rc_cases) cfgs in
  let resume_ok =
    List.for_all
      (fun c -> c.rc_resume_ok = c.rc_cases && c.rc_final_ok = c.rc_cases)
      cfgs
  in
  Buffer.add_string b
    (Printf.sprintf
       "\n\
       \  ],\n\
       \  \"cases_total\": %d,\n\
       \  \"promotions_total\": %d,\n\
       \  \"atomicity_violations\": %d,\n\
       \  \"lost_writes\": %d,\n\
       \  \"prepared_survival_violations\": %d,\n\
       \  \"audit_violations\": %d,\n\
       \  \"torn_batches\": %d,\n"
       cases promotions atomicity lost survival audit torn);
  Buffer.add_string b
    (Printf.sprintf
       "  \"served\": {\"sessions\": %d, \"batches\": %d, \"errors\": %d, \
        \"crashes\": %d, \"recoveries\": %d, \"torn_inflight\": %d, \
        \"redriven\": %d, \"durable_acks\": %d, \"torn\": %d, \"failovers\": \
        %d, \"replica_read_batches\": %d, \"ryw_violations\": %d, \
        \"lost_acked_writes\": %d, \"audit_violations\": %d, \
        \"results_identical\": %b},\n"
       served.rv_sessions served.rv_batches served.rv_errors served.rv_crashes
       served.rv_recoveries served.rv_torn_inflight served.rv_redriven
       served.rv_durable_acks served.rv_torn served.rv_failovers
       served.rv_replica_read_batches served.rv_ryw_violations
       served.rv_lost_acked_writes served.rv_audit_violations
       served.rv_identical);
  Buffer.add_string b
    (Printf.sprintf "  \"ryw_violations\": %d,\n" served.rv_ryw_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"shard_primary_failovers\": %d,\n"
       (promotions + served.rv_failovers));
  Buffer.add_string b
    (Printf.sprintf "  \"results_identical\": %b\n}\n"
       (replay_ok && resume_ok && served.rv_identical && atomicity = 0
      && lost = 0 && survival = 0 && torn = 0
      && served.rv_ryw_violations = 0
      && served.rv_lost_acked_writes = 0
      && served.rv_torn = 0));
  Buffer.contents b

let repl_sharding ?json () =
  Report.section
    "Replicated shards: per-shard groups surviving failover mid-2PC";
  Printf.printf
    "  (every shard a %d-follower replication group; the sharding crash \
     matrix re-run with\n\
    \   promotion-on-crash — every 2PC step x which node dies (coordinator, \
     shard primary\n\
    \   pre/post-PREPARE-force and pre/post-decision, follower) x %s shard \
     counts x %d\n\
    \   checkpoint intervals; prepared transactions must survive promotion \
     and resolve per\n\
    \   the decision log)\n"
    replicas_per_shard
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
            (Printf.sprintf "%d shards x %d replicas, checkpoint %s" shards
               replicas_per_shard
               (if ck = 0 then "never" else Printf.sprintf "every %d" ck));
          Report.table
            ~header:
              [ "crash point"; "cases"; "acked"; "applied"; "promotions" ]
            (List.map
               (fun (label, cases, acked, applied, promotions) ->
                 [
                   label;
                   string_of_int cases;
                   string_of_int acked;
                   string_of_int applied;
                   string_of_int promotions;
                 ])
               c.rc_by_role);
          Printf.printf
            "  promotions %d; atomicity violations %d, lost acked writes %d, \
             audit violations %d,\n\
            \  prepared-survival violations %d, exact-once resume %d/%d, \
             replay identical %d/%d\n"
            c.rc_promotions c.rc_atomicity_violations c.rc_lost_writes
            c.rc_audit_violations c.rc_prepared_survival_violations
            c.rc_resume_ok c.rc_cases c.rc_replay_ok c.rc_cases)
        checkpoint_intervals)
    shard_counts;
  let cfgs = !cfgs in
  Report.subsection "served: async multi-session server over replicated shards";
  let sv = served_repl_sharded () in
  Printf.printf
    "  (%d sessions x %d batches over 3 shards x %d replicas, seeded random \
     server crashes;\n\
    \   whole-process recovery promotes every shard's most caught-up \
     follower; per-session\n\
    \   per-shard RYW floors re-checked on every read; reads may be served \
     by caught-up\n\
    \   followers under a consistent cut)\n"
    sv.rv_sessions Served_crash.batches_per_session replicas_per_shard;
  Printf.printf
    "  crashes %d (recoveries %d), shard failovers %d, torn in-flight %d, \
     re-driven %d,\n\
    \  durable acks %d, errors %d, replica-served read batches %d, RYW \
     violations %d,\n\
    \  lost acked writes %d, audit violations %d, torn at quiescence %d, \
     results identical: %b\n"
    sv.rv_crashes sv.rv_recoveries sv.rv_failovers sv.rv_torn_inflight
    sv.rv_redriven sv.rv_durable_acks sv.rv_errors sv.rv_replica_read_batches
    sv.rv_ryw_violations sv.rv_lost_acked_writes sv.rv_audit_violations
    sv.rv_torn sv.rv_identical;
  let cases = List.fold_left (fun acc c -> acc + c.rc_cases) 0 cfgs in
  let atomicity =
    List.fold_left (fun acc c -> acc + c.rc_atomicity_violations) 0 cfgs
  in
  let lost = List.fold_left (fun acc c -> acc + c.rc_lost_writes) 0 cfgs in
  let survival =
    List.fold_left
      (fun acc c -> acc + c.rc_prepared_survival_violations)
      0 cfgs
  in
  let promotions =
    List.fold_left (fun acc c -> acc + c.rc_promotions) 0 cfgs
  in
  Printf.printf
    "\n\
    \  crash matrix: %d cases, %d promotions, atomicity violations %d, lost \
     acked writes %d,\n\
    \  prepared-survival violations %d\n"
    cases promotions atomicity lost survival;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of cfgs sv);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    json
