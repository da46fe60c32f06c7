(* The MQO experiment: run identical multi-flush read/write schedules
   through three arms and compare rows scanned, sharing counters and
   result sets.

     independent — every SELECT planned and executed on its own
     shared      — the existing flush path: normalized dedup + shared
                   sequential scans (Database.exec_reads, MQO off)
     mqo         — the same entry point with the plan-merge pass and the
                   version-keyed result cache enabled

   Each arm runs on its own freshly populated application database
   (deterministic seed), so the schedules are byte-identical inputs.  The
   schedules repeat flushes (to exercise the cross-flush cache) and
   interleave writes (to exercise version-bump invalidation); every arm
   must produce identical result sets for every statement. *)

module Db = Sloth_storage.Database
module Ex = Sloth_storage.Executor
module Rs = Sloth_storage.Result_set

type step = Flush of string list | Write of string

(* --- schedules ----------------------------------------------------------- *)

(* Many aggregates over unindexed columns of one hot table: every query
   plans as a sequential scan, so the shared arm already collapses them —
   the mqo arm adds cache hits on the repeat flushes. *)
let dashboard_suite (module A : Sloth_workload.App_sig.S) =
  let flush =
    if String.equal A.name "tracker" then
      [
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'new'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'open'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'resolved'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'closed'";
        "SELECT status, COUNT(*) AS n FROM issue GROUP BY status";
      ]
    else
      [
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'F'";
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'M'";
        "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
      ]
  in
  let invalidate =
    if String.equal A.name "tracker" then
      "UPDATE issue SET status = 'closed' WHERE id = 1"
    else "UPDATE person SET gender = 'F' WHERE id = 1"
  in
  ( "dashboard",
    [ Flush flush; Flush flush; Write invalidate; Flush flush; Flush flush ] )

(* Point lookups on an indexed FK column and ranges on an ordered-index
   column: same index, different keys/bounds and projections — the mqo arm
   fuses them into shared probe-set passes. *)
let probe_suite (module A : Sloth_workload.App_sig.S) =
  let points, ranges, invalidate =
    if String.equal A.name "tracker" then
      ( [
          "SELECT * FROM issue WHERE owner_id = 3";
          "SELECT status FROM issue WHERE owner_id = 3";
          "SELECT * FROM issue WHERE owner_id = 7";
          "SELECT severity FROM issue WHERE owner_id = 7";
          "SELECT * FROM issue WHERE owner_id = 11";
        ],
        [
          "SELECT * FROM issue WHERE severity >= 2 AND severity <= 3";
          "SELECT status FROM issue WHERE severity BETWEEN 2 AND 3";
          "SELECT COUNT(*) AS n FROM issue WHERE severity >= 4";
        ],
        "UPDATE issue SET owner_id = 5 WHERE id = 2" )
    else
      ( [
          "SELECT * FROM patient WHERE person_id = 3";
          "SELECT identifier FROM patient WHERE person_id = 3";
          "SELECT * FROM patient WHERE person_id = 7";
          "SELECT * FROM patient WHERE person_id = 11";
        ],
        [
          "SELECT * FROM person WHERE birth_year >= 1950 AND birth_year <= 1960";
          "SELECT gender FROM person WHERE birth_year BETWEEN 1950 AND 1960";
          "SELECT COUNT(*) AS n FROM person WHERE birth_year >= 2000";
        ],
        "UPDATE patient SET person_id = 5 WHERE id = 2" )
  in
  ( "probe-set",
    [
      Flush points;
      Flush ranges;
      Write invalidate;
      Flush points;
      Flush ranges;
    ] )

(* Structurally equal join subplans (same FROM/JOIN/WHERE, different
   residual work): the mqo arm runs the join once and fans the rows out. *)
let join_suite (module A : Sloth_workload.App_sig.S) =
  let flush =
    if String.equal A.name "tracker" then
      [
        "SELECT COUNT(*) AS n FROM issue JOIN project ON issue.project_id = \
         project.id WHERE project.status = 'active'";
        "SELECT issue.status, COUNT(*) AS n FROM issue JOIN project ON \
         issue.project_id = project.id WHERE project.status = 'active' GROUP \
         BY issue.status";
        "SELECT COUNT(*) AS n FROM issue JOIN project ON issue.project_id = \
         project.id WHERE project.status = 'locked'";
      ]
    else
      [
        "SELECT COUNT(*) AS n FROM patient JOIN person ON patient.person_id \
         = person.id WHERE person.gender = 'F'";
        "SELECT person.gender, COUNT(*) AS n FROM patient JOIN person ON \
         patient.person_id = person.id WHERE person.gender = 'F' GROUP BY \
         person.gender";
      ]
  in
  ("join", [ Flush flush; Flush flush ])

let suites (module A : Sloth_workload.App_sig.S) =
  [
    dashboard_suite (module A);
    probe_suite (module A);
    join_suite (module A);
  ]

(* --- arms ---------------------------------------------------------------- *)

let parse_selects sqls =
  List.map
    (fun sql ->
      match Sloth_sql.Parser.parse sql with
      | Sloth_sql.Ast.Select s -> s
      | _ -> invalid_arg ("not a SELECT: " ^ sql))
    sqls

(* Run one schedule; [reads] executes one flush's SELECTs and returns
   [(result_set, rows_scanned)] per statement.  Returns the flushes'
   result sets (flush-major) and the total rows scanned. *)
let run_schedule db reads steps =
  List.fold_left
    (fun (flushes, scanned) step ->
      match step with
      | Write sql ->
          ignore (Db.exec_sql db sql);
          (flushes, scanned)
      | Flush sqls ->
          let outs = reads db (parse_selects sqls) in
          ( flushes @ [ List.map fst outs ],
            scanned + List.fold_left (fun a (_, n) -> a + n) 0 outs ))
    ([], 0) steps

let independent_arm (module A : Sloth_workload.App_sig.S) steps =
  let db = Runner.prepare (module A) in
  run_schedule db
    (fun db selects ->
      let cat = Db.catalog db in
      let model = Db.cost_model db in
      List.map
        (fun s ->
          let o = Ex.execute cat ~model (Sloth_sql.Ast.Select s) in
          (o.Ex.rs, o.Ex.rows_scanned))
        selects)
    steps

let exec_reads_arm db selects =
  List.map
    (fun ((o : Db.outcome), scanned) -> (o.Db.rs, scanned))
    (Db.exec_reads db selects)

let shared_arm (module A : Sloth_workload.App_sig.S) steps =
  let db = Runner.prepare (module A) in
  run_schedule db exec_reads_arm steps

let mqo_arm (module A : Sloth_workload.App_sig.S) steps =
  let db = Runner.prepare (module A) in
  Db.set_mqo db true;
  Db.set_result_cache db (Some 64);
  let r = run_schedule db exec_reads_arm steps in
  (r, Db.read_stats db)

(* --- reporting ----------------------------------------------------------- *)

type cell = {
  app : string;
  suite : string;
  flushes : int;
  queries : int;
  ind_scanned : int;
  shr_scanned : int;
  mqo_scanned : int;
  stats : Db.read_stats;
  identical : bool;
}

let rs_equal a b =
  Rs.columns a = Rs.columns b
  && List.equal
       (fun x y -> Array.for_all2 Sloth_storage.Value.equal x y)
       (Rs.rows a) (Rs.rows b)

let flushes_equal a b =
  List.equal (fun fa fb -> List.equal rs_equal fa fb) a b

let run_suite (module A : Sloth_workload.App_sig.S) (suite, steps) =
  let ind_rs, ind_scanned = independent_arm (module A) steps in
  let shr_rs, shr_scanned = shared_arm (module A) steps in
  let (mqo_rs, mqo_scanned), stats = mqo_arm (module A) steps in
  let queries =
    List.fold_left
      (fun acc -> function Flush sqls -> acc + List.length sqls | _ -> acc)
      0 steps
  in
  {
    app = A.name;
    suite;
    flushes =
      List.length (List.filter (function Flush _ -> true | _ -> false) steps);
    queries;
    ind_scanned;
    shr_scanned;
    mqo_scanned;
    stats;
    identical = flushes_equal ind_rs shr_rs && flushes_equal shr_rs mqo_rs;
  }

let cell_row c =
  [
    c.app;
    c.suite;
    string_of_int c.flushes;
    string_of_int c.queries;
    string_of_int c.ind_scanned;
    string_of_int c.shr_scanned;
    string_of_int c.mqo_scanned;
    string_of_int c.stats.Db.cache_hits;
    string_of_int c.stats.Db.cache_invalidations;
    string_of_int c.stats.Db.probe_sets_merged;
    string_of_int c.stats.Db.joins_shared;
    string_of_bool c.identical;
  ]

let json_of_cells cells =
  let cell c =
    Report.Obj
      [
        ("app", String c.app);
        ("suite", String c.suite);
        ("flushes", Int c.flushes);
        ("queries", Int c.queries);
        ("rows_scanned_independent", Int c.ind_scanned);
        ("rows_scanned_shared", Int c.shr_scanned);
        ("rows_scanned_mqo", Int c.mqo_scanned);
        ("cache_hits", Int c.stats.Db.cache_hits);
        ("cache_misses", Int c.stats.Db.cache_misses);
        ("cache_invalidations", Int c.stats.Db.cache_invalidations);
        ("probe_sets_merged", Int c.stats.Db.probe_sets_merged);
        ("joins_shared", Int c.stats.Db.joins_shared);
        ("results_identical", Bool c.identical);
      ]
  in
  let sum f = Report.Int (List.fold_left (fun a c -> a + f c) 0 cells) in
  [
    ("experiment", Report.String "mqo");
    ("cells", List (List.map cell cells));
    ("cache_hit_total", sum (fun c -> c.stats.Db.cache_hits));
    ( "rows_scanned_saved_vs_shared",
      sum (fun c -> c.shr_scanned - c.mqo_scanned) );
    ("results_identical", Bool (List.for_all (fun c -> c.identical) cells));
  ]

let mqo ?json () =
  Report.section
    "MQO: shared probe sets, shared joins and the cross-flush result cache";
  Printf.printf
    "  (identical multi-flush schedules — repeated flushes, interleaved \
     writes — run\n\
    \   through three arms; 'mqo' merges index probes and join subplans and \
     caches\n\
    \   results across flushes keyed on table versions; result sets must \
     stay identical)\n";
  let cells =
    List.map (run_suite Sloth_workload.App_sig.tracker)
      (suites Sloth_workload.App_sig.tracker)
    @ List.map (run_suite Sloth_workload.App_sig.medrec)
        (suites Sloth_workload.App_sig.medrec)
  in
  Report.table
    ~header:
      [
        "app"; "suite"; "flushes"; "queries"; "scan ind"; "scan shr";
        "scan mqo"; "hits"; "inval"; "probes"; "joins"; "identical";
      ]
    (List.map cell_row cells);
  let identical = List.for_all (fun c -> c.identical) cells in
  let hits = List.fold_left (fun a c -> a + c.stats.Db.cache_hits) 0 cells in
  let never_more =
    List.for_all (fun c -> c.mqo_scanned <= c.shr_scanned) cells
  in
  Printf.printf
    "\n  results identical everywhere: %b; mqo never scans more: %b; total \
     cache hits: %d\n"
    identical never_more hits;
  Report.write_json json (json_of_cells cells)
