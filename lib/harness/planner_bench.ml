(* The planner experiment: replay the read batches that Sloth-mode page
   loads actually ship and compare executing them independently (one plan,
   one scan per query) against the multi-query batch path (normalized
   dedup + shared sequential scans), on total rows scanned and on the
   virtual batch cost the Db clock category would be charged.  A synthetic
   dashboard workload — many aggregates over unindexed columns of one hot
   table — shows the shared-scan ceiling; captured page batches show what
   the real workloads get. *)

module Db = Sloth_storage.Database
module Ex = Sloth_storage.Executor
module Cost = Sloth_storage.Cost
module Rs = Sloth_storage.Result_set
module Vclock = Sloth_net.Vclock
module Link = Sloth_net.Link
module Conn = Sloth_driver.Connection
module Qs = Sloth_core.Query_store
module Runtime = Sloth_core.Runtime

(* --- batch capture ------------------------------------------------------ *)

(* Load every page of [A] in Sloth mode with a tracer on the query store,
   recording the SQL of each shipped batch. *)
let capture_batches (module A : Sloth_workload.App_sig.S) db =
  let batches = ref [] in
  List.iter
    (fun page ->
      let clock = Vclock.create () in
      let link = Link.create ~rtt_ms:0.5 clock in
      let conn = Conn.create db link in
      let store = Qs.create conn in
      Qs.set_tracer store
        (Some
           (function
             | Qs.Batch_sent batch ->
                 batches := List.map snd batch :: !batches
             | _ -> ()));
      Runtime.set_clock (Some clock);
      let module X = Sloth_core.Exec.Lazy (struct
        let store = store
      end) in
      let module P = A.Pages (X) in
      ignore
        (Sloth_web.Page.load ~name:page ~clock ~link
           ~controller:(P.controller page) ());
      Runtime.set_clock None)
    (Runner.page_names (module A));
  List.rev !batches

(* Keep only all-read batches, parsed back into SELECTs. *)
let read_batches sql_batches =
  List.filter_map
    (fun sqls ->
      let stmts = List.map Sloth_sql.Parser.parse sqls in
      let selects =
        List.filter_map
          (function Sloth_sql.Ast.Select s -> Some s | _ -> None)
          stmts
      in
      if List.length selects = List.length stmts && selects <> [] then
        Some selects
      else None)
    sql_batches

(* --- the two execution strategies --------------------------------------- *)

type measure = { queries : int; scanned : int; batch_ms : float }

let zero = { queries = 0; scanned = 0; batch_ms = 0.0 }

let add a b =
  {
    queries = a.queries + b.queries;
    scanned = a.scanned + b.scanned;
    batch_ms = a.batch_ms +. b.batch_ms;
  }

let measure_of model (outs : Ex.outcome list) =
  let costs =
    List.map
      (fun (o : Ex.outcome) ->
        Cost.query_ms model ~rows_scanned:o.rows_scanned
          ~rows_returned:(Rs.num_rows o.rs))
      outs
  in
  {
    queries = List.length outs;
    scanned =
      List.fold_left (fun acc (o : Ex.outcome) -> acc + o.rows_scanned) 0 outs;
    batch_ms = Cost.batch_ms model costs;
  }

(* Each query planned and executed on its own (no cross-query work). *)
let independent cat model selects =
  List.map (fun s -> Ex.execute cat ~model (Sloth_sql.Ast.Select s)) selects

(* The whole batch through the multi-query path. *)
let shared cat model selects = Ex.execute_reads cat ~model selects

let rows_equal (a : Ex.outcome) (b : Ex.outcome) =
  Rs.columns a.rs = Rs.columns b.rs
  && List.equal (fun x y -> Array.for_all2 Sloth_storage.Value.equal x y) (Rs.rows a.rs)
       (Rs.rows b.rs)

(* Run one workload (a list of batches) both ways; returns the two totals
   plus whether every result set matched. *)
let run_workload db batches =
  let cat = Db.catalog db in
  let model = Db.cost_model db in
  List.fold_left
    (fun (ind, shr, ok) selects ->
      let a = independent cat model selects in
      let b = shared cat model selects in
      ( add ind (measure_of model a),
        add shr (measure_of model b),
        ok && List.equal rows_equal a b ))
    (zero, zero, true) batches

(* --- the synthetic dashboard workload ------------------------------------ *)

(* Status / gender are Choice-generated text columns: never indexed, so
   every count below plans as a sequential scan of the same hot table —
   exactly the SharedDB fan-out shape.  One pair differs only in conjunct
   order to exercise normalized dedup at this layer too. *)
let dashboard_sql (module A : Sloth_workload.App_sig.S) =
  if String.equal A.name "tracker" then
    [
      [
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'new'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'open'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'resolved'";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'closed'";
        "SELECT status, COUNT(*) AS n FROM issue GROUP BY status";
        "SELECT COUNT(*) AS n FROM issue WHERE status = 'open' AND severity = 5";
        "SELECT COUNT(*) AS n FROM issue WHERE severity = 5 AND status = 'open'";
      ];
    ]
  else
    [
      [
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'F'";
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'M'";
        "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'F' AND birth_year = 1990";
        "SELECT COUNT(*) AS n FROM person WHERE birth_year = 1990 AND gender = 'F'";
      ];
    ]

let dashboard_batches (module A : Sloth_workload.App_sig.S) =
  read_batches (dashboard_sql (module A))

(* --- reporting ----------------------------------------------------------- *)

type cell = {
  app : string;
  workload : string;
  batches : int;
  ind : measure;
  shr : measure;
  identical : bool;
}

let pct_saved a b = if a <= 0.0 then 0.0 else 100.0 *. (a -. b) /. a

let cell_row c =
  [
    c.app;
    c.workload;
    string_of_int c.batches;
    string_of_int c.ind.queries;
    string_of_int c.ind.scanned;
    string_of_int c.shr.scanned;
    Printf.sprintf "%.1f%%"
      (pct_saved (float_of_int c.ind.scanned) (float_of_int c.shr.scanned));
    Printf.sprintf "%.3f" c.ind.batch_ms;
    Printf.sprintf "%.3f" c.shr.batch_ms;
    string_of_bool c.identical;
  ]

let json_of_cells cells =
  let cell c =
    Report.Obj
      [
        ("app", String c.app);
        ("workload", String c.workload);
        ("batches", Int c.batches);
        ("queries", Int c.ind.queries);
        ("rows_scanned_independent", Int c.ind.scanned);
        ("rows_scanned_shared", Int c.shr.scanned);
        ("batch_ms_independent", Float (6, c.ind.batch_ms));
        ("batch_ms_shared", Float (6, c.shr.batch_ms));
        ("results_identical", Bool c.identical);
      ]
  in
  [
    ("experiment", Report.String "planner");
    ("cells", List (List.map cell cells));
    ( "rows_scanned_saved",
      Int
        (List.fold_left
           (fun acc c -> acc + (c.ind.scanned - c.shr.scanned))
           0 cells) );
    ("results_identical", Bool (List.for_all (fun c -> c.identical) cells));
  ]

let app_cells (module A : Sloth_workload.App_sig.S) =
  let db = Runner.prepare (module A) in
  let captured = read_batches (capture_batches (module A) db) in
  (* Only multi-query batches can share anything; singletons are noise. *)
  let captured = List.filter (fun b -> List.length b > 1) captured in
  let cind, cshr, cok = run_workload db captured in
  let dash = dashboard_batches (module A) in
  let dind, dshr, dok = run_workload db dash in
  [
    {
      app = A.name;
      workload = "captured pages";
      batches = List.length captured;
      ind = cind;
      shr = cshr;
      identical = cok;
    };
    {
      app = A.name;
      workload = "dashboard";
      batches = List.length dash;
      ind = dind;
      shr = dshr;
      identical = dok;
    };
  ]

let planner ?json () =
  Report.section
    "Planner: shared-scan batch execution vs independent per-query plans";
  Printf.printf
    "  (read batches captured from Sloth-mode page loads, then re-executed \
     both ways;\n\
    \   'shared' deduplicates normalized statements and merges sequential \
     scans of the\n\
    \   same table into one heap pass — result sets must stay identical)\n";
  let cells =
    app_cells Sloth_workload.App_sig.tracker
    @ app_cells Sloth_workload.App_sig.medrec
  in
  Report.table
    ~header:
      [
        "app"; "workload"; "batches"; "queries"; "scanned ind"; "scanned shr";
        "saved"; "ms ind"; "ms shr"; "identical";
      ]
    (List.map cell_row cells);
  let identical = List.for_all (fun c -> c.identical) cells in
  let reduced =
    List.for_all
      (fun c -> c.batches = 0 || c.shr.scanned <= c.ind.scanned)
      cells
  in
  let strict =
    List.exists (fun c -> c.shr.scanned < c.ind.scanned) cells
  in
  Printf.printf
    "\n  results identical everywhere: %b; shared never scans more: %b; \
     strictly fewer somewhere: %b\n"
    identical reduced strict;
  Report.write_json json (json_of_cells cells)
