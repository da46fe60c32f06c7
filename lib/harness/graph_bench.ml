(* The graph experiment: reachability over the triple store, two client
   strategies against the same populated database.

     recursive — one WITH RECURSIVE statement per root; the server's
                 semi-naive fixpoint does the whole traversal in a single
                 round trip.
     iterative — the client-side frontier loop ORM code writes without
                 recursive SQL: one point query per expanded node
                 (SELECT ... WHERE subject_id = ?) until the frontier is
                 empty.

   Both arms must produce identical sorted id sets for every root; the
   recursive arm's round-trip count is the number of roots, the iterative
   arm pays one trip per node expansion — the gap the paper's lazy
   batching cannot close when the traversal is inherently sequential. *)

module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Value = Sloth_storage.Value
module Conn = Sloth_driver.Connection
module Stats = Sloth_net.Stats
module Graph = Sloth_workload.Graph

let roots = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let fresh_conn db =
  let clock = Sloth_net.Vclock.create () in
  Conn.create db (Sloth_net.Link.create ~rtt_ms:0.5 clock)

let ids rs =
  List.filter_map
    (fun row -> match row.(0) with Value.Int i -> Some i | _ -> None)
    (Rs.rows rs)

let run_sql conn sql = ids (Conn.execute conn (Sloth_sql.Parser.parse sql)).Db.rs

(* One statement per root; the ORDER BY id ASC inside makes each result a
   sorted id list directly. *)
let recursive_arm db ~sql_of_root =
  let conn = fresh_conn db in
  let res = List.map (fun root -> run_sql conn (sql_of_root root)) roots in
  (res, Stats.round_trips (Conn.stats conn))

(* Frontier BFS issuing one hop query per expanded node.  Matches the CTE
   semantics exactly: the result is every node reachable in >= 1 step (the
   root itself only if a cycle returns to it). *)
let iterative_arm db ~hop_sql =
  let conn = fresh_conn db in
  let closure root =
    let seen = Hashtbl.create 32 in
    let rec go = function
      | [] -> ()
      | frontier ->
          let next = List.concat_map (fun n -> run_sql conn (hop_sql n)) frontier in
          let fresh =
            List.sort_uniq compare
              (List.filter (fun o -> not (Hashtbl.mem seen o)) next)
          in
          List.iter (fun o -> Hashtbl.replace seen o ()) fresh;
          go fresh
    in
    go [ root ];
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  in
  let res = List.map closure roots in
  (res, Stats.round_trips (Conn.stats conn))

(* --- suites -------------------------------------------------------------- *)

type suite = {
  page : string;
  sql_of_root : int -> string;
  hop_sql : int -> string;
}

let hop ~pred fmt n =
  Printf.sprintf fmt n pred

let suites =
  [
    {
      page = "dependency_closure";
      sql_of_root = (fun root -> Graph.closure_sql ~pred:"depends_on" ~root);
      hop_sql =
        hop ~pred:"depends_on"
          "SELECT object_id FROM triple WHERE subject_id = %d AND predicate \
           = '%s'";
    };
    {
      page = "impact_analysis";
      sql_of_root =
        (fun root -> Graph.reverse_closure_sql ~pred:"depends_on" ~root);
      hop_sql =
        hop ~pred:"depends_on"
          "SELECT subject_id FROM triple WHERE object_id = %d AND predicate \
           = '%s'";
    };
    {
      page = "reporting_chain";
      sql_of_root = (fun root -> Graph.closure_sql ~pred:"reports_to" ~root);
      hop_sql =
        hop ~pred:"reports_to"
          "SELECT object_id FROM triple WHERE subject_id = %d AND predicate \
           = '%s'";
    };
  ]

type cell = {
  c_page : string;
  reached : int;
  rec_trips : int;
  iter_trips : int;
  identical : bool;
}

let run_suite db s =
  let rec_res, rec_trips = recursive_arm db ~sql_of_root:s.sql_of_root in
  let iter_res, iter_trips = iterative_arm db ~hop_sql:s.hop_sql in
  {
    c_page = s.page;
    reached = List.fold_left (fun a l -> a + List.length l) 0 rec_res;
    rec_trips;
    iter_trips;
    identical = List.equal (List.equal Int.equal) rec_res iter_res;
  }

let ratio c = float_of_int c.iter_trips /. float_of_int (max 1 c.rec_trips)

let json_of_cells cells =
  let cell c =
    Report.Obj
      [
        ("page", String c.c_page);
        ("roots", Int (List.length roots));
        ("reached_total", Int c.reached);
        ("round_trips_recursive", Int c.rec_trips);
        ("round_trips_iterative", Int c.iter_trips);
        ("trip_ratio", Float (1, ratio c));
        ("results_identical", Bool c.identical);
      ]
  in
  let rec_total = List.fold_left (fun a c -> a + c.rec_trips) 0 cells in
  let iter_total = List.fold_left (fun a c -> a + c.iter_trips) 0 cells in
  let total_ratio = float_of_int iter_total /. float_of_int (max 1 rec_total) in
  [
    ("experiment", Report.String "graph");
    ("cells", List (List.map cell cells));
    ("round_trips_recursive_total", Int rec_total);
    ("round_trips_iterative_total", Int iter_total);
    ("trip_ratio_total", Float (1, total_ratio));
    ("ratio_at_least_10x", Bool (total_ratio >= 10.0));
    ("results_identical", Bool (List.for_all (fun c -> c.identical) cells));
  ]

let graph ?json () =
  Report.section
    "Graph: recursive CTEs vs the client-side frontier loop";
  Printf.printf
    "  (reachability from %d roots over the triple store; the recursive arm \
     runs one\n\
    \   WITH RECURSIVE statement per root, the iterative arm replays the \
     classic ORM\n\
    \   frontier loop — one point query per expanded node; results must be \
     identical)\n"
    (List.length roots);
  let db = Runner.prepare Sloth_workload.App_sig.graph in
  let cells = List.map (run_suite db) suites in
  Report.table
    ~header:
      [ "page"; "roots"; "reached"; "trips rec"; "trips iter"; "ratio";
        "identical" ]
    (List.map
       (fun c ->
         [
           c.c_page;
           string_of_int (List.length roots);
           string_of_int c.reached;
           string_of_int c.rec_trips;
           string_of_int c.iter_trips;
           Printf.sprintf "%.1fx" (ratio c);
           string_of_bool c.identical;
         ])
       cells);
  let identical = List.for_all (fun c -> c.identical) cells in
  let rec_total = List.fold_left (fun a c -> a + c.rec_trips) 0 cells in
  let iter_total = List.fold_left (fun a c -> a + c.iter_trips) 0 cells in
  Printf.printf
    "\n  results identical everywhere: %b; total round trips %d (recursive) \
     vs %d (iterative), %.1fx fewer\n"
    identical rec_total iter_total
    (float_of_int iter_total /. float_of_int (max 1 rec_total));
  Report.write_json json (json_of_cells cells)
