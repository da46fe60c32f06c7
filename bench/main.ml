(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section, plus wall-clock microbenchmarks (Bechamel)
   of the thunk machinery, parsing, execution, the query store and the
   WAL/checkpoint layer.

   Usage: main.exe [experiment ...] [--faults RATE] [--crash RATE]
          [--checkpoint-every N]
   Experiments: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 prefetch
   policies chaos recovery failover sharding repl-shard throughput planner
   mqo graph appendix micro.  With no argument everything except
   `recovery`, `failover`, `sharding`, `repl-shard`, `throughput`, `mqo`
   and `graph` runs; run those explicitly.  Each of them, and `planner`,
   writes a deterministic BENCH_<name>.json (`repl-shard` writes
   BENCH_repl_sharding.json) through the one emitter, Report.write_json.
   `recovery` includes the served-crash arm: the async multi-session
   server under seeded random crashes, with its crash/epoch/redrive
   counters in the JSON.  `failover` runs the replicated server —
   WAL-shipping followers, replica-served reads, promote-on-crash —
   against the LSN-interleaved serial-replay oracle.  `sharding` and
   `repl-shard` are one 2PC crash matrix (Sharding.sharding) run with 0
   and 2 replicas per shard.  [--faults RATE] appends a one-line chaos
   summary at that fault rate (alone, it runs only that summary);
   [--crash RATE] likewise appends a one-line recovery summary with
   random server crashes at that rate, checkpointing every N commits
   (default 4). *)

open Sloth_harness

(* --- Bechamel microbenchmarks ------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let thunk_create_force =
    Test.make ~name:"thunk create+force"
      (Staged.stage (fun () ->
           Sloth_core.Thunk.force (Sloth_core.Thunk.create (fun () -> 42))))
  in
  let thunk_chain =
    Test.make ~name:"thunk map-chain (depth 10)"
      (Staged.stage (fun () ->
           let t = ref (Sloth_core.Thunk.literal 1) in
           for _ = 1 to 10 do
             t := Sloth_core.Thunk.map succ !t
           done;
           Sloth_core.Thunk.force !t))
  in
  let sql_parse =
    Test.make ~name:"sql parse (join+where)"
      (Staged.stage (fun () ->
           Sloth_sql.Parser.parse
             "SELECT u.name, o.total FROM users u JOIN orders o ON o.user_id \
              = u.id WHERE u.id = 42 AND o.total > 10 ORDER BY o.total DESC \
              LIMIT 5"))
  in
  let db = Sloth_storage.Database.create () in
  let () =
    ignore
      (Sloth_storage.Database.exec_sql db
         "CREATE TABLE m (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
    for i = 1 to 1000 do
      ignore
        (Sloth_storage.Database.exec_sql db
           (Printf.sprintf "INSERT INTO m (id, v) VALUES (%d, 'v%d')" i i))
    done
  in
  let point_stmt = Sloth_sql.Parser.parse "SELECT * FROM m WHERE id = 500" in
  let point_query =
    Test.make ~name:"executor point query (1k rows)"
      (Staged.stage (fun () -> Sloth_storage.Database.exec db point_stmt))
  in
  let store_env () =
    let clock = Sloth_net.Vclock.create () in
    let conn = Sloth_driver.Connection.create db (Sloth_net.Link.create clock) in
    Sloth_core.Query_store.create conn
  in
  let store_batch =
    Test.make ~name:"query store register+flush (10)"
      (Staged.stage (fun () ->
           let store = store_env () in
           let ids =
             List.init 10 (fun i ->
                 Sloth_core.Query_store.register_sql store
                   (Printf.sprintf "SELECT * FROM m WHERE id = %d" (i + 1)))
           in
           List.iter
             (fun id -> ignore (Sloth_core.Query_store.result store id))
             ids))
  in
  (* WAL and checkpoint layer: a durable TPC-C engine takes a checkpoint
     after every 8 single-row update commits spread over three tables, as
     the default [checkpoint_every] does; and a bare Adler-32 pass. *)
  let tpcc = Sloth_storage.Database.create () in
  Sloth_workload.Tpcc.populate tpcc;
  Sloth_storage.Database.enable_durability ~checkpoint_every:0
    ~wal:(Sloth_storage.Wal.mem ()) ~checkpoint:(Sloth_storage.Wal.mem ())
    tpcc;
  Sloth_storage.Database.checkpoint_now tpcc;
  let dirty = ref 0 in
  let updates =
    Array.init 24 (fun i ->
        let table, rows =
          match i mod 3 with
          | 0 -> ("tpcc_customer", 1200)
          | 1 -> ("tpcc_stock", 800)
          | _ -> ("tpcc_district", 40)
        in
        Sloth_sql.Parser.parse
          (Printf.sprintf "UPDATE %s SET id = id WHERE id = %d" table
             ((i * 97 mod rows) + 1)))
  in
  let checkpoint =
    Test.make ~name:"checkpoint (TPC-C, 8 commits dirty)"
      (Staged.stage (fun () ->
           for _ = 1 to 8 do
             ignore (Sloth_storage.Database.exec tpcc updates.(!dirty));
             dirty := (!dirty + 1) mod Array.length updates
           done;
           Sloth_storage.Database.checkpoint_now tpcc))
  in
  let wal_bytes =
    String.init (256 * 1024) (fun i -> Char.chr (i * 31 land 0xff))
  in
  let checksum =
    Test.make ~name:"wal checksum (256 KB)"
      (Staged.stage (fun () -> Sloth_storage.Wal.checksum wal_bytes))
  in
  Test.make_grouped ~name:"sloth"
    [
      thunk_create_force;
      thunk_chain;
      sql_parse;
      point_query;
      store_batch;
      checkpoint;
      checksum;
    ]

(* The same checkpoint on an engine whose durable registry holds 2000
   idempotency tokens, shaped like the served workload's (["s<session>:
   qs-batch-<n>"] over 32 sessions), and whose 8 dirtying commits each
   carry a fresh one, as every write batch does.  The registry is never
   pruned, so it grows by 8 tokens per run: this test runs a fixed sample
   schedule (20 samples, 210 runs, ending at 3680 tokens) rather than a
   time quota, so every build measures the same registry sizes. *)
let token_checkpoint_test () =
  let open Bechamel in
  let db = Sloth_storage.Database.create () in
  Sloth_workload.Tpcc.populate db;
  Sloth_storage.Database.enable_durability ~checkpoint_every:0
    ~wal:(Sloth_storage.Wal.mem ()) ~checkpoint:(Sloth_storage.Wal.mem ()) db;
  let next = ref 0 in
  let commit stmt =
    let token = Printf.sprintf "s%d:qs-batch-%d" (!next mod 32) (!next / 32) in
    incr next;
    Sloth_storage.Database.atomically ~token db (fun () ->
        ignore (Sloth_storage.Database.exec db stmt))
  in
  let updates =
    Array.init 24 (fun i ->
        Sloth_sql.Parser.parse
          (Printf.sprintf "UPDATE tpcc_customer SET id = id WHERE id = %d"
             ((i * 97 mod 1200) + 1)))
  in
  for i = 1 to 2000 do
    commit updates.(i mod Array.length updates)
  done;
  Sloth_storage.Database.checkpoint_now db;
  Test.make_grouped ~name:"sloth"
    [
      Test.make ~name:"checkpoint (TPC-C, 8 commits dirty, 2000 tokens)"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               commit updates.(!next mod Array.length updates)
             done;
             Sloth_storage.Database.checkpoint_now db));
    ]

let micro () =
  Report.section "Microbenchmarks (real wall-clock, Bechamel)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let fixed =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 60.) ~stabilize:true ()
  in
  let results =
    List.concat_map
      (fun (cfg, tests) ->
        let raw = Benchmark.all cfg instances tests in
        List.of_seq (Hashtbl.to_seq (Analyze.all ols (List.hd instances) raw)))
      [ (cfg, micro_tests ()); (fixed, token_checkpoint_test ()) ]
  in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "  %-40s %10.1f ns/run\n" name ns
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

(* --- dispatch ------------------------------------------------------------ *)

let experiments =
  [
    ("fig5", Page_experiments.fig5);
    ("fig6", Page_experiments.fig6);
    ("fig7", Throughput.fig7);
    ("fig8", Page_experiments.fig8);
    ("fig9", Page_experiments.fig9);
    ("fig10", Db_scaling.fig10);
    ("fig11", Analysis_stats.fig11);
    ("fig12", Ablation.fig12);
    ("fig13", Overhead.fig13);
    ("prefetch", Baselines.prefetch_compare);
    ("policies", Baselines.flush_policies);
    ("chaos", Chaos.chaos);
    ("recovery", fun () -> Recovery.recovery ~json:"BENCH_recovery.json" ());
    ("failover", fun () -> Failover.failover ~json:"BENCH_failover.json" ());
    ( "sharding",
      fun () ->
        Sharding.sharding ~replicas_per_shard:0 ~json:"BENCH_sharding.json" ()
    );
    ( "repl-shard",
      fun () ->
        Sharding.sharding ~replicas_per_shard:2
          ~json:"BENCH_repl_sharding.json" () );
    ( "throughput",
      fun () -> Throughput.served ~json:"BENCH_throughput.json" () );
    ("planner", fun () -> Planner_bench.planner ~json:"BENCH_planner.json" ());
    ("mqo", fun () -> Mqo_bench.mqo ~json:"BENCH_mqo.json" ());
    ("graph", fun () -> Graph_bench.graph ~json:"BENCH_graph.json" ());
    ("appendix", Page_experiments.appendix);
    ("micro", micro);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let faults = ref None in
  let crash = ref None in
  let checkpoint_every = ref None in
  let rec strip = function
    | [] -> []
    | [ "--faults" ] ->
        prerr_endline "--faults needs a numeric rate";
        exit 1
    | "--faults" :: r :: rest -> (
        match float_of_string_opt r with
        | Some v ->
            faults := Some v;
            strip rest
        | None ->
            prerr_endline "--faults needs a numeric rate";
            exit 1)
    | [ "--crash" ] ->
        prerr_endline "--crash needs a numeric rate";
        exit 1
    | "--crash" :: r :: rest -> (
        match float_of_string_opt r with
        | Some v ->
            crash := Some v;
            strip rest
        | None ->
            prerr_endline "--crash needs a numeric rate";
            exit 1)
    | [ "--checkpoint-every" ] ->
        prerr_endline "--checkpoint-every needs an integer";
        exit 1
    | "--checkpoint-every" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v ->
            checkpoint_every := Some v;
            strip rest
        | None ->
            prerr_endline "--checkpoint-every needs an integer";
            exit 1)
    | x :: rest -> x :: strip rest
  in
  let names = strip args in
  let requested =
    match (names, !faults, !crash) with
    | [], Some _, _ | [], _, Some _ ->
        [] (* a knob alone: just its tracked summary *)
    | [], None, None ->
        (* `recovery`, `failover`, `sharding`, `repl-shard`, `throughput`,
           `mqo` and `graph` are opt-in: the default run's output must not
           change when those subsystems are idle *)
        List.filter
          (fun n ->
            n <> "recovery" && n <> "failover" && n <> "sharding"
            && n <> "repl-shard" && n <> "throughput" && n <> "mqo"
            && n <> "graph")
          (List.map fst experiments)
    | names, _, _ -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Option.iter (fun rate -> Chaos.tracked ~rate ()) !faults;
  Option.iter
    (fun rate -> Recovery.tracked ~crash:rate ?checkpoint_every:!checkpoint_every ())
    !crash
