(* The per-layer metrics of the traced run.  Times are self µs per traced
   op; the rest are counts per op over the count window unless the name
   says otherwise.  Every traced run prints every name; a layer a workload
   does not reach reads 0. *)

let times =
  [
    ("kernel.self_us", "kernel");
    ("core.self_us", "core");
    ("orm.self_us", "orm");
    ("web.render_us", "web");
    ("driver.self_us", "driver");
    ("sql.parse_us", "sql.parse");
    ("sql.normalize_us", "sql.normalize");
    ("sql.print_us", "sql.print");
    ("planner.plan_us", "planner");
    ("executor.self_us", "executor");
    ("server.self_us", "server");
    ("wal.checkpoint_us", "wal");
    ("shard.exec_us", "shard");
  ]

let counts =
  [
    "core.thunk_allocs"; "core.thunk_forces"; "core.queries_registered";
    "core.dedup_hits"; "core.batch_size"; "driver.stmts_per_trip";
    "driver.bytes"; "sql.parses"; "planner.plans"; "executor.rows_scanned";
    "executor.rows_per_result_row"; "executor.cache_hit_ratio";
    "executor.cache_invalidations"; "executor.shared_read_share";
    "server.batches_per_flush"; "server.max_flush"; "server.barrier_share";
    "server.retransmits"; "wal.bytes_per_commit"; "wal.checkpoints";
    "shard.two_pc_commits"; "shard.one_pc_commits"; "shard.gathered_reads";
    "shard.fanout_writes"; "replication.chunks_shipped";
  ]

let tracing =
  [
    "trace.op_us_p50"; "trace.untraced_op_us_p50"; "trace.overhead_pct";
    "trace.unattributed_share";
  ]

let names = List.map fst times @ counts @ tracing

let unit_of n =
  if String.ends_with ~suffix:"_us" n || String.ends_with ~suffix:"_p50" n then
    "us"
  else if String.equal n "trace.overhead_pct" then "%"
  else if String.equal n "trace.unattributed_share" then "ratio"
  else if String.equal n "driver.bytes" || String.equal n "wal.bytes_per_commit"
  then "B"
  else "count"

(* The traced-run summary: per-layer self times per traced op, the given
   counts, and the overhead of tracing (traced against untraced rounds).
   The unattributed share is the part of traced op time that no layer's
   self time accounts for. *)
let summarize (o : Bench.ops) counts =
  let self l = Float.max 0.0 (Trace.self l) in
  let attributed = List.fold_left (fun acc (_, l) -> acc +. self l) 0.0 times in
  let t50 = Bench.Samples.median o.traced_us and r50 = Bench.Samples.median o.raw_us in
  let measured =
    List.map (fun (name, l) -> (name, Bench.per o.traced_ops (self l))) times
    @ counts
    @ [
        ("trace.op_us_p50", t50);
        ("trace.untraced_op_us_p50", r50);
        ("trace.overhead_pct", 100.0 *. ((t50 /. r50) -. 1.0));
        ("trace.unattributed_share", (!Trace.root_us -. attributed) /. !Trace.root_us);
      ]
  in
  List.map
    (fun name -> (name, Option.value (List.assoc_opt name measured) ~default:0.0))
    names
