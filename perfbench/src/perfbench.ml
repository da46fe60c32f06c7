(* Wall-clock benchmark entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (pages, served or sharded), checks its outputs,
   and prints one JSON object as the last line of standard output: the
   end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
   A traced run also writes its spans, tab-separated, to
   perfbench/NAME.spans under the working directory. *)

open Bench

let end_to_end (r : report) =
  [
    ("setup_s", Samples.median setups, "s");
    ("op_us_p50", Samples.median r.ops.op_us, "us");
    ("op_us_p99", Samples.percentile r.ops.op_us 0.99, "us");
    ("ops_per_s", r.ops_per_s, "1/s");
    ("virtual_ms_p50", Samples.median r.ops.virtual_ms, "vms");
    ("virtual_ms_p99", Samples.percentile r.ops.virtual_ms 0.99, "vms");
    ("round_trips_per_op", per r.ops.window_ops (float_of_int r.ops.trips), "count");
    ("eager_op_us_p50", Samples.median r.ops.eager_us, "us");
    ( "op_vs_eager_p50",
      Samples.median r.ops.op_us /. Samples.median r.ops.eager_us,
      "ratio" );
    ( "heap_peak_mb",
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words
      *. float_of_int (Sys.word_size / 8)
      /. 1048576.0,
      "MB" );
  ]

let workloads =
  [
    ("pages", Pages.run);
    ("served", Served.run);
    ("sharded", Sharded.run);
  ]

(* JSON has no NaN or infinity; a run that produced one is not correct. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pages|served|sharded");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let st = { seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  let r = run st in
  if st.trace then Trace.write (Printf.sprintf "perfbench/%s.spans" !workload);
  let metrics =
    if st.trace then List.map (fun (n, v) -> (n, v, Layers.unit_of n)) r.layers
    else end_to_end r
  in
  let correct =
    r.checks_ok && r.ops.failed = 0 && r.ops.attempted > 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.ops.attempted r.ops.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number v) u)
          metrics))
