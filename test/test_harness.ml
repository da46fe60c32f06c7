(* Tests for the experiment harness: statistics helpers, the runner's
   bookkeeping, the throughput simulation's qualitative behaviour, and the
   layout of the BENCH JSON emitter. *)

module Cdf = Sloth_harness.Cdf
module Runner = Sloth_harness.Runner
module Throughput = Sloth_harness.Throughput
module Page = Sloth_web.Page
module Report = Sloth_harness.Report

let feq = Alcotest.(check (float 1e-9))

let test_percentiles () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  feq "min" 1.0 (Cdf.percentile xs 0.0);
  feq "max" 4.0 (Cdf.percentile xs 100.0);
  feq "median interpolated" 2.5 (Cdf.median xs);
  feq "p25" 1.75 (Cdf.percentile xs 25.0);
  feq "mean" 2.5 (Cdf.mean xs);
  feq "single" 7.0 (Cdf.median [ 7.0 ]);
  match Cdf.median [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected error on empty sample"

let test_cdf_points () =
  let pts = Cdf.cdf_points ~points:4 [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "4 points" 4 (List.length pts);
  feq "last point is max" 4.0 (snd (List.nth pts 3));
  Alcotest.(check bool) "monotone" true
    (let vs = List.map snd pts in
     List.sort compare vs = vs)

let test_runner_single_page () =
  let db = Runner.prepare Sloth_workload.App_sig.tracker in
  let r = Runner.run_page ~db ~rtt_ms:0.5 Sloth_workload.App_sig.tracker "help" in
  Alcotest.(check string) "page name" "help" r.page;
  Alcotest.(check bool) "html equal" true
    (String.equal r.original.Page.html r.sloth.Page.html);
  Alcotest.(check bool) "speedup positive" true (Runner.speedup r > 0.0);
  Alcotest.(check bool) "sloth fewer trips" true
    (r.sloth.Page.round_trips < r.original.Page.round_trips)

let test_rtt_scaling_monotone () =
  (* Higher RTT must increase the speedup of a batching page. *)
  let db = Runner.prepare Sloth_workload.App_sig.tracker in
  let run rtt_ms =
    Runner.speedup
      (Runner.run_page ~db ~rtt_ms Sloth_workload.App_sig.tracker
         "list_projects")
  in
  let s1 = run 0.5 and s2 = run 2.0 and s3 = run 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.2f < %.2f < %.2f" s1 s2 s3)
    true
    (s1 < s2 && s2 < s3)

let profile ~cpu ~latency ~db ~trips =
  {
    Throughput.cpu_ms = cpu;
    latency_ms = latency;
    db_ms = db;
    trips;
    inflation_per_client = 0.001;
  }

let test_throughput_rises_with_clients () =
  let p = profile ~cpu:10.0 ~latency:40.0 ~db:3.0 ~trips:20 in
  let t10 = Throughput.simulate p ~clients:10 in
  let t50 = Throughput.simulate p ~clients:50 in
  Alcotest.(check bool)
    (Printf.sprintf "rising region: %.1f < %.1f" t10 t50)
    true (t10 < t50)

let test_throughput_saturates () =
  let p = profile ~cpu:20.0 ~latency:30.0 ~db:3.0 ~trips:20 in
  let t200 = Throughput.simulate p ~clients:200 in
  let t600 = Throughput.simulate p ~clients:600 in
  (* Past saturation, inflation reduces throughput. *)
  Alcotest.(check bool)
    (Printf.sprintf "decline: %.1f >= %.1f" t200 t600)
    true (t200 >= t600)

let test_fewer_trips_higher_peak () =
  let slow = profile ~cpu:20.0 ~latency:40.0 ~db:4.0 ~trips:60 in
  let fast = profile ~cpu:14.0 ~latency:40.0 ~db:3.0 ~trips:15 in
  let peak p =
    List.fold_left
      (fun acc c -> Float.max acc (Throughput.simulate p ~clients:c))
      0.0 [ 50; 100; 200; 400 ]
  in
  Alcotest.(check bool) "batching build peaks higher" true
    (peak fast > peak slow)

(* The committed BENCH files are compared byte for byte, so the emitter's
   layout is pinned exactly: top-level keys one per line, a top-level list
   one element per line, everything nested inline. *)
let test_json_layout () =
  let got =
    Report.(
      json_to_string
        [
          ("experiment", String "layout");
          ("n", Int (-3));
          ("f1", Float (1, 2.26));
          ("f2", Float (2, 3.14159));
          ("f4", Float (4, 1.0 /. 3.0));
          ("f6", Float (6, 12.0));
          ("ok", Bool false);
          ( "cells",
            List
              [
                Obj [ ("a", Int 1); ("ok", Bool true) ];
                Obj [ ("s", String "x\"y"); ("xs", List [ Int 1; Int 2 ]) ];
              ] );
          ( "served",
            Obj [ ("inner", Obj [ ("r", Float (2, 1.5)) ]); ("k", Int 0) ] );
        ])
  in
  Alcotest.(check string)
    "layout"
    "{\n\
    \  \"experiment\": \"layout\",\n\
    \  \"n\": -3,\n\
    \  \"f1\": 2.3,\n\
    \  \"f2\": 3.14,\n\
    \  \"f4\": 0.3333,\n\
    \  \"f6\": 12.000000,\n\
    \  \"ok\": false,\n\
    \  \"cells\": [\n\
    \    {\"a\": 1, \"ok\": true},\n\
    \    {\"s\": \"x\\\"y\", \"xs\": [1, 2]}\n\
    \  ],\n\
    \  \"served\": {\"inner\": {\"r\": 1.50}, \"k\": 0}\n\
     }\n"
    got

let () =
  Alcotest.run "harness"
    [
      ( "cdf",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "cdf points" `Quick test_cdf_points;
        ] );
      ( "runner",
        [
          Alcotest.test_case "single page" `Quick test_runner_single_page;
          Alcotest.test_case "rtt scaling" `Quick test_rtt_scaling_monotone;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "rises" `Quick test_throughput_rises_with_clients;
          Alcotest.test_case "saturates" `Quick test_throughput_saturates;
          Alcotest.test_case "fewer trips, higher peak" `Quick
            test_fewer_trips_higher_peak;
        ] );
      ("report", [ Alcotest.test_case "json layout" `Quick test_json_layout ]);
    ]
