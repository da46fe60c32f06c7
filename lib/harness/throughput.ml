module Des = Sloth_net.Des
module Page = Sloth_web.Page
module Adm = Sloth_server.Admission
module Session = Sloth_driver.Session
module Value = Sloth_storage.Value
module Rs = Sloth_storage.Result_set
module Db = Sloth_storage.Database

type profile = {
  cpu_ms : float;
  latency_ms : float;
  db_ms : float;
  trips : int;
  inflation_per_client : float;
      (** per-page CPU growth with population: context switches for both
          builds, plus thunk/GC pressure for the Sloth build — the paper's
          explanation of the post-peak decline *)
}

(* The share of app-server wall time actually spent on-CPU, and the CPU
   cost of putting a worker thread to sleep and waking it per round trip. *)
let cpu_fraction = 0.15
let per_trip_cpu_ms = 0.35

let profile_of_runs ~mode runs =
  let n = float_of_int (List.length runs) in
  let pick (r : Runner.page_run) =
    match mode with `Original -> r.original | `Sloth -> r.sloth
  in
  let avg f = List.fold_left (fun acc r -> acc +. f (pick r)) 0.0 runs /. n in
  let app = avg (fun m -> m.Page.app_ms) in
  let trips = avg (fun m -> float_of_int m.Page.round_trips) in
  {
    cpu_ms = (cpu_fraction *. app) +. (per_trip_cpu_ms *. trips);
    latency_ms = (1.0 -. cpu_fraction) *. app;
    db_ms = avg (fun m -> m.Page.db_ms);
    trips = int_of_float (Float.round trips);
    inflation_per_client =
      (match mode with `Original -> 0.0007 | `Sloth -> 0.0013);
  }

let think_time_ms = 200.0

let simulate ?(cores = 8) ?(rtt_ms = 0.5) ?inflation_per_client profile
    ~clients =
  let inflation_per_client =
    Option.value inflation_per_client ~default:profile.inflation_per_client
  in
  let sim = Des.create () in
  let cpu = Des.Resource.create sim ~servers:cores in
  let db = Des.Resource.create sim ~servers:12 in
  let warmup = 2_000.0 and window = 20_000.0 in
  let completed = ref 0 in
  let inflation = 1.0 +. (inflation_per_client *. float_of_int clients) in
  let cpu_slice =
    inflation *. profile.cpu_ms /. float_of_int (profile.trips + 1)
  in
  let latency_slice = profile.latency_ms /. float_of_int (profile.trips + 1) in
  let db_slice = profile.db_ms /. float_of_int (max 1 profile.trips) in
  let rec page_loop () =
    (* Alternate CPU/latency slices with round trips, then start over. *)
    let rec trip k i =
      if i >= profile.trips then k ()
      else
        Des.Resource.with_service cpu cpu_slice (fun () ->
            Des.delay sim latency_slice (fun () ->
                Des.delay sim rtt_ms (fun () ->
                    Des.Resource.with_service db db_slice (fun () ->
                        trip k (i + 1)))))
    in
    trip
      (fun () ->
        Des.Resource.with_service cpu cpu_slice (fun () ->
            Des.delay sim latency_slice (fun () ->
                let t = Des.now sim in
                if t >= warmup && t < warmup +. window then incr completed;
                Des.delay sim think_time_ms page_loop)))
      0
  in
  (* Stagger client start-up so identical clients do not run in lockstep. *)
  for c = 0 to clients - 1 do
    Des.at sim (float_of_int c *. 0.37) page_loop
  done;
  Des.run sim ~until:(warmup +. window);
  float_of_int !completed /. (window /. 1000.0)

let client_counts = [ 10; 25; 50; 75; 100; 150; 200; 300; 400; 500; 600 ]

let fig7 () =
  Report.section "Fig 7: throughput vs number of clients (medrec pages)";
  let runs =
    Page_experiments.runs Sloth_workload.App_sig.medrec ~rtt_ms:0.5
  in
  let original = profile_of_runs ~mode:`Original runs in
  let sloth = profile_of_runs ~mode:`Sloth runs in
  Printf.printf
    "  profiles: original cpu %.1f ms, wait %.1f ms, db %.1f ms, %d trips\n"
    original.cpu_ms original.latency_ms original.db_ms original.trips;
  Printf.printf
    "            sloth    cpu %.1f ms, wait %.1f ms, db %.1f ms, %d trips\n"
    sloth.cpu_ms sloth.latency_ms sloth.db_ms sloth.trips;
  let rows =
    List.map
      (fun clients ->
        let o = simulate original ~clients in
        let s = simulate sloth ~clients in
        (clients, o, s))
      client_counts
  in
  Report.table
    ~header:[ "clients"; "original (page/s)"; "sloth (page/s)" ]
    (List.map
       (fun (c, o, s) ->
         [ string_of_int c; Printf.sprintf "%.1f" o; Printf.sprintf "%.1f" s ])
       rows);
  let peak sel = List.fold_left (fun acc r -> Float.max acc (sel r)) 0.0 rows in
  let peak_o = peak (fun (_, o, _) -> o) in
  let peak_s = peak (fun (_, _, s) -> s) in
  Printf.printf "\n  peak throughput: original %.1f, sloth %.1f (%.2fx)\n"
    peak_o peak_s (peak_s /. peak_o)

(* --- served throughput: real interleaved sessions through the DES -------- *)

(* Where [fig7] models concurrency analytically (CPU/latency slices derived
   from page profiles), this experiment actually executes it: N closed-loop
   client sessions submit read batches to a [Sloth_server.Admission.t]
   through non-blocking submit/await futures, and the only difference
   between the two arms is whether the admission layer may coalesce reads
   across sessions.  Every (client, iteration) issues the same statements
   in both arms, so the result sets must be identical — the arms differ in
   rows scanned and latency only. *)

let served_scale = 10 (* person table: 150 * scale rows *)
let served_iters = 40 (* batches per client *)
let served_window_ms = 2.0
let served_rtt_ms = 0.5
let served_think_base_ms = 12.0
let served_think_spread_ms = 12.0
let served_client_counts = [ 1; 2; 4; 8; 16; 32; 64 ]

(* The per-client workload: mostly dashboard batches (unindexed aggregates
   over the hot [person] table — bare sequential scans that can be shared,
   plus a conjunct-reordered duplicate that normalized dedup collapses),
   leavened with per-client point lookups that nobody can share. *)
let served_batch rng client =
  let point () =
    let id () = 1 + Random.State.int rng (150 * served_scale) in
    [
      Printf.sprintf "SELECT * FROM person WHERE id = %d" (id ());
      Printf.sprintf "SELECT * FROM person WHERE id = %d" (id ());
    ]
  in
  let dashboards =
    [|
      [
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'F'";
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'M'";
        "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
      ];
      [
        "SELECT COUNT(*) AS n FROM person WHERE birth_year < 1960";
        "SELECT COUNT(*) AS n FROM person WHERE gender = 'F' AND birth_year = 1990";
        "SELECT COUNT(*) AS n FROM person WHERE birth_year = 1990 AND gender = 'F'";
      ];
      [
        "SELECT COUNT(*) AS n FROM person";
        "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
        Printf.sprintf
          "SELECT COUNT(*) AS n FROM person WHERE birth_year > %d"
          (1990 + (client mod 5));
      ];
    |]
  in
  match Random.State.int rng 4 with
  | 0 -> point ()
  | k -> dashboards.(k - 1)

let digest_of_reply = function
  | Error msg -> "error:" ^ msg
  | Ok outs ->
      let b = Buffer.create 256 in
      List.iter
        (fun (o : Db.outcome) ->
          Buffer.add_string b (String.concat "," (Rs.columns o.rs));
          List.iter
            (fun row ->
              Buffer.add_char b ';';
              Array.iter
                (fun v ->
                  Buffer.add_char b '|';
                  Buffer.add_string b (Value.to_string v))
                row)
            (Rs.rows o.rs);
          Buffer.add_string b (Printf.sprintf "!%d" o.rows_affected))
        outs;
      Digest.to_hex (Digest.string (Buffer.contents b))

type served_run = {
  sv_clients : int;
  sv_shared : bool;
  sv_batches : int;
  sv_errors : int;
  sv_rows_scanned : int;
  sv_zero_scan : int;
  sv_flushes : int;
  sv_max_flush : int;
  sv_mean_ms : float;
  sv_p95_ms : float;
  sv_batches_per_s : float;
  sv_digests : (int * int, string) Hashtbl.t;
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      sorted.(max 0 (min (n - 1) idx))

let run_served ~db ~clients ~share =
  let sim = Des.create () in
  let server =
    Adm.create ~sim ~db ~window_ms:served_window_ms ~share ()
  in
  let digests = Hashtbl.create (clients * served_iters) in
  let sessions =
    List.init clients (fun _ -> Session.connect ~rtt_ms:served_rtt_ms server)
  in
  List.iteri
    (fun c ses ->
      let rng = Random.State.make [| 0x5e55; c |] in
      let rec loop iter =
        if iter < served_iters then begin
          let stmts = served_batch rng c in
          let h = Session.submit_sql ses stmts in
          Session.await h (fun r ->
              Hashtbl.replace digests (c, iter) (digest_of_reply r);
              let think =
                served_think_base_ms
                +. Random.State.float rng served_think_spread_ms
              in
              Des.delay sim think (fun () -> loop (iter + 1)))
        end
      in
      (* stagger start-up so identical clients do not run in lockstep *)
      Des.at sim (0.37 *. float_of_int c) (fun () -> loop 0))
    sessions;
  Des.run sim ~until:Float.infinity;
  let stats = Adm.stats server in
  let lats =
    Array.of_list (List.concat_map Session.latencies sessions)
  in
  Array.sort compare lats;
  let n = Array.length lats in
  let mean =
    if n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int n
  in
  let completed = List.fold_left (fun a s -> a + Session.completed s) 0 sessions in
  let errors = List.fold_left (fun a s -> a + Session.errors s) 0 sessions in
  let elapsed = Des.now sim in
  {
    sv_clients = clients;
    sv_shared = share;
    sv_batches = completed;
    sv_errors = errors;
    sv_rows_scanned = stats.Adm.rows_scanned;
    sv_zero_scan = stats.Adm.zero_scan_reads;
    sv_flushes = stats.Adm.flushes;
    sv_max_flush = stats.Adm.max_flush;
    sv_mean_ms = mean;
    sv_p95_ms = percentile lats 0.95;
    sv_batches_per_s =
      (if elapsed <= 0.0 then 0.0
       else float_of_int completed /. (elapsed /. 1000.0));
    sv_digests = digests;
  }

let digests_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

let served_row (shr, unshr) =
  [
    string_of_int shr.sv_clients;
    string_of_int shr.sv_batches;
    string_of_int unshr.sv_rows_scanned;
    string_of_int shr.sv_rows_scanned;
    Printf.sprintf "%.1f%%"
      (if unshr.sv_rows_scanned = 0 then 0.0
       else
         100.0
         *. float_of_int (unshr.sv_rows_scanned - shr.sv_rows_scanned)
         /. float_of_int unshr.sv_rows_scanned);
    Printf.sprintf "%.2f" unshr.sv_mean_ms;
    Printf.sprintf "%.2f" shr.sv_mean_ms;
    Printf.sprintf "%.2f" shr.sv_p95_ms;
    Printf.sprintf "%.0f" shr.sv_batches_per_s;
    string_of_int shr.sv_flushes;
    string_of_int shr.sv_max_flush;
    string_of_bool (digests_equal shr.sv_digests unshr.sv_digests);
  ]

let served_json ~pairs ~analytic ~identical =
  let cell r =
    Report.Obj
      [
        ("clients", Int r.sv_clients);
        ("mode", String (if r.sv_shared then "shared" else "unshared"));
        ("batches", Int r.sv_batches);
        ("errors", Int r.sv_errors);
        ("rows_scanned", Int r.sv_rows_scanned);
        ("zero_scan_reads", Int r.sv_zero_scan);
        ("flushes", Int r.sv_flushes);
        ("max_flush", Int r.sv_max_flush);
        ("mean_latency_ms", Float (4, r.sv_mean_ms));
        ("p95_latency_ms", Float (4, r.sv_p95_ms));
        ("batches_per_s", Float (2, r.sv_batches_per_s));
      ]
  in
  let saved_at_8 =
    List.fold_left
      (fun acc (shr, unshr) ->
        if shr.sv_clients >= 8 then
          acc + (unshr.sv_rows_scanned - shr.sv_rows_scanned)
        else acc)
      0 pairs
  in
  [
    ("experiment", Report.String "throughput");
    ( "served",
      List
        (List.concat_map (fun (shr, unshr) -> [ cell unshr; cell shr ]) pairs)
    );
    ( "analytic",
      List
        (List.map
           (fun (clients, o, s) ->
             Report.Obj
               [
                 ("clients", Int clients);
                 ("original_pages_s", Float (1, o));
                 ("sloth_pages_s", Float (1, s));
               ])
           analytic) );
    ("rows_scanned_saved_at_8_plus", Int saved_at_8);
    ("results_identical", Bool identical);
  ]

let served ?json () =
  Report.section
    "Throughput (served): N real sessions, cross-client shared scans";
  Printf.printf
    "  (closed-loop clients submit dashboard read batches through \
     non-blocking sessions;\n\
    \   the admission layer coalesces reads arriving within %.1f ms and \
     executes them as one\n\
    \   multi-query group — 'unshared' runs the same schedule without \
     cross-client sharing)\n"
    served_window_ms;
  (* The workload is read-only, so one database serves every run. *)
  let db =
    Runner.prepare ~scale:served_scale Sloth_workload.App_sig.medrec
  in
  let pairs =
    List.map
      (fun clients ->
        let shr = run_served ~db ~clients ~share:true in
        let unshr = run_served ~db ~clients ~share:false in
        (shr, unshr))
      served_client_counts
  in
  Report.table
    ~header:
      [
        "clients"; "batches"; "scanned unshared"; "scanned shared"; "saved";
        "lat unshared"; "lat shared"; "p95 shared"; "batch/s"; "flushes";
        "max flush"; "identical";
      ]
    (List.map served_row pairs);
  let identical =
    List.for_all
      (fun (shr, unshr) -> digests_equal shr.sv_digests unshr.sv_digests)
      pairs
  in
  let reduced_at_8 =
    List.for_all
      (fun (shr, unshr) ->
        shr.sv_clients < 8 || shr.sv_rows_scanned < unshr.sv_rows_scanned)
      pairs
  in
  Printf.printf
    "\n  results identical in both arms: %b; sharing strictly reduces rows \
     scanned at >= 8 clients: %b\n"
    identical reduced_at_8;
  (* The pre-existing analytic model, kept as the comparison curve. *)
  let runs =
    Page_experiments.runs Sloth_workload.App_sig.medrec ~rtt_ms:0.5
  in
  let original = profile_of_runs ~mode:`Original runs in
  let sloth = profile_of_runs ~mode:`Sloth runs in
  let analytic =
    List.map
      (fun clients ->
        (clients, simulate original ~clients, simulate sloth ~clients))
      served_client_counts
  in
  Report.subsection "analytic model at the same client counts (pages/s)";
  Report.table
    ~header:[ "clients"; "original"; "sloth" ]
    (List.map
       (fun (c, o, s) ->
         [ string_of_int c; Printf.sprintf "%.1f" o; Printf.sprintf "%.1f" s ])
       analytic);
  Report.write_json json (served_json ~pairs ~analytic ~identical)
