(* served: 32 closed-loop sessions on one admission server, in the shape of
   the served-throughput experiment.  The server fronts a WAL-durable
   medrec engine at scale 10 (1500 person rows) with MQO on and a 64-entry
   result cache.  Sessions think 12-24 ms between batches; 3 batches in 4
   are read dashboards or point reads, and 1 in 8 is a tokened UPDATE of
   one person.

   A round is one DES run on a freshly set-up deployment (an epoch of one
   round, see [Bench.measure]): fresh server and sessions, each session
   submitting [batches_per_session] batches.  Every round
   runs again with cross-client sharing off on an identically seeded
   engine: that is the original build's per-session execution.  After each
   round, the shared arm's execution log is replayed serially on a third
   identically seeded engine, which must reproduce every delivered reply;
   at the end it must hold the same data as the shared arm's engine. *)

open Bench
module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Value = Sloth_storage.Value
module Des = Sloth_net.Des
module Adm = Sloth_server.Admission
module Session = Sloth_driver.Session

let scale = 10
let persons = 150 * scale
let clients = 32
let batches_per_session = 32
let window_ms = 2.0
let rtt_ms = 0.5
let cache_entries = 64
let checkpoint_every = 8

(* The engine every arm and the replay start from.  [auto_checkpoint]
   false leaves checkpoints to the replay, which times them. *)
let engine ?(auto_checkpoint = true) () =
  let db = Db.create () in
  Sloth_workload.Medrec.populate ~scale db;
  Db.enable_durability
    ~checkpoint_every:(if auto_checkpoint then checkpoint_every else 0)
    ~wal:(Sloth_storage.Wal.mem ()) ~checkpoint:(Sloth_storage.Wal.mem ()) db;
  Db.set_mqo db true;
  Db.set_result_cache db (Some cache_entries);
  db

(* One session's next batch, drawn from its own RNG stream. *)
let batch rng client =
  let id () = 1 + Random.State.int rng persons in
  match Random.State.int rng 8 with
  | 0 ->
      ( [
          Printf.sprintf "UPDATE person SET birth_year = %d WHERE id = %d"
            (1930 + Random.State.int rng 80)
            (id ());
        ],
        true )
  | 1 ->
      ( [
          Printf.sprintf "SELECT * FROM person WHERE id = %d" (id ());
          Printf.sprintf "SELECT * FROM person WHERE id = %d" (id ());
        ],
        false )
  | k ->
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
      (dashboards.(k mod 3), false)

let digest (outs : Db.outcome list) =
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
  Digest.string (Buffer.contents b)

type arm = { db : Db.t; share : bool }

type round_out = {
  lat_us : float list;  (** wall-clock submit-to-reply per batch *)
  vms : float list;  (** simulated latency per batch *)
  run_us : float;  (** wall-clock of the DES run *)
  stats : Adm.stats;
  replies : ((int * int) * (Db.outcome list, string) result) list;
  log : Adm.entry list;
  stmts : int;  (** statements submitted *)
  reads : int;  (** read statements submitted *)
}

(* One DES run: [clients] sessions, each with its own RNG stream. *)
let run_round arm ~seed r =
  let sim = Des.create () in
  let server = Adm.create ~sim ~db:arm.db ~window_ms ~share:arm.share () in
  let lat = ref [] and replies = ref [] and stmts = ref 0 and reads = ref 0 in
  let token = ref 0 in
  let sessions = List.init clients (fun _ -> Session.connect ~rtt_ms server) in
  List.iteri
    (fun c ses ->
      let rng = Random.State.make [| seed; r; c |] in
      let rec loop seq =
        if seq < batches_per_session then begin
          let sqls, write = batch rng c in
          stmts := !stmts + List.length sqls;
          if not write then reads := !reads + List.length sqls;
          let tok =
            if write then begin
              incr token;
              Some (Printf.sprintf "r%d-w%d" r !token)
            end
            else None
          in
          let t0 = Trace.now_us () in
          let h =
            Trace.span (Trace.layer "driver") (fun () ->
                Session.submit_sql ses ?token:tok sqls)
          in
          Session.await h (fun reply ->
              lat := (Trace.now_us () -. t0) :: !lat;
              replies := ((Session.id ses, seq), reply) :: !replies;
              Des.delay sim (12.0 +. Random.State.float rng 12.0) (fun () ->
                  loop (seq + 1)))
        end
      in
      (* stagger start-up so identical clients do not run in lockstep *)
      Des.at sim (0.37 *. float_of_int c) (fun () -> loop 0))
    sessions;
  let (), run_us =
    timed (fun () ->
        Trace.span Trace.server (fun () -> Des.run sim ~until:Float.infinity))
  in
  {
    lat_us = !lat;
    vms = List.concat_map Session.latencies sessions;
    run_us;
    stats = Adm.stats server;
    replies = !replies;
    log = Adm.log server;
    stmts = !stmts;
    reads = !reads;
  }

let deploy () =
  ({ db = engine (); share = true }, { db = engine (); share = false })

let window_ops = 1000

(* Replay one round's execution log serially; returns the replies whose
   digest differs from the replay's.  In a traced round, the replayed
   storage time moves out of the server span and the parse time out of
   the submitting driver span. *)
let replay (rp : Replay.t) ~traced (out : round_out) =
  let got = Hashtbl.create 1024 in
  List.iter
    (fun (e : Adm.entry) ->
      if traced then
        List.iter
          (fun stmt ->
            let _, us = Replay.parse rp (Sloth_sql.Printer.to_string stmt) in
            Trace.move ~from:(Trace.layer "driver") ~into:(Trace.layer "sql.parse") us)
          e.e_stmts;
      let parts, outs = Replay.batch rp e.e_stmts in
      if traced then Replay.credit ~from:Trace.server parts;
      Hashtbl.replace got (e.e_session, e.e_seq) (digest outs))
    out.log;
  List.length
    (List.filter
       (fun (k, reply) ->
         match reply with
         | Ok outs -> Hashtbl.find_opt got k <> Some (digest outs)
         | Error _ -> false (* counted as failed anyway *))
       out.replies)

let snap (rp : Replay.t) =
  [| rp.parses; rp.plans; rp.checkpoints; rp.wal_bytes; rp.commits |]

let result_rows (out : round_out) =
  List.fold_left
    (fun acc (_, reply) ->
      match reply with
      | Ok outs ->
          List.fold_left
            (fun a (o : Db.outcome) -> a + List.length (Rs.rows o.rs))
            acc outs
      | Error _ -> acc)
    0 out.replies

let replay_target () =
  Replay.create ~checkpoint_every (engine ~auto_checkpoint:false ())

let run (st : settings) =
  let d = ref (first_set_up st ~n:5 deploy) and rp = ref (replay_target ()) in
  let o = ops () in
  (* the serial replay must hold the shared arm's data *)
  let checks_ok = ref true in
  let check () =
    let shared, _ = !d in
    checks_ok :=
      !checks_ok && String.equal (Db.fingerprint shared.db) (Db.fingerprint !rp.engine)
  in
  let fresh () =
    check ();
    d := set_up deploy;
    rp := replay_target ()
  in
  let batches = ref 0 and run_us = ref 0.0 in
  let win = ref None and window = ref [||] in
  let round ph =
    let (shared, unshared), rp = (!d, !rp) in
    Trace.enabled := ph.traced;
    let out = run_round shared ~seed:st.seed ph.r in
    Trace.enabled := false;
    let base = run_round unshared ~seed:st.seed ph.r in
    let before = snap rp in
    let mismatched = replay rp ~traced:ph.traced out in
    if ph.measured then begin
      let n = List.length out.lat_us in
      batches := !batches + n;
      run_us := !run_us +. out.run_us;
      o.attempted <- o.attempted + n;
      for _ = 1 to mismatched do
        fail o "reply differs from the serial replay"
      done;
      List.iter
        (fun (_, reply) -> match reply with Error e -> fail o e | Ok _ -> ())
        (out.replies @ base.replies);
      List.iter (Samples.add o.op_us) out.lat_us;
      List.iter (Samples.add o.eager_us) base.lat_us;
      if ph.traced then o.traced_ops <- o.traced_ops + n;
      List.iter (Samples.add (if ph.traced then o.traced_us else o.raw_us)) out.lat_us;
      if ph.in_window then begin
        win := Some out;
        window := Array.map2 ( - ) (snap rp) before;
        o.window_ops <- o.window_ops + n;
        List.iter (Samples.add o.virtual_ms) out.vms;
        o.trips <- o.trips + n + out.stats.Adm.retransmits
      end
    end
  in
  measure st
    ~window:(window_rounds ~ops:window_ops ~per_round:(clients * batches_per_session))
    ~epoch:1 ~fresh round;
  check ();
  let layers =
    match (st.trace, !win) with
    | false, _ | _, None -> []
    | true, Some w ->
        let s = w.stats in
        let n = List.length w.lat_us in
        let per_w v = per n (float_of_int v) in
        let rw = !window in
        Layers.summarize o
          [
            ("sql.parses", per_w rw.(0));
            ("planner.plans", per_w rw.(1));
            ("executor.rows_scanned", per_w s.Adm.rows_scanned);
            ("executor.rows_per_result_row", ratio s.Adm.rows_scanned (result_rows w));
            ( "executor.cache_hit_ratio",
              ratio s.cache_hits (s.cache_hits + s.cache_misses) );
            ("executor.cache_invalidations", per_w s.cache_invalidations);
            ("executor.shared_read_share", ratio s.zero_scan_reads w.reads);
            ("server.batches_per_flush", ratio s.read_batches s.flushes);
            ("server.max_flush", float_of_int s.max_flush);
            ("server.barrier_share", ratio (s.batches - s.read_batches) s.batches);
            ("server.retransmits", per_w s.retransmits);
            ("wal.bytes_per_commit", ratio rw.(3) rw.(4));
            ("wal.checkpoints", per_w rw.(2));
          ]
  in
  let ops_per_s = float_of_int !batches /. (!run_us /. 1e6) in
  report ~checks_ok:!checks_ok ~layers ~ops_per_s o
