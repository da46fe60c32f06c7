(* sharded: TPC-C kernel programs, whose results are consumed at once, run
   under [Lazy_eval] (all optimizations) through
   [Connection.create_sharded] on a two-shard router with one replica per
   shard and its default checkpointing.  Each op runs again under
   [Standard] on a single engine seeded with the same SQL, and the
   outputs must be equal; at the end of every epoch [Shard.audit] must be
   clean and the router must hold the engine's data. *)

open Bench
module Ast = Sloth_sql.Ast
module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Schema = Sloth_storage.Schema
module Table = Sloth_storage.Table
module Value = Sloth_storage.Value
module Conn = Sloth_driver.Connection
module Link = Sloth_net.Link
module Stats = Sloth_net.Stats
module Vclock = Sloth_net.Vclock
module Qs = Sloth_core.Query_store
module Runtime = Sloth_core.Runtime
module Tpcc = Sloth_workload.Tpcc

let rtt_ms = 0.5

(* --- the op stream ------------------------------------------------------ *)

(* The TPC-C transactions of one round, in the mix of the TPC-C standard
   specification (revision 5.11, clause 5.2.3): at least 43 % payment and
   4 % each of order status, delivery and stock level, new order the rest.
   Rounded to a round of 25: 11 new order, 11 payment, 1 of each other. *)
let tpcc_mix =
  [
    ("New order", 11); ("Payment", 11); ("Order status", 1); ("Delivery", 1);
    ("Stock level", 1);
  ]

let tpcc_per_round = List.fold_left (fun n (_, k) -> n + k) 0 tpcc_mix

(* Round [r]: the TPC-C transactions, shuffled.  Program seeds are
   distinct across the run (the programs derive inserted keys from them)
   and offset by the workload seed; programs are built here, outside any
   timing. *)
let stream ~seed r =
  let rng = Random.State.make [| seed; r; 0x01f9 |] in
  let base = ((1 + (seed land 0xffff)) * 1_000_000) + ((r + 1) * 64) in
  let names = List.concat_map (fun (name, k) -> List.init k (fun _ -> name)) tpcc_mix in
  let ops =
    Array.of_list
      (List.mapi
         (fun i name -> (name, (List.assoc name Tpcc.transactions) ~seed:(base + i)))
         names)
  in
  for i = Array.length ops - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  Array.to_list ops

(* --- deployments -------------------------------------------------------- *)

(* A deployment side: a link and a connection.  The Sloth side also keeps
   one query store for the deployment.  A query store numbers its
   write-batch idempotency tokens itself, from 0, and a durable deployment
   remembers every token it committed; a fresh store per op would reuse
   tokens already seen, and those writes would be acknowledged without
   being applied. *)
type side = { clock : Vclock.t; link : Link.t; conn : Conn.t; store : Qs.t }

let side connect =
  let clock = Vclock.create () in
  let link = Link.create ~rtt_ms clock in
  let conn = connect link in
  { clock; link; conn; store = Qs.create conn }

(* The TPC-C database as SQL: CREATE TABLE statements, the indexes (which
   have no SQL form) and one INSERT per row.  Routers are seeded through
   themselves with it, and so are the engines they are checked against. *)
let seed_script =
  lazy
    (let db = Db.create () in
     Tpcc.populate ~scale:1 db;
     let tables =
       List.filter_map
         (fun name -> Option.map (fun t -> (name, t)) (Db.table db name))
         (Db.table_names db)
     in
     let lit = function
       | Value.Int i -> Ast.L_int i
       | Value.Float f -> Ast.L_float f
       | Value.Text s -> Ast.L_string s
       | Value.Bool b -> Ast.L_bool b
       | Value.Null -> Ast.L_null
     in
     let sql = Sloth_sql.Printer.to_string in
     let ddl =
       List.map
         (fun (table, t) ->
           let sch = Table.schema t in
           sql
             (Ast.Create_table
                {
                  table;
                  columns =
                    List.map
                      (fun (c : Schema.column) ->
                        {
                          Ast.cd_name = c.name;
                          cd_type = c.ty;
                          cd_nullable = c.nullable;
                        })
                      (Schema.columns sch);
                  primary_key = Schema.primary_key sch;
                }))
         tables
     in
     let indexes =
       List.concat_map
         (fun (table, t) ->
           List.map (fun c -> (table, c, false)) (Table.secondary_columns t)
           @ List.map (fun c -> (table, c, true)) (Table.ordered_columns t))
         tables
     in
     let rows =
       List.concat_map
         (fun (table, t) ->
           let columns =
             List.map (fun (c : Schema.column) -> c.name) (Schema.columns (Table.schema t))
           in
           let acc = ref [] in
           Table.iter
             (fun _ row ->
               let row = Array.to_list (Array.map (fun v -> Ast.Lit (lit v)) row) in
               acc := sql (Ast.Insert { table; columns; rows = [ row ] }) :: !acc)
             t;
           List.rev !acc)
         tables
     in
     (ddl, indexes, rows))

let seed ~exec ~index ~ordered =
  let ddl, indexes, rows = Lazy.force seed_script in
  List.iter exec ddl;
  List.iter
    (fun (table, column, o) ->
      if o then ordered ~table ~column else index ~table ~column)
    indexes;
  List.iter exec rows

(* A single engine seeded like the router; [durable] gives it a WAL with
   checkpoints left to the caller. *)
let seeded_db ?(durable = false) () =
  let db = Db.create () in
  if durable then
    Db.enable_durability ~checkpoint_every:0 ~wal:(Sloth_storage.Wal.mem ())
      ~checkpoint:(Sloth_storage.Wal.mem ()) db;
  seed
    ~exec:(fun s -> ignore (Db.exec_sql db s))
    ~index:(Db.create_index db) ~ordered:(Db.create_ordered_index db);
  if durable then Db.checkpoint_now db;
  db

let seeded_router () =
  let sh = Shard.create ~shards:2 ~replicas_per_shard:1 () in
  seed
    ~exec:(fun s -> ignore (Shard.exec_sql sh s))
    ~index:(Shard.create_index sh) ~ordered:(Shard.create_ordered_index sh);
  sh

(* --- running ------------------------------------------------------------ *)

type deployment = {
  router : Shard.t;
  sloth : side;  (** the Sloth build, through the router *)
  ref_db : Db.t;  (** the original build's single engine *)
  reference : side;
}

let deploy () =
  let router = seeded_router () and ref_db = seeded_db () in
  {
    router;
    sloth = side (Conn.create_sharded router);
    ref_db;
    reference = side (Conn.create ref_db);
  }

type op_out = {
  output : string list;
  vms : float;
  trips : int;
  queries : int;
  bytes : int;
  allocs : int;
  forces : int;
}

(* One program under [Lazy_eval]. *)
let run_lazy (s : side) ?capture prog =
  Vclock.reset s.clock;
  Stats.reset (Link.stats s.link);
  Runtime.reset ();
  Runtime.set_clock (Some s.clock);
  let store = s.store in
  Qs.set_tracer store (Option.map Capture.tracer capture);
  let output =
    Fun.protect
      ~finally:(fun () -> Runtime.set_clock None)
      (fun () ->
        Trace.span Trace.kernel (fun () ->
            let r =
              Sloth_kernel.Lazy_eval.run ~opts:Sloth_kernel.Lazy_eval.all_opts
                prog store
            in
            Qs.flush store;
            r.output))
  in
  let st = Link.stats s.link in
  {
    output;
    vms = Vclock.total s.clock;
    trips = Stats.round_trips st;
    queries = Stats.queries st;
    bytes = Stats.bytes st;
    allocs = Runtime.allocs ();
    forces = Runtime.forces ();
  }

let run_standard (s : side) prog =
  (Sloth_kernel.Standard.run prog s.conn).output

let window_ops = 1000

(* Rounds per epoch: 250 transactions, a quarter of the count window. *)
let epoch_rounds = 10

(* A sharded deployment returns the rows of an unsorted cross-shard read in
   shard-concatenation order, equal to a single engine's only as a
   multiset (see [Shard]); its output is compared as one. *)
let same_output a b = List.sort compare a = List.sort compare b

(* Shard-layer counters, summed over shards and replication groups. *)
let shard_counts sh =
  let s = Shard.stats sh in
  let chunks =
    List.fold_left
      (fun acc i ->
        match Shard.replication sh i with
        | Some r -> acc + (Sloth_storage.Replication.stats r).chunks_shipped
        | None -> acc)
      0
      (List.init (Shard.n_shards sh) Fun.id)
  in
  [|
    s.two_pc_commits; s.one_pc_commits; s.gathered_reads; s.fanout_writes;
    chunks;
  |]

(* The traced run's replay deployment, seeded like the measured one.  It
   starts at the router: a second router behind a [Connection] would add
   another full copy of the shard work to the longest run, to time a
   driver layer that is thin here. *)
let replay_target () =
  Replay.create ~shard:(seeded_router ()) ~checkpoint_every:8
    (seeded_db ~durable:true ())

let run (st : settings) =
  ignore (Lazy.force seed_script);
  let d = ref (first_set_up st ~n:3 deploy) in
  let rp = ref (if st.trace then Some (replay_target ()) else None) in
  let o = ops () in
  let checks_ok = ref true in
  let check () =
    checks_ok :=
      !checks_ok
      && Shard.audit !d.router = []
      && String.equal
           (Shard.logical_fingerprint !d.router)
           (Shard.logical_fingerprint_db !d.ref_db)
  in
  let fresh () =
    check ();
    d := set_up deploy;
    if st.trace then rp := Some (replay_target ())
  in
  let queries = ref 0 and allocs = ref 0 and forces = ref 0 and bytes = ref 0 in
  let shard_window = Array.make 5 0 in
  (* query-store events and replay counters of the count window *)
  let win = Capture.counts () and rest = Capture.counts () in
  let replay_window = Array.make 6 0 in
  let round ph =
    let d = !d and rp = !rp in
    (* The traced run captures every round: replay must see every write to
       stay in step with the measured deployment. *)
    let capture = Option.map (fun _ -> Capture.create ~traced:ph.traced) rp in
    List.iter
      (fun (name, prog) ->
        let before = shard_counts d.router in
        Trace.enabled := ph.traced;
        let res, us =
          timed (fun () ->
              attempt (fun () ->
                  Trace.span Trace.op (fun () -> run_lazy d.sloth ?capture prog)))
        in
        Trace.enabled := false;
        let std, eager_us =
          timed (fun () -> attempt (fun () -> run_standard d.reference prog))
        in
        if ph.measured then begin
          o.attempted <- o.attempted + 1;
          match (res, std) with
          | Ok r, Ok out when same_output r.output out ->
              record o ph ~us ~eager_us ~virtual_ms:r.vms ~trips:r.trips;
              if ph.in_window then begin
                queries := !queries + r.queries;
                allocs := !allocs + r.allocs;
                forces := !forces + r.forces;
                bytes := !bytes + r.bytes;
                Array.iteri
                  (fun i v -> shard_window.(i) <- shard_window.(i) + v - before.(i))
                  (shard_counts d.router)
              end
          | Ok _, Ok _ -> fail o (name ^ ": output differs from the original build")
          | Error e, _ | _, Error e -> fail o (name ^ ": " ^ e)
        end)
      (stream ~seed:st.seed ph.r);
    (* Replay the round right away, so the replay runs on a heap as small
       as the measured ops had. *)
    match (rp, capture) with
    | Some rp, Some c ->
        let snap () =
          [|
            rp.plans; rp.rows_scanned; rp.result_rows; rp.checkpoints;
            rp.wal_bytes; rp.commits;
          |]
        in
        let before = snap () in
        Capture.replay ~parsed_inline:true rp (if ph.in_window then win else rest) c;
        if ph.in_window then
          Array.iteri
            (fun i v -> replay_window.(i) <- replay_window.(i) + v - before.(i))
            (snap ())
    | _ -> ()
  in
  measure st ~window:(window_rounds ~ops:window_ops ~per_round:tpcc_per_round)
    ~epoch:epoch_rounds ~fresh round;
  check ();
  let layers =
    if not st.trace then []
    else
      let per_w v = per o.window_ops (float_of_int v) in
      let w = replay_window in
      Layers.summarize o
        ([
           ("core.thunk_allocs", per_w !allocs);
           ("core.thunk_forces", per_w !forces);
           ("core.queries_registered", per_w win.registered);
           ("core.dedup_hits", per_w win.dedup_hits);
           ("core.batch_size", ratio win.batched win.batches);
           ("driver.stmts_per_trip", ratio !queries o.trips);
           ("driver.bytes", per_w !bytes);
           ("sql.parses", per_w win.registered);
           ("planner.plans", per_w w.(0));
           ("executor.rows_scanned", per_w w.(1));
           ("executor.rows_per_result_row", ratio w.(1) w.(2));
           ("wal.checkpoints", per_w w.(3));
           ("wal.bytes_per_commit", ratio w.(4) w.(5));
         ]
        @ List.mapi
            (fun i n -> (n, per_w shard_window.(i)))
            [
              "shard.two_pc_commits"; "shard.one_pc_commits";
              "shard.gathered_reads"; "shard.fanout_writes";
              "replication.chunks_shipped";
            ])
  in
  report ~checks_ok:!checks_ok ~layers o
