(* pages: the paper's own workload.  One closed-loop client loads every
   tracker, medrec and graph page (38 + 112 + 8) per round, in an order
   permuted per round from the seed, under the Sloth build; each load is
   followed by the original (eager) build of the same page on an
   identically seeded engine, and the two pages' HTML must be equal. *)

open Bench
module Db = Sloth_storage.Database
module Conn = Sloth_driver.Connection
module Link = Sloth_net.Link
module Stats = Sloth_net.Stats
module Vclock = Sloth_net.Vclock
module Page = Sloth_web.Page
module Qs = Sloth_core.Query_store
module Runtime = Sloth_core.Runtime
module App_sig = Sloth_workload.App_sig

let rtt_ms = 0.5
let scale = 1

(* One engine behind one connection. *)
type side = { db : Db.t; clock : Vclock.t; link : Link.t; conn : Conn.t }

let side (module A : App_sig.S) =
  let db = Db.create () in
  A.populate ~scale db;
  let clock = Vclock.create () in
  let link = Link.create ~rtt_ms clock in
  { db; clock; link; conn = Conn.create db link }

type app = {
  app : (module App_sig.S);
  sloth : side;
  eager : side;
  pages : string list;
}

let page_names (module A : App_sig.S) conn =
  let module P = A.Pages (Sloth_core.Exec.Eager (struct
    let conn = conn
  end)) in
  P.page_names

let deploy () =
  List.map
    (fun a ->
      let sloth = side a and eager = side a in
      { app = a; sloth; eager; pages = page_names a sloth.conn })
    App_sig.[ tracker; medrec; graph ]

let load (s : side) ~traced (module X : Sloth_core.Exec.S) (module A : App_sig.S)
    page =
  Runtime.set_clock (Some s.clock);
  let m =
    if traced then
      let module P = A.Pages (Timed_exec.Make (X)) in
      Trace.span Trace.web (fun () ->
          Page.load ~name:page ~clock:s.clock ~link:s.link
            ~controller:(fun () -> Trace.span Trace.orm (P.controller page))
            ())
    else
      let module P = A.Pages (X) in
      Page.load ~name:page ~clock:s.clock ~link:s.link
        ~controller:(P.controller page) ()
  in
  Runtime.set_clock None;
  m

(* One Sloth page load on a request-scoped query store. *)
let load_sloth a ~traced ?capture page =
  let store = Qs.create ~policy:Qs.On_demand a.sloth.conn in
  Option.iter (fun r -> Qs.set_tracer store (Some (Capture.tracer r))) capture;
  let module L = Sloth_core.Exec.Lazy (struct
    let store = store
  end) in
  let m = load a.sloth ~traced (module L) a.app page in
  (m, Stats.bytes (Link.stats a.sloth.link))

let load_eager a page =
  let module E = Sloth_core.Exec.Eager (struct
    let conn = a.eager.conn
  end) in
  load a.eager ~traced:false (module E) a.app page

(* The round's op stream: every page of every app, permuted. *)
let stream apps ~seed r =
  let ops =
    Array.of_list
      (List.concat_map (fun a -> List.map (fun p -> (a, p)) a.pages) apps)
  in
  let rng = Random.State.make [| seed; r |] in
  for i = Array.length ops - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  ops

let window_ops = 1000

(* Rounds per epoch, about a second. *)
let epoch_rounds = 4

let run (st : settings) =
  let apps = ref (first_set_up st ~n:5 deploy) in
  (* The traced run replays each traced load's batches right after it, on
     one replay deployment per app: pages only read, so it stays identical
     to the measured ones, and untraced loads need no capture. *)
  let replays =
    if st.trace then
      List.map
        (fun a ->
          let (module A : App_sig.S) = a.app in
          let s = side a.app in
          (A.name, Replay.create ~conn:s.conn s.db))
        !apps
    else []
  in
  (* Nothing to check: pages only read.  A fresh deployment gives a
     set-up sample. *)
  let fresh () = apps := set_up deploy in
  let o = ops () in
  let queries = ref 0 and allocs = ref 0 and forces = ref 0 and bytes = ref 0 in
  (* captured and replayed: the traced loads of the window *)
  let win = Capture.counts () and rest = Capture.counts () in
  let traced_window = ref 0 and plans = ref 0 and rows = ref 0 and results = ref 0 in
  let round ph =
    Array.iter
      (fun (a, page) ->
        let capture = if ph.traced then Some (Capture.create ~traced:true) else None in
        Trace.enabled := ph.traced;
        let res, us =
          timed (fun () ->
              attempt (fun () ->
                  Trace.span Trace.op (fun () ->
                      load_sloth a ~traced:ph.traced ?capture page)))
        in
        Trace.enabled := false;
        let eager, eager_us = timed (fun () -> attempt (fun () -> load_eager a page)) in
        Option.iter
          (fun c ->
            let (module A : App_sig.S) = a.app in
            let rp = List.assoc A.name replays in
            let p0 = rp.Replay.plans and s0 = rp.rows_scanned and q0 = rp.result_rows in
            Capture.replay ~parsed_inline:false rp (if ph.in_window then win else rest) c;
            if ph.in_window then begin
              incr traced_window;
              plans := !plans + rp.plans - p0;
              rows := !rows + rp.rows_scanned - s0;
              results := !results + rp.result_rows - q0
            end)
          capture;
        if ph.measured then begin
          o.attempted <- o.attempted + 1;
          match (res, eager) with
          | Ok (m, b), Ok e when String.equal m.Page.html e.Page.html ->
              record o ph ~us ~eager_us ~virtual_ms:m.Page.total_ms
                ~trips:m.Page.round_trips;
              if ph.in_window then begin
                queries := !queries + m.Page.queries;
                allocs := !allocs + m.Page.thunk_allocs;
                forces := !forces + m.Page.thunk_forces;
                bytes := !bytes + b
              end
          | Ok _, Ok _ -> fail o (page ^ ": HTML differs from the eager build")
          | Error e, _ | _, Error e -> fail o (page ^ ": " ^ e)
        end)
      (stream !apps ~seed:st.seed ph.r)
  in
  let n_pages = List.fold_left (fun n a -> n + List.length a.pages) 0 !apps in
  measure st ~window:(window_rounds ~ops:window_ops ~per_round:n_pages)
    ~epoch:epoch_rounds ~fresh round;
  let layers =
    if not st.trace then []
    else
      let per_w v = per o.window_ops (float_of_int v) in
      let per_t v = per !traced_window (float_of_int v) in
      Layers.summarize o
        [
          ("core.thunk_allocs", per_w !allocs);
          ("core.thunk_forces", per_w !forces);
          ("core.queries_registered", per_t win.registered);
          ("core.dedup_hits", per_t win.dedup_hits);
          ("core.batch_size", ratio win.batched win.batches);
          ("driver.stmts_per_trip", ratio !queries o.trips);
          ("driver.bytes", per_w !bytes);
          ("planner.plans", per_t !plans);
          ("executor.rows_scanned", per_t !rows);
          ("executor.rows_per_result_row", ratio !rows !results);
        ]
  in
  report ~layers o
