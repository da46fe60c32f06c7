(* What every workload shares: the run settings, sample sets, the result a
   workload hands back, and the loop that runs rounds until the measured
   phase is over. *)

type settings = {
  seed : int;
  seconds : float;  (** length of the measured phase *)
  trace : bool;  (** the traced per-layer run instead of the end-to-end one *)
}

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let count s = s.n
  let sum s = Array.fold_left ( +. ) 0.0 (Array.sub s.a 0 s.n)

  (* Nearest-rank percentile, [p] in (0, 1]. *)
  let percentile s p =
    if s.n = 0 then nan
    else begin
      let sorted = Array.sub s.a 0 s.n in
      Array.sort Float.compare sorted;
      let rank = int_of_float (Float.ceil (p *. float_of_int s.n)) in
      sorted.(max 0 (min (s.n - 1) (rank - 1)))
    end

  let median s = percentile s 0.5
end

(* Time [f] in microseconds. *)
let timed f =
  let t0 = Trace.now_us () in
  let v = f () in
  (v, Trace.now_us () -. t0)

(* Set-up times in seconds; their median is the [setup_s] metric. *)
let setups = Samples.create ()

(* Set up a deployment with [f], as one set-up sample. *)
let set_up f =
  Gc.compact ();
  let d, us = timed f in
  Samples.add setups (us /. 1e6);
  d

(* The first deployment, which the warm-up round uses: set up [n] times,
   keeping the last.  The traced run does not report [setup_s], so it sets
   up once. *)
let first_set_up st ~n f =
  let d = ref (set_up f) in
  for _ = 2 to if st.trace then 1 else n do
    d := set_up f
  done;
  !d

(* Where a round sits in the run.  Round -1 is the warm-up (not
   measured).  The count window is the first [window] rounds: its counts
   and virtual times repeat exactly for a seed.  In the traced run even
   rounds are traced and odd ones are not, so that the tracing overhead is
   measured on interleaved rounds; tracing changes no count. *)
type phase = { r : int; measured : bool; in_window : bool; traced : bool }

(* Warm up on the first deployment, then run the measured phase: rounds
   until [st.seconds] have passed and the count window is complete.

   The measured phase is made of epochs of [epoch] rounds, and ends with
   one.  Each epoch starts with [fresh], which checks the deployment in
   use and sets up a new one.  served and sharded grow with every op
   (durable engines keep every idempotency token they committed and write
   them all into each checkpoint); with epochs, every epoch starts from
   the same state, so a faster build runs more epochs rather than later,
   costlier rounds.  The epochs' set-ups are set-up samples spread over
   the run, so [setup_s] does not hang on the host's speed during a few
   seconds. *)
let measure st ~window ~epoch ~fresh round =
  round { r = -1; measured = false; in_window = false; traced = false };
  Trace.reset ();
  let deadline = Trace.now_us () +. (st.seconds *. 1e6) in
  let rec go r =
    if
      r mod epoch <> 0 || r < window
      (* the traced run needs an untraced round too *)
      || (st.trace && r < 2)
      || Trace.now_us () < deadline
    then begin
      if r mod epoch = 0 then fresh ();
      round
        { r; measured = true; in_window = r < window; traced = st.trace && r mod 2 = 0 };
      go (r + 1)
    end
  in
  go 0

(* Rounds needed for a count window of at least [ops] ops. *)
let window_rounds ~ops ~per_round = (ops + per_round - 1) / per_round

(* The op samples and counts of one run. *)
type ops = {
  op_us : Samples.t;  (** wall-clock per op under the Sloth build *)
  eager_us : Samples.t;  (** the same ops under the original build *)
  virtual_ms : Samples.t;  (** simulated latency per op, count window *)
  traced_us : Samples.t;  (** traced ops (traced run) *)
  raw_us : Samples.t;  (** untraced ops *)
  mutable traced_ops : int;
  mutable window_ops : int;
  mutable trips : int;  (** round trips, count window *)
  mutable attempted : int;
  mutable failed : int;
}

let ops () =
  {
    op_us = Samples.create (); eager_us = Samples.create ();
    virtual_ms = Samples.create (); traced_us = Samples.create ();
    raw_us = Samples.create (); traced_ops = 0;
    window_ops = 0; trips = 0; attempted = 0; failed = 0;
  }

(* One measured op that passed its output check. *)
let record o ph ~us ~eager_us ~virtual_ms ~trips =
  Samples.add o.op_us us;
  Samples.add o.eager_us eager_us;
  if ph.traced then o.traced_ops <- o.traced_ops + 1;
  Samples.add (if ph.traced then o.traced_us else o.raw_us) us;
  if ph.in_window then begin
    o.window_ops <- o.window_ops + 1;
    Samples.add o.virtual_ms virtual_ms;
    o.trips <- o.trips + trips
  end

(* Run [f]; an exception becomes [Error] with its text. *)
let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Count a failed op; the first few reasons go to standard error. *)
let fail o why =
  o.failed <- o.failed + 1;
  if o.failed <= 5 then prerr_endline ("perfbench: failed op: " ^ why)

let per n v = if n = 0 then 0.0 else v /. float_of_int n
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* What a workload hands back. *)
type report = {
  ops : ops;
  ops_per_s : float;
  checks_ok : bool;  (** whole-run output checks (replay oracles, audits) *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
}

(* [ops_per_s] defaults to Sloth ops per second of Sloth op time. *)
let report ?ops_per_s ?(checks_ok = true) ?(layers = []) o =
  let ops_per_s =
    match ops_per_s with
    | Some v -> v
    | None -> float_of_int (Samples.count o.op_us) /. (Samples.sum o.op_us /. 1e6)
  in
  { ops = o; ops_per_s; checks_ok; layers }
