(* In-memory spans around the benchmark's own calls into each layer.

   A span names the layer being called.  Spans nest on a stack; when one
   closes, its duration is added to its parent's covered time, and its
   self time (duration minus the time its child spans cover) is added to
   its layer's total.  Work that the benchmark cannot wrap in-line (the
   driver and storage calls a query-store flush makes) is timed afterwards
   by replaying the shipped batches, and moved out of the enclosing span's
   layer with [move].  Every span is kept in memory and written out by
   [write] at the end of the run. *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

let layers =
  [|
    "op"; "web"; "orm"; "core"; "kernel"; "server"; "driver"; "sql.parse";
    "sql.normalize"; "sql.print"; "planner"; "executor"; "wal"; "shard";
  |]

let layer name =
  let rec find i =
    if i = Array.length layers then invalid_arg ("Trace.layer " ^ name)
    else if String.equal layers.(i) name then i
    else find (i + 1)
  in
  find 0

let op = layer "op"
let web = layer "web"
let orm = layer "orm"
let core = layer "core"
let kernel = layer "kernel"
let server = layer "server"

let enabled = ref false
let self_us = Array.make (Array.length layers) 0.0
let root_us = ref 0.0 (* total duration of outermost spans *)

type frame = { f_layer : int; f_start : float; mutable f_covered : float }

let stack : frame list ref = ref []

(* Closed spans, in closing order: layer, op index and depth in [span_ints],
   start and stop in [span_times].  The spans of one op share its index. *)
let span_ints = ref (Array.make (3 * 4096) 0)
let span_times = ref (Float.Array.make (2 * 4096) 0.0)
let kept = ref 0
let op_index = ref 0
let t0 = ref 0.0 (* start of the measured phase *)

let keep l o d a b =
  let n = !kept in
  if 3 * (n + 1) > Array.length !span_ints then begin
    let ints = Array.make (2 * Array.length !span_ints) 0 in
    Array.blit !span_ints 0 ints 0 (3 * n);
    span_ints := ints;
    let times = Float.Array.make (2 * Float.Array.length !span_times) 0.0 in
    Float.Array.blit !span_times 0 times 0 (2 * n);
    span_times := times
  end;
  !span_ints.(3 * n) <- l;
  !span_ints.((3 * n) + 1) <- o;
  !span_ints.((3 * n) + 2) <- d;
  Float.Array.set !span_times (2 * n) a;
  Float.Array.set !span_times ((2 * n) + 1) b;
  kept := n + 1

let reset () =
  Array.fill self_us 0 (Array.length self_us) 0.0;
  root_us := 0.0;
  stack := [];
  kept := 0;
  t0 := now_us ()

let current_layer () =
  match !stack with f :: _ -> f.f_layer | [] -> op

let close f =
  let stop = now_us () in
  let dur = stop -. f.f_start in
  stack := List.tl !stack;
  (match !stack with
  | p :: _ -> p.f_covered <- p.f_covered +. dur
  | [] -> root_us := !root_us +. dur);
  self_us.(f.f_layer) <- self_us.(f.f_layer) +. dur -. f.f_covered;
  keep f.f_layer !op_index (List.length !stack) f.f_start stop;
  (* an outermost span closes its op: the next spans belong to the next *)
  if !stack = [] then incr op_index

let span layer f =
  if not !enabled then f ()
  else begin
    let fr = { f_layer = layer; f_start = now_us (); f_covered = 0.0 } in
    stack := fr :: !stack;
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

(* Replay-timed work [us] ran inside a span of layer [from]: take it out of
   that layer's self time and give it to [into]. *)
let move ~from ~into us =
  self_us.(from) <- self_us.(from) -. us;
  self_us.(into) <- self_us.(into) +. us

let self name = self_us.(layer name)

(* One line per span, in closing order: layer, op, depth, start and stop
   in µs from the start of the measured phase. *)
let write path =
  let oc = open_out path in
  for i = 0 to !kept - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%.3f\t%.3f\n"
      layers.(!span_ints.(3 * i))
      !span_ints.((3 * i) + 1)
      !span_ints.((3 * i) + 2)
      (Float.Array.get !span_times (2 * i) -. !t0)
      (Float.Array.get !span_times ((2 * i) + 1) -. !t0)
  done;
  close_out oc
