(* Query-store events captured during the traced run, then replayed (see
   [Replay]) to time the work that ran below the in-line spans.  Each event
   remembers the layer whose span was open when it fired: that layer paid
   for the work, so the replayed time is moved out of it. *)

module Qs = Sloth_core.Query_store

type ev =
  | Reg of { layer : int; sql : string; normalizes : int; dedup : bool }
      (** a registration: one print and [normalizes] normalizations *)
  | Sent of { layer : int; sqls : string list }  (** a shipped batch *)

(* The events of one op (pages) or one round (sharded). *)
type t = { traced : bool; mutable evs : ev list (* newest first *) }

let create ~traced = { traced; evs = [] }

let tracer r = function
  | Qs.Registered (_, sql) ->
      r.evs <-
        Reg { layer = Trace.current_layer (); sql; normalizes = 2; dedup = false }
        :: r.evs
  | Qs.Dedup_hit (_, sql) ->
      r.evs <-
        Reg { layer = Trace.current_layer (); sql; normalizes = 1; dedup = true }
        :: r.evs
  | Qs.Write_through (_, sql) ->
      r.evs <-
        Reg { layer = Trace.current_layer (); sql; normalizes = 1; dedup = false }
        :: r.evs
  | Qs.Batch_sent b ->
      r.evs <-
        Sent { layer = Trace.current_layer (); sqls = List.map snd b } :: r.evs
  | Qs.Result_served _ | Qs.Query_poisoned _ -> ()

type counts = {
  mutable registered : int;
  mutable dedup_hits : int;
  mutable batches : int;
  mutable batched : int;  (** statements over all batches *)
}

let counts () = { registered = 0; dedup_hits = 0; batches = 0; batched = 0 }

(* Replay the captured events in order.  [parsed_inline]: the registrations
   came through [register_sql], so their parse ran in-line too.  Time is
   moved only for traced captures; untraced ones are replayed to keep the
   replay state in step.

   Shipped batches go through the connection or router first, all of
   them, and then through the plain engine.  So the timed connection or
   router replay allocates about as much as the in-line flush did.  With
   the plain engine's work in between, the garbage collector charged more
   of its work to the router replay, which came out dearer than the
   in-line flushes it stands for. *)
let replay ~parsed_inline (rp : Replay.t) (c : counts) (cap : t) =
  let parse sql = Sloth_sql.Parser.parse sql in
  let sent =
    List.filter_map
      (function
        | Reg { layer; sql; normalizes; dedup } ->
            c.registered <- c.registered + 1;
            if dedup then c.dedup_hits <- c.dedup_hits + 1;
            if cap.traced then begin
              let stmt =
                if parsed_inline then begin
                  let stmt, us = Replay.parse rp sql in
                  Trace.move ~from:layer ~into:(Trace.layer "sql.parse") us;
                  stmt
                end
                else parse sql
              in
              let p, n = Replay.registration stmt ~normalizes in
              Trace.move ~from:layer ~into:(Trace.layer "sql.print") p;
              Trace.move ~from:layer ~into:(Trace.layer "sql.normalize") n
            end;
            None
        | Sent { layer; sqls } ->
            c.batches <- c.batches + 1;
            c.batched <- c.batched + List.length sqls;
            Some (layer, Replay.front rp (List.map parse sqls)))
      (List.rev cap.evs)
  in
  List.iter
    (fun (layer, f) ->
      let parts, _ = Replay.back rp f in
      if cap.traced then Replay.credit ~from:layer parts)
    sent
