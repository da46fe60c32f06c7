(* Coordinator side of two-phase commit: a durable decision log.

   The log is itself a WAL (length+checksum framed records), holding only
   [Decision] records — one per global transaction that COMMITTED, listing
   the participant shards.  Under presumed abort nothing is ever logged for
   an aborted transaction: the absence of a decision *is* the abort record.
   The append of a [Decision] record is the commit point of the whole
   distributed transaction — everything before it aborts on a crash,
   everything after it must (and will, via in-doubt resolution) commit. *)

type t = {
  log : Wal.store;
  decisions : (int, int list) Hashtbl.t;  (* gtid -> participant shards *)
  mutable next_gtid : int;
}

let recover t =
  Hashtbl.reset t.decisions;
  t.next_gtid <- 0;
  let bytes = Wal.contents t.log in
  let records, valid = Wal.scan bytes in
  (* A torn decision append means the crash hit before the commit point:
     truncate it — presumed abort takes care of the transaction. *)
  if valid < String.length bytes then
    Wal.write_all t.log (String.sub bytes 0 valid);
  List.iter
    (fun r ->
      match r with
      | Wal.Decision { gtid; participants } ->
          Hashtbl.replace t.decisions gtid participants;
          if gtid >= t.next_gtid then t.next_gtid <- gtid + 1
      | _ -> ())
    records

let create ~log =
  let t = { log; decisions = Hashtbl.create 32; next_gtid = 0 } in
  recover t;
  t

let alloc_gtid t =
  let g = t.next_gtid in
  t.next_gtid <- g + 1;
  g

let ensure_next t n = if n > t.next_gtid then t.next_gtid <- n
let next_gtid t = t.next_gtid

let log_commit t ~gtid ~participants =
  Wal.append_records t.log [ Wal.Decision { gtid; participants } ];
  Hashtbl.replace t.decisions gtid participants

let decided_commit t gtid = Hashtbl.mem t.decisions gtid
let participants t gtid = Hashtbl.find_opt t.decisions gtid
let n_decisions t = Hashtbl.length t.decisions

let decisions t =
  Hashtbl.fold (fun gtid ps acc -> (gtid, ps) :: acc) t.decisions []
  |> List.sort compare
let log_size t = Wal.length t.log
