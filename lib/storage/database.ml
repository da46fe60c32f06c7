type outcome = {
  rs : Result_set.t;
  rows_affected : int;
  cost_ms : float;
}

exception Sql_error of string

exception Invariant_violation of string
(* An internal protocol invariant broke (not a user error): raised with
   enough context — gtid / epoch / shard — to diagnose a chaos-matrix
   failure instead of aborting on a bare [assert false]. *)

let invariant_violation fmt =
  Format.kasprintf (fun s -> raise (Invariant_violation s)) fmt

type recovery_stats = {
  from_checkpoint : bool;
  replayed_txns : int;
  replayed_records : int;
  discarded_bytes : int;
  wal_bytes : int;
  in_doubt_committed : int;
  in_doubt_aborted : int;
  recovery_ms : float;
}

(* The durable registry of applied idempotency tokens: one sorted set of
   tokens (ascending [String.compare], no duplicates) cut into pages.  A
   page caches its checkpoint encoding, the [Wal.Codec.put_string] of each
   token and the Adler-32 of those bytes, so a checkpoint re-encodes only
   the pages that gained a token since it last ran.  Pages are immutable:
   an insert replaces the one page it lands in, splitting it in two when it
   would exceed [page_max] tokens.  Lookups and inserts binary-search the
   pages' first tokens, then the page. *)
module Tokens = struct
  type page = { keys : string array; enc : (string * int) Lazy.t }
  type t = { mutable pages : page array }

  (* A full page splits into two of half this size, and a loaded registry
     is cut into pages of half this size, so every page has room to grow. *)
  let page_max = 128

  let page keys =
    let enc =
      lazy
        (let b = Buffer.create (Array.length keys * 24) in
         Array.iter (Wal.Codec.put_string b) keys;
         let s = Buffer.contents b in
         (s, Wal.checksum s))
    in
    { keys; enc }

  let create () = { pages = [||] }
  let reset t = t.pages <- [||]

  (* The length of the prefix of [0, n) on which [below] holds. *)
  let prefix below n =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if below mid then lo := mid + 1 else hi := mid
    done;
    !lo

  (* The page [k] belongs to: the last whose first token is <= [k], or the
     first page when [k] precedes every token.  The registry is non-empty. *)
  let page_of t k =
    let n =
      prefix
        (fun i -> String.compare t.pages.(i).keys.(0) k <= 0)
        (Array.length t.pages)
    in
    max 0 (n - 1)

  (* [k]'s position in [keys], and whether it is there. *)
  let locate keys k =
    let n = Array.length keys in
    let i = prefix (fun i -> String.compare keys.(i) k < 0) n in
    (i, i < n && String.equal keys.(i) k)

  let mem t k =
    Array.length t.pages > 0 && snd (locate t.pages.(page_of t k).keys k)

  let add t k =
    if Array.length t.pages = 0 then t.pages <- [| page [| k |] |]
    else
      let p = page_of t k in
      let keys = t.pages.(p).keys in
      let i, present = locate keys k in
      if not present then begin
        let n = Array.length keys + 1 in
        let keys =
          Array.init n (fun j ->
              if j < i then keys.(j) else if j = i then k else keys.(j - 1))
        in
        (if n <= page_max then t.pages.(p) <- page keys
         else
           let h = n / 2 and np = Array.length t.pages in
           let halves = [| Array.sub keys 0 h; Array.sub keys h (n - h) |] in
           t.pages <-
             Array.concat
               [
                 Array.sub t.pages 0 p;
                 Array.map page halves;
                 Array.sub t.pages (p + 1) (np - p - 1);
               ])
      end

  (* Replace the registry by [keys], which must be strictly ascending (a
     checkpoint's token section): raises [Wal.Codec.Corrupt] otherwise. *)
  let load t keys =
    let n = Array.length keys in
    for i = 1 to n - 1 do
      if String.compare keys.(i - 1) keys.(i) >= 0 then
        raise Wal.Codec.Corrupt
    done;
    let fill = page_max / 2 in
    t.pages <-
      Array.init
        ((n + fill - 1) / fill)
        (fun p -> page (Array.sub keys (p * fill) (min fill (n - (p * fill)))))

  let count t =
    Array.fold_left (fun n p -> n + Array.length p.keys) 0 t.pages

  (* The registry's checkpoint encoding, one (bytes, checksum) piece per
     page, without the count that precedes it. *)
  let pieces t =
    Array.fold_right (fun p acc -> Lazy.force p.enc :: acc) t.pages []
end

(* Durability state: a redo log appended at commit, a checkpoint store
   overwritten every [checkpoint_every] commits, and the durable registry
   of applied idempotency tokens. *)
type dur = {
  wal : Wal.store;
  ck : Wal.store;
  checkpoint_every : int;  (* commits between checkpoints; 0 = never *)
  mutable commits_since_ck : int;
  mutable next_txn : int;
  mutable lsn : int;  (* committed WAL chunks ever appended (log sequence #) *)
  tokens : Tokens.t;
  prepared : (int, string option) Hashtbl.t;
      (* gtid -> idempotency token of transactions forced by dtxn_prepare
         and still awaiting their phase-2 decision *)
  mutable ship_prepares : bool;
      (* replicated-shard mode: prepare chunks and phase-2 completion
         markers each take an LSN and fire the replication tap, so a
         follower's log stays a prefix-equal copy of the primary's and a
         promoted follower can resolve in-doubt chunks itself *)
  pending_repl : (int, Wal.record list) Hashtbl.t;
      (* follower side of ship_prepares: gtid -> stashed records of a
         shipped [Begin .. Prepare] chunk, applied to the heap only when
         the phase-2 completion marker arrives *)
  mutable seen_txns : int;
      (* replay watermarks: how much of the current log the previous
         recovery already replayed, so [last_recovery] reports per-call
         deltas instead of cumulative totals (reset when a checkpoint
         truncates the log) *)
  mutable seen_records : int;
  mutable last_recovery : recovery_stats option;
  pages : (string, page array) Hashtbl.t;
      (* checkpoint page cache: table name -> its heap's encoded pages *)
}

(* [page_slots] consecutive heap slots of one table as the last checkpoint
   encoded them: the slot values then held, their encoding and its
   Adler-32. *)
and page = { slots : Value.t array option array; bytes : string; sum : int }

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* creation order, for deterministic listing *)
  mutable txn : Txn.t option;
  cost : Cost.model;
  mutable dur : dur option;
  mutable planner : bool;  (* cost-based planning (off = legacy heuristics) *)
  mutable mqo : bool;  (* flush-level plan merging (probe sets, joins) *)
  mutable cache : Result_cache.t option;
      (* cross-flush result cache, keyed Normalize.key × table versions *)
  share : Executor.share_stats;  (* cumulative batch-sharing counters *)
  mutable on_commit : (lsn:int -> Wal.record list -> unit) option;
      (* replication tap: fired once per appended WAL chunk *)
  mutable in_doubt : (int -> bool) option;
      (* 2PC in-doubt resolver: given the gtid of a prepared-but-undecided
         chunk found at recovery, [true] means the coordinator's decision
         log recorded COMMIT; anything else is an abort (presumed abort) *)
}

let error fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

let create ?(cost = Cost.default) () =
  {
    tables = Hashtbl.create 32;
    order = [];
    txn = None;
    cost;
    dur = None;
    planner = true;
    mqo = false;
    cache = None;
    share = Executor.fresh_share_stats ();
    on_commit = None;
    in_doubt = None;
  }

let cost_model t = t.cost
let set_planner t on = t.planner <- on
let planner_enabled t = t.planner
let mode t = if t.planner then Executor.Planned else Executor.Direct
let set_mqo t on = t.mqo <- on
let mqo_enabled t = t.mqo

let set_result_cache t capacity =
  t.cache <-
    (match capacity with
    | None -> None
    | Some c -> Some (Result_cache.create ~capacity:c))

let result_cache_capacity t =
  Option.map (fun c -> Result_cache.capacity c) t.cache

(* The cache must never survive a state transition its version vectors
   know nothing about: recovery and snapshot installation rebuild tables
   from scratch (fresh version counters), so stale entries could alias a
   dead reign's rows onto new versions. *)
let invalidate_result_cache t = Option.iter Result_cache.clear t.cache

type read_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  cache_entries : int;
  dedup_folded : int;
  seq_scans_shared : int;
  probe_sets_merged : int;
  joins_shared : int;
}

let read_stats t =
  let cs =
    match t.cache with
    | None -> Result_cache.{ hits = 0; misses = 0; invalidations = 0 }
    | Some c -> Result_cache.stats c
  in
  {
    cache_hits = cs.Result_cache.hits;
    cache_misses = cs.Result_cache.misses;
    cache_invalidations = cs.Result_cache.invalidations;
    cache_entries =
      (match t.cache with None -> 0 | Some c -> Result_cache.length c);
    dedup_folded = t.share.Executor.dedup_folded;
    seq_scans_shared = t.share.Executor.seq_scans_shared;
    probe_sets_merged = t.share.Executor.probe_sets_merged;
    joins_shared = t.share.Executor.joins_shared;
  }

(* --- write-ahead logging ------------------------------------------------- *)

(* Fire the replication tap for one appended chunk.  Called after the LSN
   bump so the tap observes the chunk's own sequence number. *)
let fire_tap t d chunk =
  match t.on_commit with None -> () | Some f -> f ~lsn:d.lsn chunk

let wal_ddl t record =
  match t.dur with
  | None -> ()
  | Some d ->
      Wal.append_records d.wal [ record ];
      d.lsn <- d.lsn + 1;
      fire_tap t d [ record ]

(* --- checkpoint encoding ------------------------------------------------- *)

(* The checkpoint payload: every table (schema, index columns, the whole
   heap including empty slots so rid allocation survives), the token
   registry and the transaction-id high-water mark, all in one checksummed
   frame — a torn checkpoint write is detected and the previous durable
   state wins.

   It is built as pieces: per table a header, then the heap in pages of
   [page_slots] slots; then the token count, the registry's pages (see
   [Tokens]) and the two marks.  A heap page is re-encoded only when one
   of its slots changed since the last checkpoint, a token page only when
   it gained a token, and the frame checksum is combined from the
   per-piece checksums, so a checkpoint costs what changed plus one
   pointer comparison per slot.  Slots are compared by physical
   equality: every [Table] write stores a fresh slot and no stored row is
   ever mutated in place (see table.mli), so an unchanged slot value means
   unchanged bytes. *)

(* Slots per page, from measurement (perfbench, 2-core x86-64 VM).  The
   sharded median op took 3.0-3.2 ms with 32-slot pages against 3.2-3.4 ms
   with 64 and 3.4 ms with 128.  16 slots were as fast as 32 but raised
   the peak heap by about 5 MB on both the sharded and served workloads;
   32 slots cost about 3 MB on sharded only.  Smaller pages re-encode less
   around each dirty slot and cost more per page. *)
let page_slots = 32

let encode_page tbl base n =
  let slots = Array.init n (fun i -> Table.get tbl (base + i)) in
  let b = Buffer.create (n * 48) in
  Array.iter (Wal.Codec.put_row_opt b) slots;
  let bytes = Buffer.contents b in
  { slots; bytes; sum = Wal.checksum bytes }

let page_valid tbl base n page =
  Array.length page.slots = n
  &&
  let rec same i =
    i = n || (Table.get tbl (base + i) == page.slots.(i) && same (i + 1))
  in
  same 0

(* The heap's pages, reusing every cached page whose slots are unchanged. *)
let heap_pages d name tbl =
  let len = Table.heap_length tbl in
  let cached = Option.value ~default:[||] (Hashtbl.find_opt d.pages name) in
  let pages =
    Array.init
      ((len + page_slots - 1) / page_slots)
      (fun k ->
        let base = k * page_slots in
        let n = min page_slots (len - base) in
        if k < Array.length cached && page_valid tbl base n cached.(k) then
          cached.(k)
        else encode_page tbl base n)
  in
  Hashtbl.replace d.pages name pages;
  pages

(* The payload as (bytes, checksum) pieces, in payload order. *)
let checkpoint_pieces t d =
  let b = Buffer.create 256 in
  let take () =
    let s = Buffer.contents b in
    Buffer.clear b;
    (s, Wal.checksum s)
  in
  Wal.Codec.put_int b (List.length t.order);
  let tables =
    List.concat_map
      (fun name ->
        let tbl = Hashtbl.find t.tables name in
        Wal.Codec.put_schema b (Table.schema tbl);
        let put_cols cols =
          Wal.Codec.put_int b (List.length cols);
          List.iter (Wal.Codec.put_string b) cols
        in
        put_cols (Table.secondary_columns tbl);
        put_cols (Table.ordered_columns tbl);
        Wal.Codec.put_int b (Table.heap_length tbl);
        let head = take () in
        head
        :: Array.fold_right
             (fun p acc -> (p.bytes, p.sum) :: acc)
             (heap_pages d name tbl) [])
      t.order
  in
  Wal.Codec.put_int b (Tokens.count d.tokens);
  let count = take () in
  Wal.Codec.put_int b d.next_txn;
  Wal.Codec.put_int b d.lsn;
  tables @ (count :: Tokens.pieces d.tokens) @ [ take () ]

let write_checkpoint t d =
  Wal.write_frame d.ck (checkpoint_pieces t d);
  Wal.write_all d.wal "";
  d.commits_since_ck <- 0;
  (* The log was just truncated, so the next recovery replays from zero:
     the per-call delta watermarks restart with it. *)
  d.seen_txns <- 0;
  d.seen_records <- 0

(* Checkpointing is gated on having no prepared-but-undecided transaction:
   a checkpoint snapshots only committed state and then truncates the log,
   which would silently discard a forced [Begin .. Prepare] chunk — turning
   a coordinator COMMIT decision into a lost write on this shard. *)
let maybe_checkpoint t d =
  if
    d.checkpoint_every > 0
    && d.commits_since_ck >= d.checkpoint_every
    && Hashtbl.length d.prepared = 0
  then write_checkpoint t d

(* Map a transaction's undo-log entries to redo records.  Every touched
   slot's *current* (= final, we are at commit/prepare) content is its redo
   image, which makes replay idempotent and collapses insert/update/delete
   into one record shape. *)
let sets_of_entries entries =
  List.map
    (fun e ->
      let tbl, rid =
        match e with
        | Txn.Inserted (tbl, rid) -> (tbl, rid)
        | Txn.Deleted (tbl, rid, _) -> (tbl, rid)
        | Txn.Updated (tbl, rid, _) -> (tbl, rid)
      in
      Wal.Set
        { table = Schema.name (Table.schema tbl); rid; row = Table.get tbl rid })
    entries

(* Append one committed transaction's redo records (the entries are the
   undo log in chronological order). *)
let wal_commit ?token t entries =
  match t.dur with
  | None -> ()
  | Some d ->
      let sets = sets_of_entries entries in
      if sets = [] && token = None then ()
      else begin
        let id = d.next_txn in
        d.next_txn <- id + 1;
        let toks =
          match token with
          | None -> []
          | Some k ->
              Tokens.add d.tokens k;
              [ Wal.Token k ]
        in
        let chunk = (Wal.Begin id :: sets) @ toks @ [ Wal.Commit id ] in
        Wal.append_records d.wal chunk;
        d.lsn <- d.lsn + 1;
        fire_tap t d chunk;
        d.commits_since_ck <- d.commits_since_ck + 1;
        maybe_checkpoint t d
      end

(* --- recovery ------------------------------------------------------------ *)

let install_table t name tbl =
  Hashtbl.replace t.tables name tbl;
  t.order <- t.order @ [ name ]

(* Load a checkpoint payload (the bytes inside the checksummed frame) into
   a wiped database.  Shared by recovery and by snapshot installation on a
   replica. *)
let load_checkpoint_payload t d payload =
  try
    let r = Wal.Codec.reader payload in
    let n_tables = Wal.Codec.get_int r in
    for _ = 1 to n_tables do
      let schema = Wal.Codec.get_schema r in
      let get_cols () =
        let n = Wal.Codec.get_int r in
        List.init n (fun _ -> Wal.Codec.get_string r)
      in
      let sec = get_cols () in
      let ord = get_cols () in
      let heap_len = Wal.Codec.get_int r in
      let tbl = Table.create schema in
      List.iter (Table.create_index tbl) sec;
      List.iter (Table.create_ordered_index tbl) ord;
      for rid = 0 to heap_len - 1 do
        match Wal.Codec.get_row_opt r with
        | Some row -> Table.apply_redo tbl rid (Some row)
        | None -> Table.apply_redo tbl rid None
      done;
      install_table t (Schema.name schema) tbl
    done;
    let n_tokens = Wal.Codec.get_int r in
    (* every token takes at least its 8-byte length *)
    if n_tokens < 0 || n_tokens > String.length payload / 8 then
      raise Wal.Codec.Corrupt;
    Tokens.load d.tokens
      (Array.init n_tokens (fun _ -> Wal.Codec.get_string r));
    d.next_txn <- Wal.Codec.get_int r;
    d.lsn <- Wal.Codec.get_int r;
    true
  with Wal.Codec.Corrupt ->
    (* A corrupt checkpoint is treated as absent: wipe the partial
       load and replay the log from genesis. *)
    Hashtbl.reset t.tables;
    t.order <- [];
    Tokens.reset d.tokens;
    d.next_txn <- 0;
    d.lsn <- 0;
    false

let load_checkpoint t d =
  match Wal.Codec.unframe (Wal.contents d.ck) 0 with
  | None -> false
  | Some (payload, _) -> load_checkpoint_payload t d payload

let apply_record t d = function
  | Wal.Set { table; rid; row } -> (
      match Hashtbl.find_opt t.tables table with
      | Some tbl -> Table.apply_redo tbl rid row
      | None -> ())
  | Wal.Create_table schema ->
      let name = Schema.name schema in
      if not (Hashtbl.mem t.tables name) then
        install_table t name (Table.create schema)
  | Wal.Create_index { table; column; ordered } -> (
      match Hashtbl.find_opt t.tables table with
      | Some tbl -> (
          try
            if ordered then Table.create_ordered_index tbl column
            else Table.create_index tbl column
          with Not_found -> ())
      | None -> ())
  | Wal.Token k -> Tokens.add d.tokens k
  | Wal.Begin _ | Wal.Commit _ | Wal.Prepare _ | Wal.Decision _ -> ()

let recover t d =
  let t0 = Sys.time () in
  invalidate_result_cache t;
  Hashtbl.reset t.tables;
  t.order <- [];
  t.txn <- None;
  Tokens.reset d.tokens;
  Hashtbl.reset d.prepared;
  Hashtbl.reset d.pending_repl;
  Hashtbl.reset d.pages;
  d.lsn <- 0;
  let from_checkpoint = load_checkpoint t d in
  let log = Wal.contents d.wal in
  let records, valid = Wal.scan log in
  let discarded_bytes = String.length log - valid in
  (* Truncate the torn tail so future appends extend a clean log. *)
  if discarded_bytes > 0 then Wal.write_all d.wal (String.sub log 0 valid);
  let replayed_txns = ref 0 and replayed_records = ref 0 in
  let pending = ref None in
  (* Chunks closed by [Prepare] instead of [Commit]: forced but undecided
     at the time they were logged.  Each waits for a later standalone
     [Commit] completion marker in this same log, and whatever is still
     unmatched when the scan ends goes to the in-doubt resolver.  Kept in
     log order so resolution replays commits in the original sequence. *)
  let in_doubt = ref [] in
  let apply_chunk id recs =
    List.iter (apply_record t d) recs;
    replayed_records := !replayed_records + List.length recs;
    incr replayed_txns;
    if id >= d.next_txn then d.next_txn <- id + 1;
    d.lsn <- d.lsn + 1
  in
  List.iter
    (fun r ->
      match (r, !pending) with
      | Wal.Begin id, _ -> pending := Some (id, [])
      | Wal.Commit id, Some (id', acc) when id = id' ->
          apply_chunk id (List.rev acc);
          pending := None
      | Wal.Prepare id, Some (id', acc) when id = id' ->
          in_doubt := !in_doubt @ [ (id, List.rev acc) ];
          if id >= d.next_txn then d.next_txn <- id + 1;
          (* In replicated-shard mode the live prepare force took an LSN
             of its own (so it could ship); the replay must account it the
             same way or a promoted follower's LSN would drift from the
             primary's. *)
          if d.ship_prepares then d.lsn <- d.lsn + 1;
          pending := None
      | Wal.Commit id, None when List.mem_assoc id !in_doubt ->
          (* phase-2 completion marker: the coordinator decided COMMIT and
             this shard acked before the crash — apply the stashed chunk *)
          apply_chunk id (List.assoc id !in_doubt);
          in_doubt := List.remove_assoc id !in_doubt
      | (Wal.Commit _ | Wal.Prepare _), _ -> pending := None
      | r, Some (id, acc) -> pending := Some (id, r :: acc)
      | r, None ->
          (* standalone DDL record *)
          apply_record t d r;
          incr replayed_records;
          d.lsn <- d.lsn + 1)
    records;
  (* An uncommitted tail transaction in !pending is dropped: its commit
     record never made it to the log, so it never happened.  Prepared
     chunks with no completion marker are resolved through the coordinator:
     a recorded COMMIT decision means the chunk must apply (and we append
     the completion marker so the next recovery needs no resolver); no
     decision means abort — presumed abort — and the dead chunk is simply
     never applied. *)
  let in_doubt_committed = ref 0 and in_doubt_aborted = ref 0 in
  List.iter
    (fun (id, recs) ->
      let commit =
        match t.in_doubt with Some resolve -> resolve id | None -> false
      in
      if commit then begin
        apply_chunk id recs;
        Wal.append_records d.wal [ Wal.Commit id ];
        incr in_doubt_committed
      end
      else incr in_doubt_aborted)
    !in_doubt;
  d.commits_since_ck <- 0;
  (* Report per-call deltas against the previous recovery of this same log:
     a second crash before any new commit replays nothing *new*, even
     though the scan re-reads the whole log. *)
  let raw_txns = !replayed_txns and raw_records = !replayed_records in
  let delta_txns = max 0 (raw_txns - d.seen_txns)
  and delta_records = max 0 (raw_records - d.seen_records) in
  d.seen_txns <- raw_txns;
  d.seen_records <- raw_records;
  d.last_recovery <-
    Some
      {
        from_checkpoint;
        replayed_txns = delta_txns;
        replayed_records = delta_records;
        discarded_bytes;
        wal_bytes = valid;
        in_doubt_committed = !in_doubt_committed;
        in_doubt_aborted = !in_doubt_aborted;
        recovery_ms = (Sys.time () -. t0) *. 1000.0;
      }

let enable_durability ?(checkpoint_every = 8) ~wal ~checkpoint t =
  let d =
    {
      wal;
      ck = checkpoint;
      checkpoint_every;
      commits_since_ck = 0;
      next_txn = 0;
      lsn = 0;
      tokens = Tokens.create ();
      prepared = Hashtbl.create 8;
      ship_prepares = false;
      pending_repl = Hashtbl.create 8;
      seen_txns = 0;
      seen_records = 0;
      last_recovery = None;
      pages = Hashtbl.create 16;
    }
  in
  t.dur <- Some d;
  if not (Wal.is_empty wal && Wal.is_empty checkpoint) then recover t d

let durable t = t.dur <> None

let crash_restart t =
  t.txn <- None;
  match t.dur with
  | None ->
      (* No durability: the crash wipes the server's whole state. *)
      invalidate_result_cache t;
      Hashtbl.reset t.tables;
      t.order <- []
  | Some d -> recover t d

let last_recovery t = Option.bind t.dur (fun d -> d.last_recovery)
let token_applied t k =
  match t.dur with None -> false | Some d -> Tokens.mem d.tokens k

let wal_size t =
  match t.dur with None -> 0 | Some d -> Wal.length d.wal

let wal_records t =
  match t.dur with None -> [] | Some d -> fst (Wal.scan (Wal.contents d.wal))

let checkpoint_now t =
  match t.dur with
  | None -> ()
  | Some d -> if Hashtbl.length d.prepared = 0 then write_checkpoint t d

(* --- replication entry points -------------------------------------------- *)

let current_lsn t = match t.dur with None -> 0 | Some d -> d.lsn
let set_commit_tap t tap = t.on_commit <- tap

let set_ship_prepares t on =
  match t.dur with
  | None -> invalid_arg "Database.set_ship_prepares: durability is off"
  | Some d -> d.ship_prepares <- on

let ship_prepares t =
  match t.dur with None -> false | Some d -> d.ship_prepares

(* Presumed abort ships nothing, so a follower that stashed an aborted
   prepare chunk must be told out of band to drop it (the dead chunk stays
   in its log and is presumed-aborted at any later promotion). *)
let repl_forget t ~gtid =
  match t.dur with
  | None -> ()
  | Some d ->
      Hashtbl.remove d.prepared gtid;
      Hashtbl.remove d.pending_repl gtid

(* A snapshot frames only committed state, but [Txn] applies heap effects
   eagerly (undo-logged): snapshotting mid-transaction or mid-prepare would
   bake uncommitted effects into the receiver.  The shipper defers. *)
let snapshot_safe t =
  t.txn = None
  && match t.dur with None -> true | Some d -> Hashtbl.length d.prepared = 0

let snapshot t =
  match t.dur with
  | None -> invalid_arg "Database.snapshot: durability is off"
  | Some d -> Wal.Codec.frame_pieces (checkpoint_pieces t d)

let install_snapshot t framed =
  match t.dur with
  | None -> invalid_arg "Database.install_snapshot: durability is off"
  | Some d -> (
      match Wal.Codec.unframe framed 0 with
      | None -> false
      | Some (payload, _) ->
          invalidate_result_cache t;
          Hashtbl.reset t.tables;
          t.order <- [];
          t.txn <- None;
          Tokens.reset d.tokens;
          Hashtbl.reset d.prepared;
          Hashtbl.reset d.pending_repl;
          Hashtbl.reset d.pages;
          if load_checkpoint_payload t d payload then begin
            (* The snapshot becomes this replica's own checkpoint, so a
               crash-restart of a promoted replica recovers from it plus
               whatever chunks were streamed afterwards. *)
            Wal.write_all d.ck framed;
            Wal.write_all d.wal "";
            d.commits_since_ck <- 0;
            d.seen_txns <- 0;
            d.seen_records <- 0;
            true
          end
          else false)

(* Apply one shipped WAL chunk on a follower: append it to the follower's
   own log (so promotion can replay the tail through the normal recovery
   path), redo its records, and advance the follower's LSN to the chunk's
   sequence number.  The shipper guarantees in-order, gap-free delivery. *)
let apply_replicated t ~lsn records =
  match t.dur with
  | None -> invalid_arg "Database.apply_replicated: durability is off"
  | Some d -> (
      match List.rev records with
      | Wal.Prepare gtid :: _ ->
          (* Forced-but-undecided chunk from a replicated shard primary:
             append it (so a promotion replays it as in-doubt through the
             normal recovery path) but keep the heap untouched until the
             phase-2 decision.  Registering the gtid in [prepared] blocks
             checkpoints exactly as it does on the primary. *)
          Wal.append_records d.wal records;
          if gtid >= d.next_txn then d.next_txn <- gtid + 1;
          Hashtbl.replace d.pending_repl gtid records;
          Hashtbl.replace d.prepared gtid None;
          d.lsn <- lsn
      | [ Wal.Commit gtid ] when Hashtbl.mem d.pending_repl gtid ->
          (* Phase-2 completion marker for a stashed chunk: the decision
             was COMMIT, so apply the redo images (and token) now. *)
          let recs = Hashtbl.find d.pending_repl gtid in
          Wal.append_records d.wal records;
          List.iter (apply_record t d) recs;
          Hashtbl.remove d.pending_repl gtid;
          Hashtbl.remove d.prepared gtid;
          d.lsn <- lsn;
          d.commits_since_ck <- d.commits_since_ck + 1;
          maybe_checkpoint t d
      | _ ->
          Wal.append_records d.wal records;
          List.iter
            (fun r ->
              (match r with
              | Wal.Commit id | Wal.Begin id ->
                  if id >= d.next_txn then d.next_txn <- id + 1
              | _ -> ());
              apply_record t d r)
            records;
          d.lsn <- lsn;
          d.commits_since_ck <- d.commits_since_ck + 1;
          maybe_checkpoint t d)

(* --- fingerprinting ------------------------------------------------------ *)

let fingerprint t =
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tables name with
      | None -> ()
      | Some tbl ->
          Buffer.add_string b name;
          Buffer.add_char b '#';
          Buffer.add_string b (string_of_int (Table.heap_length tbl));
          Buffer.add_char b '\n';
          Table.iter_slots
            (fun rid row ->
              match row with
              | None -> ()
              | Some row ->
                  Buffer.add_string b (string_of_int rid);
                  Array.iter
                    (fun v ->
                      Buffer.add_char b '|';
                      Buffer.add_string b (Value.to_string v))
                    row;
                  Buffer.add_char b '\n')
            tbl)
    t.order;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- catalog ------------------------------------------------------------- *)

let create_table t schema =
  let name = Schema.name schema in
  if Hashtbl.mem t.tables name then error "table %s already exists" name;
  Hashtbl.replace t.tables name (Table.create schema);
  t.order <- t.order @ [ name ];
  wal_ddl t (Wal.Create_table schema)

let create_index t ~table ~column =
  match Hashtbl.find_opt t.tables table with
  | None -> error "no such table: %s" table
  | Some tbl -> (
      (try Table.create_index tbl column
       with Not_found -> error "no such column: %s.%s" table column);
      wal_ddl t (Wal.Create_index { table; column; ordered = false }))

let create_ordered_index t ~table ~column =
  match Hashtbl.find_opt t.tables table with
  | None -> error "no such table: %s" table
  | Some tbl -> (
      (try Table.create_ordered_index tbl column
       with Not_found -> error "no such column: %s.%s" table column);
      wal_ddl t (Wal.Create_index { table; column; ordered = true }))

let table t name = Hashtbl.find_opt t.tables name
let table_names t = t.order

let row_count t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> Table.row_count tbl
  | None -> 0

let in_txn t = t.txn <> None

let atomically ?token t f =
  match t.txn with
  | Some _ -> f () (* the client's transaction already provides atomicity *)
  | None ->
      let txn = Txn.create () in
      t.txn <- Some txn;
      let finish () = t.txn <- None in
      (match f () with
      | v ->
          let entries = Txn.entries txn in
          Txn.commit txn;
          finish ();
          wal_commit ?token t entries;
          v
      | exception e ->
          Txn.rollback txn;
          finish ();
          raise e)

(* --- two-phase commit: the participant side ------------------------------ *)

let set_in_doubt_resolver t resolve = t.in_doubt <- resolve

let dtxn_begin t =
  if t.dur = None then invalid_arg "Database.dtxn_begin: durability is off";
  if t.txn <> None then error "dtxn_begin: a transaction is already open";
  t.txn <- Some (Txn.create ())

let dtxn_prepare ?token t ~gtid =
  match (t.dur, t.txn) with
  | None, _ -> invalid_arg "Database.dtxn_prepare: durability is off"
  | _, None -> invalid_arg "Database.dtxn_prepare: no open transaction"
  | Some d, Some txn ->
      let sets = sets_of_entries (Txn.entries txn) in
      if sets = [] && token = None then begin
        (* Nothing to force: vote read-only and drop out of the protocol —
           the coordinator neither logs this shard nor sends it phase 2. *)
        Txn.commit txn;
        t.txn <- None;
        false
      end
      else begin
        (* Force the redo images and the PREPARE marker to the log, but
           keep the transaction's heap effects pending: a crash after this
           point leaves the chunk in doubt, resolved by the coordinator's
           decision log at recovery. *)
        if gtid >= d.next_txn then d.next_txn <- gtid + 1;
        let toks = match token with None -> [] | Some k -> [ Wal.Token k ] in
        let chunk = (Wal.Begin gtid :: sets) @ toks @ [ Wal.Prepare gtid ] in
        Wal.append_records d.wal chunk;
        Hashtbl.replace d.prepared gtid token;
        (* Replicated shard: the forced chunk takes an LSN and ships to
           the followers, so a prepared-but-undecided transaction survives
           a primary failover (the promoted follower replays it as
           in-doubt and resolves through the decision log). *)
        if d.ship_prepares then begin
          d.lsn <- d.lsn + 1;
          fire_tap t d chunk
        end;
        true
      end

let dtxn_commit t ~gtid =
  match (t.dur, t.txn) with
  | None, _ -> invalid_arg "Database.dtxn_commit: durability is off"
  | _, None -> invalid_arg "Database.dtxn_commit: no prepared transaction"
  | Some d, Some txn ->
      (match Hashtbl.find_opt d.prepared gtid with
      | None -> invalid_arg "Database.dtxn_commit: transaction is not prepared"
      | Some token ->
          (* The completion marker makes the decision self-describing on
             this shard: the next recovery applies the chunk without
             consulting the resolver. *)
          Wal.append_records d.wal [ Wal.Commit gtid ];
          Txn.commit txn;
          t.txn <- None;
          (match token with
          | Some k -> Tokens.add d.tokens k
          | None -> ());
          Hashtbl.remove d.prepared gtid;
          d.lsn <- d.lsn + 1;
          if d.ship_prepares then fire_tap t d [ Wal.Commit gtid ];
          d.commits_since_ck <- d.commits_since_ck + 1;
          maybe_checkpoint t d)

let dtxn_abort t ~gtid =
  (* Presumed abort: no WAL record — the absence of a coordinator decision
     is the abort record, and the dead [Begin .. Prepare] chunk (if phase 1
     got that far) is simply never applied by recovery. *)
  (match t.txn with Some txn -> Txn.rollback txn | None -> ());
  t.txn <- None;
  match t.dur with None -> () | Some d -> Hashtbl.remove d.prepared gtid

let dtxn_commit_1pc ?token t ~gtid =
  match (t.dur, t.txn) with
  | None, _ -> invalid_arg "Database.dtxn_commit_1pc: durability is off"
  | _, None -> invalid_arg "Database.dtxn_commit_1pc: no open transaction"
  | Some d, Some txn ->
      let sets = sets_of_entries (Txn.entries txn) in
      Txn.commit txn;
      t.txn <- None;
      if sets = [] && token = None then ()
      else begin
        (* Single-participant fast path: a plain committed chunk under the
           coordinator-allocated id, skipping PREPARE and the decision
           record entirely. *)
        if gtid >= d.next_txn then d.next_txn <- gtid + 1;
        let toks =
          match token with
          | None -> []
          | Some k ->
              Tokens.add d.tokens k;
              [ Wal.Token k ]
        in
        let chunk = (Wal.Begin gtid :: sets) @ toks @ [ Wal.Commit gtid ] in
        Wal.append_records d.wal chunk;
        d.lsn <- d.lsn + 1;
        fire_tap t d chunk;
        d.commits_since_ck <- d.commits_since_ck + 1;
        maybe_checkpoint t d
      end

let prepared_txns t =
  match t.dur with
  | None -> []
  | Some d ->
      List.sort compare (Hashtbl.fold (fun g _ acc -> g :: acc) d.prepared [])

let next_txn_id t = match t.dur with None -> 0 | Some d -> d.next_txn

let catalog t : Executor.catalog =
  {
    find_table = (fun name -> Hashtbl.find_opt t.tables name);
    add_table = (fun schema -> create_table t schema);
  }

let is_dml = function
  | Sloth_sql.Ast.Insert _ | Sloth_sql.Ast.Update _ | Sloth_sql.Ast.Delete _ ->
      true
  | _ -> false

let exec t stmt =
  match stmt with
  | Sloth_sql.Ast.Begin_txn ->
      if t.txn <> None then error "nested transactions are not supported";
      t.txn <- Some (Txn.create ());
      { rs = Result_set.empty; rows_affected = 0; cost_ms = t.cost.fixed_ms }
  | Sloth_sql.Ast.Commit ->
      (match t.txn with
      | Some txn ->
          let entries = Txn.entries txn in
          Txn.commit txn;
          t.txn <- None;
          wal_commit t entries
      | None -> () (* COMMIT outside a transaction is a no-op *));
      t.txn <- None;
      { rs = Result_set.empty; rows_affected = 0; cost_ms = t.cost.fixed_ms }
  | Sloth_sql.Ast.Rollback ->
      (match t.txn with
      | Some txn -> Txn.rollback txn
      | None -> ());
      t.txn <- None;
      { rs = Result_set.empty; rows_affected = 0; cost_ms = t.cost.fixed_ms }
  | _ when t.txn = None && t.dur <> None && is_dml stmt -> (
      (* Autocommitted write under durability: run it in an ephemeral
         transaction so its redo records reach the log as one committed
         unit (and a failing statement is rolled back whole rather than
         left half-applied). *)
      let txn = Txn.create () in
      match
        Executor.execute (catalog t) ~log:(fun e -> Txn.log txn e)
          ~mode:(mode t) ~model:t.cost stmt
      with
      | { rs; rows_scanned; rows_affected } ->
          let entries = Txn.entries txn in
          Txn.commit txn;
          wal_commit t entries;
          let cost_ms =
            Cost.query_ms t.cost ~rows_scanned
              ~rows_returned:(Result_set.num_rows rs)
          in
          { rs; rows_affected; cost_ms }
      | exception Executor.Sql_error msg ->
          Txn.rollback txn;
          error "%s" msg)
  | _ -> (
      let log = Option.map (fun txn e -> Txn.log txn e) t.txn in
      match Executor.execute (catalog t) ?log ~mode:(mode t) ~model:t.cost stmt with
      | { rs; rows_scanned; rows_affected } ->
          let cost_ms =
            Cost.query_ms t.cost ~rows_scanned
              ~rows_returned:(Result_set.num_rows rs)
          in
          { rs; rows_affected; cost_ms }
      | exception Executor.Sql_error msg -> error "%s" msg)

(* Core of every batched read path: probe the result cache, execute the
   misses as one (possibly MQO-merged) group, fill the cache from the
   misses, and stitch outcomes back in input order.  The cache is bypassed
   inside an open transaction — uncommitted heap state must never be
   published to later flushes — and a hit reports [rows_scanned = 0],
   mirroring the sharing accounting (somebody already paid for these
   rows). *)
let exec_reads_core t selects : Executor.outcome list =
  let cache = if t.txn = None then t.cache else None in
  let probed =
    List.map
      (fun s ->
        match cache with
        | None -> (s, None, None)
        | Some c ->
            let key = Sloth_sql.Normalize.key (Sloth_sql.Ast.Select s) in
            let versions =
              List.map
                (fun name ->
                  match Hashtbl.find_opt t.tables name with
                  | Some tbl -> (name, Table.version tbl)
                  | None -> (name, -1))
                (Mqo.referenced_tables s)
            in
            (s, Some (key, versions), Result_cache.find c ~key ~current_versions:versions))
      selects
  in
  let misses =
    List.filter_map
      (fun (s, _, hit) -> if hit = None then Some s else None)
      probed
  in
  let outs =
    Executor.execute_reads (catalog t) ~mode:(mode t) ~model:t.cost ~mqo:t.mqo
      ~stats:t.share misses
  in
  let rec stitch probed outs =
    match (probed, outs) with
    | [], [] -> []
    | (_, _, Some rs) :: rest, outs ->
        { Executor.rs; rows_scanned = 0; rows_affected = 0 }
        :: stitch rest outs
    | (_, info, None) :: rest, (o : Executor.outcome) :: outs ->
        (match (info, cache) with
        | Some (key, versions), Some c ->
            Result_cache.store c ~key ~versions o.Executor.rs
        | _ -> ());
        o :: stitch rest outs
    | _ -> assert false
  in
  stitch probed outs

(* Execute a whole batch.  With the planner on, maximal runs of consecutive
   SELECTs go through {!Executor.execute_reads} together so identical
   statements execute once and compatible sequential scans share one heap
   pass; writes and transaction control run through {!exec} as barriers
   between the read runs.  Outcomes come back in statement order. *)
let exec_batch t stmts =
  if not t.planner then List.map (exec t) stmts
  else begin
    let outcome_of_read (o : Executor.outcome) =
      {
        rs = o.rs;
        rows_affected = o.rows_affected;
        cost_ms =
          Cost.query_ms t.cost ~rows_scanned:o.rows_scanned
            ~rows_returned:(Result_set.num_rows o.rs);
      }
    in
    let flush_reads pending acc =
      match pending with
      | [] -> acc
      | _ -> (
          let selects = List.rev pending in
          match exec_reads_core t selects with
          | outs -> List.rev_append (List.map outcome_of_read outs) acc
          | exception Executor.Sql_error msg -> error "%s" msg)
    in
    let rec go pending acc = function
      | [] -> List.rev (flush_reads pending acc)
      | Sloth_sql.Ast.Select s :: rest -> go (s :: pending) acc rest
      | stmt :: rest ->
          let acc = flush_reads pending acc in
          go [] (exec t stmt :: acc) rest
    in
    go [] [] stmts
  end

(* Execute a group of SELECTs through the multi-query read path and report
   how many rows each one actually scanned — the admission layer's entry
   point: a cross-session flush concatenates every waiting session's reads,
   calls this once, and splits the outcomes back per batch.  The planner
   toggle is respected; [Direct] mode plans each statement independently,
   which is the differential oracle for cross-client sharing. *)
let exec_reads t selects =
  match exec_reads_core t selects with
  | outs ->
      List.map
        (fun (o : Executor.outcome) ->
          ( {
              rs = o.rs;
              rows_affected = o.rows_affected;
              cost_ms =
                Cost.query_ms t.cost ~rows_scanned:o.rows_scanned
                  ~rows_returned:(Result_set.num_rows o.rs);
            },
            o.rows_scanned ))
        outs
  | exception Executor.Sql_error msg -> error "%s" msg

let exec_sql t sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> exec t stmt
  | exception Sloth_sql.Parser.Error msg -> error "parse error: %s" msg

let query t sql = (exec_sql t sql).rs
