(* Tests for the durability subsystem: WAL framing and torn-tail detection,
   checkpointed recovery, server-crash injection at every leg, and
   exactly-once resume of idempotent batches across a crash. *)

module Db = Sloth_storage.Database
module Wal = Sloth_storage.Wal
module Rs = Sloth_storage.Result_set
module Vclock = Sloth_net.Vclock
module Link = Sloth_net.Link
module Fault = Sloth_net.Fault
module Conn = Sloth_driver.Connection

let some_records =
  [
    Wal.Begin 7;
    Wal.Set { table = "t"; rid = 3; row = Some [| Sloth_storage.Value.Int 1 |] };
    Wal.Set { table = "t"; rid = 4; row = None };
    Wal.Token "tok-1";
    Wal.Commit 7;
  ]

(* --- WAL framing ---------------------------------------------------------- *)

let test_wal_roundtrip () =
  let store = Wal.mem () in
  Wal.append_records store some_records;
  Wal.append_records store [ Wal.Begin 8; Wal.Commit 8 ];
  let records, valid = Wal.scan (Wal.contents store) in
  Alcotest.(check int)
    "all bytes valid" valid
    (String.length (Wal.contents store));
  Alcotest.(check bool)
    "records round-trip" true
    (records = some_records @ [ Wal.Begin 8; Wal.Commit 8 ])

let test_wal_torn_tail_every_offset () =
  let chunk1 = Wal.encode [ Wal.Begin 1; Wal.Commit 1 ] in
  let chunk2 = Wal.encode some_records in
  (* one record = one frame; tearing anywhere inside it must lose exactly
     this record and nothing before it *)
  let tail =
    Wal.encode
      [
        Wal.Set
          {
            table = "t";
            rid = 9;
            row =
              Some
                [| Sloth_storage.Value.Text "hello"; Sloth_storage.Value.Int 5 |];
          };
      ]
  in
  let base = chunk1 ^ chunk2 in
  let base_records, base_valid = Wal.scan base in
  Alcotest.(check int) "base fully valid" (String.length base) base_valid;
  (* Truncating the tail record at EVERY byte offset must leave exactly the
     complete prefix: same records, same valid length, no exception. *)
  for off = 0 to String.length tail - 1 do
    let log = base ^ String.sub tail 0 off in
    let records, valid = Wal.scan log in
    Alcotest.(check int)
      (Printf.sprintf "valid prefix at offset %d" off)
      (String.length base) valid;
    Alcotest.(check bool)
      (Printf.sprintf "records at offset %d" off)
      true
      (records = base_records)
  done;
  (* ... and the untruncated log parses in full. *)
  let _, valid = Wal.scan (base ^ tail) in
  Alcotest.(check int) "full log valid" (String.length (base ^ tail)) valid

let test_wal_corrupt_byte () =
  let chunk1 = Wal.encode [ Wal.Begin 1; Wal.Commit 1 ] in
  let chunk2 = Wal.encode some_records in
  let log = Bytes.of_string (chunk1 ^ chunk2) in
  (* flip a payload byte inside the second chunk: its checksum must fail *)
  let pos = String.length chunk1 + 9 in
  Bytes.set log pos (Char.chr (Char.code (Bytes.get log pos) lxor 0xff));
  let records, valid = Wal.scan (Bytes.to_string log) in
  Alcotest.(check int) "stops at corruption" (String.length chunk1) valid;
  Alcotest.(check bool) "keeps clean prefix" true
    (records = [ Wal.Begin 1; Wal.Commit 1 ])

let test_wal_garbage_resistant () =
  (* Arbitrary garbage must never raise, only yield an empty prefix. *)
  let garbage =
    [ ""; "x"; "\x00\x00\x00\x04ABCDEFGH"; String.make 64 '\xff' ]
  in
  List.iter
    (fun g ->
      let records, valid = Wal.scan g in
      Alcotest.(check bool) "no records from garbage" true (records = []);
      Alcotest.(check int) "no valid bytes" 0 valid)
    garbage

(* --- database recovery ---------------------------------------------------- *)

let seeded_durable ?(checkpoint_every = 0) () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE t (id INT NOT NULL, v TEXT NOT NULL, PRIMARY KEY (id))");
  Db.create_index db ~table:"t" ~column:"v";
  for i = 1 to 10 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  done;
  db

let test_recovery_replays_log () =
  let db = seeded_durable () in
  ignore (Db.exec_sql db "UPDATE t SET v = 'x' WHERE id = 3");
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 5");
  let before = Db.fingerprint db in
  Db.crash_restart db;
  Alcotest.(check string) "state survives crash" before (Db.fingerprint db);
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check bool) "no checkpoint used" false stats.Db.from_checkpoint;
  Alcotest.(check bool) "replayed txns" true (stats.Db.replayed_txns > 0);
  (* the secondary index was rebuilt, not just the heap *)
  let rs = Db.query db "SELECT id FROM t WHERE v = 'x'" in
  Alcotest.(check int) "index answers after recovery" 1 (Rs.num_rows rs)

let test_recovery_from_checkpoint () =
  let db = seeded_durable ~checkpoint_every:4 () in
  ignore (Db.exec_sql db "UPDATE t SET v = 'y' WHERE id = 1");
  let before = Db.fingerprint db in
  Db.crash_restart db;
  Alcotest.(check string) "state survives crash" before (Db.fingerprint db);
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check bool) "checkpoint used" true stats.Db.from_checkpoint;
  Alcotest.(check bool)
    "checkpoint bounds replay" true
    (stats.Db.replayed_txns <= 4)

let test_recovery_discards_uncommitted () =
  let db = seeded_durable () in
  let before = Db.fingerprint db in
  ignore (Db.exec_sql db "BEGIN");
  ignore (Db.exec_sql db "UPDATE t SET v = 'dirty' WHERE id = 2");
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 7");
  Db.crash_restart db;
  Alcotest.(check string)
    "open transaction vanishes" before (Db.fingerprint db)

let test_recovery_truncates_torn_tail () =
  let wal = Wal.mem () and ck = Wal.mem () in
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:0 ~wal ~checkpoint:ck db;
  ignore (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (1)");
  let clean = Wal.contents wal in
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (2)");
  (* tear the last commit's frame in half, as a crash mid-append would *)
  let torn = String.sub (Wal.contents wal) 0 (String.length clean + 5) in
  Wal.write_all wal torn;
  Db.crash_restart db;
  Alcotest.(check int) "only committed rows" 1 (Db.row_count db "t");
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check int) "tail truncated" 5 stats.Db.discarded_bytes;
  Alcotest.(check int)
    "log physically trimmed"
    (String.length clean)
    (String.length (Wal.contents wal));
  (* the trimmed log keeps accepting appends *)
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (3)");
  Db.crash_restart db;
  Alcotest.(check int) "append after trim" 2 (Db.row_count db "t")

let test_rid_stability_across_recovery () =
  (* rid allocation must continue where it left off, or replayed Set
     records and fresh inserts would collide *)
  let db = seeded_durable () in
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 10");
  Db.crash_restart db;
  ignore (Db.exec_sql db "INSERT INTO t (id, v) VALUES (11, 'v11')");
  let shadow = Db.create () in
  ignore
    (Db.exec_sql shadow
       "CREATE TABLE t (id INT NOT NULL, v TEXT NOT NULL, PRIMARY KEY (id))");
  Db.create_index shadow ~table:"t" ~column:"v";
  for i = 1 to 10 do
    ignore
      (Db.exec_sql shadow
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  done;
  ignore (Db.exec_sql shadow "DELETE FROM t WHERE id = 10");
  ignore (Db.exec_sql shadow "INSERT INTO t (id, v) VALUES (11, 'v11')");
  Alcotest.(check string)
    "same rids as an uncrashed run" (Db.fingerprint shadow) (Db.fingerprint db)

let test_crash_without_durability_wipes () =
  let db = Db.create () in
  ignore (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (1)");
  Db.crash_restart db;
  Alcotest.(check int) "everything was volatile" 0 (Db.row_count db "t");
  Alcotest.(check (list string)) "no tables left" [] (Db.table_names db)

let test_file_store_roundtrip () =
  let dir = Filename.temp_file "sloth_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let wal_path = Filename.concat dir "wal.log"
  and ck_path = Filename.concat dir "checkpoint.bin" in
  let before =
    let db = Db.create () in
    Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.file wal_path)
      ~checkpoint:(Wal.file ck_path) db;
    ignore
      (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
    for i = 1 to 7 do
      ignore
        (Db.exec_sql db (Printf.sprintf "INSERT INTO t (id) VALUES (%d)" i))
    done;
    Db.fingerprint db
  in
  (* a brand-new process: attach to the same files and recover *)
  let db2 = Db.create () in
  Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.file wal_path)
    ~checkpoint:(Wal.file ck_path) db2;
  Alcotest.(check string) "recovered from disk" before (Db.fingerprint db2);
  Sys.remove wal_path;
  Sys.remove ck_path;
  Sys.rmdir dir

(* --- crash injection through the connection ------------------------------- *)

let conn_setup ?(checkpoint_every = 2) () =
  let db = seeded_durable ~checkpoint_every () in
  let link = Link.create ~rtt_ms:0.5 (Vclock.create ()) in
  let conn = Conn.create db link in
  Conn.set_retry_policy conn Conn.Retry_policy.no_retry;
  (db, link, conn)

let batch =
  List.map Sloth_sql.Parser.parse
    [
      "INSERT INTO t (id, v) VALUES (11, 'v11')";
      "UPDATE t SET v = 'z' WHERE id = 1";
      "DELETE FROM t WHERE id = 9";
    ]

let crash_on ~leg (db, link, conn) =
  let pre = Db.fingerprint db in
  let fault = Fault.create (Fault.plan ()) in
  Fault.script fault ~first:1 ~last:1 Fault.Server_crash leg;
  Link.set_fault link (Some fault);
  (match Conn.execute_batch ~token:"tok" conn batch with
  | _ -> Alcotest.fail "crash did not surface"
  | exception Conn.Retries_exhausted { last; _ } ->
      Alcotest.(check string) "crash named" "server-crash" last);
  Link.set_fault link None;
  pre

let post_fingerprint () =
  let db = seeded_durable () in
  Db.atomically db (fun () -> List.iter (fun s -> ignore (Db.exec db s)) batch);
  Db.fingerprint db

let test_crash_request_leg () =
  let ((db, _, _) as s) = conn_setup () in
  let pre = crash_on ~leg:Fault.Request s in
  Alcotest.(check string) "nothing applied" pre (Db.fingerprint db)

let test_crash_mid_batch () =
  let ((db, _, _) as s) = conn_setup () in
  let pre = crash_on ~leg:(Fault.Mid_batch 2) s in
  Alcotest.(check string)
    "partial batch rolled back by recovery" pre (Db.fingerprint db);
  Alcotest.(check bool) "token not durable" false (Db.token_applied db "tok")

let test_crash_response_leg () =
  let ((db, _, _) as s) = conn_setup () in
  let _pre = crash_on ~leg:Fault.Response s in
  Alcotest.(check string)
    "batch committed before crash" (post_fingerprint ()) (Db.fingerprint db);
  Alcotest.(check bool) "token durable" true (Db.token_applied db "tok")

let test_resume_exactly_once () =
  (* whichever side of the batch the crash fell on, retransmitting the same
     token must land on exactly the post state *)
  List.iter
    (fun leg ->
      let ((db, link, _) as s) = conn_setup () in
      ignore (crash_on ~leg s);
      let conn2 = Conn.create db link in
      ignore (Conn.execute_batch ~token:"tok" conn2 batch);
      Alcotest.(check string)
        "retransmit converges on post state" (post_fingerprint ())
        (Db.fingerprint db);
      (* a second retransmit is also answered without re-applying *)
      ignore (Conn.execute_batch ~token:"tok" conn2 batch);
      Alcotest.(check string)
        "idempotent thereafter" (post_fingerprint ()) (Db.fingerprint db))
    [ Fault.Request; Fault.Mid_batch 1; Fault.Mid_batch 99; Fault.Response ]

(* Property: recovery truncates a torn tail, and the log accepts appends
   afterwards — a fresh scan yields exactly the surviving prefix followed
   by the new chunks, consumes every byte (no garbage embedded mid-log),
   and the LSN resumes monotonically, one per appended commit.  This is
   the contract WAL shipping leans on: a promoted replica replays its own
   tail and then appends its new reign's chunks to the same store. *)
let fuzz_wal_append_after_recovery =
  QCheck.Test.make ~count:200 ~name:"wal append after torn-tail recovery"
    QCheck.(
      triple (int_bound 12) (int_bound 500) (1 -- 10)
      |> set_print (fun (b, c, a) ->
             Printf.sprintf "before=%d cut_back=%d after=%d" b c a))
    (fun (n_before, cut_back, n_after) ->
      let wal = Wal.mem () in
      let db = Db.create () in
      Db.enable_durability ~checkpoint_every:0 ~wal ~checkpoint:(Wal.mem ())
        db;
      ignore
        (Db.exec_sql db
           "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
      let ddl_len = String.length (Wal.contents wal) in
      for i = 1 to n_before do
        ignore
          (Db.exec_sql db
             (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'a%d')" i i))
      done;
      let full = Wal.contents wal in
      let cut = max ddl_len (String.length full - cut_back) in
      Wal.write_all wal (String.sub full 0 cut);
      let prefix, _ = Wal.scan (String.sub full 0 cut) in
      let lsn_before = Db.current_lsn db in
      Db.crash_restart db;
      let lsn_rec = Db.current_lsn db in
      if lsn_rec > lsn_before then
        QCheck.Test.fail_reportf "recovery raised the lsn (%d -> %d)"
          lsn_before lsn_rec;
      let recs0, v0 = Wal.scan (Wal.contents wal) in
      if recs0 <> prefix then
        QCheck.Test.fail_reportf "recovery changed the surviving prefix";
      if v0 <> String.length (Wal.contents wal) then
        QCheck.Test.fail_reportf "recovery left torn bytes in the store";
      for i = 1 to n_after do
        ignore
          (Db.exec_sql db
             (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'b%d')"
                (1000 + i) i))
      done;
      if Db.current_lsn db <> lsn_rec + n_after then
        QCheck.Test.fail_reportf
          "lsn not monotonic by chunk: %d after %d + %d appends"
          (Db.current_lsn db) lsn_rec n_after;
      let recs, valid = Wal.scan (Wal.contents wal) in
      if valid <> String.length (Wal.contents wal) then
        QCheck.Test.fail_reportf "appended log does not scan to the end";
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      if take (List.length prefix) recs <> prefix then
        QCheck.Test.fail_reportf "appends disturbed the recovered prefix";
      let commits l =
        List.length (List.filter (function Wal.Commit _ -> true | _ -> false) l)
      in
      if commits recs <> commits prefix + n_after then
        QCheck.Test.fail_reportf "expected %d new committed chunks" n_after;
      true)

(* Property: two logical streams on separate stores — a data WAL carrying
   [Begin .. Prepare/Commit] chunks and a decision log carrying [Decision]
   records — never cross-corrupt, however their appends interleave.  Each
   store scans to exactly what was appended to it, and a torn tail on one
   (truncated to an arbitrary byte cut) still scans to a frame-aligned
   prefix of its own stream while the other store stays byte-intact.  This
   is the isolation the sharded deployment leans on: every shard's WAL and
   the coordinator's decision log are independent failure domains. *)
let fuzz_two_stream_isolation =
  QCheck.Test.make ~count:200 ~name:"two-stream wal isolation"
    QCheck.(
      triple (1 -- 12) (int_bound 300) bool
      |> set_print (fun (n, c, d) ->
             Printf.sprintf "chunks=%d cut_back=%d tear_data=%b" n c d))
    (fun (n_chunks, cut_back, tear_data) ->
      let data = Wal.mem () and decisions = Wal.mem () in
      let expect_data = ref [] and expect_dec = ref [] in
      for i = 1 to n_chunks do
        let chunk =
          [
            Wal.Begin i;
            Wal.Set
              {
                table = "t";
                rid = i;
                row = Some [| Sloth_storage.Value.Int i |];
              };
          ]
          @ (if i mod 4 = 0 then [ Wal.Token (Printf.sprintf "tok-%d" i) ]
             else [])
          @ [ (if i mod 3 = 0 then Wal.Prepare i else Wal.Commit i) ]
        in
        Wal.append_records data chunk;
        expect_data := !expect_data @ chunk;
        if i mod 2 = 0 then begin
          let d = [ Wal.Decision { gtid = i; participants = [ 0; i mod 4 ] } ] in
          Wal.append_records decisions d;
          expect_dec := !expect_dec @ d
        end
      done;
      let check_intact store expected label =
        let recs, valid = Wal.scan (Wal.contents store) in
        if recs <> expected then
          QCheck.Test.fail_reportf "%s stream altered by the other" label;
        if valid <> String.length (Wal.contents store) then
          QCheck.Test.fail_reportf "%s stream does not scan to the end" label
      in
      check_intact data !expect_data "data";
      check_intact decisions !expect_dec "decision";
      (* tear one stream; the other must stay byte-intact *)
      let victim, survivor, v_expect, s_expect =
        if tear_data then (data, decisions, !expect_data, !expect_dec)
        else (decisions, data, !expect_dec, !expect_data)
      in
      let full = Wal.contents victim in
      let cut = max 0 (String.length full - cut_back) in
      Wal.write_all victim (String.sub full 0 cut);
      let torn_recs, torn_valid = Wal.scan (Wal.contents victim) in
      let rec is_prefix p l =
        match (p, l) with
        | [], _ -> true
        | x :: p', y :: l' -> x = y && is_prefix p' l'
        | _ -> false
      in
      if not (is_prefix torn_recs v_expect) then
        QCheck.Test.fail_reportf "torn scan is not a prefix of its stream";
      if torn_valid > cut then
        QCheck.Test.fail_reportf "torn scan claims more bytes than survived";
      check_intact survivor s_expect "surviving";
      true)

(* --- checksum -------------------------------------------------------------- *)

(* Bytewise Adler-32, reduced after every byte: the reference the fast
   deferred-reduction checksum must agree with exactly (the shard router
   hashes keys with it). *)
let reference_adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let test_checksum_reference () =
  Alcotest.(check int) "known vector" 0x11E60398 (Wal.checksum "Wikipedia");
  List.iter
    (fun len ->
      List.iter
        (fun s ->
          Alcotest.(check int)
            (Printf.sprintf "length %d" len)
            (reference_adler32 s) (Wal.checksum s))
        [
          String.make len '\255';
          String.init len (fun i ->
              Char.chr (((i * 131) + (i lsr 7)) land 0xff));
        ])
    [ 0; 1; 5551; 5552; 5553; 1 lsl 20 ]

let fuzz_checksum_combine =
  QCheck.Test.make ~count:200 ~name:"checksum combine"
    QCheck.(
      pair
        (string_of_size Gen.(0 -- 12000))
        (string_of_size Gen.(0 -- 12000)))
    (fun (a, b) ->
      Wal.checksum_combine (Wal.checksum a) (Wal.checksum b) (String.length b)
      = Wal.checksum (a ^ b))

(* --- incremental checkpoints ----------------------------------------------- *)

(* Property: a checkpoint re-encodes only the heap pages whose slots
   changed, yet its bytes equal a cold encoding of the same state.  Random
   inserts (bursts that span pages, some carrying idempotency tokens),
   updates, deletes and rolled-back transactions (which shrink the heap
   tail again) run against a durable engine checkpointing every third
   commit, with explicit checkpoints, crash-restarts and self-installed
   snapshots in between.  Whenever the log is empty the checkpoint store
   must describe the live state: installed into a fresh engine it yields
   the same fingerprint, LSN, transaction-id mark and tokens, and that
   fresh engine, whose page cache is empty, re-encodes it to the same
   bytes.  Every crash-restart leaves the fingerprint unchanged. *)
let fuzz_checkpoint_equivalence =
  QCheck.Test.make ~count:200 ~name:"incremental checkpoint = cold encoding"
    QCheck.(
      list_of_size Gen.(5 -- 60) (pair (int_bound 7) (int_bound 1000))
      |> set_print (fun ops ->
             String.concat " "
               (List.map (fun (k, n) -> Printf.sprintf "%d:%d" k n) ops)))
    (fun ops ->
      let fresh () =
        let db = Db.create () in
        Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.mem ())
          ~checkpoint:(Wal.mem ()) db;
        db
      in
      let ck = Wal.mem () in
      let db = Db.create () in
      Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.mem ()) ~checkpoint:ck
        db;
      List.iter
        (fun name ->
          ignore
            (Db.exec_sql db
               (Printf.sprintf
                  "CREATE TABLE %s (id INT NOT NULL, v TEXT, PRIMARY KEY (id))"
                  name)))
        [ "a"; "b" ];
      let next_id = ref 0 and tokens = ref [] in
      let sql s = ignore (Db.exec_sql db s) in
      let table n = if n mod 2 = 0 then "a" else "b" in
      let insert_burst n =
        for _ = 0 to n mod 40 do
          incr next_id;
          sql
            (Printf.sprintf "INSERT INTO %s (id, v) VALUES (%d, 'v%d')"
               (table n) !next_id n)
        done
      in
      let check_store step =
        let cold = fresh () in
        let bytes = Wal.contents ck in
        if not (Db.install_snapshot cold bytes) then
          QCheck.Test.fail_reportf "step %d: checkpoint frame is corrupt" step;
        if Db.fingerprint cold <> Db.fingerprint db then
          QCheck.Test.fail_reportf "step %d: checkpoint holds a stale heap"
            step;
        if
          Db.current_lsn cold <> Db.current_lsn db
          || Db.next_txn_id cold <> Db.next_txn_id db
          || List.exists
               (fun k -> Db.token_applied cold k <> Db.token_applied db k)
               !tokens
        then
          QCheck.Test.fail_reportf "step %d: checkpoint metadata differs" step;
        if Db.snapshot cold <> bytes then
          QCheck.Test.fail_reportf "step %d: bytes differ from a cold encoding"
            step
      in
      List.iteri
        (fun step (kind, n) ->
          (match kind with
          | 0 -> insert_burst n
          | 1 ->
              let token = Printf.sprintf "tok-%d" step in
              tokens := token :: !tokens;
              Db.atomically ~token db (fun () -> insert_burst n)
          | 2 ->
              sql
                (Printf.sprintf "UPDATE %s SET v = 'u%d' WHERE id = %d"
                   (table n) step
                   (n mod (!next_id + 1)))
          | 3 ->
              sql
                (Printf.sprintf "DELETE FROM %s WHERE id = %d" (table n)
                   (n mod (!next_id + 1)))
          | 4 ->
              let saved = !next_id in
              sql "BEGIN";
              insert_burst n;
              sql
                (Printf.sprintf "UPDATE %s SET v = 'x' WHERE id = %d"
                   (table (n + 1))
                   (n mod (saved + 1)));
              sql "ROLLBACK";
              next_id := saved
          | 5 -> Db.checkpoint_now db
          | 6 ->
              let before = Db.fingerprint db in
              Db.crash_restart db;
              if Db.fingerprint db <> before then
                QCheck.Test.fail_reportf "step %d: crash-restart lost state"
                  step
          | _ ->
              let before = Db.fingerprint db in
              if not (Db.install_snapshot db (Db.snapshot db)) then
                QCheck.Test.fail_reportf "step %d: snapshot did not install"
                  step;
              if Db.fingerprint db <> before then
                QCheck.Test.fail_reportf "step %d: snapshot changed the state"
                  step);
          if Db.wal_size db = 0 then check_store step)
        ops;
      true)

(* --- token registry -------------------------------------------------------- *)

module Sset = Set.Make (String)

(* The checkpoint's token section as the registry must encode it: the count
   of distinct tokens, then each once in ascending order. *)
let reference_token_section tokens =
  let sorted = List.sort_uniq String.compare tokens in
  let b = Buffer.create 1024 in
  Wal.Codec.put_int b (List.length sorted);
  List.iter (Wal.Codec.put_string b) sorted;
  Buffer.contents b

(* A checkpoint payload ends with the token section and then the
   transaction-id and LSN marks, 8 bytes each. *)
let token_section_of framed expected =
  match Wal.Codec.unframe framed 0 with
  | None -> None
  | Some (payload, _) ->
      let len = String.length expected and plen = String.length payload in
      if plen < len + 16 then None
      else Some (String.sub payload (plen - 16 - len) len)

(* Property: the sorted, paged token registry encodes exactly the tokens
   committed so far and answers membership for exactly those.  Histories
   mix single fresh tokens, duplicates, ascending bursts long enough to
   split pages, descending bursts that always land before the first token,
   tokens that are prefixes of one another, commits through the one-phase
   and two-phase participant paths, explicit checkpoints, crash-restarts
   and self-installed snapshots.  A follower fed by the commit tap (with
   prepares shipped) applies every token through the replication path.
   After every step both engines' snapshot token sections equal the
   reference encoding, and so does the checkpoint store whenever a
   checkpoint has just truncated the log.  After crashes, snapshots and at
   the end, [token_applied] agrees with the reference for every committed
   token and for near misses. *)
let fuzz_token_registry =
  QCheck.Test.make ~count:150 ~name:"paged token registry = sorted set"
    QCheck.(
      list_of_size Gen.(5 -- 50) (pair (int_bound 8) (int_bound 1000))
      |> set_print (fun ops ->
             String.concat " "
               (List.map (fun (k, n) -> Printf.sprintf "%d:%d" k n) ops)))
    (fun ops ->
      let durable ck =
        let db = Db.create () in
        Db.enable_durability ~checkpoint_every:4 ~wal:(Wal.mem ())
          ~checkpoint:ck db;
        db
      in
      let ck = Wal.mem () in
      let db = durable ck and follower = durable (Wal.mem ()) in
      Db.set_ship_prepares db true;
      Db.set_commit_tap db
        (Some (fun ~lsn recs -> Db.apply_replicated follower ~lsn recs));
      let committed = ref [] and gtid = ref 0 in
      let prefixes = [| ""; "s1:"; "s1:qs-batch-"; "s12:qs-batch-"; "t" |] in
      let token n = prefixes.(n mod Array.length prefixes) ^ string_of_int n in
      let commit k =
        committed := k :: !committed;
        Db.atomically ~token:k db (fun () -> ())
      in
      let next_gtid () =
        gtid := max (!gtid + 1) (Db.next_txn_id db);
        !gtid
      in
      let check_sections step =
        let expected = reference_token_section !committed in
        let check what framed =
          if token_section_of framed expected <> Some expected then
            QCheck.Test.fail_reportf "step %d: %s token section differs" step
              what
        in
        check "primary snapshot" (Db.snapshot db);
        check "follower snapshot" (Db.snapshot follower);
        if Db.wal_size db = 0 && not (Wal.is_empty ck) then
          check "checkpoint store" (Wal.contents ck)
      in
      let check_membership step =
        let reference = Sset.of_list !committed in
        Sset.iter
          (fun k ->
            List.iter
              (fun probe ->
                let expected = Sset.mem probe reference in
                if
                  Db.token_applied db probe <> expected
                  || Db.token_applied follower probe <> expected
                then
                  QCheck.Test.fail_reportf "step %d: token_applied %S <> %b"
                    step probe expected)
              [ k; k ^ "0"; String.sub k 0 (String.length k - 1) ])
          reference
      in
      List.iteri
        (fun step (kind, n) ->
          (match kind with
          | 0 -> commit (token n)
          | 1 -> (
              match !committed with
              | [] -> commit (token n)
              | l -> commit (List.nth l (n mod List.length l)))
          | 2 ->
              (* ascending: consecutive tokens crowd one page until it splits *)
              let base = token n in
              for j = 0 to n mod 150 do
                commit (Printf.sprintf "%s-%04d" base j)
              done
          | 3 ->
              (* descending below everything: each lands first in page 0 *)
              for j = n mod 150 downto 0 do
                commit (Printf.sprintf "!%04d-%d" j step)
              done
          | 4 ->
              let k = token n in
              committed := k :: !committed;
              Db.dtxn_begin db;
              Db.dtxn_commit_1pc ~token:k db ~gtid:(next_gtid ())
          | 5 ->
              let k = token n and g = next_gtid () in
              committed := k :: !committed;
              Db.dtxn_begin db;
              if not (Db.dtxn_prepare ~token:k db ~gtid:g) then
                QCheck.Test.fail_reportf "step %d: tokened prepare voted no"
                  step;
              Db.dtxn_commit db ~gtid:g
          | 6 -> Db.checkpoint_now db
          | 7 ->
              Db.crash_restart db;
              check_membership step
          | _ ->
              if not (Db.install_snapshot db (Db.snapshot db)) then
                QCheck.Test.fail_reportf "step %d: snapshot did not install"
                  step;
              check_membership step);
          check_sections step)
        ops;
      check_membership (List.length ops);
      true)

(* A checksum-valid payload whose token count is negative or larger than
   the payload could hold is corrupt: the install fails cleanly instead of
   raising or allocating for it. *)
let test_corrupt_token_count () =
  List.iter
    (fun n ->
      let b = Buffer.create 32 in
      List.iter (Wal.Codec.put_int b) [ 0; n; 0; 0 ];
      let db = Db.create () in
      Db.enable_durability ~wal:(Wal.mem ()) ~checkpoint:(Wal.mem ()) db;
      Alcotest.(check bool)
        (Printf.sprintf "token count %d" n)
        false
        (let payload = Buffer.contents b in
         Db.install_snapshot db
           (Wal.Codec.frame_pieces [ (payload, Wal.checksum payload) ])))
    [ -1; 5; max_int ]

(* Golden checkpoint: the MD5 of the checkpoint store after a fixed history
   is pinned, so a change to how checkpoints are built cannot change their
   bytes unnoticed.  The history covers two tables with a secondary and an
   ordered index, several heap pages, NULLs, floats, updates and deletes,
   a crash-restart and a self-installed snapshot, and some three hundred
   idempotency tokens with shared prefixes committed through the
   single-engine, one-phase and two-phase paths. *)
let golden_checkpoint_md5 = "31128c62f1f877e9954470929d956da2"

let test_golden_checkpoint () =
  let ck = Wal.mem () in
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:5 ~wal:(Wal.mem ()) ~checkpoint:ck db;
  let sql fmt = Printf.ksprintf (fun s -> ignore (Db.exec_sql db s)) fmt in
  sql
    "CREATE TABLE acct (id INT NOT NULL, owner TEXT, bal FLOAT, PRIMARY KEY \
     (id))";
  sql
    "CREATE TABLE ev (id INT NOT NULL, acct INT NOT NULL, note TEXT, PRIMARY \
     KEY (id))";
  Db.create_index db ~table:"ev" ~column:"acct";
  Db.create_ordered_index db ~table:"acct" ~column:"bal";
  for i = 1 to 150 do
    Db.atomically
      ~token:(Printf.sprintf "s%d:qs-batch-%d" (i mod 7) (i / 7))
      db
      (fun () ->
        if i mod 5 = 0 then
          sql "INSERT INTO acct (id, owner, bal) VALUES (%d, NULL, %d.5)" i
            (i * 37 mod 101)
        else
          sql "INSERT INTO acct (id, owner, bal) VALUES (%d, 'o%d', %d.25)" i
            i (i * 37 mod 101);
        sql "INSERT INTO ev (id, acct, note) VALUES (%d, %d, 'n%d')" i
          ((i * 13 mod 150) + 1)
          i)
  done;
  for i = 1 to 60 do
    Db.atomically ~token:(Printf.sprintf "s%d:upd-%d" (i mod 3) i) db
      (fun () ->
        if i mod 4 = 0 then sql "DELETE FROM ev WHERE id = %d" (i * 2)
        else sql "UPDATE acct SET bal = %d.75 WHERE id = %d" i (i * 2))
  done;
  Db.crash_restart db;
  for i = 1 to 80 do
    Db.dtxn_begin db;
    sql "UPDATE acct SET owner = 'x%d' WHERE id = %d" i i;
    let gtid = 1000 + i in
    if i mod 2 = 0 then
      Db.dtxn_commit_1pc ~token:(Printf.sprintf "2pc-%03d" i) db ~gtid
    else begin
      ignore
        (Db.dtxn_prepare ~token:(Printf.sprintf "2pc-%03d" i) db ~gtid);
      Db.dtxn_commit db ~gtid
    end
  done;
  if not (Db.install_snapshot db (Db.snapshot db)) then
    Alcotest.fail "snapshot did not install";
  for i = 1 to 20 do
    Db.atomically ~token:(Printf.sprintf "s1:late-%d" i) db (fun () ->
        sql "INSERT INTO ev (id, acct, note) VALUES (%d, %d, NULL)" (500 + i) i)
  done;
  Db.checkpoint_now db;
  Alcotest.(check string)
    "checkpoint digest" golden_checkpoint_md5
    (Digest.to_hex (Digest.string (Wal.contents ck)))

(* The recovery counters are per-call deltas: each crash reports only the
   work replayed beyond the previous recovery's watermark, and a checkpoint
   (which truncates the log) resets it. *)
let test_recovery_delta_stats () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:0 ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
  let insert i =
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  in
  let crash_delta () =
    Db.crash_restart db;
    match Db.last_recovery db with
    | Some s -> (s.Db.replayed_txns, s.Db.replayed_records)
    | None -> Alcotest.fail "no recovery stats"
  in
  insert 1;
  insert 2;
  insert 3;
  let txns, records = crash_delta () in
  Alcotest.(check int) "first crash replays the three commits" 3 txns;
  Alcotest.(check bool) "and their records" true (records > 0);
  Alcotest.(check (pair int int))
    "second crash with no new work replays nothing" (0, 0) (crash_delta ());
  insert 4;
  insert 5;
  Alcotest.(check int)
    "only the two new commits count" 2
    (fst (crash_delta ()));
  Db.checkpoint_now db;
  Alcotest.(check (pair int int))
    "a checkpoint resets the watermark" (0, 0) (crash_delta ());
  insert 6;
  let t6, r6 = crash_delta () in
  Alcotest.(check int) "and deltas resume after it" 1 t6;
  Alcotest.(check bool) "with its records" true (r6 > 0)

let () =
  Alcotest.run "recovery"
    [
      ( "wal framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "corrupt byte" `Quick test_wal_corrupt_byte;
          Alcotest.test_case "garbage resistant" `Quick
            test_wal_garbage_resistant;
          QCheck_alcotest.to_alcotest fuzz_wal_append_after_recovery;
          QCheck_alcotest.to_alcotest fuzz_two_stream_isolation;
          Alcotest.test_case "checksum matches bytewise adler-32" `Quick
            test_checksum_reference;
          QCheck_alcotest.to_alcotest fuzz_checksum_combine;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replays log" `Quick test_recovery_replays_log;
          Alcotest.test_case "per-call delta stats" `Quick
            test_recovery_delta_stats;
          Alcotest.test_case "from checkpoint" `Quick
            test_recovery_from_checkpoint;
          Alcotest.test_case "discards uncommitted" `Quick
            test_recovery_discards_uncommitted;
          Alcotest.test_case "truncates torn tail" `Quick
            test_recovery_truncates_torn_tail;
          Alcotest.test_case "rid stability" `Quick
            test_rid_stability_across_recovery;
          Alcotest.test_case "no durability wipes" `Quick
            test_crash_without_durability_wipes;
          Alcotest.test_case "file store" `Quick test_file_store_roundtrip;
          QCheck_alcotest.to_alcotest fuzz_checkpoint_equivalence;
          QCheck_alcotest.to_alcotest fuzz_token_registry;
          Alcotest.test_case "golden checkpoint bytes" `Quick
            test_golden_checkpoint;
          Alcotest.test_case "corrupt token count" `Quick
            test_corrupt_token_count;
        ] );
      ( "crash injection",
        [
          Alcotest.test_case "request leg" `Quick test_crash_request_leg;
          Alcotest.test_case "mid batch" `Quick test_crash_mid_batch;
          Alcotest.test_case "response leg" `Quick test_crash_response_leg;
          Alcotest.test_case "resume exactly once" `Quick
            test_resume_exactly_once;
        ] );
    ]
