(* Framed redo log.  Frame layout: 4-byte big-endian payload length,
   4-byte Adler-32 of the payload, then the payload.  Scanning stops at the
   first incomplete or checksum-failing frame, so a torn tail (the crash
   landed mid-append) is silently discarded instead of poisoning replay. *)

type store =
  | Mem of Buffer.t
  | File of string

let mem () = Mem (Buffer.create 1024)
let file path = File path

let contents = function
  | Mem b -> Buffer.contents b
  | File path ->
      if Sys.file_exists path then
        In_channel.with_open_bin path In_channel.input_all
      else ""

let append store s =
  match store with
  | Mem b -> Buffer.add_string b s
  | File path ->
      let oc =
        Out_channel.open_gen
          [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 path
      in
      Fun.protect
        ~finally:(fun () -> Out_channel.close oc)
        (fun () ->
          Out_channel.output_string oc s;
          Out_channel.flush oc)

let write_all store s =
  match store with
  | Mem b ->
      Buffer.clear b;
      Buffer.add_string b s
  | File path ->
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc s);
      Sys.rename tmp path

let length = function
  | Mem b -> Buffer.length b
  | File path ->
      if Sys.file_exists path then
        In_channel.with_open_bin path (fun ic ->
            Int64.to_int (In_channel.length ic))
      else 0

let is_empty store = length store = 0

(* Adler-32 with deferred reduction: 5552 is the longest run of bytes
   whose unreduced sums stay below 2^32 (zlib's NMAX), so the two [mod]s
   are paid once per block instead of once per byte.  The result is the
   plain bytewise Adler-32. *)
let adler_base = 65521
let adler_nmax = 5552

let checksum s =
  let len = String.length s in
  let a = ref 1 and b = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + adler_nmax) in
    for j = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod adler_base;
    b := !b mod adler_base;
    i := stop
  done;
  (!b lsl 16) lor !a

(* zlib's adler32_combine: the checksum of [x ^ y] from [checksum x],
   [checksum y] and [String.length y]. *)
let checksum_combine sum1 sum2 len2 =
  let rem = len2 mod adler_base in
  let a1 = sum1 land 0xffff and b1 = (sum1 lsr 16) land 0xffff in
  let a2 = sum2 land 0xffff and b2 = (sum2 lsr 16) land 0xffff in
  let a = (a1 + a2 + adler_base - 1) mod adler_base in
  let b = ((rem * a1) + b1 + b2 + adler_base - rem) mod adler_base in
  (b lsl 16) lor a

(* A frame is an 8-byte header (payload length, then checksum) followed by
   the payload.  The payload arrives as pieces, each with its checksum, so
   a frame can be emitted without ever building its payload as one string
   or scanning it again. *)
let emit_frame add pieces =
  let len, sum =
    List.fold_left
      (fun (len, sum) (s, s_sum) ->
        let n = String.length s in
        (len + n, checksum_combine sum s_sum n))
      (0, 1) pieces
  in
  let h = Bytes.create 8 in
  Bytes.set_int32_be h 0 (Int32.of_int len);
  Bytes.set_int32_be h 4 (Int32.of_int sum);
  add (Bytes.unsafe_to_string h);
  List.iter (fun (s, _) -> add s) pieces

let write_frame store pieces =
  match store with
  | Mem b ->
      Buffer.clear b;
      emit_frame (Buffer.add_string b) pieces
  | File path ->
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc ->
          emit_frame (Out_channel.output_string oc) pieces);
      Sys.rename tmp path

module Codec = struct
  exception Corrupt

  let put_int b n = Buffer.add_int64_be b (Int64.of_int n)

  let put_string b s =
    put_int b (String.length s);
    Buffer.add_string b s

  let put_value b = function
    | Value.Null -> Buffer.add_char b '\000'
    | Value.Int n ->
        Buffer.add_char b '\001';
        put_int b n
    | Value.Float f ->
        Buffer.add_char b '\002';
        Buffer.add_int64_be b (Int64.bits_of_float f)
    | Value.Text s ->
        Buffer.add_char b '\003';
        put_string b s
    | Value.Bool v -> Buffer.add_char b (if v then '\005' else '\004')

  let put_row_opt b = function
    | None -> Buffer.add_char b '\000'
    | Some row ->
        Buffer.add_char b '\001';
        put_int b (Array.length row);
        Array.iter (put_value b) row

  let col_type_tag = function
    | Sloth_sql.Ast.T_int -> '\000'
    | Sloth_sql.Ast.T_float -> '\001'
    | Sloth_sql.Ast.T_text -> '\002'
    | Sloth_sql.Ast.T_bool -> '\003'

  let col_type_of_tag = function
    | '\000' -> Sloth_sql.Ast.T_int
    | '\001' -> Sloth_sql.Ast.T_float
    | '\002' -> Sloth_sql.Ast.T_text
    | '\003' -> Sloth_sql.Ast.T_bool
    | _ -> raise Corrupt

  let put_schema b schema =
    put_string b (Schema.name schema);
    (match Schema.primary_key schema with
    | None -> Buffer.add_char b '\000'
    | Some pk ->
        Buffer.add_char b '\001';
        put_string b pk);
    let cols = Schema.columns schema in
    put_int b (List.length cols);
    List.iter
      (fun (c : Schema.column) ->
        put_string b c.name;
        Buffer.add_char b (col_type_tag c.ty);
        Buffer.add_char b (if c.nullable then '\001' else '\000'))
      cols

  type reader = { src : string; mutable pos : int }

  let reader src = { src; pos = 0 }
  let at_end r = r.pos >= String.length r.src

  let get_byte r =
    if r.pos >= String.length r.src then raise Corrupt;
    let c = r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let get_int r =
    if r.pos + 8 > String.length r.src then raise Corrupt;
    let n = Int64.to_int (String.get_int64_be r.src r.pos) in
    r.pos <- r.pos + 8;
    n

  let get_string r =
    let len = get_int r in
    if len < 0 || r.pos + len > String.length r.src then raise Corrupt;
    let s = String.sub r.src r.pos len in
    r.pos <- r.pos + len;
    s

  let get_value r =
    match get_byte r with
    | '\000' -> Value.Null
    | '\001' -> Value.Int (get_int r)
    | '\002' ->
        if r.pos + 8 > String.length r.src then raise Corrupt;
        let f = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
        r.pos <- r.pos + 8;
        Value.Float f
    | '\003' -> Value.Text (get_string r)
    | '\004' -> Value.Bool false
    | '\005' -> Value.Bool true
    | _ -> raise Corrupt

  let get_row_opt r =
    match get_byte r with
    | '\000' -> None
    | '\001' ->
        let n = get_int r in
        if n < 0 || n > 4096 then raise Corrupt;
        Some (Array.init n (fun _ -> get_value r))
    | _ -> raise Corrupt

  let get_schema r =
    let name = get_string r in
    let pk =
      match get_byte r with
      | '\000' -> None
      | '\001' -> Some (get_string r)
      | _ -> raise Corrupt
    in
    let n = get_int r in
    if n < 0 || n > 4096 then raise Corrupt;
    let cols =
      List.init n (fun _ ->
          let cname = get_string r in
          let ty = col_type_of_tag (get_byte r) in
          let nullable = get_byte r = '\001' in
          { Schema.name = cname; ty; nullable })
    in
    match Schema.create ~name ?primary_key:pk cols with
    | s -> s
    | exception Invalid_argument _ -> raise Corrupt

  let frame_pieces pieces =
    let b =
      Buffer.create
        (List.fold_left (fun n (s, _) -> n + String.length s) 8 pieces)
    in
    emit_frame (Buffer.add_string b) pieces;
    Buffer.contents b

  let frame payload = frame_pieces [ (payload, checksum payload) ]

  let unframe bytes pos =
    let total = String.length bytes in
    if pos + 8 > total then None
    else
      let len = Int32.to_int (String.get_int32_be bytes pos) in
      let sum = Int32.to_int (String.get_int32_be bytes (pos + 4)) in
      if len < 0 || pos + 8 + len > total then None
      else
        let payload = String.sub bytes (pos + 8) len in
        if checksum payload land 0xffffffff <> sum land 0xffffffff then None
        else Some (payload, pos + 8 + len)
end

type record =
  | Begin of int
  | Commit of int
  | Set of { table : string; rid : int; row : Value.t array option }
  | Create_table of Schema.t
  | Create_index of { table : string; column : string; ordered : bool }
  | Token of string
  | Prepare of int
  | Decision of { gtid : int; participants : int list }

let encode_record r =
  let b = Buffer.create 64 in
  (match r with
  | Begin id ->
      Buffer.add_char b '\001';
      Codec.put_int b id
  | Commit id ->
      Buffer.add_char b '\002';
      Codec.put_int b id
  | Set { table; rid; row } ->
      Buffer.add_char b '\003';
      Codec.put_string b table;
      Codec.put_int b rid;
      Codec.put_row_opt b row
  | Create_table schema ->
      Buffer.add_char b '\004';
      Codec.put_schema b schema
  | Create_index { table; column; ordered } ->
      Buffer.add_char b '\005';
      Codec.put_string b table;
      Codec.put_string b column;
      Buffer.add_char b (if ordered then '\001' else '\000')
  | Token k ->
      Buffer.add_char b '\006';
      Codec.put_string b k
  | Prepare id ->
      Buffer.add_char b '\007';
      Codec.put_int b id
  | Decision { gtid; participants } ->
      Buffer.add_char b '\008';
      Codec.put_int b gtid;
      Codec.put_int b (List.length participants);
      List.iter (Codec.put_int b) participants);
  Codec.frame (Buffer.contents b)

let encode records = String.concat "" (List.map encode_record records)
let append_records store records = append store (encode records)

let decode_record payload =
  let r = Codec.reader payload in
  let record =
    match Codec.get_byte r with
    | '\001' -> Begin (Codec.get_int r)
    | '\002' -> Commit (Codec.get_int r)
    | '\003' ->
        let table = Codec.get_string r in
        let rid = Codec.get_int r in
        let row = Codec.get_row_opt r in
        Set { table; rid; row }
    | '\004' -> Create_table (Codec.get_schema r)
    | '\005' ->
        let table = Codec.get_string r in
        let column = Codec.get_string r in
        let ordered = Codec.get_byte r = '\001' in
        Create_index { table; column; ordered }
    | '\006' -> Token (Codec.get_string r)
    | '\007' -> Prepare (Codec.get_int r)
    | '\008' ->
        let gtid = Codec.get_int r in
        let n = Codec.get_int r in
        if n < 0 || n > 4096 then raise Codec.Corrupt;
        let participants = List.init n (fun _ -> Codec.get_int r) in
        Decision { gtid; participants }
    | _ -> raise Codec.Corrupt
  in
  if not (Codec.at_end r) then raise Codec.Corrupt;
  record

let scan bytes =
  let rec go acc pos =
    match Codec.unframe bytes pos with
    | None -> (List.rev acc, pos)
    | Some (payload, next) -> (
        match decode_record payload with
        | record -> go (record :: acc) next
        | exception Codec.Corrupt -> (List.rev acc, pos))
  in
  go [] 0
