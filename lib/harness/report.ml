let section title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let subsection title = Printf.printf "\n--- %s ---\n" title

let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    List.init cols (fun c ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row c with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 all)
  in
  let print_row row =
    let cells =
      List.mapi
        (fun c cell ->
          let w = List.nth widths c in
          cell ^ String.make (w - String.length cell) ' ')
        row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let cdf_summary ~name xs =
  Printf.printf "  %-28s min %.2f  p25 %.2f  median %.2f  p75 %.2f  max %.2f\n"
    name (Cdf.minimum xs) (Cdf.percentile xs 25.0) (Cdf.median xs)
    (Cdf.percentile xs 75.0) (Cdf.maximum xs)

let cdf_series ~name xs =
  Printf.printf "  CDF %s:\n" name;
  List.iter
    (fun (frac, v) -> Printf.printf "    %3.0f%%  %.3f\n" (100.0 *. frac) v)
    (Cdf.cdf_points xs)

let bar ~label ?(width = 50) value ~max =
  let n =
    if max <= 0.0 then 0
    else int_of_float (Float.round (value /. max *. float_of_int width))
  in
  Printf.printf "  %-28s %s %.1f\n" label (String.make (Stdlib.max 0 n) '#') value

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Int of int
  | Float of int * float
  | Bool of bool
  | String of string
  | Obj of (string * json) list
  | List of json list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec inline = function
  | Int n -> string_of_int n
  | Float (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Bool b -> string_of_bool b
  | String s -> quote s
  | Obj fields ->
      let field (k, v) = quote k ^ ": " ^ inline v in
      "{" ^ String.concat ", " (List.map field fields) ^ "}"
  | List vs -> "[" ^ String.concat ", " (List.map inline vs) ^ "]"

(* Top-level keys one per line; a top-level list puts one element per line;
   everything below that renders inline. *)
let json_to_string fields =
  let top (k, v) =
    let body =
      match v with
      | List vs ->
          "[\n"
          ^ String.concat ",\n" (List.map (fun v -> "    " ^ inline v) vs)
          ^ "\n  ]"
      | v -> inline v
    in
    "  " ^ quote k ^ ": " ^ body
  in
  "{\n" ^ String.concat ",\n" (List.map top fields) ^ "\n}\n"

let write_json path fields =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_to_string fields);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    path
