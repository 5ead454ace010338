type t = { columns : string list; mutable rows_rev : string list list }

let create ~columns = { columns; rows_rev = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong cell count";
  t.rows_rev <- cells :: t.rows_rev

let add_float_row t ?(decimals = 3) label values =
  add_row t (label :: List.map (Printf.sprintf "%.*f" decimals) values)

let pivot ~column cells =
  let keys = List.sort_uniq compare (List.map (fun (_, key, _) -> key) cells) in
  let rows =
    List.fold_left
      (fun acc (row, _, _) -> if List.mem row acc then acc else acc @ [ row ])
      [] cells
  in
  let t = create ~columns:("variant" :: List.map column keys) in
  let value row key =
    match List.find_opt (fun (r, k, _) -> r = row && k = key) cells with
    | Some (_, _, value) -> value
    | None -> nan
  in
  List.iter
    (fun row -> add_float_row t ~decimals:2 row (List.map (value row) keys))
    rows;
  t

let to_string t =
  let rows = List.rev t.rows_rev in
  let all = t.columns :: rows in
  let width column_index =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row column_index)))
      0 all
  in
  let widths = List.mapi (fun i _ -> width i) t.columns in
  let render_row row =
    let cells =
      List.map2 (fun cell w -> Printf.sprintf "%-*s" w cell) row widths
    in
    String.concat "  " cells
  in
  let header = render_row t.columns in
  let rule = String.make (String.length header) '-' in
  String.concat "\n" ((header :: rule :: List.map render_row rows) @ [ "" ])

let print t = print_string (to_string t)

let csv_escape cell =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' -> true | _ -> false) cell
  in
  if needs_quoting then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let rows = List.rev t.rows_rev in
  let render row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (List.map render (t.columns :: rows)) ^ "\n"

