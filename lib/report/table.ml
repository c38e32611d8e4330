let inum n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + 8) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun k ch ->
      if k > 0 && (len - k) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let fnum ?(decimals = 1) x =
  if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else if Float.is_nan x then "nan"
  else if Float.abs x >= 10000.0 then inum (int_of_float (Float.round x))
  else Printf.sprintf "%.*f" decimals x

let pct x = Printf.sprintf "%.1f%%" x

let looks_numeric cell =
  cell <> ""
  && String.for_all
       (fun ch -> (ch >= '0' && ch <= '9') || String.contains "+-.,%infax " ch)
       cell

let render ~header rows =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri
      (fun c cell ->
        if c < cols then widths.(c) <- max widths.(c) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let emit_row row ~is_header =
    List.iteri
      (fun c cell ->
        if c > 0 then Buffer.add_string buf "  ";
        let w = if c < cols then widths.(c) else String.length cell in
        let pad = max 0 (w - String.length cell) in
        if (not is_header) && looks_numeric cell then begin
          Buffer.add_string buf (String.make pad ' ');
          Buffer.add_string buf cell
        end
        else begin
          Buffer.add_string buf cell;
          Buffer.add_string buf (String.make pad ' ')
        end)
      row;
    (* trim trailing spaces *)
    while
      Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) = ' '
    do
      Buffer.truncate buf (Buffer.length buf - 1)
    done;
    Buffer.add_char buf '\n'
  in
  emit_row header ~is_header:true;
  Buffer.add_string buf
    (String.concat "  "
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  Buffer.add_char buf '\n';
  List.iter (fun row -> emit_row row ~is_header:false) rows;
  Buffer.contents buf

(* ---- column specs ---- *)

type cell =
  | Str of string
  | Int of int
  | Count of int
  | Pct of float
  | Num of int * float
  | Fmt of (float -> string) * float
  | Split of string * string

let text_cell = function
  | Str s | Split (s, _) -> s
  | Int n -> string_of_int n
  | Count n -> inum n
  | Pct x -> pct x
  | Num (decimals, x) -> fnum ~decimals x
  | Fmt (f, x) -> f x

let tsv_cell = function
  | Str s | Split (_, s) -> s
  | Int n | Count n -> string_of_int n
  | Pct x | Num (_, x) | Fmt (_, x) -> Printf.sprintf "%.6g" x

let hide c = Split ("", tsv_cell c)

type 'row column = {
  header : string option;
  name : string option;
  cell : 'row -> cell;
}

let col header name cell = { header = Some header; name = Some name; cell }
let text_col header cell = { header = Some header; name = None; cell }
let tsv_col name cell = { header = None; name = Some name; cell }

let text columns rows =
  let cols = List.filter (fun c -> Option.is_some c.header) columns in
  render
    ~header:(List.filter_map (fun c -> c.header) cols)
    (List.map (fun r -> List.map (fun c -> text_cell (c.cell r)) cols) rows)

let tsv columns rows =
  let cols = List.filter (fun c -> Option.is_some c.name) columns in
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf (String.concat "\t" cells);
    Buffer.add_char buf '\n'
  in
  line (List.filter_map (fun c -> c.name) cols);
  List.iter (fun r -> line (List.map (fun c -> tsv_cell (c.cell r)) cols)) rows;
  Buffer.contents buf
