module Table = Fisher92_report.Table

type ('row, 'line) shape = {
  sh_compute : Study.t Lazy.t -> 'row list;
  sh_lines : 'row -> 'line list;
  sh_columns : 'line Table.column list;
  sh_text : 'row list -> string;
}

type packed = Shape : ('row, 'line) shape -> packed

type t = {
  e_id : string;
  e_paper : string;
  e_descr : string;
  e_shape : packed;
}

let make_nested ~id ~paper ~descr ?title ?order ?footer ?text ~lines ~columns
    compute =
  let table rows =
    let sorted =
      match order with Some cmp -> List.sort cmp rows | None -> rows
    in
    (match title with Some t -> t ^ "\n" | None -> "")
    ^ Table.text columns (List.concat_map lines sorted)
    ^ match footer with Some f -> f rows | None -> ""
  in
  {
    e_id = id;
    e_paper = paper;
    e_descr = descr;
    e_shape =
      Shape
        {
          sh_compute = compute;
          sh_lines = lines;
          sh_columns = columns;
          sh_text = Option.value text ~default:table;
        };
  }

let make ~id ~paper ~descr ?title ?order ?footer ?text ~columns compute =
  make_nested ~id ~paper ~descr ?title ?order ?footer ?text
    ~lines:(fun r -> [ r ])
    ~columns compute

let render_text e study =
  let (Shape sh) = e.e_shape in
  sh.sh_text (sh.sh_compute study)

let render_tsv e study =
  let (Shape sh) = e.e_shape in
  Table.tsv sh.sh_columns (List.concat_map sh.sh_lines (sh.sh_compute study))

(* ---- registry ---- *)

let registered : t list ref = ref [] (* reversed *)

let register e =
  if List.exists (fun e' -> String.equal e'.e_id e.e_id) !registered then
    invalid_arg (Printf.sprintf "Experiment.register: duplicate %S" e.e_id);
  registered := e :: !registered

let all () = List.rev !registered
let ids () = List.map (fun e -> e.e_id) (all ())
let find id = List.find_opt (fun e -> String.equal e.e_id id) (all ())

let list_table () =
  Table.render
    ~header:[ "SECTION"; "PAPER"; "DESCRIPTION" ]
    (List.map (fun e -> [ e.e_id; e.e_paper; e.e_descr ]) (all ()))
