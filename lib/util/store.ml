(* The one store behind the study cache, the trace files and the replay
   entries; see the interface for the file layout and the miss
   contract. *)

type kind = {
  suffix : string;
  tmp_prefix : string;
  version : string;
  dir : unit -> string;
  enabled : unit -> bool;
}

type key = {
  program : string;
  dataset : string;
  fingerprint : string;
  dshash : string;
  n_sites : int;
  extra : string list;
}

type 'a reader = key -> string list -> (string -> string list) -> 'a

(* The program name prefix is purely for humans; the hashes and the
   extra lines' digest make the name unique. *)
let path kind k =
  let digest =
    match k.extra with [] -> "" | extra -> "." ^ Fnv.hash_strings extra
  in
  Filename.concat (kind.dir ())
    (Printf.sprintf "%s.%s.%s%s%s" k.program k.fingerprint k.dshash digest
       kind.suffix)

(* ---- the key lines ---- *)

let field name l =
  let n = String.length name in
  if String.starts_with ~prefix:(name ^ " ") l then
    String.sub l (n + 1) (String.length l - n - 1)
  else Sectfile.failf 0 "expected %S field, got %S" name l

let int_field name l =
  match int_of_string_opt (field name l) with
  | Some n when n >= 0 -> n
  | Some _ | None -> Sectfile.failf 0 "bad %S count in %S" name l

let sized_field name l = Sectfile.parse_sized ~line:0 ~what:name (field name l)

let key_lines k =
  ("program " ^ Sectfile.sized k.program)
  :: ("dataset " ^ Sectfile.sized k.dataset)
  :: ("fingerprint " ^ k.fingerprint)
  :: ("dshash " ^ k.dshash)
  :: Printf.sprintf "sites %d" k.n_sites
  :: List.map (fun l -> "key " ^ Sectfile.sized l) k.extra

(* The inverse of [key_lines] over a meta section's body: the key and
   the meta lines after it. *)
let parse_key = function
  | prog :: ds :: fp :: dh :: sites :: rest ->
    let rec extra acc = function
      | l :: rest when String.starts_with ~prefix:"key " l ->
        extra (sized_field "key" l :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let extra, rest = extra [] rest in
    ( {
        program = sized_field "program" prog;
        dataset = sized_field "dataset" ds;
        fingerprint = field "fingerprint" fp;
        dshash = field "dshash" dh;
        n_sites = int_field "sites" sites;
        extra;
      },
      rest )
  | body -> Sectfile.failf 0 "meta section has %d lines" (List.length body)

let same_key a b =
  String.equal a.program b.program
  && String.equal a.dataset b.dataset
  && String.equal a.fingerprint b.fingerprint
  && String.equal a.dshash b.dshash
  && a.n_sites = b.n_sites
  && List.equal String.equal a.extra b.extra

(* ---- entry text ---- *)

let render kind k ~meta sections =
  let buf = Buffer.create 4096 in
  Sectfile.add_line buf kind.version;
  List.iter
    (fun (name, body) ->
      Sectfile.add_section buf ~header:name ~body ~end_tag:("end" ^ name))
    (("meta", key_lines k @ meta) :: sections);
  Sectfile.add_line buf "end";
  Buffer.contents buf

let parse kind text (read : _ reader) =
  (* [render] ends every entry with a newline, so a text without one
     was cut short, however whole its last line looks *)
  if not (String.ends_with ~suffix:"\n" text) then
    Sectfile.failf 0 "no newline after the last line";
  let c = Sectfile.cursor (Sectfile.split_lines text) in
  let section name =
    Sectfile.strict_section c ~header:name ~end_tag:("end" ^ name)
  in
  Sectfile.expect c kind.version;
  let k, meta = parse_key (section "meta") in
  let v = read k meta section in
  Sectfile.expect c "end";
  if not (Sectfile.at_end c) then Sectfile.failf 0 "trailing lines after end";
  v

(* ---- files ---- *)

let find kind k read =
  if not (kind.enabled ()) then None
  else
    match Sectfile.read_file (path kind k) with
    | exception (Sys_error _ | End_of_file) -> None
    | text -> (
      let checked stored meta section =
        if same_key stored k then read k meta section
        else Sectfile.failf 0 "entry recorded under another key"
      in
      match parse kind text checked with
      | v -> Some v
      | exception Sectfile.Bad _ -> None)

(* Best-effort: a read-only or vanished directory must never fail the
   caller, so every syscall error is swallowed here. *)
let put kind k text =
  if kind.enabled () then
    try
      Sectfile.mkdir_p (kind.dir ());
      Sectfile.write_atomic ~path:(path kind k) ~tmp_prefix:kind.tmp_prefix
        text
    with Sys_error _ -> ()

let clear kind =
  let dir = kind.dir () in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f kind.suffix then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files
