(* The on-disk format conventions — sized strings, checksummed
   sections, atomic writes — live in the codec shared with the study
   cache. *)
open Fisher92_util.Sectfile

type t = {
  db_program : string;
  db_sites : int;
  tbl : (string, Profile.t) Hashtbl.t;
  mutable order : string list;  (* reversed *)
  mutable db_fp : string option;
  mutable db_keys : string array option;
  mutable db_gen : int;  (* compaction generation; 0 = never compacted *)
}

let check_no_newline what s =
  if String.contains s '\n' || String.contains s '\r' then
    invalid_arg (Printf.sprintf "Db: %s contains a newline" what)

let create ~program ~n_sites =
  if n_sites < 0 then invalid_arg "Db.create: negative site count";
  check_no_newline "program name" program;
  {
    db_program = program;
    db_sites = n_sites;
    tbl = Hashtbl.create 8;
    order = [];
    db_fp = None;
    db_keys = None;
    db_gen = 0;
  }

let program t = t.db_program
let n_sites t = t.db_sites

let record t ~dataset (p : Profile.t) =
  if not (String.equal p.program t.db_program) then
    invalid_arg
      (Printf.sprintf "Db.record: profile for %s recorded into db for %s"
         p.program t.db_program);
  if Profile.n_sites p <> t.db_sites then
    invalid_arg "Db.record: site count mismatch";
  check_no_newline "dataset name" dataset;
  match Hashtbl.find_opt t.tbl dataset with
  | Some existing -> Hashtbl.replace t.tbl dataset (Profile.add existing p)
  | None ->
    Hashtbl.replace t.tbl dataset p;
    t.order <- dataset :: t.order

let datasets t = List.rev t.order

let profile t ~dataset = Hashtbl.find t.tbl dataset

let accumulated t =
  match datasets t with
  | [] -> Profile.empty ~program:t.db_program ~n_sites:t.db_sites
  | ds -> Profile.sum (List.map (fun d -> profile t ~dataset:d) ds)

let accumulated_except t ~dataset =
  match List.filter (fun d -> not (String.equal d dataset)) (datasets t) with
  | [] -> None
  | ds -> Some (Profile.sum (List.map (fun d -> profile t ~dataset:d) ds))

let fingerprint t = t.db_fp
let sitekeys t = t.db_keys
let generation t = t.db_gen

let set_generation t g =
  if g < 0 then invalid_arg "Db.set_generation: negative generation";
  t.db_gen <- g

let set_identity t ~fingerprint ~sitekeys =
  if Array.length sitekeys <> t.db_sites then
    invalid_arg "Db.set_identity: one key per site required";
  check_no_newline "fingerprint" fingerprint;
  Array.iter (check_no_newline "site key") sitekeys;
  t.db_fp <- Some fingerprint;
  t.db_keys <- Some sitekeys

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* The format, as [save] writes it:
     ifprobdb2
     meta
     program <len> <name>
     sites <n_sites>
     fingerprint <hex16>              (when known)
     generation <n>                   (when compacted)
     endmeta <fnv1a64 of the section>
     sitemap                          (when site keys are known)
     <site> <len> <key>               (one line per site, in order)
     endsitemap <fnv1a64>
     dataset <len> <name>
     <site> <encountered> <taken>     (only non-zero sites)
     enddataset <fnv1a64>
     end

   Every section checksum covers the section's own lines, header line
   included, each terminated by '\n', so damage anywhere inside a
   section invalidates exactly that section and nothing else. *)

let counter_lines (p : Profile.t) =
  let acc = ref [] in
  Array.iteri
    (fun s n ->
      if n > 0 then
        acc := Printf.sprintf "%d %d %d" s n p.taken.(s) :: !acc)
    p.encountered;
  List.rev !acc

let save t =
  let buf = Buffer.create 4096 in
  let section header body end_tag = add_section buf ~header ~body ~end_tag in
  Buffer.add_string buf "ifprobdb2\n";
  section "meta"
    ([ "program " ^ sized t.db_program;
       Printf.sprintf "sites %d" t.db_sites ]
    @ (match t.db_fp with Some fp -> [ "fingerprint " ^ fp ] | None -> [])
    @
    match t.db_gen with
    | 0 -> []  (* absent on never-compacted dbs: their files stay byte-stable *)
    | g -> [ Printf.sprintf "generation %d" g ])
    "endmeta";
  (match t.db_keys with
  | None -> ()
  | Some keys ->
    section "sitemap"
      (Array.to_list
         (Array.mapi (fun s k -> Printf.sprintf "%d %s" s (sized k)) keys))
      "endsitemap");
  List.iter
    (fun d ->
      section ("dataset " ^ sized d)
        (counter_lines (profile t ~dataset:d))
        "enddataset")
    (datasets t);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Parse errors ({!Sectfile.Bad}) carry the 1-based line they were
   detected on; the salvage scan turns them into report entries. *)

let parse_counter ~line ~n_sites s =
  match String.split_on_char ' ' s |> List.map int_of_string_opt with
  | [ Some site; Some enc; Some taken ] ->
    if site < 0 || site >= n_sites then
      failf line "site %d out of range (%d sites)" site n_sites
    else if enc < 0 || taken < 0 || taken > enc then
      failf line "bad counts (%d taken of %d encountered)" taken enc
    else (site, enc, taken)
  | _ -> failf line "malformed counter line %S" s

let add_counter (p : Profile.t) (site, enc, taken) =
  p.encountered.(site) <- p.encountered.(site) + enc;
  p.taken.(site) <- p.taken.(site) + taken

let prefixed ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let section_start l =
  String.equal l "meta" || String.equal l "sitemap"
  || String.starts_with ~prefix:"dataset " l

let end_tag_of header =
  if String.equal header "meta" then "endmeta"
  else if String.equal header "sitemap" then "endsitemap"
  else "enddataset"

let scan_sections lines ~from =
  scan ~section_start ~end_tag_of
    ~skip:(fun l -> String.equal l "" || String.equal l "end")
    lines ~from

(* Meta fields out of a meta section's body; raises [Bad]. *)
let parse_meta_fields rs =
  let prog = ref None and sites = ref None in
  let fp = ref None and gen = ref 0 in
  List.iteri
    (fun k l ->
      if k = 0 then () (* the "meta" header itself *)
      else
        let ln = rs.rs_idx + k + 1 in
        match prefixed ~prefix:"program " l with
        | Some rest -> prog := Some (parse_sized ~line:ln ~what:"program name" rest)
        | None -> (
          match prefixed ~prefix:"sites " l with
          | Some rest -> (
            match int_of_string_opt rest with
            | Some n when n >= 0 -> sites := Some n
            | _ -> failf ln "bad site count %S" rest)
          | None -> (
            match prefixed ~prefix:"fingerprint " l with
            | Some rest ->
              if String.equal rest "" || String.contains rest ' ' then
                failf ln "malformed fingerprint"
              else fp := Some rest
            | None -> (
              match prefixed ~prefix:"generation " l with
              | Some rest -> (
                match int_of_string_opt rest with
                | Some g when g >= 0 -> gen := g
                | _ -> failf ln "bad generation %S" rest)
              | None -> failf ln "unexpected line in meta section"))))
    rs.rs_lines;
  match (!prog, !sites) with
  | Some p, Some n -> (p, n, !fp, !gen)
  | None, _ -> failf (rs.rs_idx + 1) "meta section lacks a program line"
  | _, None -> failf (rs.rs_idx + 1) "meta section lacks a sites line"

(* Sitemap entries; raises [Bad].  Strict about shape and order: the
   writer emits exactly one key per site, ascending. *)
let parse_sitemap_entries ~n_sites rs =
  let keys = Array.make n_sites "" in
  let expect = ref 0 in
  List.iteri
    (fun k l ->
      if k = 0 then ()
      else
        let ln = rs.rs_idx + k + 1 in
        match String.index_opt l ' ' with
        | None -> failf ln "malformed sitemap entry"
        | Some i -> (
          match int_of_string_opt (String.sub l 0 i) with
          | Some s when s = !expect && s < n_sites ->
            keys.(s) <-
              parse_sized ~line:ln ~what:"site key"
                (String.sub l (i + 1) (String.length l - i - 1));
            incr expect
          | Some s -> failf ln "sitemap entry %d out of order or range" s
          | None -> failf ln "malformed sitemap entry"))
    rs.rs_lines;
  if !expect <> n_sites then
    failf (rs.rs_end_idx + 1) "sitemap covers %d of %d sites" !expect n_sites;
  keys

let parse_dataset_section ~n_sites ~program rs =
  let name =
    match prefixed ~prefix:"dataset " rs.rs_header with
    | Some rest -> parse_sized ~line:(rs.rs_idx + 1) ~what:"dataset name" rest
    | None -> failf (rs.rs_idx + 1) "malformed dataset header"
  in
  let p = Profile.empty ~program ~n_sites in
  List.iteri
    (fun k l ->
      if k > 0 then
        add_counter p (parse_counter ~line:(rs.rs_idx + k + 1) ~n_sites l))
    rs.rs_lines;
  (name, p)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type issue = { i_line : int; i_section : string; i_reason : string }

type report = {
  r_version : int;
  r_program : string option;
  r_meta_ok : bool;
  r_sitemap_present : bool;
  r_sitemap_ok : bool;
  r_recovered : string list;
  r_dropped : issue list;
}

(* Everything after the header: keep each section that verifies, and
   report every departure from what [save] writes. *)
let salvage (lines : string array) =
  let issues = ref [] in
  let drop ~line ~section reason =
    issues := { i_line = line; i_section = section; i_reason = reason } :: !issues
  in
  let damaged ~section rs =
    drop ~line:(rs.rs_idx + 1) ~section
      (if rs.rs_end = None then "section never terminated"
       else "checksum mismatch")
  in
  (* the first section with this header; later ones are reported *)
  let first_of header sections =
    match
      List.partition (fun rs -> String.equal rs.rs_header header) sections
    with
    | first :: dups, rest ->
      List.iter
        (fun rs ->
          drop ~line:(rs.rs_idx + 1) ~section:header
            ("duplicate " ^ header ^ " section"))
        dups;
      (Some first, rest)
    | [], rest -> (None, rest)
  in
  let sections, noise = scan_sections lines ~from:1 in
  (* coalesce consecutive noise lines into one issue per run *)
  let rec note_noise = function
    | [] -> ()
    | i :: rest ->
      let rec skip_run prev = function
        | j :: more when j = prev + 1 -> skip_run j more
        | tail -> tail
      in
      drop ~line:(i + 1) ~section:"file" "unrecognized line(s)";
      note_noise (skip_run i rest)
  in
  note_noise noise;
  let rec last_nonblank i =
    if i > 0 && String.equal lines.(i) "" then last_nonblank (i - 1) else i
  in
  let last = last_nonblank (Array.length lines - 1) in
  if not (String.equal lines.(last) "end") then
    drop ~line:(last + 2) ~section:"file" "missing final end";
  let meta_rs, rest = first_of "meta" sections in
  let sitemap_rs, dataset_rs = first_of "sitemap" rest in
  (* [program] is [None] when the meta section yields no site count *)
  let db, program, meta_ok =
    match meta_rs with
    | None ->
      drop ~line:1 ~section:"meta" "missing meta section";
      (create ~program:"" ~n_sites:0, None, false)
    | Some rs -> (
      (* [save]'s order, meta first and the sitemap right after it,
         loses nothing when broken, but no intact file breaks it *)
      let first = List.hd sections in
      if first.rs_idx <> rs.rs_idx then
        drop ~line:(first.rs_idx + 1) ~section:"meta"
          "expected meta as the first section";
      let rec sitemap_after prev = function
        | [] -> ()
        | s :: _ when String.equal s.rs_header "sitemap" ->
          if not (String.equal prev.rs_header "meta") then
            drop ~line:(s.rs_idx + 1) ~section:"sitemap"
              "sitemap must directly follow meta"
        | s :: more -> sitemap_after s more
      in
      sitemap_after first (List.tl sections);
      let crc = checksum_ok rs in
      if not crc then damaged ~section:"meta" rs;
      match parse_meta_fields rs with
      | prog, n_sites, fp, gen ->
        let db =
          match create ~program:prog ~n_sites with
          | db -> db
          | exception Invalid_argument m ->
            drop ~line:(rs.rs_idx + 1) ~section:"meta" m;
            create ~program:"" ~n_sites
        in
        (* only trust the stored fingerprint and generation when the
           meta bytes verified: a damaged fingerprint must not
           masquerade as a fresh profile, and a damaged generation must
           not let a stale WAL replay over counters it is already folded
           into *)
        if crc then begin
          db.db_fp <- fp;
          db.db_gen <- gen
        end;
        (db, Some prog, crc)
      | exception Bad (l, m) ->
        drop ~line:l ~section:"meta" m;
        (create ~program:"" ~n_sites:0, None, false))
  in
  if program = None then
    (* without a trustworthy site count nothing can be validated *)
    List.iter
      (fun rs ->
        drop ~line:(rs.rs_idx + 1)
          ~section:(if String.equal rs.rs_header "sitemap" then "sitemap"
                    else "dataset")
          "dropped: no usable meta section")
      (Option.to_list sitemap_rs @ dataset_rs)
  else begin
    (match sitemap_rs with
    | None -> ()
    | Some rs when not (checksum_ok rs) -> damaged ~section:"sitemap" rs
    | Some rs -> (
      match parse_sitemap_entries ~n_sites:db.db_sites rs with
      | keys -> db.db_keys <- Some keys
      | exception Bad (l, m) -> drop ~line:l ~section:"sitemap" m));
    List.iter
      (fun rs ->
        if not (checksum_ok rs) then damaged ~section:"dataset" rs
        else
          match
            parse_dataset_section ~n_sites:db.db_sites ~program:db.db_program
              rs
          with
          | name, p ->
            let section = Printf.sprintf "dataset %S" name in
            if Hashtbl.mem db.tbl name then
              drop ~line:(rs.rs_idx + 1) ~section
                "duplicate dataset (first occurrence kept)"
            else (
              try record db ~dataset:name p
              with Invalid_argument m -> drop ~line:(rs.rs_idx + 1) ~section m)
          | exception Bad (l, m) -> drop ~line:l ~section:"dataset" m)
      dataset_rs
  end;
  ( db,
    {
      r_version = 2;
      r_program = program;
      r_meta_ok = meta_ok;
      r_sitemap_present = sitemap_rs <> None;
      r_sitemap_ok = db.db_keys <> None;
      r_recovered = datasets db;
      r_dropped =
        List.stable_sort
          (fun a b -> Int.compare a.i_line b.i_line)
          (List.rev !issues);
    } )

let load_lenient text =
  let lines = split_lines text in
  if String.equal lines.(0) "ifprobdb2" then salvage lines
  else
    ( create ~program:"" ~n_sites:0,
      {
        r_version = 0;
        r_program = None;
        r_meta_ok = false;
        r_sitemap_present = false;
        r_sitemap_ok = false;
        r_recovered = [];
        r_dropped =
          [
            {
              i_line = 1;
              i_section = "header";
              i_reason = "unsupported format (expected ifprobdb2)";
            };
          ];
      } )

let clean r = r.r_dropped = []

let load text =
  match load_lenient text with
  | db, { r_dropped = []; _ } -> db
  | _, { r_dropped = i :: _; _ } ->
    failwith (Printf.sprintf "Db.load: line %d: %s" i.i_line i.i_reason)

let render_report r =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match r.r_version with
  | 0 -> line "format:    unrecognized"
  | v -> line "format:    ifprobdb v%d" v);
  (match r.r_program with
  | Some p -> line "program:   %s" p
  | None -> line "program:   (unknown)");
  line "meta:      %s" (if r.r_meta_ok then "ok" else "DAMAGED");
  line "sitemap:   %s"
    (if not r.r_sitemap_present then "absent"
     else if r.r_sitemap_ok then "ok"
     else "DAMAGED");
  line "recovered: %d dataset(s)%s"
    (List.length r.r_recovered)
    (match r.r_recovered with
    | [] -> ""
    | ds -> ": " ^ String.concat ", " ds);
  if r.r_dropped = [] then line "dropped:   nothing"
  else begin
    line "dropped:   %d section(s)/line(s)" (List.length r.r_dropped);
    List.iter
      (fun i -> line "  line %d [%s]: %s" i.i_line i.i_section i.i_reason)
      r.r_dropped
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save_file t path = write_atomic ~path ~tmp_prefix:"ifprobdb" (save t)
let load_file path = load (read_file path)
