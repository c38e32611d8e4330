module Fnv = Fisher92_util.Fnv
module Sectfile = Fisher92_util.Sectfile
module Env = Fisher92_util.Env
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Breaks = Fisher92_metrics.Breaks
module Profile = Fisher92_profile.Profile

(* Bump on any change to the entry layout: old entries then fail the
   header check and are recomputed, never misparsed. *)
let format_version = 1

let enabled = Env.cache_enabled
let cache_dir = Env.cache_dir

(* ---- dataset identity ---- *)

let dataset_hash (d : Workload.dataset) =
  let h = ref (Fnv.fold Fnv.seed d.ds_name) in
  let add s = h := Fnv.fold (Fnv.fold !h s) "\n" in
  List.iter (fun k -> add (string_of_int k)) d.ds_iargs;
  add "|";
  List.iter (fun x -> add (Printf.sprintf "%Lx" (Int64.bits_of_float x))) d.ds_fargs;
  List.iter
    (fun (name, seed) ->
      add ("array " ^ name);
      match seed with
      | `Ints cells -> Array.iter (fun k -> add (string_of_int k)) cells
      | `Floats cells ->
        Array.iter
          (fun x -> add (Printf.sprintf "%Lx" (Int64.bits_of_float x)))
          cells)
    d.ds_arrays;
  Fnv.to_hex !h

(* File names carry the whole key, so distinct builds and datasets never
   collide; the program name prefix is purely for humans. *)
let entry_path ~fingerprint ~dshash ~program =
  Filename.concat (cache_dir ())
    (Printf.sprintf "%s.%s.%s.run" program fingerprint dshash)

(* ---- serialization (the Sectfile conventions the profile db also
   follows) ---- *)

let sized = Sectfile.sized

let render ~fingerprint ~dshash ~n_sites (run : Measure.run) =
  let buf = Buffer.create 1024 in
  let section header body end_tag =
    Sectfile.add_section buf ~header ~body ~end_tag
  in
  Buffer.add_string buf (Printf.sprintf "fisher92runcache %d\n" format_version);
  section "meta"
    [
      "program " ^ sized run.program;
      "dataset " ^ sized run.dataset;
      "fingerprint " ^ fingerprint;
      "dshash " ^ dshash;
      Printf.sprintf "sites %d" n_sites;
    ]
    "endmeta";
  section "counts"
    [
      Printf.sprintf "instructions %d" run.counts.Breaks.instructions;
      Printf.sprintf "cond_branches %d" run.counts.Breaks.cond_branches;
      Printf.sprintf "unavoidable %d" run.counts.Breaks.unavoidable;
      Printf.sprintf "direct_call_ret %d" run.counts.Breaks.direct_call_ret;
      Printf.sprintf "jumps %d" run.counts.Breaks.jumps;
    ]
    "endcounts";
  let counters = ref [] in
  Array.iteri
    (fun s n ->
      if n > 0 then
        counters :=
          Printf.sprintf "%d %d %d" s n run.profile.Profile.taken.(s)
          :: !counters)
    run.profile.Profile.encountered;
  section "profile" (List.rev !counters) "endprofile";
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ---- parsing: strict and total.  Any deviation returns None: a
   cache entry is repopulated, never salvaged.  Sectfile's strict
   reader raises [Sectfile.Bad] on format damage; [lookup] converts
   both that and [Reject] into a miss. ---- *)

exception Reject

let parse_sized s =
  match Sectfile.parse_sized ~line:0 ~what:"field" s with
  | payload -> payload
  | exception Sectfile.Bad _ -> raise Reject

let parse ~fingerprint ~dshash ~n_sites ~program (d : Workload.dataset) text =
  let c = Sectfile.cursor (Sectfile.split_lines text) in
  let next () = Sectfile.next c in
  let section header end_tag = Sectfile.strict_section c ~header ~end_tag in
  let field prefix l =
    match
      if String.starts_with ~prefix:(prefix ^ " ") l then
        Some (String.sub l (String.length prefix + 1)
                (String.length l - String.length prefix - 1))
      else None
    with
    | Some rest -> rest
    | None -> raise Reject
  in
  let int_field prefix l =
    match int_of_string_opt (field prefix l) with
    | Some n when n >= 0 -> n
    | Some _ | None -> raise Reject
  in
  if not (String.equal (next ())
            (Printf.sprintf "fisher92runcache %d" format_version))
  then raise Reject;
  (match section "meta" "endmeta" with
  | [ prog; ds; fp; dh; sites ] ->
    if not (String.equal (parse_sized (field "program" prog)) program) then
      raise Reject;
    if not (String.equal (parse_sized (field "dataset" ds)) d.ds_name) then
      raise Reject;
    if not (String.equal (field "fingerprint" fp) fingerprint) then
      raise Reject;
    if not (String.equal (field "dshash" dh) dshash) then
      raise Reject;
    if int_field "sites" sites <> n_sites then raise Reject
  | _ -> raise Reject);
  let counts =
    match section "counts" "endcounts" with
    | [ a; b; c; e; f ] ->
      {
        Breaks.instructions = int_field "instructions" a;
        cond_branches = int_field "cond_branches" b;
        unavoidable = int_field "unavoidable" c;
        direct_call_ret = int_field "direct_call_ret" e;
        jumps = int_field "jumps" f;
      }
    | _ -> raise Reject
  in
  let profile = Profile.empty ~program ~n_sites in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l |> List.map int_of_string_opt with
      | [ Some site; Some enc; Some taken ]
        when site >= 0 && site < n_sites && enc > 0 && taken >= 0
             && taken <= enc
             && profile.Profile.encountered.(site) = 0 ->
        profile.Profile.encountered.(site) <- enc;
        profile.Profile.taken.(site) <- taken
      | _ -> raise Reject)
    (section "profile" "endprofile");
  if not (String.equal (next ()) "end") then raise Reject;
  (* nothing but a trailing newline may follow *)
  if not (Sectfile.at_end c) then raise Reject;
  { Measure.program; dataset = d.ds_name; counts; profile }

(* ---- file operations ---- *)

let lookup ~fingerprint ~dshash ~n_sites ~program d =
  if not (enabled ()) then None
  else
    let path = entry_path ~fingerprint ~dshash ~program in
    match Sectfile.read_file path with
    | exception Sys_error _ -> None
    | exception End_of_file -> None
    | text -> (
      match parse ~fingerprint ~dshash ~n_sites ~program d text with
      | run -> Some run
      | exception Reject -> None
      | exception Sectfile.Bad _ -> None)

let store ~fingerprint ~dshash (run : Measure.run) =
  if enabled () then begin
    let n_sites = Profile.n_sites run.profile in
    let text = render ~fingerprint ~dshash ~n_sites run in
    let dir = cache_dir () in
    (* Best-effort: a read-only or vanished cache directory must never
       fail the study, so every syscall error is swallowed here. *)
    try
      Sectfile.mkdir_p dir;
      Sectfile.write_atomic
        ~path:(entry_path ~fingerprint ~dshash ~program:run.program)
        ~tmp_prefix:"runcache" text
    with Sys_error _ -> ()
  end

let clear () =
  match Sys.readdir (cache_dir ()) with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".run" then
          try Sys.remove (Filename.concat (cache_dir ()) f)
          with Sys_error _ -> ())
      entries
