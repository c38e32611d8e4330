module Fnv = Fisher92_util.Fnv
module Sectfile = Fisher92_util.Sectfile
module Store = Fisher92_util.Store
module Env = Fisher92_util.Env
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Breaks = Fisher92_metrics.Breaks
module Profile = Fisher92_profile.Profile

(* Bump the version on any change to the entry layout: old entries
   then fail the header check and are recomputed, never misparsed. *)
let kind =
  {
    Store.suffix = ".run";
    tmp_prefix = "runcache";
    version = "fisher92runcache 1";
    dir = Env.cache_dir;
    enabled = Env.cache_enabled;
  }

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

(* ---- the counts/profile codec ---- *)

let render key (run : Measure.run) =
  let counts = run.counts in
  let counters = ref [] in
  Array.iteri
    (fun s n ->
      if n > 0 then
        counters :=
          Printf.sprintf "%d %d %d" s n run.profile.Profile.taken.(s)
          :: !counters)
    run.profile.Profile.encountered;
  Store.render kind key ~meta:[]
    [
      ( "counts",
        [
          Printf.sprintf "instructions %d" counts.Breaks.instructions;
          Printf.sprintf "cond_branches %d" counts.Breaks.cond_branches;
          Printf.sprintf "unavoidable %d" counts.Breaks.unavoidable;
          Printf.sprintf "direct_call_ret %d" counts.Breaks.direct_call_ret;
          Printf.sprintf "jumps %d" counts.Breaks.jumps;
        ] );
      ("profile", List.rev !counters);
    ]

(* Strict and total: any deviation raises, and the store turns that
   into a miss — a cache entry is repopulated, never salvaged. *)
let read (key : Store.key) meta section =
  let bad () = Sectfile.failf 0 "malformed run-cache entry" in
  if not (List.is_empty meta) then bad ();
  let counts =
    match section "counts" with
    | [ a; b; c; e; f ] ->
      {
        Breaks.instructions = Store.int_field "instructions" a;
        cond_branches = Store.int_field "cond_branches" b;
        unavoidable = Store.int_field "unavoidable" c;
        direct_call_ret = Store.int_field "direct_call_ret" e;
        jumps = Store.int_field "jumps" f;
      }
    | _ -> bad ()
  in
  let n_sites = key.n_sites in
  let profile = Profile.empty ~program:key.program ~n_sites in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l |> List.map int_of_string_opt with
      | [ Some site; Some enc; Some taken ]
        when site >= 0 && site < n_sites && enc > 0 && taken >= 0
             && taken <= enc
             && profile.Profile.encountered.(site) = 0 ->
        profile.Profile.encountered.(site) <- enc;
        profile.Profile.taken.(site) <- taken
      | _ -> bad ())
    (section "profile");
  { Measure.program = key.program; dataset = key.dataset; counts; profile }
