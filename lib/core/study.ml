module Workload = Fisher92_workloads.Workload
module Registry = Fisher92_workloads.Registry
module Compile = Fisher92_minic.Compile
module Vm = Fisher92_vm.Vm
module Measure = Fisher92_metrics.Measure
module Pool = Fisher92_util.Pool
module Fingerprint = Fisher92_analysis.Fingerprint
module Store = Fisher92_util.Store

type loaded = {
  workload : Workload.t;
  ir : Fisher92_ir.Program.t;
  runs : Measure.run list;
  dshashes : string list;
}

type t = { items : loaded list }

type progress_event =
  | Compiled of { workload : string; seconds : float }
  | Executed of {
      workload : string;
      dataset : string;
      seconds : float;
      cached : bool;
    }

type run_timing = { rt_dataset : string; rt_seconds : float; rt_cached : bool }

type timing = {
  tm_workload : string;
  tm_compile : float;
  tm_runs : run_timing list;
}

let compile_variant ?(dce = false) ?(inline = false) (w : Workload.t) =
  Compile.compile ~options:(Workload.compile_options ~dce ~inline w) w.w_program

let execute ir (d : Workload.dataset) ?config () =
  Vm.run ?config ir ~iargs:d.ds_iargs ~fargs:d.ds_fargs ~arrays:d.ds_arrays

let now () = Unix.gettimeofday ()

let store_key ?fingerprint ?dshash ~program ir (d : Workload.dataset) =
  let or_hash h f = match h with Some h -> h | None -> f () in
  {
    Store.program;
    dataset = d.ds_name;
    fingerprint = or_hash fingerprint (fun () -> Fingerprint.content_hash ir);
    dshash = or_hash dshash (fun () -> Study_cache.dataset_hash d);
    n_sites = Fisher92_ir.Program.n_sites ir;
    extra = [];
  }

(* The lookup -> execute -> store round-trip for one (build, dataset)
   key.  The keys are only hashed when the cache is in use. *)
let measure ?(cache = true) ?fingerprint ?dshash ~program ir
    (d : Workload.dataset) =
  let key =
    if cache && Study_cache.kind.enabled () then
      Some (store_key ?fingerprint ?dshash ~program ir d)
    else None
  in
  match
    Option.bind key (fun key ->
        Store.find Study_cache.kind key Study_cache.read)
  with
  | Some run -> (run, true)
  | None ->
    let run =
      Measure.of_result ~program ~dataset:d.ds_name (execute ir d ())
    in
    Option.iter
      (fun key -> Store.put Study_cache.kind key (Study_cache.render key run))
      key;
    (run, false)

let first_dshash l = match l.dshashes with h :: _ -> Some h | [] -> None

(* Every (workload, dataset) pair is executed by an independent task: the
   VM allocates all of its state per call and the compile pipeline shares
   nothing mutable (the one global counter, the inliner's name supply, is
   atomic and unused in the measured configuration), so tasks never
   communicate.  Results are merged by index, making the parallel study
   byte-identical to a sequential one by construction. *)
let load_timed ?workloads ?domains ?cache ?progress () =
  let workloads =
    (* force the lazy registry on this domain, before any fan-out *)
    match workloads with Some ws -> ws | None -> Registry.all ()
  in
  let use_cache =
    (match cache with Some b -> b | None -> true)
    && Study_cache.kind.enabled ()
  in
  let emit =
    match progress with
    | None -> fun _ -> ()
    | Some f ->
      (* callbacks fire from worker domains; serialize them *)
      let m = Mutex.create () in
      fun ev ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f ev)
  in
  (* Phase 1: compile (one task per workload). *)
  let compiled =
    Pool.map ?domains
      (fun (w : Workload.t) ->
        let t0 = now () in
        let ir = compile_variant w in
        (* the content hash is only a study-cache key *)
        let fp =
          if use_cache then Some (Fingerprint.content_hash ir) else None
        in
        let seconds = now () -. t0 in
        emit (Compiled { workload = w.w_name; seconds });
        (w, ir, fp, seconds))
      workloads
  in
  (* Phase 2: measure (one task per (workload, dataset) pair), consulting
     the on-disk cache first.  Each dataset is hashed once, here, and
     the hash kept for the later stores that key on it. *)
  let pairs =
    List.concat_map
      (fun (w, ir, fp, _) ->
        List.map (fun d -> (w, ir, fp, d)) w.Workload.w_datasets)
      compiled
  in
  let measured =
    Pool.map ?domains
      (fun ((w : Workload.t), ir, fingerprint, (d : Workload.dataset)) ->
        let t0 = now () in
        let dshash =
          if use_cache then Some (Study_cache.dataset_hash d) else None
        in
        let run, cached =
          measure ~cache:use_cache ?fingerprint ?dshash ~program:w.w_name ir d
        in
        let seconds = now () -. t0 in
        emit
          (Executed
             { workload = w.w_name; dataset = d.ds_name; seconds; cached });
        (run, dshash, seconds, cached))
      pairs
  in
  (* Deterministic merge: both pools return results in input order, so
     walking the workloads and consuming one slot per dataset reassembles
     exactly the sequential structure. *)
  let rec split n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> invalid_arg "Study.load: lost results"
      | x :: rest ->
        let front, back = split (n - 1) rest in
        (x :: front, back)
  in
  let items, timings, rest =
    List.fold_left
      (fun (items, timings, remaining) (w, ir, _, compile_s) ->
        let mine, rest =
          split (List.length w.Workload.w_datasets) remaining
        in
        let runs = List.map (fun (run, _, _, _) -> run) mine in
        let dshashes = List.filter_map (fun (_, h, _, _) -> h) mine in
        let tm_runs =
          List.map2
            (fun (d : Workload.dataset) (_, _, seconds, cached) ->
              { rt_dataset = d.ds_name; rt_seconds = seconds;
                rt_cached = cached })
            w.w_datasets mine
        in
        ( { workload = w; ir; runs; dshashes } :: items,
          { tm_workload = w.w_name; tm_compile = compile_s; tm_runs }
          :: timings,
          rest ))
      ([], [], measured) compiled
  in
  assert (rest = []);
  ({ items = List.rev items }, List.rev timings)

let load ?workloads ?domains ?cache ?progress () =
  fst (load_timed ?workloads ?domains ?cache ?progress ())

let items t = t.items

let find t name =
  List.find (fun l -> String.equal l.workload.Workload.w_name name) t.items

let render_timings timings =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %10s %10s  %s\n" "WORKLOAD" "COMPILE" "SIMULATE"
       "DATASETS (c = cache hit)");
  let total_compile = ref 0.0 and total_run = ref 0.0 and hits = ref 0 in
  let runs = ref 0 in
  List.iter
    (fun tm ->
      let sim =
        List.fold_left (fun acc r -> acc +. r.rt_seconds) 0.0 tm.tm_runs
      in
      total_compile := !total_compile +. tm.tm_compile;
      total_run := !total_run +. sim;
      List.iter
        (fun r ->
          incr runs;
          if r.rt_cached then incr hits)
        tm.tm_runs;
      Buffer.add_string buf
        (Printf.sprintf "%-12s %9.3fs %9.3fs  %s\n" tm.tm_workload
           tm.tm_compile sim
           (String.concat " "
              (List.map
                 (fun r ->
                   Printf.sprintf "%s[%.3fs%s]" r.rt_dataset r.rt_seconds
                     (if r.rt_cached then ",c" else ""))
                 tm.tm_runs))))
    timings;
  Buffer.add_string buf
    (Printf.sprintf "%-12s %9.3fs %9.3fs  %d/%d cache hits\n" "TOTAL"
       !total_compile !total_run !hits !runs);
  Buffer.contents buf
