module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic
module Workload = Fisher92_workloads.Workload
module Vm = Fisher92_vm.Vm
module Pool = Fisher92_util.Pool
module Fingerprint = Fisher92_analysis.Fingerprint

type obtained = { reader : Trace.Reader.t; from_store : bool }

let record ~ir ~program (d : Workload.dataset) =
  let w =
    Trace.Writer.create ~program ~dataset:d.ds_name
      ~fingerprint:(Fingerprint.program_hash ir)
      ~dshash:(Study_cache.dataset_hash d)
      ~n_sites:(Fisher92_ir.Program.n_sites ir)
  in
  let config =
    { Vm.default_config with on_branch = Some (Trace.Writer.feed w) }
  in
  let (_ : Vm.result) = Study.execute ir d ~config () in
  w

let obtain ?(store = true) ~ir ~program (d : Workload.dataset) =
  let use_store = store && Trace.Store.enabled () in
  let fingerprint = Fingerprint.program_hash ir in
  let dshash = Study_cache.dataset_hash d in
  let stored =
    if use_store then
      Trace.Store.load ~program ~dataset:d.ds_name ~fingerprint ~dshash
        ~n_sites:(Fisher92_ir.Program.n_sites ir)
    else None
  in
  match stored with
  | Some reader -> { reader; from_store = true }
  | None ->
    let w = record ~ir ~program d in
    if use_store then Trace.Store.save w;
    (* Round-tripping through the codec (rather than keeping the event
       list) means the store-hit and store-miss paths replay the exact
       same decoder output. *)
    { reader = Trace.Reader.of_string (Trace.Writer.render w); from_store = false }

let warm_prediction (l : Study.loaded) =
  let module Db = Fisher92_profile.Db in
  let db =
    Db.create ~program:l.workload.Workload.w_name
      ~n_sites:(Fisher92_ir.Program.n_sites l.ir)
  in
  List.iter
    (fun (r : Fisher92_metrics.Measure.run) ->
      Db.record db ~dataset:r.dataset r.profile)
    l.runs;
  Db.set_identity db
    ~fingerprint:(Fingerprint.program_hash l.ir)
    ~sitekeys:(Fingerprint.site_keys l.ir);
  (Fisher92_predict.Remap.plan l.ir db).Fisher92_predict.Remap.r_prediction

type raced = { rc_scheme : Dynamic.scheme; rc_cold : Dynamic.t; rc_warm : Dynamic.t }

(* Replay a workload's first-dataset trace once: cold and warm twins of
   every scheme in [schemes], plus a cold-only simulator per scheme in
   [cold].  One decode feeds them all — each chunk fans out over the
   per-simulator table-update loops, so a simulator costs its updates
   only, not another pass over the codec. *)
let replay_first ?store ~schemes ~cold (l : Study.loaded) =
  let dataset = List.hd l.workload.Workload.w_datasets in
  let ob = obtain ?store ~ir:l.ir ~program:l.workload.w_name dataset in
  let n_sites = Fisher92_ir.Program.n_sites l.ir in
  let warm = warm_prediction l in
  let races =
    List.map
      (fun scheme ->
        {
          rc_scheme = scheme;
          rc_cold = Dynamic.create scheme ~n_sites;
          rc_warm = Dynamic.create ~warm scheme ~n_sites;
        })
      schemes
  in
  let colds = List.map (fun scheme -> Dynamic.create scheme ~n_sites) cold in
  let hooks =
    List.concat_map
      (fun r -> [ Dynamic.hook_batch r.rc_cold; Dynamic.hook_batch r.rc_warm ])
      races
    @ List.map Dynamic.hook_batch colds
  in
  Trace.Reader.iter_runs ob.reader (fun st tk rl pr n ->
      List.iter (fun h -> h st tk rl pr n) hooks);
  (ob, races, colds)

let tournament_study ?domains ?store ~schemes study =
  Pool.map ?domains
    (fun l ->
      let ob, races, _ = replay_first ?store ~schemes ~cold:[] l in
      (l, ob, races))
    (Study.items study)

let zoo_schemes () =
  List.map
    (fun d -> d.Fisher92_predict.Predictor.d_scheme)
    (Fisher92_predict.Predictor.zoo ())

type shared = {
  sh_loaded : Study.loaded;
  sh_onebit : Dynamic.t;
  sh_races : raced list;
}

let replay_shared study =
  let schemes = zoo_schemes () in
  Pool.map
    (fun l ->
      let _, races, colds =
        replay_first ~schemes ~cold:[ Dynamic.Last_direction ] l
      in
      { sh_loaded = l; sh_onebit = List.hd colds; sh_races = races })
    (Study.items study)

(* One slot: the last study's replay, held by an ephemeron keyed on the
   study itself, so the GC drops both once the study is unreachable.
   The lock makes concurrent callers on one study wait for a single
   replay rather than race to build their own. *)
let memo : (Study.t, shared list) Ephemeron.K1.t option ref = ref None
let memo_lock = Mutex.create ()
let built = Atomic.make 0

let shared study =
  Mutex.protect memo_lock (fun () ->
      match Option.bind !memo (fun e -> Ephemeron.K1.query e study) with
      | Some s -> s
      | None ->
        let s = replay_shared study in
        Atomic.incr built;
        memo := Some (Ephemeron.K1.make study s);
        s)

let shared_builds () = Atomic.get built

let cold (s : shared) scheme =
  if scheme = Dynamic.Last_direction then s.sh_onebit
  else
    match List.find_opt (fun r -> r.rc_scheme = scheme) s.sh_races with
    | Some r -> r.rc_cold
    | None ->
      invalid_arg
        ("Tracing.cold: the shared replay has no " ^ Dynamic.scheme_name scheme)
