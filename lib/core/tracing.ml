module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic
module Prediction = Fisher92_predict.Prediction
module Workload = Fisher92_workloads.Workload
module Vm = Fisher92_vm.Vm
module Pool = Fisher92_util.Pool
module Fingerprint = Fisher92_analysis.Fingerprint
module Sectfile = Fisher92_util.Sectfile
module Store = Fisher92_util.Store

type obtained = { reader : Trace.Reader.t; from_store : bool }

let record ?fingerprint ?dshash ~ir ~program (d : Workload.dataset) =
  let { Store.program; dataset; fingerprint; dshash; n_sites; _ } =
    Study.store_key ?fingerprint ?dshash ~program ir d
  in
  let w = Trace.Writer.create ~program ~dataset ~fingerprint ~dshash ~n_sites in
  let config =
    { Vm.default_config with on_branch = Some (Trace.Writer.feed w) }
  in
  let (_ : Vm.result) = Study.execute ir d ~config () in
  w

let obtain ?fingerprint ?dshash ~ir ~program (d : Workload.dataset) =
  let key = Study.store_key ?fingerprint ?dshash ~program ir d in
  match Store.find Trace.kind key Trace.Reader.read with
  | Some reader -> { reader; from_store = true }
  | None ->
    let w =
      record ~fingerprint:key.fingerprint ~dshash:key.dshash ~ir ~program d
    in
    (* Round-tripping through the codec (rather than keeping the event
       list) means the store-hit and store-miss paths replay the exact
       same decoder output.  The one rendering is also what the store
       writes. *)
    let text = Trace.Writer.render w in
    Store.put Trace.kind key text;
    { reader = Trace.Reader.of_string text; from_store = false }

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

(* ---- tallies ---- *)

type tally = { site_correct : int array; site_incorrect : int array }

let tally t =
  {
    site_correct = Dynamic.site_correct t;
    site_incorrect = Dynamic.site_incorrect t;
  }

let sum = Array.fold_left ( + ) 0
let correct tl = sum tl.site_correct
let incorrect tl = sum tl.site_incorrect

let percent_correct tl =
  Fisher92_util.Stats.percent (correct tl) (correct tl + incorrect tl)

type raced = { rc_scheme : Dynamic.scheme; rc_cold : tally; rc_warm : tally }

(* Every scheme twice, cold then seeded with [warm]: the simulators a
   race replays, in tally order. *)
let race_sims ~warm schemes =
  List.concat_map (fun s -> [ (s, None); (s, Some warm) ]) schemes

let rec races_of schemes tallies =
  match (schemes, tallies) with
  | s :: schemes, c :: w :: tallies ->
    { rc_scheme = s; rc_cold = c; rc_warm = w } :: races_of schemes tallies
  | _ -> []

(* Replay a workload's first-dataset trace once through every simulator
   of [sims].  One decode feeds them all — each chunk fans out over the
   per-simulator table-update loops, so a simulator costs its updates
   only, not another pass over the codec. *)
let replay_first (key : Store.key) ~sims (l : Study.loaded) =
  let ob =
    obtain ~fingerprint:key.fingerprint ~dshash:key.dshash ~ir:l.ir
      ~program:key.program
      (List.hd l.workload.Workload.w_datasets)
  in
  let ts =
    List.map
      (fun (scheme, warm) -> Dynamic.create ?warm scheme ~n_sites:key.n_sites)
      sims
  in
  let hooks = List.map Dynamic.hook_batch ts in
  Trace.Reader.iter_runs ob.reader (fun st tk rl pr n ->
      List.iter (fun h -> h st tk rl pr n) hooks);
  List.map tally ts

let zoo_schemes () =
  List.map
    (fun d -> d.Fisher92_predict.Predictor.d_scheme)
    (Fisher92_predict.Predictor.zoo ())

(* ---- the shared replay ---- *)

type shared = {
  sh_loaded : Study.loaded;
  sh_onebit : tally;
  sh_races : raced list;
  sh_from_store : bool;
}

(* The shared replay's simulators: cold 1-bit, then the race. *)
let shared_sims ~warm schemes =
  (Dynamic.Last_direction, None) :: race_sims ~warm schemes

let warm_digest (w : Prediction.t) =
  Fisher92_util.Fnv.hex
    (String.init (Array.length w) (fun s -> if w.(s) then '1' else '0'))

let replay_key ?rules ~warm schemes =
  let rules = match rules with Some r -> r | None -> Dynamic.rules_digest () in
  ("rules " ^ rules)
  :: ("warm " ^ warm_digest warm)
  :: List.map
       (fun (scheme, w) ->
         (if Option.is_some w then "warm " else "cold ")
         ^ Dynamic.scheme_spec scheme)
       (shared_sims ~warm schemes)

(* ---- replay entries ---- *)

(* Beside the traces, under the same knobs.  Bump the version on any
   change to the entry layout. *)
let replay_kind =
  {
    Trace.kind with
    Store.suffix = ".replay";
    tmp_prefix = "replay";
    version = "fisher92replay 1";
  }

(* One line per tally: [c0 i0 c1 i1 ...], a (correct, incorrect) pair
   per site. *)
let tally_line ~n_sites tl =
  String.concat " "
    (List.concat
       (List.init n_sites (fun s ->
            [
              string_of_int tl.site_correct.(s);
              string_of_int tl.site_incorrect.(s);
            ])))

let render_replay (key : Store.key) tallies =
  Store.render replay_kind key ~meta:[]
    [ ("tallies", List.map (tally_line ~n_sites:key.n_sites) tallies) ]

(* Strict: exactly [2 * n_sites] fields, each a non-negative decimal
   in canonical form (no sign, no leading zero, no underscore). *)
let parse_tally ~n_sites line =
  let fields =
    if String.equal line "" then [||]
    else Array.of_list (String.split_on_char ' ' line)
  in
  if Array.length fields <> 2 * n_sites then
    Sectfile.failf 0 "tally has %d fields, want %d" (Array.length fields)
      (2 * n_sites);
  let count f =
    match int_of_string_opt f with
    | Some n when n >= 0 && String.equal (string_of_int n) f -> n
    | Some _ | None -> Sectfile.failf 0 "bad tally %S" f
  in
  {
    site_correct = Array.init n_sites (fun s -> count fields.(2 * s));
    site_incorrect = Array.init n_sites (fun s -> count fields.((2 * s) + 1));
  }

let read_replay (key : Store.key) meta section =
  if not (List.is_empty meta) then
    Sectfile.failf 0 "replay entry has %d extra meta lines" (List.length meta);
  List.map (parse_tally ~n_sites:key.n_sites) (section "tallies")

(* One workload's shared tallies: read from its replay entry when the
   store holds one for this exact key, else replayed and saved back.
   The warm vector is computed either way — it is part of the key. *)
let shared_of ~schemes (l : Study.loaded) =
  let d = List.hd l.workload.Workload.w_datasets in
  let warm = warm_prediction l in
  let sims = shared_sims ~warm schemes in
  let base =
    Study.store_key ?dshash:(Study.first_dshash l) ~program:l.workload.w_name
      l.ir d
  in
  let key = { base with Store.extra = replay_key ~warm schemes } in
  let tallies, from_store =
    match Store.find replay_kind key read_replay with
    | Some tallies when List.length tallies = List.length sims ->
      (tallies, true)
    | Some _ | None ->
      let tallies = replay_first key ~sims l in
      Store.put replay_kind key (render_replay key tallies);
      (tallies, false)
  in
  {
    sh_loaded = l;
    sh_onebit = List.hd tallies;
    sh_races = races_of schemes (List.tl tallies);
    sh_from_store = from_store;
  }

let replay_shared study =
  let schemes = zoo_schemes () in
  Pool.map (shared_of ~schemes) (Study.items study)

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
