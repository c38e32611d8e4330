(* The parallel study runner: pool semantics, sequential/parallel
   byte-identity, the on-disk study cache (round-trip, warm-run
   identity), the replay entries of the trace store (keys), and the one
   store under all three kinds of entry (pinned bytes, a shared
   directory, poisoning). *)

module Pool = Fisher92_util.Pool
module Study = Fisher92.Study
module Cache = Fisher92.Study_cache
module Store = Fisher92_util.Store
module E = Fisher92.Experiments
module Experiment = Fisher92.Experiment
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Profile = Fisher92_profile.Profile
module Corrupt = Fisher92_testsupport.Corrupt
module Tracing = Fisher92.Tracing
module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic
module Gen = QCheck2.Gen

(* Isolate the stores: this suite owns private directories and must be
   immune to FISHER92_NO_CACHE and FISHER92_NO_TRACE in the surrounding
   environment. *)
let private_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let cache_dir = private_dir "f92cache"
let trace_dir = private_dir "f92traces"

let () =
  Unix.putenv "FISHER92_CACHE_DIR" cache_dir;
  Unix.putenv "FISHER92_NO_CACHE" "";
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  Unix.putenv "FISHER92_NO_TRACE" ""

(* ---------- pool ---------- *)

let test_pool_map_order () =
  let xs = List.init 200 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun i -> i * i) xs)
    (Pool.map ~domains:4 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.map ~domains:4 (fun i -> i) [ 7 ])

let test_pool_mapi () =
  Alcotest.(check (list int))
    "index matches position" [ 10; 21; 32; 43 ]
    (Pool.mapi ~domains:3 (fun i x -> (10 * x) + i) [ 1; 2; 3; 4 ])

let test_pool_one_domain_is_sequential () =
  (* with domains:1 the caller runs everything inline, in order *)
  let trace = ref [] in
  let out =
    Pool.map ~domains:1
      (fun i ->
        trace := i :: !trace;
        i)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 2; 3; 4; 5 ] out;
  Alcotest.(check (list int)) "evaluation order" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

exception Boom of int

let test_pool_exception_propagates () =
  Printexc.record_backtrace true;
  (* several tasks fail; the lowest-indexed failure must win, and the
     join must terminate rather than hang *)
  match
    Pool.map ~domains:4
      (fun i -> if i >= 3 then raise (Boom i) else i)
      (List.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom k ->
    Alcotest.(check int) "deterministic first failure" 3 k;
    (* the re-raise used Printexc.raise_with_backtrace with the trace
       captured at the original raise site inside the worker *)
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool)
      (Printf.sprintf "original backtrace carried across the join: %S" bt)
      true
      (String.length bt > 0)

let test_pool_survivors_complete () =
  (* a failure must not discard the other tasks' work: every non-failing
     task still runs (observable via the side-effect counter) *)
  let ran = Atomic.make 0 in
  (match
     Pool.map ~domains:2
       (fun i ->
         if i = 0 then raise (Boom 0);
         Atomic.incr ran;
         i)
       (List.init 8 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ());
  Alcotest.(check int) "seven survivors ran" 7 (Atomic.get ran)

(* ---------- persistent pools: lifecycle, poisoning ---------- *)

let test_persistent_pool_reuse () =
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check int) "workers live" 3 (Pool.size p);
      for round = 1 to 5 do
        let out = Pool.run p (fun i x -> i + x) (List.init 20 (fun i -> i)) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.init 20 (fun i -> 2 * i))
          out
      done)

let test_persistent_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 () in
  ignore (Pool.run p (fun _ x -> x) [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check int) "no workers" 0 (Pool.size p);
  match Pool.run p (fun _ x -> x) [ 1 ] with
  | _ -> Alcotest.fail "run on a stopped pool must raise"
  | exception Invalid_argument _ -> ()

let test_poisoned_pool_refuses_reuse () =
  let p = Pool.create ~domains:2 () in
  (* a task raising mid-fan-out must drain the batch, join every
     worker, and poison the handle *)
  let ran = Atomic.make 0 in
  (match
     Pool.run p
       (fun i x ->
         if i = 1 then raise (Boom i);
         Atomic.incr ran;
         x)
       (List.init 8 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom k -> Alcotest.(check int) "failing task" 1 k);
  Alcotest.(check int) "survivors still ran" 7 (Atomic.get ran);
  Alcotest.(check int) "workers joined" 0 (Pool.size p);
  (match Pool.run p (fun _ x -> x) [ 1 ] with
  | _ -> Alcotest.fail "a poisoned pool must refuse work"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the poisoning: %S" msg)
      true
      (String.length msg > 0));
  (* and shutdown after poisoning stays safe *)
  Pool.shutdown p

let test_with_pool_cleans_up_on_raise () =
  let leaked = ref None in
  (match
     Pool.with_pool ~domains:2 (fun p ->
         leaked := Some p;
         raise (Boom 9))
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 9 -> ()
  | exception e -> raise e);
  match !leaked with
  | None -> Alcotest.fail "pool never materialized"
  | Some p -> Alcotest.(check int) "workers joined on the way out" 0 (Pool.size p)

(* ---------- sequential == parallel (qcheck) ---------- *)

(* subsets drawn from cheap workloads so the property stays fast; the
   pair compress/uncompress keeps the crossmode section non-trivial *)
let subset_gen : string list Gen.t =
  let open Gen in
  let pool = [ "lfk"; "spiff"; "mfcom"; "compress"; "uncompress" ] in
  let* picks = list_repeat (List.length pool) bool in
  let chosen =
    List.filteri (fun i _ -> List.nth picks i) pool
  in
  return (if chosen = [] then [ "lfk" ] else chosen)

let render_study names ~domains =
  let workloads = List.map Registry.find names in
  E.render_all (Study.load ~workloads ~domains ~cache:false ())

let prop_parallel_equals_sequential =
  QCheck2.Test.make ~count:3
    ~name:"parallel Study.load renders byte-identical to sequential"
    ~print:(String.concat " ") subset_gen
    (fun names ->
      String.equal
        (render_study names ~domains:1)
        (render_study names ~domains:4))

(* ---------- study cache ---------- *)

let spiff = lazy (Registry.find "spiff")

(* spiff's first dataset, measured once: its run-cache key and run *)
let measured_run =
  lazy
    (let w = Lazy.force spiff in
     let ir = Study.compile_variant w in
     let d = List.hd w.Workload.w_datasets in
     ( ir,
       Study.store_key ~program:w.w_name ir d,
       Measure.of_result ~program:w.w_name ~dataset:d.ds_name
         (Study.execute ir d ()) ))

let lookup key = Store.find Cache.kind key Cache.read
let store key run = Store.put Cache.kind key (Cache.render key run)

let run_equal (a : Measure.run) (b : Measure.run) =
  String.equal a.program b.program
  && String.equal a.dataset b.dataset
  && a.counts = b.counts
  && String.equal a.profile.Profile.program b.profile.Profile.program
  && a.profile.Profile.encountered = b.profile.Profile.encountered
  && a.profile.Profile.taken = b.profile.Profile.taken

let test_cache_roundtrip () =
  Store.clear Cache.kind;
  let _, key, run = Lazy.force measured_run in
  Alcotest.(check bool) "miss on empty cache" true (lookup key = None);
  store key run;
  (match lookup key with
  | None -> Alcotest.fail "stored entry not found"
  | Some back ->
    Alcotest.(check bool) "round-trips exactly" true (run_equal run back));
  (* a different build fingerprint must miss *)
  Alcotest.(check bool) "stale fingerprint misses" true
    (lookup { key with fingerprint = "0000000000000000" } = None);
  (* a different site count must be rejected, not misread *)
  Alcotest.(check bool) "site count mismatch misses" true
    (lookup { key with n_sites = key.n_sites + 1 } = None)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_cache_truncation_and_bitflip () =
  let _, key, run = Lazy.force measured_run in
  Store.clear Cache.kind;
  store key run;
  let path = Store.path Cache.kind key in
  let original = read_file path in
  (* truncation *)
  write_file path (String.sub original 0 (String.length original / 2));
  Alcotest.(check bool) "truncated entry misses" true (lookup key = None);
  (* a write cut just before the final newline leaves every line whole *)
  write_file path (String.sub original 0 (String.length original - 1));
  Alcotest.(check bool) "entry without its final newline misses" true
    (lookup key = None);
  (* single bit flip in the middle (lands inside a checksummed section) *)
  let b = Bytes.of_string original in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 1));
  write_file path (Bytes.to_string b);
  Alcotest.(check bool) "bit-flipped entry misses" true (lookup key = None);
  (* a future format version must also miss *)
  write_file path
    ("fisher92runcache 999\n"
    ^ String.concat "\n"
        (List.tl (String.split_on_char '\n' original)));
  Alcotest.(check bool) "version mismatch misses" true (lookup key = None)

let test_warm_cache_identical () =
  Store.clear Cache.kind;
  let names = [ "lfk"; "compress"; "uncompress" ] in
  let workloads () = List.map Registry.find names in
  let cold, cold_tm = Study.load_timed ~workloads:(workloads ()) () in
  let warm, warm_tm = Study.load_timed ~workloads:(workloads ()) () in
  Alcotest.(check bool) "cold run simulated everything" true
    (List.for_all
       (fun tm -> List.for_all (fun r -> not r.Study.rt_cached) tm.Study.tm_runs)
       cold_tm);
  Alcotest.(check bool) "warm run served everything from cache" true
    (List.for_all
       (fun tm -> List.for_all (fun r -> r.Study.rt_cached) tm.Study.tm_runs)
       warm_tm);
  Alcotest.(check string) "rendered output byte-identical"
    (E.render_all cold) (E.render_all warm)

let test_progress_events () =
  Store.clear Cache.kind;
  let events = ref [] in
  let _ =
    Study.load
      ~workloads:[ Registry.find "lfk" ]
      ~progress:(fun e -> events := e :: !events)
      ()
  in
  let compiles, runs =
    List.partition (function Study.Compiled _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "one compile event" 1 (List.length compiles);
  Alcotest.(check int) "one run event per dataset" 1 (List.length runs)

(* ---------- replay entries of the trace store ---------- *)

(* What the shared replay's store key must separate: parameters
   [scheme_name] does not print, the warm vector, and the update
   rules. *)
let test_replay_key_components () =
  let warm = Array.init 8 (fun s -> s mod 3 = 0) in
  let key ?rules ?(warm = warm) schemes =
    Tracing.replay_key ?rules ~warm schemes
  in
  let same a b = List.equal String.equal a b in
  let differs what a b = Alcotest.(check bool) what false (same a b) in
  let bimode choice_bits =
    Dynamic.Bimode { history_bits = 12; choice_bits }
  in
  let tage table_bits tag_bits =
    Dynamic.Tage { table_bits; tag_bits; histories = [ 4; 8; 16 ] }
  in
  Alcotest.(check bool) "scheme_name omits choice_bits, table_bits, tag_bits"
    true
    (List.for_all
       (fun (a, b) ->
         String.equal (Dynamic.scheme_name a) (Dynamic.scheme_name b))
       [ (bimode 10, bimode 11); (tage 7 8, tage 8 8); (tage 7 8, tage 7 9) ]);
  differs "Bi-Mode choice_bits" (key [ bimode 10 ]) (key [ bimode 11 ]);
  differs "TAGE table_bits" (key [ tage 7 8 ]) (key [ tage 8 8 ]);
  differs "TAGE tag_bits" (key [ tage 7 8 ]) (key [ tage 7 9 ]);
  let flipped = Array.copy warm in
  flipped.(5) <- not flipped.(5);
  differs "warm vector" (key [ Dynamic.Two_bit ])
    (key ~warm:flipped [ Dynamic.Two_bit ]);
  differs "rules digest" (key [ Dynamic.Two_bit ])
    (key ~rules:"0000000000000000" [ Dynamic.Two_bit ]);
  Alcotest.(check bool) "rules default to Dynamic.rules_digest" true
    (same (key [ Dynamic.Two_bit ])
       (key ~rules:(Dynamic.rules_digest ()) [ Dynamic.Two_bit ]));
  Alcotest.(check bool) "equal inputs give equal keys" true
    (same (key [ bimode 10; tage 7 8 ]) (key [ bimode 10; tage 7 8 ]))

(* The store serves an entry only under its exact key. *)
let test_replay_entry_keying () =
  Store.clear Tracing.replay_kind;
  let key =
    {
      Store.program = "p";
      dataset = "d";
      fingerprint = "fp";
      dshash = "dh";
      n_sites = 3;
      extra = [ "rules a"; "cold 2-bit" ];
    }
  in
  let tallies =
    [
      { Tracing.site_correct = [| 1; 0; 7 |]; site_incorrect = [| 2; 0; 0 |] };
      { Tracing.site_correct = [| 0; 0; 5 |]; site_incorrect = [| 3; 0; 2 |] };
    ]
  in
  let entry extra =
    Store.find Tracing.replay_kind { key with extra } Tracing.read_replay
  in
  Store.put Tracing.replay_kind key (Tracing.render_replay key tallies);
  Alcotest.(check bool) "round-trips under its key" true
    (entry [ "rules a"; "cold 2-bit" ] = Some tallies);
  Alcotest.(check bool) "another rules line misses" true
    (entry [ "rules b"; "cold 2-bit" ] = None);
  Alcotest.(check bool) "a shorter roster misses" true
    (entry [ "rules a" ] = None)

let replay_workloads () = [ Registry.find "compress" ]

let render_predictors study =
  String.concat ""
    (List.map
       (fun id ->
         match
           List.find_opt (fun e -> e.Experiment.e_id = id) (E.registry ())
         with
         | Some e -> Experiment.render_text e (lazy study)
         | None -> Alcotest.failf "no %s section" id)
       [ "tournament"; "h2p" ])

(* A study over an empty trace store: its rendering, the one replay
   entry it saved, and that entry's path. *)
let replay_fixture =
  lazy
    (Store.clear Trace.kind;
     Store.clear Tracing.replay_kind;
     let study = Study.load ~workloads:(replay_workloads ()) () in
     let text = render_predictors study in
     match
       List.filter
         (fun f -> Filename.check_suffix f ".replay")
         (Array.to_list (Sys.readdir trace_dir))
     with
     | [ f ] ->
       let path = Filename.concat trace_dir f in
       (text, path, read_file path)
     | files ->
       Alcotest.failf "expected one replay entry, found %d" (List.length files))

let test_replay_store_hit () =
  let text, path, original = Lazy.force replay_fixture in
  write_file path original;
  let study = Study.load ~workloads:(replay_workloads ()) () in
  Alcotest.(check string) "a store hit renders byte-identically" text
    (render_predictors study);
  Alcotest.(check bool) "served from the replay entry" true
    (List.for_all (fun (s : Tracing.shared) -> s.sh_from_store)
       (Tracing.shared study))

(* poisoned replay entries: any corruption either misses (the trace is
   replayed again) or leaves the bytes untouched; either way tournament
   and h2p render exactly as from an empty store *)
let prop_poisoned_replay_entry =
  QCheck2.Test.make ~count:60
    ~name:"corrupted replay entries are replayed again, never trusted"
    ~print:(fun ops -> String.concat "; " (List.map Corrupt.op_name ops))
    Gen.(list_size (int_range 1 3) Corrupt.op_gen)
    (fun ops ->
      let text, path, original = Lazy.force replay_fixture in
      let corrupted = List.fold_left Corrupt.apply_op original ops in
      write_file path corrupted;
      let study = Study.load ~workloads:(replay_workloads ()) () in
      let rendered = render_predictors study in
      let served =
        List.exists (fun (s : Tracing.shared) -> s.sh_from_store)
          (Tracing.shared study)
      in
      String.equal rendered text
      && ((not served) || String.equal corrupted original))

(* ---------- store entries: golden/store_entries.txt ---------- *)

(* The file name and bytes of one entry of each kind, written from
   fixed inputs, so the golden moves neither with the workloads nor
   with the predictors' update rules.  Regenerate (only on an intended
   format change) with

     dune exec test/test_parallel.exe -- capture-entries \
       test/golden/store_entries.txt *)

let fixed_key =
  {
    Store.program = "prog";
    dataset = "data set";
    fingerprint = "0123456789abcdef";
    dshash = "fedcba9876543210";
    n_sites = 4;
    extra = [];
  }

let fixed_replay = { fixed_key with extra = [ "rules a"; "cold 2-bit" ] }

let fixed_run =
  let profile = Profile.empty ~program:fixed_key.program ~n_sites:4 in
  Array.blit [| 40; 0; 75; 5 |] 0 profile.Profile.encountered 0 4;
  Array.blit [| 10; 0; 75; 0 |] 0 profile.Profile.taken 0 4;
  {
    Measure.program = fixed_key.program;
    dataset = fixed_key.dataset;
    counts =
      {
        Fisher92_metrics.Breaks.instructions = 1_000;
        cond_branches = 120;
        unavoidable = 7;
        direct_call_ret = 30;
        jumps = 12;
      };
    profile;
  }

let fixed_events =
  List.concat (List.init 5 (fun i -> [ (0, true); (2, i < 4); (3, false) ]))
  @ [ (1, true); (0, false) ]

let fixed_trace =
  let { Store.program; dataset; fingerprint; dshash; n_sites; _ } = fixed_key in
  let w = Trace.Writer.create ~program ~dataset ~fingerprint ~dshash ~n_sites in
  List.iter (fun (s, t) -> Trace.Writer.feed w s t) fixed_events;
  Trace.Writer.render w

let fixed_tallies =
  [
    {
      Tracing.site_correct = [| 30; 0; 70; 5 |];
      site_incorrect = [| 10; 0; 5; 0 |];
    };
    {
      Tracing.site_correct = [| 38; 0; 74; 4 |];
      site_incorrect = [| 2; 0; 1; 1 |];
    };
  ]

let write_fixed_entries () =
  store fixed_key fixed_run;
  Store.put Trace.kind fixed_key fixed_trace;
  Store.put Tracing.replay_kind fixed_replay
    (Tracing.render_replay fixed_replay fixed_tallies)

(* Both stores in one fresh directory for [f]'s duration. *)
let with_one_store_dir f =
  let d = private_dir "f92store" in
  let point cache traces =
    Unix.putenv "FISHER92_CACHE_DIR" cache;
    Unix.putenv "FISHER92_TRACE_DIR" traces
  in
  point d d;
  Fun.protect
    ~finally:(fun () ->
      point cache_dir trace_dir;
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () -> f d)

let sorted_files dir =
  List.sort String.compare (Array.to_list (Sys.readdir dir))

let render_entries () =
  with_one_store_dir (fun dir ->
      write_fixed_entries ();
      String.concat ""
        (List.map
           (fun f ->
             let text = read_file (Filename.concat dir f) in
             Printf.sprintf "== %s %d\n%s" f (String.length text) text)
           (sorted_files dir)))

let test_entries_golden () =
  Alcotest.(check string) "entries match the golden"
    (read_file (Filename.concat "golden" "store_entries.txt"))
    (render_entries ())

let decode r =
  let out = ref [] in
  Trace.Reader.iter r (fun s t -> out := (s, t) :: !out);
  List.rev !out

(* One directory for both stores (FISHER92_CACHE_DIR =
   FISHER92_TRACE_DIR): entries of every kind under one key coexist,
   each kind serves only its own entry, and clearing a kind leaves the
   other kinds' files. *)
let test_kinds_share_a_directory () =
  with_one_store_dir (fun dir ->
      write_fixed_entries ();
      let run () = lookup fixed_key
      and trace () = Store.find Trace.kind fixed_key Trace.Reader.read
      and tallies () =
        Store.find Tracing.replay_kind fixed_replay Tracing.read_replay
      in
      Alcotest.(check bool) "the run" true
        (Option.map (run_equal fixed_run) (run ()) = Some true);
      Alcotest.(check bool) "the trace" true
        (Option.map decode (trace ()) = Some fixed_events);
      Alcotest.(check bool) "the tallies" true
        (tallies () = Some fixed_tallies);
      (* another kind's entry under a kind's file name is a miss *)
      let paths =
        [
          Store.path Cache.kind fixed_key;
          Store.path Trace.kind fixed_key;
          Store.path Tracing.replay_kind fixed_replay;
        ]
      in
      let texts = List.map read_file paths in
      List.iter2 write_file paths (List.tl texts @ [ List.hd texts ]);
      Alcotest.(check bool) "each kind reads only its own entries" true
        (run () = None && trace () = None && tallies () = None);
      let suffixes () = List.map Filename.extension (sorted_files dir) in
      Store.clear Trace.kind;
      Alcotest.(check (list string)) "clearing traces" [ ".replay"; ".run" ]
        (suffixes ());
      Store.clear Cache.kind;
      Alcotest.(check (list string)) "clearing runs" [ ".replay" ]
        (suffixes ());
      Store.clear Tracing.replay_kind;
      Alcotest.(check (list string)) "clearing replays" [] (suffixes ()))

(* ---------- poisoning: every kind ---------- *)

type entry_kind = Run | Trace_file | Replay

let entry_kind_name = function
  | Run -> ".run"
  | Trace_file -> ".trace"
  | Replay -> ".replay"

(* spiff's first-dataset trace and its events, and tallies of a replay
   entry's shape (13 simulators over spiff's sites) under spiff's key *)
let spiff_trace =
  lazy
    (let ir, key, _ = Lazy.force measured_run in
     let d = List.hd (Lazy.force spiff).Workload.w_datasets in
     let text =
       Trace.Writer.render
         (Tracing.record ~fingerprint:key.fingerprint ~dshash:key.dshash ~ir
            ~program:key.program d)
     in
     (text, decode (Trace.Reader.of_string text)))

let spiff_tallies key =
  List.init 13 (fun t ->
      {
        Tracing.site_correct =
          Array.init key.Store.n_sites (fun s -> ((31 * s) + (7 * t)) mod 97);
        site_incorrect = Array.init key.Store.n_sites (fun s -> (s + t) mod 5);
      })

(* Write one entry of the kind and return its path and a lookup that
   tells a miss ([None]) from serving exactly what was written
   ([Some true]) or anything else ([Some false]). *)
let poisoning_fixture kind =
  let _, key, run = Lazy.force measured_run in
  match kind with
  | Run ->
    store key run;
    ( Store.path Cache.kind key,
      fun () -> Option.map (run_equal run) (lookup key) )
  | Trace_file ->
    let text, events = Lazy.force spiff_trace in
    Store.put Trace.kind key text;
    ( Store.path Trace.kind key,
      fun () ->
        Option.map
          (fun r -> decode r = events)
          (Store.find Trace.kind key Trace.Reader.read) )
  | Replay ->
    let key = { key with extra = fixed_replay.extra } in
    let tallies = spiff_tallies key in
    Store.put Tracing.replay_kind key (Tracing.render_replay key tallies);
    ( Store.path Tracing.replay_kind key,
      fun () ->
        Option.map
          (fun back -> back = tallies)
          (Store.find Tracing.replay_kind key Tracing.read_replay) )

(* poisoned entries of every kind: any corruption either misses
   (recompute) or — when the bytes happen to be untouched, e.g. an
   identity line swap — yields exactly what was stored; and the lookup
   never raises.  450 cases give each kind about 150. *)
let prop_poisoned_entry_never_trusted =
  QCheck2.Test.make ~count:450
    ~name:"corrupted cache entries are recomputed, never trusted"
    ~print:(fun (kind, ops) ->
      String.concat "; " (entry_kind_name kind :: List.map Corrupt.op_name ops))
    Gen.(
      pair
        (oneofl [ Run; Trace_file; Replay ])
        (list_size (int_range 1 3) Corrupt.op_gen))
    (fun (kind, ops) ->
      let path, served = poisoning_fixture kind in
      let original = read_file path in
      let corrupted = List.fold_left Corrupt.apply_op original ops in
      write_file path corrupted;
      match served () with
      | None -> true
      | Some same ->
        (* only bit-identical survivors may be served *)
        String.equal corrupted original && same)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  match Sys.argv with
  | [| _; "capture-entries"; path |] -> write_file path (render_entries ())
  | _ ->
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "mapi" `Quick test_pool_mapi;
          Alcotest.test_case "1 domain is sequential" `Quick
            test_pool_one_domain_is_sequential;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "persistent pool reuse" `Quick
            test_persistent_pool_reuse;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_persistent_pool_shutdown_idempotent;
          Alcotest.test_case "poisoned pool refuses reuse" `Quick
            test_poisoned_pool_refuses_reuse;
          Alcotest.test_case "with_pool cleans up on raise" `Quick
            test_with_pool_cleans_up_on_raise;
          Alcotest.test_case "survivors complete" `Quick
            test_pool_survivors_complete;
        ] );
      ("determinism", q [ prop_parallel_equals_sequential ]);
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "truncation/bitflip/version" `Quick
            test_cache_truncation_and_bitflip;
          Alcotest.test_case "warm run identical" `Slow
            test_warm_cache_identical;
          Alcotest.test_case "progress events" `Quick test_progress_events;
        ] );
      ( "tracestore",
        [
          Alcotest.test_case "key covers every component" `Quick
            test_replay_key_components;
          Alcotest.test_case "entries serve only their key" `Quick
            test_replay_entry_keying;
          Alcotest.test_case "hit renders identically" `Quick
            test_replay_store_hit;
        ] );
      ( "poisoning",
        q [ prop_poisoned_entry_never_trusted; prop_poisoned_replay_entry ] );
      ( "store",
        [
          Alcotest.test_case "entries match the golden" `Quick
            test_entries_golden;
          Alcotest.test_case "kinds share a directory" `Quick
            test_kinds_share_a_directory;
        ] );
    ]
