(* The parallel study runner: pool semantics, sequential/parallel
   byte-identity, the on-disk study cache (round-trip, poisoning,
   warm-run identity) and the replay entries of the trace store (keys,
   poisoning). *)

module Pool = Fisher92_util.Pool
module Study = Fisher92.Study
module Cache = Fisher92.Study_cache
module E = Fisher92.Experiments
module Experiment = Fisher92.Experiment
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Profile = Fisher92_profile.Profile
module Fingerprint = Fisher92_analysis.Fingerprint
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

let measured_run () =
  let w = Lazy.force spiff in
  let ir = Study.compile_variant w in
  let d = List.hd w.Workload.w_datasets in
  let fp = Fingerprint.content_hash ir in
  let dh = Cache.dataset_hash d in
  let run =
    Measure.of_result ~program:w.w_name ~dataset:d.ds_name
      (Study.execute ir d ())
  in
  (w, ir, d, fp, dh, run)

let run_equal (a : Measure.run) (b : Measure.run) =
  String.equal a.program b.program
  && String.equal a.dataset b.dataset
  && a.counts = b.counts
  && String.equal a.profile.Profile.program b.profile.Profile.program
  && a.profile.Profile.encountered = b.profile.Profile.encountered
  && a.profile.Profile.taken = b.profile.Profile.taken

let entry_file ~fp ~dh (w : Workload.t) =
  Filename.concat cache_dir (Printf.sprintf "%s.%s.%s.run" w.w_name fp dh)

let test_cache_roundtrip () =
  Cache.clear ();
  let w, ir, d, fp, dh, run = measured_run () in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  Alcotest.(check bool) "miss on empty cache" true
    (Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
     = None);
  Cache.store ~fingerprint:fp ~dshash:dh run;
  (match
     Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
   with
  | None -> Alcotest.fail "stored entry not found"
  | Some back ->
    Alcotest.(check bool) "round-trips exactly" true (run_equal run back));
  (* a different build fingerprint must miss *)
  Alcotest.(check bool) "stale fingerprint misses" true
    (Cache.lookup ~fingerprint:"0000000000000000" ~dshash:dh ~n_sites
       ~program:w.w_name d
     = None);
  (* a different site count must be rejected, not misread *)
  Alcotest.(check bool) "site count mismatch misses" true
    (Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites:(n_sites + 1)
       ~program:w.w_name d
     = None)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* poisoned entries: any corruption either misses (recompute) or — when
   the bytes happen to be untouched, e.g. an identity line swap — yields
   the exact original record; and lookup never raises *)
let prop_poisoned_entry_never_trusted =
  let case_gen =
    let open Gen in
    let+ ops = list_size (int_range 1 3) Corrupt.op_gen in
    ops
  in
  QCheck2.Test.make ~count:150
    ~name:"corrupted cache entries are recomputed, never trusted"
    ~print:(fun ops ->
      String.concat "; " (List.map Corrupt.op_name ops))
    case_gen
    (fun ops ->
      let w, ir, d, fp, dh, run = measured_run () in
      let n_sites = Fisher92_ir.Program.n_sites ir in
      Cache.clear ();
      Cache.store ~fingerprint:fp ~dshash:dh run;
      let path = entry_file ~fp ~dh w in
      let original = read_file path in
      let corrupted = List.fold_left Corrupt.apply_op original ops in
      write_file path corrupted;
      match
        Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
      with
      | None -> true
      | Some back ->
        (* only bit-identical survivors may be served *)
        String.equal corrupted original && run_equal run back)

let test_cache_truncation_and_bitflip () =
  let w, ir, d, fp, dh, run = measured_run () in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  Cache.clear ();
  Cache.store ~fingerprint:fp ~dshash:dh run;
  let path = entry_file ~fp ~dh w in
  let original = read_file path in
  (* truncation *)
  write_file path (String.sub original 0 (String.length original / 2));
  Alcotest.(check bool) "truncated entry misses" true
    (Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
     = None);
  (* single bit flip in the middle (lands inside a checksummed section) *)
  let b = Bytes.of_string original in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 1));
  write_file path (Bytes.to_string b);
  Alcotest.(check bool) "bit-flipped entry misses" true
    (Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
     = None);
  (* a future format version must also miss *)
  write_file path
    ("fisher92runcache 999\n"
    ^ String.concat "\n"
        (List.tl (String.split_on_char '\n' original)));
  Alcotest.(check bool) "version mismatch misses" true
    (Cache.lookup ~fingerprint:fp ~dshash:dh ~n_sites ~program:w.w_name d
     = None)

let test_warm_cache_identical () =
  Cache.clear ();
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
  Cache.clear ();
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
  Trace.Store.clear ();
  let n_sites = 3 in
  let tallies =
    [ ([| 1; 0; 7 |], [| 2; 0; 0 |]); ([| 0; 0; 5 |], [| 3; 0; 2 |]) ]
  in
  let entry key =
    Trace.Store.load_replay ~program:"p" ~dataset:"d" ~fingerprint:"fp"
      ~dshash:"dh" ~n_sites ~key
  in
  Trace.Store.save_replay ~program:"p" ~dataset:"d" ~fingerprint:"fp"
    ~dshash:"dh" ~n_sites ~key:[ "rules a"; "cold 2-bit" ] tallies;
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
    (Trace.Store.clear ();
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

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
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
    ]
