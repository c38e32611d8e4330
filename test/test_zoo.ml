(* The predictor zoo: qcheck surface properties every scheme must hold
   (determinism, clean reset, per-site tallies summing to the globals,
   warm seeding that never crashes, the counter schemes against
   textbook models), the latent-bug regressions on the dynamic-prediction
   path (Static/warm length validation, hook site bounds), hand-evaluated
   cold/warm semantics of the new schemes, and the tournament acceptance
   gate: profile warming never loses on geomean mispredicts, store hit
   and miss replay bit-identically — and the shared per-study replay: its
   memo contract, and its cold and warm simulators against inline VM
   hooks. *)

module Dynamic = Fisher92_predict.Dynamic
module Predictor = Fisher92_predict.Predictor
module Prediction = Fisher92_predict.Prediction
module Remap = Fisher92_predict.Remap
module Db = Fisher92_profile.Db
module Tracing = Fisher92.Tracing
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Gen = QCheck2.Gen

(* Isolate the trace store, as test_trace does. *)
let trace_dir =
  let d = Filename.temp_file "f92zoo" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let () =
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  Unix.putenv "FISHER92_NO_TRACE" ""

let replay_of evs f = List.iter (fun (s, t) -> f s t) evs
let zoo () = Predictor.zoo ()

let tallies sim =
  ( Dynamic.correct sim,
    Dynamic.incorrect sim,
    Dynamic.site_correct sim,
    Dynamic.site_incorrect sim )

(* ---------- generators ---------- *)

let stream_gen =
  Gen.(
    int_range 1 20 >>= fun n_sites ->
    list_size (int_range 0 400)
      (pair (int_range 0 (n_sites - 1)) bool)
    >>= fun evs ->
    array_size (return n_sites) bool >>= fun warm -> return (n_sites, evs, warm))

let pp_stream (n_sites, evs, _) =
  Printf.sprintf "n_sites=%d events=%d" n_sites (List.length evs)

(* ---------- zoo-wide qcheck properties ---------- *)

let for_all_schemes f =
  List.for_all (fun z -> f z.Predictor.d_name z.Predictor.d_scheme) (zoo ())

let prop_deterministic =
  QCheck2.Test.make ~count:100 ~name:"simulate is deterministic"
    ~print:pp_stream stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let a = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          let b = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          tallies a = tallies b))

let prop_tallies_sum =
  QCheck2.Test.make ~count:100
    ~name:"per-site tallies sum to the global counters" ~print:pp_stream
    stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          let sum = Array.fold_left ( + ) 0 in
          sum (Dynamic.site_correct sim) = Dynamic.correct sim
          && sum (Dynamic.site_incorrect sim) = Dynamic.incorrect sim
          && Dynamic.correct sim + Dynamic.incorrect sim = List.length evs))

let prop_reset_clean =
  QCheck2.Test.make ~count:100 ~name:"reset_counts yields a clean slate"
    ~print:pp_stream stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          Dynamic.reset_counts sim;
          Dynamic.correct sim = 0
          && Dynamic.incorrect sim = 0
          && Array.for_all (( = ) 0) (Dynamic.site_correct sim)
          && Array.for_all (( = ) 0) (Dynamic.site_incorrect sim)))

let prop_warm_total =
  QCheck2.Test.make ~count:100
    ~name:"warm seeding never crashes and still counts every branch"
    ~print:pp_stream stream_gen (fun (n_sites, evs, warm) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate ~warm scheme ~n_sites (replay_of evs) in
          Dynamic.correct sim + Dynamic.incorrect sim = List.length evs))

(* ---------- batched replay: simulate_runs == simulate ---------- *)

module Trace = Fisher92_trace.Trace

let trace_text ~n_sites evs =
  let w =
    Trace.Writer.create ~program:"q" ~dataset:"d" ~fingerprint:"f" ~dshash:"h"
      ~n_sites
  in
  List.iter (fun (s, t) -> Trace.Writer.feed w s t) evs;
  Trace.Writer.render w

let batched_equals_streaming ?warm ~n_sites ~chunk evs =
  let text = trace_text ~n_sites evs in
  for_all_schemes (fun _ scheme ->
      let a = Dynamic.simulate ?warm scheme ~n_sites (replay_of evs) in
      let b =
        Dynamic.simulate_runs ?warm scheme ~n_sites
          (Trace.Reader.iter_runs ~chunk (Trace.Reader.of_string text))
      in
      tallies a = tallies b)

(* The batched path's run and period fast-forwards must be invisible:
   cold and warm, any chunk size, every scheme, bit-identical tallies
   (global and per-site) to the streaming hook. *)
let prop_batched_equals_streaming =
  QCheck2.Test.make ~count:100
    ~name:"simulate_runs == simulate (every scheme, cold and warm)"
    ~print:(fun ((s : int * (int * bool) list * bool array), chunk) ->
      Printf.sprintf "%s chunk=%d" (pp_stream s) chunk)
    Gen.(pair stream_gen (int_range 1 64))
    (fun ((n_sites, evs, warm), chunk) ->
      batched_equals_streaming ~n_sites ~chunk evs
      && batched_equals_streaming ~warm ~n_sites ~chunk evs)

(* Random streams rarely form runs or periodic stretches, so drive the
   fast-forward machinery deliberately: repeated loop bodies (periodic
   stretches for every history scheme) and long constant runs (the
   1-periodic stretches every scheme fast-forwards). *)
let loopy_gen =
  let open Gen in
  let* n_sites = int_range 1 8 in
  let* body =
    list_size (int_range 1 8) (pair (int_bound (n_sites - 1)) bool)
  in
  let* reps = int_range 3 60 in
  let* site = int_bound (n_sites - 1) in
  let* dir = bool in
  let* runlen = int_range 1 40 in
  let+ tail =
    list_size (int_bound 20) (pair (int_bound (n_sites - 1)) bool)
  in
  ( n_sites,
    List.concat (List.init reps (fun _ -> body))
    @ List.init runlen (fun _ -> (site, dir))
    @ tail )

let prop_batched_loopy =
  QCheck2.Test.make ~count:200
    ~name:"simulate_runs == simulate on loop-shaped streams"
    ~print:(fun ((n, evs), chunk) ->
      Printf.sprintf "n_sites=%d events=%d chunk=%d" n (List.length evs) chunk)
    Gen.(pair loopy_gen (int_range 1 64))
    (fun ((n_sites, evs), chunk) ->
      batched_equals_streaming ~n_sites ~chunk evs)

(* ---------- the counter rules against textbook models ---------- *)

(* Streaming and batched replay run one update rule per scheme, so they
   would share a bug in it.  The counter schemes are therefore also
   checked against models written here from the textbook definitions:
   a 2-bit counter in [0, 3] predicts taken from 2 up and moves one step
   toward each outcome, clamped at both ends; a 1-bit entry holds the
   last outcome.  The schemes differ only in the entry an event uses:
   its site (1-bit, 2-bit), its site modulo the table size (Smith), the
   last [bits] outcomes (two-level), or those XOR the site (gshare). *)
let model_bump c taken =
  let c = if taken then c + 1 else c - 1 in
  if c > 3 then 3 else if c < 0 then 0 else c

let model_tallies scheme ~n_sites ~bits evs =
  let size = 1 lsl bits in
  let one_bit = match scheme with Dynamic.Last_direction -> true | _ -> false in
  let index site hist =
    match scheme with
    | Dynamic.Smith _ -> site mod size
    | Dynamic.Two_level _ -> hist
    | Dynamic.Gshare _ -> (hist lxor site) mod size
    | _ -> site
  in
  let table = Array.make (Int.max n_sites size) 0 and hist = ref 0 in
  let correct = Array.make n_sites 0 and incorrect = Array.make n_sites 0 in
  List.iter
    (fun (site, taken) ->
      let i = index site !hist in
      let c = table.(i) in
      let predicted = if one_bit then c = 1 else c >= 2 in
      if predicted = taken then correct.(site) <- correct.(site) + 1
      else incorrect.(site) <- incorrect.(site) + 1;
      table.(i) <- (if one_bit then Bool.to_int taken else model_bump c taken);
      hist := ((2 * !hist) + Bool.to_int taken) mod size)
    evs;
  (correct, incorrect)

let prop_counters_match_models =
  QCheck2.Test.make ~count:300 ~name:"counter rules == textbook models"
    ~print:(fun ((n, evs), bits) ->
      Printf.sprintf "n_sites=%d events=%d bits=%d" n (List.length evs) bits)
    Gen.(
      pair
        (oneof [ map (fun (n, evs, _) -> (n, evs)) stream_gen; loopy_gen ])
        (int_range 1 8))
    (fun ((n_sites, evs), bits) ->
      List.for_all
        (fun scheme ->
          let sim = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          (Dynamic.site_correct sim, Dynamic.site_incorrect sim)
          = model_tallies scheme ~n_sites ~bits evs)
        [
          Dynamic.Last_direction;
          Dynamic.Two_bit;
          Dynamic.Smith { table_bits = bits };
          Dynamic.Two_level { history_bits = bits };
          Dynamic.Gshare { history_bits = bits };
        ])

(* ---------- pinned semantics: golden/zoo_streams.txt ---------- *)

(* Streaming and batched replay both run the one per-scheme update
   rule, so batched == streaming cannot catch a change to the rule
   itself.  The golden pins its outcome on a fixed corpus: streams
   shaped like [stream_gen] and [loopy_gen], drawn from the repository's
   own splitmix generator so the corpus never depends on the qcheck
   or OCaml version.  Regenerate (only on an intended change) with

     dune exec test/test_zoo.exe -- capture-streams \
       test/golden/zoo_streams.txt *)

let golden_streams =
  lazy
    (let module Rng = Fisher92_util.Rng in
     let rng = Rng.create 1992 in
     (* [n] draws in order: neither tuple nor [List.init] evaluation
        order is specified, and the corpus must not depend on it *)
     let draws n f =
       let rec go i acc =
         if i = n then List.rev acc else go (i + 1) (f i :: acc)
       in
       go 0 []
     in
     let pick n_sites _ =
       let site = Rng.int rng n_sites in
       (site, Rng.bool rng)
     in
     let stream name n_sites evs =
       let warm = Array.of_list (draws n_sites (fun _ -> Rng.bool rng)) in
       (name, n_sites, evs, warm)
     in
     let random i =
       let n_sites = Rng.int_in rng 1 20 in
       let evs = draws (Rng.int_in rng 0 400) (pick n_sites) in
       stream (Printf.sprintf "random-%02d" i) n_sites evs
     in
     let loopy i =
       let n_sites = Rng.int_in rng 1 8 in
       let body = draws (Rng.int_in rng 1 8) (pick n_sites) in
       let reps = Rng.int_in rng 3 60 in
       let ev = pick n_sites 0 in
       let run = List.init (Rng.int_in rng 1 40) (fun _ -> ev) in
       let tail = draws (Rng.int_in rng 0 20) (pick n_sites) in
       let evs = List.concat (List.init reps (fun _ -> body)) @ run @ tail in
       stream (Printf.sprintf "loopy-%02d" i) n_sites evs
     in
     let randoms = draws 16 random in
     randoms @ draws 16 loopy)

(* every zoo scheme (2-bit among them), plus the paper's 1-bit
   baseline and a fixed assignment: the stream's warm vector *)
let golden_schemes warm =
  List.map (fun z -> z.Predictor.d_scheme) (zoo ())
  @ [ Dynamic.Last_direction; Dynamic.Static warm ]

let render_streams simulate =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, n_sites, evs, warm) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun (mode, warm) ->
              let sim = simulate ?warm scheme ~n_sites evs in
              let ints a = Array.to_list (Array.map string_of_int a) in
              Printf.bprintf b "%s %s %s correct=%d incorrect=%d sites=%s\n"
                name (Dynamic.scheme_name scheme) mode (Dynamic.correct sim)
                (Dynamic.incorrect sim)
                (Fisher92_util.Fnv.hash_strings
                   (ints (Dynamic.site_correct sim)
                   @ ints (Dynamic.site_incorrect sim))))
            [ ("cold", None); ("warm", Some warm) ])
        (golden_schemes warm))
    (Lazy.force golden_streams);
  Buffer.contents b

let streaming_render () =
  render_streams (fun ?warm scheme ~n_sites evs ->
      Dynamic.simulate ?warm scheme ~n_sites (replay_of evs))

let check_streams_golden actual =
  let ic = open_in_bin (Filename.concat "golden" "zoo_streams.txt") in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "zoo streams match the golden" expected actual

let test_streams_golden_streaming () =
  check_streams_golden (streaming_render ())

let test_streams_golden_batched () =
  check_streams_golden
    (render_streams (fun ?warm scheme ~n_sites evs ->
         Dynamic.simulate_runs ?warm scheme ~n_sites
           (Trace.Reader.iter_runs ~chunk:16
              (Trace.Reader.of_string (trace_text ~n_sites evs)))))

(* ---------- latent-bug regressions ---------- *)

let check_invalid name needle f =
  match f () with
  | exception Invalid_argument msg ->
    let has sub s =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s message mentions %S: %s" name needle msg)
      true (has needle msg)
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* Regression: [Static p] with the wrong length used to die mid-replay
   with a bare Index_out_of_bounds once the trace touched a high site;
   now create rejects the mismatch up front, descriptively. *)
let test_static_length_validated () =
  check_invalid "short static" "static prediction" (fun () ->
      Dynamic.create (Dynamic.Static [| true; false |]) ~n_sites:5);
  check_invalid "long static" "static prediction" (fun () ->
      Dynamic.simulate
        (Dynamic.Static (Array.make 9 false))
        ~n_sites:3
        (replay_of [ (0, true) ]));
  (* the exact-length case still works *)
  let sim =
    Dynamic.simulate
      (Dynamic.Static [| true; true |])
      ~n_sites:2
      (replay_of [ (0, true); (1, false) ])
  in
  Alcotest.(check int) "static still predicts" 1 (Dynamic.correct sim)

(* Both entry points range-check every site they step: [hook], and
   [hook_batch] on a lone event and on a run head (the run goes
   through the fast-forward driver). *)
let test_hook_site_bounds () =
  let sim = Dynamic.create Dynamic.Two_bit ~n_sites:2 in
  check_invalid "site too high" "out of range" (fun () ->
      Dynamic.hook sim 2 true);
  check_invalid "negative site" "out of range" (fun () ->
      Dynamic.hook sim (-1) true);
  let schemes =
    ("1-bit", Dynamic.Last_direction)
    :: List.map (fun z -> (z.Predictor.d_name, z.Predictor.d_scheme)) (zoo ())
  in
  List.iter
    (fun (name, scheme) ->
      let sim = Dynamic.create scheme ~n_sites:3 in
      check_invalid (name ^ " bounds") "out of range" (fun () ->
          Dynamic.hook sim 7 false);
      List.iter
        (fun site ->
          let batch what sites runs =
            let n = Array.length sites in
            check_invalid
              (Printf.sprintf "%s hook_batch %s %d" name what site)
              "out of range"
              (fun () ->
                Dynamic.hook_batch
                  (Dynamic.create scheme ~n_sites:3)
                  sites (Bytes.make n '\001') runs (Array.make n 0) n)
          in
          batch "lone event" [| 0; site; 1 |] [| 1; 1; 1 |];
          batch "run head" [| 0; site; site; site |] [| 1; 3; 0; 0 |])
        [ 3; 7; -1 ])
    schemes

(* With no sites a predictor still keeps one tally slot, as it always
   has: zero verdicts, and one-element per-site arrays. *)
let test_zero_sites () =
  let schemes =
    Dynamic.Last_direction :: Dynamic.Static [||]
    :: List.map (fun z -> z.Predictor.d_scheme) (zoo ())
  in
  List.iter
    (fun scheme ->
      let sim = Dynamic.create scheme ~n_sites:0 in
      let name = Dynamic.scheme_name scheme in
      Alcotest.(check (pair int int))
        (name ^ " tallies nothing") (0, 0)
        (Dynamic.correct sim, Dynamic.incorrect sim);
      Alcotest.(check (pair int int))
        (name ^ " per-site lengths") (1, 1)
        ( Array.length (Dynamic.site_correct sim),
          Array.length (Dynamic.site_incorrect sim) );
      check_invalid (name ^ " site 0") "out of range" (fun () ->
          Dynamic.hook sim 0 true))
    schemes

let test_warm_length_validated () =
  check_invalid "warm too short" "warm prediction" (fun () ->
      Dynamic.create ~warm:[| true |] Dynamic.Two_bit ~n_sites:3)

(* ---------- batched replay allocates nothing per event ---------- *)

(* 64k irregular events over 64 sites, decoded by [iter_runs]: runs of
   about one event, so nearly every event is stepped.  Only the
   [hook_batch] calls are counted, not the decode. *)
let test_batched_allocation () =
  let module Rng = Fisher92_util.Rng in
  let rng = Rng.create 64 in
  let n_sites = 64 and events = 65536 in
  let evs =
    List.init events (fun _ ->
        let s = Rng.int rng n_sites in
        (s, Rng.chance rng (float_of_int (s + 1) /. 65.0)))
  in
  let reader = Trace.Reader.of_string (trace_text ~n_sites evs) in
  let warm = Array.init n_sites (fun s -> s land 1 = 0) in
  let sims =
    ("1-bit cold", Dynamic.Last_direction, None)
    :: List.concat_map
         (fun z ->
           [
             (z.Predictor.d_name ^ " cold", z.Predictor.d_scheme, None);
             (z.Predictor.d_name ^ " warm", z.Predictor.d_scheme, Some warm);
           ])
         (zoo ())
  in
  List.iter
    (fun (name, scheme, warm) ->
      let sim = Dynamic.create ?warm scheme ~n_sites in
      let h = Dynamic.hook_batch sim in
      let words = ref 0.0 in
      Trace.Reader.iter_runs reader (fun sites tk rl pr n ->
          let w0 = Gc.minor_words () in
          h sites tk rl pr n;
          words := !words +. (Gc.minor_words () -. w0));
      Alcotest.(check int) (name ^ " replayed every event") events
        (Dynamic.correct sim + Dynamic.incorrect sim);
      let per_event = !words /. float_of_int events in
      if per_event >= 0.01 then
        Alcotest.failf "%s: %.4f words per event (want < 0.01)" name per_event)
    sims

(* ---------- new-scheme semantics, hand-evaluated ---------- *)

(* Smith shares one counter table across sites: with a 2-entry table,
   sites 0 and 2 alias onto entry 0, so training on site 0 predicts
   site 2's first visit; per-site 2-bit state knows nothing yet. *)
let test_smith_aliases () =
  let evs = [ (0, true); (0, true); (2, true) ] in
  let smith =
    Dynamic.simulate (Dynamic.Smith { table_bits = 1 }) ~n_sites:3
      (replay_of evs)
  in
  let twobit = Dynamic.simulate Dynamic.Two_bit ~n_sites:3 (replay_of evs) in
  Alcotest.(check int) "smith rides the shared counter" 1
    (Dynamic.correct smith);
  Alcotest.(check int) "2-bit still cold on site 2" 0 (Dynamic.correct twobit)

(* When the table covers every site without aliasing, Smith degenerates
   to exactly the per-site 2-bit predictor. *)
let prop_smith_equals_twobit =
  QCheck2.Test.make ~count:100
    ~name:"unaliased smith == per-site 2-bit" ~print:pp_stream stream_gen
    (fun (n_sites, evs, _) ->
      let smith =
        Dynamic.simulate (Dynamic.Smith { table_bits = 5 }) ~n_sites
          (replay_of evs)
      in
      let twobit = Dynamic.simulate Dynamic.Two_bit ~n_sites (replay_of evs) in
      tallies smith = tallies twobit)

let test_bimode_cold () =
  (* hand-evaluated like test_trace's check_cold: banks and choice all
     cold predict not-taken; the third event flips to the taken bank
     whose counter is still weak, so only the not-taken event lands *)
  let sim =
    Dynamic.simulate
      (Dynamic.Bimode { history_bits = 1; choice_bits = 1 })
      ~n_sites:1
      (replay_of [ (0, true); (0, true); (0, false); (0, true) ])
  in
  Alcotest.(check int) "bimode cold correct" 1 (Dynamic.correct sim);
  Alcotest.(check int) "bimode cold incorrect" 3 (Dynamic.incorrect sim)

let test_tage_cold_vs_warm () =
  let all_taken = List.init 4 (fun _ -> (0, true)) in
  let scheme =
    Dynamic.Tage { table_bits = 7; tag_bits = 8; histories = [ 4; 8; 16 ] }
  in
  let cold = Dynamic.simulate scheme ~n_sites:1 (replay_of all_taken) in
  let warm =
    Dynamic.simulate ~warm:[| true |] scheme ~n_sites:1 (replay_of all_taken)
  in
  (* cold base needs two outcomes to cross the taken threshold *)
  Alcotest.(check bool)
    (Printf.sprintf "cold tage misses the head (%d wrong)"
       (Dynamic.incorrect cold))
    true
    (Dynamic.incorrect cold >= 2);
  Alcotest.(check int) "warm tage is right from branch one" 4
    (Dynamic.correct warm)

let test_warm_twobit_beats_cold () =
  let evs = [ (0, true); (0, true); (0, false); (0, true) ] in
  let cold = Dynamic.simulate Dynamic.Two_bit ~n_sites:1 (replay_of evs) in
  let warm =
    Dynamic.simulate ~warm:[| true |] Dynamic.Two_bit ~n_sites:1
      (replay_of evs)
  in
  Alcotest.(check int) "cold 2-bit all wrong" 0 (Dynamic.correct cold);
  Alcotest.(check int) "warm 2-bit rides the bias" 3 (Dynamic.correct warm)

(* ---------- warming through the remap chain ---------- *)

let loaded_workloads names =
  Fisher92.Study.items
    (Fisher92.Study.load ~workloads:(List.map Registry.find names) ())

(* A database whose shape does not match the build (a "previous
   version" profile missing sites) must warm through the degradation
   chain — never crash the simulator with an out-of-bounds seed. *)
let test_warm_survives_stale_db () =
  let l = List.hd (loaded_workloads [ "compress" ]) in
  let ir = l.Fisher92.Study.ir in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let stale =
    Db.create ~program:l.Fisher92.Study.workload.Workload.w_name
      ~n_sites:(n_sites + 7)
  in
  let plan = Remap.plan ir stale in
  Alcotest.(check int) "chain fills every site of the build" n_sites
    (Array.length plan.Remap.r_prediction);
  let d = List.hd l.Fisher92.Study.workload.Workload.w_datasets in
  let ob =
    Tracing.obtain ~ir ~program:l.Fisher92.Study.workload.Workload.w_name d
  in
  List.iter
    (fun z ->
      let sim =
        Dynamic.simulate ~warm:plan.Remap.r_prediction z.Predictor.d_scheme
          ~n_sites
          (Fisher92_trace.Trace.Reader.iter ob.Tracing.reader)
      in
      Alcotest.(check bool)
        (z.Predictor.d_name ^ " counted every branch")
        true
        (Dynamic.correct sim + Dynamic.incorrect sim > 0))
    (zoo ())

(* ---------- tournament acceptance ---------- *)

(* Geomean over rows of (warm+1)/(cold+1); < 1 means warming won. *)
let ratio pairs =
  Fisher92_util.Stats.geomean
    (List.map
       (fun (c, w) -> float_of_int (w + 1) /. float_of_int (c + 1))
       pairs)

let tournament_rows = lazy (Fisher92.Experiments.tournament
  (Fisher92.Study.load
     ~workloads:(List.map Registry.find [ "doduc"; "compress"; "spiff" ])
     ()))

(* The PR's headline claim: on every scheme, profile warming beats the
   cold start on geomean mispredicts over the raced workloads. *)
let test_warm_beats_cold_geomean () =
  let rows = Lazy.force tournament_rows in
  let schemes =
    List.sort_uniq compare
      (List.map (fun r -> r.Fisher92.Experiments.tn_scheme) rows)
  in
  Alcotest.(check bool) "zoo raced at least 5 schemes" true
    (List.length schemes >= 5);
  List.iter
    (fun name ->
      let pairs =
        List.filter_map
          (fun (r : Fisher92.Experiments.tournament_row) ->
            if r.tn_scheme = name then Some (r.tn_cold_mr, r.tn_warm_mr)
            else None)
          rows
      in
      let g = ratio pairs in
      Alcotest.(check bool)
        (Printf.sprintf "%s warm/cold mispredict geomean %.4f < 1" name g)
        true (g < 1.0))
    schemes

(* ... and on the H2P class (the few unbiased, history-resistant sites
   carrying an outsized mispredict share) warming never loses overall. *)
let test_h2p_warming_closes_gap () =
  let rows =
    Fisher92.Experiments.h2p
      (Fisher92.Study.load
         ~workloads:(List.map Registry.find [ "doduc"; "compress"; "spiff" ])
         ())
  in
  let all_pairs =
    List.concat_map
      (fun (r : Fisher92.Experiments.h2p_row) ->
        List.map (fun (_, c, w) -> (c, w)) r.hp_schemes)
      rows
  in
  Alcotest.(check bool) "some H2P sites exist" true
    (List.exists (fun (r : Fisher92.Experiments.h2p_row) -> r.hp_sites > 0) rows);
  let g = ratio all_pairs in
  Alcotest.(check bool)
    (Printf.sprintf "H2P warm/cold mispredict geomean %.4f < 1" g)
    true (g < 1.0)

(* The unmemoized reference under the shared replay: for every loaded
   workload, obtain its first dataset's trace and replay it through
   every scheme twice over one decode, cold and seeded with
   [Tracing.warm_prediction].  Never served from replay entries: every
   call replays, and consults the trace store, afresh. *)
let tournament_study ~schemes study =
  Fisher92_util.Pool.map
    (fun (l : Fisher92.Study.loaded) ->
      let n_sites = Fisher92_ir.Program.n_sites l.ir in
      let warm = Tracing.warm_prediction l in
      let ob =
        Tracing.obtain ~ir:l.ir ~program:l.workload.Workload.w_name
          (List.hd l.workload.w_datasets)
      in
      let sims =
        List.map
          (fun s ->
            (s, Dynamic.create s ~n_sites, Dynamic.create ~warm s ~n_sites))
          schemes
      in
      let hooks =
        List.concat_map
          (fun (_, c, w) -> [ Dynamic.hook_batch c; Dynamic.hook_batch w ])
          sims
      in
      Trace.Reader.iter_runs ob.Tracing.reader (fun st tk rl pr n ->
          List.iter (fun h -> h st tk rl pr n) hooks);
      ( l,
        ob,
        List.map
          (fun (s, c, w) ->
            {
              Tracing.rc_scheme = s;
              rc_cold = Tracing.tally c;
              rc_warm = Tracing.tally w;
            })
          sims ))
    (Fisher92.Study.items study)

(* Store hit and store miss must replay bit-identically: race once with
   an empty store (capture), once against the populated store. *)
let test_store_hit_miss_identical () =
  Fisher92_util.Store.clear Trace.kind;
  let study =
    Fisher92.Study.load ~workloads:[ Registry.find "compress" ] ()
  in
  let schemes = Tracing.zoo_schemes () in
  let snapshot results =
    List.map
      (fun ((_ : Fisher92.Study.loaded), (ob : Tracing.obtained), races) ->
        ( ob.Tracing.from_store,
          List.map
            (fun (rc : Tracing.raced) -> (rc.rc_cold, rc.rc_warm))
            races ))
      results
  in
  let builds = Tracing.shared_builds () in
  let miss = snapshot (tournament_study ~schemes study) in
  let hit = snapshot (tournament_study ~schemes study) in
  Alcotest.(check int) "tournament_study bypasses the shared memo" builds
    (Tracing.shared_builds ());
  Alcotest.(check bool) "first pass captured" true
    (List.for_all (fun (from_store, _) -> not from_store) miss);
  Alcotest.(check bool) "second pass hit the store" true
    (List.for_all (fun (from_store, _) -> from_store) hit);
  Alcotest.(check bool) "bit-identical tallies" true
    (List.map snd miss = List.map snd hit)

(* ---------- the shared replay ---------- *)

let race_tallies races =
  List.map (fun (rc : Tracing.raced) -> (rc.rc_cold, rc.rc_warm)) races

(* The memo's contract: the five trace sections over one study share a
   single replay; a separately loaded study gets its own (read from the
   replay entry the first one saved); and what it serves equals an
   unmemoized race over the same study. *)
let test_shared_memo () =
  let load () =
    Fisher92.Study.load
      ~workloads:(List.map Registry.find [ "compress"; "spiff" ])
      ()
  in
  let render study id =
    match Fisher92.Experiment.find id with
    | Some e -> ignore (Fisher92.Experiment.render_text e (lazy study))
    | None -> Alcotest.fail ("unregistered section " ^ id)
  in
  let sections =
    [ "dynamic"; "dynsim"; "predictability"; "tournament"; "h2p" ]
  in
  ignore (Fisher92.Experiments.registry ());
  let builds = Tracing.shared_builds () in
  let a = load () in
  List.iter (render a) sections;
  Alcotest.(check int) "five sections, one replay" (builds + 1)
    (Tracing.shared_builds ());
  Alcotest.(check bool) "the same replay is served" true
    (Tracing.shared a == Tracing.shared a);
  let b = load () in
  render b "dynamic";
  Alcotest.(check int) "a second study gets its own replay" (builds + 2)
    (Tracing.shared_builds ());
  let unmemoized = tournament_study ~schemes:(Tracing.zoo_schemes ()) b in
  Alcotest.(check bool) "tallies equal an unmemoized tournament_study" true
    (List.map (fun (s : Tracing.shared) -> race_tallies s.sh_races)
       (Tracing.shared b)
    = List.map (fun (_, _, races) -> race_tallies races) unmemoized)

(* 1-bit and every zoo scheme, cold and profile-warmed, driven inline
   by the VM's [on_branch] hook over every registry workload's first
   dataset — thirteen simulators on one VM run — must tally exactly,
   per site, what the shared replay reports, whether its batched
   simulators just ran or their tallies came from a replay entry: the
   numbers the five predictor sections render. *)
let test_inline_hook_oracle () =
  let study = Fisher92.Study.load () in
  List.iter
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let n_sites = Fisher92_ir.Program.n_sites l.ir in
      let warm = Tracing.warm_prediction l in
      let label scheme mode =
        String.concat " "
          [ l.workload.Workload.w_name; Dynamic.scheme_name scheme; mode ]
      in
      let pairs =
        ( label Dynamic.Last_direction "cold",
          Dynamic.create Dynamic.Last_direction ~n_sites,
          Tracing.cold s Dynamic.Last_direction )
        :: List.concat_map
             (fun scheme ->
               let rc =
                 List.find
                   (fun (rc : Tracing.raced) -> rc.rc_scheme = scheme)
                   s.sh_races
               in
               [
                 ( label scheme "cold",
                   Dynamic.create scheme ~n_sites,
                   rc.rc_cold );
                 ( label scheme "warm",
                   Dynamic.create ~warm scheme ~n_sites,
                   rc.rc_warm );
               ])
             (Tracing.zoo_schemes ())
      in
      let config =
        {
          Fisher92_vm.Vm.default_config with
          on_branch =
            Some
              (fun site taken ->
                List.iter
                  (fun (_, sim, _) -> Dynamic.hook sim site taken)
                  pairs);
        }
      in
      let (_ : Fisher92_vm.Vm.result) =
        Fisher92.Study.execute l.ir
          (List.hd l.workload.Workload.w_datasets)
          ~config ()
      in
      List.iter
        (fun (what, sim, replayed) ->
          Alcotest.(check (pair int int))
            (what ^ " correct/incorrect")
            (Dynamic.correct sim, Dynamic.incorrect sim)
            (Tracing.correct replayed, Tracing.incorrect replayed);
          Alcotest.(check (array int))
            (what ^ " per-site correct")
            (Dynamic.site_correct sim)
            replayed.Tracing.site_correct;
          Alcotest.(check (array int))
            (what ^ " per-site incorrect")
            (Dynamic.site_incorrect sim)
            replayed.Tracing.site_incorrect)
        pairs)
    (Tracing.shared study)

(* ---------- run ---------- *)

let () =
  match Sys.argv with
  | [| _; "capture-streams"; path |] ->
    let oc = open_out_bin path in
    output_string oc (streaming_render ());
    close_out oc
  | _ ->
  Alcotest.run "zoo"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_tallies_sum;
          QCheck_alcotest.to_alcotest prop_reset_clean;
          QCheck_alcotest.to_alcotest prop_warm_total;
          QCheck_alcotest.to_alcotest prop_smith_equals_twobit;
          QCheck_alcotest.to_alcotest prop_counters_match_models;
        ] );
      ( "batched",
        [
          QCheck_alcotest.to_alcotest prop_batched_equals_streaming;
          QCheck_alcotest.to_alcotest prop_batched_loopy;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "batched replay allocates nothing" `Quick
            test_batched_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "zoo streams (streaming)" `Quick
            test_streams_golden_streaming;
          Alcotest.test_case "zoo streams (batched)" `Quick
            test_streams_golden_batched;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "static length validated" `Quick
            test_static_length_validated;
          Alcotest.test_case "hook site bounds" `Quick test_hook_site_bounds;
          Alcotest.test_case "zero-site predictor" `Quick test_zero_sites;
          Alcotest.test_case "warm length validated" `Quick
            test_warm_length_validated;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "smith aliases" `Quick test_smith_aliases;
          Alcotest.test_case "bimode cold start" `Quick test_bimode_cold;
          Alcotest.test_case "tage cold vs warm" `Quick test_tage_cold_vs_warm;
          Alcotest.test_case "warm 2-bit beats cold" `Quick
            test_warm_twobit_beats_cold;
        ] );
      ( "warming",
        [
          Alcotest.test_case "stale db warms safely" `Quick
            test_warm_survives_stale_db;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "warm beats cold (geomean)" `Slow
            test_warm_beats_cold_geomean;
          Alcotest.test_case "h2p gap closes" `Slow test_h2p_warming_closes_gap;
          Alcotest.test_case "store hit/miss identical" `Quick
            test_store_hit_miss_identical;
        ] );
      ( "shared",
        [
          Alcotest.test_case "one replay per study" `Quick test_shared_memo;
          Alcotest.test_case "inline-hook oracle" `Slow test_inline_hook_oracle;
        ] );
    ]
