(* Integration: the experiment driver end-to-end on a trimmed study, and
   sanity properties of every experiment the paper reports. *)

module Study = Fisher92.Study
module E = Fisher92.Experiments
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Ast = Fisher92_minic.Ast
module Fingerprint = Fisher92_analysis.Fingerprint
module Study_cache = Fisher92.Study_cache
module Tracing = Fisher92.Tracing
module Trace = Fisher92_trace.Trace

(* a small but representative slice: one single-dataset FORTRAN program,
   one multi-dataset FORTRAN, both compress modes, one branchy C program *)
let mini =
  lazy
    (Study.load
       ~workloads:
         [
           Registry.find "lfk";
           Registry.find "doduc";
           Registry.find "compress";
           Registry.find "uncompress";
           Registry.find "spiff";
         ]
       ())

let test_load_shape () =
  let items = Study.items (Lazy.force mini) in
  Alcotest.(check int) "five workloads" 5 (List.length items);
  List.iter
    (fun (l : Study.loaded) ->
      Alcotest.(check int)
        (l.workload.w_name ^ " run per dataset")
        (List.length l.workload.w_datasets)
        (List.length l.runs))
    items

let test_find () =
  let l = Study.find (Lazy.force mini) "doduc" in
  Alcotest.(check string) "found" "doduc" l.workload.w_name;
  Alcotest.(check bool) "missing raises" true
    (match Study.find (Lazy.force mini) "nope" with
    | exception Not_found -> true
    | _ -> false)

let test_fig1_sane () =
  let rows = E.fig1 (Lazy.force mini) in
  Alcotest.(check int) "row per run" 17 (List.length rows);
  List.iter
    (fun (r : E.fig1_row) ->
      if r.f1_no_calls < 1.0 then
        Alcotest.failf "%s/%s: i/break below 1" r.f1_program r.f1_dataset;
      if r.f1_with_calls > r.f1_no_calls +. 1e-9 then
        Alcotest.failf "%s/%s: counting call breaks cannot raise i/break"
          r.f1_program r.f1_dataset)
    rows

let test_fig2_self_is_best () =
  let rows = E.fig2 (Lazy.force mini) in
  Alcotest.(check bool) "has rows" true (List.length rows > 5);
  List.iter
    (fun (r : E.fig2_row) ->
      match r.f2_others with
      | None -> ()
      | Some others ->
        (* self prediction is per-branch optimal: nothing beats it *)
        if others > r.f2_self +. 1e-6 then
          Alcotest.failf "%s/%s: others (%f) beat self (%f)" r.f2_program
            r.f2_dataset others r.f2_self)
    rows

let test_fig3_bounds () =
  let rows = E.fig3 (Lazy.force mini) in
  List.iter
    (fun (r : E.fig3_row) ->
      let _, bq = r.f3_best and _, wq = r.f3_worst in
      if bq < wq -. 1e-9 then Alcotest.fail "best below worst";
      if bq > 1.0 +. 1e-9 then
        Alcotest.failf "%s/%s: single predictor beats self (%f)" r.f3_program
          r.f3_dataset bq;
      if wq < 0.0 then Alcotest.fail "negative quality")
    rows

let test_table1_bounds () =
  List.iter
    (fun (r : E.table1_row) ->
      if r.t1_dead_pct < -0.5 || r.t1_dead_pct > 60.0 then
        Alcotest.failf "%s: implausible dead code %f" r.t1_program r.t1_dead_pct)
    (E.table1 (Lazy.force mini))

let test_table3_positive () =
  List.iter
    (fun (r : E.table3_row) ->
      if r.t3_ipb < 1.0 then Alcotest.failf "%s: bad ipb" r.t3_program)
    (E.table3 (Lazy.force mini))

let test_taken_in_range () =
  List.iter
    (fun (r : E.taken_row) ->
      List.iter
        (fun (_, pct) ->
          if pct < 0.0 || pct > 100.0 then
            Alcotest.failf "%s: %%taken out of range" r.tk_program)
        r.tk_per_dataset;
      if r.tk_spread < -1e-9 then Alcotest.fail "negative spread")
    (E.taken (Lazy.force mini))

let test_combine_bounds () =
  List.iter
    (fun (r : E.combine_row) ->
      List.iter
        (fun (_, q) ->
          if q < 0.0 || q > 1.0 +. 1e-9 then
            Alcotest.failf "%s: combine quality %f out of bounds" r.cb_program q)
        r.cb_cols)
    (E.combine (Lazy.force mini))

let test_heuristics_never_beat_self () =
  List.iter
    (fun (r : E.heuristic_row) ->
      List.iter
        (fun (name, value) ->
          if value > r.h_self +. 1e-6 then
            Alcotest.failf "%s: heuristic %s (%f) beats self (%f)" r.h_program
              name value r.h_self)
        r.h_cols)
    (E.heuristics (Lazy.force mini))

let test_crossmode_is_bad () =
  let rows = E.crossmode (Lazy.force mini) in
  Alcotest.(check int) "both directions, five datasets" 10 (List.length rows);
  let mean =
    Fisher92_util.Stats.mean (List.map (fun r -> r.E.cm_quality) rows)
  in
  (* the paper: "no correlation ... a very bad idea" *)
  Alcotest.(check bool)
    (Printf.sprintf "cross-mode quality poor (mean %.2f)" mean)
    true (mean < 0.7)

let test_dynamic_static_competitive () =
  List.iter
    (fun (r : E.dynamic_row) ->
      List.iter
        (fun pct ->
          if pct < 0.0 || pct > 100.0 then
            Alcotest.failf "%s: %% out of range" r.dy_program)
        [ r.dy_static_pct; r.dy_onebit_pct; r.dy_twobit_pct ];
      (* self-profile static prediction is the per-branch optimum, so a
         1-bit counter cannot beat it by more than noise *)
      if r.dy_onebit_pct > r.dy_static_pct +. 3.0 then
        Alcotest.failf "%s: 1-bit (%f) far above static optimum (%f)"
          r.dy_program r.dy_onebit_pct r.dy_static_pct)
    (E.dynamic (Lazy.force mini))

let test_inline_reduces_call_breaks () =
  List.iter
    (fun (r : E.inline_row) ->
      if r.il_calls_removed_pct < -1e-9 || r.il_calls_removed_pct > 100.0 then
        Alcotest.failf "%s: removal %% out of range" r.il_program)
    (E.inline_ablation (Lazy.force mini))

let test_staleness_remap_beats_heuristic () =
  let rows = E.staleness (Lazy.force mini) in
  Alcotest.(check int) "one row per workload" 5 (List.length rows);
  List.iter
    (fun (r : E.stale_row) ->
      if r.st_self < 1.0 then Alcotest.failf "%s: bad self ipb" r.st_program;
      if r.st_remap < 1.0 || r.st_heur < 1.0 then
        Alcotest.failf "%s: degradation chain below floor" r.st_program;
      if r.st_exact <> 0 then
        Alcotest.failf "%s: stale db cannot be exact" r.st_program;
      (* the self-profile is the per-branch optimum on its own run *)
      if r.st_remap > r.st_self +. 1e-6 then
        Alcotest.failf "%s: remap (%f) beats self (%f)" r.st_program r.st_remap
          r.st_self)
    rows;
  (* the acceptance criterion: remapped stale counters beat the bare
     structural heuristic on a majority of the workloads *)
  let wins =
    List.length (List.filter (fun r -> r.E.st_remap > r.E.st_heur) rows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "remap wins majority (%d/5)" wins)
    true
    (wins * 2 > 5)

let test_render_all_nonempty () =
  let text = E.render_all (Lazy.force mini) in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "render_all missing %S" needle)
    [
      "Table 1"; "Table 2"; "Table 3"; "Figure 1a"; "Figure 1b"; "Figure 2a";
      "Figure 2b"; "Figure 3a"; "Figure 3b"; "percent-taken"; "polling";
      "heuristics"; "compress <-> uncompress"; "dynamic"; "Inlining";
      "Distribution of instruction runs"; "switch reordering";
      "instrumentation overhead"; "Coverage"; "Stale-profile";
    ]

(* ---------- store keys ---------- *)

(* Run [f] with the study cache and the trace store enabled in fresh
   private directories, restoring the environment afterwards. *)
let with_private_stores f =
  let fresh prefix =
    let d = Filename.temp_file prefix ".d" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let vars =
    [
      ("FISHER92_CACHE_DIR", fresh "f92stale-cache");
      ("FISHER92_NO_CACHE", "");
      ("FISHER92_TRACE_DIR", fresh "f92stale-traces");
      ("FISHER92_NO_TRACE", "");
    ]
  in
  let saved =
    List.map
      (fun (k, _) -> (k, Option.value ~default:"" (Sys.getenv_opt k)))
      vars
  in
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, v) -> Unix.putenv k v) saved)
    f

(* compress with its hash multiplier 40503 retuned to 40499: one
   immediate operand changes, no branch site moves. *)
let retuned_compress () =
  let w = Registry.find "compress" in
  let edits = ref 0 in
  let rec retune = function
    | Ast.Int 40503 ->
      incr edits;
      Ast.Int 40499
    | Ast.Binop (op, a, b) -> Ast.Binop (op, retune a, retune b)
    | e -> e
  in
  let p = w.Workload.w_program in
  let funcs =
    List.map
      (fun (f : Ast.fundecl) ->
        {
          f with
          f_body =
            Ast.map_block
              (function
                | Ast.Let (x, ty, e) -> Ast.Let (x, ty, retune e)
                | st -> st)
              f.f_body;
        })
      p.funcs
  in
  Alcotest.(check int) "one multiplier retuned" 1 !edits;
  (w, { w with w_program = { p with funcs } })

(* The stores key on the whole build: a constant edit that keeps every
   branch site where it was (so the structural program hash stays put)
   must still miss both stores, and a warm load must report the edited
   run rather than the stored one. *)
let test_edited_constant_misses () =
  with_private_stores (fun () ->
      let w, edited = retuned_compress () in
      let ir = Study.compile_variant w and ir' = Study.compile_variant edited in
      Alcotest.(check string) "the structural hash cannot tell them apart"
        (Fingerprint.program_hash ir)
        (Fingerprint.program_hash ir');
      let fp = Fingerprint.content_hash ir
      and fp' = Fingerprint.content_hash ir' in
      Alcotest.(check bool) "content hashes differ" false (String.equal fp fp');
      let instructions (l : Study.loaded) =
        (List.hd l.runs).counts.Fisher92_metrics.Breaks.instructions
      in
      (* warm both stores with the original build *)
      let original = List.hd (Study.items (Study.load ~workloads:[ w ] ())) in
      Alcotest.(check int) "original run" 876_096 (instructions original);
      let d = List.hd w.w_datasets in
      ignore (Tracing.obtain ~ir ~program:w.w_name d : Tracing.obtained);
      let dshash = Study_cache.dataset_hash d in
      let n_sites = Fisher92_ir.Program.n_sites ir' in
      Alcotest.(check bool) "the original build hits the study cache" true
        (Option.is_some
           (Study_cache.lookup ~fingerprint:fp ~dshash ~n_sites
              ~program:w.w_name d));
      Alcotest.(check bool) "the edited build misses the study cache" true
        (Option.is_none
           (Study_cache.lookup ~fingerprint:fp' ~dshash ~n_sites
              ~program:w.w_name d));
      Alcotest.(check bool) "the edited build misses the trace store" true
        (Option.is_none
           (Trace.Store.load ~program:w.w_name ~dataset:d.ds_name
              ~fingerprint:fp' ~dshash ~n_sites));
      let warm = List.hd (Study.items (Study.load ~workloads:[ edited ] ())) in
      Alcotest.(check int) "a warm load reports the edited run" 873_386
        (instructions warm))

let test_render_table2 () =
  let text = E.render_table2 () in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "table2 missing %S" needle)
    [ "spice"; "013.spice2g6"; "cc1"; "9queens"; "fortran_metric" ]

let () =
  Alcotest.run "study"
    [
      ( "driver",
        [
          Alcotest.test_case "load shape" `Quick test_load_shape;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig1 sane" `Quick test_fig1_sane;
          Alcotest.test_case "fig2 self is best" `Quick test_fig2_self_is_best;
          Alcotest.test_case "fig3 bounds" `Quick test_fig3_bounds;
          Alcotest.test_case "table1 bounds" `Quick test_table1_bounds;
          Alcotest.test_case "table3 positive" `Quick test_table3_positive;
          Alcotest.test_case "taken in range" `Quick test_taken_in_range;
          Alcotest.test_case "combine bounds" `Quick test_combine_bounds;
          Alcotest.test_case "heuristics never beat self" `Quick
            test_heuristics_never_beat_self;
          Alcotest.test_case "crossmode is bad" `Quick test_crossmode_is_bad;
          Alcotest.test_case "dynamic sane" `Quick test_dynamic_static_competitive;
          Alcotest.test_case "inline sane" `Quick test_inline_reduces_call_breaks;
          Alcotest.test_case "staleness: remap beats heuristic" `Slow
            test_staleness_remap_beats_heuristic;
        ] );
      ( "stores",
        [
          Alcotest.test_case "edited constant misses both stores" `Quick
            test_edited_constant_misses;
        ] );
      ( "render",
        [
          Alcotest.test_case "render_all sections" `Slow test_render_all_nonempty;
          Alcotest.test_case "table2" `Quick test_render_table2;
        ] );
    ]
