(* Reproduction harness: regenerates every table and figure of
   Fisher & Freudenberger (ASPLOS 1992).

   Usage:
     main.exe                    run every experiment, print paper-style output
     main.exe <section> ...      run selected sections only (see --list)
     main.exe --list             print the experiment registry and exit
     main.exe --timing ...       additionally print the per-workload
                                 compile/simulate/cache-hit timing table
     main.exe --domains N        run the study over N domains
     main.exe --parbench         compare 1-domain vs N-domain vs warm-cache
                                 wall clock of the full study
     main.exe --tracebench       compare per-scheme VM re-execution against
                                 record-once + trace-driven simulation
                                 (writes BENCH_trace.json)
     main.exe --ingestbench      load-test the crash-safe ingest service:
                                 N domains x M synthetic clients; reports
                                 deltas/s, merge-tail latency, recovery
                                 time (writes BENCH_ingest.json)
     main.exe --bechamel         additionally run Bechamel wall-clock
                                 micro-benchmarks (one Test.make per
                                 table/figure harness, on a trimmed study)

   The experiment pipeline executes every (program, dataset) pair once on
   the simulator (or serves it from the on-disk study cache; set
   FISHER92_NO_CACHE=1 to force simulation); everything is derived from
   those runs. *)

(* The section list is the experiment registry — never a hand-written
   name list; going through [Experiments.registry] forces the
   registrations to be linked. *)
let registry () = Fisher92_synth.Sweep.registry ()

let valid_sections () =
  List.map (fun e -> e.Fisher92.Experiment.e_id) (registry ())

let unknown_sections requested =
  let valid = valid_sections () in
  List.filter (fun s -> not (List.mem s valid)) requested

let run_section study name =
  match Fisher92.Experiment.find name with
  | Some e -> print_endline (Fisher92.Experiment.render_text e study)
  | None ->
    (* unreachable: sections are validated before any work starts *)
    Printf.eprintf "unknown section %S; valid sections: %s\n" name
      (String.concat " " (valid_sections ()));
    exit 2

(* ---------- 1-domain vs N-domain vs warm-cache comparison ---------- *)

let parbench domains =
  let module S = Fisher92.Study in
  let module C = Fisher92.Study_cache in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let render study = Fisher92.Experiments.render_all study in
  C.clear ();
  let (r_seq, _), t_seq =
    time (fun () -> S.load_timed ~domains:1 ~cache:false ())
  in
  let (r_par, _), t_par =
    time (fun () -> S.load_timed ~domains ~cache:false ())
  in
  C.clear ();
  let (_, _), t_cold = time (fun () -> S.load_timed ~domains ()) in
  let (r_warm, warm_tm), t_warm = time (fun () -> S.load_timed ~domains ()) in
  let hits =
    List.concat_map (fun tm -> tm.S.tm_runs) warm_tm
    |> List.filter (fun r -> r.S.rt_cached)
    |> List.length
  in
  let runs = List.length (List.concat_map (fun tm -> tm.S.tm_runs) warm_tm) in
  let seq_out = render r_seq in
  Printf.printf "study wall clock (full registry; cache: %s):\n"
    (if C.enabled () then C.cache_dir () else "disabled");
  Printf.printf "  sequential, no cache (1 domain):   %6.2fs\n" t_seq;
  Printf.printf "  parallel,   no cache (%d domains): %6.2fs  (%.2fx)\n"
    domains t_par (t_seq /. t_par);
  Printf.printf "  parallel,   cold cache:            %6.2fs\n" t_cold;
  Printf.printf "  parallel,   warm cache:            %6.2fs  (%.2fx, %d/%d hits)\n"
    t_warm (t_seq /. t_warm) hits runs;
  Printf.printf "  outputs byte-identical: %b\n"
    (String.equal seq_out (render r_par) && String.equal seq_out (render r_warm))

(* ---------- BENCH_*.json emission ---------- *)

(* Tiny hand-rolled JSON: the perf-trajectory files hold numbers and
   short names only, so a serializer dependency would be overkill. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type json =
  | J_num of float
  | J_int of int
  | J_bool of bool
  | J_str of string
  | J_obj of (string * json) list
  | J_arr of json list

let rec render_json ~indent j =
  let pad = String.make indent ' ' in
  match j with
  | J_num x -> Printf.sprintf "%.6g" x
  | J_int n -> string_of_int n
  | J_bool b -> string_of_bool b
  | J_str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | J_obj fields ->
    let inner =
      List.map
        (fun (k, v) ->
          Printf.sprintf "%s  \"%s\": %s" pad (json_escape k)
            (render_json ~indent:(indent + 2) v))
        fields
    in
    Printf.sprintf "{\n%s\n%s}" (String.concat ",\n" inner) pad
  | J_arr items ->
    let inner =
      List.map
        (fun v ->
          Printf.sprintf "%s  %s" pad (render_json ~indent:(indent + 2) v))
        items
    in
    Printf.sprintf "[\n%s\n%s]" (String.concat ",\n" inner) pad

let write_json path j =
  Fisher92_util.Sectfile.write_atomic ~path ~tmp_prefix:"bench"
    (render_json ~indent:0 j ^ "\n");
  Printf.printf "  wrote %s\n" path

(* ---------- trace-driven simulation vs VM re-execution ---------- *)

type trace_row = {
  tr_name : string;
  tr_events : int;
  tr_vm_s : float;  (* per-scheme inline runs, reference interpreter *)
  tr_vm_threaded_s : float;  (* per-scheme inline runs, threaded engine *)
  tr_plain_interp_s : float;  (* one hookless run, reference interpreter *)
  tr_plain_threaded_s : float;  (* one hookless run, threaded engine *)
  tr_record_s : float;
  tr_decode_s : float;  (* one run-level decode pass, no consumers *)
  tr_sim_s : float;  (* one decode fanned out over every scheme *)
  tr_identical : bool;
}

let tracebench () =
  let module Trace = Fisher92_trace.Trace in
  let module Tracing = Fisher92.Tracing in
  let module Dynamic = Fisher92_predict.Dynamic in
  let module Workload = Fisher92_workloads.Workload in
  let module Vm = Fisher92_vm.Vm in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* every phase here is milliseconds-scale and deterministic, so
     best-of-3 keeps scheduler and GC noise out of the published
     ratios without changing what is measured *)
  let time_best f =
    let r, t0 = time f in
    let best = ref t0 in
    for _ = 1 to 2 do
      let _, t = time f in
      if t < !best then best := t
    done;
    (r, !best)
  in
  let schemes = Fisher92.Tracing.zoo_schemes () in
  let workloads =
    List.map Fisher92_workloads.Registry.find
      [ "lfk"; "doduc"; "compress"; "uncompress"; "spiff" ]
  in
  Printf.printf
    "trace-driven simulation vs one VM re-execution per scheme\n\
     (%d schemes; first dataset of each workload):\n"
    (List.length schemes);
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let ir = Fisher92.Study.compile_variant w in
        let d = List.hd w.w_datasets in
        let n_sites = Fisher92_ir.Program.n_sites ir in
        let inline_runs engine =
          List.map
            (fun scheme ->
              let sim = Dynamic.create scheme ~n_sites in
              let config =
                {
                  Vm.default_config with
                  on_branch = Some (Dynamic.hook sim);
                  engine = Some engine;
                }
              in
              let (_ : Vm.result) = Fisher92.Study.execute ir d ~config () in
              sim)
            schemes
        in
        (* historical baseline: what the inline [dynamic] experiment
           paid per scheme before this engine existed *)
        let interp_sims, t_vm = time_best (fun () -> inline_runs Vm.Interp) in
        let threaded_sims, t_vm_threaded =
          time_best (fun () -> inline_runs Vm.Threaded)
        in
        (* hookless runs on both engines: the cost a plain measurement
           pays, and the hook-free-specialization note's numbers *)
        let plain engine =
          let config = { Vm.default_config with engine = Some engine } in
          let (_ : Vm.result) = Fisher92.Study.execute ir d ~config () in
          ()
        in
        let (), t_plain_interp = time_best (fun () -> plain Vm.Interp) in
        let (), t_plain_threaded = time_best (fun () -> plain Vm.Threaded) in
        let writer, t_record =
          time_best (fun () -> Tracing.record ~ir ~program:w.w_name d)
        in
        let reader = Trace.Reader.of_string (Trace.Writer.render writer) in
        (* phase split: decode alone, then decode + every table-update
           loop (one shared decode fanned out over all schemes) *)
        let (), t_decode =
          time_best (fun () ->
              Trace.Reader.iter_runs reader (fun _ _ _ _ _ -> ()))
        in
        let trace_sims, t_sim =
          time_best (fun () ->
              let sims =
                List.map (fun scheme -> Dynamic.create scheme ~n_sites) schemes
              in
              let hooks = List.map Dynamic.hook_batch sims in
              Trace.Reader.iter_runs reader (fun st tk rl pr n ->
                  List.iter (fun h -> h st tk rl pr n) hooks);
              sims)
        in
        let agree_with ref_sims sims =
          List.for_all2
            (fun a b ->
              Dynamic.correct a = Dynamic.correct b
              && Dynamic.incorrect a = Dynamic.incorrect b)
            ref_sims sims
        in
        let agree =
          agree_with interp_sims threaded_sims
          && agree_with interp_sims trace_sims
        in
        Printf.printf
          "  %-10s %9d ev  vm %6.3fs (threaded %6.3fs)  record %6.3fs  \
           sim %6.3fs (decode %6.3fs)  %5.1fx  identical %b\n"
          w.w_name
          (Trace.Writer.events writer)
          t_vm t_vm_threaded t_record t_sim t_decode (t_vm /. t_sim) agree;
        {
          tr_name = w.w_name;
          tr_events = Trace.Writer.events writer;
          tr_vm_s = t_vm;
          tr_vm_threaded_s = t_vm_threaded;
          tr_plain_interp_s = t_plain_interp;
          tr_plain_threaded_s = t_plain_threaded;
          tr_record_s = t_record;
          tr_decode_s = t_decode;
          tr_sim_s = t_sim;
          tr_identical = agree;
        })
      workloads
  in
  let geomean select =
    Fisher92_util.Stats.geomean (List.map select rows)
  in
  let g_interp = geomean (fun r -> r.tr_vm_s /. r.tr_sim_s) in
  let g_threaded = geomean (fun r -> r.tr_vm_threaded_s /. r.tr_sim_s) in
  let g_engine =
    geomean (fun r -> r.tr_plain_interp_s /. r.tr_plain_threaded_s)
  in
  Printf.printf "  geomean sim speedup over per-scheme VM: %.1fx\n" g_interp;
  Printf.printf
    "  geomean sim speedup over per-scheme threaded VM: %.1fx\n" g_threaded;
  Printf.printf "  geomean threaded-engine speedup (hookless run): %.2fx\n"
    g_engine;
  write_json "BENCH_trace.json"
    (J_obj
       [
         ("bench", J_str "tracebench");
         ("schemes", J_int (List.length schemes));
         ( "workloads",
           J_arr
             (List.map
                (fun r ->
                  J_obj
                    [
                      ("name", J_str r.tr_name);
                      ("events", J_int r.tr_events);
                      ("vm_s", J_num r.tr_vm_s);
                      ("vm_threaded_s", J_num r.tr_vm_threaded_s);
                      ("plain_interp_s", J_num r.tr_plain_interp_s);
                      ("plain_threaded_s", J_num r.tr_plain_threaded_s);
                      ("record_s", J_num r.tr_record_s);
                      ("decode_s", J_num r.tr_decode_s);
                      ("update_s", J_num (max 0. (r.tr_sim_s -. r.tr_decode_s)));
                      ("sim_s", J_num r.tr_sim_s);
                      ("speedup", J_num (r.tr_vm_s /. r.tr_sim_s));
                      ( "speedup_vs_threaded",
                        J_num (r.tr_vm_threaded_s /. r.tr_sim_s) );
                      ("identical", J_bool r.tr_identical);
                    ])
                rows) );
         ("geomean_speedup", J_num g_interp);
         ("geomean_speedup_vs_threaded", J_num g_threaded);
         ("geomean_engine_speedup", J_num g_engine);
       ])

(* ---------- ingest service load + recovery benchmark ---------- *)

let ingestbench domains =
  let module Service = Fisher92_ingest.Service in
  let module Delta = Fisher92_ingest.Delta in
  let module Client = Fisher92_ingest.Client in
  let module Db = Fisher92_profile.Db in
  let module Rng = Fisher92_util.Rng in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let prog = "compress" in
  let w = Fisher92_workloads.Registry.find prog in
  let ir = Fisher92.Study.compile_variant w in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fisher92-ingestbench-%d" (Unix.getpid ()))
  in
  (* a fresh directory per run: recovery must start from our debris only *)
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  let cfg =
    {
      Service.c_dir = dir;
      c_program = prog;
      c_n_sites = n_sites;
      c_fingerprint = Fisher92_analysis.Fingerprint.program_hash ir;
      c_sitekeys = Fisher92_analysis.Fingerprint.site_keys ir;
      c_shards = None;
    }
  in
  let per_client = 64 in
  let entries_per_delta = 32 in
  let svc = Service.open_ cfg in
  (* N domains of synthetic clients, each submitting its own delta
     stream; latencies cover the full durable path (WAL append + fsync
     + sharded merge). *)
  let latencies = Array.make (domains * per_client) 0.0 in
  let synth rng d k =
    let entries =
      List.init entries_per_delta (fun i ->
          let site = ((i * 97) + (d * 13) + k) mod n_sites in
          let e = 1 + Rng.int rng 1000 in
          (site, e, Rng.int rng (e + 1)))
      (* distinct sites per delta: dedup via sorted uniq *)
      |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)
    in
    Delta.make ~program:prog ~fingerprint:cfg.Service.c_fingerprint
      ~label:(Printf.sprintf "client%d" d) ~n_sites
      ~nonce:((d * per_client) + k)
      entries
  in
  let (), t_submit =
    time (fun () ->
        let spawned =
          List.init domains (fun d ->
              Domain.spawn (fun () ->
                  let rng = Rng.create (0x1ce5 + d) in
                  for k = 0 to per_client - 1 do
                    let delta = synth rng d k in
                    let t0 = Unix.gettimeofday () in
                    (match Client.submit ~rng svc delta with
                    | Service.Acked -> ()
                    | o -> failwith (Service.outcome_name o));
                    latencies.((d * per_client) + k) <-
                      Unix.gettimeofday () -. t0
                  done))
        in
        List.iter Domain.join spawned)
  in
  let total = domains * per_client in
  Array.sort compare latencies;
  let pct p = latencies.(min (total - 1) (p * total / 100)) in
  (* crash before compaction: recovery must replay the whole log *)
  let svc2, t_recover = time (fun () -> Service.open_ cfg) in
  let replayed = (Service.stats svc2).Service.st_replayed in
  let (), t_compact = time (fun () -> Service.compact svc2) in
  Service.close svc2;
  Service.close ~fold:false svc;
  let check_ok =
    match Db.load_file (Service.db_path ~dir) with
    | (_ : Db.t) -> true
    | exception _ -> false
  in
  Printf.printf
    "ingest load (%d domains x %d deltas x %d entries, fsync %s):\n"
    domains per_client entries_per_delta
    (if Fisher92_util.Env.fsync_enabled () then "on" else "off");
  Printf.printf "  submit wall clock:   %6.3fs  (%.0f deltas/s)\n" t_submit
    (float_of_int total /. t_submit);
  Printf.printf
    "  submit latency:      p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n"
    (pct 50 *. 1e3) (pct 95 *. 1e3) (pct 99 *. 1e3)
    (latencies.(total - 1) *. 1e3);
  Printf.printf "  recovery (replay %d): %6.3fs\n" replayed t_recover;
  Printf.printf "  compaction:          %6.3fs\n" t_compact;
  Printf.printf "  db strict load ok:   %b\n" check_ok;
  write_json "BENCH_ingest.json"
    (J_obj
       [
         ("bench", J_str "ingestbench");
         ("program", J_str prog);
         ("domains", J_int domains);
         ("deltas", J_int total);
         ("entries_per_delta", J_int entries_per_delta);
         ("fsync", J_bool (Fisher92_util.Env.fsync_enabled ()));
         ("submit_s", J_num t_submit);
         ("deltas_per_sec", J_num (float_of_int total /. t_submit));
         ("latency_p50_ms", J_num (pct 50 *. 1e3));
         ("latency_p95_ms", J_num (pct 95 *. 1e3));
         ("latency_p99_ms", J_num (pct 99 *. 1e3));
         ("latency_max_ms", J_num (latencies.(total - 1) *. 1e3));
         ("recovery_s", J_num t_recover);
         ("recovered_records", J_int replayed);
         ("compaction_s", J_num t_compact);
         ("db_check_ok", J_bool check_ok);
       ]);
  rm dir;
  if not check_ok then exit 1

(* ---------- bechamel timing micro-benchmarks ---------- *)

let bechamel_suite () =
  let open Bechamel in
  (* a small but non-trivial study: one FP and three C workloads *)
  let mini =
    lazy
      (Fisher92.Study.load
         ~workloads:
           [
             Fisher92_workloads.Registry.find "doduc";
             Fisher92_workloads.Registry.find "compress";
             Fisher92_workloads.Registry.find "uncompress";
             Fisher92_workloads.Registry.find "spiff";
           ]
         ())
  in
  let module E = Fisher92.Experiments in
  let bench name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      bench "study-load(doduc)" (fun () ->
          Fisher92.Study.load
            ~workloads:[ Fisher92_workloads.Registry.find "doduc" ]
            ());
      bench "table1(dead-code)" (fun () -> E.table1 (Lazy.force mini));
      bench "table3(self-ipb)" (fun () -> E.table3 (Lazy.force mini));
      bench "fig1(unpredicted)" (fun () -> E.fig1 (Lazy.force mini));
      bench "fig2(predicted)" (fun () -> E.fig2 (Lazy.force mini));
      bench "fig3(best-worst)" (fun () -> E.fig3 (Lazy.force mini));
      bench "taken(percent)" (fun () -> E.taken (Lazy.force mini));
      bench "combine(strategies)" (fun () -> E.combine (Lazy.force mini));
      bench "heuristics" (fun () -> E.heuristics (Lazy.force mini));
      bench "crossmode" (fun () -> E.crossmode (Lazy.force mini));
      bench "dynamic(1/2-bit)" (fun () -> E.dynamic (Lazy.force mini));
      bench "dynsim(trace)" (fun () -> E.dynsim (Lazy.force mini));
      bench "predictability" (fun () -> E.predictability (Lazy.force mini));
      bench "tournament(zoo)" (fun () -> E.tournament (Lazy.force mini));
      bench "h2p(hard-class)" (fun () -> E.h2p (Lazy.force mini));
      bench "inline-ablation" (fun () -> E.inline_ablation (Lazy.force mini));
      bench "gaps(distribution)" (fun () -> E.gaps (Lazy.force mini));
      bench "switchsort(reorder)" (fun () -> E.switchsort (Lazy.force mini));
      bench "static-proof" (fun () -> E.static_proof (Lazy.force mini));
      bench "brclass(doduc)" (fun () ->
          Fisher92_analysis.Brclass.classify
            (List.hd (Fisher92.Study.items (Lazy.force mini))).Fisher92.Study.ir);
    ]
  in
  let test = Test.make_grouped ~name:"fisher92" tests in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 50) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let raw = benchmark test in
  let results = analyze raw in
  print_endline "Bechamel wall-clock (monotonic ns per run):";
  let rows = ref [] in
  Hashtbl.iter (fun name ols -> rows := (name, ols) :: !rows) results;
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-36s %14.0f ns\n" name est
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    (List.sort compare !rows)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let bech = List.mem "--bechamel" args in
  let timing = List.mem "--timing" args in
  let par = List.mem "--parbench" args in
  let tracing = List.mem "--tracebench" args in
  let ingest = List.mem "--ingestbench" args in
  let listing = List.mem "--list" args in
  let domains = ref None in
  let rec strip = function
    | [] -> []
    | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d when d >= 1 ->
        domains := Some d;
        strip rest
      | Some _ | None ->
        Printf.eprintf "--domains expects a positive integer, got %S\n" n;
        exit 2)
    | "--domains" :: [] ->
      Printf.eprintf "--domains expects a positive integer\n";
      exit 2
    | ( "--bechamel" | "--timing" | "--parbench" | "--tracebench"
      | "--ingestbench" | "--list" )
      :: rest ->
      strip rest
    | s :: rest -> s :: strip rest
  in
  let sections = strip args in
  if listing then begin
    ignore (registry ()); (* force the registrations before listing *)
    print_string (Fisher92.Experiment.list_table ());
    exit 0
  end;
  (match unknown_sections sections with
  | [] -> ()
  | bad ->
    Printf.eprintf "unknown section%s: %s; valid sections: %s\n"
      (match bad with [ _ ] -> "" | _ -> "s")
      (String.concat " " bad)
      (String.concat " " (valid_sections ()));
    exit 2);
  let sections = if sections = [] then valid_sections () else sections in
  let domains = !domains in
  if par then parbench (match domains with Some d -> d | None -> Fisher92_util.Pool.default_domains ())
  else if tracing then tracebench ()
  else if ingest then
    ingestbench
      (match domains with
      | Some d -> d
      | None -> min 4 (Fisher92_util.Pool.default_domains ()))
  else begin
    let t0 = Unix.gettimeofday () in
    let timings = ref None in
    let study =
      lazy
        (let s, tm = Fisher92.Study.load_timed ?domains () in
         timings := Some tm;
         s)
    in
    List.iter (run_section study) sections;
    (match (timing, !timings) with
    | true, Some tm -> print_string (Fisher92.Study.render_timings tm)
    | true, None ->
      print_endline "(no study was loaded; nothing to time)"
    | false, _ -> ());
    Printf.printf "\n[experiments completed in %.1fs]\n" (Unix.gettimeofday () -. t0);
    if bech then bechamel_suite ()
  end
