(* The repository benchmark: one workload per invocation.

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--traced PATH]
              [--smoke]
     main.exe --capture

   A run sets the workload up three times, then measures whole
   passes until [--seconds] have elapsed and at least three ran, checks
   every output, and prints one JSON object as the last line of
   standard output: the end-to-end metrics, or with [--traced] the
   per-layer metrics.  A traced run measures half its budget untraced
   and half with spans on, writes the spans to PATH as Chrome
   trace-event JSON, and reports traced over untraced pass time as
   [trace.overhead_ratio].  [--smoke] shrinks every input to one pass
   over one small program, trace or 2 x 64 deltas.  [--capture]
   regenerates the reference outputs in perfbench/expected from the
   current code.  A readable summary goes to standard error. *)

let expected_dir = Filename.concat "perfbench" "expected"

let workloads =
  [
    "paper-cold"; "paper-warm"; "replay-loops"; "replay-irregular";
    "synth-sweep"; "ingest";
  ]

let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("items_per_s", "1/s") ]

(* Every per-layer metric, reported on every workload: a layer a
   workload does not reach reads 0.  The section list is spelled out
   rather than read from the registry, so a section removed later
   reads 0 instead of changing the metric set. *)
let per_layer =
  List.map
    (fun id -> ("experiment." ^ id ^ "_s", "s"))
    [
      "table2"; "table1"; "fig1"; "fig2"; "table3"; "fig3"; "taken"; "combine";
      "heuristics"; "crossmode"; "dynamic"; "dynsim"; "predictability";
      "tournament"; "h2p"; "inline"; "gaps"; "switchsort"; "overhead";
      "coverage"; "staleness"; "static_proof"; "synthpool";
    ]
  @ [
      ("study.load_s", "s");
      ("study.compile_s", "s");
      ("study.execute_s", "s");
      ("study.cache_hit_ratio", "ratio");
      ("study.pool_busy_ratio", "ratio");
      ("vm.minstr_per_s", "Minstr/s");
      ("study_cache.files_written", "count");
      ("trace_store.files_written", "count");
      ("trace_store.bytes_written", "bytes");
      ("tracing.record_s", "s");
      ("trace.render_s", "s");
      ("trace.parse_s", "s");
      ("trace.decode_mev_per_s", "Mevent/s");
      ("trace.bits_per_branch", "bits");
      ("trace.run_head_ratio", "ratio");
      ("trace.periodic_share", "ratio");
      ("dynamic.create_s", "s");
    ]
  @ List.map
      (fun s -> ("dynamic." ^ s ^ ".ns_per_event", "ns"))
      [ "smith"; "2-bit"; "2-level"; "gshare"; "bimode"; "tage" ]
  @ [
      ("gen.programs_per_s", "1/s");
      ("minic.compile_ms_per_program", "ms");
      ("sweep.run_s", "s");
      ("sweep.render_s", "s");
      ("client.ack_p50_ms", "ms");
      ("client.ack_p99_ms", "ms");
      ("service.recovery_s", "s");
      ("wal.replay_records_per_s", "1/s");
      ("service.compact_s", "s");
      ("db.load_s", "s");
      ("service.duplicates", "count");
      ("service.quarantined", "count");
      ("client.gave_up", "count");
      ("trace.overhead_ratio", "ratio");
      ("process.peak_rss_mb", "MB");
    ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* Pin every knob a run could inherit from the environment, so two
   runs differ only in code: at most two domains, the stores on, the
   default engine and shard count, and the log's fsync off (see
   ingest.ml). *)
let pin_environment () =
  List.iter
    (fun (k, v) -> Unix.putenv k v)
    [
      ("FISHER92_DOMAINS", "2");
      ("FISHER92_NO_CACHE", "");
      ("FISHER92_NO_TRACE", "");
      ("FISHER92_NO_FSYNC", "1");
      ("FISHER92_ENGINE", "");
      ("FISHER92_SHARDS", "");
    ];
  Fisher92_util.Sectfile.crash_spec := None

let make name ~seed ~smoke =
  match name with
  | "paper-cold" -> Paper.make ~warm:false ~smoke ~expected_dir
  | "paper-warm" -> Paper.make ~warm:true ~smoke ~expected_dir
  | "replay-loops" ->
    Replay.make ~name ~names:Replay.loops ~smoke ~expected_dir
  | "replay-irregular" ->
    Replay.make ~name ~names:Replay.irregular ~smoke ~expected_dir
  | "synth-sweep" -> Synth_sweep.make ~seed ~smoke ~expected_dir
  | "ingest" -> Ingest.make ~seed ~smoke
  | _ ->
    fail "unknown workload %S; workloads: %s" name
      (String.concat " " workloads)

(* Whole passes until [budget] seconds have elapsed and at least
   [min_passes] ran: (seconds, items) per pass. *)
let measure (w : Harness.t) ~min_passes budget =
  let t0 = Span.now () in
  let rec go n acc =
    let items, s = Harness.time (fun () -> Span.with_ "pass" w.pass) in
    let acc = (s, items) :: acc in
    if n + 1 < min_passes || Span.now () -. t0 < budget then go (n + 1) acc
    else List.rev acc
  in
  go 0 []

let json_metrics metrics =
  List.map
    (fun (name, unit_, v) ->
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
    metrics
  |> String.concat ", "

let run ~name ~seed ~seconds ~traced ~smoke =
  let w = make name ~seed ~smoke in
  Span.on := traced <> None;
  Span.phase := Span.Setup;
  let setups =
    List.init Harness.setup_reps (fun _ ->
        snd (Harness.time (fun () -> Span.with_ "setup" w.setup)))
  in
  (* collect the set-up's garbage now, not during the first pass *)
  Gc.full_major ();
  (* every unit gets three repeats at least; a traced run splits the
     budget between an untraced and a traced half of two each *)
  let budget, min_passes =
    match (smoke, traced) with
    | true, _ -> (0.0, 1)
    | false, None -> (seconds, 3)
    | false, Some _ -> (seconds /. 2.0, 2)
  in
  let phase ~spans =
    Span.on := spans;
    Harness.reset_units ();
    let passes = measure w ~min_passes budget in
    (passes, Harness.pass_time ())
  in
  let plain, plain_wall = phase ~spans:false in
  let spanned, spanned_wall =
    match traced with
    | None -> ([], 0.0)
    | Some _ ->
      Span.phase := Span.Pass;
      phase ~spans:true
  in
  Span.phase := Span.Finish;
  w.finish ();
  let metrics =
    match traced with
    | None ->
      let items = List.fold_left (fun a (_, n) -> a +. n) 0.0 plain in
      [
        ("setup_s", Fisher92_util.Stats.median setups);
        ("wall_s", plain_wall);
        ( "items_per_s",
          items /. float_of_int (List.length plain) /. plain_wall );
      ]
      |> List.map (fun (n, v) -> (n, List.assoc n end_to_end, v))
    | Some path ->
      Span.write_chrome path;
      let values =
        ("trace.overhead_ratio", spanned_wall /. plain_wall)
        :: ("process.peak_rss_mb", Harness.peak_rss_mb ())
        :: w.layers ~passes:(List.length spanned)
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then
            fail "workload reported an uncatalogued metric %S" n)
        values;
      List.map
        (fun (n, u) ->
          (n, u, Option.value ~default:0.0 (List.assoc_opt n values)))
        per_layer
  in
  List.iter
    (fun (n, _, v) ->
      if not (Float.is_finite v) then fail "metric %s is not finite (%g)" n v)
    metrics;
  let c = w.checks in
  Printf.eprintf
    "%s seed %d: %d set-up(s), %d untraced pass(es), %d traced; %d/%d checks \
     failed\n"
    name seed (List.length setups) (List.length plain) (List.length spanned)
    c.failed c.attempted;
  List.iter
    (fun (n, u, v) ->
      if v <> 0.0 then Printf.eprintf "  %-36s %14.6g %s\n" n v u)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (c.failed = 0 && c.attempted > 0)
    c.attempted c.failed (json_metrics metrics)

let capture () =
  Fisher92_util.Sectfile.mkdir_p expected_dir;
  Paper.capture ~expected_dir;
  Replay.capture ~name:"replay-loops" ~names:Replay.loops ~expected_dir;
  Replay.capture ~name:"replay-irregular" ~names:Replay.irregular
    ~expected_dir;
  Synth_sweep.capture ~expected_dir

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 in
  let traced = ref None and smoke = ref false and capture_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> seed := n
      | _ -> fail "--seed expects a non-negative integer, got %S" v);
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s
      | _ -> fail "--seconds expects a positive number, got %S" v);
      parse rest
    | "--traced" :: v :: rest ->
      traced := Some v;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--capture" :: rest ->
      capture_only := true;
      parse rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  pin_environment ();
  if !capture_only then capture ()
  else
    match !workload with
    | None ->
      fail "--workload NAME is required; workloads: %s"
        (String.concat " " workloads)
    | Some name ->
      run ~name ~seed:!seed ~seconds:!seconds ~traced:!traced ~smoke:!smoke
