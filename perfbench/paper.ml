(* paper-cold and paper-warm: regenerate every registry section, the
   way a reader regenerates the paper.

   A pass renders every section of the experiment registry through
   [Experiment.render_text] over one lazily loaded [Study.t], with the
   study cache and the trace store pointed at the pass's directories.
   paper-cold gives each pass empty directories, so compile, VM
   execution, trace capture and store writes dominate; paper-warm
   reuses the directories its set-up populated, so what remains is the
   work those stores cannot save. *)

module Experiment = Fisher92.Experiment
module Study = Fisher92.Study

let domains = 2
let sections () = Fisher92_synth.Sweep.registry ()

(* the smoke run's sections: one without a study, one with *)
let smoke_sections () =
  List.filter
    (fun (e : Experiment.t) -> List.mem e.e_id [ "table2"; "fig1" ])
    (sections ())

type dirs = { cache : string; traces : string }

let dirs_under root =
  {
    cache = Filename.concat root "study-cache";
    traces = Filename.concat root "trace-store";
  }

let load_study () =
  let executed = ref [] in
  let progress = function
    | Study.Compiled { seconds; _ } -> Span.completed "study.compile" ~seconds
    | Study.Executed { seconds; cached = true; _ } ->
      Span.completed "study.cache_read" ~seconds
    | Study.Executed { seconds; cached = false; workload; dataset } ->
      Span.completed "study.execute" ~seconds;
      executed := (workload, dataset) :: !executed
  in
  let study =
    Span.with_ "study.load" (fun () -> Study.load ~domains ~progress ())
  in
  (* instructions of the runs the VM executed (cache hits ran none) *)
  List.iter
    (fun (l : Study.loaded) ->
      List.iter
        (fun (r : Fisher92_metrics.Measure.run) ->
          if List.mem (l.workload.w_name, r.dataset) !executed then
            Span.count "vm.instructions"
              (float_of_int r.counts.Fisher92_metrics.Breaks.instructions))
        l.runs)
    (Study.items study);
  study

(* Every section's text, in registry order; each section is a unit. *)
let render_all sections dirs =
  Unix.putenv "FISHER92_CACHE_DIR" dirs.cache;
  Unix.putenv "FISHER92_TRACE_DIR" dirs.traces;
  let study = lazy (load_study ()) in
  List.map
    (fun (e : Experiment.t) ->
      ( e.e_id,
        Harness.timed e.e_id (fun () ->
            Span.with_ ("experiment." ^ e.e_id) (fun () ->
                Experiment.render_text e study)) ))
    sections

let digests outputs =
  List.map (fun (id, text) -> (id, Fisher92_util.Fnv.hex text)) outputs

let expected_file dir = Filename.concat dir "paper.fnv"

let capture ~expected_dir =
  let root = Harness.fresh_dir (Filename.concat Harness.work_root "capture") in
  Out_channel.with_open_bin (expected_file expected_dir) (fun oc ->
      List.iter
        (fun (id, d) -> Printf.fprintf oc "%s %s\n" id d)
        (digests (render_all (sections ()) (dirs_under root))));
  Harness.rm_rf root

(* What [f] wrote into the stores. *)
let count_writes dirs f =
  let c0, _ = Harness.usage dirs.cache in
  let t0, tb0 = Harness.usage dirs.traces in
  let r = f () in
  let c1, _ = Harness.usage dirs.cache in
  let t1, tb1 = Harness.usage dirs.traces in
  Span.count "study_cache.files_written" (float_of_int (c1 - c0));
  Span.count "trace_store.files_written" (float_of_int (t1 - t0));
  Span.count "trace_store.bytes_written" (float_of_int (tb1 - tb0));
  r

let layers ~passes =
  let s = Span.summary Span.Pass in
  let per_pass x = x /. float_of_int passes in
  let self name = per_pass (Span.totals s name).self_s in
  let total name = (Span.totals s name).total_s in
  let calls name = (Span.totals s name).calls in
  let counter name = per_pass (Span.counter Span.Pass name) in
  let busy =
    total "study.compile" +. total "study.execute" +. total "study.cache_read"
  in
  List.map
    (fun (e : Experiment.t) ->
      ("experiment." ^ e.e_id ^ "_s", self ("experiment." ^ e.e_id)))
    (sections ())
  @ [
      ("study.load_s", self "study.load");
      ("study.compile_s", per_pass (total "study.compile"));
      ("study.execute_s", per_pass (total "study.execute"));
      ( "study.cache_hit_ratio",
        Fisher92_util.Stats.ratio (calls "study.cache_read")
          (calls "study.execute" + calls "study.cache_read") );
      ( "study.pool_busy_ratio",
        busy /. (total "study.load" *. float_of_int domains) );
      ( "vm.minstr_per_s",
        if total "study.execute" > 0.0 then
          Span.counter Span.Pass "vm.instructions"
          /. total "study.execute" /. 1e6
        else 0.0 );
      ("study_cache.files_written", counter "study_cache.files_written");
      ("trace_store.files_written", counter "trace_store.files_written");
      ("trace_store.bytes_written", counter "trace_store.bytes_written");
    ]

let make ~warm ~smoke ~expected_dir =
  let checks = Harness.checks () in
  let expected =
    List.map
      (fun l -> Scanf.sscanf l "%s %s" (fun id d -> (id, d)))
      (Harness.read_lines (expected_file expected_dir))
  in
  let root =
    Filename.concat Harness.work_root
      (if warm then "paper-warm" else "paper-cold")
  in
  let setup_dirs = dirs_under (Filename.concat root "setup") in
  let n = ref 0 in
  let sections = if smoke then smoke_sections () else sections () in
  let verify outputs =
    let got = digests outputs in
    List.iter
      (fun (id, d) ->
        Harness.check checks ~what:("paper section " ^ id)
          (List.assoc_opt id expected = Some d))
      got;
    if not smoke then
      List.iter
        (fun (id, _) ->
          if not (List.mem_assoc id got) then
            Harness.check checks ~what:("paper section " ^ id ^ " missing")
              false)
        expected
  in
  (* paper-warm sets up the stores its passes read by rendering once
     into empty ones.  paper-cold, whose passes start from nothing,
     loads the study without the stores (compile and execute every
     dataset), so its passes start in a process that has built its
     inputs. *)
  let setup () =
    ignore (Harness.fresh_dir root);
    if warm then verify (render_all sections setup_dirs)
    else
      ignore
        (Span.with_ "study.load" (fun () ->
             Study.load ~domains ~cache:false ()))
  in
  let pass () =
    let dirs =
      if warm then setup_dirs
      else begin
        incr n;
        dirs_under (Filename.concat root (Printf.sprintf "pass%d" !n))
      end
    in
    let outputs =
      if !Span.on then count_writes dirs (fun () -> render_all sections dirs)
      else render_all sections dirs
    in
    verify outputs;
    float_of_int (List.length outputs)
  in
  {
    Harness.setup;
    pass;
    finish = (fun () -> Harness.rm_rf root);
    checks;
    layers;
  }
