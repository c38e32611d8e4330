(* synth-sweep: a thousand generated programs through the sweep.

   The opposite use of the compile, VM and pool layers from paper-*:
   instead of 15 programs with long runs, 1,200 tiny ones from
   [--seed], each generated, compiled, executed on every dataset,
   captured and characterized.  Set-up generates and compiles every
   program once, which is where the generator's and the compiler's own
   rates are measured.  A pass sweeps the grid in chunks of [chunk]
   points, one [Sweep.run] each (study cache off, an empty trace
   store), and renders the concatenated items: every item depends only
   on its grid point, so the rendering is the one a single
   [Sweep.run] over the whole grid gives. *)

module Sweep = Fisher92_synth.Sweep

let domains = 2
let variants = 50
let chunk = 50
let expected_file dir = Filename.concat dir "synth-sweep.fnv"

let points ~smoke ~seed =
  if smoke then [ List.hd (Sweep.grid ~variants:1 ~seed ()) ]
  else Sweep.grid ~variants ~seed ()

let rec chunks pts =
  match List.filteri (fun i _ -> i >= chunk) pts with
  | [] -> [ pts ]
  | rest -> List.filteri (fun i _ -> i < chunk) pts :: chunks rest

(* The measured items and their rendering. *)
let sweep ~trace_dir points =
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  let items =
    List.concat
      (List.mapi
         (fun i pts ->
           Harness.timed (Printf.sprintf "chunk%d" i) (fun () ->
               Span.with_ "sweep.run" (fun () ->
                   Sweep.run ~domains ~cache:false ~items:pts ())))
         (chunks points))
  in
  ( items,
    Harness.timed "render" (fun () ->
        Span.with_ "sweep.render" (fun () -> Sweep.render items)) )

let capture ~expected_dir =
  let dir = Harness.fresh_dir (Filename.concat Harness.work_root "capture") in
  let seed = Sweep.default_seed in
  let _, text = sweep ~trace_dir:dir (points ~smoke:false ~seed) in
  Out_channel.with_open_bin (expected_file expected_dir) (fun oc ->
      Printf.fprintf oc "%d %s\n" seed (Fisher92_util.Fnv.hex text));
  Harness.rm_rf dir

let layers ~passes =
  let setup = Span.summary Span.Setup and s = Span.summary Span.Pass in
  let programs = Span.counter Span.Setup "gen.programs" in
  let per_pass x = x /. float_of_int passes in
  [
    ( "gen.programs_per_s",
      programs /. (Span.totals setup "gen.workloads").self_s );
    ( "minic.compile_ms_per_program",
      (Span.totals setup "minic.compile").self_s /. programs *. 1e3 );
    ("sweep.run_s", per_pass (Span.totals s "sweep.run").self_s);
    ("sweep.render_s", per_pass (Span.totals s "sweep.render").self_s);
    ( "trace_store.files_written",
      per_pass (Span.counter Span.Pass "trace_store.files_written") );
    ( "trace_store.bytes_written",
      per_pass (Span.counter Span.Pass "trace_store.bytes_written") );
  ]

let make ~seed ~smoke ~expected_dir =
  let checks = Harness.checks () in
  let committed =
    List.find_map
      (fun l ->
        Scanf.sscanf l "%d %s" (fun s d -> if s = seed then Some d else None))
      (Harness.read_lines (expected_file expected_dir))
  in
  let root = Filename.concat Harness.work_root "synth-sweep" in
  let pts = ref [] and n = ref 0 and first = ref None in
  let setup () =
    ignore (Harness.fresh_dir root);
    pts := points ~smoke ~seed;
    let ws = Span.with_ "gen.workloads" (fun () -> Sweep.workloads !pts) in
    Span.count "gen.programs" (float_of_int (List.length ws));
    List.iter
      (fun w ->
        ignore
          (Span.with_ "minic.compile" (fun () ->
               Fisher92.Study.compile_variant w)))
      ws
  in
  let pass () =
    incr n;
    let trace_dir = Filename.concat root (Printf.sprintf "pass%d" !n) in
    let items, text = sweep ~trace_dir !pts in
    Harness.check checks ~what:"one sweep item per grid point"
      (List.length items = List.length !pts);
    if !Span.on then begin
      let files, bytes = Harness.usage trace_dir in
      Span.count "trace_store.files_written" (float_of_int files);
      Span.count "trace_store.bytes_written" (float_of_int bytes)
    end;
    let digest = Fisher92_util.Fnv.hex text in
    (match !first with
    | None -> first := Some digest
    | Some d ->
      Harness.check checks ~what:"sweep repeats across passes" (d = digest));
    (match committed with
    | Some d when not smoke ->
      Harness.check checks ~what:"sweep matches the committed digest"
        (d = digest)
    | _ -> ());
    Harness.rm_rf trace_dir;
    float_of_int (List.length !pts)
  in
  {
    Harness.setup;
    pass;
    finish = (fun () -> Harness.rm_rf root);
    checks;
    layers;
  }
