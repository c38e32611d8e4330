(* replay-loops and replay-irregular: the tournament's replay shape over
   recorded traces.

   Set-up loads the workloads' study (for the profile-warmed starts)
   and records and encodes every dataset's trace.  A pass parses each
   trace and decodes it once with [iter_runs], fanning every chunk into
   [hook_batch] of the six zoo schemes started cold plus the same six
   profile-warmed.  The two workloads differ in the input property
   batched replay depends on: counted-loop codes have long runs and
   certified periodic stretches that fast-forwarding skips, irregular
   codes have neither, so per-event table updates dominate. *)

module Study = Fisher92.Study
module Tracing = Fisher92.Tracing
module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic

let loops = [ "lfk"; "nasa7"; "matrix300"; "tomcatv"; "doduc"; "spiff" ]
let irregular = [ "cc1"; "compress"; "li"; "fpppp" ]

(* li/9queens is li/8queens one board size up: 9.0M more events of the
   same search, 58% of a pass that its three siblings already cover. *)
let skipped = [ "li/9queens" ]

let schemes () =
  List.map
    (fun (d : Fisher92_predict.Predictor.dynamic_spec) -> (d.d_name, d.d_scheme))
    (Fisher92_predict.Predictor.zoo ())

type trace = {
  label : string;  (** program/dataset *)
  text : string;  (** the encoded trace file *)
  n_sites : int;
  events : int;
  warm : Fisher92_predict.Prediction.t;
}

(* Every dataset of [names] (only the first one when [smoke]),
   recorded and encoded. *)
let record ~smoke names =
  let ws = List.map Fisher92_workloads.Registry.find names in
  let ws = if smoke then [ List.hd ws ] else ws in
  let study =
    Span.with_ "study.load" (fun () ->
        Study.load ~workloads:ws ~domains:2 ~cache:false ())
  in
  List.concat_map
    (fun (l : Study.loaded) ->
      let warm =
        Span.with_ "tracing.warm_prediction" (fun () ->
            Tracing.warm_prediction l)
      in
      let datasets = l.workload.w_datasets in
      let datasets = if smoke then [ List.hd datasets ] else datasets in
      List.filter_map
        (fun (d : Fisher92_workloads.Workload.dataset) ->
          let label = l.workload.w_name ^ "/" ^ d.ds_name in
          if List.mem label skipped then None
          else
            let w =
              Span.with_ "tracing.record" (fun () ->
                  Tracing.record ~ir:l.ir ~program:l.workload.w_name d)
            in
            Some
              {
                label;
                text =
                  Span.with_ "trace.render" (fun () -> Trace.Writer.render w);
                n_sites = Fisher92_ir.Program.n_sites l.ir;
                events = Trace.Writer.events w;
                warm;
              })
        datasets)
    (Study.items study)

let starts tr scheme =
  [
    ("cold", Dynamic.create scheme ~n_sites:tr.n_sites);
    ("warm", Dynamic.create ~warm:tr.warm scheme ~n_sites:tr.n_sites);
  ]

let expected_file dir name = Filename.concat dir (name ^ ".txt")

(* The reference tallies come from the streaming path, event by event,
   not from the batched path the passes measure. *)
let capture ~name ~names ~expected_dir =
  Out_channel.with_open_bin (expected_file expected_dir name) (fun oc ->
      List.iter
        (fun tr ->
          let reader = Trace.Reader.of_string tr.text in
          List.iter
            (fun (sname, scheme) ->
              List.iter
                (fun (start, warm) ->
                  let sim =
                    Dynamic.simulate ?warm scheme ~n_sites:tr.n_sites
                      (Trace.Reader.iter reader)
                  in
                  Printf.fprintf oc "%s %s %s %d %d\n" tr.label sname start
                    (Dynamic.correct sim) (Dynamic.incorrect sim))
                [ ("cold", None); ("warm", Some tr.warm) ])
            (schemes ()))
        (record ~smoke:false names))

(* (label, scheme, start) -> (correct, incorrect) *)
let load_expected path =
  let t = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Scanf.sscanf l "%s %s %s %d %d" (fun label s start c i ->
          Hashtbl.replace t (label, s, start) (c, i)))
    (Harness.read_lines path);
  t

(* One parse, one batched decode fanned into every simulator. *)
let replay ~checks ~expected tr =
  let reader =
    Span.with_ "trace.parse" (fun () -> Trace.Reader.of_string tr.text)
  in
  let sims =
    Span.with_ "dynamic.create" (fun () ->
        List.concat_map
          (fun (sname, scheme) ->
            List.map
              (fun (start, sim) -> (sname, start, sim))
              (starts tr scheme))
          (schemes ()))
  in
  let hooks =
    Array.of_list
      (List.map
         (fun (sname, _, sim) -> ("dynamic." ^ sname, Dynamic.hook_batch sim))
         sims)
  in
  Span.with_ "trace.iter_runs" (fun () ->
      Trace.Reader.iter_runs reader (fun sites taken runs periods n ->
          Array.iter
            (fun (span, h) ->
              Span.with_ span (fun () -> h sites taken runs periods n))
            hooks));
  List.iter
    (fun (sname, start, sim) ->
      Harness.check checks
        ~what:(Printf.sprintf "replay %s %s %s" tr.label sname start)
        (Hashtbl.find_opt expected (tr.label, sname, start)
        = Some (Dynamic.correct sim, Dynamic.incorrect sim)))
    sims;
  Span.count "trace.events" (float_of_int tr.events);
  tr.events * List.length sims

(* The input property fast-forwarding depends on, from [iter_runs]'s
   own run and period marks: run heads, events inside certified
   periodic stretches, and the encoded payload size. *)
let shape tr =
  let reader = Trace.Reader.of_string tr.text in
  let heads = ref 0 and periodic = ref 0 in
  Trace.Reader.iter_runs reader (fun _ _ runs periods n ->
      let i = ref 0 and covered_to = ref 0 in
      while !i < n do
        incr heads;
        let p = periods.(!i) in
        if p <> 0 then begin
          let stop = min n (!i + (p lsr 7)) in
          periodic := !periodic + max 0 (stop - max !i !covered_to);
          covered_to := max !covered_to stop
        end;
        i := !i + runs.(!i)
      done);
  (!heads, !periodic, 8 * Trace.Reader.payload_bytes reader)

let layers ~passes =
  let setup = Span.summary Span.Setup and s = Span.summary Span.Pass in
  let per_rep name =
    (Span.totals setup name).self_s /. float_of_int Harness.setup_reps
  in
  let per_pass name = (Span.totals s name).self_s /. float_of_int passes in
  let events = Span.counter Span.Pass "trace.events" in
  let finish name = Span.counter Span.Finish name in
  let all_events = finish "trace.all_events" in
  [
    ("tracing.record_s", per_rep "tracing.record");
    ("trace.render_s", per_rep "trace.render");
    ("trace.parse_s", per_pass "trace.parse");
    ( "trace.decode_mev_per_s",
      events /. (Span.totals s "trace.iter_runs").self_s /. 1e6 );
    ("dynamic.create_s", per_pass "dynamic.create");
    ("trace.bits_per_branch", finish "trace.payload_bits" /. all_events);
    ("trace.run_head_ratio", finish "trace.run_heads" /. all_events);
    ("trace.periodic_share", finish "trace.periodic_events" /. all_events);
  ]
  @ List.map
      (fun (sname, _) ->
        ( "dynamic." ^ sname ^ ".ns_per_event",
          (Span.totals s ("dynamic." ^ sname)).self_s /. (2.0 *. events) *. 1e9
        ))
      (schemes ())

let make ~name ~names ~smoke ~expected_dir =
  let checks = Harness.checks () in
  let expected = load_expected (expected_file expected_dir name) in
  let traces = ref [] in
  (* the input properties, per trace on standard error and summed for
     the per-layer metrics *)
  let finish () =
    Printf.eprintf "%-22s %10s %10s %9s %9s\n" "trace" "events" "run-heads"
      "periodic" "bits/br";
    List.iter
      (fun tr ->
        let heads, periodic, bits = shape tr in
        let ev = float_of_int tr.events in
        let share k = float_of_int k /. ev in
        Printf.eprintf "%-22s %10d %10.3f %9.3f %9.3f\n" tr.label tr.events
          (share heads) (share periodic) (share bits);
        Span.count "trace.all_events" ev;
        Span.count "trace.run_heads" (float_of_int heads);
        Span.count "trace.periodic_events" (float_of_int periodic);
        Span.count "trace.payload_bits" (float_of_int bits))
      !traces
  in
  let pass () =
    List.fold_left
      (fun n tr ->
        n + Harness.timed tr.label (fun () -> replay ~checks ~expected tr))
      0 !traces
    |> float_of_int
  in
  {
    Harness.setup = (fun () -> traces := record ~smoke names);
    pass;
    finish;
    checks;
    layers;
  }
