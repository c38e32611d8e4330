(* Command-line interface to the reproduction study.

   fisher92 list                        programs and datasets (Table 2)
   fisher92 run PROG DATASET            execute one pair, print counters
   fisher92 profile PROG                profile every dataset, dump the
                                        IFPROB database / directives
   fisher92 predict PROG TARGET         cross-predict one dataset from
                                        the others
   fisher92 experiments [SECTION...]    regenerate paper tables/figures
                                        (--list for the registry,
                                        --format=tsv for machine output)
   fisher92 db check|repair             verify / salvage profile databases
   fisher92 trace record|info|sim       capture, inspect, and replay branch
                                        traces (trace-driven simulation)
   fisher92 serve PROG --dir DIR        crash-safe profile-ingest service
                                        (WAL + sharded merge + compaction)
   fisher92 submit PROG --dir DIR       run a dataset and spool its profile
                                        as an ingest delta
   fisher92 lint [PROG]                 IR lint (CFG + dataflow checks)
   fisher92 analyze PROG                static branch-proof classifications
   fisher92 disasm PROG                 dump the compiled IR
   fisher92 synth gen|charz|sweep       seeded synthetic workloads: generate,
                                        characterize, and sweep the grid
                                        behind the synthpool experiment *)

open Cmdliner
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Vm = Fisher92_vm.Vm
module Profile = Fisher92_profile.Profile
module Measure = Fisher92_metrics.Measure
module Table = Fisher92_report.Table

let compile w =
  Fisher92_minic.Compile.compile ~options:(Workload.compile_options w)
    w.Workload.w_program

let execute ir (d : Workload.dataset) =
  Vm.run ir ~iargs:d.ds_iargs ~fargs:d.ds_fargs ~arrays:d.ds_arrays

let find_workload name =
  match Registry.find name with
  | w -> w
  | exception Not_found ->
    Printf.eprintf "unknown program %S; try `fisher92 list`\n" name;
    exit 2

(* A file, directory or option value the user gave that cannot be used
   is a usage error, like an unknown program: one line naming it and
   exit 2, not a backtrace. *)
let usage_error path reason =
  Printf.eprintf "fisher92: %s: %s\n" path reason;
  exit 2

(* [Sys_error] messages read "PATH: REASON"; only the reason is kept. *)
let sys_error_reason msg =
  match String.rindex_opt msg ':' with
  | Some i -> String.trim (String.sub msg (i + 1) (String.length msg - i - 1))
  | None -> msg

(* Every file the CLI writes goes through [writing], under the path the
   user gave: a path that cannot be written is a usage error naming it,
   not a backtrace naming a temporary file written beside it (as
   [Db.save_file]'s is) or a file inside it. *)
let writing path f =
  try f () with Sys_error msg -> usage_error path (sys_error_reason msg)

let write_file path text =
  writing path (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text))

(* Every int-valued option is declared once, through [int_opt] or
   [int_opt_some], together with the check its value must pass.  A
   value that fails the check is a usage error, not an empty run or a
   crash.  The names declared here are also the ones
   [join_negative_ints] joins with a negative number that follows
   them. *)
type int_check = Any | Positive | Between of int * int

let int_option_names = ref []

let checked_int name check n =
  match check with
  | Positive when n < 1 ->
    usage_error name (Printf.sprintf "expected a positive integer, got %d" n)
  | Between (lo, hi) when n < lo || n > hi ->
    usage_error name
      (Printf.sprintf "expected an integer from %d to %d, got %d" lo hi n)
  | Any | Positive | Between _ -> n

(* Register [names] and return the long form that errors name. *)
let declare_int names =
  int_option_names := names @ !int_option_names;
  "--" ^ List.find (fun n -> String.length n > 1) names

let int_opt ?(check = Any) names ~docv ~doc default =
  let opt_name = declare_int names in
  Term.(
    const (checked_int opt_name check)
    $ Arg.(value & opt int default & info names ~docv ~doc))

(* An int option without a default: [None] when absent. *)
let int_opt_some ?(check = Any) names ~docv ~doc =
  let opt_name = declare_int names in
  Term.(
    const (Option.map (checked_int opt_name check))
    $ Arg.(value & opt (some int) None & info names ~docv ~doc))

(* [--domains N] for every command that fans work over the domain pool.
   The pool would clamp N below 1 to one domain; asking for that is a
   usage error instead. *)
let domains_term =
  int_opt_some ~check:Positive [ "domains" ] ~docv:"N"
    ~doc:"Run over $(docv) worker domains (default: the machine's \
          recommended domain count, or FISHER92_DOMAINS)"

(* ---- list ---- *)

let list_cmd =
  let run () = print_string (Fisher92.Experiments.render_table2 ()) in
  Cmd.v (Cmd.info "list" ~doc:"Show the program sample base (paper Table 2)")
    Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let run prog dataset =
    let w = find_workload prog in
    let d =
      match Workload.dataset w dataset with
      | d -> d
      | exception Not_found ->
        Printf.eprintf "unknown dataset %S for %s\n" dataset prog;
        exit 2
    in
    let ir = compile w in
    let r = execute ir d in
    let m = Measure.of_result ~program:prog ~dataset r in
    Printf.printf "%s / %s\n" prog dataset;
    Printf.printf "  dynamic instructions:  %s\n" (Table.inum r.total);
    List.iter
      (fun kind ->
        let count = Vm.kind_count r kind in
        if count > 0 then
          Printf.printf "    %-8s %s\n"
            (Fisher92_ir.Insn.kind_name kind)
            (Table.inum count))
      Fisher92_ir.Insn.all_kinds;
    Printf.printf "  branch sites covered:  %d / %d\n"
      (Profile.covered_sites m.profile)
      (Profile.n_sites m.profile);
    Printf.printf "  %% branches taken:      %s\n" (Table.pct (Measure.percent_taken m));
    Printf.printf "  instrs/break (none):   %s\n" (Table.fnum (Measure.ipb_unpredicted m));
    Printf.printf "  instrs/break (self):   %s\n" (Table.fnum (Measure.ipb_self m));
    Printf.printf "  outputs (first 8):     %s\n"
      (String.concat " "
         (List.filteri (fun k _ -> k < 8) r.outputs
         |> List.map (function
              | Vm.Out_int k -> string_of_int k
              | Vm.Out_float x -> Printf.sprintf "%g" x)))
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let dataset = Arg.(required & pos 1 (some string) None & info [] ~docv:"DATASET") in
  Cmd.v (Cmd.info "run" ~doc:"Execute one (program, dataset) pair on the simulator")
    Term.(const run $ prog $ dataset)

(* ---- profile ---- *)

let profile_cmd =
  let run prog directives output =
    let w = find_workload prog in
    let ir = compile w in
    let db =
      Fisher92_profile.Db.create ~program:prog
        ~n_sites:(Fisher92_ir.Program.n_sites ir)
    in
    List.iter
      (fun (d : Workload.dataset) ->
        let r = execute ir d in
        Fisher92_profile.Db.record db ~dataset:d.ds_name
          (Profile.of_run ~program:prog r))
      w.w_datasets;
    Fisher92_profile.Db.set_identity db
      ~fingerprint:(Fisher92_analysis.Fingerprint.program_hash ir)
      ~sitekeys:(Fisher92_analysis.Fingerprint.site_keys ir);
    let text =
      if directives then
        Fisher92_profile.Directive.render_all
          (Fisher92_profile.Directive.of_profile ir
             (Fisher92_profile.Db.accumulated db))
      else Fisher92_profile.Db.save db
    in
    match output with
    | None -> print_string text
    | Some path ->
      if directives then write_file path text
      else writing path (fun () -> Fisher92_profile.Db.save_file db path);
      Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let directives =
    Arg.(value & flag & info [ "directives" ] ~doc:"Print IFPROB directives instead of the raw database")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile every dataset and print the IFPROBBER database")
    Term.(const run $ prog $ directives $ output)

(* ---- predict ---- *)

let predict_cmd =
  let run prog target =
    let w = find_workload prog in
    let ir = compile w in
    let runs =
      List.map
        (fun (d : Workload.dataset) ->
          Measure.of_result ~program:prog ~dataset:d.ds_name (execute ir d))
        w.w_datasets
    in
    let entries = Fisher92_metrics.Cross.analyze runs in
    let selected =
      match target with
      | None -> entries
      | Some t -> List.filter (fun e -> e.Fisher92_metrics.Cross.target = t) entries
    in
    if selected = [] then begin
      Printf.eprintf "no such dataset\n";
      exit 2
    end;
    print_string
      (Table.render
         ~header:[ "TARGET"; "SELF I/B"; "OTHERS I/B"; "BEST"; "WORST" ]
         (List.map
            (fun (e : Fisher92_metrics.Cross.entry) ->
              [
                e.target;
                Table.fnum e.self_ipb;
                (match e.others_ipb with Some v -> Table.fnum v | None -> "-");
                (match e.best with
                | Some (n, q) -> Printf.sprintf "%s (%.0f%%)" n (100.0 *. q)
                | None -> "-");
                (match e.worst with
                | Some (n, q) -> Printf.sprintf "%s (%.0f%%)" n (100.0 *. q)
                | None -> "-");
              ])
            selected))
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let target = Arg.(value & pos 1 (some string) None & info [] ~docv:"DATASET") in
  Cmd.v
    (Cmd.info "predict" ~doc:"Cross-dataset prediction summary for one program")
    Term.(const run $ prog $ target)

(* ---- experiments ---- *)

let experiments_cmd =
  let module Experiment = Fisher92.Experiment in
  let run sections listing format timing domains =
    (* the registry; going through [Sweep.registry] (not
       [Experiment.all]) forces both the core and the synth
       registrations to be linked *)
    let registry = Fisher92_synth.Sweep.registry () in
    if listing then print_string (Experiment.list_table ())
    else begin
      let ids = List.map (fun e -> e.Experiment.e_id) registry in
      (* validate the whole request before simulating anything, so a typo
         in a mixed valid/invalid list costs nothing *)
      (match List.filter (fun s -> not (List.mem s ids)) sections with
      | [] -> ()
      | bad ->
        Printf.eprintf "unknown section%s: %s; valid sections: %s\n"
          (match bad with [ _ ] -> "" | _ -> "s")
          (String.concat " " bad)
          (String.concat " " ids);
        exit 2);
      let timings = ref None in
      let study =
        lazy
          (let s, tm = Fisher92.Study.load_timed ?domains () in
           timings := Some tm;
           s)
      in
      let selected =
        match sections with
        | [] -> registry
        | names ->
          List.map
            (fun s ->
              match Experiment.find s with
              | Some e -> e
              | None -> assert false (* validated above *))
            names
      in
      List.iter
        (fun e ->
          let text =
            match format with
            | `Text -> Experiment.render_text e study
            | `Tsv -> Experiment.render_tsv e study
          in
          print_endline text)
        selected;
      match (timing, !timings) with
      | true, Some tm -> print_string (Fisher92.Study.render_timings tm)
      | true, None -> print_endline "(no study was loaded; nothing to time)"
      | false, _ -> ()
    end
  in
  let sections = Arg.(value & pos_all string [] & info [] ~docv:"SECTION") in
  let listing =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List the registered experiments (section name, paper \
                   reference, description) and exit")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,text) (the paper-style tables and \
                   figures) or $(b,tsv) (one tab-separated header line \
                   plus data rows, for downstream plotting)")
  in
  let timing =
    Arg.(value & flag
         & info [ "timing" ]
             ~doc:"Print the per-workload compile/simulate/cache-hit timing \
                   table after the experiments")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (all, or named sections)")
    Term.(const run $ sections $ listing $ format $ timing $ domains_term)

(* ---- db ---- *)

let db_cmd =
  let module Db = Fisher92_profile.Db in
  let module Remap = Fisher92_predict.Remap in
  let read_file path =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg -> usage_error path (sys_error_reason msg)
  in
  let save_file db dest = writing dest (fun () -> Db.save_file db dest) in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the result here instead of overwriting FILE")
  in
  (* A file in another format is a usage error, not a database to
     salvage nothing from and overwrite. *)
  let salvage file text =
    match Db.load_lenient text with
    | _, { Db.r_version = 0; r_dropped = i :: _; _ } ->
      usage_error file i.Db.i_reason
    | loaded -> loaded
  in
  let check =
    let run file prog =
      let text = read_file file in
      let db, report = salvage file text in
      (match Db.load text with
      | _ -> Printf.printf "%s: strict load ok\n" file
      | exception Failure msg ->
        Printf.printf "%s: strict load FAILED: %s\n" file msg);
      print_string (Db.render_report report);
      (match prog with
      | None -> ()
      | Some p ->
        let w = find_workload p in
        let ir = compile w in
        let chain = Remap.plan ir db in
        let e, r, pf, h, d = Remap.counts chain in
        Printf.printf "against %s (%d sites): %s, %s\n" p
          (Fisher92_ir.Program.n_sites ir)
          (if chain.Remap.r_stale then "STALE" else "fresh")
          (if chain.Remap.r_verified then "fingerprinted"
           else "no fingerprint");
        Printf.printf
          "  provenance: %d exact, %d remapped, %d proof, %d heuristic, \
           %d default\n"
          e r pf h d);
      if not (Db.clean report) then exit 1
    in
    let prog =
      Arg.(value & opt (some string) None & info [ "program" ] ~docv:"PROGRAM"
             ~doc:"Also report prediction provenance against this workload's \
                   current build")
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Verify a profile database: strict load, salvage report, and \
            (with --program) staleness/provenance against the current build. \
            Exits 1 unless the file is fully intact, and 2 if it is not an \
            ifprobdb2 database.")
      Term.(const run $ file_arg $ prog)
  in
  let repair =
    let run file output =
      let db, report = salvage file (read_file file) in
      print_string (Db.render_report report);
      let dest = match output with Some o -> o | None -> file in
      save_file db dest;
      Printf.printf "wrote %s (%d datasets kept)\n" dest
        (List.length (Db.datasets db))
    in
    Cmd.v
      (Cmd.info "repair"
         ~doc:
           "Salvage whatever checksum-verified sections survive in a damaged \
            database and rewrite it clean. A file that is not an ifprobdb2 \
            database is left as it was (exit 2).")
      Term.(const run $ file_arg $ out_arg)
  in
  Cmd.group
    (Cmd.info "db" ~doc:"Inspect and salvage IFPROB profile databases")
    [ check; repair ]

(* ---- trace ---- *)

let trace_cmd =
  let module Trace = Fisher92_trace.Trace in
  let module Tracing = Fisher92.Tracing in
  let module Dynamic = Fisher92_predict.Dynamic in
  let resolve prog dataset =
    let w = find_workload prog in
    let d =
      match dataset with
      | None -> List.hd w.Workload.w_datasets
      | Some name -> (
        match Workload.dataset w name with
        | d -> d
        | exception Not_found ->
          Printf.eprintf "unknown dataset %S for %s\n" name prog;
          exit 2)
    in
    (w, compile w, d)
  in
  let prog_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM")
  in
  let dataset_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"DATASET"
           ~doc:"Dataset name (default: the workload's first)")
  in
  let describe w (d : Workload.dataset) (m : Trace.meta) ~source =
    Printf.printf "%s / %s: %s dynamic branches over %d sites (%s)\n"
      w.Workload.w_name d.ds_name (Table.inum m.Trace.t_events)
      m.Trace.t_n_sites source;
    Printf.printf "  fingerprint: %s  dataset hash: %s\n" m.Trace.t_fingerprint
      m.Trace.t_dshash
  in
  let record =
    let run prog dataset output =
      let w, ir, d = resolve prog dataset in
      let wr = Tracing.record ~ir ~program:w.w_name d in
      let text = Trace.Store.save wr in
      (match output with
      | None -> ()
      | Some path ->
        write_file path text;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length text));
      let r = Trace.Reader.of_string text in
      describe w d (Trace.Reader.meta r) ~source:"captured";
      let events = max 1 (Trace.Writer.events wr) in
      Printf.printf "  payload: %d bytes = %.2f bits/branch (file: %d bytes)\n"
        (Trace.Reader.payload_bytes r)
        (8.0 *. float_of_int (Trace.Reader.payload_bytes r)
        /. float_of_int events)
        (String.length text);
      if Trace.Store.enabled () then
        Printf.printf "  stored in %s\n" (Trace.Store.dir ())
    in
    let output =
      Arg.(value & opt (some string) None & info [ "o"; "output" ]
             ~docv:"FILE" ~doc:"Also write the trace file here")
    in
    Cmd.v
      (Cmd.info "record"
         ~doc:
           "Execute one (program, dataset) pair with the trace recorder \
            attached and store the branch trace.")
      Term.(const run $ prog_arg $ dataset_arg $ output)
  in
  let info_cmd =
    let run prog dataset =
      let w, ir, d = resolve prog dataset in
      let ob = Tracing.obtain ~ir ~program:w.w_name d in
      let m = Trace.Reader.meta ob.Tracing.reader in
      describe w d m
        ~source:(if ob.Tracing.from_store then "from store" else "captured");
      let enc, _ = Trace.Reader.counts ob.Tracing.reader in
      let covered = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 enc in
      Printf.printf "  sites covered: %d / %d\n" covered m.Trace.t_n_sites;
      Printf.printf "  payload: %d bytes = %.2f bits/branch\n"
        (Trace.Reader.payload_bytes ob.Tracing.reader)
        (8.0 *. float_of_int (Trace.Reader.payload_bytes ob.Tracing.reader)
        /. float_of_int (max 1 m.Trace.t_events))
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Show a trace's metadata and compression (loads the stored \
            trace, capturing it first if absent or stale).")
      Term.(const run $ prog_arg $ dataset_arg)
  in
  let sim =
    let module Predictor = Fisher92_predict.Predictor in
    let run prog dataset warm seed scheme_names =
      let w, ir, d = resolve prog dataset in
      let schemes =
        match scheme_names with
        | [] -> List.map (fun z -> z.Predictor.d_scheme) (Predictor.zoo ())
        | names ->
          List.map
            (fun name ->
              match Predictor.find_dynamic name with
              | Some z -> z.Predictor.d_scheme
              | None ->
                Printf.eprintf "unknown scheme %S; registered: %s\n" name
                  (String.concat ", "
                     (List.map
                        (fun z -> z.Predictor.d_name)
                        (Predictor.zoo ())));
                exit 2)
            names
      in
      let ob = Tracing.obtain ~ir ~program:w.w_name d in
      let m = Trace.Reader.meta ob.Tracing.reader in
      describe w d m
        ~source:(if ob.Tracing.from_store then "from store" else "captured");
      if warm then
        print_string "  (warm: counters trained by one replay, then measured)\n";
      let warm_pred =
        if seed then begin
          print_string
            "  (seed: counters start from the accumulated profile via the \
             remap chain)\n";
          let loaded =
            List.hd (Fisher92.Study.items (Fisher92.Study.load ~workloads:[ w ] ()))
          in
          Some (Tracing.warm_prediction loaded)
        end
        else None
      in
      let n_sites = Fisher92_ir.Program.n_sites ir in
      let replay = Trace.Reader.iter_runs ob.Tracing.reader in
      let rows =
        List.map
          (fun scheme ->
            let t =
              Dynamic.simulate_runs ?warm:warm_pred scheme ~n_sites replay
            in
            if warm then begin
              Dynamic.reset_counts t;
              replay (Dynamic.hook_batch t)
            end;
            [
              Dynamic.scheme_name scheme;
              Table.inum (Dynamic.correct t);
              Table.inum (Dynamic.incorrect t);
              Table.pct (Dynamic.percent_correct t);
            ])
          schemes
      in
      print_string
        (Table.render
           ~header:[ "SCHEME"; "CORRECT"; "INCORRECT"; "%CORRECT" ]
           rows)
    in
    let warm =
      Arg.(value & flag & info [ "warm" ]
             ~doc:
               "Measure steady-state accuracy: replay the trace once to \
                train each predictor, reset the tallies, and measure a \
                second replay (default is a cold predictor).")
    in
    let seed =
      Arg.(value & flag & info [ "seed" ]
             ~doc:
               "Profile-warm the predictors: seed counter/choice tables \
                from the accumulated profile of every dataset (through the \
                remap degradation chain) before the measured replay.  \
                Composes with $(b,--warm).")
    in
    let schemes =
      Arg.(value & opt_all string [] & info [ "scheme" ] ~docv:"NAME"
             ~doc:
               "Simulate only this scheme (repeatable); default is the \
                whole registered zoo.  See `fisher92 trace sim --help` for \
                the roster.")
    in
    Cmd.v
      (Cmd.info "sim"
         ~doc:
           "Replay a branch trace through the dynamic predictor zoo \
            (smith, 2-bit, 2-level, gshare, bimode, tage) without \
            re-executing the program.")
      Term.(const run $ prog_arg $ dataset_arg $ warm $ seed $ schemes)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record, inspect, and simulate from branch traces")
    [ record; info_cmd; sim ]

(* ---- hotspots ---- *)

let hotspots_cmd =
  let run prog dataset top =
    let w = find_workload prog in
    let d =
      match Workload.dataset w dataset with
      | d -> d
      | exception Not_found ->
        Printf.eprintf "unknown dataset %S for %s\n" dataset prog;
        exit 2
    in
    let ir = compile w in
    let r = execute ir d in
    let sites =
      List.init (Array.length r.site_encountered) (fun s ->
          (r.site_encountered.(s), r.site_taken.(s), s))
      |> List.sort compare |> List.rev
    in
    print_string
      (Table.render
         ~header:[ "SITE"; "EXECUTED"; "TAKEN"; "% TAKEN"; "SHARE" ]
         (List.filteri (fun k _ -> k < top) sites
         |> List.map (fun (enc, taken, s) ->
                [
                  Fisher92_ir.Program.site_label ir s;
                  Table.inum enc;
                  Table.inum taken;
                  Table.pct (Fisher92_util.Stats.percent taken (max enc 1));
                  Table.pct
                    (Fisher92_util.Stats.percent enc
                       (Fisher92_vm.Vm.conditional_branches r));
                ])))
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let dataset = Arg.(required & pos 1 (some string) None & info [] ~docv:"DATASET") in
  let top =
    int_opt ~check:Positive [ "n"; "top" ] ~docv:"N"
      ~doc:"How many sites to show" 15
  in
  Cmd.v
    (Cmd.info "hotspots" ~doc:"Show the busiest branch sites of one run")
    Term.(const run $ prog $ dataset $ top)

(* ---- lint ---- *)

let lint_cmd =
  let module Lint = Fisher92_analysis.Lint in
  let run prog format =
    let workloads =
      match prog with None -> Registry.all () | Some p -> [ find_workload p ]
    in
    if format = `Tsv then
      print_string "program\tfunction\tpc\tkind\tmessage\n";
    let dirty = ref 0 in
    List.iter
      (fun (w : Workload.t) ->
        let ir = compile w in
        let findings = Lint.check ir in
        if findings <> [] then incr dirty;
        match format with
        | `Text -> print_string (Lint.render ir findings)
        | `Tsv ->
          List.iter
            (fun (f : Lint.finding) ->
              Printf.printf "%s\t%s\t%d\t%s\t%s\n" ir.Fisher92_ir.Program.pname
                f.Lint.f_func f.Lint.f_pc (Lint.kind_name f.Lint.f_kind)
                f.Lint.f_message)
            findings)
      workloads;
    if !dirty > 0 then exit 1
  in
  let prog = Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (per-program reports) or $(b,tsv) \
             (one tab-separated header line, then one row per finding).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the IR lint (unreachable code, use-before-def, dead stores, \
          infinite loops, proof-backed constant branches and contradictory \
          guards) on one workload, or on every registered workload. Exits 1 \
          if any program has findings.")
    Term.(const run $ prog $ format)

(* ---- analyze ---- *)

let analyze_cmd =
  let module B = Fisher92_analysis.Brclass in
  let module P = Fisher92_ir.Program in
  let run prog format show_unknown =
    let w = find_workload prog in
    let ir = compile w in
    let classes = (B.classify ir).B.classes in
    let pt, pn, lb, un = B.counts { B.classes } in
    let source_name = function
      | B.Src_const -> "sccp"
      | B.Src_range -> "range"
      | B.Src_loop -> "loop"
      | B.Src_none -> "-"
    in
    let rows =
      List.filter
        (fun (_, sc) -> show_unknown || sc.B.sc_cls <> B.Unknown)
        (List.mapi (fun s sc -> (s, sc)) (Array.to_list classes))
    in
    let site s = ir.P.sites.(s) in
    let columns =
      Table.
        [
          tsv_col "program" (fun _ -> Str w.Workload.w_name);
          col "SITE" "site" (fun (s, _) -> Int s);
          col "LABEL" "function" (fun (s, _) ->
              Str ir.P.funcs.((site s).P.s_func).P.fname);
          col "PC" "pc" (fun (s, _) -> Int (site s).P.s_pc);
          col "CLASS" "class" (fun (_, sc) -> Str (B.cls_name sc.B.sc_cls));
          col "SOURCE" "source" (fun (_, sc) ->
              Str (source_name sc.B.sc_source));
          col "DETAIL" "detail" (fun (_, sc) -> Str sc.B.sc_detail);
        ]
    in
    match format with
    | `Tsv -> print_string (Table.tsv columns rows)
    | `Text ->
      Printf.printf
        "%s: %d sites — %d proved taken, %d proved not-taken, %d \
         loop-bounded, %d unknown\n"
        w.Workload.w_name (Array.length classes) pt pn lb un;
      if rows <> [] then print_string (Table.text columns rows)
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (summary plus a site table) or \
             $(b,tsv) (one tab-separated header line, then one row per \
             site).")
  in
  let show_unknown =
    Arg.(
      value & flag
      & info [ "unknown" ]
          ~doc:"Also list sites the analysis could not classify.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Classify a workload's conditional branches with the static \
          branch-proof pass (SCCP + value ranges + counted-loop trip \
          bounds) and render the per-site verdicts.")
    Term.(const run $ prog $ format $ show_unknown)

(* ---- serve / submit: the crash-safe profile-ingest service ---- *)

let ingest_config ~dir ~shards prog ir =
  {
    Fisher92_ingest.Service.c_dir = dir;
    c_program = prog;
    c_n_sites = Fisher92_ir.Program.n_sites ir;
    c_fingerprint = Fisher92_analysis.Fingerprint.program_hash ir;
    c_sitekeys = Fisher92_analysis.Fingerprint.site_keys ir;
    c_shards = shards;
  }

(* An unusable service directory is a usage error ({!usage_error}). *)
let with_service_dir dir f =
  let rec reason = function
    | Sys_error msg -> sys_error_reason msg
    | Unix.Unix_error (e, _, _) -> Unix.error_message e
    | Fisher92_ingest.Client.Gave_up (_, e) -> reason e
    | e -> Printexc.to_string e
  in
  try f () with
  | (Sys_error _ | Unix.Unix_error _ | Fisher92_ingest.Client.Gave_up _) as e ->
    usage_error dir (reason e)

let serve_cmd =
  let module S = Fisher92_ingest.Service in
  let run prog dir rounds interval shards =
    let w = find_workload prog in
    let ir = compile w in
    with_service_dir dir @@ fun () ->
    let svc = S.open_ (ingest_config ~dir ~shards prog ir) in
    List.iter (fun n -> Printf.printf "note: %s\n" n) (S.notes svc);
    for round = 1 to rounds do
      if round > 1 then Unix.sleepf interval;
      let d = S.drain_spool svc in
      Printf.printf "round %d: %d acked, %d duplicate, %d quarantined\n%!"
        round d.S.dr_acked d.S.dr_duplicates d.S.dr_quarantined;
      S.compact svc
    done;
    S.close svc;
    let st = S.stats svc in
    Printf.printf
      "served: %d accepted (%d remapped, %d entries dropped), %d \
       duplicates, %d quarantined, %d replayed, %d compactions\n"
      st.S.st_accepted st.S.st_remapped st.S.st_dropped_entries
      st.S.st_duplicates st.S.st_quarantined st.S.st_replayed
      st.S.st_compactions;
    Printf.printf "database: %s (generation %d)\n" (S.db_path ~dir)
      (Fisher92_profile.Db.generation (S.base_db svc))
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let dir =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Service directory (database, WAL, spool, quarantine)")
  in
  let rounds =
    int_opt ~check:Positive [ "rounds" ] ~docv:"N"
      ~doc:"Drain-and-compact rounds to run (default 1: one-shot)" 1
  in
  let interval =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"SECS"
           ~doc:"Sleep between rounds")
  in
  let shards =
    int_opt_some ~check:(Between (1, 256)) [ "shards" ] ~docv:"N"
      ~doc:"Merge shard count, 1 to 256 (default: $(b,FISHER92_SHARDS))"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-safe profile-ingest service: recover (salvage \
          database, replay WAL), drain spooled deltas, compact into the \
          v2 database")
    Term.(const run $ prog $ dir $ rounds $ interval $ shards)

let submit_cmd =
  let run prog dir dataset label nonce =
    let w = find_workload prog in
    let ir = compile w in
    let d =
      let name =
        match dataset with
        | Some n -> n
        | None -> (List.hd w.Workload.w_datasets).ds_name
      in
      match Workload.dataset w name with
      | d -> d
      | exception Not_found ->
        Printf.eprintf "unknown dataset %S for %s\n" name prog;
        exit 2
    in
    let r = execute ir d in
    let delta =
      Fisher92_ingest.Delta.of_profile
        ~fingerprint:(Fisher92_analysis.Fingerprint.program_hash ir)
        ~label:(Option.value label ~default:d.ds_name)
        ~keys:(Fisher92_analysis.Fingerprint.site_keys ir)
        ~nonce
        (Profile.of_run ~program:prog r)
    in
    let rng = Fisher92_util.Rng.create (nonce + 7) in
    let path =
      with_service_dir dir (fun () ->
          Fisher92_ingest.Client.spool_submit ~rng ~dir delta)
    in
    Printf.printf "spooled %s (id %s, %d site entries)\n" path
      delta.Fisher92_ingest.Delta.d_id
      (Array.length delta.Fisher92_ingest.Delta.d_sites)
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let dir =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Service directory (the delta lands in its spool)")
  in
  let dataset =
    Arg.(value & opt (some string) None & info [ "dataset" ] ~docv:"NAME"
           ~doc:"Dataset to run and submit (default: the workload's first)")
  in
  let label =
    Arg.(value & opt (some string) None & info [ "label" ] ~docv:"NAME"
           ~doc:"Dataset bucket in the pool database (default: the dataset)")
  in
  let nonce =
    int_opt [ "nonce" ] ~docv:"N"
      ~doc:"Submission nonce: same counters + same nonce = same delta id \
            (an idempotent retry)"
      0
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Run one (program, dataset) pair and spool its profile as an \
          ingest delta for $(b,fisher92 serve)")
    Term.(const run $ prog $ dir $ dataset $ label $ nonce)

(* ---- disasm ---- *)

let disasm_cmd =
  let run prog =
    let w = find_workload prog in
    print_string (Fisher92_ir.Pretty.program_to_string (compile w))
  in
  let prog = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  Cmd.v (Cmd.info "disasm" ~doc:"Dump a workload's compiled IR")
    Term.(const run $ prog)

(* ---- synth ---- *)

module Gen = Fisher92_synth.Gen
module Charz = Fisher92_synth.Charz
module Sweep = Fisher92_synth.Sweep
module Curated = Fisher92_synth.Curated

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let write_source dir (w : Workload.t) =
  let path = Filename.concat dir (w.w_name ^ ".mc") in
  writing dir (fun () ->
      ensure_dir dir;
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Fisher92_minic.Pp.program_to_string w.w_program)));
  path

(* The generator's well-formedness gate, as the CI smoke exercises it:
   compile, then lint; any finding (or compile failure) is a generator
   bug. *)
let gate (w : Workload.t) =
  let module Lint = Fisher92_analysis.Lint in
  match compile w with
  | exception e -> Error (Printexc.to_string e)
  | ir -> (
    match Lint.check ir with
    | [] -> Ok ()
    | findings ->
      Error
        (String.concat "; "
           (List.map (fun (f : Lint.finding) -> f.Lint.f_message) findings)))

let synth_gen_cmd =
  let run seed count template out =
    let dir =
      match out with Some d -> d | None -> Fisher92_util.Env.synth_dir ()
    in
    let failures = ref 0 in
    let rows =
      List.init count (fun k ->
          let tmpl =
            match template with
            | Some t -> t
            | None ->
              List.nth Gen.all_templates (k mod List.length Gen.all_templates)
          in
          let params = { Gen.default_params with gp_template = tmpl } in
          let sd = seed + k in
          let w = Gen.generate params ~seed:sd in
          let status =
            match gate w with
            | Ok () -> "ok"
            | Error msg ->
              incr failures;
              "FAIL: " ^ msg
          in
          let path = write_source dir w in
          [
            w.Workload.w_name; string_of_int sd; Gen.template_name tmpl;
            status; path;
          ])
    in
    print_string
      (Table.render ~header:[ "NAME"; "SEED"; "TEMPLATE"; "LINT"; "SOURCE" ]
         rows);
    if !failures > 0 then begin
      Printf.eprintf "%d of %d generated programs failed the gate\n" !failures
        count;
      exit 1
    end
  in
  let seed =
    int_opt [ "seed" ] ~docv:"N"
      ~doc:"Base seed; program $(i,k) of the batch uses seed N+k"
      Sweep.default_seed
  in
  let count =
    int_opt ~check:Positive [ "count" ] ~docv:"K"
      ~doc:"How many programs to generate" 1
  in
  let template =
    let tconv =
      Arg.conv
        ( (fun s ->
            match Gen.template_of_string s with
            | Some t -> Ok t
            | None -> Error (`Msg (Printf.sprintf "unknown template %S" s))),
          fun fmt t -> Format.pp_print_string fmt (Gen.template_name t) )
    in
    Arg.(value & opt (some tconv) None
         & info [ "template" ] ~docv:"TEMPLATE"
             ~doc:"Generate only this template (biased, periodic, mixed, \
                   adversarial); default cycles through all four")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"DIR"
             ~doc:"Directory for the emitted .mc sources (default: \
                   FISHER92_SYNTH_DIR)")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate seeded synthetic programs, run each through the \
          compile+lint well-formedness gate, and write their MiniC sources. \
          Exits 1 if any program fails the gate.")
    Term.(const run $ seed $ count $ template $ out)

let synth_charz_cmd =
  let run progs domains =
    Curated.ensure_registered ();
    let workloads =
      match progs with
      | [] -> Curated.all ()
      | names -> List.map find_workload names
    in
    let study = Fisher92.Study.load ~workloads ?domains () in
    let rows =
      List.map
        (fun (l : Fisher92.Study.loaded) ->
          ( l.workload.Workload.w_name,
            Charz.characterize
              ~opinions:(Fisher92_predict.Heuristic.ball_larus_opinions l.ir)
              l ))
        (Fisher92.Study.items study)
    in
    print_string (Table.text Charz.columns rows)
  in
  let progs = Arg.(value & pos_all string [] & info [] ~docv:"PROGRAM") in
  Cmd.v
    (Cmd.info "charz"
       ~doc:
         "Characterize workloads (site counts, skew, entropy, static floor, \
          gshare recovery, H2P share, class). Defaults to the curated \
          synthetic set; any registered workload name is accepted.")
    Term.(const run $ progs $ domains_term)

let synth_sweep_cmd =
  let run seed variants domains cache format =
    let items =
      Sweep.run ?domains ~cache ~items:(Sweep.grid ~variants ~seed ()) ()
    in
    match format with
    | `Text -> print_string (Sweep.render items)
    | `Tsv -> print_string (Table.tsv Sweep.columns items)
  in
  let seed = int_opt [ "seed" ] ~docv:"N" ~doc:"Grid seed" Sweep.default_seed in
  let variants =
    int_opt ~check:Positive [ "variants" ] ~docv:"V"
      ~doc:"Structural variants per (template, bias, shift) cell" 5
  in
  let cache =
    Arg.(value & opt bool true
         & info [ "cache" ] ~docv:"BOOL"
             ~doc:"Persist compiled runs through the study cache")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"$(b,text) (the synthpool tables) or $(b,tsv) (the \
                   synthpool TSV: one row per grid point)")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the full generator sweep: fan the parameter grid over the \
          domain pool, characterize every workload, race the predictor \
          roster, and print the per-class summary (or per-point TSV). \
          Deterministic for a given seed, regardless of domain count and \
          cache state.")
    Term.(const run $ seed $ variants $ domains_term $ cache $ format)

let synth_curated_cmd =
  let run out =
    let failures = ref 0 in
    List.iter
      (fun (w : Workload.t) ->
        (match gate w with
        | Ok () -> ()
        | Error msg ->
          incr failures;
          Printf.eprintf "%s: %s\n" w.w_name msg);
        let path = write_source out w in
        Printf.printf "wrote %s\n" path)
      (Curated.all ());
    if !failures > 0 then exit 1
  in
  let out =
    Arg.(value & opt string "examples/synth"
         & info [ "o"; "out" ] ~docv:"DIR"
             ~doc:"Directory for the curated .mc sources")
  in
  Cmd.v
    (Cmd.info "curated"
       ~doc:
         "Regenerate the curated synthetic workloads' MiniC sources (the \
          committed examples/synth/*.mc); CI diffs a fresh generation \
          against the committed files.")
    Term.(const run $ out)

let synth_cmd =
  Cmd.group
    (Cmd.info "synth"
       ~doc:
         "Seeded synthetic-workload tooling: generate programs, \
          characterize their branch predictability, and run the full \
          sweep behind the synthpool experiment")
    [ synth_gen_cmd; synth_charz_cmd; synth_sweep_cmd; synth_curated_cmd ]

(* cmdliner reads an argument starting with '-' as an option, so left
   alone [--seed -1] fails with "unknown option '-1'" and a usage block.
   An int option followed by a negative number is joined into the
   [--seed=-1] ([-n-3]) form, which cmdliner parses and the option's
   check then accepts or rejects in one line. *)
let join_negative_ints argv =
  let negative v =
    String.length v > 1 && v.[0] = '-' && Option.is_some (int_of_string_opt v)
  in
  let spelling n = if String.length n = 1 then "-" ^ n else "--" ^ n in
  let int_option a =
    List.exists (fun n -> String.equal (spelling n) a) !int_option_names
  in
  let rec go = function
    | "--" :: _ as rest -> rest
    | o :: v :: rest when int_option o && negative v ->
      (if String.length o = 2 then o ^ v else o ^ "=" ^ v) :: go rest
    | a :: rest -> a :: go rest
    | [] -> []
  in
  Array.of_list (go (Array.to_list argv))

let () =
  let info =
    Cmd.info "fisher92" ~version:"1.0.0"
      ~doc:
        "Reproduction of Fisher & Freudenberger, 'Predicting Conditional \
         Branch Directions From Previous Runs of a Program' (ASPLOS 1992)"
  in
  exit
    (Cmd.eval ~argv:(join_negative_ints Sys.argv)
       (Cmd.group info
          [ list_cmd; run_cmd; profile_cmd; predict_cmd; experiments_cmd;
            db_cmd; trace_cmd; hotspots_cmd; lint_cmd; analyze_cmd;
            serve_cmd; submit_cmd; disasm_cmd; synth_cmd ]))
