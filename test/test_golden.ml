(* The byte-identity contract: every registered experiment, rendered on
   the trimmed study as text and as TSV, must equal its committed golden
   files ([<id>.txt], [<id>.tsv]) exactly.
   The goldens were captured before the experiment/predictor registries
   existed, so passing here proves the refactor preserved every output
   byte.  Regenerate (only on an intended output change) with:

     dune exec test/golden_gen/gen_golden.exe -- test/golden *)

module Registry = Fisher92_workloads.Registry
module Experiment = Fisher92.Experiment

let golden_dir = "golden"

let mini =
  lazy
    (Fisher92.Study.load
       ~workloads:
         [
           Registry.find "lfk";
           Registry.find "doduc";
           Registry.find "compress";
           Registry.find "uncompress";
           Registry.find "spiff";
         ]
       ())

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* goldens that pin something other than an experiment render, each
   asserted by its own suite *)
let non_experiment =
  [ "zoo_streams" (* test_zoo.ml *); "proof_fixpoint" (* test_proof.ml *) ]

(* Registry ids and golden files must be the same set, for each suffix:
   a registered experiment without a golden (or a stale orphan golden)
   is a failure, so nobody can add an experiment without pinning its
   output. *)
let test_registry_matches_goldens () =
  let ids =
    List.sort compare
      (List.map (fun e -> e.Experiment.e_id) (Fisher92_synth.Sweep.registry ()))
  in
  List.iter
    (fun suffix ->
      let files =
        Sys.readdir golden_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f suffix)
        |> List.map (fun f -> Filename.chop_suffix f suffix)
        |> List.filter (fun id -> not (List.mem id non_experiment))
        |> List.sort compare
      in
      Alcotest.(check (list string))
        ("golden " ^ suffix ^ " file set = registry id set")
        ids files)
    [ ".txt"; ".tsv" ]

let test_render (e : Experiment.t) () =
  let expected = read_file (Filename.concat golden_dir (e.e_id ^ ".txt")) in
  let actual = Experiment.render_text e mini in
  Alcotest.(check string) (e.e_id ^ " render is byte-identical") expected actual

let test_tsv (e : Experiment.t) () =
  let expected = read_file (Filename.concat golden_dir (e.e_id ^ ".tsv")) in
  let actual = Experiment.render_tsv e mini in
  Alcotest.(check string) (e.e_id ^ " tsv is byte-identical") expected actual

let () =
  let renders =
    List.map
      (fun e ->
        Alcotest.test_case e.Experiment.e_id `Slow (test_render e))
      (Fisher92_synth.Sweep.registry ())
  in
  let tsvs =
    List.map
      (fun e -> Alcotest.test_case e.Experiment.e_id `Slow (test_tsv e))
      (Fisher92_synth.Sweep.registry ())
  in
  Alcotest.run "golden"
    [
      ( "registry",
        [ Alcotest.test_case "ids-match-goldens" `Quick
            test_registry_matches_goldens ] );
      ("render", renders);
      ("tsv", tsvs);
    ]
