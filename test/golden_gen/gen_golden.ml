(* Golden-file generator: render every registered experiment on the
   trimmed study and write two files per experiment into the directory
   given as argv(1): [<id>.txt] (the text render) and [<id>.tsv] (the
   TSV render).

   The committed files under test/golden/ are the byte-identity contract
   the golden test (test_golden.ml) enforces; regenerate them with

     dune exec test/golden_gen/gen_golden.exe -- test/golden

   only when an output change is intended. *)

module Registry = Fisher92_workloads.Registry

let mini () =
  Fisher92.Study.load
    ~workloads:
      [
        Registry.find "lfk";
        Registry.find "doduc";
        Registry.find "compress";
        Registry.find "uncompress";
        Registry.find "spiff";
      ]
    ()

let write path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let study = lazy (mini ()) in
  List.iter
    (fun (e : Fisher92.Experiment.t) ->
      let base = Filename.concat dir e.e_id in
      write (base ^ ".txt") (Fisher92.Experiment.render_text e study);
      write (base ^ ".tsv") (Fisher92.Experiment.render_tsv e study))
    (Fisher92_synth.Sweep.registry ())
