(* The branch-trace subsystem: codec roundtrip, strict decoding under
   the shared fault corpus, store keying, replay faithfulness against
   the VM, and the dynamic predictors' cold-start/warm semantics. *)

module Trace = Fisher92_trace.Trace
module Sectfile = Fisher92_util.Sectfile
module Store = Fisher92_util.Store
module B64 = Fisher92_util.B64
module Dynamic = Fisher92_predict.Dynamic
module Tracing = Fisher92.Tracing
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Vm = Fisher92_vm.Vm
module Corrupt = Fisher92_testsupport.Corrupt
module Gen = QCheck2.Gen

(* Isolate the store: this suite owns a private directory and must be
   immune to FISHER92_NO_TRACE in the surrounding environment. *)
let trace_dir =
  let d = Filename.temp_file "f92trace" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let () =
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  Unix.putenv "FISHER92_NO_TRACE" ""

(* ---------- helpers ---------- *)

let mk_writer ?(program = "p") ?(dataset = "d") ?(fingerprint = "f0")
    ?(dshash = "h0") ~n_sites evs =
  let w = Trace.Writer.create ~program ~dataset ~fingerprint ~dshash ~n_sites in
  List.iter (fun (s, t) -> Trace.Writer.feed w s t) evs;
  w

let decode r =
  let out = ref [] in
  Trace.Reader.iter r (fun s t -> out := (s, t) :: !out);
  List.rev !out

let roundtrip ~n_sites evs =
  decode (Trace.Reader.of_string (Trace.Writer.render (mk_writer ~n_sites evs)))

let pp_events evs =
  String.concat ";"
    (List.map (fun (s, t) -> Printf.sprintf "%d%c" s (if t then 'T' else 'F')) evs)

(* ---------- codec units ---------- *)

let test_empty () =
  let w = mk_writer ~n_sites:3 [] in
  let r = Trace.Reader.of_string (Trace.Writer.render w) in
  Alcotest.(check (list (pair int bool))) "no events" [] (decode r);
  Alcotest.(check int) "no payload" 0 (Trace.Reader.payload_bytes r);
  let enc, tak = Trace.Reader.counts r in
  Alcotest.(check (array int)) "enc zero" [| 0; 0; 0 |] enc;
  Alcotest.(check (array int)) "tak zero" [| 0; 0; 0 |] tak

let test_known_stream () =
  let evs =
    [ (0, true); (1, true); (0, false); (1, true); (0, false); (2, true) ]
  in
  let r = Trace.Reader.of_string (Trace.Writer.render (mk_writer ~n_sites:3 evs)) in
  Alcotest.(check (list (pair int bool))) "stream" evs (decode r);
  let m = Trace.Reader.meta r in
  Alcotest.(check int) "events" 6 m.events;
  Alcotest.(check int) "sites" 3 m.key.n_sites;
  let enc, tak = Trace.Reader.counts r in
  Alcotest.(check (array int)) "encountered" [| 3; 2; 1 |] enc;
  Alcotest.(check (array int)) "taken" [| 1; 2; 1 |] tak

let test_render_pure () =
  let w = mk_writer ~n_sites:2 [ (0, true); (1, false) ] in
  let a = Trace.Writer.render w in
  Alcotest.(check string) "repeatable" a (Trace.Writer.render w);
  (* feeding after a render keeps working: pending runs were copied *)
  Trace.Writer.feed w 0 true;
  Trace.Writer.feed w 0 true;
  Alcotest.(check (list (pair int bool)))
    "continues"
    [ (0, true); (1, false); (0, true); (0, true) ]
    (decode (Trace.Reader.of_string (Trace.Writer.render w)))

let test_single_site_loop () =
  (* the successor model makes a loop nearly free: a long constant run
     must cost only a handful of payload bytes *)
  let evs = List.init 10_000 (fun _ -> (0, true)) in
  let w = mk_writer ~n_sites:1 evs in
  let r = Trace.Reader.of_string (Trace.Writer.render w) in
  Alcotest.(check bool) "tiny payload" true (Trace.Reader.payload_bytes r < 16);
  Alcotest.(check (list (pair int bool))) "stream" evs (decode r)

let test_trailing_garbage () =
  let text = Trace.Writer.render (mk_writer ~n_sites:1 [ (0, true) ]) in
  Alcotest.check_raises "text after end"
    (Sectfile.Bad (0, "trailing lines after end")) (fun () ->
      ignore (Trace.Reader.of_string (text ^ "junk\n")))

(* A bad varint terminator the sections cannot catch: flip the
   continuation bit of the last sites-payload byte and rewrite the
   section with a correct checksum — only the decoder's own validation
   is left to refuse it. *)
let test_bad_varint_terminator () =
  let evs = [ (0, true); (1, false); (2, true); (0, false) ] in
  let text = Trace.Writer.render (mk_writer ~n_sites:3 evs) in
  let lines = Array.to_list (Sectfile.split_lines text) in
  let in_sites = ref false in
  let payload = ref "" in
  List.iter
    (fun l ->
      if String.equal l "sites" then in_sites := true
      else if String.starts_with ~prefix:"endsites" l then in_sites := false
      else if !in_sites then payload := !payload ^ l)
    lines;
  let bytes = Bytes.of_string (Option.get (B64.decode !payload)) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lor 0x80));
  let body = B64.wrap ~width:76 (B64.encode (Bytes.to_string bytes)) in
  let buf = Buffer.create 1024 in
  let in_sites = ref false in
  List.iter
    (fun l ->
      if String.equal l "sites" then begin
        in_sites := true;
        Sectfile.add_section buf ~header:"sites" ~body ~end_tag:"endsites"
      end
      else if String.starts_with ~prefix:"endsites" l then in_sites := false
      else if not !in_sites then Sectfile.add_line buf l)
    (List.filter (fun l -> not (String.equal l "")) lines);
  match decode (Trace.Reader.of_string (Buffer.contents buf)) with
  | exception Sectfile.Bad _ -> ()
  | _ -> Alcotest.fail "dangling continuation bit was accepted"

(* ---------- qcheck: roundtrip and fault corpus ---------- *)

let stream_gen =
  let open Gen in
  let* n_sites = int_range 1 8 in
  let+ evs =
    list_size (int_bound 500) (pair (int_bound (n_sites - 1)) bool)
  in
  (n_sites, evs)

let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"codec roundtrips any stream"
    ~print:(fun (n, evs) -> Printf.sprintf "n_sites=%d [%s]" n (pp_events evs))
    stream_gen
    (fun (n_sites, evs) -> roundtrip ~n_sites evs = evs)

let prop_counts_match =
  QCheck2.Test.make ~count:100 ~name:"replayed counts equal the fed stream"
    ~print:(fun (n, evs) -> Printf.sprintf "n_sites=%d [%s]" n (pp_events evs))
    stream_gen
    (fun (n_sites, evs) ->
      let enc = Array.make n_sites 0 and tak = Array.make n_sites 0 in
      List.iter
        (fun (s, t) ->
          enc.(s) <- enc.(s) + 1;
          if t then tak.(s) <- tak.(s) + 1)
        evs;
      let r =
        Trace.Reader.of_string (Trace.Writer.render (mk_writer ~n_sites evs))
      in
      let enc', tak' = Trace.Reader.counts r in
      enc = enc' && tak = tak')

let prop_never_fabricates =
  QCheck2.Test.make ~count:500
    ~name:"a corrupted trace errors or replays the exact original stream"
    ~print:(fun ((n, evs), ops) ->
      Printf.sprintf "ops=[%s] n_sites=%d [%s]"
        (String.concat "; " (List.map Corrupt.op_name ops))
        n (pp_events evs))
    Gen.(pair stream_gen (list_size (int_range 1 3) Corrupt.op_gen))
    (fun ((n_sites, evs), ops) ->
      let text = Trace.Writer.render (mk_writer ~n_sites evs) in
      let bad = List.fold_left Corrupt.apply_op text ops in
      match Trace.Reader.of_string bad with
      | exception Sectfile.Bad _ -> true
      | r -> decode r = evs)

(* ---------- batched decode: iter_runs vs iter ---------- *)

(* [iter_runs] must replay the same stream as [iter] and honour its
   structural contract: run lengths tile each chunk with maximal
   stretches of identical events, and every period descriptor certifies
   ev.(j) = ev.(j - p) across its stretch from a run head.  Checked at
   a tiny chunk size too, so runs and stretches split by chunk
   boundaries are exercised. *)
let check_runs_contract ~chunk text evs =
  let evs = Array.of_list evs in
  let k = ref 0 and ok = ref true in
  Trace.Reader.iter_runs ~chunk (Trace.Reader.of_string text)
    (fun st tk rl pr n ->
      let ev i = (st.(i), Bytes.get tk i <> '\000') in
      let i = ref 0 in
      while !i < n do
        let l = rl.(!i) in
        if l < 1 || !i + l > n then ok := false
        else begin
          for j = !i + 1 to !i + l - 1 do
            if ev j <> ev !i then ok := false
          done;
          (* maximal: the next run head starts a different event *)
          if !i + l < n && ev (!i + l) = ev !i then ok := false
        end;
        i := !i + max 1 l
      done;
      if !i <> n then ok := false;
      for i = 0 to n - 1 do
        let pd = pr.(i) in
        if pd > 0 then begin
          let p = pd land 0x7f and len = pd lsr 7 in
          if p < 2 || p > 64 || len < 3 * p || i + len > n then ok := false
          else
            for j = i + p to i + len - 1 do
              if ev j <> ev (j - p) then ok := false
            done
        end;
        (if !k >= Array.length evs then ok := false
         else if ev i <> evs.(!k) then ok := false);
        incr k
      done);
  !ok && !k = Array.length evs

let prop_iter_runs_equiv =
  QCheck2.Test.make ~count:300
    ~name:"iter_runs replays iter's stream and meets the runs contract"
    ~print:(fun ((n, evs), chunk) ->
      Printf.sprintf "chunk=%d n_sites=%d [%s]" chunk n (pp_events evs))
    Gen.(pair stream_gen (int_range 1 64))
    (fun ((n_sites, evs), chunk) ->
      let text = Trace.Writer.render (mk_writer ~n_sites evs) in
      check_runs_contract ~chunk text evs
      && check_runs_contract ~chunk:Trace.Reader.default_chunk text evs)

(* periodic streams (the loop shape the fast-forward path exploits)
   deserve their own generator: random streams almost never produce a
   usable stretch, so without this the period machinery goes untested *)
let periodic_gen =
  let open Gen in
  let* n_sites = int_range 1 8 in
  let* body =
    list_size (int_range 1 8) (pair (int_bound (n_sites - 1)) bool)
  in
  let* reps = int_range 3 80 in
  let* prefix =
    list_size (int_bound 20) (pair (int_bound (n_sites - 1)) bool)
  in
  let+ suffix =
    list_size (int_bound 20) (pair (int_bound (n_sites - 1)) bool)
  in
  (n_sites, prefix @ List.concat (List.init reps (fun _ -> body)) @ suffix)

let prop_iter_runs_periodic =
  QCheck2.Test.make ~count:300
    ~name:"iter_runs stays exact on periodic (steady-loop) streams"
    ~print:(fun ((n, evs), chunk) ->
      Printf.sprintf "chunk=%d n_sites=%d [%s]" chunk n (pp_events evs))
    Gen.(pair periodic_gen (int_range 1 64))
    (fun ((n_sites, evs), chunk) ->
      let text = Trace.Writer.render (mk_writer ~n_sites evs) in
      check_runs_contract ~chunk text evs
      && check_runs_contract ~chunk:Trace.Reader.default_chunk text evs)

let prop_iter_runs_never_fabricates =
  QCheck2.Test.make ~count:500
    ~name:"a corrupted trace errors or batch-replays the exact stream"
    ~print:(fun ((n, evs), ops) ->
      Printf.sprintf "ops=[%s] n_sites=%d [%s]"
        (String.concat "; " (List.map Corrupt.op_name ops))
        n (pp_events evs))
    Gen.(pair stream_gen (list_size (int_range 1 3) Corrupt.op_gen))
    (fun ((n_sites, evs), ops) ->
      let text = Trace.Writer.render (mk_writer ~n_sites evs) in
      let bad = List.fold_left Corrupt.apply_op text ops in
      let batch_decode r =
        let out = ref [] in
        Trace.Reader.iter_runs r (fun st tk _ _ n ->
            for i = 0 to n - 1 do
              out := (st.(i), Bytes.get tk i <> '\000') :: !out
            done);
        List.rev !out
      in
      match Trace.Reader.of_string bad with
      | exception Sectfile.Bad _ -> true
      | r -> (
        match batch_decode r with
        | exception Sectfile.Bad _ -> true
        | out -> out = evs))

(* ---------- real-workload compression and faithfulness ---------- *)

let compiled =
  lazy
    (let w = Registry.find "lfk" in
     (w, Fisher92.Study.compile_variant w, List.hd w.Workload.w_datasets))

let test_compression_ratio () =
  let w, ir, d = Lazy.force compiled in
  let wr = Tracing.record ~ir ~program:w.Workload.w_name d in
  let text = Trace.Writer.render wr in
  let events = Trace.Writer.events wr in
  Alcotest.(check bool) "ran long enough" true (events > 10_000);
  (* the issue's bar is < 1 byte/branch for the whole file; the
     successor-model codec beats it by a wide margin on loop code *)
  Alcotest.(check bool)
    (Printf.sprintf "file (%d bytes) under 1 byte/branch (%d events)"
       (String.length text) events)
    true
    (String.length text < events);
  let r = Trace.Reader.of_string text in
  Alcotest.(check bool)
    "payload under 2 bits/branch" true
    (8 * Trace.Reader.payload_bytes r < 2 * events)

let test_replay_faithful () =
  let w, ir, d = Lazy.force compiled in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let schemes =
    [
      Dynamic.Last_direction;
      Dynamic.Two_bit;
      Dynamic.Two_level { history_bits = 10 };
      Dynamic.Gshare { history_bits = 12 };
    ]
  in
  let inline_sims = List.map (fun s -> Dynamic.create s ~n_sites) schemes in
  let wr =
    Trace.Writer.create ~program:w.Workload.w_name ~dataset:d.Workload.ds_name
      ~fingerprint:"f" ~dshash:"h" ~n_sites
  in
  let config =
    {
      Vm.default_config with
      on_branch =
        Some
          (fun site taken ->
            Trace.Writer.feed wr site taken;
            List.iter (fun sim -> Dynamic.hook sim site taken) inline_sims);
    }
  in
  let result = Fisher92.Study.execute ir d ~config () in
  let r = Trace.Reader.of_string (Trace.Writer.render wr) in
  let enc, tak = Trace.Reader.counts r in
  Alcotest.(check (array int))
    "site_encountered reproduced" result.Vm.site_encountered enc;
  Alcotest.(check (array int)) "site_taken reproduced" result.Vm.site_taken tak;
  List.iter2
    (fun scheme inline ->
      let replayed =
        Dynamic.simulate scheme ~n_sites (Trace.Reader.iter r)
      in
      Alcotest.(check int)
        (Dynamic.scheme_name scheme ^ " correct")
        (Dynamic.correct inline) (Dynamic.correct replayed);
      Alcotest.(check int)
        (Dynamic.scheme_name scheme ^ " incorrect")
        (Dynamic.incorrect inline)
        (Dynamic.incorrect replayed);
      Alcotest.(check (array int))
        (Dynamic.scheme_name scheme ^ " per-site")
        (Dynamic.site_correct inline)
        (Dynamic.site_correct replayed))
    schemes inline_sims

(* ---------- store ---------- *)

let key ?(program = "p") ?(dataset = "d") ?(fingerprint = "f0")
    ?(dshash = "h0") ~n_sites () =
  { Store.program; dataset; fingerprint; dshash; n_sites; extra = [] }

let save w = Store.put Trace.kind (Trace.Writer.key w) (Trace.Writer.render w)
let load k = Store.find Trace.kind k Trace.Reader.read

let test_store_roundtrip () =
  let evs = [ (0, true); (1, false); (1, true) ] in
  let w =
    mk_writer ~program:"prog" ~fingerprint:"fp1" ~dshash:"dh1" ~n_sites:2 evs
  in
  save w;
  (match
     load (key ~program:"prog" ~fingerprint:"fp1" ~dshash:"dh1" ~n_sites:2 ())
   with
  | None -> Alcotest.fail "stored trace not found"
  | Some r -> Alcotest.(check (list (pair int bool))) "stream" evs (decode r));
  (* every key component participates in the match *)
  let miss ~program ~dataset ~fingerprint ~dshash ~n_sites what =
    Alcotest.(check bool)
      (what ^ " is a miss") true
      (load (key ~program ~dataset ~fingerprint ~dshash ~n_sites ()) = None)
  in
  miss ~program:"other" ~dataset:"d" ~fingerprint:"fp1" ~dshash:"dh1"
    ~n_sites:2 "program";
  miss ~program:"prog" ~dataset:"x" ~fingerprint:"fp1" ~dshash:"dh1"
    ~n_sites:2 "dataset";
  miss ~program:"prog" ~dataset:"d" ~fingerprint:"fp2" ~dshash:"dh1"
    ~n_sites:2 "fingerprint";
  miss ~program:"prog" ~dataset:"d" ~fingerprint:"fp1" ~dshash:"dh2"
    ~n_sites:2 "dshash";
  miss ~program:"prog" ~dataset:"d" ~fingerprint:"fp1" ~dshash:"dh1"
    ~n_sites:3 "n_sites"

let test_store_damage_is_miss () =
  let w =
    mk_writer ~program:"dmg" ~fingerprint:"fp" ~dshash:"dh" ~n_sites:1
      [ (0, true) ]
  in
  save w;
  let k = key ~program:"dmg" ~fingerprint:"fp" ~dshash:"dh" ~n_sites:1 () in
  let oc = open_out_bin (Store.path Trace.kind k) in
  output_string oc "fisher92trace 1\nnot really\n";
  close_out oc;
  Alcotest.(check bool) "damaged entry is a miss" true (load k = None)

let test_store_disabled () =
  let w =
    mk_writer ~program:"off" ~fingerprint:"fp" ~dshash:"dh" ~n_sites:1
      [ (0, false) ]
  in
  let k = key ~program:"off" ~fingerprint:"fp" ~dshash:"dh" ~n_sites:1 () in
  Unix.putenv "FISHER92_NO_TRACE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "FISHER92_NO_TRACE" "")
    (fun () ->
      Alcotest.(check bool) "disabled" false (Trace.kind.enabled ());
      save w;
      Alcotest.(check bool)
        "no file written" false
        (Sys.file_exists (Store.path Trace.kind k));
      Alcotest.(check bool) "load misses" true (load k = None))

let test_obtain_caches () =
  let w, ir, d = Lazy.force compiled in
  Store.clear Trace.kind;
  let a = Tracing.obtain ~ir ~program:w.Workload.w_name d in
  Alcotest.(check bool) "first obtain captures" false a.Tracing.from_store;
  let b = Tracing.obtain ~ir ~program:w.Workload.w_name d in
  Alcotest.(check bool) "second obtain hits the store" true
    b.Tracing.from_store;
  Alcotest.(check (list (pair int bool)))
    "identical replay" (decode a.Tracing.reader) (decode b.Tracing.reader)

(* ---------- dynamic predictors: cold start, warm reset ---------- *)

let feed sim evs = List.iter (fun (s, t) -> Dynamic.hook sim s t) evs

(* the same short stream, hand-evaluated for every scheme: a cold
   predictor must predict not-taken until its counters train *)
let cold_stream = [ (0, true); (0, true); (0, false); (0, true) ]

let check_cold name scheme ~n_sites ~correct ~incorrect =
  let sim = Dynamic.create scheme ~n_sites in
  feed sim cold_stream;
  Alcotest.(check int) (name ^ " correct") correct (Dynamic.correct sim);
  Alcotest.(check int) (name ^ " incorrect") incorrect (Dynamic.incorrect sim)

let test_cold_start () =
  (* 1-bit: F(w) T(r) T(w) F(w) *)
  check_cold "1-bit" Dynamic.Last_direction ~n_sites:1 ~correct:1 ~incorrect:3;
  (* 2-bit: counter climbs 0,1,2,1 -> predictions F F T F: one right
     (the not-taken event hits the trained counter's blind spot) *)
  check_cold "2-bit" Dynamic.Two_bit ~n_sites:1 ~correct:0 ~incorrect:4;
  (* 2-level h=1: pattern[h] counters are all cold, so F F F F predicted;
     the single not-taken event is the only one predicted right *)
  check_cold "2-level" (Dynamic.Two_level { history_bits = 1 }) ~n_sites:1
    ~correct:1 ~incorrect:3;
  check_cold "gshare"
    (Dynamic.Gshare { history_bits = 1 })
    ~n_sites:1 ~correct:1 ~incorrect:3

let test_gshare_xor_desaliases () =
  (* sites 2 and 1 see the identical global history (TT) but want
     opposite directions: the plain two-level predictor shares that one
     pattern counter and flip-flops on it; gshare's site XOR separates
     the table entries *)
  let evs =
    List.concat
      (List.init 50 (fun _ -> [ (2, true); (0, true); (2, true); (1, false) ]))
  in
  let two_level =
    Dynamic.simulate
      (Dynamic.Two_level { history_bits = 2 })
      ~n_sites:3
      (fun f -> List.iter (fun (s, t) -> f s t) evs)
  in
  let gshare =
    Dynamic.simulate
      (Dynamic.Gshare { history_bits = 2 })
      ~n_sites:3
      (fun f -> List.iter (fun (s, t) -> f s t) evs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "gshare (%d) beats aliased 2-level (%d)"
       (Dynamic.correct gshare) (Dynamic.correct two_level))
    true
    (Dynamic.correct gshare > Dynamic.correct two_level)

let test_reset_counts_keeps_state () =
  let sim = Dynamic.create Dynamic.Last_direction ~n_sites:1 in
  feed sim [ (0, true); (0, true); (0, true) ];
  Alcotest.(check int) "cold misses once" 2 (Dynamic.correct sim);
  Dynamic.reset_counts sim;
  Alcotest.(check int) "tallies cleared" 0
    (Dynamic.correct sim + Dynamic.incorrect sim);
  feed sim [ (0, true); (0, true); (0, true) ];
  Alcotest.(check int) "warm replay is perfect" 3 (Dynamic.correct sim);
  Alcotest.(check int) "no warm misses" 0 (Dynamic.incorrect sim);
  Alcotest.(check (array int)) "per-site tallies follow" [| 3 |]
    (Dynamic.site_correct sim)

(* ---------- run ---------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ( "codec",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "known stream" `Quick test_known_stream;
          Alcotest.test_case "render is pure" `Quick test_render_pure;
          Alcotest.test_case "single-site loop" `Quick test_single_site_loop;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "bad varint terminator" `Quick
            test_bad_varint_terminator;
        ] );
      ("codec-props", q [ prop_roundtrip; prop_counts_match ]);
      ( "batched-decode",
        q [ prop_iter_runs_equiv; prop_iter_runs_periodic ] );
      ( "fault-corpus",
        q [ prop_never_fabricates; prop_iter_runs_never_fabricates ] );
      ( "workload",
        [
          Alcotest.test_case "compression ratio" `Quick test_compression_ratio;
          Alcotest.test_case "replay faithful" `Quick test_replay_faithful;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip and keying" `Quick test_store_roundtrip;
          Alcotest.test_case "damage is a miss" `Quick
            test_store_damage_is_miss;
          Alcotest.test_case "disabled knob" `Quick test_store_disabled;
          Alcotest.test_case "obtain caches" `Quick test_obtain_caches;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "cold start" `Quick test_cold_start;
          Alcotest.test_case "gshare de-aliases" `Quick
            test_gshare_xor_desaliases;
          Alcotest.test_case "reset keeps state" `Quick
            test_reset_counts_keeps_state;
        ] );
    ]
