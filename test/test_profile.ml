module Profile = Fisher92_profile.Profile
module Db = Fisher92_profile.Db
module Directive = Fisher92_profile.Directive
module Sectfile = Fisher92_util.Sectfile
module T = Fisher92_testsupport.Testsupport

let string_contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* byte offset just past the first occurrence of [sub] *)
let index_after s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not found" sub
    else if String.sub s i m = sub then i + m
    else go (i + 1)
  in
  go 0

let mk ?(program = "p") encountered taken =
  {
    Profile.program;
    encountered = Array.of_list encountered;
    taken = Array.of_list taken;
  }

let test_counters () =
  let p = mk [ 10; 0; 4 ] [ 7; 0; 4 ] in
  Alcotest.(check int) "n_sites" 3 (Profile.n_sites p);
  Alcotest.(check int) "total" 14 (Profile.total_branches p);
  Alcotest.(check int) "taken" 11 (Profile.total_taken p);
  Alcotest.(check int) "covered" 2 (Profile.covered_sites p);
  Alcotest.(check (float 1e-9)) "pct taken" (100.0 *. 11.0 /. 14.0)
    (Profile.percent_taken p)

let test_majority () =
  let p = mk [ 10; 0; 4; 6 ] [ 7; 0; 2; 2 ] in
  Alcotest.(check (option bool)) "mostly taken" (Some true)
    (Profile.majority_taken p 0);
  Alcotest.(check (option bool)) "never seen" None (Profile.majority_taken p 1);
  Alcotest.(check (option bool)) "tie is taken" (Some true)
    (Profile.majority_taken p 2);
  Alcotest.(check (option bool)) "mostly not" (Some false)
    (Profile.majority_taken p 3)

let test_add () =
  let a = mk [ 1; 2 ] [ 1; 0 ] and b = mk [ 3; 4 ] [ 0; 4 ] in
  let c = Profile.add a b in
  Alcotest.(check (array int)) "enc" [| 4; 6 |] c.encountered;
  Alcotest.(check (array int)) "taken" [| 1; 4 |] c.taken;
  Alcotest.check_raises "program mismatch"
    (Invalid_argument "Profile: incompatible profiles (p/2 vs q/2)") (fun () ->
      ignore (Profile.add a (mk ~program:"q" [ 0; 0 ] [ 0; 0 ])))

let test_mispredicts () =
  let p = mk [ 10; 6 ] [ 7; 1 ] in
  Alcotest.(check int) "taken,taken" (3 + 5)
    (Profile.mispredicts ~prediction:[| true; true |] p);
  Alcotest.(check int) "best" (3 + 1) (Profile.best_mispredicts p);
  (* the majority prediction achieves the floor *)
  let best = [| true; false |] in
  Alcotest.(check int) "majority = floor" (Profile.best_mispredicts p)
    (Profile.mispredicts ~prediction:best p)

let test_of_run () =
  let ir = T.compile T.sample_program in
  let r = T.run_vm ~iargs:[ 6 ] ir in
  let p = Profile.of_run ~program:"sample" r in
  Alcotest.(check int) "branch totals agree"
    (Fisher92_vm.Vm.conditional_branches r)
    (Profile.total_branches p)

(* ---- database ---- *)

let test_db_accumulate () =
  let db = Db.create ~program:"p" ~n_sites:2 in
  Db.record db ~dataset:"a" (mk [ 4; 0 ] [ 4; 0 ]);
  Db.record db ~dataset:"b" (mk [ 0; 6 ] [ 0; 1 ]);
  Db.record db ~dataset:"a" (mk [ 2; 2 ] [ 0; 2 ]);
  Alcotest.(check (list string)) "datasets" [ "a"; "b" ] (Db.datasets db);
  let a = Db.profile db ~dataset:"a" in
  Alcotest.(check (array int)) "a accumulates" [| 6; 2 |] a.encountered;
  let total = Db.accumulated db in
  Alcotest.(check (array int)) "sum" [| 6; 8 |] total.encountered;
  (match Db.accumulated_except db ~dataset:"a" with
  | Some p -> Alcotest.(check (array int)) "except a" [| 0; 6 |] p.encountered
  | None -> Alcotest.fail "expected a remainder");
  Alcotest.(check bool) "except only dataset" true
    (let db1 = Db.create ~program:"p" ~n_sites:1 in
     Db.record db1 ~dataset:"only" (mk [ 1 ] [ 1 ]);
     Db.accumulated_except db1 ~dataset:"only" = None)

let test_db_roundtrip () =
  let db = Db.create ~program:"prog-x" ~n_sites:5 in
  Db.record db ~dataset:"first run"
    (mk ~program:"prog-x" [ 4; 0; 9; 0; 2 ] [ 1; 0; 9; 0; 0 ]);
  Db.record db ~dataset:"second"
    (mk ~program:"prog-x" [ 0; 3; 0; 0; 7 ] [ 0; 2; 0; 0; 7 ]);
  let text = Db.save db in
  let back = Db.load text in
  Alcotest.(check string) "program" "prog-x" (Db.program back);
  Alcotest.(check (list string)) "datasets" [ "first run"; "second" ]
    (Db.datasets back);
  List.iter
    (fun d ->
      let a = Db.profile db ~dataset:d and b = Db.profile back ~dataset:d in
      Alcotest.(check (array int)) (d ^ " enc") a.encountered b.encountered;
      Alcotest.(check (array int)) (d ^ " taken") a.taken b.taken)
    (Db.datasets db)

let test_db_file_roundtrip () =
  let db = Db.create ~program:"pf" ~n_sites:3 in
  Db.record db ~dataset:"a" (mk ~program:"pf" [ 1; 2; 3 ] [ 0; 2; 1 ]);
  let path = Filename.temp_file "fisher92db" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Db.save_file db path;
      let back = Db.load_file path in
      Alcotest.(check (list string)) "datasets survive" [ "a" ]
        (Db.datasets back);
      let a = Db.profile back ~dataset:"a" in
      Alcotest.(check (array int)) "counts survive" [| 1; 2; 3 |] a.encountered)

(* Database texts built section by section, each with a valid
   checksum, so a text carries only the defect a test writes into it.
   [meta ()] spans lines 2-5 after the "ifprobdb2" line. *)
let section header end_tag body =
  let buf = Buffer.create 64 in
  Sectfile.add_section buf ~header ~body ~end_tag;
  Buffer.contents buf

let meta ?(sites = "2") () =
  section "meta" "endmeta" [ "program 1 p"; "sites " ^ sites ]

let dataset name body =
  section ("dataset " ^ Sectfile.sized name) "enddataset" body

let sitemap = section "sitemap" "endsitemap" [ "0 2 k0"; "1 2 k1" ]

let test_db_load_rejects_garbage () =
  List.iter
    (fun text ->
      match Db.load text with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [
      "";
      "nonsense";
      "ifprobdb p 2\ndataset 1 a\n0 1 1\nend\n" (* the retired v1 format *);
      "ifprobdb2\n" ^ meta ~sites:"notanumber" () ^ "end\n";
      "ifprobdb2\n" ^ meta () ^ "5 3 1\nend\n" (* counts outside a dataset *);
      "ifprobdb2\n" ^ meta () ^ dataset "a" [ "0 1 2" ] ^ "end\n"
      (* taken > encountered *);
      "ifprobdb2\n" ^ meta () ^ dataset "a" [ "0 1 1" ] (* missing end *);
    ]

let test_db_load_oversized_length () =
  (* a dataset length that overruns its line used to escape as
     Invalid_argument from String.sub; it must be a proper Failure *)
  List.iter
    (fun text ->
      match Db.load text with
      | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names a line" msg)
          true
          (string_contains ~sub:"line 6" msg)
      | exception e ->
        Alcotest.failf "expected Failure, got %s" (Printexc.to_string e)
      | _ -> Alcotest.failf "accepted %S" text)
    (List.map
       (fun header ->
         "ifprobdb2\n" ^ meta () ^ section header "enddataset" [ "0 1 1" ]
         ^ "end\n")
       [ "dataset 99 a"; "dataset -3 a"; "dataset 1 abc" (* trailing bytes *) ])

let test_db_load_line_numbers () =
  List.iter
    (fun (text, want) ->
      match Db.load text with
      | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" msg want)
          true
          (string_contains ~sub:want msg)
      | _ -> Alcotest.failf "accepted %S" text)
    [
      ( "ifprobdb2\n" ^ meta ()
        ^ dataset "a" [ "0 1 1"; "bogus counter" ]
        ^ "end\n",
        "line 8" );
      ("ifprobdb2\n" ^ meta () ^ dataset "a" [ "5 1 1" ] ^ "end\n", "line 7");
      ("ifprobdb2\n" ^ meta ~sites:"notanumber" () ^ "end\n", "line 4");
    ]

let test_db_v2_identity_roundtrip () =
  let db = Db.create ~program:"px" ~n_sites:2 in
  Db.record db ~dataset:"a" (mk ~program:"px" [ 3; 4 ] [ 1; 4 ]);
  Db.set_identity db ~fingerprint:"00deadbeef00cafe"
    ~sitekeys:[| "f|if|eq|L0|F|#0|D1"; "f|while|lt|L1|B|#0|D2" |];
  let back = Db.load (Db.save db) in
  Alcotest.(check (option string)) "fingerprint survives"
    (Some "00deadbeef00cafe") (Db.fingerprint back);
  (match Db.sitekeys back with
  | Some keys ->
    Alcotest.(check (array string)) "sitekeys survive"
      [| "f|if|eq|L0|F|#0|D1"; "f|while|lt|L1|B|#0|D2" |] keys
  | None -> Alcotest.fail "sitekeys lost");
  (* save . load is the identity on saved text *)
  let text = Db.save db in
  Alcotest.(check string) "resave = same bytes" text (Db.save (Db.load text))

let test_db_lenient_drops_only_damage () =
  let db = Db.create ~program:"px" ~n_sites:2 in
  Db.set_identity db ~fingerprint:"00deadbeef00cafe" ~sitekeys:[| "k0"; "k1" |];
  Db.record db ~dataset:"a" (mk ~program:"px" [ 3; 4 ] [ 1; 4 ]);
  Db.record db ~dataset:"b" (mk ~program:"px" [ 9; 0 ] [ 2; 0 ]);
  Db.record db ~dataset:"c" (mk ~program:"px" [ 1; 1 ] [ 1; 0 ]);
  let text = Db.save db in
  (* flip one digit inside dataset b's counter block *)
  let i = index_after text "dataset 1 b" in
  let broken = Bytes.of_string text in
  Bytes.set broken (i + String.length "dataset 1 b\n0 ") 'X';
  let loaded, report = Db.load_lenient (Bytes.to_string broken) in
  Alcotest.(check (list string)) "a and c survive" [ "a"; "c" ]
    (Db.datasets loaded);
  Alcotest.(check bool) "not clean" false (Db.clean report);
  Alcotest.(check int) "one drop" 1 (List.length report.Db.r_dropped);
  Alcotest.(check (option string)) "fingerprint kept (meta untouched)"
    (Some "00deadbeef00cafe") (Db.fingerprint loaded)

let test_db_lenient_distrusts_damaged_meta () =
  let db = Db.create ~program:"px" ~n_sites:1 in
  Db.set_identity db ~fingerprint:"00deadbeef00cafe" ~sitekeys:[| "k0" |];
  Db.record db ~dataset:"a" (mk ~program:"px" [ 3 ] [ 1 ]);
  let text = Db.save db in
  (* corrupt one fingerprint digit: meta checksum now fails, and the
     damaged fingerprint must not be trusted as a freshness witness *)
  let i = index_after text "fingerprint " in
  let broken = Bytes.of_string text in
  Bytes.set broken i (if text.[i] = '0' then '1' else '0');
  let loaded, report = Db.load_lenient (Bytes.to_string broken) in
  Alcotest.(check (option string)) "fingerprint distrusted" None
    (Db.fingerprint loaded);
  Alcotest.(check bool) "meta flagged" false report.Db.r_meta_ok;
  (* the site count still parsed, so intact datasets are still salvaged *)
  Alcotest.(check (list string)) "dataset salvaged" [ "a" ]
    (Db.datasets loaded)

(* Strict load is salvage plus [clean]: it fails, naming line N,
   exactly when the salvage report's first issue is at line N.  The
   inputs are the shapes a random fault rarely makes: a file cut before
   its final "end", and sections out of the order [save] writes. *)
let test_db_load_agrees_with_salvage () =
  let a = dataset "a" [ "0 3 1" ] and b = dataset "b" [ "1 9 2" ] in
  let a' = dataset "a" [ "0 5 5" ] in
  List.iter
    (fun (what, text, want) ->
      let db, report = Db.load_lenient text in
      let got =
        match Db.load text with
        | _ -> None
        | exception Failure msg -> Some msg
      in
      let expected =
        match report.Db.r_dropped with
        | [] -> None
        | i :: _ ->
          Some (Printf.sprintf "Db.load: line %d: %s" i.Db.i_line i.Db.i_reason)
      in
      Alcotest.(check (option string)) (what ^ ": load = salvage") expected got;
      Alcotest.(check (option int))
        (what ^ ": first issue")
        want
        (Option.map (fun i -> i.Db.i_line) (List.nth_opt report.r_dropped 0));
      Alcotest.(check (list string)) (what ^ ": nothing dropped") [ "a"; "b" ]
        (Db.datasets db);
      Alcotest.(check bool) (what ^ ": sitemap kept") true
        (Db.sitekeys db = Some [| "k0"; "k1" |]);
      Alcotest.(check (array int)) (what ^ ": first a kept") [| 3; 0 |]
        (Db.profile db ~dataset:"a").encountered)
    [
      ("intact", "ifprobdb2\n" ^ meta () ^ sitemap ^ a ^ b ^ "end\n", None);
      ("no final end", "ifprobdb2\n" ^ meta () ^ sitemap ^ a ^ b, Some 16);
      ( "sitemap before meta",
        "ifprobdb2\n" ^ sitemap ^ meta () ^ a ^ b ^ "end\n",
        Some 2 );
      ( "sitemap after a dataset",
        "ifprobdb2\n" ^ meta () ^ a ^ sitemap ^ b ^ "end\n",
        Some 9 );
      ( "duplicated dataset",
        "ifprobdb2\n" ^ meta () ^ sitemap ^ a ^ b ^ a' ^ "end\n",
        Some 16 );
    ]

let test_db_committed_samples_load () =
  (* the v2 fixture CI smoke-checks must keep strict-loading; the v1
     one is the fixture of a format no longer read *)
  (match Db.load_file "data/sample_v1.db" with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names line 1" msg)
      true
      (string_contains ~sub:"line 1:" msg)
  | _ -> Alcotest.fail "v1 fixture accepted");
  let _, v1 = Db.load_lenient (Sectfile.read_file "data/sample_v1.db") in
  Alcotest.(check int) "v1 is no version" 0 v1.Db.r_version;
  Alcotest.(check (list string)) "v1 salvages nothing" [] v1.Db.r_recovered;
  let v2 = Db.load_file "data/sample_v2.db" in
  Alcotest.(check string) "v2 program" "compress" (Db.program v2);
  Alcotest.(check bool) "v2 fingerprinted" true (Db.fingerprint v2 <> None);
  Alcotest.(check int) "v2 datasets" 5 (List.length (Db.datasets v2));
  (* and resaving the committed v2 fixture is the identity *)
  let text = Db.save v2 in
  let ic = open_in_bin "data/sample_v2.db" in
  let disk = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "fixture is canonical v2 bytes" disk text

(* ---- directives ---- *)

let test_directive_roundtrip () =
  let d = { Directive.d_label = "gcd#2:while"; d_taken = 123; d_not_taken = 4 } in
  let line = Directive.render d in
  Alcotest.(check (option (triple string int int)))
    "parse inverse"
    (Some (d.d_label, d.d_taken, d.d_not_taken))
    (Option.map
       (fun (p : Directive.t) -> (p.d_label, p.d_taken, p.d_not_taken))
       (Directive.parse line))

let test_directive_parse_rejects () =
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (Directive.parse line = None))
    [
      "";
      "IFPROB (1, 2)";
      "!MF! IFPROB \"x\" (1)";
      "!MF! IFPROB \"x\" (a, b)";
      "!MF! IFPROB \"x\" (-1, 2)";
    ]

let test_directives_of_profile () =
  let ir = T.compile T.sample_program in
  let r = T.run_vm ~iargs:[ 6 ] ir in
  let p = Profile.of_run ~program:"sample" r in
  let ds = Directive.of_profile ir p in
  Alcotest.(check bool) "one directive per covered site" true
    (List.length ds = Profile.covered_sites p);
  (* rendering then parsing every line preserves the counts *)
  let text = Directive.render_all ds in
  let back = Directive.parse_all text in
  Alcotest.(check int) "all lines parse" (List.length ds) (List.length back);
  List.iter2
    (fun (a : Directive.t) (b : Directive.t) ->
      Alcotest.(check string) "label" a.d_label b.d_label;
      Alcotest.(check int) "taken" a.d_taken b.d_taken;
      Alcotest.(check int) "not taken" a.d_not_taken b.d_not_taken)
    ds back;
  List.iter
    (fun (d : Directive.t) ->
      let pr = Directive.probability_taken d in
      if pr < 0.0 || pr > 1.0 then Alcotest.fail "probability out of range")
    ds

let () =
  Alcotest.run "profile"
    [
      ( "profile",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "mispredicts" `Quick test_mispredicts;
          Alcotest.test_case "of_run" `Quick test_of_run;
        ] );
      ( "db",
        [
          Alcotest.test_case "accumulate" `Quick test_db_accumulate;
          Alcotest.test_case "save/load roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_db_file_roundtrip;
          Alcotest.test_case "load rejects garbage" `Quick
            test_db_load_rejects_garbage;
          Alcotest.test_case "oversized length is Failure" `Quick
            test_db_load_oversized_length;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_db_load_line_numbers;
          Alcotest.test_case "v2 identity roundtrip" `Quick
            test_db_v2_identity_roundtrip;
          Alcotest.test_case "lenient drops only damage" `Quick
            test_db_lenient_drops_only_damage;
          Alcotest.test_case "lenient distrusts damaged meta" `Quick
            test_db_lenient_distrusts_damaged_meta;
          Alcotest.test_case "load fails iff salvage reports an issue" `Quick
            test_db_load_agrees_with_salvage;
          Alcotest.test_case "committed samples load" `Quick
            test_db_committed_samples_load;
        ] );
      ( "directive",
        [
          Alcotest.test_case "roundtrip" `Quick test_directive_roundtrip;
          Alcotest.test_case "parse rejects" `Quick test_directive_parse_rejects;
          Alcotest.test_case "of_profile" `Quick test_directives_of_profile;
        ] );
    ]
