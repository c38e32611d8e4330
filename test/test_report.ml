module Table = Fisher92_report.Table
module Chart = Fisher92_report.Chart

let contains ~needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_contains text needles =
  List.iter
    (fun needle ->
      if not (contains ~needle text) then
        Alcotest.failf "missing %S in:\n%s" needle text)
    needles

(* ---- number formatting ---- *)

let test_inum () =
  Alcotest.(check string) "small" "7" (Table.inum 7);
  Alcotest.(check string) "hundreds" "123" (Table.inum 123);
  Alcotest.(check string) "thousands" "1,234" (Table.inum 1234);
  Alcotest.(check string) "millions" "12,345,678" (Table.inum 12345678);
  Alcotest.(check string) "negative" "-1,234" (Table.inum (-1234));
  Alcotest.(check string) "zero" "0" (Table.inum 0)

let test_fnum () =
  Alcotest.(check string) "one decimal" "3.5" (Table.fnum 3.5);
  Alcotest.(check string) "decimals" "3.46" (Table.fnum ~decimals:2 3.456);
  Alcotest.(check string) "large" "12,346" (Table.fnum 12345.6);
  Alcotest.(check string) "infinity" "inf" (Table.fnum infinity);
  Alcotest.(check string) "nan" "nan" (Table.fnum Float.nan)

let test_pct () = Alcotest.(check string) "pct" "83.4%" (Table.pct 83.42)

(* ---- table rendering ---- *)

let test_table_alignment () =
  let text =
    Table.render ~header:[ "NAME"; "VALUE" ]
      [ [ "alpha"; "1" ]; [ "b"; "12,345" ] ]
  in
  check_contains text [ "NAME"; "VALUE"; "alpha"; "12,345"; "----" ];
  (* columns aligned: every line has the same position for column 2 *)
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "line count (header, rule, 2 rows, trailing)" 5
    (List.length lines)

let test_table_numeric_right_aligned () =
  let text = Table.render ~header:[ "K"; "N" ] [ [ "x"; "7" ]; [ "y"; "123" ] ] in
  (* the numeric column is right-aligned: "  7" under "123" *)
  let lines = String.split_on_char '\n' text in
  let row_x = List.nth lines 2 and row_y = List.nth lines 3 in
  Alcotest.(check int) "same width" (String.length row_y) (String.length row_x)

(* One column spec, two sinks: one-sided columns drop out of the other
   sink, and each cell prints its own way in each. *)
let test_table_columns () =
  let columns =
    Table.
      [
        col "NAME" "name" (fun (n, _, _) -> Str n);
        col "N" "n" (fun (_, k, _) -> Count k);
        tsv_col "raw" (fun (_, _, x) -> Num (1, x));
        col "SHARE" "share" (fun (_, _, x) -> Pct x);
        text_col "OK" (fun (_, k, _) ->
            if k > 0 then Split ("yes", "true") else Split ("NO", "false"));
        col "FIRST" "first" (fun (n, k, _) ->
            if k > 0 then Str n else hide (Str n));
      ]
  in
  let rows = [ ("alpha", 12345, 83.4219); ("b", 0, 0.5) ] in
  Alcotest.(check string) "text"
    (Table.render
       ~header:[ "NAME"; "N"; "SHARE"; "OK"; "FIRST" ]
       [
         [ "alpha"; "12,345"; "83.4%"; "yes"; "alpha" ];
         [ "b"; "0"; "0.5%"; "NO"; "" ];
       ])
    (Table.text columns rows);
  Alcotest.(check string) "tsv"
    "name\tn\traw\tshare\tfirst\n\
     alpha\t12345\t83.4219\t83.4219\talpha\n\
     b\t0\t0.5\t0.5\tb\n"
    (Table.tsv columns rows)

(* ---- charts ---- *)

let test_chart_basic () =
  let text =
    Chart.grouped ~title:"T" ~unit_label:"units"
      [
        ("first", [ { Chart.s_name = "a"; s_value = 10.0 };
                    { Chart.s_name = "b"; s_value = 5.0 } ]);
        ("second", [ { Chart.s_name = "a"; s_value = 2.5 } ]);
      ]
  in
  check_contains text [ "T"; "first"; "second"; "units"; "10.0"; "2.5"; "#" ]

let test_chart_scaling () =
  let text =
    Chart.grouped ~width:10 ~title:"S" ~unit_label:"u"
      [
        ("max", [ { Chart.s_name = "v"; s_value = 100.0 } ]);
        ("half", [ { Chart.s_name = "v"; s_value = 50.0 } ]);
      ]
  in
  check_contains text [ "##########"; "#####" ];
  (* the half bar must not be full *)
  let lines = String.split_on_char '\n' text in
  let half_line = List.find (fun l -> contains ~needle:"half" l) lines in
  Alcotest.(check bool) "half bar shorter" true
    (not (contains ~needle:"##########" half_line))

let test_chart_infinity () =
  let text =
    Chart.grouped ~width:8 ~title:"I" ~unit_label:"u"
      [ ("x", [ { Chart.s_name = "v"; s_value = infinity } ]) ]
  in
  check_contains text [ "########"; "inf" ]

let test_chart_empty_items () =
  let text = Chart.grouped ~title:"E" ~unit_label:"u" [] in
  check_contains text [ "E"; "u" ]

(* ---- MiniC pretty printer ---- *)

let test_pp_expr () =
  let open Fisher92_minic.Dsl in
  Alcotest.(check string) "arith" "((x + 1) * @g)"
    (Fisher92_minic.Pp.expr_to_string ((v "x" +: i 1) *: g "g"));
  Alcotest.(check string) "cmp" "(x < 3)"
    (Fisher92_minic.Pp.expr_to_string (v "x" <: i 3));
  Alcotest.(check string) "load" "a[(k & 7)]"
    (Fisher92_minic.Pp.expr_to_string (ld "a" (band (v "k") (i 7))));
  Alcotest.(check string) "call" "f(1, x)"
    (Fisher92_minic.Pp.expr_to_string (call "f" [ i 1; v "x" ]))

let test_pp_program () =
  let text =
    Fisher92_minic.Pp.program_to_string
      Fisher92_testsupport.Testsupport.sample_program
  in
  check_contains text
    [ "// program sample"; "int @counter = 0;"; "int data[32]"; "while"; "switch" ]

let () =
  Alcotest.run "report"
    [
      ( "format",
        [
          Alcotest.test_case "inum" `Quick test_inum;
          Alcotest.test_case "fnum" `Quick test_fnum;
          Alcotest.test_case "pct" `Quick test_pct;
        ] );
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "numeric right-aligned" `Quick
            test_table_numeric_right_aligned;
          Alcotest.test_case "column spec" `Quick test_table_columns;
        ] );
      ( "chart",
        [
          Alcotest.test_case "basic" `Quick test_chart_basic;
          Alcotest.test_case "scaling" `Quick test_chart_scaling;
          Alcotest.test_case "infinity" `Quick test_chart_infinity;
          Alcotest.test_case "empty" `Quick test_chart_empty_items;
        ] );
      ( "minic-pp",
        [
          Alcotest.test_case "expressions" `Quick test_pp_expr;
          Alcotest.test_case "program" `Quick test_pp_program;
        ] );
    ]
