(* 013.spice2g6 analogue: a nodal circuit simulator.

   spice is the paper's problem child: "very difficult to predict ...
   different datasets using entirely different modules of the simulator".
   We reproduce exactly that structure.  The simulator has separable
   modules — netlist scan, linear stamping, Gaussian elimination, Newton
   iteration with a diode/BJT exponential model, a square-law FET model
   with region-selection branches, and a transient loop with capacitor
   companion models — and the datasets hit different subsets:

   - circuit1..circuit5: linear resistive networks, DC solve only
     (circuit2 deliberately runs orders of magnitude shorter than
     greybig, reproducing the paper's footnote 3);
   - add_bjt / add_fet: nonlinear DC sweeps through the BJT or FET model
     (each leaves the other's device code completely cold);
   - greysmall / greybig: long RC transient runs, small vs large step
     counts (the SPEC greycode counter pair).

   Element encoding (per element k):
     etype: 0 resistor, 1 voltage source (Norton, big G), 2 current
            source, 3 capacitor, 4 diode/BJT junction, 5 FET
     enode1/enode2: terminal nodes (0 = ground)
     evalue: R ohms / V volts / I amps / C farads / saturation scale /
             transconductance *)

open Fisher92_minic.Dsl
module Rng = Fisher92_util.Rng

let max_nodes = 24
let max_elems = 96
let big_g = 1000000.0

let program =
  program "spice" ~entry:"main"
    ~globals:
      [
        gint "n_nodes" 0;
        gint "n_elems" 0;
        gint "mode" 0;  (* 0 = dc, 1 = transient, 2 = dc sweep *)
        gint "tsteps" 0;
        gfloat "dt" 0.001;
        gint "sweep_points" 0;
        gfloat "vt" 0.026;
      ]
    ~arrays:
      [
        iarr "etype" max_elems;
        iarr "enode1" max_elems;
        iarr "enode2" max_elems;
        farr "evalue" max_elems;
        farr "estate" max_elems;  (* per-element memory: cap voltage, device guess *)
        farr "gmat" (max_nodes * max_nodes);
        farr "rhs" max_nodes;
        farr "volt" max_nodes;
        farr "sweep_scale" 1;
      ]
    [
      (* ---- matrix helpers ---- *)
      fn "clear_system" []
        [
          leti "nn" (g "n_nodes");
          for_ "r" (i 0) (v "nn")
            [
              st "rhs" (v "r") (fl 0.0);
              for_ "c" (i 0) (v "nn") [ st "gmat" ((v "r" *: i max_nodes) +: v "c") (fl 0.0) ];
            ];
        ];
      fn "stamp_conductance" [ pi "a"; pi "b"; pf "gval" ]
        [
          leti "ai" (v "a" -: i 1);
          leti "bi" (v "b" -: i 1);
          when_ (v "a" >: i 0)
            [
              st "gmat" ((v "ai" *: i max_nodes) +: v "ai")
                (ld "gmat" ((v "ai" *: i max_nodes) +: v "ai") +: v "gval");
            ];
          when_ (v "b" >: i 0)
            [
              st "gmat" ((v "bi" *: i max_nodes) +: v "bi")
                (ld "gmat" ((v "bi" *: i max_nodes) +: v "bi") +: v "gval");
            ];
          when_ ((v "a" >: i 0) &&: (v "b" >: i 0))
            [
              st "gmat" ((v "ai" *: i max_nodes) +: v "bi")
                (ld "gmat" ((v "ai" *: i max_nodes) +: v "bi") -: v "gval");
              st "gmat" ((v "bi" *: i max_nodes) +: v "ai")
                (ld "gmat" ((v "bi" *: i max_nodes) +: v "ai") -: v "gval");
            ];
        ];
      fn "stamp_current" [ pi "a"; pi "b"; pf "amps" ]
        [
          when_ (v "a" >: i 0)
            [ st "rhs" (v "a" -: i 1) (ld "rhs" (v "a" -: i 1) +: v "amps") ];
          when_ (v "b" >: i 0)
            [ st "rhs" (v "b" -: i 1) (ld "rhs" (v "b" -: i 1) -: v "amps") ];
        ];
      fn "node_voltage" [ pi "node" ] ~ret:Fisher92_minic.Ast.Tfloat
        [
          if_ (v "node" =: i 0) [ ret (fl 0.0) ]
            [ ret (ld "volt" (v "node" -: i 1)) ];
        ];
      (* ---- linear element stamping (switch = multi-way branch) ---- *)
      fn "stamp_linear" []
        [
          leti "ne" (g "n_elems");
          letf "scale" (ld "sweep_scale" (i 0));
          for_ "k" (i 0) (v "ne")
            [
              leti "a" (ld "enode1" (v "k"));
              leti "b" (ld "enode2" (v "k"));
              letf "val" (ld "evalue" (v "k"));
              switch_ (ld "etype" (v "k"))
                [
                  case 0
                    [ expr_ (call "stamp_conductance" [ v "a"; v "b"; fl 1.0 /: v "val" ]) ];
                  case 1
                    [
                      (* voltage source as a stiff Norton equivalent *)
                      expr_ (call "stamp_conductance" [ v "a"; v "b"; fl big_g ]);
                      expr_
                        (call "stamp_current"
                           [ v "a"; v "b"; v "val" *: v "scale" *: fl big_g ]);
                    ];
                  case 2
                    [ expr_ (call "stamp_current" [ v "a"; v "b"; v "val" *: v "scale" ]) ];
                ]
                [];
            ];
        ];
      (* ---- capacitor companion models (backward Euler) ---- *)
      fn "stamp_caps" []
        [
          leti "ne" (g "n_elems");
          letf "step" (g "dt");
          for_ "k" (i 0) (v "ne")
            [
              when_ (ld "etype" (v "k") =: i 3)
                [
                  letf "geq" (ld "evalue" (v "k") /: v "step");
                  leti "a" (ld "enode1" (v "k"));
                  leti "b" (ld "enode2" (v "k"));
                  expr_ (call "stamp_conductance" [ v "a"; v "b"; v "geq" ]);
                  expr_
                    (call "stamp_current"
                       [ v "a"; v "b"; v "geq" *: ld "estate" (v "k") ]);
                ];
            ];
        ];
      (* ---- nonlinear device linearization (Newton) ---- *)
      fn "stamp_bjt" [ pi "k" ]
        [
          leti "a" (ld "enode1" (v "k"));
          leti "b" (ld "enode2" (v "k"));
          letf "vguess" (ld "estate" (v "k"));
          letf "sat" (ld "evalue" (v "k"));
          (* junction limiting, like spice's pnjlim *)
          when_ (v "vguess" >: fl 0.8) [ set "vguess" (fl 0.8) ];
          when_ (v "vguess" <: fl (-2.0)) [ set "vguess" (fl (-2.0)) ];
          letf "expo" (exp_ (v "vguess" /: g "vt"));
          letf "gd" (v "sat" *: v "expo" /: g "vt");
          letf "id" ((v "sat" *: (v "expo" -: fl 1.0)) -: (v "gd" *: v "vguess"));
          expr_ (call "stamp_conductance" [ v "a"; v "b"; v "gd" +: fl 0.000000001 ]);
          expr_ (call "stamp_current" [ v "a"; v "b"; neg (v "id") ]);
        ];
      fn "stamp_fet" [ pi "k" ]
        [
          leti "a" (ld "enode1" (v "k"));
          leti "b" (ld "enode2" (v "k"));
          letf "vgs" (ld "estate" (v "k"));
          letf "beta" (ld "evalue" (v "k"));
          letf "vth" (fl 0.7);
          (* region selection: cutoff / linear-ish / saturation.  The
             declarations carry the cutoff values so the conducting
             regions are the guarded path. *)
          letf "gm" (fl 0.0000001);
          letf "id0" (fl 0.0);
          when_ (v "vgs" >: v "vth")
            [
              letf "vov" (v "vgs" -: v "vth");
              if_ (v "vov" <: fl 0.4)
                [
                  (* near-threshold: quadratic *)
                  set "gm" (v "beta" *: v "vov");
                  set "id0"
                    ((v "beta" *: fl 0.5 *: v "vov" *: v "vov")
                    -: (v "gm" *: v "vgs"));
                ]
                [
                  (* strong inversion: linearized square law *)
                  set "gm" (v "beta" *: fl 0.4);
                  set "id0"
                    ((v "beta" *: fl 0.4 *: (v "vov" -: fl 0.2)) -: (v "gm" *: v "vgs"));
                ];
            ];
          expr_ (call "stamp_conductance" [ v "a"; v "b"; v "gm" +: fl 0.000000001 ]);
          expr_ (call "stamp_current" [ v "a"; v "b"; neg (v "id0") ]);
        ];
      fn "stamp_devices" [] ~ret:Fisher92_minic.Ast.Tint
        [
          leti "ne" (g "n_elems");
          leti "count" (i 0);
          for_ "k" (i 0) (v "ne")
            [
              switch_ (ld "etype" (v "k"))
                [
                  case 4 [ expr_ (call "stamp_bjt" [ v "k" ]); incr_ "count" ];
                  case 5 [ expr_ (call "stamp_fet" [ v "k" ]); incr_ "count" ];
                ]
                [];
            ];
          ret (v "count");
        ];
      (* ---- Gaussian elimination with partial-pivot-ish guard ---- *)
      fn "gauss_solve" []
        [
          leti "nn" (g "n_nodes");
          letf "dead_cond" (fl 0.0);
          for_ "p" (i 0) (v "nn" -: i 1)
            [
              letf "pivot" (ld "gmat" ((v "p" *: i max_nodes) +: v "p"));
              set "dead_cond" (v "dead_cond" +: abs_ (v "pivot"));
              when_ (abs_ (v "pivot") <: fl 0.000000000001)
                [
                  st "gmat" ((v "p" *: i max_nodes) +: v "p") (fl 0.000000000001);
                  set "pivot" (fl 0.000000000001);
                ];
              for_ "r" (v "p" +: i 1) (v "nn")
                [
                  letf "factor" (ld "gmat" ((v "r" *: i max_nodes) +: v "p") /: v "pivot");
                  when_ (abs_ (v "factor") >: fl 0.0)
                    [
                      for_ "c" (v "p") (v "nn")
                        [
                          st "gmat" ((v "r" *: i max_nodes) +: v "c")
                            (ld "gmat" ((v "r" *: i max_nodes) +: v "c")
                            -: (v "factor" *: ld "gmat" ((v "p" *: i max_nodes) +: v "c")));
                        ];
                      st "rhs" (v "r")
                        (ld "rhs" (v "r") -: (v "factor" *: ld "rhs" (v "p")));
                    ];
                ];
            ];
          leti "rr" (v "nn" -: i 1);
          while_ (v "rr" >=: i 0)
            [
              letf "acc" (ld "rhs" (v "rr"));
              for_ "c" (v "rr" +: i 1) (v "nn")
                [
                  set "acc"
                    (v "acc" -: (ld "gmat" ((v "rr" *: i max_nodes) +: v "c") *: ld "volt" (v "c")));
                ];
              st "volt" (v "rr")
                (v "acc" /: ld "gmat" ((v "rr" *: i max_nodes) +: v "rr"));
              set "rr" (v "rr" -: i 1);
            ];
        ];
      (* ---- one operating-point solve (Newton when devices exist) ---- *)
      fn "solve_point" [] ~ret:Fisher92_minic.Ast.Tint
        [
          leti "iters" (i 0);
          leti "converged" (i 0);
          while_ ((v "converged" =: i 0) &&: (v "iters" <: i 30))
            [
              expr_ (call "clear_system" []);
              expr_ (call "stamp_linear" []);
              when_ (g "mode" =: i 1) [ expr_ (call "stamp_caps" []) ];
              leti "ndev" (call "stamp_devices" []);
              expr_ (call "gauss_solve" []);
              if_ (v "ndev" =: i 0) [ set "converged" (i 1) ]
                [
                  (* update device guesses, test convergence *)
                  letf "worst" (fl 0.0);
                  leti "ne" (g "n_elems");
                  for_ "k" (i 0) (v "ne")
                    [
                      leti "ty" (ld "etype" (v "k"));
                      when_ ((v "ty" =: i 4) ||: (v "ty" =: i 5))
                        [
                          letf "vnew"
                            (call "node_voltage" [ ld "enode1" (v "k") ]
                            -: call "node_voltage" [ ld "enode2" (v "k") ]);
                          letf "delta" (abs_ (v "vnew" -: ld "estate" (v "k")));
                          when_ (v "delta" >: v "worst") [ set "worst" (v "delta") ];
                          (* damped update *)
                          st "estate" (v "k")
                            (ld "estate" (v "k") +: ((v "vnew" -: ld "estate" (v "k")) *: fl 0.6));
                        ];
                    ];
                  when_ (v "worst" <: fl 0.0001) [ set "converged" (i 1) ];
                ];
              incr_ "iters";
            ];
          ret (v "iters");
        ];
      (* ---- analyses ---- *)
      fn "run_dc" []
        [
          st "sweep_scale" (i 0) (fl 1.0);
          leti "its" (call "solve_point" []);
          out (v "its");
          leti "nn" (g "n_nodes");
          for_ "r" (i 0) (v "nn")
            [ out (to_int (ld "volt" (v "r") *: fl 100000.0)) ];
        ];
      fn "run_sweep" []
        [
          leti "points" (g "sweep_points");
          leti "total_iters" (i 0);
          for_ "pt" (i 0) (v "points")
            [
              st "sweep_scale" (i 0)
                (fl 0.2 +: (to_float (v "pt") *: fl 0.05));
              set "total_iters" (v "total_iters" +: call "solve_point" []);
            ];
          out (v "total_iters");
          out (to_int (ld "volt" (i 0) *: fl 100000.0));
        ];
      fn "run_transient" []
        [
          st "sweep_scale" (i 0) (fl 1.0);
          leti "steps" (g "tsteps");
          letf "probe" (fl 0.0);
          for_ "t" (i 0) (v "steps")
            [
              expr_ (call "solve_point" []);
              (* advance capacitor states *)
              leti "ne" (g "n_elems");
              for_ "k" (i 0) (v "ne")
                [
                  when_ (ld "etype" (v "k") =: i 3)
                    [
                      st "estate" (v "k")
                        (call "node_voltage" [ ld "enode1" (v "k") ]
                        -: call "node_voltage" [ ld "enode2" (v "k") ]);
                    ];
                ];
              set "probe" (v "probe" +: ld "volt" (i 0));
            ];
          out (v "steps");
          out (to_int (v "probe" *: fl 1000.0));
        ];
      fn "main" [] ~ret:Fisher92_minic.Ast.Tint
        [
          (* netlist sanity scan: counts element classes like a parser *)
          leti "ne" (g "n_elems");
          leti "linear" (i 0);
          leti "reactive" (i 0);
          leti "active" (i 0);
          for_ "k" (i 0) (v "ne")
            [
              switch_ (ld "etype" (v "k"))
                [
                  cases [ 0; 1; 2 ] [ incr_ "linear" ];
                  case 3 [ incr_ "reactive" ];
                  cases [ 4; 5 ] [ incr_ "active" ];
                ]
                [];
            ];
          out (v "linear");
          out (v "reactive");
          out (v "active");
          switch_ (g "mode")
            [
              case 0 [ expr_ (call "run_dc" []) ];
              case 1 [ expr_ (call "run_transient" []) ];
              case 2 [ expr_ (call "run_sweep" []) ];
            ]
            [];
          ret (i 0);
        ];
    ]

(* ---------- dataset construction ---------- *)

type elem = { ty : int; a : int; b : int; value : float }

let make_dataset name descr ~nodes ~mode ?(tsteps = 0) ?(dt = 0.001)
    ?(sweep_points = 0) elems =
  let n = List.length elems in
  assert (n <= max_elems && nodes <= max_nodes);
  {
    Workload.ds_name = name;
    ds_descr = descr;
    ds_iargs = [];
    ds_fargs = [];
    ds_arrays =
      [
        ("$n_nodes", `Ints [| nodes |]);
        ("$n_elems", `Ints [| n |]);
        ("$mode", `Ints [| mode |]);
        ("$tsteps", `Ints [| tsteps |]);
        ("$dt", `Floats [| dt |]);
        ("$sweep_points", `Ints [| sweep_points |]);
        ("etype", `Ints (Array.of_list (List.map (fun e -> e.ty) elems)));
        ("enode1", `Ints (Array.of_list (List.map (fun e -> e.a) elems)));
        ("enode2", `Ints (Array.of_list (List.map (fun e -> e.b) elems)));
        ("evalue", `Floats (Array.of_list (List.map (fun e -> e.value) elems)));
        (* initial guesses for devices; caps start discharged *)
        ("estate",
         `Floats
           (Array.of_list
              (List.map (fun e -> if e.ty = 4 || e.ty = 5 then 0.6 else 0.0) elems)));
      ];
  }

let resistor a b ohms = { ty = 0; a; b; value = ohms }
let vsource a b volts = { ty = 1; a; b; value = volts }
let capacitor a b farads = { ty = 3; a; b; value = farads }
let bjt a b sat = { ty = 4; a; b; value = sat }
let fet a b beta = { ty = 5; a; b; value = beta }

(* random resistive ladder network with one source *)
let linear_circuit ~seed ~nodes ~extra_resistors =
  let rng = Rng.create seed in
  let ladder =
    List.init (nodes - 1) (fun k ->
        resistor (k + 1) (k + 2) (float_of_int (Rng.int_in rng 100 5000)))
  in
  let extras =
    List.init extra_resistors (fun _ ->
        let a = Rng.int_in rng 0 nodes and b = Rng.int_in rng 0 nodes in
        let b = if a = b then (b + 1) mod (nodes + 1) else b in
        resistor a b (float_of_int (Rng.int_in rng 200 20000)))
  in
  (vsource 1 0 5.0 :: ladder) @ extras

let grey_counter ~stages =
  (* RC chain clocked by a source: one solve per timestep *)
  let rcs =
    List.concat
      (List.init stages (fun k ->
           [
             resistor (k + 1) (k + 2) 1000.0;
             capacitor (k + 2) 0 0.000001;
           ]))
  in
  vsource 1 0 3.3 :: rcs

let adder_with ~device ~cells =
  List.concat
    (List.init cells (fun k ->
         let inn = (2 * k) + 1 and outn = (2 * k) + 2 in
         [
           vsource inn 0 (1.0 +. (0.1 *. float_of_int k));
           resistor inn outn 2000.0;
           device outn 0;
           resistor outn 0 15000.0;
         ]))

let workload =
  {
    Workload.w_name = "spice";
    w_paper_name = "013.spice2g6";
    w_lang = Workload.Fortran_fp;
    w_descr = "electronic circuit simulator (nodal analysis)";
    w_program = program;
    w_seeded_globals =
      [ "n_nodes"; "n_elems"; "mode"; "tsteps"; "dt"; "sweep_points" ];
    w_datasets =
      [
        make_dataset "circuit1" "linear DC network, medium" ~nodes:12 ~mode:0
          (linear_circuit ~seed:101 ~nodes:12 ~extra_resistors:14);
        make_dataset "circuit2" "linear DC network, tiny (runs ~1000x shorter than greybig)"
          ~nodes:4 ~mode:0 (linear_circuit ~seed:102 ~nodes:4 ~extra_resistors:2);
        make_dataset "circuit3" "linear DC network, large" ~nodes:20 ~mode:0
          (linear_circuit ~seed:103 ~nodes:20 ~extra_resistors:30);
        make_dataset "circuit4" "linear DC ladder" ~nodes:16 ~mode:0
          (linear_circuit ~seed:104 ~nodes:16 ~extra_resistors:8);
        make_dataset "circuit5" "linear DC mesh" ~nodes:18 ~mode:0
          (linear_circuit ~seed:105 ~nodes:18 ~extra_resistors:40);
        make_dataset "add_bjt" "4-cell adder with BJT junctions (Newton, exp model)"
          ~nodes:8 ~mode:2 ~sweep_points:40
          (adder_with ~device:(fun a b -> bjt a b 0.00000000001) ~cells:4);
        make_dataset "add_fet" "4-cell adder with FET devices (square-law regions)"
          ~nodes:8 ~mode:2 ~sweep_points:40
          (adder_with ~device:(fun a b -> fet a b 0.002) ~cells:4);
        make_dataset "greysmall" "greycode counter RC transient, short" ~nodes:8
          ~mode:1 ~tsteps:80 ~dt:0.0001 (grey_counter ~stages:7);
        make_dataset "greybig" "greycode counter RC transient, long" ~nodes:8
          ~mode:1 ~tsteps:2500 ~dt:0.0001 (grey_counter ~stages:7);
      ];
  }
