(* The closure-threaded execution engine, differentially against the
   reference interpreter: on every (workload, dataset) pair of the
   registry the two engines must agree bit-for-bit — outputs, dynamic
   instruction counts, per-site branch counters, return classification,
   gap accounting, and the exact on_branch trace.  Plus trap parity on
   the simulated-machine error paths and the engine-selection knob. *)

module Vm = Fisher92_vm.Vm
module I = Fisher92_ir.Insn
module P = Fisher92_ir.Program
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload

(* ---------- every workload x dataset, both engines ---------- *)

let run_engine ?predicted engine ir d =
  let trace = Buffer.create 4096 in
  let config =
    {
      Vm.default_config with
      engine = Some engine;
      predicted;
      on_branch =
        Some
          (fun site taken ->
            Buffer.add_string trace (string_of_int site);
            Buffer.add_char trace (if taken then 'T' else 'F'));
    }
  in
  let r = Fisher92.Study.execute ir d ~config () in
  (r, Buffer.contents trace)

let check_identical what (ra : Vm.result) ta (rb : Vm.result) tb =
  let chk name b = Alcotest.(check bool) (what ^ " " ^ name) true b in
  Alcotest.(check (array int)) (what ^ " kind_counts") ra.kind_counts
    rb.kind_counts;
  Alcotest.(check int) (what ^ " total") ra.total rb.total;
  Alcotest.(check (array int)) (what ^ " site_encountered")
    ra.site_encountered rb.site_encountered;
  Alcotest.(check (array int)) (what ^ " site_taken") ra.site_taken
    rb.site_taken;
  Alcotest.(check int) (what ^ " rets_from_direct") ra.rets_from_direct
    rb.rets_from_direct;
  Alcotest.(check int) (what ^ " rets_from_indirect") ra.rets_from_indirect
    rb.rets_from_indirect;
  chk "outputs" (ra.outputs = rb.outputs);
  chk "return_value" (ra.return_value = rb.return_value);
  chk "dumped" (ra.dumped = rb.dumped);
  Alcotest.(check (array int)) (what ^ " gap_histogram") ra.gap_histogram
    rb.gap_histogram;
  Alcotest.(check int) (what ^ " gap_count") ra.gap_count rb.gap_count;
  Alcotest.(check int) (what ^ " gap_sum") ra.gap_sum rb.gap_sum;
  chk "branch trace" (ta = tb)

let test_differential () =
  List.iter
    (fun (w : Workload.t) ->
      let ir = Fisher92.Study.compile_variant w in
      List.iter
        (fun (d : Workload.dataset) ->
          let what = w.w_name ^ "/" ^ d.ds_name in
          let ra, ta = run_engine Vm.Interp ir d in
          let rb, tb = run_engine Vm.Threaded ir d in
          check_identical what ra ta rb tb)
        w.w_datasets)
    (Registry.all ())

(* gap accounting flows through a different hook path (the [predicted]
   config), so exercise it differentially too, on one real workload *)
let test_differential_gaps () =
  let w = Registry.find "compress" in
  let ir = Fisher92.Study.compile_variant w in
  let d = List.hd w.Workload.w_datasets in
  let predicted = Array.make (Fisher92_ir.Program.n_sites ir) false in
  let ra, ta = run_engine ~predicted Vm.Interp ir d in
  let rb, tb = run_engine ~predicted Vm.Threaded ir d in
  Alcotest.(check bool) "gaps were recorded" true (ra.Vm.gap_count > 0);
  check_identical "compress gaps" ra ta rb tb

(* ---------- trap parity ---------- *)

let func ?(iparams = 0) ?(fparams = 0) ?(iregs = 8) ?(fregs = 8) name code =
  {
    P.fname = name;
    n_iparams = iparams;
    n_fparams = fparams;
    n_iregs = iregs;
    n_fregs = fregs;
    code = Array.of_list code;
  }

(* sites are numbered by the [Br]s themselves; each must be unique *)
let unchecked_prog ?(arrays = []) ?(func_table = []) funcs =
  let funcs = Array.of_list funcs in
  let sites = ref [] in
  Array.iteri
    (fun fid (f : P.func) ->
      Array.iteri
        (fun pc -> function
          | I.Br { site; _ } -> sites := (site, fid, pc) :: !sites
          | _ -> ())
        f.code)
    funcs;
  let sites = List.sort compare !sites in
  {
    P.pname = "t";
    funcs;
    arrays = Array.of_list arrays;
    func_table = Array.of_list func_table;
    entry = 0;
    sites =
      Array.of_list
        (List.map
           (fun (_, f, pc) -> { P.s_func = f; s_pc = pc; s_label = "s" })
           sites);
  }

let prog ?arrays ?func_table funcs =
  let p = unchecked_prog ?arrays ?func_table funcs in
  Fisher92_ir.Validate.check_exn p;
  p

(* both engines must trap, with the same message — the context strings
   are part of the contract, a debugging aid the refactor must keep *)
let check_trap_parity name ?config p =
  let trap engine =
    let base = Option.value config ~default:Vm.default_config in
    let config = { base with Vm.engine = Some engine } in
    match Vm.run ~config p ~iargs:[] ~fargs:[] ~arrays:[] with
    | exception Vm.Trap msg -> msg
    | _ -> Alcotest.failf "%s: %s engine did not trap" name
              (Vm.engine_name engine)
  in
  Alcotest.(check string) (name ^ " trap message") (trap Vm.Interp)
    (trap Vm.Threaded)

let test_trap_parity () =
  check_trap_parity "division by zero"
    (prog
       [
         func "main"
           [
             I.Iconst (0, 1);
             I.Iconst (1, 0);
             I.Ibin (I.Div, 2, 0, 1);
             I.Ret I.Ret_none;
           ];
       ]);
  check_trap_parity "array out of bounds"
    (prog
       ~arrays:[ { P.aname = "a"; acls = P.Cint; asize = 2; ainit = 0.0 } ]
       [
         func "main" [ I.Iconst (0, 5); I.Iload (1, 0, 0); I.Ret I.Ret_none ];
       ]);
  check_trap_parity "bad indirect slot"
    (prog ~func_table:[ 1 ]
       [
         func "main"
           [
             I.Iconst (0, 5);
             I.Callind { table = 0; iargs = []; fargs = []; dst = I.No_dest };
             I.Ret I.Ret_none;
           ];
         func "noop" [ I.Ret I.Ret_none ];
       ]);
  check_trap_parity "fuel exhaustion"
    ~config:{ Vm.default_config with fuel = Some 1000 }
    (prog [ func "main" [ I.Iconst (0, 1); I.Jump 0 ] ]);
  (* the interpreter traps at the first instruction it cannot pay for,
     never before the block it starts in *)
  check_trap_parity "negative fuel"
    ~config:{ Vm.default_config with fuel = Some (-5) }
    (prog
       [ func "main" [ I.Iconst (0, 1); I.Iconst (1, 2); I.Ret I.Ret_none ] ])

(* ---------- fuel sweep over hand-built programs ---------- *)

(* [Ok] with the result and the on_branch stream, or [Error] with the
   trap message *)
let outcome ?(hooked = false) engine ~fuel p =
  let trace = Buffer.create 256 in
  let config =
    {
      Vm.default_config with
      engine = Some engine;
      fuel;
      predicted =
        (if hooked then Some (Array.make (P.n_sites p) false) else None);
      on_branch =
        (if hooked then
           Some
             (fun site taken ->
               Buffer.add_string trace (string_of_int site);
               Buffer.add_char trace (if taken then 'T' else 'F'))
         else None);
    }
  in
  match Vm.run ~config p ~iargs:[] ~fargs:[] ~arrays:[] with
  | r -> Ok (r, Buffer.contents trace)
  | exception Vm.Trap msg -> Error msg

let check_same_outcome what a b =
  match (a, b) with
  | Ok (ra, ta), Ok (rb, tb) -> check_identical what ra ta rb tb
  | Error ma, Error mb -> Alcotest.(check string) (what ^ " trap") ma mb
  | Ok _, Error m ->
    Alcotest.failf "%s: only the threaded engine trapped: %s" what m
  | Error m, Ok _ ->
    Alcotest.failf "%s: only the interpreter trapped: %s" what m

(* a counted loop whose latch is [Iconst; Icmp; Br], printing as it goes *)
let loop_prog =
  prog
    [
      func "main"
        [
          I.Iconst (0, 0);
          I.Iconst (1, 0);
          I.Ibin (I.Add, 1, 1, 0);
          I.Output 1;
          I.Ibini (I.Add, 0, 0, 1);
          I.Iconst (2, 6);
          I.Icmp (I.Lt, 3, 0, 2);
          I.Br { cond = 3; target = 2; site = 0 };
          I.Output 0;
          I.Ret I.Ret_none;
        ];
    ]

type operand = Konst of I.ireg * int | Reg of I.ireg

(* A compare cascade: for i = 0..7, every comparison in both fusable
   tail shapes ([Iconst; Icmp; Br] and [Icmp; Br]), each branch skipping
   an output, so the output stream records every outcome.  The first
   test loads its constant into the register it compares, so it reads 5
   against 5 whatever that register held. *)
let cascade_prog =
  let tests =
    [
      (I.Ne, 6, Konst (6, 5));
      (I.Eq, 0, Konst (2, 3));
      (I.Eq, 0, Reg 4);
      (I.Ne, 0, Konst (2, 3));
      (I.Ne, 0, Reg 5);
      (I.Lt, 0, Konst (2, 3));
      (I.Lt, 0, Reg 5);
      (I.Le, 0, Konst (2, 3));
      (I.Le, 0, Reg 4);
      (I.Gt, 0, Konst (2, 3));
      (I.Gt, 0, Reg 5);
      (I.Ge, 0, Konst (2, 3));
      (I.Ge, 0, Reg 4);
    ]
  in
  let head = 3 in
  let _, body =
    List.fold_left
      (fun (pc, acc) (site, (cmp, a, operand)) ->
        let load, r =
          match operand with
          | Konst (r, v) -> ([ I.Iconst (r, v) ], r)
          | Reg r -> ([], r)
        in
        let next = pc + List.length load + 4 in
        let test =
          load
          @ [
              I.Icmp (cmp, 3, a, r);
              I.Br { cond = 3; target = next; site };
              I.Iconst (7, site);
              I.Output 7;
            ]
        in
        (next, acc @ test))
      (head, [])
      (List.mapi (fun i t -> (i, t)) tests)
  in
  prog
    [
      func "main"
        ([ I.Iconst (0, 0); I.Iconst (4, 3); I.Iconst (5, 6) ]
        @ body
        @ [
            I.Ibini (I.Add, 0, 0, 1);
            I.Iconst (2, 8);
            I.Icmp (I.Lt, 3, 0, 2);
            I.Br { cond = 3; target = head; site = List.length tests };
            I.Halt;
          ]);
    ]

let call ?(fargs = []) callee iargs dst = I.Call { callee; iargs; fargs; dst }

(* direct and indirect calls returning an int, a float and nothing *)
let calls_prog =
  let callind ?(fargs = []) slot dst =
    [ I.Iconst (2, slot); I.Callind { table = 2; iargs = [ 0 ]; fargs; dst } ]
  in
  prog ~func_table:[ 1; 2; 3 ]
    [
      func "main" ~fregs:4
        ([
           I.Iconst (0, 5);
           call 1 [ 0 ] (I.Int_dest 1);
           I.Output 1;
           I.Fconst (0, 1.5);
           call ~fargs:[ 0 ] 2 [ 0 ] (I.Float_dest 1);
           I.Foutput 1;
           call 3 [ 0 ] I.No_dest;
         ]
        @ callind 0 (I.Int_dest 3)
        @ [ I.Output 3 ]
        @ callind ~fargs:[ 0 ] 1 (I.Float_dest 2)
        @ [ I.Foutput 2 ]
        @ callind 2 I.No_dest
        @ [ I.Ret (I.Ret_int 1) ]);
      func "f_int" ~iparams:1
        [ I.Ibini (I.Mul, 1, 0, 3); I.Output 1; I.Ret (I.Ret_int 1) ];
      func "f_float" ~iparams:1 ~fparams:1
        [ I.Itof (1, 0); I.Fbin (I.Fmul, 2, 1, 0); I.Ret (I.Ret_float 2) ];
      func "f_none" ~iparams:1
        [ I.Ibini (I.Add, 1, 0, 1); I.Output 1; I.Ret I.Ret_none ];
    ]

(* main prints fib n, computed by naive recursion: 2 fib (n + 1) - 1
   calls *)
let fib_prog n =
  prog
    [
      func "main"
        [
          I.Iconst (0, n);
          call 1 [ 0 ] (I.Int_dest 1);
          I.Output 1;
          I.Ret (I.Ret_int 1);
        ];
      func "fib" ~iparams:1
        [
          I.Iconst (1, 2);
          I.Icmp (I.Lt, 2, 0, 1);
          I.Br { cond = 2; target = 9; site = 0 };
          I.Ibini (I.Sub, 3, 0, 1);
          call 1 [ 3 ] (I.Int_dest 4);
          I.Ibini (I.Sub, 3, 0, 2);
          call 1 [ 3 ] (I.Int_dest 5);
          I.Ibin (I.Add, 1, 4, 5);
          I.Ret (I.Ret_int 1);
          I.Ret (I.Ret_int 0);
        ];
    ]

(* Every fuel value from 0 to the run's total + 1, with and without
   hooks: the out-of-fuel replay must stop at the interpreter's pc in
   every block, chained and fused tails included. *)
let sweep name p =
  let total =
    match outcome Vm.Interp ~fuel:None p with
    | Ok (r, _) -> r.Vm.total
    | Error m -> Alcotest.failf "%s: %s" name m
  in
  let ok fuel = Result.is_ok (outcome Vm.Threaded ~fuel:(Some fuel) p) in
  Alcotest.(check bool) (name ^ " runs on its total") true (ok total);
  Alcotest.(check bool) (name ^ " traps one short") false (ok (total - 1));
  for fuel = 0 to total + 1 do
    List.iter
      (fun hooked ->
        let what =
          Printf.sprintf "%s fuel=%d%s" name fuel
            (if hooked then " hooked" else "")
        in
        check_same_outcome what
          (outcome ~hooked Vm.Interp ~fuel:(Some fuel) p)
          (outcome ~hooked Vm.Threaded ~fuel:(Some fuel) p))
      [ false; true ]
  done

let test_fuel_sweep () =
  sweep "loop" loop_prog;
  sweep "cascade" cascade_prog;
  sweep "calls" calls_prog;
  sweep "fib" (fib_prog 6)

(* ---------- frames, allocation, fallback ---------- *)

(* [f] reads int and float registers it never writes, then overwrites
   them, so a reused frame that kept its last activation's registers
   would return 77 or 7 instead of 0 *)
let test_frames_zeroed () =
  let p =
    prog
      [
        func "main"
          [
            I.Iconst (0, 0);
            call 1 [ 0 ] (I.Int_dest 1);
            I.Output 1;
            I.Ibini (I.Add, 0, 0, 1);
            I.Iconst (2, 4);
            I.Icmp (I.Lt, 3, 0, 2);
            I.Br { cond = 3; target = 1; site = 1 };
            I.Ret (I.Ret_int 1);
          ];
        func "f" ~iparams:1 ~fregs:3
          [
            I.Imov (1, 2);
            I.Ftoi (5, 2);
            I.Ibin (I.Or, 1, 1, 5);
            I.Iconst (2, 77);
            I.Fconst (2, 7.5);
            I.Br { cond = 0; target = 7; site = 0 };
            I.Ret (I.Ret_int 1);
            I.Ibini (I.Sub, 3, 0, 1);
            call 1 [ 3 ] (I.Int_dest 4);
            I.Ibin (I.Or, 1, 1, 4);
            I.Ret (I.Ret_int 1);
          ];
      ]
  in
  List.iter
    (fun engine ->
      match outcome engine ~fuel:None p with
      | Ok (r, _) ->
        let what = Vm.engine_name engine in
        Alcotest.(check bool)
          (what ^ " outputs")
          true
          (r.outputs = List.init 4 (fun _ -> Vm.Out_int 0));
        Alcotest.(check (option int)) (what ^ " return") (Some 0)
          r.return_value
      | Error m -> Alcotest.fail m)
    [ Vm.Interp; Vm.Threaded ]

(* fib 18 makes 7,896 more calls than fib 12; the extra calls must
   allocate nothing (compile-time closures cost the same in both runs) *)
let test_calls_allocate_nothing () =
  let words n =
    let p = fib_prog n in
    let config = { Vm.default_config with engine = Some Vm.Threaded } in
    let w0 = Gc.minor_words () in
    ignore (Vm.run ~config p ~iargs:[] ~fargs:[] ~arrays:[]);
    Gc.minor_words () -. w0
  in
  ignore (words 12);
  let extra = (words 18 -. words 12) /. 7896.0 in
  if extra >= 0.1 then
    Alcotest.failf "%.2f words per extra call (want < 0.1)" extra

(* A program the unchecked engine cannot run goes to the interpreter,
   so both engines raise what a checked access raises; an indirect call
   with too many arguments stays on the threaded engine, which checks
   it at the call. *)
let test_fallback () =
  let raised engine p =
    let config = { Vm.default_config with engine = Some engine } in
    match Vm.run ~config p ~iargs:[] ~fargs:[] ~arrays:[] with
    | _ -> "no exception"
    | exception e -> Printexc.to_string e
  in
  let check name ~in_range p =
    Alcotest.(check bool)
      (name ^ " in_range")
      in_range
      (Fisher92_vm.Exec.in_range p);
    let a = raised Vm.Interp p in
    Alcotest.(check string)
      (name ^ " raises")
      (Printexc.to_string (Invalid_argument "index out of bounds"))
      a;
    Alcotest.(check string) (name ^ " same on both engines") a
      (raised Vm.Threaded p)
  in
  check "register out of range" ~in_range:false
    (unchecked_prog
       [
         func "main" ~iregs:2
           [ I.Iconst (0, 1); I.Imov (1, 5); I.Ret I.Ret_none ];
       ]);
  check "direct call with an extra argument" ~in_range:false
    (unchecked_prog
       [
         func "main"
           [
             I.Iconst (0, 1);
             call 1 [ 0; 0 ] I.No_dest;
             I.Ret I.Ret_none;
           ];
         func "f" ~iparams:1 [ I.Ret I.Ret_none ];
       ]);
  check "indirect call with an extra argument" ~in_range:true
    (unchecked_prog ~func_table:[ 1 ]
       [
         func "main"
           [
             I.Iconst (0, 0);
             I.Callind
               { table = 0; iargs = [ 0; 0 ]; fargs = []; dst = I.No_dest };
             I.Ret I.Ret_none;
           ];
         func "f" ~iparams:1 [ I.Ret I.Ret_none ];
       ])

(* no registry build may fall back to the interpreter unnoticed *)
let test_builds_in_range () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (what, ir) ->
          Alcotest.(check bool)
            (w.w_name ^ " " ^ what ^ " build in range")
            true
            (Fisher92_vm.Exec.in_range ir))
        [
          ("measured", Fisher92.Study.compile_variant w);
          ("dce", Fisher92.Study.compile_variant ~dce:true w);
          ("inlined", Fisher92.Study.compile_variant ~inline:true w);
        ])
    (Registry.all ())

(* ---------- engine selection ---------- *)

let test_engine_parsing () =
  let chk s e =
    Alcotest.(check bool)
      (Printf.sprintf "%S parses" s)
      true
      (Vm.engine_of_string s = e)
  in
  chk "interp" (Some Vm.Interp);
  chk "Interpreter" (Some Vm.Interp);
  chk "THREADED" (Some Vm.Threaded);
  chk "closure" (Some Vm.Threaded);
  chk "jit" None;
  chk "" None;
  Alcotest.(check string) "interp name" "interp" (Vm.engine_name Vm.Interp);
  Alcotest.(check string) "threaded name" "threaded"
    (Vm.engine_name Vm.Threaded)

let test_engine_knob () =
  let with_env v f =
    let old = Option.value (Sys.getenv_opt "FISHER92_ENGINE") ~default:"" in
    Unix.putenv "FISHER92_ENGINE" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "FISHER92_ENGINE" old) f
  in
  with_env "" (fun () ->
      Alcotest.(check bool) "default is threaded" true
        (Vm.default_engine () = Vm.Threaded));
  with_env "interp" (fun () ->
      Alcotest.(check bool) "knob selects interp" true
        (Vm.default_engine () = Vm.Interp));
  with_env "closure" (fun () ->
      Alcotest.(check bool) "knob selects threaded" true
        (Vm.default_engine () = Vm.Threaded))

(* ---------- run ---------- *)

let () =
  Alcotest.run "exec"
    [
      ( "differential",
        [
          Alcotest.test_case "every workload x dataset" `Slow
            test_differential;
          Alcotest.test_case "gap accounting" `Quick test_differential_gaps;
        ] );
      ("traps", [ Alcotest.test_case "trap parity" `Quick test_trap_parity ]);
      ("fuel", [ Alcotest.test_case "fuel sweep" `Quick test_fuel_sweep ]);
      ( "frames",
        [
          Alcotest.test_case "reused frames are zeroed" `Quick
            test_frames_zeroed;
          Alcotest.test_case "calls allocate nothing" `Quick
            test_calls_allocate_nothing;
          Alcotest.test_case "out-of-range fallback" `Quick test_fallback;
          Alcotest.test_case "registry builds in range" `Quick
            test_builds_in_range;
        ] );
      ( "selection",
        [
          Alcotest.test_case "engine parsing" `Quick test_engine_parsing;
          Alcotest.test_case "environment knob" `Quick test_engine_knob;
        ] );
    ]
