(* Types and helpers shared by the two execution engines (the reference
   interpreter in [Vm] and the closure-threaded backend in [Exec]).
   Everything observable about a run — the result record, the config,
   trap formatting, memory seeding, gap accounting — lives here so the
   engines cannot drift apart on anything but speed. *)

open Fisher92_ir
open Insn

exception Trap of string

type output = Out_int of int | Out_float of float

type result = {
  kind_counts : int array;
  total : int;
  site_encountered : int array;
  site_taken : int array;
  rets_from_direct : int;
  rets_from_indirect : int;
  outputs : output list;
  return_value : int option;
  dumped : (string * [ `Ints of int array | `Floats of float array ]) list;
  gap_histogram : int array;
      (* when [config.predicted] was set: bucket b counts gaps g (dynamic
         instructions between consecutive breaks) with 2^b <= g < 2^(b+1);
         all zeros otherwise *)
  gap_count : int;
  gap_sum : int;
}

type engine = Interp | Threaded

let engine_name = function Interp -> "interp" | Threaded -> "threaded"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Some Interp
  | "threaded" | "closure" -> Some Threaded
  | _ -> None

(* The closure-threaded engine is the default: it is bit-identical to
   the interpreter (the differential suite asserts this on every
   workload x dataset) and several times faster.  [FISHER92_ENGINE]
   flips a process back to the reference interpreter. *)
let default_engine () =
  match Fisher92_util.Env.engine () with
  | Some `Interp -> Interp
  | Some `Threaded | None -> Threaded

type config = {
  fuel : int option;
  max_outputs : int;
  on_branch : (site -> bool -> unit) option;
  predicted : bool array option;
  dump_arrays : string list;
  engine : engine option;
}

let default_config =
  {
    fuel = Some 500_000_000;
    max_outputs = 4_000_000;
    on_branch = None;
    predicted = None;
    dump_arrays = [];
    engine = None;
  }

(* Indices into [kind_counts], in the order of [Insn.all_kinds]. *)
let k_ialu = 0
and k_falu = 1
and k_mem = 2
and k_cbranch = 3
and k_jump = 4
and k_call = 5
and k_callind = 6
and k_ret = 7
and k_output = 8
and k_halt = 9

let n_kinds = List.length all_kinds

let kind_index = function
  | K_ialu -> k_ialu
  | K_falu -> k_falu
  | K_mem -> k_mem
  | K_cbranch -> k_cbranch
  | K_jump -> k_jump
  | K_call -> k_call
  | K_callind -> k_callind
  | K_ret -> k_ret
  | K_output -> k_output
  | K_halt -> k_halt

let gap_buckets = 40

(* Break-gap accounting, active only when a prediction is supplied.
   Shared so both engines bucket gaps with the same arithmetic. *)
module Gaps = struct
  type t = {
    hist : int array;
    mutable count : int;
    mutable sum : int;
    mutable last : int;
  }

  let create () = { hist = Array.make gap_buckets 0; count = 0; sum = 0; last = 0 }

  let break g ~executed =
    let gap = executed - g.last in
    g.last <- executed;
    let bucket =
      let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
      Int.min (gap_buckets - 1) (log2 (Int.max gap 1) 0)
    in
    g.hist.(bucket) <- g.hist.(bucket) + 1;
    g.count <- g.count + 1;
    g.sum <- g.sum + gap
end

type mem_cell = Mi of int array | Mf of float array

type ret_value = R_none | R_int of int | R_float of float

let trap pname fname pc fmt =
  Format.kasprintf
    (fun msg -> raise (Trap (Printf.sprintf "%s/%s@%d: %s" pname fname pc msg)))
    fmt

(* Per-branch observation hook, prebound once per run so the hook-free
   path tests a single immutable [None] per branch (the interpreter) or
   compiles to nothing at all (the threaded engine). *)
let branch_note ~(config : config) ~(gaps : Gaps.t) ~(executed : int ref) =
  match (config.predicted, config.on_branch) with
  | None, None -> None
  | Some a, None ->
    Some
      (fun site taken ->
        if a.(site) <> taken then Gaps.break gaps ~executed:!executed)
  | None, Some f -> Some f
  | Some a, Some f ->
    Some
      (fun site taken ->
        if a.(site) <> taken then Gaps.break gaps ~executed:!executed;
        f site taken)

let init_mem (p : Program.t) arrays =
  let mem =
    Array.map
      (fun (a : Program.array_decl) ->
        match a.acls with
        | Program.Cint -> Mi (Array.make a.asize (int_of_float a.ainit))
        | Program.Cfloat -> Mf (Array.make a.asize a.ainit))
      p.arrays
  in
  List.iter
    (fun (name, seed) ->
      let id =
        try Program.find_array p name
        with Not_found ->
          invalid_arg (Printf.sprintf "Vm.run: no array named %s" name)
      in
      match (mem.(id), seed) with
      | Mi dst, `Ints src ->
        if Array.length src > Array.length dst then
          invalid_arg (Printf.sprintf "Vm.run: seed for %s too large" name);
        Array.blit src 0 dst 0 (Array.length src)
      | Mf dst, `Floats src ->
        if Array.length src > Array.length dst then
          invalid_arg (Printf.sprintf "Vm.run: seed for %s too large" name);
        Array.blit src 0 dst 0 (Array.length src)
      | Mi _, `Floats _ | Mf _, `Ints _ ->
        invalid_arg (Printf.sprintf "Vm.run: seed class mismatch for %s" name))
    arrays;
  mem

let dump (p : Program.t) (mem : mem_cell array) names =
  List.map
    (fun name ->
      match mem.(Program.find_array p name) with
      | Mi cells -> (name, `Ints (Array.copy cells))
      | Mf cells -> (name, `Floats (Array.copy cells)))
    names

let check_entry_args (p : Program.t) ~iargs ~fargs =
  let entry = p.funcs.(p.entry) in
  if List.length iargs <> entry.n_iparams then
    invalid_arg
      (Printf.sprintf "Vm.run: entry %s expects %d int args, got %d" entry.fname
         entry.n_iparams (List.length iargs));
  if List.length fargs <> entry.n_fparams then
    invalid_arg
      (Printf.sprintf "Vm.run: entry %s expects %d float args, got %d"
         entry.fname entry.n_fparams (List.length fargs))
