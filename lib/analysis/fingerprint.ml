module I = Fisher92_ir.Insn
module P = Fisher92_ir.Program
module Fnv = Fisher92_util.Fnv

type site_fp = {
  fp_func : string;
  fp_label : string;
  fp_stem : string;
  fp_cmp : string;
  fp_loop_depth : int;
  fp_dom_depth : int;
  fp_backward : bool;
  fp_ordinal : int;
}

(* Labels are "<fname>#<stmt-counter>:<hint>"; the counter renumbers on
   any edit earlier in the function, the hint does not. *)
let stem_of_label label =
  match String.index_opt label ':' with
  | Some i -> String.sub label (i + 1) (String.length label - i - 1)
  | None -> label

let negate_cmp = function
  | I.Eq -> I.Ne
  | I.Ne -> I.Eq
  | I.Lt -> I.Ge
  | I.Ge -> I.Lt
  | I.Le -> I.Gt
  | I.Gt -> I.Le

(* Comparison shape of the branch condition: walk backwards for the
   definition of the condition register, through moves and logical nots,
   a bounded number of steps (same discipline as the opcode heuristic). *)
let cond_shape (code : I.insn array) ~pc ~cond =
  let rec scan pc reg flipped fuel =
    if pc < 0 || fuel = 0 then "?"
    else
      match code.(pc) with
      | I.Icmp (c, d, _, _) when d = reg ->
        I.cmp_name (if flipped then negate_cmp c else c)
      | I.Fcmp (c, d, _, _) when d = reg ->
        "f" ^ I.cmp_name (if flipped then negate_cmp c else c)
      | I.Inot (d, s) when d = reg -> scan (pc - 1) s (not flipped) (fuel - 1)
      | I.Imov (d, s) when d = reg -> scan (pc - 1) s flipped (fuel - 1)
      | insn when List.mem (Defuse.Ir reg) (Defuse.defs insn) -> "?"
      | _ -> scan (pc - 1) reg flipped fuel
  in
  scan (pc - 1) cond false 16

let dom_depth dom b =
  let rec up b acc =
    if acc > 10_000 then acc (* cycle guard; cannot happen on a tree *)
    else match Dom.idom dom b with -1 -> acc | p -> up p (acc + 1)
  in
  up b 0

let site_fingerprints (prog : P.t) =
  let n = P.n_sites prog in
  let fps =
    Array.make n
      {
        fp_func = "";
        fp_label = "";
        fp_stem = "";
        fp_cmp = "?";
        fp_loop_depth = 0;
        fp_dom_depth = 0;
        fp_backward = false;
        fp_ordinal = 0;
      }
  in
  Array.iter
    (fun (f : P.func) ->
      let cfg = Cfg.build f in
      if Cfg.n_blocks cfg > 0 then begin
        let dom = Dom.compute cfg in
        let loops = Loops.compute cfg dom in
        Array.iteri
          (fun pc insn ->
            match insn with
            | I.Br { cond; target; site } ->
              let b = cfg.Cfg.block_of_pc.(pc) in
              fps.(site) <-
                {
                  fp_func = f.fname;
                  fp_label = (P.site_label prog site : string);
                  fp_stem = stem_of_label (P.site_label prog site);
                  fp_cmp = cond_shape f.code ~pc ~cond;
                  fp_loop_depth = loops.Loops.depth.(b);
                  fp_dom_depth = dom_depth dom b;
                  fp_backward = target <= pc;
                  fp_ordinal = 0;
                }
            | _ -> ())
          f.code
      end)
    prog.funcs;
  (* Ordinals: number the sites of each (func, stem, cmp, loop depth,
     direction) class in site order, so that two textually identical
     branches in one function still get distinct keys. *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun s fp ->
      let cls =
        Printf.sprintf "%s|%s|%s|%d|%b" fp.fp_func fp.fp_stem fp.fp_cmp
          fp.fp_loop_depth fp.fp_backward
      in
      let k = match Hashtbl.find_opt seen cls with Some k -> k | None -> 0 in
      Hashtbl.replace seen cls (k + 1);
      fps.(s) <- { fp with fp_ordinal = k })
    fps;
  fps

(* The dominator-depth component goes last so [match_key] can strip it:
   it is genuinely part of the site's identity (and of the program hash)
   but shifts wholesale when a branch is inserted above, which is exactly
   the situation remapping exists for. *)
let site_key fp =
  let clean s =
    String.map (fun c -> if c = '\n' || c = '\r' then '_' else c) s
  in
  Printf.sprintf "%s|%s|%s|L%d|%s|#%d|D%d" (clean fp.fp_func)
    (clean fp.fp_stem) fp.fp_cmp fp.fp_loop_depth
    (if fp.fp_backward then "B" else "F")
    fp.fp_ordinal fp.fp_dom_depth

let match_key key =
  match String.rindex_opt key '|' with
  | Some i
    when i + 1 < String.length key
         && key.[i + 1] = 'D'
         && String.rindex_opt (String.sub key 0 i) '|' <> None ->
    String.sub key 0 i
  | _ -> key

let site_keys prog = Array.map site_key (site_fingerprints prog)

let program_hash (prog : P.t) =
  let fps = site_fingerprints prog in
  let parts =
    prog.pname
    :: string_of_int (Array.length prog.funcs)
    :: string_of_int (P.n_sites prog)
    :: (Array.to_list prog.funcs
       |> List.map (fun (f : P.func) ->
              Printf.sprintf "%s/%d" f.fname (Array.length f.code)))
    @ (Array.to_list fps |> List.map site_key)
    @ (Array.to_list prog.sites
      |> List.map (fun (s : P.site_info) ->
             Printf.sprintf "%d@%d:%s" s.s_func s.s_pc s.s_label))
  in
  Fnv.hash_strings parts

(* The marshalled bytes of the program are a canonical serialization of
   every field: the IR is plain acyclic data (no closures, no custom
   blocks), and [No_sharing] makes the bytes depend on structure alone,
   not on which equal strings the compiler happened to share.  Marshal's
   format may change between OCaml releases; that only turns a stored
   entry into a miss. *)
let content_hash (prog : P.t) =
  Fnv.to_hex (Fnv.hash (Marshal.to_string prog [ Marshal.No_sharing ]))
