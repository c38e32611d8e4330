let build () =
  [
    (* FORTRAN / floating point, paper Table 2 order *)
    W_spice.workload;
    W_doduc.workload;
    W_nasa7.workload;
    W_matrix300.workload;
    W_fpppp.workload;
    W_tomcatv.workload;
    W_lfk.workload;
    (* C / integer *)
    W_cc1.workload;
    W_espresso.workload;
    W_li.workload;
    W_eqntott.workload;
    W_compress.workload;
    W_compress.workload_uncompress;
    W_mfcom.workload;
    W_spiff.workload;
  ]

let memo = lazy (build ())

let all () = Lazy.force memo

(* Registered extras (synthetic/curated workloads) extend [find] and
   [extras] but deliberately not [all]: the paper roster is a fixed
   sample base — experiments, goldens, and study defaults iterate it and
   must not grow when a library that registers extras happens to be
   linked in. *)
let extra : Workload.t list ref = ref []

let register_extra w =
  let name = w.Workload.w_name in
  let clashes ws = List.exists (fun o -> String.equal o.Workload.w_name name) ws in
  if clashes (all ()) || clashes !extra then
    invalid_arg (Printf.sprintf "Registry.register_extra: duplicate workload %S" name);
  extra := !extra @ [ w ]

let extras () = !extra

let find name =
  let named w = String.equal w.Workload.w_name name in
  match List.find_opt named (all ()) with
  | Some w -> w
  | None -> List.find named !extra

let fortran_fp () =
  List.filter (fun w -> w.Workload.w_lang = Workload.Fortran_fp) (all ())

let c_integer () =
  List.filter (fun w -> w.Workload.w_lang = Workload.C_int) (all ())
