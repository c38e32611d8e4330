(* What every workload shares: the shape [Main] runs, the checks that
   feed the failure count, unit timing, and the small file-system
   helpers the workloads need. *)

(* Everything a run writes lives under here, relative to the directory
   the benchmark is started from. *)
let work_root = ".perfbench-work"

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let tally c ~what ~attempted ~failed =
  c.attempted <- c.attempted + attempted;
  if failed > 0 then begin
    c.failed <- c.failed + failed;
    Printf.eprintf "check failed (%d of %d): %s\n%!" failed attempted what
  end

let check c ~what ok =
  tally c ~what ~attempted:1 ~failed:(if ok then 0 else 1)

(* Times every workload's set-up runs; set-up time is the median. *)
let setup_reps = 3

type t = {
  setup : unit -> unit;
      (** build the inputs and state the passes need, from scratch *)
  pass : unit -> float;
      (** one measured pass, made of {!timed} units; returns the work
          items it completed *)
  finish : unit -> unit;  (** closing steps after the last pass *)
  checks : checks;
  layers : passes:int -> (string * float) list;
      (** per-layer values from the span summaries of the traced run *)
}

(* ---------- timing ---------- *)

let time f =
  let t0 = Span.now () in
  let r = f () in
  (r, Span.now () -. t0)

(* A pass is a fixed sequence of units — a section, a trace, a sweep
   chunk, a service lifetime — and a run reports the pass time as the
   sum of each unit's fastest repeat.  On a shared host other tenants
   slow this process by up to 1.9x for seconds at a time, in CPU time
   exactly as in wall time; the slowdown only ever adds, so the least
   of a unit's repeats is the estimate that repeats.  Over 60 s of one
   fixed replay loop, ten-sample groups spread 28% between quartiles
   by their median and 3.8% by their minimum. *)
let fastest : (string, float) Hashtbl.t = Hashtbl.create 64

let timed key f =
  let r, s = time f in
  (match Hashtbl.find_opt fastest key with
  | Some best when best <= s -> ()
  | _ -> Hashtbl.replace fastest key s);
  r

let reset_units () = Hashtbl.reset fastest
let pass_time () = Hashtbl.fold (fun _ s acc -> acc +. s) fastest 0.0

(* Nearest-rank percentile of an unsorted array. *)
let percentile xs p =
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    xs.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* ---------- files ---------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Fisher92_util.Sectfile.mkdir_p path;
  path

(* Regular files under [path] and their summed size. *)
let rec usage path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left
      (fun (n, b) f ->
        let n', b' = usage (Filename.concat path f) in
        (n + n', b + b'))
      (0, 0) (Sys.readdir path)
  | false -> (1, (Unix.stat path).Unix.st_size)
  | exception Sys_error _ -> (0, 0)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* The kernel's high-water mark of this process's resident set. *)
let peak_rss_mb () =
  read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb ->
             float_of_int kb /. 1024.))
  |> Option.value ~default:0.0
