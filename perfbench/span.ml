(* In-memory spans and counters for the traced run.

   A span is one call into a layer: name, start, end, the span that was
   open on the main domain when it began (its parent), and the domain
   that ran it, on a monotonic clock.  Recording is off unless [on] is
   set, and then costs one mutex round-trip per span; nothing is
   written until [write_chrome] runs at exit.  Every span and counter is
   tagged with the phase it was recorded in, so set-up work, measured
   passes and the closing steps are summarized separately. *)

type phase = Setup | Pass | Finish

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  domain : int;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
  phase : phase;
}

let on = ref false
let phase = ref Setup
let lock = Mutex.create ()
let recorded : span list ref = ref []
let counters : (phase * string, float) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0

(* open spans of the main domain, innermost first *)
let stack : int list ref = ref []
let epoch = Monotonic_clock.now ()

(* Seconds since program start, monotonic. *)
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) epoch) *. 1e-9

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let open_parent () = match !stack with p :: _ -> p | [] -> -1

let push ~id ~name ~parent ~start ~stop =
  recorded :=
    {
      id;
      name;
      parent;
      domain = (Domain.self () :> int);
      start;
      stop;
      phase = !phase;
    }
    :: !recorded

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Run [f] as span [name].  Only the main domain opens spans this way;
   worker domains report finished work through [completed]. *)
let with_ name f =
  if not !on then f ()
  else begin
    let id, parent =
      locked (fun () ->
          let id = fresh_id () in
          let parent = open_parent () in
          stack := id :: !stack;
          (id, parent))
    in
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        locked (fun () ->
            stack := List.tl !stack;
            push ~id ~name ~parent ~start ~stop))
      f
  end

(* A span that just ended after [seconds], reported by the code that
   timed it (possibly on a worker domain); its parent is the span open
   on the main domain. *)
let completed name ~seconds =
  if !on then begin
    let stop = now () in
    locked (fun () ->
        push ~id:(fresh_id ()) ~name ~parent:(open_parent ())
          ~start:(stop -. seconds) ~stop)
  end

let count name v =
  if !on then
    locked (fun () ->
        let k = (!phase, name) in
        let old = Option.value ~default:0.0 (Hashtbl.find_opt counters k) in
        Hashtbl.replace counters k (old +. v))

(* ---------- summaries ---------- *)

type totals = { calls : int; total_s : float; self_s : float }

let zero = { calls = 0; total_s = 0.0; self_s = 0.0 }

(* Length of the union of [intervals] clipped to [lo, hi]: children
   on two domains may overlap each other. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if a < b then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec merge acc a b = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
      if a' <= b then merge acc a (Float.max b b') rest
      else merge (acc +. (b -. a)) a' b' rest
  in
  match clipped with [] -> 0.0 | (a, b) :: rest -> merge 0.0 a b rest

(* Per span name, over one phase: calls, summed duration, and summed
   self time — each span's duration minus the part its children
   cover. *)
let summary ph =
  let spans = List.filter (fun s -> s.phase = ph) !recorded in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let dur = s.stop -. s.start in
      let t = Option.value ~default:zero (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name
        {
          calls = t.calls + 1;
          total_s = t.total_s +. dur;
          self_s = t.self_s +. dur -. covered ~lo:s.start ~hi:s.stop kids;
        })
    spans;
  by_name

let totals summary name =
  Option.value ~default:zero (Hashtbl.find_opt summary name)

let counter ph name =
  Option.value ~default:0.0 (Hashtbl.find_opt counters (ph, name))

(* ---------- Chrome trace-event output ---------- *)

let phase_name = function
  | Setup -> "setup"
  | Pass -> "pass"
  | Finish -> "finish"

(* The JSON Object Format of the Trace Event spec: one complete ("X")
   event per span with microsecond timestamps and one thread lane per
   domain, counters under "otherData".  Opens in Perfetto or
   chrome://tracing.  Span names are plain ASCII, so [%S] quoting is
   valid JSON. *)
let write_chrome path =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
         \"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name (phase_name s.phase) (s.start *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.domain s.id s.parent)
    (List.rev !recorded);
  Buffer.add_string buf "],\n\"otherData\":{";
  Hashtbl.fold
    (fun (ph, name) v acc ->
      Printf.sprintf "%S:%.17g" (phase_name ph ^ ":" ^ name) v :: acc)
    counters []
  |> List.sort compare |> String.concat ","
  |> Buffer.add_string buf;
  Buffer.add_string buf "},\"displayTimeUnit\":\"ms\"}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)
