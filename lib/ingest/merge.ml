(* The sharded in-memory accumulator between the WAL and the database.
   Counters live in full-size per-label arrays; shard [k] owns every
   site congruent to [k] modulo the shard count, and each shard has its
   own lock, so submitters touching disjoint shards never contend.
   Adds saturate at [max_int] — with both operands satisfying
   [taken <= encountered] pointwise and clamping monotone, the
   invariant survives any amount of traffic. *)

module Env = Fisher92_util.Env

type t = {
  m_n_sites : int;
  m_locks : Mutex.t array;  (* one per shard *)
  tables_lock : Mutex.t;  (* guards the label table itself *)
  tables : (string, int array * int array) Hashtbl.t;
      (* label -> (encountered, taken), both of length m_n_sites *)
}

let create ?shards ~n_sites () =
  if n_sites < 0 then invalid_arg "Merge.create: negative site count";
  let n =
    match shards with
    | Some n when n >= 1 && n <= 256 -> n
    | Some _ -> invalid_arg "Merge.create: shard count out of range"
    | None -> Env.shards ()
  in
  {
    m_n_sites = n_sites;
    m_locks = Array.init n (fun _ -> Mutex.create ());
    tables_lock = Mutex.create ();
    tables = Hashtbl.create 8;
  }

let n_shards t = Array.length t.m_locks
let n_sites t = t.m_n_sites

let tables_of t label =
  Mutex.protect t.tables_lock (fun () ->
      match Hashtbl.find_opt t.tables label with
      | Some arrays -> arrays
      | None ->
        let arrays = (Array.make t.m_n_sites 0, Array.make t.m_n_sites 0) in
        Hashtbl.replace t.tables label arrays;
        arrays)

let sat x = if x < 0 then max_int else x

let merge t ~label sites enc taken =
  let m = Array.length sites in
  if Array.length enc <> m || Array.length taken <> m then
    invalid_arg "Merge.merge: entry arrays disagree in length";
  for i = 0 to m - 1 do
    if sites.(i) < 0 || sites.(i) >= t.m_n_sites then
      invalid_arg "Merge.merge: site out of range";
    if enc.(i) < 0 || taken.(i) < 0 || taken.(i) > enc.(i) then
      invalid_arg "Merge.merge: bad counts"
  done;
  let enc_t, taken_t = tables_of t label in
  let n = n_shards t in
  (* Chain the entries per shard through two int arrays, each chain in
     entry order, then take each needed lock exactly once, in ascending
     order (deadlock-free against concurrent submitters). *)
  let first = Array.make n (-1) and next = Array.make m (-1) in
  for i = m - 1 downto 0 do
    let k = sites.(i) mod n in
    next.(i) <- first.(k);
    first.(k) <- i
  done;
  for k = 0 to n - 1 do
    if first.(k) >= 0 then begin
      (* nothing below can raise: the sites were checked above *)
      Mutex.lock t.m_locks.(k);
      let i = ref first.(k) in
      while !i >= 0 do
        let s = sites.(!i) in
        enc_t.(s) <- sat (enc_t.(s) + enc.(!i));
        taken_t.(s) <- sat (taken_t.(s) + taken.(!i));
        i := next.(!i)
      done;
      Mutex.unlock t.m_locks.(k)
    end
  done

let snapshot t =
  (* Only sound under quiescence (the service's compaction gate): reads
     every shard without locking. *)
  Mutex.protect t.tables_lock (fun () ->
      Hashtbl.fold
        (fun label (enc, taken) acc ->
          (label, Array.copy enc, Array.copy taken) :: acc)
        t.tables [])
  |> List.sort compare

let clear t =
  Mutex.protect t.tables_lock (fun () -> Hashtbl.reset t.tables)

let total t =
  List.fold_left
    (fun acc (_, enc, _) -> Array.fold_left ( + ) acc enc)
    0 (snapshot t)
