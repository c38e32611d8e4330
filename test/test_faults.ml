(* Fault-injection harness for the profile database.

   Random databases are serialized, hit with randomized corruptions --
   bit flips, truncation, chunk deletion, splicing, line shuffles, and
   compositions of those -- and fed to [Db.load_lenient], which must:

   - never raise, no matter the input bytes;
   - never fabricate counts (every recovered profile satisfies
     [0 <= taken <= encountered] per site, with the right site count);
   - recover, bit-exact, every dataset whose section survived the
     corruption untouched (along with the meta section it depends on).

   The "untouched" criterion is syntactic: the corrupted text's lines
   still contain the original section block as a contiguous run, with
   the block's header line being the first occurrence of that line
   (so a spliced-then-damaged earlier copy cannot shadow it). *)

module Gen = QCheck2.Gen
module Db = Fisher92_profile.Db
module Profile = Fisher92_profile.Profile

(* ---------- random databases ---------- *)

let string_of_exactly n chars =
  let open Gen in
  let+ idx = list_repeat n (int_bound (String.length chars - 1)) in
  String.init n (fun i -> chars.[List.nth idx i])

let gen_string_of chars =
  let open Gen in
  let* n = int_range 1 8 in
  string_of_exactly n chars

let name_gen = gen_string_of "abcdefg xyz-_" (* spaces are legal: names are sized *)
let key_gen = gen_string_of "abc|#LD0123456789"
let hex_gen = string_of_exactly 16 "0123456789abcdef"

let counters_gen n_sites =
  let open Gen in
  let* all_zero = frequency [ (1, return true); (4, return false) ] in
  if all_zero then return (Array.make n_sites 0, Array.make n_sites 0)
  else
    let+ pairs =
      list_repeat n_sites
        (let* e = int_range 0 50 in
         let+ t = int_range 0 e in
         (e, t))
    in
    (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let db_gen : Db.t Gen.t =
  let open Gen in
  let* program = name_gen in
  let* n_sites = int_range 0 12 in
  let* n_datasets = int_range 0 4 in
  let* names = list_repeat n_datasets name_gen in
  (* force distinct dataset names *)
  let names = List.mapi (fun i s -> Printf.sprintf "%s#%d" s i) names in
  let* counters = list_repeat n_datasets (counters_gen n_sites) in
  let* identity =
    let* with_id = bool in
    if not with_id then return None
    else
      let* fp = hex_gen in
      let+ keys = list_repeat n_sites key_gen in
      Some (fp, Array.of_list keys)
  in
  let db = Db.create ~program ~n_sites in
  List.iter2
    (fun name (encountered, taken) ->
      Db.record db ~dataset:name { Profile.program; encountered; taken })
    names counters;
  (match identity with
  | Some (fp, keys) -> Db.set_identity db ~fingerprint:fp ~sitekeys:keys
  | None -> ());
  return db

(* ---------- corruption operators (shared with the study-cache
   poisoning tests via the support library) ---------- *)

module Corrupt = Fisher92_testsupport.Corrupt

let op_name = Corrupt.op_name
let apply_op = Corrupt.apply_op
let op_gen = Corrupt.op_gen

let case_gen : (Db.t * Corrupt.op list) Gen.t =
  let open Gen in
  let* db = db_gen in
  let+ ops = list_size (int_range 1 3) op_gen in
  (db, ops)

let print_case (db, ops) =
  Printf.sprintf "ops=[%s] on:\n%s"
    (String.concat "; " (List.map op_name ops))
    (Db.save db)

(* ---------- block helpers (the "untouched" criterion) ---------- *)

let find_idx arr p =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if p arr.(i) then Some i else go (i + 1) in
  go 0

let sized s = Printf.sprintf "%d %s" (String.length s) s

(* contiguous run from the first line equal to [header] through the first
   subsequent line satisfying [is_end], inclusive *)
let block lines ~header ~is_end =
  match find_idx lines (String.equal header) with
  | None -> None
  | Some i ->
    let rec go j =
      if j >= Array.length lines then None
      else if is_end lines.(j) then Some (Array.sub lines i (j - i + 1))
      else go (j + 1)
    in
    go (i + 1)

(* the first occurrence of blk.(0) in [lines] must begin the whole block *)
let survives lines blk =
  match find_idx lines (String.equal blk.(0)) with
  | None -> false
  | Some i ->
    Array.length lines - i >= Array.length blk
    && (let ok = ref true in
        Array.iteri (fun k l -> if lines.(i + k) <> l then ok := false) blk;
        !ok)

let split_lines text = Array.of_list (String.split_on_char '\n' text)

let sane_counts db =
  List.for_all
    (fun d ->
      let p = Db.profile db ~dataset:d in
      Profile.n_sites p = Db.n_sites db
      && Array.for_all (fun e -> e >= 0) p.Profile.encountered
      && (let ok = ref true in
          Array.iteri
            (fun s t ->
              if t < 0 || t > p.Profile.encountered.(s) then ok := false)
            p.Profile.taken;
          !ok))
    (Db.datasets db)

(* ---------- properties ---------- *)

(* the headline requirement: >= 500 randomized corruptions, lenient
   loading never raises and never fabricates counts *)
let prop_lenient_never_raises =
  QCheck2.Test.make ~count:500
    ~name:"lenient load never raises, never fabricates (500 corruptions)"
    ~print:print_case case_gen
    (fun (db, ops) ->
      let corrupted = List.fold_left apply_op (Db.save db) ops in
      let loaded, report = Db.load_lenient corrupted in
      sane_counts loaded
      && List.length (Db.datasets loaded) = List.length report.Db.r_recovered)

let prop_untouched_recovered =
  QCheck2.Test.make ~count:300
    ~name:"datasets whose section survives corruption are recovered intact"
    ~print:print_case case_gen
    (fun (db, ops) ->
      let text = Db.save db in
      let olines = split_lines text in
      let corrupted = List.fold_left apply_op text ops in
      let clines = split_lines corrupted in
      let preamble_ok =
        Array.length clines > 0
        && String.equal clines.(0) "ifprobdb2"
        &&
        match
          block olines ~header:"meta"
            ~is_end:(String.starts_with ~prefix:"endmeta ")
        with
        | Some meta -> survives clines meta
        | None -> false
      in
      if not preamble_ok then true
      else
        let loaded, _ = Db.load_lenient corrupted in
        List.for_all
          (fun d ->
            let header = "dataset " ^ sized d in
            let is_end = String.starts_with ~prefix:"enddataset " in
            match block olines ~header ~is_end with
            | None -> true
            | Some blk ->
              (not (survives clines blk))
              || List.mem d (Db.datasets loaded)
                 && (let a = Db.profile db ~dataset:d in
                     let b = Db.profile loaded ~dataset:d in
                     a.Profile.encountered = b.Profile.encountered
                     && a.Profile.taken = b.Profile.taken))
          (Db.datasets db))

(* satellite: load (save db) = db, including zero-site programs, empty
   datasets and all-zero counters *)
let db_equal a b =
  String.equal (Db.program a) (Db.program b)
  && Db.n_sites a = Db.n_sites b
  && Db.datasets a = Db.datasets b
  && Db.fingerprint a = Db.fingerprint b
  && Db.sitekeys a = Db.sitekeys b
  && List.for_all
       (fun d ->
         let pa = Db.profile a ~dataset:d and pb = Db.profile b ~dataset:d in
         pa.Profile.encountered = pb.Profile.encountered
         && pa.Profile.taken = pb.Profile.taken)
       (Db.datasets a)

let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"load (save db) = db"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db -> db_equal db (Db.load (Db.save db)))

let prop_save_stable =
  QCheck2.Test.make ~count:300 ~name:"save (load (save db)) = save db"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db ->
      let text = Db.save db in
      String.equal text (Db.save (Db.load text)))

let prop_lenient_on_clean =
  QCheck2.Test.make ~count:200
    ~name:"lenient load of an intact file recovers everything, clean report"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db ->
      let loaded, report = Db.load_lenient (Db.save db) in
      Db.clean report && db_equal db loaded)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "fault-injection",
        q [ prop_lenient_never_raises; prop_untouched_recovered ] );
      ( "roundtrip",
        q
          [
            prop_roundtrip;
            prop_save_stable;
            prop_lenient_on_clean;
          ] );
    ]
