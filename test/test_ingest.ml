(* The ingest subsystem: delta codec, WAL durability, sharded merge,
   service recovery — and the fault-injection gate.

   The gate is the PR's contract: across hundreds of randomized
   crash-point, torn-write, and malformed-delta injections, recovery
   never raises, never loses an acknowledged delta, never applies one
   twice, and always leaves a database the strict loader accepts. *)

module Sectfile = Fisher92_util.Sectfile
module Rng = Fisher92_util.Rng
module Fnv = Fisher92_util.Fnv
module Varint = Fisher92_util.Varint
module Delta = Fisher92_ingest.Delta
module Wal = Fisher92_ingest.Wal
module Merge = Fisher92_ingest.Merge
module Service = Fisher92_ingest.Service
module Client = Fisher92_ingest.Client
module Db = Fisher92_profile.Db
module Profile = Fisher92_profile.Profile
module Corrupt = Fisher92_testsupport.Corrupt
module Gen = QCheck2.Gen

(* fsync dominates harness wall clock and adds nothing to the
   in-process crash simulation (it guards against power loss, which
   raising [Crash] does not model) *)
let () = Unix.putenv "FISHER92_NO_FSYNC" "1"

(* ---- a synthetic program identity ---- *)

let n_sites = 12
let program = "toy"
let fp_current = "fp-current"
let fp_old = "fp-old"
let keys = Array.init n_sites (Printf.sprintf "key%02d")

let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fisher92-ingest-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let cfg dir =
  {
    Service.c_dir = dir;
    c_program = program;
    c_n_sites = n_sites;
    c_fingerprint = fp_current;
    c_sitekeys = keys;
    c_shards = Some 4;
  }

let mk ?(fingerprint = fp_current) ?(label = "run") ?keys ~nonce entries =
  Delta.make ~program ~fingerprint ~label ~n_sites ?keys ~nonce entries

(* expected accumulated counters of a list of entry lists *)
let expected entry_lists =
  let enc = Array.make n_sites 0 and taken = Array.make n_sites 0 in
  List.iter
    (List.iter (fun (s, e, t) ->
         let sat x = if x < 0 then max_int else x in
         enc.(s) <- sat (enc.(s) + e);
         taken.(s) <- sat (taken.(s) + t)))
    entry_lists;
  (enc, taken)

let accumulated_of_db db =
  let p = Db.accumulated db in
  (p.Profile.encountered, p.Profile.taken)

let check_counters what (exp_enc, exp_taken) (got_enc, got_taken) =
  Alcotest.(check (array int)) (what ^ ": encountered") exp_enc got_enc;
  Alcotest.(check (array int)) (what ^ ": taken") exp_taken got_taken

(* ---- delta codec ---- *)

let test_delta_roundtrip () =
  let d = mk ~nonce:7 [ (0, 5, 2); (3, 9, 9); (11, 1, 0) ] in
  let d' = Delta.decode (Delta.encode d) in
  Alcotest.(check string) "id" d.Delta.d_id d'.Delta.d_id;
  Alcotest.(check (list (triple int int int)))
    "entries" (Delta.entries d) (Delta.entries d');
  let d'' = Delta.parse (Delta.render d) in
  Alcotest.(check string) "spool id" d.Delta.d_id d''.Delta.d_id;
  (* keys survive the trip *)
  let k = mk ~fingerprint:fp_old ~keys ~nonce:8 [ (2, 3, 1) ] in
  let k' = Delta.parse (Delta.render k) in
  Alcotest.(check bool) "keys present" true (k'.Delta.d_keys = Some keys)

let test_delta_validation () =
  let expect_invalid what f =
    match f () with
    | (_ : Delta.t) -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "site out of range" (fun () -> mk ~nonce:0 [ (n_sites, 1, 0) ]);
  expect_invalid "negative site" (fun () -> mk ~nonce:0 [ (-1, 1, 0) ]);
  expect_invalid "taken > enc" (fun () -> mk ~nonce:0 [ (0, 1, 2) ]);
  expect_invalid "duplicate site" (fun () -> mk ~nonce:0 [ (0, 1, 0); (0, 2, 1) ]);
  (* entries sort as whole triples, as [compare] orders them: (5, -1, 0)
     comes first and fails on its counts; a sort by site alone would
     keep the given order and report the repeated site instead *)
  (match mk ~nonce:0 [ (5, 3, 1); (5, -1, 0) ] with
  | (_ : Delta.t) -> Alcotest.fail "duplicate site: expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "triple order decides the message"
      "Delta: bad counts" msg);
  expect_invalid "newline label" (fun () ->
      mk ~label:"a\nb" ~nonce:0 [ (0, 1, 0) ]);
  expect_invalid "short keys" (fun () ->
      mk ~keys:[| "x" |] ~nonce:0 [ (0, 1, 0) ]);
  (* nonce separates ids; same content + same nonce collides on purpose *)
  let a = mk ~nonce:1 [ (0, 1, 0) ] and b = mk ~nonce:2 [ (0, 1, 0) ] in
  Alcotest.(check bool) "nonce distinguishes" true (a.Delta.d_id <> b.Delta.d_id);
  let a' = mk ~nonce:1 [ (0, 1, 0) ] in
  Alcotest.(check string) "retry is idempotent" a.Delta.d_id a'.Delta.d_id

let delta_gen : Delta.t Gen.t =
  let open Gen in
  let entry =
    let* s = int_bound (n_sites - 1) in
    let* e = int_bound 1000 in
    let+ t = int_bound e in
    (s, e, t)
  in
  let* entries = list_size (int_bound 6) entry in
  let entries =
    List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) entries
  in
  let* nonce = int_bound 100_000 in
  let* stale = bool in
  let+ with_keys = bool in
  if stale then
    mk ~fingerprint:fp_old ?keys:(if with_keys then Some keys else None)
      ~nonce entries
  else mk ~nonce entries

(* The id as it was first derived: FNV-1a over the program, fingerprint,
   label and nonce, then one [Printf.sprintf "%d %d %d"] line per entry
   in [compare] order, each string followed by a newline.  Every id a
   client or a WAL already holds was made this way. *)
let model_id ~program ~fingerprint ~label ~nonce entries =
  let h = ref Fnv.seed in
  let add s = h := Fnv.fold (Fnv.fold !h s) "\n" in
  add program;
  add fingerprint;
  add label;
  add (string_of_int nonce);
  List.iter
    (fun (s, e, t) -> add (Printf.sprintf "%d %d %d" s e t))
    (List.sort compare entries);
  Fnv.to_hex !h

let prop_delta_id_stable =
  let open Gen in
  let count =
    oneof
      [ int_bound 1000; int_range (max_int - 3) max_int; int_range 0 max_int ]
  in
  let entry =
    let* s = int_bound 999 in
    let* e = count in
    let+ t = oneof [ int_range 0 e; int_range (e - Int.min e 3) e ] in
    (s, e, t)
  in
  let case =
    let* entries = list_size (oneof [ return 0; int_bound 40 ]) entry in
    let* entries =
      shuffle_l
        (List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) entries)
    in
    let* nonce =
      oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; -1 ] ]
    in
    let+ label = oneofl [ "run"; "ref"; "" ] in
    (label, nonce, entries)
  in
  QCheck2.Test.make ~name:"id equals the sprintf derivation" ~count:500
    ~print:(fun (label, nonce, entries) ->
      Printf.sprintf "label %S, nonce %d, %d entries" label nonce
        (List.length entries))
    case
    (fun (label, nonce, entries) ->
      let d =
        Delta.make ~program ~fingerprint:fp_current ~label ~n_sites:1000 ~nonce
          entries
      in
      String.equal d.Delta.d_id
        (model_id ~program ~fingerprint:fp_current ~label ~nonce entries))

let prop_delta_codec_roundtrip =
  QCheck2.Test.make ~name:"delta binary+text round trip" ~count:200 delta_gen
    (fun d ->
      let b = Delta.decode (Delta.encode d) in
      let t = Delta.parse (Delta.render d) in
      b = d && t = d)

let prop_delta_corruption_detected =
  QCheck2.Test.make ~name:"corrupted spool delta never lies" ~count:200
    ~print:(fun (d, ops) ->
      Printf.sprintf "%s + %s" d.Delta.d_id
        (String.concat "; " (List.map Corrupt.op_name ops)))
    Gen.(pair delta_gen (list_size (int_range 1 3) Corrupt.op_gen))
    (fun (d, ops) ->
      let bad = List.fold_left Corrupt.apply_op (Delta.render d) ops in
      match Delta.parse bad with
      | d' -> d' = d (* undetected mutation must be the identity *)
      | exception Sectfile.Bad _ -> true)

(* ---- WAL ---- *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  Sectfile.mkdir_p dir;
  let w =
    Wal.create ~dir ~program ~n_sites ~fingerprint:fp_current ~generation:3
  in
  let ds = List.init 5 (fun i -> mk ~nonce:i [ (i, i + 1, i) ]) in
  List.iter (fun d -> Wal.append w (Wal.record_line d)) ds;
  Wal.close w;
  match Wal.replay ~dir with
  | None -> Alcotest.fail "log vanished"
  | Some r ->
    Alcotest.(check int) "generation" 3 r.Wal.rp_generation;
    Alcotest.(check int) "records" 5 (List.length r.Wal.rp_deltas);
    Alcotest.(check int) "nothing dropped" 0 (List.length r.Wal.rp_dropped);
    Alcotest.(check (list string))
      "order preserved"
      (List.map (fun d -> d.Delta.d_id) ds)
      (List.map (fun d -> d.Delta.d_id) r.Wal.rp_deltas)

let test_wal_torn_tail () =
  with_dir @@ fun dir ->
  Sectfile.mkdir_p dir;
  let w =
    Wal.create ~dir ~program ~n_sites ~fingerprint:fp_current ~generation:0
  in
  List.iter
    (fun i -> Wal.append w (Wal.record_line (mk ~nonce:i [ (0, 1, 0) ])))
    [ 0; 1; 2 ];
  Wal.close w;
  (* tear the last record mid-line, as a kill between writes would *)
  let path = Wal.path ~dir in
  let text = Sectfile.read_file path in
  let torn = String.sub text 0 (String.length text - 9) in
  let oc = open_out_bin path in
  output_string oc torn;
  close_out oc;
  match Wal.replay ~dir with
  | None -> Alcotest.fail "log vanished"
  | Some r ->
    Alcotest.(check int) "intact prefix kept" 2 (List.length r.Wal.rp_deltas);
    Alcotest.(check int) "torn tail reported" 1 (List.length r.Wal.rp_dropped)

(* ---- merge ---- *)

let test_merge_shards_and_saturation () =
  let m = Merge.create ~shards:3 ~n_sites () in
  Merge.merge m ~label:"a" [| 0; 4 |] [| 5; 7 |] [| 2; 7 |];
  Merge.merge m ~label:"a" [| 0 |] [| max_int - 2 |] [| max_int - 2 |];
  Merge.merge m ~label:"b" [| 1 |] [| 1 |] [| 0 |];
  match Merge.snapshot m with
  | [ ("a", enc_a, tk_a); ("b", enc_b, _) ] ->
    Alcotest.(check int) "saturated" max_int enc_a.(0);
    Alcotest.(check bool) "taken <= enc" true (tk_a.(0) <= enc_a.(0));
    Alcotest.(check int) "other shard" 7 enc_a.(4);
    Alcotest.(check int) "other label" 1 enc_b.(1)
  | snap -> Alcotest.failf "unexpected snapshot shape (%d labels)" (List.length snap)

(* ---- service: edge cases ---- *)

let test_service_duplicate_and_replay () =
  with_dir @@ fun dir ->
  let d = mk ~nonce:1 [ (0, 4, 1); (5, 2, 2) ] in
  let svc = Service.open_ (cfg dir) in
  Alcotest.(check bool) "acked" true (Service.submit svc d = Service.Acked);
  Alcotest.(check bool) "duplicate" true
    (Service.submit svc d = Service.Duplicate);
  Service.close ~fold:false svc;
  (* recovery replays the WAL; the retry must still be a duplicate *)
  let svc2 = Service.open_ (cfg dir) in
  Alcotest.(check int) "replayed" 1 (Service.stats svc2).Service.st_replayed;
  Alcotest.(check bool) "still duplicate" true
    (Service.submit svc2 d = Service.Duplicate);
  Service.close svc2;
  let db = Db.load_file (Service.db_path ~dir) in
  check_counters "after recovery+compact"
    (expected [ Delta.entries d ])
    (accumulated_of_db db)

let test_service_empty_delta () =
  with_dir @@ fun dir ->
  let svc = Service.open_ (cfg dir) in
  Alcotest.(check bool) "empty acked" true
    (Service.submit svc (mk ~nonce:9 []) = Service.Acked);
  Service.compact svc;
  Service.close svc;
  let db = Db.load_file (Service.db_path ~dir) in
  check_counters "no counters" (expected []) (accumulated_of_db db)

(* A database cut before its final "end" loses nothing: recovery reads
   it once, keeps every section, and its note names the first issue. *)
let test_service_damaged_db () =
  with_dir @@ fun dir ->
  let d = mk ~nonce:1 [ (0, 4, 1); (5, 2, 2) ] in
  let svc = Service.open_ (cfg dir) in
  ignore (Service.submit svc d);
  Service.close svc;
  let path = Service.db_path ~dir in
  let text = Sectfile.read_file path in
  let cut = String.sub text 0 (String.length text - String.length "end\n") in
  Out_channel.with_open_bin path (fun oc -> output_string oc cut);
  let svc2 = Service.open_ (cfg dir) in
  Alcotest.(check (list string)) "one note, naming the issue"
    [
      Printf.sprintf
        "database damaged (line %d: missing final end); salvaged 1 \
         dataset(s), dropped 1 issue(s)"
        (List.length (String.split_on_char '\n' cut));
    ]
    (Service.notes svc2);
  check_counters "counters kept"
    (expected [ Delta.entries d ])
    (accumulated_of_db (Service.base_db svc2));
  Service.close svc2

(* A database in another format (here the retired v1 format) holds
   nothing the salvage scan can read, and the first compaction would
   replace it: the service moves it to the quarantine directory, bytes
   intact beside its reason, and starts from a fresh database. *)
let test_service_foreign_db () =
  with_dir @@ fun dir ->
  let v1 = Sectfile.read_file "data/sample_v1.db" in
  Sectfile.mkdir_p dir;
  Out_channel.with_open_bin (Service.db_path ~dir) (fun oc ->
      output_string oc v1);
  let svc = Service.open_ (cfg dir) in
  Alcotest.(check int) "the move is counted" 1
    (Service.stats svc).Service.st_quarantined;
  Alcotest.(check (list string)) "one note, naming the move"
    [
      "database unreadable (line 1: unsupported format (expected \
       ifprobdb2)); quarantined as ifprob.db";
    ]
    (Service.notes svc);
  let moved = Filename.concat (Service.quarantine_dir ~dir) "ifprob.db" in
  Alcotest.(check string) "quarantine holds the original bytes" v1
    (Sectfile.read_file moved);
  Alcotest.(check string) "beside its reason"
    "line 1: unsupported format (expected ifprobdb2)\n"
    (Sectfile.read_file (moved ^ ".reason"));
  let d = mk ~nonce:1 [ (0, 4, 1) ] in
  (match Service.submit svc d with
  | Service.Acked -> ()
  | o -> Alcotest.failf "expected an ack, got %s" (Service.outcome_name o));
  Service.compact svc;
  Service.close svc;
  check_counters "the fresh database holds the new delta"
    (expected [ Delta.entries d ])
    (accumulated_of_db (Db.load_file (Service.db_path ~dir)));
  Alcotest.(check string) "compaction left the quarantined copy alone" v1
    (Sectfile.read_file moved)

let test_service_saturation () =
  with_dir @@ fun dir ->
  let svc = Service.open_ (cfg dir) in
  let big = mk ~nonce:1 [ (2, max_int - 1, max_int - 1) ] in
  let big2 = mk ~nonce:2 [ (2, max_int - 1, 3) ] in
  ignore (Service.submit svc big);
  ignore (Service.submit svc big2);
  Service.compact svc;
  (* a second compaction round folds db + merge again: still clamped *)
  ignore (Service.submit svc (mk ~nonce:3 [ (2, 5, 5) ]));
  Service.close svc;
  let db = Db.load_file (Service.db_path ~dir) in
  let enc, taken = accumulated_of_db db in
  Alcotest.(check int) "clamped at max_int" max_int enc.(2);
  Alcotest.(check bool) "taken <= enc" true (taken.(2) <= enc.(2))

let test_service_stale_client () =
  with_dir @@ fun dir ->
  let svc = Service.open_ (cfg dir) in
  (* a stale build whose site 1 matches our site 1 (keys identical) *)
  let stale = mk ~fingerprint:fp_old ~keys ~nonce:4 [ (1, 6, 3) ] in
  (match Service.submit svc stale with
  | Service.Acked_remapped 0 -> ()
  | o -> Alcotest.failf "expected clean remap, got %s" (Service.outcome_name o));
  (* unmatched structure: every entry dropped, still acked+durable *)
  let alien_keys = Array.init n_sites (Printf.sprintf "other%02d") in
  let lost =
    mk ~fingerprint:fp_old ~keys:alien_keys ~nonce:5 [ (0, 9, 9); (2, 1, 0) ]
  in
  (match Service.submit svc lost with
  | Service.Acked_remapped 2 -> ()
  | o -> Alcotest.failf "expected 2 drops, got %s" (Service.outcome_name o));
  (* no keys at all: quarantined, never reaches the log *)
  (match Service.submit svc (mk ~fingerprint:fp_old ~nonce:6 [ (0, 1, 0) ]) with
  | Service.Quarantined _ -> ()
  | o -> Alcotest.failf "expected quarantine, got %s" (Service.outcome_name o));
  (match Service.submit svc
           (Delta.make ~program:"other" ~fingerprint:fp_current ~label:"run"
              ~n_sites ~nonce:7 [])
   with
  | Service.Quarantined _ -> ()
  | o -> Alcotest.failf "expected program quarantine, got %s"
           (Service.outcome_name o));
  Service.close svc;
  let db = Db.load_file (Service.db_path ~dir) in
  check_counters "only the matched entry landed"
    (expected [ [ (1, 6, 3) ] ])
    (accumulated_of_db db);
  let st = Service.stats svc in
  Alcotest.(check int) "remapped" 2 st.Service.st_remapped;
  Alcotest.(check int) "dropped entries" 2 st.Service.st_dropped_entries;
  Alcotest.(check int) "quarantined" 2 st.Service.st_quarantined

let test_service_spool_drain () =
  with_dir @@ fun dir ->
  let rng = Rng.create 11 in
  let d = mk ~nonce:21 [ (3, 2, 1) ] in
  ignore (Client.spool_submit ~rng ~dir d);
  ignore (Client.spool_submit ~rng ~dir d) (* retry lands on the same file *);
  (* and one malformed spool file *)
  Sectfile.mkdir_p (Service.spool_dir ~dir);
  let bad = Filename.concat (Service.spool_dir ~dir) "zz-garbage.delta" in
  let oc = open_out_bin bad in
  output_string oc "not a delta at all\n";
  close_out oc;
  let svc = Service.open_ (cfg dir) in
  let r = Service.drain_spool svc in
  Alcotest.(check int) "acked" 1 r.Service.dr_acked;
  Alcotest.(check int) "quarantined" 1 r.Service.dr_quarantined;
  Alcotest.(check (array string)) "spool empty" [||]
    (Sys.readdir (Service.spool_dir ~dir));
  Alcotest.(check bool) "quarantine holds the file + reason" true
    (Sys.file_exists
       (Filename.concat (Service.quarantine_dir ~dir) "zz-garbage.delta")
    && Sys.file_exists
         (Filename.concat (Service.quarantine_dir ~dir)
            "zz-garbage.delta.reason"));
  Service.close svc;
  let db = Db.load_file (Service.db_path ~dir) in
  check_counters "drained once" (expected [ [ (3, 2, 1) ] ]) (accumulated_of_db db)

let test_service_concurrent_compaction () =
  with_dir @@ fun dir ->
  let svc = Service.open_ (cfg dir) in
  let domains = 4 and per = 50 in
  let workers =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            for k = 0 to per - 1 do
              let nonce = (w * per) + k in
              let site = nonce mod n_sites in
              match Service.submit svc (mk ~nonce [ (site, 1, 1) ]) with
              | Service.Acked -> ()
              | o -> failwith (Service.outcome_name o)
            done))
  in
  (* compaction races the submitters the whole way *)
  for _ = 1 to 8 do
    Service.compact svc
  done;
  List.iter Domain.join workers;
  Service.close svc;
  let db = Db.load_file (Service.db_path ~dir) in
  let enc, _ = accumulated_of_db db in
  Alcotest.(check int) "every ack survived the races"
    (domains * per)
    (Array.fold_left ( + ) 0 enc)

(* Four domains race the same 256 deltas in the same order through one
   service: the id check, the append and the insert share one critical
   section, so each id is acked exactly once, logged exactly once, and
   counted exactly once.  The log fsyncs here, as a deployed service's
   does, so each append is long enough for the other domains to arrive
   while it runs: an id check outside the lock then lets a second
   submitter log the same id. *)
let test_service_concurrent_duplicates () =
  with_dir @@ fun dir ->
  Unix.putenv "FISHER92_NO_FSYNC" "0";
  Fun.protect ~finally:(fun () -> Unix.putenv "FISHER92_NO_FSYNC" "1")
  @@ fun () ->
  let svc = Service.open_ (cfg dir) in
  let deltas =
    Array.init 256 (fun nonce ->
        mk ~nonce [ (nonce mod n_sites, 1 + nonce, nonce mod 3) ])
  in
  let domains = 4 in
  let outcomes =
    List.init domains (fun _ ->
        Domain.spawn (fun () -> Array.map (Service.submit svc) deltas))
    |> List.map Domain.join
  in
  Array.iteri
    (fun i d ->
      let count o =
        List.length (List.filter (fun os -> os.(i) = o) outcomes)
      in
      if count Service.Acked <> 1 || count Service.Duplicate <> domains - 1
      then
        Alcotest.failf "delta %s: %d acked, %d duplicate" d.Delta.d_id
          (count Service.Acked) (count Service.Duplicate))
    deltas;
  Service.close ~fold:false svc;
  (match Wal.replay ~dir with
  | None -> Alcotest.fail "log vanished"
  | Some r ->
    Alcotest.(check (list string))
      "the log holds each id once"
      (List.sort compare
         (Array.to_list (Array.map (fun d -> d.Delta.d_id) deltas)))
      (List.sort compare (List.map (fun d -> d.Delta.d_id) r.Wal.rp_deltas)));
  let successor = Service.open_ (cfg dir) in
  Service.compact successor;
  Service.close successor;
  check_counters "the successor holds each acked delta once"
    (expected (Array.to_list (Array.map Delta.entries deltas)))
    (accumulated_of_db (Db.load_file (Service.db_path ~dir)))

let test_client_backoff () =
  (* transient failures retry with growing, jittered, capped delays;
     the budget's end surfaces the original exception *)
  let sleeps = ref [] in
  let rng = Rng.create 3 in
  let calls = ref 0 in
  let v =
    Client.with_retry
      ~backoff:{ Client.default_backoff with bo_retries = 4; bo_jitter = 0.0 }
      ~sleep:(fun s -> sleeps := s :: !sleeps)
      ~rng
      (fun () ->
        incr calls;
        if !calls < 4 then raise (Sys_error "flaky") else !calls)
  in
  Alcotest.(check int) "succeeded on 4th try" 4 v;
  Alcotest.(check (list (float 1e-9)))
    "exponential schedule" [ 0.05; 0.1; 0.2 ] (List.rev !sleeps);
  let attempts = ref 0 in
  (match
     Client.with_retry
       ~backoff:{ Client.default_backoff with bo_retries = 2 }
       ~sleep:ignore ~rng
       (fun () ->
         incr attempts;
         raise (Sys_error "down"))
   with
  | _ -> Alcotest.fail "expected Gave_up"
  | exception Client.Gave_up (n, Sys_error _) ->
    Alcotest.(check int) "attempt count" 3 n;
    Alcotest.(check int) "f ran each attempt" 3 !attempts
  | exception e -> raise e);
  (* non-transient exceptions never retry *)
  let ran = ref 0 in
  (match
     Client.with_retry ~sleep:ignore ~rng (fun () ->
         incr ran;
         failwith "bug")
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> Alcotest.(check int) "no retry" 1 !ran
  | exception e -> raise e)

(* ---- allocation budget ---- *)

(* Minor words, exact per domain in OCaml 5, allocated by [f ()] run
   [reps] times, per run. *)
let words_per_run reps f =
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* A delta shaped like one the ingest benchmark sends: 32 seeded
   entries, the sites spread over a compress-sized build.  Its make
   measures 236 words and its 208-byte payload decodes in 124, almost
   all of it the entry arrays and the strings; with a [Printf.sprintf]
   per entry and a per-call varint closure they took 3,585 and 867.
   Each bound sits a little above its measurement. *)
let budget_entries () =
  let rng = Rng.create 32 in
  List.init 32 (fun i ->
      let e = 1 + Rng.int rng 1000 in
      ((i * 97) mod 1000, e, Rng.int rng (e + 1)))
  |> List.sort compare

let budget_delta entries =
  Delta.make ~program:"compress" ~fingerprint:"0123456789abcdef"
    ~label:"client0" ~n_sites:1000 ~nonce:((1 lsl 40) lor 7) entries

let test_varint_read_allocation () =
  let buf = Buffer.create 4096 in
  let values = [| 0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40; max_int |] in
  for i = 0 to 999 do
    Varint.add buf values.(i mod Array.length values)
  done;
  let payload = Buffer.contents buf in
  let pos = ref 0 in
  let per_read =
    words_per_run 1000 (fun () ->
        if !pos >= String.length payload then pos := 0;
        Varint.read payload pos)
  in
  if per_read >= 0.01 then
    Alcotest.failf "Varint.read: %.4f words per read (want < 0.01)" per_read

let test_delta_make_allocation () =
  let entries = budget_entries () in
  let per_make = words_per_run 200 (fun () -> budget_delta entries) in
  if per_make > 256.0 then
    Alcotest.failf "Delta.make: %.0f words per 32-entry delta (want <= 256)"
      per_make

let test_delta_decode_allocation () =
  let payload = Delta.encode (budget_delta (budget_entries ())) in
  let per_decode = words_per_run 200 (fun () -> Delta.decode payload) in
  if per_decode > 136.0 then
    Alcotest.failf "Delta.decode: %.0f words per %d-byte payload (want <= 136)"
      per_decode (String.length payload)

(* ---- the fault-injection gate ---- *)

let crash_labels =
  [|
    "wal.append.before"; "wal.append.torn"; "wal.append.after";
    "ifprobdb.before_write"; "ifprobdb.mid_write"; "ifprobdb.before_rename";
    "ifprobdb.after_rename"; "wal.reset.before_write"; "wal.reset.mid_write";
    "wal.reset.before_rename"; "wal.reset.after_rename";
  |]

type step = Step_submit of Delta.t | Step_compact

let script_gen : (string * step list) Gen.t =
  let open Gen in
  let entry =
    let* s = int_bound (n_sites - 1) in
    let* e = int_range 1 50 in
    let+ t = int_bound e in
    (s, e, t)
  in
  let submit nonce =
    let+ entries = list_size (int_bound 4) entry in
    Step_submit
      (mk ~nonce
         (List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) entries))
  in
  let* label = oneofa crash_labels in
  let* nth = int_range 1 6 in
  let* n_steps = int_range 3 15 in
  let+ steps =
    flatten_l
      (List.init n_steps (fun i ->
           let* c = int_bound 4 in
           if c = 0 then return Step_compact else submit i))
  in
  (Printf.sprintf "%s:%d" label nth, steps)

(* Run a script with an armed crash point; on the simulated kill,
   discard the service, recover, and check the contract.  Returns true
   (or raises an Alcotest failure with the story). *)
let run_crash_case (spec, steps) =
  with_dir @@ fun dir ->
  let svc = Service.open_ (cfg dir) in
  let acked : (string, (int * int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let in_flight = ref None in
  let crashed = ref false in
  Sectfile.crash_reset ();
  Sectfile.crash_hook := (fun l -> raise (Sectfile.Crash l));
  Sectfile.crash_spec := Some spec;
  Fun.protect
    ~finally:(fun () ->
      Sectfile.crash_spec := None;
      Sectfile.crash_reset ())
    (fun () ->
      (try
         List.iter
           (fun step ->
             match step with
             | Step_compact -> Service.compact svc
             | Step_submit d -> (
               in_flight := Some d;
               let o = Service.submit svc d in
               in_flight := None;
               match o with
               | Service.Acked ->
                 Hashtbl.replace acked d.Delta.d_id (Delta.entries d)
               | Service.Duplicate -> ()
               | o -> Alcotest.failf "unexpected %s" (Service.outcome_name o)))
           steps
       with Sectfile.Crash _ -> crashed := true);
      (try Service.close ~fold:false svc with _ -> ()));
  (* recovery must not raise, and must not crash (the spec is disarmed) *)
  let svc2 = Service.open_ (cfg dir) in
  Service.compact svc2;
  Service.close ~fold:false svc2;
  let db = Db.load_file (Service.db_path ~dir) (* strict: Failure = bug *) in
  let got = accumulated_of_db db in
  let acked_entries = Hashtbl.fold (fun _ es acc -> es :: acc) acked [] in
  let candidate_a = expected acked_entries in
  let matches (exp_enc, exp_tk) = fst got = exp_enc && snd got = exp_tk in
  let ok =
    matches candidate_a
    ||
    (* the submission interrupted by the kill may have reached the log
       before the crash point fired: durable-but-unacked is allowed *)
    match (!crashed, !in_flight) with
    | true, Some d -> matches (expected (Delta.entries d :: acked_entries))
    | _ -> false
  in
  if not ok then
    Alcotest.failf
      "crash at %s: recovered counters match neither acked nor \
       acked+in-flight (%d acked, crashed %b)"
      spec (Hashtbl.length acked) !crashed;
  true

let prop_crash_recovery =
  QCheck2.Test.make ~name:"crash anywhere loses only unacked deltas"
    ~count:300
    ~print:(fun (spec, steps) ->
      Printf.sprintf "%s over %d steps" spec (List.length steps))
    script_gen run_crash_case

(* WAL byte corruption beyond the torn-tail model: recovery must stay
   calm and never invent counters, even when it cannot keep them all. *)
let prop_wal_corruption =
  QCheck2.Test.make ~name:"corrupted WAL recovers without inventing data"
    ~count:200
    ~print:(fun (n, ops) ->
      Printf.sprintf "%d deltas + %s" n
        (String.concat "; " (List.map Corrupt.op_name ops)))
    Gen.(pair (int_range 1 8) (list_size (int_range 1 3) Corrupt.op_gen))
    (fun (n, ops) ->
      with_dir @@ fun dir ->
      let svc = Service.open_ (cfg dir) in
      let submitted = ref [] in
      for nonce = 0 to n - 1 do
        let d = mk ~nonce [ (nonce mod n_sites, 10, 5) ] in
        (match Service.submit svc d with
        | Service.Acked -> submitted := Delta.entries d :: !submitted
        | o -> failwith (Service.outcome_name o))
      done;
      Service.close ~fold:false svc;
      let wal_path = Wal.path ~dir in
      let bad = List.fold_left Corrupt.apply_op (Sectfile.read_file wal_path) ops in
      let oc = open_out_bin wal_path in
      output_string oc bad;
      close_out oc;
      let svc2 = Service.open_ (cfg dir) (* must not raise *) in
      Service.compact svc2;
      Service.close ~fold:false svc2;
      let enc, taken = accumulated_of_db (Db.load_file (Service.db_path ~dir)) in
      let max_enc, max_taken = expected !submitted in
      Array.for_all2 ( >= ) max_enc enc
      && Array.for_all2 ( >= ) max_taken taken
      && Array.for_all2 ( >= ) enc taken)

(* Malformed spool submissions: random garbage (or a corrupted real
   delta) must always quarantine, never ingest, never raise.  A mutant
   that still parses is a well-formed delta, so the spool must give it
   exactly the outcome a direct submission gets on a fresh service —
   which is a quarantine too when the delta is, say, stale and keyless. *)
let prop_malformed_quarantined =
  QCheck2.Test.make ~name:"malformed spool deltas always quarantine"
    ~count:100
    ~print:(function
      | `Garbage s -> Printf.sprintf "garbage %S" s
      | `Mutant (d, ops) ->
        Printf.sprintf "mutant of %S: %s" (Delta.render d)
          (String.concat "; " (List.map Corrupt.op_name ops)))
    Gen.(
      oneof
        [
          map (fun s -> `Garbage s) (string_size ~gen:printable (int_bound 200));
          map2
            (fun d ops -> `Mutant (d, ops))
            delta_gen
            (list_size (int_range 1 3) Corrupt.op_gen);
        ])
    (fun case ->
      with_dir @@ fun dir ->
      Sectfile.mkdir_p (Service.spool_dir ~dir);
      let text =
        match case with
        | `Garbage s -> s
        | `Mutant (d, ops) -> List.fold_left Corrupt.apply_op (Delta.render d) ops
      in
      let direct =
        match Delta.parse text with
        | d ->
          Some
            ( with_dir @@ fun fresh ->
              let svc = Service.open_ (cfg fresh) in
              let o = Service.submit svc d in
              Service.close svc;
              o )
        | exception Sectfile.Bad _ -> None
      in
      let path = Filename.concat (Service.spool_dir ~dir) "case.delta" in
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      let svc = Service.open_ (cfg dir) in
      let r = Service.drain_spool svc in
      Service.close svc;
      let quarantined () =
        r.Service.dr_quarantined = 1
        && Sys.readdir (Service.spool_dir ~dir) = [||]
        && (Service.stats svc).Service.st_accepted = 0
      in
      match direct with
      | Some (Service.Acked | Service.Acked_remapped _) ->
        r.Service.dr_acked = 1
      | Some Service.Duplicate -> r.Service.dr_duplicates = 1
      | Some (Service.Quarantined _) | None -> quarantined ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ingest"
    [
      ( "delta",
        [
          Alcotest.test_case "round trip" `Quick test_delta_roundtrip;
          Alcotest.test_case "validation" `Quick test_delta_validation;
          q prop_delta_id_stable;
          q prop_delta_codec_roundtrip;
          q prop_delta_corruption_detected;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
        ] );
      ( "merge",
        [
          Alcotest.test_case "shards + saturation" `Quick
            test_merge_shards_and_saturation;
        ] );
      ( "service",
        [
          Alcotest.test_case "duplicate + WAL replay" `Quick
            test_service_duplicate_and_replay;
          Alcotest.test_case "empty delta" `Quick test_service_empty_delta;
          Alcotest.test_case "damaged database" `Quick test_service_damaged_db;
          Alcotest.test_case "database in another format" `Quick
            test_service_foreign_db;
          Alcotest.test_case "saturation near max_int" `Quick
            test_service_saturation;
          Alcotest.test_case "stale client degradation" `Quick
            test_service_stale_client;
          Alcotest.test_case "spool drain + quarantine" `Quick
            test_service_spool_drain;
          Alcotest.test_case "compaction during ingest" `Quick
            test_service_concurrent_compaction;
          Alcotest.test_case "concurrent duplicates" `Quick
            test_service_concurrent_duplicates;
          Alcotest.test_case "client backoff" `Quick test_client_backoff;
        ] );
      ( "budget",
        [
          Alcotest.test_case "Varint.read allocates nothing" `Quick
            test_varint_read_allocation;
          Alcotest.test_case "Delta.make words" `Quick
            test_delta_make_allocation;
          Alcotest.test_case "Delta.decode words" `Quick
            test_delta_decode_allocation;
        ] );
      ( "faults",
        [
          q prop_crash_recovery;
          q prop_wal_corruption;
          q prop_malformed_quarantined;
        ] );
    ]
