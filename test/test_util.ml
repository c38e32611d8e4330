module Rng = Fisher92_util.Rng
module Stats = Fisher92_util.Stats
module Env = Fisher92_util.Env
module Varint = Fisher92_util.Varint
module Fnv = Fisher92_util.Fnv
module B64 = Fisher92_util.B64

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same sequence" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 16 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 16 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 100_000 do
    let x = Rng.int rng 11 in
    if x < 0 || x >= 11 then Alcotest.failf "Rng.int out of range: %d" x
  done

let test_int_in_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let x = Rng.int_in rng (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "Rng.int_in out of range: %d" x
  done

let test_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "every residue reached" true
    (Array.for_all (fun b -> b) seen)

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 3.5 in
    if x < 0.0 || x >= 3.5 then Alcotest.failf "Rng.float out of range: %f" x
  done

let test_chance_extremes () =
  let rng = Rng.create 15 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)
  done

let test_chance_rate () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.chance rng 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.25" rate)
    true
    (rate > 0.23 && rate < 0.27)

let test_shuffle_permutation () =
  let rng = Rng.create 19 in
  let a = Array.init 50 (fun k -> k) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun k -> k)) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 (fun k -> k))

let test_pick_weighted () =
  let rng = Rng.create 21 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let x = Rng.pick_weighted rng [| (1, "a"); (2, "b"); (7, "c") |] in
    Hashtbl.replace counts x (1 + try Hashtbl.find counts x with Not_found -> 0)
  done;
  let get k = try Hashtbl.find counts k with Not_found -> 0 in
  Alcotest.(check bool) "c most frequent" true (get "c" > get "b");
  Alcotest.(check bool) "b more than a" true (get "b" > get "a");
  Alcotest.(check bool) "a present" true (get "a" > 1000)

let test_gaussian_moments () =
  let rng = Rng.create 23 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "sd near 1" true (Float.abs (sd -. 1.0) < 0.03)

let test_split_independence () =
  let parent = Rng.create 99 in
  let child = Rng.split parent in
  let xs = List.init 8 (fun _ -> Rng.next_int64 parent) in
  let ys = List.init 8 (fun _ -> Rng.next_int64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ---- Stats ---- *)

let feq msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %f vs %f" msg a b)
    true
    (Float.abs (a -. b) < 1e-9)

let test_mean () =
  feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  feq "mean empty" 0.0 (Stats.mean [])

let test_geomean () =
  feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ] ** 1.0 |> fun x -> x);
  feq "geomean single" 5.0 (Stats.geomean [ 5.0 ])

(* regression: a single zero sample used to drive the whole geomean to 0
   (log 0 = -inf), and a negative one to nan — footers must never print
   either *)
let test_geomean_nonpositive () =
  feq "zero sample skipped" 2.0 (Stats.geomean [ 0.0; 1.0; 2.0; 4.0 ]);
  feq "negative sample skipped" 2.0 (Stats.geomean [ -3.0; 1.0; 2.0; 4.0 ]);
  feq "nan sample skipped" 2.0 (Stats.geomean [ Float.nan; 1.0; 2.0; 4.0 ]);
  feq "all non-positive" 0.0 (Stats.geomean [ 0.0; -1.0 ]);
  Alcotest.(check bool) "never nan" false
    (Float.is_nan (Stats.geomean [ -5.0; 0.0; Float.nan; 3.0 ]))

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0; 2.0 ] in
  feq "min" (-1.0) lo;
  feq "max" 7.0 hi;
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.min_max: empty list") (fun () ->
      ignore (Stats.min_max []))

(* the documented nan contract: a nan sample poisons both bounds no
   matter where it appears (Float.min/max propagate, unlike a naive
   [if x < lo] fold which would drop nan depending on position) *)
let test_min_max_nan () =
  List.iter
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      Alcotest.(check bool) "nan lo" true (Float.is_nan lo);
      Alcotest.(check bool) "nan hi" true (Float.is_nan hi))
    [
      [ Float.nan; 1.0; 2.0 ];
      [ 1.0; Float.nan; 2.0 ];
      [ 1.0; 2.0; Float.nan ];
    ]

let test_median () =
  feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  feq "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  feq "empty" 0.0 (Stats.median [])

(* regression: polymorphic compare gave nan an order-dependent position;
   Float.compare is total (nan below every number), so every permutation
   agrees *)
let test_median_nan () =
  feq "nan sorts first (odd)" 1.0 (Stats.median [ Float.nan; 1.0; 2.0 ]);
  feq "order independent" 1.0 (Stats.median [ 2.0; Float.nan; 1.0 ]);
  feq "order independent 2" 1.0 (Stats.median [ 1.0; 2.0; Float.nan ]);
  let perms =
    [
      [ Float.nan; 1.0; 2.0; 3.0 ];
      [ 3.0; Float.nan; 2.0; 1.0 ];
      [ 1.0; 2.0; 3.0; Float.nan ];
    ]
  in
  let results = List.map Stats.median perms in
  match results with
  | r :: rest ->
    List.iter (fun r' -> feq "permutations agree" r r') rest
  | [] -> assert false

let test_stddev () =
  feq "constant" 0.0 (Stats.stddev [ 2.0; 2.0; 2.0 ]);
  feq "spread" 1.0 (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ])

let test_ratio_percent () =
  feq "ratio" 0.5 (Stats.ratio 1 2);
  feq "ratio div0" 0.0 (Stats.ratio 1 0);
  feq "percent" 25.0 (Stats.percent 1 4);
  feq "percent div0" 0.0 (Stats.percent 1 0)

let test_pearson () =
  feq "perfect positive" 1.0
    (Stats.pearson [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ]);
  feq "perfect negative" (-1.0)
    (Stats.pearson [ (1.0, 3.0); (2.0, 2.0); (3.0, 1.0) ]);
  feq "no variance" 0.0 (Stats.pearson [ (1.0, 5.0); (1.0, 7.0) ]);
  feq "too few" 0.0 (Stats.pearson [ (1.0, 1.0) ]);
  let r = Stats.pearson [ (1.0, 1.0); (2.0, 3.0); (3.0, 2.0); (4.0, 5.0) ] in
  Alcotest.(check bool) "moderate positive" true (r > 0.5 && r < 1.0)

let test_weighted_mean () =
  feq "weighted" 3.0 (Stats.weighted_mean [ (1.0, 1.0); (1.0, 5.0) ]);
  feq "weights matter" 5.0 (Stats.weighted_mean [ (0.0, 1.0); (2.0, 5.0) ]);
  feq "empty" 0.0 (Stats.weighted_mean [])

let test_binary_entropy () =
  (* 0 log2 0 = 0 at both edges *)
  feq "p=0" 0.0 (Stats.binary_entropy 0.0);
  feq "p=1" 0.0 (Stats.binary_entropy 1.0);
  feq "fair coin" 1.0 (Stats.binary_entropy 0.5);
  (* H(1/4) = 2 - (3/4) log2 3 *)
  feq "quarter" (2.0 -. (0.75 *. (log 3.0 /. log 2.0)))
    (Stats.binary_entropy 0.25);
  feq "symmetric" (Stats.binary_entropy 0.25) (Stats.binary_entropy 0.75);
  (* out-of-range and nan inputs clamp to certainty *)
  feq "clamped low" 0.0 (Stats.binary_entropy (-0.5));
  feq "clamped high" 0.0 (Stats.binary_entropy 2.0);
  feq "nan" 0.0 (Stats.binary_entropy Float.nan)

let test_entropy_bits () =
  feq "empty" 0.0 (Stats.entropy_bits []);
  feq "all zero" 0.0 (Stats.entropy_bits [ 0.0; 0.0 ]);
  feq "single outcome" 0.0 (Stats.entropy_bits [ 7.0 ]);
  feq "uniform 4" 2.0 (Stats.entropy_bits [ 1.0; 1.0; 1.0; 1.0 ]);
  (* zero-weight outcomes contribute nothing (0 log 0 = 0) *)
  feq "zero weights ignored" 1.0 (Stats.entropy_bits [ 3.0; 3.0; 0.0 ]);
  (* negative weights are treated as absent, not as mass *)
  feq "negative ignored" 1.0 (Stats.entropy_bits [ 2.0; 2.0; -5.0 ]);
  feq "matches binary" (Stats.binary_entropy 0.25)
    (Stats.entropy_bits [ 1.0; 3.0 ])

(* ---- environment knobs ----
   Unix.putenv cannot unset, but every Env reader treats "" as unset,
   so tests restore knobs by blanking them. *)

let with_env pairs f =
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Env.reset_warnings ();
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, _) -> Unix.putenv k "") pairs;
      Env.reset_warnings ())
    f

let with_warnings f =
  let captured = ref [] in
  let old = !Env.warn_hook in
  Env.warn_hook := (fun msg -> captured := msg :: !captured);
  Fun.protect ~finally:(fun () -> Env.warn_hook := old) (fun () ->
      let r = f () in
      (r, List.rev !captured))

let test_env_domains () =
  with_env [ ("FISHER92_DOMAINS", "") ] (fun () ->
      Alcotest.(check (option int)) "unset" None (Env.domains ()));
  with_env [ ("FISHER92_DOMAINS", "8") ] (fun () ->
      Alcotest.(check (option int)) "plain" (Some 8) (Env.domains ()));
  with_env [ ("FISHER92_DOMAINS", "potato") ] (fun () ->
      let v, warns = with_warnings Env.domains in
      Alcotest.(check (option int)) "unparsable -> default" None v;
      Alcotest.(check int) "one warning" 1 (List.length warns));
  with_env [ ("FISHER92_DOMAINS", "0") ] (fun () ->
      let v, warns = with_warnings Env.domains in
      Alcotest.(check (option int)) "clamped up" (Some 1) v;
      Alcotest.(check int) "warned" 1 (List.length warns));
  with_env [ ("FISHER92_DOMAINS", "9999") ] (fun () ->
      let v, warns = with_warnings Env.domains in
      Alcotest.(check (option int)) "clamped down" (Some 64) v;
      Alcotest.(check int) "warned" 1 (List.length warns))

let test_env_warns_once () =
  with_env [ ("FISHER92_DOMAINS", "junk") ] (fun () ->
      let (), warns =
        with_warnings (fun () ->
            ignore (Env.domains ());
            ignore (Env.domains ());
            ignore (Env.domains ()))
      in
      Alcotest.(check int) "deduplicated" 1 (List.length warns);
      Env.reset_warnings ();
      let (), warns = with_warnings (fun () -> ignore (Env.domains ())) in
      Alcotest.(check int) "re-armed after reset" 1 (List.length warns))

let test_env_shards () =
  with_env [ ("FISHER92_SHARDS", "") ] (fun () ->
      Alcotest.(check int) "default" 16 (Env.shards ()));
  with_env [ ("FISHER92_SHARDS", "4") ] (fun () ->
      Alcotest.(check int) "plain" 4 (Env.shards ()));
  with_env [ ("FISHER92_SHARDS", "three") ] (fun () ->
      let v, warns = with_warnings Env.shards in
      Alcotest.(check int) "unparsable -> default" 16 v;
      Alcotest.(check int) "warned" 1 (List.length warns));
  with_env [ ("FISHER92_SHARDS", "-2") ] (fun () ->
      Alcotest.(check int) "clamped up"
        1
        (fst (with_warnings Env.shards)));
  with_env [ ("FISHER92_SHARDS", "100000") ] (fun () ->
      Alcotest.(check int) "clamped down"
        256
        (fst (with_warnings Env.shards)))

let test_env_dirs () =
  with_env [ ("FISHER92_CACHE_DIR", "") ] (fun () ->
      Alcotest.(check string) "cache default"
        (Filename.concat "_build" ".fisher92-cache")
        (Env.cache_dir ()));
  with_env [ ("FISHER92_CACHE_DIR", "/tmp/c") ] (fun () ->
      Alcotest.(check string) "cache set" "/tmp/c" (Env.cache_dir ()));
  with_env [ ("FISHER92_TRACE_DIR", "") ] (fun () ->
      Alcotest.(check string) "trace default"
        (Filename.concat "_build" ".fisher92-traces")
        (Env.trace_dir ()));
  with_env [ ("FISHER92_TRACE_DIR", "/tmp/t") ] (fun () ->
      Alcotest.(check string) "trace set" "/tmp/t" (Env.trace_dir ()))

let test_env_flags () =
  List.iter
    (fun (name, read) ->
      with_env [ (name, "") ] (fun () ->
          Alcotest.(check bool) (name ^ " unset") true (read ()));
      with_env [ (name, "0") ] (fun () ->
          Alcotest.(check bool) (name ^ "=0") true (read ()));
      with_env [ (name, "1") ] (fun () ->
          Alcotest.(check bool) (name ^ "=1") false (read ()));
      with_env [ (name, "yes") ] (fun () ->
          Alcotest.(check bool) (name ^ "=yes") false (read ())))
    [
      ("FISHER92_NO_CACHE", Env.cache_enabled);
      ("FISHER92_NO_TRACE", Env.trace_enabled);
      ("FISHER92_NO_FSYNC", Env.fsync_enabled);
    ]

let test_env_crash_at () =
  with_env [ ("FISHER92_CRASH_AT", "") ] (fun () ->
      Alcotest.(check (option string)) "unset" None (Env.crash_at ()));
  with_env [ ("FISHER92_CRASH_AT", "wal.append.after:3") ] (fun () ->
      Alcotest.(check (option string)) "set"
        (Some "wal.append.after:3")
        (Env.crash_at ()))

let test_env_knobs_documented () =
  (* every knob the module reads appears in its documentation table *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " documented") true
        (List.mem_assoc name Env.knobs))
    [
      "FISHER92_DOMAINS"; "FISHER92_CACHE_DIR"; "FISHER92_NO_CACHE";
      "FISHER92_TRACE_DIR"; "FISHER92_NO_TRACE"; "FISHER92_SHARDS";
      "FISHER92_NO_FSYNC"; "FISHER92_CRASH_AT";
    ]

(* ---------- varint / zigzag ---------- *)

let varint_roundtrip n =
  let buf = Buffer.create 10 in
  Varint.add buf (Varint.zigzag n);
  let s = Buffer.contents buf in
  let pos = ref 0 in
  let back = Varint.unzigzag (Varint.read s pos) in
  (back, !pos, String.length s)

(* The sign smear must cover the whole word ([Sys.int_size - 1], not a
   hardcoded 62): pin the extreme magnitudes end-to-end through the
   encoder, which a wrong shift silently corrupts. *)
let test_zigzag_extremes () =
  Alcotest.(check int) "zigzag 0" 0 (Varint.zigzag 0);
  Alcotest.(check int) "zigzag -1" 1 (Varint.zigzag (-1));
  Alcotest.(check int) "zigzag 1" 2 (Varint.zigzag 1);
  Alcotest.(check int) "zigzag -2" 3 (Varint.zigzag (-2));
  List.iter
    (fun n ->
      let back, consumed, len = varint_roundtrip n in
      Alcotest.(check int) (Printf.sprintf "roundtrip %d" n) n back;
      Alcotest.(check int) "consumed all" len consumed)
    [ min_int; min_int + 1; max_int - 1; max_int; 0; 1; -1 ];
  (* a full-width zigzag needs exactly ceil(int_size / 7) LEB128 bytes *)
  let _, _, len = varint_roundtrip min_int in
  Alcotest.(check int) "min_int encoding width"
    ((Sys.int_size + 6) / 7)
    len

let prop_zigzag_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"zigzag/varint roundtrip"
    QCheck2.Gen.(
      oneof
        [
          int;
          oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ];
        ])
    (fun n ->
      let back, consumed, len = varint_roundtrip n in
      back = n && consumed = len)

let prop_zigzag_order =
  QCheck2.Test.make ~count:2000 ~name:"zigzag maps magnitude to magnitude"
    QCheck2.Gen.(int_range (-1_000_000) 1_000_000)
    (fun n ->
      (* |zigzag n| grows with |n|, so varint length tracks magnitude *)
      Varint.zigzag n = if n >= 0 then 2 * n else (-2 * n) - 1)

(* Together the two properties pin the decoder's accept set: it takes
   back every encoding, and anything it takes is the encoding of what
   it returns. *)
let prop_b64_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"b64 decode (encode s) = Some s"
    QCheck2.Gen.(string_size (int_bound 40))
    (fun s -> B64.decode (B64.encode s) = Some s)

(* Whole quads over the alphabet, '=' and a few bytes outside it: a
   non-zero pad bit, an inner '=' or whitespace would decode to bytes
   whose encoding is another string. *)
let prop_b64_canonical =
  let alphabet =
    List.init 64 (fun i ->
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/".[i])
  in
  QCheck2.Test.make ~count:5000
    ~name:"b64 decode x = Some b implies encode b = x"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      string_size
        ~gen:
          (frequency
             [
               (16, oneofl alphabet);
               (3, return '=');
               (1, oneofl [ ' '; '\n'; '*'; '\000'; '\255' ]);
             ])
        (map (fun q -> 4 * q) (int_bound 4)))
    (fun x ->
      match B64.decode x with Some b -> B64.encode b = x | None -> true)

(* The published FNV-1a 64-bit test vectors: every store key and
   section checksum in the repository is one of these hashes. *)
let test_fnv_vectors () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" input) want
        (Fnv.hex input))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ];
  Alcotest.(check string) "folding in pieces = hashing the whole"
    (Fnv.hex "foobar")
    (Fnv.to_hex (Fnv.fold (Fnv.fold Fnv.seed "foo") "bar"))

(* The nibble loop renders exactly what [Printf]'s ["%016Lx"] does:
   every section checksum, delta id, WAL record checksum, study-cache
   key and fingerprint goes through it. *)
let prop_fnv_to_hex =
  QCheck2.Test.make ~name:"to_hex = %016Lx" ~count:1000
    QCheck2.Gen.(
      oneof [ oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ]; int64 ])
    (fun h -> Fnv.to_hex h = Printf.sprintf "%016Lx" h)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "chance rate" `Quick test_chance_rate;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick_weighted" `Quick test_pick_weighted;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_split_independence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "geomean non-positive" `Quick
            test_geomean_nonpositive;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "min_max nan" `Quick test_min_max_nan;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "median nan" `Quick test_median_nan;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "ratio/percent" `Quick test_ratio_percent;
          Alcotest.test_case "weighted_mean" `Quick test_weighted_mean;
          Alcotest.test_case "binary_entropy" `Quick test_binary_entropy;
          Alcotest.test_case "entropy_bits" `Quick test_entropy_bits;
          Alcotest.test_case "pearson" `Quick test_pearson;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "FNV-1a-64 vectors" `Quick test_fnv_vectors;
          QCheck_alcotest.to_alcotest prop_fnv_to_hex;
        ] );
      ( "varint",
        [
          Alcotest.test_case "zigzag extremes pinned" `Quick
            test_zigzag_extremes;
          QCheck_alcotest.to_alcotest prop_zigzag_roundtrip;
          QCheck_alcotest.to_alcotest prop_zigzag_order;
        ] );
      ( "b64",
        [
          QCheck_alcotest.to_alcotest prop_b64_roundtrip;
          QCheck_alcotest.to_alcotest prop_b64_canonical;
        ] );
      ( "env",
        [
          Alcotest.test_case "domains knob" `Quick test_env_domains;
          Alcotest.test_case "warns once per knob" `Quick test_env_warns_once;
          Alcotest.test_case "shards knob" `Quick test_env_shards;
          Alcotest.test_case "directory knobs" `Quick test_env_dirs;
          Alcotest.test_case "flag knobs" `Quick test_env_flags;
          Alcotest.test_case "crash-at knob" `Quick test_env_crash_at;
          Alcotest.test_case "all knobs documented" `Quick
            test_env_knobs_documented;
        ] );
    ]
