type scheme =
  | Last_direction
  | Two_bit
  | Static of Prediction.t
  | Two_level of { history_bits : int }
  | Gshare of { history_bits : int }
  | Smith of { table_bits : int }
  | Bimode of { history_bits : int; choice_bits : int }
  | Tage of { table_bits : int; tag_bits : int; histories : int list }

let scheme_name = function
  | Last_direction -> "1-bit"
  | Two_bit -> "2-bit"
  | Static _ -> "static"
  | Two_level { history_bits } -> Printf.sprintf "2-level/%d" history_bits
  | Gshare { history_bits } -> Printf.sprintf "gshare/%d" history_bits
  | Smith { table_bits } -> Printf.sprintf "smith/%d" table_bits
  | Bimode { history_bits; choice_bits = _ } ->
    Printf.sprintf "bimode/%d" history_bits
  | Tage { histories; _ } ->
    Printf.sprintf "tage/%s"
      (String.concat "-" (List.map string_of_int histories))

(* Every parameter, unlike [scheme_name]: a key for stored replay
   results must tell apart schemes the tables print alike. *)
let scheme_spec = function
  | Last_direction -> "1-bit"
  | Two_bit -> "2-bit"
  | Static p ->
    "static "
    ^ Fisher92_util.Fnv.hex
        (String.init (Array.length p) (fun s -> if p.(s) then '1' else '0'))
  | Two_level { history_bits } ->
    Printf.sprintf "2-level history_bits=%d" history_bits
  | Gshare { history_bits } ->
    Printf.sprintf "gshare history_bits=%d" history_bits
  | Smith { table_bits } -> Printf.sprintf "smith table_bits=%d" table_bits
  | Bimode { history_bits; choice_bits } ->
    Printf.sprintf "bimode history_bits=%d choice_bits=%d" history_bits
      choice_bits
  | Tage { table_bits; tag_bits; histories } ->
    Printf.sprintf "tage table_bits=%d tag_bits=%d histories=%s" table_bits
      tag_bits
      (String.concat "," (List.map string_of_int histories))

(* Shared and pattern tables hold 2-bit counters, so they are packed
   one counter per byte: a 4096-entry gshare table is 4 KB instead of
   32 KB of boxed-int-free but 8-byte array words, which keeps every
   zoo scheme's working set L1-resident during replay.  Entries are
   masked before every access, so the unsafe byte accessors below are
   in range by construction. *)
let[@inline] bget b i = Char.code (Bytes.unsafe_get b i)
let[@inline] bset b i v = Bytes.unsafe_set b i (Char.unsafe_chr v)

(* One tagged TAGE component: entries are (tag, 2-bit counter, useful
   bit); [tg_tag] holds -1 for never-allocated entries so a cold table
   can never produce a spurious tag match. *)
type tagged = {
  tg_hmask : int;  (* the history bits this table consumes *)
  tg_mask : int;
  tg_tagmask : int;
  tg_tag : int array;
  tg_ctr : Bytes.t;  (* 2-bit counters, one per byte *)
  tg_useful : Bytes.t;  (* useful bits, '\000' / '\001' *)
}

type tage = {
  base : int array;  (* per-site 2-bit bimodal counters *)
  tables : tagged array;  (* shortest history first *)
  idxs : int array;  (* each table's row for the current event ... *)
  tags : int array;  (* ... and its tag, reused to allocate *)
  hmask : int;  (* the longest history's mask *)
}

type core =
  | Last of int array  (* 1-bit: each site's last outcome, 0/1 *)
  | State of int array  (* 2-bit: a 0..3 counter per site *)
  | Fixed of Prediction.t
  | Pattern of { table : Bytes.t; mask : int; xsel : int }
      (* [xsel] is -1 for gshare, which XORs the site into the index,
         and 0 for two-level *)
  | Shared of { table : Bytes.t; mask : int }  (* Smith: site-indexed *)
  | Split of {
      choice : Bytes.t;  (* per-site-hash 2-bit bank selectors *)
      cmask : int;
      d0 : Bytes.t;  (* the not-taken direction bank *)
      d1 : Bytes.t;  (* the taken one *)
      dmask : int;
    }
  | Tagged of tage

type t = {
  n_sites : int;
  core : core;
  mutable history : int;  (* newest outcome lowest; always 0 if unused *)
  tally : int array;
      (* at [2 * site + v]: the site's correct (v = 1) or incorrect
         (v = 0) verdicts; 2 * max 1 n_sites counters *)
}

let check_bits what bits =
  if bits < 1 || bits > 24 then
    invalid_arg (Printf.sprintf "Dynamic.create: %s out of [1, 24]" what)

let rec strictly_increasing = function
  | (a : int) :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | [] | [ _ ] -> true

let check_histories histories =
  let ok =
    histories <> []
    && List.length histories <= 4
    && List.for_all (fun h -> h >= 1 && h <= 24) histories
    && strictly_increasing histories
  in
  if not ok then
    invalid_arg
      "Dynamic.create: tage histories must be 1-4 strictly increasing \
       lengths in [1, 24]"

(* The saturating 2-bit update, one step toward the outcome, read at
   [2 * c + taken] so that it takes no branch on the outcome. *)
let bump_table = "\000\001\000\002\001\003\002\003"

let[@inline] bump c taken =
  Char.code (String.unsafe_get bump_table ((2 * c) + Bool.to_int taken))

(* Profile warming: seed exactly the state the IFPROB database can
   speak to.  Site-indexed counters take the warm direction weakly
   (one contrary outcome flips them); shared tables take a weak
   majority vote of the sites that alias to each entry; Bi-Mode's
   direction banks are biased their designed way and its choice table
   votes per entry; TAGE's tagged tables stay cold — their contents
   are history-dependent, which no per-site profile can know. *)
let seed core (w : Prediction.t) =
  let weak dir = if dir then 2 else 1 in
  let vote table mask per_entry_default =
    let votes = Array.make (Bytes.length table) 0 in
    let touched = Array.make (Bytes.length table) false in
    Array.iteri
      (fun s dir ->
        let i = s land mask in
        touched.(i) <- true;
        votes.(i) <- votes.(i) + if dir then 1 else -1)
      w;
    Array.iteri
      (fun i v ->
        if touched.(i) then
          (* ties take the taken side, matching Profile.majority_taken *)
          bset table i (weak (v >= 0))
        else bset table i per_entry_default)
      votes
  in
  match core with
  | Fixed _ -> ()
  | Last st -> Array.iteri (fun s dir -> st.(s) <- Bool.to_int dir) w
  | State st -> Array.iteri (fun s dir -> st.(s) <- weak dir) w
  | Pattern { table; _ } ->
    (* No per-pattern evidence exists statically; seed every entry
       weakly toward the profile's global majority so the cold
       all-zeros (strong not-taken) start stops penalizing
       majority-taken programs. *)
    let taken = Array.fold_left (fun n d -> n + Bool.to_int d) 0 w in
    let majority = 2 * taken >= Array.length w in
    Bytes.fill table 0 (Bytes.length table) (Char.chr (weak majority))
  | Shared { table; mask } -> vote table mask 0
  | Split { choice; cmask; d0; d1; _ } ->
    vote choice cmask 0;
    Bytes.fill d0 0 (Bytes.length d0) '\001';
    Bytes.fill d1 0 (Bytes.length d1) '\002'
  | Tagged { base; _ } -> Array.iteri (fun s dir -> base.(s) <- weak dir) w

(* ---- the per-scheme update rules ---- *)

let bad_site t site =
  invalid_arg
    (Printf.sprintf
       "Dynamic.hook: site %d out of range for a %d-site predictor (trace \
        and build disagree?)"
       site t.n_sites)

(* Tally one verdict on an already range-checked [site], at
   [2 * site + verdict] without a branch on the verdict, and encode a
   step's result: bit 0 = correct, bit 1 = some stored value changed. *)
let[@inline] record t site ok changed =
  let v = Bool.to_int ok in
  let k = (2 * site) + v in
  Array.unsafe_set t.tally k (Array.unsafe_get t.tally k + 1);
  v lor (Bool.to_int changed lsl 1)

let[@inline] push t hmask taken =
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land hmask

(* TAGE's prediction from table [q] at the row cached in [idxs], or
   from the per-site base when [q] is -1 (no tag matched) *)
let[@inline] tage_pred g site q =
  if q >= 0 then
    bget (Array.unsafe_get g.tables q).tg_ctr (Array.unsafe_get g.idxs q) >= 2
  else Array.unsafe_get g.base site >= 2

(* TAGE's arm of {!step}, out of line: copied into every caller of
   [step] it would outweigh all the other arms together. *)
let tage_step t g site taken =
  let tables = g.tables and idxs = g.idxs and tags = g.tags in
  let nt = Array.length tables in
  (* The provider is the longest-history tagged table whose tag
     matches; the alternate is the next such table (or the base
     bimodal).  Both are needed: prediction comes from the provider,
     the useful bit is set only when provider and alternate disagree.
     -1 stands for the base. *)
  let prov = ref (-1) and alt = ref (-1) in
  for q = nt - 1 downto 0 do
    let tg = Array.unsafe_get tables q in
    (* index and tag are deterministic integer mixes of the site and
       the table's slice of history; [land] with a positive mask keeps
       them non-negative whatever the products overflow to *)
    let h = t.history land tg.tg_hmask in
    let x = (site * 0x9E3779B1) lxor (h * 0x85EBCA6B) in
    let idx = (x lxor (x lsr 15)) land tg.tg_mask in
    let y =
      ((h lxor 0x5bd1e995) * 0x9E3779B1)
      lxor ((site + 0x27d4eb2f) * 0x85EBCA6B)
    in
    let tag = (y lxor (y lsr 15)) land tg.tg_tagmask in
    Array.unsafe_set idxs q idx;
    Array.unsafe_set tags q tag;
    if Array.unsafe_get tg.tg_tag idx = tag then
      if !prov < 0 then prov := q else if !alt < 0 then alt := q
  done;
  let predicted = tage_pred g site !prov in
  let altpred = tage_pred g site !alt in
  let ok = predicted = taken in
  let changed = ref false in
  (if !prov >= 0 then begin
     let tg = Array.unsafe_get tables !prov in
     let idx = Array.unsafe_get idxs !prov in
     let c = bget tg.tg_ctr idx in
     let c' = bump c taken in
     bset tg.tg_ctr idx c';
     changed := c' <> c;
     let u = Bool.to_int ok in
     if predicted <> altpred && bget tg.tg_useful idx <> u then begin
       bset tg.tg_useful idx u;
       changed := true
     end
   end
   else begin
     let c = Array.unsafe_get g.base site in
     let c' = bump c taken in
     Array.unsafe_set g.base site c';
     changed := c' <> c
   end);
  if not ok then begin
    (* Allocate one entry in a longer-history table, preferring the
       shortest; a useful entry is never evicted — instead all
       candidate useful bits decay, so a stubborn row frees up after
       repeated allocation pressure. *)
    let allocated = ref false in
    for q = !prov + 1 to nt - 1 do
      let tg = Array.unsafe_get tables q in
      let idx = Array.unsafe_get idxs q in
      if (not !allocated) && bget tg.tg_useful idx = 0 then begin
        Array.unsafe_set tg.tg_tag idx (Array.unsafe_get tags q);
        bset tg.tg_ctr idx (if taken then 2 else 1);
        allocated := true
      end
    done;
    if not !allocated then
      for q = !prov + 1 to nt - 1 do
        bset (Array.unsafe_get tables q).tg_useful (Array.unsafe_get idxs q) 0
      done;
    changed := true
  end;
  push t g.hmask taken;
  record t site ok !changed

(* [step t site taken] is the scheme's whole behaviour on one dynamic
   branch: range-check the site, predict, tally, then update the tables
   and the history register.  Each scheme's rule is one arm, written
   once; [hook], {!periodic_skip} and {!hook_batch} inline the match,
   so the replay loop calls out only for TAGE.  It returns bit 0 =
   verdict and bit 1 = some table write changed a stored value —
   together with [t.history] that is everything {!periodic_skip} needs
   to detect a fixpoint, so streaming and batched replay both run
   exactly this code.  A changed bit may be conservative (set for a
   write that happened to store the same value), never the other way
   round. *)
let[@inline] step t site taken =
  if site < 0 || site >= t.n_sites then bad_site t site;
  match t.core with
  | Last st ->
    let c = Array.unsafe_get st site in
    let c' = Bool.to_int taken in
    Array.unsafe_set st site c';
    record t site ((c = 1) = taken) (c' <> c)
  | State st ->
    let c = Array.unsafe_get st site in
    let c' = bump c taken in
    Array.unsafe_set st site c';
    record t site ((c >= 2) = taken) (c' <> c)
  | Fixed p -> record t site (Array.unsafe_get p site = taken) false
  | Shared { table; mask } ->
    let i = site land mask in
    let c = bget table i in
    let c' = bump c taken in
    bset table i c';
    record t site ((c >= 2) = taken) (c' <> c)
  | Pattern { table; mask; xsel } ->
    let i = (t.history lxor (site land xsel)) land mask in
    let c = bget table i in
    let c' = bump c taken in
    bset table i c';
    push t mask taken;
    record t site ((c >= 2) = taken) (c' <> c)
  | Split { choice; cmask; d0; d1; dmask } ->
    let ci = site land cmask in
    let cc = bget choice ci in
    let sel = cc >= 2 in
    let bank = if sel then d1 else d0 in
    let di = (t.history lxor site) land dmask in
    let c = bget bank di in
    let ok = (c >= 2) = taken in
    let c' = bump c taken in
    bset bank di c';
    (* Bi-Mode choice rule: don't update the selector when it disagreed
       with the outcome but the selected bank still predicted correctly
       — that agreement is the bank's bias doing its job, not evidence
       about this site. *)
    let cc' = if ok && sel <> taken then cc else bump cc taken in
    bset choice ci cc';
    push t dmask taken;
    record t site ok (c' <> c || cc' <> cc)
  | Tagged g -> tage_step t g site taken

let create ?warm scheme ~n_sites =
  (match warm with
  | Some w when Array.length w <> n_sites ->
    invalid_arg
      (Printf.sprintf
         "Dynamic.create: warm prediction covers %d sites but the predictor \
          tracks %d"
         (Array.length w) n_sites)
  | _ -> ());
  let core =
    match scheme with
    | Last_direction -> Last (Array.make (Int.max 1 n_sites) 0)
    | Two_bit -> State (Array.make (Int.max 1 n_sites) 0)
    | Static p ->
      if Array.length p <> n_sites then
        invalid_arg
          (Printf.sprintf
             "Dynamic.create: static prediction covers %d sites but the \
              trace has %d (profile from a different build?)"
             (Array.length p) n_sites);
      Fixed p
    | Two_level { history_bits } | Gshare { history_bits } ->
      check_bits "history_bits" history_bits;
      let size = 1 lsl history_bits in
      Pattern
        {
          table = Bytes.make size '\000';
          mask = size - 1;
          xsel = (match scheme with Gshare _ -> -1 | _ -> 0);
        }
    | Smith { table_bits } ->
      check_bits "table_bits" table_bits;
      let size = 1 lsl table_bits in
      Shared { table = Bytes.make size '\000'; mask = size - 1 }
    | Bimode { history_bits; choice_bits } ->
      check_bits "history_bits" history_bits;
      check_bits "choice_bits" choice_bits;
      let dsize = 1 lsl history_bits and csize = 1 lsl choice_bits in
      Split
        {
          choice = Bytes.make csize '\000';
          cmask = csize - 1;
          d0 = Bytes.make dsize '\000';
          d1 = Bytes.make dsize '\000';
          dmask = dsize - 1;
        }
    | Tage { table_bits; tag_bits; histories } ->
      check_bits "table_bits" table_bits;
      if tag_bits < 1 || tag_bits > 16 then
        invalid_arg "Dynamic.create: tag_bits out of [1, 16]";
      check_histories histories;
      let size = 1 lsl table_bits in
      let tables =
        Array.of_list
          (List.map
             (fun h ->
               {
                 tg_hmask = (1 lsl h) - 1;
                 tg_mask = size - 1;
                 tg_tagmask = (1 lsl tag_bits) - 1;
                 tg_tag = Array.make size (-1);
                 tg_ctr = Bytes.make size '\000';
                 tg_useful = Bytes.make size '\000';
               })
             histories)
      in
      let nt = Array.length tables in
      Tagged
        {
          base = Array.make (Int.max 1 n_sites) 0;
          tables;
          idxs = Array.make nt 0;
          tags = Array.make nt 0;
          hmask = tables.(nt - 1).tg_hmask;
        }
  in
  (match warm with Some w -> seed core w | None -> ());
  {
    n_sites;
    core;
    history = 0;
    tally = Array.make (2 * Int.max 1 n_sites) 0;
  }

let hook t site taken = ignore (step t site taken : int)

(* ---- batched replay ---- *)

(* [m] identical verdicts at once on an already-stepped [site] *)
let[@inline] tally_n t site ok m =
  let k = (2 * site) + Bool.to_int ok in
  Array.unsafe_set t.tally k (Array.unsafe_get t.tally k + m)

(* Fast-forward a [p]-periodic stretch of [len] events starting at
   [i0]: ev.(j) = ev.(j - p) for every event of the stretch (a steady
   loop iteration, or with [p] = 1 a run of identical events).  The
   driver steps whole periods, recording each phase's verdict; once a
   full period is quiet — no write changed a value and the history
   register came back to its period-start value — the state is at a
   fixpoint of the period, so by induction every remaining event meets
   the same state as its phase did and repeats the recorded verdict.
   Detecting the fixpoint only through actual value changes keeps this
   exact for every scheme: a period that is still training (or
   oscillating) never goes quiet and is simply stepped. *)
let periodic_skip t sites tk vbuf i0 p len =
  let i = ref i0 and left = ref len in
  let quiet = ref false in
  while (not !quiet) && !left >= 2 * p do
    let h0 = t.history in
    let ch = ref 0 in
    for q = 0 to p - 1 do
      let j = !i + q in
      let r =
        step t (Array.unsafe_get sites j) (Bytes.unsafe_get tk j <> '\000')
      in
      Bytes.unsafe_set vbuf q (Char.unsafe_chr (r land 1));
      ch := !ch lor (r land 2)
    done;
    i := !i + p;
    left := !left - p;
    quiet := !ch = 0 && t.history = h0
  done;
  if !quiet then begin
    (* [m] whole periods remain; each phase [q] repeats the verdict
       recorded during the last stepped period, on the same site
       (periodicity makes sites.(!i + q) safe to read: it equals the
       stepped sites.(!i + q - p)).  Only full periods are bulk-tallied
       — a partial trailing period must be stepped so the history
       register leaves the stretch holding the right outcomes. *)
    let m = !left / p in
    for q = 0 to p - 1 do
      tally_n t
        (Array.unsafe_get sites (!i + q))
        (Bytes.unsafe_get vbuf q <> '\000')
        m
    done;
    i := !i + (m * p);
    left := !left - (m * p)
  end;
  (* the partial trailing period, and any stretch that never went
     quiet, is simply stepped *)
  while !left > 0 do
    let j = !i in
    ignore
      (step t (Array.unsafe_get sites j) (Bytes.unsafe_get tk j <> '\000'));
    incr i;
    decr left
  done

(* [hook_batch t] is a chunk consumer equivalent to calling {!hook} on
   every event of the chunk: one generic driver over {!step}.
   The [pr] array marks certified periodic stretches ([(len lsl 7) lor
   p] at the head of a [p]-periodic stretch of [len] events, 0
   elsewhere); the [rl] array gives the length of the run of identical
   events at every other head.  A run of length 1 is one step; a longer
   run is a 1-periodic stretch, so both go through {!periodic_skip} and
   its quiet-fixpoint induction.  Exactness does not need the runs or
   stretches to be maximal, so one split at a chunk boundary is just
   two shorter ones. *)
let hook_batch t =
  let vbuf = Bytes.create 128 in
  fun sites tk rl pr n ->
    let i = ref 0 in
    while !i < n do
      let i0 = !i in
      let pd = Array.unsafe_get pr i0 in
      if pd > 0 then begin
        periodic_skip t sites tk vbuf i0 (pd land 0x7f) (pd lsr 7);
        i := i0 + (pd lsr 7)
      end
      else begin
        let k = Array.unsafe_get rl i0 in
        if k = 1 then
          ignore
            (step t (Array.unsafe_get sites i0)
               (Bytes.unsafe_get tk i0 <> '\000'))
        else periodic_skip t sites tk vbuf i0 1 k;
        i := i0 + k
      end
    done

let simulate_runs ?warm scheme ~n_sites feed =
  let t = create ?warm scheme ~n_sites in
  feed (hook_batch t);
  t

let reset_counts t = Array.fill t.tally 0 (Array.length t.tally) 0

let simulate ?warm scheme ~n_sites replay =
  let t = create ?warm scheme ~n_sites in
  replay (hook t);
  t

(* each site's tally of verdict [v] (1 correct, 0 incorrect) *)
let per_site t v =
  Array.init (Array.length t.tally / 2) (fun s -> t.tally.((2 * s) + v))

let site_correct t = per_site t 1
let site_incorrect t = per_site t 0
let correct t = Array.fold_left ( + ) 0 (site_correct t)
let incorrect t = Array.fold_left ( + ) 0 (site_incorrect t)

let percent_correct t =
  let c = correct t in
  Fisher92_util.Stats.percent c (c + incorrect t)

(* ---- the rules' identity ---- *)

(* Every scheme shape, each in a size small enough that the 24 sites
   below alias in its tables and in the registry zoo's size. *)
let digest_schemes warm =
  [
    Last_direction;
    Two_bit;
    Static warm;
    Smith { table_bits = 3 };
    Smith { table_bits = 8 };
    Two_level { history_bits = 4 };
    Two_level { history_bits = 10 };
    Gshare { history_bits = 4 };
    Gshare { history_bits = 12 };
    Bimode { history_bits = 4; choice_bits = 3 };
    Bimode { history_bits = 12; choice_bits = 10 };
    Tage { table_bits = 3; tag_bits = 3; histories = [ 2; 5; 9 ] };
    Tage { table_bits = 7; tag_bits = 8; histories = [ 4; 8; 16 ] };
  ]

(* A fixed, seeded 4,096-event stream over 24 sites, mixing the
   behaviours the rules treat differently: biased sites, counted loops,
   alternation, outcomes correlated with the previous branch, and
   coin flips, visited mostly in a fixed program order. *)
let digest_stream () =
  let module Rng = Fisher92_util.Rng in
  let n_sites = 24 in
  let rng = Rng.create 0x5eed in
  let kind = Array.init n_sites (fun _ -> Rng.int rng 6) in
  let trip = Array.init n_sites (fun _ -> Rng.int_in rng 2 9) in
  let visits = Array.make n_sites 0 in
  let last = ref false and site = ref 0 in
  let events =
    Array.init 4096 (fun _ ->
        site :=
          if Rng.chance rng 0.75 then (!site + 1) mod n_sites
          else Rng.int rng n_sites;
        let s = !site in
        visits.(s) <- visits.(s) + 1;
        let taken =
          match kind.(s) with
          | 0 -> Rng.chance rng 0.9
          | 1 -> Rng.chance rng 0.1
          | 2 -> visits.(s) mod trip.(s) <> 0
          | 3 -> visits.(s) land 1 = 0
          | 4 -> !last <> Rng.chance rng 0.1
          | _ -> Rng.bool rng
        in
        last := taken;
        (s, taken))
  in
  let warm = Array.init n_sites (fun _ -> Rng.bool rng) in
  (n_sites, events, warm)

let compute_rules_digest () =
  let n_sites, events, warm = digest_stream () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun scheme ->
      List.iter
        (fun seed ->
          let t =
            simulate ?warm:seed scheme ~n_sites (fun hook ->
                Array.iter (fun (s, taken) -> hook s taken) events)
          in
          Buffer.add_string buf (scheme_spec scheme);
          let incorrect = site_incorrect t in
          Array.iteri
            (fun s c ->
              Buffer.add_string buf (Printf.sprintf " %d/%d" c incorrect.(s)))
            (site_correct t);
          Buffer.add_char buf '\n')
        [ None; Some warm ])
    (digest_schemes warm);
  Fisher92_util.Fnv.hex (Buffer.contents buf)

(* Computed once per process; racing domains compute the same value. *)
let rules_memo = Atomic.make None

let rules_digest () =
  match Atomic.get rules_memo with
  | Some d -> d
  | None ->
    let d = compute_rules_digest () in
    Atomic.set rules_memo (Some d);
    d
