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

type core =
  | State of int array  (* per-site: 0/1 (1-bit) or 0..3 (2-bit) *)
  | Fixed of Prediction.t
  | Pattern of { table : Bytes.t; mask : int; xor_site : bool }
  | Shared of { table : Bytes.t; mask : int }  (* Smith: site-indexed *)
  | Split of {
      choice : Bytes.t;  (* per-site-hash 2-bit bank selectors *)
      cmask : int;
      dir : Bytes.t array;  (* dir.(0) not-taken bank, dir.(1) taken *)
      dmask : int;
    }
  | Tagged of { base : int array; tables : tagged array }

type t = {
  n_sites : int;
  mutable history : int;  (* newest outcome lowest; always 0 if unused *)
  mutable correct : int;
  mutable incorrect : int;
  site_correct : int array;
  site_incorrect : int array;
  mutable step : int -> bool -> int;  (* set once, by [create] *)
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

(* Int.min/max: Stdlib's polymorphic min/max make a C call per update *)
let[@inline] bump c taken =
  if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)

(* Profile warming: seed exactly the state the IFPROB database can
   speak to.  Site-indexed counters take the warm direction weakly
   (one contrary outcome flips them); shared tables take a weak
   majority vote of the sites that alias to each entry; Bi-Mode's
   direction banks are biased their designed way and its choice table
   votes per entry; TAGE's tagged tables stay cold — their contents
   are history-dependent, which no per-site profile can know. *)
let seed scheme core (w : Prediction.t) =
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
  | State st ->
    let one_bit = scheme = Last_direction in
    Array.iteri
      (fun s dir -> st.(s) <- (if one_bit then Bool.to_int dir else weak dir))
      w
  | Pattern { table; _ } ->
    (* No per-pattern evidence exists statically; seed every entry
       weakly toward the profile's global majority so the cold
       all-zeros (strong not-taken) start stops penalizing
       majority-taken programs. *)
    let taken = Array.fold_left (fun n d -> n + Bool.to_int d) 0 w in
    let majority = 2 * taken >= Array.length w in
    Bytes.fill table 0 (Bytes.length table) (Char.chr (weak majority))
  | Shared { table; mask } -> vote table mask 0
  | Split { choice; cmask; dir; _ } ->
    vote choice cmask 0;
    Bytes.fill dir.(0) 0 (Bytes.length dir.(0)) '\001';
    Bytes.fill dir.(1) 0 (Bytes.length dir.(1)) '\002'
  | Tagged { base; _ } -> Array.iteri (fun s dir -> base.(s) <- weak dir) w

(* ---- the per-scheme update rules ---- *)

let bad_site t site =
  invalid_arg
    (Printf.sprintf
       "Dynamic.hook: site %d out of range for a %d-site predictor (trace \
        and build disagree?)"
       site t.n_sites)

let[@inline] check t site =
  if site < 0 || site >= t.n_sites then bad_site t site

(* Tally one verdict on an already range-checked [site] and encode a
   step's result: bit 0 = correct, bit 1 = some stored value changed. *)
let[@inline] record t site ok changed =
  if ok then begin
    t.correct <- t.correct + 1;
    Array.unsafe_set t.site_correct site
      (Array.unsafe_get t.site_correct site + 1)
  end
  else begin
    t.incorrect <- t.incorrect + 1;
    Array.unsafe_set t.site_incorrect site
      (Array.unsafe_get t.site_incorrect site + 1)
  end;
  Bool.to_int ok lor (Bool.to_int changed lsl 1)

let[@inline] push t hmask taken =
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land hmask

(* TAGE's prediction from table [q] at the row cached in [idxs], or
   from the per-site base when [q] is -1 (no tag matched) *)
let[@inline] tage_pred tables idxs base site q =
  if q >= 0 then
    bget (Array.unsafe_get tables q).tg_ctr (Array.unsafe_get idxs q) >= 2
  else Array.unsafe_get base site >= 2

(* [step_of t scheme core] is the scheme's whole behaviour on one
   dynamic branch: range-check the site, predict, tally, then update
   the tables and the history register.  It returns bit 0 = verdict and bit 1 = some table
   write changed a stored value — together with [t.history] that is
   everything {!periodic_skip} needs to detect a fixpoint, so streaming
   and batched replay both run exactly this code.  A changed bit may be
   conservative (set for a write that happened to store the same value),
   never the other way round. *)
let step_of t scheme core =
  match core with
  | State st when scheme = Last_direction ->
    fun site taken ->
      check t site;
      let c = Array.unsafe_get st site in
      let c' = Bool.to_int taken in
      Array.unsafe_set st site c';
      record t site ((c = 1) = taken) (c' <> c)
  | State st ->
    fun site taken ->
      check t site;
      let c = Array.unsafe_get st site in
      let c' = bump c taken in
      Array.unsafe_set st site c';
      record t site ((c >= 2) = taken) (c' <> c)
  | Fixed p ->
    fun site taken ->
      check t site;
      record t site (Array.unsafe_get p site = taken) false
  | Shared { table; mask } ->
    fun site taken ->
      check t site;
      let i = site land mask in
      let c = bget table i in
      let c' = bump c taken in
      bset table i c';
      record t site ((c >= 2) = taken) (c' <> c)
  | Pattern { table; mask; xor_site } ->
    (* [site land xsel] is [site] for gshare and 0 for plain two-level *)
    let xsel = if xor_site then -1 else 0 in
    fun site taken ->
      check t site;
      let i = (t.history lxor (site land xsel)) land mask in
      let c = bget table i in
      let c' = bump c taken in
      bset table i c';
      push t mask taken;
      record t site ((c >= 2) = taken) (c' <> c)
  | Split { choice; cmask; dir; dmask } ->
    let d0 = dir.(0) and d1 = dir.(1) in
    fun site taken ->
      check t site;
      let ci = site land cmask in
      let cc = bget choice ci in
      let sel = cc >= 2 in
      let bank = if sel then d1 else d0 in
      let di = (t.history lxor site) land dmask in
      let c = bget bank di in
      let ok = (c >= 2) = taken in
      let c' = bump c taken in
      bset bank di c';
      (* Bi-Mode choice rule: don't update the selector when it
         disagreed with the outcome but the selected bank still
         predicted correctly — that agreement is the bank's bias doing
         its job, not evidence about this site. *)
      let cc' = if ok && sel <> taken then cc else bump cc taken in
      bset choice ci cc';
      push t dmask taken;
      record t site ok (c' <> c || cc' <> cc)
  | Tagged { base; tables } ->
    let nt = Array.length tables in
    let hmask = tables.(nt - 1).tg_hmask in
    (* each table's row and tag for the current event, so allocation
       after a mispredict reuses them *)
    let idxs = Array.make nt 0 and tags = Array.make nt 0 in
    fun site taken ->
      check t site;
      (* The provider is the longest-history tagged table whose tag
         matches; the alternate is the next such table (or the base
         bimodal).  Both are needed: prediction comes from the
         provider, the useful bit is set only when provider and
         alternate disagree.  -1 stands for the base. *)
      let prov = ref (-1) and alt = ref (-1) in
      for q = nt - 1 downto 0 do
        let tg = Array.unsafe_get tables q in
        (* index and tag are deterministic integer mixes of the site and
           the table's slice of history; [land] with a positive mask
           keeps them non-negative whatever the products overflow to *)
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
      let predicted = tage_pred tables idxs base site !prov in
      let altpred = tage_pred tables idxs base site !alt in
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
         let c = Array.unsafe_get base site in
         let c' = bump c taken in
         Array.unsafe_set base site c';
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
            bset (Array.unsafe_get tables q).tg_useful
              (Array.unsafe_get idxs q) 0
          done;
        changed := true
      end;
      push t hmask taken;
      record t site ok !changed

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
    | Last_direction | Two_bit -> State (Array.make (Int.max 1 n_sites) 0)
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
          xor_site = (match scheme with Gshare _ -> true | _ -> false);
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
          dir = [| Bytes.make dsize '\000'; Bytes.make dsize '\000' |];
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
      Tagged { base = Array.make (Int.max 1 n_sites) 0; tables }
  in
  let t =
    {
      n_sites;
      history = 0;
      correct = 0;
      incorrect = 0;
      site_correct = Array.make (Int.max 1 n_sites) 0;
      site_incorrect = Array.make (Int.max 1 n_sites) 0;
      step = (fun _ _ -> 0);
    }
  in
  t.step <- step_of t scheme core;
  (match warm with Some w -> seed scheme core w | None -> ());
  t

let hook t site taken = ignore (t.step site taken : int)

(* ---- batched replay ---- *)

(* [m] identical verdicts at once on an already-stepped [site] *)
let[@inline] tally_n t site ok m =
  if ok then begin
    t.correct <- t.correct + m;
    Array.unsafe_set t.site_correct site
      (Array.unsafe_get t.site_correct site + m)
  end
  else begin
    t.incorrect <- t.incorrect + m;
    Array.unsafe_set t.site_incorrect site
      (Array.unsafe_get t.site_incorrect site + m)
  end

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
  let step = t.step in
  let i = ref i0 and left = ref len in
  let quiet = ref false in
  while (not !quiet) && !left >= 2 * p do
    let h0 = t.history in
    let ch = ref 0 in
    for q = 0 to p - 1 do
      let j = !i + q in
      let r =
        step (Array.unsafe_get sites j) (Bytes.unsafe_get tk j <> '\000')
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
    ignore (step (Array.unsafe_get sites j) (Bytes.unsafe_get tk j <> '\000'));
    incr i;
    decr left
  done

(* [hook_batch t] is a chunk consumer equivalent to calling {!hook} on
   every event of the chunk: one generic driver over the scheme's step.
   The [pr] array marks certified periodic stretches ([(len lsl 7) lor
   p] at the head of a [p]-periodic stretch of [len] events, 0
   elsewhere); the [rl] array gives the length of the run of identical
   events at every other head.  A run of length 1 is one step; a longer
   run is a 1-periodic stretch, so both go through {!periodic_skip} and
   its quiet-fixpoint induction.  Exactness does not need the runs or
   stretches to be maximal, so one split at a chunk boundary is just
   two shorter ones. *)
let hook_batch t =
  let step = t.step in
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
            (step (Array.unsafe_get sites i0)
               (Bytes.unsafe_get tk i0 <> '\000'))
        else periodic_skip t sites tk vbuf i0 1 k;
        i := i0 + k
      end
    done

let simulate_runs ?warm scheme ~n_sites feed =
  let t = create ?warm scheme ~n_sites in
  feed (hook_batch t);
  t

let reset_counts t =
  t.correct <- 0;
  t.incorrect <- 0;
  Array.fill t.site_correct 0 (Array.length t.site_correct) 0;
  Array.fill t.site_incorrect 0 (Array.length t.site_incorrect) 0

let simulate ?warm scheme ~n_sites replay =
  let t = create ?warm scheme ~n_sites in
  replay (hook t);
  t

let correct t = t.correct
let incorrect t = t.incorrect
let site_correct t = Array.copy t.site_correct
let site_incorrect t = Array.copy t.site_incorrect

let percent_correct t =
  Fisher92_util.Stats.percent t.correct (t.correct + t.incorrect)

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
          Array.iteri
            (fun s c ->
              Buffer.add_string buf
                (Printf.sprintf " %d/%d" c t.site_incorrect.(s)))
            t.site_correct;
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
