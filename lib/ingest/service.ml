(* The crash-safe concurrent ingest service.

   Durability protocol, per submission:
     classify + encode the WAL record -> enter gate -> [wal_lock: dedup
     id, WAL append+fsync, insert id] -> sharded merge -> exit gate ->
     ack.
   The gate is a counter of in-flight submitters plus a [compacting]
   flag: compaction raises the flag (blocking new entries) and waits
   for the counter to reach zero, so when it snapshots the merge every
   WAL-appended record has also been merged — an acknowledged delta can
   never fall between the log and the snapshot.

   Compaction folds base database + merge snapshot into a fresh
   database saved at generation [g+1] (atomic rename), then resets the
   WAL to [g+1].  Recovery replays the WAL only into a database of the
   same generation (see {!Wal}); a crash at any point therefore loses
   at most deltas that were never acknowledged, and never applies a
   record twice.

   Stale clients — deltas carrying a different build fingerprint — go
   through the same structural remapping the prediction planner uses
   ({!Fisher92_predict.Remap.correspondence}); sites without a unique
   counterpart are dropped and counted.  Malformed deltas never reach
   the WAL: they are quarantined with a reason. *)

module Sectfile = Fisher92_util.Sectfile
module Profile = Fisher92_profile.Profile
module Db = Fisher92_profile.Db
module Remap = Fisher92_predict.Remap

let db_basename = "ifprob.db"
let db_path ~dir = Filename.concat dir db_basename
let spool_dir ~dir = Filename.concat dir "spool"
let quarantine_dir ~dir = Filename.concat dir "quarantine"

type config = {
  c_dir : string;
  c_program : string;
  c_n_sites : int;
  c_fingerprint : string;  (* the pool build's program_hash *)
  c_sitekeys : string array;  (* one per site of the pool build *)
  c_shards : int option;  (* None = FISHER92_SHARDS knob *)
}

type outcome =
  | Acked
  | Duplicate
  | Acked_remapped of int  (* stale client; n counter entries dropped *)
  | Quarantined of string

let outcome_name = function
  | Acked -> "acked"
  | Duplicate -> "duplicate"
  | Acked_remapped n -> Printf.sprintf "acked-remapped (%d entries dropped)" n
  | Quarantined reason -> "quarantined: " ^ reason

type stats = {
  mutable st_accepted : int;  (* acked, fresh or remapped *)
  mutable st_duplicates : int;
  mutable st_remapped : int;  (* of accepted: via the stale-client path *)
  mutable st_dropped_entries : int;  (* counter entries lost to remap *)
  mutable st_quarantined : int;  (* rejected deltas, moved db/WAL files *)
  mutable st_compactions : int;
  mutable st_replayed : int;  (* WAL records re-applied by recovery *)
}

type t = {
  cfg : config;
  mutable base : Db.t;  (* the last compacted state *)
  merge : Merge.t;
  wal : Wal.t;
  ids : (string, unit) Hashtbl.t;  (* every id ever WAL-appended *)
  wal_lock : Mutex.t;  (* serializes dedup-check + append *)
  gate_lock : Mutex.t;
  gate_cond : Condition.t;
  mutable active : int;  (* submitters past the gate *)
  mutable compacting : bool;
  stats : stats;
  mutable notes : string list;  (* recovery/salvage notes, reversed *)
}

let stats t = t.stats
let notes t = List.rev t.notes
let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt
let base_db t = t.base
let pending t = Merge.total t.merge
let config t = t.cfg

(* ---- the stale-client degradation chain ---- *)

(* Classify a decoded delta against the pool build.  Returns the
   entry arrays to merge (the delta's own, or remapped when stale) or
   the quarantine reason.  Pure with respect to service state, so
   recovery replays records through the same logic. *)
let classify cfg (d : Delta.t) =
  if not (String.equal d.Delta.d_program cfg.c_program) then
    Error
      (Printf.sprintf "program mismatch (%s, pool holds %s)"
         d.Delta.d_program cfg.c_program)
  else if String.equal d.Delta.d_fingerprint cfg.c_fingerprint then
    if d.Delta.d_n_sites <> cfg.c_n_sites then
      Error "fingerprint matches but site count does not"
    else Ok (d.Delta.d_sites, d.Delta.d_enc, d.Delta.d_taken, None)
  else
    match d.Delta.d_keys with
    | None -> Error "stale fingerprint and no site keys to remap by"
    | Some client_keys ->
      let corr =
        Remap.correspondence ~from_keys:client_keys ~to_keys:cfg.c_sitekeys
      in
      let n = Array.length d.Delta.d_sites in
      let sites = Array.make n 0 and enc = Array.make n 0 in
      let taken = Array.make n 0 in
      let kept = ref 0 in
      for i = 0 to n - 1 do
        match corr.(d.Delta.d_sites.(i)) with
        | Some pool_s ->
          sites.(!kept) <- pool_s;
          enc.(!kept) <- d.Delta.d_enc.(i);
          taken.(!kept) <- d.Delta.d_taken.(i);
          incr kept
        | None -> ()
      done;
      let k = !kept in
      Ok
        ( Array.sub sites 0 k,
          Array.sub enc 0 k,
          Array.sub taken 0 k,
          Some (n - k) )

(* ---- the compaction gate ---- *)

let enter_gate t =
  Mutex.lock t.gate_lock;
  while t.compacting do
    Condition.wait t.gate_cond t.gate_lock
  done;
  t.active <- t.active + 1;
  Mutex.unlock t.gate_lock

let exit_gate t =
  Mutex.lock t.gate_lock;
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.gate_cond;
  Mutex.unlock t.gate_lock

(* ---- submission ---- *)

let submit t (d : Delta.t) =
  match classify t.cfg d with
  | Error reason ->
    t.stats.st_quarantined <- t.stats.st_quarantined + 1;
    Quarantined reason
  | Ok (sites, enc, taken, remap_drops) ->
    (* The original delta goes to the log — replay remaps it against
       whatever build the pool holds at recovery.  Its record is a pure
       function of the delta, so it is encoded here, in the submitter's
       own domain, and the WAL lock covers only the id check, the
       append and the insert. *)
    let line = Wal.record_line d in
    enter_gate t;
    Fun.protect ~finally:(fun () -> exit_gate t) @@ fun () ->
    let fresh =
      Mutex.protect t.wal_lock (fun () ->
          if Hashtbl.mem t.ids d.Delta.d_id then false
          else begin
            Wal.append t.wal line;
            Hashtbl.replace t.ids d.Delta.d_id ();
            true
          end)
    in
    if not fresh then begin
      t.stats.st_duplicates <- t.stats.st_duplicates + 1;
      Duplicate
    end
    else begin
      Merge.merge t.merge ~label:d.Delta.d_label sites enc taken;
      t.stats.st_accepted <- t.stats.st_accepted + 1;
      match remap_drops with
      | None -> Acked
      | Some n ->
        t.stats.st_remapped <- t.stats.st_remapped + 1;
        t.stats.st_dropped_entries <- t.stats.st_dropped_entries + n;
        Acked_remapped n
    end

(* ---- compaction ---- *)

(* Fold base + merge snapshot into a fresh database (saturating), one
   generation up. *)
let folded t =
  let cfg = t.cfg in
  let fresh = Db.create ~program:cfg.c_program ~n_sites:cfg.c_n_sites in
  Db.set_identity fresh ~fingerprint:cfg.c_fingerprint
    ~sitekeys:cfg.c_sitekeys;
  let snap = Merge.snapshot t.merge in
  let snap_profile (_, enc, taken) =
    { Profile.program = cfg.c_program; encountered = enc; taken }
  in
  let snap_tbl = Hashtbl.create 8 in
  List.iter (fun ((l, _, _) as s) -> Hashtbl.replace snap_tbl l s) snap;
  (* Base datasets first (file order), merged saturating with any
     pending counters under the same label. *)
  List.iter
    (fun ds ->
      let p = Db.profile t.base ~dataset:ds in
      let p =
        match Hashtbl.find_opt snap_tbl ds with
        | Some s ->
          Hashtbl.remove snap_tbl ds;
          Profile.sat_add p (snap_profile s)
        | None -> p
      in
      Db.record fresh ~dataset:ds p)
    (Db.datasets t.base);
  (* Labels new to this round, in snapshot (sorted) order. *)
  List.iter
    (fun ((l, _, _) as s) ->
      if Hashtbl.mem snap_tbl l then Db.record fresh ~dataset:l (snap_profile s))
    snap;
  Db.set_generation fresh (Db.generation t.base + 1);
  fresh

let compact t =
  Mutex.lock t.gate_lock;
  while t.compacting do
    Condition.wait t.gate_cond t.gate_lock
  done;
  t.compacting <- true;
  while t.active > 0 do
    Condition.wait t.gate_cond t.gate_lock
  done;
  Mutex.unlock t.gate_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.gate_lock;
      t.compacting <- false;
      Condition.broadcast t.gate_cond;
      Mutex.unlock t.gate_lock)
    (fun () ->
      let fresh = folded t in
      Db.save_file fresh (db_path ~dir:t.cfg.c_dir);
      (* The database now holds generation g+1; resetting the log to
         g+1 re-arms replay.  A crash before this line leaves a stale
         gen-g log that recovery discards — nothing applies twice. *)
      Wal.reset t.wal ~generation:(Db.generation fresh);
      t.base <- fresh;
      Merge.clear t.merge;
      (* The id table survives compaction on purpose: an in-flight
         retry of an already-folded delta must still read Duplicate. *)
      t.stats.st_compactions <- t.stats.st_compactions + 1)

let close ?(fold = true) t =
  if fold && pending t > 0 then compact t;
  Wal.close t.wal

(* ---- recovery / open ---- *)

let fresh_stats () =
  {
    st_accepted = 0;
    st_duplicates = 0;
    st_remapped = 0;
    st_dropped_entries = 0;
    st_quarantined = 0;
    st_compactions = 0;
    st_replayed = 0;
  }

(* Rebase a database recorded against an older build onto the current
   one: every dataset's counters travel through the structural
   correspondence; sites without a unique counterpart lose their
   counters (reported). *)
let rebase cfg old_db =
  let fresh = Db.create ~program:cfg.c_program ~n_sites:cfg.c_n_sites in
  Db.set_identity fresh ~fingerprint:cfg.c_fingerprint
    ~sitekeys:cfg.c_sitekeys;
  Db.set_generation fresh (Db.generation old_db);
  match Db.sitekeys old_db with
  | None -> (fresh, -1)  (* nothing to match by: counters unsalvageable *)
  | Some old_keys ->
    let corr = Remap.correspondence ~from_keys:old_keys ~to_keys:cfg.c_sitekeys in
    let dropped = ref 0 in
    List.iter
      (fun ds ->
        let p = Db.profile old_db ~dataset:ds in
        let enc = Array.make cfg.c_n_sites 0 in
        let taken = Array.make cfg.c_n_sites 0 in
        Array.iteri
          (fun s e ->
            if e > 0 then
              match corr.(s) with
              | Some j ->
                enc.(j) <- e;
                taken.(j) <- p.Profile.taken.(s)
              | None -> incr dropped)
          p.Profile.encountered;
        Db.record fresh ~dataset:ds
          { Profile.program = cfg.c_program; encountered = enc; taken })
      (Db.datasets old_db);
    (fresh, !dropped)

let quarantine_file ~dir src reason =
  let qdir = quarantine_dir ~dir in
  Sectfile.mkdir_p qdir;
  let base = Filename.basename src in
  let rec free n =
    let cand =
      Filename.concat qdir
        (if n = 0 then base else Printf.sprintf "%s.%d" base n)
    in
    if Sys.file_exists cand then free (n + 1) else cand
  in
  let dst = free 0 in
  Sys.rename src dst;
  Sectfile.write_atomic ~path:(dst ^ ".reason") ~tmp_prefix:"reason"
    (reason ^ "\n");
  dst

let open_ cfg =
  if Array.length cfg.c_sitekeys <> cfg.c_n_sites then
    invalid_arg "Service.open_: one site key per site required";
  Sectfile.mkdir_p cfg.c_dir;
  Sectfile.mkdir_p (spool_dir ~dir:cfg.c_dir);
  Sectfile.mkdir_p (quarantine_dir ~dir:cfg.c_dir);
  let stats = fresh_stats () in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* 1. The base database: whatever survives in it, rebased on a stale
     identity, fresh otherwise.  A file in another format holds nothing
     salvageable, and compaction would overwrite it, so it is
     quarantined whole. *)
  let dbp = db_path ~dir:cfg.c_dir in
  let fresh () =
    let db = Db.create ~program:cfg.c_program ~n_sites:cfg.c_n_sites in
    Db.set_identity db ~fingerprint:cfg.c_fingerprint ~sitekeys:cfg.c_sitekeys;
    db
  in
  let base =
    if not (Sys.file_exists dbp) then fresh ()
    else
      let db, report = Db.load_lenient (Sectfile.read_file dbp) in
      match report.Db.r_dropped with
      | [] -> db
      | i :: _ when report.Db.r_version = 0 ->
        stats.st_quarantined <- stats.st_quarantined + 1;
        let dst =
          quarantine_file ~dir:cfg.c_dir dbp
            (Printf.sprintf "line %d: %s" i.Db.i_line i.Db.i_reason)
        in
        note "database unreadable (line %d: %s); quarantined as %s"
          i.Db.i_line i.Db.i_reason (Filename.basename dst);
        fresh ()
      | i :: _ ->
        note
          "database damaged (line %d: %s); salvaged %d dataset(s), dropped %d \
           issue(s)"
          i.Db.i_line i.Db.i_reason
          (List.length report.Db.r_recovered)
          (List.length report.Db.r_dropped);
        db
  in
  let db_gen = Db.generation base in
  let base =
    if
      Db.program base = cfg.c_program
      && Db.n_sites base = cfg.c_n_sites
      && Db.fingerprint base = Some cfg.c_fingerprint
    then base
    else begin
      let rebased, dropped = rebase cfg base in
      if dropped < 0 then
        note "database identity mismatch and no site keys: counters dropped"
      else
        note "database recorded against a stale build: rebased, %d site counter(s) dropped"
          dropped;
      rebased
    end
  in
  (* 2. The WAL: replay into a same-generation database, discard a
     stale one, quarantine an unreadable one. *)
  let replayed =
    match Wal.replay ~dir:cfg.c_dir with
    | replayed -> replayed
    | exception Sectfile.Bad (line, msg) ->
      stats.st_quarantined <- stats.st_quarantined + 1;
      let dst =
        quarantine_file ~dir:cfg.c_dir
          (Wal.path ~dir:cfg.c_dir)
          (Printf.sprintf "line %d: %s" line msg)
      in
      note "WAL head unreadable (line %d: %s); quarantined as %s" line msg
        (Filename.basename dst);
      None
  in
  let merge = Merge.create ?shards:cfg.c_shards ~n_sites:cfg.c_n_sites () in
  let ids = Hashtbl.create 64 in
  let wal =
    match replayed with
    | Some r when r.Wal.rp_generation = db_gen ->
      List.iter
        (fun (line, reason) -> note "WAL record dropped at line %d: %s" line reason)
        r.Wal.rp_dropped;
      (* Re-apply every intact record through the same classification
         as live submission; the merge is empty, so this reconstructs
         exactly the un-compacted state. *)
      List.iter
        (fun (d : Delta.t) ->
          if not (Hashtbl.mem ids d.Delta.d_id) then begin
            Hashtbl.replace ids d.Delta.d_id ();
            match classify cfg d with
            | Ok (sites, enc, taken, remap_drops) ->
              Merge.merge merge ~label:d.Delta.d_label sites enc taken;
              stats.st_replayed <- stats.st_replayed + 1;
              (match remap_drops with
              | Some n -> stats.st_dropped_entries <- stats.st_dropped_entries + n
              | None -> ())
            | Error reason ->
              note "WAL record %s no longer applies: %s" d.Delta.d_id reason
          end)
        r.Wal.rp_deltas;
      if stats.st_replayed > 0 then
        note "replayed %d WAL record(s)" stats.st_replayed;
      Wal.attach ~dir:cfg.c_dir ~program:cfg.c_program
        ~n_sites:cfg.c_n_sites ~fingerprint:cfg.c_fingerprint
        ~generation:db_gen
    | Some r ->
      note
        "stale WAL discarded (log generation %d, database generation %d): \
         its records were already folded"
        r.Wal.rp_generation db_gen;
      Wal.create ~dir:cfg.c_dir ~program:cfg.c_program
        ~n_sites:cfg.c_n_sites ~fingerprint:cfg.c_fingerprint
        ~generation:db_gen
    | None ->
      Wal.create ~dir:cfg.c_dir ~program:cfg.c_program
        ~n_sites:cfg.c_n_sites ~fingerprint:cfg.c_fingerprint
        ~generation:db_gen
  in
  {
    cfg;
    base;
    merge;
    wal;
    ids;
    wal_lock = Mutex.create ();
    gate_lock = Mutex.create ();
    gate_cond = Condition.create ();
    active = 0;
    compacting = false;
    stats;
    notes = !notes;
  }

(* ---- the spool: file-based submission ---- *)

type drain = {
  dr_acked : int;
  dr_duplicates : int;
  dr_quarantined : int;
}

let drain_spool t =
  let dir = t.cfg.c_dir in
  let sdir = spool_dir ~dir in
  let files =
    Sys.readdir sdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".delta")
    |> List.sort compare
  in
  let acked = ref 0 and dups = ref 0 and quar = ref 0 in
  List.iter
    (fun f ->
      let path = Filename.concat sdir f in
      match Delta.parse (Sectfile.read_file path) with
      | exception Sectfile.Bad (line, msg) ->
        incr quar;
        t.stats.st_quarantined <- t.stats.st_quarantined + 1;
        let reason = Printf.sprintf "line %d: %s" line msg in
        ignore (quarantine_file ~dir path reason);
        note t "spool file %s quarantined: %s" f reason
      | d -> (
        match submit t d with
        | Acked | Acked_remapped _ ->
          incr acked;
          Sys.remove path
        | Duplicate ->
          incr dups;
          Sys.remove path
        | Quarantined reason ->
          incr quar;
          ignore (quarantine_file ~dir path reason);
          note t "spool file %s quarantined: %s" f reason))
    files;
  { dr_acked = !acked; dr_duplicates = !dups; dr_quarantined = !quar }
