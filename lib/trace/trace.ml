module Sectfile = Fisher92_util.Sectfile
module B64 = Fisher92_util.B64
module Env = Fisher92_util.Env

(* Bump on any change to the codec or the section layout: old traces
   then fail the header check and are recaptured, never misparsed. *)
let format_version = 1
let b64_width = 76

type meta = {
  t_program : string;
  t_dataset : string;
  t_fingerprint : string;
  t_dshash : string;
  t_n_sites : int;
  t_events : int;
}

(* ---- varints and zigzag (the shared Fisher92_util.Varint codec;
   decode errors surface as [Sectfile.Bad] so the store and the fault
   corpus treat format damage and payload damage identically) ---- *)

let add_varint = Fisher92_util.Varint.add
let zigzag = Fisher92_util.Varint.zigzag
let unzigzag = Fisher92_util.Varint.unzigzag
let corrupt fmt = Sectfile.failf 0 fmt
let read_varint = Fisher92_util.Varint.read

(* ---- capture ---- *)

module Writer = struct
  type t = {
    program : string;
    dataset : string;
    fingerprint : string;
    dshash : string;
    n_sites : int;
    sites_buf : Buffer.t;
    taken_buf : Buffer.t;
    next : int array;  (* successor model: next.(2*site + taken), -1 = cold *)
    mutable prev_site : int;
    mutable prev_taken : bool;
    mutable have_prev : bool;
    mutable hits : int;  (* pending run of successor-model hits *)
    mutable first_taken : bool;
    mutable run_taken : bool;
    mutable run_len : int;  (* pending taken-direction run *)
    mutable events : int;
  }

  let create ~program ~dataset ~fingerprint ~dshash ~n_sites =
    if n_sites < 0 then invalid_arg "Trace.Writer.create: negative n_sites";
    {
      program;
      dataset;
      fingerprint;
      dshash;
      n_sites;
      sites_buf = Buffer.create 4096;
      taken_buf = Buffer.create 1024;
      next = Array.make (Int.max 1 (2 * n_sites)) (-1);
      prev_site = 0;
      prev_taken = false;
      have_prev = false;
      hits = 0;
      first_taken = false;
      run_taken = false;
      run_len = 0;
      events = 0;
    }

  let feed t site taken =
    if site < 0 || site >= t.n_sites then
      invalid_arg "Trace.Writer.feed: site out of range";
    (* site stream: successor-model hit runs, explicit deltas on miss *)
    let slot = (2 * t.prev_site) + Bool.to_int t.prev_taken in
    let predicted = if t.have_prev then t.next.(slot) else -1 in
    if t.have_prev && predicted = site then t.hits <- t.hits + 1
    else begin
      add_varint t.sites_buf t.hits;
      add_varint t.sites_buf
        (zigzag (site - if t.have_prev then t.prev_site else 0));
      t.hits <- 0
    end;
    if t.have_prev then t.next.(slot) <- site;
    t.prev_site <- site;
    t.prev_taken <- taken;
    t.have_prev <- true;
    (* taken stream: alternating run lengths *)
    if t.events = 0 then begin
      t.first_taken <- taken;
      t.run_taken <- taken;
      t.run_len <- 1
    end
    else if taken = t.run_taken then t.run_len <- t.run_len + 1
    else begin
      add_varint t.taken_buf t.run_len;
      t.run_taken <- taken;
      t.run_len <- 1
    end;
    t.events <- t.events + 1

  let events t = t.events

  (* Pending runs are flushed into copies, so rendering is pure. *)
  let payloads t =
    let sites = Buffer.create (Buffer.length t.sites_buf + 10) in
    Buffer.add_buffer sites t.sites_buf;
    if t.hits > 0 then add_varint sites t.hits;
    let taken = Buffer.create (Buffer.length t.taken_buf + 11) in
    if t.events > 0 then begin
      Buffer.add_char taken (if t.first_taken then '\001' else '\000');
      Buffer.add_buffer taken t.taken_buf;
      add_varint taken t.run_len
    end;
    (Buffer.contents sites, Buffer.contents taken)

  let render t =
    let sites_payload, taken_payload = payloads t in
    let buf = Buffer.create (1024 + (String.length sites_payload * 2)) in
    Buffer.add_string buf
      (Printf.sprintf "fisher92trace %d\n" format_version);
    Sectfile.add_section buf ~header:"meta"
      ~body:
        [
          "program " ^ Sectfile.sized t.program;
          "dataset " ^ Sectfile.sized t.dataset;
          "fingerprint " ^ t.fingerprint;
          "dshash " ^ t.dshash;
          Printf.sprintf "sites %d" t.n_sites;
          Printf.sprintf "events %d" t.events;
          Printf.sprintf "sitebytes %d" (String.length sites_payload);
          Printf.sprintf "takenbytes %d" (String.length taken_payload);
        ]
      ~end_tag:"endmeta";
    Sectfile.add_section buf ~header:"sites"
      ~body:(B64.wrap ~width:b64_width (B64.encode sites_payload))
      ~end_tag:"endsites";
    Sectfile.add_section buf ~header:"taken"
      ~body:(B64.wrap ~width:b64_width (B64.encode taken_payload))
      ~end_tag:"endtaken";
    Buffer.add_string buf "end\n";
    Buffer.contents buf
end

(* ---- replay ---- *)

module Reader = struct
  type t = { meta : meta; sites_payload : string; taken_payload : string }

  let field ~line prefix l =
    if String.starts_with ~prefix:(prefix ^ " ") l then
      String.sub l
        (String.length prefix + 1)
        (String.length l - String.length prefix - 1)
    else Sectfile.failf line "expected %S field, got %S" prefix l

  let int_field ~line prefix l =
    match int_of_string_opt (field ~line prefix l) with
    | Some n when n >= 0 -> n
    | Some _ | None -> Sectfile.failf line "bad %S count in %S" prefix l

  let decode_payload ~what ~declared body =
    match B64.decode (String.concat "" body) with
    | None -> corrupt "undecodable base64 in the %s section" what
    | Some payload ->
      if String.length payload <> declared then
        corrupt "%s payload is %d bytes, meta declares %d" what
          (String.length payload) declared;
      payload

  let of_string text =
    let c = Sectfile.cursor (Sectfile.split_lines text) in
    Sectfile.expect c (Printf.sprintf "fisher92trace %d" format_version);
    let meta, sitebytes, takenbytes =
      match Sectfile.strict_section c ~header:"meta" ~end_tag:"endmeta" with
      | [ prog; ds; fp; dh; sites; events; sb; tb ] ->
        let line = 0 in
        ( {
            t_program =
              Sectfile.parse_sized ~line ~what:"program"
                (field ~line "program" prog);
            t_dataset =
              Sectfile.parse_sized ~line ~what:"dataset"
                (field ~line "dataset" ds);
            t_fingerprint = field ~line "fingerprint" fp;
            t_dshash = field ~line "dshash" dh;
            t_n_sites = int_field ~line "sites" sites;
            t_events = int_field ~line "events" events;
          },
          int_field ~line "sitebytes" sb,
          int_field ~line "takenbytes" tb )
      | body -> corrupt "meta section has %d lines, want 8" (List.length body)
    in
    let sites_body =
      Sectfile.strict_section c ~header:"sites" ~end_tag:"endsites"
    in
    let taken_body =
      Sectfile.strict_section c ~header:"taken" ~end_tag:"endtaken"
    in
    Sectfile.expect c "end";
    if not (Sectfile.at_end c) then corrupt "trailing lines after end";
    {
      meta;
      sites_payload =
        decode_payload ~what:"sites" ~declared:sitebytes sites_body;
      taken_payload =
        decode_payload ~what:"taken" ~declared:takenbytes taken_body;
    }

  let meta t = t.meta

  let payload_bytes t =
    String.length t.sites_payload + String.length t.taken_payload

  let iter t f =
    let total = t.meta.t_events and n_sites = t.meta.t_n_sites in
    if total = 0 then begin
      if t.sites_payload <> "" || t.taken_payload <> "" then
        corrupt "payload bytes on an empty trace"
    end
    else begin
      (* taken stream: initial direction byte, then alternating runs *)
      if String.length t.taken_payload = 0 then corrupt "empty taken stream";
      let first_bit =
        match t.taken_payload.[0] with
        | '\000' -> false
        | '\001' -> true
        | c -> corrupt "bad initial-direction byte %d" (Char.code c)
      in
      let tpos = ref 1 in
      let bit = ref (not first_bit) and left = ref 0 in
      let take_taken () =
        if !left = 0 then begin
          bit := not !bit;
          let r = read_varint t.taken_payload tpos in
          if r <= 0 then corrupt "empty taken run";
          left := r
        end;
        decr left;
        !bit
      in
      (* site stream: replays the writer's successor model *)
      let next = Array.make (Int.max 1 (2 * n_sites)) (-1) in
      let spos = ref 0 in
      let prev = ref 0 and prev_taken = ref false and have_prev = ref false in
      let hits_left = ref (-1) in
      let take_site () =
        if !hits_left < 0 then hits_left := read_varint t.sites_payload spos;
        if !hits_left > 0 then begin
          decr hits_left;
          if not !have_prev then corrupt "hit run before any explicit site";
          let p = next.((2 * !prev) + Bool.to_int !prev_taken) in
          if p < 0 then corrupt "hit run without a trained successor";
          p
        end
        else begin
          hits_left := -1;
          let d = unzigzag (read_varint t.sites_payload spos) in
          let s = (if !have_prev then !prev else 0) + d in
          if s < 0 || s >= n_sites then corrupt "site %d out of range" s;
          s
        end
      in
      for _ = 1 to total do
        let site = take_site () in
        let taken = take_taken () in
        if !have_prev then
          next.((2 * !prev) + Bool.to_int !prev_taken) <- site;
        prev := site;
        prev_taken := taken;
        have_prev := true;
        f site taken
      done;
      if !hits_left > 0 then corrupt "site stream continues past the events";
      if !spos <> String.length t.sites_payload then
        corrupt "leftover bytes in the sites stream";
      if !left <> 0 then corrupt "taken run continues past the events";
      if !tpos <> String.length t.taken_payload then
        corrupt "leftover bytes in the taken stream"
    end

  let counts t =
    let n = t.meta.t_n_sites in
    let encountered = Array.make n 0 and taken = Array.make n 0 in
    iter t (fun site tk ->
        encountered.(site) <- encountered.(site) + 1;
        if tk then taken.(site) <- taken.(site) + 1);
    (encountered, taken)

  (* 8k events keep the chunk's working set — the four decoded buffers
     plus the consumers' tables — inside L2 even with six simulations
     fanned over one decode, measurably faster than larger chunks *)
  let default_chunk = 1 lsl 13

  (* The run-level decoder behind batched simulation: same streams and
     strictness as [iter], but decoded a chunk at a time into flat
     buffers plus a run-length array (the length of each maximal
     stretch of identical (site, taken) events, written at the
     stretch's first index), so consumers get tight array loops — and
     O(1) fast-forwarding over runs — instead of a closure call per
     event.  Within a chunk the taken stream is decoded before the site
     stream (the successor model trains on the previous event's
     outcome), so which of two corruptions raises first can differ from
     [iter]; both always raise [Sectfile.Bad]. *)
  let iter_runs ?(chunk = default_chunk) t f =
    if chunk <= 0 then invalid_arg "Trace.Reader.iter_runs: chunk not positive";
    let total = t.meta.t_events and n_sites = t.meta.t_n_sites in
    if total = 0 then begin
      if t.sites_payload <> "" || t.taken_payload <> "" then
        corrupt "payload bytes on an empty trace"
    end
    else begin
      (* taken stream: initial direction byte, then alternating runs *)
      if String.length t.taken_payload = 0 then corrupt "empty taken stream";
      let first_bit =
        match t.taken_payload.[0] with
        | '\000' -> false
        | '\001' -> true
        | c -> corrupt "bad initial-direction byte %d" (Char.code c)
      in
      let tpos = ref 1 in
      let bit = ref (not first_bit) and left = ref 0 in
      (* site stream: replays the writer's successor model.  [slot] is
         the trained-successor index for the previous event —
         [2 * prev + Bool.to_int prev_taken], or -1 before the first
         event — cached so the hit lookup and the training write share
         one computation; it is always in range for [next] because
         [prev] was range-checked when it was decoded. *)
      let next = Array.make (Int.max 1 (2 * n_sites)) (-1) in
      let sp = t.sites_payload in
      let slen = String.length sp in
      let spos = ref 0 in
      let prev = ref 0 and slot = ref (-1) in
      let hits_left = ref (-1) in
      (* one-byte fast path for the overwhelmingly common short varints
         (hit-run counts < 128, site deltas in [-64, 63]); anything
         longer — or a read at the very end — falls back to the strict
         shared reader from the same position, so error behaviour is
         identical *)
      let read_site_varint () =
        let p = !spos in
        if p < slen then begin
          let b = Char.code (String.unsafe_get sp p) in
          if b < 0x80 then begin
            spos := p + 1;
            b
          end
          else read_varint sp spos
        end
        else read_varint sp spos
      in
      let tp = t.taken_payload in
      let tlen = String.length tp in
      let read_taken_varint () =
        let p = !tpos in
        if p < tlen then begin
          let b = Char.code (String.unsafe_get tp p) in
          if b < 0x80 then begin
            tpos := p + 1;
            b
          end
          else read_varint tp tpos
        end
        else read_varint tp tpos
      in
      let cap = Int.min chunk total in
      let st = Array.make cap 0 in
      let tk = Bytes.make cap '\000' in
      let rl = Array.make cap 0 in
      let pr = Array.make cap 0 in
      let fill_taken n =
        let i = ref 0 in
        while !i < n do
          if !left = 0 then begin
            bit := not !bit;
            let r = read_taken_varint () in
            if r <= 0 then corrupt "empty taken run";
            left := r
          end;
          let run = Int.min !left (n - !i) in
          let c = if !bit then '\001' else '\000' in
          (* short runs dominate some workloads; writing them inline
             avoids a C call per one-or-two-byte [Bytes.fill] *)
          if run < 16 then
            for j = !i to !i + run - 1 do
              Bytes.unsafe_set tk j c
            done
          else Bytes.fill tk !i run c;
          left := !left - run;
          i := !i + run
        done
      in
      (* One pass decodes the sites and derives the run and period
         structure.  The per-event key [2 * site + direction] the
         successor model trains on doubles as the gap-scan key: an
         event's gap is the distance back to the chunk's previous event
         with the same key, so gap 1 means the event extends the
         current run, and a maximal stretch of constant gap [p]
         satisfies ev.(i) = ev.(i - p) throughout — the shape a steady
         loop iteration leaves in the trace.  Usable stretches ([p] in
         [2, 64], length >= 3p) are marked at their head as
         [(len lsl 7) lor p]; every other entry is 0.  A stretch whose
         successor event has gap 1 would otherwise swallow the head of
         a same-direction run, so it is trimmed by one event to keep
         every post-stretch position a run head. *)
      (* [lastocc] holds global event indices ([gbase] counts the
         events of the finished chunks), so it is filled once, not per
         chunk, and gap continuity carries across chunk boundaries — a
         stretch cut by a boundary restarts at the new chunk's head
         with its gap intact instead of paying the warm-up again. *)
      let lastocc = Array.make (Int.max 1 (2 * n_sites)) (-1) in
      let gbase = ref 0 in
      let fill_sites n =
        let h = ref 0 in
        let start = ref 0 and cur = ref 0 in
        let close j trim =
          let p = !cur in
          if p >= 2 && p <= 64 then begin
            let len = j - !start - Bool.to_int trim in
            if len >= 3 * p then Array.unsafe_set pr !start ((len lsl 7) lor p)
          end
        in
        for i = 0 to n - 1 do
          if !hits_left < 0 then hits_left := read_site_varint ();
          let site =
            if !hits_left > 0 then begin
              (* a hit IS the trained successor, so re-training the
                 slot with it would store what is already there *)
              decr hits_left;
              if !slot < 0 then corrupt "hit run before any explicit site";
              let p = Array.unsafe_get next !slot in
              if p < 0 then corrupt "hit run without a trained successor";
              p
            end
            else begin
              hits_left := -1;
              let d = unzigzag (read_site_varint ()) in
              let s = (if !slot >= 0 then !prev else 0) + d in
              if s < 0 || s >= n_sites then corrupt "site %d out of range" s;
              if !slot >= 0 then Array.unsafe_set next !slot s;
              s
            end
          in
          Array.unsafe_set st i site;
          prev := site;
          let key =
            (2 * site) + Bool.to_int (Bytes.unsafe_get tk i <> '\000')
          in
          slot := key;
          Array.unsafe_set pr i 0;
          let gi = !gbase + i in
          let last = Array.unsafe_get lastocc key in
          let g = if last < 0 then 0 else gi - last in
          Array.unsafe_set lastocc key gi;
          if g <> 1 && i > 0 then begin
            Array.unsafe_set rl !h (i - !h);
            h := i
          end;
          if g <> !cur then begin
            close i (g = 1);
            start := i;
            cur := g
          end
        done;
        Array.unsafe_set rl !h (n - !h);
        close n false
      in
      let remaining = ref total in
      while !remaining > 0 do
        let n = Int.min cap !remaining in
        fill_taken n;
        fill_sites n;
        gbase := !gbase + n;
        remaining := !remaining - n;
        f st tk rl pr n
      done;
      if !hits_left > 0 then corrupt "site stream continues past the events";
      if !spos <> String.length t.sites_payload then
        corrupt "leftover bytes in the sites stream";
      if !left <> 0 then corrupt "taken run continues past the events";
      if !tpos <> String.length t.taken_payload then
        corrupt "leftover bytes in the taken stream"
    end
end

(* ---- the on-disk store ---- *)

module Store = struct
  let enabled () = Env.trace_enabled ()
  let dir () = Env.trace_dir ()

  (* File names carry the whole key, so distinct builds and datasets
     never collide; the program name prefix is purely for humans. *)
  let path ~program ~fingerprint ~dshash =
    Filename.concat (dir ())
      (Printf.sprintf "%s.%s.%s.trace" program fingerprint dshash)

  let load ~program ~dataset ~fingerprint ~dshash ~n_sites =
    if not (enabled ()) then None
    else
      match Sectfile.read_file (path ~program ~fingerprint ~dshash) with
      | exception Sys_error _ -> None
      | exception End_of_file -> None
      | text -> (
        match Reader.of_string text with
        | exception Sectfile.Bad _ -> None
        | r ->
          let m = Reader.meta r in
          if
            String.equal m.t_program program
            && String.equal m.t_dataset dataset
            && String.equal m.t_fingerprint fingerprint
            && String.equal m.t_dshash dshash
            && m.t_n_sites = n_sites
          then Some r
          else None)

  let save (w : Writer.t) =
    let text = Writer.render w in
    if enabled () then begin
      (* Best-effort: a read-only or vanished store directory must never
         fail the caller, so every syscall error is swallowed here. *)
      try
        Sectfile.mkdir_p (dir ());
        Sectfile.write_atomic
          ~path:
            (path ~program:w.Writer.program ~fingerprint:w.Writer.fingerprint
               ~dshash:w.Writer.dshash)
          ~tmp_prefix:"trace" text
      with Sys_error _ -> ()
    end;
    text

  (* ---- replay entries ---- *)

  (* Bump on any change to the entry layout. *)
  let replay_version = 1

  (* The file name carries the trace key and a digest of the replay
     key, so differently configured replays of one trace coexist. *)
  let replay_path ~program ~fingerprint ~dshash ~key =
    Filename.concat (dir ())
      (Printf.sprintf "%s.%s.%s.%s.replay" program fingerprint dshash
         (Fisher92_util.Fnv.hash_strings key))

  (* The meta section is a canonical rendering of the whole key, so an
     entry matches a request exactly when the two renderings are
     equal. *)
  let replay_meta ~program ~dataset ~fingerprint ~dshash ~n_sites ~key =
    [
      "program " ^ Sectfile.sized program;
      "dataset " ^ Sectfile.sized dataset;
      "fingerprint " ^ fingerprint;
      "dshash " ^ dshash;
      Printf.sprintf "sites %d" n_sites;
    ]
    @ List.map (fun k -> "key " ^ Sectfile.sized k) key

  (* One line per tally: [c0 i0 c1 i1 ...], a (correct, incorrect) pair
     per site. *)
  let tally_line ~n_sites (correct, incorrect) =
    String.concat " "
      (List.concat
         (List.init n_sites (fun s ->
              [ string_of_int correct.(s); string_of_int incorrect.(s) ])))

  (* Strict: exactly [2 * n_sites] fields, each a non-negative decimal
     in canonical form (no sign, no leading zero, no underscore). *)
  let parse_tally ~n_sites line =
    let fields =
      if String.equal line "" then [||]
      else Array.of_list (String.split_on_char ' ' line)
    in
    if Array.length fields <> 2 * n_sites then
      corrupt "tally has %d fields, want %d" (Array.length fields)
        (2 * n_sites);
    let count f =
      match int_of_string_opt f with
      | Some n when n >= 0 && String.equal (string_of_int n) f -> n
      | Some _ | None -> corrupt "bad tally %S" f
    in
    ( Array.init n_sites (fun s -> count fields.(2 * s)),
      Array.init n_sites (fun s -> count fields.((2 * s) + 1)) )

  let parse_replay ~meta ~n_sites text =
    let c = Sectfile.cursor (Sectfile.split_lines text) in
    Sectfile.expect c (Printf.sprintf "fisher92replay %d" replay_version);
    if
      not
        (List.equal String.equal meta
           (Sectfile.strict_section c ~header:"meta" ~end_tag:"endmeta"))
    then corrupt "replay entry recorded under another key";
    let tallies =
      List.map (parse_tally ~n_sites)
        (Sectfile.strict_section c ~header:"tallies" ~end_tag:"endtallies")
    in
    Sectfile.expect c "end";
    if not (Sectfile.at_end c) then corrupt "trailing lines after end";
    tallies

  let load_replay ~program ~dataset ~fingerprint ~dshash ~n_sites ~key =
    if not (enabled ()) then None
    else
      match
        Sectfile.read_file (replay_path ~program ~fingerprint ~dshash ~key)
      with
      | exception Sys_error _ -> None
      | exception End_of_file -> None
      | text -> (
        let meta =
          replay_meta ~program ~dataset ~fingerprint ~dshash ~n_sites ~key
        in
        match parse_replay ~meta ~n_sites text with
        | tallies -> Some tallies
        | exception Sectfile.Bad _ -> None)

  let save_replay ~program ~dataset ~fingerprint ~dshash ~n_sites ~key
      tallies =
    if enabled () then begin
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (Printf.sprintf "fisher92replay %d\n" replay_version);
      Sectfile.add_section buf ~header:"meta"
        ~body:
          (replay_meta ~program ~dataset ~fingerprint ~dshash ~n_sites ~key)
        ~end_tag:"endmeta";
      Sectfile.add_section buf ~header:"tallies"
        ~body:(List.map (tally_line ~n_sites) tallies)
        ~end_tag:"endtallies";
      Buffer.add_string buf "end\n";
      (* best-effort, like [save] *)
      try
        Sectfile.mkdir_p (dir ());
        Sectfile.write_atomic
          ~path:(replay_path ~program ~fingerprint ~dshash ~key)
          ~tmp_prefix:"replay" (Buffer.contents buf)
      with Sys_error _ -> ()
    end

  let clear () =
    match Sys.readdir (dir ()) with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun f ->
          if
            Filename.check_suffix f ".trace"
            || Filename.check_suffix f ".replay"
          then
            try Sys.remove (Filename.concat (dir ()) f)
            with Sys_error _ -> ())
        entries
end
