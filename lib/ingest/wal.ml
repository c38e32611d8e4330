(* The write-ahead log that makes an accepted delta durable before it
   is acknowledged.  The head (program identity, fingerprint,
   generation) is written once, atomically; records are appended one
   self-checksummed line at a time, flushed (and fsynced unless
   FISHER92_NO_FSYNC) before the submitter is acked.  A crash mid-append
   tears at most the final line, and the per-record checksum makes the
   torn tail detectable: replay keeps every intact record — a superset
   of the acknowledged ones — and reports what it dropped.

   The generation number is the anti-double-apply watermark: the log
   only replays into a database of the same generation.  Compaction
   saves the folded database with generation [g+1] and then resets the
   log to [g+1]; a crash between the two leaves a gen-[g] log next to a
   gen-[g+1] database, and replay refuses the stale log instead of
   applying its (already folded) records twice. *)

module Sectfile = Fisher92_util.Sectfile
module Env = Fisher92_util.Env
module B64 = Fisher92_util.B64

let format_version = 1
let basename = "ingest.wal"
let path ~dir = Filename.concat dir basename

type t = {
  w_path : string;
  w_program : string;
  w_n_sites : int;
  w_fingerprint : string;
  mutable w_generation : int;
  mutable w_oc : out_channel option;  (* None after [close] *)
}

let generation t = t.w_generation

let head_text ~program ~n_sites ~fingerprint ~generation =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "fisher92wal %d\n" format_version);
  Sectfile.add_section buf ~header:"head"
    ~body:
      [
        "program " ^ Sectfile.sized program;
        Printf.sprintf "sites %d" n_sites;
        "fingerprint " ^ Sectfile.sized fingerprint;
        Printf.sprintf "generation %d" generation;
      ]
    ~end_tag:"endhead";
  Buffer.contents buf

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let create ~dir ~program ~n_sites ~fingerprint ~generation =
  if generation < 0 then invalid_arg "Wal.create: negative generation";
  let w_path = path ~dir in
  Sectfile.write_atomic ~label:"wal.reset" ~path:w_path ~tmp_prefix:"wal"
    (head_text ~program ~n_sites ~fingerprint ~generation);
  {
    w_path;
    w_program = program;
    w_n_sites = n_sites;
    w_fingerprint = fingerprint;
    w_generation = generation;
    w_oc = Some (open_append w_path);
  }

let attach ~dir ~program ~n_sites ~fingerprint ~generation =
  if generation < 0 then invalid_arg "Wal.attach: negative generation";
  let w_path = path ~dir in
  {
    w_path;
    w_program = program;
    w_n_sites = n_sites;
    w_fingerprint = fingerprint;
    w_generation = generation;
    w_oc = Some (open_append w_path);
  }

let channel t =
  match t.w_oc with
  | Some oc -> oc
  | None -> invalid_arg "Wal: appending to a closed log"

let flush_out t =
  let oc = channel t in
  flush oc;
  if Env.fsync_enabled () then Unix.fsync (Unix.descr_of_out_channel oc)

type line = string

let record_line delta =
  let prefix = "d " ^ B64.encode (Delta.encode delta) in
  String.concat "" [ prefix; " "; Sectfile.checksum_of [ prefix ]; "\n" ]

let append t line =
  let oc = channel t in
  Sectfile.crash_point "wal.append.before";
  (* The torn point flushes a half-written record: exactly what a kill
     between two write(2) calls leaves on disk. *)
  let half = String.length line / 2 in
  output_substring oc line 0 half;
  (try Sectfile.crash_point "wal.append.torn"
   with e ->
     flush oc;
     raise e);
  output_substring oc line half (String.length line - half);
  flush_out t;
  Sectfile.crash_point "wal.append.after"

let close t =
  match t.w_oc with
  | None -> ()
  | Some oc ->
    t.w_oc <- None;
    close_out oc

let reset t ~generation =
  if generation < 0 then invalid_arg "Wal.reset: negative generation";
  close t;
  Sectfile.write_atomic ~label:"wal.reset" ~path:t.w_path ~tmp_prefix:"wal"
    (head_text ~program:t.w_program ~n_sites:t.w_n_sites
       ~fingerprint:t.w_fingerprint ~generation);
  t.w_generation <- generation;
  t.w_oc <- Some (open_append t.w_path)

(* ---- replay ---- *)

type replay = {
  rp_program : string;
  rp_n_sites : int;
  rp_fingerprint : string;
  rp_generation : int;
  rp_deltas : Delta.t list;  (* in append order *)
  rp_dropped : (int * string) list;  (* 1-based line, reason *)
}

let parse_head_field ~line ~prefix what s =
  match String.length s > String.length prefix
        && String.starts_with ~prefix s
  with
  | true ->
    Sectfile.parse_sized ~line ~what
      (String.sub s (String.length prefix)
         (String.length s - String.length prefix))
  | false -> Sectfile.failf line "expected %s line" what

let parse_int_field ~line ~prefix what s =
  if not (String.starts_with ~prefix s) then
    Sectfile.failf line "expected %s line" what;
  let v = String.sub s (String.length prefix)
            (String.length s - String.length prefix) in
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> Sectfile.failf line "malformed %s %S" what v

let parse_record ~line s =
  (* "d <b64> <crc>", checksummed over everything before the crc. *)
  match String.rindex_opt s ' ' with
  | None -> Sectfile.failf line "malformed record"
  | Some i ->
    let prefix = String.sub s 0 i in
    let crc = String.sub s (i + 1) (String.length s - i - 1) in
    if not (String.equal crc (Sectfile.checksum_of [ prefix ])) then
      Sectfile.failf line "record checksum mismatch";
    if not (String.starts_with ~prefix:"d " prefix) then
      Sectfile.failf line "unknown record kind";
    let b64 = String.sub prefix 2 (String.length prefix - 2) in
    (match B64.decode b64 with
    | None -> Sectfile.failf line "record payload is not valid base64"
    | Some payload -> Delta.decode payload)

let replay ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then None
  else begin
    let lines = Sectfile.split_lines (Sectfile.read_file p) in
    let c = Sectfile.cursor lines in
    Sectfile.expect c (Printf.sprintf "fisher92wal %d" format_version);
    let body = Sectfile.strict_section c ~header:"head" ~end_tag:"endhead" in
    let program, n_sites, fingerprint, generation =
      match body with
      | [ pl; sl; fl; gl ] ->
        ( parse_head_field ~line:3 ~prefix:"program " "program" pl,
          parse_int_field ~line:4 ~prefix:"sites " "site count" sl,
          parse_head_field ~line:5 ~prefix:"fingerprint " "fingerprint" fl,
          parse_int_field ~line:6 ~prefix:"generation " "generation" gl )
      | _ -> Sectfile.failf 3 "malformed WAL head"
    in
    (* Records follow the head: each line stands alone, so a torn or
       damaged one is dropped and the scan continues. *)
    let deltas = ref [] and dropped = ref [] in
    let line_no = ref 8 (* 1 marker + 6 head lines before the records *) in
    while not (Sectfile.at_end c) do
      let s = Sectfile.next c in
      if String.length s > 0 then begin
        match parse_record ~line:!line_no s with
        | d -> deltas := d :: !deltas
        | exception Sectfile.Bad (_, msg) ->
          dropped := (!line_no, msg) :: !dropped
      end;
      incr line_no
    done;
    Some
      {
        rp_program = program;
        rp_n_sites = n_sites;
        rp_fingerprint = fingerprint;
        rp_generation = generation;
        rp_deltas = List.rev !deltas;
        rp_dropped = List.rev !dropped;
      }
  end
