(* A client submission: sparse per-site counter increments for one
   program build, identified by the build's structural fingerprint and
   a unique submission id.  The payload is a binary varint stream (the
   codec shared with the branch traces); spool files wrap it in the
   Sectfile conventions so damage is detected before any byte is
   believed. *)

module Sectfile = Fisher92_util.Sectfile
module Varint = Fisher92_util.Varint
module Fnv = Fisher92_util.Fnv
module B64 = Fisher92_util.B64
module Profile = Fisher92_profile.Profile

let format_version = 1
let b64_width = 76

type t = {
  d_id : string;  (* 16 hex digits, unique per submission *)
  d_program : string;
  d_fingerprint : string;  (* program_hash of the client's build *)
  d_label : string;  (* dataset bucket the counters land under *)
  d_n_sites : int;  (* site count of the client's build *)
  d_sites : int array;  (* strictly ascending, < d_n_sites *)
  d_enc : int array;  (* per entry, >= 0 *)
  d_taken : int array;  (* per entry, 0 <= taken <= enc *)
  d_keys : string array option;  (* client build's site keys, for remap *)
}

let corrupt fmt = Sectfile.failf 0 fmt

let has_newline s = String.contains s '\n' || String.contains s '\r'

let check_no_newline what s =
  if has_newline s then
    invalid_arg (Printf.sprintf "Delta: %s contains a newline" what)

let validate_entries ~n_sites sites enc taken =
  let n = Array.length sites in
  if Array.length enc <> n || Array.length taken <> n then
    invalid_arg "Delta: entry arrays disagree in length";
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    if sites.(i) <= !prev then invalid_arg "Delta: sites not strictly ascending";
    if sites.(i) >= n_sites then invalid_arg "Delta: site out of range";
    if enc.(i) < 0 || taken.(i) < 0 || taken.(i) > enc.(i) then
      invalid_arg "Delta: bad counts";
    prev := sites.(i)
  done

let is_hex16 s =
  let ok = ref (String.length s = 16) in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then ok := false
  done;
  !ok

(* The order [compare] gives int triples, without its generic C
   primitive. *)
let compare_entry ((s, e, t) : int * int * int) (s', e', t') =
  let c = Int.compare s s' in
  if c <> 0 then c
  else
    let c = Int.compare e e' in
    if c <> 0 then c else Int.compare t t'

(* Callers usually give the entries in order already ([of_profile]
   does), and one pass of comparisons is cheaper than a sort. *)
let ascending entries =
  let ok = ref true in
  for i = 1 to Array.length entries - 1 do
    if compare_entry entries.(i - 1) entries.(i) > 0 then ok := false
  done;
  !ok

let[@inline] fold_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int b)) Fnv.prime

(* FNV-1a over the program, fingerprint, label and nonce, one per line,
   then one "site enc taken" line per entry.  The entry lines are folded
   digit by digit, the bytes [Printf.sprintf "%d %d %d"] would print
   (every count is non-negative once validated), so no string is built
   per entry and the accumulator stays unboxed. *)
let id_of ~program ~fingerprint ~label ~nonce sites enc taken =
  let h =
    ref
      (List.fold_left
         (fun h s -> Fnv.fold (Fnv.fold h s) "\n")
         Fnv.seed
         [ program; fingerprint; label; string_of_int nonce ])
  in
  let digits = Bytes.create 20 in
  for i = 0 to Array.length sites - 1 do
    for field = 0 to 2 do
      let v =
        ref
          (if field = 0 then sites.(i)
           else if field = 1 then enc.(i)
           else taken.(i))
      in
      (* least significant digit first, then folded in reverse *)
      let n = ref 0 in
      while
        Bytes.unsafe_set digits !n (Char.unsafe_chr (48 + (!v mod 10)));
        incr n;
        v := !v / 10;
        !v > 0
      do
        ()
      done;
      for k = !n - 1 downto 0 do
        h := fold_byte !h (Char.code (Bytes.unsafe_get digits k))
      done;
      h := fold_byte !h (if field = 2 then Char.code '\n' else Char.code ' ')
    done
  done;
  Fnv.to_hex !h

let make ~program ~fingerprint ~label ~n_sites ?keys ~nonce entries =
  check_no_newline "program name" program;
  check_no_newline "fingerprint" fingerprint;
  check_no_newline "label" label;
  if n_sites < 0 then invalid_arg "Delta: negative site count";
  (match keys with
  | Some ks ->
    if Array.length ks <> n_sites then
      invalid_arg "Delta: one key per site required";
    Array.iter (check_no_newline "site key") ks
  | None -> ());
  let entries = Array.of_list entries in
  if not (ascending entries) then Array.stable_sort compare_entry entries;
  let sites = Array.map (fun (s, _, _) -> s) entries in
  let enc = Array.map (fun (_, e, _) -> e) entries in
  let taken = Array.map (fun (_, _, t) -> t) entries in
  validate_entries ~n_sites sites enc taken;
  {
    d_id = id_of ~program ~fingerprint ~label ~nonce sites enc taken;
    d_program = program;
    d_fingerprint = fingerprint;
    d_label = label;
    d_n_sites = n_sites;
    d_sites = sites;
    d_enc = enc;
    d_taken = taken;
    d_keys = keys;
  }

let of_profile ~fingerprint ~label ?keys ~nonce (p : Profile.t) =
  let entries = ref [] in
  Array.iteri
    (fun s e -> if e > 0 then entries := (s, e, p.Profile.taken.(s)) :: !entries)
    p.Profile.encountered;
  make ~program:p.Profile.program ~fingerprint ~label
    ~n_sites:(Profile.n_sites p) ?keys ~nonce (List.rev !entries)

let entries t =
  Array.to_list (Array.mapi (fun i s -> (s, t.d_enc.(i), t.d_taken.(i))) t.d_sites)

(* ---- binary codec ---- *)

let add_string buf s =
  Varint.add buf (String.length s);
  Buffer.add_string buf s

let encode t =
  let buf = Buffer.create 256 in
  Varint.add buf format_version;
  add_string buf t.d_id;
  add_string buf t.d_program;
  add_string buf t.d_fingerprint;
  add_string buf t.d_label;
  Varint.add buf t.d_n_sites;
  let n = Array.length t.d_sites in
  Varint.add buf n;
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    Varint.add buf (t.d_sites.(i) - !prev - 1);  (* ascending: gaps >= 0 *)
    Varint.add buf t.d_enc.(i);
    Varint.add buf t.d_taken.(i);
    prev := t.d_sites.(i)
  done;
  (match t.d_keys with
  | None -> Varint.add buf 0
  | Some ks ->
    Varint.add buf 1;
    Array.iter (add_string buf) ks);
  Buffer.contents buf

let read_string payload pos =
  let len = Varint.read payload pos in
  if len < 0 || len > String.length payload - !pos then
    corrupt "string runs past the payload";
  let s = String.sub payload !pos len in
  pos := !pos + len;
  s

let read_nat payload pos =
  let v = Varint.read payload pos in
  if v < 0 then corrupt "counter overflows";
  v

let decode payload =
  let pos = ref 0 in
  let v = read_nat payload pos in
  if v <> format_version then corrupt "unsupported delta version %d" v;
  let id = read_string payload pos in
  if not (is_hex16 id) then corrupt "malformed delta id";
  let program = read_string payload pos in
  let fingerprint = read_string payload pos in
  let label = read_string payload pos in
  if has_newline program || has_newline fingerprint || has_newline label then
    corrupt "newline in delta field";
  let n_sites = read_nat payload pos in
  let n = read_nat payload pos in
  if n > n_sites then corrupt "more entries than sites";
  let sites = Array.make n 0 and enc = Array.make n 0 in
  let taken = Array.make n 0 in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let gap = read_nat payload pos in
    let s = !prev + 1 + gap in
    if s >= n_sites then corrupt "site out of range";
    let e = read_nat payload pos in
    let t = read_nat payload pos in
    if t > e then corrupt "taken exceeds encountered";
    sites.(i) <- s;
    enc.(i) <- e;
    taken.(i) <- t;
    prev := s
  done;
  let keys =
    match read_nat payload pos with
    | 0 -> None
    | 1 ->
      (* each key takes at least its length byte: a site count the
         payload cannot hold is damage, not an array to allocate *)
      if n_sites > String.length payload - !pos then
        corrupt "site keys run past the payload";
      let keys = Array.make n_sites "" in
      for s = 0 to n_sites - 1 do
        let k = read_string payload pos in
        if has_newline k then corrupt "newline in site key";
        keys.(s) <- k
      done;
      Some keys
    | _ -> corrupt "malformed keys flag"
  in
  if !pos <> String.length payload then corrupt "trailing bytes after delta";
  {
    d_id = id;
    d_program = program;
    d_fingerprint = fingerprint;
    d_label = label;
    d_n_sites = n_sites;
    d_sites = sites;
    d_enc = enc;
    d_taken = taken;
    d_keys = keys;
  }

(* ---- spool file format ---- *)

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "fisher92delta %d\n" format_version);
  Sectfile.add_section buf ~header:"payload"
    ~body:(B64.wrap ~width:b64_width (B64.encode (encode t)))
    ~end_tag:"endpayload";
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let parse text =
  let c = Sectfile.cursor (Sectfile.split_lines text) in
  Sectfile.expect c (Printf.sprintf "fisher92delta %d" format_version);
  let body = Sectfile.strict_section c ~header:"payload" ~end_tag:"endpayload" in
  Sectfile.expect c "end";
  if not (Sectfile.at_end c) then corrupt "trailing bytes after delta file";
  match B64.decode (String.concat "" body) with
  | None -> corrupt "payload is not valid base64"
  | Some payload -> decode payload
