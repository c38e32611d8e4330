(* LEB128 varints and zigzag mapping, shared by the trace codec and the
   ingest delta codec.  Decode errors raise [Sectfile.Bad] so every
   binary-payload consumer treats payload damage exactly like format
   damage. *)

let add buf v =
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

(* The arithmetic shift must smear the sign bit across the whole word:
   that is [Sys.int_size - 1] positions, not a hardcoded 62 — a 31- or
   32-bit-int runtime (or flambda boxing changes) would silently corrupt
   every negative delta otherwise. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* A loop over local refs rather than a local recursive function, which
   would allocate a closure over [payload] and [pos] on every call. *)
let read payload pos =
  let n = String.length payload in
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !pos >= n then Sectfile.failf 0 "varint runs past the payload";
    if !shift >= 63 then Sectfile.failf 0 "varint too long";
    let b = Char.code (String.unsafe_get payload !pos) in
    incr pos;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !acc
