let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* decode table: -1 = invalid, -2 = padding *)
let table =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t.(Char.code '=') <- -2;
  t

let encode s =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let byte i = Char.code s.[i] in
  let emit k = Buffer.add_char out alphabet.[k land 63] in
  let i = ref 0 in
  while !i + 3 <= n do
    let w = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) lor byte (!i + 2) in
    emit (w lsr 18);
    emit (w lsr 12);
    emit (w lsr 6);
    emit w;
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
    let w = byte !i lsl 16 in
    emit (w lsr 18);
    emit (w lsr 12);
    Buffer.add_string out "=="
  | 2 ->
    let w = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) in
    emit (w lsr 18);
    emit (w lsr 12);
    emit (w lsr 6);
    Buffer.add_char out '='
  | _ -> ());
  Buffer.contents out

let[@inline] sextet s i =
  Array.unsafe_get table (Char.code (String.unsafe_get s i))

(* The quad at [i] as one 24-bit word, its last [pad] characters read
   as zero bits.  The word is negative when a character it reads is
   outside the alphabet, ['='] included: [table] maps those to -1 and
   -2, and shifting and or-ing keeps a negative sextet's sign. *)
let[@inline] quad s i pad =
  let c = if pad = 2 then 0 else sextet s (i + 2) in
  let d = if pad >= 1 then 0 else sextet s (i + 3) in
  (sextet s i lsl 18) lor (sextet s (i + 1) lsl 12) lor (c lsl 6) lor d

let[@inline] put out o w = Bytes.unsafe_set out o (Char.unsafe_chr (w land 255))

let decode s =
  let n = String.length s in
  if n mod 4 <> 0 then None
  else if n = 0 then Some ""
  else begin
    (* only the last quad may end in "=" or "==", so the output length
       is known before any byte is decoded *)
    let pad =
      if s.[n - 1] <> '=' then 0 else if s.[n - 2] <> '=' then 1 else 2
    in
    let out = Bytes.create ((n / 4 * 3) - pad) in
    let ok = ref true and i = ref 0 and o = ref 0 in
    while !ok && !i < n - 4 do
      let w = quad s !i 0 in
      if w < 0 then ok := false
      else begin
        put out !o (w lsr 16);
        put out (!o + 1) (w lsr 8);
        put out (!o + 2) w;
        i := !i + 4;
        o := !o + 3
      end
    done;
    (* the last quad: the bits its padding drops must be 0 *)
    let w = quad s (n - 4) pad in
    if !ok && w >= 0 && w land ((1 lsl (8 * pad)) - 1) = 0 then begin
      put out !o (w lsr 16);
      if pad < 2 then put out (!o + 1) (w lsr 8);
      if pad < 1 then put out (!o + 2) w;
      Some (Bytes.unsafe_to_string out)
    end
    else None
  end

let wrap ~width s =
  if width <= 0 then invalid_arg "B64.wrap: width must be positive";
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = Int.min width (n - i) in
      go (i + len) (String.sub s i len :: acc)
  in
  if n = 0 then [] else go 0 []
