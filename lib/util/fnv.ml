let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* An index loop over a local accumulator: ocamlopt keeps [h] unboxed,
   where a [String.iter] closure would box it on every byte. *)
let fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let hash s = fold seed s

(* Sixteen nibble lookups, most significant first: the [Printf]
   rendering ["%016Lx"] without its format interpreter. *)
let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nib =
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical h ((15 - i) * 4)) 15L)
    in
    Bytes.unsafe_set b i (String.unsafe_get "0123456789abcdef" nib)
  done;
  Bytes.unsafe_to_string b

let hash_strings parts =
  to_hex
    (List.fold_left (fun h s -> fold (fold h s) "\x00") seed parts)

let hex s = to_hex (hash s)
