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

let to_hex h = Printf.sprintf "%016Lx" h

let hash_strings parts =
  to_hex
    (List.fold_left (fun h s -> fold (fold h s) "\x00") seed parts)

let hex s = to_hex (hash s)
