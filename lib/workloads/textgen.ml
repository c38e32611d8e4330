module Rng = Fisher92_util.Rng

let to_bytes s = Array.init (String.length s) (fun k -> Char.code s.[k])

let c_idents =
  [| "count"; "buf"; "ptr"; "len"; "idx"; "tmp"; "result"; "node"; "next";
     "head"; "size"; "flag"; "state"; "value"; "left"; "right"; "key" |]

let c_types = [| "int"; "char"; "long"; "unsigned"; "short" |]

let c_source ~seed ~lines =
  let rng = Rng.create seed in
  let buf = Buffer.create (lines * 32) in
  let ident () = Rng.pick rng c_idents in
  let rec statement depth =
    let pad = String.make (2 * depth) ' ' in
    match Rng.int rng 10 with
    | 0 ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s = %d;\n" pad (Rng.pick rng c_types) (ident ())
           (Rng.int rng 1000))
    | 1 | 2 | 3 ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %s %s %s;\n" pad (ident ()) (ident ())
           (Rng.pick rng [| "+"; "-"; "*"; "&"; "|"; "^"; ">>"; "<<" |])
           (ident ()))
    | 4 when depth < 3 ->
      Buffer.add_string buf
        (Printf.sprintf "%sif (%s %s %s) {\n" pad (ident ())
           (Rng.pick rng [| "<"; ">"; "=="; "!=" |])
           (ident ()));
      statement (depth + 1);
      Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
    | 5 when depth < 3 ->
      Buffer.add_string buf
        (Printf.sprintf "%sfor (%s = 0; %s < %d; %s++) {\n" pad (ident ())
           (ident ()) (Rng.int rng 100) (ident ()));
      statement (depth + 1);
      Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
    | 6 ->
      Buffer.add_string buf
        (Printf.sprintf "%sreturn %s;\n" pad (ident ()))
    | 7 ->
      Buffer.add_string buf
        (Printf.sprintf "%s/* %s %s */\n" pad (ident ()) (ident ()))
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s(%s, %s);\n" pad (ident ()) (ident ()) (ident ()))
  in
  let line_count () =
    (* approximate: each statement adds 1-3 lines *)
    Buffer.length buf / 24
  in
  while line_count () < lines do
    if Rng.int rng 12 = 0 then
      Buffer.add_string buf
        (Printf.sprintf "static %s %s(%s %s) {\n" (Rng.pick rng c_types)
           (ident ()) (Rng.pick rng c_types) (ident ()));
    statement 1;
    if Rng.int rng 10 = 0 then Buffer.add_string buf "}\n"
  done;
  to_bytes (Buffer.contents buf)

let f_vars = [| "I"; "J"; "K"; "N"; "X"; "Y"; "Z"; "A"; "B"; "TOT"; "SUM" |]

let fortran_source ~seed ~lines =
  let rng = Rng.create seed in
  let buf = Buffer.create (lines * 32) in
  let var () = Rng.pick rng f_vars in
  for _ = 1 to lines do
    match Rng.int rng 8 with
    | 0 ->
      Buffer.add_string buf
        (Printf.sprintf "      DO %d %s = 1, %d\n" (10 * (1 + Rng.int rng 90))
           (var ()) (Rng.int rng 500))
    | 1 ->
      Buffer.add_string buf
        (Printf.sprintf "%d    CONTINUE\n" (10 * (1 + Rng.int rng 90)))
    | 2 | 3 | 4 ->
      Buffer.add_string buf
        (Printf.sprintf "      %s = %s %s %s\n" (var ()) (var ())
           (Rng.pick rng [| "+"; "-"; "*"; "/" |])
           (var ()))
    | 5 ->
      Buffer.add_string buf
        (Printf.sprintf "      IF (%s .GT. %s) GOTO %d\n" (var ()) (var ())
           (10 * (1 + Rng.int rng 90)))
    | 6 ->
      Buffer.add_string buf
        (Printf.sprintf "C     %s OF %s\n" (var ()) (var ()))
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "      CALL SUB%d(%s, %s)\n" (Rng.int rng 20) (var ())
           (var ()))
  done;
  to_bytes (Buffer.contents buf)

let word_pool =
  [| "the"; "of"; "and"; "a"; "to"; "in"; "is"; "that"; "it"; "was"; "for";
     "on"; "are"; "with"; "as"; "his"; "they"; "be"; "at"; "one"; "have";
     "this"; "from"; "or"; "had"; "by"; "word"; "but"; "what"; "some"; "we";
     "can"; "out"; "other"; "were"; "all"; "there"; "when"; "up"; "use";
     "your"; "how"; "said"; "an"; "each"; "she"; "which"; "do"; "their";
     "time"; "if"; "will"; "way"; "about"; "many"; "then"; "them"; "write";
     "would"; "like"; "so"; "these"; "her"; "long" |]

let english ~seed ~words =
  let rng = Rng.create seed in
  let buf = Buffer.create (words * 6) in
  let col = ref 0 in
  for _ = 1 to words do
    (* Zipf-ish: low indices much more likely *)
    let r = Rng.int rng (Array.length word_pool) in
    let r2 = Rng.int rng (r + 1) in
    let w = word_pool.(r2) in
    Buffer.add_string buf w;
    col := !col + String.length w + 1;
    if !col > 68 then begin
      Buffer.add_char buf '\n';
      col := 0
    end
    else Buffer.add_char buf ' '
  done;
  to_bytes (Buffer.contents buf)

let binary_image ~seed ~size =
  let rng = Rng.create seed in
  Array.init size (fun k ->
      if k < 64 then (* header *)
        if k mod 4 = 0 then 0x7f else k mod 256
      else if k mod 512 < 128 then
        (* low-entropy table section: small values, runs *)
        Rng.int rng 4 * 16
      else
        (* code-ish: opcode byte patterns with repeats *)
        match Rng.int rng 8 with
        | 0 | 1 | 2 -> 0x48 + Rng.int rng 8
        | 3 | 4 -> Rng.int rng 32
        | 5 -> 0x90
        | _ -> Rng.int rng 256)

let random_bytes ~seed ~size =
  let rng = Rng.create seed in
  Array.init size (fun _ -> Rng.int rng 256)
