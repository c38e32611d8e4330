module P = Fisher92_ir.Program
module Fp = Fisher92_analysis.Fingerprint
module Brclass = Fisher92_analysis.Brclass
module Profile = Fisher92_profile.Profile
module Db = Fisher92_profile.Db

type provenance = Exact | Remapped | Proof | Heuristic | Default

let provenance_name = function
  | Exact -> "exact"
  | Remapped -> "remapped"
  | Proof -> "proof"
  | Heuristic -> "heuristic"
  | Default -> "default"

type t = {
  r_prediction : Prediction.t;
  r_provenance : provenance array;
  r_stale : bool;
  r_verified : bool;
}

let counts t =
  Array.fold_left
    (fun (e, r, p, h, d) -> function
      | Exact -> (e + 1, r, p, h, d)
      | Remapped -> (e, r + 1, p, h, d)
      | Proof -> (e, r, p + 1, h, d)
      | Heuristic -> (e, r, p, h + 1, d)
      | Default -> (e, r, p, h, d + 1))
    (0, 0, 0, 0, 0) t.r_provenance

(* Unique-key index: match keys are unique per side by construction
   (the ordinal numbers clones), but a hand-edited database could break
   that, so collisions are demoted to "no match". *)
let index_by_match_key keys =
  let tbl = Hashtbl.create (Array.length keys * 2) in
  Array.iteri
    (fun s k ->
      let mk = Fp.match_key k in
      match Hashtbl.find_opt tbl mk with
      | None -> Hashtbl.replace tbl mk (Some s)
      | Some _ -> Hashtbl.replace tbl mk None (* ambiguous: poison *))
    keys;
  tbl

(* The structural-matching core, shared with the ingest service (which
   remaps stale clients' deltas the same way plan remaps stale
   databases): for every site of [from_keys], its unique counterpart in
   [to_keys], demanding uniqueness on both sides. *)
let correspondence ~from_keys ~to_keys =
  let from_index = index_by_match_key from_keys in
  let to_index = index_by_match_key to_keys in
  Array.map
    (fun k ->
      let mk = Fp.match_key k in
      match Hashtbl.find_opt from_index mk with
      | Some (Some _) -> (
        match Hashtbl.find_opt to_index mk with
        | Some (Some j) -> Some j
        | Some None | None -> None)
      | Some None | None -> None)
    from_keys

let plan prog db =
  let n = P.n_sites prog in
  let prediction = Array.make n false in
  let provenance = Array.make n Default in
  let opinions = Heuristic.ball_larus_opinions prog in
  let proofs = lazy (Brclass.classify prog).Brclass.classes in
  let fallback s =
    match
      Brclass.predicted_direction (Lazy.force proofs).(s).Brclass.sc_cls
    with
    | Some dir ->
      prediction.(s) <- dir;
      provenance.(s) <- Proof
    | None -> (
      match opinions.(s) with
      | Some dir ->
        prediction.(s) <- dir;
        provenance.(s) <- Heuristic
      | None ->
        prediction.(s) <- false;
        provenance.(s) <- Default)
  in
  let verified = Db.fingerprint db <> None in
  let fresh =
    match Db.fingerprint db with
    | Some fp -> String.equal fp (Fp.program_hash prog) && Db.n_sites db = n
    | None -> Db.n_sites db = n (* no identity: trust a matching shape *)
  in
  let acc = Db.accumulated db in
  if fresh then begin
    for s = 0 to n - 1 do
      match Profile.majority_taken acc s with
      | Some dir ->
        prediction.(s) <- dir;
        provenance.(s) <- Exact
      | None -> fallback s
    done;
    { r_prediction = prediction; r_provenance = provenance;
      r_stale = false; r_verified = verified }
  end
  else begin
    (match Db.sitekeys db with
    | None -> for s = 0 to n - 1 do fallback s done
    | Some old_keys ->
      let corr =
        correspondence ~from_keys:(Fp.site_keys prog) ~to_keys:old_keys
      in
      for s = 0 to n - 1 do
        match corr.(s) with
        | Some old_s
          when old_s < Profile.n_sites acc
               && acc.Profile.encountered.(old_s) > 0 ->
          prediction.(s) <-
            2 * acc.Profile.taken.(old_s) >= acc.Profile.encountered.(old_s);
          provenance.(s) <- Remapped
        | Some _ | None -> fallback s
      done);
    { r_prediction = prediction; r_provenance = provenance;
      r_stale = true; r_verified = verified }
  end
