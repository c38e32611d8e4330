(* ingest: the only durable write path.

   A pass is one service lifetime.  Two client domains in a closed loop
   each send [per_client] seeded 32-entry compress deltas through
   [Client.submit], the next only after the previous was acknowledged.
   The service is then abandoned uncompacted, as a crash would leave
   it; its successor recovers by replaying the whole write-ahead log,
   compacts, and the database is strict-loaded and must hold exactly
   the sum of the acked deltas.

   The log's fsync is off: on a shared machine its latency follows the
   other tenants' disk traffic (3.0k to 8.5k acked deltas/s across ten
   runs of the same code), which would bury any change to this code.
   Durability itself is what the crash-injection tests check. *)

module Service = Fisher92_ingest.Service
module Client = Fisher92_ingest.Client
module Delta = Fisher92_ingest.Delta
module Rng = Fisher92_util.Rng

let clients = 2
let entries_per_delta = 32

type client = {
  rng : Rng.t;
  mutable sent : int;
  mutable enc : int;  (** summed counters of acked deltas *)
  mutable taken : int;
  mutable gave_up : int;
}

(* The next delta of client [c]: distinct sites, seeded counts. *)
let delta (cfg : Service.config) cl c =
  let n_sites = cfg.c_n_sites in
  let k = cl.sent in
  let entries =
    List.init entries_per_delta (fun i ->
        let site = ((i * 97) + (c * 13) + k) mod n_sites in
        let e = 1 + Rng.int cl.rng 1000 in
        (site, e, Rng.int cl.rng (e + 1)))
    |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Delta.make ~program:cfg.c_program ~fingerprint:cfg.c_fingerprint
    ~label:(Printf.sprintf "client%d" c) ~n_sites
    ~nonce:((c lsl 40) lor k)
    entries

(* [per_client] round trips from every client, one domain each; the
   ack latencies of each client and how many outcomes were not
   [Acked]. *)
let submit_all svc cfg (cls : client array) ~per_client =
  let run c =
    let cl = cls.(c) in
    let lat = Array.make per_client 0.0 and failed = ref 0 in
    for i = 0 to per_client - 1 do
      let d = delta cfg cl c in
      cl.sent <- cl.sent + 1;
      let t0 = Span.now () in
      (match Client.submit ~rng:cl.rng svc d with
      | Service.Acked ->
        List.iter
          (fun (_, e, t) ->
            cl.enc <- cl.enc + e;
            cl.taken <- cl.taken + t)
          (Delta.entries d)
      | _ -> incr failed
      | exception Client.Gave_up _ ->
        cl.gave_up <- cl.gave_up + 1;
        incr failed);
      lat.(i) <- Span.now () -. t0;
      Span.completed "client.submit" ~seconds:lat.(i)
    done;
    (lat, !failed)
  in
  let others =
    List.init
      (Array.length cls - 1)
      (fun c -> Domain.spawn (fun () -> run (c + 1)))
  in
  let mine = run 0 in
  mine :: List.map Domain.join others

let make ~seed ~smoke =
  let checks = Harness.checks () in
  let per_client = if smoke then 64 else 2048 in
  let dir = Filename.concat Harness.work_root "ingest" in
  let cfg = ref None and rngs = ref [||] in
  let latencies = ref [] in
  (* One service lifetime over an empty directory: the work items are
     the acked deltas. *)
  let cycle () =
    let cfg = Option.get !cfg in
    ignore (Harness.fresh_dir dir);
    let cls =
      Array.map
        (fun rng -> { rng; sent = 0; enc = 0; taken = 0; gave_up = 0 })
        !rngs
    in
    Harness.timed "cycle" (fun () ->
        let svc = Span.with_ "service.open" (fun () -> Service.open_ cfg) in
        let results = submit_all svc cfg cls ~per_client in
        let successor =
          Span.with_ "service.recover" (fun () -> Service.open_ cfg)
        in
        Span.count "wal.replayed"
          (float_of_int (Service.stats successor).st_replayed);
        Span.with_ "service.compact" (fun () -> Service.compact successor);
        Service.close successor;
        Service.close ~fold:false svc;
        let first = Service.stats svc in
        Span.count "service.duplicates" (float_of_int first.st_duplicates);
        Span.count "service.quarantined" (float_of_int first.st_quarantined);
        let loaded =
          match
            Span.with_ "db.load" (fun () ->
                Fisher92_profile.Db.load_file (Service.db_path ~dir))
          with
          | db -> Ok (Fisher92_profile.Db.accumulated db)
          | exception e -> Error (Printexc.to_string e)
        in
        let sum f = Array.fold_left (fun n c -> n + f c) 0 cls in
        List.iter
          (fun (lat, failed) ->
            Harness.tally checks ~what:"deltas acked" ~attempted:per_client
              ~failed;
            if !Span.on then latencies := lat :: !latencies)
          results;
        Span.count "client.gave_up" (float_of_int (sum (fun c -> c.gave_up)));
        (match loaded with
        | Ok p ->
          Harness.check checks ~what:"recovered totals equal the acked deltas"
            (Fisher92_profile.Profile.total_branches p = sum (fun c -> c.enc)
            && Fisher92_profile.Profile.total_taken p = sum (fun c -> c.taken))
        | Error e -> Harness.check checks ~what:("db strict load: " ^ e) false);
        float_of_int (sum (fun c -> c.sent)))
  in
  (* the client build's identity, the seeded client streams, and one
     lifetime to bring the process to its steady state *)
  let setup () =
    let ir =
      Fisher92.Study.compile_variant
        (Fisher92_workloads.Registry.find "compress")
    in
    cfg :=
      Some
        {
          Service.c_dir = dir;
          c_program = "compress";
          c_n_sites = Fisher92_ir.Program.n_sites ir;
          c_fingerprint = Fisher92_analysis.Fingerprint.program_hash ir;
          c_sitekeys = Fisher92_analysis.Fingerprint.site_keys ir;
          c_shards = None;
        };
    rngs := Array.init clients (fun c -> Rng.create ((seed * 7919) + c));
    ignore (cycle ())
  in
  let layers ~passes =
    let s = Span.summary Span.Pass in
    let per_pass x = x /. float_of_int passes in
    let self name = (Span.totals s name).self_s in
    let counter name = Span.counter Span.Pass name in
    let lat = Array.concat !latencies in
    [
      ("client.ack_p50_ms", Harness.percentile lat 0.50 *. 1e3);
      ("client.ack_p99_ms", Harness.percentile lat 0.99 *. 1e3);
      ("service.recovery_s", per_pass (self "service.recover"));
      ( "wal.replay_records_per_s",
        counter "wal.replayed" /. self "service.recover" );
      ("service.compact_s", per_pass (self "service.compact"));
      ("db.load_s", per_pass (self "db.load"));
      ("service.duplicates", per_pass (counter "service.duplicates"));
      ("service.quarantined", per_pass (counter "service.quarantined"));
      ("client.gave_up", per_pass (counter "client.gave_up"));
    ]
  in
  {
    Harness.setup;
    pass = cycle;
    finish = (fun () -> Harness.rm_rf dir);
    checks;
    layers;
  }
