(* Tests of the benchmark's own machinery: its order statistics, the
   fingerprint comparator, the provenance refusal and the serve client. *)

module Bstats = Perfbench.Bstats
module Fingerprint = Perfbench.Fingerprint
module Provenance = Perfbench.Provenance
module Serve_client = Perfbench.Serve_client
module Serve = Bgp_experiments.Serve

let floats = Alcotest.(list (float 1e-12))
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = List.rev (range 100) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Bstats.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Bstats.percentile xs 99.0);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Bstats.percentile xs 100.0);
  Alcotest.(check (float 0.0)) "tiny p is the min" 1.0 (Bstats.percentile xs 0.1);
  Alcotest.(check (float 0.0)) "single sample" 7.0 (Bstats.percentile [ 7.0 ] 99.0)

let test_ten_beyond () =
  (* p90 of 100 samples has exactly ten above its rank; p99 has one. *)
  Alcotest.(check bool) "p90 of 100" true (Bstats.supports (range 100) 90.0);
  Alcotest.(check bool) "p99 of 100" false (Bstats.supports (range 100) 99.0);
  Alcotest.(check bool) "p99 of 1000" true (Bstats.supports (range 1000) 99.0);
  Alcotest.(check bool) "p99.9 of 1200" false (Bstats.supports (range 1200) 99.9);
  Alcotest.(check bool) "median of 10" false (Bstats.supports (range 10) 50.0);
  Alcotest.(check bool) "empty" false (Bstats.supports [] 50.0)

let test_quartiles () =
  let q xs =
    let a, b, c = Bstats.quartiles xs in
    [ a; b; c ]
  in
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (q (range 10));
  Alcotest.check floats "two samples" [ 0.5; 2.0; 3.5 ] (q [ 3.0; 1.0 ]);
  Alcotest.check floats "five unsorted" [ 1.5; 3.0; 4.5 ] (q [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.check floats "ten timings" [ 0.98; 1.015; 1.125 ]
    (q [ 0.9; 1.1; 1.0; 1.3; 0.95; 1.05; 1.2; 0.99; 1.01; 1.02 ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Bstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "iqr share" ((8.25 -. 2.75) /. 5.5) (Bstats.iqr_share (range 10))

let test_fingerprint () =
  let pinned = [ Fingerprint.int "messages" 10; Fingerprint.float "delay" 0.1 ] in
  Alcotest.(check (list string)) "equal" [] (Fingerprint.diff ~expected:pinned ~actual:pinned);
  let changed = [ Fingerprint.int "messages" 11; Fingerprint.float "delay" 0.1 ] in
  Alcotest.(check int) "changed value" 1
    (List.length (Fingerprint.diff ~expected:pinned ~actual:changed));
  (* The last bit of a float is a mismatch, not a tolerance. *)
  let nudged = [ Fingerprint.int "messages" 10; Fingerprint.float "delay" (Float.succ 0.1) ] in
  Alcotest.(check int) "one ulp" 1 (List.length (Fingerprint.diff ~expected:pinned ~actual:nudged));
  Alcotest.(check int) "missing key" 1
    (List.length (Fingerprint.diff ~expected:pinned ~actual:[ Fingerprint.int "messages" 10 ]));
  Alcotest.(check int) "unpinned key" 1
    (List.length
       (Fingerprint.diff ~expected:pinned ~actual:(pinned @ [ Fingerprint.bool "converged" true ])));
  Alcotest.(check (option string)) "check on a match" None
    (Fingerprint.check ~what:"fp" ~expected:pinned ~actual:pinned);
  (* Several differences are one failed check, not one per key. *)
  Alcotest.(check (option string)) "one line per check"
    (Some "fp: messages: got 11, pinned 10; delay: got 0.10000000000000002, pinned 0.10000000000000001")
    (Fingerprint.check ~what:"fp" ~expected:pinned
       ~actual:[ Fingerprint.int "messages" 11; Fingerprint.float "delay" (Float.succ 0.1) ]);
  let round = Fingerprint.of_json (Bgp_netsim.Json_lite.parse (Fingerprint.to_json pinned)) in
  Alcotest.(check (list string)) "json round trip" [] (Fingerprint.diff ~expected:pinned ~actual:round)

let test_provenance () =
  let p = Provenance.collect ~jobs:2 ~shards:1 ~seed:4 in
  let round = Provenance.of_json (Bgp_netsim.Json_lite.parse (Provenance.to_json p)) in
  Alcotest.(check bool) "round trip" true (round = p);
  Alcotest.(check bool) "same box" true (Provenance.comparable p round = Ok ());
  Alcotest.(check bool) "other seed still comparable" true
    (Provenance.comparable p { p with Provenance.seed = 9 } = Ok ());
  Alcotest.(check bool) "other core count refused" true
    (Result.is_error (Provenance.comparable p { p with Provenance.nproc = p.Provenance.nproc + 14 }));
  Alcotest.(check bool) "other jobs refused" true
    (Result.is_error (Provenance.comparable p { p with Provenance.jobs = 8 }))

let test_reply_ok () =
  Alcotest.(check bool) "json" true (Serve_client.reply_ok "status" "{\"trials\":3}");
  Alcotest.(check bool) "truncated json" false (Serve_client.reply_ok "report" "{\"trials\":");
  Alcotest.(check bool) "prometheus" true
    (Serve_client.reply_ok "metrics" "# HELP x y\n# TYPE x gauge\nx 1.5\ny{a=\"b\"} 2\n");
  Alcotest.(check bool) "bad sample" false (Serve_client.reply_ok "metrics" "x one\n");
  Alcotest.(check (option int)) "status trials" (Some 3)
    (Serve_client.status_trials "{\"schema\":\"s\",\"trials\":3}")

(* A live server in a second domain: every reply arrives whole (the
   client reads to end of file before closing), and the server is still
   answering afterwards — no SIGPIPE, no lost connection. *)
let test_serve_client () =
  let dir = Filename.temp_dir "perfbench_serve" "" in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let socket = Filename.concat dir "s.sock" in
  let campaign = Filename.concat dir "campaign" in
  Unix.mkdir campaign 0o755;
  let scenario =
    Bgp_netsim.Runner.scenario ~failure:(Bgp_netsim.Runner.Fraction 0.1)
      (Bgp_netsim.Runner.Flat { spec = Bgp_topology.Degree_dist.skewed_70_30; n = 16 })
  in
  let _, sidecars =
    Bgp_experiments.Sweep.traced_archived ~jobs:1
      ~spill_base:(Filename.concat campaign "t.jsonl") scenario ~trials:2
  in
  Alcotest.(check int) "sidecars" 2 (List.length sidecars);
  let server = Domain.spawn (fun () -> Serve.run ~socket ~dir:campaign ()) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Serve.request ~socket "shutdown") with Unix.Unix_error _ -> ());
      Domain.join server)
    (fun () ->
      Serve_client.wait_ready socket;
      let local = Serve.create ~dir:campaign () in
      ignore (Serve.scan local);
      for _ = 1 to 20 do
        List.iter
          (fun verb ->
            let reply = Serve.request ~socket verb in
            Alcotest.(check bool) (verb ^ " parses") true (Serve_client.reply_ok verb reply);
            if verb = "report" then
              Alcotest.(check string) "whole report" (Serve.handle local "report") reply)
          [ "status"; "report"; "metrics" ]
      done;
      let status = Serve.request ~socket "status" in
      Alcotest.(check (option int)) "folded trials" (Some 2) (Serve_client.status_trials status))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
        ] );
      ("fingerprint", [ Alcotest.test_case "comparator" `Quick test_fingerprint ]);
      ("provenance", [ Alcotest.test_case "refusal" `Quick test_provenance ]);
      ( "serve client",
        [
          Alcotest.test_case "reply checks" `Quick test_reply_ok;
          Alcotest.test_case "live server" `Quick test_serve_client;
        ] );
    ]
