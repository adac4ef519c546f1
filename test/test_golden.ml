(* Golden regression tests for the hot-path rewrite (packed ranks,
   interned paths, slab scheduler).

   The expected values below were produced by the pre-rewrite simulator
   (tuple ranks, list paths, record-slot scheduler) at jobs=1 and must
   stay bit-identical: the optimisations are pure representation changes,
   so any drift in a delay, message count or executed-event count is a
   semantic regression, not noise. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Telemetry = Bgp_netsim.Telemetry
module Config = Bgp_proto.Config
module Degree_dist = Bgp_topology.Degree_dist
module As_topology = Bgp_topology.As_topology
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Rng = Bgp_engine.Rng
module Profile = Bgp_engine.Profile
module Iq = Bgp_core.Input_queue
module Mrai = Bgp_core.Mrai_controller

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 0.0) msg

type golden = {
  warmup_delay : float;
  convergence_delay : float;
  messages : int;
  adverts : int;
  withdrawals : int;
  warmup_messages : int;
  max_queue : int;
  events : int;
}

let flat_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.1) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let realistic_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.default)
    ~failure:(Runner.Fraction 0.1) ~seed:5
    (Runner.Realistic (As_topology.default ~n_ases:16))

let ring_topology n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    Graph.add_edge g u ((u + 1) mod n)
  done;
  Topology.of_graph (Rng.create 99) g

let tdown_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 2.0) default))
    ~failure:(Runner.Links [ (0, 1); (3, 4) ])
    ~seed:7
    (Runner.Fixed (ring_topology 8))

let flat_golden =
  [|
    { warmup_delay = 4.5932573959610448; convergence_delay = 3.410523805227708;
      messages = 568; adverts = 243; withdrawals = 325; warmup_messages = 1759;
      max_queue = 53; events = 5155 };
    { warmup_delay = 4.7545541373778049; convergence_delay = 1.6452888802113126;
      messages = 292; adverts = 121; withdrawals = 171; warmup_messages = 1612;
      max_queue = 60; events = 4243 };
    { warmup_delay = 5.3120246805448161; convergence_delay = 1.605273460530209;
      messages = 383; adverts = 145; withdrawals = 238; warmup_messages = 1802;
      max_queue = 66; events = 4868 };
    { warmup_delay = 5.5432049761709292; convergence_delay = 2.6954369334525614;
      messages = 353; adverts = 164; withdrawals = 189; warmup_messages = 1847;
      max_queue = 61; events = 4964 };
  |]

let realistic_golden =
  [|
    { warmup_delay = 104.66676969548706; convergence_delay = 24.543814509711865;
      messages = 206; adverts = 48; withdrawals = 158; warmup_messages = 911;
      max_queue = 11; events = 2390 };
    { warmup_delay = 72.06510557918979; convergence_delay = 51.305429495061432;
      messages = 2303; adverts = 1091; withdrawals = 1212; warmup_messages = 3486;
      max_queue = 40; events = 11834 };
    { warmup_delay = 129.02370705946035; convergence_delay = 84.293078716471001;
      messages = 334; adverts = 120; withdrawals = 214; warmup_messages = 698;
      max_queue = 13; events = 2218 };
    { warmup_delay = 55.135980722034517; convergence_delay = 0.46674715613026763;
      messages = 181; adverts = 119; withdrawals = 62; warmup_messages = 8534;
      max_queue = 85; events = 19044 };
  |]

let tdown_golden =
  [|
    { warmup_delay = 5.442808348848355; convergence_delay = 0.27309701573459044;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 76;
      max_queue = 6; events = 291 };
    { warmup_delay = 5.6734814882078108; convergence_delay = 0.27713364433453869;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 80;
      max_queue = 6; events = 302 };
    { warmup_delay = 5.6287803441753566; convergence_delay = 0.2490448934295717;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 78;
      max_queue = 6; events = 298 };
    { warmup_delay = 5.2558436216893147; convergence_delay = 0.26889247484797174;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 84;
      max_queue = 6; events = 308 };
  |]

(* The eliminating queue disciplines on [flat_scenario]'s topology and
   seeds, with a short static MRAI so queues build up and stale updates
   are dropped.  The pop order of Batched, Fifo_dedup and Tcp_batch
   decides every field below, so these pin it end to end; the values
   were recorded with the linked-cell queues the flat slab replaced. *)
let discipline_scenario scheme discipline =
  {
    flat_scenario with
    Runner.net =
      Network.config_default Config.(default |> with_mrai scheme |> with_discipline discipline);
  }

let batched_golden =
  [|
    { warmup_delay = 2.7688563035069711; convergence_delay = 1.3394025568934742;
      messages = 595; adverts = 256; withdrawals = 339; warmup_messages = 1714;
      max_queue = 54; events = 5175 };
    { warmup_delay = 3.2184095517210851; convergence_delay = 0.86185216596163894;
      messages = 289; adverts = 123; withdrawals = 166; warmup_messages = 1705;
      max_queue = 67; events = 4533 };
    { warmup_delay = 3.165581144250575; convergence_delay = 1.504705331000082;
      messages = 579; adverts = 269; withdrawals = 310; warmup_messages = 1713;
      max_queue = 70; events = 5254 };
    { warmup_delay = 3.6342289558849132; convergence_delay = 1.1930631509165339;
      messages = 409; adverts = 183; withdrawals = 226; warmup_messages = 1828;
      max_queue = 66; events = 5157 };
  |]

let fifo_dedup_golden =
  [|
    { warmup_delay = 2.7132605180659639; convergence_delay = 1.5841405190939746;
      messages = 670; adverts = 283; withdrawals = 387; warmup_messages = 1836;
      max_queue = 66; events = 5488 };
    { warmup_delay = 2.857931978805615; convergence_delay = 1.7135371291469497;
      messages = 367; adverts = 172; withdrawals = 195; warmup_messages = 1745;
      max_queue = 85; events = 4691 };
    { warmup_delay = 3.1067476808996282; convergence_delay = 1.5329217054139264;
      messages = 620; adverts = 303; withdrawals = 317; warmup_messages = 1846;
      max_queue = 82; events = 5518 };
    { warmup_delay = 3.2193739523292666; convergence_delay = 1.5093064213612983;
      messages = 462; adverts = 219; withdrawals = 243; warmup_messages = 1980;
      max_queue = 75; events = 5530 };
  |]

let tcp_batch_golden =
  [|
    { warmup_delay = 2.7114989718297631; convergence_delay = 1.5994890785893663;
      messages = 696; adverts = 324; withdrawals = 372; warmup_messages = 1850;
      max_queue = 69; events = 5640 };
    { warmup_delay = 3.0120512264334818; convergence_delay = 1.1350075907709369;
      messages = 308; adverts = 132; withdrawals = 176; warmup_messages = 1746;
      max_queue = 86; events = 4577 };
    { warmup_delay = 3.1773700094818795; convergence_delay = 1.3776645570212604;
      messages = 548; adverts = 237; withdrawals = 311; warmup_messages = 1854;
      max_queue = 84; events = 5370 };
    { warmup_delay = 3.1986386153430977; convergence_delay = 1.3676381688397212;
      messages = 438; adverts = 208; withdrawals = 230; warmup_messages = 1982;
      max_queue = 76; events = 5506 };
  |]

let batched_dynamic_golden =
  [|
    { warmup_delay = 3.6405524502205555; convergence_delay = 1.6110046972889087;
      messages = 591; adverts = 258; withdrawals = 333; warmup_messages = 1707;
      max_queue = 49; events = 5157 };
    { warmup_delay = 4.1965283185748827; convergence_delay = 1.1342446987040899;
      messages = 310; adverts = 141; withdrawals = 169; warmup_messages = 1737;
      max_queue = 67; events = 4639 };
    { warmup_delay = 4.1664649482764151; convergence_delay = 1.484081331759465;
      messages = 604; adverts = 292; withdrawals = 312; warmup_messages = 1765;
      max_queue = 69; events = 5417 };
    { warmup_delay = 4.3542193753061884; convergence_delay = 1.2902389686243767;
      messages = 428; adverts = 202; withdrawals = 226; warmup_messages = 1864;
      max_queue = 64; events = 5248 };
  |]

let check_family name scenario golden () =
  Array.iteri
    (fun i g ->
      let r = Runner.run { scenario with Runner.seed = scenario.Runner.seed + i } in
      let ctx field = Printf.sprintf "%s seed+%d: %s" name i field in
      checkb (ctx "converged") true r.Runner.converged;
      checkf (ctx "warmup_delay") g.warmup_delay r.Runner.warmup_delay;
      checkf (ctx "convergence_delay") g.convergence_delay r.Runner.convergence_delay;
      checki (ctx "messages") g.messages r.Runner.messages;
      checki (ctx "adverts") g.adverts r.Runner.adverts;
      checki (ctx "withdrawals") g.withdrawals r.Runner.withdrawals;
      checki (ctx "warmup_messages") g.warmup_messages r.Runner.warmup_messages;
      checki (ctx "max_queue") g.max_queue r.Runner.max_queue;
      checki (ctx "events") g.events r.Runner.events)
    golden

(* Turning telemetry on must not perturb any routing-relevant golden
   field, and its report must account for the same totals. *)
let check_telemetry_neutral name scenario golden () =
  let tele_scenario =
    {
      scenario with
      Runner.net = { scenario.Runner.net with Network.telemetry = Some (Telemetry.config ()) };
    }
  in
  let g = golden.(0) in
  let r = Runner.run tele_scenario in
  let ctx field = Printf.sprintf "%s (telemetry on): %s" name field in
  checkb (ctx "converged") true r.Runner.converged;
  checkf (ctx "warmup_delay") g.warmup_delay r.Runner.warmup_delay;
  checkf (ctx "convergence_delay") g.convergence_delay r.Runner.convergence_delay;
  checki (ctx "messages") g.messages r.Runner.messages;
  checki (ctx "warmup_messages") g.warmup_messages r.Runner.warmup_messages;
  match r.Runner.report with
  | None -> Alcotest.fail (ctx "expected a telemetry report")
  | Some report ->
    let counter n =
      match List.find_opt (fun (name, _, _) -> name = n) report.Telemetry.counters with
      | Some (_, _, v) -> v
      | None -> Alcotest.failf "%s: counter %s missing" name n
    in
    checkf (ctx "net.messages_sent counter")
      (float_of_int (g.messages + g.warmup_messages))
      (counter "net.messages_sent");
    checkb (ctx "paths interned") true (counter "path.interned" > 0.0);
    checkb (ctx "intern hits") true (counter "path.intern_hits" > 0.0)

(* Arming the wall-clock profiler must not perturb any golden either: it
   reads only the monotonic clock and GC statistics, never simulated
   state, so all 12 pinned results stay bit-identical with --prof on. *)
let check_profiler_neutral name scenario golden () =
  Profile.start ();
  check_family name scenario golden ();
  match Profile.stop () with
  | None -> Alcotest.fail (name ^ ": profiler was armed but returned no report")
  | Some rep ->
    checkb (name ^ ": profiler recorded phase spans") true
      (List.exists
         (fun (d : Profile.domain_report) ->
           List.exists (fun (s : Profile.span) -> Profile.phase_kind s.Profile.kind)
             d.Profile.spans)
         rep.Profile.domains)

(* Same bit-identity over the sharded engine, whose hot loop carries the
   per-window span instrumentation.  The sharded engine's [events] count
   differs from the sequential one (different window bookkeeping), so
   the reference is the same sharded run with the profiler off. *)
let check_profiler_neutral_sharded name scenario () =
  let fields (r : Runner.result) =
    ( ( r.Runner.converged,
        r.Runner.warmup_delay,
        r.Runner.convergence_delay,
        r.Runner.messages,
        r.Runner.adverts ),
      ( r.Runner.withdrawals,
        r.Runner.warmup_messages,
        r.Runner.max_queue,
        r.Runner.events,
        r.Runner.issues ) )
  in
  Array.iter
    (fun i ->
      let scenario =
        { scenario with Runner.sharding = Some 2; Runner.seed = scenario.Runner.seed + i }
      in
      let off = Runner.run scenario in
      Profile.start ();
      let on = Runner.run scenario in
      let rep = Profile.stop () in
      checkb (Printf.sprintf "%s seed+%d: sharded run identical with --prof on" name i)
        true
        (fields off = fields on);
      match rep with
      | None -> Alcotest.fail (name ^ ": profiler was armed but returned no report")
      | Some rep ->
        checkb (Printf.sprintf "%s seed+%d: per-shard compute spans recorded" name i)
          true
          (List.exists
             (fun (d : Profile.domain_report) ->
               List.exists
                 (fun (s : Profile.span) ->
                   s.Profile.kind = Profile.Compute && s.Profile.shard >= 0)
                 d.Profile.spans)
             rep.Profile.domains))
    [| 0; 1; 2; 3 |]

let () =
  Alcotest.run "golden"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "flat 70-30 (4 seeds)" `Quick
            (check_family "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic 16-AS (4 seeds)" `Quick
            (check_family "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown ring (4 seeds)" `Quick
            (check_family "tdown" tdown_scenario tdown_golden);
        ] );
      ( "disciplines",
        [
          Alcotest.test_case "flat batched (4 seeds)" `Quick
            (check_family "batched" (discipline_scenario (Static 0.5) Iq.Batched)
               batched_golden);
          Alcotest.test_case "flat fifo-dedup (4 seeds)" `Quick
            (check_family "fifo-dedup" (discipline_scenario (Static 0.5) Iq.Fifo_dedup)
               fifo_dedup_golden);
          Alcotest.test_case "flat tcp-batch(20) (4 seeds)" `Quick
            (check_family "tcp-batch"
               (discipline_scenario (Static 0.5) (Iq.Tcp_batch { batch_size = 20 }))
               tcp_batch_golden);
          Alcotest.test_case "flat batched, dynamic MRAI (4 seeds)" `Quick
            (check_family "batched-dynamic"
               (discipline_scenario (Mrai.paper_dynamic ()) Iq.Batched)
               batched_dynamic_golden);
        ] );
      ( "telemetry-neutral",
        [
          Alcotest.test_case "flat" `Quick
            (check_telemetry_neutral "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic" `Quick
            (check_telemetry_neutral "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown" `Quick
            (check_telemetry_neutral "tdown" tdown_scenario tdown_golden);
        ] );
      ( "profiler-neutral",
        [
          Alcotest.test_case "flat (4 seeds)" `Quick
            (check_profiler_neutral "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic (4 seeds)" `Quick
            (check_profiler_neutral "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown (4 seeds)" `Quick
            (check_profiler_neutral "tdown" tdown_scenario tdown_golden);
          Alcotest.test_case "flat sharded (4 seeds)" `Quick
            (check_profiler_neutral_sharded "flat-sharded" flat_scenario);
        ] );
    ]
