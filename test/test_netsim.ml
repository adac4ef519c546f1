(* Integration tests: whole networks converging over the discrete-event
   kernel, failure injection, invariants, and determinism. *)

module Rng = Bgp_engine.Rng
module Sched = Bgp_engine.Scheduler
module Graph = Bgp_topology.Graph
module Topology = Bgp_topology.Topology
module Degree_dist = Bgp_topology.Degree_dist
module Failure = Bgp_topology.Failure
module As_topology = Bgp_topology.As_topology
module Config = Bgp_proto.Config
module Router = Bgp_proto.Router
module Types = Bgp_proto.Types
module Network = Bgp_netsim.Network
module Runner = Bgp_netsim.Runner
module Validate = Bgp_netsim.Validate
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let path_t = Alcotest.(option (list int))

(* Paths are interned per network, so cross-network comparisons go
   through the raw hop lists. *)
let best_hops router dest =
  Option.map Bgp_proto.Path.hops (Router.best_path_to router dest)

(* Build a fixed topology from an edge list (one router per AS). *)
let fixed_topo n edges =
  let g = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  Topology.of_graph (Rng.create 99) g

let run_fixed ?(config = Config.default) ?(failure = Runner.No_failure) ?(seed = 1)
    ?(validate = true) topo =
  Runner.run
    (Runner.scenario
       ~net:(Network.config_default config)
       ~failure ~seed ~validate (Runner.Fixed topo))

(* Convergence on a line: 0-1-2-3.  Endpoints must learn 3-hop paths. *)
let test_line_converges () =
  let topo = fixed_topo 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 5)
      ~config:(Network.config_default Config.default)
      topo
  in
  Network.start_all net;
  Sched.run sched;
  checki "queue drained" 0 (Sched.pending sched);
  Alcotest.check path_t "0 -> 3 via the chain" (Some [ 1; 2; 3 ])
    (best_hops (Network.router net 0) 3);
  Alcotest.check path_t "3 -> 0" (Some [ 2; 1; 0 ])
    (best_hops (Network.router net 3) 0);
  Alcotest.check path_t "1 -> 2 direct" (Some [ 2 ])
    (best_hops (Network.router net 1) 2)

let test_ring_prefers_shorter_arc () =
  (* 6-ring: 0..5; 0 -> 3 has two equal arcs, 0 -> 2 a unique short one. *)
  let topo = fixed_topo 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 5)
      ~config:(Network.config_default Config.default)
      topo
  in
  Network.start_all net;
  Sched.run sched;
  (match Router.best_path_to (Network.router net 0) 2 with
  | Some p -> checki "2-hop path" 2 (Types.path_length p)
  | None -> Alcotest.fail "no route");
  match Router.best_path_to (Network.router net 0) 3 with
  | Some p -> checki "3-hop path either way" 3 (Types.path_length p)
  | None -> Alcotest.fail "no route"

let test_clique_all_direct () =
  let n = 5 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  let topo = fixed_topo n !edges in
  let r = run_fixed topo in
  checkb "converged" true r.Runner.converged;
  checkb "no issues" true (r.Runner.issues = [])

(* After a failure the survivors re-converge to survivor-graph shortest
   paths; Validate encodes the full invariant set. *)
let test_failure_invariants_small () =
  (* A 3x3 grid; fail the middle node 4. *)
  let topo =
    fixed_topo 9
      [
        (0, 1); (1, 2); (3, 4); (4, 5); (6, 7); (7, 8);
        (0, 3); (3, 6); (1, 4); (4, 7); (2, 5); (5, 8);
      ]
  in
  let r = run_fixed ~failure:(Runner.Routers [ 4 ]) topo in
  checkb "converged" true r.Runner.converged;
  checkb "invariants hold" true (r.Runner.issues = []);
  checkb "survivors connected" true r.Runner.survivors_connected;
  checkb "messages flowed" true (r.Runner.messages > 0)

let test_partition_withdraws_everything () =
  (* A path 0-1-2: failing the middle partitions the ends. *)
  let topo = fixed_topo 3 [ (0, 1); (1, 2) ] in
  let r = run_fixed ~failure:(Runner.Routers [ 1 ]) topo in
  checkb "converged" true r.Runner.converged;
  checkb "survivors disconnected" false r.Runner.survivors_connected;
  checkb "invariants hold (no stale routes)" true (r.Runner.issues = [])

let test_failed_dest_unreachable () =
  let topo = fixed_topo 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 5)
      ~config:(Network.config_default Config.default)
      topo
  in
  Network.start_all net;
  Sched.run sched;
  let failure = Failure.of_list topo [ 2 ] in
  Network.inject_failure net failure;
  Sched.run sched;
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "router %d dropped the dead destination" r)
        true
        (Router.best_path_to (Network.router net r) 2 = None))
    [ 0; 1; 3 ];
  (* And the ring heals around the hole. *)
  Alcotest.check path_t "1 -> 3 reroutes via 0" (Some [ 0; 3 ])
    (best_hops (Network.router net 1) 3)

let std_scenario ?(config = Config.default) ?(frac = 0.05) ?(seed = 3) ?(n = 50) () =
  Runner.scenario
    ~net:(Network.config_default config)
    ~failure:(Runner.Fraction frac) ~seed ~validate:true
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n })

let test_random_topology_invariants () =
  List.iter
    (fun seed ->
      let r = Runner.run (std_scenario ~seed ()) in
      checkb (Printf.sprintf "seed %d converged" seed) true r.Runner.converged;
      checkb (Printf.sprintf "seed %d invariants" seed) true (r.Runner.issues = []))
    [ 1; 2; 3; 4 ]

let test_determinism () =
  let run () =
    let r = Runner.run (std_scenario ()) in
    (r.Runner.convergence_delay, r.Runner.messages, r.Runner.events, r.Runner.warmup_delay)
  in
  checkb "identical seeds give identical runs" true (run () = run ())

let test_seed_sensitivity () =
  let r1 = Runner.run (std_scenario ~seed:1 ()) in
  let r2 = Runner.run (std_scenario ~seed:2 ()) in
  checkb "different seeds differ" true (r1.Runner.messages <> r2.Runner.messages)

let test_no_failure_no_churn () =
  let r = Runner.run (std_scenario ~frac:0.0 ()) in
  checki "no messages after a non-failure" 0 r.Runner.messages;
  Alcotest.check (Alcotest.float 1e-9) "no delay" 0.0 r.Runner.convergence_delay

let test_batching_reduces_messages_under_overload () =
  let fifo = Config.(default |> with_mrai (Static 0.5)) in
  let batched = Config.(fifo |> with_discipline Iq.Batched) in
  let r_fifo = Runner.run (std_scenario ~config:fifo ~frac:0.15 ~n:60 ()) in
  let r_batch = Runner.run (std_scenario ~config:batched ~frac:0.15 ~n:60 ()) in
  checkb "batching eliminates stale updates" true (r_batch.Runner.eliminated > 0);
  checkb "fifo eliminates nothing" true (r_fifo.Runner.eliminated = 0);
  checkb "batching sends fewer messages" true
    (r_batch.Runner.messages < r_fifo.Runner.messages);
  checkb "batching converges faster" true
    (r_batch.Runner.convergence_delay < r_fifo.Runner.convergence_delay)

let test_dynamic_scheme_reacts () =
  let config = Config.(default |> with_mrai (Mrai.paper_dynamic ())) in
  let r = Runner.run (std_scenario ~config ~frac:0.15 ~n:60 ()) in
  checkb "converged" true r.Runner.converged;
  checkb "levels moved under load" true (r.Runner.mrai_transitions > 0);
  checkb "invariants hold" true (r.Runner.issues = [])

let test_realistic_topology_run () =
  let scenario =
    Runner.scenario
      ~net:(Network.config_default Config.(default |> with_mrai (Static 2.25)))
      ~failure:(Runner.Fraction 0.05) ~seed:2 ~validate:true
      (Runner.Realistic (As_topology.default ~n_ases:30))
  in
  let r = Runner.run scenario in
  checkb "converged" true r.Runner.converged;
  checkb "invariants hold" true (r.Runner.issues = [])

let test_ibgp_mesh_sessions () =
  let rng = Rng.create 8 in
  let topo = As_topology.generate rng (As_topology.default ~n_ases:10) in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 9)
      ~config:(Network.config_default Config.default)
      topo
  in
  (* Every same-AS router pair has an iBGP session; every inter-AS link an
     eBGP session. *)
  let sessions = Network.sessions net in
  let ibgp_count =
    List.length (List.filter (fun (_, _, k) -> k = Types.Ibgp) sessions)
  in
  let expected_ibgp =
    List.fold_left
      (fun acc a ->
        let s = List.length (Topology.routers_of_as topo a) in
        acc + (s * (s - 1) / 2))
      0
      (List.init topo.Topology.n_ases Fun.id)
  in
  checki "full iBGP mesh" expected_ibgp ibgp_count;
  let ebgp_count =
    List.length (List.filter (fun (_, _, k) -> k = Types.Ebgp) sessions)
  in
  let inter_as_links =
    Graph.fold_edges
      (fun u v acc -> if Topology.is_ebgp topo u v then acc + 1 else acc)
      topo.Topology.graph 0
  in
  checki "one eBGP session per inter-AS link" inter_as_links ebgp_count

let test_warmup_message_bound () =
  (* Sanity: cold-start of an n-node network needs at least one message per
     (router, destination) pair reachable over each session... we only
     assert a loose lower bound: every destination must reach every other
     router at least once. *)
  let r = Runner.run (std_scenario ~frac:0.0 ~n:30 ()) in
  checkb "warmup messages at least n*(n-1)" true (r.Runner.warmup_messages >= 30 * 29)

(* The analytic warm-up must produce exactly the state a simulated
   cold-start converges to: selections, Adj-RIB-Ins and Adj-RIB-Outs. *)
let assert_warmup_equivalence topo =
  let build () =
    let sched = Sched.create () in
    let net =
      Network.build ~sched ~rng:(Rng.create 11)
        ~config:(Network.config_default Config.default)
        topo
    in
    (sched, net)
  in
  let sched_sim, net_sim = build () in
  Network.start_all net_sim;
  Sched.run sched_sim;
  checki "simulated warmup drained" 0 (Sched.pending sched_sim);
  let _, net_ana = build () in
  Bgp_netsim.Warmup.install net_ana;
  let n = Topology.num_routers topo in
  for r = 0 to n - 1 do
    let router_sim = Network.router net_sim r in
    let router_ana = Network.router net_ana r in
    for dest = 0 to topo.Topology.n_ases - 1 do
      let ctx = Printf.sprintf "router %d dest %d" r dest in
      Alcotest.check path_t (ctx ^ ": selection")
        (best_hops router_sim dest)
        (best_hops router_ana dest);
      let entries router =
        List.map
          (fun e ->
            (e.Bgp_proto.Rib.peer, e.Bgp_proto.Rib.kind,
             Bgp_proto.Path.hops e.Bgp_proto.Rib.path))
          (Bgp_proto.Rib.entries_in (Router.rib router) dest)
      in
      checkb (ctx ^ ": adj-rib-in") true (entries router_sim = entries router_ana);
      List.iter
        (fun peer ->
          Alcotest.check path_t
            (Printf.sprintf "%s: adj-rib-out to %d" ctx peer)
            (Option.map Bgp_proto.Path.hops (Router.advertised_to router_sim ~peer dest))
            (Option.map Bgp_proto.Path.hops (Router.advertised_to router_ana ~peer dest)))
        (Router.peer_ids router_sim)
    done
  done

let test_warmup_equivalence_flat () =
  let rng = Rng.create 21 in
  assert_warmup_equivalence (Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:40)

let test_warmup_equivalence_realistic () =
  let rng = Rng.create 22 in
  assert_warmup_equivalence (As_topology.generate rng (As_topology.default ~n_ases:15))

let test_warmup_equivalence_no_sender_check () =
  (* The equivalence must also hold when looped paths travel the wire and
     are dropped at the receiver instead. *)
  let rng = Rng.create 23 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:25 in
  let config = { Config.default with Config.sender_side_loop_check = false } in
  let build () =
    let sched = Sched.create () in
    let net =
      Network.build ~sched ~rng:(Rng.create 11) ~config:(Network.config_default config)
        topo
    in
    (sched, net)
  in
  let sched_sim, net_sim = build () in
  Network.start_all net_sim;
  Sched.run sched_sim;
  let _, net_ana = build () in
  Bgp_netsim.Warmup.install net_ana;
  for r = 0 to 24 do
    for dest = 0 to 24 do
      Alcotest.check path_t
        (Printf.sprintf "router %d dest %d" r dest)
        (best_hops (Network.router net_sim r) dest)
        (best_hops (Network.router net_ana r) dest)
    done
  done

let test_analytic_failure_run () =
  let scenario =
    Runner.scenario
      ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
      ~failure:(Runner.Fraction 0.10) ~seed:5 ~validate:true ~warmup:Runner.Analytic
      (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 50 })
  in
  let r = Runner.run scenario in
  checkb "converged" true r.Runner.converged;
  checkb "invariants hold" true (r.Runner.issues = []);
  Alcotest.check (Alcotest.float 1e-9) "no warm-up cost" 0.0 r.Runner.warmup_delay;
  checki "no warm-up messages" 0 r.Runner.warmup_messages;
  checkb "failure phase ran" true (r.Runner.messages > 0)

let test_detection_delay_config () =
  (* With a large detection delay, re-convergence takes at least that long. *)
  let topo = fixed_topo 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let net_config =
    { (Network.config_default Config.default) with Network.detection_delay = 5.0 }
  in
  let scenario =
    Runner.scenario ~net:net_config ~failure:(Runner.Routers [ 2 ]) ~seed:1
      ~validate:true (Runner.Fixed topo)
  in
  let r = Runner.run scenario in
  checkb "delay includes detection" true (r.Runner.convergence_delay >= 5.0)

(* --- Bounded path memory ------------------------------------------------- *)

(* After a flat n=40 network converges, its path table holds at most
   [sweep_multiple] times the distinct paths its routers reach (every
   Adj-RIB-In, Loc-RIB and Adj-RIB-Out path and each of its suffixes,
   counted by hop sequence): the table swept away what convergence
   interned and dropped. *)
let test_path_table_bounded () =
  let module Path = Bgp_proto.Path in
  let module Rib = Bgp_proto.Rib in
  let rng = Rng.create 3 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:40 in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 4)
      ~config:(Network.config_default Config.(with_mrai (Static 0.5) default))
      topo
  in
  Network.start_all net;
  Sched.run sched;
  let reachable = Hashtbl.create 4096 in
  let rec add = function
    | [] -> ()
    | _ :: rest as hops ->
      if not (Hashtbl.mem reachable hops) then begin
        Hashtbl.replace reachable hops ();
        add rest
      end
  in
  let visit p = add (Path.hops p) in
  for r = 0 to Network.num_routers net - 1 do
    let router = Network.router net r in
    let rib = Router.rib router in
    Rib.iter_dests rib (fun d ->
        List.iter (fun (e : Rib.entry) -> visit e.Rib.path) (Rib.entries_in rib d);
        Option.iter visit (Rib.best_path rib d);
        List.iter
          (fun peer -> Option.iter visit (Router.advertised_to router ~peer d))
          (Router.peer_ids router))
  done;
  let paths = Network.paths net in
  let nodes = (Path.table_stats paths).Path.nodes in
  checkb "the table swept during the run" true (Path.unique_count paths > nodes);
  checkb
    (Printf.sprintf "%d nodes <= %d x %d reachable" nodes Path.sweep_multiple
       (Hashtbl.length reachable))
    true
    (nodes <= Path.sweep_multiple * Hashtbl.length reachable)

(* --- Overload census (the mechanism behind the V-curve, Section 4.1) ------ *)

let overload_census ~mrai ~frac =
  let rng = Rng.create 3 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:120 in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 4)
      ~config:(Network.config_default Config.(with_mrai (Static mrai) default))
      topo
  in
  Network.start_all net;
  Sched.run sched;
  Network.inject_failure net (Bgp_topology.Failure.contiguous topo ~fraction:frac);
  Sched.run sched;
  (* Overloaded = the backlog could not be cleared within one MRAI window
     at some point (the paper's notion of an overloaded node). *)
  (topo, Network.overloaded_routers net ~threshold:mrai)

let test_overload_hits_high_degree_nodes () =
  (* At MRAI=0.5 with a 10% failure plenty of routers exceed upTh, and a
     high-degree router is more likely to be overloaded than a low-degree
     one — the paper's explanation for why the high-degree nodes govern
     the optimal MRAI. *)
  let topo, overloaded = overload_census ~mrai:0.5 ~frac:0.10 in
  checkb
    (Printf.sprintf "many overloaded routers (%d)" (List.length overloaded))
    true
    (List.length overloaded >= 10);
  let is_high r = Graph.degree topo.Topology.graph r >= 7 in
  let class_rate pred =
    let members = List.filter pred (List.init 120 Fun.id) in
    let hit = List.filter (fun r -> List.mem r overloaded) members in
    float_of_int (List.length hit) /. float_of_int (List.length members)
  in
  let rate_high = class_rate is_high and rate_low = class_rate (fun r -> not (is_high r)) in
  checkb
    (Printf.sprintf "overload rate: %.0f%% of high-degree vs %.0f%% of low-degree"
       (100. *. rate_high) (100. *. rate_low))
    true (rate_high > rate_low)

let test_overload_shrinks_at_high_mrai () =
  (* Raising the MRAI relieves the low-degree nodes first; by MRAI=2.25
     the overloaded set is almost exactly the high-degree class — which is
     why the optimum tracks the high-degree nodes (Section 4.1/4.2). *)
  let topo, at_low = overload_census ~mrai:0.5 ~frac:0.10 in
  let _, at_high = overload_census ~mrai:2.25 ~frac:0.10 in
  checkb
    (Printf.sprintf "overloaded: %d at MRAI=0.5 vs %d at MRAI=2.25"
       (List.length at_low) (List.length at_high))
    true
    (List.length at_high * 2 < List.length at_low);
  let high_share set =
    let high =
      List.filter (fun r -> Graph.degree topo.Topology.graph r >= 7) set
    in
    float_of_int (List.length high) /. float_of_int (Stdlib.max 1 (List.length set))
  in
  checkb
    (Printf.sprintf "at MRAI=2.25 the overloaded set is %.0f%% high-degree"
       (100. *. high_share at_high))
    true
    (high_share at_high >= 0.8)

(* Property: random topologies with random failure sets always converge
   with all invariants intact. *)
let prop_random_failures_keep_invariants =
  QCheck.Test.make ~name:"random failures keep the routing invariants" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 8))
    (fun (seed, kills) ->
      let scenario =
        Runner.scenario
          ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
          ~failure:(Runner.Routers (List.init kills (fun i -> (seed + (i * 7)) mod 30)))
          ~seed ~validate:true
          (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 30 })
      in
      let r = Runner.run scenario in
      r.Runner.converged && r.Runner.issues = [])

(* --- Tracing ------------------------------------------------------------- *)

module Trace = Bgp_netsim.Trace

let test_trace_ring_buffer () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t (Trace.Router_failed { id = Trace.fresh_id t; time = float_of_int i; router = i })
  done;
  checki "bounded" 3 (Trace.length t);
  checki "overwrites counted" 2 (Trace.dropped t);
  (match Trace.to_list t with
  | [ a; b; c ] ->
    Alcotest.check
      Alcotest.(list (float 1e-9))
      "oldest first, newest kept" [ 3.0; 4.0; 5.0 ]
      [ Trace.time_of a; Trace.time_of b; Trace.time_of c ]
  | _ -> Alcotest.fail "expected 3 events");
  Trace.clear t;
  checki "cleared" 0 (Trace.length t)

let trace_times t = List.map Trace.time_of (Trace.to_list t)
let fail_at time = Trace.Router_failed { id = 0; time; router = 0 }
let times_t = Alcotest.(list (float 1e-9))

let test_trace_capacity_edges () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()));
  let t = Trace.create ~capacity:4 () in
  checki "empty" 0 (Trace.length t);
  Alcotest.check times_t "empty list" [] (trace_times t);
  (* Exactly at capacity: everything kept, nothing dropped. *)
  for i = 1 to 4 do
    Trace.record t (fail_at (float_of_int i))
  done;
  checki "full" 4 (Trace.length t);
  checki "nothing dropped at exact capacity" 0 (Trace.dropped t);
  Alcotest.check times_t "insertion order" [ 1.0; 2.0; 3.0; 4.0 ] (trace_times t);
  (* One past capacity: the single oldest is overwritten. *)
  Trace.record t (fail_at 5.0);
  checki "still bounded" 4 (Trace.length t);
  checki "one dropped" 1 (Trace.dropped t);
  Alcotest.check times_t "oldest evicted, order kept" [ 2.0; 3.0; 4.0; 5.0 ]
    (trace_times t);
  (* More than a full lap of the ring: ordering must survive wraparound. *)
  for i = 6 to 11 do
    Trace.record t (fail_at (float_of_int i))
  done;
  checki "dropped accumulates" 7 (Trace.dropped t);
  Alcotest.check times_t "newest window after wrap" [ 8.0; 9.0; 10.0; 11.0 ]
    (trace_times t)

let test_trace_between_boundaries () =
  let t = Trace.create ~capacity:8 () in
  List.iter (fun time -> Trace.record t (fail_at time)) [ 1.0; 2.0; 3.0; 4.0 ];
  let times lo hi = List.map Trace.time_of (Trace.between t ~lo ~hi) in
  (* Half-open window: lo inclusive, hi exclusive. *)
  Alcotest.check times_t "lo <= t < hi" [ 2.0; 3.0 ] (times 2.0 4.0);
  Alcotest.check times_t "empty window" [] (times 2.0 2.0);
  Alcotest.check times_t "hi just past last" [ 4.0 ] (times 4.0 4.0000001);
  Alcotest.check times_t "everything" [ 1.0; 2.0; 3.0; 4.0 ] (times 0.0 infinity);
  (* After wraparound the window still reads oldest-first. *)
  let t = Trace.create ~capacity:3 () in
  List.iter (fun time -> Trace.record t (fail_at time)) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.check times_t "window over wrapped ring" [ 3.0; 4.0 ]
    (List.map Trace.time_of (Trace.between t ~lo:3.0 ~hi:5.0))

let test_trace_clear_resets () =
  let t = Trace.create ~capacity:2 () in
  List.iter (fun time -> Trace.record t (fail_at time)) [ 1.0; 2.0; 3.0 ];
  checki "overflowed before clear" 1 (Trace.dropped t);
  Trace.clear t;
  checki "length reset" 0 (Trace.length t);
  checki "dropped reset" 0 (Trace.dropped t);
  Alcotest.check times_t "emptied" [] (trace_times t);
  (* The ring is reusable after clear, with fresh ordering. *)
  List.iter (fun time -> Trace.record t (fail_at time)) [ 7.0; 8.0 ];
  checki "refilled" 2 (Trace.length t);
  checki "no stale drops" 0 (Trace.dropped t);
  Alcotest.check times_t "fresh order" [ 7.0; 8.0 ] (trace_times t)

let test_trace_records_network_events () =
  let topo = fixed_topo 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let trace = Trace.create () in
  let net_config =
    { (Network.config_default Config.default) with Network.trace = Some trace }
  in
  let sched = Sched.create () in
  let net = Network.build ~sched ~rng:(Rng.create 5) ~config:net_config topo in
  Network.start_all net;
  Sched.run sched;
  let sends = Trace.count trace ~pred:(function Trace.Update_sent _ -> true | _ -> false) in
  let recvs =
    Trace.count trace ~pred:(function Trace.Update_delivered _ -> true | _ -> false)
  in
  checki "sends recorded" (Network.messages_sent net) sends;
  checki "all delivered (no failures yet)" sends recvs;
  Network.inject_failure net (Failure.of_list topo [ 2 ]);
  Sched.run sched;
  checki "failure recorded" 1
    (Trace.count trace ~pred:(function Trace.Router_failed _ -> true | _ -> false));
  checki "both neighbours saw the session drop" 2
    (Trace.count trace ~pred:(function Trace.Session_down _ -> true | _ -> false));
  checkb "busiest-router table non-empty" true (Trace.sends_by_router trace <> []);
  (* between: the failure-phase events all carry times after the warmup. *)
  let t_fail =
    List.find_map
      (function Trace.Router_failed { time; _ } -> Some time | _ -> None)
      (Trace.to_list trace)
  in
  match t_fail with
  | Some time ->
    checkb "post-failure window non-empty" true
      (Trace.between trace ~lo:time ~hi:infinity <> [])
  | None -> Alcotest.fail "no failure event"

(* A spill base whose directory does not exist yet (a fresh campaign
   directory) must not fail: [Runner.traced] creates the parents. *)
let test_traced_creates_spill_dir () =
  let root = Filename.temp_file "bgp_traced" "" in
  Sys.remove root;
  let base = Filename.concat (Filename.concat root "missing") "t.jsonl" in
  let pairs = Runner.traced ~spill_base:base (std_scenario ~n:12 ()) ~trials:2 in
  let results = List.map (fun (s, _) -> Runner.run s) pairs in
  let written = Runner.finalize_traced pairs results in
  checki "one sidecar per trial" 2 (List.length written);
  List.iter
    (fun (s, _) ->
      checkb "spill file written" true
        (Sys.file_exists (Runner.trace_path ~base ~seed:s.Runner.seed)))
    pairs;
  let dir = Filename.dirname base in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Sys.rmdir root

(* --- Multiple prefixes per AS (Section 5 scaling argument) ----------------- *)

let test_prefixes_per_as_routes () =
  let config = { Config.default with Config.prefixes_per_as = 3 } in
  let rng = Rng.create 4 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:20 in
  let sched = Sched.create () in
  let net = Network.build ~sched ~rng:(Rng.create 5) ~config:(Network.config_default config) topo in
  Network.start_all net;
  Sched.run sched;
  checki "drained" 0 (Sched.pending sched);
  (* Every router must hold a route to every one of the 60 destinations,
     and same-AS prefixes must share their path. *)
  for r = 0 to 19 do
    for dest = 0 to 59 do
      match Router.best_path_to (Network.router net r) dest with
      | Some path ->
        let hops = Bgp_proto.Path.hops path in
        let origin = Config.origin_as config ~dest in
        if r <> origin then
          checki
            (Printf.sprintf "router %d dest %d path ends at its origin" r dest)
            origin
            (List.nth hops (List.length hops - 1))
      | None -> Alcotest.failf "router %d missing dest %d" r dest
    done
  done

let test_prefixes_scale_message_load () =
  let run ppa =
    let config =
      { (Config.with_mrai (Static 1.25) Config.default) with Config.prefixes_per_as = ppa }
    in
    Runner.run
      (Runner.scenario
         ~net:(Network.config_default config)
         ~failure:(Runner.Fraction 0.10) ~seed:2 ~validate:true
         (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 30 }))
  in
  let r1 = run 1 and r3 = run 3 in
  checkb "invariants hold at ppa=3" true (r3.Runner.issues = []);
  let ratio = float_of_int r3.Runner.messages /. float_of_int r1.Runner.messages in
  (* At least linear in the prefix count — in fact superlinear, because the
     extra updates overload routers and trigger extra churn, which is
     exactly the paper's Section 5 argument about the 200k-destination
     Internet. *)
  checkb
    (Printf.sprintf "3x prefixes => >=3x update load (ratio %.2f)" ratio)
    true
    (ratio >= 2.5 && ratio < 10.0)

let test_prefixes_analytic_equivalence () =
  let config = { Config.default with Config.prefixes_per_as = 2 } in
  let rng = Rng.create 31 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:15 in
  let build () =
    let sched = Sched.create () in
    (sched, Network.build ~sched ~rng:(Rng.create 6) ~config:(Network.config_default config) topo)
  in
  let sched_sim, net_sim = build () in
  Network.start_all net_sim;
  Sched.run sched_sim;
  let _, net_ana = build () in
  Bgp_netsim.Warmup.install net_ana;
  for r = 0 to 14 do
    for dest = 0 to 29 do
      Alcotest.check path_t
        (Printf.sprintf "router %d dest %d" r dest)
        (best_hops (Network.router net_sim r) dest)
        (best_hops (Network.router net_ana r) dest)
    done
  done

(* --- Classic single-event experiments (Labovitz et al.) ------------------ *)

let clique n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g u v
    done
  done;
  Topology.of_graph (Rng.create 9) g

let tdown_clique ~n ~wrate =
  let config =
    {
      (Config.with_mrai (Static 2.0) Config.default) with
      Config.mrai_jitter = false;
      mrai_on_withdrawals = wrate;
    }
  in
  Runner.run
    (Runner.scenario
       ~net:(Network.config_default config)
       ~failure:(Runner.Routers [ n - 1 ])
       ~seed:1
       (Runner.Fixed (clique n)))

let test_labovitz_bound_wrate () =
  (* Labovitz et al. [5]: withdrawing a destination from an n-clique where
     every message is MRAI-paced converges in (n-3) * MRAI at best.  Our
     simulator lands on that bound almost exactly. *)
  List.iter
    (fun n ->
      let r = tdown_clique ~n ~wrate:true in
      let bound = float_of_int (n - 3) *. 2.0 in
      checkb
        (Printf.sprintf "n=%d: %.2f within 0.5 s of (n-3)*MRAI = %g" n
           r.Runner.convergence_delay bound)
        true
        (Float.abs (r.Runner.convergence_delay -. bound) <= 0.5))
    [ 5; 8; 10 ]

let test_tdown_scaling_unpaced () =
  (* With RFC-style unpaced withdrawals, exploration is compressed but the
     delay still grows with the clique size and the message count grows
     superlinearly (path exploration). *)
  let r5 = tdown_clique ~n:5 ~wrate:false in
  let r8 = tdown_clique ~n:8 ~wrate:false in
  let r12 = tdown_clique ~n:12 ~wrate:false in
  checkb "delay grows with n" true
    (r5.Runner.convergence_delay < r8.Runner.convergence_delay
    && r8.Runner.convergence_delay < r12.Runner.convergence_delay);
  checkb "faster than the all-paced model" true
    (r12.Runner.convergence_delay < (tdown_clique ~n:12 ~wrate:true).Runner.convergence_delay);
  let m5 = float_of_int r5.Runner.messages and m12 = float_of_int r12.Runner.messages in
  checkb "messages grow superlinearly" true (m12 /. m5 > 12.0 /. 5.0 *. 2.0)

let test_link_failure_reroutes () =
  (* Ring of 6: failing link (0,1) forces the long way around. *)
  let topo = fixed_topo 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let r =
    Runner.run
      (Runner.scenario
         ~net:(Network.config_default Config.default)
         ~failure:(Runner.Links [ (0, 1) ])
         ~seed:1 (Runner.Fixed topo))
  in
  checkb "converged" true r.Runner.converged;
  checkb "messages flowed" true (r.Runner.messages > 0);
  (* Rebuild to inspect final state (same seed, deterministic). *)
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 5)
      ~config:(Network.config_default Config.default)
      topo
  in
  Network.start_all net;
  Sched.run sched;
  Network.inject_link_failures net [ (0, 1) ];
  Sched.run sched;
  (match Router.best_path_to (Network.router net 0) 1 with
  | Some p -> checki "0 -> 1 goes the long way" 5 (Types.path_length p)
  | None -> Alcotest.fail "no route after link failure");
  match Router.best_path_to (Network.router net 1) 0 with
  | Some p -> checki "1 -> 0 goes the long way" 5 (Types.path_length p)
  | None -> Alcotest.fail "no route after link failure"

(* --- Gao-Rexford policies ---------------------------------------------- *)

module Relationships = Bgp_netsim.Relationships

let test_relationship_inference () =
  (* A hub of degree 6 with six leaves: the hub must be everyone's
     provider. *)
  let topo = fixed_topo 7 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (0, 6) ] in
  let rels = Relationships.infer topo in
  checkb "hub is provider of leaf" true
    (Relationships.relation rels ~from:1 ~toward:0 = Some Bgp_proto.Types.Provider);
  checkb "leaf is customer of hub" true
    (Relationships.relation rels ~from:0 ~toward:1 = Some Bgp_proto.Types.Customer)

let test_relationship_peering () =
  (* Two equal-degree nodes peer. *)
  let topo = fixed_topo 4 [ (0, 1); (0, 2); (1, 3) ] in
  let rels = Relationships.infer topo in
  checkb "equal degrees peer" true
    (Relationships.relation rels ~from:0 ~toward:1 = Some Bgp_proto.Types.Peer_link)

let test_valley_free_predicate () =
  (* 0 and 1 are providers (peers of each other); 2,3 are their
     customers. *)
  let topo = fixed_topo 4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3) ] in
  ignore topo;
  (* Build explicit relations through inference on a clearer shape:
     hub 0 (degree 4) provides to 1..4, and 1..4 have degree 1. *)
  let topo = fixed_topo 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let rels = Relationships.infer topo in
  checkb "up then down is valley-free" true
    (Relationships.valley_free rels ~self:1 [ 0; 2 ]);
  checkb "down then up is a valley" false
    (Relationships.valley_free rels ~self:0 [ 1; 0 ])

let test_policied_network_invariants () =
  let scenario =
    Runner.scenario
      ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
      ~failure:(Runner.Fraction 0.10) ~seed:7 ~validate:true ~policies:true
      (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 60 })
  in
  let r = Runner.run scenario in
  checkb "converged" true r.Runner.converged;
  checkb "invariants (incl. valley-free paths) hold" true (r.Runner.issues = [])

let test_policies_restrict_exports () =
  (* With valley-free export, total messages can only go down relative to
     policy-free on the same topology/seed (fewer exports are legal). *)
  let run policies =
    Runner.run
      (Runner.scenario
         ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
         ~failure:(Runner.Fraction 0.10) ~seed:3 ~policies
         (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 60 }))
  in
  let plain = run false and policied = run true in
  checkb "policies reduce warm-up messages" true
    (policied.Runner.warmup_messages < plain.Runner.warmup_messages)

let test_hold_timer_detection () =
  (* With hold-timer detection (no link signal), convergence is dominated
     by the hold time: everything happens between [hold - keepalive] and
     just after [hold]. *)
  let topo = fixed_topo 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let session =
    { Bgp_proto.Session.default_config with Bgp_proto.Session.hold_time = 9.0 }
  in
  let net_config =
    { (Network.config_default Config.default) with Network.detection = Network.Hold_timer session }
  in
  let scenario =
    Runner.scenario ~net:net_config ~failure:(Runner.Routers [ 2 ]) ~seed:1
      ~validate:true (Runner.Fixed topo)
  in
  let r = Runner.run scenario in
  checkb "converged" true r.Runner.converged;
  checkb "invariants hold" true (r.Runner.issues = []);
  checkb "delay at least hold - keepalive" true (r.Runner.convergence_delay >= 9.0 *. 0.75 -. 3.0);
  checkb "delay not much beyond hold" true (r.Runner.convergence_delay <= 9.0 +. 60.0)

(* --- The message path allocates nothing per message ---------------------- *)

(* A diamond at steady state: router 0 hears dest 3 from peers 1 and 2
   (both [x; 3]) and selects peer 1's route, so what peer 2 says about
   dest 3 never changes router 0's Loc-RIB. *)
let steady_diamond ?(config = Config.default) () =
  let topo = fixed_topo 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (2, 4); (4, 3) ] in
  let sched = Sched.create () in
  let net =
    Network.build ~sched ~rng:(Rng.create 5) ~config:(Network.config_default config) topo
  in
  Network.start_all net;
  Sched.run sched;
  (sched, net)

(* Minor words per re-advertisement, measured at 6.0 on x86-64 (6.3 with
   the dynamic MRAI's load window): what is left is the two events'
   boxed clock and the processing-delay draw.  Pinned at 6.0 plus 25 %.
   With an [Advertise] record, a delivery closure and a queue box per
   message it was 35 (53 with the dynamic MRAI's load record). *)
let readvert_words_bound = 7.5

let message_path_allocation config () =
  let sched, net = steady_diamond ~config () in
  let r0 = Network.router net 0 in
  let path = Option.get (Router.advertised_to (Network.router net 2) ~peer:0 3) in
  checkb "selection stays on peer 1" true (Router.next_hop r0 3 = Some 1);
  let round () =
    Network.send_update net ~src:2 ~dst:0 3 path;
    Sched.run sched
  in
  for _ = 1 to 100 do
    round ()
  done;
  let n = 20_000 in
  let changes = Router.rib_changes r0 and processed = (Router.metrics r0).Router.msgs_processed in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    round ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  checki "every message processed" (processed + n) (Router.metrics r0).Router.msgs_processed;
  checki "no Loc-RIB change" changes (Router.rib_changes r0);
  if words > readvert_words_bound then
    Alcotest.failf "%.2f minor words per re-advertisement (bound %.1f)" words
      readvert_words_bound

(* A path that only ever travelled as a message is garbage once the
   run's table forgets it: no flight slot, queue slot or router field
   keeps a delivered or a dropped path alive.  All three messages are in
   flight together and nothing is sent after them, so their flight slots
   are not reused before the check. *)
let test_in_flight_path_collectable () =
  let sched, net = steady_diamond () in
  Network.inject_failure net (Failure.of_list (Network.topology net) [ 4 ]);
  Sched.run sched;
  let held = Option.get (Router.advertised_to (Network.router net 2) ~peer:0 3) in
  let weak = Weak.create 2 in
  let[@inline never] send_fresh i ~via ~dst =
    let p = Bgp_proto.Path.of_list (Network.paths net) [ 2; via; 3 ] in
    Weak.set weak i (Some p);
    Network.send_update net ~src:2 ~dst 3 p
  in
  (* Delivered: router 0 takes the longer path from peer 2 (its selection
     stays on peer 1) until peer 2's real path, right behind it, replaces
     it.  Dropped: router 4 has failed. *)
  send_fresh 0 ~via:9 ~dst:0;
  Network.send_update net ~src:2 ~dst:0 3 held;
  send_fresh 1 ~via:8 ~dst:4;
  let changes = Router.rib_changes (Network.router net 0) in
  Sched.run sched;
  checki "router 0 sent nothing" changes (Router.rib_changes (Network.router net 0));
  Bgp_proto.Path.sweep (Network.paths net);
  Gc.full_major ();
  checkb "delivered path collected" true (Option.is_none (Weak.get weak 0));
  checkb "dropped path collected" true (Option.is_none (Weak.get weak 1));
  (* The network, and so its flight slab, stayed reachable throughout. *)
  checki "network live" 5 (Network.num_routers net)

let () =
  Alcotest.run "netsim"
    [
      ( "small-networks",
        [
          Alcotest.test_case "line converges" `Quick test_line_converges;
          Alcotest.test_case "ring shortest arc" `Quick test_ring_prefers_shorter_arc;
          Alcotest.test_case "clique" `Quick test_clique_all_direct;
          Alcotest.test_case "grid failure invariants" `Quick test_failure_invariants_small;
          Alcotest.test_case "partition" `Quick test_partition_withdraws_everything;
          Alcotest.test_case "failed dest unreachable" `Quick test_failed_dest_unreachable;
          Alcotest.test_case "message path allocation" `Quick
            (message_path_allocation Config.default);
          Alcotest.test_case "message path allocation, dynamic MRAI" `Quick
            (message_path_allocation
               Config.(with_mrai (Mrai.paper_dynamic ()) default));
          Alcotest.test_case "in-flight paths collectable" `Quick
            test_in_flight_path_collectable;
        ] );
      ( "random-networks",
        [
          Alcotest.test_case "invariants across seeds" `Quick test_random_topology_invariants;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "no failure, no churn" `Quick test_no_failure_no_churn;
          Alcotest.test_case "warmup message bound" `Quick test_warmup_message_bound;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "batching reduces load" `Quick
            test_batching_reduces_messages_under_overload;
          Alcotest.test_case "dynamic reacts" `Quick test_dynamic_scheme_reacts;
        ] );
      ( "realistic",
        [
          Alcotest.test_case "multi-router run" `Quick test_realistic_topology_run;
          Alcotest.test_case "iBGP mesh sessions" `Quick test_ibgp_mesh_sessions;
        ] );
      ( "warmup",
        [
          Alcotest.test_case "analytic = simulated (flat)" `Quick
            test_warmup_equivalence_flat;
          Alcotest.test_case "analytic = simulated (realistic)" `Quick
            test_warmup_equivalence_realistic;
          Alcotest.test_case "analytic = simulated (no sender check)" `Quick
            test_warmup_equivalence_no_sender_check;
          Alcotest.test_case "analytic failure run" `Quick test_analytic_failure_run;
        ] );
      ( "overload",
        [
          Alcotest.test_case "path table bounded by live paths" `Quick
            test_path_table_bounded;
          Alcotest.test_case "high-degree nodes overload first" `Quick
            test_overload_hits_high_degree_nodes;
          Alcotest.test_case "overload shrinks at high MRAI" `Quick
            test_overload_shrinks_at_high_mrai;
          QCheck_alcotest.to_alcotest prop_random_failures_keep_invariants;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
          Alcotest.test_case "capacity edge cases" `Quick test_trace_capacity_edges;
          Alcotest.test_case "between boundaries" `Quick test_trace_between_boundaries;
          Alcotest.test_case "clear resets" `Quick test_trace_clear_resets;
          Alcotest.test_case "records network events" `Quick
            test_trace_records_network_events;
          Alcotest.test_case "traced creates the spill directory" `Quick
            test_traced_creates_spill_dir;
        ] );
      ( "prefixes",
        [
          Alcotest.test_case "routes for every prefix" `Quick test_prefixes_per_as_routes;
          Alcotest.test_case "message load scales" `Quick test_prefixes_scale_message_load;
          Alcotest.test_case "analytic equivalence (ppa=2)" `Quick
            test_prefixes_analytic_equivalence;
        ] );
      ( "classic-events",
        [
          Alcotest.test_case "Labovitz (n-3)*MRAI bound (WRATE)" `Quick
            test_labovitz_bound_wrate;
          Alcotest.test_case "Tdown scaling (unpaced)" `Quick test_tdown_scaling_unpaced;
          Alcotest.test_case "link failure reroutes" `Quick test_link_failure_reroutes;
        ] );
      ( "policies",
        [
          Alcotest.test_case "relationship inference" `Quick test_relationship_inference;
          Alcotest.test_case "peering inference" `Quick test_relationship_peering;
          Alcotest.test_case "valley-free predicate" `Quick test_valley_free_predicate;
          Alcotest.test_case "policied network invariants" `Quick
            test_policied_network_invariants;
          Alcotest.test_case "policies restrict exports" `Quick
            test_policies_restrict_exports;
        ] );
      ( "config",
        [
          Alcotest.test_case "detection delay" `Quick test_detection_delay_config;
          Alcotest.test_case "hold-timer detection" `Quick test_hold_timer_detection;
        ] );
    ]
