module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Stats = Bgp_engine.Stats
module Profile = Bgp_engine.Profile
module Topology = Bgp_topology.Topology
module As_topology = Bgp_topology.As_topology
module Degree_dist = Bgp_topology.Degree_dist
module Failure = Bgp_topology.Failure

type topo_spec =
  | Flat of { spec : Degree_dist.spec; n : int }
  | Realistic of As_topology.config
  | Fixed of Topology.t

type failure_spec =
  | Fraction of float
  | Routers of int list
  | Links of (int * int) list
  | No_failure

type warmup_mode = Simulated | Analytic

type scenario = {
  topo : topo_spec;
  net : Network.config;
  failure : failure_spec;
  seed : int;
  sim_time_cap : float;
  validate : bool;
  warmup : warmup_mode;
  policies : bool;
  faults : Fault_injector.schedule option;
  sharding : int option;
  churn : Churn.schedule option;
  churn_window : float;
  dest_sample : int option;
}

let scenario ?(net = Network.config_default Bgp_proto.Config.default)
    ?(failure = No_failure) ?(seed = 1) ?(sim_time_cap = 36000.0) ?(validate = false)
    ?(warmup = Simulated) ?(policies = false) ?faults ?sharding ?churn
    ?(churn_window = 0.5) ?dest_sample topo =
  {
    topo;
    net;
    failure;
    seed;
    sim_time_cap;
    validate;
    warmup;
    policies;
    faults;
    sharding;
    churn;
    churn_window;
    dest_sample;
  }

type result = {
  converged : bool;
  warmup_delay : float;
  convergence_delay : float;
  messages : int;
  adverts : int;
  withdrawals : int;
  warmup_messages : int;
  eliminated : int;
  max_queue : int;
  mrai_transitions : int;
  events : int;
  lost_messages : int;
  survivors_connected : bool;
  issues : Validate.issue list;
  report : Telemetry.report option;
  attribution : Attribution.t option;
  churn : Churn.stats option;
}

let make_topology rng = function
  | Flat { spec; n } -> Topology.flat rng ~spec ~n
  | Realistic config -> As_topology.generate rng config
  | Fixed topo -> topo

let make_failure topo = function
  | Fraction f -> Failure.contiguous topo ~fraction:f
  | Routers l -> Failure.of_list topo l
  | Links _ | No_failure -> Failure.none topo

(* Seeded destination subsampling: narrow the config's active set to a
   [k]-subset by partial Fisher-Yates over the full prefix universe.  The
   stream is split only when sampling is requested (after the fault
   stream), so unsampled runs draw exactly what they always did. *)
let apply_dest_sample s topo rng_sample net_config =
  match (s.dest_sample, rng_sample) with
  | Some k, Some rng ->
    if k < 1 then invalid_arg "Runner.run: dest_sample must be >= 1";
    let bgp = net_config.Network.bgp in
    let universe = Bgp_proto.Config.num_dests bgp ~n_ases:topo.Topology.n_ases in
    if k >= universe then net_config
    else begin
      let arr = Array.init universe Fun.id in
      for i = 0 to k - 1 do
        let j = i + Rng.int rng (universe - i) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      {
        net_config with
        Network.bgp = Bgp_proto.Config.with_dest_sample (Array.sub arr 0 k) bgp;
      }
    end
  | _ -> net_config

let run_sequential ?inspect s =
  (* Wall-clock phase spans: reads of the monotonic clock only, so the
     run is bit-identical with profiling off and on. *)
  let prof = Profile.on () in
  let p0 = if prof then Profile.now_ns () else 0L in
  let root = Rng.create s.seed in
  let rng_topo = Rng.split root in
  let rng_net = Rng.split root in
  (* The fault stream is split only when a schedule is present: fault-free
     runs draw exactly what they always did (the goldens pin this), and a
     chaotic run is still a pure function of the seed. *)
  let rng_faults = Option.map (fun _ -> Rng.split root) s.faults in
  let rng_sample = Option.map (fun _ -> Rng.split root) s.dest_sample in
  let topo = make_topology rng_topo s.topo in
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run: bad topology: " ^ msg));
  let sched = Sched.create () in
  let net_config =
    if s.policies then
      { s.net with Network.relationships = Some (Relationships.infer topo) }
    else s.net
  in
  let net_config = apply_dest_sample s topo rng_sample net_config in
  (* Telemetry lives per run: the config only carries the spec, the
     instance (and hence all recorded state) is private to this trial. *)
  let tele = Option.map Telemetry.create net_config.Network.telemetry in
  let net = Network.build ~sched ~rng:rng_net ~config:net_config ?telemetry:tele topo in
  if prof then Profile.record Build p0;
  let p0 = if prof then Profile.now_ns () else 0L in
  (* Phase 1: reach steady state — by cold-start simulation (as in the
     paper) or by direct analytic construction. *)
  (match s.warmup with
  | Simulated ->
    Network.start_all net;
    (match tele with
    | Some t when (Telemetry.conf t).Telemetry.probe_warmup ->
      Network.start_probes net t
    | Some _ | None -> ());
    Sched.run ~until:s.sim_time_cap sched
  | Analytic ->
    if s.policies then
      invalid_arg "Runner.run: analytic warm-up is policy-free only";
    Warmup.install net);
  if prof then Profile.record Warmup p0;
  let warmup_converged = Sched.pending sched = 0 in
  let warmup_delay = Network.last_activity net in
  let warmup_messages = Network.messages_sent net in
  let warmup_adverts = Network.adverts_sent net in
  let warmup_withdrawals = Network.withdrawals_sent net in
  (if s.validate && warmup_converged then
     Validate.check_exn net ~failure:(Failure.none topo));
  (* Phase 2: failure and re-convergence. *)
  let p0 = if prof then Profile.now_ns () else 0L in
  let failure = make_failure topo s.failure in
  let t_fail = Sched.now sched +. 1.0 in
  ignore
    (Sched.schedule_at sched ~time:t_fail (fun () ->
         Network.inject_failure net failure;
         (match s.failure with
         | Links links -> Network.inject_link_failures net links
         | Fraction _ | Routers _ | No_failure -> ());
         (match (s.faults, rng_faults) with
         | Some schedule, Some rng ->
           Network.enable_faults net ~rng;
           Fault_injector.install net ~sched schedule
         | _ -> ());
         match tele with
         | Some t ->
           Telemetry.set_fail_time t t_fail;
           (* Baseline tick at the failure instant, then the periodic
              chain through re-convergence. *)
           Network.probe_tick net t;
           Network.start_probes net t
         | None -> ()));
  (* Steady-state churn: arm the workload ops as causal roots relative to
     [t_fail] and observe settle times + windowed throughput.  The hooks
     are pure observation and the sampler only exists under churn, so the
     churn-free path schedules exactly what it always did. *)
  let monitor =
    match s.churn with
    | None -> None
    | Some schedule ->
      let m = Churn.monitor net ~t0:t_fail ~window:s.churn_window in
      Churn.install net ~sched ~t0:t_fail schedule;
      Churn.start_sampler m net ~sched;
      Some (schedule, m)
  in
  if prof then Profile.record Fail p0;
  let p0 = if prof then Profile.now_ns () else 0L in
  Sched.run ~until:(t_fail +. s.sim_time_cap) sched;
  if prof then Profile.record Converge p0;
  let p0 = if prof then Profile.now_ns () else 0L in
  (* End-of-run hook: the chaos harness reads per-router queue/RIB state
     here, before the network goes out of scope.  Pure reads only. *)
  (match inspect with Some f -> f net | None -> ());
  let converged = warmup_converged && Sched.pending sched = 0 in
  let last = Network.last_activity net in
  let convergence_delay = Float.max 0.0 (last -. t_fail) in
  let churn_stats =
    Option.map (fun (schedule, m) -> Churn.stats m net ~schedule ~last_activity:last)
      monitor
  in
  let issues =
    (* Link failures change the graph underneath the survivor-BFS checks;
       only the router-failure invariants are validated. *)
    match s.failure with
    | Links _ -> []
    | Fraction _ | Routers _ | No_failure ->
      if s.validate && converged then Validate.check net ~failure else []
  in
  let metrics = Network.sum_metrics net in
  (* Post-hoc causal analysis of the traced run; pure read of the trace,
     so it cannot perturb anything above. *)
  let attribution =
    Option.map
      (fun trace -> Attribution.of_trace ~t_fail trace)
      net_config.Network.trace
  in
  (* Fold the component totals into the telemetry report (read at
     snapshot time below). *)
  (match (tele, attribution) with
  | Some t, Some attr ->
    let reg name v = Telemetry.register t ~name ~kind:Telemetry.Gauge (fun () -> v) in
    let open Attribution in
    reg "attr.queueing" attr.totals.queueing;
    reg "attr.processing" attr.totals.processing;
    reg "attr.mrai_hold" attr.totals.mrai_hold;
    reg "attr.propagation" attr.totals.propagation;
    reg "attr.critical_hops" (float_of_int (List.length attr.critical_path))
  | _ -> ());
  (* End-of-run memory snapshot: deterministic word-model estimates, so
     it may live inside the structurally-compared telemetry report. *)
  (match tele with
  | Some t -> Telemetry.set_memory t (Network.memory_snapshot net)
  | None -> ());
  if prof then begin
    Profile.counter_max "sched.max_live.shard0" (Sched.max_live sched);
    Profile.counter_max "sched.slab_cap.shard0" (Sched.slab_capacity sched);
    Profile.record Finalize p0
  end;
  {
    converged;
    warmup_delay;
    convergence_delay;
    messages = Network.messages_sent net - warmup_messages;
    adverts = Network.adverts_sent net - warmup_adverts;
    withdrawals = Network.withdrawals_sent net - warmup_withdrawals;
    warmup_messages;
    eliminated = metrics.Bgp_proto.Router.eliminated;
    max_queue = metrics.Bgp_proto.Router.max_queue;
    mrai_transitions = metrics.Bgp_proto.Router.mrai_transitions;
    events = Sched.events_executed sched;
    lost_messages = Network.lost_messages net;
    survivors_connected = Failure.survivors_connected topo failure;
    issues;
    report = Option.map Telemetry.report tele;
    attribution;
    churn = churn_stats;
  }

(* --- Sharded run ---------------------------------------------------------- *)

(* Same experiment, executed across OCaml 5 domains via the conservative
   windowed executor.  The RNG split discipline matches [run_sequential]
   exactly (root -> topo, net, faults-if-scheduled), and everything the
   shards do is keyed on layout-free values, so the result is
   bit-identical for any shard count — the test battery pins shards in
   {1, 2, 4} against each other.  It is NOT bit-identical to the
   sequential path (different delivery machinery); the sequential path
   and its goldens stay untouched. *)
let run_sharded ?inspect s ~shards =
  if shards < 1 then invalid_arg "Runner.run: sharding must be >= 1";
  let prof = Profile.on () in
  let p0 = if prof then Profile.now_ns () else 0L in
  let root = Rng.create s.seed in
  let rng_topo = Rng.split root in
  let rng_net = Rng.split root in
  let rng_faults = Option.map (fun _ -> Rng.split root) s.faults in
  let rng_sample = Option.map (fun _ -> Rng.split root) s.dest_sample in
  let topo = make_topology rng_topo s.topo in
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run: bad topology: " ^ msg));
  let net_config =
    if s.policies then
      { s.net with Network.relationships = Some (Relationships.infer topo) }
    else s.net
  in
  let net_config = apply_dest_sample s topo rng_sample net_config in
  let tele = Option.map Telemetry.create net_config.Network.telemetry in
  let part = Bgp_topology.Partition.compute ~shards ~seed:s.seed topo in
  let lookahead =
    Fault_injector.lookahead ~link_delay:net_config.Network.link_delay
      (Option.value ~default:[] s.faults)
  in
  let net =
    Network.build_sharded ~shards ~owner:part.Bgp_topology.Partition.owner ~lookahead
      ~rng:rng_net ~config:net_config ?telemetry:tele topo
  in
  if prof then Profile.record Build p0;
  (* Probe ticks ride the barrier windows: [at_barrier] runs
     single-threaded once per window with the window's start time, the
     only point where cross-shard router state is stable.  Tick times are
     therefore window starts (shard-count invariant), not the sequential
     path's exact interval grid. *)
  let next_probe = ref infinity in
  let probe_hook t ~now =
    if now >= !next_probe then begin
      Network.probe_tick ~time:now net t;
      next_probe := now +. (Telemetry.conf t).Telemetry.probe_interval
    end
  in
  let p0 = if prof then Profile.now_ns () else 0L in
  (match s.warmup with
  | Simulated ->
    Network.start_all net;
    let at_barrier =
      match tele with
      | Some t when (Telemetry.conf t).Telemetry.probe_warmup ->
        next_probe := (Telemetry.conf t).Telemetry.probe_interval;
        Some (probe_hook t)
      | Some _ | None -> None
    in
    Network.run_shards ?at_barrier net ~cap:s.sim_time_cap
  | Analytic ->
    if s.policies then invalid_arg "Runner.run: analytic warm-up is policy-free only";
    Warmup.install net);
  if prof then Profile.record Warmup p0;
  let warmup_converged = Network.shard_pending net = 0 in
  let warmup_delay = Network.last_activity net in
  let warmup_messages = Network.messages_sent net in
  let warmup_adverts = Network.adverts_sent net in
  let warmup_withdrawals = Network.withdrawals_sent net in
  (if s.validate && warmup_converged then
     Validate.check_exn net ~failure:(Failure.none topo));
  (* Phase 2: the orchestrator (single-threaded, every domain parked)
     injects the failure at a time strictly above every shard clock, then
     releases the shards. *)
  let p0 = if prof then Profile.now_ns () else 0L in
  let failure = make_failure topo s.failure in
  let t_fail = Network.shard_now net +. 1.0 in
  Network.inject_failure_sharded net ~at:t_fail failure;
  (match s.failure with
  | Links links -> Network.inject_link_failures_sharded net ~at:t_fail links
  | Fraction _ | Routers _ | No_failure -> ());
  (match (s.faults, rng_faults) with
  | Some schedule, Some rng ->
    Network.enable_faults net ~rng;
    Fault_injector.install_sharded net ~t_fail schedule
  | _ -> ());
  (* Churn ops land only on their router's owner shard (never replicated),
     so counters need no [note_replica] normalisation. *)
  let monitor =
    match s.churn with
    | None -> None
    | Some schedule ->
      let m = Churn.monitor net ~t0:t_fail ~window:s.churn_window in
      Churn.install_sharded net ~t_fail schedule;
      Some (schedule, m)
  in
  if prof then Profile.record Fail p0;
  let at_barrier =
    match tele with
    | Some t ->
      Telemetry.set_fail_time t t_fail;
      Network.probe_tick ~time:t_fail net t;
      next_probe := t_fail +. (Telemetry.conf t).Telemetry.probe_interval;
      Some (probe_hook t)
    | None -> None
  in
  (* Throughput samples ride the barrier windows, like probe ticks:
     window starts are shard-count invariant. *)
  let at_barrier =
    match monitor with
    | None -> at_barrier
    | Some (_, m) ->
      let next_window = ref (t_fail +. s.churn_window) in
      let churn_hook ~now =
        if now >= !next_window then begin
          Churn.sample m net ~now;
          next_window := now +. s.churn_window
        end
      in
      (match at_barrier with
      | None -> Some churn_hook
      | Some f ->
        Some
          (fun ~now ->
            f ~now;
            churn_hook ~now))
  in
  let p0 = if prof then Profile.now_ns () else 0L in
  Network.run_shards ?at_barrier net ~cap:(t_fail +. s.sim_time_cap);
  if prof then Profile.record Converge p0;
  let p0 = if prof then Profile.now_ns () else 0L in
  (match inspect with Some f -> f net | None -> ());
  let converged = warmup_converged && Network.shard_pending net = 0 in
  let last = Network.last_activity net in
  let convergence_delay = Float.max 0.0 (last -. t_fail) in
  let churn_stats =
    Option.map (fun (schedule, m) -> Churn.stats m net ~schedule ~last_activity:last)
      monitor
  in
  let issues =
    match s.failure with
    | Links _ -> []
    | Fraction _ | Routers _ | No_failure ->
      if s.validate && converged then Validate.check net ~failure else []
  in
  let metrics = Network.sum_metrics net in
  (* Merge the per-shard trace slices into the user's trace: sort by
     (time, strided id), renumber densely, rewrite causes — the result
     reads exactly like a sequential trace and is shard-count invariant. *)
  let attribution =
    Option.map
      (fun user ->
        let m0 = if prof then Profile.now_ns () else 0L in
        let merged =
          Trace.merge_renumber (List.map Trace.events (Network.shard_traces net))
        in
        if prof then Profile.record Merge m0;
        List.iter (Trace.record user) merged;
        Attribution.analyze ~t_fail merged)
      net_config.Network.trace
  in
  (match (tele, attribution) with
  | Some t, Some attr ->
    let reg name v = Telemetry.register t ~name ~kind:Telemetry.Gauge (fun () -> v) in
    let open Attribution in
    reg "attr.queueing" attr.totals.queueing;
    reg "attr.processing" attr.totals.processing;
    reg "attr.mrai_hold" attr.totals.mrai_hold;
    reg "attr.propagation" attr.totals.propagation;
    reg "attr.critical_hops" (float_of_int (List.length attr.critical_path))
  | _ -> ());
  (match tele with
  | Some t -> Telemetry.set_memory t (Network.memory_snapshot net)
  | None -> ());
  if prof then begin
    for shard = 0 to shards - 1 do
      let ssched = Network.shard_sched net shard in
      Profile.counter_max
        (Printf.sprintf "sched.max_live.shard%d" shard)
        (Sched.max_live ssched);
      Profile.counter_max
        (Printf.sprintf "sched.slab_cap.shard%d" shard)
        (Sched.slab_capacity ssched)
    done;
    Profile.record Finalize p0
  end;
  {
    converged;
    warmup_delay;
    convergence_delay;
    messages = Network.messages_sent net - warmup_messages;
    adverts = Network.adverts_sent net - warmup_adverts;
    withdrawals = Network.withdrawals_sent net - warmup_withdrawals;
    warmup_messages;
    eliminated = metrics.Bgp_proto.Router.eliminated;
    max_queue = metrics.Bgp_proto.Router.max_queue;
    mrai_transitions = metrics.Bgp_proto.Router.mrai_transitions;
    events = Network.shard_events net;
    lost_messages = Network.lost_messages net;
    survivors_connected = Failure.survivors_connected topo failure;
    issues;
    report = Option.map Telemetry.report tele;
    attribution;
    churn = churn_stats;
  }

let run_gen ?inspect s =
  match s.sharding with
  | Some shards -> run_sharded ?inspect s ~shards
  | None -> run_sequential ?inspect s

(* [run] keeps the plain [scenario -> result] arrow: it is passed
   first-class to [Pool.map], which an optional argument would break. *)
let run s = run_gen s
let run_with ~inspect s = run_gen ~inspect s

let topology_of s =
  let root = Rng.create s.seed in
  let rng_topo = Rng.split root in
  make_topology rng_topo s.topo

let failure_of s topo = make_failure topo s.failure

let trace_path ~base ~seed =
  let ext = Filename.extension base in
  Filename.remove_extension base ^ ".seed" ^ string_of_int seed ^ ext

let traced ?capacity ?spill_base s ~trials =
  if trials <= 0 then invalid_arg "Runner.traced: trials must be positive";
  Option.iter (fun base -> Telemetry.mkdir_p (Filename.dirname base)) spill_base;
  List.init trials (fun i ->
      let seed = s.seed + i in
      let spill = Option.map (fun base -> trace_path ~base ~seed) spill_base in
      let trace = Trace.create ?capacity ?spill () in
      ({ s with seed; net = { s.net with Network.trace = Some trace } }, trace))

(* Archive a traced batch: every spilled trial becomes a finalized,
   self-describing trace file plus (by default) its bgp-attr-sidecar/1
   sidecar — the compact residue `analyze --merge` and `bgpsim serve`
   fold without ever re-reading the event JSONL. *)
let finalize_traced ?(sidecars = true) pairs results =
  let written = ref [] in
  List.iter2
    (fun ((s : scenario), trace) (r : result) ->
      match (Trace.spill_path trace, r.attribution) with
      | Some spill, Some attr ->
        Trace.finalize trace ~meta:{ Trace.seed = s.seed; t_fail = attr.Attribution.t_fail };
        if sidecars then begin
          let path = Attribution.sidecar_path spill in
          Attribution.write_sidecar path (Attribution.sidecar_of ~seed:s.seed attr);
          written := path :: !written
        end
      | _ -> Trace.close trace)
    pairs results;
  List.rev !written

let run_mean s ~trials ~metric =
  let stats = Stats.create () in
  for i = 0 to trials - 1 do
    let result = run { s with seed = s.seed + i } in
    Stats.add stats (metric result)
  done;
  Stats.summarize stats
