(* The four workloads of the benchmark of record, each composed from the
   same public calls [Runner.run] makes so that the benchmark can put
   its set-up / measured boundary and its per-layer spans between them.
   Nothing here reads the simulator's internal profiler: every time is
   taken around a call into a library's public function, and every
   count comes from a public getter.

   The simulated instances are pinned (topology, trial seeds, failure),
   so their fingerprints can be checked exactly and their timings
   compared across runs. The benchmark seed only drives choices that
   cannot change a result: which campaign sidecars are withheld, and
   the order of the serve client's requests. *)

module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Pool = Bgp_engine.Pool
module Topology = Bgp_topology.Topology
module Partition = Bgp_topology.Partition
module Failure = Bgp_topology.Failure
module Degree_dist = Bgp_topology.Degree_dist
module Config = Bgp_proto.Config
module Router = Bgp_proto.Router
module Rib = Bgp_proto.Rib
module Path = Bgp_proto.Path
module Iq = Bgp_core.Input_queue
module Mrai = Bgp_core.Mrai_controller
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Churn = Bgp_netsim.Churn
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Attr_merge = Bgp_netsim.Attr_merge
module Validate = Bgp_netsim.Validate
module Warmup = Bgp_netsim.Warmup
module J = Bgp_netsim.Json_lite
module Sweep = Bgp_experiments.Sweep
module Serve = Bgp_experiments.Serve
module Figures = Bgp_experiments.Figures
module Figure = Bgp_experiments.Figure
module Scenarios = Bgp_experiments.Scenarios
module Verdicts = Bgp_experiments.Verdicts
module Fingerprint = Perfbench.Fingerprint
module Bstats = Perfbench.Bstats
module Serve_client = Perfbench.Serve_client

(* --- Workload parameters -------------------------------------------------- *)

(* One process uses at most this many domains. *)
let domains = 2

(* Timed repetitions of fig1_sweep and churn_flap run in one domain.
   With two, every stop-the-world minor collection and every barrier
   window makes one domain wait for the other, and on a VM whose
   hypervisor steals vCPU time in bursts that wait turns into CPU time:
   over ten seeds the CPU time of churn_flap at 2 shards spread by 21 %
   and fig1_sweep at 2 jobs by 8 %, against 3 % in one domain. The
   traced run measures both at 2 domains instead (engine.pool.*,
   engine.shard.k2_over_k1). traced_campaign keeps its pool of 2: its
   small trials spread by 3 % at 2 jobs. *)
let fig1_jobs = 1
let churn_shards = 1
let campaign_jobs = domains

let flat n = Runner.Flat { spec = Degree_dist.skewed_70_30; n }

let static_net ?trace ?(discipline = Iq.Fifo) mrai =
  let base =
    Network.config_default Config.(default |> with_mrai (Static mrai) |> with_discipline discipline)
  in
  { base with Network.trace }

(* heavy_trial: the n=200 ROADMAP cell shrunk to run many times. *)
let heavy_scenario =
  Runner.scenario ~net:(static_net 0.5) ~failure:(Runner.Fraction 0.2) ~seed:3 (flat 100)

(* fig1_sweep: Fig 1 on the quick grid (sizes 1/5/10/20 %, MRAI
   0.5/1.25/2.25 s, two trials per point), on a smaller topology. *)
let fig1_opts = { Scenarios.quick with Scenarios.n = 70 }

(* churn_flap: the bgpsim churn flap storm. *)
let churn_n = 120
let churn_seed = 3
let churn_prefix_mean = 24.0
let churn_max_prefixes = 10_000
let churn_window = 0.5

let churn_workload =
  Churn.Flap_storm { prefixes = 100_000; flaps = 4; hold = 1.0; spread = 5.0 }

(* traced_campaign *)
let campaign_trials = 24
let campaign_withheld = campaign_trials / 4
let serve_requests_per_verb = 400
let serve_verbs = [| "status"; "report"; "metrics" |]

let campaign_scenario =
  Runner.scenario ~net:(static_net 0.5) ~failure:(Runner.Fraction 0.10) ~seed:1 (flat 32)

(* --- Spans ---------------------------------------------------------------- *)

let now_s () = Int64.to_float (Bgp_engine.Profile.now_ns ()) *. 1e-9

(* A phase boundary: wall clock, and CPU seconds of the whole process
   (every domain; stolen time excluded). *)
type clock = { wall : float; cpu : float }

let clock () = { wall = now_s (); cpu = Sys.time () }
let since a b = { wall = b.wall -. a.wall; cpu = b.cpu -. a.cpu }

type span = { wall : float; minor : float; promoted : float; majors : int }

(* Spans of the current process, newest first; summed by name. *)
let spans : (string * span) list ref = ref []

let span name f =
  let g0 = Gc.quick_stat () and t0 = now_s () in
  let r = f () in
  let t1 = now_s () and g1 = Gc.quick_stat () in
  spans :=
    ( name,
      {
        wall = t1 -. t0;
        minor = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        majors = g1.Gc.major_collections - g0.Gc.major_collections;
      } )
    :: !spans;
  r

let span_total name =
  List.fold_left
    (fun acc (n, s) ->
      if n <> name then acc
      else
        {
          wall = acc.wall +. s.wall;
          minor = acc.minor +. s.minor;
          promoted = acc.promoted +. s.promoted;
          majors = acc.majors + s.majors;
        })
    { wall = 0.0; minor = 0.0; promoted = 0.0; majors = 0 }
    !spans

(* --- Public-getter counters ----------------------------------------------- *)

let routers net = List.init (Network.num_routers net) Fun.id

(* The distinct interning tables of a network: one, or one per shard. *)
let path_tables net =
  List.fold_left
    (fun acc r ->
      let t = Network.paths_for net r in
      if List.exists (( == ) t) acc then acc else t :: acc)
    [] (routers net)

type counters = {
  processed : int;  (* update messages taken off input queues *)
  changes : int;  (* export-relevant Loc-RIB revisions *)
  interned : int;  (* distinct paths in the interning tables *)
  cons_hits : int;  (* Path.cons calls answered by the memo table *)
  events : int;
}

let counters net ~events =
  let sum f = List.fold_left (fun acc r -> acc + f (Network.router net r)) 0 (routers net) in
  let tables = path_tables net in
  {
    processed = sum (fun r -> (Router.metrics r).Router.msgs_processed);
    changes = sum Router.rib_changes;
    interned = List.fold_left (fun acc t -> acc + Path.unique_count t) 0 tables;
    cons_hits = List.fold_left (fun acc t -> acc + Path.hit_count t) 0 tables;
    events;
  }

(* --- A trial composed from public calls ----------------------------------- *)

type trial = {
  net : Network.t;
  topo : Topology.t;
  failure : Failure.t;
  t_fail : float;
  setup : clock;
  measured : clock;  (* failure injection through quiescence *)
  converged : bool;
  delay : float;
  messages : int;  (* update messages sent in the measured phase *)
  events : int;
  before : counters;  (* at the start of the measured phase *)
  after : counters;
  max_live : int;
  churn : Churn.stats option;
  barrier_times : float list;  (* wall clock of each at_barrier call *)
}

let make_topology rng = function
  | Runner.Flat { spec; n } -> Topology.flat rng ~spec ~n
  | Runner.Realistic _ | Runner.Fixed _ -> invalid_arg "perfbench: flat topologies only"

let make_failure topo = function
  | Runner.Fraction f -> Failure.contiguous topo ~fraction:f
  | Runner.No_failure -> Failure.none topo
  | Runner.Routers _ | Runner.Links _ -> invalid_arg "perfbench: unsupported failure"

(* [Runner.run]'s sequential path for a policy-free, fault-free,
   churn-free scenario with a simulated warm-up. *)
let sequential_trial (s : Runner.scenario) =
  spans := [];
  let t0 = clock () in
  let root = Rng.create s.Runner.seed in
  let rng_topo = Rng.split root in
  let rng_net = Rng.split root in
  let topo = span "topology.generate" (fun () -> make_topology rng_topo s.Runner.topo) in
  let sched = Sched.create () in
  let net =
    span "netsim.build" (fun () -> Network.build ~sched ~rng:rng_net ~config:s.Runner.net topo)
  in
  span "netsim.warmup" (fun () ->
      Network.start_all net;
      Sched.run ~until:s.Runner.sim_time_cap sched);
  let warm_converged = Sched.pending sched = 0 in
  let warm_messages = Network.messages_sent net in
  let before = counters net ~events:(Sched.events_executed sched) in
  let t1 = clock () in
  let failure = make_failure topo s.Runner.failure in
  let t_fail = Sched.now sched +. 1.0 in
  ignore (Sched.schedule_at sched ~time:t_fail (fun () -> Network.inject_failure net failure));
  span "netsim.converge" (fun () -> Sched.run ~until:(t_fail +. s.Runner.sim_time_cap) sched);
  let t2 = clock () in
  {
    net;
    topo;
    failure;
    t_fail;
    setup = since t0 t1;
    measured = since t1 t2;
    converged = warm_converged && Sched.pending sched = 0;
    delay = Float.max 0.0 (Network.last_activity net -. t_fail);
    messages = Network.messages_sent net - warm_messages;
    events = Sched.events_executed sched;
    before;
    after = counters net ~events:(Sched.events_executed sched);
    max_live = Sched.max_live sched;
    churn = None;
    barrier_times = [];
  }

(* The churn scenario and schedule, as [bgpsim churn] derives them. *)
let churn_spec ?sharding () =
  let bgp = Config.(default |> with_mrai (Mrai.paper_dynamic ()) |> with_discipline Iq.Batched) in
  let base =
    Runner.scenario ~net:(Network.config_default bgp) ~failure:Runner.No_failure
      ~warmup:Runner.Analytic ~seed:churn_seed ~churn_window ?sharding (flat churn_n)
  in
  let topo = span "topology.generate" (fun () -> Runner.topology_of base) in
  let rng = Rng.create (churn_seed lxor 0x6368726e) in
  let rng_plan = Rng.split rng in
  let rng_churn = Rng.split rng in
  let counts =
    Churn.prefix_counts ~rng:rng_plan ~n_ases:topo.Topology.n_ases ~mean:churn_prefix_mean
      ~max_prefixes:churn_max_prefixes
  in
  let config = Config.with_prefix_plan counts bgp in
  let schedule = Churn.generate ~rng:rng_churn ~config ~topo churn_workload in
  ({ base with Runner.net = Network.config_default config; churn = Some schedule }, topo, schedule)

(* [Runner.run]'s sharded path for the churn scenario: analytic warm-up,
   no failure, churn ops on their owner shards, throughput sampled at
   the barrier windows. *)
let sharded_churn_trial () =
  spans := [];
  let t0 = clock () in
  let s, topo, schedule = churn_spec ~sharding:churn_shards () in
  let shards = churn_shards in
  (* The topology stream is split first so the network's stream matches
     Runner.run; churn_spec already generated the topology from it. *)
  let root = Rng.create s.Runner.seed in
  let _rng_topo = Rng.split root in
  let rng_net = Rng.split root in
  let part =
    span "topology.partition" (fun () -> Partition.compute ~shards ~seed:s.Runner.seed topo)
  in
  let lookahead = s.Runner.net.Network.link_delay in
  let net =
    span "netsim.build" (fun () ->
        Network.build_sharded ~shards ~owner:part.Partition.owner ~lookahead ~rng:rng_net
          ~config:s.Runner.net topo)
  in
  span "netsim.warmup" (fun () -> Warmup.install net);
  let warm_converged = Network.shard_pending net = 0 in
  let warm_messages = Network.messages_sent net in
  let before = counters net ~events:(Network.shard_events net) in
  let t1 = clock () in
  let failure = Failure.none topo in
  let t_fail = Network.shard_now net +. 1.0 in
  Network.inject_failure_sharded net ~at:t_fail failure;
  let monitor = Churn.monitor net ~t0:t_fail ~window:churn_window in
  Churn.install_sharded net ~t_fail schedule;
  let next_window = ref (t_fail +. churn_window) in
  let barrier_times = ref [] in
  let at_barrier ~now =
    barrier_times := now_s () :: !barrier_times;
    if now >= !next_window then begin
      Churn.sample monitor net ~now;
      next_window := now +. churn_window
    end
  in
  span "netsim.converge" (fun () ->
      Network.run_shards ~at_barrier net ~cap:(t_fail +. s.Runner.sim_time_cap));
  let last = Network.last_activity net in
  let stats = Churn.stats monitor net ~schedule ~last_activity:last in
  let t2 = clock () in
  let max_live =
    List.fold_left (fun m k -> max m (Sched.max_live (Network.shard_sched net k))) 0
      (List.init shards Fun.id)
  in
  {
    net;
    topo;
    failure;
    t_fail;
    setup = since t0 t1;
    measured = since t1 t2;
    converged = warm_converged && Network.shard_pending net = 0;
    delay = Float.max 0.0 (last -. t_fail);
    messages = Network.messages_sent net - warm_messages;
    events = Network.shard_events net;
    before;
    after = counters net ~events:(Network.shard_events net);
    max_live;
    churn = Some stats;
    barrier_times = List.rev !barrier_times;
  }

let trial_fingerprint t =
  [
    Fingerprint.int "messages" t.messages;
    Fingerprint.int "events" t.events;
    Fingerprint.float "delay" t.delay;
    Fingerprint.bool "converged" t.converged;
  ]
  @
  match t.churn with
  | None -> []
  | Some c ->
    [
      Fingerprint.int "updates_processed" c.Churn.updates_processed;
      Fingerprint.int "unconverged" c.Churn.unconverged;
      Fingerprint.float "settle_p99" c.Churn.p99;
    ]

(* The composed trial must be [Runner.run]'s trial, not a look-alike. *)
let runner_mismatch t (r : Runner.result) =
  let want =
    [
      ("messages", string_of_int r.Runner.messages);
      ("events", string_of_int r.Runner.events);
      ("delay", J.float_lit r.Runner.convergence_delay);
      ("converged", string_of_bool r.Runner.converged);
    ]
  in
  let got = List.filter (fun (k, _) -> List.mem_assoc k want) (trial_fingerprint t) in
  Fingerprint.check ~what:"composed trial vs Runner.run" ~expected:want ~actual:got

(* --- Repetitions ----------------------------------------------------------- *)

type rep = {
  setup : clock;
  measured : clock;
  updates : int;  (* update messages simulated in the measured phase *)
  trials : int;
  fingerprint : Fingerprint.t;
  attempted : int;  (* checked operations, the fingerprint included *)
  errors : string list;  (* failed checks; each is one failed operation *)
  extra : (string * float) list;  (* workload-specific measurements *)
}

let heavy_rep () =
  let t = sequential_trial heavy_scenario in
  ( {
      setup = t.setup;
      measured = t.measured;
      updates = t.messages;
      trials = 1;
      fingerprint = trial_fingerprint t;
      attempted = 1;
      errors = [];
      extra = [];
    },
    t )

let churn_rep () =
  let t = sharded_churn_trial () in
  ( {
      setup = t.setup;
      measured = t.measured;
      updates = t.messages;
      trials = 1;
      fingerprint = trial_fingerprint t;
      attempted = 1;
      errors = [];
      extra = [];
    },
    t )

(* The sweep's series, as [Figures.fig01] builds them: one per MRAI,
   one point per failure size. *)
let fig1_series () =
  List.map
    (fun mrai ->
      List.map
        (fun frac -> Scenarios.flat fig1_opts ~scheme:(Mrai.Static mrai) ~frac ())
        fig1_opts.Scenarios.sizes)
    Scenarios.fig1_mrais

let fig1_fingerprint fig =
  List.mapi
    (fun i v -> Fingerprint.bool (Printf.sprintf "verdict%d" (i + 1)) v.Verdicts.holds)
    (Verdicts.check fig)
  @ List.concat_map
      (fun (s : Figure.series) ->
        List.map
          (fun (p : Figure.point) ->
            Fingerprint.float (Printf.sprintf "mean[%s,%g%%]" s.Figure.label p.Figure.x) p.Figure.y)
          s.Figure.points)
      fig.Figure.series


(* Figures.fig01's own calls: one pool batch per series (the figure is
   then read from the filled cache). *)
let fig1_batches series ~trials =
  List.map
    (fun points ->
      Sweep.prefetch (List.map (fun s -> (s, trials)) points);
      Pool.last_batch ())
    series

let fig1_rep () =
  let carried = Sweep.cache_size () in
  let t0 = clock () in
  (* Set-up: plan the sweep — every trial's topology and failure set,
     the inputs Runner.run derives again inside the pool. *)
  let series = fig1_series () in
  let trials = fig1_opts.Scenarios.trials in
  let failed_routers =
    List.fold_left
      (fun acc (s : Runner.scenario) ->
        List.fold_left
          (fun acc i ->
            let s = { s with Runner.seed = s.Runner.seed + i } in
            acc + List.length (Failure.failed_list (Runner.failure_of s (Runner.topology_of s))))
          acc (List.init trials Fun.id))
      0 (List.concat series)
  in
  Pool.set_default_jobs fig1_jobs;
  let t1 = clock () in
  ignore (fig1_batches series ~trials);
  let fig = Figures.fig01 fig1_opts in
  let t2 = clock () in
  let results = List.concat_map (fun s -> Sweep.results s ~trials) (List.concat series) in
  let updates =
    List.fold_left (fun acc r -> acc + r.Runner.warmup_messages + r.Runner.messages) 0 results
  in
  {
    setup = since t0 t1;
    measured = since t1 t2;
    updates;
    trials = List.length results;
    fingerprint = Fingerprint.int "failed_routers" failed_routers :: fig1_fingerprint fig;
    attempted = 2;
    errors =
      (if carried = 0 then []
       else [ Printf.sprintf "sweep cache held %d entries before the repetition" carried ]);
    extra = [ ("experiments.sweep.cache_hits", float_of_int carried) ];
  }

(* --- traced_campaign ---------------------------------------------------- *)

let work_dir = "_perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

(* Remove a repetition's files, then the work directory once empty. *)
let cleanup paths =
  List.iter rm_rf paths;
  try Unix.rmdir work_dir with Unix.Unix_error _ -> ()

type campaign_obs = {
  pool : Pool.stats * Pool.domain_stat list list;  (* the campaign's batch *)
  sidecar_s : float list;  (* load_item time per sidecar trial *)
  reparse_s : float list;  (* load_item time per withheld trial *)
  latencies : (string * float) list;  (* verb, seconds *)
}

let merge_key (r : Attr_merge.report) = { r with Attr_merge.r_from_sidecars = 0; r_reparsed = 0 }

let campaign_rep ?(inspect = ignore) ~seed () =
  let pid = Unix.getpid () in
  mkdir_p work_dir;
  let dir = Filename.concat work_dir (Printf.sprintf "campaign-%d" pid) in
  let held = dir ^ "-held" in
  let socket = Filename.concat work_dir (Printf.sprintf "serve-%d.sock" pid) in
  Fun.protect ~finally:(fun () -> cleanup [ dir; held; socket ]) @@ fun () ->
  let rng = Rng.create seed in
  let t0 = clock () in
  (* Set-up: plan the campaign (every trial's topology and failure set)
     and open one spilling trace per trial. *)
  let failed_routers =
    List.fold_left
      (fun acc i ->
        let s = { campaign_scenario with Runner.seed = campaign_scenario.Runner.seed + i } in
        acc + List.length (Failure.failed_list (Runner.failure_of s (Runner.topology_of s))))
      0 (List.init campaign_trials Fun.id)
  in
  mkdir_p dir;
  mkdir_p held;
  let pairs =
    Runner.traced ~spill_base:(Filename.concat dir "t.jsonl") campaign_scenario
      ~trials:campaign_trials
  in
  let t1 = clock () in
  (* The campaign: traced trials on the pool, each finalized with its
     spill file and attribution sidecar. *)
  Pool.reset_stats ();
  let results = Pool.map ~jobs:campaign_jobs (fun (s, _) -> Runner.run s) pairs in
  let pool = (Pool.stats (), [ Pool.last_batch () ]) in
  let sidecars = Runner.finalize_traced pairs results in
  let t2 = now_s () in
  (* Withhold a fixed share of sidecars, chosen by the seed, so those
     trials take the re-parse path in the merge. *)
  let order = Array.of_list sidecars in
  Rng.shuffle rng order;
  let withheld = Array.to_list (Array.sub order 0 campaign_withheld) in
  List.iter (fun p -> Sys.rename p (Filename.concat held (Filename.basename p))) withheld;
  let acc = Attr_merge.create () in
  let sidecar_s = ref [] and reparse_s = ref [] in
  List.iter
    (fun item ->
      let i0 = now_s () in
      let loaded = Attr_merge.load_item item in
      let dt = now_s () -. i0 in
      (match item with
      | Attr_merge.Use_sidecar _ -> sidecar_s := dt :: !sidecar_s
      | Attr_merge.Use_trace _ -> reparse_s := dt :: !reparse_s);
      match loaded with
      | Ok sc ->
        let reparsed = match item with Attr_merge.Use_trace _ -> true | _ -> false in
        Attr_merge.add_sidecar ~reparsed acc sc
      | Error e -> Attr_merge.skip acc e)
    (Attr_merge.plan dir);
  let t3 = now_s () in
  (* Closed loop: one client, the server in a second domain, the
     withheld sidecars moved back in between requests. *)
  let server = Domain.spawn (fun () -> Serve.run ~scan_interval:0.05 ~socket ~dir ()) in
  let verbs = Array.concat (List.init serve_requests_per_verb (fun _ -> serve_verbs)) in
  Rng.shuffle rng verbs;
  let n_req = Array.length verbs in
  let moves = Array.of_list withheld in
  let latencies = ref [] and bad = ref [] in
  let final_trials =
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Serve.request ~socket "shutdown") with Unix.Unix_error _ -> ());
        Domain.join server)
      (fun () ->
        Serve_client.wait_ready socket;
        Array.iteri
          (fun i verb ->
            (* Move sidecar k in before request (k+1) * n / (W+1). *)
            Array.iteri
              (fun k p ->
                if i = (k + 1) * n_req / (Array.length moves + 1) then
                  Sys.rename (Filename.concat held (Filename.basename p)) p)
              moves;
            let r0 = now_s () in
            let reply = Serve.request ~socket verb in
            latencies := (verb, now_s () -. r0) :: !latencies;
            if not (Serve_client.reply_ok verb reply) then
              bad := Printf.sprintf "serve %s reply %d does not parse" verb i :: !bad)
          verbs;
        Serve_client.status_trials (Serve.request ~socket "status"))
  in
  let t4 = clock () in
  let lat_ms = List.map (fun (_, s) -> s *. 1000.0) !latencies in
  let full = Attr_merge.create () in
  Attr_merge.load ~jobs:1 full (Attr_merge.plan dir);
  let r_mixed = Attr_merge.report acc and r_full = Attr_merge.report full in
  let errors =
    List.rev !bad
    @ (if merge_key r_mixed = merge_key r_full then []
       else [ "merge with re-parsed trials differs from the all-sidecar merge" ])
    @ (match final_trials with
      | Some n when n = campaign_trials -> []
      | Some n -> [ Printf.sprintf "serve folded %d trials, expected %d" n campaign_trials ]
      | None -> [ "final serve status does not parse" ])
    @
    if Bstats.supports lat_ms 99.0 then []
    else [ "serve p99 has fewer than 10 requests beyond it" ]
  in
  inspect dir;
  let merge_s = t3 -. t2 in
  ( {
      setup = since t0 t1;
      measured = since t1 t4;
      updates =
        List.fold_left (fun acc r -> acc + r.Runner.warmup_messages + r.Runner.messages) 0 results;
      trials = campaign_trials;
      fingerprint =
        [
          Fingerprint.int "failed_routers" failed_routers;
          Fingerprint.int "trials" r_full.Attr_merge.r_trials;
          Fingerprint.int "dests" r_full.Attr_merge.r_dests;
          Fingerprint.float "mean_delay" r_full.Attr_merge.r_mean_delay;
          Fingerprint.float "total_queueing" r_full.Attr_merge.r_totals.Attribution.queueing;
          Fingerprint.float "total_processing" r_full.Attr_merge.r_totals.Attribution.processing;
          Fingerprint.float "total_mrai_hold" r_full.Attr_merge.r_totals.Attribution.mrai_hold;
          Fingerprint.float "total_propagation" r_full.Attr_merge.r_totals.Attribution.propagation;
          Fingerprint.float "tail_p99" r_full.Attr_merge.r_p99;
        ];
      attempted = 4 + n_req;
      errors;
      extra =
        [
          ("merge_trials_per_s", float_of_int campaign_trials /. merge_s);
          ("serve_p50_ms", Bstats.percentile lat_ms 50.0);
          ("serve_p99_ms", Bstats.percentile lat_ms 99.0);
          ("serve_requests", float_of_int n_req);
        ];
    },
    { pool; sidecar_s = !sidecar_s; reparse_s = !reparse_s; latencies = !latencies } )
