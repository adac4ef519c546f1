(** One complete experiment run: generate a topology, warm the network up
    to steady state, inject a failure, and measure re-convergence — the
    paper's basic experimental unit. *)

type topo_spec =
  | Flat of { spec : Bgp_topology.Degree_dist.spec; n : int }
      (** one router per AS, Section 3.1's simple topologies *)
  | Realistic of Bgp_topology.As_topology.config  (** Fig 13 *)
  | Fixed of Bgp_topology.Topology.t  (** caller-supplied (tests) *)

type failure_spec =
  | Fraction of float  (** contiguous around the grid centre (paper) *)
  | Routers of int list  (** explicit set *)
  | Links of (int * int) list
      (** sessions drop, routers stay up (classic Tdown experiments) *)
  | No_failure

type warmup_mode =
  | Simulated  (** cold-start convergence simulation (like the paper) *)
  | Analytic
      (** install the steady state directly ({!Warmup.install}); roughly
          halves a run's cost and is bit-equivalent in routing state *)

type scenario = {
  topo : topo_spec;
  net : Network.config;
  failure : failure_spec;
  seed : int;
  sim_time_cap : float;
      (** safety net per phase; a run that hits it is flagged unconverged *)
  validate : bool;  (** run {!Validate.check_exn} after each phase *)
  warmup : warmup_mode;
  policies : bool;
      (** infer Gao-Rexford relationships for the generated topology and
          run with valley-free policies (forces a simulated warm-up) *)
  faults : Fault_injector.schedule option;
      (** chaos schedule installed at the failure instant (onsets are
          offsets from [t_fail]); [None] leaves the fault layer disabled
          and the run bit-identical to pre-chaos builds *)
  sharding : int option;
      (** [Some k]: run the single trial across [k] OCaml 5 domains
          ({!Network.build_sharded} over a {!Bgp_topology.Partition},
          conservative barrier-windowed execution with the link delay as
          lookahead).  Results are bit-identical for every [k >= 1] —
          but produced by different machinery than [None], which keeps
          the historical sequential path (and its goldens) untouched.
          See DESIGN.md §11. *)
  churn : Churn.schedule option;
      (** sustained-load workload armed at the failure instant (onsets
          are offsets from [t_fail]); a steady-state {!Churn.monitor}
          observes the run and its {!Churn.stats} land in the result.
          [None] keeps the load phase bit-identical to churn-free
          builds *)
  churn_window : float;
      (** throughput-sampling window width in seconds (only read under
          [churn]) *)
  dest_sample : int option;
      (** [Some k]: seeded destination subsampling — only a [k]-subset of
          the prefix universe is originated, warmed, validated and
          churned; per-prefix metrics stay exact for the subset while
          message totals scale roughly with the sampled fraction.  [None]
          keeps the full universe and the historical RNG draw order *)
}

val scenario :
  ?net:Network.config ->
  ?failure:failure_spec ->
  ?seed:int ->
  ?sim_time_cap:float ->
  ?validate:bool ->
  ?warmup:warmup_mode ->
  ?policies:bool ->
  ?faults:Fault_injector.schedule ->
  ?sharding:int ->
  ?churn:Churn.schedule ->
  ?churn_window:float ->
  ?dest_sample:int ->
  topo_spec ->
  scenario
(** Defaults: paper BGP config ({!Bgp_proto.Config.default}), no failure,
    seed 1, cap 36000 s, validation off, simulated warm-up, no policies,
    no fault schedule, no sharding (sequential execution), no churn
    (churn window 0.5 s), no destination subsampling. *)

type result = {
  converged : bool;
  warmup_delay : float;  (** time to initial convergence *)
  convergence_delay : float;
      (** last route-affecting activity minus failure time (the paper's
          metric); 0 when nothing happened *)
  messages : int;  (** update messages generated after the failure *)
  adverts : int;  (** advertisements generated after the failure *)
  withdrawals : int;
  warmup_messages : int;
  eliminated : int;  (** stale updates removed by the batching queue *)
  max_queue : int;  (** deepest input queue seen at any router *)
  mrai_transitions : int;  (** dynamic-scheme level changes *)
  events : int;  (** simulator events executed (cost indicator) *)
  lost_messages : int;
      (** messages the fault layer dropped in flight; 0 without [faults].
          Conservation: update sends = deliveries + [lost_messages] *)
  survivors_connected : bool;
  issues : Validate.issue list;  (** non-empty only when [validate] *)
  report : Telemetry.report option;
      (** telemetry report when [net.telemetry] is set; [None] otherwise.
          With telemetry off the whole record is bit-identical to a run
          without the telemetry layer; with it on, only [events] differs
          (probe events), never a routing-relevant field *)
  attribution : Attribution.t option;
      (** causal convergence-delay attribution when [net.trace] is set;
          [None] otherwise.  Tracing perturbs nothing: all other fields
          (including [events]) are bit-identical with it on or off.  When
          both trace and telemetry are set, the component totals also
          appear in [report] as [attr.*] gauges *)
  churn : Churn.stats option;
      (** steady-state workload measurements when [scenario.churn] is
          set: sustained/peak update throughput, queue-depth high-water,
          per-prefix settle-delay tails, unconverged prefix count *)
}

val run : scenario -> result
(** A pure function of the scenario: same scenario, same result, on any
    number of domains. *)

val run_with : inspect:(Network.t -> unit) -> scenario -> result
(** {!run}, plus an end-of-run hook called on the live network after the
    post-failure phase drains (or hits the cap) and before teardown —
    the chaos harness reads per-router queue and RIB state there.
    [inspect] must only read; the run is otherwise identical to {!run}. *)

val topology_of : scenario -> Bgp_topology.Topology.t
(** The topology {!run} will build for this scenario (same seed
    derivation), so a fault schedule can be generated against it without
    running anything. *)

val failure_of : scenario -> Bgp_topology.Topology.t -> Bgp_topology.Failure.t
(** The failure set {!run} will inject into this topology. *)

val run_mean :
  scenario -> trials:int -> metric:(result -> float) -> Bgp_engine.Stats.summary
(** Run [trials] seeds ([seed], [seed+1], ...) and summarize a metric. *)

(** {2 Traced trials}

    Tracing a sweep used to mean one shared spill file and hence one
    domain; giving every trial its own trace (and its own seed-suffixed
    spill file) makes traced sweeps embarrassingly parallel again. *)

val trace_path : base:string -> seed:int -> string
(** The per-trial spill path: [trace_path ~base:"t.jsonl" ~seed:7] is
    ["t.seed7.jsonl"] (the seed suffix goes before the extension). *)

val traced :
  ?capacity:int ->
  ?spill_base:string ->
  scenario ->
  trials:int ->
  (scenario * Trace.t) list
(** Expand a scenario into [trials] per-trial scenarios (seeds [seed],
    [seed+1], ...), each with a fresh {!Trace.t} attached; with
    [spill_base] each trace spills to {!trace_path}[ ~base:spill_base],
    and the spill directory is created first if it is missing.
    The traces are returned so the caller can inspect, {!Trace.finalize}
    or close them after running.
    @raise Invalid_argument if [trials <= 0].
    @raise Sys_error if a spill file cannot be created. *)

val finalize_traced :
  ?sidecars:bool -> (scenario * Trace.t) list -> result list -> string list
(** Archive a traced batch after the runs: every trial with a spill file
    is {!Trace.finalize}d (events + meta line) and — unless
    [~sidecars:false] — its {!Attribution.sidecar} is written next to
    the trace ({!Attribution.sidecar_path}), atomically.  Trials without
    a spill file are just closed.  Returns the sidecar paths written.
    The sidecar is what makes later [analyze --merge] passes O(trials):
    the raw event JSONL is never re-read when a sidecar is present. *)
