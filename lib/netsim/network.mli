(** Assembles a BGP network over a topology and carries messages.

    Sessions: every inter-AS link is an eBGP session; routers inside one
    AS form a full iBGP mesh (intra-AS physical links matter only for
    geography).  All messages take [link_delay] one way (paper: 25 ms,
    covering transmission + propagation + reception). *)

(** How a surviving router learns its neighbour died. *)
type detection =
  | Link_signal
      (** the link layer reports the loss after [detection_delay] (what
          the paper's experiments model) *)
  | Hold_timer of Bgp_proto.Session.config
      (** no link signal: the BGP session's hold timer must expire.  The
          delay is sampled from the session timing model — jittered hold
          time minus the time since the last keepalive — instead of
          simulating every keepalive message (see {!Bgp_proto.Session}). *)

type config = {
  bgp : Bgp_proto.Config.t;
  link_delay : float;  (** seconds; paper uses 0.025 *)
  detection_delay : float;
      (** [Link_signal] latency; defaults to [link_delay] *)
  detection : detection;
  relationships : Relationships.t option;
      (** Gao-Rexford policies on eBGP sessions; [None] (default) is the
          paper's policy-free operation *)
  trace : Trace.t option;
      (** record message/failure events when set.  A trace belongs to one
          run: parallel trials each need their own instance (and their
          own spill file — {!Runner.traced} builds seed-suffixed ones) *)
  telemetry : Telemetry.config option;
      (** enable the telemetry layer (probes + counter registry); [None]
          (default) is zero-cost — see {!Telemetry} *)
}

val config_default : Bgp_proto.Config.t -> config
(** [Link_signal] detection, 25 ms links, no policies, no telemetry. *)

type t

val build :
  sched:Bgp_engine.Scheduler.t ->
  rng:Bgp_engine.Rng.t ->
  config:config ->
  ?telemetry:Telemetry.t ->
  Bgp_topology.Topology.t ->
  t
(** [telemetry] is the per-run instance the network registers its
    getter-backed counters into ([net.*], [router.*], [queue.*],
    [mrai.*], [damping.*], [sched.*], [path.*]); created and threaded by
    {!Runner.run} when [config.telemetry] is set. *)

val topology : t -> Bgp_topology.Topology.t
val bgp_config : t -> Bgp_proto.Config.t

val paths : t -> Bgp_proto.Path.table
(** The run's AS-path interning table, shared by all routers of this
    network (and by the analytic warm-up). *)

val relationships : t -> Relationships.t option
val router : t -> int -> Bgp_proto.Router.t
val num_routers : t -> int
val sessions : t -> (int * int * Bgp_proto.Types.session_kind) list
(** Each session once, [(u, v, kind)] with [u < v]. *)

val sessions_of_topology :
  Bgp_topology.Topology.t -> (int * int * Bgp_proto.Types.session_kind) list
(** The sessions {!build} would create over this topology — lets
    {!Fault_injector.generate} derive a link-aware schedule from the
    seed before (and without) building the network. *)

val start_all : t -> unit
(** Originate every router's prefix at the current simulated time. *)

val send_update : t -> src:int -> dst:int -> Bgp_proto.Types.dest -> Bgp_proto.Types.path -> unit
(** Send one update message from router [src] to router [dst] exactly as
    [src]'s own exports go out ({!Bgp_proto.Router.callbacks}): counted,
    traced, delayed, and delivered to [dst]'s input queue.  [path] is the
    advertised path or {!Bgp_proto.Router.withdrawal}.  Router state on
    the sending side is not touched (no Adj-RIB-Out update). *)

val inject_failure : t -> Bgp_topology.Failure.t -> unit
(** Immediately kill the failed routers and schedule session-down
    notifications to their surviving session peers after
    [detection_delay]. *)

val inject_link_failures : t -> (int * int) list -> unit
(** Fail individual links (sessions): both endpoints observe the session
    drop after the detection delay; the routers stay up.  The paper
    argues link-only failures are unlikely at large scale (Section 3.2)
    but they are the classic single-event experiments (Labovitz Tdown). *)

val is_failed : t -> int -> bool

(** {2 Fault-injection hooks}

    The substrate {!Fault_injector} drives: a per-network mutable fault
    state (severed links, gray-link loss probabilities, per-link delay
    factors, per-router clock skew) consulted on every message's send and
    delivery.  Disabled — and entirely cost- and draw-free, so existing
    seeds replay bit-identically — until {!enable_faults} is called.
    All link-keyed hooks are symmetric in [u]/[v]. *)

val enable_faults : t -> rng:Bgp_engine.Rng.t -> unit
(** Attach the fault layer.  [rng] is the injector-owned stream used for
    gray-link loss draws — deliberately NOT split from the network's
    build-time RNG, so enabling faults never shifts the routers'
    streams.  @raise Invalid_argument if already enabled. *)

val faults_enabled : t -> bool

val sever_link : ?cause:int -> t -> u:int -> v:int -> unit
(** Cut the link now: in-flight and future messages between [u] and [v]
    drop immediately; both endpoints observe the session drop after
    [detection_delay] (recorded as causal [Session_down] events, caused
    by [cause]).  Sever counts nest: a link severed by two overlapping
    faults needs two {!restore_link}s to come back. *)

val restore_link : ?cause:int -> t -> u:int -> v:int -> unit
(** Undo one {!sever_link}.  When the last sever lifts, both endpoints
    re-establish after [detection_delay] ([Session_up] trace events,
    {!Bgp_proto.Router.peer_up} full-table re-sync).  No-op if the link
    is not severed. *)

val set_link_factor : t -> u:int -> v:int -> float -> unit
(** Multiply the link's one-way delay by [factor] (jitter); [1.0]
    restores the default.  Applies to messages {e sent} from now on.
    @raise Invalid_argument if [factor <= 0]. *)

val set_link_loss : t -> u:int -> v:int -> float -> unit
(** Gray link: independently drop each message on the link with
    probability [p] (drawn from the injector RNG at delivery, in
    deterministic scheduler order); [0.0] restores the default.
    @raise Invalid_argument unless [0 <= p < 1]. *)

val set_clock_skew : t -> router:int -> float -> unit
(** Receive-path clock offset: every message delivered {e to} [router]
    arrives [skew] seconds later (effective delay clamped positive). *)

val record_fault : t -> label:string -> router:int -> ?cause:int -> unit -> int
(** Record a [Fault] trace event and return its id ([Trace.no_cause]
    when untraced) — the causal root that session transitions and heals
    point back to. *)

val cross_sessions : t -> side:bool array -> (int * int) list
(** The sessions with exactly one endpoint in [side] — the cut-set a
    partition along [side] must sever.  Each pair once, [(u, v)] with
    [u < v]. *)

val lost_messages : t -> int
(** Messages dropped in flight by the fault layer (severed link, gray
    loss, or dead destination while faults were enabled); [0] when
    faults were never enabled. *)

(** {2 Aggregate counters} *)

val messages_sent : t -> int
(** Update messages handed to the network (adverts + withdrawals). *)

val adverts_sent : t -> int
val withdrawals_sent : t -> int

val session_downs : t -> int
(** Session-down notifications delivered to surviving routers. *)

val last_activity : t -> float
(** Simulated time of the last route-affecting action anywhere. *)

val sum_metrics : t -> Bgp_proto.Router.metrics
(** Component-wise sum over surviving routers (max for [max_queue] and
    [mrai_level]). *)

val overloaded_routers : t -> threshold:float -> int list
(** Routers whose unfinished work ever exceeded [threshold] seconds —
    the paper's Section 4.1 explanation of the V-curve is that these are
    predominantly the high-degree nodes. *)

(** {2 Telemetry probes} *)

val memory_snapshot : t -> Telemetry.memory
(** Estimated memory footprint, rolled up per shard (pseudo-shard 0 for
    a sequential build): RIB bytes and entry counts per owner shard,
    per-table hashcons stats, scheduler-slab high-water/capacity, and
    trace-ring occupancy.  Fixed word models over entry counts only —
    deterministic for a given run, identical across [--jobs].  The
    runner attaches it via [Telemetry.set_memory] at finalize. *)

val probe_tick : ?time:float -> t -> Telemetry.t -> unit
(** Record one probe tick: a {!Telemetry.row} per surviving router at the
    current simulated time (or [time] — the sharded runner's window
    start, since no single scheduler clock exists there).  Read-only —
    draws no randomness and schedules nothing. *)

val start_probes : t -> Telemetry.t -> unit
(** Begin the periodic probe chain at the configured interval.  Each
    probe re-arms only while other events remain pending, so the chain
    never keeps the scheduler queue alive: the queue still drains at
    convergence and the runner's converged-iff-drained check is
    unaffected (the executed-events count does grow). *)

(** {2 Sharded execution}

    A network built with {!build_sharded} partitions its routers across
    [shards] OCaml 5 domains ({!Bgp_engine.Shard_exec}): router state,
    sessions, path tables, trace slices, counters and fault tables are
    all shard-local, and {e every} send goes through the executor's
    mailboxes so deliveries are ordered by the layout-free
    [(arrival time, src router, send seq)] key — results are
    bit-identical for any shard count (but not vs {!build}, whose
    direct-scheduling machinery is preserved untouched).  Between
    phases the orchestrator (single-threaded) injects failures and
    merges traces.  See DESIGN.md §11. *)

val build_sharded :
  shards:int ->
  owner:int array ->
  lookahead:float ->
  rng:Bgp_engine.Rng.t ->
  config:config ->
  ?telemetry:Telemetry.t ->
  Bgp_topology.Topology.t ->
  t
(** [owner.(r)] is router [r]'s shard (from {!Bgp_topology.Partition});
    [lookahead] must be a positive lower bound on every message's
    delivery delay — [link_delay] scaled down by the smallest jitter
    factor the fault schedule can apply ({!Fault_injector.lookahead}).
    The RNG split order matches {!build} (detection stream, then one per
    router), so router streams do not depend on the layout.
    @raise Invalid_argument on a bad [shards]/[owner]/[lookahead]. *)

val is_sharded : t -> bool

val shard_count : t -> int
(** [1] for a {!build} network. *)

val owner_of : t -> int -> int
val shard_sched : t -> int -> Bgp_engine.Scheduler.t

val paths_for : t -> int -> Bgp_proto.Path.table
(** Router [r]'s interning table: its shard's (equals {!paths} when
    unsharded) — what the analytic warm-up must intern into. *)

val shard_traces : t -> Trace.t list
(** The per-shard trace slices (empty list when untraced); merge with
    {!Trace.merge_renumber}. *)

val run_shards : ?at_barrier:(now:float -> unit) -> t -> cap:float -> unit
(** Run one conservative parallel phase until no shard holds an event at
    time [<= cap] ({!Bgp_engine.Shard_exec.run_phase}).  [at_barrier]
    runs single-threaded once per window — the telemetry-probe hook. *)

val shard_now : t -> float
(** Max shard clock. *)

val shard_pending : t -> int
(** Total live events across shards. *)

val shard_events : t -> int
(** Executed events, normalized so replicated fault events count once
    (as a sequential observer would see them).  Falls back to the
    scheduler's count when unsharded. *)

val shard_stats : t -> Bgp_engine.Shard_exec.stats

val inject_failure_sharded : t -> at:float -> Bgp_topology.Failure.t -> unit
(** {!inject_failure} for a sharded network, called by the orchestrator
    between phases: [at] is the injection time (must be [>=] every shard
    clock); detections are scheduled onto each surviving peer's own
    shard, with the hold-timer samples drawn in the same global order as
    the sequential path. *)

val inject_link_failures_sharded : t -> at:float -> (int * int) list -> unit

(** {3 Replica-local fault hooks}

    {!Fault_injector.install_sharded} replicates every fault event into
    every shard's scheduler with preassigned trace ids, so each shard's
    fault tables evolve identically without cross-shard reads.  Each
    hook touches only shard [shard]'s tables; session notifications and
    trace records fire only on the shard owning the affected router. *)

val note_replica : t -> shard:int -> unit
(** Count one replicated fault event executing on [shard], for the
    {!shard_events} normalization. *)

val record_fault_replica :
  t -> shard:int -> id:int -> label:string -> router:int -> cause:int -> unit
(** Record a [Fault] event with the preassigned [id] — only on the shard
    owning [router] (no-op elsewhere or when untraced). *)

val sever_link_sharded : t -> shard:int -> cause:int -> u:int -> v:int -> unit
val restore_link_sharded : t -> shard:int -> cause:int -> u:int -> v:int -> unit
val set_link_factor_sharded : t -> shard:int -> u:int -> v:int -> float -> unit
val set_link_loss_sharded : t -> shard:int -> u:int -> v:int -> float -> unit
val set_clock_skew_sharded : t -> shard:int -> router:int -> float -> unit
