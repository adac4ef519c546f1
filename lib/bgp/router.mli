(** A BGP speaker as a discrete-event process.

    The model mirrors what the paper's SSFNet setup exercises:

    - one input queue of received update messages, served by a single CPU;
      each message costs one draw of the processing-delay distribution
      (Section 3.2: uniform 1-30 ms);
    - the queue discipline is pluggable ({!Bgp_core.Input_queue}): FIFO
      (default BGP) or the paper's batched per-destination scheme;
    - route changes are exported to every peer as Adj-RIB-Out deltas gated
      by the MRAI: if the per-peer timer is idle the update goes out
      immediately and the timer starts, otherwise the destination is marked
      pending and flushed at expiry *against the then-current Loc-RIB* —
      this is precisely the mechanism that lets an overloaded router send
      routes that are about to be invalidated by updates still in its
      queue (Section 2);
    - the MRAI interval used at each timer (re)start comes from a
      {!Bgp_core.Mrai_controller}, so static, degree-dependent and dynamic
      schemes all plug in unchanged;
    - withdrawals are sent immediately unless [mrai_on_withdrawals]. *)

open Types

type t

type callbacks = {
  send : src:router_id -> dst:router_id -> dest -> path -> unit;
      (** deliver an update message for [dest]: an advertisement of the
          path, or a withdrawal when the path is {!withdrawal}.  The
          network layer adds link delay and hands the pair to
          {!receive_route} of [dst].  No [update] value is built on this
          path. *)
  activity : time:float -> unit;
      (** invoked on every route-affecting action (for convergence
          detection) *)
}

(** Causal-tracing hooks (opt-in; see {!Bgp_netsim.Trace}).  Each hook
    records an event and returns its trace id; the router remembers it as
    {!current_cause} while the triggered exports run, so the network layer
    can stamp outgoing updates with their cause. *)
type tracer = {
  on_processed :
    router:router_id ->
    src:router_id ->
    dest:dest ->
    enqueued:float ->
    started:float ->
    cause:int ->
    int;
      (** a work item finished processing; [dest] is [-1] for peer-down
          work, [cause] is the trace id that enqueued it *)
  on_mrai_flush :
    router:router_id -> peer:router_id -> dest:dest -> ready:float -> cause:int -> int;
      (** an MRAI timer fired and [dest] is being flushed to [peer];
          [ready] is when it was last marked pending *)
}

val create :
  sched:Bgp_engine.Scheduler.t ->
  rng:Bgp_engine.Rng.t ->
  paths:Path.table ->
  config:Config.t ->
  id:router_id ->
  asn:as_id ->
  degree:int ->
  ?tracer:tracer ->
  callbacks ->
  t
(** [degree] is the value the degree-dependent MRAI scheme keys on
    (inter-AS degree of the router).  [paths] is the run's shared AS-path
    interning table ({!Path}): all routers of one network (or shard) must
    use the same table so exchanged paths compare by pointer.  The router
    registers the paths it keeps (Adj-RIB-In, Loc-RIB, Adj-RIB-Out,
    parked routes) as roots of [paths], so the table sweeps itself
    ({!Path.add_roots}). *)

val id : t -> router_id
val asn : t -> as_id

val add_peer :
  t ->
  peer:router_id ->
  peer_as:as_id ->
  kind:session_kind ->
  ?relationship:relationship ->
  unit ->
  unit
(** Declare a BGP session.  [relationship] enables Gao-Rexford policy
    (ranking and valley-free export) on this session; omit it for the
    paper's policy-free operation.  All sessions must be added before
    [start]. *)

val start : t -> unit
(** Originate this router's AS prefix and export it. *)

val announce_origin : t -> ?cause:int -> dest -> unit
(** (Re-)originate one locally-owned prefix at the current simulated time
    and export the change through the normal decision process — the
    churn workload's announce op.  [cause] is the trace id of the churn
    root event (default [-1], untraced).  No-op on a failed router. *)

val withdraw_origin : t -> ?cause:int -> dest -> unit
(** Withdraw one locally-originated prefix; the decision process falls
    back to any learned route (or sends withdrawals).  The churn
    workload's withdraw op. *)

val set_rib_change_hook : t -> (dest -> float -> unit) -> unit
(** Observe every export-relevant Loc-RIB revision as [(dest, now)].
    Pure observation: the hook must not draw randomness or schedule
    events, so installing one never perturbs the simulation.  The churn
    monitor records per-prefix settle times through it. *)

val warm_install :
  t ->
  dest:dest ->
  local:bool ->
  entries:(router_id * session_kind * path) list ->
  advertised:(router_id * path) list ->
  unit
(** Install pre-computed steady state for one destination: Adj-RIB-In
    [entries], the local-origination flag, and the Adj-RIB-Out contents
    per peer — silently (no exports are scheduled).  Used by the analytic
    warm-up; the caller is responsible for supplying a fixpoint (otherwise
    the first failure event will trigger spurious churn). *)

val advertised_to : t -> peer:router_id -> dest -> path option
(** Current Adj-RIB-Out entry (what was last advertised to the peer). *)

val withdrawal : path
(** The path that stands for a withdrawal in {!callbacks.send} and
    {!receive_route}: a node of a private interning table, so it is
    never a real route and only [==] compares it. *)

val receive_route : t -> ?cause:int -> src:router_id -> dest -> path -> unit
(** Called by the network layer when a message arrives (after link
    delay): an advertisement of [path] for [dest], or a withdrawal of
    [dest] when [path] is {!withdrawal}.  Enqueues it for processing;
    the queue holds the path itself (session work uses private sentinel
    paths), so nothing is allocated per message.  [cause] is the trace id
    of the delivery event (default [-1], untraced). *)

val to_update : dest -> path -> update
(** The [update] value a [(dest, path)] message stands for: built only
    where an update is data (trace records, tests). *)

val receive : t -> ?cause:int -> src:router_id -> update -> unit
(** {!receive_route} of an [update] value. *)

val peer_down : t -> ?cause:int -> router_id -> unit
(** The session to [peer] dropped: stop sending to it and enqueue the
    removal of everything learned from it (one work item, one
    processing-delay draw).  [cause] is the trace id of the session-down
    event (default [-1], untraced). *)

val peer_up : t -> ?cause:int -> router_id -> unit
(** The session to [peer] (re-)established after a {!peer_down}: forget
    the Adj-RIB-Out towards it and enqueue a full-table re-sync (drop the
    remaining state learned from the peer, then re-export every current
    best route from scratch, MRAI-gated).  One work item, one
    processing-delay draw — session restart costs processing time like
    any other work.  No-op if the peer is unknown, already up, or this
    router has failed.  [cause] is the trace id of the session-up event
    (default [-1], untraced). *)

val current_cause : t -> int
(** Trace id of the event whose handling is currently executing — the
    cause any update sent right now should carry.  [-1] when untraced or
    outside any traced handler. *)

val fail : t -> unit
(** This router dies: it stops processing, sending, and receiving. *)

val is_failed : t -> bool

(** {2 Inspection (tests, invariant checks, metrics)} *)

val best_path_to : t -> dest -> path option
val next_hop : t -> dest -> router_id option
(** The router itself for local routes. *)

val rib : t -> Rib.t
val peer_ids : t -> router_id list
val queue_length : t -> int
val is_busy : t -> bool

val max_unfinished_work : t -> float
(** High-water mark of queue length x mean processing delay, in seconds —
    the overload signal of the paper's dynamic scheme (Section 4.3).  A
    router whose value exceeded upTh was overloaded at some point. *)

(** {2 Point-in-time probe readouts}

    Cheap O(1) samplers for the telemetry layer: the {e current} value of
    the signals the paper's mechanisms key on, as opposed to the
    end-of-run aggregates in {!metrics}. *)

val unfinished_work : t -> float
(** Current queue length x mean processing delay, in seconds (the
    dynamic scheme's instantaneous overload signal). *)

val mrai_level : t -> int
(** Current level of the eBGP MRAI controller (0 for static schemes). *)

val mrai_transitions : t -> int
(** Cumulative level changes of the eBGP MRAI controller. *)

val rib_size : t -> int
(** Destinations with a current Loc-RIB selection. *)

val rib_changes : t -> int
(** Cumulative export-relevant Loc-RIB revisions.  A router whose count
    has reached its end-of-run value holds its final best routes — the
    basis of the telemetry convergence-progress series. *)

type metrics = {
  adverts_sent : int;
  withdrawals_sent : int;
  msgs_processed : int;
  eliminated : int;  (** stale messages deleted by the batching queue *)
  max_queue : int;
  mrai_transitions : int;
  mrai_level : int;
  damping_suppressions : int;  (** routes that crossed into suppression *)
}

val metrics : t -> metrics
