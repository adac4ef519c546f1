(** Per-run telemetry: counter/gauge registry, periodic per-router
    time-series probes, and machine-readable exporters.

    One instance is created per simulation run (see {!Runner.run}) so that
    enabling telemetry never couples trials: probes only {e read} router
    state — they draw no random numbers and schedule nothing the routing
    machinery can observe — so every routing-relevant result field is
    bit-identical with telemetry on or off.  The network layer registers
    getter-backed counters at build time; reads are deferred until a
    snapshot is taken, so registration costs one closure per metric and
    the steady-state overhead of a registered counter is zero. *)

(** {1 Configuration} *)

type config = {
  probe_interval : float;  (** seconds of simulated time between probes *)
  probe_warmup : bool;  (** also probe during the warm-up phase *)
  max_ticks : int;  (** cap on recorded probe ticks (memory bound) *)
}

val config :
  ?probe_interval:float -> ?probe_warmup:bool -> ?max_ticks:int -> unit -> config
(** Defaults: 0.5 s interval, no warm-up probing, 4096 ticks.  Probes
    beyond [max_ticks] are counted as dropped rather than recorded.
    @raise Invalid_argument if [probe_interval <= 0] or [max_ticks <= 0]. *)

(** {1 Registry} *)

type kind = Counter | Gauge

type t

val create : config -> t
val conf : t -> config

val register : t -> name:string -> kind:kind -> (unit -> float) -> unit
(** Register a named metric backed by a getter; the value is read lazily
    at snapshot time.  @raise Invalid_argument on a duplicate name. *)

val counters : t -> (string * kind * float) list
(** Snapshot of every registered metric, sorted by name. *)

val counter_value : t -> string -> float option

(** {1 Probe recording} *)

type row = {
  router : int;
  queue_len : int;
  unfinished_work : float;  (** queue length x mean processing delay, s *)
  mrai_level : int;
  mrai_transitions : int;
  rib_size : int;
  rib_changes : int;
}

val record_tick : t -> time:float -> row array -> unit
(** Record one probe tick (one row per live router).  Ticks beyond
    [max_ticks] are dropped and counted. *)

val ticks : t -> int
val dropped_ticks : t -> int

val set_fail_time : t -> float -> unit
(** Stamp the failure-injection time for the report. *)

(** {1 Memory accounting} *)

type shard_memory = {
  shard : int;
  routers : int;
  rib_entries : int;  (** Adj-RIB-In entries across the shard's routers *)
  rib_bytes : int;  (** estimated, from [Rib.approx_bytes]'s word model *)
  path_nodes : int;
      (** path nodes the shard's hashcons table holds now (swept ones
          excluded) *)
  path_bytes : int;
  sched_max_live : int;  (** event-slab occupancy high-water *)
  sched_slab_cap : int;  (** event-slab capacity *)
}

type memory = {
  per_shard : shard_memory list;  (** sorted by shard; one entry
      (pseudo-shard 0) for a sequential run *)
  rib_bytes_total : int;
  path_bytes_total : int;
  path_sharing : float;
      (** naive per-path hop storage over actual shared-node storage *)
  trace_len : int;  (** events held in the trace ring *)
  trace_cap : int;
  trace_dropped : int;
  trace_spilled : int;
}
(** Every field is an estimate computed from simulated state alone (fixed
    word models, entry counts) — deterministic for a given run, hence safe
    inside the structurally-compared {!report}.  Wall-clock and GC data
    live in [Bgp_engine.Profile], never here. *)

val set_memory : t -> memory -> unit
(** Attach the end-of-run memory snapshot (see [Network.memory_snapshot]);
    the runner calls this at finalize. *)

(** {1 Report} *)

type sample = { time : float; row : row }
type series_point = { time : float; value : float }

type report = {
  interval : float;
  t_fail : float option;
  probes : int;  (** ticks recorded *)
  dropped : int;  (** ticks dropped by the [max_ticks] cap *)
  samples : sample array;  (** per-router series, time-major *)
  progress : series_point array;
      (** network-wide convergence progress: fraction of surviving routers
          whose best routes were already final; nondecreasing, ends at 1 *)
  counters : (string * kind * float) list;
  memory : memory option;  (** end-of-run snapshot, if one was attached *)
}
(** Plain data only — safe to compare structurally, [Marshal] and send
    across domains. *)

val report : t -> report

(** {1 Exporters} *)

val series_csv : report -> string
val progress_csv : report -> string
val counters_csv : report -> string
val series_jsonl : report -> string
val counters_jsonl : report -> string

val report_json : report -> string
(** Whole-run summary (schema ["bgp-telemetry/1"]): probe metadata,
    progress series and counter snapshot, without the bulky per-router
    samples. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; an existing one is fine.
    @raise Sys_error if a component cannot be created. *)

val export : dir:string -> ?prefix:string -> report -> string list
(** Write all six artifacts into [dir] (created if missing), each file
    name prefixed with [prefix]; returns the paths written. *)

val pp_summary : Format.formatter -> report -> unit
(** One-line human summary (probe count, peak queue work, max MRAI
    level). *)

val pp_memory : Format.formatter -> memory -> unit
(** One-line human summary of the memory snapshot (RIB/path bytes,
    sharing ratio, trace occupancy). *)
