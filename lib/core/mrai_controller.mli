(** MRAI selection policies — the control half of the paper's contribution.

    A controller lives inside one router and answers a single question:
    "what MRAI interval should the next per-peer timer restart use?"
    (Section 4.3: "even if we decide to change the MRAI, we do not modify
    the values of the running timers; the change takes effect only when the
    timers are restarted").

    The router feeds the controller a {!load} snapshot whenever an update
    message is enqueued or finishes processing.  The fields are mutable so
    that a router keeps one snapshot and refreshes it in place: feeding
    the controller then allocates nothing per message. *)

type load = {
  mutable now : float;  (** simulated time, seconds *)
  mutable queue_length : int;  (** update messages waiting in the input queue *)
  mutable mean_processing_delay : float;  (** seconds per update, analytic mean *)
  mutable utilization : float;  (** CPU busy fraction over the last window *)
  mutable updates_in_window : int;  (** update messages received in the last window *)
}

(** Which overload signal drives the dynamic scheme (Section 4.3 evaluates
    queue length, processor utilization, and received-message count). *)
type detector =
  | Queue_work
      (** unfinished work = queue length x mean processing delay, in
          seconds; thresholds are seconds of backlog. *)
  | Utilization  (** thresholds are busy fractions in [0, 1]. *)
  | Message_count  (** thresholds are messages per window. *)

type scheme =
  | Static of float  (** one fixed MRAI, e.g. the 30 s Internet default *)
  | Degree_dependent of { threshold : int; low : float; high : float }
      (** nodes with degree > threshold use [high], others [low]
          (Section 4.2). *)
  | Dynamic of {
      levels : float array;  (** increasing MRAI values, e.g. 0.5/1.25/2.25 *)
      up_threshold : float;
      down_threshold : float;
      detector : detector;
    }  (** Section 4.3. *)

val paper_dynamic :
  ?levels:float array -> ?up_threshold:float -> ?down_threshold:float -> unit -> scheme
(** The configuration of Fig 7: levels [|0.5; 1.25; 2.25|], upTh = 0.65 s,
    downTh = 0.05 s, queue-work detector. *)

type t

val make : scheme -> degree:int -> t
(** Instantiate for a router of the given (inter-AS) degree. *)

val observe : t -> load -> unit
(** Feed a load snapshot; may move the dynamic scheme up or down one
    level.  No-op for static schemes. *)

val is_adaptive : t -> bool
(** [false] for a fixed interval: [observe] is a no-op and [level] never
    moves, so callers may skip load measurement entirely. *)

val current_interval : t -> float
(** The interval a timer restarted right now would use (before jitter). *)

val level : t -> int
(** Index of the current level (always 0 for static schemes). *)

val transitions : t -> int
(** How many level changes have occurred (metric for experiments). *)

val scheme_name : scheme -> string
