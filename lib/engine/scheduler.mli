(** Discrete-event scheduler: the simulation kernel.

    Events are closures executed at a simulated instant.  Ties are broken
    by scheduling order, so a run is fully deterministic.  This plays the
    role SSFNet's kernel played for the paper.

    An event is one of two kinds.  A closure event ({!schedule}) runs a
    [unit -> unit] closure: the cold paths (faults, probes, damping
    reuse) use it.  A typed event ({!schedule_arg}) runs an
    [int -> unit] handler on an [int] argument stored in the slab: a hot
    caller preallocates its handler once and names the work by the
    argument (a slab slot, a peer index), so scheduling it allocates
    nothing.  Both kinds share the one heap, the one [(time, seq)] order
    and the one generation-tagged id space, so mixing them never changes
    which event runs first, and {!cancel} treats them alike.

    Internally the queue is an array-slab: callbacks sit in a growable
    slot array with a free-list, the heap is parallel arrays with the
    time key inline (no per-event record, no hash-table lookup per
    executed event), and ids are generation-tagged so [cancel] stays a
    safe no-op on stale handles.  See DESIGN.md "Performance". *)

type t

type event_id = private int
(** Handle for cancellation.  Each [schedule] returns a fresh id, and
    every id is [>= 0]. *)

val no_event : event_id
(** [-1]: a sentinel for "no event" that {!cancel} ignores, so a caller
    can keep an [event_id] field instead of an option. *)

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    Requires [delay >= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant.  Requires [time >= now t]. *)

val schedule_arg : t -> delay:float -> (int -> unit) -> int -> event_id
(** [schedule_arg t ~delay h arg] runs [h arg] at [now t +. delay]: a
    typed event.  It takes the next scheduling sequence number exactly as
    {!schedule} would, so replacing a closure by a typed event leaves the
    execution order unchanged.  Allocates nothing. *)

val schedule_arg_at : t -> time:float -> (int -> unit) -> int -> event_id
(** Absolute-time variant of {!schedule_arg}.  Requires [time >= now t]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of live (not cancelled, not yet fired) events. *)

val step : t -> bool
(** Execute the next event.  [false] if the queue was empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stop before executing any event
    scheduled strictly after [until] (the clock then reads the time of the
    last executed event). *)

val next_time : t -> float option
(** Timestamp of the earliest live event, without executing it.
    [None] if the queue is empty. *)

val run_window : t -> stop:float -> cap:float -> unit
(** Execute every live event with time strictly below [stop] and at most
    [cap].  The conservative-window primitive: a shard drains its slab up
    to the window boundary and no further. *)

val time_of_last_event : t -> float
(** Timestamp of the most recently executed event (0 if none ran yet). *)

val events_executed : t -> int

val max_live : t -> int
(** Slab occupancy high-water: the most events simultaneously pending
    since [create].  Always tracked (one compare per [schedule]); the
    profiler and telemetry read it at finalize. *)

val slab_capacity : t -> int
(** Current size of the event slab (grows by doubling, never
    shrinks) — with {!max_live} this bounds the queue's memory. *)
