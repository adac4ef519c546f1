(** Sparse per-peer maps keyed by destination (pending exports, flap
    counts, per-destination MRAI timers).

    Entries live in parallel arrays sorted by destination: a lookup is a
    binary search over ints (no hashing), slots iterate in ascending
    destination order (the order exports are flushed in), and inserting
    or removing allocates nothing but occasional array growth.  Each
    entry carries a value and a time.  Insertion and removal shift the
    entries above the slot, O(length); the maps hold the few
    destinations one peer has outstanding, so a dense peers x
    destinations layout would waste far more than the shifts cost.
    Vacated value slots are not cleared, so values should be immediates
    (trace causes, counts, event ids), not owners of memory. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val find : 'a t -> int -> int
(** [find t dest] is the slot of [dest], or a negative number if absent. *)

val mem : 'a t -> int -> bool

val key : 'a t -> int -> int
(** The destination in slot [i]; slots [0 .. length - 1] ascend. *)

val value : 'a t -> int -> 'a
val time : 'a t -> int -> float

val set : 'a t -> int -> 'a -> float -> unit
(** [set t dest v time] inserts or replaces [dest]'s entry. *)

val remove : 'a t -> int -> unit

val clear : 'a t -> unit
(** Empty the map; a map that grew large gives its arrays back. *)
