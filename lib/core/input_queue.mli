(** Router input-queue disciplines — the data-path half of the paper's
    contribution (Section 4.4).

    [Fifo] is default BGP: update messages are processed strictly in
    arrival order.  It is a growable ring of parallel arrays (one per
    item field, times unboxed), so a queued item costs no cell or option
    box and a queue thousands deep holds no per-item records; a vacated
    slot is cleared, so the queue never keeps a processed payload alive.

    The other disciplines share one flat slab of item slots, also held
    as parallel arrays, with [int] links and a free list instead of
    cells, and no hash table.  Every queued item is linked into its
    destination's list (an array indexed by destination, grown on
    demand); a stale update is found by scanning that list from its
    newest end for the same source.  Session messages ([dest = -1]) are
    one more destination: they are grouped and eliminated like the
    others.  Freed slots are reused and their payload cleared, so a
    steady-depth queue allocates nothing per message.

    [Batched] keeps one logical queue per destination (the paper suggests
    hashing; here the destination indexes the slab's list heads).  All
    queued updates for a destination are processed back-to-back, and when
    a new update arrives from a neighbour that already has one queued for
    the same destination, the older message is deleted — it is stale, the
    new one supersedes it.  Destinations are served in the order of a ring
    of destination tokens: a push that finds its destination's list empty
    appends a token — also when it has just eliminated that list's only
    item, so one destination can hold several tokens — and a token whose list
    has meanwhile emptied is skipped.

    [Fifo_dedup] is an ablation: stale-update elimination without the
    per-destination reordering, to separate the two effects.

    [Tcp_batch] models what the paper's Section 4.4 closing paragraph says
    routers already do: updates are read one TCP buffer per peer and
    processed as a batch, so a stale update is only eliminated when its
    replacement lands in the *same* batch (same peer, within [batch_size]
    arrivals).  The paper predicts this helps less and less as failures
    grow — the elimination probability per batch drops; the
    `tcp-batching` ablation reproduces that.  [Fifo_dedup] and
    [Tcp_batch] serve the slab through one arrival-order list; two items
    of one (source, destination) pair can both be queued under
    [Tcp_batch] when they arrived in different batches. *)

type discipline =
  | Fifo
  | Batched
  | Fifo_dedup
  | Tcp_batch of { batch_size : int }

val discipline_name : discipline -> string

type 'a item = {
  src : int;
  dest : int;
  payload : 'a;
  cause : int;  (** trace id of the event that enqueued this item; [-1] if untraced *)
  enqueued : float;  (** simulation time the item entered the queue *)
}

type 'a t

val create : discipline -> 'a t
val discipline : 'a t -> discipline

val push : 'a t -> 'a item -> unit
(** Queue a message.  Destinations must be [>= -1], and under [Tcp_batch]
    sources must be [>= 0]: both index arrays. *)

val add : 'a t -> src:int -> dest:int -> cause:int -> enqueued:float -> 'a -> unit
(** [push] of the item with these fields, without building the record
    ([Fifo] stores the fields directly). *)

val pop : 'a t -> 'a item option
(** Next message to process under the queue's discipline. *)

val take : 'a t -> 'a
(** Remove the next message, like [pop], and return its payload without
    allocating; the rest of its fields stay readable through
    [last_src] .. [last_enqueued] until the next [take].
    @raise Invalid_argument if the queue is empty. *)

val last_src : 'a t -> int
val last_dest : 'a t -> int
val last_cause : 'a t -> int
val last_enqueued : 'a t -> float

val length : 'a t -> int
(** Messages currently queued. *)

val is_empty : 'a t -> bool

val eliminated : 'a t -> int
(** Stale messages deleted so far (never under [Fifo]). *)

val max_length : 'a t -> int
(** High-water mark of [length] (overload metric). *)

val clear : 'a t -> unit
