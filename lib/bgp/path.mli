(** Hash-consed AS paths.

    Every distinct hop sequence is represented by exactly one node per
    {!table}, so the hot path compares paths by pointer, reads their
    length from a cached field, and answers most [contains] queries from a
    per-node membership bitset — replacing the [List.length]/[List.mem]
    walks the decision process and loop checks used to pay per message.

    Representation: a path is [Empty] or a node holding its head AS, a
    link to its tail node, and cached length, membership bits, id and a
    sweep mark.  Paths sharing a suffix share the suffix's nodes, so a
    path costs one node over its tail; there is no hop list inside (see
    {!hops}, {!fold_hops}).  The structure is acyclic, so polymorphic
    equality on values holding paths terminates.

    Lifetime rules: a table lives for one simulation run (or one shard of
    it) and no cross-domain sharing ever occurs — parallel trials and
    shards each build their own table.  A table that has roots
    ({!add_roots}) sweeps itself: once its memo holds {!sweep_multiple}
    times the nodes the previous sweep kept, it keeps only the nodes on
    the chains of the paths its roots hold (the owning routers' RIBs) and
    forgets the rest, so the memo tracks live routing state instead of
    every path ever interned.  A forgotten node stays a valid path: ids
    are never reused, so a path still in flight or queued when it was
    swept can be compared, inspected and consed onto as before; re-interning
    its hop sequence later yields a fresh node that is {!equal} to it but
    not physically the same.  Tables without roots (trace readers,
    scratch tables) never sweep.  {!equal} is safe across tables and
    across sweeps: it falls back to a structural hop comparison when the
    pointer test fails.

    Domain safety: every node records which table interned it, and a
    sweep writes marks only on its own table's nodes.  A root that holds
    another table's path (which the simulator never does) is treated as
    not kept, and the foreign nodes are read but never written. *)

type t
(** An interned AS path.  Head is the AS of the last speaker that
    prepended; the origin AS is last.  The empty path (locally-originated
    routes) is the shared {!empty} node, which belongs to every table. *)

type table
(** An interning context: one per simulation run. *)

val create_table : unit -> table

val empty : t
(** The empty path; [length empty = 0]. *)

val cons : table -> int -> t -> t
(** [cons tbl asn p] is the path [asn :: hops p], interned in [tbl].
    O(1) amortised (one memo-table probe, a hit confirmed by the found
    node's tail being [p] itself, plus an occasional sweep).  [p]
    must itself have been interned in [tbl] (swept nodes included) or be
    {!empty}.
    @raise Invalid_argument if [asn] is negative or [p] was interned in a
    different table. *)

val of_list : table -> int list -> t
(** Intern an explicit hop list (tests, warm-up seeds). *)

val intern : table -> t -> t
(** [intern tbl p] is [p]'s hop sequence interned in [tbl], built by
    walking [p]'s tail links (no hop list); [p] may belong to any table.
    O(length). *)

val hops : t -> int list
(** The hop sequence, head first, as a fresh list.  O(length): hot paths
    walk the hops with {!fold_hops} instead. *)

val fold_hops : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold_hops f acc p] folds [f] over the hops, head first, without
    building a list. *)

val length : t -> int
(** Cached; O(1). *)

val is_empty : t -> bool

val contains : t -> int -> bool
(** Membership test: O(1) bitset rejection for most misses, then a walk
    of the (short) tail chain to confirm. *)

val equal : t -> t -> bool
(** Pointer comparison for paths from the same table (the common case);
    structural fallback otherwise. *)

val id : t -> int
(** Unique id within the owning table (0 for {!empty}), never reused,
    even after the node is swept; exposed for debugging and benchmarks. *)

val pp : Format.formatter -> t -> unit

(** {2 Sweeping} *)

val add_roots : table -> ((t -> unit) -> unit) -> unit
(** [add_roots tbl iter] registers [iter], which must call its argument
    on every path one owner currently keeps (each router registers its
    Adj-RIB-In, Loc-RIB, Adj-RIB-Out and parked routes).  Arms the
    table's automatic sweep.  [iter] runs inside {!cons}, in the domain
    that owns the table, and must only read. *)

val sweep : table -> unit
(** Sweep now: keep the memo nodes on the chains of the root paths whose
    chain reaches [Empty] through memo nodes only, drop the rest (so a
    node consed onto an already swept tail is dropped).  {!cons} calls it
    automatically; a table without roots is emptied.  Cost: one pass over
    the roots, in which each root walks its tail links only down to the
    first node already decided by this sweep (one mark read for a shared
    suffix; a sweep epoch in the node replaces any side table), plus one
    pass over the memo to drop the unkept nodes.  No hashing in the mark
    phase. *)

val sweep_multiple : int
(** The growth factor over the last sweep's survivors that triggers the
    next automatic sweep (tables below a small floor never sweep). *)

(** {2 Interning statistics (telemetry, micro-benchmarks)} *)

val unique_count : table -> int
(** Distinct non-empty nodes interned over the table's lifetime, swept
    ones included (the denominator of interns per update). *)

val hit_count : table -> int
(** [cons] calls answered from the memo table. *)

type table_stats = {
  nodes : int;
      (** path nodes the memo holds now (at most {!unique_count}: swept
          nodes are not counted) *)
  hops_total : int;  (** sum of path lengths over all interned nodes *)
  sharing : float;
      (** naive per-path hop storage over actual shared-node storage;
          [>= 1.0], higher means more tail sharing (hops per node) *)
  approx_bytes : int;
      (** word model: 11 words per node — the node block (header + 6
          fields) and its memo bucket (header + key, data, next) — plus
          the memo's bucket array (one word per bucket + header) *)
}

val table_stats : table -> table_stats
(** Deterministic size accounting for the memory report, over the nodes
    the memo holds now: depends only on what was interned and swept,
    never on hashing or GC state.  O(nodes). *)
