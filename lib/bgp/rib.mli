(** Routing information bases and the decision process for one router.

    The decision criterion is the paper's: shortest AS-path length only
    (Section 3.2), with deterministic tie-breaks — locally-originated
    beats learned, eBGP beats iBGP, then lowest peer id.  When Gao-Rexford
    relationships are supplied, a local-preference class (customer over
    peer over provider) ranks above path length, as in real BGP.

    Layout: destinations are dense ints, so the tables are flat arrays
    indexed by destination.  Each peer gets a slot the first time it is
    seen, and the Adj-RIB-In row of a destination is one slot per peer:
    a packed key (rank plus relationship bit) and a path, two words, so
    {!set_in} allocates nothing.  The Loc-RIB is flat too: per
    destination, the selection's slot key ({!selection_key}) and its path
    ({!selection_path}), so {!decide} allocates nothing, also when the
    selection changes.  The hot export path reads those two; {!best}
    rebuilds the [best option] on demand for cold callers. *)

open Types

type entry = {
  peer : router_id;
  kind : session_kind;
  path : path;
  rel : relationship option;  (** our relationship to the advertising peer *)
}

type best =
  | Local  (** locally originated, path [] *)
  | Learned of entry

type t

val create : asn:as_id -> t
val asn : t -> as_id

val originate : t -> dest -> unit
(** Install a locally-originated route (used for the router's own AS
    prefix). *)

val unoriginate : t -> dest -> unit
(** Remove the locally-originated route (a churn workload withdrawing one
    of its own prefixes); no-op if absent.  Learned Adj-RIB-In entries
    for [dest] are untouched. *)

val originates : t -> dest -> bool

val set_in :
  t -> dest -> peer:router_id -> kind:session_kind -> ?rel:relationship -> path -> unit
(** Replace the Adj-RIB-In entry from [peer] for [dest].  [rel] is the
    Gao-Rexford relationship used for local-preference ranking (omit for
    the paper's policy-free operation).
    @raise Invalid_argument if the path contains our own AS (the caller
    must apply receiver-side loop detection first). *)

val withdraw_in : t -> dest -> peer:router_id -> unit
(** Remove the entry from [peer]; no-op if absent. *)

val drop_peer : t -> peer:router_id -> dest list
(** Remove all entries learned from [peer] (session down); returns the
    destinations that lost an entry. *)

val entries_in : t -> dest -> entry list
(** Current Adj-RIB-In contents for a destination (sorted by rank). *)

val decide : t -> dest -> bool
(** Re-run the decision process for [dest] and update the Loc-RIB.
    Returns [true] iff the result changed in an export-relevant way (the
    best path, its existence, or its iBGP re-exportability). *)

val best : t -> dest -> best option
(** Current Loc-RIB selection, if any.  Allocates the option and entry on
    each call: the hot path reads {!selection_key} and {!selection_path}
    instead. *)

val no_selection : int
(** The {!selection_key} of a destination without a selection. *)

val selection_key : t -> dest -> int
(** Packed key of the current selection: [no_selection] if none, [0] for
    a local route, otherwise the Adj-RIB-In slot key of the chosen entry
    (its rank, session kind and relationship class; see {!key_of_best}).
    Reading it allocates nothing. *)

val selection_path : t -> dest -> path
(** Path of the current selection; [Path.empty] for a local route or no
    selection. *)

val key_of_best : best -> int
(** The selection key {!selection_key} reports for [best]. *)

val key_ibgp_exportable : int -> bool
(** On a selection key, the standard full-mesh iBGP rule: only local and
    eBGP-learned routes are re-advertised to iBGP peers. *)

val key_restricted : int -> bool
(** On a selection key: the route was learned from a peer or a provider,
    so the valley-free rule exports it to customers only. *)

val best_path : t -> dest -> path option
(** Path of the current selection; [Some Path.empty] for a local
    route. *)

val iter_paths : t -> (path -> unit) -> unit
(** Visit every path the Adj-RIB-In and Loc-RIB hold (a path may be
    visited more than once) — the RIB's share of its path table's roots
    ([Path.add_roots]). *)

val num_dests : t -> int
(** Number of destinations with any Adj-RIB-In or Loc-RIB state, without
    materialising the list. *)

val iter_dests : t -> (dest -> unit) -> unit
(** Visit each such destination once (unspecified order, no intermediate
    list). *)

val loc_size : t -> int
(** Destinations with a current Loc-RIB selection — the "RIB size" the
    telemetry probes sample.  O(1). *)

val in_entries : t -> int
(** Total Adj-RIB-In entries across all destinations and peers. *)

val approx_bytes : t -> int
(** Estimated resident size of this RIB in bytes, from a fixed word
    model of the flat layout over its capacities (destinations, peer
    slots) and counts (deterministic: no heap walk, no dependence on
    hashing or GC state).  Shared AS-path storage
    is excluded — it is accounted once, at the hashcons table
    ([Path.table_stats]). *)

val rank : best -> int * int * int * int
(** Reference ranking key (preference class, path length, eBGP-over-iBGP,
    peer id; lower is better); kept as the specification that
    [packed_rank] is property-tested against. *)

val packed_rank : best -> int
(** The same ordering packed into a single int (what the hot path
    compares); [packed_rank Local = 0].  Order-isomorphic to {!rank}. *)
