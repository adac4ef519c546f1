(** The export half of the decision process as a pure function: what does
    a router whose Loc-RIB selection is [best] tell a given peer?

    Shared by {!Router} (live operation) and by the analytic steady-state
    construction in the network layer, so the two can never disagree. *)

open Types

val passes : peer_kind:session_kind -> ?peer_rel:relationship -> Rib.best -> bool
(** The session filters alone: an iBGP-learned selection is not sent to
    an iBGP peer, and — when relationships are configured — a route
    learned from a peer or a provider is only sent to customers. *)

val passes_key : peer_kind:session_kind -> ?peer_rel:relationship -> int -> bool
(** {!passes} on a Loc-RIB selection key ({!Rib.selection_key}): what the
    router's export path reads, without building the selection. *)

val loop_blocked : config:Config.t -> peer_as:as_id -> path -> bool
(** Sender-side loop check: would [peer_as] drop this path as a loop? *)

val target :
  paths:Path.table ->
  config:Config.t ->
  own_as:as_id ->
  peer_kind:session_kind ->
  peer_as:as_id ->
  ?peer_rel:relationship ->
  best:Rib.best option ->
  unit ->
  path option
(** [paths] is the run's interning table (any prepended hop is interned
    there).  [None] means "advertise nothing" (i.e. withdraw if something was
    advertised before): no selection, an iBGP-learned selection facing an
    iBGP peer, a sender-side loop-check hit, or — when relationships are
    configured — a valley-free (Gao-Rexford) export restriction: routes
    learned from peers or providers are only exported to customers.
    [peer_rel] is our relationship to the peer being exported to.
    [target] is {!passes}, then the prepend, then {!loop_blocked}; the
    router composes the same three with the prepend consed once per
    selection. *)
