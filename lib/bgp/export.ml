open Types

(* Valley-free rule: a route learned from a peer or a provider may only
   be exported to customers.  Local routes and customer routes go to
   everyone.  Sessions without relationship metadata are unrestricted. *)
let passes_key ~peer_kind ?peer_rel key =
  match peer_kind with
  | Ibgp -> Rib.key_ibgp_exportable key
  | Ebgp -> (not (Rib.key_restricted key)) || peer_rel = Some Customer

let passes ~peer_kind ?peer_rel best = passes_key ~peer_kind ?peer_rel (Rib.key_of_best best)

let loop_blocked ~config ~peer_as path =
  config.Config.sender_side_loop_check && path_contains path peer_as

let target ~paths ~config ~own_as ~peer_kind ~peer_as ?peer_rel ~best () =
  match best with
  | None -> None
  | Some best ->
    if not (passes ~peer_kind ?peer_rel best) then None
    else
      let base =
        match best with Rib.Local -> Path.empty | Rib.Learned e -> e.Rib.path
      in
      let path =
        match peer_kind with Ebgp -> Path.cons paths own_as base | Ibgp -> base
      in
      if loop_blocked ~config ~peer_as path then None else Some path
