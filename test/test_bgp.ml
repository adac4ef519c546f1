(* Unit tests for the BGP protocol model: types, RIB/decision process, and
   router behaviour driven through a private scheduler harness. *)

module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Types = Bgp_proto.Types
module Rib = Bgp_proto.Rib
module Config = Bgp_proto.Config
module Router = Bgp_proto.Router
module Mrai = Bgp_core.Mrai_controller

module Path = Bgp_proto.Path

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* One interning table for the whole test binary: the fixtures' routers
   and the test-constructed updates share it, exactly as all routers of
   one simulation run share the network's table. *)
let tbl = Path.create_table ()
let p = Path.of_list tbl
let adv dest hops = Types.Advertise { dest; path = p hops }
let path_t = Alcotest.testable Path.pp Path.equal

(* --- Types ----------------------------------------------------------------- *)

let test_path_helpers () =
  checki "length" 3 (Types.path_length (p [ 1; 2; 3 ]));
  checki "empty length" 0 (Types.path_length Path.empty);
  checkb "contains" true (Types.path_contains (p [ 1; 2; 3 ]) 2);
  checkb "not contains" false (Types.path_contains (p [ 1; 2; 3 ]) 9);
  checki "update dest of advert" 7
    (Types.update_dest (adv 7 [ 1 ]));
  checki "update dest of withdraw" 9 (Types.update_dest (Types.Withdraw 9));
  checkb "withdrawal flag" true (Types.is_withdrawal (Types.Withdraw 1));
  checkb "advert flag" false
    (Types.is_withdrawal (adv 1 []))

(* --- Rib -------------------------------------------------------------------- *)

let test_rib_shortest_path_wins () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 5; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 9 ]);
  ignore (Rib.decide rib 9);
  Alcotest.check (Alcotest.option path_t) "shorter path selected" (Some (p [ 2; 9 ]))
    (Rib.best_path rib 9)

let test_rib_tiebreak_lowest_peer () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:5 ~kind:Types.Ebgp (p [ 5; 9 ]);
  Rib.set_in rib 9 ~peer:3 ~kind:Types.Ebgp (p [ 3; 9 ]);
  ignore (Rib.decide rib 9);
  (match Rib.best rib 9 with
  | Some (Rib.Learned e) -> checki "lowest peer id wins ties" 3 e.Rib.peer
  | _ -> Alcotest.fail "expected a learned route")

let test_rib_ebgp_beats_ibgp () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:5 ~kind:Types.Ibgp (p [ 9 ]);
  Rib.set_in rib 9 ~peer:7 ~kind:Types.Ebgp (p [ 9 ]);
  ignore (Rib.decide rib 9);
  match Rib.best rib 9 with
  | Some (Rib.Learned e) ->
    checkb "eBGP wins equal-length tie" true (e.Rib.kind = Types.Ebgp)
  | _ -> Alcotest.fail "expected a learned route"

let test_rib_local_beats_learned () =
  let rib = Rib.create ~asn:4 in
  Rib.originate rib 4;
  Rib.set_in rib 4 ~peer:1 ~kind:Types.Ibgp (p []);
  ignore (Rib.decide rib 4);
  checkb "local origination wins" true (Rib.best rib 4 = Some Rib.Local)

let test_rib_withdraw_falls_back () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 7; 9 ]);
  ignore (Rib.decide rib 9);
  Rib.withdraw_in rib 9 ~peer:1;
  checkb "decide reports the change" true (Rib.decide rib 9);
  Alcotest.check (Alcotest.option path_t) "backup promoted" (Some (p [ 2; 7; 9 ]))
    (Rib.best_path rib 9)

let test_rib_withdraw_last_route () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  ignore (Rib.decide rib 9);
  Rib.withdraw_in rib 9 ~peer:1;
  checkb "change reported" true (Rib.decide rib 9);
  checkb "no route left" true (Rib.best rib 9 = None)

let test_rib_decide_change_detection () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  checkb "first route is a change" true (Rib.decide rib 9);
  checkb "idempotent decide" false (Rib.decide rib 9);
  (* Same path length via a lower-id peer: it wins the tiebreak, and since
     the path itself differs the change is export-relevant. *)
  Rib.set_in rib 9 ~peer:0 ~kind:Types.Ebgp (p [ 4; 9 ]);
  checkb "better tiebreak with different path is a change" true (Rib.decide rib 9)

(* The Loc-RIB is flat: flipping the selection between two peers, and
   between a route and none, writes two words and allocates nothing. *)
let test_rib_decide_allocates_nothing () =
  let rib = Rib.create ~asn:0 in
  let short = p [ 2; 9 ] and long = p [ 1; 5; 9 ] in
  (* Both peers have their slots before the measurement. *)
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp short;
  Rib.withdraw_in rib 9 ~peer:2;
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp long;
  ignore (Rib.decide rib 9);
  let n = 10_000 and changes = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    (match i mod 3 with
    | 0 -> Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp short
    | 1 -> Rib.withdraw_in rib 9 ~peer:2
    | _ -> Rib.withdraw_in rib 9 ~peer:1);
    if Rib.decide rib 9 then incr changes;
    if i mod 3 = 2 then Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp long
  done;
  let words = Gc.minor_words () -. w0 in
  checkb "the selection changed on every step" true (!changes = n);
  checkb (Printf.sprintf "%.0f minor words over %d decisions" words n) true (words <= 8.0)

let test_rib_loop_rejected () =
  let rib = Rib.create ~asn:3 in
  Alcotest.check_raises "own AS in path"
    (Invalid_argument "Rib.set_in: path contains our own AS (loop check is the caller's job)")
    (fun () -> Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 3; 9 ]))

let test_rib_drop_peer () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 8 ~peer:1 ~kind:Types.Ebgp (p [ 1; 8 ]);
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 9 ]);
  List.iter (fun d -> ignore (Rib.decide rib d)) [ 8; 9 ];
  let affected = List.sort Int.compare (Rib.drop_peer rib ~peer:1) in
  Alcotest.check Alcotest.(list int) "affected dests" [ 8; 9 ] affected;
  ignore (Rib.decide rib 8);
  ignore (Rib.decide rib 9);
  checkb "dest 8 gone" true (Rib.best rib 8 = None);
  Alcotest.check (Alcotest.option path_t) "dest 9 falls back" (Some (p [ 2; 9 ]))
    (Rib.best_path rib 9)

let test_rib_rank_order () =
  let local = Rib.rank Rib.Local in
  let learned ?rel ?(kind = Types.Ebgp) path = Rib.Learned { peer = 1; kind; path; rel } in
  let ebgp = Rib.rank (learned (p [ 9 ])) in
  let ibgp = Rib.rank (learned ~kind:Types.Ibgp (p [ 9 ])) in
  let longer = Rib.rank (learned (p [ 2; 9 ])) in
  checkb "local < ebgp" true (local < ebgp);
  checkb "ebgp < ibgp at same length" true (ebgp < ibgp);
  checkb "shorter < longer" true (ebgp < longer);
  checkb "longer ebgp > shorter ibgp" true (longer > ibgp);
  (* Gao-Rexford preference class outranks path length. *)
  let customer_long = Rib.rank (learned ~rel:Types.Customer (p [ 2; 3; 4; 9 ])) in
  let provider_short = Rib.rank (learned ~rel:Types.Provider (p [ 9 ])) in
  let peer_short = Rib.rank (learned ~rel:Types.Peer_link (p [ 9 ])) in
  checkb "customer beats shorter provider route" true (customer_long < provider_short);
  checkb "customer beats shorter peer route" true (customer_long < peer_short);
  checkb "peer beats provider" true (peer_short < provider_short)

let prop_rib_best_is_minimal =
  let entry_gen =
    QCheck.Gen.(
      map3
        (fun peer kind path -> (peer, kind, path))
        (1 -- 20)
        (map (fun b -> if b then Types.Ebgp else Types.Ibgp) bool)
        (map2
           (fun len start -> List.init len (fun i -> 100 + ((start + i) mod 50)))
           (1 -- 6) (0 -- 49)))
  in
  QCheck.Test.make ~name:"decision picks the minimum-ranked entry" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 10) entry_gen))
    (fun entries ->
      let rib = Rib.create ~asn:0 in
      (* Last write per peer wins, mirroring Adj-RIB-In semantics. *)
      let by_peer = Hashtbl.create 8 in
      List.iter
        (fun (peer, kind, path) ->
          Rib.set_in rib 9 ~peer ~kind (p path);
          Hashtbl.replace by_peer peer (kind, p path))
        entries;
      ignore (Rib.decide rib 9);
      match Rib.best rib 9 with
      | Some (Rib.Learned e) ->
        Hashtbl.fold
          (fun peer (kind, path) ok ->
            ok
            && Rib.rank (Rib.Learned { peer; kind; path; rel = None })
               >= Rib.rank (Rib.Learned e))
          by_peer true
      | _ -> false)

(* The packed int key must induce exactly the ordering of the reference
   tuple rank, for every preference class / length / kind / peer mix. *)
let prop_packed_rank_isomorphic =
  let best_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return Rib.Local);
          ( 9,
            map3
              (fun peer (kind, rel) hops ->
                Rib.Learned { Rib.peer; kind; path = p hops; rel })
              (0 -- 40)
              (pair
                 (map (fun b -> if b then Types.Ebgp else Types.Ibgp) bool)
                 (oneofl
                    [ None; Some Types.Customer; Some Types.Peer_link; Some Types.Provider ]))
              (list_size (0 -- 8) (100 -- 140)) );
        ])
  in
  QCheck.Test.make ~name:"packed rank ordering = tuple rank ordering" ~count:2000
    (QCheck.make QCheck.Gen.(pair best_gen best_gen))
    (fun (a, b) ->
      Stdlib.compare (Rib.rank a) (Rib.rank b)
      = Int.compare (Rib.packed_rank a) (Rib.packed_rank b))

(* --- Router harness ---------------------------------------------------------- *)

(* A small fixture: one router under test with scripted peers.  We capture
   everything the router sends. *)
type fixture = {
  sched : Sched.t;
  router : Router.t;
  sent : (int * Types.update) list ref;  (* (dst, update) in send order *)
}

let make_fixture ?(config = Config.default) ?(asn = 0) ~peers () =
  let sched = Sched.create () in
  let sent = ref [] in
  let cb =
    {
      Router.send =
        (fun ~src:_ ~dst dest path -> sent := (dst, Router.to_update dest path) :: !sent);
      activity = (fun ~time:_ -> ());
    }
  in
  let router =
    Router.create ~sched ~rng:(Rng.create 1) ~paths:tbl ~config ~id:0 ~asn
      ~degree:(List.length peers)
      cb
  in
  List.iter
    (fun (peer, peer_as, kind) -> Router.add_peer router ~peer ~peer_as ~kind ())
    peers;
  { sched; router; sent }

let sent_in_order fx = List.rev !(fx.sent)

let no_jitter = { Config.default with Config.mrai_jitter = false }

let test_router_originates () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  let adverts = sent_in_order fx in
  checki "advertised to both peers" 2 (List.length adverts);
  List.iter
    (fun (_, u) ->
      match u with
      | Types.Advertise { dest = 0; path } when Path.hops path = [ 0 ] -> ()
      | u -> Alcotest.failf "unexpected update %a" Types.pp_update u)
    adverts

let test_router_forwards_best () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  (* Peer 1 advertises dest 9. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  (* Must be re-advertised only to peer 2 (peer 1's AS is in the path). *)
  (match sent_in_order fx with
  | [ (2, Types.Advertise { dest = 9; path }) ] when Path.hops path = [ 0; 1; 9 ] -> ()
  | l -> Alcotest.failf "unexpected sends (%d)" (List.length l));
  Alcotest.check (Alcotest.option path_t) "installed" (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

let test_router_receiver_loop_check () =
  let fx = make_fixture ~config:no_jitter ~asn:0 ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* A path containing our own AS must be discarded. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 0; 9 ]);
  Sched.run fx.sched;
  checkb "looped path not installed" true (Router.best_path_to fx.router 9 = None)

let test_router_withdraw_propagates () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Sched.run fx.sched;
  (match sent_in_order fx with
  | [ (2, Types.Withdraw 9) ] -> ()
  | l -> Alcotest.failf "expected a single withdrawal to peer 2, got %d sends" (List.length l));
  checkb "route gone" true (Router.best_path_to fx.router 9 = None)

let test_router_mrai_coalesces () =
  (* Two updates for the same destination arrive back to back; with the
     MRAI timer running after the first export, only the final state may
     be advertised at expiry. *)
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  checki "first advert out immediately" 1 (List.length !(fx.sent));
  (* A better route arrives while peer 2's timer runs. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run fx.sched;
  let to_peer2 =
    List.filter_map
      (fun (dst, u) -> if dst = 2 && Types.update_dest u = 9 then Some u else None)
      (sent_in_order fx)
  in
  (* First immediate advert, then exactly one coalesced refresh at expiry
     (possibly preceded by an unpaced withdrawal). *)
  let adverts = List.filter (fun u -> not (Types.is_withdrawal u)) to_peer2 in
  checki "adverts coalesced by the MRAI" 2 (List.length adverts);
  match List.rev adverts with
  | Types.Advertise { path; _ } :: _ when Path.hops path = [ 0; 1; 5; 9 ] -> ()
  | _ -> Alcotest.fail "final advert must carry the final path"

let test_router_mrai_timer_spacing () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  (* Route flaps from peer 1, 0.1 s apart; exports to peer 2 must be
     spaced by >= MRAI (30 s). *)
  let times = ref [] in
  let record () =
    List.iter
      (fun (dst, u) ->
        if dst = 2 && not (Types.is_withdrawal u) then times := Sched.now fx.sched :: !times)
      !(fx.sent);
    fx.sent := []
  in
  for i = 0 to 5 do
    ignore
      (Sched.schedule fx.sched ~delay:(0.1 *. float_of_int i) (fun () ->
           Router.receive fx.router ~src:1
             (adv 9 (if i mod 2 = 0 then [ 1; 9 ] else [ 1; 5; 9 ]))))
  done;
  let rec pump () = if Sched.step fx.sched then (record (); pump ()) in
  pump ();
  let times = List.sort Float.compare !times in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g -> checkb (Printf.sprintf "gap %.3f >= 30" g) true (g >= 30.0 -. 1e-6))
    (gaps times)

let test_router_peer_down_removes_routes () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  fx.sent := [];
  Router.peer_down fx.router 1;
  Sched.run fx.sched;
  checkb "route removed" true (Router.best_path_to fx.router 9 = None);
  (* The loss must be signalled to the surviving peer, and nothing may be
     sent to the dead one. *)
  checkb "withdrawal to survivor" true
    (List.exists (fun (dst, u) -> dst = 2 && u = Types.Withdraw 9) (sent_in_order fx));
  checkb "nothing to the dead peer" true
    (List.for_all (fun (dst, _) -> dst <> 1) (sent_in_order fx))

let test_router_stale_update_from_dead_peer_ignored () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* The update is queued, then the session drops before processing. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.peer_down fx.router 1;
  Sched.run fx.sched;
  checkb "stale update discarded" true (Router.best_path_to fx.router 9 = None)

let test_router_fail_goes_silent () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.fail fx.router;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  checkb "failed router is silent" true (!(fx.sent) = []);
  checkb "failed router learns nothing" true (Router.best_path_to fx.router 9 = None);
  checkb "reported failed" true (Router.is_failed fx.router)

let test_router_ibgp_nontransit () =
  (* iBGP-learned routes must not be re-advertised over iBGP, but must be
     exported over eBGP with AS prepend. *)
  let fx =
    make_fixture ~config:no_jitter ~asn:0
      ~peers:[ (1, 0, Types.Ibgp); (2, 0, Types.Ibgp); (3, 3, Types.Ebgp) ] ()
  in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 7; 9 ]);
  Sched.run fx.sched;
  let sends = sent_in_order fx in
  checkb "not echoed to iBGP peers" true
    (List.for_all (fun (dst, _) -> dst <> 1 && dst <> 2) sends);
  checkb "exported over eBGP with prepend" true
    (List.exists
       (fun (dst, u) ->
         dst = 3 && u = adv 9 [ 0; 7; 9 ])
       sends)

let test_router_ebgp_learned_goes_to_ibgp () =
  let fx =
    make_fixture ~config:no_jitter ~asn:0
      ~peers:[ (1, 0, Types.Ibgp); (3, 3, Types.Ebgp) ] ()
  in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:3 (adv 9 [ 3; 9 ]);
  Sched.run fx.sched;
  checkb "eBGP-learned goes to iBGP without prepend" true
    (List.exists
       (fun (dst, u) ->
         dst = 1 && u = adv 9 [ 3; 9 ])
       (sent_in_order fx))

let test_router_sender_side_loop_check_off () =
  let config = { no_jitter with Config.sender_side_loop_check = false } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  (* Without the check the route is advertised back to peer 1 even though
     peer 1 will drop it. *)
  checkb "echoed back when check disabled" true
    (List.exists (fun (dst, _) -> dst = 1) (sent_in_order fx))

let test_router_mrai_on_withdrawals () =
  let config = { no_jitter with Config.mrai_on_withdrawals = true } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  (* Drain only a short window so peer 2's 30 s MRAI timer is still
     running when the withdrawal arrives. *)
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  (* Pump only a little simulated time: no withdrawal may leave yet. *)
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "withdrawal paced by MRAI" true
    (not (List.exists (fun (_, u) -> Types.is_withdrawal u) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "withdrawal eventually sent" true
    (List.exists (fun (dst, u) -> dst = 2 && Types.is_withdrawal u) (sent_in_order fx))

let test_router_per_dest_mrai () =
  (* Per-destination timers: a change to another destination is not
     blocked by the first destination's running timer. *)
  let config = { no_jitter with Config.mrai_mode = Config.Per_dest } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  Router.receive fx.router ~src:1 (adv 8 [ 1; 8 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  let adverts_to_2 =
    List.filter (fun (dst, u) -> dst = 2 && not (Types.is_withdrawal u)) (sent_in_order fx)
  in
  checki "both destinations exported promptly" 2 (List.length adverts_to_2)

let test_router_cancel_on_improvement () =
  (* A better route must bypass the running MRAI timer; a worse one must
     still wait. *)
  let config = { no_jitter with Config.mrai_bypass = Config.Cancel_on_improvement } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  (* Improvement: shorter path arrives while peer 2's timer runs. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "improvement bypasses the timer" true
    (List.exists
       (fun (dst, u) -> dst = 2 && u = adv 9 [ 0; 1; 9 ])
       (sent_in_order fx));
  fx.sent := [];
  (* Degradation: longer path must wait for expiry. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 6; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "degradation is still paced" true
    (not (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "degradation goes out at expiry" true
    (List.exists
       (fun (dst, u) ->
         dst = 2 && u = adv 9 [ 0; 1; 5; 6; 9 ])
       (sent_in_order fx))

let test_router_flap_threshold () =
  (* Below the threshold, changes go out immediately even though the timer
     runs; at the threshold, pacing kicks in. *)
  let config = { no_jitter with Config.mrai_bypass = Config.Flap_threshold 2 } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  (* Change 1 while the timer runs: flap count 1 < 2 -> immediate. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "first flap bypasses the MRAI" true
    (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx));
  fx.sent := [];
  (* Change 2: flap count reaches the threshold -> paced. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 6; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "second flap is paced" true
    (not (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "paced update flushes at expiry" true
    (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx))

let test_router_damping_suppresses_and_reuses () =
  let damping =
    Some
      {
        Bgp_core.Damping.withdraw_penalty = 1.0;
        update_penalty = 0.5;
        half_life = 10.0;
        cut_threshold = 2.0;
        reuse_threshold = 0.75;
        max_suppress = 300.0;
      }
  in
  let config = { no_jitter with Config.damping } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* Flap dest 9 hard: advertise / withdraw / advertise / withdraw /
     advertise — the final advertisement arrives suppressed. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "route suppressed despite advertisement" true
    (Router.best_path_to fx.router 9 = None);
  checkb "suppression counted" true
    ((Router.metrics fx.router).Router.damping_suppressions >= 1);
  (* Let the penalty decay: the parked route must come back by itself. *)
  Sched.run fx.sched;
  Alcotest.check (Alcotest.option path_t) "route reinstated at reuse time"
    (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

let test_router_damping_clean_routes_unaffected () =
  let config =
    { no_jitter with Config.damping = Some Bgp_core.Damping.sim_config }
  in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  Alcotest.check (Alcotest.option path_t) "single advertisement installs normally"
    (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

let test_router_metrics () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Sched.run fx.sched;
  let m = Router.metrics fx.router in
  checkb "processed counted" true (m.Router.msgs_processed >= 2);
  checkb "adverts counted" true (m.Router.adverts_sent >= 3);
  checkb "withdrawal counted" true (m.Router.withdrawals_sent >= 1)

(* --- Path: interning under sweeps ------------------------------------------- *)

let test_sweep_keeps_root_spines () =
  let t = Path.create_table () in
  let a = Path.of_list t [ 1; 2; 3 ] and b = Path.of_list t [ 4; 5 ] in
  Path.add_roots t (fun f -> f a);
  Path.sweep t;
  checki "only the root's spine is kept" 3 (Path.table_stats t).Path.nodes;
  checki "interned-ever count unchanged" 5 (Path.unique_count t);
  checkb "root re-interns to itself" true (Path.of_list t [ 1; 2; 3 ] == a);
  checkb "suffix of the root kept" true (Path.cons t 1 (Path.of_list t [ 2; 3 ]) == a);
  let b' = Path.of_list t [ 4; 5 ] in
  checkb "swept path re-interns to a fresh node" true (b' != b && Path.equal b b');
  checkb "with a fresh id" true (Path.id b' > Path.id b);
  checkb "consing onto a swept path" true
    (Path.hops (Path.cons t 9 b) = [ 9; 4; 5 ])

(* A root consed onto a swept tail is not kept: its chain leaves the
   memo, so the next sweep drops it (and keeps only what else reaches
   [Empty] through memoised nodes). *)
let test_sweep_drops_root_on_swept_tail () =
  let t = Path.create_table () in
  let b = Path.of_list t [ 4; 5 ] in
  let roots = ref [] in
  Path.add_roots t (fun f -> List.iter f !roots);
  Path.sweep t;
  checki "nothing rooted, nothing kept" 0 (Path.table_stats t).Path.nodes;
  let c = Path.cons t 9 b in
  roots := [ c ];
  checki "the new node is memoised" 1 (Path.table_stats t).Path.nodes;
  Path.sweep t;
  checki "a root on a swept tail is dropped" 0 (Path.table_stats t).Path.nodes;
  checkb "and stays a valid path" true (Path.hops c = [ 9; 4; 5 ] && Path.length c = 3);
  let c' = Path.of_list t [ 9; 4; 5 ] in
  roots := [ c; c' ];
  Path.sweep t;
  checki "its fresh twin is kept whole" 3 (Path.table_stats t).Path.nodes;
  checkb "twins are equal, not identical" true (Path.equal c c' && c != c')

(* Model test: random interleavings of cons, root changes and sweeps.
   Every path ever built keeps agreeing with its hop-list model, consing
   onto any of them (swept or not) succeeds, and an id names one node
   forever.  A reference memo, keyed like the table's by (tail id, head),
   predicts every hit and miss and, after each sweep, the kept set by the
   bottom-up rule over hop lists: resolve a root's hops from the origin
   up through the memo, keeping each node found, and stop at the first
   hop whose node the memo no longer holds. *)
type path_op = Cons of int * int | Root of int | Unroot of int | Sweep

let gen_path_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Cons (i, a) -> Printf.sprintf "cons(%d,%d)" i a
             | Root i -> Printf.sprintf "root(%d)" i
             | Unroot i -> Printf.sprintf "unroot(%d)" i
             | Sweep -> "sweep")
           ops))
    QCheck.Gen.(
      list_size (1 -- 150)
        (frequency
           [
             (6, map2 (fun i a -> Cons (i, a)) (0 -- 1000) (0 -- 7));
             (2, map (fun i -> Root i) (0 -- 1000));
             (1, map (fun i -> Unroot i) (0 -- 1000));
             (1, return Sweep);
           ]))

let prop_path_model_under_sweeps =
  QCheck.Test.make ~name:"path: cons/sweep interleavings agree with a list model" ~count:300
    gen_path_ops (fun ops ->
      let t = Path.create_table () in
      let known = Hashtbl.create 64 in
      (* index -> (path, model); 0 is the empty path *)
      Hashtbl.replace known 0 (Path.empty, []);
      let roots = Hashtbl.create 16 in
      Path.add_roots t (fun f ->
          Hashtbl.iter (fun i () -> f (fst (Hashtbl.find known i))) roots);
      let by_id = Hashtbl.create 64 and max_id = ref 0 and ok = ref true in
      (* Reference memo: (tail id, head) -> id; ids of each known path's
         chain, head first, for the kept-set rule. *)
      let ref_memo = Hashtbl.create 64 and chains = Hashtbl.create 64 in
      Hashtbl.replace chains 0 [];
      let ref_sweep () =
        let kept = Hashtbl.create 64 in
        let rec resolve hops ids =
          match (hops, ids) with
          | [], [] -> 0
          | asn :: hops, id :: ids ->
            let tail = resolve hops ids in
            if tail >= 0 && Hashtbl.find_opt ref_memo (tail, asn) = Some id then begin
              Hashtbl.replace kept id ();
              id
            end
            else -1
          | _ -> invalid_arg "chain and hops differ in length"
        in
        Hashtbl.iter
          (fun i () ->
            let _, model = Hashtbl.find known i in
            ignore (resolve model (Hashtbl.find chains i)))
          roots;
        Hashtbl.filter_map_inplace
          (fun _ id -> if Hashtbl.mem kept id then Some id else None)
          ref_memo
      in
      let pick i = i mod Hashtbl.length known in
      List.iter
        (function
          | Cons (i, asn) ->
            let j = pick i in
            let tail, model = Hashtbl.find known j in
            let p = Path.cons t asn tail in
            (match Hashtbl.find_opt ref_memo (Path.id tail, asn) with
            | Some id -> if Path.id p <> id then ok := false
            | None -> Hashtbl.replace ref_memo (Path.id tail, asn) (Path.id p));
            (match Hashtbl.find_opt by_id (Path.id p) with
            | Some q -> if q != p then ok := false
            | None ->
              if Path.id p <= !max_id then ok := false;
              max_id := Path.id p;
              Hashtbl.replace by_id (Path.id p) p);
            let k = Hashtbl.length known in
            Hashtbl.replace known k (p, asn :: model);
            Hashtbl.replace chains k (Path.id p :: Hashtbl.find chains j)
          | Root i -> Hashtbl.replace roots (pick i) ()
          | Unroot i -> Hashtbl.remove roots (pick i)
          | Sweep ->
            Path.sweep t;
            ref_sweep ();
            if (Path.table_stats t).Path.nodes <> Hashtbl.length ref_memo then ok := false)
        ops;
      let all = Hashtbl.fold (fun _ pm acc -> pm :: acc) known [] in
      List.iter
        (fun (p, m) ->
          if Path.hops p <> m || Path.length p <> List.length m then ok := false;
          for a = 0 to 8 do
            if Path.contains p a <> List.mem a m then ok := false
          done;
          List.iter (fun (q, mq) -> if Path.equal p q <> (m = mq) then ok := false) all)
        all;
      !ok)

(* --- Dest_map: sorted sparse per-peer maps ------------------------------- *)

type dm_op = Set of int * int | Remove of int | Clear

let prop_dest_map_model =
  let module M = Map.Make (Int) in
  QCheck.Test.make ~name:"dest_map: set/remove/clear agree with Map" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 300)
           (frequency
              [
                (6, map2 (fun d v -> Set (d, v)) (0 -- 60) (0 -- 1000));
                (3, map (fun d -> Remove d) (0 -- 60));
                (1, return Clear);
              ])))
    (fun ops ->
      let t = Bgp_proto.Dest_map.create () in
      let model =
        List.fold_left
          (fun m op ->
            match op with
            | Set (d, v) ->
              Bgp_proto.Dest_map.set t d v (float_of_int (d + v));
              M.add d v m
            | Remove d ->
              Bgp_proto.Dest_map.remove t d;
              M.remove d m
            | Clear ->
              Bgp_proto.Dest_map.clear t;
              M.empty)
          M.empty ops
      in
      let slots =
        List.init (Bgp_proto.Dest_map.length t) (fun i ->
            let d = Bgp_proto.Dest_map.key t i in
            ( d,
              Bgp_proto.Dest_map.value t i,
              Bgp_proto.Dest_map.time t i,
              Bgp_proto.Dest_map.find t d = i ))
      in
      slots
      = List.map (fun (d, v) -> (d, v, float_of_int (d + v), true)) (M.bindings model)
      && List.for_all
           (fun d -> Bgp_proto.Dest_map.mem t d = M.mem d model)
           (List.init 62 Fun.id))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "bgp"
    [
      ("types", [ Alcotest.test_case "path helpers" `Quick test_path_helpers ]);
      ( "path",
        [
          Alcotest.test_case "sweep keeps root spines" `Quick test_sweep_keeps_root_spines;
          Alcotest.test_case "sweep drops a root on a swept tail" `Quick
            test_sweep_drops_root_on_swept_tail;
          qc prop_path_model_under_sweeps;
        ] );
      ("dest_map", [ qc prop_dest_map_model ]);
      ( "rib",
        [
          Alcotest.test_case "shortest path wins" `Quick test_rib_shortest_path_wins;
          Alcotest.test_case "tiebreak lowest peer" `Quick test_rib_tiebreak_lowest_peer;
          Alcotest.test_case "eBGP beats iBGP" `Quick test_rib_ebgp_beats_ibgp;
          Alcotest.test_case "local beats learned" `Quick test_rib_local_beats_learned;
          Alcotest.test_case "withdraw falls back" `Quick test_rib_withdraw_falls_back;
          Alcotest.test_case "withdraw last route" `Quick test_rib_withdraw_last_route;
          Alcotest.test_case "change detection" `Quick test_rib_decide_change_detection;
          Alcotest.test_case "decide allocates nothing" `Quick
            test_rib_decide_allocates_nothing;
          Alcotest.test_case "loop rejected" `Quick test_rib_loop_rejected;
          Alcotest.test_case "drop peer" `Quick test_rib_drop_peer;
          Alcotest.test_case "rank order" `Quick test_rib_rank_order;
          qc prop_rib_best_is_minimal;
          qc prop_packed_rank_isomorphic;
        ] );
      ( "router",
        [
          Alcotest.test_case "originates" `Quick test_router_originates;
          Alcotest.test_case "forwards best" `Quick test_router_forwards_best;
          Alcotest.test_case "receiver loop check" `Quick test_router_receiver_loop_check;
          Alcotest.test_case "withdraw propagates" `Quick test_router_withdraw_propagates;
          Alcotest.test_case "MRAI coalesces" `Quick test_router_mrai_coalesces;
          Alcotest.test_case "MRAI spacing" `Quick test_router_mrai_timer_spacing;
          Alcotest.test_case "peer down removes routes" `Quick
            test_router_peer_down_removes_routes;
          Alcotest.test_case "stale update from dead peer" `Quick
            test_router_stale_update_from_dead_peer_ignored;
          Alcotest.test_case "fail goes silent" `Quick test_router_fail_goes_silent;
          Alcotest.test_case "iBGP non-transit" `Quick test_router_ibgp_nontransit;
          Alcotest.test_case "eBGP-learned to iBGP" `Quick
            test_router_ebgp_learned_goes_to_ibgp;
          Alcotest.test_case "sender-side check off" `Quick
            test_router_sender_side_loop_check_off;
          Alcotest.test_case "MRAI on withdrawals" `Quick test_router_mrai_on_withdrawals;
          Alcotest.test_case "per-dest MRAI" `Quick test_router_per_dest_mrai;
          Alcotest.test_case "cancel-on-improvement bypass" `Quick
            test_router_cancel_on_improvement;
          Alcotest.test_case "flap-threshold bypass" `Quick test_router_flap_threshold;
          Alcotest.test_case "damping suppress + reuse" `Quick
            test_router_damping_suppresses_and_reuses;
          Alcotest.test_case "damping leaves clean routes" `Quick
            test_router_damping_clean_routes_unaffected;
          Alcotest.test_case "metrics" `Quick test_router_metrics;
        ] );
    ]
