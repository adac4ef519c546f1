open Types
module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Dist = Bgp_engine.Dist
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Damping = Bgp_core.Damping

type work = Update_msg of update | Peer_down_msg | Peer_up_msg

type peer_state = {
  peer_id : router_id;
  peer_as : as_id;
  kind : session_kind;
  peer_rel : relationship option;
  controller : Mrai.t;
  mutable up : bool;
  (* Per-peer MRAI mode. *)
  mutable timer_running : bool;
  mutable timer_event : Sched.event_id option;
  (* Per-dest MRAI mode: destinations with a running timer. *)
  dest_timers : Sched.event_id Dest_map.t;
  (* Pending destinations: value = trace cause id, time = when last marked
     pending.  Both are ignored when tracing is off. *)
  pending : int Dest_map.t;
  (* Adj-RIB-Out, indexed by destination ([unset] where nothing is
     advertised): nearly every destination is advertised to every peer,
     so a flat array is smaller than any map. *)
  mutable advertised : path array;
  flaps : int Dest_map.t;
      (* route changes since the last paced flush (Flap_threshold bypass) *)
}

type callbacks = {
  send : src:router_id -> dst:router_id -> update -> unit;
  activity : time:float -> unit;
}

type tracer = {
  on_processed :
    router:router_id ->
    src:router_id ->
    dest:dest ->
    enqueued:float ->
    started:float ->
    cause:int ->
    int;
  on_mrai_flush :
    router:router_id -> peer:router_id -> dest:dest -> ready:float -> cause:int -> int;
}

type t = {
  id : router_id;
  asn : as_id;
  config : Config.t;
  sched : Sched.t;
  rng : Rng.t;
  paths : Path.table;  (* the run's shared AS-path interning table *)
  rib : Rib.t;
  input : work Iq.t;
  mutable peers : peer_state array;  (* ascending peer id: binary-searched *)
  ebgp_controller : Mrai.t;
  ibgp_controller : Mrai.t;
  mean_proc : float;
  adaptive : bool;
      (* the eBGP controller reacts to load; when false the per-message
         load-window accounting and level checks are skipped entirely *)
  cb : callbacks;
  tracer : tracer option;
  (* Trace id of the event whose handling is currently executing: the
     [Processed] completion or [Mrai_flush] that any update sent right now
     is caused by.  [-1] when untraced or outside any handler. *)
  mutable cur_cause : int;
  (* The message being processed (taken from [input] by [begin_next]);
     its source, destination and trace fields are [Iq.last_*] of
     [input] until the next take.  [Peer_down_msg] when idle. *)
  mutable work : work;
  delay : Float.Array.t;  (* its sampled processing delay, unboxed *)
  mutable complete_cb : unit -> unit;  (* [complete t], allocated once *)
  (* Export context of the selection being exported, set by
     [prepare_export]: the destination and its Loc-RIB selection. *)
  mutable ex_dest : dest;
  mutable ex_best : Rib.best option;
  mutable ex_target : path;  (* set by [has_target] *)
  (* Per destination, the Loc-RIB selection's path with our AS prepended
     ([unset] until an eBGP peer needs it): consed once per selection,
     not once per peer and flush. *)
  mutable prepended : path array;
  mutable busy : bool;
  mutable failed : bool;
  mutable last_level : int;  (* for dynamic_restart_timers *)
  damping : Damping.t option;
  (* Routes received while suppressed, reinstalled at their reuse time. *)
  parked : (router_id * dest, session_kind * path * int) Hashtbl.t;
  (* Load window for the utilization / message-count detectors. *)
  mutable window_start : float;
  mutable busy_in_window : float;
  mutable msgs_in_window : int;
  mutable last_utilization : float;
  mutable last_msgs_in_window : int;
  (* Counters. *)
  mutable adverts_sent : int;
  mutable withdrawals_sent : int;
  mutable msgs_processed : int;
  mutable max_unfinished_work : float;
  mutable rib_changes : int;  (* export-relevant Loc-RIB revisions *)
  (* Steady-state observer: called on every export-relevant Loc-RIB
     revision with (dest, now).  Pure observation — it must not draw
     randomness or schedule events (the churn monitor records per-prefix
     settle times through it). *)
  mutable on_rib_change : (int -> float -> unit) option;
}

let make ~sched ~rng ~paths ~config ~id ~asn ~degree ?tracer cb =
  let ebgp_controller = Mrai.make config.Config.mrai_scheme ~degree in
  {
    id;
    asn;
    config;
    sched;
    rng;
    paths;
    rib = Rib.create ~asn;
    input = Iq.create config.Config.queue_discipline;
    peers = [||];
    ebgp_controller;
    ibgp_controller = Mrai.make (Static config.Config.ibgp_mrai) ~degree;
    mean_proc = Dist.mean config.Config.processing_delay;
    adaptive = Mrai.is_adaptive ebgp_controller;
    cb;
    tracer;
    cur_cause = -1;
    work = Peer_down_msg;
    delay = Float.Array.make 1 0.0;
    complete_cb = ignore;
    ex_dest = -1;
    ex_best = None;
    ex_target = Path.empty;
    prepended = [||];
    busy = false;
    failed = false;
    last_level = 0;
    damping = Option.map Damping.create config.Config.damping;
    parked = Hashtbl.create 16;
    window_start = 0.0;
    busy_in_window = 0.0;
    msgs_in_window = 0;
    last_utilization = 0.0;
    last_msgs_in_window = 0;
    adverts_sent = 0;
    withdrawals_sent = 0;
    msgs_processed = 0;
    max_unfinished_work = 0.0;
    rib_changes = 0;
    on_rib_change = None;
  }

let set_rib_change_hook t f = t.on_rib_change <- Some f

let id t = t.id
let asn t = t.asn
let current_cause t = t.cur_cause
let rib t = t.rib
let is_failed t = t.failed
let peer_ids t = Array.to_list (Array.map (fun p -> p.peer_id) t.peers)
let queue_length t = Iq.length t.input
let is_busy t = t.busy

(* The slot of peer [id] in [t.peers], or -1. *)
let find_peer t id =
  let rec search lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let p = t.peers.(mid).peer_id in
      if p = id then mid else if p < id then search (mid + 1) hi else search lo (mid - 1)
  in
  search 0 (Array.length t.peers - 1)

let add_peer t ~peer ~peer_as ~kind ?relationship () =
  if find_peer t peer >= 0 then invalid_arg "Router.add_peer: duplicate peer";
  let controller =
    match kind with Ebgp -> t.ebgp_controller | Ibgp -> t.ibgp_controller
  in
  let state =
    {
      peer_id = peer;
      peer_as;
      kind;
      peer_rel = relationship;
      controller;
      up = true;
      timer_running = false;
      timer_event = None;
      dest_timers = Dest_map.create ();
      pending = Dest_map.create ();
      advertised = [||];
      flaps = Dest_map.create ();
    }
  in
  t.peers <-
    Array.of_list
      (List.merge
         (fun a b -> Int.compare a.peer_id b.peer_id)
         [ state ] (Array.to_list t.peers))

(* --- Per-destination arrays ------------------------------------------- *)

(* Marks an absent entry in the Adj-RIB-Out and prepend arrays: a node of
   a private table, so no route ever holds it. *)
let unset = Path.cons (Path.create_table ()) 0 Path.empty

let lookup arr dest = if dest >= 0 && dest < Array.length arr then arr.(dest) else unset

(* [arr] with room for [dest], grown by doubling like the RIB. *)
let reserve arr dest =
  if dest < Array.length arr then arr
  else begin
    let grown = Array.make (max (dest + 1) (2 * Array.length arr)) unset in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown
  end

let advertised peer dest = lookup peer.advertised dest

let set_advertised peer dest path =
  peer.advertised <- reserve peer.advertised dest;
  peer.advertised.(dest) <- path

let is_advertised peer dest = advertised peer dest != unset

(* --- Load window ------------------------------------------------------- *)

let roll_window t =
  let now = Sched.now t.sched in
  let w = t.config.Config.load_window in
  let elapsed = now -. t.window_start in
  if elapsed >= w then begin
    if elapsed < 2.0 *. w then begin
      t.last_utilization <- Float.min 1.0 (t.busy_in_window /. w);
      t.last_msgs_in_window <- t.msgs_in_window
    end
    else begin
      (* We skipped at least one whole window: the router was idle. *)
      t.last_utilization <- 0.0;
      t.last_msgs_in_window <- 0
    end;
    t.busy_in_window <- 0.0;
    t.msgs_in_window <- 0;
    t.window_start <- now -. Float.rem elapsed w
  end

let observe_load t =
  let work = float_of_int (Iq.length t.input) *. t.mean_proc in
  if work > t.max_unfinished_work then t.max_unfinished_work <- work;
  if t.adaptive then begin
    let load =
      {
        Mrai.now = Sched.now t.sched;
        queue_length = Iq.length t.input;
        mean_processing_delay = t.mean_proc;
        utilization = t.last_utilization;
        updates_in_window = t.last_msgs_in_window;
      }
    in
    Mrai.observe t.ebgp_controller load
  end

(* --- Sending and the MRAI gate ----------------------------------------- *)

let activity t = t.cb.activity ~time:(Sched.now t.sched)

let effective_interval t peer =
  let base = Mrai.current_interval peer.controller in
  if base <= 0.0 then 0.0
  else if t.config.Config.mrai_jitter then base *. Rng.uniform t.rng ~lo:0.75 ~hi:1.0
  else base

let send_advert t peer dest path =
  t.adverts_sent <- t.adverts_sent + 1;
  set_advertised peer dest path;
  t.cb.send ~src:t.id ~dst:peer.peer_id (Advertise { dest; path });
  activity t

let send_withdraw t peer dest =
  t.withdrawals_sent <- t.withdrawals_sent + 1;
  set_advertised peer dest unset;
  t.cb.send ~src:t.id ~dst:peer.peer_id (Withdraw dest);
  activity t

let base_path = function Rib.Local -> Path.empty | Rib.Learned e -> e.Rib.path

(* Load the export context for [dest]'s current selection. *)
let prepare_export t dest =
  t.ex_dest <- dest;
  t.ex_best <- Rib.best t.rib dest

(* The Loc-RIB selection of [dest] changed: its prepend is stale. *)
let forget_prepended t dest =
  if dest < Array.length t.prepended then t.prepended.(dest) <- unset

(* The path [peer] is sent for the prepared selection [best]; the eBGP
   prepend is consed on first use after a selection change. *)
let sent_path t peer best =
  match peer.kind with
  | Ibgp -> base_path best
  | Ebgp ->
    let dest = t.ex_dest in
    let cached = lookup t.prepended dest in
    if cached != unset then cached
    else begin
      let p = Path.cons t.paths t.asn (base_path best) in
      t.prepended <- reserve t.prepended dest;
      t.prepended.(dest) <- p;
      p
    end

(* What should [peer] currently be told about the prepared destination?
   [Export.target] without the option box and with the prepend shared
   across peers: [true] iff something is to be advertised, and then
   [ex_target] is the path. *)
let has_target t peer =
  match t.ex_best with
  | None -> false
  | Some best ->
    if not (Export.passes ~peer_kind:peer.kind ?peer_rel:peer.peer_rel best) then false
    else begin
      let path = sent_path t peer best in
      if Export.loop_blocked ~config:t.config ~peer_as:peer.peer_as path then false
      else begin
        t.ex_target <- path;
        true
      end
    end

(* Is [path] what [peer] currently holds for [dest]? *)
let advertised_as peer dest path =
  let held = advertised peer dest in
  held != unset && path_equal path held

let timer_idle t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> not peer.timer_running
  | Config.Per_dest -> not (Dest_map.mem peer.dest_timers dest)

(* Flush one pending destination against the prepared selection ([has]
   is [has_target t peer]).  Returns [true] if an MRAI-limited message (an
   advertisement, or any message when mrai_on_withdrawals) was sent. *)
let flush_target t peer dest ~has =
  if has then
    if advertised_as peer dest t.ex_target then false
    else begin
      send_advert t peer dest t.ex_target;
      true
    end
  else if is_advertised peer dest then begin
    send_withdraw t peer dest;
    t.config.Config.mrai_on_withdrawals
  end
  else false

let flush_dest t peer dest =
  prepare_export t dest;
  flush_target t peer dest ~has:(has_target t peer)

(* Mark [dest] pending towards [peer], remembering when it became
   MRAI-eligible and which event made it so (for the Mrai_flush trace
   event recorded at timer expiry). *)
let pend t peer dest = Dest_map.set peer.pending dest t.cur_cause (Sched.now t.sched)

(* About to flush [dest] at timer expiry: record the Mrai_flush event and
   make it the cause of the updates the flush emits. *)
let set_flush_cause t peer dest ~ready ~cause =
  match t.tracer with
  | Some tr ->
    t.cur_cause <- tr.on_mrai_flush ~router:t.id ~peer:peer.peer_id ~dest ~ready ~cause
  | None -> ()

let rec start_timer t peer =
  let interval = effective_interval t peer in
  if interval > 0.0 then begin
    peer.timer_running <- true;
    let ev = Sched.schedule t.sched ~delay:interval (fun () -> on_peer_timer t peer) in
    peer.timer_event <- Some ev
  end

and on_peer_timer t peer =
  peer.timer_running <- false;
  peer.timer_event <- None;
  if (not t.failed) && peer.up then begin
    (* Flushed in ascending destination order, the map's own order.  A
       flush only sends (delivery goes through the scheduler), so the
       map is not touched while it is walked. *)
    let pending = peer.pending in
    Dest_map.clear peer.flaps;
    let sent = ref false in
    for i = 0 to Dest_map.length pending - 1 do
      let d = Dest_map.key pending i in
      set_flush_cause t peer d ~ready:(Dest_map.time pending i)
        ~cause:(Dest_map.value pending i);
      if flush_dest t peer d then sent := true
    done;
    Dest_map.clear pending;
    if !sent then start_timer t peer
  end

let rec start_dest_timer t peer dest =
  let interval = effective_interval t peer in
  if interval > 0.0 then begin
    let ev =
      Sched.schedule t.sched ~delay:interval (fun () -> on_dest_timer t peer dest)
    in
    Dest_map.set peer.dest_timers dest ev 0.0
  end

and on_dest_timer t peer dest =
  Dest_map.remove peer.dest_timers dest;
  if (not t.failed) && peer.up then begin
    let i = Dest_map.find peer.pending dest in
    if i >= 0 then begin
      let ready = Dest_map.time peer.pending i and cause = Dest_map.value peer.pending i in
      Dest_map.remove peer.pending dest;
      Dest_map.remove peer.flaps dest;
      set_flush_cause t peer dest ~ready ~cause;
      if flush_dest t peer dest then start_dest_timer t peer dest
    end
  end

let after_send t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> start_timer t peer
  | Config.Per_dest -> start_dest_timer t peer dest

(* Cancel whichever timer currently gates exports of [dest] to [peer]
   (Deshpande-Sikdar "cancel the running MRAI timer"). *)
let cancel_gate_timer t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> (
    match peer.timer_event with
    | Some ev ->
      Sched.cancel t.sched ev;
      peer.timer_event <- None;
      peer.timer_running <- false
    | None -> ())
  | Config.Per_dest ->
    let i = Dest_map.find peer.dest_timers dest in
    if i >= 0 then begin
      Sched.cancel t.sched (Dest_map.value peer.dest_timers i);
      Dest_map.remove peer.dest_timers dest
    end

(* Deshpande-Sikdar method 1: is the new export strictly better than what
   the peer currently holds? *)
let is_improvement peer dest path =
  let held = advertised peer dest in
  held == unset || path_length path < path_length held

let bump_flaps peer dest =
  let i = Dest_map.find peer.flaps dest in
  let count = if i >= 0 then Dest_map.value peer.flaps i + 1 else 1 in
  Dest_map.set peer.flaps dest count 0.0;
  count

(* A route change for [dest] happened: decide what (if anything) to tell
   [peer], applying the MRAI gate (and any configured bypass).  The
   export context must be prepared for [dest]. *)
let schedule_export t peer dest =
  if peer.up then
    if has_target t peer then begin
      let path = t.ex_target in
      if advertised_as peer dest path then Dest_map.remove peer.pending dest
      else if timer_idle t peer dest then begin
        ignore (flush_target t peer dest ~has:true);
        after_send t peer dest
      end
      else begin
        let flap_count = bump_flaps peer dest in
        match t.config.Config.mrai_bypass with
        | Config.No_bypass -> pend t peer dest
        | Config.Cancel_on_improvement ->
          if is_improvement peer dest path then begin
            cancel_gate_timer t peer dest;
            Dest_map.remove peer.pending dest;
            ignore (flush_target t peer dest ~has:true);
            after_send t peer dest
          end
          else pend t peer dest
        | Config.Flap_threshold k ->
          if flap_count < k then begin
            (* Below the flap threshold the MRAI is not applied to this
               destination: the update goes out immediately and the gate
               timer is left untouched. *)
            Dest_map.remove peer.pending dest;
            ignore (flush_target t peer dest ~has:true)
          end
          else pend t peer dest
      end
    end
    else if is_advertised peer dest then begin
      if t.config.Config.mrai_on_withdrawals then begin
        if timer_idle t peer dest then begin
          ignore (flush_target t peer dest ~has:false);
          after_send t peer dest
        end
        else pend t peer dest
      end
      else begin
        (* RFC behaviour: withdrawals are not rate-limited. *)
        Dest_map.remove peer.pending dest;
        send_withdraw t peer dest
      end
    end
    else Dest_map.remove peer.pending dest

let export_to_all t dest =
  let peers = t.peers in
  for i = 0 to Array.length peers - 1 do
    schedule_export t peers.(i) dest
  done

(* Paper Section 5 "future work": apply a dynamic level change to running
   timers immediately (re-armed with the new interval from now) instead of
   waiting for their natural restart. *)
let rearm_running_timers t =
  let level = Mrai.level t.ebgp_controller in
  if level <> t.last_level then begin
    t.last_level <- level;
    if t.config.Config.dynamic_restart_timers then
      Array.iter
        (fun peer ->
          if peer.up && peer.kind = Ebgp then
            match t.config.Config.mrai_mode with
            | Config.Per_peer ->
              if peer.timer_running then begin
                (match peer.timer_event with
                | Some ev -> Sched.cancel t.sched ev
                | None -> ());
                peer.timer_event <- None;
                peer.timer_running <- false;
                start_timer t peer
              end
            | Config.Per_dest ->
              let timers = peer.dest_timers in
              let dests = List.init (Dest_map.length timers) (Dest_map.key timers) in
              List.iter
                (fun d ->
                  Sched.cancel t.sched (Dest_map.value timers (Dest_map.find timers d));
                  Dest_map.remove timers d;
                  start_dest_timer t peer d)
                dests)
        t.peers
  end

let reconsider t dest =
  if Rib.decide t.rib dest then begin
    t.rib_changes <- t.rib_changes + 1;
    (match t.on_rib_change with
    | Some f -> f dest (Sched.now t.sched)
    | None -> ());
    activity t;
    forget_prepended t dest;
    prepare_export t dest;
    export_to_all t dest
  end

(* --- Flap damping (RFC 2439) -------------------------------------------- *)

(* A suppressed route is parked instead of installed; when its penalty
   decays below the reuse threshold it is installed as if freshly
   received. *)
let rec schedule_reuse_check t damping ~src ~dest =
  match Damping.reuse_time damping ~peer:src ~dest ~now:(Sched.now t.sched) with
  | None -> ()
  | Some time ->
    let delay = Float.max 0.001 (time -. Sched.now t.sched) in
    ignore
      (Sched.schedule t.sched ~delay (fun () ->
           if not t.failed then
             match find_peer t src with
             | i when i >= 0 && t.peers.(i).up ->
               if Damping.is_suppressed damping ~peer:src ~dest ~now:(Sched.now t.sched)
               then schedule_reuse_check t damping ~src ~dest
               else begin
                 match Hashtbl.find_opt t.parked (src, dest) with
                 | Some (kind, path, cause) ->
                   Hashtbl.remove t.parked (src, dest);
                   Rib.set_in t.rib dest ~peer:src ~kind path;
                   (* The reuse timer fires on penalty decay, but the
                      announcement it releases was caused by the update
                      whose processing parked the route — thread that
                      cause through so damped paths attribute end to
                      end. *)
                   t.cur_cause <- cause;
                   reconsider t dest;
                   activity t
                 | None -> ()
               end
             | _ -> ()))

let apply_update_with_damping t damping peer ~src update =
  let now = Sched.now t.sched in
  match update with
  | Withdraw dest ->
    Damping.record_flap damping ~peer:src ~dest ~now ~kind:`Withdraw;
    Hashtbl.remove t.parked (src, dest);
    Rib.withdraw_in t.rib dest ~peer:src
  | Advertise { dest; path } ->
    Damping.record_flap damping ~peer:src ~dest ~now ~kind:`Update;
    if path_contains path t.asn then begin
      Hashtbl.remove t.parked (src, dest);
      Rib.withdraw_in t.rib dest ~peer:src
    end
    else if Damping.is_suppressed damping ~peer:src ~dest ~now then begin
      Hashtbl.replace t.parked (src, dest) (peer.kind, path, t.cur_cause);
      Rib.withdraw_in t.rib dest ~peer:src;
      schedule_reuse_check t damping ~src ~dest
    end
    else begin
      Hashtbl.remove t.parked (src, dest);
      Rib.set_in t.rib dest ~peer:src ~kind:peer.kind ?rel:peer.peer_rel path
    end

(* --- Input queue and processing ---------------------------------------- *)

let handle_work t ~src work =
  match work with
  | Update_msg update ->
    let i = find_peer t src in
    if i >= 0 then begin
      let peer = t.peers.(i) in
      if peer.up then begin
        (match t.damping with
        | Some damping -> apply_update_with_damping t damping peer ~src update
        | None -> (
          match update with
          | Advertise { dest; path } ->
            if path_contains path t.asn then
              (* Receiver-side loop detection: treat as implicit withdraw. *)
              Rib.withdraw_in t.rib dest ~peer:src
            else
              Rib.set_in t.rib dest ~peer:src ~kind:peer.kind ?rel:peer.peer_rel
                path
          | Withdraw dest -> Rib.withdraw_in t.rib dest ~peer:src));
        reconsider t (update_dest update)
      end
    end
  | Peer_down_msg ->
    (* Parked (suppressed) routes from the dead peer must go too; collect
       the stale keys first (mutating under iteration is unspecified)
       rather than copying the whole table. *)
    let stale =
      Hashtbl.fold
        (fun ((from, _) as k) _ acc -> if from = src then k :: acc else acc)
        t.parked []
    in
    List.iter (Hashtbl.remove t.parked) stale;
    let affected = Rib.drop_peer t.rib ~peer:src in
    List.iter (reconsider t) (List.sort Int.compare affected)
  | Peer_up_msg ->
    let i = find_peer t src in
    if i >= 0 then begin
      let peer = t.peers.(i) in
      if peer.up then begin
        (* Session re-establishment: both sides start from a clean slate
           (whatever survived the down/up race is dropped) and re-announce
           their full table, exactly like a real BGP session reset.  The
           Adj-RIB-Out towards the peer was cleared at [peer_up] time, so
           every current best route exports as a fresh advertisement,
           gated by the MRAI as usual. *)
        let stale =
          Hashtbl.fold
            (fun ((from, _) as k) _ acc -> if from = src then k :: acc else acc)
            t.parked []
        in
        List.iter (Hashtbl.remove t.parked) stale;
        let affected = Rib.drop_peer t.rib ~peer:src in
        List.iter (reconsider t) (List.sort Int.compare affected);
        let dests = ref [] in
        Rib.iter_dests t.rib (fun d -> dests := d :: !dests);
        List.iter
          (fun d ->
            prepare_export t d;
            schedule_export t peer d)
          (List.sort Int.compare !dests)
      end
    end

let rec begin_next t =
  if Iq.is_empty t.input then t.busy <- false
  else begin
    t.busy <- true;
    t.work <- Iq.take t.input;
    let delay = Dist.sample t.config.Config.processing_delay t.rng in
    Float.Array.set t.delay 0 delay;
    ignore (Sched.schedule t.sched ~delay t.complete_cb)
  end

and complete t =
  if not t.failed then begin
    let delay = Float.Array.get t.delay 0 in
    let src = Iq.last_src t.input and work = t.work in
    t.work <- Peer_down_msg;
    if t.adaptive then begin
      roll_window t;
      t.busy_in_window <- t.busy_in_window +. delay
    end;
    t.msgs_processed <- t.msgs_processed + 1;
    (match t.tracer with
    | Some tr ->
      t.cur_cause <-
        tr.on_processed ~router:t.id ~src ~dest:(Iq.last_dest t.input)
          ~enqueued:(Iq.last_enqueued t.input)
          ~started:(Sched.now t.sched -. delay)
          ~cause:(Iq.last_cause t.input)
    | None -> ());
    handle_work t ~src work;
    observe_load t;
    if t.adaptive then rearm_running_timers t;
    activity t;
    begin_next t
  end

let enqueue t ?(cause = -1) ~src ~dest work =
  if not t.failed then begin
    if t.adaptive then begin
      roll_window t;
      (match work with
      | Update_msg _ -> t.msgs_in_window <- t.msgs_in_window + 1
      | _ -> ())
    end;
    Iq.add t.input ~src ~dest ~cause ~enqueued:(Sched.now t.sched) work;
    observe_load t;
    if t.adaptive then rearm_running_timers t;
    if not t.busy then begin_next t
  end

(* Every path the router keeps: the roots of its share of the path
   table's sweep. *)
let iter_paths t f =
  Rib.iter_paths t.rib f;
  Array.iter (fun peer -> Array.iter (fun p -> if p != unset then f p) peer.advertised) t.peers;
  Hashtbl.iter (fun _ (_, p, _) -> f p) t.parked

let create ~sched ~rng ~paths ~config ~id ~asn ~degree ?tracer cb =
  let t = make ~sched ~rng ~paths ~config ~id ~asn ~degree ?tracer cb in
  t.complete_cb <- (fun () -> complete t);
  Path.add_roots paths (iter_paths t);
  t

let receive t ?cause ~src update =
  enqueue t ?cause ~src ~dest:(update_dest update) (Update_msg update)

let cancel_peer_timers t peer =
  (match peer.timer_event with
  | Some ev ->
    Sched.cancel t.sched ev;
    peer.timer_event <- None;
    peer.timer_running <- false
  | None -> ());
  for i = 0 to Dest_map.length peer.dest_timers - 1 do
    Sched.cancel t.sched (Dest_map.value peer.dest_timers i)
  done;
  Dest_map.clear peer.dest_timers

let peer_down t ?cause peer_id =
  let i = find_peer t peer_id in
  if (not t.failed) && i >= 0 then begin
    let peer = t.peers.(i) in
    if peer.up then begin
      peer.up <- false;
      cancel_peer_timers t peer;
      Dest_map.clear peer.pending;
      Dest_map.clear peer.flaps;
      enqueue t ?cause ~src:peer_id ~dest:(-1) Peer_down_msg
    end
  end

let peer_up t ?cause peer_id =
  let i = find_peer t peer_id in
  if (not t.failed) && i >= 0 then begin
    let peer = t.peers.(i) in
    if not peer.up then begin
      peer.up <- true;
      (* Forget the Adj-RIB-Out now: the peer lost everything we ever
         sent when its side processed the session drop, so the re-sync
         (the queued [Peer_up_msg]) must re-advertise from scratch. *)
      peer.advertised <- [||];
      Dest_map.clear peer.pending;
      Dest_map.clear peer.flaps;
      enqueue t ?cause ~src:peer_id ~dest:(-1) Peer_up_msg
    end
  end

let start t =
  List.iter
    (fun dest ->
      Rib.originate t.rib dest;
      reconsider t dest)
    (Config.dests_of_as t.config ~asn:t.asn)

(* Churn entry points: a locally-originated prefix comes or goes at the
   current simulated time, threaded through the normal decision process
   (so exports, MRAI pacing and tracing behave exactly as for a learned
   route change).  [cause] is the Trace.Fault root the churn installer
   recorded for this op. *)
let announce_origin t ?(cause = -1) dest =
  if not t.failed then begin
    t.cur_cause <- cause;
    Rib.originate t.rib dest;
    reconsider t dest;
    t.cur_cause <- -1
  end

let withdraw_origin t ?(cause = -1) dest =
  if not t.failed then begin
    t.cur_cause <- cause;
    Rib.unoriginate t.rib dest;
    reconsider t dest;
    t.cur_cause <- -1
  end

let warm_install t ~dest ~local ~entries ~advertised =
  if local then Rib.originate t.rib dest;
  List.iter (fun (peer, kind, path) -> Rib.set_in t.rib dest ~peer ~kind path) entries;
  ignore (Rib.decide t.rib dest);
  forget_prepended t dest;
  List.iter
    (fun (peer_id, path) ->
      let i = find_peer t peer_id in
      if i < 0 then invalid_arg "Router.warm_install: unknown peer";
      set_advertised t.peers.(i) dest path)
    advertised

let advertised_to t ~peer dest =
  let i = find_peer t peer in
  if i < 0 then None
  else
    let held = advertised t.peers.(i) dest in
    if held == unset then None else Some held

let fail t =
  if not t.failed then begin
    t.failed <- true;
    t.busy <- false;
    t.work <- Peer_down_msg;
    Iq.clear t.input;
    Array.iter (fun peer -> cancel_peer_timers t peer) t.peers
  end

(* --- Inspection --------------------------------------------------------- *)

let best_path_to t dest = Rib.best_path t.rib dest
let max_unfinished_work t = t.max_unfinished_work

(* Point-in-time probe readouts (telemetry samplers). *)
let unfinished_work t = float_of_int (Iq.length t.input) *. t.mean_proc
let mrai_level t = Mrai.level t.ebgp_controller
let mrai_transitions t = Mrai.transitions t.ebgp_controller
let rib_size t = Rib.loc_size t.rib
let rib_changes t = t.rib_changes

let next_hop t dest =
  match Rib.best t.rib dest with
  | None -> None
  | Some Rib.Local -> Some t.id
  | Some (Rib.Learned e) -> Some e.peer

type metrics = {
  adverts_sent : int;
  withdrawals_sent : int;
  msgs_processed : int;
  eliminated : int;
  max_queue : int;
  mrai_transitions : int;
  mrai_level : int;
  damping_suppressions : int;
}

let metrics (t : t) =
  {
    adverts_sent = t.adverts_sent;
    withdrawals_sent = t.withdrawals_sent;
    msgs_processed = t.msgs_processed;
    eliminated = Iq.eliminated t.input;
    max_queue = Iq.max_length t.input;
    mrai_transitions = Mrai.transitions t.ebgp_controller;
    mrai_level = Mrai.level t.ebgp_controller;
    damping_suppressions =
      (match t.damping with None -> 0 | Some d -> Damping.suppressions d);
  }
