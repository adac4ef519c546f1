open Types
module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Dist = Bgp_engine.Dist
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Damping = Bgp_core.Damping

type peer_state = {
  peer_id : router_id;
  peer_as : as_id;
  kind : session_kind;
  peer_rel : relationship option;
  controller : Mrai.t;
  mutable up : bool;
  (* Per-peer MRAI mode: the running timer's event, [Sched.no_event]
     when idle. *)
  mutable timer_event : Sched.event_id;
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
      (* route changes since the last paced flush; kept only under the
         Flap_threshold bypass, the one reader *)
}

type callbacks = {
  send : src:router_id -> dst:router_id -> dest -> path -> unit;
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
  (* Queued messages: the advertised path, or one of the sentinels
     [withdrawal], [peer_down_work], [peer_up_work]. *)
  input : path Iq.t;
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
     [input] until the next take.  [Path.empty] when idle. *)
  mutable work : path;
  delay : Float.Array.t;  (* its sampled processing delay, unboxed *)
  mutable complete_cb : unit -> unit;  (* [complete t], allocated once *)
  (* MRAI expiry handlers, allocated once: the argument is the peer's
     index in [peers] (per-peer timers) or [dest * |peers| + index]
     (per-destination timers). *)
  mutable peer_timer_h : int -> unit;
  mutable dest_timer_h : int -> unit;
  (* Export context of the selection being exported, set by
     [prepare_export]: the destination and its Loc-RIB selection key and
     path. *)
  mutable ex_dest : dest;
  mutable ex_key : int;
  mutable ex_path : path;
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
  busy_in_window : Float.Array.t;  (* one element, unboxed *)
  mutable msgs_in_window : int;
  mutable last_utilization : float;
  mutable last_msgs_in_window : int;
  load : Mrai.load;  (* the snapshot [observe_load] refreshes in place *)
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
  let mean_proc = Dist.mean config.Config.processing_delay in
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
    mean_proc;
    adaptive = Mrai.is_adaptive ebgp_controller;
    cb;
    tracer;
    cur_cause = -1;
    work = Path.empty;
    delay = Float.Array.make 1 0.0;
    complete_cb = ignore;
    peer_timer_h = ignore;
    dest_timer_h = ignore;
    ex_dest = -1;
    ex_key = Rib.no_selection;
    ex_path = Path.empty;
    ex_target = Path.empty;
    prepended = [||];
    busy = false;
    failed = false;
    last_level = 0;
    damping = Option.map Damping.create config.Config.damping;
    parked = Hashtbl.create 16;
    window_start = 0.0;
    busy_in_window = Float.Array.make 1 0.0;
    msgs_in_window = 0;
    last_utilization = 0.0;
    last_msgs_in_window = 0;
    load =
      {
        Mrai.now = 0.0;
        queue_length = 0;
        mean_processing_delay = mean_proc;
        utilization = 0.0;
        updates_in_window = 0;
      };
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

(* The slot of peer [id] in [t.peers], or -1.  A loop, not a local
   recursive function: that would allocate its closure on every call. *)
let find_peer t id =
  let peers = t.peers in
  let lo = ref 0 and hi = ref (Array.length peers - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let p = peers.(mid).peer_id in
    if p = id then found := mid else if p < id then lo := mid + 1 else hi := mid - 1
  done;
  !found

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
      timer_event = Sched.no_event;
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

(* Sentinel paths: nodes of a private table, so no route ever holds one
   and [==] tells them apart from every real path.  [unset] marks an
   absent entry in the Adj-RIB-Out and prepend arrays; the other three
   are input-queue payloads that carry no path. *)
let sentinels = Path.create_table ()
let unset = Path.cons sentinels 0 Path.empty
let withdrawal = Path.cons sentinels 1 Path.empty
let peer_down_work = Path.cons sentinels 2 Path.empty
let peer_up_work = Path.cons sentinels 3 Path.empty

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
      t.last_utilization <- Float.min 1.0 (Float.Array.get t.busy_in_window 0 /. w);
      t.last_msgs_in_window <- t.msgs_in_window
    end
    else begin
      (* We skipped at least one whole window: the router was idle. *)
      t.last_utilization <- 0.0;
      t.last_msgs_in_window <- 0
    end;
    Float.Array.set t.busy_in_window 0 0.0;
    t.msgs_in_window <- 0;
    t.window_start <- now -. Float.rem elapsed w
  end

let observe_load t =
  let work = float_of_int (Iq.length t.input) *. t.mean_proc in
  if work > t.max_unfinished_work then t.max_unfinished_work <- work;
  if t.adaptive then begin
    let load = t.load in
    load.Mrai.now <- Sched.now t.sched;
    load.queue_length <- Iq.length t.input;
    load.utilization <- t.last_utilization;
    load.updates_in_window <- t.last_msgs_in_window;
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
  t.cb.send ~src:t.id ~dst:peer.peer_id dest path;
  activity t

let send_withdraw t peer dest =
  t.withdrawals_sent <- t.withdrawals_sent + 1;
  set_advertised peer dest unset;
  t.cb.send ~src:t.id ~dst:peer.peer_id dest withdrawal;
  activity t

(* Load the export context for [dest]'s current selection. *)
let prepare_export t dest =
  t.ex_dest <- dest;
  t.ex_key <- Rib.selection_key t.rib dest;
  t.ex_path <- Rib.selection_path t.rib dest

(* The Loc-RIB selection of [dest] changed: its prepend is stale. *)
let forget_prepended t dest =
  if dest < Array.length t.prepended then t.prepended.(dest) <- unset

(* The path [peer] is sent for the prepared selection; the eBGP prepend
   is consed on first use after a selection change. *)
let sent_path t peer =
  match peer.kind with
  | Ibgp -> t.ex_path
  | Ebgp ->
    let dest = t.ex_dest in
    let cached = lookup t.prepended dest in
    if cached != unset then cached
    else begin
      let p = Path.cons t.paths t.asn t.ex_path in
      t.prepended <- reserve t.prepended dest;
      t.prepended.(dest) <- p;
      p
    end

(* What should [peer] currently be told about the prepared destination?
   [Export.target] without the option box and with the prepend shared
   across peers: [true] iff something is to be advertised, and then
   [ex_target] is the path. *)
let has_target t peer =
  if t.ex_key = Rib.no_selection then false
  else if not (Export.passes_key ~peer_kind:peer.kind ?peer_rel:peer.peer_rel t.ex_key) then
    false
  else begin
    let path = sent_path t peer in
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
  | Config.Per_peer -> (peer.timer_event :> int) < 0
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

(* [index] is [peer]'s slot in [t.peers]. *)
let start_timer t peer index =
  let interval = effective_interval t peer in
  if interval > 0.0 then
    peer.timer_event <- Sched.schedule_arg t.sched ~delay:interval t.peer_timer_h index

let on_peer_timer t index =
  let peer = t.peers.(index) in
  peer.timer_event <- Sched.no_event;
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
    if !sent then start_timer t peer index
  end

let start_dest_timer t peer index dest =
  let interval = effective_interval t peer in
  if interval > 0.0 then begin
    let arg = (dest * Array.length t.peers) + index in
    let ev = Sched.schedule_arg t.sched ~delay:interval t.dest_timer_h arg in
    Dest_map.set peer.dest_timers dest ev 0.0
  end

let on_dest_timer t arg =
  let n = Array.length t.peers in
  let index = arg mod n and dest = arg / n in
  let peer = t.peers.(index) in
  Dest_map.remove peer.dest_timers dest;
  if (not t.failed) && peer.up then begin
    let i = Dest_map.find peer.pending dest in
    if i >= 0 then begin
      let ready = Dest_map.time peer.pending i and cause = Dest_map.value peer.pending i in
      Dest_map.remove peer.pending dest;
      Dest_map.remove peer.flaps dest;
      set_flush_cause t peer dest ~ready ~cause;
      if flush_dest t peer dest then start_dest_timer t peer index dest
    end
  end

let after_send t peer index dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> start_timer t peer index
  | Config.Per_dest -> start_dest_timer t peer index dest

(* Cancel whichever timer currently gates exports of [dest] to [peer]
   (Deshpande-Sikdar "cancel the running MRAI timer"). *)
let cancel_gate_timer t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer ->
    if (peer.timer_event :> int) >= 0 then begin
      Sched.cancel t.sched peer.timer_event;
      peer.timer_event <- Sched.no_event
    end
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
   [peer] (slot [index] of [t.peers]), applying the MRAI gate (and any
   configured bypass).  The export context must be prepared for [dest]. *)
let schedule_export t peer index dest =
  if peer.up then
    if has_target t peer then begin
      let path = t.ex_target in
      if advertised_as peer dest path then Dest_map.remove peer.pending dest
      else if timer_idle t peer dest then begin
        ignore (flush_target t peer dest ~has:true);
        after_send t peer index dest
      end
      else begin
        match t.config.Config.mrai_bypass with
        | Config.No_bypass -> pend t peer dest
        | Config.Cancel_on_improvement ->
          if is_improvement peer dest path then begin
            cancel_gate_timer t peer dest;
            Dest_map.remove peer.pending dest;
            ignore (flush_target t peer dest ~has:true);
            after_send t peer index dest
          end
          else pend t peer dest
        | Config.Flap_threshold k ->
          if bump_flaps peer dest < k then begin
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
          after_send t peer index dest
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
    schedule_export t peers.(i) i dest
  done

(* Paper Section 5 "future work": apply a dynamic level change to running
   timers immediately (re-armed with the new interval from now) instead of
   waiting for their natural restart. *)
let rearm_running_timers t =
  let level = Mrai.level t.ebgp_controller in
  if level <> t.last_level then begin
    t.last_level <- level;
    if t.config.Config.dynamic_restart_timers then
      Array.iteri
        (fun index peer ->
          if peer.up && peer.kind = Ebgp then
            match t.config.Config.mrai_mode with
            | Config.Per_peer ->
              if (peer.timer_event :> int) >= 0 then begin
                Sched.cancel t.sched peer.timer_event;
                peer.timer_event <- Sched.no_event;
                start_timer t peer index
              end
            | Config.Per_dest ->
              let timers = peer.dest_timers in
              let dests = List.init (Dest_map.length timers) (Dest_map.key timers) in
              List.iter
                (fun d ->
                  Sched.cancel t.sched (Dest_map.value timers (Dest_map.find timers d));
                  Dest_map.remove timers d;
                  start_dest_timer t peer index d)
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

let apply_update_with_damping t damping peer ~src dest path =
  let now = Sched.now t.sched in
  if path == withdrawal then begin
    Damping.record_flap damping ~peer:src ~dest ~now ~kind:`Withdraw;
    Hashtbl.remove t.parked (src, dest);
    Rib.withdraw_in t.rib dest ~peer:src
  end
  else begin
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
  end

(* --- Input queue and processing ---------------------------------------- *)

(* Process one queued message: [work] is the payload, [dest] its
   destination ([-1] for session work). *)
let handle_work t ~src ~dest work =
  if work == peer_down_work then begin
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
  end
  else if work == peer_up_work then begin
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
            schedule_export t peer i d)
          (List.sort Int.compare !dests)
      end
    end
  end
  else begin
    let i = find_peer t src in
    if i >= 0 then begin
      let peer = t.peers.(i) in
      if peer.up then begin
        (match t.damping with
        | Some damping -> apply_update_with_damping t damping peer ~src dest work
        | None ->
          if work == withdrawal then Rib.withdraw_in t.rib dest ~peer:src
          else if path_contains work t.asn then
            (* Receiver-side loop detection: treat as implicit withdraw. *)
            Rib.withdraw_in t.rib dest ~peer:src
          else Rib.set_in t.rib dest ~peer:src ~kind:peer.kind ?rel:peer.peer_rel work);
        reconsider t dest
      end
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
    let src = Iq.last_src t.input and dest = Iq.last_dest t.input and work = t.work in
    t.work <- Path.empty;
    if t.adaptive then begin
      roll_window t;
      Float.Array.set t.busy_in_window 0 (Float.Array.get t.busy_in_window 0 +. delay)
    end;
    t.msgs_processed <- t.msgs_processed + 1;
    (match t.tracer with
    | Some tr ->
      t.cur_cause <-
        tr.on_processed ~router:t.id ~src ~dest
          ~enqueued:(Iq.last_enqueued t.input)
          ~started:(Sched.now t.sched -. delay)
          ~cause:(Iq.last_cause t.input)
    | None -> ());
    handle_work t ~src ~dest work;
    observe_load t;
    if t.adaptive then rearm_running_timers t;
    activity t;
    begin_next t
  end

let enqueue t ?(cause = -1) ~src ~dest work =
  if not t.failed then begin
    if t.adaptive then begin
      roll_window t;
      if work != peer_down_work && work != peer_up_work then
        t.msgs_in_window <- t.msgs_in_window + 1
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
  t.peer_timer_h <- on_peer_timer t;
  t.dest_timer_h <- on_dest_timer t;
  Path.add_roots paths (iter_paths t);
  t

let receive_route t ?cause ~src dest path = enqueue t ?cause ~src ~dest path

let to_update dest path = if path == withdrawal then Withdraw dest else Advertise { dest; path }
let receive t ?cause ~src u =
  receive_route t ?cause ~src (update_dest u)
    (match u with Advertise a -> a.path | Withdraw _ -> withdrawal)

let cancel_peer_timers t peer =
  if (peer.timer_event :> int) >= 0 then begin
    Sched.cancel t.sched peer.timer_event;
    peer.timer_event <- Sched.no_event
  end;
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
      enqueue t ?cause ~src:peer_id ~dest:(-1) peer_down_work
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
         (the queued [peer_up_work]) must re-advertise from scratch. *)
      peer.advertised <- [||];
      Dest_map.clear peer.pending;
      Dest_map.clear peer.flaps;
      enqueue t ?cause ~src:peer_id ~dest:(-1) peer_up_work
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
    t.work <- Path.empty;
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
