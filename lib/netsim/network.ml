module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Failure = Bgp_topology.Failure
module Router = Bgp_proto.Router
module Types = Bgp_proto.Types

type detection = Link_signal | Hold_timer of Bgp_proto.Session.config

type config = {
  bgp : Bgp_proto.Config.t;
  link_delay : float;
  detection_delay : float;
  detection : detection;
  relationships : Relationships.t option;
  trace : Trace.t option;
  telemetry : Telemetry.config option;
}

let config_default bgp =
  {
    bgp;
    link_delay = 0.025;
    detection_delay = 0.025;
    detection = Link_signal;
    relationships = None;
    trace = None;
    telemetry = None;
  }

(* Mutable fault-layer state, absent unless {!enable_faults} was called.
   Every delivery-path hook fast-paths on [None]: same delay float, no
   extra RNG draws, no extra scheduled events — so a run with the
   injector disabled is bit-identical to one built before this layer
   existed (the goldens pin this).  Link keys are normalized (min, max)
   pairs: faults are symmetric, like the links themselves. *)
type fault_state = {
  fault_rng : Rng.t;  (* gray-link loss draws, injector-owned stream *)
  severed : (int * int, int) Hashtbl.t;
      (* link -> sever count; counted so overlapping faults (a partition
         and a session reset covering the same link) only restore the
         link when every fault holding it down has lifted *)
  link_factor : (int * int, float) Hashtbl.t;  (* delay multiplier; absent = 1.0 *)
  link_loss : (int * int, float) Hashtbl.t;  (* drop probability; absent = 0.0 *)
  skew : float array;  (* per-router receive-clock offset, seconds *)
  mutable n_lost : int;  (* messages dropped in flight (severed/gray/dead dst) *)
}

(* --- In-flight messages ---------------------------------------------------- *)

(* Update messages between send and delivery: a slab of parallel arrays
   with a free stack.  A delivery is a typed scheduler event whose
   argument is the slot, run by the network's one preallocated handler,
   so a message in flight costs no record and no closure.  A vacated
   slot's path is cleared, so the slab never keeps a delivered or dropped
   path alive.  The path is the advertised one, or [Router.withdrawal]. *)
type flights = {
  mutable f_src : int array;
  mutable f_dst : int array;
  mutable f_dest : int array;
  mutable f_path : Types.path array;
  mutable f_seq : int array;  (* per-source send sequence (sharded loss draws) *)
  mutable f_sent : int array;  (* Update_sent trace id, or [Trace.no_cause] *)
  mutable f_free : int array;  (* free slots, a stack *)
  mutable f_top : int;
}

let flights_create () =
  {
    f_src = [||];
    f_dst = [||];
    f_dest = [||];
    f_path = [||];
    f_seq = [||];
    f_sent = [||];
    f_free = [||];
    f_top = 0;
  }

let flights_grow fl =
  let cap = Array.length fl.f_src in
  let cap' = max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  fl.f_src <- extend fl.f_src 0;
  fl.f_dst <- extend fl.f_dst 0;
  fl.f_dest <- extend fl.f_dest 0;
  fl.f_path <- extend fl.f_path Bgp_proto.Path.empty;
  fl.f_seq <- extend fl.f_seq 0;
  fl.f_sent <- extend fl.f_sent 0;
  (* Every slot was in use (the stack was empty): push the new ones so
     the lowest index pops first. *)
  fl.f_free <- Array.init cap' (fun i -> cap' - 1 - i);
  fl.f_top <- cap' - cap

let flight_add fl ~src ~dst ~dest ~path ~seq ~sent =
  if fl.f_top = 0 then flights_grow fl;
  fl.f_top <- fl.f_top - 1;
  let i = fl.f_free.(fl.f_top) in
  fl.f_src.(i) <- src;
  fl.f_dst.(i) <- dst;
  fl.f_dest.(i) <- dest;
  fl.f_path.(i) <- path;
  fl.f_seq.(i) <- seq;
  fl.f_sent.(i) <- sent;
  i

let flight_release fl i =
  fl.f_path.(i) <- Bgp_proto.Path.empty;
  fl.f_free.(fl.f_top) <- i;
  fl.f_top <- fl.f_top + 1

(* --- Sharded execution state --------------------------------------------- *)

module Shard_exec = Bgp_engine.Shard_exec

(* A cross-shard (or, uniformly, any) update in flight.  [m_seq] is the
   per-source-router send sequence: together with the arrival time and the
   source router id it forms the delivery sort key, which depends only on
   what each router did — never on the shard layout — so the delivery
   schedule is bit-identical for any shard count. *)
type msg = {
  m_arrival : float;
  m_src : int;
  m_dst : int;
  m_seq : int;
  m_dest : int;
  m_path : Types.path;  (* or [Router.withdrawal] *)
  m_sent_id : int;  (* Update_sent trace id, or [Trace.no_cause] *)
}

let msg_compare a b =
  let c = Float.compare a.m_arrival b.m_arrival in
  if c <> 0 then c
  else
    let c = Int.compare a.m_src b.m_src in
    if c <> 0 then c else Int.compare a.m_seq b.m_seq

(* Everything one shard's domain owns: its scheduler (inside the
   executor), its path-interning table, its slice of the trace, its
   counters, and its replica of the fault tables.  Fault events are
   replicated into every shard's scheduler, so each replica of the
   severed/factor/loss/skew tables evolves identically — a sender can
   read delay factors and a receiver can read loss/sever state without
   ever crossing a domain boundary. *)
type shard_ctx = {
  sx : int;
  ssched : Sched.t;
  spaths : Bgp_proto.Path.table;
  strace : Trace.t option;
  mutable s_adverts : int;
  mutable s_withdrawals : int;
  mutable s_session_downs : int;
  mutable s_last_activity : float;
  mutable s_lost : int;
  mutable s_rep_events : int;  (* replicated fault events executed here *)
  s_flights : flights;  (* mailbox messages awaiting their delivery event *)
  s_severed : (int * int, int) Hashtbl.t;
  s_factor : (int * int, float) Hashtbl.t;
  s_loss : (int * int, float) Hashtbl.t;
  s_skew : float array;
}

type shard_state = {
  exec : msg Shard_exec.t;
  owner : int array;  (* router -> shard *)
  ctxs : shard_ctx array;
  (* Per-router trace-id and send-sequence counters.  Each slot is
     written only by its owner's domain (or the single-threaded
     orchestrator between phases). *)
  sid : int array;
  mseq : int array;
  lookahead : float;
  mutable deliver : int -> msg array -> unit;
  mutable faults_on : bool;
  mutable loss_salt : int64;
}

type t = {
  topo : Topology.t;
  config : config;
  sched : Sched.t;
  paths : Bgp_proto.Path.table;  (* per-run AS-path interning table *)
  routers : Router.t array;
  send : src:int -> dst:int -> Types.dest -> Types.path -> unit;  (* the routers' [send] *)
  detect_rng : Rng.t;  (* hold-timer detection sampling *)
  failed : bool array;
  sessions : (int * int * Types.session_kind) list;
  session_peers : int list array;  (* BGP session neighbours of each router *)
  mutable n_adverts : int;
  mutable n_withdrawals : int;
  mutable n_session_downs : int;
  mutable last_activity : float;
  mutable faults : fault_state option;
  shard : shard_state option;  (* present iff built by [build_sharded] *)
}

let link_key u v = if u <= v then (u, v) else (v, u)

let compute_sessions topo =
  let acc = ref [] in
  (* eBGP: one session per inter-AS physical link. *)
  Graph.fold_edges
    (fun u v () ->
      if Topology.is_ebgp topo u v then acc := (u, v, Types.Ebgp) :: !acc)
    topo.Topology.graph ();
  (* iBGP: full mesh inside each AS. *)
  for a = 0 to topo.Topology.n_ases - 1 do
    let members = Topology.routers_of_as topo a in
    let rec mesh = function
      | [] -> ()
      | u :: rest ->
        List.iter (fun v -> acc := (u, v, Types.Ibgp) :: !acc) rest;
        mesh rest
    in
    mesh members
  done;
  List.rev !acc

let sessions_of_topology = compute_sessions

let sum_metrics t =
  let zero =
    {
      Router.adverts_sent = 0;
      withdrawals_sent = 0;
      msgs_processed = 0;
      eliminated = 0;
      max_queue = 0;
      mrai_transitions = 0;
      mrai_level = 0;
      damping_suppressions = 0;
    }
  in
  Array.fold_left
    (fun (acc : Router.metrics) router ->
      if Router.is_failed router then acc
      else
        let m = Router.metrics router in
        {
          Router.adverts_sent = acc.adverts_sent + m.adverts_sent;
          withdrawals_sent = acc.withdrawals_sent + m.withdrawals_sent;
          msgs_processed = acc.msgs_processed + m.msgs_processed;
          eliminated = acc.eliminated + m.eliminated;
          max_queue = Stdlib.max acc.max_queue m.max_queue;
          mrai_transitions = acc.mrai_transitions + m.mrai_transitions;
          mrai_level = Stdlib.max acc.mrai_level m.mrai_level;
          damping_suppressions = acc.damping_suppressions + m.damping_suppressions;
        })
    zero t.routers

let build ~sched ~rng ~config ?telemetry topo =
  let n = Topology.num_routers topo in
  let sessions = compute_sessions topo in
  let session_peers = Array.make n [] in
  List.iter
    (fun (u, v, _) ->
      session_peers.(u) <- v :: session_peers.(u);
      session_peers.(v) <- u :: session_peers.(v))
    sessions;
  Array.iteri (fun i l -> session_peers.(i) <- List.sort Int.compare l) session_peers;
  let paths = Bgp_proto.Path.create_table () in
  let net =
    {
      topo;
      config;
      sched;
      paths;
      routers = [||];
      send = (fun ~src:_ ~dst:_ _ _ -> ());
      detect_rng = Rng.split rng;
      failed = Array.make n false;
      sessions;
      session_peers;
      n_adverts = 0;
      n_withdrawals = 0;
      n_session_downs = 0;
      last_activity = 0.0;
      faults = None;
      shard = None;
    }
  in
  let net = ref net in
  (* Per-message fault hooks.  With [faults = None] these reduce to the
     historical behaviour exactly: [config.link_delay] and a dead-dst
     check, no counter writes, no RNG draws. *)
  let delivery_delay nref ~src ~dst =
    match nref.faults with
    | None -> nref.config.link_delay
    | Some f ->
      let factor =
        match Hashtbl.find_opt f.link_factor (link_key src dst) with
        | Some x -> x
        | None -> 1.0
      in
      Float.max 1e-6 ((nref.config.link_delay *. factor) +. f.skew.(dst))
  in
  let deliverable nref ~src ~dst =
    match nref.faults with
    | None -> not nref.failed.(dst)
    | Some f ->
      let lost () =
        f.n_lost <- f.n_lost + 1;
        false
      in
      if nref.failed.(dst) then lost ()
      else if Hashtbl.mem f.severed (link_key src dst) then lost ()
      else (
        match Hashtbl.find_opt f.link_loss (link_key src dst) with
        | Some p when Rng.float f.fault_rng < p -> lost ()
        | Some _ | None -> true)
  in
  (* Causal-tracing hooks for the routers: record Processed / Mrai_flush
     events and hand back their ids so the router can stamp the exports
     they trigger.  Absent when tracing is off — the router then skips
     the hook calls entirely. *)
  let tracer =
    Option.map
      (fun trace ->
        {
          Router.on_processed =
            (fun ~router ~src ~dest ~enqueued ~started ~cause ->
              let id = Trace.fresh_id trace in
              Trace.record trace
                (Trace.Processed
                   { id; time = Sched.now sched; router; src; dest; enqueued; started; cause });
              id);
          on_mrai_flush =
            (fun ~router ~peer ~dest ~ready ~cause ->
              let id = Trace.fresh_id trace in
              Trace.record trace
                (Trace.Mrai_flush { id; time = Sched.now sched; router; peer; dest; ready; cause });
              id);
        })
      config.trace
  in
  (* Every send fills a flight slot and schedules [deliver] on it: one
     typed event per message, taking the scheduler sequence number the
     message's delivery has always taken, with tracing on or off. *)
  let flights = flights_create () in
  let deliver slot =
    let nref = !net in
    let src = flights.f_src.(slot) and dst = flights.f_dst.(slot) in
    let dest = flights.f_dest.(slot) and path = flights.f_path.(slot) in
    let sent_id = flights.f_sent.(slot) in
    flight_release flights slot;
    if deliverable nref ~src ~dst then
      match config.trace with
      | None -> Router.receive_route nref.routers.(dst) ~src dest path
      | Some trace ->
        let deliver_id = Trace.fresh_id trace in
        Trace.record trace
          (Trace.Update_delivered
             {
               id = deliver_id;
               time = Sched.now sched;
               src;
               dst;
               update = Router.to_update dest path;
               cause = sent_id;
             });
        Router.receive_route nref.routers.(dst) ~cause:deliver_id ~src dest path
  in
  let send ~src ~dst dest path =
    let nref = !net in
    if path == Router.withdrawal then nref.n_withdrawals <- nref.n_withdrawals + 1
    else nref.n_adverts <- nref.n_adverts + 1;
    let delay = delivery_delay nref ~src ~dst in
    let sent =
      match config.trace with
      | None -> Trace.no_cause
      | Some trace ->
        let sent_id = Trace.fresh_id trace in
        Trace.record trace
          (Trace.Update_sent
             {
               id = sent_id;
               time = Sched.now sched;
               src;
               dst;
               update = Router.to_update dest path;
               cause = Router.current_cause nref.routers.(src);
             });
        sent_id
    in
    let slot = flight_add flights ~src ~dst ~dest ~path ~seq:0 ~sent in
    ignore (Sched.schedule_arg sched ~delay deliver slot)
  in
  let cb =
    {
      Router.send;
      activity =
        (fun ~time ->
          let nref = !net in
          if time > nref.last_activity then nref.last_activity <- time);
    }
  in
  (* Build routers with their own RNG streams (stable under changes to
     other routers' draw counts). *)
  let routers =
    Array.init n (fun i ->
        let router_rng = Rng.split rng in
        Router.create ~sched ~rng:router_rng ~paths ~config:config.bgp ~id:i
          ~asn:topo.Topology.as_of_router.(i)
          ~degree:(Topology.inter_as_degree topo i)
          ?tracer cb)
  in
  net := { !net with routers; send };
  List.iter
    (fun (u, v, kind) ->
      let rel_of a b =
        match config.relationships with
        | None -> None
        | Some rels -> Relationships.relation rels ~from:a ~toward:b
      in
      Router.add_peer routers.(u) ~peer:v ~peer_as:topo.Topology.as_of_router.(v) ~kind
        ?relationship:(rel_of u v) ();
      Router.add_peer routers.(v) ~peer:u ~peer_as:topo.Topology.as_of_router.(u) ~kind
        ?relationship:(rel_of v u) ())
    sessions;
  (* Getter-backed metrics: registration stores one closure per name and
     reads happen only at snapshot time, so a registered-but-unread
     counter costs nothing during the run.  The closures read [!net],
     which aliases the record returned below. *)
  (match telemetry with
  | None -> ()
  | Some tele ->
    let reg name kind read = Telemetry.register tele ~name ~kind read in
    let sum m = float_of_int (m ()) in
    reg "net.adverts_sent" Telemetry.Counter (fun () -> sum (fun () -> !net.n_adverts));
    reg "net.withdrawals_sent" Telemetry.Counter (fun () ->
        sum (fun () -> !net.n_withdrawals));
    reg "net.messages_sent" Telemetry.Counter (fun () ->
        sum (fun () -> !net.n_adverts + !net.n_withdrawals));
    reg "net.session_downs" Telemetry.Counter (fun () ->
        sum (fun () -> !net.n_session_downs));
    let router_metric name kind pick =
      reg name kind (fun () ->
          let m = sum_metrics !net in
          float_of_int (pick m))
    in
    router_metric "router.msgs_processed" Telemetry.Counter (fun m ->
        m.Router.msgs_processed);
    router_metric "queue.eliminated" Telemetry.Counter (fun m -> m.Router.eliminated);
    router_metric "queue.max_depth" Telemetry.Gauge (fun m -> m.Router.max_queue);
    router_metric "mrai.transitions" Telemetry.Counter (fun m ->
        m.Router.mrai_transitions);
    router_metric "mrai.max_level" Telemetry.Gauge (fun m -> m.Router.mrai_level);
    router_metric "damping.suppressions" Telemetry.Counter (fun m ->
        m.Router.damping_suppressions);
    reg "sched.events" Telemetry.Gauge (fun () ->
        float_of_int (Sched.events_executed sched));
    reg "sched.time" Telemetry.Gauge (fun () -> Sched.now sched);
    reg "path.interned" Telemetry.Gauge (fun () ->
        float_of_int (Bgp_proto.Path.unique_count paths));
    reg "path.intern_hits" Telemetry.Counter (fun () ->
        float_of_int (Bgp_proto.Path.hit_count paths)));
  !net

let topology t = t.topo
let bgp_config t = t.config.bgp
let paths t = t.paths
let relationships t = t.config.relationships
let router t i = t.routers.(i)
let num_routers t = Array.length t.routers
let sessions t = t.sessions

let start_all t = Array.iter Router.start t.routers
let send_update t ~src ~dst dest path = t.send ~src ~dst dest path

(* How long a surviving session peer takes to notice a drop: via the link
   layer after a fixed delay, or when the BGP hold timer expires (sampled
   from the session timing model: jittered hold time minus the time
   already elapsed since the last keepalive). *)
let detection_sample t =
  match t.config.detection with
  | Link_signal -> t.config.detection_delay
  | Hold_timer session ->
    let hold =
      if session.Bgp_proto.Session.jitter then
        session.Bgp_proto.Session.hold_time *. Rng.uniform t.detect_rng ~lo:0.75 ~hi:1.0
      else session.Bgp_proto.Session.hold_time
    in
    let keepalive = session.Bgp_proto.Session.keepalive_fraction *. hold in
    let since_last_keepalive = Rng.uniform t.detect_rng ~lo:0.0 ~hi:keepalive in
    Float.max 0.001 (hold -. since_last_keepalive)

let inject_failure t failure =
  let n = num_routers t in
  (* Trace ids of the Router_failed events, so each surviving peer's
     Session_down can point at the failure that caused it. *)
  let fail_ids = Array.make n Trace.no_cause in
  for r = 0 to n - 1 do
    if Failure.is_failed failure r && not t.failed.(r) then begin
      t.failed.(r) <- true;
      (match t.config.trace with
      | Some trace ->
        let id = Trace.fresh_id trace in
        fail_ids.(r) <- id;
        Trace.record trace
          (Trace.Router_failed { id; time = Sched.now t.sched; router = r })
      | None -> ());
      Router.fail t.routers.(r)
    end
  done;
  let detection_sample () = detection_sample t in
  for r = 0 to n - 1 do
    if Failure.is_failed failure r then
      List.iter
        (fun peer ->
          if not t.failed.(peer) then
            ignore
              (Sched.schedule t.sched ~delay:(detection_sample ()) (fun () ->
                   if not t.failed.(peer) then begin
                     t.n_session_downs <- t.n_session_downs + 1;
                     match t.config.trace with
                     | Some trace ->
                       let down_id = Trace.fresh_id trace in
                       Trace.record trace
                         (Trace.Session_down
                            {
                              id = down_id;
                              time = Sched.now t.sched;
                              router = peer;
                              peer = r;
                              cause = fail_ids.(r);
                            });
                       Router.peer_down t.routers.(peer) ~cause:down_id r
                     | None -> Router.peer_down t.routers.(peer) r
                   end)))
        t.session_peers.(r)
  done

let inject_link_failures t links =
  List.iter
    (fun (u, v) ->
      let notify a b =
        if not t.failed.(a) then
          ignore
            (Sched.schedule t.sched ~delay:t.config.detection_delay (fun () ->
                 if not t.failed.(a) then begin
                   t.n_session_downs <- t.n_session_downs + 1;
                   match t.config.trace with
                   | Some trace ->
                     let down_id = Trace.fresh_id trace in
                     Trace.record trace
                       (Trace.Session_down
                          {
                            id = down_id;
                            time = Sched.now t.sched;
                            router = a;
                            peer = b;
                            cause = Trace.no_cause;
                          });
                     Router.peer_down t.routers.(a) ~cause:down_id b
                   | None -> Router.peer_down t.routers.(a) b
                 end))
      in
      notify u v;
      notify v u)
    links

(* --- Fault-injection hooks ---------------------------------------------- *)

let enable_faults t ~rng =
  match t.shard with
  | Some sh ->
    if sh.faults_on then invalid_arg "Network.enable_faults: already enabled";
    sh.faults_on <- true;
    (* One draw from the injector stream salts the hash-based gray-link
       loss decisions (see [loss_draw]); the hash replaces the sequential
       path's shared-RNG draws because those depend on global delivery
       order, which no shard can observe. *)
    sh.loss_salt <- Rng.int64 rng
  | None -> (
    match t.faults with
    | Some _ -> invalid_arg "Network.enable_faults: already enabled"
    | None ->
      t.faults <-
        Some
          {
            fault_rng = rng;
            severed = Hashtbl.create 16;
            link_factor = Hashtbl.create 16;
            link_loss = Hashtbl.create 16;
            skew = Array.make (Array.length t.routers) 0.0;
            n_lost = 0;
          })

let faults_enabled t =
  match t.shard with
  | Some sh -> sh.faults_on
  | None -> Option.is_some t.faults

let lost_messages t =
  match t.shard with
  | Some sh -> Array.fold_left (fun acc c -> acc + c.s_lost) 0 sh.ctxs
  | None -> ( match t.faults with None -> 0 | Some f -> f.n_lost)

let require_faults t =
  match t.faults with
  | Some f -> f
  | None -> invalid_arg "Network: call enable_faults before injecting faults"

let record_fault t ~label ~router ?(cause = Trace.no_cause) () =
  match t.config.trace with
  | None -> Trace.no_cause
  | Some trace ->
    let id = Trace.fresh_id trace in
    Trace.record trace (Trace.Fault { id; time = Sched.now t.sched; label; router; cause });
    id

let set_link_factor t ~u ~v factor =
  if factor <= 0.0 then invalid_arg "Network.set_link_factor: factor must be positive";
  let f = require_faults t in
  if factor = 1.0 then Hashtbl.remove f.link_factor (link_key u v)
  else Hashtbl.replace f.link_factor (link_key u v) factor

let set_link_loss t ~u ~v p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Network.set_link_loss: probability must be in [0, 1)";
  let f = require_faults t in
  if p = 0.0 then Hashtbl.remove f.link_loss (link_key u v)
  else Hashtbl.replace f.link_loss (link_key u v) p

let set_clock_skew t ~router skew =
  let f = require_faults t in
  f.skew.(router) <- skew

(* Session state transitions after the link layer notices, mirroring
   [inject_link_failures]: the affected router learns of the change
   [detection_delay] later and records the causal trace event then. *)
let notify_session t ~dir ~cause a b =
  if not t.failed.(a) then
    ignore
      (Sched.schedule t.sched ~delay:t.config.detection_delay (fun () ->
           if not t.failed.(a) then
             match dir with
             | `Down ->
               t.n_session_downs <- t.n_session_downs + 1;
               (match t.config.trace with
               | Some trace ->
                 let down_id = Trace.fresh_id trace in
                 Trace.record trace
                   (Trace.Session_down
                      { id = down_id; time = Sched.now t.sched; router = a; peer = b; cause });
                 Router.peer_down t.routers.(a) ~cause:down_id b
               | None -> Router.peer_down t.routers.(a) b)
             | `Up -> (
               match t.config.trace with
               | Some trace ->
                 let up_id = Trace.fresh_id trace in
                 Trace.record trace
                   (Trace.Session_up
                      { id = up_id; time = Sched.now t.sched; router = a; peer = b; cause });
                 Router.peer_up t.routers.(a) ~cause:up_id b
               | None -> Router.peer_up t.routers.(a) b)))

let sever_link ?(cause = Trace.no_cause) t ~u ~v =
  let f = require_faults t in
  let k = link_key u v in
  let count = Option.value ~default:0 (Hashtbl.find_opt f.severed k) in
  Hashtbl.replace f.severed k (count + 1);
  (* In-flight messages start dropping immediately; the routers only
     notice (and tear the session down) after the detection delay. *)
  if count = 0 then begin
    notify_session t ~dir:`Down ~cause u v;
    notify_session t ~dir:`Down ~cause v u
  end

let restore_link ?(cause = Trace.no_cause) t ~u ~v =
  let f = require_faults t in
  let k = link_key u v in
  match Hashtbl.find_opt f.severed k with
  | None -> ()
  | Some 1 ->
    Hashtbl.remove f.severed k;
    notify_session t ~dir:`Up ~cause u v;
    notify_session t ~dir:`Up ~cause v u
  | Some c -> Hashtbl.replace f.severed k (c - 1)

let cross_sessions t ~side =
  List.filter_map
    (fun (u, v, _) -> if side.(u) <> side.(v) then Some (u, v) else None)
    t.sessions

let is_failed t r = t.failed.(r)

let adverts_sent t =
  match t.shard with
  | Some sh -> Array.fold_left (fun acc c -> acc + c.s_adverts) 0 sh.ctxs
  | None -> t.n_adverts

let withdrawals_sent t =
  match t.shard with
  | Some sh -> Array.fold_left (fun acc c -> acc + c.s_withdrawals) 0 sh.ctxs
  | None -> t.n_withdrawals

let messages_sent t = adverts_sent t + withdrawals_sent t

let session_downs t =
  match t.shard with
  | Some sh -> Array.fold_left (fun acc c -> acc + c.s_session_downs) 0 sh.ctxs
  | None -> t.n_session_downs

let last_activity t =
  match t.shard with
  | Some sh -> Array.fold_left (fun acc c -> Float.max acc c.s_last_activity) 0.0 sh.ctxs
  | None -> t.last_activity

(* --- Telemetry probes ---------------------------------------------------- *)

let probe_tick ?time t tele =
  let rows = ref [] in
  for r = Array.length t.routers - 1 downto 0 do
    if not t.failed.(r) then begin
      let router = t.routers.(r) in
      rows :=
        {
          Telemetry.router = r;
          queue_len = Router.queue_length router;
          unfinished_work = Router.unfinished_work router;
          mrai_level = Router.mrai_level router;
          mrai_transitions = Router.mrai_transitions router;
          rib_size = Router.rib_size router;
          rib_changes = Router.rib_changes router;
        }
        :: !rows
    end
  done;
  let time = match time with Some x -> x | None -> Sched.now t.sched in
  Telemetry.record_tick tele ~time (Array.of_list !rows)

let start_probes t tele =
  let interval = (Telemetry.conf tele).Telemetry.probe_interval in
  (* Each probe re-arms only while other work remains: [Sched.step]
     removes the running event before its callback executes, so a probe
     firing into an otherwise-empty queue sees [pending = 0], records a
     final tick and stops — the queue drains and the runner's
     [converged = pending = 0] check is unaffected. *)
  let rec arm () =
    ignore
      (Sched.schedule t.sched ~delay:interval (fun () ->
           probe_tick t tele;
           if Sched.pending t.sched > 0 then arm ()))
  in
  arm ()

(* End-of-run memory snapshot for Telemetry.memory: fixed word-model
   estimates over entry counts, so the result is a pure function of
   simulated state (identical across jobs; see telemetry.mli).  Failed
   routers are included — their RIBs are still resident. *)
let memory_snapshot t =
  let shard_of r = match t.shard with None -> 0 | Some sh -> sh.owner.(r) in
  let k = match t.shard with None -> 1 | Some sh -> Array.length sh.ctxs in
  let routers = Array.make k 0 in
  let rib_entries = Array.make k 0 in
  let rib_bytes = Array.make k 0 in
  Array.iteri
    (fun r router ->
      let s = shard_of r in
      routers.(s) <- routers.(s) + 1;
      let rib = Router.rib router in
      rib_entries.(s) <- rib_entries.(s) + Bgp_proto.Rib.in_entries rib;
      rib_bytes.(s) <- rib_bytes.(s) + Bgp_proto.Rib.approx_bytes rib)
    t.routers;
  let path_stats =
    match t.shard with
    | None -> [| Bgp_proto.Path.table_stats t.paths |]
    | Some sh -> Array.map (fun c -> Bgp_proto.Path.table_stats c.spaths) sh.ctxs
  in
  let sched_stats =
    match t.shard with
    | None -> [| (Sched.max_live t.sched, Sched.slab_capacity t.sched) |]
    | Some sh ->
      Array.map (fun c -> (Sched.max_live c.ssched, Sched.slab_capacity c.ssched)) sh.ctxs
  in
  let per_shard =
    List.init k (fun s ->
        let ps = path_stats.(s) in
        let max_live, slab_cap = sched_stats.(s) in
        {
          Telemetry.shard = s;
          routers = routers.(s);
          rib_entries = rib_entries.(s);
          rib_bytes = rib_bytes.(s);
          path_nodes = ps.Bgp_proto.Path.nodes;
          path_bytes = ps.Bgp_proto.Path.approx_bytes;
          sched_max_live = max_live;
          sched_slab_cap = slab_cap;
        })
  in
  let traces =
    match t.shard with
    | None -> Option.to_list t.config.trace
    | Some sh -> List.filter_map (fun c -> c.strace) (Array.to_list sh.ctxs)
  in
  let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 traces in
  let path_nodes_total =
    Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.nodes) 0 path_stats
  in
  let path_hops_total =
    Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.hops_total) 0 path_stats
  in
  {
    Telemetry.per_shard;
    rib_bytes_total = Array.fold_left ( + ) 0 rib_bytes;
    path_bytes_total =
      Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.approx_bytes) 0 path_stats;
    path_sharing =
      (if path_nodes_total = 0 then 1.0
       else float_of_int path_hops_total /. float_of_int path_nodes_total);
    trace_len = sum Trace.length;
    trace_cap = sum Trace.capacity;
    trace_dropped = sum Trace.dropped;
    trace_spilled = sum Trace.spilled;
  }

let overloaded_routers t ~threshold =
  let acc = ref [] in
  for r = Array.length t.routers - 1 downto 0 do
    if (not t.failed.(r)) && Router.max_unfinished_work t.routers.(r) > threshold then
      acc := r :: !acc
  done;
  !acc

(* --- Sharded build and execution ----------------------------------------- *)

let require_shard t =
  match t.shard with
  | Some sh -> sh
  | None -> invalid_arg "Network: this operation needs a build_sharded network"

let is_sharded t = Option.is_some t.shard
let shard_count t = match t.shard with None -> 1 | Some sh -> Array.length sh.ctxs
let owner_of t r = (require_shard t).owner.(r)
let shard_sched t s = (require_shard t).ctxs.(s).ssched
let paths_for t r =
  match t.shard with
  | None -> t.paths
  | Some sh -> sh.ctxs.(sh.owner.(r)).spaths

let shard_traces t =
  List.filter_map (fun c -> c.strace) (Array.to_list (require_shard t).ctxs)

let shard_now t = Shard_exec.now (require_shard t).exec
let shard_pending t = Shard_exec.pending (require_shard t).exec
let shard_stats t = Shard_exec.stats (require_shard t).exec

(* Replicated fault events execute once per shard; normalize the event
   count so it reads as "events one sequential observer would have seen":
   subtract every shard's replicas, then count shard 0's once. *)
let note_replica t ~shard =
  let sh = require_shard t in
  sh.ctxs.(shard).s_rep_events <- sh.ctxs.(shard).s_rep_events + 1

let shard_events t =
  match t.shard with
  | None -> Sched.events_executed t.sched
  | Some sh ->
    let rep = Array.fold_left (fun acc c -> acc + c.s_rep_events) 0 sh.ctxs in
    Shard_exec.events_executed sh.exec - rep + sh.ctxs.(0).s_rep_events

let run_shards ?at_barrier t ~cap =
  let sh = require_shard t in
  Shard_exec.run_phase sh.exec ~lookahead:sh.lookahead ~cap ~deliver:sh.deliver
    ?at_barrier ()

(* Per-router strided trace ids: router [r]'s k-th event gets id
   [k * n + r].  Each router's ids are allocated by one domain in its
   deterministic execution order, distinct routers can never collide, and
   within one router allocation order is time order — so the merged
   (time, id) sort and the cause links are shard-count invariant. *)
let fresh_sid sh r =
  let n = Array.length sh.sid in
  let s = sh.sid.(r) in
  sh.sid.(r) <- s + 1;
  (s * n) + r

(* Hash-based gray-link loss: a pure function of (salt, src, dst, send
   seq), so the drop decision rides with the message instead of with a
   shared RNG whose draw order no shard can observe. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let loss_draw sh ~src ~dst ~seq =
  let h = mix64 (Int64.add sh.loss_salt (Int64.of_int src)) in
  let h = mix64 (Int64.add h (Int64.of_int dst)) in
  let h = mix64 (Int64.add h (Int64.of_int seq)) in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let deliverable_sharded t sh ctx ~src ~dst ~seq =
  if not sh.faults_on then not t.failed.(dst)
  else begin
    let lost () =
      ctx.s_lost <- ctx.s_lost + 1;
      false
    in
    if t.failed.(dst) then lost ()
    else if Hashtbl.mem ctx.s_severed (link_key src dst) then lost ()
    else (
      match Hashtbl.find_opt ctx.s_loss (link_key src dst) with
      | Some p when loss_draw sh ~src ~dst ~seq < p -> lost ()
      | Some _ | None -> true)
  end

let build_sharded ~shards ~owner ~lookahead ~rng ~config ?telemetry topo =
  if shards < 1 then invalid_arg "Network.build_sharded: shards must be >= 1";
  if lookahead <= 0.0 then invalid_arg "Network.build_sharded: lookahead must be positive";
  let n = Topology.num_routers topo in
  if Array.length owner <> n then
    invalid_arg "Network.build_sharded: owner array size mismatch";
  Array.iter
    (fun s ->
      if s < 0 || s >= shards then
        invalid_arg "Network.build_sharded: owner out of range")
    owner;
  let sessions = compute_sessions topo in
  let session_peers = Array.make n [] in
  List.iter
    (fun (u, v, _) ->
      session_peers.(u) <- v :: session_peers.(u);
      session_peers.(v) <- u :: session_peers.(v))
    sessions;
  Array.iteri (fun i l -> session_peers.(i) <- List.sort Int.compare l) session_peers;
  let exec = Shard_exec.create ~shards ~compare:msg_compare in
  let mk_trace () =
    Option.map (fun tr -> Trace.create ~capacity:(Trace.capacity tr) ()) config.trace
  in
  let ctxs =
    Array.init shards (fun sx ->
        {
          sx;
          ssched = Shard_exec.sched exec sx;
          spaths = Bgp_proto.Path.create_table ();
          strace = mk_trace ();
          s_adverts = 0;
          s_withdrawals = 0;
          s_session_downs = 0;
          s_last_activity = 0.0;
          s_lost = 0;
          s_rep_events = 0;
          s_flights = flights_create ();
          s_severed = Hashtbl.create 16;
          s_factor = Hashtbl.create 16;
          s_loss = Hashtbl.create 16;
          s_skew = Array.make n 0.0;
        })
  in
  let sh =
    {
      exec;
      owner = Array.copy owner;
      ctxs;
      sid = Array.make n 0;
      mseq = Array.make n 0;
      lookahead;
      deliver = (fun _ _ -> ());
      faults_on = false;
      loss_salt = 0L;
    }
  in
  let net =
    {
      topo;
      config;
      sched = ctxs.(0).ssched;
      paths = ctxs.(0).spaths;
      routers = [||];
      send = (fun ~src:_ ~dst:_ _ _ -> ());
      (* Same split order as [build]: detection stream first, then one
         stream per router in index order — so a router's RNG stream does
         not depend on the shard layout. *)
      detect_rng = Rng.split rng;
      failed = Array.make n false;
      sessions;
      session_peers;
      n_adverts = 0;
      n_withdrawals = 0;
      n_session_downs = 0;
      last_activity = 0.0;
      faults = None;
      shard = Some sh;
    }
  in
  let net = ref net in
  let tracers =
    Array.map
      (fun ctx ->
        Option.map
          (fun trace ->
            {
              Router.on_processed =
                (fun ~router ~src ~dest ~enqueued ~started ~cause ->
                  let id = fresh_sid sh router in
                  Trace.record trace
                    (Trace.Processed
                       {
                         id;
                         time = Sched.now ctx.ssched;
                         router;
                         src;
                         dest;
                         enqueued;
                         started;
                         cause;
                       });
                  id);
              on_mrai_flush =
                (fun ~router ~peer ~dest ~ready ~cause ->
                  let id = fresh_sid sh router in
                  Trace.record trace
                    (Trace.Mrai_flush
                       { id; time = Sched.now ctx.ssched; router; peer; dest; ready; cause });
                  id);
            })
          ctx.strace)
      ctxs
  in
  (* Every send — intra- or cross-shard — goes through the mailboxes, so
     delivery order is decided once, at the barrier, by the layout-free
     (arrival, src router, send seq) key. *)
  let send ~src ~dst dest path =
    let ctx = ctxs.(sh.owner.(src)) in
    if path == Router.withdrawal then ctx.s_withdrawals <- ctx.s_withdrawals + 1
    else ctx.s_adverts <- ctx.s_adverts + 1;
    let factor =
      match Hashtbl.find_opt ctx.s_factor (link_key src dst) with
      | Some x -> x
      | None -> 1.0
    in
    let delay = Float.max 1e-6 ((config.link_delay *. factor) +. ctx.s_skew.(dst)) in
    let seq = sh.mseq.(src) in
    sh.mseq.(src) <- seq + 1;
    let sent_id =
      match ctx.strace with
      | None -> Trace.no_cause
      | Some trace ->
        let id = fresh_sid sh src in
        Trace.record trace
          (Trace.Update_sent
             {
               id;
               time = Sched.now ctx.ssched;
               src;
               dst;
               update = Router.to_update dest path;
               cause = Router.current_cause !net.routers.(src);
             });
        id
    in
    Shard_exec.post exec ~src:(sh.owner.(src)) ~dst:(sh.owner.(dst))
      {
        m_arrival = Sched.now ctx.ssched +. delay;
        m_src = src;
        m_dst = dst;
        m_seq = seq;
        m_dest = dest;
        m_path = path;
        m_sent_id = sent_id;
      }
  in
  (* Each shard delivers through its own flight slab and one
     preallocated handler, like the sequential network. *)
  let deliver_on ctx slot =
    let fl = ctx.s_flights in
    let src = fl.f_src.(slot) and dst = fl.f_dst.(slot) and seq = fl.f_seq.(slot) in
    let dest = fl.f_dest.(slot) and path = fl.f_path.(slot) and sent_id = fl.f_sent.(slot) in
    flight_release fl slot;
    if deliverable_sharded !net sh ctx ~src ~dst ~seq then
      match ctx.strace with
      | None -> Router.receive_route !net.routers.(dst) ~src dest path
      | Some trace ->
        let id = fresh_sid sh dst in
        Trace.record trace
          (Trace.Update_delivered
             {
               id;
               time = Sched.now ctx.ssched;
               src;
               dst;
               update = Router.to_update dest path;
               cause = sent_id;
             });
        Router.receive_route !net.routers.(dst) ~cause:id ~src dest path
  in
  let handlers = Array.map deliver_on ctxs in
  let deliver d batch =
    let ctx = ctxs.(d) and handler = handlers.(d) in
    Array.iter
      (fun m ->
        (* Cross-shard advertisements are re-interned into the receiving
           shard's table; path identity never reaches route selection
           (RIB ranking is structural), so rehoming is invisible. *)
        let path =
          if sh.owner.(m.m_src) = d || m.m_path == Router.withdrawal then m.m_path
          else Bgp_proto.Path.intern ctx.spaths m.m_path
        in
        let slot =
          flight_add ctx.s_flights ~src:m.m_src ~dst:m.m_dst ~dest:m.m_dest ~path
            ~seq:m.m_seq ~sent:m.m_sent_id
        in
        ignore (Sched.schedule_arg_at ctx.ssched ~time:m.m_arrival handler slot))
      batch
  in
  sh.deliver <- deliver;
  let routers =
    Array.init n (fun i ->
        let router_rng = Rng.split rng in
        let ctx = ctxs.(sh.owner.(i)) in
        let cb =
          {
            Router.send;
            activity =
              (fun ~time ->
                let ctx = ctxs.(sh.owner.(i)) in
                if time > ctx.s_last_activity then ctx.s_last_activity <- time);
          }
        in
        Router.create ~sched:ctx.ssched ~rng:router_rng ~paths:ctx.spaths
          ~config:config.bgp ~id:i
          ~asn:topo.Topology.as_of_router.(i)
          ~degree:(Topology.inter_as_degree topo i)
          ?tracer:tracers.(sh.owner.(i))
          cb)
  in
  net := { !net with routers; send };
  List.iter
    (fun (u, v, kind) ->
      let rel_of a b =
        match config.relationships with
        | None -> None
        | Some rels -> Relationships.relation rels ~from:a ~toward:b
      in
      Router.add_peer routers.(u) ~peer:v ~peer_as:topo.Topology.as_of_router.(v) ~kind
        ?relationship:(rel_of u v) ();
      Router.add_peer routers.(v) ~peer:u ~peer_as:topo.Topology.as_of_router.(u) ~kind
        ?relationship:(rel_of v u) ())
    sessions;
  (match telemetry with
  | None -> ()
  | Some tele ->
    let reg name kind read = Telemetry.register tele ~name ~kind read in
    let counter name read = reg name Telemetry.Counter (fun () -> float_of_int (read ())) in
    counter "net.adverts_sent" (fun () -> adverts_sent !net);
    counter "net.withdrawals_sent" (fun () -> withdrawals_sent !net);
    counter "net.messages_sent" (fun () -> messages_sent !net);
    counter "net.session_downs" (fun () -> session_downs !net);
    let router_metric name kind pick =
      reg name kind (fun () -> float_of_int (pick (sum_metrics !net)))
    in
    router_metric "router.msgs_processed" Telemetry.Counter (fun m ->
        m.Router.msgs_processed);
    router_metric "queue.eliminated" Telemetry.Counter (fun m -> m.Router.eliminated);
    router_metric "queue.max_depth" Telemetry.Gauge (fun m -> m.Router.max_queue);
    router_metric "mrai.transitions" Telemetry.Counter (fun m ->
        m.Router.mrai_transitions);
    router_metric "mrai.max_level" Telemetry.Gauge (fun m -> m.Router.mrai_level);
    router_metric "damping.suppressions" Telemetry.Counter (fun m ->
        m.Router.damping_suppressions);
    reg "sched.events" Telemetry.Gauge (fun () -> float_of_int (shard_events !net));
    reg "sched.time" Telemetry.Gauge (fun () -> shard_now !net);
    reg "path.interned" Telemetry.Gauge (fun () ->
        float_of_int
          (Array.fold_left
             (fun acc c -> acc + Bgp_proto.Path.unique_count c.spaths)
             0 ctxs));
    reg "path.intern_hits" Telemetry.Counter (fun () ->
        float_of_int
          (Array.fold_left (fun acc c -> acc + Bgp_proto.Path.hit_count c.spaths) 0 ctxs)));
  !net

(* --- Sharded failure injection (orchestrator-time, between phases) -------- *)

let inject_failure_sharded t ~at failure =
  let sh = require_shard t in
  let n = num_routers t in
  let fail_ids = Array.make n Trace.no_cause in
  for r = 0 to n - 1 do
    if Failure.is_failed failure r && not t.failed.(r) then begin
      t.failed.(r) <- true;
      let ctx = sh.ctxs.(sh.owner.(r)) in
      (match ctx.strace with
      | Some trace ->
        let id = fresh_sid sh r in
        fail_ids.(r) <- id;
        Trace.record trace (Trace.Router_failed { id; time = at; router = r })
      | None -> ());
      Router.fail t.routers.(r)
    end
  done;
  (* Same [detect_rng] stream, drawn in the same global (failed router,
     peer) order as the sequential path — layout-independent by
     construction. *)
  for r = 0 to n - 1 do
    if Failure.is_failed failure r then
      List.iter
        (fun peer ->
          if not t.failed.(peer) then begin
            let d = detection_sample t in
            let ctx = sh.ctxs.(sh.owner.(peer)) in
            ignore
              (Sched.schedule_at ctx.ssched ~time:(at +. d) (fun () ->
                   if not t.failed.(peer) then begin
                     ctx.s_session_downs <- ctx.s_session_downs + 1;
                     match ctx.strace with
                     | Some trace ->
                       let down_id = fresh_sid sh peer in
                       Trace.record trace
                         (Trace.Session_down
                            {
                              id = down_id;
                              time = Sched.now ctx.ssched;
                              router = peer;
                              peer = r;
                              cause = fail_ids.(r);
                            });
                       Router.peer_down t.routers.(peer) ~cause:down_id r
                     | None -> Router.peer_down t.routers.(peer) r
                   end))
          end)
        t.session_peers.(r)
  done

let inject_link_failures_sharded t ~at links =
  let sh = require_shard t in
  List.iter
    (fun (u, v) ->
      let notify a b =
        if not t.failed.(a) then begin
          let ctx = sh.ctxs.(sh.owner.(a)) in
          ignore
            (Sched.schedule_at ctx.ssched ~time:(at +. t.config.detection_delay)
               (fun () ->
                 if not t.failed.(a) then begin
                   ctx.s_session_downs <- ctx.s_session_downs + 1;
                   match ctx.strace with
                   | Some trace ->
                     let down_id = fresh_sid sh a in
                     Trace.record trace
                       (Trace.Session_down
                          {
                            id = down_id;
                            time = Sched.now ctx.ssched;
                            router = a;
                            peer = b;
                            cause = Trace.no_cause;
                          });
                     Router.peer_down t.routers.(a) ~cause:down_id b
                   | None -> Router.peer_down t.routers.(a) b
                 end))
        end
      in
      notify u v;
      notify v u)
    links

(* --- Sharded fault hooks (replica-local) ---------------------------------- *)

(* Each hook below runs once per shard (the injector replicates fault
   events into every shard's scheduler) and touches only shard-local
   tables; router notifications fire only on the shard owning the
   affected router, so exactly one shard acts on each session endpoint. *)

let record_fault_replica t ~shard ~id ~label ~router ~cause =
  let sh = require_shard t in
  if sh.owner.(router) = shard then
    match sh.ctxs.(shard).strace with
    | Some trace ->
      Trace.record trace
        (Trace.Fault { id; time = Sched.now sh.ctxs.(shard).ssched; label; router; cause })
    | None -> ()

let notify_session_sharded t sh ~shard ~dir ~cause a b =
  if sh.owner.(a) = shard && not t.failed.(a) then begin
    let ctx = sh.ctxs.(shard) in
    ignore
      (Sched.schedule ctx.ssched ~delay:t.config.detection_delay (fun () ->
           if not t.failed.(a) then
             match dir with
             | `Down ->
               ctx.s_session_downs <- ctx.s_session_downs + 1;
               (match ctx.strace with
               | Some trace ->
                 let down_id = fresh_sid sh a in
                 Trace.record trace
                   (Trace.Session_down
                      { id = down_id; time = Sched.now ctx.ssched; router = a; peer = b; cause });
                 Router.peer_down t.routers.(a) ~cause:down_id b
               | None -> Router.peer_down t.routers.(a) b)
             | `Up -> (
               match ctx.strace with
               | Some trace ->
                 let up_id = fresh_sid sh a in
                 Trace.record trace
                   (Trace.Session_up
                      { id = up_id; time = Sched.now ctx.ssched; router = a; peer = b; cause });
                 Router.peer_up t.routers.(a) ~cause:up_id b
               | None -> Router.peer_up t.routers.(a) b)))
  end

let sever_link_sharded t ~shard ~cause ~u ~v =
  let sh = require_shard t in
  let ctx = sh.ctxs.(shard) in
  let k = link_key u v in
  let count = Option.value ~default:0 (Hashtbl.find_opt ctx.s_severed k) in
  Hashtbl.replace ctx.s_severed k (count + 1);
  if count = 0 then begin
    notify_session_sharded t sh ~shard ~dir:`Down ~cause u v;
    notify_session_sharded t sh ~shard ~dir:`Down ~cause v u
  end

let restore_link_sharded t ~shard ~cause ~u ~v =
  let sh = require_shard t in
  let ctx = sh.ctxs.(shard) in
  let k = link_key u v in
  match Hashtbl.find_opt ctx.s_severed k with
  | None -> ()
  | Some 1 ->
    Hashtbl.remove ctx.s_severed k;
    notify_session_sharded t sh ~shard ~dir:`Up ~cause u v;
    notify_session_sharded t sh ~shard ~dir:`Up ~cause v u
  | Some c -> Hashtbl.replace ctx.s_severed k (c - 1)

let set_link_factor_sharded t ~shard ~u ~v factor =
  if factor <= 0.0 then invalid_arg "Network.set_link_factor: factor must be positive";
  let ctx = (require_shard t).ctxs.(shard) in
  if factor = 1.0 then Hashtbl.remove ctx.s_factor (link_key u v)
  else Hashtbl.replace ctx.s_factor (link_key u v) factor

let set_link_loss_sharded t ~shard ~u ~v p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Network.set_link_loss: probability must be in [0, 1)";
  let ctx = (require_shard t).ctxs.(shard) in
  if p = 0.0 then Hashtbl.remove ctx.s_loss (link_key u v)
  else Hashtbl.replace ctx.s_loss (link_key u v) p

let set_clock_skew_sharded t ~shard ~router skew =
  (require_shard t).ctxs.(shard).s_skew.(router) <- skew

