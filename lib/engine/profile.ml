(* Per-domain span rings over CLOCK_MONOTONIC.  See the .mli for the
   session model; the implementation notes here cover the concurrency
   story.

   Recording never takes a lock: each domain owns a recorder reached
   through Domain.DLS, created lazily on first use and registered (one
   mutex acquisition, once per domain per session) so [stop] can find
   it.  A session generation counter invalidates recorders left in DLS
   by earlier sessions — a pool domain that outlives two sessions gets a
   fresh ring for the second.  [stop] runs while pool/shard domains are
   quiescent (the engine joins them before reports are cut), so reading
   rings without a lock is safe by the same join-ordering argument the
   mailboxes use. *)

external now_ns : unit -> (int64[@unboxed])
  = "bgp_prof_clock_ns" "bgp_prof_clock_ns_unboxed"
[@@noalloc]

type span_kind =
  | Compute
  | Barrier_wait
  | Mailbox_drain
  | Mailbox_post
  | Decide
  | Merge
  | Pool_job
  | Pool_wait
  | Build
  | Warmup
  | Fail
  | Converge
  | Finalize

let span_name = function
  | Compute -> "compute"
  | Barrier_wait -> "barrier_wait"
  | Mailbox_drain -> "mailbox_drain"
  | Mailbox_post -> "mailbox_post"
  | Decide -> "decide"
  | Merge -> "merge"
  | Pool_job -> "pool_job"
  | Pool_wait -> "pool_wait"
  | Build -> "build"
  | Warmup -> "warmup"
  | Fail -> "fail"
  | Converge -> "converge"
  | Finalize -> "finalize"

let phase_kind = function
  | Build | Warmup | Fail | Converge | Finalize -> true
  | Compute | Barrier_wait | Mailbox_drain | Mailbox_post | Decide | Merge
  | Pool_job | Pool_wait ->
    false

let kind_index = function
  | Compute -> 0
  | Barrier_wait -> 1
  | Mailbox_drain -> 2
  | Mailbox_post -> 3
  | Decide -> 4
  | Merge -> 5
  | Pool_job -> 6
  | Pool_wait -> 7
  | Build -> 8
  | Warmup -> 9
  | Fail -> 10
  | Converge -> 11
  | Finalize -> 12

let n_kinds = 13

let kind_of_index = function
  | 0 -> Compute
  | 1 -> Barrier_wait
  | 2 -> Mailbox_drain
  | 3 -> Mailbox_post
  | 4 -> Decide
  | 5 -> Merge
  | 6 -> Pool_job
  | 7 -> Pool_wait
  | 8 -> Build
  | 9 -> Warmup
  | 10 -> Fail
  | 11 -> Converge
  | 12 -> Finalize
  | _ -> assert false

(* --- Session state ------------------------------------------------------- *)

let ring_capacity = 65_536

type recorder = {
  gen : int;
  r_dom : int;
  kinds : int array;
  r_shards : int array;
  t0s : int64 array;
  t1s : int64 array;
  mutable len : int;  (* total records; ring slot is [len mod ring_capacity] *)
  (* Exact per-(kind, shard) totals, kept online whatever the ring
     overwrites: cell [kind * stride + shard + 1], in nanoseconds. *)
  mutable stride : int;
  mutable tot_ns : int array;
  mutable tot_n : int array;
  mutable max_ns : int array;
  acc_ns : int64 array;  (* per span kind *)
  acc_n : int array;
  gc0 : Gc.stat;  (* quick_stat at recorder creation *)
}

let armed = Atomic.make false
let generation = Atomic.make 0
let t_start = Atomic.make 0L
let registry_mu = Mutex.create ()
let registry : recorder list ref = ref []
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16

let dls_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fresh_recorder () =
  let r =
    {
      gen = Atomic.get generation;
      r_dom = (Domain.self () :> int);
      kinds = Array.make ring_capacity 0;
      r_shards = Array.make ring_capacity (-1);
      t0s = Array.make ring_capacity 0L;
      t1s = Array.make ring_capacity 0L;
      len = 0;
      stride = 0;
      tot_ns = [||];
      tot_n = [||];
      max_ns = [||];
      acc_ns = Array.make n_kinds 0L;
      acc_n = Array.make n_kinds 0;
      gc0 = Gc.quick_stat ();
    }
  in
  Mutex.lock registry_mu;
  registry := r :: !registry;
  Mutex.unlock registry_mu;
  r

let recorder () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some r when r.gen = Atomic.get generation -> r
  | Some _ | None ->
    let r = fresh_recorder () in
    cell := Some r;
    r

let on () = Atomic.get armed

let start () =
  Mutex.lock registry_mu;
  registry := [];
  Hashtbl.reset counters;
  Mutex.unlock registry_mu;
  Atomic.incr generation;
  Atomic.set t_start (now_ns ());
  Atomic.set armed true

(* Widen the totals to [stride] shard columns per kind. *)
let widen r stride =
  let regrid a =
    let b = Array.make (n_kinds * stride) 0 in
    for k = 0 to n_kinds - 1 do
      Array.blit a (k * r.stride) b (k * stride) r.stride
    done;
    b
  in
  r.tot_ns <- regrid r.tot_ns;
  r.tot_n <- regrid r.tot_n;
  r.max_ns <- regrid r.max_ns;
  r.stride <- stride

let record kind ?(shard = -1) t0 =
  if Atomic.get armed then begin
    let t1 = now_ns () in
    let r = recorder () in
    let ki = kind_index kind in
    let slot = r.len mod ring_capacity in
    r.kinds.(slot) <- ki;
    r.r_shards.(slot) <- shard;
    r.t0s.(slot) <- t0;
    r.t1s.(slot) <- t1;
    r.len <- r.len + 1;
    if shard + 1 >= r.stride then widen r (max (shard + 2) (2 * r.stride));
    let c = (ki * r.stride) + shard + 1 and d = Int64.to_int (Int64.sub t1 t0) in
    r.tot_ns.(c) <- r.tot_ns.(c) + d;
    r.tot_n.(c) <- r.tot_n.(c) + 1;
    if d > r.max_ns.(c) then r.max_ns.(c) <- d
  end

let accum kind t0 =
  if Atomic.get armed then begin
    let t1 = now_ns () in
    let r = recorder () in
    let i = kind_index kind in
    r.acc_ns.(i) <- Int64.add r.acc_ns.(i) (Int64.sub t1 t0);
    r.acc_n.(i) <- r.acc_n.(i) + 1
  end

let counter_bump name v ~combine =
  if Atomic.get armed then begin
    Mutex.lock registry_mu;
    (match Hashtbl.find_opt counters name with
    | Some cell -> cell := combine !cell v
    | None -> Hashtbl.add counters name (ref (combine 0 v)));
    Mutex.unlock registry_mu
  end

let counter_add name v = counter_bump name v ~combine:( + )
let counter_max name v = counter_bump name v ~combine:max

(* --- Reports ------------------------------------------------------------- *)

type span = { kind : span_kind; shard : int; t0_ns : int64; t1_ns : int64 }

type span_total = {
  t_kind : span_kind;
  t_shard : int;
  total_ns : int64;
  count : int;
  max_ns : int64;
}

type accum_entry = { a_kind : span_kind; a_ns : int64; a_count : int }

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

type domain_report = {
  dom : int;
  spans : span list;
  dropped : int;
  totals : span_total list;
  accums : accum_entry list;
  gc : gc_delta;
}

type report = {
  wall_ns : int64;
  domains : domain_report list;
  counters : (string * int) list;
}

let collect_recorder r =
  (* The recorder's own domain is quiescent (joined or ourselves) by the
     time stop runs; plain reads suffice. *)
  let stored = min r.len ring_capacity in
  let dropped = r.len - stored in
  let first = if r.len > ring_capacity then r.len mod ring_capacity else 0 in
  let spans =
    List.init stored (fun i ->
        let slot = (first + i) mod ring_capacity in
        {
          kind = kind_of_index r.kinds.(slot);
          shard = r.r_shards.(slot);
          t0_ns = r.t0s.(slot);
          t1_ns = r.t1s.(slot);
        })
  in
  (* Sorted by (kind, shard), the order every rendering uses. *)
  let totals =
    List.init (n_kinds * r.stride) Fun.id
    |> List.filter_map (fun c ->
           if r.tot_n.(c) = 0 then None
           else
             Some
               {
                 t_kind = kind_of_index (c / r.stride);
                 t_shard = (c mod r.stride) - 1;
                 total_ns = Int64.of_int r.tot_ns.(c);
                 count = r.tot_n.(c);
                 max_ns = Int64.of_int r.max_ns.(c);
               })
  in
  let accums =
    List.filter_map
      (fun i ->
        if r.acc_n.(i) = 0 then None
        else
          Some { a_kind = kind_of_index i; a_ns = r.acc_ns.(i); a_count = r.acc_n.(i) })
      (List.init n_kinds Fun.id)
  in
  let gc1 = Gc.quick_stat () in
  let gc =
    (* Deltas are meaningful only for the domain calling stop; for other
       domains quick_stat here reads the stopping domain again, so take
       the recorder's own start point and the best end point we have.
       In practice recorders on worker domains are collected after the
       workers were joined, and OCaml folds their GC totals into the
       joining domain — the per-domain deltas are attributed to where
       the recorder started, which is what the report documents. *)
    {
      minor_words = gc1.Gc.minor_words -. r.gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. r.gc0.Gc.promoted_words;
      major_words = gc1.Gc.major_words -. r.gc0.Gc.major_words;
      minor_collections = gc1.Gc.minor_collections - r.gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - r.gc0.Gc.major_collections;
      heap_words = gc1.Gc.heap_words;
    }
  in
  { dom = r.r_dom; spans; dropped; totals; accums; gc }

let stop () =
  if not (Atomic.get armed) then None
  else begin
    Atomic.set armed false;
    let wall_ns = Int64.sub (now_ns ()) (Atomic.get t_start) in
    Mutex.lock registry_mu;
    let recs = !registry in
    let counts =
      Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) counters []
    in
    registry := [];
    Hashtbl.reset counters;
    Mutex.unlock registry_mu;
    let domains =
      List.map collect_recorder recs
      |> List.sort (fun a b -> compare a.dom b.dom)
    in
    let counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counts in
    Some { wall_ns; domains; counters }
  end

(* --- Aggregation --------------------------------------------------------- *)

let ns_to_s ns = Int64.to_float ns /. 1e9

let total_label d t =
  if t.t_shard >= 0 then
    Printf.sprintf "domain%d/shard%d/%s" d.dom t.t_shard (span_name t.t_kind)
  else Printf.sprintf "domain%d/%s" d.dom (span_name t.t_kind)

(* Phase self-time: a phase span minus every leaf span on the same
   domain whose start lies inside it.  Leaves never overlap each other
   on one domain (they are sequential sections of the same loop), so
   subtracting totals is exact up to clock resolution. *)
let phase_self dom_report =
  let phases =
    List.filter (fun s -> phase_kind s.kind) dom_report.spans
    |> List.map (fun s -> (s, ref (Int64.sub s.t1_ns s.t0_ns)))
  in
  List.iter
    (fun leaf ->
      if not (phase_kind leaf.kind) then
        List.iter
          (fun (p, self) ->
            if leaf.t0_ns >= p.t0_ns && leaf.t0_ns < p.t1_ns then
              self := Int64.sub !self (Int64.sub leaf.t1_ns leaf.t0_ns))
          phases)
    dom_report.spans;
  List.map (fun (p, self) -> (p.kind, Int64.max 0L !self)) phases

(* --- JSON (bgp-prof/1) --------------------------------------------------- *)

let buf_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else Buffer.add_string b (Printf.sprintf "%.9g" f)

let buf_sep b first = if !first then first := false else Buffer.add_string b ","

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"bgp-prof/1\"";
  Buffer.add_string b ",\"wall_s\":";
  buf_float b (ns_to_s r.wall_ns);
  Buffer.add_string b ",\"domains\":[";
  let firstd = ref true in
  List.iter
    (fun d ->
      buf_sep b firstd;
      Buffer.add_string b (Printf.sprintf "{\"domain\":%d,\"dropped\":%d" d.dom d.dropped);
      Buffer.add_string b ",\"spans\":[";
      let first = ref true in
      List.iter
        (fun t ->
          buf_sep b first;
          Buffer.add_string b
            (Printf.sprintf "{\"span\":\"%s\",\"shard\":%d,\"total_s\":"
               (span_name t.t_kind) t.t_shard);
          buf_float b (ns_to_s t.total_ns);
          Buffer.add_string b (Printf.sprintf ",\"count\":%d,\"max_s\":" t.count);
          buf_float b (ns_to_s t.max_ns);
          Buffer.add_string b "}")
        d.totals;
      Buffer.add_string b "],\"accums\":[";
      let first = ref true in
      List.iter
        (fun a ->
          buf_sep b first;
          Buffer.add_string b
            (Printf.sprintf "{\"span\":\"%s\",\"total_s\":" (span_name a.a_kind));
          buf_float b (ns_to_s a.a_ns);
          Buffer.add_string b (Printf.sprintf ",\"count\":%d}" a.a_count))
        d.accums;
      Buffer.add_string b "],\"gc\":{\"minor_words\":";
      buf_float b d.gc.minor_words;
      Buffer.add_string b ",\"promoted_words\":";
      buf_float b d.gc.promoted_words;
      Buffer.add_string b ",\"major_words\":";
      buf_float b d.gc.major_words;
      Buffer.add_string b
        (Printf.sprintf
           ",\"minor_collections\":%d,\"major_collections\":%d,\"heap_words\":%d}}"
           d.gc.minor_collections d.gc.major_collections d.gc.heap_words))
    r.domains;
  Buffer.add_string b "],\"counters\":{";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      buf_sep b first;
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    r.counters;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- Flamegraph ---------------------------------------------------------- *)

let us ns = Int64.to_int (Int64.div ns 1_000L)

let to_flamegraph r =
  let b = Buffer.create 1024 in
  List.iter
    (fun d ->
      (* Leaf spans, aggregated by (kind, shard). *)
      List.iter
        (fun t ->
          if not (phase_kind t.t_kind) then
            if t.t_shard >= 0 then
              Buffer.add_string b
                (Printf.sprintf "domain%d;shard%d;%s %d\n" d.dom t.t_shard
                   (span_name t.t_kind) (us t.total_ns))
            else
              Buffer.add_string b
                (Printf.sprintf "domain%d;%s %d\n" d.dom (span_name t.t_kind)
                   (us t.total_ns)))
        d.totals;
      (* Accumulators are leaves, except Pool_job: a pool job *contains*
         the runner phases executed on that domain (a trial runs inside
         its pool job), so render its self-time — the accumulated total
         minus the gross phase spans recorded on the same domain. *)
      let phase_gross =
        List.fold_left
          (fun acc s ->
            if phase_kind s.kind then Int64.add acc (Int64.sub s.t1_ns s.t0_ns)
            else acc)
          0L d.spans
      in
      List.iter
        (fun a ->
          let ns =
            if a.a_kind = Pool_job then
              Int64.max 0L (Int64.sub a.a_ns phase_gross)
            else a.a_ns
          in
          Buffer.add_string b
            (Printf.sprintf "domain%d;%s %d\n" d.dom (span_name a.a_kind) (us ns)))
        d.accums;
      (* Phases at self-time, folded over repeats of the same kind. *)
      let totals = Hashtbl.create 8 in
      List.iter
        (fun (kind, self) ->
          let i = kind_index kind in
          let prev = Option.value ~default:0L (Hashtbl.find_opt totals i) in
          Hashtbl.replace totals i (Int64.add prev self))
        (phase_self d);
      Hashtbl.fold (fun i total acc -> (i, total) :: acc) totals []
      |> List.sort compare
      |> List.iter (fun (i, total) ->
             Buffer.add_string b
               (Printf.sprintf "domain%d;%s %d\n" d.dom
                  (span_name (kind_of_index i))
                  (us total))))
    r.domains;
  Buffer.contents b

(* --- Flat summary -------------------------------------------------------- *)

let summarize r =
  List.concat_map
    (fun d ->
      let spans = List.map (fun t -> (total_label d t, ns_to_s t.total_ns, t.count)) d.totals in
      let accums =
        List.map
          (fun a ->
            ( Printf.sprintf "domain%d/%s" d.dom (span_name a.a_kind),
              ns_to_s a.a_ns,
              a.a_count ))
          d.accums
      in
      spans @ accums)
    r.domains

let queue_wait_ns r =
  List.fold_left
    (fun acc d ->
      List.fold_left
        (fun acc a -> if a.a_kind = Pool_wait then Int64.add acc a.a_ns else acc)
        acc d.accums)
    0L r.domains
