(* Array-slab event queue.

   Callbacks live in a growable slot array with a free-list; a slot holds
   either a [unit -> unit] closure or a typed event, an [int -> unit]
   handler plus its [int] argument, so a hot caller that preallocates
   its handler schedules without allocating.  The binary
   heap is three parallel arrays (unboxed float times, scheduling seqs,
   slot indices), so a heap comparison touches no heap-allocated entry
   record and executing an event costs no hash-table lookup.  Event ids
   pack (seq, slot): the seq doubles as a generation tag, so [cancel] of
   an already-fired or already-cancelled id is a safe no-op even after the
   slot has been reused.  Cancelled events stay in the heap and are
   skimmed lazily at the root, exactly like the old Hashtbl-based
   implementation. *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type event_id = int

let no_event = -1

type t = {
  (* Heap over (time, seq), min at 0; h_slot names the slab slot. *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_size : int;
  (* Slab: closure or handler + argument, and owning seq per slot
     (-1 = free), free-list stack.  A slot whose handler is [no_handler]
     runs its closure. *)
  mutable cbs : (unit -> unit) array;
  mutable handlers : (int -> unit) array;
  mutable args : int array;
  mutable seq_of_slot : int array;
  mutable free : int array;
  mutable free_top : int;
  mutable live : int;
  mutable max_live : int;  (* slab occupancy high-water since create *)
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
}

let noop () = ()
let no_handler (_ : int) = ()
let initial_cap = 256

let create () =
  {
    h_time = Array.make initial_cap 0.0;
    h_seq = Array.make initial_cap 0;
    h_slot = Array.make initial_cap 0;
    h_size = 0;
    cbs = Array.make initial_cap noop;
    handlers = Array.make initial_cap no_handler;
    args = Array.make initial_cap 0;
    seq_of_slot = Array.make initial_cap (-1);
    free = Array.init initial_cap (fun i -> initial_cap - 1 - i);
    free_top = initial_cap;
    live = 0;
    max_live = 0;
    clock = 0.0;
    next_seq = 0;
    executed = 0;
  }

let now t = t.clock

(* --- Heap of (time, seq, slot) triples ---------------------------------- *)

let heap_ensure_room t =
  let cap = Array.length t.h_time in
  if t.h_size = cap then begin
    let cap' = 2 * cap in
    let ht = Array.make cap' 0.0 in
    let hs = Array.make cap' 0 in
    let hl = Array.make cap' 0 in
    Array.blit t.h_time 0 ht 0 cap;
    Array.blit t.h_seq 0 hs 0 cap;
    Array.blit t.h_slot 0 hl 0 cap;
    t.h_time <- ht;
    t.h_seq <- hs;
    t.h_slot <- hl
  end

(* Inlined into its two callers so the event time stays unboxed. *)
let[@inline] heap_push t time seq slot =
  heap_ensure_room t;
  (* Sift the hole up, then fill it: one write per level. *)
  let i = ref t.h_size in
  t.h_size <- t.h_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.h_time.(p) in
    if pt > time || (pt = time && t.h_seq.(p) > seq) then begin
      t.h_time.(!i) <- pt;
      t.h_seq.(!i) <- t.h_seq.(p);
      t.h_slot.(!i) <- t.h_slot.(p);
      i := p
    end
    else continue := false
  done;
  t.h_time.(!i) <- time;
  t.h_seq.(!i) <- seq;
  t.h_slot.(!i) <- slot

let heap_remove_root t =
  let n = t.h_size - 1 in
  t.h_size <- n;
  if n > 0 then begin
    (* Sift the displaced last element down from the root as a hole. *)
    let time = t.h_time.(n) and seq = t.h_seq.(n) and slot = t.h_slot.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.h_time.(r) < t.h_time.(l)
               || (t.h_time.(r) = t.h_time.(l) && t.h_seq.(r) < t.h_seq.(l)))
          then r
          else l
        in
        if t.h_time.(c) < time || (t.h_time.(c) = time && t.h_seq.(c) < seq) then begin
          t.h_time.(!i) <- t.h_time.(c);
          t.h_seq.(!i) <- t.h_seq.(c);
          t.h_slot.(!i) <- t.h_slot.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.h_time.(!i) <- time;
    t.h_seq.(!i) <- seq;
    t.h_slot.(!i) <- slot
  end

(* --- Slab --------------------------------------------------------------- *)

let slab_grow t =
  let cap = Array.length t.cbs in
  if cap >= max_slots then
    invalid_arg "Scheduler: more than 2^24 simultaneously pending events";
  let cap' = min max_slots (2 * cap) in
  let cbs = Array.make cap' noop in
  let handlers = Array.make cap' no_handler in
  let args = Array.make cap' 0 in
  let sos = Array.make cap' (-1) in
  Array.blit t.cbs 0 cbs 0 cap;
  Array.blit t.handlers 0 handlers 0 cap;
  Array.blit t.args 0 args 0 cap;
  Array.blit t.seq_of_slot 0 sos 0 cap;
  t.cbs <- cbs;
  t.handlers <- handlers;
  t.args <- args;
  t.seq_of_slot <- sos;
  let free = Array.make cap' 0 in
  Array.blit t.free 0 free 0 t.free_top;
  (* Push the new slots so the lowest index pops first. *)
  for i = 0 to cap' - cap - 1 do
    free.(t.free_top + i) <- cap' - 1 - i
  done;
  t.free <- free;
  t.free_top <- t.free_top + (cap' - cap)

let alloc_slot t =
  if t.free_top = 0 then slab_grow t;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

let release_slot t slot =
  t.cbs.(slot) <- noop;
  t.handlers.(slot) <- no_handler;
  t.seq_of_slot.(slot) <- -1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* --- Public API --------------------------------------------------------- *)

(* Claim a slot for an event at [time]; the caller fills its callback. *)
let[@inline] enter t ~time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_at: time %g is in the past (now %g)" time t.clock);
  let slot = alloc_slot t in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.seq_of_slot.(slot) <- seq;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live;
  heap_push t time seq slot;
  slot

let id_of t slot = (t.seq_of_slot.(slot) lsl slot_bits) lor slot

let[@inline] schedule_at t ~time f =
  let slot = enter t ~time in
  t.cbs.(slot) <- f;
  id_of t slot

let[@inline] schedule_arg_at t ~time h arg =
  let slot = enter t ~time in
  t.handlers.(slot) <- h;
  t.args.(slot) <- arg;
  id_of t slot

let check_delay delay = if delay < 0.0 then invalid_arg "Scheduler.schedule: negative delay"

let schedule t ~delay f =
  check_delay delay;
  schedule_at t ~time:(t.clock +. delay) f

let schedule_arg t ~delay h arg =
  check_delay delay;
  schedule_arg_at t ~time:(t.clock +. delay) h arg

let cancel t id =
  let slot = id land slot_mask in
  let seq = id lsr slot_bits in
  if id >= 0 && slot < Array.length t.seq_of_slot && t.seq_of_slot.(slot) = seq then begin
    release_slot t slot;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Discard cancelled entries at the root; [true] iff a live root remains.
   This is the single peek both [step] and [run] build on. *)
let rec skim t =
  if t.h_size = 0 then false
  else begin
    let slot = t.h_slot.(0) in
    if t.seq_of_slot.(slot) = t.h_seq.(0) then true
    else begin
      heap_remove_root t;
      skim t
    end
  end

(* Precondition: [skim t] just returned [true]. *)
let exec_root t =
  let time = t.h_time.(0) in
  let slot = t.h_slot.(0) in
  heap_remove_root t;
  let f = t.cbs.(slot) and h = t.handlers.(slot) and arg = t.args.(slot) in
  (* Release before invoking: callbacks observe the event as no longer
     pending (the telemetry probe chain relies on this to let the queue
     drain). *)
  release_slot t slot;
  t.live <- t.live - 1;
  t.clock <- time;
  t.executed <- t.executed + 1;
  if h == no_handler then f () else h arg

let step t =
  if skim t then begin
    exec_root t;
    true
  end
  else false

let next_time t = if skim t then Some t.h_time.(0) else None

let run_window t ~stop ~cap =
  let continue = ref true in
  while !continue do
    if skim t && t.h_time.(0) < stop && t.h_time.(0) <= cap then exec_root t
    else continue := false
  done

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if skim t && t.h_time.(0) <= limit then exec_root t else continue := false
    done

let time_of_last_event t = t.clock
let events_executed t = t.executed
let max_live t = t.max_live
let slab_capacity t = Array.length t.cbs
