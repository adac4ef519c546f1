(* Reference model of the input queue for differential testing: the
   linked implementation the flat slab in [Bgp_core.Input_queue]
   replaced, kept unchanged (doubly-linked option-boxed cells, hash
   tables keyed by destination and by (source, destination)).  It is
   slow but obviously follows the discipline rules, so every pop order
   of the production queue is checked against it. *)

type discipline =
  | Fifo
  | Batched
  | Fifo_dedup
  | Tcp_batch of { batch_size : int }

let discipline_name = function
  | Fifo -> "fifo"
  | Batched -> "batched"
  | Fifo_dedup -> "fifo-dedup"
  | Tcp_batch { batch_size } -> Printf.sprintf "tcp-batch(%d)" batch_size

type 'a item = { src : int; dest : int; payload : 'a; cause : int; enqueued : float }

(* The eliminating disciplines are built on doubly-linked cells so that
   stale-update elimination is O(1) once the cell is found via the
   (src, dest) index. *)
type 'a cell = {
  item : 'a item;
  mutable prev : 'a cell option;
  mutable next : 'a cell option;
  mutable dead : bool;
}

type 'a dlist = {
  mutable first : 'a cell option;
  mutable last : 'a cell option;
  mutable count : int;
}

let dlist_create () = { first = None; last = None; count = 0 }

let dlist_append l item =
  let cell = { item; prev = l.last; next = None; dead = false } in
  (match l.last with None -> l.first <- Some cell | Some tail -> tail.next <- Some cell);
  l.last <- Some cell;
  l.count <- l.count + 1;
  cell

let dlist_remove l cell =
  if not cell.dead then begin
    cell.dead <- true;
    (match cell.prev with None -> l.first <- cell.next | Some p -> p.next <- cell.next);
    (match cell.next with None -> l.last <- cell.prev | Some n -> n.prev <- cell.prev);
    l.count <- l.count - 1
  end

let dlist_pop l =
  match l.first with
  | None -> None
  | Some cell ->
    dlist_remove l cell;
    Some cell.item

(* Fifo: a growable ring, struct of arrays.  An item costs no cell and
   no option box, and a deep queue holds its fields unboxed instead of as
   thousands of live records.  A vacated payload slot is overwritten with
   [vacant] so the ring never keeps a processed message reachable.
   [vacant] is the immediate 0 cast to the payload type: it is only ever
   stored and overwritten, never read back as an ['a]; polymorphic array
   accesses never treat a block created from an immediate as a float
   array, so this is sound for every payload type. *)
type 'a ring = {
  mutable r_src : int array;
  mutable r_dest : int array;
  mutable r_cause : int array;
  mutable r_enqueued : Float.Array.t;
  mutable r_payload : 'a array;
  mutable r_head : int;
  mutable r_len : int;
}

let vacant () : 'a = Obj.magic 0

let ring_create () =
  {
    r_src = [||];
    r_dest = [||];
    r_cause = [||];
    r_enqueued = Float.Array.create 0;
    r_payload = [||];
    r_head = 0;
    r_len = 0;
  }

let ring_grow r =
  let cap = Array.length r.r_src in
  let cap' = max 16 (2 * cap) in
  let src = Array.make cap' 0 and dest = Array.make cap' 0 and cause = Array.make cap' 0 in
  let enqueued = Float.Array.make cap' 0.0 and payload = Array.make cap' (vacant ()) in
  (* Unwrap: the live items go to 0 .. len-1 in queue order. *)
  for i = 0 to r.r_len - 1 do
    let j = (r.r_head + i) mod cap in
    src.(i) <- r.r_src.(j);
    dest.(i) <- r.r_dest.(j);
    cause.(i) <- r.r_cause.(j);
    Float.Array.set enqueued i (Float.Array.get r.r_enqueued j);
    payload.(i) <- r.r_payload.(j)
  done;
  r.r_src <- src;
  r.r_dest <- dest;
  r.r_cause <- cause;
  r.r_enqueued <- enqueued;
  r.r_payload <- payload;
  r.r_head <- 0

let ring_add r ~src ~dest ~cause ~enqueued payload =
  if r.r_len = Array.length r.r_src then ring_grow r;
  let cap = Array.length r.r_src in
  let j = r.r_head + r.r_len in
  let j = if j >= cap then j - cap else j in
  r.r_src.(j) <- src;
  r.r_dest.(j) <- dest;
  r.r_cause.(j) <- cause;
  Float.Array.set r.r_enqueued j enqueued;
  r.r_payload.(j) <- payload;
  r.r_len <- r.r_len + 1

let ring_clear r =
  Array.fill r.r_payload 0 (Array.length r.r_payload) (vacant ());
  r.r_head <- 0;
  r.r_len <- 0

type 'a t = {
  discipline : discipline;
  ring : 'a ring;  (* Fifo *)
  (* Fields of the item the last [take] removed: src, dest, cause. *)
  last : int array;
  last_enqueued : Float.Array.t;
  (* Fifo_dedup / Tcp_batch: single arrival-order list.
     Batched: one list per destination plus the order in which
     destinations became pending. *)
  fifo : 'a dlist;
  per_dest : (int, 'a dlist) Hashtbl.t;
  dest_order : int Queue.t;
  (* (src, dest) -> (live cell, arrival batch id), for stale elimination.
     The batch id is 0 except under Tcp_batch. *)
  index : (int * int, 'a cell * int) Hashtbl.t;
  (* Tcp_batch: current batch id and fill level per source. *)
  batch_of_src : (int, int) Hashtbl.t;
  fill_of_src : (int, int) Hashtbl.t;
  mutable total : int;
  mutable eliminated : int;
  mutable max_length : int;
}

let create discipline =
  {
    discipline;
    ring = ring_create ();
    last = Array.make 3 0;
    last_enqueued = Float.Array.make 1 0.0;
    fifo = dlist_create ();
    per_dest = Hashtbl.create 64;
    dest_order = Queue.create ();
    index = Hashtbl.create 64;
    batch_of_src = Hashtbl.create 8;
    fill_of_src = Hashtbl.create 8;
    total = 0;
    eliminated = 0;
    max_length = 0;
  }

let discipline t = t.discipline
let length t = t.total
let is_empty t = t.total = 0
let eliminated t = t.eliminated
let max_length t = t.max_length

(* The arrival batch this push belongs to (advancing the per-source fill
   counter under Tcp_batch; always 0 otherwise). *)
let arrival_batch t src =
  match t.discipline with
  | Fifo | Fifo_dedup | Batched -> 0
  | Tcp_batch { batch_size } ->
    let batch = Option.value ~default:0 (Hashtbl.find_opt t.batch_of_src src) in
    let fill = 1 + Option.value ~default:0 (Hashtbl.find_opt t.fill_of_src src) in
    if fill >= batch_size then begin
      Hashtbl.replace t.batch_of_src src (batch + 1);
      Hashtbl.replace t.fill_of_src src 0
    end
    else Hashtbl.replace t.fill_of_src src fill;
    batch

let eliminate_stale t (item : 'a item) ~batch =
  let key = (item.src, item.dest) in
  match Hashtbl.find_opt t.index key with
  | Some (cell, cell_batch) when not cell.dead -> (
    match t.discipline with
    | Fifo -> ()
    | Fifo_dedup ->
      dlist_remove t.fifo cell;
      t.total <- t.total - 1;
      t.eliminated <- t.eliminated + 1
    | Tcp_batch _ ->
      (* Only updates landing in the same TCP read coalesce. *)
      if cell_batch = batch then begin
        dlist_remove t.fifo cell;
        t.total <- t.total - 1;
        t.eliminated <- t.eliminated + 1
      end
    | Batched -> (
      match Hashtbl.find_opt t.per_dest item.dest with
      | Some l ->
        dlist_remove l cell;
        t.total <- t.total - 1;
        t.eliminated <- t.eliminated + 1
      | None -> ()))
  | _ -> ()

let push_linked t item =
  let batch = arrival_batch t item.src in
  eliminate_stale t item ~batch;
  let cell =
    match t.discipline with
    | Fifo | Fifo_dedup | Tcp_batch _ -> dlist_append t.fifo item
    | Batched ->
      let l =
        match Hashtbl.find_opt t.per_dest item.dest with
        | Some l -> l
        | None ->
          let l = dlist_create () in
          Hashtbl.replace t.per_dest item.dest l;
          l
      in
      if l.count = 0 then Queue.add item.dest t.dest_order;
      dlist_append l item
  in
  Hashtbl.replace t.index (item.src, item.dest) (cell, batch)

let note_push t =
  t.total <- t.total + 1;
  if t.total > t.max_length then t.max_length <- t.total

let add t ~src ~dest ~cause ~enqueued payload =
  (match t.discipline with
  | Fifo -> ring_add t.ring ~src ~dest ~cause ~enqueued payload
  | Fifo_dedup | Batched | Tcp_batch _ ->
    push_linked t { src; dest; payload; cause; enqueued });
  note_push t

let push t item =
  (match t.discipline with
  | Fifo ->
    ring_add t.ring ~src:item.src ~dest:item.dest ~cause:item.cause
      ~enqueued:item.enqueued item.payload
  | Fifo_dedup | Batched | Tcp_batch _ -> push_linked t item);
  note_push t

let rec pop_batched t =
  match Queue.peek_opt t.dest_order with
  | None -> None
  | Some dest -> (
    let l = Hashtbl.find t.per_dest dest in
    match dlist_pop l with
    | Some item ->
      if l.count = 0 then ignore (Queue.pop t.dest_order);
      Some item
    | None ->
      (* The destination's queue was emptied by stale elimination. *)
      ignore (Queue.pop t.dest_order);
      pop_batched t)

let pop_linked t =
  let result =
    match t.discipline with
    | Fifo | Fifo_dedup | Tcp_batch _ -> dlist_pop t.fifo
    | Batched -> pop_batched t
  in
  (match result with
  | Some item ->
    t.total <- t.total - 1;
    (* Drop the index entry if it still points at this message. *)
    let key = (item.src, item.dest) in
    (match Hashtbl.find_opt t.index key with
    | Some (cell, _) when cell.dead -> Hashtbl.remove t.index key
    | _ -> ())
  | None -> ());
  result

let take t =
  match t.discipline with
  | Fifo ->
    let r = t.ring in
    if r.r_len = 0 then invalid_arg "Input_queue.take: empty queue";
    let j = r.r_head in
    t.last.(0) <- r.r_src.(j);
    t.last.(1) <- r.r_dest.(j);
    t.last.(2) <- r.r_cause.(j);
    Float.Array.set t.last_enqueued 0 (Float.Array.get r.r_enqueued j);
    let payload = r.r_payload.(j) in
    r.r_payload.(j) <- vacant ();
    r.r_head <- (if j + 1 = Array.length r.r_src then 0 else j + 1);
    r.r_len <- r.r_len - 1;
    t.total <- t.total - 1;
    payload
  | Fifo_dedup | Batched | Tcp_batch _ -> (
    match pop_linked t with
    | None -> invalid_arg "Input_queue.take: empty queue"
    | Some item ->
      t.last.(0) <- item.src;
      t.last.(1) <- item.dest;
      t.last.(2) <- item.cause;
      Float.Array.set t.last_enqueued 0 item.enqueued;
      item.payload)

let last_src t = t.last.(0)
let last_dest t = t.last.(1)
let last_cause t = t.last.(2)
let last_enqueued t = Float.Array.get t.last_enqueued 0

let pop t =
  match t.discipline with
  | Fifo ->
    if t.total = 0 then None
    else
      let payload = take t in
      Some
        { src = last_src t; dest = last_dest t; payload; cause = last_cause t;
          enqueued = last_enqueued t }
  | Fifo_dedup | Batched | Tcp_batch _ -> pop_linked t

let clear t =
  ring_clear t.ring;
  t.fifo.first <- None;
  t.fifo.last <- None;
  t.fifo.count <- 0;
  Hashtbl.reset t.per_dest;
  Queue.clear t.dest_order;
  Hashtbl.reset t.index;
  Hashtbl.reset t.batch_of_src;
  Hashtbl.reset t.fill_of_src;
  t.total <- 0
