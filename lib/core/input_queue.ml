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


(* Batched, Fifo_dedup, Tcp_batch: a slab of item slots, struct of
   arrays like the ring, with [int] links instead of cells.  Every
   queued item sits in its destination's list (arrays indexed by
   [dest + 1], so session messages with [dest = -1] are one more
   destination); stale elimination scans that list from its newest end
   for the item's source.  Batched serves destinations in the order of a
   ring of destination tokens; Fifo_dedup and Tcp_batch also thread every
   item onto one arrival-order list, which they serve instead.  A freed
   slot goes on a free list threaded through [next], and its payload is
   overwritten with [vacant]. *)
type 'a slab = {
  ordered : bool;  (* keep the arrival-order list *)
  mutable src : int array;
  mutable dest : int array;
  mutable cause : int array;
  mutable enqueued : Float.Array.t;
  mutable payload : 'a array;
  mutable batch : int array;  (* arrival batch; 0 except under Tcp_batch *)
  mutable prev : int array;  (* destination list links, [-1] ends a list *)
  mutable next : int array;
  mutable arr_prev : int array;  (* arrival list links (when [ordered]) *)
  mutable arr_next : int array;
  mutable free : int;
  (* Ends of each destination's list, indexed by [dest + 1]; [-1] = empty. *)
  mutable first : int array;
  mutable last : int array;
  (* Ends of the arrival list, as one-cell arrays so the list code below
     serves both kinds of list. *)
  arr_first : int array;
  arr_last : int array;
  (* Batched: ring of destination tokens.  A token is appended whenever a
     push finds its destination's list empty — also right after
     eliminating that list's only item — so a destination can hold
     several tokens; a token whose list is empty is skipped. *)
  mutable tokens : int array;
  mutable tok_head : int;
  mutable tok_len : int;
  (* Tcp_batch: current batch id and fill level per source. *)
  mutable batch_of_src : int array;
  mutable fill_of_src : int array;
}

let slab_create ~ordered =
  {
    ordered;
    src = [||];
    dest = [||];
    cause = [||];
    enqueued = Float.Array.create 0;
    payload = [||];
    batch = [||];
    prev = [||];
    next = [||];
    arr_prev = [||];
    arr_next = [||];
    free = -1;
    first = [||];
    last = [||];
    arr_first = [| -1 |];
    arr_last = [| -1 |];
    tokens = [||];
    tok_head = 0;
    tok_len = 0;
    batch_of_src = [||];
    fill_of_src = [||];
  }

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slab_grow s =
  let cap = Array.length s.src in
  let cap' = max 16 (2 * cap) in
  s.src <- extend s.src cap' 0;
  s.dest <- extend s.dest cap' 0;
  s.cause <- extend s.cause cap' 0;
  let enqueued = Float.Array.make cap' 0.0 in
  Float.Array.blit s.enqueued 0 enqueued 0 cap;
  s.enqueued <- enqueued;
  s.payload <- extend s.payload cap' (vacant ());
  s.batch <- extend s.batch cap' 0;
  s.prev <- extend s.prev cap' (-1);
  s.next <- extend s.next cap' (-1);
  if s.ordered then begin
    s.arr_prev <- extend s.arr_prev cap' (-1);
    s.arr_next <- extend s.arr_next cap' (-1)
  end;
  for j = cap' - 1 downto cap do
    s.next.(j) <- s.free;
    s.free <- j
  done

(* Append slot [j] to list [k] of a family of lists given by its link
   arrays [prev], [next] and its end arrays [first], [last]; [unlink]
   takes it out again. *)
let link prev next first last k j =
  let l = last.(k) in
  prev.(j) <- l;
  next.(j) <- -1;
  if l < 0 then first.(k) <- j else next.(l) <- j;
  last.(k) <- j

let unlink prev next first last k j =
  let p = prev.(j) and n = next.(j) in
  if p < 0 then first.(k) <- n else next.(p) <- n;
  if n < 0 then last.(k) <- p else prev.(n) <- p

(* Unlink slot [j] from its lists and free it. *)
let remove s j =
  unlink s.prev s.next s.first s.last (s.dest.(j) + 1) j;
  if s.ordered then unlink s.arr_prev s.arr_next s.arr_first s.arr_last 0 j;
  s.payload.(j) <- vacant ();
  s.next.(j) <- s.free;
  s.free <- j

(* The newest item from [src] at or before slot [j] of its list, or -1. *)
let rec newest_from s src j =
  if j < 0 || s.src.(j) = src then j else newest_from s src s.prev.(j)

let push_token s dest =
  let cap = Array.length s.tokens in
  if s.tok_len = cap then begin
    (* Unwrap into a ring twice the size. *)
    let tokens = Array.make (max 16 (2 * cap)) 0 in
    for i = 0 to s.tok_len - 1 do
      tokens.(i) <- s.tokens.((s.tok_head + i) mod cap)
    done;
    s.tokens <- tokens;
    s.tok_head <- 0
  end;
  let cap = Array.length s.tokens in
  let j = s.tok_head + s.tok_len in
  s.tokens.(if j >= cap then j - cap else j) <- dest;
  s.tok_len <- s.tok_len + 1

let drop_token s =
  s.tok_head <- (if s.tok_head + 1 = Array.length s.tokens then 0 else s.tok_head + 1);
  s.tok_len <- s.tok_len - 1

(* Batched: the head of the front token's list, dropping the token when
   that head is its list's last item and skipping empty-list tokens. *)
let rec next_batched s =
  let j = s.first.(s.tokens.(s.tok_head) + 1) in
  if j < 0 || s.next.(j) < 0 then drop_token s;
  if j < 0 then next_batched s else j

(* The arrival batch of a push from [src] under Tcp_batch, advancing the
   source's fill counter. *)
let arrival_batch s ~batch_size src =
  let n = Array.length s.batch_of_src in
  if src >= n then begin
    let n' = max (src + 1) (2 * n) in
    s.batch_of_src <- extend s.batch_of_src n' 0;
    s.fill_of_src <- extend s.fill_of_src n' 0
  end;
  let batch = s.batch_of_src.(src) in
  let fill = s.fill_of_src.(src) + 1 in
  if fill >= batch_size then begin
    s.batch_of_src.(src) <- batch + 1;
    s.fill_of_src.(src) <- 0
  end
  else s.fill_of_src.(src) <- fill;
  batch

type 'a t = {
  discipline : discipline;
  ring : 'a ring;  (* Fifo *)
  mutable slab : 'a slab;  (* the others; arrays stay empty under Fifo *)
  (* Fields of the item the last [take] removed: src, dest, cause. *)
  last : int array;
  last_enqueued : Float.Array.t;
  mutable total : int;
  mutable eliminated : int;
  mutable max_length : int;
}

let ordered = function Fifo_dedup | Tcp_batch _ -> true | Fifo | Batched -> false

let create discipline =
  {
    discipline;
    ring = ring_create ();
    slab = slab_create ~ordered:(ordered discipline);
    last = Array.make 3 0;
    last_enqueued = Float.Array.make 1 0.0;
    total = 0;
    eliminated = 0;
    max_length = 0;
  }

let discipline t = t.discipline
let length t = t.total
let is_empty t = t.total = 0
let eliminated t = t.eliminated
let max_length t = t.max_length

let slab_add t ~src ~dest ~cause ~enqueued payload =
  let s = t.slab in
  let k = dest + 1 in
  let n = Array.length s.first in
  if k >= n then begin
    let n' = max (k + 1) (2 * n) in
    s.first <- extend s.first n' (-1);
    s.last <- extend s.last n' (-1)
  end;
  let batch =
    match t.discipline with
    | Tcp_batch { batch_size } -> arrival_batch s ~batch_size src
    | Fifo | Batched | Fifo_dedup -> 0
  in
  (* The newest queued item from [src] for [dest] is stale; under
     Tcp_batch only when it arrived in the same batch. *)
  let j = newest_from s src s.last.(k) in
  if j >= 0 && s.batch.(j) = batch then begin
    remove s j;
    t.total <- t.total - 1;
    t.eliminated <- t.eliminated + 1
  end;
  (match t.discipline with
  | Batched -> if s.first.(k) < 0 then push_token s dest
  | Fifo | Fifo_dedup | Tcp_batch _ -> ());
  if s.free < 0 then slab_grow s;
  let i = s.free in
  s.free <- s.next.(i);
  s.src.(i) <- src;
  s.dest.(i) <- dest;
  s.cause.(i) <- cause;
  Float.Array.set s.enqueued i enqueued;
  s.payload.(i) <- payload;
  s.batch.(i) <- batch;
  link s.prev s.next s.first s.last k i;
  if s.ordered then link s.arr_prev s.arr_next s.arr_first s.arr_last 0 i

let add t ~src ~dest ~cause ~enqueued payload =
  (match t.discipline with
  | Fifo -> ring_add t.ring ~src ~dest ~cause ~enqueued payload
  | Fifo_dedup | Batched | Tcp_batch _ -> slab_add t ~src ~dest ~cause ~enqueued payload);
  t.total <- t.total + 1;
  if t.total > t.max_length then t.max_length <- t.total

let push t (item : 'a item) =
  add t ~src:item.src ~dest:item.dest ~cause:item.cause ~enqueued:item.enqueued item.payload

let take t =
  if t.total = 0 then begin
    (* Every token left over is for an empty list. *)
    t.slab.tok_len <- 0;
    invalid_arg "Input_queue.take: empty queue"
  end;
  t.total <- t.total - 1;
  match t.discipline with
  | Fifo ->
    let r = t.ring in
    let j = r.r_head in
    t.last.(0) <- r.r_src.(j);
    t.last.(1) <- r.r_dest.(j);
    t.last.(2) <- r.r_cause.(j);
    Float.Array.set t.last_enqueued 0 (Float.Array.get r.r_enqueued j);
    let payload = r.r_payload.(j) in
    r.r_payload.(j) <- vacant ();
    r.r_head <- (if j + 1 = Array.length r.r_src then 0 else j + 1);
    r.r_len <- r.r_len - 1;
    payload
  | Fifo_dedup | Batched | Tcp_batch _ ->
    let s = t.slab in
    let j = if s.ordered then s.arr_first.(0) else next_batched s in
    t.last.(0) <- s.src.(j);
    t.last.(1) <- s.dest.(j);
    t.last.(2) <- s.cause.(j);
    Float.Array.set t.last_enqueued 0 (Float.Array.get s.enqueued j);
    let payload = s.payload.(j) in
    remove s j;
    payload

let last_src t = t.last.(0)
let last_dest t = t.last.(1)
let last_cause t = t.last.(2)
let last_enqueued t = Float.Array.get t.last_enqueued 0

let pop t =
  if t.total = 0 then begin
    t.slab.tok_len <- 0;
    None
  end
  else
    let payload = take t in
    Some
      { src = last_src t; dest = last_dest t; payload; cause = last_cause t;
        enqueued = last_enqueued t }

let clear t =
  ring_clear t.ring;
  t.slab <- slab_create ~ordered:t.slab.ordered;
  t.total <- 0
