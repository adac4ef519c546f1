type t =
  | Empty
  | Node of {
      id : int;  (* unique within the owning table, never reused *)
      head : int;
      tail : t;
      len : int;
      bits : int;  (* membership bitset: bit (asn mod 62) of every hop *)
      mutable mark : int;  (* owning table's tag lor sweep state *)
    }

let empty = Empty

(* A node's [mark] is its owning table's [tag] (high bits) or'ed with a
   sweep state (low [state_bits]).  Live states are epochs: below the
   table's current epoch = undecided, equal to it = kept by the current
   sweep.  Dead states (swept from the memo) have [dead_bit] set, plus
   the epoch of the last sweep that walked the node.  A node is in its
   table's memo iff it is not dead, so the sweep reads liveness from the
   node instead of probing the memo, and the tag lets it tell (and never
   write) nodes of other tables. *)
let state_bits = 32
let dead_bit = 1 lsl (state_bits - 1)
let next_tag = Atomic.make 0

type table = {
  memo : t Int_tbl.t;  (* key = tail id * 2^22 + head asn *)
  tag : int;
  mutable epoch : int;  (* sweeps so far *)
  mutable next_id : int;
  mutable hits : int;
  mutable roots : ((t -> unit) -> unit) list;
  mutable sweep_at : int;  (* memo size that triggers the next sweep *)
}

(* The memo is swept once it holds [sweep_multiple] times the nodes the
   previous sweep kept (and at least [sweep_floor]), so the sweep's cost
   is amortised over at least as many fresh interns as it keeps. *)
let sweep_multiple = 2
let sweep_floor = 1024

let create_table () =
  let n = Atomic.fetch_and_add next_tag 1 land ((1 lsl 30) - 1) in
  {
    memo = Int_tbl.create 1024;
    tag = n lsl state_bits;
    epoch = 0;
    next_id = 1;
    hits = 0;
    roots = [];
    sweep_at = max_int;
  }

(* Memo keys pack (tail id, head asn) into one int, so the hot probe hashes
   an immediate instead of a tuple.  22 bits cover any AS number this
   simulator generates (destinations are AS ids); 41 bits of id space is
   unreachable in practice. *)
let asn_bits = 22
let max_asn = (1 lsl asn_bits) - 1
let key_of tail_id asn = (tail_id lsl asn_bits) lor asn

let id = function Empty -> 0 | Node n -> n.id
let length = function Empty -> 0 | Node n -> n.len
let bits = function Empty -> 0 | Node n -> n.bits
let is_empty p = p == Empty

let rearm tbl =
  tbl.sweep_at <-
    (match tbl.roots with
    | [] -> max_int
    | _ :: _ -> max sweep_floor (sweep_multiple * Int_tbl.length tbl.memo))

(* Mark: from each root, follow tail links through this table's
   undecided live nodes down to the first node whose fate is settled:
   [Empty] or a node kept by this sweep (the walked nodes are kept), or a
   node rejected or walked dead by this sweep (they are rejected).  A
   node swept before, or one of another table, rejects the walked nodes
   above it, and the walk goes on below it: its memoised suffix can
   still be kept.  Every node of the table is walked at most once per
   sweep, so a shared suffix costs one mark read.  The kept set is the
   memo nodes on root chains that reach [Empty] through memo nodes only;
   a node consed onto a swept tail is dropped. *)
let sweep tbl =
  tbl.epoch <- tbl.epoch + 1;
  let tag = tbl.tag in
  let kept = tag lor tbl.epoch and gone = tag lor dead_bit lor tbl.epoch in
  let rec stamp p stop fate =
    if p != stop then
      match p with
      | Node n ->
        n.mark <- fate;
        stamp n.tail stop fate
      | Empty -> ()
  in
  (* [top] down to [p] (excluded): this table's live nodes, undecided. *)
  let rec walk top p =
    match p with
    | Empty -> stamp top p kept
    | Node n ->
      let m = n.mark in
      if m >= tag && m < kept then walk top n.tail
      else if m = kept then stamp top p kept
      else begin
        stamp top p gone;
        if m <> gone then begin
          if m >= tag lor dead_bit && m < gone then n.mark <- gone;
          walk n.tail n.tail
        end
      end
  in
  List.iter (fun iter -> iter (fun p -> walk p p)) tbl.roots;
  Int_tbl.filter_map_inplace
    (fun _ p ->
      match p with
      | Node n when n.mark = kept -> Some p
      | Node n ->
        n.mark <- gone;
        None
      | Empty -> None)
    tbl.memo;
  rearm tbl

let add_roots tbl iter =
  tbl.roots <- iter :: tbl.roots;
  rearm tbl

let cons tbl asn tail =
  if asn < 0 || asn > max_asn then invalid_arg "Path.cons: AS id out of range";
  let key = key_of (id tail) asn in
  match Int_tbl.find tbl.memo key with
  | Node n as p when n.tail == tail ->
    tbl.hits <- tbl.hits + 1;
    p
  | Node _ | Empty ->
    (* The key only identifies [tail] within [tbl]; a tail interned
       elsewhere can collide on id. *)
    invalid_arg "Path.cons: tail was interned in a different table"
  | exception Not_found ->
    if Int_tbl.length tbl.memo >= tbl.sweep_at then sweep tbl;
    let p =
      Node
        {
          id = tbl.next_id;
          head = asn;
          tail;
          len = length tail + 1;
          bits = bits tail lor (1 lsl (asn mod 62));
          mark = tbl.tag;
        }
    in
    tbl.next_id <- tbl.next_id + 1;
    Int_tbl.replace tbl.memo key p;
    p

let of_list tbl l = List.fold_right (fun asn acc -> cons tbl asn acc) l empty

let rec intern tbl = function Empty -> Empty | Node n -> cons tbl n.head (intern tbl n.tail)

let rec hops = function Empty -> [] | Node n -> n.head :: hops n.tail

let rec fold_hops f acc = function
  | Empty -> acc
  | Node n -> fold_hops f (f acc n.head) n.tail

let rec mem_hops (asn : int) = function
  | Empty -> false
  | Node n -> n.head = asn || mem_hops asn n.tail

let contains p asn = asn >= 0 && bits p land (1 lsl (asn mod 62)) <> 0 && mem_hops asn p

let rec eq_hops a b =
  a == b
  ||
  match (a, b) with
  | Node x, Node y -> x.head = y.head && eq_hops x.tail y.tail
  | Empty, _ | Node _, _ -> false

let equal a b = a == b || (length a = length b && bits a = bits b && eq_hops a b)

let pp ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") int) (hops p)

let unique_count tbl = tbl.next_id - 1
let hit_count tbl = tbl.hits

type table_stats = {
  nodes : int;
  hops_total : int;
  sharing : float;
  approx_bytes : int;
}

(* Word model: per memo node, the [Node] block (header + 6 fields = 7
   words) and its memo bucket (header + key, data, next = 4 words), 11
   words; plus the memo's bucket array (one word per bucket + header).
   [hops_total] is what the paths would occupy as naive int lists (3
   words per hop); [sharing] is hops per node, >= 1, higher = more tail
   sharing. *)
let table_stats tbl =
  let word = Sys.word_size / 8 in
  let hops_total = Int_tbl.fold (fun _ p acc -> acc + length p) tbl.memo 0 in
  let nodes = Int_tbl.length tbl.memo in
  let buckets = (Int_tbl.stats tbl.memo).Hashtbl.num_buckets in
  let sharing =
    if nodes = 0 then 1.0 else float_of_int hops_total /. float_of_int nodes
  in
  { nodes; hops_total; sharing; approx_bytes = ((nodes * 11) + buckets + 1) * word }
