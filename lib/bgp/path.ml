type t = {
  id : int;  (* unique within the owning table, never reused; 0 = empty *)
  hops : int list;  (* spine shared with the tail node: hops = head :: tail.hops *)
  len : int;
  bits : int;  (* membership bitset: bit (asn mod 62) of every hop *)
}

let empty = { id = 0; hops = []; len = 0; bits = 0 }

(* The memo hashes its packed int keys inline: a multiply-xorshift mix
   instead of the generic [Hashtbl.hash] C call, and [Int.equal] instead
   of polymorphic compare on every bucket probe. *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x1F3D5B79A9E3779B in
    (h lxor (h lsr 31)) land max_int
end)

type table = {
  memo : t Memo.t;  (* key = tail id * 2^22 + head asn *)
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
  { memo = Memo.create 1024; next_id = 1; hits = 0; roots = []; sweep_at = max_int }

(* Memo keys pack (tail id, head asn) into one int, so the hot probe hashes
   an immediate instead of a tuple.  22 bits cover any AS number this
   simulator generates (destinations are AS ids); 41 bits of id space is
   unreachable in practice. *)
let asn_bits = 22
let max_asn = (1 lsl asn_bits) - 1
let key_of tail_id asn = (tail_id lsl asn_bits) lor asn

let rearm tbl =
  tbl.sweep_at <-
    (match tbl.roots with
    | [] -> max_int
    | _ :: _ -> max sweep_floor (sweep_multiple * Memo.length tbl.memo))

(* Mark: resolve every root's spine bottom up through the memo, recording
   the ids of the memo nodes found on it.  A suffix whose node is no
   longer memoised (swept while it was in flight) ends the walk: the
   nodes above it were keyed by an id the memo has forgotten, so they
   cannot be kept either.  [seen] maps a node id to whether it is kept;
   roots that failed to resolve are remembered as [false] so shared roots
   are walked once. *)
let sweep tbl =
  let seen = Memo.create (Memo.length tbl.memo / 2) in
  let rec resolve hops =
    match hops with
    | [] -> 0
    | asn :: rest -> (
      let tail = resolve rest in
      if tail < 0 then -1
      else
        match Memo.find tbl.memo (key_of tail asn) with
        | p when p.hops == hops ->
          Memo.replace seen p.id true;
          p.id
        | _ -> -1
        | exception Not_found -> -1)
  in
  let visit p =
    if p.len > 0 && not (Memo.mem seen p.id) then
      if resolve p.hops < 0 then Memo.replace seen p.id false
  in
  List.iter (fun iter -> iter visit) tbl.roots;
  Memo.filter_map_inplace
    (fun _ p ->
      match Memo.find seen p.id with
      | true -> Some p
      | false | (exception Not_found) -> None)
    tbl.memo;
  rearm tbl

let add_roots tbl iter =
  tbl.roots <- iter :: tbl.roots;
  rearm tbl

let cons tbl asn tail =
  if asn < 0 || asn > max_asn then invalid_arg "Path.cons: AS id out of range";
  let key = key_of tail.id asn in
  match Memo.find tbl.memo key with
  | p ->
    (* The key only identifies [tail] within [tbl]; a tail interned
       elsewhere could collide on id, so confirm spine sharing. *)
    (match p.hops with
    | _ :: rest when rest == tail.hops ->
      tbl.hits <- tbl.hits + 1;
      p
    | _ -> invalid_arg "Path.cons: tail was interned in a different table")
  | exception Not_found ->
    if Memo.length tbl.memo >= tbl.sweep_at then sweep tbl;
    let p =
      {
        id = tbl.next_id;
        hops = asn :: tail.hops;
        len = tail.len + 1;
        bits = tail.bits lor (1 lsl (asn mod 62));
      }
    in
    tbl.next_id <- tbl.next_id + 1;
    Memo.replace tbl.memo key p;
    p

let of_list tbl l = List.fold_right (fun asn acc -> cons tbl asn acc) l empty

let hops p = p.hops
let length p = p.len
let is_empty p = p.len = 0
let id p = p.id

let rec mem_int (asn : int) = function
  | [] -> false
  | x :: tl -> x = asn || mem_int asn tl

let contains p asn =
  asn >= 0 && p.bits land (1 lsl (asn mod 62)) <> 0 && mem_int asn p.hops

let rec eq_hops (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> x = y && eq_hops xs ys
  | _ -> false

let equal a b = a == b || (a.len = b.len && a.bits = b.bits && eq_hops a.hops b.hops)

let pp ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") int) p.hops

let unique_count tbl = tbl.next_id - 1
let hit_count tbl = tbl.hits

type table_stats = {
  nodes : int;
  hops_total : int;
  sharing : float;
  approx_bytes : int;
}

(* Word model per interned node: path record (5 words incl. header) +
   one cons cell of the shared spine (3) + memo bucket cons (3) = 11
   words.  [hops_total] is what the paths would occupy as naive int
   lists (3 words per hop); [sharing] is that naive cost over the
   actual shared-spine cost, >= 1, higher = more tail sharing. *)
let table_stats tbl =
  let word = Sys.word_size / 8 in
  let hops_total = Memo.fold (fun _ p acc -> acc + p.len) tbl.memo 0 in
  let nodes = Memo.length tbl.memo in
  let sharing =
    if nodes = 0 then 1.0 else float_of_int hops_total /. float_of_int nodes
  in
  { nodes; hops_total; sharing; approx_bytes = nodes * 11 * word }
