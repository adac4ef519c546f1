open Types

type entry = {
  peer : router_id;
  kind : session_kind;
  path : path;
  rel : relationship option;
}
type best = Local | Learned of entry

(* Packed ranking key: one int, lower is better, ordering identical to the
   lexicographic tuple (pref, len, kind, peer).  Layout (low to high):

     bits 0..30   peer id + 1        (Local's "peer -1" packs to 0)
     bit  31      session kind       (0 = eBGP, 1 = iBGP)
     bits 32..55  AS-path length     (24 bits)
     bits 56..57  preference class   (customer 0 / peer 1 / provider 2)

   Local therefore packs to 0, strictly below every learned route.  The
   key is precomputed at Adj-RIB-In insertion, so [select] compares plain
   ints and [decide] never allocates rank tuples. *)

let max_peer = (1 lsl 31) - 2
let max_len = (1 lsl 24) - 1

let pack ~pref ~len ~kind ~peer =
  if len > max_len then invalid_arg "Rib: AS path too long to rank";
  if peer < -1 || peer > max_peer then invalid_arg "Rib: peer id out of rank range";
  (pref lsl 56)
  lor (len lsl 32)
  lor ((match kind with Ebgp -> 0 | Ibgp -> 1) lsl 31)
  lor (peer + 1)

let packed_rank = function
  | Local -> 0
  | Learned { peer; kind; path; rel } ->
    pack ~pref:(preference_of_relationship rel) ~len:(path_length path) ~kind ~peer

let rank = function
  | Local -> (0, 0, 0, -1)
  | Learned { peer; kind; path; rel } ->
    ( preference_of_relationship rel,
      path_length path,
      (match kind with Ebgp -> 0 | Ibgp -> 1),
      peer )

(* Adj-RIB-In slot key: the packed rank shifted up one bit, the low bit
   set iff the entry carries a relationship.  The rank alone cannot tell
   [None] from [Some Customer] (both preference 0); with the extra bit the
   key encodes the whole entry except its path, so a slot is two words
   (key, path) and [set_in] allocates nothing.  Keys within one
   destination differ in the peer bits, so the low bit never decides an
   ordering.  [vacant] marks an empty slot and sorts after every key. *)
let vacant = max_int

let slot_key ~kind ~peer ~rel path =
  (pack ~pref:(preference_of_relationship rel) ~len:(path_length path) ~kind ~peer lsl 1)
  lor match rel with None -> 0 | Some _ -> 1

let entry_key e = slot_key ~kind:e.kind ~peer:e.peer ~rel:e.rel e.path

let entry_of_key key path =
  let rank = key lsr 1 in
  {
    peer = (rank land ((1 lsl 31) - 1)) - 1;
    kind = (if rank land (1 lsl 31) = 0 then Ebgp else Ibgp);
    path;
    rel =
      (if key land 1 = 0 then None
       else
         match rank lsr 56 with
         | 0 -> Some Customer
         | 1 -> Some Peer_link
         | _ -> Some Provider);
  }

(* Flat layout.  Destinations are dense ints, so every per-destination
   table is an array indexed by destination, grown by doubling.  Each
   peer gets a slot the first time it is seen; the Adj-RIB-In is one row
   of [width] slots per destination, stored as two parallel arrays
   (slot keys and paths) at [dest * width + slot].  A new peer widens
   every row (rare: peers are seen during warm-up).  The Loc-RIB is two
   more arrays indexed by destination: the selection's slot key
   ([vacant] when there is none, [local_key] for a local route) and its
   path, so [decide] writes two words when the selection changes and
   allocates nothing. *)
module Peers = Int_tbl

type t = {
  asn : as_id;
  slot_of_peer : int Peers.t;  (* peer id -> slot *)
  mutable width : int;  (* slots per destination row = peers seen *)
  mutable cap : int;  (* destinations with a row *)
  mutable keys : int array;  (* cap * width slot keys, [vacant] if empty *)
  mutable paths : path array;  (* cap * width; [Path.empty] if empty *)
  mutable loc_key : int array;  (* Loc-RIB selection key per destination *)
  mutable loc_path : path array;  (* its path; [Path.empty] if none or local *)
  mutable flags : Bytes.t;  (* per destination: [local] / [touched] bits *)
  mutable entries : int;
  mutable loc_count : int;
}

let local_bit = 1
let touched_bit = 2  (* has had an Adj-RIB-In entry *)

let create ~asn =
  {
    asn;
    slot_of_peer = Peers.create 8;
    width = 0;
    cap = 0;
    keys = [||];
    paths = [||];
    loc_key = [||];
    loc_path = [||];
    flags = Bytes.empty;
    entries = 0;
    loc_count = 0;
  }

let asn t = t.asn

(* Re-lay the slot arrays for [cap] rows of [width] slots. *)
let relayout t ~cap ~width =
  let keys = Array.make (cap * width) vacant in
  let paths = Array.make (cap * width) Path.empty in
  for d = 0 to t.cap - 1 do
    Array.blit t.keys (d * t.width) keys (d * width) t.width;
    Array.blit t.paths (d * t.width) paths (d * width) t.width
  done;
  t.keys <- keys;
  t.paths <- paths;
  t.width <- width

let reserve t dest =
  if dest < 0 then invalid_arg "Rib: negative destination";
  if dest >= t.cap then begin
    let cap = max (dest + 1) (2 * t.cap) in
    relayout t ~cap ~width:t.width;
    let loc_key = Array.make cap vacant and loc_path = Array.make cap Path.empty in
    Array.blit t.loc_key 0 loc_key 0 t.cap;
    Array.blit t.loc_path 0 loc_path 0 t.cap;
    let flags = Bytes.make cap '\000' in
    Bytes.blit t.flags 0 flags 0 t.cap;
    t.loc_key <- loc_key;
    t.loc_path <- loc_path;
    t.flags <- flags;
    t.cap <- cap
  end

let slot t peer =
  match Peers.find t.slot_of_peer peer with
  | s -> s
  | exception Not_found ->
    let s = t.width in
    relayout t ~cap:t.cap ~width:(s + 1);
    Peers.replace t.slot_of_peer peer s;
    s

let flag t dest bit =
  dest >= 0 && dest < t.cap && Char.code (Bytes.get t.flags dest) land bit <> 0

let set_flag t dest bit on =
  let f = Char.code (Bytes.get t.flags dest) in
  Bytes.set t.flags dest (Char.chr (if on then f lor bit else f land lnot bit))

let originate t dest =
  reserve t dest;
  set_flag t dest local_bit true

let unoriginate t dest = if flag t dest local_bit then set_flag t dest local_bit false
let originates t dest = flag t dest local_bit

let set_in t dest ~peer ~kind ?rel path =
  if path_contains path t.asn then
    invalid_arg "Rib.set_in: path contains our own AS (loop check is the caller's job)";
  let key = slot_key ~kind ~peer ~rel path in
  reserve t dest;
  let i = (dest * t.width) + slot t peer in
  if t.keys.(i) = vacant then t.entries <- t.entries + 1;
  t.keys.(i) <- key;
  t.paths.(i) <- path;
  set_flag t dest touched_bit true

(* Empty slot [i], dropping its path so the row keeps no dead path
   reachable. *)
let vacate t i =
  if t.keys.(i) <> vacant then begin
    t.keys.(i) <- vacant;
    t.paths.(i) <- Path.empty;
    t.entries <- t.entries - 1
  end

let withdraw_in t dest ~peer =
  if dest >= 0 && dest < t.cap then
    match Peers.find t.slot_of_peer peer with
    | s -> vacate t ((dest * t.width) + s)
    | exception Not_found -> ()

let drop_peer t ~peer =
  match Peers.find t.slot_of_peer peer with
  | exception Not_found -> []
  | s ->
    let acc = ref [] in
    for dest = t.cap - 1 downto 0 do
      let i = (dest * t.width) + s in
      if t.keys.(i) <> vacant then begin
        vacate t i;
        acc := dest :: !acc
      end
    done;
    !acc

let entries_in t dest =
  if dest < 0 || dest >= t.cap then []
  else begin
    let acc = ref [] in
    for i = dest * t.width to ((dest + 1) * t.width) - 1 do
      if t.keys.(i) <> vacant then acc := (t.keys.(i), t.paths.(i)) :: !acc
    done;
    List.map
      (fun (key, path) -> entry_of_key key path)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc)
  end

(* A selection key's facts the export filters read.  [local_key] (0) is
   the local route: below every learned key, whose peer bits are at
   least 1.  In a slot key the session-kind bit is bit 32 and the
   preference class sits from bit 57; a key is restricted iff it carries
   a relationship of class peer or provider. *)
let local_key = 0
let no_selection = vacant
let key_ibgp_exportable key = key = local_key || key land (1 lsl 32) = 0
let key_restricted key = key land 1 = 1 && key lsr 57 >= 1

let key_of_best = function Local -> local_key | Learned e -> entry_key e

(* The minimum slot key of the row is the selection: keys are unique
   within a row (the peer id is part of the key), so the scan order
   cannot matter.  Returns the row index of the minimum, or -1. *)
let select t dest =
  let best = ref (-1) and best_key = ref vacant in
  for i = dest * t.width to ((dest + 1) * t.width) - 1 do
    let k = t.keys.(i) in
    if k < !best_key then begin
      best_key := k;
      best := i
    end
  done;
  !best

(* Two selections are export-equivalent iff they agree on the advertised
   path and on iBGP re-exportability; a local route counts as the empty
   path and exportable. *)
let same_export ka pa kb pb =
  if ka = vacant || kb = vacant then ka = kb
  else path_equal pa pb && key_ibgp_exportable ka = key_ibgp_exportable kb

let decide t dest =
  reserve t dest;
  let key, path =
    if flag t dest local_bit then (local_key, Path.empty)
    else
      let i = select t dest in
      if i < 0 then (vacant, Path.empty) else (t.keys.(i), t.paths.(i))
  in
  let before_key = t.loc_key.(dest) and before_path = t.loc_path.(dest) in
  if key = before_key && path == before_path then false
  else begin
    if before_key = vacant then t.loc_count <- t.loc_count + 1
    else if key = vacant then t.loc_count <- t.loc_count - 1;
    t.loc_key.(dest) <- key;
    t.loc_path.(dest) <- path;
    not (same_export before_key before_path key path)
  end

let selection_key t dest = if dest >= 0 && dest < t.cap then t.loc_key.(dest) else vacant
let selection_path t dest = if dest >= 0 && dest < t.cap then t.loc_path.(dest) else Path.empty

let best t dest =
  let key = selection_key t dest in
  if key = vacant then None
  else if key = local_key then Some Local
  else Some (Learned (entry_of_key key t.loc_path.(dest)))

let best_path t dest =
  let key = selection_key t dest in
  if key = vacant then None else Some t.loc_path.(dest)

let loc_size t = t.loc_count
let in_entries t = t.entries

let iter_paths t f =
  for i = 0 to (t.cap * t.width) - 1 do
    if t.keys.(i) <> vacant then f t.paths.(i)
  done;
  for dest = 0 to t.cap - 1 do
    if t.loc_key.(dest) <> vacant then f t.loc_path.(dest)
  done

(* Estimated resident size in bytes.  A fixed word model over the
   layout's capacities and counts, not a heap walk, so the number is
   deterministic (it depends only on what the router was told, never on
   hashing or GC state) and cheap to take mid-run:
     record          header + 11 fields (12)
     peer index      Hashtbl header (5) + bucket array (8 + 1)
                     + one bucket cons (4) per peer
     slot arrays     two arrays of cap * width words, one header each
     Loc-RIB         two arrays of cap words (key, path), one header each
     flags           one byte per destination, rounded up, + header
   AS-path storage is shared through the hashcons table and accounted
   there ([Path.table_stats]), not per RIB. *)
let approx_bytes t =
  let word = Sys.word_size / 8 in
  let words =
    12
    + (14 + (4 * t.width))
    + (2 * ((t.cap * t.width) + 1))
    + (2 * (t.cap + 1))
    + (((t.cap + word - 1) / word) + 1)
  in
  words * word

let visible t dest = t.loc_key.(dest) <> vacant || Bytes.get t.flags dest <> '\000'

let num_dests t =
  let n = ref 0 in
  for dest = 0 to t.cap - 1 do
    if visible t dest then incr n
  done;
  !n

let iter_dests t f =
  for dest = 0 to t.cap - 1 do
    if visible t dest then f dest
  done
