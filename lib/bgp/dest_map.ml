type 'a t = {
  mutable keys : int array;  (* ascending; the first [len] are live *)
  mutable values : 'a array;
  mutable times : Float.Array.t;
  mutable len : int;
}

(* Capacity kept by [clear]; a map that grew past it gives its arrays
   back, so a burst of pending destinations does not pin its peak size
   for the rest of the run. *)
let kept_capacity = 16

let create () = { keys = [||]; values = [||]; times = Float.Array.create 0; len = 0 }

let length t = t.len

let rec search keys dest lo hi =
  if lo > hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let k = keys.(mid) in
    if k = dest then mid
    else if k < dest then search keys dest (mid + 1) hi
    else search keys dest lo (mid - 1)

let find t dest = search t.keys dest 0 (t.len - 1)
let mem t dest = find t dest >= 0
let key t i = t.keys.(i)
let value t i = t.values.(i)
let time t i = Float.Array.get t.times i

(* [fill] is the value about to be inserted: the value array needs an
   initial element and the map has no other to hand when empty. *)
let resize t cap fill =
  let keys = Array.make cap 0 and values = Array.make cap fill in
  let times = Float.Array.make cap 0.0 in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  Float.Array.blit t.times 0 times 0 t.len;
  t.keys <- keys;
  t.values <- values;
  t.times <- times

let set t dest v time =
  let i = find t dest in
  if i >= 0 then begin
    t.values.(i) <- v;
    Float.Array.set t.times i time
  end
  else begin
    let i = -1 - i and n = t.len in
    if n = Array.length t.keys then resize t (max 4 (2 * n)) v;
    Array.blit t.keys i t.keys (i + 1) (n - i);
    Array.blit t.values i t.values (i + 1) (n - i);
    Float.Array.blit t.times i t.times (i + 1) (n - i);
    t.keys.(i) <- dest;
    t.values.(i) <- v;
    Float.Array.set t.times i time;
    t.len <- n + 1
  end

let remove t dest =
  let i = find t dest in
  if i >= 0 then begin
    let n = t.len - 1 in
    Array.blit t.keys (i + 1) t.keys i (n - i);
    Array.blit t.values (i + 1) t.values i (n - i);
    Float.Array.blit t.times (i + 1) t.times i (n - i);
    t.len <- n
  end

let clear t =
  if Array.length t.keys > kept_capacity then begin
    t.keys <- [||];
    t.values <- [||];
    t.times <- Float.Array.create 0
  end;
  t.len <- 0
