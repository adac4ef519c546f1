(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh int64 on every draw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t
let split t = of_state (mix (next t))
let copy = Bytes.copy

let[@inline] float t =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
