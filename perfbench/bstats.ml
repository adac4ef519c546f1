(* Order statistics for the benchmark's reports.

   Two conventions, both fixed so numbers compare across runs:
   - percentiles are nearest-rank over the sorted sample, and a tail
     percentile is only reported when at least [min_beyond] samples lie
     above its rank — a p99 of 300 requests is three samples, not a tail;
   - quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
     default "exclusive" method), which is how the run-to-run spread of
     a metric is judged. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Rank (1-based) of the nearest-rank [p]-th percentile of [n] samples. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Bstats.percentile: empty sample"
  | _ ->
    if p <= 0.0 || p > 100.0 then invalid_arg "Bstats.percentile: p outside (0, 100]";
    let a = sorted xs in
    a.(min (Array.length a) (rank ~n:(Array.length a) p) - 1)

(* Whether the [p]-th percentile of [xs] is a tail the sample supports. *)
let supports xs p =
  let n = List.length xs in
  n > 0 && n - rank ~n p >= min_beyond

let median xs =
  match xs with
  | [] -> invalid_arg "Bstats.median: empty sample"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method="exclusive"). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Bstats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let iqr_share xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
