(* Unit and property tests for the discrete-event engine. *)

module Rng = Bgp_engine.Rng
module Dist = Bgp_engine.Dist
module Heap = Bgp_engine.Heap
module Sched = Bgp_engine.Scheduler
module Stats = Bgp_engine.Stats

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    checkb "same stream" true (Rng.float a = Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.float a = Rng.float b then incr same
  done;
  checkb "different seeds diverge" true (!same < 5)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:3.0 ~hi:5.0 in
    checkb "in [3,5)" true (x >= 3.0 && x < 5.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 9 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    checkb "in [0,10)" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  checkb "all values hit" true (Array.for_all Fun.id seen)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* Drawing from b must not change a's future stream. *)
  let a' = Rng.copy a in
  for _ = 1 to 10 do
    ignore (Rng.float b)
  done;
  checkb "split stream is independent" true (Rng.float a = Rng.float a')

let test_rng_mean () =
  let rng = Rng.create 11 in
  let stats = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add stats (Rng.float rng)
  done;
  checkb "mean near 0.5" true (Float.abs (Stats.mean stats -. 0.5) < 0.01)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "a permutation" (Array.init 50 Fun.id) sorted

(* Known answers: the first draws of [Rng.create 42].  Every seeded
   result in the repository depends on this stream, so a change to the
   generator's representation must reproduce it exactly. *)
let test_rng_known_answers () =
  let t = Rng.create 42 in
  List.iter
    (fun want -> check Alcotest.int64 "int64 draw" want (Rng.int64 t))
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L; 885919558081284366L ];
  let t = Rng.create 42 in
  List.iter
    (fun want -> checkb (Printf.sprintf "float draw %h" want) true (Rng.float t = want))
    [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3 ];
  let t = Rng.create 42 in
  List.iter (fun want -> checki "int draw" want (Rng.int t 1000)) [ 140; 595; 570 ]

(* A draw does not box the generator state: [Rng.float] allocates only
   its float result (2 words), [Rng.int] nothing. *)
let test_rng_draws_do_not_box_state () =
  let t = Rng.create 1 in
  let draws = 10_000 in
  let sum = ref 0.0 and acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    sum := !sum +. Rng.float t
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to draws do
    acc := !acc + Rng.int t 1000
  done;
  let w2 = Gc.minor_words () in
  let per w = w /. float_of_int draws in
  checkb
    (Printf.sprintf "float: %.2f words per draw <= 2" (per (w1 -. w0)))
    true
    (per (w1 -. w0) <= 2.01);
  checkb
    (Printf.sprintf "int: %.2f words per draw = 0" (per (w2 -. w1)))
    true
    (per (w2 -. w1) < 0.01);
  checkb "draws used" true (!sum > 0.0 && !acc > 0)

(* --- Dist --------------------------------------------------------------- *)

let test_dist_uniform_bounds () =
  let rng = Rng.create 1 in
  let d = Dist.Uniform { lo = 0.001; hi = 0.030 } in
  for _ = 1 to 10_000 do
    let x = Dist.sample d rng in
    checkb "in bounds" true (x >= 0.001 && x < 0.030)
  done

let test_dist_means_match_samples () =
  let rng = Rng.create 2 in
  let dists =
    [
      Dist.Constant 4.2;
      Dist.Uniform { lo = 1.0; hi = 3.0 };
      Dist.Exponential { mean = 2.0 };
      Dist.Bounded_pareto { alpha = 1.2; lo = 1.0; hi = 100.0 };
      Dist.Discrete [| (1.0, 5.0); (3.0, 1.0) |];
    ]
  in
  List.iter
    (fun d ->
      let stats = Stats.create ~keep_samples:false () in
      for _ = 1 to 200_000 do
        Stats.add stats (Dist.sample d rng)
      done;
      let analytic = Dist.mean d in
      let measured = Stats.mean stats in
      if Float.abs (measured -. analytic) > 0.05 *. Float.max 1.0 analytic then
        Alcotest.failf "mean mismatch for %a: analytic %g, measured %g" Dist.pp d
          analytic measured)
    dists

let test_dist_pareto_bounds () =
  let rng = Rng.create 3 in
  let d = Dist.Bounded_pareto { alpha = 1.2; lo = 1.0; hi = 100.0 } in
  for _ = 1 to 10_000 do
    let x = Dist.sample d rng in
    checkb "within [lo, hi]" true (x >= 1.0 && x <= 100.0)
  done

let test_dist_discrete_support () =
  let rng = Rng.create 4 in
  let d = Dist.Discrete [| (1.0, 2.0); (1.0, 7.0) |] in
  for _ = 1 to 1000 do
    let x = Dist.sample d rng in
    checkb "on support" true (x = 2.0 || x = 7.0)
  done

(* --- Heap --------------------------------------------------------------- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  List.iter (Heap.push h) input;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check Alcotest.(list int) "sorted output" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare in
  checkb "is_empty" true (Heap.is_empty h);
  checkb "pop None" true (Heap.pop h = None);
  checkb "peek None" true (Heap.peek h = None);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_peek () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 5;
  Heap.push h 2;
  Heap.push h 9;
  checkb "peek is min" true (Heap.peek h = Some 2);
  checki "length unchanged" 3 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun input ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) input;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare input)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap peek = min of live elements under interleaving"
    ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := x :: !model;
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some y, l when l <> [] ->
              let min_l = List.fold_left Stdlib.min (List.hd l) l in
              if y = min_l then begin
                (* remove one occurrence *)
                let rec remove = function
                  | [] -> []
                  | z :: rest -> if z = y then rest else z :: remove rest
                in
                model := remove l;
                true
              end
              else false
            | _ -> false)
        ops)

let test_heap_drain_shrinks_and_reuses () =
  (* A full drain walks pop_exn through every shrink step; the order must
     survive the reallocations and the heap must stay usable afterwards. *)
  let h = Heap.create ~cmp:Int.compare in
  for i = 0 to 999 do
    Heap.push h (i * 7 mod 1000)
  done;
  let prev = ref min_int in
  for _ = 1 to 1000 do
    let x = Heap.pop_exn h in
    checkb "nondecreasing across shrinks" true (x >= !prev);
    prev := x
  done;
  checkb "empty after drain" true (Heap.is_empty h);
  Alcotest.check_raises "pop_exn raises when drained"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () -> ignore (Heap.pop_exn h));
  List.iter (Heap.push h) [ 3; 1; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check Alcotest.(list int) "reusable after drain" [ 1; 2; 3 ] (drain [])

(* --- Scheduler ----------------------------------------------------------- *)

let test_scheduler_order () =
  let s = Sched.create () in
  let log = ref [] in
  ignore (Sched.schedule s ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Sched.schedule s ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sched.schedule s ~delay:2.0 (fun () -> log := 2 :: !log));
  Sched.run s;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3.0 (Sched.now s)

let test_scheduler_tie_break_fifo () =
  let s = Sched.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sched.schedule s ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sched.run s;
  check Alcotest.(list int) "FIFO among ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_scheduler_cancel () =
  let s = Sched.create () in
  let fired = ref false in
  let id = Sched.schedule s ~delay:1.0 (fun () -> fired := true) in
  Sched.cancel s id;
  Sched.run s;
  checkb "cancelled event did not fire" false !fired;
  checki "no pending" 0 (Sched.pending s)

let test_scheduler_cancel_twice_ok () =
  let s = Sched.create () in
  let id = Sched.schedule s ~delay:1.0 (fun () -> ()) in
  Sched.cancel s id;
  Sched.cancel s id;
  Sched.run s;
  checki "empty" 0 (Sched.pending s)

let test_scheduler_nested_schedule () =
  let s = Sched.create () in
  let log = ref [] in
  ignore
    (Sched.schedule s ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Sched.schedule s ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Sched.run s;
  check Alcotest.(list string) "nested order" [ "outer"; "inner" ] (List.rev !log);
  checkf "clock" 1.5 (Sched.now s)

let test_scheduler_until () =
  let s = Sched.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sched.schedule s ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sched.run ~until:5.5 s;
  checki "events up to limit" 5 !count;
  checki "rest pending" 5 (Sched.pending s);
  Sched.run s;
  checki "all eventually" 10 !count

let test_scheduler_past_rejected () =
  let s = Sched.create () in
  ignore (Sched.schedule s ~delay:2.0 (fun () -> ()));
  Sched.run s;
  checkb "schedule_at in past raises" true
    (try
       ignore (Sched.schedule_at s ~time:1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_scheduler_zero_delay () =
  let s = Sched.create () in
  let log = ref [] in
  ignore (Sched.schedule s ~delay:1.0 (fun () ->
      ignore (Sched.schedule s ~delay:0.0 (fun () -> log := "zero" :: !log));
      log := "first" :: !log));
  Sched.run s;
  check Alcotest.(list string) "zero-delay runs after current" [ "first"; "zero" ]
    (List.rev !log)

(* Model check for the slab scheduler: random push/cancel/step sequences
   against a naive sorted-list model.  Exercises slot reuse (cancel frees
   a slot, the next push reclaims it), stale-id cancellation, and the
   (time, seq) tie-break. *)
let prop_scheduler_model =
  QCheck.Test.make ~name:"scheduler matches a sorted-list model (push/cancel/step)"
    ~count:300
    QCheck.(list (pair (int_bound 3) (pair small_nat (float_bound_inclusive 10.0))))
    (fun ops ->
      let s = Sched.create () in
      let fired = ref [] in
      let model = ref [] in
      (* every id ever issued, newest first; cancels target these so both
         live and stale ids get exercised *)
      let issued = ref [] in
      let next_seq = ref 0 in
      let ok = ref true in
      let model_min () =
        match !model with
        | [] -> None
        | hd :: tl ->
          Some
            (List.fold_left
               (fun ((bt, bs, _) as best) ((t, sq, _) as e) ->
                 if t < bt || (t = bt && sq < bs) then e else best)
               hd tl)
      in
      List.iter
        (fun (op, (k, d)) ->
          if !ok then begin
            (match op with
            | 0 | 1 ->
              let seq = !next_seq in
              incr next_seq;
              let id = Sched.schedule s ~delay:d (fun () -> fired := seq :: !fired) in
              model := (Sched.now s +. d, seq, id) :: !model;
              issued := id :: !issued
            | 2 ->
              if !issued <> [] then begin
                let id = List.nth !issued (k mod List.length !issued) in
                Sched.cancel s id;
                model := List.filter (fun (_, _, i) -> i <> id) !model
              end
            | _ -> (
              match model_min () with
              | None -> if Sched.step s then ok := false
              | Some (t, seq, id) ->
                if not (Sched.step s) then ok := false
                else begin
                  (match !fired with
                  | f :: _ when f = seq -> ()
                  | _ -> ok := false);
                  if Sched.now s <> t then ok := false;
                  model := List.filter (fun (_, _, i) -> i <> id) !model
                end));
            if Sched.pending s <> List.length !model then ok := false
          end)
        ops;
      !ok)

(* Closure events and typed events share one heap, one (time, seq)
   order and one id space.  Random mixes of both kinds (relative and
   absolute time), cancels of live and stale ids, single steps, bounded
   runs and bursts that grow the slab past its initial 256 slots, checked
   against a reference sorted by (time, seq). *)
let prop_scheduler_mixed_kinds =
  QCheck.Test.make ~name:"closure and typed events interleave in (time, seq) order"
    ~count:200
    QCheck.(list (pair (int_bound 8) (pair small_nat (float_bound_inclusive 10.0))))
    (fun ops ->
      let s = Sched.create () in
      let fired = ref [] in
      let record seq = fired := seq :: !fired in
      (* reference: (time, seq, id) of every live event *)
      let model = ref [] in
      let issued = ref [] in
      let next_seq = ref 0 in
      let ok = ref true in
      let push ~typed ~absolute d =
        let seq = !next_seq in
        incr next_seq;
        let time = Sched.now s +. d in
        let id =
          match (typed, absolute) with
          | false, false -> Sched.schedule s ~delay:d (fun () -> record seq)
          | false, true -> Sched.schedule_at s ~time (fun () -> record seq)
          | true, false -> Sched.schedule_arg s ~delay:d record seq
          | true, true -> Sched.schedule_arg_at s ~time record seq
        in
        model := (time, seq, id) :: !model;
        issued := id :: !issued
      in
      let sorted () =
        List.sort (fun (ta, sa, _) (tb, sb, _) -> compare (ta, sa) (tb, sb)) !model
      in
      let remove evs =
        model :=
          List.filter (fun (_, _, i) -> not (List.exists (fun (_, _, j) -> i = j) evs)) !model
      in
      let seqs evs = List.map (fun (_, seq, _) -> seq) evs in
      List.iter
        (fun (op, (k, d)) ->
          if !ok then begin
            (match op with
            | 0 -> push ~typed:false ~absolute:false d
            | 1 -> push ~typed:true ~absolute:false d
            | 2 -> push ~typed:false ~absolute:true d
            | 3 -> push ~typed:true ~absolute:true d
            | 4 ->
              if !issued <> [] then begin
                let id = List.nth !issued (k mod List.length !issued) in
                Sched.cancel s id;
                model := List.filter (fun (_, _, i) -> i <> id) !model
              end
            | 5 -> (
              fired := [];
              match sorted () with
              | [] -> if Sched.step s then ok := false
              | ((t, seq, _) as e) :: _ ->
                if not (Sched.step s) then ok := false
                else begin
                  if !fired <> [ seq ] || Sched.now s <> t then ok := false;
                  remove [ e ]
                end)
            | 6 ->
              let until = Sched.now s +. d in
              let due = List.filter (fun (t, _, _) -> t <= until) (sorted ()) in
              fired := [];
              Sched.run ~until s;
              if List.rev !fired <> seqs due then ok := false;
              remove due
            | _ ->
              (* One burst per case grows the slab past its first 256 slots. *)
              if Sched.slab_capacity s <= 256 then
                for i = 1 to 260 do
                  push ~typed:(i mod 2 = 0) ~absolute:(i mod 3 = 0)
                    (d *. float_of_int ((i + k) mod 7) /. 7.0)
                done);
            if Sched.pending s <> List.length !model then ok := false
          end)
        ops;
      (* Drain what is left: the whole reference, in order. *)
      let rest = sorted () in
      fired := [];
      Sched.run s;
      !ok && List.rev !fired = seqs rest)

let prop_scheduler_executes_in_time_order =
  QCheck.Test.make ~name:"scheduler executes in nondecreasing time order" ~count:100
    QCheck.(list (float_bound_inclusive 100.0))
    (fun delays ->
      let s = Sched.create () in
      let times = ref [] in
      List.iter
        (fun d -> ignore (Sched.schedule s ~delay:d (fun () -> times := Sched.now s :: !times)))
        delays;
      Sched.run s;
      let executed = List.rev !times in
      List.sort Float.compare executed = executed)

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_basic () =
  let t = Stats.create () in
  List.iter (Stats.add t) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.count t);
  checkf "mean" 2.5 (Stats.mean t);
  checkf "min" 1.0 (Stats.min t);
  checkf "max" 4.0 (Stats.max t);
  Alcotest.check (Alcotest.float 1e-6) "variance"
    (5.0 /. 3.0) (Stats.variance t)

let test_stats_percentile () =
  let t = Stats.create () in
  for i = 1 to 100 do
    Stats.add t (float_of_int i)
  done;
  Alcotest.check (Alcotest.float 0.6) "median" 50.5 (Stats.percentile t 0.5);
  checkf "p0" 1.0 (Stats.percentile t 0.0);
  checkf "p100" 100.0 (Stats.percentile t 1.0)

let test_stats_empty () =
  let t = Stats.create () in
  checkf "mean of empty" 0.0 (Stats.mean t);
  checki "count" 0 (Stats.count t)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.0))
    (fun xs ->
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean t -. naive) < 1e-6 *. Float.max 1.0 (Float.abs naive))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "mean" `Quick test_rng_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "draws do not box the state" `Quick
            test_rng_draws_do_not_box_state;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "means match samples" `Quick test_dist_means_match_samples;
          Alcotest.test_case "pareto bounds" `Quick test_dist_pareto_bounds;
          Alcotest.test_case "discrete support" `Quick test_dist_discrete_support;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "drain shrinks and reuses" `Quick
            test_heap_drain_shrinks_and_reuses;
          qc prop_heap_sorts;
          qc prop_heap_interleaved;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "order" `Quick test_scheduler_order;
          Alcotest.test_case "tie-break FIFO" `Quick test_scheduler_tie_break_fifo;
          Alcotest.test_case "cancel" `Quick test_scheduler_cancel;
          Alcotest.test_case "double cancel ok" `Quick test_scheduler_cancel_twice_ok;
          Alcotest.test_case "nested schedule" `Quick test_scheduler_nested_schedule;
          Alcotest.test_case "run until" `Quick test_scheduler_until;
          Alcotest.test_case "past rejected" `Quick test_scheduler_past_rejected;
          Alcotest.test_case "zero delay" `Quick test_scheduler_zero_delay;
          qc prop_scheduler_model;
          qc prop_scheduler_mixed_kinds;
          qc prop_scheduler_executes_in_time_order;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          qc prop_stats_mean_matches_naive;
        ] );
    ]
