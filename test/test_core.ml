(* Tests for the paper's contribution layer: MRAI controllers and the
   batched input queue. *)

module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let load ?(now = 0.0) ?(qlen = 0) ?(mean = 0.0155) ?(util = 0.0) ?(msgs = 0) () =
  {
    Mrai.now;
    queue_length = qlen;
    mean_processing_delay = mean;
    utilization = util;
    updates_in_window = msgs;
  }

(* --- Mrai_controller ------------------------------------------------------- *)

let test_static () =
  let c = Mrai.make (Static 30.0) ~degree:5 in
  checkf "interval" 30.0 (Mrai.current_interval c);
  Mrai.observe c (load ~qlen:10_000 ());
  checkf "static never moves" 30.0 (Mrai.current_interval c);
  checki "level" 0 (Mrai.level c);
  checki "transitions" 0 (Mrai.transitions c)

let test_degree_dependent () =
  let scheme = Mrai.Degree_dependent { threshold = 3; low = 0.5; high = 2.25 } in
  checkf "low-degree node" 0.5 (Mrai.current_interval (Mrai.make scheme ~degree:2));
  checkf "boundary stays low" 0.5 (Mrai.current_interval (Mrai.make scheme ~degree:3));
  checkf "high-degree node" 2.25 (Mrai.current_interval (Mrai.make scheme ~degree:8))

let paper_scheme = Mrai.paper_dynamic ()

let test_dynamic_starts_low () =
  let c = Mrai.make paper_scheme ~degree:8 in
  checkf "starts at the lowest level" 0.5 (Mrai.current_interval c)

let test_dynamic_up_transition () =
  let c = Mrai.make paper_scheme ~degree:8 in
  (* unfinished work = qlen * mean = 50 * 0.0155 = 0.775 > 0.65 *)
  Mrai.observe c (load ~qlen:50 ());
  checkf "one step up" 1.25 (Mrai.current_interval c);
  Mrai.observe c (load ~qlen:50 ());
  checkf "second step up" 2.25 (Mrai.current_interval c);
  Mrai.observe c (load ~qlen:50 ());
  checkf "saturates at the top" 2.25 (Mrai.current_interval c);
  checki "transitions counted" 2 (Mrai.transitions c)

let test_dynamic_down_transition () =
  let c = Mrai.make paper_scheme ~degree:8 in
  Mrai.observe c (load ~qlen:50 ());
  Mrai.observe c (load ~qlen:50 ());
  checki "at top" 2 (Mrai.level c);
  (* work = 2 * 0.0155 = 0.031 < 0.05 *)
  Mrai.observe c (load ~qlen:2 ());
  checki "one step down" 1 (Mrai.level c);
  Mrai.observe c (load ~qlen:2 ());
  Mrai.observe c (load ~qlen:2 ());
  checki "floors at 0" 0 (Mrai.level c)

let test_dynamic_dead_band () =
  let c = Mrai.make paper_scheme ~degree:8 in
  (* work = 20 * 0.0155 = 0.31: between downTh and upTh -> no move *)
  Mrai.observe c (load ~qlen:20 ());
  checki "stays put inside the band" 0 (Mrai.level c)

let test_dynamic_utilization_detector () =
  let scheme =
    Mrai.Dynamic
      {
        levels = [| 0.5; 2.25 |];
        up_threshold = 0.8;
        down_threshold = 0.2;
        detector = Mrai.Utilization;
      }
  in
  let c = Mrai.make scheme ~degree:8 in
  Mrai.observe c (load ~util:0.95 ());
  checki "up on busy CPU" 1 (Mrai.level c);
  Mrai.observe c (load ~util:0.1 ());
  checki "down on idle CPU" 0 (Mrai.level c)

let test_dynamic_message_count_detector () =
  let scheme =
    Mrai.Dynamic
      {
        levels = [| 0.5; 2.25 |];
        up_threshold = 100.0;
        down_threshold = 5.0;
        detector = Mrai.Message_count;
      }
  in
  let c = Mrai.make scheme ~degree:8 in
  Mrai.observe c (load ~msgs:500 ());
  checki "up on message burst" 1 (Mrai.level c);
  Mrai.observe c (load ~msgs:1 ());
  checki "down when quiet" 0 (Mrai.level c)

let test_dynamic_bad_config () =
  checkb "empty levels rejected" true
    (try
       ignore
         (Mrai.make
            (Dynamic
               {
                 levels = [||];
                 up_threshold = 1.0;
                 down_threshold = 0.0;
                 detector = Mrai.Queue_work;
               })
            ~degree:1);
       false
     with Invalid_argument _ -> true);
  checkb "inverted thresholds rejected" true
    (try
       ignore
         (Mrai.make
            (Dynamic
               {
                 levels = [| 1.0 |];
                 up_threshold = 0.1;
                 down_threshold = 0.5;
                 detector = Mrai.Queue_work;
               })
            ~degree:1);
       false
     with Invalid_argument _ -> true)

(* --- Input_queue ----------------------------------------------------------- *)

let item src dest payload = { Iq.src; dest; payload; cause = -1; enqueued = 0.0 }

let drain q =
  let rec go acc = match Iq.pop q with None -> List.rev acc | Some i -> go (i :: acc) in
  go []

let test_fifo_order () =
  let q = Iq.create Iq.Fifo in
  List.iter (Iq.push q) [ item 1 10 "a"; item 2 20 "b"; item 1 10 "c" ];
  checki "length" 3 (Iq.length q);
  Alcotest.check
    Alcotest.(list string)
    "FIFO order keeps duplicates" [ "a"; "b"; "c" ]
    (List.map (fun i -> i.Iq.payload) (drain q));
  checki "fifo never eliminates" 0 (Iq.eliminated q)

let test_fifo_dedup_eliminates () =
  let q = Iq.create Iq.Fifo_dedup in
  List.iter (Iq.push q) [ item 1 10 "a"; item 2 20 "b"; item 1 10 "c" ];
  checki "length after elimination" 2 (Iq.length q);
  checki "one eliminated" 1 (Iq.eliminated q);
  Alcotest.check
    Alcotest.(list string)
    "newest replaces oldest, order of survivors kept" [ "b"; "c" ]
    (List.map (fun i -> i.Iq.payload) (drain q))

let test_batched_groups_by_dest () =
  let q = Iq.create Iq.Batched in
  (* Arrivals interleaved across destinations; processing must group them. *)
  List.iter (Iq.push q)
    [ item 1 10 "x1"; item 2 20 "y1"; item 3 10 "x2"; item 4 20 "y2"; item 5 10 "x3" ];
  Alcotest.check
    Alcotest.(list string)
    "all of dest 10 first (its queue head arrived first)"
    [ "x1"; "x2"; "x3"; "y1"; "y2" ]
    (List.map (fun i -> i.Iq.payload) (drain q))

let test_batched_eliminates_same_src_dest () =
  let q = Iq.create Iq.Batched in
  List.iter (Iq.push q) [ item 1 10 "old"; item 2 10 "other-src"; item 1 10 "new" ];
  checki "stale dropped" 1 (Iq.eliminated q);
  Alcotest.check
    Alcotest.(list string)
    "newest survives" [ "other-src"; "new" ]
    (List.map (fun i -> i.Iq.payload) (drain q))

let test_batched_dest_order_rotates () =
  let q = Iq.create Iq.Batched in
  List.iter (Iq.push q) [ item 1 10 "a"; item 1 20 "b" ];
  checkb "pop from first dest" true ((Option.get (Iq.pop q)).Iq.payload = "a");
  (* dest 10 exhausted; a new arrival for it must go behind dest 20. *)
  Iq.push q (item 2 10 "c");
  checkb "then second dest" true ((Option.get (Iq.pop q)).Iq.payload = "b");
  checkb "then the late arrival" true ((Option.get (Iq.pop q)).Iq.payload = "c")

let test_tcp_batch_same_batch_eliminates () =
  let q = Iq.create (Iq.Tcp_batch { batch_size = 3 }) in
  List.iter (Iq.push q) [ item 1 10 "a"; item 1 10 "b" ];
  checki "same-batch stale dropped" 1 (Iq.eliminated q);
  Alcotest.check
    Alcotest.(list string)
    "newest survives" [ "b" ]
    (List.map (fun i -> i.Iq.payload) (drain q))

let test_tcp_batch_cross_batch_keeps_both () =
  let q = Iq.create (Iq.Tcp_batch { batch_size = 2 }) in
  (* "a" lands in batch 0; the filler closes that batch; "c" lands in
     batch 1, so it cannot supersede "a" (different TCP reads). *)
  List.iter (Iq.push q) [ item 1 10 "a"; item 1 20 "filler"; item 1 10 "c" ];
  checki "nothing eliminated across batches" 0 (Iq.eliminated q);
  checki "all three queued" 3 (Iq.length q);
  Alcotest.check
    Alcotest.(list string)
    "FIFO order" [ "a"; "filler"; "c" ]
    (List.map (fun i -> i.Iq.payload) (drain q))

let test_tcp_batch_batch_size_one_is_fifo () =
  let q = Iq.create (Iq.Tcp_batch { batch_size = 1 }) in
  List.iter (Iq.push q) [ item 1 10 "a"; item 1 10 "b" ];
  checki "no elimination with singleton batches" 0 (Iq.eliminated q);
  checki "both kept" 2 (Iq.length q)

let test_tcp_batch_sources_independent () =
  let q = Iq.create (Iq.Tcp_batch { batch_size = 2 }) in
  (* src 2's messages must not advance src 1's batch fill. *)
  List.iter (Iq.push q) [ item 1 10 "a"; item 2 30 "x"; item 2 40 "y"; item 1 10 "b" ];
  checki "same batch for src 1 despite interleaving" 1 (Iq.eliminated q)

let test_max_length_high_water () =
  let q = Iq.create Iq.Fifo in
  for i = 1 to 5 do
    Iq.push q (item i i "p")
  done;
  ignore (Iq.pop q);
  ignore (Iq.pop q);
  Iq.push q (item 9 9 "p");
  checki "high water mark" 5 (Iq.max_length q)

let test_clear () =
  let q = Iq.create Iq.Batched in
  List.iter (Iq.push q) [ item 1 10 "a"; item 2 20 "b" ];
  Iq.clear q;
  checki "empty" 0 (Iq.length q);
  checkb "pop none" true (Iq.pop q = None);
  (* Still usable after clear. *)
  Iq.push q (item 3 30 "c");
  checkb "usable" true ((Option.get (Iq.pop q)).Iq.payload = "c")

(* --- Damping ----------------------------------------------------------------- *)

module Damping = Bgp_core.Damping

let damping_config =
  {
    Damping.withdraw_penalty = 1.0;
    update_penalty = 0.5;
    half_life = 10.0;
    cut_threshold = 2.0;
    reuse_threshold = 0.75;
    max_suppress = 60.0;
  }

let test_damping_penalty_accumulates () =
  let d = Damping.create damping_config in
  Damping.record_flap d ~peer:1 ~dest:9 ~now:0.0 ~kind:`Withdraw;
  Alcotest.check (Alcotest.float 1e-9) "one withdrawal" 1.0
    (Damping.penalty d ~peer:1 ~dest:9 ~now:0.0);
  Damping.record_flap d ~peer:1 ~dest:9 ~now:0.0 ~kind:`Update;
  Alcotest.check (Alcotest.float 1e-9) "plus an update" 1.5
    (Damping.penalty d ~peer:1 ~dest:9 ~now:0.0);
  Alcotest.check (Alcotest.float 1e-9) "other routes unaffected" 0.0
    (Damping.penalty d ~peer:2 ~dest:9 ~now:0.0)

let test_damping_decay_half_life () =
  let d = Damping.create damping_config in
  Damping.record_flap d ~peer:1 ~dest:9 ~now:0.0 ~kind:`Withdraw;
  Alcotest.check (Alcotest.float 1e-9) "half after one half-life" 0.5
    (Damping.penalty d ~peer:1 ~dest:9 ~now:10.0);
  Alcotest.check (Alcotest.float 1e-9) "quarter after two" 0.25
    (Damping.penalty d ~peer:1 ~dest:9 ~now:20.0)

let test_damping_suppression_cycle () =
  let d = Damping.create damping_config in
  checkb "clean route not suppressed" false (Damping.is_suppressed d ~peer:1 ~dest:9 ~now:0.0);
  (* Three rapid withdrawals: penalty 3.0 > cut 2.0. *)
  for _ = 1 to 3 do
    Damping.record_flap d ~peer:1 ~dest:9 ~now:0.0 ~kind:`Withdraw
  done;
  checkb "suppressed past the cut" true (Damping.is_suppressed d ~peer:1 ~dest:9 ~now:0.0);
  checki "suppression counted" 1 (Damping.suppressions d);
  (* 3.0 -> 0.75 takes two half-lives. *)
  (match Damping.reuse_time d ~peer:1 ~dest:9 ~now:0.0 with
  | Some time -> Alcotest.check (Alcotest.float 1e-6) "reuse after 2 half-lives" 20.0 time
  | None -> Alcotest.fail "expected a reuse time");
  checkb "still suppressed before reuse" true
    (Damping.is_suppressed d ~peer:1 ~dest:9 ~now:19.0);
  checkb "released after reuse" false (Damping.is_suppressed d ~peer:1 ~dest:9 ~now:20.5)

let test_damping_max_suppress_cap () =
  let d = Damping.create { damping_config with Damping.half_life = 1000.0 } in
  for _ = 1 to 3 do
    Damping.record_flap d ~peer:1 ~dest:9 ~now:0.0 ~kind:`Withdraw
  done;
  (* Decay is glacial, but max_suppress caps the outage at 60 s. *)
  (match Damping.reuse_time d ~peer:1 ~dest:9 ~now:0.0 with
  | Some time -> checkb "capped by max_suppress" true (time <= 60.0 +. 1e-9)
  | None -> Alcotest.fail "expected a reuse time");
  checkb "released at the cap" false (Damping.is_suppressed d ~peer:1 ~dest:9 ~now:61.0)

let test_damping_bad_config () =
  checkb "reuse >= cut rejected" true
    (try
       ignore (Damping.create { damping_config with Damping.reuse_threshold = 5.0 });
       false
     with Invalid_argument _ -> true)

(* Model-based property: any interleaving of pushes and pops keeps the
   queue consistent with a reference model. *)

type op = Push of int * int | Pop

let gen_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Push (s, d) -> Printf.sprintf "push(%d,%d)" s d | Pop -> "pop")
           ops))
    QCheck.Gen.(
      list_size (1 -- 200)
        (frequency
           [ (3, map2 (fun s d -> Push (s, d)) (0 -- 4) (0 -- 6)); (2, return Pop) ]))

(* At most one live message per (src, dest) under elimination. *)
let prop_at_most_one_per_src_dest discipline =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: at most one queued message per (src,dest)"
         (Iq.discipline_name discipline))
    ~count:300 gen_ops
    (fun ops ->
      let q = Iq.create discipline in
      let tag = ref 0 in
      List.iter
        (function
          | Push (s, d) ->
            incr tag;
            Iq.push q (item s d !tag)
          | Pop -> ignore (Iq.pop q))
        ops;
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun i ->
          let key = (i.Iq.src, i.Iq.dest) in
          if Hashtbl.mem seen key then ok := false;
          Hashtbl.replace seen key ())
        (drain q);
      !ok)

let prop_conservation discipline =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: pushes = pops + eliminated + left"
         (Iq.discipline_name discipline))
    ~count:300 gen_ops
    (fun ops ->
      let q = Iq.create discipline in
      let pushes = ref 0 and pops = ref 0 in
      List.iter
        (function
          | Push (s, d) ->
            incr pushes;
            Iq.push q (item s d 0)
          | Pop -> ( match Iq.pop q with Some _ -> incr pops | None -> ()))
        ops;
      !pushes = !pops + Iq.eliminated q + Iq.length q)

let prop_batched_last_write_wins =
  QCheck.Test.make ~name:"batched: the surviving message per (src,dest) is the newest"
    ~count:300 gen_ops
    (fun ops ->
      let q = Iq.create Iq.Batched in
      let newest = Hashtbl.create 16 in
      let tag = ref 0 in
      List.iter
        (function
          | Push (s, d) ->
            incr tag;
            Iq.push q (item s d !tag);
            Hashtbl.replace newest (s, d) !tag
          | Pop -> (
            match Iq.pop q with
            | Some i ->
              if Hashtbl.find_opt newest (i.Iq.src, i.Iq.dest) = Some i.Iq.payload then
                Hashtbl.remove newest (i.Iq.src, i.Iq.dest)
            | None -> ()))
        ops;
      List.for_all
        (fun i -> Hashtbl.find_opt newest (i.Iq.src, i.Iq.dest) = Some i.Iq.payload)
        (drain q))

(* The Fifo ring against Stdlib.Queue: random pushes, pops, takes and
   clears drive it through growth (from empty, doubling past 16) and
   wrap-around (pops free the front while pushes fill the back). *)

type ring_op = Rpush | Rpop | Rtake | Rclear

let gen_ring_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Rpush -> "push" | Rpop -> "pop" | Rtake -> "take" | Rclear -> "clear")
           ops))
    QCheck.Gen.(
      list_size (1 -- 400)
        (frequency
           [ (10, return Rpush); (5, return Rpop); (3, return Rtake); (1, return Rclear) ]))

let prop_fifo_ring_is_a_queue =
  QCheck.Test.make ~name:"fifo ring behaves as Queue" ~count:300 gen_ring_ops (fun ops ->
      let q = Iq.create Iq.Fifo and model = Queue.create () in
      let tag = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Rpush ->
            incr tag;
            let i =
              { Iq.src = !tag mod 7; dest = !tag mod 11; payload = !tag; cause = - !tag;
                enqueued = float_of_int !tag /. 4.0 }
            in
            Iq.push q i;
            Queue.push i model;
            true
          | Rpop -> Iq.pop q = Queue.take_opt model
          | Rtake -> (
            match Queue.take_opt model with
            | None -> (try ignore (Iq.take q); false with Invalid_argument _ -> true)
            | Some i ->
              let payload = Iq.take q in
              payload = i.Iq.payload
              && Iq.last_src q = i.Iq.src
              && Iq.last_dest q = i.Iq.dest
              && Iq.last_cause q = i.Iq.cause
              && Iq.last_enqueued q = i.Iq.enqueued)
          | Rclear ->
            Iq.clear q;
            Queue.clear model;
            true)
          && Iq.length q = Queue.length model)
        ops)

(* A popped, taken or cleared payload is not kept alive by the ring's
   vacated slot. *)
let fill_tracked q w =
  for i = 0 to Weak.length w - 1 do
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    Iq.push q (item i i payload)
  done
[@@inline never]

let remove_three q =
  ignore (Iq.pop q);
  ignore (Iq.take q);
  ignore (Iq.pop q)
[@@inline never]

let test_fifo_releases_payloads () =
  let q = Iq.create Iq.Fifo in
  let w = Weak.create 5 in
  fill_tracked q w;
  remove_three q;
  Gc.full_major ();
  for i = 0 to 2 do
    checkb (Printf.sprintf "payload %d collected once removed" i) false (Weak.check w i)
  done;
  checkb "queued payloads stay alive" true (Weak.check w 3 && Weak.check w 4);
  Iq.clear q;
  Gc.full_major ();
  checkb "cleared payloads collected" false (Weak.check w 3 || Weak.check w 4)

(* The eliminating queues release payloads too: after removals,
   eliminations and a clear, exactly the payloads still queued stay
   alive.  Pairs (0,0) and (3,3) are pushed twice, so the first copies
   are eliminated. *)
let fill_eliminating q w =
  List.iteri
    (fun i key ->
      let payload = Bytes.make 64 'x' in
      Weak.set w i (Some payload);
      Iq.push q (item key key payload))
    [ 0; 1; 2; 3; 4; 0; 3 ]
[@@inline never]

let alive w =
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

let test_eliminating_releases_payloads discipline () =
  let q = Iq.create discipline in
  let w = Weak.create 7 in
  fill_eliminating q w;
  checki "two eliminated" 2 (Iq.eliminated q);
  remove_three q;
  Gc.full_major ();
  checki "only queued payloads alive" (Iq.length q) (alive w);
  checki "two still queued" 2 (Iq.length q);
  Iq.clear q;
  Gc.full_major ();
  checki "cleared payloads collected" 0 (alive w)

(* At a steady depth, adding and taking allocates nothing: the slab
   reuses freed slots, and the payload is preallocated.  Each round also
   supersedes its own update, so elimination (and the second token it
   queues) is on the measured path too. *)
let test_batched_steady_state_allocates_nothing () =
  let q = Iq.create Iq.Batched in
  let payload = "p" in
  let add i = Iq.add q ~src:(i mod 13) ~dest:(i mod 37) ~cause:i ~enqueued:0.0 payload in
  for i = 0 to 999 do
    add i
  done;
  let round i =
    add i;
    add i;
    ignore (Iq.take q)
  in
  for i = 1000 to 10_999 do
    round i
  done;
  let depth = Iq.length q and eliminated = Iq.eliminated q in
  let before = Gc.minor_words () in
  for i = 11_000 to 20_999 do
    round i
  done;
  let after = Gc.minor_words () in
  checki "steady depth" depth (Iq.length q);
  checki "one elimination per round" (eliminated + 10_000) (Iq.eliminated q);
  (* The second [Gc.minor_words] call boxes its own result. *)
  checkb
    (Printf.sprintf "10k rounds allocate nothing (%.0f words)" (after -. before))
    true
    (after -. before <= 8.0)

(* Differential oracle: the slab queue against the linked reference
   implementation in [Iq_reference], on the same random operations.
   Sources and destinations come from small ranges, so the generator
   produces session messages ([dest = -1]), elimination of a
   destination's only item (which queues a second token for it) and,
   under Tcp_batch, pairs split across batches. *)

module Ref = Iq_reference

type diff_op = Dpush of int * int | Dtake | Dpop | Dclear

let gen_diff_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Dpush (s, d) -> Printf.sprintf "push(%d,%d)" s d
             | Dtake -> "take"
             | Dpop -> "pop"
             | Dclear -> "clear")
           ops))
    QCheck.Gen.(
      list_size (1 -- 300)
        (frequency
           [
             (12, map2 (fun s d -> Dpush (s, d)) (0 -- 3) (-1 -- 4));
             (4, return Dtake);
             (4, return Dpop);
             (1, return Dclear);
           ]))

let ref_discipline = function
  | Iq.Fifo -> Ref.Fifo
  | Iq.Batched -> Ref.Batched
  | Iq.Fifo_dedup -> Ref.Fifo_dedup
  | Iq.Tcp_batch { batch_size } -> Ref.Tcp_batch { batch_size }

let prop_matches_reference discipline =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches the linked reference" (Iq.discipline_name discipline))
    ~count:400 gen_diff_ops
    (fun ops ->
      let q = Iq.create discipline and r = Ref.create (ref_discipline discipline) in
      let tag = ref 0 in
      let same_last () =
        Iq.last_src q = Ref.last_src r
        && Iq.last_dest q = Ref.last_dest r
        && Iq.last_cause q = Ref.last_cause r
        && Iq.last_enqueued q = Ref.last_enqueued r
      in
      List.for_all
        (fun op ->
          (match op with
          | Dpush (src, dest) ->
            incr tag;
            let enqueued = float_of_int !tag /. 8.0 in
            Iq.add q ~src ~dest ~cause:!tag ~enqueued !tag;
            Ref.add r ~src ~dest ~cause:!tag ~enqueued !tag;
            true
          | Dtake -> (
            let take f x = match f x with v -> Some v | exception Invalid_argument _ -> None in
            match (take Iq.take q, take Ref.take r) with
            | Some a, Some b -> a = b && same_last ()
            | None, None -> true
            | _ -> false)
          | Dpop -> (
            match (Iq.pop q, Ref.pop r) with
            | Some a, Some b ->
              (a.Iq.src, a.Iq.dest, a.Iq.payload, a.Iq.cause, a.Iq.enqueued)
              = (b.Ref.src, b.Ref.dest, b.Ref.payload, b.Ref.cause, b.Ref.enqueued)
            | None, None -> true
            | _ -> false)
          | Dclear ->
            Iq.clear q;
            Ref.clear r;
            true)
          && Iq.length q = Ref.length r
          && Iq.eliminated q = Ref.eliminated r
          && Iq.max_length q = Ref.max_length r)
        ops)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "mrai_controller",
        [
          Alcotest.test_case "static" `Quick test_static;
          Alcotest.test_case "degree dependent" `Quick test_degree_dependent;
          Alcotest.test_case "dynamic starts low" `Quick test_dynamic_starts_low;
          Alcotest.test_case "up transitions" `Quick test_dynamic_up_transition;
          Alcotest.test_case "down transitions" `Quick test_dynamic_down_transition;
          Alcotest.test_case "dead band" `Quick test_dynamic_dead_band;
          Alcotest.test_case "utilization detector" `Quick test_dynamic_utilization_detector;
          Alcotest.test_case "message-count detector" `Quick
            test_dynamic_message_count_detector;
          Alcotest.test_case "bad configs rejected" `Quick test_dynamic_bad_config;
        ] );
      ( "input_queue",
        [
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "fifo-dedup eliminates" `Quick test_fifo_dedup_eliminates;
          Alcotest.test_case "batched groups by dest" `Quick test_batched_groups_by_dest;
          Alcotest.test_case "batched eliminates (src,dest)" `Quick
            test_batched_eliminates_same_src_dest;
          Alcotest.test_case "batched dest order" `Quick test_batched_dest_order_rotates;
          Alcotest.test_case "max length" `Quick test_max_length_high_water;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "tcp-batch same batch eliminates" `Quick
            test_tcp_batch_same_batch_eliminates;
          Alcotest.test_case "tcp-batch cross batch keeps both" `Quick
            test_tcp_batch_cross_batch_keeps_both;
          Alcotest.test_case "tcp-batch size 1 = fifo" `Quick
            test_tcp_batch_batch_size_one_is_fifo;
          Alcotest.test_case "tcp-batch sources independent" `Quick
            test_tcp_batch_sources_independent;
          qc (prop_at_most_one_per_src_dest Iq.Batched);
          qc (prop_at_most_one_per_src_dest Iq.Fifo_dedup);
          qc (prop_conservation Iq.Fifo);
          qc (prop_conservation Iq.Fifo_dedup);
          qc (prop_conservation Iq.Batched);
          qc (prop_conservation (Iq.Tcp_batch { batch_size = 4 }));
          qc prop_batched_last_write_wins;
          qc prop_fifo_ring_is_a_queue;
          Alcotest.test_case "fifo releases payloads" `Quick test_fifo_releases_payloads;
          Alcotest.test_case "batched releases payloads" `Quick
            (test_eliminating_releases_payloads Iq.Batched);
          Alcotest.test_case "fifo-dedup releases payloads" `Quick
            (test_eliminating_releases_payloads Iq.Fifo_dedup);
          Alcotest.test_case "tcp-batch releases payloads" `Quick
            (test_eliminating_releases_payloads (Iq.Tcp_batch { batch_size = 20 }));
          Alcotest.test_case "batched steady state allocates nothing" `Quick
            test_batched_steady_state_allocates_nothing;
          qc (prop_matches_reference Iq.Batched);
          qc (prop_matches_reference Iq.Fifo_dedup);
          qc (prop_matches_reference (Iq.Tcp_batch { batch_size = 1 }));
          qc (prop_matches_reference (Iq.Tcp_batch { batch_size = 2 }));
          qc (prop_matches_reference (Iq.Tcp_batch { batch_size = 3 }));
          qc (prop_matches_reference (Iq.Tcp_batch { batch_size = 4 }));
        ] );
      ( "damping",
        [
          Alcotest.test_case "penalty accumulates" `Quick test_damping_penalty_accumulates;
          Alcotest.test_case "half-life decay" `Quick test_damping_decay_half_life;
          Alcotest.test_case "suppression cycle" `Quick test_damping_suppression_cycle;
          Alcotest.test_case "max-suppress cap" `Quick test_damping_max_suppress_cap;
          Alcotest.test_case "bad config rejected" `Quick test_damping_bad_config;
        ] );
    ]
