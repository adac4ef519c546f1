(* Layer kernels: each times one library's public hot-path calls in a
   tight loop, at the shape (window size, entries per destination, hit
   ratio, queue depth) the traced run observed in the real trial. A
   kernel's ns/op times the trial's op count is that layer's modelled
   share of the converge time; what the kernels do not explain is
   reported as the unexplained share. Each kernel reports the median of
   three timed passes. *)

module Sched = Bgp_engine.Scheduler
module Shard_exec = Bgp_engine.Shard_exec
module Rng = Bgp_engine.Rng
module Rib = Bgp_proto.Rib
module Path = Bgp_proto.Path
module Types = Bgp_proto.Types
module Iq = Bgp_core.Input_queue

let now () = Int64.to_float (Bgp_engine.Profile.now_ns ())

(* ns per op of [f ops], median of three passes after one warm pass. *)
let ns_per_op ~ops f =
  f (max 1 (ops / 10));
  let pass () =
    let t0 = now () in
    f ops;
    (now () -. t0) /. float_of_int ops
  in
  Perfbench.Bstats.median [ pass (); pass (); pass () ]

(* One executed event plus its replacement at a steady [live]-event
   window, with one cancel in three — the simulator's inner-loop mix. *)
let sched_ns_per_event ~live =
  let live = max 1 live in
  ns_per_op ~ops:300_000 (fun ops ->
      let s = Sched.create () in
      let rng = Rng.create 11 in
      let ids = Array.init live (fun _ -> Sched.schedule s ~delay:(Rng.float rng) ignore) in
      for i = 1 to ops do
        let slot = i mod live in
        if i mod 3 = 0 then Sched.cancel s ids.(slot);
        ids.(slot) <- Sched.schedule s ~delay:(Rng.float rng) ignore;
        while Sched.pending s > live do
          ignore (Sched.step s)
        done
      done)

(* Replace one Adj-RIB-In entry and re-run the decision process, over
   destinations holding [entries] peers each. *)
let rib_decide_ns ~entries =
  let entries = max 1 entries in
  let dests = 64 in
  let tbl = Path.create_table () in
  let paths =
    Array.init 32 (fun i -> Path.of_list tbl (List.init ((i mod 5) + 1) (fun h -> 1000 + i + h)))
  in
  let rib = Rib.create ~asn:0 in
  for dest = 0 to dests - 1 do
    for peer = 1 to entries do
      Rib.set_in rib dest ~peer ~kind:Types.Ebgp paths.((dest + peer) mod 32)
    done;
    ignore (Rib.decide rib dest)
  done;
  let rng = Rng.create 3 in
  let sink = ref 0 in
  ns_per_op ~ops:300_000 (fun ops ->
      for _ = 1 to ops do
        let dest = Rng.int rng dests in
        Rib.set_in rib dest ~peer:(1 + Rng.int rng entries) ~kind:Types.Ebgp
          paths.(Rng.int rng 32);
        if Rib.decide rib dest then incr sink
      done)

(* [Path.cons] with [hit_ratio] of the calls answered by the memo table
   and the rest interning a path never seen before. *)
let path_cons_ns ~hit_ratio =
  let hit_ratio = Float.min 1.0 (Float.max 0.0 hit_ratio) in
  let tbl = Path.create_table () in
  let stems = Array.init 64 (fun i -> Path.of_list tbl [ 100 + i; 300 ]) in
  let rng = Rng.create 42 in
  let fresh = ref 0 in
  let sink = ref 0 in
  ns_per_op ~ops:300_000 (fun ops ->
      for _ = 1 to ops do
        let stem = stems.(Rng.int rng 64) in
        let asn =
          if Rng.float rng < hit_ratio then 400 + Rng.int rng 4
          else begin
            incr fresh;
            1000 + !fresh
          end
        in
        sink := !sink + Path.length (Path.cons tbl asn stem)
      done)

(* One push and one pop at a steady queue [depth] under [discipline],
   with updates spread over [dests] destinations and [peers] senders. *)
let queue_ns_per_op ~discipline ~depth ~dests ~peers =
  let depth = max 1 depth and dests = max 1 dests and peers = max 1 peers in
  let rng = Rng.create 5 in
  let item i =
    { Iq.src = Rng.int rng peers; dest = Rng.int rng dests; payload = i; cause = -1; enqueued = 0.0 }
  in
  ns_per_op ~ops:300_000 (fun ops ->
      let q = Iq.create discipline in
      for i = 1 to depth do
        Iq.push q (item i)
      done;
      for i = 1 to ops do
        Iq.push q (item i);
        (* Batched queues drop superseded items: top back up to depth. *)
        while Iq.length q < depth do
          Iq.push q (item i)
        done;
        ignore (Iq.pop q)
      done)

(* Round trip of the executor's two-party barrier. *)
let barrier_ns () =
  ns_per_op ~ops:20_000 (fun ops ->
      let b = Shard_exec.Barrier.create 2 in
      let other =
        Domain.spawn (fun () ->
            for _ = 1 to ops do
              Shard_exec.Barrier.wait b
            done)
      in
      for _ = 1 to ops do
        Shard_exec.Barrier.wait b
      done;
      Domain.join other)

(* Cross-shard message cost: shard 0 posts [per_window] messages per
   window to shard 1 for many windows; the executor drains, sorts and
   delivers them at its barriers. Includes the barrier share at that
   message density. *)
let mailbox_ns_per_msg ~per_window =
  let per_window = max 1 per_window in
  let lookahead = 0.025 in
  (* Whole windows only, so every op is one delivered message. *)
  let ops = max 10 (200_000 / per_window) * per_window in
  ns_per_op ~ops (fun ops ->
      let windows = max 1 (ops / per_window) in
      let t = Shard_exec.create ~shards:2 ~compare:Int.compare in
      let s0 = Shard_exec.sched t 0 in
      for w = 0 to windows - 1 do
        ignore
          (Sched.schedule_at s0 ~time:(float_of_int w *. lookahead) (fun () ->
               for i = 0 to per_window - 1 do
                 Shard_exec.post t ~src:0 ~dst:1 i
               done))
      done;
      let delivered = ref 0 in
      Shard_exec.run_phase t ~lookahead
        ~cap:(float_of_int windows *. lookahead)
        ~deliver:(fun _ msgs -> delivered := !delivered + Array.length msgs)
        ();
      assert (!delivered = windows * per_window))
