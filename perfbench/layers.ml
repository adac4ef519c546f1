(* The traced run: one repetition of a workload with the per-layer
   observations around it. It checks the composed trial against
   [Runner.run] before reporting anything, runs the layer kernels at the
   shapes the trial showed, and measures what sharding costs on this box.

   Every workload reports every metric. A layer a workload does not
   exercise reads 0 for its span and count metrics (the pool in
   heavy_trial, the trace layer outside traced_campaign); kernel metrics
   are always measured, at the workload's shape. *)

open Workloads
module Bstats = Perfbench.Bstats
module Shard_exec = Bgp_engine.Shard_exec

(* name, unit: the per-layer vocabulary, in report order. *)
let metrics =
  [
    ("engine.sched.events_per_update", "count");
    ("engine.sched.max_live", "count");
    ("engine.sched.ns_per_event", "ns");
    ("engine.pool.busy_over_wall", "ratio");
    ("engine.pool.imbalance_s", "s");
    ("engine.pool.queue_wait_s", "s");
    ("engine.shard.windows", "count");
    ("engine.shard.posted_per_update", "count");
    ("engine.shard.window_us", "us");
    ("engine.shard.barrier_ns", "ns");
    ("engine.shard.mailbox_ns_per_msg", "ns");
    ("engine.shard.k2_over_k1", "ratio");
    ("topology.generate_s", "s");
    ("topology.partition_s", "s");
    ("bgp.rib.decide_ns", "ns");
    ("bgp.rib.bytes_per_entry", "bytes");
    ("bgp.rib.entries", "count");
    ("bgp.loc_rib.changes_per_processed", "ratio");
    ("bgp.path.cons_ns", "ns");
    ("bgp.path.interned_per_update", "count");
    ("bgp.path.hit_ratio", "ratio");
    ("bgp.path.bytes_over_rib_bytes", "ratio");
    ("core.queue.max_depth", "count");
    ("core.queue.eliminated_share", "ratio");
    ("core.queue.ns_per_op", "ns");
    ("core.mrai.transitions", "count");
    ("netsim.build_s", "s");
    ("netsim.warmup_s", "s");
    ("netsim.converge_us_per_update", "us");
    ("netsim.minor_words_per_update", "words");
    ("netsim.promoted_words_per_update", "words");
    ("netsim.major_collections", "count");
    ("netsim.validate_s", "s");
    ("netsim.converge.share.engine_sched", "ratio");
    ("netsim.converge.share.bgp_rib", "ratio");
    ("netsim.converge.share.bgp_path", "ratio");
    ("netsim.converge.share.core_queue", "ratio");
    ("netsim.converge.unexplained_share", "ratio");
    ("netsim.trace.traced_over_untraced", "ratio");
    ("netsim.trace.spill_bytes_per_update", "bytes");
    ("netsim.attribution.ms_per_trial", "ms");
    ("netsim.sidecar.write_ms", "ms");
    ("netsim.attr_merge.sidecar_us_per_trial", "us");
    ("netsim.attr_merge.reparse_ms_per_trial", "ms");
    ("netsim.attr_merge.trials_per_s", "1/s");
    ("experiments.sweep.cache_hits", "count");
    ("experiments.serve.scan_ms", "ms");
    ("experiments.serve.handle_us.status", "us");
    ("experiments.serve.handle_us.report", "us");
    ("experiments.serve.handle_us.metrics", "us");
    ("experiments.serve.socket_overhead_us", "us");
    ("experiments.serve.p50_ms", "ms");
    ("experiments.serve.p99_ms", "ms");
    ("experiments.serve.requests", "count");
    ("bench.traced_over_untraced", "ratio");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let timed f =
  let t0 = now_s () in
  let r = f () in
  (now_s () -. t0, r)

(* Per-layer observations of one composed trial, read right after it
   ran (its spans are the only ones recorded since it started). *)
let trial_layers ~seed (t : trial) =
  let net = t.net in
  let updates = fi (max 1 t.messages) in
  let d field = fi (field t.after - field t.before) in
  let events = d (fun c -> c.events) in
  let processed = d (fun c -> c.processed) in
  let interned = d (fun c -> c.interned) in
  let hits = d (fun c -> c.cons_hits) in
  let ribs = List.map (fun r -> Router.rib (Network.router net r)) (routers net) in
  let sum f = List.fold_left (fun acc rib -> acc + f rib) 0 ribs in
  let entries = sum Rib.in_entries and rib_bytes = sum Rib.approx_bytes in
  let rib_dests = sum Rib.num_dests in
  let path_bytes =
    List.fold_left (fun acc tb -> acc + (Path.table_stats tb).Path.approx_bytes) 0 (path_tables net)
  in
  let m = Network.sum_metrics net in
  let peers =
    List.fold_left
      (fun acc r -> acc + List.length (Router.peer_ids (Network.router net r)))
      0 (routers net)
  in
  let config = Network.bgp_config net in
  let converge = span_total "netsim.converge" in
  let hit_ratio = ratio hits (hits +. interned) in
  let sched_ns = Kernels.sched_ns_per_event ~live:t.max_live in
  let decide_ns =
    Kernels.rib_decide_ns ~entries:(int_of_float (Float.round (ratio (fi entries) (fi rib_dests))))
  in
  let cons_ns = Kernels.path_cons_ns ~hit_ratio in
  let queue_ns =
    Kernels.queue_ns_per_op ~discipline:config.Config.queue_discipline
      ~depth:m.Router.max_queue
      ~dests:(Config.num_dests config ~n_ases:t.topo.Topology.n_ases)
      ~peers:(peers / max 1 (Network.num_routers net))
  in
  let converge_ns = converge.wall *. 1e9 in
  let share ns ops = ratio (ns *. ops) converge_ns in
  let shares =
    [
      ("netsim.converge.share.engine_sched", share sched_ns events);
      ("netsim.converge.share.bgp_rib", share decide_ns processed);
      ("netsim.converge.share.bgp_path", share cons_ns (hits +. interned));
      ("netsim.converge.share.core_queue", share queue_ns processed);
    ]
  in
  let partition_s =
    if Network.is_sharded net then (span_total "topology.partition").wall
    else fst (timed (fun () -> Partition.compute ~shards:domains ~seed t.topo))
  in
  let validate_s, issues = timed (fun () -> Validate.check net ~failure:t.failure) in
  let windows, posted =
    if Network.is_sharded net then
      let st = Network.shard_stats net in
      (st.Shard_exec.windows, st.Shard_exec.posted)
    else (0, 0)
  in
  let gaps =
    match t.barrier_times with
    | [] | [ _ ] -> []
    | first :: rest ->
      List.rev
        (fst
           (List.fold_left (fun (acc, prev) x -> ((x -. prev) :: acc, x)) ([], first) rest))
  in
  ( [
      ("topology.generate_s", (span_total "topology.generate").wall);
      ("topology.partition_s", partition_s);
      ("engine.sched.events_per_update", events /. updates);
      ("engine.sched.max_live", fi t.max_live);
      ("engine.sched.ns_per_event", sched_ns);
      ("engine.shard.windows", fi windows);
      ("engine.shard.posted_per_update", fi posted /. updates);
      ("engine.shard.window_us", if gaps = [] then 0.0 else Bstats.median gaps *. 1e6);
      ("engine.shard.barrier_ns", Kernels.barrier_ns ());
      ( "engine.shard.mailbox_ns_per_msg",
        Kernels.mailbox_ns_per_msg ~per_window:(if windows > 0 then posted / windows else 64) );
      ("bgp.rib.decide_ns", decide_ns);
      ("bgp.rib.bytes_per_entry", ratio (fi rib_bytes) (fi entries));
      ("bgp.rib.entries", fi entries);
      ("bgp.loc_rib.changes_per_processed", ratio (d (fun c -> c.changes)) processed);
      ("bgp.path.cons_ns", cons_ns);
      ("bgp.path.interned_per_update", interned /. updates);
      ("bgp.path.hit_ratio", hit_ratio);
      ("bgp.path.bytes_over_rib_bytes", ratio (fi path_bytes) (fi rib_bytes));
      ("core.queue.max_depth", fi m.Router.max_queue);
      ( "core.queue.eliminated_share",
        ratio (fi m.Router.eliminated) (fi (m.Router.msgs_processed + m.Router.eliminated)) );
      ("core.queue.ns_per_op", queue_ns);
      ("core.mrai.transitions", fi m.Router.mrai_transitions);
      ("netsim.build_s", (span_total "netsim.build").wall);
      ("netsim.warmup_s", (span_total "netsim.warmup").wall);
      ("netsim.converge_us_per_update", converge.wall *. 1e6 /. updates);
      ("netsim.minor_words_per_update", converge.minor /. updates);
      ("netsim.promoted_words_per_update", converge.promoted /. updates);
      ("netsim.major_collections", fi converge.majors);
      ("netsim.validate_s", validate_s);
      ( "netsim.converge.unexplained_share",
        1.0 -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares );
    ]
    @ shares,
    match issues with
    | [] -> []
    | first :: _ ->
      [
        Format.asprintf "validate: %d issues, first %a" (List.length issues) Validate.pp_issue
          first;
      ] )

(* Runner.run of the scenario at k=1 (the sequential path) and k=2
   shards: the check that each composed trial of it is Runner.run's, and
   whether sharding pays on this box. *)
let runner_check (scenario : Runner.scenario) trials =
  let seq_s, seq = timed (fun () -> Runner.run { scenario with Runner.sharding = None }) in
  let k2_s, k2 = timed (fun () -> Runner.run { scenario with Runner.sharding = Some domains }) in
  ( k2_s /. seq_s,
    List.concat_map
      (fun t -> Option.to_list (runner_mismatch t (if Network.is_sharded t.net then k2 else seq)))
      trials )

let pool_layers ((stats : Pool.stats), batches) =
  let imbalance =
    List.fold_left
      (fun acc (batch : Pool.domain_stat list) ->
        match List.map (fun (d : Pool.domain_stat) -> d.Pool.busy) batch with
        | [] -> acc
        | b :: rest ->
          let hi = List.fold_left Float.max b rest and lo = List.fold_left Float.min b rest in
          acc +. (hi -. lo))
      0.0 batches
  in
  [
    ("engine.pool.busy_over_wall", ratio stats.Pool.busy stats.Pool.wall);
    ("engine.pool.imbalance_s", imbalance);
    ("engine.pool.queue_wait_s", stats.Pool.queue_wait);
  ]

(* Serve measured without the socket: a fresh scan of the finished
   campaign directory and [Serve.handle] called directly per verb. *)
let serve_layers dir =
  let srv = Serve.create ~dir () in
  let scan_s, _ = timed (fun () -> Serve.scan srv) in
  let handle verb =
    Bstats.median
      (List.init 200 (fun _ -> fst (timed (fun () -> ignore (Serve.handle srv verb)))))
  in
  ( scan_s,
    List.map (fun verb -> (verb, handle verb)) (Array.to_list serve_verbs) )

type result = {
  rep : rep;
  layers : (string * float) list;
  checks : int;  (* Validate.check once, and one Runner.run check per composed trial *)
  errors : string list;  (* at most one per check *)
  notes : string list;
}

let run ~workload ~seed =
  let rep, layers, checks, errors =
    match workload with
    | "heavy_trial" ->
      let rep, t = heavy_rep () in
      let layers, issues = trial_layers ~seed:heavy_scenario.Runner.seed t in
      let k2, mismatch = runner_check heavy_scenario [ t ] in
      (rep, ("engine.shard.k2_over_k1", k2) :: layers, 2, issues @ mismatch)
    | "churn_flap" ->
      let rep, t = churn_rep () in
      let layers, issues = trial_layers ~seed:churn_seed t in
      let scenario, _, _ = churn_spec () in
      let k2, mismatch = runner_check scenario [ t ] in
      (rep, ("engine.shard.k2_over_k1", k2) :: layers, 2, issues @ mismatch)
    | "fig1_sweep" ->
      let rep = fig1_rep () in
      (* The pool at 2 jobs: the same batches again on an empty cache. *)
      Sweep.clear_cache ();
      Pool.set_default_jobs domains;
      Pool.reset_stats ();
      let batches = fig1_batches (fig1_series ()) ~trials:fig1_opts.Scenarios.trials in
      let pool = (Pool.stats (), batches) in
      (* The sweep's heaviest point (MRAI 0.5, 20 % failure) stands for
         its trials in the per-update layers. *)
      let heaviest = List.nth (List.hd (fig1_series ())) (List.length fig1_opts.Scenarios.sizes - 1) in
      let t = sequential_trial heaviest in
      let layers, issues = trial_layers ~seed:heaviest.Runner.seed t in
      let k2, mismatch = runner_check heaviest [ t ] in
      ( rep,
        (("engine.shard.k2_over_k1", k2) :: pool_layers pool) @ layers,
        2,
        issues @ mismatch )
    | "traced_campaign" ->
      let serve = ref (0.0, []) in
      let rep, obs = campaign_rep ~inspect:(fun dir -> serve := serve_layers dir) ~seed () in
      (* One campaign trial composed by hand, untraced and traced. *)
      let plain_s, plain = timed (fun () -> sequential_trial campaign_scenario) in
      let layers, issues = trial_layers ~seed:campaign_scenario.Runner.seed plain in
      mkdir_p work_dir;
      let spill = Filename.concat work_dir (Printf.sprintf "trial-%d.jsonl" (Unix.getpid ())) in
      let sidecar = Attribution.sidecar_path spill in
      Fun.protect ~finally:(fun () -> cleanup [ spill; sidecar ]) @@ fun () ->
      let trace = Trace.create ~spill () in
      let traced_scenario =
        {
          campaign_scenario with
          Runner.net = { campaign_scenario.Runner.net with Network.trace = Some trace };
        }
      in
      let traced_s, traced = timed (fun () -> sequential_trial traced_scenario) in
      let attr_s, attr =
        timed (fun () -> Attribution.of_trace ~t_fail:traced.t_fail trace)
      in
      Trace.finalize trace
        ~meta:{ Trace.seed = campaign_scenario.Runner.seed; t_fail = traced.t_fail };
      let sidecar_s, () =
        timed (fun () ->
            Attribution.write_sidecar sidecar
              (Attribution.sidecar_of ~seed:campaign_scenario.Runner.seed attr))
      in
      let spill_bytes = (Unix.stat spill).Unix.st_size in
      let k2, mismatch = runner_check campaign_scenario [ plain; traced ] in
      let scan_s, handles = !serve in
      let socket_s = Bstats.median (List.map snd obs.latencies) in
      let extra k = List.assoc k rep.extra in
      ( rep,
        [
          ("engine.shard.k2_over_k1", k2);
          ("netsim.trace.traced_over_untraced", traced_s /. plain_s);
          ( "netsim.trace.spill_bytes_per_update",
            ratio (fi spill_bytes) (fi (Network.messages_sent traced.net)) );
          ("netsim.attribution.ms_per_trial", attr_s *. 1e3);
          ("netsim.sidecar.write_ms", sidecar_s *. 1e3);
          ("netsim.attr_merge.sidecar_us_per_trial", Bstats.median obs.sidecar_s *. 1e6);
          ("netsim.attr_merge.reparse_ms_per_trial", Bstats.median obs.reparse_s *. 1e3);
          ("netsim.attr_merge.trials_per_s", extra "merge_trials_per_s");
          ("experiments.serve.scan_ms", scan_s *. 1e3);
          ( "experiments.serve.socket_overhead_us",
            (socket_s -. Bstats.median (List.map snd handles)) *. 1e6 );
          ("experiments.serve.p50_ms", extra "serve_p50_ms");
          ("experiments.serve.p99_ms", extra "serve_p99_ms");
          ("experiments.serve.requests", extra "serve_requests");
        ]
        @ List.map (fun (verb, s) -> ("experiments.serve.handle_us." ^ verb, s *. 1e6)) handles
        @ pool_layers obs.pool
        @ layers,
        3,
        issues @ mismatch )
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let k2 = Option.value ~default:0.0 (List.assoc_opt "engine.shard.k2_over_k1" layers) in
  let notes =
    if k2 > 1.0 then
      [
        Printf.sprintf
          "engine.shard.k2_over_k1 = %.3f: sharding does not pay on this box (%d shards are \
           slower than the sequential path)"
          k2 domains;
      ]
    else []
  in
  let layers =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name layers with
        | Some v -> (name, v)
        | None -> (name, Option.value ~default:0.0 (List.assoc_opt name rep.extra)))
      metrics
  in
  { rep; layers; checks; errors; notes }
