(* bgpsim: run one BGP failure scenario and print the metrics.

   Examples:
     bgpsim --nodes 120 --failure 0.05 --mrai 1.25
     bgpsim --scheme dynamic --failure 0.10 --trials 5
     bgpsim --scheme degree --batching --failure 0.20 --validate
     bgpsim analyze --nodes 64 --failure 0.10 --mrai 1.25 --json attr.json *)

open Cmdliner

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Config = Bgp_proto.Config
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Degree_dist = Bgp_topology.Degree_dist

let spec_of_string = function
  | "70-30" -> Ok Degree_dist.skewed_70_30
  | "50-50" -> Ok Degree_dist.skewed_50_50
  | "85-15" -> Ok Degree_dist.skewed_85_15
  | "50-50-dense" -> Ok Degree_dist.skewed_50_50_dense
  | "internet" -> Ok Degree_dist.internet_like
  | s -> Error (Printf.sprintf "unknown topology %S" s)

let scheme_of ~name ~mrai ~low ~high ~up_th ~down_th =
  match name with
  | "static" -> Ok (Mrai.Static mrai)
  | "degree" -> Ok (Mrai.Degree_dependent { threshold = 3; low; high })
  | "dynamic" ->
    Ok (Mrai.Dynamic
          {
            levels = [| 0.5; 1.25; 2.25 |];
            up_threshold = up_th;
            down_threshold = down_th;
            detector = Mrai.Queue_work;
          })
  | s -> Error (Printf.sprintf "unknown scheme %S (static|degree|dynamic)" s)

(* The scenario-defining options, shared by the default run command and
   [analyze]. *)
type opts = {
  nodes : int;
  realistic : bool;
  spec_name : string;
  failure : float;
  seed : int;
  scheme_name : string;
  mrai : float;
  low : float;
  high : float;
  up_th : float;
  down_th : float;
  batching : bool;
  tcp_batch : int option;
  per_dest : bool;
  bypass_name : string;
  damping : bool;
  policies : bool;
  analytic : bool;
  hold_time : float option;
  validate : bool;
  shards : int option;
  dest_sample : int option;
}

(* --shards 0 = auto: split the recommended domain budget with the trial
   pool, so jobs x shards stays near the core count.  Resolve before
   building the scenario (Runner rejects a non-positive shard count). *)
let resolve_shards ~jobs ~quiet = function
  | None -> None
  | Some 0 ->
    let recommended = Domain.recommended_domain_count () in
    let k = max 1 (recommended / max 1 jobs) in
    if not quiet then
      Fmt.pr "shards: auto-selected %d (%d recommended domains / %d jobs)@." k
        recommended jobs;
    Some k
  | Some k when k < 0 ->
    Fmt.epr "error: --shards must be >= 0 (0 = auto), got %d@." k;
    exit 1
  | Some k -> Some k

(* Build the scenario (minus trace/telemetry, which differ per command). *)
let build_scenario o =
  match spec_of_string o.spec_name with
  | Error m -> Error m
  | Ok spec -> (
    match
      scheme_of ~name:o.scheme_name ~mrai:o.mrai ~low:o.low ~high:o.high ~up_th:o.up_th
        ~down_th:o.down_th
    with
    | Error m -> Error m
    | Ok scheme -> (
      match
        match o.bypass_name with
        | "none" -> Ok Config.No_bypass
        | "improvement" -> Ok Config.Cancel_on_improvement
        | "flap2" -> Ok (Config.Flap_threshold 2)
        | s -> Error (Printf.sprintf "unknown bypass %S (none|improvement|flap2)" s)
      with
      | Error m -> Error m
      | Ok mrai_bypass ->
        let queue_discipline =
          if o.batching then Iq.Batched
          else
            match o.tcp_batch with
            | Some batch_size -> Iq.Tcp_batch { batch_size }
            | None -> Iq.Fifo
        in
        let config =
          {
            Config.default with
            Config.mrai_scheme = scheme;
            queue_discipline;
            mrai_mode = (if o.per_dest then Config.Per_dest else Config.Per_peer);
            mrai_bypass;
            damping = (if o.damping then Some Bgp_core.Damping.sim_config else None);
          }
        in
        let topo =
          if o.realistic then
            Runner.Realistic (Bgp_topology.As_topology.default ~n_ases:o.nodes)
          else Runner.Flat { spec; n = o.nodes }
        in
        let net_config =
          let base = Network.config_default config in
          match o.hold_time with
          | None -> base
          | Some hold_time ->
            {
              base with
              Network.detection =
                Network.Hold_timer
                  { Bgp_proto.Session.default_config with Bgp_proto.Session.hold_time };
            }
        in
        Ok
          (Runner.scenario ~net:net_config ~failure:(Runner.Fraction o.failure)
             ~seed:o.seed ~validate:o.validate
             ~warmup:(if o.analytic then Runner.Analytic else Runner.Simulated)
             ~policies:o.policies ?sharding:o.shards ?dest_sample:o.dest_sample topo)))

(* The active fraction of the prefix universe under --dest-sample (1.0
   without it); reports scale message totals by its inverse. *)
let sampled_fraction (scenario : Runner.scenario) =
  match scenario.Runner.dest_sample with
  | None -> 1.0
  | Some k ->
    let topo = Runner.topology_of scenario in
    let universe =
      Config.num_dests scenario.Runner.net.Network.bgp
        ~n_ases:topo.Bgp_topology.Topology.n_ases
    in
    Float.min 1.0 (float_of_int (max 1 k) /. float_of_int universe)

let write_file ?(quiet = true) path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  if not quiet then Fmt.pr "wrote %s@." path

(* Opt-in wall-clock profiling (--prof / --prof-flame).  The profiler
   reads only the monotonic clock and GC statistics — never simulated
   state — so arming it cannot change any simulation output. *)
module Profile = Bgp_engine.Profile

let with_prof ~prof ~prof_flame ~quiet f =
  let enabled = prof <> None || prof_flame <> None in
  if enabled then Profile.start ();
  let code = f () in
  (if enabled then
     match Profile.stop () with
     | None -> ()
     | Some r ->
       Option.iter (fun path -> write_file ~quiet path (Profile.to_json r ^ "\n")) prof;
       Option.iter
         (fun path -> write_file ~quiet path (Profile.to_flamegraph r))
         prof_flame);
  code

let pp_attr_line ppf (attr : Attribution.t) =
  Fmt.pf ppf
    "queueing %.2f + processing %.2f + mrai %.2f + propagation %.2f = %.2f s (%d hops%s)"
    attr.Attribution.totals.Attribution.queueing attr.totals.processing
    attr.totals.mrai_hold attr.totals.propagation
    (Attribution.total attr.totals)
    (List.length attr.critical_path)
    (if attr.complete then "" else ", INCOMPLETE")

(* --- run (default command) ----------------------------------------------- *)

let run_main opts trials jobs trace_n trace_file probe_interval telemetry_dir prof
    prof_flame quiet =
  if jobs < 0 then begin
    Fmt.epr "error: --jobs must be >= 0 (0 = auto), got %d@." jobs;
    exit 1
  end;
  let jobs =
    if jobs <> 0 then jobs
    else begin
      let j = Bgp_engine.Pool.default_jobs () in
      if not quiet then Fmt.pr "jobs: auto-selected %d (recommended domain count)@." j;
      j
    end
  in
  let opts = { opts with shards = resolve_shards ~jobs ~quiet opts.shards } in
  with_prof ~prof ~prof_flame ~quiet @@ fun () ->
  match build_scenario opts with
  | Error m ->
    Fmt.epr "error: %s@." m;
    1
  | Ok scenario ->
    let seed = opts.seed in
    let net_config = scenario.Runner.net in
    (* Telemetry is a per-run spec (each trial builds its own instance),
       so it composes with any trial/job count. *)
    let telemetry =
      match (probe_interval, telemetry_dir) with
      | None, None -> None
      | interval, _ -> Some (Bgp_netsim.Telemetry.config ?probe_interval:interval ())
    in
    let net_config = { net_config with Network.telemetry } in
    (* Tracing: each trial gets its own trace instance — and with
       --trace-file its own seed-suffixed spill file — so tracing composes
       with the domain pool at any job count. *)
    let want_trace = trace_n <> None || trace_file <> None in
    let scenario = { scenario with Runner.net = net_config } in
    let delays = Bgp_engine.Stats.create () in
    let msgs = Bgp_engine.Stats.create () in
    let ok = ref true in
    (* Trials are independent (one seed, RNG and scheduler each), so they
       fan out over a domain pool; results are identical to the
       sequential order for any job count. *)
    let results, pairs =
      if want_trace then begin
        let pairs =
          try Runner.traced ?spill_base:trace_file scenario ~trials
          with Sys_error m ->
            Fmt.epr "error: --trace-file: %s@." m;
            exit 1
        in
        let results = Bgp_engine.Pool.map ~jobs Runner.run (List.map fst pairs) in
        (results, Some pairs)
      end
      else
        ( Bgp_engine.Pool.map ~jobs Runner.run
            (List.init trials (fun i -> { scenario with Runner.seed = seed + i })),
          None )
    in
    let traces =
      match pairs with
      | Some pairs -> List.map (fun (_, t) -> Some t) pairs
      | None -> List.init trials (fun _ -> None)
    in
    List.iteri
      (fun i r ->
        Bgp_engine.Stats.add delays r.Runner.convergence_delay;
        Bgp_engine.Stats.add msgs (float_of_int r.Runner.messages);
        if not r.Runner.converged then ok := false;
        if r.Runner.issues <> [] then begin
          ok := false;
          List.iter
            (fun i -> Fmt.epr "invariant: %a@." Bgp_netsim.Validate.pp_issue i)
            r.Runner.issues
        end;
        if not quiet then begin
          Fmt.pr
            "seed %3d: delay %8.2f s, %7d msgs (%d adverts, %d withdrawals), peak \
             queue %d, eliminated %d@."
            (seed + i) r.Runner.convergence_delay r.Runner.messages r.Runner.adverts
            r.Runner.withdrawals r.Runner.max_queue r.Runner.eliminated;
          Option.iter
            (fun rep ->
              Fmt.pr "          telemetry: %a@." Bgp_netsim.Telemetry.pp_summary rep)
            r.Runner.report;
          Option.iter
            (fun attr -> Fmt.pr "          attribution: %a@." pp_attr_line attr)
            r.Runner.attribution
        end)
      results;
    Fmt.pr "convergence delay: %a@." Bgp_engine.Stats.pp_summary
      (Bgp_engine.Stats.summarize delays);
    Fmt.pr "update messages  : %a@." Bgp_engine.Stats.pp_summary
      (Bgp_engine.Stats.summarize msgs);
    (match scenario.Runner.dest_sample with
    | None -> ()
    | Some k ->
      let frac = sampled_fraction scenario in
      Fmt.pr
        "dest sample      : %d destination(s) = %.1f%% of the universe; extrapolated \
         full-universe messages ~ %.0f mean@."
        k (100.0 *. frac)
        ((Bgp_engine.Stats.summarize msgs).Bgp_engine.Stats.mean /. frac));
    (* Where the trial pool's wall time went: per-domain busy vs deque
       wait for the last batch (the trials themselves, since the trial
       fan-out is the only pool call here). *)
    if jobs > 1 && not quiet then
      (match Bgp_engine.Pool.last_batch () with
      | [] -> ()
      | per_domain ->
        Fmt.pr "pool (last batch):@.";
        List.iter
          (fun (d : Bgp_engine.Pool.domain_stat) ->
            Fmt.pr "  domain %2d: %3d job%s, busy %7.3f s, wait %7.3f s@." d.domain
              d.jobs
              (if d.jobs = 1 then " " else "s")
              d.busy d.wait)
          per_domain);
    (match (List.nth_opt traces 0, trace_n) with
    | Some (Some trace), Some limit ->
      Fmt.pr "@.last %d trace events of trial 0 (%d in memory, %d spilled, %d dropped):@."
        limit (Trace.length trace) (Trace.spilled trace) (Trace.dropped trace);
      Trace.dump ~limit Fmt.stdout trace;
      Fmt.pr "@.busiest senders:@.";
      List.iteri
        (fun i (router, count) ->
          if i < 10 then Fmt.pr "  router %3d: %d updates@." router count)
        (Trace.sends_by_router trace)
    | _ -> ());
    (* Archive the batch: finalize every trial's seed-suffixed file into a
       complete, self-describing record (events + one meta line) and drop
       its attribution sidecar next to it, so `bgpsim analyze --merge`
       combines the directory in O(trials) and `bgpsim serve` can watch it
       live.  Without --trace-file there are no spill files and this just
       closes the in-memory traces. *)
    (match pairs with
    | None -> ()
    | Some pairs ->
      let sidecars = Runner.finalize_traced pairs results in
      match (trace_file, quiet) with
      | Some base, false ->
        Fmt.pr "wrote %d finalized trace(s) to %s and %d sidecar(s)@."
          (List.length (List.filter (fun (_, t) -> Trace.spill_path t <> None) pairs))
          (Filename.dirname (Runner.trace_path ~base ~seed))
          (List.length sidecars)
      | _ -> ());
    (match telemetry_dir with
    | None -> ()
    | Some dir ->
      List.iteri
        (fun i r ->
          Option.iter
            (fun rep ->
              let prefix = Printf.sprintf "seed%d_" (seed + i) in
              let paths = Bgp_netsim.Telemetry.export ~dir ~prefix rep in
              if not quiet then
                Fmt.pr "wrote %d telemetry files to %s (prefix %s)@." (List.length paths)
                  dir prefix)
            r.Runner.report)
        results);
    if !ok then 0 else 1

(* --- analyze ------------------------------------------------------------- *)

module Attr_merge = Bgp_netsim.Attr_merge

(* --merge DIR: no simulation — fold every trial under DIR into the
   streaming accumulator.  Trials with a sidecar are folded straight from
   it in O(1); only trials without one fall back to re-parsing their
   finalized trace JSONL (fanned across the pool). *)
let merge_main dir json_path flame_path top jobs reparse quiet =
  match Attr_merge.plan ~reparse dir with
  | exception Sys_error m ->
    Fmt.epr "error: %s@." m;
    1
  | [] ->
    Fmt.epr "error: no finalized traces (*.jsonl) or sidecars (*.attr.json) under %s@."
      dir;
    1
  | items ->
    let acc = Attr_merge.create () in
    let jobs = if jobs = 0 then None else Some jobs in
    Attr_merge.load ?jobs acc items;
    if Attr_merge.trials acc = 0 then begin
      Fmt.epr "error: every input under %s failed to load%a@." dir
        (fun ppf -> function None -> () | Some e -> Fmt.pf ppf " (first: %s)" e)
        (Attr_merge.first_error acc);
      1
    end
    else begin
      if not quiet then Fmt.pr "%a" (Attr_merge.pp ~top) acc;
      (match json_path with
      | None -> ()
      | Some "-" -> print_endline (Attr_merge.to_json ~top acc)
      | Some path -> write_file ~quiet path (Attr_merge.to_json ~top acc ^ "\n"));
      Option.iter
        (fun path -> write_file ~quiet path (Attr_merge.to_flamegraph acc))
        flame_path;
      0
    end

let analyze_main opts capacity spill json_path top max_hops per_dest flame_path merge_dir
    jobs reparse prof prof_flame quiet =
  with_prof ~prof ~prof_flame ~quiet @@ fun () ->
  match merge_dir with
  | Some dir -> merge_main dir json_path flame_path top jobs reparse quiet
  | None -> (
    (* One trial: the shard budget gets the whole machine. *)
    let opts = { opts with shards = resolve_shards ~jobs:1 ~quiet opts.shards } in
    match build_scenario opts with
    | Error m ->
      Fmt.epr "error: %s@." m;
      1
    | Ok scenario ->
      let trace = Trace.create ~capacity ?spill () in
      let scenario =
        { scenario with Runner.net = { scenario.Runner.net with Network.trace = Some trace } }
      in
      let r = Runner.run scenario in
      let code =
        match r.Runner.attribution with
        | None ->
          Fmt.epr "error: no attribution produced (internal)@.";
          1
        | Some attr ->
          if not quiet then begin
            Fmt.pr
              "seed %3d: delay %8.2f s, %7d msgs, %d trace events (%d spilled, %d \
               dropped)@."
              opts.seed r.Runner.convergence_delay r.Runner.messages
              (Trace.spilled trace + Trace.length trace)
              (Trace.spilled trace) (Trace.dropped trace);
            (match scenario.Runner.dest_sample with
            | Some k ->
              Fmt.pr "dest sample: %d destination(s) = %.1f%% of the universe@." k
                (100.0 *. sampled_fraction scenario)
            | None -> ());
            Fmt.pr "%a" (Attribution.pp ~top ~max_hops) attr;
            if per_dest then Fmt.pr "%a" (Attribution.pp_per_dest ~top) attr
          end;
          (match json_path with
          | None -> ()
          | Some "-" -> print_endline (Attribution.to_json ~top attr)
          | Some path -> write_file ~quiet path (Attribution.to_json ~top attr ^ "\n"));
          Option.iter
            (fun path ->
              let mode =
                if per_dest then Attribution.Flame_per_dest
                else Attribution.Flame_aggregate
              in
              write_file ~quiet path (Attribution.to_flamegraph ~mode attr))
            flame_path;
          if Trace.dropped trace > 0 || not attr.Attribution.complete then
            Fmt.epr
              "warning: the trace dropped %d events and the causal chain is %s — raise \
               --capacity or set --spill FILE@."
              (Trace.dropped trace)
              (if attr.Attribution.complete then "complete anyway" else "incomplete");
          if r.Runner.converged then 0 else 1
      in
      Trace.close trace;
      code)

(* --- chaos ---------------------------------------------------------------- *)

module Chaos = Bgp_experiments.Chaos

let chaos_main opts trials jobs max_events horizon replay_every capacity out
    seed_violation sidecar_dir prof prof_flame quiet =
  if jobs < 0 then begin
    Fmt.epr "error: --jobs must be >= 0 (0 = auto), got %d@." jobs;
    exit 1
  end;
  let opts =
    let effective = if jobs = 0 then Bgp_engine.Pool.default_jobs () else jobs in
    { opts with shards = resolve_shards ~jobs:effective ~quiet opts.shards }
  in
  with_prof ~prof ~prof_flame ~quiet @@ fun () ->
  match build_scenario opts with
  | Error m ->
    Fmt.epr "error: %s@." m;
    1
  | Ok scenario -> (
    match
      Chaos.config ~trials ~max_events ~horizon ~replay_every ~capacity ~seed_violation
        ?sidecar_dir scenario
    with
    | exception Invalid_argument m ->
      Fmt.epr "error: %s@." m;
      1
    | cfg ->
      let jobs = if jobs = 0 then None else Some jobs in
      let campaign = Chaos.run_campaign ?jobs cfg in
      if not quiet then Fmt.pr "%a" Chaos.pp_campaign campaign;
      (match out with
      | None -> ()
      | Some "-" -> print_endline (Chaos.artifact_to_json cfg campaign)
      | Some path -> write_file ~quiet path (Chaos.artifact_to_json cfg campaign ^ "\n"));
      (match sidecar_dir with
      | Some dir when not quiet ->
        Fmt.pr "wrote %d sidecar(s) to %s@."
          (List.length
             (List.filter Attribution.is_sidecar_path
                (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])))
          dir
      | _ -> ());
      if seed_violation then (
        (* Self-test mode: success means the harness FOUND the seeded
           violation, minimized it to a tiny schedule and (with --out)
           archived it. *)
        match campaign.Chaos.minimized with
        | Some m when List.length m.Chaos.m_schedule <= 3 ->
          if not quiet then
            Fmt.pr "self-test OK: seeded violation minimized to %d event(s)@."
              (List.length m.Chaos.m_schedule);
          0
        | Some m ->
          Fmt.epr "self-test FAILED: minimized schedule still has %d events (> 3)@."
            (List.length m.Chaos.m_schedule);
          1
        | None ->
          Fmt.epr "self-test FAILED: no seeded violation was found or minimized@.";
          1)
      else if Chaos.violating campaign = [] then 0
      else 1)

(* --- churn ----------------------------------------------------------------- *)

module Churn = Bgp_netsim.Churn
module Churn_report = Bgp_experiments.Churn_report

let churn_workload_of ~name ~prefixes ~rate ~duration ~flaps ~hold ~spread ~stages ~gap =
  match name with
  | "poisson" -> Ok (Churn.Poisson { rate; duration; prefixes })
  | "flap-storm" -> Ok (Churn.Flap_storm { prefixes; flaps; hold; spread })
  | "staged-failover" -> Ok (Churn.Staged_failover { stages; gap; prefixes })
  | s -> Error (Printf.sprintf "unknown workload %S (poisson|flap-storm|staged-failover)" s)

let churn_main opts trials jobs workload_name churn_prefixes rate duration flaps hold
    spread stages gap window prefix_mean max_prefixes out prof prof_flame quiet =
  if jobs < 0 then begin
    Fmt.epr "error: --jobs must be >= 0 (0 = auto), got %d@." jobs;
    exit 1
  end;
  if opts.dest_sample <> None then begin
    (* The schedule is generated against the full plan at the CLI layer,
       before the runner draws its sample — the two would disagree. *)
    Fmt.epr "error: --dest-sample applies to run/analyze, not churn@.";
    exit 1
  end;
  let jobs = if jobs = 0 then Bgp_engine.Pool.default_jobs () else jobs in
  let opts = { opts with shards = resolve_shards ~jobs ~quiet opts.shards } in
  (* Policy-free churn always warms up analytically: the measured queue
     high-water and throughput then reflect the load phase alone. *)
  let opts = { opts with analytic = opts.analytic || not opts.policies } in
  with_prof ~prof ~prof_flame ~quiet @@ fun () ->
  match build_scenario opts with
  | Error m ->
    Fmt.epr "error: %s@." m;
    1
  | Ok base -> (
    match
      churn_workload_of ~name:workload_name ~prefixes:churn_prefixes ~rate ~duration
        ~flaps ~hold ~spread ~stages ~gap
    with
    | Error m ->
      Fmt.epr "error: %s@." m;
      1
    | Ok workload -> (
      (* Per trial: a seeded heavy-tailed prefix plan, the topology the
         runner will build for that seed, and a schedule generated
         against both — all pure functions of the trial seed, so the
         whole campaign replays bit-identically at any --jobs/--shards. *)
      let make_trial i =
        let seed = opts.seed + i in
        let scenario = { base with Runner.seed = seed } in
        let topo = Runner.topology_of scenario in
        let rng = Bgp_engine.Rng.create (seed lxor 0x6368726e (* "chrn" *)) in
        let rng_plan = Bgp_engine.Rng.split rng in
        let rng_churn = Bgp_engine.Rng.split rng in
        let n_ases = topo.Bgp_topology.Topology.n_ases in
        let counts =
          Churn.prefix_counts ~rng:rng_plan ~n_ases ~mean:prefix_mean
            ~max_prefixes
        in
        let bgp = Config.with_prefix_plan counts scenario.Runner.net.Network.bgp in
        let net = { scenario.Runner.net with Network.bgp } in
        let config = net.Network.bgp in
        let schedule = Churn.generate ~rng:rng_churn ~config ~topo workload in
        (match Churn.validate ~config ~topo ~horizon:(Churn.horizon schedule) schedule with
        | Ok () -> ()
        | Error m -> failwith ("generated churn schedule invalid (bug): " ^ m));
        let universe = Config.num_dests config ~n_ases in
        ( {
            scenario with
            Runner.net;
            churn = Some schedule;
            churn_window = window;
          },
          universe )
      in
      match List.init trials make_trial with
      | exception (Invalid_argument m | Failure m) ->
        Fmt.epr "error: %s@." m;
        1
      | trial_specs ->
        let scenarios = List.map fst trial_specs in
        let universe = match trial_specs with (_, u) :: _ -> u | [] -> 0 in
        let results = Bgp_engine.Pool.map ~jobs Runner.run scenarios in
        let report =
          Churn_report.create ~workload:(Churn.kind_of_workload workload) ~window
            ~prefixes:churn_prefixes ~universe ~sampled_fraction:1.0 ~jobs
            ~shards:(Option.value ~default:1 opts.shards)
        in
        let ok = ref true in
        List.iteri
          (fun i r ->
            if not r.Runner.converged then ok := false;
            match r.Runner.churn with
            | None ->
              Fmt.epr "error: trial %d produced no churn stats (internal)@." i;
              ok := false
            | Some s ->
              if s.Churn.unconverged > 0 then ok := false;
              Churn_report.add report ~seed:(opts.seed + i) ~converged:r.Runner.converged s;
              if not quiet then
                Fmt.pr
                  "seed %3d: %5d ops over %4d prefixes, sustained %8.1f upd/s (peak \
                   %8.1f), queue %4d, settle p99 %6.3f s, unconverged %d@."
                  (opts.seed + i) s.Churn.ops s.Churn.disturbed s.Churn.sustained_rate
                  s.Churn.peak_window_rate s.Churn.queue_high_water s.Churn.p99
                  s.Churn.unconverged)
          results;
        Fmt.pr "%a" Churn_report.pp_summary (Churn_report.summary report);
        (match out with
        | None -> ()
        | Some "-" -> print_endline (Churn_report.to_json report)
        | Some path ->
          Churn_report.write report path;
          if not quiet then Fmt.pr "wrote %s@." path);
        if !ok then 0 else 1))

(* --- Command line -------------------------------------------------------- *)

let nodes =
  Arg.(value & opt int 120 & info [ "n"; "nodes" ] ~doc:"Routers (flat) or ASes (realistic).")

let realistic =
  Arg.(value & flag & info [ "realistic" ] ~doc:"Multi-router-per-AS topology (Fig 13).")

let spec_name =
  Arg.(value & opt string "70-30"
       & info [ "t"; "topology" ]
           ~doc:"Degree distribution: 70-30, 50-50, 85-15, 50-50-dense, internet.")

let failure =
  Arg.(value & opt float 0.05 & info [ "f"; "failure" ] ~doc:"Failure fraction, 0..1.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base RNG seed.")
let trials = Arg.(value & opt int 1 & info [ "trials" ] ~doc:"Seeds to run and average.")

let jobs =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run trials on N domains in parallel (0 = one per recommended core). \
                 Each trial owns its seed, RNG, scheduler and (with --trace or \
                 --trace-file) its own trace buffer and spill file, so the output is \
                 identical for every N — tracing never constrains the job count.")

let scheme_name =
  Arg.(value & opt string "static"
       & info [ "scheme" ] ~doc:"MRAI scheme: static, degree, dynamic.")

let mrai = Arg.(value & opt float 30.0 & info [ "mrai" ] ~doc:"Static MRAI in seconds.")
let low = Arg.(value & opt float 0.5 & info [ "low" ] ~doc:"Degree scheme: low-degree MRAI.")
let high =
  Arg.(value & opt float 2.25 & info [ "high" ] ~doc:"Degree scheme: high-degree MRAI.")
let up_th = Arg.(value & opt float 0.65 & info [ "up-th" ] ~doc:"Dynamic scheme upTh (s).")
let down_th =
  Arg.(value & opt float 0.05 & info [ "down-th" ] ~doc:"Dynamic scheme downTh (s).")

let batching =
  Arg.(value & flag & info [ "batching" ] ~doc:"Batched per-destination input queue.")

let tcp_batch =
  Arg.(value & opt (some int) None
       & info [ "tcp-batch" ] ~docv:"N" ~doc:"Per-TCP-read batching with N updates/read.")

let bypass_name =
  Arg.(value & opt string "none"
       & info [ "bypass" ] ~doc:"MRAI bypass: none, improvement, flap2 (Deshpande-Sikdar).")

let damping =
  Arg.(value & flag & info [ "damping" ] ~doc:"RFC 2439 route flap damping (sim-scaled).")

let policies =
  Arg.(value & flag & info [ "policies" ] ~doc:"Gao-Rexford valley-free policies.")

let analytic =
  Arg.(value & flag & info [ "analytic-warmup" ] ~doc:"Install the steady state directly.")

let hold_time =
  Arg.(value & opt (some float) None
       & info [ "hold-time" ] ~docv:"SECONDS"
           ~doc:"Detect failures via BGP hold-timer expiry instead of a link signal.")

let per_dest =
  Arg.(value & flag & info [ "per-dest-mrai" ] ~doc:"Per-destination MRAI timers.")

let validate =
  Arg.(value & flag & info [ "validate" ] ~doc:"Check routing invariants after each phase.")

let shards_arg =
  Arg.(value & opt (some int) None
       & info [ "shards" ] ~docv:"K"
           ~doc:"Run each trial itself across K domains: the topology is \
                 deterministically partitioned and the event loop executes in \
                 conservative barrier-synchronized windows with the link delay as \
                 lookahead.  Results are bit-identical for every K >= 1.  0 = auto \
                 (recommended domain count divided by the effective --jobs, so \
                 jobs x shards stays near the core count).  Omit for the classic \
                 sequential engine.")

let dest_sample_arg =
  Arg.(value & opt (some int) None
       & info [ "dest-sample" ] ~docv:"N"
           ~doc:"Seeded destination subsampling: originate, warm and measure only a \
                 random N-destination subset of the prefix universe (a fresh split of \
                 the trial seed, so the subset is deterministic).  Per-prefix metrics \
                 stay exact for the subset; message totals scale with the sampled \
                 fraction, which the report echoes together with an extrapolated \
                 full-universe estimate.")

let opts_term =
  let mk nodes realistic spec_name failure seed scheme_name mrai low high up_th down_th
      batching tcp_batch per_dest bypass_name damping policies analytic hold_time
      validate shards dest_sample =
    {
      nodes;
      realistic;
      spec_name;
      failure;
      seed;
      scheme_name;
      mrai;
      low;
      high;
      up_th;
      down_th;
      batching;
      tcp_batch;
      per_dest;
      bypass_name;
      damping;
      policies;
      analytic;
      hold_time;
      validate;
      shards;
      dest_sample;
    }
  in
  Term.(
    const mk $ nodes $ realistic $ spec_name $ failure $ seed $ scheme_name $ mrai $ low
    $ high $ up_th $ down_th $ batching $ tcp_batch $ per_dest $ bypass_name $ damping
    $ policies $ analytic $ hold_time $ validate $ shards_arg $ dest_sample_arg)

let trace_n =
  Arg.(value & opt (some int) None
       & info [ "trace" ] ~docv:"N"
           ~doc:"Record an event trace per trial (each trial gets its own buffer, so \
                 this composes with --jobs) and print the last N events of the first \
                 trial, plus a per-trial delay attribution line.")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace-file" ] ~docv:"PATH"
           ~doc:"Write every trial's complete event trace as JSONL, one seed-suffixed \
                 file per trial (PATH of t.jsonl gives t.seedN.jsonl), each finalized \
                 with a meta line.  Composes with any --jobs count; combine the files \
                 later with 'bgpsim analyze --merge DIR'.")

let probe_interval =
  Arg.(value & opt (some float) None
       & info [ "probe-interval" ] ~docv:"SECONDS"
           ~doc:"Enable the telemetry layer: probe every router's queue length, \
                 unfinished work, MRAI level and RIB size every SECONDS of simulated \
                 time (plus a counter registry).  Telemetry is per-trial, so it \
                 composes with any --trials/--jobs count.")

let telemetry_dir =
  Arg.(value & opt (some string) None
       & info [ "telemetry-dir" ] ~docv:"DIR"
           ~doc:"Export each trial's telemetry (series/progress/counters as CSV, \
                 JSONL and a report.json) into DIR, one seedN_ prefix per trial.  \
                 Implies telemetry at the default 0.5 s probe interval unless \
                 --probe-interval is given.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary.")

let prof_arg =
  Arg.(value & opt (some string) None
       & info [ "prof" ] ~docv:"PATH"
           ~doc:"Profile the run's own wall time and write a bgp-prof/1 JSON report \
                 to PATH: per-domain compute / barrier-wait / mailbox spans (sharded \
                 engine), pool busy/queue-wait, runner phase boundaries, scheduler \
                 slab high-water and per-domain GC deltas.  The profiler reads only \
                 the monotonic clock and GC statistics, so every simulation output \
                 is bit-identical with and without it.")

let prof_flame_arg =
  Arg.(value & opt (some string) None
       & info [ "prof-flame" ] ~docv:"PATH"
           ~doc:"Also write the profile as collapsed-stack lines \
                 ('domain;shard;span microseconds') to PATH for inferno / \
                 flamegraph.pl / speedscope.  Implies profiling even without --prof.")

let run_term =
  Term.(
    const run_main $ opts_term $ trials $ jobs $ trace_n $ trace_file $ probe_interval
    $ telemetry_dir $ prof_arg $ prof_flame_arg $ quiet)

let capacity =
  Arg.(value & opt int 1_000_000
       & info [ "capacity" ] ~docv:"N"
           ~doc:"Trace ring-buffer capacity in events; causal chains through evicted \
                 events come back incomplete (see --spill).")

let spill =
  Arg.(value & opt (some string) None
       & info [ "spill" ] ~docv:"PATH"
           ~doc:"Spill evicted trace events to PATH as JSONL instead of dropping \
                 them, so the analysis stays complete beyond --capacity events.")

let json_path =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH"
           ~doc:"Also write the attribution as JSON (schema bgp-attr/2, or \
                 bgp-attr-merge/1 with --merge) to PATH, or to stdout for '-'.")

let top =
  Arg.(value & opt int 5
       & info [ "top" ] ~docv:"K" ~doc:"Routers to list by critical-path residency.")

let max_hops =
  Arg.(value & opt int 40
       & info [ "max-hops" ] ~docv:"N"
           ~doc:"Critical-path hops to print (keeps both ends when longer).")

let per_dest_attr =
  Arg.(value & flag
       & info [ "per-dest" ]
           ~doc:"Also report the per-destination view: each destination's own \
                 convergence tail decomposed the same way, tail percentiles \
                 (p50/p95/p99) and the straggler prefixes beyond p95.")

let flame_path =
  Arg.(value & opt (some string) None
       & info [ "flame" ] ~docv:"PATH"
           ~doc:"Write collapsed-stack lines ('frames value', microseconds) to PATH \
                 for inferno / flamegraph.pl / speedscope.  Aggregate \
                 router;component stacks by default; per-destination \
                 dest;router;component stacks with --per-dest; one aggregate per \
                 trial with --merge.")

let merge_dir =
  Arg.(value & opt (some string) None
       & info [ "merge" ] ~docv:"DIR"
           ~doc:"Skip simulation: fold every trial under DIR into the merged sweep \
                 report — pooled tail percentiles and the worst straggler \
                 destinations across trials.  Trials with an attribution sidecar \
                 (*.attr.json, written by 'bgpsim --trace-file' and 'bgpsim chaos \
                 --sidecar-dir') are folded straight from it without touching the \
                 raw trace; only sidecar-less trials re-parse their *.jsonl.  \
                 Unreadable inputs are counted and the first error reported, never \
                 silently dropped.  Scenario options are ignored.")

let merge_reparse =
  Arg.(value & flag
       & info [ "reparse" ]
           ~doc:"With --merge: ignore sidecars and re-derive every trial's \
                 attribution from its raw trace JSONL (the O(events) baseline the \
                 sidecars exist to avoid — useful for cross-checking and \
                 benchmarks).")

let analyze_cmd =
  let doc = "attribute one run's convergence delay to its causes" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a single traced trial of the scenario, recovers the causal chain from \
         the failure to the last route change (the critical path), and decomposes the \
         convergence delay into queueing, processing, MRAI hold and propagation time \
         — per hop, per router, and in total.  The component totals sum exactly to \
         the measured convergence delay.";
      `P
        "The same walk runs once per destination (--per-dest), decomposing every \
         prefix's own convergence tail, and the whole analysis exports as \
         collapsed-stack flamegraphs (--flame) or re-runs over the finalized trace \
         files of a sweep without simulating anything (--merge).";
    ]
  in
  Cmd.v
    (Cmd.info "analyze" ~doc ~man)
    Term.(
      const analyze_main $ opts_term $ capacity $ spill $ json_path $ top $ max_hops
      $ per_dest_attr $ flame_path $ merge_dir $ jobs $ merge_reparse $ prof_arg
      $ prof_flame_arg $ quiet)

let chaos_trials =
  Arg.(value & opt int 100
       & info [ "trials" ] ~docv:"N" ~doc:"Chaos trials to run (seeds seed..seed+N-1).")

let max_events =
  Arg.(value & opt int 5
       & info [ "max-events" ] ~docv:"N"
           ~doc:"Base fault events per schedule (correlated companions can add a few \
                 more).")

let horizon =
  Arg.(value & opt float 8.0
       & info [ "horizon" ] ~docv:"SECONDS"
           ~doc:"Fault-schedule horizon after the failure instant; every injected \
                 fault onsets and heals within it.")

let replay_every =
  Arg.(value & opt int 10
       & info [ "replay-every" ] ~docv:"K"
           ~doc:"Rerun every K-th trial and require a bit-identical digest \
                 (replay-identity invariant).")

let chaos_out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"PATH"
           ~doc:"Write the campaign artifact (schema bgp-chaos/1: fingerprint, \
                 violating trials, minimized reproducer) to PATH, or stdout for '-'.")

let seed_violation =
  Arg.(value & flag
       & info [ "seed-violation" ]
           ~doc:"Self-test: declare gray-link schedules violating so the \
                 minimization path is exercised; exit 0 only if the harness finds \
                 one and minimizes it to at most 3 events.")

let chaos_sidecar_dir =
  Arg.(value & opt (some string) None
       & info [ "sidecar-dir" ] ~docv:"DIR"
           ~doc:"Write every trial's attribution sidecar (bgp-attr-sidecar/1, \
                 including the invariant battery's violated-invariant names) into \
                 DIR as it finishes, atomically — so the campaign can be watched \
                 live with 'bgpsim serve --dir DIR' and merged afterwards with \
                 'bgpsim analyze --merge DIR', with no trace files involved.")

let chaos_cmd =
  let doc = "run a deterministic chaos campaign against the simulator" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs N randomized fault-injection trials of the scenario in parallel.  \
         Trial i uses seed seed+i, derives a fault schedule from that seed \
         (partitions that heal, session resets, gray links, delay jitter, clock \
         skew, correlated bursts), runs fully traced, and checks an invariant \
         battery: convergence, exact attribution telescoping, causal ordering, \
         message conservation, queue drain, RIB conservation and periodic replay \
         bit-identity.";
      `P
        "The whole campaign is a pure function of the base seed — the printed \
         fingerprint must be identical across reruns and across --jobs.  When a \
         trial violates an invariant, its schedule is delta-debugged (ddmin) and \
         shrunk to a minimal reproducer, archived with --out.";
    ]
  in
  Cmd.v
    (Cmd.info "chaos" ~doc ~man)
    Term.(
      const chaos_main $ opts_term $ chaos_trials $ jobs $ max_events $ horizon
      $ replay_every $ capacity $ chaos_out $ seed_violation $ chaos_sidecar_dir
      $ prof_arg $ prof_flame_arg $ quiet)

let churn_workload_arg =
  Arg.(value & opt string "flap-storm"
       & info [ "workload" ] ~docv:"KIND"
           ~doc:"Churn workload: poisson (memoryless announce/withdraw arrivals), \
                 flap-storm (every target flaps N times), staged-failover (targets \
                 withdraw/re-announce in timed waves).")

let churn_prefixes_arg =
  Arg.(value & opt int 1000
       & info [ "prefixes" ] ~docv:"P"
           ~doc:"Distinct prefixes the workload churns (clamped to the universe).")

let churn_rate =
  Arg.(value & opt float 50.0
       & info [ "rate" ] ~docv:"OPS" ~doc:"Poisson: expected churn ops per second.")

let churn_duration =
  Arg.(value & opt float 20.0
       & info [ "duration" ] ~docv:"SECONDS" ~doc:"Poisson: length of the arrival process.")

let churn_flaps =
  Arg.(value & opt int 3
       & info [ "flaps" ] ~docv:"N" ~doc:"Flap storm: withdraw/re-announce cycles per prefix.")

let churn_hold =
  Arg.(value & opt float 1.0
       & info [ "hold" ] ~docv:"SECONDS" ~doc:"Flap storm: down time per flap.")

let churn_spread =
  Arg.(value & opt float 5.0
       & info [ "spread" ] ~docv:"SECONDS"
           ~doc:"Flap storm: per-prefix start times are staggered uniformly over this span.")

let churn_stages =
  Arg.(value & opt int 4
       & info [ "stages" ] ~docv:"N" ~doc:"Staged failover: number of waves.")

let churn_gap =
  Arg.(value & opt float 5.0
       & info [ "gap" ] ~docv:"SECONDS"
           ~doc:"Staged failover: seconds between waves (re-announce after half a gap).")

let churn_window =
  Arg.(value & opt float 0.5
       & info [ "window" ] ~docv:"SECONDS" ~doc:"Throughput-sampling window width.")

let churn_prefix_mean =
  Arg.(value & opt float 4.0
       & info [ "prefix-mean" ] ~docv:"MEAN"
           ~doc:"Heavy-tailed prefix plan: target mean prefixes originated per AS \
                 (bounded Pareto, every AS at least 1).")

let churn_max_prefixes =
  Arg.(value & opt int 10_000
       & info [ "max-prefixes" ] ~docv:"N"
           ~doc:"Heavy-tailed prefix plan: cap on prefixes per AS.")

let churn_out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"PATH"
           ~doc:"Write the campaign report (schema bgp-churn/1: per-trial throughput, \
                 queue high-water, pooled settle-delay tails) to PATH, or stdout for \
                 '-'.  Name it *.churn.json and 'bgpsim serve' will fold it into its \
                 gauges.")

let churn_cmd =
  let doc = "sustain a multi-prefix churn workload and measure steady-state behaviour" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generalizes the one-shot failure harness into a sustained load generator: \
         every AS originates a seeded heavy-tailed set of prefixes (--prefix-mean, \
         --max-prefixes), and a seeded open-ended schedule of announce/withdraw \
         operations (--workload) drives the network through the failure instant.  A \
         steady-state monitor reports sustained and peak update-processing \
         throughput, the input-queue high-water mark, and per-prefix settle-delay \
         tails (p50/p95/p99) measured from each prefix's last disturbance to its \
         last Loc-RIB revision anywhere.";
      `P
        "The whole campaign is a pure function of the base seed: the same seed \
         produces bit-identical reports at any --jobs and any --shards count.  \
         After the schedule quiesces, every churned prefix's forwarding chain is \
         checked; the command exits non-zero on any unconverged prefix or \
         unconverged trial.  Composes with --failure (staged failover under a \
         large-scale failure) and all scheme/queue options.";
    ]
  in
  Cmd.v
    (Cmd.info "churn" ~doc ~man)
    Term.(
      const churn_main $ opts_term $ trials $ jobs $ churn_workload_arg
      $ churn_prefixes_arg $ churn_rate $ churn_duration $ churn_flaps $ churn_hold
      $ churn_spread $ churn_stages $ churn_gap $ churn_window $ churn_prefix_mean
      $ churn_max_prefixes $ churn_out $ prof_arg $ prof_flame_arg $ quiet)

(* --- serve ----------------------------------------------------------------- *)

module Serve = Bgp_experiments.Serve

let serve_main dir socket query max_requests scan_interval quiet =
  match query with
  | Some q -> (
    match Serve.request ~socket q with
    | resp ->
      print_string resp;
      if String.length resp = 0 || resp.[String.length resp - 1] <> '\n' then
        print_newline ();
      0
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "error: cannot reach server at %s: %s@." socket (Unix.error_message e);
      1)
  | None -> (
    if not quiet then
      Fmt.pr "serving %s at %s (status | report | flame | metrics | shutdown)@." dir
        socket;
    match Serve.run ?max_requests ~scan_interval ~socket ~dir () with
    | () -> 0
    | exception Unix.Unix_error (e, fn, _) ->
      Fmt.epr "error: %s: %s@." fn (Unix.error_message e);
      1)

let serve_dir =
  Arg.(value & opt string "."
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Campaign directory to watch for attribution sidecars (*.attr.json) \
                 and churn campaign reports (*.churn.json).")

let serve_socket =
  Arg.(value & opt string "bgpsim-serve.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen (or query) on.")

let serve_query =
  Arg.(value & opt (some string) None
       & info [ "query" ] ~docv:"REQUEST"
           ~doc:"Client mode: send one request (status | report | flame | metrics | \
                 shutdown) to a running server and print the response.")

let serve_max_requests =
  Arg.(value & opt (some int) None
       & info [ "max-requests" ] ~docv:"N"
           ~doc:"Stop after answering N requests (CI smoke tests; default: serve until \
                 a shutdown request).")

let serve_scan_interval =
  Arg.(value & opt float 0.5
       & info [ "scan-interval" ] ~docv:"SECONDS"
           ~doc:"Rescan the directory at least this often while idle (every request \
                 also triggers a rescan first).")

let serve_cmd =
  let doc = "watch a campaign directory and serve live merged attribution" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Watches DIR for per-trial attribution sidecars (*.attr.json, written \
         atomically by 'bgpsim --trace-file', sweeps, and 'bgpsim chaos \
         --sidecar-dir') and folds each new one into a streaming merge as it \
         appears — running component totals, a log-scale tail-delay histogram for \
         incremental p50/p95/p99, the chaos invariant-battery tally, and a bounded \
         worst-straggler board.  Raw trace JSONL is never read, so a thousand-trial \
         campaign costs the server O(trials) work total.";
      `P
        "Requests are one line per connection on a Unix-domain socket: 'status' \
         (bgp-serve-status/2 JSON: trial counts, tail percentiles, throughput, \
         uptime, process RSS and GC gauges, telemetry counters), 'report' (the full \
         bgp-attr-merge/1 document), 'flame' (merged collapsed stacks), 'metrics' \
         (Prometheus text exposition, so the server can be scraped) and 'shutdown'.  \
         Query a running server with --query, e.g. 'bgpsim serve --socket S --query \
         status'.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_main $ serve_dir $ serve_socket $ serve_query $ serve_max_requests
      $ serve_scan_interval $ quiet)

let cmd =
  let doc = "simulate BGP re-convergence after a large-scale failure" in
  Cmd.group ~default:run_term (Cmd.info "bgpsim" ~doc)
    [ analyze_cmd; chaos_cmd; churn_cmd; serve_cmd ]

let () = exit (Cmd.eval' cmd)
