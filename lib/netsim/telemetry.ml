(* Telemetry: per-run counter/gauge registry, periodic per-router
   time-series probes, and CSV/JSONL/JSON exporters.

   An instance is created per Runner.run (never shared between trials),
   so enabling telemetry keeps every run a pure function of its seed:
   probes read router state, they never draw from an RNG or mutate the
   network.  The network layer registers getter-backed counters at build
   time and the runner drives the probe loop; this module owns only the
   data model and its serializations. *)

type config = {
  probe_interval : float;
  probe_warmup : bool;
  max_ticks : int;
}

let config ?(probe_interval = 0.5) ?(probe_warmup = false) ?(max_ticks = 4096) () =
  if probe_interval <= 0.0 then
    invalid_arg "Telemetry.config: probe_interval must be > 0";
  if max_ticks <= 0 then invalid_arg "Telemetry.config: max_ticks must be > 0";
  { probe_interval; probe_warmup; max_ticks }

type kind = Counter | Gauge

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

type row = {
  router : int;
  queue_len : int;
  unfinished_work : float;
  mrai_level : int;
  mrai_transitions : int;
  rib_size : int;
  rib_changes : int;
}

type sample = { time : float; row : row }

type tick = { t : float; rows : row array }

type metric = { mkind : kind; read : unit -> float }

(* Memory accounting: estimated sizes from fixed word models (see
   Rib.approx_bytes / Path.table_stats), so every field is a pure
   function of simulated state — the same across jobs and safe to
   compare structurally.  One [shard_memory] per shard scheduler
   (pseudo-shard 0 for a sequential run). *)
type shard_memory = {
  shard : int;
  routers : int;
  rib_entries : int;  (** Adj-RIB-In entries across the shard's routers *)
  rib_bytes : int;
  path_nodes : int;
      (** path nodes the shard's hashcons table holds now (swept ones
          excluded) *)
  path_bytes : int;
  sched_max_live : int;  (** slab occupancy high-water *)
  sched_slab_cap : int;
}

type memory = {
  per_shard : shard_memory list;  (** sorted by shard *)
  rib_bytes_total : int;
  path_bytes_total : int;
  path_sharing : float;  (** naive hop storage / shared-node storage *)
  trace_len : int;
  trace_cap : int;
  trace_dropped : int;
  trace_spilled : int;
}

type t = {
  conf : config;
  metrics : (string, metric) Hashtbl.t;
  mutable ticks_rev : tick list;
  mutable n_ticks : int;
  mutable dropped : int;
  mutable t_fail : float option;
  mutable memory : memory option;
}

let create conf =
  {
    conf;
    metrics = Hashtbl.create 32;
    ticks_rev = [];
    n_ticks = 0;
    dropped = 0;
    t_fail = None;
    memory = None;
  }

let set_memory t m = t.memory <- Some m

let conf t = t.conf

(* --- Registry ----------------------------------------------------------- *)

let register t ~name ~kind read =
  if Hashtbl.mem t.metrics name then
    invalid_arg (Printf.sprintf "Telemetry.register: duplicate metric %S" name);
  Hashtbl.replace t.metrics name { mkind = kind; read }

let counters t =
  Hashtbl.fold (fun name m acc -> (name, m.mkind, m.read ()) :: acc) t.metrics []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let counter_value t name =
  Option.map (fun m -> m.read ()) (Hashtbl.find_opt t.metrics name)

(* --- Probe recording ----------------------------------------------------- *)

let record_tick t ~time rows =
  if t.n_ticks >= t.conf.max_ticks then t.dropped <- t.dropped + 1
  else begin
    t.ticks_rev <- { t = time; rows } :: t.ticks_rev;
    t.n_ticks <- t.n_ticks + 1
  end

let ticks t = t.n_ticks
let dropped_ticks t = t.dropped
let set_fail_time t time = t.t_fail <- Some time

(* --- Report -------------------------------------------------------------- *)

type series_point = { time : float; value : float }

type report = {
  interval : float;
  t_fail : float option;
  probes : int;
  dropped : int;
  samples : sample array;
  progress : series_point array;
  counters : (string * kind * float) list;
  memory : memory option;
}

(* Convergence progress at tick k: the fraction of end-of-run survivors
   whose cumulative Loc-RIB revision count had already reached its final
   value — i.e. whose best routes were final.  The counter is monotone,
   so the series is nondecreasing and ends at 1. *)
let progress_of ticks =
  match List.rev ticks with
  | [] -> [||]
  | last :: _ ->
    let final = Hashtbl.create 256 in
    Array.iter (fun r -> Hashtbl.replace final r.router r.rib_changes) last.rows;
    let base = Array.length last.rows in
    Array.of_list
      (List.map
         (fun tick ->
           let settled =
             Array.fold_left
               (fun acc r ->
                 match Hashtbl.find_opt final r.router with
                 | Some f when r.rib_changes = f -> acc + 1
                 | Some _ | None -> acc)
               0 tick.rows
           in
           {
             time = tick.t;
             value = (if base = 0 then 1.0 else float_of_int settled /. float_of_int base);
           })
         ticks)

let report t =
  let ticks = List.rev t.ticks_rev in
  let samples =
    Array.of_list
      (List.concat_map
         (fun tick -> Array.to_list (Array.map (fun row -> { time = tick.t; row }) tick.rows))
         ticks)
  in
  {
    interval = t.conf.probe_interval;
    t_fail = t.t_fail;
    probes = t.n_ticks;
    dropped = t.dropped;
    samples;
    progress = progress_of ticks;
    counters = counters t;
    memory = t.memory;
  }

(* --- Exporters ----------------------------------------------------------- *)

let series_header = "time,router,queue_len,unfinished_work,mrai_level,mrai_transitions,rib_size,rib_changes"

let series_csv r =
  let buf = Buffer.create (64 * (1 + Array.length r.samples)) in
  Buffer.add_string buf series_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (s : sample) ->
      Printf.bprintf buf "%.6g,%d,%d,%.6g,%d,%d,%d,%d\n" s.time s.row.router
        s.row.queue_len s.row.unfinished_work s.row.mrai_level s.row.mrai_transitions
        s.row.rib_size s.row.rib_changes)
    r.samples;
  Buffer.contents buf

let progress_csv r =
  let buf = Buffer.create (24 * (1 + Array.length r.progress)) in
  Buffer.add_string buf "time,fraction_final\n";
  Array.iter (fun (p : series_point) -> Printf.bprintf buf "%.6g,%.6g\n" p.time p.value) r.progress;
  Buffer.contents buf

let counters_csv r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "name,kind,value\n";
  List.iter
    (fun (name, kind, v) -> Printf.bprintf buf "%s,%s,%.6g\n" name (kind_name kind) v)
    r.counters;
  Buffer.contents buf

(* Hand-rolled JSON emission: the values are identifiers and numbers, so
   escaping only needs to cover the metric names we generate. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let series_jsonl r =
  let buf = Buffer.create (96 * (1 + Array.length r.samples)) in
  Array.iter
    (fun (s : sample) ->
      Printf.bprintf buf
        "{\"time\":%s,\"router\":%d,\"queue_len\":%d,\"unfinished_work\":%s,\"mrai_level\":%d,\"mrai_transitions\":%d,\"rib_size\":%d,\"rib_changes\":%d}\n"
        (json_float s.time) s.row.router s.row.queue_len
        (json_float s.row.unfinished_work)
        s.row.mrai_level s.row.mrai_transitions s.row.rib_size s.row.rib_changes)
    r.samples;
  Buffer.contents buf

let counters_jsonl r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, kind, v) ->
      Printf.bprintf buf "{\"name\":%s,\"kind\":%s,\"value\":%s}\n" (json_string name)
        (json_string (kind_name kind))
        (json_float v))
    r.counters;
  Buffer.contents buf

let report_json r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"bgp-telemetry/1\",\n";
  Printf.bprintf buf "  \"probe_interval\": %s,\n" (json_float r.interval);
  (match r.t_fail with
  | None -> Buffer.add_string buf "  \"t_fail\": null,\n"
  | Some t -> Printf.bprintf buf "  \"t_fail\": %s,\n" (json_float t));
  Printf.bprintf buf "  \"probes\": %d,\n  \"dropped\": %d,\n  \"samples\": %d,\n"
    r.probes r.dropped (Array.length r.samples);
  Buffer.add_string buf "  \"progress\": [";
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "[%s, %s]" (json_float p.time) (json_float p.value))
    r.progress;
  Buffer.add_string buf "],\n  \"counters\": [";
  List.iteri
    (fun i (name, kind, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "{\"name\": %s, \"kind\": %s, \"value\": %s}" (json_string name)
        (json_string (kind_name kind))
        (json_float v))
    r.counters;
  Buffer.add_string buf "],\n";
  (match r.memory with
  | None -> Buffer.add_string buf "  \"memory\": null\n"
  | Some m ->
    Buffer.add_string buf "  \"memory\": {\n    \"per_shard\": [";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ", ";
        Printf.bprintf buf
          "{\"shard\": %d, \"routers\": %d, \"rib_entries\": %d, \"rib_bytes\": %d, \
           \"path_nodes\": %d, \"path_bytes\": %d, \"sched_max_live\": %d, \
           \"sched_slab_cap\": %d}"
          s.shard s.routers s.rib_entries s.rib_bytes s.path_nodes s.path_bytes
          s.sched_max_live s.sched_slab_cap)
      m.per_shard;
    Printf.bprintf buf
      "],\n    \"rib_bytes_total\": %d,\n    \"path_bytes_total\": %d,\n    \
       \"path_sharing\": %s,\n    \"trace\": {\"len\": %d, \"cap\": %d, \"dropped\": \
       %d, \"spilled\": %d}\n  }\n"
      m.rib_bytes_total m.path_bytes_total
      (json_float m.path_sharing)
      m.trace_len m.trace_cap m.trace_dropped m.trace_spilled);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let export ~dir ?(prefix = "") r =
  mkdir_p dir;
  let files =
    [
      ("series.csv", series_csv r);
      ("progress.csv", progress_csv r);
      ("counters.csv", counters_csv r);
      ("series.jsonl", series_jsonl r);
      ("counters.jsonl", counters_jsonl r);
      ("report.json", report_json r);
    ]
  in
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir (prefix ^ name) in
      write_file path contents;
      path)
    files

(* --- Summary ------------------------------------------------------------- *)

let peak_work r =
  Array.fold_left
    (fun ((_, best_w) as best) s ->
      if s.row.unfinished_work > best_w then (s.time, s.row.unfinished_work) else best)
    (0.0, 0.0) r.samples

let max_level r =
  Array.fold_left (fun acc s -> Stdlib.max acc s.row.mrai_level) 0 r.samples

let pp_summary ppf r =
  let t_peak, w_peak = peak_work r in
  Fmt.pf ppf "%d probes every %gs%s, peak queue work %.3f s at t=%.1f, max MRAI level %d"
    r.probes r.interval
    (if r.dropped > 0 then Printf.sprintf " (%d dropped)" r.dropped else "")
    w_peak t_peak (max_level r)

let pp_bytes ppf b =
  if b >= 1 lsl 20 then Fmt.pf ppf "%.1f MiB" (float_of_int b /. 1048576.0)
  else if b >= 1 lsl 10 then Fmt.pf ppf "%.1f KiB" (float_of_int b /. 1024.0)
  else Fmt.pf ppf "%d B" b

let pp_memory ppf m =
  Fmt.pf ppf "rib %a over %d shard%s, paths %a (sharing %.2fx), trace %d/%d"
    pp_bytes m.rib_bytes_total
    (List.length m.per_shard)
    (if List.length m.per_shard = 1 then "" else "s")
    pp_bytes m.path_bytes_total m.path_sharing m.trace_len m.trace_cap
