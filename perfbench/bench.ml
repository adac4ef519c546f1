(* The benchmark of record (see README.md in this directory).

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe compare BASE.out NEW.out
     bench.exe pin

   The main form runs repetitions of workload W, each in a fresh
   process (so peak heap, the sweep's memo cache and the path tables
   cannot carry over), until S seconds have passed, and prints the
   end-to-end metrics as medians over them; with --trace 1 it instead
   runs one untraced repetition and one traced run and prints the
   per-layer metrics. The last line of standard output is always one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

   [compare] refuses two saved outputs taken on different core budgets;
   [pin] prints the fingerprints of the current build, for pins.ml. *)

module J = Bgp_netsim.Json_lite
module Bstats = Perfbench.Bstats
module Fingerprint = Perfbench.Fingerprint
module Provenance = Perfbench.Provenance

let workloads = [ "fig1_sweep"; "heavy_trial"; "churn_flap"; "traced_campaign" ]

let min_reps = 3

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* --- One repetition (child process) ------------------------------------ *)

let run_rep ~workload ~seed =
  match workload with
  | "heavy_trial" -> fst (Workloads.heavy_rep ())
  | "churn_flap" -> fst (Workloads.churn_rep ())
  | "fig1_sweep" -> Workloads.fig1_rep ()
  | "traced_campaign" -> fst (Workloads.campaign_rep ~seed ())
  | w -> die "unknown workload %S" w

(* Fingerprint mismatches count as failed operations of the repetition. *)
let checked ~workload (rep : Workloads.rep) =
  match
    Fingerprint.check ~what:"fingerprint" ~expected:(Pins.expected workload)
      ~actual:rep.fingerprint
  with
  | None -> rep
  | Some e -> { rep with errors = rep.errors @ [ e ] }

let json_list strs = "[" ^ String.concat "," (List.map J.escape strs) ^ "]"

let json_obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> J.escape k ^ ":" ^ v) kvs) ^ "}"

let rep_to_json (r : Workloads.rep) =
  json_obj
    [
      ("setup_cpu_s", J.float_lit r.setup.cpu);
      ("setup_wall_s", J.float_lit r.setup.wall);
      ("cpu_s", J.float_lit r.measured.cpu);
      ("wall_s", J.float_lit r.measured.wall);
      ("updates", string_of_int r.updates);
      ("trials", string_of_int r.trials);
      ("top_heap_words", string_of_int (Gc.quick_stat ()).Gc.top_heap_words);
      ("attempted", string_of_int r.attempted);
      ("errors", json_list r.errors);
      ("fingerprint", Fingerprint.to_json r.fingerprint);
      ("extra", json_obj (List.map (fun (k, v) -> (k, J.float_lit v)) r.extra));
    ]

(* What the parent reads back from a child. *)
type child = {
  setup_cpu_s : float;
  setup_wall_s : float;
  cpu_s : float;
  wall_s : float;
  updates : int;
  trials : int;
  heap_words : int;
  attempted : int;
  errors : string list;
  fingerprint : Fingerprint.t;
  extra : (string * float) list;
}

let child_of_json j =
  let o = J.obj j in
  let f k = J.float (J.field o k) and i k = J.int (J.field o k) in
  {
    setup_cpu_s = f "setup_cpu_s";
    setup_wall_s = f "setup_wall_s";
    cpu_s = f "cpu_s";
    wall_s = f "wall_s";
    updates = i "updates";
    trials = i "trials";
    heap_words = i "top_heap_words";
    attempted = i "attempted";
    errors = List.map J.str (J.arr (J.field o "errors"));
    fingerprint = Fingerprint.of_json (J.field o "fingerprint");
    extra = List.map (fun (k, v) -> (k, J.float v)) (J.obj (J.field o "extra"));
  }

(* --- Child processes ----------------------------------------------------- *)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> Some l
  | [] -> None

(* Run this executable with [args]; its stdout's last line, or why not. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
    match last_line out with Some l -> Ok l | None -> Error "child printed nothing")
  | Unix.WEXITED c -> Error (Printf.sprintf "child exited with %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "child killed by signal %d" s)

let spawn_json args of_json =
  match spawn args with
  | Error e -> Error (String.concat " " args ^ ": " ^ e)
  | Ok line -> (
    match J.try_result (fun () -> of_json (J.parse line)) with
    | Ok v -> Ok v
    | Error e -> Error (String.concat " " args ^ ": unreadable output: " ^ e))

let rep_seed ~seed i = (seed * 7919) + i

(* --- Reporting ------------------------------------------------------------ *)

let finite v = if Float.is_finite v then v else 0.0

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    (name, json_obj [ ("value", J.float_lit (finite v)); ("unit", J.escape unit) ])
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric metrics));
       ])

let print_metric_line (name, unit, v) = Printf.printf "  %-44s %16.6g %s\n" name v unit

let provenance ~workload ~seed =
  let jobs, shards =
    match workload with
    | "fig1_sweep" -> (Workloads.fig1_jobs, 1)
    | "traced_campaign" -> (Workloads.campaign_jobs, 1)
    | "churn_flap" -> (1, Workloads.churn_shards)
    | _ -> (1, 1)
  in
  Provenance.collect ~jobs ~shards ~seed

(* --- Driver ------------------------------------------------------------- *)

let rep_args ~workload ~seed i =
  [ "rep"; "--workload"; workload; "--seed"; string_of_int (rep_seed ~seed i) ]

let report_errors errs = List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) errs

let drive_untraced ~workload ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec loop i reps crashes =
    if Unix.gettimeofday () -. t0 >= float_of_int seconds && i >= min_reps then
      (List.rev reps, List.rev crashes)
    else
      match spawn_json (rep_args ~workload ~seed i) child_of_json with
      | Ok c ->
        Printf.printf
          "rep %d: setup %.4f s cpu (%.4f s wall), measured %.4f s cpu (%.4f s wall), %d \
           updates, %d trials, heap %d words%s\n%!"
          i c.setup_cpu_s c.setup_wall_s c.cpu_s c.wall_s c.updates c.trials c.heap_words
          (if c.errors = [] then "" else Printf.sprintf ", %d FAILED" (List.length c.errors));
        report_errors c.errors;
        loop (i + 1) (c :: reps) crashes
      | Error e ->
        Printf.printf "rep %d: FAILED: %s\n%!" i e;
        loop (i + 1) reps (e :: crashes)
  in
  let reps, crashes = loop 0 [] [] in
  if reps = [] then die "no repetition of %s completed" workload;
  let med f = Bstats.median (List.map f reps) in
  let metrics =
    [
      ("setup_s", "s", med (fun c -> c.setup_cpu_s));
      ("cpu_s", "s", med (fun c -> c.cpu_s));
      ("updates_per_cpu_s", "1/s", med (fun c -> float_of_int c.updates /. c.cpu_s));
      ("trials_per_cpu_s", "1/s", med (fun c -> float_of_int c.trials /. c.cpu_s));
      (* The run's peak: with two domains the top heap depends on how
         the largest trials overlap in time, so a median of a few
         repetitions wanders while their maximum does not. *)
      ( "peak_heap_mb",
        "MiB",
        float_of_int (8 * List.fold_left (fun m c -> max m c.heap_words) 0 reps) /. 1048576.0 );
    ]
  in
  Printf.printf "%s: %d repetitions, medians (peak_heap_mb: maximum):\n" workload
    (List.length reps);
  List.iter print_metric_line metrics;
  (* Run-to-run noise within this run, as the quartile distance over the
     median of the repetitions' CPU times. *)
  if List.length reps >= 2 then
    print_metric_line
      ("cpu_s.spread_over_reps", "ratio", Bstats.iqr_share (List.map (fun c -> c.cpu_s) reps));
  (* Wall-clock figures: printed, not gated — on a shared VM they move
     with the time the hypervisor steals. *)
  List.iter print_metric_line
    [
      ("setup_wall_s", "s", med (fun c -> c.setup_wall_s));
      ("wall_s", "s", med (fun c -> c.wall_s));
      ("updates_per_s", "1/s", med (fun c -> float_of_int c.updates /. c.wall_s));
      ("trials_per_s", "1/s", med (fun c -> float_of_int c.trials /. c.wall_s));
    ];
  (* Workload-specific numbers, also medians over repetitions. *)
  (match (List.hd reps).extra with
  | [] -> ()
  | extra ->
    List.iter
      (fun (k, _) ->
        let unit =
          if Filename.check_suffix k "_ms" then "ms"
          else if Filename.check_suffix k "_per_s" then "1/s"
          else "count"
        in
        print_metric_line (k, unit, med (fun c -> List.assoc k c.extra)))
      extra);
  let failed = List.length crashes + List.fold_left (fun a c -> a + List.length c.errors) 0 reps in
  let attempted = List.length crashes + List.fold_left (fun a c -> a + c.attempted) 0 reps in
  (metrics, attempted, failed)

type traced_out = {
  t_rep : child;
  t_layers : (string * float) list;
  t_errors : string list;
  t_notes : string list;
  t_checks : int;
}

let traced_of_json j =
  let o = J.obj j in
  {
    t_rep = child_of_json (J.field o "rep");
    t_layers = List.map (fun (k, v) -> (k, J.float v)) (J.obj (J.field o "layers"));
    t_errors = List.map J.str (J.arr (J.field o "errors"));
    t_notes = List.map J.str (J.arr (J.field o "notes"));
    t_checks = J.int (J.field o "checks");
  }

let drive_traced ~workload ~seed =
  let untraced = spawn_json (rep_args ~workload ~seed 0) child_of_json in
  let traced =
    spawn_json [ "traced"; "--workload"; workload; "--seed"; string_of_int (rep_seed ~seed 0) ]
      traced_of_json
  in
  match (untraced, traced) with
  | Error e, _ | _, Error e -> die "%s" e
  | Ok u, Ok t ->
    List.iter (Printf.printf "note: %s\n") t.t_notes;
    let errors = u.errors @ t.t_rep.errors @ t.t_errors in
    report_errors errors;
    let layers =
      List.map
        (fun (name, unit) ->
          let v =
            if name = "bench.traced_over_untraced" then t.t_rep.cpu_s /. u.cpu_s
            else Option.value ~default:0.0 (List.assoc_opt name t.t_layers)
          in
          (name, unit, v))
        Layers.metrics
    in
    Printf.printf "%s: per-layer metrics of one traced run\n" workload;
    List.iter print_metric_line layers;
    (layers, u.attempted + t.t_rep.attempted + t.t_checks, List.length errors)

let drive ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then die "unknown workload %S" workload;
  if seconds < 1 then die "--seconds must be at least 1";
  let p = provenance ~workload ~seed in
  Printf.printf "provenance %s\n%!" (Provenance.to_json p);
  let metrics, attempted, failed =
    if trace then drive_traced ~workload ~seed else drive_untraced ~workload ~seed ~seconds
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* --- compare ------------------------------------------------------------ *)

(* A saved output: its provenance line and its final result line. *)
let read_output path =
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let prov () =
    List.find_map
      (fun l ->
        if String.length l > 11 && String.sub l 0 11 = "provenance " then
          Some (Provenance.of_json (J.parse (String.sub l 11 (String.length l - 11))))
        else None)
      lines
  in
  let metrics last =
    List.map
      (fun (k, v) -> (k, J.float (J.field (J.obj v) "value")))
      (J.obj (J.field (J.obj (J.parse last)) "metrics"))
  in
  match J.try_result (fun () -> (prov (), Option.map metrics (last_line (String.concat "\n" lines)))) with
  | Ok (Some p, Some m) -> (p, m)
  | Ok _ | Error _ -> die "%s: not a benchmark output" path

let compare_outputs base_path new_path =
  let pb, mb = read_output base_path and pn, mn = read_output new_path in
  match Provenance.comparable pb pn with
  | Error why ->
    Printf.printf "%s\n" why;
    exit 3
  | Ok () ->
    List.iter
      (fun (k, vb) ->
        match List.assoc_opt k mn with
        | Some vn -> Printf.printf "  %-44s %14.6g -> %14.6g  (x%.3f)\n" k vb vn (vn /. vb)
        | None -> Printf.printf "  %-44s missing in %s\n" k new_path)
      mb

(* --- Entry ------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  let get o k =
    match List.assoc_opt k o with Some v -> v | None -> die "missing --%s" k
  in
  let int o k =
    match int_of_string_opt (get o k) with Some n -> n | None -> die "--%s expects an integer" k
  in
  match args with
  | "rep" :: rest ->
    let o = opts [] rest in
    let workload = get o "workload" in
    print_endline (rep_to_json (checked ~workload (run_rep ~workload ~seed:(int o "seed"))))
  | "traced" :: rest ->
    let o = opts [] rest in
    let workload = get o "workload" in
    let r = Layers.run ~workload ~seed:(int o "seed") in
    print_endline
      (json_obj
         [
           ("rep", rep_to_json (checked ~workload r.Layers.rep));
           ("layers", json_obj (List.map (fun (k, v) -> (k, J.float_lit (finite v))) r.Layers.layers));
           ("errors", json_list r.Layers.errors);
           ("notes", json_list r.Layers.notes);
           ("checks", string_of_int r.Layers.checks);
         ])
  | [ "compare"; a; b ] -> compare_outputs a b
  | [ "pin" ] ->
    List.iter
      (fun workload ->
        let rep = run_rep ~workload ~seed:1 in
        Printf.printf "  | %S ->\n    [\n" workload;
        List.iter (fun (k, v) -> Printf.printf "      (%S, %S);\n" k v) rep.Workloads.fingerprint;
        Printf.printf "    ]\n%!")
      workloads
  | _ ->
    let o = opts [] args in
    let trace =
      match get o "trace" with "0" -> false | "1" -> true | _ -> die "--trace expects 0 or 1"
    in
    drive ~workload:(get o "workload") ~seed:(int o "seed") ~seconds:(int o "seconds") ~trace
