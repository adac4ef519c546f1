module Types = Bgp_proto.Types
module Path = Bgp_proto.Path

let no_cause = -1

type event =
  | Update_sent of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Types.update;
      cause : int;
    }
  | Update_delivered of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Types.update;
      cause : int;
    }
  | Processed of {
      id : int;
      time : float;
      router : int;
      src : int;
      dest : int;
      enqueued : float;
      started : float;
      cause : int;
    }
  | Mrai_flush of {
      id : int;
      time : float;
      router : int;
      peer : int;
      dest : int;
      ready : float;
      cause : int;
    }
  | Router_failed of { id : int; time : float; router : int }
  | Session_down of { id : int; time : float; router : int; peer : int; cause : int }
  | Session_up of { id : int; time : float; router : int; peer : int; cause : int }
  | Fault of { id : int; time : float; label : string; router : int; cause : int }

let id_of = function
  | Update_sent { id; _ }
  | Update_delivered { id; _ }
  | Processed { id; _ }
  | Mrai_flush { id; _ }
  | Router_failed { id; _ }
  | Session_down { id; _ }
  | Session_up { id; _ }
  | Fault { id; _ } ->
    id

let time_of = function
  | Update_sent { time; _ }
  | Update_delivered { time; _ }
  | Processed { time; _ }
  | Mrai_flush { time; _ }
  | Router_failed { time; _ }
  | Session_down { time; _ }
  | Session_up { time; _ }
  | Fault { time; _ } ->
    time

let cause_of = function
  | Update_sent { cause; _ }
  | Update_delivered { cause; _ }
  | Processed { cause; _ }
  | Mrai_flush { cause; _ }
  | Session_down { cause; _ }
  | Session_up { cause; _ }
  | Fault { cause; _ } ->
    cause
  | Router_failed _ -> no_cause

let router_of = function
  | Update_sent { src; _ } -> src
  | Update_delivered { dst; _ } -> dst
  | Processed { router; _ } | Mrai_flush { router; _ } -> router
  | Router_failed { router; _ } | Session_down { router; _ } -> router
  | Session_up { router; _ } | Fault { router; _ } -> router

let dest_of = function
  | Update_sent { update; _ } | Update_delivered { update; _ } ->
    Some (Types.update_dest update)
  | Processed { dest; _ } -> if dest >= 0 then Some dest else None
  | Mrai_flush { dest; _ } -> Some dest
  | Router_failed _ | Session_down _ | Session_up _ | Fault _ -> None

(* Latest event per destination, max (time, id) — the same tie-break the
   network-wide terminal uses, so a destination's terminal is the event
   recorded last among simultaneous ones (causally downstream). *)
let terminals_by_dest events =
  let table = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match dest_of e with
      | None -> ()
      | Some dest -> (
        match Hashtbl.find_opt table dest with
        | None -> Hashtbl.replace table dest e
        | Some best ->
          let te = time_of e and tb = time_of best in
          if te > tb || (te = tb && id_of e > id_of best) then
            Hashtbl.replace table dest e))
    events;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun dest e acc -> (dest, e) :: acc) table [])

let pp_event ppf = function
  | Update_sent { id; time; src; dst; update; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d %3d -> %3d  send %a (cause #%d)" time id src dst
      Types.pp_update update cause
  | Update_delivered { id; time; src; dst; update; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d %3d -> %3d  recv %a (cause #%d)" time id src dst
      Types.pp_update update cause
  | Processed { id; time; router; src; dest; enqueued; started; cause } ->
    Fmt.pf ppf
      "%10.4f  #%-6d router %d processed d%d from %d (enq %.4f, start %.4f, cause #%d)"
      time id router dest src enqueued started cause
  | Mrai_flush { id; time; router; peer; dest; ready; cause } ->
    Fmt.pf ppf
      "%10.4f  #%-6d router %d MRAI flush d%d -> %d (ready %.4f, held %.4f, cause #%d)"
      time id router dest peer ready (time -. ready) cause
  | Router_failed { id; time; router } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d FAILED" time id router
  | Session_down { id; time; router; peer; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d: session to %d down (cause #%d)" time id router
      peer cause
  | Session_up { id; time; router; peer; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d: session to %d up (cause #%d)" time id router
      peer cause
  | Fault { id; time; label; router; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d FAULT %s (router %d, cause #%d)" time id label router
      cause

(* --- JSONL serialization -------------------------------------------------- *)

(* "%.17g" round-trips any finite double exactly, so spilled events parse
   back bit-identical and attribution over a spilled trace matches the
   in-memory result. *)
let json_float = Json_lite.float_lit

let buf_update buf update =
  match update with
  | Types.Advertise { dest; path } ->
    Printf.bprintf buf "{\"kind\":\"advertise\",\"dest\":%d,\"path\":[" dest;
    ignore
      (Path.fold_hops
         (fun sep asn ->
           Printf.bprintf buf "%s%d" sep asn;
           ",")
         "" path);
    Buffer.add_string buf "]}"
  | Types.Withdraw dest -> Printf.bprintf buf "{\"kind\":\"withdraw\",\"dest\":%d}" dest

let event_to_json event =
  let buf = Buffer.create 128 in
  let head kind id time =
    Printf.bprintf buf "{\"type\":\"%s\",\"id\":%d,\"time\":%s" kind id (json_float time)
  in
  (match event with
  | Update_sent { id; time; src; dst; update; cause } ->
    head "update_sent" id time;
    Printf.bprintf buf ",\"src\":%d,\"dst\":%d,\"cause\":%d,\"update\":" src dst cause;
    buf_update buf update
  | Update_delivered { id; time; src; dst; update; cause } ->
    head "update_delivered" id time;
    Printf.bprintf buf ",\"src\":%d,\"dst\":%d,\"cause\":%d,\"update\":" src dst cause;
    buf_update buf update
  | Processed { id; time; router; src; dest; enqueued; started; cause } ->
    head "processed" id time;
    Printf.bprintf buf
      ",\"router\":%d,\"src\":%d,\"dest\":%d,\"enqueued\":%s,\"started\":%s,\"cause\":%d"
      router src dest (json_float enqueued) (json_float started) cause
  | Mrai_flush { id; time; router; peer; dest; ready; cause } ->
    head "mrai_flush" id time;
    Printf.bprintf buf ",\"router\":%d,\"peer\":%d,\"dest\":%d,\"ready\":%s,\"cause\":%d"
      router peer dest (json_float ready) cause
  | Router_failed { id; time; router } ->
    head "router_failed" id time;
    Printf.bprintf buf ",\"router\":%d" router
  | Session_down { id; time; router; peer; cause } ->
    head "session_down" id time;
    Printf.bprintf buf ",\"router\":%d,\"peer\":%d,\"cause\":%d" router peer cause
  | Session_up { id; time; router; peer; cause } ->
    head "session_up" id time;
    Printf.bprintf buf ",\"router\":%d,\"peer\":%d,\"cause\":%d" router peer cause
  | Fault { id; time; label; router; cause } ->
    head "fault" id time;
    Printf.bprintf buf ",\"label\":\"%s\",\"router\":%d,\"cause\":%d" label router cause);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* The JSON reader lives in {!Json_lite}, shared with the sidecar and
   merge layers; numbers keep their literal so ints and exact floats both
   survive. *)
module J = Json_lite

let event_of_json ~paths line =
  J.try_result @@ fun () ->
    let obj = J.obj (J.parse line) in
    let field = J.field obj in
    let int key = J.int (field key) in
    let fl key = J.float (field key) in
    let str key = J.str (field key) in
    let update () =
      let u = J.obj (field "update") in
      let uint key = J.int (J.field u key) in
      match J.str (J.field u "kind") with
      | "withdraw" -> Types.Withdraw (uint "dest")
      | "advertise" ->
        let hops = List.map J.int (J.arr (J.field u "path")) in
        Types.Advertise { dest = uint "dest"; path = Path.of_list paths hops }
      | _ -> raise (J.Bad "update: unknown kind")
    in
    let id = int "id" and time = fl "time" in
    match str "type" with
    | "update_sent" ->
      Update_sent
        {
          id;
          time;
          src = int "src";
          dst = int "dst";
          update = update ();
          cause = int "cause";
        }
    | "update_delivered" ->
      Update_delivered
        {
          id;
          time;
          src = int "src";
          dst = int "dst";
          update = update ();
          cause = int "cause";
        }
    | "processed" ->
      Processed
        {
          id;
          time;
          router = int "router";
          src = int "src";
          dest = int "dest";
          enqueued = fl "enqueued";
          started = fl "started";
          cause = int "cause";
        }
    | "mrai_flush" ->
      Mrai_flush
        {
          id;
          time;
          router = int "router";
          peer = int "peer";
          dest = int "dest";
          ready = fl "ready";
          cause = int "cause";
        }
    | "router_failed" -> Router_failed { id; time; router = int "router" }
    | "session_down" ->
      Session_down { id; time; router = int "router"; peer = int "peer"; cause = int "cause" }
    | "session_up" ->
      Session_up { id; time; router = int "router"; peer = int "peer"; cause = int "cause" }
    | "fault" ->
      Fault { id; time; label = str "label"; router = int "router"; cause = int "cause" }
    | kind -> raise (J.Bad (Printf.sprintf "unknown event type %S" kind))

(* --- Shard-trace merge ----------------------------------------------------- *)

let with_ids ~id ~cause = function
  | Update_sent r -> Update_sent { r with id; cause }
  | Update_delivered r -> Update_delivered { r with id; cause }
  | Processed r -> Processed { r with id; cause }
  | Mrai_flush r -> Mrai_flush { r with id; cause }
  | Router_failed r -> Router_failed { r with id }
  | Session_down r -> Session_down { r with id; cause }
  | Session_up r -> Session_up { r with id; cause }
  | Fault r -> Fault { r with id; cause }

(* Merge per-shard event lists into one sequential-looking trace.  Input
   ids must be globally unique with ids allocated in causal order within
   each (time-tied) group — the sharded network's strided per-router ids
   and its high fault-id range satisfy both.  The merge sorts by
   (time, id), renumbers densely from 0 and rewrites cause pointers; a
   cause whose event is missing (evicted from a full per-shard ring)
   degrades to [no_cause], exactly like a sequential ring overflow. *)
let merge_renumber lists =
  let arr = Array.of_list (List.concat lists) in
  Array.sort
    (fun a b ->
      let c = Float.compare (time_of a) (time_of b) in
      if c <> 0 then c else Int.compare (id_of a) (id_of b))
    arr;
  let remap = Hashtbl.create (2 * Array.length arr) in
  Array.iteri (fun i e -> Hashtbl.replace remap (id_of e) i) arr;
  Array.to_list
    (Array.mapi
       (fun i e ->
         let cause =
           let c = cause_of e in
           if c = no_cause then no_cause
           else (match Hashtbl.find_opt remap c with Some j -> j | None -> no_cause)
         in
         with_ids ~id:i ~cause e)
       arr)

(* --- Run-meta line --------------------------------------------------------- *)

(* One JSONL line carrying what a trace file cannot reconstruct from its
   events: the trial's seed and failure-injection time.  Appended by
   [finalize] so a seed-suffixed per-trial file is self-describing and a
   merge pass ([Attribution.merge]) can re-analyze it standalone. *)

type run_meta = { seed : int; t_fail : float }

let meta_prefix = "{\"type\":\"meta\""

let meta_to_json m =
  Printf.sprintf "{\"type\":\"meta\",\"schema\":\"bgp-trace/1\",\"seed\":%d,\"t_fail\":%s}"
    m.seed (json_float m.t_fail)

let is_meta_line line =
  String.length line >= String.length meta_prefix
  && String.sub line 0 (String.length meta_prefix) = meta_prefix

let meta_of_json line =
  J.try_result @@ fun () ->
    let obj = J.obj (J.parse line) in
    { seed = J.int (J.field obj "seed"); t_fail = J.float (J.field obj "t_fail") }

(* --- Ring buffer + spill sink --------------------------------------------- *)

type t = {
  capacity : int;
  mutable data : event array;
  mutable next : int;  (* next write position *)
  mutable size : int;
  mutable dropped : int;
  mutable spilled : int;
  mutable next_id : int;
  spill : string option;
  mutable sink : out_channel option;
}

let create ?(capacity = 100_000) ?spill () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let sink = Option.map open_out spill in
  {
    capacity;
    data = [||];
    next = 0;
    size = 0;
    dropped = 0;
    spilled = 0;
    next_id = 0;
    spill;
    sink;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t event =
  if Array.length t.data = 0 then t.data <- Array.make t.capacity event;
  if t.size = t.capacity then begin
    (* Evicting the oldest event: spill it if a sink is attached. *)
    match t.sink with
    | Some oc ->
      output_string oc (event_to_json t.data.(t.next));
      output_char oc '\n';
      t.spilled <- t.spilled + 1
    | None -> t.dropped <- t.dropped + 1
  end
  else t.size <- t.size + 1;
  t.data.(t.next) <- event;
  t.next <- (t.next + 1) mod t.capacity

let length t = t.size
let capacity t = t.capacity
let dropped t = t.dropped
let spilled t = t.spilled
let spill_path t = t.spill

let close t =
  match t.sink with
  | Some oc ->
    close_out oc;
    t.sink <- None
  | None -> ()

let to_list t =
  let start = (t.next - t.size + t.capacity) mod t.capacity in
  List.init t.size (fun i -> t.data.((start + i) mod t.capacity))

let read_spilled t =
  match t.spill with
  | None -> []
  | Some path ->
    Option.iter flush t.sink;
    if not (Sys.file_exists path) then []
    else begin
      let paths = Path.create_table () in
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match In_channel.input_line ic with
            | None -> List.rev acc
            | Some line when is_meta_line line -> go acc
            | Some line ->
              (match event_of_json ~paths line with
              | Ok event -> go (event :: acc)
              | Error msg ->
                failwith (Printf.sprintf "Trace.events: bad spilled line (%s): %s" msg line))
          in
          go [])
    end

let events t = read_spilled t @ to_list t

let finalize t ~meta =
  match t.spill with
  | None -> invalid_arg "Trace.finalize: the trace has no spill file"
  | Some path ->
    close t;
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (event_to_json e);
            output_char oc '\n')
          (to_list t);
        output_string oc (meta_to_json meta);
        output_char oc '\n');
    (* The file is now the complete record; empty the ring so [events]
       (which splices file + ring) does not double-count the tail. *)
    t.size <- 0;
    t.next <- 0

let read_file ~paths path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* A truncated write (crash mid-spill, partial copy) shows up as a
           line that does not parse — typically the last one.  Report it as
           a value so a merge over many per-trial files can skip or surface
           the bad file instead of dying mid-pass. *)
        let rec go lineno meta acc =
          match In_channel.input_line ic with
          | None ->
            if lineno = 1 then Error (Printf.sprintf "%s: empty trace file" path)
            else Ok (meta, List.rev acc)
          | Some line when is_meta_line line ->
            (match meta_of_json line with
            | Ok m -> go (lineno + 1) (Some m) acc
            | Error msg ->
              Error (Printf.sprintf "%s:%d: bad meta line (%s)" path lineno msg))
          | Some line ->
            (match event_of_json ~paths line with
            | Ok event -> go (lineno + 1) meta (event :: acc)
            | Error msg ->
              Error
                (Printf.sprintf "%s:%d: truncated or malformed line (%s)" path lineno
                   msg))
        in
        go 1 None [])

let count t ~pred = List.length (List.filter pred (to_list t))

let sends_by_router t =
  let table = Hashtbl.create 64 in
  List.iter
    (function
      | Update_sent { src; _ } ->
        Hashtbl.replace table src (1 + Option.value ~default:0 (Hashtbl.find_opt table src))
      | Update_delivered _ | Processed _ | Mrai_flush _ | Router_failed _
      | Session_down _ | Session_up _ | Fault _ ->
        ())
    (to_list t);
  List.sort
    (fun (_, a) (_, b) -> Int.compare b a)
    (Hashtbl.fold (fun r c acc -> (r, c) :: acc) table [])

let between t ~lo ~hi =
  List.filter
    (fun e ->
      let time = time_of e in
      time >= lo && time < hi)
    (to_list t)

let dump ?(limit = 50) ppf t =
  let events = to_list t in
  let skip = Stdlib.max 0 (List.length events - limit) in
  if skip > 0 then Fmt.pf ppf "... (%d earlier events)@." skip;
  List.iteri (fun i e -> if i >= skip then Fmt.pf ppf "%a@." pp_event e) events

let clear t =
  t.size <- 0;
  t.next <- 0;
  t.dropped <- 0;
  t.spilled <- 0;
  match (t.spill, t.sink) with
  | Some path, Some oc ->
    close_out oc;
    t.sink <- Some (open_out path)
  | Some path, None -> if Sys.file_exists path then Sys.remove path
  | None, _ -> ()
