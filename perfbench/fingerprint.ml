(* A simulated fingerprint: the named outputs of one workload instance
   that must not change when only the speed of the program changes
   (message and event counts, delays, shape verdicts, per-point means).
   Values are kept as their exact text (floats via [Json_lite.float_lit],
   which round-trips), so comparison is string equality: any drift in
   the simulation is a mismatch, never a tolerance question. *)

type t = (string * string) list

let int k v = (k, string_of_int v)
let float k v = (k, Bgp_netsim.Json_lite.float_lit v)
let bool k v = (k, string_of_bool v)

(* Every difference between a pinned fingerprint and a measured one, in
   the pinned order, then keys the pin does not know. An empty list is a
   match. *)
let diff ~expected ~actual =
  let changed =
    List.filter_map
      (fun (k, want) ->
        match List.assoc_opt k actual with
        | None -> Some (Printf.sprintf "%s: missing (pinned %s)" k want)
        | Some got when got <> want -> Some (Printf.sprintf "%s: got %s, pinned %s" k got want)
        | Some _ -> None)
      expected
  in
  let extra =
    List.filter_map
      (fun (k, got) ->
        if List.mem_assoc k expected then None
        else Some (Printf.sprintf "%s: not pinned (got %s)" k got))
      actual
  in
  changed @ extra

(* One check: [None] on a match, else every difference in one line. *)
let check ~what ~expected ~actual =
  match diff ~expected ~actual with
  | [] -> None
  | ms -> Some (what ^ ": " ^ String.concat "; " ms)

let to_json (fp : t) =
  let module J = Bgp_netsim.Json_lite in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> J.escape k ^ ":" ^ J.escape v) fp)
  ^ "}"

let of_json j : t =
  let module J = Bgp_netsim.Json_lite in
  List.map (fun (k, v) -> (k, J.str v)) (J.obj j)
