(* The benchmark's side of the serve protocol. Requests go through
   [Serve.request], which reads the reply to end of file before it
   closes the connection, so the benchmark never closes a socket the
   server is still writing to (a client that hangs up early kills a
   serve process with SIGPIPE). *)

module J = Bgp_netsim.Json_lite
module Serve = Bgp_experiments.Serve

(* Retry until a freshly started server has bound and listens. *)
let wait_ready ?(timeout = 30.0) socket =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Serve.request ~socket "status" with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* A reply the client can trust: JSON documents parse, and every sample
   line of the Prometheus text is "name value". *)
let reply_ok verb reply =
  match verb with
  | "metrics" ->
    reply <> ""
    && List.for_all
         (fun line ->
           line = ""
           || line.[0] = '#'
           ||
           match List.rev (String.split_on_char ' ' line) with
           | v :: _ :: _ -> Float.of_string_opt v <> None
           | _ -> false)
         (String.split_on_char '\n' reply)
  | _ -> ( match J.parse reply with _ -> true | exception J.Bad _ -> false)

(* The folded trial count of a status reply. *)
let status_trials reply =
  match J.try_result (fun () -> J.int (J.field (J.obj (J.parse reply)) "trials")) with
  | Ok n -> Some n
  | Error _ -> None
