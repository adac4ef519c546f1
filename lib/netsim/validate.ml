module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Failure = Bgp_topology.Failure
module Router = Bgp_proto.Router
module Types = Bgp_proto.Types

type issue = { router : int; dest : int; problem : string }

let pp_issue ppf i =
  Fmt.pf ppf "router %d, dest %d: %s" i.router i.dest i.problem

(* Does the AS still have at least one live router? *)
let as_alive topo failure =
  let alive = Array.make topo.Topology.n_ases false in
  for r = 0 to Topology.num_routers topo - 1 do
    if not (Failure.is_failed failure r) then alive.(topo.Topology.as_of_router.(r)) <- true
  done;
  alive

(* Follow next hops from [r] toward [dest]; having a bound of [n] steps
   catches loops. *)
let forwarding_chain net topo failure ~r ~dest ~origin =
  let n = Topology.num_routers topo in
  let rec follow current steps =
    if steps > n then Error "forwarding loop"
    else if Failure.is_failed failure current then Error "chain hits a failed router"
    else
      let router = Network.router net current in
      match Router.next_hop router dest with
      | None -> Error (Printf.sprintf "chain breaks at router %d (no route)" current)
      | Some hop when hop = current ->
        if Router.asn router = origin then Ok steps
        else Error (Printf.sprintf "router %d claims local route for foreign AS" current)
      | Some hop -> follow hop (steps + 1)
  in
  follow r 0

let check net ~failure =
  let topo = Network.topology net in
  let n = Topology.num_routers topo in
  let issues = ref [] in
  let report router dest problem = issues := { router; dest; problem } :: !issues in
  let alive_as = as_alive topo failure in
  let relationships = Network.relationships net in
  (* Valley-free export can legitimately leave destinations unreachable
     and non-shortest, so completeness and BFS-equality only apply to
     policy-free runs. *)
  let policied = relationships <> None in
  let flat = n = topo.Topology.n_ases in
  let connected = Failure.survivors_connected topo failure in
  (* Precompute survivor BFS distances per destination AS (flat only). *)
  let keep v = not (Failure.is_failed failure v) in
  for r = 0 to n - 1 do
    if keep r then begin
      let router = Network.router net r in
      let config = Network.bgp_config net in
      (* Sampled-out destinations are never originated, so only active
         ones carry invariants. *)
      Bgp_proto.Config.iter_active_dests config ~n_ases:topo.Topology.n_ases @@ fun dest ->
        let origin = Bgp_proto.Config.origin_as config ~dest in
        match Router.best_path_to router dest with
        | Some path ->
          if not alive_as.(origin) then report r dest "retains a route to a dead AS"
          else begin
            let dead =
              Bgp_proto.Path.fold_hops
                (fun dead asn -> if dead < 0 && not alive_as.(asn) then asn else dead)
                (-1) path
            in
            if dead >= 0 then report r dest (Printf.sprintf "path crosses dead AS %d" dead);
            (match relationships with
            | Some rels ->
              if not (Relationships.valley_free rels ~self:r (Bgp_proto.Path.hops path)) then
                report r dest "selected path is not valley-free"
            | None -> ());
            match forwarding_chain net topo failure ~r ~dest ~origin with
            | Ok _ -> ()
            | Error problem -> report r dest problem
          end
        | None ->
          if alive_as.(origin) && connected && not policied then
            report r dest "missing a route to a live AS despite connected survivors"
    end
  done;
  (* Exact shortest-path check for flat, policy-free topologies. *)
  if flat && connected && not policied then begin
    let graph = topo.Topology.graph in
    for dest = 0 to n - 1 do
      if keep dest then begin
        let dist =
          (* BFS over survivors only. *)
          let d = Array.make n max_int in
          let q = Queue.create () in
          d.(dest) <- 0;
          Queue.add dest q;
          while not (Queue.is_empty q) do
            let u = Queue.take q in
            List.iter
              (fun v ->
                if keep v && d.(v) = max_int then begin
                  d.(v) <- d.(u) + 1;
                  Queue.add v q
                end)
              (Graph.neighbors graph u)
          done;
          d
        in
        let config = Network.bgp_config net in
        List.iter
          (fun prefix ->
            for r = 0 to n - 1 do
              if keep r && r <> dest then
                match Router.best_path_to (Network.router net r) prefix with
                | Some path ->
                  let len = Types.path_length path in
                  if len <> dist.(r) then
                    report r prefix
                      (Printf.sprintf "path length %d but survivor BFS distance %d" len
                         dist.(r))
                | None -> ()  (* already reported above *)
            done)
          (Bgp_proto.Config.dests_of_as config ~asn:dest)
      end
    done
  end;
  List.rev !issues

let check_exn net ~failure =
  match check net ~failure with
  | [] -> ()
  | issues ->
    let buffer = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buffer in
    Fmt.pf ppf "%d invariant violations:@." (List.length issues);
    List.iteri
      (fun i issue -> if i < 20 then Fmt.pf ppf "  %a@." pp_issue issue)
      issues;
    Format.pp_print_flush ppf ();
    failwith (Buffer.contents buffer)
