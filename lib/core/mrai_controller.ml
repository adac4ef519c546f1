type load = {
  mutable now : float;
  mutable queue_length : int;
  mutable mean_processing_delay : float;
  mutable utilization : float;
  mutable updates_in_window : int;
}

type detector = Queue_work | Utilization | Message_count

type scheme =
  | Static of float
  | Degree_dependent of { threshold : int; low : float; high : float }
  | Dynamic of {
      levels : float array;
      up_threshold : float;
      down_threshold : float;
      detector : detector;
    }

let paper_dynamic ?(levels = [| 0.5; 1.25; 2.25 |]) ?(up_threshold = 0.65)
    ?(down_threshold = 0.05) () =
  Dynamic { levels; up_threshold; down_threshold; detector = Queue_work }

type t =
  | Fixed of float
  | Adaptive of {
      levels : float array;
      up_threshold : float;
      down_threshold : float;
      detector : detector;
      mutable level : int;
      mutable transitions : int;
    }

let make scheme ~degree =
  match scheme with
  | Static v -> Fixed v
  | Degree_dependent { threshold; low; high } ->
    Fixed (if degree > threshold then high else low)
  | Dynamic { levels; up_threshold; down_threshold; detector } ->
    if Array.length levels = 0 then invalid_arg "Mrai_controller.make: empty levels";
    if down_threshold > up_threshold then
      invalid_arg "Mrai_controller.make: down_threshold above up_threshold";
    Adaptive { levels; up_threshold; down_threshold; detector; level = 0; transitions = 0 }

let[@inline] measure detector load =
  match detector with
  | Queue_work -> float_of_int load.queue_length *. load.mean_processing_delay
  | Utilization -> load.utilization
  | Message_count -> float_of_int load.updates_in_window

let observe t load =
  match t with
  | Fixed _ -> ()
  | Adaptive a ->
    let value = measure a.detector load in
    if value > a.up_threshold && a.level < Array.length a.levels - 1 then begin
      a.level <- a.level + 1;
      a.transitions <- a.transitions + 1
    end
    else if value < a.down_threshold && a.level > 0 then begin
      a.level <- a.level - 1;
      a.transitions <- a.transitions + 1
    end

let is_adaptive = function Fixed _ -> false | Adaptive _ -> true

let current_interval = function
  | Fixed v -> v
  | Adaptive a -> a.levels.(a.level)

let level = function Fixed _ -> 0 | Adaptive a -> a.level
let transitions = function Fixed _ -> 0 | Adaptive a -> a.transitions

let scheme_name = function
  | Static v -> Printf.sprintf "mrai=%g" v
  | Degree_dependent { threshold; low; high } ->
    Printf.sprintf "degree-dep(>%d: %g, else %g)" threshold high low
  | Dynamic { levels; up_threshold; down_threshold; detector } ->
    let detector_name =
      match detector with
      | Queue_work -> "queue"
      | Utilization -> "util"
      | Message_count -> "msgs"
    in
    Printf.sprintf "dynamic(%s, up=%g, down=%g, levels=%s)" detector_name up_threshold
      down_threshold
      (String.concat "/" (List.map (Printf.sprintf "%g") (Array.to_list levels)))
