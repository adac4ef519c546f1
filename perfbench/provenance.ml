(* Where a result came from. Every result carries this header so that
   numbers taken on different machines or builds are refused rather
   than compared: timings from a 2-core box and a 16-core box measure
   different things, even for the same revision. *)

type t = {
  revision : string;  (* git revision, or "none" outside a git checkout *)
  source_digest : string;  (* MD5 over the simulator's sources under lib/ *)
  nproc : int;
  recommended_domains : int;
  jobs : int;
  shards : int;
  seed : int;
  ocaml_version : string;
  ocamlrunparam : string;
}

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None)

let rec source_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort String.compare names;
    List.concat_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then source_files path
        else if List.mem (Filename.extension name) [ ".ml"; ".mli"; ".c" ] then [ path ]
        else [])
      (Array.to_list names)

let source_digest () =
  match source_files "lib" with
  | [] -> "none"
  | files ->
    Digest.to_hex
      (Digest.string (String.concat "\000" (List.map (fun f -> f ^ Digest.file f) files)))

let collect ~jobs ~shards ~seed =
  {
    revision =
      (* Only this checkout's own history: outside a git checkout, git
         would report whatever repository encloses the directory. *)
      (if Sys.file_exists ".git" then command_line "git rev-parse --short HEAD" else None)
      |> Option.value ~default:"none";
    source_digest = source_digest ();
    nproc =
      Option.value ~default:0 (Option.bind (command_line "nproc") int_of_string_opt);
    recommended_domains = Domain.recommended_domain_count ();
    jobs;
    shards;
    seed;
    ocaml_version = Sys.ocaml_version;
    ocamlrunparam = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM");
  }

let to_json p =
  let module J = Bgp_netsim.Json_lite in
  Printf.sprintf
    "{\"revision\":%s,\"source_digest\":%s,\"nproc\":%d,\"recommended_domains\":%d,\"jobs\":%d,\"shards\":%d,\"seed\":%d,\"ocaml_version\":%s,\"ocamlrunparam\":%s}"
    (J.escape p.revision) (J.escape p.source_digest) p.nproc p.recommended_domains p.jobs
    p.shards p.seed (J.escape p.ocaml_version) (J.escape p.ocamlrunparam)

let of_json j =
  let module J = Bgp_netsim.Json_lite in
  let o = J.obj j in
  let s k = J.str (J.field o k) and i k = J.int (J.field o k) in
  {
    revision = s "revision";
    source_digest = s "source_digest";
    nproc = i "nproc";
    recommended_domains = i "recommended_domains";
    jobs = i "jobs";
    shards = i "shards";
    seed = i "seed";
    ocaml_version = s "ocaml_version";
    ocamlrunparam = s "ocamlrunparam";
  }

(* Two results may be compared only when they ran on the same core
   budget with the same parallelism and runtime settings. *)
let comparable a b =
  let differ name x y = if x = y then None else Some (Printf.sprintf "%s %s vs %s" name x y) in
  match
    List.filter_map Fun.id
      [
        differ "nproc" (string_of_int a.nproc) (string_of_int b.nproc);
        differ "recommended_domains"
          (string_of_int a.recommended_domains)
          (string_of_int b.recommended_domains);
        differ "jobs" (string_of_int a.jobs) (string_of_int b.jobs);
        differ "shards" (string_of_int a.shards) (string_of_int b.shards);
        differ "ocaml_version" a.ocaml_version b.ocaml_version;
        differ "OCAMLRUNPARAM" a.ocamlrunparam b.ocamlrunparam;
      ]
  with
  | [] -> Ok ()
  | reasons -> Error ("refused: " ^ String.concat ", " reasons)
