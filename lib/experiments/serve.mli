(** A live analysis service over a campaign directory — the [bgpsim
    serve] backend.

    A server watches one directory for attribution sidecars
    ([*.attr.json], {!Bgp_netsim.Attribution.sidecar}) as a sweep
    ({!Sweep.traced_archived}, [bgpsim --trace-file]) or a chaos
    campaign ([bgpsim chaos --sidecar-dir]) drops them, folds each new
    one into a streaming {!Bgp_netsim.Attr_merge} accumulator exactly
    once, and answers requests over a Unix-domain stream socket.  Churn
    campaign artifacts ([*.churn.json], {!Churn_report}) ride the same
    scan: their summaries back per-campaign workload gauges and the
    status document's active-workload field.  Raw trace JSONL is never
    read: sidecars are written atomically, so a scan only ever sees
    complete documents, and the folded trial count grows monotonically
    as the campaign runs.

    {b Protocol} (one request per connection): the client sends a single
    line and half-closes; the server replies with one document and
    closes.
    - [status] — ["bgp-serve-status/2"] JSON: folded trial / destination
      counts, skip count + first error, the chaos invariant-battery
      pass/fail tally, histogram tail percentiles (p50/p95/p99),
      mean delay, trials/sec throughput, uptime (plus explicit-unit
      [uptime_s]), the active workload kind ([workload]: the newest
      churn campaign's, ["one-shot"] for plain sidecars, [null] when
      empty) and churn-campaign count, process RSS and GC gauges, and
      the service's own telemetry counters (scans, folds, requests by
      kind);
    - [report] — the full merged ["bgp-attr-merge/1"] document
      ({!Bgp_netsim.Attr_merge.to_json});
    - [flame] — merged collapsed-stack flamegraph lines (text);
    - [metrics] — Prometheus text exposition format (version 0.0.4):
      campaign counters, fold timings and lag, tail-percentile gauges,
      per-churn-campaign throughput / queue-depth / settle-tail gauges
      (labeled by artifact file name), process RSS and OCaml GC gauges —
      so a long-running instance can be scraped;
    - [shutdown] — acknowledges and stops the serve loop.

    The loop is single-threaded by design (no new dependencies, no
    locking): it multiplexes accepting connections and directory rescans
    with [select], which is plenty for a monitoring endpoint. *)

type t

val create : ?worst_capacity:int -> dir:string -> unit -> t
(** A watcher over [dir] (which need not exist yet — a campaign may
    create it after the server starts). *)

val scan : t -> int
(** Fold every not-yet-seen sidecar in the directory, in stem-sorted
    order; returns how many were folded.  Malformed files are counted as
    skipped (once) and surface in [status]. *)

val trials : t -> int
(** Trials folded so far (monotonic). *)

val handle : t -> string -> string
(** Answer one request line ([status] / [report] / [flame] / [metrics] /
    [shutdown]); unknown requests get a one-line JSON error.  Pure
    post-fold rendering — exposed so tests can drive the service without
    sockets. *)

val run :
  ?worst_capacity:int ->
  ?max_requests:int ->
  ?scan_interval:float ->
  socket:string ->
  dir:string ->
  unit ->
  unit
(** Serve until a [shutdown] request (or [max_requests] answered).
    Binds (and on exit removes) a Unix-domain socket at [socket],
    rescanning the directory between requests and at least every
    [scan_interval] (default 0.5) seconds.  A client that has not sent a
    complete request 2 seconds after it was accepted is closed
    unanswered, so a silent client delays the others by at most that
    long; a client that hangs up before reading its reply
    just loses the reply (SIGPIPE is ignored while serving).
    @raise Unix.Unix_error if the socket cannot be bound. *)

val request : socket:string -> string -> string
(** One-shot client: connect, send the request line, return the full
    response — the [bgpsim serve --query] side.
    @raise Unix.Unix_error if the server is not listening. *)
