(** The Domain-parallel serving pool.

    One accept loop (run by the caller of {!serve}) feeds accepted
    connections into a bounded work queue drained by [config.domains]
    worker domains.  Backpressure is explicit and fail-fast: when the
    queue is full the acceptor answers [503 Service Unavailable] and
    closes — overload degrades to fast rejections, never to an
    unbounded queue.

    {2 Per-connection discipline}

    Each connection gets a fresh read deadline per request
    ([config.read_timeout_s], enforced by {!Io}), the {!Http.limits}
    caps, and a {!Resilience.Guard.Budget} of
    [config.max_conn_requests] keep-alive requests.  Handler
    exceptions are contained by {!Resilience.Guard.protect} — the
    request answers [500] and the worker survives.  The
    [srv.http.handler] fault point fires before every dispatch, so
    chaos specs cover the serving path.

    {2 Telemetry}

    [srv.http.requests] (total and per
    [{route,method,status}], with every non-standard method in one
    ["other"] bucket), [srv.http.latency_us] and
    [srv.http.queue_wait.us] per route, [srv.http.in_flight],
    [srv.http.queue_depth], [srv.http.queue_occupancy] (depth /
    capacity), [srv.http.connections], [srv.http.shed],
    [srv.http.parse_errors], [srv.http.handler_errors], plus the
    [srv.http.request] span.  When an {!Obs.Events} consumer runs,
    each request's GC overlap — the delta of
    {!Obs.Events.cumulative_pause_ns} across its dispatch — is
    recorded as [srv.http.gc_pause.us] per route.  The accept loop
    additionally runs {!Obs.Runtime.sample} once per poll tick (it is
    the process's single runtime-gauge writer).

    {2 Trace correlation}

    Every dispatched request runs under an {!Obs.Trace} context —
    parsed from the peer's [traceparent] header when present and
    well-formed, freshly generated otherwise — so all spans and
    histogram exemplars it produces share one trace id.  The response
    carries the context back in a [traceparent] header.  With
    [config.access_log] set, each request also emits a one-line JSON
    access log ([method], [path], [status], [us], [queue_wait_us],
    [gc_pause_us], [trace]) through
    [config.access_sink] (resolved per line, so the daemon can rotate
    the log on SIGHUP by swapping the sink the thunk returns); when
    unset, {!Obs.Sink.human_sink} is used, which [--quiet] silences.
    The sink is resolved before the line is built: under a [Null]
    sink no line is built.

    {2 Housekeeping tick}

    [config.tick], when set, runs on the accept-loop domain once per
    poll tick (~250 ms), after {!Obs.Runtime.sample}, inside
    {!Resilience.Guard.protect} — a throwing tick is counted and
    dropped, never fatal.  The daemon hangs periodic work off it:
    signal-flag polling, snapshot scheduling.

    {2 Shutdown}

    {!stop} is async-signal-safe (one atomic write).  The accept loop
    notices within one 250 ms poll tick, stops accepting, enqueues one
    quit sentinel per worker {e behind} any queued connections — every
    accepted request is answered — then joins the workers and
    returns.  Because {!serve} returns only after every worker domain
    has joined, any work the caller does after it (e.g. a shutdown
    snapshot) observes the final state: a request racing the drain has
    either fully completed or was shed with 503. *)

type config = {
  domains : int;  (** worker domains draining the queue *)
  queue_capacity : int;  (** accepted connections queued before shedding *)
  read_timeout_s : float option;  (** per-request read deadline; [None] = none *)
  limits : Http.limits;
  max_conn_requests : int;  (** keep-alive requests per connection *)
  access_log : bool;  (** one JSON line per request on the access sink *)
  access_sink : (unit -> Obs.Sink.t) option;
      (** access-log destination, resolved per line; [None] = human sink *)
  tick : (unit -> unit) option;
      (** housekeeping hook, run each accept-loop poll tick *)
}

val default_config : config
(** [min 4 (recommended_domain_count - 1)] domains (at least 1), a
    128-connection queue, 10 s read timeout, {!Http.default_limits},
    100k requests per connection, access log off, no access sink
    override, no tick hook. *)

type t

val create : ?config:config -> Router.t -> t
(** Raises [Invalid_argument] on a non-positive domain count, queue
    capacity, request budget or timeout. *)

val listen : ?backlog:int -> host:string -> port:int -> unit -> Unix.file_descr
(** Bind and listen on [host:port] ([SO_REUSEADDR] set; port [0]
    picks an ephemeral port — read it back with {!bound_port}). *)

val bound_port : Unix.file_descr -> int

val serve : t -> Unix.file_descr -> unit
(** Run the accept loop on the calling domain, spawning the worker
    domains first; returns after {!stop} completes the drain.  The
    listening socket stays open (the caller owns it).  [SIGPIPE] is
    set to ignore for the whole process. *)

val stop : t -> unit
(** Request shutdown.  Safe to call from a signal handler. *)

val stopping : t -> bool

val accepting : t -> bool
(** True while {!serve}'s accept loop is live — poll this to know when
    a backgrounded server is ready. *)

val queue_length : t -> int
(** Connections accepted but not yet claimed by a worker. *)

val serve_connection : t -> queue_wait_us:float -> Unix.file_descr -> unit
(** Serve one connection synchronously on the calling domain (the
    worker body; exposed for socketpair-driven tests).  [queue_wait_us]
    is the time the connection sat in the work queue; it is charged to
    the connection's {e first} request (later keep-alive requests
    never queued).  Closes [fd] before returning. *)
