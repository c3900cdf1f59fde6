(* One accept loop feeding a bounded queue of accepted connections,
   drained by Domain workers.  Backpressure is explicit: a full queue
   sheds the connection with an immediate 503 instead of queueing
   unboundedly, so overload degrades to fast rejections rather than
   collapse (the same fail-fast posture as the engine's circuit
   breakers). *)

type config = {
  domains : int;
  queue_capacity : int;
  read_timeout_s : float option;
  limits : Http.limits;
  max_conn_requests : int;
  access_log : bool;
  access_sink : (unit -> Obs.Sink.t) option;
  tick : (unit -> unit) option;
}

let default_config =
  {
    domains = Stdlib.max 1 (Stdlib.min 4 (Domain.recommended_domain_count () - 1));
    queue_capacity = 128;
    read_timeout_s = Some 10.0;
    limits = Http.default_limits;
    max_conn_requests = 100_000;
    access_log = false;
    access_sink = None;
    tick = None;
  }

(* {2 Telemetry}

   The per-request instruments are handles (see [metrics] below); the
   rest are keyed updates adjacent to a syscall, where the hash cost is
   noise.  The per-route histograms are only ever recorded with a
   [route] label; fix their shape without declaring an unlabelled zero
   series. *)

let () =
  Obs.Registry.declare_counter "srv.http.requests";
  Obs.Registry.declare_counter "srv.http.connections";
  Obs.Registry.declare_counter "srv.http.shed";
  Obs.Registry.declare_counter "srv.http.parse_errors";
  Obs.Registry.declare_counter "srv.http.handler_errors";
  Obs.Registry.declare_gauge "srv.http.in_flight";
  Obs.Registry.declare_gauge "srv.http.queue_depth";
  Obs.Registry.declare_gauge "srv.http.queue_occupancy";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:1_000_000.0 ~bins:60
    "srv.http.latency_us";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:1_000_000.0 ~bins:60
    "srv.http.queue_wait.us";
  Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:100_000.0 ~bins:50
    "srv.http.gc_pause.us"

let request_span = Obs.Span.v "srv.http.request"

(* The [method] label of [srv.http.requests]: a request line may carry
   any token as its method, so everything outside the standard set
   shares one ["other"] bucket and the series count stays bounded.
   The access log keeps the raw method. *)
let meth_label = function
  | Http.Other _ -> "other"
  | m -> Http.meth_name m

(* Per-route handles, bound the first time a route label is served so
   a route that never runs adds no zero series.  Route labels are
   bounded (router paths plus the unmatched bucket), and so are method
   labels and statuses; each table is an immutable association list
   published through an Atomic: lookups take no lock, and an insert
   that loses a race just binds a second handle to the same series. *)

type route_metrics = {
  latency : Obs.Registry.Histogram.t;
  queue_wait : Obs.Registry.Histogram.t;
  route_labels : Obs.Labels.t;
  mutable gc_pause : Obs.Registry.Histogram.t option;
      (* bound once an Obs.Events consumer runs; not a [Lazy.t], which
         raises when two domains force it at once *)
}

type metrics = {
  requests : Obs.Registry.Counter.t;
  in_flight : Obs.Registry.Gauge.t;
  routes : (string * route_metrics) list Atomic.t;
  by_status : (string * string * int * Obs.Registry.Counter.t) list Atomic.t;
      (* (route, method label, status, counter) *)
}

let metrics_create () =
  {
    requests = Obs.Registry.Counter.v "srv.http.requests";
    in_flight = Obs.Registry.Gauge.v "srv.http.in_flight";
    routes = Atomic.make [];
    by_status = Atomic.make [];
  }

(* Prepend [entry] unless another domain published first; either way
   the caller retries its lookup. *)
let publish table bound entry =
  ignore (Atomic.compare_and_set table bound (entry :: bound))

let rec find_route route = function
  | [] -> raise Not_found
  | (r, rm) :: rest -> if String.equal r route then rm else find_route route rest

let rec route_metrics m route =
  let bound = Atomic.get m.routes in
  match find_route route bound with
  | rm -> rm
  | exception Not_found ->
      let labels = Obs.Labels.make [ ("route", route) ] in
      publish m.routes bound
        ( route,
          {
            latency = Obs.Registry.Histogram.v ~labels "srv.http.latency_us";
            queue_wait = Obs.Registry.Histogram.v ~labels "srv.http.queue_wait.us";
            route_labels = labels;
            gc_pause = None;
          } );
      route_metrics m route

let gc_pause_histogram rm =
  match rm.gc_pause with
  | Some h -> h
  | None ->
      let h = Obs.Registry.Histogram.v ~labels:rm.route_labels "srv.http.gc_pause.us" in
      rm.gc_pause <- Some h;
      h

let rec find_status ~route ~meth ~status = function
  | [] -> raise Not_found
  | (r, me, st, c) :: rest ->
      if st = status && String.equal r route && String.equal me meth then c
      else find_status ~route ~meth ~status rest

let rec status_counter m ~route ~meth ~status =
  let bound = Atomic.get m.by_status in
  match find_status ~route ~meth ~status bound with
  | c -> c
  | exception Not_found ->
      let labels =
        Obs.Labels.make
          [ ("route", route); ("method", meth); ("status", string_of_int status) ]
      in
      publish m.by_status bound
        (route, meth, status, Obs.Registry.Counter.v ~labels "srv.http.requests");
      status_counter m ~route ~meth ~status

let incr_requests m ~route ~meth ~status =
  Obs.Registry.Counter.incr m.requests;
  Obs.Registry.Counter.incr (status_counter m ~route ~meth ~status)

(* {2 Bounded work queue}

   [Conn] carries its enqueue timestamp so the worker that pops it can
   charge the time spent queued to the request it serves — the
   queue-wait leg of the [/profile] latency decomposition. *)

type job = Conn of Unix.file_descr * int64 | Quit

type queue = {
  q : job Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  mutable depth : int;  (** [Conn] jobs currently queued *)
}

let queue_create capacity =
  {
    q = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    depth = 0;
  }

(* Non-blocking; false when the queue is at capacity (the caller
   sheds).  [Quit] sentinels bypass the capacity check so shutdown can
   never itself be shed. *)
let queue_push qu job =
  Mutex.protect qu.mutex (fun () ->
      match job with
      | Conn _ when qu.depth >= qu.capacity -> false
      | _ ->
          (match job with Conn _ -> qu.depth <- qu.depth + 1 | Quit -> ());
          Queue.push job qu.q;
          Condition.signal qu.not_empty;
          true)

let queue_pop qu =
  Mutex.protect qu.mutex (fun () ->
      while Queue.is_empty qu.q do
        Condition.wait qu.not_empty qu.mutex
      done;
      let job = Queue.pop qu.q in
      (match job with Conn _ -> qu.depth <- qu.depth - 1 | Quit -> ());
      job)

let queue_depth qu = Mutex.protect qu.mutex (fun () -> qu.depth)

(* {2 The pool} *)

type t = {
  router : Router.t;
  config : config;
  work : queue;
  stop_flag : bool Atomic.t;  (** set from a signal handler: only an Atomic write *)
  accepting : bool Atomic.t;
  metrics : metrics;
}

let create ?(config = default_config) router =
  if config.domains < 1 then invalid_arg "Pool.create: domains < 1";
  if config.queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  if config.max_conn_requests < 1 then
    invalid_arg "Pool.create: max_conn_requests < 1";
  (match config.read_timeout_s with
  | Some s when not (s > 0.0 && Float.is_finite s) ->
      invalid_arg "Pool.create: read_timeout_s must be finite and > 0"
  | _ -> ());
  {
    router;
    config;
    work = queue_create config.queue_capacity;
    stop_flag = Atomic.make false;
    accepting = Atomic.make false;
    metrics = metrics_create ();
  }

let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let queue_length t = queue_depth t.work
let accepting t = Atomic.get t.accepting

(* {2 Request handling} *)

(* One structured access-log line per request.  The sink resolves per
   line: by default the process-wide human sink (so [--quiet], a Null
   human sink, silences it), or [config.access_sink]'s current value —
   which is how SIGHUP-driven log rotation swaps the file under a
   running pool without tearing requests.  It resolves {e before} the
   line is built: a [Null] sink costs no JSON at all. *)
let access_log t ~ctx ~req ~status ~us ~queue_wait_us ~gc_pause_us =
  match
    match t.config.access_sink with
    | None -> Obs.Sink.human_sink ()
    | Some f -> f ()
  with
  | Obs.Sink.Null -> ()
  | sink ->
      Obs.Sink.message sink
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("ts", Obs.Json.Float (Obs.Clock.wall ()));
                ("kind", Obs.Json.String "access");
                ("method", Obs.Json.String (Http.meth_name req.Http.meth));
                ("path", Obs.Json.String req.Http.path);
                ("status", Obs.Json.Int status);
                ("us", Obs.Json.Float us);
                ("queue_wait_us", Obs.Json.Float queue_wait_us);
                ("gc_pause_us", Obs.Json.Float gc_pause_us);
                ("trace", Obs.Json.String ctx.Obs.Trace.trace_id);
              ]))

(* Dispatch one parsed request: the [srv.http.handler] fault point
   fires first (chaos testing of the serving path itself), then the
   handler runs under [Guard.protect] so an exception degrades to a
   500 for this request instead of killing the worker domain.

   The whole dispatch runs under the request's trace context — parsed
   from the peer's [traceparent] header, generated otherwise — so the
   [srv.http.request] span, every span the handler opens, and every
   histogram exemplar recorded on this domain share one trace id; the
   response echoes it in [traceparent]. *)
let dispatch t ~queue_wait_us req =
  let t0 = Obs.Clock.monotonic_ns () in
  (* GC attribution: the consumer's cumulative pause clock for this
     worker domain, read on both sides of the dispatch.  The delta is
     collector time that overlapped this request (late by at most one
     consumer poll interval; 0 when no [Obs.Events] consumer runs). *)
  let gc0 = Obs.Events.cumulative_pause_ns () in
  let route = Router.label t.router req in
  let ctx =
    match Http.traceparent req with
    | Some ctx -> ctx
    | None -> Obs.Trace.generate ()
  in
  Obs.Trace.with_context ctx @@ fun () ->
  let resp =
    Obs.Span.with_ request_span @@ fun () ->
    Resilience.Guard.protect ~label:"srv.http.handler"
      ~fallback:(fun _exn ->
        Obs.Registry.incr "srv.http.handler_errors";
        Http.json_error ~status:500 "internal error")
      (fun () ->
        Resilience.Fault.inject "srv.http.handler";
        snd (Router.dispatch t.router req))
  in
  let status = Http.status resp in
  incr_requests t.metrics ~route ~meth:(meth_label req.Http.meth) ~status;
  let us = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:t0) in
  let gc_pause_us =
    let us = float_of_int (Obs.Events.cumulative_pause_ns () - gc0) /. 1e3 in
    (* A consumer stopping mid-request can make the delta negative;
       clamp rather than poison the histogram. *)
    if Float.is_finite us && us >= 0.0 then us else 0.0
  in
  let rm = route_metrics t.metrics route in
  Obs.Registry.Histogram.observe rm.latency us;
  Obs.Registry.Histogram.observe rm.queue_wait queue_wait_us;
  if Obs.Events.running () then
    Obs.Registry.Histogram.observe (gc_pause_histogram rm) gc_pause_us;
  if t.config.access_log then
    access_log t ~ctx ~req ~status ~us ~queue_wait_us ~gc_pause_us;
  Http.add_header resp ("traceparent", Obs.Trace.to_traceparent ctx)

let handle_request t ~queue_wait_us req =
  let in_flight = t.metrics.in_flight in
  Obs.Registry.Gauge.add in_flight 1.0;
  match dispatch t ~queue_wait_us req with
  | resp ->
      Obs.Registry.Gauge.add in_flight (-1.0);
      resp
  | exception e ->
      Obs.Registry.Gauge.add in_flight (-1.0);
      raise e

(* Serve every request a connection carries, then close it.  The
   keep-alive budget ([Guard.Budget]) bounds requests per connection;
   the read deadline bounds how long a worker waits for (the rest of)
   a request.  Peer write failures (reset, broken pipe) just end the
   connection. *)
let serve_connection t ~queue_wait_us fd =
  Obs.Registry.incr "srv.http.connections";
  let reader = Io.reader fd in
  let budget =
    Resilience.Guard.Budget.create ~label:"srv.conn.requests"
      t.config.max_conn_requests
  in
  let deadline () = Option.bind t.config.read_timeout_s (fun s -> Io.deadline_in s) in
  (* Only the connection's first request actually waited in the work
     queue; keep-alive successors are served as they arrive. *)
  let pending_wait = ref queue_wait_us in
  let rec loop () =
    match Resilience.Guard.Budget.tick budget with
    | exception Resilience.Guard.Budget_exhausted _ -> ()
    | () -> (
        match Http.read_request ~limits:t.config.limits reader (deadline ()) with
        | Http.Eof -> ()
        | Http.Error { status; reason } ->
            Obs.Registry.incr "srv.http.parse_errors";
            incr_requests t.metrics ~route:Router.unmatched_label ~meth:"-"
              ~status;
            Http.write fd ~keep_alive:false
              (Http.json_error ~status reason)
        | Http.Request req ->
            let queue_wait_us = !pending_wait in
            pending_wait := 0.0;
            let resp = handle_request t ~queue_wait_us req in
            let ka =
              Http.keep_alive req
              && (not (stopping t))
              && not (Resilience.Guard.Budget.exhausted budget)
            in
            Http.write fd ~keep_alive:ka resp;
            if ka then loop ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Unix.Unix_error _ | Io.Timeout _ -> ())

(* {2 Listening and accepting} *)

let listen ?(backlog = 128) ~host ~port () =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg (Printf.sprintf "Pool.listen: bad host %S" host)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Pool.bound_port: not an INET socket"

(* The overload answer, written from the accept loop itself: the
   queue is full, so the connection is refused in O(1) without
   touching a worker. *)
let shed t fd =
  Obs.Registry.incr "srv.http.shed";
  incr_requests t.metrics ~route:Router.unmatched_label ~meth:"-" ~status:503;
  (try
     Http.write fd ~keep_alive:false
       (Http.response
          ~headers:
            [ ("content-type", "application/json"); ("retry-after", "1") ]
          ~status:503 "{\"error\":\"server overloaded\"}\n")
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t listen_fd =
  if stopping t then invalid_arg "Pool.serve: pool already stopped";
  (* A peer resetting mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let workers =
    List.init t.config.domains (fun _ ->
        Domain.spawn (fun () ->
            let rec work () =
              match queue_pop t.work with
              | Quit -> ()
              | Conn (fd, enqueued_ns) ->
                  let queue_wait_us =
                    Obs.Clock.ns_to_us
                      (Obs.Clock.elapsed_ns ~since:enqueued_ns)
                  in
                  (* A handler that raises must cost one response,
                     never the worker domain: an escaping exception
                     here would silently shrink the pool until the
                     final [Domain.join]. *)
                  Resilience.Guard.protect ~label:"srv.pool.worker"
                    ~fallback:(fun _ -> ())
                    (fun () -> serve_connection t ~queue_wait_us fd);
                  work ()
            in
            work ()))
  in
  Atomic.set t.accepting true;
  (* Accept-loop housekeeping, run once per select tick (≤ 0.25 s
     apart): mirror queue depth/occupancy and poll the GC into the
     registry.  The accept loop is the process's single
     [Obs.Runtime.sample] writer — gauges merge by summation across
     shards, so a second sampling domain would double-count. *)
  let observe_tick () =
    let depth = queue_depth t.work in
    Obs.Registry.set_gauge "srv.http.queue_depth" (float_of_int depth);
    (* 0/0 on an idle zero-capacity queue would poison the gauge. *)
    let occupancy =
      float_of_int depth /. float_of_int t.config.queue_capacity
    in
    if Float.is_finite occupancy then
      Obs.Registry.set_gauge "srv.http.queue_occupancy" occupancy;
    ignore (Obs.Runtime.sample ());
    (* Daemon housekeeping (periodic snapshots, signal-driven log
       rotation) rides the same tick; it must never kill the accept
       loop. *)
    match t.config.tick with
    | None -> ()
    | Some f ->
        Resilience.Guard.protect ~label:"srv.pool.tick"
          ~fallback:(fun _ -> ())
          f
  in
  let rec accept_loop () =
    if not (stopping t) then begin
      observe_tick ();
      (* Poll the stop flag between waits so [stop] from a signal
         handler takes effect within one tick. *)
      (match Unix.select [ listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
              ()
          | fd, _ ->
              (* Without it Nagle holds the second of two pipelined
                 responses until the peer's delayed ACK (~40 ms). *)
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              if
                not
                  (queue_push t.work
                     (Conn (fd, Obs.Clock.monotonic_ns ())))
              then shed t fd)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.accepting false;
      (* Drain: the Quit sentinels queue behind any accepted-but-unserved
         connections, so every queued request is answered before the
         workers exit. *)
      List.iter (fun _ -> ignore (queue_push t.work Quit)) workers;
      List.iter Domain.join workers)
    accept_loop
