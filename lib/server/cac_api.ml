(* The admission-control daemon's endpoint surface: a Router over a
   Cac.Engine.  Engines are single-domain by contract, so every engine
   call is serialized by one mutex — decisions are microseconds
   (cached: a hash lookup), so the lock is never the bottleneck next
   to socket I/O. *)

type t = {
  engine : Cac.Engine.t;
  mutex : Mutex.t;
  started_wall : float;
  (* Readiness vs. liveness: while WAL replay is restoring the
     connection table the daemon is alive but must not take decisions
     — /healthz reports "recovering" and decide/admit/release answer
     503 so load balancers keep traffic away. *)
  ready : bool Atomic.t;
  (* The durability barrier, installed by the daemon when a persist
     store is wired in: runs after each acked mutation, outside the
     engine mutex, and blocks until the fsync policy's watermark
     covers it. *)
  barrier : (unit -> unit) Atomic.t;
  (* Extra /debug/vars sections contributed by the embedding daemon
     (pool configuration, build info, …); guarded by [mutex]. *)
  mutable debug_providers : (string * (unit -> Obs.Json.t)) list;
}

let create ?(recovering = false) engine =
  {
    engine;
    mutex = Mutex.create ();
    started_wall = Obs.Clock.wall ();
    ready = Atomic.make (not recovering);
    barrier = Atomic.make (fun () -> ());
    debug_providers = [];
  }

let with_engine t f = Mutex.protect t.mutex (fun () -> f t.engine)
let ready t = Atomic.get t.ready
let set_ready t = Atomic.set t.ready true
let set_barrier t f = Atomic.set t.barrier f
let run_barrier t = (Atomic.get t.barrier) ()

let add_debug_provider t ~name f =
  Mutex.protect t.mutex (fun () ->
      t.debug_providers <-
        (name, f) :: List.remove_assoc name t.debug_providers);
  t

(* {2 Request decoding} *)

let body_json (req : Http.request) =
  match Obs.Json.of_string req.Http.body with
  | Some doc -> Ok doc
  | None -> Stdlib.Error (Http.json_error ~status:400 "malformed JSON body")

let string_field doc name =
  match Obs.Json.member name doc with
  | Some (Obs.Json.String s) -> Ok s
  | Some _ ->
      Stdlib.Error
        (Http.json_error ~status:422
           (Printf.sprintf "field %S must be a string" name))
  | None ->
      Stdlib.Error
        (Http.json_error ~status:422 (Printf.sprintf "missing field %S" name))

let int_field doc name =
  match Obs.Json.member name doc with
  | Some (Obs.Json.Int n) -> Ok n
  | Some _ ->
      Stdlib.Error
        (Http.json_error ~status:422
           (Printf.sprintf "field %S must be an integer" name))
  | None ->
      Stdlib.Error
        (Http.json_error ~status:422 (Printf.sprintf "missing field %S" name))

let ( let* ) r k = match r with Ok v -> k v | Stdlib.Error resp -> resp

(* {"link": ..., "class": ...} — the decide/admit request schema. *)
let link_class t req k =
  let* doc = body_json req in
  let* link = string_field doc "link" in
  let* cls_name = string_field doc "class" in
  match Cac.Source_class.of_name cls_name with
  | None ->
      Http.json_error ~status:404
        (Printf.sprintf "unknown class %S (known: %s)" cls_name
           (String.concat ", " Cac.Source_class.names))
  | Some cls ->
      let known e =
        match Cac.Engine.link e link with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      if not (with_engine t known) then
        Http.json_error ~status:404 (Printf.sprintf "unknown link %S" link)
      else k ~link ~cls

(* {2 Encoding} *)

let opt_float = function
  | Some v -> Obs.Json.Float v
  | None -> Obs.Json.Null

let reason_json = function
  | Some Cac.Engine.Unstable -> Obs.Json.String "unstable"
  | Some Cac.Engine.Clr_exceeded -> Obs.Json.String "clr_exceeded"
  | None -> Obs.Json.Null

let verdict_json (v : Cac.Engine.verdict) =
  Obs.Json.Obj
    [
      ("admissible", Obs.Json.Bool v.Cac.Engine.admissible);
      ("degraded", Obs.Json.Bool v.Cac.Engine.degraded);
      ("reason", reason_json v.Cac.Engine.reason);
      ("log10_bop", opt_float v.Cac.Engine.log10_bop);
      ("required_bw", opt_float v.Cac.Engine.required_bw);
    ]

(* {2 Handlers} *)

(* Each mutating/deciding endpoint opens its own span under the pool's
   [srv.http.request] span, so a traced request yields a proper span
   tree (request → api handler → engine/kernel spans), all stamped
   with the same trace id. *)

let decide_span = Obs.Span.v "cac.api.decide"
let admit_span = Obs.Span.v "cac.api.admit"
let release_span = Obs.Span.v "cac.api.release"

let not_ready () =
  Http.json_error ~status:503 "recovering: state replay in progress"

let decide t req =
  Obs.Span.with_ decide_span @@ fun () ->
  if not (ready t) then not_ready ()
  else
  link_class t req @@ fun ~link ~cls ->
  (* The only blocking call the lint can reach from this critical
     section is the seeded latency injector inside the decision
     cache; it is disarmed outside chaos tests and exists precisely
     to exercise lock-hold latency. *)
  let verdict =
    (with_engine t (fun e -> Cac.Engine.evaluate e ~link ~cls)
    [@lint.allow "L1"])
  in
  Http.json (verdict_json verdict)

let admit t req =
  Obs.Span.with_ admit_span @@ fun () ->
  if not (ready t) then not_ready ()
  else
  link_class t req @@ fun ~link ~cls ->
  (* Same seeded-latency-injector waiver as [decide]. *)
  match
    (with_engine t (fun e -> Cac.Engine.admit e ~link ~cls)
    [@lint.allow "L1"])
  with
  | Cac.Engine.Admitted conn ->
      (* Ack only once the journal's fsync policy covers the admit:
         the barrier runs outside the engine mutex so slow storage
         never serializes decisions. *)
      run_barrier t;
      Http.json
        (Obs.Json.Obj
           [ ("admitted", Obs.Json.Bool true); ("conn", Obs.Json.Int conn) ])
  | Cac.Engine.Rejected reason ->
      Http.json
        (Obs.Json.Obj
           [
             ("admitted", Obs.Json.Bool false);
             ("reason", reason_json (Some reason));
           ])

let release t req =
  Obs.Span.with_ release_span @@ fun () ->
  if not (ready t) then not_ready ()
  else
  let* doc = body_json req in
  let* conn = int_field doc "conn" in
  match with_engine t (fun e -> Cac.Engine.release e ~conn) with
  | () ->
      run_barrier t;
      Http.json (Obs.Json.Obj [ ("released", Obs.Json.Bool true) ])
  | exception Invalid_argument _ ->
      Http.json_error ~status:404 (Printf.sprintf "unknown connection %d" conn)

(* The runtime collector is "live" while its last sample is younger
   than this; the pool samples every accept-loop tick (≤ 0.25 s), so
   5 s of silence means the sampling domain is wedged or gone. *)
let runtime_live_threshold_s = 5.0

let opt_age = function Some a -> Obs.Json.Float a | None -> Obs.Json.Null

let runtime_collector_status () =
  match Obs.Runtime.sample_age_s () with
  | None -> "never"
  | Some age -> if age <= runtime_live_threshold_s then "live" else "stale"

let healthz t _req =
  let links, connections =
    with_engine t (fun e ->
        ( List.map (fun l -> Obs.Json.String (Cac.Link.id l)) (Cac.Engine.links e),
          Cac.Engine.active_connections e ))
  in
  Http.json
    (Obs.Json.Obj
       [
         ("status", Obs.Json.String "ok");
         (* Liveness vs. readiness: the process answers (alive) even
            while state replay keeps decide/admit at 503. *)
         ( "state",
           Obs.Json.String (if ready t then "ready" else "recovering") );
         ("uptime_s", Obs.Json.Float (Obs.Clock.wall () -. t.started_wall));
         ("links", Obs.Json.List links);
         ("connections", Obs.Json.Int connections);
         (* Health is more than engine reachability: how stale is the
            exported registry view, and is the runtime collector
            alive?  ("never" is normal before the first /metrics
            scrape or outside the serving pool.) *)
         ("snapshot_age_s", opt_age (Obs.Registry.snapshot_age_s ()));
         ( "runtime_collector",
           Obs.Json.String (runtime_collector_status ()) );
         ("runtime_sample_age_s", opt_age (Obs.Runtime.sample_age_s ()));
       ])

(* The span quantile view shared by /debug/vars and [cts obs export]
   consumers: every unlabelled [span.*.us] histogram that has seen at
   least one completion, with interpolated p50/p95/p99. *)
let spans_json () =
  let snap = Obs.Registry.snapshot () in
  let q h p =
    match Obs.Registry.histogram_quantile h ~q:p with
    | Some v -> Obs.Json.Float v
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    (List.filter_map
       (fun ((name, labels), h) ->
         if
           String.starts_with ~prefix:"span." name
           && h.Obs.Registry.count > 0
           && Obs.Labels.to_list labels = []
         then
           Some
             ( name,
               Obs.Json.Obj
                 [
                   ("count", Obs.Json.Int h.Obs.Registry.count);
                   ( "mean_us",
                     Obs.Json.Float
                       (h.Obs.Registry.sum /. float_of_int h.Obs.Registry.count)
                   );
                   ("p50_us", q h 0.5);
                   ("p95_us", q h 0.95);
                   ("p99_us", q h 0.99);
                 ] )
         else None)
       snap.Obs.Registry.histograms)

let debug_vars t _req =
  let providers = Mutex.protect t.mutex (fun () -> t.debug_providers) in
  let provider_fields =
    List.rev_map
      (fun (name, f) ->
        ( name,
          match f () with
          | doc -> doc
          | exception _ -> Obs.Json.String "<provider error>" ))
      providers
  in
  Http.json
    (Obs.Json.Obj
       ([
          ("uptime_s", Obs.Json.Float (Obs.Clock.wall () -. t.started_wall));
          ("clock_source", Obs.Json.String (Obs.Clock.source ()));
          (* [read], not [sample]: /debug/vars may be hit from any
             worker domain, and runtime gauges are single-writer.  GC
             counters are domain-local in OCaml 5, so [gc] is the
             answering worker's view; [gc_sampled] is the accept-loop
             collector's latest poll. *)
          ("gc", Obs.Runtime.json_of_stats (Obs.Runtime.read ()));
          ( "gc_sampled",
            match Obs.Runtime.last () with
            | Some (_, s) -> Obs.Runtime.json_of_stats s
            | None -> Obs.Json.Null );
          ("runtime_collector", Obs.Json.String (runtime_collector_status ()));
          ("runtime_sample_age_s", opt_age (Obs.Runtime.sample_age_s ()));
          ("registry_snapshot_age_s", opt_age (Obs.Registry.snapshot_age_s ()));
          ("spans", spans_json ());
        ]
       @ provider_fields))

let heatmap_html _req =
  match Obs.Heatmap.of_snapshot (Obs.Registry.snapshot ()) with
  | Some hm ->
      Http.response
        ~headers:[ ("content-type", "text/html; charset=utf-8") ]
        ~status:200 (Obs.Heatmap.to_html hm)
  | None ->
      Http.response
        ~headers:[ ("content-type", "text/html; charset=utf-8") ]
        ~status:200
        "<!DOCTYPE html>\n\
         <html><head><meta charset=\"utf-8\"><meta http-equiv=\"refresh\" \
         content=\"5\"><title>cts.m_star heatmap</title></head>\n\
         <body><p>No per-buffer m* observations yet — issue some \
         /v1/decide requests first.</p></body></html>\n"

let heatmap_csv _req =
  let body =
    match Obs.Heatmap.of_snapshot (Obs.Registry.snapshot ()) with
    | Some hm -> Obs.Heatmap.to_csv hm
    | None -> "buffer_cells,bin_lo,bin_hi,count\n"
  in
  Http.response
    ~headers:[ ("content-type", "text/csv; charset=utf-8") ]
    ~status:200 body

let breakers t _req =
  let entries =
    with_engine t (fun e ->
        List.concat_map
          (fun link ->
            List.filter_map
              (fun name ->
                let cls = Cac.Source_class.of_name_exn name in
                match
                  Cac.Engine.breaker_state e ~link:(Cac.Link.id link) ~cls
                with
                | None -> None
                | Some state ->
                    Some
                      (Obs.Json.Obj
                         [
                           ("link", Obs.Json.String (Cac.Link.id link));
                           ("class", Obs.Json.String name);
                           ( "state",
                             Obs.Json.String
                               (Resilience.Guard.Breaker.state_name state) );
                         ]))
              Cac.Source_class.names)
          (Cac.Engine.links e))
  in
  Http.json (Obs.Json.Obj [ ("breakers", Obs.Json.List entries) ])

let metrics _req =
  Http.response
    ~headers:[ ("content-type", "text/plain; version=0.0.4; charset=utf-8") ]
    ~status:200
    (Obs.Export.prometheus (Obs.Registry.snapshot ()))

(* {2 /profile — where does request latency go?}

   Decomposes the serving path per route from the registry's own
   histograms: queue wait (accept → worker pop, charged to the
   connection's first request), handler time ([srv.http.latency_us]),
   and — when the [Obs.Events] consumer runs — the GC pauses that
   overlapped each dispatch.  [totals] lets a client cross-check the
   decomposition against the [srv.http.request] span's view of the
   same requests. *)

let route_of labels =
  match Obs.Labels.to_list labels with
  | [ ("route", r) ] -> Some r
  | _ -> None

let profile _t _req =
  let snap = Obs.Registry.snapshot () in
  let by_route name =
    List.filter_map
      (fun ((n, labels), h) ->
        if String.equal n name then
          Option.map (fun r -> (r, h)) (route_of labels)
        else None)
      snap.Obs.Registry.histograms
  in
  let latency = by_route "srv.http.latency_us" in
  let queue = by_route "srv.http.queue_wait.us" in
  let gc = by_route "srv.http.gc_pause.us" in
  let sum_for table r =
    match List.assoc_opt r table with
    | Some h -> h.Obs.Registry.sum
    | None -> 0.0
  in
  let routes =
    List.map
      (fun (r, h) ->
        let handler_us = h.Obs.Registry.sum in
        let queue_wait_us = sum_for queue r in
        let gc_pause_us = sum_for gc r in
        let q p =
          match Obs.Registry.histogram_quantile h ~q:p with
          | Some v -> Obs.Json.Float v
          | None -> Obs.Json.Null
        in
        ( r,
          Obs.Json.Obj
            [
              ("requests", Obs.Json.Int h.Obs.Registry.count);
              ("handler_us", Obs.Json.Float handler_us);
              ("queue_wait_us", Obs.Json.Float queue_wait_us);
              ("gc_pause_us", Obs.Json.Float gc_pause_us);
              ( "handler_minus_gc_us",
                Obs.Json.Float (handler_us -. gc_pause_us) );
              ("total_us", Obs.Json.Float (handler_us +. queue_wait_us));
              ("p50_us", q 0.5);
              ("p95_us", q 0.95);
              ("p99_us", q 0.99);
            ] ))
      latency
  in
  let handler_us =
    List.fold_left (fun acc (_, h) -> acc +. h.Obs.Registry.sum) 0.0 latency
  in
  let total_us =
    List.fold_left
      (fun acc (r, h) -> acc +. h.Obs.Registry.sum +. sum_for queue r)
      0.0 latency
  in
  (* The same requests as seen by the [srv.http.request] span — the
     decomposition above should account for (almost all of) this. *)
  let span_request_us =
    match
      List.find_opt
        (fun ((n, labels), _) ->
          String.equal n "span.srv.http.request.us"
          && Obs.Labels.to_list labels = [])
        snap.Obs.Registry.histograms
    with
    | Some (_, h) -> h.Obs.Registry.sum
    | None -> 0.0
  in
  Http.json
    (Obs.Json.Obj
       [
         ("events", Obs.Events.debug_json ());
         ("routes", Obs.Json.Obj routes);
         ( "totals",
           Obs.Json.Obj
             [
               ("total_us", Obs.Json.Float total_us);
               (* [handler_us] is the leg the [srv.http.request] span
                  also times: the two should agree to within the
                  span's own overhead (queue wait happens before the
                  span opens, so [total_us] does not compare). *)
               ("handler_us", Obs.Json.Float handler_us);
               ("span_request_us", Obs.Json.Float span_request_us);
             ] );
         ( "top_pauses",
           Obs.Json.List
             (List.map Obs.Events.pause_json (Obs.Events.top_pauses ())) );
         ( "gc_domains",
           Obs.Json.List
             (List.map
                (fun (d, n, ns) ->
                  Obs.Json.Obj
                    [
                      ("domain", Obs.Json.Int d);
                      ("pauses", Obs.Json.Int n);
                      ("pause_ns", Obs.Json.Int ns);
                    ])
                (Obs.Events.domain_stats ())) );
       ])

(* Last-resort exception boundary for every route.  Handlers can
   raise through deep call chains (a kernel [invalid_arg], a TOCTOU
   race on a link removed between parse and dispatch, a histogram
   shape mismatch in the registry) — that must become a structured
   500, not a torn connection and a dead worker domain. *)
let protected h req =
  Resilience.Guard.protect ~label:"srv.api.handler"
    ~fallback:(fun _ -> Http.json_error ~status:500 "internal error")
    (fun () -> h req)

let router t =
  Router.create
    [
      Router.route Http.POST "/v1/decide" (protected (decide t));
      Router.route Http.POST "/v1/admit" (protected (admit t));
      Router.route Http.POST "/v1/release" (protected (release t));
      Router.route Http.GET "/metrics" (protected metrics);
      Router.route Http.GET "/healthz" (protected (healthz t));
      Router.route Http.GET "/breakers" (protected (breakers t));
      Router.route Http.GET "/debug/vars" (protected (debug_vars t));
      Router.route Http.GET "/profile" (protected (profile t));
      Router.route Http.GET "/heatmap" (protected heatmap_html);
      Router.route Http.GET "/heatmap.csv" (protected heatmap_csv);
    ]
