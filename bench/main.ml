(* The benchmark harness does two jobs:

   1. Regenerates every table and figure of the paper (Table 1,
      Figs. 1-10) plus the ablation studies, printing the series and
      writing CSVs to ./results.  Simulation scale is controlled with
      CTS_FRAMES / CTS_REPS / CTS_SEED (defaults: 20000 / 3 / 1996; the
      paper used 500000 / 60).

   2. Runs Bechamel micro-benchmarks of the library's hot paths - one
      per table/figure-generating computation plus the core generators -
      so performance regressions in the machinery itself are visible.

   Skip the (slow) simulated figures with CTS_BENCH_ANALYTIC_ONLY=1;
   skip the micro-benchmarks with CTS_BENCH_NO_MICRO=1. *)

open Bechamel
open Toolkit

let env_flag name = Sys.getenv_opt name = Some "1"

(* {2 Micro-benchmarks} *)

(* A pair of CAC engines on identical links with identical mixed load
   (10 x z0.975 + 10 x dar3), one with the decision cache enabled and
   one with it disabled — the cached and uncached admission paths. *)
let cac_engine ~cache_capacity =
  let engine = Cac.Engine.create ~cache_capacity () in
  ignore
    (Cac.Engine.add_link_msec engine ~id:"link" ~capacity:16140.0
       ~buffer_msec:10.0 ~target_clr:1e-6);
  let z = Cac.Source_class.of_name_exn "z0.975" in
  let dar3 = Cac.Source_class.of_name_exn "dar3" in
  List.iter
    (fun cls ->
      for _ = 1 to 10 do
        ignore (Cac.Engine.admit engine ~link:"link" ~cls)
      done)
    [ z; dar3 ];
  (* Warm: the next decision's keys are now resident (cache on) or
     recomputed every time (cache off). *)
  ignore (Cac.Engine.evaluate engine ~link:"link" ~cls:z);
  (engine, z)

let report_cac_speedup () =
  let cached, z_cached = cac_engine ~cache_capacity:4096 in
  let uncached, z_uncached = cac_engine ~cache_capacity:0 in
  let mean_time iters f =
    let t0 = Obs.Clock.wall () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    1e6 *. (Obs.Clock.wall () -. t0) /. float_of_int iters
  in
  let cached_us =
    mean_time 20_000 (fun () ->
        Cac.Engine.evaluate cached ~link:"link" ~cls:z_cached)
  in
  let uncached_us =
    mean_time 200 (fun () ->
        Cac.Engine.evaluate uncached ~link:"link" ~cls:z_uncached)
  in
  Printf.printf
    "\ncac admission decision: %.2f us cached, %.2f us uncached -> %.0fx \
     speedup\n%!"
    cached_us uncached_us (uncached_us /. cached_us)

let micro_tests () =
  let z = (Traffic.Models.z ~a:0.975).Traffic.Models.process in
  let dar3 = Traffic.Models.s ~a:0.975 ~p:3 in
  let vg =
    Core.Variance_growth.create ~acf:z.Traffic.Process.acf
      ~variance:z.Traffic.Process.variance
  in
  let b_10ms = 134.5 in
  let rng = Numerics.Rng.create ~seed:9 in
  let dar_gen = dar3.Traffic.Process.spawn (Numerics.Rng.split rng) in
  let fbndp_gen = z.Traffic.Process.spawn (Numerics.Rng.split rng) in
  let fgn_rng = Numerics.Rng.split rng in
  let acf_z = z.Traffic.Process.acf in
  [
    Test.make ~name:"cts_analyze_fresh_b10ms"
      (Staged.stage (fun () ->
           (* fresh variance-growth cache so the scan cost is measured *)
           let vg' =
             Core.Variance_growth.create ~acf:acf_z
               ~variance:z.Traffic.Process.variance
           in
           Core.Cts.analyze vg' ~mu:500.0 ~c:538.0 ~b:b_10ms));
    Test.make ~name:"cts_analyze_memoized"
      (Staged.stage (fun () -> Core.Cts.analyze vg ~mu:500.0 ~c:538.0 ~b:b_10ms));
    Test.make ~name:"bahadur_rao_n30"
      (Staged.stage (fun () ->
           Core.Bahadur_rao.evaluate vg ~mu:500.0 ~c:538.0 ~b:b_10ms ~n:30));
    Test.make ~name:"dar_fit_p3"
      (Staged.stage (fun () -> Traffic.Dar.fit ~target_acf:acf_z ~p:3));
    Test.make ~name:"dar3_frame" (Staged.stage dar_gen);
    Test.make ~name:"fbndp_frame" (Staged.stage fbndp_gen);
    Test.make ~name:"fgn_block_4096"
      (Staged.stage (fun () ->
           Traffic.Fgn.sample_davies_harte fgn_rng ~h:0.9 ~n:4096));
    Test.make ~name:"fluid_step"
      (Staged.stage (fun () ->
           Queueing.Fluid_mux.finite_buffer_step ~w:100.0 ~arrivals:520.0
             ~service:538.0 ~buffer:4035.0));
    (let engine, z = cac_engine ~cache_capacity:4096 in
     Test.make ~name:"cac_decide_cached"
       (Staged.stage (fun () -> Cac.Engine.evaluate engine ~link:"link" ~cls:z)));
    (let engine, z = cac_engine ~cache_capacity:0 in
     Test.make ~name:"cac_decide_uncached"
       (Staged.stage (fun () -> Cac.Engine.evaluate engine ~link:"link" ~cls:z)));
    (* Obs primitives: the per-event costs every instrumented hot path
       pays, so the null-sink overhead is auditable from this table
       (events per op x cost per event). *)
    (let c = Obs.Registry.Counter.v "bench.obs.counter" in
     Test.make ~name:"obs_counter_incr"
       (Staged.stage (fun () -> Obs.Registry.Counter.incr c)));
    (let h = Obs.Registry.Histogram.v "bench.obs.hist" in
     Test.make ~name:"obs_histogram_observe"
       (Staged.stage (fun () -> Obs.Registry.Histogram.observe h 42.0)));
    Test.make ~name:"obs_keyed_incr"
      (Staged.stage (fun () -> Obs.Registry.incr "bench.obs.keyed"));
    Test.make ~name:"obs_clock_monotonic_ns"
      (Staged.stage Obs.Clock.monotonic_ns);
    (let span = Obs.Span.v "bench.obs.span" in
     Test.make ~name:"obs_span_null_sink"
       (Staged.stage (fun () -> Obs.Span.with_ span Fun.id)));
    (* The GC-attribution read Srv.Pool brackets every request with —
       benched with no consumer running (the events-off fast path;
       with --events it adds one atomic load).  Starting the consumer
       here would flip the whole bench process into multi-domain STW
       mode and contaminate every other row. *)
    Test.make ~name:"obs_events_pause_clock_off"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Obs.Events.cumulative_pause_ns ()))));
    (* Serving layer: the per-request costs of the HTTP daemon.  The
       parse bench round-trips one request through a socketpair per op
       (write + buffered parse — the worker's actual read path); the
       other two are the pure serialize and route steps. *)
    (let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let reader = Srv.Io.reader server in
     let body = "{\"link\": \"oc3\", \"class\": \"dar1\"}" in
     let raw =
       Printf.sprintf "POST /v1/decide HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
         (String.length body) body
     in
     Test.make ~name:"srv_http_parse_roundtrip"
       (Staged.stage (fun () ->
            Srv.Io.write_string client raw;
            match Srv.Http.read_request reader None with
            | Srv.Http.Request _ -> ()
            | _ -> failwith "bench request did not parse")));
    (let resp =
       Srv.Http.json
         (Obs.Json.Obj
            [
              ("admissible", Obs.Json.Bool true);
              ("log10_bop", Obs.Json.Float (-9.2));
            ])
     in
     Test.make ~name:"srv_http_serialize"
       (Staged.stage (fun () ->
            ignore (Srv.Http.to_string ~keep_alive:true resp))));
    (let router =
       Srv.Router.create
         [
           Srv.Router.route Srv.Http.GET "/healthz" (fun _ ->
               Srv.Http.text "ok");
         ]
     in
     let req =
       {
         Srv.Http.meth = Srv.Http.GET;
         target = "/healthz";
         path = "/healthz";
         query = [];
         version = Srv.Http.Http_1_1;
         headers = [];
         body = "";
       }
     in
     Test.make ~name:"srv_router_dispatch"
       (Staged.stage (fun () -> ignore (Srv.Router.dispatch router req))));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Printf.printf "\n######## micro-benchmarks (ns/op) ########\n%!";
  List.concat_map
    (fun test ->
      List.map
        (fun sub ->
          let name = Test.Elt.name sub in
          let raw = Benchmark.run cfg instances sub in
          let runs = raw.Benchmark.stats.Benchmark.samples in
          let ns_per_run =
            match
              Analyze.OLS.estimates
                (Analyze.one ols Instance.monotonic_clock raw)
            with
            | Some [ time ] -> Some time
            | _ -> None
          in
          (match ns_per_run with
          | Some time -> Printf.printf "%-28s %12.1f\n%!" name time
          | None -> Printf.printf "%-28s (no estimate)\n%!" name);
          (name, ns_per_run, runs))
        (Test.elements test))
    (micro_tests ())

(* Machine-readable results for CI trend tracking and the overhead
   checks in docs/observability.md. *)
let write_json_results path results =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("schema", String "cts.bench.v1");
        ( "results",
          List
            (List.map
               (fun (name, ns_per_run, runs) ->
                 Obj
                   [
                     ("name", String name);
                     ( "ns_per_run",
                       match ns_per_run with
                       | Some t -> Float t
                       | None -> Null );
                     ("runs", Int runs);
                   ])
               results) );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string doc);
      output_char oc '\n');
  Printf.printf "\nmicro-benchmark results written to %s\n%!" path

(* Minimal flag scan: the harness predates cmdliner here and the only
   option is [--json PATH] (or [--json=PATH]). *)
let parse_json_path () =
  let argv = Sys.argv in
  let path = ref None in
  let i = ref 1 in
  let n = Array.length argv in
  while !i < n do
    let arg = argv.(!i) in
    if arg = "--json" then begin
      if !i + 1 >= n then begin
        prerr_endline "bench: --json needs a PATH argument";
        exit 2
      end;
      path := Some argv.(!i + 1);
      i := !i + 2
    end
    else if String.length arg > 7 && String.sub arg 0 7 = "--json=" then begin
      path := Some (String.sub arg 7 (String.length arg - 7));
      incr i
    end
    else begin
      Printf.eprintf "bench: unknown argument %S (only --json PATH)\n" arg;
      exit 2
    end
  done;
  !path

let () =
  let json_path = parse_json_path () in
  Printf.printf "CTS reproduction bench harness\n";
  Printf.printf "scale: CTS_FRAMES=%d CTS_REPS=%d CTS_SEED=%d\n%!"
    (Experiments.Common.frames ()) (Experiments.Common.reps ())
    (Experiments.Common.seed ());
  let t0 = Obs.Clock.wall () in
  if env_flag "CTS_BENCH_ANALYTIC_ONLY" then
    Experiments.Registry.run_all ~include_simulated:false ()
  else Experiments.Registry.run_all ();
  Printf.printf "\nexperiments completed in %.1f s\n%!"
    (Obs.Clock.wall () -. t0);
  if not (env_flag "CTS_BENCH_NO_MICRO") then begin
    let results = run_micro () in
    report_cac_speedup ();
    Option.iter (fun path -> write_json_results path results) json_path
  end
