open Helpers

(* The registry is process-global and other suites tick instruments
   through the modules they exercise, so every test here uses names
   under "test." that nothing else touches. *)

(* {2 Counters} *)

let test_counter_monotonic () =
  let c = Obs.Registry.Counter.v "test.obs.mono" in
  Obs.Registry.Counter.incr c;
  Obs.Registry.Counter.incr ~by:41 c;
  check_int "handle increments accumulate" 42
    (Obs.Registry.counter_value "test.obs.mono");
  (match Obs.Registry.Counter.incr ~by:(-1) c with
  | () -> Alcotest.fail "negative by accepted by handle"
  | exception Invalid_argument _ -> ());
  (match Obs.Registry.incr ~by:(-5) "test.obs.mono" with
  | () -> Alcotest.fail "negative by accepted by keyed incr"
  | exception Invalid_argument _ -> ());
  check_int "rejected updates left no trace" 42
    (Obs.Registry.counter_value "test.obs.mono")

let test_counter_labels_merge () =
  let labels = Obs.Labels.make [ ("k", "a") ] in
  let labels' = Obs.Labels.make [ ("k", "b") ] in
  Obs.Registry.incr ~labels ~by:3 "test.obs.labelled";
  Obs.Registry.incr ~labels:labels' ~by:4 "test.obs.labelled";
  check_int "label sets are distinct series" 3
    (Obs.Registry.counter_value ~labels "test.obs.labelled");
  check_int "label sets are distinct series" 4
    (Obs.Registry.counter_value ~labels:labels' "test.obs.labelled");
  check_int "unlabelled series untouched" 0
    (Obs.Registry.counter_value "test.obs.labelled")

let test_declared_zero_in_snapshot () =
  Obs.Registry.declare_counter "test.obs.declared_only";
  let snap = Obs.Registry.snapshot () in
  check_true "declared counter exports as zero"
    (List.assoc_opt ("test.obs.declared_only", Obs.Labels.empty) snap.counters
    = Some 0)

(* {2 Histogram merging across domains} *)

(* The merged view must equal a sequential run: bin-wise merging is
   associative and commutative, so totals are independent of which
   domain observed what. *)
let test_histogram_domain_merge () =
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:100.0 ~bins:10
    "test.obs.sharded";
  let observe_range lo_i =
    for i = lo_i to lo_i + 49 do
      Obs.Registry.observe "test.obs.sharded"
        (float_of_int (i mod 120))
    done
  in
  let domains =
    List.map (fun k -> Domain.spawn (fun () -> observe_range (50 * k))) [ 1; 2; 3 ]
  in
  observe_range 0;
  List.iter Domain.join domains;
  match Obs.Registry.histogram_snapshot "test.obs.sharded" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some merged ->
      check_int "every observation counted" 200 merged.count;
      (* Sequential reference on a plain Stats histogram. *)
      let ref_h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:10 in
      let ref_sum = ref 0.0 in
      List.iter
        (fun lo_i ->
          for i = lo_i to lo_i + 49 do
            let x = float_of_int (i mod 120) in
            Stats.Histogram.add ref_h x;
            ref_sum := !ref_sum +. x
          done)
        [ 50; 100; 150; 0 ];
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "bin %d matches sequential run" i) c
            merged.counts.(i))
        (Stats.Histogram.counts ref_h);
      check_int "overflow matches" (Stats.Histogram.overflow ref_h)
        merged.overflow;
      check_close ~tol:1e-6 "sum matches" !ref_sum merged.sum

let test_handle_shared_across_domains () =
  (* One module-style handle used by four domains: each domain updates
     its own shard's cell, so nothing is lost in the merge. *)
  let c = Obs.Registry.Counter.v "test.obs.shared_handle" in
  let h =
    Obs.Registry.Histogram.v ~lo:0.0 ~hi:10.0 ~bins:5 "test.obs.shared_hist"
  in
  let work () =
    for i = 1 to 500 do
      Obs.Registry.Counter.incr c;
      Obs.Registry.Histogram.observe h (float_of_int (i mod 10))
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  check_int "no increment lost across domains" 2000
    (Obs.Registry.counter_value "test.obs.shared_handle");
  match Obs.Registry.histogram_snapshot "test.obs.shared_hist" with
  | Some s -> check_int "no observation lost across domains" 2000 s.count
  | None -> Alcotest.fail "shared histogram missing"

(* {2 Spans} *)

let test_span_nesting () =
  check_int "no open span initially" 0 (Obs.Span.current_depth ());
  let seen = ref [] in
  Obs.Span.with_ (Obs.Span.v "test.outer") (fun () ->
      seen := (Obs.Span.current_depth (), Obs.Span.current_name ()) :: !seen;
      Obs.Span.with_ (Obs.Span.v "test.inner") (fun () ->
          seen := (Obs.Span.current_depth (), Obs.Span.current_name ()) :: !seen));
  check_int "stack drained" 0 (Obs.Span.current_depth ());
  (match !seen with
  | [ (2, Some "test.inner"); (1, Some "test.outer") ] -> ()
  | _ -> Alcotest.fail "span stack did not nest as outer > inner");
  match Obs.Registry.histogram_snapshot "span.test.outer.us" with
  | Some s -> check_true "outer span recorded a duration" (s.count >= 1)
  | None -> Alcotest.fail "span histogram missing"

let test_span_exception_closes () =
  (match
     Obs.Span.with_ (Obs.Span.v "test.raising") (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_int "span closed on exception" 0 (Obs.Span.current_depth ())

let with_temp_jsonl f =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f (Obs.Sink.Jsonl oc);
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          List.rev !lines))

let test_span_trace_events () =
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            Obs.Span.with_ (Obs.Span.v "test.traced_outer") (fun () ->
                Obs.Span.with_ (Obs.Span.v "test.traced_inner") ignore)))
  in
  check_int "one event per span" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.of_string line with
        | Some j -> j
        | None -> Alcotest.failf "unparseable trace line: %s" line)
      lines
  in
  let field name j =
    match Obs.Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "trace event missing %S" name
  in
  (* Inner completes first; its parent id is the outer's id. *)
  match parsed with
  | [ inner; outer ] ->
      check_true "inner named" (field "name" inner = String "test.traced_inner");
      check_true "outer named" (field "name" outer = String "test.traced_outer");
      check_true "outer is a root span" (field "parent" outer = Null);
      check_true "inner's parent is outer"
        (field "parent" inner = field "id" outer);
      check_true "depths recorded"
        (field "depth" inner = Int 1 && field "depth" outer = Int 0);
      check_true "both spans ok"
        (field "ok" inner = Bool true && field "ok" outer = Bool true)
  | _ -> Alcotest.fail "expected exactly two parsed events"

(* A sink installed while spans are open: the spans that exit after it
   emit, and their ids and parent links must still be unique and
   right, since ids are only built at emission. *)
let test_span_sink_mid_span () =
  let outer = Obs.Span.v "test.mid.outer"
  and before = Obs.Span.v "test.mid.before"
  and inner = Obs.Span.v "test.mid.inner"
  and leaf = Obs.Span.v "test.mid.leaf"
  and sibling = Obs.Span.v "test.mid.sibling" in
  let lines =
    with_temp_jsonl (fun sink ->
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            Obs.Span.with_ outer (fun () ->
                Obs.Span.with_ before ignore;
                Obs.Span.set_trace_sink sink;
                Obs.Span.with_ inner (fun () -> Obs.Span.with_ leaf ignore);
                Obs.Span.with_ sibling ignore)))
  in
  let events = List.filter_map Obs.Json.of_string lines in
  let by_name name =
    match
      List.find_opt (fun e -> Obs.Json.member "name" e = Some (String name)) events
    with
    | Some e -> e
    | None -> Alcotest.failf "no event for %s" name
  in
  let get name field =
    match Obs.Json.member field (by_name name) with
    | Some v -> v
    | None -> Alcotest.failf "%s event missing %S" name field
  in
  check_int "the four spans that exit after the sink emit" 4 (List.length events);
  let ids =
    List.map
      (fun n -> match get n "id" with String id -> id | _ -> Alcotest.fail "id not a string")
      [ "test.mid.outer"; "test.mid.inner"; "test.mid.leaf"; "test.mid.sibling" ]
  in
  check_int "ids are unique" 4 (List.length (List.sort_uniq String.compare ids));
  check_true "outer is a root" (get "test.mid.outer" "parent" = Null);
  check_true "inner's parent is outer"
    (get "test.mid.inner" "parent" = get "test.mid.outer" "id");
  check_true "leaf's parent is inner"
    (get "test.mid.leaf" "parent" = get "test.mid.inner" "id");
  check_true "sibling's parent is outer"
    (get "test.mid.sibling" "parent" = get "test.mid.outer" "id");
  check_true "depths follow the nesting"
    (get "test.mid.outer" "depth" = Int 0
    && get "test.mid.inner" "depth" = Int 1
    && get "test.mid.leaf" "depth" = Int 2
    && get "test.mid.sibling" "depth" = Int 1)

(* {2 Trace sampling} *)

(* Run [spans] completions of [name] under [set_sampling n] with a
   Jsonl trace sink installed; returns how many trace lines were
   emitted. *)
let emitted_under n ~name ~spans =
  let span = Obs.Span.v name in
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Obs.Span.set_sampling n;
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.set_trace_sink Obs.Sink.Null;
            Obs.Span.set_sampling 1)
          (fun () ->
            for _ = 1 to spans do
              Obs.Span.with_ span ignore
            done))
  in
  List.length lines

let test_span_sampling_one_in () =
  let dropped_before = Obs.Registry.counter_value "obs.span.sampled_out" in
  check_int "1-in-3 over 9 completions" 3
    (emitted_under 3 ~name:"test.sampled_one_in" ~spans:9);
  check_int "six completions dropped" (dropped_before + 6)
    (Obs.Registry.counter_value "obs.span.sampled_out");
  (* sampling gates the trace sink only: every span is still timed *)
  match Obs.Registry.histogram_snapshot "span.test.sampled_one_in.us" with
  | Some s -> check_true "histogram saw all 9 spans" (s.count >= 9)
  | None -> Alcotest.fail "sampled span histogram missing"

let test_span_sampling_reset () =
  check_int "rate 1 emits every completion" 4
    (emitted_under 1 ~name:"test.sampled_reset" ~spans:4);
  (* each set_sampling restarts the count: the first completion after
     it is emitted even though the previous call left the count at 2 *)
  check_int "first of two under 1-in-3" 1
    (emitted_under 3 ~name:"test.sampled_reset" ~spans:2);
  check_int "count restarts on set_sampling" 1
    (emitted_under 3 ~name:"test.sampled_reset" ~spans:1);
  (* spans with no sink installed never consult the sampler *)
  let before = Obs.Registry.counter_value "obs.span.sampled_out" in
  Obs.Span.set_sampling 2;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_sampling 1)
    (fun () ->
      for _ = 1 to 8 do
        Obs.Span.with_ (Obs.Span.v "test.sampled_reset") ignore
      done);
  check_int "no sink: sampler never consulted" before
    (Obs.Registry.counter_value "obs.span.sampled_out")

let test_span_sampling_validation () =
  let rejected n =
    match Obs.Span.set_sampling n with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "sampling rate %d accepted" n
  in
  rejected 0;
  rejected (-3)

(* {2 Trace context} *)

let test_trace_parse_roundtrip () =
  let tp = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01" in
  (match Obs.Trace.parse_traceparent tp with
  | Some ctx ->
      check_true "trace id extracted"
        (ctx.Obs.Trace.trace_id = "0123456789abcdef0123456789abcdef");
      check_true "span id extracted"
        (ctx.Obs.Trace.span_id = "00f067aa0ba902b7");
      check_true "renders back to the same header"
        (Obs.Trace.to_traceparent ctx = tp)
  | None -> Alcotest.fail "valid traceparent rejected");
  check_true "surrounding whitespace tolerated"
    (Obs.Trace.parse_traceparent ("  " ^ tp ^ " ") <> None);
  check_true "future version with trailing fields accepted"
    (Obs.Trace.parse_traceparent
       "cc-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra"
    <> None);
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "rejects %S" s)
        (Obs.Trace.parse_traceparent s = None))
    [
      "";
      "garbage";
      (* short trace id *)
      "00-0123-00f067aa0ba902b7-01";
      (* all-zero ids are invalid on the wire *)
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01";
      "00-0123456789abcdef0123456789abcdef-0000000000000000-01";
      (* version ff is reserved-invalid *)
      "ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01";
      (* hex must be lowercase *)
      "00-0123456789ABCDEF0123456789abcdef-00f067aa0ba902b7-01";
      (* version 00 admits no trailing fields *)
      "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra";
      (* misplaced separator *)
      "00_0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01";
    ]

let test_trace_generate () =
  let all_hex s =
    String.for_all
      (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
      s
  in
  let a = Obs.Trace.generate () and b = Obs.Trace.generate () in
  check_int "trace id width" 32 (String.length a.Obs.Trace.trace_id);
  check_int "span id width" 16 (String.length a.Obs.Trace.span_id);
  check_true "lowercase hex only"
    (all_hex a.Obs.Trace.trace_id && all_hex a.Obs.Trace.span_id);
  check_true "never all-zero"
    (String.exists (fun c -> c <> '0') a.Obs.Trace.trace_id);
  check_true "consecutive ids differ"
    (a.Obs.Trace.trace_id <> b.Obs.Trace.trace_id);
  check_true "generated context round-trips through the header"
    (Obs.Trace.parse_traceparent (Obs.Trace.to_traceparent a) = Some a)

let test_trace_context_scoping () =
  check_true "no ambient context" (Obs.Trace.current () = None);
  let ctx = Obs.Trace.generate () in
  check_true "context visible inside with_context"
    (Obs.Trace.with_context ctx (fun () -> Obs.Trace.current ()) = Some ctx);
  check_true "restored after" (Obs.Trace.current () = None);
  (match Obs.Trace.with_context ctx (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_true "restored on exception" (Obs.Trace.current () = None)

(* The context is Domain-local: a worker domain neither sees the
   parent's context nor leaks its own back — the property the serving
   pool relies on to keep concurrent requests' traces separate. *)
let test_trace_domain_isolation () =
  let ctx = Obs.Trace.generate () in
  Obs.Trace.with_context ctx (fun () ->
      let child_saw =
        Domain.join (Domain.spawn (fun () -> Obs.Trace.current ()))
      in
      check_true "fresh domain starts without a context" (child_saw = None);
      let child_ctx = Obs.Trace.generate () in
      Domain.join
        (Domain.spawn (fun () ->
             Obs.Trace.with_context child_ctx (fun () ->
                 check_true "child sees its own context"
                   (Obs.Trace.current () = Some child_ctx))));
      check_true "child's context never leaks to the parent"
        (Obs.Trace.current () = Some ctx))

let test_span_event_trace_field () =
  let ctx = Obs.Trace.generate () in
  let lines =
    with_temp_jsonl (fun sink ->
        Obs.Span.set_trace_sink sink;
        Fun.protect
          ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
          (fun () ->
            Obs.Span.with_ (Obs.Span.v "test.untraced_span") ignore;
            Obs.Trace.with_context ctx (fun () ->
                Obs.Span.with_ (Obs.Span.v "test.traced_span") ignore)))
  in
  match List.filter_map Obs.Json.of_string lines with
  | [ untraced; traced ] ->
      check_true "untraced span has a null trace field"
        (Obs.Json.member "trace" untraced = Some Null);
      check_true "traced span carries the trace id"
        (Obs.Json.member "trace" traced
        = Some (String ctx.Obs.Trace.trace_id))
  | parsed -> Alcotest.failf "expected two events, got %d" (List.length parsed)

(* {2 Exemplars} *)

let test_exemplar_stamping () =
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:10.0 ~bins:5 "test.obs.exemplar";
  Obs.Registry.observe "test.obs.exemplar" 1.0;
  (match Obs.Registry.histogram_snapshot "test.obs.exemplar" with
  | Some s ->
      check_true "untraced observations leave no exemplar" (s.exemplar = None)
  | None -> Alcotest.fail "histogram missing");
  let ctx = Obs.Trace.generate () in
  Obs.Trace.with_context ctx (fun () ->
      Obs.Registry.observe "test.obs.exemplar" 4.5);
  match Obs.Registry.histogram_snapshot "test.obs.exemplar" with
  | None -> Alcotest.fail "histogram missing"
  | Some s -> (
      match s.exemplar with
      | None -> Alcotest.fail "traced observation left no exemplar"
      | Some e ->
          check_true "exemplar carries the trace id"
            (e.Obs.Registry.ex_trace = ctx.Obs.Trace.trace_id);
          check_close "exemplar keeps the observed value" 4.5
            e.Obs.Registry.ex_value;
          check_true "exemplar is wall-stamped" (e.Obs.Registry.ex_wall > 0.0))

let test_prometheus_exemplar () =
  (* Hand-built snapshot: the exemplar must render OpenMetrics-style
     on the +Inf bucket only. *)
  let snap =
    {
      Obs.Registry.counters = [];
      gauges = [];
      histograms =
        [
          ( ("test.ex.us", Obs.Labels.empty),
            {
              Obs.Registry.hlo = 0.0;
              hhi = 10.0;
              counts = [| 1 |];
              underflow = 0;
              overflow = 0;
              sum = 2.0;
              count = 1;
              exemplar =
                Some
                  {
                    Obs.Registry.ex_trace = "4bf92f3577b34da6";
                    ex_value = 2.0;
                    ex_wall = 1.5;
                  };
            } );
        ];
    }
  in
  let out = Obs.Export.prometheus snap in
  check_true "+Inf bucket carries the exemplar"
    (contains_substring out
       "test_ex_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"4bf92f3577b34da6\"} 2 1.5");
  check_true "finite buckets stay exemplar-free"
    (contains_substring out "test_ex_us_bucket{le=\"10\"} 1\n")

(* {2 Runtime collector} *)

let test_runtime_read_monotonic () =
  let a = Obs.Runtime.read () in
  (* allocate enough boxed values to move the GC counters *)
  let junk = ref [] in
  for i = 1 to 10_000 do
    junk := string_of_int i :: !junk
  done;
  Gc.minor ();
  check_true "allocation kept" (List.length !junk = 10_000);
  let b = Obs.Runtime.read () in
  check_true "minor_words grows with allocation"
    (b.Obs.Runtime.minor_words > a.Obs.Runtime.minor_words);
  check_true "minor_collections never decreases"
    (b.Obs.Runtime.minor_collections >= a.Obs.Runtime.minor_collections);
  check_true "major_words never decreases"
    (b.Obs.Runtime.major_words >= a.Obs.Runtime.major_words);
  check_true "heap is non-empty" (b.Obs.Runtime.heap_words > 0);
  check_true "high-water mark bounds the heap"
    (b.Obs.Runtime.top_heap_words >= b.Obs.Runtime.heap_words)

let test_runtime_sample () =
  let s = Obs.Runtime.sample () in
  (match Obs.Runtime.last () with
  | Some (_, s') -> check_true "last returns the sampled stats" (s' = s)
  | None -> Alcotest.fail "sample did not record itself");
  (match Obs.Runtime.sample_age_s () with
  | Some age -> check_true "age is non-negative" (age >= 0.0)
  | None -> Alcotest.fail "sample_age_s empty after a sample");
  let s' = Obs.Runtime.sample () in
  check_true "counters are monotone across samples"
    (s'.Obs.Runtime.minor_collections >= s.Obs.Runtime.minor_collections
    && s'.Obs.Runtime.minor_words >= s.Obs.Runtime.minor_words);
  (* sample never publishes the unflushed zero block (it forces a
     minor collection if quick_stat has not seen a stop-the-world
     point since worker domains spawned) *)
  check_true "sampled heap is never zero" (s'.Obs.Runtime.heap_words > 0);
  let snap = Obs.Registry.snapshot () in
  List.iter
    (fun name ->
      check_true
        (Printf.sprintf "%s gauge exported" name)
        (List.mem_assoc (name, Obs.Labels.empty) snap.gauges))
    [
      "runtime.gc.minor_collections";
      "runtime.gc.major_collections";
      "runtime.gc.minor_words";
      "runtime.heap_words";
      "runtime.top_heap_words";
    ];
  (* json encoding carries every field *)
  let doc = Obs.Runtime.json_of_stats s' in
  List.iter
    (fun f ->
      check_true (Printf.sprintf "json has %s" f) (Obs.Json.member f doc <> None))
    [ "minor_collections"; "major_collections"; "minor_words"; "heap_words" ]

(* {2 Heatmaps} *)

(* Seed two labelled series of a private histogram name and check every
   renderer against the known layout: 5 bins over [0, 50). *)
(* Lazy: the registry is global and cumulative, so the three renderer
   tests must share one seeding pass. *)
let seeded_heatmap =
  lazy
    (Obs.Registry.set_histogram_spec ~lo:0.0 ~hi:50.0 ~bins:5 "test.heat";
     let observe cells xs =
       let labels = Obs.Labels.make [ ("buffer_cells", cells) ] in
       List.iter (Obs.Registry.observe ~labels "test.heat") xs
     in
     observe "2000" [ 25.0; 35.0; 45.0; 60.0 ] (* 60 overflows *);
     observe "100" [ 5.0; 5.0; 5.0; 15.0 ];
     match
       Obs.Heatmap.of_snapshot ~name:"test.heat" (Obs.Registry.snapshot ())
     with
     | Some hm -> hm
     | None -> Alcotest.fail "seeded heatmap missing from snapshot")

let seed_heatmap () = Lazy.force seeded_heatmap

let index_of hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else scan (i + 1)
  in
  scan 0

let test_heatmap_ascii () =
  let hm = seed_heatmap () in
  check_int "one row per buffer size" 2 (Obs.Heatmap.row_count hm);
  let ascii = Obs.Heatmap.to_ascii hm in
  check_true "header names metric, key and layout"
    (contains_substring ascii
       "test.heat by buffer_cells — 5 bins over [0, 50), width 10");
  (match (index_of ascii "     100 | ", index_of ascii "    2000 | ") with
  | Some small, Some large ->
      check_true "rows sorted numerically, not lexically" (small < large)
  | _ -> Alcotest.fail "expected one grid row per label");
  check_true "row totals with under/overflow"
    (contains_substring ascii "4 (0/1)");
  check_true "scale legend present" (contains_substring ascii "row max")

let test_heatmap_csv () =
  let hm = seed_heatmap () in
  let expected =
    String.concat "\n"
      [
        "buffer_cells,bin_lo,bin_hi,count";
        "100,0,10,3";
        "100,10,20,1";
        "100,20,30,0";
        "100,30,40,0";
        "100,40,50,0";
        "2000,0,10,0";
        "2000,10,20,0";
        "2000,20,30,1";
        "2000,30,40,1";
        "2000,40,50,1";
        "";
      ]
  in
  Alcotest.(check string) "csv long-format golden" expected
    (Obs.Heatmap.to_csv hm)

let test_heatmap_html () =
  let hm = seed_heatmap () in
  let html = Obs.Heatmap.to_html hm in
  check_true "self-contained document"
    (contains_substring html "<!DOCTYPE html>");
  check_true "auto-refresh wired"
    (contains_substring html "http-equiv=\"refresh\"");
  check_true "rows labelled" (contains_substring html "<th>2000</th>");
  check_true "full cells are opaque"
    (contains_substring html "rgba(97,175,239,1.000)");
  check_true "empty cells are transparent"
    (contains_substring html "rgba(97,175,239,0.000)")

(* {2 JSON round-trip} *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "with \"quotes\" and \\ and \n newline");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5e-3);
        ("b", Obs.Json.Bool false);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 0.25 ]);
        ("o", Obs.Json.Obj [ ("nested", Obs.Json.Bool true) ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Some parsed -> check_true "round-trips structurally" (parsed = doc)
  | None -> Alcotest.fail "encoder output did not parse"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "rejects %S" s)
        (Obs.Json.of_string s = None))
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

let test_jsonl_message_roundtrip () =
  let lines =
    with_temp_jsonl (fun sink -> Obs.Sink.message sink "hello from the sink")
  in
  match lines with
  | [ line ] -> (
      match Obs.Json.of_string line with
      | Some j ->
          check_true "message preserved"
            (Obs.Json.member "text" j = Some (String "hello from the sink"));
          check_true "kind is message"
            (Obs.Json.member "kind" j = Some (String "message"))
      | None -> Alcotest.failf "unparseable message line: %s" line)
  | _ -> Alcotest.fail "expected one JSON line"

(* {2 Prometheus exposition} *)

let test_prometheus_golden () =
  (* A hand-built snapshot keeps the golden text independent of the
     global registry's contents. *)
  let labels = Obs.Labels.make [ ("link", "l0") ] in
  let snap =
    {
      Obs.Registry.counters =
        [ (("test.hits", Obs.Labels.empty), 7); (("test.hits", labels), 2) ];
      gauges = [ (("test.load", Obs.Labels.empty), 0.5) ];
      histograms =
        [
          ( ("test.lat.us", Obs.Labels.empty),
            {
              Obs.Registry.hlo = 0.0;
              hhi = 30.0;
              counts = [| 2; 1; 0 |];
              underflow = 0;
              overflow = 1;
              sum = 48.0;
              count = 4;
              exemplar = None;
            } );
        ];
    }
  in
  let expected =
    String.concat "\n"
      [
        "# TYPE test_hits_total counter";
        "test_hits_total 7";
        "test_hits_total{link=\"l0\"} 2";
        "# TYPE test_load gauge";
        "test_load 0.5";
        "# TYPE test_lat_us histogram";
        "test_lat_us_bucket{le=\"10\"} 2";
        "test_lat_us_bucket{le=\"20\"} 3";
        "test_lat_us_bucket{le=\"30\"} 3";
        "test_lat_us_bucket{le=\"+Inf\"} 4";
        "test_lat_us_sum 48";
        "test_lat_us_count 4";
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "exposition matches" expected
    (Obs.Export.prometheus snap)

(* {2 Histogram quantiles} *)

let quantile_fixture ?(underflow = 0) ?(overflow = 0) counts =
  let count =
    underflow + overflow + Array.fold_left ( + ) 0 counts
  in
  {
    Obs.Registry.hlo = 0.0;
    hhi = float_of_int (Array.length counts * 10);
    counts;
    underflow;
    overflow;
    sum = 0.0;
    count;
    exemplar = None;
  }

let quantile h q =
  match Obs.Registry.histogram_quantile h ~q with
  | Some v -> v
  | None -> Alcotest.fail "quantile on non-empty histogram returned None"

let test_quantile_interpolation () =
  (* 10 observations spread uniformly in one bin [10, 20): the median
     interpolates to the bin midpoint's position. *)
  let h = quantile_fixture [| 0; 10; 0 |] in
  check_close "p50 interpolates inside the bin" 15.0 (quantile h 0.5);
  check_close "p10 sits near the bin's left edge" 11.0 (quantile h 0.1);
  check_close "p100 is the bin's right edge" 20.0 (quantile h 1.0);
  (* Mass split across bins: 4 in [0,10), 4 in [10,20), 2 in [20,30). *)
  let h = quantile_fixture [| 4; 4; 2 |] in
  check_close "p25 lands mid first bin" 6.25 (quantile h 0.25);
  check_close "p50 is the first-bin boundary" 12.5 (quantile h 0.5);
  check_close "p90 reaches the last bin" 25.0 (quantile h 0.9)

let test_quantile_edges () =
  (match
     Obs.Registry.histogram_quantile (quantile_fixture [| 0; 0 |]) ~q:0.5
   with
  | None -> ()
  | Some _ -> Alcotest.fail "empty histogram must yield None");
  (* Out-of-range mass clamps to the nearest representable edge. *)
  let h = quantile_fixture ~underflow:6 [| 2; 2 |] in
  check_close "underflow mass reports lo" 0.0 (quantile h 0.5);
  let h = quantile_fixture ~overflow:6 [| 2; 2 |] in
  check_close "overflow mass reports hi" 20.0 (quantile h 0.9);
  List.iter
    (fun q ->
      match Obs.Registry.histogram_quantile (quantile_fixture [| 1 |]) ~q with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "q=%g must raise Invalid_argument" q)
    [ -0.1; 1.5; Float.nan ]

let test_text_export_quantiles () =
  let name = "test.obs.quantile_text.us" in
  Obs.Registry.declare_histogram ~lo:0.0 ~hi:100.0 ~bins:10 name;
  for _ = 1 to 10 do
    Obs.Registry.observe name 15.0
  done;
  let out = Obs.Export.text (Obs.Registry.snapshot ()) in
  check_true "text export carries p50/p95/p99"
    (contains_substring out "p50=" && contains_substring out "p95="
   && contains_substring out "p99=")

let test_export_json_keys () =
  Obs.Registry.incr ~by:5 "test.obs.export_key";
  let doc = Obs.Export.json (Obs.Registry.snapshot ()) in
  match Obs.Json.member "counters" doc with
  | Some counters ->
      check_true "counter exported under dotted name"
        (Obs.Json.member "test.obs.export_key" counters = Some (Int 5))
  | None -> Alcotest.fail "no counters object in JSON export"


(* {2 JSON encoding is byte-identical to the Printf-based encoder}

   The encoder formats floats through the C %g formatter directly and
   copies strings that need no escaping whole; these are the previous
   implementations, kept as oracles. *)

let oracle_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let oracle_float_repr x =
  let s = Printf.sprintf "%.17g" x in
  let shorter = Printf.sprintf "%.12g" x in
  if Float.equal (float_of_string shorter) x then shorter else s

let gen_json_float =
  let open QCheck2.Gen in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  oneof
    [
      oneofl [ 0.0; -0.0; 1.0; -1.0; 0.1; 1e-6; Float.min_float; Float.max_float;
               Float.epsilon; 4.9e-324 ];
      (* subnormals *)
      signed (map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_range 1 ((1 lsl 52) - 1)));
      (* integers *)
      map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
      (* large and tiny exponents *)
      signed (map2 (fun m e -> Float.ldexp m e) (float_range 0.5 1.0) (int_range 900 1023));
      signed (map2 (fun m e -> Float.ldexp m e) (float_range 0.5 1.0) (int_range (-1021) (-900)));
      (* log10_bop-like verdict fields and ordinary magnitudes *)
      float_range (-40.0) 0.0;
      signed (float_range 0.0 1e7);
      (* arbitrary bit patterns *)
      map Int64.float_of_bits ui64;
    ]

let gen_json_string =
  let open QCheck2.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\x1f"; "\x7f"; "/";
                 "\xc3\xa9"; "\xe2\x88\x9e"; "\xf0\x9f\x98\x80"; "log10_bop" ];
        map (String.make 1) (map Char.chr (int_range 0 31));
        string_size ~gen:printable (int_range 0 8);
        string_size ~gen:char (int_range 0 4);
      ]
  in
  map (String.concat "") (list_size (int_range 0 8) piece)

let json_float_identical =
  qcheck ~count:2000 "json: float encoding matches the Printf oracle" gen_json_float
    (fun x ->
      let expected = if Float.is_finite x then oracle_float_repr x else "null" in
      String.equal (Obs.Json.to_string (Float x)) expected)

let json_string_identical =
  qcheck ~count:2000 "json: string encoding matches the escape oracle" gen_json_string
    (fun s ->
      String.equal (Obs.Json.to_string (String s)) ("\"" ^ oracle_escape s ^ "\"")
      && String.equal
           (Obs.Json.to_string (Obj [ (s, Null) ]))
           ("{\"" ^ oracle_escape s ^ "\":null}"))

let suite =
  [
    case "counter: monotonic, rejects negative" test_counter_monotonic;
    case "counter: labelled series are distinct" test_counter_labels_merge;
    case "declared counter exports as zero" test_declared_zero_in_snapshot;
    case "histogram: domain shards merge = sequential" test_histogram_domain_merge;
    case "handles shared across domains" test_handle_shared_across_domains;
    case "span: nesting depth and names" test_span_nesting;
    case "span: closed on exception" test_span_exception_closes;
    case "span: JSON-lines trace events" test_span_trace_events;
    case "span: sink installed mid-span keeps ids and parents"
      test_span_sink_mid_span;
    case "span: 1-in-N trace sampling" test_span_sampling_one_in;
    case "span: sampling reset and no sink" test_span_sampling_reset;
    case "span: sampling validation" test_span_sampling_validation;
    case "trace: traceparent parse and round-trip" test_trace_parse_roundtrip;
    case "trace: generated ids are well-formed" test_trace_generate;
    case "trace: context scoping" test_trace_context_scoping;
    case "trace: contexts are domain-local" test_trace_domain_isolation;
    case "trace: span events carry the trace id" test_span_event_trace_field;
    case "exemplar: traced observations stamp histograms"
      test_exemplar_stamping;
    case "exemplar: prometheus +Inf rendering" test_prometheus_exemplar;
    case "runtime: GC counters are monotone" test_runtime_read_monotonic;
    case "runtime: sample mirrors into gauges" test_runtime_sample;
    case "heatmap: ascii grid" test_heatmap_ascii;
    case "heatmap: csv golden" test_heatmap_csv;
    case "heatmap: self-contained html" test_heatmap_html;
    case "json: encode/parse round-trip" test_json_roundtrip;
    case "json: rejects malformed input" test_json_rejects_garbage;
    json_float_identical;
    json_string_identical;
    case "sink: jsonl message round-trip" test_jsonl_message_roundtrip;
    case "prometheus: golden exposition" test_prometheus_golden;
    case "export: json document keys" test_export_json_keys;
    case "quantile: linear interpolation" test_quantile_interpolation;
    case "quantile: empty, clamps, domain errors" test_quantile_edges;
    case "export: text mode carries quantiles" test_text_export_quantiles;
  ]
