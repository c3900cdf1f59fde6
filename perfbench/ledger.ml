(* The traced run's in-process ledger.

   The daemon's stack is rebuilt here from public constructors and
   driven one request at a time over a socketpair on one domain.  Every
   call the benchmark makes into a layer runs inside a span carrying
   its duration and minor-heap words; spans stay in memory and {!dump}
   writes them out when the run ends. *)

(* {2 Spans} *)

module Spans = struct
  (* [op] is the request (or kernel pass) the span belongs to; [parent]
     the span open around it, if any. *)
  type span = {
    name : string;
    op : int;
    parent : string option;
    start : float;
    dur : float;
    words : float;
  }

  type t = {
    mutable on : bool;
    mutable op : int;
    mutable current : string option;
    mutable spans : span list;
  }

  let create () = { on = true; op = 0; current = None; spans = [] }

  let with_ t name f =
    if not t.on then f ()
    else begin
      let parent = t.current in
      t.current <- Some name;
      let r, dur, words = Fun.protect ~finally:(fun () -> t.current <- parent) (fun () -> Exact.metered f) in
      t.spans <- { name; op = t.op; parent; start = Exact.now () -. dur; dur; words } :: t.spans;
      r
    end

  let select t name = List.filter (fun s -> String.equal s.name name) t.spans

  (* Median duration (seconds) and median words of one span name. *)
  let median_us t name =
    match select t name with
    | [] -> nan
    | l -> Exact.median (Array.of_list (List.map (fun s -> s.dur *. 1e6) l))

  let median_words t name =
    match select t name with
    | [] -> nan
    | l -> Exact.median (Array.of_list (List.map (fun s -> s.words) l))

  let mean_ms t name =
    match select t name with
    | [] -> nan
    | l -> Exact.sum (Array.of_list (List.map (fun s -> s.dur *. 1e3) l)) /. float_of_int (List.length l)

  (* Median over ops of the summed durations of [names], microseconds. *)
  let per_op_us t names =
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if List.mem s.name names then
          Hashtbl.replace tbl s.op (s.dur +. Option.value (Hashtbl.find_opt tbl s.op) ~default:0.0))
      t.spans;
    Exact.median (Array.of_seq (Seq.map (fun d -> d *. 1e6) (Hashtbl.to_seq_values tbl)))

  let dump t path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc "{\"span\":%S,\"op\":%d,\"parent\":%s,\"start_s\":%.9f,\"dur_us\":%.3f,\"words\":%.0f}\n"
              s.name s.op
              (match s.parent with Some p -> Printf.sprintf "%S" p | None -> "null")
              s.start (s.dur *. 1e6) s.words)
          (List.rev t.spans))
end

(* {2 One request through the stack} *)

type stack = {
  engine : Cac.Engine.t;
  api : Srv.Cac_api.t;
  router : Srv.Router.t;
  client : Unix.file_descr;
  server : Unix.file_descr;
  reader : Srv.Io.reader;
  buf : Bytes.t;
  store : Persist.Store.t option;
}

let stack ?store engine =
  let api = Srv.Cac_api.create engine in
  Option.iter (fun s -> Srv.Cac_api.set_barrier api (fun () -> Persist.Store.barrier s)) store;
  Srv.Cac_api.set_ready api;
  let client, server = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  {
    engine;
    api;
    router = Srv.Cac_api.router api;
    client;
    server;
    reader = Srv.Io.reader server;
    buf = Bytes.create 65536;
    store;
  }

let close st =
  Unix.close st.client;
  Unix.close st.server

let read_exact fd buf n =
  let rec go off =
    if off < n then
      match Unix.read fd buf off (n - off) with
      | 0 -> failwith "socketpair closed"
      | k -> go (off + k)
  in
  go 0

(* A serialized response as the load generator would have parsed it. *)
let response_of_string s =
  let status = int_of_string (String.sub s 9 3) in
  let rec body_at i =
    if i + 4 > String.length s then String.length s
    else if String.sub s i 4 = "\r\n\r\n" then i + 4
    else body_at (i + 1)
  in
  let b = body_at 0 in
  { Client.status; body = String.sub s b (String.length s - b); close = false }

(* The five calls of one keep-alive request, each in its span. *)
let round_trip sp st req =
  let w name f = Spans.with_ sp name f in
  w "loadgen.write" (fun () -> Srv.Io.write_string st.client req);
  let parsed = w "srv.http.read_request" (fun () -> Srv.Http.read_request st.reader None) in
  let request =
    match parsed with
    | Srv.Http.Request r -> r
    | Srv.Http.Eof | Srv.Http.Error _ -> failwith "in-process request did not parse"
  in
  let _, resp = w "srv.router.dispatch" (fun () -> Srv.Router.dispatch st.router request) in
  let s = w "srv.http.to_string" (fun () -> Srv.Http.to_string ~keep_alive:true resp) in
  w "srv.io.write_string" (fun () -> Srv.Io.write_string st.server s);
  let n = String.length s in
  let b = if n <= Bytes.length st.buf then st.buf else Bytes.create n in
  w "loadgen.read" (fun () -> read_exact st.client b n);
  response_of_string (Bytes.sub_string b 0 n)

let ledger_spans =
  [ "loadgen.write"; "srv.http.read_request"; "srv.router.dispatch"; "srv.http.to_string";
    "srv.io.write_string"; "loadgen.read" ]

(* Ops [first, first + n) of a stream through the stack, checked;
   returns the seconds taken. *)
let replay sp st t ~first ~n ~issue ~expect =
  let (), s =
    Exact.timed (fun () ->
        for i = first to first + n - 1 do
          sp.Spans.op <- i;
          let r = round_trip sp st (issue i) in
          Serving.check t (expect i r) (Printf.sprintf "in-process op %d: %s" i r.Client.body)
        done)
  in
  s

(* {2 Streams} *)

type rows = (string * float * string) list

(* What one serving stream's ledger measures. *)
type serving = {
  rows : rows;
  ledger_us : float;  (** median per-request ledger total *)
  overhead : float;  (** traced / untraced in-process throughput *)
}

let journal_hook sp store op = Spans.with_ sp "persist.journal" (fun () -> Persist.Store.journal store op)

(* Stack throughput untraced, then traced, on consecutive stretches. *)
let measure sp st t ~first ~n ~issue ~expect =
  sp.Spans.on <- false;
  let untraced = replay sp st t ~first ~n ~issue ~expect in
  sp.Spans.on <- true;
  let traced = replay sp st t ~first:(first + n) ~n ~issue ~expect in
  untraced /. traced

let srv_rows sp ~engine_us ~journal_us =
  let dispatch = Spans.median_us sp "srv.router.dispatch" in
  [
    ("srv.http.read_request_us", Spans.median_us sp "srv.http.read_request", "us");
    ("srv.http.read_request_words", Spans.median_words sp "srv.http.read_request", "words");
    ("srv.router.dispatch_us", dispatch, "us");
    ("srv.router.dispatch_words", Spans.median_words sp "srv.router.dispatch", "words");
    ("srv.api.self_us", dispatch -. engine_us -. journal_us, "us");
    ("srv.http.to_string_us", Spans.median_us sp "srv.http.to_string", "us");
    ("srv.io.write_string_us", Spans.median_us sp "srv.io.write_string", "us");
  ]

let registry_series () =
  let s = Obs.Registry.snapshot () in
  float_of_int
    (List.length s.Obs.Registry.counters + List.length s.Obs.Registry.gauges
   + List.length s.Obs.Registry.histograms)

(* The decide stream: preload and warm-up through the stack, then the
   timed stretches, then an engine-only pass over the same keys.  It
   runs in a fresh domain: source classes share their variance-growth
   tables per domain, and the set-up must find them cold, as a freshly
   booted daemon does. *)
let rec decide ~seed ~n t = Domain.join (Domain.spawn (fun () -> decide_cold ~seed ~n t))

and decide_cold ~seed ~n t =
  let sp = Spans.create () in
  let preload = Inputs.preload seed in
  let engine = Inputs.reference_engine () in
  let st = stack engine in
  sp.Spans.on <- false;
  (* cac.warmup_s: the set-up's engine work, i.e. the preload (whose
     admissions run the cold kernels) and the first evaluation of every
     key; the preload's answers are checked once the reference exists. *)
  let keys = Array.map (fun (l, c) -> (Inputs.links.(l).id, Inputs.cls Inputs.decide_classes.(c))) Inputs.decide_keys in
  let preload_answers, warmup_s =
    Exact.timed (fun () ->
        let answers = Array.map (fun k -> round_trip sp st (Inputs.preload_request k)) preload in
        Array.iter (fun (link, cls) -> ignore (Cac.Engine.evaluate engine ~link ~cls)) keys;
        answers)
  in
  let reference, preload_expect = Inputs.decide_reference seed in
  Array.iteri
    (fun i r -> Serving.check t (Inputs.outcome_ok preload_expect.(i) r) (Printf.sprintf "in-process preload %d" i))
    preload_answers;
  let expect_key = Inputs.decide_checker reference in
  let stream = Inputs.decide_stream seed 4096 in
  let key i = stream.(i mod Array.length stream) in
  let requests = Array.map Inputs.key_request Inputs.decide_keys in
  let issue i = requests.(key i) and expect i r = expect_key (key i) r in
  let cache0 = Cac.Engine.cache_stats engine in
  let overhead = measure sp st t ~first:0 ~n ~issue ~expect in
  let hit = Cac.Decision_cache.hit_rate (Cac.Decision_cache.diff ~before:cache0 ~after:(Cac.Engine.cache_stats engine)) in
  let samples = float_of_int (Array.length (Cac.Metrics.latency_samples (Cac.Engine.metrics engine))) in
  let series = registry_series () in
  close st;
  (* Engine only, same keys. *)
  let ev = Array.init n (fun i ->
      let link, cls = keys.(key i) in
      snd (Exact.timed (fun () -> Cac.Engine.evaluate engine ~link ~cls)) *. 1e6)
  in
  let evaluate_us = Exact.median ev in
  ( sp,
    {
      rows =
        srv_rows sp ~engine_us:evaluate_us ~journal_us:0.0
        @ [
            ("obs.series", series, "count");
            ("cac.engine.evaluate_us", evaluate_us, "us");
            ("cac.warmup_s", warmup_s, "s");
            ("cac.cache.hit_ratio", hit, "1");
            ("cac.metrics.samples", samples, "count");
          ];
      ledger_us = Spans.per_op_us sp ledger_spans;
      overhead;
    } )

(* The churn stream on a copy of the killed daemon's state dir:
   recovery, store and journal hook, the warm-up and fixed-work ops of
   the untraced run, the timed stretches,
   snapshots, then an engine-only pass over the same ops. *)
let churn ~crashed ~dir ~seed ~n t =
  let sp = Spans.create () in
  let inputs = Serving.churn_inputs ~seed ~timed_ops:(2 * n) in
  let state = Filename.concat dir "ledger-state" in
  Proc.copy_dir crashed state;
  let engine = Cac.Engine.create () in
  let report, recover_s =
    Exact.timed (fun () ->
        match Persist.Recovery.recover ~dir:state engine with
        | Ok r -> r
        | Error e -> failwith ("recovery: " ^ e))
  in
  let store =
    Persist.Store.open_ ~dir:state ~policy:Persist.Wal.Never ~snapshot_every:10_000
      ~next_seq:report.Persist.Recovery.r_next_seq
  in
  Cac.Engine.set_journal engine (Some (journal_hook sp store));
  let st = stack ~store engine in
  sp.Spans.on <- false;
  List.iter
    (fun (s : Inputs.stream) ->
      ignore
        (replay sp st t ~first:0 ~n:(Array.length s.Inputs.ops) ~issue:(Serving.stream_issue s)
           ~expect:(Serving.stream_expect s)))
    [ inputs.Serving.warm; inputs.Serving.fixed_s ];
  let timed = inputs.Serving.timed in
  let issue = Serving.stream_issue timed and expect = Serving.stream_expect timed in
  let cache0 = Cac.Engine.cache_stats engine in
  let overhead = measure sp st t ~first:0 ~n ~issue ~expect in
  let hit = Cac.Decision_cache.hit_rate (Cac.Decision_cache.diff ~before:cache0 ~after:(Cac.Engine.cache_stats engine)) in
  let samples = float_of_int (Array.length (Cac.Metrics.latency_samples (Cac.Engine.metrics engine))) in
  let series = registry_series () in
  let snapshot_ms =
    Exact.median
      (Array.init 3 (fun _ ->
           snd
             (Exact.timed (fun () ->
                  match Persist.Store.snapshot store ~with_engine:(Srv.Cac_api.with_engine st.api) with
                  | Ok _ -> ()
                  | Error e -> failwith ("snapshot: " ^ e)))
           *. 1e3))
  in
  Cac.Engine.set_journal engine None;
  Persist.Store.close store;
  close st;
  (* Engine only: recover the same state, replay warm-up and the first
     stretch, then time the second stretch's admits and releases. *)
  let e = Cac.Engine.create () in
  (match Persist.Recovery.recover ~dir:crashed e with Ok _ -> () | Error err -> failwith err);
  let apply (op : Inputs.op) =
    match op with
    | Inputs.Admit (l, c) ->
        ignore (Cac.Engine.admit e ~link:Inputs.links.(l).id ~cls:(Inputs.cls Inputs.churn_classes.(c)))
    | Inputs.Release conn -> Cac.Engine.release e ~conn
  in
  Array.iter apply inputs.Serving.warm.Inputs.ops;
  Array.iter apply inputs.Serving.fixed_s.Inputs.ops;
  for i = 0 to n - 1 do apply timed.Inputs.ops.(i) done;
  let admits = Exact.Vec.create () and releases = Exact.Vec.create () and words = Exact.Vec.create () in
  for i = n to (2 * n) - 1 do
    let op = timed.Inputs.ops.(i) in
    let (), s, w = Exact.metered (fun () -> apply op) in
    match op with
    | Inputs.Admit _ ->
        Exact.Vec.push admits (s *. 1e6);
        Exact.Vec.push words w
    | Inputs.Release _ -> Exact.Vec.push releases (s *. 1e6)
  done;
  let med v = Exact.median (Exact.Vec.to_array v) in
  let engine_us =
    Exact.median (Array.append (Exact.Vec.to_array admits) (Exact.Vec.to_array releases))
  in
  let journal_us = Spans.median_us sp "persist.journal" in
  ( sp,
    {
      rows =
        srv_rows sp ~engine_us ~journal_us
        @ [
            ("obs.series", series, "count");
            ("cac.cache.hit_ratio", hit, "1");
            ("cac.metrics.samples", samples, "count");
          ];
      ledger_us = Spans.per_op_us sp ledger_spans;
      overhead;
    },
    [
      ("cac.engine.admit_us", med admits, "us");
      ("cac.engine.release_us", med releases, "us");
      ("cac.engine.admit_words", med words, "words");
      ("persist.journal_us", journal_us, "us");
      ("persist.recover_s", recover_s, "s");
      ("persist.snapshot_ms", snapshot_ms, "ms");
    ] )
