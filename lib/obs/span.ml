(* A span handle names one span site and resolves its [span.<name>.us]
   histogram once, on its first completion — not at [v], so a site
   that never runs adds no zero series to exports.  The histogram's
   bin layout is fixed at [v], which also validates the name. *)
type t = { name : string; hist_name : string; mutable hist : Registry.Histogram.t option }

let duration_histogram_bins = (0.0, 1_000_000.0, 60)
(* span durations: 0–1 s in µs, 60 bins; slower spans overflow. *)

let v name =
  let hist_name = "span." ^ name ^ ".us" in
  let lo, hi, bins = duration_histogram_bins in
  Registry.set_histogram_spec ~lo ~hi ~bins hist_name;
  { name; hist_name; hist = None }

let histogram span =
  match span.hist with
  | Some h -> h
  | None ->
      (* Two domains racing here both bind a handle to the same series;
         either store is fine. *)
      let lo, hi, bins = duration_histogram_bins in
      let h = Registry.Histogram.v ~lo ~hi ~bins span.hist_name in
      span.hist <- Some h;
      h

(* An open span.  Ids are "d<domain>:<seq>", but a frame keeps only the
   ints: the strings are built when a live trace sink emits, never on
   the [Null]-sink path.  A parent is always on the same domain's
   stack, so its sequence number alone identifies it. *)
type frame = {
  span : t;
  seq : int;
  parent_seq : int;  (* -1 for a root span *)
  depth : int;
  start_ns : int;
  trace : Trace.t option;
      (* trace context active at entry — correlates the span tree of
         one served request across domains and with its exemplars *)
}

(* Per-domain span stack and id sequence, so traces from parallel
   sweeps interleave without colliding. *)
type state = { domain : int; mutable next_seq : int; mutable stack : frame list }

let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { domain = (Domain.self () :> int); next_seq = 0; stack = [] })

let trace_sink = Atomic.make Sink.Null
let set_trace_sink s = Atomic.set trace_sink s

(* Ring bridge: when installed (by Obs.Events with the span bridge
   enabled), every span enter/exit is re-emitted as a runtime_events
   user event so external eventring tools see our spans.  The default
   costs one atomic read and a match per transition. *)
let ring_bridge : (string -> bool -> unit) option Atomic.t = Atomic.make None
let set_ring_bridge f = Atomic.set ring_bridge f

(* {2 Sampling}

   Trace emission can be thinned to one completion in [n] per span name
   so [--trace] stays usable on million-request replays: registry
   histograms always see every span; sampling only gates the per-span
   trace event.  The rate is process-wide (an Atomic, like the sink);
   the counts it drives are per-domain DLS tables.  Each [set_sampling]
   starts a new epoch, and a domain clears its counts when it sees one,
   so counting restarts from the 1st completion on every domain. *)

type rate = { every : int; epoch : int }

let rate = Atomic.make { every = 1; epoch = 0 }

let set_sampling n =
  if n < 1 then invalid_arg "Span.set_sampling: n < 1";
  Atomic.set rate { every = n; epoch = (Atomic.get rate).epoch + 1 }

let () = Registry.declare_counter "obs.span.sampled_out"

type counts = { mutable seen_epoch : int; by_name : (string, int) Hashtbl.t }

let counts_key : counts Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { seen_epoch = -1; by_name = Hashtbl.create 16 })

(* Decide whether this completion's trace event is emitted; advances
   the calling domain's count for [name].  Only consulted when a trace
   sink is installed, so sampling costs nothing otherwise. *)
let should_emit name =
  let r = Atomic.get rate in
  r.every = 1
  ||
  let c = Domain.DLS.get counts_key in
  if c.seen_epoch <> r.epoch then begin
    Hashtbl.reset c.by_name;
    c.seen_epoch <- r.epoch
  end;
  let k = try Hashtbl.find c.by_name name with Not_found -> 0 in
  Hashtbl.replace c.by_name name (k + 1);
  let emit = k mod r.every = 0 in
  if not emit then Registry.incr "obs.span.sampled_out";
  emit

let current_depth () = List.length (Domain.DLS.get state).stack

let current_name () =
  match (Domain.DLS.get state).stack with [] -> None | f :: _ -> Some f.span.name

let now_ns () = Int64.to_int (Clock.monotonic_ns ())

let enter st span =
  st.next_seq <- st.next_seq + 1;
  let parent_seq, depth =
    match st.stack with [] -> (-1, 0) | p :: _ -> (p.seq, p.depth + 1)
  in
  let frame =
    { span; seq = st.next_seq; parent_seq; depth; start_ns = now_ns (); trace = Trace.current () }
  in
  st.stack <- frame :: st.stack;
  (match Atomic.get ring_bridge with None -> () | Some f -> f span.name true);
  frame

let id st seq = "d" ^ string_of_int st.domain ^ ":" ^ string_of_int seq

(* The completion event.  The wall clock is read here, only for a live
   sink: the span started [dur] before now. *)
let emit sink st frame ~dur_ns ~ok =
  let wall_dur = float_of_int dur_ns /. 1e9 in
  Sink.emit sink
    (Sink.event
       ~time:(Clock.wall () -. wall_dur)
       ~kind:"span" ~name:frame.span.name
       [
         ("id", Json.String (id st frame.seq));
         ( "parent",
           if frame.parent_seq < 0 then Json.Null
           else Json.String (id st frame.parent_seq) );
         ("depth", Json.Int frame.depth);
         ( "trace",
           match frame.trace with
           | Some ctx -> Json.String ctx.Trace.trace_id
           | None -> Json.Null );
         ("dur_us", Json.Float (float_of_int dur_ns /. 1e3));
         ("wall_dur_s", Json.Float wall_dur);
         ("ok", Json.Bool ok);
       ])

let exit_ st frame ~ok =
  (match st.stack with
  | top :: rest when top == frame -> st.stack <- rest
  | stack ->
      (* Unbalanced exit (an inner span escaped): just remove the frame. *)
      st.stack <- List.filter (fun f -> not (f == frame)) stack);
  (match Atomic.get ring_bridge with
  | None -> ()
  | Some f -> f frame.span.name false);
  let dur_ns = now_ns () - frame.start_ns in
  Registry.Histogram.observe (histogram frame.span) (float_of_int dur_ns /. 1e3);
  match Atomic.get trace_sink with
  | Sink.Null -> ()
  | sink -> if should_emit frame.span.name then emit sink st frame ~dur_ns ~ok

let with_ span fn =
  let st = Domain.DLS.get state in
  let frame = enter st span in
  match fn () with
  | v ->
      exit_ st frame ~ok:true;
      v
  | exception e ->
      exit_ st frame ~ok:false;
      raise e
