type frame = {
  id : string;
  name : string;
  parent : string option;
  depth : int;
  start_wall : float;
  start_mono : int64;
  trace : string option;
      (* trace id active at [enter] — correlates the span tree of one
         served request across domains and with its exemplars *)
}

(* Per-domain span stack and id sequence; ids are "d<domain>:<seq>" so
   traces from parallel sweeps interleave without colliding. *)
let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let seq : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let trace_sink = Atomic.make Sink.Null
let set_trace_sink s = Atomic.set trace_sink s
let current_trace_sink () = Atomic.get trace_sink

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

let current_depth () = List.length !(Domain.DLS.get stack)
let current () = match !(Domain.DLS.get stack) with [] -> None | f :: _ -> Some f
let current_name () = Option.map (fun f -> f.name) (current ())

let duration_histogram_bins = (0.0, 1_000_000.0, 60)
(* span durations: 0–1 s in µs, 60 bins; slower spans overflow. *)

let enter name =
  let st = Domain.DLS.get stack in
  let sq = Domain.DLS.get seq in
  incr sq;
  let parent, depth =
    match !st with [] -> (None, 0) | p :: _ -> (Some p.id, p.depth + 1)
  in
  let frame =
    {
      id = Printf.sprintf "d%d:%d" (Domain.self () :> int) !sq;
      name;
      parent;
      depth;
      start_wall = Clock.wall ();
      start_mono = Clock.monotonic_ns ();
      trace = Trace.current_trace_id ();
    }
  in
  st := frame :: !st;
  (match Atomic.get ring_bridge with None -> () | Some f -> f name true);
  frame

let exit_ frame ~ok =
  let st = Domain.DLS.get stack in
  (match !st with
  | top :: rest when top == frame -> st := rest
  | _ ->
      (* Unbalanced exit (an inner span escaped): just remove the frame. *)
      st := List.filter (fun f -> not (f == frame)) !st);
  (match Atomic.get ring_bridge with
  | None -> ()
  | Some f -> f frame.name false);
  let dur_us = Clock.ns_to_us (Clock.elapsed_ns ~since:frame.start_mono) in
  let wall_dur = Clock.wall () -. frame.start_wall in
  let lo, hi, bins = duration_histogram_bins in
  Registry.declare_histogram ~lo ~hi ~bins ("span." ^ frame.name ^ ".us");
  Registry.observe ("span." ^ frame.name ^ ".us") dur_us;
  match Atomic.get trace_sink with
  | Sink.Null -> ()
  | sink when not (should_emit frame.name) -> ignore sink
  | sink ->
      Sink.emit sink
        (Sink.event ~time:frame.start_wall ~kind:"span" ~name:frame.name
           [
             ("id", Json.String frame.id);
             ( "parent",
               match frame.parent with
               | Some p -> Json.String p
               | None -> Json.Null );
             ("depth", Json.Int frame.depth);
             ( "trace",
               match frame.trace with
               | Some tid -> Json.String tid
               | None -> Json.Null );
             ("dur_us", Json.Float dur_us);
             ("wall_dur_s", Json.Float wall_dur);
             ("ok", Json.Bool ok);
           ])

let with_ ~name fn =
  let frame = enter name in
  match fn () with
  | v ->
      exit_ frame ~ok:true;
      v
  | exception e ->
      exit_ frame ~ok:false;
      raise e
