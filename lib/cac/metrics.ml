(* Counts are recorded twice on purpose: the process-wide Obs registry
   sums every engine, the instance counts its own for per-run figures.
   Latency goes to the registry histogram only; the instance keeps an
   exact running sum and a fixed ring of recent samples, both O(1). *)

let latency_ring_size = 1024
let latency_lo_us = 0.0
let latency_hi_us = 500.0
let latency_bins = 100

let () =
  Obs.Registry.declare_counter "cac.engine.admits";
  Obs.Registry.declare_counter "cac.engine.rejects";
  Obs.Registry.declare_counter "cac.engine.releases";
  Obs.Registry.declare_histogram ~lo:latency_lo_us ~hi:latency_hi_us
    ~bins:latency_bins "cac.engine.decision_latency_us"

type t = {
  mutable admits : int;
  mutable rejects : int;
  mutable releases : int;
  mutable fallbacks : int;  (* degraded (peak-rate) decisions *)
  mutable latency_sum_us : float;
  ring : float array;
      (* microseconds; decision [d] (0-based) lives in slot
         [d mod latency_ring_size] *)
  (* registry handles (each domain resolves its own shard cell) *)
  c_admits : Obs.Registry.Counter.t;
  c_rejects : Obs.Registry.Counter.t;
  c_releases : Obs.Registry.Counter.t;
  h_latency : Obs.Registry.Histogram.t;
}

let create () =
  {
    admits = 0;
    rejects = 0;
    releases = 0;
    fallbacks = 0;
    latency_sum_us = 0.0;
    ring = Array.make latency_ring_size 0.0;
    c_admits = Obs.Registry.Counter.v "cac.engine.admits";
    c_rejects = Obs.Registry.Counter.v "cac.engine.rejects";
    c_releases = Obs.Registry.Counter.v "cac.engine.releases";
    h_latency =
      Obs.Registry.Histogram.v ~lo:latency_lo_us ~hi:latency_hi_us
        ~bins:latency_bins "cac.engine.decision_latency_us";
  }

let admits t = t.admits
let rejects t = t.rejects
let releases t = t.releases
let fallbacks t = t.fallbacks
let decisions t = t.admits + t.rejects

(* Called before the decision is counted, so [decisions t] is this
   decision's 0-based index.  Decisions slower than [latency_hi_us]
   land in the registry histogram's overflow bin — counted, never
   dropped. *)
let record_latency t latency =
  let us = latency *. 1e6 in
  Obs.Registry.Histogram.observe t.h_latency us;
  t.latency_sum_us <- t.latency_sum_us +. us;
  t.ring.(decisions t mod latency_ring_size) <- us

let record_admit t ~latency =
  record_latency t latency;
  t.admits <- t.admits + 1;
  Obs.Registry.Counter.incr t.c_admits

let record_reject t ~latency =
  record_latency t latency;
  t.rejects <- t.rejects + 1;
  Obs.Registry.Counter.incr t.c_rejects

let record_release t =
  t.releases <- t.releases + 1;
  Obs.Registry.Counter.incr t.c_releases

(* The registry-side tick ([cac.guard.fallbacks]) is recorded by
   Resilience.Guard at the decision site; this keeps only the
   per-instance view. *)
let record_fallback t = t.fallbacks <- t.fallbacks + 1

let blocking_probability t =
  let d = decisions t in
  if d = 0 then 0.0 else float_of_int t.rejects /. float_of_int d

let latency_sum_us t = t.latency_sum_us

let latency_samples t =
  let n = decisions t in
  let kept = Stdlib.min n latency_ring_size in
  Array.init kept (fun i -> t.ring.((n - kept + i) mod latency_ring_size))

let latency_mean_us t =
  let n = decisions t in
  if n = 0 then 0.0 else t.latency_sum_us /. float_of_int n

let latency_ci_us t =
  if decisions t < 2 then None
  else Some (Stats.Ci.mean_ci (latency_samples t))

let print ?sink ?(label = "cac") t =
  let sink = match sink with Some s -> s | None -> Obs.Sink.human_sink () in
  Obs.Sink.messagef sink "%s: %d admits, %d rejects, %d releases (blocking %.4f)"
    label t.admits t.rejects t.releases (blocking_probability t);
  if t.fallbacks > 0 then
    Obs.Sink.messagef sink
      "%s: %d degraded decisions (peak-rate fallback, fail-closed)" label
      t.fallbacks;
  let n = decisions t in
  if n > 0 then begin
    match latency_ci_us t with
    | Some ci ->
        Obs.Sink.messagef sink
          "%s: decision latency %.2f us (95%% CI +/- %.2f over the last %d, \
           n = %d)"
          label (latency_mean_us t) ci.Stats.Ci.half_width
          (Stdlib.min n latency_ring_size)
          n
    | None ->
        Obs.Sink.messagef sink "%s: decision latency %.2f us (n = %d)" label
          (latency_mean_us t) n
  end
