(** Operational counters and latency accounting for the CAC engine — a
    per-engine view over the same event stream that feeds the global
    {!Obs.Registry}.

    Counts are kept twice: the process-wide instruments
    [cac.engine.{admits,rejects,releases}] sum every engine in the
    process, while this instance counts only its own decisions (a
    sweep's per-run figures need that).  Latency is kept once: the
    [cac.engine.decision_latency_us] registry histogram is the only
    store of its distribution.  The instance adds just an exact running
    sum (for the mean) and a fixed ring of the last 1024 samples (for
    the confidence interval), so its memory does not grow with the
    number of decisions. *)

type t

val create : unit -> t

val record_admit : t -> latency:float -> unit
(** [latency] in seconds, as measured around the decision. *)

val record_reject : t -> latency:float -> unit
val record_release : t -> unit

val record_fallback : t -> unit
(** Count one degraded (peak-rate, fail-closed) decision.  Instance
    view only: the process-wide [cac.guard.fallbacks] counter is
    ticked by {!Resilience.Guard} at the decision site. *)

val admits : t -> int
val rejects : t -> int
val releases : t -> int

val fallbacks : t -> int
(** Degraded decisions recorded on this instance. *)

val decisions : t -> int
(** [admits + rejects]; every decision records one latency. *)

val blocking_probability : t -> float
(** [rejects / decisions]; 0 when no decisions were made. *)

val latency_sum_us : t -> float
(** Sum of every recorded decision latency, microseconds.  The mean
    over a window is the change in this sum divided by the change in
    {!decisions}. *)

val latency_samples : t -> float array
(** The last [min decisions 1024] decision latencies, microseconds, in
    arrival order. *)

val latency_mean_us : t -> float
(** Mean decision latency over every decision, microseconds; 0 when
    empty. *)

val latency_ci_us : t -> Stats.Ci.interval option
(** 95% Student-t interval on the mean of {!latency_samples} (needs
    >= 2 samples). *)

val print : ?sink:Obs.Sink.t -> ?label:string -> t -> unit
(** Human-readable summary, routed through the given sink (default:
    the process {!Obs.Sink.human_sink}, so [--quiet] silences it). *)
