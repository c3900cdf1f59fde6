(** Nested span tracing.

    A span site is a handle, [let span = Span.v "cac.api.decide"],
    bound once (like {!Registry.Counter.v}).  [with_ span fn] times
    [fn ()] on the monotonic clock, maintains a per-domain
    parent/child stack, feeds the duration into the registry histogram
    [span.<name>.us] (0–1 s range in microseconds, 60 bins), and —
    when a trace sink is installed — emits one completion event per
    span carrying its id, parent id, nesting depth, durations, and the
    {!Trace} id active when the span was entered (so every span of one
    served request shares a [trace] field in the JSONL sink).

    With the default [Null] trace sink a span costs two monotonic
    clock reads, one stack push and one histogram update: ids, parent
    ids and the wall-clock timestamp are only built when a live sink
    emits. *)

type t
(** A span site: its name and its resolved duration histogram. *)

val v : string -> t
(** [v name] binds the site [name].  Fixes the bin layout of
    [span.<name>.us] (raising [Invalid_argument] if that is not a valid
    instrument name); the series itself appears in exports on the
    first completion. *)

val with_ : t -> (unit -> 'a) -> 'a
(** Exceptions propagate; the span is closed (with [ok=false]) first. *)

val set_trace_sink : Sink.t -> unit
(** Install the destination for span-completion events (default
    [Null]).  Shared by all domains. *)

val set_ring_bridge : (string -> bool -> unit) option -> unit
(** Install (or remove, with [None]) the runtime-events ring bridge:
    [f name true] fires on every span enter, [f name false] on every
    exit, from the span's own domain.  Installed by
    [Obs.Events.start ~bridge:true]; with [None] (the default) the
    cost is one atomic read per transition. *)

(** {1 Sampling}

    Thins {e trace emission} per span name so [--trace] stays usable on
    million-request replays and under the serving daemon.  Registry
    histograms are unaffected — every span is still timed and recorded;
    sampling only decides which completions reach the trace sink.
    Dropped completions tick [obs.span.sampled_out].  With no trace
    sink installed the sampler is never consulted. *)

val set_sampling : int -> unit
(** [set_sampling n] emits the 1st, (n+1)th, (2n+1)th … completion of
    each span name, counted per domain from this call on; [n = 1] (the
    default) emits every completion.  Raises [Invalid_argument] when
    [n < 1]. *)

val current_depth : unit -> int
(** Number of open spans on the calling domain's stack. *)

val current_name : unit -> string option
(** Name of the innermost open span, if any. *)
