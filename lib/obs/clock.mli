(** Time sources for the telemetry layer.

    [wall] is the civil timestamp stamped on events.  [monotonic_ns]
    is a per-domain non-decreasing nanosecond counter used for span
    durations: the real [CLOCK_MONOTONIC] where the platform provides
    one (via a C stub), otherwise the wall clock clamped so it never
    runs backwards within a domain. *)

val wall : unit -> float
(** Seconds since the epoch ([Unix.gettimeofday]). *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "cts_clock_monotonic_ns_byte" "cts_clock_monotonic_ns"
[@@noalloc]
(** Nanoseconds, non-decreasing within the calling domain.  Backed by
    [clock_gettime(CLOCK_MONOTONIC)] when available ({!source}); the
    epoch is unspecified — only differences are meaningful.  The read
    itself allocates nothing: the stub returns an unboxed [int64]. *)

val source : unit -> string
(** Which backend [monotonic_ns] uses:
    ["clock_gettime(CLOCK_MONOTONIC)"] or ["gettimeofday(clamped)"]. *)

val elapsed_ns : since:int64 -> int64
(** [monotonic_ns () - since]. *)

val ns_to_us : int64 -> float
