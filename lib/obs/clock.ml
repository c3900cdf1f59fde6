let wall = Unix.gettimeofday

(* Real CLOCK_MONOTONIC via a C stub (clock_stubs.c), unboxed and
   noalloc.  Platforms without it fall back (inside the stub) to the
   wall clock clamped non-decreasing per domain — good enough for span
   durations (microsecond resolution, immune to small backwards
   steps), but not immune to large NTP slews the way the real
   monotonic clock is. *)
external monotonic_available_stub : unit -> bool = "cts_clock_monotonic_available"

external monotonic_ns : unit -> (int64[@unboxed])
  = "cts_clock_monotonic_ns_byte" "cts_clock_monotonic_ns"
[@@noalloc]

let have_monotonic = monotonic_available_stub ()

let source () =
  if have_monotonic then "clock_gettime(CLOCK_MONOTONIC)"
  else "gettimeofday(clamped)"

let elapsed_ns ~since = Int64.sub (monotonic_ns ()) since
let ns_to_us ns = Int64.to_float ns /. 1e3
