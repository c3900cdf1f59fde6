/* Real CLOCK_MONOTONIC binding for Obs.Clock.

   [cts_clock_monotonic_ns] is an unboxed, noalloc external: it returns
   a raw int64_t and never touches the OCaml heap, so reading the clock
   costs no allocation.  Where CLOCK_MONOTONIC is missing (or fails) it
   falls back to gettimeofday clamped non-decreasing per thread — each
   OCaml 5 domain runs on its own thread, so the clamp is per domain. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <stdint.h>
#include <sys/time.h>
#include <time.h>

#if defined(CLOCK_MONOTONIC)
#define CTS_HAVE_MONOTONIC 1
#else
#define CTS_HAVE_MONOTONIC 0
#endif

CAMLprim value cts_clock_monotonic_available(value unit)
{
  (void)unit;
#if CTS_HAVE_MONOTONIC
  struct timespec ts;
  return Val_bool(clock_gettime(CLOCK_MONOTONIC, &ts) == 0);
#else
  return Val_false;
#endif
}

static int64_t cts_clock_fallback_ns(void)
{
  static __thread int64_t last = 0;
  struct timeval tv;
  int64_t now = 0;
  if (gettimeofday(&tv, NULL) == 0)
    now = (int64_t)tv.tv_sec * 1000000000 + (int64_t)tv.tv_usec * 1000;
  if (now < last) now = last;
  last = now;
  return now;
}

int64_t cts_clock_monotonic_ns(value unit)
{
  (void)unit;
#if CTS_HAVE_MONOTONIC
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
    return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
#endif
  return cts_clock_fallback_ns();
}

CAMLprim value cts_clock_monotonic_ns_byte(value unit)
{
  return caml_copy_int64(cts_clock_monotonic_ns(unit));
}
