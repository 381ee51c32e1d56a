/* Monotonic wall clock for the benchmark's timings: the stdlib offers only
   Unix.gettimeofday, which steps with the system clock. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now_byte(value unit)
{
  return caml_copy_double(perfbench_now(unit));
}
