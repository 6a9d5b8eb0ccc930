/* CPU affinity and CPU-time clock, which OCaml's Unix library lacks. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

/* The highest-numbered CPU the calling thread may run on, or -1. */
value perfbench_last_allowed_cpu(value unit)
{
  cpu_set_t set;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
    if (CPU_ISSET(cpu, &set)) return Val_int(cpu);
  return Val_int(-1);
}

/* Restricts the calling thread to [cpu]; threads and domains it creates
   afterwards inherit the restriction.  Returns whether it took effect. */
value perfbench_pin_to_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* CPU time of the whole process, all threads, in nanoseconds. */
value perfbench_process_cputime_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
