/* CPU time of the calling thread, in nanoseconds.

   Unlike the monotonic clock, it stops while the thread is not running:
   while another process has the CPU, and, under a hypervisor that
   reports steal time to the kernel, while the virtual CPU itself is
   descheduled. */

#include <time.h>
#include <caml/mlvalues.h>

value e2e_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
