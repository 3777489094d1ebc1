/* High-water resident memory, in KiB, as getrusage(2) reports it: of
   this process, and of the largest child it has reaped (shard
   workers, and their own reaped children). */

#include <sys/resource.h>
#include <caml/mlvalues.h>

static value maxrss_kib(int who)
{
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

value perfbench_maxrss_self_kib(value unit)
{
  (void)unit;
  return maxrss_kib(RUSAGE_SELF);
}

value perfbench_maxrss_children_kib(value unit)
{
  (void)unit;
  return maxrss_kib(RUSAGE_CHILDREN);
}
