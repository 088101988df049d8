/* Peak resident set size of the largest waited-for child process. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
