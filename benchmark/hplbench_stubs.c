/* The few system calls the OCaml Unix library does not expose: a
   monotonic clock and wait4 with the child's resource usage. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value hplbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* Blocks until [pid] ends. Returns (code, cpu, maxrss): the exit status,
   or 128 + signal number for a killed child; user + system CPU seconds;
   peak resident set size in kB. */
value hplbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, code;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do
    r = wait4(Int_val(vpid), &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(errno));
  if (WIFEXITED(status))
    code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status))
    code = 128 + WTERMSIG(status);
  else
    code = 255;
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec +
                               (double)ru.ru_utime.tv_usec * 1e-6 +
                               (double)ru.ru_stime.tv_sec +
                               (double)ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
