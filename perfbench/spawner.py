"""Fork-and-exec server with a small resident set.

Linux reports, as a child's ``ru_maxrss``, at least the resident set its
parent had when it forked (with ``vfork``, the parent's high-water mark).
The benchmark's main process grows as it runs, so children are forked from
this process instead, which imports nothing beyond ``os``, ``signal``,
``sys`` and ``time`` and stays smaller than any Python child it starts.

Protocol, one line each way per child, tab-separated:
    request:  TIMEOUT_S  CWD  STDOUT_PATH  STDERR_PATH  PROGRAM  ARG...
    reply:    EXIT_CODE  MAXRSS_KB  WALL_S
A child still running after TIMEOUT_S seconds is killed.  The server exits
when its standard input closes.
"""

import os
import signal
import sys
import time


def run(timeout: float, cwd: str, out: str, err: str, argv: list) -> str:
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
            os.dup2(os.open(out, flags, 0o644), 1)
            os.dup2(os.open(err, flags, 0o644), 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    running = [True]

    def expire(signum, frame):
        if running[0]:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    running[0] = False
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return f"{os.waitstatus_to_exitcode(status)}\t{usage.ru_maxrss}\t{wall!r}\n"


def main() -> None:
    for line in sys.stdin:
        timeout, cwd, out, err, *argv = line.rstrip("\n").split("\t")
        sys.stdout.write(run(float(timeout), cwd, out, err, argv))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
