"""A fixed pure-Python reference loop that measures how fast the host runs
right now.

Shared hosts slow every process down by up to 1.6x for periods of seconds
to minutes, which swamps the run-to-run differences the benchmark exists to
show.  The benchmark runs this loop between operations (never alongside
one) and rescales each pass's wall times by ``REFERENCE_S / median(loop
times)``, so its timings read as seconds on a host that runs the loop in
``REFERENCE_S``.  The raw wall times are printed next to them.
"""

from time import perf_counter

# The loop's time on a 2-vCPU x86-64 VM with CPython 3.11, to which the
# reported timings are rescaled.  Fixed: changing it rescales every result.
REFERENCE_S = 0.026
PROBES_PER_GAP = 2


def reference_loop() -> float:
    """Seconds taken by a fixed amount of integer arithmetic in a Python loop."""
    t0 = perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i % 7
    return perf_counter() - t0


def probe_gap() -> list[float]:
    """The reference loop's times at one gap between operations."""
    return [reference_loop() for _ in range(PROBES_PER_GAP)]
