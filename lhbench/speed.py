"""Interpreter speed sampled while the workload runs, to scale timings to a
reference speed.

The machines this benchmark runs on are shared, and the speed of one core
drifts with the load of their other tenants: the same `check` took 0.42 s and
0.89 s four minutes apart on the 2-core VM where the benchmark was built.
Such drift moves every timing of a run together, so it can be divided out.
While a run is timed, a SIGALRM interval timer interrupts it every
``PERIOD`` seconds, and the handler times ``probe_loop``: two fixed
pure-Python loops of about equal length, one of dict lookups and tuple
hashes, one of Fraction arithmetic and frozen-dataclass hashing.  The first
tracks the slowdown of the integer backends best, the second that of the
rational `axb` arithmetic; their sum tracks all four workloads.  The mean
loop time over a span, against ``REFERENCE_S``, is the slowdown of the
machine during that span.

The handler runs between bytecodes of the main thread; no thread or
process is started.
"""

from dataclasses import dataclass
from fractions import Fraction
import signal
import time

PERIOD = 0.1
# loop time at a typical speed of the VM where the benchmark was built
REFERENCE_S = 1.1e-3
# a span with fewer samples borrows those within this margin around it
MARGIN_S = 0.5
MIN_SAMPLES = 8

_KEYS = [(i, i % 7) for i in range(64)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_FRACTIONS = [Fraction(i % 7 + 1, i % 5 + 1) for i in range(64)]


@dataclass(frozen=True)
class _Pair:
    grade: object
    dom: object


def probe_loop():
    acc = 0
    for i in range(2000):
        key = _KEYS[i & 63]
        acc += _TABLE[key]
        acc ^= hash(key) & 1023
    seen = {}
    for i in range(50):
        q = _FRACTIONS[i & 63] * _FRACTIONS[(i * 3) & 63] \
            + _FRACTIONS[(i * 5) & 63]
        pair = _Pair((q, i & 7), (i & 3, 4))
        seen[pair] = seen.get(pair, 0) + 1
    return acc + len(seen)


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.lengths = []      # wall seconds of each probe loop
        self.cpu_lengths = []  # CPU seconds of each probe loop

    def _sample(self, signum, frame):
        start, cpu = time.perf_counter(), time.thread_time()
        probe_loop()
        self.cpu_lengths.append(time.thread_time() - cpu)
        self.lengths.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _within(self, start, end, lengths):
        return [n for s, n in zip(self.starts, lengths) if start <= s < end]

    def scale(self, start, end, cpu=None):
        """Scaled time of the span [start, end] of perf_counter readings.

        Without ``cpu`` this is the span's wall time, with ``cpu`` that CPU
        time reading over the span.  The probe's own time inside the span is
        taken off, and the rest is multiplied by REFERENCE_S over the mean
        CPU time of the probe loop in or near the span.  The loop's CPU time
        rather than its wall time is the measure of speed: it tracked the
        workloads better, because it leaves out the moments the host ran
        other work.
        """
        inside = self._within(start, end, self.cpu_lengths)
        samples = inside if len(inside) >= MIN_SAMPLES else \
            self._within(start - MARGIN_S, end + MARGIN_S, self.cpu_lengths)
        if not samples:
            raise RuntimeError("no speed sample near the span")
        if cpu is None:
            own = sum(self._within(start, end, self.lengths))
            measured = end - start
        else:
            own = sum(inside)
            measured = cpu
        return (measured - own) * REFERENCE_S * len(samples) / sum(samples)
