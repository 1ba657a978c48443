"""Host-speed sampling, so that times can be scaled to one reference speed.

The benchmark runs on a shared virtual machine whose CPU speed drifts by
30-50% over tens of seconds: every part of a repetition, the import of
numpy included, slows and speeds up together.  ``SpeedSampler`` measures
that speed while the workload runs.  A timer signal interrupts the worker
every ``PERIOD_S`` seconds and runs ``probe_chunk``, a fixed piece of pure
Python work that belongs to the benchmark, not to flagflow, so no change to
the program can alter it.  The speed at a sample is ``REF_CHUNK_S`` divided
by the chunk's time; a span of wall time scaled by the mean speed of its
samples is the time the same work takes on a host that runs the chunk in
exactly ``REF_CHUNK_S`` (a "reference second").
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.2  # one chunk of about 2 ms every 0.2 s: about 1% of the run
CHUNK_ITERATIONS = 10_000
REF_CHUNK_S = 0.002  # reference speed: the chunk in 2 ms


def probe_chunk() -> float:
    """A fixed amount of interpreter work: float arithmetic and dict stores."""
    s = 0.0
    d = {}
    for i in range(CHUNK_ITERATIONS):
        s += (i * 0.5) % 3.0
        d[i & 63] = s
    return s


def probe() -> float:
    """Time one chunk, in seconds."""
    t0 = time.perf_counter()
    probe_chunk()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``probe_chunk`` every ``PERIOD_S`` seconds of wall time.

    ``spent_s`` is the wall time the samples themselves took, which the
    caller subtracts from the spans it times.
    """

    def __init__(self) -> None:
        self.chunk_s: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        dt = probe()
        self.chunk_s.append(dt)
        self.spent_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(chunk_s: list[float]) -> float:
    """Mean speed over samples, relative to the reference (1.0 = reference host).

    The slowest and fastest tenth of the samples are dropped, so that a chunk
    cut by a descheduling does not count.
    """
    ratios = sorted(REF_CHUNK_S / c for c in chunk_s)
    cut = len(ratios) // 10
    kept = ratios[cut:len(ratios) - cut]
    return sum(kept) / len(kept)
