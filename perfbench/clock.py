"""Host-speed normalization of measured times.

On a shared host the speed of one core drifts by up to 2x, in phases of
seconds to tens of seconds (other tenants), and that drift is larger than
any change a PR makes.  A fixed pure-Python reference kernel, which does not
touch lagfloor, is timed in the same thread as the work: three times when an
op starts, every ``INTERVAL_S`` while it runs (from a SIGALRM handler), and
three times when it ends.  Each stretch of work between two samples is
scaled by ``REF_NOMINAL_S`` over the kernel time measured around it, and the
stretches are summed, so a phase change in the middle of a long op is
followed.  Every end-to-end time (``--trace 0``) is therefore in *reference
seconds*: wall seconds at the core speed where the kernel takes
REF_NOMINAL_S.  The time the samples themselves take is left out, and raw
wall times are printed alongside.  Per-layer times (``--trace 1``) are raw
``perf_counter`` seconds; no sample runs there, so none lands inside a span.

Timing the kernel in another process, on the other core, tracked the drift
worse than not scaling at all; hence the in-thread sampling.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median of the kernel below on a quiet core of a 2-vCPU x86-64 sandbox, Python 3.11.
REF_NOMINAL_S = 0.0015
SAMPLES = 3  # kernel timings when an op starts and when it ends
INTERVAL_S = 0.1


def _kernel():
    acc = Fraction(0)
    counts = {}
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(3, k + 2)
        counts[k % 17] = counts.get(k % 17, 0) + k
    return acc


class Sampler:
    """Kernel timings taken inside the running thread while one op runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_):
        t0 = perf_counter()
        _kernel()
        self.samples.append((t0, perf_counter() - t0))

    def start(self):
        for _ in range(SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(SAMPLES):
            self._sample()

    def report(self) -> dict:
        return {"samples": self.samples}


def scale_sampled(raw_s: float, report: dict) -> float:
    """An op's wall time in reference seconds, from its Sampler report.

    Work between consecutive samples is scaled by the median of the four
    kernel timings nearest to it, which ignores a single disturbed sample.
    Time outside the sampled span (process start and exit, as seen from
    the parent) is scaled by the median of all samples.
    """
    samples = sorted(report["samples"])
    durations = [d for _, d in samples]
    total = 0.0
    for i in range(len(samples) - 1):
        work = samples[i + 1][0] - (samples[i][0] + samples[i][1])
        near = durations[max(0, i - 1): i + 3]
        total += work * REF_NOMINAL_S / statistics.median(near)
    sampled_span = samples[-1][0] + samples[-1][1] - samples[0][0]
    outside = max(0.0, raw_s - sampled_span)
    return total + outside * REF_NOMINAL_S / statistics.median(durations)
