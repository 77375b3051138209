"""Order statistics and the standard-library reference computation.

The reference computation is a fixed amount (≈1 ms) of pure-Python
integer work.  Running it between operations, and from a timer signal
during long ones, samples how fast the machine is at that moment, so
``op_p50_ms / ref_p50_ms`` stays comparable across runs made while the
machine's speed drifts.
"""
from __future__ import annotations

import signal
import statistics
import time

REF_ITERATIONS = 10_000


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio_to_reference(op_ms, ref_ms):
    """Median operation time divided by the median reference time."""
    ref = median(ref_ms)
    if ref <= 0:
        raise ValueError("reference median must be positive")
    return median(op_ms) / ref


def throughput(op_s):
    """Operations per second of summed operation time."""
    total = sum(op_s)
    if total <= 0:
        raise ValueError("summed operation time must be positive")
    return len(op_s) / total


def reference_work(n=REF_ITERATIONS):
    """The fixed reference computation; returns a checksum so it cannot be skipped."""
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return acc


REF_CHECKSUM = reference_work()


def time_reference(reps):
    """Run the reference computation ``reps`` times; return each duration in ms."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = reference_work()
        out.append((time.perf_counter() - t0) * 1000.0)
        if acc != REF_CHECKSUM:
            raise RuntimeError("reference computation returned a wrong checksum")
    return out


class ReferenceSampler:
    """Runs the reference computation every ``interval`` s from SIGALRM while armed.

    The handler runs in the main thread between bytecodes, so the samples
    fall inside the operation being timed; ``spent`` is their total time in
    seconds, which the caller subtracts from the operation's time.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        acc = reference_work()
        dt = time.perf_counter() - t0
        if acc != REF_CHECKSUM:
            raise RuntimeError("reference computation returned a wrong checksum")
        self.samples.append(dt * 1000.0)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
