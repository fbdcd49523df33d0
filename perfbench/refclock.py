"""Host-speed reference: scales measured times to a fixed host speed.

On a shared host the speed a process gets drifts by up to 2x over tens of
seconds, far more than a change to the program would move a metric. So
each timed run also times a fixed reference computation, which belongs to
the benchmark and never changes with the program, about every
``SAMPLE_EVERY_NS`` between requests. A measured time is multiplied by
``REFERENCE_NS / (reference time measured around it)``: it then reads as
the time the same work takes when the reference computation takes
``REFERENCE_NS``, about its median on the 2-vCPU host where the benchmark was
written. A program that gets faster shows in full; the host's drift
mostly cancels.

The reference computation mixes, in about equal time, the three kinds
of work the program does: big-integer multiply, modulo and gcd; exact
``Fraction`` arithmetic (Bernoulli numbers); and string and dict work
like parsing and serialising. On a contended host the program slows
more than plain big-integer code does and less than string code does;
the mix follows it more closely than any one part. The objects it
creates are freed as soon as they are made, so it leaves nothing for the
garbage collector.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 2_000_000
SAMPLE_EVERY_NS = 100_000_000
WARMUP = 3
# samples on each side of a request whose median gives its host speed
WINDOW = 2

_MODULUS = (1 << 521) - 1


def _reference_work() -> int:
    x = 0x9E3779B97F4A7C15
    acc = 0
    for k in range(1, 400):
        x = (x * x + k) % _MODULUS
        acc += math.gcd(x, 6 * k + 1)
    # Bernoulli numbers B_0..B_17 by the Akiyama-Tanigawa algorithm
    row = [Fraction(0)] * 18
    for m in range(18):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        acc += row[0].denominator
    counts: dict[str, int] = {}
    for k in range(1000):
        key = f"p{k % 97}:{k % 7}"
        counts[key] = counts.get(key, 0) + len(key)
    return acc + sum(counts.values())


def sample_ns() -> int:
    """One timing of the reference computation, in ns."""
    start = time.perf_counter_ns()
    _reference_work()
    return time.perf_counter_ns() - start


def warm_up() -> None:
    for _ in range(WARMUP):
        _reference_work()


def scale(reference: float) -> float:
    """Factor that turns a time measured at this reference time into one
    at the benchmark's fixed reference speed."""
    return REFERENCE_NS / reference


def request_references(samples: list[list[int]], count: int) -> list[float]:
    """The reference time around each of ``count`` requests.

    ``samples`` holds ``[position, ns]`` pairs in the order taken, where
    position is the number of requests completed before the sample. The
    reference for request i is the median of the WINDOW samples taken
    last before it and the WINDOW taken first after it.
    """
    positions = [position for position, _ in samples]
    values = [ns for _, ns in samples]
    out = []
    for index in range(count):
        before = bisect.bisect_right(positions, index)  # samples taken before request index
        lo, hi = max(0, before - WINDOW), min(len(values), before + WINDOW)
        out.append(statistics.median(values[lo:hi]))
    return out
