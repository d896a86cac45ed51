"""Machine speed, from a fixed calibration kernel timed between ops.

The benchmark's host is shared: the same op runs up to 40% slower for tens
of seconds at a time, and its CPU time slows with it (so the slowdown is not
time spent waiting, and CPU time is no steadier than wall time).  The runs
being compared happen minutes apart, so no choice of per-run statistic over
raw times hides that drift.

So a run times a fixed piece of pure-Python work, `kernel()`, after every op
and scales each op's time by REF_S over the median kernel time around it.
The times the benchmark reports read as on a machine where the kernel takes
REF_S.  The kernel is the benchmark's own code and never calls ffzeta, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  It does the kind of work the program does: small tuples of field
codes, products mod p, small slotted objects and tuple-keyed dicts.
"""

import random
import statistics
import time

REF_S = 1.0e-3   # the kernel's time at the reference speed
WINDOW = 5       # kernel samples on each side of an op that set its scale
WARMUP = 20      # kernel runs before the first sample


class _Term:
    __slots__ = ("deg", "code")

    def __init__(self, deg, code):
        self.deg = deg
        self.code = code

    def times(self, other, p):
        return _Term(self.deg + other.deg, self.code * other.code % p)


_RND = random.Random(5)
_P = 7
_A = tuple(_RND.randrange(_P) for _ in range(24))
_B = tuple(_RND.randrange(_P) for _ in range(24))


def kernel():
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    a, b, p = _A, _B, _P
    acc = 0
    for _ in range(8):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        a = tuple(out[:24])
        seen = {}
        for k, v in enumerate(out):
            t = _Term(k, v).times(_Term(v, k), p)
            seen[(t.deg, t.code)] = seen.get((t.code, t.deg), 0) + 1
        acc += len(seen)
    return acc


def warm_up():
    for _ in range(WARMUP):
        kernel()


def sample():
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scales(samples, window=WINDOW):
    """Per sample i, REF_S over the median of samples[i-window..i+window]."""
    n = len(samples)
    return [REF_S / statistics.median(samples[max(0, i - window):i + window + 1])
            for i in range(n)]
