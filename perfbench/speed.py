"""Host-speed probe, so that pass times from a shared host can be compared.

On a host shared with other tenants the same pass can take twice as long
from one minute to the next, and process CPU time slows down with it, so
neither wall nor CPU time is steady enough to compare two commits. The
probe measures how fast the host runs right now: while a pass runs, a
SIGALRM handler times two fixed pieces of work in turn every INTERVAL_S
(one bound by the interpreter's dispatch, one by big-integer arithmetic,
the two kinds of work the package does). A pass's time is then its wall
time minus the probe's own time, multiplied by the host's speed relative
to a reference host on which the two kernels take REF_INTERP_S and
REF_BIGNUM_S. The result is in seconds on that reference host.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.025
# Mean kernel times inside passes on a quiet 2-vCPU Intel Xeon host, Python 3.11.7.
REF_INTERP_S = 0.000140
REF_BIGNUM_S = 0.000680

_MOD = 7 ** 300
_B1, _B2 = 3 ** 3000, 5 ** 2000


def _interp_kernel():
    table, x = {}, 3 ** 150
    for i in range(250):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        x = (x * 1234567 + i) % _MOD


def _bignum_kernel():
    x = _B1
    for i in range(12):
        x = (x * _B2) // (_B2 - i - 1)


_KERNELS = (_interp_kernel, _bignum_kernel)
_REFS = (REF_INTERP_S, REF_BIGNUM_S)


class SpeedProbe:
    """Context manager that samples host speed while it is active.

    ``spent`` is the time the probe itself took; ``speed()`` is the host's
    speed relative to the reference host (0.5: half as fast).
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples = ([], [])
        self.spent = 0.0
        self._turn = 0
        self._previous = None

    def sample(self, *_signal_args):
        k = self._turn
        self._turn ^= 1
        t0 = time.perf_counter()
        _KERNELS[k]()
        dt = time.perf_counter() - t0
        self.samples[k].append(dt)
        self.spent += dt
        if self.on_sample is not None:
            self.on_sample(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Geometric mean over the two kernels of mean(reference / time);
        samples both kernels now if a short pass left one unsampled."""
        while not all(self.samples):
            self.sample()
        return math.sqrt(math.prod(
            statistics.fmean(ref / t for t in times)
            for ref, times in zip(_REFS, self.samples)
        ))


def timed(fn, arg, on_sample=None):
    """Run fn(arg) under a probe: (result, wall seconds, seconds scaled to
    the reference host, host speed)."""
    with SpeedProbe(on_sample) as probe:
        t0 = time.perf_counter()
        result = fn(arg)
        wall = time.perf_counter() - t0
    net = wall - probe.spent
    speed = probe.speed()
    return result, wall, net * speed, speed
