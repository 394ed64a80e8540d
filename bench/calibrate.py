"""Host-speed calibration for the end-to-end timings.

The benchmark runs on hosts that share their cores: the same pass of the
same code runs for tens of seconds at a time up to twice as slowly, and no
statistic over one run filters a slow phase that lasts the whole run.  So
each untraced pass is bracketed, and sampled between package calls about
every ``INTERVAL`` seconds, by a fixed calibration loop: code in this file,
which no change to the package can speed up or slow down.  A phase's
slowdown is the mean time of the samples taken beside it divided by the
loop's reference time, and the phase's time at reference speed is its own
time, without the samples, divided by that slowdown.

Each workload samples a loop that does the kind of work its own timed
phase does, since the host slows memory-bound and arithmetic-bound work by
different factors:

- ``table_loop``: an image-table scan of F_(5^6) the way ``FieldCtx``
  computes it (log/exp lookups, base-p digit-loop adds), over tables the
  size of the bigfield fields;
- ``small_table_loop``: the same scan over a field the size of the largest
  sweep fields;
- ``bigint_loop``: pseudo-remainder steps on polynomials with 1000-bit
  coefficients, then trial division of a 2300-bit number by odd d, the way
  ``resultant_z`` and ``factor_trial`` spend the elimination replay's time.

``REF_S`` holds each loop's time at full speed (its 5th-percentile time
over 40 s of back-to-back runs) on an Intel Xeon with 2 vCPUs and Python
3.11.7, so a time at reference speed reads in seconds of that host.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

INTERVAL = 0.1


class _DigitField:
    """Log/exp tables and a base-p digit-loop add over ``p**n`` encodings.

    The tables are a fixed permutation, not a field: the loop only has to
    do the same work as ``FieldCtx.mul`` and ``FieldCtx.add``.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.q2 = p**n
        m = self.q2 - 1
        self.m = m
        self.exp = [(i * 7919 + 1) % self.q2 or 1 for i in range(m)]
        self.log = [0] + [(x * 104729) % m for x in range(1, self.q2)]
        self.cube = [(x * x * x + 3) % self.q2 for x in range(self.q2)]

    def add(self, a: int, b: int) -> int:
        p = self.p
        v, mult = 0, 1
        while a or b:
            v += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return v

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.m]

    def scan(self, a: int, start: int, step: int) -> int:
        mul, add, cube = self.mul, self.add, self.cube
        seen = bytearray(self.q2)
        hits = 0
        for x in range(start, self.q2, step):
            fx = add(mul(a, x), cube[x])
            hits += seen[fx]
            seen[fx] = 1
        return hits


@functools.cache
def _digit_field(p: int, n: int) -> _DigitField:
    return _DigitField(p, n)


def table_loop() -> None:
    _digit_field(5, 6).scan(2, 1, 3)


def small_table_loop() -> None:
    field = _digit_field(5, 4)
    for a in range(1, 12):
        field.scan(a, 1, 1)


def _poly(seed: int, degree: int, bits: int) -> list:
    x, out = seed, []
    for _ in range(degree + 1):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append(pow(x | 1, bits // 64 + 1) % 2**bits + 1)
    return out


_F = _poly(1, 16, 1000)
_G = _poly(2, 6, 1000)


def bigint_loop() -> int:
    r, g = list(_F), _G
    lead = g[-1]
    while len(r) >= len(g):
        c = r[-1]
        shift = len(r) - len(g)
        r = [lead * v for v in r]
        for i, gv in enumerate(g):
            r[shift + i] -= c * gv
        r.pop()
    m = (r[0] * r[-1]) % 2**2300 | 1
    zeros, d = 0, 3
    while d < 12_000:
        zeros += m % d == 0
        d += 2
    return zeros


REF_S = {
    table_loop: 0.0070,
    small_table_loop: 0.0054,
    bigint_loop: 0.0052,
}


class Calibrator:
    """Samples one calibration loop beside the phases of untraced passes.

    ``Calibrator(None)`` takes no samples and reports a slowdown of 1, so a
    phase reads in plain seconds.
    """

    def __init__(self, loop=None):
        self.loop = loop
        self.samples: list = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        if self.loop is None:
            return
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def tick(self) -> None:
        """Take a sample if the last one is ``INTERVAL`` seconds old."""
        if self.loop is not None and time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    @contextmanager
    def phase(self):
        """Times the enclosed phase with a sample on each side.

        Yields a dict filled on exit: ``raw_s`` (the phase's wall time minus
        the samples taken inside it), ``slowdown`` (mean of the samples from
        the one before to the one after, over the loop's reference time) and
        ``s`` (``raw_s / slowdown``).
        """
        rec: dict = {}
        self.sample()
        first = len(self.samples) - 1
        spent = self.spent
        t0 = time.perf_counter()
        yield rec
        t1 = time.perf_counter()
        inside = self.spent - spent
        self.sample()
        rec["raw_s"] = t1 - t0 - inside
        window = self.samples[first:]
        rec["slowdown"] = statistics.fmean(window) / REF_S[self.loop] if window else 1.0
        rec["s"] = rec["raw_s"] / rec["slowdown"]
