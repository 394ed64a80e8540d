"""The sums S_q(alpha, a) and permutation tests for the binomial map
x -> a*x + x^(3q-2) on F_{q^2}.

Two independent permutation tests are provided; both stop once the answer
is known:

- ``brute_pp_test``: the ground truth, which accounts for every point
  with no permutation criterion.  It evaluates the first
  P = (q+1)/gcd(3, q+1) points x = g^k in the log domain, one Zech lookup
  each and no reduction mod m = q^2 - 1, and returns at a zero or at an
  image log that repeats an earlier one mod P.  Every later block of P
  points has the first block's image logs shifted by a multiple of P, and
  P divides m, so those shifts fill each log's coset mod P: distinct
  residues mean distinct images everywhere.  A P-byte table holds the
  residues seen.
- ``hermite_pp_test``: the reduced power-sum criterion.  The map permutes
  F_{q^2} iff 0 is its only root and S_q(alpha, a) = 0 for all
  0 <= alpha <= q-1; only the exponents s = alpha + (q-1-alpha)q need
  checking because all other power sums vanish identically.  The root
  condition is the closed form of ``has_nonzero_root``, one product of
  log a, and each S_q is summed in the log domain by the one kernel that
  ``s_q`` also uses, one Zech lookup per term.  Term lists are built digit
  by digit, and only the nonempty ones are walked.  By Lucas,
  C(alpha, i) * C(q-1-alpha, j) != 0 mod p iff i <= alpha and
  j <= q-1-alpha digit by digit.  The digits of alpha and q-1-alpha sum to
  p-1, so x = i + (q-1-alpha-j) has no carry or borrow; x = q-1-alpha + i-j
  is fixed by alpha and l, so the i are the product of one digit interval
  per position of x.
  The verdict depends on a only through log a mod (q-1)*gcd(3, q+1), so
  it is decided once per class of that key and then read from a memo.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from permbinom.ffield import DEFAULT_SIZE_BOUND, FieldCtx


class PreconditionViolated(ValueError):
    """Raised when an operation's hypothesis on (q, a) does not hold."""


class BinomialMap:
    """The map x -> a*x + x^(3q-2) with a != 0; 0 maps to 0."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx: FieldCtx, a: int):
        if a == 0:
            raise PreconditionViolated("a must be nonzero")
        self.ctx = ctx
        self.a = a

    @property
    def exponent(self) -> int:
        return 3 * self.ctx.q - 2

    def __call__(self, x: int) -> int:
        # Evaluated literally via pow; no symbolic reduction, so the ground
        # truth cannot inherit a simplification under test.
        ctx = self.ctx
        return ctx.add(ctx.mul(self.a, x), ctx.pow(x, self.exponent))


class IntervalCensus(NamedTuple):
    """Multiples of q+1 in the exponent-shift interval of a given alpha.

    The paper displays the interval's upper end as alpha - 1, but the range
    of -alpha-1+3(i-j) over valid (i, j) is [2*alpha+2-3q, 2*alpha-1];
    that working form is what the census (and all sums built on it) uses.
    """

    q: int
    alpha: int
    lo: int
    hi_working: int
    multiples: tuple

    @property
    def count(self) -> int:
        return len(self.multiples)


def interval_census(q: int, alpha: int) -> IntervalCensus:
    """All l with l*(q+1) in [2*alpha+2-3q, 2*alpha-1]."""
    if not 0 <= alpha <= q - 1:
        raise PreconditionViolated(f"alpha = {alpha} out of range for q = {q}")
    lo, hi = 2 * alpha + 2 - 3 * q, 2 * alpha - 1
    l_min = -((-lo) // (q + 1))  # ceil(lo / (q+1))
    l_max = hi // (q + 1)
    return IntervalCensus(
        q=q,
        alpha=alpha,
        lo=lo,
        hi_working=hi,
        multiples=tuple(range(l_min, l_max + 1)),
    )


@functools.lru_cache(maxsize=8)
def _factorials(p: int) -> tuple:
    """n! and 1/n! mod p for 0 <= n < p: C(n, k) = f[n] * g[k] * g[n-k] mod
    p for the digit binomials of ``_s_q_terms``, with no big-int comb."""
    f = list(itertools.accumulate(range(1, p), lambda x, n: x * n % p, initial=1))
    return f, [pow(x, -1, p) for x in f]


@functools.lru_cache(maxsize=math.isqrt(DEFAULT_SIZE_BOUND))
def _s_q_terms(p: int, q: int, alpha: int) -> tuple:
    """The nonzero terms (c, k) of S_q(alpha, a) = sum of c * a^k, with
    c = C(alpha, i) * C(comp, j) mod p, comp = q-1-alpha, over the <= 3
    admissible d = i - j, and k = -i - j*q = dq - i(q+1) mod q^2 - 1.

    No-carry lemma.  By Lucas, c != 0 iff i <= alpha and j <= comp digit
    by digit, and comp's digits are comp_k = p-1-alpha_k.  For such (i, j),
    x = i + (comp - j) subtracts with no borrow (j_k <= comp_k) and adds
    with no carry (i_k + comp_k - j_k <= alpha_k + comp_k = p-1), so
    x = comp + d has digits x_k = i_k + comp_k - j_k.  Conversely, every
    choice of i_k in [max(0, x_k - comp_k), min(alpha_k, x_k)] gives such a
    pair with j_k = i_k + comp_k - x_k.  So the terms of d are that
    digit-wise product, with c the product of C(alpha_k, i_k) *
    C(comp_k, j_k), never 0 mod p; for p = 2 it has one term.  The census
    interval gives alpha+1-q <= d <= alpha, so 0 <= x < q, and as
    x_k <= alpha_k + comp_k no digit interval is empty.  Digit binomials
    come from ``_factorials``.  The most significant digit is taken first,
    so i ascends within each d, as in a scan of i.
    Keyed on ints, so the cache keeps no field's tables alive; it serves
    ``s_q`` and holds every alpha of the largest accepted q, 2^12."""
    order, comp = q * q - 1, q - 1 - alpha
    f, g = _factorials(p)
    terms = []
    for l in interval_census(q, alpha).multiples:
        num = alpha + 1 + l * (q + 1)
        if num % 3:
            continue  # no (i, j) pair can satisfy the congruence
        d, pk, c0, i0, heads = num // 3, q, 1, 0, [(1, 0)]  # (c, i) over the branching digits
        while pk > 1:  # the most significant digit first
            pk //= p
            ak, xk = alpha // pk % p, (comp + d) // pk % p
            ck = p - 1 - ak
            lo, hi, fac = max(0, xk - ck), min(ak, xk), f[ak] * f[ck]
            if lo == hi:  # one choice, folded into c0 and i0
                c0 = c0 * fac * g[lo] * g[ak - lo] * g[lo + ck - xk] * g[xk - lo] % p
                i0 += lo * pk
            else:
                heads = [(c * fac * g[t] * g[ak - t] * g[t + ck - xk] * g[xk - t] % p, i + t * pk)
                         for c, i in heads for t in range(lo, hi + 1)]
        terms += [(c * c0 % p, (d * q - (i + i0) * (q + 1)) % order) for c, i in heads]
    return tuple(terms)


@functools.lru_cache(maxsize=1)
def _nonempty_terms(p: int, q: int) -> tuple:
    """The nonempty ``_s_q_terms`` lists of (p, q) in alpha order: the list
    built so far and a generator that builds, appends and yields the next,
    read as chain(built, more) only as far as a caller needs, by one thread
    at a time; then ``hermite_pp_test``'s verdicts by class key.  Keyed on
    ints; one field's walk, <= 2^12 lists, and its verdicts are kept.  The
    lists bypass ``_s_q_terms``'s cache, which would keep the lists of
    fields that a sweep has left behind."""
    built: list = []
    lists = (_s_q_terms.__wrapped__(p, q, alpha) for alpha in range(q))
    return built, (built.append(terms) or terms for terms in lists if terms), {}


def _log_sum(terms: tuple, la: int, log, zech, m: int) -> int:
    """The log of the sum of c * g^(k*la) over the terms (c, k), or -1 for 0.
    The running sum is kept as a log and each term, of log log c + k*la, is
    added with one Zech lookup; a sum that cancels restarts from the next
    term.  The one summing loop of ``s_q`` and ``hermite_pp_test``."""
    total = -1
    for c, k in terms:
        x = (log[c] + k * la) % m
        if total < 0:
            total = x
        else:
            z = zech[(x - total) % m]
            total = -1 if z < 0 else (total + z) % m
    return total


def s_q(ctx: FieldCtx, a: int, alpha: int) -> int:
    """The coefficient sum S_q(alpha, a): the sum of C(alpha, i) *
    C(q-1-alpha, j) * a^(-i-jq) over all (i, j) with -alpha-1+3(i-j) a
    multiple of q+1.  The a-free term list is built once per (p, q, alpha)
    and summed in the log domain by ``_log_sum``.  Stored without the
    leading minus sign of the power-sum identity (checked against
    ``power_sum`` in tests/oracles.py).
    """
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    log = ctx._log
    total = _log_sum(_s_q_terms(ctx.p, ctx.q, alpha), log[a], log, ctx._zech, ctx.q2 - 1)
    return 0 if total < 0 else ctx._exp[total]


def has_nonzero_root(ctx: FieldCtx, a: int) -> bool:
    """True iff a*x + x^(3q-2) vanishes at some x != 0.

    Closed form: (-a)^((q+1)/gcd(3, q+1)) = 1.  For x != 0 the map is
    x*(a + y^3) with y = x^(q-1), and x -> x^(q-1) sends F_{q^2}^* onto the
    cyclic group mu_{q+1} (the x*h(x^(q-1)) form of Zieve, IJNT 2009).  So a
    nonzero root exists iff -a is the cube of some y in mu_{q+1}.  Those
    cubes are the subgroup of order (q+1)/gcd(3, q+1), and a cyclic group
    has one subgroup of each order: the elements z with z^((q+1)/gcd) = 1.
    That exponent is even when q is odd, and -1 = 1 when q is even, so -a
    may be replaced by a, and the test is one product of log a.
    """
    q = ctx.q
    return ctx._log[a] * ((q + 1) // math.gcd(3, q + 1)) % (ctx.q2 - 1) == 0


def brute_pp_test(ctx: FieldCtx, a: int) -> bool:
    """Ground truth: does the map hit all q^2 values?

    Every nonzero x = g^k is placed in the log domain: with la = log a,
    f(x) = g^(la+k) * (1 + g^z_k) for z_k = (3q-3)k - la, so log f(x) is
    la + k + Zech(z_k), and f(x) = 0 where Zech(z_k) is undefined.  As
    f(0) = 0, the map permutes F_{q^2} iff no nonzero x maps to 0 and the
    m = q^2 - 1 image logs are distinct mod m.  Both are decided from the
    first P = (q+1)/gcd(3, q+1) points, with no permutation criterion:

    1. Period.  (3q-3)P = 3m/gcd(3, q+1) is a multiple of m, so z_k has
       period P (the first step of Zieve's x*h(x^(q-1)) form, IJNT 2009):
       f(g^(k+P)) = 0 iff f(g^k) = 0, and log f(g^(k+P)) = log f(g^k) + P
       mod m.  So any nonzero root shows up among k = 0, ..., P-1, and
       block j, the image logs of k = jP, ..., jP+P-1, is block 0 shifted
       by jP mod m.
    2. Cosets.  P divides q+1, which divides m, so the shifts jP of one log
       v, j = 0, ..., m/P - 1, are exactly its coset v + PZ mod m, m/P
       logs.  Two cosets are equal or disjoint.  If the P first-period logs
       are distinct mod P, their cosets are disjoint and hold P * m/P = m
       distinct logs.  If two share a residue, v' = v + jP mod m for some
       j, and v' is also the log of f(g^(k+jP)): two points share an image.

    So the map is a PP iff the first period has no zero and its P image
    logs are distinct mod P.  The scan makes one Zech lookup per point and
    no reduction mod m: z_k steps by 3q - 3 <= m with one conditional
    subtraction, and as P | m the residue of la + k + Zech(z_k) mod P is
    taken without reducing mod m first.  A bytearray of P flags holds the
    residues seen.  The scan returns at a zero or a repeated residue, so it
    makes k+1 lookups when that happens at point k, and P for a PP.
    """
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    q, zech, m, la = ctx.q, ctx._zech, ctx.q2 - 1, ctx._log[a]
    period = (q + 1) // math.gcd(3, q + 1)
    step, z = 3 * q - 3, -la % m
    seen = bytearray(period)
    for t in range(la, la + period):  # the log of a*x, unreduced
        s = zech[z]
        if s < 0:
            return False
        r = (t + s) % period
        if seen[r]:
            return False
        seen[r] = 1
        z += step
        if z >= m:
            z -= m
    return True


def hermite_pp_test(ctx: FieldCtx, a: int) -> bool:
    """Reduced power-sum permutation test, decided once per class.

    The only-root-zero condition is the closed form of ``has_nonzero_root``
    for every q.  No case is assumed impossible a priori: for 3 not dividing
    q+1 the sums are still computed whenever 0 is the only root, so the
    divisibility necessity is observed, not hard-coded.  The sums run in
    alpha order through ``_log_sum`` over the nonempty term lists of
    ``_nonempty_terms``, built only as far as the first nonzero sum, which
    decides.

    Classes.  A term has i - j = d, 3d = alpha+1 + l(q+1) and k = -i(q+1) + dq
    = -d mod q+1, so d = (alpha+1)/3 mod P if 3 | q+1, else d = (alpha+1)*3^-1
    mod P = q+1: all k of one list are -d mod P, and S_q(alpha, a) is a^k times
    a sum in a^P, fixed by key = log a mod m/P = (q-1)*gcd(3, q+1), as is the
    root test (P*log a = 0 mod m iff key = 0).  The first a of a class is
    decided, its verdict stored once complete, and every later a reads it.
    """
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    log, zech, m, q = ctx._log, ctx._zech, ctx.q2 - 1, ctx.q
    la = log[a]
    built, more, verdicts = _nonempty_terms(ctx.p, q)
    key = la % ((q - 1) * math.gcd(3, q + 1))
    if key not in verdicts:
        try:
            verdicts[key] = not has_nonzero_root(ctx, a) and all(
                _log_sum(terms, la, log, zech, m) < 0 for terms in itertools.chain(built, more))
        except BaseException:  # a walk cut inside its generator cannot resume
            _nonempty_terms.cache_clear()
            raise
    return verdicts[key]

