"""The sums S_q(alpha, a) and permutation tests for the binomial map
x -> a*x + x^(3q-2) on F_{q^2}.

Two independent permutation tests are provided; both stop once the answer
is known:

- ``brute_pp_test``: the ground truth, which uses no permutation
  criterion.  It scans the first period of points in the log domain, one
  Zech lookup each (the period-of-the-scan lemma).
- ``hermite_pp_test``: the reduced power-sum criterion.  The map permutes
  F_{q^2} iff 0 is its only root and S_q(alpha, a) = 0 for all
  0 <= alpha <= q-1, as only the power sums of s = alpha + (q-1-alpha)q
  can be nonzero.  Each S_q is summed in the log domain by the kernel of
  ``s_q``, over the list that ``_s_q_terms`` builds (the no-carry lemma).

Both, and the root test ``has_nonzero_root``, read a only through its class
log a mod (q^2-1)/P, P = ``period(q)`` (the scaling lemma).  One cache,
``_field_table``, holds the current field's term lists, a slot per alpha,
and the Hermite verdicts by class.
"""

from __future__ import annotations

import functools
import itertools
import math

from permbinom.ffield import FieldCtx


class PreconditionViolated(ValueError):
    """Raised when an operation's hypothesis on (q, a) does not hold."""


@functools.lru_cache(maxsize=None)  # read on every decider call; one int per q
def period(q: int) -> int:
    """P = (q+1)/gcd(3, q+1), the size of a class of a.

    Scaling lemma.  f_a(lx) = l^(3q-2) * f_b(x) with b = a * l^(3-3q), for
    f_a(x) = a*x + x^(3q-2), and x -> lx permutes F_{q^2}, so f_a and f_b
    permute together (the first step of Zieve's x*h(x^(q-1)) form, IJNT
    2009).  The powers l^(3-3q) form the subgroup of index
    M = gcd(3(q-1), q^2-1) = (q-1)*gcd(3, q+1) = (q^2-1)/P, so PP status
    depends on a only through its class, key = log a mod M, of P elements.
    """
    return (q + 1) // math.gcd(3, q + 1)


def interval_census(q: int, alpha: int) -> range:
    """All l with l*(q+1) in [2*alpha+2-3q, 2*alpha-1], ascending.

    The paper displays the interval's upper end as alpha - 1, but the range
    of -alpha-1+3(i-j) over valid (i, j) is [2*alpha+2-3q, 2*alpha-1];
    that working form is what the census (and all sums built on it) uses.
    """
    if not 0 <= alpha <= q - 1:
        raise PreconditionViolated(f"alpha = {alpha} out of range for q = {q}")
    lo, hi = 2 * alpha + 2 - 3 * q, 2 * alpha - 1
    return range(-(-lo // (q + 1)), hi // (q + 1) + 1)  # ceil(lo/(q+1)) to floor(hi/(q+1))


@functools.lru_cache(maxsize=8)
def _factorials(p: int) -> tuple:
    """n! and 1/n! mod p for 0 <= n < p: C(n, k) = f[n] * g[k] * g[n-k] mod
    p for the digit binomials of ``_s_q_terms``, with no big-int comb."""
    f = list(itertools.accumulate(range(1, p), lambda x, n: x * n % p, initial=1))
    return f, [pow(x, -1, p) for x in f]


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
    so i ascends within each d, as in a scan of i.  Not cached itself: its
    lists are kept in the slots of ``_field_table``."""
    order, comp = q * q - 1, q - 1 - alpha
    f, g = _factorials(p)
    terms = []
    for l in interval_census(q, alpha):
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
def _field_table(p: int, q: int) -> tuple:
    """The one cache over term lists: q slots, slot alpha holding
    ``_s_q_terms(p, q, alpha)`` once built and None before, then
    ``hermite_pp_test``'s verdicts by class key.  Keyed on ints, so it
    keeps no field's tables alive, and it holds one field: a sweep keeps no
    list of a field it has left.  A build cut by an exception leaves its
    slot None, and a cut walk stores no verdict."""
    return [None] * q, {}


def _nonempty(slots: list, p: int, q: int):
    """The nonempty term lists of (p, q) in alpha order, each slot built
    when the walk first reaches it."""
    for alpha, terms in enumerate(slots):
        if terms is None:
            terms = slots[alpha] = _s_q_terms(p, q, alpha)
        if terms:
            yield terms


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
    multiple of q+1.  The a-free term list is read from its slot of
    ``_field_table``, built there on first use, and summed in the log
    domain by ``_log_sum``.  Stored without the leading minus sign of the
    power-sum identity (checked against ``power_sum`` in tests/oracles.py).
    """
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    p, q, log = ctx.p, ctx.q, ctx._log
    if not 0 <= alpha < q:  # a negative alpha would index a slot from the end
        raise PreconditionViolated(f"alpha = {alpha} out of range for q = {q}")
    slots = _field_table(p, q)[0]
    terms = slots[alpha]
    if terms is None:
        terms = slots[alpha] = _s_q_terms(p, q, alpha)
    total = _log_sum(terms, log[a], log, ctx._zech, ctx.q2 - 1)
    return 0 if total < 0 else ctx._exp[total]


def has_nonzero_root(ctx: FieldCtx, a: int) -> bool:
    """True iff a*x + x^(3q-2) vanishes at some x != 0.

    Closed form: (-a)^P = 1, P = ``period(q)``.  For x != 0 the map is
    x*(a + y^3) with y = x^(q-1), and x -> x^(q-1) sends F_{q^2}^* onto the
    cyclic group mu_{q+1} (Zieve's form, see ``period``).  So a nonzero root
    exists iff -a is the cube of some y in mu_{q+1}.  Those cubes are the
    subgroup of order P, and a cyclic group has one subgroup of each order:
    the elements z with z^P = 1.  P is even when q is odd, and -1 = 1 when
    q is even, so -a may be replaced by a, and the test is one product of
    log a: P * log a = 0 mod q^2-1, that is, a's class is 0.
    """
    return ctx._log[a] * period(ctx.q) % (ctx.q2 - 1) == 0


def brute_pp_test(ctx: FieldCtx, a: int) -> bool:
    """Ground truth: does the map hit all q^2 values?

    Every nonzero x = g^k is placed in the log domain: with la = log a,
    f(x) = g^(la+k) * (1 + g^z_k) for z_k = (3q-3)k - la, so log f(x) is
    la + k + Zech(z_k), and f(x) = 0 where Zech(z_k) is undefined.  As
    f(0) = 0, the map permutes F_{q^2} iff no nonzero x maps to 0 and the
    m = q^2 - 1 image logs are distinct mod m.  Both are decided from the
    first P = ``period(q)`` points, with no permutation criterion:

    1. Period of the scan.  (3q-3)P = 3m/gcd(3, q+1) is a multiple of m, so
       z_k has period P: f(g^(k+P)) = 0 iff f(g^k) = 0, and
       log f(g^(k+P)) = log f(g^k) + P mod m.  So any nonzero root shows up
       among k = 0, ..., P-1, and block j, the image logs of
       k = jP, ..., jP+P-1, is block 0 shifted by jP mod m.
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
    step, z, n = 3 * q - 3, -la % m, period(q)
    seen = bytearray(n)
    for t in range(la, la + n):  # the log of a*x, unreduced
        s = zech[z]
        if s < 0:
            return False
        r = (t + s) % n
        if seen[r]:
            return False
        seen[r] = 1
        z += step
        if z >= m:
            z -= m
    return True


def hermite_pp_test(ctx: FieldCtx, a: int) -> bool:
    """Reduced power-sum permutation test, decided once per class.

    0 is the only root iff key != 0, for key = log a mod (q^2-1)/P (the
    closed form of ``has_nonzero_root``).  No case is assumed impossible a
    priori: for 3 not dividing q+1 the sums are still computed whenever 0
    is the only root, so the divisibility necessity is observed, not
    hard-coded.  The sums run in alpha order through ``_log_sum`` over the
    nonempty slots of ``_field_table``, built only as far as the first
    nonzero sum, which decides.

    Classes.  A term has i - j = d, 3d = alpha+1 + l(q+1) and k = -i(q+1) + dq
    = -d mod q+1, so d = (alpha+1)/3 mod P if 3 | q+1, else d = (alpha+1)*3^-1
    mod P = q+1: all k of one list are -d mod P, and S_q(alpha, a) is a^k times
    a sum in a^P, fixed by the key.  The first a of a class is decided, its
    verdict stored once complete, and every later a reads it.
    """
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    log, zech, m, q = ctx._log, ctx._zech, ctx.q2 - 1, ctx.q
    la = log[a]
    slots, verdicts = _field_table(ctx.p, q)
    key = la % (m // period(q))
    if key not in verdicts:
        verdicts[key] = key != 0 and all(
            _log_sum(terms, la, log, zech, m) < 0 for terms in _nonempty(slots, ctx.p, q))
    return verdicts[key]
