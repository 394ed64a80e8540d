"""The bottom layer: integer and F_p[x] arithmetic, primes, and the
exact symbolic algebra of the elimination; it imports no other module of
the package.

Polynomials are dense little-endian lists of ints with no trailing zeros;
[] is the zero polynomial.  ``ffield`` builds F_{q^2} on the F_p[x]
helpers, and ``prime_factors`` and ``is_prime`` read the one factorizer,
``factor_trial``.  The rational bracket polynomial B_alpha(v) (the inner
sum of the closed form of S_q(alpha, a) for alpha = 2 mod 3) is kept as
the integers 3^d_alpha B_alpha.  The module extracts from them the integer
elimination polynomial g_alpha of degree 3*alpha - 1, and provides the
resultant / factorization / gcd-chain machinery consumed by the
classification pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple


class BadAlpha(ValueError):
    """Raised when alpha is not of the form 2 mod 3, alpha >= 2."""


class NotDivisible(ArithmeticError):
    """Raised when the exact-division step of g-extraction fails."""


class FractionalResidue(ArithmeticError):
    """Raised when bracket denominators are not a pure power of 3."""


class AllZero(ValueError):
    """Raised when every polynomial of a gcd chain reduces to 0 mod p."""


# ---------------------------------------------------------------------------
# Dense polynomial helpers
# ---------------------------------------------------------------------------


def poly_degree(f: Sequence[int]) -> int:
    return len(f) - 1


def fp_trim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f: Sequence[int], g: Sequence[int]) -> List[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return fp_trim(out)


def fp_mod(f: Sequence[int], m: Sequence[int], p: int) -> List[int]:
    """Remainder over F_p of f modulo m (m nonzero mod p)."""
    r = fp_trim([c % p for c in f])
    inv_lead = pow(m[-1], -1, p)
    while len(r) >= len(m):
        c = r[-1] * inv_lead % p
        if c:
            off = len(r) - len(m)
            for k in range(len(m)):
                r[off + k] = (r[off + k] - c * m[k]) % p
        r.pop()
        fp_trim(r)
    return r


def fp_gcd(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    """Monic gcd over F_p of the mod-p reductions of f and g, via Euclid."""
    a, b = fp_trim([c % p for c in f]), fp_trim([c % p for c in g])
    while b:
        a, b = b, fp_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


# ---------------------------------------------------------------------------
# The bracket polynomial
# ---------------------------------------------------------------------------


class GPolyRecord(NamedTuple):
    """The elimination polynomial g_alpha and its provenance.

    ``scaled`` is 3^d_alpha B_alpha, integral (and no smaller power of 3
    makes it so); its constant term vanishes, and dividing it by
    v(v^2+v+1) and reversing the quotient's coefficients at degree
    3*alpha - 1 gives ``g``.  ``q_bound`` = 2*alpha + 4 is the least q for
    which the closed form behind the bracket is valid.
    """

    alpha: int
    d_alpha: int
    scaled: Tuple[int, ...]
    g: Tuple[int, ...]
    q_bound: int

    def reconstruction_holds(self) -> bool:
        return poly_mul([0, 1, 1, 1], list(reversed(self.g))) == fp_trim(list(self.scaled))


def g_poly(alpha: int) -> GPolyRecord:
    """Generate g_alpha from the bracket polynomial B_alpha(v) of degree
    3*alpha + 2, the sum over i <= alpha, l <= 2 of (-1)^i C(alpha, i)
    gen_binom(i + (2*alpha - 1 + l)/3, alpha) v^(3i + l), where
    gen_binom(x, n) = x(x-1)...(x-n+1)/n!.

    The work is on integer numerators over the common denominator
    3^alpha alpha!: at j = 3i + l that gen_binom is prod(t - 3k for k <
    alpha) / (3^alpha alpha!), t = j + 2*alpha - 1.  3^d_alpha B_alpha is
    the numerators divided by their gcd with the denominator, whose
    quotient must be 3^d_alpha.
    """
    if alpha < 2 or alpha % 3 != 2:
        raise BadAlpha(f"alpha = {alpha} is not 2 mod 3 with alpha >= 2")
    nums = [(-1) ** (j // 3) * math.comb(alpha, j // 3)
            * math.prod(range(j + 2 * alpha - 1, j - alpha - 1, -3))
            for j in range(3 * alpha + 3)]
    den = 3**alpha * math.factorial(alpha)
    common = math.gcd(den, *nums)
    rest, d_alpha = den // common, 0
    while rest % 3 == 0:
        rest //= 3
        d_alpha += 1
    if rest != 1:
        raise FractionalResidue(f"bracket denominators of alpha={alpha} are not a pure "
                                f"power of 3: {den // common}")
    scaled = tuple(c // common for c in nums)
    # Synthetic division by v^3 + v^2 + v, from the top: afterwards s[k] for
    # k >= 3 is the quotient's coefficient of v^(k-3), and s[:3] the remainder.
    s = list(scaled)
    for k in range(len(s) - 1, 2, -1):
        s[k - 1] -= s[k]
        s[k - 2] -= s[k]
    quotient = fp_trim(s[3:])
    if any(s[:3]) or poly_degree(quotient) != 3 * alpha - 1 or quotient[0] == 0:
        raise NotDivisible(f"3^d B_{alpha} is not v(v^2+v+1) times a polynomial that "
                           f"reverses to degree {3 * alpha - 1}")
    record = GPolyRecord(
        alpha=alpha,
        d_alpha=d_alpha,
        scaled=scaled,
        g=tuple(reversed(quotient)),
        q_bound=2 * alpha + 4,
    )
    assert record.reconstruction_holds()
    return record


# ---------------------------------------------------------------------------
# Resultants, factorization and gcd chains
# ---------------------------------------------------------------------------


def _prem_div(a: List[int], b: List[int], d: int) -> List[int]:
    """The pseudo-remainder lc(b)^(delta+1) a mod b, divided by d, where
    delta = deg a - deg b.

    The pseudo-quotient Q comes from the top delta+1 coefficients of a, so
    coefficient j < deg b of the result is x_j = N_j / d with N_j =
    lc(b)^(delta+1) a_j - sum_k Q_k b_(j-k), at most delta+2 products.  In
    the subresultant sequence d, the part of g h^delta prime to 3, divides
    every N_j (Brown & Traub; see ``resultant_z``), so x_j is taken without
    a division (Jebelean): with d = 2^t u,
    u odd, and w = 1/u mod 2^(K+t) (by Newton's iteration, negated when
    d < 0), N_j w = 2^t x_j mod 2^(K+t), and its low K+t bits shifted right
    by t are x_j mod 2^K.  The bound: |N_j| < 2^bits, where bits is the
    largest sum of a product's factor bit lengths plus ceil(log2(delta+2)),
    and |d| >= 2^(bit_length(d)-1), so K = bits - bit_length(d) + 2 gives
    |x_j| < 2^(K-1), and x_j is the residue in [-2^(K-1), 2^(K-1)).  w is
    folded into lc(b)^(delta+1) and the Q_k, so each x_j costs delta+2
    multiplies, a mask and a shift.  Only the low K+t bits of u,
    lc(b)^(delta+1) and the Q_k are used: a Newton step that yields n bits
    of w reads only the low n bits of u, and lc(b)^(delta+1) and the Q_k
    are masked to K+t bits before w is folded in.
    """
    db, delta = len(b) - 1, len(a) - len(b)
    lead = b[-1]
    top = a[db:]
    quot = [0] * (delta + 1)
    for k in range(delta, -1, -1):
        c = top[k]
        quot[k] = c * lead**k
        for i in range(k):
            top[i] = top[i] * lead - (c * b[db + i - k] if db + i >= k else 0)
    scale = lead ** (delta + 1)
    bits = max(scale.bit_length() + max(x.bit_length() for x in a[:db]),
               max(q.bit_length() for q in quot) + max(x.bit_length() for x in b[:db]))
    bits += (delta + 1).bit_length()
    t = (d & -d).bit_length() - 1
    k_bits = max(bits - abs(d).bit_length() + 2, 1)
    mask = (1 << (k_bits + t)) - 1
    u, w, n = abs(d) >> t, 1, 1
    while n < k_bits + t:  # each step doubles the correct low bits of w
        n = min(2 * n, k_bits + t)
        low = (1 << n) - 1
        w = w * (2 - (u & low) * w) & low
    if d < 0:
        w = -w
    scale = (scale & mask) * w & mask
    quot = [(q & mask) * w & mask for q in quot]
    half, full = 1 << (k_bits - 1), 1 << k_bits
    out = []
    for j in range(db):
        s = scale * a[j]
        for k in range(min(j, delta) + 1):
            s -= quot[k] * b[j - k]
        x = (s & mask) >> t
        out.append(x - full if x >= half else x)
    return fp_trim(out)


def resultant_z(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant over Z via the fraction-free subresultant remainder sequence.

    Each remainder is S_(i+1) = prem(S_(i-1), S_i) / (g h^delta), an exact
    quotient (Brown & Traub, JACM 1971), with g = lc(S_i) and h updated to
    g^delta / h^(delta-1).  Each S_i is kept as 3^c_i T_i (the inputs with
    c = 0, each remainder with T_i not divisible by 3 as a polynomial), and
    g and h as 3^e times a part prime to 3 (g', h'), because the sequence's
    content is almost all a power of 3: the degree-10 subresultant of
    Res(g_26, g_29) has 10,900-bit coefficients and the content 3^2304
    (3,652 bits), and the resultant is -3^3047 times a 7,481-bit cofactor.
    Splitting the power off narrows the widest operand of ``_prem_div`` for
    that pair from 12,182 bits to 7,485.

    Exactness: prem(3^c A, 3^c' B) = 3^(c + (delta+1) c') prem(A, B), so
    with g h^delta = 3^v D', D' = g' h'^delta prime to 3,
    D' 3^v S_(i+1) = 3^(c_(i-1) + (delta+1) c_i) prem(T_(i-1), T_i).  D'
    divides the right side and is prime to 3, so it divides
    prem(T_(i-1), T_i) exactly, and ``_prem_div`` takes that quotient R.
    Then S_(i+1) = 3^(c_(i-1) + (delta+1) c_i - v) R, and R = 3^k T_(i+1),
    where k counts the 3s stripped from R.  h' is g'^delta // h'^(delta-1)
    by the same argument, and h's exponent is delta e_g - (delta-1) e_h.
    The last S is a remainder 3^c b0 with b0 prime to 3, so the resultant
    is 3^(c da - e_h (da-1)) b0^da / h'^(da-1), and the exponent is >= 0
    since the quotient is an integer whose factors b0 and h' are prime to
    3.  The sequence, and the resultant, are the same integers as with
    ``//``.
    """
    a = fp_trim([int(c) for c in f])
    b = fp_trim([int(c) for c in g])
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    if len(a) == 1:
        return a[0] ** poly_degree(b)
    if len(b) == 1:
        return b[0] ** poly_degree(a)
    sign = 1
    if len(a) < len(b):
        if (poly_degree(a) * poly_degree(b)) % 2:
            sign = -sign
        a, b = b, a
    ca = cb = e_g = e_h = 0
    g_ = h = 1
    while True:
        da, db = poly_degree(a), poly_degree(b)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        rem = _prem_div(a, b, g_ * h**delta)
        if not rem:
            return 0
        c = ca + (delta + 1) * cb - e_g - delta * e_h
        while all(x % 3 == 0 for x in rem):
            rem = [x // 3 for x in rem]
            c += 1
        a, b, ca, cb = b, rem, cb, c
        e_g, g_ = _multiplicity(a[-1], 3)
        e_g += ca
        if delta > 0:
            e_h, h = delta * e_g - (delta - 1) * e_h, g_**delta // h ** (delta - 1)
        if poly_degree(b) == 0:
            break
    da = poly_degree(a)
    return sign * 3 ** (cb * da - e_h * (da - 1)) * (b[0] ** da // h ** (da - 1))


class FactorResult(NamedTuple):
    """Trial-division factorization; ``complete`` is False when a cofactor
    above the proving range is left unfactored."""

    n: int
    factors: Dict[int, int]
    complete: bool
    cofactor: int = 1

    def reassemble(self) -> int:
        v = self.cofactor
        for p, m in self.factors.items():
            v *= p**m
        return v if self.n > 0 else -v


_SEGMENT = 1 << 14
# factor_trial's default bound: it certifies every n <= TRIAL_BOUND^2 = 10^12.
TRIAL_BOUND = 10**6


def _sieve(lo: int, hi: int) -> Iterator[int]:
    """The primes in [lo, hi), crossed out by the primes up to sqrt(hi)."""
    flags = bytearray([1]) * (hi - lo)
    for k in range(lo, min(hi, 2)):
        flags[k - lo] = 0
    root = math.isqrt(hi - 1)
    for p in _sieve(2, root + 1) if root >= 2 else ():
        start = max(p * p, -(-lo // p) * p) - lo
        flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return itertools.compress(range(lo, hi), flags)


@functools.lru_cache(maxsize=128)
def _segment_product(lo: int, hi: int) -> int:
    """The product of the primes in [lo, hi), built on first use as a
    balanced tree of pairwise multiplies (a running product would multiply
    its whole prefix by each small prime).  128 entries hold the 69
    segments up to the default bound 10^6; a larger bound cycles through
    the cache instead of growing it.
    """
    level = list(_sieve(lo, hi)) or [1]
    while len(level) > 1:
        level = list(map(operator.mul, level[::2], level[1::2])) + level[len(level) & ~1:]
    return level[0]


def _multiplicity(m: int, p: int) -> Tuple[int, int]:
    """(k, m / p^k) for the largest k with p^k | m.  Once p | m, the
    multiplicity of p^2 in m / p is found the same way, and one more
    division by p finds whether p divides what is left: m is divided by p,
    p^2, p^4, ... while they divide it, then by each once more on the way
    back, about 2*log2(k) divisions, not k."""
    quo, rem = divmod(m, p)
    if rem:
        return 0, m
    k, m = _multiplicity(quo, p * p)
    quo, rem = divmod(m, p)
    return (2 * k + 1, m) if rem else (2 * k + 2, quo)


def factor_trial(n: int, bound: int = TRIAL_BOUND) -> FactorResult:
    """Factor |n| by trial division by the primes up to ``bound``.

    The primes are taken in segments of 2^14 numbers, after segments that
    double from [0, 2^7) to [2^13, 2^14), so that a small n builds no
    product of primes it never reaches.  One gcd of the remaining cofactor
    m with the product of a segment's primes (cached per segment) tells
    whether any of them divides m.  Only then is the segment sieved again,
    and only the primes that divide that gcd are taken, in ascending order,
    while p <= bound and p^2 <= m, until the gcd is used up; each is divided
    out whole by ``_multiplicity``.

    A remaining cofactor c with c <= bound^2 is certified prime: a composite
    c would have a prime factor p <= sqrt(c) <= bound, and every such p has
    been tried and divided out.  Anything larger is reported unfactored
    with ``complete=False``.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    factors: Dict[int, int] = {}
    lo = 0
    while lo <= bound and lo * lo <= m:
        hi = lo + min(max(lo, 1 << 7), _SEGMENT)
        g = math.gcd(m, _segment_product(lo, hi))
        if g != 1:
            for p in _sieve(lo, hi):
                if g % p:
                    continue
                if p > bound or p * p > m:
                    break
                factors[p], m = _multiplicity(m, p)
                g //= p
                if g == 1:
                    break
        lo = hi
    if m == 1:
        return FactorResult(n=n, factors=factors, complete=True)
    if m <= bound * bound:
        factors[m] = factors.get(m, 0) + 1
        return FactorResult(n=n, factors=factors, complete=True)
    return FactorResult(n=n, factors=factors, complete=False, cofactor=m)


def prime_factors(n: int) -> List[int]:
    """The distinct prime factors of n >= 1, ascending, from ``factor_trial``.

    Every n <= 10^12 is factored completely; a larger n whose cofactor is
    left unfactored raises ValueError.
    """
    fact = factor_trial(n)
    if not fact.complete:
        raise ValueError(f"{n} has the cofactor {fact.cofactor} left unfactored")
    return list(fact.factors)


def is_prime(n: int) -> bool:
    """Primality from ``prime_factors``, certified for every n <= 10^12."""
    return n > 1 and prime_factors(n) == [n]


def gcd_mod_p(polys: Sequence[Sequence[int]], p: int) -> List[int]:
    """Monic gcd over F_p of the mod-p reductions of integer polynomials.
    Once the gcd is 1 it stays 1, so the inputs after that are not reduced."""
    acc: List[int] = functools.reduce(
        lambda acc, f: acc if acc == [1] else fp_gcd(acc, f, p), polys, [])
    if not acc:
        raise AllZero(f"all polynomials vanish mod {p}")
    return acc


def eval_mod_p(f: Sequence[int], x: int, p: int) -> int:
    """Horner evaluation of f at x, mod p."""
    r = 0
    for c in reversed(f):
        r = (r * x + c) % p
    return r


def roots_mod_p(f: Sequence[int], p: int) -> Tuple[int, ...]:
    """The distinct roots of f in F_p, ascending: none for a nonzero constant,
    -f_0/f_1 for a linear f, and a scan of every residue otherwise."""
    f = fp_trim([c % p for c in f])
    if len(f) == 1:
        return ()
    if len(f) == 2:
        return (-f[0] * pow(f[1], -1, p) % p,)
    return tuple(r for r in range(p) if eval_mod_p(f, r, p) == 0)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def poly_str(f: Sequence[int], var: str = "y") -> str:
    """Compact human form, descending: 2y^5+3y^4-23y^3-8y^2-9y+44."""
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c:
            x = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            mag = "" if x and abs(c) == 1 else str(abs(c))
            parts.append(("-" if c < 0 else "+" if parts else "") + mag + x)
    return "".join(parts) or "0"
