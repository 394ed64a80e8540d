"""Slow reference computations that only the tests use: the encoding of a
coefficient vector, addition and negation digit by digit, multiplication of
coefficient polynomials modulo the field's modulus, the generator's powers
by Horner's rule on its digits, the reducible monic polynomials over F_p
as every product of two monic factors, the point-by-point brute-force scan
of the binomial map, its literal power sums, the Lemma 3.1 power-sum
profile, the partition of the units by a^((q+1)/3), the sweep with every
(q, a) decided on its own, the copy of F_q inside F_{q^2},
S_q(alpha, a) with its terms rebuilt on every call and added by
``FieldCtx.add``, C(m, k) mod p as Lucas's product of digit binomials,
exact integer polynomial evaluation, the bracket
polynomial and g_alpha in Fractions with a long division over Q, and the
resultant by the fraction-free subresultant sequence with a
pseudo-remainder and a division per coefficient.  Each is a direct
computation, kept apart from the library so that it checks the library
independently."""

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from permbinom.classify import PPVerdict, _factor_prime_power, classify, prime_powers
from permbinom.ffield import FieldCtx, is_primitive_cube_root, make_field
from permbinom.hermite import BinomialMap, PreconditionViolated, interval_census
from permbinom.symalg import NotDivisible, fp_mod, fp_trim, poly_degree, poly_mul


def oracle_add(ctx: FieldCtx, a: int, b: int) -> int:
    """a + b by adding base-p digits mod p (``FieldCtx.add``'s oracle)."""
    p = ctx.p
    v, mult = 0, 1
    while a or b:
        v += (a % p + b % p) % p * mult
        a //= p
        b //= p
        mult *= p
    return v


def oracle_neg(ctx: FieldCtx, a: int) -> int:
    """-a by negating base-p digits mod p; the library has no negation of
    its own, so the tests negate with this."""
    p = ctx.p
    v, mult = 0, 1
    while a:
        v += (p - a % p) % p * mult
        a //= p
        mult *= p
    return v


def from_coeffs(ctx: FieldCtx, coeffs: Sequence[int]) -> int:
    """The encoding sum(c_k * p**k) of a coefficient vector, each c_k mod p."""
    v = 0
    for c in reversed(coeffs):
        v = v * ctx.p + c % ctx.p
    return v


def oracle_mul(ctx: FieldCtx, a: int, b: int) -> int:
    """a * b by multiplying coefficient polynomials mod the modulus (the
    oracle of the exp/log tables): ``symalg``'s schoolbook product, then its
    remainder, not ``ffield.fp_mulmod``, whose oracle this is too."""
    fa, fb = list(ctx.to_coeffs(a)), list(ctx.to_coeffs(b))
    return from_coeffs(ctx, fp_mod(poly_mul(fa, fb), ctx.modulus, ctx.p))


def oracle_generator_powers(ctx: FieldCtx) -> Iterator[int]:
    """g^0, ..., g^(q^2 - 2), each acc * g by Horner's rule on g's digits:
    r = g_top * acc, then r = x*r + g_k * acc, where x*r shifts the digits
    up and subtracts the top one times the modulus.  For p = 2 that is
    shifts and XORs on the encoding; odd p works on digits, encoded once.
    (``FieldCtx._generator_powers``'s oracle.)
    """
    p, n = ctx.p, ctx.n
    lead, *low = fp_trim(list(ctx.to_coeffs(ctx.generator)))[::-1]
    if p == 2:
        m, top, acc = from_coeffs(ctx, ctx.modulus), 1 << n, 1
        for _ in range(ctx.q2 - 1):
            yield acc
            r = acc
            for c in low:
                r <<= 1
                if r & top:
                    r ^= m
                if c:
                    r ^= acc
            acc = r
        return
    # wrap[t]: the digits of -t * (m - x^n), which a top digit t shifts into.
    wrap = [[-t * b % p for b in ctx.modulus[:n]] for t in range(p)]
    place = [p**k for k in range(n)]
    d = [1] + [0] * (n - 1)
    for _ in range(ctx.q2 - 1):
        yield sum(map(operator.mul, d, place))
        r = d if lead == 1 else [lead * v % p for v in d]
        for c in low:
            r = [(s + t + c * v) % p for s, t, v in zip((0, *r), wrap[r[-1]], d)]
        d = r


def reducible_monics(p: int, n: int) -> set:
    """The monic degree-n polynomials over F_p that are a product of two
    monic polynomials of positive degree, as little-endian coefficient
    tuples: every product with one factor of degree d <= n/2, multiplied out
    here (``ffield.is_irreducible``'s oracle)."""
    out = set()
    for d in range(1, n // 2 + 1):
        for f in itertools.product(range(p), repeat=d):
            for g in itertools.product(range(p), repeat=n - d):
                prod = [0] * (n + 1)
                for i, a in enumerate(f + (1,)):
                    for j, b in enumerate(g + (1,)):
                        prod[i + j] += a * b
                out.add(tuple(c % p for c in prod))
    return out


def poly_eval(f: Sequence[int], x: int) -> int:
    """f(x) over the integers, by Horner's rule (``eval_mod_p``'s oracle)."""
    r = 0
    for c in reversed(f):
        r = r * x + c
    return r


def poly_divmod_exact(f: Sequence, g: Sequence) -> list:
    """Quotient of f by g; raises NotDivisible unless the remainder vanishes.

    Exact over the rationals; when both inputs are integral and g is monic
    the quotient stays integral.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = fp_trim([Fraction(c) for c in f])
    quot = [Fraction(0)] * max(0, len(rem) - len(g) + 1)
    lead = Fraction(g[-1])
    while len(rem) >= len(g):
        c = rem[-1] / lead
        k = len(rem) - len(g)
        quot[k] = c
        for i, gi in enumerate(g):
            rem[k + i] -= c * gi
        rem.pop()
        fp_trim(rem)
    if rem:
        raise NotDivisible("remainder is not identically zero")
    out = fp_trim(quot)
    if all(c.denominator == 1 for c in out):
        return [int(c) for c in out]
    return out


def gen_binom(x, n: int) -> Fraction:
    """Falling-factorial binomial x(x-1)...(x-n+1)/n!, exact over Q."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = Fraction(1)
    x = Fraction(x)
    for k in range(n):
        r *= x - k
    return r / math.factorial(n)


def oracle_bracket(alpha: int) -> List[Fraction]:
    """B_alpha(v) summed term by term in Fractions (the oracle of
    ``g_poly``'s ``scaled`` = 3^d_alpha B_alpha); alpha must be 2 mod 3."""
    out = [Fraction(0)] * (3 * alpha + 3)
    for i in range(alpha + 1):
        sign_binom = (-1) ** i * math.comb(alpha, i)
        for l in range(3):
            out[3 * i + l] += sign_binom * gen_binom(
                Fraction(3 * i + 2 * alpha - 1 + l, 3), alpha
            )
    return out


def oracle_g(alpha: int) -> Tuple[int, Tuple[int, ...]]:
    """(d_alpha, g_alpha) from ``oracle_bracket``: the lcm of its
    denominators is 3^d_alpha, and g_alpha is the reversed quotient of
    3^d_alpha B_alpha by v^3 + v^2 + v (``g_poly``'s oracle)."""
    bracket = oracle_bracket(alpha)
    den_lcm = 1
    for c in bracket:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    d_alpha = 0
    while den_lcm % 3 == 0:
        den_lcm //= 3
        d_alpha += 1
    assert den_lcm == 1
    quotient = poly_divmod_exact([int(c * 3**d_alpha) for c in bracket], [0, 1, 1, 1])
    return d_alpha, tuple(reversed(quotient))


def _pseudo_rem(f: List[int], g: List[int]) -> List[int]:
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g over Z."""
    rem = list(f)
    lead = g[-1]
    steps = len(f) - len(g) + 1
    for _ in range(steps):
        if len(rem) < len(g):
            rem = [c * lead for c in rem]
            continue
        c = rem[-1]
        rem = [x * lead for x in rem]
        k = len(rem) - len(g)
        for i, gi in enumerate(g):
            rem[k + i] -= c * gi
        rem.pop()
        fp_trim(rem)
    return rem


def oracle_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant over Z via the fraction-free subresultant remainder sequence
    with the quotients taken by ``//`` (``symalg.resultant_z``'s oracle)."""
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
    g_, h = 1, 1
    while True:
        da, db = poly_degree(a), poly_degree(b)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        rem = _pseudo_rem(a, b)
        if not rem:
            return 0
        a = b
        divisor = g_ * h**delta
        b = [c // divisor for c in rem]
        g_ = a[-1]
        if delta > 0:
            h = g_**delta // h ** (delta - 1)
        if poly_degree(b) == 0:
            break
    da = poly_degree(a)
    return sign * b[0] ** da // h ** (da - 1)


def lucas_binom(p: int, m: int, k: int) -> int:
    """C(m, k) mod p by base-p digit products.

    Out-of-range k (k < 0 or k > m) gives 0, matching the starred convention
    of treating binomials at impossible indices as vanishing.
    """
    if k < 0 or k > m:
        return 0
    r = 1
    while m or k:
        mi, ki = m % p, k % p
        if ki > mi:
            return 0
        r = r * math.comb(mi, ki) % p
        m //= p
        k //= p
    return r


def s_q_terms_oracle(p: int, q: int, alpha: int) -> tuple:
    """The term list (c, k) of S_q(alpha, a) by the range scan that
    ``hermite._s_q_terms`` replaced: every i in each admissible interval is
    tried, with two ``lucas_binom`` calls each."""
    order = q * q - 1
    terms = []
    for l in interval_census(q, alpha).multiples:
        num = alpha + 1 + l * (q + 1)
        if num % 3:
            continue  # no (i, j) pair can satisfy the congruence
        d = num // 3
        i_lo = max(0, d)
        i_hi = min(alpha, q - 1 - alpha + d)
        for i in range(i_lo, i_hi + 1):
            j = i - d
            c = lucas_binom(p, alpha, i) * lucas_binom(p, q - 1 - alpha, j) % p
            if c:
                terms.append((c, (-i - j * q) % order))
    return tuple(terms)


def s_q_oracle(ctx: FieldCtx, a: int, alpha: int) -> int:
    """S_q(alpha, a) with the terms of ``s_q_terms_oracle`` rebuilt on every
    call and added one at a time by ``FieldCtx.add``: the per-call loop that
    ``hermite.s_q`` replaced by a cached term list summed as logs."""
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    total = 0
    for c, k in s_q_terms_oracle(ctx.p, ctx.q, alpha):
        total = ctx.add(total, ctx.mul(c, ctx.pow(a, k)))
    return total


def brute_scan_oracle(ctx: FieldCtx, a: int) -> bool:
    """The point-by-point scan that ``hermite.brute_pp_test`` replaced by a
    scan of one period for residues mod P: every x = g^k in turn, one Zech
    lookup each, with a byte per image log, returning at the first zero or
    repeated log."""
    if a == 0:
        raise PreconditionViolated("a must be nonzero")
    zech, m, la = ctx._zech, ctx.q2 - 1, ctx._log[a]
    step, z = 3 * ctx.q - 3, -la % m
    seen = bytearray(m)
    for t in itertools.chain(range(la, m), range(la)):  # the log of a*x
        s = zech[z]
        if s < 0:
            return False
        v = t + s
        if v >= m:
            v -= m
        if seen[v]:
            return False
        seen[v] = 1
        z += step
        if z >= m:
            z -= m
    return True


def image_logs(ctx: FieldCtx, a: int) -> List:
    """log f(g^k) for k = 0, ..., q^2 - 2, with None where f(g^k) = 0: the
    scan of ``brute_scan_oracle`` over every point, with no early return."""
    zech, m, la = ctx._zech, ctx.q2 - 1, ctx._log[a]
    step = 3 * ctx.q - 3
    logs = []
    for k in range(m):
        s = zech[(step * k - la) % m]
        logs.append(None if s < 0 else (la + k + s) % m)
    return logs


def power_sum(ctx: FieldCtx, a: int, s: int) -> int:
    """Sum of f(x)^s over all x in F_{q^2} (ground-truth oracle)."""
    tot = 0
    for fx in map(BinomialMap(ctx, a), ctx.units()):
        if fx:
            tot = ctx.add(tot, ctx.pow(fx, s))
    return tot


@dataclass(frozen=True)
class PowerSumProfile:
    """All reduced-index power sums of a fixed map, with the expected shape.

    When y = a^((q+1)/3) is a primitive cube root of unity, every entry must
    vanish except, for odd q, the single index s = (q^2-1)/2 whose value is
    a^(-(q+1)(3q-2)/6) * (1+y).  ``verdict`` records whether the computed
    entries match that shape exactly.
    """

    q: int
    a: int
    entries: Dict[int, int] = field(repr=False)
    expected_nonzero_index: int | None
    expected_nonzero_value: int | None
    verdict: bool


def lemma31_profile(ctx: FieldCtx, a: int) -> PowerSumProfile:
    """Reduced power-sum profile for a with y = a^((q+1)/3) a primitive cube root."""
    q = ctx.q
    if (q + 1) % 3:
        raise PreconditionViolated("q + 1 must be divisible by 3")
    y = ctx.pow(a, (q + 1) // 3)
    if not is_primitive_cube_root(ctx, y):
        raise PreconditionViolated("a^((q+1)/3) is not a primitive cube root of unity")
    entries = {}
    for alpha in range(q):
        s = alpha + (q - 1 - alpha) * q
        if s == 0:
            continue
        entries[s] = power_sum(ctx, a, s)
    if q % 2:
        idx = (q * q - 1) // 2
        val = ctx.mul(ctx.pow(a, -(q + 1) * (3 * q - 2) // 6), ctx.add(1, y))
    else:
        idx = val = None
    ok = all(v == 0 for s, v in entries.items() if s != idx)
    if idx is not None:
        ok = ok and entries.get(idx, 0) == val
    return PowerSumProfile(
        q=q,
        a=a,
        entries=entries,
        expected_nonzero_index=idx,
        expected_nonzero_value=val,
        verdict=ok,
    )


def coset_classes(ctx: FieldCtx) -> List[Tuple[int, ...]]:
    """Partition of the unit group by the value of a^((q+1)/3).

    Each class is a coset of the kernel of a -> a^((q+1)/3), of size
    (q+1)/3; the tests check that permutation status is constant on every
    class, which is the orbit lemma behind a representatives-only sweep.
    """
    q = ctx.q
    if (q + 1) % 3:
        raise ValueError("q + 1 must be divisible by 3")
    k = (q + 1) // 3
    buckets: Dict[int, List[int]] = {}
    for a in ctx.units():
        buckets.setdefault(ctx.pow(a, k), []).append(a)
    return [tuple(sorted(members)) for _, members in sorted(buckets.items())]


def sweep_per_pair(q_max: int, method: str) -> List[PPVerdict]:
    """The verdicts of ``classify.classify`` on every (q, a) with q a prime
    power <= q_max, each pair decided on its own, ascending in q then a
    (``classify.sweep``'s oracle: it decides once per class)."""
    verdicts = []
    for q in prime_powers(q_max):
        ctx = make_field(*_factor_prime_power(q))
        verdicts.extend(classify(ctx, a, method) for a in ctx.units())
    return verdicts


def subfield_q_members(ctx: FieldCtx) -> set:
    """The copy of F_q inside F_{q^2}: fixed points of z -> z^q."""
    q = ctx.q
    return {z for z in ctx.elements() if ctx.pow(z, q) == z or z == 0}
