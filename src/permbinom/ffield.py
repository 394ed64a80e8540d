"""The quadratic-over-F_q extension F_{q^2}, built on ``symalg``'s F_p[x]
arithmetic and primes.

Field elements are plain Python ints: the element with coefficient vector
(c_0, c_1, ..., c_{n-1}) over F_p (little-endian, c_k multiplies x^k) is
encoded as the base-p integer sum(c_k * p**k).  This makes the whole field
enumerable as range(p**n) and gives a stable, compact serialization (the
decimal form of the encoding).

Every field carries three int32 tables over a generator g: exp[k] = g^k,
log[x] (-1 at x = 0) and the Zech table zech[k] = log(1 + g^k) (-1 where
g^k = -1).  Multiplication and powers are log/exp lookups, and a + b =
a * (1 + b/a) is one Zech lookup, for every p.  exp takes two lookups per
power: multiplying by g is F_p-linear, so g * (lo + q*hi) is the digit-wise
sum of two q-entry tables, the F_p-spans of the columns g*x^k mod m for
k < e and for e <= k < 2e.

Polynomials over F_p (``FpPoly``) are ``symalg``'s little-endian lists,
here of residues mod p.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List

from permbinom.symalg import fp_gcd, fp_mod, fp_trim, is_prime, prime_factors

# Hard bound on field size accepted by make_field.  Every accepted field is
# tabled: exp, log and Zech hold 12 bytes per element, 192 MiB at the bound.
DEFAULT_SIZE_BOUND = 2**24


class NonPrimeP(ValueError):
    """Raised when the requested characteristic is not prime."""


class SizeExceeded(ValueError):
    """Raised when a requested field or sweep exceeds its size bound."""


class ZeroInverse(ZeroDivisionError):
    """Raised when a negative power of zero is requested."""


# ---------------------------------------------------------------------------
# FpPoly helpers (little-endian coefficient lists over F_p)
# ---------------------------------------------------------------------------

FpPoly = List[int]


def fp_mulmod(f: FpPoly, g: FpPoly, m: FpPoly, p: int) -> FpPoly:
    """f * g mod m over F_p; m must be monic.  The product is summed over the
    integers and reduced from the top, and each of its deg m low coefficients
    is taken mod p once, at the end."""
    n = len(m) - 1
    out = [0] * max(n, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    for k in reversed(range(n, len(out))):
        if c := out[k]:
            for j, b in enumerate(m, k - n):
                out[j] -= c * b
    return fp_trim([c % p for c in out[:n]])


def fp_powmod(f: FpPoly, k: int, m: FpPoly, p: int) -> FpPoly:
    """f^k mod m over F_p (k >= 0, deg m >= 1), left to right: b - 1
    squarings and w - 1 products by f for a k of b bits and weight w.  Ben-Or's
    x^p steps and the generator search, which runs before the tables exist."""
    if k < 2:
        return fp_mod(f, m, p) if k else [1]
    out = f
    for bit in bin(k)[3:]:
        out = fp_mulmod(out, out, m, p)
        if bit == "1":
            out = fp_mulmod(out, f, m, p)
    return out


def _sub_x(f: FpPoly) -> FpPoly:
    """f(x) - x, left for fp_gcd to reduce mod p."""
    return [c - (k == 1) for k, c in enumerate(f + [0, 0])]


def is_irreducible(m: FpPoly, p: int) -> bool:
    """Ben-Or's test for a monic m of degree n over F_p: m is irreducible iff
    n >= 1 and gcd(x^(p^i) - x, m) = 1 for i = 1..n/2, since x^(p^i) - x is
    the product of the monic irreducibles of degree dividing i.  One Frobenius
    chain y = x^(p^i) mod m, stopped at the first factor of small degree."""
    y = [0, 1]
    for _ in range((len(m) - 1) // 2):
        y = fp_powmod(y, p, m, p)
        if len(fp_gcd(_sub_x(y), m, p)) > 1:
            return False
    return len(m) > 1


def _digits(a: int, p: int, n: int) -> List[int]:
    """The n lowest base-p digits of a, little-endian."""
    out = []
    for _ in range(n):
        a, d = divmod(a, p)
        out.append(d)
    return out


def canonical_modulus(p: int, n: int) -> List[int]:
    """First irreducible monic degree-n polynomial over F_p.

    Candidates are ordered by the base-p integer value of their lower
    coefficient vector, so the choice is reproducible across runs.  For
    n >= 2, a candidate with a root at 0 (m[0] = 0) or at 1 (sum(m) = 0
    mod p) has a linear factor, and is skipped before Ben-Or's test.
    """
    for c in range(p**n):
        m = _digits(c, p, n) + [1]
        if (n == 1 or m[0] and sum(m) % p) and is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible monic polynomial of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# The extension field F_{q^2}
# ---------------------------------------------------------------------------


class FieldCtx:
    """Immutable construction of F_{q^2} = F_p[x]/(m(x)), q = p^e, deg m = 2e.

    Elements are ints in range(q2) encoding base-p coefficient vectors.
    Identical (p, e) always yields identical contexts: the modulus is the
    canonical (first-in-enumeration) irreducible polynomial and the stored
    generator is the smallest-encoding generator of the unit group.
    """

    __slots__ = ("p", "e", "n", "q", "q2", "modulus", "generator", "_exp", "_log", "_zech")

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ValueError("e must be >= 1")
        n = 2 * e
        # The bound comes first, so p^n stays small and p is far inside the
        # range that is_prime certifies; p < 2 falls through to the primality test.
        if p > 1 and (n >= DEFAULT_SIZE_BOUND.bit_length() or p**n > DEFAULT_SIZE_BOUND):
            raise SizeExceeded(f"p^(2e) with p = {p}, e = {e} exceeds the size bound "
                               f"{DEFAULT_SIZE_BOUND}")
        if not is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.q = p**e
        self.q2 = p**n
        self.modulus = tuple(canonical_modulus(p, n))
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        """The smallest-encoding generator g, then exp, log and Zech.  g is
        found on coefficient lists: it has order q^2 - 1 iff g^((q^2-1)/r)
        is not 1 for each prime r dividing q^2 - 1.  The search starts at p,
        since every constant has order dividing p - 1 < q^2 - 1."""
        order, m = self.q2 - 1, list(self.modulus)
        cofactors = [order // r for r in prime_factors(order)]
        self.generator = next(
            g for g in range(self.p, self.q2)
            if all(fp_powmod(list(self.to_coeffs(g)), k, m, self.p) != [1] for k in cofactors))
        self._exp, self._log = self._generator_powers()
        # 1 + x changes only digit 0 of x; for x = -1 it is 0, whose log is -1.
        log, p = self._log, self.p
        self._zech = array("i", (log[x - x % p + (x + 1) % p] for x in self._exp))

    def _generator_powers(self) -> tuple:
        """exp and log as int32 arrays: g^0, ..., g^(q^2 - 2), and log[g^i] =
        i (-1 at 0), written as the walk steps.  v = lo + q*hi with
        lo, hi < q, and g*v is the digit-wise sum of low[lo] = g*lo and
        high[hi] = g*x^e*hi, held in radix r: r = 2 for p = 2, where the sum
        is an XOR, and r = 2p - 1 > 2(p - 1) for odd p, where it is one int
        add with no carry between digits, and ``norm`` maps either half's e
        digits to its encoding mod p.

        Multiplying by g is F_p-linear, so low and high are the F_p-spans of
        the columns g*x^k mod m for k < e and for e <= k < 2e; each column is
        the last shifted up and reduced by the monic m.  A table is filled one
        output digit j at a time: digit j of the combination with index
        sum(d_k * p^k) is sum(d_k * column_k[j]) mod p, listed in index order
        one column at a time.  No polynomial is multiplied.
        """
        p, e, n, q = self.p, self.e, self.n, self.q
        r = 2 if p == 2 else 2 * p - 1
        col, cols = _digits(self.generator, p, n), []
        for _ in range(n):  # x * col mod m: shift up, subtract the top digit times m
            cols.append(col)
            col = [(a - col[-1] * b) % p for a, b in zip([0] + col, self.modulus[:n])]
        low, high = [0] * q, [0] * q
        for tab, span in (low, cols[:e]), (high, cols[e:]):
            for j, digits in enumerate(zip(*span)):
                dig, w = [0], r**j
                for c in digits:
                    dig = [(v + d * c) % p for d in range(p) for v in dig]
                tab[:] = [t + v * w for t, v in zip(tab, dig)]
        exp, log = array("i", [1]) * (self.q2 - 1), array("i", [-1]) * self.q2
        log[1], acc, mask = 0, 1, q - 1  # log[g^0]; the walk writes the rest
        if p == 2:
            for i in range(1, self.q2 - 1):
                exp[i] = acc = low[acc & mask] ^ high[acc >> e]
                log[acc] = i
            return exp, log
        norm = array("i", [0])
        for k in range(e):
            norm = array("i", (v + d % p * p**k for d in range(r) for v in norm))
        half, lo, hi = r**e, 1, 0
        for i in range(1, self.q2 - 1):
            s = low[lo] + high[hi]
            lo, hi = norm[s % half], norm[s // half]
            exp[i] = acc = lo + q * hi
            log[acc] = i
        return exp, log

    # -- identity --------------------------------------------------------------

    def descriptor(self) -> str:
        """The "p^e" text form of the base field F_q."""
        return f"{self.p}^{self.e}"

    # -- encoding --------------------------------------------------------------

    def to_coeffs(self, a: int) -> tuple:
        return tuple(_digits(a, self.p, self.n))

    def scalar(self, c: int) -> int:
        """The constant-polynomial element with value c mod p."""
        return c % self.p

    def elements(self) -> Iterator[int]:
        return iter(range(self.q2))

    def units(self) -> Iterator[int]:
        return iter(range(1, self.q2))

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b = a * (1 + b/a): one Zech lookup."""
        if a == 0:
            return b
        if b == 0:
            return a
        order, la = self.q2 - 1, self._log[a]
        z = self._zech[(self._log[b] - la) % order]
        return 0 if z < 0 else self._exp[(la + z) % order]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q2 - 1)]

    def pow(self, a: int, k: int) -> int:
        """a^k; negative k means the inverse power a^(k mod (q^2 - 1))."""
        if a == 0:
            if k < 0:
                raise ZeroInverse("negative power of zero")
            return 1 if k == 0 else 0
        return self._exp[self._log[a] * k % (self.q2 - 1)]


def make_field(p: int, e: int) -> FieldCtx:
    """Canonical context for F_{q^2}, q = p^e."""
    return FieldCtx(p, e)


def is_primitive_cube_root(ctx: FieldCtx, y: int) -> bool:
    """True iff y^2 + y + 1 = 0: y != 0 and 1 + y = -y^2, one Zech lookup
    against log(-1) + 2 log y, where -1 encodes as p - 1."""
    ly = ctx._log[y]
    return y != 0 and ctx._zech[ly] == (ctx._log[ctx.p - 1] + 2 * ly) % (ctx.q2 - 1)
