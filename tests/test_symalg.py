import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permbinom import symalg
from permbinom.cli import _poly_json
from permbinom.ffield import make_field
from permbinom.hermite import s_q
from permbinom.symalg import (
    BadAlpha,
    FactorResult,
    NotDivisible,
    eval_mod_p,
    factor_trial,
    fp_trim,
    g_poly,
    gcd_mod_p,
    is_prime,
    poly_mul,
    poly_str,
    prime_factors,
    resultant_z,
    roots_mod_p,
)

from conftest import sylvester_resultant
from oracles import (
    gen_binom,
    oracle_bracket,
    oracle_g,
    oracle_neg,
    oracle_resultant,
    poly_divmod_exact,
    poly_eval,
)
from printed_polynomials import G2, G5, G8, G11, G14, PRINTED_D

FIXTURES = {2: G2, 5: G5, 8: G8, 11: G11, 14: G14}
RESULTANT_SHA256 = json.loads(
    (Path(__file__).parents[1] / "bench" / "golden.json").read_text(encoding="utf-8")
)["elimination"]["resultant_sha256"]


class TestGenBinom:
    def test_integer_arguments_match_comb(self):
        import math

        for x in range(10):
            for n in range(10):
                assert gen_binom(x, n) == math.comb(x, n) if x >= n else True

    def test_rational_example(self):
        assert gen_binom(Fraction(4, 3), 2) == Fraction(2, 9)

    def test_negative_upper_index(self):
        assert gen_binom(-1, 3) == -1
        assert gen_binom(Fraction(-1, 2), 2) == Fraction(3, 8)

    def test_n_zero(self):
        assert gen_binom(Fraction(7, 5), 0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gen_binom(1, -1)


class TestBracket:
    """The bracket B_alpha as g_poly keeps it: the integers 3^d_alpha B_alpha."""

    def test_alpha2_scaled_coefficients(self):
        # 9 * B_2(v) has the integer coefficient vector below (ascending)
        rec = g_poly(2)
        assert rec.d_alpha == 2
        assert list(rec.scaled) == [0, 2, 5, -18, -28, -40, 27, 35, 44]

    def test_constant_term_vanishes(self):
        for alpha in (2, 5, 8, 11, 14):
            assert g_poly(alpha).scaled[0] == 0

    def test_degree(self):
        for alpha in (2, 5, 8):
            assert len(g_poly(alpha).scaled) == 3 * alpha + 3
            assert g_poly(alpha).scaled[-1] != 0

    @pytest.mark.parametrize("alpha", [0, 1, 3, 4, -1, 6])
    def test_bad_alpha(self, alpha):
        with pytest.raises(BadAlpha):
            g_poly(alpha)


class TestGPoly:
    @pytest.mark.parametrize("alpha", sorted(FIXTURES))
    def test_matches_frozen_fixture(self, alpha):
        rec = g_poly(alpha)
        assert list(rec.g) == FIXTURES[alpha]

    def test_three_power_exponents(self):
        assert {a: g_poly(a).d_alpha for a in sorted(FIXTURES)} == PRINTED_D

    @pytest.mark.parametrize("alpha", sorted(FIXTURES))
    def test_reconstruction_identity(self, alpha):
        # 3^d * B(v) == v(v^2+v+1) * reverse(g)
        rec = g_poly(alpha)
        assert rec.reconstruction_holds()
        rebuilt = poly_mul([0, 1, 1, 1], list(reversed(rec.g)))
        assert rebuilt == list(rec.scaled)

    @pytest.mark.parametrize("alpha", [2, 5, 8, 11, 14, 17, 20])
    def test_degree_and_leading_sign(self, alpha):
        rec = g_poly(alpha)
        assert len(rec.g) == 3 * alpha  # degree 3*alpha - 1
        # leading coefficient alternates in sign with (alpha - 2)/3
        assert (rec.g[-1] > 0) == ((alpha - 2) // 3 % 2 == 0)
        assert rec.q_bound == 2 * alpha + 4

    @pytest.mark.parametrize("alpha", range(2, 63, 3))
    def test_matches_fraction_oracle(self, alpha):
        # The integer numerators against B_alpha summed in Fractions and g_alpha
        # by long division over Q.
        rec = g_poly(alpha)
        assert [Fraction(c, 3**rec.d_alpha) for c in rec.scaled] == oracle_bracket(alpha)
        assert (rec.d_alpha, rec.g) == oracle_g(alpha)

    def test_alpha17_and_20_denominators_are_pure_powers_of_3(self):
        # the generation path raises FractionalResidue if not
        assert g_poly(17).d_alpha > 0
        assert g_poly(20).d_alpha > 0


class TestNumericBridge:
    """S_q(alpha, a) = (-a)^((alpha+1)q/3) yh^(-3a-2) (yh^2+yh+1) 3^(-d) g(yh)
    with yh = a^(q(q+1)/3), for every nonzero a once q >= 2*alpha + 4."""

    QS = {8: (2, 3), 11: (11, 1), 17: (17, 1), 23: (23, 1), 29: (29, 1), 32: (2, 5)}

    def check(self, ctx, rec, a):
        q = ctx.q
        alpha = rec.alpha
        yh = ctx.pow(a, q * (q + 1) // 3)
        lhs = s_q(ctx, a, alpha)
        pre = ctx.pow(oracle_neg(ctx, a), (alpha + 1) * q // 3)
        quad = ctx.add(ctx.add(ctx.mul(yh, yh), yh), 1)
        gval = 0
        for c in reversed(rec.g):
            gval = ctx.add(ctx.mul(gval, yh), ctx.scalar(c))
        inv3d = ctx.pow(ctx.scalar(3), -rec.d_alpha)
        rhs = ctx.mul(
            ctx.mul(ctx.mul(pre, ctx.pow(yh, -3 * alpha - 2)), quad),
            ctx.mul(inv3d, gval),
        )
        return lhs == rhs

    @pytest.mark.parametrize("q", sorted(QS))
    def test_sampled_a(self, q):
        ctx = make_field(*self.QS[q])
        rng = random.Random(q * 31 + 7)
        for alpha in sorted(FIXTURES):
            if q < 2 * alpha + 4:
                continue
            rec = g_poly(alpha)
            samples = set(rng.randrange(1, ctx.q2) for _ in range(50))
            for a in samples:
                assert self.check(ctx, rec, a), (q, alpha, a)

    def test_exhaustive_q8_alpha2(self):
        ctx = make_field(2, 3)
        rec = g_poly(2)
        for a in ctx.units():
            assert self.check(ctx, rec, a)

    def test_below_threshold_not_claimed(self):
        # q = 5 < 2*2+4: the closed form is out of scope and indeed breaks
        ctx = make_field(5, 1)
        rec = g_poly(2)
        assert not all(self.check(ctx, rec, a) for a in ctx.units())


class TestResultant:
    def test_linear_pair(self):
        assert resultant_z([-1, 1], [1, 1]) == 2

    def test_against_sylvester_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            f = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 7))]
            g = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 7))]
            f[-1] = f[-1] or 1
            g[-1] = g[-1] or 1
            assert resultant_z(f, g) == sylvester_resultant(f, g), (f, g)

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(6)
        for _ in range(10):
            f = [rng.randrange(-5, 6) for _ in range(3)]
            g = [rng.randrange(-5, 6) for _ in range(4)]
            h = [rng.randrange(-5, 6) for _ in range(3)]
            f[-1] = f[-1] or 1
            g[-1] = g[-1] or 1
            h[-1] = h[-1] or 1
            assert resultant_z(poly_mul(f, g), h) == resultant_z(f, h) * resultant_z(g, h)

    def test_common_root_gives_zero(self):
        f = poly_mul([-3, 1], [1, 1, 1])
        g = poly_mul([-3, 1], [2, 1])
        assert resultant_z(f, g) == 0

    def test_g2_g5_value(self):
        # magnitude 2^5 3^35 17^2 23 29 103 16069; the Sylvester determinant
        # itself is negative
        r = resultant_z(G2, G5)
        assert r == sylvester_resultant(G2, G5)
        assert r < 0
        assert abs(r) == 2**5 * 3**35 * 17**2 * 23 * 29 * 103 * 16069

    def test_swap_sign_rule(self):
        f, g = [1, 2, 1, 3], [4, 1, 5]
        dfg = resultant_z(f, g)
        assert resultant_z(g, f) == (-1) ** (3 * 2) * dfg

    @pytest.mark.parametrize("pair", sorted(RESULTANT_SHA256, key=lambda k: int(k.split(",")[0])))
    def test_g_alpha_pairs_match_oracle_and_digest(self, pair):
        # (g_alpha, g_alpha+3) for alpha = 2, 5, ..., 26: Res(g_26, g_29) has
        # 12,311 bits.  The digests are the benchmark's recorded answers.
        left, right = (int(x) for x in pair.split(","))
        f, g = list(g_poly(left).g), list(g_poly(right).g)
        r = resultant_z(f, g)
        assert r == oracle_resultant(f, g)
        assert hashlib.sha256(str(r).encode()).hexdigest() == RESULTANT_SHA256[pair]

    @staticmethod
    def remainder_chain(rng, degrees, bits, lead=None):
        """f, g whose remainder sequence over Q has the given degrees, built
        from the last remainder up as p_i = Q_i p_(i+1) + p_(i+2), with
        coefficients of about ``bits`` bits.  Leading coefficients are odd
        or even, positive or negative, or drawn by ``lead(rng)`` if given."""
        def rand(deg):
            top = lead(rng) if lead else (
                rng.choice([-1, 1]) * rng.choice([1, 2, 6, 1 << 40]) * (rng.randrange(1 << bits) | 1))
            return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(deg)] + [top]

        later, last = rand(degrees[-2]), rand(degrees[-1])
        for deg in degrees[-3::-1]:
            prod = poly_mul(rand(deg - len(later) + 1), later)
            later, last = [x + (last[i] if i < len(last) else 0) for i, x in enumerate(prod)], later
        return later, last

    def test_seeded_big_pairs_match_oracles(self, monkeypatch):
        # A spy on _prem_div records that the divisor d = g h^delta was even
        # (t > 0) and negative, and that a degree gap delta >= 2 came after
        # the first step; every sixth pair has a common factor.
        seen = []
        kernel = symalg._prem_div

        def spy(a, b, d):
            seen.append((d, len(a) - len(b)))
            return kernel(a, b, d)

        monkeypatch.setattr(symalg, "_prem_div", spy)
        rng = random.Random(2024)
        zeros = small = gaps = 0
        for case in range(36):
            degrees = sorted(rng.sample(range(rng.choice([7, 14])), rng.randrange(3, 8)), reverse=True)
            f, g = self.remainder_chain(rng, degrees, rng.randrange(200, 2001) // (len(degrees) - 1))
            if case % 6 == 5:
                common = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(rng.randrange(2, 4))]
                f, g = poly_mul(f, common), poly_mul(g, common)
            start = len(seen)
            r = resultant_z(f, g)
            gaps += any(delta >= 2 for _, delta in seen[start + 1:])
            oracle = sylvester_resultant if max(len(f), len(g)) <= 7 else oracle_resultant
            assert r == oracle(f, g), (f, g)
            small += oracle is sylvester_resultant
            assert resultant_z(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * r
            zeros += r == 0
        assert zeros == 6 and small >= 10 and gaps >= 10
        assert any(d % 2 == 0 for d, _ in seen) and any(d < 0 for d, _ in seen)
        # Dense pairs have normal sequences whose late divisors d are odd and
        # at least 2^(K-1), so every low bit of d enters the inverse.
        for _ in range(8):
            f = [rng.randrange(-(1 << 200), 1 << 200) for _ in range(rng.randrange(6, 10))]
            g = [rng.randrange(-(1 << 200), 1 << 200) for _ in range(rng.randrange(4, len(f)))]
            assert resultant_z(f, g) == oracle_resultant(f, g), (f, g)
        assert any(d % 2 and abs(d).bit_length() > 2000 for d, _ in seen)

    @staticmethod
    def spy_on_prem_div(monkeypatch):
        """Record, for each ``_prem_div`` call, the divisor, the degree gap,
        the widest operand coefficient, whether 3 divides lc(b), and
        whether 3 divides every coefficient of the result."""
        seen = []
        kernel = symalg._prem_div

        def spy(a, b, d):
            rem = kernel(a, b, d)
            seen.append((d, len(a) - len(b), max(abs(x).bit_length() for x in a + b),
                         b[-1] % 3 == 0, all(x % 3 == 0 for x in rem)))
            return rem

        monkeypatch.setattr(symalg, "_prem_div", spy)
        return seen

    def test_powers_of_3_in_content_and_leads(self, monkeypatch):
        # Each remainder is kept as 3^c T with T not divisible by 3, and
        # each divisor passed to _prem_div is the part of g h^delta prime to
        # 3.  Four families stress that bookkeeping: f 3^i and g 3^j, 3-free
        # polynomials whose leading coefficients are divisible by 3^k,
        # remainder chains with gaps delta >= 2 whose leading coefficients
        # are powers of 3, and pairs with a common factor.
        seen = self.spy_on_prem_div(monkeypatch)
        rng = random.Random(29)

        def rand(deg, bits):
            return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(deg)] + [rng.choice([-1, 1])]

        def check(f, g):
            r = resultant_z(f, g)
            oracle = sylvester_resultant if max(len(f), len(g)) <= 7 else oracle_resultant
            assert r == oracle(f, g), (f, g)
            assert resultant_z(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * r
            return r

        for _ in range(12):
            f, g = rand(rng.randrange(1, 9), 30), rand(rng.randrange(1, 9), 30)
            i, j = rng.randrange(13), rng.randrange(13)
            r = check([3**i * x for x in f], [3**j * x for x in g])
            assert r == 3 ** (i * (len(g) - 1) + j * (len(f) - 1)) * resultant_z(f, g)
        for _ in range(12):
            f, g = rand(rng.randrange(2, 9), 40), rand(rng.randrange(2, 9), 40)
            f[0], g[0] = 3 * f[0] + 1, 3 * g[0] + 2
            f[-1] *= 3 ** rng.randrange(1, 30)
            g[-1] *= 3 ** rng.randrange(30) * (rng.randrange(1 << 20) | 1)
            check(f, g)
        start = len(seen)
        for _ in range(12):
            degrees = sorted(rng.sample(range(14), rng.randrange(3, 7)), reverse=True)
            f, g = self.remainder_chain(rng, degrees, 60,
                                        lead=lambda r: r.choice([-1, 1]) * 3 ** r.randrange(1, 25))
            check(f, g)
        assert any(delta >= 2 for _, delta, *_ in seen[start + 1:])
        for _ in range(6):
            common = [rng.randrange(-10**9, 10**9) for _ in range(rng.randrange(1, 4))] + [3 ** rng.randrange(8)]
            f, g = rand(rng.randrange(1, 7), 50), rand(rng.randrange(1, 7), 50)
            assert check(poly_mul(f, common), poly_mul(g, [3**5 * x for x in common])) == 0
        # Some lc(b) and the content of some remainder were divisible by 3.
        assert all(d % 3 for d, *_ in seen)
        assert any(lead3 for *_, lead3, _ in seen) and any(rem3 for *_, rem3 in seen)

    def test_g26_g29_operands_stay_narrow(self, monkeypatch):
        # Res(g_26, g_29) = -3^3047 times a 7,481-bit cofactor.  With the
        # power of 3 kept as an exponent, no divisor is divisible by 3 and no
        # operand coefficient reaches 8,000 bits (12,182 when S_i carried it).
        seen = self.spy_on_prem_div(monkeypatch)
        r = resultant_z(list(g_poly(26).g), list(g_poly(29).g))
        assert hashlib.sha256(str(r).encode()).hexdigest() == RESULTANT_SHA256["26,29"]
        assert all(d % 3 for d, *_ in seen)
        assert max(width for _, _, width, *_ in seen) < 8000


class TestFactorTrial:
    def test_segment_products(self, monkeypatch):
        # A prime above 10^12 makes factor_trial visit every segment up to
        # the default bound; each product must be that of the sieved primes.
        visited = []
        monkeypatch.setattr(symalg, "_segment_product", lambda lo, hi: visited.append((lo, hi)) or 1)
        factor_trial(2**61 - 1)
        monkeypatch.undo()
        assert len(visited) == 69 and visited[-1][0] <= 10**6 < visited[-1][1]
        for lo, hi in visited:
            assert symalg._segment_product(lo, hi) == math.prod(symalg._sieve(lo, hi)), (lo, hi)
        assert symalg._segment_product(114, 127) == 1

    def test_resultant_factorization(self):
        res = factor_trial(abs(resultant_z(G2, G5)))
        assert res.complete
        assert res.factors == {2: 5, 3: 35, 17: 2, 23: 1, 29: 1, 103: 1, 16069: 1}
        assert res.reassemble() == res.n

    def test_negative_input(self):
        res = factor_trial(-12)
        assert res.factors == {2: 2, 3: 1} and res.reassemble() == -12

    def test_cofactor_certification(self):
        # 1000003 * 1000033 has both primes just above a bound of 10^3,
        # but the product is above bound^2 so it stays unfactored
        res = factor_trial(1000003 * 1000033, bound=1000)
        assert not res.complete and res.cofactor == 1000003 * 1000033
        # a single prime below bound^2 is certified
        res2 = factor_trial(1000003, bound=1001)
        assert res2.complete and res2.factors == {1000003: 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_trial(0)

    def test_multiplicities_in_the_thousands(self):
        # Each multiplicity is taken by dividing by p, p^2, p^4, ... and back
        # down; 3^3047 is the power of 3 in Res(g_26, g_29).
        for factors in ({2: 200, 3: 3047, 16069: 1}, {3: 2047}, {3: 2048}, {2: 1, 131101: 1000},
                        {5: 1, 7: 4095, 999983: 3}):
            n = math.prod(p**k for p, k in factors.items())
            for sign in (1, -1):
                res = factor_trial(sign * n)
                assert res.complete and list(res.factors.items()) == list(factors.items())
                assert res.reassemble() == sign * n

    def test_square_of_a_prime_near_the_bound(self):
        for p in (999979, 999983):
            assert factor_trial(p * p).factors == {p: 2}
            assert factor_trial(2 * p * p).factors == {2: 1, p: 2}


def trial_division_oracle(n, bound=10**6):
    """Reference for factor_trial: divide by 2 and then by every odd d while
    d <= bound and d^2 <= m."""
    m = abs(n)
    factors = {}
    d = 2
    while d <= bound and d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m == 1:
        return FactorResult(n=n, factors=factors, complete=True)
    if m <= bound * bound:
        factors[m] = factors.get(m, 0) + 1
        return FactorResult(n=n, factors=factors, complete=True)
    return FactorResult(n=n, factors=factors, complete=False, cofactor=m)


SEGMENT = 2**14
# The primes next to segment edges: 127 < 2^7 < 131 ends the first
# segment; the Mersenne primes 8191 = 2^13 - 1 and 131071 = 2^17 - 1 are
# the last numbers of theirs, 8209 and 131101 the first primes of the
# next; 16381 < 2^14 < 16411.
EDGE_PRIMES = (127, 131, 8191, 8209, 16369, 16381, 16411, 16417, 131071, 131101)


class TestSegmentedFactorTrial:
    """factor_trial against the plain d-loop it replaced."""

    @staticmethod
    def assert_same(n, bound):
        got, want = factor_trial(n, bound), trial_division_oracle(n, bound)
        assert list(got.factors.items()) == list(want.factors.items()), (n, bound)
        assert (got.complete, got.cofactor) == (want.complete, want.cofactor), (n, bound)

    def test_seeded_random(self):
        rng = random.Random(20131)
        for _ in range(400):
            n = rng.choice([1, rng.randrange(2, 10**9), rng.randrange(2, 10**30)])
            n *= rng.choice(EDGE_PRIMES + (1, 2, 3**5, 7**3)) ** rng.randrange(3)
            # The oracle stops at sqrt(n), so the full bound only for small n.
            small = n < 10**9 and rng.random() < 0.5
            bound = 10**6 if small else rng.randrange(1, 3 * SEGMENT)
            self.assert_same(rng.choice([1, -1]) * n, bound)

    def test_units(self):
        for n in (1, -1):
            for bound in (1, 2, 3, SEGMENT, 10**6):
                self.assert_same(n, bound)

    def test_primes_on_both_sides_of_a_segment_edge(self):
        n = 127 * 131**2 * 8191 * 8209 * 16381**2 * 16411 * 131071 * 131101**3 * (2**89 - 1)
        for bound in (127, 130, 131, 8191, 8192, 8209, SEGMENT - 1, SEGMENT, SEGMENT + 1,
                      131071, 131100, 131101, 10**6):
            self.assert_same(n, bound)
            self.assert_same(-n, bound)
        assert list(factor_trial(n, 131101).factors) == [
            127, 131, 8191, 8209, 16381, 16411, 131071, 131101
        ]

    def test_bound_at_segment_edges_and_tiny(self):
        n = 2**3 * 3**2 * 5 * 16369 * 16417 * 32771 * 65537
        for edge in (2**7, 2**8, 2**13, SEGMENT, 2 * SEGMENT, 4 * SEGMENT):
            for bound in (edge - 1, edge, edge + 1):
                self.assert_same(n, bound)
        for bound in (1, 2, 3):
            for m in (n, 2, 3, 4, 6, 9, 25, 35, 2 * 16411):
                self.assert_same(m, bound)

    def test_prime_square_near_bound_squared(self):
        for p in EDGE_PRIMES:
            for bound in (p - 1, p, p + 1):
                for n in (p * p, 3 * p * p, p**3):
                    self.assert_same(n, bound)

    @pytest.mark.parametrize("left", [5, 8, 11, 14])
    def test_consecutive_resultants(self, left):
        r = resultant_z(list(g_poly(left).g), list(g_poly(left + 3).g))
        self.assert_same(r, 10**6)


class TestPrimes:
    """prime_factors and is_prime, read from factor_trial, against the d-loop."""

    @staticmethod
    def assert_same(n):
        want = trial_division_oracle(n)
        assert want.complete
        assert prime_factors(n) == list(want.factors), n
        assert is_prime(n) == (want.factors == {n: 1}), n

    def test_every_n_below_2_14(self):
        for n in range(1, SEGMENT):
            self.assert_same(n)

    def test_unit_group_orders(self):
        # q^2 - 1 for every prime power q <= 4096: the unit-group order of each
        # accepted field, which the generator search factors.
        qs = [p**e for p in range(2, 4097) if trial_division_oracle(p).factors == {p: 1}
              for e in range(1, 13) if p**e <= 4096]
        for q in qs:
            self.assert_same(q * q - 1)

    def test_certified_beyond_10_6(self):
        self.assert_same(999983 * 1000003)
        assert prime_factors(999983 * 1000003) == [999983, 1000003]
        # The largest prime below the gcdchain --p bound of 10^12.
        self.assert_same(999999999989)
        assert is_prime(999999999989)

    def test_unfactored_cofactor_raises(self):
        for f in (prime_factors, is_prime):
            with pytest.raises(ValueError, match="unfactored"):
                f(1000003 * 1000033)


class TestGcdChains:
    def test_mod2_chain(self):
        assert gcd_mod_p([G2, G5, G8], 2) == [0, 1]

    def test_mod17_chain(self):
        # 17^2 divides the resultant, so the two-polynomial gcd is quadratic;
        # adding g_8 collapses it to 1
        assert gcd_mod_p([G2, G5], 17) == [3, 8, 1]
        assert gcd_mod_p([G2, G5, G8], 17) == [1]

    def test_mod23_chain(self):
        assert gcd_mod_p([G2, G5], 23) == [1, 1]

    def test_mod29_chain(self):
        assert gcd_mod_p([G2, G5, G8], 29) == [3, 1]

    def test_single_input_is_made_monic(self):
        assert gcd_mod_p([[2, 4]], 5) == [3, 1] == gcd_mod_p([[2, 4], [2, 4]], 5)

    def test_all_zero_raises(self):
        from permbinom.symalg import AllZero

        with pytest.raises(AllZero):
            gcd_mod_p([[5, 10], [15]], 5)

    def test_stops_at_one(self, monkeypatch):
        # gcd(x+1, x+2) = 1 mod 5; the inputs after it, [5, 10] = 0 mod 5
        # among them, are not reduced.
        calls, fp_gcd = [], symalg.fp_gcd
        monkeypatch.setattr(symalg, "fp_gcd", lambda f, g, p: calls.append(g) or fp_gcd(f, g, p))
        assert gcd_mod_p([[1, 1], [2, 1], [5, 10], [3, 1]], 5) == [1]
        assert calls == [[1, 1], [2, 1]]

    def test_g2_has_content_one(self):
        # So no prime reduces the chain g_2, g_5, g_8 to all zeros, and the
        # gcdchain command has no AllZero case to handle.
        assert math.gcd(*g_poly(2).g) == 1


class TestEvalModP:
    def test_g11_at_minus1_mod_23(self):
        assert eval_mod_p(G11, -1, 23) == 11

    def test_g11_at_minus3_mod_29(self):
        assert eval_mod_p(G11, -3, 29) == 0

    def test_g14_at_minus3_mod_29(self):
        assert eval_mod_p(G14, -3, 29) == 15

    def test_matches_exact_evaluation(self):
        rng = random.Random(9)
        for _ in range(25):
            f = [rng.randrange(-50, 51) for _ in range(6)]
            x, p = rng.randrange(-20, 21), rng.choice([2, 17, 23, 29])
            assert eval_mod_p(f, x, p) == poly_eval(f, x) % p


class TestRootsModP:
    """roots_mod_p against a scan of every residue, the loop it replaced."""

    @pytest.mark.parametrize("p", [2, 3, 7, 23, 29])
    @pytest.mark.parametrize("f", [
        [5], [1], [3, 1], [6, 4], [-4, 3], [0, 1], [2, 0, 1], [0, 0, 1],
        [1, 1, 1], [-5, 0, 0, 1], [7, 0, 0], [], [29, 0], [3, 8, 1], G2, G5,
    ])
    def test_matches_residue_scan(self, f, p):
        assert roots_mod_p(f, p) == tuple(r for r in range(p) if eval_mod_p(f, r, p) == 0)

    def test_chain_gcds(self):
        assert roots_mod_p(gcd_mod_p([G2, G5, G8], 2), 2) == (0,)
        assert roots_mod_p(gcd_mod_p([G2, G5, G8], 17), 17) == ()
        assert roots_mod_p(gcd_mod_p([G2, G5], 17), 17) == (4, 5)
        assert roots_mod_p(gcd_mod_p([G2, G5, G8], 29), 29) == (26,)

    def test_large_prime_needs_no_scan(self):
        p = 10**9 + 7
        assert roots_mod_p([1], p) == ()
        assert roots_mod_p([3, 1], p) == (p - 3,)
        assert roots_mod_p([3, 2], p) == (-3 * pow(2, -1, p) % p,)


class TestDivisionAndTrim:
    def test_exact_quotient(self):
        f = poly_mul([1, 2, 3], [4, 5])
        assert poly_divmod_exact(f, [4, 5]) == [1, 2, 3]

    def test_inexact_raises(self):
        with pytest.raises(NotDivisible):
            poly_divmod_exact([1, 1, 1], [1, 1])

    def test_rational_quotient(self):
        assert poly_divmod_exact([1, 2], [2]) == [Fraction(1, 2), 1]

    def test_trim(self):
        assert fp_trim([0, 1, 0, 0]) == [0, 1]
        assert fp_trim([0, 0]) == []


class TestTextForms:
    def test_poly_str_example(self):
        assert poly_str(G2) == "2y^5+3y^4-23y^3-8y^2-9y+44"

    def test_poly_str_edge_cases(self):
        assert poly_str([]) == "0"
        assert poly_str([0, -1, 0, 1]) == "y^3-y"
        assert poly_str([7]) == "7"

    def test_json_roundtrip(self):
        # the strings read back exactly as the coefficients they came from
        for f in (G11, [Fraction(-2, 9), 0, 5], []):
            assert [Fraction(c) for c in _poly_json(f)] == f

    def test_json_is_strings(self):
        assert _poly_json([Fraction(1, 3), -2]) == ["1/3", "-2"]


nonzero_poly = st.lists(st.integers(-99, 99), min_size=1, max_size=7).filter(
    lambda f: any(f)
)


class TestProperties:
    @given(f=nonzero_poly, g=nonzero_poly)
    @settings(max_examples=60, deadline=None)
    def test_resultant_matches_sylvester(self, f, g):
        f, g = fp_trim(list(f)), fp_trim(list(g))
        assert resultant_z(f, g) == sylvester_resultant(f, g)

    @given(f=nonzero_poly, g=nonzero_poly)
    @settings(max_examples=40, deadline=None)
    def test_multiply_then_divide(self, f, g):
        f, g = fp_trim(list(f)), fp_trim(list(g))
        assert poly_divmod_exact(poly_mul(f, g), g) == f
