import hashlib
import math
import random
from array import array

import pytest

from permbinom import ffield
from permbinom.ffield import (
    NonPrimeP,
    SizeExceeded,
    ZeroInverse,
    canonical_modulus,
    fp_mulmod,
    fp_powmod,
    is_irreducible,
    is_primitive_cube_root,
    make_field,
)
from permbinom.symalg import fp_mod, is_prime, poly_mul, prime_factors

from conftest import BENCH_FIELDS, FIELDS_16, FIELDS_32, TABLE_FIELDS
from oracles import (from_coeffs, lucas_binom, oracle_add, oracle_generator_powers, oracle_mul,
                     oracle_neg, reducible_monics, subfield_q_members)


def _monic(c, p, n):
    """The monic degree-n polynomial whose lower coefficients are c's n base-p digits."""
    return [c // p**k % p for k in range(n)] + [1]


def first_irreducible_by_enumeration(p, n):
    """Oracle: irreducibility by brute factor search over monic candidates."""

    def divides(d, f):
        # trial polynomial division over F_p, little-endian lists
        rem = list(f)
        inv = pow(d[-1], -1, p)
        while len(rem) >= len(d):
            c = rem[-1] * inv % p
            k = len(rem) - len(d)
            for i, di in enumerate(d):
                rem[k + i] = (rem[k + i] - c * di) % p
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return not rem

    def monics(deg):
        for c in range(p**deg):
            out, cc = [], c
            for _ in range(deg):
                out.append(cc % p)
                cc //= p
            yield out + [1]

    for f in monics(n):
        if any(divides(d, f) for deg in range(1, n // 2 + 1) for d in monics(deg)):
            continue
        return f
    raise AssertionError("no irreducible found")


class TestConstruction:
    def test_f4_unique_modulus(self):
        assert make_field(2, 1).modulus == (1, 1, 1)

    @pytest.mark.parametrize("p,e", [(5, 1), (2, 3), (3, 1), (7, 1)])
    def test_canonical_modulus_matches_enumeration_oracle(self, p, e):
        assert list(make_field(p, e).modulus) == first_irreducible_by_enumeration(p, 2 * e)

    # Every degree with p^n <= 2^14, which includes (2, 14), the modulus of
    # the bench field 2^7.  (3, 2) is x^2 + 1, whose linear coefficient is 0.
    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7)
                                     for n in range(1, 15) if p**n <= 2**14])
    def test_screened_search_matches_enumeration_oracle(self, p, n):
        assert canonical_modulus(p, n) == first_irreducible_by_enumeration(p, n)

    @pytest.mark.parametrize("p, n", [(2, 14), (5, 6), (3, 2)])
    def test_search_makes_no_factorization(self, monkeypatch, p, n):
        # (2, 14) runs Ben-Or's test on 9 candidates and (5, 6) on 5; the test
        # walks i = 1..n/2, so the degree is never factored.
        calls = []
        monkeypatch.setattr(ffield, "prime_factors",
                            lambda m: calls.append(m) or prime_factors(m))
        assert canonical_modulus(p, n) == first_irreducible_by_enumeration(p, n)
        assert calls == []

    def test_no_irreducible_of_degree_zero(self):
        with pytest.raises(ValueError, match="no irreducible monic polynomial of degree 0"):
            canonical_modulus(3, 0)
        assert not is_irreducible([1], 3) and not is_irreducible([], 3)

    def test_reproducible(self):
        a, b = make_field(11, 1), make_field(11, 1)
        assert a.modulus == b.modulus and a.generator == b.generator

    def test_non_prime_rejected(self):
        with pytest.raises(NonPrimeP):
            make_field(6, 1)

    def test_size_bound(self):
        with pytest.raises(SizeExceeded):
            make_field(2, 13)  # 2^26 elements

    def test_modulus_is_irreducible(self):
        for p, e in [(2, 1), (2, 3), (5, 1), (13, 1)]:
            ctx = make_field(p, e)
            assert is_irreducible(list(ctx.modulus), p)
            assert len(ctx.modulus) == 2 * e + 1 and ctx.modulus[-1] == 1

    # Every monic polynomial of degree 1-8 over F_2, 1-5 over F_3, 1-4 over
    # F_5 and 1-3 over F_7, against the products of two monic factors.
    @pytest.mark.parametrize("p, n", [(p, n) for p, top in ((2, 8), (3, 5), (5, 4), (7, 3))
                                      for n in range(1, top + 1)])
    def test_irreducible_iff_no_monic_factorization(self, p, n):
        reducible = reducible_monics(p, n)
        verdicts = [is_irreducible(_monic(c, p, n), p) for c in range(p**n)]
        assert verdicts == [tuple(_monic(c, p, n)) not in reducible for c in range(p**n)]
        assert any(verdicts) and (n == 1) == all(verdicts)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_linear_polynomials_are_irreducible(self, p):
        # Ben-Or's test walks i = 1..deg m // 2, no step at all for deg m = 1.
        assert all(is_irreducible([c, 1], p) for c in range(p))
        assert ffield.canonical_modulus(p, 1) == [0, 1]

    def test_descriptor_roundtrip(self):
        assert make_field(2, 3).descriptor() == "2^3"


class TestFpPowmod:
    """Square-and-multiply against k successive multiplications from 1."""

    @pytest.mark.parametrize("p, m", [(2, [1, 1, 0, 1]), (5, [2, 0, 1])])
    def test_left_to_right_work(self, monkeypatch, p, m):
        # b - 1 squarings and w - 1 products for a k of b bits and weight w:
        # no multiply by 1 and no squaring past the top bit.
        f = [3, 1, 4, 1, 5]  # unreduced, of degree above deg m
        f_mod_m, calls = fp_mulmod([1], f, m, p), []

        def counting(*args):
            calls.append(args)
            return fp_mulmod(*args)

        monkeypatch.setattr(ffield, "fp_mulmod", counting)
        assert fp_powmod(f, 0, m, p) == [1] and calls == []
        assert fp_powmod(f, 1, m, p) == f_mod_m and calls == []
        for k in range(2, 65):
            calls.clear()
            fp_powmod(f, k, m, p)
            assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k

    @pytest.mark.parametrize("p, m", [(2, [1, 1, 0, 1]), (3, [1, 0, 1]), (5, [2, 0, 1]),
                                      (7, [3, 1, 0, 0, 1]), (2, [0, 1, 1])])
    def test_matches_repeated_mulmod(self, p, m):
        rng = random.Random(p * 100 + len(m))
        for _ in range(5):
            # unreduced, possibly with trailing zeros
            f = [rng.randrange(p) for _ in range(len(m) + 2)]
            expected = [1]
            for k in range(40):  # k = 0 gives [1], k = 1 gives f mod m
                assert fp_powmod(f, k, m, p) == expected, (f, k)
                expected = fp_mulmod(expected, f, m, p)


class TestFpMulmod:
    """The fused kernel against symalg's schoolbook product and remainder."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_product_then_remainder(self, n):
        # Every (p, n) with p^n <= 2^12, for the canonical modulus and a random
        # monic one; operands run from the zero polynomial and constants to
        # degree 2n + 1, some with coefficients outside [0, p).
        rng = random.Random(n)
        for p in (p for p in range(2, 2**12 + 1) if p**n <= 2**12 and is_prime(p)):
            for m in (canonical_modulus(p, n), [rng.randrange(p) for _ in range(n)] + [1]):
                operands = [[], [0], [1], [rng.randrange(1, p)], [p - 1, 0, 0]]
                operands += [[rng.randrange(p) for _ in range(k)] for k in (n, n + 1, 2 * n + 2)]
                operands += [[rng.randrange(-p, 2 * p) for _ in range(n + 2)]]
                for f in operands:
                    for g in operands:
                        assert fp_mulmod(f, g, m, p) == fp_mod(poly_mul(f, g), m, p), (f, g, m, p)


class TestArithmetic:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_field_axioms_exhaustive(self, p, e, fields):
        ctx = fields(p, e)
        els = list(ctx.elements())
        assert ctx.q2 <= 625
        for a in els:
            for b in els:
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in els[:: max(1, len(els) // 7)]:
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))

    @pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (11, 1)])
    def test_field_axioms_sampled(self, p, e, fields):
        ctx = fields(p, e)
        rng = random.Random(0)
        for _ in range(1000):
            a, b, c = (rng.randrange(ctx.q2) for _ in range(3))
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))

    def test_f4_mul_forced_by_modulus(self, fields):
        ctx = fields(2, 1)
        x = from_coeffs(ctx, [0, 1])
        assert ctx.mul(x, x) == from_coeffs(ctx, [1, 1])

    def test_identity(self, fields):
        ctx = fields(5, 1)
        for a in ctx.elements():
            assert ctx.mul(a, 1) == a

    def test_frobenius_fixes_whole_field_at_q2(self, fields):
        ctx = fields(5, 1)
        for a in ctx.elements():
            acc = a
            for _ in range(24):
                acc = ctx.mul(acc, a)
            if a:
                assert acc == a  # a^25 = a
            assert ctx.pow(a, 25) == a

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_frobenius_is_a_homomorphism(self, p, e, fields):
        ctx = fields(p, e)
        for a in ctx.elements():
            for b in ctx.elements():
                assert ctx.pow(ctx.add(a, b), p) == ctx.add(ctx.pow(a, p), ctx.pow(b, p))
                assert ctx.pow(ctx.mul(a, b), p) == ctx.mul(ctx.pow(a, p), ctx.pow(b, p))


class TestPow:
    def test_pow_zero_exponent(self, fields):
        ctx = fields(2, 3)
        for a in ctx.units():
            assert ctx.pow(a, 0) == 1

    def test_lagrange(self, fields):
        ctx = fields(2, 3)
        for a in ctx.units():
            assert ctx.pow(a, ctx.q2 - 1) == 1

    def test_negative_powers(self, fields):
        ctx = fields(11, 1)
        rng = random.Random(1)
        for _ in range(50):
            a = rng.randrange(1, ctx.q2)
            assert ctx.mul(ctx.pow(a, -3), ctx.pow(a, 3)) == 1

    def test_zero_inverse_raises(self, fields):
        with pytest.raises(ZeroInverse):
            fields(5, 1).pow(0, -1)

    def test_pow_matches_repeated_mul(self, fields):
        ctx = fields(3, 1)
        for a in ctx.elements():
            acc = 1
            for k in range(1, 10):
                acc = ctx.mul(acc, a)
                assert ctx.pow(a, k) == acc


class TestCubeRootsAndSubfield:
    def test_one_is_not_primitive(self, fields):
        assert not is_primitive_cube_root(fields(2, 1), 1)

    def test_f4_nontrivial_elements(self, fields):
        ctx = fields(2, 1)
        for y in ctx.elements():
            assert is_primitive_cube_root(ctx, y) == (y not in (0, 1))

    def test_f289_has_exactly_two(self, fields):
        ctx = fields(17, 1)
        assert sum(is_primitive_cube_root(ctx, y) for y in ctx.elements()) == 2

    def test_subfield_sizes(self, fields):
        assert subfield_q_members(fields(2, 1)) == {0, 1}
        assert len(subfield_q_members(fields(5, 1))) == 5
        assert len(subfield_q_members(fields(2, 3))) == 8

    def test_subfield_closed_under_mul(self, fields):
        ctx = fields(5, 1)
        sub = subfield_q_members(ctx)
        for a in sub:
            for b in sub:
                assert ctx.mul(a, b) in sub and ctx.add(a, b) in sub


class TestAddAgainstDigits:
    """Zech-table addition against the digit-by-digit oracle."""

    @pytest.mark.parametrize("p,e", FIELDS_16)
    def test_every_pair(self, p, e, fields):
        ctx = fields(p, e)
        for a in ctx.elements():
            for b in ctx.elements():
                assert ctx.add(a, b) == oracle_add(ctx, a, b), (a, b)

    @pytest.mark.parametrize("p,e", BENCH_FIELDS)
    def test_sampled_pairs(self, p, e, fields):
        ctx = fields(p, e)
        rng = random.Random(ctx.q2)
        for _ in range(2000):
            a, b = rng.randrange(ctx.q2), rng.randrange(ctx.q2)
            assert ctx.add(a, b) == oracle_add(ctx, a, b), (a, b)

    @pytest.mark.parametrize("p,e", FIELDS_32)
    def test_zech_is_log_of_one_plus(self, p, e, fields):
        ctx = fields(p, e)
        minus_one = oracle_neg(ctx, 1)
        assert len(ctx._zech) == ctx.q2 - 1
        for k, x in enumerate(ctx._exp):
            expected = -1 if x == minus_one else ctx._log[oracle_add(ctx, 1, x)]
            assert ctx._zech[k] == expected, k


# sha256 of str(list(ctx._exp)), captured from the tables built by one polynomial
# multiply per element, before shift-and-reduce replaced that loop.
EXP_SHA256 = {
    (2, 7): "f601610c008abf753cb51848f5dd041df596932ee845cf0cc4900836b2bcddc7",
    (127, 1): "be3e50231eeefc4809a20ec9267e406291bf6b2527cfb2648aee044e2a3c4c7f",
    (5, 3): "a5c0e7023ef3fefb5ad0a8775fd421f0dadb949ea95e4228ede1dca6801a3bff",
}


def order_by_powers(ctx, a):
    """Oracle: the multiplicative order of a, by polynomial multiplication."""
    k, x = 1, a
    while x != 1:
        x, k = oracle_mul(ctx, x, a), k + 1
    return k


def steps_by(ctx, powers, g):
    """Oracle: powers[0] is 1 and each power is the last times g, with
    g^(q^2 - 1) wrapping round to powers[0]."""
    return powers[0] == 1 and all(
        oracle_mul(ctx, a, g) == b for a, b in zip(powers, powers[1:] + powers[:1]))


class TestTables:
    """The exp/log tables against polynomial arithmetic; log[0] is -1."""

    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_exp_steps_by_the_generator(self, p, e, fields):
        ctx = fields(p, e)
        assert len(ctx._exp) == ctx.q2 - 1
        assert steps_by(ctx, ctx._exp, ctx.generator)

    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_log_inverts_exp(self, p, e, fields):
        ctx = fields(p, e)
        assert len(ctx._log) == ctx.q2 and ctx._log[0] == -1
        assert all(ctx._log[a] == i for i, a in enumerate(ctx._exp))
        assert all(ctx._exp[ctx._log[a]] == a for a in ctx.units())

    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_generator_is_smallest_of_full_order(self, p, e, fields):
        ctx = fields(p, e)
        order = ctx.q2 - 1
        assert all(order_by_powers(ctx, c) < order for c in range(1, ctx.generator))
        assert order_by_powers(ctx, ctx.generator) == order

    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 1), (7, 1)])
    def test_steps_by_every_generator(self, p, e):
        # The canonical generators above are monic with few digits; step by
        # every element of full order, non-monic ones included.
        ctx = make_field(p, e)
        order = ctx.q2 - 1
        gens = [c for c in ctx.units() if order_by_powers(ctx, c) == order]
        assert any(ctx.to_coeffs(g)[-1] > 1 for g in gens) or p == 2
        for g in gens:
            ctx.generator = g
            exp, log = ctx._generator_powers()
            assert steps_by(ctx, list(exp), g)
            assert log[0] == -1 and all(log[x] == i for i, x in enumerate(exp))

    @pytest.mark.parametrize("p,e", sorted(EXP_SHA256))
    def test_exp_digest_unchanged(self, p, e, fields):
        digest = hashlib.sha256(str(list(fields(p, e)._exp)).encode()).hexdigest()
        assert digest == EXP_SHA256[(p, e)]


# TABLE_FIELDS plus larger odd-p fields with several digits per half, 2^9,
# and fields the sweep reaches past q = 32.
BUILDER_FIELDS = TABLE_FIELDS + [(3, 4), (3, 5), (7, 2), (2, 9), (37, 1), (41, 1), (2, 6),
                                 (11, 2), (13, 2), (2, 8), (7, 3)]


class TestTwoTableBuilder:
    """The two-table ``_generator_powers`` against the Horner oracle; its
    tables are the F_p-spans of the columns g*x^k mod m."""

    @pytest.mark.parametrize("p,e", BUILDER_FIELDS)
    def test_tables_match_horner_oracle(self, p, e, fields):
        ctx = fields(p, e)
        order = ctx.q2 - 1
        exp = array("i", oracle_generator_powers(ctx))
        assert ctx._exp.tobytes() == exp.tobytes()
        log = array("i", [-1]) * ctx.q2
        for i, x in enumerate(exp):
            log[x] = i
        assert -1 not in log[1:]  # the oracle's powers of g are all q^2 - 1 units
        assert ctx._log.tobytes() == log.tobytes()
        # The smallest generator: every smaller unit has a log sharing a factor with the order.
        assert all(math.gcd(log[c], order) > 1 for c in range(1, ctx.generator))
        minus_one = oracle_neg(ctx, 1)
        zech = array("i", (-1 if x == minus_one else log[oracle_add(ctx, 1, x)] for x in exp))
        assert ctx._zech.tobytes() == zech.tobytes()

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 5), (3, 3), (5, 2), (127, 1), (7, 2)])
    def test_builds_from_2q_products(self, p, e, fields, monkeypatch):
        # The two q-entry tables are F_p-spans of shifted columns: the build
        # multiplies no polynomial, per element or per table entry.
        ctx = fields(p, e)
        calls = []

        def counting(*args):
            calls.append(args)
            return fp_mulmod(*args)

        monkeypatch.setattr(ffield, "fp_mulmod", counting)
        exp, log = ctx._generator_powers()
        assert calls == []
        assert exp == ctx._exp and log == ctx._log


class TestCubeRootLookup:
    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_against_polynomial_oracle(self, p, e, fields):
        # y^2 + y + 1 by the digit and polynomial oracles.  In characteristic
        # 3 that is (y - 1)^2, so only y = 1 answers True; every other p has
        # 3 | p^2 - 1, so F_{q^2} holds both primitive cube roots.
        ctx = fields(p, e)
        roots = [y for y in ctx.elements() if is_primitive_cube_root(ctx, y)]
        assert roots == [y for y in ctx.elements()
                         if oracle_add(ctx, oracle_add(ctx, oracle_mul(ctx, y, y), y), 1) == 0]
        assert len(roots) == (1 if p == 3 else 2)


class TestLucasBinom:
    def test_odd_binomial_mod_2(self):
        assert lucas_binom(2, 7, 3) == 1

    def test_vanishing_mod_5(self):
        assert lucas_binom(5, 6, 2) == 0

    def test_out_of_range_is_zero(self):
        for p in (2, 5, 11):
            assert lucas_binom(p, 9, -1) == 0
            assert lucas_binom(p, 4, 5) == 0

    @pytest.mark.parametrize("p", [2, 5, 11, 17, 23, 29])
    def test_against_factorial_definition(self, p):
        for m in range(31):
            for k in range(-2, m + 3):
                expected = math.comb(m, k) % p if 0 <= k <= m else 0
                assert lucas_binom(p, m, k) == expected
