import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom
from permbinom import hermite
from permbinom.classify import prime_powers
from permbinom.ffield import FieldCtx, is_primitive_cube_root, make_field
from permbinom.hermite import (
    PreconditionViolated,
    _s_q_terms,
    brute_pp_test,
    has_nonzero_root,
    hermite_pp_test,
    interval_census,
    s_q,
)

from conftest import TABLE_FIELDS
from oracles import (
    BinomialMap,
    brute_scan_oracle,
    image_logs,
    lemma31_profile,
    lucas_binom,
    oracle_add,
    oracle_mul,
    oracle_neg,
    power_sum,
    s_q_oracle,
    s_q_terms_oracle,
)

PRIME_POWERS_13 = (2, 3, 4, 5, 7, 8, 9, 11, 13)
PRIME_POWERS_32 = PRIME_POWERS_13 + (16, 17, 19, 23, 25, 27, 29, 31, 32)


def ctx_for_q(fields, q):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        if m == 1 and e:
            return fields(p, e)
    raise ValueError(q)


class TestBinomialMap:
    def test_zero_a_rejected(self, fields):
        with pytest.raises(PreconditionViolated):
            BinomialMap(fields(2, 1), 0)

    def test_zero_maps_to_zero(self, fields):
        ctx = fields(5, 1)
        for a in (1, 7, 24):
            assert BinomialMap(ctx, a)(0) == 0

    def test_q2_exponent_degenerate(self, fields):
        # q = 2: the exponent 3q-2 = 4 equals q^2, so x^(3q-2) = x pointwise
        # and f collapses to (a+1)x; evaluation stays literal regardless.
        ctx = fields(2, 1)
        for a in ctx.units():
            f = BinomialMap(ctx, a)
            for x in ctx.elements():
                assert f(x) == ctx.mul(ctx.add(a, 1), x)


class TestPowerSum:
    def test_nonreduced_exponents_vanish(self, fields):
        # s = alpha + beta*q vanishes for any a unless q-1 divides alpha+beta,
        # i.e. unless alpha+beta is 0, q-1 or 2(q-1)
        ctx = fields(5, 1)
        rng = random.Random(2)
        for _ in range(8):
            a = rng.randrange(1, ctx.q2)
            for alpha in range(5):
                for beta in range(5):
                    if (alpha + beta) % 4 and alpha + beta > 0:
                        assert power_sum(ctx, a, alpha + 5 * beta) == 0

    def test_q2_linear_map_sums_vanish(self, fields):
        ctx = fields(2, 1)
        for a in ctx.elements():
            if is_primitive_cube_root(ctx, a):
                for s in (1, 2):
                    assert power_sum(ctx, a, s) == 0

    def test_top_power_sum_of_a_pp_is_minus_one(self, fields):
        ctx = fields(5, 1)
        pps = [a for a in ctx.units() if brute_pp_test(ctx, a)]
        assert pps
        for a in pps[:3]:
            assert power_sum(ctx, a, ctx.q2 - 1) == ctx.scalar(-1)


class TestPowerSumIdentity:
    """power_sum(alpha + (q-1-alpha)q) == -a^((alpha+1)(1-q)) * S_q(alpha, a)."""

    @pytest.mark.parametrize("q", [5, 8, 11])
    def test_exhaustive(self, fields, q):
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            for alpha in range(q):
                s = alpha + (q - 1 - alpha) * q
                lhs = power_sum(ctx, a, s)
                rhs = oracle_neg(ctx, ctx.mul(ctx.pow(a, (alpha + 1) * (1 - q)),
                                              s_q(ctx, a, alpha)))
                assert lhs == rhs

    @pytest.mark.parametrize("q", [17, 23, 29, 32])
    def test_sampled(self, fields, q):
        ctx = ctx_for_q(fields, q)
        rng = random.Random(q)
        for _ in range(200):
            a = rng.randrange(1, ctx.q2)
            alpha = rng.randrange(q)
            s = alpha + (q - 1 - alpha) * q
            lhs = power_sum(ctx, a, s)
            rhs = oracle_neg(ctx, ctx.mul(ctx.pow(a, (alpha + 1) * (1 - q)), s_q(ctx, a, alpha)))
            assert lhs == rhs


class TestSq:
    def test_q5_sporadic_a_all_vanish(self, fields):
        # a with a^2 = 4 in F_25 give permutations, so every S must vanish
        ctx = fields(5, 1)
        four = ctx.scalar(4)
        found = 0
        for a in ctx.units():
            if ctx.mul(a, a) == four:
                found += 1
                for alpha in range(5):
                    assert s_q(ctx, a, alpha) == 0
        assert found == 2

    def test_q3_alpha0_single_term(self, fields):
        # 3 does not divide q+1 = 4: the alpha = 0 sum reduces to the lone
        # term C(2,1) a^{-q} = -a^{-3}, which never vanishes.
        ctx = fields(3, 1)
        for a in ctx.units():
            val = s_q(ctx, a, 0)
            assert val == oracle_neg(ctx, ctx.pow(a, -3))
            assert val != 0


class TestSqTermCache:
    """s_q over the cached term list against the per-call loop it replaced."""

    @pytest.mark.parametrize("q", PRIME_POWERS_32)
    def test_matches_oracle_exhaustively(self, fields, q):
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            for alpha in range(q):
                assert s_q(ctx, a, alpha) == s_q_oracle(ctx, a, alpha), (q, a, alpha)

    @pytest.mark.parametrize("p, e", [(2, 7), (127, 1), (5, 3)])
    def test_matches_oracle_sampled(self, fields, p, e):
        ctx = fields(p, e)
        rng = random.Random(ctx.q)
        for _ in range(300):
            a, alpha = rng.randrange(1, ctx.q2), rng.randrange(ctx.q)
            assert s_q(ctx, a, alpha) == s_q_oracle(ctx, a, alpha), (ctx.q, a, alpha)

    def test_preconditions(self, fields):
        ctx = fields(5, 1)
        for alpha in range(ctx.q):  # fill every slot: -1 must not read slot q-1
            s_q(ctx, 1, alpha)
        with pytest.raises(PreconditionViolated):
            s_q(ctx, 0, 0)
        for alpha in (-1, ctx.q, ctx.q + 3):
            with pytest.raises(PreconditionViolated):
                s_q(ctx, 1, alpha)

    @pytest.mark.parametrize("p, q, alpha", [(5, 5, -1), (5, 5, 5), (2, 8, -1), (5, 25, 25)])
    def test_terms_reject_alpha_out_of_range(self, p, q, alpha):
        # alpha is validated before its digits are read: -1 // p is -1.
        with pytest.raises(PreconditionViolated):
            _s_q_terms(p, q, alpha)


def smallest_prime_factor(q):
    return min(d for d in range(2, q + 1) if q % d == 0)


class TestSqTermsFromLucasDigits:
    """_s_q_terms lists the terms of each d = i - j digit by digit, from the
    no-carry lemma on x = i + (q-1-alpha-j); its lists must equal the range
    scan's, tuple for tuple."""

    @pytest.mark.parametrize("q", prime_powers(128) + [2**9, 3**5, 7**3, 13**2])
    def test_matches_range_scan(self, q):
        p = smallest_prime_factor(q)
        for alpha in range(q):
            assert _s_q_terms(p, q, alpha) == s_q_terms_oracle(p, q, alpha), (q, alpha)

    @pytest.mark.parametrize("p, e", [(2, 7), (5, 3), (127, 1)])
    def test_no_lucas_binom_calls(self, monkeypatch, p, e):
        # The range scan makes 5,544 calls at 2^7, 5,288 at 5^3 and 5,460 at 127.
        # Lucas binomials live in tests/oracles.py; a call from hermite would
        # have to name a global lucas_binom, which this spy then answers.
        calls = []
        monkeypatch.setattr(hermite, "lucas_binom",
                            lambda *args: calls.append(args) or lucas_binom(*args), raising=False)
        q = p**e
        for alpha in range(q):
            _s_q_terms(p, q, alpha)
        assert calls == []

    @pytest.mark.parametrize("q", [251, 1021])
    def test_prime_field_terms_from_exact_binomials(self, q):
        # One digit: the factorial table alone gives every coefficient.  Each
        # term's (i, j) is read back from k = -i - jq, its c is checked against
        # math.comb, and the (i, j) must be every admissible pair, i ascending.
        order = q * q - 1
        for alpha in random.Random(q).sample(range(q), 20):
            comp = q - 1 - alpha
            pairs = []
            for l in interval_census(q, alpha):
                num = alpha + 1 + l * (q + 1)
                if num % 3 == 0:
                    d = num // 3
                    pairs += [(i, i - d) for i in range(max(0, d), min(alpha, comp + d) + 1)]
            found = []
            for c, k in _s_q_terms(q, q, alpha):
                j, i = divmod(-k % order, q)
                assert c == math.comb(alpha, i) * math.comb(comp, j) % q != 0, (q, alpha, i)
                found.append((i, j))
            assert found == pairs, (q, alpha)

    def test_largest_prime_field_matches_range_scan(self):
        q = 4093  # the largest prime q with q^2 within the size bound
        for alpha in random.Random(q).sample(range(q), 3):
            assert _s_q_terms(q, q, alpha) == s_q_terms_oracle(q, q, alpha), alpha


def cube_class(ctx):
    """The a whose a^((q+1)/3) is a primitive cube root of unity."""
    k = (ctx.q + 1) // 3
    return [a for a in ctx.units() if is_primitive_cube_root(ctx, ctx.pow(a, k))]


@pytest.fixture
def cold_walk():
    """Empties the table of term lists and verdicts before and after the test."""
    hermite._field_table.cache_clear()
    yield
    hermite._field_table.cache_clear()


@pytest.fixture
def built(monkeypatch):
    """The (p, q, alpha) of every term list built while the test runs."""
    calls, real = [], hermite._s_q_terms
    monkeypatch.setattr(hermite, "_s_q_terms",
                        lambda p, q, alpha: calls.append((p, q, alpha)) or real(p, q, alpha))
    return calls


class TestLazyWalk:
    """s_q and hermite_pp_test read the term lists of (p, q) from one table,
    a slot per alpha, built only as far as a caller has read; the table
    holds one field."""

    def test_cube_class_builds_only_up_to_first_nonzero_sum(self, fields, cold_walk, built):
        ctx = fields(5, 3)
        first, second = cube_class(ctx)[:2]
        # Every sum below alpha = (q-1)/2 = 62 vanishes, and S_q(62, a) does not.
        assert [s_q(ctx, first, alpha) != 0 for alpha in range(63)] == [False] * 62 + [True]
        hermite._field_table.cache_clear()
        built.clear()
        assert not hermite_pp_test(ctx, first)
        assert built == [(5, 125, alpha) for alpha in range(63)]
        built.clear()
        assert not hermite_pp_test(ctx, second)
        assert built == []

    def test_walk_reuses_the_lists_s_q_built(self, fields, cold_walk, built):
        ctx = fields(5, 3)
        for alpha in range(ctx.q):
            s_q(ctx, 1, alpha)
        assert len(built) == ctx.q
        built.clear()
        assert [hermite_pp_test(ctx, a) for a in cube_class(ctx)[:3]] == [False] * 3
        assert built == []

    def test_walk_bypasses_the_term_cache(self, fields, cold_walk, built):
        # The table holds one field, so a sweep keeps no list of a field it
        # has left: coming back builds its lists again.
        ctx, other = fields(2, 3), fields(5, 1)
        pp = next(a for a in ctx.units() if hermite_pp_test(ctx, a))  # walks every alpha
        assert any(hermite_pp_test(other, a) for a in other.units())
        built.clear()
        s_q(ctx, 1, 0)
        assert hermite_pp_test(ctx, pp)
        assert built == [(2, 8, alpha) for alpha in range(8)]
        assert hermite._field_table.cache_info().currsize == 1

    def test_alternating_fields_match_fresh_processes(self, fields, cold_walk, built):
        ctxs = [fields(2, 5), fields(5, 2)]
        code = ("import sys\nfrom permbinom.ffield import make_field\n"
                "from permbinom.hermite import hermite_pp_test\n"
                "ctx = make_field(int(sys.argv[1]), int(sys.argv[2]))\n"
                "print(''.join('1' if hermite_pp_test(ctx, a) else '0' for a in ctx.units()))")
        path = [str(Path(permbinom.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        fresh = [subprocess.run([sys.executable, "-c", code, str(ctx.p), str(ctx.e)],
                                capture_output=True, text=True, env=env, check=True).stdout.strip()
                 for ctx in ctxs]
        verdicts = [[], []]
        for a in range(1, max(ctx.q2 for ctx in ctxs)):
            for ctx, out in zip(ctxs, verdicts):
                if a < ctx.q2:
                    out.append("1" if hermite_pp_test(ctx, a) else "0")
        assert ["".join(v) for v in verdicts] == fresh
        assert "1" in fresh[0]  # the 2^5 family; 5^2 has no PP
        # Each field's lists were built again after every visit to the other.
        switches = sum(x[:2] != y[:2] for x, y in zip(built, built[1:]))
        assert {b[:2] for b in built} == {(2, 32), (5, 25)} and switches > 2

    def test_walk_cut_by_an_exception_is_rebuilt(self, fields, monkeypatch, cold_walk, built):
        # A build cut at alpha = 30 must leave that slot unbuilt and store no
        # verdict; a stored verdict or an empty slot would end later walks
        # early, and the cube class of 5^3, first decided at alpha = 62,
        # would read as PPs.
        ctx = fields(5, 3)
        members = cube_class(ctx)
        spy = hermite._s_q_terms

        def interrupted(p, q, alpha):
            if alpha == 30:
                raise KeyboardInterrupt
            return spy(p, q, alpha)

        monkeypatch.setattr(hermite, "_s_q_terms", interrupted)
        slots, verdicts = hermite._field_table(5, 125)
        with pytest.raises(KeyboardInterrupt):
            hermite_pp_test(ctx, members[0])
        # The interrupted call stored no verdict, in the memo it read or after.
        assert verdicts == {} and hermite._field_table(5, 125)[1] == {}
        assert slots[30] is None and None not in slots[:30]
        monkeypatch.setattr(hermite, "_s_q_terms", spy)
        built.clear()
        assert not any(hermite_pp_test(ctx, a) for a in members)
        assert built == [(5, 125, alpha) for alpha in range(30, 63)]
        assert not any(brute_pp_test(ctx, a) for a in members)


class TestClassMemo:
    """Every exponent of one term list lies in one class mod
    P = (q+1)/gcd(3, q+1), so Hermite's verdict depends on a only through
    log a mod (q-1)*gcd(3, q+1), and hermite_pp_test decides once per class."""

    @pytest.mark.parametrize("q", prime_powers(128) + [2**9, 3**5])
    def test_term_exponents_share_one_residue(self, q):
        # k = -d mod q+1 for d = i - j, and 3d = alpha+1 + l(q+1) fixes d mod P.
        p, g = smallest_prime_factor(q), math.gcd(3, q + 1)
        period, nonempty = (q + 1) // g, 0
        for alpha in range(q):
            d = (alpha + 1) // 3 if g == 3 else (alpha + 1) * pow(3, -1, period)
            residues = {k % period for _, k in _s_q_terms(p, q, alpha)}
            assert residues <= {-d % period}, (q, alpha)
            nonempty += bool(residues)
        assert nonempty or q == 2

    @staticmethod
    def assert_warm_matches_cold_and_brute(ctx, units):
        hermite._field_table.cache_clear()
        warm = [hermite_pp_test(ctx, a) for a in units]
        classes = (ctx.q - 1) * math.gcd(3, ctx.q + 1)
        assert len(hermite._field_table(ctx.p, ctx.q)[1]) == len(
            {ctx._log[a] % classes for a in units})
        for a, verdict in zip(units, warm):
            hermite._field_table.cache_clear()
            assert verdict == hermite_pp_test(ctx, a) == brute_pp_test(ctx, a), (ctx.q, a)

    @pytest.mark.parametrize("q", prime_powers(64))
    def test_warm_matches_cold_and_brute(self, fields, cold_walk, q):
        ctx = ctx_for_q(fields, q)
        self.assert_warm_matches_cold_and_brute(ctx, list(ctx.units()))

    @pytest.mark.parametrize("p, e", [(2, 7), (5, 3)])
    def test_cube_class_warm_matches_cold_and_brute(self, fields, cold_walk, p, e):
        ctx = fields(p, e)
        members = cube_class(ctx)
        self.assert_warm_matches_cold_and_brute(ctx, members)
        assert [hermite_pp_test(ctx, a) for a in members] == [p == 2] * len(members)


# The fields of TABLE_FIELDS in which no S_q(alpha, a) has a proper prefix of
# its term list that sums to 0.
NO_CANCELLATION = {(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (2, 4), (3, 3)}


def prefix_cancels(ctx, a, alpha):
    """Whether a running sum of S_q(alpha, a), in term-list order and added
    digit by digit, is 0 before the last term."""
    total = 0
    for c, k in _s_q_terms(ctx.p, ctx.q, alpha)[:-1]:
        total = oracle_add(ctx, total, ctx.mul(c, ctx.pow(a, k)))
        if total == 0:
            return True
    return False


class TestSqLogDomain:
    """s_q keeps its running sum as a log, -1 standing for 0; a sum that
    cancels before its last term must restart from the next one."""

    @pytest.mark.parametrize("p, e", TABLE_FIELDS)
    def test_cancelling_sums_match_oracle(self, fields, p, e):
        ctx = fields(p, e)
        if ctx.q <= 32:
            pairs = [(a, alpha) for a in ctx.units() for alpha in range(ctx.q)]
        else:
            rng = random.Random(ctx.q)
            pairs = [(rng.randrange(1, ctx.q2), rng.randrange(ctx.q)) for _ in range(3000)]
        cancelling = [(a, alpha) for a, alpha in pairs if prefix_cancels(ctx, a, alpha)]
        assert bool(cancelling) == ((p, e) not in NO_CANCELLATION)
        for a, alpha in cancelling:
            assert s_q(ctx, a, alpha) == s_q_oracle(ctx, a, alpha), (ctx.q, a, alpha)


class TestHermiteKernel:
    """hermite_pp_test sums through the kernel of s_q: each S_q once, in alpha
    order, up to the first nonzero one, and none when a has a nonzero root.
    It does so for the first a of each class of log a mod (q-1)*gcd(3, q+1)
    only; every later a of the class reads the stored verdict."""

    @pytest.mark.parametrize("q", [5, 8, 9, 11, 16])
    def test_zech_reads_match_s_q_up_to_decision(self, fields, monkeypatch, cold_walk, q):
        ctx = ctx_for_q(fields, q)
        monkeypatch.setattr(ctx, "_zech", CountingLookups(ctx._zech))
        zech = ctx._zech
        classes, seen = (q - 1) * math.gcd(3, q + 1), set()
        for a in ctx.units():
            key = ctx._log[a] % classes
            zech.count = 0
            expected = 0
            if key not in seen and not has_nonzero_root(ctx, a):
                for alpha in range(q):
                    if s_q(ctx, a, alpha):
                        break
                expected = zech.count
                zech.count = 0
            seen.add(key)
            hermite_pp_test(ctx, a)
            assert zech.count == expected, (q, a)
        assert len(seen) == classes

    def test_terms_only_at_alpha_2_mod_3(self):
        # Every term has k = -i - jq, so 3k = -(alpha+1) mod q+1; when
        # 3 | q+1 that leaves no term unless alpha = 2 mod 3.
        qs = [q for q in prime_powers(128) if (q + 1) % 3 == 0]
        assert len(qs) == 20
        for q in qs:
            p = min(d for d in range(2, q + 1) if q % d == 0)
            assert all(not _s_q_terms(p, q, alpha) for alpha in range(q) if alpha % 3 != 2), q
            assert any(_s_q_terms(p, q, alpha) for alpha in range(2, q, 3)) == (q > 2), q


class TestIntervalCensus:
    def test_q5_midpoint_has_two(self):
        assert tuple(interval_census(5, 2)) == (-1, 0)

    def test_q8_alpha2(self):
        assert tuple(interval_census(8, 2)) == (-2, -1, 0)

    def test_q11_alpha8(self):
        assert len(interval_census(11, 8)) == 3

    def test_stated_versus_working_upper_end(self):
        # At q = 8, alpha = 5, l = 1 gives l*(q+1) = 9: inside the working
        # upper end 2*alpha - 1 = 9, outside the displayed alpha - 1 = 4.
        q, alpha = 8, 5
        assert tuple(interval_census(q, alpha)) == (-1, 0, 1)
        assert alpha - 1 < 1 * (q + 1) <= 2 * alpha - 1

    def test_dichotomy_up_to_64(self):
        for q in (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59):
            if (q + 1) % 3:
                continue
            for alpha in range(q):
                if (alpha + 1) % 3:
                    continue
                c = interval_census(q, alpha)
                if q % 2 and alpha == (q - 1) // 2:
                    assert len(c) == 2
                else:
                    assert len(c) == 3


def first_repeats(ctx, a):
    """The first k at which f(g^k) is 0 or repeats an earlier image, and the
    first k < P at which f(g^k) is 0 or its log repeats an earlier one mod
    P = (q+1)/gcd(3, q+1); None where there is none.  f is evaluated with
    the digit-by-digit add, and its logs are read off the powers of g."""
    q, m = ctx.q, ctx.q2 - 1
    period = (q + 1) // math.gcd(3, q + 1)
    powers = [ctx.pow(ctx.generator, k) for k in range(m)]
    log = {x: k for k, x in enumerate(powers)}
    images = [oracle_add(ctx, ctx.mul(a, x), ctx.pow(x, 3 * q - 2)) for x in powers]
    literal = residue = None
    seen = {0}
    for k, fx in enumerate(images):
        if fx in seen:
            literal = k
            break
        seen.add(fx)
    seen = set()
    for k, fx in enumerate(images[:period]):
        if fx == 0 or log[fx] % period in seen:
            residue = k
            break
        seen.add(log[fx] % period)
    return literal, residue


def oracle_pow(ctx, x, k):
    """x^k by square-and-multiply with ``oracle_mul``."""
    r = 1
    while k:
        if k & 1:
            r = oracle_mul(ctx, r, x)
        x, k = oracle_mul(ctx, x, x), k >> 1
    return r


class CountingLookups:
    """A stand-in for a table that counts its lookups."""

    def __init__(self, table):
        self.table, self.count = table, 0

    def __getitem__(self, k):
        self.count += 1
        return self.table[k]


class TestBruteForce:
    def test_q2_cube_root_is_pp(self, fields):
        ctx = fields(2, 1)
        for a in ctx.units():
            assert brute_pp_test(ctx, a) == is_primitive_cube_root(ctx, a)

    def test_q2_a1_is_constant_zero(self, fields):
        ctx = fields(2, 1)
        f = BinomialMap(ctx, 1)
        assert all(f(x) == 0 for x in ctx.elements())
        assert not brute_pp_test(ctx, 1)

    def test_q5_count(self, fields):
        ctx = fields(5, 1)
        assert sum(brute_pp_test(ctx, a) for a in ctx.units()) == 10

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matches_literal_image_set(self, fields, q):
        # f(x) = a*x + x^(3q-2) by polynomial arithmetic mod the modulus, so
        # the image set shares no log, exp or Zech table with the scan.
        ctx = ctx_for_q(fields, q)
        powers = [oracle_pow(ctx, x, 3 * q - 2) for x in ctx.elements()]
        for a in ctx.units():
            image = {oracle_add(ctx, oracle_mul(ctx, a, x), xk) for x, xk in enumerate(powers)}
            assert brute_pp_test(ctx, a) == (len(image) == ctx.q2), (q, a)

    def test_matches_scalar_scan(self, fields):
        # The point-by-point scan the residue scan replaced, over every a at
        # every q <= 64, then a sample at 2^9, where a PP must cost only the
        # first period's P = (q+1)/3 Zech lookups, not one per point.
        for q in prime_powers(64):
            ctx = ctx_for_q(fields, q)
            for a in ctx.units():
                assert brute_pp_test(ctx, a) == brute_scan_oracle(ctx, a), (q, a)
        ctx, q = make_field(2, 9), 512
        members = cube_class(ctx)
        rng = random.Random(9)
        sample = members[:5] + [rng.randrange(1, ctx.q2) for _ in range(20)]
        want = [brute_scan_oracle(ctx, a) for a in sample]
        assert want[:5] == [True] * 5 and not all(want[5:])
        ctx._zech = zech = CountingLookups(ctx._zech)
        for a, pp in zip(sample, want):
            zech.count = 0
            assert brute_pp_test(ctx, a) == pp, a
            assert zech.count <= (q + 1) // 3, a

    @pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (5, 1), (3, 2), (2, 4), (7, 1)])
    def test_stops_at_first_collision(self, p, e):
        # Only the first period, P = (q+1)/gcd(3, q+1) points, is scanned, one
        # Zech lookup each; the scan returns at a zero or at a log that repeats
        # an earlier one mod P.  So a non-PP costs k*+1 lookups, for k* the
        # first such point, and a PP costs P.
        ctx = FieldCtx(p, e)
        period = (ctx.q + 1) // math.gcd(3, ctx.q + 1)
        repeats = {a: first_repeats(ctx, a) for a in ctx.units()}
        ctx._zech = zech = CountingLookups(ctx._zech)
        lookups = {}
        for a, (literal, residue) in repeats.items():
            zech.count = 0
            assert brute_pp_test(ctx, a) == (literal is None) == (residue is None)
            lookups[a] = zech.count
            assert zech.count == (period if residue is None else residue + 1), a
        assert any(literal is not None and literal < period for literal, _ in repeats.values())
        # Points that repeat an image only after the first period are still
        # refused inside it, by their residues.
        late = [a for a, (literal, _) in repeats.items()
                if literal is not None and literal >= period]
        assert late and all(lookups[a] <= period for a in late)

    def test_residue_lemma(self, fields):
        # The lemma brute_pp_test rests on, apart from its verdict: the first
        # period has a zero iff some point maps to 0, and otherwise the logs
        # of all q^2 - 1 images are the cosets mod P of the first P logs.
        for q in prime_powers(32):
            ctx = ctx_for_q(fields, q)
            m, period = ctx.q2 - 1, (q + 1) // math.gcd(3, q + 1)
            for a in ctx.units():
                logs = image_logs(ctx, a)
                first = logs[:period]
                assert (None in first) == (None in logs), (q, a)
                if None in first:
                    continue
                cosets = {(v + j * period) % m for v in first for j in range(m // period)}
                assert set(logs) == cosets, (q, a)
                assert (len(cosets) == m) == (len({v % period for v in first}) == period)


class TestHermiteEquivalence:
    @pytest.mark.parametrize("q", PRIME_POWERS_13)
    def test_matches_brute_exhaustively(self, fields, q):
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            assert hermite_pp_test(ctx, a) == brute_pp_test(ctx, a), (q, a)

    def test_q8_sporadic_family(self, fields):
        ctx = fields(2, 3)
        # a^3 a root of x^3 + x^2 + 1
        hits = 0
        for a in ctx.units():
            c = ctx.pow(a, 3)
            if ctx.add(ctx.add(ctx.pow(c, 3), ctx.mul(c, c)), 1) == 0:
                hits += 1
                assert hermite_pp_test(ctx, a)
        assert hits == 9

    def test_q4_has_no_pp(self, fields):
        ctx = fields(2, 2)
        assert not any(hermite_pp_test(ctx, a) for a in ctx.units())

    @pytest.mark.parametrize("q", [2, 4, 5, 8])
    def test_full_range_slow_oracle(self, fields, q):
        # Hermite's criterion over every power sum s in [1, q^2-2], not
        # only the reduced indices that hermite_pp_test checks through S_q.
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            full = not has_nonzero_root(ctx, a) and all(
                power_sum(ctx, a, s) == 0 for s in range(1, ctx.q2 - 1))
            assert full == hermite_pp_test(ctx, a) == brute_pp_test(ctx, a)


class TestRootCondition:
    @pytest.mark.parametrize("q", [2, 5, 8, 11])
    def test_root_criterion(self, fields, q):
        # 3 | q+1: f has a nonzero root iff a^((q+1)/3) = 1
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            assert has_nonzero_root(ctx, a) == (ctx.pow(a, (q + 1) // 3) == 1)

    @pytest.mark.parametrize("q", PRIME_POWERS_32)
    def test_root_iff_class_zero(self, fields, q):
        # hermite_pp_test's root test is key != 0, key = log a mod M, with M
        # the index gcd(3(q-1), q^2-1) of the scaling subgroup.
        ctx = ctx_for_q(fields, q)
        classes = math.gcd(3 * (q - 1), q * q - 1)
        for a in ctx.units():
            assert has_nonzero_root(ctx, a) == (ctx._log[a] % classes == 0), (q, a)

    @pytest.mark.parametrize("q", PRIME_POWERS_32)
    def test_closed_form_matches_cube_set(self, fields, q):
        # f(x) = x*(a + x^(3q-3)), so a nonzero root exists iff -a is in
        # {x^(3q-3) : x != 0}; this covers every q <= 32, 3 | q+1 or not.
        ctx = ctx_for_q(fields, q)
        cubes = {ctx.pow(x, 3 * q - 3) for x in ctx.units()}
        for a in ctx.units():
            assert has_nonzero_root(ctx, a) == (oracle_neg(ctx, a) in cubes), (q, a)

    @pytest.mark.parametrize("q", PRIME_POWERS_13)
    def test_closed_form_matches_literal_scan(self, fields, q):
        ctx = ctx_for_q(fields, q)
        for a in ctx.units():
            f = BinomialMap(ctx, a)
            assert has_nonzero_root(ctx, a) == any(f(x) == 0 for x in ctx.units()), (q, a)

    @pytest.mark.parametrize("q", [2, 5, 8, 11])
    def test_coset_invariance(self, fields, q):
        ctx = ctx_for_q(fields, q)
        kernel = [e for e in ctx.units() if ctx.pow(e, (q + 1) // 3) == 1]
        assert len(kernel) == (q + 1) // 3
        for a in list(ctx.units())[:: max(1, ctx.q2 // 40)]:
            if a == 0:
                continue
            status = brute_pp_test(ctx, a)
            for eps in kernel:
                assert brute_pp_test(ctx, ctx.mul(eps, a)) == status


class TestLemma31Profile:
    def qualifying(self, ctx):
        q = ctx.q
        return [
            a
            for a in ctx.units()
            if is_primitive_cube_root(ctx, ctx.pow(a, (q + 1) // 3))
        ]

    def test_q8_all_vanish(self, fields):
        ctx = fields(2, 3)
        for a in self.qualifying(ctx):
            prof = lemma31_profile(ctx, a)
            assert prof.verdict
            assert all(v == 0 for v in prof.entries.values())
            assert brute_pp_test(ctx, a)

    def test_q2_all_vanish(self, fields):
        ctx = fields(2, 1)
        for a in self.qualifying(ctx):
            assert lemma31_profile(ctx, a).verdict

    def test_q5_single_nonzero_entry(self, fields):
        ctx = fields(5, 1)
        for a in self.qualifying(ctx):
            prof = lemma31_profile(ctx, a)
            assert prof.verdict
            assert prof.expected_nonzero_index == 12
            y = ctx.pow(a, 2)
            expected = ctx.mul(ctx.pow(a, -13), ctx.add(1, y))
            assert prof.entries[12] == expected != 0
            assert not brute_pp_test(ctx, a)

    def test_precondition(self, fields):
        ctx = fields(5, 1)
        with pytest.raises(PreconditionViolated):
            lemma31_profile(ctx, 1)
        with pytest.raises(PreconditionViolated):
            lemma31_profile(fields(3, 1), 2)
