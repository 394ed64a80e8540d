import json
import math
from pathlib import Path

import pytest

from permbinom import classify, cli, hermite
from permbinom.classify import (
    CENSUS_TARGETS,
    SPORADIC_TABLE,
    FixtureMismatch,
    PPVerdict,
    UnsupportedQ,
    chain_polys,
    elimination_pipeline,
    gcd_chain,
    prime_powers,
    sporadic_census,
    sweep,
    theorem_predicate,
)
from permbinom.ffield import FieldCtx, SizeExceeded, make_field
from permbinom.hermite import brute_pp_test, hermite_pp_test
from permbinom.symalg import FactorResult, eval_mod_p, g_poly, gcd_mod_p, roots_mod_p

from oracles import BinomialMap, coset_classes, sweep_per_pair
from printed_polynomials import G2, G5, G8, G11, G14

EXPECTED_COUNTS = {2: 2, 5: 10, 8: 15, 11: 16, 17: 12, 23: 8, 29: 10, 32: 22}


class TestPredicate:
    def test_zero_rejected(self, fields):
        with pytest.raises(ValueError):
            theorem_predicate(fields(2, 1), 0)

    def test_family_q2(self, fields):
        # q = 2: exactly the two primitive cube roots of unity
        ctx = fields(2, 1)
        assert [a for a in ctx.units() if theorem_predicate(ctx, a)] == [2, 3]

    def test_no_family_for_even_exponent(self, fields):
        # q = 4 = 2^2: e even, no sporadic row -> nothing qualifies
        ctx = fields(2, 2)
        assert not any(theorem_predicate(ctx, a) for a in ctx.units())

    @pytest.mark.parametrize("q,p,e", [(5, 5, 1), (11, 11, 1), (17, 17, 1)])
    def test_sporadic_rows_match_brute(self, fields, q, p, e):
        ctx = fields(p, e)
        for a in ctx.units():
            assert theorem_predicate(ctx, a) == brute_pp_test(ctx, a)

    def test_table_is_sorted_and_unique(self):
        qs = [row.q for row in SPORADIC_TABLE]
        assert qs == sorted(qs) == [5, 8, 11, 17, 23, 29]


class TestCensus:
    @pytest.mark.parametrize("q", CENSUS_TARGETS)
    def test_counts(self, q):
        members = sporadic_census(q)
        assert len(members) == len(set(members)) == EXPECTED_COUNTS[q]

    def test_members_are_permutations(self, fields):
        members = sporadic_census(11)
        ctx = fields(11, 1)
        assert all(brute_pp_test(ctx, a) for a in members)

    def test_unsupported_q(self):
        with pytest.raises(UnsupportedQ):
            sporadic_census(4)
        with pytest.raises(UnsupportedQ):
            sporadic_census(13)


@pytest.fixture(scope="module")
def report():
    return elimination_pipeline()


class TestEliminationPipeline:
    def test_resultant_and_factorization(self, report):
        assert report.resultant < 0
        assert report.factorization.complete
        assert report.factorization.factors == {
            2: 5, 3: 35, 17: 2, 23: 1, 29: 1, 103: 1, 16069: 1
        }

    def test_surviving_primes(self, report):
        assert report.surviving_primes == (2, 17, 23, 29)
        # 103 and 16069 are both 1 mod 3, 3 is excluded outright
        assert 103 % 3 == 1 and 16069 % 3 == 1

    def test_gcd_chains(self, report):
        assert report.chains[2].gcd == (0, 1)
        assert report.chains[17].gcd == (1,)
        assert report.chains[23].gcd == (1, 1)
        assert report.chains[29].gcd == (3, 1)

    def test_root_evaluations(self, report):
        assert report.chains[23].evaluations[(11, -1)] == 11
        assert report.chains[29].evaluations[(11, -3)] == 0
        assert report.chains[29].evaluations[(14, -3)] == 15

    def test_candidate_qs(self, report):
        assert report.candidate_qs == (17, 23, 29)
        assert "no q >= 32" in report.chains[2].conclusion

    def test_root_zero_conclusion_needs_root_zero(self, report, monkeypatch):
        # The p = 2 conclusion rests on the gcd x, whose only root is 0.  A
        # gcd x + 1 mod 2 has the root 1, which must go through g_11 and g_14.
        assert report.chains[2].roots == (0,)
        # Only the chain's gcd of three is replaced: G_2 over all five stays x.
        real = classify.gcd_mod_p
        monkeypatch.setattr(
            classify, "gcd_mod_p",
            lambda polys, p: [1, 1] if p == 2 and len(polys) == 3 else real(polys, p)
        )
        chain = elimination_pipeline().chains[2]
        assert chain.gcd == (1, 1) and chain.roots == (1,)
        assert "shared root would be 0" not in chain.conclusion
        assert chain.evaluations == {(11, 1): 1}
        assert chain.candidate_qs == (2,)

    def test_incomplete_factorization_is_a_gap(self, monkeypatch):
        # An unfactored cofactor could hide a prime 2 mod 3, so the pipeline
        # stops rather than conclude from the primes it has.
        real = classify.factor_trial

        def without_16069(n):
            found = {p: m for p, m in real(n).factors.items() if p != 16069}
            return FactorResult(n=n, factors=found, complete=False, cofactor=16069)

        monkeypatch.setattr(classify, "factor_trial", without_16069)
        with pytest.raises(FixtureMismatch, match="cofactor 16069 unfactored"):
            elimination_pipeline()

    def test_surviving_root_is_a_gap(self, monkeypatch):
        # With every g_11 and g_14 value zero, the root -1 of gcd x + 1 mod 23
        # is never killed (p = 2 has only the root 0, p = 17 none).
        monkeypatch.setattr(classify, "eval_mod_p", lambda f, x, p: 0)
        with pytest.raises(FixtureMismatch,
                           match="root -1 of the gcd chain mod 23 survives g_11 and g_14"):
            elimination_pipeline()

    def test_shared_gcd_of_all_five(self, report):
        # G_p = gcd(g_2, g_5, g_8, g_11, g_14) over F_p covers every extension
        # of F_p: only x (root 0, which no nonzero a reaches) or 1.
        assert {p: c.shared for p, c in report.chains.items()} == {
            2: (0, 1), 17: (1,), 23: (1,), 29: (1,)
        }

    def test_nonlinear_shared_factor_is_a_gap(self, monkeypatch):
        # x^2 + 1 has no root in F_23 (23 = 3 mod 4), so the chain alone
        # would conclude "no shared root mod 23"; its roots lie in F_{23^2}.
        real = classify.gcd_mod_p
        monkeypatch.setattr(classify, "gcd_mod_p",
                            lambda polys, p: [1, 0, 1] if p == 23 else real(polys, p))
        with pytest.raises(FixtureMismatch, match=r"G_23 = x\^2\+1 has a nonzero root"):
            elimination_pipeline()

    def test_leading_coefficient_primes_have_chains(self, report, monkeypatch):
        # 2 divides both leading coefficients, 2 and -14, so a common root mod 2
        # need not make 2 divide the resultant; 2 must have a chain of its own.
        assert (g_poly(2).g[-1], g_poly(5).g[-1]) == (2, -14) and 2 in report.chains
        real = classify.factor_trial

        def without_2(n):
            return FactorResult(n=n, factors={p: m for p, m in real(n).factors.items() if p != 2},
                                complete=True)

        monkeypatch.setattr(classify, "factor_trial", without_2)
        with pytest.raises(FixtureMismatch,
                           match="p = 2 divides both leading coefficients but has no chain"):
            elimination_pipeline()


class TestGcdChain:
    G = {2: G2, 5: G5, 8: G8, 11: G11, 14: G14}

    def test_chain_polys_are_the_printed_ones(self):
        assert chain_polys() == self.G

    def test_agrees_with_symalg(self):
        # The table holds g_11 and g_14 at every root, killed or not, keyed by
        # the residue of that root in (-p/2, p/2].
        for p in [n for n in range(2, 200) if all(n % d for d in range(2, n))] + [16069]:
            gcd, roots, table = gcd_chain(p, self.G)
            assert list(gcd) == gcd_mod_p([G2, G5, G8], p)
            assert roots == roots_mod_p(gcd, p)
            assert len(table) == 2 * len(roots)
            for (alpha, r), value in table.items():
                assert alpha in (11, 14) and -p < 2 * r <= p and r % p in roots
                assert value == eval_mod_p(self.G[alpha], r, p)

    @pytest.mark.parametrize("n", [4, 9, 15])
    def test_composite_p_is_refused(self, n):
        # Mod 9, gcd_mod_p alone returns [1, 2, 3, 2, 1]; mod 4 and 15 it
        # fails inside pow.
        with pytest.raises(ValueError, match=f"p = {n} is not prime"):
            gcd_chain(n, self.G)


class TestSweep:
    def test_small_sweep_no_disagreements(self):
        result = sweep(13, method="both")
        assert result.disagreements == []
        assert result.pp_counts == {
            2: 2, 3: 0, 4: 0, 5: 10, 7: 0, 8: 15, 9: 0, 11: 16, 13: 0
        }

    def test_verdict_agree_and_json(self, capsys):
        # cli renders a verdict; --verdicts streams it as one sorted JSON line.
        v = next(sweep(5, method="both").verdicts())
        assert v.agree and set(cli._verdict(v)) == {"q", "p", "e", "a", "brute", "hermite",
                                                     "predicted", "agree"}
        assert cli.run(["verify", "--max-q", "5", "--verdicts"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == json.dumps(cli._verdict(v), sort_keys=True) and line.startswith("{")

    @pytest.mark.parametrize("brute", [None, True, False])
    @pytest.mark.parametrize("hermite", [None, True, False])
    @pytest.mark.parametrize("predicted", [True, False])
    def test_agree_is_one_distinct_vote(self, brute, hermite, predicted):
        # The rule before PPVerdict became a named tuple: the non-None votes
        # of the two deciders and the predicate form one value.
        v = PPVerdict(5, 5, 1, 2, brute, hermite, predicted)
        votes = {x for x in (brute, hermite, predicted) if x is not None}
        assert v.agree is (len(votes) == 1)
        assert cli._verdict(v) == {"q": 5, "p": 5, "e": 1, "a": 2, "brute": brute,
                                   "hermite": hermite, "predicted": predicted,
                                   "agree": len(votes) == 1}

    def test_single_method_leaves_other_none(self):
        result = sweep(5, method="hermite")
        assert all(v.brute is None and v.hermite is not None for v in result.verdicts())
        assert not result.disagreements

    def test_summary_shape(self, capsys):
        assert cli.run(["verify", "--max-q", "8", "--method", "brute", "--json"]) == 0
        s = json.loads(capsys.readouterr().out)["results"]
        assert s["q_max"] == 8 and s["total_pairs"] == sum(
            q * q - 1 for q in (2, 3, 4, 5, 7, 8)
        )

    def test_results_share_no_mutable_field(self):
        a, b = sweep(8, method="brute"), sweep(8, method="brute")
        for name in ("classes", "pp_counts", "disagreements"):
            assert getattr(a, name) is not getattr(b, name), name

    def test_bad_method(self):
        with pytest.raises(ValueError):
            sweep(5, method="magic")

    def test_classify_refuses_unknown_method(self, fields):
        # classify reads the method names, so it refuses an unknown one
        # rather than run no decider and report agreement.
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            classify.classify(fields(5, 1), 3, "bogus")

    def test_hard_cap(self):
        with pytest.raises(SizeExceeded):
            sweep(513)

    @pytest.mark.parametrize("q_max", [1, 0, -7])
    def test_no_prime_power_below_bound(self, q_max):
        with pytest.raises(ValueError, match="no prime power"):
            sweep(q_max)

    def test_prime_powers(self):
        assert prime_powers(32) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                    23, 25, 27, 29, 31, 32]


class TestCosetClasses:
    @pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (11, 1)])
    def test_partition_and_constancy(self, fields, p, e):
        ctx = fields(p, e)
        classes = coset_classes(ctx)
        q = ctx.q
        assert len(classes) == 3 * (q - 1)
        assert all(len(c) == (q + 1) // 3 for c in classes)
        assert sum(len(c) for c in classes) == ctx.q2 - 1
        for cls in classes:
            status = brute_pp_test(ctx, cls[0])
            assert all(brute_pp_test(ctx, a) == status for a in cls[1:])

    def test_rejects_bad_q(self, fields):
        with pytest.raises(ValueError):
            coset_classes(fields(3, 1))


def period(q):
    """P = (q+1)/gcd(3, q+1), the size of one class of a."""
    return (q + 1) // math.gcd(3, q + 1)


class TestClassSweep:
    """The sweep decides once per class of log a mod M = (q-1)*gcd(3, q+1);
    these pin the lemmas it rests on and compare it with every pair decided
    on its own."""

    def test_exponents_are_the_period(self):
        # The family's (q+1)/3 at q = 2^odd; the sporadic rows read a^P
        # itself (test_predicate_reads_only_a_to_the_period).
        assert all((2**k + 1) // 3 == period(2**k) for k in range(1, 24, 2))

    def test_period_is_the_index_of_the_scaling_subgroup(self):
        # M = (q^2-1)/P is the index gcd(3(q-1), q^2-1) of {l^(3-3q)} in
        # F_{q^2}^*, for every prime power q <= 4096.
        for q in prime_powers(4096):
            assert (q * q - 1) // hermite.period(q) == math.gcd(3 * (q - 1), q * q - 1), q

    @pytest.mark.parametrize("q", [2, 5, 8, 11, 17, 23, 29, 32])
    def test_predicate_reads_only_a_to_the_period(self, fields, monkeypatch, q):
        ctx = fields(*classify._factor_prime_power(q))
        exponents, real = set(), FieldCtx.pow
        monkeypatch.setattr(FieldCtx, "pow",
                            lambda self, a, k: exponents.add(k) or real(self, a, k))
        for a in ctx.units():
            theorem_predicate(ctx, a)
        assert exponents == {period(q)}

    @staticmethod
    def assert_scaling(ctx, a, lam):
        # f_a(lam*x) = lam^(3q-2) * f_b(x) with b = a * lam^(3-3q), at every x.
        q = ctx.q
        f, f_b = BinomialMap(ctx, a), BinomialMap(ctx, ctx.mul(a, ctx.pow(lam, 3 - 3 * q)))
        scale = ctx.pow(lam, 3 * q - 2)
        for x in ctx.elements():
            assert f(ctx.mul(lam, x)) == ctx.mul(scale, f_b(x)), (q, a, lam, x)

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_scaling_identity_every_lambda(self, fields, p, e):
        ctx = fields(p, e)
        for a in ctx.units():
            for lam in ctx.units():
                self.assert_scaling(ctx, a, lam)

    @pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2), (2, 4)])
    def test_scaling_identity_by_generator(self, fields, p, e):
        ctx = fields(p, e)
        for a in ctx.units():
            self.assert_scaling(ctx, a, ctx.generator)

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)])
    def test_frobenius_identity(self, fields, p, e):
        # f_{a^p}(x^p) = f_a(x)^p at every a and x, evaluated literally.
        ctx = fields(p, e)
        for a in ctx.units():
            f, f_p = BinomialMap(ctx, a), BinomialMap(ctx, ctx.pow(a, p))
            for x in ctx.elements():
                assert f_p(ctx.pow(x, p)) == ctx.pow(f(x), p), (ctx.q, a, x)

    @pytest.mark.parametrize("q", prime_powers(32))
    def test_frobenius_moves_key_and_keeps_verdicts(self, fields, q):
        # a -> a^p maps key to p*key mod M, and no decider or the predicate
        # tells a from a^p: the two facts that let the sweep decide once
        # per orbit of keys.
        ctx = fields(*classify._factor_prime_power(q))
        m = (q - 1) * math.gcd(3, q + 1)
        for a in ctx.units():
            b = ctx.pow(a, ctx.p)
            assert ctx._log[b] % m == ctx.p * ctx._log[a] % m, (q, a)
            for decide in (brute_pp_test, hermite_pp_test, theorem_predicate):
                assert decide(ctx, b) == decide(ctx, a), (q, a, decide.__name__)

    @pytest.mark.parametrize("q_max,method", [(64, "both"), (16, "brute"), (16, "hermite")])
    def test_expansion_matches_per_pair_oracle(self, q_max, method):
        # q <= 64 holds both 3 | q+1 (2, 5, 8, ...) and 3 not dividing q+1
        # (3, 4, 7, 9, ...), where the classes have q+1 members.
        result, oracle = sweep(q_max, method), sweep_per_pair(q_max, method)
        assert list(result.verdicts()) == oracle
        assert result.total_pairs == len(oracle)
        assert result.pp_counts == {q: sum(v.predicted for v in oracle if v.q == q)
                                    for q in prime_powers(q_max)}
        assert result.disagreements == [v for v in oracle if not v.agree] == []
        for q, reps in result.classes.items():
            ctx = make_field(*classify._factor_prime_power(q))
            assert len(reps) * period(q) == q * q - 1
            # Every key holds the record of its orbit's least key, k -> p*k.
            least = [min(key * ctx.p**i % len(reps) for i in range(2 * ctx.e))
                     for key in range(len(reps))]
            assert [v.a for v in reps] == [ctx._exp[key] for key in least]

    def test_verify_decides_once_per_class(self, monkeypatch, capsys):
        # 501 classes among the 6,135 pairs at q <= 32 fall into 286 Frobenius
        # orbits, each decided once; one field per q, and the default path
        # expands no verdict.
        calls = dict.fromkeys(("make_field", "brute_pp_test", "hermite_pp_test",
                               "theorem_predicate"), 0)

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(classify, name, counted(name, getattr(classify, name)))
        monkeypatch.setattr(classify.SweepResult, "verdicts", None)
        assert cli.run(["verify", "--max-q", "32", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["total_pairs"] == 6135
        assert calls == {"make_field": 18, "brute_pp_test": 286, "hermite_pp_test": 286,
                         "theorem_predicate": 286}

    @pytest.mark.parametrize("key", [0, 2])  # at q = 5: a = 1 is no PP, a = 14 is one
    def test_flipped_class_is_listed_whole(self, monkeypatch, capsys, key):
        # A brute force that is wrong on one class of q = 5 (M = 12, P = 2),
        # the least of its Frobenius orbit (key -> 5*key mod 12), must show
        # every member of that orbit's classes, and nothing else.
        real = classify.brute_pp_test
        monkeypatch.setattr(classify, "brute_pp_test", lambda ctx, a: real(ctx, a) != (
            ctx.q == 5 and ctx._log[a] % 12 == key))
        ctx = make_field(5, 1)
        orbit = {0: {0}, 2: {2, 10}}[key]
        members = sorted(a for k in orbit for a in ctx._exp[k::12])
        assert len(members) == 2 * len(orbit)
        result = sweep(8)
        assert [v.a for v in result.disagreements] == members
        assert all(v.q == 5 and v.brute is not v.predicted and v.hermite is v.predicted
                   for v in result.disagreements)
        assert cli.run(["verify", "--max-q", "8", "--json"]) == cli.EXIT_MISMATCH
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "fail"
        assert doc["results"]["disagreements"] == [cli._verdict(v) for v in result.disagreements]
        # The stream differs from the golden in the members' lines and the count.
        assert cli.run(["verify", "--max-q", "8", "--verdicts"]) == cli.EXIT_MISMATCH
        golden = Path(__file__).with_name("golden") / "verify_max-q-8_verdicts.txt"
        want = golden.read_text().splitlines()
        for v in result.disagreements:  # q = 5 follows the 3 + 8 + 15 pairs of q = 2, 3, 4
            assert json.loads(want[25 + v.a])["a"] == v.a
            want[25 + v.a] = json.dumps(cli._verdict(v), sort_keys=True)
        want[-1] = f"{len(members)} disagreements"
        assert capsys.readouterr().out.splitlines() == want

    def test_flip_off_the_orbit_representative_needs_the_per_pair_oracle(self, monkeypatch):
        # The trade of deciding once per orbit: a brute force wrong on class 10
        # of q = 5 alone, which lies in the orbit of 2 and is never decided, is
        # invisible to sweep; only the per-pair sweep of tests/oracles.py sees it.
        real = classify.brute_pp_test
        monkeypatch.setattr(classify, "brute_pp_test", lambda ctx, a: real(ctx, a) != (
            ctx.q == 5 and ctx._log[a] % 12 == 10))
        ctx = make_field(5, 1)
        result, oracle = sweep(8), sweep_per_pair(8, "both")
        assert result.disagreements == [] and list(result.verdicts()) != oracle
        assert [v.a for v in oracle if not v.agree] == sorted(ctx._exp[10::12])
