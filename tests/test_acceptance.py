"""Acceptance suite: one checkpoint per criterion, each printing a single
PASS/FAIL line (with wall time) that survives pytest's capture.

``criterion_3_printed_narrative_values`` checks the previously published
intermediate residues of the elimination argument against the recomputed
chain.  They are stated on the reciprocal parameter x -> 1/x (-10 is the
inverse of -3 mod 29): the published gcd and the g_11 zero are reproduced
exactly there, and the published g_11(-1) = 12 mod 23 is the recomputed
value with the opposite sign.  The published g_14(-10) = 2 mod 29 is not
reproduced; the recomputed 16 is pinned, and the source of 2 is open.  Every
published residue agrees with the recomputed one on zero versus nonzero, so
no conclusion of the pipeline changes.  The test also asserts a stated
hypothesis that fits all three published values: each is the scaled bracket
(-1)^(alpha+1) * 3^d_alpha * B_alpha(x) mod p, taken before the division by
v(v^2+v+1).  See the README.
"""

import random
import time
from contextlib import contextmanager

import pytest

from permbinom.classify import (
    BRUTE_HARD_CAP,
    elimination_pipeline,
    sweep,
)
from permbinom.cli import EXIT_OK, run
from permbinom.ffield import SizeExceeded, is_primitive_cube_root, make_field
from permbinom.hermite import (
    brute_pp_test,
    hermite_pp_test,
    s_q,
)
from permbinom.symalg import eval_mod_p, factor_trial, g_poly, gcd_mod_p, resultant_z

from oracles import lemma31_profile, oracle_neg, power_sum
from printed_polynomials import (
    G2, G5, G8, G11, G14, PRINTED_D, PRINTED_GCD, PRINTED_RESIDUES,
)

FIXTURES = {2: G2, 5: G5, 8: G8, 11: G11, 14: G14}
FIELD_FOR_Q = {
    2: (2, 1), 5: (5, 1), 8: (2, 3), 11: (11, 1), 17: (17, 1),
    23: (23, 1), 29: (29, 1), 32: (2, 5), 512: (2, 9),
}

_ctx_cache = {}


def field_for(q):
    if q not in _ctx_cache:
        _ctx_cache[q] = make_field(*FIELD_FOR_Q[q])
    return _ctx_cache[q]


# one line per criterion; echoed after the run by the hook in conftest.py
CHECKPOINT_LINES = []


@contextmanager
def checkpoint(label, budget):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        line = f"[{label}] {'PASS' if ok else 'FAIL'} in {dt:.2f}s (budget {budget}s)"
        CHECKPOINT_LINES.append(line)
        print(line, flush=True)
    assert dt < budget, f"{label} exceeded its {budget}s budget ({dt:.2f}s)"


def test_criterion_1_g_polynomial_fixtures():
    with checkpoint("criterion 1: g-polynomial fixtures", 1):
        for alpha, coeffs in sorted(FIXTURES.items()):
            rec = g_poly(alpha)
            assert list(rec.g) == coeffs
            assert len(rec.g) == 3 * alpha
            assert rec.d_alpha == PRINTED_D[alpha]


def test_criterion_2_resultant():
    with checkpoint("criterion 2: Res(g_2, g_5)", 5):
        r = resultant_z(G2, G5)
        # asserted on the magnitude: the Sylvester determinant itself is
        # negative, and only the prime support feeds the elimination
        assert abs(r) == 2**5 * 3**35 * 17**2 * 23 * 29 * 103 * 16069
        fact = factor_trial(r)
        assert fact.complete
        assert fact.factors == {2: 5, 3: 35, 17: 2, 23: 1, 29: 1, 103: 1, 16069: 1}


def test_criterion_3_elimination_pipeline_structural():
    with checkpoint("criterion 3: elimination pipeline (recomputed residues)", 5):
        report = elimination_pipeline()
        assert report.surviving_primes == (2, 17, 23, 29)
        assert report.chains[2].gcd == (0, 1)    # x
        assert report.chains[17].gcd == (1,)     # 1
        assert report.chains[23].gcd == (1, 1)   # x + 1
        assert report.chains[29].gcd == (3, 1)   # x + 3
        assert report.chains[23].evaluations[(11, -1)] == 11
        assert report.chains[29].evaluations[(11, -3)] == 0
        assert report.chains[29].evaluations[(14, -3)] == 15
        assert report.candidate_qs == (17, 23, 29)


def test_criterion_3_printed_narrative_values():
    # The published residues are stated on the reciprocal parameter: they
    # are values of rev g = x^deg g(1/x), whose roots mod p are the inverses
    # of the roots of g.  The gcd and the g_11 zero are reproduced exactly
    # there.  The published g_11(-1) = 12 mod 23 is -11, the recomputed value
    # with the opposite sign: a (-1)^alpha normalisation of g (alpha = 11 is
    # odd) flips every value and changes no gcd or zero.  The published
    # g_14(-10) = 2 mod 29 is not reproduced, and the sign cannot explain it
    # (alpha = 14 is even; -16 is 13); its source is open until the paper's
    # elimination section is at hand, so the recomputed 16 is pinned and the
    # discrepancy is kept visible.  The pipeline only asks whether a residue
    # is zero, and every published residue agrees with its recomputed value
    # on that.
    with checkpoint("criterion 3: elimination pipeline (published residues)", 5):
        report = elimination_pipeline()
        rev = {alpha: list(reversed(g_poly(alpha).g)) for alpha in FIXTURES}

        # gcd(rev g_2, rev g_5, rev g_8) mod 29 is the published x + 10, and
        # its root -10 is the inverse of the forward root -3
        assert tuple(gcd_mod_p([rev[2], rev[5], rev[8]], 29)) == PRINTED_GCD
        (root,) = report.chains[29].roots
        assert -PRINTED_GCD[0] % 29 == pow(root, -1, 29)

        recomputed = {
            (23, 11, -1): report.chains[23].evaluations[(11, -1)],
            (29, 11, -10): eval_mod_p(rev[11], -10, 29),
            (29, 14, -10): eval_mod_p(rev[14], -10, 29),
        }
        assert recomputed == {(23, 11, -1): 11, (29, 11, -10): 0, (29, 14, -10): 16}
        # the reciprocal side is tied to the forward evaluations:
        # rev g(1/r) = r^(-deg) g(r)
        forward = report.chains[29].evaluations[(14, -3)]
        assert recomputed[(29, 14, -10)] == pow(-10, len(rev[14]) - 1, 29) * forward % 29

        # reproduced exactly: the g_11 zero at -10 mod 29
        assert PRINTED_RESIDUES[(29, 11, -10)] == recomputed[(29, 11, -10)]
        # reproduced up to the sign of g_11
        assert PRINTED_RESIDUES[(23, 11, -1)] == -recomputed[(23, 11, -1)] % 23
        # not reproduced: the published g_14 value differs from the pinned 16
        assert PRINTED_RESIDUES[(29, 14, -10)] != recomputed[(29, 14, -10)]
        # every published residue agrees with its recomputed value on zero
        # versus nonzero, the only property the pipeline uses to kill a root
        for key, printed in PRINTED_RESIDUES.items():
            assert (printed == 0) == (recomputed[key] == 0), key

        # A stated hypothesis, not a derivation: each published residue is
        # (-1)^(alpha+1) * 3^d_alpha * B_alpha(x) mod p, the scaled bracket
        # before its division by v(v^2+v+1), which is nonzero at these points.
        # It fits all three, the published 2 included.
        def signed_scaled_bracket(p, alpha, x):
            rec = g_poly(alpha)
            assert x * (x * x + x + 1) % p
            return (-1) ** (alpha + 1) * eval_mod_p(rec.scaled, x, p) % p

        # 12 at (23, 11, -1), 2 at (29, 14, -10) and 0 at (29, 11, -10)
        assert {key: signed_scaled_bracket(*key) for key in PRINTED_RESIDUES} == PRINTED_RESIDUES


def test_criterion_4_theorem_equivalence_sweep():
    with checkpoint("criterion 4: brute == predicate for q <= 32", 60):
        result = sweep(32, method="brute")
        assert result.disagreements == []
        expected = {2: 2, 5: 10, 8: 15, 11: 16, 17: 12, 23: 8, 29: 10, 32: 22}
        for q, count in result.pp_counts.items():
            assert count == expected.get(q, 0), (q, count)
        assert set(expected) <= set(result.pp_counts)


def test_criterion_5_hermite_oracle_equivalence():
    with checkpoint("criterion 5: hermite == brute for q <= 13", 30):
        result = sweep(13, method="both")
        assert result.disagreements == []
        assert all(v.hermite == v.brute for v in result.verdicts())


def test_criterion_6_power_sum_identity():
    with checkpoint("criterion 6: power-sum identity", 120):
        for q in (5, 8, 11):
            ctx = field_for(q)
            for a in ctx.units():
                for alpha in range(q):
                    s = alpha + (q - 1 - alpha) * q
                    lhs = power_sum(ctx, a, s)
                    rhs = oracle_neg(
                        ctx, ctx.mul(ctx.pow(a, (alpha + 1) * (1 - q)), s_q(ctx, a, alpha))
                    )
                    assert lhs == rhs
        for q in (17, 23, 29, 32):
            ctx = field_for(q)
            rng = random.Random(1000 + q)
            for _ in range(200):
                a = rng.randrange(1, ctx.q2)
                alpha = rng.randrange(q)
                s = alpha + (q - 1 - alpha) * q
                lhs = power_sum(ctx, a, s)
                rhs = oracle_neg(
                    ctx, ctx.mul(ctx.pow(a, (alpha + 1) * (1 - q)), s_q(ctx, a, alpha))
                )
                assert lhs == rhs


def test_criterion_7_reduced_profile():
    with checkpoint("criterion 7: reduced power-sum profiles", 30):
        for q in (2, 8, 32, 5, 11, 17, 23, 29):
            ctx = field_for(q)
            k = (q + 1) // 3
            for a in ctx.units():
                if not is_primitive_cube_root(ctx, ctx.pow(a, k)):
                    continue
                prof = lemma31_profile(ctx, a)
                assert prof.verdict, (q, a)
                if q in (2, 8, 32):
                    assert all(v == 0 for v in prof.entries.values())
                else:
                    assert prof.entries[prof.expected_nonzero_index] != 0


def test_criterion_8_numeric_bridge():
    with checkpoint("criterion 8: symbolic g vs field arithmetic", 60):
        rng = random.Random(86)
        for alpha in sorted(FIXTURES):
            rec = g_poly(alpha)
            for q in (8, 11, 17, 23, 29, 32):
                if q < rec.q_bound:
                    continue
                ctx = field_for(q)
                for _ in range(25):
                    a = rng.randrange(1, ctx.q2)
                    yh = ctx.pow(a, q * (q + 1) // 3)
                    gval = 0
                    for c in reversed(rec.g):
                        gval = ctx.add(ctx.mul(gval, yh), ctx.scalar(c))
                    rhs = ctx.mul(
                        ctx.mul(
                            ctx.pow(oracle_neg(ctx, a), (alpha + 1) * q // 3),
                            ctx.pow(yh, -3 * alpha - 2),
                        ),
                        ctx.mul(
                            ctx.add(ctx.add(ctx.mul(yh, yh), yh), 1),
                            ctx.mul(ctx.pow(ctx.scalar(3), -rec.d_alpha), gval),
                        ),
                    )
                    assert s_q(ctx, a, alpha) == rhs, (q, alpha, a)


def test_criterion_9_full_scale_honesty():
    with checkpoint("criterion 9: scale boundary", 5):
        # The infinite family cannot be certified for arbitrary k by
        # computation; the substitute is the property suite above plus
        # exhaustive sweeps up to the cap (permbinom verify --max-q 512).
        # Here we pin the boundary: the cap admits 512 and refuses anything
        # larger.
        assert BRUTE_HARD_CAP == 512
        with pytest.raises(SizeExceeded):
            sweep(513)
        # the whole family at its largest member under the cap, q = 2^9
        ctx = field_for(512)
        members = [a for a in ctx.units() if is_primitive_cube_root(ctx, ctx.pow(a, 171))]
        assert len(members) == 342
        for a in members:
            assert brute_pp_test(ctx, a) and hermite_pp_test(ctx, a)


def test_criterion_9_top_of_range_check(capsys):
    with checkpoint("criterion 9: check at q = 2^11", 30):
        # q^2 = 2^22, near the size bound 2^24: the field is tabled like
        # every accepted field, so both deciders finish.
        assert run(["check", "--q", "2^11", "--a", "1"]) == EXIT_OK
        assert "agree = True" in capsys.readouterr().out
