"""Classification layer: the full characterization of when a*x + x^(3q-2)
permutes F_{q^2}, and the machinery that re-verifies it at desk scale.

``theorem_predicate`` encodes the classification: the infinite family
(q = 2^odd with a^((q+1)/3) a primitive cube root of unity) plus six
sporadic (q, a) families.  ``sweep`` proves predicate == brute force
exhaustively for every prime power q up to a bound.  ``elimination_pipeline``
replays the resultant / prime-filter / gcd-chain argument that rules out
every other characteristic.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from permbinom.ffield import FieldCtx, SizeExceeded, is_primitive_cube_root, make_field
from permbinom.hermite import brute_pp_test, hermite_pp_test, period
from permbinom.symalg import (
    FactorResult,
    _sieve,
    factor_trial,
    eval_mod_p,
    g_poly,
    gcd_mod_p,
    is_prime,
    poly_str,
    prime_factors,
    resultant_z,
    roots_mod_p,
)


class UnsupportedQ(ValueError):
    """Raised for a census q outside the verification targets."""


class FixtureMismatch(AssertionError):
    """A gap in the elimination argument (see ``elimination_pipeline``)."""


# ---------------------------------------------------------------------------
# Sporadic cases
# ---------------------------------------------------------------------------


class SporadicSpec(NamedTuple):
    """One sporadic family: a^P, P = ``period(q)``, is a root of a factor, a
    little-endian integer polynomial read in F_{q^2} (a^P may lie outside F_q)."""

    q: int
    factors: Tuple[Tuple[int, ...], ...]


SPORADIC_TABLE: Tuple[SporadicSpec, ...] = (  # (q, factors)
    SporadicSpec(5, ((1, 1), (2, 1), (-2, 1), (1, -1, 1))),
    SporadicSpec(8, ((1, 0, 1, 1),)),
    SporadicSpec(11, ((-5, 1), (2, 1), (1, -1, 1))),
    SporadicSpec(17, ((-4, 1), (-5, 1))),
    SporadicSpec(23, ((1, 1),)),
    SporadicSpec(29, ((3, 1),)),
)
_SPORADIC_FACTORS = {row.q: row.factors for row in SPORADIC_TABLE}

CENSUS_TARGETS = (2, 5, 8, 11, 17, 23, 29, 32)


def _eval_int_poly(ctx: FieldCtx, f: Sequence[int], x: int) -> int:
    r = 0
    for c in reversed(f):
        r = ctx.add(ctx.mul(r, x), ctx.scalar(c))
    return r


def theorem_predicate(ctx: FieldCtx, a: int) -> bool:
    """The classification predicate: True iff (q, a) is in the infinite
    family or matches a sporadic row; both read a^P, P = ``period(q)``."""
    if a == 0:
        raise ValueError("a must be nonzero")
    family = ctx.p == 2 and ctx.e % 2 == 1
    factors = _SPORADIC_FACTORS.get(ctx.q, ())
    if not (family or factors):
        return False
    power = ctx.pow(a, period(ctx.q))
    return family and is_primitive_cube_root(ctx, power) or any(
        _eval_int_poly(ctx, f, power) == 0 for f in factors)


def sporadic_census(q: int) -> List[int]:
    """All nonzero a (as encodings) satisfying the predicate, for a target q."""
    if q not in CENSUS_TARGETS:
        raise UnsupportedQ(f"q = {q} is not a verification target")
    ctx = make_field(*_factor_prime_power(q))
    return [a for a in ctx.units() if theorem_predicate(ctx, a)]


# ---------------------------------------------------------------------------
# Elimination pipeline
# ---------------------------------------------------------------------------


class ChainResult(NamedTuple):
    """Per-prime gcd chain: G_p = gcd(g_2, ..., g_14) mod p (``shared``),
    gcd(g_2, g_5, g_8) mod p, its roots in F_p, the evaluations of later g's
    at those roots, and the concluded q set."""

    p: int
    shared: Tuple[int, ...]
    gcd: Tuple[int, ...]
    roots: Tuple[int, ...]
    evaluations: Dict[Tuple[int, int], int]
    conclusion: str
    candidate_qs: Tuple[int, ...]


class EliminationReport(NamedTuple):
    resultant: int
    factorization: FactorResult
    surviving_primes: Tuple[int, ...]
    chains: Dict[int, ChainResult]
    candidate_qs: Tuple[int, ...]


def chain_polys() -> Dict[int, List[int]]:
    """g_alpha for the alphas of the elimination: 2, 5, 8, 11 and 14."""
    return {alpha: list(g_poly(alpha).g) for alpha in (2, 5, 8, 11, 14)}


def gcd_chain(p: int, g: Dict[int, List[int]]) -> tuple:
    """The gcd chain mod a prime p over ``g`` (from ``chain_polys``):
    gcd(g_2, g_5, g_8) mod p, its roots in F_p, and g_11 and g_14 at every
    root, keyed (alpha, r) with r the signed residue in (-p/2, p/2].

    g_2 has content 1, so the chain never reduces to all zeros mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    gcd = tuple(gcd_mod_p([g[2], g[5], g[8]], p))
    roots = roots_mod_p(gcd, p)
    return gcd, roots, {(alpha, r - p if r > p // 2 else r): eval_mod_p(g[alpha], r, p)
                        for alpha in (11, 14) for r in roots}


def elimination_pipeline() -> EliminationReport:
    """Replay the elimination argument that leaves only small q.

    Steps: resultant of g_2 and g_5 with complete factorization, which
    holds for q >= 14 (``g_poly(5).q_bound``); keep the primes p = 2 mod 3
    (q = p^e = 2 mod 3 forces p = 2 mod 3 with e odd, which drops 3 and
    every p = 1 mod 3); per surviving prime, the gcd chain
    gcd(g_2, g_5, g_8) mod p and evaluations of g_11 / g_14 at its roots.
    The chains use g_14, which holds only for q >= 32
    (``g_poly(14).q_bound``), so their conclusions are about q >= 32; the
    direct sweep covers every smaller q.

    Every conclusion comes from these computed values.  ``FixtureMismatch``
    reports the gaps that would leave the argument open: an unfactored
    cofactor of the resultant, which could hide a prime 2 mod 3; a prime
    2 mod 3 without a chain that divides both leading coefficients (a
    shared root mod such p need not make p divide the resultant); a nonzero
    root, in any extension, of G_p = gcd(g_2, g_5, g_8, g_11, g_14) over
    F_p; and a root of a chain that neither g_11 nor g_14 kills.
    """
    g = chain_polys()
    res = resultant_z(g[2], g[5])
    fact = factor_trial(res)
    if not fact.complete:
        raise FixtureMismatch(f"Res(g_2, g_5) leaves the cofactor {fact.cofactor} "
                              "unfactored; it could hide a prime 2 mod 3")
    survivors = tuple(p for p in sorted(fact.factors) if p % 3 == 2)
    for p in prime_factors(math.gcd(g[2][-1], g[5][-1])):
        if p % 3 == 2 and p not in survivors:
            raise FixtureMismatch(f"p = {p} divides both leading coefficients but has no chain")

    chains: Dict[int, ChainResult] = {}
    for p in survivors:
        shared = tuple(gcd_mod_p(list(g.values()), p))
        if any(shared[:-1]):  # monic: a power of x, whose only root is 0, if not
            raise FixtureMismatch(f"G_{p} = {poly_str(shared, 'x')} has a nonzero root")
        gcd, roots, table = gcd_chain(p, g)
        # Kill early: g_14 only where g_11 vanishes, and nothing at the root 0.
        evaluations = {} if roots == (0,) else {
            (alpha, r): v for (alpha, r), v in table.items() if alpha == 11 or table[11, r] == 0}
        alive = [r for (alpha, r), v in evaluations.items() if alpha == 14 and v == 0]
        if alive:
            raise FixtureMismatch(f"root {', '.join(map(str, alive))} of the gcd "
                                  f"chain mod {p} survives g_11 and g_14")
        if roots == (0,):
            # The gcd's only root is 0, which no power of a nonzero a can
            # reach, so no q >= 32 of characteristic p works; the powers of p
            # below that are handled by the direct sweep.
            conclusion = f"no q >= 32 with p = {p} (shared root would be 0)"
        elif not roots:
            conclusion = f"no shared root mod {p}; only q = {p} remains"
        else:
            conclusion = f"every shared root mod {p} is killed; only q = {p} remains"
        chains[p] = ChainResult(p, shared, gcd, roots, evaluations, conclusion,
                                () if roots == (0,) else (p,))
    return EliminationReport(res, fact, survivors, chains,
                             tuple(sorted(q for c in chains.values() for q in c.candidate_qs)))


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


class PPVerdict(NamedTuple):
    """The verdicts on one (q, a): brute force and Hermite (None when not
    asked for) and the predicate.  A named tuple, since the sweep builds one
    per class and ``SweepResult.verdicts`` one per pair."""

    q: int
    p: int
    e: int
    a: int
    brute: Optional[bool]
    hermite: Optional[bool]
    predicted: bool

    @property
    def agree(self) -> bool:
        """Every decider that ran returned the predicate's verdict."""
        return {self.brute, self.hermite} - {None} <= {self.predicted}


class SweepResult(NamedTuple):
    """The verdicts of a sweep, one per class of a (see ``sweep``):
    ``classes[q][key]`` holds the verdicts of the least key of its Frobenius
    orbit, decided on g^(least key), which stand for every a with
    log a = key mod (q^2-1) / ``period(q)``.  ``disagreements`` lists every
    member of a class that disagrees, ascending in (q, a)."""

    q_max: int
    method: str
    classes: Dict[int, List[PPVerdict]]
    pp_counts: Dict[int, int]
    disagreements: List[PPVerdict]
    total_pairs: int

    def verdicts(self):
        """The verdicts on every (q, a), ascending in q then a.  Each field
        is built again when it is reached."""
        for reps in self.classes.values():
            yield from _members(make_field(reps[0].p, reps[0].e), reps)


def _members(ctx, reps):
    """The verdicts on every unit a of ctx, ascending: a reads those on
    reps[log a mod len(reps)], its class's representative."""
    return (reps[ctx._log[a] % len(reps)]._replace(a=a) for a in ctx.units())


def prime_powers(limit: int) -> List[int]:
    """Every prime power q <= limit, ascending."""
    return sorted(p**e for p in _sieve(2, limit + 1)
                  for e in range(1, limit.bit_length()) if p**e <= limit)


def _factor_prime_power(q: int) -> Tuple[int, int]:
    factors = factor_trial(q).factors
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return next(iter(factors.items()))


def classify(ctx: FieldCtx, a: int, method: str) -> PPVerdict:
    """The verdicts of the requested deciders and of the predicate on (q, a);
    a decider that ``method`` leaves out reads None."""
    if method not in ("brute", "hermite", "both"):
        raise ValueError(f"unknown method {method!r}")
    brute = brute_pp_test(ctx, a) if method != "hermite" else None
    herm = hermite_pp_test(ctx, a) if method != "brute" else None
    return PPVerdict(ctx.q, ctx.p, ctx.e, a, brute, herm, theorem_predicate(ctx, a))


BRUTE_HARD_CAP = 512
DEFAULT_Q_MAX = 32


def sweep(q_max: int = DEFAULT_Q_MAX, method: str = "both") -> SweepResult:
    """Exhaustive comparison of the requested tests against the predicate
    for every prime power q <= q_max and every nonzero a in F_{q^2}, decided
    once per Frobenius orbit of classes of a.

    Classes.  By the scaling lemma (``period``), PP status and the predicate,
    which reads a^P, depend on a only through key = log a mod M = (q^2-1)/P,
    P = ``period(q)``.  Each class counts P times.

    Frobenius orbits.  f_{a^p}(x^p) = f_a(x)^p, and x -> x^p permutes F_{q^2},
    so f_a and f_{a^p} permute together.  So does the predicate: p-th powers
    keep a primitive cube root of unity primitive (p != 3 where 3 | q+1), and a
    sporadic factor, with coefficients in the prime field, vanishes at y^p iff
    it vanishes at y.  As M divides q^2 - 1, a -> a^p maps key to p*key mod M,
    a permutation since p is prime to M.  Keys are walked in ascending order;
    the deciders and the predicate run on g^key for the least key of each
    orbit, and every key of that orbit holds that same record.  At q <= 32 that
    is 286 decisions for 501 classes, at 128 2,834 for 4,613, at 512 35,462 for
    50,791.

    Includes q with 3 not dividing q+1 and q = 3^e, where no permutation is
    expected.  Output order is canonical: ascending q, then key or a.
    """
    if q_max < 2:
        raise ValueError(f"q_max = {q_max} admits no prime power")
    if q_max > BRUTE_HARD_CAP:
        raise SizeExceeded(f"q_max = {q_max} exceeds the hard cap {BRUTE_HARD_CAP}")
    classes, counts, disagreements = {}, {}, []
    for q in prime_powers(q_max):
        ctx = make_field(*_factor_prime_power(q))
        reps = classes[q] = [None] * ((q * q - 1) // period(q))
        for key, v in enumerate(reps):  # v is read after every smaller key's orbit is filled
            if v is None:  # the least key of its orbit: decide it, then fill the orbit
                v, k = classify(ctx, ctx._exp[key], method), key
                while reps[k] is None:
                    reps[k] = v
                    k = k * ctx.p % len(reps)
        counts[q] = period(q) * sum(v.predicted for v in reps)
        if not all(v.agree for v in reps):  # only then is each a visited
            disagreements += (v for v in _members(ctx, reps) if not v.agree)
    return SweepResult(q_max, method, classes, counts, disagreements,
                       sum(q * q - 1 for q in classes))
