"""The benchmark's three workloads and their correctness gates.

Each workload has a set-up (not timed as ``wall_s``), a timed phase that
calls the package only through public functions of ``permbinom.cli``,
``classify``, ``hermite``, ``symalg`` and ``ffield``, and a gate that checks
every answer against the known classification or against values captured
in ``golden.json``.  The package is passed in as ``pkg`` (a namespace of
freshly imported modules) so that every pass starts from cold module-level
caches, as a user's process does.

``WORKLOADS`` holds the measured sizes, ``SMOKE`` reduced sizes for the
self-test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from calibrate import bigint_loop, small_table_loop, table_loop

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


class Checks:
    """Correctness checks of one run: how many were made and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def prime_powers(limit: int) -> list:
    """(q, p, e) for every prime power q <= limit, ascending in q."""
    out = []
    for p in primes_below(limit + 1):
        q, e = p, 1
        while q <= limit:
            out.append((q, p, e))
            q, e = q * p, e + 1
    return sorted(out)


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


def hermite_path(q: int) -> dict:
    """Which branch of hermite_pp_test decides nonzero roots for this q."""
    return {"path": "power_sum" if (q + 1) % 3 == 0 else "root_scan"}


class Workload:
    name = ""
    # Whether the untraced reference pass of a traced run records spans.
    trace_reference = False
    # The calibration loop sampled beside untraced passes (see calibrate.py).
    calibration = None

    def setup(self, pkg, seed: int, tr):
        """Build the inputs from the seed; returns the timed phase's state."""
        return None

    def run(self, pkg, state, tr):
        raise NotImplementedError

    def traced_run(self, pkg, state, tr):
        """The timed phase of a traced pass; by default the same calls."""
        return self.run(pkg, state, tr)

    def check(self, out, checks: Checks, golden: dict) -> None:
        raise NotImplementedError

    def check_traced(self, out, checks: Checks, golden: dict) -> None:
        self.check(out, checks, golden)

    def counts(self, out) -> dict:
        """Per-layer counts read from the answers of a traced pass."""
        return {}

    def fields(self) -> list:
        """(p, e) of every field the workload builds."""
        return []


class Sweep(Workload):
    """``permbinom verify --max-q N --method both --json`` in-process.

    The sweep is exhaustive, so the seed picks nothing.  The traced pass
    replays the loop of ``classify.sweep`` from outside: ``make_field`` per q,
    then the three deciders per (q, a).
    """

    name = "sweep"
    calibration = staticmethod(small_table_loop)
    # What classify.sweep calls through classify's namespace.
    HOOKED = ("make_field", "brute_pp_test", "hermite_pp_test", "theorem_predicate")
    # run() makes one package call, so two spans around it cost nothing and
    # split cli.run into cli overhead and classify.sweep.
    trace_reference = True

    def __init__(self, max_q: int = 32):
        self.max_q = max_q
        self.argv = ["verify", "--max-q", str(max_q), "--method", "both", "--json"]

    def fields(self):
        return [(p, e) for _, p, e in prime_powers(self.max_q)]

    def run(self, pkg, state, tr):
        # cli.run reaches classify.sweep, and that make_field and the three
        # deciders, through attributes of the classify module.  Rebinding them
        # routes the calls through the tracer without touching src/: an
        # untraced pass can take a calibration sample between any two calls,
        # a traced reference pass gets one span around classify.sweep.
        classify = pkg.classify
        names = ("sweep",) if tr.enabled else self.HOOKED
        real = {name: getattr(classify, name) for name in names}
        for name, fn in real.items():
            setattr(classify, name, lambda *a, _fn=fn, _name=name, **k: tr.call(
                f"classify.{_name}", lambda: _fn(*a, **k)))
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = tr.call("cli.run", pkg.cli.run, self.argv)
        finally:
            for name, fn in real.items():
                setattr(classify, name, fn)
        return rc, stdout.getvalue()

    def traced_run(self, pkg, state, tr):
        make_field = pkg.ffield.make_field
        brute, herm = pkg.hermite.brute_pp_test, pkg.hermite.hermite_pp_test
        predicate = pkg.classify.theorem_predicate
        counts, disagreements, pairs, hermite_true = {}, 0, 0, 0
        for q, p, e in prime_powers(self.max_q):
            ctx = tr.call("ffield.make_field", make_field, p, e, attrs={"elements": q * q})
            path = hermite_path(q)
            counts[q] = 0
            for a in range(1, q * q):
                b = tr.call("hermite.brute_pp_test", brute, ctx, a)
                h = tr.call("hermite.hermite_pp_test", herm, ctx, a, attrs=path)
                t = tr.call("classify.theorem_predicate", predicate, ctx, a)
                counts[q] += t
                hermite_true += h
                disagreements += not b == h == t
                pairs += 1
        return {"pp_counts": counts, "disagreements": disagreements,
                "total_pairs": pairs, "hermite_true": hermite_true}

    def _check_summary(self, summary, checks, golden):
        expected = {int(q): c for q, c in golden["sweep"]["pp_counts"].items()}
        for q, _, _ in prime_powers(self.max_q):
            got = summary["pp_counts"].get(q)
            checks.expect(got == expected.get(q, 0), f"sweep: pp_count at q={q} is {got}")
        checks.expect(summary["disagreements"] == 0,
                      f"sweep: {summary['disagreements']} disagreements")
        pairs = sum(q * q - 1 for q, _, _ in prime_powers(self.max_q))
        checks.expect(summary["total_pairs"] == pairs,
                      f"sweep: {summary['total_pairs']} pairs, expected {pairs}")

    def check(self, out, checks, golden):
        rc, stdout = out
        checks.expect(rc == 0, f"sweep: verify exited {rc}")
        doc = json.loads(stdout)
        # `config` is not compared: it echoes flags, not results.
        checks.expect(doc["status"] == "pass", f"sweep: status {doc['status']!r}")
        results = doc["results"]
        self._check_summary({
            "pp_counts": {int(q): c for q, c in results["pp_counts"].items()},
            "disagreements": len(results["disagreements"]),
            "total_pairs": results["total_pairs"],
        }, checks, golden)

    def check_traced(self, out, checks, golden):
        self._check_summary(out, checks, golden)

    def counts(self, out):
        return {"hermite.pp_true": out["hermite_true"]}


class BigField(Workload):
    """All three deciders on large fields, one per arithmetic shape.

    In each field with 3 | q+1 the pair set holds every a whose
    a^((q+1)/3) is a primitive cube root of unity: for q = 2^odd that is the
    infinite family (all PPs, full power-sum path), for odd q the same class
    gives no PP.  Seeded random a follow in every field; most exit early.
    """

    name = "bigfield"
    calibration = staticmethod(table_loop)

    def __init__(self, fields=((2, 7), (127, 1), (5, 3)), n_random: int = 20):
        self._fields = tuple(fields)
        self.n_random = n_random

    def fields(self):
        return list(self._fields)

    def setup(self, pkg, seed, tr):
        rng = random.Random(seed)
        pairs, classes = [], {}
        for p, e in self._fields:
            q = p**e
            ctx = tr.call("ffield.make_field", pkg.ffield.make_field, p, e,
                          attrs={"elements": q * q})
            cube_class = []
            if (q + 1) % 3 == 0:
                k = (q + 1) // 3
                cube_class = [a for a in range(1, q * q)
                              if pkg.ffield.is_primitive_cube_root(ctx, ctx.pow(a, k))]
                classes[f"{p}^{e}"] = len(cube_class)
            members = set(cube_class)
            family = p == 2 and e % 2 == 1
            chosen = cube_class + [rng.randrange(1, q * q) for _ in range(self.n_random)]
            path = hermite_path(q)
            pairs += [(ctx, a, family and a in members, path) for a in chosen]
        return pairs, classes

    def run(self, pkg, state, tr):
        brute, herm = pkg.hermite.brute_pp_test, pkg.hermite.hermite_pp_test
        predicate = pkg.classify.theorem_predicate
        pairs, classes = state
        verdicts = [
            (ctx.descriptor(), a, expected,
             tr.call("hermite.brute_pp_test", brute, ctx, a),
             tr.call("hermite.hermite_pp_test", herm, ctx, a, attrs=path),
             tr.call("classify.theorem_predicate", predicate, ctx, a))
            for ctx, a, expected, path in pairs
        ]
        return verdicts, classes

    def check(self, out, checks, golden):
        verdicts, classes = out
        for field, size in classes.items():
            want = golden["bigfield"]["class_sizes"].get(field)
            checks.expect(size == want, f"bigfield: cube-root class of {field} has {size}, expected {want}")
        for field, a, expected, b, h, t in verdicts:
            checks.expect(b == h == t == expected,
                          f"bigfield: {field} a={a}: brute={b} hermite={h} predicate={t}, "
                          f"expected {expected}")

    def counts(self, out):
        return {"hermite.pp_true": sum(v[4] for v in out[0])}


# q = p^e = 2 mod 3 needs p = 2 mod 3; above 29 no such prime divides
# Res(g_2, g_5), so gcd(g_2, g_5, g_alpha) mod p must be 1.
GCD_PRIMES = [p for p in primes_below(10**4) if p % 3 == 2 and p > 29]


class Elimination(Workload):
    """The symbolic replay in ``symalg``: no field tables at all.

    g_alpha for alpha = 2 mod 3 up to ``max_alpha``, the resultant of each
    consecutive pair and its trial factorization, gcd chains mod seeded
    primes, then ``elimination_pipeline()``.
    """

    name = "elimination"
    calibration = staticmethod(bigint_loop)

    def __init__(self, max_alpha: int = 29, n_primes: int = 64):
        self.alphas = list(range(2, max_alpha + 1, 3))
        self.n_primes = n_primes

    def setup(self, pkg, seed, tr):
        return random.Random(seed).sample(GCD_PRIMES, self.n_primes)

    def run(self, pkg, state, tr):
        symalg = pkg.symalg
        g = {al: tr.call("symalg.g_poly", symalg.g_poly, al).g for al in self.alphas}
        resultants = {}
        for left, right in zip(self.alphas, self.alphas[1:]):
            r = tr.call("symalg.resultant_z", symalg.resultant_z, list(g[left]), list(g[right]))
            resultants[left, right] = (r, tr.call("symalg.factor_trial", symalg.factor_trial, r))
        gcds = {
            (p, al): tr.call("symalg.gcd_mod_p", symalg.gcd_mod_p, [g[2], g[5], g[al]], p)
            for p in state
            for al in self.alphas[2:]
        }
        report = tr.call("classify.elimination_pipeline", pkg.classify.elimination_pipeline)
        return g, resultants, gcds, report

    def check(self, out, checks, golden):
        gold = golden["elimination"]
        g, resultants, gcds, report = out
        for al, coeffs in g.items():
            checks.expect(digest(list(coeffs)) == gold["g_poly_sha256"][str(al)],
                          f"elimination: g_{al} digest")
        for (left, right), (r, fact) in resultants.items():
            checks.expect(digest(r) == gold["resultant_sha256"][f"{left},{right}"],
                          f"elimination: Res(g_{left}, g_{right}) digest")
            checks.expect(fact.reassemble() == r,
                          f"elimination: factors of Res(g_{left}, g_{right}) do not reassemble")
        for (p, al), gcd in gcds.items():
            checks.expect(list(gcd) == [1], f"elimination: gcd(g_2, g_5, g_{al}) mod {p} = {gcd}")
        # The pipeline's mathematical content; its `conclusion` strings are prose.
        pipe = gold["pipeline"]
        checks.expect(digest(report.resultant) == gold["resultant_sha256"]["2,5"],
                      "elimination: pipeline resultant digest")
        checks.expect(report.factorization.complete, "elimination: pipeline factorization incomplete")
        checks.expect(report.factorization.reassemble() == report.resultant,
                      "elimination: pipeline factors do not reassemble")
        factors = {str(p): m for p, m in report.factorization.factors.items()}
        checks.expect(factors == pipe["factorization"], f"elimination: factorization {factors}")
        checks.expect(list(report.surviving_primes) == pipe["survivors"] == list(report.chains),
                      f"elimination: survivors {report.surviving_primes}, chains {list(report.chains)}")
        for p, chain in report.chains.items():
            checks.expect(list(chain.gcd) == pipe["gcds"].get(str(p)),
                          f"elimination: chain gcd mod {p} = {chain.gcd}")
            evals = {f"{al},{r}": v for (al, r), v in chain.evaluations.items()}
            checks.expect(evals == pipe["evaluations"].get(str(p)),
                          f"elimination: evaluations mod {p} = {evals}")
        checks.expect(list(report.candidate_qs) == pipe["candidate_qs"],
                      f"elimination: candidate q {report.candidate_qs}")

    def counts(self, out):
        resultants = out[1].values()
        return {
            "symalg.resultant_z.bits": sum(abs(r).bit_length() for r, _ in resultants),
            "symalg.factor_trial.complete": sum(f.complete for _, f in resultants),
        }


WORKLOADS = {w.name: w for w in (Sweep(), BigField(), Elimination())}

SMOKE = {w.name: w for w in (
    Sweep(max_q=8),
    BigField(fields=((2, 5), (3, 2), (41, 1)), n_random=5),
    Elimination(max_alpha=14, n_primes=3),
)}
