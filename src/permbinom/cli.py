"""Command-line front end.

Every subcommand prints a human-readable report by default and a
deterministic JSON document with ``--json`` (wall time is reported on
stderr only, so identical argv always produces byte-identical stdout).

Exit codes: 0 = all checks pass, 1 = mathematical mismatch, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from permbinom import classify, hermite, symalg
from permbinom.ffield import DEFAULT_SIZE_BOUND, is_prime, make_field, parse_field_descriptor
from permbinom.symalg import poly_json, poly_str

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_A_DIGITS = 40
# Size bounds of the symbolic commands: g_poly(200) takes 0.03 s, Res(g_26, g_29)
# has 3,706 digits (the next pair more than the 4,300 that str() converts), and
# is_prime, trial division, takes 0.12 s at the largest prime below 10^12.
GPOLY_ALPHA_MAX, RESULTANT_ALPHA_MAX, GCDCHAIN_P_MAX = 200, 29, 10**12


class UsageError(Exception):
    """A bad argument value: ``run`` prints it as one line and exits 2."""


def _field_and_element(spec: str, a_text: str):
    """The field F_{q^2} named by a "p^e" argument, and a checked nonzero a.

    An ``--a`` of more than _A_DIGITS digits is far above the size bound;
    like a long field descriptor it is neither converted nor echoed whole."""
    if len(a_text) > _A_DIGITS:
        raise UsageError(f"a = {a_text[:24]}... has more than {_A_DIGITS} digits, "
                         f"far above the size bound {DEFAULT_SIZE_BOUND}")
    try:
        a = int(a_text)
    except ValueError:
        raise UsageError(f"a = {a_text!r} is not an integer") from None
    try:
        ctx = make_field(*parse_field_descriptor(spec))
    except ValueError as exc:  # NonPrimeP, SizeExceeded, e < 1 or no "p^e"
        raise UsageError(exc) from None
    if not 0 < a < ctx.q2:
        raise UsageError(f"a = {a} is not a nonzero element of F_{ctx.q2}")
    return ctx, a


def _within(name: str, value: int, lo: int, hi: int) -> None:
    """A UsageError naming the bound if value is outside [lo, hi]; 24 digits echoed."""
    if not lo <= value <= hi:
        text = str(value)
        where = f"above the size bound {hi}" if value > hi else f"below {lo}"
        raise UsageError(f"{name} = {text[:24]}{'...' if len(text) > 24 else ''} is {where}")


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report(command: str, config: dict, results: dict, status: str) -> dict:
    return {
        "command": command,
        "config": config,
        "results": results,
        "status": status,
    }


def _factorization(fact: symalg.FactorResult) -> tuple:
    """A trial factorization as a JSON map {prime: multiplicity} and as the
    text product, with any unfactored cofactor as "C (...)"."""
    factors = sorted(fact.factors.items())
    text = " * ".join(f"{p}^{m}" if m > 1 else str(p) for p, m in factors)
    if not fact.complete:
        text += f" * C ({fact.cofactor})"
    return {str(p): m for p, m in factors}, text


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        res = classify.sweep(q_max=args.max_q, method=args.method, jobs=args.jobs)
    except ValueError as exc:  # SizeExceeded, no prime power up to max_q, jobs < 1
        raise UsageError(exc) from None
    status = "pass" if not res.disagreements else "fail"
    payload = _report(
        "verify",
        {"max_q": args.max_q, "method": args.method},
        res.summary(),
        status,
    )
    lines = [
        f"swept {len(res.verdicts)} (q, a) pairs for prime powers q <= {args.max_q}",
        "pp counts per q: "
        + ", ".join(f"{q}:{c}" for q, c in sorted(res.pp_counts.items()) if c),
        f"{len(res.disagreements)} disagreements",
    ]
    if args.verdicts and not args.json:
        for v in res.verdicts:
            print(v.to_json())
    _emit(args, payload, lines)
    return EXIT_OK if status == "pass" else EXIT_MISMATCH


def cmd_check(args) -> int:
    ctx, a = _field_and_element(args.q, args.a)
    v = classify.classify(ctx, a, "both")
    payload = _report("check", {"q": args.q, "a": a}, v.to_dict(),
                      "pass" if v.agree else "fail")
    _emit(args, payload, [
        f"q = {ctx.q} (F_{ctx.q2}), a = {a}",
        f"brute = {v.brute}, hermite = {v.hermite}, predicted = {v.predicted}",
        f"agree = {v.agree}",
    ])
    return EXIT_OK if v.agree else EXIT_MISMATCH


def cmd_hermite_profile(args) -> int:
    ctx, a = _field_and_element(args.q, args.a)
    q = ctx.q
    sums = {alpha: hermite.s_q(ctx, a, alpha) for alpha in range(q)}
    root_ok = not hermite.has_nonzero_root(ctx, a)
    is_pp = hermite.hermite(root_ok, sums.values())
    payload = _report(
        "hermite-profile",
        {"q": args.q, "a": a},
        {
            "coefficient_sums": {str(k): v for k, v in sums.items()},
            "only_root_zero": root_ok,
            "is_pp": is_pp,
        },
        "pass",
    )
    lines = [f"q = {q}, a = {a}", f"only root zero: {root_ok}"]
    lines += [f"  S({alpha}) = {v}" for alpha, v in sums.items()]
    lines.append(f"hermite verdict: {'PP' if is_pp else 'not a PP'}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gpoly(args) -> int:
    _within("alpha", args.alpha, 2, GPOLY_ALPHA_MAX)
    try:
        rec = symalg.g_poly(args.alpha)
    except symalg.BadAlpha as exc:
        raise UsageError(exc) from None
    payload = _report(
        "gpoly",
        {"alpha": args.alpha},
        {
            "alpha": rec.alpha,
            "d_alpha": rec.d_alpha,
            "q_bound": rec.q_bound,
            "g": poly_json(rec.g),
            "bracket": poly_json(rec.bracket),
        },
        "pass",
    )
    _emit(args, payload, [poly_str(rec.g)])
    return EXIT_OK


def cmd_resultant(args) -> int:
    _within("left", args.left, 2, RESULTANT_ALPHA_MAX)
    _within("right", args.right, 2, RESULTANT_ALPHA_MAX)
    try:
        f = symalg.g_poly(args.left).g
        g = symalg.g_poly(args.right).g
    except symalg.BadAlpha as exc:
        raise UsageError(exc) from None
    res = symalg.resultant_z(list(f), list(g))
    results = {"left": args.left, "right": args.right, "resultant": str(res)}
    lines = [f"Res(g_{args.left}, g_{args.right}) = {res}"]
    if args.factor:
        if res == 0:
            raise UsageError(f"Res(g_{args.left}, g_{args.right}) = 0 cannot be factored")
        fact = symalg.factor_trial(res)
        results["factorization"], text = _factorization(fact)
        results["complete"] = fact.complete
        lines.append(f"  = {text}")
    payload = _report("resultant", {"left": args.left, "right": args.right},
                      results, "pass")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gcdchain(args) -> int:
    p = args.p
    _within("p", p, 2, GCDCHAIN_P_MAX)
    if not is_prime(p):
        raise UsageError(f"p = {p} is not prime")
    polys = [list(symalg.g_poly(alpha).g) for alpha in (2, 5, 8)]
    try:
        gcd = symalg.gcd_mod_p(polys, p)
    except symalg.AllZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    roots = symalg.roots_mod_p(gcd, p)
    evals = {}
    for alpha in (11, 14):
        gx = list(symalg.g_poly(alpha).g)
        for r in roots:
            evals[f"g_{alpha}({r - p if r > p // 2 else r})"] = symalg.eval_mod_p(gx, r, p)
    payload = _report(
        "gcdchain",
        {"p": p},
        {"gcd": poly_json(gcd), "roots": roots, "evaluations": evals},
        "pass",
    )
    lines = [f"gcd(g_2, g_5, g_8) mod {p} = {poly_str(gcd, 'x')}"]
    lines += [f"  {k} mod {p} = {v}" for k, v in evals.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_sporadic(args) -> int:
    try:
        count, members = classify.sporadic_census(args.q)
    except classify.UnsupportedQ as exc:
        raise UsageError(exc) from None
    payload = _report("sporadic", {"q": args.q},
                      {"count": count, "elements": members}, "pass")
    _emit(args, payload, [
        f"q = {args.q}: {count} values of a give a permutation",
        "a = " + " ".join(str(m) for m in members),
    ])
    return EXIT_OK


def cmd_pipeline(args) -> int:
    try:
        report = classify.elimination_pipeline()
    except classify.FixtureMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    factorization, factors = _factorization(report.factorization)
    chains = {
        str(p): {
            "gcd": poly_json(c.gcd),
            "roots": list(c.roots),
            "evaluations": {f"g_{alpha}({r})": v for (alpha, r), v in c.evaluations.items()},
            "conclusion": c.conclusion,
        }
        for p, c in report.chains.items()
    }
    payload = _report(
        "pipeline",
        {},
        {
            "resultant": str(report.resultant),
            "factorization": factorization,
            "surviving_primes": list(report.surviving_primes),
            "chains": chains,
            "candidate_qs": list(report.candidate_qs),
        },
        "pass",
    )
    lines = [
        f"Res(g_2, g_5) = {report.resultant}",
        f"factors: {factors}",
        f"surviving primes: {list(report.surviving_primes)}",
    ]
    for p, c in report.chains.items():
        lines.append(f"p = {p}: gcd = {poly_str(list(c.gcd), 'x')}; {c.conclusion}")
    lines.append(f"candidate q beyond the direct search: {list(report.candidate_qs)}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbinom",
        description="verify the classification of the permutation binomials "
        "a*x + x^(3q-2) over F_{q^2}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(func=func)
        return sp

    sp = add("verify", cmd_verify, help="exhaustive sweep: brute/hermite vs predicate")
    sp.add_argument("--max-q", type=int, default=classify.DEFAULT_Q_MAX, dest="max_q")
    sp.add_argument("--method", choices=["brute", "hermite", "both"], default="both")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--verdicts", action="store_true",
                    help="also stream one JSON line per (q, a)")

    sp = add("check", cmd_check, help="single (q, a) verdict")
    sp.add_argument("--q", required=True, help='base field as "p^e", e.g. 2^3')
    sp.add_argument("--a", required=True, help="element encoding (base-p integer)")

    sp = add("hermite-profile", cmd_hermite_profile,
             help="coefficient sums S(alpha) for a single (q, a)")
    sp.add_argument("--q", required=True)
    sp.add_argument("--a", required=True)

    sp = add("gpoly", cmd_gpoly, help="print the elimination polynomial g_alpha")
    sp.add_argument("--alpha", required=True, type=int, help=f"2 mod 3, 2 to {GPOLY_ALPHA_MAX}")

    sp = add("resultant", cmd_resultant, help="resultant of two g polynomials")
    sp.add_argument("--left", type=int, default=2, help=f"2 mod 3, 2 to {RESULTANT_ALPHA_MAX}")
    sp.add_argument("--right", type=int, default=5, help=f"2 mod 3, 2 to {RESULTANT_ALPHA_MAX}")
    sp.add_argument("--factor", action="store_true")

    sp = add("gcdchain", cmd_gcdchain, help="gcd(g_2, g_5, g_8) mod p and evaluations")
    sp.add_argument("--p", required=True, type=int, help="a prime up to 10^12")

    sp = add("sporadic", cmd_sporadic, help="census of a values for a target q")
    sp.add_argument("--q", required=True, type=int)

    add("pipeline", cmd_pipeline, help="full elimination pipeline")
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"[{time.perf_counter() - t0:.3f}s]", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
