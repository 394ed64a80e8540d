"""Command-line front end.

Every subcommand returns ``(config, results, text_lines, ok)`` and prints
nothing.  ``run`` alone prints: the text lines by default, or with ``--json``
one deterministic document {command, config, results, status}.  Wall time
goes to stderr only, so identical argv always produces byte-identical stdout.

``run`` alone picks the exit code: 0 = all checks pass, 1 = mathematical
mismatch (``ok`` false, or a ``classify.FixtureMismatch`` from ``pipeline``),
2 = bad input: any ``ValueError`` that reaches ``run``, from argparse, from
``_int`` or from a library input check, as one ``error:`` line.  Numeric
options are taken as text and converted only by ``_int``, against the
command's bounds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from typing import List, Optional

from permbinom import classify, hermite, symalg
from permbinom.ffield import make_field
from permbinom.symalg import poly_str

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Size bounds of the symbolic commands: g_poly(200) takes 0.03 s, Res(g_26, g_29)
# has 3,706 digits (the next pair more than the 4,300 that str() converts), and
# is_prime certifies every p <= TRIAL_BOUND^2 = 10^12, in 0.07 s cold at the
# largest prime below it.
GPOLY_ALPHA_MAX, RESULTANT_ALPHA_MAX, GCDCHAIN_P_MAX = 200, 29, symalg.TRIAL_BOUND**2

# The longest number text that _int converts.  Any longer one is far beyond
# every size bound, and is neither converted nor echoed.
MAX_DIGITS = 40


class UsageError(ValueError):
    """A bad argument: ``run`` prints it as one line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Refuses by ``UsageError``; the subcommand parsers inherit the class."""

    def error(self, message):  # cut to 120 characters: it may echo an argument
        raise UsageError(f"{message[:120]}{'...' if len(message) > 120 else ''}")


def _int(name: str, text: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """The text of numeric option ``name`` as an int in [lo, hi] (None: unbounded).

    Text of more than MAX_DIGITS characters is refused unconverted: with a
    leading "-" as below lo, else as beyond any size bound.  A refused value
    is echoed to at most 24 characters."""
    if len(text) > MAX_DIGITS:
        why = (f"is below {lo}" if lo is not None and text.startswith("-")
               else f"has more than {MAX_DIGITS} digits, far beyond any size bound")
    elif not re.fullmatch(r"[+-]?[0-9]+", text):
        raise UsageError(f"{name} = {text!r} is not an integer")
    else:
        value = int(text)
        if lo is not None and value < lo:
            why = f"is below {lo}"
        elif hi is not None and value > hi:
            why = f"is above the size bound {hi}"
        else:
            return value
    raise UsageError(f"{name} = {text[:24]}{'...' if len(text) > 24 else ''} {why}")


def _field_and_element(spec: str, a_text: str):
    """F_{q^2} named by "p^e" (or bare "p"), a checked nonzero a, and their canonical ``config``."""
    a = _int("a", a_text)
    p_text, caret, e_text = spec.partition("^")
    ctx = make_field(_int('p of "p^e"', p_text), _int('e of "p^e"', e_text) if caret else 1)
    if not 0 < a < ctx.q2:
        raise UsageError(f"a = {a} is not a nonzero element of F_{ctx.q2}")
    return ctx, a, {"q": str(ctx.p) if ctx.e == 1 else ctx.descriptor(), "a": a}


def _poly_json(f) -> list:
    """Little-endian array of exact coefficient strings ("num/den" for rationals)."""
    return [str(c) for c in f]


def _verdict(v: classify.PPVerdict) -> dict:
    """A verdict as a JSON object: its fields and ``agree``."""
    return dict(v._asdict(), agree=v.agree)


def _evaluations(table: dict) -> dict:
    """A chain's evaluations {(alpha, r): value} keyed "g_alpha(r)"."""
    return {f"g_{alpha}({r})": v for (alpha, r), v in table.items()}


def _factorization(fact: symalg.FactorResult) -> tuple:
    """A trial factorization as a JSON map {prime: multiplicity} and as the
    text product, with any unfactored cofactor as "C (...)"."""
    factors = sorted(fact.factors.items())
    text = " * ".join(f"{p}^{m}" if m > 1 else str(p) for p, m in factors)
    if not fact.complete:
        text += f" * C ({fact.cofactor})"
    return {str(p): m for p, m in factors}, text


# ---------------------------------------------------------------------------
# Subcommands: each returns (config, results, text_lines, ok)
# ---------------------------------------------------------------------------


def cmd_verify(args):
    if args.verdicts and args.json:
        raise UsageError("--verdicts streams text lines and cannot be combined with --json")
    max_q = _int("max_q", args.max_q)
    res = classify.sweep(q_max=max_q, method=args.method)
    counts = {str(q): c for q, c in sorted(res.pp_counts.items())}
    lines = [
        f"swept {res.total_pairs} (q, a) pairs for prime powers q <= {max_q}",
        "pp counts per q: " + ", ".join(f"{q}:{c}" for q, c in counts.items() if c),
        f"{len(res.disagreements)} disagreements",
    ]
    if args.verdicts:  # streamed: --max-q 128 has 201,293 of them
        lines = itertools.chain((json.dumps(_verdict(v), sort_keys=True) for v in res.verdicts()),
                                lines)
    results = {"q_max": max_q, "method": args.method, "pp_counts": counts,
               "disagreements": [_verdict(v) for v in res.disagreements],
               "total_pairs": res.total_pairs}
    return {"max_q": max_q, "method": args.method}, results, lines, not res.disagreements


def cmd_check(args):
    ctx, a, config = _field_and_element(args.q, args.a)
    v = classify.classify(ctx, a, "both")
    return config, _verdict(v), [
        f"q = {ctx.q} (F_{ctx.q2}), a = {a}",
        f"brute = {v.brute}, hermite = {v.hermite}, predicted = {v.predicted}",
        f"agree = {v.agree}",
    ], v.agree


def cmd_hermite_profile(args):
    ctx, a, config = _field_and_element(args.q, args.a)
    sums = {alpha: hermite.s_q(ctx, a, alpha) for alpha in range(ctx.q)}
    root_ok = not hermite.has_nonzero_root(ctx, a)
    is_pp = root_ok and all(v == 0 for v in sums.values())
    results = {
        "coefficient_sums": {str(k): v for k, v in sums.items()},
        "only_root_zero": root_ok,
        "is_pp": is_pp,
    }
    lines = [f"q = {ctx.q}, a = {a}", f"only root zero: {root_ok}"]
    lines += [f"  S({alpha}) = {v}" for alpha, v in sums.items()]
    lines.append(f"hermite verdict: {'PP' if is_pp else 'not a PP'}")
    return config, results, lines, True


def cmd_gpoly(args):
    from fractions import Fraction  # only gpoly prints rationals

    alpha = _int("alpha", args.alpha, 2, GPOLY_ALPHA_MAX)
    rec = symalg.g_poly(alpha)
    results = {
        "alpha": rec.alpha,
        "d_alpha": rec.d_alpha,
        "q_bound": rec.q_bound,
        "g": _poly_json(rec.g),
        "bracket": _poly_json([Fraction(c, 3**rec.d_alpha) for c in rec.scaled]),
    }
    return {"alpha": alpha}, results, [poly_str(rec.g)], True


def cmd_resultant(args):
    left = _int("left", args.left, 2, RESULTANT_ALPHA_MAX)
    right = _int("right", args.right, 2, RESULTANT_ALPHA_MAX)
    res = symalg.resultant_z(list(symalg.g_poly(left).g), list(symalg.g_poly(right).g))
    results = {"left": left, "right": right, "resultant": str(res)}
    lines = [f"Res(g_{left}, g_{right}) = {res}"]
    if args.factor:
        if res == 0:
            raise UsageError(f"Res(g_{left}, g_{right}) = 0 cannot be factored")
        fact = symalg.factor_trial(res)
        results["factorization"], text = _factorization(fact)
        results["complete"] = fact.complete
        lines.append(f"  = {'-' if res < 0 else ''}{text}")
    return {"left": left, "right": right}, results, lines, True


def cmd_gcdchain(args):
    p = _int("p", args.p, 2, GCDCHAIN_P_MAX)
    gcd, roots, table = classify.gcd_chain(p, classify.chain_polys())
    evals = _evaluations(table)
    lines = [f"gcd(g_2, g_5, g_8) mod {p} = {poly_str(gcd, 'x')}"]
    lines += [f"  {k} mod {p} = {v}" for k, v in evals.items()]
    return {"p": p}, {"gcd": _poly_json(gcd), "roots": roots, "evaluations": evals}, lines, True


def cmd_sporadic(args):
    q = _int("q", args.q)
    members = classify.sporadic_census(q)
    return {"q": q}, {"count": len(members), "elements": members}, [
        f"q = {q}: {len(members)} values of a give a permutation",
        "a = " + " ".join(str(m) for m in members),
    ], True


def cmd_pipeline(args):
    report = classify.elimination_pipeline()
    factorization, factors = _factorization(report.factorization)
    chains = {
        str(p): {
            "gcd": _poly_json(c.gcd),
            "roots": list(c.roots),
            "evaluations": _evaluations(c.evaluations),
            "conclusion": c.conclusion,
        }
        for p, c in report.chains.items()
    }
    results = {
        "resultant": str(report.resultant),
        "factorization": factorization,
        "surviving_primes": list(report.surviving_primes),
        "chains": chains,
        "candidate_qs": list(report.candidate_qs),
    }
    lines = [
        f"Res(g_2, g_5) = {report.resultant}",
        f"factors: {factors}",
        f"surviving primes: {list(report.surviving_primes)}",
    ]
    for p, c in report.chains.items():
        lines.append(f"p = {p}: gcd = {poly_str(list(c.gcd), 'x')}; {c.conclusion}")
    lines.append(f"candidate q beyond the direct search: {list(report.candidate_qs)}")
    return {}, results, lines, True


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


_Q, _A = ("--q", {"required": True}), ("--a", {"required": True})

# name: (function, help, options); each subcommand also takes --json.
COMMANDS = {
    "verify": (cmd_verify, "exhaustive sweep: brute/hermite vs predicate", [
        ("--max-q", {"default": str(classify.DEFAULT_Q_MAX), "dest": "max_q"}),
        ("--method", {"choices": ["brute", "hermite", "both"], "default": "both"}),
        ("--verdicts", {"action": "store_true", "help": "also stream one JSON line per (q, a)"})]),
    "check": (cmd_check, "single (q, a) verdict", [
        ("--q", {"required": True, "help": 'base field as "p^e", e.g. 2^3'}),
        ("--a", {"required": True, "help": "element encoding (base-p integer)"})]),
    "hermite-profile": (cmd_hermite_profile, "coefficient sums S(alpha) for a single (q, a)",
                        [_Q, _A]),
    "gpoly": (cmd_gpoly, "print the elimination polynomial g_alpha", [
        ("--alpha", {"required": True, "help": f"2 mod 3, 2 to {GPOLY_ALPHA_MAX}"})]),
    "resultant": (cmd_resultant, "resultant of two g polynomials", [
        ("--left", {"default": "2", "help": f"2 mod 3, 2 to {RESULTANT_ALPHA_MAX}"}),
        ("--right", {"default": "5", "help": f"2 mod 3, 2 to {RESULTANT_ALPHA_MAX}"}),
        ("--factor", {"action": "store_true"})]),
    "gcdchain": (cmd_gcdchain, "gcd(g_2, g_5, g_8) mod p and evaluations", [
        ("--p", {"required": True, "help": "a prime up to 10^12"})]),
    "sporadic": (cmd_sporadic, "census of a values for a target q", [_Q]),
    "pipeline": (cmd_pipeline, "full elimination pipeline", []),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, which
    parses that command's argv alike; ``run`` builds only the one it names."""
    parser = _Parser(
        prog="permbinom",
        description="verify the classification of the permutation binomials "
        "a*x + x^(3q-2) over F_{q^2}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=text)
            sp.add_argument("--json", action="store_true", help="machine-readable output")
            for flag, kwargs in options:
                sp.add_argument(flag, **kwargs)
            sp.set_defaults(func=func)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        t0 = time.perf_counter()
        config, results, lines, ok = args.func(args)
    except SystemExit:  # only --help, after printing the help
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except classify.FixtureMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        ok = False
    else:
        if args.json:
            print(json.dumps({"command": args.command, "config": config, "results": results,
                              "status": "pass" if ok else "fail"}, sort_keys=True))
        else:
            for line in lines:
                print(line)
    print(f"[{time.perf_counter() - t0:.3f}s]", file=sys.stderr)
    return EXIT_OK if ok else EXIT_MISMATCH


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
