"""Anatomy of a single (q, a) verdict.

Takes one field and one element and shows everything the library computes
for it: the literal image of the map, the root condition, every reduced
coefficient sum S_q(alpha, a), and the three verdicts.

Run:  python3 demos/single_pair_anatomy.py [p^e] [a]
"""

import sys

from permbinom.classify import theorem_predicate
from permbinom.cli import EXIT_USAGE, _field_and_element
from permbinom.hermite import BinomialMap, brute_pp_test, hermite_pp_test, s_q

spec = sys.argv[1] if len(sys.argv) > 1 else "2^3"
a_text = sys.argv[2] if len(sys.argv) > 2 else "3"
try:  # read as `permbinom check --q p^e --a a` reads them
    ctx, a, _ = _field_and_element(spec, a_text)
except ValueError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(EXIT_USAGE)
q = ctx.q

f = BinomialMap(ctx, a)
print(f"field F_{ctx.q2} = F_{ctx.p}^{ctx.n}, modulus {list(ctx.modulus)}")
print(f"map: f(x) = {a}*x + x^{f.exponent}")
print()

image = [f(x) for x in ctx.elements()]
print("image of f:", " ".join(str(v) for v in image))
missed = set(ctx.elements()) - set(image)
print("missed values:", sorted(missed) if missed else "none (bijective)")
print()

print("reduced coefficient sums (all must vanish for a permutation):")
for alpha in range(q):
    print(f"  S({alpha:2d}) = {s_q(ctx, a, alpha)}")
print()

print(f"brute force: {brute_pp_test(ctx, a)}")
print(f"power-sum criterion: {hermite_pp_test(ctx, a)}")
print(f"classification predicate: {theorem_predicate(ctx, a)}")
