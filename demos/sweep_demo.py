"""Exhaustive verification sweep, narrated.

For every prime power q up to a small bound, every nonzero a in F_{q^2} is
tested three ways: brute-force bijection check, the reduced power-sum
criterion, and the closed-form classification predicate.  Each test runs
once per class of a (log a mod (q-1)*gcd(3, q+1)), whose members share
every verdict.  The three must agree everywhere, and the nonzero counts
land exactly on the q values the classification names.

Run:  python3 demos/sweep_demo.py [q_max]
"""

import json
import sys

from permbinom.classify import sweep
from permbinom.cli import EXIT_USAGE, _int, _verdict

try:  # read and checked as `permbinom verify --max-q` reads it
    q_max = _int("q_max", sys.argv[1]) if len(sys.argv) > 1 else 13
    result = sweep(q_max, method="both")
except ValueError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(EXIT_USAGE)

print(f"prime powers swept: q <= {q_max}")
print(f"(q, a) pairs tested: {result.total_pairs}")
print()
print(" q | permutation binomials a*x + x^(3q-2)")
print("---+--------------------------------------")
for q, count in sorted(result.pp_counts.items()):
    bar = "#" * count
    print(f"{q:2d} | {count:3d} {bar}")
print()
if result.disagreements:
    print(f"!! {len(result.disagreements)} disagreements:")
    for v in result.disagreements:
        print("  ", json.dumps(_verdict(v), sort_keys=True))
    sys.exit(1)
print("brute force, the power-sum criterion and the classification "
      "predicate agree on every pair.")
