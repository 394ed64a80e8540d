"""Byte-for-byte golden stdout of the field-dependent CLI commands and of
two factored resultants.

The files under ``tests/golden/`` were captured before the exp/log tables
were built by shift-and-reduce and before the gcd chains took their roots
from ``symalg.roots_mod_p``, so they pin that tables, encodings, verdicts
and chains did not move.  Stdout has no volatile field: the wall time goes
to stderr, which is not compared.  The one edit since capture drops the
``"seed": 0`` key from the ``config`` of ``verify`` when its ``--seed``
flag, which nothing read, was removed.
"""

from pathlib import Path

import pytest

from permbinom.cli import EXIT_OK, run

GOLDEN = Path(__file__).with_name("golden")

# (q, a) on both sides of 3 | q+1 (q = 7, 9, 16 and 127 are off it), with
# PP and non-PP verdicts, and the three bench fields 2^7, 127 and 5^3.
PAIRS = [("2^3", 3), ("2^3", 7), ("5", 3), ("11", 5), ("11", 7), ("2^7", 45),
         ("2^7", 1000), ("127", 2), ("127", 5000), ("5^3", 5), ("5^3", 7777),
         ("7", 3), ("3^2", 4), ("2^4", 6)]

CASES = {"verify_max-q-32_both.json": ["verify", "--max-q", "32", "--method", "both", "--json"],
         # One JSON line per (q, a), captured before PPVerdict became a named tuple.
         "verify_max-q-8_verdicts.txt": ["verify", "--max-q", "8", "--verdicts"]}
CASES.update({f"{cmd}_{q.replace('^', '-')}_a{a}.json": [cmd, "--q", q, "--a", str(a), "--json"]
              for q, a in PAIRS for cmd in ("check", "hermite-profile")})
# The gcd chains, text and JSON: their roots come from roots_mod_p.
CHAINS = {"pipeline": ["pipeline"],
          **{f"gcdchain_p{p}": ["gcdchain", "--p", str(p)] for p in (17, 23, 29)}}
CASES.update({f"{stem}.txt": argv for stem, argv in CHAINS.items()})
CASES.update({f"{stem}.json": argv + ["--json"] for stem, argv in CHAINS.items()})
# Res(g_2, g_5), fully factored, and Res(g_26, g_29), 12,311 bits with an
# unfactored cofactor: captured before the PRS quotients became 2-adic.
CASES.update({f"resultant_{left}_{right}_factor.json":
              ["resultant", "--left", str(left), "--right", str(right), "--factor", "--json"]
              for left, right in ((2, 5), (26, 29))})

# The remaining text outputs and the gpoly and sporadic documents, captured
# before the subcommands returned their reports to run.
CASES.update({"check_2-3_a7.txt": ["check", "--q", "2^3", "--a", "7"],
              "hermite-profile_5_a3.txt": ["hermite-profile", "--q", "5", "--a", "3"],
              "gpoly_5.txt": ["gpoly", "--alpha", "5"],
              "gpoly_5.json": ["gpoly", "--alpha", "5", "--json"],
              "resultant_2_5.txt": ["resultant"],
              "sporadic_11.txt": ["sporadic", "--q", "11"],
              "sporadic_11.json": ["sporadic", "--q", "11", "--json"],
              "gcdchain_p2.txt": ["gcdchain", "--p", "2"],
              "verify_max-q-13_brute.txt": ["verify", "--max-q", "13", "--method", "brute"]})
# The hermite sweep alone, captured before hermite_pp_test decided once per
# class of log a mod (q-1)*gcd(3, q+1).
CASES["verify_max-q-64_hermite.json"] = ["verify", "--max-q", "64", "--method", "hermite", "--json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert run(CASES[name]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
