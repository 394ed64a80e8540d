import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom
from permbinom import classify, cli, ffield, hermite, symalg
from permbinom.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, build_parser, run

import oracles


def _imported(path):
    """The modules a source file imports; ``from permbinom import x`` gives
    ``permbinom.x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found.update([f"permbinom.{alias.name}" for alias in node.names]
                         if node.module == "permbinom" else [node.module or ""])
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGpoly:
    def test_alpha2_text(self, capsys):
        code, out, err = invoke(capsys, "gpoly", "--alpha", "2")
        assert code == EXIT_OK
        assert out == "2y^5+3y^4-23y^3-8y^2-9y+44\n"

    def test_alpha2_json(self, capsys):
        code, out, _ = invoke(capsys, "gpoly", "--alpha", "2", "--json")
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["results"]["g"] == ["44", "-9", "-8", "-23", "3", "2"]
        assert doc["results"]["d_alpha"] == 2

    def test_bad_alpha_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "gpoly", "--alpha", "3")
        assert code == EXIT_USAGE and out == "" and "alpha" in err


class TestCheck:
    def test_q8_pp(self, capsys):
        code, out, _ = invoke(capsys, "check", "--q", "2^3", "--a", "7")
        assert code == EXIT_OK
        assert "agree = True" in out

    def test_json_verdict(self, capsys):
        code, out, _ = invoke(capsys, "check", "--q", "5", "--a", "3", "--json")
        doc = json.loads(out)
        assert doc["command"] == "check" and doc["status"] == "pass"
        assert doc["results"]["brute"] == doc["results"]["hermite"]

    def test_out_of_range_a(self, capsys):
        code, out, err = invoke(capsys, "check", "--q", "5", "--a", "0")
        assert code == EXIT_USAGE and "nonzero" in err

    @pytest.mark.parametrize("cmd", ["check", "hermite-profile"])
    def test_config_echoes_canonical_q(self, capsys, cmd):
        # One request, one document: q is echoed as "p" or "p^e", not as typed.
        outs = {invoke(capsys, cmd, "--q", q, "--a", "3", "--json")[1]
                for q in ("5", "05", "+5", "5^1")}
        assert len(outs) == 1 and json.loads(outs.pop())["config"] == {"a": 3, "q": "5"}
        _, out, _ = invoke(capsys, cmd, "--q", "2^03", "--a", "3", "--json")
        assert json.loads(out)["config"] == {"a": 3, "q": "2^3"}


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-q", "13", "--method", "both")
        assert code == EXIT_OK
        assert "0 disagreements" in out

    def test_json_counts(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-q", "8", "--json")
        doc = json.loads(out)
        assert doc["results"]["pp_counts"] == {
            "2": 2, "3": 0, "4": 0, "5": 10, "7": 0, "8": 15
        }

    def test_verdict_stream(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-q", "2", "--verdicts")
        lines = out.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("{")) == 3  # a in {1,2,3}


class TestOtherSubcommands:
    def test_hermite_profile(self, capsys):
        code, out, _ = invoke(capsys, "hermite-profile", "--q", "5", "--a", "3")
        assert code == EXIT_OK
        assert "S(0)" in out and "verdict" in out

    @pytest.mark.parametrize("a, is_pp", [("3", True), ("2", False), ("1", False)],
                             ids=["pp", "nonzero-sum", "nonzero-root"])
    def test_hermite_profile_sums_each_alpha_once(self, capsys, monkeypatch, a, is_pp):
        # The verdict is read off the printed sums and root test, with no
        # second pass over S_q; q = 8, and a = 1 has a nonzero root.
        s_q, calls = hermite.s_q, []
        monkeypatch.setattr(hermite, "s_q",
                            lambda ctx, a, alpha: calls.append(alpha) or s_q(ctx, a, alpha))
        code, out, _ = invoke(capsys, "hermite-profile", "--q", "2^3", "--a", a, "--json")
        results = json.loads(out)["results"]
        assert code == EXIT_OK and calls == list(range(8))
        assert results["is_pp"] is is_pp and results["only_root_zero"] is (a != "1")

    def test_resultant_factored(self, capsys):
        code, out, _ = invoke(capsys, "resultant", "--left", "2", "--right", "5",
                              "--factor", "--json")
        doc = json.loads(out)
        assert doc["results"]["factorization"] == {
            "2": 5, "3": 35, "17": 2, "23": 1, "29": 1, "103": 1, "16069": 1
        }
        assert doc["results"]["complete"] is True

    @pytest.mark.parametrize("right", ["5", "8"], ids=["negative", "positive"])
    def test_resultant_factor_line_is_an_equation(self, capsys, right):
        # The factor line multiplies back to the resultant, sign included:
        # Res(g_2, g_5) < 0 < Res(g_2, g_8), whose cofactor prints as "C (...)".
        code, out, _ = invoke(capsys, "resultant", "--left", "2", "--right", right, "--factor")
        res_line, factor_line = out.splitlines()
        product = -1 if factor_line.startswith("  = -") else 1
        for term in factor_line.removeprefix("  = ").lstrip("-").split(" * "):
            base, _, exp = term.removeprefix("C (").rstrip(")").partition("^")
            product *= int(base) ** int(exp or 1)
        res = int(res_line.split(" = ")[1])
        assert code == EXIT_OK and product == res and (res < 0) is (right == "5")

    def test_gcdchain_29(self, capsys):
        code, out, _ = invoke(capsys, "gcdchain", "--p", "29", "--json")
        doc = json.loads(out)
        assert doc["results"]["gcd"] == ["3", "1"]
        assert doc["results"]["evaluations"]["g_11(-3)"] == 0
        assert doc["results"]["evaluations"]["g_14(-3)"] == 15

    def test_gcdchain_large_prime_without_residue_scan(self, capsys):
        code, out, _ = invoke(capsys, "gcdchain", "--p", "10000019", "--json")
        results = json.loads(out)["results"]
        assert code == EXIT_OK
        assert results["gcd"] == ["1"] and results["roots"] == []
        assert results["evaluations"] == {}

    def test_sporadic_counts(self, capsys):
        for q, n in [(5, 10), (23, 8)]:
            code, out, _ = invoke(capsys, "sporadic", "--q", str(q), "--json")
            assert code == EXIT_OK
            assert json.loads(out)["results"]["count"] == n

    def test_sporadic_unsupported(self, capsys):
        code, _, err = invoke(capsys, "sporadic", "--q", "4")
        assert code == EXIT_USAGE

    def test_pipeline(self, capsys):
        code, out, _ = invoke(capsys, "pipeline", "--json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["results"]["surviving_primes"] == [2, 17, 23, 29]
        assert doc["results"]["candidate_qs"] == [17, 23, 29]

    @pytest.mark.parametrize("name, stand_in, says", [
        ("factor_trial",
         lambda n: symalg.FactorResult(n=n, factors={2: 5}, complete=False, cofactor=16069),
         "cofactor 16069"),
        ("eval_mod_p", lambda f, x, p: 0, "root -1 of the gcd chain mod 23"),
        ("gcd_mod_p", lambda polys, p: [1, 0, 1] if p == 23 else symalg.gcd_mod_p(polys, p),
         "G_23 = x^2+1 has a nonzero root"),
    ], ids=["incomplete-factorization", "surviving-root", "shared-nonlinear-factor"])
    def test_pipeline_gap_exits_1(self, capsys, monkeypatch, name, stand_in, says):
        monkeypatch.setattr(classify, name, stand_in)
        for argv in (["pipeline"], ["pipeline", "--json"]):
            code, out, err = invoke(capsys, *argv)
            assert code == EXIT_MISMATCH and out == ""
            assert err.startswith("mismatch: ") and says in err.splitlines()[0]
            assert "Traceback" not in err


class TestBadInputExitCodes:
    """Bad argument values end in exit 2 and one "error: ..." line."""

    def assert_usage_error(self, capsys, *argv, says):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and says in err
        assert "Traceback" not in err
        return err

    def test_check_non_prime_p(self, capsys):
        self.assert_usage_error(capsys, "check", "--q", "4", "--a", "5", says="not prime")

    def test_check_malformed_field(self, capsys):
        self.assert_usage_error(capsys, "check", "--q", "2^x", "--a", "1", says='"p^e"')

    @pytest.mark.parametrize("cmd", ["check", "hermite-profile"])
    @pytest.mark.parametrize("q, says", [("1_1", "p of \"p^e\" = '1_1'"),
                                         (" 11", "p of \"p^e\" = ' 11'"),
                                         ("11^ 1", "e of \"p^e\" = ' 1'"),
                                         ("2^3^4", "e of \"p^e\" = '3^4'"),
                                         ("１１", "p of \"p^e\" = '１１'"),
                                         ("٥", "p of \"p^e\" = '٥'"),
                                         ("2^３", "e of \"p^e\" = '３'"),
                                         ("2^٣", "e of \"p^e\" = '٣'")],
                             ids=["underscore", "space", "space-in-e", "two-carets",
                                  "full-width-p", "arabic-indic-p", "full-width-e",
                                  "arabic-indic-e"])
    def test_field_part_not_an_integer(self, capsys, cmd, q, says):
        # p and e follow the rule of every numeric option: int() alone would
        # read "1_1", " 11" and the full-width "１１" as 11, and " 1" as 1.
        self.assert_usage_error(capsys, cmd, "--q", q, "--a", "1",
                                says=f"{says} is not an integer")

    def test_check_field_too_large(self, capsys):
        self.assert_usage_error(capsys, "check", "--q", "2^13", "--a", "1",
                                says="size bound")

    @pytest.mark.parametrize("q, p, e", [("1000000000000000003", "1000000000000000003", "1"),
                                         ("3^300000000", "3", "300000000"),
                                         ("3^10000000", "3", "10000000")])
    def test_check_field_too_large_before_primality(self, capsys, q, p, e):
        # The bound is checked before the trial-division primality test and
        # before p^(2e) is computed, so these return at once.
        self.assert_usage_error(capsys, "check", "--q", q, "--a", "1",
                                says=f"p = {p}, e = {e} exceeds the size bound")

    @pytest.mark.parametrize("q", ["1" * 4999 + "3", "1" * 3999 + "3", "3^" + "1" * 4000],
                             ids=["p-5000-digits", "p-4000-digits", "e-4000-digits"])
    def test_check_field_descriptor_too_long(self, capsys, q):
        # Past 4,300 digits int() itself refuses the string; the error line
        # names the bound and echoes only a prefix of the descriptor.
        err = self.assert_usage_error(capsys, "check", "--q", q, "--a", "1",
                                      says="size bound")
        assert len(err) < 200

    @pytest.mark.parametrize("cmd", ["check", "hermite-profile"])
    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_element_too_long(self, capsys, cmd, digits):
        # 4,000 and 5,000 digits lie either side of int()'s 4,300-digit limit.
        err = self.assert_usage_error(capsys, cmd, "--q", "2", "--a", "7" * digits,
                                      says="more than 40 digits")
        assert len(err) < 200

    @pytest.mark.parametrize("cmd", ["check", "hermite-profile"])
    def test_element_not_an_integer(self, capsys, cmd):
        self.assert_usage_error(capsys, cmd, "--q", "5", "--a", "3x", says="a = '3x' is not an integer")

    def test_verify_above_hard_cap(self, capsys):
        self.assert_usage_error(capsys, "verify", "--max-q", "600", says="hard cap")

    @pytest.mark.parametrize("max_q", ["1", "0", "-7"])
    def test_verify_below_smallest_prime_power(self, capsys, max_q):
        self.assert_usage_error(capsys, "verify", "--max-q", max_q, says="no prime power")

    def test_resultant_zero_with_factor(self, capsys):
        self.assert_usage_error(capsys, "resultant", "--left", "2", "--right", "2", "--factor",
                                says="Res(g_2, g_2) = 0")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_verify_jobs_below_one(self, capsys, jobs):
        # A worker count below one is still refused with a usage error, now
        # because verify has no --jobs option at all.
        self.assert_usage_error(capsys, "verify", "--max-q", "8", "--jobs", jobs,
                                says=f"unrecognized arguments: --jobs {jobs}")

    def test_verify_has_no_jobs_option(self, capsys):
        # verify runs in one process, so it has no worker count to take; a
        # long value is echoed cut, in the one error line.
        self.assert_usage_error(capsys, "verify", "--max-q", "8", "--jobs", "2",
                                says="unrecognized arguments: --jobs 2")
        err = self.assert_usage_error(capsys, "verify", "--jobs=" + "9" * 4000,
                                      says="unrecognized arguments: --jobs=999")
        assert len(err) < 200

    def test_verify_verdicts_with_json(self, capsys):
        # The JSON document would drop the streamed verdict lines.
        self.assert_usage_error(capsys, "verify", "--max-q", "8", "--verdicts", "--json",
                                says="--verdicts streams text lines")

    def test_gcdchain_non_prime_p(self, capsys):
        self.assert_usage_error(capsys, "gcdchain", "--p", "4", says="p = 4 is not prime")

    @pytest.mark.parametrize("p", [str(10**12 + 39), "1000000000000000000000000000057"])
    def test_gcdchain_p_above_bound(self, capsys, p):
        # Checked before the trial-division primality test, which would run
        # for minutes on the second value; the echo keeps 24 digits.
        err = self.assert_usage_error(capsys, "gcdchain", "--p", p,
                                      says="above the size bound 1000000000000")
        assert p[:24] in err and (len(p) <= 24 or p not in err)

    def test_gcdchain_p_at_bound(self, capsys):
        # The largest prime below 10^12 is accepted.
        code, out, _ = invoke(capsys, "gcdchain", "--p", "999999999989")
        assert code == EXIT_OK and out == "gcd(g_2, g_5, g_8) mod 999999999989 = 1\n"

    def test_gpoly_alpha_at_bound(self, capsys):
        code, out, _ = invoke(capsys, "gpoly", "--alpha", "200")
        assert code == EXIT_OK and out.count("\n") == 1 and "y^599+" in out  # deg 3*alpha - 1

    @pytest.mark.parametrize("argv, says", [
        (["gpoly", "--alpha", "203"], "alpha = 203 is above the size bound 200"),
        (["gpoly", "--alpha", "500", "--json"], "alpha = 500 is above the size bound 200"),
        (["resultant", "--left", "32"], "left = 32 is above the size bound 29"),
        (["resultant", "--left", "29", "--right", "32"], "right = 32 is above the size bound 29"),
        (["resultant", "--right", "62", "--factor"], "right = 62 is above the size bound 29"),
    ])
    def test_alpha_above_bound(self, capsys, argv, says):
        self.assert_usage_error(capsys, *argv, says=says)

    @pytest.mark.parametrize("argv", [["gcdchain", "--p"], ["gpoly", "--alpha"],
                                      ["resultant", "--left"], ["resultant", "--right"]],
                             ids=["gcdchain-p", "gpoly-alpha", "resultant-left", "resultant-right"])
    def test_long_negative_below_bound(self, capsys, argv):
        # A 4,000-digit negative value is refused with its first 24 characters.
        value = "-" + "9" * 4000
        err = self.assert_usage_error(capsys, *argv[:-1], f"{argv[-1]}={value}",
                                      says=f"= {value[:24]}... is below 2")
        assert len(err) < 200

    @pytest.mark.parametrize("argv, says", [
        (["gcdchain", "--p", "-7"], "p = -7 is below 2"),
        (["gcdchain", "--p", "1"], "p = 1 is below 2"),
        (["gpoly", "--alpha", "-1"], "alpha = -1 is below 2"),
        (["resultant", "--left", "2", "--right", "-4"], "right = -4 is below 2"),
    ], ids=["gcdchain-p-negative", "gcdchain-p-one", "gpoly-alpha", "resultant-right"])
    def test_below_lower_bound(self, capsys, argv, says):
        self.assert_usage_error(capsys, *argv, says=says)

    # Every numeric option, by the name its error line gives it.
    NUMERIC_OPTIONS = {"a-check": ("a", ["check", "--q", "2", "--a"]),
                       "a-hermite-profile": ("a", ["hermite-profile", "--q", "2", "--a"]),
                       "alpha": ("alpha", ["gpoly", "--alpha"]),
                       "left": ("left", ["resultant", "--left"]),
                       "right": ("right", ["resultant", "--right"]),
                       "p": ("p", ["gcdchain", "--p"]),
                       "max-q": ("max_q", ["verify", "--max-q"]),
                       "sporadic-q": ("q", ["sporadic", "--q"])}
    BAD_NUMBERS = {"+4000": "9" * 4000, "-4000": "-" + "9" * 4000, "5000": "9" * 5000,
                   "-5000": "-" + "9" * 5000, "2.0": "2.0", "0x10": "0x10",
                   "full-width": "１３", "arabic-indic": "١٣"}

    @pytest.mark.parametrize("value", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
    @pytest.mark.parametrize("option", NUMERIC_OPTIONS.values(), ids=NUMERIC_OPTIONS)
    def test_long_or_non_integer_number(self, capsys, option, value):
        # 4,000 and 5,000 digits lie either side of int()'s 4,300-digit limit,
        # and int() reads non-ASCII decimal digits; none is converted, and the
        # one error line has no usage line above it.
        name, argv = option
        err = self.assert_usage_error(capsys, *argv[:-1], f"{argv[-1]}={value}",
                                      says=f"{name} = ")
        assert len(err) < 200 and "usage:" not in err
        if len(value) < 40:
            assert f"{name} = {value!r} is not an integer" in err
        else:
            assert "more than 40 digits" in err or (value[0] == "-" and "is below 2" in err)


    @pytest.mark.parametrize("argv, says", [
        (["gpoly"], "the following arguments are required: --alpha"),
        (["check", "--q", "5"], "the following arguments are required: --a"),
        (["verify", "--method", "fast"], "argument --method: invalid choice: 'fast'"),
        (["verify", "--method", "x" * 5000], "argument --method: invalid choice: 'xxx"),
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["gpoly", "--alpha", "5", "stray"], "unrecognized arguments: stray"),
        ([], "the following arguments are required: command"),
    ], ids=["missing-option", "missing-a", "bad-choice", "5000-char-choice", "unknown-flag",
            "stray-positional", "no-subcommand"])
    def test_argparse_refusal_is_one_line(self, capsys, argv, says):
        # argparse's own refusals take the one path too: no usage block, and
        # an echoed argument is cut.
        err = self.assert_usage_error(capsys, *argv, says=says)
        assert len(err) < 200 and "usage:" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_OK and out.startswith("usage: permbinom") and err == ""

    def test_internal_fault_is_not_a_usage_error(self, monkeypatch):
        # Only ValueErrors are bad input; an ArithmeticError of the library
        # is a fault, and leaves run as itself.
        def broken(alpha):
            raise symalg.NotDivisible("stand-in fault")

        monkeypatch.setattr(symalg, "g_poly", broken)
        with pytest.raises(symalg.NotDivisible, match="stand-in fault"):
            run(["gpoly", "--alpha", "5"])


class TestContract:
    def test_no_try_outside_run(self):
        # run alone maps exceptions to exit codes; no subcommand or helper
        # translates a library exception by hand.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        outside = [node.lineno for top in tree.body
                   if not (isinstance(top, ast.FunctionDef) and top.name == "run")
                   for node in ast.walk(top) if isinstance(node, ast.Try)]
        assert outside == []

    def test_layering(self):
        # symalg <- ffield <- hermite <- classify: each module imports only
        # the permbinom modules below it, so the import graph has no cycle.
        def imports(module):
            return {n.split(".")[1] for n in _imported(Path(module.__file__))
                    if n.startswith("permbinom.")}

        assert imports(symalg) == set()
        assert imports(ffield) == {"symalg"}
        assert imports(hermite) == {"ffield"}
        assert imports(classify) == {"ffield", "hermite", "symalg"}
        # Lucas binomials live with the oracles, their one caller; no module
        # of the package defines them.
        assert oracles.lucas_binom.__module__ == "oracles"
        assert not any(hasattr(m, "lucas_binom") for m in (symalg, ffield, hermite, classify, cli))

    def test_one_home_for_chains_and_number_text(self):
        # cli formats the table of classify.gcd_chain and names no chain step
        # itself; only cli bounds the number text that it converts.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        named = {getattr(node, key, None) for node in ast.walk(tree) for key in ("id", "attr", "name")}
        assert not named & {"gcd_mod_p", "roots_mod_p", "eval_mod_p"}
        defining = {path.stem for path in Path(permbinom.__file__).parent.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id == "MAX_DIGITS"}
        assert defining == {"cli"}
        # The library returns records; cli alone imports json and renders them.
        package = Path(permbinom.__file__).parent
        assert {path.stem for path in package.glob("*.py") if "json" in _imported(path)} == {"cli"}
        records = [v for v in vars(classify).values()
                   if isinstance(v, type) and issubclass(v, tuple) and hasattr(v, "_fields")]
        assert classify.PPVerdict in records and classify.SweepResult in records
        for record in records:
            assert not {"to_dict", "to_json", "summary"} & set(dir(record)), record.__name__

    def test_import_loads_no_process_pool(self):
        # The package starts no other process, so a fresh import of the CLI
        # loads neither concurrent.futures nor multiprocessing.
        code = ("import sys, permbinom.cli; "
                "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        src = str(Path(permbinom.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout == "[]\n"

    def test_no_dataclasses(self):
        # Records are NamedTuples: a dataclass generates its methods with exec
        # at import, and importing dataclasses also loads inspect and ast.
        for path in Path(permbinom.__file__).parent.glob("*.py"):
            assert "dataclasses" not in {n.split(".")[0] for n in _imported(path)}, path.name

    def test_records_are_read_only(self):
        report = classify.elimination_pipeline()
        for record, name in [(symalg.g_poly(2), "g"), (symalg.factor_trial(12), "n"),
                             (hermite.interval_census(8, 2), "q"),
                             (classify.SPORADIC_TABLE[0], "q"), (report.chains[2], "p"),
                             (report, "resultant")]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_no_option_is_converted_by_argparse(self):
        # Numeric options reach cli._int as text; an argparse type= would
        # convert (and echo) an unbounded value before any size bound.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sp in sub.choices.items():
            for action in sp._actions:
                assert action.type is None, (name, action.dest)

    @pytest.mark.parametrize("argv", [["verify", "--max-q", "5", "--verdicts"],
                                      ["check", "--q", "5", "--a", "3"],
                                      ["hermite-profile", "--q", "5", "--a", "3"],
                                      ["gpoly", "--alpha", "5"], ["resultant", "--factor"],
                                      ["gcdchain", "--p", "29"], ["sporadic", "--q", "5"],
                                      ["pipeline"]], ids=lambda argv: argv[0])
    def test_subcommands_return_reports(self, capsys, argv):
        # run alone prints; a subcommand returns (config, results, lines, ok).
        args = build_parser().parse_args(argv)
        config, results, lines, ok = args.func(args)
        assert capsys.readouterr() == ("", "") and ok is True
        assert isinstance(config, dict) and isinstance(results, dict)
        code, out, _ = invoke(capsys, *argv)
        assert code == EXIT_OK and out == "".join(f"{line}\n" for line in lines)

    def test_unknown_flag_is_usage_error(self, capsys):
        assert invoke(capsys, "gpoly", "--alpha", "2", "--frobnicate")[0] == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        assert invoke(capsys)[0] == EXIT_USAGE

    def test_json_is_deterministic(self, capsys):
        a = invoke(capsys, "verify", "--max-q", "8", "--json")[1]
        b = invoke(capsys, "verify", "--max-q", "8", "--json")[1]
        assert a == b

    def test_wall_time_on_stderr_not_stdout(self, capsys):
        _, out, err = invoke(capsys, "gpoly", "--alpha", "2", "--json")
        assert "s]" in err and "s]" not in out

    def test_console_script_subprocess(self):
        # The child imports the package this suite imports, installed or not.
        path = [str(Path(permbinom.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "permbinom.cli", "check", "--q", "2", "--a", "2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "agree = True" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("permbinom") is None,
        reason="no 'permbinom' console script on PATH; install the package with "
        "pip install -e . --no-build-isolation",
    )
    def test_entry_point_installed(self):
        proc = subprocess.run(["permbinom", "gpoly", "--alpha", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2y^5+3y^4-23y^3-8y^2-9y+44"
