"""Command-line interface: formats, exit codes, and round-tripping."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ramasym
from ramasym.cli import main
from ramasym.coefficients import gamma_coeff, rho
from ramasym.numcore import parse_rational
from ramasym.oracle import oracle_T
from ramasym.polys import PolyV


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """stderr of a command line refused as a usage error: exit status 2
    and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    return err


class TestCoeff:
    def test_rho_value_plain(self, capsys):
        code, out, _ = run(capsys, "coeff", "rho", "--r", "4", "--v", "0",
                           "--format", "plain")
        assert code == 0 and out == "8992/12629925\n"

    def test_rho_value_json(self, capsys):
        code, out, _ = run(capsys, "coeff", "rho", "--r", "4", "--v", "0")
        assert code == 0 and json.loads(out) == "8992/12629925"

    def test_u_symbolic(self, capsys):
        code, out, _ = run(capsys, "coeff", "U", "--r", "0",
                           "--format", "plain")
        assert code == 0 and out == "1/(1-w)\n"

    def test_psi_at_zero(self, capsys):
        code, out, _ = run(capsys, "coeff", "psi", "--r", "0", "--v", "0",
                           "--format", "plain")
        assert code == 0 and out == "-1/3\n"

    def test_symbolic_default_when_no_point_given(self, capsys):
        code, out, _ = run(capsys, "coeff", "rho", "--r", "0",
                           "--format", "plain")
        assert code == 0 and out == "1/3 - v\n"

    def test_u_tilde_mode(self, capsys):
        code, out, _ = run(capsys, "coeff", "U", "--r", "1", "--mode",
                           "tilde", "--format", "plain")
        assert code == 0 and out == "-w/(1-w)^3 - v/(1-w)^2\n"

    def test_u_evaluated_at_gaussian_point(self, capsys):
        code, out, _ = run(capsys, "coeff", "U", "--r", "1", "--w", "1/2",
                           "--v", "2", "--format", "plain")
        assert code == 0 and out == "-8\n"

    def test_upto_round_trips(self, capsys):
        code, out, _ = run(capsys, "coeff", "gamma", "--upto", "3")
        records = json.loads(out)
        assert code == 0 and [rec["r"] for rec in records] == [0, 1, 2, 3]
        for rec in records:
            poly = PolyV([parse_rational(c) for c in rec["polyV"]])
            assert poly == gamma_coeff(rec["r"])

    @pytest.mark.parametrize("family",
                             ["rho", "gamma", "tau", "psi", "beta", "U"])
    def test_upto_evaluates_at_v(self, capsys, family):
        point = ("--w", "1/2", "--v", "2") if family == "U" else ("--v", "1/2")
        code, out, _ = run(capsys, "coeff", family, "--upto", "2", *point)
        records = json.loads(out)
        single = [json.loads(run(capsys, "coeff", family, "--r", str(r),
                                 *point)[1]) for r in range(3)]
        assert code == 0 and records == [
            {"r": r, "value": value} for r, value in enumerate(single)]

    def test_upto_records_carry_the_sqrt2_power(self, capsys):
        code, out, err = run(capsys, "coeff", "beta", "--upto", "2")
        assert (code, err) == (0, "") and out == (
            '[{"r": 0, "polyV": ["1"], "sqrt2Power": -1}, '
            '{"r": 1, "polyV": ["2/3", "1"], "sqrt2Power": 0}, '
            '{"r": 2, "polyV": ["1/12", "1/2", "1/2"], "sqrt2Power": 1}]\n')

    def test_upto_records_of_u_are_symbolic(self, capsys):
        code, out, err = run(capsys, "coeff", "U", "--upto", "1")
        assert (code, err) == (0, "") and out == (
            '[{"r": 0, "value": "1/(1-w)"}, '
            '{"r": 1, "value": "-w/(1-w)^3 - v*w/(1-w)^2"}]\n')

    def test_negative_upto_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "rho", "--upto", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--upto" in err

    def test_beta_carries_sqrt2_tag(self, capsys):
        code, out, _ = run(capsys, "coeff", "beta", "--r", "2",
                           "--format", "plain")
        assert code == 0 and out.startswith("sqrt2^1 * (")

    def test_negative_rational_v(self, capsys):
        code, out, _ = run(capsys, "coeff", "rho", "--r", "0", "--v", "-1/2",
                           "--format", "plain")
        assert code == 0 and parse_rational(out.strip()) \
            == rho(0)(Fraction(-1, 2))

    def test_invalid_r_exits_one(self, capsys):
        code, _, err = run(capsys, "coeff", "rho", "--r", "-2")
        assert code == 1 and "error:" in err

    def test_negative_index_message(self, capsys):
        code, out, err = run(capsys, "coeff", "rho", "--r", "-1")
        assert (code, out) == (1, "")
        assert err == "error: index must be nonnegative\n"

    @pytest.mark.parametrize("r,terms", [("0", "0"), ("2", "-3")])
    def test_taylor_section_under_one_term_exits_one(self, capsys, r, terms):
        code, out, err = run(capsys, "coeff", "U", "--r", r, "--mode",
                             "taylor", "--taylor-terms", terms)
        assert code == 1 and out == "" and "taylor_terms" in err

    @pytest.mark.parametrize("argv,option", [
        (["U", "--r", "1", "--mode", "plain"], "--taylor-terms"),
        (["U", "--r", "1"], "--taylor-terms"),
        (["rho", "--r", "1"], "--taylor-terms"),
        # rho has no taylor mode, and argparse refuses it first
        (["rho", "--r", "1", "--mode", "taylor"], "--mode"),
    ], ids=["U-plain", "U-default", "rho", "rho-taylor"])
    def test_taylor_terms_outside_taylor_mode_is_a_usage_error(
            self, capsys, argv, option):
        err = usage_error(capsys, "coeff", *argv, "--taylor-terms", "5")
        assert option in err

    @pytest.mark.parametrize("family", ["psi", "tau"])
    def test_plain_only_family_rejects_other_modes(self, capsys, family):
        err = usage_error(capsys, "coeff", family, "--r", "1",
                          "--mode", "bogus")
        assert "--mode" in err


class TestEval:
    def test_theta_payload(self, capsys):
        code, out, _ = run(capsys, "eval", "theta", "--n", "50",
                           "--terms", "3", "--digits", "25")
        data = json.loads(out)
        assert code == 0
        assert data["target"] == "theta" and data["n"] == 50
        assert data["terms"] == 3 and len(data["perTerm"]) == 3
        assert data["errorOrder"] == "O(n^(-3))"
        assert data["regime"] == "One"
        assert data["value"].startswith("0.333")

    def test_s_regime_and_value(self, capsys):
        code, out, _ = run(capsys, "eval", "S", "--n", "40", "--w", "1/2",
                           "--digits", "20")
        data = json.loads(out)
        assert code == 0 and data["regime"] == "Y" and data["w"] == "1/2"

    def test_s_needs_w(self, capsys):
        err = usage_error(capsys, "eval", "S", "--n", "40")
        assert "the following arguments are required: --w" in err

    def test_t_at_zero_reports_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "T", "--n", "10", "--w", "0")
        assert code == 1 and "undefined" in err

    def test_plain_prints_bare_value(self, capsys):
        code, out, _ = run(capsys, "eval", "gamma", "--n", "30",
                           "--terms", "2", "--format", "plain",
                           "--digits", "15")
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.6525286e32, rel=1e-5)

    @pytest.mark.parametrize("argv, payload", [
        (["S", "--n", "50", "--w", "1/2+1/3i", "--v", "1/2+1/3i"],
         {"target": "S", "n": 50, "v": "1/2+1/3i", "w": "1/2+1/3i",
          "terms": 3,
          "value": "(1.4299886343130627294 + 0.86380667774506925797j)",
          "perTerm": ["(1.3846153846153846154 + 0.92307692307692307692j)",
                      "(0.053081474738279472007 - 0.053527537551206190259j)",
                      "(-0.0077082250406013579572 - "
                      "0.0057427077806476286922j)"],
          "regime": "Y", "errorOrder": "O(n^(-3))"}),
        (["T", "--n", "60", "--w", "-1/2+1/5i", "--v", "1/3-2i",
          "--terms", "4"],
         {"target": "T", "n": 60, "v": "1/3-2i", "w": "-1/2+1/5i",
          "terms": 4,
          "value": "(-0.65813411136760497619 - 0.079578052246312774008j)",
          "perTerm": ["(-0.65502183406113537118 - 0.087336244541484716157j)",
                      "(-0.0029847410320903968038 + "
                      "0.0078925507847126477970j)",
                      "(-0.00013109225047832927549 - "
                      "0.00013209198423559610292j)",
                      "(3.5559760991210712073e-6 - 2.2665053051095447935e-6j)"],
          "regime": "X", "errorOrder": "O(n^(-4))"}),
        (["T", "--n", "60", "--w", "3", "--v", "2+i", "--terms", "3"],
         {"target": "T", "n": 60, "v": "2+i", "w": "3", "terms": 3,
          "value": "(0.51872395833333333333 + 0.012656250000000000000j)",
          "perTerm": ["0.50000000000000000000",
                      "(0.01875 + 0.012500000000000000000j)",
                      "(-0.000026041666666666666667 + "
                      "0.00015625000000000000000j)"],
          "regime": "Z", "errorOrder": "O(n^(-3))"}),
    ])
    def test_gaussian_v_on_the_u_series(self, capsys, argv, payload):
        # the U-series at a Gaussian offset v, byte for byte as the
        # ring-operator Horner printed it
        code, out, err = run(capsys, "eval", *argv, "--digits", "20")
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, ensure_ascii=False) + "\n"


class TestOracleCommand:
    def test_theta_payload(self, capsys):
        code, out, _ = run(capsys, "oracle", "theta", "--n", "100",
                           "--digits", "30")
        data = json.loads(out)
        assert code == 0 and data["digits"] == 30
        assert data["value"].startswith("0.3336293455")

    def test_t_is_exact(self, capsys):
        code, out, _ = run(capsys, "oracle", "T", "--n", "5", "--w", "1/2",
                           "--format", "plain")
        assert code == 0
        assert parse_rational(out.strip()) == oracle_T(5, Fraction(1, 2), 0)

    def test_factorial(self, capsys):
        code, out, _ = run(capsys, "oracle", "factorial", "--n", "6",
                           "--v", "1", "--format", "plain")
        assert code == 0 and out == "5040\n"

    @pytest.mark.parametrize("argv,key", [
        (["Ei", "--n", "10"], "v"),
        (["factorial", "--n", "6", "--v", "1"], "digits"),
        (["T", "--n", "5", "--w", "1/2"], "digits"),
    ])
    def test_an_unread_key_is_null(self, capsys, argv, key):
        code, out, _ = run(capsys, "oracle", *argv)
        assert code == 0 and json.loads(out)[key] is None

    def test_ei(self, capsys):
        code, out, _ = run(capsys, "oracle", "Ei", "--n", "10",
                           "--digits", "20", "--format", "plain")
        assert code == 0 and out.startswith("2492.228976")

    def test_s_small_w_is_not_rounded_away(self, capsys):
        # F = e^(nw) n!/(nw)^n has about 611 digits here, all cancelled
        code, out, _ = run(capsys, "oracle", "S", "--n", "1000", "--w",
                           "1/10", "--digits", "30", "--format", "plain")
        assert code == 0 and out.startswith("1.110974139733015457895066")


class TestClassifyCommand:
    def test_real_point_right_of_curve(self, capsys):
        code, out, _ = run(capsys, "classify", "--w", "2", "--format",
                           "plain")
        assert code == 0 and out == "Z\n"

    def test_json_is_quoted(self, capsys):
        code, out, _ = run(capsys, "classify", "--w", "2")
        assert code == 0 and json.loads(out) == "Z"

    def test_negative_gaussian_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--w", "-1/2-1/3i",
                           "--format", "plain")
        assert code == 0 and out == "X\n"

    def test_custom_epsilon(self, capsys):
        code, out, _ = run(capsys, "classify", "--w", "10000000001/10000000000",
                           "--epsilon", "1/1000000", "--format", "plain")
        assert code == 0 and out == "One\n"


class TestSzegoCommand:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "szego", "--t-min", "0", "--t-max",
                           "1/10", "--step", "1/20", "--digits", "20")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "t,re,im,residual"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0].startswith("0.0")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "szego", "--t-min", "1/2", "--t-max",
                           "1/2", "--step", "1", "--format", "json",
                           "--digits", "20")
        data = json.loads(out)
        assert code == 0 and len(data) == 1
        assert set(data[0]) == {"t", "re", "im", "residual"}

    def test_negative_t_min(self, capsys):
        code, out, _ = run(capsys, "szego", "--t-min", "-27/100", "--t-max",
                           "-1/4", "--step", "1/100", "--digits", "20")
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "szego", "--t-min", "-1/2", "--t-max",
                           "0", "--step", "1/10")
        assert code == 1 and "below the curve domain" in err


class TestVerifyCommand:
    def test_conjecture_plain(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--max-r", "8")
        lines = out.strip().splitlines()
        assert code == 0
        # the ledger-cold benchmark checker matches this line verbatim
        assert lines[0] == "PASS conjecture-psi-rho-sign-r8: 9/9 equal"
        assert lines[-1] == "1/1 pass"

    def test_conjecture_json(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--max-r", "5",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["passed"] == data["total"] == 1
        assert data["results"][0]["ok"] is True

    @pytest.mark.parametrize("suite", ["regions", "convergence"])
    def test_max_r_on_a_suite_that_ignores_it_is_a_usage_error(
            self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--max-r", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max-r" in err

    def test_ledger_line_without_cases_fails(self, capsys):
        # at max_r = -1 the dual-form ranges are empty: a line that
        # compared nothing must not pass
        code, out, _ = run(capsys, "verify", "identities", "--max-r", "-1",
                           "--format", "plain")
        empty = [ln for ln in out.splitlines() if ln.endswith("; 0 cases")]
        assert code == 1 and empty
        assert all(ln.startswith("FAIL ") for ln in empty)
        assert "FAIL dual-rho-recurrence:" in out

    def test_identities_sorted_by_item(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--max-r", "6")
        lines = out.strip().splitlines()
        assert code == 0
        items = [ln.split()[1].rstrip(":") for ln in lines[:-1]]
        assert items == sorted(items)
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("pass")


class TestFormats:
    """--format takes only the formats the command writes."""

    @pytest.mark.parametrize("argv", [
        ["eval", "theta", "--n", "10", "--format", "csv"],
        ["classify", "--w", "2", "--format", "csv"],
        ["coeff", "rho", "--format", "csv"],
        ["oracle", "theta", "--n", "10", "--format", "csv"],
        ["verify", "regions", "--format", "csv"],
        ["szego", "--format", "plain"],
    ], ids=lambda argv: argv[0])
    def test_unwritten_format_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,default", [
        (["coeff", "rho", "--r", "1", "--v", "0"], '"4/135"\n'),
        (["classify", "--w", "2"], '"Z"\n'),
        (["verify", "conjecture", "--max-r", "2"],
         "PASS conjecture-psi-rho-sign-r2: 3/3 equal\n1/1 pass\n"),
    ], ids=["coeff", "classify", "verify"])
    def test_defaults(self, capsys, command, default):
        code, out, _ = run(capsys, *command)
        assert code == 0 and out == default


class TestParsingAndEnvironment:
    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "nosuchfamily"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,literal", [
        (["classify", "--w", "1/0"], "1/0"),
        (["eval", "S", "--n", "10", "--w", "1/0"], "1/0"),
        (["oracle", "T", "--n", "5", "--w", "1/2+1/0i"], "1/2+1/0i"),
    ])
    def test_zero_denominator_names_the_literal(self, capsys, argv, literal):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"not a Gaussian rational literal: '{literal}'" in err

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(ramasym.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ramasym", "oracle", "T", "--n", "5",
             "--w", "1/2+1/3i", "--format", "plain"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "68476482/232058125-1457894028/232058125i\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["coeff", "rho", "--upto", "2", "--v", "1/2"]
        want = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["ramasym", *argv])
        code = main()
        out = capsys.readouterr()
        assert (code, out.out, out.err) == want

    def test_digits_default_to_50(self, capsys):
        argv = ("oracle", "theta", "--n", "10", "--format", "plain")
        code, default, _ = run(capsys, *argv)
        assert code == 0
        assert default == run(capsys, *argv, "--digits", "50")[1]
        assert default != run(capsys, *argv, "--digits", "49")[1]


# the options each command and target reads, as the README's table lists them
_COEFF = {"--r", "--upto", "--v", "--format"}
_EVAL = {"--n", "--v", "--terms", "--digits", "--format"}
_ORACLE = {"--n", "--format"}
_VERIFY = {"--format"}
LEAF_OPTIONS = {
    "coeff rho": _COEFF | {"--mode"},
    "coeff gamma": _COEFF | {"--mode"},
    "coeff beta": _COEFF | {"--mode"},
    "coeff tau": _COEFF,
    "coeff psi": _COEFF,
    "coeff U": _COEFF | {"--w", "--mode", "--taylor-terms"},
    "eval theta": _EVAL,
    "eval gamma": _EVAL,
    "eval psi": _EVAL,
    "eval S": _EVAL | {"--w"},
    "eval T": _EVAL | {"--w"},
    "oracle theta": _ORACLE | {"--v", "--digits"},
    "oracle psi": _ORACLE | {"--v", "--digits"},
    "oracle Ei": _ORACLE | {"--digits"},
    "oracle factorial": _ORACLE | {"--v"},
    "oracle S": _ORACLE | {"--w", "--v", "--digits"},
    "oracle T": _ORACLE | {"--w", "--v"},
    "classify": {"--w", "--epsilon", "--digits", "--format"},
    "szego": {"--t-min", "--t-max", "--step", "--digits", "--format"},
    "verify identities": _VERIFY | {"--max-r"},
    "verify conjecture": _VERIFY | {"--max-r"},
    "verify convergence": _VERIFY,
    "verify regions": _VERIFY,
    "verify all": _VERIFY | {"--max-r"},
}

# (command line, the option in it that its target does not read)
UNREAD = [
    *((["coeff", f, "--w", "1/2"], "--w")
      for f in ("rho", "gamma", "beta", "tau", "psi")),
    *((["coeff", f, "--digits", "3"], "--digits")
      for f in ("rho", "gamma", "beta", "tau", "psi", "U")),
    *((["coeff", f, "--mode", "tilde"], "--mode") for f in ("tau", "psi")),
    (["coeff", "U", "--v", "3"], "--v"),
    *((["eval", t, "--n", "20", "--w", "1/2"], "--w")
      for t in ("theta", "gamma", "psi")),
    *((["oracle", t, "--n", "20", "--w", "1/2"], "--w")
      for t in ("theta", "psi", "Ei", "factorial")),
    (["oracle", "Ei", "--n", "20", "--v", "3"], "--v"),
    (["oracle", "factorial", "--n", "5", "--digits", "3"], "--digits"),
    (["oracle", "T", "--n", "5", "--w", "1/2", "--digits", "3"], "--digits"),
    *((["verify", s, "--digits", "3"], "--digits")
      for s in ("identities", "conjecture", "convergence", "regions", "all")),
    (["coeff", "rho", "--symbolic"], "--symbolic"),
    (["coeff", "U", "--symbolic"], "--symbolic"),
    (["coeff", "rho", "--upto", "1", "--r", "5"], "--r"),
    (["coeff", "psi", "--r", "0", "--upto", "1"], "--upto"),
]


class TestLeaves:
    """Each command target takes exactly the options it reads."""

    @pytest.mark.parametrize("argv,option", UNREAD,
                             ids=[f"{a[0]}-{a[1]}{o}" for a, o in UNREAD])
    def test_an_unread_option_is_a_usage_error(self, capsys, argv, option):
        assert option in usage_error(capsys, *argv)

    @pytest.mark.parametrize("leaf", sorted(LEAF_OPTIONS))
    def test_help_lists_the_options_the_target_reads(self, capsys, leaf):
        with pytest.raises(SystemExit) as exc:
            main([*leaf.split(), "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out.startswith(f"usage: ramasym {leaf} ")
        assert set(re.findall(r"^  (--[\w-]+)", out, re.M)) \
            == LEAF_OPTIONS[leaf]
