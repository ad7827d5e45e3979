"""Command-line interface.

Subcommands:
  coeff     print an expansion coefficient exactly (symbolic or evaluated)
  eval      evaluate a truncated expansion at given n
  oracle    ground-truth reference values from the defining sums
  classify  label a point of the w-plane
  szego     sample the boundary curve as CSV
  verify    run the verification ledger suites

``coeff``, ``eval``, ``oracle`` and ``verify`` take a target next (``coeff
rho``, ``eval S``, ``oracle T``, ``verify all``), and each target is its own
parser leaf, built from the tables below, that holds exactly the options the
target reads: an option a target does not read is a usage error, and
``ramasym coeff rho --help`` lists what rho takes.  JSON is the default
output format (CSV for szego, plain text for verify); ``--format`` accepts
only the formats a command writes, e.g. ``plain`` for bare text.  A JSON key
a target does not read is null.  Exit status: 0 on success, 1 on failed
checks or domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .asymptotics import (S_expansion, T_expansion, classify, gamma_expansion,
                          psi_expansion, szego_curve, theta_expansion)
from .coefficients import (_CONJECTURE_MAX_R, _POLY_MODES, _U_MODES, U_coeff,
                           beta, gamma_coeff, psi, rho, tau)
from .numcore import (GaussianRational, PrecisionError, format_bigfloat,
                      format_rational, parse_gaussian, parse_rational)
from .oracle import (oracle_Ei, oracle_S, oracle_T, oracle_factorial,
                     oracle_psi, oracle_theta)
from .polys import PolyV, RationalFnW, Sqrt2Scaled


def _emit(args, payload, plain_text: str) -> None:
    if args.format == "plain":
        sys.stdout.write(plain_text + "\n")
    else:
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")


def _num_str(x, digits: int) -> str:
    if isinstance(x, (int, Fraction)):
        return format_rational(Fraction(x))
    if isinstance(x, (GaussianRational, PolyV)):
        return str(x)
    return format_bigfloat(x, digits)


# add_argument keywords of the options several targets read
_DIGITS = {"--digits": dict(type=int, default=50,
                            help="working precision in decimal digits "
                                 "(default 50)")}
_W = {"--w": dict(required=True, help="argument (Gaussian rational)")}


def _modes(choices) -> dict:
    return {"--mode": dict(choices=choices, default="plain",
                           help="family variant (default plain)")}


def _formats(*formats) -> dict:
    """--format over the formats a command writes; the first is its
    default."""
    return {"--format": dict(choices=formats, default=formats[0],
                             help=f"output format (default {formats[0]})")}


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

# family: (its member of index r, the options it reads besides --r, --upto
# and --v)
_FAMILIES = {
    "rho": (lambda r, args: rho(r, args.mode), _modes(_POLY_MODES)),
    "gamma": (lambda r, args: gamma_coeff(r, args.mode), _modes(_POLY_MODES)),
    "U": (lambda r, args: U_coeff(r, args.mode,
                                  taylor_terms=args.taylor_terms),
          {"--w": dict(help="evaluate at this Gaussian rational w"),
           **_modes(_U_MODES),
           "--taylor-terms": dict(type=int, help="truncation order for "
                                  "--mode taylor (at least 1)")}),
    "tau": (lambda r, args: tau(r), {}),
    "psi": (lambda r, args: psi(r), {}),
    "beta": (lambda r, args: beta(r, args.mode), _modes(_POLY_MODES)),
}


def _coeff_value(args, x) -> str:
    """One family member as text, evaluated at --v (and --w for U)."""
    if isinstance(x, RationalFnW):
        if args.w is None:
            return str(x)
        v = parse_rational(args.v) if args.v is not None else Fraction(0)
        return str(x(parse_gaussian(args.w), v))
    if args.v is None:
        return str(x)
    v = parse_rational(args.v)
    if isinstance(x, Sqrt2Scaled):
        return str(Sqrt2Scaled(PolyV.const(x.poly(v)), x.half_pow))
    return format_rational(x(v))


def _coeff_record(args, r: int, x) -> dict:
    """One --upto record: the value at --v (and --w for U), else
    coefficient lists for the polynomial families."""
    if args.v is not None:
        return {"r": r, "value": _coeff_value(args, x)}
    if isinstance(x, PolyV):
        return {"r": r, "polyV": x.coeff_strings()}
    if isinstance(x, Sqrt2Scaled):
        return {"r": r, "polyV": x.poly.coeff_strings(),
                "sqrt2Power": x.half_pow}
    return {"r": r, "value": _coeff_value(args, x)}


def cmd_coeff(args) -> int:
    member = _FAMILIES[args.target][0]
    if args.upto is not None:
        records = [_coeff_record(args, r, member(r, args))
                   for r in range(args.upto + 1)]
        plain = "\n".join(json.dumps(rec, ensure_ascii=False)
                          for rec in records)
        _emit(args, records, plain)
        return 0
    value = _coeff_value(args, member(0 if args.r is None else args.r, args))
    _emit(args, value, value)
    return 0


# ---------------------------------------------------------------------------
# eval / oracle
# ---------------------------------------------------------------------------

# target: (its expansion at (n, w, v, R, digits), the options it reads
# besides --n, --v, --terms and --digits)
_EXPANSIONS = {
    "theta": (lambda n, w, v, R, d: theta_expansion(n, v, R, d), {}),
    "gamma": (lambda n, w, v, R, d: gamma_expansion(n, v, R, d), {}),
    "S": (S_expansion, _W),
    "T": (T_expansion, _W),
    "psi": (lambda n, w, v, R, d: psi_expansion(n, v, R, d), {}),
}

_V = {"--v": dict(type=int, default=0, help="integer offset (default 0)")}

# target: (its value at (n, w, v, digits), the options it reads besides --n)
_ORACLES = {
    "theta": (lambda n, w, v, d: oracle_theta(n, v, d), _V | _DIGITS),
    "S": (lambda n, w, v, d: oracle_S(n, _exact(w), v, d),
          _W | _V | _DIGITS),
    "T": (lambda n, w, v, d: oracle_T(n, _exact(w), v), _W | _V),
    "psi": (lambda n, w, v, d: oracle_psi(n, v, d), _V | _DIGITS),
    "Ei": (lambda n, w, v, d: oracle_Ei(n, d), _DIGITS),
    "factorial": (lambda n, w, v, d: oracle_factorial(n, v), _V),
}


def _parse_w(args):
    """--w of the targets that read it, else None."""
    return parse_gaussian(args.w) if "w" in args else None


def cmd_eval(args) -> int:
    v = _exact(parse_gaussian(args.v))
    w = _parse_w(args)
    R = args.terms
    digits = args.digits
    res = _EXPANSIONS[args.target][0](args.n, w, v, R, digits)
    value = _num_str(res.value, digits)
    payload = {
        "target": args.target, "n": args.n, "v": str(v),
        "w": str(w) if w is not None else None,
        "terms": R, "value": value,
        "perTerm": [_num_str(t, digits) for t in res.per_term],
        "regime": res.regime.kind, "errorOrder": res.error_order,
    }
    _emit(args, payload, value)
    return 0


def cmd_oracle(args) -> int:
    v = getattr(args, "v", None)
    digits = getattr(args, "digits", None)
    w = _parse_w(args)
    value = _num_str(_ORACLES[args.target][0](args.n, w, v, digits), digits)
    payload = {"target": args.target, "n": args.n, "v": v,
               "w": str(w) if w is not None else None,
               "digits": digits, "value": value}
    _emit(args, payload, value)
    return 0


def _exact(g: GaussianRational):
    """g, or its real part as a Fraction when g is real."""
    return g.re if not g.im else g


# ---------------------------------------------------------------------------
# classify / szego
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    w = parse_gaussian(args.w)
    eps = parse_rational(args.epsilon)
    label = classify(w, eps, args.digits)
    _emit(args, label.kind, label.kind)
    return 0


def cmd_szego(args) -> int:
    points = szego_curve(parse_rational(args.t_min),
                         parse_rational(args.t_max),
                         parse_rational(args.step), args.digits)
    digits = args.digits
    if args.format == "json":
        payload = [{"t": format_bigfloat(p.t, digits),
                    "re": format_bigfloat(p.w.real, digits),
                    "im": format_bigfloat(p.w.imag, digits),
                    "residual": format_bigfloat(p.residual, 3)}
                   for p in points]
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
        return 0
    lines = ["t,re,im,residual"]
    for p in points:
        lines.append(",".join((format_bigfloat(p.t, digits),
                               format_bigfloat(p.w.real, digits),
                               format_bigfloat(p.w.imag, digits),
                               format_bigfloat(p.residual, 3))))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_MAX_R = {"--max-r": dict(type=int, help="index range of identities and "
                          "conjecture; all reads it as the conjecture range "
                          f"(default {_CONJECTURE_MAX_R})")}

# suite: (its ``checks`` function, imported when it runs; its options)
_SUITES = {
    "identities": ("run_identity_suite", _MAX_R),
    "conjecture": ("check_conjecture_range", _MAX_R),
    "convergence": ("check_convergence", {}),
    "regions": ("check_regions", {}),
    "all": ("run_all", _MAX_R),
}


def cmd_verify(args) -> int:
    from . import checks
    suite = getattr(checks, _SUITES[args.target][0])
    results = suite(args.max_r) if "max_r" in args else suite()
    passed = sum(1 for r in results if r.ok)
    ok = passed == len(results)
    if args.format == "json":
        payload = {"results": [{"item": r.item, "ok": r.ok,
                                "detail": r.detail} for r in results],
                   "passed": passed, "total": len(results)}
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
        sys.stdout.write(f"{passed}/{len(results)} pass\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

# command: (help, handler, the options every target reads, targets or None)
_COMMANDS = {
    "coeff": ("print an expansion coefficient", cmd_coeff, {
        "--r": dict(type=int, help="coefficient index (default 0)"),
        "--upto": dict(type=int, help="emit all indices 0..N as JSON "
                       "records, evaluated at --v (U: at --w)"),
        "--v": dict(help="evaluate at this rational v (default: symbolic)"),
        **_formats("json", "plain")}, _FAMILIES),
    "eval": ("evaluate a truncated expansion", cmd_eval, {
        "--n": dict(type=int, required=True),
        "--v": dict(default="0", help="offset (Gaussian rational)"),
        "--terms": dict(type=int, default=3,
                        help="truncation order R (default 3)"),
        **_DIGITS, **_formats("json", "plain")}, _EXPANSIONS),
    "oracle": ("reference value from the defining sum", cmd_oracle, {
        "--n": dict(type=int, required=True),
        **_formats("json", "plain")}, _ORACLES),
    "classify": ("label a point of the w-plane", cmd_classify, {
        "--w": dict(required=True, help="Gaussian rational point"),
        "--epsilon": dict(default="1/100000000000000000000",
                          help="boundary tolerance (default 10^-20)"),
        **_DIGITS, **_formats("json", "plain")}, None),
    "szego": ("sample the boundary curve", cmd_szego, {
        "--t-min": dict(default="-27/100"),
        "--t-max": dict(default="173/100"),
        "--step": dict(default="1/100"),
        **_DIGITS, **_formats("csv", "json")}, None),
    "verify": ("run the verification ledger", cmd_verify,
               _formats("plain", "json"), _SUITES),
}


class _Parser(argparse.ArgumentParser):
    """Accepts negative rationals such as -27/100 or -1/2-1/3i as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9./+\-i]+$")


def build_parser(argv: list) -> argparse.ArgumentParser:
    """Every command and target is a subparser, but only the leaf that argv
    starts with gets its options: parsing argv reaches no other."""
    p = _Parser(
        prog="ramasym",
        description="Exact coefficients and verified numerics for the "
                    "asymptotics of exponential partial sums.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_, fn, options, targets) in _COMMANDS.items():
        cp = sub.add_parser(command, help=help_)
        if targets is None:
            leaves = [(cp, [command], {})]
        else:
            tsub = cp.add_subparsers(dest="target", required=True)
            leaves = [(tsub.add_parser(target), [command, target], own)
                      for target, (_, own) in targets.items()]
        for leaf, path, own in leaves:
            if argv[:len(path)] != path:
                continue
            # coeff's --r and --upto exclude each other
            group = leaf.add_mutually_exclusive_group() \
                if "--upto" in options else leaf
            for flag, kwargs in (options | own).items():
                (group if flag in ("--r", "--upto") else leaf).add_argument(
                    flag, **kwargs)
            leaf.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if args.command == "coeff" and args.upto is not None and args.upto < 0:
        parser.error("argument --upto: must be nonnegative")
    if args.command == "coeff" and args.target == "U":
        if args.taylor_terms is not None and args.mode != "taylor":
            parser.error("argument --taylor-terms: only --mode taylor "
                         "reads it")
        if args.v is not None and args.w is None:
            parser.error("argument --v: U reads it only together with --w")
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, PrecisionError,
            NotImplementedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
