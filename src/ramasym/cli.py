"""Command-line interface.

Subcommands:
  coeff     print an expansion coefficient exactly (symbolic or evaluated)
  eval      evaluate a truncated expansion at given n
  oracle    ground-truth reference values from the defining sums
  classify  label a point of the w-plane
  szego     sample the boundary curve as CSV
  verify    run the verification ledger suites

JSON is the default output format (CSV for szego, plain text for verify);
``--format`` accepts only the formats a command writes, e.g. ``plain`` for
bare text.  Exit status: 0 on success, 1 on failed checks or domain
errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import checks
from .asymptotics import (S_expansion, T_expansion, classify, gamma_expansion,
                          psi_expansion, szego_curve, theta_expansion)
from .coefficients import (U_coeff, beta, gamma_coeff, psi, rho, tau)
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


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

_FAMILIES = {
    "rho": lambda r, args: rho(r, args.mode),
    "gamma": lambda r, args: gamma_coeff(r, args.mode),
    "tau": lambda r, args: tau(r),
    "psi": lambda r, args: psi(r),
    "beta": lambda r, args: beta(r, args.mode),
    "U": lambda r, args: U_coeff(r, args.mode,
                                 taylor_terms=args.taylor_terms),
}


def _coeff_value(args, x) -> str:
    """One family member as text, evaluated at --v (and --w for U)."""
    if isinstance(x, RationalFnW):
        if args.w is None:
            return str(x)
        v = parse_rational(args.v) if args.v is not None else Fraction(0)
        return _num_str(x(parse_gaussian(args.w), v), args.digits)
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
    if args.family in ("tau", "psi") and args.mode != "plain":
        raise ValueError(f"{args.family} has only the plain mode")
    if args.symbolic:
        args.v = None
        args.w = None
    member = _FAMILIES[args.family]
    if args.upto is not None:
        records = [_coeff_record(args, r, member(r, args))
                   for r in range(args.upto + 1)]
        plain = "\n".join(json.dumps(rec, ensure_ascii=False)
                          for rec in records)
        _emit(args, records, plain)
        return 0
    value = _coeff_value(args, member(args.r, args))
    _emit(args, value, value)
    return 0


# ---------------------------------------------------------------------------
# eval / oracle
# ---------------------------------------------------------------------------

_EXPANSIONS = {
    "theta": lambda n, w, v, R, d: theta_expansion(n, v, R, d),
    "gamma": lambda n, w, v, R, d: gamma_expansion(n, v, R, d),
    "psi": lambda n, w, v, R, d: psi_expansion(n, v, R, d),
    "S": S_expansion,
    "T": T_expansion,
}

_ORACLES = {
    "theta": lambda n, w, v, d: oracle_theta(n, v, d),
    "psi": lambda n, w, v, d: oracle_psi(n, v, d),
    "Ei": lambda n, w, v, d: oracle_Ei(n, d),
    "factorial": lambda n, w, v, d: oracle_factorial(n, v),
    "S": lambda n, w, v, d: oracle_S(n, _exact_w(w), v, d),
    "T": lambda n, w, v, d: oracle_T(n, _exact_w(w), v),
}


def _parse_v(text):
    if text is None:
        return Fraction(0)
    g = parse_gaussian(text)
    if not g.im:
        return g.re
    return g


def _parse_w(args):
    if args.w is None:
        if args.target in ("S", "T"):
            raise ValueError(f"{args.command} {args.target} needs --w")
        return None
    return parse_gaussian(args.w)


def cmd_eval(args) -> int:
    v = _parse_v(args.v)
    w = _parse_w(args)
    R = args.terms
    digits = args.digits
    res = _EXPANSIONS[args.target](args.n, w, v, R, digits)
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
    v = args.v if args.v is not None else 0
    digits = args.digits
    w = _parse_w(args)
    value = _num_str(_ORACLES[args.target](args.n, w, v, digits), digits)
    payload = {"target": args.target, "n": args.n, "v": v,
               "w": str(w) if w is not None else None,
               "digits": digits, "value": value}
    _emit(args, payload, value)
    return 0


def _exact_w(g: GaussianRational):
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

_SUITES = {
    "identities": checks.run_identity_suite,
    "conjecture": checks.check_conjecture_range,
    "convergence": checks.check_convergence,
    "regions": checks.check_regions,
    "all": checks.run_all,
}
# the suites that read --max-r
_MAX_R_SUITES = ("identities", "conjecture", "all")


def cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    results = suite(args.max_r) if args.suite in _MAX_R_SUITES else suite()
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

# the output formats each command writes; the first is its default
_FORMATS = {"coeff": ("json", "plain"), "eval": ("json", "plain"),
            "oracle": ("json", "plain"), "classify": ("json", "plain"),
            "szego": ("csv", "json"), "verify": ("plain", "json")}


class _Parser(argparse.ArgumentParser):
    """Accepts negative rationals such as -27/100 or -1/2-1/3i as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9./+\-i]+$")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--digits", type=int, default=50,
                        help="working precision in decimal digits "
                             "(default 50)")

    p = _Parser(
        prog="ramasym",
        description="Exact coefficients and verified numerics for the "
                    "asymptotics of exponential partial sums.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeff", parents=[common],
                        help="print an expansion coefficient")
    pc.add_argument("family",
                    choices=("rho", "gamma", "U", "tau", "psi", "beta"))
    pc.add_argument("--r", type=int, default=0, help="coefficient index")
    pc.add_argument("--upto", type=int, default=None,
                    help="emit all indices 0..N as JSON records, "
                         "evaluated at --v (U: at --w)")
    pc.add_argument("--v", default=None,
                    help="evaluate at this rational v (default: symbolic)")
    pc.add_argument("--w", default=None,
                    help="evaluate U at this Gaussian rational w")
    pc.add_argument("--symbolic", action="store_true",
                    help="force the symbolic polynomial form")
    pc.add_argument("--mode", default="plain",
                    help="family variant (plain, tilde; U also accepts "
                         "vzero_harmonic, vzero_factorial, eulerian, taylor)")
    pc.add_argument("--taylor-terms", type=int, default=None,
                    help="truncation order for U mode taylor (at least 1)")
    pc.set_defaults(fn=cmd_coeff)

    pe = sub.add_parser("eval", parents=[common],
                        help="evaluate a truncated expansion")
    pe.add_argument("target", choices=("theta", "gamma", "S", "T", "psi"))
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--v", default=None, help="offset (Gaussian rational)")
    pe.add_argument("--w", default=None, help="argument (Gaussian rational)")
    pe.add_argument("--terms", type=int, default=3,
                    help="truncation order R (default 3)")
    pe.set_defaults(fn=cmd_eval)

    po = sub.add_parser("oracle", parents=[common],
                        help="reference value from the defining sum")
    po.add_argument("target",
                    choices=("theta", "S", "T", "psi", "Ei", "factorial"))
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--v", type=int, default=None)
    po.add_argument("--w", default=None, help="exact Gaussian rational")
    po.set_defaults(fn=cmd_oracle)

    pk = sub.add_parser("classify", parents=[common],
                        help="label a point of the w-plane")
    pk.add_argument("--w", required=True, help="Gaussian rational point")
    pk.add_argument("--epsilon", default="1/100000000000000000000",
                    help="boundary tolerance (default 10^-20)")
    pk.set_defaults(fn=cmd_classify)

    ps = sub.add_parser("szego", parents=[common],
                        help="sample the boundary curve")
    ps.add_argument("--t-min", default="-27/100")
    ps.add_argument("--t-max", default="173/100")
    ps.add_argument("--step", default="1/100")
    ps.set_defaults(fn=cmd_szego)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the verification ledger")
    pv.add_argument("suite", choices=tuple(_SUITES))
    pv.add_argument("--max-r", type=int, default=None,
                    help="index range of identities and conjecture; all "
                         "reads it as the conjecture range (default "
                         f"{checks._CONJECTURE_MAX_R})")
    pv.set_defaults(fn=cmd_verify)

    for command, sp in sub.choices.items():
        sp.add_argument("--format", choices=_FORMATS[command],
                        default=_FORMATS[command][0],
                        help=f"output format (default {_FORMATS[command][0]})")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.max_r is not None \
            and args.suite not in _MAX_R_SUITES:
        parser.error(f"argument --max-r: verify {args.suite} does not "
                     f"read it")
    if args.command == "coeff" and args.upto is not None and args.upto < 0:
        parser.error("argument --upto: must be nonnegative")
    if args.command == "coeff" and args.taylor_terms is not None \
            and (args.family, args.mode) != ("U", "taylor"):
        parser.error("argument --taylor-terms: only U --mode taylor reads it")
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, PrecisionError,
            NotImplementedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
