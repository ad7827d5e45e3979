"""One benchmark worker: a fresh interpreter that calls into ramasym.

Protocol (one JSON object per line): the worker imports ramasym, does
the set-up its first line names, writes {"ready": ...}, then answers
each request line with one reply line until its input ends.  A cold
operation is the only request its worker gets.  Only the call into the
program is timed; serializing outputs and checking memos happen outside
the timed region.

With "trace" set, the worker records spans (name, start, end, parent)
around its own calls into each layer and returns them with the reply.

Run only by ``run.py``; the package is imported from ``src/`` of the
checkout the benchmark sits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

sys.set_int_max_str_digits(0)
_PROTO = sys.stdout
sys.stdout = sys.stderr

_clock = time.perf_counter


class Tracer:
    """Spans kept in memory: [id, parent, name, start, end]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, _clock(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = _clock()


def _send(obj) -> None:
    _PROTO.write(json.dumps(obj) + "\n")
    _PROTO.flush()


def memo_sizes() -> dict:
    """currsize of every lru_cache in the package's modules."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("ramasym"):
            continue
        for name, obj in list(vars(mod).items()):
            info = getattr(obj, "cache_info", None)
            if callable(info):
                out[f"{modname}.{name}"] = info().currsize
    return out


# ---------------------------------------------------------------------------
# serialization (outside the timed region)
# ---------------------------------------------------------------------------

def _poly_out(p):
    return [str(c) for c in p.c]


def _coeff_out(op, table):
    fam = op["family"]
    if fam in ("rho", "gamma", "tau", "psi"):
        return [_poly_out(p) for p in table]
    if fam == "beta":
        return [[_poly_out(b.poly), b.half_pow] for b in table]
    if fam == "U":
        return [[[_poly_out(p) for p in u.num.c], u.e] for u in table]
    return [str(x) for x in table]


def _mp_out(x, digits: int) -> str:
    import mpmath
    if isinstance(x, mpmath.mpc):
        return (mpmath.nstr(x.real, digits + 5, strip_zeros=False) + ","
                + mpmath.nstr(x.imag, digits + 5, strip_zeros=False))
    return mpmath.nstr(x, digits + 5, strip_zeros=False)


def _exact_out(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return f"{x.re},{x.im}"


def _w_in(wj):
    from ramasym.numcore import GaussianRational
    if wj is None:
        return None
    re, im = Fraction(wj[0]), Fraction(wj[1])
    return GaussianRational(re, im) if im else re


# ---------------------------------------------------------------------------
# coeff-cold
# ---------------------------------------------------------------------------

_FAMILY_SPAN = {"rho": "coefficients.rho", "gamma": "coefficients.gamma",
                "tau": "coefficients.tau", "psi": "coefficients.psi",
                "beta": "coefficients.beta", "U": "coefficients.U",
                "rho_zero": "coefficients.zero_sums",
                "psi_zero": "coefficients.zero_sums"}


def coeff_table(op):
    from ramasym import coefficients as cf
    fam, mode, R = op["family"], op["mode"], op["R"]
    rs = range(R + 1)
    if fam == "rho":
        return [cf.rho(r, mode) for r in rs]
    if fam == "gamma":
        return [cf.gamma_coeff(r, mode) for r in rs]
    if fam == "tau":
        return [cf.tau(r) for r in rs]
    if fam == "psi":
        return [cf.psi(r) for r in rs]
    if fam == "beta":
        return [cf.beta(r, mode) for r in rs]
    if fam == "U":
        return [cf.U_coeff(r, mode, taylor_terms=op.get("taylor_terms"))
                for r in rs]
    if fam == "rho_zero":
        return [cf.rho_zero(r) for r in rs]
    return [cf.psi_zero(r) for r in rs]


def triangle_extents(op):
    """(shift, factorial?, N): the De Moivre triangles a table reads,
    over 1/(j+shift) or 1/(j+shift)!, up to degree and power N."""
    fam, mode, R = op["family"], op["mode"], op["R"]
    if fam in ("rho", "gamma", "tau", "psi", "rho_zero", "psi_zero"):
        N = 2 * R if fam == "gamma" else 2 * R + 1
        return [(2, mode == "tilde", N)]
    if fam == "beta":
        return [(2, mode == "tilde", R)]
    if fam == "U" and mode in ("plain", "vzero_harmonic"):
        return [(1, False, R)]
    if fam == "U" and mode in ("tilde", "vzero_factorial"):
        return [(1, True, R)]
    return []


def coeff_traced(op, tr: Tracer):
    from ramasym import combinat
    dm = sys.modules["ramasym.demoivre"]
    fam, mode, R = op["family"], op["mode"], op["R"]
    if fam == "U" and mode == "eulerian":
        with tr.span("combinat.rows"):
            combinat.eulerian2(R, 0)
    if fam == "U" and mode == "taylor":
        T = op["taylor_terms"]
        with tr.span("combinat.rows"):
            combinat.stirling("subset", R + T - 1, T - 1)
    extents = triangle_extents(op)
    if extents:
        with tr.span("demoivre.triangle"):
            for shift, fact, N in extents:
                seq = dm.inv_factorial(shift) if fact else dm.harmonic(shift)
                dm.demoivre(N, N, seq)
    with tr.span(_FAMILY_SPAN[fam]):
        return coeff_table(op)


def associated_traced(extents, tr: Tracer):
    """The associated Stirling numbers that carry the same information as
    the triangles: A(m, k; 1/(j+s)) = k!/(m+sk)! d_(s+1)(m+sk, k)."""
    from ramasym import combinat
    with tr.span("combinat.associated"):
        for shift, fact, N in extents:
            kind = "subset" if fact else "cycle"
            for m in range(N + 1):
                for k in range(m + 1):
                    combinat.stirling_associated(kind, m + shift * k, k,
                                                 shift + 1)


# ---------------------------------------------------------------------------
# eval-warm
# ---------------------------------------------------------------------------

def eval_setup(max_r: int):
    from ramasym import coefficients as cf
    for r in range(max_r):
        cf.rho(r), cf.gamma_coeff(r), cf.psi(r), cf.U_coeff(r)


def _eval_call(op, w):
    from ramasym import asymptotics as a
    t, n, v, R, d = op["target"], op["n"], Fraction(op["v"]), op["R"], \
        op["digits"]
    if t == "theta":
        return a.theta_expansion(n, v, R, d)
    if t == "gamma":
        return a.gamma_expansion(n, v, R, d)
    if t == "psi":
        return a.psi_expansion(n, v, R, d)
    fn = a.S_expansion if t == "S" else a.T_expansion
    return fn(n, w, v, R, d)


def _eval_coeffs(op, w, region: str):
    """The exact coefficient values the expansion's branch reads."""
    from ramasym import coefficients as cf
    t, v, R = op["target"], Fraction(op["v"]), op["R"]
    if t == "theta":
        return [cf.rho(r)(v) for r in range(R)]
    if t == "gamma":
        return [cf.gamma_coeff(r)(v) for r in range(R)]
    if t == "psi":
        return [cf.psi(r)(v) for r in range(R)]
    if region == "One":
        return [(cf.rho(r)(v), cf.gamma_coeff(r)(v)) for r in range(R)]
    if (t, region) in (("S", "Z"), ("T", "Y")):
        return [cf.gamma_coeff(r)(v) for r in range(R)]
    return [cf.U_coeff(r)(w, v) for r in range(R)]


def eval_op(op, tr: Tracer):
    from mpmath import mp
    mp.dps = max(op["digits"] + 10, 30)
    w = _w_in(op["w"])
    t_op = _clock()
    if tr.enabled:
        from ramasym import asymptotics as a
        region = "One"
        if w is not None:
            with tr.span("asymptotics.classify"):
                region = a.classify(w, digits=op["digits"]).kind
        with tr.span("polys.eval"):
            _eval_coeffs(op, w, region)
    with tr.span("asymptotics.expansion"):
        t0 = _clock()
        res = _eval_call(op, w)
        dt = _clock() - (t_op if tr.enabled else t0)
    out = {"value": _mp_out(res.value, op["digits"]),
           "regime": res.regime.kind, "order": res.error_order}
    return dt, out


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

def _oracle_call(op, w):
    from ramasym import oracle as o
    t, n, v, d = op["target"], op["n"], op["v"], op["digits"]
    if t == "theta":
        return o.oracle_theta(n, v, d)
    if t == "psi":
        return o.oracle_psi(n, v, d)
    if t == "S":
        return o.oracle_S(n, w, v, d)
    if t == "T":
        return o.oracle_T(n, w, v)
    return o.oracle_Ei(n, d)


def oracle_op(op, tr: Tracer):
    from mpmath import mp
    from ramasym import oracle as o
    mp.dps = max(op["digits"] + 10, 30)
    w = _w_in(op["w"])
    t = op["target"]
    t_op = _clock()
    if tr.enabled and t in ("theta", "psi", "S"):
        with tr.span("oracle.exact_sum"):
            o.oracle_T(op["n"], w if w is not None else Fraction(1), op["v"])
    name = {"T": "oracle.exact_sum", "Ei": "oracle.ei"}.get(t, "oracle.call")
    with tr.span(name):
        t0 = _clock()
        val = _oracle_call(op, w)
        dt = _clock() - (t_op if tr.enabled else t0)
    value = _exact_out(val) if t == "T" else _mp_out(val, op["digits"])
    return dt, {"value": value}


# ---------------------------------------------------------------------------
# ledger-cold
# ---------------------------------------------------------------------------

def ledger_op(op, tr: Tracer):
    from ramasym import checks, cli
    M = op["M"]
    if not tr.enabled:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = _clock()
            code = cli.main(["verify", "all", "--max-r", str(M)])
            dt = _clock() - t0
        return dt, {"exit": code, "text": buf.getvalue()}
    t0 = _clock()
    results = []
    with tr.span("checks.identities"):
        results += checks.run_identity_suite()
    with tr.span("checks.conjecture"):
        results += checks.check_conjecture_range(M)
    with tr.span("checks.convergence"):
        results += checks.check_convergence()
    with tr.span("checks.regions"):
        results += checks.check_regions()
    buf = io.StringIO()
    with tr.span("cli.overhead"), contextlib.redirect_stdout(buf):
        cli.main(["verify", "conjecture", "--max-r", str(M)])
    dt = _clock() - t0
    results = sorted(results, key=lambda r: r.item)
    text = "".join(r.line() + "\n" for r in results)
    passed = sum(r.ok for r in results)
    text += f"{passed}/{len(results)} pass\n"
    return dt, {"exit": 0 if passed == len(results) else 1, "text": text}


LEDGER_ASSOC_N = 12


def ledger_assoc_traced(tr: Tracer):
    """The combinatorial tables the ledger's identity checks read."""
    from ramasym import combinat
    with tr.span("combinat.rows"):
        for kind in ("cycle", "subset"):
            combinat.stirling(kind, LEDGER_ASSOC_N, 1)
        combinat.eulerian2(LEDGER_ASSOC_N, 0)
    with tr.span("combinat.associated"):
        for kind in ("cycle", "subset"):
            for r in range(1, 5):
                for n in range(LEDGER_ASSOC_N + 1):
                    for k in range(n + 1):
                        combinat.stirling_associated(kind, n, k, r)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _one_cold(req, tr):
    kind, op = req["kind"], req["op"]
    if kind == "ledger":
        return ledger_op(op, tr)
    t0 = _clock()
    if kind == "coeff":
        table = coeff_traced(op, tr) if tr.enabled else coeff_table(op)
        dt = _clock() - t0
        return dt, _coeff_out(op, table)
    if kind == "coeff-assoc":
        associated_traced(triangle_extents(op), tr)
    else:
        ledger_assoc_traced(tr)
    return _clock() - t0, None


# The CPUs of a shared host slow down and speed up independently of each
# other, by up to 1.6 times for seconds at a time; a worker that stays on
# one CPU measures that CPU's luck.  The worker takes turns on every CPU it
# may use, so each run spreads evenly over all of them.
CPU_TURN_S = 0.1


def take_turns_on_cpus() -> None:
    """Move the main thread to the next allowed CPU every CPU_TURN_S, from
    a thread that otherwise sleeps."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    tid = threading.get_native_id()

    def turn():
        i = 0
        while True:
            time.sleep(CPU_TURN_S)
            i += 1
            try:
                os.sched_setaffinity(tid, {cpus[i % len(cpus)]})
            except OSError:
                return

    threading.Thread(target=turn, daemon=True).start()


def main() -> int:
    take_turns_on_cpus()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    setup = json.loads(sys.stdin.readline())
    import ramasym  # noqa: F401  (interpreter start plus import is set-up)
    if setup.get("eval_max_r"):
        eval_setup(setup["eval_max_r"])
    _send({"ready": True})
    for line in sys.stdin:
        _serve(json.loads(line))
    return 0


def _serve(req) -> None:
    tr = Tracer(req.get("trace", False))
    if req["kind"] in ("eval", "oracle"):
        fn = eval_op if req["kind"] == "eval" else oracle_op
        times, outs, errors = [], [], []
        for op in req["ops"]:
            first = len(tr.spans)
            try:
                dt, out = fn(op, tr)
            except Exception as exc:  # reported as a failed operation
                dt, out = None, None
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                errors.append(None)
            times.append(dt)
            outs.append([out, tr.spans[first:]])
        _send({"times": times, "outs": outs, "errors": errors})
        return
    memo = memo_sizes()
    try:
        dt, out = _one_cold(req, tr)
        err = None
    except Exception as exc:  # reported as a failed operation
        dt, out, err = None, None, f"{type(exc).__name__}: {exc}"
    _send({"time": dt, "out": out, "error": err, "memo": memo,
           "spans": tr.spans})


if __name__ == "__main__":
    sys.exit(main())
