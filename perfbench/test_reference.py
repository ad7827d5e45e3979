"""Tests of the benchmark's reference checker (no ramasym import).

    python3 -m pytest perfbench/test_reference.py -q

Each check is shown to pass on a value built from the references and to
fail once that value is perturbed.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def _interpolate(points):
    """Coefficients (lowest first) of the polynomial through (x, y) pairs."""
    n = len(points)
    coeffs = [F(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            padded = basis + [F(0)]
            basis = [(padded[k - 1] if k else 0) - xj * padded[k]
                     for k in range(len(padded))]
            denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += yi * b / denom
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _table(at, R, degree):
    rows = []
    for r in range(R + 1):
        pts = [(F(v), at(R, v)[r]) for v in range(degree(r) + 1)]
        rows.append([str(c) for c in _interpolate(pts)])
    return rows


# --- exact references -----------------------------------------------------

def test_bernoulli_numbers():
    assert ref.bernoulli(8) == [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0,
                                F(1, 42), 0, F(-1, 30)]


def test_stirling_series_low_orders():
    assert ref.stirling_series(4) == (F(1), F(1, 12), F(1, 288),
                                      F(-139, 51840), F(-571, 2488320))


def test_rho_zero_matches_paper_values():
    assert ref.rho_zero_series(4) == ref.PAPER_RHO_ZERO


def test_shift_relations_low_orders():
    for v in range(-3, 4):
        assert ref.rho_at(1, v)[0] == F(1, 3) - v
        assert ref.psi_at(1, v)[0] == F(-1, 3) - v
        assert ref.gamma_at(1, v)[1] == F(1, 12) + F(v, 2) + F(v * v, 2)
        assert ref.rho_at(1, v)[1] == F(4, 135) - F(v ** 2, 3) - F(v ** 3, 3)


def test_u_low_orders():
    # U_0 = 1/(1-w), U_1(w; 0) = -w/(1-w)^3, U_1(w; v) adds -v w/(1-w)^2
    assert ref.u_taylor_at(1, 0, 4) == [[1, 1, 1, 1], [0, -1, -3, -6]]
    assert ref.u_taylor_at(1, 1, 3)[1] == [0, -2, -5]
    with mp.workdps(30):
        u = ref.u_values(1, 0, F(1, 2))
        assert abs(u[1] + 4) < mpmath.mpf(10) ** -25


# --- floating references --------------------------------------------------

def test_head_plus_tail_is_the_whole_series():
    n, v, w = 40, 2, (F(1, 2), F(1, 3))
    with mp.workdps(60):
        z = n * mpmath.mpc(0.5, mpmath.mpf(1) / 3)
        whole = mpmath.exp(z) * mpmath.factorial(n + v) / z ** (n + v)
        total = ref.ref_S(n, w, v, 40) + ref.ref_T(n, w, v, 40)
        assert abs(total - whole) < mpmath.mpf(10) ** -38 * abs(whole)


def test_theta_and_psi_shift_relations():
    n = 60
    with mp.workdps(60):
        t0, t1 = ref.ref_theta(n, 0, 40), ref.ref_theta(n, 1, 40)
        assert abs(t1 - (t0 - 1) * F(n + 1, n)) < mpmath.mpf(10) ** -38
        p0, p1 = ref.ref_psi(n, 0, 40), ref.ref_psi(n, 1, 40)
        assert abs(p1 - (p0 - 1) * F(n, n + 1)) < mpmath.mpf(10) ** -38


def test_ei_known_value():
    with mp.workdps(40):
        assert abs(ref.ref_Ei(1, 30)
                   - mpmath.mpf("1.895117816355936755466520934331634269")) \
            < mpmath.mpf(10) ** -32


# --- workload checks pass on reference data and fail when perturbed --------

def test_coeff_check_catches_a_perturbed_coefficient():
    R = 4
    table = _table(ref.rho_at, R, lambda r: 2 * r + 1)
    op = {"family": "rho", "mode": "plain", "R": R}
    assert wl.check_coeff(op, table) is None
    bad = [row[:] for row in table]
    bad[3][2] = str(F(bad[3][2]) + F(1, 10 ** 9))
    assert wl.check_coeff(op, bad) is not None


def test_zero_sum_check_catches_a_sign():
    R = 10
    op = {"family": "psi_zero", "mode": "plain", "R": R}
    good = [str((-1) ** (r + 1) * x)
            for r, x in enumerate(ref.rho_zero_series(R))]
    assert wl.check_coeff(op, good) is None
    bad = good[:]
    bad[7] = str(-F(bad[7]))
    assert wl.check_coeff(op, bad) is not None


def test_oracle_check_holds_to_the_requested_digits():
    op = {"target": "theta", "n": 150, "v": 1, "digits": 40, "w": None}
    with mp.workdps(80):
        val = ref.ref_theta(150, 1, 60)
        good = mpmath.nstr(val, 45, strip_zeros=False)
        bad = mpmath.nstr(val + mpmath.mpf(10) ** -38, 45, strip_zeros=False)
    assert wl.check_oracle(op, {"value": good}) is None
    assert wl.check_oracle(op, {"value": bad}) is not None


@pytest.mark.parametrize("R", [1, 4, 8])
def test_eval_check_bounds_the_truncation_error(R):
    n, v = 300, 2
    op = {"target": "theta", "n": n, "v": v, "R": R, "digits": 50, "w": None}
    with mp.workdps(60):
        cs = ref.rho_at(R + 2, v)
        trunc = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                            / mpmath.mpf(n) ** r for r, c in enumerate(cs[:R]))
        omitted = wl._omitted("theta", "plain", op, None)
        out = {"regime": "One", "order": f"O(n^(-{R}))"}
        out["value"] = mpmath.nstr(trunc, 55, strip_zeros=False)
        assert wl.check_eval(op, out) is None
        out["value"] = mpmath.nstr(trunc + 3 * omitted, 55, strip_zeros=False)
        assert wl.check_eval(op, out) is not None
        out["value"] = mpmath.nstr(trunc, 55, strip_zeros=False)
        out["order"] = f"O(n^(-{R + 1}))"
        assert wl.check_eval(op, out) is not None


def test_ledger_check_needs_every_line_to_pass():
    op = {"M": 3}
    text = ("PASS a: 1 case\nPASS conjecture-psi-rho-sign-r3: 4/4 equal\n"
            "2/2 pass\n")
    assert wl.check_ledger(op, {"exit": 0, "text": text}) is None
    assert wl.check_ledger(op, {"exit": 0, "text": text.replace(
        "PASS a", "FAIL a")}) is not None
    assert wl.check_ledger(op, {"exit": 0, "text": text.replace(
        "r3: 4/4", "r3: 3/4")}) is not None


def test_inputs_repeat_for_a_seed_and_are_distinct():
    a, b = wl.eval_ops(7, 300), wl.eval_ops(7, 300)
    assert a == b
    keys = {tuple(sorted((k, str(v)) for k, v in op.items())) for op in a}
    assert len(keys) == len(a)
    assert wl.eval_ops(8, 300) != a
