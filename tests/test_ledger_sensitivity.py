"""Each shared ledger pattern still fails when one value it reads is wrong.

A case wraps one primitive so that it returns a value off by 10^-9 (by 1
for an integer route) at one key and is exact everywhere else, runs one
suite, and asserts exactly which lines fail.  Families are mutated in
``ramasym.coefficients``, where the ledger reads them through ``cf.*``;
combinatorial routes in ``ramasym.checks``, where it reads them by name.
"""

from fractions import Fraction

import pytest

from ramasym import checks
from ramasym import coefficients as cf
from ramasym.demoivre import _Library, clear_caches

TINY = Fraction(1, 10 ** 9)


def fast():
    return checks.check_frozen_values() \
        + checks.check_dual_forms(max_r=8, max_r_u=6)


def ident():
    return checks.check_identities()


def fast_and_ident():
    return fast() + ident()


# (module, attribute, key, error, suite, failing lines); a key matches the
# leading positional arguments of a call
FAMILIES = [
    (cf, "_psi_sum", (1, True), TINY, fast, {"frozen-psi-at-zero"}),
    (cf, "_rho_sum", (3, "tilde", False), TINY, fast,
     {"dual-rho-recurrence"}),
    (cf, "_gamma_sum", (4, "tilde", True), TINY, fast,
     {"dual-gamma-scalar-sums"}),
    (cf, "_U_coeff", (2, "tilde", None), TINY, fast, {"dual-u-recurrence"}),
    (cf, "_rho_sum", (2, "plain", True), TINY, fast_and_ident,
     {"dual-rho-scalar-sums", "frozen-rho-at-zero",
      "rho-from-associated-cycle", "rho-from-associated-subset"}),
    # the closed U modes read these by name in ``coefficients``
    (cf, "eulerian2", (5, 2), 1, fast,
     {"dual-u-closed-modes", "dual-u-taylor-sections"}),
    (cf, "stirling", ("subset", 8, 3), 1, fast, {"dual-u-taylor-sections"}),
]
ROUTES = [
    (checks, "special_closed_forms", (5, 2, "cycle2"), TINY, ident,
     {"closed-forms-vs-convolution"}),
    (checks, "strip_r", (7, 3, 2), TINY, ident, {"strip-leading-terms"}),
    (checks, "stirling_associated", ("subset", 8, 2, 3), 1, ident,
     {"associated-stirling-vs-enumeration", "gamma-from-associated-subset"}),
    (checks, "eulerian2", (5, 2), 1, ident,
     {"closed-forms-vs-convolution", "eulerian2-recovered-factorial",
      "eulerian2-recovered-harmonic", "eulerian2-row-sums",
      "eulerian2-to-stirling-cycle", "eulerian2-to-stirling-subset"}),
]


def _case_id(case):
    return f"{case[1].lstrip('_')}{list(case[2])}"


def _failing(monkeypatch, module, name, key, error, suite):
    exact = getattr(module, name)

    def off_at_key(*args):
        value = exact(*args)
        return value + error if args[:len(key)] == key else value

    monkeypatch.setattr(module, name, off_at_key)
    try:
        return {c.item for c in suite() if not c.ok}
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("case", FAMILIES, ids=_case_id)
def test_a_wrong_family_value_fails_its_lines(monkeypatch, case):
    module, name, key, error, suite, want = case
    clear_caches()
    try:
        assert _failing(monkeypatch, module, name, key, error, suite) == want
    finally:
        clear_caches()


@pytest.mark.parametrize("case", ROUTES, ids=_case_id)
def test_a_wrong_route_value_fails_its_lines(monkeypatch, case):
    module, name, key, error, suite, want = case
    assert _failing(monkeypatch, module, name, key, error, suite) == want


def _failing_with_a_row_off(monkeypatch, key):
    """The failing lines with the entry (kind, shift, m, k) of the integer
    library row over (m + s m)! off by 1."""
    exact = _Library.int_row

    def off_at_key(self, m):
        row, den = exact(self, m)
        if (self.kind, self.shift, m) == key[:3]:
            row = row[:key[3]] + [row[key[3]] + 1] + row[key[3] + 1:]
        return row, den

    clear_caches()
    monkeypatch.setattr(_Library, "int_row", off_at_key)
    try:
        return {c.item for c in fast_and_ident() if not c.ok}
    finally:
        monkeypatch.undo()
        clear_caches()


def test_a_wrong_library_row_fails_its_lines(monkeypatch):
    """Row 2 of 1/(j+1) feeds each of the U family's sums Q_k; off there,
    the U lines fail."""
    assert _failing_with_a_row_off(monkeypatch, ("cycle", 1, 2, 1)) == {
        "dual-u-closed-modes", "dual-u-recurrence",
        "frozen-u-rational-functions"}


def test_a_wrong_family_row_fails_its_lines(monkeypatch):
    """Row 3 of 1/(j+2) feeds the rho, gamma and tau sums, through the
    integer outer sum of each."""
    assert _failing_with_a_row_off(monkeypatch, ("cycle", 2, 3, 2)) == {
        "dual-gamma-recurrence", "dual-rho-recurrence",
        "dual-rho-scalar-sums", "frozen-psi-at-zero",
        "frozen-psi-polynomials", "frozen-rho-at-zero",
        "frozen-rho-polynomials", "rho-from-associated-cycle",
        "rho-from-associated-subset"}


# (base, k) of one weight (base + 2k)!!/((-1)^k k!), and the failing lines;
# base 2r serves rho_r, base 2r - 1 both gamma_r and tau_r
DOUBLE_FACTORIAL = [
    ((4, 1), {"anchor-rho-from-beta", "anchor-rho-tilde-from-beta",
              "dual-rho-recurrence", "dual-rho-scalar-sums",
              "frozen-rho-at-zero", "frozen-rho-polynomials",
              "rho-from-associated-cycle", "rho-from-associated-subset"}),
    ((3, 0), {"anchor-gamma-from-beta", "dual-gamma-recurrence",
              "frozen-psi-polynomials"}),
]


@pytest.mark.parametrize("key,want", DOUBLE_FACTORIAL,
                         ids=[f"base{b}-k{k}" for (b, k), _ in
                              DOUBLE_FACTORIAL])
def test_a_wrong_double_factorial_weight_fails_its_lines(monkeypatch, key,
                                                         want):
    """Plain and tilde read the same weights, yet their sums weigh a wrong
    weight differently, so the dual lines fail.  The weight at k = 0 meets
    only the row m = 0, which has no v = 0 term, so no v = 0 line sees it."""
    exact = cf._double_factorial_weights

    def off_at_key(base):
        for k, w in enumerate(exact(base)):
            yield w + TINY if (base, k) == key else w

    clear_caches()
    monkeypatch.setattr(cf, "_double_factorial_weights", off_at_key)
    try:
        assert {c.item for c in fast_and_ident() if not c.ok} == want
    finally:
        monkeypatch.undo()
        clear_caches()
