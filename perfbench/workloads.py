"""Seeded inputs for the four workloads, and the checks on their outputs.

This module never imports ramasym: inputs are plain JSON-able dicts handed
to ``worker.py``, and every output that comes back is checked here against
``reference.py``.  Run as a script, it checks the items ``run.py`` writes
to its stdin.

Each workload is built from rounds.  A round has the same make-up for
every seed (the same families, targets and size strata); the seed picks
the sizes inside each stratum and the points.  Rounds keep the work in one
run comparable between seeds, so the run-to-run spread measures the
program and not the draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
from mpmath import mp

import reference as ref

WORKLOADS = ("coeff-cold", "eval-warm", "oracle-sweep", "ledger-cold")

# Seconds of timed work one round takes on the reference machine (README);
# a run of --seconds s does round(seconds / ROUND_SECONDS) whole rounds.
ROUND_SECONDS = {"coeff-cold": 5.0, "oracle-sweep": 5.0, "ledger-cold": 5.0,
                 "eval-warm": 0.0125}

# ---------------------------------------------------------------------------
# coeff-cold: one exact table r = 0..R per operation, fresh interpreter
# ---------------------------------------------------------------------------

# (family, mode, lowest R, highest R).  A table r = 0..R holds every lower
# index too.  The windows put five slots of about the same cost in the
# middle of a round, so that the median operation moves little from seed
# to seed; the heaviest slots, where one more index costs 10-40% more
# (U grows like R^5), keep one index, so the round's total and its tail
# stay steady too.
COEFF_SLOTS = (
    ("rho", "plain", 18, 19), ("rho", "tilde", 21, 22),
    ("gamma", "plain", 19, 20), ("gamma", "tilde", 21, 22),
    ("tau", "plain", 18, 19), ("psi", "plain", 13, 13),
    ("beta", "plain", 19, 20), ("beta", "tilde", 19, 20),
    ("U", "plain", 15, 15), ("U", "tilde", 15, 15),
    ("U", "vzero_harmonic", 19, 20), ("U", "vzero_factorial", 19, 20),
    ("U", "eulerian", 19, 20), ("U", "taylor", 19, 20),
    ("rho_zero", "plain", 45, 45), ("psi_zero", "plain", 45, 45),
)


def coeff_round(rng: random.Random, small: bool = False) -> list:
    ops = []
    for fam, mode, lo, hi in COEFF_SLOTS:
        if small:
            lo, hi = max(1, lo // 4), max(2, hi // 4)
        op = {"family": fam, "mode": mode, "R": rng.randint(lo, hi)}
        if mode == "taylor":
            op["taylor_terms"] = rng.randint(8, 16)
        ops.append(op)
    rng.shuffle(ops)
    return ops


def _poly(strings) -> list:
    return [Fraction(s) for s in strings]


def _check_poly_family(table, R, degree, reference_at, tilde, points):
    """Plain: table[r](v) == ref_r(v); tilde: T_r + v T_(r-1) == ref_r at v.

    ``points`` integer values of v pin a polynomial of degree < points.
    """
    if len(table) != R + 1:
        return f"table has {len(table)} rows, expected {R + 1}"
    polys = [_poly(p) for p in table]
    for r, p in enumerate(polys):
        if len(p) - 1 > degree(r):
            return f"r={r}: degree {len(p) - 1} above {degree(r)}"
    for v in range(points):
        want = reference_at(R, v)
        prev = Fraction(0)
        for r, p in enumerate(polys):
            got = ref.poly_at(p, v)
            if tilde:
                got, prev = got + v * prev, got
            if got != want[r]:
                return f"r={r} v={v}: {got} != {want[r]}"
    return None


def _check_beta(table, R, tilde):
    """beta_2r = gamma_r/(2r-1)!!, beta_(2r+1) = (delta_r0 - rho_r)/(2^r r!),
    in the polynomial part.

    The sqrt(2) power of beta_s is s - 1; tilde rows follow the same
    one-step recurrence in v as the other tilde families.
    """
    for s, (strings, half_pow) in enumerate(table):
        if half_pow != s - 1:
            return f"s={s}: sqrt(2) power {half_pow} != {s - 1}"
    rows = [_poly(strings) for strings, _ in table]
    g_rows = [[c * _odd_fact(2 * r - 1) for c in rows[2 * r]]
              for r in range(R // 2 + 1)]
    r_rows = []
    for r in range((R - 1) // 2 + 1):
        p = [-(2 ** r) * math.factorial(r) * c for c in rows[2 * r + 1]]
        if r == 0 and not tilde:
            p = [1 + (p[0] if p else 0)] + p[1:]
        r_rows.append(p)
    for fam_rows, at in ((g_rows, ref.gamma_at), (r_rows, ref.rho_at)):
        if not fam_rows:
            continue
        top = len(fam_rows) - 1
        for v in range(2 * top + 2):
            want = at(top, v)
            prev = Fraction(0)
            for r, p in enumerate(fam_rows):
                got = ref.poly_at(p, v)
                if tilde:
                    got, prev = got + v * prev, got
                if got != want[r]:
                    return f"beta via r={r} v={v}: {got} != {want[r]}"
    return None


def _odd_fact(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _check_u(table, R, mode, taylor_terms):
    """Taylor sections at w = 0 against the Stirling-subset reference."""
    vzero = mode in ("vzero_harmonic", "vzero_factorial", "eulerian", "taylor")
    rows = []
    for num, e in table:
        rows.append(([_poly(p) for p in num], e))
    if mode == "taylor":
        want = ref.u_taylor_at(R, 0, taylor_terms)
        for r, (num, e) in enumerate(rows):
            got = [ref.poly_at(p, 0) for p in num]
            got += [Fraction(0)] * (taylor_terms - len(got))
            if e != 0 or got != want[r]:
                return f"taylor r={r}: {got} != {want[r]}"
        return None
    for r, (num, e) in enumerate(rows):
        if e > 2 * r + 1:
            return f"r={r}: pole order {e} above {2 * r + 1}"
        if vzero and any(len(p) > 1 for p in num):
            return f"r={r}: v = 0 form depends on v"
    terms = max(max(len(num) - 1 - e, 0) + 2 * r + 2
                for r, (num, e) in enumerate(rows))
    for v in range(1 if vzero else R + 1):
        want = ref.u_taylor_at(R, v, terms)
        prev = None
        for r, (num, e) in enumerate(rows):
            got = ref.taylor_of_rational([ref.poly_at(p, v) for p in num],
                                         e, terms)
            if mode == "tilde":
                cur = got
                if prev is not None:
                    got = [a + v * b for a, b in zip(got, prev)]
                prev = cur
            if got != want[r]:
                return f"U r={r} v={v}: Taylor section differs"
    return None


def check_coeff(op: dict, out) -> str | None:
    """None when the table is right, else a one-line reason."""
    fam, mode, R = op["family"], op["mode"], op["R"]
    tilde = mode == "tilde"
    if fam == "rho":
        return _check_poly_family(out, R, lambda r: 2 * r + 1, ref.rho_at,
                                  tilde, 2 * R + 2)
    if fam == "gamma":
        return _check_poly_family(out, R, lambda r: 2 * r, ref.gamma_at,
                                  tilde, 2 * R + 1)
    if fam == "tau":
        return _check_poly_family(out, R, lambda r: 2 * r + 1, ref.tau_at,
                                  False, 2 * R + 2)
    if fam == "psi":
        return _check_poly_family(out, R, lambda r: 2 * r + 1, ref.psi_at,
                                  False, 2 * R + 2)
    if fam == "beta":
        return _check_beta(out, R, tilde)
    if fam == "U":
        return _check_u(out, R, mode, op.get("taylor_terms"))
    want = list(ref.rho_zero_series(R))
    if fam == "psi_zero":
        want = [(-1) ** (r + 1) * x for r, x in enumerate(want)]
    got = [Fraction(s) for s in out]
    if got != want:
        bad = next(r for r in range(len(want))
                   if r >= len(got) or got[r] != want[r])
        return f"{fam} r={bad} differs from the reference"
    return None


# ---------------------------------------------------------------------------
# eval-warm: truncated expansions with memoized coefficients
# ---------------------------------------------------------------------------

EVAL_MAX_R = 8
# Truncation error check: |expansion - reference| <= scale * (ERR_FACTOR *
# (|c_R| n^-R + |c_(R+1)| n^-(R+1) + |c_(R+2)| n^-(R+2)) + ERR_FLOOR n^-R),
# with the coefficients c_k from reference.py at the op's (v, w).  scale is
# 1 for absolute error and |reference| for gamma and the dominant branches.
ERR_FACTOR = 2
ERR_FLOOR = math.exp(-10)
PSI_POOL = 24
PSI_REF_DIGITS = 40


def _region(w) -> str:
    if w == (Fraction(1), Fraction(0)):
        return "One"
    m = ref.modulus(w)
    if m > 1:
        return "X"
    return "Y" if w[0] < 1 else "Z"


def _random_w(rng: random.Random, region: str):
    """An exact point of the region, at least 1/2 from w = 1.  The point
    is (a + bi)/q; the distance tests run on the integers."""
    while True:
        q = rng.choice((2, 3, 4, 5, 6, 8))
        a = rng.randint(-3 * q, 3 * q)
        b = rng.randint(-2 * q, 2 * q) if rng.random() < 0.6 else 0
        if 16 * (a * a + b * b) < q * q:
            continue
        if 4 * ((a - q) ** 2 + b * b) < q * q:
            continue
        w = (Fraction(a, q), Fraction(b, q))
        if _region(w) == region:
            return w


def _neglect_ok(n: int, R: int, w) -> bool:
    """The exponentially small part left out of the expansion stays far
    below n^-R, so the stated order is what the check sees."""
    lm = abs(math.log(ref.modulus(w)))
    return n * lm - R * math.log(n) - 0.5 * math.log(2 * math.pi * n) > 12


def _terms_shrink(n: int, R: int, w) -> bool:
    """U_r grows like r!/|1-w|^(2r); keep n past the point where the
    omitted terms still decrease."""
    d2 = float((w[0] - 1) ** 2 + w[1] ** 2)
    return n * d2 >= 4 * (R + 2)


# a round: one input per (target, region) kind
_EVAL_KINDS = [(t, None) for t in ("theta", "gamma", "psi")] + \
    [(t, reg) for t in ("S", "T") for reg in ("X", "Y", "Z", "One")]
EVAL_ROUND = len(_EVAL_KINDS)


def eval_ops(seed: int, count: int) -> list:
    """``count`` distinct expansion inputs: a fixed cycle of target/region
    pairs, with n, v, R, digits and the point drawn from the seed."""
    rng = random.Random(f"eval-warm/{seed}")
    # psi's reference costs an Ei(n) at n log10(e) extra digits; psi inputs
    # draw n from a seeded pool so the checker can share it across v, R.
    psi_pool = rng.sample(range(20, 2001), PSI_POOL)
    seen = set()
    ops = []
    while len(ops) < count:
        target, region = _EVAL_KINDS[len(ops) % EVAL_ROUND]
        n = rng.choice(psi_pool) if target == "psi" else rng.randint(20, 2000)
        R = rng.randint(1, EVAL_MAX_R)
        v = rng.randint(-3, 3)
        digits = rng.randint(30, 200)
        w = None
        if region == "One":
            w = (Fraction(1), Fraction(0))
        elif region is not None:
            w = _random_w(rng, region)
            if not _neglect_ok(n, R, w) or not _terms_shrink(n, R, w):
                continue
        key = (target, n, v, w, R, digits)
        if key in seen:
            continue
        seen.add(key)
        ops.append({"target": target, "n": n, "v": v, "R": R,
                    "digits": digits, "w": _w_json(w)})
    return ops


def _w_json(w):
    return None if w is None else [str(w[0]), str(w[1])]


def _w_exact(wj):
    return (Fraction(wj[0]), Fraction(wj[1]))


def _w_ref(w):
    return w if w[1] else w[0]


_EXPECTED_ORDER = {
    "plain": "O(n^(-{R}))",
    "half": "O(n^({half}))",
    "dominant": "O(sqrt(n) * |w*e^(1-w)|^(-n) * n^(-{R}))",
    "gamma": "prefactor * O(n^(-{R}))",
}


def _omitted(target: str, kind: str, op: dict, w):
    """|c_R| n^-R + |c_(R+1)| n^-(R+1) + |c_(R+2)| n^-(R+2)."""
    n, v, R = op["n"], op["v"], op["R"]
    top = R + 2
    if target in ("theta", "psi", "gamma"):
        fam = {"theta": "rho", "psi": "psi", "gamma": "gamma"}[target]
        cs = [_mpq(c) for c in ref.series_at(fam, top, v)]
    elif kind == "half":
        half = mpmath.sqrt(2 * mpmath.pi * n) / 2
        sign = 1 if target == "S" else -1
        cs = [sign * _mpq(a) + _mpq(b) * half for a, b in
              zip(ref.rho_at(top, v), ref.gamma_at(top, v))]
    elif kind == "dominant":
        cs = [_mpq(c) for c in ref.gamma_at(top, v)]
    else:
        cs = ref.u_values(top, v, _w_ref(w))
    nm = mpmath.mpf(n)
    return sum(abs(cs[k]) * nm ** (-k) for k in range(R, top + 1))


def check_eval(op: dict, out) -> str | None:
    target, n, v, R = op["target"], op["n"], op["v"], op["R"]
    got = ref.parse_mp(out["value"])
    d = max(15, int(R * math.log10(n)) + 10)
    w = None
    if target == "theta":
        want, kind, region = ref.ref_theta(n, v, d), "plain", "One"
    elif target == "psi":
        # one precision for every psi input, so Ei(n) is shared across v, R
        d = PSI_REF_DIGITS
        want, kind, region = ref.ref_psi(n, v, d), "plain", "One"
    elif target == "gamma":
        want, kind, region = ref.ref_factorial(n, v, d), "gamma", "One"
    else:
        w = _w_exact(op["w"])
        region = _region(w)
        fn = ref.ref_S if target == "S" else ref.ref_T
        want = fn(n, _w_ref(w), v, d)
        if region == "One":
            kind = "half"
        elif (target, region) in (("S", "Z"), ("T", "Y")):
            kind = "dominant"
        else:
            kind = "plain"
    if out["regime"] != region:
        return f"regime {out['regime']} != {region}"
    order = _EXPECTED_ORDER[kind].format(R=R, half=Fraction(1, 2) - R)
    if out["order"] != order:
        return f"error order {out['order']!r} != {order!r}"
    with mp.workdps(20):
        # three significant digits of the bound are plenty
        omitted = _omitted(target, kind, op, w)
    with mp.workdps(d + 10):
        scale = abs(want) if kind in ("gamma", "dominant") else 1
        bound = scale * (ERR_FACTOR * omitted
                         + ERR_FLOOR * mpmath.mpf(n) ** (-R))
        err = abs(got - want)
        if not err <= bound:
            return (f"error {mpmath.nstr(err, 5)} above "
                    f"{mpmath.nstr(bound, 5)}")
    return None


# ---------------------------------------------------------------------------
# oracle-sweep: reference evaluations from the defining sums
# ---------------------------------------------------------------------------

ORACLE_TARGETS = ("theta", "psi", "S", "T", "Ei")
# Each round draws one n per target near each of these 16 log-spaced
# centres (within +-4%); the cost of an oracle call grows like n^2 or
# faster, so narrow strata keep a round's cost steady from seed to seed,
# and the dense ladder of costs keeps the percentiles from jumping between
# targets.  psi uses
# centres up to 1000, below the point where its Ei call outgrows the
# embedded Euler constant for digits <= 100.
N_CENTRES = (55, 70, 88, 112, 141, 179, 227, 287, 364, 461, 583, 739, 936, 1185, 1500, 1900)
PSI_CENTRES = (53, 63, 77, 93, 113, 137, 166, 202, 245, 297, 361, 438, 531, 645, 783, 950)
N_BAND = 0.04
# Complex w above this n would make the exact Gaussian head sum (about 3 s
# at n = 1900, twice any other call) the whole tail of a round, and the
# most machine-sensitive figure of the run.
COMPLEX_MAX_N = 1200


def _oracle_w(rng: random.Random, complex_w: bool):
    """w = +-3/4 or +-3/4 +- i/4.  The exact head sum's cost grows with the
    size of w's numerator and denominator, and the float part's with
    n |Re w|, so the draw keeps both fixed and varies the signs."""
    re = Fraction(3 * rng.choice((-1, 1)), 4)
    im = Fraction(rng.choice((-1, 1)), 4) if complex_w else Fraction(0)
    return (re, im)


def oracle_round(rng: random.Random, seen: set, small: bool = False) -> list:
    """One input per target and centre; S takes complex w at even
    centres and T at odd ones up to COMPLEX_MAX_N, so both see real and
    complex points."""
    ops = []
    for target in ORACLE_TARGETS:
        centres = PSI_CENTRES if target == "psi" else N_CENTRES
        for i, c in enumerate(centres[:2] if small else centres):
            lo, hi = int(c * (1 - N_BAND)), int(c * (1 + N_BAND))
            while True:
                n = rng.randint(lo, hi)
                v = rng.randint(-3, 3) if target != "Ei" else 0
                digits = rng.randint(30, 100)
                w = None
                if target in ("S", "T"):
                    w = _oracle_w(rng, complex_w=(i % 2) == (target == "T")
                                  and c <= COMPLEX_MAX_N)
                key = (target, n, v, w, digits)
                if key not in seen:
                    seen.add(key)
                    break
            ops.append({"target": target, "n": n, "v": v, "digits": digits,
                        "w": _w_json(w)})
    rng.shuffle(ops)
    return ops


def check_oracle(op: dict, out) -> str | None:
    target, n, v, d = op["target"], op["n"], op["v"], op["digits"]
    if target == "T":
        w = _w_exact(op["w"])
        with mp.workdps(d + 40):
            if "," in out["value"]:
                a, b = out["value"].split(",")
                got = mpmath.mpc(_mpq(a), _mpq(b))
            else:
                got = _mpq(out["value"])
        want = ref.ref_T(n, _w_ref(w), v, d + 10)
    else:
        got = ref.parse_mp(out["value"])
        if target == "theta":
            want = ref.ref_theta(n, v, d)
        elif target == "psi":
            want = ref.ref_psi(n, v, d)
        elif target == "Ei":
            want = ref.ref_Ei(n, d)
        else:
            want = ref.ref_S(n, _w_ref(_w_exact(op["w"])), v, d)
    if not ref.rel_close(got, want, d):
        return f"{target} n={n}: not within 10^-{d} of the reference"
    return None


def _mpq(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# ledger-cold: `ramasym verify all --max-r M` in a fresh interpreter
# ---------------------------------------------------------------------------

LEDGER_M = (20, 30)


def ledger_round(rng: random.Random, small: bool = False) -> list:
    return [{"M": 8 if small else rng.randint(*LEDGER_M)}]


def check_ledger(op: dict, out) -> str | None:
    """Every ledger line passes, the summary counts them, and the
    conjecture line covers r = 0..M."""
    if out["exit"] != 0:
        return f"verify exited {out['exit']}"
    lines = out["text"].strip().splitlines()
    items, summary = lines[:-1], lines[-1]
    if not items or any(not ln.startswith("PASS ") for ln in items):
        return "a ledger line did not pass"
    if summary != f"{len(items)}/{len(items)} pass":
        return f"summary {summary!r} does not count {len(items)} items"
    M = op["M"]
    conj = f"PASS conjecture-psi-rho-sign-r{M}: {M + 1}/{M + 1} equal"
    if conj not in items:
        return f"conjecture line for r <= {M} missing"
    return None


CHECKS = {"coeff-cold": check_coeff, "eval-warm": check_eval,
          "oracle-sweep": check_oracle, "ledger-cold": check_ledger}


def main() -> int:
    """Check the [workload, op, output] items read from stdin; write the
    list of reasons the wrong ones are wrong to stdout."""
    import json
    import sys
    sys.set_int_max_str_digits(0)
    bad = []
    for workload, op, out in json.load(sys.stdin):
        why = CHECKS[workload](op, out)
        if why:
            bad.append(f"{workload} {json.dumps(op)}: {why}")
    json.dump(bad, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
