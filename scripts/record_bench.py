"""Record a BENCH_*.json: the benchmark of this tree against a base commit.

    python3 scripts/record_bench.py --base <commit> --out BENCH_<name>.json

Run from the root of the repository.  The base commit is exported with
``git archive`` and this working tree is copied (its tracked and untracked,
not ignored, files), each into its own temporary directory, so that both
sides run the same way and neither writes into the repository.  Then, with
the two sides taking turns and the side that goes first alternating:

* ``perfbench/run.py`` on every workload in ten pairs, pair i at seed i;
  the medians and quartiles of every end-to-end metric;
* ``perfbench/run.py --trace 1`` on every workload at seeds 1 to 3; the
  medians and quartiles of every per-layer metric;
* the cold figures, each the median of five runs in a fresh interpreter
  with every memo empty: the 16 ``coeff-cold`` slots at their highest R,
  and ten larger tables;
* ``ramasym verify all``: wall time and peak RSS;
* each acceptance criterion (``tests/test_acceptance.py::test_*``) in a
  pytest process of its own: the median wall time of five runs and the
  exit statuses;
* tier-1 (``pytest -q``): wall time and the summary line;
* deterministic counts: one untimed ``cProfile`` pass in a fresh
  interpreter for each cold figure, for ``verify all`` and for the timed
  ``eval-warm`` inputs of seed 1, each giving the calls and the share of
  ``tottime`` of every layer (``LAYERS``) and the calls to
  ``Fraction.__new__`` and ``math.gcd``.  Call counts do not move with the
  machine's speed; the passes run with ``PYTHONHASHSEED=0``.

The machine, the Python and mpmath versions and the two commits go in too.
The benchmark keeps its own output in each temporary copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("coeff-cold", "eval-warm", "oracle-sweep", "ledger-cold")
PAIRS = 10
TRACE_SEEDS = 3
COLD_REPEATS = 5

# the layers of the package, by module: (L0) tables and exact scalars,
# (L1) the De Moivre triangles and polynomial rings, (L2) the coefficient
# families, (L3) expansion evaluators and oracles, (L4) ledger and CLI
LAYERS = {"L0": ("combinat", "numcore"), "L1": ("demoivre", "polys"),
          "L2": ("coefficients",), "L3": ("asymptotics", "oracle"),
          "L4": ("checks", "cli", "__init__", "__main__")}
_LAYER_OF = {mod: layer for layer, mods in LAYERS.items() for mod in mods}

# the eval-warm inputs of ``perfbench/run.py --workload eval-warm --seed 1``:
# 440 untimed warm-up inputs, then 8,360 timed ones
EVAL_WARMUP, EVAL_TIMED = 440, 8360

# one profiled pass: ``setup`` runs untimed, ``stmt`` under cProfile, and the
# raw (file, name, calls, tottime) rows are printed as JSON
_PROFILE = """import cProfile, json, sys
sys.set_int_max_str_digits(0)
{setup}
prof = cProfile.Profile()
prof.enable()
{stmt}
prof.disable()
prof.create_stats()
print(json.dumps([[f, name, nc, tt] for (f, _, name), (_, nc, tt, _, _)
                  in prof.stats.items()]))
"""
_COLD_SETUP = "from ramasym import coefficients as cf"
# the eval-warm operations through the benchmark's own worker: its set-up
# fills the coefficient memos, each op is called as its ``eval_op`` calls it,
# and the warm-up inputs run first; the worker sends stdout to stderr at
# import and keeps the original stream as ``_PROTO``
_EVAL_SETUP = f"""from mpmath import mp
sys.path.insert(0, "perfbench")
import workloads, worker
sys.stdout = worker._PROTO
worker.eval_setup(workloads.EVAL_MAX_R)
def call(op):
    mp.dps = max(op["digits"] + 10, 30)
    return worker._eval_call(op, worker._w_in(op["w"]))
ops = workloads.eval_ops(1, {EVAL_WARMUP + EVAL_TIMED})
for op in ops[:{EVAL_WARMUP}]:
    call(op)"""
_EVAL_STMT = f"for op in ops[{EVAL_WARMUP}:]:\n    call(op)"
_VERIFY_SETUP = "import contextlib, io\nfrom ramasym import cli"
_VERIFY_STMT = ("with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['verify', 'all'])")

# one table per fresh interpreter: (name, the statement that builds it);
# the statement runs with ``cf`` bound to ramasym.coefficients
_SLOT_CALL = {"rho": "cf.rho(r, {mode!r})",
              "gamma": "cf.gamma_coeff(r, {mode!r})",
              "tau": "cf.tau(r)", "psi": "cf.psi(r)",
              "beta": "cf.beta(r, {mode!r})",
              "U": "cf.U_coeff(r, {mode!r}, taylor_terms={terms})",
              "rho_zero": "cf.rho_zero(r)", "psi_zero": "cf.psi_zero(r)"}
LARGE = {"rho(0..60)": "[cf.rho(r) for r in range(61)]",
         "rho(0..100)": "[cf.rho(r) for r in range(101)]",
         "gamma(0..100)": "[cf.gamma_coeff(r) for r in range(101)]",
         "rho(100)": "cf.rho(100)",
         "psi(30)": "cf.psi(30)",
         "check_conjecture(100)": "cf.check_conjecture(100)",
         "check_conjecture(150)": "cf.check_conjecture(150)",
         "U_coeff(25)": "cf.U_coeff(25)",
         "U_coeff(0..25, tilde)":
             "[cf.U_coeff(r, 'tilde') for r in range(26)]",
         "U_coeff(0..40, eulerian)":
             "[cf.U_coeff(r, 'eulerian') for r in range(41)]"}


def _slots(side: Path) -> dict:
    """The coeff-cold slots at their highest R, read from the base side's
    workload table, as statements."""
    sys.path.insert(0, str(side / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    out = {}
    for fam, mode, _lo, hi in workloads.COEFF_SLOTS:
        terms = 16 if mode == "taylor" else None
        call = _SLOT_CALL[fam].format(mode=mode, terms=terms)
        out[f"{fam}/{mode}/R={hi}"] = f"[{call} for r in range({hi + 1})]"
    return out


def _run(side: Path, argv: list, **env) -> tuple:
    """Run argv in side with its ``src`` on the path and ``env`` set:
    (stdout, wall s, exit status)."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), **env)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=side, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout, time.perf_counter() - t0, proc.returncode


def _perfbench(side: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in side: its closing JSON object."""
    out, _, _ = _run(side, [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "10", "--trace", str(trace)])
    return json.loads(out.splitlines()[-1])


def _criteria(side: Path) -> list:
    """The node ids of the acceptance criteria, as pytest collects them."""
    out, _, _ = _run(side, [sys.executable, "-m", "pytest", "-q",
                            "--collect-only", "-p", "no:cacheprovider",
                            "tests/test_acceptance.py"])
    return [line for line in out.splitlines() if "::test_" in line]


def _cold(side: Path, stmt: str) -> float:
    """Seconds one statement takes in a fresh interpreter, import excluded."""
    code = ("import sys, time\nsys.set_int_max_str_digits(0)\n"
            "from ramasym import coefficients as cf\n"
            f"t = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t)\n")
    out, _, rc = _run(side, [sys.executable, "-c", code])
    if rc:
        raise RuntimeError(f"{stmt} failed in {side}")
    return float(out)


def _counts(side: Path, setup: str, stmt: str) -> dict:
    """The calls and the share of tottime of each layer in one profiled pass
    of stmt, with the code outside the package as ``outside``, and the
    calls to ``Fraction.__new__`` and ``math.gcd``."""
    code = _PROFILE.format(setup=setup, stmt=stmt)
    out, _, rc = _run(side, [sys.executable, "-c", code], PYTHONHASHSEED="0")
    if rc:
        raise RuntimeError(f"profiling {stmt!r} failed in {side}")
    rows = json.loads(out.splitlines()[-1])
    total = sum(tt for _, _, _, tt in rows) or 1.0
    layers = {layer: {"calls": 0, "tottime_share": 0.0}
              for layer in (*LAYERS, "outside")}
    counts = {"Fraction.__new__": 0, "math.gcd": 0}
    for path, name, calls, tt in rows:
        p = Path(path)
        layer = _LAYER_OF[p.stem] if p.parent.name == "ramasym" \
            else "outside"
        layers[layer]["calls"] += calls
        layers[layer]["tottime_share"] += tt / total
        if p.name == "fractions.py" and name == "__new__":
            counts["Fraction.__new__"] += calls
        elif name == "<built-in method math.gcd>":
            counts["math.gcd"] += calls
    return {"layers": layers, **counts}


def _verify_all(side: Path) -> dict:
    """Wall time and peak RSS of ``ramasym verify all``, waited on here so
    that the kernel reports the peak of that one process."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "ramasym", "verify", "all"],
                          cwd=side, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        last = proc.stdout.read().splitlines()[-1]
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": time.perf_counter() - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024, "summary": last,
            "exit": proc.returncode}


def _stats(xs: list) -> dict:
    """Median and quartiles; ``runs`` keeps the pair order."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2],
            "runs": xs}


def _compare(base: list, change: list, lower_is_better: bool) -> dict:
    """Pairs the change wins (ties count for neither), the ratio of the
    medians (change / base), and the base's interquartile distance."""
    sign = -1 if lower_is_better else 1
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
    return {"change_wins": sum(sign * (c - b) > 0
                               for b, c in zip(base, change)),
            "pairs": len(base),
            "ratio": statistics.median(change) / statistics.median(base),
            "median_diff": statistics.median(change)
            - statistics.median(base),
            "base_iqr": q[2] - q[0]}


def _export(base: str, into: Path) -> str:
    """``git archive`` of base into ``into``; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", base], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return sha


def _copy_tree(into: Path) -> str:
    """Copy the working tree's files into ``into``; returns the HEAD commit
    id, with ``+dirty`` when the tree differs from it."""
    files = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, files):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


def _machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor()) \
        if Path("/proc/cpuinfo").exists() else platform.processor()
    return {"cpu": model, "cpus": os.cpu_count(),
            "system": platform.platform(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare with")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        for path in sides.values():
            path.mkdir()
        commits = {"base": _export(args.base, sides["base"]),
                   "change": _copy_tree(sides["change"])}
        cold = {**_slots(sides["base"]), **LARGE}

        def turns(i: int):
            """Both sides, the base first on even i."""
            return list(sides.items())[::1 if i % 2 == 0 else -1]

        bench = {name: {w: {} for w in WORKLOADS} for name in sides}
        for i in range(PAIRS):
            for w in WORKLOADS:
                for name, side in turns(i):
                    res = _perfbench(side, w, i + 1, 0)
                    rec = bench[name][w]
                    for key in ("correct", "attempted", "failed"):
                        rec.setdefault(key, []).append(res[key])
                    for metric, m in res["metrics"].items():
                        rec.setdefault(metric, []).append(m["value"])
            print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

        layers = {name: {w: {} for w in WORKLOADS} for name in sides}
        for i in range(TRACE_SEEDS):
            for w in WORKLOADS:
                for name, side in turns(i):
                    res = _perfbench(side, w, i + 1, 1)
                    for metric, m in res["metrics"].items():
                        layers[name][w].setdefault(metric, []).append(
                            m["value"])

        times = {name: {k: [] for k in cold} for name in sides}
        for i in range(COLD_REPEATS):
            for key, stmt in cold.items():
                for name, side in turns(i):
                    times[name][key].append(_cold(side, stmt))
        verify, tier1 = {}, {}
        for i in range(2):
            for name, side in turns(i):
                verify.setdefault(name, []).append(_verify_all(side))
        criteria = {name: {c: [] for c in _criteria(sides["change"])}
                    for name in sides}
        for i in range(COLD_REPEATS):
            for node in criteria["change"]:
                for name, side in turns(i):
                    _, wall, rc = _run(side, [
                        sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider", node])
                    criteria[name][node].append((wall, rc))
        passes = {key: (_COLD_SETUP, stmt) for key, stmt in cold.items()}
        passes["verify all"] = (_VERIFY_SETUP, _VERIFY_STMT)
        passes[f"eval-warm seed 1 ({EVAL_TIMED} timed inputs)"] = (
            _EVAL_SETUP, _EVAL_STMT)
        counts = {name: {key: _counts(side, *p) for key, p in passes.items()}
                  for name, side in sides.items()}
        for name, side in turns(0):
            out, wall, rc = _run(side, [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"])
            tier1[name] = {"wall_s": wall, "exit": rc,
                           "summary": out.strip().splitlines()[-1]}

    slot_keys = [k for k in cold if "/" in k]
    report = {"machine": _machine(), "commits": commits,
              "pairs": PAIRS, "seeds": list(range(1, PAIRS + 1)),
              "trace_seeds": list(range(1, TRACE_SEEDS + 1)),
              "cold_repeats": COLD_REPEATS, "sides": {}}
    for name in sides:
        per = {}
        for w, rec in bench[name].items():
            per[w] = {"correct": all(rec["correct"]),
                      "attempted": sum(rec["attempted"]),
                      "failed": sum(rec["failed"])}
            per[w].update({metric: _stats(v) for metric, v in rec.items()
                           if metric not in ("correct", "attempted",
                                             "failed")})
        med = {k: statistics.median(v) for k, v in times[name].items()}
        report["sides"][name] = {
            "workloads": per,
            "per_layer": {w: {metric: _stats(v) for metric, v in rec.items()}
                          for w, rec in layers[name].items()},
            "cold_s": {"coeff_slots_sum": sum(med[k] for k in slot_keys),
                       **med},
            "cold_runs_s": times[name],
            "verify_all": {
                "wall_s": _stats([r["wall_s"] for r in verify[name]]),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in verify[name]),
                "summary": verify[name][0]["summary"],
                "exit": verify[name][0]["exit"]},
            "acceptance": {
                node: {"wall_s": statistics.median(w for w, _ in runs),
                       "exits": [rc for _, rc in runs]}
                for node, runs in criteria[name].items()},
            "tier1": tier1[name], "counts": counts[name]}
    report["compare"] = {
        w: {metric: _compare(bench["base"][w][metric],
                             bench["change"][w][metric],
                             metric != "ops_per_s")
            for metric in bench["base"][w]
            if metric not in ("correct", "attempted", "failed")}
        for w in WORKLOADS}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
