"""Benchmark for ramasym: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload coeff-cold --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout (the package is read from ``src/``).
Every call into the program runs in a worker interpreter (``worker.py``),
one at a time: a fresh one per cold operation, one per pass on the warm
workloads, which run a few untimed warm-up inputs first.  This process
only draws the inputs, times set-up, and checks each output against
``reference.py`` after the timed loop.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run does a fixed number of whole rounds, as many as take ``--seconds``
of timed work on the reference machine.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the same operations run once
untraced and once traced, and the metrics are the per-layer ones plus the
tracing overhead.  Results and spans are
written under ``perfbench/out/`` when the run ends.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.set_int_max_str_digits(0)

import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
REPLY_TIMEOUT_S = 170
WARM_SETUPS = 3
# evaluations run untimed before the timed ones, so that mpmath's
# per-precision caches are filled at the digit counts the inputs draw
EVAL_WARMUP = 440

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, scale to the unit)
LAYER_SPANS = {
    "combinat.rows_ms": ("combinat.rows", 1e3),
    "combinat.associated_ms": ("combinat.associated", 1e3),
    "demoivre.triangle_ms": ("demoivre.triangle", 1e3),
    "coefficients.rho_ms": ("coefficients.rho", 1e3),
    "coefficients.gamma_ms": ("coefficients.gamma", 1e3),
    "coefficients.tau_ms": ("coefficients.tau", 1e3),
    "coefficients.psi_ms": ("coefficients.psi", 1e3),
    "coefficients.beta_ms": ("coefficients.beta", 1e3),
    "coefficients.U_ms": ("coefficients.U", 1e3),
    "coefficients.zero_sums_ms": ("coefficients.zero_sums", 1e3),
    "polys.eval_ms": ("polys.eval", 1e3),
    "asymptotics.classify_ms": ("asymptotics.classify", 1e3),
    "asymptotics.expansion_self_ms": ("asymptotics.expansion_self", 1e3),
    "oracle.exact_sum_ms": ("oracle.exact_sum", 1e3),
    "oracle.float_ms": ("oracle.float", 1e3),
    "oracle.ei_ms": ("oracle.ei", 1e3),
    "checks.identities_s": ("checks.identities", 1.0),
    "checks.conjecture_s": ("checks.conjecture", 1.0),
    "checks.convergence_s": ("checks.convergence", 1.0),
    "checks.regions_s": ("checks.regions", 1.0),
    "cli.overhead_ms": ("cli.overhead", 1e3),
}


class WorkerError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Worker:
    """A fresh interpreter running worker.py; set-up is timed from spawn
    until it reports ready."""

    def __init__(self, eval_max_r: int = 0):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)], cwd=str(ROOT), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._write({"eval_max_r": eval_max_r})
        self._read()
        self.setup_s = time.perf_counter() - t0

    def _write(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise WorkerError("worker ended without a reply")
        return json.loads(line)

    def call(self, req):
        self._write(req)
        return self._read()

    def request(self, req):
        """The only request of this worker."""
        try:
            return self.call(req)
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Record:
    """What one pass over a workload produced."""

    def __init__(self):
        self.ops = []        # (workload, op)
        self.times = []      # timed call, s (None when the call raised)
        self.outs = []
        self.errors = []
        self.spans = []      # per op: list of [id, parent, name, start, end]
        self.setups = []
        self.memo = []       # per cold op: memo sizes before the call

    def add(self, workload, op, time_s, out, err, spans):
        self.ops.append((workload, op))
        self.times.append(time_s)
        self.outs.append(out)
        self.errors.append(err)
        self.spans.append(spans)


def operations(workload: str, seed: int, seconds: float,
               small: bool = False):
    """(warm-up inputs, timed inputs) of one pass.  The timed inputs are
    whole rounds, as many as fill ``seconds`` of timed work on the
    reference machine (README), at least one.  A fixed count keeps every
    run of a workload the same size whatever the machine's speed at the
    time.  Warm-up inputs are drawn from the same stream and share none
    of the timed ones; the cold workloads have none."""
    rng = random.Random(f"{workload}/{seed}")
    rounds = 1 if small else \
        max(1, round(seconds / wl.ROUND_SECONDS[workload]))
    if workload == "eval-warm":
        ops = wl.eval_ops(seed, EVAL_WARMUP + (
            40 if small else rounds * wl.EVAL_ROUND))
        return ops[:EVAL_WARMUP], ops[EVAL_WARMUP:]
    ops = []
    seen = set()
    warmup = wl.oracle_round(rng, seen, small=True) \
        if workload == "oracle-sweep" else []
    for _ in range(rounds):
        if workload == "coeff-cold":
            ops += wl.coeff_round(rng, small)
        elif workload == "ledger-cold":
            ops += wl.ledger_round(rng, small)
        else:
            ops += wl.oracle_round(rng, seen, small)
    return warmup, ops


def run_cold(workload: str, ops, trace: bool, rec: Record) -> None:
    kind = "coeff" if workload == "coeff-cold" else "ledger"
    for op in ops:
        w = Worker()
        rec.setups.append(w.setup_s)
        rep = w.request({"kind": kind, "op": op, "trace": trace})
        rec.memo.append(rep["memo"])
        spans = rep["spans"]
        if trace and (kind == "ledger" or _has_triangles(op)):
            # the associated-Stirling route, in its own fresh interpreter
            extra = "coeff-assoc" if kind == "coeff" else "ledger-assoc"
            rep2 = Worker().request({"kind": extra, "op": op, "trace": True})
            rec.memo.append(rep2["memo"])
            spans = spans + _renumber(rep2["spans"], len(spans))
        rec.add(workload, op, rep["time"], rep["out"], rep["error"], spans)


def _has_triangles(op) -> bool:
    return not (op["family"] == "U" and op["mode"] in ("eulerian", "taylor"))


def _renumber(spans, base):
    return [[s[0] + base, None if s[1] is None else s[1] + base] + s[2:]
            for s in spans]


def run_warm(workload: str, warmup, ops, trace: bool, rec: Record) -> None:
    """Set up three times and keep the last worker; run the warm-up
    inputs untimed and unchecked, then the timed ones."""
    kind = "eval" if workload == "eval-warm" else "oracle"
    memos = wl.EVAL_MAX_R if kind == "eval" else 0
    for _ in range(WARM_SETUPS - 1):
        w = Worker(memos)
        rec.setups.append(w.setup_s)
        w.close()
    w = Worker(memos)
    rec.setups.append(w.setup_s)
    try:
        w.call({"kind": kind, "ops": warmup, "trace": trace})
        rep = w.call({"kind": kind, "ops": ops, "trace": trace})
    finally:
        w.close()
    for op, t, (out, spans), err in zip(ops, rep["times"], rep["outs"],
                                        rep["errors"]):
        rec.add(workload, op, t, out, err, spans)


def measure(workload: str, inputs, trace: bool) -> Record:
    """One pass over ``inputs`` (warm-up, timed), one operation at a
    time."""
    warmup, ops = inputs
    rec = Record()
    if workload in ("coeff-cold", "ledger-cold"):
        run_cold(workload, ops, trace, rec)
    else:
        run_warm(workload, warmup, ops, trace, rec)
    return rec


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------

CHECK_PROCESSES = 2


def check(records) -> list:
    """Reasons the outputs are wrong (empty when all are right).  Checking
    runs after every timed loop has ended, split over two processes that
    run ``workloads.py`` as a script."""
    items = [[workload, op, out]
             for rec in records
             for (workload, op), out, err in zip(rec.ops, rec.outs, rec.errors)
             if err is None and out is not None]
    procs = []
    for part in range(CHECK_PROCESSES):
        p = subprocess.Popen([sys.executable, str(HERE / "workloads.py")],
                             cwd=str(ROOT), text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        p.stdin.write(json.dumps(items[part::CHECK_PROCESSES]))
        p.stdin.close()
        procs.append(p)
    bad = []
    for p in procs:
        out = p.stdout.read()
        p.stdout.close()
        if p.wait() != 0:
            raise WorkerError("the output check ended with an error")
        bad += json.loads(out)
    for rec in records:
        for memo in rec.memo:
            warm = {k: v for k, v in memo.items() if v}
            if warm:
                bad.append(f"cold operation started with filled memos: {warm}")
    return bad


def _quantile(xs, q: float) -> float:
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(rec: Record) -> dict:
    times = [t for t in rec.times if t is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(rec.setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * _quantile(times, 0.90),
        "op_p99_ms": 1e3 * _quantile(times, 0.99),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _per_op_layers(spans) -> dict:
    """Seconds per layer for one operation; derived layers are the
    expansion minus classify and coefficient evaluation, and the oracle
    call minus its exact sum."""
    tot = {}
    for _, _, name, start, end in spans:
        tot[name] = tot.get(name, 0.0) + (end - start)
    if "asymptotics.expansion" in tot:
        tot["asymptotics.expansion_self"] = tot["asymptotics.expansion"] \
            - tot.get("asymptotics.classify", 0.0) - tot.get("polys.eval", 0.0)
    if "oracle.call" in tot and "oracle.exact_sum" in tot:
        tot["oracle.float"] = tot["oracle.call"] - tot["oracle.exact_sum"]
    return tot


def per_layer(traced: Record, census: Record, untraced: Record) -> dict:
    """Median over operations of the time each spends in a layer.  A layer
    the workload does not reach is read from the census."""
    samples = {}
    for src in (traced, census):
        found = {}
        for spans in src.spans:
            for name, secs in _per_op_layers(spans).items():
                found.setdefault(name, []).append(secs)
        for name, xs in found.items():
            samples.setdefault(name, xs)
    out = {}
    for metric, (span, scale) in LAYER_SPANS.items():
        xs = samples.get(span)
        if not xs:
            raise WorkerError(f"no span {span} in the traced run")
        out[metric] = {"value": scale * statistics.median(xs),
                       "unit": "ms" if metric.endswith("_ms") else "s"}
    base = sum(t for t in untraced.times if t is not None)
    traced_s = sum(t for t in traced.times if t is not None)
    out["trace.overhead_pct"] = {"value": 100.0 * (traced_s / base - 1.0),
                                 "unit": "%"}
    return out


def _write_out(name: str, payload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramasym" / "__init__.py").is_file():
        sys.stderr.write(f"no ramasym sources under {ROOT / 'src'}\n")
        return 2

    inputs = operations(args.workload, args.seed, args.seconds)
    untraced = measure(args.workload, inputs, False)
    records = [untraced]
    if args.trace:
        traced = measure(args.workload, inputs, True)
        census = Record()
        for other in wl.WORKLOADS:
            if other != args.workload:
                part = measure(other, operations(other, args.seed,
                                                 args.seconds, small=True),
                               True)
                for name in ("ops", "times", "outs", "errors", "spans",
                             "memo"):
                    getattr(census, name).extend(getattr(part, name))
        records += [traced, census]
        metrics = per_layer(traced, census, untraced)
    else:
        metrics = end_to_end(untraced)

    problems = check(records)
    attempted = sum(len(rec.ops) for rec in records)
    failed = sum(err is not None for rec in records for err in rec.errors)
    for rec in records:
        for (workload, op), err in zip(rec.ops, rec.errors):
            if err is not None:
                sys.stderr.write(f"failed: {workload} {json.dumps(op)}: "
                                 f"{err}\n")
    for p in problems:
        sys.stderr.write(f"incorrect: {p}\n")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_out(f"result-{tag}.json", dict(result, operations=[
        {"workload": workload, "op": op, "seconds": t, "error": err}
        for rec in records
        for (workload, op), t, err in zip(rec.ops, rec.times, rec.errors)]))
    if args.trace:
        _write_out(f"trace-{tag}.json", [
            {"pass": label, "workload": workload, "op": op, "spans": spans}
            for label, rec in (("traced", traced), ("census", census))
            for (workload, op), spans in zip(rec.ops, rec.spans)])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
