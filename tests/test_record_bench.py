"""The benchmark recorder's layer map and its deterministic counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "record_bench", ROOT / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)


def test_every_module_is_in_exactly_one_layer():
    modules = sorted(p.stem for p in (ROOT / "src" / "ramasym").glob("*.py"))
    placed = [m for mods in record_bench.LAYERS.values() for m in mods]
    assert sorted(placed) == modules


def test_counts_repeat_exactly():
    def calls(rec):
        return {k: v["calls"] for k, v in rec["layers"].items()}, \
            rec["Fraction.__new__"], rec["math.gcd"]

    stmt = "[cf.U_coeff(r, 'tilde') for r in range(6)]"
    first, second = (record_bench._counts(ROOT, record_bench._COLD_SETUP,
                                          stmt) for _ in range(2))
    assert calls(first) == calls(second)
    layers = first["layers"]
    assert layers["L1"]["calls"] and layers["L2"]["calls"]
    assert not layers["L3"]["calls"] and not layers["L4"]["calls"]
    assert abs(sum(v["tottime_share"] for v in layers.values()) - 1) < 1e-9


def test_the_eval_pass_runs_through_the_worker():
    # the worker's stdout swap is undone, so the profile rows come back
    stmt = f"call(ops[{record_bench.EVAL_WARMUP}])"
    layers = record_bench._counts(ROOT, record_bench._EVAL_SETUP,
                                  stmt)["layers"]
    assert layers["L3"]["calls"] and not layers["L4"]["calls"]
