"""tools/bench_pairs.py: the record assembled from canned benchmark results."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "round_ms_min", "better": "lower", "bound": 0.25},
           {"name": "final_test_acc", "better": "higher", "bound": 0.1}]
ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas",
       "blas_version": "0.3.31.188.0", "blas_threads": 2, "nproc": 2,
       "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None, "seed": 0}


def result(round_ms_min, acc, correct=True):
    """A perfbench result record, cut down to what assemble reads."""
    return {"environment": ENV, "result": {"correct": correct, "metrics": {
        "round_ms_min": {"value": round_ms_min, "unit": "ms"},
        "final_test_acc": {"value": acc, "unit": "share"}}}}


def run(side, pair, record):
    return {"side": side, "workload": "skew_c100", "seed": 0, "pair": pair,
            "position": 1 if (side == "parent") == (pair % 2 == 1) else 2,
            "returncode": 0, "record": record}


def test_one_pair_gives_both_medians_the_spread_and_the_ratio():
    out = bench_pairs.assemble([run("parent", 1, result(20.0, 0.975)),
                                run("change", 1, result(18.0, 0.975))],
                               METRICS)
    assert out["host"] == {k: ENV[k] for k in bench_pairs.HOST_KEYS}
    entry = out["summary"]["skew_c100/seed0"]
    assert (entry["pairs"], entry["failed_runs"]) == (1, 0)
    ms = entry["round_ms_min"]
    assert ms["parent"] == {"median": 20.0, "q1": 20.0, "q3": 20.0}
    assert ms["change"]["median"] == 18.0
    assert ms["ratio"] == pytest.approx(0.9)
    assert ms["parent_quartile_spread"] == 0.0
    assert (ms["bound"], ms["better"]) == (0.25, "lower")
    assert ms["change_better_in_pairs"] == "1/1"
    acc = entry["final_test_acc"]
    assert acc["ratio"] == 1.0 and acc["change_better_in_pairs"] == "0/1"


def test_quartiles_direction_and_failed_runs():
    runs = [run("parent", 1, result(20.0, 0.9)),
            run("change", 1, result(21.0, 0.95)),
            run("change", 2, result(17.0, 0.95)),
            run("parent", 2, result(22.0, 0.9)),
            run("parent", 3, result(24.0, 0.9)),
            run("change", 3, None),  # the run failed: pair 3 is left out
            run("parent", 4, result(26.0, 0.9)),
            run("change", 4, result(18.0, 0.8, correct=False))]
    entry = bench_pairs.assemble(runs, METRICS)["summary"]["skew_c100/seed0"]
    assert (entry["pairs"], entry["failed_runs"]) == (4, 2)
    ms = entry["round_ms_min"]
    assert ms["parent"] == {"median": 22.0, "q1": 21.0, "q3": 24.0}
    assert ms["parent_quartile_spread"] == 3.0
    assert ms["change"]["median"] == 18.0
    assert ms["change_better_in_pairs"] == "2/3"
    assert entry["final_test_acc"]["change_better_in_pairs"] == "2/3"
