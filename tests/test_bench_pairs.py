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


def result(round_ms_min, acc, correct=True, passes=40):
    """A perfbench result record, cut down to what assemble reads."""
    return {"environment": ENV, "passes": passes,
            "result": {"correct": correct, "metrics": {
        "round_ms_min": {"value": round_ms_min, "unit": "ms"},
        "final_test_acc": {"value": acc, "unit": "share"}}}}


CONDITIONS = {"PYTHONDONTWRITEBYTECODE": "1",
              "src_fedsim_lines": {"parent": 1718, "change": 1695}}


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


@pytest.mark.parametrize("parent,change,better,expected", [
    # 10/10 pairs, the medians 6 apart against a parent spread of 4.5
    (range(20, 30), range(14, 24), "lower", "gain"),
    # 9/10 pairs still counts
    (range(20, 30), [*range(14, 23), 30], "lower", "gain"),
    # 8/10 pairs does not; the change is no worse
    (range(20, 30), [*range(14, 22), 30, 31], "lower", "no worse"),
    # every pair, but the gap of 0.1 is inside the parent's spread of 15,
    # a share of 0.6 of its median: over the bound, and the runs overlap
    ([10, 20, 30, 40], [9.9, 19.9, 29.9, 39.9], "lower", "unresolved"),
    # as wide a spread, but every change run beats every parent run
    ([10, 11, 19, 20], [9, 9.5, 9.8, 9.9], "lower", "no worse"),
    # median 26 against 20: worse by more than 0.25 of 20
    ([20, 20, 20, 20], [26, 26, 26, 26], "lower", "worse"),
    ([20, 20.5, 21, 20.2], [21, 21.5, 20.8, 21.2], "lower", "no worse"),
    ([0.97] * 4, [0.97] * 4, "higher", "no worse"),
    ([0.97] * 4, [0.7] * 4, "higher", "worse"),
    ([0.9, 0.91, 0.92], [0.95, 0.96, 0.97], "higher", "gain"),
])
def test_verdicts(parent, change, better, expected):
    both = list(zip(map(float, parent), map(float, change)))
    assert bench_pairs.verdict(both, better, 0.25) == expected


def test_each_metric_gets_its_verdict_and_a_table_line():
    runs = [run(side, pair, result(ms, 0.975))
            for pair in range(1, 11)
            for side, ms in (("parent", 20.0 + pair), ("change", 10.0 + pair))]
    summary = bench_pairs.assemble(runs, METRICS)["summary"]
    entry = summary["skew_c100/seed0"]
    assert entry["round_ms_min"]["verdict"] == "gain"
    assert entry["final_test_acc"]["verdict"] == "no worse"
    header, ms_line, acc_line, passes_line = bench_pairs.table(summary,
                                                                CONDITIONS)
    assert header.split()[:2] == ["workload/seed", "metric"]
    assert ms_line.split() == ["skew_c100/seed0", "round_ms_min", "25.5",
                               "15.5", "0.608", "10/10", "gain"]
    assert acc_line.split()[-2:] == ["no", "worse"]
    assert passes_line.split() == ["skew_c100/seed0", "passes", "40", "40",
                                   "src/fedsim", "lines", "1718/1695",
                                   "PYTHONDONTWRITEBYTECODE=1"]


def test_each_side_records_its_median_passes():
    """peak_rss_mb rises with the passes a run makes, so each side's
    median passes stand beside the metrics; a failed run has none."""
    runs = [run("parent", 1, result(20.0, 0.9, passes=48)),
            run("change", 1, result(18.0, 0.9, passes=69)),
            run("parent", 2, result(20.0, 0.9, passes=50)),
            run("change", 2, None),
            run("parent", 3, result(20.0, 0.9, passes=49)),
            run("change", 3, result(18.0, 0.9, passes=71))]
    summary = bench_pairs.assemble(runs, METRICS)["summary"]
    assert summary["skew_c100/seed0"]["passes"] == {"parent": 49, "change": 70}
    assert bench_pairs.table(summary, CONDITIONS)[-1].split() == [
        "skew_c100/seed0", "passes", "49", "70", "src/fedsim", "lines",
        "1718/1695", "PYTHONDONTWRITEBYTECODE=1"]
    failed = bench_pairs.assemble([run("parent", 1, None),
                                   run("change", 1, result(18.0, 0.9))], METRICS)
    assert failed["summary"]["skew_c100/seed0"]["passes"] == {
        "parent": None, "change": 40}


def test_conditions_count_each_sides_source_lines_and_read_the_bytecode_flag(
        tmp_path, monkeypatch):
    """setup_s re-imports fedsim, so the record keeps what that import
    depends on beyond the code: the sources' size and whether the runs
    may cache bytecode. Lines count as `wc -l` counts them."""
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    sources = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
               "change": {"a.py": "x = 1\n", "b.py": "z = 3\n",
                          "c.py": "\n\nw = 4"}}
    for side, files in sources.items():
        package = trees[side] / "src" / "fedsim"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not\nsource\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.conditions(trees) == {
        "PYTHONDONTWRITEBYTECODE": "1",
        "src_fedsim_lines": {"parent": 3, "change": 4}}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    unset = bench_pairs.conditions(trees)
    assert unset["PYTHONDONTWRITEBYTECODE"] is None
    summary = bench_pairs.assemble([run("parent", 1, result(20.0, 0.9)),
                                    run("change", 1, result(18.0, 0.9))],
                                   METRICS)["summary"]
    assert bench_pairs.table(summary, unset)[-1].split()[4:] == [
        "src/fedsim", "lines", "3/4", "PYTHONDONTWRITEBYTECODE=unset"]
