"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(run.SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _few_rounds(monkeypatch, tmp_path, workload):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, workload, [
        dict(cfg, rounds=3) for cfg in run.WORKLOADS[workload]])


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(monkeypatch, tmp_path, capsys,
                                                 workload, trace):
    _few_rounds(monkeypatch, tmp_path, workload)
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = _result(capsys)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # a traced run alternates an untraced and a traced pass; both are checked
    passes = 2 if trace else 1
    assert result["attempted"] == 3 * len(run.WORKLOADS[workload]) * passes
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float), m["name"]
    if trace:
        # exact counts: one train_local per client and round
        clients = run.WORKLOADS[workload][0]["num_clients"]
        assert result["metrics"]["training.train_local.calls"]["value"] == clients


def _one_ewwa_config(monkeypatch, tmp_path, **changes):
    ewwa = run.WORKLOADS["sweep_c3"][3]
    assert ewwa["strategy"] == "ewwa"
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "sweep_c3", [dict(ewwa, rounds=3, **changes)])


def test_diverging_config_counts_failed_rounds(monkeypatch, tmp_path, capsys):
    _one_ewwa_config(monkeypatch, tmp_path, lr=1e200)
    assert run.main(["--workload", "sweep_c3", "--seed", "0", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] is False
    assert result["attempted"] == 3
    assert result["failed"] == 3
    assert result["metrics"]["completed_round_share"]["value"] == 0.0


def test_exception_after_the_last_round_is_not_correct(monkeypatch, tmp_path,
                                                       capsys):
    from fedsim import reporting

    def emit_fails(*args, **kwargs):
        raise OSError("disk full")

    _one_ewwa_config(monkeypatch, tmp_path)
    # the set-up probe imports fedsim afresh, which would drop the stand-in
    monkeypatch.setattr(run, "setup_seconds", lambda docs: 1.0)
    monkeypatch.setattr(reporting, "emit_metrics", emit_fails)
    assert run.main(["--workload", "sweep_c3", "--seed", "0", "--seconds", "0",
                     "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert "check failed: ewwa/adam: raised OSError: disk full" in out
    assert result["correct"] is False
    assert result["attempted"] == 3
    assert result["failed"] == 1  # the round in progress when it raised


def test_metrics_differing_between_passes_is_not_correct(monkeypatch, tmp_path,
                                                         capsys):
    from fedsim import reporting
    emit, passes = reporting.emit_metrics, []

    def emit_with_pass_number(records, manifest, out):
        summary = emit(records, manifest, out)
        passes.append(out)
        with open(out / "metrics.jsonl", "a") as f:
            f.write(f"{len(passes)}\n")
        return summary

    _one_ewwa_config(monkeypatch, tmp_path)
    monkeypatch.setattr(reporting, "emit_metrics", emit_with_pass_number)
    # --trace 1 runs exactly two passes, one untraced and one traced
    assert run.main(["--workload", "sweep_c3", "--seed", "0", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert len(passes) == 2
    assert "check failed: ewwa/adam: metrics.jsonl differs between passes" in out
    assert result["correct"] is False
    assert result["failed"] == 0


def test_round_ms_min_is_the_mean_of_each_configs_fastest_round():
    docs = [{"strategy": "fedavg"}, {"strategy": "ewwa"}]
    bounds = ([0.0, 0.010, 0.030], [0.0, 0.050, 0.070],   # pass 1
              [0.0, 0.012, 0.024], [0.0, 0.040, 0.100])   # pass 2
    last = types.SimpleNamespace(global_test_accuracy=0.95)
    outcomes = [run.Outcome(docs[i % 2], list(b), [last], "") for i, b in
                enumerate(bounds)]
    metrics, samples = run.end_to_end(docs, outcomes, [1.0, 1.0], [6, 6],
                                      0.5, 1.0)
    assert samples == 8
    # fedavg's fastest round is 10 ms, ewwa's 20 ms
    assert metrics["round_ms_min"] == pytest.approx(15.0)


def test_tracing_restores_every_binding():
    import fedsim
    from fedsim import federation, tensors, training
    from spans import Tracer

    before = (training.zip_map, federation.train_local, fedsim.zip_map,
              tensors.ParameterSet.__init__)
    with Tracer().tracing():
        assert training.zip_map is not before[0]
        assert federation.train_local is not before[1]
        assert fedsim.zip_map is training.zip_map
    assert (training.zip_map, federation.train_local, fedsim.zip_map,
            tensors.ParameterSet.__init__) == before


def _cli(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


def test_cli_full_pass_is_correct():
    out = _cli(ROOT, "--workload", "boost_c10", "--seed", "3", "--seconds",
               "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "metrics.jsonl sha256 fedboosting/adam:" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _cli(tmp_path, "--workload", "sweep_c3", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
