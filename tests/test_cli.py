import json

import numpy as np

from fedsim.cli import main


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


FAST_RUN = {
    "rounds": 2,
    "model_kind": "softmax_regression",
    "synth_classes": 3,
    "synth_per_class": 30,
    "synth_dim": 4,
    "batch_size": 16,
    "global_step_scale": 0.01,
}


def test_run_emits_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FAST_RUN)
    out_root = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out_root)]) == 0
    run_dirs = list(out_root.iterdir())
    assert len(run_dirs) == 1
    names = {p.name for p in run_dirs[0].iterdir()}
    assert {"metrics.jsonl", "summary.csv", "manifest.json",
            "timings.csv"} <= names
    assert "final test acc" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, FAST_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0
    (dir_a,) = out_a.iterdir()
    (dir_b,) = out_b.iterdir()
    assert (dir_a / "metrics.jsonl").read_bytes() == \
        (dir_b / "metrics.jsonl").read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"no_such_key": 1})
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no_such_key" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data_source": "idx",
                                       "idx_images": str(tmp_path / "img"),
                                       "idx_labels": str(tmp_path / "lbl")})
    (tmp_path / "img").write_bytes(b"")
    (tmp_path / "lbl").write_bytes(b"")
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 2


def test_partition_preview(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(FAST_RUN, partition="label_skew"))
    assert main(["partition-preview", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "client 0:" in out and "client 2:" in out


def test_compare(tmp_path, capsys):
    cfg_path = write_config(tmp_path, FAST_RUN)
    out_root = tmp_path / "out"
    main(["run", "--config", cfg_path, "--out", str(out_root)])
    (run_d,) = out_root.iterdir()
    csv_path = tmp_path / "comparison.csv"
    assert main(["compare", "--runs", str(run_d), "--threshold", "0.5",
                 "--out", str(csv_path)]) == 0
    assert csv_path.exists()
    assert "rounds_to_threshold" in capsys.readouterr().out


def test_divergence_is_a_one_line_runtime_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"lr": 1e200, "strategy": "ewwa",
                                       "rounds": 3})
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: round 1: ") and err.count("\n") == 1
    assert "non-finite" in err and "Traceback" not in err
