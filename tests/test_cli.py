import json

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, write_idx


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


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_config_error_exit_code(tmp_path, capsys):
    cases = [("no_such_key", 1), ("seed", -1), ("lr", float("nan")),
             ("lr", float("inf")), ("lr", 10 ** 400)]
    for key, value in cases:
        cfg_path = write_config(tmp_path, {key: value})
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in assert_one_line_error(capsys, "config error: ")


def test_runtime_error_exit_code(tmp_path, capsys):
    img, lbl = tmp_path / "img", tmp_path / "lbl"
    idx_pair = {"data_source": "idx", "idx_images": str(img),
                "idx_labels": str(lbl)}

    def empty_files():
        img.write_bytes(b"")
        lbl.write_bytes(b"")

    def one_class_labels():
        write_idx(img, IDX_MAGIC_IMAGES, (20, 2, 2), np.arange(80))
        write_idx(lbl, IDX_MAGIC_LABELS, (20,), np.zeros(20))

    cases = [(idx_pair, empty_files), ({"data_source": "idx"}, lambda: None),
             (dict(idx_pair, idx_images=str(tmp_path / "nothere")),
              lambda: None),
             (idx_pair, one_class_labels)]
    for doc, make_files in cases:
        make_files()
        cfg_path = write_config(tmp_path, doc)
        for argv in (["run", "--config", cfg_path, "--out", str(tmp_path / "o")],
                     ["partition-preview", "--config", cfg_path]):
            assert main(argv) == 2
            assert_one_line_error(capsys, "error: ")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_is_a_one_line_runtime_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"lr": 1e200, "strategy": "ewwa",
                                       "rounds": 3})
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "non-finite" in assert_one_line_error(capsys, "error: round 1: ")
