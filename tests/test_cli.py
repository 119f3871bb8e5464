import json
import struct
from pathlib import Path

import numpy as np
import pytest

from fedsim import cli
from fedsim.cli import main
from fedsim.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS
from fedsim.reporting import config_from_dict
from idx_files import write_idx


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


@pytest.mark.filterwarnings("error")
def test_config_error_exit_code(tmp_path, capsys):
    cases = [("no_such_key", 1), ("seed", -1), ("lr", float("nan")),
             ("lr", float("inf")), ("lr", 10 ** 400),
             # data or a model larger than NumPy can address
             ("hidden_dim", 2 ** 62), ("synth_dim", 2 ** 62),
             ("synth_per_class", 2 ** 62),
             # features that overflow to inf
             ("synth_spread", 1e308),
             # runs that would train until killed
             ("rounds", 10 ** 6 + 1), ("rounds", 10 ** 39),
             ("local_epochs", 10 ** 6 + 1)]
    # a Dirichlet draw that is all zeros, as concentration x clients overflows
    zero_draw = {"partition": "label_skew", "concentration": 1e308}
    # each doc's last key is the one its error names
    for doc in [{key: value} for key, value in cases] + [zero_draw]:
        cfg_path = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert list(doc)[-1] in assert_one_line_error(capsys, "config error: ")
    # the data is checked before any model is built
    for doc in [{"synth_spread": 1e308}, {"rounds": 10 ** 39},
                {"local_epochs": 10 ** 6 + 1}, zero_draw]:
        cfg_path = write_config(tmp_path, doc)
        assert main(["partition-preview", "--config", cfg_path]) == 1
        assert list(doc)[-1] in assert_one_line_error(capsys, "config error: ")
    # the bound itself is a valid run length
    cfg = config_from_dict({"rounds": 10 ** 6, "local_epochs": 10 ** 6})
    assert (cfg.rounds, cfg.local.local_epochs) == (10 ** 6, 10 ** 6)


@pytest.mark.parametrize("make", [
    lambda path: None,
    Path.mkdir,
    lambda path: path.write_bytes(b'{"rounds": "\xff"}'),
    lambda path: path.write_text("[" * 100_000),
    lambda path: path.write_text("[1, 2]"),
], ids=["missing", "directory", "not-utf-8", "too-deep", "not-an-object"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    make(path)
    for argv in (["run", "--config", str(path), "--out", str(tmp_path / "o")],
                 ["partition-preview", "--config", str(path)]):
        assert main(argv) == 1
        assert str(path) in assert_one_line_error(capsys, "config error: ")


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

    def images_beyond_int64():  # 4 * 2**31 * 2**31 wraps to 0 in int64
        write_idx(img, IDX_MAGIC_IMAGES, (4, 2 ** 31, 2 ** 31), np.zeros(0))
        write_idx(lbl, IDX_MAGIC_LABELS, (4,), np.arange(4) % 2)

    def images_without_pixels():
        write_idx(img, IDX_MAGIC_IMAGES, (40, 0, 5), np.zeros(0))
        write_idx(lbl, IDX_MAGIC_LABELS, (40,), np.arange(40) % 2)

    def images_cut_in_their_header():  # one of three dimensions present
        img.write_bytes(struct.pack(">II", IDX_MAGIC_IMAGES, 40))
        write_idx(lbl, IDX_MAGIC_LABELS, (40,), np.arange(40) % 2)

    cases = [(idx_pair, empty_files), ({"data_source": "idx"}, lambda: None),
             (dict(idx_pair, idx_images=str(tmp_path / "nothere")),
              lambda: None),
             (idx_pair, one_class_labels), (idx_pair, images_beyond_int64),
             (idx_pair, images_without_pixels),
             (idx_pair, images_cut_in_their_header)]
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


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_compare_rejects_a_threshold_outside_0_1(tmp_path, capsys, threshold):
    run_d = tmp_path / "run"
    run_d.mkdir()
    (run_d / "metrics.jsonl").write_text('{"round": 1, "test_acc": 0.5}\n')
    (run_d / "manifest.json").write_text('{"strategy": "fedavg"}\n')
    assert main(["compare", "--runs", str(run_d), "--threshold", threshold]) == 2
    err = assert_one_line_error(capsys, "error: threshold must be a finite "
                                        "number in [0, 1], got ")
    assert err.rstrip().endswith(str(float(threshold)))


def test_a_shard_too_small_to_hold_out_names_its_client(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {
        "strategy": "fedboosting", "num_clients": 40, "partition": "label_skew",
        "concentration": 0.05, "synth_per_class": 20, "rounds": 2, "seed": 0})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert_one_line_error(capsys, "error: client 0: fedboosting hold-out: "
                                  "need at least 2 samples to split")


def test_a_run_too_large_for_memory_is_a_runtime_error(tmp_path, capsys):
    # a 128 PiB hidden bias is addressable but exceeds any memory: the
    # allocation fails at once and touches none
    cfg_path = write_config(tmp_path, {"hidden_dim": 2**54, "rounds": 1})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert_one_line_error(capsys, "error: out of memory: Unable to allocate "
                                  "128. PiB")


@pytest.mark.parametrize("name,content,out", [
    ("metrics.jsonl", b'{"round": 1}\n', None),
    ("metrics.jsonl", b"[1, 2]\n", None),
    ("metrics.jsonl", b"\xff\n", None),
    ("metrics.jsonl", b"[" * 100_000 + b"\n", None),
    ("metrics.jsonl", b"", None),
    ("manifest.json", b"[]\n", None),
    ("manifest.json", b"[" * 100_000, None),
    (None, None, "missing/comparison.csv"),
], ids=["row-without-test_acc", "row-not-an-object", "metrics-not-utf-8",
        "metrics-too-deep", "metrics-empty", "manifest-not-an-object",
        "manifest-too-deep", "out-in-missing-directory"])
def test_compare_on_a_malformed_run_is_a_runtime_error(tmp_path, capsys, name,
                                                       content, out):
    run_d = tmp_path / "run"
    run_d.mkdir()
    (run_d / "metrics.jsonl").write_text('{"round": 1, "test_acc": 0.5}\n')
    (run_d / "manifest.json").write_text('{"strategy": "fedavg"}\n')
    if name is not None:
        (run_d / name).write_bytes(content)
    argv = ["compare", "--runs", str(run_d), "--threshold", "0.5"]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 2
    assert str(tmp_path) in assert_one_line_error(capsys, "error: ")


def test_run_with_out_on_a_file_is_a_runtime_error(tmp_path, capsys,
                                                   monkeypatch):
    cfg_path = write_config(tmp_path, FAST_RUN)
    out = tmp_path / "a-file"
    out.write_text("")
    runs = []
    monkeypatch.setattr(cli, "run_federation",
                        lambda *args: runs.append(args) or [])
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert str(out) in assert_one_line_error(capsys, "error: ")
    assert runs == []  # the error comes before training


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_is_a_one_line_runtime_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"lr": 1e200, "strategy": "ewwa",
                                       "rounds": 3})
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "non-finite" in assert_one_line_error(capsys, "error: round 1: ")
