import json
import math
import random

import pytest

from fedsim.cli import main
from fedsim.errors import ConfigError, FedSimError
from fedsim.federation import RoundRecord
from fedsim.reporting import (
    CONFIG_KEYS,
    compare_runs,
    config_from_dict,
    config_hash,
    config_to_dict,
    emit_metrics,
    load_metrics,
    make_manifest,
    parse_config,
    run_dir,
)


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def records(n=3):
    return [
        RoundRecord(round=r, global_test_accuracy=0.5 + 0.1 * r,
                    global_test_loss=1.0 / r, mean_local_train_loss=2.0 / r,
                    per_client_train_loss=[2.0 / r, 2.1 / r], wall_ms=5)
        for r in range(1, n + 1)
    ]


def fuzz_cases():
    """Seeded single-key config values: (key, value) for each config key's
    default, wrong and odd types, its type's edge values and random draws."""
    rng = random.Random(0)
    tiny = math.nextafter(0.0, 1.0)
    edges = {
        "int": [-1, 0, 1, 2, 3, 10 ** 400],
        "float": [0.0, -0.0, tiny, -tiny, 1.0, math.nextafter(1.0, 0.0),
                  -1.0, 1e308, 10 ** 400, 0, 1],
        "str": ["", "mlp", "softmax_regression", "relu", "sigmoid",
                "tanh", "ewwa", "fedboosting", "yogi", "iid",
                "label_skew", "idx", "synth", "bogus"],
    }
    odd = [True, False, None, [], {}, float("nan"), float("inf"),
           float("-inf")]
    for key, (_, f) in CONFIG_KEYS.items():
        wrong = 1.5 if f.type == "str" else "1"
        seeded = ([rng.randint(-5, 100) for _ in range(4)]
                  + [rng.uniform(-2.0, 2.0) for _ in range(4)]
                  + rng.sample(edges["str"], 3))
        for value in [f.default, wrong, *odd, *edges[f.type], *seeded]:
            yield key, value


def emit(tmp_path, recs=None, threshold_dir="run"):
    cfg = config_from_dict({})
    out = tmp_path / threshold_dir
    manifest = make_manifest(cfg, out, 0.0, 1.0)
    emit_metrics(recs or records(), manifest, out)
    return out


class TestParseConfig:
    def test_empty_object_gives_protocol_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {}))
        assert cfg.num_clients == 3
        assert cfg.local.lr == 0.01
        assert cfg.local.momentum == 0.9
        assert cfg.local.batch_size == 64
        assert cfg.aggregator.server_lr == 1.0
        assert (cfg.aggregator.beta1, cfg.aggregator.beta2) == (0.9, 0.999)

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="leraning_rate"):
            parse_config(write_config(tmp_path, {"leraning_rate": 0.1}))

    def test_out_of_range_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(write_config(tmp_path, {"rounds": 0}))

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(write_config(tmp_path, {"batch_size": "big"}))

    def test_round_trip_canonicalization(self, tmp_path):
        doc = {"rounds": 7, "strategy": "ewwa", "variant": "yogi",
               "seed": 99, "lr": 0.25}
        cfg = parse_config(write_config(tmp_path, doc))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bool_is_not_int(self, tmp_path):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(write_config(tmp_path, {"rounds": True}))

    def test_config_hashes_are_stable(self):
        pinned = [
            ({}, "1a2a5fa637caa397c0f6506b42f3b123"
                 "774c6bd83e4c68907d36b7fde9f560f2"),
            ({"rounds": 7, "strategy": "ewwa", "variant": "yogi", "seed": 99,
              "lr": 0.25}, "ecebf8a4d69efb506243d6d8552c4844"
                           "3b07d859515e40890244ba5b0737e771"),
            ({"strategy": "fedboosting", "partition": "label_skew",
              "concentration": 0.3, "num_clients": 10},
             "623823d8f8ca2e8218986dd586ce88b9f544b3621adacacf7dc8634afac7d2a5"),
        ]
        for doc, digest in pinned:
            assert config_hash(config_from_dict(doc)) == digest

    def test_seeded_fuzz_accepts_or_names_the_key(self):
        for key, value in fuzz_cases():
            try:
                cfg = config_from_dict({key: value})
            except ConfigError as exc:
                assert key in str(exc), (key, value, str(exc))
            else:
                assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.filterwarnings("error")
    def test_seeded_fuzz_configs_run_or_fail_in_one_line(self, tmp_path, capsys):
        """Every fuzz config the parser accepts goes through `run` and
        `partition-preview`: each exits 0, 1 or 2, no exception or warning
        escapes, and a failure prints one stderr line."""
        path = tmp_path / "config.json"
        for key, value in fuzz_cases():
            # Two rounds keep the test fast. A drawn rounds or local_epochs
            # above 2 only lengthens the run (rounds 10**400 is accepted and
            # would run until stopped), so those values are skipped.
            long_run = key in ("rounds", "local_epochs")
            doc = {key: value} if long_run else {key: value, "rounds": 2}
            try:
                config_from_dict(doc)
            except ConfigError:
                continue
            if long_run and value > 2:
                continue
            path.write_text(json.dumps(doc))
            for argv in (["run", "--out", str(tmp_path / "runs")],
                         ["partition-preview"]):
                try:
                    code = main([*argv, "--config", str(path)])
                except Exception as exc:
                    pytest.fail(f"{argv[0]} on {doc}: {exc!r} escaped main")
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv[0], doc, code)
                assert err.count("\n") == (code != 0), (argv[0], doc, err)


class TestEmitMetrics:
    def test_one_line_per_round(self, tmp_path):
        out = emit(tmp_path)
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [row["round"] for row in rows] == [1, 2, 3]

    def test_csv_round_trips_numbers(self, tmp_path):
        out = emit(tmp_path)
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "round,test_acc,test_loss,mean_train_loss"
        recs = records()
        for line, rec in zip(lines[1:], recs):
            _, acc, loss, train = line.split(",")
            assert abs(float(acc) - rec.global_test_accuracy) < 1e-12
            assert abs(float(loss) - rec.global_test_loss) < 1e-12
            assert abs(float(train) - rec.mean_local_train_loss) < 1e-12

    def test_jsonl_round_trips_losslessly(self, tmp_path):
        out = emit(tmp_path)
        for row, rec in zip(load_metrics(out), records()):
            assert row["test_acc"] == rec.global_test_accuracy
            assert row["test_loss"] == rec.global_test_loss

    def test_rerun_byte_identical(self, tmp_path):
        out1 = emit(tmp_path, threshold_dir="a")
        out2 = emit(tmp_path, threshold_dir="b")
        assert (out1 / "metrics.jsonl").read_bytes() == \
            (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == \
            (out2 / "summary.csv").read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        cfg = config_from_dict({})
        manifest = make_manifest(cfg, tmp_path, 0.0, 1.0)
        with pytest.raises(FedSimError):
            emit_metrics([], manifest, tmp_path)

    def test_run_dir_depends_only_on_hash(self, tmp_path):
        cfg = config_from_dict({"seed": 3})
        assert run_dir(tmp_path, cfg) == run_dir(tmp_path, cfg)
        other = config_from_dict({"seed": 4})
        assert run_dir(tmp_path, cfg) != run_dir(tmp_path, other)


class TestCompareRuns:
    def test_single_run_row(self, tmp_path):
        out = emit(tmp_path)
        rows = compare_runs([out], threshold=0.7)
        assert len(rows) == 1
        assert rows[0]["final_test_acc"] == pytest.approx(0.8)
        assert rows[0]["best_test_acc"] == pytest.approx(0.8)
        assert rows[0]["rounds_to_threshold"] == 2

    def test_threshold_never_reached(self, tmp_path):
        out = emit(tmp_path)
        rows = compare_runs([out], threshold=0.99)
        assert rows[0]["rounds_to_threshold"] == "never"

    def test_hand_counted_thresholds(self, tmp_path):
        slow = [RoundRecord(r, acc, 0.1, 0.1, [0.1], 1)
                for r, acc in enumerate([0.2, 0.4, 0.6, 0.9], start=1)]
        fast = [RoundRecord(r, acc, 0.1, 0.1, [0.1], 1)
                for r, acc in enumerate([0.7, 0.8, 0.9, 0.95], start=1)]
        d1 = emit(tmp_path, recs=slow, threshold_dir="slow")
        d2 = emit(tmp_path, recs=fast, threshold_dir="fast")
        out_csv = tmp_path / "comparison.csv"
        rows = compare_runs([d1, d2], threshold=0.6, out_path=out_csv)
        assert [row["rounds_to_threshold"] for row in rows] == [3, 1]
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("strategy,variant,final_test_acc")
        assert len(lines) == 3

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1,
                                           1.5])
    def test_threshold_outside_0_1_rejected(self, tmp_path, threshold):
        out = emit(tmp_path)
        with pytest.raises(FedSimError, match=f"got {threshold}"):
            compare_runs([out], threshold=threshold)

    def test_missing_metrics_names_dir(self, tmp_path):
        bogus = tmp_path / "nothere"
        with pytest.raises(FedSimError, match="nothere"):
            compare_runs([bogus], threshold=0.5)
