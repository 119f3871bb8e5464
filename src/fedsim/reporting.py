"""Config parsing, metrics persistence, and run comparison.

Configs are flat JSON documents whose keys are the fields of
FederationConfig, with the LocalConfig and AggregatorConfig fields spliced
in; those dataclasses give each key's default, type and range check.
Unknown keys, wrong types and non-finite numbers are rejected here by
name; integers are promoted where a float is expected. Every run emits
metrics.jsonl (one object per round, deterministic content), summary.csv,
timings.csv, and manifest.json under a directory keyed by the config
hash, so identical configs always land in the same place.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .aggregators import AggregatorConfig
from .errors import ConfigError, FedSimError
from .federation import FederationConfig, RoundRecord
from .training import LocalConfig

_SECTIONS = {"local": LocalConfig, "aggregator": AggregatorConfig}
_TYPES = {"int": int, "float": float, "str": str}

# flat key -> (section or None, dataclass field), in field order
CONFIG_KEYS = {
    f.name: (top.name if top.name in _SECTIONS else None, f)
    for top in fields(FederationConfig)
    for f in (fields(_SECTIONS[top.name]) if top.name in _SECTIONS else (top,))
}


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _read_json(path, error: type[FedSimError], parse=json.loads):
    """parse applied to the UTF-8 text of a file: one JSON document by
    default, or _json_lines. A file that cannot be read, decoded or parsed,
    nesting too deep for the parser included, raises error naming it."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # strerror leaves out the path that str(OSError) repeats
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise error(f"cannot read '{path}': {reason}") from exc


@contextmanager
def _writing(path):
    """Turn an OSError raised in the block into a FedSimError naming path."""
    try:
        yield
    except OSError as exc:
        raise FedSimError(f"cannot write '{path}': {exc.strerror}") from exc


def config_from_dict(doc: dict) -> FederationConfig:
    """Strictly validate a flat config dict; unknown keys are errors."""
    for key in doc:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    values = {None: {}, **{name: {} for name in _SECTIONS}}
    for key, (section, f) in CONFIG_KEYS.items():
        raw = doc.get(key, f.default)
        typ = _TYPES[f.type]
        if typ is float and isinstance(raw, int) and not isinstance(raw, bool):
            try:
                raw = float(raw)
            except OverflowError:
                raise ConfigError(f"config key {key!r}: beyond float range") from None
        if not isinstance(raw, typ) or isinstance(raw, bool):
            raise ConfigError(f"config key {key!r}: expected {f.type}")
        if typ is float and not math.isfinite(raw):
            raise ConfigError(f"config key {key!r}: value {raw!r} not finite")
        values[section][key] = raw
    try:
        return FederationConfig(**values[None], **{
            name: cls(**values[name]) for name, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> FederationConfig:
    doc = _read_json(path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(doc)


def config_to_dict(cfg: FederationConfig) -> dict:
    return {key: getattr(getattr(cfg, section) if section else cfg, key)
            for key, (section, _) in CONFIG_KEYS.items()}


def canonical_config_text(cfg: FederationConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: FederationConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode()).hexdigest()


def run_dir(out_root, cfg: FederationConfig) -> Path:
    """Output directory is a pure function of the root and config hash."""
    return Path(out_root) / config_hash(cfg)[:16]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_metrics(records: list[RoundRecord], manifest: dict, out_dir) -> None:
    """Write metrics.jsonl, summary.csv, timings.csv, manifest.json.

    metrics.jsonl and summary.csv carry only seed-deterministic fields;
    wall-clock times go to timings.csv so reruns stay byte-identical.
    """
    if not records:
        raise FedSimError("no records to emit")
    texts = {
        "metrics.jsonl": "".join(json.dumps({
            "round": rec.round,
            "test_acc": rec.global_test_accuracy,
            "test_loss": rec.global_test_loss,
            "mean_train_loss": rec.mean_local_train_loss,
            "per_client_train_loss": rec.per_client_train_loss,
        }, sort_keys=True) + "\n" for rec in records),
        "summary.csv": "round,test_acc,test_loss,mean_train_loss\n" + "".join(
            f"{rec.round},{_fmt(rec.global_test_accuracy)},"
            f"{_fmt(rec.global_test_loss)},"
            f"{_fmt(rec.mean_local_train_loss)}\n" for rec in records),
        "timings.csv": "round,wall_ms\n" + "".join(
            f"{rec.round},{rec.wall_ms}\n" for rec in records),
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    }
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text, encoding="utf-8")


def make_manifest(cfg: FederationConfig, out_dir, started_at: float,
                  finished_at: float) -> dict:
    """What manifest.json holds: the run's identity and its UTC times."""
    iso = lambda t: time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
    return {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "strategy": cfg.aggregator.strategy,
        "variant": cfg.aggregator.variant,
        "started_at": iso(started_at),
        "finished_at": iso(finished_at),
        "out_dir": str(out_dir),
    }


def load_metrics(run_dir_path) -> list[dict]:
    """The rows of a run's metrics.jsonl, each an object with a numeric
    round and test_acc."""
    path = Path(run_dir_path) / "metrics.jsonl"
    rows = _read_json(path, FedSimError, _json_lines)
    if not rows:
        raise FedSimError(f"{path}: metrics file is empty")
    for row in rows:
        if not (isinstance(row, dict) and all(
                type(row.get(key)) in (int, float) for key in ("round", "test_acc"))):
            raise FedSimError(
                f"{path}: a row is not an object with a numeric round and test_acc")
    return rows


def compare_runs(dirs: list, threshold: float, out_path=None) -> list[dict]:
    """One summary row per run; optionally written as comparison.csv."""
    if not 0.0 <= threshold <= 1.0:  # NaN fails it too
        raise FedSimError(
            f"threshold must be a finite number in [0, 1], got {threshold}")
    rows = []
    for d in dirs:
        metrics = load_metrics(d)
        manifest_path = Path(d) / "manifest.json"
        manifest = _read_json(manifest_path, FedSimError)
        if not isinstance(manifest, dict):
            raise FedSimError(f"{manifest_path}: top level must be an object")
        accs = [row["test_acc"] for row in metrics]
        reached = [row["round"] for row in metrics if row["test_acc"] >= threshold]
        rows.append({
            "strategy": manifest.get("strategy", "?"),
            "variant": manifest.get("variant", "?"),
            "final_test_acc": accs[-1],
            "best_test_acc": max(accs),
            "rounds_to_threshold": reached[0] if reached else "never",
        })
    if out_path is not None:
        with _writing(out_path):
            Path(out_path).write_text(comparison_csv(rows), encoding="utf-8")
    return rows


def comparison_csv(rows: list[dict], fmt=_fmt) -> str:
    """compare_runs' rows as CSV text, each accuracy written by fmt."""
    return ("strategy,variant,final_test_acc,best_test_acc,rounds_to_threshold\n"
            + "".join(f"{row['strategy']},{row['variant']},"
                      f"{fmt(row['final_test_acc'])},{fmt(row['best_test_acc'])},"
                      f"{row['rounds_to_threshold']}\n" for row in rows))
