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
from dataclasses import asdict, dataclass, fields
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


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    strategy: str
    variant: str
    started_at: str
    finished_at: str
    out_dir: str


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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
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


def emit_metrics(records: list[RoundRecord], manifest: RunManifest,
                 out_dir) -> dict:
    """Write metrics.jsonl, summary.csv, timings.csv, manifest.json.

    metrics.jsonl and summary.csv carry only seed-deterministic fields;
    wall-clock times go to timings.csv so reruns stay byte-identical.
    """
    if not records:
        raise FedSimError("no records to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out / "metrics.jsonl",
        "summary": out / "summary.csv",
        "timings": out / "timings.csv",
        "manifest": out / "manifest.json",
    }
    with open(paths["metrics"], "w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "round": rec.round,
                "test_acc": rec.global_test_accuracy,
                "test_loss": rec.global_test_loss,
                "mean_train_loss": rec.mean_local_train_loss,
                "per_client_train_loss": rec.per_client_train_loss,
            }, sort_keys=True) + "\n")
    with open(paths["summary"], "w") as fh:
        fh.write("round,test_acc,test_loss,mean_train_loss\n")
        for rec in records:
            fh.write(f"{rec.round},{_fmt(rec.global_test_accuracy)},"
                     f"{_fmt(rec.global_test_loss)},"
                     f"{_fmt(rec.mean_local_train_loss)}\n")
    with open(paths["timings"], "w") as fh:
        fh.write("round,wall_ms\n")
        for rec in records:
            fh.write(f"{rec.round},{rec.wall_ms}\n")
    with open(paths["manifest"], "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def make_manifest(cfg: FederationConfig, out_dir, started_at: float,
                  finished_at: float) -> RunManifest:
    iso = lambda t: time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
    return RunManifest(
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        strategy=cfg.aggregator.strategy,
        variant=cfg.aggregator.variant,
        started_at=iso(started_at),
        finished_at=iso(finished_at),
        out_dir=str(out_dir),
    )


def load_metrics(run_dir_path) -> list[dict]:
    path = Path(run_dir_path) / "metrics.jsonl"
    try:
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise FedSimError(f"{run_dir_path}: cannot read metrics ({exc})") from exc
    if not rows:
        raise FedSimError(f"{run_dir_path}: metrics file is empty")
    return rows


def compare_runs(dirs: list, threshold: float, out_path=None) -> list[dict]:
    """One summary row per run; optionally written as comparison.csv."""
    rows = []
    for d in dirs:
        metrics = load_metrics(d)
        manifest_path = Path(d) / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FedSimError(f"{d}: cannot read manifest ({exc})") from exc
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
        with open(out_path, "w") as fh:
            fh.write("strategy,variant,final_test_acc,best_test_acc,"
                     "rounds_to_threshold\n")
            for row in rows:
                fh.write(f"{row['strategy']},{row['variant']},"
                         f"{_fmt(row['final_test_acc'])},"
                         f"{_fmt(row['best_test_acc'])},"
                         f"{row['rounds_to_threshold']}\n")
    return rows
