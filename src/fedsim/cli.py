"""Command-line entry point.

Subcommands:
  run                --config <path> --out <dir>
  partition-preview  --config <path>
  compare            --runs <dir>... --threshold <acc> [--out <csv>]

Exit codes: 0 success, 1 config error, 2 runtime error (out of memory
included).
"""
from __future__ import annotations

import argparse
import contextlib
import sys
import time

from .errors import ConfigError, FedSimError
from .federation import build_partition, run_federation
from .reporting import (
    _writing,
    compare_runs,
    comparison_csv,
    emit_metrics,
    make_manifest,
    parse_config,
    run_dir,
)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = run_dir(args.out, cfg)
    with _writing(out):  # an unwritable --out fails before training
        out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        records = run_federation(cfg)
    except (FedSimError, MemoryError):  # rmdir removes only an empty dir
        with contextlib.suppress(OSError):
            out.rmdir()
        raise
    manifest = make_manifest(cfg, out, started, time.time())
    emit_metrics(records, manifest, out)
    last = records[-1]
    print(f"{cfg.aggregator.strategy}/{cfg.aggregator.variant}: "
          f"{len(records)} rounds, final test acc "
          f"{last.global_test_accuracy:.4f} -> {out}")
    return 0


def _cmd_partition_preview(args) -> int:
    cfg = parse_config(args.config)
    _, shards = build_partition(cfg)
    print(f"partition={cfg.partition} clients={cfg.num_clients} "
          f"train_samples={sum(shard.n for shard in shards)}")
    for cid, shard in enumerate(shards):
        print(f"client {cid}: n={shard.n} classes=" +
              " ".join(str(int(h)) for h in shard.class_histogram()))
    return 0


def _cmd_compare(args) -> int:
    rows = compare_runs(args.runs, args.threshold, args.out)
    print(comparison_csv(rows, "{:.6f}".format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one federation experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_prev = sub.add_parser("partition-preview",
                            help="print per-client class histograms")
    p_prev.add_argument("--config", required=True)
    p_prev.set_defaults(func=_cmd_partition_preview)

    p_cmp = sub.add_parser("compare", help="summarize finished runs")
    p_cmp.add_argument("--runs", nargs="+", required=True)
    p_cmp.add_argument("--threshold", type=float, required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FedSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
