"""fedsim benchmark: seeded federation workloads driven through the public API.

    python3 perfbench/run.py --workload sweep_c3 --seed 0 --seconds 30 --trace 0

Each configuration of a workload runs on the path of `fedsim run`:
`reporting.config_from_dict` -> `federation.run_federation` ->
`reporting.emit_metrics`. The run repeats the workload until `--seconds`
have passed, checks every output, and prints as its last line one JSON
object with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`). See README.md in this directory for the metric table.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
REPLAY_REPEATS = 9
MIN_FINAL_ACC = 0.9

COMMON = {
    "synth_classes": 10, "synth_per_class": 600, "synth_dim": 32,
    "synth_spread": 0.25, "model_kind": "mlp", "hidden_dim": 64,
    "activation": "relu", "lr": 0.01, "momentum": 0.9, "batch_size": 64,
    "variant": "adam",
}

# Round counts are the fewest at which every seed tried reached well above
# MIN_FINAL_ACC, so that one pass of a workload stays a few seconds long.
WORKLOADS = {
    # The criterion-5 task with five strategies back to back: the paper's
    # main use. Local training dominates; aggregation is a few percent.
    "sweep_c3": [
        {"strategy": s, "num_clients": 3, "partition": "iid",
         "global_step_scale": 0.01, "rounds": 20}
        for s in ("fedavg", "fedopt", "fedams", "ewwa", "fedadp")
    ],
    # 100 tiny uneven shards: the per-client Python loop and aggregation
    # over 100 clients dominate.
    "skew_c100": [
        {"strategy": "ewwa", "num_clients": 100, "partition": "label_skew",
         "concentration": 0.3, "global_step_scale": 1.0, "rounds": 20},
    ],
    # fedboosting selects clients by cross-validation, so models.evaluate
    # does about half of each round.
    "boost_c10": [
        {"strategy": "fedboosting", "num_clients": 10,
         "partition": "label_skew", "concentration": 0.3,
         "global_step_scale": 0.01, "rounds": 50},
    ],
}

END_TO_END_UNITS = {
    "round_ms_min": "ms", "round_ms_p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "final_test_acc": "share",
    "completed_round_share": "share",
}
# Printed and recorded, but not in the result. On a shared host that
# switches between a fast and a slow speed for seconds at a time, each of
# these follows the share of the run spent at each speed, and moved by up
# to 30 % between runs of the same code (README.md, "Steadiness").
NOT_GATED_UNITS = {
    "round_ms_p50": "ms", "train_samples_per_s": "1/s", "run_s": "s",
}
AGGREGATOR_METRICS = tuple(
    f"aggregators.{s}.ms_p50"
    for s in ("fedavg", "fedopt", "fedams", "ewwa", "fedadp", "fedboosting"))
PER_LAYER_UNITS = {
    "training.train_local.calls": "count",
    "training.train_local.ms_p50": "ms",
    "training.train_local.self_ms": "ms",
    "tensors.parameterset_init.calls": "count",
    "tensors.zip_map.calls": "count",
    "tensors.zip_map.busy_ms": "ms",
    "models.loss_and_grad.calls": "count",
    "models.loss_and_grad.us_p50": "us",
    "models.evaluate.calls": "count",
    "models.evaluate.rows": "count",
    "models.evaluate.busy_ms": "ms",
    **dict.fromkeys(AGGREGATOR_METRICS, "ms"),
    "aggregators.busy_share": "share",
    "federation.round_self_ms": "ms",
    "federation.apply_global_update_us": "us",
    "federation.setup_ms": "ms",
    "data.synth_blobs_ms": "ms",
    "data.split_ms": "ms",
    "data.partition_ms": "ms",
    "reporting.parse_config_ms": "ms",
    "reporting.emit_metrics_ms": "ms",
    "trace.overhead_share": "share",
}


def workload_docs(workload: str, seed: int) -> list[dict]:
    """The flat `fedsim run` configs of one workload pass; inputs come
    only from the seed."""
    return [dict(COMMON, **cfg, seed=seed) for cfg in WORKLOADS[workload]]


@dataclasses.dataclass
class Outcome:
    """One configuration run once on the `fedsim run` path."""
    doc: dict
    bounds: list          # perf_counter at each return of apply_global_update
    records: list | None  # None when run_federation raised
    digest: str | None    # sha256 of the metrics.jsonl this run emitted
    error: BaseException | None = None

    @property
    def failed_rounds(self) -> int:
        from fedsim.errors import RunError
        rounds = self.doc["rounds"]
        if self.error is None:
            return rounds - len(self.records)
        if isinstance(self.error, RunError):
            return rounds - self.error.round_num + 1
        # Any other exception: the round in progress counts as failed, also
        # when it raised after its apply_global_update had returned.
        return rounds - max(len(self.bounds) - 1, 0)


class _StopAtTraining(Exception):
    """Raised by the stand-in for train_local that ends a set-up probe."""


def setup_seconds(docs: list[dict]) -> float:
    """Median over SETUP_REPEATS of one set-up: a fresh import of fedsim,
    then for each config the time from `config_from_dict` to the first
    `train_local` call. NumPy stays imported: it loads once per process."""
    from spans import patched

    def stop(*args, **kwargs):
        raise _StopAtTraining

    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules
                     if n == "fedsim" or n.startswith("fedsim.")]:
            del sys.modules[name]
        took = import_fedsim()
        from fedsim import federation, reporting
        with patched({federation.train_local: stop}):
            for doc in docs:
                t0 = time.perf_counter()
                try:
                    federation.run_federation(reporting.config_from_dict(doc))
                except Exception:  # _StopAtTraining, or a failing config
                    pass
                took += time.perf_counter() - t0
        times.append(took)
    return statistics.median(times)


def warm_up(docs: list[dict]):
    """Run one round of each config. Returns the training rows of one
    round per config and the client updates of the last config's round."""
    from fedsim import federation, reporting
    from spans import patched

    updates: list = []
    train_local = federation.train_local

    def keep(*args, **kwargs):
        update = train_local(*args, **kwargs)
        updates.append(update)
        return update

    rows = []
    with patched({train_local: keep}):
        for doc in docs:
            updates.clear()
            try:
                cfg = reporting.config_from_dict(dict(doc, rounds=1))
                federation.run_federation(cfg)
                epochs = cfg.local.local_epochs
            except Exception:  # counted as failed rounds when measured
                epochs = 1
            rows.append(sum(u.num_samples for u in updates) * epochs)
    return rows, list(updates)


def run_pass(docs: list[dict], marks: list) -> tuple[float, list[Outcome]]:
    """One pass over the workload's configs, each as `fedsim run` does it.

    Returns the wall time of the pass and one Outcome per config.
    """
    from fedsim import federation, reporting

    outcomes = []
    t0 = time.perf_counter()
    for doc in docs:
        first = len(marks)
        records = digest = error = None
        try:
            cfg = reporting.config_from_dict(doc)
            out = reporting.run_dir(OUT / "runs", cfg)
            started = time.time()
            records = federation.run_federation(cfg)
            manifest = reporting.make_manifest(cfg, out, started, time.time())
            reporting.emit_metrics(records, manifest, out)
            # Every pass of a config writes the same file, so hash it now.
            digest = sha256_file(out / "metrics.jsonl")
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            error = exc
        outcomes.append(Outcome(doc, marks[first:], records, digest, error))
    return time.perf_counter() - t0, outcomes


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(outcomes: list[Outcome], num_docs: int) -> tuple[list[str], dict]:
    """Output checks. Returns the problems found and the sha256 of each
    config's metrics.jsonl, which every pass must reproduce exactly."""
    problems: list[str] = []
    digests: dict[int, str] = {}
    for i, o in enumerate(outcomes):
        label = f"{o.doc['strategy']}/{o.doc['variant']}"
        if o.error is not None:
            problems.append(f"{label}: raised {type(o.error).__name__}: "
                            f"{o.error}")
            continue
        losses = [x for r in o.records for x in (
            r.global_test_loss, r.mean_local_train_loss,
            *r.per_client_train_loss)]
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"{label}: non-finite loss")
        final = o.records[-1].global_test_accuracy
        if final < MIN_FINAL_ACC:
            problems.append(f"{label}: final_test_acc {final:.4f} < "
                            f"{MIN_FINAL_ACC}")
        if digests.setdefault(i % num_docs, o.digest) != o.digest:
            problems.append(f"{label}: metrics.jsonl differs between passes")
    return problems, digests


def percentile(values, q: float) -> float | None:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else None


def end_to_end(docs, outcomes, pass_s, rows, setup_s,
               completed_share) -> tuple[dict, int]:
    """The end-to-end metrics, gated or not, and the number of rounds
    timed."""
    import numpy as np
    round_ms: list[float] = []
    fastest: dict[int, float] = {}  # config index -> its fastest round
    trained = phase_s = 0.0
    for i, o in enumerate(outcomes):
        if len(o.bounds) < 2:
            continue
        ms = np.diff(o.bounds) * 1e3
        round_ms.extend(ms)
        fastest[i % len(docs)] = min(fastest.get(i % len(docs), np.inf),
                                     ms.min())
        phase_s += o.bounds[-1] - o.bounds[0]
        trained += rows[i % len(docs)] * (len(o.bounds) - 1)
    finals = [o.records[-1].global_test_accuracy
              for o in outcomes[:len(docs)] if o.error is None]
    return {
        "round_ms_min": (statistics.mean(fastest.values())
                         if fastest else None),
        "round_ms_p90": percentile(round_ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_test_acc": statistics.mean(finals) if finals else None,
        "completed_round_share": completed_share,
        "round_ms_p50": percentile(round_ms, 50),
        "train_samples_per_s": trained / phase_s if phase_s else None,
        "run_s": statistics.median(pass_s),
    }, len(round_ms)


def replay_aggregators(updates: list, doc: dict) -> dict:
    """Median time of each of the six strategies on one captured round of
    client updates from this workload. fedadp's time includes the mean
    gradient it needs; fedboosting's excludes the cross-validation
    evaluates, which show under models.evaluate."""
    import numpy as np
    from fedsim import aggregators as agg, reporting, tensors

    if not updates:
        return dict.fromkeys(AGGREGATOR_METRICS)
    base = reporting.config_from_dict(doc).aggregator
    state = agg.initial_state(updates[0].pseudo_gradient)
    c = len(updates)
    cross_val = np.full((c, c), MIN_FINAL_ACC)
    train_acc = np.array([u.train_accuracy for u in updates])

    def cfg(strategy):
        return dataclasses.replace(base, strategy=strategy)

    calls = {
        "fedavg": lambda: agg.fedavg_aggregate(updates),
        "fedopt": lambda: agg.fedopt_aggregate(updates, state, cfg("fedopt")),
        "fedams": lambda: agg.fedams_aggregate(updates, state, cfg("fedams")),
        "ewwa": lambda: agg.ewwa_aggregate(updates, state, cfg("ewwa")),
        "fedadp": lambda: agg.fedadp_aggregate(
            updates, state, cfg("fedadp"),
            tensors.mean([u.pseudo_gradient for u in updates])),
        "fedboosting": lambda: agg.fedboosting_aggregate(
            updates, cross_val, train_acc),
    }
    out = {}
    for strategy, call in calls.items():
        times = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"aggregators.{strategy}.ms_p50"] = statistics.median(times) * 1e3
    return out


def blas_threads() -> int | None:
    """Threads the OpenBLAS that NumPy loaded will use, or None."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def import_fedsim() -> float:
    """Import fedsim from this checkout's src/; returns the seconds taken."""
    t0 = time.perf_counter()
    import fedsim
    took = time.perf_counter() - t0
    if Path(fedsim.__file__).resolve().parent != SRC / "fedsim":
        raise SystemExit(f"fedsim imported from {fedsim.__file__}, "
                         f"not from {SRC}")
    return took


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark measurement; returns the full result record."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import_fedsim()
    from spans import Tracer, layer_metrics, patched

    OUT.mkdir(parents=True, exist_ok=True)
    docs = workload_docs(workload, seed)
    setup_s = None if trace else setup_seconds(docs)
    from fedsim import federation
    rows, updates = warm_up(docs)

    marks: list[float] = []
    apply = federation.apply_global_update

    def mark_round(*args, **kwargs):
        result = apply(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    tracer = Tracer()
    pass_s, untraced_s, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    with patched({apply: mark_round}):
        while True:
            if trace:
                t, done = run_pass(docs, marks)
                untraced_s.append(t)
                outcomes.extend(done)
                with tracer.tracing():
                    t, done = run_pass(docs, marks)
            else:
                t, done = run_pass(docs, marks)
            pass_s.append(t)
            outcomes.extend(done)
            if time.perf_counter() >= deadline:
                break

    problems, digests = check(outcomes, len(docs))
    failed = sum(o.failed_rounds for o in outcomes)
    attempted = sum(o.doc["rounds"] for o in outcomes)
    if trace:
        metrics = layer_metrics(tracer)
        metrics.update(replay_aggregators(updates, docs[-1]))
        metrics["trace.overhead_share"] = (
            statistics.median(pass_s) / statistics.median(untraced_s) - 1)
        units, not_gated, samples = PER_LAYER_UNITS, {}, None
        tracer.write(OUT / f"spans-{workload}.jsonl")
    else:
        metrics, samples = end_to_end(docs, outcomes, pass_s, rows, setup_s,
                                      (attempted - failed) / attempted)
        units, not_gated = END_TO_END_UNITS, NOT_GATED_UNITS
    return {
        "workload": workload,
        "passes": len(pass_s),
        "round_samples": samples,
        "not_gated": {k: {"value": metrics[k], "unit": u}
                      for k, u in not_gated.items()},
        "environment": environment(seed),
        "metrics_sha256": {
            f"{docs[i]['strategy']}/{docs[i]['variant']}": d
            for i, d in sorted(digests.items())},
        "problems": problems,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()},
        },
    }


def report(record: dict) -> None:
    result = record["result"]
    samples = record["round_samples"]
    print(f"workload {record['workload']}: {record['passes']} passes, "
          f"{result['attempted']} rounds attempted, {result['failed']} failed"
          + ("" if samples is None else f", {samples} round samples"))
    for title, table in (("metrics", result["metrics"]),
                         ("not gated", record["not_gated"])):
        if table:
            print(f"{title}:")
        for name, m in table.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            note = f"  (n={samples})" if name.startswith("round_ms") else ""
            print(f"  {name:36s} {value:>12s} {m['unit']}{note}")
    for label, digest in record["metrics_sha256"].items():
        print(f"metrics.jsonl sha256 {label}: {digest}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
