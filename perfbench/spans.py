"""In-memory span recorder for the traced benchmark run, and its reduction.

A span is one call across a layer boundary of fedsim: its name, start,
end, the span that was open when it started (its parent), and a row count
where the call works on a dataset. The recorder wraps fedsim's public
functions from outside, keeps every span in flat arrays while the program
runs, and turns them into per-layer metrics only when the run is over.
"""
from __future__ import annotations

import array
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

AGGREGATE_SPANS = tuple(
    f"aggregators.{s}_aggregate"
    for s in ("fedavg", "fedopt", "fedams", "ewwa", "fedadp", "fedboosting"))


def _dataset_rows(args) -> int:
    """Rows of the dataset passed third to train_local and evaluate."""
    return args[2].features.shape[0]


# (module, attribute, span name, row counter). Every binding of the named
# object in any fedsim module is wrapped, so a call through a name bound by
# `from .x import y` is recorded as well as one through the defining module.
TARGETS = (
    ("fedsim.data", "synth_blobs", "data.synth_blobs", None),
    ("fedsim.data", "split_train_test", "data.split_train_test", None),
    ("fedsim.data", "partition_iid", "data.partition", None),
    ("fedsim.data", "partition_label_skew", "data.partition", None),
    ("fedsim.tensors", "zip_map", "tensors.zip_map", None),
    ("fedsim.tensors.ParameterSet", "__init__", "tensors.parameterset_init", None),
    ("fedsim.models", "loss_and_grad", "models.loss_and_grad", None),
    ("fedsim.models", "evaluate", "models.evaluate", _dataset_rows),
    ("fedsim.training", "train_local", "training.train_local", _dataset_rows),
    *(("fedsim.aggregators", name.split(".", 1)[1], name, None)
      for name in AGGREGATE_SPANS),
    ("fedsim.federation", "run_federation", "federation.run_federation", None),
    ("fedsim.federation", "apply_global_update",
     "federation.apply_global_update", None),
    ("fedsim.reporting", "config_from_dict", "reporting.config_from_dict", None),
    ("fedsim.reporting", "emit_metrics", "reporting.emit_metrics", None),
)


def _resolve(path: str):
    """A loaded fedsim module, or a class inside one."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


def _namespaces() -> list:
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "fedsim" or n.startswith("fedsim.")]
    return mods + [_resolve("fedsim.tensors.ParameterSet")]


@contextmanager
def patched(replacements: dict):
    """Rebind every fedsim name bound to a key of `replacements`.

    Keys are the objects to replace, values their replacements. All
    bindings are restored on exit.
    """
    by_id = {id(old): new for old, new in replacements.items()}
    undo = []
    try:
        for ns in _namespaces():
            for attr, val in list(vars(ns).items()):
                if id(val) in by_id:
                    undo.append((ns, attr, val))
                    setattr(ns, attr, by_id[id(val)])
        yield
    finally:
        for ns, attr, val in reversed(undo):
            setattr(ns, attr, val)


class Tracer:
    """Records spans into flat arrays; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("q")
        self.parent = array.array("q")
        self.rows = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, rows_of=None):
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rows.append(rows_of(args) if rows_of else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def tracing(self):
        """Wrap every TARGETS binding while the block runs."""
        replacements = {}
        for path, attr, name, rows_of in TARGETS:
            fn = getattr(_resolve(path), attr)
            replacements[fn] = self.wrap(name, fn, rows_of)
        with patched(replacements):
            yield

    def write(self, path) -> None:
        """One header line with the span names, then one line per span:
        [name index, parent index, start s, end s, rows]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name, self.parent, self.start, self.end,
                           self.rows):
                fh.write(json.dumps(row) + "\n")


def _median(values) -> float | None:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else None


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    A measured round is the interval between two consecutive returns of
    `apply_global_update` inside one `run_federation` call, the same
    boundary the untraced run times, so round 1 (before the first return)
    and the final test evaluate (after the last) are left out. Counts are
    per measured round; times are medians over rounds or over spans.
    """
    name = np.frombuffer(tr.name, dtype=np.int64)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    rows = np.frombuffer(tr.rows, dtype=np.int64)
    start = np.frombuffer(tr.start, dtype=np.float64)
    end = np.frombuffer(tr.end, dtype=np.float64)
    dur = end - start
    n = dur.size
    ids = {s: i for i, s in enumerate(tr.names)}

    def named(*spans):
        return np.isin(name, [ids.get(s, -1) for s in spans])

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=n)
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    train = named("training.train_local")
    apply = named("federation.apply_global_update")
    roots = np.flatnonzero(named("federation.run_federation"))
    root_of = np.full(n, -1)
    rnd = np.full(n, -1)
    round_len: list[float] = []
    setup = []
    for j, root in enumerate(roots):
        inside = (start >= start[root]) & (end <= end[root])
        root_of[inside] = j
        if (inside & train).any():
            setup.append(start[inside & train].min() - start[root])
        bounds = np.sort(end[apply & (parent == root)])
        if bounds.size < 2:
            continue
        k = np.searchsorted(bounds, start, side="left")
        measured = inside & (k >= 1) & (k < bounds.size)
        rnd[measured] = len(round_len) + k[measured] - 1
        round_len.extend(np.diff(bounds))
    num_rounds = len(round_len)
    in_round = rnd >= 0

    def per_round(mask, weights):
        mask = mask & in_round
        return np.bincount(rnd[mask], weights=weights[mask],
                           minlength=num_rounds)

    def count(mask):
        return float((mask & in_round).sum() / num_rounds) if num_rounds else None

    def per_root_ms(mask):
        mask = mask & (root_of >= 0)
        totals = np.bincount(root_of[mask], weights=dur[mask],
                             minlength=len(roots))
        return _median(totals * 1e3)

    zmap = named("tensors.zip_map")
    grad = named("models.loss_and_grad") & (parent_name == ids.get(
        "training.train_local", -2))
    ev = named("models.evaluate")
    aggr = named(*AGGREGATE_SPANS)
    direct = np.isin(parent, roots)
    round_self = np.asarray(round_len) - per_round(direct, dur)

    def ms(x):
        return None if x is None else x * 1e3

    def us(x):
        return None if x is None else x * 1e6

    return {
        "training.train_local.calls": count(train),
        "training.train_local.ms_p50": ms(_median(dur[train & in_round])),
        "training.train_local.self_ms": ms(_median(per_round(train, self_time))),
        "tensors.parameterset_init.calls": count(named("tensors.parameterset_init")),
        "tensors.zip_map.calls": count(zmap),
        "tensors.zip_map.busy_ms": ms(_median(per_round(zmap, dur))),
        "models.loss_and_grad.calls": count(grad),
        "models.loss_and_grad.us_p50": us(_median(dur[grad & in_round])),
        "models.evaluate.calls": count(ev),
        "models.evaluate.rows": (float(per_round(ev, rows).sum() / num_rounds)
                                 if num_rounds else None),
        "models.evaluate.busy_ms": ms(_median(per_round(ev, dur))),
        "aggregators.busy_share": (
            float(dur[aggr & in_round].sum() / np.sum(round_len))
            if num_rounds else None),
        "federation.round_self_ms": ms(_median(round_self)),
        "federation.apply_global_update_us": us(_median(dur[apply])),
        "federation.setup_ms": ms(_median(setup)),
        "data.synth_blobs_ms": per_root_ms(named("data.synth_blobs")),
        "data.split_ms": per_root_ms(named("data.split_train_test")),
        "data.partition_ms": per_root_ms(named("data.partition")),
        "reporting.parse_config_ms": ms(_median(
            dur[named("reporting.config_from_dict")])),
        "reporting.emit_metrics_ms": ms(_median(
            dur[named("reporting.emit_metrics")])),
    }
