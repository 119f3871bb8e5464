"""Run the benchmark on a parent and a change revision in alternating pairs
and write one BENCH_<tag>.json record of every run.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload skew_c100 --seed 0 --pairs 6 --seconds 30 \\
        --out BENCH_tag.json

Each revision is extracted with `git archive` into its own directory,
`parent` and `change` side by side under --workdir, so both run from paths
of equal length: glibc's heap layout, and with it round times, can depend
on the checkout path's length. Only committed files are measured. For each
workload and seed, pair i runs `perfbench/run.py --trace 0` once on each
side, the parent first in odd pairs and the change first in even ones,
and reads the run's `perfbench/out/result-*.json`.

The record holds every result, the NumPy and BLAS versions and the BLAS
thread count, per workload and seed each side's median number of passes
(`peak_rss_mb` rises with it, as every pass's outcome is kept), and per
workload, seed and end-to-end metric of BENCHMARK.json: both sides'
medians and quartiles, the parent's quartile spread, the change/parent
ratio of the medians, the pairs in which the change read better and a
verdict, which is printed as a table at the end, with the passes:

    gain        the change read better in at least 9/10 of the pairs, and
                its median is better than the parent's by more than the
                parent's quartile spread
    worse       the change's median is worse than the parent's by more than
                the metric's bound, a share of the parent's median
    unresolved  the parent's quartile spread exceeds that bound, and not
                every change run reads better than every parent run
    no worse    otherwise

Beside the passes, the record and the table hold two conditions that
perfbench's `setup_s` depends on beyond the code it runs: each side's
`src/fedsim` line count, and the runs' `PYTHONDONTWRITEBYTECODE`, which,
when set, makes each of the set-up's fresh imports compile fedsim from
source.

The exit status is 1 if any run failed or reported `correct: false`.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equal lengths: equal checkout paths
HOST_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads",
             "nproc", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def checkout(rev: str, dest: Path) -> None:
    """The committed tree of rev, extracted into dest."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` benchmark run in tree: its exit status and result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    out = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    record = None
    if proc.returncode == 0 and out.exists():
        record = json.loads(out.read_text())
        out.unlink()  # a later failed run must not read this one
    return {"returncode": proc.returncode,
            "stderr_tail": proc.stderr.splitlines()[-3:], "record": record}


def _stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _value(run: dict, metric: str) -> float | None:
    record = run["record"]
    return None if record is None else record["result"]["metrics"][metric]["value"]


def verdict(both: list[tuple[float, float]], better: str,
            bound: float) -> str:
    """gain, worse, unresolved or no worse (see the module docstring) for
    one metric's (parent, change) pairs; bound is a share of the parent's
    median."""
    sign = 1 if better == "lower" else -1
    parent = _stats([a for a, _ in both])
    gap = sign * (parent["median"] - statistics.median(b for _, b in both))
    spread = parent["q3"] - parent["q1"]
    wins = sum(sign * (a - b) > 0 for a, b in both)
    limit = bound * abs(parent["median"])
    if 10 * wins >= 9 * len(both) and gap > spread:
        return "gain"
    if -gap > limit:
        return "worse"
    if spread > limit and not all(sign * (a - b) > 0
                                  for a, _ in both for _, b in both):
        return "unresolved"
    return "no worse"


def conditions(trees: dict[str, Path]) -> dict:
    """The runs' PYTHONDONTWRITEBYTECODE (None when unset) and each side's
    src/fedsim line count, as `wc -l` counts them."""
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_fedsim_lines": {
                side: sum(path.read_bytes().count(b"\n")
                          for path in (tree / "src" / "fedsim").glob("*.py"))
                for side, tree in trees.items()}}


def table(summary: dict, conditions: dict) -> list[str]:
    """One line per workload, seed and metric: both medians, the ratio, the
    pairs the change won and the verdict; then, per workload and seed, both
    sides' median passes beside the conditions."""
    counts = conditions["src_fedsim_lines"]
    flag = conditions["PYTHONDONTWRITEBYTECODE"]
    beside = (f"src/fedsim lines {counts['parent']}/{counts['change']}  "
              f"PYTHONDONTWRITEBYTECODE={'unset' if flag is None else flag}")
    lines = [f"{'workload/seed':<18} {'metric':<22} {'parent':>10} "
             f"{'change':>10} {'ratio':>7} {'won':>6}  verdict"]
    for key, entry in summary.items():
        for name, m in entry.items():
            if isinstance(m, dict) and "verdict" in m:
                ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
                lines.append(
                    f"{key:<18} {name:<22} {m['parent']['median']:>10.4g} "
                    f"{m['change']['median']:>10.4g} {ratio:>7} "
                    f"{m['change_better_in_pairs']:>6}  {m['verdict']}")
        parent, change = ("-" if n is None else f"{n:g}"
                          for n in entry["passes"].values())
        lines.append(f"{key:<18} {'passes':<22} {parent:>10} {change:>10}  "
                     f"{beside}")
    return lines


def assemble(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary and host of a record from its runs.

    Each run is {"side", "workload", "seed", "pair", "position",
    "returncode", "record"}, the record being a perfbench result or None.
    metrics are BENCHMARK.json's end_to_end entries (name, better, bound).
    A pair counts for a metric only when both of its runs produced it.
    """
    summary, hosts = {}, []
    for run in runs:
        if run["record"] is not None:
            env = run["record"]["environment"]
            host = {k: env.get(k) for k in HOST_KEYS}
            if host not in hosts:
                hosts.append(host)
    groups = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in groups:
        pairs: dict[int, dict] = {}
        for r in runs:
            if (r["workload"], r["seed"]) == (workload, seed):
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        entry = {"pairs": len(pairs),
                 "failed_runs": sum(r["record"] is None
                                    or not r["record"]["result"]["correct"]
                                    for p in pairs.values()
                                    for r in p.values()),
                 "passes": {side: _median_or_none(
                     [p[side]["record"]["passes"] for p in pairs.values()
                      if p.get(side, {}).get("record") is not None])
                     for side in SIDES}}
        for m in metrics:
            both = [(_value(p["parent"], m["name"]), _value(p["change"], m["name"]))
                    for p in pairs.values() if set(p) == set(SIDES)]
            both = [(a, b) for a, b in both if a is not None and b is not None]
            if not both:
                continue
            parent = _stats([a for a, _ in both])
            change = _stats([b for _, b in both])
            sign = 1 if m["better"] == "lower" else -1
            better = sum(sign * (a - b) > 0 for a, b in both)
            entry[m["name"]] = {
                "parent": parent,
                "change": change,
                "ratio": (change["median"] / parent["median"]
                          if parent["median"] else None),
                "parent_quartile_spread": parent["q3"] - parent["q1"],
                "bound": m["bound"],
                "better": m["better"],
                "change_better_in_pairs": f"{better}/{len(both)}",
                "verdict": verdict(both, m["better"], m["bound"]),
            }
        summary[f"{workload}/seed{seed}"] = entry
    return {"host": hosts[0] if len(hosts) == 1 else hosts, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="change revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path,
                        help="where the two checkouts go (default: a "
                             "temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    revs = {side: git("rev-parse", "--short", rev).decode().strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        base = args.workdir or Path(tmp)
        trees = {side: base / side for side in SIDES}
        for side in SIDES:
            checkout(revs[side], trees[side])
        setup = conditions(trees)
        runs = []
        for workload in args.workload:
            for seed in args.seed:
                for pair in range(1, args.pairs + 1):
                    order = SIDES if pair % 2 else SIDES[::-1]
                    for position, side in enumerate(order, 1):
                        run = run_once(trees[side], workload, seed, args.seconds)
                        runs.append({"side": side, "workload": workload,
                                     "seed": seed, "pair": pair,
                                     "position": position, **run})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"round_ms_min {_value(run, 'round_ms_min')}",
                              file=sys.stderr)
    record = {
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "protocol": (f"{args.pairs} alternating pairs per workload and seed, "
                     "the parent first in odd pairs; each side runs from its "
                     "own git archive checkout, in sibling directories of "
                     "equal path length."),
        "conditions": setup,
        **assemble(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(table(record["summary"], setup)))
    failed = sum(e["failed_runs"] for e in record["summary"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
