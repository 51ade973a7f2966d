"""Collect result sets of the benchmark and compare them.

    python3 perfbench/compare.py collect OUT --seeds 1..10 [--trace 0|1]
        [--checkout DIR ...]
    python3 perfbench/compare.py spread SET
    python3 perfbench/compare.py diff PARENT_SET CHANGE_SET

`collect` runs `perfbench/run.py` once per workload and seed in each
checkout (default: this one), for every workload in BENCHMARK.json and
for its `run_seconds`, and keeps its stdout as
OUT/<checkout name>/<workload>/seed<n>.out.  With two checkouts, the
side that runs first alternates from seed to seed.  A result set is one
OUT/<checkout name> directory.

`spread` prints, per workload and end-to-end metric, the median and
quartiles of a set and the quartile distance as a share of the median,
against a third of the metric's bound; it exits with 1 when any spread
is not below that third.

`diff` prints one row per workload and metric: each side's median and
quartiles, the share of seed-matched pairs the change won (ties count for
neither) and a verdict:
  improved   - the change wins at least 9/10 of the pairs and the
               medians differ, in its favour, by more than the parent's
               quartile distance;
  unresolved - the parent's quartile distance exceeds the bound, and not
               every change run is better than every parent run;
  worse      - the change's median is worse than the parent's by more
               than the bound;
  no worse   - otherwise.
Metrics without a bound (the per-layer ones) get only `improved` or `-`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return {"workloads": [w["name"] for w in bench["workloads"]],
            "run_seconds": bench["run_seconds"], "metrics": metrics}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


# ---------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------


def collect(out: Path, checkouts: list[Path], seed_list: list[int],
            trace: int) -> int:
    spec = load_spec()
    status = 0
    for i, seed in enumerate(seed_list):
        k = i % len(checkouts)
        for checkout in checkouts[k:] + checkouts[:k]:
            for w in spec["workloads"]:
                dest = out / checkout.name / w / f"seed{seed}.out"
                dest.parent.mkdir(parents=True, exist_ok=True)
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w,
                     "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]),
                     "--trace", str(trace)],
                    cwd=checkout, stdout=subprocess.PIPE, text=True,
                    check=False, timeout=900)
                dest.write_text(proc.stdout, encoding="utf-8")
                last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
                print(f"{checkout.name} {w} seed {seed}: exit "
                      f"{proc.returncode} {last[:160]}", flush=True)
                status = status or proc.returncode
    return status


# ---------------------------------------------------------------------
# reading sets
# ---------------------------------------------------------------------


def read_set(path: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result object}} from a result set directory."""
    out: dict[str, dict[int, dict]] = {}
    for f in sorted(path.glob("*/seed*.out")):
        lines = f.read_text(encoding="utf-8").rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {f}: no result line", file=sys.stderr)
            continue
        out.setdefault(f.parent.name, {})[int(f.stem[4:])] = result
    return out


def values(runs: dict[int, dict], metric: str) -> dict[int, float]:
    return {s: r["metrics"][metric]["value"] for s, r in runs.items()
            if metric in r["metrics"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(path: Path) -> int:
    spec = load_spec()
    data = read_set(path)
    worst = 0
    print(f"{'workload':9} {'metric':16} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for w, runs in sorted(data.items()):
        failed = sum(r["failed"] for r in runs.values())
        for m in spec["metrics"].values():
            if "bound" not in m:
                continue
            xs = list(values(runs, m["name"]).values())
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 else "  above"
            if flag:
                worst = 1
            print(f"{w:9} {m['name']:16} {len(xs):3} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {share:8.4f} {m['bound'] / 3:8.4f}{flag}")
        print(f"{w:9} failed ops over all runs: {failed}")
    return worst


# ---------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------


def verdict(parent: dict[int, float], change: dict[int, float],
            metric: dict) -> tuple[float | None, str]:
    """(share of seed-matched pairs won by the change, or None without
    pairs; verdict)."""
    sign = 1 if metric["better"] == "higher" else -1
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else None
    p1, pmed, p3 = quartiles(list(parent.values()))
    cmed = statistics.median(change.values())
    gain = sign * (cmed - pmed)
    if won is not None and won >= 0.9 and gain > p3 - p1:
        return won, "improved"
    if "bound" not in metric:
        return won, "-"
    bound = metric["bound"] * abs(pmed)
    if p3 - p1 > bound:
        all_better = all(sign * (c - p) > 0 for c in change.values()
                         for p in parent.values())
        return won, "no worse" if all_better else "unresolved"
    return won, "worse" if -gain > bound else "no worse"


def diff(parent_path: Path, change_path: Path) -> int:
    spec = load_spec()
    parent, change = read_set(parent_path), read_set(change_path)
    print(f"{'workload':9} {'metric':40} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    worse = 0
    for w in sorted(set(parent) & set(change)):
        names = sorted(set().union(*(r["metrics"] for r in parent[w].values())))
        for name in names:
            metric = spec["metrics"].get(name, {"better": "lower"})
            pv, cv = values(parent[w], name), values(change[w], name)
            if not pv or not cv:
                continue
            won, v = verdict(pv, cv, metric)
            worse = worse or v == "worse"
            cells = []
            for xs in (pv, cv):
                q1, med, q3 = quartiles(list(xs.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            shown = "-" if won is None else f"{won:.2f}"
            print(f"{w:9} {name:40} {cells[0]:>36} {cells[1]:>36} "
                  f"{shown:>5}  {v}")
    return int(worse)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", required=True, help="e.g. 1..10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", type=Path, action="append", default=None)
    p = sub.add_parser("spread")
    p.add_argument("set", type=Path)
    p = sub.add_parser("diff")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        return collect(args.out.resolve(),
                       [c.resolve() for c in args.checkout or [ROOT]],
                       seeds(args.seeds), args.trace)
    if args.cmd == "spread":
        return spread(args.set)
    return diff(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
