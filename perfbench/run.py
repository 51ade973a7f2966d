"""Run one benchmark workload against the package in `src/` and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  Every op is one in-process
`treejacobi.cli.main(argv)` call with stdout and stderr captured, made
from this single process with TREEJACOBI_THREADS=1 and no threads of its
own.  The run has three phases:

1. Set-up: import the package, generate the seeded inputs, run the
   warm-up ops.  `setup_s` is the median of SETUP_REPEATS set-ups, each
   in a fresh child process (`--setup-only`) and timed there from the
   start of this script, so every import the set-up needs is counted.
2. The timed phase: ops from the seeded pool, in order and cycling,
   until `--seconds` have passed (a closed loop with one client).
   With `--trace 1` it runs for half of `--seconds`, and then the same
   op stream runs again for the other half with every public function
   of the layer modules wrapped by `tracer.Tracer`.
3. Checking, outside the timed phase: exit codes against the answers
   known from theory, every report against the independent checks in
   `checks.py`, and byte-identical reports for repeated ops.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Inputs,
report digests and (traced) spans go under perfbench/work/<workload>/.
With `--workload all` every workload runs in its own child process.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # a --setup-only child times its set-up from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

import gen  # noqa: E402  (the benchmark's own modules sit beside this file)
import tracer  # noqa: E402
import workloads  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_package():
    """Import treejacobi from this checkout's src/ and return its `cli`
    module."""
    src = ROOT / "src"
    if not (src / "treejacobi" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {src / 'treejacobi'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("treejacobi.cli")
    if Path(cli.__file__).resolve().parent != (src / "treejacobi").resolve():
        raise SystemExit(f"treejacobi was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


# ---------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------


class Record:
    __slots__ = ("index", "latency", "code", "sha", "stdout", "error")

    def __init__(self, index, latency, code, sha, stdout, error):
        self.index, self.latency, self.code = index, latency, code
        self.sha, self.stdout, self.error = sha, stdout, error


def run_op(main, op) -> tuple[float, int | None, str, str | None]:
    """(latency in s, exit code or None, stdout, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # an op that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
    return latency, code, out.getvalue(), error


def timed_phase(main, ops, seconds: float, on_op=None):
    """Run ops in order, cycling, until `seconds` have passed.  Returns
    the records and the elapsed time.  Only the first stdout of each
    distinct (op, digest) pair is kept, for checking afterwards."""
    records: list[Record] = []
    seen: set[tuple[int, str]] = set()
    start = perf_counter()
    i = 0
    while True:
        k = i % len(ops)
        if on_op is not None:
            on_op(i)
        latency, code, stdout, error = run_op(main, ops[k])
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        keep = (k, sha) not in seen
        seen.add((k, sha))
        records.append(Record(k, latency, code, sha,
                              stdout if keep else None, error))
        i += 1
        if perf_counter() - start >= seconds:
            break
    return records, perf_counter() - start


def check_records(ops, records: list[Record]) -> dict[int, list[str]]:
    """Problems per record position; a record with problems is a failed
    op.  Reports are checked once per distinct (op, digest) pair."""
    verdict: dict[tuple[int, str], list[str]] = {}
    first_sha: dict[int, str] = {}
    expected: dict[int, int] = {}
    failed: dict[int, list[str]] = {}
    for pos, rec in enumerate(records):
        op = ops[rec.index]
        problems = []
        if rec.error is not None:
            problems.append(f"raised {rec.error}")
        else:
            if rec.index not in expected:
                expected[rec.index] = op.expected_exit()
            if rec.code != expected[rec.index]:
                problems.append(f"exit code {rec.code}, expected "
                                f"{expected[rec.index]}")
            key = (rec.index, rec.sha)
            if key not in verdict:
                verdict[key] = check_report(op, rec.stdout)
            problems += verdict[key]
        if first_sha.setdefault(rec.index, rec.sha) != rec.sha:
            problems.append("report differs from the same op's earlier report")
        if problems:
            failed[pos] = problems
    return failed


def check_report(op, stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON report: {exc}"]
    if report.get("command") != list(op.argv):
        return ["report does not echo its argv"]
    try:
        return op.check(report)
    except (KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        return [f"report lacks an expected field or value: "
                f"{type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 11 if n >= 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def end_to_end(records, elapsed, failed, setup_s, rss_mb) -> dict:
    lat = [r.latency for r in records]
    return {"ops_per_s": len(records) / elapsed,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": latency_tail(lat)[0],
            "ok_ratio": 1 - len(failed) / len(records),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def descriptors(pool, name: str) -> dict:
    """Input sizes and how much work they share."""
    trees = pool.trees + (workloads.growth_trees(pool)
                          if name == "growth" else [])
    if not trees:
        return {}
    sizes = [t.size for t in trees]
    profiles = [gen.class_profile(t) for t in trees]
    return {"trees": len(trees),
            "vertices_min": min(sizes),
            "vertices_median": statistics.median(sizes),
            "vertices_max": max(sizes),
            "classes_per_vertex": round(sum(c for c, _ in profiles)
                                        / sum(sizes), 4),
            "max_family_degree": max(d for _, d in profiles)}


# ---------------------------------------------------------------------
# main
# ---------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path):
    """One set-up: import, input generation and warm-up.  Returns the cli
    module, the pool and the warm-up problems."""
    cli = import_package()
    pool = workloads.BUILDERS[name](random.Random(seed),
                                    workloads.Writer(workdir))
    problems = []
    for op in pool.warmup:
        _, code, stdout, error = run_op(cli.main, op)
        if error is not None or code != op.expected_exit():
            problems.append(f"warm-up {' '.join(op.argv)}: exit {code} "
                            f"{error or ''}".rstrip())
    return cli, pool, problems


def setup_times(name: str, seed: int) -> list[float]:
    """Seconds of SETUP_REPEATS set-ups, each in a fresh child process,
    one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", "1", "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=False, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up child exited with {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def time_setup(name: str, seed: int) -> int:
    """One set-up in this fresh process; prints its seconds, counted from
    the start of this script."""
    os.environ["TREEJACOBI_THREADS"] = "1"
    os.chdir(ROOT)
    _, _, problems = setup(name, seed, Path("perfbench") / "work" / name)
    elapsed = perf_counter() - STARTED
    for p in problems:
        print(f"set-up failed: {p}", file=sys.stderr)
    if problems:
        return 1
    print(repr(elapsed))
    return 0


def write_reports(path: Path, ops, records) -> str:
    """One line per distinct op: index, exit code, stdout sha256, argv.
    Returns the sha256 of the file."""
    rows = {}
    for r in records:
        rows.setdefault(r.index, f"{r.index}\t{r.code}\t{r.sha}\t"
                                 f"{' '.join(ops[r.index].argv)}\n")
    text = "".join(rows[k] for k in sorted(rows))
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    bench = spec()
    os.environ["TREEJACOBI_THREADS"] = "1"
    os.chdir(ROOT)  # argv paths are relative, so reports compare across checkouts
    workdir = Path("perfbench") / "work" / name
    cli, pool, warm_problems = setup(name, seed, workdir)
    if warm_problems:
        for p in warm_problems:
            print(f"set-up failed: {p}", file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_times(name, seed))

    # a traced run splits its time between an untraced and a traced pass
    phase_s = seconds / 2 if trace else seconds
    records, elapsed = timed_phase(cli.main, pool.ops, phase_s)
    rss = peak_rss_mb()
    all_records = list(records)
    if trace:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, traced_elapsed = timed_phase(
                cli.main, pool.ops, phase_s,
                on_op=lambda i: setattr(tr, "op_id", i))
        finally:
            tr.uninstall()
        all_records += traced

    failed = check_records(pool.ops, all_records)
    e2e = end_to_end(records, elapsed, {p for p in failed if p < len(records)},
                     setup_s, rss)
    digest = write_reports(workdir / "reports.tsv", pool.ops, records)

    print(f"workload {name}  seed {seed}  ops {len(records)} "
          f"(distinct {len({r.index for r in records})} of a pool of "
          f"{len(pool.ops)})  timed {elapsed:.3f} s  closed loop, 1 client")
    print("inputs " + json.dumps(descriptors(pool, name), sort_keys=True))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for key in ("ops_per_s", "latency_p50_s", "latency_tail_s", "ok_ratio",
                "setup_s", "peak_rss_mb"):
        print(f"  {key:16} {e2e[key]:.6g} {units[key]}")
    print(f"  {'fail_ratio':16} {len(failed) / len(all_records):.6g} ratio "
          f"({len(failed)} of {len(all_records)} ops)")
    _, pct, beyond = latency_tail([r.latency for r in records])
    print(f"  latency_tail_s is p{pct:.2f} of {len(records)} samples, "
          f"{beyond} beyond it")
    print(f"reports {workdir / 'reports.tsv'}  sha256 {digest}")
    for pos in sorted(failed):
        rec = all_records[pos]
        line = (f"FAILED op {pos} ({' '.join(pool.ops[rec.index].argv)}): "
                f"{'; '.join(failed[pos])}")
        print(line if len(line) <= 400 else line[:397] + "...")

    if trace:
        tr.write(workdir / "spans.jsonl")
        layer = tr.metrics()
        layer["trace.ops_per_s_untraced"] = len(records) / elapsed
        layer["trace.ops_per_s_traced"] = len(traced) / traced_elapsed
        # both passes start at the head of the same op stream
        k = min(len(records), len(traced))
        layer["trace.slowdown"] = (sum(r.latency for r in traced[:k])
                                   / sum(r.latency for r in records[:k]))
        print(f"trace {workdir / 'spans.jsonl'}  {len(tr)} spans  "
              f"slowdown x{layer['trace.slowdown']:.3f}  ({tracer.NOTE})")
        zero = [m["name"] for m in bench["per_layer"]
                if not layer.get(m["name"])]
        if zero:
            print("per-layer metrics at 0 (layer or function not reached "
                  "by this workload, or no errors): " + ", ".join(zero))
        metrics = {m["name"]: {"value": layer.get(m["name"], 0),
                               "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": not failed, "attempted": len(all_records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             w["name"], "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {w['name']} exited with {proc.returncode}")
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up of the workload and print it")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_only:
        if args.workload == "all":
            ap.error("--setup-only takes one workload")
        return time_setup(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
