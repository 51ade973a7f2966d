"""Print a digest line for every op of the benchmark's four pools.

    python3 tools/pool_digests.py --seeds 1,2 > digests.txt

Run it from the root of a source checkout; the package comes from that
checkout's `src/` and the pools from its `perfbench/workloads.py`, which
is imported and never changed.  Each line holds the workload, the seed,
the op's index in its pool, its exit code (or the exception it raised),
the sha256 of its stdout, the sha256 of its `--out` file ("-" for an op
without one) and its argv.  Inputs and `--out` files go to a temporary
directory and are named relative to it, as the reports echo argv, so
the output of two checkouts can be compared with `diff`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from treejacobi.cli import main  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_digest(argv: tuple[str, ...]) -> tuple[str, str, str]:
    """(exit code or exception, stdout sha256, --out file sha256 or "-")."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # reported, so a raising op shows in a diff
            code = type(exc).__name__
    out_sha = "-"
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        out_sha = _sha(path.read_bytes()) if path.is_file() else "missing"
    return code, _sha(out.getvalue().encode("utf-8")), out_sha


def pool_lines(workload: str, seed: int) -> list[str]:
    """The digest lines of one pool, built and run in the current
    directory under the relative path "work"."""
    pool = workloads.BUILDERS[workload](random.Random(seed),
                                        workloads.Writer(Path("work")))
    return [" ".join((workload, str(seed), str(i), *op_digest(op.argv),
                      *op.argv))
            for i, op in enumerate(pool.ops)]


def main_cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated pool seeds (default 1,2)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    here = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="pool-digests-") as tmp:
        os.chdir(tmp)
        try:
            for seed in seeds:
                for name in workloads.BUILDERS:
                    for line in pool_lines(name, seed):
                        print(line, flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
