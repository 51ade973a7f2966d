"""Time the named workloads of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Run it from the root of a source checkout.  Each row is one in-process
CLI call on the trees `gen` draws exactly as the test helpers do (h23:
`random.Random(5)`, h24: `random.Random(41)`), timed once, with its exit
code.  The table's p120 isolation row is left out: it ran for more than
nine minutes before it was stopped.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import gen
import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    cli = run.import_package()
    os.chdir(run.ROOT)
    workdir = Path("perfbench") / "work" / "baseline"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, tree in (("h23", gen.h23()), ("h24", gen.h24())):
        path = workdir / f"{name}.json"
        path.write_text(tree.to_json(), encoding="utf-8")
        paths[name] = str(path)
    rows = [("spectrum --verify h23", ["spectrum", "--tree", paths["h23"],
                                       "--verify"]),
            ("spectrum --verify h24", ["spectrum", "--tree", paths["h24"],
                                       "--verify"]),
            ("verify-all h24", ["verify-all", "--tree", paths["h24"]]),
            ("growth15", ["growth", "--generator", "homogeneous:2",
                          "--path-lambda", "linear", "--depths", "3..15"])]
    status = 0
    print("| workload | s | exit |\n| --- | --- | --- |")
    for label, argv in rows:
        latency, code, _, error = run.run_op(cli.main, run.workloads.Op(
            tuple(argv), 0, None, label))
        print(f"| `{label}` | {latency:.2f} | {code if error is None else error} |",
              flush=True)
        status = status or int(code != 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
