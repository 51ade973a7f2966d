"""A smoke test of `tools/pool_digests.py`, the tool that compares every
benchmark pool op between two checkouts: its digests must be those of a
direct `cli.main` run.  The tool imports the benchmark's pool builders
from `perfbench/`, which must stay as it is, so no bytecode is written
there and the import paths and modules it adds are taken back."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from treejacobi.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _listing() -> dict:
    return {p.name: p.stat().st_mtime_ns for p in PERFBENCH.iterdir()}


@pytest.fixture
def tool(monkeypatch):
    before = _listing()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "pool_digests", ROOT / "tools" / "pool_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - loaded:
        origin = getattr(sys.modules[name], "__file__", None) or ""
        if Path(origin).parent == PERFBENCH:
            del sys.modules[name]
    assert _listing() == before


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", [
    ("growth", "--generator", "homogeneous:2", "--path-lambda", "linear",
     "--depths", "3..6"),
    ("construct", "--example", "bounded-path", "--depth", "3", "--out",
     "bounded3.json"),
    ("growth", "--generator", "small-norm", "--depths", "3..30"),
    ("construct", "--example", "small-norm", "--depth", "4", "--out",
     "small4.json"),
], ids=["growth", "construct-out", "growth-small-norm",
        "construct-small-norm-out"])
def test_op_digest_matches_a_direct_run(tool, capsys, tmp_path, monkeypatch,
                                        argv):
    monkeypatch.chdir(tmp_path)
    code, out_sha, file_sha = tool.op_digest(argv)
    assert code == "0"
    if "--out" in argv:
        written = tmp_path / argv[argv.index("--out") + 1]
        assert file_sha == _sha(written.read_bytes())
        written.unlink()
    else:
        assert file_sha == "-"
    assert main(list(argv)) == 0
    assert out_sha == _sha(capsys.readouterr().out.encode("utf-8"))
