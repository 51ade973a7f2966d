"""Fuzz the input contract: every tree document, however malformed,
makes `poly`, `spectrum`, `solve`, `wronskian` and `verify-all` exit 0, 1
or 2, never raise, and an exit of 2 comes with exactly one line on
stderr."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treejacobi.cli import main

COMMANDS = (["poly"], ["spectrum", "--width", "1/16"], ["solve"],
            ["wronskian"], ["verify-all"])


def _rationals(lo, hi):
    return st.builds(lambda n, d: f"{n}/{d}", st.integers(lo, hi),
                     st.integers(1, 3))


WEIGHTS = _rationals(1, 6)
DIAGONALS = _rationals(-3, 3)
BAD_TEXT = st.sampled_from(["", "a\nb", "1/0", "x", " 5/4 ", "1e3", "1/1/1",
                            "-0/3", "2", "t", "v1"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=4), BAD_TEXT)
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["id", "parent", "level", "lambda", "beta",
                                     "cut", "vertices", "top", "top_lambda"]),
                    inner, max_size=4)), max_leaves=8)


@st.composite
def near_trees(draw):
    """A small valid tree document with up to three of its fields
    replaced by arbitrary JSON (lists and objects included) or deleted."""
    depth = draw(st.integers(0, 2))
    rows = [{"id": "t", "level": depth, "beta": draw(DIAGONALS)}]
    frontier = [rows[0]]
    for level in range(depth - 1, -1, -1):
        nxt = []
        for parent in frontier:
            for _ in range(draw(st.integers(1, 2))):
                row = {"id": f"v{len(rows)}", "parent": parent["id"],
                       "level": level, "lambda": draw(WEIGHTS),
                       "beta": draw(DIAGONALS)}
                rows.append(row)
                nxt.append(row)
        frontier = nxt
    doc = {"vertices": rows, "top": "t", "top_lambda": draw(WEIGHTS)}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([doc] + rows))
        key = draw(st.sampled_from(sorted(target) + ["cut", "extra"]))
        if draw(st.integers(0, 3)):
            target[key] = draw(JSON)
        else:
            target.pop(key, None)
    return json.dumps(doc)


DOCUMENTS = st.one_of(near_trees(), JSON.map(json.dumps),
                      st.text(max_size=20))


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


STAR_ROWS = ('{"id": "a", "parent": %s, "level": 0, "lambda": "1/1", '
             '"beta": "0/1"}, {"id": "x", "level": 1, "beta": "0/1"}')


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example('{"vertices": [%s], "top": "x", "top_lambda": "1/1"}'
         % (STAR_ROWS % "[]"))                       # unhashable parent
@example('{"vertices": [%s], "top": {}, "top_lambda": "1/1"}'
         % (STAR_ROWS % '"x"'))                      # unhashable top
@example('{"vertices": [%s], "top": "x", "top_lambda": "1/1"}'
         % (STAR_ROWS % '"x"'))                      # valid
def test_every_document_exits_0_1_or_2(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(doc)
        for cmd in COMMANDS:
            code, out, err = run_in_process([cmd[0], "--tree", path, *cmd[1:]])
            assert code in (0, 1, 2), (cmd, doc, code)
            if code == 2:
                assert out == "" and err.startswith("error: "), (cmd, doc, err)
                assert err.count("\n") == 1, (cmd, doc, err)
            else:
                json.loads(out)
    finally:
        os.unlink(path)
