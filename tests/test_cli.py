import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import treejacobi
from treejacobi import spectra
from treejacobi.cli import build_parser, main
from conftest import h23
from treejacobi.reports import REPORT_SCHEMA, to_jsonable
from treejacobi.solutions import SolutionField
from treejacobi.treecore import ClassTable, TreeTruncation, build_from_spec
from treejacobi.treepoly import family

STAR = """
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
"""


@pytest.fixture
def star_file(tmp_path):
    f = tmp_path / "star.json"
    f.write_text(STAR)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_spectrum_star(capsys, star_file):
    code, report = run(capsys, ["spectrum", "--tree", star_file,
                                "--at", "x", "--verify"])
    assert code == 0 and report["pass"]
    assert report["results"]["identity"] is True
    assert report["results"]["top_factor"] == ["-2/1", "0/1", "1/1"]
    assert report["results"]["char_poly"] == ["0/1", "-2/1", "0/1", "1/1"]
    assert report["results"]["shared_factors"][0]["factor"] == ["0/1", "1/1"]


def test_poly_leaf(capsys, tmp_path):
    f = tmp_path / "leaf.json"
    f.write_text('{"vertices": [{"id": "v", "level": 0, "beta": "0/1"}],'
                 ' "top": "v", "top_lambda": "1/1"}')
    code, report = run(capsys, ["poly", "--tree", str(f), "--at", "v"])
    assert code == 0
    assert report["results"]["self"] == ["1/1"]
    assert report["results"]["up"] == ["0/1", "1/1"]


def test_poly_full_table(capsys, star_file):
    code, report = run(capsys, ["poly", "--tree", star_file, "--full"])
    assert code == 0
    assert set(report["results"]["table"]) == {"a", "b", "x"}


def test_solve_and_wronskian(capsys, star_file):
    code, report = run(capsys, ["solve", "--tree", star_file,
                                "--z", "0/1+1/1i"])
    assert code == 0 and report["results"]["residuals_zero"]
    code, report = run(capsys, ["wronskian", "--tree", star_file])
    assert code == 0
    assert all(step["ok"] for step in report["results"]["steps"])


def test_solve_real_mode(capsys, star_file):
    code, report = run(capsys, ["solve", "--tree", star_file, "--z", "1/1"])
    assert code == 0
    assert report["results"]["mode"] == "real"
    assert not report["results"]["obstructed"]


def test_growth(capsys):
    code, report = run(capsys, ["growth", "--generator", "homogeneous:2",
                                "--depths", "2..4"])
    assert code == 0
    assert report["results"]["strictly_increasing"] is True
    assert len(report["results"]["rows"]) == 3


def test_growth_small_norm_generator(capsys):
    code, report = run(capsys, ["growth", "--generator", "small-norm",
                                "--depths", "3..6"])
    assert code == 0
    assert report["results"]["bounded_by_one"] is True
    assert report["results"]["strictly_increasing"] is True


def test_classical_geometric(capsys):
    code, report = run(capsys, ["classical", "--rule", "geometric",
                                "--q", "2", "--a", "1", "--depth", "20",
                                "--report", "pq0"])
    assert code == 0
    assert report["results"]["kernel_residuals_zero"] is True
    assert len(report["results"]["p0"]) == 21


def test_construct_and_reload(capsys, tmp_path):
    out = tmp_path / "built.json"
    code, report = run(capsys, ["construct", "--example", "real-obstruction",
                                "--depth", "3", "--out", str(out)])
    assert code == 0
    assert report["results"]["obstructed_at_zero"] is True
    tree = build_from_spec(out.read_text())
    assert tree.size == report["results"]["vertices"]
    # the written artifact keeps the obstruction under verify-all semantics
    code2, report2 = run(capsys, ["solve", "--tree", str(out), "--z", "0/1"])
    assert code2 == 1
    assert report2["results"]["obstructed"] is True


def test_construct_small_norm(capsys, tmp_path):
    code, report = run(capsys, ["construct", "--example", "small-norm",
                                "--depth", "5"])
    assert code == 0
    assert report["results"]["norm_bounds_hold"] is True
    assert report["results"]["residuals_zero"] is True


def test_construct_bounded_path(capsys):
    code, report = run(capsys, ["construct", "--example", "bounded-path",
                                "--depth", "3", "--d", "4"])
    assert code == 0
    assert report["results"]["base_radius_within_2"] is True
    assert report["results"]["classical_window_below_1e-6"] is True


def test_construct_pendant(capsys):
    code, report = run(capsys, ["construct", "--example", "pendant-path",
                                "--depth", "6", "--pendant-rule", "ramp",
                                "--a", "1"])
    assert code == 0
    assert report["results"]["classical_match"] is True


def test_bounded_path_artifact_full_verification(capsys, tmp_path):
    out = tmp_path / "bounded.json"
    code, _ = run(capsys, ["construct", "--example", "bounded-path",
                           "--depth", "3", "--d", "4", "--out", str(out)])
    assert code == 0
    code, report = run(capsys, ["verify-all", "--tree", str(out)])
    assert code == 0 and report["pass"]
    code, report = run(capsys, ["spectrum", "--tree", str(out), "--verify"])
    assert code == 0 and report["results"]["identity"] is True


def test_solve_real_rejects_explicit_path(capsys, star_file):
    assert main(["solve", "--tree", star_file, "--z", "1/1",
                 "--path", "a,x"]) == 2
    capsys.readouterr()


def test_verify_all_on_cut_tree(capsys, tmp_path):
    out = tmp_path / "pendant.json"
    code, _ = run(capsys, ["construct", "--example", "pendant-path",
                           "--depth", "4", "--a", "1", "--out", str(out)])
    assert code == 0
    code, report = run(capsys, ["verify-all", "--tree", str(out)])
    assert code == 0 and report["pass"]
    assert "skipped" in report["results"]["uniqueness_dimension"]


def test_verify_all_passes_and_is_deterministic(capsys, star_file):
    code, first = run(capsys, ["verify-all", "--tree", star_file, "--seed", "7"])
    assert code == 0 and first["pass"]
    code, second = run(capsys, ["verify-all", "--tree", star_file, "--seed", "7"])
    assert first == second


def test_usage_error_exit_code(capsys, tmp_path):
    assert main(["spectrum"]) == 2            # missing --tree
    assert main(["no-such-command"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["spectrum", "--tree", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["spectrum", "--tree", str(missing)]) == 2
    capsys.readouterr()


BAD_BETA = STAR.replace('"beta": "0/1"}],', '"beta": "1/0"}],')
NUMERIC_TOP_LAMBDA = STAR.replace('"top_lambda": "1/1"', '"top_lambda": 1')
NUMERIC_BETA = STAR.replace('"beta": "0/1"}],', '"beta": 1}],')
NUMERIC_LAMBDA = STAR.replace('"lambda": "1/1", "beta": "0/1"},\n  {"id": "b"',
                              '"lambda": 2, "beta": "0/1"},\n  {"id": "b"')
STRING_LEVEL = STAR.replace('"level": 0, "lambda": "1/1", "beta": "0/1"},\n  {"id": "b"',
                            '"level": "0", "lambda": "1/1", "beta": "0/1"},\n  {"id": "b"')
BOOL_LEVEL = STAR.replace('"level": 1, "beta"', '"level": true, "beta"')
# an id is a JSON string and a cut flag a JSON boolean, nothing else
NUMERIC_ID = STAR.replace('{"id": "a"', '{"id": 5')
STRING_CUT = STAR.replace('"id": "a", "parent": "x", "level": 0,',
                          '"id": "a", "parent": "x", "level": 0, "cut": "false",')
NUMERIC_CUT = STAR.replace('"id": "a", "parent": "x", "level": 0,',
                           '"id": "a", "parent": "x", "level": 0, "cut": 1,')
# the top row takes its weight from top_lambda, whether its "parent" key
# is absent or null; a "lambda" on it is refused
NULL_PARENT = STAR.replace('{"id": "x", "level": 1,',
                           '{"id": "x", "parent": null, "level": 1,')
TOP_ROW_LAMBDA = STAR.replace('{"id": "x", "level": 1,',
                                 '{"id": "x", "level": 1, "lambda": "5/1",')


@pytest.mark.parametrize("doc, args", [
    (BAD_BETA, ["verify-all"]),
    (NUMERIC_TOP_LAMBDA, ["verify-all"]),
    (STAR, ["solve", "--z=1/0+1/1i"]),
    (STAR, ["poly", "--at", "nope"]),
    (STAR, ["poly", "--target", "nope"]),
    (STAR, ["spectrum", "--width", "0/1"]),
    (STAR, ["spectrum", "--width=-1/2"]),
    (NUMERIC_BETA, ["verify-all"]),
    (NUMERIC_LAMBDA, ["verify-all"]),
    (STRING_LEVEL, ["verify-all"]),
    (BOOL_LEVEL, ["verify-all"]),
    (NUMERIC_ID, ["verify-all"]),
    (STRING_CUT, ["verify-all"]),
    (NUMERIC_CUT, ["verify-all"]),
    (TOP_ROW_LAMBDA, ["verify-all"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "5..3"]),
    (None, ["classical", "--rule", "geometric", "--depth", "-1"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "3..4",
            "--z=1/2"]),
    (None, ["growth", "--generator", "homogeneous:0", "--depths", "3..4"]),
    (None, ["growth", "--generator", "homogeneous:x", "--depths", "3..4"]),
    (STAR, ["spectrum", "--width="]),
    (STAR, ["spectrum", "--at="]),
    (STAR, ["poly", "--at="]),
    (STAR, ["poly", "--target="]),
    (STAR, ["solve", "--path="]),
    (STAR, ["wronskian", "--path="]),
    (None, ["construct", "--example", "real-obstruction", "--depth", "2",
            "--out="]),
    (None, ["construct", "--example", "bounded-path", "--depth", "3",
            "--d", "0"]),
    (None, ["construct", "--example", "bounded-path", "--depth", "3",
            "--d=-4"]),
    # d and the depths are ASCII decimal digits, nothing else `int` takes
    (None, ["growth", "--generator", "homogeneous:2_0", "--depths", "1..2"]),
    (None, ["growth", "--generator", "homogeneous:+2", "--depths", "1..2"]),
    (None, ["growth", "--generator", "homogeneous: 2", "--depths", "1..2"]),
    (None, ["growth", "--generator", "homogeneous:\uff12", "--depths", "1..2"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "1_0"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "+1..2"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "1.. 2"]),
    (None, ["growth", "--generator", "homogeneous:2", "--depths", "\uff12"]),
    # input parsing keeps CPython's cap on the digits of an int literal
    (None, ["classical", "--rule", "geometric-weights", "--q",
            "1" * 5000 + "/1", "--depth", "1"]),
], ids=["beta-1/0", "numeric-top_lambda", "z-1/0", "unknown-at",
        "unknown-target", "width-0", "width-negative", "numeric-beta",
        "numeric-lambda", "string-level", "bool-level", "numeric-id",
        "string-cut", "numeric-cut", "top-row-lambda", "empty-depths",
        "negative-classical-depth", "growth-real-z", "growth-branching-0",
        "growth-branching-x", "empty-width", "empty-spectrum-at",
        "empty-poly-at", "empty-target", "empty-solve-path",
        "empty-wronskian-path", "empty-out", "bounded-path-d-0",
        "bounded-path-d-negative", "branching-underscore", "branching-plus",
        "branching-space", "branching-fullwidth", "depth-underscore",
        "depth-plus", "depth-space", "depth-fullwidth",
        "q-past-digit-limit"])
def test_bad_input_exits_2_with_one_line(tmp_path, doc, args):
    tree = tmp_path / "tree.json"
    tree_args = []
    if doc is not None:
        tree.write_text(doc)
        tree_args = ["--tree", str(tree)]
    # a subprocess, so a traceback or a hang shows instead of raising here
    src = str(Path(treejacobi.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "treejacobi", args[0], *tree_args, *args[1:]],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_null_parent_is_no_parent(capsys, tmp_path):
    # the top row with "parent": null and no "lambda" is the same tree and
    # gives the same report, byte for byte, as the row without the key
    assert (build_from_spec(NULL_PARENT).to_spec()
            == build_from_spec(STAR).to_spec())
    f = tmp_path / "star.json"
    outs = []
    for doc in (STAR, NULL_PARENT):
        f.write_text(doc)
        assert main(["spectrum", "--tree", str(f), "--verify"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_top_row_with_lambda_is_refused(capsys, tmp_path):
    # a weight on the top row would silently replace top_lambda
    f = tmp_path / "star.json"
    for doc in (TOP_ROW_LAMBDA,
                NULL_PARENT.replace('"parent": null,',
                                    '"parent": null, "lambda": "5/1",')):
        f.write_text(doc)
        assert main(["spectrum", "--tree", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad vertex row 'x': ")
        assert err.count("\n") == 1


def test_report_writes_integers_past_the_str_digit_limit(capsys):
    # lambda_1500 = 1000^1501 has 4,504 digits, past the 4,300 that
    # CPython's str of an int allows; the report writes it exactly
    code, report = run(capsys, ["classical", "--rule", "geometric-weights",
                                "--q", "1000/1", "--depth", "1500"])
    assert code == 0
    assert report["results"]["lambdas"][1500] == "1" + "0" * 4503 + "/1"


@pytest.mark.parametrize("args, message", [
    (["--generator", "homogeneous:2", "--z=1/2"],
     "solve_pair needs a nonreal z; use propagate_real"),
    (["--generator", "homogeneous:0"], "branching d must be >= 1"),
    (["--generator", "homogeneous:x"], "unknown generator 'homogeneous:x'"),
    (["--generator", "homogeneous"], "unknown generator 'homogeneous'"),
    (["--generator", "homogeneous:2", "--depths=-1..3"],
     "depth must be >= 0"),
    (["--generator", "small-norm", "--depths", "0..3"],
     "profile depths must be positive"),
    # small-norm chooses its own path weights, so even "unit" is refused
    (["--generator", "small-norm", "--path-lambda", "linear"],
     "the small-norm generator chooses its own path weights; --path-lambda "
     "does not apply"),
    (["--generator", "small-norm", "--path-lambda", "unit"],
     "the small-norm generator chooses its own path weights; --path-lambda "
     "does not apply"),
    # with two errors, the one the shallowest depth meets first is reported
    (["--generator", "homogeneous:0", "--depths=-1..3"],
     "branching d must be >= 1"),
    (["--generator", "homogeneous:0", "--z=1/2"], "branching d must be >= 1"),
    (["--generator", "homogeneous:2", "--depths=-1..3", "--z=1/2"],
     "depth must be >= 0"),
], ids=["real-z", "branching-0", "branching-x", "no-branching",
        "negative-depth", "small-norm-depth-0", "small-norm-path-lambda",
        "small-norm-unit-path-lambda", "branching-0-negative-depth",
        "branching-0-real-z", "negative-depth-real-z"])
def test_growth_input_messages(capsys, args, message):
    assert main(["growth", "--depths", "3..4", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_growth_builds_no_tree(capsys, monkeypatch):
    # a homogeneous op runs on the generator's classes: no truncation is
    # constructed, not even at the deepest depth
    built = []
    init = TreeTruncation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TreeTruncation, "__init__", counted)
    code, report = run(capsys, ["growth", "--generator", "homogeneous:2",
                                "--path-lambda", "linear", "--depths", "3..6"])
    assert code == 0
    assert built == []
    assert [row["size"] for row in report["results"]["rows"]] == [
        15, 31, 63, 127]


def test_growth_small_norm_builds_no_tree(capsys, monkeypatch):
    # the pool's small-norm op reads the compact construction: no vertex
    # tree, and no vertex residual
    built, residuals = [], []
    init = TreeTruncation.__init__
    residual = SolutionField.residual

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_residual(self, v):
        residuals.append(v)
        return residual(self, v)

    monkeypatch.setattr(TreeTruncation, "__init__", counted_init)
    monkeypatch.setattr(SolutionField, "residual", counted_residual)
    code, report = run(capsys, ["growth", "--generator", "small-norm",
                                "--depths", "3..30"])
    assert code == 0 and report["results"]["bounded_by_one"]
    assert built == [] and residuals == []
    assert [row["size"] for row in report["results"]["rows"]] == [
        1 + n * (n + 3) // 2 for n in range(3, 31)]


def test_construct_small_norm_verifies_its_field_once(capsys, monkeypatch):
    # the written tree is built once and its field checked once, vertex
    # by vertex, for the report
    sizes, verified = [], []
    init = TreeTruncation.__init__
    verify = SolutionField.verify

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(self.size)

    def counted_verify(self):
        verified.append(len(self.satisfied_at))
        return verify(self)

    monkeypatch.setattr(TreeTruncation, "__init__", counted_init)
    monkeypatch.setattr(SolutionField, "verify", counted_verify)
    code, report = run(capsys, ["construct", "--example", "small-norm",
                                "--depth", "6"])
    assert code == 0 and report["results"]["residuals_zero"]
    assert sizes == [28] and verified == [27]


def test_bounded_path_builds_one_tree(capsys, monkeypatch):
    # the radius check counts on classes: the construction's own tree is
    # the only truncation
    sizes = []
    init = TreeTruncation.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(self.size)

    monkeypatch.setattr(TreeTruncation, "__init__", counted)
    code, report = run(capsys, ["construct", "--example", "bounded-path",
                                "--depth", "5"])
    assert code == 0 and report["results"]["base_radius_within_2"]
    assert sizes == [1365]


def test_growth_on_a_deep_path(capsys):
    # homogeneous:1 is a path: 1,201 vertices, one level each
    code, report = run(capsys, ["growth", "--generator", "homogeneous:1",
                                "--depths", "2..1200"])
    assert code == 0
    assert [row["size"] for row in report["results"]["rows"]] == list(
        range(3, 1202))


def test_verify_all_builds_one_characteristic_polynomial(capsys, monkeypatch,
                                                         star_file):
    built = []
    char_poly = spectra.char_poly

    def counted(*args, **kwargs):
        built.append(args)
        return char_poly(*args, **kwargs)

    monkeypatch.setattr(spectra, "char_poly", counted)
    for seed in ("0", "7"):
        code, report = run(capsys, ["verify-all", "--tree", star_file,
                                    "--seed", seed])
        assert code == 0
        assert report["results"]["spectral_identity"]["ok"]
        assert report["results"]["negative_count_consistency"]["ok"]
    assert len(built) == 2


def test_each_op_hash_conses_its_tree_once(capsys, monkeypatch, tmp_path):
    # every per-class quantity of an op reads the one table its truncation
    # keeps; a `ClassTable` is made only by a hash-consing pass here
    passes = []
    init = ClassTable.__init__

    def counted(self):
        passes.append(self)
        init(self)

    monkeypatch.setattr(ClassTable, "__init__", counted)
    f = tmp_path / "h23.json"
    f.write_text(h23().to_json())
    for argv in (["verify-all"], ["spectrum", "--verify"]):
        passes.clear()
        code, report = run(capsys, [argv[0], "--tree", str(f), *argv[1:]])
        assert code == 0 and report["pass"], argv
        assert len(passes) == 1, argv


def test_poly_target_is_the_family_entry(capsys, tmp_path):
    # the anchor's parent gives its up-polynomial, a deeper vertex the
    # transfer P(anchor, t)
    tree = h23()
    f = tmp_path / "h23.json"
    f.write_text(tree.to_json())
    at = tree.children[tree.top][1]
    fam = family(tree, at)
    below = tree.children[tree.children[at][0]][1]
    assert tree.level[at] - tree.level[below] == 2
    for target in (tree.parent[at], below, at):
        code, report = run(capsys, ["poly", "--tree", str(f), "--at",
                                    tree.ids[at], "--target", tree.ids[target]])
        assert code == 0
        assert report["results"]["entry"] == {
            "target": tree.ids[target],
            "coefficients": to_jsonable(fam.entry(at, target))}
    assert fam.entry(at, tree.parent[at]) == fam.up_poly[at]
    assert fam.entry(at, below).degree == fam.self_poly[at].degree - 2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reports_are_byte_identical(capsys, star_file):
    main(["spectrum", "--tree", star_file, "--verify"])
    first = capsys.readouterr().out
    main(["spectrum", "--tree", star_file, "--verify"])
    second = capsys.readouterr().out
    assert first == second
