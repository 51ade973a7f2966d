"""Pinned reports: the stdout sha256 and exit code of a fixed set of
CLI ops, and the sha256 of the tree file an op writes with `--out`.  A
change that claims to leave every report and every written tree
byte-identical must leave these digests as they are.  The ops run in a temporary
working directory with relative file names, since reports echo argv.
To re-pin after a change that alters a report on purpose, print
`_digest(...)` for the changed op and say why in CHANGES.md."""

import hashlib

import pytest

from conftest import h23, h24, seeded_path
from treejacobi.cli import main
from treejacobi.constructions import build_real_obstruction
from treejacobi.treecore import build_from_spec, homogeneous_tree

STAR = """
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
"""

TREES = {
    "h23.json": lambda: h23().to_json(),
    "h24.json": lambda: h24().to_json(),
    "star.json": lambda: build_from_spec(STAR).to_json(),
    "p14.json": lambda: seeded_path(14).to_json(),
    "p30.json": lambda: seeded_path(30).to_json(),
    "unit23.json": lambda: homogeneous_tree(2, 3).to_json(),
    "unit33.json": lambda: homogeneous_tree(3, 3).to_json(),
    "unit24.json": lambda: homogeneous_tree(2, 4).to_json(),
    "obstruction3.json": lambda: build_real_obstruction(3).tree.to_json(),
}

# (argv, exit code, sha256 of stdout)
PINNED = [
    (("spectrum", "--tree", "h23.json", "--verify"), 0,
     "528acf25ac4d22e320a4069927e8e4086cd73c07494f4581255f0f9aa6e41d24"),
    (("spectrum", "--tree", "h24.json", "--verify"), 0,
     "116b1847e25fa47b87425ae8316c1eba7208deb7d00c072cedda1ed34c10a6a2"),
    (("spectrum", "--tree", "star.json", "--verify"), 0,
     "9f7c2d4da976c921ba74d247a3fe1519c75e88040d82db5235a98679fd5e1a66"),
    (("spectrum", "--tree", "p14.json", "--verify"), 0,
     "9b1c5722324d92b2af6c28283b5ff571e97e06a6cbc6e5e8f4a851d62af12233"),
    (("verify-all", "--tree", "h23.json"), 0,
     "cc719ec39db9df4a7c1f1aab8a1e2d8fdc7af59df61aa64040af1bd05d9bf98a"),
    (("growth", "--generator", "homogeneous:2", "--path-lambda", "linear",
      "--depths", "3..8"), 0,
     "415728e584c14adb7240a029353b5cc4cc6fdf53571880ae0a918c1db85b1476"),
    # the class route: a ternary tree from depth 0 at a z below the real
    # axis, a 301-level path, and binary unit weights at the pool's z;
    # small-norm builds its own tree
    (("growth", "--generator", "homogeneous:3", "--path-lambda", "unit",
      "--depths", "0..7", "--z=1/3-1/1i"), 0,
     "d5a9708a9808dfb37382a594572cb1623f5fcbbbfb495e069032bfebcda6623e"),
    (("growth", "--generator", "homogeneous:1", "--path-lambda", "linear",
      "--depths", "2..300"), 0,
     "4aadfa74127efc869478236861294a27dc833d8b4846844a4439ebafe15daa45"),
    (("growth", "--generator", "homogeneous:2", "--path-lambda", "unit",
      "--depths", "2..10", "--z=1/2+1/1i"), 0,
     "f1ed9e984e35d70b8e03e77208302b4c2590921dd8845e3b9b34687502f575bb"),
    (("growth", "--generator", "small-norm", "--depths", "3..12"), 0,
     "d0569155cc0384ad805a563777f18908466c092721e023bc1c6699b9d1fff652"),
    # the growth pool's own small-norm op, and one twice as deep: every
    # weight exponent and squared norm of the build reaches the report
    (("growth", "--generator", "small-norm", "--depths", "3..30"), 0,
     "baa1ae60cc2302b6fb751dc0682261405988d0095f940f33a1cf06cee11dad9d"),
    (("growth", "--generator", "small-norm", "--depths", "1..60"), 0,
     "08b11b666ec7146e915de956b43fbfdfbdf70fca32873d1e5dee4a5ceb736c65"),
    # the first stages: x_0 has no predecessor and s_1 no chain below
    # its head
    (("growth", "--generator", "small-norm", "--depths", "1"), 0,
     "9254a3f87c6378b7f781fa685a52c1c908f794f93cb4b49764ffb58157ae8271"),
    (("growth", "--generator", "small-norm", "--depths", "1..2"), 0,
     "24e12a851d64aec58b9980939c03a0c891054d4113576b01f98556397023cd62"),
    (("construct", "--example", "small-norm", "--depth", "1", "--out",
      "small1.json"), 0,
     "60bc671a0020fa7085d3c44c08ae6aafaf6c5d76f2fe2f83dce76fda2ea357e5"),
    (("construct", "--example", "small-norm", "--depth", "2", "--out",
      "small2.json"), 0,
     "1337bee16f5c0b05d2408ab9c9dde24857d738b167cbc5759606fcd7f89aa8b1"),
    (("construct", "--example", "real-obstruction", "--depth", "5",
      "--out", "obstruction.json"), 0,
     "a91ae0bd1b97032f4772162701c5476f23138b0ecb99cbfff7876c36f55e0450"),
    # real solves: at 0 the unit binary tree has side subtrees with a root
    # zero pivot, with a deep one, and with neither; at 1/3 every side of
    # h24 is filled by its ratios; the obstruction tree exits 1
    (("solve", "--tree", "unit23.json", "--z=0/1"), 0,
     "c7d5ebdc09eb2c09ae47d3907e62b672fc234105b2a4b58d8695588d181bf69d"),
    (("solve", "--tree", "h24.json", "--z=1/3"), 0,
     "edb5b007384ebe0bdcb01e63ec5b9ff66743d4886f102b05d64eeb756d5ff758"),
    (("solve", "--tree", "obstruction3.json", "--z=0/1"), 1,
     "2c4cef178bc32d2d8b75df136ed9ea24d50ee7b6ae70248615191acc65d327be"),
    # root isolation: a degree-31 top factor; shared factors of
    # multiplicity 2 (the ternary unit tree's siblings share every root);
    # a width off the dyadic grid
    (("spectrum", "--tree", "p30.json", "--verify"), 0,
     "b9f7da37da3fc44ce1d425517cf0b31d352c0c5f9f23a9a7b72729800a90cbea"),
    (("spectrum", "--tree", "unit33.json", "--verify"), 0,
     "54cbccf8cff5374ef7d087ca16adc37d3510b2fd2d6745f4b41909d072b64bbe"),
    (("spectrum", "--tree", "h23.json", "--width=1/3", "--verify"), 0,
     "d25b0d09b06bfa90d24e66d603c93e3e9bab2b1ffe6c04c3b0d61e7a5fedb3de"),
    # family columns: sibling witnesses on the ternary unit tree (39 of
    # them), a spectrum below the top, and P(x, t) at x's parent and at a
    # grandchild of x
    (("verify-all", "--tree", "unit33.json"), 0,
     "95ef14335065fc7fdd4651a40c8de4ff6415ab98096371cec94d1000d3bc9fc8"),
    (("spectrum", "--tree", "unit23.json", "--at", "r.1", "--verify"), 0,
     "a7bb3a622de6df2d770a90dae43cd20ba262d72287b3dbcac6cddfd930535b93"),
    (("poly", "--tree", "h23.json", "--at", "r.0", "--target", "r"), 0,
     "c8fbf066814a1178b16ff7a719c99b4229d0d1e53f4d986ea1122b3e9561a35a"),
    (("poly", "--tree", "h23.json", "--at", "r.0", "--target", "r.0.1.0"), 0,
     "09efa74ea7670059d70c70399b94078a7487f4407232b4098b30b2ced95f219e"),
    # report fields the CLI renders through `reports`: square sums of a
    # rule only the mix pool runs, a single-depth growth, the side
    # reductions of a nonreal solve, and two constructions' results
    (("classical", "--rule", "geometric-weights", "--q", "3/2", "--depth",
      "12", "--report", "pq0"), 0,
     "889cea508e069e919636f12aa2b3ea99c263b3ec75f78683c94ce761a809a2af"),
    (("growth", "--generator", "homogeneous:2", "--depths", "7"), 0,
     "d3c873fc0d97a350960aee7866f8af5e43d8d9bb5315691b32ab49663da7716d"),
    (("solve", "--tree", "h23.json", "--z=1/2+1/1i"), 0,
     "5916d925ae0e2fafffd83856dea339bdaa9842f45ce45fe494096c6216511a75"),
    (("construct", "--example", "bounded-path", "--depth", "3"), 0,
     "aa7a4e5215fa30f166461cc3569a062018ecacab6f96124f6fc7b957be318523"),
    (("construct", "--example", "pendant-path", "--depth", "6"), 0,
     "72afbe174d64b993b6fc24af2eae67f9a6188b38fcc029229886d549ecf0d56e"),
    # constructions deeper than the benchmark's pools go, and the pendant
    # rule they never run; their written trees are pinned in WRITTEN
    (("construct", "--example", "small-norm", "--depth", "12", "--out",
      "small12.json"), 0,
     "dd3cb312516d7a1c5bc88419f9996609bf46fbe68a7918324d97ae5db2192a95"),
    (("construct", "--example", "small-norm", "--depth", "40", "--out",
      "small40.json"), 0,
     "1253564688f363f3a7b2f80ca589eec6924360bff195b5f00411c45d08b85e82"),
    (("construct", "--example", "bounded-path", "--depth", "5", "--out",
      "bounded5.json"), 0,
     "21d7e42eaa1463b8c40515d17c5fba9b4b04dbef4cb0692eff0d60a8fa3b883e"),
    (("construct", "--example", "real-obstruction", "--depth", "6", "--out",
      "obstruction6.json"), 0,
     "de32a557d709d364efc7bdedc3f7b9dec9ec6c94056d0ca8639f00af67024951"),
    (("construct", "--example", "pendant-path", "--pendant-rule", "constant",
      "--a", "3/4", "--depth", "8", "--out", "pendant8.json"), 0,
     "4de5e8cdc6f522986dd088f77986bb5c3a8bc8db8be8fd63d95b63d27f037e20"),
    # the radius check at other branchings: a path (d = 1), and base
    # weights 1/3 and 1/4
    (("construct", "--example", "bounded-path", "--d", "1", "--depth", "6",
      "--out", "bounded1_6.json"), 0,
     "1be9056358fe9118fb9bbdce2e3b920d8f86758573cc4216360eb8438119a0a3"),
    (("construct", "--example", "bounded-path", "--d", "9", "--depth", "4",
      "--out", "bounded9_4.json"), 0,
     "3c63eefde1d9453c5a808548e6ed24c90b4de262cebc5d42c2c234f61c1c5daa"),
    (("construct", "--example", "bounded-path", "--d", "16", "--depth", "3",
      "--out", "bounded16_3.json"), 0,
     "6b39b15aeb3c7219119d1bf1b10d27bdfb4eeca3ba1ea5dc563582accef43b12"),
    # repeated classes with zero pivots at 0, counted by multiplicity in
    # `negative_count_consistency` (unit33 is pinned above)
    (("verify-all", "--tree", "unit24.json"), 0,
     "8af90a4af55bd4b9cc6e3fbfcd08eb7e67da92963c8d6be017dcbffb9f8902c7"),
]

# the sha256 of each file a pinned op writes with --out
WRITTEN = {
    "obstruction.json":
        "791d3e99afc56e20378d7c041fed1376052884e803cdbe067e14231f6e78759a",
    "small1.json":
        "e9f783d9dc162ef236d42752fbc641004d3d759f52237139c8935e97548c69e1",
    "small2.json":
        "52898d791f99c92c7ad0e54089aecf6a66b4f7d45346bcd0c7c3d55e893d346f",
    "small12.json":
        "31e1c8f81b6d2bfd53ce0a7b8c55973eec8df634aae74bf4c4c4627f63147ea0",
    "small40.json":
        "17193041a046d05c641caa8a73bf397fd1466b9197af154794867e180e2ace8a",
    "bounded5.json":
        "bc5f4a64c0831219755443b945482d59b93539074ed59f50943dafafb98436a3",
    "obstruction6.json":
        "2ba86a055c5876cdce57f7a0eeea6385339ea47ce0c587f416d89903caac703c",
    "pendant8.json":
        "d1dcc13219b425b8970a787cd1d15d80bd54dd534414d20866f169b76446358f",
    "bounded1_6.json":
        "8cd037eab9cc8798efedab88dcc1597eaf2f0b7e5ba5c25097ee2728bf927d10",
    "bounded9_4.json":
        "8367c083f020385dd6d1b692aecc34943e2a9f479021d885206c4ab63bbab1dd",
    "bounded16_3.json":
        "85f885315d5b8a884024c20cc70d567cc42764dd5f34b80ddfcccdf472226e80",
}


def _digest(capsys, argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def _ids(pinned) -> list[str]:
    """Each op's first three arguments, or the shortest longer prefix of
    its argv that no earlier op has taken."""
    ids: list[str] = []
    for argv, _, _ in pinned:
        k = 3
        while " ".join(argv[:k]) in ids:
            k += 1
        ids.append(" ".join(argv[:k]))
    return ids


@pytest.mark.parametrize("argv, code, sha", PINNED, ids=_ids(PINNED))
def test_report_is_pinned(capsys, tmp_path, monkeypatch, argv, code, sha):
    monkeypatch.chdir(tmp_path)
    for name, text in TREES.items():
        (tmp_path / name).write_text(text(), encoding="utf-8")
    assert _digest(capsys, argv) == (code, sha)
    if "--out" in argv:
        name = argv[argv.index("--out") + 1]
        written = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert written == WRITTEN[name]
