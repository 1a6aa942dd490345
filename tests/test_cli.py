"""Golden tests for the command-line front end.

Every case pins the exact stdout and exit code of `chipfiring.cli.main` on
tiny input files, so that JSON output stays byte-identical and the exit
codes 0 (success), 1 (a cross-check disagreed) and 2 (input error, or out
of memory) keep their meaning.
"""

import json
import os
import resource
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from chipfiring import (
    Multigraph, cli, distance, is_recurrent, multigraph, oracles, reduce_tss_to_rec,
)
from chipfiring.chipfire import divisor_to_text
from chipfiring.families import complete_graph, cycle_graph
from chipfiring.multigraph import graph_to_json, graph_to_text

FILES = {
    "c3.graph": "3\n0 1 1\n1 2 1\n0 2 1\n",
    "k2.graph": "2\n0 1 1\n",
    "k1.graph": "1\n",
    "p5.graph": "5\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n",
    # a 4-cycle with the chord 0-2
    "d4.graph": "4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n0 2 1\n",
    # a path on 4 vertices with a doubled first edge
    "p4m.graph": "4\n0 1 2\n1 2 1\n2 3 1\n",
    "disc.graph": "2\n",
    "halt.div": "2 0 0\n",
    "nonhalt.div": "2 1 0\n",
    # a halting game of 10 firings with several vertices active at once
    "p5.div": "0 0 0 0 3\n",
    # a non-halting game whose seeded witness differs from the canonical one
    "d4.div": "0 3 2 2\n",
    "k2.div": "1 0\n",
    "p4m.div": "3 0 0 1\n",
    "zero2.div": "0 0\n",
    "bad.div": "1 x 0\n",
    "bool.div": '{"chips": [false, false]}\n',
    "bool.graph": '{"n": true, "edges": []}\n',
    "c3.thr": "1 1 1\n",
    "k2.thr": "1 1\n",
    # deg + 1: the one vertex is forced
    "k1.thr": "1\n",
    "bool-edge.graph": '{"n": 2, "edges": [[0, true, 1]]}\n',
    "two-counts.graph": "3 4\n0 1 1\n",
    "edge-map.graph": '{"n": 2, "edges": {"0": [1, 1]}}\n',
    # beyond Python's 4300-digit limit on decoding an int
    "long.graph": '{"n": 2, "edges": [[0, 1, %s]]}\n' % ("1" * 5000),
    "long.div": '{"chips": [%s, 0]}\n' % ("1" * 5000),
    "deep.graph": '{"n": ' + "[" * 100_000,
    # the same digit limit on a text line
    "long.txt.div": "1" * 5000 + " 0 0\n",
    "long.txt.thr": "1" * 5000 + " 1 1\n",
    "long-count.graph": "1" * 5000 + "\n0 1 1\n",
    "long-edge.graph": "2\n0 1 " + "1" * 5000 + "\n",
    "ff.graph": b"2\n0 1 1\xff\n",
    "ff.div": b"1 \xff\n",
    "ff.thr": b"1 \xff\n",
}


def _json_error(name):
    try:
        json.loads(FILES[name])
    except (ValueError, RecursionError) as exc:
        return str(exc)

J = ("--format", "json")

GOLDEN = [
    (
        ("rank", "c3.graph", "halt.div", *J, "--oracle"),
        '{"agree": true, "oracle": 1, "rank": 1}\n',
    ),
    (("winnable", "c3.graph", "halt.div", *J), '{"winnable": true}\n'),
    (
        ("winnable", "c3.graph", "halt.div", *J, "--oracle"),
        '{"agree": true, "oracle": true, "winnable": true}\n',
    ),
    (("halting", "c3.graph", "halt.div", *J), '{"kind": "halting", "stable": [0, 1, 1]}\n'),
    (
        ("halting", "d4.graph", "d4.div", *J, "--witness"),
        '{"kind": "non-halting", "witness": {"counts": [1, 2, 1, 1], '
        '"final": [1, 1, 3, 2], "order": [1, 2, 1, 0, 3]}}\n',
    ),
    (
        ("halting", "d4.graph", "d4.div", *J, "--witness", "--seed", "4"),
        '{"kind": "non-halting", "witness": {"counts": [1, 2, 1, 1], '
        '"final": [1, 1, 3, 2], "order": [1, 3, 2, 1, 0]}}\n',
    ),
    (
        ("recurrent", "c3.graph", "nonhalt.div", *J, "--witness", "--oracle"),
        '{"agree": true, "oracle": true, "recurrent": true, "witness": '
        '{"counts": [1, 1, 1], "final": [2, 1, 0], "order": [0, 1, 2]}}\n',
    ),
    (
        ("dist-nonhalt", "c3.graph", "halt.div", *J, "--witness"),
        '{"value": 1, "witness": [0, 1, 0]}\n',
    ),
    (
        ("dist-nonhalt", "c3.graph", "halt.div", *J, "--witness", "--oracle"),
        '{"agree": true, "oracle": 1, "value": 1, "witness": [0, 1, 0]}\n',
    ),
    (
        ("dist-rec", "c3.graph", "halt.div", *J, "--witness", "--oracle"),
        '{"agree": true, "value": 1, "witness": [0, 1, 0]}\n',
    ),
    (
        ("tss", "c3.graph", "c3.thr", *J, "--oracle"),
        '{"agree": true, "members": [0], "oracle": 1, "size": 1}\n',
    ),
    (
        ("trace", "p5.graph", "p5.div", *J),
        '{"counts": [0, 0, 1, 3, 6], "final": [0, 1, 1, 1, 0], "kind": "halting", '
        '"order": [4, 4, 3, 4, 4, 3, 2, 4, 3, 4]}\n',
    ),
    # a halting game is logged in the canonical order whatever the seed
    (
        ("trace", "p5.graph", "p5.div", *J, "--seed", "4"),
        '{"counts": [0, 0, 1, 3, 6], "final": [0, 1, 1, 1, 0], "kind": "halting", '
        '"order": [4, 4, 3, 4, 4, 3, 2, 4, 3, 4]}\n',
    ),
    (
        ("trace", "d4.graph", "d4.div", *J),
        '{"counts": [1, 2, 1, 1], "final": [1, 1, 3, 2], "kind": "non-halting", '
        '"order": [1, 2, 1, 0, 3]}\n',
    ),
    (
        ("trace", "d4.graph", "d4.div", *J, "--seed", "4"),
        '{"counts": [1, 2, 1, 1], "final": [1, 1, 3, 2], "kind": "non-halting", '
        '"order": [1, 3, 2, 1, 0]}\n',
    ),
    (
        ("trace", "p5.graph", "p5.div"),
        "halting after 10 firings: 4 4 3 4 4 3 2 4 3 4\nstable 0 1 1 1 0\n",
    ),
    (
        ("trace", "d4.graph", "d4.div"),
        "non-halting; every vertex fired within 5 firings: 1 2 1 0 3\n",
    ),
    (
        ("reduce", "tss-to-rec", "k2.graph", "k2.thr", *J),
        '{"divisor": {"chips": [4, 4, 1, 1, 4, 4, 1, 1]}, "graph": {"edges": '
        "[[0, 2, 4], [0, 7, 1], [1, 3, 4], [1, 6, 1], [2, 4, 1], [3, 5, 1], "
        '[4, 6, 4], [5, 7, 4]], "n": 8}, "sidecar": {"M": null, "N": 4, "roles": '
        '["i:0", "i:1", "c:0", "c:1", "o:0", "o:1", "p:0:1", "p:1:0"]}}\n',
    ),
    (
        ("reduce", "rec-to-nonhalt", "k2.graph", "k2.div", *J),
        '{"divisor": {"chips": [4, 3, 0]}, "graph": {"edges": [[0, 1, 1], '
        '[0, 2, 3], [1, 2, 3]], "n": 3}, "sidecar": {"M": 3, "N": null, "roles": '
        '["orig:0", "orig:1", "new"]}}\n',
    ),
    (
        ("reduce", "tss-to-nonhalt", "k2.graph", "k2.thr", *J),
        '{"divisor": {"chips": [7, 7, 4, 4, 7, 7, 4, 4, 0]}, "graph": {"edges": '
        "[[0, 2, 4], [0, 7, 1], [0, 8, 3], [1, 3, 4], [1, 6, 1], [1, 8, 3], "
        "[2, 4, 1], [2, 8, 3], [3, 5, 1], [3, 8, 3], [4, 6, 4], [4, 8, 3], "
        '[5, 7, 4], [5, 8, 3], [6, 8, 3], [7, 8, 3]], "n": 9}, "sidecar": '
        '{"M": 3, "N": 4, "roles": ["i:0", "i:1", "c:0", "c:1", "o:0", "o:1", '
        '"p:0:1", "p:1:0", "new"]}}\n',
    ),
    (
        ("reduce", "rec-to-nonhalt", "k2.graph", "k2.div"),
        '3\n0 1 1\n0 2 3\n1 2 3\n4 3 0\n{"M": 3, "N": null, "roles": ["orig:0", "orig:1", "new"]}\n',
    ),
    (
        ("subdivide", "p4m.graph", "p4m.div", *J),
        '{"divisor": {"chips": [3, 0, 0, 1, 0, 0, 0, 0]}, "graph": {"edges": '
        "[[0, 4, 1], [0, 5, 1], [1, 4, 1], [1, 5, 1], [1, 6, 1], [2, 6, 1], "
        '[2, 7, 1], [3, 7, 1]], "n": 8}, "sidecar": {"M": null, "N": null, '
        '"roles": ["orig:0", "orig:1", "orig:2", "orig:3", "sub:0:1", "sub:0:1", '
        '"sub:1:2", "sub:2:3"]}}\n',
    ),
    (
        ("verify-chain", "k2.graph", "k2.thr", *J),
        "".join(
            '{"agree": true, "instance": "8c9a5adf60a3", '
            f'"oracle": {oracle}, "pipeline": {pipeline}, "quantity": "{quantity}"}}\n'
            for quantity, pipeline, oracle in [
                ("target-set-size/subset-oracle", 1, 1),
                ("target-set-size/dist-rec", 1, 1),
                ("dist-rec/dist-nonhalt", 1, 1),
                ("target-set-size/dist-nonhalt", 1, 1),
                ("bundle-margin (N vs dist-rec + 1)", 4, 2),
                ("apex-margin (M vs dist-nonhalt)", 3, 1),
            ]
        ),
    ),
    # one source vertex: its chain alone is the bundle gadget
    (
        ("reduce", "tss-to-rec", "k1.graph", "k1.thr", *J),
        '{"divisor": {"chips": [3, 1, 0]}, "graph": {"edges": [[0, 1, 3], [1, 2, 1]], '
        '"n": 3}, "sidecar": {"M": null, "N": 3, "roles": ["i:0", "c:0", "o:0"]}}\n',
    ),
    (
        ("verify-chain", "k1.graph", "k1.thr", *J),
        "".join(
            '{"agree": true, "instance": "be51adb6305b", '
            f'"oracle": {oracle}, "pipeline": {pipeline}, "quantity": "{quantity}"}}\n'
            for quantity, pipeline, oracle in [
                ("target-set-size/subset-oracle", 1, 1),
                ("target-set-size/dist-rec", 1, 1),
                ("dist-rec/dist-nonhalt", 0, 0),
                ("target-set-size/dist-nonhalt", 1, 1),
                ("bundle-margin (N vs dist-rec + 1)", 3, 1),
                ("apex-margin (M vs dist-nonhalt)", 2, 0),
            ]
        ),
    ),
    (("rank", "c3.graph", "halt.div", "--oracle"), "rank 1 (oracle 1: agree)\n"),
    (("recurrent", "c3.graph", "nonhalt.div", "--oracle"), "recurrent (oracle True: agree)\n"),
    (("dist-rec", "c3.graph", "halt.div", "--oracle"), "distance 1 (oracle agree)\n"),
    (("dist-nonhalt", "c3.graph", "halt.div", "--oracle"), "distance 1 (oracle 1: agree)\n"),
    (("winnable", "c3.graph", "halt.div", "--oracle"), "winnable (oracle True: agree)\n"),
    (
        ("tss", "c3.graph", "c3.thr", "--oracle"),
        "minimum target set size 1: 0 (oracle 1: agree)\n",
    ),
]

DISAGREE = [
    (
        ("rank", "c3.graph", "halt.div", *J, "--oracle"),
        '{"agree": false, "oracle": 7, "rank": 1}\n',
    ),
    (("rank", "c3.graph", "halt.div", "--oracle"), "rank 1 (oracle 7: DISAGREE)\n"),
    (
        ("recurrent", "c3.graph", "nonhalt.div", *J, "--oracle"),
        '{"agree": false, "oracle": false, "recurrent": true}\n',
    ),
    (("recurrent", "c3.graph", "nonhalt.div", "--oracle"), "recurrent (oracle False: DISAGREE)\n"),
    (("dist-rec", "c3.graph", "halt.div", *J, "--oracle"), '{"agree": false, "value": 1}\n'),
    (("dist-rec", "c3.graph", "halt.div", "--oracle"), "distance 1 (oracle DISAGREE)\n"),
    (
        ("dist-nonhalt", "c3.graph", "halt.div", *J, "--oracle"),
        '{"agree": false, "oracle": 8, "value": 1}\n',
    ),
    (("dist-nonhalt", "c3.graph", "halt.div", "--oracle"), "distance 1 (oracle 8: DISAGREE)\n"),
    (
        ("winnable", "c3.graph", "halt.div", *J, "--oracle"),
        '{"agree": false, "oracle": false, "winnable": true}\n',
    ),
    (("winnable", "c3.graph", "halt.div", "--oracle"), "winnable (oracle False: DISAGREE)\n"),
    (
        ("tss", "c3.graph", "c3.thr", *J, "--oracle"),
        '{"agree": false, "members": [0], "oracle": 2, "size": 1}\n',
    ),
    (
        ("tss", "c3.graph", "c3.thr", "--oracle"),
        "minimum target set size 1: 0 (oracle 2: DISAGREE)\n",
    ),
]


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    for name, text in FILES.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    (tmp_path / "empty").mkdir()
    (tmp_path / "k2pair").mkdir()
    for name in ("k2.graph", "k2.thr"):
        (tmp_path / "k2pair" / name).write_text(FILES[name])
    monkeypatch.chdir(tmp_path)

    def go(argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return go


def _id(argv):
    return " ".join(argv)


@pytest.mark.parametrize("argv, stdout", GOLDEN, ids=[_id(a) for a, _ in GOLDEN])
def test_golden_output(run, argv, stdout):
    assert run(argv) == (0, stdout, "")


def test_every_subcommand_has_a_json_golden():
    pinned = {argv[0] for argv, _ in GOLDEN if "json" in argv}
    assert pinned == {
        "rank", "winnable", "halting", "recurrent", "dist-nonhalt", "dist-rec",
        "tss", "trace", "reduce", "subdivide", "verify-chain",
    }


@pytest.mark.parametrize("argv, stdout", DISAGREE, ids=[_id(a) for a, _ in DISAGREE])
def test_oracle_disagreement_exits_1(run, monkeypatch, argv, stdout):
    monkeypatch.setattr(oracles, "rank_definitional", lambda g, f: 7)
    monkeypatch.setattr(oracles, "recurrent_permutation", lambda g, f: False)
    monkeypatch.setattr(oracles, "ts_subset_enumeration", lambda g, tau: 2)
    monkeypatch.setattr(oracles, "winnable_within_bound", lambda g, f, bound: False)
    assert run(argv) == (1, stdout, "")


def test_out_of_memory_exits_2(run, monkeypatch):
    # exit 1 would claim that a verification disagreed
    def exhaust(g, f):
        raise MemoryError
    monkeypatch.setattr(distance, "dist_nonhalt", exhaust)
    assert run(("dist-nonhalt", "c3.graph", "halt.div", *J)) == (
        2, "", "error: out of memory; the solvers take exponential space in the worst case, "
        "try a smaller input\n")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("rank", "disc.graph", "zero2.div", *J), "error: operation requires a connected graph\n"),
        (
            ("rank", "c3.graph", "bad.div", *J),
            "error: divisor line must contain integers, got '1 x 0'\n",
        ),
        (
            ("halting", "k2.graph", "bool.div", *J),
            "error: divisor entries must be integers\n",
        ),
        (
            ("halting", "bool.graph", "zero2.div", *J),
            "error: vertex count must be a positive integer, got True\n",
        ),
        (
            ("halting", "bool-edge.graph", "zero2.div", *J),
            "error: edge endpoints must be integers, got [0, True, 1]\n",
        ),
        (
            ("halting", "two-counts.graph", "zero2.div", *J),
            "error: first line must be the vertex count, got '3 4'\n",
        ),
        (
            ("halting", "edge-map.graph", "zero2.div", *J),
            'error: "edges" must be a list of [u, v, m] triples\n',
        ),
        (
            ("halting", "long.graph", "zero2.div", *J),
            f"error: invalid JSON graph: {_json_error('long.graph')}\n",
        ),
        (
            ("halting", "k2.graph", "long.div", *J),
            f"error: invalid JSON divisor: {_json_error('long.div')}\n",
        ),
        (
            ("halting", "deep.graph", "zero2.div", *J),
            f"error: invalid JSON graph: {_json_error('deep.graph')}\n",
        ),
        (
            ("halting", "ff.graph", "zero2.div", *J),
            "error: cannot read ff.graph: "
            "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
        ),
        (
            ("halting", "k2.graph", "ff.div", *J),
            "error: cannot read ff.div: "
            "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n",
        ),
        (
            ("tss", "k2.graph", "ff.thr", *J),
            "error: cannot read ff.thr: "
            "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n",
        ),
        # an integer too long to convert: the message names the limit and
        # echoes only the start of the line
        *[
            (argv, f"error: {what} line has an integer beyond Python's "
                   f"{sys.get_int_max_str_digits()}-digit limit, got '{shown}...'\n")
            for argv, what, shown in [
                (("halting", "c3.graph", "long.txt.div"), "divisor", "1" * 37),
                (("tss", "c3.graph", "long.txt.thr"), "thresholds", "1" * 37),
                (("halting", "long-count.graph", "zero2.div"), "vertex count", "1" * 37),
                (("halting", "long-edge.graph", "zero2.div"), "edge", "0 1 " + "1" * 33),
            ]
        ],
        (
            ("subdivide", "k2.graph", "k2.div", "--out", "missing/b"),
            "error: cannot write missing/b.graph: "
            "[Errno 2] No such file or directory: 'missing/b.graph'\n",
        ),
        (
            ("verify-chain", "k2.graph", *J),
            "error: verify-chain needs a graph and a thresholds file, or a directory\n",
        ),
        (("verify-chain", "empty", *J), "error: no *.graph files in empty\n"),
        # a directory holds its own thresholds files
        (
            ("verify-chain", "k2pair", "k2.thr", *J),
            "error: verify-chain reads a directory's thresholds from its *.thr files, "
            "not from k2.thr\n",
        ),
        # refused before any file is read: neither of these files exists
        (
            ("rank", "missing.graph", "missing.div", "--max-n", "0"),
            "error: --max-n must be a positive integer, got 0\n",
        ),
        (
            ("rank", "missing.graph", "missing.div", "--max-n", "-1"),
            "error: --max-n must be a positive integer, got -1\n",
        ),
    ],
    ids=["disconnected", "malformed-divisor", "bool-divisor", "bool-vertex-count", "bool-edge",
         "two-vertex-counts", "edges-not-a-list", "long-int-graph", "long-int-divisor", "deep-json", "non-utf8-graph",
         "non-utf8-divisor", "non-utf8-thresholds", "long-text-divisor", "long-text-thresholds",
         "long-text-vertex-count", "long-text-edge", "out-unwritable", "verify-chain-no-thresholds",
         "verify-chain-empty-directory", "verify-chain-directory-and-thresholds",
         "max-n-zero", "max-n-negative"],
)
def test_input_errors_exit_2(run, argv, stderr):
    # a typed error, not a traceback, which would exit 1
    assert run(argv) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv, files",
    [
        (
            ("reduce", "tss-to-rec", "k2.graph", "k2.thr"),
            {
                "graph": "8\n0 2 4\n0 7 1\n1 3 4\n1 6 1\n2 4 1\n3 5 1\n4 6 4\n5 7 4\n",
                "div": "4 4 1 1 4 4 1 1\n",
                "json": '{"M": null, "N": 4, "roles": '
                        '["i:0", "i:1", "c:0", "c:1", "o:0", "o:1", "p:0:1", "p:1:0"]}\n',
            },
        ),
        (
            ("subdivide", "p4m.graph", "p4m.div"),
            {
                "graph": "8\n0 4 1\n0 5 1\n1 4 1\n1 5 1\n1 6 1\n2 6 1\n2 7 1\n3 7 1\n",
                "div": "3 0 0 1 0 0 0 0\n",
                "json": '{"M": null, "N": null, "roles": ["orig:0", "orig:1", "orig:2", '
                        '"orig:3", "sub:0:1", "sub:0:1", "sub:1:2", "sub:2:3"]}\n',
            },
        ),
    ],
    ids=["reduce", "subdivide"],
)
def test_out_writes_the_bundle_files(run, argv, files):
    assert run([*argv, "--out", "b"]) == (0, "wrote b.graph, b.div, b.json\n", "")
    assert {suffix: Path(f"b.{suffix}").read_text() for suffix in files} == files


# the options each subcommand takes, of those that only some take
TAKES = {
    "rank": {"--oracle"},
    "winnable": {"--oracle"},
    "halting": {"--witness", "--seed"},
    "recurrent": {"--witness", "--oracle"},
    "dist-nonhalt": {"--witness", "--oracle"},
    "dist-rec": {"--witness", "--oracle"},
    "tss": {"--oracle"},
    "trace": {"--seed"},
    "reduce": {"--out"},
    "subdivide": {"--out"},
    "verify-chain": set(),
}


@pytest.mark.parametrize("command", list(TAKES))
def test_each_subcommand_takes_only_its_options(capsys, command):
    parser = cli.build_parser()
    head = [command, "tss-to-rec"] if command == "reduce" else [command]
    for flag, value, parsed in [("--witness", [], True), ("--oracle", [], True),
                                ("--seed", ["3"], 3), ("--out", ["p"], "p"), ("--m", ["3"], 3)]:
        argv = [*head, "g", "x", flag, *value]
        if flag in TAKES[command]:
            assert getattr(parser.parse_args(argv), flag[2:]) == parsed
        else:
            # refused, --m too: no option is read from its prefix
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # an abbreviation of an option the subcommand takes is refused too
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*head, "g", "x", "--form", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --form json" in capsys.readouterr().err


def _cap_address_space():
    # the child may map at most 1 GiB, so a dense n x n graph build fails
    # with MemoryError there instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(cwd, argv, timeout):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "chipfiring.cli", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_import_loads_no_heavy_stdlib_module():
    # every CLI process pays for what `import chipfiring.cli` loads: dataclasses
    # brings in inspect, ast and dis, and hashlib loads OpenSSL; -S keeps site
    # hooks out of the child
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, chipfiring.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_oversized_vertex_count_exits_2_at_the_size_guard(tmp_path):
    (tmp_path / "big.graph").write_text("30000\n0 1 1\n")
    (tmp_path / "big.div").write_text(" ".join(["0"] * 30000) + "\n")
    proc = _run_capped(tmp_path, ["halting", "big.graph", "big.div"], timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2,
        "error: graph has 30000 vertices, above the size guard 16 "
        "(override with --max-n at your own risk)\n",
    )


@pytest.mark.parametrize(
    "graph",
    ["10000000\n0 1 1\n", '{"n": 10000000, "edges": [[0, 1, 1]]}\n', "10000000\n0 1\n"],
    ids=["text", "json", "text-bad-edge"],
)
@pytest.mark.parametrize(
    "argv, guard",
    [(("halting", "big.graph", "small.div"), 16), (("tss", "big.graph", "small.thr"), 20)],
    ids=["halting", "tss"],
)
def test_size_guard_precedes_graph_build_and_second_file(tmp_path, graph, argv, guard):
    # the guard reads the vertex count of the decoded file: it neither builds
    # the 10^7-vertex graph nor reads the two-entry divisor or threshold file.
    # A file that does not decode is reported as such, whatever its count.
    (tmp_path / "big.graph").write_text(graph)
    (tmp_path / "small.div").write_text("0 0\n")
    (tmp_path / "small.thr").write_text("1 1\n")
    proc = _run_capped(tmp_path, argv, timeout=5)
    if graph.endswith("0 1\n"):
        stderr = "error: edge line must be 'u v m', got '0 1'\n"
    else:
        stderr = (f"error: graph has 10000000 vertices, above the size guard {guard} "
                  "(override with --max-n at your own risk)\n")
    assert (proc.returncode, proc.stderr) == (2, stderr)


def test_one_decode_per_json_graph_file(tmp_path, monkeypatch):
    # the size guard reads "n" off the object the graph is then built from
    decoded = []
    decode = multigraph._decode_json
    monkeypatch.setattr(multigraph, "_decode_json",
                        lambda text, what: decoded.append(what) or decode(text, what))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(cycle_graph(5))))
    args = cli.build_parser().parse_args(["halting", str(path), "unread.div"])
    assert cli._load_graph(args, str(path), "game") == cycle_graph(5)
    assert decoded == ["graph"]


def _pair_dir(pairs):
    # a subdirectory of the working directory run() fills with FILES
    directory = Path("pairs")
    directory.mkdir()
    for name, (graph, thresholds) in pairs.items():
        (directory / f"{name}.graph").write_text(FILES[graph])
        if thresholds is not None:
            (directory / f"{name}.thr").write_text(FILES[thresholds])
    return directory


WARNING = ("warning: raising the size guard to 8; "
           "these solvers take exponential time in the worst case\n")


@pytest.mark.parametrize("fmt", [(), J], ids=["text", "json"])
def test_verify_chain_directory_concatenates_pairs_and_warns_once(run, fmt):
    pairs = _pair_dir({"a": ("k2.graph", "k2.thr"), "b": ("c3.graph", "c3.thr")})
    singles = []
    for name in "ab":
        code, out, err = run(["verify-chain", f"{pairs}/{name}.graph", f"{pairs}/{name}.thr",
                              *fmt, "--max-n", "8"])
        assert (code, err) == (0, WARNING)
        # the text form heads each pair's report with its file name
        singles.append(out if fmt else f"# {name}.graph\n{out}")
    assert run(["verify-chain", str(pairs), *fmt, "--max-n", "8"]) == (0, "".join(singles), WARNING)


def test_verify_chain_directory_with_a_missing_thresholds_file_exits_2(run):
    pairs = _pair_dir({"a": ("k2.graph", "k2.thr"), "b": ("c3.graph", None)})
    # a.graph sorts first, and its report must not precede the error
    assert run(["verify-chain", str(pairs), *J]) == (
        2, "", "error: missing thresholds file pairs/b.thr\n")


def test_verify_chain_directory_with_a_malformed_pair_prints_no_report(run):
    pairs = _pair_dir({"a": ("k2.graph", "k2.thr"), "b": ("c3.graph", "k2.thr")})
    assert run(["verify-chain", str(pairs), *J]) == (
        2, "", "error: threshold vector has 2 entries for 3 vertices\n")


C16, C20 = graph_to_text(cycle_graph(16)), graph_to_text(cycle_graph(20))
# the circulant graph on 20 vertices with jumps 1, 2 and 9, every degree 6
CIRC20 = graph_to_text(Multigraph(20, [(v, (v + j) % 20, 1) for v in range(20) for j in (1, 2, 9)]))


@pytest.mark.parametrize(
    "argv, graph, vector, out",
    [
        # 2001 chips short on two vertices
        (("dist-rec", *J, "--witness"), FILES["k2.graph"], "-1000 -1000\n",
         '{"value": 2001, "witness": [1001, 1000]}\n'),
        # 500 chips short of firing either end of a 1000-edge bundle
        (("dist-rec", *J, "--witness"), "2\n0 1 1000\n", "500 500\n",
         '{"value": 500, "witness": [500, 0]}\n'),
        # 300 chips short on a vertex hanging off a hub by 21 edges
        (("dist-rec", *J, "--witness"), "4\n0 1 20\n0 2 21\n0 3 31\n1 3 2\n", "-15 -9 -300 10\n",
         '{"value": 388, "witness": [56, 9, 300, 23]}\n'),
        # two bundles of 100 parallel edges
        (("dist-rec", *J, "--witness"), "3\n0 1 100\n1 2 100\n", "0 0 0\n",
         '{"value": 200, "witness": [100, 100, 0]}\n'),
        (("dist-rec", *J, "--witness"), C16, "0 " * 15 + "0\n",
         '{"value": 16, "witness": [2, ' + "1, " * 14 + '0]}\n'),
        # the search starts at level |E| - deg f = 16, whose C(31, 15), about
        # 3.0 * 10^8, candidates exhausted the cap when built as a table
        (("dist-nonhalt", *J), C16, divisor_to_text((10**4 + 8, -(10**4 + 8)) + (0,) * 14),
         '{"value": 16}\n'),
        # every threshold above the degree: all vertices are forced seeds
        (("tss", *J), C20, "3 " * 19 + "3\n",
         '{"members": [' + ", ".join(map(str, range(20))) + '], "size": 20}\n'),
        # thresholds at the degree: the unseeded vertices are independent
        (("tss", *J), CIRC20, "6 " * 19 + "6\n",
         '{"members": [0, 1, 2, 4, 5, 7, 8, 10, 11, 12, 14, 15, 17, 18], "size": 14}\n'),
    ],
    ids=["k2-deficit", "bundle-surplus", "hub-deficit", "bundles", "c16", "c16-deep-level",
         "c20-forced", "circulant-independent"],
)
def test_concentrated_inputs_answer_within_seconds(tmp_path, argv, graph, vector, out):
    # far beyond what enumerating candidates or subsets finishes in time
    (tmp_path / "g.graph").write_text(graph)
    (tmp_path / "x.txt").write_text(vector)
    proc = _run_capped(tmp_path, [argv[0], "g.graph", "x.txt", *argv[1:]], timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("a, out", [(10**9, "true"), (10**9 + 8, "false")], ids=["16-divides", "16-does-not"])
def test_winnable_answers_a_billion_chips_within_seconds(tmp_path, a, out):
    # (a, -a, 0, ...) on C16 is a times a generator of the Jacobian Z/16,
    # so it is winnable exactly when 16 divides a; a game that moves the
    # chips one firing at a time runs far longer than the timeout
    (tmp_path / "g.graph").write_text(C16)
    (tmp_path / "x.div").write_text(divisor_to_text((a, -a) + (0,) * 14))
    proc = _run_capped(tmp_path, ["winnable", "g.graph", "x.div", *J], timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f'{{"winnable": {out}}}\n', "")


@pytest.mark.parametrize("a, out", [(10**9, "0"), (10**9 + 8, "-1")], ids=["16-divides", "16-does-not"])
def test_rank_answers_a_billion_chips_within_seconds(tmp_path, a, out):
    # degree 0 on C16 is searched, as dist_nonhalt of the complement; halting
    # depends only on the class, so the search plays from a reduced equivalent
    # of (a, -a, 0, ...) instead of moving the chips one firing at a time
    (tmp_path / "g.graph").write_text(C16)
    (tmp_path / "x.div").write_text(divisor_to_text((a, -a) + (0,) * 14))
    proc = _run_capped(tmp_path, ["rank", "g.graph", "x.div", *J], timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f'{{"rank": {out}}}\n', "")


@pytest.mark.parametrize("n", [12, 16])
def test_rank_of_one_chip_per_vertex_on_a_cycle_within_seconds(tmp_path, n):
    # degree n is above 2 * genus - 2 = 0, so Riemann-Roch gives n - 1 at
    # once; searching levels of every top-up runs far past the timeout on C12
    # and exhausts the memory cap on C16
    (tmp_path / "g.graph").write_text(graph_to_text(cycle_graph(n)))
    (tmp_path / "x.div").write_text(divisor_to_text((1,) * n))
    proc = _run_capped(tmp_path, ["rank", "g.graph", "x.div", *J], timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f'{{"rank": {n - 1}}}\n', "")


@pytest.mark.parametrize("max_n", [(), ("--max-n", "40")], ids=["guard", "max-n"])
def test_subdivide_refuses_a_build_above_its_bound(tmp_path, max_n):
    # two vertices pass the game guard, but subdividing 10^12 edge copies
    # would build 10^12 vertices; --max-n does not lift the bound
    (tmp_path / "g.graph").write_text(f"2\n0 1 {10**12}\n")
    (tmp_path / "x.div").write_text("0 0\n")
    start = time.monotonic()
    proc = _run_capped(tmp_path, ["subdivide", "g.graph", "x.div", *max_n], timeout=30)
    assert time.monotonic() - start < 2
    warning = ("warning: raising the size guard to 40; these solvers take exponential time "
               "in the worst case\n") if max_n else ""
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"{warning}error: the subdivision would have {10**12 + 2} vertices, above its "
               f"bound of {cli.SUBDIVISION}\n")


@pytest.mark.parametrize(
    "command, graph, vector, count, what",
    [
        # rank 23 by Riemann-Roch; the oracle would scan every top-up of
        # degree <= 24 on 12 vertices
        ("rank", cycle_graph(12), (2,) * 12, comb(36, 12), "top-ups"),
        # distance 8; the oracle would scan every top-up of degree <= 8
        ("dist-nonhalt", cycle_graph(12), (2, 2) + (0,) * 10, comb(20, 12), "top-ups"),
        # distance 18; the oracle would scan the top-ups of degree 17 alone
        ("dist-rec", cycle_graph(9), (-1,) * 9, comb(25, 8), "top-ups"),
        # thresholds at the degree: 16 seeds, so every subset of size <= 16
        ("tss", complete_graph(17), (16,) * 17, 2**17 - 1, "subsets"),
    ],
    ids=["rank", "dist-nonhalt", "dist-rec", "tss"],
)
@pytest.mark.parametrize("max_n", [(), ("--max-n", "40")], ids=["guard", "max-n"])
def test_oracle_refuses_a_scan_above_its_bound(tmp_path, command, graph, vector, count, what,
                                               max_n):
    # the count is known before the oracle starts; --max-n does not lift it
    (tmp_path / "g.graph").write_text(graph_to_text(graph))
    (tmp_path / "x.div").write_text(divisor_to_text(vector))
    start = time.monotonic()
    proc = _run_capped(tmp_path, [command, "g.graph", "x.div", "--oracle", *J, *max_n], timeout=30)
    assert time.monotonic() - start < 2
    assert count > cli.ORACLE_SCAN
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"error: the oracle would scan {count} {what}, above its "
                                f"bound of {cli.ORACLE_SCAN}; run without --oracle\n")


def test_dist_rec_oracle_refuses_firing_orders_above_their_bound(tmp_path):
    # distance 3 on K9, so 45 top-ups of degree 2, within the scan bound;
    # each may try all 9! orders in its permutation search
    (tmp_path / "g.graph").write_text(graph_to_text(complete_graph(9)))
    (tmp_path / "x.div").write_text(divisor_to_text((8,) * 8 + (-3,)))
    start = time.monotonic()
    proc = _run_capped(tmp_path, ["dist-rec", "g.graph", "x.div", "--oracle", *J], timeout=30)
    assert time.monotonic() - start < 2
    orders = 45 * 362_880
    assert comb(10, 8) == 45 <= cli.ORACLE_SCAN and orders > cli.ORACLE_ORDERS
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: the oracle could try {orders} firing orders, above its "
               f"bound of {cli.ORACLE_ORDERS}; run without --oracle\n")


A = 10**5 + 8


@pytest.mark.parametrize(
    "command, vector",
    [
        ("winnable", (A, -A) + (0,) * 14),
        ("rank", (A, -A) + (0,) * 14),
        # the oracle decides the complement (1 - A, 1 + A, 0, ...)
        ("dist-nonhalt", (A, -A) + (1,) * 14),
    ],
    ids=["winnable", "rank", "dist-nonhalt"],
)
def test_oracle_refuses_a_descent_above_its_bound(tmp_path, command, vector):
    # the winnability bound of the divisor the oracle decides is 4A + 62, and
    # the descent lowers 16 counts from it: at most 16 * (4A + 63) lowerings,
    # known before it starts; the pipeline answers at once
    (tmp_path / "g.graph").write_text(C16)
    (tmp_path / "x.div").write_text(divisor_to_text(vector))
    start = time.monotonic()
    proc = _run_capped(tmp_path, [command, "g.graph", "x.div", "--oracle", *J], timeout=30)
    assert time.monotonic() - start < 2
    lowerings = 16 * (4 * A + 63)
    assert lowerings > cli.ORACLE_DESCENT
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: the oracle's descent could make {lowerings} lowerings, above its "
               f"bound of {cli.ORACLE_DESCENT}; run without --oracle\n")


def test_oracle_descent_within_its_bound_is_checked(tmp_path):
    # a = 1,008 = 16 * 63: winnable, and at most 16 * (4a + 63) = 65,520 lowerings
    a = 1008
    assert 16 * (4 * a + 63) == 65_520 <= cli.ORACLE_DESCENT
    (tmp_path / "g.graph").write_text(C16)
    (tmp_path / "x.div").write_text(divisor_to_text((a, -a) + (0,) * 14))
    proc = _run_capped(tmp_path, ["winnable", "g.graph", "x.div", "--oracle", *J], timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"agree": true, "oracle": true, "winnable": true}\n', "")


def test_k6_bundle_gadget_dist_rec_within_memory_cap(tmp_path):
    # 48 vertices; enumerating every top-up of degree <= 5 exhausts the cap
    inst = reduce_tss_to_rec(complete_graph(6), (5,) * 6)
    (tmp_path / "k6.graph").write_text(graph_to_text(inst.gprime))
    (tmp_path / "k6.div").write_text(divisor_to_text(inst.x))
    argv = ["dist-rec", "k6.graph", "k6.div", "--max-n", "48", *J, "--witness"]
    proc = _run_capped(tmp_path, argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["value"] == 5 == sum(result["witness"])
    assert is_recurrent(inst.gprime, [a + b for a, b in zip(inst.x, result["witness"])])[0]


def test_k6_chain_at_tau_5_within_memory_cap(tmp_path):
    # the 49-vertex apex gadget searches levels 1-5 for dist-nonhalt; a table
    # of every candidate of a level exhausted the cap
    (tmp_path / "k6.graph").write_text(graph_to_text(complete_graph(6)))
    (tmp_path / "k6.thr").write_text(divisor_to_text((5,) * 6))
    proc = _run_capped(tmp_path, ["verify-chain", "k6.graph", "k6.thr", *J], timeout=60)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, len(lines)) == (0, "", 6)
    assert all(json.loads(line)["agree"] is True for line in lines)

