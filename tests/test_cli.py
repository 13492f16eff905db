"""Exit codes, report envelopes, payload stability, file round-trips."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tradekernel
from tradekernel import cli, cycles, exactla, latin
from tradekernel.cli import main

DATA = __file__.rsplit("/", 1)[0] + "/data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


class TestEnvelope:
    def test_report_fields(self, capsys):
        code, rep = run_json(capsys, "latin", "rank", "--n", "3")
        assert code == 0
        assert set(rep) == {"command", "input_digest", "payload", "timing_s", "version"}
        assert rep["command"] == "latin rank"
        assert rep["input_digest"].startswith("sha256:")
        assert rep["payload"]["rank"] == 19
        assert rep["payload"]["nullity"] == 8

    def test_payload_byte_identical_across_runs(self, capsys):
        reps = []
        for _ in range(2):
            _, rep = run_json(capsys, "cycles", "rank", "--n", "6")
            rep.pop("timing_s")
            reps.append(json.dumps(rep, sort_keys=True))
        assert reps[0] == reps[1]

    def test_seed_present_only_when_stochastic(self, capsys):
        _, rep = run_json(capsys, "latin", "rank", "--n", "2")
        assert "seed" not in rep
        _, rep = run_json(
            capsys, "cycles", "diamond-free", "--n", "9", "--restarts", "50", "--seed", "3"
        )
        assert rep["seed"] == 3

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "latin", "rank", "--n", "2", "--text")
        assert code == 0
        assert "rank: 7" in out
        assert "{" not in out.splitlines()[0]


class TestExitCodes:
    def test_domain_negative_not_admissible(self, capsys):
        code, rep = run_json(capsys, "cycles", "find", "--n", "8")
        assert code == 1
        assert rep["payload"]["error"] == "NotAdmissible"

    def test_usage_error_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["latin", "frobnicate"])
        assert e.value.code == 2

    def test_format_error_is_exit_2(self, capsys, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("not a trade\n")
        code, out, err = run(capsys, "latin", "decompose", "--trade", str(f))
        assert code == 2
        assert "error:" in err

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, "latin", "decompose", "--trade", "/nonexistent")
        assert code == 2

    def test_span_deficient_exit_1(self, capsys):
        code, rep = run_json(capsys, "cycles", "span", "--n", "5")
        assert code == 1
        assert rep["payload"]["deficient"] is True

    def test_invalid_square_exit_1(self, capsys, tmp_path):
        f = tmp_path / "bad.sq"
        f.write_text("n=2\n0 1\n0 1\n")
        code, rep = run_json(capsys, "latin", "validate", "--square", str(f))
        assert code == 1
        assert rep["payload"]["valid"] is False


def _file(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return str(path)


def _square(n):
    return latin.format_square(latin.LatinSquare([[(i + j) % n for j in range(n)] for i in range(n)]))


def _one_move_away(cs):
    """cs after one diamond move, so the pair differs by one double diamond."""
    table = cycles._cycle_ranks(cs.n)
    pairs = cycles.diamond_config_pairs(cs)
    sign, spec, _, _ = cycles._pair_moves(table, *(table[1][c] for c in pairs[0]))[0]
    moved = cycles.apply_diamond_move(Counter(cs.cycles), cycles.DoubleDiamond(*spec), sign)
    return cycles.CycleSystem(cs.n, list(moved))


def _negative_vertex_system(d):
    """A relabelled find_cycle_system(9) with its line `1 6 3 7` as `-1 6 3 7`: canonical, its 36 edges distinct."""
    perm = (2, 1, 5, 7, 8, 6, 3, 0, 4)
    relabelled = [cycles.canonical_cycle([perm[v] for v in c]) for c in cycles.find_cycle_system(9).cycles]
    text = cycles.format_cycle_system(cycles.CycleSystem(9, relabelled))
    assert "\n1 6 3 7\n" in text
    return _file(d / "neg.cyc", text.replace("\n1 6 3 7\n", "\n-1 6 3 7\n"))


def _negative_vertex_pair(d):
    """The n=6 diamond trade-pair file with every vertex 0 written as -1."""
    text = cycles.format_trade_pair_file(cycles.diamond_basis(6)[3].trade_pair(6))
    return _file(d / "neg.pair", re.sub(r"\b0\b", "-1", text))


# inputs refused as format errors; each builds its argv in a directory
BAD_INPUTS = {
    "negative-dims": lambda d: ["linalg", "rank", "--matrix", _file(d / "m", "dims -1 3\n")],
    "entry-out-of-range": lambda d: ["linalg", "kernel", "--matrix", _file(d / "m", "dims 2 2\n5 0 1\n")],
    "not-utf8": lambda d: ["linalg", "rank", "--matrix", _file(d / "m", b"\xff\xfe\x00dims")],
    "latin-orders-differ": lambda d: [
        "latin", "transform", "--a", _file(d / "a", _square(4)), "--b", _file(d / "b", _square(5))
    ],
    "cycles-orders-differ": lambda d: [
        "cycles", "transform",
        "--a", _file(d / "a", cycles.format_cycle_system(cycles.find_cycle_system(9))),
        "--b", _file(d / "b", cycles.format_cycle_system(cycles.find_cycle_system(1))),
    ],
    # a cycle file with a negative order, read by every command that reads one
    "negative-order-validate": lambda d: ["cycles", "validate", "--system", _file(d / "s", "n=-3\n")],
    "negative-order-validate-pair": lambda d: ["cycles", "validate", "--pair", _file(d / "p", "n=-3\n\nn=-3\n")],
    "negative-order-count-diamonds": lambda d: ["cycles", "count-diamonds", "--system", _file(d / "s", "n=-3\n")],
    "negative-order-decompose": lambda d: ["cycles", "decompose", "--trade", _file(d / "p", "n=-3\n\nn=-3\n")],
    "negative-order-decompose-systems": lambda d: [
        "cycles", "decompose", "--a", _file(d / "a", "n=-3\n"), "--b", _file(d / "b", "n=-3\n")
    ],
    "negative-order-transform": lambda d: [
        "cycles", "transform", "--a", _file(d / "a", "n=-3\n"), "--b", _file(d / "b", "n=-3\n")
    ],
    # a vertex below 0, read by every command that reads a cycle file
    "negative-vertex-validate": lambda d: ["cycles", "validate", "--system", _negative_vertex_system(d)],
    "negative-vertex-validate-pair": lambda d: ["cycles", "validate", "--pair", _negative_vertex_pair(d)],
    "negative-vertex-count-diamonds": lambda d: ["cycles", "count-diamonds", "--system", _negative_vertex_system(d)],
    "negative-vertex-decompose": lambda d: ["cycles", "decompose", "--trade", _negative_vertex_pair(d)],
    "negative-vertex-decompose-systems": lambda d: [
        "cycles", "decompose", "--a", _negative_vertex_system(d),
        "--b", _file(d / "b", cycles.format_cycle_system(cycles.find_cycle_system(9))),
    ],
    "negative-vertex-transform": lambda d: [
        "cycles", "transform", "--a", _file(d / "a", cycles.format_cycle_system(cycles.find_cycle_system(9))),
        "--b", _negative_vertex_system(d),
    ],
    # K_0 and K_1 have 4-cycle systems (empty ones) but no 4-cycles to decompose over
    "order-0-decompose-systems": lambda d: [
        "cycles", "decompose", "--a", _file(d / "a", "n=0\n"), "--b", _file(d / "b", "n=0\n")
    ],
    "order-1-decompose-systems": lambda d: [
        "cycles", "decompose", "--a", _file(d / "a", "n=1\n"), "--b", _file(d / "b", "n=1\n")
    ],
    # two well-formed grids that are not a trade (condition 2)
    "latin-decompose-not-a-trade": lambda d: [
        "latin", "decompose", "--trade", _file(d / "t", "n=2\n0 1\n1 0\n\n0 1\n1 0\n")
    ],
    # --b belongs to --a; with --trade it is refused before any file is read
    "decompose-trade-with-b": lambda d: [
        "cycles", "decompose",
        "--trade", _file(d / "p", cycles.format_trade_pair_file(cycles.diamond_basis(6)[3].trade_pair(6))),
        "--b", str(d / "nonexistent"),
    ],
    "lattice-above-cap": lambda d: [
        "linalg", "lattice-eq",
        "--a", _file(d / "a", f"dims 1 {exactla.LATTICE_DIM_CAP + 1}\n0 0 1\n"),
        "--b", _file(d / "b", f"dims 1 {exactla.LATTICE_DIM_CAP + 1}\n0 1 1\n"),
    ],
    # paths the operating system refuses, for reading and for writing (a path through a
    # regular file is read by every command in test_broken_input_is_exit_2_in_every_command)
    "input-name-too-long": lambda d: ["latin", "decompose", "--trade", str(d / ("x" * 5000))],
    "input-is-a-directory": lambda d: ["linalg", "rank", "--matrix", str(d)],
    "out-through-a-file": lambda d: ["cycles", "find", "--n", "9", "--out", _file(d / "s", _square(3)) + "/x"],
    "out-in-a-missing-directory": lambda d: ["latin", "matrix", "--n", "2", "--out", str(d / "missing" / "m")],
    "plan-out-is-a-directory": lambda d: [
        "latin", "transform", "--a", _file(d / "a", _square(3)),
        "--b", _file(d / "b", latin.format_square(latin.LatinSquare([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))),
        "--plan-out", str(d),
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_format_error(capsys, tmp_path, case):
    code, out, err = run(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# one file for each rule a kind can break: the flag `validate` reads it with, the file,
# its verdict (exit 1), a command that consumes the kind, and that command's stderr line (exit 2)
_PAIR_T = "n=6\n0 1 2 3\n0 4 2 5\n"
VERDICTS = {
    "square-empty-cell": (
        "--square", "n=2\n0 .\n1 0\n", {"kind": "square", "message": "grid has empty cells"},
        "latin transform --a {0} --b {0}", "square: grid has empty cells",
    ),
    "square-row": (
        "--square", "n=2\n0 0\n1 1\n", {"kind": "square", "message": "row 0 is not a permutation of 0..1"},
        "latin transform --a {0} --b {0}", "square: row 0 is not a permutation of 0..1",
    ),
    "square-column": (
        "--square", "n=2\n0 1\n0 1\n", {"kind": "square", "message": "column 0 is not a permutation of 0..1"},
        "latin transform --a {0} --b {0}", "square: column 0 is not a permutation of 0..1",
    ),
    "trade-partial-square": (
        "--trade", "n=2\n0 0\n. .\n\n1 1\n. .\n", {"kind": "trade", "message": "symbol 0 repeated in row 0"},
        "latin decompose --trade {0}", "trade: symbol 0 repeated in row 0",
    ),
    "trade-condition-1": (
        "--trade", "n=2\n0 1\n1 0\n\n1 0\n0 .\n",
        {"kind": "trade", "condition": 1, "message": "shapes differ at cell (1, 1)"},
        "latin decompose --trade {0}", "trade: not a trade (condition 1): shapes differ at cell (1, 1)",
    ),
    "trade-condition-2": (
        "--trade", "n=2\n0 1\n1 0\n\n0 1\n1 0\n",
        {"kind": "trade", "condition": 2, "message": "cell (0,0) holds the same symbol on both sides"},
        "latin decompose --trade {0}", "trade: not a trade (condition 2): cell (0,0) holds the same symbol on both sides",
    ),
    "trade-condition-3": (
        "--trade", "n=3\n0 1 .\n1 2 .\n. . .\n\n1 0 .\n2 1 .\n. . .\n",
        {"kind": "trade", "condition": 3, "message": "column 0 contents differ"},
        "latin decompose --trade {0}", "trade: not a trade (condition 3): column 0 contents differ",
    ),
    "system-duplicate-cycle": (
        "--system", "n=4\n0 1 2 3\n0 1 2 3\n", {"kind": "system", "message": "duplicate cycle"},
        "cycles decompose --a {0} --b {0}", "cycle file: duplicate cycle",
    ),
    "system-uncovered-edges": (
        "--system", "n=4\n", {"kind": "system", "message": "6 edges of K_4 are uncovered"},
        "cycles transform --a {0} --b {0}", "cycle file: 6 edges of K_4 are uncovered",
    ),
    "system-shared-edge": (
        "--system", "n=4\n0 1 2 3\n0 1 3 2\n",
        {"kind": "system", "message": "edge (0, 1) covered by both (0, 1, 2, 3) and (0, 1, 3, 2)"},
        "cycles transform --a {0} --b {0}", "cycle file: edge (0, 1) covered by both (0, 1, 2, 3) and (0, 1, 3, 2)",
    ),
    "pair-shared-cycle": (
        "--pair", _PAIR_T + "\n" + _PAIR_T, {"kind": "pair", "message": "T and T* share the cycle (0, 1, 2, 3)"},
        "cycles decompose --trade {0}", "trade pair: not a trade pair: T and T* share the cycle (0, 1, 2, 3)",
    ),
    "pair-unions-differ": (
        "--pair", _PAIR_T + "\n0 1 2 5\n", {"kind": "pair", "message": "edge unions differ at (0, 3)"},
        "cycles decompose --trade {0}", "trade pair: not a trade pair: edge unions differ at (0, 3)",
    ),
    "pair-shared-edge": (
        "--pair", _PAIR_T + "0 1 3 5\n\n0 1 2 5\n0 3 2 4\n",
        {"kind": "pair", "message": "T is not edge-disjoint: edge (0, 1) repeats"},
        "cycles decompose --trade {0}", "trade pair: not a trade pair: T is not edge-disjoint: edge (0, 1) repeats",
    ),
    # a cycle listed twice is an edge repeat too, for every reader of the file
    "pair-duplicate-cycle": (
        "--pair", _PAIR_T + "\n0 1 2 5\n0 3 2 4\n0 3 2 4\n",
        {"kind": "pair", "message": "T* is not edge-disjoint: edge (0, 3) repeats"},
        "cycles decompose --trade {0}", "trade pair: not a trade pair: T* is not edge-disjoint: edge (0, 3) repeats",
    ),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_validate_reports_the_readers_verdict(capsys, tmp_path, case):
    flag, text, verdict, consumer, line = VERDICTS[case]
    path = _file(tmp_path / "f", text)
    group = "latin" if flag in ("--square", "--trade") else "cycles"
    payload = {"valid": False, **verdict}
    code, rep = run_json(capsys, group, "validate", flag, path)
    assert (code, rep["payload"]) == (1, payload)
    code, out, _ = run(capsys, group, "validate", flag, path, "--text")
    assert (code, out) == (1, "".join(f"{k}: {v}\n" for k, v in payload.items()))
    code, out, err = run(capsys, *consumer.format(path).split())
    assert (code, out, err.splitlines()[0]) == (2, "", f"error: {line}")


@pytest.mark.parametrize("n", [0, 1])
def test_transform_of_empty_systems_is_an_empty_plan(capsys, tmp_path, n):
    # decompose refuses these orders; transform of a system to itself needs no decomposition
    a = _file(tmp_path / "a", f"n={n}\n")
    code, rep = run_json(capsys, "cycles", "transform", "--a", a, "--b", a)
    assert code == 0
    assert rep["payload"]["result"] == "plan" and rep["payload"]["moves"] == []


def run_process(argv):
    """Run the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "tradekernel.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "span", "--n", "3"],
        ["cycles", "rank", "--n", "2"],
        ["cycles", "basis", "--n", "3"],
        ["latin", "rank", "--n", "0"],
        ["linalg", "rank", "--matrix", "m.txt", "--mod", "4"],
        ["latin", "rank", "--n", "3", "--mod", "1"],
        ["cycles", "rank", "--n", "6", "--mod", str(2**31)],
        ["cycles", "diamond-free", "--n", "9", "--jobs", "-3"],
        ["cycles", "diamond-free", "--n", "9", "--jobs", "0"],
        ["cycles", "diamond-free", "--n", "9", "--restarts", "0"],
        ["cycles", "diamond-free", "--n", "9", "--restarts", "-1"],
        # more chunks than restarts: refused before a chunk is built
        ["cycles", "diamond-free", "--n", "9", "--restarts", "4", "--jobs", "5"],
        ["cycles", "transform", "--a", "a.cyc", "--b", "b.cyc", "--mode", "lifted", "--lam-max", "0"],
        ["cycles", "find", "--n", "9", "--budget", "0"],
        ["cycles", "transform", "--a", "a.cyc", "--b", "b.cyc", "--budget", "-5"],
        # an option the command does not read is not accepted
        ["latin", "transform", "--a", "a.sq", "--b", "b.sq", "--seed", "9"],
        ["latin", "rank", "--n", "3", "--budget", "3"],
        ["cycles", "find", "--n", "9", "--mode", "lifted"],
        ["cycles", "transform", "--a", "a.cyc", "--b", "b.cyc", "--jobs", "2"],
    ],
)
def test_order_below_minimum_is_usage_error(argv):
    # every input checked at parse time is refused with a usage message naming it
    out = run_process(argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("usage: tradekernel")
    last = out.stderr.splitlines()[-1]
    assert f"argument {argv[-2]}: " in last or last.endswith(f"unrecognized arguments: {argv[-2]} {argv[-1]}")


def test_closed_stdout_is_a_quiet_broken_pipe_exit():
    # the reader goes away after the first read, as `| head -c 10` does; the report is far
    # longer than a pipe holds, so the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tradekernel.cli", "cycles", "diamonds", "--n", "9", "--list"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = os.read(proc.stdout.fileno(), 10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert first.startswith(b"{")
    assert err == ""


@pytest.mark.parametrize("n", ["0", "4", "5"])
def test_diamonds_below_six_is_quiet(n):
    out = run_process(["cycles", "diamonds", "--n", n])
    assert out.returncode == 0
    assert json.loads(out.stdout)["payload"]["count"] == 0
    assert out.stderr == ""
    if int(n) >= 4:
        # the empty basis at n=4, span deficiency (exit 1) at n=5
        out = run_process(["cycles", "basis", "--n", n])
        assert out.returncode == (0 if n == "4" else 1)
        assert json.loads(out.stdout)["payload"]
        assert out.stderr == ""


def test_pool_size_is_clamped_to_cpus():
    # the split into chunks follows --jobs; the workers running them never outnumber the CPUs
    assert cli._pool_size(1, 8) == 1
    assert cli._pool_size(3, 8) == 3
    assert cli._pool_size(10**6, 2) == 2
    assert cli._pool_size(4, None) == 1


def test_verification_failure_is_exit_3_under_optimize(tmp_path):
    # a corrupted plan (its first move made twice) makes the replay miss the
    # goal; under -O the check must still fire and the CLI must report it with exit code 3
    files = []
    for t, shift in enumerate((1, 2)):
        sq = latin.LatinSquare([[(i * shift + j) % 5 for j in range(5)] for i in range(5)])
        files.append(tmp_path / f"s{t}.sq")
        files[-1].write_text(latin.format_square(sq))
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from tradekernel import cli, latin\n"
        "difference_moves = latin._difference_moves\n"
        "def corrupt(l1, l2):\n"
        "    sums, moves = difference_moves(l1, l2)\n"
        "    return sums, [moves[0], *moves]\n"
        "latin._difference_moves = corrupt\n"
        f"sys.exit(cli.main(['latin', 'transform', '--a', '{files[0]}', '--b', '{files[1]}']))\n"
    )
    src = os.path.dirname(os.path.dirname(tradekernel.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 3, out.stderr
    payload = json.loads(out.stdout)["payload"]
    assert payload["error"] == "Verification"
    assert "does not reach the goal square" in payload["message"]


def test_corrupted_pivot_combination_is_exit_3_under_optimize(tmp_path):
    # corrupting the recorded combinations of the cached basis echelon gives
    # wrong coordinates; under -O the recombination check must still catch them
    trade = tmp_path / "d.pair"
    trade.write_text(cycles.format_trade_pair_file(cycles.diamond_basis(6)[3].trade_pair(6)))
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from tradekernel import cli, cycles\n"
        "for _scale, combo in cycles._solve_factor(6).combos.values():\n"
        "    combo[next(iter(combo))] += 1\n"
        f"sys.exit(cli.main(['cycles', 'decompose', '--trade', '{trade}']))\n"
    )
    src = os.path.dirname(os.path.dirname(tradekernel.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 3, out.stderr
    payload = json.loads(out.stdout)["payload"]
    assert payload["error"] == "Verification"
    assert "do not recombine" in payload["message"]


# requests whose naive answer needs GiB or minutes; each is refused or answered from the entries
OVERSIZED = {
    "kernel-wide": (lambda d: ["linalg", "kernel", "--matrix", _file(d / "m", "dims 1 100000\n0 0 1\n")], 2, None),
    "kernel-one-column": (
        # 20000 stored rows, all in one column: rank at most 1
        lambda d: [
            "linalg", "kernel",
            "--matrix", _file(d / "m", "dims 20000 20000\n" + "".join(f"{i} 0 1\n" for i in range(20000))),
        ],
        2,
        None,
    ),
    "kernel-dependent-rows": (
        # rows 2k and 2k+1 are equal, so 3000 stored rows and columns have rank 1500
        lambda d: [
            "linalg", "kernel",
            "--matrix", _file(
                d / "m", "dims 3000 3000\n" + "".join(f"{r} {r // 2 * 2 + e} 1\n" for r in range(3000) for e in (0, 1))
            ),
        ],
        2,
        None,
    ),
    "latin-basis-30": (lambda d: ["latin", "basis", "--n", "30"], 0, {"n": 30, "count": 24389}),
    "latin-rank-200": (lambda d: ["latin", "rank", "--n", "200"], 2, None),
    "span-40": (lambda d: ["cycles", "span", "--n", "40"], 2, None),
    "diamonds-count": (lambda d: ["cycles", "diamonds", "--n", "40"], 0, {"n": 40, "count": 172727100}),
    "diamonds-list": (lambda d: ["cycles", "diamonds", "--n", "40", "--list"], 2, None),
    "count-diamonds-far-vertices": (
        # 20 cycles under the diagonal {0, 24000000} on vertices up to 984000000: every pair is a configuration
        lambda d: [
            "cycles", "count-diamonds",
            "--system", _file(
                d / "s", "n=1000000000\n" + "".join(f"0 {(2 * k + 2) * 24000000} 24000000 {(2 * k + 3) * 24000000}\n" for k in range(20))
            ),
        ],
        0,
        {"n": 1000000000, "cycle_count": 20, "count": 190},
    ),
    "lattice-tall": (
        lambda d: [
            "linalg", "lattice-eq",
            "--a", _file(d / "a", "dims 1000000 600\n999999 0 1\n"),
            "--b", _file(d / "b", "dims 1 600\n0 0 1\n"),
        ],
        0,
        {"cols": 600, "equal": True},
    ),
}

# the child caps its address space at 1 GiB and reports how long main() took
_LIMITED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tradekernel import cli
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(f"main_s {time.perf_counter() - t0:.3f}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_request_answered_within_limits(tmp_path, case):
    build, want_code, want_payload = OVERSIZED[case]
    out = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, *build(tmp_path)],
        env=dict(
            os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)), OPENBLAS_NUM_THREADS="1"
        ),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.returncode == want_code, out.stderr
    *lines, last = out.stderr.splitlines()
    assert last.startswith("main_s ") and float(last.split()[1]) < 1.0, out.stderr
    if want_code == 2:
        assert out.stdout == "" and lines[0].startswith("error: ") and "above the cap" in lines[0]
    else:
        assert json.loads(out.stdout)["payload"] == want_payload


# each --n command, the largest order whose build fits OUTPUT_CAP, and the smallest order it refuses
SIZE_LIMITS = [
    (["latin", "matrix"], 69, 70),
    (["latin", "rank"], 69, 70),
    (["latin", "basis", "--out", "b.txt"], 51, 52),
    (["cycles", "matrix"], 39, 40),
    (["cycles", "rank"], 39, 40),
    (["cycles", "span"], 18, 19),
    (["cycles", "basis"], 18, 19),
    (["cycles", "diamonds", "--list"], 18, 19),
    # 55 and 56 are not 1 mod 8: no system exists, which is answered by arithmetic (exit 1)
    (["cycles", "find"], 54, 57),
    (["cycles", "diamond-free"], 54, 57),
]


@pytest.mark.parametrize("argv,largest,refused", SIZE_LIMITS, ids=lambda x: "-".join(x) if isinstance(x, list) else str(x))
def test_size_preflight_from_n(capsys, argv, largest, refused):
    group, sub, *rest = argv
    _, count = cli._BUILDS[group, sub]
    assert count(cli.build_parser().parse_args([group, sub, "--n", str(largest), *rest])) <= cli.OUTPUT_CAP
    code, out, err = run(capsys, group, sub, "--n", str(refused), *rest)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "above the cap" in err


def test_size_preflight_from_file_order(capsys, tmp_path):
    # cycles decompose and transform build the diamond basis at the order of their input files
    big = cycles.DoubleDiamond((0, 1), (2, 3, 4, 5), 0, 1)
    pair = _file(tmp_path / "d.pair", cycles.format_trade_pair_file(big.trade_pair(19)))
    system = _file(tmp_path / "s.cyc", cycles.format_cycle_system(cycles.find_cycle_system(25)))
    for argv in (
        ["cycles", "decompose", "--trade", pair],
        ["cycles", "decompose", "--a", system, "--b", system],
        ["cycles", "transform", "--a", system, "--b", system],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "above the cap" in err


def test_latin_size_preflight_from_file_order(capsys, tmp_path):
    # latin decompose and transform build n^3 vectors at the order their files declare
    square = _file(tmp_path / "s.sq", _square(101))
    trade = _file(tmp_path / "t.trade", latin.format_trade(latin.intercalate(1, 1, 1, 101)))
    for argv in (["latin", "decompose", "--trade", trade], ["latin", "transform", "--a", square, "--b", square]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "1030301 triple vector entries, above the cap" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """One file of every input kind the CLI reads (two squares and two systems), plus malformed,
    empty, binary and missing ones and a path through a regular file."""
    d = tmp_path_factory.mktemp("fuzz")
    base = cycles.find_cycle_system(9)
    perm = (8, 7, 4, 3, 0, 5, 6, 1, 2)  # an integral relabelling, lifted at lambda 1
    other = cycles.CycleSystem(9, [cycles.canonical_cycle([perm[v] for v in c]) for c in base.cycles])
    texts = {
        "square": _square(4),
        "square-b": latin.format_square(latin.LatinSquare([[(3 * i + j) % 4 for j in range(4)] for i in range(4)])),
        "latin-trade": Path(DATA, "example4.trade").read_text(encoding="utf-8"),
        "system": cycles.format_cycle_system(base),
        "system-relabelled": cycles.format_cycle_system(other),
        "pair": cycles.format_trade_pair_file(cycles.enumerate_double_diamonds(6)[0].trade_pair(6)),
        "matrix": "dims 3 4\n0 0 1\n0 2 -2\n1 1 3\n2 3 1\n",
        # declared dimensions far beyond the entries: never densified
        "matrix-wide": "dims 1 1000000\n0 999999 1\n",
        "matrix-tall": "dims 1000000 8\n999999 7 1\n",
        "malformed": "n=3\n1 2 x\n\n0 0\n",
        "empty": "",
    }
    paths = {name: _file(d / name, text) for name, text in texts.items()}
    paths["binary"] = _file(d / "binary", bytes(range(256)))
    paths["missing"] = str(d / "missing")
    paths["through-file"] = paths["square"] + "/x"
    return paths


def _fuzz_argv(files):
    def mostly(common, rare):
        """a draw from common, one draw in four from rare"""
        return st.sampled_from([common] * 3 + [rare]).flatmap(lambda s: s)

    def f(*kinds):
        """a file of a kind the command reads, or rarely any file: of another kind, malformed, missing..."""
        return mostly(st.sampled_from([files[k] for k in kinds]), st.sampled_from(sorted(files.values())))

    squares, systems = ("square", "square-b"), ("system", "system-relabelled")
    matrices = ("matrix", "matrix-wide", "matrix-tall")
    # 1001 and 1000001 are 1 mod 8, so only the size preflight stops find and diamond-free
    n = st.one_of(st.integers(-2, 10), st.sampled_from([1001, 1000001])).map(str)
    mod = st.sampled_from(["2", "4", "2147483647"])
    budget = st.integers(-1, 2000).map(str)

    def cmd(*parts, extras=()):
        """parts, then up to two of the options the command also reads (--text for every command)"""
        options = st.lists(st.sampled_from([["--text"], *extras]), max_size=2)
        parts = st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))
        return st.tuples(parts, options).map(lambda t: [*t[0], *(x for o in t[1] for x in o)])

    commands = st.one_of(
        cmd("latin", "matrix", "--n", n),
        cmd("latin", "rank", "--n", n),
        cmd("latin", "rank", "--n", n, "--mod", mod),
        cmd("latin", "basis", "--n", n),
        cmd("latin", "decompose", "--trade", f("latin-trade")),
        cmd("latin", "transform", "--a", f(*squares), "--b", f(*squares)),
        cmd("latin", "validate", "--square", f(*squares)),
        cmd("latin", "validate", "--trade", f("latin-trade")),
        cmd("cycles", "matrix", "--n", n),
        cmd("cycles", "rank", "--n", n),
        cmd("cycles", "rank", "--n", n, "--mod", mod),
        cmd("cycles", "diamonds", "--n", n, "--list"),
        cmd("cycles", "span", "--n", n),
        cmd("cycles", "basis", "--n", n),
        cmd("cycles", "decompose", "--trade", f("pair")),
        cmd("cycles", "decompose", "--a", f(*systems), "--b", f(*systems)),
        cmd("cycles", "decompose", "--a", f(*systems)),
        cmd("cycles", "find", "--n", n, "--budget", budget),
        # --jobs stays 1, so no process pool starts
        cmd(
            "cycles", "diamond-free", "--n", n, "--restarts", st.integers(-1, 3).map(str),
            extras=[["--seed", "7"], ["--jobs", "1"], ["--budget", "500"]],
        ),
        cmd("cycles", "count-diamonds", "--system", f(*systems)),
        cmd(
            "cycles", "transform", "--a", f(*systems), "--b", f(*systems),
            "--mode", st.sampled_from(["virtual", "strict", "lifted"]),
            "--lam-max", mostly(st.integers(1, 2), st.just(0)).map(str), "--budget", budget, extras=[["--seed", "7"]],
        ),
        cmd("cycles", "validate", "--system", f(*systems)),
        cmd("cycles", "validate", "--pair", f("pair")),
        cmd("linalg", "rank", "--matrix", f(*matrices)),
        cmd("linalg", "rank", "--matrix", f(*matrices), "--mod", mod),
        cmd("linalg", "kernel", "--matrix", f(*matrices)),
        cmd("linalg", "lattice-eq", "--a", f(*matrices), "--b", f(*matrices)),
    )
    # one draw in ten adds an option no command accepts
    bogus = st.sampled_from([[]] * 9 + [["--bogus"]])
    return st.tuples(commands, bogus).map(lambda t: t[0] + t[1])


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_fuzz_exit_codes(fuzz_files, data):
    # any bounded argv ends in a documented exit code; only argparse may exit on its own
    argv = data.draw(_fuzz_argv(fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
            assert code == 2
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("broken", ["malformed", "empty", "binary", "missing", "through-file"])
def test_broken_input_is_exit_2_in_every_command(capsys, fuzz_files, broken):
    # the fuzz draws these files rarely; here every file-reading command reads one in each of its slots
    for template, names in MUTATED_COMMANDS:
        argv = template.format(*[fuzz_files[broken]] * len(names)).split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


# every file-reading subcommand, its argv with {0} and {1} for its files, and the fixtures they start from
MUTATED_COMMANDS = (
    ("latin decompose --trade {0}", ("latin-trade",)),
    ("latin transform --a {0} --b {1}", ("square-a", "square-b")),
    ("latin validate --square {0}", ("square-a",)),
    ("latin validate --trade {0}", ("latin-trade",)),
    ("cycles validate --system {0}", ("system-a",)),
    ("cycles validate --pair {0}", ("pair",)),
    ("cycles count-diamonds --system {0}", ("system-a",)),
    ("cycles decompose --trade {0}", ("pair",)),
    ("cycles decompose --a {0} --b {1}", ("system-a", "system-b")),
    ("cycles transform --a {0} --b {1} --mode virtual", ("system-a", "system-b")),
    ("cycles transform --a {0} --b {1} --mode strict", ("system-a", "system-b")),
    ("cycles transform --a {0} --b {1} --mode lifted --lam-max 1 --budget 2000", ("system-a", "system-b")),
    ("linalg rank --matrix {0}", ("matrix",)),
    ("linalg kernel --matrix {0}", ("matrix",)),
    ("linalg lattice-eq --a {0} --b {1}", ("lattice-a", "lattice-b")),
)
MUTATED_CASES = 300


def _mutated(rng, text):
    """text after one edit: a line dropped, duplicated or swapped, a truncation, or an integer replaced."""
    lines = text.split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, lines[i])
    elif edit == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == 3:
        return text[: rng.randrange(len(text) + 1)]
    elif edit == 4 and re.search(r"\d", text):
        m = rng.choice(list(re.finditer(r"-?\d+", text)))
        return text[: m.start()] + rng.choice(["-1", "0", str(10**30), "x"]) + text[m.end() :]
    return "\n".join(lines)


def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path):
    # every command reads valid fixtures but one, which has had one or two seeded edits
    lattice = "dims 2 3\n0 0 1\n0 1 2\n1 2 3\n"
    texts = {
        "latin-trade": Path(DATA, "example4.trade").read_text(encoding="utf-8"),
        "square-a": _square(5),
        "square-b": latin.format_square(latin.LatinSquare([[(2 * i + j) % 5 for j in range(5)] for i in range(5)])),
        "system-a": cycles.format_cycle_system(cycles.find_cycle_system(9)),
        "system-b": cycles.format_cycle_system(_one_move_away(cycles.find_cycle_system(9))),
        "pair": cycles.format_trade_pair_file(cycles.diamond_basis(6)[3].trade_pair(6)),
        "matrix": "dims 3 4\n0 0 1\n0 2 -2\n1 1 3\n2 3 1\n",
        "lattice-a": lattice,
        # the same lattice: row 1 plus row 0
        "lattice-b": lattice + "1 0 1\n1 1 2\n",
    }
    rng = random.Random("mutated-inputs")
    for case in range(MUTATED_CASES):
        template, names = rng.choice(MUTATED_COMMANDS)
        edited = rng.randrange(len(names))
        paths = []
        for k, name in enumerate(names):
            text = texts[name]
            if k == edited:
                for _ in range(rng.randint(1, 2)):
                    text = _mutated(rng, text)
            paths.append(_file(tmp_path / f"{case}-{k}", text))
        argv = template.format(*paths).split()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, Path(paths[edited]).read_text(), out.getvalue())
        assert time.perf_counter() - t0 < 2.0, argv


# sha256 of json.dumps(payload, sort_keys=True), recorded with the dense
# mod-p/Bareiss basis selection that the exact sparse elimination replaced
PAYLOAD_SHA256 = {
    ("span", 7): "baf1864a539383d6516dc16d945c688541b1016ed0e43ab91ed1db856d2c81ce",
    ("span", 8): "c6cf6bc9fdf12761f0309de700126a815ced1fd1b0960844ff55e5f978b9eaf2",
    ("span", 9): "4b029b5bee054c98e1bf4487b67ba9e27f654579bdc526df2f287d6b9856bd9c",
    ("basis", 7): "17285bd2baf25bb686d3a1d484ecef00a7f2ca1b404b068966eb534f3e488653",
    ("basis", 8): "33143cfcf5fc5d5a236c90726d0cb0d17de2d99e2d315ecd2d64340f81f29d6c",
    ("basis", 9): "e994b3c3b788eae945dce27a76d18068fcbcf00c390c6e4a8a9effd61f6f86af",
}


# sha256 of the `cycles diamonds --list` payload, recorded when the count came from the enumeration
DIAMONDS_LIST_SHA256 = {
    7: "ec50c413479d2614d5388828b6398187775255f58822ced5d9b4e8f8767740b0",
    9: "405949808e7a5655477c3de922fba2f6a6c0480e98bc7f7b01c18970e04c3eff",
}


@pytest.mark.parametrize("n", sorted(DIAMONDS_LIST_SHA256))
def test_diamond_list_pinned_and_counted(capsys, n):
    code, rep = run_json(capsys, "cycles", "diamonds", "--n", str(n), "--list")
    assert code == 0
    assert hashlib.sha256(json.dumps(rep["payload"], sort_keys=True).encode()).hexdigest() == DIAMONDS_LIST_SHA256[n]
    # without --list the count is the formula, not the enumeration, and the payload is the rest of the above
    code, bare = run_json(capsys, "cycles", "diamonds", "--n", str(n))
    assert code == 0
    assert bare["payload"] == {"n": n, "count": len(rep["payload"]["diamonds"])}


@pytest.mark.parametrize("cmd,n", sorted(PAYLOAD_SHA256))
def test_diamond_payloads_pinned(capsys, cmd, n):
    code, rep = run_json(capsys, "cycles", cmd, "--n", str(n))
    assert code == 0
    if cmd == "span":
        assert rep["payload"]["mode"] == ("exact" if n == 7 else "mod-p certified")
    blob = json.dumps(rep["payload"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PAYLOAD_SHA256[(cmd, n)]


# sha256 of json.dumps(payload, sort_keys=True), recorded while the cover
# search ran on a numpy edge table and padded numpy candidate arrays
SEARCH_PAYLOAD_SHA256 = {
    ("find", "--n", "9"): "b84a3f991c3893f25cfffd1827b91e20f616eccf0e0b80c33766a8b44d7d75a1",
    ("find", "--n", "17"): "6ffd1d17db7c1f303025beea449c7d7823fa06236f067d2e1ad1297392fcd13b",
    ("find", "--n", "25"): "c77c651d8c134f3e6ff8fee36c7dd7e1885db6f7b2188049e73d83f9f1cbea74",
    ("diamond-free", "--n", "9", "--seed", "1"): "aecf73bc378c6d78701ea41e8d73c318a51d0a7e15b4a4d2f3556e6a4a02c5ac",
    ("diamond-free", "--n", "9", "--seed", "2"): "e5d376e88e40cd5b03bcf1084083e2fdaec88b2d0aad3cd7c22ee195f6c56873",
    ("diamond-free", "--n", "9", "--seed", "3"): "be1dcdb88ec61afbef664d7df1bd4506accea500020c10a37b222d252eebe529",
}


@pytest.mark.parametrize("argv", sorted(SEARCH_PAYLOAD_SHA256))
def test_search_payloads_pinned(capsys, argv):
    code, rep = run_json(capsys, "cycles", *argv)
    assert code == 0
    blob = json.dumps(rep["payload"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SEARCH_PAYLOAD_SHA256[argv]


def _isotope(n, rng):
    """A seeded isotope of the cyclic square (rows, columns, symbols permuted)."""
    rp, cp, sp = (rng.sample(range(n), n) for _ in range(3))
    return latin.LatinSquare([[sp[(rp[i] + cp[j]) % n] for j in range(n)] for i in range(n)])


def _seeded_squares(n):
    rng = random.Random(2000 + n)
    return _isotope(n, rng), _isotope(n, rng)


# sha256 of json.dumps(payload, sort_keys=True) for `latin decompose` of the
# difference trade of two seeded squares, recorded with the per-cell
# intercalate reconstruction
LATIN_DECOMPOSE_SHA256 = {
    5: "17f4fbce28ac66ba0384e4cb3373ec34b5302e3ce9ff276f935bdf9f34831f10",
    9: "ce25e5bd5a9b7a339b3564dba9931adfa4e19a2e7192ab19c27770037999b111",
}

# (payload without its plan_out path, plan file) sha256 of `latin transform
# --plan-out` on two seeded squares, recorded with the per-cell replay
LATIN_TRANSFORM_SHA256 = {
    5: (
        "4055183cae4b3b84329d761881b3791e17232fd241b82eb696ddc5d3eb756eeb",
        "8d661b17a01478c9d5d2f173ef857f96adb3d29dcce1f1b78e4109bdafa49a02",
    ),
    9: (
        "f6e344644084963b1521a69c246d447550af6eb5207869b70f46e8bcaa5af38a",
        "e5006e0e2179f0e0ec8232c44ac6d408677497a1dfc9783ef0248cce2996da7a",
    ),
    20: (
        "768a3c416ed87198781e5be181fcac5008b38e0c393613f35c4548e9adf9e98a",
        "2f73127a6a753bb0f4536ae76f4995e44948811ae6c7624f883a4361ae4bfd56",
    ),
}


@pytest.mark.parametrize("n", sorted(LATIN_DECOMPOSE_SHA256))
def test_latin_decompose_payload_pinned(capsys, tmp_path, n):
    a, b = _seeded_squares(n)
    trade = _file(tmp_path / "t.trade", latin.format_trade(latin.difference_trade(a, b)))
    code, rep = run_json(capsys, "latin", "decompose", "--trade", trade)
    assert code == 0 and rep["payload"]["coefficients"]
    blob = json.dumps(rep["payload"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LATIN_DECOMPOSE_SHA256[n]


@pytest.mark.parametrize("n", sorted(LATIN_TRANSFORM_SHA256))
def test_latin_transform_payload_and_plan_pinned(capsys, tmp_path, n):
    a, b = (_file(tmp_path / f"{name}.sq", latin.format_square(sq)) for name, sq in zip("ab", _seeded_squares(n)))
    plan = tmp_path / "plan.txt"
    code, rep = run_json(capsys, "latin", "transform", "--a", a, "--b", b, "--plan-out", str(plan))
    assert code == 0 and rep["payload"].pop("plan_out") == str(plan)
    assert rep["payload"]["moves"]
    blob = json.dumps(rep["payload"], sort_keys=True).encode()
    got = (hashlib.sha256(blob).hexdigest(), hashlib.sha256(plan.read_bytes()).hexdigest())
    assert got == LATIN_TRANSFORM_SHA256[n]


# Run in a fresh interpreter: the modules a command leaves loaded, as
# [exit code, numpy and process pools, tradekernel submodules]. An empty
# argv only imports the CLI.
_LOADED_PROBE = """
import contextlib, io, json, sys
from tradekernel import cli
argv = json.loads(sys.argv[1])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([
    code,
    [m for m in ("numpy", "concurrent.futures") if m in sys.modules],
    sorted(m for m in sys.modules if m.startswith("tradekernel.")),
]))
"""

# every command loads the CLI with its shared modules, and only its own group's module on top
_CORE_MODULES = ["tradekernel.cli", "tradekernel.errors", "tradekernel.exactla", "tradekernel.kernels", "tradekernel.primes"]
_GROUP_MODULES = {"latin": ["tradekernel.latin"], "cycles": ["tradekernel.cycles"], "linalg": []}


def _loaded(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _group_modules(argv):
    return sorted(_CORE_MODULES + (_GROUP_MODULES[argv[0]] if argv else []))


# every subcommand, and the bare import
_NUMPY_FREE = {
    "import": [],
    "latin-matrix": ["latin", "matrix", "--n", "3"],
    "latin-basis": ["latin", "basis", "--n", "4", "--out", "{d}/lb.txt"],
    "latin-decompose": ["latin", "decompose", "--trade", f"{DATA}/example4.trade"],
    "latin-transform": ["latin", "transform", "--a", "{d}/a.sq", "--b", "{d}/b.sq", "--plan-out", "{d}/p.txt"],
    "latin-validate": ["latin", "validate", "--square", "{d}/a.sq"],
    "cycles-matrix": ["cycles", "matrix", "--n", "5"],
    "cycles-rank": ["cycles", "rank", "--n", "6"],
    "count-diamonds-9": ["cycles", "count-diamonds", "--system", "{d}/a.cyc"],
    "cycles-validate": ["cycles", "validate", "--pair", "{d}/t.tp"],
    "linalg-rank": ["linalg", "rank", "--matrix", "{m}"],
    "latin-rank": ["latin", "rank", "--n", "6"],
    "linalg-kernel": ["linalg", "kernel", "--matrix", "{m}"],
    "lattice-eq": ["linalg", "lattice-eq", "--a", "{m}", "--b", "{m}"],
    "span-7": ["cycles", "span", "--n", "7"],
    "basis-7": ["cycles", "basis", "--n", "7"],
    "diamonds-9": ["cycles", "diamonds", "--n", "9"],
    "find-25": ["cycles", "find", "--n", "25"],
    "diamond-free-9": ["cycles", "diamond-free", "--n", "9", "--seed", "1"],
    "decompose-trade-9": ["cycles", "decompose", "--trade", "{d}/t.tp"],
    "decompose-systems-9": ["cycles", "decompose", "--a", "{d}/a.cyc", "--b", "{d}/b.cyc"],
    "transform-virtual-9": ["cycles", "transform", "--a", "{d}/a.cyc", "--b", "{d}/b.cyc", "--mode", "virtual"],
}


def _command_files(d):
    """The input files of _NUMPY_FREE and _WITHOUT_NUMPY, written to directory d; the matrix file's path."""
    m = _file(d / "m.txt", "dims 3 4\n0 0 1\n0 1 2\n1 2 -1\n2 3 3\n")
    cs = cycles.find_cycle_system(9)
    cs2 = _one_move_away(cs)
    _file(d / "a.cyc", cycles.format_cycle_system(cs))
    _file(d / "b.cyc", cycles.format_cycle_system(cs2))
    tp = cycles.CycleTradePair(9, set(cs.cycles) - set(cs2.cycles), set(cs2.cycles) - set(cs.cycles))
    _file(d / "t.tp", cycles.format_trade_pair_file(tp))
    _file(d / "a.sq", _square(5))
    _file(d / "b.sq", latin.format_square(latin.LatinSquare([[(2 * i + j) % 5 for j in range(5)] for i in range(5)])))
    _file(d / "bad.sq", "n=2\n0 1\n0 1\n")
    return m


@pytest.mark.parametrize("case", sorted(_NUMPY_FREE))
def test_command_loads_neither_numpy_nor_process_pools(tmp_path, case):
    m = _command_files(tmp_path)
    argv = [a.format(m=m, d=tmp_path) for a in _NUMPY_FREE[case]]
    assert _loaded(argv) == [0, [], _group_modules(argv)]


# one call of each of the 20 subcommands, and its exit code with numpy installed
_WITHOUT_NUMPY = [
    (["latin", "matrix", "--n", "3"], 0),
    (["latin", "rank", "--n", "4", "--mod", "7"], 0),
    (["latin", "basis", "--n", "3"], 0),
    (["latin", "decompose", "--trade", f"{DATA}/example4.trade"], 0),
    (["latin", "transform", "--a", "{d}/a.sq", "--b", "{d}/b.sq"], 0),
    (["latin", "validate", "--square", "{d}/bad.sq"], 1),
    (["cycles", "matrix", "--n", "5"], 0),
    (["cycles", "rank", "--n", "6"], 0),
    (["cycles", "diamonds", "--n", "7", "--list"], 0),
    (["cycles", "span", "--n", "5"], 1),
    (["cycles", "basis", "--n", "6"], 0),
    (["cycles", "decompose", "--a", "{d}/a.cyc", "--b", "{d}/b.cyc"], 0),
    (["cycles", "find", "--n", "10"], 1),
    (["cycles", "diamond-free", "--n", "9", "--seed", "1"], 0),
    (["cycles", "count-diamonds", "--system", "{d}/a.cyc"], 0),
    (["cycles", "transform", "--a", "{d}/a.cyc", "--b", "{d}/b.cyc", "--mode", "strict"], 0),
    (["cycles", "validate", "--pair", "{d}/t.tp"], 0),
    (["linalg", "rank", "--matrix", "{m}"], 0),
    (["linalg", "kernel", "--matrix", "{m}"], 0),
    (["linalg", "lattice-eq", "--a", "{m}", "--b", "{m}"], 0),
]

_NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from tradekernel import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def test_every_subcommand_runs_without_numpy(tmp_path):
    m = _command_files(tmp_path)
    assert len({tuple(argv[:2]) for argv, _ in _WITHOUT_NUMPY}) == 20
    argvs = [[a.format(m=m, d=tmp_path) for a in argv] for argv, _ in _WITHOUT_NUMPY]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [code for _, code in _WITHOUT_NUMPY]


# one call of every latin and linalg subcommand, and the cycles commands that read files
_GROUP_ONLY = {
    "latin-matrix": ["latin", "matrix", "--n", "3", "--out", "{d}/lm.txt"],
    "latin-basis": ["latin", "basis", "--n", "3", "--out", "{d}/lb.txt"],
    "latin-decompose": ["latin", "decompose", "--trade", f"{DATA}/example4.trade"],
    "latin-transform": ["latin", "transform", "--a", "{d}/a.sq", "--b", "{d}/b.sq", "--plan-out", "{d}/p.txt"],
    "latin-validate-square": ["latin", "validate", "--square", "{d}/a.sq"],
    "latin-validate-trade": ["latin", "validate", "--trade", f"{DATA}/example4.trade"],
    "linalg-rank": ["linalg", "rank", "--matrix", "{d}/m.txt"],
    "linalg-rank-mod": ["linalg", "rank", "--matrix", "{d}/m.txt", "--mod", "7"],
    "linalg-kernel-out": ["linalg", "kernel", "--matrix", "{d}/m.txt", "--out", "{d}/k.txt"],
    "cycles-matrix": ["cycles", "matrix", "--n", "5"],
    "cycles-validate": ["cycles", "validate", "--system", "{d}/s.cyc"],
    "cycles-count-diamonds": ["cycles", "count-diamonds", "--system", "{d}/s.cyc"],
}


@pytest.mark.parametrize("case", sorted(_GROUP_ONLY))
def test_command_loads_only_its_group_module(tmp_path, case):
    _file(tmp_path / "m.txt", "dims 3 4\n0 0 1\n0 1 2\n1 2 -1\n2 3 3\n")
    _file(tmp_path / "a.sq", _square(4))
    _file(tmp_path / "b.sq", latin.format_square(latin.LatinSquare([[(i - j) % 4 for j in range(4)] for i in range(4)])))
    _file(tmp_path / "s.cyc", cycles.format_cycle_system(cycles.find_cycle_system(9)))
    argv = [a.format(d=tmp_path) for a in _GROUP_ONLY[case]]
    code, _, modules = _loaded(argv)
    assert (code, modules) == (0, _group_modules(argv))


def test_jsonable_numpy_integers():
    import numpy as np

    assert cli._jsonable(np.int64(5)) == 5
    assert type(cli._jsonable(np.int64(5))) is int
    assert cli._jsonable(np.int64(2**60)) == str(2**60)
    assert cli._jsonable([np.int32(-7), True]) == [-7, True]


class TestGolden:
    def test_example_trade_decomposition(self, capsys):
        code, rep = run_json(capsys, "latin", "decompose", "--trade", f"{DATA}/example4.trade")
        assert code == 0
        assert rep["payload"]["coefficients"] == {
            "1,1,1": 1,
            "1,1,2": -1,
            "2,2,2": 1,
            "2,2,3": -1,
            "3,3,3": 1,
        }


class TestRoundTrips:
    def test_found_system_passes_validate(self, capsys, tmp_path):
        f = tmp_path / "sys.cyc"
        code, _ = run_json(capsys, "cycles", "find", "--n", "9", "--out", str(f))
        assert code == 0
        code, rep = run_json(capsys, "cycles", "validate", "--system", str(f))
        assert code == 0 and rep["payload"]["valid"] is True
        code, rep = run_json(capsys, "cycles", "count-diamonds", "--system", str(f))
        assert code == 0

    def test_matrix_dump_feeds_linalg(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        run_json(capsys, "latin", "matrix", "--n", "2", "--out", str(f))
        code, rep = run_json(capsys, "linalg", "rank", "--matrix", str(f))
        assert code == 0
        assert rep["payload"]["rank"] == 7

    def test_kernel_then_lattice_eq_self(self, capsys, tmp_path):
        m = tmp_path / "m.txt"
        k = tmp_path / "k.txt"
        run_json(capsys, "latin", "matrix", "--n", "2", "--out", str(m))
        run_json(capsys, "linalg", "kernel", "--matrix", str(m), "--out", str(k))
        code, rep = run_json(capsys, "linalg", "lattice-eq", "--a", str(k), "--b", str(k))
        assert code == 0 and rep["payload"]["equal"] is True

    def test_basis_stack_spans_kernel_rationally(self, capsys, tmp_path):
        b = tmp_path / "b.txt"
        run_json(capsys, "latin", "basis", "--n", "3", "--out", str(b))
        code, rep = run_json(capsys, "linalg", "rank", "--matrix", str(b))
        assert code == 0
        assert rep["payload"]["rank"] == 8

    def test_transform_plan_file_parses(self, capsys, tmp_path):
        rng = random.Random(4)
        names = []
        for t in range(2):
            perm = list(range(4))
            rng.shuffle(perm)
            sq = latin.LatinSquare([[perm[(i + j) % 4] for j in range(4)] for i in range(4)])
            f = tmp_path / f"s{t}.sq"
            f.write_text(latin.format_square(sq))
            names.append(str(f))
        plan_file = tmp_path / "plan.txt"
        code, rep = run_json(
            capsys, "latin", "transform", "--a", names[0], "--b", names[1],
            "--plan-out", str(plan_file),
        )
        assert code == 0
        moves, improper_max = latin.parse_move_plan(plan_file.read_text())
        assert [list(m) for m in moves] == rep["payload"]["moves"]
        assert improper_max == rep["payload"]["improper_max"]

    def test_cycle_transform_plan_file_parses(self, capsys, tmp_path):
        # two systems one diamond move apart: both searches find that move at lambda 1
        cs = cycles.find_cycle_system(9)
        cs2 = _one_move_away(cs)
        a = tmp_path / "a.cyc"
        b = tmp_path / "b.cyc"
        a.write_text(cycles.format_cycle_system(cs))
        b.write_text(cycles.format_cycle_system(cs2))
        plan = tmp_path / "plan.txt"
        for mode in ("lifted", "strict"):
            code, rep = run_json(
                capsys, "cycles", "transform", "--a", str(a), "--b", str(b),
                "--mode", mode, "--plan-out", str(plan),
            )
            assert code == 0
            payload = rep["payload"]
            assert (payload["result"], payload["mode"], payload["lambda"], payload["audit"]) == ("plan", mode, 1, [0])
            moves, lam = cycles.parse_cycle_move_plan(plan.read_text())
            assert lam == payload["lambda"]
            assert len(moves) == len(payload["moves"]) == 1


class TestStochastic:
    def test_diamond_free_deterministic_for_seed(self, capsys):
        outs = []
        for _ in range(2):
            code, rep = run_json(
                capsys, "cycles", "diamond-free", "--n", "9", "--restarts", "100", "--seed", "2"
            )
            rep.pop("timing_s")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]

    def test_restart_shares_split_exactly(self):
        for restarts in range(1, 61):
            for jobs in range(1, restarts + 1):
                shares = cli._restart_shares(restarts, jobs)
                assert len(shares) == jobs and sum(shares) == restarts
                assert min(shares) >= 1 and max(shares) - min(shares) <= 1

    def test_jobs_run_only_the_requested_restarts(self, capsys):
        # chunk 1 (seed 16 + 1000003) finds a system on its second restart, which
        # it runs only when each of the two chunks is given ceil(3 / 2) = 2
        code, rep = run_json(
            capsys, "cycles", "diamond-free", "--n", "9", "--restarts", "3", "--jobs", "2", "--seed", "16"
        )
        assert code == 1 and rep["payload"]["found"] is False
        assert rep["payload"]["restarts"] == 3
        assert isinstance(cycles.search_diamond_free(9, seed=16 + 1000003, restarts=2), cycles.CycleSystem)

    @pytest.mark.parametrize("restarts", ["3", "40"])
    def test_jobs_run_in_process_on_one_cpu(self, capsys, monkeypatch, restarts):
        # one worker runs the chunks in process; the payload does not depend on where they ran
        argv = ["cycles", "diamond-free", "--n", "9", "--restarts", restarts, "--jobs", "2", "--seed", "16"]
        reps = []
        for cpus in (2, 1):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, rep = run_json(capsys, *argv)
            rep.pop("timing_s")
            reps.append((code, rep))
        assert reps[0] == reps[1]

    def test_jobs_split_is_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, rep = run_json(
                capsys, "cycles", "diamond-free", "--n", "9",
                "--restarts", "40", "--jobs", "2",
            )
            assert code in (0, 1)
            rep.pop("timing_s")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]
