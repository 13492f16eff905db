"""Exit codes, report envelopes, payload stability, file round-trips."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
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


# inputs that used to end in a traceback and exit 1; each builds its argv in a directory
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
    "lattice-above-cap": lambda d: [
        "linalg", "lattice-eq",
        "--a", _file(d / "a", f"dims 1 {exactla.LATTICE_DIM_CAP + 1}\n0 0 1\n"),
        "--b", _file(d / "b", f"dims 1 {exactla.LATTICE_DIM_CAP + 1}\n0 1 1\n"),
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_format_error(capsys, tmp_path, case):
    code, out, err = run(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def run_process(argv):
    """Run the CLI in a fresh interpreter; leading NAME=value items set the environment."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tradekernel.__file__)))
    while argv and "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        env[name] = value
        argv = argv[1:]
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
        ["TRADE_KERNEL_BUDGET=abc", "cycles", "find", "--n", "9"],
        ["cycles", "diamond-free", "--n", "9", "--jobs", "-3"],
        ["cycles", "diamond-free", "--n", "9", "--jobs", "0"],
    ],
)
def test_order_below_minimum_is_usage_error(argv):
    # every input checked at parse time is refused with a usage message naming it
    out = run_process(argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("usage: tradekernel")
    bad = argv[0].partition("=")[0] if "=" in argv[0] else f"argument {argv[-2]}: "
    assert bad in out.stderr.splitlines()[-1]


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
    # a corrupted coefficient makes the replay miss the goal; under -O the
    # check must still fire and the CLI must report it with exit code 3
    files = []
    for t, shift in enumerate((1, 2)):
        sq = latin.LatinSquare([[(i * shift + j) % 5 for j in range(5)] for i in range(5)])
        files.append(tmp_path / f"s{t}.sq")
        files[-1].write_text(latin.format_square(sq))
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from tradekernel import cli, latin\n"
        "decompose = latin.decompose\n"
        "def corrupt(v):\n"
        "    coeffs = decompose(v)\n"
        "    coeffs[min(coeffs)] += 1\n"
        "    return coeffs\n"
        "latin.decompose = corrupt\n"
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


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """One file of every input kind the CLI reads, plus malformed, empty, binary and missing ones."""
    d = tmp_path_factory.mktemp("fuzz")
    base = cycles.find_cycle_system(9)
    perm = (8, 7, 4, 3, 0, 5, 6, 1, 2)  # an integral relabelling, lifted at lambda 1
    other = cycles.CycleSystem(9, [cycles.canonical_cycle([perm[v] for v in c]) for c in base.cycles])
    texts = {
        "square": _square(4),
        "latin-trade": Path(DATA, "example4.trade").read_text(encoding="utf-8"),
        "system": cycles.format_cycle_system(base),
        "system-relabelled": cycles.format_cycle_system(other),
        "pair": cycles.format_trade_pair_file(cycles.enumerate_double_diamonds(6)[0].trade_pair(6)),
        "matrix": "dims 3 4\n0 0 1\n0 2 -2\n1 1 3\n2 3 1\n",
        "malformed": "n=3\n1 2 x\n\n0 0\n",
        "empty": "",
    }
    paths = {name: _file(d / name, text) for name, text in texts.items()}
    paths["binary"] = _file(d / "binary", bytes(range(256)))
    paths["missing"] = str(d / "missing")
    return paths


def _fuzz_argv(files):
    f = st.sampled_from(sorted(files.values()))
    n = st.integers(-2, 10).map(str)
    mod = st.sampled_from(["2", "4", "2147483647"])
    budget = st.integers(-1, 2000).map(str)

    def cmd(*parts):
        return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)

    commands = st.one_of(
        cmd("latin", "matrix", "--n", n),
        cmd("latin", "rank", "--n", n),
        cmd("latin", "rank", "--n", n, "--mod", mod),
        cmd("latin", "basis", "--n", n),
        cmd("latin", "decompose", "--trade", f),
        cmd("latin", "transform", "--a", f, "--b", f),
        cmd("latin", "validate", "--square", f),
        cmd("latin", "validate", "--trade", f),
        cmd("cycles", "matrix", "--n", n),
        cmd("cycles", "rank", "--n", n),
        cmd("cycles", "rank", "--n", n, "--mod", mod),
        cmd("cycles", "diamonds", "--n", n, "--list"),
        cmd("cycles", "span", "--n", n),
        cmd("cycles", "basis", "--n", n),
        cmd("cycles", "decompose", "--trade", f),
        cmd("cycles", "decompose", "--a", f, "--b", f),
        cmd("cycles", "decompose", "--a", f),
        cmd("cycles", "find", "--n", n, "--budget", budget),
        cmd("cycles", "diamond-free", "--n", n, "--restarts", st.integers(-1, 3).map(str)),
        cmd("cycles", "count-diamonds", "--system", f),
        cmd(
            "cycles", "transform", "--a", f, "--b", f, "--mode", st.sampled_from(["virtual", "strict", "lifted"]),
            "--lam-max", st.integers(0, 2).map(str), "--budget", budget,
        ),
        cmd("cycles", "validate", "--system", f),
        cmd("cycles", "validate", "--pair", f),
        cmd("linalg", "rank", "--matrix", f),
        cmd("linalg", "rank", "--matrix", f, "--mod", mod),
        cmd("linalg", "kernel", "--matrix", f),
        cmd("linalg", "lattice-eq", "--a", f, "--b", f),
    )
    # --jobs stays 1, so no process pool starts
    extras = st.lists(st.sampled_from([["--text"], ["--seed", "7"], ["--jobs", "1"], ["--bogus"]]), max_size=2)
    return st.tuples(commands, extras).map(lambda t: t[0] + [x for e in t[1] for x in e])


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


@pytest.mark.parametrize("cmd,n", sorted(PAYLOAD_SHA256))
def test_diamond_payloads_pinned(capsys, cmd, n):
    code, rep = run_json(capsys, "cycles", cmd, "--n", str(n))
    assert code == 0
    if cmd == "span":
        assert rep["payload"]["mode"] == ("exact" if n == 7 else "mod-p certified")
    blob = json.dumps(rep["payload"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PAYLOAD_SHA256[(cmd, n)]


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
        cs = cycles.find_cycle_system(9)
        pairs = cycles.diamond_config_pairs(cs)
        sign, d = cycles._config_pair_moves(*pairs[0])[0]
        from collections import Counter

        cs2 = cycles.CycleSystem(9, list(cycles.apply_diamond_move(
            Counter({c: 1 for c in cs.cycles}), d, sign)))
        a = tmp_path / "a.cyc"
        b = tmp_path / "b.cyc"
        a.write_text(cycles.format_cycle_system(cs))
        b.write_text(cycles.format_cycle_system(cs2))
        plan = tmp_path / "plan.txt"
        code, rep = run_json(
            capsys, "cycles", "transform", "--a", str(a), "--b", str(b),
            "--mode", "lifted", "--plan-out", str(plan),
        )
        assert code == 0
        assert rep["payload"]["result"] == "plan"
        moves, lam = cycles.parse_cycle_move_plan(plan.read_text())
        assert lam == rep["payload"]["lambda"]
        assert len(moves) == len(rep["payload"]["moves"])


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
