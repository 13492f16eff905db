"""Exit codes, report envelopes, payload stability, file round-trips."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import tradekernel
from tradekernel import cycles, latin
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


@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "span", "--n", "3"],
        ["cycles", "rank", "--n", "2"],
        ["cycles", "basis", "--n", "3"],
        ["latin", "rank", "--n", "0"],
    ],
)
def test_order_below_minimum_is_usage_error(argv):
    src = os.path.dirname(os.path.dirname(tradekernel.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "tradekernel.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "argument --n: must be at least" in out.stderr


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
