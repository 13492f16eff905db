"""The cold-cli workload: each operation is a fresh `python -m tradekernel.cli` process.

Every cycles command at n >= 8 rebuilds the diamond basis in its own
process, so this workload is dominated by interpreter start, import,
the elimination kernels and the exact Bareiss checks. n = 7 takes the
exact Bareiss branch of the span rank and n >= 8 the mod-p branch, so
the mix sits on both sides of that switch. The job order is fixed; the
seed fixes the contents of the input files.
"""

import hashlib
import itertools
import json
import shutil
import statistics
import sys
from math import comb

import inputs
import loop
import machine
import speed
import verify

# One pass, in run order: (class, command). The classes take 12-24 % of a pass
# each and the two 4CS(9) commands about a third, since each rebuilds the n=9
# basis and one of each is the least the mix can hold. Approximate times per
# command: span/basis 7 0.45/0.5 s, span/basis 8 0.5/0.8 s, span/basis 9 2.3/4.8 s,
# decompose/transform 9 5 s, find --n 25 0.6 s, other small commands 0.25-0.45 s.
# Nine commands take longer than basis 7, so the tail (the 11th largest) falls on
# it or on the about as fast span 7 and span 8, which the pass repeats as well.
PASS = (
    ("n7", "span 7"), ("small", "latin-rank"), ("n8", "basis 8"), ("n7", "basis 7"),
    ("small", "find-25"), ("n9", "span 9"), ("n8", "span 8"), ("small", "linalg-kernel"),
    ("n7", "span 7"), ("4cs9", "decompose 9"), ("small", "lattice-eq"), ("n7", "basis 7"),
    ("small", "diamond-free"), ("n8", "basis 8"), ("small", "latin-rank"), ("n7", "span 7"),
    ("small", "linalg-kernel"), ("n8", "span 8"), ("small", "lattice-eq"), ("n9", "basis 9"),
    ("n7", "basis 7"), ("small", "diamond-free"), ("n8", "basis 8"), ("small", "find-25"),
    ("4cs9", "transform 9"), ("n7", "span 7"), ("small", "latin-rank"), ("n8", "span 8"),
    ("small", "linalg-kernel"), ("n7", "basis 7"), ("small", "lattice-eq"), ("small", "diamond-free"),
)
# setup_s is the median of the import probes, one after every IMPORT_EVERY-th
# command, so they sample the machine over the whole pass as the commands do;
# the process probe of speed.py runs next to each
IMPORT_EVERY = 4
# `cycles diamond-free` exits 1 with found: false when the search finds no system
NOT_FOUND_EXIT = 1
OP_TIMEOUT = 120.0


class ColdCli:
    """Writes each pass's input files and runs and verifies its commands."""

    def __init__(self, seed, trace):
        from tradekernel import cycles

        self.cycles = cycles
        self.seed = seed
        self.trace = trace
        self.work = machine.scratch_dir(f"cold-cli-{seed}")
        self.base9 = cycles.find_cycle_system(9)
        self.pairs = [inputs.relabel(cycles, self.base9, perm) for perm in inputs.catalogue()]
        self.jobs = None
        self.memo = {}
        self.dumps = []
        self.ops = 0
        self.peak_rss = 0.0

    def _write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _system_file(self, name, cs):
        return self._write(name, self.cycles.format_cycle_system(cs)), verify.system_counter(
            [list(c) for c in cs.cycles]
        )

    def make_pass(self, p):
        """The same commands on the same input files in every pass, in PASS order."""
        if self.jobs is None:
            self.jobs = self._make_jobs()
        return self.jobs

    def _make_jobs(self):
        rng = inputs.rng_for(self.seed, "cold-cli", "jobs")
        search_seeds = iter(inputs.search_seeds(sum(1 for _, what in PASS if what == "diamond-free")))
        # one input file per command kind, so repeats of a command in a pass are
        # runs of the same operation
        dense = inputs.int_matrix(rng, 10, 16)
        matrix = self._write("m.txt", inputs.dump_matrix(dense))
        lattices = {}
        for equal in (True, False):
            ga, gb = inputs.lattice_pair(rng, 6, 10, equal)
            names = (self._write(f"lattice-{equal}-a.txt", inputs.dump_matrix(ga)),
                     self._write(f"lattice-{equal}-b.txt", inputs.dump_matrix(gb)))
            lattices[equal] = names
        turns = itertools.cycle((True, False))  # equal and unequal lattice pairs in turn
        # catalogue pairs in a fixed rotation, so every run makes the same plans
        catalogue = itertools.cycle(self.pairs)
        base, base_counter = self._system_file("base9.txt", self.base9)
        ops = []
        for i, (cls, what) in enumerate(PASS):
            kind, _, arg = what.partition(" ")
            key, exits = what, (0,)
            if kind in ("span", "basis"):
                argv, check = ["cycles", kind, "--n", arg], self._check_rank(kind, int(arg))
            elif kind == "decompose":
                other = inputs.relabel(self.cycles, self.base9, inputs.permutation(rng, 9))
                b, cb = self._system_file(f"{i}-b.txt", other)
                argv = ["cycles", "decompose", "--a", base, "--b", b]
                check, key = self._check_decompose(base_counter, cb), f"{what} #{i}"
            elif kind == "transform":
                b, cb = self._system_file(f"{i}-b.txt", next(catalogue))
                argv = ["cycles", "transform", "--a", base, "--b", b, "--mode", "virtual"]
                check, key = self._check_transform(base_counter, cb), f"{what} #{i}"
            elif kind == "latin-rank":
                argv, check = ["latin", "rank", "--n", "6"], _check_latin_rank(6)
            elif kind == "find-25":
                argv, check = ["cycles", "find", "--n", "25"], _check_find(25)
            elif kind == "linalg-kernel":
                argv, check = ["linalg", "kernel", "--matrix", matrix], _check_kernel(dense)
            elif kind == "lattice-eq":
                equal = next(turns)
                a, b = lattices[equal]
                argv, check, key = ["linalg", "lattice-eq", "--a", a, "--b", b], _check_lattice(equal), f"{what} {equal}"
            elif kind == "diamond-free":
                s = next(search_seeds)
                argv, key = ["cycles", "diamond-free", "--n", "9", "--seed", str(s)], f"{what} {s}"
                check, exits = _check_diamond_free(9), (0, NOT_FOUND_EXIT)
            else:
                raise ValueError(what)
            ops.append((key, cls, argv, check, exits))
        return ops

    def _check_rank(self, kind, n):
        kdim = verify.kernel_dim(n)

        def check(payload):
            if kind == "span":
                want = {
                    "n": n,
                    "rows": comb(n, 2),
                    "cols": 3 * comb(n, 4),
                    "rank": 3 * comb(n, 4) - kdim,
                    "nullity": kdim,
                    "diamond_count": 3 * comb(n, 2) * comb(n - 2, 4),
                    "diamond_span_rank": kdim,
                    "deficient": False,
                }
                bad = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
                return (f"span payload fields {bad}" if bad else None), None, None
            lines = payload["diamonds"]
            if payload["size"] != len(lines) or payload["kernel_dim"] != kdim:
                return "basis size fields disagree", None, None
            key = hashlib.sha256(json.dumps([n, lines]).encode()).hexdigest()
            if key not in self.memo:  # identical output, identical verdict
                self.memo[key] = verify.basis_error(n, [verify.parse_move(ln)[1] for ln in lines])
            return self.memo[key], None, None

        return check

    def _check_decompose(self, ca, cb):
        target = verify.difference(ca, cb)

        def check(payload):
            terms = [(verify.parse_move(ln)[1], verify.as_fraction(c)) for ln, c in payload["coefficients"]]
            integral = all(c.denominator == 1 for _, c in terms)
            if payload["integral"] != integral or payload["support_size"] != len(terms):
                return "decompose summary fields disagree with the coefficients", None, None
            return verify.recombination_error(terms, target), None, None

        return check

    def _check_transform(self, ca, cb):
        def check(payload):
            if payload["result"] == "certificate":
                terms = [(verify.parse_move(ln)[1], verify.as_fraction(c)) for ln, c in payload["support"]]
                return verify.recombination_error(terms, verify.difference(ca, cb)), None, None
            moves = [verify.parse_move(ln) for ln in payload["moves"]]
            if payload["lambda"] != 1:
                return "virtual plan with lambda != 1", None, None
            return verify.replay_error(ca, cb, moves, False, payload["audit"]), None, len(moves)

        return check

    def run_op(self, op):
        key, cls, argv, check, exits = op
        tag = f"op{self.ops}"
        self.ops += 1
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        if self.trace:
            spans = self.work / f"{tag}.spans.json"
            cmd = [sys.executable, str(machine.BENCH / "cli_traced.py"), str(spans), tag, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "tradekernel.cli"] + argv
        rc, secs, rss, _ = machine.spawn(cmd, out_path, err_path, OP_TIMEOUT)
        self.peak_rss = max(self.peak_rss, rss)
        if self.trace and spans.exists():
            self.dumps.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return judge(key, cls, check, exits, rc, secs, stdout, stderr)


def judge(key, cls, check, exits, rc, secs, stdout, stderr):
    """The Result of one finished command: its exit code and its verified payload.

    An exit code outside `exits` fails the operation. A search that reports
    found: false must exit NOT_FOUND_EXIT, and one that found a system 0.
    """
    if rc not in exits:
        return loop.Result(key, cls, secs, error=f"exit {rc}: {stderr.strip()[-300:]}")
    try:
        error, found, moves = check(json.loads(stdout)["payload"])
    except (ValueError, KeyError, TypeError) as e:
        error, found, moves = f"unreadable report: {type(e).__name__}: {e}", None, None
    if not error and (rc == NOT_FOUND_EXIT) != (found is False):
        error = f"exit {rc} with found: {found}"
    return loop.Result(key, cls, secs, error, found, moves)


def _check_latin_rank(n):
    want = {"rows": 3 * n * n, "cols": n**3, "rank": 3 * n * n - 3 * n + 1, "nullity": (n - 1) ** 3}

    def check(payload):
        bad = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
        return (f"latin rank payload fields {bad}" if bad else None), None, None

    return check


def _check_find(n):
    def check(payload):
        return verify.cycle_system_error(n, payload["cycles"]), None, None

    return check


def _check_kernel(dense):
    def check(payload):
        basis = payload["basis"]
        if payload["nullity"] != len(basis):
            return "nullity disagrees with the basis", None, None
        return verify.kernel_error(dense, len(dense[0]), basis), None, None

    return check


def _check_lattice(equal):
    def check(payload):
        return (None if payload["equal"] is equal else f"lattice-eq says {payload['equal']}"), None, None

    return check


def _check_diamond_free(n):
    def check(payload):
        if payload["found"] is False:
            bad = None if payload["best_count"] > 0 else "search reports best count 0 without a system"
            return bad, False, None
        return verify.diamond_free_error(n, payload["cycles"]), True, None

    return check


def probe_seconds(work, args):
    """Wall time of a fresh interpreter run with `args`."""
    rc, secs, _, _ = machine.spawn([sys.executable, *args], work / "probe.out", work / "probe.err", OP_TIMEOUT)
    if rc != 0:
        raise machine.SetupError(f"python {' '.join(args)} failed: " + (work / "probe.err").read_text())
    return secs


def import_seconds(work):
    """Wall time of a fresh interpreter that imports tradekernel.cli."""
    return probe_seconds(work, ("-c", "import tradekernel.cli"))


def run(seed, seconds, trace):
    """(results, (setup_s at the reference speed, unscaled), peak RSS MB, per-layer dumps,
    untraced rate, traced rate)."""
    bench = ColdCli(seed, trace=False)
    if not trace:
        import_seconds(bench.work)  # the first start compiles bytecode into the checkout; not measured
        imports = []

        def run_op(op):
            r = bench.run_op(op)
            if bench.ops % IMPORT_EVERY == 0:
                r.slowdown = probe_seconds(bench.work, speed.PROCESS_ARGV) / speed.PROCESS_REFERENCE_S
                imports.append(import_seconds(bench.work))
            return r

        results, _ = loop.run_passes(bench.make_pass, run_op, seconds)
        shutil.rmtree(bench.work)
        setup = statistics.median(imports)
        scaled = setup / speed.factor([r.slowdown for r in results if r.slowdown is not None])
        return results, (scaled, setup), bench.peak_rss, [], None, None
    traced_bench = ColdCli(seed, trace=True)
    traced = []

    def run_both(op):
        # untraced, then traced right after it, so a drift in machine speed hits both
        result = bench.run_op(op)
        traced.append(traced_bench.run_op(op))
        return result

    untraced, _ = loop.run_passes(bench.make_pass, run_both, seconds / 2)
    shutil.rmtree(bench.work)
    return (
        untraced + traced,
        None,
        max(bench.peak_rss, traced_bench.peak_rss),
        traced_bench.dumps,
        loop.rate(untraced),
        loop.rate(traced),
    )
