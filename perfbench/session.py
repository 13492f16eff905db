"""One library session: the warm-decompose and search workloads.

run.py starts this as a child process, several times per run:

    python3 perfbench/session.py --workload W --seed S --seconds T --trace 0|1 \
        --role setup|work --out FILE

The child imports the package and builds the caches the workload needs
before its first operation (setup), and records when setup ended. With
--role work it then generates its inputs once and runs the same job list
in whole passes, each in its own seeded order, at least MIN_PASSES of
them, verifying each output outside the timed call and timing the
reference workload of speed.py right before each operation. It writes
one JSON object to FILE. With --trace 1 setup is traced, each operation
runs untraced and then again traced, and the spans go into FILE as well.
"""

import argparse
import itertools
import json
import time
from collections import Counter
from dataclasses import asdict

import inputs
import loop
import machine
import speed
import tracing
import verify


def _cycle_lists(cs):
    return [list(c) for c in cs.cycles]


class Session:
    """The package modules, the caches built in setup, and the inputs built from them."""

    def __init__(self, workload, seed):
        from tradekernel import cycles, latin

        self.cycles, self.latin = cycles, latin
        self.workload, self.seed = workload, seed

    # -- setup: what the program needs before its first operation

    def setup(self):
        c = self.cycles
        orders = (7, 8, 9) if self.workload == "warm-decompose" else (9,)
        for n in orders:
            basis = c.diamond_basis(n)
            if n >= 8:
                # the mod-p solve factors are built by the first decomposition
                c.decompose_trade(c.diamond_vector(basis[0], n))
        c.find_cycle_system(9)  # filler system of lifted transforms
        if self.workload == "warm-decompose":
            for n in WARM_LATIN_ORDERS:
                self.latin.build_inclusion_matrix(n)  # cached per order, used by every latin.transform
        if self.workload == "search":
            c.cycle_edge_array(17)

    # -- inputs: built after setup, outside every timed region

    def prepare(self):
        c = self.cycles
        self.base9 = c.find_cycle_system(9)
        self.base_counter = verify.system_counter(_cycle_lists(self.base9))
        self.pairs = [inputs.relabel(c, self.base9, perm) for perm in inputs.catalogue()]
        if self.workload == "warm-decompose":
            self.bases = {n: [verify.as_diamond(d) for d in c.diamond_basis(n)] for n in (7, 8, 9)}
            self.diamonds = {n: c.enumerate_double_diamonds(n) for n in (7, 8, 9)}
        self.make_jobs()

    def _decompose_op(self, rng, n):
        c = self.cycles
        terms = []
        while True:
            v = c.CycleVector(n)
            terms.clear()
            for d in rng.sample(self.diamonds[n], 6):
                sign = rng.choice((1, -1))
                v = v.add_scaled(c.diamond_vector(d, n), sign)
                terms.append((verify.as_diamond(d), sign))
            if not v.is_zero():
                break
        target = verify.combine(terms)
        basis = self.bases[n]

        def check(dec):
            got = [(basis[i], coef) for i, coef in dec.support()]
            return verify.recombination_error(got, target), None, None

        return f"decompose-n{n}", lambda: c.decompose_trade(v), check

    def _transform_op(self, other, mode):
        c = self.cycles
        start = self.base_counter
        goal = verify.system_counter(_cycle_lists(other))
        virtual = mode == "virtual"

        def check(out):
            if isinstance(out, c.RationalCertificate):
                terms = [(verify.as_diamond(d), coef) for d, coef in out.support]
                err = verify.recombination_error(terms, verify.difference(start, goal))
                if not err and all(coef.denominator == 1 for _, coef in out.support):
                    err = "certificate with integral coefficients"
                return err, None, None
            # a plan at lambda > 1 runs between both systems plus lambda - 1 copies
            # of the filler system, which is find_cycle_system(9), the base itself
            filler = Counter({c: (out.lam - 1) * m for c, m in start.items()})
            moves = [(s, verify.as_diamond(d)) for s, d in out.moves]
            audit = out.audit if virtual else None
            return (
                verify.replay_error(start + filler, goal + filler, moves, not virtual, audit),
                None,
                len(moves),
            )

        return f"transform-{mode}", lambda: c.transform(self.base9, other, mode=mode), check

    def _latin_op(self, rng, n):
        latin = self.latin
        l1, l2 = inputs.latin_square(rng, n), inputs.latin_square(rng, n)
        s1, s2 = latin.LatinSquare(l1), latin.LatinSquare(l2)

        def check(plan):
            return verify.latin_plan_error(l1, l2, plan.moves, plan.improper_counts), None, None

        return "latin-transform", lambda: latin.transform(s1, s2), check

    def _search_op(self, s, n, restarts):
        c = self.cycles

        def check(out):
            if isinstance(out, c.CycleSystem):
                return verify.diamond_free_error(n, _cycle_lists(out)), True, None
            bad = None if out.best_count > 0 else "search reports best count 0 without a system"
            return bad, False, None

        kwargs = {} if restarts is None else {"restarts": restarts}
        return f"diamond-free-n{n}", lambda: c.search_diamond_free(n, seed=s, **kwargs), check

    def make_jobs(self):
        """The job list of every pass, from inputs drawn once per run."""
        rng = inputs.rng_for(self.seed, self.workload, "jobs")
        ops = []
        if self.workload == "warm-decompose":
            for n, count in WARM_DECOMPOSE:
                ops += [self._decompose_op(rng, n) for _ in range(count)]
            for _ in range(WARM_TRANSFORMS):
                other = inputs.relabel(self.cycles, self.base9, inputs.permutation(rng, 9))
                ops.append(self._transform_op(other, "virtual"))
            ops += [self._transform_op(pair, "virtual") for pair in self.pairs]
            ops += [self._latin_op(rng, n) for n in WARM_LATIN_ORDERS]
            ops += [self._search_op(s, 9, None) for s in inputs.search_seeds(WARM_SEARCH)]
        else:
            seeds = inputs.search_seeds(SEARCH_N9 + SEARCH_N17)
            ops += [self._search_op(s, 9, None) for s in seeds[:SEARCH_N9]]
            ops += [self._search_op(s, 17, 1) for s in seeds[SEARCH_N9:]]
            ops += [self._transform_op(pair, "lifted") for pair in self.pairs]
        self.jobs = [(f"{cls}#{i}", cls, call, check) for i, (cls, call, check) in enumerate(ops)]

    def make_pass(self, p):
        """The same jobs in every pass, in an order drawn from the seed and the pass index."""
        ops = list(self.jobs)
        inputs.rng_for(self.seed, self.workload, p).shuffle(ops)
        return ops


# job mix per pass; see README.md for how the weights were chosen
WARM_DECOMPOSE = ((7, 4), (8, 16), (9, 24))
WARM_TRANSFORMS = 4
# latin.build_inclusion_matrix keeps one cached matrix per order seen (7 MB at
# order 30), so fixed orders keep peak RSS independent of the seed and run length
WARM_LATIN_ORDERS = (20, 30)
WARM_SEARCH = 1
SEARCH_N9 = 16
SEARCH_N17 = 6
# every operation runs at least this often, so its fastest run is taken from several
MIN_PASSES = 3


def make_runner(rec):
    ids = itertools.count()

    def run_op(op):
        key, cls, call, check = op
        if rec is not None:
            rec.op = next(ids)
        slowdown = speed.slowdown()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # a failed operation is counted and the loop goes on
            return loop.Result(key, cls, time.perf_counter() - t0, error=f"{type(e).__name__}: {e}", slowdown=slowdown)
        secs = time.perf_counter() - t0
        try:
            error, found, moves = check(out)
        except Exception as e:
            error, found, moves = f"verifier raised {type(e).__name__}: {e}", None, None
        return loop.Result(key, cls, secs, error, found, moves, slowdown=slowdown)

    return run_op


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("warm-decompose", "search"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "work"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    machine.check_interpreter()
    machine.use_checkout_source()
    session = Session(args.workload, args.seed)
    rec = tracing.Recorder() if args.trace else None
    saved = tracing.install(rec) if rec else None
    if rec:
        rec.op = "setup"
    session.setup()
    out = {"setup_end": time.monotonic()}
    if args.role == "work":
        session.prepare()
        if rec is None:
            results, passes = loop.run_passes(session.make_pass, make_runner(None), args.seconds, MIN_PASSES)
        else:
            tracing.uninstall(saved)
            plain, traced_op = make_runner(None), make_runner(rec)
            traced = []

            def run_both(op):
                # untraced, then traced right after it, so a drift in machine speed hits both
                result = plain(op)
                saved = tracing.install(rec)
                traced.append(traced_op(op))
                tracing.uninstall(saved)
                return result

            untraced, passes = loop.run_passes(session.make_pass, run_both, args.seconds / 2)
            out["untraced_rate"], out["traced_rate"] = loop.rate(untraced), loop.rate(traced)
            out["trace"] = rec.dump()
            results = untraced + traced
        out["passes"] = passes
        out["results"] = [asdict(r) for r in results]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
