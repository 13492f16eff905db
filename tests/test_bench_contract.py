"""The benchmark harness in perfbench/ must keep resolving the names it looks up and accepting the outputs."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from tradekernel import latin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_layers_resolve():
    tracing = load("tracing")
    missing = [
        f"{mod}.{attr}"
        for sites in tracing.LAYERS.values()
        for mod, attr in sites
        if not callable(getattr(importlib.import_module(f"tradekernel.{mod}"), attr, None))
    ]
    assert missing == []


def test_machine_facts():
    facts = load("machine").facts()
    assert facts["kernel_backend"] == "numpy"


@pytest.mark.parametrize("n", [20, 30])
def test_latin_plans_pass_the_independent_replay(n):
    # verify.py replays the moves with Counter arithmetic and recounts the improper cells
    verify = load("verify")
    rng = random.Random(n)

    def square():
        r, c, s = (rng.sample(range(n), n) for _ in range(3))
        return [[s[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]

    for _ in range(2):
        l1, l2 = square(), square()
        plan = latin.transform(latin.LatinSquare(l1), latin.LatinSquare(l2))
        assert plan.moves
        assert verify.latin_plan_error(l1, l2, plan.moves, plan.improper_counts) is None
        bad = list(plan.improper_counts)
        bad[len(bad) // 2] += 1
        assert verify.latin_plan_error(l1, l2, plan.moves, bad) is not None
