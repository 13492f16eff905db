"""The names the benchmark harness in perfbench/ looks up must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

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
