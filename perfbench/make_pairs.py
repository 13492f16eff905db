"""Regenerate pairs9.json, the catalogue of integral 4CS(9) pairs.

A pair is (S, S relabelled by a permutation) with S = find_cycle_system(9).
Relabellings are drawn from a fixed catalogue seed and screened with a
virtual transform; the integral ones are kept when a lifted transform
with the default budget schedules them at lambda = 1. Pairs that need
lambda >= 2 take tens of seconds each and are left out.

Run as: PYTHONPATH=src python3 perfbench/make_pairs.py
"""

import json
import random
import time
from pathlib import Path

from inputs import relabel
from tradekernel import cycles
from tradekernel.errors import ScheduleFailureError

CATALOGUE_SEED = 20230821
COUNT = 8
MAX_SCREENED = 3000
OUT = Path(__file__).resolve().parent / "pairs9.json"


def main() -> None:
    base = cycles.find_cycle_system(9)
    rng = random.Random(CATALOGUE_SEED)
    kept, screened, integral = [], 0, 0
    while len(kept) < COUNT and screened < MAX_SCREENED:
        perm = list(range(9))
        rng.shuffle(perm)
        screened += 1
        other = relabel(cycles, base, perm)
        if other == base or not isinstance(cycles.transform(base, other), cycles.CycleMovePlan):
            continue
        integral += 1
        t0 = time.perf_counter()
        try:
            plan = cycles.transform(base, other, mode="lifted", lam_max=1)
        except ScheduleFailureError:
            print(f"perm {perm}: needs lambda >= 2 ({time.perf_counter() - t0:.1f} s)", flush=True)
            continue
        dt = time.perf_counter() - t0
        print(f"perm {perm}: lambda 1, {len(plan.moves)} moves, {dt:.2f} s", flush=True)
        kept.append({"perm": perm, "lifted_moves": len(plan.moves), "lifted_s": round(dt, 3)})
    doc = {
        "about": "relabellings of find_cycle_system(9) whose difference is integral over "
        "diamond_basis(9) and schedules in lifted mode at lambda 1; see make_pairs.py",
        "catalogue_seed": CATALOGUE_SEED,
        "screened": screened,
        "integral": integral,
        "pairs": kept,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}: {len(kept)} pairs from {screened} relabellings ({integral} integral)")


if __name__ == "__main__":
    main()
