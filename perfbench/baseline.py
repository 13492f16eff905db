"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py [--workloads w1,w2] [--seeds 1-10] [--out FILE]

For each workload and seed it runs `python3 perfbench/run.py ... --trace 0`
as BENCHMARK.json's command does, then reports per end-to-end metric the
median, the quartiles as statistics.quantiles(values, n=4) gives them and
their distance as a share of the median, next to the metric's bound. With
--out it writes every run's report and the summary to FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import machine
from measure import spread


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    doc = json.loads((machine.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    runs, summary, steady = [], {}, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            argv = doc["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(doc["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable] + argv[1:], cwd=machine.ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            report["wall_s"] = wall
            runs.append(report)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"n={result['attempted']} {shown}", flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            s = spread(vals)
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3, "spread": s, "bound": bounds[name]}
            flag = "" if s <= bounds[name] / 3 else "  <-- above a third of its bound"
            steady = steady and bool(not flag)
            print(f"  {workload:15s} {name:16s} median={q2:.5g} spread={s:.4f} bound={bounds[name]}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
