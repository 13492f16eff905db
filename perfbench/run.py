"""tradekernel benchmark: one command, every metric with its unit, every output verified.

    python3 perfbench/run.py --workload cold-cli|warm-decompose|search \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from the
checkout's src/ only. With --trace 0 the last line of standard output is
one JSON object carrying the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a separate traced run, whose spans are
written to .perfbench/trace-<workload>-<seed>.json. The line before it is
a report with the machine facts, the tail percentile and its sample
count, fail_ratio, the machine speed factor, the timings before they were
rescaled by it, and per-class and per-operation seconds. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

import machine
import speed

for _var in machine.THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("cold-cli", "warm-decompose", "search")
SESSION_SETUPS = 2  # setup_s is the median over this many fresh sessions
SESSION_TIMEOUT = 170.0


def run_session(workload, seed, seconds, trace):
    """Spawn the library session; earlier spawns only time setup."""
    import loop

    work = machine.scratch_dir(f"{workload}-{seed}")
    setups = []
    peak = 0.0
    roles = ["work"] if trace else ["setup"] * (SESSION_SETUPS - 1) + ["work"]
    for i, role in enumerate(roles):
        out = work / f"session{i}.json"
        argv = [
            sys.executable, str(machine.BENCH / "session.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--role", role, "--out", str(out),
        ]
        rc, _secs, rss, start = machine.spawn(argv, work / "session.out", work / "session.err", SESSION_TIMEOUT)
        if rc != 0:
            err = (work / "session.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"session child exited {rc}:\n{err[-2000:]}")
        doc = json.loads(out.read_text(encoding="utf-8"))
        setups.append(doc["setup_end"] - start)
        peak = rss
    results = [loop.Result(**r) for r in doc["results"]]
    setup = statistics.median(setups)
    # rescaled by the machine speed over the run (speed.py), as cold-cli's import probes are
    scaled = setup / speed.factor([r.slowdown for r in results])
    dumps = [doc["trace"]] if trace else []
    shutil.rmtree(work)
    return (
        results,
        (scaled, setup),
        peak,
        dumps,
        doc.get("untraced_rate"),
        doc.get("traced_rate"),
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        machine.check_interpreter()
        machine.use_checkout_source()
    except machine.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    import coldcli
    import loop
    import tracing

    facts = machine.facts()
    if args.workload == "cold-cli":
        results, setup_s, peak, dumps, r_untraced, r_traced = coldcli.run(args.seed, args.seconds, args.trace)
    else:
        results, setup_s, peak, dumps, r_untraced, r_traced = run_session(
            args.workload, args.seed, args.seconds, args.trace
        )
    failed = sum(1 for r in results if r.error)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts}
    if args.trace:
        values = tracing.per_layer(dumps, r_untraced, r_traced)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        trace_file = machine.SCRATCH / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh)
        report["trace_file"] = str(trace_file.relative_to(machine.ROOT))
        report["fail_ratio"] = failed / len(results)
        report["runs"] = len(results)
    else:
        values, info = loop.summarize(results, setup_s[0], peak, setup_s[1])
        units = {name: unit for name, unit, _ in loop.END_TO_END}
        report.update(info)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
