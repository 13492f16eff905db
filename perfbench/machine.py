"""Where the benchmark runs: checkout layout, child environment, machine facts."""

import importlib.util
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench"

# BLAS/OpenMP pools are pinned to one thread so every workload is single-threaded
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(Exception):
    """The benchmark cannot run here; it prints why and exits non-zero."""


def check_interpreter() -> None:
    # -O strips the package's exactness asserts, which are part of the measured work
    if os.environ.get("PYTHONOPTIMIZE") or not __debug__:
        raise SetupError("refusing to run with -O or PYTHONOPTIMIZE set")


def use_checkout_source() -> None:
    """Import tradekernel from this checkout's src/, never from an installed copy."""
    if not (SRC / "tradekernel" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'tradekernel'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tradekernel

    where = Path(tradekernel.__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"tradekernel imported from {where}, not from {SRC}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def scratch_dir(name: str) -> Path:
    d = SCRATCH / name
    d.mkdir(parents=True, exist_ok=True)
    return d


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts() -> dict:
    """Machine and environment block recorded with every result."""
    import numpy

    from tradekernel import kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend(),
        "TRADE_KERNEL_JIT": os.environ.get("TRADE_KERNEL_JIT"),
        "TRADE_KERNEL_BUDGET": os.environ.get("TRADE_KERNEL_BUDGET"),
        "threads_per_pool": 1,
    }


def spawn(argv, stdout_path, stderr_path, timeout):
    """Run argv to completion in a child: (exit code, wall seconds, peak RSS in MB, start time).

    The child is reaped with os.wait4 so its own peak RSS is read, not the
    ever-growing RUSAGE_CHILDREN total. A child still running after
    `timeout` seconds is killed and still waited for.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        secs = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, secs, usage.ru_maxrss / 1024.0, start
