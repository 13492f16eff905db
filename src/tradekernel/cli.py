"""Command line front end.

Every report is a JSON object with fixed keys: command, input_digest,
payload, version, timing_s, and seed when the operation is stochastic.
The payload is deterministic for fixed inputs and seed (timing lives
outside it). Integers above 2**53-1 and all rationals are serialized as
strings so exactness survives JSON. Exit codes: 0 success, 1 for
domain-negative outcomes (not admissible, not in span, search failure,
invalid object under validate), 2 for usage or format errors (checked
when the arguments are parsed where possible: --n, --mod, --jobs,
--restarts, --lam-max and --budget), for paths that cannot be read or
written and for requests above a size limit, refused before any work (OUTPUT_CAP,
exactla.LATTICE_DIM_CAP), 3 when an
internal exactness check fails (VerificationError), 141 when the reader
closes stdout before the report is written (as with `| head`). Exit
codes 1 and 3 print a report whose payload names the error.
Each input kind has one reader, a parse_* function of latin or cycles;
`validate` reports its InvalidObjectError as the payload (exit 1).
"""

import argparse
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
import time
import warnings
from fractions import Fraction
from typing import Optional

from . import __version__, exactla, kernels
from .errors import (
    FormatError,
    IdenticalSquaresError,
    InvalidObjectError,
    KernelMembershipError,
    MissingCyclesError,
    NotAdmissibleError,
    ScheduleFailureError,
    SearchExhaustedError,
    SpanDeficientError,
    VerificationError,
)

# the most entries a request may build or print: matrix entries, cycles,
# diamonds, basis cells; larger requests are refused before any work
OUTPUT_CAP = 10**6

# 128 + SIGPIPE, what `cat` exits with when its reader goes away
EXIT_BROKEN_PIPE = 141

_DOMAIN_ERRORS = (
    NotAdmissibleError,
    SearchExhaustedError,
    SpanDeficientError,
    ScheduleFailureError,
    MissingCyclesError,
    KernelMembershipError,
    IdenticalSquaresError,
)


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, numbers.Integral):
        x = int(x)
        return x if abs(x) <= 2**53 - 1 else str(x)
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)!r}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e}") from e
    except OSError as e:
        raise FormatError(str(e)) from e


def _read_pair(args, parse, what: str):
    """Digest parts, then the parsed --a and --b files; a format error unless both have one order."""
    ta, tb = _read(args.a), _read(args.b)
    x, y = parse(ta), parse(tb)
    if x.n != y.n:
        raise FormatError(f"{what} have different orders")
    return {"a": ta, "b": tb}, x, y


def _digest(parts: dict) -> str:
    blob = json.dumps({k: str(v) for k, v in sorted(parts.items())}, sort_keys=True)
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _emit(args, command: str, payload: dict, digest_parts: dict, seed=None, t0=None) -> None:
    report = {
        "command": command,
        "input_digest": _digest(digest_parts),
        "payload": _jsonable(payload),
        "version": __version__,
    }
    if seed is not None:
        report["seed"] = seed
    if t0 is not None:
        report["timing_s"] = round(time.perf_counter() - t0, 6)
    if args.text:
        for k, v in report["payload"].items():
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            print(f"{k}: {v}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _rank_payload(n, rows, cols, rank, mode, diamond_count=None, diamond_span_rank=None) -> dict:
    # one shape for every rank/dimension report; inapplicable fields are null
    return {
        "n": n,
        "rows": rows,
        "cols": cols,
        "rank": rank,
        "nullity": cols - rank,
        "diamond_count": diamond_count,
        "diamond_span_rank": diamond_span_rank,
        "mode": mode,
    }


def _save(payload: dict, key: str, path: Optional[str], render, *render_args) -> bool:
    """Write render(*render_args) to path when one is given, and name the file in payload[key]."""
    if not path:
        return False
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(*render_args))
    except OSError as e:
        raise FormatError(str(e)) from e
    payload[key] = path
    return True


def _rank_report(args, m, digest_parts: dict):
    """The rank report of matrix m: mod --mod when given, else exact."""
    if args.mod is None:
        rank, mode = exactla.rank_exact(m), "exact"
    else:
        rank, mode = exactla.rank_mod_p(m, args.mod), f"mod-{args.mod}"
    payload = _rank_payload(getattr(args, "n", None), m.n_rows, m.n_cols, rank, mode)
    return payload, {**digest_parts, "mod": args.mod}, None


def _matrix_report(args, m):
    """The matrix report of an inclusion matrix: its dump goes to --out, else into the payload."""
    payload = {"n": args.n, "rows": m.n_rows, "cols": m.n_cols, "nnz": m.nnz}
    if not _save(payload, "out", args.out, exactla.dump_matrix, m):
        payload["dump"] = exactla.dump_matrix(m)
    return payload, {"n": args.n}, None


def _refuse_above_cap(count: int, what: str) -> None:
    """A size error (exit 2) when a request would build or print more than OUTPUT_CAP entries."""
    if count > OUTPUT_CAP:
        raise FormatError(f"the request needs {count} {what}, above the cap of {OUTPUT_CAP}")


# what each --n command must build, counted from n alone; inadmissible orders
# of find and diamond-free build nothing (exit 1 by arithmetic)
_LATIN_M = ("inclusion matrix entries", lambda a: 3 * a.n**3)
_CYCLES_M = ("inclusion matrix entries", lambda a: 12 * math.comb(a.n, 4))


def _diamond_count(args) -> int:
    from . import cycles

    return cycles.diamond_count(args.n)


_DIAMONDS = ("diamonds", _diamond_count)
_CYCLES = ("4-cycles", lambda a: 3 * math.comb(a.n, 4) if a.n % 8 == 1 else 0)
_BUILDS = {
    ("latin", "matrix"): _LATIN_M,
    ("latin", "rank"): _LATIN_M,
    ("latin", "basis"): ("basis entries", lambda a: 8 * (a.n - 1) ** 3 if a.out else 0),
    ("cycles", "matrix"): _CYCLES_M,
    ("cycles", "rank"): _CYCLES_M,
    ("cycles", "diamonds"): ("diamonds", lambda a: _diamond_count(a) if a.list else 0),
    ("cycles", "span"): _DIAMONDS,
    ("cycles", "basis"): _DIAMONDS,
    ("cycles", "find"): _CYCLES,
    ("cycles", "diamond-free"): _CYCLES,
}


def _order(minimum: int):
    """argparse type for --n and the search counts: an integer of at least `minimum`, else a usage error (exit 2)."""

    def order(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return order


def _prime(text: str) -> int:
    """argparse type for --mod: a prime in [2, 2**31), else a usage error (exit 2)."""
    try:
        return exactla.check_modulus(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=kernels.DEFAULT_SEED, help="seed for stochastic operations")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_order(1), default=None, help="node budget for searches")


def _add_format(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="text", action="store_false", default=False)
    fmt.add_argument("--text", dest="text", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tradekernel", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    # every subcommand takes --json/--text; --seed, --budget, --mode and --jobs only where they are read
    def sub(group, name, **kw):
        p = group.add_parser(name, **kw)
        _add_format(p)
        return p

    lat = groups.add_parser("latin").add_subparsers(dest="sub", required=True)
    p = sub(lat, "matrix")
    p.add_argument("--n", type=_order(1), required=True)
    p.add_argument("--out", help="write the matrix dump here instead of embedding it")
    p = sub(lat, "rank")
    p.add_argument("--n", type=_order(1), required=True)
    p.add_argument("--mod", type=_prime, default=None, help="prime for modular rank")
    p = sub(lat, "basis")
    p.add_argument("--n", type=_order(2), required=True)
    p.add_argument("--out", help="write the stacked basis vectors as a matrix dump")
    p = sub(lat, "decompose")
    p.add_argument("--trade", required=True, help="trade file (two grids)")
    p = sub(lat, "transform")
    p.add_argument("--a", required=True, help="first latin square file")
    p.add_argument("--b", required=True, help="second latin square file")
    p.add_argument("--plan-out", help="write the move plan here")
    p = sub(lat, "validate")
    tgt = p.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--square")
    tgt.add_argument("--trade")

    cyc = groups.add_parser("cycles").add_subparsers(dest="sub", required=True)
    p = sub(cyc, "matrix")
    p.add_argument("--n", type=_order(4), required=True)
    p.add_argument("--out")
    p = sub(cyc, "rank")
    p.add_argument("--n", type=_order(4), required=True)
    p.add_argument("--mod", type=_prime, default=None)
    p = sub(cyc, "diamonds")
    p.add_argument("--n", type=_order(0), required=True)
    p.add_argument("--list", action="store_true", help="include every diamond in the payload")
    p = sub(cyc, "span")
    p.add_argument("--n", type=_order(4), required=True)
    p = sub(cyc, "basis")
    p.add_argument("--n", type=_order(4), required=True)
    p = sub(cyc, "decompose")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trade", help="trade pair file (two cycle blocks)")
    src.add_argument("--a", help="first system file (with --b: decompose the difference)")
    p.add_argument("--b", help="second system file")
    p = sub(cyc, "find")
    p.add_argument("--n", type=_order(0), required=True)
    p.add_argument("--out", help="write the system file here")
    _add_budget(p)
    p = sub(cyc, "diamond-free")
    p.add_argument("--n", type=_order(0), required=True)
    p.add_argument("--restarts", type=_order(1), default=500)
    p.add_argument("--out")
    _add_seed(p)
    _add_budget(p)
    p.add_argument("--jobs", type=_order(1), default=1, help="parallel restarts for stochastic searches")
    p = sub(cyc, "count-diamonds")
    p.add_argument("--system", required=True, help="cycle collection file")
    p = sub(cyc, "transform")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--lam-max", type=_order(1), default=6)
    p.add_argument("--plan-out")
    p.add_argument("--mode", choices=["strict", "lifted", "virtual"], default="virtual")
    _add_seed(p)
    _add_budget(p)
    p = sub(cyc, "validate")
    tgt = p.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--system")
    tgt.add_argument("--pair")

    lin = groups.add_parser("linalg").add_subparsers(dest="sub", required=True)
    p = sub(lin, "rank")
    p.add_argument("--matrix", required=True, help="matrix dump file")
    p.add_argument("--mod", type=_prime, default=None)
    p = sub(lin, "kernel")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", help="write the kernel basis as a matrix dump")
    p = sub(lin, "lattice-eq")
    p.add_argument("--a", required=True, help="generators, one per row (matrix dump)")
    p.add_argument("--b", required=True)

    return top


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (payload, digest_parts, seed_or_None) or a
# (payload, ..., exit_code) via _Negative


class _Negative(Exception):
    """Domain-negative outcome carrying its report payload."""

    def __init__(self, payload: dict):
        self.payload = payload


def _verdict(path: str, parse):
    """The text at path and its object as parse reads it; a broken rule is validate's negative report."""
    text = _read(path)
    try:
        return text, parse(text)
    except InvalidObjectError as e:
        condition = {} if e.condition is None else {"condition": e.condition}
        raise _Negative({"valid": False, "kind": e.kind, **condition, "message": e.message}) from None


def _run_latin(args):
    from . import latin

    if args.sub == "matrix":
        return _matrix_report(args, latin.build_inclusion_matrix(args.n))
    if args.sub == "rank":
        return _rank_report(args, latin.build_inclusion_matrix(args.n), {"n": args.n})
    if args.sub == "basis":
        n = args.n

        def dump():
            # row t is B_ijk for the t-th (i,j,k) in lexicographic order
            entries = {
                (t, latin.triple_index(n, *cell)): s
                for t, ijk in enumerate(itertools.product(range(1, n), repeat=3))
                for cell, s in latin.intercalate_cells(*ijk, n)
            }
            return exactla.dump_matrix(exactla.SparseIntMatrix((n - 1) ** 3, n**3, entries))

        payload = {"n": n, "count": (n - 1) ** 3}
        _save(payload, "out", args.out, dump)
        return payload, {"n": n}, None
    if args.sub == "decompose":
        text = _read(args.trade)
        trade = latin.parse_trade(text)
        _refuse_above_cap(trade.n**3, "triple vector entries")
        coeffs = latin.decompose(latin.trade_vector(trade))
        return (
            {
                "n": trade.n,
                "volume": trade.volume,
                "coefficients": {f"{i},{j},{k}": c for (i, j, k), c in sorted(coeffs.items())},
            },
            {"trade": text},
            None,
        )
    if args.sub == "transform":
        digest, l1, l2 = _read_pair(args, latin.parse_square, "squares")
        _refuse_above_cap(l1.n**3, "triple vector entries")
        plan = latin.transform(l1, l2)
        payload = {
            "n": plan.n,
            "moves": [[s, i, j, k] for s, i, j, k in plan.moves],
            "improper_counts": list(plan.improper_counts),
            "improper_max": plan.improper_max,
        }
        _save(payload, "plan_out", args.plan_out, latin.format_move_plan, plan)
        return payload, digest, None
    if args.sub == "validate":
        if args.square:
            text, sq = _verdict(args.square, latin.parse_square)
            return {"valid": True, "kind": "square", "n": sq.n}, {"square": text}, None
        text, trade = _verdict(args.trade, latin.parse_trade)
        return {"valid": True, "kind": "trade", "n": trade.n, "volume": trade.volume}, {"trade": text}, None
    raise AssertionError(args.sub)


def _pool_size(jobs: int, cpus: Optional[int]) -> int:
    """Worker processes for `jobs` search chunks: at most one per CPU (cpus None: unknown, 1).

    The chunks, and so the payload, follow the requested jobs; only how
    many of them run at once depends on the machine. One worker runs them
    in the command's own process, without a pool.
    """
    return max(1, min(jobs, cpus or 1))


def _restart_shares(restarts: int, jobs: int) -> list[int]:
    """Restarts per search chunk: exactly `restarts` in all, the first restarts % jobs chunks one more."""
    base, extra = divmod(restarts, jobs)
    return [base + (i < extra) for i in range(jobs)]


def _diamond_free_chunk(params):
    from . import cycles

    n, seed, restarts, budget = params
    out = cycles.search_diamond_free(n, seed=seed, restarts=restarts, budget=budget)
    if isinstance(out, cycles.CycleSystem):
        return ("ok", sorted(tuple(c) for c in out.cycles))
    return ("fail", out.best_count)


def _run_cycles(args):
    from . import cycles

    if args.sub == "matrix":
        return _matrix_report(args, cycles.build_inclusion_matrix(args.n))
    if args.sub == "rank":
        return _rank_report(args, cycles.build_inclusion_matrix(args.n), {"n": args.n})
    if args.sub == "diamonds":
        count = cycles.diamond_count(args.n)
        payload = {"n": args.n, "count": count}
        if args.list:
            ds = cycles.enumerate_double_diamonds(args.n) if args.n >= 6 else []
            payload["diamonds"] = [cycles.format_diamond(d) for d in ds]
        return payload, {"n": args.n}, None
    if args.sub == "span":
        span = cycles.diamond_span_rank(args.n)
        n_diamonds = cycles.diamond_count(args.n)
        m = cycles.build_inclusion_matrix(args.n)
        kdim = cycles.kernel_dimension(args.n)
        payload = _rank_payload(
            args.n,
            m.n_rows,
            m.n_cols,
            m.n_cols - kdim,
            "exact" if n_diamonds <= cycles._EXACT_DIAMOND_LIMIT else "mod-p certified",
            diamond_count=n_diamonds,
            diamond_span_rank=span,
        )
        payload["deficient"] = span < kdim
        if span < kdim:
            raise _Negative(payload)
        return payload, {"n": args.n}, None
    if args.sub == "basis":
        with warnings.catch_warnings():
            # below order 6 the empty diamond family is the answer, not a warning
            warnings.simplefilter("ignore")
            basis = cycles.diamond_basis(args.n)
        return (
            {
                "n": args.n,
                "size": len(basis),
                "kernel_dim": cycles.kernel_dimension(args.n),
                "diamonds": [cycles.format_diamond(d) for d in basis],
            },
            {"n": args.n},
            None,
        )
    if args.sub == "decompose":
        if args.trade and args.b:
            raise FormatError("cycles decompose takes --b only together with --a, not with --trade")
        if not (args.trade or args.b):
            raise FormatError("cycles decompose needs --b together with --a")
        if args.trade:
            text = _read(args.trade)
            tp = cycles.parse_trade_pair_file(text)
            digest, n = {"trade": text}, tp.n
        else:
            digest, s1, s2 = _read_pair(args, cycles.parse_cycle_system, "systems")
            n = s1.n
        if n < 4:
            raise FormatError(f"cycles decompose: K_{n} has no 4-cycles; the order must be at least 4")
        _refuse_above_cap(cycles.diamond_count(n), "diamonds")
        dec = cycles.decompose_trade(cycles.trade_vector(tp) if args.trade else s1.vector() - s2.vector())
        basis = cycles.diamond_basis(n)
        support = [[cycles.format_diamond(basis[i]), c] for i, c in dec.support()]
        return (
            {"n": n, "integral": dec.integral, "support_size": len(support), "coefficients": support},
            digest,
            None,
        )
    if args.sub == "find":
        cs = cycles.find_cycle_system(args.n, budget=args.budget)
        payload = {
            "n": args.n,
            "cycle_count": len(cs),
            "cycles": [list(c) for c in cs.sorted_cycles()],
        }
        _save(payload, "out", args.out, cycles.format_cycle_system, cs)
        return payload, {"n": args.n, "budget": args.budget}, None
    if args.sub == "diamond-free":
        if args.n % 8 != 1 or args.n < 1:
            raise NotAdmissibleError(args.n)
        # deterministic split: chunk i gets seed + i*1000003 and its share of
        # the restarts; smallest successful index wins
        params = [
            (args.n, args.seed + i * 1000003, share, args.budget)
            for i, share in enumerate(_restart_shares(args.restarts, args.jobs))
        ]
        workers = _pool_size(args.jobs, os.cpu_count())
        if workers == 1:
            results = [_diamond_free_chunk(p) for p in params]
        else:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(_diamond_free_chunk, params))
        chosen = next((r for r in results if r[0] == "ok"), None)
        if chosen is None:
            best = min(r[1] for r in results)
            raise _Negative({"n": args.n, "found": False, "best_count": best, "restarts": args.restarts})
        cs = cycles.CycleSystem(args.n, [cycles.FourCycle(*c) for c in chosen[1]])
        payload = {
            "n": args.n,
            "found": True,
            "diamond_count": 0,
            "cycles": [list(c) for c in cs.sorted_cycles()],
        }
        _save(payload, "out", args.out, cycles.format_cycle_system, cs)
        return payload, {"n": args.n, "restarts": args.restarts, "jobs": args.jobs}, args.seed
    if args.sub == "count-diamonds":
        text = _read(args.system)
        n, cyc_list = cycles.parse_cycle_collection(text)
        return (
            {"n": n, "cycle_count": len(set(cyc_list)), "count": cycles.count_double_diamond_configs(cyc_list)},
            {"system": text},
            None,
        )
    if args.sub == "transform":
        digest, s1, s2 = _read_pair(args, cycles.parse_cycle_system, "systems")
        _refuse_above_cap(cycles.diamond_count(s1.n), "diamonds")
        out = cycles.transform(
            s1, s2, mode=args.mode, lam_max=args.lam_max, seed=args.seed, budget=args.budget
        )
        digest["mode"] = args.mode
        if isinstance(out, cycles.RationalCertificate):
            payload = {
                "n": out.n,
                "result": "certificate",
                "integral": False,
                "verified": out.verified,
                "support": [[cycles.format_diamond(d), c] for d, c in out.support],
            }
            return payload, digest, args.seed
        payload = {
            "n": out.n,
            "result": "plan",
            "mode": out.mode,
            "lambda": out.lam,
            "moves": [cycles.format_move(s, d) for s, d in out.moves],
            "audit": list(out.audit),
        }
        _save(payload, "plan_out", args.plan_out, cycles.format_cycle_move_plan, out)
        return payload, digest, args.seed
    if args.sub == "validate":
        if args.system:
            text, cs = _verdict(args.system, cycles.parse_cycle_system)
            return {"valid": True, "kind": "system", "n": cs.n, "cycle_count": len(cs)}, {"system": text}, None
        text, tp = _verdict(args.pair, cycles.parse_trade_pair_file)
        return (
            {"valid": True, "kind": "pair", "n": tp.n, "volume": tp.volume, "foundation": tp.foundation},
            {"pair": text},
            None,
        )
    raise AssertionError(args.sub)


def _run_linalg(args):
    if args.sub == "rank":
        text = _read(args.matrix)
        return _rank_report(args, exactla.parse_matrix(text), {"matrix": text})
    if args.sub == "kernel":
        text = _read(args.matrix)
        m = exactla.parse_matrix(text)
        # the basis has nullity vectors of cols entries each
        _refuse_above_cap((m.n_cols - exactla.rank_exact(m)) * m.n_cols, "kernel basis entries")
        basis = exactla.kernel_basis(m)
        payload = {"rows": m.n_rows, "cols": m.n_cols, "nullity": len(basis)}

        def dump():
            stack = exactla.SparseIntMatrix.from_dense(basis) if basis else exactla.SparseIntMatrix(0, m.n_cols, {})
            return exactla.dump_matrix(stack)

        if not _save(payload, "out", args.out, dump):
            payload["basis"] = basis
        return payload, {"matrix": text}, None
    if args.sub == "lattice-eq":
        ta, tb = _read(args.a), _read(args.b)
        ma, mb = exactla.parse_matrix(ta), exactla.parse_matrix(tb)
        if ma.n_cols != mb.n_cols:
            raise FormatError("generator files have different ambient dimensions")
        if ma.n_cols > exactla.LATTICE_DIM_CAP:
            raise FormatError(f"ambient dimension {ma.n_cols} exceeds the cap of {exactla.LATTICE_DIM_CAP}")
        # the form drops zero rows, so only the stored rows are expanded
        rows_a, rows_b = ([[r.get(c, 0) for c in range(m.n_cols)] for r in m.rows()] for m in (ma, mb))
        equal = exactla.lattice_equal(rows_a, rows_b)
        return {"cols": ma.n_cols, "equal": equal}, {"a": ta, "b": tb}, None
    raise AssertionError(args.sub)


_RUNNERS = {"latin": _run_latin, "cycles": _run_cycles, "linalg": _run_linalg}


def main(argv=None) -> int:
    """Run one command and return its exit code; EXIT_BROKEN_PIPE when the reader closes stdout first."""
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: whatever is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _main(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # each search chunk runs at least one restart, so more jobs than restarts would leave a chunk with none
    if getattr(args, "restarts", None) is not None and args.jobs > args.restarts:
        parser.error(f"argument --jobs: must be at most --restarts ({args.restarts}), got {args.jobs}")
    command = f"{args.group} {args.sub}"
    t0 = time.perf_counter()
    try:
        if (args.group, args.sub) in _BUILDS:
            what, count = _BUILDS[args.group, args.sub]
            _refuse_above_cap(count(args), what)
        payload, digest_parts, seed = _RUNNERS[args.group](args)
    except _Negative as neg:
        _emit(args, command, neg.payload, {"argv": " ".join(argv)}, t0=t0)
        return 1
    except (*_DOMAIN_ERRORS, VerificationError) as e:
        _emit(
            args,
            command,
            {"error": type(e).__name__.removesuffix("Error"), "message": str(e)},
            {"argv": " ".join(argv)},
            t0=t0,
        )
        return 3 if isinstance(e, VerificationError) else 1
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"run 'tradekernel {command} --help' for the expected formats", file=sys.stderr)
        return 2
    _emit(args, command, payload, digest_parts, seed=seed, t0=t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
