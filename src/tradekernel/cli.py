"""Command line front end.

Every report is a JSON object with fixed keys: command, input_digest,
payload, version, timing_s, and seed when the operation is stochastic.
The payload is deterministic for fixed inputs and seed (timing lives
outside it). Integers above 2**53-1 and all rationals are serialized as
strings so exactness survives JSON. Exit codes: 0 success, 1 for
domain-negative outcomes (not admissible, not in span, search failure,
invalid object under validate), 2 for usage or format errors (checked
when the arguments are parsed where possible: --n, --mod, --jobs and
TRADE_KERNEL_BUDGET), 3 when an internal exactness check fails
(VerificationError). Exit codes 1 and 3 print a report whose payload
names the error.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__, cycles, exactla, latin
from .errors import (
    FormatError,
    IdenticalSquaresError,
    KernelMembershipError,
    MissingCyclesError,
    NotAdmissibleError,
    ScheduleFailureError,
    SearchExhaustedError,
    SpanDeficientError,
    VerificationError,
)

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
    if isinstance(x, (int, np.integer)):
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


def _move_line(sign: int, d: cycles.DoubleDiamond) -> str:
    s = "+1" if sign > 0 else "-1"
    mids = ",".join(str(m) for m in d.middles)
    return f"{s} poles={d.poles[0]},{d.poles[1]} middles={mids} from={d.source} to={d.target}"


def _order(minimum: int):
    """argparse type for --n (and --jobs): an integer of at least `minimum`, else a usage error (exit 2)."""

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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=cycles.DEFAULT_SEED, help="seed for stochastic operations")
    p.add_argument("--budget", type=int, default=None, help="node budget for searches")
    p.add_argument("--mode", choices=["strict", "lifted", "virtual"], default="virtual")
    p.add_argument("--jobs", type=_order(1), default=1, help="parallel restarts for stochastic searches")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="text", action="store_false", default=False)
    fmt.add_argument("--text", dest="text", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tradekernel", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    def sub(group, name, **kw):
        p = group.add_parser(name, **kw)
        _add_common(p)
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
    p = sub(cyc, "diamond-free")
    p.add_argument("--n", type=_order(0), required=True)
    p.add_argument("--restarts", type=int, default=500)
    p.add_argument("--out")
    p = sub(cyc, "count-diamonds")
    p.add_argument("--system", required=True, help="cycle collection file")
    p = sub(cyc, "transform")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--lam-max", type=int, default=6)
    p.add_argument("--plan-out")
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


def _run_latin(args, command, t0):
    if args.sub == "matrix":
        im = latin.build_inclusion_matrix(args.n)
        payload = {"n": args.n, "rows": im.matrix.n_rows, "cols": im.matrix.n_cols, "nnz": im.matrix.nnz}
        dump = exactla.dump_matrix(im.matrix)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dump)
            payload["out"] = args.out
        else:
            payload["dump"] = dump
        return payload, {"n": args.n}, None
    if args.sub == "rank":
        im = latin.build_inclusion_matrix(args.n)
        if args.mod is None:
            rank = exactla.rank_exact(im.matrix)
            mode = "exact"
        else:
            rank = exactla.rank_mod_p(im.matrix, args.mod)
            mode = f"mod-{args.mod}"
        return (
            _rank_payload(args.n, im.matrix.n_rows, im.matrix.n_cols, rank, mode),
            {"n": args.n, "mod": args.mod},
            None,
        )
    if args.sub == "basis":
        vecs = latin.intercalate_basis(args.n)
        payload = {"n": args.n, "count": len(vecs)}
        if args.out:
            stack = exactla.SparseIntMatrix.from_dense([v.to_ints() for v in vecs])
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(exactla.dump_matrix(stack))
            payload["out"] = args.out
        return payload, {"n": args.n}, None
    if args.sub == "decompose":
        text = _read(args.trade)
        trade = latin.parse_trade(text)
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
        ta, tb = _read(args.a), _read(args.b)
        l1, l2 = latin.parse_square(ta), latin.parse_square(tb)
        if l1.n != l2.n:
            raise FormatError("squares have different orders")
        plan = latin.transform(l1, l2)
        payload = {
            "n": plan.n,
            "moves": [[s, i, j, k] for s, i, j, k in plan.moves],
            "improper_counts": list(plan.improper_counts),
            "improper_max": plan.improper_max,
        }
        if args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(latin.format_move_plan(plan))
            payload["plan_out"] = args.plan_out
        return payload, {"a": ta, "b": tb}, None
    if args.sub == "validate":
        if args.square:
            text = _read(args.square)
            n, grid = latin.parse_grid_file(text)
            if any(x is None for row in grid for x in row):
                raise _Negative({"valid": False, "kind": "square", "message": "grid has empty cells"})
            try:
                sq = latin.LatinSquare(grid)
            except ValueError as e:
                raise _Negative({"valid": False, "kind": "square", "message": str(e)})
            return {"valid": True, "kind": "square", "n": sq.n}, {"square": text}, None
        text = _read(args.trade)
        n, p_triples, q_triples = latin.parse_trade_grids(text)
        try:
            p = latin.PartialLatinSquare(n, p_triples)
            q = latin.PartialLatinSquare(n, q_triples)
        except ValueError as e:
            raise _Negative({"valid": False, "kind": "trade", "message": str(e)})
        bad = latin.check_trade(p, q)
        if bad is not None:
            raise _Negative(
                {"valid": False, "kind": "trade", "condition": bad.condition, "message": bad.message}
            )
        return (
            {"valid": True, "kind": "trade", "n": n, "volume": p.volume},
            {"trade": text},
            None,
        )
    raise AssertionError(args.sub)


def _pool_size(jobs: int, cpus: Optional[int]) -> int:
    """Worker processes for `jobs` search chunks: at most one per CPU (cpus None: unknown, 1).

    The chunks, and so the payload, follow the requested jobs; only how
    many of them run at once depends on the machine.
    """
    return max(1, min(jobs, cpus or 1))


def _diamond_free_chunk(params):
    n, seed, restarts, budget = params
    out = cycles.search_diamond_free(n, seed=seed, restarts=restarts, budget=budget)
    if isinstance(out, cycles.CycleSystem):
        return ("ok", sorted(tuple(c) for c in out.cycles))
    return ("fail", out.best_count)


def _run_cycles(args, command, t0):
    if args.sub == "matrix":
        m = cycles.build_inclusion_matrix(args.n)
        payload = {"n": args.n, "rows": m.n_rows, "cols": m.n_cols, "nnz": m.nnz}
        dump = exactla.dump_matrix(m)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dump)
            payload["out"] = args.out
        else:
            payload["dump"] = dump
        return payload, {"n": args.n}, None
    if args.sub == "rank":
        m = cycles.build_inclusion_matrix(args.n)
        if args.mod is None:
            rank = cycles.matrix_rank_exact(args.n)
            mode = "exact"
        else:
            rank = exactla.rank_mod_p(m, args.mod)
            mode = f"mod-{args.mod}"
        return (
            _rank_payload(args.n, m.n_rows, m.n_cols, rank, mode),
            {"n": args.n, "mod": args.mod},
            None,
        )
    if args.sub == "diamonds":
        ds = cycles.enumerate_double_diamonds(args.n) if args.n >= 6 else []
        payload = {"n": args.n, "count": len(ds)}
        if args.list:
            payload["diamonds"] = [_move_line(1, d)[3:] for d in ds]
        return payload, {"n": args.n}, None
    if args.sub == "span":
        span = cycles.diamond_span_rank(args.n)
        ds = cycles.enumerate_double_diamonds(args.n) if args.n >= 6 else []
        m = cycles.build_inclusion_matrix(args.n)
        kdim = cycles.kernel_dimension(args.n)
        payload = _rank_payload(
            args.n,
            m.n_rows,
            m.n_cols,
            m.n_cols - kdim,
            "exact" if len(ds) <= cycles._EXACT_DIAMOND_LIMIT else "mod-p certified",
            diamond_count=len(ds),
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
                "diamonds": [_move_line(1, d)[3:] for d in basis],
            },
            {"n": args.n},
            None,
        )
    if args.sub == "decompose":
        if args.trade:
            text = _read(args.trade)
            tp = cycles.parse_trade_pair_file(text)
            v = cycles.trade_vector(tp)
            digest = {"trade": text}
            n = tp.n
        else:
            if not args.b:
                raise FormatError("cycles decompose needs --b together with --a")
            ta, tb = _read(args.a), _read(args.b)
            s1, s2 = cycles.parse_cycle_system(ta), cycles.parse_cycle_system(tb)
            if s1.n != s2.n:
                raise FormatError("systems have different orders")
            v = s1.vector() - s2.vector()
            digest = {"a": ta, "b": tb}
            n = s1.n
        dec = cycles.decompose_trade(v)
        basis = cycles.diamond_basis(n)
        support = [[_move_line(1, basis[i])[3:], c] for i, c in dec.support()]
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
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(cycles.format_cycle_system(cs))
            payload["out"] = args.out
        return payload, {"n": args.n, "budget": args.budget}, None
    if args.sub == "diamond-free":
        if args.n % 8 != 1 or args.n < 1:
            raise NotAdmissibleError(args.n)
        if args.jobs > 1:
            # deterministic split: chunk i gets seed + i*1000003 and an
            # equal share of restarts; smallest successful index wins
            share = (args.restarts + args.jobs - 1) // args.jobs
            params = [
                (args.n, args.seed + i * 1000003, share, args.budget) for i in range(args.jobs)
            ]
            workers = _pool_size(args.jobs, os.cpu_count())
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(_diamond_free_chunk, params))
            chosen = next((r for r in results if r[0] == "ok"), None)
            if chosen is None:
                best = min(r[1] for r in results)
                raise _Negative({"n": args.n, "found": False, "best_count": best})
            cyc_list = [cycles.FourCycle(*c) for c in chosen[1]]
            cs = cycles.CycleSystem(args.n, cyc_list)
        else:
            out = cycles.search_diamond_free(
                args.n, seed=args.seed, restarts=args.restarts, budget=args.budget
            )
            if isinstance(out, cycles.DiamondSearchReport):
                raise _Negative(
                    {"n": args.n, "found": False, "best_count": out.best_count, "restarts": out.restarts}
                )
            cs = out
        payload = {
            "n": args.n,
            "found": True,
            "diamond_count": 0,
            "cycles": [list(c) for c in cs.sorted_cycles()],
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(cycles.format_cycle_system(cs))
            payload["out"] = args.out
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
        ta, tb = _read(args.a), _read(args.b)
        s1, s2 = cycles.parse_cycle_system(ta), cycles.parse_cycle_system(tb)
        if s1.n != s2.n:
            raise FormatError("systems have different orders")
        out = cycles.transform(
            s1, s2, mode=args.mode, lam_max=args.lam_max, seed=args.seed, budget=args.budget
        )
        digest = {"a": ta, "b": tb, "mode": args.mode}
        if isinstance(out, cycles.RationalCertificate):
            payload = {
                "n": out.n,
                "result": "certificate",
                "integral": False,
                "verified": out.verified,
                "support": [[_move_line(1, d)[3:], c] for d, c in out.support],
            }
            return payload, digest, args.seed
        payload = {
            "n": out.n,
            "result": "plan",
            "mode": out.mode,
            "lambda": out.lam,
            "moves": [_move_line(s, d) for s, d in out.moves],
            "audit": list(out.audit),
        }
        if args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(cycles.format_cycle_move_plan(out))
            payload["plan_out"] = args.plan_out
        return payload, digest, args.seed
    if args.sub == "validate":
        if args.system:
            text = _read(args.system)
            n, cyc_list = cycles.parse_cycle_collection(text)
            if len(set(cyc_list)) != len(cyc_list):
                raise _Negative({"valid": False, "kind": "system", "message": "duplicate cycle"})
            try:
                cs = cycles.CycleSystem(n, cyc_list)
            except ValueError as e:
                raise _Negative({"valid": False, "kind": "system", "message": str(e)})
            return (
                {"valid": True, "kind": "system", "n": cs.n, "cycle_count": len(cs)},
                {"system": text},
                None,
            )
        text = _read(args.pair)
        n, t, t_star = cycles.parse_trade_pair_blocks(text)
        bad = cycles.validate_trade_pair(t, t_star)
        if bad is not None:
            raise _Negative({"valid": False, "kind": "pair", "message": bad})
        tp = cycles.CycleTradePair(n, t, t_star)
        return (
            {"valid": True, "kind": "pair", "n": tp.n, "volume": tp.volume, "foundation": tp.foundation},
            {"pair": text},
            None,
        )
    raise AssertionError(args.sub)


def _run_linalg(args, command, t0):
    if args.sub == "rank":
        text = _read(args.matrix)
        m = exactla.parse_matrix(text)
        if args.mod is None:
            rank = exactla.rank_exact(m)
            mode = "exact"
        else:
            rank = exactla.rank_mod_p(m, args.mod)
            mode = f"mod-{args.mod}"
        return (
            _rank_payload(None, m.n_rows, m.n_cols, rank, mode),
            {"matrix": text, "mod": args.mod},
            None,
        )
    if args.sub == "kernel":
        text = _read(args.matrix)
        m = exactla.parse_matrix(text)
        basis = exactla.kernel_basis(m)
        payload = {"rows": m.n_rows, "cols": m.n_cols, "nullity": len(basis)}
        if args.out:
            stack = exactla.SparseIntMatrix.from_dense(basis) if basis else exactla.SparseIntMatrix(0, m.n_cols, {})
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(exactla.dump_matrix(stack))
            payload["out"] = args.out
        else:
            payload["basis"] = basis
        return payload, {"matrix": text}, None
    if args.sub == "lattice-eq":
        ta, tb = _read(args.a), _read(args.b)
        ma, mb = exactla.parse_matrix(ta), exactla.parse_matrix(tb)
        if ma.n_cols != mb.n_cols:
            raise FormatError("generator files have different ambient dimensions")
        if ma.n_cols > exactla.LATTICE_DIM_CAP:
            raise FormatError(f"ambient dimension {ma.n_cols} exceeds the cap of {exactla.LATTICE_DIM_CAP}")
        equal = exactla.lattice_equal(ma.to_dense(), mb.to_dense())
        return {"cols": ma.n_cols, "equal": equal}, {"a": ta, "b": tb}, None
    raise AssertionError(args.sub)


_RUNNERS = {"latin": _run_latin, "cycles": _run_cycles, "linalg": _run_linalg}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cycles.search_budget()
    except ValueError:
        parser.error(f"TRADE_KERNEL_BUDGET must be an integer, got {os.environ['TRADE_KERNEL_BUDGET']!r}")
    command = f"{args.group} {args.sub}"
    t0 = time.perf_counter()
    try:
        payload, digest_parts, seed = _RUNNERS[args.group](args, command, t0)
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
    except (FormatError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"run 'tradekernel {command} --help' for the expected formats", file=sys.stderr)
        return 2
    _emit(args, command, payload, digest_parts, seed=seed, t0=t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
