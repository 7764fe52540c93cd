"""Command-line surface: compute, generate, verify, render, transform.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exhausted.  Each `compute` kind, `generate` family and `transform`
operation is one table row: the flags it reads and the code that answers
it.  Each row gets a parser that refuses any other flag; `generate` and
`transform` require all their int flags.  JSON records carry a "schema":
"1" field; CSV sweeps start with a header row.  All commands are
deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from itertools import islice

from .constructions import (
    Rung,
    cluster_split,
    coloring_induction,
    construct_K_prime,
    lower_bound_witness,
    pigeonhole_witness,
)
from .matrix import (
    PatternSet,
    SizeLimitError,
    format_pattern_set,
    parse_matrix,
    parse_pattern_set,
)
from .patterns import generate_T, pattern_L, pattern_P
from .render import layout_svg
from .search import ExtremalResult, ex_columns, ex_weight
from .verify import DEFAULT_SEED, SUITES, run_suites
from .visibility import matrix_to_visibility, parse_layout, sweep_edges

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_CLI_BUDGET = 5_000_000

# A --sweep range may hold at most this many points; each is one query.
SWEEP_POINT_LIMIT = 1024


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_patterns(paths) -> PatternSet:
    mats = []
    for path in paths:
        mats.extend(parse_pattern_set(_read(path)).patterns)
    return PatternSet(tuple(mats))


def _result_json(result: ExtremalResult, query: dict) -> dict:
    witness = None
    if result.witness is not None and result.witness.rows and result.witness.cols:
        witness = result.witness.to_text()
    return {
        "schema": "1",
        "query": query,
        "value": "unbounded" if result.unbounded else int(result.value),
        "exact": result.exact,
        "witness": witness,
        "nodes_explored": result.nodes_explored,
    }


# `compute` kind -> (the size flags it reads, a --sweep may stand in for one;
# the search, called with those sizes in order).  The searches are looked up
# when called, so a rebound `cli.ex_weight` or `cli.ex_columns` takes effect.
COMPUTE = {
    "weight": (("m", "n"), lambda *sizes, **kw: ex_weight(*sizes, **kw)),
    "columns": (("m", "k"), lambda *sizes, **kw: ex_columns(*sizes, **kw)),
}


def cmd_compute(args) -> int:
    patterns = _load_patterns(args.pattern)
    if args.budget < 0:
        raise ValueError(f"--budget must be at least 0 (0 means no budget), got {args.budget}")
    if args.format == "csv" and not args.sweep:
        raise ValueError("--format csv needs --sweep; a single query prints JSON")
    budget = args.budget if args.budget > 0 else None
    base_query = {
        "kind": args.kind,
        **{f: getattr(args, f, None) for f in ("m", "n", "k")},
        "patterns": list(args.pattern),
    }
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    needed, search = COMPUTE[args.kind]
    swept = sweep[0] if sweep else None
    if swept is not None and swept not in needed:
        raise ValueError(f"{args.kind} queries ignore {swept}; sweep one of " + ", ".join(needed))
    missing = [f for f in needed if getattr(args, f) is None and f != swept]
    if missing:
        raise ValueError(f"{args.kind} queries need --" + ", --".join(missing))

    # a single query is the one-point sweep of m
    var, lo, hi = sweep or ("m", args.m, args.m)
    rows = []
    for value in range(lo, hi + 1):
        query = dict(base_query, **{var: value})
        rows.append((query, search(*(query[f] for f in needed), patterns, budget=budget)))
    if args.format == "csv":
        print(f"{var},value,exact,nodes_explored")
        for query, res in rows:
            v = "unbounded" if res.unbounded else int(res.value)
            print(f"{query[var]},{v},{res.exact},{res.nodes_explored}")
    elif sweep:
        records = [_result_json(res, query) for query, res in rows]
        print(json.dumps({"schema": "1", "sweep": var, "results": records}, indent=2))
    else:
        [(query, res)] = rows
        print(json.dumps(_result_json(res, query), indent=2))
    return EXIT_OK if all(res.exact for _, res in rows) else EXIT_BUDGET


def _parse_sweep(spec: str):
    try:
        var, lo, hi = spec.split(":")
        lo, hi = int(lo), int(hi)
        if var not in ("m", "n", "k") or lo > hi:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad sweep spec {spec!r}; expected VAR:LO:HI with VAR in m,n,k and LO <= HI"
        )
    if hi - lo + 1 > SWEEP_POINT_LIMIT:
        raise SizeLimitError(
            f"sweep {spec} has {hi - lo + 1} points, more than the limit {SWEEP_POINT_LIMIT}"
        )
    return var, lo, hi


def _rung_record(rung: Rung) -> dict:
    matrix, adj, colors = rung
    return {
        "ones_per_column": matrix.weight // matrix.cols,
        "rows": matrix.rows,
        "delta": max(map(len, adj), default=0),
        "colors_used": max(colors, default=-1) + 1,
    }


def _lower_p(args) -> str:
    rungs = lower_bound_witness(args.m, args.r, args.k)
    witness = rungs[-1][0]
    if args.format == "text":
        return witness.to_text()
    return json.dumps(
        {
            "schema": "1",
            "witness": witness.to_text(),
            "columns": witness.cols,
            "rows": witness.rows,
            "trace": [_rung_record(rung) for rung in rungs],
        },
        indent=2,
    )


def _cluster_split(args) -> str:
    out = cluster_split(parse_matrix(_read(args.input)), args.k)
    if out.cols == 0:
        return json.dumps({"schema": "1", "empty": True, "rows": out.rows, "cols": 0})
    return out.to_text()


def _induction_step(args) -> str:
    before, after = islice(coloring_induction(parse_matrix(_read(args.input)), args.r), 2)
    if args.format == "text":
        return after[0].to_text()
    return json.dumps(
        {
            "schema": "1",
            "result": after[0].to_text(),
            "before": _rung_record(before),
            "after": _rung_record(after),
        },
        indent=2,
    )


# `generate` family and `transform` operation -> (the arguments it reads, in
# parser order; the code that gives the text it prints).  "input" is the FILE
# positional, "format" is --format text|json, any other name is a required
# int flag.
GENERATE = {
    "L": (("i",), lambda a: pattern_L(a.i).to_text()),
    "P": (("r", "c"), lambda a: pattern_P(a.r, a.c).to_text()),
    "T": (("r", "s"), lambda a: format_pattern_set(generate_T(a.r, a.s))),
    "Kprime": (("m", "k"), lambda a: construct_K_prime(a.m, a.k).to_text()),
    "pigeonhole": (("m", "k", "c"), lambda a: pigeonhole_witness(a.m, a.k, a.c).to_text()),
    "lowerP": (("m", "r", "k", "format"), _lower_p),
}
TRANSFORM = {
    "cluster-split": (("input", "k"), _cluster_split),
    "induction-step": (("input", "r", "format"), _induction_step),
}


def cmd_print(args) -> int:
    print(args.text(args))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    results = run_suites(names, scale=args.scale, seed=args.seed)
    if args.format == "json":
        print(
            json.dumps(
                {"schema": "1", "suites": list(names), "claims": [asdict(r) for r in results]},
                indent=2,
                default=str,
            )
        )
    else:
        width = max(len(r.claim_id) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.claim_id:<{width}}  {status}  {r.runtime_s:7.2f}s  {r.description}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def cmd_render(args) -> int:
    if args.from_matrix:
        if args.r is None or args.s is None:
            raise ValueError("matrix rendering needs --r and --s")
        matrix = parse_matrix(_read(args.input))
        layout, edges = matrix_to_visibility(matrix, args.r, args.s)
    elif args.r is not None:
        raise ValueError("--r needs --from-matrix; a layout has no r")
    else:
        layout = parse_layout(_read(args.input), args.s if args.s is not None else 0)
        edges = sweep_edges(layout)
    sys.stdout.write(layout_svg(layout, None if args.no_witnesses else edges))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exmat",
        description="Exact desk-scale extremal values, constructions and bar "
        "visibility reductions for forbidden 0-1 matrix patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="extremal value of a query")
    kinds = p_compute.add_subparsers(dest="kind", required=True)
    for kind, (flags, _) in COMPUTE.items():
        p_kind = kinds.add_parser(kind)
        p_kind.add_argument("--pattern", action="append", required=True, metavar="FILE")
        for flag in flags:
            p_kind.add_argument(f"--{flag}", type=int)
        p_kind.add_argument("--budget", type=int, default=DEFAULT_CLI_BUDGET)
        p_kind.add_argument("--sweep", metavar="VAR:LO:HI")
        p_kind.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.set_defaults(func=cmd_compute)

    p_gen = sub.add_parser("generate", help="emit a named pattern or construction")

    p_verify = sub.add_parser("verify", help="run seeded claim suites")
    p_verify.add_argument("suite", choices=("all", *SUITES))
    p_verify.add_argument("--scale", type=float, default=1.0)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="SVG for a layout or matrix")
    p_render.add_argument("input", metavar="FILE")
    p_render.add_argument("--from-matrix", action="store_true")
    p_render.add_argument("--r", type=int)
    p_render.add_argument("--s", type=int)
    p_render.add_argument("--no-witnesses", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_tr = sub.add_parser("transform", help="apply a construction to a matrix")

    for parent, dest, table in ((p_gen, "family", GENERATE), (p_tr, "operation", TRANSFORM)):
        names = parent.add_subparsers(dest=dest, required=True)
        for name, (reads, text) in table.items():
            p_name = names.add_parser(name)
            for arg in reads:
                if arg == "input":
                    p_name.add_argument("input", metavar="FILE")
                elif arg == "format":
                    p_name.add_argument("--format", choices=("text", "json"), default="text")
                else:
                    p_name.add_argument(f"--{arg}", type=int, required=True)
            p_name.set_defaults(func=cmd_print, text=text)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():  # console script
    raise SystemExit(main())
