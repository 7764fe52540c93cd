"""Command-line surface: compute, generate, verify, render, transform.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exhausted.  Each `compute` kind, `generate` family and `transform`
operation has its own parser, which refuses any flag it does not read; the
`generate` and `transform` parsers require all of theirs.  JSON
records carry a "schema": "1" field; CSV sweeps start with a header row.
All commands are deterministic for identical inputs and flags.
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
    Matrix01,
    PatternSet,
    SizeLimitError,
    format_pattern_set,
    parse_matrix,
    parse_pattern_set,
)
from .patterns import generate_T, pattern_L, pattern_P
from .render import layout_svg
from .search import (
    ExtremalResult,
    ex_columns,
    ex_weight,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites
from .visibility import (
    matrix_to_visibility,
    parse_layout,
    sweep_edges,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_CLI_BUDGET = 5_000_000

# A --sweep range may hold at most this many points; each is one query.
SWEEP_POINT_LIMIT = 1024

# `compute` kind -> the size flags it reads; a --sweep may stand in for one.
COMPUTE_FLAGS = {"weight": ("m", "n"), "columns": ("m", "k")}

# `generate` family -> the int flags it reads, all required.
GENERATE_FLAGS = {
    "L": ("i",),
    "P": ("r", "c"),
    "T": ("r", "s"),
    "Kprime": ("m", "k"),
    "pigeonhole": ("m", "k", "c"),
    "lowerP": ("m", "r", "k"),
}


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


def _run_query(query: dict, patterns, budget):
    if query["kind"] == "weight":
        return ex_weight(query["m"], query["n"], patterns, budget=budget)
    return ex_columns(query["m"], query["k"], patterns, budget=budget)


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
    needed = COMPUTE_FLAGS[args.kind]
    swept = sweep[0] if sweep else None
    if swept is not None and swept not in needed:
        raise ValueError(f"{args.kind} queries ignore {swept}; sweep one of " + ", ".join(needed))
    missing = [f for f in needed if getattr(args, f) is None and f != swept]
    if missing:
        raise ValueError(f"{args.kind} queries need --" + ", --".join(missing))

    if sweep:
        var, lo, hi = sweep
        rows = []
        for value in range(lo, hi + 1):
            query = dict(base_query, **{var: value})
            rows.append((query, _run_query(query, patterns, budget)))
        if args.format == "csv":
            print(f"{var},value,exact,nodes_explored")
            for query, res in rows:
                v = "unbounded" if res.unbounded else int(res.value)
                print(f"{query[var]},{v},{res.exact},{res.nodes_explored}")
        else:
            records = [_result_json(res, query) for query, res in rows]
            print(json.dumps({"schema": "1", "sweep": var, "results": records}, indent=2))
        if any(not res.exact for _, res in rows):
            return EXIT_BUDGET
        return EXIT_OK

    res = _run_query(base_query, patterns, budget)
    print(json.dumps(_result_json(res, base_query), indent=2))
    return EXIT_OK if res.exact else EXIT_BUDGET


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


def cmd_generate(args) -> int:
    fam = args.family
    if fam == "L":
        print(pattern_L(args.i).to_text())
    elif fam == "P":
        print(pattern_P(args.r, args.c).to_text())
    elif fam == "T":
        print(format_pattern_set(generate_T(args.r, args.s)))
    elif fam == "Kprime":
        print(construct_K_prime(args.m, args.k).to_text())
    elif fam == "pigeonhole":
        print(pigeonhole_witness(args.m, args.k, args.c).to_text())
    else:  # lowerP
        rungs = lower_bound_witness(args.m, args.r, args.k)
        witness = rungs[-1][0]
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "schema": "1",
                        "witness": witness.to_text(),
                        "columns": witness.cols,
                        "rows": witness.rows,
                        "trace": [_rung_record(rung) for rung in rungs],
                    },
                    indent=2,
                )
            )
        else:
            print(witness.to_text())
    return EXIT_OK


def _rung_record(rung: Rung) -> dict:
    matrix, adj, colors = rung
    return {
        "ones_per_column": matrix.weight // matrix.cols,
        "rows": matrix.rows,
        "delta": max(map(len, adj), default=0),
        "colors_used": max(colors, default=-1) + 1,
    }


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
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


def cmd_cluster_split(args) -> int:
    out = cluster_split(parse_matrix(_read(args.input)), args.k)
    if out.cols == 0:
        print(json.dumps({"schema": "1", "empty": True, "rows": out.rows, "cols": 0}))
    else:
        print(out.to_text())
    return EXIT_OK


def cmd_induction_step(args) -> int:
    before, after = islice(coloring_induction(parse_matrix(_read(args.input)), args.r), 2)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": "1",
                    "result": after[0].to_text(),
                    "before": _rung_record(before),
                    "after": _rung_record(after),
                },
                indent=2,
            )
        )
    else:
        print(after[0].to_text())
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
    for kind, flags in COMPUTE_FLAGS.items():
        p_kind = kinds.add_parser(kind)
        p_kind.add_argument("--pattern", action="append", required=True, metavar="FILE")
        for flag in flags:
            p_kind.add_argument(f"--{flag}", type=int)
        p_kind.add_argument("--budget", type=int, default=DEFAULT_CLI_BUDGET)
        p_kind.add_argument("--sweep", metavar="VAR:LO:HI")
        p_kind.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.set_defaults(func=cmd_compute)

    p_gen = sub.add_parser("generate", help="emit a named pattern or construction")
    families = p_gen.add_subparsers(dest="family", required=True)
    for family, flags in GENERATE_FLAGS.items():
        p_family = families.add_parser(family)
        for flag in flags:
            p_family.add_argument(f"--{flag}", type=int, required=True)
        if family == "lowerP":
            p_family.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="run seeded claim suites")
    p_verify.add_argument("suite", choices=("all",) + SUITE_NAMES)
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
    operations = p_tr.add_subparsers(dest="operation", required=True)
    p_split = operations.add_parser("cluster-split")
    p_split.add_argument("input", metavar="FILE")
    p_split.add_argument("--k", type=int, required=True)
    p_split.set_defaults(func=cmd_cluster_split)
    p_step = operations.add_parser("induction-step")
    p_step.add_argument("input", metavar="FILE")
    p_step.add_argument("--r", type=int, required=True)
    p_step.add_argument("--format", choices=("text", "json"), default="text")
    p_step.set_defaults(func=cmd_induction_step)

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
