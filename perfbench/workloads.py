"""Seeded job lists for the two benchmark workloads.

A job is one `exmat` command line, exactly as a user would type it, plus
what its output is checked against.  `build(workload, seed, inputs_dir)`
writes every input file the commands read into `inputs_dir` and returns the
job list; the program only ever sees those files and the argument vectors.
No query repeats within a job list.

A workload is a sequence of parts, each a group of jobs that stresses one
path of the program:
  weight    compute weight: the cell-pinned check under the ex_weight DFS
  columns   compute columns: the column-pinned check, slot bookkeeping and
            2^m candidate scans under ex_columns
  geometry  render and generate lowerP: the endpoint sweep, Fraction
            geometry, SVG and column graphs; no containment, no search
  verify    verify all: many small containment calls, the oracles and the
            verify generators
`search` runs weight then columns, `certify` runs geometry then verify.
Each part draws its random inputs from its own seeded generator.

Each job is a dict:
  id          short stable name, unique within the workload
  part        the part it belongs to
  argv        arguments for `exmat.cli.main`
  expect      "exact" (exit 0), "cut" (exit 3 with a budget-cut witness, or
              exit 0 once a faster search finishes inside the budget),
              "ok" (exit 0, non-search command)
  check       what checks.py verifies; every numeric reference is stored here
  provenance  the independent reference the output is checked against
"""

from __future__ import annotations

import random
from math import comb, sqrt
from pathlib import Path

WORKLOADS = {"search": ("weight", "columns"), "certify": ("geometry", "verify")}

P22 = ("11", "11")
DIAMOND = ("010", "101", "010")
I2 = ("10", "01")

# Zarankiewicz numbers z(m,n;2,2): z(4;2) = 9 and z(6;2) = 16 from OEIS
# A072567, and z(4,5;2,2) = 10.
ZARANKIEWICZ = {(4, 4): 9, (4, 5): 10, (6, 6): 16}

VERIFY_CLAIMS = (
    "avoider-weight-bound",
    "cluster-split-preserves",
    "cluster-split-weight-accounting",
    "columns-boundary-cases",
    "columns-exact-formula",
    "edge-count-bound",
    "induction-base-degree-bound",
    "induction-witness-valid",
    "pigeonhole-witness-valid",
    "sweep-oracle-agreement",
    "t-family-generation",
    "t-members-contain-l3",
    "visibility-multiplicity-bound",
    "visibility-no-edges-r1s0",
    "weight-at-least-n",
    "weight-column-inequality",
)


def reiman_bound(n: int) -> int:
    """Reiman's upper bound on z(n;2): floor(n/2 * (1 + sqrt(4n - 3)))."""
    return int(n / 2 * (1 + sqrt(4 * n - 3)))


def all_ones(rows: int, cols: int) -> tuple[str, ...]:
    return ("1" * cols,) * rows


class _Inputs:
    """Writes input files once per distinct content."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.names: dict[str, str] = {}

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def pattern(self, name: str, rows) -> str:
        if name not in self.names:
            self.names[name] = self.write(f"{name}.txt", "\n".join(rows))
        return self.names[name]


def _job(jid, argv, expect, check, provenance):
    return {"id": jid, "argv": list(argv), "expect": expect, "check": check,
            "provenance": provenance}


def _weight(rng: random.Random, inp: _Inputs, tiny: bool) -> list[dict]:
    jobs = []

    def add(jid, m, n, pats, expect, check, provenance, budget=None):
        argv = ["compute", "weight", "--m", str(m), "--n", str(n)]
        for name, rows in pats:
            argv += ["--pattern", inp.pattern(name, rows)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        check = dict(check, m=m, n=n, patterns=[list(rows) for _, rows in pats])
        jobs.append(_job(jid, argv, expect, check, provenance))

    anchors = [
        ("p22-4x4", 4, 4, [("p22", P22)], ZARANKIEWICZ[(4, 4)], "A072567 z(4;2)=9; ex_weight_oracle"),
        ("diamond-4x4", 4, 4, [("diamond", DIAMOND)], None, "ex_weight_oracle"),
        ("i2-5x5", 5, 5, [("i2", I2)], 9, "closed form m+n-1 for the 2x2 identity"),
    ]
    if not tiny:
        anchors += [
            ("p22-4x5", 4, 5, [("p22", P22)], ZARANKIEWICZ[(4, 5)], "Zarankiewicz z(4,5;2,2)=10"),
            ("diamond-5x5", 5, 5, [("diamond", DIAMOND)], 16, "value recorded at seed"),
            ("p22+diamond-4x5", 4, 5, [("p22", P22), ("diamond", DIAMOND)], 10,
             "value recorded at seed; at most z(4,5)=10"),
        ]
    for jid, m, n, pats, value, prov in anchors:
        add(jid, m, n, pats, "exact", {"kind": "weight", "value": value}, prov)

    # Random 3x3 patterns with four ones, solved exactly at 4x4 and checked
    # against the exhaustive oracle (16 cells).
    seen = {DIAMOND}
    draws = 2 if tiny else 8
    while draws:
        cells = set(rng.sample(range(9), 4))
        rows = tuple("".join("1" if 3 * r + c in cells else "0" for c in range(3)) for r in range(3))
        if rows in seen:
            continue
        seen.add(rows)
        draws -= 1
        name = "w3x3-" + "".join(rows)
        add(name, 4, 4, [(name, rows)], "exact", {"kind": "weight", "value": None},
            "ex_weight_oracle")

    # Budget-cut jobs.  The 40x40 probe raises RecursionError on the seed
    # code; it stays in the list so that the fix shows as an error_rate drop.
    add("p22-6x6-cut", 6, 6, [("p22", P22)], "cut",
        {"kind": "weight", "value": None, "exact_value": ZARANKIEWICZ[(6, 6)],
         "upper": ZARANKIEWICZ[(6, 6)], "cut": True},
        "A072567 z(6;2)=16 caps the cut value", budget=2000 if tiny else 50000)
    add("p22-40x40-cut", 40, 40, [("p22", P22)], "cut",
        {"kind": "weight", "value": None, "upper": reiman_bound(40), "cut": True},
        "Reiman bound z(40;2) <= 270 caps the cut value", budget=5000)
    return jobs


def _columns(rng: random.Random, inp: _Inputs, tiny: bool) -> list[dict]:
    jobs = []

    def add(jid, m, k, name, rows, expect, check, provenance, budget=None):
        argv = ["compute", "columns", "--m", str(m), "--k", str(k),
                "--pattern", inp.pattern(name, rows)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        cap = (len(rows[0]) - 1) * comb(m, len(rows))
        check = dict(check, m=m, k=k, patterns=[list(rows)], cap=cap)
        jobs.append(_job(jid, argv, expect, check, provenance))

    def block(r, c, m, k):
        value = (c - 1) * comb(m, k)
        add(f"p{r}{c}-m{m}" if c < 10 else f"p{r}x{c}-m{m}", m, k, f"p{r}x{c}",
            all_ones(r, c), "exact", {"kind": "columns", "value": value},
            f"closed form (c-1)*C(m,k) = {value}")

    if tiny:
        block(2, 2, 6, 2)
        block(2, 40, 3, 2)
    else:
        block(2, 2, 11, 2)
        block(2, 2, 12, 2)
        block(2, 3, 9, 2)
        block(3, 2, 9, 3)
        add("i2-m7", 7, 2, "i2", I2, "exact", {"kind": "columns", "value": 6},
            "value recorded at seed")
        block(2, 40, 7, 2)

    # Seeded random 2x3 patterns (every row and column holds a one) under a
    # node budget; the witness and the pigeonhole cap are checked.
    seen = {("101", "011"), ("111", "111")}
    draws = 1 if tiny else 3
    while draws:
        cols = [rng.choice(((1, 0), (0, 1), (1, 1))) for _ in range(3)]
        rows = tuple("".join(str(c[r]) for c in cols) for r in range(2))
        if rows in seen or "0" * 3 in rows:
            continue
        seen.add(rows)
        draws -= 1
        name = "c2x3-" + "".join(rows)
        add(name, 6 if not tiny else 4, 2, name, rows, "cut",
            {"kind": "columns", "value": None},
            "witness checked by contains_oracle; value at most the pigeonhole cap",
            budget=300 if tiny else 1000)

    # Budget-cut jobs.  P(2,40) at m=8 raises RecursionError on the seed code.
    add("101-011-m5-cut", 5, 2, "b101-011", ("101", "011"), "cut",
        {"kind": "columns", "value": None, "cut": True},
        "witness checked by contains_oracle; value at most the pigeonhole cap 20",
        budget=300 if tiny else 2000)
    add("p2x40-m8-cut", 8, 2, "p2x40", all_ones(2, 40), "cut",
        {"kind": "columns", "value": None, "exact_value": 39 * comb(8, 2), "cut": True},
        "closed form (c-1)*C(m,k) = 1092 caps the cut value", budget=5000)
    return jobs


def _layout_text(rng: random.Random, n: int) -> str:
    ys = rng.sample(range(3 * n), n)
    xs = rng.sample(range(8 * n), 2 * n)
    lines = []
    for i in range(n):
        a, b = sorted(xs[2 * i : 2 * i + 2])
        lines.append(f"{ys[i]} {a} {b}")
    return "\n".join(lines)


def _matrix_text(rng: random.Random, size: int, density: float) -> str:
    return "\n".join(
        "".join("1" if rng.random() < density else "0" for _ in range(size))
        for _ in range(size)
    )


def _geometry(rng: random.Random, inp: _Inputs, tiny: bool) -> list[dict]:
    jobs = []
    layouts = [(200, 0), (200, 3)] if tiny else [
        (2000, 0), (2000, 1), (2000, 2), (2000, 3), (4000, 0), (4000, 3), (8000, 1)
    ]
    for n, s in layouts:
        path = inp.write(f"layout-n{n}-s{s}.txt", _layout_text(rng, n))
        jobs.append(_job(
            f"render-n{n}-s{s}", ["render", path, "--s", str(s)], "ok",
            {"kind": "render_layout", "s": s, "n": n},
            "sweep re-implemented in checks.py; (2s+3)n edge bound; svg rebuilt from it",
        ))
    matrices = [(40, 1, 0)] if tiny else [(160, 1, 0), (240, 2, 1), (320, 1, 1)]
    for size, r, s in matrices:
        path = inp.write(f"matrix-{size}.txt", _matrix_text(rng, size, 0.08))
        jobs.append(_job(
            f"render-matrix-{size}-r{r}-s{s}",
            ["render", path, "--from-matrix", "--r", str(r), "--s", str(s)], "ok",
            {"kind": "render_matrix", "r": r, "s": s},
            "trim and anchor rule re-implemented in checks.py; svg rebuilt from it",
        ))
    lower = [(8, 2, 4)] if tiny else [(30, 2, 6), (16, 3, 6)]
    for m, r, k in lower:
        jobs.append(_job(
            f"lowerP-{m}-{r}-{k}",
            ["generate", "lowerP", "--m", str(m), "--r", str(r), "--k", str(k)], "ok",
            {"kind": "lowerP", "m": m, "r": r, "k": k},
            "C(m,r) columns, k ones each, pairwise overlap below r",
        ))
    return jobs


def _verify(seed: int, tiny: bool) -> list[dict]:
    argv = ["verify", "all" if not tiny else "pigeonhole", "--seed", str(seed), "--format", "json"]
    claims = VERIFY_CLAIMS if not tiny else ("columns-exact-formula", "pigeonhole-witness-valid")
    return [_job("verify-all" if not tiny else "verify-pigeonhole", argv, "ok",
                 {"kind": "verify", "claims": list(claims)},
                 "exit 0 and the expected claim-id set")]


def build(workload: str, seed: int, inputs_dir: Path, tiny: bool = False) -> list[dict]:
    """The job list of one workload run; inputs are written to inputs_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inp = _Inputs(inputs_dir)
    jobs = []
    for part in WORKLOADS[workload]:
        rng = random.Random(f"{part}:{seed}")
        if part == "weight":
            part_jobs = _weight(rng, inp, tiny)
        elif part == "columns":
            part_jobs = _columns(rng, inp, tiny)
        elif part == "geometry":
            part_jobs = _geometry(rng, inp, tiny)
        else:
            part_jobs = _verify(seed, tiny)
        jobs += [dict(job, part=part) for job in part_jobs]
    return jobs
