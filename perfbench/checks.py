"""Output checks against references that do not share the code under test.

Witnesses are checked with `contains_oracle` (plain subset enumeration) or,
for all-ones blocks, with the closed form "r rows share c columns"; never
with `contains`, which is the path later changes optimise.  Exact weights
at m*n <= 16 are compared with `ex_weight_oracle`.  Sweeps and the matrix
reduction are re-implemented here from their definitions, and the expected
SVG is rebuilt from those re-implementations with the render geometry
(margin 20, row gap 24, bar height 8, x scale 30, three decimals).

Node counts are never asserted: pruning changes them legitimately.

`check(job, rc, stdout)` returns (failure message or None, value) where a
message starting with "wrong:" marks an output that contradicts its
reference, and value is the certified value reached (search jobs) or None.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from exmat.matrix import Matrix01, PatternSet, contains_oracle
from exmat.search import ex_weight_oracle

EXIT_FOR = {"exact": {0}, "cut": {0, 3}, "ok": {0}}


def _rows_to_matrix(rows) -> Matrix01:
    return Matrix01(len(rows), len(rows[0]),
                    tuple(sum(1 << j for j, ch in enumerate(r) if ch == "1") for r in rows))


def _text_rows(text: str) -> list[str]:
    return [ln.strip() for ln in text.strip().splitlines() if ln.strip()]


def _contains(host: Matrix01, rows) -> bool:
    """Containment by the closed form for all-ones blocks, else contains_oracle."""
    r, c = len(rows), len(rows[0])
    if all(ch == "1" for row in rows for ch in row):
        return any(
            _and_all(host.row_bits[i] for i in sel).bit_count() >= c
            for sel in combinations(range(host.rows), r)
        )
    return contains_oracle(host, _rows_to_matrix(rows))


def _and_all(masks) -> int:
    out = -1
    for m in masks:
        out &= m
    return out


def _search_result(job, rc, stdout):
    """Parse a compute record and check exit code against exactness."""
    rec = json.loads(stdout)
    exact, value = rec["exact"], rec["value"]
    if (rc == 0) != bool(exact):
        raise _Fail(f"exit {rc} with exact={exact}")
    if job["expect"] == "exact" and not exact:
        raise _Fail("expected an exact result")
    if not isinstance(value, int):
        raise _Fail(f"wrong: value {value!r} is not a finite integer")
    return rec, exact, value


class _Fail(Exception):
    pass


def _check_weight(job, rc, stdout):
    chk = job["check"]
    rec, exact, value = _search_result(job, rc, stdout)
    m, n = chk["m"], chk["n"]
    wit = _rows_to_matrix(_text_rows(rec["witness"])) if rec["witness"] else Matrix01.zeros(m, n)
    if (wit.rows, wit.cols) != (m, n) or wit.weight != value:
        raise _Fail(f"wrong: witness {wit.rows}x{wit.cols} of weight {wit.weight} for value {value}")
    for rows in chk["patterns"]:
        if _contains(wit, rows):
            raise _Fail("wrong: witness contains a forbidden pattern")
    refs = [chk.get("value"), chk.get("exact_value")]
    if m * n <= 16:
        pats = PatternSet(tuple(_rows_to_matrix(r) for r in chk["patterns"]))
        oracle = ex_weight_oracle(m, n, pats).value
        refs.append(oracle)
        if value > oracle:
            raise _Fail(f"wrong: value {value} above the oracle value {oracle}")
    for ref in refs:
        if exact and ref is not None and value != ref:
            raise _Fail(f"wrong: value {value}, reference {ref}")
    if chk.get("upper") is not None and value > chk["upper"]:
        raise _Fail(f"wrong: value {value} above the upper bound {chk['upper']}")
    return value


def _check_columns(job, rc, stdout):
    chk = job["check"]
    rec, exact, value = _search_result(job, rc, stdout)
    m, k = chk["m"], chk["k"]
    if value > chk["cap"]:
        raise _Fail(f"wrong: value {value} above the pigeonhole cap {chk['cap']}")
    ref = chk.get("value") if chk.get("value") is not None else chk.get("exact_value")
    if exact and ref is not None and value != ref:
        raise _Fail(f"wrong: value {value}, reference {ref}")
    if value:
        wit = _rows_to_matrix(_text_rows(rec["witness"]))
        if (wit.rows, wit.cols) != (m, value):
            raise _Fail(f"wrong: witness {wit.rows}x{wit.cols} for value {value}")
        if any(bits.bit_count() < k for bits in wit.columns()):
            raise _Fail(f"wrong: a witness column has fewer than {k} ones")
        for rows in chk["patterns"]:
            if _contains(wit, rows):
                raise _Fail("wrong: witness contains the forbidden pattern")
    return value


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def _f(v) -> str:
    return f"{float(v):.3f}"


class _Svg:
    """Expected SVG elements for bars given as (y_rank, x_left, x_right)."""

    def __init__(self, bars):
        self.bars = bars
        ranks = sorted(b[0] for b in bars)
        self.row_of = {r: i for i, r in enumerate(ranks)}
        self.x_min = min(b[1] for b in bars)
        x_max = max(b[2] for b in bars)
        w = _f(40 + float(x_max - self.x_min) * 30)
        h = _f(40 + (len(bars) - 1) * 24 + 8)
        self.header = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
                       f'viewBox="0 0 {w} {h}">')

    def sx(self, x) -> float:
        return 20 + float(x - self.x_min) * 30

    def sy(self, rank) -> float:
        return 20 + self.row_of[rank] * 24

    def line(self, x, top_rank, bottom_rank) -> str:
        xs = _f(self.sx(x))
        return (f'<line x1="{xs}" y1="{_f(self.sy(top_rank))}" x2="{xs}" '
                f'y2="{_f(self.sy(bottom_rank) + 8)}" stroke="#c03030" stroke-width="1.5"/>')

    def rects(self):
        for y, xl, xr in self.bars:
            yield (f'<rect x="{_f(self.sx(xl))}" y="{_f(self.sy(y))}" '
                   f'width="{_f(float(xr - xl) * 30)}" height="8" '
                   'fill="#305090" stroke="#102040" stroke-width="1"/>')


def _compare_svg(svg: _Svg, lines, stdout: str):
    got = stdout.rstrip("\n").split("\n")
    if got[0] != svg.header or got[-1] != "</svg>":
        raise _Fail("wrong: svg header or footer differs")
    want = Counter(lines)
    want.update(svg.rects())
    if Counter(got[1:-1]) != want:
        raise _Fail("wrong: svg elements differ from the reference")


def reference_sweep(bars, s):
    """Distinct windows of s+2 consecutive bars, each with one witness x per
    appearance: at a bar's left end for windows through it, and halfway to
    the next endpoint for windows bridging a removed bar."""
    size = s + 2
    events = sorted([(xl, 0, i) for i, (_, xl, _) in enumerate(bars)]
                    + [(xr, 1, i) for i, (_, _, xr) in enumerate(bars)])
    active = []
    edges = {}
    for ei, (x, kind, i) in enumerate(events):
        key = (bars[i][0], i)
        pos = bisect_left(active, key)
        if kind == 0:
            active.insert(pos, key)
            starts = range(max(0, pos - size + 1), min(pos, len(active) - size) + 1)
            wx = x
        else:
            del active[pos]
            if ei + 1 == len(events):
                continue
            starts = range(max(0, pos - size + 1), min(pos - 1, len(active) - size) + 1)
            wx = (x + events[ei + 1][0]) / 2
        for a in starts:
            window = active[a : a + size]
            edges.setdefault(frozenset(b for _, b in window), []).append(
                (wx, window[0][0], window[-1][0]))
    return edges


def _check_render_layout(job, rc, stdout):
    chk = job["check"]
    bars = []
    with open(job["argv"][1], encoding="utf-8") as fh:
        for ln in fh:
            y, xl, xr = ln.split()
            bars.append((int(y), Fraction(xl), Fraction(xr)))
    s, n = chk["s"], len(bars)
    edges = reference_sweep(bars, s)
    if len(edges) > (2 * s + 3) * n:
        raise _Fail(f"wrong: {len(edges)} edges exceed (2s+3)n = {(2 * s + 3) * n}")
    svg = _Svg(bars)
    _compare_svg(svg, [svg.line(*w) for ws in edges.values() for w in ws], stdout)
    return None


def reference_reduction(rows, r, s):
    """Bars and witness lines of the matrix reduction, from its definition:
    drop the first and last s+1 ones of each row, then the bottom r ones of
    each column; a surviving row is a bar over its first..last surviving
    one, its ends pushed out by (row+1)/(2*rows+2); a surviving one with at
    least s+1 surviving ones below it anchors a witness at its column
    through the next s+1 bars covering that column."""
    height = len(rows)
    kept = {}
    for i, row in enumerate(rows):
        ones = [j for j, ch in enumerate(row) if ch == "1"]
        for j in ones[s + 1 : len(ones) - (s + 1)]:
            kept.setdefault(j, []).append(i)
    cells = {j: col[: len(col) - r] for j, col in kept.items() if len(col) > r}
    span = {}
    for j, col in cells.items():
        for i in col:
            lo, hi = span.get(i, (j, j))
            span[i] = (min(lo, j), max(hi, j))
    eps = Fraction(1, 2 * height + 2)
    bars = [(i + 1, Fraction(lo + 1) - (i + 1) * eps, Fraction(hi + 1) + (i + 1) * eps)
            for i, (lo, hi) in sorted(span.items())]
    lines = []
    for j, col in cells.items():
        covering = [i for i in sorted(span) if span[i][0] <= j <= span[i][1]]
        for pos, i in enumerate(col):
            if len(col) - pos - 1 < s + 1:
                continue
            below = [i2 for i2 in covering if i2 > i][: s + 1]
            lines.append((Fraction(j + 1), i + 1, max([i] + below) + 1))
    return bars, lines


def _check_render_matrix(job, rc, stdout):
    chk = job["check"]
    with open(job["argv"][1], encoding="utf-8") as fh:
        rows = _text_rows(fh.read())
    bars, lines = reference_reduction(rows, chk["r"], chk["s"])
    if not bars:
        raise _Fail("input too sparse: the reduction has no bars")
    svg = _Svg(bars)
    _compare_svg(svg, [svg.line(*w) for w in lines], stdout)
    return None


def _check_lowerp(job, rc, stdout):
    chk = job["check"]
    wit = _rows_to_matrix(_text_rows(stdout))
    cols = wit.columns()
    m, r, k = chk["m"], chk["r"], chk["k"]
    if len(cols) != comb(m, r):
        raise _Fail(f"wrong: {len(cols)} columns, expected C({m},{r}) = {comb(m, r)}")
    if any(c.bit_count() != k for c in cols):
        raise _Fail(f"wrong: a column does not hold exactly {k} ones")
    if any((a & b).bit_count() >= r for a, b in combinations(cols, 2)):
        raise _Fail(f"wrong: two columns share {r} rows")
    return None


def _check_verify(job, rc, stdout):
    rec = json.loads(stdout)
    ids = sorted(c["claim_id"] for c in rec["claims"])
    if ids != sorted(job["check"]["claims"]):
        raise _Fail(f"wrong: claim ids {ids}")
    failed = [c["claim_id"] for c in rec["claims"] if not c["passed"]]
    if failed:
        raise _Fail(f"wrong: claims failed: {failed}")
    return None


CHECKS = {
    "weight": _check_weight,
    "columns": _check_columns,
    "render_layout": _check_render_layout,
    "render_matrix": _check_render_matrix,
    "lowerP": _check_lowerp,
    "verify": _check_verify,
}


def check(job, rc, stdout):
    """(failure message or None, certified value or None) for one job run."""
    if rc not in EXIT_FOR[job["expect"]]:
        return f"exit code {rc}, expected {sorted(EXIT_FOR[job['expect']])}", None
    try:
        return None, CHECKS[job["check"]["kind"]](job, rc, stdout)
    except _Fail as exc:
        return str(exc), None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"wrong: unreadable output ({type(exc).__name__}: {exc})", None
