"""Bar visibility hypergraphs over disjoint horizontal bars.

A layout is a set of horizontal bars, each with a distinct integer height
and an exact rational x-interval; all 2n interval endpoints must be
pairwise distinct.  For a visibility parameter s, an edge is any set of s+2
bars that some vertical segment meets while meeting no other bar.  Such a
set is always s+2 consecutively stacked bars among those whose intervals
contain the segment's x.

sweep_edges enumerates edges with a left-to-right endpoint sweep: new edges
can only appear when a bar starts (windows through its stack position, at
most s+2 of them) or ends (windows bridging the gap it leaves, at most s+1),
which also proves the (2s+3)n bound on distinct edges.  A witness x is
recorded every time a window (re)appears, so an edge's witness count equals
its number of maximal realization intervals.

matrix_to_visibility turns a 0-1 matrix into such a layout: trim the first
and last s+1 ones of every row and then the bottom r ones of every column
(a column with at most r surviving ones is emptied); each surviving row
becomes a bar spanning its first to last remaining one;
each surviving one with s+1 ones below it in its column anchors a vertical
witness segment through the next s+1 bars covering that column.  A
per-row rational nudge of the bar ends keeps all endpoints distinct without
changing which columns a bar covers.

Bar ends and witnesses are exact rationals: an int or a Fraction, never a
float.  An integer end stays an int, and every midpoint witness is one
Fraction built from the ends' numerators and denominators.  The sweep
orders its endpoints by integer floor first and compares two ends only
when their floors are equal.  Every edge lists its members top-first: bar
indices in increasing y_rank.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .matrix import Matrix01, _transpose, _trim_bits


class LayoutError(ValueError):
    """Layout violates the bar model (duplicate endpoints or heights, ...)."""


@dataclass(frozen=True)
class Bar:
    """A bar at height y_rank over [x_left, x_right].  An int or a Fraction
    end is kept as given, both being exact; any other number becomes a
    Fraction."""

    y_rank: int
    x_left: int | Fraction
    x_right: int | Fraction

    def __post_init__(self):
        if type(self.x_left) not in (int, Fraction):
            object.__setattr__(self, "x_left", Fraction(self.x_left))
        if type(self.x_right) not in (int, Fraction):
            object.__setattr__(self, "x_right", Fraction(self.x_right))
        if self.x_left >= self.x_right:
            raise LayoutError(f"bar needs x_left < x_right, got {self.x_left} >= {self.x_right}")

    def covers(self, x: int | Fraction) -> bool:
        return self.x_left <= x <= self.x_right


@dataclass(frozen=True)
class BarLayout:
    bars: tuple[Bar, ...]
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise LayoutError("s must be nonnegative")
        ys = [b.y_rank for b in self.bars]
        if len(set(ys)) != len(ys):
            raise LayoutError("bars must have pairwise distinct y_rank")
        ends = [b.x_left for b in self.bars] + [b.x_right for b in self.bars]
        if len(set(ends)) != len(ends):
            raise LayoutError("all endpoint x-coordinates must be distinct")


@dataclass(frozen=True)
class VisEdge:
    """An edge (s+2 bar indices, top-first: in increasing y_rank) plus one
    witness x, an int or a Fraction, per maximal realization interval (for
    matrix-derived layouts: per witness column)."""

    members: tuple[int, ...]
    witnesses: tuple[int | Fraction, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.witnesses)


def witness_is_exact(layout: BarLayout, members, x: int | Fraction) -> bool:
    """A vertical segment at x through the member span meets exactly the members."""
    ys = [layout.bars[i].y_rank for i in members]
    lo, hi = min(ys), max(ys)
    met = {i for i, b in enumerate(layout.bars) if b.covers(x) and lo <= b.y_rank <= hi}
    return met == set(members)


def _midpoint(a: int | Fraction, b: int | Fraction) -> Fraction:
    """(a + b) / 2 as one Fraction built from ints, exact for int ends too."""
    p, q, p2, q2 = a.numerator, a.denominator, b.numerator, b.denominator
    return Fraction(p * q2 + p2 * q, 2 * q * q2)


def sweep_edges(layout: BarLayout) -> list[VisEdge]:
    """All distinct edges via the endpoint sweep, in first-seen order."""
    size = layout.s + 2
    bars = layout.bars
    # Endpoints are distinct, so (floor, x) orders them as x does, and two
    # ends are compared only when their floors are equal.
    events = sorted(
        (x.numerator // x.denominator, x, kind, i)
        for i, b in enumerate(bars) for kind, x in ((0, b.x_left), (1, b.x_right))
    )
    heights: list[int] = []  # y_rank of the active bars, ascending
    active: list[int] = []  # their bar indices, in the same order
    # Heights are distinct, so a window's indices, top-first, name its edge.
    seen: dict[tuple[int, ...], list[int | Fraction]] = {}

    for ei, (_, x, kind, bi) in enumerate(events):
        y = bars[bi].y_rank
        pos = bisect_left(heights, y)
        if kind == 0:
            heights.insert(pos, y)
            active.insert(pos, bi)
            windows = range(max(0, pos - size + 1), min(pos, len(active) - size) + 1)
        else:
            del heights[pos], active[pos]
            windows = range(max(0, pos - size + 1), min(pos - 1, len(active) - size) + 1)
            if not windows:
                continue
            # a window's bars all end later, so a next event exists
            x = _midpoint(x, events[ei + 1][1])
        for i in windows:
            seen.setdefault(tuple(active[i : i + size]), []).append(x)
    return [VisEdge(key, tuple(wit)) for key, wit in seen.items()]


def sweep_edges_oracle(layout: BarLayout) -> list[VisEdge]:
    """Reference enumeration: test every (s+2)-subset of bars against the
    midpoint of every gap between consecutive endpoint coordinates.

    Adjacent realizing gaps belong to one maximal interval (the separating
    endpoint cannot block an edge realized on both sides), so runs of gaps
    are merged and the witness count matches sweep_edges.

    At each midpoint the subsets and their blockers are drawn from the bars
    covering it only.  A subset with a bar that misses the midpoint is not
    realized there, and a bar that misses it blocks nothing, so skipping
    both leaves the test of every (s+2)-subset unchanged; the covering bars
    keep index order, so the subsets run in the same order as well.  An
    edge lists its members top-first, as sweep_edges does.
    """
    size = layout.s + 2
    bars = layout.bars
    n = len(bars)
    if n < size:
        return []
    ends = sorted([b.x_left for b in bars] + [b.x_right for b in bars])
    mids = [_midpoint(a, b) for a, b in zip(ends, ends[1:])]
    seen: dict[frozenset, list[Fraction]] = {}
    prev: set[frozenset] = set()
    for x in mids:
        covering = [i for i, b in enumerate(bars) if b.covers(x)]
        current: set[frozenset] = set()
        for combo in combinations(covering, size):
            ys = [bars[i].y_rank for i in combo]
            lo, hi = min(ys), max(ys)
            blocked = any(
                lo < bars[j].y_rank < hi for j in covering if j not in combo
            )
            if blocked:
                continue
            key = frozenset(combo)
            current.add(key)
            if key not in prev:
                seen.setdefault(key, []).append(x)
        prev = current
    return [
        VisEdge(tuple(sorted(key, key=lambda i: bars[i].y_rank)), tuple(wit))
        for key, wit in seen.items()
    ]


# ---------------------------------------------------------------------------
# matrix reduction
# ---------------------------------------------------------------------------


def matrix_to_visibility(
    matrix: Matrix01, r: int, s: int
) -> tuple[BarLayout, list[VisEdge]]:
    """Layout and anchored witness edges of the trimmed matrix.

    Bars get y_rank = 1-based row number and x-interval from the first to
    the last surviving one (1-based column coordinates), widened by
    row-dependent multiples of eps = 1/(2*rows+2) so that all endpoints are
    distinct while column coverage is unchanged.  Edge members are bar
    indices, top-first: the anchor's bar, then the bars below it.  An
    edge's witnesses are the distinct 1-based columns anchoring it, as ints,
    so its multiplicity is its witness-column count.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    rows = [_trim_bits(bits, s + 1, s + 1) for bits in matrix.row_bits]
    cols = [_trim_bits(bits, 0, r) for bits in _transpose(rows, matrix.cols)]
    if not any(cols):  # no one survives trimming, so no bar
        return BarLayout((), s), []
    rows = _transpose(cols, matrix.rows)
    # left - (i+1)*eps and right + (i+1)*eps, eps = 1/den, each one Fraction
    den = 2 * matrix.rows + 2
    bars = [
        Bar(
            i + 1,
            Fraction((bits & -bits).bit_length() * den - i - 1, den),
            Fraction(bits.bit_length() * den + i + 1, den),
        )
        for i, bits in enumerate(rows)
        if bits
    ]
    bar_index = {bar.y_rank - 1: idx for idx, bar in enumerate(bars)}
    # Per column, the rows whose bar spans it: each bar's lowest to highest bit.
    spans = [bits and (1 << bits.bit_length()) - (bits & -bits) for bits in rows]
    cover = _transpose(spans, matrix.cols)

    seen: dict[tuple[int, ...], list[int]] = {}
    for j, bits in enumerate(cols):
        for _ in range(bits.bit_count() - (s + 1)):  # the ones with s+1 ones below them
            low = bits & -bits
            bits ^= low
            below = cover[j] & -(low << 1)  # bar rows below the anchor
            members = [bar_index[low.bit_length() - 1]]
            for _ in range(s + 1):
                nxt = below & -below
                members.append(bar_index[nxt.bit_length() - 1])
                below ^= nxt
            seen.setdefault(tuple(members), []).append(j + 1)
    edges = [VisEdge(members, tuple(wit)) for members, wit in seen.items()]
    return BarLayout(tuple(bars), s), edges


def avoider_weight_bound(n: int, r: int, s: int) -> int:
    """The closed-form bound (3s+3+r)*n + (r-1)*(2s+3)*(n-r) on the weight
    of an n x n matrix avoiding the whole T family for (r, s).

    Requires r >= 1: the second term counts witness segments per edge, at
    most r-1 of them, and degenerates for r = 0.
    """
    if r < 1:
        raise ValueError("the weight bound needs r >= 1")
    if s < 0:
        raise ValueError("s must be nonnegative")
    return (3 * s + 3 + r) * n + (r - 1) * (2 * s + 3) * (n - r)


# ---------------------------------------------------------------------------
# layout text format: one bar per line, "y_rank x_left x_right", coordinates
# as integers or fractions "p/q", parsed to an int or a Fraction.
# ---------------------------------------------------------------------------


_COORDINATE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_layout(text: str, s: int) -> BarLayout:
    bars = []
    for ln in text.strip().splitlines():
        parts = ln.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"expected 'y_rank x_left x_right', got {ln!r}")
        if not all(_COORDINATE.fullmatch(x) for x in parts[1:]):
            raise ValueError(f"bad bar line {ln!r}: coordinates are integers or p/q")
        try:
            bar = [int(parts[0])]
            for x in parts[1:]:
                num, _, den = x.partition("/")
                bar.append(Fraction(int(num), int(den)) if den else int(num))
            bars.append(Bar(*bar))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad bar line {ln!r}: {exc}") from exc
    return BarLayout(tuple(bars), s)


def format_layout(layout: BarLayout) -> str:
    return "\n".join(f"{b.y_rank} {b.x_left} {b.x_right}" for b in layout.bars)
