"""Deterministic SVG emission for bar layouts.

Bars are horizontal rectangles ordered by y_rank (smallest rank on top);
witness segments are vertical lines from an edge's first member bar to its
last, its top and bottom bars as members are listed top-first, and
edges=None draws none.
The same layout and edges always produce byte-identical output.  Bar ends
stay exact (int or Fraction); each x coordinate is the float of its exact
offset from the leftmost endpoint, one correctly rounded int division, then
scaled.
"""

from __future__ import annotations

from fractions import Fraction
from sys import float_info

from .visibility import BarLayout, VisEdge

_BAR_HEIGHT = 8
_ROW_GAP = 24
_MARGIN = 20
_X_SCALE = 30


def layout_svg(layout: BarLayout, edges: list[VisEdge] | None = None) -> str:
    bars = layout.bars
    if not bars:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="40" height="40" '
            'viewBox="0 0 40 40"></svg>\n'
        )
    ranks = sorted(b.y_rank for b in bars)
    row_of_rank = {r: i for i, r in enumerate(ranks)}
    x_min = min(b.x_left for b in bars)
    x_max = max(b.x_right for b in bars)
    # every coordinate below is at most the scaled span plus margins, so half
    # the float range leaves room for rounding
    if (x_max - x_min) * _X_SCALE > float_info.max / 2:
        raise ValueError("the layout's x-span is too wide for float SVG coordinates")

    p0, q0 = x_min.numerator, x_min.denominator

    def sx(x: int | Fraction) -> float:
        # float(x - x_min) as one int true division, which rounds correctly,
        # so no Fraction is built
        p, q = x.numerator, x.denominator
        return _MARGIN + (p * q0 - p0 * q) / (q * q0) * _X_SCALE

    # each bar's top y, by bar index
    ys = [_MARGIN + row_of_rank[b.y_rank] * _ROW_GAP for b in bars]

    width = f"{2 * _MARGIN + float(x_max - x_min) * _X_SCALE:.3f}"
    height = f"{2 * _MARGIN + (len(bars) - 1) * _ROW_GAP + _BAR_HEIGHT:.3f}"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for edge in edges or ():
        members = edge.members
        top, bottom = f"{ys[members[0]]:.3f}", f"{ys[members[-1]] + _BAR_HEIGHT:.3f}"
        for wx in edge.witnesses:
            x = f"{sx(wx):.3f}"
            out.append(
                f'<line x1="{x}" y1="{top}" x2="{x}" y2="{bottom}" '
                'stroke="#c03030" stroke-width="1.5"/>'
            )
    for b, y in zip(bars, ys):
        p, q = b.x_right.numerator, b.x_right.denominator
        p1, q1 = b.x_left.numerator, b.x_left.denominator
        out.append(
            f'<rect x="{sx(b.x_left):.3f}" y="{y:.3f}" '
            f'width="{(p * q1 - p1 * q) / (q * q1) * _X_SCALE:.3f}" height="{_BAR_HEIGHT}" '
            'fill="#305090" stroke="#102040" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
