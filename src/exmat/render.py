"""Deterministic SVG emission for bar layouts.

Bars are horizontal rectangles ordered by y_rank (smallest rank on top);
witness segments are vertical lines spanning their edge's member bars.
The same layout and edges always produce byte-identical output.  Bars stay
rational; each x coordinate is the float of its exact offset from the
leftmost endpoint, one correctly rounded int division, then scaled.
"""

from __future__ import annotations

from fractions import Fraction
from sys import float_info

from .visibility import BarLayout, VisEdge

_BAR_HEIGHT = 8
_ROW_GAP = 24
_MARGIN = 20
_X_SCALE = 30


def _fmt(v) -> str:
    return f"{float(v):.3f}"


def layout_svg(layout: BarLayout, edges: list[VisEdge] | None = None, witnesses: bool = True) -> str:
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

    def sx(x: Fraction) -> float:
        # float(x - x_min) as one int true division, which rounds correctly,
        # so no Fraction is built
        p, q = x.numerator, x.denominator
        return _MARGIN + (p * q0 - p0 * q) / (q * q0) * _X_SCALE

    # each bar's top y, by bar index
    ys = [_MARGIN + row_of_rank[b.y_rank] * _ROW_GAP for b in bars]

    width = _fmt(2 * _MARGIN + float(x_max - x_min) * _X_SCALE)
    height = _fmt(2 * _MARGIN + (len(bars) - 1) * _ROW_GAP + _BAR_HEIGHT)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if witnesses and edges:
        for edge in edges:
            member_ys = [ys[i] for i in edge.members]
            top, bottom = _fmt(min(member_ys)), _fmt(max(member_ys) + _BAR_HEIGHT)
            for wx in edge.witnesses:
                x = _fmt(sx(wx))
                out.append(
                    f'<line x1="{x}" y1="{top}" x2="{x}" y2="{bottom}" '
                    'stroke="#c03030" stroke-width="1.5"/>'
                )
    for b, y in zip(bars, ys):
        p, q = b.x_right.numerator, b.x_right.denominator
        p1, q1 = b.x_left.numerator, b.x_left.denominator
        out.append(
            f'<rect x="{_fmt(sx(b.x_left))}" y="{_fmt(y)}" '
            f'width="{_fmt((p * q1 - p1 * q) / (q * q1) * _X_SCALE)}" height="{_BAR_HEIGHT}" '
            'fill="#305090" stroke="#102040" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
