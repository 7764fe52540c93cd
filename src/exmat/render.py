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


def _offset(x: Fraction, x0: Fraction) -> float:
    """float(x - x0) as one int true division, which rounds correctly, so no
    Fraction is built."""
    p, q, p0, q0 = x.numerator, x.denominator, x0.numerator, x0.denominator
    return (p * q0 - p0 * q) / (q * q0)


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

    def sx(x: Fraction) -> float:
        return _MARGIN + _offset(x, x_min) * _X_SCALE

    def sy(rank: int) -> float:
        return _MARGIN + row_of_rank[rank] * _ROW_GAP

    width = _fmt(2 * _MARGIN + float(x_max - x_min) * _X_SCALE)
    height = _fmt(2 * _MARGIN + (len(bars) - 1) * _ROW_GAP + _BAR_HEIGHT)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if witnesses and edges:
        for edge in edges:
            ys = [sy(bars[i].y_rank) for i in edge.members]
            top, bottom = min(ys), max(ys) + _BAR_HEIGHT
            for wx in edge.witnesses:
                x = _fmt(sx(wx))
                out.append(
                    f'<line x1="{x}" y1="{_fmt(top)}" x2="{x}" y2="{_fmt(bottom)}" '
                    'stroke="#c03030" stroke-width="1.5"/>'
                )
    for b in bars:
        out.append(
            f'<rect x="{_fmt(sx(b.x_left))}" y="{_fmt(sy(b.y_rank))}" '
            f'width="{_fmt(_offset(b.x_right, b.x_left) * _X_SCALE)}" height="{_BAR_HEIGHT}" '
            'fill="#305090" stroke="#102040" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
