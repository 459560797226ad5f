"""Static SVG emission for persistence diagrams.

Hand-rolled SVG with fixed-precision coordinates so identical diagrams
produce byte-identical files.
"""

from __future__ import annotations

import math
from html import escape     # xml.sax.saxutils would load urllib.request and ssl

from .persistence import PersistenceDiagram

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SIZE = 480
_MARGIN = 56


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def persistence_diagram_svg(diagram: PersistenceDiagram, title: str = "persistence diagram") -> str:
    finite = [v for _, b, d in diagram.intervals for v in (b, d) if not math.isinf(v)]
    vmax = max(finite) if finite else 1.0
    vmax = max(vmax, 1e-9) * 1.08
    span = _SIZE - 2 * _MARGIN
    inf_y = _MARGIN - 18

    def sx(v: float) -> float:
        return _MARGIN + (v / vmax) * span

    def sy(v: float) -> float:
        return _SIZE - _MARGIN - (v / vmax) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_SIZE // 2}" y="24" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{escape(title, quote=False)}</text>',
        f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_SIZE - _MARGIN}" '
        f'y2="{_SIZE - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_MARGIN}" y2="{_MARGIN}" '
        f'stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_SIZE - _MARGIN}" '
        f'y2="{_MARGIN}" stroke="#bbbbbb" stroke-dasharray="4 3"/>',
        f'<line x1="{_MARGIN}" y1="{inf_y}" x2="{_SIZE - _MARGIN}" y2="{inf_y}" '
        f'stroke="#888888" stroke-dasharray="2 3"/>',
        f'<text x="{_SIZE - _MARGIN + 6}" y="{inf_y + 4}" font-size="11" '
        f'font-family="sans-serif">inf</text>',
    ]
    for k in range(5):
        v = vmax * k / 4.0
        parts.append(f'<text x="{_fmt(sx(v))}" y="{_SIZE - _MARGIN + 16}" '
                     f'text-anchor="middle" font-size="10" font-family="sans-serif">'
                     f'{v:.3g}</text>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{_fmt(sy(v) + 3)}" '
                     f'text-anchor="end" font-size="10" font-family="sans-serif">'
                     f'{v:.3g}</text>')
    dims = sorted({q for q, _, _ in diagram.intervals})
    for q in dims:
        color = _COLORS[q % len(_COLORS)]
        for b, d in diagram.in_dim(q):
            if math.isinf(d):
                parts.append(f'<path d="M {_fmt(sx(b) - 4)} {inf_y + 4} '
                             f'L {_fmt(sx(b) + 4)} {inf_y + 4} L {_fmt(sx(b))} '
                             f'{inf_y - 5} Z" fill="{color}"/>')
            else:
                parts.append(f'<circle cx="{_fmt(sx(b))}" cy="{_fmt(sy(d))}" r="3.5" '
                             f'fill="{color}" fill-opacity="0.85"/>')
        parts.append(f'<text x="{_SIZE - _MARGIN - 4}" y="{_MARGIN + 14 * (q + 1)}" '
                     f'text-anchor="end" font-size="11" font-family="sans-serif" '
                     f'fill="{color}">H{q}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
