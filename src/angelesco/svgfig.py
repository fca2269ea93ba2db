"""Minimal static SVG plotting for limit curves.

Four fixed panels (A1, A2, B1, B2) with overlaid polylines, axes, ticks and
a legend, emitted as plain SVG 1.1 markup with no external renderer.  All
geometry is formatted with fixed precision so identical inputs produce
byte-identical files.
"""
from xml.sax.saxutils import escape

import numpy as np

from .systems import FUNCS

WIDTH, HEIGHT = 960.0, 660.0
LEGEND_H = 40.0
PANEL_PAD = {"left": 62.0, "right": 16.0, "top": 34.0, "bottom": 40.0}
COLORS = ("#1f77b4", "#ff7f0e", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x):
    return f"{x:.2f}"


def _tick_label(v):
    s = f"{v:.4g}"
    return "0" if s == "-0" else s


def _panel_box(index):
    """Pixel rectangle of panel ``index`` (row-major 2 x 2 under the legend)."""
    row, col = divmod(index, 2)
    pw = WIDTH / 2.0
    ph = (HEIGHT - LEGEND_H) / 2.0
    x0 = col * pw + PANEL_PAD["left"]
    y0 = LEGEND_H + row * ph + PANEL_PAD["top"]
    x1 = (col + 1) * pw - PANEL_PAD["right"]
    y1 = LEGEND_H + (row + 1) * ph - PANEL_PAD["bottom"]
    return x0, y0, x1, y1


def _data_range(arrays, margin=0.06):
    """Axis range of ``arrays``, widened by ``margin`` of its span; a span
    under 1e-12 (a constant, or a one-row curve) is padded to be drawable."""
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    if hi - lo < 1e-12:
        pad = max(1e-6, 0.1 * abs(hi))
        return lo - pad, hi + pad
    pad = margin * (hi - lo)
    return lo - pad, hi + pad


def render_panels(curves, labels, comments=()):
    """SVG document showing the four limit functions of ``curves``.

    ``curves`` is a sequence of :class:`~angelesco.systems.LimitCurve`,
    each drawn on its own grid ``s``; ``labels`` names them in the legend
    (escaped here, as they may hold ``&`` or ``<``).  Extra ``comments``
    are embedded verbatim as XML comments (provenance and the like).
    """
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
               f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">')
    for c in comments:
        safe = str(c).replace("--", "- -")
        out.append(f"<!-- {safe} -->")
    out.append(f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
               f'fill="#ffffff"/>')

    # legend strip
    x = 16.0
    for i, label in enumerate(labels):
        color = COLORS[i % len(COLORS)]
        out.append(f'<line x1="{_fmt(x)}" y1="20" x2="{_fmt(x + 28)}" y2="20" '
                   f'stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{_fmt(x + 34)}" y="24" font-family="sans-serif" '
                   f'font-size="13">{escape(label)}</text>')
        x += 44.0 + 7.5 * len(label)

    for idx, name in enumerate(FUNCS):
        x0, y0, x1, y1 = _panel_box(idx)
        ylo, yhi = _data_range([getattr(c, name) for c in curves])
        slo, shi = _data_range([c.s for c in curves], margin=0.0)

        def sx(v):
            return x0 + (v - slo) / (shi - slo) * (x1 - x0)

        def sy(v):
            return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

        out.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                   f'width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
                   f'fill="none" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(0.5 * (x0 + x1))}" y="{_fmt(y0 - 10)}" '
                   f'font-family="sans-serif" font-size="14" '
                   f'text-anchor="middle">{name}(s)</text>')
        for i in range(5):
            fv = slo + (shi - slo) * i / 4.0
            px = sx(fv)
            out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" '
                       f'y2="{_fmt(y1 + 5)}" stroke="#000000" stroke-width="1"/>')
            out.append(f'<text x="{_fmt(px)}" y="{_fmt(y1 + 18)}" '
                       f'font-family="sans-serif" font-size="11" '
                       f'text-anchor="middle">{_tick_label(fv)}</text>')
            gv = ylo + (yhi - ylo) * i / 4.0
            py = sy(gv)
            out.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" '
                       f'x2="{_fmt(x0)}" y2="{_fmt(py)}" '
                       f'stroke="#000000" stroke-width="1"/>')
            out.append(f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" '
                       f'font-family="sans-serif" font-size="11" '
                       f'text-anchor="end">{_tick_label(gv)}</text>')
        for ci, c in enumerate(curves):
            color = COLORS[ci % len(COLORS)]
            pts = " ".join(f"{_fmt(sx(u))},{_fmt(sy(v))}"
                           for u, v in zip(c.s, getattr(c, name)))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
