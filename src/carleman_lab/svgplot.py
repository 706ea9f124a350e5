"""Minimal self-contained SVG plots: a log-log scatter with an optional
fitted line and multi-series line charts on a log x axis.  No
dependencies, no styling beyond what the sweeps need, deterministic
output for deterministic input."""

from __future__ import annotations

import math
import sys

WIDTH, HEIGHT = 560, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _plotted(v, log):
    """Data value in plotted coordinates (log10 on a log axis)."""
    return math.log10(v) if log else float(v)


def _shown(v, log) -> bool:
    """Whether an axis can show the data value v: a finite one, positive
    on a log axis."""
    return math.isfinite(v) and (not log or v > 0.0)


def _half_span(lo, hi):
    """(hi - lo) / 2, which stays finite for any finite lo and hi; a span
    halved is exact, so ratios of half spans are those of the spans."""
    return 0.5 * hi - 0.5 * lo


def _padded(lo, hi):
    """The plotted range [lo, hi] widened by 6 % of its span on each side,
    held within the finite doubles.  A range whose half span is at most
    1e-12 of its magnitude, where the ticks could not step, is first made
    max(0.5, 1e-12 magnitude) wide on each side of its middle: a single
    point below 5e11 by 0.5."""
    magnitude = max(abs(lo), abs(hi))
    if _half_span(lo, hi) <= 1e-12 * magnitude:
        mid, half = lo + _half_span(lo, hi), max(0.5, 1e-12 * magnitude)
        lo, hi = mid - half, mid + half
    pad = 0.12 * _half_span(lo, hi)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def _transforms(xs, ys, logx, logy):
    """Pixel transform on plotted coordinates, and the padded plotted
    x and y ranges."""
    def prep(vals, log):
        return [_plotted(v, log) for v in map(float, vals) if _shown(v, log)]

    px = prep(xs, logx)
    py = prep(ys, logy)
    if not px or not py:
        px, py = [0.0, 1.0], [0.0, 1.0]
    lo_x, hi_x = _padded(min(px), max(px))
    lo_y, hi_y = _padded(min(py), max(py))
    half_x, half_y = _half_span(lo_x, hi_x), _half_span(lo_y, hi_y)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def to_px(ux, uy):
        sx = MARGIN_L + plot_w * (0.5 * ux - 0.5 * lo_x) / half_x
        sy = MARGIN_T + plot_h * (1.0 - (0.5 * uy - 0.5 * lo_y) / half_y)
        return sx, sy

    return to_px, (lo_x, hi_x), (lo_y, hi_y)


def _ticks(lo, hi, log):
    if log:
        first = math.ceil(lo - 1e-9)
        last = math.floor(hi + 1e-9)
        if last >= first:
            return [(float(k), f"1e{k}") for k in range(first, last + 1)]
        mid = 0.5 * (lo + hi)
        return [(mid, f"1e{mid:.1f}")]
    # a step of 1, 2 or 5 times a power of ten, for at most 6 steps
    half = _half_span(lo, hi)
    step = 10.0 ** math.floor(math.log10(half / 1.5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if half / (step * mult) <= 3:
            step = step * mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    # past the largest double, t + step is inf and ends the walk
    while t <= min(hi + 1e-12 * max(1.0, abs(hi)), sys.float_info.max):
        out.append((t, f"{t:g}"))
        t += step
    return out


def _axes(to_px, xr, yr, logx, logy, xlabel, ylabel, title):
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="white" stroke="#444" stroke-width="1"/>'
    ]
    for tx, label in _ticks(*xr, logx):
        px, _ = to_px(tx, yr[0])
        parts.append(
            f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" font-size="12" '
            f'text-anchor="middle">{label}</text>'
        )
    for ty, label in _ticks(*yr, logy):
        _, py = to_px(xr[0], ty)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="12" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="24" font-size="14" '
        f'text-anchor="middle">{title}</text>'
    )
    return parts


def _pixels(to_px, xs, ys, logx, logy):
    """Pixel positions of the data points both axes can show."""
    for x, y in zip(xs, ys):
        if _shown(x, logx) and _shown(y, logy):
            yield to_px(_plotted(x, logx), _plotted(y, logy))


def _document(parts):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        + "\n".join(parts)
        + "\n</svg>\n"
    )


def scatter(xs, ys, *, xlabel="x", ylabel="y", title="", fit_slope=None,
            fit_intercept=None) -> str:
    """Scatter plot on log-log axes; if fit_slope is given, draw the fitted
    line log10 y = slope * log10 x + intercept."""
    to_px, xr, yr = _transforms(xs, ys, True, True)
    parts = _axes(to_px, xr, yr, True, True, xlabel, ylabel, title)
    for px, py in _pixels(to_px, xs, ys, True, True):
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="{PALETTE[0]}" '
            'fill-opacity="0.8"/>'
        )
    if fit_slope is not None and fit_intercept is not None:
        pts = []
        for u in xr:
            px, py = to_px(u, fit_slope * u + fit_intercept)
            pts.append(f"{px:.1f},{py:.1f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{PALETTE[1]}" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 18}" font-size="12" '
            f'text-anchor="end" fill="{PALETTE[1]}">slope {fit_slope:.3f}</text>'
        )
    return _document(parts)


def lines(series, *, xlabel="x", ylabel="y", title="") -> str:
    """Multi-series line chart with a log x axis and a linear y axis;
    series is a list of (label, xs, ys)."""
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    to_px, xr, yr = _transforms(all_x, all_y, True, False)
    parts = _axes(to_px, xr, yr, True, False, xlabel, ylabel, title)
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = []
        for px, py in _pixels(to_px, xs, ys, True, False):
            pts.append(f"{px:.1f},{py:.1f}")
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3.5" fill="{color}"/>'
            )
        if len(pts) >= 2:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 18 + 16 * idx}" '
            f'font-size="12" text-anchor="end" fill="{color}">{label}</text>'
        )
    return _document(parts)
