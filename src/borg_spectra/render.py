"""Dependency-free SVG rendering of interval spectra and stadium
pseudospectra.  Output is deterministic: fixed precision, no timestamps."""
from __future__ import annotations

from typing import Sequence

from . import __version__
from .errors import InvalidParameterError
from .spectra import RealSpectrum

WIDTH = 800
ROW_HEIGHT = 120
MARGIN = 40

_STYLE = (
    'font-family="Helvetica,Arial,sans-serif" font-size="11" fill="#444"'
)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _scale(lo: float, hi: float, width: float):
    span = hi - lo if hi > lo else 1.0
    pad = 0.05 * span
    lo -= pad
    hi += pad
    def to_x(v: float) -> float:
        return MARGIN + (v - lo) / (hi - lo) * (width - 2 * MARGIN)
    return to_x, lo, hi


def _axis(parts: list[str], to_x, lo: float, hi: float, y: float) -> None:
    parts.append(
        f'<line x1="{_fmt(to_x(lo))}" y1="{_fmt(y)}" x2="{_fmt(to_x(hi))}" '
        f'y2="{_fmt(y)}" stroke="#999" stroke-width="1"/>'
    )
    ticks = 5
    for i in range(ticks + 1):
        v = lo + (hi - lo) * i / ticks
        x = to_x(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y - 3)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y + 3)}" stroke="#999" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 16)}" text-anchor="middle" '
            f"{_STYLE}>{v:.3g}</text>"
        )


def _segments(parts: list[str], to_x, intervals, y: float, stroke_width: int) -> None:
    """One round-capped line per interval, at least 0.75 px long."""
    for seg_lo, seg_hi in intervals:
        x0, x1 = to_x(seg_lo), to_x(seg_hi)
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(max(x1, x0 + 0.75))}" '
            f'y2="{_fmt(y)}" stroke="#1f4e8c" stroke-width="{stroke_width}" stroke-linecap="round"/>'
        )


def _document(parts: Sequence[str], width: int, height: int, title: str) -> str:
    """The SVG file: background, then the title, then `parts`."""
    body = "\n".join([f'<text x="{MARGIN}" y="18" {_STYLE}>{title}</text>', *parts])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"<!-- borg-spectra {__version__} -->\n"
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def spectrum_svg(spectrum: RealSpectrum, title: str) -> str:
    """One 800x120 row: the interval union as thick segments on an axis."""
    hull_lo = spectrum.intervals[0][0]
    hull_hi = spectrum.intervals[-1][1]
    to_x, lo, hi = _scale(hull_lo, hull_hi, WIDTH)
    y = ROW_HEIGHT * 0.5
    parts: list[str] = []
    _axis(parts, to_x, lo, hi, y + 24)
    _segments(parts, to_x, spectrum.intervals, y, 10)
    return _document(parts, WIDTH, ROW_HEIGHT, title)


def pseudospectrum_svg(base: RealSpectrum, epsilon: float, title: str) -> str:
    """Stadium rendering: each base interval fattened by epsilon in the plane.

    Equal x/y scaling keeps the caps circular; overlapping stadiums fuse
    visually into the true fattened components.
    """
    hull_lo = base.intervals[0][0] - epsilon
    hull_hi = base.intervals[-1][1] + epsilon
    to_x, lo, hi = _scale(hull_lo, hull_hi, WIDTH)
    unit = to_x(lo + 1.0) - to_x(lo)  # pixels per spectral unit
    r = epsilon * unit
    height = max(ROW_HEIGHT, int(2 * r) + 70)
    y = height * 0.5 - 10
    parts: list[str] = []
    _axis(parts, to_x, lo, hi, height - 22.0)
    for seg_lo, seg_hi in base.intervals:
        x0 = to_x(seg_lo - epsilon)
        x1 = to_x(seg_hi + epsilon)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y - r)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(2 * r)}" rx="{_fmt(r)}" ry="{_fmt(r)}" '
            f'fill="#9dbce0" stroke="#1f4e8c" stroke-width="1.5"/>'
        )
    _segments(parts, to_x, base.intervals, y, 4)
    return _document(parts, WIDTH, height, title)


def stacked_svg(rows: Sequence[tuple[str, RealSpectrum]], title: str) -> str:
    """One labeled 800x120-style row per spectrum, sharing a common axis."""
    if not rows:
        raise InvalidParameterError("need at least one spectrum row")
    hull_lo = min(s.intervals[0][0] for _, s in rows)
    hull_hi = max(s.intervals[-1][1] for _, s in rows)
    to_x, lo, hi = _scale(hull_lo, hull_hi, WIDTH)
    row_h = 48
    height = 40 + row_h * len(rows) + 30
    parts: list[str] = []
    for i, (label, spectrum) in enumerate(rows):
        y = 40 + row_h * i + row_h * 0.5
        parts.append(
            f'<text x="4" y="{_fmt(y + 4)}" {_STYLE}>{label}</text>'
        )
        _segments(parts, to_x, spectrum.intervals, y, 8)
    _axis(parts, to_x, lo, hi, 40 + row_h * len(rows) + 8.0)
    return _document(parts, WIDTH, height, title)
