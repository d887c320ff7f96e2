"""Self-contained SVG line plots with byte-deterministic output.

No plotting dependency: results must re-render to identical bytes for the
idempotence guarantee, which rules out libraries that embed ids or dates.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

from .errors import ConfigError, DictConfig, DomainError

PALETTE = ("#1f6fb2", "#d1495b", "#3a9e5f", "#8a5fbf", "#c98a1e", "#4a4a4a")
LOG_FLOOR_RATIO = 0.1  # non-positive values clamp to min_positive * this
SCALES = ("linear", "log")
LEFT, RIGHT, TOP, BOTTOM = 62, 18, 34, 46  # plot margins, in pixels


@dataclass
class Series(DictConfig):
    label: str
    xs: list[float]
    ys: list[float]
    y_lo: list[float] | None = None
    y_hi: list[float] | None = None

    def __post_init__(self):
        for name in ("y_lo", "y_hi"):
            band = getattr(self, name)
            if band is not None and len(band) != len(self.xs):
                raise ConfigError(f"series {self.label!r}: {name} has {len(band)} "
                                  f"values for {len(self.xs)} points")
        if (self.y_lo is None) != (self.y_hi is None):
            raise ConfigError(f"series {self.label!r}: an error band needs both "
                              f"y_lo and y_hi, or neither")


@dataclass
class AxesSpec(DictConfig):
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xscale: str = "linear"
    yscale: str = "linear"
    width: int = 640
    height: int = 420

    def __post_init__(self):
        for name in ("xscale", "yscale"):
            if getattr(self, name) not in SCALES:
                raise ConfigError(f"{name} must be one of {SCALES}, "
                                  f"got {getattr(self, name)!r}")
        if self.width <= LEFT + RIGHT or self.height <= TOP + BOTTOM:
            raise ConfigError(f"a {self.width}x{self.height} plot cannot hold its "
                              f"margins: need width > {LEFT + RIGHT} and "
                              f"height > {TOP + BOTTOM}")


@dataclass
class FigureSpec(DictConfig):
    """The JSON input of `ceralab plot`: its series and, optionally, axes."""

    series: list[Series]
    axes: AxesSpec = field(default_factory=AxesSpec)


def _escape(text: str) -> str:
    """Text content with &, < and > as entities; the bytes of
    `xml.sax.saxutils.escape`, whose import pulls in urllib and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 4  # about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        if t + step == t:
            raise DomainError(f"a linear axis from {lo!r} to {hi!r} cannot tick "
                              f"every {step:g}: floats there are spaced wider")
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    if hi_e > sys.float_info.max_10_exp:
        raise DomainError(f"a log axis up to {hi:g} needs a tick at 1e{hi_e}, "
                          f"past the largest float")
    return [10.0 ** e for e in range(lo_e, hi_e + 1)
            if lo <= 10.0 ** e <= hi * (1 + 1e-12)]


def _axis(lists: list[list[float]], scale: str, axis: str, start: int,
          length: int, down: bool = False):
    """The pixels of one axis's value `lists` and its (pixel, value) ticks,
    over `length` pixels from `start`, downwards for y. A log scale clamps
    each list's non-positive values to its least positive one times
    LOG_FLOOR_RATIO. A range the axis cannot draw is a DomainError."""
    log = scale == "log"
    if log:
        clamped = []
        for vals in lists:
            floor = min([v for v in vals if v > 0.0] or [1.0]) * LOG_FLOOR_RATIO
            for v in vals:
                if v <= 0.0:
                    warnings.warn(f"non-positive value {v} on log-scale {axis} axis "
                                  f"clamped to {floor:g}", stacklevel=3)
            clamped.append([floor if v <= 0.0 else v for v in vals])
        lists = clamped
    values = [v for vals in lists for v in vals]
    lo, hi = min(values), max(values)
    if log:
        lo, hi = lo / 1.2, hi * 1.2
    else:
        pad = (hi - lo) * 0.08 or max(abs(hi), 1.0) * 0.08
        lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo) or (log and lo == 0.0):  # a clamp that underflowed
        raise DomainError(f"the {axis} axis cannot span {min(values):g} to "
                          f"{max(values):g}: its padded range is beyond the floats")
    ticks = _log_ticks(lo, hi) if log else _nice_ticks(lo, hi)
    f = math.log10 if log else (lambda v: v)
    f0, span = f(lo), f(hi) - f(lo)

    def pixel(v):
        if down:
            return start + length * (1 - (f(v) - f0) / span)
        return start + length * (f(v) - f0) / span
    return [[pixel(v) for v in vals] for vals in lists], [(pixel(t), t) for t in ticks]


def emit_plot(series: list[Series], axes: AxesSpec, path) -> None:
    """Write a line plot as a standalone SVG; identical input, identical bytes."""
    series = [s for s in series if s.xs]
    if not series:
        raise DomainError("emit_plot needs at least one non-empty series")
    for s in series:
        if len(s.xs) != len(s.ys):
            raise DomainError(f"series {s.label!r} has mismatched xs/ys")

    left, top = LEFT, TOP
    pw = axes.width - LEFT - RIGHT
    ph = axes.height - TOP - BOTTOM
    x_pixels, xticks = _axis([s.xs for s in series], axes.xscale, "x", left, pw)
    y_pixels, yticks = _axis(
        [vals for s in series for vals in (s.ys, s.y_lo, s.y_hi) if vals is not None],
        axes.yscale, "y", top, ph, down=True)
    y_pixels = iter(y_pixels)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{axes.width}" '
        f'height="{axes.height}" viewBox="0 0 {axes.width} {axes.height}">',
        f'<rect width="{axes.width}" height="{axes.height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{axes.width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{_escape(axes.title)}</text>')
    for x, t in xticks:
        parts.append(f'<line x1="{_fmt(x)}" y1="{top + ph}" x2="{_fmt(x)}" '
                     f'y2="{top + ph + 4}" stroke="#555"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{top + ph + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_tick_label(t)}</text>')
    for y, t in yticks:
        parts.append(f'<line x1="{left - 4}" y1="{_fmt(y)}" x2="{left}" '
                     f'y2="{_fmt(y)}" stroke="#555"/>')
        parts.append(f'<text x="{left - 7}" y="{_fmt(y + 3)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_tick_label(t)}</text>')
    if axes.xlabel:
        parts.append(f'<text x="{left + pw / 2:.1f}" y="{axes.height - 8}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_escape(axes.xlabel)}</text>')
    if axes.ylabel:
        cy = top + ph / 2
        parts.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {cy:.1f})">{_escape(axes.ylabel)}</text>')

    for i, (s, xs) in enumerate(zip(series, x_pixels)):
        color = PALETTE[i % len(PALETTE)]
        ys = next(y_pixels)
        if s.y_lo is not None:
            for x, lo, hi in zip(xs, next(y_pixels), next(y_pixels)):
                parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(lo)}" x2="{_fmt(x)}" '
                             f'y2="{_fmt(hi)}" stroke="{color}" stroke-width="1" '
                             'opacity="0.55"/>')
        points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                         f'fill="{color}"/>')
        ly = top + 14 + 15 * i
        lx = left + pw - 130
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 23}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{_escape(s.label)}</text>')
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("utf-8"))
