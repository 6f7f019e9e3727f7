"""Haar rectangle features: definitions, scaled evaluation and enumeration.

Features are weighted sums of rectangle sums given in base-window
coordinates.  Evaluating at an arbitrary window scales every part rect by
the window/base ratio with a fixed rounding rule so two implementations of
the same cascade agree bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .imaging import IntegralPair, Rect, _check, _round_half_up, rect_sum


class FeatureKind(enum.Enum):
    TWO_RECT = "two"
    THREE_RECT = "three"
    FOUR_RECT = "four"


@dataclass(frozen=True, slots=True)
class FeaturePart:
    rect: Rect
    weight: float


@dataclass(frozen=True, slots=True)
class HaarFeature:
    kind: FeatureKind
    parts: tuple[FeaturePart, ...]

    def __post_init__(self):
        if not 2 <= len(self.parts) <= 4:
            raise ValueError(f"feature needs 2..4 weighted parts, got {len(self.parts)}")


class FeatureEvalError(ValueError):
    """A scaled part rect fell outside the evaluation window."""


def scale_rect(r: Rect, scale: float) -> Rect:
    """Scale a part rect: round-half-up on each product, extents floor 1 px."""
    return Rect(
        _round_half_up(r.x * scale),
        _round_half_up(r.y * scale),
        max(1, _round_half_up(r.w * scale)),
        max(1, _round_half_up(r.h * scale)),
    )


def _scaled_parts(f: HaarFeature, scale: float, win_w: int, win_h: int,
                  index: int | None = None) -> list[tuple[Rect, float]]:
    """The feature's (scaled rect, weight) parts for a win_w x win_h window.

    A part that rounding pushes past the window's far edge is clipped to it;
    a part whose origin lies outside the window raises FeatureEvalError
    naming ``index``.  At every ladder size (``scale = win_w / base_w >= 1``)
    each origin lies inside, so every feature of a cascade scans.
    """
    parts = []
    for pi, part in enumerate(f.parts):
        s = scale_rect(part.rect, scale)
        if s.x >= win_w or s.y >= win_h:
            label = f"feature {index}" if index is not None else "feature"
            raise FeatureEvalError(
                f"{label}: scaled part {pi} ({s}) starts outside {win_w}x{win_h} window")
        parts.append((Rect(s.x, s.y, min(s.w, win_w - s.x), min(s.h, win_h - s.y)),
                      part.weight))
    return parts


def feature_value(ip: IntegralPair, f: HaarFeature, window: Rect,
                  scale: float = 1.0, index: int | None = None) -> float:
    """Raw (unnormalized) feature value over ``window`` at the given scale.

    Part rects are scaled, clipped to the window and offset by its origin;
    a part that starts outside the window raises FeatureEvalError naming
    the feature.
    """
    if not window.fits_in(ip.width, ip.height):
        raise ValueError(f"window {window} outside {ip.width}x{ip.height} image")
    total = 0.0
    for s, weight in _scaled_parts(f, scale, window.w, window.h, index):
        total += weight * rect_sum(ip, Rect(window.x + s.x, window.y + s.y, s.w, s.h))
    return total


# the five canonical templates as (kind, unit-grid cols, unit-grid rows, weights)
# weights are per grid cell, row-major over the cell grid
_TEMPLATES = (
    (FeatureKind.TWO_RECT, 2, 1, (1, -1)),            # edge, side by side
    (FeatureKind.TWO_RECT, 1, 2, (1, -1)),            # edge, stacked
    (FeatureKind.THREE_RECT, 3, 1, (1, -2, 1)),       # line, horizontal
    (FeatureKind.THREE_RECT, 1, 3, (1, -2, 1)),       # line, vertical
    (FeatureKind.FOUR_RECT, 2, 2, (1, -1, -1, 1)),    # diagonal checker
)


def _template_feature(kind: FeatureKind, u: int, v: int, weights, x: int, y: int,
                      sw: int, sh: int) -> HaarFeature:
    parts = []
    i = 0
    for gy in range(v):
        for gx in range(u):
            parts.append(FeaturePart(
                Rect(x + gx * sw, y + gy * sh, sw, sh), float(weights[i])))
            i += 1
    return HaarFeature(kind, tuple(parts))


def enumerate_base_features(base_w: int, base_h: int) -> list[HaarFeature]:
    """All placements and integer scalings of the five templates in the base window.

    Deterministic order: template, then y, x, cell height, cell width.
    """
    _check("an int of at least 1", {"base_w": base_w, "base_h": base_h})
    out: list[HaarFeature] = []
    for kind, u, v, weights in _TEMPLATES:
        for y in range(base_h):
            for x in range(base_w):
                for sh in range(1, (base_h - y) // v + 1):
                    for sw in range(1, (base_w - x) // u + 1):
                        out.append(_template_feature(kind, u, v, weights, x, y, sw, sh))
    return out


def count_base_features(base_w: int, base_h: int) -> int:
    """Number of features enumerate_base_features would yield, without building them."""
    _check("an int of at least 1", {"base_w": base_w, "base_h": base_h})
    total = 0
    for _, u, v, _ in _TEMPLATES:
        for sw in range(1, base_w // u + 1):
            for sh in range(1, base_h // v + 1):
                total += (base_w - u * sw + 1) * (base_h - v * sh + 1)
    return total
