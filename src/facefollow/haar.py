"""Haar rectangle features: definitions, scaled evaluation and enumeration.

Features are weighted sums of rectangle sums given in base-window
coordinates.  Evaluating at an arbitrary window scales every part rect by
the window/base ratio with a fixed rounding rule so two implementations of
the same cascade agree bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._rules import _check
from .imaging import IntegralPair, Rect, rect_sum


class FeatureKind(enum.Enum):
    """A feature's kind, named by its number of weighted parts."""

    TWO_RECT = "two"
    THREE_RECT = "three"
    FOUR_RECT = "four"

    @classmethod
    def of(cls, n_parts: int) -> FeatureKind:
        """The kind of a feature of ``n_parts`` weighted parts, 2..4."""
        return {2: cls.TWO_RECT, 3: cls.THREE_RECT, 4: cls.FOUR_RECT}[n_parts]


@dataclass(frozen=True, slots=True)
class FeaturePart:
    rect: Rect
    weight: float


@dataclass(frozen=True, slots=True)
class HaarFeature:
    kind: FeatureKind
    parts: tuple[FeaturePart, ...]

    def __post_init__(self):
        if not isinstance(self.kind, FeatureKind):
            raise ValueError(f"kind must be a FeatureKind, got {self.kind!r}")
        if not 2 <= len(self.parts) <= 4:
            raise ValueError(f"feature needs 2..4 weighted parts, got {len(self.parts)}")
        fits = FeatureKind.of(len(self.parts))
        if self.kind is not fits:
            raise ValueError(f"kind {self.kind.value!r} does not fit {len(self.parts)} "
                             f"weighted parts, which make a {fits.value!r} feature")


class FeatureEvalError(ValueError):
    """A scaled part rect fell outside the evaluation window."""


def _scaled_parts(parts: np.ndarray, scale: float, win_w: int, win_h: int) -> np.ndarray:
    """int64 x, y, w, h of the rows (feature, part, x, y, w, h, ...) of a part
    table scaled to a win_w x win_h window: ``np.floor(v * scale + 0.5)``,
    ``_rules._round_half_up`` bit for bit, extents floor 1 px, and a part
    that rounding pushes past the far edge clipped to it (in float64, so any
    finite scale > 0 converts exactly).  A part whose origin lies outside
    the window raises FeatureEvalError naming its feature, unless negative,
    and part; at every ladder size (``scale >= 1``) none does."""
    s = np.floor(parts[:, 2:6] * scale + 0.5)
    wh = np.maximum(s[:, 2:], 1, out=s[:, 2:])
    room = np.subtract((win_w, win_h), s[:, :2])  # the window past each origin
    if (room <= 0).any():
        i = (room <= 0).any(axis=1).argmax()
        fi, pi = parts[i, :2].tolist()
        label = f"feature {fi}" if fi >= 0 else "feature"
        raise FeatureEvalError(f"{label}: scaled part {pi} ({Rect(*map(int, s[i].tolist()))}) "
                               f"starts outside {win_w}x{win_h} window")
    np.minimum(wh, room, out=wh)
    return s.astype(np.int64)


def feature_value(ip: IntegralPair, f: HaarFeature, window: Rect,
                  scale: float = 1.0, index: int | None = None) -> float:
    """Raw (unnormalized) feature value over ``window`` at the given scale.

    Part rects are scaled by ``_scaled_parts``, clipped to the window and
    offset by its origin; a part that starts outside the window raises
    FeatureEvalError naming the feature.
    """
    if not window.fits_in(ip.width, ip.height):
        raise ValueError(f"window {window} outside {ip.width}x{ip.height} image")
    _check("finite and positive", {"scale": scale})
    parts = np.array([(-1 if index is None else index, pi, p.rect.x, p.rect.y, p.rect.w, p.rect.h)
                      for pi, p in enumerate(f.parts)], dtype=np.int64)
    total = 0.0
    for p, (x, y, w, h) in zip(f.parts, _scaled_parts(parts, scale, window.w, window.h).tolist()):
        total += p.weight * rect_sum(ip, Rect(window.x + x, window.y + y, w, h))
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
