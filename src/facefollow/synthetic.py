"""Synthetic person scenes and the fixture cascades engineered to match.

The rendered simulator mode draws a deliberately simple person: a bright
background, a dark body rectangle and a darker face rectangle carrying a
bright forehead band.  The cascades built here key on exactly that
pattern, so the full detection pipeline can be exercised end to end
without any trained model.
"""

from __future__ import annotations

import numpy as np

from ._rules import _round_half_up
from .cascade import Cascade, ScanParams, Stage, WeakClassifier
from .gated import GateParams
from .haar import FeatureKind, FeaturePart, HaarFeature
from .imaging import GrayImage, Rect

BG_LUMA = 200
BODY_LUMA = 80
FACE_LUMA = 40
BAND_LUMA = 230

# forehead band: top quarter of the face box, inset a sixth per side
BAND_HEIGHT_FRAC = 0.25
BAND_INSET_FRAC = 1.0 / 6.0


def render_scene(img_w: int, img_h: int, face: Rect | None,
                 body: Rect | None) -> GrayImage:
    """Rasterize the synthetic person; boxes may overhang the frame."""
    frame = np.full((img_h, img_w), BG_LUMA, dtype=np.uint8)

    def paint(r: Rect | None, value: int):
        # a Rect's origin is never negative; slicing clips the far edges
        if r is not None:
            frame[r.y:r.bottom, r.x:r.right] = value

    paint(body, BODY_LUMA)
    paint(face, FACE_LUMA)
    if face is not None:
        inset = max(1, _round_half_up(face.w * BAND_INSET_FRAC))
        band_h = max(1, _round_half_up(face.h * BAND_HEIGHT_FRAC))
        if face.w - 2 * inset >= 1:
            paint(Rect(face.x + inset, face.y, face.w - 2 * inset, band_h),
                  BAND_LUMA)
    return GrayImage(frame)


def build_face_cascade() -> Cascade:
    """Single-stage detector for the dark face with its bright forehead band.

    Weak 1 wants the top quarter much brighter than the slab below it
    (band over face).  Weak 2 wants the top-left corner darker than the
    band center, which a background-over-body edge cannot satisfy.  Both
    must fire.
    """
    w, h = 12, 12
    band_h = 3        # h * BAND_HEIGHT_FRAC
    inset = 2         # w * BAND_INSET_FRAC
    features = (
        # band rows vs the rows below them
        HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, w, band_h), 1.0),
            FeaturePart(Rect(0, band_h, w, band_h), -1.0),
        )),
        # dark corner vs bright band center
        HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, inset, band_h), 1.0),
            FeaturePart(Rect(w // 2 - 1, 0, inset, band_h), -1.0),
        )),
    )
    stage = Stage((
        WeakClassifier(0, 0.25, 0.0, 1.0),    # fire when band contrast is high
        WeakClassifier(1, -0.05, 1.0, 0.0),   # fire when corner is darker than band
    ), 2.0)
    return Cascade(w, h, features, (stage,), name="synthetic-face")


def build_body_cascade() -> Cascade:
    """Single-stage detector for the dark body inside its bright ring.

    The base window is the body box padded by a sixth per side, so the
    bright background ring is part of the pattern.  Four weak classifiers
    measure the ring-versus-core contrast from the top, bottom, left and
    right independently; all four must fire, which a flat window, an
    interior window or a straddling window cannot manage.  They are split
    across two stages so the vertical checks reject the bulk of the grid
    before the horizontal ones run.
    """
    w, h = 12, 18
    features = (
        # top margin rows minus the core rows just below them
        HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, w, 3), 1.0),
            FeaturePart(Rect(0, 3, w, 3), -1.0),
        )),
        # bottom margin rows minus the core rows above: rows 15..17 - rows 12..14
        HaarFeature(FeatureKind.THREE_RECT, (
            FeaturePart(Rect(0, 0, w, h), 1.0),
            FeaturePart(Rect(0, 0, w, 15), -2.0),
            FeaturePart(Rect(0, 0, w, 12), 1.0),
        )),
        # left margin columns minus the core columns beside them
        HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 2, h), 1.0),
            FeaturePart(Rect(2, 0, 2, h), -1.0),
        )),
        # right margin columns minus the core columns beside: cols 10..11 - cols 8..9
        HaarFeature(FeatureKind.THREE_RECT, (
            FeaturePart(Rect(0, 0, w, h), 1.0),
            FeaturePart(Rect(0, 0, 10, h), -2.0),
            FeaturePart(Rect(0, 0, 8, h), 1.0),
        )),
    )
    stages = (
        Stage((WeakClassifier(0, 0.11, 0.0, 1.0),
               WeakClassifier(1, 0.11, 0.0, 1.0)), 2.0),
        Stage((WeakClassifier(2, 0.11, 0.0, 1.0),
               WeakClassifier(3, 0.11, 0.0, 1.0)), 2.0),
    )
    return Cascade(w, h, features, stages, name="synthetic-body")


def synthetic_gate_params(img_w: int = 320) -> GateParams:
    """Scan settings matched to the synthetic scene geometry; the body window
    cap of 120 px at a 320 px width grows with ``img_w``, and is at least 1 px."""
    return GateParams(
        body_scan=ScanParams(scale_factor=1.08, min_size=24,
                             max_size=max(1, _round_half_up(120 * img_w / 320)),
                             step_divisor=12, min_neighbors=1, eps=0.25),
        face_scan=ScanParams(scale_factor=1.08, min_size=None, max_size=None,
                             step_divisor=24, min_neighbors=0, eps=0.3),
        face_min_fraction=0.15,
    )
