import os
import random

import numpy as np
import pytest

from facefollow import cascade
from facefollow.cascade import Cascade, Stage, WeakClassifier
from facefollow.haar import FeatureKind, FeaturePart, HaarFeature
from facefollow.imaging import GrayImage, Rect, _round_half_up

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# values every "finite" rule refuses: no number, a bool, an int beyond float
# range, NaN and +-inf; the "int" rules refuse the first three and a float
NOT_FINITE = ["x", None, True, 10**400, float("nan"), float("inf"), -float("inf")]
NOT_INT = ["x", None, True, 4.5]
# a model integer (a feature index, a Rect field) refuses the first five;
# numpy integers pass
MODEL_INTS = ["x", None, True, 0.0, 1.5, np.int64(0)]


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def scale_rect(r: Rect, scale: float) -> Rect:
    """The reference part scaling, one part at a time: round-half-up on each
    product, extents floor 1 px."""
    return Rect(_round_half_up(r.x * scale), _round_half_up(r.y * scale),
                max(1, _round_half_up(r.w * scale)), max(1, _round_half_up(r.h * scale)))


def scaled_parts(f: HaarFeature, scale: float, win_w: int, win_h: int) -> list:
    """The reference (rect, weight) parts of ``f`` scaled to a ``win_w`` x
    ``win_h`` window and clipped to it."""
    parts = []
    for part in f.parts:
        s = scale_rect(part.rect, scale)
        parts.append((Rect(s.x, s.y, min(s.w, win_w - s.x), min(s.h, win_h - s.y)),
                      part.weight))
    return parts


def corner_taps(parts) -> tuple:
    """The reference merge of (rect, weight) parts into taps (dy, dx, k): the
    four corners of each part with +-weight, summed per distinct corner in a
    dict, zero sums dropped, and one zero tap where every corner cancels."""
    coef: dict[tuple[int, int], int] = {}
    for r, weight in parts:
        for corner, sign in (((r.y, r.x), 1), ((r.y, r.right), -1),
                             ((r.bottom, r.x), -1), ((r.bottom, r.right), 1)):
            coef[corner] = coef.get(corner, 0) + sign * int(weight)
    return tuple((dy, dx, k) for (dy, dx), k in sorted(coef.items()) if k) or ((0, 0, 0),)


def random_image(rng: random.Random, w: int, h: int) -> GrayImage:
    data = np.array([[rng.randrange(256) for _ in range(w)] for _ in range(h)],
                    dtype=np.uint8)
    return GrayImage(data)


def accept_all_cascade(base_w: int = 24, base_h: int = 24) -> Cascade:
    """Single vacuous stage: threshold far below any reachable sum."""
    feat = HaarFeature(FeatureKind.TWO_RECT, (
        FeaturePart(Rect(0, 0, base_w, base_h), 1.0),
        FeaturePart(Rect(0, 0, base_w, base_h // 2), -2.0)))
    stage = Stage((WeakClassifier(0, 0.0, 0.0, 0.0),), -1e9)
    return Cascade(base_w, base_h, (feat,), (stage,), name="accept-all")


def reject_all_cascade(base_w: int = 24, base_h: int = 24) -> Cascade:
    """Stage threshold above the best achievable sum: rejects everything."""
    feat = HaarFeature(FeatureKind.TWO_RECT, (
        FeaturePart(Rect(0, 0, base_w, base_h), 1.0),
        FeaturePart(Rect(0, 0, base_w, base_h // 2), -2.0)))
    stage = Stage((WeakClassifier(0, 0.0, 1.0, 1.0),), 2.0)
    return Cascade(base_w, base_h, (feat,), (stage,), name="reject-all")


def random_cascade(rng: random.Random, base_w: int = 12, base_h: int = 12,
                   n_features: int = 6, n_stages: int = 3) -> Cascade:
    """Random stump cascade; a part may touch the far base edges, where a
    scaled window clips it."""
    features = []
    for _ in range(n_features):
        parts = []
        for _ in range(rng.randrange(2, 4)):
            w = rng.randrange(1, base_w + 1)
            h = rng.randrange(1, base_h + 1)
            x = rng.randrange(0, base_w - w + 1)
            y = rng.randrange(0, base_h - h + 1)
            parts.append(FeaturePart(Rect(x, y, w, h),
                                     rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0])))
        features.append(HaarFeature(FeatureKind.of(len(parts)), tuple(parts)))
    stages = []
    for _ in range(n_stages):
        weak = tuple(
            WeakClassifier(rng.randrange(n_features),
                           rng.uniform(-0.5, 0.5),
                           rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(rng.randrange(1, 4)))
        stages.append(Stage(weak, rng.uniform(-1.0, 1.0)))
    return Cascade(base_w, base_h, tuple(features), tuple(stages), name="random")


@pytest.fixture
def rng():
    return random.Random(20240817)


class CallCounter:
    """Counts the calls of ``fn``, in place of it."""

    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def __call__(self, *args):
        self.count += 1
        return self.fn(*args)


@pytest.fixture
def band_walks(monkeypatch):
    """Counts the per-band reads (``_walk_band``) of the scans."""
    counter = CallCounter(cascade._walk_band)
    monkeypatch.setattr(cascade, "_walk_band", counter)
    return counter


@pytest.fixture
def batches(monkeypatch):
    """Records the batches of the scans: per batch, each band's (win_w,
    win_h, candidates, keep_sign), and the batch's accepted windows as its
    (boxes, score) arrays."""
    seen = []
    walk = cascade._walk_batch

    def record(stages, vetoes, bands, tables):
        out = walk(stages, vetoes, bands, tables)
        seen.append(([(b.plan.win.w, b.plan.win.h, len(b.base), b.plan.keep_sign)
                      for b in bands], out))
        return out

    monkeypatch.setattr(cascade, "_walk_batch", record)
    return seen
