import os
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from facefollow import cascade
from facefollow.cascade import Cascade, Stage, WeakClassifier
from facefollow.haar import FeatureKind, FeaturePart, HaarFeature
from facefollow.imaging import GrayImage, Rect

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def random_image(rng: random.Random, w: int, h: int) -> GrayImage:
    data = np.array([[rng.randrange(256) for _ in range(w)] for _ in range(h)],
                    dtype=np.uint8)
    return GrayImage(data)


# helper cascades use parts anchored at the window origin: under the
# round-half-up scaling rule such parts can never escape a scaled window

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
    """Random stump cascade; part rects keep a 2 px margin off the far base
    edges so scaling at any window size stays inside the window."""
    features = []
    for _ in range(n_features):
        parts = []
        for _ in range(rng.randrange(2, 4)):
            w = rng.randrange(1, base_w - 2)
            h = rng.randrange(1, base_h - 2)
            x = rng.randrange(0, base_w - 2 - w + 1)
            y = rng.randrange(0, base_h - 2 - h + 1)
            parts.append(FeaturePart(Rect(x, y, w, h),
                                     rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0])))
        features.append(HaarFeature(FeatureKind.TWO_RECT, tuple(parts)))
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


class CountingPool(ThreadPoolExecutor):
    """Thread pool that counts the band walks submitted to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1  # only the scanning thread submits
        return super().submit(*args, **kwargs)


@pytest.fixture
def band_pool(monkeypatch):
    """The scan's band pool, with more threads than the machine has cores,
    whatever number of CPUs the test process may use."""
    pool = CountingPool(max_workers=(os.cpu_count() or 1) + 2)
    monkeypatch.setattr(cascade, "_band_pool", lambda: pool)
    yield pool
    pool.shutdown()
