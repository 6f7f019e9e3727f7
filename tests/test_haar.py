import re

import numpy as np
import pytest

from facefollow import cascade
from facefollow.cascade import (Cascade, ScanParams, Stage, WeakClassifier,
                                _variance_denominator, detect_multiscale, eval_window)
from facefollow.haar import (FeatureEvalError, FeatureKind, FeaturePart,
                             HaarFeature, count_base_features,
                             enumerate_base_features, feature_value)
from facefollow.imaging import GrayImage, Rect, integral

from conftest import NOT_FINITE, NOT_INT, random_image, scale_rect

# the five templates as (unit cols, unit rows), mirroring the generator's shapes
TEMPLATE_GRID = {
    ("two", 2, 1): (2, 1),
    ("two", 1, 2): (1, 2),
    ("three", 3, 1): (3, 1),
    ("three", 1, 3): (1, 3),
    ("four", 2, 2): (2, 2),
}


def closed_form_count(base_w: int, base_h: int, u: int, v: int) -> int:
    """Independent double-sum oracle for one template's placements."""
    total = 0
    for sw in range(1, base_w // u + 1):
        for sh in range(1, base_h // v + 1):
            total += (base_w - u * sw + 1) * (base_h - v * sh + 1)
    return total


def oracle_total(base_w: int, base_h: int) -> int:
    return sum(closed_form_count(base_w, base_h, u, v)
               for u, v in ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2)))


def template_shape(f: HaarFeature) -> tuple[int, int]:
    """(unit cols, unit rows) of a generated feature from its part layout."""
    xs = sorted({p.rect.x for p in f.parts})
    ys = sorted({p.rect.y for p in f.parts})
    return len(xs), len(ys)


def pixel_loop_value(img: GrayImage, f: HaarFeature, window: Rect,
                     scale: float) -> float:
    """Brute-force oracle: same scaling rule, clipped to the window, explicit
    per-pixel summation."""
    total = 0.0
    for part in f.parts:
        s = scale_rect(part.rect, scale)
        acc = 0
        for y in range(window.y + s.y, window.y + min(s.bottom, window.h)):
            for x in range(window.x + s.x, window.x + min(s.right, window.w)):
                acc += int(img.data[y, x])
        total += part.weight * acc
    return total


class TestFeatureValue:
    def test_two_rect_zero_on_constant_image(self):
        img = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
        f = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 4, 8), 1.0),
            FeaturePart(Rect(4, 0, 4, 8), -1.0)))
        assert feature_value(integral(img), f, Rect(0, 0, 8, 8)) == 0.0

    def test_half_black_half_white(self):
        data = np.zeros((8, 8), dtype=np.uint8)
        data[:, 4:] = 255
        f = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 4, 8), 1.0),
            FeaturePart(Rect(4, 0, 4, 8), -1.0)))
        value = feature_value(integral(GrayImage(data)), f, Rect(0, 0, 8, 8))
        assert value == -255 * 32  # minus white half-area

    def test_random_features_match_pixel_loop(self, rng):
        """Parts may touch the far base edges; some of them then scale one
        pixel past the window and are clipped."""
        img = random_image(rng, 40, 40)
        ip = integral(img)
        clipped = 0
        for _ in range(60):
            base = 8
            parts = []
            for _ in range(rng.randrange(2, 4)):
                w, h = rng.randrange(1, 7), rng.randrange(1, 7)
                x, y = rng.randrange(0, base - w + 1), rng.randrange(0, base - h + 1)
                parts.append(FeaturePart(Rect(x, y, w, h),
                                         rng.choice([-2.0, -1.0, 1.0, 2.0])))
            f = HaarFeature(FeatureKind.of(len(parts)), tuple(parts))
            scale = rng.choice([1.0, 1.25, 1.5, 2.0, 2.75])
            win_w = win_h = int(base * scale + 0.5)
            wx = rng.randrange(0, 40 - win_w + 1)
            wy = rng.randrange(0, 40 - win_h + 1)
            window = Rect(wx, wy, win_w, win_h)
            assert feature_value(ip, f, window, scale) == \
                pixel_loop_value(img, f, window, scale)
            clipped += any(scale_rect(p.rect, scale).right > win_w for p in parts)
        assert clipped

    def test_scale_one_equals_unscaled_parts(self, rng):
        img = random_image(rng, 16, 16)
        ip = integral(img)
        f = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(1, 2, 5, 3), 2.0),
            FeaturePart(Rect(6, 2, 5, 3), -2.0)))
        direct = pixel_loop_value(img, f, Rect(0, 0, 12, 12), 1.0)
        assert feature_value(ip, f, Rect(0, 0, 12, 12), 1.0) == direct

    def test_negated_weights_negate_value(self, rng):
        img = random_image(rng, 20, 20)
        ip = integral(img)
        parts = (FeaturePart(Rect(0, 0, 6, 4), 1.0),
                 FeaturePart(Rect(0, 4, 6, 4), -2.0),
                 FeaturePart(Rect(0, 8, 6, 4), 1.0))
        f = HaarFeature(FeatureKind.THREE_RECT, parts)
        g = HaarFeature(FeatureKind.THREE_RECT,
                        tuple(FeaturePart(p.rect, -p.weight) for p in parts))
        win = Rect(3, 3, 12, 12)
        assert feature_value(ip, f, win) == -feature_value(ip, g, win)

    @pytest.mark.parametrize("entry", ["feature_value", "eval_window",
                                       "detect_multiscale"])
    def test_edge_flush_part_is_clipped(self, rng, entry):
        """At scale 25/12 the lower part of this stacked feature lands at
        y=13, h=13: one row past a 25x25 window, so it reads rows 13..24."""
        img = random_image(rng, 30, 30)
        ip = integral(img)
        f = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 12, 6), 1.0),
            FeaturePart(Rect(0, 6, 12, 6), -1.0)))
        window = Rect(2, 3, 25, 25)
        clipped = (int(img.data[3:16, 2:27].sum()) - int(img.data[16:28, 2:27].sum()))
        assert scale_rect(f.parts[1].rect, 25 / 12) == Rect(0, 13, 25, 13)
        # one stump: accept where the normalized clipped sum is at least 0.1
        c = Cascade(12, 12, (f,), (Stage((WeakClassifier(0, 0.1, 0.0, 1.0),), 0.5),))
        if entry == "feature_value":
            assert feature_value(ip, f, window, 25 / 12) == clipped
        elif entry == "eval_window":
            assert eval_window(c, ip, window).accepted == \
                (clipped / _variance_denominator(ip, window) >= 0.1)
        else:
            # the ladder's only size is 25x25, at scale 25/12, stride 1
            out = detect_multiscale(
                c, img, ScanParams(scale_factor=25 / 12, min_size=25, max_size=25))
            want = [Rect(x, y, 25, 25) for y in range(6) for x in range(6)]
            assert [d.box for d in out] == [r for r in want if eval_window(c, ip, r).accepted]
            assert 0 < len(out) < 36

    @pytest.mark.parametrize("entry", ["feature_value", "unnamed", "eval_window", "compile"])
    def test_escape_names_feature_index(self, rng, entry):
        """A part that starts outside the window: a free scale, or a window
        shorter than the scaled base, which no ladder size is.  feature_value
        without an index names no feature."""
        img = random_image(rng, 30, 30)
        f = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 12, 6), 1.0),
            FeaturePart(Rect(0, 6, 12, 6), -1.0)))
        inside = HaarFeature(FeatureKind.TWO_RECT, (
            FeaturePart(Rect(0, 0, 4, 4), 1.0),
            FeaturePart(Rect(4, 0, 4, 4), -1.0)))
        # features 0..2 scale cleanly; the only weak classifier reads feature 3
        c = Cascade(12, 12, (inside,) * 3 + (f,),
                    (Stage((WeakClassifier(3, 0.0, 0.0, 1.0),), -1.0),))
        # scale 25/12: part 1 starts at y = round(12.5) = 13, below 12 rows
        window = Rect(0, 0, 25, 12)
        calls = {
            "feature_value": lambda: feature_value(integral(img), f, window,
                                                   25 / 12, index=3),
            "unnamed": lambda: feature_value(integral(img), f, window, 25 / 12),
            "eval_window": lambda: eval_window(c, integral(img), window),
            "compile": lambda: cascade._size_plan(c, 25, 12),
        }
        label = "feature" if entry == "unnamed" else "feature 3"
        with pytest.raises(FeatureEvalError, match=re.escape(
                f"{label}: scaled part 1 (Rect(x=0, y=13, w=25, h=13)) starts "
                "outside 25x12 window")):
            calls[entry]()

    @pytest.mark.parametrize("scale", NOT_FINITE + [0, -1.5], ids=repr)
    def test_scale_must_be_finite_and_positive(self, scale):
        f = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 2, 4), 1.0),
                                               FeaturePart(Rect(2, 0, 2, 4), -1.0)))
        ip = integral(GrayImage(np.zeros((8, 8), dtype=np.uint8)))
        with pytest.raises(ValueError, match=re.escape(
                f"scale must be finite and positive, got {scale!r}")):
            feature_value(ip, f, Rect(0, 0, 8, 8), scale)

    def test_huge_scale_clips_exactly(self, rng):
        """A part at the origin scaled far past int64 is clipped to the
        whole window."""
        img = random_image(rng, 10, 10)
        f = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 2, 2), 1.0),
                                               FeaturePart(Rect(0, 0, 1, 1), -2.0)))
        assert feature_value(integral(img), f, Rect(1, 2, 6, 5), 1e300) == \
            -int(img.data[2:7, 1:7].sum())


class TestEnumeration:
    def test_per_template_counts_match_closed_form(self):
        feats = enumerate_base_features(4, 4)
        by_shape: dict[tuple[int, int], int] = {}
        for f in feats:
            by_shape[template_shape(f)] = by_shape.get(template_shape(f), 0) + 1
        for (u, v) in ((2, 1), (1, 2), (3, 1), (1, 3)):
            assert by_shape[(u, v)] == closed_form_count(4, 4, u, v)
        # (2, 2) four-rect shares its shape key with nothing else here
        assert by_shape[(2, 2)] == closed_form_count(4, 4, 2, 2)

    def test_total_count_24x24_matches_oracle(self):
        assert count_base_features(24, 24) == oracle_total(24, 24)

    def test_count_function_matches_enumeration(self):
        for w, h in ((4, 4), (6, 5), (10, 8)):
            assert len(enumerate_base_features(w, h)) == count_base_features(w, h)

    def test_count_matches_enumeration_at_full_base(self):
        # the acceptance count check leans on this equality at 24x24
        assert len(enumerate_base_features(24, 24)) == count_base_features(24, 24)

    def test_tiny_base_yields_nothing(self):
        assert enumerate_base_features(1, 1) == []
        assert count_base_features(1, 1) == 0

    @pytest.mark.parametrize("fn", [enumerate_base_features, count_base_features])
    @pytest.mark.parametrize("value", NOT_INT + [0, -3])
    @pytest.mark.parametrize("field", ["base_w", "base_h"])
    def test_base_size_must_be_an_int_of_at_least_1(self, fn, field, value):
        """Both functions refuse the same sizes; count no longer reads -3 as 0."""
        size = {"base_w": 4, "base_h": 4, field: value}
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{field} must be an int of at least 1, got {value!r}") + "$"):
            fn(size["base_w"], size["base_h"])

    def test_no_duplicates_and_all_in_bounds(self):
        feats = enumerate_base_features(8, 8)
        keys = set()
        for f in feats:
            key = (f.kind, tuple((p.rect.x, p.rect.y, p.rect.w, p.rect.h, p.weight)
                                 for p in f.parts))
            assert key not in keys
            keys.add(key)
            for p in f.parts:
                assert p.rect.right <= 8 and p.rect.bottom <= 8

    def test_constant_image_zeroes_every_generated_feature(self, rng):
        img = GrayImage(np.full((8, 8), 123, dtype=np.uint8))
        ip = integral(img)
        for f in enumerate_base_features(8, 8)[::37]:
            assert feature_value(ip, f, Rect(0, 0, 8, 8)) == 0.0


def test_part_count_validation():
    with pytest.raises(ValueError):
        HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 1, 1), 1.0),))


@pytest.mark.parametrize("kind, n, message", [
    (FeatureKind.FOUR_RECT, 2,
     "kind 'four' does not fit 2 weighted parts, which make a 'two' feature"),
    (FeatureKind.TWO_RECT, 3,
     "kind 'two' does not fit 3 weighted parts, which make a 'three' feature"),
    ("two", 2, "kind must be a FeatureKind, got 'two'"),
], ids=["four-of-2", "two-of-3", "a-string"])
def test_kind_must_fit_the_part_count(kind, n, message):
    parts = (FeaturePart(Rect(0, 0, 1, 1), 1.0),) * n
    with pytest.raises(ValueError, match=re.escape(message)):
        HaarFeature(kind, parts)
