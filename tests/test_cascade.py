import collections.abc
import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from facefollow import cascade, haar
from facefollow._rules import _round_half_up
from facefollow.cascade import (Cascade, CascadeFormatError, Detection, ScanParams,
                                Stage, UnsupportedCascadeError, WeakClassifier, Windows,
                                detect_multiscale, eval_window, group_detections,
                                import_legacy_xml, parse_cascade, serialize_cascade)
from facefollow.haar import (FeatureKind, FeaturePart, HaarFeature, enumerate_base_features,
                             feature_value)
from facefollow.imaging import MAX_DIM, GrayImage, Rect, integral, rect_sum
from facefollow.synthetic import (build_body_cascade, build_face_cascade, render_scene,
                                  synthetic_gate_params)

from conftest import (MODEL_INTS, NOT_FINITE, NOT_INT, CallCounter, accept_all_cascade, corner_taps,
                      fixture_text, random_cascade, random_image, reject_all_cascade,
                      scale_rect, scaled_parts)

MINIMAL_DOC = json.dumps({
    "name": "minimal",
    "base_w": 4, "base_h": 4,
    "features": [{"kind": "two", "parts": [
        {"x": 0, "y": 0, "w": 2, "h": 4, "weight": 1.0},
        {"x": 2, "y": 0, "w": 2, "h": 4, "weight": -1.0}]}],
    "stages": [{"threshold": 0.0, "weak": [
        {"feature": 0, "threshold": 0.1, "left": -0.5, "right": 0.5}]}],
})


def full_eval_oracle(c: Cascade, ip, window: Rect):
    """Evaluate every stage with no early exit, then decide; independent of
    eval_window's short-circuit path (shares only the primitive ops)."""
    scale = window.w / c.base_w
    area = float(window.area)
    mean = rect_sum(ip, window) / area
    meansq = rect_sum(ip, window, squared=True) / area
    var = meansq - mean * mean
    denom = (math.sqrt(var) if var > 0 else 1.0) * area
    sums = []
    for stage in c.stages:
        total = 0.0
        for wk in stage.weak:
            raw = 0.0
            for part in c.features[wk.feature_index].parts:
                s = scale_rect(part.rect, scale)  # clipped to the window
                raw += part.weight * rect_sum(
                    ip, Rect(window.x + s.x, window.y + s.y,
                             min(s.w, window.w - s.x), min(s.h, window.h - s.y)))
            norm = raw / denom
            total += wk.left_value if norm < wk.threshold else wk.right_value
        sums.append(total)
    for i, (stage, total) in enumerate(zip(c.stages, sums)):
        if total < stage.stage_threshold:
            return False, i, total
    return True, len(c.stages), sums[-1]


class TestParseCascade:
    def test_minimal_document(self):
        c = parse_cascade(MINIMAL_DOC)
        assert (len(c.stages), len(c.stages[0].weak), len(c.features)) == (1, 1, 1)
        assert c.name == "minimal"

    def test_serialize_parse_is_fixed_point(self):
        docs = [MINIMAL_DOC,
                serialize_cascade(accept_all_cascade()),
                serialize_cascade(import_legacy_xml(fixture_text("upperbody_20x20.xml")))]
        for doc in docs:
            once = serialize_cascade(parse_cascade(doc))
            twice = serialize_cascade(parse_cascade(once))
            assert once == twice
            assert parse_cascade(once) == parse_cascade(doc)

    @pytest.mark.parametrize("field", ["index", "base_w", "x", "threshold", "weight"])
    def test_numpy_numbers_serialize_as_python_ones(self, field):
        """A code-built cascade may hold a numpy int index, base size or rect
        field, or a numpy float threshold or weight; the document holds
        their Python values and parses back to an equal cascade."""
        np_value = {"index": np.int64(0), "base_w": np.int64(24), "x": np.int64(2),
                    "threshold": np.float32(0.1), "weight": np.float32(-2.0)}[field]
        v = {"index": 0, "base_w": 24, "x": 2, "threshold": 0.1, "weight": -2.0,
             field: np_value}
        feat = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(v["x"], 0, 20, 24), 1.0),
                                                  FeaturePart(Rect(0, 0, 24, 12), v["weight"])))
        c = Cascade(v["base_w"], 24, (feat,),
                    (Stage((WeakClassifier(v["index"], v["threshold"], -0.5, 0.5),), 0.0),))
        text = serialize_cascade(c)
        assert parse_cascade(text) == c
        assert serialize_cascade(parse_cascade(text)) == text

    def test_feature_index_out_of_range(self):
        doc = json.loads(MINIMAL_DOC)
        doc["stages"][0]["weak"][0]["feature"] = 1
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$: stages[0].weak[0].feature: index 1 out of range (table has 1)")):
            parse_cascade(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["five", "TWO_RECT"])
    def test_unknown_feature_kind_rejected(self, kind):
        """A kind is a FeatureKind value; an enum member's name is not one."""
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["kind"] = kind
        with pytest.raises(CascadeFormatError, match=re.escape(
                f"$.features[0].kind: unknown kind {kind!r}")):
            parse_cascade(json.dumps(doc))

    def test_kind_that_does_not_fit_its_parts_names_the_feature(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["kind"] = "four"
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$.features[0]: kind 'four' does not fit 2 weighted parts")):
            parse_cascade(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["surprise"] = 1
        with pytest.raises(CascadeFormatError, match="unknown key"):
            parse_cascade(json.dumps(doc))

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(CascadeFormatError,
                           match=r"^\$: syntax error at line 1, column"):
            parse_cascade("{nope}")

    def test_deep_nesting_rejected_at_root(self):
        with pytest.raises(CascadeFormatError, match=r"^\$: "):
            parse_cascade("[" * 1000)

    def test_empty_stages_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["stages"] = []
        with pytest.raises(CascadeFormatError, match="stages"):
            parse_cascade(json.dumps(doc))

    def test_float_geometry_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][0]["x"] = 0.5
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$.features[0].parts[0].x: expected an int of at least 0, got 0.5")):
            parse_cascade(json.dumps(doc))

    def test_part_outside_base_window(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][1]["w"] = 3
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$: features[0].parts[1]: rect Rect(x=2, y=0, w=3, h=4) "
                "outside 4x4 base window")):
            parse_cascade(json.dumps(doc))

    def test_field_minimum_names_the_field(self):
        doc = json.loads(MINIMAL_DOC)
        doc["base_w"] = 3
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$.base_w: expected an int of at least 4, got 3")):
            parse_cascade(json.dumps(doc))

    @pytest.mark.parametrize("weight", [0.5, -1.25, 65537.0, -65537.0, 1e300])
    def test_weight_not_an_integer_up_to_2_16_rejected(self, weight):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][1]["weight"] = weight
        with pytest.raises(CascadeFormatError, match=re.escape(
                f"$: features[0].parts[1]: weight {weight!r} is not an integer "
                "of magnitude at most 65536")):
            parse_cascade(json.dumps(doc))

    def test_weight_of_magnitude_2_16_accepted(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][1]["weight"] = -65536
        assert parse_cascade(json.dumps(doc)).features[0].parts[1].weight == -65536.0


class TestCascadeModel:
    """Cascades built in code: the model checks its cross-value rules itself
    and raises a plain ValueError at the model-relative path."""

    def feature(self, w: int) -> HaarFeature:
        return HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 2, 4), 1.0),
                                                  FeaturePart(Rect(2, 0, w, 4), -1.0)))

    def test_part_outside_base_window(self):
        stage = Stage((WeakClassifier(0, 0.1, -0.5, 0.5),), 0.0)
        with pytest.raises(ValueError, match=re.escape(
                "features[0].parts[1]: rect Rect(x=2, y=0, w=3, h=4) "
                "outside 4x4 base window")) as info:
            Cascade(4, 4, (self.feature(3),), (stage,))
        assert not isinstance(info.value, CascadeFormatError)

    def test_feature_index_out_of_range(self):
        stage = Stage((WeakClassifier(0, 0.1, -0.5, 0.5),
                       WeakClassifier(2, 0.1, -0.5, 0.5)), 0.0)
        with pytest.raises(ValueError, match=re.escape(
                "stages[0].weak[1].feature: index 2 out of range (table has 1)")) as info:
            Cascade(4, 4, (self.feature(2),), (stage,))
        assert not isinstance(info.value, CascadeFormatError)

    @pytest.mark.parametrize("weight", [0.5, 1.5, 2.0 ** 16 + 1, 70000, float("nan"), 1e300,
                                        10**400, "x", None, True])
    def test_weight_not_an_integer_up_to_2_16(self, weight):
        """Checked before the part table is built: NaN and 1e300 keep this
        message rather than numpy's conversion errors, and a value that is no
        number fails the same check, not ``abs``."""
        stage = Stage((WeakClassifier(0, 0.1, -0.5, 0.5),), 0.0)
        feat = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 2, 4), weight),
                                                  FeaturePart(Rect(2, 0, 2, 4), -1.0)))
        with pytest.raises(ValueError, match=re.escape(
                f"features[0].parts[0]: weight {weight!r} is not an integer of "
                "magnitude at most 65536")) as info:
            Cascade(4, 4, (feat,), (stage,))
        assert not isinstance(info.value, CascadeFormatError)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("where", ["stage", "threshold", "left", "right"])
    def test_non_finite_threshold_or_leaf(self, value, where):
        """A NaN score would pass eval_window's stage test and fail the scan's;
        a value that is no number fails the same check, not a comparison."""
        wk = dict(threshold=0.1, left=-0.5, right=0.5)
        if where in wk:
            wk[where] = value
        stage = Stage((WeakClassifier(0, wk["threshold"], wk["left"], wk["right"]),),
                      value if where == "stage" else 0.0)
        why = (f"stages[0].threshold: {value!r} is not finite" if where == "stage"
               else "stages[0].weak[0]: threshold or leaf is not finite")
        with pytest.raises(ValueError, match=re.escape(why)):
            Cascade(4, 4, (self.feature(2),), (stage,))

    @pytest.mark.parametrize("value", MODEL_INTS, ids=repr)
    def test_feature_index_is_an_int(self, rng, value):
        """A string, None, a bool or a float is refused when the cascade is
        built, naming the weak classifier; a numpy int index scans."""
        stage = Stage((WeakClassifier(value, 0.1, -0.5, 0.5),), 0.0)
        if isinstance(value, np.integer):
            c = Cascade(4, 4, (self.feature(2),), (stage,))
            img = random_image(rng, 9, 9)
            got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                   for d in detect_multiscale(c, img, ScanParams())}
            assert got == per_window_eval(c, img, ScanParams())[0]
            return
        with pytest.raises(ValueError, match=re.escape(
                f"stages[0].weak[0].feature: index {value!r} out of range (table has 1)")):
            Cascade(4, 4, (self.feature(2),), (stage,))

    @pytest.mark.parametrize("value", MODEL_INTS, ids=repr)
    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_rect_fields_are_ints(self, field, value):
        """A part rect (any rect) refuses a string, None, a bool or a float
        with a ValueError that prints every field; a numpy int field passes."""
        fields = {"x": 0, "y": 0, "w": 1, "h": 1}
        if isinstance(value, np.integer):
            fields[field] = value + 1
            assert Rect(**fields).area == fields["w"] * fields["h"]
            return
        fields[field] = value
        with pytest.raises(ValueError, match=re.escape(
                f"rect needs ints x, y >= 0 and w, h >= 1, got Rect(x={fields['x']!r}, "
                f"y={fields['y']!r}, w={fields['w']!r}, h={fields['h']!r})")):
            Rect(**fields)

    def test_part_table_holds_every_part_in_feature_order(self, rng):
        c = random_cascade(rng)
        want = [[fi, pi, p.rect.x, p.rect.y, p.rect.w, p.rect.h, p.weight]
                for fi, f in enumerate(c.features) for pi, p in enumerate(f.parts)]
        assert c._parts.dtype == np.int64 and c._parts.tolist() == want
        assert not c._parts.flags.writeable

    def test_numpy_thresholds_and_leaves_pass(self):
        stage = Stage((WeakClassifier(0, np.float64(0.1), np.int64(-1), np.float32(0.5)),),
                      np.int64(0))
        assert Cascade(4, 4, (self.feature(2),), (stage,)).stages == (stage,)

    @pytest.mark.parametrize("value", NOT_INT + [3, 0, -3])
    @pytest.mark.parametrize("field", ["base_w", "base_h"])
    def test_base_size_must_be_an_int_of_at_least_4(self, field, value):
        size = {"base_w": 4, "base_h": 4, field: value}
        stage = Stage((WeakClassifier(0, 0.1, -0.5, 0.5),), 0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"base_w and base_h must be ints of at least 4, "
                f"got {size['base_w']!r}x{size['base_h']!r}")):
            Cascade(size["base_w"], size["base_h"], (self.feature(2),), (stage,))


class TestLegacyImport:
    def scan_counts(self, xml_text):
        """Independent text scan: stage and weak counts straight off the document."""
        declared = [int(m) for m in re.findall(r"<maxWeakCount>(\d+)</maxWeakCount>",
                                               xml_text)]
        # the first match inside <stageParams> is training metadata, not a stage
        stage_thresholds = [float(m) for m in re.findall(
            r"<stageThreshold>([^<]+)</stageThreshold>", xml_text)]
        weak_counts = [len(re.findall(r"<internalNodes>", block))
                       for block in re.findall(
                           r"<weakClassifiers>(.*?)</weakClassifiers>",
                           xml_text, re.S)]
        return declared[1:], stage_thresholds, weak_counts

    @pytest.mark.parametrize("name,base", [("upperbody_20x20.xml", (20, 20)),
                                           ("face_24x24.xml", (24, 24))])
    def test_import_matches_text_scan(self, name, base):
        text = fixture_text(name)
        declared, thresholds, weak_counts = self.scan_counts(text)
        c = import_legacy_xml(text)
        assert (c.base_w, c.base_h) == base
        assert len(c.stages) == len(declared)
        assert [len(s.weak) for s in c.stages] == declared == weak_counts
        assert [s.stage_threshold for s in c.stages] == thresholds

    def test_import_serialize_parse_fixed_point(self):
        for name in ("upperbody_20x20.xml", "face_24x24.xml"):
            c = import_legacy_xml(fixture_text(name))
            text = serialize_cascade(c)
            again = parse_cascade(text)
            assert again == c
            assert serialize_cascade(again) == text

    def test_import_preserves_rects_and_weights(self):
        text = fixture_text("face_24x24.xml")
        c = import_legacy_xml(text)
        # first feature of the fixture, straight from the document text
        assert c.features[0].parts[0].rect == Rect(6, 3, 12, 8)
        assert c.features[0].parts[0].weight == -1.0
        assert c.features[4].parts[2].rect == Rect(12, 13, 4, 9)
        assert len(c.features[4].parts) == 3
        assert c.features[4].kind is FeatureKind.THREE_RECT

    def test_tilted_feature_rejected(self):
        text = fixture_text("upperbody_20x20.xml").replace(
            "<tilted>0</tilted>", "<tilted>1</tilted>", 1)
        with pytest.raises(UnsupportedCascadeError, match="tilted"):
            import_legacy_xml(text)

    def test_non_haar_rejected(self):
        text = fixture_text("upperbody_20x20.xml").replace(
            "<featureType>HAAR</featureType>", "<featureType>LBP</featureType>")
        with pytest.raises(UnsupportedCascadeError, match="LBP"):
            import_legacy_xml(text)

    def test_empty_stages_rejected(self):
        text = re.sub(r"<stages>.*</stages>", "<stages></stages>",
                      fixture_text("upperbody_20x20.xml"), flags=re.S)
        with pytest.raises(CascadeFormatError, match="stages"):
            import_legacy_xml(text)

    def test_weak_count_mismatch_rejected(self):
        text = fixture_text("upperbody_20x20.xml").replace(
            "<maxWeakCount>3</maxWeakCount>", "<maxWeakCount>4</maxWeakCount>")
        with pytest.raises(CascadeFormatError, match="maxWeakCount"):
            import_legacy_xml(text)

    def test_syntax_error(self):
        with pytest.raises(CascadeFormatError, match=re.escape(
                "$: syntax error at line 1, column 26: no element found")):
            import_legacy_xml("<opencv_storage><cascade>")

    @pytest.mark.parametrize("old,new,why", [
        ("<_>0 2 20 6 -1.</_>", "<_>2 2 20 6 -1.</_>",
         "cascade: features[0].parts[0]: rect Rect(x=2, y=2, w=20, h=6) "
         "outside 20x20 base window"),
        ("0 -1 0 1.3387810066342354e-02", "0 -1 99 1.3387810066342354e-02",
         "cascade: stages[0].weak[0].feature: index 99 out of range (table has 6)"),
        ("<_>0 5 20 3 2.</_>", "<_>0 5 20 3 2.5</_>",
         "cascade: features[0].parts[1]: weight 2.5 is not an integer of "
         "magnitude at most 65536"),
    ], ids=["part-outside-base-window", "feature-index-out-of-range",
            "non-integral-weight"])
    def test_model_rule_reported_at_the_cascade_element(self, old, new, why):
        text = fixture_text("upperbody_20x20.xml").replace(old, new)
        with pytest.raises(CascadeFormatError, match=re.escape(why)):
            import_legacy_xml(text)

    @pytest.mark.parametrize("declared,why", [
        (2, "cascade.stages[0]: maxWeakCount 2 != 0 classifiers"),
        (0, "cascade.stages[0].maxWeakCount: expected an int of at least 1, got 0")],
        ids=["declared-2", "declared-0"])
    def test_empty_weak_classifiers_rejected_on_max_weak_count(self, declared, why):
        text = re.sub(r"<weakClassifiers>.*?</weakClassifiers>",
                      "<weakClassifiers></weakClassifiers>",
                      fixture_text("upperbody_20x20.xml"), count=1, flags=re.S)
        # the first <maxWeakCount> sits in <stageParams>; the second is stage 0's
        text = text.replace("<maxWeakCount>2</maxWeakCount>",
                            f"<maxWeakCount>{declared}</maxWeakCount>", 1)
        with pytest.raises(CascadeFormatError, match=re.escape(why)):
            import_legacy_xml(text)

    @pytest.mark.parametrize("width,why", [("abc", "expected number, got 'abc'"),
                                           ("3", "expected an int of at least 4, got 3")])
    def test_bad_width_rejected_at_its_path(self, width, why):
        text = fixture_text("upperbody_20x20.xml").replace(
            "<width>20</width>", f"<width>{width}</width>")
        with pytest.raises(CascadeFormatError, match=re.escape(f"cascade.width: {why}")):
            import_legacy_xml(text)


class TestStrictNumbers:
    """The document readers' number checks, which every cascade and run
    config value passes through."""

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_real_refuses_at_its_path(self, value):
        with pytest.raises(CascadeFormatError, match="^" + re.escape(
                f"$.k: expected finite number, got {value!r}") + "$"):
            cascade._real(value, "$.k")

    @pytest.mark.parametrize("value, want", [
        (np.float64(0.5), 0.5), (np.int64(3), 3.0), (2**1000, 2.0**1000), (-7, -7.0)])
    def test_real_takes_numbers_within_float_range(self, value, want):
        got = cascade._real(value, "$.k")
        assert type(got) is float and got == want

    @pytest.mark.parametrize("value", NOT_INT + [-1])
    def test_int_refuses_at_its_path(self, value):
        with pytest.raises(CascadeFormatError, match="^" + re.escape(
                f"$.k: expected an int of at least 0, got {value!r}") + "$"):
            cascade._int(value, "$.k", 0)


class TestEvalWindow:
    def test_vacuous_stage_accepts_everything(self, rng):
        c = accept_all_cascade(8, 8)
        img = random_image(rng, 16, 16)
        ip = integral(img)
        for win in (Rect(0, 0, 8, 8), Rect(4, 4, 12, 12), Rect(8, 0, 8, 8)):
            assert eval_window(c, ip, win).accepted

    def test_unsatisfiable_stage_rejects_everything(self, rng):
        c = reject_all_cascade(8, 8)
        ip = integral(random_image(rng, 16, 16))
        res = eval_window(c, ip, Rect(0, 0, 8, 8))
        assert not res.accepted and res.stages_passed == 0

    def test_early_exit_equals_full_evaluation(self, rng):
        for trial in range(100):
            c = random_cascade(rng)
            img = random_image(rng, 24, 24)
            ip = integral(img)
            size = rng.choice([12, 18, 24])
            x = rng.randrange(0, 24 - size + 1)
            y = rng.randrange(0, 24 - size + 1)
            win = Rect(x, y, size, size)
            got = eval_window(c, ip, win)
            want_acc, want_stage, want_score = full_eval_oracle(c, ip, win)
            assert got.accepted == want_acc
            assert got.stages_passed == want_stage
            if got.accepted:
                assert got.score == want_score

    def test_monotone_stage_prefix(self, rng):
        for _ in range(50):
            c = random_cascade(rng, n_stages=4)
            ip = integral(random_image(rng, 12, 12))
            win = Rect(0, 0, 12, 12)
            res = eval_window(c, ip, win)
            if res.accepted:
                continue
            k = res.stages_passed
            for j in range(1, k + 1):
                truncated = Cascade(c.base_w, c.base_h, c.features,
                                    c.stages[:j], name=c.name)
                sub = eval_window(truncated, ip, win)
                assert sub.accepted or sub.stages_passed < j  # never rejects later


def scan_grid_oracle(base_w, base_h, img_w, img_h, p: ScanParams):
    """Independent window-count enumeration mirroring the documented ladder."""
    count = 0
    f = 1.0
    seen = set()
    min_w = p.min_size if p.min_size is not None else base_w
    max_w = p.max_size if p.max_size is not None else img_w
    while True:
        win_w = int(base_w * f + 0.5)
        if win_w > min(max_w, img_w):
            break
        scale = win_w / base_w
        win_h = int(base_h * scale + 0.5)
        if win_w >= min_w and win_h <= img_h and (win_w, win_h) not in seen:
            seen.add((win_w, win_h))
            stride = max(1, int(win_w / p.step_divisor + 0.5))
            nx = (img_w - win_w) // stride + 1
            ny = (img_h - win_h) // stride + 1
            count += nx * ny
        f *= p.scale_factor
    return count


def per_window_eval(c: Cascade, img: GrayImage, p: ScanParams):
    """eval_window over every window of the documented ladder, in scan order:
    the accepted (x, y, w, h) -> score, and each size's
    (w, h, stride, nx, ny) grid."""
    ip = integral(img)
    max_w = img.width if p.max_size is None else min(p.max_size, img.width)
    min_w = c.base_w if p.min_size is None else p.min_size
    accepted, grids, seen = {}, set(), set()
    f = 1.0
    while True:
        win_w = int(c.base_w * f + 0.5)
        if win_w > max_w:
            break
        win_h = int(c.base_h * (win_w / c.base_w) + 0.5)
        if win_w >= min_w and win_h <= img.height and (win_w, win_h) not in seen:
            seen.add((win_w, win_h))
            stride = max(1, int(win_w / p.step_divisor + 0.5))
            ys = range(0, img.height - win_h + 1, stride)
            xs = range(0, img.width - win_w + 1, stride)
            grids.add((win_w, win_h, stride, len(xs), len(ys)))
            for y in ys:
                for x in xs:
                    res = eval_window(c, ip, Rect(x, y, win_w, win_h))
                    if res.accepted:
                        accepted[(x, y, win_w, win_h)] = res.score
        f *= p.scale_factor
    return accepted, grids


def first_stage(c: Cascade, first: str) -> Cascade:
    """``c`` as it is ("random"), or behind a first stage that accepts or
    rejects every window."""
    if first == "random":
        return c
    vacuous = {"accept-all": -1e9, "reject-all": 1e9}[first]
    return Cascade(c.base_w, c.base_h, c.features,
                   (Stage((WeakClassifier(0, 0.0, 0.0, 0.0),), vacuous),) + c.stages)


class TestScanParams:
    @pytest.mark.parametrize("value", NOT_FINITE + [1.0, 0.5])
    def test_scale_factor_must_be_finite_and_exceed_1(self, value):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"scale_factor must be finite and exceed 1, got {value!r}") + "$"):
            ScanParams(scale_factor=value)

    @pytest.mark.parametrize("value", [1.5, 24.0, True, False, "24", None])
    def test_step_divisor_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="^step_divisor must be an int"):
            ScanParams(step_divisor=value)

    def test_step_divisor_must_be_at_least_1(self):
        with pytest.raises(ValueError, match="^step_divisor must be an int of at least 1, got 0"):
            ScanParams(step_divisor=0)

    def test_smallest_valid_settings(self):
        p = ScanParams(scale_factor=math.nextafter(1.0, 2.0), step_divisor=1)
        assert p.step_divisor == 1 and p.scale_factor > 1.0

    @pytest.mark.parametrize("value", NOT_FINITE + [0.0, 1.0, 2.0, -0.2])
    def test_eps_must_lie_between_0_and_1(self, value):
        message = "^" + re.escape(f"eps must lie in (0, 1), got {value!r}") + "$"
        with pytest.raises(ValueError, match=message):
            ScanParams(eps=value)
        with pytest.raises(ValueError, match=message):
            group_detections([], eps=value)

    def test_numpy_numbers_pass(self):
        p = ScanParams(scale_factor=np.float64(1.25), eps=np.float64(0.3))
        assert (p.scale_factor, p.eps) == (1.25, 0.3)
        assert ScanParams(scale_factor=np.int64(2)).scale_factor == 2

    @pytest.mark.parametrize("value", [-1, 3.0, True, "3", None])
    def test_min_neighbors_must_be_an_int_of_at_least_0(self, value):
        with pytest.raises(ValueError, match="^min_neighbors must be an int of at least 0"):
            ScanParams(min_neighbors=value)

    @pytest.mark.parametrize("field", ["min_size", "max_size"])
    @pytest.mark.parametrize("value", [0, -3, 24.0, True, "24"])
    def test_window_bounds_must_be_none_or_an_int_of_at_least_1(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be None or an int of at least 1"):
            ScanParams(**{field: value})

    def test_edge_grouping_settings_and_crossed_bounds_build(self):
        """No min_size <= max_size rule: a gated face scan whose per-body
        floor passes its cap has an empty ladder and finds nothing."""
        p = ScanParams(eps=math.nextafter(0.0, 1.0), min_neighbors=0, min_size=6, max_size=5)
        assert (p.min_neighbors, p.min_size, p.max_size) == (0, 6, 5)
        img = GrayImage(np.zeros((8, 8), np.uint8))
        assert len(detect_multiscale(accept_all_cascade(4, 4), img, p)) == 0
        assert ScanParams(min_size=1, max_size=1).max_size == 1


class TestDetectMultiscale:
    def test_blank_image_reject_all_empty(self):
        img = GrayImage(np.zeros((64, 64), dtype=np.uint8))
        out = detect_multiscale(reject_all_cascade(), img, ScanParams())
        assert len(out) == 0

    def test_accept_all_window_count_matches_grid_oracle(self, rng):
        img = random_image(rng, 64, 64)
        p = ScanParams(scale_factor=1.25, min_size=24, max_size=64)
        out = detect_multiscale(accept_all_cascade(24, 24), img, p)
        assert len(out) == scan_grid_oracle(24, 24, 64, 64, p)

    def test_deterministic_scan_order(self, rng):
        img = random_image(rng, 64, 64)
        p = ScanParams(scale_factor=1.25, min_size=24, max_size=48)
        out = detect_multiscale(accept_all_cascade(24, 24), img, p)
        keys = [(d.box.w, d.box.y, d.box.x) for d in out]
        assert keys == sorted(keys)

    def test_matches_per_window_eval(self, rng):
        """Vectorized scan equals the scalar evaluator window for window."""
        for _ in range(10):
            c = random_cascade(rng, base_w=8, base_h=8, n_stages=2)
            img = random_image(rng, 32, 32)
            p = ScanParams(scale_factor=1.5, min_size=8, max_size=32,
                           step_divisor=4)
            got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                   for d in detect_multiscale(c, img, p)}
            want, _ = per_window_eval(c, img, p)
            assert got == want

    @pytest.mark.parametrize("img_w,img_h,base_w,base_h",
                             [(37, 23, 5, 8), (23, 37, 8, 5)])
    @pytest.mark.parametrize("first", ["random", "accept-all", "reject-all"])
    def test_matches_per_window_eval_on_uneven_grids(self, rng, img_w, img_h,
                                                     base_w, base_h, first):
        """Non-square image and base window, strides that do not divide the
        span, one-row or one-column grids; a first stage that accepts every
        window keeps the whole-grid read going into the second stage."""
        shapes = set()
        for _ in range(8):
            c = first_stage(random_cascade(rng, base_w=base_w, base_h=base_h,
                                           n_stages=3), first)
            img = random_image(rng, img_w, img_h)
            p = ScanParams(scale_factor=1.3, step_divisor=rng.choice([2, 3]))
            got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), sc) for k, sc in want.items()]
            shapes |= grids
            if first == "reject-all":
                assert got == []
        assert any(stride > 1 and ((img_w - w) % stride or (img_h - h) % stride)
                   for w, h, stride, _, _ in shapes)
        assert any(1 in (nx, ny) and nx != ny for _, _, _, nx, ny in shapes)

    @pytest.mark.parametrize("first", ["random", "accept-all"])
    def test_split_bands_match_per_window_eval(self, rng, monkeypatch, band_walks,
                                               first):
        """Every size cut into row bands of at most two windows: still
        eval_window's result for every window, in order."""
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", 2)
        p = ScanParams(scale_factor=1.3, step_divisor=3)
        for _ in range(4):
            c = first_stage(random_cascade(rng, base_w=8, base_h=5, n_stages=3), first)
            img = random_image(rng, 38, 47)
            got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), sc) for k, sc in want.items()]
        rows = {g: max(1, 2 // g[3]) for g in grids}  # g: (w, h, stride, nx, ny)
        assert all(g[4] > r for g, r in rows.items())  # every size splits
        assert any(g[3] > 2 for g in rows)  # one-row bands of more than 2 windows
        assert any(r > 1 and g[4] % r for g, r in rows.items())  # a short last band
        assert band_walks.count == 4 * sum(-(-g[4] // r) for g, r in rows.items())

    def test_translation_moves_boxes(self, rng):
        from facefollow.synthetic import build_body_cascade, render_scene
        body = Rect(40, 30, 24, 36)
        pad = Rect(36, 24, 32, 48)
        c = build_body_cascade()
        p = ScanParams(scale_factor=1.3, min_size=24, max_size=64, step_divisor=8)
        img_a = render_scene(128, 128, None, body)
        img_b = render_scene(128, 128, None, Rect(body.x + 8, body.y + 8,
                                                  body.w, body.h))
        boxes_a = {(d.box.x, d.box.y, d.box.w, d.box.h)
                   for d in detect_multiscale(c, img_a, p)}
        boxes_b = {(d.box.x, d.box.y, d.box.w, d.box.h)
                   for d in detect_multiscale(c, img_b, p)}
        assert boxes_a, "pattern must be detectable"
        # stride at every scanned scale divides 8, so the translate is exact
        assert {(x + 8, y + 8, w, h) for x, y, w, h in boxes_a} == boxes_b

    def test_min_size_below_base_rejected(self, rng):
        img = random_image(rng, 32, 32)
        with pytest.raises(ValueError, match="min_size"):
            detect_multiscale(accept_all_cascade(24, 24), img,
                              ScanParams(min_size=12))


def windows_of(dets) -> Windows:
    """``dets`` as the arrays of a ``Windows``."""
    return Windows(np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                            dtype=np.int64).reshape(-1, 4),
                   np.array([d.score for d in dets]))


class TestWindows:
    """A scan's windows stay arrays; a ``Detection`` is built when read."""

    def scan(self, rng):
        """The first random scan to accept more than two windows."""
        p = ScanParams(scale_factor=1.3, step_divisor=3)
        for _ in range(50):
            c = first_stage(random_cascade(rng, base_w=8, base_h=5, n_stages=3), "accept-all")
            img = random_image(rng, 38, 47)
            out = detect_multiscale(c, img, p)
            if len(out) > 2:
                return c, img, p, out
        raise AssertionError("no random scan accepted more than two windows")

    def test_len_and_indexing(self, rng):
        _, _, _, out = self.scan(rng)
        dets = list(out)
        n = len(out)
        assert isinstance(out, collections.abc.Sequence) and n == len(dets)
        assert out.boxes.shape == (n, 4) and out.boxes.dtype == np.int64
        assert out.score.shape == (n,) and out.score.dtype == np.float64
        assert [out[i] for i in range(n)] == dets
        assert [out[i - n] for i in range(n)] == dets
        assert out[np.int64(1)] == dets[1]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                out[i]
        with pytest.raises(TypeError):
            out[0:2]

    def test_items_are_plain_detections(self, rng):
        _, _, _, out = self.scan(rng)
        for d in (out[0], next(iter(out))):
            assert type(d.score) is float
            assert all(type(v) is int for v in dataclasses.astuple(d.box))
            assert d.neighbors == 0

    def test_iteration_equals_eval_window(self, rng):
        for _ in range(4):
            c, img, p, out = self.scan(rng)
            want, _ = per_window_eval(c, img, p)
            assert [(d.box, d.score) for d in out] == [(Rect(*k), sc) for k, sc in want.items()]
            ip = integral(img)
            assert all(eval_window(c, ip, d.box) == cascade.WindowEval(True, len(c.stages), d.score)
                       for d in out)

    def test_arrays_are_read_only_and_equality_is_identity(self, rng):
        _, _, _, out = self.scan(rng)
        for a in (out.boxes, out.score):
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.score = np.empty(0)
        assert out == out and out != list(out)

    def test_empty_scan(self):
        out = detect_multiscale(reject_all_cascade(), GrayImage(np.zeros((30, 30), np.uint8)),
                                ScanParams())
        assert len(out) == 0 and list(out) == []
        assert out.boxes.shape == (0, 4) and out.score.shape == (0,)
        assert group_detections(out, min_neighbors=0) == []


def cancelling_cascade(rng) -> Cascade:
    """The synthetic body cascade's features, whose parts share corners that
    merge or cancel, plus a feature whose corners all cancel, under random
    stumps; the first stage reads the all-cancelling feature."""
    zero = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 6, 9), 2.0),
                                              FeaturePart(Rect(0, 0, 6, 9), -2.0)))
    features = build_body_cascade().features + (zero,)
    stages = []
    for si in range(3):
        weak = [WeakClassifier(rng.randrange(len(features)), rng.uniform(-0.3, 0.3),
                               rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                for _ in range(rng.randrange(1, 4))]
        if si == 0:
            weak.append(WeakClassifier(4, rng.uniform(-0.1, 0.1), 0.5, -0.5))
        stages.append(Stage(tuple(weak), rng.uniform(-1.0, 1.0)))
    return Cascade(12, 18, features, tuple(stages), name="cancelling")


def edge_flush_cascade() -> Cascade:
    """Feature 1's right part is flush with the base window's right edge:
    at 25x25 (scale 25/12) it scales to x=13, w=13, one column past the
    window, and is clipped to w=12."""
    inside = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 4), 1.0),
                                                FeaturePart(Rect(4, 0, 4, 4), -1.0)))
    wide = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 6, 12), 1.0),
                                              FeaturePart(Rect(6, 0, 6, 12), -1.0)))
    return Cascade(12, 12, (inside, wide),
                   (Stage((WeakClassifier(0, 0.0, 0.0, 1.0),), -1.0),
                    Stage((WeakClassifier(1, 0.01, 0.0, 1.0),), 0.5)))


def model_taps(c: Cascade, w: int, h: int) -> list[list]:
    """Each stage's tap lists at a ``w`` x ``h`` window, in weak order, from
    the model's features through the reference scaling and merge."""
    feats = [corner_taps(scaled_parts(f, w / c.base_w, w, h)) for f in c.features]
    return [[feats[wk.feature_index] for wk in st.weak] for st in c.stages]


def gather_lists(g) -> list:
    """The tap lists of gather ``g``, its zero-tap padding dropped."""
    return [tuple(tuple(t) for t in row if t[2]) or ((0, 0, 0),)
            for row in np.stack(g, axis=-1).tolist()]


def plan_taps(plan) -> list[list]:
    """Each stage's tap lists as ``plan`` reads them, in weak order: stage
    0's from the strided reads after the window's two or, with a cut, its
    first from the one strided read and its others from the cut's gather,
    and every later stage's from its gather."""
    strided = [term_taps(terms) for _, terms in plan.strided]
    first = strided[:1] + gather_lists(plan.gathers[0]) if plan.keep_sign else strided[2:]
    return [first] + [gather_lists(g) for g in plan.gathers[1:]]


class TestSizePlans:
    """Each (cascade, window size) compiles once to merged corner taps."""

    def test_body_features_read_six_merged_taps(self):
        c = build_body_cascade()
        sizes = cascade._scan_sizes(c, 320, 240, synthetic_gate_params(320).body_scan)
        assert len(sizes) > 10
        for win_w, win_h in sizes:
            plan = cascade._size_plan(c, win_w, win_h)
            # 2-part features: 8 corners, 2 shared; 3-part: 12 corners, 2 cancel
            # and 4 shared
            assert [len(taps) for st in plan_taps(plan) for taps in st] == [6] * 4
            # the cut feature, the only strided read, is one term: three rows
            # by the window's two edge columns
            (plane, ((rows, cols),)), = plan.strided
            assert plane == 0 and [a for _, a in rows] == [1, -2, 1]
            assert cols == ((0, 1), (win_w, -1))

    def test_feature_whose_corners_all_cancel_reads_one_zero_tap(self, rng):
        plan = cascade._size_plan(cancelling_cascade(rng), 15, 23)
        assert plan_taps(plan)[0][-1] == ((0, 0, 0),)

    def test_plan_is_cached_per_size(self, rng):
        c = random_cascade(rng)
        small, large = cascade._size_plan(c, 12, 12), cascade._size_plan(c, 15, 15)
        assert cascade._size_plan(c, 12, 12) is small
        assert small is not large
        assert (small.win, large.win) == (Rect(0, 0, 12, 12), Rect(0, 0, 15, 15))

    def test_plans_read_the_reference_taps(self, rng):
        """At every size of a scan a plan reads each weak classifier's
        feature as the reference scaling and dict merge give it."""
        for c in (build_body_cascade(), cancelling_cascade(rng)):
            detect_multiscale(c, random_image(rng, 60, 60), ScanParams(scale_factor=1.25))
            assert len(c._plans) > 3
            for (w, h), plan in c._plans.items():
                assert plan_taps(plan) == model_taps(c, w, h)

    def test_equal_but_distinct_cascade_gets_its_own_plan(self, rng):
        c = random_cascade(rng)
        twin = Cascade(c.base_w, c.base_h, c.features, c.stages, name=c.name)
        assert twin == c and twin is not c
        assert cascade._size_plan(twin, 12, 12) is not cascade._size_plan(c, 12, 12)
        # the plans are no part of the model
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
        assert dataclasses.replace(c)._plans == {}

    def test_scans_never_reuse_another_cascades_or_sizes_plan(self, rng):
        """Cascades with one base window scanned in turn over images whose
        ladders share sizes: each scan is still its own cascade's eval_window."""
        cs = [random_cascade(rng, base_w=8, base_h=8, n_stages=2) for _ in range(3)]
        imgs = [random_image(rng, w, h) for w, h in ((32, 32), (27, 35), (40, 21))]
        p = ScanParams(scale_factor=1.5, min_size=8, step_divisor=4)
        accepted = 0
        for _ in range(2):
            for c in cs:
                for img in imgs:
                    got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                           for d in detect_multiscale(c, img, p)}
                    want, _ = per_window_eval(c, img, p)
                    assert got == want
                    accepted += len(want)
        assert accepted

    def test_collected_cascade_leaves_no_plan_behind(self, rng):
        c = random_cascade(rng)
        detect_multiscale(c, random_image(rng, 30, 30), ScanParams())
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None

    def test_edge_flush_part_is_clipped_to_the_window(self, rng):
        c, img = edge_flush_cascade(), random_image(rng, 30, 30)
        p = ScanParams(scale_factor=25 / 12, max_size=25)  # 12x12, then 25x25
        for _ in range(2):
            got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                   for d in detect_multiscale(c, img, p)}
            want, _ = per_window_eval(c, img, p)
            assert got == want and any(k[2] == 25 for k in want)
        assert set(c._plans) == {(12, 12), (25, 25)}
        clipped = [(Rect(0, 0, 13, 25), 1.0), (Rect(13, 0, 12, 25), -1.0)]
        assert plan_taps(cascade._size_plan(c, 25, 25))[1][0] == corner_taps(clipped)

    def test_fixture_cascade_at_every_size_of_the_640_ladder(self):
        """The imported upper-body fixture, whose parts touch the base
        window's far edges, at each size of the default 640x480 ladder: on a
        crop of a random frame a few strides larger than the window, window
        for window against eval_window."""
        c = import_legacy_xml(fixture_text("upperbody_20x20.xml"))
        frame = GrayImage(np.random.default_rng(7).integers(0, 256, (480, 640),
                                                            dtype=np.uint8))
        sizes = cascade._scan_sizes(c, 640, 480, ScanParams())
        accepted = rejected = 0
        for w, h in sizes:
            reach = 4 * max(1, int(w / 24 + 0.5))  # four strides
            crop = frame.crop(Rect(0, 0, min(640, w + reach), min(480, h + reach)))
            p = ScanParams(min_size=w, max_size=w)
            got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                   for d in detect_multiscale(c, crop, p)}
            want, grids = per_window_eval(c, crop, p)
            assert got == want
            (_, _, _, nx, ny), = grids
            accepted += len(want)
            rejected += nx * ny - len(want)
        assert len(sizes) == 18 and accepted and rejected
        # the sizes where a part scales one pixel past the window
        assert sum(any(scale_rect(part.rect, w / 20).right > w
                       or scale_rect(part.rect, w / 20).bottom > h
                       for f in c.features for part in f.parts) for w, h in sizes) > 8

    def test_sampled_base_features_compile_on_the_640_ladder(self):
        feats = random.Random(5).sample(enumerate_base_features(22, 18), 400)
        c = Cascade(22, 18, tuple(feats), (Stage((WeakClassifier(0, 0.0, 0.0, 0.0),), -1.0),))
        sizes = cascade._scan_sizes(c, 640, 480, ScanParams())
        for w, h in sizes:
            plan = cascade._size_plan(c, w, h)
            assert all(0 <= dy <= h and 0 <= dx <= w
                       for st in plan_taps(plan) for taps in st for dy, dx, _ in taps)
        assert any(scale_rect(part.rect, w / 22).right > w
                   for f in feats for part in f.parts for w, _ in sizes)

    @pytest.mark.parametrize("first", ["random", "accept-all"])
    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split-bands"])
    def test_cancelling_corners_match_per_window_eval(self, rng, monkeypatch, band_walks,
                                                      first, split):
        """At several sizes, and with every size cut into bands of at most
        two windows."""
        if split:
            monkeypatch.setattr(cascade, "_BAND_WINDOWS", 2)
        p = ScanParams(scale_factor=1.25, step_divisor=4)
        accepted = 0
        for _ in range(4):
            c = first_stage(cancelling_cascade(rng), first)
            img = random_image(rng, 41, 50)
            got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), sc) for k, sc in want.items()]
            accepted += len(want)
        assert len(grids) >= 4 and accepted
        # every size splits, or none does
        walks = 4 * sum(-(-ny // max(1, 2 // nx)) if split else 1
                        for _, _, _, nx, ny in grids)
        assert band_walks.count == walks and walks > 4 * len(grids) * split


# stage 0 of the sign-cut cascades: (weak 0's threshold, left, right, stage
# threshold, the plan's keep_sign); weak 1 adds 0.5 or -0.25
SIGN_CUTS = {
    "left-lower": (0.05, -1.0, 1.0, 0.0, 1),
    "right-lower-at-0": (0.0, 1.0, -1.0, 0.0, -1),
    "right-lower-at-minus-0": (-0.0, 1.0, -1.0, 0.0, -1),
    # near misses: no cut
    "left-lower-at-0": (0.0, -1.0, 1.0, 0.0, 0),  # a sum of 0 votes right
    "reachable": (0.05, -1.0, 1.0, -0.5, 0),  # -1.0 + 0.5 passes a -0.5 stage
    "equal-leaves": (0.05, -1.0, -1.0, 0.0, 0),
}


def deep_cascade() -> Cascade:
    """About as deep as OpenCV's frontal-face cascade: 2,200 features drawn
    from ``enumerate_base_features(24, 24)`` in 25 stages of 9 to 224 stumps,
    2,901 in all.  A compile-cost proxy, not a detector."""
    rng = random.Random(3)
    feats = tuple(rng.sample(enumerate_base_features(24, 24), 2200))
    stages = tuple(Stage(tuple(WeakClassifier(rng.randrange(len(feats)), rng.uniform(-0.02, 0.02),
                                              rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0))
                               for _ in range(9 + 215 * si // 24)), 0.0)
                   for si in range(25))
    return Cascade(24, 24, feats, stages, name="deep")


PLAN_CASCADES = {
    "body": build_body_cascade,
    "face": build_face_cascade,
    "upperbody_20x20": lambda: import_legacy_xml(fixture_text("upperbody_20x20.xml")),
    "face_24x24": lambda: import_legacy_xml(fixture_text("face_24x24.xml")),
    "deep": deep_cascade,
}
PLAN_LADDERS = {"320x240": (320, 240, ScanParams()), "640x480": (640, 480, ScanParams()),
                "640x480-1.05": (640, 480, ScanParams(scale_factor=1.05))}
# plan_digest over every size of each ladder, as the compile that merged
# each feature's corners in a Python dict gave them; the window's corners
# are read as strided slices by plans without a cut, and gathered per
# batch for the survivors of a cut, so no gather holds them
PLAN_DIGESTS = {
    "body": ("bd3946c3edab1fd7", "6229c274325b7b16", "070a4b2a53babb6e"),
    "face": ("fc5a81c40189ca17", "e12d84968829d974", "91acf22cafb065f7"),
    "upperbody_20x20": ("e1fb64c00012a7a5", "69604fe3ff306ad3", "a22ab00e63a2ddce"),
    "face_24x24": ("244af3e107200484", "3fb2053e64e9cf11", "be5a3e892428ff20"),
    "deep": ("88859e4598009bea", "c0983abb467abb56", "4e3a81ecaf70c728"),
}


def plan_digest(c: Cascade, sizes) -> str:
    """A sha256 prefix of the plans at ``sizes``: each one's window,
    ``keep_sign`` and strided terms, then the shape and little-endian int64
    bytes of every gather array."""
    h = hashlib.sha256()
    for w, hh in sizes:
        plan = cascade._size_plan(c, w, hh)
        h.update(repr((plan.win, plan.keep_sign, plan.strided)).encode())
        for g in plan.gathers:
            arrays = () if g is None else g
            h.update(repr([a.shape for a in arrays]).encode())
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


class TestPlanDigests:
    """Every plan of the synthetic pair, both imported fixtures and a deep
    cascade, at every size of three ladders, equals the plan of the per-part
    dict-merge compile, pinned as digests; the sign cut is on in the
    synthetic pair and off in the rest."""

    @pytest.mark.parametrize("name", PLAN_CASCADES)
    def test_plans_equal_the_pinned_digests(self, name):
        c = PLAN_CASCADES[name]()
        sizes = {ladder: cascade._scan_sizes(c, w, h, p)
                 for ladder, (w, h, p) in PLAN_LADDERS.items()}
        assert tuple(plan_digest(c, s) for s in sizes.values()) == PLAN_DIGESTS[name]
        assert {plan.keep_sign for plan in c._plans.values()} == \
            ({1} if name in ("body", "face") else {0})
        assert len(sizes["640x480-1.05"]) > 60

    @pytest.mark.parametrize("base", [4, 12, 20, 24, 37])
    def test_numpy_rounding_equals_math_floor(self, rng, base):
        """At every scale of the three ladders, ``int64 * float`` and
        ``np.floor(v * scale + 0.5)`` in float64 equal Python's product and
        ``math.floor`` bit for bit, so the part table scales each part as
        the reference does, clip included."""
        values = list(range(base + 1)) + rng.sample(range(base + 1, MAX_DIM + 1), 100)
        c = accept_all_cascade(base, base)
        scales = {w / base for wl, hl, p in PLAN_LADDERS.values()
                  for w, _ in cascade._scan_sizes(c, wl, hl, p)}
        v = np.array(values, dtype=np.int64)
        for scale in sorted(scales):
            assert (v * scale).tolist() == [x * scale for x in values]
            assert np.floor(v * scale + 0.5).astype(np.int64).tolist() == \
                [_round_half_up(x * scale) for x in values]
        cr = random_cascade(rng, base_w=base, base_h=base, n_features=40)
        for scale in sorted(scales):
            w = _round_half_up(base * scale)
            got = haar._scaled_parts(cr._parts, scale, w, w).tolist()
            assert got == [[r.x, r.y, r.w, r.h] for f in cr.features
                           for r, _ in scaled_parts(f, scale, w, w)]


def sign_cut_cascade(rng, kind: str, at: int = 0) -> Cascade:
    """Feature 0, the left half minus the right half of the 8x8 base,
    drives stage 0's weak classifier ``at`` (0 or 1) with the ``SIGN_CUTS``
    values of ``kind``.  The other one adds 0.5 or -0.25 under a positive
    threshold, so it never vetoes.  Two random stages follow."""
    threshold, left, right, stage_threshold, _ = SIGN_CUTS[kind]
    halves = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 8), 1.0),
                                                FeaturePart(Rect(4, 0, 4, 8), -1.0)))
    rest = random_cascade(rng, base_w=8, base_h=8, n_stages=2)
    weak = (WeakClassifier(0, threshold, left, right),
            WeakClassifier(1, rng.uniform(0.01, 0.3), 0.5, -0.25))
    first = Stage(weak if at == 0 else weak[::-1], stage_threshold)
    return Cascade(8, 8, (halves,) + rest.features, (first,) + rest.stages)


def sign_cut_image(rng, name: str) -> GrayImage:
    """36x30 test images; the first feature's sums are mixed on "random",
    mixed with exact zeros (and sigma 1) on "flat-patches", all positive on
    "ramp" (brighter to the left); "flat" is one gray level."""
    if name == "random":
        return random_image(rng, 36, 30)
    if name == "ramp":
        return GrayImage(np.tile(np.arange(250, 250 - 6 * 36, -6, dtype=np.uint8), (30, 1)))
    data = np.full((30, 36), 90, dtype=np.uint8)
    if name == "flat-patches":
        data = random_image(rng, 36, 30).data.copy()
        data[:16, :20] = 90
        data[18:, 14:] = 200
    return GrayImage(data)


class TestSignCut:
    """Stage 0's first feature rejects windows on the sign of its sum."""

    @pytest.mark.parametrize("kind", SIGN_CUTS)
    def test_which_plans_get_a_cut(self, rng, kind):
        c = sign_cut_cascade(rng, kind)
        assert {cascade._size_plan(c, w, w).keep_sign for w in (8, 10, 13)} == \
            {SIGN_CUTS[kind][-1]}

    def test_synthetic_cascades_cut(self):
        for c in (build_body_cascade(), build_face_cascade()):
            assert cascade._size_plan(c, 2 * c.base_w, 2 * c.base_h).keep_sign == 1

    @pytest.mark.parametrize("image", ["random", "flat-patches", "ramp", "flat"])
    @pytest.mark.parametrize("kind", SIGN_CUTS)
    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split-bands"])
    def test_matches_per_window_eval(self, rng, monkeypatch, band_walks, kind, image,
                                     split):
        """Whole grids, and bands of at most two windows, so that some bands
        lose every window to the cut and some lose none."""
        if split:
            monkeypatch.setattr(cascade, "_BAND_WINDOWS", 2)
        p = ScanParams(scale_factor=1.25, step_divisor=4)
        for _ in range(3):
            c = sign_cut_cascade(rng, kind)
            img = sign_cut_image(rng, image)
            got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), sc) for k, sc in want.items()]
        assert len(grids) >= 4
        assert (band_walks.count > 3 * len(grids)) == split

    @pytest.mark.parametrize("image", ["ramp", "flat"])
    def test_sizes_that_the_cut_keeps_whole_or_empties(self, rng, image):
        """Each size is one band here.  On "ramp" every first-feature sum is
        positive, so the left-lower cut drops no window and every band walks
        dense.  On "flat" sigma falls back to 1, and the sum is 0 (every
        window cut) where the scaled halves are equal and positive where
        rounding widens the left one (no window cut)."""
        c, img = sign_cut_cascade(rng, "left-lower"), sign_cut_image(rng, image)
        p = ScanParams(scale_factor=1.25, step_divisor=4)
        ip = integral(img)
        sums: dict[int, list[float]] = {}
        for x, y, w, h in per_window_eval(accept_all_cascade(8, 8), img, p)[0]:
            sums.setdefault(w, []).append(
                feature_value(ip, c.features[0], Rect(x, y, w, h), w / 8))
        cut = {w for w, v in sums.items() if max(v) <= 0}
        kept = {w for w, v in sums.items() if min(v) > 0}
        if image == "ramp":
            assert kept == set(sums)
        else:
            assert cut and kept and cut | kept == set(sums)
        got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
               for d in detect_multiscale(c, img, p)}
        assert got == per_window_eval(c, img, p)[0]


@pytest.fixture
def sigma_windows(monkeypatch):
    """Counts the windows whose sigma the scans compute: the candidates
    that every veto kept."""
    seen = [0]
    sigma_area = cascade._sigma_area

    def count(s1, s2, area):
        seen[0] += len(area)
        return sigma_area(s1, s2, area)

    monkeypatch.setattr(cascade, "_sigma_area", count)
    return seen


def veto_survivors(c: Cascade, img: GrayImage, grids, vetoes) -> list[Rect]:
    """The windows of ``grids`` whose sum for each (j, sign) of ``vetoes``,
    stage 0's weak classifier j, has that sign, found window by window
    from ``feature_value``."""
    ip = integral(img)
    weak = c.stages[0].weak
    wins = [Rect(x, y, w, h) for w, h, stride, nx, ny in grids
            for y in range(0, ny * stride, stride) for x in range(0, nx * stride, stride)]
    return [r for r in wins
            if all(sign * feature_value(ip, c.features[weak[j].feature_index], r,
                                        r.w / c.base_w) > 0
                   for j, sign in vetoes)]


def veto_pair_cascade(features: tuple[HaarFeature, ...]) -> Cascade:
    """Stage 0: a left-lower weak classifier on feature 0, which is its cut
    wherever the int32 bound holds, and one on feature 1; either one's
    lower leaf keeps the stage below its threshold, so both veto (+1).  A
    stage on feature 1 follows."""
    first = Stage((WeakClassifier(0, 0.05, -1.0, 1.0), WeakClassifier(1, 0.05, -1.0, 1.0)), 0.5)
    later = Stage((WeakClassifier(1, 0.1, -1.0, 1.0),), 0.0)
    base_w = max(p.rect.right for f in features for p in f.parts)
    base_h = max(p.rect.bottom for f in features for p in f.parts)
    return Cascade(base_w, base_h, features, (first, later))


HALVES = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 8), 1.0),
                                            FeaturePart(Rect(4, 0, 4, 8), -1.0)))
FLIPPED_HALVES = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 8), -1.0),
                                                    FeaturePart(Rect(4, 0, 4, 8), 1.0)))
TOP_MINUS_BOTTOM = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 8, 4), 1.0),
                                                      FeaturePart(Rect(0, 4, 8, 4), -1.0)))


class TestVeto:
    """A weak classifier of stage 0 whose sum's sign alone rejects a window
    vetoes it: each batch drops the windows whose sum has the vetoing sign
    before it reads their window sums.  The cut is the first weak
    classifier's veto, read per band."""

    @pytest.mark.parametrize("kind", SIGN_CUTS)
    def test_which_weak_classifiers_veto(self, rng, kind):
        """``SIGN_CUTS``'s cases and near misses at either index of stage
        0: threshold 0 and -0.0, equal leaves and a reachable bound."""
        want = SIGN_CUTS[kind][-1]
        for at in (0, 1):
            st = sign_cut_cascade(rng, kind, at).stages[0]
            assert [cascade._veto_sign(st, j) for j in (0, 1)] == \
                ([want, 0] if at == 0 else [0, want])
            # the cut is the first veto where the int32 sum is exact
            assert cascade._sign_cut(st, 2 ** 31 - 1) == cascade._veto_sign(st, 0)
            assert cascade._sign_cut(st, 2 ** 31) == 0

    def test_synthetic_cascades_veto_with_every_stage_0_weak_classifier(self):
        assert [cascade._veto_sign(build_body_cascade().stages[0], j) for j in (0, 1)] == [1, 1]
        assert [cascade._veto_sign(build_face_cascade().stages[0], j) for j in (0, 1)] == [1, -1]

    @pytest.mark.parametrize("image", ["random", "flat-patches", "ramp", "flat"])
    @pytest.mark.parametrize("kind", SIGN_CUTS)
    def test_later_veto_matches_per_window_eval(self, rng, band_walks, sigma_windows, kind,
                                                image):
        """Stage 0's second weak classifier vetoes, and no plan has a cut:
        the scan is eval_window's, and exactly the windows whose sum has
        the kept sign reach sigma.  On "flat-patches" and "flat" some sums
        are exactly 0, which neither sign keeps."""
        p = ScanParams(scale_factor=1.25, step_divisor=4)
        sign = SIGN_CUTS[kind][-1]
        kept = windows = 0
        for _ in range(3):
            c = sign_cut_cascade(rng, kind, 1)
            img = sign_cut_image(rng, image)
            got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), sc) for k, sc in want.items()]
            kept += len(veto_survivors(c, img, grids, [(1, sign)] if sign else []))
            windows += sum(nx * ny for *_, nx, ny in grids)
        assert {plan.keep_sign for plan in c._plans.values()} == {0}
        assert sigma_windows[0] == kept
        if sign and image in ("random", "flat-patches"):
            assert 0 < kept < windows

    @pytest.mark.parametrize("image, vetoed", [
        ("random", TOP_MINUS_BOTTOM), ("flat-patches", TOP_MINUS_BOTTOM), ("ramp", FLIPPED_HALVES)])
    def test_cut_then_veto_matches_per_window_eval(self, rng, sigma_windows, batches, image,
                                                   vetoed):
        """A cut on the halves feature and a veto on a second feature.  On
        "ramp" every halves sum is positive, so the cut keeps every window,
        and every flipped halves sum is negative, so the veto drops every
        one: the batches hold candidates and no window reaches sigma.  The
        last origins of the base size (stride 1) are flush with the
        table's right and bottom edges."""
        c = veto_pair_cascade((HALVES, vetoed))
        img = sign_cut_image(rng, image)
        p = ScanParams(scale_factor=1.25, step_divisor=8)
        got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
        want, grids = per_window_eval(c, img, p)
        assert got == [(Rect(*k), sc) for k, sc in want.items()]
        assert {plan.keep_sign for plan in c._plans.values()} == {1}
        kept = veto_survivors(c, img, grids, [(0, 1), (1, 1)])
        assert sigma_windows[0] == len(kept)
        assert sum(n for bands, _ in batches for _, _, n, _ in bands) > len(kept)
        assert (8, 8, 1, img.width - 7, img.height - 7) in grids
        if image == "ramp":
            assert not kept and not want
        else:
            assert want and any(r.right == img.width for r in kept)
            assert any(r.bottom == img.height for r in kept)

    @pytest.mark.parametrize("limit", [100, 10 ** 9], ids=["split", "whole-scan"])
    def test_vetoes_in_batches_that_mix_cut_and_uncut_plans(self, rng, monkeypatch, batches,
                                                            sigma_windows, limit):
        """The 2**16-weight feature is cut at its base size and not at
        twice it; both weak classifiers veto in every batch, in int64 for
        the plan without a cut.  The black patch gives sums of 0."""
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", limit)
        base_w, base_h, left, right = INT32_BOUND_SIDES["below"]
        heavy = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(left, 2.0 ** 16),
                                                   FeaturePart(right, 2.0 ** 16)))
        edge = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(left, 1.0),
                                                  FeaturePart(right, -1.0)))
        c = veto_pair_cascade((heavy, edge))
        assert (c.base_w, c.base_h) == (base_w, base_h)
        p = ScanParams(scale_factor=2.0, max_size=2 * base_w, step_divisor=8)
        data = random_image(rng, 48, 40).data.copy()
        data[:20, :20] = 0
        img = GrayImage(data)
        got, grids = scan_in_batches(c, img, p)
        assert len({r.w for r, _ in got}) == 2
        assert [cascade._size_plan(c, w, h).keep_sign for w, h, *_ in sorted(grids)] == [1, 0]
        assert any({keep for *_, keep in bands} == {0, 1} for bands, _ in batches)
        assert sigma_windows[0] == len(veto_survivors(c, img, grids, [(0, 1), (1, 1)]))

    @pytest.mark.parametrize("name", ["body", "face"])
    def test_synthetic_cascade_on_a_rendered_person(self, sigma_windows, name):
        c = {"body": build_body_cascade, "face": build_face_cascade}[name]()
        img = render_scene(96, 72, Rect(40, 10, 16, 16), Rect(32, 5, 32, 48))
        p = ScanParams(scale_factor=1.3, step_divisor=8)
        got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
        want, grids = per_window_eval(c, img, p)
        assert got == [(Rect(*k), sc) for k, sc in want.items()] and want
        vetoes = [(j, cascade._veto_sign(c.stages[0], j)) for j in (0, 1)]
        assert sigma_windows[0] == len(veto_survivors(c, img, grids, vetoes)) > len(want)

    def test_window_sums_at_the_table_edges(self, rng):
        """The batch's corner gather of s1 and s2 at windows of several
        sizes in one call: flush with the top-left, the right edge, the
        bottom edge and the bottom-right corner of a 37x23 table."""
        img = random_image(rng, 37, 23)
        ip = integral(img)
        cols = ip.tables.shape[2]
        wins = [Rect(x, y, w, h) for w, h in ((5, 4), (12, 9), (37, 23), (1, 1))
                for x, y in ((0, 0), (37 - w, 0), (0, 23 - h), (37 - w, 23 - h), (1, 2))
                if x + w <= 37 and y + h <= 23]
        w, h = np.array([(r.w, r.h) for r in wins]).T
        base = np.array([r.y * cols + r.x for r in wins])
        got = cascade._window_sums(ip.tables, base, np.stack([0 * w, w, h * cols, h * cols + w]))
        assert got.dtype == np.int64
        assert got.tolist() == [[rect_sum(ip, r) for r in wins],
                                [rect_sum(ip, r, squared=True) for r in wins]]


class TestWalkReads:
    """Stage 0 reads a band as strided slices and every later stage gathers:
    ``_grid_sum`` runs once per band with a sign cut (the cut feature) and
    2 + len(stage 0) times without one (s1, s2, then each feature)."""

    def reads(self, monkeypatch, c, img):
        reads = CallCounter(cascade._grid_sum)
        monkeypatch.setattr(cascade, "_grid_sum", reads)
        p = ScanParams(scale_factor=1.25, step_divisor=4)
        got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
               for d in detect_multiscale(c, img, p)}
        want, grids = per_window_eval(c, img, p)
        assert got == want
        return reads.count, want, sum(nx * ny for *_, nx, ny in grids)

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split-bands"])
    def test_without_a_cut_when_stage_0_keeps_every_window(self, rng, monkeypatch,
                                                          band_walks, split):
        """Later stages reject some windows, and still read no strided slice."""
        if split:
            monkeypatch.setattr(cascade, "_BAND_WINDOWS", 5)
        halves = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 8), 1.0),
                                                    FeaturePart(Rect(4, 0, 4, 8), -1.0)))
        rows = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 8, 4), 1.0),
                                                  FeaturePart(Rect(0, 4, 8, 4), -1.0)))
        keep_all = Stage(tuple(WeakClassifier(i, 0.0, 0.0, 0.0) for i in (0, 1, 0)), -1.0)
        # each keeps the windows where its feature's sum is not negative
        signs = tuple(Stage((WeakClassifier(i, 0.0, -1.0, 1.0),), 0.0) for i in (0, 1))
        c = Cascade(8, 8, (halves, rows), (keep_all,) + signs)
        reads, accepted, windows = self.reads(monkeypatch, c, random_image(rng, 41, 50))
        assert reads == band_walks.count * (2 + 3)
        assert 0 < len(accepted) < windows

    @pytest.mark.parametrize("image", ["random", "ramp"])
    def test_with_a_cut(self, rng, monkeypatch, band_walks, image):
        """On "ramp" the cut keeps every window, and its survivors gather too."""
        c = sign_cut_cascade(rng, "left-lower")
        reads, _, _ = self.reads(monkeypatch, c, sign_cut_image(rng, image))
        assert reads == band_walks.count


# parts of a same-sign feature whose int32 bound is 2 * 2**16 * 255 * area:
# area 64 stays below 2**31 (by 0.4%), area 65 reaches it (by 1.2%)
INT32_BOUND_SIDES = {"below": (16, 8, Rect(0, 0, 8, 8), Rect(8, 0, 8, 8)),
                     "above": (10, 13, Rect(0, 0, 5, 13), Rect(5, 0, 5, 13))}


def heavy_cascade(side: str) -> Cascade:
    """Stage 0 is one left-lower weak classifier on a feature of two parts
    of weight 2**16: on a bright window its sum comes within 1% of 2**31
    ("below") or passes it ("above"); stage 1 reads the same parts as a
    left-minus-right feature."""
    base_w, base_h, left, right = INT32_BOUND_SIDES[side]
    heavy = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(left, 2.0 ** 16),
                                               FeaturePart(right, 2.0 ** 16)))
    edge = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(left, 1.0),
                                              FeaturePart(right, -1.0)))
    return Cascade(base_w, base_h, (heavy, edge),
                   (Stage((WeakClassifier(0, 0.05, -1.0, 1.0),), 0.0),
                    Stage((WeakClassifier(1, 0.0, -1.0, 1.0),), 0.0)))


def bright_frame() -> GrayImage:
    """3000x3000, mostly 255, so the integral table passes 2**31 near the
    bottom-right corner.  A few dark rects lie in the upper left; the
    bottom-right 400x400 holds vertical bars (250 and 90, 24 px wide)
    darkened by 40 on every other 40-row band, so the windows there have
    first-feature sums of both signs."""
    gen = np.random.default_rng(3)
    data = np.full((3000, 3000), 255, dtype=np.uint8)
    yy, xx = np.mgrid[:400, :400]
    data[2600:, 2600:] = 250 - 160 * (xx // 24 % 2) - 40 * (yy // 40 % 2)
    for _ in range(6):
        (x, y), (w, h) = gen.integers(0, 2500, 2), gen.integers(30, 200, 2)
        data[y:y + h, x:x + w] = gen.integers(0, 120)
    return GrayImage(data)


class TestInt32Cut:
    """The cut feature is summed modulo 2**32 over an int32 view of the
    integral table; a plan gets a cut only where that sum is exact."""

    def test_bright_frame_whose_integral_passes_2_31(self):
        """Windows whose corners read table entries past 2**31, which the
        int32 view holds wrapped, are cut, rejected later or accepted just
        as eval_window has it."""
        halves = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 4, 8), 1.0),
                                                    FeaturePart(Rect(4, 0, 4, 8), -1.0)))
        rows = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 8, 4), 1.0),
                                                  FeaturePart(Rect(0, 4, 8, 4), -1.0)))
        c = Cascade(8, 8, (halves, rows),
                    (Stage((WeakClassifier(0, 0.01, -1.0, 1.0),), 0.0),
                     Stage((WeakClassifier(1, 0.0, -1.0, 1.0),
                            WeakClassifier(0, 0.1, 0.5, -0.25)), 0.0)))
        img = bright_frame()
        p = ScanParams(scale_factor=2.0, min_size=64, max_size=128, step_divisor=2)
        assert [w for w, _ in cascade._scan_sizes(c, 3000, 3000, p)] == [64, 128]
        assert all(cascade._size_plan(c, w, w).keep_sign == 1 for w in (64, 128))
        got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
        ip = integral(img)
        assert ip.ii[-1, -1] >= 2 ** 31
        want, wrapped = [], []
        for w in (64, 128):
            for y in range(0, 3000 - w + 1, w // 2):
                for x in range(0, 3000 - w + 1, w // 2):
                    res = eval_window(c, ip, Rect(x, y, w, w))
                    if res.accepted:
                        want.append((Rect(x, y, w, w), res.score))
                    if ip.ii[y + w, x + w] >= 2 ** 31:
                        wrapped.append(res.stages_passed)
        assert got == want
        # windows past 2**31 rejected by stage 0, by stage 1, and accepted
        assert {0, 1, 2} <= set(wrapped)

    @pytest.mark.parametrize("side", INT32_BOUND_SIDES)
    def test_heavy_feature_on_both_sides_of_the_bound(self, rng, side):
        """At the base size, 2 * 2**16 * 255 * 64 < 2**31 gets a cut and
        2 * 2**16 * 255 * 65 does not; both scan as eval_window has it, on
        an all-255 frame (every sum at its bound, every window accepted)
        and on a random one with a black patch (sums of 0 are cut)."""
        c = heavy_cascade(side)
        plan = cascade._size_plan(c, c.base_w, c.base_h)
        assert plan.keep_sign == (1 if side == "below" else 0)
        # a larger size of the same cascade has no cut either way
        assert cascade._size_plan(c, 2 * c.base_w, 2 * c.base_h).keep_sign == 0
        p = ScanParams(min_size=c.base_w, max_size=c.base_w, step_divisor=4)
        bright = GrayImage(np.full((30, 36), 255, dtype=np.uint8))
        patched = random_image(rng, 36, 30).data.copy()
        patched[:20, :20] = 0
        for img in (bright, GrayImage(patched)):
            got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
                   for d in detect_multiscale(c, img, p)}
            want, ((_, _, _, nx, ny),) = per_window_eval(c, img, p)
            assert got == want
            assert len(want) == nx * ny if img is bright else 0 < len(want) < nx * ny
        heavy_sum = feature_value(integral(bright), c.features[0],
                                  Rect(0, 0, c.base_w, c.base_h))
        assert (heavy_sum < 2 ** 31) == (side == "below")

    def test_row_sums_that_wrap_while_the_cut_sum_fits(self):
        """A cut feature of 2**16 times the top three rows of a 16x6 window
        minus the three below them is one 3 x 2 term, read in two passes.
        On 255/0 stripes three rows high its row sums, 2**16 times a
        difference of three-row prefixes as wide as the frame, pass 2**31,
        while every window's sum, at most 2**16 * 255 * 48, fits: the scan
        is still eval_window's."""
        top, below = Rect(0, 0, 16, 3), Rect(0, 3, 16, 3)
        heavy = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(top, 2.0 ** 16),
                                                   FeaturePart(below, -2.0 ** 16)))
        edge = HaarFeature(FeatureKind.TWO_RECT, (FeaturePart(Rect(0, 0, 8, 6), 1.0),
                                                  FeaturePart(Rect(8, 0, 8, 6), -1.0)))
        c = Cascade(16, 6, (heavy, edge),
                    (Stage((WeakClassifier(0, 0.05, -1.0, 1.0),), 0.0),
                     Stage((WeakClassifier(1, 0.0, -1.0, 1.0),), 0.0)))
        plan = cascade._size_plan(c, 16, 6)
        (plane, (term,)) = plan.strided[0]
        assert plan.keep_sign == 1 and plane == 0 and two_pass(term)
        data = np.where(np.arange(30)[:, None] // 3 % 2 == 0, 255, 0).repeat(200, axis=1)
        data[:, 100:] = np.random.default_rng(4).integers(0, 256, (30, 100))
        img = GrayImage(data.astype(np.uint8))
        p = ScanParams(min_size=16, max_size=16, step_divisor=16)
        got = {(d.box.x, d.box.y, d.box.w, d.box.h): d.score
               for d in detect_multiscale(c, img, p)}
        want, ((_, _, _, nx, ny),) = per_window_eval(c, img, p)
        assert got == want and 0 < len(want) < nx * ny
        # the rows' sums over every column, exact in int64
        ii = integral(img).ii
        (rows, _) = term
        row_sums = sum(a * ii[dy:dy + ny] for dy, a in rows)
        assert np.abs(row_sums).max() >= 2 ** 31

    def test_synthetic_cascades_cut_at_every_640_size(self):
        for c, p in zip((build_body_cascade(), build_face_cascade()),
                        (ScanParams(), synthetic_gate_params(640).face_scan)):
            sizes = cascade._scan_sizes(c, 640, 480, p)
            assert sizes and all(cascade._size_plan(c, w, h).keep_sign == 1 for w, h in sizes)


def scan_in_batches(c, img, p):
    """The scan's windows, asserted equal to eval_window's in order; their
    (w, y, x) keys, asserted strictly ascending: scale, then y, then x."""
    got = [(d.box, d.score) for d in detect_multiscale(c, img, p)]
    want, grids = per_window_eval(c, img, p)
    assert got == [(Rect(*k), sc) for k, sc in want.items()]
    keys = [(r.w, r.y, r.x) for r, _ in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    return got, grids


class TestBatches:
    """The bands' candidates are classified in batches of at most
    ``_BAND_WINDOWS``, across sizes; a band is never split."""

    @pytest.mark.parametrize("limit", [7, 60, 10 ** 9], ids=["small", "mid", "whole-scan"])
    @pytest.mark.parametrize("first", ["random", "accept-all"])
    def test_match_per_window_eval(self, rng, monkeypatch, band_walks, batches, limit, first):
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", limit)
        p = ScanParams(scale_factor=1.3, step_divisor=3)
        scans = windows = 0
        for _ in range(4):
            c = first_stage(random_cascade(rng, base_w=8, base_h=5, n_stages=3), first)
            _, grids = scan_in_batches(c, random_image(rng, 38, 47), p)
            scans += 1
            windows += sum(nx * ny for *_, nx, ny in grids)
        held = [sum(n for _, _, n, _ in bands) for bands, _ in batches]
        assert all(n <= limit or len(bands) == 1 for n, (bands, _) in zip(held, batches))
        assert sum(len(bands) for bands, _ in batches) <= band_walks.count
        if first == "accept-all":  # no cut: every window is a candidate
            assert sum(held) == windows
        if limit == 10 ** 9:
            assert len(batches) == scans
            return
        sizes = [[(w, h) for w, h, _, _ in bands] for bands, _ in batches]
        # a batch that holds bands of two sizes, and one that closes mid-size
        assert any(len(set(s)) > 1 for s in sizes)
        assert any(a[-1] == b[0] for a, b in zip(sizes, sizes[1:]))

    def test_later_stages_keep_windows_at_several_sizes_in_one_batch(self, rng, batches):
        """Three stages past an accept-all first stage, the scan one batch:
        the windows that pass all of them come from several sizes."""
        p = ScanParams(scale_factor=1.3, step_divisor=3)
        for _ in range(6):
            c = first_stage(random_cascade(rng, base_w=8, base_h=5, n_stages=3), "accept-all")
            scan_in_batches(c, random_image(rng, 38, 47), p)
        assert len(batches) == 6
        assert any(len(set(boxes[:, 2].tolist())) > 2 for _, (boxes, _) in batches)

    @pytest.mark.parametrize("limit", [40, 10 ** 9], ids=["split", "whole-scan"])
    def test_one_batch_mixes_cut_and_uncut_plans(self, rng, monkeypatch, batches, limit):
        """The 2**16-weight cascade has a cut at its base size and none at
        twice it, where the int32 bound fails."""
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", limit)
        c = heavy_cascade("below")
        p = ScanParams(scale_factor=2.0, max_size=2 * c.base_w, step_divisor=4)
        data = random_image(rng, 48, 40).data.copy()
        data[:20, :20] = 0
        got, grids = scan_in_batches(c, GrayImage(data), p)
        assert {w for w, *_ in grids} == {c.base_w, 2 * c.base_w}
        assert len({r.w for r, _ in got}) == 2
        assert any({keep for *_, keep in bands} == {0, 1} for bands, _ in batches)


class TestStageLoop:
    def test_walk_stops_at_the_first_stage_that_keeps_no_window(self, rng, monkeypatch):
        """Stage 0 keeps every window and stage 1 none, so stage 2's taps
        are never gathered."""
        feat = accept_all_cascade(8, 8).features[0]
        keep = Stage((WeakClassifier(0, 0.0, 0.0, 0.0),), -1e9)
        drop = Stage((WeakClassifier(0, 0.0, 1.0, 1.0),), 2.0)
        c = Cascade(8, 8, (feat,), (keep, drop, keep))
        reads = []
        gather = cascade._gather_sums

        def spy(g, *args, **kw):
            reads.append(g)
            return gather(g, *args, **kw)

        monkeypatch.setattr(cascade, "_gather_sums", spy)
        out = detect_multiscale(c, random_image(rng, 30, 26), ScanParams(scale_factor=1.5))
        assert len(out) == 0
        plans = list(c._plans.values())
        assert len(plans) > 1 and reads
        assert all(any(g is p.gathers[1] for p in plans) for g in reads)
        assert not any(g is p.gathers[2] for p in plans for g in reads)


def tap_table(tap_lists):
    """``tap_lists`` as ``_compile_size`` lays out its taps: one zero-padded
    int64 table, list i's nonzero taps in row i, and each row's tap count;
    the rows of every list, to gather."""
    n = np.array([sum(k != 0 for *_, k in taps) for taps in tap_lists])
    table = np.zeros((len(tap_lists), max(n), 3), dtype=np.int64)
    for row, taps in zip(table, tap_lists):
        nonzero = [t for t in taps if t[2]]
        row[:len(nonzero)] = np.array(nonzero, dtype=np.int64).reshape(-1, 3)
    return table, n, list(range(len(tap_lists)))


class TestGather:
    """One ``take`` of every tap from ``ii``, then one product with the
    coefficient matrix, gives each tap list's strided-slice sums."""

    def check(self, rng, tap_lists, g):
        # origins up to (15, 18); taps reach 24 columns further, and as many
        # rows as the tallest list
        reach = max([dy for taps in tap_lists for dy, _, _ in taps], default=0)
        ii = integral(random_image(rng, 48, max(48, 16 + reach))).ii
        stride, ny, nx = 3, 6, 7
        alive = np.array(sorted(rng.sample(range(ny * nx), 20)))
        base = alive // nx * (stride * ii.shape[1]) + alive % nx * stride
        got = cascade._gather_sums(g, base, ii)
        assert got.shape == (len(tap_lists), len(alive)) and got.dtype == np.int64
        for i, taps in enumerate(tap_lists):
            acc = np.empty((ny, nx), dtype=np.int64)
            cascade._grid_sum(acc, ii, cascade._terms(taps), stride)
            assert np.array_equal(got[i], acc.reshape(-1)[alive])

    def test_unequal_lists_and_one_whose_corners_all_cancel(self, rng):
        plan = cascade._size_plan(cancelling_cascade(rng), 15, 23)
        tap_lists = sum(plan_taps(plan), [])
        assert ((0, 0, 0),) in tap_lists and len({len(t) for t in tap_lists}) > 1
        table, n, rows = tap_table(tap_lists)
        g = cascade._gather(table, n, rows)
        # one row per list, padded with zero taps to the longest
        assert g.coef.shape == g.dy.shape == g.dx.shape == \
            (len(tap_lists), max(map(len, tap_lists)))
        for row, taps in zip(np.stack(g, axis=-1).tolist(), tap_lists):
            assert row == [list(t) for t in taps] + [[0, 0, 0]] * (len(row) - len(taps))
        self.check(rng, tap_lists, g)
        # the cancelled list alone: its empty row reads as one zero tap
        zero = tap_lists.index(((0, 0, 0),))
        assert n[zero] == 0
        alone = cascade._gather(table, n, [zero])
        assert [a.tolist() for a in alone] == [[[0]]] * 3
        self.check(rng, [((0, 0, 0),)], alone)

    def test_no_lists_read_no_sums(self, rng):
        """The gather of a cut whose stage 0 has no other weak classifier:
        zero lists of one padding tap, which read an empty block."""
        plan = cascade._size_plan(heavy_cascade("below"), 16, 8)
        assert plan.keep_sign == 1 and [a.shape for a in plan.gathers[0]] == [(0, 1)] * 3
        assert [a.shape for a in cascade._gather(*tap_table([((0, 0, 1),)])[:2], [])] == \
            [(0, 1)] * 3
        self.check(rng, [], plan.gathers[0])

    @pytest.mark.parametrize("size", ["base+3", "off-aspect"])
    @pytest.mark.parametrize("build, cut", [
        (build_body_cascade, True), (build_face_cascade, True),
        (lambda: import_legacy_xml(fixture_text("face_24x24.xml")), False)],
        ids=["body", "face", "face_24x24"])
    def test_cut_gather_reads_stage_0_after_the_cut_feature(self, rng, build, cut, size):
        """The survivors' one gather of ``ii`` reads stage 0's weak
        classifiers after the cut one, and nothing else: no window row.
        The imported fixture has no cut, so its strided reads take the
        window in ii (s1) and in sq (s2) before every weak classifier of
        stage 0.  At the off-aspect size a base window scaled by
        ``w / base_w`` is shorter than the window."""
        c = build()
        w = c.base_w + 3
        h = c.base_h + 3 if size == "base+3" else 2 * c.base_h + 4
        plan = cascade._size_plan(c, w, h)
        window_taps = corner_taps([(Rect(0, 0, w, h), 1)])
        assert bool(plan.keep_sign) == cut
        if not cut:
            assert plan.gathers[0] is None
            assert [(plane, term_taps(terms)) for plane, terms in plan.strided] == \
                [(0, window_taps), (1, window_taps)] + [(0, t) for t in model_taps(c, w, h)[0]]
            return
        tap_lists = model_taps(c, w, h)[0][1:]
        first = plan.gathers[0]
        assert all(map(np.array_equal, first, cascade._gather(*tap_table(tap_lists))))
        assert len(first.dy) == len(c.stages[0].weak) - 1 and window_taps not in tap_lists
        assert first.dy.shape[1] == max(map(len, tap_lists))
        self.check(rng, tap_lists, first)

    def test_only_a_cut_plan_gathers_stage_0(self, rng):
        """Stage 0 is gathered only by a cut's survivors: a plan without a
        cut, such as every 320x240 size of the imported fixtures, has no
        stage 0 gather, and a cut's gather reads stage 0's weak classifiers
        after the cut one; every later stage has one."""
        plans = [(c, cascade._size_plan(c, w, w))
                 for kind in ("left-lower", "reachable") for w in (8, 10, 13)
                 for c in [sign_cut_cascade(rng, kind)]]
        for name in ("upperbody_20x20.xml", "face_24x24.xml"):
            c = import_legacy_xml(fixture_text(name))
            plans += [(c, cascade._size_plan(c, w, h))
                      for w, h in cascade._scan_sizes(c, 320, 240, ScanParams())]
        assert {p.keep_sign for _, p in plans} == {0, 1} and len(plans) > 20
        for c, plan in plans:
            assert (plan.gathers[0] is None) == (plan.keep_sign == 0)
            if plan.keep_sign:
                assert len(plan.gathers[0].dy) == len(c.stages[0].weak) - 1
            assert len(plan.gathers) == len(c.stages)
            assert all(g is not None for g in plan.gathers[1:])


def term_taps(terms):
    """The taps that ``terms`` read, merged per corner as ``corner_taps``
    merges them."""
    coef: dict[tuple[int, int], int] = {}
    for rows, cols in terms:
        for dy, a in rows:
            for dx, b in cols:
                coef[dy, dx] = coef.get((dy, dx), 0) + a * b
    return tuple((dy, dx, k) for (dy, dx), k in sorted(coef.items()) if k) or ((0, 0, 0),)


def two_pass(term) -> bool:
    rows, cols = term
    return len(rows) + len(cols) < len(rows) * len(cols)


def random_tap_lists(rng, n: int, reach: int = 24):
    """Tap lists whose corners lie within ``reach``: outer products of random
    rows and columns with |k| up to 2**16, sums of random weighted rects
    (cancelling corners merge), and random taps that rarely factor."""
    lists = []
    for i in range(n):
        if i % 3 == 0:
            rows = rng.sample(range(reach + 1), rng.randrange(1, 5))
            cols = rng.sample(range(reach + 1), rng.randrange(1, 5))
            a = [rng.choice([-3, -2, -1, 1, 2, 5, 2 ** 16]) for _ in rows]
            b = [rng.choice([-2, -1, 1, 3]) for _ in cols]
            coef = {(dy, dx): ka * kb for dy, ka in zip(rows, a) for dx, kb in zip(cols, b)}
            lists.append(tuple((dy, dx, k) for (dy, dx), k in sorted(coef.items())))
        elif i % 3 == 1:
            parts = []
            for _ in range(rng.randrange(2, 5)):
                x, y = rng.randrange(reach), rng.randrange(reach)
                parts.append((Rect(x, y, rng.randrange(1, reach - x + 1),
                                   rng.randrange(1, reach - y + 1)),
                              rng.choice([-2.0, -1.0, 1.0, 3.0, 2.0 ** 16])))
            lists.append(corner_taps(parts))
        else:
            corners = {(rng.randrange(reach + 1), rng.randrange(reach + 1))
                       for _ in range(rng.randrange(1, 9))}
            lists.append(tuple((dy, dx, rng.choice([-7, -1, 1, 2, 2 ** 16 + 1]))
                               for dy, dx in sorted(corners)))
    return lists


class TestTerms:
    """Tap lists read as strided slices are grouped into row x column terms."""

    def test_terms_sum_back_to_their_taps(self):
        """Every feature of the synthetic cascades and the imported fixtures
        at every size of the default 640x480 ladder; the face fixture has
        features that do not factor into one term at some sizes."""
        cascades = [build_body_cascade(), build_face_cascade()]
        cascades += [import_legacy_xml(fixture_text(name))
                     for name in ("upperbody_20x20.xml", "face_24x24.xml")]
        lists, kinds = [], set()
        for c in cascades:
            for w, h in cascade._scan_sizes(c, 640, 480, ScanParams()):
                lists += [corner_taps(scaled_parts(f, w / c.base_w, w, h))
                          for f in c.features]
                # a cut plan reads its cut feature, a plan without one the
                # window, in ii and in sq, then every feature of stage 0
                plan = cascade._size_plan(c, w, h)
                kinds.add(plan.keep_sign)
                taps0 = model_taps(c, w, h)[0]
                window = corner_taps([(plan.win, 1)])
                reads = taps0[:1] if plan.keep_sign else [window] * 2 + taps0
                planes = [0] if plan.keep_sign else [0, 1] + [0] * len(taps0)
                assert [plane for plane, _ in plan.strided] == planes
                assert [term_taps(terms) for _, terms in plan.strided] == reads
                if not plan.keep_sign:
                    assert plan.strided[0][1] == plan.strided[1][1] == (
                        (((0, 1), (h, -1)), ((0, 1), (w, -1))),)
        terms = [cascade._terms(taps) for taps in lists]
        assert [term_taps(t) for t in terms] == lists
        assert any(len(t) > 1 for t in terms) and any(map(two_pass, sum(terms, ())))
        assert kinds == {0, 1}

    def test_base_features_are_one_term(self):
        """1000 features drawn as ``enumerate_base_features(24, 24)`` builds
        them (a template, a cell size, a placement), at every size of a
        640x480 ladder: each scales to one term."""
        pick = random.Random(11)
        feats = []
        for _ in range(1000):
            kind, u, v, weights = pick.choice(haar._TEMPLATES)
            sw, sh = pick.randrange(1, 24 // u + 1), pick.randrange(1, 24 // v + 1)
            feats.append(haar._template_feature(kind, u, v, weights, pick.randrange(25 - u * sw),
                                                pick.randrange(25 - v * sh), sw, sh))
        sizes = cascade._scan_sizes(accept_all_cascade(), 640, 480, ScanParams())
        assert len(sizes) == 17
        for w, h in sizes:
            for f in feats:
                assert len(cascade._terms(corner_taps(scaled_parts(f, w / 24, w, h)))) == 1

    def test_zero_tap_is_one_term(self):
        assert cascade._terms(((0, 0, 0),)) == ((((0, 1),), ((0, 0),)),)

    @pytest.mark.parametrize("stride", range(1, 14))
    def test_grid_sum_matches_a_tap_by_tap_read(self, rng, stride):
        """Random tap lists at every origin of a grid, in int64 and, modulo
        2**32, over the int32 view of the table."""
        ip = integral(random_image(rng, 90, 100))
        ii32 = ip.ii.astype(np.uint32).view(np.int32)
        ny, nx = (100 - 24 - 1) // stride + 1, (90 - 24 - 1) // stride + 1
        lists = random_tap_lists(rng, 30)
        terms = [cascade._terms(taps) for taps in lists]
        assert any(len(t) > 1 for t in terms)
        assert any(map(two_pass, sum(terms, ())))
        assert any(not two_pass(term) for t in terms for term in t)
        for taps, t in zip(lists, terms):
            want = np.zeros((ny, nx), dtype=np.int64)
            for dy, dx, k in taps:
                want += k * ip.ii[dy:dy + ny * stride:stride, dx:dx + nx * stride:stride][:ny, :nx]
            got = cascade._grid_sum(np.empty((ny, nx), dtype=np.int64), ip.ii, t, stride)
            assert np.array_equal(got, want.reshape(-1))
            got = cascade._grid_sum(np.empty((ny, nx), dtype=np.int32), ii32, t, stride)
            assert np.array_equal(got, want.reshape(-1).astype(np.uint32).view(np.int32))


def brute_force_groups(boxes, eps):
    """O(n^2) connected components over the similarity graph."""
    n = len(boxes)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = boxes[i], boxes[j]
            delta = eps * (a.w + a.h + b.w + b.h) / 4.0
            adj[i][j] = (abs(a.x - b.x) <= delta and abs(a.y - b.y) <= delta
                         and abs(a.w - b.w) <= delta and abs(a.h - b.h) <= delta)
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            for j in range(n):
                if adj[k][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return sorted(comps)


class TestGrouping:
    def test_dissimilar_boxes_kept_verbatim(self):
        dets = [Detection(Rect(0, 0, 10, 10), 1.0),
                Detection(Rect(100, 100, 10, 10), 1.0),
                Detection(Rect(0, 100, 40, 40), 1.0)]
        out = group_detections(dets, min_neighbors=0, eps=0.2)
        assert [d.box for d in out] == [d.box for d in dets]
        assert all(d.neighbors == 1 for d in out)

    def test_identical_boxes_collapse(self):
        k = 5
        dets = [Detection(Rect(10, 20, 30, 40), 1.0) for _ in range(k)]
        out = group_detections(dets, min_neighbors=k - 1, eps=0.2)
        assert len(out) == 1
        assert out[0].box == Rect(10, 20, 30, 40)
        assert out[0].neighbors == k

    def test_small_clusters_dropped(self):
        dets = [Detection(Rect(0, 0, 10, 10), 1.0),
                Detection(Rect(1, 0, 10, 10), 1.0),
                Detection(Rect(200, 200, 10, 10), 1.0)]
        out = group_detections(dets, min_neighbors=1, eps=0.2)
        assert len(out) == 1
        assert out[0].neighbors == 2

    def test_partitions_match_brute_force_components(self, rng):
        """Full output against a reference built from the brute-force
        components: boxes, neighbors, score and order."""
        for trial in range(12):
            n = rng.randrange(0, 25) if trial % 2 else rng.randrange(0, 600)
            boxes = []
            for _ in range(n):
                cx, cy = rng.randrange(200), rng.randrange(200)
                w = rng.randrange(8, 40)
                boxes.append(Rect(cx, cy, w, w + rng.randrange(0, 6)))
            dets = [Detection(b, rng.uniform(-1.0, 1.0)) for b in boxes]
            min_neighbors = rng.randrange(0, 4)
            want = []
            for comp in brute_force_groups(boxes, 0.25):
                k = len(comp)
                if k < min_neighbors + 1:
                    continue
                x, y, r, b = (math.floor(sum(v) / k + 0.5) for v in zip(
                    *((boxes[i].x, boxes[i].y, boxes[i].right, boxes[i].bottom)
                      for i in comp)))
                want.append(Detection(Rect(x, y, r - x, b - y),
                                      max(dets[i].score for i in comp), neighbors=k))
            assert group_detections(dets, min_neighbors, eps=0.25) == want
            assert group_detections(windows_of(dets), min_neighbors, eps=0.25) == want

    @pytest.mark.parametrize("eps", [0.2, 0.3, 0.45])
    def test_windows_group_as_their_detections(self, rng, eps):
        """A scan's ``Windows`` and the list of its detections group alike."""
        p = ScanParams(scale_factor=1.3, step_divisor=2)
        grouped = 0
        for _ in range(6):
            c = random_cascade(rng, base_w=8, base_h=8, n_stages=1)
            out = detect_multiscale(c, random_image(rng, 48, 40), p)
            for min_neighbors in (0, 2):
                got = group_detections(out, min_neighbors, eps)
                assert got == group_detections(list(out), min_neighbors, eps)
                grouped += len(got)
        assert grouped

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.3, 0.7, 1 / 3, 0.999, 5e-324])
    @pytest.mark.parametrize("form", ["list", "windows"])
    def test_boxes_exactly_delta_apart_join(self, field, eps, form):
        """Two boxes that differ in one field join up to the largest
        difference the rule's float64 eps * (a.w + a.h + b.w + b.h) / 4
        allows, and not one pixel further, even where eps * S rounds to a
        float whose floor differs from the exact product's."""
        rounded = 0
        for side in range(3, 60):
            a = Rect(100, 100, side, side)

            def moved(d):
                return dataclasses.replace(a, **{field: getattr(a, field) + d})

            def rule(b):
                delta = eps * (a.w + a.h + b.w + b.h) / 4.0
                return all(abs(getattr(a, k) - getattr(b, k)) <= delta for k in "xywh")

            d = 0
            while rule(moved(d + 1)):
                d += 1
            for gap, clusters in ((d, 1), (d + 1, 2)):
                dets = [Detection(a, 1.0), Detection(moved(gap), 2.0)]
                out = group_detections(windows_of(dets) if form == "windows" else dets,
                                       min_neighbors=0, eps=eps)
                assert len(out) == clusters
            b = moved(d)
            exact = Fraction(eps) * (a.w + a.h + b.w + b.h) / 4
            rounded += math.floor(exact) != d
        if eps in (0.3, 0.7, 1 / 3):
            assert rounded

    @pytest.mark.parametrize("box", [Rect(8192, 0, 1, 1), Rect(0, 8000, 5, 193),
                                     Rect(10 ** 12, 0, 3, 3)])
    def test_boxes_beyond_max_dim_rejected(self, box):
        """Grouping reads coordinates in int32, exact within ``MAX_DIM``."""
        with pytest.raises(ValueError, match="^boxes must lie within 8192x8192"):
            group_detections([Detection(Rect(0, 0, 4, 4), 1.0), Detection(box, 1.0)])

    def test_chain_of_similar_boxes_is_one_cluster(self):
        # delta = 0.2 * 40 / 4 = 2: a~b and b~c, but a and c are 4 apart
        a, b, c = Rect(0, 0, 10, 10), Rect(2, 0, 10, 10), Rect(4, 0, 10, 10)
        far = Rect(100, 100, 10, 10)
        dets = [Detection(r, 1.0) for r in (a, far, c, b)]
        out = group_detections(dets, min_neighbors=0, eps=0.2)
        assert [(d.box, d.neighbors) for d in out] == [
            (Rect(2, 0, 10, 10), 3), (far, 1)]

    def test_grouped_box_inside_convex_bounds(self, rng):
        for _ in range(20):
            base = Rect(2 + rng.randrange(50), 2 + rng.randrange(50),
                        rng.randrange(10, 30), rng.randrange(10, 30))
            dets = [Detection(Rect(base.x + rng.randrange(-2, 3),
                                   base.y + rng.randrange(-2, 3),
                                   base.w + rng.randrange(0, 3),
                                   base.h + rng.randrange(0, 3)), 1.0)
                    for _ in range(6)]
            out = group_detections(dets, min_neighbors=0, eps=0.3)
            for g in out:
                members = [d.box for d in dets]
                assert g.box.x >= min(b.x for b in members)
                assert g.box.y >= min(b.y for b in members)
                assert g.box.right <= max(b.right for b in members)
                assert g.box.bottom <= max(b.bottom for b in members)

    def test_memory_grows_with_the_boxes_not_their_square(self):
        """11,738 windows of a dense 320x240 scan, one chained cluster: an n x n
        similarity matrix alone would take 131 MiB."""
        boxes = [Rect(x, y, w, w) for w in (24, 29, 35)
                 for y in range(0, 240 - w + 1, 4) for x in range(0, 320 - w + 1, 4)]
        dets = [Detection(b, float(i % 7)) for i, b in enumerate(boxes)]
        tracemalloc.start()
        try:
            out = group_detections(dets, min_neighbors=3, eps=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        x, y, r, b = (math.floor(sum(v) / len(boxes) + 0.5) for v in zip(
            *((b.x, b.y, b.right, b.bottom) for b in boxes)))
        assert out == [Detection(Rect(x, y, r - x, b - y), 6.0, neighbors=len(boxes))]

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            group_detections([], min_neighbors=0, eps=1.5)
        with pytest.raises(ValueError):
            group_detections([], min_neighbors=-1, eps=0.2)

    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_min_neighbors_reads_as_in_scan_params(self, value):
        """One rule serves both: the same message as ``ScanParams``."""
        message = f"^min_neighbors must be an int of at least 0, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            group_detections([], min_neighbors=value, eps=0.2)
        with pytest.raises(ValueError, match=message):
            ScanParams(min_neighbors=value)
