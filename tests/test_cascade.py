import json
import math
import os
import re
import signal

import numpy as np
import pytest

from facefollow import cascade
from facefollow.cascade import (Cascade, CascadeFormatError, Detection, ScanParams,
                                Stage, UnsupportedCascadeError, WeakClassifier,
                                detect_multiscale, eval_window, group_detections,
                                import_legacy_xml, parse_cascade, serialize_cascade)
from facefollow.haar import FeatureKind, scale_rect
from facefollow.imaging import GrayImage, Rect, integral, rect_sum

from conftest import (accept_all_cascade, fixture_text, random_cascade,
                      random_image, reject_all_cascade)

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
                s = scale_rect(part.rect, scale)
                raw += part.weight * rect_sum(
                    ip, Rect(window.x + s.x, window.y + s.y, s.w, s.h))
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

    def test_feature_index_out_of_range(self):
        doc = json.loads(MINIMAL_DOC)
        doc["stages"][0]["weak"][0]["feature"] = 1
        with pytest.raises(CascadeFormatError, match=r"stages\[0\].weak\[0\]"):
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

    def test_empty_stages_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["stages"] = []
        with pytest.raises(CascadeFormatError, match="stages"):
            parse_cascade(json.dumps(doc))

    def test_float_geometry_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][0]["x"] = 0.5
        with pytest.raises(CascadeFormatError, match="expected integer"):
            parse_cascade(json.dumps(doc))

    def test_part_outside_base_window(self):
        doc = json.loads(MINIMAL_DOC)
        doc["features"][0]["parts"][1]["w"] = 3
        with pytest.raises(CascadeFormatError, match="outside"):
            parse_cascade(json.dumps(doc))


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

    @pytest.mark.parametrize("width,why", [("abc", "expected number, got 'abc'"),
                                           ("3", "3 below minimum 4")])
    def test_bad_width_rejected_at_its_path(self, width, why):
        text = fixture_text("upperbody_20x20.xml").replace(
            "<width>20</width>", f"<width>{width}</width>")
        with pytest.raises(CascadeFormatError, match=re.escape(f"cascade.width: {why}")):
            import_legacy_xml(text)


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


class TestDetectMultiscale:
    def test_blank_image_reject_all_empty(self):
        img = GrayImage(np.zeros((64, 64), dtype=np.uint8))
        out = detect_multiscale(reject_all_cascade(), img, ScanParams())
        assert out == []

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
            got = [(d.box, d.stages_passed, d.score)
                   for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), len(c.stages), sc) for k, sc in want.items()]
            shapes |= grids
            if first == "reject-all":
                assert got == []
        assert any(stride > 1 and ((img_w - w) % stride or (img_h - h) % stride)
                   for w, h, stride, _, _ in shapes)
        assert any(1 in (nx, ny) and nx != ny for _, _, _, nx, ny in shapes)

    @pytest.mark.parametrize("first", ["random", "accept-all"])
    def test_split_bands_match_per_window_eval(self, rng, monkeypatch, band_pool,
                                               first):
        """Every size cut into row bands of at most two windows, walked by
        the pool: still eval_window's result for every window, in order."""
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", 2)
        p = ScanParams(scale_factor=1.3, step_divisor=3)
        for _ in range(4):
            c = first_stage(random_cascade(rng, base_w=8, base_h=5, n_stages=3), first)
            img = random_image(rng, 38, 47)
            got = [(d.box, d.stages_passed, d.score)
                   for d in detect_multiscale(c, img, p)]
            want, grids = per_window_eval(c, img, p)
            assert got == [(Rect(*k), len(c.stages), sc) for k, sc in want.items()]
        rows = {g: max(1, 2 // g[3]) for g in grids}  # g: (w, h, stride, nx, ny)
        assert all(g[4] > r for g, r in rows.items())  # every size splits
        assert any(g[3] > 2 for g in rows)  # one-row bands of more than 2 windows
        assert any(r > 1 and g[4] % r for g, r in rows.items())  # a short last band
        assert band_pool.submitted == 4 * sum(-(-g[4] // r) for g, r in rows.items())

    def test_band_pool_has_one_thread_per_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(cascade, "_pool", None)
        monkeypatch.setattr(cascade, "_usable_cpus", lambda: 3)
        pool = cascade._band_pool()
        try:
            assert pool._max_workers == 3
            assert cascade._band_pool() is pool
        finally:
            pool.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_scans_without_the_parents_threads(self, rng, monkeypatch):
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", 2)
        monkeypatch.setattr(cascade, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cascade, "_pool", None)
        c, img = random_cascade(rng), random_image(rng, 40, 40)
        want = detect_multiscale(c, img, ScanParams())
        pool = cascade._pool
        try:
            assert pool is not None
            pid = os.fork()
            if pid == 0:  # the child must exit here, whatever the scan does
                code = 1
                try:
                    signal.alarm(20)  # a child waiting on the parent's threads dies here
                    code = 0 if detect_multiscale(c, img, ScanParams()) == want else 2
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            pool.shutdown()

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
        dets = [Detection(Rect(0, 0, 10, 10), 1, 1.0),
                Detection(Rect(100, 100, 10, 10), 1, 1.0),
                Detection(Rect(0, 100, 40, 40), 1, 1.0)]
        out = group_detections(dets, min_neighbors=0, eps=0.2)
        assert [d.box for d in out] == [d.box for d in dets]
        assert all(d.neighbors == 1 for d in out)

    def test_identical_boxes_collapse(self):
        k = 5
        dets = [Detection(Rect(10, 20, 30, 40), 1, 1.0) for _ in range(k)]
        out = group_detections(dets, min_neighbors=k - 1, eps=0.2)
        assert len(out) == 1
        assert out[0].box == Rect(10, 20, 30, 40)
        assert out[0].neighbors == k

    def test_small_clusters_dropped(self):
        dets = [Detection(Rect(0, 0, 10, 10), 1, 1.0),
                Detection(Rect(1, 0, 10, 10), 1, 1.0),
                Detection(Rect(200, 200, 10, 10), 1, 1.0)]
        out = group_detections(dets, min_neighbors=1, eps=0.2)
        assert len(out) == 1
        assert out[0].neighbors == 2

    def test_partitions_match_brute_force_components(self, rng):
        """Full output against a reference built from the brute-force
        components: boxes, neighbors, score, stages_passed and order."""
        for trial in range(12):
            n = rng.randrange(0, 25) if trial % 2 else rng.randrange(0, 600)
            boxes = []
            for _ in range(n):
                cx, cy = rng.randrange(200), rng.randrange(200)
                w = rng.randrange(8, 40)
                boxes.append(Rect(cx, cy, w, w + rng.randrange(0, 6)))
            dets = [Detection(b, rng.randrange(1, 5), rng.uniform(-1.0, 1.0))
                    for b in boxes]
            min_neighbors = rng.randrange(0, 4)
            want = []
            for comp in brute_force_groups(boxes, 0.25):
                k = len(comp)
                if k < min_neighbors + 1:
                    continue
                x, y, r, b = (math.floor(sum(v) / k + 0.5) for v in zip(
                    *((boxes[i].x, boxes[i].y, boxes[i].right, boxes[i].bottom)
                      for i in comp)))
                want.append(Detection(
                    Rect(x, y, r - x, b - y),
                    max(dets[i].stages_passed for i in comp),
                    max(dets[i].score for i in comp), k))
            assert group_detections(dets, min_neighbors, eps=0.25) == want

    def test_chain_of_similar_boxes_is_one_cluster(self):
        # delta = 0.2 * 40 / 4 = 2: a~b and b~c, but a and c are 4 apart
        a, b, c = Rect(0, 0, 10, 10), Rect(2, 0, 10, 10), Rect(4, 0, 10, 10)
        far = Rect(100, 100, 10, 10)
        dets = [Detection(r, 1, 1.0) for r in (a, far, c, b)]
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
                                   base.h + rng.randrange(0, 3)), 1, 1.0)
                    for _ in range(6)]
            out = group_detections(dets, min_neighbors=0, eps=0.3)
            for g in out:
                members = [d.box for d in dets]
                assert g.box.x >= min(b.x for b in members)
                assert g.box.y >= min(b.y for b in members)
                assert g.box.right <= max(b.right for b in members)
                assert g.box.bottom <= max(b.bottom for b in members)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            group_detections([], min_neighbors=0, eps=1.5)
        with pytest.raises(ValueError):
            group_detections([], min_neighbors=-1, eps=0.2)
