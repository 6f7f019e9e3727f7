import random

import pytest

from facefollow import cascade
from facefollow.cascade import Detection, ScanParams, detect_multiscale, group_detections
from facefollow.gated import GatedDetection, GateParams, detect_gated, select_target
from facefollow.imaging import Rect
from facefollow.synthetic import (build_body_cascade, build_face_cascade,
                                  render_scene, synthetic_gate_params)

from conftest import accept_all_cascade, reject_all_cascade


def one_person_scene(img_w=320, img_h=240, face=Rect(150, 100, 16, 16)):
    body = Rect(face.x + face.w // 2 - 25, face.y + face.h // 2 - 37, 50, 75)
    return render_scene(img_w, img_h, face, body), face, body


class TestDetectGated:
    def test_no_bodies_means_no_results(self):
        img, face, _ = one_person_scene()
        out = detect_gated(reject_all_cascade(24, 24), build_face_cascade(), img,
                           synthetic_gate_params())
        assert out == []

    def test_whole_image_gate_equals_standalone_face_scan(self):
        """A single body window covering the frame reduces the gate to a
        plain face scan over the image."""
        img, face, _ = one_person_scene(img_w=128, img_h=128,
                                        face=Rect(50, 40, 16, 16))
        face_c = build_face_cascade()
        face_scan = ScanParams(scale_factor=1.1, min_size=12, max_size=32,
                               step_divisor=24, min_neighbors=0, eps=0.3)
        gate = GateParams(
            body_scan=ScanParams(scale_factor=2.0, min_size=128, max_size=128,
                                 step_divisor=1, min_neighbors=0, eps=0.2),
            face_scan=face_scan,
            face_min_fraction=12 / 128)
        gated = detect_gated(accept_all_cascade(16, 16), face_c, img, gate)

        standalone = group_detections(detect_multiscale(face_c, img, face_scan),
                                      face_scan.min_neighbors, face_scan.eps)
        best = max(standalone, key=lambda d: (d.box.area, -d.box.y, -d.box.x))
        assert len(gated) == 1
        assert gated[0].body.box == Rect(0, 0, 128, 128)
        assert gated[0].face.box == best.box

    def test_face_pattern_outside_bodies_is_ignored(self):
        # face pattern far from the body box: gate must not report it
        img = render_scene(320, 240, Rect(20, 20, 16, 16), Rect(200, 100, 50, 75))
        out = detect_gated(build_body_cascade(), build_face_cascade(), img,
                           synthetic_gate_params())
        for d in out:
            assert d.body.box.contains(d.face.box)
            assert d.face.box.x > 100  # never the stray pattern at (20, 20)

    def test_containment_on_random_synthetic_frames(self, rng):
        body_c, face_c = build_body_cascade(), build_face_cascade()
        gate = synthetic_gate_params()
        found = 0
        for _ in range(25):
            fw = rng.randrange(12, 22)
            fx = rng.randrange(60, 240)
            fy = rng.randrange(70, 150)
            face = Rect(fx, fy, fw, fw)
            img, _, body = one_person_scene(face=face)
            for d in detect_gated(body_c, face_c, img, gate):
                assert d.body.box.contains(d.face.box)
                assert d.face.box.fits_in(img.width, img.height)
                found += 1
        assert found >= 20  # the scenes are detectable, not vacuously empty

    def test_removing_a_body_only_removes_faces(self):
        """Gate monotonicity: erase one person, the other's result is unchanged."""
        face_a, face_b = Rect(80, 100, 16, 16), Rect(220, 100, 16, 16)
        img_two = render_scene(320, 240, face_a, Rect(55, 70, 50, 75))
        # paint the second person into the same frame
        from facefollow.imaging import GrayImage
        canvas = img_two.data.copy()
        img_b = render_scene(320, 240, face_b, Rect(195, 70, 50, 75))
        mask = img_b.data != 200
        canvas[mask] = img_b.data[mask]
        both = GrayImage(canvas)
        only_a = render_scene(320, 240, face_a, Rect(55, 70, 50, 75))

        body_c, face_c = build_body_cascade(), build_face_cascade()
        gate = synthetic_gate_params()
        dets_both = detect_gated(body_c, face_c, both, gate)
        dets_a = detect_gated(body_c, face_c, only_a, gate)
        assert len(dets_both) == 2 and len(dets_a) == 1
        a_from_both = min(dets_both, key=lambda d: d.face.box.x)
        assert a_from_both.face.box == dets_a[0].face.box
        assert a_from_both.body.box == dets_a[0].body.box

    def test_one_face_per_body(self):
        img, _, _ = one_person_scene()
        out = detect_gated(build_body_cascade(), build_face_cascade(), img,
                           synthetic_gate_params())
        bodies = [d.body.box for d in out]
        assert len(bodies) == len(set((b.x, b.y, b.w, b.h) for b in bodies))

    def test_one_person_at_640_gives_two_nested_body_clusters(self):
        """Pins today's grouping: clusters nested inside another are not
        suppressed, so one person yields two gated detections."""
        img = render_scene(640, 480, Rect(300, 150, 32, 32),
                           Rect(268, 94, 96, 144))
        out = detect_gated(build_body_cascade(), build_face_cascade(), img)
        assert [(d.body.box, d.body.neighbors) for d in out] == [
            (Rect(253, 70, 128, 192), 6), (Rect(240, 51, 154, 231), 12)]
        assert out[1].body.box.contains(out[0].body.box)

    def test_rendered_320_scans_run_on_the_calling_thread(self, monkeypatch):
        """Every grid of the rendered loop's scans fits in one band."""
        def no_pool():
            raise AssertionError("a 320x240 scan asked for the band pool")
        monkeypatch.setattr(cascade, "_band_pool", no_pool)
        img, _, _ = one_person_scene()
        out = detect_gated(build_body_cascade(), build_face_cascade(), img,
                           synthetic_gate_params(320))
        assert out, "the face scans ran too"

    @pytest.mark.parametrize("face,body", [
        (Rect(300, 150, 32, 32), Rect(268, 94, 96, 144)),  # the nested clusters above
        (Rect(400, 300, 8, 8), Rect(392, 290, 24, 36)),  # found by stride-1 sizes
    ], ids=["nested", "far"])
    def test_split_scan_at_640_matches_unsplit(self, monkeypatch, band_pool, face, body):
        """The stride-1 sizes of a 640x480 scan split into bands for the
        pool; with bands as large as the frame nothing splits."""
        img = render_scene(640, 480, face, body)
        body_c, face_c = build_body_cascade(), build_face_cascade()

        def scan():
            return (detect_multiscale(body_c, img, ScanParams()),
                    detect_gated(body_c, face_c, img))

        pooled = scan()
        submitted = band_pool.submitted
        assert submitted > 0 and pooled[1]
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", 640 * 480)
        assert scan() == pooled
        assert band_pool.submitted == submitted


class TestSelectTarget:
    def d(self, x, y, w, h):
        body = Detection(Rect(max(0, x - 10), max(0, y - 10), w + 20, h + 20), 1, 1.0)
        return GatedDetection(body, Detection(Rect(x, y, w, h), 1, 1.0))

    def test_empty_is_none(self):
        assert select_target([]) is None

    def test_single_entry(self):
        g = self.d(50, 50, 10, 10)
        assert select_target([g]) is g

    def test_largest_face_wins_vs_linear_scan(self, rng):
        for _ in range(20):
            entries = [self.d(rng.randrange(20, 200), rng.randrange(20, 200),
                              rng.randrange(8, 40), rng.randrange(8, 40))
                       for _ in range(rng.randrange(1, 8))]
            got = select_target(entries)
            best = entries[0]
            for e in entries[1:]:
                a, b = e.face.box, best.face.box
                if (a.area, -a.y, -a.x) > (b.area, -b.y, -b.x):
                    best = e
            assert got is best

    def test_permutation_invariant(self, rng):
        entries = [self.d(10, 10, 12, 12), self.d(100, 40, 20, 20),
                   self.d(40, 100, 20, 20), self.d(200, 200, 8, 8)]
        ref = select_target(entries)
        for _ in range(10):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert select_target(shuffled) == ref

    def test_area_tie_breaks_topmost_leftmost(self):
        a = self.d(50, 30, 20, 20)
        b = self.d(30, 30, 20, 20)
        c = self.d(30, 50, 20, 20)
        assert select_target([a, b, c]) is b


def test_gate_params_validation():
    with pytest.raises(ValueError):
        GateParams(face_min_fraction=0.0)
