import random
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from facefollow import cascade, gated
from facefollow.cascade import (Detection, ScanParams, Windows, detect_multiscale,
                                group_detections)
from facefollow.gated import GatedDetection, GateParams, detect_gated, select_target
from facefollow.imaging import Rect
from facefollow.mission import MissionConfig
from facefollow.sim import RunConfig
from facefollow.synthetic import (build_body_cascade, build_face_cascade,
                                  render_scene, synthetic_gate_params)
from facefollow.tracker import TrackerConfig

from conftest import NOT_FINITE, accept_all_cascade, reject_all_cascade


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
            face_scan=replace(face_scan, min_size=None),
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

    def test_synthetic_params_at_640_find_the_640_person(self):
        """The body window cap grows with the frame width, so the person of
        the nested-cluster scene is found: a face box holds the face centre."""
        face = Rect(300, 150, 32, 32)
        img = render_scene(640, 480, face, Rect(268, 94, 96, 144))
        cx, cy = face.x + face.w // 2, face.y + face.h // 2
        out = detect_gated(build_body_cascade(), build_face_cascade(), img,
                           synthetic_gate_params(640))
        assert any(d.face.box.x <= cx < d.face.box.right
                   and d.face.box.y <= cy < d.face.box.bottom for d in out)

    def test_face_cap_below_face_base_width_finds_nothing(self):
        """A face ladder that the cap empties skips the body quietly."""
        img, _, _ = one_person_scene()
        body_c, face_c = build_body_cascade(), build_face_cascade()
        gate = synthetic_gate_params()
        assert detect_gated(body_c, face_c, img, gate)  # the body is found
        gate = replace(gate, face_scan=replace(gate.face_scan, max_size=face_c.base_w - 1))
        assert detect_gated(body_c, face_c, img, gate) == []

    @pytest.mark.parametrize("face,body", [
        (Rect(300, 150, 32, 32), Rect(268, 94, 96, 144)),  # the nested clusters above
        (Rect(400, 300, 8, 8), Rect(392, 290, 24, 36)),  # found by stride-1 sizes
    ], ids=["nested", "far"])
    def test_split_scan_at_640_matches_unsplit(self, monkeypatch, band_walks, face, body):
        """The stride-1 sizes of a 640x480 scan split into bands; with bands
        as large as the frame nothing splits, and the walks are fewer."""
        img = render_scene(640, 480, face, body)
        body_c, face_c = build_body_cascade(), build_face_cascade()

        def scan():
            return (list(detect_multiscale(body_c, img, ScanParams())),
                    detect_gated(body_c, face_c, img))

        split = scan()
        walks, band_walks.count = band_walks.count, 0
        assert split[1]
        monkeypatch.setattr(cascade, "_BAND_WINDOWS", 640 * 480)
        assert scan() == split
        assert 0 < band_walks.count < walks

    def test_scans_and_grouping_go_through_the_gated_module(self, monkeypatch):
        """Each scan and its grouping are looked up in ``gated``, once per
        scan, and the grouping reads the scan's own ``Windows``: a tracer
        that wraps the two names there sees every scan and its raw count."""
        img, _, _ = one_person_scene()
        body_c, face_c = build_body_cascade(), build_face_cascade()
        calls = []

        def scan(c, image, p):
            out = detect_multiscale(c, image, p)
            calls.append(("scan", c, out))
            return out

        def group(dets, min_neighbors, eps):
            out = group_detections(dets, min_neighbors, eps)
            calls.append(("group", dets, out))
            return out

        monkeypatch.setattr(gated, "detect_multiscale", scan)
        monkeypatch.setattr(gated, "group_detections", group)
        assert detect_gated(body_c, face_c, img, synthetic_gate_params())
        scans, groups = calls[::2], calls[1::2]
        assert len(scans) == len(groups) == 1 + len(groups[0][2])
        assert [c for _, c, _ in scans] == [body_c] + [face_c] * (len(scans) - 1)
        assert all(kind == "group" and dets is out and isinstance(dets, Windows)
                   for (_, _, out), (kind, dets, _) in zip(scans, groups))


# (face boxes in scan order, index of the one both rankings keep)
RANK_TIES = [
    pytest.param([Rect(20, 12, 8, 8), Rect(20, 10, 8, 8), Rect(10, 10, 8, 8),
                  Rect(5, 14, 16, 4)], 2, id="equal-area-topmost-then-leftmost"),
    pytest.param([Rect(10, 10, 4, 16), Rect(10, 10, 16, 4), Rect(10, 10, 8, 8)], 0,
                 id="equal-area-and-origin-first-wins"),
]


@pytest.mark.parametrize("faces,want", RANK_TIES)
def test_face_ties_in_one_body(monkeypatch, faces, want):
    """The per-body face choice; the kept face keeps its score and neighbors."""
    body_c, face_c = accept_all_cascade(16, 16), accept_all_cascade(8, 8)
    body = Detection(Rect(30, 40, 60, 60), 0.5, neighbors=3)
    found = [Detection(r, float(i), neighbors=i + 1) for i, r in enumerate(faces)]
    monkeypatch.setattr("facefollow.gated.detect_grouped",
                        lambda c, img, p: [body] if c is body_c else found)
    img = render_scene(128, 128, Rect(50, 50, 16, 16), Rect(30, 40, 60, 60))
    out = detect_gated(body_c, face_c, img)
    r = faces[want]
    assert out == [GatedDetection(body, Detection(Rect(30 + r.x, 40 + r.y, r.w, r.h),
                                                  float(want), neighbors=want + 1))]


@pytest.mark.parametrize("faces,want", RANK_TIES)
def test_target_ties(faces, want):
    entries = [GatedDetection(Detection(Rect(0, 0, 40, 40), 1.0), Detection(r, 1.0))
               for r in faces]
    assert select_target(entries) is entries[want]


class TestSelectTarget:
    def d(self, x, y, w, h):
        body = Detection(Rect(max(0, x - 10), max(0, y - 10), w + 20, h + 20), 1.0)
        return GatedDetection(body, Detection(Rect(x, y, w, h), 1.0))

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


@pytest.mark.parametrize("value", NOT_FINITE + [0.0, -0.2, 1.5])
def test_gate_params_validation(value):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"face_min_fraction must lie in (0, 1], got {value!r}") + "$"):
        GateParams(face_min_fraction=value)


def test_face_min_fraction_takes_numpy_numbers():
    assert GateParams(face_min_fraction=np.float64(0.25)).face_min_fraction == 0.25
    assert GateParams(face_min_fraction=np.int64(1)).face_min_fraction == 1


def test_gate_params_reject_a_face_scan_min_size():
    """Each body sets the face scan's floor, so a configured one is an error."""
    with pytest.raises(ValueError, match=r"face_scan\.min_size must be None"):
        GateParams(face_scan=ScanParams(min_size=24))


def test_gate_params_are_frozen():
    """So the face_scan.min_size rule cannot be bypassed after construction."""
    gate = GateParams()
    with pytest.raises(FrozenInstanceError):
        gate.face_scan = ScanParams(min_size=24)
    assert gate.face_scan.min_size is None


@pytest.mark.parametrize("config", [ScanParams, GateParams, TrackerConfig, MissionConfig,
                                    RunConfig])
def test_configs_are_frozen(config):
    with pytest.raises(FrozenInstanceError):
        setattr(config(), fields(config)[0].name, None)
