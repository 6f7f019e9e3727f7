import math
import re

import numpy as np
import pytest

from facefollow.cascade import Detection
from facefollow.imaging import Rect
from facefollow.tracker import (HorizZone, TrackerConfig, VertZone, classify_zone,
                                compute_command, normalized_error)

CFG = TrackerConfig()
W, H = 320, 240


def det(cx, cy, w, h=None):
    h = h or w
    return Detection(Rect(int(cx - w / 2), int(cy - h / 2), w, h), 1.0)


def zone_oracle(cx, cy, cfg=CFG, img_w=W, img_h=H):
    """Direct inequality evaluation, independent of the band helper."""
    ex = (cx - img_w / 2) / (img_w / 2)
    ey = (cy - img_h / 2) / (img_h / 2)

    def axis(e, neg, pos, slow_neg, slow_pos, center):
        if abs(e) <= cfg.dead_zone:
            return center
        if abs(e) <= cfg.fast_threshold:
            return slow_neg if e < 0 else slow_pos
        return neg if e < 0 else pos

    return (axis(ex, HorizZone.FAST_LEFT, HorizZone.FAST_RIGHT,
                 HorizZone.SLOW_LEFT, HorizZone.SLOW_RIGHT, HorizZone.CENTER),
            axis(ey, VertZone.FAST_UP, VertZone.FAST_DOWN,
                 VertZone.SLOW_UP, VertZone.SLOW_DOWN, VertZone.CENTER))


class TestClassifyZone:
    def test_center(self):
        z = classify_zone(W / 2, H / 2, W, H, CFG)
        assert (z.horiz, z.vert) == (HorizZone.CENTER, VertZone.CENTER)
        assert z.centered

    def test_far_right_edge(self):
        z = classify_zone(W - 1, H / 2, W, H, CFG)
        assert (z.horiz, z.vert) == (HorizZone.FAST_RIGHT, VertZone.CENTER)

    def test_random_centroids_match_inequality_oracle(self, rng):
        for _ in range(300):
            cx = rng.uniform(0, W - 1)
            cy = rng.uniform(0, H - 1)
            z = classify_zone(cx, cy, W, H, CFG)
            assert (z.horiz, z.vert) == zone_oracle(cx, cy)

    def test_boundaries_take_lower_band(self):
        # image width 200 makes the band edges exact pixel positions
        cfg = TrackerConfig()
        assert classify_zone(100 + 15, 100, 200, 200, cfg).horiz is HorizZone.CENTER
        assert classify_zone(100 + 16, 100, 200, 200, cfg).horiz is HorizZone.SLOW_RIGHT
        assert classify_zone(100 + 50, 100, 200, 200, cfg).horiz is HorizZone.SLOW_RIGHT
        assert classify_zone(100 + 51, 100, 200, 200, cfg).horiz is HorizZone.FAST_RIGHT
        assert classify_zone(100, 100 - 15, 200, 200, cfg).vert is VertZone.CENTER
        assert classify_zone(100, 100 - 16, 200, 200, cfg).vert is VertZone.SLOW_UP


class TestComputeCommand:
    def test_no_detection_hovers(self):
        cmd = compute_command(None, W, H, CFG)
        assert (cmd.vx, cmd.vy, cmd.vz) == (0.0, 0.0, 0.0)

    def test_converged_state_is_zero(self):
        w = int(0.14 * W)  # ratio inside [width_far, width_near]
        cmd = compute_command(det(W / 2, H / 2, w), W, H, CFG)
        assert cmd.is_zero()

    def test_top_left_far_corner_small_box(self):
        # aggressive roll left, climb, and advance on the small box
        cmd = compute_command(det(8, 8, 10), W, H, CFG)
        assert (cmd.vx, cmd.vy, cmd.vz) == (0.4, -0.8, -0.5)

    def test_antisymmetry(self, rng):
        for _ in range(100):
            w = rng.randrange(4, 80)
            h = rng.randrange(4, 60)
            x = rng.randrange(0, W - w + 1)
            y = rng.randrange(0, H - h + 1)
            a = compute_command(Detection(Rect(x, y, w, h), 1.0), W, H, CFG)
            mirrored = Rect(W - x - w, H - y - h, w, h)
            b = compute_command(Detection(mirrored, 1.0), W, H, CFG)
            assert a.vy == pytest.approx(-b.vy)
            assert a.vz == pytest.approx(-b.vz)
            assert a.vx == b.vx

    def test_zero_iff_centered_and_width_in_band(self, rng):
        cfg = CFG
        for _ in range(300):
            w = rng.randrange(4, 100)
            h = rng.randrange(4, 100)
            x = rng.randrange(0, W - w + 1)
            y = rng.randrange(0, H - h + 1)
            d = Detection(Rect(x, y, w, h), 1.0)
            cmd = compute_command(d, W, H, cfg)
            ccx, ccy = d.box.x + d.box.w / 2, d.box.y + d.box.h / 2
            ex, ey = normalized_error(ccx, ccy, W, H)
            centered = abs(ex) <= cfg.dead_zone and abs(ey) <= cfg.dead_zone
            in_band = cfg.width_far <= d.box.w / W  # backward off: only far matters
            assert cmd.is_zero() == (centered and in_band)

    def test_backward_motion_when_allowed(self):
        cfg = TrackerConfig(allow_backward=True)
        d = det(W / 2, H / 2, int(0.25 * W))
        assert compute_command(d, W, H, cfg).vx == -cfg.fwd_speed
        assert compute_command(d, W, H, CFG).vx == 0.0  # default: never backward

    def test_mixed_speed_diagonal(self):
        # horizontal slow band, vertical fast band
        cx = W / 2 + 0.3 * (W / 2)
        cy = H / 2 + 0.7 * (H / 2)
        cmd = compute_command(det(cx, cy, int(0.14 * W)), W, H, CFG)
        assert cmd.vy == CFG.roll_s and cmd.vz == CFG.th_f

    def test_magnitude_bounds(self, rng):
        for _ in range(200):
            w = rng.randrange(4, 200)
            h = rng.randrange(4, 200)
            d = Detection(Rect(rng.randrange(0, W - w + 1),
                               rng.randrange(0, H - h + 1), w, h), 1.0)
            cmd = compute_command(d, W, H, CFG)
            assert abs(cmd.vx) <= CFG.fwd_speed
            assert abs(cmd.vy) <= CFG.roll_f
            assert abs(cmd.vz) <= CFG.th_f


# an error inside each signed band; the dead zone's is negative, where a
# sign-multiplied zero would be -0.0
BAND_ERROR = {-2: -0.75, -1: -0.3, 0: -0.1, 1: 0.3, 2: 0.75}


@pytest.mark.parametrize("hb", sorted(BAND_ERROR))
@pytest.mark.parametrize("vb", sorted(BAND_ERROR))
def test_signed_bands_give_exact_speeds_and_zones(hb, vb):
    cx, cy = W / 2 * (1 + BAND_ERROR[hb]), H / 2 * (1 + BAND_ERROR[vb])
    cmd = compute_command(det(cx, cy, 20), W, H, CFG)
    want_vy = {-2: -CFG.roll_f, -1: -CFG.roll_s, 0: 0.0, 1: CFG.roll_s, 2: CFG.roll_f}[hb]
    want_vz = {-2: -CFG.th_f, -1: -CFG.th_s, 0: 0.0, 1: CFG.th_s, 2: CFG.th_f}[vb]
    for got, want in ((cmd.vy, want_vy), (cmd.vz, want_vz)):
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    z = classify_zone(cx, cy, W, H, CFG)
    assert (z.horiz, z.vert) == zone_oracle(cx, cy)


class TestConfigValidation:
    def test_band_ordering(self):
        with pytest.raises(ValueError):
            TrackerConfig(dead_zone=0.6, fast_threshold=0.5)

    def test_speed_ordering(self):
        with pytest.raises(ValueError):
            TrackerConfig(roll_s=0.9, roll_f=0.8)

    def test_width_band(self):
        with pytest.raises(ValueError):
            TrackerConfig(width_far=0.2, width_near=0.1)

    @pytest.mark.parametrize("field, value", [
        ("loop_dt", math.nan), ("loop_dt", math.inf),
        ("fwd_speed", math.nan), ("fwd_speed", -1.0), ("fwd_speed", math.inf),
        ("roll_f", math.inf), ("th_f", math.inf),
    ])
    def test_speeds_and_loop_dt_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("fwd_speed", -1.0, "finite and non-negative"),
        ("fwd_speed", math.nan, "finite and non-negative"),
        ("fwd_speed", math.inf, "finite and non-negative"),
        ("loop_dt", 0.0, "finite and positive"),
        ("loop_dt", -0.25, "finite and positive"),
        ("loop_dt", math.nan, "finite and positive"),
        ("loop_dt", math.inf, "finite and positive"),
    ])
    def test_rule_message_names_the_field_and_rule(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("fwd_speed", "x", "finite and non-negative"),
        ("fwd_speed", True, "finite and non-negative"),
        ("loop_dt", None, "finite and positive"),
        ("loop_dt", "0.25", "finite and positive"),
        ("roll_f", [1.0], "finite"),
        ("dead_zone", "0.1", "finite"),
        ("dead_zone", 10**400, "finite"),
        ("fwd_speed", 10**400, "finite and non-negative"),
        ("loop_dt", -10**400, "finite and positive"),
        ("width_near", None, "finite"),
    ])
    def test_rules_take_real_numbers_only(self, field, value, rule):
        """A value that is not a number, or is a bool, fails its rule with
        the rule's message, not a TypeError from a comparison."""
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
            TrackerConfig(**{field: value})

    def test_numpy_numbers_pass_the_rules(self):
        cfg = TrackerConfig(fwd_speed=np.float64(0.5), loop_dt=np.float32(0.25), th_f=np.int64(2))
        assert (cfg.fwd_speed, cfg.loop_dt, cfg.th_f) == (0.5, 0.25, 2)

    def test_fwd_speed_zero_is_legal(self):
        TrackerConfig(fwd_speed=0.0)
