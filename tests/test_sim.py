import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from facefollow import sim
from facefollow.cascade import serialize_cascade
from facefollow.gated import BODY_COLOR, FACE_COLOR, detect_gated
from facefollow.imaging import Rect, draw_box, encode_ppm, to_rgb
from facefollow.mavlink import FRAME_LEN, FileSink, SinkError, decode_frame
from facefollow.mission import MissionPhase, Ned
from facefollow.sim import (CameraModel, RunConfig, SimState, TargetPath,
                            converged, load_run_config, project_target,
                            run_closed_loop, step_sim)
from facefollow.synthetic import (build_body_cascade, build_face_cascade, render_scene,
                                  synthetic_gate_params)
from facefollow.tracker import VelocityCommand

from conftest import NOT_FINITE

CAM = CameraModel()


NON_FINITE = [math.nan, math.inf, -math.inf]


def with_axis(axis: int, value: float) -> Ned:
    p = [8.0, 0.0, -1.5]
    p[axis] = value
    return Ned(*p)


def sim_state(target: Ned, drone: Ned = Ned(0, 0, -1.5), **kw) -> SimState:
    return SimState(0.0, drone, 0.0, target, **kw)


def offset_config(ex: float, ey: float, standoff: float = 8.0,
                  alt: float = 2.0, **kw) -> RunConfig:
    """Initial pose giving the requested normalized centroid offsets."""
    dy = ex * (CAM.img_w / 2) * standoff / CAM.focal
    dz = ey * (CAM.img_h / 2) * standoff / CAM.focal
    return RunConfig(drone_pos=Ned(0.0, 0.0, -alt),
                     target_pos=Ned(standoff, dy, -alt + dz), **kw)


class TestProjection:
    def test_dead_ahead_box_width(self):
        # focal * face_w / dx = 24 px at dx = 2 m
        st = sim_state(Ned(2.0, 0.0, -1.5))
        boxes = project_target(st, CAM)
        face = boxes["face"]
        assert face.w == 24
        assert face.x + face.w / 2 == CAM.img_w / 2
        assert face.y + face.h / 2 == CAM.img_h / 2

    def test_doubling_range_halves_width(self):
        near = project_target(sim_state(Ned(2.0, 0.0, -1.5)), CAM)
        far = project_target(sim_state(Ned(4.0, 0.0, -1.5)), CAM)
        assert near["face"].w == 2 * far["face"].w
        assert near["face"].x + near["face"].w / 2 == far["face"].x + far["face"].w / 2

    def test_random_poses_match_homogeneous_projection(self, rng):
        """Matrix-projection oracle: K @ [dy, dz, dx] in homogeneous form."""
        K = np.array([[CAM.focal, 0, CAM.img_w / 2],
                      [0, CAM.focal, CAM.img_h / 2],
                      [0, 0, 1.0]])
        for _ in range(100):
            dx = rng.uniform(2.0, 12.0)
            dy = rng.uniform(-0.25, 0.25) * dx
            dz = rng.uniform(-0.2, 0.2) * dx
            st = sim_state(Ned(dx, dy, -1.5 + dz))
            boxes = project_target(st, CAM)
            uvw = K @ np.array([dy, dz, dx])
            u, v = uvw[0] / uvw[2], uvw[1] / uvw[2]
            for key, size_m in (("face", st.face_w), ("body", st.body_w)):
                box = boxes[key]
                w_px = int(math.floor(CAM.focal * size_m / dx + 0.5))
                assert box.w == w_px
                assert abs((box.x + box.w / 2) - u) <= 0.51
                assert abs((box.y + box.h / 2) - v) <= 0.51

    def test_absent_behind_camera(self):
        assert project_target(sim_state(Ned(0.1, 0.0, -1.5)), CAM) is None
        assert project_target(sim_state(Ned(-3.0, 0.0, -1.5)), CAM) is None

    def test_absent_when_face_off_frame(self):
        st = sim_state(Ned(2.0, 5.0, -1.5))  # far right of the frustum
        assert project_target(st, CAM) is None

    def test_partial_visibility_clips(self):
        # face half off the right edge survives, clipped to the frame
        dy = (CAM.img_w / 2) * 2.0 / CAM.focal
        st = sim_state(Ned(2.0, dy, -1.5))
        boxes = project_target(st, CAM)
        assert boxes is not None
        assert boxes["face"].right <= CAM.img_w
        assert boxes["body"].right <= CAM.img_w

    @pytest.mark.parametrize("drone, target, focal, face_w", [
        (Ned(0, 0, -1.5), Ned(8.0, 0.0, -1.5), 1e308, 10.0),       # extent overflows
        (Ned(0, 0, -1.5), Ned(8.0, 100.0, -1.5), 1e308, 0.16),     # centre overflows
        (Ned(-1e308, 0, -1.5), Ned(1e308, 0, -1.5), 300.0, 0.16),  # range overflows: NaN
        (Ned(0, 0, -1.5), Ned(1.0, -1.5, -1.5), 1e308, 0.8),       # a corner overflows
    ], ids=["extent", "centre", "nan", "corner"])
    def test_absent_when_the_projection_is_not_finite(self, drone, target, focal, face_w):
        st = sim_state(target, drone, face_w=face_w)
        assert project_target(st, CameraModel(focal=focal)) is None

    def test_left_overhang_floors_before_clipping(self):
        # the body's left edge projects to x = -3.8, which rounds half up
        # to -4, so the 75 px body keeps 71 px after clipping at 0
        boxes = project_target(sim_state(Ned(2.0, -0.842, -1.5)), CAM)
        assert boxes == {"face": Rect(22, 108, 24, 24), "body": Rect(0, 64, 71, 113)}


class TestStepSim:
    def test_zero_command_static_target(self):
        st = sim_state(Ned(5.0, 1.0, -2.0))
        nxt = step_sim(st, VelocityCommand(0, 0, 0), 0.25)
        assert nxt.t == 0.25
        assert nxt.drone_pos == st.drone_pos
        assert nxt.target_pos == st.target_pos

    def test_forward_euler_step(self):
        st = sim_state(Ned(5.0, 0.0, -2.0))
        nxt = step_sim(st, VelocityCommand(1.0, 0.0, 0.0), 0.25)
        assert nxt.drone_pos.n == pytest.approx(0.25)

    def test_yaw_rotates_body_command(self):
        st = SimState(0.0, Ned(0, 0, -2.0), math.pi / 2, Ned(5, 0, -2))
        nxt = step_sim(st, VelocityCommand(1.0, 0.0, 0.0), 1.0)
        assert nxt.drone_pos.n == pytest.approx(0.0, abs=1e-12)
        assert nxt.drone_pos.e == pytest.approx(1.0)

    def test_waypoint_target_matches_closed_form(self):
        path = TargetPath((Ned(10.0, 5.0, -1.5),), speed=0.5)
        st = sim_state(Ned(5.0, 0.0, -1.5), path=path)
        direction = np.array([5.0, 5.0, 0.0])
        direction /= np.linalg.norm(direction)
        for k in range(1, 11):
            st = step_sim(st, VelocityCommand(0, 0, 0), 0.25)
            expect = np.array([5.0, 0.0, -1.5]) + direction * 0.5 * 0.25 * k
            assert st.target_pos.n == pytest.approx(expect[0])
            assert st.target_pos.e == pytest.approx(expect[1])

    def test_target_stops_at_last_waypoint(self):
        path = TargetPath((Ned(5.2, 0.0, -1.5),), speed=1.0)
        st = sim_state(Ned(5.0, 0.0, -1.5), path=path)
        for _ in range(10):
            st = step_sim(st, VelocityCommand(0, 0, 0), 0.25)
        assert st.target_pos == Ned(5.2, 0.0, -1.5)

    def test_negative_target_speed_rejected(self):
        with pytest.raises(ValueError, match=re.escape("speed must be finite and non-negative, got -0.5")):
            TargetPath((Ned(10.0, 5.0, -1.5),), speed=-0.5)

    def test_infinite_target_speed_rejected(self):
        with pytest.raises(ValueError, match=re.escape("speed must be finite and non-negative, got inf")):
            TargetPath((Ned(10.0, 5.0, -1.5),), speed=math.inf)

    def test_zero_target_speed_stands_still(self):
        st = sim_state(Ned(5.0, 0.0, -1.5), path=TargetPath((Ned(10.0, 5.0, -1.5),), 0.0))
        for _ in range(4):
            st = step_sim(st, VelocityCommand(0, 0, 0), 0.25)
        assert st.target_pos == Ned(5.0, 0.0, -1.5)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            step_sim(sim_state(Ned(5, 0, -1.5)), VelocityCommand(0, 0, 0), 0.0)

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be finite and positive, got nan"):
            step_sim(sim_state(Ned(5, 0, -1.5)), VelocityCommand(0, 0, 0), math.nan)

    def test_infinite_dt_rejected(self):
        with pytest.raises(ValueError, match="^dt must be finite and positive, got inf$"):
            step_sim(sim_state(Ned(5, 0, -1.5)), VelocityCommand(0, 0, 0), math.inf)


class TestConfigValues:
    @pytest.mark.parametrize("field, value", [
        ("focal", math.nan), ("focal", math.inf), ("focal", 0.0),
        ("img_w", 0), ("img_w", 8193), ("img_h", 0), ("img_h", 10000),
        ("img_w", 320.5), ("img_w", True), ("img_h", 240.0),
    ])
    def test_camera_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            CameraModel(**{field: value})

    @pytest.mark.parametrize("cls, field, value, rule", [
        (CameraModel, "focal", -1.0, "finite and positive"),
        (CameraModel, "focal", math.nan, "finite and positive"),
        (TargetPath, "speed", -0.5, "finite and non-negative"),
        (TargetPath, "speed", math.nan, "finite and non-negative"),
        (TargetPath, "speed", math.inf, "finite and non-negative"),
    ])
    def test_rule_message_names_the_field_and_rule(self, cls, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
            cls(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("ticks", 2.5, "ticks must be an int of at least 1, got 2.5"),
        ("ticks", math.nan, "ticks must be an int of at least 1, got nan"),
        ("ticks", True, "ticks must be an int of at least 1, got True"),
        ("ticks", 0, "ticks must be an int of at least 1, got 0"),
        ("user_stop_tick", 1.5, "user_stop_tick must be None or an int of at least 0, got 1.5"),
        ("user_stop_tick", True,
         "user_stop_tick must be None or an int of at least 0, got True"),
    ])
    def test_tick_counts_must_be_ints(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(**{field: value})

    def test_camera_bounds_are_the_image_bounds(self):
        assert CameraModel(img_w=8192, img_h=1).img_w == 8192
        assert CameraModel(img_w=1, img_h=8192).img_h == 8192

    def test_user_stop_tick_below_0_rejected(self):
        assert RunConfig(user_stop_tick=0).user_stop_tick == 0
        with pytest.raises(ValueError, match="user_stop_tick"):
            RunConfig(user_stop_tick=-1)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("field", ["drone_yaw", "takeoff_alt"])
    def test_yaw_and_takeoff_altitude_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE + [0.0, -0.16])
    @pytest.mark.parametrize("field", ["face_w", "body_w", "body_h"])
    def test_target_sizes_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE + [-1.0])
    @pytest.mark.parametrize("field", ["battery_start", "battery_drain"])
    def test_battery_values_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and non-negative, got"):
            RunConfig(**{field: value})
        assert getattr(RunConfig(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("field", ["drone_pos", "target_pos", "home"])
    def test_positions_must_be_finite(self, field, axis, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got Ned"):
            RunConfig(**{field: with_axis(axis, value)})

    def test_positions_take_numpy_numbers(self):
        cfg = RunConfig(drone_pos=Ned(np.float64(1.0), np.int64(0), np.float32(-1.5)))
        assert cfg.drone_pos.finite

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("axis", range(3))
    def test_waypoints_must_be_finite(self, axis, value):
        with pytest.raises(ValueError, match=re.escape("waypoints[1] must be finite, got Ned")):
            TargetPath(waypoints=(Ned(8.0, 0.0, -1.5), with_axis(axis, value)))

    @pytest.mark.parametrize("target, battery, message", [
        ({"face_w": -0.16}, {}, "face_w must be finite and positive, got -0.16"),
        ({"body_h": 0}, {}, "body_h must be finite and positive, got 0.0"),
        ({}, {"start": -0.5}, "battery_start must be finite and non-negative, got -0.5"),
        ({}, {"drain_rate": -1.0}, "battery_drain must be finite and non-negative, got -1.0"),
    ])
    def test_json_size_and_battery_errors_name_the_document(self, target, battery, message):
        """The JSON reader rejects non-finite numbers itself; what is left of
        these rules reaches RunConfig, whose errors are reported at $."""
        doc = {"target": target, "battery": battery}
        with pytest.raises(ValueError, match=re.escape(f"$: {message}")):
            load_run_config(json.dumps(doc))


class TestClosedLoopOracle:
    def test_converged_start_stays_put(self):
        # width ratio inside the band and centered: a fixed point
        cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=40)
        trace = run_closed_loop(cfg)
        assert all(r.cmd.vx == 0 and r.cmd.vy == 0 and r.cmd.vz == 0
                   for r in trace.rows)
        assert trace.rows[-1].drone == trace.rows[0].drone

    def test_initial_left_offset_commands_fast_roll(self):
        cfg = offset_config(-0.8, 0.0, ticks=3)
        trace = run_closed_loop(cfg)
        assert trace.rows[0].cmd.vy == -cfg.tracker.roll_f

    def test_trace_is_deterministic(self, tmp_path):
        cfg = offset_config(0.8, -0.8, ticks=50)
        a = run_closed_loop(cfg).to_csv()
        b = run_closed_loop(cfg).to_csv()
        assert a == b

    def test_one_frame_per_guided_tick(self, tmp_path):
        path = tmp_path / "frames.bin"
        cfg = offset_config(0.4, 0.0, ticks=30)
        with FileSink(str(path)) as sink:
            trace = run_closed_loop(cfg, sink=sink)
        guided = sum(r.mission in (MissionPhase.TRACKING, MissionPhase.HOVER)
                     for r in trace.rows)
        assert path.stat().st_size == guided * FRAME_LEN == 30 * FRAME_LEN

    def test_sink_dest_opens_its_own_sink(self, tmp_path):
        """A run's ``sink_dest`` writes the bytes of the same sink passed in,
        with the same trace; without one the frames are discarded, and an
        empty one fails to open before the first tick."""
        cfg = offset_config(0.4, 0.0, ticks=30)
        given, own = tmp_path / "given.bin", tmp_path / "own.bin"
        with FileSink(str(given)) as sink:
            want = run_closed_loop(cfg, sink=sink).to_csv()
        assert run_closed_loop(replace(cfg, sink_dest=str(own))).to_csv() == want
        assert own.read_bytes() == given.read_bytes() and len(want) > 0
        assert run_closed_loop(cfg).to_csv() == want
        with pytest.raises(SinkError, match="^cannot open sink file "):
            run_closed_loop(replace(cfg, sink_dest=""))

    def test_failsafe_frames_stop(self, tmp_path):
        path = tmp_path / "frames.bin"
        cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=200,
                            battery_start=21.05, battery_drain=0.01)
        with FileSink(str(path)) as sink:
            trace = run_closed_loop(cfg, sink=sink)
        guided = sum(r.mission in (MissionPhase.TRACKING, MissionPhase.HOVER)
                     for r in trace.rows)
        assert guided < len(trace.rows)
        assert path.stat().st_size == guided * FRAME_LEN

    def test_battery_ramp_walks_failsafe_and_peaks_at_gain(self):
        # converge from 8 m (the drone advances ~3.3 m), then the pack sags
        cfg = RunConfig(ticks=400, home=Ned(0.0, 0.0, 0.0), takeoff_alt=0.0,
                        drone_pos=Ned(0.0, 0.0, -2.0),
                        target_pos=Ned(8.0, 0.0, -2.0),
                        battery_start=21.2, battery_drain=0.01)
        trace = run_closed_loop(cfg)
        order = []
        for r in trace.rows:
            if not order or order[-1] != r.mission:
                order.append(r.mission)
        assert order == [MissionPhase.TRACKING, MissionPhase.FAILSAFE_ASCEND,
                         MissionPhase.FAILSAFE_RETURN, MissionPhase.FAILSAFE_LAND,
                         MissionPhase.ENDED]
        peak = max(-r.drone.d for r in trace.rows)
        assert abs(peak - (cfg.takeoff_alt + 5.0)) <= cfg.mission.pos_eps
        last = trace.rows[-1].drone
        assert math.hypot(last.n - cfg.home.n, last.e - cfg.home.e) <= cfg.mission.pos_eps

    def test_user_stop_routes_through_failsafe(self):
        cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=300, user_stop_tick=5)
        trace = run_closed_loop(cfg)
        assert trace.rows[5].mission is MissionPhase.FAILSAFE_ASCEND
        assert trace.rows[-1].mission is MissionPhase.ENDED

    def test_hover_when_target_lost(self):
        # target walks out of the frustum: loop hovers rather than wandering
        path = TargetPath((Ned(4.0, 40.0, -6.0),), speed=5.0)
        cfg = replace(offset_config(0.0, 0.0, standoff=4.0, ticks=40), path=path)
        trace = run_closed_loop(cfg)
        lost = [r for r in trace.rows if not r.detected]
        assert lost
        assert all(r.mission is MissionPhase.HOVER for r in lost)
        assert all(r.cmd.vx == r.cmd.vy == r.cmd.vz == 0.0 for r in lost)

    @pytest.mark.parametrize("doc", [
        {"camera": {"focal": 1e308}, "target": {"face_w": 10}},
        {"camera": {"focal": 1e308}, "target": {"pos": [8.0, 100.0, -1.5]}},
        {"drone": {"pos": [-1e308, 0, -1.5]}, "target": {"pos": [1e308, 0, -1.5]}},
    ], ids=["extent", "centre", "nan"])
    def test_a_projection_beyond_float_range_hovers(self, doc):
        """Finite configs whose projection overflows or is NaN run to the
        end with the target out of view, hovering."""
        trace = run_closed_loop(load_run_config(json.dumps({"ticks": 3, **doc})))
        assert len(trace.rows) == 3
        assert not any(r.detected for r in trace.rows)
        assert all(r.mission is MissionPhase.HOVER for r in trace.rows)

    def test_boot_clock_wraps_at_2_to_the_32_ms(self, tmp_path):
        """Frames carry MAVLink's uint32 boot clock, which wraps after about
        49.7 days, so a long run goes on past it."""
        path = tmp_path / "frames.bin"
        cfg = load_run_config(json.dumps({"ticks": 5, "tracker": {"loop_dt": 2000000}}))
        with FileSink(str(path)) as sink:
            trace = run_closed_loop(cfg, sink=sink)
        data = path.read_bytes()
        assert len(trace.rows) == 5 and len(data) == 5 * FRAME_LEN
        fourth = decode_frame(data[3 * FRAME_LEN:4 * FRAME_LEN])
        assert fourth.time_boot_ms == 6_000_000_000 % 2**32 == 1_705_032_704

    @pytest.mark.parametrize("ticks, loop_dt", [(4, 1e308), (1, 2 ** 53 / 1000),
                                                (2, 2 ** 53 / 2000)])
    def test_a_run_past_the_clock_horizon_is_refused(self, ticks, loop_dt):
        """Four ticks of 1e308 s overflowed ``int(t * 1000)`` on the
        second tick; runs that reach 2**53 ms exactly are refused too."""
        doc = json.dumps({"ticks": ticks, "tracker": {"loop_dt": loop_dt}})
        with pytest.raises(ValueError, match="^" + re.escape(
                f"$: tracker.loop_dt {loop_dt!r} over {ticks} ticks runs past the clock "
                f"horizon of 2**53 ms") + "$"):
            load_run_config(doc)

    def test_a_run_just_inside_the_clock_horizon_runs(self, tmp_path):
        loop_dt = math.nextafter(2 ** 53 / 2000, 0)
        cfg = load_run_config(json.dumps({"ticks": 2, "tracker": {"loop_dt": loop_dt}}))
        path = tmp_path / "frames.bin"
        with FileSink(str(path)) as sink:
            trace = run_closed_loop(cfg, sink=sink)
        data = path.read_bytes()
        assert len(trace.rows) == 2 and len(data) == 2 * FRAME_LEN
        assert decode_frame(data[FRAME_LEN:]).time_boot_ms == int(loop_dt * 1000) % 2 ** 32

    def test_error_descent_without_advance(self, rng):
        """Static target, width already in band: max |e| never grows and the
        centroid reaches and keeps the dead zone."""
        for ex, ey in ((0.7, 0.0), (0.0, -0.7), (-0.6, 0.6), (0.45, 0.8)):
            cfg = offset_config(ex, ey, standoff=4.0, ticks=80)
            trace = run_closed_loop(cfg)
            errs = []
            for r in trace.rows:
                cx, cy = r.centroid
                errs.append(max(abs((cx - CAM.img_w / 2) / (CAM.img_w / 2)),
                                abs((cy - CAM.img_h / 2) / (CAM.img_h / 2))))
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
            entered = next(i for i, e in enumerate(errs) if e <= 0.15)
            assert all(e <= 0.15 for e in errs[entered:])


class TestClosedLoopRendered:
    def test_rendered_requires_cascades(self):
        with pytest.raises(ValueError, match="cascades"):
            RunConfig(mode="rendered")

    def test_rendered_gating_containment_end_to_end(self):
        cfg = offset_config(0.5, -0.4, standoff=4.0, ticks=12, mode="rendered",
                            body_cascade=build_body_cascade(),
                            face_cascade=build_face_cascade())
        trace = run_closed_loop(cfg)
        assert sum(r.detected for r in trace.rows) >= 10

    def test_frame_dumps(self, tmp_path):
        cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=3, mode="rendered",
                            body_cascade=build_body_cascade(),
                            face_cascade=build_face_cascade())
        run_closed_loop(cfg, frames_dir=str(tmp_path / "frames"))
        dumped = sorted((tmp_path / "frames").glob("frame_*.ppm"))
        assert len(dumped) == 3
        # the first tick's frame: the person where it starts, each body box
        # and then its face box drawn on it
        boxes = project_target(sim_state(cfg.target_pos, cfg.drone_pos), CAM)
        img = render_scene(CAM.img_w, CAM.img_h, boxes["face"], boxes["body"])
        dets = detect_gated(cfg.body_cascade, cfg.face_cascade, img,
                            synthetic_gate_params(CAM.img_w))
        rgb = to_rgb(img)
        for d in dets:
            draw_box(rgb, d.body.box, BODY_COLOR)
            draw_box(rgb, d.face.box, FACE_COLOR)
        assert dets and dumped[0].read_bytes() == encode_ppm(rgb)


class TestOneProjectionPerTick:
    """perfbench's tick clock times loop ticks from the one
    ``project_target`` call that starts every tick."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        project, detect = sim.project_target, sim.detect_gated

        def logged(name, fn):
            def call(*args):
                log.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(sim, "project_target", logged("project", project))
        monkeypatch.setattr(sim, "detect_gated", logged("detect", detect))
        return log

    @pytest.mark.parametrize("yaw", [0.0, math.pi], ids=["in-view", "out-of-view"])
    @pytest.mark.parametrize("mode", ["oracle", "rendered"])
    def test_each_tick_projects_once_before_detecting(self, calls, mode, yaw):
        kw = ({"body_cascade": build_body_cascade(), "face_cascade": build_face_cascade()}
              if mode == "rendered" else {})
        cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=3, mode=mode,
                            drone_yaw=yaw, **kw)
        trace = run_closed_loop(cfg)
        assert [r.detected for r in trace.rows] == [yaw == 0.0] * 3
        tick = ["project", "detect"] if mode == "rendered" else ["project"]
        assert calls == tick * 3


class TestRunConfigJson:
    def test_full_document(self, tmp_path):
        body = tmp_path / "body.json"
        face = tmp_path / "face.json"
        body.write_text(serialize_cascade(build_body_cascade()))
        face.write_text(serialize_cascade(build_face_cascade()))
        doc = {
            "mode": "rendered",
            "ticks": 7,
            "camera": {"img_w": 320, "img_h": 240, "focal": 300.0},
            "drone": {"pos": [0.0, 0.0, -6.0], "yaw": 0.0},
            "target": {"pos": [4.0, 0.0, -6.0], "face_w": 0.16, "body_w": 0.5,
                       "body_h": 0.75, "waypoints": [[4.0, 1.0, -6.0]],
                       "speed": 0.2},
            "tracker": {"roll_s": 0.25},
            "mission": {"batt_min": 20.0},
            "battery": {"start": 25.0, "drain_rate": 0.001},
            "home": [0.0, 0.0, 0.0],
            "takeoff_alt": 0.0,
            "user_stop_tick": None,
            "cascades": {"body": str(body), "face": str(face)},
            "sink": None,
        }

        def loader(path):
            from facefollow.cascade import parse_cascade
            with open(path) as fh:
                return parse_cascade(fh.read())

        cfg = load_run_config(json.dumps(doc), cascade_loader=loader)
        assert cfg.mode == "rendered" and cfg.ticks == 7
        assert cfg.tracker.roll_s == 0.25
        assert cfg.mission.batt_min == 20.0
        assert cfg.path.waypoints == (Ned(4.0, 1.0, -6.0),)
        trace = run_closed_loop(cfg)
        assert len(trace.rows) == 7

    def test_empty_sections_load_the_defaults(self):
        assert load_run_config(json.dumps({"drone": {}, "target": {}, "battery": {}})) \
            == RunConfig()

    def test_negative_target_speed_names_the_target(self):
        doc = {"target": {"waypoints": [[8, 0, -2]], "speed": -1.0}}
        with pytest.raises(ValueError, match=re.escape(
                "$.target: speed must be finite and non-negative, got -1.0")):
            load_run_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            load_run_config(json.dumps({"tick": 5}))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="tracker"):
            load_run_config(json.dumps({"tracker": {"roll_x": 1}}))

    @pytest.mark.parametrize("text,path", [
        ('{"tracker": {"dead_zone": "x"}}', "$.tracker.dead_zone"),
        ('{"camera": 5}', "$.camera"),
        ('{"battery": null}', "$.battery"),
        ('{"ticks": 2.7}', "$.ticks"),
        ('{"ticks": "5"}', "$.ticks"),
        ('{"sink": 5}', "$.sink"),
        ('{"battery": {"start": NaN}}', "$.battery.start"),
    ])
    def test_bad_value_names_key_path(self, text, path):
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected")):
            load_run_config(text)


def test_converged_helper():
    cfg = offset_config(0.0, 0.0, standoff=4.0, ticks=20)
    assert converged(run_closed_loop(cfg), cfg)
    far = offset_config(0.0, 0.0, standoff=8.0, ticks=12)  # still approaching
    assert not converged(run_closed_loop(far), far)
