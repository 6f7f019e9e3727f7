"""Desk-scale closed-loop simulator: kinematic drone, pinhole camera, person.

The loop per tick: sense (oracle projection or rendered detection), pick a
target, compute the tracker command, advance the mission automaton, emit
the MAVLink frame, integrate the kinematics, log.  First-order kinematics
realize commands instantly; the logic under test is the decision pipeline,
not aerodynamics.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass, field, replace

from ._rules import (_array, _bool, _build, _check, _int, _load_json, _obj, _real,
                     _round_half_up, _str, _within)
from .cascade import Cascade, Detection
from .gated import (BODY_COLOR, FACE_COLOR, GatedDetection, GateParams, detect_gated,
                    select_target)
from .imaging import MAX_DIM, Rect, annotated_ppm
from .mavlink import CommandSink, build_velocity_message, open_sink
from .mission import (MissionConfig, MissionPhase, MissionState, Ned,
                      VehicleStatus, step_mission)
from .synthetic import render_scene, synthetic_gate_params
from .tracker import (TrackerConfig, VelocityCommand, Zone, centroid_of,
                      classify_zone, compute_command)


@dataclass(frozen=True)
class CameraModel:
    """Square-pixel pinhole camera, boresight along body +x, principal point centered."""

    img_w: int = 320
    img_h: int = 240
    focal: float = 300.0

    def __post_init__(self):
        for k in ("img_w", "img_h"):
            _within(k, getattr(self, k), 1, MAX_DIM)
        _check("finite and positive", self, "focal")


def _check_finite(name: str, p: Ned) -> None:
    if not p.finite:
        raise ValueError(f"{name} must be finite, got {p}")


@dataclass(frozen=True)
class TargetPath:
    """Waypoint schedule; the target walks each leg at constant speed (m/s;
    0 holds it in place)."""

    waypoints: tuple[Ned, ...] = ()
    speed: float = 0.3

    def __post_init__(self):
        _check("finite and non-negative", self, "speed")
        for i, wp in enumerate(self.waypoints):
            _check_finite(f"waypoints[{i}]", wp)


@dataclass(frozen=True)
class SimState:
    t: float
    drone_pos: Ned
    drone_yaw: float
    target_pos: Ned           # face center
    path: TargetPath = TargetPath()
    leg: int = 0              # index of the next waypoint
    face_w: float = 0.16
    body_w: float = 0.5
    body_h: float = 0.75


MIN_PROJECTION_RANGE = 0.2  # meters ahead of the camera


def _clip_rect(x: int, y: int, w: int, h: int, img_w: int, img_h: int) -> Rect | None:
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, img_w), min(y + h, img_h)
    if x0 >= x1 or y0 >= y1:
        return None
    return Rect(x0, y0, x1 - x0, y1 - y0)


def _body_frame_offset(s: SimState) -> tuple[float, float, float]:
    dn = s.target_pos.n - s.drone_pos.n
    de = s.target_pos.e - s.drone_pos.e
    dd = s.target_pos.d - s.drone_pos.d
    c, sn = math.cos(s.drone_yaw), math.sin(s.drone_yaw)
    return (c * dn + sn * de, -sn * dn + c * de, dd)


def project_target(s: SimState, cam: CameraModel) -> dict[str, Rect] | None:
    """Pinhole projection of the person; face and body boxes are concentric.

    Returns image-clipped rects, or None when the target is behind or too
    close to the camera, the face box falls entirely off frame, or the
    projection is not finite (NaN, or beyond float range: the magnitudes of
    the centre and the extents are summed, so a box corner is finite too).
    """
    dx, dy, dz = _body_frame_offset(s)
    if not dx > MIN_PROJECTION_RANGE:  # NaN too
        return None
    u = cam.img_w / 2 + cam.focal * dy / dx
    v = cam.img_h / 2 + cam.focal * dz / dx
    face_px = cam.focal * s.face_w / dx
    body_w_px = cam.focal * s.body_w / dx
    body_h_px = cam.focal * s.body_h / dx
    if not math.isfinite(abs(u) + abs(v) + face_px + body_w_px + body_h_px):
        return None

    def centered(width_px: float, height_px: float) -> tuple[int, int, int, int]:
        w = max(1, _round_half_up(width_px))
        h = max(1, _round_half_up(height_px))
        return (_round_half_up(u - w / 2), _round_half_up(v - h / 2), w, h)

    fx, fy, fw, fh = centered(face_px, face_px)
    face = _clip_rect(fx, fy, fw, fh, cam.img_w, cam.img_h)
    if face is None:
        return None
    bx, by, bw, bh = centered(body_w_px, body_h_px)
    body = _clip_rect(bx, by, bw, bh, cam.img_w, cam.img_h)
    if body is None:
        return None
    return {"face": face, "body": body}


def step_sim(s: SimState, cmd: VelocityCommand, dt: float) -> SimState:
    """First-order Euler step of drone and target; pure function."""
    _check("finite and positive", {"dt": dt})
    c, sn = math.cos(s.drone_yaw), math.sin(s.drone_yaw)
    drone = Ned(s.drone_pos.n + (c * cmd.vx - sn * cmd.vy) * dt,
                s.drone_pos.e + (sn * cmd.vx + c * cmd.vy) * dt,
                s.drone_pos.d + cmd.vz * dt)

    target, leg = s.target_pos, s.leg
    budget = s.path.speed * dt
    while leg < len(s.path.waypoints) and budget > 0:
        wp = s.path.waypoints[leg]
        gap = math.sqrt((wp.n - target.n) ** 2 + (wp.e - target.e) ** 2
                        + (wp.d - target.d) ** 2)
        if gap <= budget:
            target, leg = wp, leg + 1
            budget -= gap
        else:
            f = budget / gap
            target = Ned(target.n + (wp.n - target.n) * f,
                         target.e + (wp.e - target.e) * f,
                         target.d + (wp.d - target.d) * f)
            budget = 0.0
    return replace(s, t=s.t + dt, drone_pos=drone, target_pos=target, leg=leg)


@dataclass(frozen=True)
class TraceRow:
    tick: int
    t: float
    drone: Ned
    target: Ned
    detected: bool
    centroid: tuple[float, float] | None
    bbox_w_px: int | None
    zone: Zone | None
    cmd: VelocityCommand
    mission: MissionPhase


TRACE_HEADER = ("tick,t,drone_n,drone_e,drone_d,target_n,target_e,target_d,"
                "detected,centroid_x,centroid_y,bbox_w_px,zone_h,zone_v,"
                "vx,vy,vz,mission")


@dataclass
class Trace:
    rows: list[TraceRow] = field(default_factory=list)

    def to_csv(self) -> str:
        out = [TRACE_HEADER]
        for r in self.rows:
            cx = f"{r.centroid[0]:.2f}" if r.centroid else ""
            cy = f"{r.centroid[1]:.2f}" if r.centroid else ""
            bw = str(r.bbox_w_px) if r.bbox_w_px is not None else ""
            zh = r.zone.horiz.value if r.zone else ""
            zv = r.zone.vert.value if r.zone else ""
            out.append(
                f"{r.tick},{r.t:.3f},"
                f"{r.drone.n:.6f},{r.drone.e:.6f},{r.drone.d:.6f},"
                f"{r.target.n:.6f},{r.target.e:.6f},{r.target.d:.6f},"
                f"{int(r.detected)},{cx},{cy},{bw},{zh},{zv},"
                f"{r.cmd.vx:.6f},{r.cmd.vy:.6f},{r.cmd.vz:.6f},"
                f"{r.mission.value}")
        return "\n".join(out) + "\n"


# a run's clock is float64 seconds and its frames carry int(t * 1000) ms:
# within 2**53 ms (about 285,000 years) float64 still counts every
# millisecond, and beyond float range the clock overflows
MAX_RUN_MS = 2 ** 53


@dataclass(frozen=True)
class RunConfig:
    mode: str = "oracle"                   # "oracle" | "rendered"
    ticks: int = 120
    camera: CameraModel = field(default_factory=CameraModel)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    drone_pos: Ned = Ned(0.0, 0.0, -1.5)
    drone_yaw: float = 0.0
    target_pos: Ned = Ned(8.0, 0.0, -1.5)
    path: TargetPath = field(default_factory=TargetPath)
    face_w: float = 0.16
    body_w: float = 0.5
    body_h: float = 0.75
    home: Ned = Ned(0.0, 0.0, 0.0)
    takeoff_alt: float = 0.0
    battery_start: float = 25.2
    battery_drain: float = 0.0             # volts per second
    user_stop_tick: int | None = None
    body_cascade: Cascade | None = None    # rendered mode
    face_cascade: Cascade | None = None
    gate: GateParams | None = None
    sink_dest: str | None = None

    def __post_init__(self):
        if self.mode not in ("oracle", "rendered"):
            raise ValueError(f"mode must be oracle or rendered, got {self.mode!r}")
        if self.mode == "rendered" and (self.body_cascade is None
                                        or self.face_cascade is None):
            raise ValueError("rendered mode requires body and face cascades")
        _check("an int of at least 1", self, "ticks")
        if not self.ticks * self.tracker.loop_dt * 1000 < MAX_RUN_MS:
            raise ValueError(f"tracker.loop_dt {self.tracker.loop_dt!r} over {self.ticks} ticks "
                             f"runs past the clock horizon of 2**53 ms")
        _check("None or an int of at least 0", self, "user_stop_tick")
        _check("finite", self, "drone_yaw", "takeoff_alt")
        _check("finite and positive", self, "face_w", "body_w", "body_h")
        _check("finite and non-negative", self, "battery_start", "battery_drain")
        for k in ("drone_pos", "target_pos", "home"):
            _check_finite(k, getattr(self, k))


def run_closed_loop(cfg: RunConfig, sink: CommandSink | None = None,
                    frames_dir: str | None = None) -> Trace:
    """Run the sense-decide-act-integrate loop; returns the per-tick trace.

    Each tick starts with one ``project_target`` of the person: the oracle
    takes its boxes as the detection, and rendered mode draws the person
    there before it runs ``detect_gated`` on the frame.
    One MAVLink frame goes to the sink per tick while the mission is in a
    vision-guided phase; failsafe legs hand control to the mission
    directives.  The loop stops at the tick budget or when the mission ends.
    """
    cam = cfg.camera
    dt = cfg.tracker.loop_dt
    gate = cfg.gate or synthetic_gate_params(cam.img_w)
    own_sink = sink is None
    sink = sink or open_sink(cfg.sink_dest)

    state = SimState(0.0, cfg.drone_pos, cfg.drone_yaw, cfg.target_pos,
                     cfg.path, 0, cfg.face_w, cfg.body_w, cfg.body_h)
    mission = MissionState(MissionPhase.TRACKING, cfg.home, cfg.takeoff_alt)
    trace = Trace()

    try:
        for tick in range(cfg.ticks):
            boxes = project_target(state, cam)
            face, body = (boxes["face"], boxes["body"]) if boxes else (None, None)
            if cfg.mode == "oracle":
                dets = [GatedDetection(Detection(body, 1.0, 1),
                                       Detection(face, 1.0, 1))] if boxes else []
                frame_img = None
            else:
                frame_img = render_scene(cam.img_w, cam.img_h, face, body)
                dets = detect_gated(cfg.body_cascade, cfg.face_cascade,
                                    frame_img, gate)
            chosen = select_target(dets)
            tracked = chosen.body if chosen else None

            cmd = compute_command(tracked, cam.img_w, cam.img_h, cfg.tracker)
            status = VehicleStatus(
                battery_voltage=max(0.0, cfg.battery_start
                                    - cfg.battery_drain * state.t),
                user_stop=(cfg.user_stop_tick is not None
                           and tick >= cfg.user_stop_tick),
                position=state.drone_pos,
                target_visible=chosen is not None)
            mission, directive = step_mission(mission, status, cfg.mission, dt)
            applied = directive if directive is not None else cmd

            if mission.phase in (MissionPhase.TRACKING, MissionPhase.HOVER):
                # MAVLink's uint32 boot clock wraps after about 49.7 days
                sink.send(build_velocity_message(
                    applied.vx, applied.vy, applied.vz,
                    time_boot_ms=int(state.t * 1000) % 2**32))

            if frames_dir is not None and frame_img is not None:
                os.makedirs(frames_dir, exist_ok=True)
                boxes = [b for d in dets
                         for b in ((d.body.box, BODY_COLOR), (d.face.box, FACE_COLOR))]
                with open(os.path.join(frames_dir, f"frame_{tick:05d}.ppm"), "wb") as fh:
                    fh.write(annotated_ppm(frame_img, boxes))

            centroid = None
            zone = None
            if tracked is not None:
                centroid = centroid_of(tracked.box)
                zone = classify_zone(centroid[0], centroid[1],
                                     cam.img_w, cam.img_h, cfg.tracker)
            trace.rows.append(TraceRow(
                tick=tick, t=state.t, drone=state.drone_pos,
                target=state.target_pos, detected=chosen is not None,
                centroid=centroid,
                bbox_w_px=tracked.box.w if tracked else None,
                zone=zone, cmd=applied, mission=mission.phase))

            if mission.phase is MissionPhase.ENDED:
                break
            state = step_sim(state, applied, dt)
    finally:
        if own_sink:
            sink.close()
    return trace


def converged(trace: Trace, cfg: RunConfig, final_ticks: int = 10) -> bool:
    """True when the last ``final_ticks`` rows are centered with the width in band."""
    if len(trace.rows) < final_ticks:
        return False
    tr = cfg.tracker
    for r in trace.rows[-final_ticks:]:
        if not r.detected or r.zone is None or not r.zone.centered:
            return False
        ratio = (r.bbox_w_px or 0) / cfg.camera.img_w
        if not tr.width_far <= ratio <= tr.width_near:
            return False
    return True


# --- JSON config ------------------------------------------------------------

_RUN_KEYS = ("mode", "ticks", "camera", "drone", "target", "tracker", "mission",
             "battery", "user_stop_tick", "home", "takeoff_alt", "cascades", "sink")
# by annotated type; the only int fields are image sizes
_FIELD_CHECKS = {float: _real, bool: _bool, int: lambda v, path: _int(v, path, 1)}


def _ned(v, path: str) -> Ned:
    return Ned(*(_real(x, f"{path}[{i}]")
                 for i, x in enumerate(_array(v, path, 3, 3))))


def _fields(cls, v, path: str):
    """``cls`` from the fields ``v`` names, each checked by its annotated type;
    a range error from the constructor is reported at ``path``."""
    types = typing.get_type_hints(cls)
    obj = _obj(v, path, optional=types)
    return _build(path, cls, **{k: _FIELD_CHECKS[types[k]](x, f"{path}.{k}")
                                for k, x in obj.items()})


def load_run_config(text: str, cascade_loader=None) -> RunConfig:
    """Build a RunConfig from its JSON document (strict: see the README).

    ``cascade_loader`` maps a path string to a Cascade; the CLI wires it to
    the canonical-format parser.
    """
    doc = _obj(_load_json(text), "$", optional=_RUN_KEYS)
    kw: dict = {}
    if "mode" in doc:
        kw["mode"] = _str(doc["mode"], "$.mode")
    if "ticks" in doc:
        kw["ticks"] = _int(doc["ticks"], "$.ticks", 1)
    if "camera" in doc:
        kw["camera"] = _fields(CameraModel, doc["camera"], "$.camera")
    if "drone" in doc:
        d = _obj(doc["drone"], "$.drone", optional=("pos", "yaw"))
        if "pos" in d:
            kw["drone_pos"] = _ned(d["pos"], "$.drone.pos")
        if "yaw" in d:
            kw["drone_yaw"] = _real(d["yaw"], "$.drone.yaw")
    if "target" in doc:
        t = _obj(doc["target"], "$.target", optional=(
            "pos", "face_w", "body_w", "body_h", "waypoints", "speed"))
        if "pos" in t:
            kw["target_pos"] = _ned(t["pos"], "$.target.pos")
        for k in ("face_w", "body_w", "body_h"):
            if k in t:
                kw[k] = _real(t[k], f"$.target.{k}")
        walk = {}
        if "waypoints" in t:
            wps = _array(t["waypoints"], "$.target.waypoints")
            walk["waypoints"] = tuple(_ned(w, f"$.target.waypoints[{i}]")
                                      for i, w in enumerate(wps))
        if "speed" in t:
            walk["speed"] = _real(t["speed"], "$.target.speed")
        kw["path"] = _build("$.target", TargetPath, **walk)
    if "tracker" in doc:
        kw["tracker"] = _fields(TrackerConfig, doc["tracker"], "$.tracker")
    if "mission" in doc:
        kw["mission"] = _fields(MissionConfig, doc["mission"], "$.mission")
    if "battery" in doc:
        b = _obj(doc["battery"], "$.battery", optional=("start", "drain_rate"))
        for k, name in (("start", "battery_start"), ("drain_rate", "battery_drain")):
            if k in b:
                kw[name] = _real(b[k], f"$.battery.{k}")
    if doc.get("user_stop_tick") is not None:
        kw["user_stop_tick"] = _int(doc["user_stop_tick"], "$.user_stop_tick", 0)
    if "home" in doc:
        kw["home"] = _ned(doc["home"], "$.home")
    if "takeoff_alt" in doc:
        kw["takeoff_alt"] = _real(doc["takeoff_alt"], "$.takeoff_alt")
    if "cascades" in doc:
        c = _obj(doc["cascades"], "$.cascades", required=("body", "face"))
        if cascade_loader is None:
            raise ValueError("config names cascades but no loader was provided")
        for k in ("body", "face"):
            path = f"$.cascades.{k}"
            kw[f"{k}_cascade"] = _build(path, cascade_loader, _str(c[k], path))
    if doc.get("sink") is not None:
        kw["sink_dest"] = _str(doc["sink"], "$.sink")
    return _build("$", RunConfig, **kw)
