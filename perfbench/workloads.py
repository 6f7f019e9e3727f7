"""The benchmark's three workloads: inputs made from the seed, the timed
loop over facefollow's public API, and the output checks.

Every workload runs as a single-process closed loop: a tick starts only
after the previous one has finished.  Checks run between units of work
(an episode or a frame) with the clock stopped, so they never count in
the timings.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import struct
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from facefollow import cascade, gated, imaging, mavlink, sim, synthetic
from facefollow.imaging import GrayImage, Rect
from facefollow.mission import FAILSAFE_PHASES, MissionPhase, Ned

# originals, for checks that must not run through the benchmark's own hooks
_project_target = sim.project_target
_detect_gated = sim.detect_gated

clock = time.perf_counter

BODY_COLOR = (40, 220, 40)
FACE_COLOR = (220, 40, 40)
GUIDED = (MissionPhase.TRACKING, MissionPhase.HOVER)
SAMPLE_EVERY = 16       # rendered ticks between frames re-checked with eval_window
DIGEST_EPISODES = 24    # oracle episodes in the digests and in target_accuracy


@dataclass
class Record:
    """What one pass over a workload produced."""

    plan: list[int] = field(default_factory=list)   # input index per unit, in run order
    tick_s: array = field(default_factory=lambda: array("d"))  # wall time of every tick
    wall_s: float = 0.0       # timed wall time: ticks plus per-unit work such as to_csv
    ticks: int = 0
    failed: int = 0           # ticks that raised or failed a check
    # per distinct input: (ticks whose selected target matched the truth, ticks)
    agree: dict[int, tuple[int, int]] = field(default_factory=dict)
    failsafe_ticks: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, dict[int, str]] = field(default_factory=dict)

    def fail(self, ticks: int, msg: str):
        self.failed += ticks
        if len(self.problems) < 20:
            self.problems.append(msg)

    def digest(self, kind: str, idx: int, text: bytes):
        """Keep one digest per distinct input; a second run of it must match."""
        h = hashlib.sha256(text).hexdigest()
        seen = self.digests.setdefault(kind, {})
        if idx in seen and seen[idx] != h:
            return False
        seen[idx] = h
        return True

    def absorb(self, other: "Record"):
        """Take the checks, agreement and digests of an untimed extra run."""
        self.failed += other.failed
        self.problems += other.problems[:max(0, 20 - len(self.problems))]
        for idx, v in other.agree.items():
            self.agree.setdefault(idx, v)
        for kind, seen in other.digests.items():
            mine = self.digests.setdefault(kind, {})
            for idx, h in seen.items():
                if mine.setdefault(idx, h) != h:
                    self.fail(1, f"input {idx}: {kind} differs between runs")

    def accuracy(self, inputs) -> float:
        """Share of agreeing ticks over ``inputs``; an input that raised
        counts no ticks (it already failed the run)."""
        got = [self.agree.get(i, (0, 0)) for i in inputs]
        return sum(h for h, _ in got) / max(1, sum(n for _, n in got))

    def combined(self, kind: str, limit: int | None = None) -> tuple[str, int]:
        seen = self.digests.get(kind, {})
        keys = sorted(seen)[:limit]
        h = hashlib.sha256("".join(seen[k] for k in keys).encode()).hexdigest()
        return h[:16], len(keys)


def _f32(v: float) -> float:
    return struct.unpack("<f", struct.pack("<f", v))[0]


def agrees(selected: tuple[float, float] | None, truth: Rect | None) -> bool:
    """Selected target center within max(8 px, half the true box width) of
    the true box center on each axis; with nothing in view, selecting
    nothing agrees."""
    if truth is None:
        return selected is None
    if selected is None:
        return False
    tol = max(8.0, truth.w / 2)
    return (abs(selected[0] - (truth.x + truth.w / 2)) <= tol
            and abs(selected[1] - (truth.y + truth.h / 2)) <= tol)


def _center(r: Rect) -> tuple[float, float]:
    return (r.x + r.w / 2, r.y + r.h / 2)


def containment_problems(dets, width: int, height: int) -> list[str]:
    return [f"face {d.face.box} outside body {d.body.box} or frame"
            for d in dets
            if not (d.body.box.contains(d.face.box)
                    and d.face.box.fits_in(width, height))]


def recheck_detection(body_c, face_c, img: GrayImage, gate, dets) -> list[str]:
    """Detect again, capturing every scan, and re-evaluate each raw window
    with the scalar ``eval_window``: it must accept with the same score.
    The re-run must also reproduce the timed run's detections."""
    scans = []
    scan = gated.detect_multiscale

    def capture(c, image, p):
        out = scan(c, image, p)
        scans.append((c, image, out))
        return out

    gated.detect_multiscale = capture
    try:
        again = gated.detect_gated(body_c, face_c, img, gate)
    finally:
        gated.detect_multiscale = scan
    problems = [] if again == dets else ["detections differ on a re-run"]
    for c, image, out in scans:
        ip = imaging.integral(image)
        for d in out:
            ev = cascade.eval_window(c, ip, d.box)
            if not ev.accepted or ev.score != d.score:
                problems.append(f"{c.name}: raw window {d.box} not re-accepted "
                                f"by eval_window ({ev})")
    return problems


def cover_accuracy_set(wl, st, rec: Record):
    """Run, untimed and checked, every input of the workload's accuracy set
    that the timed run did not reach, so target_accuracy is deterministic
    for given code and seed."""
    for idx in wl.accuracy_set(st):
        if idx not in rec.agree:
            rec.absorb(wl.run(st, plan=[idx]))


def _parsed_cascades():
    texts = [cascade.serialize_cascade(b()) for b in
             (synthetic.build_body_cascade, synthetic.build_face_cascade)]
    return [cascade.parse_cascade(t) for t in texts]


# --- closed-loop workloads ----------------------------------------------------

@dataclass
class LoopState:
    tmp: str
    config_for: object                 # episode index -> RunConfig
    pool: int | None                   # cycle through this many episodes, or None
    face_c: object = None


class _TickClock:
    """Marks the start of every loop tick: ``run_closed_loop`` senses first,
    and both modes go through ``sim.project_target`` exactly once a tick.
    In rendered mode it also keeps each tick's detections and, on sampled
    ticks, the frame, for the checks."""

    def __init__(self):
        self.marks: list[float] = []
        self.dets: list = []
        self.frames: dict[int, GrayImage] = {}
        self.sample = False

    def project(self, *args):
        self.marks.append(clock())
        return _project_target(*args)

    def detect(self, body_c, face_c, img, p=None):
        out = _detect_gated(body_c, face_c, img, p)
        self.dets.append(out)
        if self.sample and (len(self.marks) - 1) % SAMPLE_EVERY == 0:
            self.frames[len(self.marks) - 1] = img
        return out

    def __enter__(self):
        sim.project_target, sim.detect_gated = self.project, self.detect
        return self

    def __exit__(self, *exc):
        sim.project_target, sim.detect_gated = _project_target, _detect_gated


class LoopWorkload:
    mode = "oracle"

    def next_index(self, st: LoopState, k: int) -> int:
        return k % st.pool if st.pool else k

    def run(self, st: LoopState, seconds: float | None = None,
            plan: list[int] | None = None, observe: bool = True) -> Record:
        rec = Record()
        tc = _TickClock()
        k = 0
        while (k < len(plan)) if plan is not None else (rec.wall_s < seconds):
            idx = plan[k] if plan is not None else self.next_index(st, k)
            cfg = st.config_for(idx)
            path = os.path.join(st.tmp, f"ep{k}.mav")
            tc.marks.clear()
            tc.dets.clear()
            tc.frames.clear()
            tc.sample = observe and idx not in rec.digests.get("trace_csv", {})
            t0 = clock()
            try:
                sink = mavlink.FileSink(path)
                try:
                    if observe:
                        with tc:
                            trace = sim.run_closed_loop(cfg, sink=sink)
                    else:
                        trace = sim.run_closed_loop(cfg, sink=sink)
                    t1 = clock()
                finally:
                    sink.close()
                csv = trace.to_csv()
                rec.wall_s += clock() - t0
            except Exception as e:  # keep measuring; the failure is reported
                rec.wall_s += clock() - t0
                n = max(1, len(tc.marks))
                rec.ticks += n
                rec.fail(n, f"episode {idx} raised {type(e).__name__}: {e}")
                k += 1
                continue
            rec.plan.append(idx)
            rec.ticks += len(trace.rows)
            if observe:
                bounds = tc.marks + [t1]
                rec.tick_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
                self.check_episode(st, rec, idx, cfg, trace, csv, path, tc)
            else:
                rec.digest("trace_csv", idx, csv.encode())
            os.remove(path)
            k += 1
        return rec

    def check_episode(self, st, rec: Record, idx: int, cfg: sim.RunConfig,
                      trace: sim.Trace, csv: str, path: str, tc: _TickClock):
        rows = trace.rows
        n = len(rows)
        with open(path, "rb") as fh:
            data = fh.read()
        if not rec.digest("trace_csv", idx, csv.encode()):
            rec.fail(n, f"episode {idx}: trace CSV differs from an earlier run")
        if not rec.digest("sink", idx, data):
            rec.fail(n, f"episode {idx}: sink bytes differ from an earlier run")

        # every frame decodes, its sequence advances mod 256, and it carries
        # the trace row's command at float32
        guided = [r for r in rows if r.mission in GUIDED]
        if len(data) != mavlink.FRAME_LEN * len(guided):
            rec.fail(n, f"episode {idx}: {len(data)} sink bytes for "
                        f"{len(guided)} guided ticks")
        else:
            for j, r in enumerate(guided):
                frame = data[j * mavlink.FRAME_LEN:(j + 1) * mavlink.FRAME_LEN]
                try:
                    m = mavlink.decode_frame(frame)
                except mavlink.FrameError as e:
                    rec.fail(1, f"episode {idx} frame {j}: {e}")
                    continue
                want = (_f32(r.cmd.vx), _f32(r.cmd.vy), _f32(r.cmd.vz))
                if (frame[2] != j & 0xFF or (m.vx, m.vy, m.vz) != want
                        or m.time_boot_ms != int(r.t * 1000)):
                    rec.fail(1, f"episode {idx} frame {j}: seq {frame[2]}, "
                                f"velocity {(m.vx, m.vy, m.vz)} != {want}")

        # the selected target against the scene's ground truth
        cam = cfg.camera
        if idx in self.accuracy_set(st) and idx not in rec.agree:
            hits = 0
            for r in rows:
                state = sim.SimState(r.t, r.drone, cfg.drone_yaw, r.target,
                                     face_w=cfg.face_w, body_w=cfg.body_w,
                                     body_h=cfg.body_h)
                boxes = _project_target(state, cam)
                hits += agrees(r.centroid, boxes["body"] if boxes else None)
            rec.agree[idx] = (hits, n)

        failsafe = [r for r in rows if r.mission in FAILSAFE_PHASES]
        rec.failsafe_ticks += len(failsafe)
        if cfg.battery_drain > 0 or cfg.user_stop_tick is not None:
            peak = max((-r.drone.d for r in failsafe), default=float("nan"))
            last = rows[-1]
            home_gap = math.hypot(last.drone.n - cfg.home.n, last.drone.e - cfg.home.e)
            if not (abs(peak - (cfg.takeoff_alt + cfg.mission.failsafe_alt_gain)) <= 0.2
                    and last.mission is MissionPhase.ENDED
                    and home_gap <= cfg.mission.pos_eps):
                rec.fail(n, f"episode {idx}: failsafe peak {peak:.3f} m, "
                            f"ended {last.mission.value} {home_gap:.3f} m from home")

        if self.mode == "rendered":
            if len(tc.dets) != n:
                rec.fail(n, f"episode {idx}: {len(tc.dets)} detections for {n} ticks")
            for dets in tc.dets:
                bad = containment_problems(dets, cam.img_w, cam.img_h)
                if bad:
                    rec.fail(1, f"episode {idx}: {bad[0]}")
            for t, img in tc.frames.items():
                bad = recheck_detection(cfg.body_cascade, cfg.face_cascade, img,
                                        cfg.gate, tc.dets[t])
                if bad:
                    rec.fail(1, f"episode {idx} tick {t}: {bad[0]}")

    def final_checks(self, st: LoopState, rec: Record):
        """Two same-seed episodes must give byte-identical trace CSVs: when
        the timed run repeated no episode, run the first one again."""
        if not rec.plan or len(set(rec.plan)) < len(rec.plan):
            return
        idx = rec.plan[0]
        trace = sim.run_closed_loop(st.config_for(idx))
        if not rec.digest("trace_csv", idx, trace.to_csv().encode()):
            rec.fail(len(trace.rows), f"episode {idx}: trace CSV differs on a re-run")

    def accuracy_set(self, st: LoopState) -> range:
        """The episodes target_accuracy is taken over, each once."""
        return range(st.pool or DIGEST_EPISODES)

    def digests(self, rec: Record) -> dict[str, tuple[str, int]]:
        return {k: rec.combined(k, DIGEST_EPISODES) for k in ("trace_csv", "sink")}


class RenderedLoop(LoopWorkload):
    """Rendered closed loop at 320x240 with the synthetic cascades.

    Three episodes of 64 ticks are cycled, one per schedule below.  The
    person walks out from close range to about 10 m, crosses the frame and
    comes back to stand close until the episode ends.  The drone closes in
    while the person is far, so the range to it sweeps from about 2.5 m to
    9 m.  The seed mirrors each episode left to right and picks the
    heights; the range schedules stay fixed so every seed spends the same
    share of ticks at close range, where detection costs most.
    """

    name = "loop-rendered-320"
    mode = "rendered"
    ticks = 64
    # (metres ahead of the drone's start, lateral offset as a share of it)
    schedules = (((3.0, 0.25), (9.5, 0.25), (9.5, -0.25), (5.0, 0.0)),
                 ((2.8, -0.1), (7.5, 0.3), (10.0, 0.0), (4.6, 0.1)),
                 ((4.0, 0.0), (10.0, -0.3), (8.0, 0.3), (4.6, 0.0)))

    def setup(self, seed: int, tmp: str) -> LoopState:
        body_c, face_c = _parsed_cascades()
        gate = synthetic.synthetic_gate_params(320)
        configs = [self._config(seed, i, body_c, face_c, gate)
                   for i in range(len(self.schedules))]
        sim.run_closed_loop(sim.RunConfig(mode="rendered", ticks=4,
                                          target_pos=Ned(3.0, 0.2, -1.6),
                                          drone_pos=Ned(0.0, 0.0, -1.5),
                                          body_cascade=body_c, face_cascade=face_c,
                                          gate=gate))
        return LoopState(tmp, configs.__getitem__, len(configs), face_c)

    def _config(self, seed, i, body_c, face_c, gate) -> sim.RunConfig:
        rng = random.Random(f"{seed}:rendered:{i}")
        alt = rng.uniform(1.5, 1.7)
        mirror = rng.choice((-1.0, 1.0))
        start, *legs = (Ned(r, mirror * f * r, -alt - rng.uniform(0.0, 0.2))
                        for r, f in self.schedules[i])
        return sim.RunConfig(
            mode="rendered", ticks=self.ticks, drone_pos=Ned(0.0, 0.0, -alt),
            target_pos=start, path=sim.TargetPath(tuple(legs), 1.3),
            body_cascade=body_c, face_cascade=face_c, gate=gate)


class OracleLoop(LoopWorkload):
    """Oracle-mode episodes with a walking target, generated from the seed.

    Episode i has a battery sag when i % 6 is 0 and a remote stop when it
    is 3, so a third of them fly the failsafe ladder to the ground; about a
    fifth of all ticks are failsafe ticks, which send no frame.
    """

    name = "loop-oracle"
    mode = "oracle"

    def setup(self, seed: int, tmp: str) -> LoopState:
        st = LoopState(tmp, lambda i: self._config(seed, i), None)
        warm = self.run(st, plan=list(range(48)), observe=False)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.problems}")
        return st

    @staticmethod
    def _config(seed: int, i: int) -> sim.RunConfig:
        rng = random.Random(f"{seed}:oracle:{i}")
        alt = rng.uniform(1.5, 2.5)
        standoff = rng.uniform(5.0, 10.0)
        target = Ned(standoff, rng.uniform(-0.4, 0.4) * standoff,
                     -alt + rng.uniform(-0.3, 0.3))
        legs = tuple(Ned(target.n + rng.uniform(-3.0, 3.0),
                         target.e + rng.uniform(-3.0, 3.0), target.d)
                     for _ in range(3))
        kw = {}
        sag = rng.randint(8, 60)
        if i % 6 == 0:
            drain = 0.05
            kw = dict(battery_drain=drain,
                      battery_start=21.0 + drain * 0.25 * sag + 1e-6, ticks=400)
        elif i % 6 == 3:
            kw = dict(user_stop_tick=sag, ticks=400)
        else:
            kw = dict(ticks=160)
        return sim.RunConfig(drone_pos=Ned(0.0, 0.0, -alt), target_pos=target,
                             path=sim.TargetPath(legs, rng.uniform(0.3, 1.0)), **kw)


# --- detect-640 ----------------------------------------------------------------

@dataclass
class DetectState:
    body_c: object
    face_c: object
    gate: gated.GateParams
    pool: list[tuple[bytes, list[Rect]]]   # PNM bytes, true face boxes


def _place(rng: random.Random, taken: list[Rect], w: int, h: int):
    """A person (face, body, padded detector window) clear of ``taken``."""
    for _ in range(200):
        fw = rng.randint(12, 56)
        # geometry of the rendered person: body 3 faces wide, 4.5 tall
        fx = rng.randint(0, w - fw)
        fy = rng.randint(0, h - fw)
        bx, by = fx + fw // 2 - fw * 3 // 2, fy + fw // 2 - fw * 9 // 4
        bw, bh = fw * 3, int(fw * 4.5)
        mx = max(1, int(bw / 6 + 0.5))
        wh = int((bw + 2 * mx) * 1.5 + 0.5)
        wy = int(by + bh / 2 - wh / 2 + 0.5)
        if bx - mx < 2 or wy < 2 or bx + bw + mx > w - 2 or wy + wh > h - 2:
            continue
        win = Rect(bx - mx, wy, bw + 2 * mx, wh)
        if any(_overlap(win, t, fw) for t in taken):
            continue
        return Rect(fx, fy, fw, fw), Rect(bx, by, bw, bh), win
    return None


def _overlap(a: Rect, b: Rect, gap: int) -> bool:
    return not (a.right + gap <= b.x or b.right + gap <= a.x
                or a.bottom + gap <= b.y or b.bottom + gap <= a.y)


def make_frame(rng: random.Random, i: int, w: int = 640, h: int = 480):
    """Frame i holds i % 3 people over clutter rectangles; even frames are
    P5, odd frames P6 with coloured clutter.  Clutter never overlaps a
    person's detector window, so the truth boxes stay exact."""
    frame = np.full((h, w), synthetic.BG_LUMA, dtype=np.uint8)
    faces, windows = [], []
    for _ in range(i % 3):
        placed = _place(rng, windows, w, h)
        if placed is None:
            continue
        face, body, win = placed
        person = synthetic.render_scene(w, h, face, body).data
        frame[win.y:win.bottom, win.x:win.right] = person[win.y:win.bottom,
                                                          win.x:win.right]
        faces.append(face)
        windows.append(win)
    color = i % 2 == 1
    rgb = np.repeat(frame[:, :, None], 3, axis=2)
    placed = 0
    for _ in range(60):
        if placed == 8:
            break
        cw, ch = rng.randint(10, 120), rng.randint(10, 120)
        r = Rect(rng.randint(0, w - cw), rng.randint(0, h - ch), cw, ch)
        if any(_overlap(r, win, 4) for win in windows):
            continue
        if color:
            rgb[r.y:r.bottom, r.x:r.right] = [rng.randrange(256) for _ in range(3)]
        else:
            rgb[r.y:r.bottom, r.x:r.right] = rng.randrange(256)
        placed += 1
    if color:
        return imaging.encode_ppm(np.ascontiguousarray(rgb)), faces
    return imaging.encode_pgm(GrayImage(np.ascontiguousarray(rgb[:, :, 0]))), faces


def _det_text(dets) -> bytes:
    return ";".join(f"{d.body.box}{d.body.neighbors}|{d.face.box}{d.face.score!r}"
                    for d in dets).encode()


def detect_tick(st: DetectState, data: bytes):
    """One frame of the CLI detect path, annotated in memory."""
    img = imaging.decode_pnm(data)
    dets = gated.detect_gated(st.body_c, st.face_c, img, st.gate)
    chosen = gated.select_target(dets)
    rgb = imaging.to_rgb(img)
    for d in dets:
        imaging.draw_box(rgb, d.body.box, BODY_COLOR)
        imaging.draw_box(rgb, d.face.box, FACE_COLOR)
    return img, dets, chosen, imaging.encode_ppm(rgb)


class Detect640:
    """The CLI ``detect`` path on a seeded pool of 640x480 PNM frames with
    default GateParams: decode, gated detection, target selection and an
    in-memory annotated PPM."""

    name = "detect-640"
    pool = 64              # about what a run reaches, so few frames repeat
    recheck = (0, 32)      # pool frames re-checked with eval_window

    def setup(self, seed: int, tmp: str) -> DetectState:
        body_c, face_c = _parsed_cascades()
        rng = random.Random(f"{seed}:detect")
        st = DetectState(body_c, face_c, gated.GateParams(),
                         [make_frame(rng, i) for i in range(self.pool)])
        detect_tick(st, st.pool[0][0])
        return st

    def run(self, st: DetectState, seconds: float | None = None,
            plan: list[int] | None = None, observe: bool = True) -> Record:
        rec = Record()
        k = 0
        while (k < len(plan)) if plan is not None else (rec.wall_s < seconds):
            idx = plan[k] if plan is not None else k % self.pool
            data, truth = st.pool[idx]
            t0 = clock()
            try:
                img, dets, chosen, ppm = detect_tick(st, data)
            except Exception as e:  # keep measuring; the failure is reported
                rec.wall_s += clock() - t0
                rec.ticks += 1
                rec.fail(1, f"frame {idx} raised {type(e).__name__}: {e}")
                k += 1
                continue
            dt = clock() - t0
            rec.wall_s += dt
            rec.tick_s.append(dt)
            rec.ticks += 1
            rec.plan.append(idx)
            if observe:
                self.check_tick(st, rec, idx, truth, img, dets, chosen, ppm)
            k += 1
        return rec

    def check_tick(self, st, rec, idx, truth, img, dets, chosen, ppm):
        first = idx not in rec.digests.get("detections", {})
        problems = containment_problems(dets, img.width, img.height)
        if not rec.digest("detections", idx, _det_text(dets)):
            problems.append("detections differ from an earlier run of the frame")
        if len(ppm) != len(b"P6\n%d %d\n255\n" % (img.width, img.height)) \
                + img.width * img.height * 3:
            problems.append(f"annotated PPM has {len(ppm)} bytes")
        if first and idx in self.recheck:
            problems += recheck_detection(st.body_c, st.face_c, img, st.gate, dets)
        if problems:
            rec.fail(1, f"frame {idx}: {problems[0]}")
        sel = _center(chosen.face.box) if chosen else None
        rec.agree.setdefault(idx, (int(sel is None if not truth
                                       else any(agrees(sel, f) for f in truth)), 1))

    def final_checks(self, st, rec: Record):
        """A frame detected twice gives the same detections; when the timed
        run repeated no frame, detect the first one again."""
        if not rec.plan or len(set(rec.plan)) < len(rec.plan):
            return
        idx = rec.plan[0]
        dets = detect_tick(st, st.pool[idx][0])[1]
        if not rec.digest("detections", idx, _det_text(dets)):
            rec.fail(1, f"frame {idx}: detections differ on a re-run")

    def accuracy_set(self, st: DetectState) -> range:
        return range(len(st.pool))

    def digests(self, rec: Record) -> dict[str, tuple[str, int]]:
        return {"detections": rec.combined("detections")}


WORKLOADS = {w.name: w for w in (RenderedLoop, Detect640, OracleLoop)}
