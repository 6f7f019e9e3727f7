"""Spans around the calls into facefollow's modules, for the traced run.

The tracer replaces a public function where its caller looks it up (a
module attribute, or a class attribute for methods) with a wrapper that
records one span per call: name, start, end, parent span and two counts.
Spans stay in memory, in flat arrays, until the run ends; nothing inside
``src/`` changes.  ``layer_metrics`` turns the spans into the per-layer
numbers that BENCHMARK.json lists.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.n_in = array("q")
        self.n_out = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, counts=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args,
        ``counts(args, result)`` gives the span's (n_in, n_out)."""
        fixed = self.name_id(name) if isinstance(name, str) else None
        names, starts, ends = self.name, self.start, self.end
        parents, n_in, n_out, raised = self.parent, self.n_in, self.n_out, self.raised
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kw):
            i = len(starts)
            names.append(fixed if fixed is not None else self.name_id(name(args)))
            parents.append(stack[-1] if stack else -1)
            n_in.append(0)
            n_out.append(0)
            raised.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kw)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if counts is not None:
                n_in[i], n_out[i] = counts(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, counts=None):
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts))

    def restore(self):
        while self._undo:
            owner, attr, own, orig = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def __len__(self):
        return len(self.start)


def install(tracer: Tracer, face_cascade) -> None:
    """Wrap every layer boundary on the per-tick path.

    Callers look functions up in their own module namespace, so a function
    is patched once per caller: ``sim`` for the closed loop, ``gated`` and
    ``imaging`` for the detect path the benchmark drives, ``gated`` for the
    scans and grouping, ``cascade`` for the integral, ``mavlink`` for the
    frame encoder.  ``haar`` scaling runs inside the scans and has no span.
    """
    from facefollow import cascade, gated, imaging, mavlink, sim

    last_scan = ["body"]

    def scan_name(args):
        last_scan[0] = "face" if args[0] is face_cascade else "body"
        return f"cascade.{last_scan[0]}_scan"

    def group_name(args):
        return f"cascade.group_{last_scan[0]}"

    def n_out(args, result):
        return 0, len(result)

    def n_in_out(args, result):
        return len(args[0]), len(result)

    def frame_len(args, result):
        return len(args[1]), 0

    t = tracer
    t.patch(sim, "run_closed_loop", "sim.run_closed_loop")
    t.patch(sim, "project_target", "sim.project_target")
    t.patch(sim, "step_sim", "sim.step_sim")
    t.patch(sim.Trace, "to_csv", "sim.trace_csv")
    t.patch(sim, "render_scene", "synthetic.render_scene")
    for owner in (sim, gated):
        t.patch(owner, "detect_gated", "gated.detect_gated", n_out)
        t.patch(owner, "select_target", "gated.select_target")
    t.patch(gated, "detect_multiscale", scan_name, n_out)
    t.patch(gated, "group_detections", group_name, n_in_out)
    t.patch(cascade, "integral", "imaging.integral")
    t.patch(imaging, "decode_pnm", "imaging.decode_pnm")
    t.patch(imaging, "to_rgb", "imaging.to_rgb")
    t.patch(imaging, "draw_box", "imaging.draw_box")
    t.patch(imaging, "encode_ppm", "imaging.encode_ppm")
    t.patch(sim, "compute_command", "tracker.compute_command")
    t.patch(sim, "classify_zone", "tracker.classify_zone")
    t.patch(sim, "step_mission", "mission.step_mission")
    t.patch(sim, "build_velocity_message", "mavlink.build_velocity_message")
    t.patch(mavlink.FileSink, "send", "mavlink.send")
    t.patch(mavlink, "encode_frame", "mavlink.encode_frame")
    t.patch(mavlink.FileSink, "_write", "mavlink.write", frame_len)


# root spans: a tick of the detect path, or one closed-loop episode
TICK_ROOT = "bench.tick"
EPISODE_ROOT = "sim.run_closed_loop"
TICK_MARK = "sim.project_target"   # the first call of every loop tick


class _Agg:
    __slots__ = ("calls", "dur", "self_t", "n_in", "n_out", "raised")

    def __init__(self):
        self.calls = 0
        self.dur = self.self_t = 0.0
        self.n_in = self.n_out = self.raised = 0


def tick_intervals(t: Tracer) -> list[tuple[float, float, int]]:
    """(start, end, root span) per tick.

    A detect tick is one ``bench.tick`` span.  A loop tick runs from one
    ``project_target`` call to the next inside an episode, and the last
    tick of an episode ends where the episode returns.
    """
    names, parent = t.names, t.parent
    marks: dict[int, list[float]] = {}
    out = []
    for i in range(len(t)):
        nm = names[t.name[i]]
        if nm == TICK_ROOT:
            out.append((t.start[i], t.end[i], i))
        elif nm == TICK_MARK and parent[i] >= 0 \
                and names[t.name[parent[i]]] == EPISODE_ROOT:
            marks.setdefault(parent[i], []).append(t.start[i])
    for ep, starts in marks.items():
        bounds = starts + [t.end[ep]]
        out.extend((a, b, ep) for a, b in zip(bounds, bounds[1:]))
    out.sort()
    return out


def layer_metrics(t: Tracer) -> tuple[dict, dict, dict]:
    """Per-layer metrics, per-span totals and the tick-time accounting.

    Times are per tick ("self" is a span minus its direct children);
    counts are per tick; ratios are named as such.  ``cascade.parse_ms`` is
    the parse time of the traced run's one set-up.
    """
    n_spans = len(t)
    child = [0.0] * n_spans
    for i in range(n_spans):
        p = t.parent[i]
        if p >= 0:
            child[p] += t.end[i] - t.start[i]
    agg: dict[str, _Agg] = {}
    for i in range(n_spans):
        a = agg.get(t.names[t.name[i]])
        if a is None:
            a = agg[t.names[t.name[i]]] = _Agg()
        d = t.end[i] - t.start[i]
        a.calls += 1
        a.dur += d
        a.self_t += d - child[i]
        a.n_in += t.n_in[i]
        a.n_out += t.n_out[i]
        a.raised += t.raised[i]

    ticks = tick_intervals(t)
    n = max(1, len(ticks))

    def get(name) -> _Agg:
        return agg.get(name, _Agg())

    def per_tick(*names, field="self_t", scale=1e3):
        return sum(getattr(get(x), field) for x in names) / n * scale

    group = ("cascade.group_body", "cascade.group_face")
    g_in = sum(get(x).n_in for x in group)
    g_out = sum(get(x).n_out for x in group)
    face_calls = get("cascade.face_scan").calls
    tick_total = sum(b - a for a, b, _ in ticks)

    tail_share, mid_share = _group_shares(t, ticks, group)
    m = {
        "cascade.group_ms": per_tick(*group),
        "cascade.face_raw": per_tick("cascade.face_scan", field="n_out", scale=1),
        "cascade.group_yield": g_out / g_in if g_in else 0.0,
        "cascade.group_share_tail_pct": tail_share,
        "cascade.group_share_mid_pct": mid_share,
        "cascade.body_scan_ms": per_tick("cascade.body_scan"),
        "cascade.body_raw": per_tick("cascade.body_scan", field="n_out", scale=1),
        "cascade.face_scan_ms": per_tick("cascade.face_scan"),
        "cascade.face_scan_calls": per_tick("cascade.face_scan", field="calls", scale=1),
        "cascade.parse_ms": get("cascade.parse_cascade").dur * 1e3,
        "imaging.integral_ms": per_tick("imaging.integral"),
        "imaging.integral_calls": per_tick("imaging.integral", field="calls", scale=1),
        "imaging.decode_ms": per_tick("imaging.decode_pnm"),
        "imaging.annotate_ms": per_tick("imaging.to_rgb", "imaging.draw_box",
                                        "imaging.encode_ppm"),
        "gated.detect_ms": per_tick("gated.detect_gated", field="dur"),
        "gated.self_ms": per_tick("gated.detect_gated"),
        "gated.bodies": per_tick("cascade.group_body", field="n_out", scale=1),
        "gated.face_hit_frac": (get("gated.detect_gated").n_out / face_calls
                                if face_calls else 0.0),
        "gated.select_us": per_tick("gated.select_target", scale=1e6),
        "synthetic.render_ms": per_tick("synthetic.render_scene"),
        "sim.project_us": per_tick("sim.project_target", scale=1e6),
        "sim.step_us": per_tick("sim.step_sim", scale=1e6),
        "sim.loop_self_us": per_tick("sim.run_closed_loop", scale=1e6),
        "sim.trace_csv_ms": per_tick("sim.trace_csv"),
        "tracker.command_us": per_tick("tracker.compute_command",
                                       "tracker.classify_zone", scale=1e6),
        "mission.step_us": per_tick("mission.step_mission", scale=1e6),
        "mavlink.build_us": per_tick("mavlink.build_velocity_message", scale=1e6),
        "mavlink.encode_us": per_tick("mavlink.encode_frame", scale=1e6),
        "mavlink.write_us": per_tick("mavlink.write", scale=1e6),
        "mavlink.frames": per_tick("mavlink.send", field="calls", scale=1),
        "mavlink.bytes": per_tick("mavlink.write", field="n_in", scale=1),
        "mavlink.errors": per_tick("mavlink.write", field="raised", scale=1),
    }
    totals = {name: (a.calls, a.dur, a.self_t) for name, a in sorted(agg.items())}

    # every tick's time is its spans' self times plus the part no span covers
    roots = {r for _, _, r in ticks}
    covered = 0.0
    starts = [a for a, _, _ in ticks]
    for i in range(n_spans):
        if t.parent[i] in roots:
            k = bisect_right(starts, t.start[i]) - 1
            if k >= 0 and t.start[i] < ticks[k][1] and ticks[k][2] == t.parent[i]:
                covered += t.end[i] - t.start[i]
    accounting = {"ticks": len(ticks), "tick_ms": tick_total / n * 1e3,
                  "spans_self_ms": covered / n * 1e3,
                  "remainder_ms": (tick_total - covered) / n * 1e3}
    return m, totals, accounting


def _group_shares(t: Tracer, ticks, group) -> tuple[float, float]:
    """Grouping's share (%) of tail ticks and of ticks near the median.

    Tail ticks are the slowest tenth; median ticks lie between the 40th and
    60th percentile of tick time.
    """
    if not ticks:
        return 0.0, 0.0
    ids = {t.name_id(g) for g in group}
    starts = [a for a, _, _ in ticks]
    grp = [0.0] * len(ticks)
    for i in range(len(t)):
        if t.name[i] in ids:
            k = bisect_right(starts, t.start[i]) - 1
            if k >= 0 and t.start[i] < ticks[k][1]:
                grp[k] += t.end[i] - t.start[i]
    order = sorted(range(len(ticks)), key=lambda k: ticks[k][1] - ticks[k][0])
    n = len(order)

    def share(sel):
        total = sum(ticks[k][1] - ticks[k][0] for k in sel)
        return 100.0 * sum(grp[k] for k in sel) / total if total else 0.0

    return share(order[n - max(1, n // 10):]), share(order[int(n * 0.4):int(n * 0.6) + 1])
