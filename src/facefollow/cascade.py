"""Cascade classifier model: parse, import, evaluate, scan and group.

A cascade is an ordered list of boosted stump stages over a shared Haar
feature table.  Window evaluation walks the stages and bails out at the
first stage whose score falls below its threshold, which is where the
detector gets its speed.  ``detect_multiscale`` runs the same decision
vectorized over each scale's window grid, cut into row bands of at most
``_BAND_WINDOWS`` windows so a band's temporaries stay in cache.  Within a
band the walk is dense, then sparse: while every window of the band is
still alive, a stage reads its rectangle sums as strided slices of the
integral table; after the first rejection it gathers them for the
survivors only.  The bands of a scale whose grid splits run on a thread
pool with one thread per usable CPU; the other scales run on the calling
thread meanwhile, and results are collected in scan order.  The scalar and
vectorized paths are kept arithmetically identical (same operation order
on float64) so one can be checked against the other.  Both scale part
rects only through ``haar._scaled_parts``, the one home of that rule and
its escape check.
``group_detections`` clusters the accepted windows with a boolean
similarity matrix and reachability over it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING
from xml.parsers.expat import ErrorString

import numpy as np

from .haar import FeatureKind, FeaturePart, HaarFeature, _scaled_parts, feature_value
from .imaging import GrayImage, IntegralPair, Rect, _round_half_up, integral, rect_sum

if TYPE_CHECKING:  # imported for real by _band_pool, on first use
    from concurrent.futures import ThreadPoolExecutor


class CascadeError(ValueError):
    pass


class CascadeFormatError(CascadeError):
    """Syntax or semantic problem in a cascade document; message carries the path.

    The strict document checks raise it for run configs too."""


class UnsupportedCascadeError(CascadeError):
    """Legacy document uses a feature type this detector does not evaluate."""


@dataclass(frozen=True)
class WeakClassifier:
    feature_index: int
    threshold: float
    left_value: float   # emitted when normalized feature value < threshold
    right_value: float


@dataclass(frozen=True)
class Stage:
    weak: tuple[WeakClassifier, ...]
    stage_threshold: float

    def __post_init__(self):
        if not self.weak:
            raise ValueError("stage must contain at least one weak classifier")


@dataclass(frozen=True)
class Cascade:
    base_w: int
    base_h: int
    features: tuple[HaarFeature, ...]
    stages: tuple[Stage, ...]
    name: str = ""

    def __post_init__(self):
        if self.base_w < 4 or self.base_h < 4:
            raise ValueError(f"base window {self.base_w}x{self.base_h} below 4x4")
        if not self.stages:
            raise ValueError("cascade must contain at least one stage")
        for si, st in enumerate(self.stages):
            for wi, wk in enumerate(st.weak):
                if not 0 <= wk.feature_index < len(self.features):
                    raise ValueError(
                        f"stages[{si}].weak[{wi}].feature: index {wk.feature_index} "
                        f"out of range (table has {len(self.features)})")
        for fi, f in enumerate(self.features):
            for pi, p in enumerate(f.parts):
                if p.rect.right > self.base_w or p.rect.bottom > self.base_h:
                    raise ValueError(
                        f"features[{fi}].parts[{pi}]: rect {p.rect} outside "
                        f"{self.base_w}x{self.base_h} base window")


@dataclass(frozen=True)
class Detection:
    box: Rect
    stages_passed: int
    score: float
    neighbors: int = 0


@dataclass(frozen=True)
class WindowEval:
    accepted: bool
    stages_passed: int  # index of the rejecting stage when not accepted
    score: float        # score of the last stage evaluated


@dataclass
class ScanParams:
    """Multi-scale scan settings; grouping knobs ride along for the
    detect-then-group pipelines (detect_multiscale itself ignores them)."""

    scale_factor: float = 1.2
    min_size: int | None = None   # window width floor; defaults to the base width
    max_size: int | None = None   # window width cap; defaults to the image width
    step_divisor: int = 24
    min_neighbors: int = 3
    eps: float = 0.2

    def __post_init__(self):
        if self.scale_factor <= 1.0:
            raise ValueError(f"scale_factor must exceed 1, got {self.scale_factor}")
        if self.step_divisor < 1:
            raise ValueError("step_divisor must be at least 1")


def _variance_denominator(ip: IntegralPair, window: Rect) -> float:
    """sigma * area for the window; sigma falls back to 1 on flat windows."""
    area = float(window.area)
    mean = rect_sum(ip, window) / area
    meansq = rect_sum(ip, window, squared=True) / area
    var = meansq - mean * mean
    sigma = math.sqrt(var) if var > 0 else 1.0
    return sigma * area


def eval_window(c: Cascade, ip: IntegralPair, window: Rect) -> WindowEval:
    """Run the staged classifier on one window with early rejection.

    Every part rect is scaled by window.w / base_w, as in ``_scan_sizes``,
    and must land inside the window (checked per weak classifier reached).
    Feature values are divided by sigma * area of the window before
    thresholding so trained thresholds transfer across lighting.
    """
    if not window.fits_in(ip.width, ip.height):
        raise ValueError(f"window {window} outside {ip.width}x{ip.height} image")
    scale = window.w / c.base_w
    denom = _variance_denominator(ip, window)

    score = 0.0
    for si, stage in enumerate(c.stages):
        score = 0.0
        for wk in stage.weak:
            raw = feature_value(ip, c.features[wk.feature_index], window, scale,
                                wk.feature_index)
            norm = raw / denom
            score += wk.left_value if norm < wk.threshold else wk.right_value
        if score < stage.stage_threshold:
            return WindowEval(False, si, score)
    return WindowEval(True, len(c.stages), score)


def _scan_sizes(c: Cascade, img_w: int, img_h: int,
                p: ScanParams) -> list[tuple[int, int, float]]:
    """Deduplicated (win_w, win_h, scale) ladder, ascending."""
    min_w = c.base_w if p.min_size is None else p.min_size
    max_w = img_w if p.max_size is None else min(p.max_size, img_w)
    if min_w < c.base_w:
        raise ValueError(f"min_size {min_w} below base width {c.base_w}")
    sizes = []
    f = 1.0
    seen = set()
    while True:
        win_w = _round_half_up(c.base_w * f)
        if win_w > max_w:
            break
        scale = win_w / c.base_w
        win_h = _round_half_up(c.base_h * scale)
        if win_w >= min_w and win_h <= img_h and (win_w, win_h) not in seen:
            seen.add((win_w, win_h))
            sizes.append((win_w, win_h, scale))
        f *= p.scale_factor
    return sizes


def _rect_taps(table: np.ndarray, xs: np.ndarray, ys: np.ndarray,
               r: Rect) -> np.ndarray:
    """Vectorized 4-tap rectangle sums for rect ``r`` offset to each (x, y)."""
    return (table[ys + r.bottom, xs + r.right] - table[ys + r.y, xs + r.right]
            - table[ys + r.bottom, xs + r.x] + table[ys + r.y, xs + r.x])


def _grid_taps(table: np.ndarray, ny: int, nx: int, stride: int,
               r: Rect) -> np.ndarray:
    """``_rect_taps`` over every origin of the ``ny`` x ``nx`` grid at
    ``stride``, read as strided slices of the table; raveled row-major."""
    def tap(y0: int, x0: int) -> np.ndarray:
        return table[y0:y0 + (ny - 1) * stride + 1:stride,
                     x0:x0 + (nx - 1) * stride + 1:stride]
    return (tap(r.bottom, r.right) - tap(r.y, r.right)
            - tap(r.bottom, r.x) + tap(r.y, r.x)).ravel()


# windows per row band of one size's grid: the band's float64 temporaries
# are 256 KiB apiece, so a stage walk stays in cache instead of faulting in
# fresh pages for every whole-grid temporary
_BAND_WINDOWS = 32768

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _band_pool() -> ThreadPoolExecutor:
    """The threads that walk split bands, one per usable CPU, made on first
    use (``concurrent.futures`` is imported only then, so scans that never
    split do not pay for it).

    While the pool works, the calling thread walks the one-band sizes and
    then waits, so for a short while there is one busy thread more than
    CPUs.  One thread fewer leaves a CPU idle for the whole of the split
    sizes, which are most of a 640x480 scan: on a 2-core machine the
    ``detect-640`` median tick was 133 ms with one pool thread and 101 ms
    with two.  The count comes from the CPU affinity mask; a cgroup CPU
    quota is not read.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="facefollow-band")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _call(fn):
    return fn()


def _walk_band(c: Cascade, scaled: list, ii: np.ndarray, sq: np.ndarray,
               ny: int, nx: int, stride: int, win: Rect) -> tuple[np.ndarray, np.ndarray]:
    """The dense-then-sparse stage walk over an ``ny`` x ``nx`` band of origins.

    ``ii`` and ``sq`` are the integral tables cut to start at the band's
    first row of origins.  Returns the accepted windows' flat row-major
    indices within the band and their last-stage scores.
    """
    area = float(win.area)
    mean = _grid_taps(ii, ny, nx, stride, win) / area
    var = _grid_taps(sq, ny, nx, stride, win) / area - mean * mean
    denom = np.where(var > 0, np.sqrt(np.maximum(var, 0.0)), 1.0) * area
    # only denom lives on through the stages: a lower peak heap is trimmed
    # and faulted back in less often between walks
    del mean, var

    n = ny * nx
    alive = np.arange(n, dtype=np.intp)
    score = np.zeros(0)
    for stage in c.stages:
        if len(alive) == n:
            taps = partial(_grid_taps, ii, ny, nx, stride)
            adenom = denom
        else:
            taps = partial(_rect_taps, ii, (alive % nx) * stride, (alive // nx) * stride)
            adenom = denom[alive]
        score = np.zeros(len(alive))
        for wk in stage.weak:
            raw = np.zeros(len(alive))
            for r, weight in scaled[wk.feature_index]:
                raw += weight * taps(r)
            norm = raw / adenom
            score += np.where(norm < wk.threshold, wk.left_value, wk.right_value)
        keep = score >= stage.stage_threshold
        alive = alive[keep]
        score = score[keep]
        if len(alive) == 0:
            break
    return alive, score


def detect_multiscale(c: Cascade, img: GrayImage, p: ScanParams) -> list[Detection]:
    """Scan the window ladder over the image; all accepted windows, ungrouped.

    Output order is deterministic: scale ascending, then y, then x.  The
    vectorized stage walk reproduces eval_window exactly (same float64
    operations in the same order), so per-window results agree bit for bit.

    Each size's windows form an ``ny`` x ``nx`` grid of origins at the
    stride, cut into row bands of at most ``_BAND_WINDOWS`` windows (at
    least one row).  Within a band, while no window has been rejected, a
    stage reads its rectangle sums as strided slices of the integral table;
    from the first rejection on, it gathers them for the surviving windows
    only.  Both reads give the same integers, so the switch cannot change a
    result, and every window is classified on its own, so neither can the
    cut.  The bands of a size that splits into more than one go to a pool
    of one thread per usable CPU; the calling thread walks the one-band
    sizes meanwhile.  Results are collected size by size, then band by band
    from the top.  The integral tables, part scaling and the ``Detection``
    objects stay on the calling thread, so a tracer wrapping ``integral``
    sees every call from one thread.
    """
    ip = integral(img)
    n_stages = len(c.stages)
    # every feature of every size is checked here, before any band runs
    ladder = [(win_w, win_h, [_scaled_parts(f, scale, win_w, win_h, fi)
                              for fi, f in enumerate(c.features)])
              for win_w, win_h, scale in _scan_sizes(c, img.width, img.height, p)]

    walked = []  # per size: (window, stride, nx, rows per band, band results from the top)
    for win_w, win_h, scaled in ladder:
        stride = max(1, _round_half_up(win_w / p.step_divisor))
        nx = (img.width - win_w) // stride + 1
        ny = (img.height - win_h) // stride + 1
        rows = max(1, _BAND_WINDOWS // nx)
        win = Rect(0, 0, win_w, win_h)
        if ny <= rows:  # one band, walked here and now
            bands = [_walk_band(c, scaled, ip.ii, ip.sq, ny, nx, stride, win)]
        else:
            walks = [partial(_walk_band, c, scaled, ip.ii[r0 * stride:], ip.sq[r0 * stride:],
                             min(rows, ny - r0), nx, stride, win)
                     for r0 in range(0, ny, rows)]
            # queued now: the calling thread walks the later, one-band sizes meanwhile
            bands = _band_pool().map(_call, walks)
        walked.append((win, stride, nx, rows, bands))

    out: list[Detection] = []
    for win, stride, nx, rows, bands in walked:
        for b, (alive, score) in enumerate(bands):
            for idx, sc in zip(alive.tolist(), score.tolist()):
                out.append(Detection(Rect(idx % nx * stride, (b * rows + idx // nx) * stride,
                                          win.w, win.h), n_stages, sc))
    return out


# rows of the similarity matrix filled per step; bounds the int64/float64
# temporaries to _GROUP_ROWS x n whatever the detection count
_GROUP_ROWS = 64


def group_detections(dets: list[Detection], min_neighbors: int = 3,
                     eps: float = 0.2) -> list[Detection]:
    """Cluster similar boxes into connected components; small clusters are dropped.

    Boxes a and b are similar when x, y, w and h each differ by at most
    eps * (a.w + a.h + b.w + b.h) / 4 (OpenCV's ``groupRectangles`` rule);
    a cluster is a connected component of that relation, so a chain of
    similar boxes is one cluster.  Clusters come out ordered by their
    smallest member index.  The representative box is the rounded mean of
    (x, y, right, bottom) so it stays inside the cluster's convex bounds;
    ``neighbors`` reports the cluster population.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if min_neighbors < 0:
        raise ValueError("min_neighbors must be non-negative")
    n = len(dets)
    x, y, w, h = np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                          dtype=np.int64).reshape(n, 4).T
    similar = np.empty((n, n), dtype=bool)
    for i0 in range(0, n, _GROUP_ROWS):
        rows = slice(i0, i0 + _GROUP_ROWS)
        delta = eps * (w[rows, None] + h[rows, None] + w + h) / 4.0
        similar[rows] = ((np.abs(x[rows, None] - x) <= delta)
                         & (np.abs(y[rows, None] - y) <= delta)
                         & (np.abs(w[rows, None] - w) <= delta)
                         & (np.abs(h[rows, None] - h) <= delta))

    corners = np.stack([x, y, x + w, y + h], axis=1)
    seen = np.zeros(n, dtype=bool)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        comp = similar[i].copy()
        frontier = comp
        while True:
            grown = similar[frontier].any(axis=0) & ~comp
            if not grown.any():
                break
            comp |= grown
            frontier = grown
        seen |= comp
        members = np.flatnonzero(comp)
        k = len(members)
        if k < min_neighbors + 1:
            continue
        bx, by, br, bb = (_round_half_up(int(v) / k)
                          for v in corners[members].sum(axis=0))
        out.append(Detection(
            Rect(bx, by, br - bx, bb - by),
            stages_passed=max(dets[j].stages_passed for j in members),
            score=max(dets[j].score for j in members),
            neighbors=k,
        ))
    return out


# --- strict document checks ---------------------------------------------------
# Shared by the cascade parsers and the run-config loader; ``path`` is the key
# path of ``v``, e.g. "$.stages[0].weak[1].feature", and starts every message.

def _obj(v, path: str, required=(), optional=()) -> dict:
    if not isinstance(v, dict):
        raise CascadeFormatError(f"{path}: expected object, got {v!r}")
    unknown = set(v) - set(required) - set(optional)
    if unknown:
        raise CascadeFormatError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(v)
    if missing:
        raise CascadeFormatError(f"{path}: missing key(s) {sorted(missing)}")
    return v


def _array(v, path: str, min_len: int = 0, max_len: int | None = None) -> list:
    if (isinstance(v, list) and min_len <= len(v)
            and (max_len is None or len(v) <= max_len)):
        return v
    size = (f"{min_len} or more" if max_len is None else str(min_len)
            if min_len == max_len else f"{min_len}..{max_len}")
    raise CascadeFormatError(f"{path}: expected array of {size} items")


def _int(v, path: str, minimum: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise CascadeFormatError(f"{path}: expected integer, got {v!r}")
    if v < minimum:
        raise CascadeFormatError(f"{path}: {v} below minimum {minimum}")
    return v


def _real(v, path: str) -> float:
    # json.loads accepts NaN and +-Infinity literals; they end here
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise CascadeFormatError(f"{path}: expected finite number, got {v!r}")
    return float(v)


def _bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise CascadeFormatError(f"{path}: expected true or false, got {v!r}")
    return v


def _str(v, path: str) -> str:
    if not isinstance(v, str):
        raise CascadeFormatError(f"{path}: expected string, got {v!r}")
    return v


def _build(path: str, cls, /, *args, **kw):
    """``cls(*args, **kw)``; the ValueError of a rule the model checks itself,
    or the OSError of a file it reads, is re-raised at the document path
    ``path`` of the object built."""
    try:
        return cls(*args, **kw)
    except (OSError, ValueError) as e:
        raise CascadeFormatError(f"{path}: {e}") from e


def _load_json(text: str):
    """``json.loads`` whose errors are CascadeFormatErrors at path ``$``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CascadeFormatError(
            f"$: syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal over the interpreter's digit limit
        raise CascadeFormatError(f"$: {e}") from e


# --- canonical JSON form ----------------------------------------------------

_KIND_NAMES = {FeatureKind.TWO_RECT: "two", FeatureKind.THREE_RECT: "three",
               FeatureKind.FOUR_RECT: "four"}
_NAMES_KIND = {v: k for k, v in _KIND_NAMES.items()}


def parse_cascade(text: str) -> Cascade:
    """Parse the canonical JSON cascade document (strict: unknown keys rejected)."""
    doc = _obj(_load_json(text), "$",
               required=("name", "base_w", "base_h", "features", "stages"))
    name = _str(doc["name"], "$.name")
    base_w = _int(doc["base_w"], "$.base_w", 4)
    base_h = _int(doc["base_h"], "$.base_h", 4)

    features = []
    for fi, fobj in enumerate(_array(doc["features"], "$.features")):
        path = f"$.features[{fi}]"
        _obj(fobj, path, required=("kind", "parts"))
        kind = _NAMES_KIND.get(_str(fobj["kind"], f"{path}.kind"))
        if kind is None:
            raise CascadeFormatError(f"{path}.kind: unknown kind {fobj['kind']!r}")
        parts = []
        for pi, pobj in enumerate(_array(fobj["parts"], f"{path}.parts", 2, 4)):
            ppath = f"{path}.parts[{pi}]"
            _obj(pobj, ppath, required=("x", "y", "w", "h", "weight"))
            rect = Rect(*(_int(pobj[k], f"{ppath}.{k}", low)
                          for k, low in (("x", 0), ("y", 0), ("w", 1), ("h", 1))))
            parts.append(FeaturePart(rect, _real(pobj["weight"], f"{ppath}.weight")))
        features.append(HaarFeature(kind, tuple(parts)))

    stages = []
    for si, sobj in enumerate(_array(doc["stages"], "$.stages", 1)):
        path = f"$.stages[{si}]"
        _obj(sobj, path, required=("threshold", "weak"))
        weak = []
        for wi, wobj in enumerate(_array(sobj["weak"], f"{path}.weak", 1)):
            wpath = f"{path}.weak[{wi}]"
            _obj(wobj, wpath, required=("feature", "threshold", "left", "right"))
            fidx = _int(wobj["feature"], f"{wpath}.feature", 0)
            weak.append(WeakClassifier(fidx, *(_real(wobj[k], f"{wpath}.{k}")
                                               for k in ("threshold", "left", "right"))))
        stages.append(Stage(tuple(weak), _real(sobj["threshold"], f"{path}.threshold")))

    return _build("$", Cascade, base_w, base_h, tuple(features), tuple(stages), name=name)


def serialize_cascade(c: Cascade) -> str:
    """Canonical JSON text; parse(serialize(c)) reproduces c exactly."""
    doc = {
        "name": c.name,
        "base_w": c.base_w,
        "base_h": c.base_h,
        "features": [
            {"kind": _KIND_NAMES[f.kind],
             "parts": [{"x": p.rect.x, "y": p.rect.y, "w": p.rect.w,
                        "h": p.rect.h, "weight": p.weight} for p in f.parts]}
            for f in c.features
        ],
        "stages": [
            {"threshold": st.stage_threshold,
             "weak": [{"feature": w.feature_index, "threshold": w.threshold,
                       "left": w.left_value, "right": w.right_value}
                      for w in st.weak]}
            for st in c.stages
        ],
    }
    return json.dumps(doc, indent=1)


# --- legacy OpenCV XML import ------------------------------------------------

def _xml_text(parent: ET.Element, tag: str, path: str) -> str:
    node = parent.find(tag)
    if node is None or node.text is None:
        raise CascadeFormatError(f"{path}: missing <{tag}>")
    return node.text.strip()


def _xml_number(token: str, path: str) -> int | float:
    """One number from element text, for the strict checks to type."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    raise CascadeFormatError(f"{path}: expected number, got {token!r}")


def import_legacy_xml(text: str) -> Cascade:
    """Import a new-style XML haarcascade (stump stages, HAAR features only).

    Stage and weak counts, thresholds, leaf values and feature rects are
    carried over verbatim; tilted features and non-HAAR feature types are
    rejected as unsupported.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        line, col = e.position  # expat counts columns from 0, json from 1
        raise CascadeFormatError(f"$: syntax error at line {line}, column {col + 1}: "
                                 f"{ErrorString(e.code)}") from e
    if root.tag != "opencv_storage":
        raise CascadeFormatError(f"root element is <{root.tag}>, expected <opencv_storage>")
    children = list(root)
    if not children:
        raise CascadeFormatError("opencv_storage: no cascade element")
    cas = children[0]
    base = cas.tag

    ftype = _xml_text(cas, "featureType", base)
    if ftype != "HAAR":
        raise UnsupportedCascadeError(f"{base}.featureType: {ftype} not supported")
    wpath, hpath = f"{base}.width", f"{base}.height"
    base_w = _int(_xml_number(_xml_text(cas, "width", base), wpath), wpath, 4)
    base_h = _int(_xml_number(_xml_text(cas, "height", base), hpath), hpath, 4)

    features_el = cas.find("features")
    if features_el is None:
        raise CascadeFormatError(f"{base}: missing <features>")
    features = []
    for fi, fel in enumerate(features_el):
        fpath = f"{base}.features[{fi}]"
        tilted_el = fel.find("tilted")
        if tilted_el is not None and tilted_el.text and tilted_el.text.strip() not in ("0",):
            raise UnsupportedCascadeError(f"{fpath}: tilted features not supported")
        rects_el = fel.find("rects")
        if rects_el is None:
            raise CascadeFormatError(f"{fpath}: missing <rects>")
        parts = []
        for pi, rel in enumerate(rects_el):
            rpath = f"{fpath}.rects[{pi}]"
            toks = [_xml_number(t, rpath) for t in (rel.text or "").split()]
            if len(toks) != 5:
                raise CascadeFormatError(
                    f"{rpath}: expected 'x y w h weight', got {rel.text!r}")
            rect = Rect(*(_int(v, rpath, low) for v, low in zip(toks, (0, 0, 1, 1))))
            parts.append(FeaturePart(rect, _real(toks[4], rpath)))
        if not 2 <= len(parts) <= 4:
            raise CascadeFormatError(f"{fpath}: expected 2..4 rects, got {len(parts)}")
        kind = {2: FeatureKind.TWO_RECT, 3: FeatureKind.THREE_RECT,
                4: FeatureKind.FOUR_RECT}[len(parts)]
        features.append(HaarFeature(kind, tuple(parts)))

    stages_el = cas.find("stages")
    if stages_el is None:
        raise CascadeFormatError(f"{base}: missing <stages>")
    stages = []
    for si, sel in enumerate(stages_el):
        spath = f"{base}.stages[{si}]"
        mpath, tpath = f"{spath}.maxWeakCount", f"{spath}.stageThreshold"
        declared = _int(_xml_number(_xml_text(sel, "maxWeakCount", spath), mpath),
                        mpath, 1)
        threshold = _real(_xml_number(_xml_text(sel, "stageThreshold", spath), tpath),
                          tpath)
        weak_el = sel.find("weakClassifiers")
        if weak_el is None:
            raise CascadeFormatError(f"{spath}: missing <weakClassifiers>")
        weak = []
        for wi, wel in enumerate(weak_el):
            wpath = f"{spath}.weakClassifiers[{wi}]"
            npath, lpath = f"{wpath}.internalNodes", f"{wpath}.leafValues"
            nodes = [_xml_number(t, npath)
                     for t in _xml_text(wel, "internalNodes", wpath).split()]
            leaves = [_real(_xml_number(t, lpath), lpath)
                      for t in _xml_text(wel, "leafValues", wpath).split()]
            if len(nodes) != 4:
                raise CascadeFormatError(
                    f"{npath}: expected 4 values (stump), got {len(nodes)}")
            if len(leaves) != 2:
                raise CascadeFormatError(
                    f"{lpath}: expected 2 values, got {len(leaves)}")
            weak.append(WeakClassifier(_int(nodes[2], npath, 0), _real(nodes[3], npath),
                                       *leaves))
        if declared != len(weak):
            raise CascadeFormatError(
                f"{spath}: maxWeakCount {declared} != {len(weak)} classifiers")
        stages.append(Stage(tuple(weak), threshold))
    if not stages:
        raise CascadeFormatError(f"{base}.stages: no stages")

    return _build(base, Cascade, base_w, base_h, tuple(features), tuple(stages),
                  name=cas.tag)
