"""Cascade classifier model: parse, import, evaluate, scan and group.

A cascade is an ordered list of boosted stump stages over a shared Haar
feature table.  Window evaluation walks the stages and bails out at the
first stage whose score falls below its threshold, which is where the
detector gets its speed.  ``detect_multiscale`` runs the same decision
vectorized over each scale's window grid.  Each (cascade, window size)
compiles once into a size plan, kept in the ``Cascade``'s private
``_plans`` dict, outside the model's fields.  A plan holds only what the
window size changes, its taps, terms and gathers; every threshold and leaf
is read from the cascade's own stages.  The compile scales the cascade's
int64 part table at once, and each feature's parts become corner taps
``(dy, dx, k)``, summed per distinct corner so shared corners merge or
cancel, in one zero-padded table per size; gathers are cut from it.
Strided reads are also grouped into row x column terms (``_terms``): a
Haar rectangle is a difference of table rows times a difference of its
columns, so ``_grid_sum`` can sum a term's rows first and then read its
columns from that sum.  The grid is cut into row bands of at most
``_BAND_WINDOWS`` windows, which the calling thread reads in scan order;
their candidate windows are then classified in batches across sizes and
bands, each candidate carrying the index of its band, by one loop over
every stage, as ``_walk_batch`` describes.  A batch first drops the
windows that a weak classifier of stage 0 vetoes by the sign of its sum
alone (``_veto_sign``), before it reads their window sums; the sign cut is
the first weak classifier's veto, read per band in int32 (``_sign_cut``).
The scalar and vectorized paths give bit-identical results, so one can be
checked against the other: part weights are integers (a ``Cascade``
rule), so a feature's sum is the same exact integer in the scan's int64
(or the cut's int32) and in ``eval_window``'s float64, and every float64
operation after it runs in the same order on both paths.  Both scale part
rects only through ``haar._scaled_parts``, the one home of that rule, of
its escape check and of its clip to the window.
The accepted windows stay arrays from the stage walk on: each batch gives
their boxes and scores, and ``detect_multiscale`` joins them into one
``Windows``, a sequence that builds a ``Detection`` only for a window that
is read.  ``group_detections`` clusters those arrays by growing each
cluster over the boxes not yet clustered, and only the clusters become
``Detection``s.
"""

from __future__ import annotations

import json
import math
import operator
import xml.etree.ElementTree as ET
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple
from xml.parsers.expat import ErrorString

import numpy as np

from .haar import FeatureKind, FeaturePart, HaarFeature, _scaled_parts, feature_value
from .imaging import (MAX_DIM, GrayImage, IntegralPair, Rect, _check, _is_finite, _is_int,
                      _round_half_up, integral, rect_sum)


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


# part weights are integers up to this magnitude: a feature of at most 4
# parts then sums below 4 * 2**16 * 255 * 8192**2 < 2**53 in magnitude
MAX_WEIGHT = 2 ** 16


@dataclass(frozen=True)
class Cascade:
    base_w: int
    base_h: int
    features: tuple[HaarFeature, ...]
    stages: tuple[Stage, ...]
    name: str = ""

    def __post_init__(self):
        # size plans by (win_w, win_h), filled by _size_plan; not a field, so
        # ==, hash and repr see the model only, and replace() starts empty
        object.__setattr__(self, "_plans", {})
        if not (_is_int(self.base_w, 4) and _is_int(self.base_h, 4)):
            raise ValueError(f"base_w and base_h must be ints of at least 4, "
                             f"got {self.base_w!r}x{self.base_h!r}")
        if not self.stages:
            raise ValueError("cascade must contain at least one stage")
        for si, st in enumerate(self.stages):
            # a NaN score passes eval_window's "score < threshold" test but
            # fails the scan's "score >= threshold" test
            if not _is_finite(st.stage_threshold):
                raise ValueError(f"stages[{si}].threshold: {st.stage_threshold!r} is not finite")
            for wi, wk in enumerate(st.weak):
                if not (_is_int(wk.feature_index, 0) and wk.feature_index < len(self.features)):
                    raise ValueError(
                        f"stages[{si}].weak[{wi}].feature: index {wk.feature_index!r} "
                        f"out of range (table has {len(self.features)})")
                if not all(map(_is_finite, (wk.threshold, wk.left_value, wk.right_value))):
                    raise ValueError(f"stages[{si}].weak[{wi}]: threshold or leaf is not finite")
        for fi, f in enumerate(self.features):
            for pi, p in enumerate(f.parts):
                if p.rect.right > self.base_w or p.rect.bottom > self.base_h:
                    raise ValueError(
                        f"features[{fi}].parts[{pi}]: rect {p.rect} outside "
                        f"{self.base_w}x{self.base_h} base window")
                # the scan sums features in int64 and eval_window in float64;
                # with such weights both hold every partial sum exactly
                if not (_is_finite(p.weight) and abs(p.weight) <= MAX_WEIGHT
                        and float(p.weight).is_integer()):
                    raise ValueError(
                        f"features[{fi}].parts[{pi}]: weight {p.weight!r} is not "
                        f"an integer of magnitude at most {MAX_WEIGHT}")
        # the part table _compile_size scales, not a field: one int64 row
        # (feature, part, x, y, w, h, weight) per part, in feature order
        parts = np.array([(fi, pi, p.rect.x, p.rect.y, p.rect.w, p.rect.h, p.weight)
                          for fi, f in enumerate(self.features)
                          for pi, p in enumerate(f.parts)], dtype=np.int64)
        parts.flags.writeable = False
        object.__setattr__(self, "_parts", parts)


@dataclass(frozen=True)
class Detection:
    box: Rect
    score: float
    neighbors: int = 0


@dataclass(frozen=True, eq=False, slots=True)
class Windows(Sequence[Detection]):
    """A scan's accepted windows in scan order, as ``detect_multiscale``
    returns them: ``boxes``, int64 ``n`` x 4 rows of x, y, w, h, and
    ``score``, their float64 scores, both read-only.  As a sequence it reads
    as the ``Detection`` of each window, built only when read; it has no
    ``==`` of its own, so compare ``list(windows)``."""

    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        self.boxes.flags.writeable = False
        self.score.flags.writeable = False

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i: int) -> Detection:
        i = operator.index(i)
        x, y, w, h = self.boxes[i].tolist()
        return Detection(Rect(x, y, w, h), self.score[i].item())

    def __iter__(self) -> Iterator[Detection]:
        for (x, y, w, h), score in zip(self.boxes.tolist(), self.score.tolist()):
            yield Detection(Rect(x, y, w, h), score)


@dataclass(frozen=True)
class WindowEval:
    accepted: bool
    stages_passed: int  # index of the rejecting stage when not accepted
    score: float        # score of the last stage evaluated


@dataclass(frozen=True)
class ScanParams:
    """Multi-scale scan settings; ``min_neighbors`` and ``eps`` are the
    grouping settings ``gated.detect_grouped`` applies to the scan's windows
    (detect_multiscale itself ignores them)."""

    scale_factor: float = 1.2
    min_size: int | None = None   # window width floor; defaults to the base width
    max_size: int | None = None   # window width cap; defaults to the image width
    step_divisor: int = 24
    min_neighbors: int = 3
    eps: float = 0.2

    def __post_init__(self):
        # inf overflows and NaN fails the ladder's round-half-up at scan time
        if not (_is_finite(self.scale_factor) and self.scale_factor > 1.0):
            raise ValueError(f"scale_factor must be finite and exceed 1, got {self.scale_factor!r}")
        _check("an int of at least 1", self, "step_divisor")
        _grouping_rules(self.min_neighbors, self.eps)
        # no min_size <= max_size rule: gated scans raise min_size per body,
        # and a face ladder emptied that way finds nothing
        for k in ("min_size", "max_size"):
            v = getattr(self, k)
            if v is not None and not _is_int(v, 1):
                raise ValueError(f"{k} must be None or an int of at least 1, got {v!r}")


def _grouping_rules(min_neighbors, eps) -> None:
    """The grouping settings' rules, for ``ScanParams`` and ``group_detections``."""
    if not (_is_finite(eps) and 0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    _check("an int of at least 0", {"min_neighbors": min_neighbors})


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
    and clipped to the window; a part that starts outside it (a window
    smaller than the scaled base) raises when its weak classifier is reached.
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
                p: ScanParams) -> list[tuple[int, int]]:
    """Deduplicated (win_w, win_h) ladder, ascending; a size's scale is
    ``win_w / base_w``."""
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
        win_h = _round_half_up(c.base_h * (win_w / c.base_w))
        if win_w >= min_w and win_h <= img_h and (win_w, win_h) not in seen:
            seen.add((win_w, win_h))
            sizes.append((win_w, win_h))
        f *= p.scale_factor
    return sizes


# a tap list grouped into row x column terms, (rows, columns) each: term
# (((dy, a), ...), ((dx, b), ...)) is the taps (dy, dx, a * b)
_Terms = tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]


def _terms(taps: list[list[int]]) -> _Terms:
    """The taps as row x column terms.  Each row's taps, as coefficients
    over its columns, are an integer multiple of one column vector whose
    entries have no common factor and whose first entry is positive; rows
    with the same vector share a term, the multiples being their
    coefficients.  A Haar rectangle is a difference of table rows times a
    difference of its columns, so a template feature whose scaled parts
    keep their proportions is one term."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    for dy, dx, k in taps:  # sorted by (dy, dx): _compile_size
        by_row.setdefault(dy, []).append((dx, k))
    terms: dict[tuple[tuple[int, int], ...], list[tuple[int, int]]] = {}
    for dy, cols in by_row.items():
        g = math.gcd(*(k for _, k in cols)) or 1  # 0 only for the zero tap
        g = -g if cols[0][1] < 0 else g
        terms.setdefault(tuple((dx, k // g) for dx, k in cols), []).append((dy, g))
    return tuple((tuple(rows), cols) for cols, rows in terms.items())


class _Gather(NamedTuple):
    """Rows of a size's tap table to be read from ``ii`` at scattered window
    origins, cut to the longest of them: each row's corners and its
    coefficient on each."""
    dy: np.ndarray      # int64, lists x taps
    dx: np.ndarray
    coef: np.ndarray    # 0 on the padding


def _gather(taps: np.ndarray, n: np.ndarray, feats: list[int]) -> _Gather:
    """Rows ``feats`` of the padded tap table ``taps``, whose row f holds
    ``n[f]`` taps, cut to the longest of them but at least one tap."""
    return _Gather(*taps[feats, :max(1, n[feats].max(initial=0))].transpose(2, 0, 1))


def _gather_sums(g: _Gather, base: np.ndarray, ii: np.ndarray) -> np.ndarray:
    """Row i: tap list i's int64 sums at the flat offsets ``base`` into the
    integral table ``ii``.  One ``take`` reads every tap at every origin,
    and one product with the coefficient matrix sums each list over its own
    taps, so the cost grows with the taps, not with lists times taps.  The
    products and sums are exact integers, far below 2**63 in magnitude."""
    idx = (g.dy * ii.shape[1] + g.dx)[:, :, None] + base
    return np.einsum("lt,ltn->ln", g.coef, ii.ravel().take(idx))


class _SizePlan(NamedTuple):
    win: Rect
    keep_sign: int      # the sign cut of stage 0, see _sign_cut
    strided: tuple[tuple[int, _Terms], ...]  # what a band reads as strided
                           # slices, as (plane, terms): stage 0's first weak
                           # classifier with a cut; without one, the window
                           # in ii (s1) and in sq (s2), then every weak
                           # classifier of stage 0
    gathers: tuple[_Gather | None, ...]  # per stage, its weak classifiers'
                           # taps; gathers[0], None without a cut, is what the
                           # cut's survivors gather: stage 0's weak classifiers
                           # after the cut one


# a cut feature's sum(|weight| * 255 * area) stays below this, so that its
# sum modulo 2**32, read as int32, is the true sum
_INT32_BOUND = 2 ** 31


def _veto_sign(st: Stage, j: int) -> int:
    """+1 or -1 when the sign of weak classifier ``j``'s integer sum alone
    can reject a window: a window can pass ``st`` only where the sum has
    that sign.  0 when it cannot.

    Two conditions make the veto.  Weak classifier ``j`` vetoes: its lower
    leaf plus every other weak classifier's higher leaf, added in float64 in
    stage order, stays below the stage threshold, so (IEEE addition being
    monotone) no window that takes that leaf passes.  And the sum's sign
    fixes that leaf: sigma * area > 0 on every window, so a sum <= 0 votes
    left under a threshold > 0, and a sum >= 0 votes right under a
    threshold <= 0.  Leaves are finite (a ``Cascade`` rule), so the bound
    is never NaN.
    """
    total = 0.0
    for i, wk in enumerate(st.weak):
        total += (min if i == j else max)(wk.left_value, wk.right_value)
    if total >= st.stage_threshold:
        return 0
    wk = st.weak[j]
    if wk.left_value < wk.right_value and wk.threshold > 0:
        return 1
    if wk.right_value < wk.left_value and wk.threshold <= 0:
        return -1
    return 0


def _sign_cut(st: Stage, magnitude: int) -> int:
    """The veto of the first weak classifier (``_veto_sign(st, 0)``) where a
    band can read it in int32, else 0.  ``magnitude`` is sum(|weight| * 255
    * area) over that feature's scaled, clipped parts at the plan's size.
    The cut adds the taps over an int32 view of the integral table, modulo
    2**32, which gives the true sum whenever ``magnitude`` is below 2**31.
    """
    return _veto_sign(st, 0) if magnitude < _INT32_BOUND else 0


def _compile_size(c: Cascade, win_w: int, win_h: int) -> _SizePlan:
    """Scale the part table to a ``win_w`` x ``win_h`` window and sum each
    part's four corners with +-weight per (feature, dy, dx), exactly in one
    ``np.unique`` and ``bincount``; zero sums drop.  One zero-padded table
    holds feature f's sorted taps in row f (a feature whose corners all
    cancel reads one zero tap).  Strided reads are grouped into terms, and
    gathers are cut from the table."""
    x, y, w, h = _scaled_parts(c._parts, win_w / c.base_w, win_w, win_h).T
    feature, k = c._parts[:, 0], c._parts[:, 6]
    key = ((np.tile(feature, 4) * (win_h + 1) + np.concatenate([y, y, y + h, y + h]))
           * (win_w + 1) + np.concatenate([x, x + w, x, x + w]))
    key, corner = np.unique(key, return_inverse=True)
    coef = np.bincount(corner, np.concatenate([k, -k, -k, k])).astype(np.int64)
    key, coef = key[coef != 0], coef[coef != 0]
    fi, yx = np.divmod(key, (win_h + 1) * (win_w + 1))
    n = np.bincount(fi, minlength=len(c.features))
    taps = np.zeros((len(c.features), max(1, n.max()), 3), dtype=np.int64)
    taps[fi, np.arange(len(fi)) - np.searchsorted(fi, fi)] = \
        np.column_stack([*np.divmod(yx, win_w + 1), coef])
    (f0, *rest), *later = [[wk.feature_index for wk in st.weak] for st in c.stages]
    cut = feature == f0
    keep_sign = _sign_cut(c.stages[0], int((np.abs(k[cut]) * 255 * w[cut] * h[cut]).sum()))
    reads = [(0, _terms(taps[f, :max(1, n[f])].tolist())) for f in [f0, *rest]]
    if keep_sign:
        strided = reads[:1]
    else:
        window = (((0, 1), (win_h, -1)), ((0, 1), (win_w, -1))),
        strided = [(0, window), (1, window)] + reads
    return _SizePlan(Rect(0, 0, win_w, win_h), keep_sign, tuple(strided),
                     (_gather(taps, n, rest) if keep_sign else None,
                      *(_gather(taps, n, f) for f in later)))


def _size_plan(c: Cascade, win_w: int, win_h: int) -> _SizePlan:
    """The plan of ``c`` at one window size, compiled on first use and kept
    in ``c._plans`` while the cascade lives; its ``keep_sign`` is nonzero
    when stage 0 has a sign cut.  Two threads that miss at once both compile
    the size; the plans are equal, so either may stay."""
    plan = c._plans.get((win_w, win_h))
    if plan is None:
        plan = c._plans[win_w, win_h] = _compile_size(c, win_w, win_h)
    return plan


# windows per row band of one size's grid, and candidates per batch of
# bands: scratch buffers of 256 KiB apiece stay in cache instead of faulting
# in fresh pages for whole-grid arrays
_BAND_WINDOWS = 32768


def _fold(out: np.ndarray, reads: list[tuple[np.ndarray, int]], fresh: bool) -> None:
    """``out`` += (or, when ``fresh``, =) the sum of k * v over the (v, k)
    ``reads``, in ``out``'s dtype: exact integers, modulo 2**32 in int32.
    Integer sums do not depend on their order, so coefficients other than
    +-1 come first, where a fresh ``out`` takes one without a temporary."""
    for i, (v, k) in enumerate(sorted(reads, key=lambda r: abs(r[1]) == 1)):
        if fresh and not i:
            np.multiply(v, k, out=out)
        elif k == 1:
            np.add(out, v, out=out)
        elif k == -1:
            np.subtract(out, v, out=out)
        else:
            out += v * k


def _grid_sum(acc: np.ndarray, table: np.ndarray, terms: _Terms, stride: int) -> np.ndarray:
    """``acc`` = the terms' sum at every origin of the ``acc.shape`` grid at
    ``stride``, read as strided slices of ``table``, in ``acc``'s dtype;
    returns ``acc`` flattened.

    A term with fewer rows plus columns than taps is read in two passes:
    its rows, summed at the stride over every column of the span that its
    columns reach, into one scratch of the band's rows x that span, then
    its columns, read from the scratch at the stride.  Any other term (a
    window's 2 x 2 corners, a lone row) is read tap by tap.  In int32 a
    row sum may wrap while the total stays exact modulo 2**32.
    """
    ny, nx = acc.shape
    sy, sx = (ny - 1) * stride + 1, (nx - 1) * stride + 1
    for i, (rows, cols) in enumerate(terms):
        if len(rows) + len(cols) < len(rows) * len(cols):
            lo = cols[0][0]
            span = sx + cols[-1][0] - lo
            part = np.empty((ny, span), dtype=acc.dtype)
            _fold(part, [(table[dy:dy + sy:stride, lo:lo + span], a) for dy, a in rows], True)
            reads = [(part[:, dx - lo:dx - lo + sx:stride], b) for dx, b in cols]
        else:
            reads = [(table[dy:dy + sy:stride, dx:dx + sx:stride], a * b)
                     for dy, a in rows for dx, b in cols]
        _fold(acc, reads, i == 0)
    return acc.reshape(-1)


def _sigma_area(s1: np.ndarray, s2: np.ndarray, area: np.ndarray) -> np.ndarray:
    """sigma * area per window from the int64 sums of its pixels ``s1`` and
    squared pixels ``s2``: ``_variance_denominator``'s float64 operations in
    its order, sigma falling back to 1 where the variance is not positive."""
    mean = s1 / area
    var = s2 / area - mean * mean
    return np.sqrt(var, out=np.ones_like(var), where=var > 0) * area


def _votes(st: Stage, raw, denom: np.ndarray) -> np.ndarray:
    """The stage's score per window from each weak classifier's integer
    sums in ``raw``, in weak order: one float64 addition per window and
    weak classifier, as in eval_window."""
    score = np.zeros(len(denom))
    for sums, wk in zip(raw, st.weak):
        score += np.where(sums / denom < wk.threshold, wk.left_value, wk.right_value)
    return score


class _Band(NamedTuple):
    """A band's candidates, read through its size plan for ``_walk_batch``."""
    plan: _SizePlan
    base: np.ndarray  # flat offsets of the candidates' origins in a table plane
    sums: np.ndarray  # int64 x candidates: without a cut, s1 and s2; then
                      # stage 0's weak classifiers in weak order


def _walk_band(plan: _SizePlan, tables: np.ndarray, ii32: np.ndarray,
               y0: int, ny: int, nx: int, stride: int) -> _Band:
    """The per-band part of the stage walk (see ``_walk_batch``) over an
    ``ny`` x ``nx`` band of origins whose first row is table row ``y0``.

    ``tables`` is the (2, rows, cols) block of ``ii`` and ``sq``, and
    ``ii32`` is ``ii`` modulo 2**32, as int32.  Both read ``plan.strided``
    through ``_grid_sum``.  With a sign cut, the cut feature is summed over
    ``ii32`` into int32, the windows whose sum has the vetoing sign are
    dropped, and one gather of ``ii`` reads the survivors' sums of stage
    0's other features; their s1 and s2 wait for the batch, which reads
    them only for the candidates that its vetoes keep.  Without a cut, every
    window is a candidate, and s1, s2 and each of stage 0's features are
    summed over ``ii`` and ``sq`` into int64.
    """
    cols = tables.shape[2]
    if plan.keep_sign:
        cut = _grid_sum(np.empty((ny, nx), dtype=np.int32), ii32[y0:], plan.strided[0][1],
                        stride)
        alive = np.flatnonzero(cut > 0 if plan.keep_sign > 0 else cut < 0)
        iy, ix = np.divmod(alive, nx)
        base = (iy * stride + y0) * cols + ix * stride
        return _Band(plan, base, np.concatenate([cut[alive][None],
                                                 _gather_sums(plan.gathers[0], base, tables[0])]))
    base = (np.arange(y0, y0 + ny * stride, stride)[:, None] * cols
            + np.arange(0, nx * stride, stride)).reshape(-1)
    sums = np.empty((len(plan.strided), ny, nx), dtype=np.int64)
    for acc, (plane, terms) in zip(sums, plan.strided):
        _grid_sum(acc, tables[plane, y0:], terms, stride)
    return _Band(plan, base, sums.reshape(len(sums), -1))


def _window_sums(tables: np.ndarray, base: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """s1 and s2, the int64 sums of each window's pixels and squared pixels,
    as a 2 x n block, from the four ``corners`` offsets (4 x n: top-left,
    top-right, bottom-left, bottom-right) past each flat origin ``base``,
    one ``take`` per plane of ``tables``, the (2, rows, cols) block of
    ``ii`` and ``sq``."""
    idx = corners + base
    out = np.empty((2, len(base)), dtype=np.int64)
    for plane, s in zip(tables.reshape(2, -1), out):
        t = plane.take(idx)
        np.subtract(t[0], t[1], out=s)
        s -= t[2]
        s += t[3]
    return out


def _walk_batch(stages: tuple[Stage, ...], vetoes: list[tuple[int, int]],
                bands: list[_Band], tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk through ``stages`` over a batch of bands of one scan, in scan order;
    their accepted windows, in that order (scale, then y, then x), as a
    ``(boxes, score)`` pair: int64 ``n`` x 4 rows of x, y, w, h, and the
    float64 score of each.

    The walk has two parts.  ``_walk_band`` reads each band through its
    size plan: it keeps the band's candidates, all of its windows or the
    survivors of its sign cut, as flat table offsets, with the integer sums
    of stage 0's features and, without a cut, of their window (s1) and
    squared window (s2).  ``detect_multiscale`` collects the bands in scan
    order into batches of at most ``_BAND_WINDOWS`` candidates (a band is
    never split), whatever their sizes.  This batch part classifies a
    batch's candidates at once, each carrying the index of its band.  It
    first drops every candidate whose sum for a weak classifier in
    ``vetoes``, stage 0's (index, ``_veto_sign``) pairs, has the vetoing
    sign: one compare per vetoing weak classifier, exact by ``_veto_sign``'s
    argument, as sigma * area > 0.  The survivors then take their s1 and
    s2, from the bands' strided reads when no band of the batch has a cut,
    and otherwise from one ``_window_sums`` gather whose corner offsets
    come from each candidate's band size, and one ``_sigma_area`` with a
    per-window area.  One loop over every stage follows, whose ``_votes``
    and threshold test drop the candidates that fail it, until none is
    left.  Stage 0 votes on the bands' sums; each later stage gathers its
    merged corners once per band that still has candidates.
    Strided and gathered reads give the same integers, and every window is
    scored on its own, so a window's result depends neither on how it was
    read nor on the batch it was in.  One ``np.divmod`` turns the accepted
    offsets into origins, and each band's index its window size; no
    ``Detection`` is built here.
    """
    band = np.repeat(np.arange(len(bands)), [len(b.base) for b in bands])
    base = np.concatenate([b.base for b in bands])
    m = len(stages[0].weak)
    strided = not any(b.plan.keep_sign for b in bands)  # every band read s1 and s2
    sums = np.concatenate([b.sums if strided else b.sums[-m:] for b in bands], axis=1)
    if vetoes:
        keep = np.ones(len(base), dtype=bool)
        for j, sign in vetoes:
            keep &= sums[j - m] > 0 if sign > 0 else sums[j - m] < 0
        keep = np.flatnonzero(keep)
        band, base, sums = band.take(keep), base.take(keep), sums.take(keep, axis=1)
    cols = tables.shape[2]
    w, h = np.array([(b.plan.win.w, b.plan.win.h) for b in bands], dtype=np.int64).T
    if strided:
        s1, s2 = sums[:2]
    else:
        corners = np.stack([np.zeros_like(w), w, h * cols, h * cols + w])
        s1, s2 = _window_sums(tables, base, corners.take(band, axis=1))
    denom = _sigma_area(s1, s2, (w * h).astype(np.float64).take(band))
    raw = sums[-m:]
    for si, st in enumerate(stages):
        if si:
            cuts = np.searchsorted(band, np.arange(len(bands) + 1)).tolist()
            raw = np.concatenate([_gather_sums(b.plan.gathers[si], base[lo:hi], tables[0])
                                  for b, lo, hi in zip(bands, cuts, cuts[1:]) if hi > lo], axis=1)
        score = _votes(st, raw, denom)
        keep = score >= st.stage_threshold
        band, base, denom, score = band[keep], base[keep], denom[keep], score[keep]
        if not len(base):
            break
    ys, xs = np.divmod(base, cols)
    return np.column_stack([xs, ys, w[band], h[band]]), score


def detect_multiscale(c: Cascade, img: GrayImage, p: ScanParams) -> Windows:
    """Scan the window ladder over the image; all accepted windows, ungrouped,
    as one ``Windows``: the batches' arrays joined, with no ``Detection``
    built until one is read.

    Output order is deterministic: scale ascending, then y, then x.  The
    vectorized stage walk reproduces eval_window exactly (the same integer
    feature sums, then the same float64 operations in the same order), so
    per-window results agree bit for bit.

    Every size of the ladder takes its cached size plan, compiled on first
    use.  Each size's windows form an ``ny`` x ``nx`` grid of origins at the
    stride, cut into row bands of at most ``_BAND_WINDOWS`` windows (at
    least one row), which the calling thread reads in turn from the top;
    ``ii32`` is the scan's one int32 view of the table for the sign cut.
    The bands' candidates are classified in batches across sizes, as
    ``_walk_batch`` describes, after the vetoes of stage 0's weak
    classifiers; neither the bands nor the batches can change a result.
    """
    ip = integral(img)
    ii32 = ip.ii.astype(np.uint32).view(np.int32)  # modulo 2**32, whatever the byte order
    first = c.stages[0]
    vetoes = [(j, sign) for j in range(len(first.weak)) if (sign := _veto_sign(first, j))]
    found: list[tuple[np.ndarray, np.ndarray]] = []
    bands: list[_Band] = []
    held = 0
    for win_w, win_h in _scan_sizes(c, img.width, img.height, p):
        plan = _size_plan(c, win_w, win_h)
        stride = max(1, _round_half_up(win_w / p.step_divisor))
        nx = (img.width - win_w) // stride + 1
        ny = (img.height - win_h) // stride + 1
        rows = max(1, _BAND_WINDOWS // nx)
        for r0 in range(0, ny, rows):
            band = _walk_band(plan, ip.tables, ii32, r0 * stride, min(rows, ny - r0), nx, stride)
            if held and held + len(band.base) > _BAND_WINDOWS:
                found.append(_walk_batch(c.stages, vetoes, bands, ip.tables))
                bands, held = [], 0
            bands.append(band)
            held += len(band.base)
    if held:
        found.append(_walk_batch(c.stages, vetoes, bands, ip.tables))
    if not found:
        return Windows(np.empty((0, 4), dtype=np.int64), np.empty(0))
    boxes, score = zip(*found)
    return Windows(np.concatenate(boxes), np.concatenate(score))


# frontier boxes tested per step; bounds the int32/float64 temporaries to
# _GROUP_ROWS x n whatever the detection count
_GROUP_ROWS = 64


def group_detections(dets: Sequence[Detection], min_neighbors: int = 3,
                     eps: float = 0.2) -> list[Detection]:
    """Cluster similar boxes into connected components; small clusters are dropped.

    ``dets`` is a scan's ``Windows``, read as its arrays, or any sequence of
    ``Detection``s, turned into such arrays once; boxes must lie within
    ``MAX_DIM`` x ``MAX_DIM``, as a scan's do.  Boxes a and b are similar
    when x, y, w and h each differ by at most
    eps * (a.w + a.h + b.w + b.h) / 4 (OpenCV's ``groupRectangles`` rule);
    a cluster is a connected component of that relation, so a chain of
    similar boxes is one cluster.  Clusters come out ordered by their
    smallest member index.  The representative box is the rounded mean of
    (x, y, right, bottom) so it stays inside the cluster's convex bounds;
    its ``score`` is the best member score and ``neighbors`` the cluster
    population.  ``gated.detect_grouped`` runs it after each scan.

    Each cluster grows from the first box not yet clustered: every round
    tests the boxes it gained last round, ``_GROUP_ROWS`` at a time, against
    the boxes still unclustered, so memory stays ``_GROUP_ROWS`` x n.  A
    block's test is exact in int32, as every coordinate and every sum of
    four of them stays below 2**31 within ``MAX_DIM``: the largest of the
    four differences is compared once with (a.w + a.h + b.w + b.h) * (eps /
    4).  That product is the rule's eps * (...) / 4, as scaling by a power
    of two is exact; below the normal range both are under 1, and an
    integer difference passes either only when it is 0.
    """
    _grouping_rules(min_neighbors, eps)
    if not isinstance(dets, Windows):
        dets = Windows(np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                                dtype=np.int64).reshape(-1, 4),
                       np.array([d.score for d in dets], dtype=np.float64))
    boxes, score = dets.boxes, dets.score
    corners = np.concatenate([boxes[:, :2], boxes[:, :2] + boxes[:, 2:]], axis=1)
    if len(corners) and corners.max() > MAX_DIM:
        raise ValueError(f"boxes must lie within {MAX_DIM}x{MAX_DIM}, "
                         f"got a corner at {corners.max()}")
    x, y, w, h = np.ascontiguousarray(boxes.T, dtype=np.int32)
    s = w + h
    scale = eps / 4.0
    rest = np.arange(len(boxes))
    out = []
    while len(rest):
        frontier, rest = rest[:1], rest[1:]
        members = [frontier]
        while len(frontier) and len(rest):
            grown = []
            for i0 in range(0, len(frontier), _GROUP_ROWS):
                f = frontier[i0:i0 + _GROUP_ROWS, None]
                m = np.abs(x[f] - x[rest])
                for v in (y, w, h):
                    d = v[f] - v[rest]
                    np.maximum(m, np.abs(d, out=d), out=m)
                hit = (m <= (s[f] + s[rest]) * scale).any(axis=0)
                grown.append(rest[hit])
                rest = rest[~hit]
            frontier = np.concatenate(grown)
            members.append(frontier)
        members = np.concatenate(members)
        k = len(members)
        if k < min_neighbors + 1:
            continue
        bx, by, br, bb = (_round_half_up(v / k) for v in corners[members].sum(axis=0).tolist())
        out.append(Detection(Rect(bx, by, br - bx, bb - by),
                             score[members].max().item(), neighbors=k))
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
    if not _is_int(v, minimum):
        raise CascadeFormatError(f"{path}: expected an int of at least {minimum}, got {v!r}")
    return v


def _real(v, path: str) -> float:
    # json.loads accepts NaN and +-Infinity literals; they end here
    if not _is_finite(v):
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
    except (ValueError, RecursionError) as e:  # over the interpreter's digit or depth limit
        raise CascadeFormatError(f"$: {e}") from e


# --- canonical JSON form ----------------------------------------------------

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
        kind_name = _str(fobj["kind"], f"{path}.kind")
        try:
            kind = FeatureKind(kind_name)
        except ValueError:
            raise CascadeFormatError(f"{path}.kind: unknown kind {kind_name!r}") from None
        parts = []
        for pi, pobj in enumerate(_array(fobj["parts"], f"{path}.parts", 2, 4)):
            ppath = f"{path}.parts[{pi}]"
            _obj(pobj, ppath, required=("x", "y", "w", "h", "weight"))
            rect = Rect(*(_int(pobj[k], f"{ppath}.{k}", low)
                          for k, low in (("x", 0), ("y", 0), ("w", 1), ("h", 1))))
            parts.append(FeaturePart(rect, _real(pobj["weight"], f"{ppath}.weight")))
        features.append(_build(path, HaarFeature, kind, tuple(parts)))

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
            {"kind": f.kind.value,
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
    return json.dumps(doc, indent=1, default=np.generic.item)  # numpy scalars as Python ones


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
        features.append(HaarFeature(FeatureKind.of(len(parts)), tuple(parts)))

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
