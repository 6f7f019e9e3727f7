"""Two-step gated detection: faces are searched only inside upper-body hits.

Running the face cascade over the whole frame invites false positives;
restricting it to regions that already look like an upper body suppresses
them, and guarantees by construction that every face box is contained in a
body box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ._rules import _is_finite, _round_half_up
from .cascade import Cascade, Detection, ScanParams, detect_multiscale, group_detections
from .imaging import GrayImage, Rect

# RGB colours of body and face boxes on annotated frames
BODY_COLOR = (40, 220, 40)
FACE_COLOR = (220, 40, 40)


@dataclass(frozen=True)
class GatedDetection:
    body: Detection
    face: Detection  # full-image coordinates, box contained in body.box

    def __post_init__(self):
        if not self.body.box.contains(self.face.box):
            raise ValueError(f"face box {self.face.box} not inside body box {self.body.box}")


@dataclass(frozen=True)
class GateParams:
    """Scan settings of the two steps.

    ``face_scan.min_size`` must be ``None``: each body's face scan starts at
    ``max(face base width, face_min_fraction * body width)``.
    """

    body_scan: ScanParams = field(default_factory=ScanParams)
    face_scan: ScanParams = field(default_factory=ScanParams)
    face_min_fraction: float = 0.2  # min face width as a fraction of body width

    def __post_init__(self):
        if not (_is_finite(self.face_min_fraction) and 0.0 < self.face_min_fraction <= 1.0):
            raise ValueError(
                f"face_min_fraction must lie in (0, 1], got {self.face_min_fraction!r}")
        if self.face_scan.min_size is not None:
            raise ValueError(
                f"face_scan.min_size must be None (set per body by face_min_fraction), "
                f"got {self.face_scan.min_size}")


def _rank(box: Rect) -> tuple[int, int, int]:
    """``min`` key of the box ranking: largest area, ties to the topmost-leftmost,
    then to the first in order."""
    return (-box.area, box.y, box.x)


def detect_grouped(c: Cascade, img: GrayImage, p: ScanParams) -> list[Detection]:
    """Scan ``img`` with ``c`` and group the windows by ``p``'s grouping settings."""
    return group_detections(detect_multiscale(c, img, p), p.min_neighbors, p.eps)


def detect_gated(body_c: Cascade, face_c: Cascade, img: GrayImage,
                 p: GateParams | None = None) -> list[GatedDetection]:
    """Detect grouped upper bodies, then the largest face inside each.

    The face scan runs on the cropped body region with its minimum window
    width raised to face_min_fraction of the body width; face boxes are
    mapped back to full-image coordinates.  At most one face, the first by
    ``_rank``, is kept per body.
    """
    p = p or GateParams()
    out: list[GatedDetection] = []
    for body in detect_grouped(body_c, img, p.body_scan):
        min_w = max(face_c.base_w,
                    _round_half_up(p.face_min_fraction * body.box.w))
        faces = detect_grouped(face_c, img.crop(body.box),
                               replace(p.face_scan, min_size=min_w))
        if not faces:
            continue
        best = min(faces, key=lambda d: _rank(d.box))
        placed = Rect(body.box.x + best.box.x, body.box.y + best.box.y,
                      best.box.w, best.box.h)
        out.append(GatedDetection(body, replace(best, box=placed)))
    return out


def select_target(dets: list[GatedDetection]) -> GatedDetection | None:
    """The entry whose face comes first by ``_rank``; None when there is none."""
    return min(dets, key=lambda d: _rank(d.face.box), default=None)
