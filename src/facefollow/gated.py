"""Two-step gated detection: faces are searched only inside upper-body hits.

Running the face cascade over the whole frame invites false positives;
restricting it to regions that already look like an upper body suppresses
them, and guarantees by construction that every face box is contained in a
body box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cascade import Cascade, Detection, ScanParams, detect_multiscale, group_detections
from .imaging import GrayImage, Rect, _round_half_up

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


@dataclass
class GateParams:
    """Scan settings of the two steps.

    ``face_scan.min_size`` is ignored: each body's face scan starts at
    ``max(face base width, face_min_fraction * body width)``.
    """

    body_scan: ScanParams = field(default_factory=ScanParams)
    face_scan: ScanParams = field(default_factory=ScanParams)
    face_min_fraction: float = 0.2  # min face width as a fraction of body width

    def __post_init__(self):
        if not 0.0 < self.face_min_fraction <= 1.0:
            raise ValueError(
                f"face_min_fraction must lie in (0, 1], got {self.face_min_fraction}")


def detect_gated(body_c: Cascade, face_c: Cascade, img: GrayImage,
                 p: GateParams | None = None) -> list[GatedDetection]:
    """Detect grouped upper bodies, then the largest face inside each.

    The face scan runs on the cropped body region with its minimum window
    width raised to face_min_fraction of the body width; face boxes are
    mapped back to full-image coordinates.  At most one face (largest area,
    ties to the topmost-leftmost) is kept per body.
    """
    p = p or GateParams()
    bodies_raw = detect_multiscale(body_c, img, p.body_scan)
    bodies = group_detections(bodies_raw, p.body_scan.min_neighbors, p.body_scan.eps)

    out: list[GatedDetection] = []
    for body in bodies:
        min_w = max(face_c.base_w,
                    _round_half_up(p.face_min_fraction * body.box.w))
        scan = replace(p.face_scan, min_size=min_w)
        faces = group_detections(detect_multiscale(face_c, img.crop(body.box), scan),
                                 scan.min_neighbors, scan.eps)
        if not faces:
            continue
        best = max(faces, key=lambda d: (d.box.area, -d.box.y, -d.box.x))
        placed = Rect(body.box.x + best.box.x, body.box.y + best.box.y,
                      best.box.w, best.box.h)
        out.append(GatedDetection(body, Detection(placed, best.stages_passed,
                                                  best.score, best.neighbors)))
    return out


def select_target(dets: list[GatedDetection]) -> GatedDetection | None:
    """Pick the entry with the largest face area; ties go to smallest (y, x)."""
    if not dets:
        return None
    return min(dets, key=lambda d: (-d.face.box.area, d.face.box.y, d.face.box.x))
