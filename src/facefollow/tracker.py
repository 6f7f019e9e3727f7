"""Zone-based velocity control: centroid error bands to body-frame commands.

The image is carved into a central dead zone, a slow band and a fast band
per axis.  Lateral position maps to roll speed, vertical to thrust, and
the detected box width decides whether to pitch forward to close distance.
Speeds are discrete per band, not proportional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ._rules import _check
from .cascade import Detection


class HorizZone(enum.Enum):
    CENTER = "center"
    SLOW_LEFT = "slow_left"
    SLOW_RIGHT = "slow_right"
    FAST_LEFT = "fast_left"
    FAST_RIGHT = "fast_right"


class VertZone(enum.Enum):
    CENTER = "center"
    SLOW_UP = "slow_up"
    SLOW_DOWN = "slow_down"
    FAST_UP = "fast_up"
    FAST_DOWN = "fast_down"


@dataclass(frozen=True)
class Zone:
    horiz: HorizZone
    vert: VertZone

    @property
    def centered(self) -> bool:
        return self.horiz is HorizZone.CENTER and self.vert is VertZone.CENTER


@dataclass(frozen=True)
class VelocityCommand:
    """Body-frame NED velocity: +vx forward, +vy right, +vz down (m/s)."""

    vx: float
    vy: float
    vz: float

    def is_zero(self) -> bool:
        return self.vx == 0.0 and self.vy == 0.0 and self.vz == 0.0


@dataclass(frozen=True)
class TrackerConfig:
    dead_zone: float = 0.15        # normalized half-width of the zero-command region
    fast_threshold: float = 0.5    # |error| above this uses the fast speeds
    roll_s: float = 0.29
    roll_f: float = 0.8
    th_s: float = 0.22
    th_f: float = 0.5
    fwd_speed: float = 0.4
    width_far: float = 0.10        # advance when box width fraction drops below
    width_near: float = 0.18       # back off above this (if allowed); hysteresis band
    allow_backward: bool = False
    loop_dt: float = 0.25          # seconds per control tick (~4 Hz)

    def __post_init__(self):
        # numbers first, so that the orderings below compare numbers only,
        # and an infinite fast speed, which they pass, is refused
        _check("finite", self, "dead_zone", "fast_threshold", "roll_s", "roll_f", "th_s", "th_f",
               "width_far", "width_near")
        if not 0.0 < self.dead_zone < self.fast_threshold <= 1.0:
            raise ValueError(
                f"need 0 < dead_zone < fast_threshold <= 1, got "
                f"{self.dead_zone}, {self.fast_threshold}")
        if not 0.0 < self.roll_s <= self.roll_f:
            raise ValueError(f"need 0 < roll_s <= roll_f, got {self.roll_s}, {self.roll_f}")
        if not 0.0 < self.th_s <= self.th_f:
            raise ValueError(f"need 0 < th_s <= th_f, got {self.th_s}, {self.th_f}")
        if not 0.0 < self.width_far < self.width_near < 1.0:
            raise ValueError(
                f"need 0 < width_far < width_near < 1, got "
                f"{self.width_far}, {self.width_near}")
        _check("finite and non-negative", self, "fwd_speed")
        _check("finite and positive", self, "loop_dt")


def normalized_error(cx: float, cy: float, img_w: int, img_h: int) -> tuple[float, float]:
    """Centroid error scaled to [-1, 1] per axis; positive is right/down."""
    return ((cx - img_w / 2) / (img_w / 2), (cy - img_h / 2) / (img_h / 2))


def _band(e: float, cfg: TrackerConfig) -> int:
    """Error band signed like ``e``: 0 = dead zone, ±1 = slow, ±2 = fast;
    boundary values take the lower band."""
    a = abs(e)
    band = 0 if a <= cfg.dead_zone else 1 if a <= cfg.fast_threshold else 2
    return band if e > 0 else -band


# zones by signed band + 2, negative (left, up) to positive (right, down)
_HORIZ = (HorizZone.FAST_LEFT, HorizZone.SLOW_LEFT, HorizZone.CENTER,
          HorizZone.SLOW_RIGHT, HorizZone.FAST_RIGHT)
_VERT = (VertZone.FAST_UP, VertZone.SLOW_UP, VertZone.CENTER,
         VertZone.SLOW_DOWN, VertZone.FAST_DOWN)


def classify_zone(cx: float, cy: float, img_w: int, img_h: int,
                  cfg: TrackerConfig) -> Zone:
    """Zone of a pixel centroid under the config's error bands."""
    ex, ey = normalized_error(cx, cy, img_w, img_h)
    return Zone(_HORIZ[_band(ex, cfg) + 2], _VERT[_band(ey, cfg) + 2])


def centroid_of(box) -> tuple[float, float]:
    return (box.x + box.w / 2, box.y + box.h / 2)


def compute_command(target: Detection | None, img_w: int, img_h: int,
                    cfg: TrackerConfig) -> VelocityCommand:
    """Velocity command for the current detection; hover (zeros) when absent.

    Roll follows the horizontal band (sign toward the target), thrust the
    vertical band (+vz descends, matching a target below center), and the
    box-width fraction drives pitch forward inside a hysteresis band so the
    drone neither tailgates nor oscillates.
    """
    if target is None:
        return VelocityCommand(0.0, 0.0, 0.0)
    cx, cy = centroid_of(target.box)
    ex, ey = normalized_error(cx, cy, img_w, img_h)

    # by signed band + 2; the dead zone is +0.0, never -0.0
    vy = (-cfg.roll_f, -cfg.roll_s, 0.0, cfg.roll_s, cfg.roll_f)[_band(ex, cfg) + 2]
    vz = (-cfg.th_f, -cfg.th_s, 0.0, cfg.th_s, cfg.th_f)[_band(ey, cfg) + 2]

    ratio = target.box.w / img_w
    if ratio < cfg.width_far:
        vx = cfg.fwd_speed
    elif cfg.allow_backward and ratio > cfg.width_near:
        vx = -cfg.fwd_speed
    else:
        vx = 0.0
    return VelocityCommand(vx, vy, vz)
