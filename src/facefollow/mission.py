"""Mission state machine: tracking, hover, and the failsafe abort ladder.

Low battery or a remote stop request aborts tracking: climb to a fixed
height above the takeoff point, fly home, land, done.  The ladder is
irreversible; once a failsafe leg starts the vision loop no longer steers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .imaging import _check, _is_finite
from .tracker import VelocityCommand


class MissionPhase(enum.Enum):
    TRACKING = "tracking"
    HOVER = "hover"
    FAILSAFE_ASCEND = "failsafe_ascend"
    FAILSAFE_RETURN = "failsafe_return"
    FAILSAFE_LAND = "failsafe_land"
    ENDED = "ended"


FAILSAFE_PHASES = (MissionPhase.FAILSAFE_ASCEND, MissionPhase.FAILSAFE_RETURN,
                   MissionPhase.FAILSAFE_LAND)


@dataclass(frozen=True)
class Ned:
    """North-east-down position in meters."""

    n: float
    e: float
    d: float

    @property
    def altitude(self) -> float:
        return -self.d

    @property
    def finite(self) -> bool:  # every component: the position has a fix
        return _is_finite(self.n) and _is_finite(self.e) and _is_finite(self.d)


@dataclass(frozen=True)
class VehicleStatus:
    battery_voltage: float
    user_stop: bool
    position: Ned
    target_visible: bool = True  # drives the tracking/hover split

    def __post_init__(self):
        if _is_finite(self.battery_voltage) and self.battery_voltage < 0:
            raise ValueError(f"battery_voltage cannot be negative, got {self.battery_voltage!r}")


@dataclass(frozen=True)
class MissionState:
    phase: MissionPhase
    home: Ned            # takeoff point (ground)
    takeoff_alt: float   # altitude of the takeoff point, meters


@dataclass(frozen=True)
class MissionConfig:
    batt_min: float = 21.0          # 3.5 V/cell floor for a 6s pack
    failsafe_alt_gain: float = 5.0  # climb this far above the takeoff point
    land_alt_eps: float = 0.05
    pos_eps: float = 0.2
    climb_speed: float = 0.5
    return_speed: float = 0.5
    descend_speed: float = 0.5

    def __post_init__(self):
        _check("finite and positive", self, "land_alt_eps", "pos_eps", "climb_speed",
               "return_speed", "descend_speed")
        _check("finite and non-negative", self, "batt_min", "failsafe_alt_gain")


def step_mission(s: MissionState, status: VehicleStatus, cfg: MissionConfig,
                 dt: float) -> tuple[MissionState, VelocityCommand | None]:
    """Advance the mission automaton one tick of ``dt`` seconds.

    Returns the new state and a directive for the flight layer: None while
    the vision tracker is in charge (tracking/hover), otherwise the failsafe
    velocity override.  Directive magnitudes are capped so each leg stops
    inside its epsilon within one tick instead of oscillating across it.
    A failsafe leg that reads a non-finite position component (no position
    fix) lands in place at ``descend_speed``, as ArduPilot's EKF failsafe
    does, and does not end until a finite altitude reaches the ground;
    tracking and hover do not read the position.
    """
    _check("finite and positive", {"dt": dt})
    phase = s.phase
    alt = status.position.altitude
    target_alt = s.takeoff_alt + cfg.failsafe_alt_gain

    if phase in (MissionPhase.TRACKING, MissionPhase.HOVER):
        # a reading that is not a finite number fails safe, never passes as charged
        v = status.battery_voltage
        if not (_is_finite(v) and v >= cfg.batt_min) or status.user_stop:
            phase = MissionPhase.FAILSAFE_ASCEND
        else:
            phase = (MissionPhase.TRACKING if status.target_visible
                     else MissionPhase.HOVER)
            return replace(s, phase=phase), None

    if phase in FAILSAFE_PHASES and not status.position.finite:
        return (replace(s, phase=MissionPhase.FAILSAFE_LAND),
                VelocityCommand(0.0, 0.0, cfg.descend_speed))

    if phase is MissionPhase.FAILSAFE_ASCEND:
        # "position at takeoff + gain": approached from below or, if the
        # vehicle was already higher, from above
        if abs(alt - target_alt) <= cfg.pos_eps:
            phase = MissionPhase.FAILSAFE_RETURN
        else:
            gap = target_alt - alt
            rate = min(cfg.climb_speed, abs(gap) / dt)
            return replace(s, phase=phase), VelocityCommand(
                0.0, 0.0, -rate if gap > 0 else rate)

    if phase is MissionPhase.FAILSAFE_RETURN:
        dn = s.home.n - status.position.n
        de = s.home.e - status.position.e
        dist = math.hypot(dn, de)
        if dist <= cfg.pos_eps:
            phase = MissionPhase.FAILSAFE_LAND
        else:
            rate = min(cfg.return_speed, dist / dt)
            return (replace(s, phase=phase),
                    VelocityCommand(rate * dn / dist, rate * de / dist, 0.0))

    if phase is MissionPhase.FAILSAFE_LAND:
        ground = alt - s.takeoff_alt
        if ground <= cfg.land_alt_eps:
            phase = MissionPhase.ENDED
        else:
            rate = min(cfg.descend_speed, ground / dt)
            return replace(s, phase=phase), VelocityCommand(0.0, 0.0, rate)

    return replace(s, phase=MissionPhase.ENDED), VelocityCommand(0.0, 0.0, 0.0)
