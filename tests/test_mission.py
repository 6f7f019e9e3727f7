import dataclasses
import math
import re

import pytest

from facefollow.mission import (FAILSAFE_PHASES, MissionConfig, MissionPhase,
                                MissionState, Ned, VehicleStatus, step_mission)
from facefollow.tracker import VelocityCommand

CFG = MissionConfig()
DT = 0.25
HOME = Ned(0.0, 0.0, 0.0)


def state(phase=MissionPhase.TRACKING):
    return MissionState(phase, HOME, takeoff_alt=0.0)


def status(volts=25.0, stop=False, pos=Ned(5.0, 1.0, -2.0), visible=True):
    return VehicleStatus(volts, stop, pos, target_visible=visible)


def oracle_next_phase(phase, st: VehicleStatus, cfg: MissionConfig,
                      home: Ned, takeoff_alt: float):
    """Independent transition table, written straight from the contract."""
    alt = -st.position.d
    target_alt = takeoff_alt + cfg.failsafe_alt_gain
    if phase in ("tracking", "hover"):
        if st.battery_voltage < cfg.batt_min or st.user_stop:
            return "failsafe_ascend"
        return "tracking" if st.target_visible else "hover"
    if phase == "failsafe_ascend":
        return ("failsafe_return" if alt >= target_alt - cfg.pos_eps
                else "failsafe_ascend")
    if phase == "failsafe_return":
        d = math.hypot(home.n - st.position.n, home.e - st.position.e)
        return "failsafe_land" if d <= cfg.pos_eps else "failsafe_return"
    if phase == "failsafe_land":
        return "ended" if alt - takeoff_alt <= cfg.land_alt_eps else "failsafe_land"
    return "ended"


class TestTransitions:
    def test_battery_low_triggers_failsafe(self):
        s, directive = step_mission(state(), status(volts=20.9), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_ASCEND
        assert directive is not None and directive.vz < 0  # climb order

    def test_nan_battery_triggers_failsafe(self):
        s, directive = step_mission(state(), status(volts=math.nan), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_ASCEND
        assert directive is not None and directive.vz < 0

    @pytest.mark.parametrize("volts", [math.inf, -math.inf, math.nan, 10**400, "x", None])
    @pytest.mark.parametrize("phase", [MissionPhase.TRACKING, MissionPhase.HOVER])
    def test_battery_reading_that_is_not_a_finite_number_fails_safe(self, phase, volts):
        """An inf reading no longer passes ">= batt_min" and tracks on forever."""
        s, directive = step_mission(state(phase), status(volts=volts), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_ASCEND
        assert directive is not None and directive.vz < 0

    def test_user_stop_triggers_failsafe(self):
        s, _ = step_mission(state(), status(stop=True), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_ASCEND

    def test_hover_on_lost_target_and_back(self):
        s, d = step_mission(state(), status(visible=False), CFG, DT)
        assert s.phase is MissionPhase.HOVER and d is None
        s, d = step_mission(s, status(visible=True), CFG, DT)
        assert s.phase is MissionPhase.TRACKING and d is None

    def test_ascend_reaches_five_meters_above_takeoff(self):
        # exactly at takeoff_alt + 5: hand over to the return leg
        s, directive = step_mission(state(MissionPhase.FAILSAFE_ASCEND),
                                    status(pos=Ned(5.0, 1.0, -5.0)), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_RETURN
        assert directive.vz == 0.0 and (directive.vx, directive.vy) != (0.0, 0.0)

    def test_return_hands_over_to_land_within_eps(self):
        s, directive = step_mission(state(MissionPhase.FAILSAFE_RETURN),
                                    status(pos=Ned(0.1, 0.0, -5.0)), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_LAND
        assert directive.vz > 0  # descend order

    def test_land_ends_at_ground(self):
        s, directive = step_mission(state(MissionPhase.FAILSAFE_LAND),
                                    status(pos=Ned(0.0, 0.0, -0.02)), CFG, DT)
        assert s.phase is MissionPhase.ENDED
        assert directive == type(directive)(0.0, 0.0, 0.0)

    def test_ended_is_absorbing(self):
        for st in (status(), status(volts=0.0), status(stop=True)):
            s, _ = step_mission(state(MissionPhase.ENDED), st, CFG, DT)
            assert s.phase is MissionPhase.ENDED

    def test_failsafe_is_irreversible(self):
        # battery recovering does not leave the ladder
        s, _ = step_mission(state(MissionPhase.FAILSAFE_ASCEND),
                            status(volts=26.0, pos=Ned(5, 1, -2)), CFG, DT)
        assert s.phase in FAILSAFE_PHASES


    @pytest.mark.parametrize("dt", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("phase,pos,gap,speed", [
        (MissionPhase.FAILSAFE_ASCEND, Ned(5.0, 1.0, -4.7), 0.3, "climb_speed"),
        (MissionPhase.FAILSAFE_RETURN, Ned(0.3, 0.4, -5.0), 0.5, "return_speed"),
        (MissionPhase.FAILSAFE_LAND, Ned(0.0, 0.0, -0.6), 0.6, "descend_speed"),
    ])
    def test_rate_capped_to_close_the_gap_in_one_tick(self, phase, pos, gap,
                                                       speed, dt):
        s, d = step_mission(state(phase), status(pos=pos), CFG, dt)
        assert s.phase is phase
        assert math.hypot(d.vx, d.vy, d.vz) == pytest.approx(
            min(getattr(CFG, speed), gap / dt))


    @pytest.mark.parametrize("dt", [0.0, -0.25, math.nan, math.inf])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            step_mission(state(MissionPhase.FAILSAFE_ASCEND), status(), CFG, dt)


class TestNonFinitePosition:
    """A failsafe leg without a position fix lands in place."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["n", "e", "d"])
    @pytest.mark.parametrize("phase", FAILSAFE_PHASES)
    def test_failsafe_leg_lands_and_never_ends(self, phase, axis, value):
        pos = dataclasses.replace(Ned(0.0, 0.0, -2.0), **{axis: value})
        s = state(phase)
        for _ in range(3):
            s, d = step_mission(s, status(pos=pos), CFG, DT)
            assert s.phase is MissionPhase.FAILSAFE_LAND
            assert d == VelocityCommand(0.0, 0.0, CFG.descend_speed)

    def test_failsafe_entered_without_a_fix_lands(self):
        s, d = step_mission(state(), status(volts=20.0, pos=Ned(0.0, 0.0, math.nan)), CFG, DT)
        assert s.phase is MissionPhase.FAILSAFE_LAND
        assert d == VelocityCommand(0.0, 0.0, CFG.descend_speed)

    @pytest.mark.parametrize("visible, phase", [(True, MissionPhase.TRACKING),
                                                (False, MissionPhase.HOVER)])
    def test_tracking_and_hover_ignore_the_position(self, visible, phase):
        pos = Ned(math.nan, math.inf, -math.inf)
        s, d = step_mission(state(), status(pos=pos, visible=visible), CFG, DT)
        assert s.phase is phase and d is None

    def test_ended_stays_ended(self):
        s, _ = step_mission(state(MissionPhase.ENDED), status(pos=Ned(math.nan, 0.0, 0.0)),
                            CFG, DT)
        assert s.phase is MissionPhase.ENDED


class TestFullRun:
    def test_ramp_down_walks_the_ladder_against_table_oracle(self):
        """Integrate the directives; phases must match the transition table."""
        cfg = MissionConfig()
        s = state()
        pos = Ned(6.0, 2.0, -2.0)
        volts = 22.0
        phases = [s.phase.value]
        for tick in range(400):
            volts = max(0.0, volts - 0.02)
            st = VehicleStatus(volts, False, pos, target_visible=True)
            want = oracle_next_phase(s.phase.value, st, cfg, HOME, 0.0)
            s, directive = step_mission(s, st, cfg, DT)
            assert s.phase.value == want
            phases.append(s.phase.value)
            if s.phase is MissionPhase.ENDED:
                break
            if directive is not None:
                pos = Ned(pos.n + directive.vx * DT, pos.e + directive.vy * DT,
                          pos.d + directive.vz * DT)
        order = [p for i, p in enumerate(phases) if i == 0 or p != phases[i - 1]]
        assert order == ["tracking", "failsafe_ascend", "failsafe_return",
                         "failsafe_land", "ended"]
        assert math.hypot(pos.n, pos.e) <= cfg.pos_eps
        assert -pos.d <= cfg.land_alt_eps

    def test_peak_altitude_within_tolerance(self):
        cfg = MissionConfig()
        s = state(MissionPhase.FAILSAFE_ASCEND)
        pos = Ned(4.0, 0.0, -1.5)
        peak = 1.5
        for _ in range(200):
            st = VehicleStatus(10.0, False, pos, target_visible=False)
            s, directive = step_mission(s, st, cfg, DT)
            if s.phase is MissionPhase.ENDED or directive is None:
                break
            pos = Ned(pos.n + directive.vx * DT,
                      pos.e + directive.vy * DT,
                      pos.d + directive.vz * DT)
            peak = max(peak, -pos.d)
        assert abs(peak - (0.0 + cfg.failsafe_alt_gain)) <= cfg.pos_eps

    def test_battery_low_reaches_ended_in_finite_steps_from_any_phase(self):
        cfg = MissionConfig()
        for phase in (MissionPhase.TRACKING, MissionPhase.HOVER,
                      MissionPhase.FAILSAFE_ASCEND, MissionPhase.FAILSAFE_RETURN,
                      MissionPhase.FAILSAFE_LAND):
            s = state(phase)
            pos = Ned(3.0, -2.0, -4.0)
            for _ in range(500):
                st = VehicleStatus(5.0, False, pos, target_visible=True)
                s, directive = step_mission(s, st, cfg, DT)
                if s.phase is MissionPhase.ENDED:
                    break
                if directive is not None:
                    pos = Ned(pos.n + directive.vx * DT,
                              pos.e + directive.vy * DT,
                              pos.d + directive.vz * DT)
            assert s.phase is MissionPhase.ENDED


@pytest.mark.parametrize("field,value", [
    ("climb_speed", -0.5), ("climb_speed", 0.0), ("return_speed", math.nan),
    ("descend_speed", -1.0), ("pos_eps", 0.0), ("land_alt_eps", -0.05),
    ("failsafe_alt_gain", -1.0), ("batt_min", math.nan),
])
def test_nonsensical_config_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        MissionConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MissionConfig)])
def test_config_fields_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and "):
        MissionConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("pos_eps", "1"), ("climb_speed", True), ("batt_min", None), ("return_speed", "fast"),
    ("batt_min", 10**400), ("failsafe_alt_gain", -10**400), ("descend_speed", 10**400),
])
def test_config_fields_must_be_numbers(field, value):
    """Not a TypeError from a comparison: the rule's own message."""
    message = f"^{field} must be finite and [a-z-]+, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        MissionConfig(**{field: value})


def test_zero_gain_and_floor_accepted():
    cfg = MissionConfig(failsafe_alt_gain=0.0, batt_min=0.0)
    assert (cfg.failsafe_alt_gain, cfg.batt_min) == (0.0, 0.0)


@pytest.mark.parametrize("volts", [-1.0, -1, -5e-324])
def test_negative_battery_rejected(volts):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"battery_voltage cannot be negative, got {volts!r}") + "$"):
        VehicleStatus(volts, False, HOME)
