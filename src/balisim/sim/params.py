"""Physical and controller parameters for the stop-control simulation."""

from __future__ import annotations

import math
from typing import NamedTuple


def is_finite_number(value) -> bool:
    """True for an int or a float that is finite as a float, not a bool.

    json.load reads true as True, which math takes as 1, and an integer
    of any size as an int, which math.isfinite may not convert.
    """
    if type(value) is bool or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


class _TrainFields(NamedTuple):
    p0: float         # initial position, meters (stop point at 0)
    v0: float         # initial speed, m/s
    alpha_max: float  # strongest achievable braking, m/s^2
    gamma: float      # allowable stop error, meters
    Td: float         # actuation dead time, seconds
    Tp: float         # first-order lag constant, seconds
    dt: float         # integration step, seconds


class TrainParams(_TrainFields):
    """The train's physical parameters, checked when they are made."""

    __slots__ = ()

    def __new__(cls, p0=-100.0, v0=10.0, alpha_max=-1.0, gamma=0.3, Td=0.6,
                Tp=0.4, dt=0.01):
        self = super().__new__(cls, p0, v0, alpha_max, gamma, Td, Tp, dt)
        if not all(is_finite_number(value) for value in self):
            raise ValueError("train parameters must be finite numbers")
        if self.alpha_max >= 0:
            raise ValueError("alpha_max must be negative")
        if self.gamma <= 0 or self.dt <= 0:
            raise ValueError("gamma and dt must be positive")
        if self.Td < 0 or self.Tp < 0:
            raise ValueError("Td and Tp must be non-negative")
        if self.v0 < 0:
            raise ValueError("v0 must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it runs the checks too.
        return cls(*iterable)


class PidGains(NamedTuple):
    kp: float
    ki: float
    kd: float


# Dual-PID conservative controller gains.
PID1 = PidGains(kp=0.8423, ki=0.0648, kd=0.4082)
PID2 = PidGains(kp=0.0377, ki=0.0002, kd=0.2205)

# Calibrated controller defaults. ETA0 centers the stop errors of the
# baseline and attack trajectories; V_CREEP sets the crawl speed of the
# conservative controller and with it the post-marker overshoot.
ETA0 = 0.85
V_CREEP = 0.34
