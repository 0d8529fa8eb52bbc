"""Physical and controller parameters for the stop-control simulation."""

from __future__ import annotations

import math
from typing import NamedTuple

# The run loop keeps one trajectory row per step, about 50 bytes in the
# trajectory's columns, so about 50 MB for a run of MAX_STEPS; a longer
# run is refused at config time rather than left to fill memory.
MAX_STEPS = 1_000_000


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


class CheckedRecord:
    """Base of a NamedTuple record that is checked when it is made.

    A record is class R(CheckedRecord, _RFields): _RFields declares the
    fields and their defaults, and R._check raises for malformed fields.
    _replace builds through _make, and _make through __new__, so no
    record skips the check.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A call with an unknown field names the record, not its fields.
        cls.__bases__[-1].__new__.__qualname__ = f"{cls.__name__}.__new__"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TrainFields(NamedTuple):
    p0: float = -100.0       # initial position, meters (stop point at 0)
    v0: float = 10.0         # initial speed, m/s
    alpha_max: float = -1.0  # strongest achievable braking, m/s^2
    Td: float = 0.6          # actuation dead time, seconds
    Tp: float = 0.4          # first-order lag constant, seconds
    dt: float = 0.01         # integration step, seconds


class TrainParams(CheckedRecord, _TrainFields):
    """The train's physical parameters, checked when they are made.

    A scenario's train sets p0, v0, alpha_max, Td, Tp and dt, and each one
    changes the run. The 0.3 m stop-error tolerance is how runs are
    judged, not a setting, so it is no field.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not all(is_finite_number(value) for value in self):
            raise ValueError("train parameters must be finite numbers")
        if self.alpha_max >= 0:
            raise ValueError("alpha_max must be negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.Td < 0 or self.Tp < 0:
            raise ValueError("Td and Tp must be non-negative")
        if self.v0 < 0:
            raise ValueError("v0 must be non-negative")


class PidGains(NamedTuple):
    kp: float
    ki: float
    kd: float


# Dual-PID conservative controller gains.
PID1 = PidGains(kp=0.8423, ki=0.0648, kd=0.4082)
PID2 = PidGains(kp=0.0377, ki=0.0002, kd=0.2205)

# Controller defaults: the values the bundled stop-error table was frozen
# under, not the optimum of a criterion (README "Calibration" sweeps
# both).  ETA0 is the online controller's initial learning weight;
# V_CREEP sets the crawl speed of the conservative controller and with it
# the post-marker overshoot.
ETA0 = 0.85
V_CREEP = 0.34
