"""Physical and controller parameters for the stop-control simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TrainParams:
    p0: float = -100.0      # initial position, meters (stop point at 0)
    v0: float = 10.0        # initial speed, m/s
    alpha_max: float = -1.0 # strongest achievable braking, m/s^2
    gamma: float = 0.3      # allowable stop error, meters
    Td: float = 0.6         # actuation dead time, seconds
    Tp: float = 0.4         # first-order lag constant, seconds
    dt: float = 0.01        # integration step, seconds

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("train parameters must be finite")
        if self.alpha_max >= 0:
            raise ValueError("alpha_max must be negative")
        if self.gamma <= 0 or self.dt <= 0:
            raise ValueError("gamma and dt must be positive")
        if self.Td < 0 or self.Tp < 0:
            raise ValueError("Td and Tp must be non-negative")
        if self.v0 < 0:
            raise ValueError("v0 must be non-negative")


@dataclass(frozen=True)
class PidGains:
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
