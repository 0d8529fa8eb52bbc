"""Heuristic online braking controller updated at balise passages.

At each balise the controller compares the deceleration realized since
the previous balise with what it had commanded, corrects the new
command by the weighted mismatch, and adapts the learning weight eta:

    alpha_e = v^2 / (2 * loc')                          expected
    alpha_r = (v_next^2 - v^2) / (2 * D)                realized
    D       = |loc'_i| - |loc'_{i+1}|
    cmd     = alpha_e - eta * (alpha_r - prev_cmd)
    eta    *= 0.95 if |alpha_r - prev_cmd| > 0.05 else 1.05

The command is held constant between balises and handed to the plant
unsaturated; physical braking limits live in the plant.  Each correction
can grow the command by a factor of about eta, so a large eta0 or a fast
train can take it past the float range; on_balise raises ValueError then,
rather than hand the plant an infinite command.  Consecutive
balises reporting the same location make D zero; the division by zero
is resolved by one of two strategies: "full_brake" commands alpha_max,
"ignore" keeps the current command.  Both treat the offending report as
the new reference point for the next segment.
"""

from __future__ import annotations

import math

from . import params


class DegenerateReference(Exception):
    """A balise reported location 0; Eq. 1 has no meaning there."""


def expected_decel(v: float, loc_reported: float) -> float:
    """Deceleration that stops the train exactly at 0 from loc_reported."""
    if loc_reported == 0:
        raise DegenerateReference("reported location is the stop point")
    return v * v / (2.0 * loc_reported)


def realized_decel(v_i: float, v_next: float, loc_i: float, loc_next: float) -> float:
    """Acceleration realized between two reports; raises ZeroDivisionError
    when both balises reported the same distance to the stop point."""
    d = abs(loc_i) - abs(loc_next)
    return (v_next * v_next - v_i * v_i) / (2.0 * d)


FULL_BRAKE = "full_brake"
IGNORE = "ignore"


class HoaController:
    def __init__(self, eta0: float = params.ETA0, *, alpha_max: float,
                 dbz_strategy: str = FULL_BRAKE):
        if eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if dbz_strategy not in (FULL_BRAKE, IGNORE):
            raise ValueError(f"unknown dbz strategy {dbz_strategy!r}")
        self.eta = eta0
        self.alpha_max = alpha_max
        self.dbz_strategy = dbz_strategy
        self.command = 0.0       # held between balises; raw, unsaturated
        self.engaged = False
        self._prev_loc = 0.0
        self._prev_v = 0.0

    def on_balise(self, v: float, loc_reported: float) -> float:
        """Consume one position report; returns the new held command."""
        if not self.engaged:
            self.command = expected_decel(v, loc_reported)
            self.engaged = True
        else:
            try:
                alpha_r = realized_decel(self._prev_v, v, self._prev_loc,
                                         loc_reported)
            except ZeroDivisionError:
                return self._on_dbz(v, loc_reported)
            alpha_e = expected_decel(v, loc_reported)
            mismatch = alpha_r - self.command
            self.command = alpha_e - self.eta * mismatch
            self.eta *= 0.95 if abs(mismatch) > 0.05 else 1.05
        if not math.isfinite(self.command):
            raise ValueError(f"the hoa braking command left the float range "
                             f"({self.command}) at a report of {loc_reported} m")
        self._prev_loc = loc_reported
        self._prev_v = v
        return self.command

    def _on_dbz(self, v: float, loc_reported: float) -> float:
        if self.dbz_strategy == FULL_BRAKE:
            self.command = self.alpha_max
        # ignore: keep decelerating at the current rate
        self._prev_loc = loc_reported
        self._prev_v = v
        return self.command
