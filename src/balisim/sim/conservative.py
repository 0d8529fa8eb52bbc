"""Conservative fallback controller: dual PID plus maximum braking.

PID1 is tuned aggressively to pull the speed down to v_con quickly;
once the speed first reaches v_con the controller switches to the
gentler PID2, which maintains the creep speed until the stop marker is
detected, at which point it commands alpha_max until standstill.  Mode
transitions are one-way: PID1 -> PID2 -> MAX_BRAKE.

The PIDs run in positional form on the error e = v - v_con with
rectangular integration and a backward-difference derivative; output is
clamped to [alpha_max, 0] and the integral only accumulates while the
output is unsaturated (conditional-integration anti-windup).  The
integral resets when the mode switches.  The gains of the current mode
are copied out of params.PID1 or PID2 when the mode is entered, so a step
reads them as instance attributes.
"""

from __future__ import annotations

from . import params

MODE_PID1 = "pid1"
MODE_PID2 = "pid2"
MODE_MAX_BRAKE = "max_brake"


class ConservativeController:
    def __init__(self, v_con: float = params.V_CREEP, *, alpha_max: float):
        if v_con <= 0:
            raise ValueError("v_con must be positive")
        self.v_con = v_con
        self.alpha_max = alpha_max
        self.mode = MODE_PID1
        self._kp, self._ki, self._kd = params.PID1
        self._integral = 0.0
        self._prev_error: float | None = None

    def step(self, v: float, marker_seen: bool, dt: float) -> float:
        """Command for the current step; call every dt while active."""
        if marker_seen:
            self.mode = MODE_MAX_BRAKE
        if self.mode == MODE_MAX_BRAKE:
            return self.alpha_max
        if self.mode == MODE_PID1 and v <= self.v_con:
            self.mode = MODE_PID2
            self._kp, self._ki, self._kd = params.PID2
            self._integral = 0.0
            self._prev_error = None
        error = v - self.v_con
        if self._prev_error is None:
            derivative = 0.0
        else:
            derivative = (error - self._prev_error) / dt
        self._prev_error = error
        integral = self._integral + error * dt
        raw = -(self._kp * error + self._ki * integral + self._kd * derivative)
        if self.alpha_max <= raw <= 0.0:
            self._integral = integral
            return raw
        # min(0.0, max(alpha_max, raw)), as comparisons that return the
        # same operand min/max would.
        raw = raw if raw > self.alpha_max else self.alpha_max
        return raw if raw < 0.0 else 0.0
