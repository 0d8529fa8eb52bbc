"""Brake actuation plant: first-order lag with dead time.

The commanded acceleration passes through a FIFO delay line of
round(Td/dt) entries and a first-order lag with constant Tp.  The
realized acceleration is clamped to the physical range [alpha_max, 0]
after the lag: the controller may command any value (it does during an
early-stop attack), but the train can neither brake harder than
alpha_max nor propel itself during the approach.  Velocity clamps at
zero; a stopped train stays stopped.

The plant copies dt, Tp and alpha_max out of its TrainParams when it is
built: step reads them every step, and an instance attribute reads
faster than a NamedTuple field.

step is the reference for the run loop's held stretches:
sim.scenario._hold repeats its arithmetic, in the same order, on local
copies of alpha, v and p, and tests/test_scenarios.py pins the two
equal bit for bit.
"""

from __future__ import annotations

from collections import deque

from .params import TrainParams


class BrakePlant:
    def __init__(self, params: TrainParams):
        self.params = params
        self.dt = params.dt
        self.Tp = params.Tp
        self.alpha_max = params.alpha_max
        self.p = params.p0
        self.v = params.v0
        self.alpha = 0.0
        self._delay: deque[float] = deque([0.0] * round(params.Td / params.dt))

    def step(self, alpha_cmd: float) -> None:
        """Advance one dt with the given commanded acceleration."""
        dt = self.dt
        delay = self._delay
        if delay:
            delay.append(alpha_cmd)
            delayed = delay.popleft()
        else:
            delayed = alpha_cmd
        alpha = self.alpha
        Tp = self.Tp
        if Tp > 0:
            alpha += dt * (delayed - alpha) / Tp
        else:
            alpha = delayed
        # Each comparison returns the operand min/max would, -0.0 included:
        # min(0.0, max(alpha_max, alpha)) and max(0.0, v).
        alpha_max = self.alpha_max
        alpha = alpha if alpha > alpha_max else alpha_max
        alpha = alpha if alpha < 0.0 else 0.0
        self.alpha = alpha
        v = self.v + alpha * dt
        v = v if v > 0.0 else 0.0
        self.v = v
        self.p += v * dt

    @property
    def stopped(self) -> bool:
        return self.v == 0.0
