"""Anomaly detection and correction from trustworthy local information.

The train carries a track map of fixed balise locations, an onboard
position estimate (p_est, delta) whose error bound delta grows with
distance traveled since the last trusted reference, and an unverified
record list for encounters it could not attribute to a unique balise.

balise_missing implements the published detection condition, including
its second disjunct (which triggers earlier, not later, than the first;
each evaluation that fires records which clause fired so the
interpretation stays inspectable).  The condition is still the published
one; it is evaluated from the first unreceived balise, behind a guard on
the suffix maxima of |loc|, so a step on which no clause can fire costs
O(1) instead of a walk over the map.  derive_trustworthy_info implements
the published two-branch correction: authenticated reports are accepted
when plausible against (p_est, delta); unauthenticated encounters are
recovered from the track map by unique-candidate matching or by
pairwise distance disambiguation across records.  One addition is made
for authenticated-but-implausible reports (a cloned telegram): when the
set of already-received balises is exactly a prefix of the track map,
the encounter must be the next balise in order, and that map location
is handed to the braking controller while the estimate itself is left
untouched.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Tolerance when matching inter-record distances against map distances;
# covers the one-step position quantization of crossing detection.
DISTANCE_TOL = 0.5


class PositionEstimate:
    """Onboard (p_est, delta): estimate plus growing error bound."""

    def __init__(self, p_est0: float, delta0: float, growth_k: float = 0.02):
        if delta0 < 0 or growth_k < 0:
            raise ValueError("delta0 and growth_k must be non-negative")
        self.p_est = p_est0
        self._delta_base = delta0
        self.growth_k = growth_k
        self.dist_since_ref = 0.0

    @property
    def delta(self) -> float:
        return self._delta_base + self.growth_k * self.dist_since_ref

    def advance(self, ds: float) -> None:
        """Integrate odometry over one step."""
        self.p_est += ds
        self.dist_since_ref += ds

    def set_reference(self, loc: float) -> None:
        """Adopt a trusted position reference; the bound restarts at 0."""
        self.p_est = loc
        self._delta_base = 0.0
        self.dist_since_ref = 0.0


class Record(NamedTuple):
    local: float               # p_est at the unattributed encounter
    candidates: list[float]    # map locations within delta at that time


class AnomalyState:
    def __init__(self, known_locs: list[float]):
        self.known_locs = known_locs    # fixed balise locations, ascending
        self.received: set[int] = set()  # only ever grows
        self.records: list[Record] = []
        # Every index below first_open is in received.
        self.first_open = 0
        # max(|loc_k| for k >= i), padded with -inf at len and len + 1, so
        # suffix_abs[i + 1] is also the largest |loc_{k+1}| for k >= i.
        suffix = [-math.inf, -math.inf]
        for loc in reversed(known_locs):
            suffix.append(max(abs(loc), suffix[-1]))
        suffix.reverse()
        self.suffix_abs = suffix

    def mark_received(self, loc: float) -> None:
        for i, known in enumerate(self.known_locs):
            if abs(known - loc) < 1e-9:
                self.received.add(i)
                return


def balise_missing(est: PositionEstimate, state: AnomalyState) -> str | None:
    """Published missing-balise condition.

    Returns a description of the clause that fired ("loc_i" or
    "loc_i+1" with the index), or None.  A balise i counts as missing
    when no position reference for it has been received and either
    |p_est| < |loc_i| - delta or |p_est| < |loc_{i+1}| + delta.

    The clauses are evaluated verbatim in map order, starting at the
    first unreceived balise j.  Before that, a guard returns None when
    |p_est| is at least max(|loc_k|, k >= j) - delta and at least
    max(|loc_{k+1}|, k >= j) + delta: no clause can then fire, because
    rounding x - delta and x + delta is monotone in x.
    """
    received = state.received
    j = state.first_open
    while j in received:
        j += 1
    state.first_open = j
    a_est = abs(est.p_est)
    delta = est.delta
    suffix = state.suffix_abs
    if a_est >= suffix[j] - delta and a_est >= suffix[j + 1] + delta:
        return None
    locs = state.known_locs
    for i in range(j, len(locs)):
        if i in received:
            continue
        loc = locs[i]
        if a_est < abs(loc) - delta:
            return f"B{i + 1}: |p_est| < |loc_i| - delta"
        if i + 1 < len(locs) and a_est < abs(locs[i + 1]) + delta:
            return f"B{i + 1}: |p_est| < |loc_i+1| + delta"
    return None


class TrustResult(NamedTuple):
    loc: float | None   # location handed to the braking controller
    event: str


def derive_trustworthy_info(
    auth_pass: bool,
    loc_reported: float | None,
    est: PositionEstimate,
    state: AnomalyState,
    allow_ordering: bool = True,
) -> TrustResult:
    """Resolve one balise encounter into trustworthy information.

    Mutates (est, state) per the published algorithm and returns the
    location the controller may consume, or None when the encounter
    stays unresolved (it is then treated as unavailable).
    """
    if auth_pass:
        if loc_reported is None:
            raise ValueError("authenticated encounter needs a reported location")
        if abs(est.p_est - loc_reported) < est.delta:
            est.set_reference(loc_reported)
            state.mark_received(loc_reported)
            state.records.clear()
            return TrustResult(loc_reported, "trusted")
        # Authenticated but implausible: a replayed telegram.  The
        # estimate remains; when the received set is a prefix of the
        # map, order tells us which balise this encounter really is.
        if allow_ordering:
            k = len(state.received)
            if state.received == set(range(k)) and k < len(state.known_locs):
                loc = state.known_locs[k]
                state.received.add(k)
                return TrustResult(loc, "ordering_corrected")
        return TrustResult(None, "implausible")

    # Authentication failed: recover what the track map allows.
    cands = [loc for loc in state.known_locs if abs(est.p_est - loc) < est.delta]
    if len(cands) == 1:
        loc = cands[0]
        est.set_reference(loc)
        state.mark_received(loc)
        state.records.clear()
        return TrustResult(loc, "recovered_unique")
    state.records.append(Record(local=est.p_est, candidates=cands))
    if len(state.records) >= 2:
        newest = state.records[-1]
        for older in state.records[:-1]:
            d = newest.local - older.local
            pairs = [
                (a, b)
                for a in older.candidates
                for b in newest.candidates
                if abs((b - a) - d) < DISTANCE_TOL
            ]
            if len(pairs) == 1:
                loc = pairs[0][1]
                est.set_reference(loc)
                state.mark_received(loc)
                state.records.clear()
                return TrustResult(loc, "recovered_pair")
    return TrustResult(None, "unresolved")
