"""Missing-balise detection and trustworthy-information derivation."""

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balisim.sim import AnomalyState, PositionEstimate, Record, \
    balise_missing, derive_trustworthy_info

KNOWN = [-100.0, -64.0, -36.0, -16.0, -4.0]


def make(p_est, delta0, growth_k=0.0, received=()):
    est = PositionEstimate(p_est, delta0, growth_k)
    state = AnomalyState(known_locs=list(KNOWN))
    state.received.update(received)
    return est, state


# ---------------------------------------------------------------------------
# Position estimate
# ---------------------------------------------------------------------------

def test_delta_grows_with_distance():
    est = PositionEstimate(-100.0, 15.0, growth_k=0.02)
    assert est.delta == 15.0
    est.advance(50.0)
    assert est.p_est == -50.0
    assert est.delta == pytest.approx(16.0)


def test_reference_resets_bound():
    est = PositionEstimate(-100.0, 15.0, growth_k=0.02)
    est.advance(30.0)
    est.set_reference(-64.0)
    assert est.p_est == -64.0
    assert est.delta == 0.0
    est.advance(10.0)
    assert est.delta == pytest.approx(0.2)


def test_estimate_validation():
    with pytest.raises(ValueError):
        PositionEstimate(0.0, -1.0, 0.0)


# ---------------------------------------------------------------------------
# Missing-balise condition
# ---------------------------------------------------------------------------

def test_missing_fires_for_overconfident_estimate():
    # |p_est| = 80 < |loc_1| - delta = 85 while B1 is unreceived
    est, state = make(-80.0, 15.0)
    assert balise_missing(est, state) == "B1: |p_est| < |loc_i| - delta"


def test_missing_quiet_for_wide_estimate():
    # |p_est| = 120 is not inside either clause for any balise
    est, state = make(-120.0, 15.0)
    assert balise_missing(est, state) is None


def test_missing_quiet_when_all_received():
    est, state = make(-2.0, 5.0, received=range(5))
    assert balise_missing(est, state) is None


def test_missing_second_clause_fires():
    # first clause: 82 < 100 - 20 is false; second: 82 < 64 + 20 is true
    est, state = make(-82.0, 20.0)
    assert balise_missing(est, state) == "B1: |p_est| < |loc_i+1| + delta"


def test_missing_skips_received_balises():
    est, state = make(-50.0, 5.0, received=(0,))
    # B2 unreceived: 50 < 64 - 5
    assert balise_missing(est, state) == "B2: |p_est| < |loc_i| - delta"


def published_loop(est, state):
    """The published condition walked over every fixed balise (oracle)."""
    a_est = abs(est.p_est)
    delta = est.delta
    locs = state.known_locs
    for i, loc in enumerate(locs):
        if i in state.received:
            continue
        if a_est < abs(loc) - delta:
            return f"B{i + 1}: |p_est| < |loc_i| - delta"
        if i + 1 < len(locs) and a_est < abs(locs[i + 1]) + delta:
            return f"B{i + 1}: |p_est| < |loc_i+1| + delta"
    return None


# Whole metres make |p_est| land exactly on a clause boundary now and then.
_metres = st.one_of(st.integers(-150, 40).map(float),
                    st.floats(-150.0, 40.0, allow_nan=False))


@settings(max_examples=300)
@given(
    # Maps of 0..8 balises; the range reaches past 0, where |loc| rises
    # again along the map and the guard must fall through to the loop.
    locs=st.lists(_metres, max_size=8, unique=True).map(sorted),
    p_est0=_metres,
    delta0=st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0)),
    growth_k=st.sampled_from([0.0, 0.02, 0.5]),
    steps=st.lists(st.tuples(st.floats(0.0, 40.0),
                             st.sets(st.integers(0, 7), max_size=3),
                             st.booleans()), max_size=12),
)
def test_missing_matches_published_loop(locs, p_est0, delta0, growth_k, steps):
    est = PositionEstimate(p_est0, delta0, growth_k)
    state = AnomalyState(known_locs=locs)
    assert balise_missing(est, state) == published_loop(est, state)
    for ds, newly_received, reference in steps:
        est.advance(ds)
        if reference:
            est.set_reference(est.p_est)
        # received only grows across calls on one state
        state.received.update(i for i in newly_received if i < len(locs))
        assert balise_missing(est, state) == published_loop(est, state)


# The largest |loc| the 48-bit signed millimetre location field holds.
_FAR = (1 << 47) / 1000.0


@settings(max_examples=500)
@given(
    # Whole metres and maps that reach past 0, as above, optionally moved
    # out to the far end of the location range, where one ulp of p_est is
    # tens of micrometres and a creep-speed step rounds.
    locs=st.lists(_metres, min_size=2, max_size=8, unique=True),
    offset=st.sampled_from([0.0, 200.0 - _FAR, _FAR - 200.0]),
    lead=st.one_of(st.integers(-20, 60).map(float), st.floats(-20.0, 60.0)),
    delta0=st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0)),
    growth_k=st.sampled_from([0.0, 0.02, 0.5, 1.0, 2.0]),
    # A step goes a fraction of the way to the watch point, which probes
    # just below it, or a distance in metres, which may pass it; 0.0034 m
    # is one 10 ms step at the creep speed of 0.34 m/s.
    steps=st.lists(st.tuples(
        st.booleans(),
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from([0.5, 0.99, 1 - 1e-9, 1 - 1e-15])),
        st.one_of(st.floats(0.0, 40.0), st.just(0.0034),
                  st.integers(0, 40).map(float))), max_size=12),
)
def test_watch_never_skips_a_firing_step(locs, offset, lead, delta0,
                                         growth_k, steps):
    # The estimate starts lead metres before the map, or past it for a map
    # far past 0, where it is mostly quiet at first and the watch is set.
    locs = sorted({loc + offset for loc in locs})
    edge = locs[-1] if offset > 0 else locs[0]
    est = PositionEstimate(edge + lead if offset > 0 else edge - lead,
                           delta0, growth_k)
    state = AnomalyState(known_locs=locs)
    # As in the run loop: evaluate only from the watch point on, and only
    # advance in between.
    for toward, fraction, metres in [(False, 0.0, 0.0), *steps]:
        gap = state.watch - est.p_est
        est.advance(fraction * gap if toward and gap > 0 else metres)
        if est.p_est < state.watch:
            assert published_loop(est, state) is None
        else:
            assert balise_missing(est, state) == published_loop(est, state)


def test_watch_lies_ahead_and_a_crossing_resets_it():
    # |p_est| = 120 with delta 15 fixed: the first clause can fire for B1
    # (|loc| 100) 35 m ahead, below 85, the second (B2, 64) 41 m ahead.
    est, state = make(-120.0, 15.0)
    assert state.watch == -math.inf
    assert balise_missing(est, state) is None
    assert -85.0 - 1e-6 < state.watch < -85.0
    derive_trustworthy_info(None, est, state)
    assert state.watch == -math.inf


# ---------------------------------------------------------------------------
# Trustworthy-information derivation
# ---------------------------------------------------------------------------

def test_pass_plausible_becomes_reference():
    est, state = make(-63.8, 2.0)
    res = derive_trustworthy_info(-64.0, est, state)
    assert res.event == "trusted"
    assert res.loc == -64.0
    assert est.p_est == -64.0 and est.delta == 0.0
    assert 1 in state.received


def test_pass_trusted_clears_records():
    est, state = make(-63.8, 2.0)
    state.records.append(Record(local=-80.0, candidates=[-100.0, -64.0]))
    derive_trustworthy_info(-64.0, est, state)
    assert state.records == []


def test_pass_implausible_ordering_correction():
    # a cloned B1 telegram replayed at B2: received set {B1} is a prefix,
    # so the encounter must be B2 and the map location is used
    est, state = make(-63.9, 1.0, received=(0,))
    res = derive_trustworthy_info(-100.0, est, state)
    assert res.event == "ordering_corrected"
    assert res.loc == -64.0
    assert est.p_est == -63.9  # estimate itself untouched
    assert 1 in state.received


def test_pass_implausible_without_prefix_stays_unresolved():
    est, state = make(-35.0, 1.0, received=(0, 2))  # gap: not a prefix
    res = derive_trustworthy_info(-100.0, est, state)
    assert res.event == "implausible"
    assert res.loc is None


def test_pass_implausible_ordering_disabled():
    est, state = make(-63.9, 1.0, received=(0,))
    res = derive_trustworthy_info(-100.0, est, state, allow_ordering=False)
    assert res.event == "implausible"
    assert res.loc is None


def test_fail_unique_candidate_recovers():
    est, state = make(-120.0, 25.0)
    res = derive_trustworthy_info(None, est, state)
    assert res.event == "recovered_unique"
    assert res.loc == -100.0
    assert est.p_est == -100.0 and est.delta == 0.0


def test_fail_ambiguous_appends_record():
    est, state = make(-80.0, 21.0)  # candidates -100 and -64
    res = derive_trustworthy_info(None, est, state)
    assert res.event == "unresolved"
    assert res.loc is None
    assert len(state.records) == 1
    assert state.records[0].candidates == [-100.0, -64.0]


def test_fail_pairwise_distance_disambiguation():
    # two unattributed encounters 36 m apart: the only candidate pair at
    # that distance is (-100, -64), so the newer one is at -64
    est, state = make(-44.0, 21.0)
    state.records.append(Record(local=-80.0, candidates=[-100.0, -64.0]))
    res = derive_trustworthy_info(None, est, state)
    assert res.event == "recovered_pair"
    assert res.loc == -64.0
    assert est.p_est == -64.0 and est.delta == 0.0
    assert state.records == []


def test_fail_pairwise_no_matching_pair_stays_unresolved():
    # record distance 30 m matches no inter-balise distance on the map
    est, state = make(-50.0, 60.0)
    state.records.append(Record(local=-80.0, candidates=[-100.0, -64.0]))
    res = derive_trustworthy_info(None, est, state)
    assert res.event == "unresolved"
    assert len(state.records) == 2
