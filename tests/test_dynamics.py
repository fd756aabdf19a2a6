from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_tie
from rentdiv import Allocation, Assignment, check_envy_free, initial_ef_allocation, make_instance, utilities
from rentdiv.dynamics import (
    BOUND_HIT,
    MERGE,
    NEW_WEAK_EDGE,
    UNBOUNDED,
    UPPER,
    Event,
    EventEngine,
    RatePlan,
    RentState,
    conserving_plan,
)
from rentdiv.model import POS_INF

ID2 = Assignment((0, 1))
START = (Fraction(5), Fraction(3))
SEESAW = RatePlan((1, -1))


def scan(inst, plan, lower=None, upper=None, merge_rooms="all", rents=START):
    return EventEngine(inst, ID2).scan(RentState.of(rents), plan, lower, upper,
                                       merge_rooms)


def test_merge_event():
    # occupant utilities 5 - t and 3 + t meet at t = 1
    event = scan(make_fix_a(), SEESAW)
    assert event.time == 1
    assert event.kinds == ((MERGE, 0, 1),)


def test_bound_hit_preempts_merge():
    event = scan(make_fix_a(), SEESAW, upper=(Fraction(11, 2), POS_INF))
    assert event.time == Fraction(1, 2)
    assert event.kinds == ((BOUND_HIT, 0, UPPER),)


def test_weak_edge_event_with_merges_off():
    event = scan(make_fix_a(), SEESAW, merge_rooms=None)
    assert event.time == 3
    assert event.kinds == ((NEW_WEAK_EDGE, 0, 1),)


def test_zero_plan_is_unbounded():
    event = scan(make_fix_a(), RatePlan((0, 0)))
    assert event.time is None
    assert event.kinds == ((UNBOUNDED,),)


def test_simultaneous_kinds_reported_together():
    event = scan(make_fix_a(), SEESAW, upper=(Fraction(6), POS_INF))
    assert event.time == 1
    assert event.kinds == ((BOUND_HIT, 0, UPPER), (MERGE, 0, 1))


def test_plan_must_conserve_total():
    with pytest.raises(AssertionError):
        scan(make_fix_a(), RatePlan((1, 1)))


def test_scan_rejects_envious_rents():
    # at (9, -1) agent 0 gets 1 from its own room and 3 from room 1
    with pytest.raises(AssertionError, match="EF violated"):
        scan(make_fix_a(), SEESAW, rents=(Fraction(9), Fraction(-1)))


def test_existing_weak_edge_may_not_turn_strong():
    # at equal rents the tie instance has zero slack in both directions
    with pytest.raises(AssertionError):
        scan(make_fix_tie(), SEESAW, rents=(Fraction(3), Fraction(3)))


def rates(plan):
    return tuple(Fraction(c, plan.den) for c in plan.num)


def test_conserving_plan_rates():
    plan = conserving_plan(4, {0, 1, 2}, {3}, unit="inc")
    assert rates(plan) == (1, 1, 1, -3)
    assert sum(plan.num) == 0
    dec_unit = conserving_plan(4, {0}, {1, 2, 3}, unit="dec")
    assert rates(dec_unit) == (3, -1, -1, -1)
    # both units give the same integer rates over different denominators
    thirds = conserving_plan(5, {0, 1}, {2, 3, 4}, unit="inc")
    assert thirds.num == (3, 3, -2, -2, -2) and thirds.den == 3
    assert rates(thirds) == (1, 1) + (Fraction(-2, 3),) * 3


def test_rent_state_is_reduced():
    rents = (Fraction(5, 6), Fraction(-1, 4), Fraction(3))
    state = RentState.of(rents)
    assert state.den == 12 and state.num == (10, -3, 36)
    assert state.rents == rents
    # moving by 1/2 at rates (2, -1, -1)/3 lands on denominators 3, 12, 6
    moved = state.moved(RatePlan((2, -1, -1), 3), Fraction(1, 2))
    assert moved.rents == (Fraction(7, 6), Fraction(-5, 12), Fraction(17, 6))
    assert moved.den == 12 and gcd(moved.den, *moved.num) == 1
    assert RentState.of((Fraction(2),) * 3).den == 1


def test_advance_moves_linearly():
    # step moves to the merge at t = 1 along the seesaw
    event, state = EventEngine(make_fix_a(), ID2).step(
        RentState.of(START), {0}, {1}, "inc", None, None, "all")
    assert event.time == 1
    assert state.rents == (6, 2)


def test_advance_zero_is_identity():
    # a room outside both sets has rate zero and keeps its rent exactly
    inst = make_instance([[9, 0, 0], [0, 9, 0], [0, 0, 9]], 6)
    start = (Fraction(2),) * 3
    event, state = EventEngine(inst, Assignment((0, 1, 2))).step(
        RentState.of(start), {0}, {1}, "inc", None, None, "all")
    rents = state.rents
    assert rents[2] == start[2]
    assert rents[:2] == (start[0] + event.time, start[1] - event.time)


def test_step_rejects_unbounded_ray(monkeypatch):
    # From EF rents no conserving motion is unbounded: the occupant of a
    # room that pays more loses slack toward every room that pays less, so a
    # weak edge comes (here at t = 3, bounds and merges unwatched). Only a
    # faulty scan can report an unbounded ray, and step must refuse it.
    engine = EventEngine(make_fix_a(), ID2)
    state = RentState.of(START)
    assert engine.scan(state, SEESAW, None, None, None).time == 3
    monkeypatch.setattr(engine, "scan",
                        lambda *args: Event(time=None, kinds=((UNBOUNDED,),)))
    with pytest.raises(AssertionError, match="unbounded"):
        engine.step(state, {0}, {1}, "inc", None, None, None)


small_cases = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.fractions(min_value=0, max_value=30, max_denominator=3),
                     min_size=n, max_size=n),
            min_size=n, max_size=n),
        st.integers(min_value=-20, max_value=40).map(Fraction),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1)))


@settings(max_examples=80, deadline=None)
@given(small_cases)
def test_advance_conserves_and_stays_envy_free(case):
    vals, total, up, down = case
    if up == down:
        return
    inst = make_instance(vals, total)
    start = initial_ef_allocation(inst)
    n = inst.n
    plan = conserving_plan(n, {up}, {down})
    engine = EventEngine(inst, start.assignment)
    state = RentState.of(start.rents)
    try:
        event = engine.scan(state, plan, inst.lower_bounds,
                            inst.upper_bounds, "all")
    except AssertionError:
        return  # the motion would break a standing tie immediately
    if event.time is None:
        return
    stepped, moved_state = engine.step(state, {up}, {down}, "inc",
                                       inst.lower_bounds, inst.upper_bounds,
                                       "all")
    assert stepped == event
    rents = moved_state.rents
    # the state stays reduced: its denominator is the rents' lcm
    assert moved_state.den == lcm(*[r.denominator for r in rents])
    assert rents == tuple(r + c * event.time
                          for r, c in zip(start.rents, rates(plan)))
    moved = Allocation(start.assignment, rents)
    assert sum(moved.rents) == sum(start.rents)
    assert check_envy_free(inst, moved) == []
    # the triggering equation holds exactly at the event time
    for kind in event.kinds:
        if kind[0] == NEW_WEAK_EDGE:
            _, agent, room = kind
            own = utilities(inst, moved)[agent]
            assert own == inst.valuations[agent][room] - moved.rents[room]
        elif kind[0] == MERGE:
            _, x, y = kind
            occ = moved.assignment.agent_of_room()
            u = utilities(inst, moved)
            assert u[occ[x]] == u[occ[y]]
    # strictly inside the segment nothing has crossed yet
    half = Allocation(start.assignment,
                      tuple(r + c * event.time / 2
                            for r, c in zip(start.rents, rates(plan))))
    assert check_envy_free(inst, half) == []
    assert sum(half.rents) == sum(start.rents)


@settings(max_examples=40, deadline=None)
@given(small_cases)
def test_bound_hit_lands_exactly_on_bound(case):
    vals, total, up, down = case
    if up == down:
        return
    inst = make_instance(vals, total)
    start = initial_ef_allocation(inst)
    n = inst.n
    target = start.rents[up] + Fraction(1, 3)
    upper = tuple(target if j == up else POS_INF for j in range(n))
    engine = EventEngine(inst, start.assignment)
    try:
        event, state = engine.step(RentState.of(start.rents), {up}, {down},
                                   "inc", inst.lower_bounds, upper, "all")
    except AssertionError:
        return
    if (BOUND_HIT, up, UPPER) not in event.kinds:
        return
    assert state.rents[up] == target
