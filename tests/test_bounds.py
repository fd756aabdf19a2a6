from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from conftest import make_fix_a, make_fix_ex, make_fix_tie
from rentdiv import (
    Allocation,
    Assignment,
    check_certificate,
    check_constraints,
    check_envy_free,
    combined_solve,
    ef_rents_with_bounds,
    initial_ef_allocation,
    leximin_rents,
    make_instance,
    maximin_rents,
    minspread_rents,
    oracle_solve,
    utilities,
)
from rentdiv.bounds import _classes
from rentdiv.dynamics import EventEngine, RentState, TraceLog
from rentdiv.model import (
    ENVY_PATH_VIOLATION,
    NEG_INF,
    POS_INF,
    SOLVED,
    BoundSumError,
)


ID2 = Assignment((0, 1))
ID4 = Assignment((0, 1, 2, 3))


def occupant_utilities(inst, assignment, rents):
    return utilities(inst, Allocation(assignment, tuple(rents)))


def seed_rents(inst, assignment):
    return initial_ef_allocation(inst, assignment).rents


def in_bounds_start(inst, assignment):
    """The EF seed repaired into the instance's bounds."""
    out = ef_rents_with_bounds(inst, assignment, seed_rents(inst, assignment))
    assert out.ok
    return out.rents


def test_repair_into_bounds():
    inst = make_fix_a(lower_bounds=[0, 0], upper_bounds=[5, 5])
    out = ef_rents_with_bounds(inst, ID2, (Fraction(6), Fraction(2)))
    assert out.ok
    assert out.rents == (5, 3)


def test_repair_detects_impossible_bounds():
    inst = make_fix_a(lower_bounds=[0, 3], upper_bounds=[0, 8])
    out = ef_rents_with_bounds(inst, ID2, seed_rents(inst, ID2))
    assert not out.ok
    cert = out.certificate
    assert cert.kind == ENVY_PATH_VIOLATION
    # the dead-end witness names every room dragged below the needed rents
    assert cert.witness_rooms == (0, 1)
    assert cert.final_rents is not None
    assert cert.effective_lower == (0, 3)
    assert cert.effective_upper == (0, 8)


def test_repair_without_bounds_returns_input():
    out = ef_rents_with_bounds(make_fix_a(), ID2, (Fraction(6), Fraction(2)))
    assert out.ok
    assert out.rents == (6, 2)


def test_maximin_equalizes_fix_a():
    rents = maximin_rents(make_fix_a(), ID2, (Fraction(5), Fraction(3)))
    assert rents == (6, 2)
    assert occupant_utilities(make_fix_a(), ID2, rents) == (4, 4)


def test_maximin_respects_upper_bounds():
    inst = make_fix_a(upper_bounds=[5, 5])
    rents = maximin_rents(inst, ID2, (Fraction(5), Fraction(3)))
    assert rents == (5, 3)
    assert min(occupant_utilities(inst, ID2, rents)) == 3


def test_maximin_pinned_room_floors_the_value():
    inst = make_fix_ex()
    rents = maximin_rents(inst, ID4, (0, 2, 0, 2))
    util = occupant_utilities(inst, ID4, rents)
    assert min(util) == 0  # room 4 is pinned at rent 2 and valued 2
    assert rents[3] == 2


def test_leximin_fix_ex():
    inst = make_fix_ex()
    rents = leximin_rents(inst, ID4, in_bounds_start(inst, ID4))
    assert rents == (0, 2, 0, 2)
    util = occupant_utilities(make_fix_ex(), ID4, rents)
    assert util == (20, 17, 5, 0)


def test_leximin_fix_a():
    inst = make_fix_a()
    assert leximin_rents(inst, ID2, in_bounds_start(inst, ID2)) == (6, 2)


def test_leximin_single_agent():
    inst = make_instance([[4]], 7)
    one = Assignment((0,))
    assert leximin_rents(inst, one, in_bounds_start(inst, one)) == (7,)


def test_minspread_fix_ex():
    inst = make_fix_ex()
    rents = minspread_rents(inst, ID4, in_bounds_start(inst, ID4))
    assert rents == (1, 0, 1, 2)
    util = occupant_utilities(make_fix_ex(), ID4, rents)
    assert util == (19, 19, 4, 0)
    assert max(util) - min(util) == 19


def test_minspread_fix_a():
    inst = make_fix_a()
    rents = minspread_rents(inst, ID2, in_bounds_start(inst, ID2))
    assert rents == (6, 2)
    util = occupant_utilities(make_fix_a(), ID2, rents)
    assert max(util) - min(util) == 0


def test_minspread_fix_tie():
    inst = make_fix_tie()
    rents = minspread_rents(inst, ID2, in_bounds_start(inst, ID2))
    assert rents == (3, 3)


def test_maximin_and_minspread_build_no_engine(monkeypatch):
    # both are closed forms on the lattice of EF rents: no rent moves by
    # events, so neither builds an event engine
    inst = make_fix_ex()
    start = in_bounds_start(inst, ID4)
    built = []
    init = EventEngine.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(EventEngine, "__init__", counting_init)
    assert minspread_rents(inst, ID4, start) == (1, 0, 1, 2)
    maximin = maximin_rents(inst, ID4, start)
    assert min(occupant_utilities(inst, ID4, maximin)) == 0
    assert built == []


def test_objectives_record_phase_and_counter():
    # The benchmark's traced runs read these phase names and counters.
    for inst, objective in ((make_fix_a(), "maximin"),
                            (make_fix_a(), "leximin"),
                            (make_fix_ex(), "minspread")):
        log = TraceLog()
        assert combined_solve(inst, objective, log).status == SOLVED
        moves = {}
        for ev in log.events:
            if ev["kinds"][0][0] != "freeze":
                moves[ev["phase"]] = moves.get(ev["phase"], 0) + 1
        assert moves.get(objective, 0) >= 1, objective
        for phase, count in moves.items():
            assert log.counters[f"{phase}_events"] == count, (objective, phase)


def bounded_cases():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=30).map(Fraction),
                         min_size=n, max_size=n),
                min_size=n, max_size=n),
            st.integers(min_value=0, max_value=60).map(Fraction),
            st.integers(min_value=0, max_value=25).map(Fraction)))


@settings(max_examples=15, deadline=None)
@given(bounded_cases())
def test_objectives_match_oracle(case):
    vals, total, width = case
    n = len(vals)
    share = total / n
    inst = make_instance(vals, total,
                         lower_bounds=[share - width] * n,
                         upper_bounds=[share + width] * n)
    sigma = oracle_solve(inst, "any")
    seed = initial_ef_allocation(inst)
    assignment = seed.assignment
    repaired = ef_rents_with_bounds(inst, assignment, seed.rents)
    if sigma.status == "infeasible":
        assert not repaired.ok
        return
    assert repaired.ok

    maximin = maximin_rents(inst, assignment, repaired.rents)
    assert min(occupant_utilities(inst, assignment, maximin)) \
        == oracle_solve(inst, "maximin").objective_value

    leximin = leximin_rents(inst, assignment, repaired.rents)
    assert tuple(sorted(occupant_utilities(inst, assignment, leximin))) \
        == oracle_solve(inst, "leximin").objective_value

    spread_rents = minspread_rents(inst, assignment, repaired.rents)
    util = occupant_utilities(inst, assignment, spread_rents)
    assert max(util) - min(util) \
        == oracle_solve(inst, "minspread").objective_value

    for rents in (maximin, leximin, spread_rents):
        moved = Allocation(assignment, tuple(rents))
        assert check_envy_free(inst, moved) == []
        assert check_constraints(inst, moved).all_ok


@st.composite
def tie_heavy_instances(draw):
    """n <= 4, valuations 0..3, totals -2..6, every bound and budget finite
    or infinite, budgets down to -2; None where the bound sums already
    exclude the total."""
    n = draw(st.integers(min_value=1, max_value=4))
    small = st.integers(min_value=-2, max_value=6)
    vals = draw(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                                  min_size=n, max_size=n),
                         min_size=n, max_size=n))
    lower = draw(st.lists(st.one_of(st.just("-inf"), small), min_size=n,
                          max_size=n))
    upper = [draw(st.one_of(st.just("inf"),
                            st.integers(min_value=0, max_value=4).map(
                                lambda w, lo=lo: w + (0 if lo == "-inf"
                                                      else lo))))
             for lo in lower]
    budgets = draw(st.lists(st.lists(st.one_of(st.just("inf"), small),
                                     min_size=n, max_size=n),
                            min_size=n, max_size=n))
    try:
        return make_instance(vals, draw(small), lower, upper, budgets)
    except BoundSumError:
        return None


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances())
# only the chain from room 1's lower bound binds the maximin value
@example(make_instance([[2, 3], [3, 0]], 3, lower_bounds=[2, "-inf"],
                       upper_bounds=[4, "inf"]))
def test_closed_form_objectives_match_oracle(inst):
    if inst is None:
        return
    for objective in ("maximin", "minspread"):
        log = TraceLog()
        got = combined_solve(inst, objective, log)
        want = oracle_solve(inst, objective)
        assert got.status == want.status, objective
        assert got.objective_value == want.objective_value, objective
        if got.status != SOLVED:
            continue
        # one event, with the final rents inside its bounds, which carry
        # the utility caps (and minspread's floors)
        (event,) = [ev for ev in log.events if ev["phase"] == objective]
        assert event["rents"] == got.allocation.rents
        assert all(lo <= r <= hi for lo, r, hi in
                   zip(event["lower"], event["rents"], event["upper"]))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances())
# several points are maximin-optimal here, so a rule that moves rents from
# the start can end on different ones
@example(make_instance([[1, 0, 2], [1, 3, 2], [2, 2, 1]], 0,
                       lower_bounds=[0, "-inf", "-inf"]))
def test_closed_form_points_do_not_depend_on_the_start(inst):
    # the repaired seed, leximin's point and minspread's point are three
    # in-bounds EF starts
    if inst is None:
        return
    seed = initial_ef_allocation(inst)
    sigma = seed.assignment
    out = ef_rents_with_bounds(inst, sigma, seed.rents)
    if not out.ok:
        return
    starts = (out.rents, leximin_rents(inst, sigma, out.rents),
              minspread_rents(inst, sigma, out.rents))
    for objective in (maximin_rents, minspread_rents):
        points = {objective(inst, sigma, start) for start in starts}
        assert len(points) == 1, (objective.__name__, points)


def _solved_certificate(vals, total, **bounds):
    inst = make_instance(vals, total, **bounds)
    cert = combined_solve(inst, "any").certificate
    assert check_certificate(inst, cert) == []
    return inst, cert


def test_certificate_rooms_outside_the_instance_are_problems():
    # budget-cap witness on the last room: (-1,) must not pass as room n-1
    inst, cert = _solved_certificate(
        [[1, 1], [1, 1]], 2, lower_bounds=["-inf", 1],
        budgets=[["inf", -1], ["inf", -1]])
    assert cert.witness_rooms == (1,)
    # envy chain from the last room: the path's rooms are indexed too
    pinned = [-60, 50]
    path_inst, path_cert = _solved_certificate(
        [[10, 2], [4, 6]], -10, lower_bounds=pinned, upper_bounds=pinned)
    assert path_cert.witness_path == (1, 0)
    for inst, cert, field, rooms in (
            (inst, cert, "witness_rooms", (5,)),
            (inst, cert, "witness_rooms", (-1,)),
            (path_inst, path_cert, "witness_path", (5, 0)),
            (path_inst, path_cert, "witness_path", (-1, 0))):
        problems = check_certificate(inst, replace(cert, **{field: rooms}))
        assert problems == [f"witness room {rooms[0]} is not a room index "
                            f"0..1"], (field, rooms)


def test_envy_path_witness_of_the_wrong_length_is_a_problem():
    # a dead-end witness; zip must not drop or ignore the extra room
    inst, cert = _solved_certificate(
        [[10, 2], [4, 6]], 8, lower_bounds=[0, 3], upper_bounds=[0, 8])
    assert cert.witness_path is None
    wrong = "envy-path witness needs one final rent and one effective " \
            "bound per room"
    for field, extra in (("final_rents", Fraction(0)),
                         ("effective_lower", NEG_INF),
                         ("effective_upper", POS_INF)):
        value = getattr(cert, field)
        for changed in (value + (extra,), value[:-1]):
            assert check_certificate(inst, replace(cert, **{field: changed})) \
                == [wrong], (field, changed)


def _reference_classes(rents, lower, upper):
    """_classes as Fraction comparisons, infinite bounds included."""
    below = {j for j, r in enumerate(rents) if r < lower[j]}
    above = {j for j, r in enumerate(rents) if r > upper[j]}
    at_lower = {j for j, r in enumerate(rents) if r == lower[j]}
    at_upper = {j for j, r in enumerate(rents) if r == upper[j]}
    return below, above, at_lower, at_upper


# Rents and bounds drawn from one small pool, so that ties and pinned rooms
# (l == r == u) are frequent, or with denominators up to 10^9; negative
# values and infinite bounds throughout.
_exact = st.one_of(
    st.sampled_from([Fraction(k, d) for d in (1, 2, 3) for k in range(-3, 4)]),
    st.fractions(min_value=-40, max_value=40, max_denominator=10**9))


@st.composite
def class_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rents = draw(st.lists(_exact, min_size=n, max_size=n))
    lower, upper = [], []
    for r in rents:
        pinned = draw(st.booleans())
        lower.append(r if pinned else draw(st.one_of(st.just(NEG_INF),
                                                     _exact)))
        upper.append(r if pinned else draw(st.one_of(st.just(POS_INF),
                                                     _exact)))
    return tuple(rents), tuple(lower), tuple(upper)


@settings(max_examples=300, deadline=None)
@given(class_cases())
def test_integer_classes_match_fraction_reference(case):
    rents, lower, upper = case
    assert _classes(RentState.of(rents), lower, upper) \
        == _reference_classes(rents, lower, upper)
