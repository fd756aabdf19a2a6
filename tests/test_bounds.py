from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_ex, make_fix_tie
from rentdiv import (
    Allocation,
    Assignment,
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
from rentdiv.dynamics import EventEngine, TraceLog
from rentdiv.model import ENVY_PATH_VIOLATION, SOLVED


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


def test_minspread_builds_one_engine(monkeypatch):
    # the maximin lift and the spread phase share one engine
    inst = make_fix_ex()
    start = in_bounds_start(inst, ID4)
    built = []
    init = EventEngine.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(EventEngine, "__init__", counting_init)
    assert minspread_rents(inst, ID4, start) == (1, 0, 1, 2)
    assert len(built) == 1


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
