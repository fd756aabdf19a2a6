import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIX_TIE_VALS, make_fix_a, make_fix_ex, make_fix_tie
from rentdiv import (
    build_envy_graph,
    check_constraints,
    check_envy_free,
    combined_solve,
    budget_aware_ef,
    initial_ef_allocation,
    make_instance,
    oracle_solve,
    scc_max_rent,
    scc_partition,
    utilities,
)
from rentdiv.budgets import build_subproblem
from rentdiv.matching import assignment_welfare
from rentdiv.model import (
    BUDGET_CAP_VIOLATION,
    ENVY_PATH_VIOLATION,
    INFEASIBLE,
    POS_INF,
    SOLVED,
)


def component_subproblem(vals, budgets):
    inst = make_instance(vals, 0, budgets=budgets)
    base = initial_ef_allocation(inst)
    components = scc_partition(build_envy_graph(inst, base))
    assert len(components) == 1, "fixture must be one envy component"
    return build_subproblem(inst, base, components[0])


def test_single_room_rises_to_budget():
    sub = component_subproblem([[5]], [[6]])
    delta, alloc = scc_max_rent(sub)
    assert delta == 6
    assert alloc.rents == (6,)


def test_rotation_unlocks_more_rent():
    # both tight at (3,3); swapping rooms frees each to pay the other budget
    sub = component_subproblem(FIX_TIE_VALS, [[3, 4], [4, 3]])
    delta, alloc = scc_max_rent(sub)
    assert delta == 8
    assert alloc.rents == (4, 4)
    assert alloc.assignment.room_of_agent == (1, 0)
    assert assignment_welfare(sub.instance.valuations, alloc.assignment) == 10


def test_no_rotation_without_budget_slack():
    sub = component_subproblem(FIX_TIE_VALS, [[3, 3], [3, 3]])
    delta, alloc = scc_max_rent(sub)
    assert delta == 6
    assert alloc.rents == (3, 3)


def test_all_infinite_budgets_are_unbounded():
    sub = component_subproblem(FIX_TIE_VALS, None)
    delta, _ = scc_max_rent(sub)
    assert delta == POS_INF


def test_budget_aware_solves_inside_caps():
    inst = make_fix_a(budgets=[[6, 5], [5, 3]])
    out = budget_aware_ef(inst)
    assert out.status == SOLVED
    rents = out.allocation.rents
    assert 5 <= rents[0] <= 6
    assert check_envy_free(inst, out.allocation) == []
    assert check_constraints(inst, out.allocation).all_ok


def test_budget_aware_detects_cap_shortfall():
    inst = make_fix_a(total_rent=10, budgets=[[6, 5], [5, 3]])
    out = budget_aware_ef(inst)
    assert out.status == INFEASIBLE
    assert out.certificate.kind == BUDGET_CAP_VIOLATION
    assert "9" in out.certificate.explanation


def test_budget_aware_without_budgets_is_plain_ef():
    inst = make_fix_a()
    out = budget_aware_ef(inst)
    assert out.status == SOLVED
    assert out.allocation == initial_ef_allocation(inst)


def test_combined_reproduces_leximin_example():
    out = combined_solve(make_fix_ex(), "leximin")
    assert out.status == SOLVED
    assert out.allocation.rents == (0, 2, 0, 2)
    assert out.objective_value == (0, 5, 17, 20)


def test_combined_intersects_bounds_and_budgets():
    inst = make_fix_a(upper_bounds=[5, 5], budgets=[[6, 5], [5, 3]])
    out = combined_solve(inst, "maximin")
    assert out.status == SOLVED
    assert out.allocation.rents == (5, 3)
    assert out.objective_value == 3


def test_combined_propagates_bound_conflicts():
    inst = make_fix_a(lower_bounds=[0, 3], upper_bounds=[0, 8],
                      budgets=[[50, 50], [50, 50]])
    out = combined_solve(inst, "any")
    assert out.status == INFEASIBLE
    assert out.certificate.kind == ENVY_PATH_VIOLATION


UNKNOWN_OBJECTIVE_SCRIPT = """
from rentdiv import combined_solve, make_instance, oracle_solve
if __debug__:
    raise SystemExit("expected to run under python -O")
inst = make_instance([[10, 2], [4, 6]], 8)
for solve in (combined_solve, oracle_solve):
    try:
        solve(inst, "bogus")
    except ValueError:
        continue
    raise SystemExit(solve.__name__ + " accepted the objective 'bogus'")
"""


def test_unknown_objective_raises_even_under_python_O():
    for solve in (combined_solve, oracle_solve):
        with pytest.raises(ValueError, match="bogus"):
            solve(make_fix_a(), "bogus")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", UNKNOWN_OBJECTIVE_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_combined_unconstrained_matches_plain_pipeline():
    inst = make_fix_a()
    out = combined_solve(inst, "any")
    assert out.status == SOLVED
    assert out.allocation == initial_ef_allocation(inst)


shared_row_cases = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=20).map(Fraction),
                 min_size=n, max_size=n),
        st.lists(st.integers(min_value=30, max_value=60).map(Fraction),
                 min_size=n, max_size=n),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=10)))


@settings(max_examples=30, deadline=None)
@given(shared_row_cases)
def test_rent_grows_with_total_inside_component(case):
    # identical valuation rows force one envy component
    row, budget_row, gap, step = case
    n = len(row)
    vals = [list(row)] * n
    budgets = [list(budget_row)] * n
    # with identical rows any total up to this cap is feasible
    cap = sum(row) + n * min(b - r for b, r in zip(budget_row, row))
    high = cap - gap
    low = high - step
    lo = combined_solve(make_instance(vals, low, budgets=budgets), "any")
    hi = combined_solve(make_instance(vals, high, budgets=budgets), "any")
    assert lo.status == SOLVED and hi.status == SOLVED
    assert all(h >= l for h, l in zip(hi.allocation.rents,
                                      lo.allocation.rents))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=0, max_value=9).map(Fraction),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(min_value=0, max_value=12).map(Fraction),
                          min_size=n, max_size=n), min_size=n, max_size=n))))
def test_component_capacity_matches_oracle(case):
    vals, budgets = case
    inst = make_instance(vals, 0, budgets=budgets)
    base = initial_ef_allocation(inst)
    for rooms in scc_partition(build_envy_graph(inst, base)):
        sub = build_subproblem(inst, base, rooms)
        delta, alloc = scc_max_rent(sub)
        assert check_envy_free(sub.instance, alloc) == []
        occupant = alloc.assignment.agent_of_room()
        assert all(alloc.rents[j] <= sub.instance.budgets[occupant[j]][j]
                   for j in range(sub.instance.n))
        best = oracle_solve(sub.instance, "max_total_rent")
        assert best.status == SOLVED
        assert delta == best.objective_value
        # occupants only ever rotate along envy cycles, so welfare is stuck
        start = initial_ef_allocation(sub.instance)
        assert assignment_welfare(sub.instance.valuations, alloc.assignment) \
            == assignment_welfare(sub.instance.valuations, start.assignment)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=0, max_value=8).map(Fraction),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(min_value=0, max_value=6).map(Fraction),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.integers(min_value=2, max_value=14).map(Fraction))))
def test_infeasible_verdicts_confirmed_by_oracle(case):
    vals, budgets, total = case
    inst = make_instance(vals, total, budgets=budgets)
    mine = combined_solve(inst, "any")
    theirs = oracle_solve(inst, "any")
    assert mine.status == theirs.status
    if mine.status == SOLVED:
        assert check_constraints(inst, mine.allocation).all_ok
        assert check_envy_free(inst, mine.allocation) == []
