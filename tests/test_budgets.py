import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIX_TIE_VALS, make_fix_a, make_fix_ex, make_fix_tie
import rentdiv.budgets
import rentdiv.matching
import rentdiv.model
from rentdiv import (
    build_envy_graph,
    check_certificate,
    check_constraints,
    check_envy_free,
    combined_solve,
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
    OBJECTIVES,
    POS_INF,
    SOLVED,
    BoundSumError,
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
    out = combined_solve(inst, "any")
    assert out.status == SOLVED
    rents = out.allocation.rents
    assert 5 <= rents[0] <= 6
    assert check_envy_free(inst, out.allocation) == []
    assert check_constraints(inst, out.allocation).all_ok


def test_budget_aware_detects_cap_shortfall():
    inst = make_fix_a(total_rent=10, budgets=[[6, 5], [5, 3]])
    out = combined_solve(inst, "any")
    assert out.status == INFEASIBLE
    assert out.certificate.kind == BUDGET_CAP_VIOLATION
    assert "9" in out.certificate.explanation


def test_seed_runs_once_per_solve(monkeypatch):
    # components start from their slice of the global seed, not a re-seed
    inst = make_instance([[10, 0, 0], [0, 10, 0], [0, 0, 10]], 6,
                         budgets=[[50] * 3] * 3)
    seed = initial_ef_allocation(inst)
    assert len(scc_partition(build_envy_graph(inst, seed))) >= 3
    calls = []
    seed_fn = rentdiv.budgets.initial_ef_allocation

    def counting_seed(*args, **kwargs):
        calls.append(args)
        return seed_fn(*args, **kwargs)

    monkeypatch.setattr(rentdiv.budgets, "initial_ef_allocation",
                        counting_seed)
    assert combined_solve(inst, "any").status == SOLVED
    assert len(calls) == 1


@pytest.mark.parametrize("budgets", [None, [[50] * 3] * 3])
def test_one_hungarian_per_solve(monkeypatch, budgets):
    # the canonical assignment and the seed's prices come from one run
    inst = make_instance([[5, 5, 0], [5, 5, 0], [0, 1, 10]], 6,
                         budgets=budgets)
    calls = []
    hungarian = rentdiv.matching._hungarian_min_cost

    def counting_hungarian(cost):
        calls.append(len(cost))
        return hungarian(cost)

    monkeypatch.setattr(rentdiv.matching, "_hungarian_min_cost",
                        counting_hungarian)
    for objective in OBJECTIVES:
        calls.clear()
        assert combined_solve(inst, objective).status == SOLVED
        assert calls == [3]


@pytest.mark.parametrize("vals, budgets, components", [
    ([[5, 4, 0], [4, 5, 0], [0, 1, 10]], None, []),
    ([[5, 4, 0], [4, 5, 0], [0, 1, 10]], [[50] * 3] * 3, []),
    # a multi-room component's economy is an Instance of its own, scaled
    # once however often its budget graph is rebuilt
    ([[5, 5, 0], [5, 5, 0], [0, 1, 10]], [[50] * 3] * 3, [((5, 5), (5, 5))]),
])
def test_one_scaling_per_solve(monkeypatch, vals, budgets, components):
    # the seed, both engines and every envy check share one integer matrix
    calls = []
    scale = rentdiv.model._scaled_int_matrix

    def counting_scale(valuations):
        calls.append(valuations)
        return scale(valuations)

    monkeypatch.setattr(rentdiv.model, "_scaled_int_matrix", counting_scale)
    for objective in OBJECTIVES:
        inst = make_instance(vals, 6, budgets=budgets)
        calls.clear()
        assert combined_solve(inst, objective).status == SOLVED
        assert calls == [inst.valuations, *components], objective


def test_cap_check_precedes_the_repair():
    # Room 1's lower bound sits above every occupant's budget for it: the
    # arithmetic cap check names that room before any rent moves.
    inst = make_instance([[1, 1], [1, 1]], 2, lower_bounds=[1, "-inf"],
                         budgets=[[-1, "inf"], [-1, "inf"]])
    out = combined_solve(inst, "any")
    assert out.status == INFEASIBLE
    assert out.certificate.kind == BUDGET_CAP_VIOLATION
    assert out.certificate.witness_rooms == (0,)
    assert check_certificate(inst, out.certificate) == []
    assert oracle_solve(inst, "any").status == INFEASIBLE


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


def tie_heavy_instance(rng):
    """Valuations 0..3 (ties everywhere), each bound and budget infinite or
    small, budgets down to -1; about half the instances are feasible."""
    n = rng.randint(2, 4)

    def maybe(x, inf, p):
        return inf if rng.random() < p else x

    lower, upper = [], []
    for _ in range(n):
        lo = rng.randint(-1, 1)
        lower.append(maybe(lo, "-inf", 0.6))
        upper.append(maybe(lo + rng.randint(0, 3), "inf", 0.6))
    return make_instance(
        [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)],
        rng.randint(0, 2 * n), lower_bounds=lower, upper_bounds=upper,
        budgets=[[maybe(rng.randint(-1, 6), "inf", 0.5) for _ in range(n)]
                 for _ in range(n)])


def test_tie_heavy_corpus_matches_oracle():
    rng = random.Random(20261020)
    instances = []
    while len(instances) < 200:
        try:
            instances.append(tie_heavy_instance(rng))
        except BoundSumError:
            continue
    problems = []
    feasible = 0
    for k, inst in enumerate(instances):
        for objective in OBJECTIVES:
            mine = combined_solve(inst, objective)
            theirs = oracle_solve(inst, objective)
            if (mine.status, mine.objective_value) \
                    != (theirs.status, theirs.objective_value):
                problems.append(f"{k}/{objective}: {mine.status} "
                                f"{mine.objective_value} vs oracle "
                                f"{theirs.status} {theirs.objective_value}")
            if mine.status == INFEASIBLE:
                problems += [f"{k}/{objective}: {p}" for p in
                             check_certificate(inst, mine.certificate)]
            elif objective == "any":
                feasible += 1
    assert problems == []
    assert 60 <= feasible <= 140, f"{feasible} of 200 feasible"
