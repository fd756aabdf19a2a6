from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_ex, make_fix_tie
from rentdiv import (
    Assignment,
    SizeError,
    UnsupportedObjectiveError,
    combined_solve,
    make_instance,
    oracle_solve,
)
from rentdiv.model import BOUND_SUM_VIOLATION, INFEASIBLE, POS_INF, SOLVED
from rentdiv.oracle import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LP_INFEASIBLE,
    MAXIMIZE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    ef_polytope,
    lp_solve,
)

F = Fraction


def test_lp_single_variable_max():
    lp = LinearProgram(names=("x",),
                       constraints=(((F(1),), LESS_EQUAL, F(3)),),
                       objective=((F(1),), MAXIMIZE))
    out = lp_solve(lp)
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.point == (3,)


def test_lp_detects_empty_polytope():
    lp = LinearProgram(names=("x",),
                       constraints=(((F(1),), GREATER_EQUAL, F(1)),
                                    ((F(1),), LESS_EQUAL, F(0))))
    assert lp_solve(lp).status == LP_INFEASIBLE


def test_lp_detects_unbounded_ray():
    lp = LinearProgram(names=("x",),
                       constraints=(((F(1),), GREATER_EQUAL, F(0)),),
                       objective=((F(1),), MAXIMIZE))
    assert lp_solve(lp).status == UNBOUNDED


def test_lp_fix_a_maximin_by_hand():
    # variables r1, r2, t: maximize t subject to the two-room fairness band
    lp = LinearProgram(
        names=("r1", "r2", "t"),
        constraints=(
            ((F(1), F(1), F(0)), EQUAL, F(8)),
            ((F(1), F(-1), F(0)), LESS_EQUAL, F(8)),
            ((F(-1), F(1), F(0)), LESS_EQUAL, F(2)),
            ((F(1), F(0), F(1)), LESS_EQUAL, F(10)),  # t <= 10 - r1
            ((F(0), F(1), F(1)), LESS_EQUAL, F(6)),   # t <= 6 - r2
        ),
        objective=((F(0), F(0), F(1)), MAXIMIZE))
    out = lp_solve(lp)
    assert out.status == OPTIMAL
    assert out.value == 4
    assert out.point[:2] == (6, 2)


def test_polytope_shape_fix_a():
    lp = ef_polytope(make_fix_a(), Assignment((0, 1)))
    assert lp.names == ("r1", "r2")
    relations = [rel for _, rel, _ in lp.constraints]
    assert relations.count(EQUAL) == 1
    assert len(lp.constraints) == 3  # total + one envy row per ordered pair


def test_polytope_shape_fix_ex():
    lp = ef_polytope(make_fix_ex(), Assignment((0, 1, 2, 3)))
    assert len(lp.names) == 4
    relations = [rel for _, rel, _ in lp.constraints]
    assert relations.count(EQUAL) == 1
    assert len(lp.constraints) == 1 + 12 + 8  # total, envy pairs, bounds


def test_polytope_shape_single_agent():
    lp = ef_polytope(make_instance([[0]], 5), Assignment((0,)))
    assert len(lp.constraints) == 1
    assert lp.constraints[0][1] == EQUAL
    assert lp.constraints[0][2] == 5


def test_oracle_maximin_fix_a():
    out = oracle_solve(make_fix_a(), "maximin")
    assert out.status == SOLVED
    assert out.objective_value == 4
    assert out.allocation.rents == (6, 2)


def test_oracle_leximin_fix_ex():
    out = oracle_solve(make_fix_ex(), "leximin")
    assert out.status == SOLVED
    assert out.objective_value == (0, 5, 17, 20)
    assert out.allocation.rents == (0, 2, 0, 2)


def test_oracle_minspread_under_bounds():
    inst = make_fix_a(upper_bounds=[5, 5])
    out = oracle_solve(inst, "minspread")
    assert out.status == SOLVED
    assert out.objective_value == 2
    assert out.allocation.rents == (5, 3)


def test_oracle_max_total_rent():
    unbounded = oracle_solve(make_fix_a(), "max_total_rent")
    assert unbounded.objective_value == POS_INF
    capped = oracle_solve(make_fix_tie(budgets=[[3, 4], [4, 3]]),
                          "max_total_rent")
    assert capped.objective_value == 8


def test_oracle_relative_spread():
    out = oracle_solve(make_fix_a(), "min_rel_spread")
    assert out.status == SOLVED
    assert out.objective_value == 1  # utilities can be fully equalized
    with pytest.raises(UnsupportedObjectiveError):
        oracle_solve(make_fix_ex(), "min_rel_spread")  # a zero-utility agent


def test_oracle_reports_infeasible():
    inst = make_fix_a(lower_bounds=[0, 3], upper_bounds=[0, 8])
    out = oracle_solve(inst, "any")
    assert out.status == INFEASIBLE


def test_oracle_bound_sum_certificate():
    # upper bounds 1 + 1 sum below the total rent 8
    inst = replace(make_fix_a(), upper_bounds=(F(1), F(1)))
    out = oracle_solve(inst, "maximin")
    assert out.status == INFEASIBLE
    assert out.certificate.kind == BOUND_SUM_VIOLATION
    assert out.certificate.witness_rooms == (0, 1)
    assert out.certificate == combined_solve(inst, "maximin").certificate


def test_oracle_size_gate():
    vals = [[F(1)] * 9 for _ in range(9)]
    with pytest.raises(SizeError):
        oracle_solve(make_instance(vals, 9), "any")


def random_bounded_lps():
    dims = st.integers(min_value=1, max_value=3)
    coeff = st.integers(min_value=-4, max_value=4).map(F)
    return dims.flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(
                st.lists(coeff, min_size=n, max_size=n),
                st.sampled_from((LESS_EQUAL, EQUAL, GREATER_EQUAL)),
                st.integers(min_value=-8, max_value=8).map(F)),
                min_size=0, max_size=4),
            st.lists(coeff, min_size=n, max_size=n)))


@settings(max_examples=120, deadline=None)
@given(random_bounded_lps())
def test_simplex_answers_substitute_back_exactly(case):
    n, raw_rows, obj = case
    rows = [(tuple(c), rel, rhs) for c, rel, rhs in raw_rows]
    for j in range(n):  # box keeps every candidate LP bounded
        unit = tuple(F(k == j) for k in range(n))
        rows.append((unit, LESS_EQUAL, F(10)))
        rows.append((unit, GREATER_EQUAL, F(-10)))
    lp = LinearProgram(names=tuple(f"x{j}" for j in range(n)),
                       constraints=tuple(rows),
                       objective=(tuple(obj), MAXIMIZE))
    out = lp_solve(lp)
    assert out.status in (OPTIMAL, LP_INFEASIBLE)
    if out.status != OPTIMAL:
        return
    point = out.point
    assert out.value == sum(c * x for c, x in zip(obj, point))
    for coeffs, rel, rhs in rows:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == LESS_EQUAL:
            assert lhs <= rhs
        elif rel == GREATER_EQUAL:
            assert lhs >= rhs
        else:
            assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=0, max_value=15).map(F),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.integers(min_value=0, max_value=30).map(F))))
def test_oracle_leximin_vector_is_sorted_and_fair(case):
    vals, total = case
    inst = make_instance(vals, total)
    out = oracle_solve(inst, "leximin")
    assert out.status == SOLVED
    vec = out.objective_value
    assert vec == tuple(sorted(vec))
    assert vec == tuple(sorted(out.utilities))
    assert vec[0] == oracle_solve(inst, "maximin").objective_value
