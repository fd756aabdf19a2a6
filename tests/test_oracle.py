import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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
    MINIMIZE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
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


# The dense Fraction two-phase simplex that lp_solve replaced, kept as the
# reference: same column order, row order and Bland's rule, one division per
# entry per pivot. Equal points from both mean the pivots were the same.

def _ref_pivot(tableau, basis, row, col):
    pivot_row = tableau[row]
    pv = pivot_row[col]
    if pv != 1:
        pivot_row = [x / pv for x in pivot_row]
        tableau[row] = pivot_row
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            f = other[col]
            tableau[i] = [a - f * p for a, p in zip(other, pivot_row)]
    basis[row] = col


def _ref_simplex(tableau, basis, width):
    m = len(tableau) - 1
    while True:
        cost = tableau[-1]
        col = next((j for j in range(width) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return UNBOUNDED
        _ref_pivot(tableau, basis, best[2], col)


def _ref_point(tableau, basis, nv):
    values = {b: tableau[i][-1] for i, b in enumerate(basis)}
    return tuple(values.get(2 * v, F(0)) - values.get(2 * v + 1, F(0))
                 for v in range(nv))


def reference_lp_solve(lp):
    nv = len(lp.names)
    flip = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}
    rows = [(tuple(-c for c in coeffs), flip[rel], -rhs) if rhs < 0
            else (coeffs, rel, rhs) for coeffs, rel, rhs in lp.constraints]
    n_slack = sum(1 for _, rel, _ in rows if rel != EQUAL)
    n_art = sum(1 for _, rel, _ in rows if rel != LESS_EQUAL)
    split = 2 * nv
    width = split + n_slack
    tableau, basis = [], []
    si = ai = 0
    for coeffs, rel, rhs in rows:
        row = [F(0)] * (width + n_art + 1)
        for v, c in enumerate(coeffs):
            row[2 * v], row[2 * v + 1] = F(c), -F(c)
        if rel != EQUAL:
            row[split + si] = F(1) if rel == LESS_EQUAL else F(-1)
            si += 1
        row[-1] = F(rhs)
        if rel == LESS_EQUAL:
            basis.append(split + si - 1)
        else:
            row[width + ai] = F(1)
            basis.append(width + ai)
            ai += 1
        tableau.append(row)
    if n_art:
        cost = [F(0)] * (width + n_art + 1)
        for i, b in enumerate(basis):
            if b >= width:
                cost = [c - a for c, a in zip(cost, tableau[i])]
        for j in range(width, width + n_art):
            cost[j] = F(0)
        tableau.append(cost)
        assert _ref_simplex(tableau, basis, width + n_art) == OPTIMAL
        if -tableau[-1][-1] != 0:
            return LPResult(status=LP_INFEASIBLE)
        tableau.pop()
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] >= width:
                col = next((j for j in range(width) if tableau[i][j] != 0),
                           None)
                if col is None:
                    tableau.pop(i)
                    basis.pop(i)
                else:
                    _ref_pivot(tableau, basis, i, col)
        tableau = [row[:width] + row[-1:] for row in tableau]
    if lp.objective is None:
        return LPResult(status=OPTIMAL, point=_ref_point(tableau, basis, nv))
    coeffs, sense = lp.objective
    sign = -1 if sense == MAXIMIZE else 1
    cost = [F(0)] * (width + 1)
    for v, c in enumerate(coeffs):
        cost[2 * v], cost[2 * v + 1] = sign * F(c), -sign * F(c)
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            cost = [c - f * a for c, a in zip(cost, tableau[i])]
    tableau.append(cost)
    if _ref_simplex(tableau, basis, width) == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    return LPResult(status=OPTIMAL, value=sign * -tableau[-1][-1],
                    point=_ref_point(tableau[:-1], basis, nv))


def mixed_rational(lo, hi):
    return st.builds(F, st.integers(min_value=lo, max_value=hi),
                     st.sampled_from((1, 2, 3, 7)))


@st.composite
def tie_heavy_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.lists(st.one_of(st.just(F(0)), st.just(F(1)), st.just(F(-1)),
                                mixed_rational(-6, 6)),
                      min_size=n, max_size=n).map(tuple)
    rhs = st.one_of(st.just(F(0)), mixed_rational(-9, 9))
    rows = draw(st.lists(st.tuples(
        coeffs, st.sampled_from((LESS_EQUAL, EQUAL, GREATER_EQUAL)), rhs),
        max_size=7))
    for k in draw(st.lists(st.integers(min_value=0, max_value=6),
                           max_size=2)):
        if k < len(rows):  # an equality row and a scaled copy of it
            c, _, b = rows[k]
            scale = draw(st.sampled_from((F(1), F(-2), F(3, 7))))
            rows[k] = (c, EQUAL, b)
            rows.append((tuple(scale * x for x in c), EQUAL, scale * b))
    # an objective parallel to a row leaves a face of optima, where only
    # the pivot sequence decides which vertex is returned
    parallel = st.sampled_from([c for c, _, _ in rows]) if rows else coeffs
    objective = draw(st.one_of(st.none(), st.tuples(
        st.one_of(coeffs, parallel), st.sampled_from((MAXIMIZE, MINIMIZE)))))
    return LinearProgram(names=tuple(f"x{j}" for j in range(n)),
                         constraints=tuple(rows), objective=objective)


@settings(max_examples=400, deadline=None)
@given(tie_heavy_lps())
def test_integer_pivots_match_fraction_reference(lp):
    got = lp_solve(lp)
    assert repr(got) == repr(reference_lp_solve(lp))
    if got.status == OPTIMAL and lp.objective is not None:
        coeffs, _ = lp.objective
        assert got.value == sum(c * x for c, x in zip(coeffs, got.point))


def lp2(rows, objective):
    return LinearProgram(
        names=("x", "y"),
        constraints=tuple((tuple(map(F, c)), rel, F(b)) for c, rel, b in rows),
        objective=(tuple(map(F, objective)), MAXIMIZE))


def test_ratio_test_ties_leave_the_lowest_basis_index():
    # phase 1 meets equal ratios; either leaving row gives an optimal basis,
    # and only the lowest-index tie-break returns the vertex (3, 2)
    lp = LinearProgram(
        names=("x", "y"),
        constraints=(((F(2), F(0)), GREATER_EQUAL, F(2)),
                     ((F(0), F(1)), GREATER_EQUAL, F(2)),
                     ((F(1), F(-1)), LESS_EQUAL, F(1))))
    out = lp_solve(lp)
    assert out == LPResult(OPTIMAL, None, (F(3), F(2)))
    assert repr(out) == repr(reference_lp_solve(lp))


def test_phase_one_drops_a_redundant_equality_row():
    # 2x + 4y = 8 restates x + 2y = 4; its artificial stays basic on an
    # all-zero row after phase 1, and the row is dropped
    lp = lp2([((1, 2), EQUAL, 4), ((2, 4), EQUAL, 8),
              ((1, 0), LESS_EQUAL, 3)], (1, 1))
    out = lp_solve(lp)
    assert out == LPResult(OPTIMAL, F(7, 2), (F(3), F(1, 2)))
    assert repr(out) == repr(reference_lp_solve(lp))


def test_phase_one_pivots_a_leftover_artificial_on_a_negative_entry():
    # x - y >= 0 and y - x >= 0 leave artificials basic at zero whose first
    # nonzero real entry is negative; they are pivoted out on it
    lp = lp2([((1, -1), GREATER_EQUAL, 0), ((-1, 1), GREATER_EQUAL, 0),
              ((1, 0), LESS_EQUAL, 3)], (1, 1))
    out = lp_solve(lp)
    assert out == LPResult(OPTIMAL, F(6), (F(3), F(3)))
    assert repr(out) == repr(reference_lp_solve(lp))


LP_BOUNDARY_SCRIPT = """
from fractions import Fraction
from rentdiv.oracle import LinearProgram
if __debug__:
    raise SystemExit("expected to run under python -O")
one = Fraction(1)
bad = [
    lambda: LinearProgram(names=("x",), constraints=(((one, one), "<=", one),)),
    lambda: LinearProgram(names=("x",), constraints=(((one,), "<", one),)),
    lambda: LinearProgram(names=("x", "y"), constraints=(),
                          objective=((one,), "max")),
    lambda: LinearProgram(names=("x",), constraints=(),
                          objective=((one,), "maximize")),
]
for k, call in enumerate(bad):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit(f"linear program check {k} did not raise")
"""


def test_linear_program_checks_raise_even_under_python_O():
    with pytest.raises(ValueError, match="coefficients"):
        LinearProgram(names=("x",), constraints=(((F(1), F(1)), LESS_EQUAL,
                                                  F(1)),))
    with pytest.raises(ValueError, match="relation"):
        LinearProgram(names=("x",), constraints=(((F(1),), "<", F(1)),))
    with pytest.raises(ValueError, match="sense"):
        LinearProgram(names=("x",), constraints=(),
                      objective=((F(1),), "maximize"))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", LP_BOUNDARY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
