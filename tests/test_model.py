import os
import subprocess
import sys
import tomllib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import FIX_EX_VALS, make_fix_a, make_fix_ex, make_fix_tie
import rentdiv
from rentdiv import (
    Allocation,
    Assignment,
    BoundOrderError,
    BoundSumError,
    BoundaryError,
    ShapeError,
    SolveOutcome,
    check_constraints,
    check_envy_free,
    make_instance,
    utilities,
    validate_instance,
)
from rentdiv.model import (
    NEG_INF,
    POS_INF,
    assert_solution_boundary,
    decimal_str,
    format_rat,
    rat,
)


def alloc(rooms, rents):
    return Allocation(Assignment(tuple(rooms)), tuple(Fraction(r) for r in rents))


def test_validate_accepts_fix_a():
    inst = make_fix_a()
    assert inst.n == 2
    assert inst.valuations[0][0] == 10
    assert inst.total_rent == 8
    assert inst.lower_bounds == (NEG_INF, NEG_INF)
    assert inst.upper_bounds == (POS_INF, POS_INF)
    assert all(b == POS_INF for row in inst.budgets for b in row)


def test_validate_rejects_upper_sum_below_total():
    with pytest.raises(BoundSumError) as err:
        make_instance([[1, 1], [1, 1]], 8, upper_bounds=[1, 1])
    cert = err.value.certificate
    assert cert.kind == "bound_sum_violation"
    assert cert.witness_rooms == (0, 1)


def test_validate_rejects_lower_sum_above_total():
    with pytest.raises(BoundSumError):
        make_instance([[1, 1], [1, 1]], 8, lower_bounds=[5, 5])


def test_validate_accepts_single_agent():
    inst = make_instance([[0]], 5)
    assert inst.n == 1
    # the unique allocation pins the one rent to the whole total
    a = alloc([0], [5])
    assert check_constraints(inst, a).all_ok
    assert check_envy_free(inst, a) == []


def test_validate_rejects_non_square():
    with pytest.raises(ShapeError):
        make_instance([[1, 2], [3, 4], [5, 6]], 4)
    with pytest.raises(ShapeError):
        make_instance([[1, 2, 3], [4, 5, 6]], 4)


def test_validate_rejects_crossed_bounds():
    with pytest.raises(BoundOrderError):
        make_instance([[1, 1], [1, 1]], 2, lower_bounds=[2, 0],
                      upper_bounds=[1, 2])


def test_validate_rejects_negative_valuation():
    for negative in (-1, "-1/3"):
        with pytest.raises(ValueError):
            make_instance([[1, negative], [1, 1]], 2)


def test_scaled_valuations_are_cached_tuples_outside_equality():
    inst = make_instance([[1, "1/2"], ["2/3", 0]], 1)
    twin = make_instance([[1, "1/2"], ["2/3", 0]], 1)
    weights, dv = inst.scaled_valuations
    assert (weights, dv) == (((6, 3), (4, 0)), 6)
    assert type(weights) is tuple
    assert all(type(row) is tuple for row in weights)
    assert inst.scaled_valuations is inst.scaled_valuations
    # twin is not scaled yet: the cache takes no part in ==, hash or repr
    assert twin == inst and hash(twin) == hash(inst)
    assert repr(twin) == repr(inst)
    assert "scaled" not in repr(inst)
    doubled = replace(inst, valuations=((Fraction(2), Fraction(1, 2)),
                                        (Fraction(2, 3), Fraction(0))))
    assert doubled.scaled_valuations == (((12, 3), (4, 0)), 6)
    assert inst.scaled_valuations == (((6, 3), (4, 0)), 6)
    # entries already over the common denominator keep their numerators
    big = make_instance([[10**30, 1], [2, 3]], 0)
    assert big.scaled_valuations[0][0][0] is big.valuations[0][0].numerator


def test_utilities_fix_a():
    assert utilities(make_fix_a(), alloc([0, 1], [6, 2])) == (4, 4)


def test_utilities_fix_ex():
    u = utilities(make_fix_ex(), alloc([0, 1, 2, 3], [0, 2, 0, 2]))
    assert u == (20, 17, 5, 0)


def test_utilities_zero_rents():
    inst = make_fix_ex(lower_bounds=None, upper_bounds=None, total_rent=0)
    u = utilities(inst, alloc([0, 1, 2, 3], [0, 0, 0, 0]))
    assert u == tuple(FIX_EX_VALS[i][i] for i in range(4))


def test_envy_free_fix_a_at_6_2():
    assert check_envy_free(make_fix_a(), alloc([0, 1], [6, 2])) == []


def test_envy_violation_reports_gap():
    # agent 2 pays 8 for room 2 (u = -2) while room 1 is free (u would be 4)
    out = check_envy_free(make_fix_a(), alloc([0, 1], [0, 8]))
    assert out == [(1, 0, 6)]


def test_envy_free_single_agent():
    assert check_envy_free(make_instance([[3]], 7), alloc([0], [7])) == []


def test_constraints_fix_ex_leximin_rents():
    report = check_constraints(make_fix_ex(), alloc([0, 1, 2, 3], [0, 2, 0, 2]))
    assert report.all_ok
    assert report.violations == ()


def test_constraints_budgets():
    inst = make_fix_a(budgets=[[6, 5], [5, 3]])
    report = check_constraints(inst, alloc([0, 1], [6, 2]))
    assert report.budgets_ok  # 6 <= 6 and 2 <= 3
    assert report.all_ok


def test_constraints_total_only():
    inst = make_fix_a()
    a = alloc([0, 1], [9, -1])
    report = check_constraints(inst, a)
    assert report.total_ok and report.bounds_ok and report.budgets_ok
    assert check_envy_free(inst, a) != []  # EF is a separate check


def test_constraints_flag_violations():
    inst = make_fix_a(lower_bounds=[0, 0], upper_bounds=[5, 5],
                      budgets=[[4, 8], [8, 8]])
    report = check_constraints(inst, alloc([0, 1], [6, 2]))
    assert not report.bounds_ok
    assert not report.budgets_ok
    assert report.total_ok
    assert len(report.violations) == 2


def test_rat_parses_exactly():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("2.5") == Fraction(5, 2)
    assert rat("-0.125") == Fraction(-1, 8)
    assert rat(7) == Fraction(7)
    assert rat(Fraction(3, 4)) == Fraction(3, 4)


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_format_rendering():
    assert format_rat(Fraction(1, 3)) == "1/3"
    assert format_rat(Fraction(4)) == "4"
    assert format_rat(POS_INF) == "inf"
    assert format_rat(NEG_INF) == "-inf"
    assert decimal_str(Fraction(5, 2)) == "2.5"
    assert decimal_str(Fraction(1, 3)) == "0.33333333333333333333"


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)


@given(rationals)
def test_rational_round_trip(x):
    assert rat(format_rat(x)) == x


@given(rationals, rationals)
def test_rational_arithmetic_identities(a, b):
    assert (a + b) - b == a
    assert a + b == b + a
    if b != 0:
        assert (a / b) * b == a


def test_normalized_instance_is_idempotent():
    inst = make_fix_ex()
    assert validate_instance(inst) == inst


def test_equal_utility_across_tied_assignments():
    # two welfare-max assignments sharing EF rents give identical utilities
    inst = make_fix_tie()
    rents = (Fraction(3), Fraction(3))
    ident = alloc([0, 1], rents)
    swap = alloc([1, 0], rents)
    assert check_envy_free(inst, ident) == []
    assert check_envy_free(inst, swap) == []
    assert utilities(inst, ident) == utilities(inst, swap)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert rentdiv.__version__ == meta["project"]["version"]


BOUNDARY_SCRIPT = """
from fractions import Fraction
from rentdiv import Allocation, Assignment, BoundaryError, SolveOutcome
from rentdiv import make_instance
from rentdiv.model import assert_solution_boundary
if __debug__:
    raise SystemExit("expected to run under python -O")
inst = make_instance([[10, 2], [4, 6]], 8, upper_bounds=[7, 7])
bad = [
    lambda: SolveOutcome(status="bogus", objective="any"),
    lambda: SolveOutcome(status="solved", objective="any"),
    lambda: assert_solution_boundary(inst, Allocation(
        Assignment((0, 1)), (Fraction(0), Fraction(8)))),
    lambda: assert_solution_boundary(inst, Allocation(
        Assignment((0, 1)), (Fraction(8), Fraction(0)))),
]
for k, call in enumerate(bad):
    try:
        call()
    except BoundaryError:
        continue
    raise SystemExit(f"boundary check {k} did not raise")
"""


def test_boundary_checks_raise_even_under_python_O():
    inst = make_fix_a(upper_bounds=[7, 7])
    with pytest.raises(BoundaryError, match="status"):
        SolveOutcome(status="bogus", objective="any")
    with pytest.raises(BoundaryError, match="allocation"):
        SolveOutcome(status="solved", objective="any")
    with pytest.raises(BoundaryError, match="certificate"):
        SolveOutcome(status="infeasible", objective="any")
    with pytest.raises(BoundaryError, match="envious"):
        assert_solution_boundary(inst, alloc((0, 1), (0, 8)))
    with pytest.raises(BoundaryError, match="constraints"):
        assert_solution_boundary(inst, alloc((0, 1), (8, 0)))
    assert_solution_boundary(inst, alloc((0, 1), (6, 2)))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", BOUNDARY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
