import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_tie
from rentdiv import (
    Allocation,
    Assignment,
    all_max_welfare_assignments,
    build_envy_graph,
    check_envy_free,
    initial_ef_allocation,
    make_instance,
    max_welfare_assignment,
    utilities,
)
from rentdiv.ef_base import shift_rents


def test_fix_a_uniform_start_is_already_fair():
    out = initial_ef_allocation(make_fix_a())
    assert out.assignment.room_of_agent == (0, 1)
    assert out.rents == (4, 4)


def test_fix_tie_equal_rents():
    out = initial_ef_allocation(make_fix_tie())
    assert out.assignment.room_of_agent == (0, 1)
    assert out.rents == (3, 3)


def test_single_agent_gets_whole_total():
    out = initial_ef_allocation(make_instance([[0]], 5))
    assert out.rents == (5,)


def test_repair_eliminates_strong_envy():
    # uniform rents (2, 2) would leave agent 2 envying room 1 by 8; the
    # seed prices room 1 exactly 8 above room 2, at r = (6, -2)
    inst = make_instance([[10, 0], [8, 0]], 4)
    out = initial_ef_allocation(inst)
    assert out.assignment.room_of_agent == (0, 1)
    assert out.rents == (6, -2)
    assert check_envy_free(inst, out) == []


def test_shift_rents():
    tie = initial_ef_allocation(make_fix_tie())
    up = shift_rents(tie, Fraction(4))
    assert up.rents == (5, 5)
    assert shift_rents(tie, Fraction(0)) == tie
    one = initial_ef_allocation(make_instance([[0]], 5))
    assert shift_rents(one, Fraction(-5)).rents == (0,)


small_instances = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.fractions(min_value=0, max_value=50, max_denominator=6),
                     min_size=n, max_size=n),
            min_size=n, max_size=n),
        st.fractions(min_value=-50, max_value=120, max_denominator=4)))


@settings(max_examples=80, deadline=None)
@given(small_instances)
def test_always_envy_free_with_exact_total(case):
    vals, total = case
    inst = make_instance(vals, total)
    out = initial_ef_allocation(inst)
    assert check_envy_free(inst, out) == []
    assert sum(out.rents, Fraction(0)) == total
    assert out.assignment == max_welfare_assignment(vals)


@settings(max_examples=50, deadline=None)
@given(small_instances, st.fractions(min_value=-40, max_value=40,
                                     max_denominator=5))
def test_shift_preserves_envy_structure(case, delta):
    vals, total = case
    inst = make_instance(vals, total)
    before = initial_ef_allocation(inst)
    after = shift_rents(before, delta)
    assert sum(after.rents, Fraction(0)) == total + delta
    # rents move uniformly, so utilities drop uniformly and edges persist
    d = utilities(inst, before)[0] - utilities(inst, after)[0] if inst.n else 0
    assert all(b - a == d for b, a in zip(utilities(inst, before),
                                          utilities(inst, after)))
    assert build_envy_graph(inst, before).edges \
        == build_envy_graph(inst, after).edges


def _spliddit_style(seed, n):
    """Whole-cent valuations: each agent splits the total over the rooms,
    rooms share a quality and every agent adds integer taste noise."""
    rng = random.Random(seed)
    share = rng.randint(500, 1500) * 100
    total = share * n
    quality = [rng.randint(-15, 15) for _ in range(n)]
    vals = []
    for _ in range(n):
        weights = [max(5, 100 + quality[j] + rng.randint(-10, 10))
                   for j in range(n)]
        row = [total * w // sum(weights) for w in weights]
        row[rng.randrange(n)] += total - sum(row)
        vals.append(row)
    return make_instance(vals, total)


def _tie_heavy(seed, n):
    rng = random.Random(seed)
    vals = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    return make_instance(vals, rng.randint(0, 4 * n))


# The seed's rents on three fixed instances: a cents-valued n=8 instance and
# two tie-heavy ones. Any change to the seed's prices shows here.
GOLDEN_SEEDS = [
    (_spliddit_style(8, 8),
     ("573743/8", "704183/8", "592591/8", "555807/8", "549607/8", "657223/8",
      "525823/8", "525823/8")),
    (_tie_heavy(35, 7),
     ("-2/7", "5/7", "5/7", "-2/7", "5/7", "5/7", "-2/7")),
    (_tie_heavy(31, 8),
     ("3/4", "3/4", "3/4", "3/4", "-1/4", "3/4", "-1/4", "7/4")),
]


def _denominator_cap(inst):
    """n * dv * den(total): every seed rent's denominator divides it."""
    dv = lcm(*[v.denominator for row in inst.valuations for v in row])
    return inst.n * dv * inst.total_rent.denominator


def test_seed_trajectory_is_pinned():
    for inst, rents in GOLDEN_SEEDS:
        out = initial_ef_allocation(inst)
        assert out.rents == tuple(Fraction(r) for r in rents)
        assert all(_denominator_cap(inst) % r.denominator == 0
                   for r in out.rents)


SWAP_SCRIPT = """
from rentdiv import Assignment, initial_ef_allocation, make_instance
assert not __debug__, "must run under python -O"
try:
    initial_ef_allocation(make_instance([[10, 2], [4, 6]], 8),
                          Assignment((1, 0)))
except ValueError:
    pass
else:
    raise SystemExit("a swap below max welfare was seeded under -O")
"""


def test_seed_rejects_assignment_below_max_welfare():
    # fix_a's optimum is the identity (welfare 16); the swap reaches 6
    inst = make_fix_a()
    with pytest.raises(ValueError, match="maximize welfare"):
        initial_ef_allocation(inst, Assignment((1, 0)))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", SWAP_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def tie_heavy_instances(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(min_value=0, max_value=3),
                              min_size=n, max_size=n),
                     min_size=n, max_size=n),
            st.fractions(min_value=-10, max_value=30, max_denominator=3)))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances(8))
def test_tie_heavy_seed_is_envy_free_within_caps(case):
    vals, total = case
    inst = make_instance(vals, total)
    out = initial_ef_allocation(inst)
    assert check_envy_free(inst, out) == []
    assert sum(out.rents, Fraction(0)) == total
    assert all(_denominator_cap(inst) % r.denominator == 0 for r in out.rents)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_instances(6))
def test_seed_is_envy_free_for_every_optimum(case):
    vals, total = case
    inst = make_instance(vals, total)
    rents = initial_ef_allocation(inst).rents
    for optimum in all_max_welfare_assignments(inst.valuations):
        assert check_envy_free(inst, Allocation(optimum, rents)) == []
