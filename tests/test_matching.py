import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIX_A_VALS, FIX_EX_VALS, FIX_TIE_VALS, make_fix_tie
from rentdiv import (
    SizeError,
    all_max_welfare_assignments,
    build_envy_graph,
    initial_ef_allocation,
    make_instance,
    max_welfare_assignment,
    scc_partition,
)
from rentdiv.matching import assignment_welfare


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_fix_a_identity():
    sigma = max_welfare_assignment(F(FIX_A_VALS))
    assert sigma.room_of_agent == (0, 1)
    assert assignment_welfare(F(FIX_A_VALS), sigma) == 16


def test_fix_ex_diagonal():
    sigma = max_welfare_assignment(F(FIX_EX_VALS))
    assert sigma.room_of_agent == (0, 1, 2, 3)
    assert assignment_welfare(F(FIX_EX_VALS), sigma) == 46


def test_tie_breaks_lexicographically():
    sigma = max_welfare_assignment(F(FIX_TIE_VALS))
    assert sigma.room_of_agent == (0, 1)


def test_all_optima_fix_tie():
    out = all_max_welfare_assignments(F(FIX_TIE_VALS))
    assert [a.room_of_agent for a in out] == [(0, 1), (1, 0)]


def test_all_optima_fix_a():
    out = all_max_welfare_assignments(F(FIX_A_VALS))
    assert [a.room_of_agent for a in out] == [(0, 1)]


def test_all_optima_fix_ex():
    # Agents 1 and 3 value rooms 1 and 3 identically, so the diagonal ties
    # with the swap that trades those two rooms; both reach welfare 46.
    out = all_max_welfare_assignments(F(FIX_EX_VALS))
    assert [a.room_of_agent for a in out] == [(0, 1, 2, 3), (2, 1, 0, 3)]


def test_enumeration_size_gate():
    vals = [[Fraction(1)] * 9 for _ in range(9)]
    with pytest.raises(SizeError):
        all_max_welfare_assignments(vals)


small_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=0, max_value=20, max_denominator=4),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_matches_brute_force_optimum(vals):
    n = len(vals)
    best = max(sum(vals[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    sigma = max_welfare_assignment(vals)
    assert assignment_welfare(vals, sigma) == best
    every = all_max_welfare_assignments(vals)
    assert sigma == every[0]
    assert all(assignment_welfare(vals, a) == best for a in every)
    assert [a.room_of_agent for a in every] == sorted(
        a.room_of_agent for a in every)


# Values 0..3 over denominators 1..3: many welfare ties, where the walk over
# the tight graph has to rotate agents to reach the lexicographic optimum.
tie_heavy_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([Fraction(k, d) for d in (1, 2, 3)
                                  for k in range(4)]),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(tie_heavy_matrices)
def test_tie_heavy_optimum_is_lexicographically_first(vals):
    every = all_max_welfare_assignments(vals)
    assert max_welfare_assignment(vals) == every[0]


def _max_matching_size(adjacent):
    """Maximum bipartite matching size by augmenting paths (Kuhn)."""
    room_owner = {}

    def augment(agent, seen):
        for room in adjacent[agent]:
            if room not in seen:
                seen.add(room)
                if room not in room_owner or augment(room_owner[room], seen):
                    room_owner[room] = agent
                    return True
        return False

    return sum(augment(agent, set()) for agent in range(len(adjacent)))


def test_large_zero_one_optimum_is_a_max_matching():
    rng = random.Random(200)
    n = 200
    vals = [[Fraction(rng.randint(0, 1)) for _ in range(n)] for _ in range(n)]
    sigma = max_welfare_assignment(vals)
    assert sorted(sigma.room_of_agent) == list(range(n))
    ones = [[j for j in range(n) if vals[i][j] == 1] for i in range(n)]
    assert assignment_welfare(vals, sigma) == _max_matching_size(ones)


def test_large_all_equal_optimum_is_the_identity():
    # every assignment maximizes welfare, so the lexicographic optimum is
    # the identity
    n = 200
    sigma = max_welfare_assignment([[Fraction(7)] * n for _ in range(n)])
    assert sigma.room_of_agent == tuple(range(n))


tied_matrices = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3).map(Fraction),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(tied_matrices)
def test_component_agents_stable_across_optima(vals):
    # each envy-graph component claims the same agent set under every optimum
    inst = make_instance(vals, 0)
    alloc = initial_ef_allocation(inst)
    graph = build_envy_graph(inst, alloc)
    optima = all_max_welfare_assignments(vals)
    for component in scc_partition(graph):
        crews = {frozenset(i for i, room in enumerate(a.room_of_agent)
                           if room in component)
                 for a in optima}
        assert len(crews) == 1


def test_component_agents_fix_tie():
    inst = make_fix_tie()
    graph = build_envy_graph(inst, initial_ef_allocation(inst))
    (component,) = scc_partition(graph)
    assert set(component) == {0, 1}
