from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_tie
from rentdiv import (
    Allocation,
    Assignment,
    build_budget_graph,
    build_envy_graph,
    check_envy_free,
    initial_ef_allocation,
    make_instance,
    scc_partition,
)
from rentdiv.ef_base import shift_rents
from rentdiv.envy import (
    STRONG,
    WEAK,
    co_reachable,
    find_cycle_through,
    reachable,
)


def alloc(rooms, rents):
    return Allocation(Assignment(tuple(rooms)), tuple(Fraction(r) for r in rents))


def edge_pairs(g):
    return [(a, b) for a, b, _ in g.edges]


def test_plain_graph_edgeless_at_6_2():
    g = build_envy_graph(make_fix_a(), alloc([0, 1], [6, 2]))
    assert g.edges == ()


def test_plain_graph_weak_edge_at_8_0():
    g = build_envy_graph(make_fix_a(), alloc([0, 1], [8, 0]))
    assert g.edges == ((0, 1, WEAK),)


def test_plain_graph_two_cycle_on_ties():
    g = build_envy_graph(make_fix_tie(), alloc([0, 1], [3, 3]))
    assert edge_pairs(g) == [(0, 1), (1, 0)]
    assert all(s == WEAK for _, _, s in g.edges)


def test_strong_edge_on_envy():
    g = build_envy_graph(make_fix_a(), alloc([0, 1], [0, 8]))
    assert (1, 0, STRONG) in g.edges


def test_budget_graph_needs_strict_slack():
    inst = make_fix_tie(budgets=[[3, 4], [4, 3]])
    g = build_budget_graph(inst, alloc([0, 1], [3, 3]))
    assert edge_pairs(g) == [(0, 1), (1, 0)]

    tight = make_fix_tie(budgets=[[3, 3], [3, 3]])
    g = build_budget_graph(tight, alloc([0, 1], [3, 3]))
    assert g.edges == ()


def test_budget_graph_drops_unaffordable_destination():
    inst = make_fix_a(budgets=[[9, 0], [9, 9]])
    plain = build_envy_graph(inst, alloc([0, 1], [8, 0]))
    budget = build_budget_graph(inst, alloc([0, 1], [8, 0]))
    assert (0, 1) in edge_pairs(plain)
    assert budget.edges == ()  # weak envy exists but 0 < 0 fails


def tie_graph():
    return build_envy_graph(make_fix_tie(), alloc([0, 1], [3, 3]))


def edgeless_graph():
    return build_envy_graph(make_fix_a(), alloc([0, 1], [6, 2]))


def test_reachable():
    assert reachable(tie_graph(), {0}) == {0, 1}
    assert reachable(edgeless_graph(), {0}) == {0}
    assert reachable(tie_graph(), set()) == frozenset()


def test_co_reachable():
    assert co_reachable(tie_graph(), {1}) == {0, 1}
    assert co_reachable(edgeless_graph(), {1}) == {1}
    assert co_reachable(tie_graph(), set()) == frozenset()


def test_scc_partition():
    assert scc_partition(tie_graph()) == (frozenset({0, 1}),)
    assert scc_partition(edgeless_graph()) == (frozenset({0}), frozenset({1}))
    single = build_envy_graph(make_instance([[3]], 7), alloc([0], [7]))
    assert scc_partition(single) == (frozenset({0}),)


def test_scc_topological_order():
    g = build_envy_graph(make_fix_a(), alloc([0, 1], [8, 0]))
    assert scc_partition(g) == (frozenset({0}), frozenset({1}))


def test_find_cycle():
    inst = make_fix_tie(budgets=[[3, 4], [4, 3]])
    g = build_budget_graph(inst, alloc([0, 1], [3, 3]))
    assert find_cycle_through(g, 0) == (0, 1)
    assert find_cycle_through(edgeless_graph(), 0) is None
    one_way = build_envy_graph(make_fix_a(), alloc([0, 1], [8, 0]))
    assert find_cycle_through(one_way, 0) is None
    assert find_cycle_through(one_way, 1) is None


small_instances = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=6).map(Fraction),
                     min_size=n, max_size=n),
            min_size=n, max_size=n),
        st.integers(min_value=-10, max_value=10).map(Fraction)))


@settings(max_examples=50, deadline=None)
@given(small_instances)
def test_reachability_duality(case):
    vals, total = case
    inst = make_instance(vals, total)
    g = build_envy_graph(inst, initial_ef_allocation(inst))
    for i in range(g.n):
        r_i = reachable(g, {i})
        for j in range(g.n):
            assert (j in r_i) == (i in co_reachable(g, {j}))


@settings(max_examples=50, deadline=None)
@given(small_instances)
def test_cycle_iff_nontrivial_component(case):
    vals, total = case
    inst = make_instance(vals, total)
    g = build_envy_graph(inst, initial_ef_allocation(inst))
    comp_of = {}
    for comp in scc_partition(g):
        for v in comp:
            comp_of[v] = comp
    for v in range(g.n):
        cycle = find_cycle_through(g, v)
        if len(comp_of[v]) >= 2:
            assert cycle is not None
            assert v in cycle
            assert len(set(cycle)) == len(cycle)
            succ = [set(x) for x in g.successors()]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert b in succ[a]
        else:
            assert cycle is None


@settings(max_examples=50, deadline=None)
@given(small_instances)
def test_ef_graphs_have_weak_edges_only(case):
    vals, total = case
    inst = make_instance(vals, total)
    a = initial_ef_allocation(inst)
    assert check_envy_free(inst, a) == []
    g = build_envy_graph(inst, a)
    assert all(s == WEAK for _, _, s in g.edges)


@settings(max_examples=50, deadline=None)
@given(small_instances)
def test_component_partition_is_allocation_independent(case):
    # same instance, two different EF allocations: identical component sets
    vals, total = case
    inst = make_instance(vals, total)
    first = initial_ef_allocation(inst)
    other = shift_rents(first, Fraction(17))
    shifted_inst = make_instance(vals, total + 17)
    p1 = scc_partition(build_envy_graph(inst, first))
    p2 = scc_partition(build_envy_graph(shifted_inst, other))
    assert set(p1) == set(p2)


def _reference_gaps(inst, a):
    """check_envy_free spelled out in Fraction arithmetic."""
    sigma = a.assignment.room_of_agent
    out = []
    for i in range(inst.n):
        own = inst.valuations[i][sigma[i]] - a.rents[sigma[i]]
        for j in range(inst.n):
            gap = (inst.valuations[i][j] - a.rents[j]) - own
            if j != sigma[i] and gap > 0:
                out.append((i, j, gap))
    return out


def _reference_edges(inst, a, budgets=None):
    """Envy edges spelled out in Fraction arithmetic, sorted by (from, to);
    with budgets, only toward rooms strictly below the mover's budget."""
    sigma = a.assignment.room_of_agent
    edges = []
    for i in range(inst.n):
        x = sigma[i]
        own = inst.valuations[i][x] - a.rents[x]
        for j in range(inst.n):
            other = inst.valuations[i][j] - a.rents[j]
            if j == x or own > other:
                continue
            if budgets is not None and not a.rents[j] < budgets[i][j]:
                continue
            edges.append((x, j, STRONG if own < other else WEAK))
    return tuple(sorted(edges))


# Tie-heavy valuations with mixed denominators; rents that often repeat
# each other or a valuation, or have large denominators, or are negative;
# budgets infinite or drawn like the rents, so often equal to one.
_small = st.sampled_from([Fraction(k, d) for d in (1, 2, 3) for k in range(4)])
_rent = st.one_of(
    _small, _small.map(lambda r: -r),
    st.fractions(min_value=-40, max_value=40, max_denominator=10**9))
_budget = st.one_of(st.just("inf"), _rent)


@st.composite
def envy_check_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vals = draw(st.lists(st.lists(_small, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    budgets = draw(st.lists(st.lists(_budget, min_size=n, max_size=n),
                            min_size=n, max_size=n))
    rooms = draw(st.permutations(range(n)))
    rents = draw(st.lists(_rent, min_size=n, max_size=n))
    return make_instance(vals, 0, budgets=budgets), alloc(rooms, rents)


@settings(max_examples=300, deadline=None)
@given(envy_check_cases())
def test_integer_checks_match_fraction_reference(case):
    inst, a = case
    assert check_envy_free(inst, a) == _reference_gaps(inst, a)
    assert build_envy_graph(inst, a).edges == _reference_edges(inst, a)
    assert build_budget_graph(inst, a).edges \
        == _reference_edges(inst, a, inst.budgets)
