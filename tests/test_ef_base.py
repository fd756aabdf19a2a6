import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import make_fix_a, make_fix_tie
from rentdiv import (
    build_envy_graph,
    check_envy_free,
    initial_ef_allocation,
    make_instance,
    max_welfare_assignment,
    utilities,
)
from rentdiv.dynamics import TraceLog
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
    # uniform rents (2, 2) leave agent 2 envying room 1 by 8; the repair
    # must slide rents until that gap closes at r = (6, -2)
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


# The seed's whole trajectory on three fixed instances: final rents, event
# count and every event time. Any change to the seed's path shows here.
GOLDEN_SEEDS = [
    (_spliddit_style(8, 8),
     ("97474691/1350", "388463593/4500", "84518812/1125", "940058317/13500",
      "78474187/1125", "111561941/1350", "288136093/4500",
      "889460317/13500"),
     ("7451/5", "14844/25", "8031/25", "2839/5", "97", "1743/10", "12936/25",
      "761/2", "6847/50", "97", "8709/250", "879", "194983/375",
      "475466/1125", "800", "1023337/2250", "10335481/4500", "1089/25",
      "463157/2250", "2024423/2250", "3559/100", "18775369/13500",
      "4421593/13500")),
    (_tie_heavy(35, 7),
     ("-17/63", "47/42", "59/84", "-85/168", "83/168", "46/63", "-17/63"),
     ("1/3", "2/9", "1/6", "7/18", "1/36", "5/24")),
    (_tie_heavy(31, 8),
     ("265/392", "265/392", "71/56", "265/392", "-127/392", "265/392",
      "-127/392", "657/392"),
     ("1/7", "3/7", "3/14", "3/14", "37/98")),
]


def test_seed_trajectory_is_pinned():
    for inst, rents, times in GOLDEN_SEEDS:
        trace = TraceLog()
        out = initial_ef_allocation(inst, trace=trace)
        assert out.rents == tuple(Fraction(r) for r in rents)
        assert trace.counters["initial_ef_events"] == len(times)
        assert tuple(str(ev["time"]) for ev in trace.events) == times
        assert {ev["phase"] for ev in trace.events} == {"initial_ef"}


tie_heavy_instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.fractions(min_value=-10, max_value=30, max_denominator=3)))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances)
def test_tie_heavy_seed_is_envy_free_within_caps(case):
    vals, total = case
    inst = make_instance(vals, total)
    n = inst.n
    trace = TraceLog()
    out = initial_ef_allocation(inst, trace=trace)
    assert check_envy_free(inst, out) == []
    assert sum(out.rents, Fraction(0)) == total
    events = trace.counters.get("initial_ef_events", 0)
    assert events == len(trace.events)
    assert events <= n ** 3 + 8 * n * n + 8
    for ev in trace.events:
        assert sum(ev["rents"], Fraction(0)) == total
