"""Envy-free rents under per-room lower/upper rent bounds.

ef_rents_with_bounds repairs a starting EF split until every rent sits inside
its bounds, or proves that impossible. The repair is event-driven: rooms
below their lower bound rise together with everything they force up (forward
closure), rooms above their upper bound fall with everything they force down
(backward closure); between events the envy graph is frozen so EF is
preserved by construction.

Infeasibility is certified, not just reported: either a forward envy chain
from a floor room to a ceiling room (raising one end pushes the other out of
its bounds), or a dead end where every room is forced to move in the same
direction, which the fixed total rent forbids.

maximin_rents / leximin_rents / minspread_rents then optimize inside the
feasible region, starting from any in-bounds EF point. Maximin and
minspread are closed forms on the lattice of EF rents (_Lattice): for a
fixed assignment EF and the bounds are difference constraints, whose least
and greatest solutions are shortest paths, so each stage is a few dense
Dijkstra runs and sorts, and its point does not depend on the start.
Leximin and the repair are still event-driven: every motion is one
EventEngine.step, and leximin raises the lowest utility among unfrozen
rooms until it is stuck, freezes the rooms a lower-bound chain pins and
lifts again.

check_certificate re-derives an infeasibility certificate of any kind from
the instance alone; `rentdiv verify` runs it on infeasible results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .dynamics import EventEngine, RentState, TraceLog
from .envy import _closure, build_envy_graph, co_reachable, reachable
from .matching import _max_welfare, _welfare
from .model import (
    BOUND_SUM_VIOLATION,
    BUDGET_CAP_VIOLATION,
    ENVY_PATH_VIOLATION,
    Allocation,
    Assignment,
    InfeasibilityCertificate,
    Instance,
    ef_slacks,
)

# The one trace event of a closed-form objective stage has kinds
# (OPTIMUM, "min_utility" | "max_utility", term, level): the utility level
# reached and a term that binds it, a chain of EF constraints from a lower
# bound ("floor_chain") or to an upper bound or utility cap ("cap_chain"),
# or the "total".
OPTIMUM = "optimum"


@dataclass(frozen=True)
class BoundsResult:
    """Feasible rents, or a certificate of why none exist."""

    rents: Optional[tuple]
    certificate: Optional[InfeasibilityCertificate]

    def __post_init__(self):
        assert (self.rents is None) != (self.certificate is None)

    @property
    def ok(self) -> bool:
        return self.certificate is None


def _effective(inst: Instance, lower, upper):
    lo = tuple(lower) if lower is not None else inst.lower_bounds
    hi = tuple(upper) if upper is not None else inst.upper_bounds
    # _classes places no room at an infinite bound: -inf lower, +inf upper
    assert all(l <= h and not (isinstance(l, float) and l > 0)
               and not (isinstance(h, float) and h < 0)
               for l, h in zip(lo, hi))
    return lo, hi


def _classes(state: RentState, lower, upper):
    """Rooms strictly below/above their bounds, and exactly at them, on the
    integer rents: r_j = num_j / D sits below l = a / b iff num_j * b < a * D.
    Infinite bounds place no room. A pinned room (l == r == u) lands in both
    at_lower and at_upper."""
    d = state.den
    below, above, at_lower, at_upper = set(), set(), set(), set()
    for j, (x, lo, hi) in enumerate(zip(state.num, lower, upper)):
        if not isinstance(lo, float):
            c = x * lo.denominator - lo.numerator * d
            if c < 0:
                below.add(j)
            elif c == 0:
                at_lower.add(j)
        if not isinstance(hi, float):
            c = x * hi.denominator - hi.numerator * d
            if c > 0:
                above.add(j)
            elif c == 0:
                at_upper.add(j)
    return below, above, at_lower, at_upper


def _start_state(inst, assignment, rents):
    """The engine for the assignment and the integer state of EF rents."""
    assert len(rents) == inst.n
    state = RentState.of(rents)
    total = inst.total_rent
    assert sum(state.num) * total.denominator == total.numerator * state.den
    engine = EventEngine(inst, assignment)
    _, _, strong = engine.weak_strong_adjacency(state)
    assert not strong, "starting rents are not envy-free"
    return engine, state


def _path_witness(n, succ, sources, sinks):
    """Shortest forward path from sources to sinks; lex-smallest on ties."""
    dist = [None] * n
    queue = sorted(sinks)
    for v in queue:
        dist[v] = 0
    pred_adj = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred_adj[w].append(v)
    while queue:
        nxt = []
        for v in queue:
            for w in pred_adj[v]:
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    live = [s for s in sources if dist[s] is not None]
    assert live, "witness requested but no source reaches a sink"
    src = min(live, key=lambda s: (dist[s], s))
    path = [src]
    cur = src
    while dist[cur] > 0:
        cur = min(w for w in succ[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    return tuple(path)


def _rooms_text(rooms):
    return ", ".join(str(j + 1) for j in sorted(rooms))


def ef_rents_with_bounds(inst: Instance, assignment: Assignment, rents,
                         lower=None, upper=None,
                         trace: Optional[TraceLog] = None) -> BoundsResult:
    """Move an EF split into the given rent bounds, keeping it EF throughout.

    lower/upper default to the instance bounds; callers pass tightened
    versions (budget caps, frozen rooms). Starting rents must be EF for the
    assignment and sum to the total; they may violate the bounds arbitrarily.
    """
    n = inst.n
    lower, upper = _effective(inst, lower, upper)
    engine, state = _start_state(inst, assignment, tuple(rents))

    def certificate(explanation, path=None, rooms=None):
        return InfeasibilityCertificate(
            kind=ENVY_PATH_VIOLATION, explanation=explanation,
            witness_path=path, witness_rooms=rooms, assignment=assignment,
            final_rents=state.rents, effective_lower=lower,
            effective_upper=upper)

    iterations = 0
    while True:
        below, above, at_lower, at_upper = _classes(state, lower, upper)
        if not below and not above:
            return BoundsResult(rents=state.rents, certificate=None)
        iterations += 1
        assert iterations <= n * n, "bound repair does not settle"

        succ, pred, strong = engine.weak_strong_adjacency(state)
        assert not strong
        fwd_low = _closure(n, succ, at_lower | below)
        bwd_high = _closure(n, pred, at_upper | above)

        if above & fwd_low:
            path = _path_witness(n, succ, at_lower | below, above)
            return BoundsResult(rents=None, certificate=certificate(
                f"room {path[-1] + 1} must come down to its upper bound, but "
                f"the envy chain {_rooms_text(path)} ties it to room "
                f"{path[0] + 1}, which cannot go lower", path=path))
        if below & bwd_high:
            path = _path_witness(n, succ, below, at_upper | above)
            return BoundsResult(rents=None, certificate=certificate(
                f"room {path[0] + 1} must rise to its lower bound, but the "
                f"envy chain {_rooms_text(path)} ties it to room "
                f"{path[-1] + 1}, which cannot go higher", path=path))

        if below:
            s_inc = _closure(n, succ, below)
        else:
            s_inc = frozenset(range(n)) - _closure(n, pred, at_upper | above)
        if above:
            s_dec = _closure(n, pred, above)
        else:
            s_dec = frozenset(range(n)) - _closure(n, succ, at_lower | below)
        if not s_dec:
            return BoundsResult(rents=None, certificate=certificate(
                "every room is forced upward together with the rooms below "
                "their lower bounds, so the fixed total rent cannot absorb "
                "the rise", rooms=tuple(range(n))))
        if not s_inc:
            return BoundsResult(rents=None, certificate=certificate(
                "every room is forced downward together with the rooms above "
                "their upper bounds, so the fixed total rent cannot absorb "
                "the drop", rooms=tuple(range(n))))

        event, state = engine.step(state, s_inc, s_dec, "inc", lower, upper,
                                   None)
        if trace is not None:
            trace.record("bounds", event.time, event.kinds,
                         {"inc": len(s_inc), "dec": len(s_dec),
                          "below": len(below), "above": len(above)},
                         rents=state.rents, assignment=assignment,
                         lower=lower, upper=upper)
            trace.bump("bounds_events")
            trace.peak("alg1_iterations", iterations)


def check_certificate(inst: Instance, cert: InfeasibilityCertificate) -> list:
    """Problems with an infeasibility certificate, re-derived from the
    instance alone; an empty list means it proves that no envy-free
    allocation meets the constraints.

    Every envy-free allocation uses a welfare-maximizing assignment, so the
    budget-cap and envy-path forms must name one. An envy-path witness's
    effective bounds may be no tighter than the instance's bounds and its
    occupants' budgets; its path or dead end is then checked on the envy
    graph at its final rents.

    Budgets bind through the occupants, so those two forms are checked
    against the named assignment only. They show that this assignment fits
    no envy-free rents inside its caps, not that no other welfare-maximizing
    assignment does: a budget-cap certificate naming a poorly rotated
    assignment passes even when the instance is solvable."""
    n = inst.n
    everything = frozenset(range(n))
    named = [*(cert.witness_path or ()), *(cert.witness_rooms or ())]
    stray = [j for j in named if not (isinstance(j, int) and 0 <= j < n)]
    if stray:
        return [f"witness room {j!r} is not a room index 0..{n - 1}"
                for j in stray]
    if cert.kind == BOUND_SUM_VIOLATION:
        problems = []
        if set(cert.witness_rooms or ()) != everything:
            problems.append("witness must name every room")
        if not (sum(inst.lower_bounds) > inst.total_rent
                or sum(inst.upper_bounds) < inst.total_rent):
            problems.append("bound sums do not exclude the total")
        return problems
    if cert.kind not in (BUDGET_CAP_VIOLATION, ENVY_PATH_VIOLATION):
        return [f"unknown certificate kind {cert.kind!r}"]
    if cert.assignment is None:
        return ["certificate names no assignment"]
    if sorted(cert.assignment.room_of_agent) != list(range(n)):
        return ["certificate assignment is not a permutation of the rooms"]
    weights = inst.scaled_valuations[0]
    if _welfare(weights, cert.assignment.room_of_agent) \
            != _welfare(weights, _max_welfare(weights)[1]):
        return ["certificate assignment does not maximize welfare"]
    occupant = cert.assignment.agent_of_room()
    ceiling = [min(inst.upper_bounds[j], inst.budgets[occupant[j]][j])
               for j in range(n)]

    if cert.kind == BUDGET_CAP_VIOLATION:
        if not cert.witness_rooms:
            return ["budget-cap witness names no rooms"]
        if set(cert.witness_rooms) == everything:
            if not sum(ceiling) < inst.total_rent:
                return ["caps do not exclude the total"]
            return []
        return [f"room {j} fits under its cap" for j in cert.witness_rooms
                if not inst.lower_bounds[j] > ceiling[j]]

    rents, lower, upper = (cert.final_rents, cert.effective_lower,
                           cert.effective_upper)
    if rents is None or lower is None or upper is None:
        return ["envy-path witness lacks its final rents or bounds"]
    if not len(rents) == len(lower) == len(upper) == n:
        return ["envy-path witness needs one final rent and one effective "
                "bound per room"]
    problems = []
    if sum(rents, Fraction(0)) != inst.total_rent:
        problems.append("witness rents break the total")
    for j in range(n):
        if lower[j] > inst.lower_bounds[j] or upper[j] < ceiling[j]:
            problems.append(f"room {j}: effective bounds are tighter than "
                            f"the instance allows")
    graph = build_envy_graph(inst, Allocation(cert.assignment, tuple(rents)))
    below, above, at_lower, at_upper = _classes(RentState.of(rents), lower,
                                                upper)
    path = cert.witness_path
    if path is not None:
        if not path:
            return problems + ["witness path is empty"]
        succ = graph.successors()
        for a, b in zip(path, path[1:]):
            if b not in succ[a]:
                problems.append(f"path edge {a}->{b} not in the final envy "
                                f"graph")
        pinned_down = path[0] in (below | at_lower) and path[-1] in above
        pinned_up = path[0] in below and path[-1] in (above | at_upper)
        if not (pinned_down or pinned_up):
            problems.append("path endpoints not pinned to opposite bounds")
    else:
        if set(cert.witness_rooms or ()) != everything:
            problems.append("dead-end witness must name every room")
        forced_up = (below and not above
                     and reachable(graph, below | at_lower) == everything)
        forced_down = (above and not below
                       and co_reachable(graph, above | at_upper) == everything)
        if not (forced_up or forced_down):
            problems.append("dead-end rule does not apply at the witness "
                            "state")
    return problems


def _occupant_utilities(engine: EventEngine, state: RentState):
    """Each room's occupant utility, as integers over dv * D."""
    dv, d = engine.dv, state.den
    return [v * d - x * dv for v, x in zip(engine.occ_val, state.num)]


def _lift_min_class(engine: EventEngine, state, lower, upper, frozen, cap,
                    trace):
    """Leximin's lift: raise the lowest utility among unfrozen rooms until
    it is stuck.

    The minimum class pays less together with everything that weakly envies
    it, balanced by the rooms neither dragged along nor capped. The lift
    stops when no room is left to pay more, or when a chain from rooms at
    their lower bounds reaches the class. Returns (rents, floored, moves):
    floored is the part of the class such a chain pins (empty in the first
    case), moves the number of events taken, at most cap. The rents come in
    and go out as a RentState."""
    n = engine.n
    everything = frozenset(range(n))
    moves = 0
    while True:
        succ, pred, strong = engine.weak_strong_adjacency(state)
        assert not strong
        _, _, at_lower, at_upper = _classes(state, lower, upper)
        util = _occupant_utilities(engine, state)
        m = min(util[x] for x in range(n) if x not in frozen)
        min_class = frozenset(x for x in range(n)
                              if x not in frozen and util[x] == m)
        pulled_down = _closure(n, pred, min_class)
        blocked = pulled_down | _closure(n, pred, at_upper)
        if blocked == everything:
            return state, frozenset(), moves
        floored = _closure(n, succ, at_lower) & min_class
        if floored:
            return state, floored, moves
        s_inc = everything - blocked
        event, state = engine.step(state, s_inc, pulled_down, "dec", lower,
                                   upper, min_class)
        moves += 1
        assert moves <= cap, "leximin does not settle"
        if trace is not None:
            trace.record("leximin", event.time, event.kinds,
                         {"min_class": len(min_class), "inc": len(s_inc),
                          "frozen": len(frozen)},
                         rents=state.rents, assignment=engine.assignment,
                         lower=lower, upper=upper)
            trace.bump("leximin_events")


def _dijkstra(adj, start):
    """Least labels dist_y = min_x (start_x + a path's length x -> y) over
    the nonnegative integer weights adj[x][y]; start_x None leaves x
    unreached until a path reaches it. Dense, O(n^2), no heap: a settled
    label never drops, so each round relaxes the whole row."""
    dist = list(start)
    todo = list(range(len(dist)))
    while True:
        reached = [x for x in todo if dist[x] is not None]
        if not reached:
            return dist
        x = min(reached, key=dist.__getitem__)
        todo.remove(x)
        base = dist[x]
        dist = [base + w if d is None or base + w < d else d
                for d, w in zip(dist, adj[x])]


def _least_shift(low, high, total):
    """The least s with sum_a max(low_a, high_a - s) <= total, as a Fraction
    (low_a None: no floor). The sum falls as s grows, strictly while some
    room sits on high_a - s, so one ascending sweep of the breakpoints
    high_a - low_a finds it. Needs sum(low) <= total."""
    free, k = sum(high), len(high)
    for e, lo, hi in sorted((h - l, l, h) for l, h in zip(low, high)
                            if l is not None):
        if free - total <= e * k:
            break
        free += lo - hi
        k -= 1
    return Fraction(free - total, k)


def _shifted(low, high, s):
    """max(low_a, high_a - s) per room, over s's denominator times the
    vectors' denominator (low_a None: high_a - s)."""
    sn, sd = s.numerator, s.denominator
    return [h * sd - sn if l is None else max(l * sd, h * sd - sn)
            for l, h in zip(low, high)]


def _times(vec, m):
    return [None if x is None else x * m for x in vec]


class _Lattice:
    """The EF rents of one assignment inside per-room bounds, as integers
    over one denominator K: the lcm of dv, the start rents, the finite
    bounds and the total.

    EF is the difference constraints r_a - r_b <= w(a, b), w(a, b) what the
    occupant of a values a over b. With single-rent bounds they have a least
    and a greatest solution, read off shortest paths (CLRS 24.4), and the
    componentwise max or min of two solutions is one (the EF price lattice,
    Shapley & Shubik 1971). The in-bounds EF start p serves as potentials:
    the reduced weights w(a, b) - p_a + p_b are its EF slacks, nonnegative,
    so each least or greatest solution takes one dense Dijkstra.

    floor is the least solution under the lower bounds (L), ceiling the
    greatest under the upper bounds (A), and cap the greatest under
    r_b <= value_b, value_b the occupant's value of room b (B); None
    stands for an infinite bound."""

    def __init__(self, inst: Instance, assignment: Assignment, rents,
                 lower, upper):
        self.lower, self.upper = lower, upper = _effective(inst, lower,
                                                           upper)
        assert len(rents) == inst.n
        slack, den = ef_slacks(inst, Allocation(assignment, tuple(rents)))
        assert min(map(min, slack)) >= 0, "starting rents are not envy-free"
        total = inst.total_rent
        k = lcm(den, total.denominator,
                *[b.denominator for b in lower + upper
                  if not isinstance(b, float)])
        self.den = k
        occupant = assignment.agent_of_room()
        m = k // den
        self.forward = [[s * m for s in slack[i]] for i in occupant]
        self.backward = list(zip(*self.forward))
        weights, dv = inst.scaled_valuations
        self.value = [weights[i][a] * (k // dv)
                      for a, i in enumerate(occupant)]
        self.rents = [r.numerator * (k // r.denominator) for r in rents]
        self.total = total.numerator * (k // total.denominator)
        assert sum(self.rents) == self.total, "starting rents break the total"
        lo, hi = self._scaled(lower), self._scaled(upper)
        assert all((l is None or l <= x) and (h is None or x <= h)
                   for l, x, h in zip(lo, self.rents, hi)), \
            "objective stage needs an in-bounds starting point"
        self.floor = self.least(lo)
        self.ceiling = self.greatest(hi)
        self.cap = self.greatest(self.value)

    def _scaled(self, bounds):
        k = self.den
        return [None if isinstance(b, float)
                else b.numerator * (k // b.denominator) for b in bounds]

    def least(self, floor):
        """The least EF rents with r_b >= floor_b: max_b(floor_b - d(b, a))."""
        dist = _dijkstra(self.forward, [None if f is None else x - f
                                        for x, f in zip(self.rents, floor)])
        return [None if d is None else x - d for x, d in zip(self.rents, dist)]

    def greatest(self, ceiling):
        """The greatest EF rents with r_b <= ceiling_b:
        min_b(ceiling_b + d(a, b))."""
        dist = _dijkstra(self.backward, [None if c is None else c - x
                                         for x, c in zip(self.rents, ceiling)])
        return [None if d is None else x + d for x, d in zip(self.rents, dist)]

    def maximin_level(self):
        """(t, terms): the best minimum utility t as a Fraction over K, and
        the terms that bind it. Utility floor t caps r_b <= value_b - t, so
        the greatest point is G(t) = min(A, B - t), and t is feasible iff
        L <= G(t) and sum G(t) >= R: t <= min_a(B_a - L_a) (a floor chain)
        and t <= the largest t with sum min(A, B - t) >= R (the total)."""
        by_total = -_least_shift(_times(self.ceiling, -1),
                                 [-b for b in self.cap], -self.total)
        by_chain = min((b - l for b, l in zip(self.cap, self.floor)
                        if l is not None), default=None)
        t = by_total if by_chain is None else min(by_total, by_chain)
        return Fraction(t), tuple(term for term, bound in (
            ("floor_chain", by_chain), ("total", by_total)) if bound == t)

    def capped(self, t):
        """G(t) = min(A, B - t) over K * t.denominator."""
        tn, td = t.numerator, t.denominator
        return [b * td - tn if a is None else min(a * td, b * td - tn)
                for a, b in zip(self.ceiling, self.cap)]

    def utility_bound(self, level, den):
        """value_b - level per room as Fractions, level over den."""
        return [Fraction(v * (den // self.den) - level, den)
                for v in self.value]


def _settle(floor, caps, total, den):
    """max(floor, caps - s) with s the least shift that meets the total, as
    a RentState; floor, caps and total are over den."""
    s = _least_shift(floor, caps, total)
    return RentState(_shifted(floor, caps, s), den * s.denominator)


def _record(trace, phase, kinds, state, assignment, lower, upper):
    """The one trace event of a closed-form stage: the binding terms, the
    final rents and the bounds in force, utility floors and caps included."""
    trace.record(phase, None, sorted(kinds), {}, rents=state.rents,
                 assignment=assignment, lower=tuple(lower), upper=tuple(upper))
    trace.bump(f"{phase}_events")


def maximin_rents(inst: Instance, assignment: Assignment, rents,
                  lower=None, upper=None,
                  trace: Optional[TraceLog] = None) -> tuple:
    """Raise the minimum occupant utility as far as the bounds allow.

    Starting rents must be EF and inside the bounds (ef_rents_with_bounds
    finds such a point); the result stays both and does not depend on the
    start. With t the best minimum utility (_Lattice.maximin_level), it is
    max(L, G(t) - s), s >= 0 the least shift that meets the total."""
    lat = _Lattice(inst, assignment, rents, lower, upper)
    t, terms = lat.maximin_level()
    td = t.denominator
    den = lat.den * td
    state = _settle(_times(lat.floor, td), lat.capped(t), lat.total * td, den)
    if trace is not None:
        _record(trace, "maximin",
                [(OPTIMUM, "min_utility", term, t / lat.den)
                 for term in terms], state, assignment, lat.lower,
                map(min, lat.upper, lat.utility_bound(t.numerator, den)))
    return state.rents


def leximin_rents(inst: Instance, assignment: Assignment, rents,
                  lower=None, upper=None,
                  trace: Optional[TraceLog] = None) -> tuple:
    """Maximin, then recursively improve the next-lowest utilities.

    Once a minimum-utility class is stuck only because it sits on a chain
    from rooms at their lower bounds, those rooms are frozen (their rent
    pinned) and the lift resumes on the remaining rooms."""
    lower, upper = _effective(inst, lower, upper)
    engine, state = _start_state(inst, assignment, tuple(rents))
    below, above, _, _ = _classes(state, lower, upper)
    assert not below and not above, \
        "objective stage needs an in-bounds starting point"
    n = inst.n
    eff_lo, eff_hi = list(lower), list(upper)
    frozen = frozenset()
    # every lift event and every freeze spends one step of the budget
    budget = 2 * n * n + 10 * n + 10
    while len(frozen) < n:
        state, floored, moves = _lift_min_class(
            engine, state, tuple(eff_lo), tuple(eff_hi), frozen, budget,
            trace)
        budget -= moves + 1
        if not floored:
            break
        assert budget >= 0, "leximin does not settle"
        frozen |= floored
        for x in floored:
            eff_lo[x] = eff_hi[x] = Fraction(state.num[x], state.den)
        if trace is not None:
            trace.record("leximin", Fraction(0),
                         (("freeze", tuple(sorted(floored))),),
                         {"frozen": len(frozen)}, rents=state.rents,
                         assignment=assignment, lower=tuple(eff_lo),
                         upper=tuple(eff_hi))
    return state.rents


def minspread_rents(inst: Instance, assignment: Assignment, rents,
                    lower=None, upper=None,
                    trace: Optional[TraceLog] = None) -> tuple:
    """Minimize the gap between the highest and lowest occupant utility.

    The lowest utility stays at its maximin level t, which caps every rent
    at G(t) = min(A, B - t); a utility ceiling T floors r_b >= value_b - T,
    so the least point is max(L, C - T) with C the least EF rents under
    r_b >= value_b. The least feasible T is the larger of max_a(C_a - G_a)
    (a chain from a floored room to a capped one) and the least T with
    sum max(L, C - T) <= R (the total). The result is max(L, C - T) joined
    with G(t) - s, s >= 0 the least shift that meets the total; like
    maximin's, it does not depend on the start."""
    lat = _Lattice(inst, assignment, rents, lower, upper)
    t, t_terms = lat.maximin_level()
    td = t.denominator
    den = lat.den * td
    floor, caps, total = _times(lat.floor, td), lat.capped(t), lat.total * td
    reach = _times(lat.least(lat.value), td)
    by_chain = max(c - g for c, g in zip(reach, caps))
    by_total = _least_shift(floor, reach, total)
    top = Fraction(max(by_chain, by_total))
    lift = top.denominator
    state = _settle(_shifted(floor, reach, top), _times(caps, lift),
                    total * lift, den * lift)
    if trace is not None:
        kinds = [(OPTIMUM, "min_utility", term, t / lat.den)
                 for term in t_terms]
        kinds += [(OPTIMUM, "max_utility", term, top / den)
                  for term, bound in (("cap_chain", by_chain),
                                      ("total", by_total)) if bound == top]
        _record(trace, "minspread", kinds, state, assignment,
                map(max, lat.lower,
                    lat.utility_bound(top.numerator, den * lift)),
                map(min, lat.upper, lat.utility_bound(t.numerator, den)))
    return state.rents
