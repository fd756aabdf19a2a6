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
feasible region, starting from any in-bounds EF point. Every motion, repair
included, is one EventEngine.step; only the set selection, guards and merge
tracking differ. Maximin and leximin share one min-class lift, which raises
the lowest utility among unfrozen rooms until it is stuck: maximin lifts
once, leximin freezes the rooms a lower-bound chain pins and lifts again.

check_certificate re-derives an infeasibility certificate of any kind from
the instance alone; `rentdiv verify` runs it on infeasible results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import EventEngine, RentState, TraceLog
from .envy import _closure, build_envy_graph, co_reachable, reachable
from .matching import assignment_welfare, max_welfare_assignment
from .model import (
    BOUND_SUM_VIOLATION,
    BUDGET_CAP_VIOLATION,
    ENVY_PATH_VIOLATION,
    Allocation,
    Assignment,
    InfeasibilityCertificate,
    Instance,
)


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
    vals = inst.valuations
    if assignment_welfare(vals, cert.assignment) \
            != assignment_welfare(vals, max_welfare_assignment(vals)):
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


def _objective_start(inst, assignment, rents, lower, upper):
    """The engine for the assignment, the integer state of an in-bounds EF
    start, and the effective bounds."""
    lower, upper = _effective(inst, lower, upper)
    engine, state = _start_state(inst, assignment, tuple(rents))
    below, above, _, _ = _classes(state, lower, upper)
    assert not below and not above, \
        "objective stage needs an in-bounds starting point"
    return engine, state, lower, upper


def _lift_min_class(engine: EventEngine, state, lower, upper, frozen, cap,
                    phase, trace):
    """Raise the lowest utility among unfrozen rooms until it is stuck.

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
        assert moves <= cap, f"{phase} does not settle"
        if trace is not None:
            trace.record(phase, event.time, event.kinds,
                         {"min_class": len(min_class), "inc": len(s_inc),
                          "frozen": len(frozen)},
                         rents=state.rents, assignment=engine.assignment,
                         lower=lower, upper=upper)
            trace.bump(f"{phase}_events")


def _maximin(engine, state, lower, upper, trace):
    """One min-class lift from the state, with maximin's event cap."""
    return _lift_min_class(engine, state, lower, upper, frozenset(),
                           2 * engine.n + 8, "maximin", trace)[0]


def maximin_rents(inst: Instance, assignment: Assignment, rents,
                  lower=None, upper=None,
                  trace: Optional[TraceLog] = None) -> tuple:
    """Raise the minimum occupant utility as far as the bounds allow.

    Starting rents must be EF and inside the bounds (ef_rents_with_bounds
    finds such a point); the result stays both. One min-class lift, stopped
    wherever it gets stuck."""
    engine, state, lower, upper = _objective_start(inst, assignment, rents,
                                                   lower, upper)
    return _maximin(engine, state, lower, upper, trace).rents


def leximin_rents(inst: Instance, assignment: Assignment, rents,
                  lower=None, upper=None,
                  trace: Optional[TraceLog] = None) -> tuple:
    """Maximin, then recursively improve the next-lowest utilities.

    Once a minimum-utility class is stuck only because it sits on a chain
    from rooms at their lower bounds, those rooms are frozen (their rent
    pinned) and the lift resumes on the remaining rooms."""
    engine, state, lower, upper = _objective_start(inst, assignment, rents,
                                                   lower, upper)
    n = inst.n
    eff_lo, eff_hi = list(lower), list(upper)
    frozen = frozenset()
    # every lift event and every freeze spends one step of the budget
    budget = 2 * n * n + 10 * n + 10
    while len(frozen) < n:
        state, floored, moves = _lift_min_class(
            engine, state, tuple(eff_lo), tuple(eff_hi), frozen, budget,
            "leximin", trace)
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

    First lift the minimum to its maximin level; that level then becomes a
    rent ceiling for every room (no occupant may be pushed back below it),
    and the maximum-utility class pays more, dragging along everything it
    weakly envies, until the gap closes or a ceiling chain blocks it.
    Capping at the floor instead of pinning the minimum class keeps rooms
    that merely tied for the minimum free to improve, which the smallest
    gap sometimes requires."""
    n = inst.n
    engine, state, lower, upper = _objective_start(inst, assignment, rents,
                                                   lower, upper)
    state = _maximin(engine, state, lower, upper, trace)

    # the maximin level m, as a Fraction for the ceilings and as the
    # integers m_num / m_den for the per-event test
    m = Fraction(min(_occupant_utilities(engine, state)),
                 engine.dv * state.den)
    m_num, m_den = m.numerator, m.denominator
    eff_lo = tuple(lower)
    eff_hi = tuple(min(upper[x],
                       inst.valuations[engine.agent_of_room[x]][x] - m)
                   for x in range(n))

    events = 0
    while True:
        succ, pred, strong = engine.weak_strong_adjacency(state)
        assert not strong
        _, _, at_lower, at_upper = _classes(state, eff_lo, eff_hi)
        util = _occupant_utilities(engine, state)
        top = max(util)
        if top * m_den == m_num * engine.dv * state.den:
            break
        max_class = {x for x in range(n) if util[x] == top}
        pushed_up = _closure(n, succ, max_class)
        floored = _closure(n, succ, at_lower)
        if pushed_up | floored == frozenset(range(n)):
            break
        if _closure(n, pred, at_upper) & max_class:
            break
        s_dec = frozenset(range(n)) - (pushed_up | floored)
        event, state = engine.step(state, pushed_up, s_dec, "inc", eff_lo,
                                   eff_hi, frozenset(max_class))
        events += 1
        assert events <= 2 * n * n + 10 * n + 10, "spread phase does not settle"
        if trace is not None:
            trace.record("minspread", event.time, event.kinds,
                         {"max_class": len(max_class), "dec": len(s_dec)},
                         rents=state.rents, assignment=assignment,
                         lower=eff_lo, upper=eff_hi)
            trace.bump("minspread_events")
    return state.rents
