"""Initial envy-free allocation, from scratch.

Start from a max-welfare assignment and uniform rents, then repeatedly pick
the lexicographically smallest strong-envy edge (from_room, to_room) and run
a phase: everything that can reach from_room pays less, everything reachable
from to_room pays more, until the chosen edge weakens. Strong edges are never
created by this motion (rooms on existing weak edges either share a rate or
drift apart), so each phase retires at least one strong edge for good.

A strong cycle would make the phase ill-posed, but a max-welfare assignment
never produces one: rotating agents along a strong cycle would beat the
maximum welfare. Asserted, not handled.

The whole loop runs on one integer RentState (numerators over a common
denominator, see dynamics): each event costs one pass over the EF slacks,
shared by the adjacency and the scan, and an exact integer move. Fraction
rents are built only for the returned allocation and, when a TraceLog is
passed, for each event's snapshot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .dynamics import EventEngine, RentState, TraceLog
from .envy import _closure
from .matching import max_welfare_assignment
from .model import Allocation, Assignment, Instance, check_envy_free


def initial_ef_allocation(inst: Instance, assignment: Optional[Assignment] = None,
                          trace: Optional[TraceLog] = None) -> Allocation:
    """An envy-free allocation splitting exactly inst.total_rent.

    Bounds and budgets are ignored here; this is the seed the constrained
    solvers start from."""
    if assignment is None:
        assignment = max_welfare_assignment(inst.valuations)
    n = inst.n
    state = RentState.of([Fraction(inst.total_rent, n)] * n)
    engine = EventEngine(inst, assignment)
    succ, pred, strong = engine.weak_strong_adjacency(state)

    phases = 0
    total_events = 0
    while strong:
        phases += 1
        assert phases <= n * n + 1, "more phases than strong edges can fund"
        from_room, to_room = strong[0]
        phase_events = 0
        while (from_room, to_room) in strong:
            s_dec = _closure(n, pred, {from_room})
            s_inc = _closure(n, succ, {to_room})
            assert not (s_dec & s_inc), \
                "strong envy cycle under a max-welfare assignment"
            event, state = engine.step(state, s_inc, s_dec, "dec", None, None,
                                       None, assert_ef=False)
            phase_events += 1
            total_events += 1
            assert phase_events <= n * n + 2 * n + 4, "phase does not settle"
            assert total_events <= n ** 3 + 8 * n * n + 8, "run does not settle"
            if trace is not None:
                trace.record("initial_ef", event.time, event.kinds,
                             {"dec": len(s_dec), "inc": len(s_inc)},
                             rents=state.rents, assignment=assignment)
                trace.bump("initial_ef_events")
            succ, pred, strong = engine.weak_strong_adjacency(state)

    rents = state.rents
    alloc = Allocation(assignment=assignment, rents=rents)
    assert sum(rents, Fraction(0)) == inst.total_rent
    assert check_envy_free(inst, alloc) == []
    return alloc


def shift_rents(alloc: Allocation, delta_total: Fraction) -> Allocation:
    """Spread a change of delta_total in the total rent evenly over the rooms.

    Every rent moves by delta_total/n, so utilities all drop by the same
    amount and envy-freeness is untouched."""
    step = Fraction(delta_total) / len(alloc.rents)
    return Allocation(assignment=alloc.assignment,
                      rents=tuple(r + step for r in alloc.rents))
