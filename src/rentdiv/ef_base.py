"""Initial envy-free allocation, from scratch: the assignment LP's prices.

The assignment LP max sum_i v_{i,sigma(i)} has the dual min sum(u) + sum(p)
subject to u_i + p_j >= v_ij. Any optimal p, read as rents, is envy-free for
every welfare-maximizing assignment (Shapley & Shubik 1971; Alkan, Demange &
Gale 1991): complementary slackness makes each agent's own room tight,
u_i = v_{i,sigma(i)} - p_{sigma(i)}, and dual feasibility caps its utility
for every other room at u_i.

So the seed is one plain Hungarian run on the instance's integer valuation
matrix (Instance.scaled_valuations: the valuations times their common
denominator dv), the same run that gives the canonical assignment
(matching._max_welfare): its column potentials v give rents
r_j = -v_j / dv, and one uniform shift by (total - sum r) / n then splits
exactly the total without changing anyone's envy. The rents share a
denominator dividing n * dv * den(total). No rent moves step by step, so the
seed records no trace events.

The same run yields the optimal welfare, which decides whether a caller's
assignment maximizes welfare; for any other assignment no rents are
envy-free, and the seed raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .dynamics import RentState
from .matching import _max_welfare, _welfare
from .model import Allocation, Assignment, Instance, check_envy_free


def initial_ef_allocation(inst: Instance,
                          assignment: Optional[Assignment] = None) -> Allocation:
    """An envy-free allocation splitting exactly inst.total_rent.

    Bounds and budgets are ignored here; this is the seed the constrained
    solvers start from. The rents do not depend on which welfare-maximizing
    assignment is passed (default: max_welfare_assignment); an assignment
    that does not maximize welfare raises ValueError."""
    n = inst.n
    weights, dv = inst.scaled_valuations
    v, optimum = _max_welfare(weights)
    assignment = assignment or Assignment(optimum)
    # The optimum's weight is -(sum(u) + sum(v)), the dual objective: every
    # matched pair is tight.
    if _welfare(weights, assignment.room_of_agent) \
            != _welfare(weights, optimum):
        raise ValueError(f"assignment {assignment.room_of_agent} does not "
                         f"maximize welfare, so no rents make it envy-free")

    # r_j = -v_j / dv + (total + sum(v) / dv) / n, over n * dv * den(total)
    a, b = inst.total_rent.numerator, inst.total_rent.denominator
    shift = a * dv + b * sum(v)
    state = RentState([shift - b * n * vj for vj in v], n * b * dv)
    alloc = Allocation(assignment=assignment, rents=state.rents)
    assert sum(alloc.rents, Fraction(0)) == inst.total_rent
    assert check_envy_free(inst, alloc) == []
    return alloc


def shift_rents(alloc: Allocation, delta_total: Fraction) -> Allocation:
    """Spread a change of delta_total in the total rent evenly over the rooms.

    Every rent moves by delta_total/n, so utilities all drop by the same
    amount and envy-freeness is untouched."""
    step = Fraction(delta_total) / len(alloc.rents)
    return Allocation(assignment=alloc.assignment,
                      rents=tuple(r + step for r in alloc.rents))
