"""Budget-aware envy-free division, and the full bounds-plus-budgets solver.

Budgets enter through the assignment: within each strongly connected
component of the envy graph the occupants can be rotated along weak-envy
cycles without changing anyone's utility, and the right rotation is what
lets the component's total rent rise until budgets pin it. scc_max_rent
finds that maximum per component; budget_aware_ef assembles the rotated
global assignment and then treats the occupants' budgets as per-room rent
caps; combined_solve intersects those caps with the instance's own rent
bounds and dispatches the fairness objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import (
    ef_rents_with_bounds,
    leximin_rents,
    maximin_rents,
    minspread_rents,
)
from .dynamics import TraceLog
from .ef_base import initial_ef_allocation, shift_rents
from .envy import build_budget_graph, build_envy_graph, find_cycle_through, scc_partition
from .matching import assignment_welfare
from .model import (
    BUDGET_CAP_VIOLATION,
    INFEASIBLE,
    NEG_INF,
    OBJECTIVES,
    POS_INF,
    SOLVED,
    Allocation,
    Assignment,
    BoundSumError,
    InfeasibilityCertificate,
    Instance,
    SolveOutcome,
    assert_solution_boundary,
    check_envy_free,
    format_rat,
    has_finite_budgets,
    is_finite,
    utilities,
    validate_instance,
)


@dataclass(frozen=True)
class ComponentSubproblem:
    """One envy-graph SCC as a standalone economy.

    agents/rooms hold the original indices (both sorted ascending); instance
    is re-indexed to 0..k-1 with total rent 0, no rent bounds, and the budget
    matrix restricted to these agents and rooms."""

    rooms: tuple
    agents: tuple
    instance: Instance


def build_subproblem(inst: Instance, alloc: Allocation, rooms) -> ComponentSubproblem:
    rooms = tuple(sorted(rooms))
    occupant = alloc.assignment.agent_of_room()
    agents = tuple(sorted(occupant[x] for x in rooms))
    k = len(rooms)
    assert len(agents) == k
    sub = Instance(
        n=k,
        valuations=tuple(tuple(inst.valuations[a][x] for x in rooms)
                         for a in agents),
        total_rent=Fraction(0),
        lower_bounds=(NEG_INF,) * k,
        upper_bounds=(POS_INF,) * k,
        budgets=tuple(tuple(inst.budgets[a][x] for x in rooms)
                      for a in agents),
    )
    return ComponentSubproblem(rooms=rooms, agents=agents, instance=sub)


def scc_max_rent(sub: ComponentSubproblem, trace: Optional[TraceLog] = None):
    """Maximum total rent the component can carry with EF + budgets.

    Returns (max_total, allocation); max_total is PosInf when every budget
    that ever binds is infinite. Starting from an EF split of total 0, shift
    everyone to the first budget-tight point, then alternate: rotate tight
    occupants along budget-respecting envy cycles (utilities unchanged, tight
    count strictly drops), and raise all rents uniformly until the next agent
    goes tight. Stops when some tight agent sits on no such cycle."""
    inst = sub.instance
    k = inst.n
    budgets = inst.budgets
    alloc = initial_ef_allocation(inst)

    sigma = alloc.assignment.room_of_agent
    headroom = max(alloc.rents[sigma[i]] - budgets[i][sigma[i]] for i in range(k))
    if headroom == NEG_INF:
        return POS_INF, alloc
    alloc = shift_rents(alloc, -headroom * k)

    raises = 0
    rotation_streak = 0
    while True:
        sigma = alloc.assignment.room_of_agent
        tight = [i for i in range(k)
                 if alloc.rents[sigma[i]] == budgets[i][sigma[i]]]
        if not tight:
            slack = min(budgets[i][sigma[i]] - alloc.rents[sigma[i]]
                        for i in range(k))
            if slack == POS_INF:
                return POS_INF, alloc
            assert slack > 0
            alloc = shift_rents(alloc, slack * k)
            raises += 1
            rotation_streak = 0
            assert raises <= k * k, "uniform raises exceed the n^2 budget"
            if trace is not None:
                trace.bump("scc_case1")
                trace.peak("alg5_case1_raises", raises)
            continue

        graph = build_budget_graph(inst, alloc)
        cycles = {}
        for i in tight:
            cycles[i] = find_cycle_through(graph, sigma[i])
            if cycles[i] is None:
                break
        if any(c is None for c in cycles.values()):
            break

        cycle = cycles[min(tight)]
        occupant = alloc.assignment.agent_of_room()
        room_of_agent = list(sigma)
        for idx, x in enumerate(cycle):
            y = cycle[(idx + 1) % len(cycle)]
            mover = occupant[x]
            # cycle edges are utility equalities with strict budget slack
            assert inst.valuations[mover][y] - alloc.rents[y] \
                == inst.valuations[mover][x] - alloc.rents[x]
            assert alloc.rents[y] < budgets[mover][y]
            room_of_agent[mover] = y
        alloc = Allocation(assignment=Assignment(tuple(room_of_agent)),
                           rents=alloc.rents)
        new_tight = sum(1 for i in range(k)
                        if alloc.rents[room_of_agent[i]] == budgets[i][room_of_agent[i]])
        assert new_tight < len(tight), "rotation must free its tight agent"
        rotation_streak += 1
        assert rotation_streak <= k, "more consecutive rotations than agents"
        if trace is not None:
            trace.bump("scc_case2")
            trace.peak("alg5_case2_streak", rotation_streak)

    assert check_envy_free(inst, alloc) == []
    sigma = alloc.assignment.room_of_agent
    assert all(alloc.rents[sigma[i]] <= budgets[i][sigma[i]] for i in range(k))
    return sum(alloc.rents, Fraction(0)), alloc


def _cap_certificate(explanation, assignment, rents, caps, rooms):
    return InfeasibilityCertificate(
        kind=BUDGET_CAP_VIOLATION, explanation=explanation,
        witness_rooms=rooms, assignment=assignment, final_rents=rents,
        effective_lower=None, effective_upper=tuple(caps))


def _occupant_caps(inst: Instance, assignment: Assignment):
    occupant = assignment.agent_of_room()
    return tuple(inst.budgets[occupant[j]][j] for j in range(inst.n))


def budget_aware_ef(inst: Instance,
                    trace: Optional[TraceLog] = None) -> SolveOutcome:
    """EF allocation at the instance's total rent with every occupant within
    budget, ignoring rent bounds (combined_solve layers those on top).

    The assignment is re-matched per SCC toward maximum rent capacity; the
    occupants' budgets then act as per-room upper bounds for the usual
    bounded repair. The outcome carries objective "any"."""
    n = inst.n
    base = initial_ef_allocation(inst, trace=trace)

    if not has_finite_budgets(inst):
        mu = base.assignment
    else:
        graph = build_envy_graph(inst, base)
        room_of_agent = [None] * n
        for component in scc_partition(graph):
            sub = build_subproblem(inst, base, component)
            _, sub_alloc = scc_max_rent(sub, trace)
            for a, x in enumerate(sub_alloc.assignment.room_of_agent):
                room_of_agent[sub.agents[a]] = sub.rooms[x]
        mu = Assignment(tuple(room_of_agent))
        assert assignment_welfare(inst.valuations, mu) \
            == assignment_welfare(inst.valuations, base.assignment)

    start = Allocation(assignment=mu, rents=base.rents)
    assert check_envy_free(inst, start) == []

    caps = _occupant_caps(inst, mu)
    cap_total = sum(caps)
    if cap_total < inst.total_rent:
        cert = _cap_certificate(
            f"the occupants' budgets cap the total rent at "
            f"{format_rat(cap_total)}, below the required "
            f"{format_rat(inst.total_rent)}",
            mu, start.rents, caps, tuple(range(n)))
        return SolveOutcome(status=INFEASIBLE, objective="any",
                            certificate=cert)

    result = ef_rents_with_bounds(inst, mu, start.rents,
                                  lower=(NEG_INF,) * n, upper=caps, trace=trace)
    if not result.ok:
        return SolveOutcome(status=INFEASIBLE, objective="any",
                            certificate=result.certificate)
    rents = result.rents

    alloc = Allocation(assignment=mu, rents=rents)
    util = utilities(inst, alloc)
    occupant = mu.agent_of_room()
    assert all(rents[j] <= inst.budgets[occupant[j]][j] for j in range(n))
    assert check_envy_free(inst, alloc) == []
    assert sum(rents, Fraction(0)) == inst.total_rent
    return SolveOutcome(status=SOLVED, objective="any", allocation=alloc,
                        utilities=util)


def _dispatch(inst, assignment, rents, lower, upper, objective, trace):
    if objective == "any":
        return rents
    if objective == "maximin":
        return maximin_rents(inst, assignment, rents, lower, upper, trace)
    if objective == "leximin":
        return leximin_rents(inst, assignment, rents, lower, upper, trace)
    assert objective == "minspread"
    return minspread_rents(inst, assignment, rents, lower, upper, trace)


def _objective_value(objective, util):
    if objective == "any":
        return None
    if objective == "maximin":
        return min(util)
    if objective == "leximin":
        return tuple(sorted(util))
    assert objective == "minspread"
    return max(util) - min(util)


def combined_solve(inst: Instance, objective: str = "any",
                   trace: Optional[TraceLog] = None) -> SolveOutcome:
    """Envy-free division under rent bounds and budgets together.

    Budgets pick the assignment and contribute caps; the caps intersect the
    instance's upper bounds into effective ceilings; the bounded repair and
    the requested objective run inside that box. An objective outside
    OBJECTIVES raises ValueError."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of "
                         f"{', '.join(OBJECTIVES)}")
    try:
        inst = validate_instance(inst)
    except BoundSumError as err:
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=err.certificate)
    n = inst.n

    budget_stage = budget_aware_ef(inst, trace)
    if budget_stage.status == INFEASIBLE:
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=budget_stage.certificate)
    mu = budget_stage.allocation.assignment
    caps = _occupant_caps(inst, mu)
    ceiling = tuple(min(u, c) for u, c in zip(inst.upper_bounds, caps))

    for j in range(n):
        if inst.lower_bounds[j] > ceiling[j]:
            cert = _cap_certificate(
                f"room {j + 1} has lower bound "
                f"{format_rat(inst.lower_bounds[j])} above its occupant's "
                f"budget cap {format_rat(ceiling[j])}",
                mu, budget_stage.allocation.rents, ceiling, (j,))
            return SolveOutcome(status=INFEASIBLE, objective=objective,
                                certificate=cert)
    if sum(ceiling) < inst.total_rent:
        cert = _cap_certificate(
            f"upper bounds and budget caps together cap the total rent at "
            f"{format_rat(sum(ceiling))}, below the required "
            f"{format_rat(inst.total_rent)}",
            mu, budget_stage.allocation.rents, ceiling, tuple(range(n)))
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=cert)

    result = ef_rents_with_bounds(inst, mu, budget_stage.allocation.rents,
                                  lower=inst.lower_bounds, upper=ceiling,
                                  trace=trace)
    if not result.ok:
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=result.certificate)
    rents = _dispatch(inst, mu, result.rents, inst.lower_bounds, ceiling,
                      objective, trace)

    alloc = Allocation(assignment=mu, rents=rents)
    assert_solution_boundary(inst, alloc)
    util = utilities(inst, alloc)
    return SolveOutcome(status=SOLVED, objective=objective, allocation=alloc,
                        utilities=util,
                        objective_value=_objective_value(objective, util))
