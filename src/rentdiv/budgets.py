"""The full bounds-plus-budgets solver.

Budgets enter through the assignment: within each strongly connected
component of the envy graph the occupants can be rotated along weak-envy
cycles without changing anyone's utility, and the right rotation is what
lets the component's total rent rise until budgets pin it. scc_max_rent
finds that maximum per component, starting from the component's slice of
the one global EF seed. combined_solve runs the whole pipeline once: seed,
rotated assignment, the occupants' budgets intersected with the rent bounds
into per-room ceilings, the arithmetic cap checks, one bounded repair from
the seed, and the fairness objective.
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
    utilities,
    validate_instance,
)


@dataclass(frozen=True)
class ComponentSubproblem:
    """One envy-graph SCC as a standalone economy.

    agents/rooms hold the original indices (both sorted ascending); instance
    is re-indexed to 0..k-1 with total rent 0, no rent bounds, and the budget
    matrix restricted to these agents and rooms. seed is the global EF
    seed's slice, re-indexed the same way, with its rents shifted
    uniformly to total 0."""

    rooms: tuple
    agents: tuple
    instance: Instance
    seed: Allocation


def build_subproblem(inst: Instance, alloc: Allocation, rooms) -> ComponentSubproblem:
    rooms = tuple(sorted(rooms))
    occupant = alloc.assignment.agent_of_room()
    agents = tuple(sorted(occupant[x] for x in rooms))
    k = len(rooms)
    assert len(agents) == k
    local_room = {x: i for i, x in enumerate(rooms)}
    sigma = alloc.assignment.room_of_agent
    rents = tuple(alloc.rents[x] for x in rooms)
    mean = sum(rents, Fraction(0)) / k
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
    seed = Allocation(
        assignment=Assignment(tuple(local_room[sigma[a]] for a in agents)),
        rents=tuple(r - mean for r in rents))
    return ComponentSubproblem(rooms=rooms, agents=agents, instance=sub,
                               seed=seed)


def scc_max_rent(sub: ComponentSubproblem, trace: Optional[TraceLog] = None):
    """Maximum total rent the component can carry with EF + budgets.

    Returns (max_total, allocation); max_total is PosInf when every budget
    that ever binds is infinite. Starting from the component's seed slice
    (its EF rents are unique up to a uniform shift, since every envy edge
    inside the component lies on a tight cycle), shift everyone to the first
    budget-tight point, then alternate: rotate tight occupants along
    budget-respecting envy cycles (utilities unchanged, tight count strictly
    drops), and raise all rents uniformly until the next agent goes tight.
    Stops when some tight agent sits on no such cycle."""
    inst = sub.instance
    k = inst.n
    budgets = inst.budgets
    alloc = sub.seed
    assert check_envy_free(inst, alloc) == []

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


def _budget_assignment(inst: Instance, seed: Allocation,
                       trace: Optional[TraceLog]) -> Assignment:
    """The seed's assignment, re-matched per SCC toward maximum rent
    capacity when some budget is finite. A one-room component keeps its
    occupant: it has no cycle to rotate along."""
    if not has_finite_budgets(inst):
        return seed.assignment
    room_of_agent = list(seed.assignment.room_of_agent)
    for component in scc_partition(build_envy_graph(inst, seed)):
        if len(component) == 1:
            continue
        sub = build_subproblem(inst, seed, component)
        _, sub_alloc = scc_max_rent(sub, trace)
        for a, x in enumerate(sub_alloc.assignment.room_of_agent):
            room_of_agent[sub.agents[a]] = sub.rooms[x]
    mu = Assignment(tuple(room_of_agent))
    assert assignment_welfare(inst.valuations, mu) \
        == assignment_welfare(inst.valuations, seed.assignment)
    return mu


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

    One EF seed; budgets pick the assignment and contribute caps; the caps
    intersect the instance's upper bounds into effective ceilings. The
    arithmetic cap checks (a lower bound above its ceiling, then ceilings
    that cannot carry the total) run before anything moves, so their
    budget_cap_violation certificates win over the repair's envy-path ones.
    One bounded repair from the seed and the requested objective then run
    inside that box. An objective outside OBJECTIVES raises ValueError."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of "
                         f"{', '.join(OBJECTIVES)}")
    try:
        inst = validate_instance(inst)
    except BoundSumError as err:
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=err.certificate)
    n = inst.n

    seed = initial_ef_allocation(inst)
    mu = _budget_assignment(inst, seed, trace)
    occupant = mu.agent_of_room()
    ceiling = tuple(min(inst.upper_bounds[j], inst.budgets[occupant[j]][j])
                    for j in range(n))

    for j in range(n):
        if inst.lower_bounds[j] > ceiling[j]:
            cert = _cap_certificate(
                f"room {j + 1} has lower bound "
                f"{format_rat(inst.lower_bounds[j])} above its occupant's "
                f"budget cap {format_rat(ceiling[j])}",
                mu, seed.rents, ceiling, (j,))
            return SolveOutcome(status=INFEASIBLE, objective=objective,
                                certificate=cert)
    if sum(ceiling) < inst.total_rent:
        cert = _cap_certificate(
            f"upper bounds and budget caps together cap the total rent at "
            f"{format_rat(sum(ceiling))}, below the required "
            f"{format_rat(inst.total_rent)}",
            mu, seed.rents, ceiling, tuple(range(n)))
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=cert)

    result = ef_rents_with_bounds(inst, mu, seed.rents,
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
