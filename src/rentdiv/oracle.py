"""Independent ground truth: exact rational LP over the EF polytope.

Everything here is deliberately brute force. The envy-free allocations for a
fixed assignment form a polytope in rent space; each objective is a small
linear program over it (possibly with helper variables), solved by a dense
two-phase simplex with Bland's rule. Its tableau rows are integers standing
for their values times a positive row factor, so pivots are fraction-free
(Edmonds 1967; Bareiss 1968) and Fractions appear only where a LinearProgram
is read and an LPResult built; results are exact and runs are reproducible.
Assignments are enumerated outright. None of the main solver's machinery is
used, which is the point: agreement between the two paths is the strongest
check the test suite has.

Only sensible at small n; the enumeration limit is inherited from matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .matching import ENUMERATION_LIMIT, SizeError, all_max_welfare_assignments
from .model import (
    ENVY_PATH_VIOLATION,
    INFEASIBLE,
    ORACLE_OBJECTIVES,
    POS_INF,
    SOLVED,
    Allocation,
    Assignment,
    BoundSumError,
    InfeasibilityCertificate,
    Instance,
    SolveOutcome,
    is_finite,
    utilities,
    validate_instance,
)

OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAXIMIZE = "max"
MINIMIZE = "min"

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="


class UnsupportedObjectiveError(ValueError):
    """Relative spread requested but the minimum utility cannot be positive."""


@dataclass(frozen=True)
class LinearProgram:
    """min/max c.x subject to rows (coeffs, relation, rhs); variables free,
    entries ints or Fractions."""

    names: tuple
    constraints: tuple  # ((coeffs...), "<="|"="|">=", rhs)
    objective: Optional[tuple] = None  # ((coeffs...), "max"|"min")

    def __post_init__(self):
        for k, (coeffs, rel, _) in enumerate(self.constraints):
            if len(coeffs) != len(self.names):
                raise ValueError(f"constraint {k} has {len(coeffs)} "
                                 f"coefficients for {len(self.names)} names")
            if rel not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
                raise ValueError(f"constraint {k} has relation {rel!r}")
        if self.objective is not None:
            coeffs, sense = self.objective
            if len(coeffs) != len(self.names):
                raise ValueError(f"objective has {len(coeffs)} coefficients "
                                 f"for {len(self.names)} names")
            if sense not in (MAXIMIZE, MINIMIZE):
                raise ValueError(f"objective sense {sense!r}")


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    point: Optional[tuple] = None


def _scaled(values):
    """Rational values as integers over the lcm of their denominators, and
    that lcm."""
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tableau, basis, row, col):
    """Make col basic in row: every other row becomes pv*row - row[col]*pivot
    row, cut by its gcd, so each row's factor stays positive."""
    pivot_row = tableau[row]
    pv = pivot_row[col]
    if pv < 0:  # only a leftover artificial pivoted out after phase 1
        pv = -pv
        pivot_row = tableau[row] = [-x for x in pivot_row]
    for i, other in enumerate(tableau):
        f = other[col]
        if i != row and f:
            new = [pv * a - f * p for a, p in zip(other, pivot_row)]
            g = gcd(*new)
            tableau[i] = [x // g for x in new] if g > 1 else new
    basis[row] = col


def _priced(cost, tableau, basis):
    """The cost row reduced to zero on every basic column: a positive
    multiple of the reduced costs."""
    for row, b in zip(tableau, basis):
        f = cost[b]
        if f:
            d = row[b]
            cost = [d * c - f * a for c, a in zip(cost, row)]
    return cost


def _run_simplex(tableau, basis, width):
    """Minimize with Bland's rule; cost row is tableau[-1], true columns are
    0..width-1, rhs is the last column. Returns OPTIMAL or UNBOUNDED."""
    m = len(tableau) - 1
    while True:
        cost = tableau[-1]
        col = next((j for j in range(width) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                rhs = tableau[i][-1]
                if best is not None:  # ratio rhs/a against the best so far
                    cross = rhs * best[1] - best[0] * a
                    if cross > 0 or (cross == 0 and basis[i] > basis[best[2]]):
                        continue
                best = (rhs, a, i)
        if best is None:
            return UNBOUNDED
        _pivot(tableau, basis, best[2], col)


def lp_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex with Bland's rule. Free variables are split
    internally. Each tableau row is a list of integers standing for its values
    times an unstated positive factor (a constraint row's entry in its basic
    column), so pivots need no division; Fractions appear only in the
    LinearProgram read and the LPResult built."""
    nv = len(lp.names)
    rows = []
    for coeffs, rel, rhs in lp.constraints:
        nums, scale = _scaled((*coeffs, rhs))
        if nums[-1] < 0:
            nums = [-x for x in nums]
            rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL,
                   EQUAL: EQUAL}[rel]
        rows.append((nums, rel, scale))

    n_slack = sum(1 for _, rel, _ in rows if rel != EQUAL)
    n_art = sum(1 for _, rel, _ in rows if rel != LESS_EQUAL)
    split = 2 * nv
    width = split + n_slack  # real columns (artificials live past these)
    total_cols = width + n_art + 1

    tableau = []
    basis = []
    si = ai = 0
    for nums, rel, scale in rows:
        row = [0] * total_cols
        for v in range(nv):
            row[2 * v] = nums[v]
            row[2 * v + 1] = -nums[v]
        if rel != EQUAL:
            row[split + si] = scale if rel == LESS_EQUAL else -scale
            si += 1
        row[-1] = nums[-1]
        if rel == LESS_EQUAL:
            basis.append(split + si - 1)
        else:
            row[width + ai] = scale
            basis.append(width + ai)
            ai += 1
        tableau.append(row)

    if n_art:  # cost 1 per artificial
        tableau.append(_priced([0] * width + [1] * n_art + [0], tableau, basis))
        status = _run_simplex(tableau, basis, width + n_art)
        assert status == OPTIMAL, "phase 1 objective is bounded below by 0"
        if tableau[-1][-1] != 0:
            return LPResult(status=LP_INFEASIBLE)
        tableau.pop()
        # pivot leftover artificials out of the basis, drop redundant rows
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] >= width:
                col = next((j for j in range(width) if tableau[i][j] != 0),
                           None)
                if col is None:
                    tableau.pop(i)
                    basis.pop(i)
                else:
                    _pivot(tableau, basis, i, col)
        tableau = [row[:width] + row[-1:] for row in tableau]

    if lp.objective is None:
        point = _extract_point(tableau, basis, nv)
        return LPResult(status=OPTIMAL, point=point)

    coeffs, sense = lp.objective
    sign = -1 if sense == MAXIMIZE else 1
    nums, _ = _scaled(coeffs)
    cost = [0] * (width + 1)
    for v, c in enumerate(nums):
        cost[2 * v] = sign * c
        cost[2 * v + 1] = -sign * c
    tableau.append(_priced(cost, tableau, basis))
    status = _run_simplex(tableau, basis, width)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    point = _extract_point(tableau[:-1], basis, nv)
    value = sum((Fraction(c) * x for c, x in zip(coeffs, point)), Fraction(0))
    return LPResult(status=OPTIMAL, value=value, point=point)


def _extract_point(tableau, basis, nv):
    values = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau, basis)}
    zero = Fraction(0)
    return tuple(values.get(2 * v, zero) - values.get(2 * v + 1, zero)
                 for v in range(nv))


def ef_polytope(inst: Instance, assignment: Assignment) -> LinearProgram:
    """The EF constraint set for a fixed assignment, over rent variables:
    total-rent equality, one EF row per ordered agent pair, and rows for
    every finite bound and assigned-seat budget."""
    n = inst.n
    sigma = assignment.room_of_agent
    names = tuple(f"r{j + 1}" for j in range(n))
    rows = [((Fraction(1),) * n, EQUAL, inst.total_rent)]

    def unit(j, value=Fraction(1)):
        coeffs = [Fraction(0)] * n
        coeffs[j] = value
        return coeffs

    for i in range(n):
        x = sigma[i]
        for j in range(n):
            if j == x:
                continue
            coeffs = [Fraction(0)] * n
            coeffs[x] = Fraction(1)
            coeffs[j] = Fraction(-1)
            rows.append((tuple(coeffs), LESS_EQUAL,
                         inst.valuations[i][x] - inst.valuations[i][j]))
    for j in range(n):
        if is_finite(inst.lower_bounds[j]):
            rows.append((tuple(unit(j)), GREATER_EQUAL, inst.lower_bounds[j]))
    for j in range(n):
        if is_finite(inst.upper_bounds[j]):
            rows.append((tuple(unit(j)), LESS_EQUAL, inst.upper_bounds[j]))
    for i in range(n):
        if is_finite(inst.budgets[i][sigma[i]]):
            rows.append((tuple(unit(sigma[i])), LESS_EQUAL,
                         inst.budgets[i][sigma[i]]))
    return LinearProgram(names=names, constraints=tuple(rows))


def _pad(rows, extra):
    return [(tuple(c) + (Fraction(0),) * extra, rel, rhs)
            for c, rel, rhs in rows]


def _maximin_lp(inst, assignment, pinned=None, floor=None, free=None):
    """max t with u_i >= t for free agents; pinned agents get equality rows.
    floor adds u_i >= floor for free agents of an earlier leximin round."""
    n = inst.n
    sigma = assignment.room_of_agent
    base = ef_polytope(inst, assignment)
    rows = _pad(list(base.constraints), 1)
    free = range(n) if free is None else free
    for i in free:
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[sigma[i]] = Fraction(1)
        coeffs[n] = Fraction(1)
        rows.append((tuple(coeffs), LESS_EQUAL, inst.valuations[i][sigma[i]]))
    for i, value in (pinned or {}).items():
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[sigma[i]] = Fraction(1)
        rows.append((tuple(coeffs), EQUAL,
                     inst.valuations[i][sigma[i]] - value))
    if floor is not None:
        for i in free:
            coeffs = [Fraction(0)] * (n + 1)
            coeffs[sigma[i]] = Fraction(1)
            rows.append((tuple(coeffs), LESS_EQUAL,
                         inst.valuations[i][sigma[i]] - floor))
    obj = tuple([Fraction(0)] * n + [Fraction(1)])
    return LinearProgram(names=base.names + ("t",), constraints=tuple(rows),
                         objective=(obj, MAXIMIZE))


def _solve_feasibility(inst, assignment):
    return lp_solve(ef_polytope(inst, assignment))


def _solve_maximin(inst, assignment):
    res = lp_solve(_maximin_lp(inst, assignment))
    if res.status == LP_INFEASIBLE:
        return None
    assert res.status == OPTIMAL, "maximin is bounded by the average utility"
    return res.value, res.point[:inst.n]


def _solve_leximin(inst, assignment):
    """Sorted utility vector maximized lexicographically from the bottom.

    Round: maximize the common floor t of the still-free agents; any free
    agent that cannot rise above t (others held at or above it) is pinned at
    t; repeat on the rest. Each round pins someone, so n rounds suffice."""
    n = inst.n
    sigma = assignment.room_of_agent
    pinned = {}
    free = list(range(n))
    rounds = 0
    while free:
        rounds += 1
        assert rounds <= n, "every leximin round must pin an agent"
        res = lp_solve(_maximin_lp(inst, assignment, pinned=pinned, free=free))
        if res.status == LP_INFEASIBLE:
            assert not pinned, "pins only restate optima, cannot cut feasibility"
            return None
        level = res.value
        point = res.point
        newly = []
        for i in free:
            u_i = inst.valuations[i][sigma[i]] - point[sigma[i]]
            if u_i > level:
                continue  # witnessed above the floor already
            probe_rows = list(_maximin_lp(inst, assignment, pinned=pinned,
                                          floor=level, free=free).constraints)
            probe = LinearProgram(
                names=tuple(f"r{j + 1}" for j in range(n)) + ("t",),
                constraints=tuple(probe_rows),
                objective=(tuple(-Fraction(x == sigma[i])
                                 for x in range(n)) + (Fraction(0),),
                           MAXIMIZE))
            best = lp_solve(probe)
            assert best.status == OPTIMAL
            u_best = inst.valuations[i][sigma[i]] + best.value
            assert u_best >= level
            if u_best == level:
                newly.append(i)
        assert newly, "the maximin floor is always saturated by someone"
        for i in newly:
            pinned[i] = level
            free.remove(i)
    base = ef_polytope(inst, assignment)
    rows = list(base.constraints)
    for i, value in pinned.items():
        coeffs = [Fraction(0)] * n
        coeffs[sigma[i]] = Fraction(1)
        rows.append((tuple(coeffs), EQUAL,
                     inst.valuations[i][sigma[i]] - value))
    final = lp_solve(LinearProgram(names=base.names, constraints=tuple(rows)))
    assert final.status == OPTIMAL
    rents = final.point
    util = tuple(inst.valuations[i][sigma[i]] - rents[sigma[i]]
                 for i in range(n))
    assert sorted(util) == sorted(pinned.values())
    return tuple(sorted(util)), rents


def _solve_minspread(inst, assignment):
    n = inst.n
    sigma = assignment.room_of_agent
    base = ef_polytope(inst, assignment)
    rows = _pad(list(base.constraints), 2)  # extra vars: t, T
    for i in range(n):
        low = [Fraction(0)] * (n + 2)
        low[sigma[i]] = Fraction(1)
        low[n] = Fraction(1)
        rows.append((tuple(low), LESS_EQUAL, inst.valuations[i][sigma[i]]))
        high = [Fraction(0)] * (n + 2)
        high[sigma[i]] = Fraction(1)
        high[n + 1] = Fraction(1)
        rows.append((tuple(high), GREATER_EQUAL,
                     inst.valuations[i][sigma[i]]))
    obj = tuple([Fraction(0)] * n + [Fraction(-1), Fraction(1)])
    res = lp_solve(LinearProgram(names=base.names + ("t", "T"),
                                 constraints=tuple(rows),
                                 objective=(obj, MINIMIZE)))
    if res.status == LP_INFEASIBLE:
        return None
    assert res.status == OPTIMAL, "spread is bounded below by zero"
    return res.value, res.point[:n]


def _solve_max_total(inst, assignment):
    base = ef_polytope(inst, assignment)
    rows = [row for row in base.constraints if row[1] != EQUAL]
    assert len(rows) == len(base.constraints) - 1
    obj = ((Fraction(1),) * inst.n, MAXIMIZE)
    res = lp_solve(LinearProgram(names=base.names, constraints=tuple(rows),
                                 objective=obj))
    if res.status == LP_INFEASIBLE:
        return None
    if res.status == UNBOUNDED:
        feas = lp_solve(LinearProgram(names=base.names,
                                      constraints=tuple(rows)))
        assert feas.status == OPTIMAL
        return POS_INF, feas.point
    return res.value, res.point


def _solve_min_rel_spread(inst, assignment):
    """Charnes-Cooper: scale rents by s = 1/min-utility so the floor becomes
    1, then minimize the scaled ceiling. Valid only when the minimum utility
    can be made strictly positive, which the caller has already certified."""
    n = inst.n
    sigma = assignment.room_of_agent
    base = ef_polytope(inst, assignment)
    # variables: z_1..z_n (scaled rents), s, tau
    rows = []
    for coeffs, rel, rhs in base.constraints:
        row = list(coeffs) + [-Fraction(rhs), Fraction(0)]
        rows.append((tuple(row), rel, Fraction(0)))
    s_pos = [Fraction(0)] * (n + 2)
    s_pos[n] = Fraction(1)
    rows.append((tuple(s_pos), GREATER_EQUAL, Fraction(0)))
    for i in range(n):
        floor = [Fraction(0)] * (n + 2)
        floor[sigma[i]] = Fraction(-1)
        floor[n] = Fraction(inst.valuations[i][sigma[i]])
        rows.append((tuple(floor), GREATER_EQUAL, Fraction(1)))
        ceil = [Fraction(0)] * (n + 2)
        ceil[sigma[i]] = Fraction(-1)
        ceil[n] = Fraction(inst.valuations[i][sigma[i]])
        ceil[n + 1] = Fraction(-1)
        rows.append((tuple(ceil), LESS_EQUAL, Fraction(0)))
    obj = tuple([Fraction(0)] * (n + 1) + [Fraction(1)])
    names = tuple(f"z{j + 1}" for j in range(n)) + ("s", "tau")
    res = lp_solve(LinearProgram(names=names, constraints=tuple(rows),
                                 objective=(obj, MINIMIZE)))
    if res.status == LP_INFEASIBLE:
        return None
    assert res.status == OPTIMAL, "the ratio is bounded below by one"
    s = res.point[n]
    assert s > 0, "zero scale contradicts the unit floor and zero total"
    rents = tuple(z / s for z in res.point[:n])
    return res.value, rents


def _infeasible_outcome(objective):
    cert = InfeasibilityCertificate(
        kind=ENVY_PATH_VIOLATION,
        explanation="no welfare-maximizing assignment admits rents satisfying "
                    "every envy-freeness, bound, and budget constraint")
    return SolveOutcome(status=INFEASIBLE, objective=objective,
                        certificate=cert)


def _solved_outcome(inst, objective, assignment, rents, value):
    alloc = Allocation(assignment=assignment, rents=tuple(rents))
    return SolveOutcome(status=SOLVED, objective=objective, allocation=alloc,
                        utilities=utilities(inst, alloc),
                        objective_value=value)


def oracle_solve(inst: Instance, objective: str = "any") -> SolveOutcome:
    """Brute-force answer: every welfare-max assignment, solved by LP, best
    kept. Deterministic: assignments are tried in lexicographic order and
    only strict improvements replace the incumbent. An objective outside
    ORACLE_OBJECTIVES raises ValueError."""
    if objective not in ORACLE_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of "
                         f"{', '.join(ORACLE_OBJECTIVES)}")
    if inst.n > ENUMERATION_LIMIT:
        raise SizeError(f"oracle limited to n <= {ENUMERATION_LIMIT}")
    try:
        inst = validate_instance(inst)
    except BoundSumError as err:
        return SolveOutcome(status=INFEASIBLE, objective=objective,
                            certificate=err.certificate)

    assignments = all_max_welfare_assignments(inst.valuations)

    if objective == "any":
        for sigma in assignments:
            res = _solve_feasibility(inst, sigma)
            if res.status == OPTIMAL:
                return _solved_outcome(inst, objective, sigma, res.point, None)
        return _infeasible_outcome(objective)

    if objective == "min_rel_spread":
        feasible = []
        for sigma in assignments:
            got = _solve_maximin(inst, sigma)
            if got is not None:
                feasible.append((sigma, got[0]))
        if not feasible:
            return _infeasible_outcome(objective)
        if all(value <= 0 for _, value in feasible):
            raise UnsupportedObjectiveError(
                "relative spread needs a strictly positive minimum utility")
        best = None
        for sigma, value in feasible:
            if value <= 0:
                continue
            ratio, rents = _solve_min_rel_spread(inst, sigma)
            if best is None or ratio < best[0]:
                best = (ratio, sigma, rents)
        return _solved_outcome(inst, objective, best[1], best[2], best[0])

    solvers = {
        "maximin": (_solve_maximin, lambda a, b: a > b),
        "leximin": (_solve_leximin, lambda a, b: a > b),
        "minspread": (_solve_minspread, lambda a, b: a < b),
        "max_total_rent": (_solve_max_total, lambda a, b: a > b),
    }
    solve, better = solvers[objective]
    best = None
    for sigma in assignments:
        got = solve(inst, sigma)
        if got is None:
            continue
        value, rents = got
        if best is None or better(value, best[0]):
            best = (value, sigma, rents)
    if best is None:
        return _infeasible_outcome(objective)
    return _solved_outcome(inst, objective, best[1], best[2], best[0])
