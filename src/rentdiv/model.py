"""Core domain types for envy-free rent division.

Exact rational arithmetic, validated problem instances, allocations, and the
envy-freeness / constraint checks that every solver asserts at its boundary.
Fractions are the interface type; the checks compare integers over one common
denominator of the valuations and rents. Floats appear only as the +/-inf
bound sentinels, which never mix with arithmetic (comparisons only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

NEG_INF = -math.inf
POS_INF = math.inf

# A bound is an exact Fraction or an infinite sentinel.
BoundValue = Union[Fraction, float]

SOLVED = "solved"
INFEASIBLE = "infeasible"

OBJECTIVES = ("any", "maximin", "leximin", "minspread")
# The oracle also answers two audit-only objectives the solver does not expose.
ORACLE_OBJECTIVES = OBJECTIVES + ("max_total_rent", "min_rel_spread")

BOUND_SUM_VIOLATION = "bound_sum_violation"
ENVY_PATH_VIOLATION = "envy_path_violation"
BUDGET_CAP_VIOLATION = "budget_cap_violation"


class ShapeError(ValueError):
    """Valuation/bound/budget dimensions do not form a square instance."""


class BoundOrderError(ValueError):
    """Some room has lower bound above its upper bound."""


class BoundaryError(RuntimeError):
    """A public-boundary contract failed: an inconsistent SolveOutcome, or a
    solver allocation that is envious or breaks the constraints. Raised
    explicitly, not asserted, so the check also runs under python -O."""


class BoundSumError(ValueError):
    """Bound sums exclude the target total rent (sum l > R_t or sum u < R_t).

    instance is the otherwise valid instance, so that a certificate for it
    can still be checked."""

    def __init__(self, message: str, certificate: "InfeasibilityCertificate",
                 instance: "Instance"):
        super().__init__(message)
        self.certificate = certificate
        self.instance = instance


def rat(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string ("3/7", "2.5").

    Floats are rejected on purpose: binary floats are never exact inputs.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def is_finite(x: BoundValue) -> bool:
    return isinstance(x, Fraction)


def decimal_str(x: BoundValue, digits: int = 20) -> str:
    """Display-only decimal rendering: 20 significant digits, round half even."""
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def format_rat(x: BoundValue) -> str:
    """Exact rendering: "p/q" for non-integers, plain integer string otherwise."""
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    return str(x)


def _scaled_int_matrix(valuations) -> tuple:
    """(weights, denom): the exact valuations (Fractions or ints) times their
    common denominator denom, as a tuple of integer rows. An entry already
    over denom keeps its numerator object."""
    denom = math.lcm(*[v.denominator for row in valuations for v in row])
    return tuple([tuple([v.numerator if v.denominator == denom
                         else v.numerator * (denom // v.denominator)
                         for v in row]) for row in valuations]), denom


@dataclass(frozen=True)
class Instance:
    """A validated rent-division problem: n agents, n rooms, exact money.

    Absent bounds are normalized to (-inf, +inf) and absent budgets to all
    +inf by validate_instance, so one code path serves the unconstrained,
    bounded, and budgeted settings.
    """

    n: int
    valuations: tuple  # n x n, Fraction, v[i][j] >= 0
    total_rent: Fraction
    lower_bounds: tuple  # per room, Fraction or NEG_INF
    upper_bounds: tuple  # per room, Fraction or POS_INF
    budgets: tuple  # n x n, Fraction or POS_INF

    @cached_property
    def scaled_valuations(self) -> tuple:
        """(weights, dv): the valuations times their common denominator dv,
        as a tuple of integer rows. Computed once per instance and shared by
        every stage of a solve; not a field, so it takes no part in ==,
        hash or repr."""
        return _scaled_int_matrix(self.valuations)


@dataclass(frozen=True)
class Assignment:
    """A bijection agent -> room, stored as the room of each agent."""

    room_of_agent: tuple

    def room(self, agent: int) -> int:
        return self.room_of_agent[agent]

    def agent_of_room(self) -> tuple:
        inv = [0] * len(self.room_of_agent)
        for agent, room in enumerate(self.room_of_agent):
            inv[room] = agent
        return tuple(inv)


@dataclass(frozen=True)
class Allocation:
    """An assignment together with a per-room rent vector."""

    assignment: Assignment
    rents: tuple  # Fraction per room


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A checkable witness that no feasible envy-free allocation exists.

    witness_path is a room sequence along envy edges; witness_rooms is the
    set form used by the dead-end rule. The final_* fields carry the state
    the witness refers to, so validation needs no solver re-run.
    """

    kind: str
    explanation: str
    witness_path: Optional[tuple] = None
    witness_rooms: Optional[tuple] = None
    assignment: Optional[Assignment] = None
    final_rents: Optional[tuple] = None
    effective_lower: Optional[tuple] = None
    effective_upper: Optional[tuple] = None


@dataclass(frozen=True)
class SolveOutcome:
    """Either a solved allocation with objective metadata or a certificate."""

    status: str
    objective: str
    allocation: Optional[Allocation] = None
    utilities: Optional[tuple] = None
    objective_value: Optional[BoundValue] = None
    certificate: Optional[InfeasibilityCertificate] = None

    def __post_init__(self):
        if self.status not in (SOLVED, INFEASIBLE):
            raise BoundaryError(f"unknown status {self.status!r}")
        if (self.status == SOLVED) != (self.allocation is not None):
            raise BoundaryError("a solved outcome carries an allocation, "
                                "an infeasible one none")
        if (self.status == INFEASIBLE) != (self.certificate is not None):
            raise BoundaryError("an infeasible outcome carries a certificate, "
                                "a solved one none")


@dataclass(frozen=True)
class ConstraintReport:
    bounds_ok: bool
    budgets_ok: bool
    total_ok: bool
    violations: tuple  # human-readable strings, 1-indexed

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and self.budgets_ok and self.total_ok


def make_instance(valuations, total_rent, lower_bounds=None, upper_bounds=None,
                  budgets=None) -> Instance:
    """Build and validate an Instance from loosely typed inputs.

    Valuation/rent entries go through rat(); bound and budget entries may
    additionally be the sentinels NEG_INF / POS_INF (or "-inf"/"inf" strings).
    """
    vals = tuple(tuple(rat(v) for v in row) for row in valuations)
    n = len(vals)

    def bound(x, default):
        if x is None:
            return default
        if isinstance(x, float):
            if math.isinf(x):
                return x
            raise TypeError(f"not an exact bound: {x!r}")
        if isinstance(x, str) and x.strip() in ("inf", "+inf", "-inf"):
            return POS_INF if x.strip() != "-inf" else NEG_INF
        return rat(x)

    lo = tuple(bound(x, NEG_INF) for x in lower_bounds) if lower_bounds is not None \
        else tuple([NEG_INF] * n)
    hi = tuple(bound(x, POS_INF) for x in upper_bounds) if upper_bounds is not None \
        else tuple([POS_INF] * n)
    bud = tuple(tuple(bound(x, POS_INF) for x in row) for row in budgets) \
        if budgets is not None else tuple(tuple([POS_INF] * n) for _ in range(n))
    raw = Instance(n=n, valuations=vals, total_rent=rat(total_rent),
                   lower_bounds=lo, upper_bounds=hi, budgets=bud)
    return validate_instance(raw)


def _only(row, kind) -> bool:
    """Whether every entry of the row is exactly of type kind."""
    return set(map(type, row)) == {kind}


def _bound_sum(bounds):
    """sum(bounds); Fractions only are summed as integers over one common
    denominator, and an infinite bound makes the sum infinite."""
    if not _only(bounds, Fraction):
        return sum(bounds)
    den = math.lcm(*[b.denominator for b in bounds])
    return Fraction(sum(b.numerator * (den // b.denominator) for b in bounds),
                    den)


def validate_instance(raw: Instance) -> Instance:
    """Check all Instance invariants; raise Shape/BoundOrder/BoundSumError.

    BoundSumError doubles as an immediate infeasibility certificate (its
    .certificate attribute), since no rent vector can match the total.
    """
    n = raw.n
    if n < 1:
        raise ShapeError("need at least one agent")
    if len(raw.valuations) != n or any(len(row) != n for row in raw.valuations):
        raise ShapeError(f"valuations must be {n}x{n}")
    for i, row in enumerate(raw.valuations):
        for j, v in enumerate(row):
            if not isinstance(v, Fraction):
                raise ShapeError(f"valuation[{i}][{j}] is not exact")
            if v.numerator < 0:  # the denominator is always positive
                raise ShapeError(f"valuation[{i}][{j}] is negative")
    if not isinstance(raw.total_rent, Fraction):
        raise ShapeError("total_rent is not exact")
    if len(raw.lower_bounds) != n or len(raw.upper_bounds) != n:
        raise ShapeError("bound vectors must have one entry per room")
    if len(raw.budgets) != n or any(len(row) != n for row in raw.budgets):
        raise ShapeError(f"budgets must be {n}x{n}")
    for j in range(n):
        lo, hi = raw.lower_bounds[j], raw.upper_bounds[j]
        if not is_finite(lo) and lo > 0:
            raise BoundOrderError(f"room {j + 1}: lower bound may not be +inf")
        if not is_finite(hi) and hi < 0:
            raise BoundOrderError(f"room {j + 1}: upper bound may not be -inf")
        if lo > hi:
            raise BoundOrderError(f"room {j + 1}: lower bound {lo} > upper bound {hi}")
    for i, row in enumerate(raw.budgets):
        # a row of Fractions holds no -inf, nor a row of floats none below 0
        if _only(row, Fraction) or (_only(row, float) and min(row) >= 0):
            continue
        for j, b in enumerate(row):
            if not is_finite(b) and b < 0:
                raise ShapeError(f"budget[{i}][{j}] may not be -inf")

    # Necessary feasibility precheck: sum l <= R_t <= sum u, infinities vacuous.
    lo_sum = _bound_sum(raw.lower_bounds)
    hi_sum = _bound_sum(raw.upper_bounds)
    if lo_sum > raw.total_rent:
        cert = InfeasibilityCertificate(
            kind=BOUND_SUM_VIOLATION,
            explanation=(f"sum of lower bounds {format_rat(lo_sum)} exceeds "
                         f"total rent {format_rat(raw.total_rent)}"),
            witness_rooms=tuple(range(n)),
            effective_lower=raw.lower_bounds, effective_upper=raw.upper_bounds)
        raise BoundSumError(cert.explanation, cert, raw)
    if hi_sum < raw.total_rent:
        cert = InfeasibilityCertificate(
            kind=BOUND_SUM_VIOLATION,
            explanation=(f"sum of upper bounds {format_rat(hi_sum)} is below "
                         f"total rent {format_rat(raw.total_rent)}"),
            witness_rooms=tuple(range(n)),
            effective_lower=raw.lower_bounds, effective_upper=raw.upper_bounds)
        raise BoundSumError(cert.explanation, cert, raw)
    return raw


def utilities(inst: Instance, alloc: Allocation) -> tuple:
    """Quasi-linear utilities u_i = v_{i,sigma(i)} - r_{sigma(i)}, exact."""
    sigma = alloc.assignment.room_of_agent
    return tuple(inst.valuations[i][sigma[i]] - alloc.rents[sigma[i]]
                 for i in range(inst.n))


def ef_slacks(inst: Instance, alloc: Allocation) -> tuple:
    """(slack, den): slack[i][j] / den is agent i's utility for its own room
    minus its utility for room j (negative iff i envies j), with den the lcm
    of every valuation and rent denominator."""
    weights, dv = inst.scaled_valuations
    rents = alloc.rents
    den = math.lcm(dv, *[r.denominator for r in rents])
    scale = den // dv
    rnum = [r.numerator * (den // r.denominator) for r in rents]
    slack = []
    for row, x in zip(weights, alloc.assignment.room_of_agent):
        own = row[x] * scale - rnum[x]
        slack.append([own - w * scale + rj for w, rj in zip(row, rnum)])
    return slack, den


def check_envy_free(inst: Instance, alloc: Allocation) -> list:
    """Return all EF violations as (agent, room, gap) with gap > 0 exact.

    Empty list iff for all i, j: v_{i,sigma(i)} - r_{sigma(i)} >= v_ij - r_j.
    """
    slack, den = ef_slacks(inst, alloc)
    return [(i, j, Fraction(-s, den))
            for i, row in enumerate(slack) for j, s in enumerate(row) if s < 0]


def check_constraints(inst: Instance, alloc: Allocation, rooms=None,
                      agents=None) -> ConstraintReport:
    """Flag per-room bounds, per-agent budgets, and the exact total.

    Violations name rooms and agents by the given labels (default: 1-indexed
    numbers) and come in that order: bounds, budgets, then the total."""
    numbers = range(1, inst.n + 1)
    rooms, agents = rooms or numbers, agents or numbers
    violations = []
    bounds_ok = True
    for j in range(inst.n):
        r = alloc.rents[j]
        if r < inst.lower_bounds[j]:
            bounds_ok = False
            violations.append(f"room {rooms[j]}: rent {format_rat(r)} below "
                              f"lower bound {format_rat(inst.lower_bounds[j])}")
        if r > inst.upper_bounds[j]:
            bounds_ok = False
            violations.append(f"room {rooms[j]}: rent {format_rat(r)} above "
                              f"upper bound {format_rat(inst.upper_bounds[j])}")
    budgets_ok = True
    for i, j in enumerate(alloc.assignment.room_of_agent):
        if alloc.rents[j] > inst.budgets[i][j]:
            budgets_ok = False
            violations.append(f"agent {agents[i]}: rent "
                              f"{format_rat(alloc.rents[j])} over budget "
                              f"{format_rat(inst.budgets[i][j])} for room "
                              f"{rooms[j]}")
    total = sum(alloc.rents, Fraction(0))
    total_ok = total == inst.total_rent
    if not total_ok:
        violations.append(f"total rent {format_rat(total)} != "
                          f"{format_rat(inst.total_rent)}")
    return ConstraintReport(bounds_ok=bounds_ok, budgets_ok=budgets_ok,
                            total_ok=total_ok, violations=tuple(violations))


def has_finite_budgets(inst: Instance) -> bool:
    return any(is_finite(b) for row in inst.budgets for b in row)


def assert_solution_boundary(inst: Instance, alloc: Allocation) -> None:
    """Public-boundary invariant: every emitted allocation is EF and feasible."""
    if check_envy_free(inst, alloc):
        raise BoundaryError("solver produced envious allocation")
    report = check_constraints(inst, alloc)
    if not report.all_ok:
        raise BoundaryError(f"solver violated constraints: {report.violations}")
