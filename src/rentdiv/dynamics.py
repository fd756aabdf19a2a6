"""Event-driven engine for the continuous rent adjustments.

Every algorithm moves rents along per-room linear trajectories
r_j(t) = r_j + c_j * t and stops at the earliest *event*: a new weak-envy
edge (an EF slack reaching zero), a rent hitting a watched bound, or two
occupant utilities merging. Event times are exact rationals.

EventEngine.step is the one motion primitive: the conserving plan for a
pair of room sets, the event scan, and the exact move to the event. The
bound repair and the objectives differ only in the sets, the watched bounds
and the tracked merges they pass it.

The engine works on integers only. A RentState holds the rents as integer
numerators over one common denominator D, kept reduced (gcd(D, *num) == 1,
so D is the lcm of the rents' denominators), and a RatePlan holds the rates
as integers over one denominator q. One O(n^2) pass over the EF slacks per
state gives the weak/strong adjacency, and the scan that follows reuses
those slacks; the move to an event at t is D <- D * q * t.den with the
numerators updated to match, then one gcd reduction. Only the winning event
time is a Fraction; RentState.rents builds the Fraction view where a caller
needs it (returned rents, trace snapshots).

The scan doubles as the per-event invariant check: a non-conserving plan, a
negative EF slack or a weak edge about to turn strong trips an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .model import Instance, is_finite

NEW_WEAK_EDGE = "new_weak_edge"
BOUND_HIT = "bound_hit"
MERGE = "merge"
UNBOUNDED = "unbounded"

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class RatePlan:
    """Rent velocity per room: room j moves at num[j] / den (den > 0).
    Conserving plans sum to zero."""

    num: tuple  # int per room
    den: int = 1


def conserving_plan(n: int, s_inc, s_dec, unit: str = "inc") -> RatePlan:
    """+1 on s_inc and -|s_inc|/|s_dec| on s_dec (unit="inc"), or -1 on s_dec
    and +|s_dec|/|s_inc| on s_inc (unit="dec"). Total rent is conserved.

    Either way s_inc moves at |s_dec| and s_dec at -|s_inc|; the unit only
    picks the denominator, |s_dec| or |s_inc|."""
    s_inc, s_dec = set(s_inc), set(s_dec)
    assert s_inc and s_dec and not (s_inc & s_dec)
    rates = [0] * n
    for j in s_inc:
        rates[j] = len(s_dec)
    for j in s_dec:
        rates[j] = -len(s_inc)
    return RatePlan(tuple(rates), len(s_dec) if unit == "inc" else len(s_inc))


class RentState:
    """Rents as integer numerators over one common denominator, reduced so
    that gcd(den, *num) == 1. Immutable; the Fraction view is built on first
    use."""

    __slots__ = ("num", "den", "_rents")

    def __init__(self, num, den: int):
        g = gcd(den, *num)
        self.num = tuple(x // g for x in num)
        self.den = den // g
        self._rents = None

    @classmethod
    def of(cls, rents) -> "RentState":
        den = lcm(*[r.denominator for r in rents])
        return cls([r.numerator * (den // r.denominator) for r in rents], den)

    @property
    def rents(self) -> tuple:
        """The rents as a tuple of Fractions."""
        if self._rents is None:
            self._rents = tuple(Fraction(x, self.den) for x in self.num)
        return self._rents

    def moved(self, plan: RatePlan, time: Fraction) -> "RentState":
        """The rents after moving along plan for time: over the denominator
        D * q * time.den, room j's numerator is
        num_j * q * time.den + c_j * time.num * D."""
        scale = plan.den * time.denominator
        shift = time.numerator * self.den
        return RentState([x * scale + c * shift
                          for x, c in zip(self.num, plan.num)],
                         self.den * scale)


@dataclass(frozen=True)
class Event:
    """Earliest watched event; time None means no candidate (infinite ray).

    kinds holds every co-occurring event at that time, sorted:
      (NEW_WEAK_EDGE, agent, room) | (BOUND_HIT, room, LOWER|UPPER)
      | (MERGE, room_a, room_b) | (UNBOUNDED,)
    """

    time: Optional[Fraction]
    kinds: tuple


@dataclass
class TraceLog:
    """Optional event trace and counters, surfaced via the CLI --trace flag.

    The state snapshot kwargs (rents, assignment, lower, upper) let an
    auditor recheck EF, the rent total, and bound respect after every
    recorded event without rerunning the solver.
    """

    events: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def record(self, phase: str, time, kinds, sizes: dict, rents=None,
               assignment=None, lower=None, upper=None):
        self.events.append({"phase": phase, "time": time, "kinds": tuple(kinds),
                            "sizes": dict(sizes), "rents": rents,
                            "assignment": assignment, "lower": lower,
                            "upper": upper})

    def bump(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, 0), value)


class EventEngine:
    """Per-solve scanner for one fixed assignment. Caches the integer
    valuation differences, and the EF slacks of the last state it saw, so
    that an adjacency build and the scan after it share one pass."""

    def __init__(self, inst: Instance, assignment):
        self.inst = inst
        self.assignment = assignment
        self.n = inst.n
        self.sigma = assignment.room_of_agent
        self.agent_of_room = [0] * self.n
        for i, x in enumerate(self.sigma):
            self.agent_of_room[x] = i
        vnum, self.dv = inst.scaled_valuations
        # diff[i][j] = (v_{i,sigma(i)} - v_ij) * dv
        self.diff = [[vnum[i][self.sigma[i]] - vnum[i][j] for j in range(self.n)]
                     for i in range(self.n)]
        # occupant valuation of each room, scaled
        self.occ_val = [vnum[self.agent_of_room[x]][x] for x in range(self.n)]
        self._slack_state = None
        self._slack = None

    def _slacks(self, state: RentState):
        """slack[i][j]: agent i's own utility minus its utility for room j,
        times dv * D (zero on i's own room; negative means strong envy)."""
        if state is not self._slack_state:
            d = state.den
            rdv = [x * self.dv for x in state.num]
            table = []
            for row, x in zip(self.diff, self.sigma):
                rx = rdv[x]
                table.append([dij * d - rx + rj for dij, rj in zip(row, rdv)])
            self._slack, self._slack_state = table, state
        return self._slack

    def weak_strong_adjacency(self, state: RentState):
        """Envy adjacency at the given rents, integer math only.

        Returns (succ, pred, strong) with succ/pred as list-of-lists over
        rooms and strong as a sorted list of (from_room, to_room) pairs.
        """
        n, sigma = self.n, self.sigma
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        strong = []
        for row, x in zip(self._slacks(state), sigma):
            for j in [j for j, s in enumerate(row) if s <= 0]:
                if j != x:
                    succ[x].append(j)
                    pred[j].append(x)
                    if row[j] < 0:
                        strong.append((x, j))
        strong.sort()
        return succ, pred, strong

    def scan(self, state: RentState, plan: RatePlan, lower, upper,
             merge_rooms) -> Event:
        """Earliest event for the plan from these rents, or an UNBOUNDED one.

        lower/upper are the watched bounds (None watches none). merge_rooms
        is "all" (any converging occupant utilities), a frozenset (merges
        against that tracked class only), or None (merges off). The rents
        must be envy-free: a negative EF slack trips an assertion."""
        n, dv, sigma = self.n, self.dv, self.sigma
        d, rnum = state.den, state.num
        cnum = plan.num
        assert sum(cnum) == 0, "plan does not conserve total rent"

        # (num, den, kind) with num, den > 0: the event comes at time
        # num / den * q / (dv * D), so candidates compare as num / den.
        candidates = []

        # (a) EF slack roots, one per ordered (agent, room) pair; an agent's
        # slack toward its own room is identically zero.
        for i, (row, x) in enumerate(zip(self._slacks(state), sigma)):
            cx = cnum[x]
            for j, s, cj in zip(range(n), row, cnum):
                if s > 0:
                    if cx > cj:
                        candidates.append((s, cx - cj, (NEW_WEAK_EDGE, i, j)))
                else:
                    assert s == 0, f"EF violated: agent {i} envies room {j}"
                    # existing weak edge must not turn strong at t=0+
                    assert cj >= cx or j == x, \
                        f"weak edge ({x}->{j}) would turn strong immediately"

        # (b) watched bound crossings.
        if lower is not None or upper is not None:
            for j in range(n):
                cj = cnum[j]
                if cj == 0:
                    continue
                for bound, side in ((lower and lower[j], LOWER),
                                    (upper and upper[j], UPPER)):
                    if bound is None or not is_finite(bound):
                        continue
                    bd = bound.denominator
                    num = bound.numerator * d - rnum[j] * bd
                    # crossing requires motion toward the bound
                    if cj > 0 and num > 0:
                        candidates.append((num * dv, bd * cj,
                                           (BOUND_HIT, j, side)))
                    elif cj < 0 and num < 0:
                        candidates.append(((-num) * dv, bd * (-cj),
                                           (BOUND_HIT, j, side)))

        # (c) occupant-utility merges.
        if merge_rooms == "all":
            pairs = ((x, y) for x in range(n) for y in range(x + 1, n))
        elif merge_rooms:
            tracked = sorted(merge_rooms)
            assert len({cnum[x] for x in tracked}) == 1, \
                "tracked class rooms must share one rate"
            rep = tracked[0]
            pairs = ((min(x, rep), max(x, rep)) for x in range(n)
                     if x not in merge_rooms)
        else:
            pairs = ()
        for x, y in pairs:
            # u_x - u_y over time: gap0 - (c_x - c_y) t
            gap = (self.occ_val[x] - self.occ_val[y]) * d \
                - (rnum[x] - rnum[y]) * dv
            dc = cnum[x] - cnum[y]
            if gap > 0 and dc > 0:
                candidates.append((gap, dc, (MERGE, x, y)))
            elif gap < 0 and dc < 0:
                candidates.append((-gap, -dc, (MERGE, x, y)))

        if not candidates:
            return Event(time=None, kinds=((UNBOUNDED,),))
        bn, bd, _ = candidates[0]
        for num, den, _ in candidates[1:]:
            if num * bd < bn * den:
                bn, bd = num, den
        kinds = sorted(kind for num, den, kind in candidates
                       if num * bd == bn * den)
        return Event(time=Fraction(bn * plan.den, bd * dv * d),
                     kinds=tuple(kinds))

    def step(self, state: RentState, s_inc, s_dec, unit, lower, upper,
             merge_rooms):
        """Move rents along conserving_plan(s_inc, s_dec, unit) to the
        earliest event and return (event, new_state).

        The watched arguments are scan's. Every caller's motion is bounded
        (its set choice guarantees some event ahead), so an unbounded ray is
        an internal error."""
        plan = conserving_plan(self.n, s_inc, s_dec, unit)
        event = self.scan(state, plan, lower, upper, merge_rooms)
        assert event.time is not None, "rent motion ray cannot be unbounded"
        return event, state.moved(plan, event.time)
