"""Event-driven engine for the continuous rent adjustments.

Every algorithm moves rents along per-room linear trajectories
r_j(t) = r_j + c_j * t and stops at the earliest *event*: a new weak-envy
edge (an EF slack reaching zero), a rent hitting a watched bound, or two
occupant utilities merging. Event times are exact rationals.

EventEngine.step is the one motion primitive: the conserving plan for a
pair of room sets, the event scan, and the exact move to the event. The EF
seed, the bound repair and the objectives differ only in the sets, the
watched bounds and the tracked merges they pass it.

The scan works on integers over common denominators (cross multiplication
instead of Fraction construction per candidate); only the winning time is
materialized as a Fraction. It doubles as the per-event invariant check: a
non-conserving plan, a negative EF slack (unless the caller is still
removing envy) or a weak edge about to turn strong trips an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
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
    """Rent velocity per room; conserving plans sum to zero."""

    rate_of_room: tuple  # Fraction per room


def conserving_plan(n: int, s_inc, s_dec, unit: str = "inc") -> RatePlan:
    """+1 on s_inc and -|s_inc|/|s_dec| on s_dec (unit="inc"), or -1 on s_dec
    and +|s_dec|/|s_inc| on s_inc (unit="dec"). Total rent is conserved."""
    s_inc, s_dec = set(s_inc), set(s_dec)
    assert s_inc and s_dec and not (s_inc & s_dec)
    rates = [Fraction(0)] * n
    if unit == "inc":
        up, down = Fraction(1), Fraction(-len(s_inc), len(s_dec))
    else:
        down = Fraction(-1)
        up = Fraction(len(s_dec), len(s_inc))
    for j in s_inc:
        rates[j] = up
    for j in s_dec:
        rates[j] = down
    return RatePlan(tuple(rates))


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
    """Per-solve scanner; caches the integer valuation differences for one
    fixed assignment so each scan is pure integer work."""

    def __init__(self, inst: Instance, assignment):
        self.inst = inst
        self.assignment = assignment
        self.n = inst.n
        self.sigma = assignment.room_of_agent
        self.agent_of_room = [0] * self.n
        for i, x in enumerate(self.sigma):
            self.agent_of_room[x] = i
        denoms = [v.denominator for row in inst.valuations for v in row]
        self.dv = lcm(*denoms) if denoms else 1
        vnum = [[int(v * self.dv) for v in row] for row in inst.valuations]
        # diff[i][j] = (v_{i,sigma(i)} - v_ij) * dv
        self.diff = [[vnum[i][self.sigma[i]] - vnum[i][j] for j in range(self.n)]
                     for i in range(self.n)]
        # occupant valuation of each room, scaled
        self.occ_val = [vnum[self.agent_of_room[x]][x] for x in range(self.n)]

    def weak_strong_adjacency(self, rents):
        """Envy adjacency at the current rents, integer math only.

        Returns (succ, pred, strong) with succ/pred as list-of-lists over
        rooms and strong as a sorted list of (from_room, to_room) pairs.
        """
        n, dv, sigma = self.n, self.dv, self.sigma
        d = lcm(*[r.denominator for r in rents])
        rnum = [int(r * d) for r in rents]
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        strong = []
        for i in range(n):
            x = sigma[i]
            row = self.diff[i]
            rx = rnum[x]
            for j in range(n):
                if j == x:
                    continue
                if row[j] * d <= (rx - rnum[j]) * dv:
                    succ[x].append(j)
                    pred[j].append(x)
                    if row[j] * d < (rx - rnum[j]) * dv:
                        strong.append((x, j))
        strong.sort()
        return succ, pred, strong

    def scan(self, rents, plan: RatePlan, lower, upper, merge_rooms,
             assert_ef: bool = True) -> Event:
        """Earliest event for the plan from these rents, or an UNBOUNDED one.

        lower/upper are the watched bounds (None watches none). merge_rooms
        is "all" (any converging occupant utilities), a frozenset (merges
        against that tracked class only), or None (merges off). assert_ef
        hard-checks EF slack nonnegativity."""
        n, dv, sigma = self.n, self.dv, self.sigma
        d = lcm(*[r.denominator for r in rents])
        rnum = [int(r * d) for r in rents]
        rates = plan.rate_of_room
        q = lcm(*[c.denominator for c in rates])
        cnum = [int(c * q) for c in rates]
        assert sum(cnum) == 0, "plan does not conserve total rent"

        candidates = []  # (num, den, kind) with num, den > 0

        # (a) EF slack roots, one per ordered (agent, room) pair.
        dvd = dv * d
        for i in range(n):
            x = sigma[i]
            cx = cnum[x]
            row = self.diff[i]
            for j in range(n):
                if j == x:
                    continue
                s = row[j] * d - (rnum[x] - rnum[j]) * dv
                cj = cnum[j]
                if s > 0:
                    if cx > cj:
                        candidates.append((s * q, dvd * (cx - cj),
                                           (NEW_WEAK_EDGE, i, j)))
                elif s < 0:
                    assert not assert_ef, \
                        f"EF violated: agent {i} envies room {j}"
                    if cj > cx:
                        candidates.append(((-s) * q, dvd * (cj - cx),
                                           (NEW_WEAK_EDGE, i, j)))
                else:
                    # existing weak edge must not turn strong at t=0+
                    assert cj >= cx, \
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
                    num = bound.numerator * d - rnum[j] * bound.denominator
                    # crossing requires motion toward the bound
                    if cj > 0 and num > 0:
                        candidates.append((num * q, bound.denominator * d * cj,
                                           (BOUND_HIT, j, side)))
                    elif cj < 0 and num < 0:
                        candidates.append(((-num) * q,
                                           bound.denominator * d * (-cj),
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
                candidates.append((gap * q, dvd * dc, (MERGE, x, y)))
            elif gap < 0 and dc < 0:
                candidates.append(((-gap) * q, dvd * (-dc), (MERGE, x, y)))

        if not candidates:
            return Event(time=None, kinds=((UNBOUNDED,),))
        bn, bd, _ = candidates[0]
        for num, den, _ in candidates[1:]:
            if num * bd < bn * den:
                bn, bd = num, den
        kinds = sorted(kind for num, den, kind in candidates
                       if num * bd == bn * den)
        return Event(time=Fraction(bn, bd), kinds=tuple(kinds))

    def step(self, rents, s_inc, s_dec, unit, lower, upper, merge_rooms,
             assert_ef: bool = True):
        """Move rents along conserving_plan(s_inc, s_dec, unit) to the
        earliest event and return (event, new_rents).

        The watched arguments are scan's. Every caller's motion is bounded
        (its set choice guarantees some event ahead), so an unbounded ray is
        an internal error."""
        plan = conserving_plan(self.n, s_inc, s_dec, unit)
        event = self.scan(rents, plan, lower, upper, merge_rooms, assert_ef)
        assert event.time is not None, "rent motion ray cannot be unbounded"
        return event, tuple(r + c * event.time
                            for r, c in zip(rents, plan.rate_of_room))
