"""Welfare-maximizing assignments: exact max-weight perfect matching.

The matching is the entry point of the whole pipeline: envy-free rents exist
for an assignment iff it maximizes total valuation, so every solver fixes one
welfare-maximizing assignment up front. One plain Hungarian run on the
valuations scaled to integers by their common denominator gives the optima as
the perfect matchings of its duals' tight graph (Shapley & Shubik 1971), and
the lexicographic tie-break is read off that graph.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .model import Assignment, _scaled_int_matrix, rat


class SizeError(ValueError):
    """Enumeration requested for an instance too large to enumerate."""


ENUMERATION_LIMIT = 8


def assignment_welfare(valuations, assignment: Assignment) -> Fraction:
    """Total matched valuation sum_i v_{i,sigma(i)}."""
    return sum((valuations[i][j] for i, j in enumerate(assignment.room_of_agent)),
               Fraction(0))


def _welfare(weights, room_of_agent) -> int:
    """Total matched weight sum_i weights[i][room_of_agent[i]], on the
    integer valuation matrix (model.Instance.scaled_valuations)."""
    return sum(row[x] for row, x in zip(weights, room_of_agent))


def _hungarian_min_cost(cost):
    """Classic O(n^3) potential-based assignment on an integer cost matrix.

    Returns (room_of_agent, column potentials): room_of_agent minimizes the
    total cost, and the potentials v (one per room) with the row potentials
    u satisfy u_i + v_j <= cost[i][j], tight on every matched pair, so
    sum(u) + sum(v) is the minimum cost. Indexing follows the usual 1-based
    formulation internally.
    """
    n = len(cost)
    INF = None  # sentinel: treated as +infinity in comparisons below
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    room_of_agent = [0] * n
    for j in range(1, n + 1):
        room_of_agent[p[j] - 1] = j - 1
    return room_of_agent, v[1:]


def _max_welfare(weights):
    """(v, room_of_agent) from one plain Hungarian run on the integer
    valuation matrix weights (model.Instance.scaled_valuations): the column
    potentials v on the cost -weights, and the lexicographically smallest
    optimum.

    The optima are the perfect matchings of the tight graph (zero reduced
    cost). Agent i, in order, takes the smallest tight room j < room[i]
    whose occupant is still free and from which an alternating path of free
    occupants, each moving on to one of its tight rooms, reaches room[i];
    the matching rotates along it. A room that a failed search visited
    cannot reach room[i] either, so one depth-first pass serves every j."""
    room, v = _hungarian_min_cost([[-w for w in row] for row in weights])
    tight = [[j for j, w in enumerate(row) if w + v[j] == row[x] + v[x]]
             for row, x in zip(weights, room)]
    owner = {x: a for a, x in enumerate(room)}
    for i, rooms in enumerate(tight):
        target, parent, found = room[i], {}, None
        for j in rooms:
            if j >= target or found is not None:
                break
            if j in parent or owner[j] < i:
                continue
            parent[j], stack = None, [j]
            while stack and found is None:
                y = stack.pop()
                for z in tight[owner[y]]:
                    if z == target:
                        found = y
                        break
                    if z not in parent and owner[z] > i:
                        parent[z] = y
                        stack.append(z)
        z, y = target, found
        while y is not None:  # each occupant on the path moves one room on
            room[owner[y]], owner[z] = z, owner[y]
            z, y = y, parent[y]
        room[i], owner[z] = z, i
    return v, tuple(room)


def max_welfare_assignment(valuations) -> Assignment:
    """A welfare-maximizing assignment; ties break to the lexicographically
    smallest room_of_agent vector so all downstream output is deterministic.
    The optimum is read off the tight graph of one plain Hungarian run."""
    if len(valuations) == 0:
        raise SizeError("empty instance")
    rows = [[rat(v) for v in row] for row in valuations]
    return Assignment(_max_welfare(_scaled_int_matrix(rows)[0])[1])


def all_max_welfare_assignments(valuations) -> list:
    """Every welfare-maximizing assignment, lexicographically sorted.

    Enumerates all n! permutations, so n is gated at ENUMERATION_LIMIT.
    """
    n = len(valuations)
    if n > ENUMERATION_LIMIT:
        raise SizeError(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    rows = [[rat(v) for v in row] for row in valuations]
    best = None
    out = []
    for perm in itertools.permutations(range(n)):
        welfare = sum((rows[i][perm[i]] for i in range(n)), Fraction(0))
        if best is None or welfare > best:
            best = welfare
            out = [perm]
        elif welfare == best:
            out.append(perm)
    out.sort()
    return [Assignment(perm) for perm in out]
