"""Welfare-maximizing assignments: exact max-weight perfect matching.

The matching is the entry point of the whole pipeline: envy-free rents exist
for an assignment iff it maximizes total valuation, so every solver fixes one
welfare-maximizing assignment up front. Everything here is integer-exact; the
rational valuations are scaled by their common denominator once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .model import Assignment, rat


class SizeError(ValueError):
    """Enumeration requested for an instance too large to enumerate."""


ENUMERATION_LIMIT = 8


def assignment_welfare(valuations, assignment: Assignment) -> Fraction:
    """Total matched valuation sum_i v_{i,sigma(i)}."""
    return sum((valuations[i][j] for i, j in enumerate(assignment.room_of_agent)),
               Fraction(0))


def _scaled_int_matrix(valuations):
    """(weights, denom): the valuations times their common denominator
    denom, as integers."""
    rows = [[rat(v) for v in row] for row in valuations]
    denom = lcm(*[v.denominator for row in rows for v in row]) if rows else 1
    return [[v.numerator * (denom // v.denominator) for v in row]
            for row in rows], denom


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


def max_welfare_assignment(valuations) -> Assignment:
    """A welfare-maximizing assignment; ties break to the lexicographically
    smallest room_of_agent vector so all downstream output is deterministic.

    The tie-break is folded into the cost matrix: welfare is scaled far above
    a base-(n+1) positional encoding of the room choices, so one exact
    Hungarian run minimizes (-welfare, room_of_agent) jointly.
    """
    n = len(valuations)
    if n == 0:
        raise SizeError("empty instance")
    weights, _ = _scaled_int_matrix(valuations)
    base = n + 1
    # lex term for agent i choosing room j: j * base^(n-1-i), all < base^n
    scale = base ** n
    cost = [[-weights[i][j] * scale + j * base ** (n - 1 - i) for j in range(n)]
            for i in range(n)]
    room_of_agent, _ = _hungarian_min_cost(cost)
    return Assignment(tuple(room_of_agent))


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
