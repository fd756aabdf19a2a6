"""Envy graphs on rooms, plain and budget-aware, plus the graph toolkit
(reachability closures, SCC partition, cycle search) used by every algorithm.

Vertices are room indices. An edge x -> y means the occupant of room x weakly
envies room y (equal utility = weak, strictly better = strong); the
budget-aware one also requires strict budget slack at y. Both are read off the
integer slacks of model.ef_slacks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import Allocation, Instance, ef_slacks, is_finite

WEAK = "weak"
STRONG = "strong"


@dataclass(frozen=True)
class EnvyGraph:
    n: int
    edges: tuple  # (from_room, to_room, strength), sorted by (from, to)

    def successors(self):
        out = [[] for _ in range(self.n)]
        for a, b, _ in self.edges:
            out[a].append(b)
        return out

    def predecessors(self):
        out = [[] for _ in range(self.n)]
        for a, b, _ in self.edges:
            out[b].append(a)
        return out


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    """Plain envy graph: edge (sigma(i), j) iff u_i <= v_ij - r_j, i != j."""
    return EnvyGraph(inst.n, _envy_edges(inst, alloc, None))


def build_budget_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    """Budget-aware envy graph: weak envy plus strict budget slack r_j < b_ij,
    i.e. the occupant of x could move to room j without paying over budget."""
    return EnvyGraph(inst.n, _envy_edges(inst, alloc, inst.budgets))


def _envy_edges(inst, alloc, budgets) -> tuple:
    """Envy edges from the integer EF slacks, sorted by (from, to); given a
    budget matrix, only toward rooms priced below the mover's budget."""
    slack, _ = ef_slacks(inst, alloc)
    edges = []
    for x, i in enumerate(alloc.assignment.agent_of_room()):
        for j, s in enumerate(slack[i]):
            if s > 0 or j == x:
                continue
            if budgets is not None and is_finite(b := budgets[i][j]):
                r = alloc.rents[j]
                if r.numerator * b.denominator >= b.numerator * r.denominator:
                    continue
            edges.append((x, j, STRONG if s < 0 else WEAK))
    return tuple(edges)


def _closure(n, adjacency, start) -> frozenset:
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def reachable(g: EnvyGraph, rooms) -> frozenset:
    """Reflexive-transitive forward closure R(X)."""
    return _closure(g.n, g.successors(), set(rooms))


def co_reachable(g: EnvyGraph, rooms) -> frozenset:
    """Reflexive-transitive backward closure R^-1(X): rooms that can reach X."""
    return _closure(g.n, g.predecessors(), set(rooms))


def scc_partition(g: EnvyGraph) -> tuple:
    """Strongly connected components as frozensets, topologically ordered.

    Deterministic: among components whose predecessors are all emitted, the
    one containing the smallest room id comes first.
    """
    n = g.n
    succ = g.successors()
    # Tarjan, iterative.
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [-1] * n
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    # Condensation + Kahn's algorithm with a min-heap keyed by smallest room.
    m = len(comps)
    indegree = [0] * m
    cond_succ = [set() for _ in range(m)]
    for a, b, _ in g.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb and cb not in cond_succ[ca]:
            cond_succ[ca].add(cb)
            indegree[cb] += 1
    heap = [(min(comps[c]), c) for c in range(m) if indegree[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(comps[c])
        for d in cond_succ[c]:
            indegree[d] -= 1
            if indegree[d] == 0:
                heapq.heappush(heap, (min(comps[d]), d))
    assert len(order) == m
    return tuple(order)


def find_cycle_through(g: EnvyGraph, room: int):
    """A simple directed cycle through room, or None.

    Deterministic choice: shortest cycle, then lexicographically smallest room
    sequence starting at room. Returned as a room tuple without repeating the
    start at the end.
    """
    succ = g.successors()
    pred = g.predecessors()
    # BFS distances toward room (along reversed edges).
    dist_to = [None] * g.n
    dist_to[room] = 0
    queue = [room]
    while queue:
        nxt = []
        for v in queue:
            for w in pred[v]:
                if dist_to[w] is None:
                    dist_to[w] = dist_to[v] + 1
                    nxt.append(w)
        queue = nxt
    best = None
    for w in succ[room]:
        if w == room:
            continue
        if dist_to[w] is not None and (best is None or dist_to[w] + 1 < best):
            best = dist_to[w] + 1
    if best is None:
        return None
    # Greedy lex-min walk along the shortest-distance gradient.
    path = [room]
    cur = room
    remaining = best
    while remaining > 1:
        cur = min(w for w in succ[cur]
                  if w != room and dist_to[w] == remaining - 1)
        path.append(cur)
        remaining -= 1
    assert room in succ[path[-1]]
    return tuple(path)
