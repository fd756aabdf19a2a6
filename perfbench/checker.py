"""Answer checks made apart from the solver.

Nothing here imports rentdiv: instances are plain specs and answers plain
records (see workloads.py). Every check re-derives what it needs from the
instance itself: utilities, envy-freeness, the total, bounds and budgets,
the envy graph a certificate's path must run along, and the maximum welfare
an assignment must reach. Floating point appears only in the HiGHS linear
programs, whose optima are compared with the exact answers within a relative
tolerance.

Each function returns a list of problem strings; an empty list means the
answer passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

LP_REL_TOL = 1e-6

_welfare_cache = {}


def _is_perm(sigma, n):
    return (isinstance(sigma, tuple) and len(sigma) == n
            and sorted(sigma) == list(range(n)))


def _occupants(sigma):
    occ = [0] * len(sigma)
    for i, x in enumerate(sigma):
        occ[x] = i
    return occ


def utilities(s, sigma, rents):
    return tuple(s["valuations"][i][sigma[i]] - rents[sigma[i]]
                 for i in range(s["n"]))


def envious_pairs(s, sigma, rents):
    """(agent, room) pairs where the agent strictly prefers the room."""
    v = s["valuations"]
    out = []
    for i in range(s["n"]):
        own = v[i][sigma[i]] - rents[sigma[i]]
        for j in range(s["n"]):
            if v[i][j] - rents[j] > own:
                out.append((i, j))
    return out


def envy_successors(s, sigma, rents):
    """Room graph: x -> y when x's occupant weakly prefers room y."""
    v = s["valuations"]
    succ = [set() for _ in range(s["n"])]
    for i in range(s["n"]):
        x = sigma[i]
        own = v[i][x] - rents[x]
        for y in range(s["n"]):
            if y != x and v[i][y] - rents[y] >= own:
                succ[x].add(y)
    return succ


def _closure(succ, start):
    seen = set(start)
    stack = list(start)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _scaled_ints(rows):
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return [[int(x * den) for x in row] for row in rows], den


def max_welfare(s):
    """Maximum total valuation, exact, via scipy's assignment solver on the
    valuations scaled to integers."""
    key = id(s)
    if key not in _welfare_cache:
        from scipy.optimize import linear_sum_assignment
        import numpy as np
        ints, den = _scaled_ints(s["valuations"])
        rows, cols = linear_sum_assignment(np.array(ints, dtype=float),
                                           maximize=True)
        best = sum(Fraction(ints[r][c]) for r, c in zip(rows, cols)) / den
        _welfare_cache[key] = (s, best)
    return _welfare_cache[key][1]


def welfare(s, sigma):
    return sum((s["valuations"][i][sigma[i]] for i in range(s["n"])),
               Fraction(0))


def _ceiling(s, sigma):
    occ = _occupants(sigma)
    return [min(s["upper"][j], s["budgets"][occ[j]][j]) for j in range(s["n"])]


# ------------------------------------------------------------ single answers

def check_answer(s, rec, certified=True):
    """Check one answer. certified=False skips the certificate of an
    infeasible answer (used for the oracle, whose verdict is compared with
    the solver's instead)."""
    status = rec["status"]
    if status == "solved":
        return _check_solved(s, rec)
    if status == "infeasible":
        if not certified:
            return []
        return check_certificate(s, rec.get("certificate"))
    if status == "unsupported":
        return [] if rec["objective"] == "min_rel_spread" else \
            [f"{rec['objective']}: unsupported is only a min_rel_spread answer"]
    return [f"unknown status {status!r}"]


def _check_solved(s, rec):
    n = s["n"]
    objective = rec["objective"]
    sigma, rents = rec["assignment"], rec["rents"]
    if not _is_perm(sigma, n):
        return [f"{objective}: assignment is not a permutation"]
    if rents is None or len(rents) != n:
        return [f"{objective}: rent vector has the wrong length"]
    problems = []
    total = sum(rents, Fraction(0))
    if objective == "max_total_rent":
        value = rec["value"]
        if value != math.inf and value != total:
            problems.append(f"max_total_rent: value {value} != rent sum {total}")
    elif total != s["total"]:
        problems.append(f"{objective}: rents sum to {total}, not {s['total']}")
    envy = envious_pairs(s, sigma, rents)
    if envy:
        problems.append(f"{objective}: {len(envy)} envious pairs, e.g. "
                        f"agent {envy[0][0]} prefers room {envy[0][1]}")
    for j in range(n):
        if not s["lower"][j] <= rents[j] <= s["upper"][j]:
            problems.append(f"{objective}: room {j} rent {rents[j]} outside "
                            f"[{s['lower'][j]}, {s['upper'][j]}]")
    for i in range(n):
        if rents[sigma[i]] > s["budgets"][i][sigma[i]]:
            problems.append(f"{objective}: agent {i} over budget")
    util = utilities(s, sigma, rents)
    if rec["utilities"] != util:
        problems.append(f"{objective}: reported utilities differ from "
                        f"recomputed ones")
    expected = {
        "any": lambda: None,
        "maximin": lambda: min(util),
        "leximin": lambda: tuple(sorted(util)),
        "minspread": lambda: max(util) - min(util),
        "max_total_rent": lambda: rec["value"],
        "min_rel_spread": lambda: (max(util) / min(util)
                                   if min(util) > 0 else "undefined"),
    }[objective]()
    if rec["value"] != expected:
        problems.append(f"{objective}: value {rec['value']} != recomputed "
                        f"{expected}")
    return problems


def check_certificate(s, cert):
    """Re-derive an infeasibility certificate from the instance."""
    if not isinstance(cert, dict) or not cert.get("kind"):
        return ["infeasible answer without a certificate"]
    n, total = s["n"], s["total"]
    kind = cert["kind"]
    if kind == "bound_sum_violation":
        if sum(s["lower"]) > total or sum(s["upper"]) < total:
            return []
        return ["bound sums do not exclude the total"]
    if kind not in ("budget_cap_violation", "envy_path_violation"):
        return [f"unknown certificate kind {kind!r}"]

    sigma = cert.get("assignment")
    if not _is_perm(sigma, n):
        return [f"{kind}: certificate assignment is not a permutation"]
    problems = []
    if welfare(s, sigma) != max_welfare(s):
        problems.append(f"{kind}: certificate assignment is not "
                        f"welfare-maximizing")
    lower = cert.get("effective_lower")
    upper = cert.get("effective_upper")
    ceiling = _ceiling(s, sigma)
    if upper is None or len(upper) != n:
        return problems + [f"{kind}: no effective upper bounds"]
    for j in range(n):
        if upper[j] < ceiling[j]:
            problems.append(f"{kind}: room {j} ceiling {upper[j]} is tighter "
                            f"than the instance implies ({ceiling[j]})")
    if lower is not None:
        for j in range(n):
            if lower[j] > s["lower"][j]:
                problems.append(f"{kind}: room {j} floor {lower[j]} is "
                                f"tighter than the instance's {s['lower'][j]}")
    rooms = cert.get("witness_rooms")

    if kind == "budget_cap_violation":
        if rooms is not None and len(rooms) == n:
            if not sum(upper) < total:
                problems.append("budget caps do not exclude the total")
        elif rooms:
            for j in rooms:
                if not s["lower"][j] > upper[j]:
                    problems.append(f"room {j} fits under its cap")
        else:
            problems.append("budget certificate names no rooms")
        return problems

    rents = cert.get("final_rents")
    if lower is None or rents is None or len(rents) != n:
        return problems + ["envy-path certificate without its final state"]
    if sum(rents, Fraction(0)) != total:
        problems.append("witness rents break the total")
    if envious_pairs(s, sigma, rents):
        problems.append("witness state is not envy-free")
    succ = envy_successors(s, sigma, rents)
    below = {j for j in range(n) if rents[j] < lower[j]}
    above = {j for j in range(n) if rents[j] > upper[j]}
    at_lower = {j for j in range(n) if rents[j] == lower[j]}
    at_upper = {j for j in range(n) if rents[j] == upper[j]}
    path = cert.get("witness_path")
    if path:
        for a, b in zip(path, path[1:]):
            if b not in succ[a]:
                problems.append(f"path edge {a}->{b} is not an envy edge")
        pinned_down = path[0] in (below | at_lower) and path[-1] in above
        pinned_up = path[0] in below and path[-1] in (above | at_upper)
        if not (pinned_down or pinned_up):
            problems.append("path ends are not pinned to opposite bounds")
    else:
        if rooms is None or set(rooms) != set(range(n)):
            problems.append("dead-end witness must name every room")
        pred = [set() for _ in range(n)]
        for x in range(n):
            for y in succ[x]:
                pred[y].add(x)
        every = set(range(n))
        forced_up = (below and not above
                     and _closure(succ, below | at_lower) == every)
        forced_down = (above and not below
                       and _closure(pred, above | at_upper) == every)
        if not (forced_up or forced_down):
            problems.append("dead-end rule does not hold at the witness state")
    return problems


# --------------------------------------------------- answers to one instance

def check_group(s, recs):
    """Properties the four solver objectives must have together on one
    instance; recs maps objective -> record."""
    statuses = {obj: rec["status"] for obj, rec in recs.items()}
    if len(set(statuses.values())) != 1:
        return [f"objectives disagree on status: {statuses}"]
    if statuses["any"] != "solved":
        return []
    problems = []
    srt = {obj: tuple(sorted(rec["utilities"])) for obj, rec in recs.items()}
    spread = {obj: max(u) - min(u) for obj, u in srt.items()}
    for obj, u in srt.items():
        if srt["leximin"] < u:
            problems.append(f"leximin utilities are lexicographically below "
                            f"{obj}'s")
        if spread["minspread"] > spread[obj]:
            problems.append(f"minspread spread {spread['minspread']} above "
                            f"{obj}'s {spread[obj]}")
    if srt["leximin"][0] != recs["maximin"]["value"]:
        problems.append("leximin minimum differs from the maximin value")
    return problems


def lp_optima(s, sigma):
    """Maximin value and minimum spread over the envy-free rents for this
    assignment, by HiGHS in floating point."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = s["n"]
    v = [[float(x) for x in row] for row in s["valuations"]]
    ceiling = _ceiling(s, sigma)
    rent_bounds = [(None if s["lower"][j] == -math.inf else float(s["lower"][j]),
                    None if ceiling[j] == math.inf else float(ceiling[j]))
                   for j in range(n)]
    ef_rows = []
    for i in range(n):
        x = sigma[i]
        for j in range(n):
            if j != x:
                ef_rows.append((((x, 1.0), (j, -1.0)), v[i][x] - v[i][j]))

    def solve(width, extra, cost):
        rows, cols, vals, rhs = [], [], [], []
        for r, (entries, bound) in enumerate(ef_rows + extra):
            for c, x in entries:
                rows.append(r)
                cols.append(c)
                vals.append(x)
            rhs.append(bound)
        a_ub = coo_matrix((vals, (rows, cols)), shape=(len(rhs), width))
        a_eq = np.zeros((1, width))
        a_eq[0, :n] = 1.0
        res = linprog(cost, A_ub=a_ub.tocsr(), b_ub=np.array(rhs),
                      A_eq=a_eq, b_eq=[float(s["total"])],
                      bounds=rent_bounds + [(None, None)] * (width - n),
                      method="highs")
        return res.fun if res.status == 0 else None

    t, top = n, n + 1
    floor_rows = [(((sigma[i], 1.0), (t, 1.0)), v[i][sigma[i]])
                  for i in range(n)]
    maximin = solve(n + 1, floor_rows, [0.0] * n + [-1.0])
    spread = solve(n + 2, floor_rows
                   + [(((sigma[i], -1.0), (top, -1.0)), -v[i][sigma[i]])
                      for i in range(n)],
                   [0.0] * n + [-1.0, 1.0])
    return (None if maximin is None else -maximin), spread


def check_lp(s, recs):
    """Compare the maximin and minspread values with HiGHS optima over the
    answer's assignment."""
    if recs["maximin"]["status"] != "solved":
        return []
    problems = []
    scale = max([1.0] + [abs(float(x)) for row in s["valuations"] for x in row]
                + [abs(float(s["total"])) / s["n"]])
    maximin, spread = lp_optima(s, recs["maximin"]["assignment"])
    for name, lp, exact in (("maximin", maximin, recs["maximin"]["value"]),
                            ("minspread", spread, recs["minspread"]["value"])):
        if lp is None:
            problems.append(f"{name}: HiGHS finds no optimum")
        elif abs(lp - float(exact)) > LP_REL_TOL * scale:
            problems.append(f"{name}: exact {float(exact):.10g} vs HiGHS "
                            f"{lp:.10g}")
    return problems


def check_against_oracle(s, solver, oracle):
    """Statuses and objective values of the solver against the oracle on
    the same instance; both map objective -> record."""
    problems = []
    for obj in ("any", "maximin", "leximin", "minspread"):
        a, b = solver[obj], oracle[obj]
        if a["status"] != b["status"]:
            problems.append(f"{obj}: solver {a['status']} vs oracle "
                            f"{b['status']}")
        elif a["status"] == "solved" and a["value"] != b["value"]:
            problems.append(f"{obj}: solver value {a['value']} vs oracle "
                            f"{b['value']}")
    top = oracle.get("max_total_rent")
    if top is not None and solver["any"]["status"] == "solved":
        if top["status"] != "solved" or top["value"] < s["total"]:
            problems.append("max_total_rent is below the total rent")
    ratio = oracle.get("min_rel_spread")
    spread = solver["minspread"]
    if ratio is not None and spread["status"] == "solved":
        util = spread["utilities"]
        if min(util) > 0:
            if ratio["status"] != "solved":
                problems.append(f"min_rel_spread {ratio['status']} although "
                                f"the minspread answer has positive utilities")
            elif ratio["value"] > max(util) / min(util):
                problems.append("min_rel_spread is above the minspread ratio")
        if ratio["status"] == "unsupported":
            problems += confirm_no_positive_floor(s)
    return problems


def confirm_no_positive_floor(s):
    """An unsupported min_rel_spread claims that no welfare-maximizing
    assignment admits envy-free rents with every utility positive."""
    best = max_welfare(s)
    for perm in itertools.permutations(range(s["n"])):
        if welfare(s, perm) == best:
            maximin, _ = lp_optima(s, perm)
            if maximin is not None and maximin > LP_REL_TOL:
                return [f"min_rel_spread refused, but assignment {perm} "
                        f"reaches a positive floor {maximin:.6g}"]
    return []
