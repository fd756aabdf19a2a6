"""Seeded inputs and entry points for the four benchmark workloads.

Each workload turns a seed into a pool of instances and answers one
(instance, objective) pair through its own entry point. Instances are kept as
plain "specs" (lists of Fractions, with math.inf for absent bounds) so that
the checker never needs rentdiv's own types; `to_instance` builds the
program's Instance from a spec.

A round is the unit of work the timed loop repeats: one instance under every
objective of the workload (plus, for `corpus`, the fixed forged-certificate
verifications). Every run attempts whole rounds only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

SOLVER_OBJECTIVES = ("any", "maximin", "leximin", "minspread")
ORACLE_OBJECTIVES = SOLVER_OBJECTIVES + ("max_total_rent", "min_rel_spread")

INF = math.inf
UNSUPPORTED = "unsupported"

# Instance sizes are fixed per workload (the seed only picks the contents),
# so that per-run medians compare like with like across seeds.
SPLIDDIT_N = 24
DENSE_N = 36
CORPUS_SIZES = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 3, 4)
ORACLE_N = 3
# Oracle instances, in pool order, as (welfare-maximizing assignments, how
# many of them admit envy-free rents within the bounds and budgets): ties,
# but not so many that one instance outweighs the rest of the run, in about
# the proportions random bounds and budgets give (one in sixteen
# infeasible). These two numbers set how many linear programs the oracle
# solves and explain half or more of the several-fold spread of its time per
# instance; so every pool, and every stretch of 16 instances that a run
# reaches, holds the same mix. Over ten seeds this narrowed the interquartile
# range of the oracle's answer_ms_p50 from 13% to 7% of its median, and of
# answers_per_s from 9% to 5%.
ORACLE_SLOTS = ((2, 2), (3, 3), (4, 4), (2, 1), (2, 2), (3, 2), (4, 3), (2, 0),
                (2, 2), (3, 3), (4, 4), (2, 2), (2, 1), (3, 1), (4, 2),
                (2, 2)) * 4


def spec(valuations, total, lower=None, upper=None, budgets=None):
    n = len(valuations)
    return {
        "n": n,
        "valuations": [[Fraction(v) for v in row] for row in valuations],
        "total": Fraction(total),
        "lower": list(lower) if lower else [-INF] * n,
        "upper": list(upper) if upper else [INF] * n,
        "budgets": ([list(row) for row in budgets] if budgets
                    else [[INF] * n for _ in range(n)]),
    }


def to_instance(rentdiv, s):
    """The program's Instance for a spec. Built field by field rather than
    through make_instance, so that specs whose bound sums exclude the total
    reach the solver, which has to answer them with a certificate."""
    def bound(x):
        return x if isinstance(x, float) else Fraction(x)
    n = s["n"]
    return rentdiv.Instance(
        n=n,
        valuations=tuple(tuple(row) for row in s["valuations"]),
        total_rent=s["total"],
        lower_bounds=tuple(bound(x) for x in s["lower"]),
        upper_bounds=tuple(bound(x) for x in s["upper"]),
        budgets=tuple(tuple(bound(x) for x in row) for row in s["budgets"]),
    )


# --------------------------------------------------------------- generators

def spliddit_spec(rng, n=SPLIDDIT_N):
    """A Spliddit-style flat: every agent splits the total rent (in cents)
    over the rooms; rooms share a common quality plus per-agent taste noise.
    Rent bounds and a per-agent budget are set around the fair share."""
    share = rng.randint(500, 1500) * 100
    total = share * n
    quality = [rng.gauss(0, 0.15) for _ in range(n)]
    vals = []
    for _ in range(n):
        weights = [max(0.05, 1 + quality[j] + rng.gauss(0, 0.1))
                   for j in range(n)]
        scale = sum(weights)
        row = [int(total * w / scale) for w in weights]
        row[rng.randrange(n)] += total - sum(row)
        vals.append(row)
    lower = [Fraction(share * 3, 10)] * n
    upper = [Fraction(share * 5, 2)] * n
    budgets = []
    for _ in range(n):
        cap = Fraction(share * rng.randint(160, 250), 100)
        budgets.append([cap] * n)
    return spec(vals, total, lower, upper, budgets)


def dense_spec(rng, n=DENSE_N):
    """Independent uniform valuations in quarters, wide rent bounds and
    finite budgets around a share of 100 (the scale-smoke style)."""
    vals = [[Fraction(rng.randint(0, 400), 4) for _ in range(n)]
            for _ in range(n)]
    share = 100
    lower = [Fraction(share - rng.randint(50, 150)) for _ in range(n)]
    upper = [Fraction(share + rng.randint(100, 300)) for _ in range(n)]
    budgets = [[Fraction(share + rng.randint(200, 500)) for _ in range(n)]
               for _ in range(n)]
    return spec(vals, share * n, lower, upper, budgets)


def _quarter(rng, lo, hi):
    den = rng.choice([1, 1, 2, 4])
    return Fraction(rng.randint(lo * den, hi * den), den)


def _corpus_feasible_leaning(rng, n):
    vals = [[_quarter(rng, 0, 100) for _ in range(n)] for _ in range(n)]
    total = _quarter(rng, 0, 60 * n)
    style = rng.choice(["plain", "plain", "bounds", "budgets", "both"])
    lower = upper = budgets = None
    if style in ("bounds", "both"):
        share = total / n
        lower = [share - _quarter(rng, 1, 120) for _ in range(n)]
        upper = [share + _quarter(rng, 1, 120) for _ in range(n)]
    if style in ("budgets", "both"):
        floor = total / n + 100
        budgets = [[floor + _quarter(rng, 0, 80) for _ in range(n)]
                   for _ in range(n)]
    return spec(vals, total, lower, upper, budgets)


def _corpus_bound_sum(rng, n):
    """Upper bounds summing below the total: a bound-sum certificate."""
    vals = [[_quarter(rng, 0, 100) for _ in range(n)] for _ in range(n)]
    total = Fraction(rng.randint(n, 60 * n))
    upper = [total / n - 1 - _quarter(rng, 0, 3) for _ in range(n)]
    return spec(vals, total, upper=upper)


def _corpus_budget(rng, n):
    """Every budget below the average rent: a budget-cap certificate."""
    vals = [[_quarter(rng, 0, 100) for _ in range(n)] for _ in range(n)]
    total = Fraction(rng.randint(n, 60 * n))
    cap = total / n - 1
    budgets = [[cap - _quarter(rng, 0, 3) for _ in range(n)] for _ in range(n)]
    return spec(vals, total, budgets=budgets)


def _corpus_envy_gap(rng, n):
    """Two rooms pinned further apart than any valuation gap: an envy-path
    certificate."""
    vals = [[_quarter(rng, 0, 100) for _ in range(n)] for _ in range(n)]
    p0 = Fraction(-60) - _quarter(rng, 0, 10)
    p1 = p0 + 101 + _quarter(rng, 0, 10)
    lower = [Fraction(-500)] * n
    upper = [Fraction(500)] * n
    lower[0] = upper[0] = p0
    lower[1] = upper[1] = p1
    total = p0 + p1 if n == 2 else _quarter(rng, 0, 30 * n)
    return spec(vals, total, lower, upper)


CORPUS_FORCED = (_corpus_bound_sum, _corpus_budget, _corpus_envy_gap)

# The forged-certificate verifications run on these three instances, one per
# certificate kind. They do not depend on the seed, so every run fails the
# same share of its operations.
FIXED_INFEASIBLE_SEED = 20260815
# The warm-up answer of every run is on an instance drawn from this seed, not
# from --seed, so that the set-up time does not depend on --seed.
WARMUP_SEED = 0


def fixed_infeasible_specs():
    rng = random.Random(FIXED_INFEASIBLE_SEED)
    return [make(rng, 4) for make in CORPUS_FORCED]


def corpus_specs(rng):
    """The tests' corpus mix at n = 2..6: every fourth instance is built to
    be infeasible, cycling through the three certificate kinds."""
    out = []
    for k, n in enumerate(CORPUS_SIZES):
        if k % 4 == 3:
            out.append(CORPUS_FORCED[(k // 4) % 3](rng, n))
        else:
            out.append(_corpus_feasible_leaning(rng, n))
    return out


def optimal_assignments(vals):
    n = len(vals)
    welfare = [sum(vals[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n))]
    return welfare.count(max(welfare))


def oracle_spec(rng, optima, feasible, n=ORACLE_N):
    """Tie-heavy: integer valuations 0..3, a small total, tight rent bounds
    and budgets around the share, all redrawn until exactly `optima`
    assignments maximize welfare and `feasible` of them admit envy-free
    rents."""
    while True:
        vals = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if optimal_assignments(vals) != optima:
            continue
        total = rng.randint(0, n)
        share = Fraction(total, n)
        lower = [share - rng.randint(1, 3) for _ in range(n)]
        upper = [share + rng.randint(1, 3) for _ in range(n)]
        budgets = [[share + rng.randint(0, 4) for _ in range(n)]
                   for _ in range(n)]
        s = spec(vals, total, lower, upper, budgets)
        if feasible_optima(s) == feasible:
            return s


def feasible_optima(s):
    """How many welfare-maximizing assignments admit envy-free rents within
    the bounds and budgets, decided apart from the program. (Envy-free rents
    go with welfare-maximizing assignments only.)"""
    n, v = s["n"], s["valuations"]
    perms = list(itertools.permutations(range(n)))
    welfare = [sum(v[i][p[i]] for i in range(n)) for p in perms]
    best = max(welfare)
    return sum(_rents_exist(s, p) for p, w in zip(perms, welfare) if w == best)


def _rents_exist(s, sigma):
    """For one assignment the constraints are differences of two rents and
    bounds on single rents: their least and greatest solutions, if any,
    bound the sum of every solution."""
    n, v = s["n"], s["valuations"]
    # Agent i does not envy room j: rent[sigma[i]] - rent[j] <= gap.
    edges = [(sigma[i], j, v[i][sigma[i]] - v[i][j])
             for i in range(n) for j in range(n) if j != sigma[i]]
    lo = list(s["lower"])
    hi = list(s["upper"])
    for i in range(n):
        hi[sigma[i]] = min(hi[sigma[i]], s["budgets"][i][sigma[i]])
    for _ in range(n + 1):
        changed = False
        for a, b, gap in edges:
            if hi[b] + gap < hi[a]:
                hi[a], changed = hi[b] + gap, True
            if lo[a] - gap > lo[b]:
                lo[b], changed = lo[a] - gap, True
        if not changed:
            break
    else:
        return False  # a cycle of gaps below zero
    if any(a > b for a, b in zip(lo, hi)):
        return False
    return sum(lo) <= s["total"] <= sum(hi)


# ------------------------------------------------------------- answer records
#
# Every entry point returns a plain record:
#   {"status", "objective", "assignment": room_of_agent tuple | None,
#    "rents", "utilities": tuples of Fraction | None,
#    "value": Fraction | tuple | inf | None, "certificate": dict | None}


def record_from_outcome(out):
    cert = None
    if out.certificate is not None:
        c = out.certificate
        cert = {
            "kind": c.kind,
            "witness_path": c.witness_path,
            "witness_rooms": c.witness_rooms,
            "assignment": (None if c.assignment is None
                           else tuple(c.assignment.room_of_agent)),
            "final_rents": c.final_rents,
            "effective_lower": c.effective_lower,
            "effective_upper": c.effective_upper,
        }
    alloc = out.allocation
    return {
        "status": out.status,
        "objective": out.objective,
        "assignment": None if alloc is None else tuple(alloc.assignment.room_of_agent),
        "rents": None if alloc is None else tuple(alloc.rents),
        "utilities": None if out.utilities is None else tuple(out.utilities),
        "value": out.objective_value,
        "certificate": cert,
    }


def _parse_exact(text):
    text = text.strip()
    if text in ("inf", "+inf"):
        return INF
    if text == "-inf":
        return -INF
    return Fraction(text)


def record_from_json(doc, n):
    """Read a CLI result document back into a record (names are the indices
    a0.. / r0.. written by `spec_to_json`)."""
    def index(name):
        return int(name[1:])

    def money(entry):
        return _parse_exact(entry["exact"])

    def by_index(mapping, convert):
        if mapping is None:
            return None
        out = [None] * n
        for name, x in mapping.items():
            out[index(name)] = convert(x)
        return tuple(out)

    def names(seq):
        return None if seq is None else tuple(index(x) for x in seq)

    value = doc.get("value")
    if isinstance(value, list):
        value = tuple(money(v) for v in value)
    elif value is not None:
        value = money(value)
    rec = {"status": doc["status"], "objective": doc["objective"],
           "assignment": by_index(doc.get("assignment"), index),
           "rents": by_index(doc.get("rents"), money),
           "utilities": by_index(doc.get("utilities"), money),
           "value": value, "certificate": None}
    c = doc.get("certificate")
    if c is not None:
        rec["certificate"] = {
            "kind": c.get("kind"),
            "witness_path": names(c.get("witness_path")),
            "witness_rooms": names(c.get("witness_rooms")),
            "assignment": by_index(c.get("assignment"), index),
            "final_rents": by_index(c.get("final_rents"), money),
        }
        for key in ("effective_lower", "effective_upper"):
            rec["certificate"][key] = (
                None if c.get(key) is None
                else tuple(_parse_exact(x) for x in c[key]))
    return rec


def _text(x):
    if isinstance(x, float):
        return "inf" if x > 0 else "-inf"
    return str(x)


def spec_to_json(s):
    n = s["n"]
    return {
        "agents": [f"a{i}" for i in range(n)],
        "rooms": [f"r{j}" for j in range(n)],
        "valuations": [[str(v) for v in row] for row in s["valuations"]],
        "total_rent": str(s["total"]),
        "lower_bounds": [_text(x) for x in s["lower"]],
        "upper_bounds": [_text(x) for x in s["upper"]],
        "budgets": [[_text(x) for x in row] for row in s["budgets"]],
    }


# ------------------------------------------------------------------ workloads

@dataclass
class Item:
    """One instance of a workload's pool, with everything its entry point
    needs prepared in set-up."""

    key: str
    spec: dict
    instance: object
    path: str = ""
    forge: bool = False


class PoolWorkload:
    """`spliddit` and `dense`: combined_solve on every solver objective.
    A round is one instance of a seeded pool, taken in turn."""

    def __init__(self, name, make, pool, objectives=SOLVER_OBJECTIVES):
        self.name = name
        self.objectives = objectives
        self._make = make
        self._pool = pool

    def specs(self, rng, count=None):
        return [self._make(rng) for _ in range(count or self._pool)]

    def setup(self, rentdiv, seed, workdir):
        self.rentdiv = rentdiv
        specs = self.specs(random.Random(seed))
        self.items = [Item(f"{self.name}{k}", s, to_instance(rentdiv, s))
                      for k, s in enumerate(specs)]
        warmup = self.specs(random.Random(WARMUP_SEED), 1)[0]
        self.warmup = Item(f"{self.name}-warmup", warmup,
                           to_instance(rentdiv, warmup))

    def round_items(self, r):
        return [self.items[r % len(self.items)]]

    def answer(self, item, objective):
        return record_from_outcome(
            self.rentdiv.budgets.combined_solve(item.instance, objective))


class OracleWorkload(PoolWorkload):
    """`oracle`: oracle_solve on all six oracle objectives, over one instance
    for each entry of ORACLE_SLOTS."""

    def __init__(self):
        super().__init__("oracle", oracle_spec, len(ORACLE_SLOTS),
                         ORACLE_OBJECTIVES)

    def specs(self, rng, count=None):
        return [oracle_spec(rng, *slot)
                for slot in ORACLE_SLOTS[:count or len(ORACLE_SLOTS)]]

    def answer(self, item, objective):
        try:
            out = self.rentdiv.oracle.oracle_solve(item.instance, objective)
        except self.rentdiv.oracle.UnsupportedObjectiveError:
            return {"status": UNSUPPORTED, "objective": objective,
                    "assignment": None, "rents": None, "utilities": None,
                    "value": None, "certificate": None}
        return record_from_outcome(out)


class CorpusWorkload:
    """`corpus`: the in-process CLI round trip (parse, solve, emit, verify)
    on small instances, a quarter of them infeasible. Every round also
    verifies, for each infeasible answer on the three fixed instances, a copy
    whose certificate has been emptied; `verify` must reject it."""

    name = "corpus"
    objectives = SOLVER_OBJECTIVES

    def setup(self, rentdiv, seed, workdir):
        self.rentdiv = rentdiv
        rng = random.Random(seed)
        specs = [(f"corpus{k}", s) for k, s in enumerate(corpus_specs(rng))]
        specs += [(f"fixed{k}", s)
                  for k, s in enumerate(fixed_infeasible_specs())]
        self.items = [self._item(key, s, workdir) for key, s in specs]
        self.warmup = self._item("corpus-warmup", _corpus_feasible_leaning(
            random.Random(WARMUP_SEED), 4), workdir)
        self.result_path = os.path.join(workdir, "result.json")
        self.forged_path = os.path.join(workdir, "forged.json")

    def _item(self, key, s, workdir):
        path = os.path.join(workdir, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec_to_json(s), fh)
        return Item(key, s, to_instance(self.rentdiv, s), path,
                    forge=key.startswith("fixed"))

    def round_items(self, r):
        return self.items

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rentdiv.cli.main(argv)
        return code, buf.getvalue()

    def answer(self, item, objective):
        code, text = self._main(["solve", item.path, "--objective", objective])
        with open(self.result_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        vcode, _ = self._main(["verify", item.path, self.result_path])
        doc = json.loads(text)
        rec = record_from_json(doc, item.spec["n"])
        rec["cli"] = {"solve_exit": code, "verify_exit": vcode, "text": text}
        return rec

    def forged_verify(self, item, answer_text):
        """Verify a copy of an answer with its certificate emptied. Returns
        True when verify wrongly accepts it."""
        doc = json.loads(answer_text)
        doc["certificate"] = {}
        with open(self.forged_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        vcode, _ = self._main(["verify", item.path, self.forged_path])
        return vcode == 0


def make_workload(name):
    if name == "spliddit":
        return PoolWorkload("spliddit", spliddit_spec, 48)
    if name == "dense":
        return PoolWorkload("dense", dense_spec, 48)
    if name == "corpus":
        return CorpusWorkload()
    if name == "oracle":
        return OracleWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("spliddit", "dense", "corpus", "oracle")
