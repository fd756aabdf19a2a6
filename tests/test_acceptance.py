"""Six end-to-end acceptance checks over the whole pipeline.

Each test prints exactly one "ACCEPTANCE k (title): PASS|FAIL (details)"
line; pyproject's -rP flag surfaces the line for passing tests too. All
numeric comparisons are exact rational arithmetic — zero tolerance.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from corpus import generate_corpus
from rentdiv import (
    all_max_welfare_assignments,
    build_envy_graph,
    check_certificate,
    check_constraints,
    check_envy_free,
    combined_solve,
    initial_ef_allocation,
    make_instance,
    oracle_solve,
    scc_max_rent,
    scc_partition,
)
from rentdiv.budgets import build_subproblem, has_finite_budgets
from rentdiv.cli import main
from rentdiv.dynamics import TraceLog
from rentdiv.model import INFEASIBLE, SOLVED, Allocation
from rentdiv.oracle import UnsupportedObjectiveError

OBJECTIVES = ("any", "maximin", "leximin", "minspread")

EXAMPLE_DOC = {
    "agents": ["a1", "a2", "a3", "a4"],
    "rooms": ["r1", "r2", "r3", "r4"],
    "valuations": [["20", "0", "20", "0"],
                   ["0", "19", "0", "0"],
                   ["5", "0", "5", "0"],
                   ["0", "0", "0", "2"]],
    "total_rent": "4",
    "lower_bounds": ["0", "0", "0", "2"],
    "upper_bounds": ["2", "2", "2", "2"],
}


def _report(num, title, problems, details):
    verdict = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {num} ({title}): {verdict} ({details})")
    assert not problems, f"acceptance {num}: " + "; ".join(problems[:5])


@pytest.fixture(scope="session")
def corpus_results():
    start = time.perf_counter()
    rows = []
    for name, inst in generate_corpus():
        outcomes, traces = {}, {}
        for objective in OBJECTIVES:
            tr = TraceLog()
            outcomes[objective] = combined_solve(inst, objective, trace=tr)
            traces[objective] = tr
        rows.append((name, inst, outcomes, traces))
    return {"rows": rows, "solve_seconds": time.perf_counter() - start}


def test_acceptance_1_worked_example(tmp_path, capsys):
    problems = []
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_DOC))
    runs = {}
    start = time.perf_counter()
    for objective in ("leximin", "minspread"):
        code = main(["solve", str(path), "--objective", objective])
        out = capsys.readouterr().out
        if code != 0:
            problems.append(f"{objective} exited {code}")
        runs[objective] = json.loads(out)
    elapsed = time.perf_counter() - start

    want = {
        "leximin": (("0", "2", "0", "2"), ("20", "17", "5", "0")),
        "minspread": (("1", "0", "1", "2"), ("19", "19", "4", "0")),
    }
    spreads = {}
    for objective, (want_rents, want_utils) in want.items():
        doc = runs[objective]
        rents = tuple(doc["rents"][x]["exact"] for x in EXAMPLE_DOC["rooms"])
        utils = tuple(doc["utilities"][a]["exact"]
                      for a in EXAMPLE_DOC["agents"])
        if rents != want_rents:
            problems.append(f"{objective} rents {rents} != {want_rents}")
        if utils != want_utils:
            problems.append(f"{objective} utilities {utils} != {want_utils}")
        exact = [Fraction(u) for u in utils]
        spreads[objective] = max(exact) - min(exact)
    if not spreads["leximin"] > spreads["minspread"]:
        problems.append(f"leximin spread {spreads['leximin']} not above "
                        f"minspread spread {spreads['minspread']}")
    if (spreads["leximin"], spreads["minspread"]) != (20, 19):
        problems.append(f"spreads {spreads} != (20, 19)")
    if elapsed >= 0.1:
        problems.append(f"runtime {elapsed:.3f}s, limit 0.1s")
    _report(1, "worked example via CLI", problems,
            "leximin r=(0,2,0,2) spread 20 vs minspread r=(1,0,1,2) "
            f"spread 19, {elapsed * 1000:.0f} ms")


def test_acceptance_2_oracle_equivalence(corpus_results):
    problems = []
    rows = corpus_results["rows"]
    start = time.perf_counter()
    infeasible = scc_checked = rel_checked = 0
    for name, inst, outcomes, _ in rows:
        reference = oracle_solve(inst, "any")
        statuses = {outcomes[objective].status for objective in OBJECTIVES}
        if statuses != {reference.status}:
            problems.append(f"{name}: statuses {sorted(statuses)} vs oracle "
                            f"{reference.status}")
            continue
        if reference.status == INFEASIBLE:
            infeasible += 1
            continue
        for objective in ("maximin", "leximin", "minspread"):
            got = outcomes[objective].objective_value
            want = oracle_solve(inst, objective).objective_value
            if got != want:
                problems.append(f"{name}: {objective} value {got} != {want}")
        if has_finite_budgets(inst):
            base = initial_ef_allocation(inst)
            for rooms in scc_partition(build_envy_graph(inst, base)):
                sub = build_subproblem(inst, base, rooms)
                capacity, _ = scc_max_rent(sub)
                best = oracle_solve(sub.instance, "max_total_rent")
                if capacity != best.objective_value:
                    problems.append(f"{name}: component {tuple(rooms)} "
                                    f"capacity {capacity} != "
                                    f"{best.objective_value}")
                scc_checked += 1
        spread_out = outcomes["minspread"]
        if min(spread_out.utilities) > 0:
            try:
                ratio_ref = oracle_solve(inst, "min_rel_spread")
            except UnsupportedObjectiveError:
                ratio_ref = None
            if ratio_ref is not None and ratio_ref.status == SOLVED:
                ratio = max(spread_out.utilities) / min(spread_out.utilities)
                if ratio != ratio_ref.objective_value:
                    problems.append(f"{name}: relative spread {ratio} != "
                                    f"{ratio_ref.objective_value}")
                rel_checked += 1

    seconds = corpus_results["solve_seconds"] + (time.perf_counter() - start)
    fraction = infeasible / len(rows)
    if len(rows) < 1000:
        problems.append(f"only {len(rows)} instances")
    if not 0.15 <= fraction <= 0.35:
        problems.append(f"infeasible fraction {fraction:.3f} far from 25%")
    if scc_checked < 100:
        problems.append(f"only {scc_checked} component-capacity comparisons")
    if rel_checked < 50:
        problems.append(f"only {rel_checked} relative-spread comparisons")
    if seconds >= 300:
        problems.append(f"runtime {seconds:.0f}s, limit 300s")
    _report(2, "oracle equivalence", problems,
            f"{len(rows)} instances, {infeasible} infeasible "
            f"({fraction:.1%}), {scc_checked} component capacities, "
            f"{rel_checked} relative spreads, {seconds:.0f}s")


def test_acceptance_3_event_invariants(corpus_results):
    problems = []
    events = ef_checks = freeze_checks = 0
    for name, inst, _, traces in corpus_results["rows"]:
        n = inst.n
        for objective, tr in traces.items():
            frozen = {}
            prev = None
            for ev in tr.events:
                events += 1
                tag = f"{name}/{objective}/{ev['phase']}"
                rents = ev["rents"]
                if rents is None or sum(rents, Fraction(0)) != inst.total_rent:
                    problems.append(f"{tag}: event total != instance total")
                    continue
                alloc = Allocation(assignment=ev["assignment"],
                                   rents=tuple(rents))
                if check_envy_free(inst, alloc):
                    problems.append(f"{tag}: envy after event")
                ef_checks += 1
                lower, upper = ev["lower"], ev["upper"]
                if ev["phase"] == "bounds":
                    # mid-repair rents may sit outside the target box, but
                    # each move may only approach it, never overshoot
                    key = (ev["assignment"].room_of_agent,
                           tuple(lower), tuple(upper))
                    if prev is not None and prev[0] == key:
                        before = prev[1]
                        for j in range(n):
                            lo, hi, b, a = lower[j], upper[j], before[j], rents[j]
                            ok = ((b < lo and b <= a <= lo)
                                  or (b > hi and hi <= a <= b)
                                  or (lo <= b <= hi and lo <= a <= hi))
                            if not ok:
                                problems.append(f"{tag}: room {j} repair "
                                                f"overshoot {b}->{a}")
                    prev = (key, rents)
                    continue
                prev = None
                for j in range(n):
                    if not lower[j] <= rents[j] <= upper[j]:
                        problems.append(f"{tag}: room {j} out of bounds")
                if ev["phase"] == "leximin":
                    for kind in ev["kinds"]:
                        if kind[0] == "freeze":
                            for j in kind[1]:
                                frozen[j] = rents[j]
                    for j, pinned in frozen.items():
                        if rents[j] != pinned:
                            problems.append(f"{tag}: frozen room {j} moved")
                        freeze_checks += 1
            counters = tr.counters
            for key, cap in (("alg1_iterations", n * n),
                             ("alg5_case1_raises", n * n),
                             ("alg5_case2_streak", n)):
                if counters.get(key, 0) > cap:
                    problems.append(f"{name}/{objective}: {key}="
                                    f"{counters[key]} above cap {cap}")
    _report(3, "per-event invariants", problems,
            f"{events} events: conservation everywhere, EF+bounds on "
            f"{ef_checks}, {freeze_checks} freeze pins, iteration caps hold")


def test_acceptance_4_scc_partition_invariance():
    problems = []
    rng = random.Random(240815)
    tie_cases = distinct = 0
    for case in range(200):
        n = rng.randint(2, 6)
        vals = [[Fraction(rng.randint(0, 6)) for _ in range(n)]
                for _ in range(n)]
        total_a = Fraction(rng.randint(-20, 40))
        total_b = total_a + rng.randint(1, 25)
        inst_a = make_instance(vals, total_a)
        inst_b = make_instance(vals, total_b)
        first = initial_ef_allocation(inst_a)
        optima = all_max_welfare_assignments(inst_a.valuations)
        if len(optima) > 1:
            tie_cases += 1
        # the seeds for two totals differ by a uniform shift only, so the
        # second point is inst_b's maximin optimum, read under another optimum
        rents_b = combined_solve(inst_b, "maximin").allocation.rents
        second = Allocation(assignment=optima[-1], rents=rents_b)
        if len({b - a for a, b in zip(first.rents, rents_b)}) > 1:
            distinct += 1
        parts_a = set(scc_partition(build_envy_graph(inst_a, first)))
        parts_b = set(scc_partition(build_envy_graph(inst_b, second)))
        if parts_a != parts_b:
            problems.append(
                f"case {case}: {sorted(map(sorted, parts_a))} != "
                f"{sorted(map(sorted, parts_b))}")
    if distinct == 0:
        problems.append("every second point is a shift of the first")
    _report(4, "component partition invariance", problems,
            f"200 instances, two allocations each (different totals, "
            f"{tie_cases} with tie-broken matchings, {distinct} not a "
            f"uniform shift), partitions equal")


def test_acceptance_5_certificates(corpus_results):
    problems = []
    kinds = {}
    confirmed = 0
    for name, inst, outcomes, _ in corpus_results["rows"]:
        for objective in OBJECTIVES:
            out = outcomes[objective]
            if out.status != INFEASIBLE:
                continue
            if objective == "any":
                kinds[out.certificate.kind] = \
                    kinds.get(out.certificate.kind, 0) + 1
            problems += [f"{name}/{objective}: {p}" for p in
                         check_certificate(inst, out.certificate)]
        if outcomes["any"].status == INFEASIBLE:
            if oracle_solve(inst, "any").status != INFEASIBLE:
                problems.append(f"{name}: oracle finds a feasible point")
            else:
                confirmed += 1
    if set(kinds) != {"bound_sum_violation", "budget_cap_violation",
                      "envy_path_violation"}:
        problems.append(f"kinds seen {sorted(kinds)} miss some certificate "
                        f"form")
    _report(5, "infeasibility certificates", problems,
            f"{confirmed} infeasible instances: witnesses validate "
            f"({', '.join(f'{k} x{v}' for k, v in sorted(kinds.items()))}), "
            f"oracle confirms each")


def test_acceptance_6_scale_smoke():
    problems = []
    rng = random.Random(50)
    n = 50
    vals = [[Fraction(rng.randint(0, 400), 4) for _ in range(n)]
            for _ in range(n)]
    total = Fraction(5000)
    share = total / n
    lower = [share - rng.randint(50, 150) for _ in range(n)]
    upper = [share + rng.randint(100, 300) for _ in range(n)]
    budgets = [[share + rng.randint(200, 500) for _ in range(n)]
               for _ in range(n)]
    inst = make_instance(vals, total, lower_bounds=lower, upper_bounds=upper,
                         budgets=budgets)
    worst = 0.0
    for objective in OBJECTIVES:
        start = time.perf_counter()
        out = combined_solve(inst, objective)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if out.status != SOLVED:
            problems.append(f"{objective}: unexpectedly infeasible")
            continue
        if check_envy_free(inst, out.allocation):
            problems.append(f"{objective}: solution admits envy")
        if not check_constraints(inst, out.allocation).all_ok:
            problems.append(f"{objective}: solution violates constraints")
        if elapsed >= 1.0:
            problems.append(f"{objective}: {elapsed:.2f}s, limit 1s")
    _report(6, "n=50 scale smoke", problems,
            f"dense bounds+budgets, every objective solved and verified, "
            f"slowest {worst * 1000:.0f} ms")
