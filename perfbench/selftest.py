"""Self-test of the answer checker: each check must be able to fail.

Feeds the checker a correct answer (which must pass) and broken ones: an
envious allocation, a wrong total, forged certificates of every kind, an
objective set that breaks the cross-objective properties, and a maximin value
the LP disagrees with. Each broken answer must be rejected.

Run alone with `python3 perfbench/selftest.py`; run.py also runs it on every
benchmark run, untimed.
"""

from __future__ import annotations

import copy
import math
import sys
from fractions import Fraction as F

import checker
from workloads import spec

# Two agents, two rooms: agent 0 likes room 0 (10 vs 2), agent 1 room 1
# (4 vs 6), total 8. Rents (6, 2) give utilities (4, 4) and are envy-free.
TWO = spec([[10, 2], [4, 6]], 8, upper=[F(7), F(6)])


def _solved(objective, rents, value):
    rents = tuple(F(r) for r in rents)
    return {"status": "solved", "objective": objective, "assignment": (0, 1),
            "rents": rents, "utilities": checker.utilities(TWO, (0, 1), rents),
            "value": value, "certificate": None}


def _group():
    return {"any": _solved("any", (6, 2), None),
            "maximin": _solved("maximin", (6, 2), F(4)),
            "leximin": _solved("leximin", (6, 2), (F(4), F(4))),
            "minspread": _solved("minspread", (6, 2), F(0))}


def cases():
    """(label, problems the checker reports, whether it must report any)."""
    good = _group()
    yield "correct answers pass", sum(
        (checker.check_answer(TWO, rec) for rec in good.values()), []), False
    yield "correct group passes", checker.check_group(TWO, good), False
    yield "correct values agree with HiGHS", checker.check_lp(TWO, good), False

    envious = _solved("any", (F(1), F(7)), None)
    yield "envious allocation", checker.check_answer(TWO, envious), True
    wrong_total = _solved("any", (F(6), F(3)), None)
    yield "wrong total", checker.check_answer(TWO, wrong_total), True
    over = _solved("any", (F(8), F(0)), None)
    yield "rent above its upper bound", checker.check_answer(TWO, over), True
    lying = dict(good["maximin"], utilities=(F(5), F(3)))
    yield "misreported utilities", checker.check_answer(TWO, lying), True

    empty = {"status": "infeasible", "objective": "any", "certificate": {}}
    yield "empty certificate", checker.check_answer(TWO, empty), True
    bound_sum = {"kind": "bound_sum_violation", "witness_rooms": (0, 1)}
    yield "forged bound-sum certificate", \
        checker.check_certificate(TWO, bound_sum), True
    caps = {"kind": "budget_cap_violation", "assignment": (0, 1),
            "witness_rooms": (0, 1), "effective_lower": None,
            "effective_upper": (F(3), F(3))}
    yield "forged budget certificate (caps tighter than the instance)", \
        checker.check_certificate(TWO, caps), True
    path = {"kind": "envy_path_violation", "assignment": (0, 1),
            "witness_path": (1, 0), "witness_rooms": None,
            "final_rents": (F(6), F(2)),
            "effective_lower": (-math.inf,) * 2,
            "effective_upper": (F(7), F(6))}
    yield "forged envy-path certificate (edge not in the envy graph)", \
        checker.check_certificate(TWO, path), True
    swapped = {"kind": "envy_path_violation", "assignment": (1, 0),
               "witness_path": (0, 1), "witness_rooms": None,
               "final_rents": (F(6), F(2)),
               "effective_lower": (-math.inf,) * 2,
               "effective_upper": (F(7), F(6))}
    yield "certificate on a welfare-losing assignment", \
        checker.check_certificate(TWO, swapped), True

    bad = copy.deepcopy(good)
    bad["leximin"] = _solved("leximin", (F(7), F(1)), (F(3), F(5)))
    yield "leximin below another objective", checker.check_group(TWO, bad), True
    bad = copy.deepcopy(good)
    bad["maximin"]["status"] = "infeasible"
    yield "objectives disagree on status", checker.check_group(TWO, bad), True
    bad = copy.deepcopy(good)
    bad["minspread"] = _solved("minspread", (F(7), F(1)), F(2))
    yield "minspread not the smallest spread", \
        checker.check_group(TWO, bad), True
    bad = copy.deepcopy(good)
    bad["maximin"]["value"] = F(3)
    yield "maximin value off the LP optimum", checker.check_lp(TWO, bad), True

    oracle = copy.deepcopy(good)
    oracle["maximin"]["value"] = F(5)
    yield "solver and oracle values differ", \
        checker.check_against_oracle(TWO, good, oracle), True


def run_selftest():
    """Return one line per case that did not behave as required."""
    out = []
    for label, problems, must_fail in cases():
        if bool(problems) != must_fail:
            out.append(f"self-test '{label}': "
                       + (f"passed, expected a failure" if must_fail
                          else f"failed: {problems}"))
    return out


if __name__ == "__main__":
    failures = run_selftest()
    for label, problems, must_fail in cases():
        verdict = "rejected" if problems else "accepted"
        print(f"{label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    print("self-test:", "FAIL" if failures else "PASS")
    for line in failures:
        print(line)
    sys.exit(1 if failures else 0)
