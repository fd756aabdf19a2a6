"""Command-line front end: exact JSON in, exact JSON out.

Instance files are JSON objects {"agents", "rooms", "valuations",
"total_rent", "lower_bounds"?, "upper_bounds"?, "budgets"?} where every
number is an int, a decimal string ("2.5"), or a ratio string ("1/3");
bounds and budgets also accept "inf"/"-inf". Binary floats never appear:
JSON decimals are intercepted as strings and parsed by place value.

Result files mirror SolveOutcome: {"status", "objective", "assignment",
"rents", "utilities", "value", "certificate"?, "trace"?,
"trace_counters"?}. Every money field is {"exact": "p/q", "decimal": <20
significant digits>}; keys are sorted and formatting is fixed, so identical
inputs give byte-identical output.

Exit codes: 0 solved, 1 usage/parse error, 2 infeasible, 3 verification
failure. Set RENTDIV_LOG=debug|info|warning for stderr logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import check_certificate
from .budgets import combined_solve
from .dynamics import BOUND_HIT, MERGE, NEW_WEAK_EDGE, TraceLog, UNBOUNDED
from .matching import SizeError, max_welfare_assignment
from .model import (
    INFEASIBLE,
    NEG_INF,
    OBJECTIVES,
    ORACLE_OBJECTIVES,
    POS_INF,
    SOLVED,
    Allocation,
    Assignment,
    BoundSumError,
    InfeasibilityCertificate,
    Instance,
    SolveOutcome,
    check_constraints,
    check_envy_free,
    decimal_str,
    format_rat,
    make_instance,
    rat,
    utilities,
)
from .oracle import UnsupportedObjectiveError, oracle_solve

log = logging.getLogger("rentdiv")

EXIT_SOLVED = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

_INSTANCE_KEYS = frozenset(("agents", "rooms", "valuations", "total_rent",
                            "lower_bounds", "upper_bounds", "budgets"))


class InputError(ValueError):
    """Anything wrong with an input file: unreadable, bad JSON, bad schema."""


@dataclass(frozen=True)
class NamedInstance:
    """A validated instance plus its display names, index-aligned."""

    instance: Instance
    agents: tuple
    rooms: tuple


def _reject_constant(text):
    raise ValueError(f"non-finite JSON number {text!r} is not allowed")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # parse_float=str keeps "2.5" exact for the rational parser.
            return json.load(fh, parse_float=str,
                             parse_constant=_reject_constant)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror or err}") from err
    except ValueError as err:
        raise InputError(f"{path}: {err}") from err


def parse_instance(doc, path="<instance>") -> NamedInstance:
    """Validate the InstanceFile schema and build the exact Instance.

    Raises InputError for malformed files. A well-formed file whose bound
    sums already exclude the total rent raises BoundSumError instead: that
    is an infeasibility with a certificate, not a usage error.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(doc) - _INSTANCE_KEYS)
    if unknown:
        raise InputError(f"{path}: unknown fields {unknown}")
    for key in ("agents", "rooms", "valuations", "total_rent"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    for label in ("agents", "rooms"):
        names = doc[label]
        if (not isinstance(names, list) or not names
                or not all(isinstance(s, str) for s in names)):
            raise InputError(f"{path}: {label} must be a list of names")
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate names in {label}")
    if len(doc["agents"]) != len(doc["rooms"]):
        raise InputError(f"{path}: need exactly one room per agent")
    try:
        inst = make_instance(doc["valuations"], doc["total_rent"],
                             doc.get("lower_bounds"), doc.get("upper_bounds"),
                             doc.get("budgets"))
    except BoundSumError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise InputError(f"{path}: {err}") from err
    if inst.n != len(doc["agents"]):
        raise InputError(f"{path}: valuations are {inst.n}x{inst.n} but "
                         f"{len(doc['agents'])} agents are named")
    return NamedInstance(instance=inst, agents=tuple(doc["agents"]),
                         rooms=tuple(doc["rooms"]))


def _money(x) -> dict:
    return {"exact": format_rat(x), "decimal": decimal_str(x)}


def _value_field(value):
    if value is None:
        return None
    if isinstance(value, tuple):
        return [_money(v) for v in value]
    return _money(value)


def _assignment_names(assignment: Assignment, agents, rooms) -> dict:
    return {agents[i]: rooms[assignment.room(i)] for i in range(len(agents))}


def certificate_to_json(cert, agents, rooms) -> dict:
    return {
        "kind": cert.kind,
        "explanation": cert.explanation,
        "witness_path": (None if cert.witness_path is None
                         else [rooms[j] for j in cert.witness_path]),
        "witness_rooms": (None if cert.witness_rooms is None
                          else [rooms[j] for j in sorted(cert.witness_rooms)]),
        "assignment": (None if cert.assignment is None
                       else _assignment_names(cert.assignment, agents, rooms)),
        "final_rents": (None if cert.final_rents is None
                        else {rooms[j]: _money(r)
                              for j, r in enumerate(cert.final_rents)}),
        "effective_lower": (None if cert.effective_lower is None
                            else [format_rat(b) for b in cert.effective_lower]),
        "effective_upper": (None if cert.effective_upper is None
                            else [format_rat(b) for b in cert.effective_upper]),
    }


def _kind_to_json(kind, agents, rooms):
    name = kind[0]
    if name == NEW_WEAK_EDGE:
        return [name, agents[kind[1]], rooms[kind[2]]]
    if name == BOUND_HIT:
        return [name, rooms[kind[1]], kind[2]]
    if name == MERGE:
        return [name, rooms[kind[1]], rooms[kind[2]]]
    if name == "freeze":
        return [name, [rooms[j] for j in kind[1]]]
    assert name == UNBOUNDED
    return [name]


def _by_room(values, rooms):
    if values is None:
        return None
    return {rooms[j]: _money(v) for j, v in enumerate(values)}


def trace_to_json(trace: TraceLog, agents, rooms) -> list:
    """Every recorded event with the state after it: rents and the rent
    bounds in force (null where the stage watches none) per room, and the
    assignment, so that EF, the total and the bounds can be rechecked from
    the output alone."""
    return [{"phase": ev["phase"],
             "time": None if ev["time"] is None else format_rat(ev["time"]),
             "kinds": [_kind_to_json(k, agents, rooms) for k in ev["kinds"]],
             "sizes": ev["sizes"],
             "rents": _by_room(ev["rents"], rooms),
             "assignment": (None if ev["assignment"] is None
                            else _assignment_names(ev["assignment"], agents,
                                                   rooms)),
             "lower": _by_room(ev["lower"], rooms),
             "upper": _by_room(ev["upper"], rooms)}
            for ev in trace.events]


def outcome_to_json(outcome, agents, rooms, trace=None) -> dict:
    doc = {
        "status": outcome.status,
        "objective": outcome.objective,
        "assignment": None,
        "rents": None,
        "utilities": None,
        "value": None,
    }
    if outcome.allocation is not None:
        alloc = outcome.allocation
        doc["assignment"] = _assignment_names(alloc.assignment, agents, rooms)
        doc["rents"] = {rooms[j]: _money(alloc.rents[j])
                        for j in range(len(rooms))}
        doc["utilities"] = {agents[i]: _money(outcome.utilities[i])
                            for i in range(len(agents))}
        doc["value"] = _value_field(outcome.objective_value)
    if outcome.certificate is not None:
        doc["certificate"] = certificate_to_json(outcome.certificate,
                                                 agents, rooms)
    if trace is not None:
        doc["trace"] = trace_to_json(trace, agents, rooms)
        doc["trace_counters"] = dict(sorted(trace.counters.items()))
    return doc


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_bound_sum_infeasible(doc, objective, err) -> int:
    """ResultFile for an instance whose bound sums exclude the total.

    parse_instance validates names before the sums, so doc["agents"] and
    doc["rooms"] are trustworthy here.
    """
    outcome = SolveOutcome(status=INFEASIBLE, objective=objective,
                           certificate=err.certificate)
    _emit(outcome_to_json(outcome, tuple(doc["agents"]), tuple(doc["rooms"])))
    return EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    doc = None
    try:
        doc = load_json(args.input)
        named = parse_instance(doc, args.input)
    except BoundSumError as err:
        return _emit_bound_sum_infeasible(doc, args.objective, err)
    except InputError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    trace = TraceLog() if args.trace else None
    outcome = combined_solve(named.instance, args.objective, trace)
    log.info("solve %s objective=%s -> %s", args.input, args.objective,
             outcome.status)
    _emit(outcome_to_json(outcome, named.agents, named.rooms, trace))
    return EXIT_SOLVED if outcome.status == SOLVED else EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    doc = None
    try:
        doc = load_json(args.input)
        named = parse_instance(doc, args.input)
    except BoundSumError as err:
        return _emit_bound_sum_infeasible(doc, args.objective, err)
    except InputError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = oracle_solve(named.instance, args.objective)
    except (SizeError, UnsupportedObjectiveError) as err:
        print(f"{args.input}: {err}", file=sys.stderr)
        return EXIT_USAGE
    log.info("oracle %s objective=%s -> %s", args.input, args.objective,
             outcome.status)
    _emit(outcome_to_json(outcome, named.agents, named.rooms))
    return EXIT_SOLVED if outcome.status == SOLVED else EXIT_INFEASIBLE


def _parse_money(entry, where):
    """Extract the exact rational from a {"exact", "decimal"} pair."""
    if not isinstance(entry, dict) or "exact" not in entry:
        raise InputError(f"{where} must be an object with an \"exact\" field")
    try:
        return rat(entry["exact"])
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise InputError(f"{where}: {err}") from err


def _parse_assignment(doc, agents, rooms, where):
    """{agent: room} naming every agent and room once, as an Assignment."""
    if (not isinstance(doc, dict) or set(doc) != set(agents)
            or not all(isinstance(room, str) for room in doc.values())
            or sorted(doc.values()) != sorted(rooms)):
        raise InputError(f"{where} is not a bijection between the named "
                         f"agents and rooms")
    room_index = {name: j for j, name in enumerate(rooms)}
    return Assignment(room_of_agent=tuple(room_index[doc[a]] for a in agents))


def _parse_bound(text, where):
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    if not isinstance(text, str):
        raise InputError(f"{where} must be a string")
    try:
        return rat(text)
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise InputError(f"{where}: {err}") from err


def certificate_from_json(doc, agents, rooms) -> InfeasibilityCertificate:
    """Inverse of certificate_to_json: room and agent names back to
    indices, money and bounds back to exact rationals. Raises InputError
    for a malformed certificate."""
    if not isinstance(doc, dict):
        raise InputError("certificate must be an object")
    if not isinstance(doc.get("kind"), str):
        raise InputError("certificate has no kind")
    room_index = {name: j for j, name in enumerate(rooms)}

    def room_list(key):
        names = doc.get(key)
        if names is None:
            return None
        if not isinstance(names, list) or not all(
                isinstance(name, str) and name in room_index
                for name in names):
            raise InputError(f"certificate {key} must list named rooms")
        return tuple(room_index[name] for name in names)

    def bound_list(key):
        texts = doc.get(key)
        if texts is None:
            return None
        if not isinstance(texts, list) or len(texts) != len(rooms):
            raise InputError(f"certificate {key} must hold one bound per "
                             f"room")
        return tuple(_parse_bound(t, f"certificate {key}") for t in texts)

    assignment = doc.get("assignment")
    if assignment is not None:
        assignment = _parse_assignment(assignment, agents, rooms,
                                       "certificate assignment")
    final_rents = doc.get("final_rents")
    if final_rents is not None:
        if not isinstance(final_rents, dict) or set(final_rents) != set(rooms):
            raise InputError("certificate final_rents must map every named "
                             "room to a value")
        final_rents = tuple(_parse_money(final_rents[room],
                                         f"certificate final_rents[{room}]")
                            for room in rooms)
    return InfeasibilityCertificate(
        kind=doc["kind"], explanation=str(doc.get("explanation", "")),
        witness_path=room_list("witness_path"),
        witness_rooms=room_list("witness_rooms"), assignment=assignment,
        final_rents=final_rents, effective_lower=bound_list("effective_lower"),
        effective_upper=bound_list("effective_upper"))


def _verify_infeasible(doc, inst, result):
    """Failures of an Infeasible result's certificate, re-derived from the
    instance by check_certificate."""
    if not isinstance(result.get("certificate"), dict):
        return ["infeasible result carries no certificate"]
    try:
        cert = certificate_from_json(result["certificate"],
                                     tuple(doc["agents"]), tuple(doc["rooms"]))
    except InputError as err:
        return [str(err)]
    return [f"certificate: {p}" for p in check_certificate(inst, cert)]


def _verify_solved(named: NamedInstance, result):
    """All checks on a Solved result, from exact fields only.

    Returns (failures, notes); structural failures end the run early since
    nothing downstream is well-defined without them.
    """
    inst, agents, rooms = named.instance, named.agents, named.rooms
    n = inst.n
    failures, notes = [], []
    objective = result.get("objective")
    if objective not in ORACLE_OBJECTIVES:
        return [f"unknown objective {objective!r}"], notes

    try:
        sigma = _parse_assignment(result.get("assignment"), agents, rooms,
                                  "assignment")
    except InputError as err:
        return [str(err)], notes

    rents_doc = result.get("rents")
    if not isinstance(rents_doc, dict) or set(rents_doc) != set(rooms):
        return ["rents must map every named room to a value"], notes
    utilities_doc = result.get("utilities")
    if not isinstance(utilities_doc, dict) or set(utilities_doc) != set(agents):
        return ["utilities must map every named agent to a value"], notes
    try:
        rents = tuple(_parse_money(rents_doc[room], f"rents[{room}]")
                      for room in rooms)
        reported_util = tuple(_parse_money(utilities_doc[agent],
                                           f"utilities[{agent}]")
                              for agent in agents)
    except InputError as err:
        return [str(err)], notes
    alloc = Allocation(assignment=sigma, rents=rents)

    # The total's violation comes last; max_total_rent deliberately relaxes it.
    total = sum(rents, Fraction(0))
    report = check_constraints(inst, alloc, rooms=rooms, agents=agents)
    placement = list(report.violations)
    total_failure = None if report.total_ok else placement.pop()
    unbounded_total = (objective == "max_total_rent"
                       and isinstance(result.get("value"), dict)
                       and result["value"].get("exact") == "inf")
    if objective == "max_total_rent":
        notes.append(f"max_total_rent result: achieved total "
                     f"{format_rat(total)} replaces the instance total")
    elif total_failure is not None:
        failures.append(total_failure)

    for i, j, gap in check_envy_free(inst, alloc):
        failures.append(f"agent {agents[i]} prefers room {rooms[j]} to "
                        f"room {rooms[sigma.room(i)]} by {format_rat(gap)}")
    failures.extend(placement)

    recomputed = utilities(inst, alloc)
    for i, agent in enumerate(agents):
        if reported_util[i] != recomputed[i]:
            failures.append(f"utility of {agent}: reported "
                            f"{format_rat(reported_util[i])}, recomputed "
                            f"{format_rat(recomputed[i])}")

    value_failure = _check_value(objective, result.get("value"), recomputed,
                                 total, unbounded_total)
    if value_failure:
        failures.append(value_failure)

    if not failures:
        canonical = max_welfare_assignment(inst.valuations)
        if sigma != canonical:
            canon_util = utilities(inst, Allocation(assignment=canonical,
                                                    rents=rents))
            if canon_util == recomputed:
                notes.append("non-canonical assignment: differs from the "
                             "canonical welfare-maximizing matching but "
                             "gives every agent the same utility")
            else:
                failures.append("assignment changes some agent's utility "
                                "against the canonical matching")
    return failures, notes


def _check_value(objective, value_doc, util, total, unbounded_total):
    """Recompute the objective value; None means the reported one matches."""
    if objective == "any":
        if value_doc is not None:
            return "objective \"any\" must not report a value"
        return None
    if unbounded_total:
        return None  # an unbounded total is witnessed by any feasible point
    if objective == "min_rel_spread" and min(util) <= 0:
        return "relative spread needs strictly positive utilities"
    expected = {
        "maximin": lambda: min(util),
        "leximin": lambda: tuple(sorted(util)),
        "minspread": lambda: max(util) - min(util),
        "max_total_rent": lambda: total,
        "min_rel_spread": lambda: max(util) / min(util),
    }[objective]()
    try:
        if isinstance(expected, tuple):
            if (not isinstance(value_doc, list)
                    or len(value_doc) != len(expected)):
                raise InputError("value must list one entry per agent")
            got = tuple(_parse_money(v, "value") for v in value_doc)
        else:
            got = _parse_money(value_doc, "value")
    except InputError as err:
        return str(err)
    if got != expected:
        return (f"objective value mismatch: reported "
                f"{_render_value(got)}, recomputed {_render_value(expected)}")
    return None


def _render_value(value):
    if isinstance(value, tuple):
        return "(" + ", ".join(format_rat(v) for v in value) + ")"
    return format_rat(value)


def cmd_verify(args) -> int:
    bound_sum_error = None
    try:
        doc = load_json(args.input)
        try:
            named = parse_instance(doc, args.input)
        except BoundSumError as err:
            named, bound_sum_error = None, err
        result = load_json(args.result)
    except InputError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(result, dict):
        print(f"{args.result}: top level must be a JSON object",
              file=sys.stderr)
        return EXIT_USAGE

    status = result.get("status")
    failures, notes = [], []
    if status == INFEASIBLE:
        inst = named.instance if named else bound_sum_error.instance
        failures = _verify_infeasible(doc, inst, result)
    elif status == SOLVED:
        if bound_sum_error is not None:
            failures.append(f"instance is infeasible before any solve: "
                            f"{bound_sum_error}")
        else:
            failures, notes = _verify_solved(named, result)
    else:
        failures.append(f"unknown status {status!r}")

    for line in failures:
        print(f"FAIL: {line}")
    for line in notes:
        print(f"NOTE: {line}")
    if failures:
        print("verification: FAIL")
        return EXIT_VERIFY_FAILED
    print("verification: PASS")
    return EXIT_SOLVED


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the exit-code contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rentdiv",
                     description="Exact envy-free rent division under rent "
                                 "bounds and budget constraints.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("input", help="instance JSON file")
    solve.add_argument("--objective", choices=OBJECTIVES, default="any")
    solve.add_argument("--trace", action="store_true",
                       help="include the dynamics event log in the result")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify",
                            help="check a result file against its instance")
    verify.add_argument("input", help="instance JSON file")
    verify.add_argument("result", help="result JSON file to check")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle",
                            help="answer via the LP/enumeration oracle")
    oracle.add_argument("input", help="instance JSON file")
    oracle.add_argument("--objective", choices=ORACLE_OBJECTIVES,
                        default="any")
    oracle.set_defaults(func=cmd_oracle)
    return parser


def _configure_logging():
    level = os.environ.get("RENTDIV_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
