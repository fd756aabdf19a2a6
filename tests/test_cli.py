import json
import math
from fractions import Fraction

import pytest

from rentdiv.cli import main

FIX_A_DOC = {
    "agents": ["alice", "bob"],
    "rooms": ["front", "back"],
    "valuations": [["10", "2"], ["4", "6"]],
    "total_rent": "8",
}

FIX_EX_DOC = {
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


# three seed events, one bound repair and two leximin events
TRACE_DOC = {
    "agents": ["ann", "ben", "cal"],
    "rooms": ["attic", "bay", "cellar"],
    "valuations": [["10", "1", "0"], ["8", "4", "0"], ["3", "3", "1"]],
    "total_rent": "9",
    "lower_bounds": ["-inf", "5/2", "0"],
    "upper_bounds": ["7", "inf", "5/2"],
}


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_leximin_example(tmp_path, capsys):
    path = write(tmp_path, FIX_EX_DOC)
    code, out, _ = run(capsys, "solve", path, "--objective", "leximin")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "solved"
    assert doc["objective"] == "leximin"
    rents = {room: money["exact"] for room, money in doc["rents"].items()}
    assert rents == {"r1": "0", "r2": "2", "r3": "0", "r4": "2"}
    assert doc["assignment"] == {"a1": "r1", "a2": "r2", "a3": "r3",
                                 "a4": "r4"}
    assert [v["exact"] for v in doc["value"]] == ["0", "5", "17", "20"]
    assert doc["utilities"]["a1"]["exact"] == "20"


def test_exact_fractions_round_trip(tmp_path, capsys):
    doc = {
        "agents": ["x", "y"],
        "rooms": ["p", "q"],
        "valuations": [["1/3", "0"], ["0", "2.5"]],
        "total_rent": "1/6",
    }
    code, out, _ = run(capsys, "solve", write(tmp_path, doc))
    assert code == 0
    result = json.loads(out)
    rents = [Fraction(result["rents"][room]["exact"]) for room in ("p", "q")]
    assert sum(rents) == Fraction(1, 6)
    utils = {a: Fraction(v["exact"]) for a, v in result["utilities"].items()}
    assert utils["x"] == Fraction(1, 3) - rents[0]
    assert utils["y"] == Fraction(5, 2) - rents[1]


def test_raw_json_decimals_stay_exact(tmp_path, capsys):
    # 0.1 has no binary representation; the parser must keep it decimal
    text = ('{"agents": ["x"], "rooms": ["p"], '
            '"valuations": [[0.1]], "total_rent": 0.3}')
    code, out, _ = run(capsys, "solve", write(tmp_path, text))
    assert code == 0
    result = json.loads(out)
    assert result["rents"]["p"]["exact"] == "3/10"
    assert result["utilities"]["x"]["exact"] == "-1/5"


def test_solve_infeasible_bounds_exit_2(tmp_path, capsys):
    doc = dict(FIX_A_DOC, lower_bounds=["0", "3"], upper_bounds=["0", "8"])
    code, out, _ = run(capsys, "solve", write(tmp_path, doc))
    assert code == 2
    result = json.loads(out)
    assert result["status"] == "infeasible"
    assert result["certificate"]["kind"] == "envy_path_violation"
    assert result["rents"] is None
    assert result["assignment"] is None


def test_bound_sum_conflict_is_infeasible_not_usage(tmp_path, capsys):
    doc = dict(FIX_A_DOC, upper_bounds=["1", "1"])
    code, out, _ = run(capsys, "solve", write(tmp_path, doc))
    assert code == 2
    result = json.loads(out)
    assert result["certificate"]["kind"] == "bound_sum_violation"
    assert result["certificate"]["witness_rooms"] == ["front", "back"]


def test_malformed_json_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "solve", write(tmp_path, "{not json"))
    assert code == 1
    assert err != ""


def test_unknown_field_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "solve",
                       write(tmp_path, dict(FIX_A_DOC, extra=1)))
    assert code == 1
    assert "extra" in err


def test_infinity_literal_rejected(tmp_path, capsys):
    text = ('{"agents": ["x"], "rooms": ["p"], '
            '"valuations": [[Infinity]], "total_rent": 1}')
    code, _, err = run(capsys, "solve", write(tmp_path, text))
    assert code == 1
    assert err != ""


def test_missing_file_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])  # missing the input argument
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == 1


def test_infinite_bounds_spelled_out(tmp_path, capsys):
    doc = dict(FIX_A_DOC, lower_bounds=["-inf", "0"],
               upper_bounds=["inf", "inf"],
               budgets=[["inf", "inf"], ["inf", "3"]])
    code, out, _ = run(capsys, "solve", write(tmp_path, doc))
    assert code == 0
    result = json.loads(out)
    total = sum(Fraction(result["rents"][r]["exact"]) for r in
                ("front", "back"))
    assert total == 8
    assert Fraction(result["rents"]["back"]["exact"]) <= 3


def test_verify_round_trip(tmp_path, capsys):
    inst = write(tmp_path, FIX_EX_DOC)
    code, out, _ = run(capsys, "solve", inst, "--objective", "leximin")
    assert code == 0
    result = write(tmp_path, out, name="result.json")
    code, out, _ = run(capsys, "verify", inst, result)
    assert code == 0
    assert "verification: PASS" in out


def test_verify_catches_tampered_rent(tmp_path, capsys):
    inst = write(tmp_path, FIX_EX_DOC)
    _, out, _ = run(capsys, "solve", inst, "--objective", "leximin")
    doc = json.loads(out)
    doc["rents"]["r2"]["exact"] = "3"
    result = write(tmp_path, json.dumps(doc), name="result.json")
    code, out, _ = run(capsys, "verify", inst, result)
    assert code == 3
    assert "verification: FAIL" in out
    assert "FAIL:" in out


def test_verify_allows_equivalent_assignment(tmp_path, capsys):
    # agents 1 and 3 value rooms 1 and 3 identically: swapping them keeps
    # every utility, so the check passes but points out the difference
    inst = write(tmp_path, FIX_EX_DOC)
    _, out, _ = run(capsys, "solve", inst, "--objective", "leximin")
    doc = json.loads(out)
    doc["assignment"]["a1"], doc["assignment"]["a3"] = "r3", "r1"
    result = write(tmp_path, json.dumps(doc), name="result.json")
    code, out, _ = run(capsys, "verify", inst, result)
    assert code == 0
    assert "verification: PASS" in out
    assert "non-canonical" in out


def test_verify_rejects_broken_total(tmp_path, capsys):
    inst = write(tmp_path, FIX_A_DOC)
    _, out, _ = run(capsys, "solve", inst)
    doc = json.loads(out)
    for room in doc["rents"]:
        doc["rents"][room]["exact"] = "9"
    result = write(tmp_path, json.dumps(doc), name="result.json")
    code, out, _ = run(capsys, "verify", inst, result)
    assert code == 3
    assert "total" in out


def _verify_infeasible(tmp_path, capsys, doc, forge=None):
    """Solve an infeasible instance, optionally edit the certificate with
    forge, and return verify's exit code and output."""
    inst = write(tmp_path, doc)
    code, out, _ = run(capsys, "solve", inst)
    assert code == 2
    result = json.loads(out)
    if forge is not None:
        forge(result["certificate"])
    path = write(tmp_path, json.dumps(result), name="result.json")
    code, out, _ = run(capsys, "verify", inst, path)
    return code, out


PINNED_GAP_DOC = dict(FIX_A_DOC, lower_bounds=["0", "3"],
                      upper_bounds=["0", "8"])
BOUND_SUM_DOC = dict(FIX_A_DOC, upper_bounds=["1", "1"])


def test_verify_accepts_genuine_certificates(tmp_path, capsys):
    for doc in (PINNED_GAP_DOC, BOUND_SUM_DOC):
        code, out = _verify_infeasible(tmp_path, capsys, doc)
        assert code == 0, out
        assert "verification: PASS" in out


def test_verify_rejects_emptied_certificate(tmp_path, capsys):
    for doc in (PINNED_GAP_DOC, BOUND_SUM_DOC):
        code, out = _verify_infeasible(tmp_path, capsys, doc,
                                       forge=lambda cert: cert.clear())
        assert code == 3
        assert "certificate has no kind" in out


def test_verify_rejects_wrong_kind_certificate(tmp_path, capsys):
    def relabel(kind):
        return lambda cert: cert.update(kind=kind)

    code, out = _verify_infeasible(tmp_path, capsys, PINNED_GAP_DOC,
                                   forge=relabel("bound_sum_violation"))
    assert code == 3
    assert "bound sums do not exclude the total" in out
    code, out = _verify_infeasible(tmp_path, capsys, PINNED_GAP_DOC,
                                   forge=relabel("budget_cap_violation"))
    assert code == 3
    assert "verification: FAIL" in out
    code, out = _verify_infeasible(tmp_path, capsys, BOUND_SUM_DOC,
                                   forge=relabel("envy_path_violation"))
    assert code == 3
    assert "certificate names no assignment" in out


def test_verify_rejects_malformed_certificate(tmp_path, capsys):
    forgeries = [
        lambda cert: cert.update(assignment={"alice": 1, "bob": "back"}),
        lambda cert: cert.update(witness_rooms=["front", "attic"]),
        lambda cert: cert.update(final_rents={"front": "3", "back": "5"}),
        lambda cert: cert.update(effective_upper=["0"]),
    ]
    for forge in forgeries:
        code, out = _verify_infeasible(tmp_path, capsys, PINNED_GAP_DOC,
                                       forge=forge)
        assert code == 3
        assert "FAIL: certificate" in out


def test_verify_rejects_tightened_witness_bounds(tmp_path, capsys):
    # a witness may not invent bounds tighter than the instance's own
    def tighten(cert):
        cert["effective_lower"] = ["7/2", "3"]

    code, out = _verify_infeasible(tmp_path, capsys, PINNED_GAP_DOC,
                                   forge=tighten)
    assert code == 3
    assert "tighter than the instance allows" in out


def test_oracle_maximin_value(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write(tmp_path, FIX_A_DOC),
                       "--objective", "maximin")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["exact"] == "4"
    rents = {room: money["exact"] for room, money in doc["rents"].items()}
    assert rents == {"front": "6", "back": "2"}


def test_oracle_minspread_example(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write(tmp_path, FIX_EX_DOC),
                       "--objective", "minspread")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["exact"] == "19"
    rents = {room: money["exact"] for room, money in doc["rents"].items()}
    assert rents == {"r1": "1", "r2": "0", "r3": "1", "r4": "2"}


def test_oracle_size_gate(tmp_path, capsys):
    doc = {
        "agents": [f"a{i}" for i in range(9)],
        "rooms": [f"r{i}" for i in range(9)],
        "valuations": [["1"] * 9 for _ in range(9)],
        "total_rent": "9",
    }
    code, _, err = run(capsys, "oracle", write(tmp_path, doc))
    assert code == 1
    assert err != ""


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, FIX_EX_DOC)
    _, first, _ = run(capsys, "solve", path, "--objective", "minspread")
    _, second, _ = run(capsys, "solve", path, "--objective", "minspread")
    assert first == second


def _exact(money):
    text = money["exact"]
    return {"inf": math.inf, "-inf": -math.inf}.get(text) or Fraction(text)


def test_trace_flag_appends_event_log(tmp_path, capsys):
    path = write(tmp_path, FIX_A_DOC)
    code, out, _ = run(capsys, "solve", path, "--objective", "maximin",
                       "--trace")
    assert code == 0
    result = json.loads(out)
    assert isinstance(result["trace"], list)
    assert result["trace"], "the maximin climb must log at least one event"
    entry = result["trace"][0]
    assert set(entry) == {"phase", "time", "kinds", "sizes", "rents",
                          "assignment", "lower", "upper"}
    assert entry["phase"] == "maximin"
    counters = result["trace_counters"]
    assert counters["maximin_events"] == len(result["trace"])

    # every event's state is in the output: recheck the total and EF after
    # each, and the bounds outside repair
    path = write(tmp_path, TRACE_DOC, name="trace.json")
    code, out, _ = run(capsys, "solve", path, "--objective", "leximin",
                       "--trace")
    assert code == 0
    trace = json.loads(out)["trace"]
    phases = [entry["phase"] for entry in trace]
    assert phases == ["bounds", "leximin", "leximin"]
    value = {(agent, room): Fraction(v)
             for agent, row in zip(TRACE_DOC["agents"], TRACE_DOC["valuations"])
             for room, v in zip(TRACE_DOC["rooms"], row)}
    for entry in trace:
        rents = {room: _exact(m) for room, m in entry["rents"].items()}
        assert sum(rents.values()) == 9
        for agent, own in entry["assignment"].items():
            mine = value[agent, own] - rents[own]
            assert all(mine >= value[agent, room] - rents[room]
                       for room in rents)
        if entry["phase"] in ("leximin", "maximin", "minspread"):
            for room, rent in rents.items():
                assert _exact(entry["lower"][room]) <= rent
                assert rent <= _exact(entry["upper"][room])


def test_trace_absent_without_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", write(tmp_path, FIX_A_DOC))
    assert code == 0
    doc = json.loads(out)
    assert "trace" not in doc
    assert "trace_counters" not in doc
