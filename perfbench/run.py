"""rentdiv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spliddit --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the run answers whole rounds of the workload for --seconds and
reports the end-to-end metrics, scaled to the machine's speed (gauge.py);
with --trace 1 it answers a fixed number of rounds untraced and then the
same rounds with every module boundary wrapped, and reports per-layer self
times and counts. Either way every answer is then
checked apart from the solver (checker.py), untimed, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

import checker  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from selftest import run_selftest  # noqa: E402
from tracer import Tracer  # noqa: E402

# Rounds answered in each phase of a traced run, fixed so that the counts it
# reports repeat exactly for a seed.
TRACE_ROUNDS = {"spliddit": 8, "dense": 6, "corpus": 20, "oracle": 30}

# The gauge's median time on the reference machine (gauge.py). Each timing
# is divided by how much longer than this the gauge took around it, so that
# it reads as on the reference machine at that speed.
GAUGE_NOMINAL_S = 0.0100
# Least time between two gauge samples in a timed run: the machine's speed
# swings by a third within seconds, so the gauge has to be sampled often.
GAUGE_EVERY_S = 0.2
# Gauge samples taken right after set-up; their median scales the set-up
# time. One sample varies by a fifth, so take several.
GAUGE_SETUP_SAMPLES = 10

# Counters the solver keeps in a TraceLog, summed into per-layer counts.
TRACELOG_COUNTS = {
    "ef_base.events": ["initial_ef_events"],
    "bounds.repair_events": ["bounds_events"],
    "bounds.objective_events": ["maximin_events", "leximin_events",
                                "minspread_events"],
    "budgets.rotations": ["scc_case2"],
}


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _START


def import_rentdiv():
    src = ROOT / "src"
    if not (src / "rentdiv" / "__init__.py").is_file():
        raise SystemExit(f"error: no rentdiv package under {src}")
    sys.path.insert(0, str(src))
    import rentdiv
    import rentdiv.budgets
    import rentdiv.cli
    import rentdiv.oracle
    if Path(rentdiv.__file__).resolve().parent != (src / "rentdiv").resolve():
        raise SystemExit(f"error: imported rentdiv from {rentdiv.__file__}, "
                         f"not from {src}")
    return rentdiv


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


class Runner:
    """Answers whole rounds and keeps what the checks and metrics need."""

    def __init__(self, workload):
        self.workload = workload
        self.gauge = None  # a Gauge in a timed run
        self.samples = []  # (time, gauge seconds)
        self.timed = []  # (objective, start, seconds)
        self.first = {}  # (item key, objective) -> record
        self.items = {}  # item key -> Item
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def sample_gauge(self):
        t0 = time.perf_counter()
        seconds = self.gauge.sample()
        self.samples.append(((t0 + time.perf_counter()) / 2, seconds))

    def answer(self, item, objective):
        if self.gauge is not None and (
                not self.samples
                or time.perf_counter() - self.samples[-1][0] >= GAUGE_EVERY_S):
            self.sample_gauge()
        t0 = time.perf_counter()
        rec = self.workload.answer(item, objective)
        self.timed.append((objective, t0, time.perf_counter() - t0))
        self.attempted += 1
        key = (item.key, objective)
        if key not in self.first:
            self.first[key] = rec
            self.items[item.key] = item
        elif rec != self.first[key]:
            self.problems.append(f"{item.key}/{objective}: answer differs "
                                 f"from the same question earlier in the run")
        return rec

    def run_round(self):
        for item in self.workload.round_items(self.rounds):
            for objective in self.workload.objectives:
                rec = self.answer(item, objective)
                if item.forge:
                    self.attempted += 1
                    if self.workload.forged_verify(item, rec["cli"]["text"]):
                        self.failed += 1
        self.rounds += 1

    def run_for(self, seconds):
        t0 = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - t0 < seconds:
            self.run_round()
        self.sample_gauge()

    def run_rounds(self, count):
        t0 = time.perf_counter()
        for _ in range(count):
            self.run_round()
        return time.perf_counter() - t0

    def answers(self):
        return len(self.timed)

    def scaled(self):
        """(objective, seconds) of every answer, each divided by how much
        slower than GAUGE_NOMINAL_S the gauge ran around it: the mean of
        the last sample before the answer and the first after it."""
        times = [t for t, _ in self.samples]
        out = []
        for objective, start, seconds in self.timed:
            k = bisect.bisect(times, start)
            around = [g for _, g in self.samples[max(k - 1, 0):k + 1]]
            slow = statistics.fmean(around) / GAUGE_NOMINAL_S
            out.append((objective, seconds / slow))
        return out


# ------------------------------------------------------------------- checks

def check_run(rentdiv, runner):
    """Check every distinct answer of the run; repeats were already compared
    with the first answer to the same question."""
    wl = runner.workload
    problems = list(runner.problems)
    for key, item in runner.items.items():
        s = item.spec
        recs = {obj: runner.first[(key, obj)] for obj in wl.objectives}
        found = []
        for rec in recs.values():
            found += checker.check_answer(s, rec, wl.name != "oracle")
        found += checker.check_group(
            s, {obj: recs[obj] for obj in workloads.SOLVER_OBJECTIVES})
        if wl.name in ("spliddit", "dense"):
            found += checker.check_lp(s, recs)
        if wl.name == "corpus":
            found += _cli_exits(recs)
            oracle = {obj: workloads.record_from_outcome(
                rentdiv.oracle.oracle_solve(item.instance, obj))
                for obj in workloads.SOLVER_OBJECTIVES}
            for rec in oracle.values():
                found += [f"oracle {p}" for p in
                          checker.check_answer(s, rec, certified=False)]
            found += checker.check_against_oracle(s, recs, oracle)
        if wl.name == "oracle":
            solver = {obj: workloads.record_from_outcome(
                rentdiv.budgets.combined_solve(item.instance, obj))
                for obj in workloads.SOLVER_OBJECTIVES}
            for rec in solver.values():
                found += [f"solver {p}" for p in checker.check_answer(s, rec)]
            found += checker.check_against_oracle(s, solver, recs)
        problems += [f"{key}: {p}" for p in found]
    return problems + run_selftest()


def _cli_exits(recs):
    out = []
    for obj, rec in recs.items():
        want = 0 if rec["status"] == "solved" else 2
        if rec["cli"]["solve_exit"] != want:
            out.append(f"{obj}: solve exited {rec['cli']['solve_exit']}, "
                       f"expected {want}")
        if rec["cli"]["verify_exit"] != 0:
            out.append(f"{obj}: verify rejected a genuine answer")
    return out


# ------------------------------------------------------------------ metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s, peak_rss_mb):
    """Every timing scaled to the reference machine's speed (Runner.scaled);
    set-up time by the gauge samples taken right after it."""
    setup_gauge = [g for _, g in runner.samples[:GAUGE_SETUP_SAMPLES]]
    setup_slow = statistics.median(setup_gauge) / GAUGE_NOMINAL_S
    scaled = runner.scaled()
    every = [t for _, t in scaled]
    out = {"setup_s": metric(setup_s / setup_slow, "s"),
           "answers_per_s": metric(len(every) / sum(every), "1/s"),
           "answer_ms_p50": metric(statistics.median(every) * 1e3, "ms")}
    for obj in workloads.SOLVER_OBJECTIVES:
        out[f"{obj}_ms_p50"] = metric(statistics.median(
            t for o, t in scaled if o == obj) * 1e3, "ms")
    out["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    return out


def traced_counters(rentdiv, tracer, counters):
    """Hand every combined_solve call a TraceLog and sum its counters into
    `counters`. Callers that pass none (the CLI without --trace) emit the
    same output as before; only the benchmark reads the log."""
    def make(original):
        def combined_solve(inst, objective="any", trace=None):
            log = rentdiv.dynamics.TraceLog() if trace is None else trace
            try:
                return original(inst, objective, log)
            finally:
                for key, value in log.counters.items():
                    counters[key] = counters.get(key, 0) + value
        return combined_solve
    tracer.replace(rentdiv, "budgets", "combined_solve", make)


def _denominator_digits(args, kwargs, result):
    return max(len(str(r.denominator)) for r in result.rents)


def per_layer(rentdiv, runner, rounds, seed):
    """Run `rounds` rounds untraced, then the same rounds traced."""
    untraced = runner.run_rounds(rounds)
    runner.rounds = 0
    counters = {}
    tracer = Tracer()
    traced_counters(rentdiv, tracer, counters)
    tracer.install(rentdiv, notes={
        "ef_base.initial_ef_allocation": _denominator_digits,
        "matching.all_max_welfare_assignments":
            lambda args, kwargs, result: len(result),
    })
    try:
        traced = runner.run_rounds(rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name, keys in TRACELOG_COUNTS.items():
        metrics[name] = sum(counters.get(k, 0) for k in keys)
    metrics["ef_base.rent_denominator_digits"] = max(
        tracer.notes("ef_base.initial_ef_allocation"), default=0)
    metrics["oracle.assignments"] = sum(
        tracer.notes("matching.all_max_welfare_assignments"))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["src.lines"] = src_lines()
    if tracer.skipped:
        print("traced run skipped missing names: " + ", ".join(tracer.skipped))
    tracer.write(OUT_DIR / f"spans-{runner.workload.name}-{seed}.json",
                 {"workload": runner.workload.name, "seed": seed,
                  "rounds": rounds, "untraced_s": untraced,
                  "traced_s": traced})
    return {name: metric(value, layer_unit(name))
            for name, value in sorted(metrics.items())}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return {"src.lines": "lines",
            "ef_base.rent_denominator_digits": "digits"}.get(name, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rentdiv = import_rentdiv()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.make_workload(args.workload)
        wl.setup(rentdiv, args.seed, workdir)
        runner = Runner(wl)
        wl.answer(wl.warmup, wl.objectives[0])
        setup_s = process_age()

        if args.trace:
            metrics = per_layer(rentdiv, runner, TRACE_ROUNDS[wl.name],
                                args.seed)
        else:
            runner.gauge = Gauge()
            try:
                for _ in range(GAUGE_SETUP_SAMPLES):
                    runner.sample_gauge()
                runner.run_for(args.seconds)
            finally:
                runner.gauge.close()
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(runner, setup_s, peak_rss_mb)
            gauge_ms = [g * 1e3 for _, g in runner.samples]
            print(f"gauge: {len(gauge_ms)} samples, median "
                  f"{statistics.median(gauge_ms):.2f} ms, range "
                  f"{min(gauge_ms):.2f}-{max(gauge_ms):.2f} ms, reference "
                  f"{GAUGE_NOMINAL_S * 1e3:.2f} ms")
        problems = check_run(rentdiv, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name} seed {args.seed}: {runner.rounds} rounds, "
          f"{runner.answers()} answers over {len(runner.items)} instances, "
          f"{runner.failed} of {runner.attempted} operations failed")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
