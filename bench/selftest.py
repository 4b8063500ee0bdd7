"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Run from the root of a checkout.  It shows that each workload generator is
deterministic for a given seed, and that each oracle rejects a planted
wrong answer: a fake `derivable` for `x -> y`, a tampered trace step (judged
by a real check-trace process), wrong lemma counts, wrong reduce group
sizes, a derivable axiom for a run that provably never halts, a `fail`
verdict, and output that changes between passes.  Exits 1 on the first
check that does not hold.
"""

from __future__ import annotations

import json
import os
import sys

from oracles import is_tautology, lemma3_formula_count, tag_fate
from run import Runner, _remove, judge, tally
from workloads import WORKLOADS, Job, make_jobs

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_run", f"selftest-{os.getpid()}")


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def _inputs(workdir: str) -> dict[str, bytes]:
    inputs = os.path.join(workdir, "inputs")
    out = {}
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_generators() -> None:
    for name in WORKLOADS:
        a, b, c = (os.path.join(WORK, f"gen-{name}-{k}") for k in "abc")
        jobs_a, jobs_b = make_jobs(name, 7, a), make_jobs(name, 7, b)
        jobs_c = make_jobs(name, 8, c)
        expect(jobs_a == jobs_b and _inputs(a) == _inputs(b),
               f"{name}: seed 7 gives the same jobs and input files twice")
        expect(jobs_a != jobs_c, f"{name}: seed 8 gives other jobs than seed 7")


def derive_answer(goal: str, verdict: str) -> str:
    return json.dumps({"verdict": verdict, "goal": goal, "depth": 3})


def check_planted_answers() -> None:
    fake = {"oracle": "derive", "goal": "x -> y", "tautology": is_tautology(("x", "y")),
            "never_halts": False}
    expect(judge(fake, derive_answer("x -> y", "derivable")) != [],
           "a derivable verdict for x -> y is rejected")
    expect(judge(fake, derive_answer("x -> y", "not-found-within-budget")) == [],
           "a budget miss for x -> y is accepted")
    halting = {"oracle": "derive", "goal": "x -> y -> x", "tautology": True, "never_halts": True}
    expect(judge(halting, derive_answer("x -> y -> x", "derivable")) != [],
           "a derivable p0 axiom for a run that cycles is rejected")
    expect(tag_fate({"a": "aa"}, 2, "aa") == ("cycles", 1), "the tag simulator proves a cycle")
    n = lemma3_formula_count(3, 4)
    lemma3 = {"lemma": "lemma3", "verdict": "pass", "resources": {"formulas": n + 1, "pairs": n * (n + 1) // 2}}
    expect(judge({"oracle": "lemma3", "alphabet": 3, "max_len": 4}, json.dumps(lemma3)) != [],
           "a wrong lemma3 formula count is rejected")
    lemma6 = {"lemma": "lemma6", "verdict": "pass", "resources": {"chains": 437}}
    expect(judge({"oracle": "lemma6", "alphabet": 2, "max_len": 4}, json.dumps(lemma6)) != [],
           "a wrong lemma6 chain count is rejected")
    bundle = {"T1": [""] * 12, "T2": [""] * 12, "R": [""] * 4, "H": [""] * 3, "input": [""] * 2}
    collatz = {"oracle": "reduce", "productions": {"a": "bc", "b": "a", "c": "aaa"},
               "input_len": 3, "p0_size": 1}
    expect(judge(collatz, json.dumps(bundle)) == [], "collatz reduce group sizes match the closed form")
    bundle["T2"] = bundle["T2"][1:]
    expect(judge(collatz, json.dumps(bundle)) != [], "a wrong reduce group size is rejected")
    failing = {"lemma": "lemma9", "verdict": "fail", "witness": {}, "resources": {}}
    expect(judge({"oracle": "verify"}, json.dumps(failing)) != [], "a fail verdict is rejected")
    passes = [[{"id": "j", "digest": "d1", "problems": []}],
              [{"id": "j", "digest": "d2", "problems": []}]]
    expect(tally(passes)[1] != [], "output that changes between passes is a failure")


def check_tampered_trace() -> None:
    """A real derive, then a real check-trace on the trace with one step's
    result changed."""
    runner = Runner(ROOT, WORK)
    os.makedirs(os.path.join(WORK, "jobs"), exist_ok=True)
    calc = os.path.join(WORK, "ks.json")
    with open(calc, "w", encoding="utf-8") as fh:
        json.dump({"label": "ks", "axioms": ["x -> y -> x", "(x -> y -> z) -> (x -> y) -> x -> z"]}, fh)
    goal = "a -> a"
    derive = Job("derive", ["derive", "--calculus", "ks.json", "--goal", goal, "--depth", "3",
                            "--trace-out", "jobs/t.json"],
                 {"oracle": "derive", "goal": goal, "tautology": True, "never_halts": False},
                 writes=["jobs/t.json"],
                 follow={"check_trace": {"calculus": "ks.json", "trace": "jobs/t.json", "claimed": goal}})
    record = runner.run_job(derive, "1", False)
    expect(record["problems"] == [] and len(record["next"]) == 1, "derive a -> a on K+S is accepted")
    check = record["next"][0]
    expect(runner.run_job(check, "2", False)["problems"] == [], "its trace passes check-trace")
    path = os.path.join(WORK, "jobs", "t.json")
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    trace["steps"][-2]["result"] = "a -> b -> a"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    expect(runner.run_job(check, "1", False)["problems"] != [],
           "a tampered trace step is rejected by the check-trace process")


def main() -> int:
    _remove(WORK)
    try:
        check_generators()
        check_planted_answers()
        check_tampered_trace()
    finally:
        _remove(WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
