"""tagforge benchmark: real CLI jobs, checked answers, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload closure|chains|halting|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
imports tagforge from ./src.  The seed makes one pass of jobs (see
workloads.py); run.py then repeats that pass, one job at a time with
each job in a fresh process (child.py), until the next pass would end after
S seconds, with at least two passes.  A job runs under PYTHONHASHSEED 1 and 2
in turn, and its output digest must be the same in all passes.  Before each
job the driver moves to the CPU where reference work runs fastest, and the
job's times are rescaled by the speed the job process measured while it ran
(speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 follows each plain pass
with a traced one (layers.py) and prints the per-layer metrics, the traced
passes' layer counters and the ratio of traced to plain pass time; it also
writes them to .bench_run/trace-<workload>-seed<N>.json.  Every line but the
last is for people; the last is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from oracles import (
    lemma3_formula_count,
    lemma6_chain_count,
    production_group_size,
    reduce_group_sizes,
)
from speed import reference_work, speed_factor
from workloads import WORKLOADS, Job, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
JOB_WALL_LIMIT_S = 60
HASH_SEEDS = ("1", "2")
MIN_PASSES = 2
PROBE_DEPTH = 9  # reference work that compares the CPUs before each job
TAIL_BEYOND = 10
MB = 1e6


# --- oracles over CLI output -------------------------------------------------


def _verify_reports(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _single_report(stdout: str, lemma: str) -> dict:
    reports = _verify_reports(stdout)
    if len(reports) != 1 or reports[0].get("lemma") != lemma:
        raise ValueError(f"expected one {lemma} report, got {len(reports)}")
    if reports[0]["verdict"] != "pass":
        raise ValueError(f"{lemma} verdict {reports[0]['verdict']!r}")
    return reports[0]


def judge(check: dict, stdout: str) -> list[str]:
    """Problems with one job's answer; empty when the oracle accepts it."""
    kind = check["oracle"]
    try:
        if kind == "derive":
            obj = json.loads(stdout)
            problems = []
            if obj["goal"] != check["goal"]:
                problems.append(f"goal echoed as {obj['goal']!r}")
            if obj["verdict"] == "derivable":
                if not check["tautology"]:
                    problems.append("derivable, but the goal is not a tautology")
                if check["never_halts"]:
                    problems.append("derivable, but the tag run provably never halts")
            elif obj["verdict"] != "not-found-within-budget":
                problems.append(f"verdict {obj['verdict']!r}")
            return problems
        if kind == "check_trace":
            return [] if json.loads(stdout)["valid"] is True else ["trace rejected"]
        if kind == "verify":
            bad = [r["verdict"] for r in _verify_reports(stdout) if r["verdict"] == "fail"]
            return [f"verdict {v!r}" for v in bad]
        if kind == "lemma3":
            res = _single_report(stdout, "lemma3")["resources"]
            n = lemma3_formula_count(check["alphabet"], check["max_len"])
            if res != {"formulas": n, "pairs": n * (n - 1) // 2}:
                return [f"lemma3 resources {res}, expected {n} formulas"]
            return []
        if kind == "lemma6":
            res = _single_report(stdout, "lemma6")["resources"]
            n = lemma6_chain_count(check["alphabet"], check["max_len"])
            return [] if res == {"chains": n} else [f"lemma6 resources {res}, expected {n} chains"]
        if kind == "lemma7":
            words = _single_report(stdout, "lemma7")["witness"]["words"]
            return [] if words == check["words"] else [f"lemma7 words {words}, expected {check['words']}"]
        if kind == "lemma12":
            axioms = _single_report(stdout, "lemma12")["witness"]["axioms"]
            n = 2 * production_group_size(check["productions"], 2) + 4
            return [] if axioms == n else [f"lemma12 axioms {axioms}, expected {n}"]
        if kind == "lemma11":
            (report,) = _verify_reports(stdout)
            want = "pass" if check["halts"] else "inconclusive-budget"
            return [] if report["verdict"] == want else [f"lemma11 verdict {report['verdict']!r}, expected {want!r}"]
        if kind == "reduce":
            obj = json.loads(stdout)
            want = reduce_group_sizes(check["productions"], 2, check["input_len"], check["p0_size"])
            got = {group: len(obj[group]) for group in want}
            return [] if got == want else [f"reduce group sizes {got}, expected {want}"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable answer: {e!r}"]
    raise ValueError(f"unknown oracle {kind!r}")


def follow_ups(job: Job, stdout: str, workdir: str) -> list[Job]:
    """Jobs that need this job's answer: check-trace after `derivable`, and
    derive of each p0 axiom on a reduction bundle."""
    if job.follow is None:
        return []
    spec = job.follow.get("check_trace")
    if spec is not None:
        if json.loads(stdout).get("verdict") != "derivable":
            return []
        return [
            Job(
                f"check-{job.id}",
                ["check-trace", "--calculus", spec["calculus"], "--trace", spec["trace"],
                 "--claimed", spec["claimed"]],
                {"oracle": "check_trace"},
            )
        ]
    spec = job.follow["derive"]
    bundle = json.loads(stdout)
    axioms = bundle["T1"] + bundle["T2"] + bundle["R"] + bundle["H"] + bundle["input"]
    with open(os.path.join(workdir, spec["calculus"]), "w", encoding="utf-8") as fh:
        json.dump({"label": f"bundle:{job.id}", "axioms": axioms}, fh)
    out = []
    for i, axiom in enumerate(bundle["p0"]["axioms"]):
        jid = f"derive-{job.id}-{i}"
        trace = f"jobs/{jid}.trace.json"
        out.append(
            Job(
                jid,
                ["derive", "--calculus", spec["calculus"], "--goal", axiom,
                 "--depth", str(spec["depth"]), "--trace-out", trace],
                {"oracle": "derive", "goal": axiom, "tautology": True,
                 "never_halts": spec["never_halts"]},
                writes=[trace],
                follow={"check_trace": {"calculus": spec["calculus"], "trace": trace,
                                        "claimed": axiom}},
            )
        )
    return out


# --- machine speed -----------------------------------------------------------


def move_to_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process to the CPU of `cpus` where reference work runs
    fastest now; a job process inherits the CPU.  One virtual CPU of a
    shared host can run at half the speed of another for tens of seconds,
    and only one process runs at a time."""
    timed = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timed.append((reference_work(PROBE_DEPTH), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})


# --- running jobs ------------------------------------------------------------


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _written_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(
            os.path.join(d, f) for d, _, files in os.walk(path) for f in files
        )
    return [path] if os.path.exists(path) else []


class Runner:
    def __init__(self, root: str, workdir: str):
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.cpus = sorted(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        # The program sees only the generated files and CLI flags.
        for knob in ("PYTHONPATH", "TAGFORGE_GENERATOR_CAP"):
            self.env.pop(knob, None)

    def run_job(self, job: Job, hash_seed: str, traced: bool) -> dict:
        wd = self.workdir
        stdout_path = os.path.join(wd, "jobs", f"{job.id}.stdout")
        result_path = os.path.join(wd, "jobs", f"{job.id}.result.json")
        for path in [stdout_path, result_path] + [os.path.join(wd, w) for w in job.writes]:
            _remove(path)
        cmd = [sys.executable, CHILD, result_path, stdout_path, "1" if traced else "0",
               self.src, "--", *job.argv]
        env = dict(self.env, PYTHONHASHSEED=hash_seed)
        problems = []
        move_to_fastest_cpu(self.cpus)
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=wd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=JOB_WALL_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            problems.append(f"wall-time limit of {JOB_WALL_LIMIT_S}s")
        err = err.decode("utf-8", "replace")
        if "Traceback (most recent call last)" in err:
            problems.append("traceback: " + err.strip().splitlines()[-1])
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        if proc.returncode != 0 or result.get("rc") != 0:
            problems.append(f"exit status {proc.returncode}, main returned {result.get('rc')}")
        digest = hashlib.sha256()
        out_bytes = 0
        stdout = ""
        written = [f for w in job.writes for f in _written_files(os.path.join(wd, w))]
        if not os.path.exists(stdout_path):
            problems.append("the job process never opened its stdout file")
        for path in _written_files(stdout_path) + written:
            with open(path, "rb") as fh:
                data = fh.read()
            if path == stdout_path:
                stdout = data.decode("utf-8")
            digest.update(os.path.relpath(path, wd).encode() + b"\0" + data)
            out_bytes += len(data)
        # Times in seconds at the reference speed of speed.py.
        speed = speed_factor(result.get("samples", []))
        nxt = []
        if not problems:
            problems = judge(job.check, stdout)
        if not problems:
            nxt = follow_ups(job, stdout, wd)
        return {
            "id": job.id,
            "job_s": result["job_s"] * speed if "job_s" in result else None,
            "setup_s": (result["ready"] - spawned) * speed if "ready" in result else None,
            "speed": speed,
            "rss_mb": result.get("maxrss_kb", 0) / 1024,
            "out_bytes": out_bytes,
            "digest": digest.hexdigest(),
            "problems": problems,
            "layers": result.get("layers"),
            "next": nxt,
        }

    def run_pass(self, roots: list[Job], turn: int, traced: bool) -> list[dict]:
        """Run the jobs of one pass, each job of it under the hash seed whose
        turn it is: neighbouring jobs, and a job's consecutive passes, take
        the two seeds in turn."""
        queue = list(roots)
        records = []
        while queue:
            hash_seed = HASH_SEEDS[(turn + len(records)) % len(HASH_SEEDS)]
            record = self.run_job(queue.pop(0), hash_seed, traced)
            record["hash_seed"] = hash_seed
            queue[:0] = record.pop("next")
            records.append(record)
        return records


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def job_times(passes: list[list[dict]]) -> list[float]:
    """Each job's time: the mean, over the two hash seeds, of the median of
    its passes under that seed.  Some jobs take 1.6 times as long under one
    hash seed as under the other, so each seed weighs the same however many
    passes a run makes."""
    per_job: dict[str, dict[str, list[float]]] = {}
    for records in passes:
        for r in records:
            if r["job_s"] is not None:
                per_job.setdefault(r["id"], {}).setdefault(r["hash_seed"], []).append(r["job_s"])
    return [statistics.mean(statistics.median(v) for v in by_seed.values())
            for by_seed in per_job.values()]


def end_to_end(plain: list[list[dict]]) -> tuple[dict, list[str]]:
    job_medians = job_times(plain)
    tail_s, tail_pct = tail(job_medians)
    setups = [r["setup_s"] for records in plain for r in records if r["setup_s"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(job_medians),
        "job_p50_s": statistics.median(job_medians),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(r["rss_mb"] for rs in plain for r in rs),
        "output_mb": statistics.median(sum(r["out_bytes"] for r in rs) for rs in plain) / MB,
    }
    notes = [
        f"setup_s: median of {len(setups)} job set-ups",
        f"{len(plain)} passes of {len(job_medians)} jobs; a job's time is the mean over the two "
        "hash seeds of its median pass",
        "times are seconds at reference speed; job processes ran at "
        f"{statistics.median(r['speed'] for rs in plain for r in rs):.2f} of it (median factor)",
        "wall_s: sum of job times; output_mb: median over passes",
        f"job_tail_s: p{tail_pct:.1f} of {len(job_medians)} job times, "
        f"{min(TAIL_BEYOND, len(job_medians) - 1)} jobs beyond it",
    ]
    return metrics, notes


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass."""
    counts: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for r in records:
        if r["layers"] is None:
            continue
        for k, v in r["layers"]["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in r["layers"]["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    out = dict(counts)
    out["engine.closure.levels"] = counts.get("engine.closure.level.calls", 0.0)
    out["engine.closure.level_s"] = counts.get("engine.closure.level.s", 0.0)
    for fn, useful, ratio in (("match_instance", "hits", "hit_ratio"),
                              ("unify", "successes", "success_ratio")):
        calls = sum(v for k, v in counts.items()
                    if k.startswith(f"formulas.{fn}.from_") and k.endswith(".calls"))
        out[f"formulas.{fn}.{ratio}"] = counts.get(f"formulas.{fn}.{useful}", 0.0) / calls if calls else 0.0
    busy = sum(self_s.values())
    for layer, s in self_s.items():
        out[f"{layer}.self_s"] = s
        out[f"{layer}.self_share"] = s / busy if busy else 0.0
    return out


# --- one workload ------------------------------------------------------------


def tally(passes: list[list[dict]]) -> tuple[int, list[str]]:
    """(jobs attempted, one line per failed job).  Besides each job's own
    problems, a job fails when its output digest differs from the first
    pass's: every pass runs the same jobs, under alternating hash seeds."""
    first = {r["id"]: r["digest"] for r in passes[0]}
    attempted = 0
    failures = []
    for records in passes:
        for r in records:
            if first.get(r["id"]) != r["digest"]:
                r["problems"].append("output differs from the first pass")
            attempted += 1
            if r["problems"]:
                failures.append(f"{r['id']}: {'; '.join(r['problems'])}")
    return attempted, failures


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool, spec: dict):
    workdir = os.path.join(root, ".bench_run", f"{name}-{seed}-{int(trace)}-{os.getpid()}")
    _remove(workdir)
    try:
        roots = make_jobs(name, seed, workdir)
        runner = Runner(root, workdir)
        passes: list[tuple[bool, list[dict]]] = []
        start = time.monotonic()
        plain_passes = 0
        while True:
            # With --trace 1 a traced pass follows each plain pass.
            for traced in (False, True) if trace else (False,):
                passes.append((traced, runner.run_pass(roots, plain_passes, traced)))
            plain_passes += 1
            elapsed = time.monotonic() - start
            if plain_passes >= MIN_PASSES and elapsed * (plain_passes + 1) / plain_passes > seconds:
                break
    finally:
        _remove(workdir)
    attempted, failures = tally([rs for _, rs in passes])
    plain = [rs for traced, rs in passes if not traced]
    e2e, notes = end_to_end(plain)
    result = {"passes": len(passes), "attempted": attempted, "failed": len(failures),
              "failures": failures, "notes": notes}
    if trace:
        traced_passes = [layer_metrics(rs) for traced, rs in passes if traced]
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = statistics.median(p.get(m["name"], 0.0) for p in traced_passes)
        traced_wall = sum(job_times([rs for traced, rs in passes if traced]))
        metrics["trace_overhead_ratio"] = traced_wall / e2e["wall_s"]
        result["all_counters"] = traced_passes
        result["metrics"] = metrics
    else:
        result["metrics"] = e2e
    return result


def _print_workload(name: str, seed: int, result: dict, units: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"workload {name} seed {seed}: {result['passes']} passes, "
          f"{result['attempted']} jobs attempted, {result['failed']} failed "
          f"(fail_ratio {ratio:.4f})")
    for key, value in result["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {units.get(key, '')}")
    for note in result["notes"]:
        print(f"  ({note})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tagforge", "cli.py")):
        print("error: run from the root of a tagforge checkout (no src/tagforge here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace), spec)
        _print_workload(name, args.seed, result, units)
        if args.trace:
            report = os.path.join(root, ".bench_run", f"trace-{name}-seed{args.seed}.json")
            with open(report, "w", encoding="utf-8") as fh:
                json.dump({k: result[k] for k in ("metrics", "all_counters", "notes")}, fh,
                          indent=1, sort_keys=True)
            print(f"  (per-layer report written to {os.path.relpath(report, root)})")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        prefix = "" if len(names) == 1 else f"{name}."
        for m in section:
            metrics[prefix + m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
