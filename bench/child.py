"""Run one tagforge CLI job in this process and report on it.

    python3 child.py RESULT STDOUT TRACED SRC -- ARGV...

The process limits its own address space and CPU time first, starts timing
a piece of reference work every few milliseconds (see speed.py), then
imports `tagforge.cli` from SRC and notes the moment it is ready (set-up ends
there), then times `main(ARGV)` with stdout sent to the file STDOUT.  With
TRACED=1 the layer boundaries are wrapped first (see layers.py).  RESULT
receives a JSON object: exit code, ready time, job seconds, the reference
work's times, peak RSS, and the layer counters of a traced run.  The time
spent on reference work is left out of the ready time and the job seconds.
Linux only (peak RSS comes from /proc/self/status).
"""

import json
import os
import resource
import signal
import sys
import time
import traceback

from speed import SAMPLE_PERIOD_S, reference_work

ADDRESS_SPACE_LIMIT = 1 << 30
CPU_LIMIT_S = 60


def peak_rss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss would also count the
    parent's peak, which Linux carries across the exec of a vfork'd child."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    result_path, stdout_path, traced, src, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT STDOUT TRACED SRC -- ARGV...")
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 5))
    samples: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference_work()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    sys.path.insert(0, src)
    import tagforge.cli as cli

    ready = time.monotonic() - sum(samples)
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tagforge was imported from {cli.__file__}, not from {src}")
    run = cli.main
    tracer = None
    if traced == "1":
        from layers import Tracer

        tracer = Tracer()
        run = tracer.install(cli)
    result = {"ready": ready, "rc": None}
    with open(stdout_path, "w", encoding="utf-8") as out:
        saved, sys.stdout = sys.stdout, out
        before_job = len(samples)
        start = time.perf_counter()
        try:
            result["rc"] = run(argv)
            out.flush()
        except BaseException:  # the traceback marks the job as failed
            traceback.print_exc()
        finally:
            result["job_s"] = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            result["job_s"] -= sum(samples[before_job:])
            sys.stdout = saved
    result["samples"] = samples
    result["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["layers"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
