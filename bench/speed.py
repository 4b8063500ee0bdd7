"""The reference work that measures how fast the machine runs right now.

A shared virtual machine runs the same code two to three times slower while a
neighbour on the host is busy, and that changes from second to second, so a
job's raw time says more about the host than about tagforge.  Every job
process therefore times a tiny fixed piece of reference work every
SAMPLE_PERIOD_S while it imports tagforge and runs its job (child.py), and
run.py rescales the job's times by how long that work took on average.  The
work is pure Python on nested tuples, the kind of work tagforge's kernel
does, with no tagforge code in it, so no change to the program can change it.
"""

from __future__ import annotations

import time

SAMPLE_PERIOD_S = 0.002
SAMPLE_DEPTH = 4
# Mean time of one sample in a job process, on the 2-vCPU Xeon VM the
# benchmark was tuned on, while its CPU ran at the fastest speed seen there:
# rescaled times are seconds at that speed.
SAMPLE_REF_S = 0.000075


def _tree(depth: int, leaf: str):
    if depth == 0:
        return leaf
    return (_tree(depth - 1, leaf + "a"), _tree(depth - 1, leaf + "b"))


def _count_leaves(f, counts: dict) -> None:
    if isinstance(f, str):
        counts[f] = counts.get(f, 0) + 1
    else:
        _count_leaves(f[0], counts)
        _count_leaves(f[1], counts)


def _rename(f, mapping: dict):
    if isinstance(f, str):
        return mapping[f]
    return (_rename(f[0], mapping), _rename(f[1], mapping))


def reference_work(depth: int = SAMPLE_DEPTH) -> float:
    """Seconds one piece of reference work on a tree of 2**depth leaves
    takes now."""
    start = time.perf_counter()
    f = _tree(depth, "x")
    for _ in range(6):
        counts: dict[str, int] = {}
        _count_leaves(f, counts)
        f = _rename(f, {leaf: leaf[::-1] for leaf in counts})
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """What a time measured alongside `samples` is multiplied by to give
    seconds at reference speed."""
    return SAMPLE_REF_S / (sum(samples) / len(samples)) if samples else 1.0
