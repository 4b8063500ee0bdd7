"""Seeded job lists for the three workloads.

A workload is one pass: a list of CLI jobs that run.py runs one after
another, each in a fresh process.  The seed picks the concrete inputs; the
structure of a pass (which subcommands, which calculi and depths, which
system shapes and word lengths) is fixed per workload, so that passes made
from different seeds cost about the same and their timings can be compared.

Jobs whose input depends on an earlier answer (check-trace after a
`derivable` verdict, derive on a bundle that `reduce` wrote) are created by
run.py as follow-ups; see `Job.follow`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

from oracles import is_tautology, render, run_words, tag_fate

WORKLOADS = ("closure", "chains", "halting")


@dataclass
class Job:
    """One CLI invocation, the oracle that judges it, and what it writes.

    `check` names the oracle and carries its expected values; `follow` asks
    run.py to create dependent jobs from this job's output; `writes` lists
    files and directories (relative to the work directory) that count as the
    job's output besides stdout.
    """

    id: str
    argv: list[str]
    check: dict
    writes: list[str] = field(default_factory=list)
    follow: dict | None = None


# --- closure ---------------------------------------------------------------

CALCULI = {
    "ks": ["x -> y -> x", "(x -> y -> z) -> (x -> y) -> x -> z"],
    "bci": ["(x -> y) -> (z -> x) -> z -> y", "(x -> y -> z) -> y -> x -> z", "x -> x"],
    "luk": ["((x -> y) -> z) -> (z -> x) -> u -> x"],
    "tb": ["x -> y -> x", "(x -> y) -> (y -> z) -> x -> z", "((x -> y) -> x) -> x"],
    "ksp": [
        "x -> y -> x",
        "(x -> y -> z) -> (x -> y) -> x -> z",
        "((x -> y) -> x) -> x",
    ],
}


def _imp(*parts):
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = (p, f)
    return f


THEOREMS = {
    "I": _imp("a", "a"),
    "K": _imp("a", "b", "a"),
    "S": _imp(_imp("a", "b", "c"), _imp("a", "b"), "a", "c"),
    "B": _imp(_imp("b", "c"), _imp("a", "b"), "a", "c"),
    "C": _imp(_imp("a", "b", "c"), "b", "a", "c"),
    "W": _imp(_imp("a", "a", "b"), "a", "b"),
    "syl": _imp(_imp("a", "b"), _imp("b", "c"), "a", "c"),
    "peirce": _imp(_imp(_imp("a", "b"), "a"), "a"),
    "KI": _imp("a", "b", "b"),
    "T": _imp("a", _imp("a", "b"), "b"),
}

# (calculus, depth, classic theorems, random misses).  Every pass asks for
# each listed theorem under a fresh seeded renaming, so what a pass costs and
# writes does not depend on the seed; the random goals are non-tautologies,
# which every sound calculus misses at full depth.
CLOSURE_PLAN = [
    ("ks", 4, ("I", "K", "S", "W", "B", "KI"), 1),
    ("bci", 3, ("I", "B", "C", "syl", "T"), 1),
    ("luk", 5, ("KI", "I"), 0),
    ("luk", 6, (), 1),
    ("tb", 3, ("K", "syl", "peirce", "KI"), 2),
    ("ksp", 3, ("S", "peirce", "B", "KI"), 4),
]

_NAMES = "abcdefghijklmnopqrstuvw"


def _renamed(rng: random.Random, f):
    """f with its variables renamed to distinct seeded one-letter names."""
    names = sorted(set(_leaves(f)))
    return _subst(f, dict(zip(names, rng.sample(_NAMES, len(names)))))


def _leaves(f):
    return [f] if isinstance(f, str) else _leaves(f[0]) + _leaves(f[1])


def _subst(f, mapping):
    if isinstance(f, str):
        return mapping[f]
    return (_subst(f[0], mapping), _subst(f[1], mapping))


def _random_formula(rng: random.Random, names: list[str], leaves: int):
    if leaves == 1:
        return rng.choice(names)
    split = rng.randint(1, leaves - 1)
    return (
        _random_formula(rng, names, split),
        _random_formula(rng, names, leaves - split),
    )


def random_non_tautology(rng: random.Random):
    """2-3 variables, 3-5 leaves, every variable used, not a tautology:
    underivable in every sound calculus, so the closure runs to full depth."""
    while True:
        names = rng.sample(_NAMES, rng.choice((2, 3)))
        f = _random_formula(rng, names, rng.randint(3, 5))
        if set(_leaves(f)) == set(names) and not is_tautology(f):
            return f


def closure_jobs(rng: random.Random, inputs: str) -> list[Job]:
    jobs = []
    for name, axioms in CALCULI.items():
        _write_json(os.path.join(inputs, f"{name}.json"), {"label": name, "axioms": axioms})
    for calc, depth, theorems, misses in CLOSURE_PLAN:
        goals = [(thm, _renamed(rng, THEOREMS[thm])) for thm in theorems]
        goals += [("random", random_non_tautology(rng)) for _ in range(misses)]
        for i, (label, goal) in enumerate(goals):
            jid = f"derive-{calc}-d{depth}-{i}-{label}"
            trace = f"jobs/{jid}.trace.json"
            jobs.append(
                Job(
                    jid,
                    ["derive", "--calculus", f"inputs/{calc}.json", "--goal", render(goal),
                     "--depth", str(depth), "--trace-out", trace],
                    {"oracle": "derive", "goal": render(goal),
                     "tautology": is_tautology(goal), "never_halts": False},
                    writes=[trace],
                    follow={"check_trace": {"calculus": f"inputs/{calc}.json",
                                            "trace": trace, "claimed": render(goal)}},
                )
            )
    return jobs


# --- tag systems -----------------------------------------------------------


def random_system(rng: random.Random, lengths: tuple[int, ...]) -> dict[str, str]:
    """Deletion-2 system over the first len(lengths) letters; the production
    lengths are a seeded permutation of `lengths`, the letters are drawn."""
    letters = "abc"[: len(lengths)]
    order = list(lengths)
    rng.shuffle(order)
    return {a: "".join(rng.choice(letters) for _ in range(n)) for a, n in zip(letters, order)}


def _write_system(inputs: str, name: str, prods: dict[str, str]) -> str:
    """Write a deletion-2 tag file; return its path relative to the work
    directory."""
    text = "d=2\n" + "".join(f"{a} -> {w}\n" for a, w in prods.items())
    _write_text(os.path.join(inputs, f"{name}.tag"), text)
    return f"inputs/{name}.tag"


def _word(rng: random.Random, prods: dict[str, str], n: int) -> str:
    return "".join(rng.choice(sorted(prods)) for _ in range(n))


# --- chains ----------------------------------------------------------------

CHAIN_SYSTEMS = 12
LEMMA7_INPUT = 6
LEMMA7_BUDGET = 8


def chains_jobs(rng: random.Random, inputs: str) -> list[Job]:
    jobs = [
        Job("lemma3-a3-l4", ["verify", "lemma3", "--alphabet", "3", "--max-len", "4"],
            {"oracle": "lemma3", "alphabet": 3, "max_len": 4}),
        Job("lemma6-a2-l4", ["verify", "lemma6", "--alphabet", "2", "--max-len", "4"],
            {"oracle": "lemma6", "alphabet": 2, "max_len": 4}),
        Job("lemma6-a1-l5", ["verify", "lemma6", "--alphabet", "1", "--max-len", "5"],
            {"oracle": "lemma6", "alphabet": 1, "max_len": 5}),
    ]
    # lemma7 runs on systems whose productions all have length 2, so words
    # keep their length and every chain costs about the same; lemma12 also
    # covers systems with productions of length 1 and 3.  Each shape fills
    # a block of 12 similar job times, so the median and tail job times
    # fall inside a block rather than on a boundary between two.
    systems = [random_system(rng, (2, 2, 2)) for _ in range(CHAIN_SYSTEMS)]
    systems += [random_system(rng, (1, 2, 3)) for _ in range(CHAIN_SYSTEMS)]
    for i, prods in enumerate(systems):
        path = _write_system(inputs, f"chains-{i}", prods)
        if i < CHAIN_SYSTEMS:
            word = _word(rng, prods, LEMMA7_INPUT)
            jobs.append(
                Job(f"lemma7-{i}",
                    ["verify", "lemma7", "--system", path, "--input", word,
                     "--budget", str(LEMMA7_BUDGET)],
                    {"oracle": "lemma7", "words": run_words(prods, 2, word, LEMMA7_BUDGET)})
            )
        jobs.append(
            Job(f"lemma12-{i}", ["verify", "lemma12", "--system", path],
                {"oracle": "lemma12", "productions": prods})
        )
    return jobs


# --- halting ---------------------------------------------------------------

# (production lengths, length of the long reduce input, derive depth) for
# each system of a pass.  The cost of a derive on a bundle grows steeply with
# production length and alphabet size, so the shapes are fixed; the
# productions are fixed too (see halting_jobs) and the seed draws the words.
HALTING_SYSTEMS = (
    ((1, 2), 6, 4),
    ((2, 2), 4, 3),
    ((1, 1, 2), 5, 3),
    ((1, 3), 4, 3),
    ((1, 2), 5, 4),
    ((2, 2), 6, 3),
    ((1, 1, 2), 4, 3),
    ((1, 3), 5, 3),
)
P0_AXIOMS = ["x -> y -> x"]
SHORT_INPUT = 3  # reduced, then derived on and checked by lemma9
LEMMA11_BUDGET = 3


def _lemma11_class(prods: dict[str, str], word: str) -> bool | None:
    """True when the run halts within LEMMA11_BUDGET - 1 steps, False when
    it does not halt within LEMMA11_BUDGET steps.  A run that halts in
    exactly LEMMA11_BUDGET steps gets a `fail` verdict at the seed commit
    although that is a budget miss (see README.md); such inputs are in
    neither class, so they are never drawn until that defect is fixed."""
    fate, steps = tag_fate(prods, 2, word, LEMMA11_BUDGET)
    if fate != "halts":
        return False
    return True if steps < LEMMA11_BUDGET else None


def _short_class(prods: dict[str, str], word: str) -> bool | None:
    """True when the run halts within two steps, False when it cycles."""
    fate, steps = tag_fate(prods, 2, word)
    if fate == "halts" and steps <= 2:
        return True
    return False if fate == "cycles" else None


def _words(prods: dict[str, str], length: int) -> list[str]:
    return ["".join(w) for w in itertools.product(sorted(prods), repeat=length)]


def halting_jobs(rng: random.Random, inputs: str) -> list[Job]:
    _write_json(os.path.join(inputs, "p0.json"), {"label": "weakening", "axioms": P0_AXIOMS})
    jobs = []
    # The productions are the same for every seed: their letters decide most
    # of what a bundle derive costs, and drawing them made the summed job
    # time of a pass move by 5% (coefficient of variation) from seed to seed,
    # against 2% when only the words are drawn.
    systems = random.Random("halting-systems")
    for i, (shape, long_input, depth) in enumerate(HALTING_SYSTEMS):
        # Even systems get inputs whose runs halt, odd ones inputs whose runs
        # do not: the two cost differently, so every pass has the same mix.
        # A short input that halts within two steps makes the target axiom
        # derivable at the chosen depth, so the number of check-trace jobs
        # is fixed too.
        halts = i % 2 == 0
        while True:
            prods = random_system(systems, shape)
            shorts = [w for w in _words(prods, SHORT_INPUT) if _short_class(prods, w) is halts]
            lemma11_words = [w for w in _words(prods, 2) if _lemma11_class(prods, w) is halts]
            if shorts and lemma11_words:
                break
        short = rng.choice(shorts)
        lemma11_word = rng.choice(lemma11_words)
        path = _write_system(inputs, f"halting-{i}", prods)
        words = [short, _word(rng, prods, long_input)]
        derive = {"derive": {"calculus": f"inputs/bundle-{i}.json", "depth": depth,
                             "never_halts": tag_fate(prods, 2, short)[0] == "cycles"}}
        for word, follow in zip(words, (derive, None)):
            jobs.append(
                Job(f"reduce-{i}-{word}",
                    ["reduce", "--system", path, "--input", word, "--p0", "inputs/p0.json"],
                    {"oracle": "reduce", "productions": prods, "input_len": len(word),
                     "p0_size": len(P0_AXIOMS)},
                    follow=follow)
            )
        jobs.append(
            Job(f"lemma9-{i}",
                ["verify", "lemma9", "--system", path, "--input", short, "--depth", "2",
                 "--p0", "inputs/p0.json"],
                {"oracle": "verify"})
        )
        out = f"jobs/lemma11-{i}.witness"
        jobs.append(
            Job(f"lemma11-{i}",
                ["verify", "lemma11", "--system", path, "--input", lemma11_word,
                 "--budget", str(LEMMA11_BUDGET), "--p0", "inputs/p0.json", "--output", out],
                {"oracle": "lemma11", "halts": halts},
                writes=[out])
        )
    return jobs


GENERATORS = {"closure": closure_jobs, "chains": chains_jobs, "halting": halting_jobs}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files under workdir/inputs and return one
    pass of root jobs.  The same (workload, seed) always gives the same
    files and jobs."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(os.path.join(workdir, "jobs"), exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, inputs)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
