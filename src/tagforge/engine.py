"""Derivability engine for calculi with modus ponens and substitution.

The derivable set of such a calculus is infinite (substitution alone sees to
that), so it is represented here up to substitution: each closure level holds
most-general generator formulas produced by condensed detachment, and
membership of a concrete formula means being an instance of some generator.
This representation is a choice of this engine, not a theorem; its coverage is
cross-checked empirically against `naive_closure_oracle`, which applies the
two rules literally over a finite substitution pool.

Forward subsumption, which drops a new generator that is an instance of a
retained one, asks a discrimination tree of the retained generators for
candidates instead of scanning them all.  Its keys keep the implication
skeleton and which positions hold the same variable, so most generators a
formula is not an instance of never reach `match_instance`; that still
decides each candidate, so the index changes what the closure costs, not
what it yields.

Every generator carries a `DerivationTrace` that an independent checker
(`check_trace`) re-validates using only the term-kernel primitives.  Negative
answers are always reported as "not found within budget", never as
underivability.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import count, islice, product
from typing import Iterator, Mapping, Sequence

from .formulas import (
    Formula,
    Imp,
    Substitution,
    Var,
    _Bindings,
    _apart_names,
    _build_banks,
    _unify_banks,
    apply_substitution,
    canonical_rename,
    match_instance,
    parse_formula,
    rename_apart,
    render_formula,
    variables,
)

__all__ = [
    "AxiomStep",
    "CAP_ENV_VAR",
    "Calculus",
    "ChainProof",
    "ClosureLevel",
    "DEFAULT_GENERATOR_CAP",
    "Derivable",
    "DerivationTrace",
    "DetachStep",
    "Generator",
    "GeneratorCapError",
    "NotFoundWithinBudget",
    "TraceStep",
    "calculus_from_json",
    "calculus_to_json",
    "chain_check",
    "chain_trace",
    "check_trace",
    "closure_level",
    "closure_levels",
    "derives",
    "find_generators",
    "load_calculus",
    "naive_closure_oracle",
    "trace_from_json",
    "trace_to_json",
]

DEFAULT_GENERATOR_CAP = 50_000
CAP_ENV_VAR = "TAGFORGE_GENERATOR_CAP"


class GeneratorCapError(RuntimeError):
    """The closure grew past the generator cap; the result is unusable, not
    silently truncated."""

    def __init__(self, level: int, count: int, cap: int):
        super().__init__(
            f"generator cap exceeded at level {level}: {count} generators, cap {cap}"
        )
        self.level = level
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Calculus:
    label: str
    axioms: tuple[Formula, ...]


@dataclass(frozen=True)
class AxiomStep:
    """An instance of an axiom: result == substitution applied to the axiom."""

    axiom: int
    substitution: Mapping[str, Formula]
    result: Formula


@dataclass(frozen=True)
class DetachStep:
    """Modus ponens on earlier steps, at the most general instance.

    The minor premise is renamed apart from the major's variables (via
    `rename_apart`, which is deterministic), the unifier equates the major's
    antecedent with the renamed minor, and result is the unifier applied to
    the major's consequent.  That is what `check_trace` re-derives.
    `_detach_step` builds it, without a renamed copy, from the bindings that
    decided the pair detaches, so a step costs no second unification.
    """

    major: int
    minor: int
    unifier: Mapping[str, Formula]
    result: Formula


TraceStep = AxiomStep | DetachStep


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Formula:
        return self.steps[-1].result


@dataclass(frozen=True)
class Generator:
    """A most-general derivable formula with its evidence."""

    formula: Formula
    trace: DerivationTrace
    level: int


@dataclass(frozen=True)
class ClosureLevel:
    level: int
    generators: tuple[Generator, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(g.formula for g in self.generators)


@dataclass(frozen=True)
class Derivable:
    trace: DerivationTrace
    generator: Formula
    level: int


@dataclass(frozen=True)
class NotFoundWithinBudget:
    depth: int


def _premise_bindings(major: Formula, minor: Formula) -> _Bindings | None:
    """How the pair detaches, or None when it does not: the bindings that
    unify the major's antecedent, read in variable bank 0, with the minor,
    read in bank 1, so the two formulas' variables are distinct without
    renaming either.  The engine's one unification; the builders below
    read its bindings."""
    if type(major) is not Imp:
        return None
    return _unify_banks(major.left, 0, minor, 1)


def _canonical_consequent(major: Imp, bound: _Bindings) -> Formula:
    """The major's consequent under the bindings, built once, straight into
    canonical names (x1, x2, ... in first-occurrence order)."""
    numbers = count(1)
    return _build_banks([(major.right, 0)], bound, lambda v, b: Var(f"x{next(numbers)}"))[0]


def _detach_step(major: Imp, minor: Formula, bound: _Bindings) -> tuple[Formula, Substitution]:
    """The result and unifier that a `DetachStep` of major and minor records,
    read off the bindings: the minor's variables are named as `rename_apart`
    would rename them apart from the major's, and the major's as written.
    So the step is what `check_trace` re-derives, without a renamed copy."""
    fresh = _apart_names(variables(minor), set(variables(major)))

    def name(v: Var, bank: int) -> Var:
        return fresh.get(v.name, v) if bank else v

    # Renamed minor variables avoid the major's, so no two keys meet.
    terms = {name(Var(n), b).name: t for b in (0, 1) for n, t in bound[b].items()}
    keys = sorted(terms)
    raw, *values = _build_banks([(major.right, 0), *(terms[k] for k in keys)], bound, name)
    return raw, dict(zip(keys, values))


def _shifted(trace: DerivationTrace, offset: int) -> list[TraceStep]:
    """The trace's steps with step references moved up by `offset`."""
    return [
        DetachStep(st.major + offset, st.minor + offset, st.unifier, st.result)
        if isinstance(st, DetachStep) else st
        for st in trace.steps
    ]


def _splice(
    major: DerivationTrace,
    minor: DerivationTrace,
    unifier: Substitution,
    result: Formula,
) -> DerivationTrace:
    steps = list(major.steps)
    steps += _shifted(minor, len(steps))
    steps.append(DetachStep(len(major.steps) - 1, len(steps) - 1, unifier, result))
    return DerivationTrace(tuple(steps))


# Implications at this depth are wildcards in index keys, so a key has at
# most 31 symbols; `closure_levels` says why the keys are bounded.
_INDEX_DEPTH = 4


class _GeneralisationIndex:
    """Discrimination tree over formulas, for forward subsumption.

    A formula's key is the preorder of its nodes down to `_INDEX_DEPTH`: ">"
    for an implication above the bound, "*" for an implication at the bound,
    and for a variable its first-occurrence number within the key.  A formula
    f can be an instance of a stored formula g only if g's key matches f:
    each ">" meets an implication, each "*" a whole implication, the first
    occurrence of a number any whole subterm, and each later occurrence of
    that number the identical subterm (nodes are interned, so that is one
    `is`).  So `candidates` returns a superset of the stored formulas that f
    is an instance of, and `match_instance` still decides each one.  Over
    the closures of the benchmark's five textbook calculi `subsumes` made
    179,351 `match_instance` calls with keys of the implication skeleton
    alone, and makes 20,543 with these; 2,251 of them succeed either way.
    """

    def __init__(self) -> None:
        # An inner trie node is a dict from key symbol to child; the child a
        # whole key ends in is the list of formulas stored under that key.
        # Positional slots or a flat [symbol, child, ...] list per node took
        # half the memory of dicts but made `candidates` 40-60% slower.
        self._root: dict = {}

    def add(self, f: Formula) -> None:
        node = self._root
        numbers: dict[Formula, int] = {}
        todo = [(f, 0)]
        while todo:
            t, depth = todo.pop()
            if type(t) is not Imp:
                symbol = numbers.setdefault(t, len(numbers))
            elif depth < _INDEX_DEPTH:
                symbol = ">"
                todo.append((t.right, depth + 1))
                todo.append((t.left, depth + 1))
            else:
                symbol = "*"
            child = node.get(symbol)
            if child is None:
                child = node[symbol] = {} if todo else []
            node = child
        node.append(f)

    def candidates(self, f: Formula) -> list[Formula]:
        out: list[Formula] = []
        # Each entry: an inner trie node, the next subterm of f to read
        # there, the subterms still to read after it as a linked list of
        # (term, rest) pairs, and the subterms of f bound to the key's
        # variable numbers so far.  A trie node's children all read subterms
        # at one depth, so ">" and "*" never meet in one node.
        todo = [(self._root, f, None, ())]
        while todo:
            node, t, rest, bound = todo.pop()
            for symbol, child in node.items():
                if type(symbol) is int:
                    if symbol == len(bound):
                        after = (*bound, t)
                    elif bound[symbol] is t:
                        after = bound
                    else:
                        continue
                elif type(t) is not Imp:
                    continue
                elif symbol == ">":
                    todo.append((child, t.left, (t.right, rest), bound))
                    continue
                else:
                    after = bound
                if rest is None:
                    out.extend(child)
                else:
                    todo.append((child, *rest, after))
        return out

    def subsumes(self, f: Formula) -> bool:
        """True when f is an instance of a stored formula."""
        return any(match_instance(f, g) is not None for g in self.candidates(f))


def closure_levels(calc: Calculus, *, subsumption: bool = True) -> Iterator[ClosureLevel]:
    """Yield closure levels 0, 1, 2, ... of the calculus.

    Level 0 holds the axioms; level n+1 adds every condensed detachment
    between level-n generators.  Generators are deduplicated by canonical
    renaming (equivalently, alpha-equivalence) and, unless `subsumption` is
    disabled, a new generator that is an instance of a retained one is
    dropped.  Output order is deterministic: majors then minors in discovery
    order, frontier pairs only.

    Each pair is unified once, by `_premise_bindings`.  Its result is built
    canonical from the bindings, which is what deduplication and subsumption
    read, and only a pair whose result is kept has its `DetachStep` built
    from the same bindings: on K+S to level 4 that is 850 of 4,900 pairs.

    The retained generators, earlier levels' and this level's alike, are
    kept in a `_GeneralisationIndex`.  Its candidates are a superset of the
    generators a formula is an instance of, and `match_instance` decides
    each one, so a formula is dropped exactly when a scan of all retained
    generators would drop it.  On K+S to level 4 that costs 5,647
    `match_instance` calls, 357 of which find a generalisation; keys
    without variable identity cost 75,025.  Keys stop at depth
    `_INDEX_DEPTH`: encoded formulas are exponentially larger as trees than
    as graphs, and a bounded key costs at most 31 steps to build for any
    formula.  Deeper keys prune more candidates but cost more memory per
    generator, and on the textbook calculi they did not make the closure
    measurably faster.  Without subsumption no index is built.

    A closure with more generators than the cap raises `GeneratorCapError`.
    The cap comes from the environment variable named by `CAP_ENV_VAR`
    (default `DEFAULT_GENERATOR_CAP`), and only this function reads it.
    """
    raw = os.environ.get(CAP_ENV_VAR)
    cap = int(raw) if raw else DEFAULT_GENERATOR_CAP
    gens: list[Generator] = []
    seen: set[Formula] = set()
    index = _GeneralisationIndex() if subsumption else None

    def keep(canon: Formula) -> bool:
        """Record a canonical formula; True when it is a new generator."""
        if canon in seen:
            return False
        seen.add(canon)
        if index is not None:
            if index.subsumes(canon):
                return False
            index.add(canon)
        return True

    for idx, ax in enumerate(calc.axioms):
        if keep(canonical_rename(ax)):
            gens.append(Generator(ax, DerivationTrace((AxiomStep(idx, {}, ax),)), 0))
    if len(gens) > cap:
        raise GeneratorCapError(0, len(gens), cap)
    yield ClosureLevel(0, tuple(gens))
    frontier = 0
    level = 0
    while True:
        level += 1
        # Generators kept at this level are appended to `gens` at once; the
        # pairs read only indices below `size`, so they wait for the next.
        size = len(gens)
        for mi in range(size):
            for ni in range(frontier if mi < frontier else 0, size):
                # Detach the trace finals (alpha-equal to the generator
                # formulas) so the recorded unifier re-validates against the
                # spliced steps.
                major, minor = gens[mi].trace, gens[ni].trace
                bound = _premise_bindings(major.final, minor.final)
                if bound is None:
                    continue
                canon = _canonical_consequent(major.final, bound)
                if not keep(canon):
                    continue
                raw, unifier = _detach_step(major.final, minor.final, bound)
                gens.append(Generator(canon, _splice(major, minor, unifier, raw), level))
                if len(gens) > cap:
                    raise GeneratorCapError(level, len(gens), cap)
        frontier = size
        yield ClosureLevel(level, tuple(gens))


def closure_level(calc: Calculus, n: int, *, subsumption: bool = True) -> ClosureLevel:
    if n < 0:
        raise ValueError("level must be nonnegative")
    return next(islice(closure_levels(calc, subsumption=subsumption), n, None))


def derives(calc: Calculus, goal: Formula, depth: int) -> Derivable | NotFoundWithinBudget:
    """Search levels 0..depth for a generator having `goal` as an instance.

    A hit yields the generator's trace (of which the goal is an instance); a
    miss is only a budget statement, never an underivability claim.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    ((_, hit),) = find_generators(calc, (goal,), depth)
    if hit is None:
        return NotFoundWithinBudget(depth)
    return Derivable(hit.trace, hit.formula, hit.level)


def find_generators(
    calc: Calculus, goals: Sequence[Formula], depth: int
) -> Iterator[tuple[Formula, Generator | None]]:
    """Each goal with the first generator of levels 0..depth having it as an
    instance, or None.  The goals share one closure run, which goes only as
    deep as the goals taken so far needed."""
    levels = islice(closure_levels(calc), depth + 1)
    gens: tuple[Generator, ...] = ()
    for goal in goals:
        hit = _first_instance(gens, goal)
        while hit is None and (lvl := next(levels, None)) is not None:
            hit = _first_instance(lvl.generators[len(gens) :], goal)
            gens = lvl.generators
        yield goal, hit


def _first_instance(generators: Sequence[Generator], goal: Formula) -> Generator | None:
    return next((g for g in generators if match_instance(goal, g.formula) is not None), None)


def check_trace(calc: Calculus, trace: DerivationTrace, claimed: Formula) -> bool:
    """Re-validate every step against the calculus and check that the final
    formula has `claimed` as an instance.

    Uses only rename_apart, apply_substitution and match_instance, and calls
    no unifier: independent of how the trace was produced.  Any malformed reference makes
    the trace invalid rather than raising.
    """
    steps = trace.steps
    if not steps:
        return False
    for i, st in enumerate(steps):
        if isinstance(st, AxiomStep):
            if not 0 <= st.axiom < len(calc.axioms):
                return False
            if apply_substitution(dict(st.substitution), calc.axioms[st.axiom]) != st.result:
                return False
        elif isinstance(st, DetachStep):
            if not (0 <= st.major < i and 0 <= st.minor < i):
                return False
            major = steps[st.major].result
            if type(major) is not Imp:
                return False
            minor = rename_apart(steps[st.minor].result, set(variables(major)))
            u = dict(st.unifier)
            if apply_substitution(u, major.left) != apply_substitution(u, minor):
                return False
            if apply_substitution(u, major.right) != st.result:
                return False
        else:
            return False
    return match_instance(claimed, steps[-1].result) is not None


@dataclass(frozen=True)
class ChainProof:
    """Waypoints C0..Cn with, for each i, a trace of a formula having
    Ci -> Ci+1 as an instance.  n = 0 states nothing beyond C0 itself."""

    waypoints: tuple[Formula, ...]
    links: tuple[DerivationTrace, ...]

    @staticmethod
    def concat(chains: Sequence["ChainProof"]) -> "ChainProof":
        if not chains:
            raise ValueError("cannot concatenate zero chains")
        waypoints = list(chains[0].waypoints)
        links = list(chains[0].links)
        for nxt in chains[1:]:
            if nxt.waypoints[0] != waypoints[-1]:
                raise ValueError("chain endpoints do not meet")
            waypoints.extend(nxt.waypoints[1:])
            links.extend(nxt.links)
        return ChainProof(tuple(waypoints), tuple(links))


def chain_trace(start: DerivationTrace, links: Sequence[DerivationTrace]) -> DerivationTrace:
    """`start` extended along the links: for each link, its steps and one
    `DetachStep` of the formula derived so far by the link's formula, built
    as the closure builds its steps.  A link that does not detach is a
    ValueError."""
    steps = list(start.steps)
    for link in links:
        derived = len(steps) - 1
        steps += _shifted(link, len(steps))
        bound = _premise_bindings(link.final, steps[derived].result)
        if bound is None:
            raise ValueError("a chain link does not detach the formula derived so far")
        raw, unifier = _detach_step(link.final, steps[derived].result, bound)
        steps.append(DetachStep(len(steps) - 1, derived, unifier, raw))
    return DerivationTrace(tuple(steps))


def chain_check(calc: Calculus, proof: ChainProof) -> bool:
    """Validate every link via check_trace against its waypoint implication."""
    w, links = proof.waypoints, proof.links
    if not w or len(links) != len(w) - 1:
        return False
    return all(
        check_trace(calc, link, Imp(w[i], w[i + 1])) for i, link in enumerate(links)
    )


def naive_closure_oracle(
    calc: Calculus,
    n: int,
    pool: Sequence[Formula],
    *,
    max_size: int = 100_000,
) -> set[Formula]:
    """Literal n-fold closure where substitution is restricted to total maps
    from a formula's variables into `pool`.

    Cross-validation oracle for the condensed representation: every formula
    this produces must be an instance of some generator at the same level or
    below.  Intended for small n only.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    pool = tuple(pool)
    current: set[Formula] = set(calc.axioms)
    for _ in range(n):
        nxt = set(current)
        for major in current:
            if type(major) is Imp and major.left in current:
                nxt.add(major.right)
        for f in current:
            names = variables(f)
            if not names:
                continue
            for combo in product(pool, repeat=len(names)):
                nxt.add(apply_substitution(dict(zip(names, combo)), f))
                if len(nxt) > max_size:
                    raise GeneratorCapError(n, len(nxt), max_size)
        current = nxt
    return current


def calculus_to_json(calc: Calculus) -> dict:
    return {"label": calc.label, "axioms": [render_formula(a) for a in calc.axioms]}


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _field(obj, key: str, kind: type, where: str):
    """obj[key], required to be of JSON type `kind`; errors name `where`."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be an object")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{where}: field {key!r} must be {_JSON_KINDS[kind]}")
    return value


def calculus_from_json(obj: dict) -> Calculus:
    label = _field(obj, "label", str, "calculus")
    axioms = _field(obj, "axioms", list, "calculus")
    if any(type(a) is not str for a in axioms):
        raise ValueError("calculus: field 'axioms' must hold formula strings")
    return Calculus(label, tuple(parse_formula(a) for a in axioms))


def _subst_to_json(subst: Mapping[str, Formula]) -> dict:
    return {name: render_formula(f) for name, f in sorted(subst.items())}


# The trace format: for each step kind, its class, then its fields in JSON
# order (also the class's field order), each with its JSON type.  An integer
# is a step or axiom number, an object a substitution, a string a formula.
_STEP_KINDS: dict[str, tuple[type, tuple[tuple[str, type], ...]]] = {
    "axiom": (AxiomStep, (("axiom", int), ("substitution", dict), ("result", str))),
    "detach": (
        DetachStep,
        (("major", int), ("minor", int), ("unifier", dict), ("result", str)),
    ),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _STEP_KINDS.items()}


def trace_to_json(trace: DerivationTrace) -> dict:
    steps = []
    for st in trace.steps:
        kind = _KIND_OF[type(st)]
        step = {"kind": kind}
        for key, json_type in _STEP_KINDS[kind][1]:
            value = getattr(st, key)
            if json_type is dict:
                value = _subst_to_json(value)
            elif json_type is str:
                value = render_formula(value)
            step[key] = value
        steps.append(step)
    return {"steps": steps}


def trace_from_json(obj: dict) -> DerivationTrace:
    """Read the trace format; a missing or mistyped field is a ValueError
    that names the step and the field."""
    steps: list[TraceStep] = []
    for i, raw in enumerate(_field(obj, "steps", list, "trace")):
        where = f"trace step {i}"
        kind = _field(raw, "kind", str, where)
        if kind not in _STEP_KINDS:
            raise ValueError(f"{where}: unknown trace step kind: {kind!r}")
        cls, fields = _STEP_KINDS[kind]
        values = []
        for key, json_type in fields:
            value = _field(raw, key, json_type, where)
            if json_type is dict:
                if any(type(t) is not str for t in value.values()):
                    raise ValueError(
                        f"{where}: field {key!r} must map names to formula strings"
                    )
                value = {name: parse_formula(text) for name, text in value.items()}
            elif json_type is str:
                value = parse_formula(value)
            values.append(value)
        steps.append(cls(*values))
    return DerivationTrace(tuple(steps))


def load_calculus(path: str) -> Calculus:
    with open(path, encoding="utf-8") as fh:
        return calculus_from_json(json.load(fh))
