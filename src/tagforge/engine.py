"""Derivability engine for calculi with modus ponens and substitution.

The derivable set of such a calculus is infinite (substitution alone sees to
that), so it is represented here up to substitution: each closure level holds
most-general generator formulas produced by condensed detachment, and
membership of a concrete formula means being an instance of some generator.
This representation is a choice of this engine, not a theorem; its coverage is
cross-checked empirically against `naive_closure_oracle`, which applies the
two rules literally over a finite substitution pool.

Every generator has a `DerivationTrace` that an independent checker
(`check_trace`) re-validates using only the term-kernel primitives.  The
closure records each generator's two parents and builds its trace only when
it is read, so a search that misses builds none.  Negative answers are always
reported as "not found within budget", never as underivability.
"""

from __future__ import annotations

import json
import os
from itertools import count, islice, product
from typing import Iterator, Mapping, NamedTuple, Sequence

from .formulas import (
    Formula,
    Imp,
    Substitution,
    Var,
    _Bindings,
    _apart_names,
    _build_banks,
    _instance_in_banks,
    _record,
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
        super().__init__(f"generator cap exceeded at level {level}: {count} generators, cap {cap}")
        self.level, self.count, self.cap = level, count, cap


@_record
class Calculus(NamedTuple):
    label: str
    axioms: tuple[Formula, ...]


@_record
class AxiomStep(NamedTuple):
    """An instance of an axiom: result == substitution applied to the axiom."""

    axiom: int
    substitution: Mapping[str, Formula]
    result: Formula


@_record
class DetachStep(NamedTuple):
    """Modus ponens on earlier steps, at the most general instance.

    The minor premise is renamed apart from the major's variables (via
    `rename_apart`, which is deterministic), the unifier equates the major's
    antecedent with the renamed minor, and result is the unifier applied to
    the major's consequent.  That is what `check_trace` re-derives.
    `_detach_step` builds it, without a renamed copy, from the bank bindings
    of `_premise_bindings`.  The closure builds no step while it runs: a
    generator's steps are built from its parents' traces when its trace is
    first read (`_build_trace`).
    """

    major: int
    minor: int
    unifier: Mapping[str, Formula]
    result: Formula


TraceStep = AxiomStep | DetachStep


@_record
class DerivationTrace(NamedTuple):
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Formula:
        return self.steps[-1].result


class Generator:
    """A most-general derivable formula with its evidence.

    A generator is built with its trace, as each axiom's is.  One that
    `closure_levels` detached records its major and minor parent generators
    instead, and `trace` builds its `DerivationTrace` the first time it is
    read (see `_build_trace`), then keeps it.  Equality is over formula,
    trace and level.
    """

    __slots__ = ("formula", "level", "_trace", "_major", "_minor")

    def __init__(self, formula: Formula, trace: DerivationTrace, level: int):
        self.formula = formula
        self.level = level
        self._trace: DerivationTrace | None = trace
        self._major: Generator | None = None
        self._minor: Generator | None = None

    @classmethod
    def _detached(
        cls, formula: Formula, level: int, major: Generator, minor: Generator
    ) -> Generator:
        g = cls.__new__(cls)
        g.formula, g.level, g._trace, g._major, g._minor = formula, level, None, major, minor
        return g

    @property
    def trace(self) -> DerivationTrace:
        if self._trace is None:
            _build_trace(self)
        return self._trace

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.formula == other.formula
            and self.level == other.level
            and self.trace == other.trace
        )

    def __repr__(self) -> str:
        return f"Generator(formula={self.formula!r}, trace={self.trace!r}, level={self.level!r})"


@_record
class ClosureLevel(NamedTuple):
    level: int
    generators: tuple[Generator, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(g.formula for g in self.generators)


@_record
class Derivable(NamedTuple):
    trace: DerivationTrace
    generator: Formula
    level: int


@_record
class NotFoundWithinBudget(NamedTuple):
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


def _build_trace(g: Generator) -> None:
    """Give g, and each ancestor of g that has no trace yet, its trace: the
    parents' traces spliced, then the `DetachStep` of the parents' trace
    finals, unified again by `_premise_bindings`.  That is the step the
    closure would have built when it kept g, so traces do not depend on
    when they are read.  Parents are built before children, with an
    explicit stack: an ancestry may be deeper than Python's recursion
    limit."""
    todo = [g]
    while todo:
        top = todo[-1]
        if top._trace is not None:
            todo.pop()
            continue
        major, minor = top._major, top._minor
        if major._trace is None or minor._trace is None:
            todo += [p for p in (minor, major) if p._trace is None]
            continue
        todo.pop()
        f, m = major._trace.final, minor._trace.final
        raw, unifier = _detach_step(f, m, _premise_bindings(f, m))
        top._trace = _splice(major._trace, minor._trace, unifier, raw)
        top._major = top._minor = None


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
    159,905 `match_instance` calls with keys of the implication skeleton
    alone, and makes 14,531 with these; 883 of them succeed either way.

    The tree is path-compressed (a radix trie): an edge holds a run of key
    symbols, every inner node but the root branches, and the rest of a key
    that no other key shares is one edge.  Edges split where keys arrive, so
    the shape depends on the order of `add` calls; the candidates do not.
    """

    def __init__(self) -> None:
        # An inner node is a dict from the first symbol of each outgoing edge
        # to the edge, a pair of its non-empty symbol tuple and its child: an
        # inner node, or the list of formulas stored under the key the edge
        # ends.  After K+S to level 4 the trie has 491 dicts and 1,118 edges;
        # one dict per key symbol made 3,958 dicts, 3,468 of them with a
        # single child.  Positional slots or a flat [symbol, child, ...] list
        # per node took half the memory of dicts but made `candidates` 40-60%
        # slower.
        self._root: dict = {}

    def add(self, f: Formula) -> None:
        key: list = []
        numbers: dict[Formula, int] = {}
        todo = [(f, 0)]
        while todo:
            t, depth = todo.pop()
            if type(t) is not Imp:
                key.append(numbers.setdefault(t, len(numbers)))
            elif depth < _INDEX_DEPTH:
                key.append(">")
                todo.append((t.right, depth + 1))
                todo.append((t.left, depth + 1))
            else:
                key.append("*")
        # Keys are preorders, so no key is a proper prefix of another: a key
        # that leaves an edge does so at a symbol both have, and a key that
        # follows an edge to a formula list ends there.
        node = self._root
        i = 0
        while True:
            edge = node.get(key[i])
            if edge is None:
                node[key[i]] = (tuple(key[i:]), [f])
                return
            symbols, child = edge
            j = 1
            while j < len(symbols) and symbols[j] == key[i + j]:
                j += 1
            if j < len(symbols):
                # Split the edge where the new key leaves it.
                node[key[i]] = (
                    symbols[:j],
                    {symbols[j]: (symbols[j:], child), key[i + j]: (tuple(key[i + j :]), [f])},
                )
                return
            if type(child) is list:
                child.append(f)
                return
            node = child
            i += j

    def candidates(self, f: Formula) -> list[Formula]:
        out: list[Formula] = []
        # Each entry: an inner trie node, the next subterm of f to read
        # there, the subterms still to read after it as a linked list of
        # (term, rest) pairs, and the subterms of f bound to the key's
        # variable numbers so far.
        todo = [(self._root, f, None, ())]
        while todo:
            node, start, rest, bound = todo.pop()
            for symbols, child in node.values():
                t, more, binds = start, rest, bound
                for symbol in symbols:
                    if type(symbol) is int:
                        if symbol == len(binds):
                            binds = (*binds, t)
                        elif binds[symbol] is not t:
                            break
                    elif type(t) is not Imp:
                        break
                    elif symbol == ">":
                        t, more = t.left, (t.right, more)
                        continue
                    if more is not None:
                        t, more = more
                else:
                    if type(child) is list:
                        out.extend(child)
                    else:
                        todo.append((child, t, more, binds))
        return out

    def subsumes(self, f: Formula) -> bool:
        """True when f is an instance of a stored formula."""
        return any(match_instance(f, g) is not None for g in self.candidates(f))


def _majors(size: int, frontier: int) -> Iterator[tuple[int, range]]:
    """The pair order of a closure level: each major in order, with its
    minors.  Generators 0..size-1 are the levels so far, and 0..frontier-1
    of them were there before the last level.  A major of the last level
    detaches every generator; an older one only the last level's, since
    earlier levels tried its pairs with the others."""
    for mi in range(size):
        yield mi, range(frontier if mi < frontier else 0, size)


def closure_levels(calc: Calculus, *, subsumption: bool = True) -> Iterator[ClosureLevel]:
    """Yield closure levels 0, 1, 2, ... of the calculus.

    Level 0 holds the axioms; level n+1 adds every condensed detachment
    between level-n generators.  Generators are deduplicated by canonical
    renaming (equivalently, alpha-equivalence) and, unless `subsumption` is
    disabled, a new generator that is an instance of a retained one is
    dropped.  Output order is deterministic: majors then minors in discovery
    order, frontier pairs only (`_majors`).

    Each pair is unified once, by `_premise_bindings`, on the generators'
    formulas.  Its result is built canonical from the bindings, which is
    what deduplication and subsumption read.  A kept result becomes a
    generator that records its two parents and builds no step: its trace is
    built only when it is read, and only with its ancestry.  Mgus are unique
    up to renaming and the canonical result reads only their structure, so
    unifying a generator's canonical formula instead of its trace's final,
    which is alpha-equal, gives the same result.

    Every detachment by a major A -> B is s(B) for a unifier s, so a major
    is spent, and tried no more, in two cases, neither of which changes
    what is kept.  If A and B share no variable, s leaves B as written and
    every detachment is one formula, so the major is spent at its first
    detaching pair, kept or not.  With subsumption, each level asks the
    index at a major's first detaching pair whether B is an instance of a
    retained generator.  If so, every s(B) is one too and `keep` would drop
    it; the index only grows, so that holds at every later level, and the
    major is spent before any result is built.  B is asked as written: keys
    number variables by first occurrence and `match_instance` reads the
    query's variables as constants, so names do not matter.  On K+S to
    level 4 the closure unifies 3,388 pairs (3,658 without the second case,
    4,900 without either) and builds no step; reading all 852 traces then
    builds 850.  Łukasiewicz's axiom to level 6 unifies 3,497 (6,040).

    The retained generators, earlier levels' and this level's alike, are
    kept in a `_GeneralisationIndex`.  Its candidates are a superset of the
    generators a formula is an instance of, and `match_instance` decides
    each one, so a formula is dropped exactly when a scan of all retained
    generators would drop it.  On K+S to level 4 that costs 5,346
    `match_instance` calls, 263 of which find a generalisation; keys
    without variable identity cost 70,267.  Keys stop at depth
    `_INDEX_DEPTH`: encoded formulas are exponentially larger as trees than
    as graphs, and a bounded key costs at most 31 steps to build for any
    formula.  Deeper keys prune more candidates but cost more memory per
    generator, and on the textbook calculi they did not make the closure
    measurably faster.  The index is path-compressed, so adding a generator
    makes at most one inner node.  Without subsumption no index is built.

    A closure with more generators than the cap raises `GeneratorCapError`.
    The cap comes from the environment variable named by `CAP_ENV_VAR`
    (default `DEFAULT_GENERATOR_CAP`), and only this function reads it.
    """
    raw = os.environ.get(CAP_ENV_VAR) or str(DEFAULT_GENERATOR_CAP)
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, not {raw!r}")
    cap = int(raw)
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
    # For each major that has detached, whether it is spent once its current
    # pair is tried (see above).
    spent: dict[int, bool] = {}
    frontier = 0
    level = 0
    while True:
        level += 1
        # Generators kept at this level are appended to `gens` at once; the
        # pairs read only indices below `size`, so they wait for the next.
        size = len(gens)
        for mi, minors in _majors(size, frontier):
            if spent.get(mi):
                continue
            major = gens[mi]
            f = major.formula
            ask = index is not None
            for ni in minors:
                minor = gens[ni]
                bound = _premise_bindings(f, minor.formula)
                if bound is None:
                    continue
                if ask:
                    ask = False
                    if index.subsumes(f.right):
                        spent[mi] = True
                        break
                if mi not in spent:
                    spent[mi] = set(variables(f.left)).isdisjoint(variables(f.right))
                canon = _canonical_consequent(f, bound)
                if keep(canon):
                    gens.append(Generator._detached(canon, level, major, minor))
                    if len(gens) > cap:
                        raise GeneratorCapError(level, len(gens), cap)
                if spent[mi]:
                    break
        frontier = size
        yield ClosureLevel(level, tuple(gens))


def _levels_to(calc: Calculus, depth: int, subsumption: bool = True) -> Iterator[ClosureLevel]:
    """Closure levels 0..depth, ending early after the first level from 1 on
    that adds no generator: it tries no pair at the next level, so every
    later level holds the same generators."""
    size = -1
    for lvl in islice(closure_levels(calc, subsumption=subsumption), depth + 1):
        yield lvl
        if len(lvl.generators) == size:
            return
        size = len(lvl.generators)


def closure_level(calc: Calculus, n: int, *, subsumption: bool = True) -> ClosureLevel:
    if n < 0:
        raise ValueError("level must be nonnegative")
    for lvl in _levels_to(calc, n, subsumption):
        pass
    return ClosureLevel(n, lvl.generators)


def derives(calc: Calculus, goal: Formula, depth: int) -> Derivable | NotFoundWithinBudget:
    """Search levels 0..depth for a generator having `goal` as an instance,
    as `find_generators` does, which also says how level `depth` is
    searched rather than built.

    A hit yields the generator's trace (of which the goal is an instance); a
    miss is only a budget statement, never an underivability claim.
    """
    ((_, hit),) = find_generators(calc, (goal,), depth)
    if hit is None:
        return NotFoundWithinBudget(depth)
    return Derivable(hit.trace, hit.formula, hit.level)


def find_generators(
    calc: Calculus, goals: Sequence[Formula], depth: int
) -> Iterator[tuple[Formula, Generator | None]]:
    """Each goal with the first generator of levels 0..depth having it as an
    instance, or None.  The goals share one closure run, which goes only as
    deep as the goals taken so far needed, and no deeper than the level at
    which the closure stops growing.  A negative depth raises `ValueError`
    when the first goal is asked for.

    Levels 0..depth-1 are closed by `closure_levels`.  Level `depth` is
    never a parent, so it is searched, not built: pair by pair in the
    closure's order (`_majors`), up to the first pair whose canonical
    consequent has the goal as an instance.  The search keeps only the
    generators it returns, so it needs no deduplication, no index and no
    cap: `GeneratorCapError` comes only from levels 0..depth-1.  Every
    detachment by a major A -> B is s(B) for some unifier s, so a goal that
    is not an instance of B skips the major.

    The first hit is the generator the closure would keep first at that
    level, with the same parents and so the same trace.  The closure drops
    a result, or spends a major, only where a generator it kept earlier
    generalises the result: as a duplicate, as subsumed, or because the
    major's every result is one.  The goal would be an instance of that
    earlier generator, which is of an earlier level, where the goal was
    missed, or is an earlier pair's result, where the search would have
    stopped.

    A pair's consequent is not built to be matched: the goal is matched
    against the major's consequent read under the pair's bindings
    (`_instance_in_banks`), and only the pair it hits is built, as one
    `Generator`.  The goals of one call share the closed levels and each
    built last-level pair's `Generator`: a built pair is decided by matching
    its formula, without unifying again, and two goals that hit one pair get
    its one `Generator`, so a trace that both read is built once.  A pair
    that no goal has hit is unified again by each later goal that reaches
    its major.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    levels = _levels_to(calc, max(depth - 1, 0))
    gens: tuple[Generator, ...] = ()
    # The closed levels' generators, and how many of them are older than
    # the last closed level.
    frontier = 0
    # Each last-level pair a goal has hit, by (major, minor) index.
    built: dict[tuple[int, int], Generator] = {}
    for goal in goals:
        hit = _first_instance(gens, goal)
        while hit is None and (lvl := next(levels, None)) is not None:
            hit = _first_instance(lvl.generators[len(gens) :], goal)
            frontier, gens = len(gens), lvl.generators
        if hit is None and depth > 0:
            hit = _search_level(gens, frontier, depth, goal, built)
        yield goal, hit


def _search_level(
    gens: Sequence[Generator],
    frontier: int,
    level: int,
    goal: Formula,
    built: dict[tuple[int, int], Generator],
) -> Generator | None:
    """The first result of the closure level after `gens` that has `goal` as
    an instance, or None (see `find_generators`); a pair it builds is added
    to `built`."""
    # No major is a variable: every goal is an instance of one, so it would
    # have been found at a closed level.
    for mi, minors in _majors(len(gens), frontier):
        major = gens[mi]
        f = major.formula
        if not minors or match_instance(goal, f.right) is None:
            continue
        for ni in minors:
            g = built.get((mi, ni))
            if g is not None:
                if match_instance(goal, g.formula) is not None:
                    return g
                continue
            minor = gens[ni]
            bound = _premise_bindings(f, minor.formula)
            if bound is not None and _instance_in_banks(goal, f.right, 0, bound):
                g = Generator._detached(_canonical_consequent(f, bound), level, major, minor)
                built[mi, ni] = g
                return g
    return None


def _first_instance(generators: Sequence[Generator], goal: Formula) -> Generator | None:
    return next((g for g in generators if match_instance(goal, g.formula) is not None), None)


def check_trace(calc: Calculus, trace: DerivationTrace, claimed: Formula) -> bool:
    """Re-validate every step against the calculus and check that the final
    formula has `claimed` as an instance.

    Uses only rename_apart, apply_substitution and match_instance, and calls
    no unifier: independent of how the trace was produced.  Any malformed
    reference makes the trace invalid rather than raising.
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


@_record
class ChainProof(NamedTuple):
    """Waypoints C0..Cn with, for each i, a trace of a formula having
    Ci -> Ci+1 as an instance.  n = 0 states nothing beyond C0 itself."""

    waypoints: tuple[Formula, ...]
    links: tuple[DerivationTrace, ...]


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
    """Validate every link via check_trace against its waypoint implication,
    each distinct pair of link trace and claim once."""
    return _chain_ok(calc, proof, {})


def _step_key(st: TraceStep) -> tuple | None:
    """All `check_trace` reads of a step; nodes are interned, so equal keys
    are equal steps.  None for a step of another kind."""
    if type(st) is AxiomStep:
        return (0, st.axiom, frozenset(st.substitution.items()), st.result)
    if type(st) is DetachStep:
        return (1, st.major, st.minor, frozenset(st.unifier.items()), st.result)
    return None


def _chain_ok(calc: Calculus, proof: ChainProof, verdicts: dict) -> bool:
    """chain_check, keeping `check_trace`'s verdict on each distinct pair of
    link trace and claim in `verdicts`.  The verdict reads only the calculus
    and the pair's content, so chains checked against `calc`, and no other
    calculus, may share one `verdicts`.  A link with a step of another kind
    is checked and not kept."""
    w, links = proof.waypoints, proof.links
    if not w or len(links) != len(w) - 1:
        return False
    for i, link in enumerate(links):
        claimed = Imp(w[i], w[i + 1])
        key = (tuple(map(_step_key, link.steps)), claimed)
        ok = verdicts.get(key)
        if ok is None:
            ok = check_trace(calc, link, claimed)
            if None not in key[0]:
                verdicts[key] = ok
        if not ok:
            return False
    return True


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
