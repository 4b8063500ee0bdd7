"""Engine tests: condensed detachment, closure levels, traces, chains, and
the literal-rule oracle that cross-checks the condensed representation."""

import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import engine, formulas
from tagforge.codec import DEFAULT_HAT, code_letter, code_word
from tagforge.engine import (
    AxiomStep,
    Calculus,
    ChainProof,
    ClosureLevel,
    Derivable,
    DerivationTrace,
    DetachStep,
    Generator,
    GeneratorCapError,
    NotFoundWithinBudget,
    _GeneralisationIndex,
    calculus_from_json,
    calculus_to_json,
    chain_check,
    chain_trace,
    check_trace,
    closure_level,
    closure_levels,
    derives,
    find_generators,
    naive_closure_oracle,
    trace_from_json,
    trace_to_json,
)
from tagforge.formulas import (
    Imp,
    Var,
    apply_substitution,
    canonical_rename,
    match_instance,
    parse_formula,
    rename_apart,
    unify,
    variables,
)
from tagforge.lemmas import collatz_system
from tagforge.reduction import build_reduction

p = parse_formula
K = p("x -> y -> x")
S = p("(x -> (y -> z)) -> ((x -> y) -> (x -> z))")
K_CALC = Calculus("weakening", (K,))


def condensed_detach(major, minor):
    """The closure's detachment of one pair: the most general consequent of
    modus ponens, in canonical form, or None when the pair does not detach.
    `closure_levels` reads it off these two functions."""
    bound = engine._premise_bindings(major, minor)
    return None if bound is None else engine._canonical_consequent(major, bound)


def test_condensed_detach_examples():
    got = condensed_detach(K, K)
    # oracle: unify x against a fresh copy x2 -> (y2 -> x2) by hand
    assert canonical_rename(got) is canonical_rename(p("y -> (x2 -> (y2 -> x2))"))
    assert condensed_detach(Var("p"), K) is None
    got = condensed_detach(p("x -> y"), Var("z"))
    assert canonical_rename(got) is canonical_rename(Var("y"))


# The major and the minor share variable names, so a binding read in the
# wrong bank would show.  Each result is the one renaming the minor apart
# gives.
@pytest.mark.parametrize(
    "major, minor, expected",
    [
        ("(x -> x) -> z", "y -> y -> y", None),  # occurs failure across banks
        ("(x -> x) -> x", "x -> y", "x1"),
        ("x -> x", "x -> x", "x1 -> x1"),
        ("(x -> y) -> x -> y", "y -> y -> x", "x1 -> x1 -> x2"),
    ],
)
def test_condensed_detach_shared_names(major, minor, expected):
    got = condensed_detach(p(major), p(minor))
    assert got is (None if expected is None else p(expected))


def test_closure_level_examples():
    assert len(closure_level(K_CALC, 0).generators) == 1
    lvl1 = closure_level(K_CALC, 1)
    want = canonical_rename(p("y -> (x -> (y2 -> x))"))
    assert any(canonical_rename(g.formula) is want for g in lvl1.generators)
    assert closure_level(Calculus("empty", ()), 3).generators == ()


def test_saturated_closure_is_not_walked_to_the_level():
    # Level 1 of {x -> x} adds nothing, so every later level holds the same
    # generators; the level asked for is reported as asked.
    calc = Calculus("i", (p("x -> x"),))
    walked = list(islice(closure_levels(calc), 6))
    assert all(lvl.generators == walked[0].generators for lvl in walked)
    assert closure_level(calc, 5) == walked[5]
    assert closure_level(calc, 10**12) == ClosureLevel(10**12, walked[0].generators)
    assert derives(calc, p("a -> b"), 10**12) == NotFoundWithinBudget(10**12)
    assert closure_level(Calculus("empty", ()), 10**12) == ClosureLevel(10**12, ())


def test_closure_monotone_and_deterministic():
    a = closure_level(K_CALC, 3)
    b = closure_level(K_CALC, 3)
    assert a.formulas == b.formulas
    prev = closure_level(K_CALC, 2)
    assert a.formulas[: len(prev.formulas)] == prev.formulas


def test_closure_cap_reported(monkeypatch):
    monkeypatch.setenv("TAGFORGE_GENERATOR_CAP", "30")
    with pytest.raises(GeneratorCapError):
        closure_level(Calculus("ks", (K, S)), 4)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("TAGFORGE_GENERATOR_CAP", "1")
    with pytest.raises(GeneratorCapError):
        closure_level(Calculus("ks", (K, S)), 2)
    monkeypatch.delenv("TAGFORGE_GENERATOR_CAP")
    closure_level(Calculus("ks", (K, S)), 2)


def test_derives_letter_and_word_codes_at_level_zero():
    v = derives(K_CALC, code_letter(DEFAULT_HAT, 1), 0)
    assert isinstance(v, Derivable) and v.level == 0
    for member in code_word(DEFAULT_HAT, "acec").formulas:
        v = derives(K_CALC, member, 0)
        assert isinstance(v, Derivable)
        assert check_trace(K_CALC, v.trace, member)


def test_find_generators_agrees_with_derives():
    # Deep before shallow, a repeat, and a miss, in one shared closure run.
    ks = Calculus("ks", (K, S))
    goals = (p("a -> a"), K, p("a -> a"), Var("a"), p("a -> b -> a"))
    found = list(find_generators(ks, goals, 3))
    assert [goal for goal, _ in found] == list(goals)
    for goal, hit in found:
        v = derives(ks, goal, 3)
        if hit is None:
            assert v == NotFoundWithinBudget(3)
        else:
            assert v == Derivable(hit.trace, hit.formula, hit.level)


def test_derives_negative_control():
    xx = p("x -> x")
    assert derives(K_CALC, xx, 5) == NotFoundWithinBudget(5)
    lvl = closure_level(K_CALC, 5)
    assert not any(match_instance(xx, g.formula) is not None for g in lvl.generators)


def test_closure_subsumption_flag_agrees():
    # with pruning disabled, everything retained must still be an instance of
    # some pruned-level generator, and vice versa for the retained subset
    pruned = closure_level(K_CALC, 3).formulas
    full = closure_level(K_CALC, 3, subsumption=False).formulas
    for f in full:
        assert any(match_instance(f, g) is not None for g in pruned)
    assert set(pruned) <= set(full) or all(
        any(match_instance(f, g) is not None for g in full) for f in pruned
    )


def test_check_trace_round_trip_and_mutations():
    two = Calculus("pair", (K, p("(a -> a) -> (b -> b)")))
    lvl = closure_level(two, 2)
    for g in lvl.generators:
        assert check_trace(two, g.trace, g.formula)
    g = next(g for g in lvl.generators if len(g.trace.steps) >= 3)
    steps = list(g.trace.steps)
    # corrupting the result of any single step invalidates the whole trace
    for i, step in enumerate(steps):
        bad = steps.copy()
        if isinstance(step, DetachStep):
            bad[i] = DetachStep(step.major, step.minor, step.unifier, p("x -> x"))
        else:
            bad[i] = AxiomStep(step.axiom, step.substitution, p("x -> x"))
        assert not check_trace(two, DerivationTrace(tuple(bad)), g.formula)
    # axiom index out of range
    assert not check_trace(
        two, DerivationTrace((AxiomStep(7, {}, K),)), K
    )
    # detachment whose minor does not unify
    broken = DerivationTrace(
        (
            AxiomStep(1, {}, two.axioms[1]),
            AxiomStep(1, {}, two.axioms[1]),
            DetachStep(0, 1, {}, p("b -> b")),
        )
    )
    assert not check_trace(two, broken, p("b -> b"))


def test_check_trace_needs_no_unifier(monkeypatch):
    # The checker re-derives each step by renaming apart, substituting and
    # matching; it must accept and reject the same traces with the kernel's
    # unification switched off.
    calc = Calculus("ks", (K, S))
    gens = closure_level(calc, 3).generators
    # Generators build their traces when first read, with the unifier, so
    # read them all before switching it off.
    for g in gens:
        g.trace
    g = next(g for g in gens if g.level > 0 and g.trace.steps[-1].unifier)
    *head, last = g.trace.steps
    mutated = DerivationTrace((*head, DetachStep(last.major, last.minor, {}, last.result)))
    assert not check_trace(calc, mutated, g.formula)

    def no_unifier(*args):
        raise AssertionError("check_trace called a unifier")

    for module, name in [
        (formulas, "_unify_banks"),
        (formulas, "_build_banks"),
        (formulas, "unify"),
        (engine, "_unify_banks"),
        (engine, "_build_banks"),
    ]:
        monkeypatch.setattr(module, name, no_unifier)
    assert all(check_trace(calc, g.trace, g.formula) for g in gens)
    assert not check_trace(calc, mutated, g.formula)


def test_chain_check_cases():
    a = code_letter(DEFAULT_HAT, 1)
    empty = ChainProof((a,), ())
    assert chain_check(K_CALC, empty)
    sub = match_instance(Imp(a, Imp(Var("q"), a)), K)
    link = DerivationTrace((AxiomStep(0, sub, Imp(a, Imp(Var("q"), a))),))
    good = ChainProof((a, Imp(Var("q"), a)), (link,))
    assert chain_check(K_CALC, good)
    corrupted = ChainProof((a, p("x -> x")), (link,))
    assert not chain_check(K_CALC, corrupted)
    assert not chain_check(K_CALC, ChainProof((), ()))


def test_chain_verdicts_kept_per_link_content():
    a = code_letter(DEFAULT_HAT, 1)
    sub = match_instance(Imp(a, Imp(Var("q"), a)), K)
    step = AxiomStep(0, sub, Imp(a, Imp(Var("q"), a)))
    good = ChainProof((a, Imp(Var("q"), a)), (DerivationTrace((step,)),))
    # An equal step built anew, with its own substitution dict, is one key.
    again = ChainProof(good.waypoints, (DerivationTrace((AxiomStep(0, dict(sub), step.result),)),))
    verdicts: dict = {}
    assert engine._chain_ok(K_CALC, good, verdicts)
    assert engine._chain_ok(K_CALC, again, verdicts)
    assert list(verdicts.values()) == [True]
    # A step of another kind is rejected, never raises, and is not kept.
    for odd in ("axiom", (0, sub, step.result), None):
        chain = ChainProof(good.waypoints, (DerivationTrace((step, odd)),))
        assert not engine._chain_ok(K_CALC, chain, verdicts)
        assert not chain_check(K_CALC, chain)
    assert list(verdicts.values()) == [True]


def test_chain_trace_detaches_along_links():
    # Axioms a -> b, b -> c and a, with a, b, c implications over p: the
    # start's axiom step, then per link its step and a detachment.
    a, b, c = p("p -> p"), p("(p -> p) -> p"), p("p -> p -> p")
    calc = Calculus("abc", (Imp(a, b), Imp(b, c), a))
    start, *links = (DerivationTrace((AxiomStep(i, {}, calc.axioms[i]),)) for i in (2, 0, 1))
    trace = chain_trace(start, links)
    assert [type(st) for st in trace.steps] == [
        AxiomStep, AxiomStep, DetachStep, AxiomStep, DetachStep
    ]
    assert [(st.major, st.minor) for st in trace.steps[2::2]] == [(1, 0), (3, 2)]
    assert canonical_rename(trace.final) is canonical_rename(c)
    assert check_trace(calc, trace, c)
    # extending a trace keeps its steps
    assert chain_trace(chain_trace(start, links[:1]), links[1:]) == trace
    assert chain_trace(start, ()) == start
    # a link whose formula does not detach the formula derived so far
    with pytest.raises(ValueError):
        chain_trace(start, links[1:])


def test_naive_oracle_examples():
    out = naive_closure_oracle(K_CALC, 1, (Var("p"),))
    assert p("p -> p -> p") in out
    assert naive_closure_oracle(K_CALC, 0, (Var("p"),)) == {K}


@pytest.mark.parametrize(
    "axioms", [(K,), (K, S)], ids=["weakening", "weakening+distribution"]
)
def test_naive_oracle_soundness(axioms):
    # the core cross-check: the condensed representation covers the literal one
    calc = Calculus("probe", axioms)
    pool = (Var("p"), p("p -> p"))
    for n in (1, 2):
        generators = closure_level(calc, n).generators
        for f in naive_closure_oracle(calc, n, pool):
            assert any(match_instance(f, g.formula) is not None for g in generators)


@pytest.mark.parametrize(
    "axioms,kept",
    [
        (["x -> y -> x", "a -> b -> a", "x -> x -> x", "x -> y -> x"], [0]),
        (["p -> p -> p", "x -> y -> x", "q -> q -> q"], [0, 1]),
    ],
    ids=["renamings-and-instances-dropped", "instance-kept-before-generalisation"],
)
def test_level0_keeps_new_axioms_under_their_own_names(axioms, kept):
    calc = Calculus("axioms", tuple(p(a) for a in axioms))
    gens = closure_level(calc, 0).generators
    assert [g.formula for g in gens] == [calc.axioms[i] for i in kept]
    assert [g.trace.steps for g in gens] == [
        (AxiomStep(i, {}, calc.axioms[i]),) for i in kept
    ]


def test_trace_json_round_trip():
    ks = Calculus("ks", (K, S))
    collatz = build_reduction(collatz_system(), K_CALC, "aa").full
    for calc, n in ((ks, 3), (collatz, 2)):
        for g in closure_level(calc, n).generators:
            back = trace_from_json(trace_to_json(g.trace))
            assert back == g.trace
            assert check_trace(calc, back, g.formula)


def test_trace_from_json_rejects_unknown_step_kind():
    obj = trace_to_json(closure_level(K_CALC, 1).generators[-1].trace)
    obj["steps"][1]["kind"] = "cut"
    with pytest.raises(ValueError) as err:
        trace_from_json(obj)
    assert str(err.value) == "trace step 1: unknown trace step kind: 'cut'"


def test_calculus_json_round_trip():
    calc = Calculus("pair", (K, S))
    assert calculus_from_json(calculus_to_json(calc)) == calc


# --- property tests ----------------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])
_vars = st.builds(Var, _names)
_formulas = st.recursive(_vars, lambda f: st.builds(Imp, f, f), max_leaves=8)


@settings(max_examples=50)
@given(_formulas, _formulas)
def test_detach_result_is_detachable_instance(major, minor):
    got = condensed_detach(major, minor)
    if got is None:
        return
    # soundness: some instance pair of (major, minor) performs plain modus
    # ponens yielding an instance of the result
    from tagforge.formulas import apply_substitution, rename_apart, unify, variables

    fresh = rename_apart(minor, set(variables(major)))
    u = unify(major.left, fresh)
    assert u is not None
    assert apply_substitution(u, major.left) == apply_substitution(u, fresh)
    assert canonical_rename(apply_substitution(u, major.right)) is canonical_rename(got)


# The kernel's `unify` as it was before it shared the two-bank loop with
# condensed detachment, kept verbatim so the differential tests below compare
# that loop with an independent unifier, not with itself.


def _walk(t, subst):
    while type(t) is Var:
        nxt = subst.get(t.name)
        if nxt is None:
            break
        t = nxt
    return t


def _occurs(name, t, subst):
    keys = subst.keys()
    visited = set()
    stack = [t]
    while stack:
        g = _walk(stack.pop(), subst)
        names = g._names
        # A subterm with no bound variable reads as written.  An unbound
        # variable, which _walk ends on, always takes this branch.
        if names is not None and keys.isdisjoint(names):
            if name in names:
                return True
        elif id(g) not in visited:
            visited.add(id(g))
            stack.append(g.right)
            stack.append(g.left)
    return False


def _reference_unify(a, b):
    subst = {}
    stack = [(a, b)]
    seen = set()
    while stack:
        s, t = stack.pop()
        s = _walk(s, subst)
        t = _walk(t, subst)
        if s is t:
            continue
        s_var = type(s) is Var
        t_var = type(t) is Var
        if s_var and t_var:
            if s.name != t.name:
                # Bind the right-hand variable so left-side names survive.
                subst[t.name] = s
        elif t_var:
            if _occurs(t.name, s, subst):
                return None
            subst[t.name] = s
        elif s_var:
            if _occurs(s.name, t, subst):
                return None
            subst[s.name] = t
        else:
            key = (id(s), id(t))
            if key in seen:
                continue
            seen.add(key)
            stack.append((s.right, t.right))
            stack.append((s.left, t.left))
    memo = {}
    return {v: _resolve(subst[v], subst, memo) for v in sorted(subst)}


def _resolve(t, subst, memo):
    t = _walk(t, subst)
    if type(t) is Var:
        return t
    r = memo.get(id(t))
    if r is None:
        left = _resolve(t.left, subst, memo)
        right = _resolve(t.right, subst, memo)
        r = t if left is t.left and right is t.right else Imp(left, right)
        memo[id(t)] = r
    return r


def _detach_step_renaming_apart(major, minor):
    """The result and unifier of a detachment step as the engine recorded
    them before `_detach_step` read them off the bank bindings: rename the
    minor apart from the major, unify, substitute."""
    if type(major) is not Imp:
        return None
    u = _reference_unify(major.left, rename_apart(minor, set(variables(major))))
    if u is None:
        return None
    return apply_substitution(u, major.right), u


def _detach_renaming_apart(major, minor):
    """Condensed detachment as the engine did it before it unified in two
    variable banks: the renaming-apart step, renamed canonically."""
    step = _detach_step_renaming_apart(major, minor)
    return None if step is None else canonical_rename(step[0])


# One name pool for both formulas, holding names that `rename_apart` makes,
# so a renamed minor can meet the major's own names.
_clash_leaves = st.builds(Var, st.sampled_from(["x", "y", "z", "x_2", "x_3", "y_2"]))


def _chain(n):
    """v0 -> v1 -> ... with n distinct variables."""
    f = Var(f"v{n - 1}")
    for i in range(n - 2, -1, -1):
        f = Imp(Var(f"v{i}"), f)
    return f


@st.composite
def _clash_dags(draw):
    """A formula whose nodes reuse earlier ones, so its DAG shares subterms;
    the chain of up to 40 names puts some nodes over the cap on the names a
    node stores.  Each node's tree size is kept under 4,000."""
    width = draw(st.integers(1, 40))
    nodes = [*draw(st.lists(_clash_leaves, min_size=1, max_size=6)), _chain(width)]
    sizes = [1] * (len(nodes) - 1) + [2 * width - 1]
    for _ in range(draw(st.integers(1, 30))):
        index = st.integers(0, len(nodes) - 1)
        i, j = draw(index), draw(index)
        if sizes[i] + sizes[j] < 4_000:
            nodes.append(Imp(nodes[i], nodes[j]))
            sizes.append(sizes[i] + sizes[j] + 1)
    return nodes[-1]


_clash_formulas = (
    st.recursive(_clash_leaves, lambda f: st.builds(Imp, f, f), max_leaves=12) | _clash_dags()
)


@settings(max_examples=300)
@given(_clash_formulas, _clash_formulas)
def test_condensed_detach_matches_renaming_apart(major, minor):
    assert condensed_detach(major, minor) is _detach_renaming_apart(major, minor)


@settings(max_examples=300)
@given(_clash_formulas, _clash_formulas)
def test_unify_matches_reference_unifier(a, b):
    got, want = unify(a, b), _reference_unify(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())


_BCI = Calculus(
    "bci", (p("(x -> y) -> (z -> x) -> z -> y"), p("(x -> y -> z) -> y -> x -> z"), p("x -> x"))
)
_LUKASIEWICZ = Calculus("luk", (p("((x -> y) -> z) -> (z -> x) -> u -> x"),))


@pytest.mark.parametrize(
    "calc, level, unified",
    [
        (Calculus("ks", (K, S)), 3, 3352),
        (_BCI, 2, 2401),
        (_LUKASIEWICZ, 4, 856),
        (build_reduction(collatz_system(), K_CALC, "aaa").full, 1, 4),
    ],
    ids=["ks-3", "bci-2", "luk-4", "collatz-aaa-1"],
)
def test_condensed_detach_matches_renaming_apart_on_closures(calc, level, unified):
    finals = [g.trace.final for g in closure_level(calc, level).generators]
    hits = 0
    for major in finals:
        for minor in finals:
            got = condensed_detach(major, minor)
            assert got is _detach_renaming_apart(major, minor)
            hits += got is not None
            bound = engine._premise_bindings(major, minor)
            want = _detach_step_renaming_apart(major, minor)
            assert (bound is None) == (got is None) == (want is None)
            if bound is not None:
                step = engine._detach_step(major, minor, bound)
                assert step[0] is want[0]
                assert list(step[1].items()) == list(want[1].items())
    assert hits == unified


def _count_calls(monkeypatch, *names):
    """Counts of calls of the named `engine` functions and of
    `_GeneralisationIndex.subsumes`, from now on."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        owner = _GeneralisationIndex if name == "subsumes" else engine

        def counting(*args, name=name, real=getattr(owner, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_closure_renames_apart_only_kept_pairs(monkeypatch):
    # Each frontier pair is unified once, and no step is built until a
    # trace is read; then each detached generator's step is built once.
    # Unifying each kept pair a second time to record its step made 5,750
    # unifications here; trying every frontier pair, including those of a
    # spent fixed-consequent major, made 4,900; trying a major whose
    # consequent is subsumed made 3,658.  Building each kept pair's step as
    # the closure ran made 850 `_detach_step` calls in it.
    calls = _count_calls(monkeypatch, "_unify_banks", "_detach_step")
    gens = closure_level(Calculus("ks", (K, S)), 4).generators
    assert calls["_unify_banks"] == 3388
    assert calls["_detach_step"] == 0
    for g in gens:
        g.trace
    assert calls["_detach_step"] == sum(g.level > 0 for g in gens) == 850


def test_closure_spends_majors_with_subsumed_consequents(monkeypatch):
    # Trying every pair of a major whose consequent is an instance of a
    # retained generator made 6,040 unifications and 2,008 `subsumes` calls.
    calls = _count_calls(monkeypatch, "_premise_bindings", "subsumes")
    assert len(closure_level(_LUKASIEWICZ, 6).generators) == 262
    assert calls == {"_premise_bindings": 3497, "subsumes": 794}


def test_closure_without_subsumption_tries_every_pair(monkeypatch):
    calls = _count_calls(monkeypatch, "_premise_bindings", "subsumes")
    assert len(closure_level(_KS, 3, subsumption=False).generators) == 112
    assert calls == {"_premise_bindings": 321, "subsumes": 0}


def test_closure_spends_major_by_subsumption(monkeypatch):
    # y -> x -> y is an instance of K, so every detachment by the second
    # axiom is dropped: the closure spends it at its first detaching pair,
    # having asked only about its consequent as written.
    calc = Calculus("k-kk", (K, p("x -> y -> x -> y")))
    asked = []

    class Recorded(_GeneralisationIndex):
        def subsumes(self, f):
            hit = super().subsumes(f)
            asked.append((f, hit))
            return hit

    monkeypatch.setattr(engine, "_GeneralisationIndex", Recorded)
    _assert_same_levels(calc, 4)
    assert (p("y -> x -> y"), True) in asked


def _closure_all_pairs(calc):
    """Closure levels as `closure_levels` made them before any major was
    spent: every frontier pair is tried, and forward subsumption asks the
    dict-per-node trie `_DictIndex`."""
    gens = []
    seen = set()
    index = _DictIndex()

    def keep(canon):
        if canon in seen:
            return False
        seen.add(canon)
        if any(match_instance(canon, g) is not None for g in index.candidates(canon)):
            return False
        index.add(canon)
        return True

    for idx, ax in enumerate(calc.axioms):
        if keep(canonical_rename(ax)):
            gens.append(Generator(ax, DerivationTrace((AxiomStep(idx, {}, ax),)), 0))
    yield ClosureLevel(0, tuple(gens))
    frontier = 0
    level = 0
    while True:
        level += 1
        size = len(gens)
        for mi in range(size):
            for ni in range(frontier if mi < frontier else 0, size):
                major, minor = gens[mi].trace, gens[ni].trace
                bound = engine._premise_bindings(major.final, minor.final)
                if bound is None:
                    continue
                canon = engine._canonical_consequent(major.final, bound)
                if not keep(canon):
                    continue
                raw, unifier = engine._detach_step(major.final, minor.final, bound)
                gens.append(Generator(canon, engine._splice(major, minor, unifier, raw), level))
        frontier = size
        yield ClosureLevel(level, tuple(gens))


def _assert_same_levels(calc, depth):
    for want, got in zip(islice(_closure_all_pairs(calc), depth + 1), closure_levels(calc)):
        assert got.level == want.level
        assert len(got.generators) == len(want.generators)
        for g, w in zip(got.generators, want.generators):
            assert g.formula is w.formula and g.level == w.level
            assert trace_to_json(g.trace) == trace_to_json(w.trace)


_KS = Calculus("ks", (K, S))
_TB = Calculus("tb", (K, p("(x -> y) -> (y -> z) -> x -> z"), p("((x -> y) -> x) -> x")))
_KSP = Calculus("ksp", (K, S, p("((x -> y) -> x) -> x")))


def test_derive_miss_builds_no_step(monkeypatch):
    # A miss reads no trace, so it builds none; building each kept pair's
    # step as the closure ran made 850 `_detach_step` calls here.
    calls = _count_calls(monkeypatch, "_detach_step")
    assert derives(_KS, p("a -> b"), 4) == NotFoundWithinBudget(4)
    assert calls["_detach_step"] == 0


def test_derive_hit_builds_only_its_ancestry(monkeypatch):
    # W is found at level 2; its trace detaches three times.  Building each
    # kept pair's step as the closure ran made 16 calls here.
    calls = _count_calls(monkeypatch, "_detach_step")
    v = derives(_KS, p("(a -> a -> b) -> a -> b"), 4)
    assert isinstance(v, Derivable) and v.level == 2
    assert calls["_detach_step"] == sum(isinstance(st, DetachStep) for st in v.trace.steps) == 3
    assert check_trace(_KS, v.trace, p("(a -> a -> b) -> a -> b"))


def test_derive_miss_searches_last_level_without_index(monkeypatch):
    # Levels 0..3 unify 211 pairs and ask the index 115 times; level 4 is
    # searched, and only the majors whose consequent has a -> b as an
    # instance are tried.  Building level 4 unified 3,388 pairs and asked
    # the index 1,180 times.
    calls = _count_calls(monkeypatch, "_premise_bindings", "subsumes")
    closure_level(_KS, 3)
    assert calls == {"_premise_bindings": 211, "subsumes": 115}
    calls.update(_premise_bindings=0, subsumes=0)
    assert derives(_KS, p("a -> b"), 4) == NotFoundWithinBudget(4)
    assert calls == {"_premise_bindings": 559, "subsumes": 115}


def test_goals_hitting_one_last_level_pair_share_its_generator(monkeypatch):
    # Neither goal is an instance of K; both are instances of K detached by
    # K, x1 -> x2 -> x3 -> x2, the one pair of level 1.  The third goal
    # misses, without trying the pair again.
    goals = (p("a -> b -> c -> b"), p("(a -> a) -> b -> b -> b"), p("a -> b"))
    calls = _count_calls(monkeypatch, "_premise_bindings", "_detach_step")
    (_, first), (_, second), (_, third) = find_generators(K_CALC, goals, 1)
    assert first is second and first.level == 1 and third is None
    assert first.formula is p("x1 -> x2 -> x3 -> x2")
    assert calls == {"_premise_bindings": 1, "_detach_step": 0}
    # Building the trace unifies the pair's trace finals again.
    for goal in goals[:2]:
        assert check_trace(K_CALC, first.trace, goal)
    second.trace
    assert calls == {"_premise_bindings": 2, "_detach_step": 1}


def test_derive_miss_builds_only_the_closed_levels_consequents(monkeypatch):
    # The last level matches the goal under each pair's bindings and builds
    # no consequent that misses, so a miss builds exactly the consequents of
    # the levels it closes.  Building each pair's consequent to match the
    # goal against it built 1,126 on BCI and 400 on K+S.
    calls = _count_calls(monkeypatch, "_premise_bindings", "_canonical_consequent")
    closure_level(_BCI, 2)
    assert calls == {"_premise_bindings": 64, "_canonical_consequent": 64}
    calls.update(_premise_bindings=0, _canonical_consequent=0)
    assert derives(_BCI, p("(a -> b) -> b -> a"), 3) == NotFoundWithinBudget(3)
    assert calls == {"_premise_bindings": 1126, "_canonical_consequent": 64}
    calls.update(_premise_bindings=0, _canonical_consequent=0)
    closure_level(_KS, 3)
    assert calls["_canonical_consequent"] == 139
    calls.update(_premise_bindings=0, _canonical_consequent=0)
    assert derives(_KS, p("a -> b"), 4) == NotFoundWithinBudget(4)
    assert calls == {"_premise_bindings": 559, "_canonical_consequent": 139}


def test_later_goal_hits_a_pair_an_earlier_goal_missed(monkeypatch):
    # a -> b is an instance of K's consequent, so it tries the one pair of
    # level 1 and misses it; the pair is not built.  The second goal unifies
    # it again and builds its consequent, which the third goal then shares.
    goals = (p("a -> b"), p("a -> b -> c -> b"), p("(a -> a) -> b -> b -> b"))
    calls = _count_calls(monkeypatch, "_premise_bindings", "_canonical_consequent")
    got = list(find_generators(K_CALC, goals, 1))
    assert calls == {"_premise_bindings": 2, "_canonical_consequent": 1}
    (_, first), (_, second), (_, third) = got
    assert first is None and second is third and second.formula is p("x1 -> x2 -> x3 -> x2")
    want = list(_find_generators_reference(K_CALC, goals, 1))
    assert want[0][1] is None
    for (_, hit), (_, ref) in zip(got[1:], want[1:]):
        assert (hit.level, hit.formula, hit.trace) == (ref.level, ref.formula, ref.trace)


def test_find_generators_rejects_a_negative_depth():
    goals = (p("a -> b -> a"),)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        list(find_generators(K_CALC, goals, -1))
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        derives(K_CALC, goals[0], -1)


def test_goals_after_a_miss_match_building_every_level():
    # a -> b tries every last-level pair whose major's consequent it is an
    # instance of and hits none; each goal after it is a generator first
    # kept at the last level, 13 of them on pairs it tried and left unbuilt.
    new = closure_level(_KS, 3).generators[len(closure_level(_KS, 2).generators) :]
    goals = (p("a -> b"), *(g.formula for g in new))
    got = list(find_generators(_KS, goals, 3))
    want = list(_find_generators_reference(_KS, goals, 3))
    assert got[0][1] is None is want[0][1]
    for (_, hit), (_, ref) in zip(got[1:], want[1:]):
        assert hit is not None and hit.level == ref.level == 3
        assert hit.formula is ref.formula and hit.trace == ref.trace


def _find_generators_reference(calc, goals, depth):
    """`find_generators` as it was before it searched its last level: it
    builds every level to `depth` and takes the first instance."""
    levels = engine._levels_to(calc, depth)
    gens = ()
    for goal in goals:
        hit = next((g for g in gens if match_instance(goal, g.formula) is not None), None)
        while hit is None and (lvl := next(levels, None)) is not None:
            new = lvl.generators[len(gens) :]
            hit = next((g for g in new if match_instance(goal, g.formula) is not None), None)
            gens = lvl.generators
        yield goal, hit


# Each textbook calculus with the deepest level the reference builds in
# under a second: BCI's level 4 outgrows the generator cap, and TB's takes
# seconds.
_TEXTBOOK_DEPTHS = {"ks": (_KS, 4), "bci": (_BCI, 3), "luk": (_LUKASIEWICZ, 6),
                    "tb": (_TB, 3), "ksp": (_KSP, 4)}
_textbook_levels = {}


@st.composite
def _textbook_goal(draw, name, depth):
    """A goal for `find_generators` on a textbook calculus at `depth`: an
    instance of a generator that first appears at a drawn level, most
    often the last, or a small formula, most often a miss."""
    calc, top = _TEXTBOOK_DEPTHS[name]
    if name not in _textbook_levels:
        _textbook_levels[name] = list(islice(closure_levels(calc), top + 1))
    levels = _textbook_levels[name]
    if draw(st.integers(0, 3)) == 0:
        return draw(_small)
    level = draw(st.sampled_from([depth, depth, depth + 1, draw(st.integers(0, depth))]))
    level = min(level, top)
    before = len(levels[level - 1].generators) if level else 0
    new = levels[level].generators[before:] or levels[level].generators
    if not new:
        return draw(_small)
    g = draw(st.sampled_from(new))
    subst = draw(st.dictionaries(st.sampled_from(variables(g.formula)), _small, max_size=3))
    return apply_substitution(subst, g.formula)


@st.composite
def _textbook_query(draw):
    name = draw(st.sampled_from(sorted(_TEXTBOOK_DEPTHS)))
    depth = draw(st.integers(0, _TEXTBOOK_DEPTHS[name][1]))
    goals = draw(st.lists(_textbook_goal(name, depth), min_size=1, max_size=4))
    if draw(st.booleans()):
        goals.append(draw(st.sampled_from(goals)))
    return _TEXTBOOK_DEPTHS[name][0], tuple(goals), depth


@settings(max_examples=100, deadline=None)
@given(_textbook_query())
def test_find_generators_matches_building_every_level(query):
    calc, goals, depth = query
    got = list(find_generators(calc, goals, depth))
    want = list(_find_generators_reference(calc, goals, depth))
    assert [goal for goal, _ in got] == [goal for goal, _ in want] == list(goals)
    for (_, hit), (_, ref) in zip(got, want):
        assert (hit is None) == (ref is None)
        if hit is not None:
            assert (hit.level, hit.formula) == (ref.level, ref.formula)
            assert hit.trace == ref.trace


_detaching = {}


def _detaching_pairs(name):
    """Each detaching pair of closure levels 0..2 of a textbook calculus:
    the major and the pair's bindings."""
    if name not in _detaching:
        fs = [g.formula for g in closure_level(_TEXTBOOK_DEPTHS[name][0], 2).generators]
        pairs = ((f, engine._premise_bindings(f, m)) for f in fs for m in fs)
        _detaching[name] = [(f, bound) for f, bound in pairs if bound is not None]
    return _detaching[name]


def _matches_built_consequent(goal, major, bound):
    got = formulas._instance_in_banks(goal, major.right, 0, bound)
    want = match_instance(goal, engine._canonical_consequent(major, bound)) is not None
    return got, want


# Goal variables include canonical names, which the matcher must read as
# the goal's own, not as the consequent's.
_goal_small = st.recursive(
    st.builds(Var, st.sampled_from(["a", "b", "x1", "x2"])),
    lambda f: st.builds(Imp, f, f),
    max_leaves=5,
)


@st.composite
def _pair_and_goal(draw):
    """A detaching pair and a goal: the pair's result, an instance of it, a
    small formula, or a goal with a repeated variable."""
    name = draw(st.sampled_from(sorted(_TEXTBOOK_DEPTHS)))
    major, bound = draw(st.sampled_from(_detaching_pairs(name)))
    result = engine._canonical_consequent(major, bound)
    names = variables(result)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        goal = result
    elif kind == 1:
        goal = apply_substitution(
            draw(st.dictionaries(st.sampled_from(names), _goal_small, max_size=3)), result
        )
    elif kind == 2:
        goal = draw(_goal_small)
    elif kind == 3:
        collapse = st.builds(Var, st.sampled_from(["a", "b"]))
        goal = apply_substitution({v: draw(collapse) for v in names}, result)
    else:
        t = draw(_goal_small)
        goal = Imp(t, t)
    return goal, major, bound


@settings(max_examples=500, deadline=None)
@given(_pair_and_goal())
def test_instance_in_banks_matches_the_built_consequent(case):
    got, want = _matches_built_consequent(*case)
    assert got == want


@pytest.mark.parametrize("name", sorted(_TEXTBOOK_DEPTHS))
def test_instance_in_banks_on_every_detaching_pair(name):
    a, b = Var("a"), Var("b")
    hits = Counter()
    for major, bound in _detaching_pairs(name):
        result = engine._canonical_consequent(major, bound)
        collapsed = apply_substitution(dict.fromkeys(variables(result), a), result)
        for goal in (result, collapsed, Imp(a, a), Imp(a, b), Imp(Imp(a, b), Imp(b, a))):
            got, want = _matches_built_consequent(goal, major, bound)
            assert got == want
            hits[got] += 1
    assert hits[True] and hits[False]


def test_traces_do_not_depend_on_read_order():
    forwards = closure_level(_KS, 3).generators
    backwards = closure_level(_KS, 3).generators
    read_backwards = [trace_to_json(g.trace) for g in reversed(backwards)]
    assert [trace_to_json(g.trace) for g in forwards] == read_backwards[::-1]
    assert forwards == backwards


def test_deep_ancestry_builds_without_recursion():
    # Each generator detaches its predecessor by K, so its ancestry is a
    # chain longer than the recursion limit; the formulas alternate between
    # K and x1 -> K.
    k = Generator(K, DerivationTrace((AxiomStep(0, {}, K),)), 0)
    g = k
    for level in range(1, sys.getrecursionlimit() + 100):
        bound = engine._premise_bindings(g.formula, K)
        g = Generator._detached(engine._canonical_consequent(g.formula, bound), level, g, k)
    trace = g.trace
    assert len(trace.steps) == 2 * g.level + 1
    assert canonical_rename(trace.final) is canonical_rename(g.formula)
    assert check_trace(K_CALC, trace, g.formula)


# The closure workload's calculi at its depths.
@pytest.mark.parametrize(
    "calc, depth",
    [(_KS, 4), (_BCI, 3), (_LUKASIEWICZ, 6), (_TB, 3), (_KSP, 3)],
    ids=["ks-4", "bci-3", "luk-6", "tb-3", "ksp-3"],
)
def test_closure_matches_all_pairs_reference(calc, depth):
    _assert_same_levels(calc, depth)


# Majors whose two sides share no variable, as axioms and as the shapes
# detachment makes of them.
_disjoint_sides = st.sampled_from(
    [p("x -> y -> y"), p("(x -> x) -> y -> y"), p("(x -> y) -> z"), p("x -> (y -> z) -> y")]
)
# K and x -> x, and majors whose consequent is an instance of one of them,
# with sides that share a variable or not.
_subsumed_consequents = st.sampled_from(
    [K, p("x -> x"), p("z -> x -> y -> x"), p("x -> y -> x -> y"), p("(x -> y) -> x -> x")]
)
_small = st.recursive(_vars, lambda f: st.builds(Imp, f, f), max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_disjoint_sides | _subsumed_consequents | _small, min_size=1, max_size=3),
    st.integers(1, 3),
)
def test_closure_with_fixed_consequent_majors_matches_reference(axioms, depth):
    calc = Calculus("small", tuple(axioms))
    # Stop before a level grows past a few hundred generators.
    for lvl in islice(closure_levels(calc), depth + 1):
        if len(lvl.generators) > 150:
            depth = lvl.level
            break
    _assert_same_levels(calc, depth)


class _SkeletonIndex:
    """The index whose keys kept only the implication skeleton: "*" for a
    variable or for any subterm at the depth bound."""

    def __init__(self):
        self._root = [None, None]

    def add(self, f):
        node = self._root
        todo = [(f, 0)]
        while todo:
            t, depth = todo.pop()
            if type(t) is Imp and depth < 4:
                slot = 1
                todo.append((t.right, depth + 1))
                todo.append((t.left, depth + 1))
            else:
                slot = 0
            if node[slot] is None:
                node[slot] = [None, None] if todo else []
            node = node[slot]
        node.append(f)

    def candidates(self, f):
        out = []
        todo = [(self._root, f, 0, None)]
        while todo:
            (star, imp), t, depth, rest = todo.pop()
            if star is not None:
                if rest is None:
                    out.extend(star)
                else:
                    todo.append((star, *rest))
            if imp is not None and type(t) is Imp and depth < 4:
                todo.append((imp, t.left, depth + 1, (t.right, depth + 1, rest)))
        return out


class _DictIndex:
    """`_GeneralisationIndex` as it was before it kept unshared key tails
    whole: one dict per inner node, whatever its number of children."""

    def __init__(self):
        self._root = {}

    def add(self, f):
        node = self._root
        numbers = {}
        todo = [(f, 0)]
        while todo:
            t, depth = todo.pop()
            if type(t) is not Imp:
                symbol = numbers.setdefault(t, len(numbers))
            elif depth < 4:
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

    def candidates(self, f):
        out = []
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


# Terms up to 24 leaves reach well below the index's depth bound of 4.
_deep = st.recursive(_vars, lambda f: st.builds(Imp, f, f), max_leaves=24)


@settings(max_examples=200)
@given(
    st.lists(_deep, min_size=1, max_size=8),
    _deep,
    st.dictionaries(_names, _deep, max_size=3),
    st.integers(0, 7),
)
def test_index_candidates_cover_generalisations(gens, other, subst, pick):
    index = _GeneralisationIndex()
    skeleton = _SkeletonIndex()
    for g in gens:
        index.add(g)
        skeleton.add(g)
    instance = apply_substitution(subst, gens[pick % len(gens)])
    for f in (other, instance):
        wanted = {g for g in gens if match_instance(f, g) is not None}
        assert wanted <= set(index.candidates(f)) <= set(skeleton.candidates(f))
        assert index.subsumes(f) == bool(wanted)
    assert index.subsumes(instance)


def _wrap(f):
    # four implications above f put f at the index's depth bound
    for _ in range(4):
        f = Imp(f, Var("u"))
    return f


def test_index_prunes_by_skeleton():
    deep = _wrap(p("(x -> y) -> z"))
    index = _GeneralisationIndex()
    for f in (p("x"), p("x -> x"), p("(x -> y) -> x"), deep):
        index.add(f)
    assert index.candidates(p("y")) == [p("x")]
    assert set(index.candidates(p("y -> z"))) == {p("x")}
    # the key of `deep` has a wildcard where the query differs, so it is a
    # candidate, and matching rejects it
    shallow = _wrap(p("w -> z"))
    assert deep in index.candidates(shallow)
    assert match_instance(shallow, deep) is None


def test_index_keys_keep_variable_identity():
    index = _GeneralisationIndex()
    index.add(p("x -> y -> x"))
    # The second x meets c, not the a its first occurrence bound.
    assert index.candidates(p("a -> b -> c")) == []
    assert index.candidates(p("(a -> a) -> b -> a -> a")) == [p("x -> y -> x")]
    # "*" stands for an implication at the depth bound, never a variable.
    deep = _wrap(p("x -> y"))
    index.add(deep)
    assert deep not in index.candidates(_wrap(p("v")))
    assert deep in index.candidates(_wrap(p("v -> v")))


def test_closure_prunes_subsumption_checks(monkeypatch):
    # Skeleton-only keys made 70,267 checks here.
    real = engine.match_instance
    calls = 0

    def counting(candidate, pattern):
        nonlocal calls
        calls += 1
        return real(candidate, pattern)

    monkeypatch.setattr(engine, "match_instance", counting)
    assert len(closure_level(Calculus("ks", (K, S)), 4).generators) == 852
    assert calls <= 10_000


def _with_last_leaf(f, leaf):
    """f with its rightmost leaf replaced by `leaf`: a key that leaves f's
    at its last symbol, or, below the depth bound, f's key again."""
    if type(f) is Var:
        return leaf
    return Imp(f.left, _with_last_leaf(f.right, leaf))


@st.composite
def _trie_contents(draw):
    """Stored formulas whose keys share long prefixes: each drawn formula
    with an alpha-variant (the same key) and with its last leaf replaced."""
    base = draw(st.lists(_deep, min_size=1, max_size=6))
    out = list(base)
    for f in base:
        out.append(rename_apart(f, set(variables(f))))
        out.append(_with_last_leaf(f, draw(_small)))
        out.append(_wrap(_with_last_leaf(f, draw(_vars))))
    return draw(st.permutations(out))


@settings(max_examples=300)
@given(
    _trie_contents(),
    _deep,
    st.dictionaries(_names, _deep, max_size=3),
    st.integers(0, 30),
)
def test_index_candidates_match_dict_trie(stored, other, subst, pick):
    # Edges split where keys arrive, so the trie's shape depends on the
    # order of insertion; its candidates must not.
    index = _GeneralisationIndex()
    backwards = _GeneralisationIndex()
    reference = _DictIndex()
    for g in stored:
        index.add(g)
        reference.add(g)
    for g in reversed(stored):
        backwards.add(g)
    instance = apply_substitution(subst, stored[pick % len(stored)])
    for f in (other, instance, *stored):
        want = Counter(reference.candidates(f))
        assert Counter(index.candidates(f)) == want
        assert Counter(backwards.candidates(f)) == want


def test_index_is_path_compressed(monkeypatch):
    # With one dict per key symbol the trie had 3,958 dicts here, 3,468 of
    # them with a single child.
    made = []

    class Recorded(_GeneralisationIndex):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(engine, "_GeneralisationIndex", Recorded)
    gens = closure_level(_KS, 4).generators
    root = made[0]._root
    dicts, edges, stored, stack = 0, 0, [], [root]
    while stack:
        node = stack.pop()
        if type(node) is list:
            stored += node
            continue
        dicts += 1
        assert node is root or len(node) >= 2
        for first, (symbols, child) in node.items():
            edges += 1
            assert type(symbols) is tuple and symbols[0] == first
            assert type(child) in (dict, list)
            stack.append(child)
    assert Counter(stored) == Counter(canonical_rename(g.formula) for g in gens)
    assert (dicts, edges) == (491, 1118)
