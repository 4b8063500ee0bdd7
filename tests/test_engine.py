"""Engine tests: condensed detachment, closure levels, traces, chains, and
the literal-rule oracle that cross-checks the condensed representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import engine
from tagforge.codec import DEFAULT_HAT, code_letter, code_word
from tagforge.engine import (
    AxiomStep,
    Calculus,
    ChainProof,
    Derivable,
    DerivationTrace,
    DetachStep,
    GeneratorCapError,
    NotFoundWithinBudget,
    _GeneralisationIndex,
    calculus_from_json,
    calculus_to_json,
    chain_check,
    check_trace,
    closure_level,
    condensed_detach,
    derives,
    find_generators,
    naive_closure_oracle,
    trace_from_json,
    trace_to_json,
)
from tagforge.formulas import (
    Imp,
    Var,
    alpha_equal,
    apply_substitution,
    match_instance,
    parse_formula,
)

p = parse_formula
K = p("x -> y -> x")
S = p("(x -> (y -> z)) -> ((x -> y) -> (x -> z))")
K_CALC = Calculus("weakening", (K,))


def test_condensed_detach_examples():
    got = condensed_detach(K, K)
    # oracle: unify x against a fresh copy x2 -> (y2 -> x2) by hand
    assert alpha_equal(got, p("y -> (x2 -> (y2 -> x2))"))
    assert condensed_detach(Var("p"), K) is None
    assert alpha_equal(condensed_detach(p("x -> y"), Var("z")), Var("y"))


def test_closure_level_examples():
    assert len(closure_level(K_CALC, 0).generators) == 1
    lvl1 = closure_level(K_CALC, 1)
    assert any(
        alpha_equal(g.formula, p("y -> (x -> (y2 -> x))")) for g in lvl1.generators
    )
    assert closure_level(Calculus("empty", ()), 3).generators == ()


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


def test_chain_concat_validates_endpoints():
    a = code_letter(DEFAULT_HAT, 1)
    c1 = ChainProof((a,), ())
    assert ChainProof.concat([c1, c1]) == c1
    other = ChainProof((p("x -> x"),), ())
    with pytest.raises(ValueError):
        ChainProof.concat([c1, other])


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


def test_trace_json_round_trip():
    lvl = closure_level(K_CALC, 2)
    g = lvl.generators[-1]
    back = trace_from_json(trace_to_json(g.trace))
    assert back == g.trace
    assert check_trace(K_CALC, back, g.formula)


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
    assert alpha_equal(apply_substitution(u, major.right), got)


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
    # Skeleton-only keys made 75,025 checks here.
    real = engine.match_instance
    calls = 0

    def counting(candidate, pattern):
        nonlocal calls
        calls += 1
        return real(candidate, pattern)

    monkeypatch.setattr(engine, "match_instance", counting)
    assert len(closure_level(Calculus("ks", (K, S)), 4).generators) == 852
    assert calls <= 10_000
