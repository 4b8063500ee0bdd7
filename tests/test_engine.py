"""Engine tests: condensed detachment, closure levels, traces, chains, and
the literal-rule oracle that cross-checks the condensed representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import engine, formulas
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
    chain_trace,
    check_trace,
    closure_level,
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
    assert alpha_equal(got, p("y -> (x2 -> (y2 -> x2))"))
    assert condensed_detach(Var("p"), K) is None
    assert alpha_equal(condensed_detach(p("x -> y"), Var("z")), Var("y"))


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


def test_check_trace_needs_no_unifier(monkeypatch):
    # The checker re-derives each step by renaming apart, substituting and
    # matching; it must accept and reject the same traces with the kernel's
    # unification switched off.
    calc = Calculus("ks", (K, S))
    gens = closure_level(calc, 3).generators
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
    assert alpha_equal(trace.final, c)
    assert check_trace(calc, trace, c)
    # extending a trace keeps its steps
    assert chain_trace(chain_trace(start, links[:1]), links[1:]) == trace
    assert chain_trace(start, ()) == start
    # a link whose formula does not detach the formula derived so far
    with pytest.raises(ValueError):
        chain_trace(start, links[1:])


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
    assert alpha_equal(apply_substitution(u, major.right), got)


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


def test_closure_renames_apart_only_kept_pairs(monkeypatch):
    # Each frontier pair is unified once, and only a kept pair's step is
    # built from its bindings.  Unifying each kept pair a second time to
    # record its step made 5,750 unifications here.
    calls = {"_unify_banks": 0, "_detach_step": 0}
    for name in calls:

        def counting(*args, name=name, real=getattr(engine, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(engine, name, counting)
    gens = closure_level(Calculus("ks", (K, S)), 4).generators
    assert calls["_unify_banks"] == 4900
    assert calls["_detach_step"] == sum(g.level > 0 for g in gens) == 850


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
