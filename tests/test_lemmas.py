"""Verification suite tests: chain builders, closure characterization,
and halting equivalence."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import engine, lemmas
from tagforge.codec import (
    CODE_VARIABLE,
    DEFAULT_HAT,
    AlphabeticFormula,
    HatTemplate,
    code_word,
    decode,
    default_hat_candidates,
    dot,
    dot_code,
    right_nested,
)
from tagforge.engine import (
    AxiomStep,
    Calculus,
    ChainProof,
    Derivable,
    DerivationTrace,
    DetachStep,
    chain_check,
    chain_trace,
    check_trace,
    closure_level,
    derives,
    find_generators,
)
from tagforge.formulas import (
    Imp,
    Var,
    apply_substitution,
    match_instance,
    parse_formula,
    rename_apart,
    render_formula,
    unify,
    variables,
)
from tagforge.lemmas import (
    LemmaReport,
    WEAKENING_AXIOM,
    WEAKENING_CALCULUS,
    _first_short_code_level,
    build_chain_lemma6,
    build_run_chain,
    check_halting_equivalence,
    check_inclusion,
    check_lemma1,
    check_lemma3,
    check_production,
    collatz_system,
    enumerate_alphabetic,
    growing_system,
    rebracketing_calculus,
    run_lemma,
    shrinking_system,
)
from tagforge.reduction import build_PT, build_reduction, rebracketing_axioms, words_of_length
from tagforge.tags import TagSystem, parse_tag_system, tag_path, tag_run, tag_step

p = parse_formula
H = DEFAULT_HAT
K_CALC = Calculus("weakening", (WEAKENING_AXIOM,))


@pytest.mark.parametrize("text", ["x", "x -> x", "x -> (x -> x)"])
def test_lemma1_templates(text):
    assert check_lemma1(HatTemplate.from_text(text)).verdict == "pass"


def test_lemma3_counts_and_verdict():
    report = check_lemma3(H, 3, 3)
    assert report.verdict == "pass"
    # 3 + 9*1 + 27*2 code members
    assert report.resources["formulas"] == 3 + 9 + 54


def test_lemma3_budget_guard():
    # 323,175 members, so about 5.2e10 pairs: refused before any is built
    report = check_lemma3(H, 3, 7)
    assert report.verdict == "inconclusive-budget"


def test_lemma3_single_formula_vacuous():
    report = check_lemma3(H, 1, 1)
    assert report.verdict == "pass"
    assert report.resources == {"formulas": 1, "pairs": 0}


@settings(max_examples=150, deadline=None)
@given(
    st.text(alphabet="abc", min_size=1, max_size=5),
    st.text(alphabet="abc", min_size=1, max_size=5),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_code_separation_sampled_to_length5(wa, wb, i, j):
    from tagforge.formulas import rename_apart, unify, variables

    fa = code_word(H, wa).formulas
    fb = code_word(H, wb).formulas
    a = fa[i % len(fa)]
    b = fb[j % len(fb)]
    fresh = rename_apart(b, set(variables(a)))
    assert (unify(a, fresh) is not None) == (a == b)


def test_enumerate_alphabetic_counts():
    assert len(enumerate_alphabetic(H, 3, 4)) == 471


def test_duplicate_pair_is_unifiable():
    # sanity inversion for the sweep: identical members do unify
    from tagforge.formulas import rename_apart, unify, variables

    member = code_word(H, "ab").formulas[0]
    fresh = rename_apart(member, set(variables(member)))
    assert unify(member, fresh) is not None


def _lemma3_all_pairs(h, alphabet_size, max_len):
    """The all-pairs sweep that check_lemma3's half-pair memo replaced: the
    fail witness of the first unifiable pair in (i, j) order, or None."""
    members = lemmas.enumerate_alphabetic(h, alphabet_size, max_len)
    forms = [m.formula for m in members]
    renamed = [rename_apart(f, {CODE_VARIABLE}) for f in forms]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if unify(forms[i], renamed[j]) is not None:
                return {
                    "left": render_formula(forms[i]),
                    "right": render_formula(forms[j]),
                    "words": [members[i].word, members[j].word],
                }
    return None


# Subterms over p, q and r, to depth 2, shared by the drawn formulas so that
# halves repeat within a row and pairs both unify and fail (occurs check).
_ATOMS = [Var("p"), Var("q"), Var("r")]
_DEPTH1 = [Imp(a, b) for a in _ATOMS for b in _ATOMS]
_POOL = _ATOMS + _DEPTH1 + [Imp(a, b) for a in _ATOMS for b in _DEPTH1[:4]]
_pool_imp = st.builds(Imp, st.sampled_from(_POOL), st.sampled_from(_POOL))


@settings(max_examples=300, deadline=None)
@given(_pool_imp, st.lists(_pool_imp, min_size=1, max_size=8))
def test_first_unifiable_matches_unify(s, ts):
    later = [rename_apart(t, set(variables(s))) for t in ts]
    expected = next((j for j, t in enumerate(later) if unify(s, t) is not None), None)
    assert lemmas._first_unifiable(s, later, {}) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(_pool_imp, min_size=2, max_size=10))
def test_first_unifiable_rows_share_one_memo(forms):
    # check_lemma3's sweep: each formula against every later one, every row
    # reading and filling the same memo.
    memo: dict = {}
    for i, s in enumerate(forms):
        later = forms[i + 1 :]
        renamed = [rename_apart(t, set(variables(s))) for t in later]
        expected = next((j for j, t in enumerate(renamed) if unify(s, t) is not None), None)
        assert lemmas._first_unifiable(s, later, memo) == expected


@pytest.mark.parametrize("text", ["x", "x -> x", "x -> (x -> x)"])
def test_first_unifiable_on_code_member_pairs(text):
    forms = [m.formula for m in enumerate_alphabetic(HatTemplate.from_text(text), 2, 3)]
    decided = {True: 0, False: 0}
    for s in forms:
        for t in forms:
            fresh = rename_apart(t, set(variables(s)))
            unifiable = lemmas._first_unifiable(s, [fresh], {}) == 0
            assert unifiable == (unify(s, fresh) is not None)
            decided[unifiable] += 1
    # A member unifies only with itself.
    assert decided == {True: len(forms), False: len(forms) * (len(forms) - 1)}


@pytest.mark.parametrize("source,target", [(0, -1), (3, 4)])
def test_lemma3_fail_report_matches_all_pairs(monkeypatch, source, target):
    members = enumerate_alphabetic(H, 2, 3)
    patched = list(members)
    m = members[target]
    patched[target] = AlphabeticFormula(m.word, members[source].formula, m.letter, m.left, m.right)
    monkeypatch.setattr(lemmas, "enumerate_alphabetic", lambda h, a, n: patched)
    report = check_lemma3(H, 2, 3)
    assert report.verdict == "fail"
    assert report.witness == _lemma3_all_pairs(H, 2, 3)
    assert report.witness["words"] == [members[source].word, members[target].word]


def test_lemma3_unification_count(monkeypatch):
    calls = []
    unify_banks = lemmas._unify_banks

    def counting_unify_banks(*args):
        calls.append(None)
        return unify_banks(*args)

    monkeypatch.setattr(lemmas, "_unify_banks", counting_unify_banks)
    monkeypatch.setattr(lemmas, "unify", None)  # lemma 3 calls no other unifier
    report = check_lemma3(H, 3, 4)
    assert report.verdict == "pass"
    assert report.resources == {"formulas": 471, "pairs": 110685}
    # A memo cleared for each row made 35,708 unifications; shared, 4,624.
    assert len(calls) == 4_624


def test_lemma6_single_rotation():
    code = code_word(H, "ace")
    source, target = code.members[1], code.members[0]  # (a.c).e -> a.(c.e)
    chain = build_chain_lemma6(H, source, target)
    assert len(chain.links) == 1
    link = chain.links[0].steps[0]
    assert isinstance(link, AxiomStep) and link.axiom == 1  # second rotation
    assert match_instance(link.result, rebracketing_axioms(H)[1]) is not None
    assert chain_check(rebracketing_calculus(H), chain)


def test_lemma6_letter_is_empty_chain():
    a = code_word(H, "a").members[0]
    chain = build_chain_lemma6(H, a, a)
    assert chain.links == ()
    assert chain_check(rebracketing_calculus(H), chain)


def test_lemma6_plural_builder_covers_all_targets():
    source = code_word(H, "abab").members[3]
    chains = [
        build_chain_lemma6(H, source, target)
        for target in code_word(H, "abab").members
    ]
    assert len(chains) == len(code_word(H, "abab").members)
    calc = rebracketing_calculus(H)
    targets = [chain.waypoints[-1] for chain in chains]
    assert targets == list(code_word(H, "abab").formulas)
    assert all(chain_check(calc, chain) for chain in chains)


def test_lemma6_all_brackets_length5():
    calc = rebracketing_calculus(H)
    word = "ababa"
    members = code_word(H, word).members
    for source in members:
        for target in members:
            chain = build_chain_lemma6(H, source, target)
            assert chain.waypoints[0] == source.formula
            assert chain.waypoints[-1] == target.formula
            assert chain_check(calc, chain)


def test_lemma6_rejects_word_mismatch():
    with pytest.raises(ValueError):
        build_chain_lemma6(H, code_word(H, "a").members[0], code_word(H, "b").members[0])


def test_lemma6_chain_budget_is_inclusive(monkeypatch):
    # One letter up to length 4 makes 1 + 1 + 4 + 25 = 31 chains.
    monkeypatch.setattr(lemmas, "_LEMMA6_MAX_CHAINS", 31)
    report = lemmas._sweep_lemma6(H, 1, 4)
    assert (report.verdict, report.resources) == ("pass", {"chains": 31})
    monkeypatch.setattr(lemmas, "_LEMMA6_MAX_CHAINS", 30)
    report = lemmas._sweep_lemma6(H, 1, 4)
    assert report.verdict == "inconclusive-budget"
    assert report.witness == {"reason": "31 chains up to length 4 exceeds budget 30"}


@pytest.mark.parametrize("sweep,checks", [((2, 4), 144), ((1, 5), 36), ((2, 5), 976)])
def test_lemma6_checks_each_distinct_link_once(monkeypatch, sweep, checks):
    calls = []
    check = engine.check_trace

    def counting_check(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(engine, "check_trace", counting_check)
    assert lemmas._sweep_lemma6(H, *sweep).verdict == "pass"
    assert len(calls) == checks


def _lemma6_reference(h, alphabet_size, max_len):
    """The sweep before it shared verdicts: plain chain_check on every
    chain.  The first failing chain's witness, or None."""
    calc = rebracketing_calculus(h)
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet_size]
    for word in (w for n in range(1, max_len + 1) for w in words_of_length(letters, n)):
        members = code_word(h, word).members
        for source in members:
            for target in members:
                if not chain_check(calc, build_chain_lemma6(h, source, target)):
                    return {
                        "word": word,
                        "source": render_formula(source.formula),
                        "target": render_formula(target.formula),
                    }
    return None


def _broken_rebracketing_axioms(k):
    """rebracketing_axioms with axiom k's consequent read with x and y
    swapped: still an implication between codes, and a true rotation only
    where x and y are bound alike."""

    def axioms(h):
        good = rebracketing_axioms(h)
        swap = {"x": Var("y"), "y": Var("x")}
        broken = Imp(good[k].left, apply_substitution(swap, good[k].right))
        return good[:k] + (broken,) + good[k + 1 :]

    return axioms


@pytest.mark.parametrize("broken", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("sweep", [(2, 4), (1, 5)])
def test_lemma6_sweep_matches_plain_chain_check(monkeypatch, broken, sweep):
    if broken is not None:
        monkeypatch.setattr(lemmas, "rebracketing_axioms", _broken_rebracketing_axioms(broken))
    expected = _lemma6_reference(H, *sweep)
    report = lemmas._sweep_lemma6(H, *sweep)
    assert (expected is None) == (broken is None)
    assert report.verdict == ("pass" if expected is None else "fail")
    assert report.witness == (expected or {})


@pytest.mark.parametrize("part", ["substitution", "result"])
def test_lemma6_mutated_link_rejected_among_shared_verdicts(part):
    calc = rebracketing_calculus(H)
    members = code_word(H, "abab").members + code_word(H, "baba").members
    chains = [
        build_chain_lemma6(H, source, target)
        for source in members
        for target in members
        if source.word == target.word
    ]
    victim = max(range(len(chains)), key=lambda i: len(chains[i].links))
    link = chains[victim].links[0]
    (step,) = link.steps
    if part == "substitution":
        mutated = AxiomStep(step.axiom, {**step.substitution, "x": Var("p")}, step.result)
    else:
        mutated = AxiomStep(step.axiom, step.substitution, Imp(step.result.right, step.result.left))
    mutant = ChainProof(
        chains[victim].waypoints, (DerivationTrace((mutated,)),) + chains[victim].links[1:]
    )
    # The same link, unmutated, is checked both before and after the mutant.
    sharing = [i for i, c in enumerate(chains) if i != victim and link in c.links]
    assert min(sharing) < victim < max(sharing)
    verdicts: dict = {}
    for i, chain in enumerate(chains):
        if i == victim:
            assert not engine._chain_ok(calc, mutant, verdicts)
        else:
            assert engine._chain_ok(calc, chain, verdicts)
    assert not engine._chain_ok(calc, mutant, verdicts)
    assert all(engine._chain_ok(calc, chains[i], verdicts) for i in sharing)


def test_lemma7_negative_budget_raises_before_any_chain():
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        build_run_chain(collatz_system(), H, "aaa", -1)


def test_lemma7_with_leftover_tail():
    t = collatz_system()
    chain = build_run_chain(t, H, "aaa", 1)
    assert chain_check(build_PT(t, H), chain)
    assert decode(H, chain.waypoints[0]).word == "aaa"
    assert decode(H, chain.waypoints[-1]).word == tag_step(t, "aaa") == "abc"


def test_lemma7_whole_word_consumed():
    t = shrinking_system()
    chain = build_run_chain(t, H, "aa", 1)
    assert len(chain.links) == 1
    step = chain.links[0].steps[0]
    t1_size = 4  # 2 letters x 2 tails x 1 bracketing each
    assert isinstance(step, AxiomStep) and t1_size <= step.axiom < 2 * t1_size
    assert chain_check(build_PT(t, H), chain)


def test_lemma7_long_word_checks_in_linear_time():
    # Each link's claimed formula is its own interned result; matching it
    # by walking it would make the check quadratic in the word length.
    t = parse_tag_system("d=2\na -> aa\n")
    chain = build_run_chain(t, H, "a" * 1100, 1)
    start = time.perf_counter()
    assert chain_check(build_PT(t, H), chain)
    assert time.perf_counter() - start < 10
    assert len(chain.links) == 4391


def test_lemma7_requires_applicability():
    # a word shorter than the deletion number takes no production step
    chain = build_run_chain(collatz_system(), H, "a", 5)
    assert chain.links == ()
    assert chain.waypoints == (right_nested(H, "a").formula,)


def test_corollary5_full_halting_run():
    t = collatz_system()
    chain = build_run_chain(t, H, "aaa", 50)
    assert chain_check(build_PT(t, H), chain)
    outcome = tag_run(t, "aaa", 50)
    assert decode(H, chain.waypoints[-1]).word == outcome.word == "a"


def test_corollary4_codes_pairwise_nonunifiable():
    from tagforge.formulas import rename_apart, unify, variables

    words = [w for n in (1, 2, 3, 4) for w in words_of_length(("a", "b"), n)]
    for wa in words:
        for wb in words:
            if wa == wb:
                continue
            for fa in code_word(H, wa).formulas:
                for fb in code_word(H, wb).formulas:
                    fresh = rename_apart(fb, set(variables(fa)))
                    assert unify(fa, fresh) is None


def test_lemma9_collatz():
    report = check_production(collatz_system(), K_CALC, H, "aaa", 2)
    assert report.verdict == "pass"


def test_lemma9_collatz_seven_letters():
    # 61,605 detachments for 205 generators, and every code holds p, so a
    # detachment that renamed each minor apart would copy it whole.
    (report,) = run_lemma("lemma9", {"input_word": "aaaaaaa", "depth": 2})
    assert report.verdict == "pass"
    assert report.resources["generators"] == 202
    assert report.resources["levels"] == 2
    assert report.resources["full_generators"] == 205


def test_lemma9_level_zero_trivial():
    report = check_production(collatz_system(), K_CALC, H, "a", 0)
    assert report.verdict == "pass"


def test_lemma9_detects_poisoned_axioms(monkeypatch):
    # a bundle with a bogus axiom produces an unclassifiable generator
    t = collatz_system()
    pt = build_PT(t, H)
    poisoned = Calculus("poisoned", pt.axioms + (p("x -> x"),))
    from tagforge.reduction import t_alpha_member

    top = closure_level(poisoned, 0)
    bad = [
        g
        for g in top.generators
        if not any(match_instance(g.formula, ax) is not None for ax in pt.axioms)
        and not t_alpha_member(t, "aaa", g.formula, H, 0)
    ]
    assert bad  # the injected axiom is neither production-side nor a code
    # With no generator a code of a reachable word, the input code itself is
    # left unclassified.
    monkeypatch.setattr(lemmas, "t_alpha_member", lambda *args: False)
    report = check_production(t, K_CALC, H, "aaa", 0)
    assert report.verdict == "fail"
    assert report.witness["unclassified"] == [
        render_formula(f) for f in code_word(H, "aaa").formulas
    ]


def test_first_short_code_level_values():
    p0 = K_CALC
    halting = build_reduction(shrinking_system(), p0, "aa")
    assert _first_short_code_level(halting, closure_level(halting.full, 4)) == 1
    growing = build_reduction(growing_system(), p0, "aa")
    assert _first_short_code_level(growing, closure_level(growing.full, 4)) is None
    # an input already shorter than the deletion number is its own witness
    immediate = build_reduction(shrinking_system(), p0, "a")
    assert _first_short_code_level(immediate, closure_level(immediate.full, 4)) == 0


def test_lemma11_halting_direction():
    report = check_halting_equivalence(shrinking_system(), K_CALC, "aa", 4)
    assert report.verdict == "pass"
    assert report.witness["direction"] == "halting"
    assert report.artifacts
    # the carried evidence re-validates through the independent kernel
    full = build_reduction(shrinking_system(), K_CALC, "aa").full
    for _, trace in report.artifacts:
        assert check_trace(full, trace, WEAKENING_AXIOM)


def test_lemma11_non_halting_is_inconclusive():
    report = check_halting_equivalence(growing_system(), K_CALC, "aa", 4)
    assert report.verdict == "inconclusive-budget"
    assert report.witness["production_verdict"] == "pass"


def test_lemma11_run_halting_at_budget_passes():
    # The run halts in exactly `budget` steps.  The derivation follows the
    # run, so the budget bounds nothing else: a closure search needed more
    # levels than steps here.
    t = parse_tag_system("d=2\na -> ba\nb -> b\n")
    report = check_halting_equivalence(t, K_CALC, "baa", 3)
    assert report.verdict == "pass"
    assert report.witness == {"direction": "halting", "axioms": 1, "halt_steps": 3}


@pytest.fixture
def closure_runs(monkeypatch):
    """Closure runs started per calculus label, and build_reduction calls
    made by the lemma suite.  Closure runs are counted through the engine's
    closure_levels and, should the lemma suite import it, through its own
    name for it."""
    runs: dict[str, int] = {}
    levels: dict[str, int] = {}
    original = engine.closure_levels

    def counting(calc, **kwargs):
        runs[calc.label] = runs.get(calc.label, 0) + 1
        for lvl in original(calc, **kwargs):
            levels[calc.label] = levels.get(calc.label, 0) + 1
            yield lvl

    bundles = []
    build = lemmas.build_reduction

    def counting_build(*args, **kwargs):
        bundles.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(engine, "closure_levels", counting)
    monkeypatch.setattr(lemmas, "closure_levels", counting, raising=False)
    monkeypatch.setattr(lemmas, "build_reduction", counting_build)
    return runs, levels, bundles


def test_lemma9_closes_each_calculus_once(closure_runs):
    runs, _, bundles = closure_runs
    report = check_production(collatz_system(), K_CALC, H, "aaa", 2)
    assert report.verdict == "pass"
    assert runs == {"productions+input": 1, "reduction:aaa": 1}
    assert len(bundles) == 1


def test_lemma11_non_halting_closes_each_calculus_once(closure_runs):
    runs, _, bundles = closure_runs
    report = check_halting_equivalence(growing_system(), K_CALC, "aa", 3)
    assert report.witness["production_verdict"] == "pass"
    assert runs == {"productions+input": 1, "reduction:aa": 1}
    assert len(bundles) == 1


def test_lemma11_halting_runs_no_closure(closure_runs):
    # A halting run is followed, not searched for: no closure runs, one
    # bundle is built, and each target axiom gets a trace of its own.
    runs, _, bundles = closure_runs
    p0 = Calculus("k+i", (WEAKENING_AXIOM, parse_formula("y -> x -> x")))
    report = check_halting_equivalence(shrinking_system(), p0, "aa", 4)
    assert report.verdict == "pass"
    assert runs == {}
    assert len(bundles) == 1
    full = build_reduction(shrinking_system(), p0, "aa").full
    assert len(report.artifacts) == len(p0.axioms)
    for a, (name, trace) in zip(p0.axioms, report.artifacts):
        assert name == f"trace[{render_formula(a)}]"
        assert check_trace(full, trace, a)


def test_lemma11_traces_the_run_once(monkeypatch):
    # One unification per run link and one per target axiom's hook:
    # tracing the whole run again for each axiom made 18 here.
    calls = 0
    unify_banks = engine._unify_banks

    def counting(*args):
        nonlocal calls
        calls += 1
        return unify_banks(*args)

    monkeypatch.setattr(engine, "_unify_banks", counting)
    p0 = Calculus("k+i", (WEAKENING_AXIOM, parse_formula("y -> x -> x")))
    report = check_halting_equivalence(shrinking_system(), p0, "aaaa", 10)
    assert report.verdict == "pass"
    assert calls == 8 + 2
    assert len(build_run_chain(shrinking_system(), H, "aaaa", 10).links) == 8
    full = build_reduction(shrinking_system(), p0, "aaaa").full
    for a, (_, trace) in zip(p0.axioms, report.artifacts, strict=True):
        assert check_trace(full, trace, a)


def _constructed_trace(t, word, budget):
    """check_halting_equivalence's trace for the weakening axiom, with the
    calculus that checks it."""
    report = check_halting_equivalence(t, K_CALC, word, budget)
    assert report.verdict == "pass"
    ((_, trace),) = report.artifacts
    return build_reduction(t, K_CALC, word).full, trace


@pytest.mark.parametrize(
    "system, word",
    [(shrinking_system(), w) for w in ("aa", "aaa", "aaaa", "aaaaa")]
    + [(collatz_system(), "aa"), (collatz_system(), "aaaa")],
)
def test_lemma11_constructed_trace_agrees_with_closure(system, word):
    # Differential: on runs a closure search still reaches, the closure's
    # trace and the trace built along the run are both accepted.
    full, constructed = _constructed_trace(system, word, 10)
    found = derives(full, WEAKENING_AXIOM, 8)
    assert isinstance(found, Derivable)
    assert check_trace(full, found.trace, WEAKENING_AXIOM)
    assert check_trace(full, constructed, WEAKENING_AXIOM)
    # the run's code, one detachment per link, the hook and its detachment
    links = len(build_run_chain(system, H, word, 10).links)
    assert len(constructed.steps) == 1 + 2 * (links + 1)


def _mutants(trace, calc):
    """Each kind of mutation wherever it applies, one step at a time: a
    changed axiom number, an emptied unifier, a detachment with major and
    minor swapped, and the hook dropped (the last two steps)."""
    steps = trace.steps
    axioms = calc.axioms

    def with_step(i, st):
        return DerivationTrace(steps[:i] + (st,) + steps[i + 1 :])

    out = {"axiom": [], "unifier": [], "swap": [], "hook": [DerivationTrace(steps[:-2])]}
    for i, st in enumerate(steps):
        if isinstance(st, AxiomStep):
            # the next axiom that is a different formula
            other = next(
                j % len(axioms)
                for j in range(st.axiom + 1, st.axiom + len(axioms))
                if axioms[j % len(axioms)] is not axioms[st.axiom]
            )
            out["axiom"].append(with_step(i, st._replace(axiom=other)))
        else:
            if st.unifier:
                out["unifier"].append(with_step(i, st._replace(unifier={})))
            out["swap"].append(with_step(i, st._replace(major=st.minor, minor=st.major)))
    return out


@pytest.mark.parametrize(
    "system, word", [(shrinking_system(), "aaa"), (collatz_system(), "aa")]
)
def test_lemma11_constructed_trace_mutations_rejected(system, word):
    full, trace = _constructed_trace(system, word, 10)
    assert check_trace(full, trace, WEAKENING_AXIOM)
    mutants = _mutants(trace, full)
    assert all(mutants.values())
    for kind, traces in mutants.items():
        for mutant in traces:
            assert not check_trace(full, mutant, WEAKENING_AXIOM), kind


def test_lemma11_rejects_empty_target():
    with pytest.raises(ValueError):
        check_halting_equivalence(shrinking_system(), Calculus("empty", ()), "aa", 4)


def test_lemma11_requires_deletion_two():
    with pytest.raises(ValueError):
        check_halting_equivalence(
            parse_tag_system("d=1\na -> a\n"), K_CALC, "aa", 4
        )


def test_lemma12_collatz():
    report = check_inclusion(collatz_system(), H)
    assert report.verdict == "pass"
    assert report.witness["axioms"] == 28


def test_lemma12_goals_share_one_last_level_generator(monkeypatch):
    # Every axiom is an instance of x1 -> x2 -> x3 -> x2, the one pair of
    # the weakening calculus's level 1.  The first goal unifies and builds
    # it; the other 27 match the built generator, and reading its trace
    # unifies the pair once more.  The first goal unifies the pair twice,
    # with the goal read rigid and then without it, so three calls where
    # matching the goal under plain bindings made two.
    calls = dict.fromkeys(("_premise_bindings", "_canonical_consequent", "_detach_step"), 0)
    for name in calls:

        def counting(*args, name=name, real=getattr(engine, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(engine, name, counting)
    report = check_inclusion(collatz_system(), H)
    assert report.verdict == "pass" and report.witness["axioms"] == 28
    assert calls == {"_premise_bindings": 3, "_canonical_consequent": 1, "_detach_step": 1}


def test_lemma12_goals_after_the_first_match_only_the_built_generator(monkeypatch):
    # Each goal is matched against the weakening axiom, level 0.  The first
    # is then matched against the axiom's consequent, once, before it
    # detaches the one level-1 pair; the other 27 match only that pair's
    # built generator.  Matching the consequent for every goal, before its
    # built pairs, made 83 calls.
    calls = 0
    real = engine.match_instance

    def counting(candidate, pattern):
        nonlocal calls
        calls += 1
        return real(candidate, pattern)

    monkeypatch.setattr(engine, "match_instance", counting)
    goals = build_PT(collatz_system(), H).axioms
    hits = [hit for _, hit in find_generators(WEAKENING_CALCULUS, goals, 1)]
    assert len(goals) == 28 and all(hit is hits[0] and hit.level == 1 for hit in hits)
    assert calls == 28 + 1 + 27 == 56


def test_lemma12_detects_corruption(monkeypatch):
    # x -> x is not derivable from weakening, so a corrupted axiom must fail
    sub = match_instance(p("x -> x"), WEAKENING_AXIOM)
    assert sub is None
    t = collatz_system()
    clean = check_inclusion(t, H)

    def corrupted(t, h):
        pt = build_PT(t, h)
        return pt._replace(axioms=pt.axioms + (p("x -> x"),))

    monkeypatch.setattr(lemmas, "build_PT", corrupted)
    report = check_inclusion(t, H)
    assert report.verdict == "fail"
    assert report.witness == {"axiom": "x -> x"}
    assert report.instance == clean.instance


def _weaken_reference(calc, derivable, trace, antecedent):
    """Extends a derivation of `derivable` to one of antecedent -> derivable:
    the given steps, the weakening axiom instance, and one detachment."""
    target = Imp(derivable, Imp(antecedent, derivable))
    for idx, ax in enumerate(calc.axioms):
        sub = match_instance(target, ax)
        if sub is not None:
            break
    else:
        raise ValueError("no axiom has the required weakening instance")
    steps = list(trace.steps)
    minor_idx = len(steps) - 1
    steps.append(AxiomStep(idx, sub, target))
    minor = rename_apart(steps[minor_idx].result, set(variables(target)))
    u = unify(target.left, minor)
    steps.append(DetachStep(minor_idx + 1, minor_idx, u, apply_substitution(u, target.right)))
    return DerivationTrace(tuple(steps))


def _check_inclusion_reference(t, h):
    """check_inclusion before it asked the closure engine: each axiom is a
    weakening instance, or its consequent is one and a hand-built weakening
    derivation lifts it under the antecedent."""
    pt = build_PT(t, h)
    for ax in pt.axioms:
        sub = match_instance(ax, WEAKENING_AXIOM)
        if sub is not None:
            trace = DerivationTrace((AxiomStep(0, sub, ax),))
        else:
            if type(ax) is not Imp:
                return LemmaReport("lemma12", "", "fail", {"axiom": render_formula(ax)})
            consequent = ax.right
            sub2 = match_instance(consequent, WEAKENING_AXIOM)
            if sub2 is None:
                return LemmaReport(
                    "lemma12",
                    "",
                    "fail",
                    {"axiom": render_formula(ax), "reason": "consequent not a weakening instance"},
                )
            base = DerivationTrace((AxiomStep(0, sub2, consequent),))
            trace = _weaken_reference(K_CALC, consequent, base, ax.left)
        if not check_trace(K_CALC, trace, ax):
            return LemmaReport(
                "lemma12", "", "fail", {"axiom": render_formula(ax), "reason": "trace rejected"}
            )
    instance = f"tag={lemmas.system_label(t)} hat={h.text}"
    return LemmaReport("lemma12", instance, "pass", {"axioms": len(pt.axioms)})


def _random_system(rng: random.Random) -> TagSystem:
    letters = "abc"[: rng.randint(1, 3)]
    productions = {
        a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for a in letters
    }
    return TagSystem(tuple(letters), productions, rng.randint(1, 3))


@pytest.mark.parametrize("hat", ["x", "x -> x", "x -> (x -> x)"])
def test_lemma12_matches_weakening_reference(hat):
    h = HatTemplate.from_text(hat)
    rng = random.Random(12)
    systems = [collatz_system(), shrinking_system(), growing_system()]
    systems += [_random_system(rng) for _ in range(40)]
    for t in systems:
        new = check_inclusion(t, h)
        old = _check_inclusion_reference(t, h)
        assert (new.verdict, new.instance, new.witness) == (
            old.verdict,
            old.instance,
            old.witness,
        )


def test_run_lemma_dispatch():
    reports = run_lemma("lemma1")
    assert [r.verdict for r in reports] == ["pass"] * 3
    with pytest.raises(ValueError):
        run_lemma("lemma99")
    # An option that the lemma does not read is an error, not ignored.
    with pytest.raises(ValueError, match="lemma1 does not read hat"):
        run_lemma("lemma1", {"hat": DEFAULT_HAT})
    with pytest.raises(ValueError, match="all does not read output"):
        run_lemma("all", {"alphabet_size": 2, "output": "x"})
    out = run_lemma("lemma7", {"budget": 50})
    assert out[0].verdict == "pass"
    assert out[0].witness["words"][0] == "aaa"
    assert out[0].witness["words"][-1] == "a"


def test_lemma_reports_have_instances():
    for report in run_lemma("lemma11", {"budget": 4}):
        assert "tag=" in report.instance


# --- reference chain builders -------------------------------------------------
#
# The builders as they were before every chain became one list of links: a
# rotation numbered in rebracketing_axioms order and inverted through a
# table, a ChainProof per piece, and pieces joined end to end.


_REF_INVERSE_ROTATION = {0: 1, 1: 0, 2: 3, 3: 2}


def _ref_is_right_nested(a):
    while not a.is_letter:
        if not a.left.is_letter:
            return False
        a = a.right
    return True


def _ref_chain_to_spine(h, a):
    """(rotation number, substitution, source, target) for each rotation
    taking `a` to its right-nested bracketing."""
    links = []
    if _ref_is_right_nested(a):
        return links
    spine = []
    node = a
    while not node.is_letter:
        spine.append(node.left)
        node = node.right
    current = a
    for _ in range(len(spine) - 1):
        left, rest = current.left, current.right
        nxt = dot_code(h, dot_code(h, left, rest.left), rest.right)
        subst = {"x": left.formula, "y": rest.left.formula, "z": rest.right.formula}
        links.append((0, subst, current, nxt))
        current = nxt
    while True:
        left, tail = current.left, current.right
        if left.is_letter:
            break
        while not left.right.is_letter:
            new_left = dot_code(h, dot_code(h, left.left, left.right.left), left.right.right)
            nxt = dot_code(h, new_left, tail)
            subst = {
                "x": left.left.formula,
                "y": left.right.left.formula,
                "z": left.right.right.formula,
                "u": tail.formula,
            }
            links.append((2, subst, current, nxt))
            current, left = nxt, new_left
        head, last = left.left, left.right
        nxt = dot_code(h, head, dot_code(h, last, tail))
        links.append((1, {"x": head.formula, "y": last.formula, "z": tail.formula}, current, nxt))
        current = nxt
    return links


def _ref_rotation_chain(h, source, target, calc):
    links = _ref_chain_to_spine(h, source)
    links += [
        (_REF_INVERSE_ROTATION[k], subst, b, a)
        for k, subst, a, b in reversed(_ref_chain_to_spine(h, target))
    ]
    positions = [calc.axioms.index(ax) for ax in rebracketing_axioms(h)]
    waypoints = [source.formula] + [b.formula for _, _, _, b in links]
    traces = tuple(
        DerivationTrace((AxiomStep(positions[k], subst, Imp(a.formula, b.formula)),))
        for k, subst, a, b in links
    )
    return ChainProof(tuple(waypoints), traces)


def _ref_concat(chains):
    waypoints, links = list(chains[0].waypoints), list(chains[0].links)
    for nxt in chains[1:]:
        assert nxt.waypoints[0] is waypoints[-1]
        waypoints.extend(nxt.waypoints[1:])
        links.extend(nxt.links)
    return ChainProof(tuple(waypoints), tuple(links))


def _ref_production_chain(t, h, word, nxt, calc):
    d = t.deletion
    head, beta = word[:d], word[d:]
    omega = t.productions[word[0]]
    source, target = right_nested(h, word), right_nested(h, nxt)
    if not beta:
        axiom = Imp(source.formula, target.formula)
        link = DerivationTrace((AxiomStep(calc.axioms.index(axiom), {}, axiom),))
        return ChainProof((source.formula, target.formula), (link,))
    head_rn, beta_rn, omega_rn = (right_nested(h, w) for w in (head, beta, omega))
    split = dot_code(h, head_rn, beta_rn)
    successor = dot_code(h, beta_rn, omega_rn)
    axiom = Imp(dot(h, head_rn.formula, Var("x")), dot(h, Var("x"), omega_rn.formula))
    step = AxiomStep(
        calc.axioms.index(axiom), {"x": beta_rn.formula}, Imp(split.formula, successor.formula)
    )
    middle = ChainProof((split.formula, successor.formula), (DerivationTrace((step,)),))
    return _ref_concat(
        [
            _ref_rotation_chain(h, source, split, calc),
            middle,
            _ref_rotation_chain(h, successor, target, calc),
        ]
    )


def _ref_run_chain(t, h, word, max_steps, calc):
    path = list(tag_path(t, word, max_steps))
    chains = [_ref_production_chain(t, h, w, nxt, calc) for w, nxt in zip(path, path[1:])]
    if not chains:
        return ChainProof((right_nested(h, word).formula,), ())
    return _ref_concat(chains)


def _assert_same_chain(new, ref):
    assert len(new.waypoints) == len(ref.waypoints)
    assert all(a is b for a, b in zip(new.waypoints, ref.waypoints))
    assert new.links == ref.links


@pytest.mark.parametrize("hat", ["x", "x -> x"])
def test_lemma6_chains_match_reference(hat):
    h = HatTemplate.from_text(hat)
    calc = rebracketing_calculus(h)
    for word in (w for n in range(1, 5) for w in words_of_length(("a", "b"), n)):
        members = code_word(h, word).members
        for source in members:
            for target in members:
                ref = _ref_rotation_chain(h, source, target, calc)
                _assert_same_chain(build_chain_lemma6(h, source, target), ref)


@pytest.mark.parametrize(
    "system", [collatz_system(), shrinking_system(), growing_system()],
    ids=["collatz", "shrinking", "growing"],
)
def test_run_chains_match_reference(system):
    pt = build_PT(system, H)
    words = [w for n in range(1, 5) for w in words_of_length(system.alphabet, n)]
    for word in words:
        for budget in range(11):
            ref = _ref_run_chain(system, H, word, budget, pt)
            _assert_same_chain(build_run_chain(system, H, word, budget), ref)


@pytest.mark.parametrize(
    "system, word",
    [(shrinking_system(), w) for w in ("aa", "aaa", "aaaa", "ab", "bab")]
    + [(collatz_system(), "aa"), (collatz_system(), "aaaa")],
)
def test_lemma11_trace_matches_reference(system, word):
    # The run chain numbered in the full calculus, then the start axiom and
    # each hook, each axiom found by scanning the full calculus.
    p0 = Calculus("k+i", (WEAKENING_AXIOM, parse_formula("y -> x -> x")))
    report = check_halting_equivalence(system, p0, word, 10)
    assert report.verdict == "pass"
    bundle = build_reduction(system, p0, word)
    full = bundle.full

    def axiom(f):
        return DerivationTrace((AxiomStep(full.axioms.index(f), {}, f),))

    run = _ref_run_chain(system, bundle.hat, word, report.witness["halt_steps"], full)
    run_trace = chain_trace(axiom(run.waypoints[0]), run.links)
    expected = [chain_trace(run_trace, (axiom(Imp(run.waypoints[-1], a)),)) for a in p0.axioms]
    assert [trace for _, trace in report.artifacts] == expected


# --- lemma 9 classification against the axiom scan ----------------------------


def _unclassified_scan(t, alpha, n, generators, axioms, hat):
    """Generators that are an instance of no axiom and no t_alpha_member,
    each axiom tried by matching."""
    return [
        render_formula(g.formula)
        for g in generators
        if not any(match_instance(g.formula, ax) is not None for ax in axioms)
        and not lemmas.t_alpha_member(t, alpha, g.formula, hat, n)
    ]


@pytest.mark.parametrize(
    "system, alpha, n",
    [
        (collatz_system(), "aaa", 2),
        (collatz_system(), "aaaaaaa", 2),
        (shrinking_system(), "ab", 3),
        (growing_system(), "aa", 3),
    ],
    ids=["collatz-aaa", "collatz-aaaaaaa", "shrinking-ab", "growing-aa"],
)
@pytest.mark.parametrize("codes", [True, False], ids=["codes", "no-codes"])
def test_unclassified_matches_axiom_scan(monkeypatch, system, alpha, n, codes):
    # With no generator a code (t_alpha_member stubbed out), every generator
    # that is not an axiom instance is listed, so the lists are not empty.
    if not codes:
        monkeypatch.setattr(lemmas, "t_alpha_member", lambda *args: False)
    pt = build_PT(system, H)
    base = Calculus("productions+input", pt.axioms + code_word(H, alpha).formulas)
    bundle = build_reduction(system, K_CALC, alpha, (H,) + default_hat_candidates())
    cases = [
        (closure_level(base, n).generators, pt.axioms, H),
        (closure_level(bundle.full, n).generators, bundle.pt.axioms + bundle.groups["H"], bundle.hat),
    ]
    for generators, axioms, hat in cases:
        new = lemmas._unclassified(system, alpha, n, generators, axioms, hat)
        assert new == _unclassified_scan(system, alpha, n, generators, axioms, hat)
        assert new or codes
