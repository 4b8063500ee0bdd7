"""Reduction builder tests: axiom group expansion, halting hooks, bundles."""

import pytest

from tagforge import reduction
from tagforge.codec import DEFAULT_HAT, catalan, code_word, decode, dot_code, letter_code
from tagforge.engine import Calculus, Derivable, check_trace, closure_level, derives
from tagforge.formulas import (
    Imp,
    apply_substitution,
    match_instance,
    parse_formula,
    rename_apart,
    unify,
    variables,
)
from tagforge.lemmas import collatz_system, growing_system, shrinking_system
from tagforge.reduction import (
    build_H,
    build_PT,
    build_reduction,
    bundle_to_json,
    production_axioms,
    rebracketing_axioms,
    t_alpha_member,
    words_of_length,
)
from tagforge.tags import parse_tag_system, run_words

p = parse_formula
H = DEFAULT_HAT
K = p("x -> y -> x")
K_CALC = Calculus("weakening", (K,))


def expected_group_size(t):
    # arithmetic oracle: per letter, every tail word of length d-1, every
    # bracketing of the consumed head, every bracketing of the production
    m = len(t.alphabet)
    tails = m ** (t.deletion - 1)
    head_brs = catalan(t.deletion - 1)
    return sum(
        tails * head_brs * catalan(len(t.productions[a]) - 1) for a in t.alphabet
    )


def test_build_pt_collatz_counts():
    t = collatz_system()
    t1, t2 = production_axioms(t, H)
    assert expected_group_size(t) == 12
    assert len(t1) == 12
    assert len(t2) == 12
    assert len(rebracketing_axioms(H)) == 4
    assert len(build_PT(t, H).axioms) == 28


def test_every_pt_axiom_derivable_from_weakening():
    t = collatz_system()
    for ax in build_PT(t, H).axioms:
        v = derives(K_CALC, ax, 2)
        assert isinstance(v, Derivable)
        assert check_trace(K_CALC, v.trace, ax)


def test_r1_instance_decodes_as_regrouping():
    r1 = rebracketing_axioms(H)[0]
    code = code_word(H, "ace")
    a, c, e = (code_word(H, ch).formulas[0] for ch in "ace")
    sub = {"x": a, "y": c, "z": e}
    concrete = apply_substitution(sub, r1)
    before = decode(H, concrete.left)
    after = decode(H, concrete.right)
    assert before is not None and after is not None
    assert before.word == after.word == "ace"
    assert before == code.members[0]  # right-grouped
    assert after == code.members[1]  # left-grouped


def test_scheme_fidelity():
    # substituting concrete pieces into a production scheme reproduces the
    # same formula as building it from the combinators directly
    t = collatz_system()
    t1, _ = production_axioms(t, H)
    body = code_word(H, "bc").formulas[0]
    for ax in t1[:3]:
        inst = apply_substitution({"x": body}, ax)
        head = decode(H, inst.left)
        assert head is not None
        assert head.right.formula == body


def test_build_h_counts():
    t = collatz_system()
    hooks = build_H(t, K_CALC, H)
    assert len(hooks.axioms) == 3
    assert all(ax.right == K for ax in hooks.axioms)
    # d=1: no nonempty word is shorter than the deletion number
    loop = parse_tag_system("d=1\na -> a\n")
    assert build_H(loop, K_CALC, H).axioms == ()
    # two letters, two target axioms
    two = shrinking_system()
    p0 = Calculus("pair", (K, p("x -> x")))
    assert len(build_H(two, p0, H).axioms) == 4


def test_build_reduction_bundle():
    t = collatz_system()
    bundle = build_reduction(t, K_CALC, "aa")
    assert len(bundle.full.axioms) == 28 + 3 + 1
    assert bundle.hat == H
    sizes = {k: len(v) for k, v in bundle.groups.items()}
    assert sizes == {"T1": 12, "T2": 12, "R": 4, "H": 3, "input": 1}
    # deterministic group order inside the flat axiom list
    flat = bundle.groups["T1"] + bundle.groups["T2"] + bundle.groups["R"]
    flat += bundle.groups["H"] + bundle.groups["input"]
    assert bundle.full.axioms == flat


def test_build_reduction_errors():
    t = collatz_system()
    with pytest.raises(ValueError, match="nonempty"):
        build_reduction(t, K_CALC, "")
    with pytest.raises(ValueError, match="outside alphabet"):
        build_reduction(t, K_CALC, "az")
    empty = build_reduction(t, Calculus("empty", ()), "aa")
    assert empty.groups["H"] == ()


def test_bundle_json_shape():
    t = collatz_system()
    obj = bundle_to_json(build_reduction(t, K_CALC, "aa"))
    assert set(obj) == {"T1", "T2", "R", "H", "input", "hat", "tag_file", "p0"}
    assert obj["hat"] == "x"
    assert obj["tag_file"].startswith("d=2\n")
    assert obj["p0"]["axioms"] == ["x -> y -> x"]
    assert len(obj["T1"]) == 12


def test_t_alpha_member_examples():
    t = collatz_system()
    for member in code_word(H, "aaa").formulas:
        assert t_alpha_member(t, "aaa", member, H, 0)
    abc = code_word(H, "abc").formulas[0]
    assert t_alpha_member(t, "aaa", abc, H, 1)
    assert not t_alpha_member(t, "aaa", abc, H, 0)
    assert not t_alpha_member(t, "aaa", K, H, 5)
    with pytest.raises(ValueError):
        t_alpha_member(t, "", K, H, 1)


def enumerating_t_alpha_member(t, alpha, f, h, max_steps):
    # Reference: match f against every bracketing of every run word.
    if not alpha:
        raise ValueError("alpha must be nonempty")
    for word in run_words(t, alpha, max_steps):
        for member in code_word(h, word).formulas:
            if match_instance(f, member) is not None:
                return True
    return False


@pytest.mark.parametrize(
    "t, long_input",
    [(collatz_system(), "aaaaaaa"), (shrinking_system(), "abababa"), (growing_system(), "aaaaaaa")],
    ids=["collatz", "shrinking", "growing"],
)
def test_t_alpha_member_matches_enumeration(t, long_input):
    # Every generator of level 2 of the production calculus plus the input
    # code, for every input of up to 3 letters and one of 7, at budgets 0-2.
    pt = build_PT(t, H)
    inputs = [w for n in (1, 2, 3) for w in words_of_length(sorted(t.alphabet), n)]
    hits = 0
    for alpha in inputs + [long_input]:
        base = Calculus("productions+input", pt.axioms + code_word(H, alpha).formulas)
        for g in closure_level(base, 2).generators:
            for max_steps in (0, 1, 2):
                got = t_alpha_member(t, alpha, g.formula, H, max_steps)
                assert got == enumerating_t_alpha_member(t, alpha, g.formula, H, max_steps)
                hits += got
    assert hits > 0


def test_t_alpha_member_enumerates_no_bracketings(monkeypatch):
    # A member of a 12-letter run word is recognised without code_word.
    def no_code_word(*args):
        raise AssertionError("code_word called")

    monkeypatch.setattr(reduction, "code_word", no_code_word)
    t = collatz_system()
    alpha = "a" * 12
    word = run_words(t, alpha, 1)[1]
    assert word == "a" * 10 + "bc"
    left_nested = letter_code(H, word[0])
    for letter in word[1:]:
        left_nested = dot_code(H, left_nested, letter_code(H, letter))
    instance = apply_substitution({"p": p("q -> q")}, left_nested.formula)
    assert t_alpha_member(t, alpha, instance, H, 1)
    assert not t_alpha_member(t, alpha, instance, H, 0)
    assert not t_alpha_member(t, alpha, K, H, 1)
    # alpha is still checked before f is read
    with pytest.raises(ValueError, match="outside alphabet"):
        t_alpha_member(t, "az", instance, H, 1)


def test_group_disjointness_with_codes():
    # no production-side axiom unifies with any encoded word
    t = collatz_system()
    bundle = build_reduction(t, K_CALC, "aa")
    members = [
        f
        for w in ("a", "b", "ab", "abc")
        for f in code_word(H, w).formulas
    ]
    for ax in bundle.pt.axioms + bundle.groups["H"]:
        for member in members:
            fresh = rename_apart(member, set(variables(ax)))
            assert unify(ax, fresh) is None


def test_scheme_variable_distinct_from_code_variable():
    t = collatz_system()
    t1, _ = production_axioms(t, H)
    for ax in t1:
        assert set(variables(ax)) == {"p", "x"}


def test_d1_tail_degenerates_to_bare_letter():
    loop = parse_tag_system("d=1\na -> a\n")
    t1, t2 = production_axioms(loop, H)
    # tails are the single empty word, so one axiom per group
    assert len(t1) == 1 and len(t2) == 1
    a_code = code_word(H, "a").formulas[0]
    assert t2[0] == Imp(a_code, a_code)
    assert words_of_length(("a",), 0) == [""]


def test_every_full_axiom_derivable_when_p0_derives_weakening():
    bundle = build_reduction(collatz_system(), K_CALC, "aa")
    for ax in bundle.full.axioms:
        v = derives(K_CALC, ax, 2)
        assert isinstance(v, Derivable)
