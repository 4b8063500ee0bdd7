"""Encoding layer tests: combinators, letter and word codes, decoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge.codec import (
    DEFAULT_HAT,
    AlphabeticFormula,
    HatExhaustionError,
    HatTemplate,
    catalan,
    choose_hat,
    circ,
    code_letter,
    code_member_of,
    code_word,
    decode,
    default_hat_candidates,
    dot,
    dot_code,
    hat_at,
    letter_code,
    right_nested,
)
from tagforge.engine import Calculus
from tagforge.formulas import (
    Imp,
    Var,
    apply_substitution,
    match_instance,
    parse_formula,
    rename_apart,
    unify,
    variables,
)
from tagforge.reduction import words_of_length

p = parse_formula
H = DEFAULT_HAT
WEAKENING = p("x -> y -> x")

HATS = [
    HatTemplate.from_text("x"),
    HatTemplate.from_text("x -> x"),
    HatTemplate.from_text("x -> (x -> x)"),
]


def test_hat_template_validation():
    with pytest.raises(ValueError):
        HatTemplate(p("x -> y"))
    with pytest.raises(ValueError):
        HatTemplate(p("y"))


def test_hat_at_examples():
    assert hat_at(HatTemplate.from_text("x -> x"), Var("p")) == p("p -> p")
    g = p("(a -> b) -> a")
    assert hat_at(H, g) is g
    assert hat_at(HatTemplate.from_text("x -> (x -> x)"), Var("y")) == p("y -> (y -> y)")


def test_circ_shape():
    got = circ(H, Var("x"), Var("y"))
    assert got == p("((y -> y) -> y) -> (x -> ((y -> y) -> y))")


@pytest.mark.parametrize("h", HATS)
def test_circ_is_weakening_instance(h):
    for a, b in [(Var("x"), Var("y")), (p("a -> b"), Var("c"))]:
        assert match_instance(circ(h, a, b), WEAKENING) is not None


@pytest.mark.parametrize("h", HATS)
def test_circ_separation(h):
    pat = circ(h, Var("x"), Var("y"))
    assert unify(pat, Imp(pat, Var("z"))) is None


def test_code_letter_hand_expansion():
    got = code_letter(H, 1)
    assert got == p("((p -> p) -> p) -> ((p -> p) -> ((p -> p) -> p))")


def test_code_letter_pairwise_nonunifiable():
    for i in range(1, 5):
        for j in range(1, 5):
            u = unify(code_letter(H, i), rename_apart(code_letter(H, j), {"p"}))
            assert (u is not None) == (i == j)


@pytest.mark.parametrize("h", HATS)
def test_code_letter_weakening_instance(h):
    for i in (1, 2, 3):
        assert match_instance(code_letter(h, i), WEAKENING) is not None


def test_dot_examples():
    a, c = code_letter(H, 1), code_letter(H, 3)
    d = dot(H, a, c)
    assert match_instance(d, WEAKENING) is not None
    for i in range(1, 5):
        assert unify(d, rename_apart(code_letter(H, i), {"p"})) is None
    assert code_word(H, "ac").formulas == (d,)


def test_code_word_counts():
    for n in range(1, 7):
        assert len(code_word(H, "a" * n).members) == catalan(n - 1)
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def shape(af):
    if af.is_letter:
        return af.letter
    return (shape(af.left), shape(af.right))


def test_code_word_ace():
    members = code_word(H, "ace").members
    assert [shape(m) for m in members] == [("a", ("c", "e")), (("a", "c"), "e")]


def test_code_word_acec_reproduces_listing():
    # the five bracketings, right-most split last
    expected = [
        ("a", ("c", ("e", "c"))),
        ("a", (("c", "e"), "c")),
        (("a", "c"), ("e", "c")),
        (("a", ("c", "e")), "c"),
        ((("a", "c"), "e"), "c"),
    ]
    members = code_word(H, "acec").members
    assert [shape(m) for m in members] == expected
    # rebuilt directly from the combinators, member for member
    a, c, e = (code_letter(H, i) for i in (1, 3, 5))
    d = lambda x, y: dot(H, x, y)
    direct = [
        d(a, d(c, d(e, c))),
        d(a, d(d(c, e), c)),
        d(d(a, c), d(e, c)),
        d(d(a, d(c, e)), c),
        d(d(d(a, c), e), c),
    ]
    assert list(code_word(H, "acec").formulas) == direct


def test_code_word_empty_rejected():
    with pytest.raises(ValueError):
        code_word(H, "")


@pytest.mark.parametrize("h", HATS)
def test_decode_round_trip(h):
    for word in ("a", "ae", "aeca", "acec"):
        for member in code_word(h, word).members:
            back = decode(h, member.formula)
            assert back == member
            assert back.word == word


def test_decode_same_word_different_parses():
    a, e, c = (letter_code(H, ch) for ch in "aec")
    one = dot_code(H, dot_code(H, a, e), dot_code(H, c, a))
    two = dot_code(H, a, dot_code(H, dot_code(H, e, c), a))
    assert decode(H, one.formula).word == "aeca"
    assert decode(H, two.formula).word == "aeca"
    assert one.formula != two.formula


def test_decode_rejects_non_codes():
    assert decode(H, p("x -> (y -> x)")) is None
    assert decode(H, p("p")) is None
    near_miss = Imp(code_letter(H, 1), Var("z"))
    assert decode(H, near_miss) is None
    # a code built under one template is not a code under another
    other = HatTemplate.from_text("x -> x")
    assert decode(other, code_letter(H, 1)) is None
    assert decode(H, code_letter(other, 1)) is None


def test_decode_long_right_nested_code():
    # 1,200 letters is past the interpreter's default recursion limit.
    spine = right_nested(H, "ab" * 600)
    assert decode(H, spine.formula) is spine
    spine_on_left = dot_code(H, spine, letter_code(H, "c"))
    assert decode(H, spine_on_left.formula) is spine_on_left


def test_decode_long_left_nested_code():
    # Each dot's left operand is the code of all letters before it, so the
    # parse is 1,200 dots deep on the left.
    word = "ab" * 600
    code = letter_code(H, word[0])
    for letter in word[1:]:
        code = dot_code(H, code, letter_code(H, letter))
    assert decode(H, code.formula) is code


@pytest.mark.parametrize("h", HATS)
def test_code_member_of_reads_members_and_their_instances(h):
    # Every member of every word of up to 5 letters reads as itself, and so
    # does each of its instances; decode takes only the member itself.
    images = [p("q"), p("q -> q"), p("(q -> r) -> q"), code_letter(h, 2)]
    for n in range(1, 6):
        for word in words_of_length(("a", "b", "c"), n):
            for member in code_word(h, word).members:
                assert code_member_of(h, member.formula) is member
                for image in images:
                    instance = apply_substitution({"p": image}, member.formula)
                    assert code_member_of(h, instance) is member
                    assert decode(h, instance) is None


def test_code_member_of_rejects_non_instances():
    q = Var("q")
    chain = q
    for _ in range(27):
        chain = Imp(q, chain)
    for f in (
        p("x -> (y -> x)"),
        p("p"),
        Imp(code_letter(H, 1), Var("z")),
        # a chain past z, and a node whose argument is its own y
        circ(H, chain, q),
        circ(H, p("q -> q"), p("q -> q")),
        # reads as the member of "aa", but p would need two images
        dot(H, apply_substitution({"p": q}, code_letter(H, 1)), code_letter(H, 1)),
    ):
        assert code_member_of(H, f) is None
        assert decode(H, f) is None


def test_all_members_single_variable_p():
    for word in ("a", "bc", "abc"):
        for f in code_word(H, word).formulas:
            assert variables(f) == ("p",)


def test_right_nested_is_first_member():
    rn = right_nested(H, "abcd")
    assert shape(rn) == ("a", ("b", ("c", "d")))


@pytest.mark.parametrize("hat", ["x", "x -> x"])
def test_right_nested_matches_first_member(hat):
    # differential: the spine built directly equals the first bracketing
    h = HatTemplate.from_text(hat)
    for n in range(1, 7):
        for word in words_of_length(("a", "b", "c"), n):
            assert right_nested(h, word) == code_word(h, word).members[0]
    with pytest.raises(ValueError):
        right_nested(h, "")


def test_right_nested_long_words_in_linear_time():
    word = "ab" * 400
    spine = right_nested(H, word)
    assert spine.word == word and spine.left is letter_code(H, "a")
    assert spine.right is right_nested(H, word[1:])
    # every call hashes each spine node for the caches; a hash that walked
    # the parse made doubling the word quadruple the time, so parses hash
    # and compare by identity
    assert AlphabeticFormula.__hash__ is object.__hash__
    assert AlphabeticFormula.__eq__ is object.__eq__


def test_choose_hat():
    k_calc = Calculus("weakening", (WEAKENING,))
    cands = default_hat_candidates()[:2]
    assert choose_hat(k_calc, cands) == cands[0]
    # a calculus that is itself an encoded pair rejects the bare template
    poisoned = Calculus("poisoned", (circ(H, Var("a"), Var("b")),))
    with pytest.raises(HatExhaustionError):
        choose_hat(poisoned, (H,))
    assert choose_hat(Calculus("empty", ()), cands) == cands[0]


def test_default_hat_candidates_escalate():
    cands = default_hat_candidates()[:3]
    assert [c.text for c in cands] == ["x", "x -> x", "x -> x -> x"]


# --- property tests ----------------------------------------------------------

_words = st.text(alphabet="abc", min_size=1, max_size=5)


@settings(max_examples=40)
@given(_words)
def test_members_distinct_and_counted(word):
    members = code_word(H, word).members
    formulas = set(m.formula for m in members)
    assert len(formulas) == len(members) == catalan(len(word) - 1)


@settings(max_examples=40)
@given(_words)
def test_every_member_weakening_instance(word):
    for f in code_word(H, word).formulas:
        assert match_instance(f, WEAKENING) is not None


@settings(max_examples=30)
@given(_words)
def test_decode_inverts_encoding(word):
    for member in code_word(H, word).members:
        assert decode(H, member.formula) == member
