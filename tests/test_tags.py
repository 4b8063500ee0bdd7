"""Tag machine tests: file format, stepping, runs, reachability."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagforge.tags import (
    BudgetExhausted,
    Halted,
    TagSystem,
    TagSystemError,
    parse_tag_system,
    render_tag_file,
    run_words,
    tag_path,
    tag_reaches,
    tag_run,
    tag_step,
)

COLLATZ = "d=2\na -> bc\nb -> a\nc -> aaa\n"


def oracle_step(productions, d, word):
    # field-by-field restatement of the definition, independent of tag_step
    if len(word) < d:
        return None
    return word[d:] + productions[word[0]]


def test_parse_collatz_readback():
    t = parse_tag_system(COLLATZ)
    assert t.alphabet == ("a", "b", "c")
    assert t.productions == {"a": "bc", "b": "a", "c": "aaa"}
    assert t.deletion == 2


def test_parse_comments_and_blanks():
    t = parse_tag_system("# header\n\nd=1\n\n# rule\na -> a\n")
    assert t.deletion == 1
    assert t.productions == {"a": "a"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("d=2\na -> \n", "empty production"),
        ("d=2\na -> b\na -> c\n", "duplicate letter"),
        ("d=2\na -> q\n", "unknown letter"),
        ("a -> b\n", "expected 'd=<int>'"),
        ("d=0\na -> a\n", "deletion number"),
        ("d=2\n", "alphabet must be nonempty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TagSystemError, match=fragment):
        parse_tag_system(text)


def test_render_round_trip():
    t = parse_tag_system(COLLATZ)
    assert parse_tag_system(render_tag_file(t)) == t


def test_tag_step_examples():
    t = parse_tag_system(COLLATZ)
    assert tag_step(t, "aaa") == "abc"
    assert tag_step(t, "b") is None
    loop = parse_tag_system("d=1\na -> a\n")
    assert tag_step(loop, "a") == "a"
    with pytest.raises(TagSystemError, match="outside alphabet"):
        tag_step(t, "axc")


def test_tag_run_examples():
    shrink = parse_tag_system("d=2\na -> b\nb -> b\n")
    assert tag_run(shrink, "aa", 10) == Halted("b", 1)
    loop = parse_tag_system("d=1\na -> a\n")
    assert tag_run(loop, "a", 100) == BudgetExhausted("a")
    collatz = parse_tag_system(COLLATZ)
    outcome = tag_run(collatz, "aaa", 50)
    assert isinstance(outcome, Halted)
    assert len(outcome.word) < 2
    # independent step-by-step oracle, and the frozen values it produced
    word, steps = "aaa", 0
    while len(word) >= 2:
        word = oracle_step(collatz.productions, 2, word)
        steps += 1
    assert outcome == Halted(word, steps) == Halted("a", 24)


def test_short_input_halts_immediately():
    t = parse_tag_system(COLLATZ)
    assert tag_run(t, "b", 10) == Halted("b", 0)
    assert tag_run(t, "", 10) == Halted("", 0)


def test_tag_reaches_examples():
    collatz = parse_tag_system(COLLATZ)
    assert tag_reaches(collatz, "aaa", "abc", 1)
    assert not tag_reaches(collatz, "aaa", "aaa", 100)
    loop = parse_tag_system("d=1\na -> a\n")
    assert not tag_reaches(loop, "a", "aa", 100)
    assert not tag_reaches(loop, "a", "a", 100)


def test_run_words_includes_start_and_stops_on_cycle():
    loop = parse_tag_system("d=2\na -> aa\n")
    assert run_words(loop, "aa", 50) == ["aa"]
    collatz = parse_tag_system(COLLATZ)
    words = run_words(collatz, "aaa", 3)
    assert words == ["aaa", "abc", "cbc", "caaa"]


def test_tag_path_yields_the_word_first():
    collatz = parse_tag_system(COLLATZ)
    assert list(tag_path(collatz, "aaa", 0)) == ["aaa"]
    assert list(tag_path(collatz, "aaa", 3)) == ["aaa", "abc", "cbc", "caaa"]


def test_tag_path_stops_at_a_short_word():
    shrink = parse_tag_system("d=2\na -> b\nb -> b\n")
    assert list(tag_path(shrink, "aa", 10)) == ["aa", "b"]
    assert list(tag_path(shrink, "b", 10)) == ["b"]
    assert list(tag_path(shrink, "", 10)) == [""]


def test_tag_path_stops_at_the_budget():
    # A cycle is not a stop: the path repeats it until the budget ends.
    loop = parse_tag_system("d=1\na -> a\n")
    assert list(tag_path(loop, "a", 4)) == ["a"] * 5


@pytest.mark.parametrize(
    "word, budget, error, fragment",
    [
        ("aaa", -1, ValueError, "max_steps must be nonnegative"),
        ("axc", 5, TagSystemError, "outside alphabet"),
    ],
)
def test_tag_path_checks_before_the_first_word(word, budget, error, fragment):
    path = tag_path(parse_tag_system(COLLATZ), word, budget)
    with pytest.raises(error, match=fragment):
        next(path)


# --- property tests ----------------------------------------------------------


@st.composite
def tag_systems(draw):
    size = draw(st.integers(1, 3))
    alphabet = tuple("abc"[:size])
    productions = {
        letter: "".join(
            draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3))
        )
        for letter in alphabet
    }
    return TagSystem(alphabet, productions, draw(st.integers(1, 3)))


@st.composite
def system_and_word(draw):
    t = draw(tag_systems())
    word = "".join(draw(st.lists(st.sampled_from(t.alphabet), min_size=0, max_size=6)))
    return t, word


@given(system_and_word())
def test_run_deterministic(tw):
    t, word = tw
    assert tag_run(t, word, 30) == tag_run(t, word, 30)


@given(system_and_word())
def test_step_length_law(tw):
    t, word = tw
    nxt = tag_step(t, word)
    if nxt is None:
        assert len(word) < t.deletion
    else:
        assert len(nxt) == len(word) - t.deletion + len(t.productions[word[0]])


@given(system_and_word(), st.integers(0, 30))
def test_halting_prefix_monotone(tw, budget):
    t, word = tw
    outcome = tag_run(t, word, budget)
    if isinstance(outcome, Halted):
        assert tag_run(t, word, budget + 7) == outcome


def oracle_run(t, word, budget):
    """The run restated from oracle_step: its words, and whether it halted."""
    words = [word]
    for _ in range(budget):
        nxt = oracle_step(t.productions, t.deletion, words[-1])
        if nxt is None:
            break
        words.append(nxt)
    return words, len(words[-1]) < t.deletion


@given(system_and_word(), st.integers(0, 30))
def test_runs_match_the_oracle(tw, budget):
    t, word = tw
    words, halted = oracle_run(t, word, budget)
    steps = len(words) - 1
    expected = Halted(words[-1], steps) if halted else BudgetExhausted(words[-1])
    assert tag_run(t, word, budget) == expected
    first_repeat = next((i for i, w in enumerate(words) if w in words[:i]), len(words))
    assert run_words(t, word, budget) == words[:first_repeat]
