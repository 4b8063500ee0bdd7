"""Term kernel tests: interning, grammar round-trips, substitution,
unification laws."""

import gc
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import formulas
from tagforge.codec import DEFAULT_HAT, right_nested
from tagforge.engine import Calculus
from tagforge.formulas import (
    FormulaSyntaxError,
    Imp,
    Var,
    apply_substitution,
    canonical_rename,
    match_instance,
    parse_formula,
    rename_apart,
    render_formula,
    rendered_length,
    unify,
    variables,
)
from tagforge.reduction import GROUP_ORDER, build_reduction
from tagforge.tags import parse_tag_system

p = parse_formula


# --- reference oracles: the kernel walks that node facts and shared-subterm
# rendering replaced, and the parser that bounded token pieces replaced ----


def _skip_ws(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_reference(text):
    """The `parse_formula` that read its text one character at a time."""
    n = len(text)
    chains = [[]]
    i = 0
    while True:
        i = _skip_ws(text, i)
        if i >= n:
            raise FormulaSyntaxError("formula expected", i)
        if text[i] == "(":
            chains.append([])
            i += 1
            continue
        m = formulas._IDENT.match(text, i)
        if m is None:
            raise FormulaSyntaxError("identifier or '(' expected", i)
        atom = Var(m.group())
        i = m.end()
        while True:
            chains[-1].append(atom)
            i = _skip_ws(text, i)
            if text.startswith("->", i):
                i += 2
                break
            chain = chains.pop()
            atom = chain.pop()
            while chain:
                atom = Imp(chain.pop(), atom)
            if not chains:
                if i != n:
                    raise FormulaSyntaxError("unexpected trailing input", i)
                return atom
            if i >= n or text[i] != ")":
                raise FormulaSyntaxError("')' expected", i)
            i += 1


def _variables_walk(f):
    """The DAG walk that `variables` replaced."""
    out = []
    seen = set()
    visited = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Var:
            if g.name not in seen:
                seen.add(g.name)
                out.append(g.name)
        elif id(g) not in visited:
            visited.add(id(g))
            stack.append(g.right)
            stack.append(g.left)
    return tuple(out)


def _render_streamed(f):
    """The iterative renderer that streams every occurrence of a subterm,
    which shared-subterm rendering replaced."""
    parts = []
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is str:
            parts.append(g)
            continue
        while type(g) is Imp:
            left = g.left
            if type(left) is Imp:
                parts.append("(")
                todo.append(g.right)
                todo.append(") -> ")
                g = left
            else:
                parts.append(left.name)
                parts.append(" -> ")
                g = g.right
        parts.append(g.name)
    return "".join(parts)


def _apply_substitution_memo(subst, f):
    """The `apply_substitution` that rebuilt every subterm it reached."""
    if not subst:
        return f
    memo = {}

    def go(g):
        if type(g) is Var:
            return subst.get(g.name, g)
        r = memo.get(id(g))
        if r is None:
            left = go(g.left)
            right = go(g.right)
            r = g if left is g.left and right is g.right else Imp(left, right)
            memo[id(g)] = r
        return r

    return go(f)


def _match_instance_pairs(candidate, pattern):
    """The `match_instance` that kept bindings by name and a set of visited
    (pattern, candidate) id pairs."""
    if candidate is pattern:
        return {}
    binds = {}
    stack = [(pattern, candidate)]
    seen = set()
    while stack:
        p, c = stack.pop()
        if type(p) is Var:
            prev = binds.get(p.name)
            if prev is None:
                binds[p.name] = c
            elif prev is not c:
                return None
        else:
            if type(c) is not Imp:
                return None
            key = (id(p), id(c))
            if key in seen:
                continue
            seen.add(key)
            stack.append((p.right, c.right))
            stack.append((p.left, c.left))
    return {
        k: v
        for k, v in sorted(binds.items())
        if not (type(v) is Var and v.name == k)
    }


def alpha_equal(a, b):
    """True when a and b differ only by a bijective renaming of variables:
    the reference that canonical forms decide alpha-equality against."""
    fwd = {}
    back = {}
    stack = [(a, b)]
    seen = set()
    while stack:
        s, t = stack.pop()
        if type(s) is not type(t):
            return False
        if type(s) is Var:
            if fwd.setdefault(s.name, t.name) != t.name:
                return False
            if back.setdefault(t.name, s.name) != s.name:
                return False
        else:
            key = (id(s), id(t))
            if key in seen:
                continue
            seen.add(key)
            stack.append((s.right, t.right))
            stack.append((s.left, t.left))
    return True


def test_interned_nodes_are_identical():
    a, b = Var("a"), Var("b")
    assert Var("a") is a
    assert Imp(a, b) is Imp(a, b)
    assert p("(a -> b) -> a") is Imp(Imp(a, b), a)
    assert Imp(a, b) is not Imp(b, a)


def test_invalid_variable_name_rejected():
    with pytest.raises(ValueError):
        Var("X")
    with pytest.raises(ValueError):
        Var("")


def test_nodes_are_immutable():
    f = p("a -> b")
    with pytest.raises(AttributeError):
        f.left = Var("c")
    with pytest.raises(AttributeError):
        del f.right
    with pytest.raises(AttributeError):
        Var("a").name = "b"
    assert f is p("a -> b") and f.left is Var("a")


def test_unheld_node_leaves_intern_table():
    gc.collect()
    sizes = len(formulas._VARS), len(formulas._IMPS)
    ref = weakref.ref(p("unheld_left -> unheld_right"))
    chain = _distinct_chain(200, first=1_000)
    assert len(formulas._IMPS) == sizes[1] + 199
    del chain
    gc.collect()
    assert ref() is None
    # Each dead node's entry is gone, not left behind as a dead reference.
    assert (len(formulas._VARS), len(formulas._IMPS)) == sizes
    # Rebuilding gives a fresh object that is interned again.
    f = p("unheld_left -> unheld_right")
    assert p("unheld_left -> unheld_right") is f


def test_parse_right_associative():
    assert p("x -> (y -> x)") == Imp(Var("x"), Imp(Var("y"), Var("x")))
    assert p("x -> y -> x") == p("x -> (y -> x)")
    assert p("(x -> y) -> x") == Imp(Imp(Var("x"), Var("y")), Var("x"))


def test_parse_identifiers():
    assert p("foo_1") == Var("foo_1")
    assert p("  x  ") == Var("x")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("x ->", 4),
        ("X", 0),
        ("(x -> y", 7),
        ("x -> y)", 6),
        ("x y", 2),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(FormulaSyntaxError) as exc:
        p(text)
    assert exc.value.position == pos


def test_parse_deep_nesting_without_recursion():
    assert p("(" * 5000 + "x" + ")" * 5000) is Var("x")
    f = p(" -> ".join(["a"] * 3000))
    depth = 0
    while type(f) is Imp:
        assert f.left is Var("a")
        f, depth = f.right, depth + 1
    assert (f, depth) == (Var("a"), 2999)
    with pytest.raises(FormulaSyntaxError, match=r"^'\)' expected \(at position 10000\)$"):
        p("(" * 5000 + "x" + ")" * 4999)


def test_render_minimal_parens():
    assert render_formula(p("x -> (y -> x)")) == "x -> y -> x"
    assert render_formula(p("(x -> y) -> x")) == "(x -> y) -> x"
    assert render_formula(Var("p")) == "p"


def test_render_deep_nesting_without_recursion():
    right = left = Var("a")
    for _ in range(5000):
        right = Imp(Var("a"), right)
        left = Imp(left, Var("a"))
    assert render_formula(right) == " -> ".join(["a"] * 5001)
    assert render_formula(left) == "(" * 4999 + "a -> a" + ") -> a" * 4999


def test_substitute_and_unify_deep_nesting_without_recursion():
    def chain(n, a, b):
        f = Var(b)
        for _ in range(n):
            f = Imp(f, Var(a))
        return f

    left = chain(5000, "a", "b")
    assert apply_substitution({"a": Var("c"), "b": Var("d")}, left) is chain(5000, "c", "d")
    assert rename_apart(left, {"a"}) is chain(5000, "a_2", "b")
    assert unify(left, chain(5000, "a", "c")) == {"c": Var("b")}
    assert unify(chain(5000, "a", "b"), chain(4999, "a", "a")) is None


def test_apply_substitution_simultaneous():
    yy = p("y -> y")
    assert apply_substitution({"x": yy}, p("x -> x")) == p("(y -> y) -> (y -> y)")
    f = p("x -> y -> z")
    assert apply_substitution({}, f) is f
    assert apply_substitution({"x": Var("y"), "y": Var("x")}, p("x -> y")) == p("y -> x")


def test_unify_known_pairs():
    # shared variables, as written
    assert unify(p("x -> (y -> z)"), p("(y -> z) -> x")) is not None
    assert unify(p("x -> (y -> x)"), p("(y -> x) -> x")) is None
    assert unify(Var("x"), p("x -> y")) is None  # occurs check


def test_unify_result_applies_equally():
    a, b = p("x -> (y -> z)"), p("(y -> z) -> x")
    s = unify(a, b)
    assert apply_substitution(s, a) == apply_substitution(s, b)


def test_unify_bindings_sorted():
    s = unify(p("z -> y -> x"), p("a -> b -> c"))
    assert list(s) == sorted(s)


def test_match_instance_examples():
    s = match_instance(p("(a -> a) -> (b -> (a -> a))"), p("x -> (y -> x)"))
    assert s == {"x": p("a -> a"), "y": Var("b")}
    assert match_instance(p("x -> (y -> x)"), p("x -> (y -> y)")) is None
    # identity case: present with no forced renaming
    assert match_instance(p("x -> y -> x"), p("x -> y -> x")) == {}


def test_match_binds_only_pattern_variables():
    s = match_instance(p("(a -> b) -> c"), p("x -> y"))
    assert s == {"x": p("a -> b"), "y": Var("c")}
    assert set(s) <= set(variables(p("x -> y")))


def test_alpha_equal_examples():
    assert alpha_equal(p("x -> y"), p("u -> v"))
    assert not alpha_equal(p("x -> x"), p("x -> y"))
    assert alpha_equal(p("x -> y"), p("y -> x"))


def test_rename_apart_deterministic():
    f = p("x -> y -> x")
    g = rename_apart(f, {"x"})
    assert g == p("x_2 -> y -> x_2")
    assert rename_apart(f, set()) is f
    # collision with the formula's own names steps the suffix
    h = rename_apart(p("x -> x_2"), {"x"})
    assert h == p("x_3 -> x_2")


def test_canonical_rename():
    assert canonical_rename(p("y -> (x -> y)")) == p("x1 -> (x2 -> x1)")
    f = p("x1 -> x2")
    assert canonical_rename(f) is f


# --- property tests ----------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "u", "v", "w"])
_vars = st.builds(Var, _names)
_formulas = st.recursive(_vars, lambda f: st.builds(Imp, f, f), max_leaves=40)
_substs = st.dictionaries(_names, _formulas, max_size=3)


@given(_formulas)
def test_parse_render_round_trip(f):
    assert parse_formula(render_formula(f)) is f


def _render_recursive(f, nested=False):
    """The recursive renderer that `render_formula` replaced."""
    if type(f) is Var:
        return f.name
    text = f"{_render_recursive(f.left, True)} -> {_render_recursive(f.right)}"
    return f"({text})" if nested else text


@given(_formulas)
def test_render_matches_recursive_reference(f):
    assert render_formula(f) == _render_recursive(f)


@given(_formulas, _formulas)
def test_unify_yields_common_instance(a, b):
    s = unify(a, b)
    if s is not None:
        sa = apply_substitution(s, a)
        assert sa == apply_substitution(s, b)
        # idempotent: applying twice changes nothing
        assert apply_substitution(s, sa) == sa


@given(_formulas, _substs)
def test_match_detects_instances(pattern, subst):
    candidate = apply_substitution(subst, pattern)
    s = match_instance(candidate, pattern)
    assert s is not None
    assert apply_substitution(s, pattern) == candidate
    # matching implies unifiability on variable-disjoint copies
    assert unify(candidate, rename_apart(pattern, set(variables(candidate)))) is not None


@given(_formulas, _formulas)
def test_match_agrees_with_equality_on_ground(a, b):
    if not variables(a) and not variables(b):
        assert (match_instance(a, b) is not None) == (a == b)


@settings(max_examples=60)
@given(_formulas)
def test_mgu_minimality_on_renamings(base):
    # Renaming a pattern into two disjoint variable spaces gives formulas with
    # a known unifier (collapse every variable to one); that unifier must
    # factor through the MGU.
    left = apply_substitution({v: Var(v + "l") for v in variables(base)}, base)
    right = apply_substitution({v: Var(v + "r") for v in variables(base)}, base)
    mgu = unify(left, right)
    assert mgu is not None
    joint = Imp(left, right)
    collapse = {v: Var("q") for v in variables(joint)}
    collapsed = apply_substitution(collapse, joint)
    assert collapsed == apply_substitution(collapse, apply_substitution(mgu, joint))
    assert match_instance(collapsed, apply_substitution(mgu, joint)) is not None


@settings(max_examples=60)
@given(_formulas, _formulas, _substs)
def test_unifiers_composed_past_mgu_factor(a, b, extra):
    mgu = unify(a, b)
    if mgu is None:
        return
    joint = Imp(a, b)
    most_general = apply_substitution(mgu, joint)
    u = apply_substitution(extra, most_general)
    assert u == apply_substitution(extra, most_general)
    assert match_instance(u, most_general) is not None


@given(_formulas)
def test_canonical_rename_alpha_invariant(f):
    assert alpha_equal(f, canonical_rename(f))


@given(_formulas, _formulas)
def test_canonical_forms_decide_alpha_equality(a, b):
    assert alpha_equal(a, b) == (canonical_rename(a) == canonical_rename(b))


# --- parse_formula: bounded token pieces against the character reader -------


def _parse_outcome(parse, text):
    """The node parse returns, or the message and position of its error."""
    try:
        return parse(text)
    except FormulaSyntaxError as e:
        return str(e), e.position


def _assert_parses_like_reference(text):
    got, want = _parse_outcome(parse_formula, text), _parse_outcome(_parse_reference, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got is want


_spaces = st.text(alphabet=" \t\n\u00a0", max_size=3)


@st.composite
def _spaced_texts(draw):
    """A rendered formula with random whitespace around each token."""
    tokens = re.findall(r"->|[()]|\w+", render_formula(draw(_formulas)))
    return draw(_spaces) + "".join(token + draw(_spaces) for token in tokens)


# Piece sizes of a few characters put a cut next to nearly every token.
_piece_sizes = st.sampled_from([1, 2, 3, 7, formulas._PIECE])


@settings(max_examples=300)
@given(_spaced_texts() | st.text(alphabet="()->_xyzX1é \t\n\u00a0", max_size=40), _piece_sizes)
def test_parse_matches_reference(text, piece):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "_PIECE", piece)
        _assert_parses_like_reference(text)


def _text_at(at, rest):
    """A formula text in which `rest` starts at offset `at`: a chain of
    implications, then `rest`."""
    q = (at - 5) // 6
    return "ab -> " * q + "c" * (at - 4 - 6 * q) + " -> " + rest


# The offset at which the first piece would end if it were not moved to
# just after a delimiter.
_CUT = formulas._PIECE


@pytest.mark.parametrize(
    "text",
    [
        _text_at(_CUT - 3, "straddle -> z"),
        _text_at(_CUT - 2, "w -> z"),
        _text_at(_CUT - 2, "w->z"),
        _text_at(_CUT - 1, "w->z"),
        _text_at(_CUT - 2, "w \t\n\u00a0  -> z"),
        _text_at(_CUT - 2, "w->(z -> " * 3 + "z)" * 3),
        _text_at(100, "q" * 70_000 + " -> z"),
        "v" * 70_000,
        _text_at(_CUT + 10, "X"),
        _text_at(_CUT - 2, "w - > z"),
        _text_at(_CUT - 1, "(w -> z"),
        _text_at(2 * _CUT + 5, "w) -> z"),
    ],
    ids=[
        "identifier",
        "arrow",
        "arrow-ends-at-cut",
        "arrow-at-cut",
        "whitespace-run",
        "parentheses",
        "no-delimiter-piece",
        "one-identifier",
        "error-in-second-piece",
        "split-arrow",
        "open-parenthesis",
        "error-in-third-piece",
    ],
)
def test_parse_across_piece_cuts(text):
    assert len(text) > _CUT
    _assert_parses_like_reference(text)


_PARSE_RSS = """
import resource
from tagforge.formulas import Imp, parse_formula, render_formula, rendered_length
from tagforge.lemmas import WEAKENING_CALCULUS, collatz_system
from tagforge.reduction import build_reduction

axiom = max(build_reduction(collatz_system(), WEAKENING_CALCULUS, "aaa").groups["T1"],
            key=rendered_length)
copies = 10_000_000 // rendered_length(axiom)
text = " -> ".join(["(" + render_formula(axiom) + ")"] * copies)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
f = parse_formula(text)
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
for _ in range(copies - 1):
    assert type(f) is Imp and f.left is axiom
    f = f.right
assert f is axiom
print(len(text), grew)
"""


def test_parse_ten_megabytes_in_bounded_memory():
    # Tokenizing the whole text at once held about 13 bytes per character.
    src = str(Path(formulas.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_RSS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    chars, grew_kb = map(int, proc.stdout.split())
    assert chars > 9_900_000
    assert grew_kb < 20 * 1024


# --- node facts and shared-subterm rendering --------------------------------

# Up to 80 names, so that many formulas have more distinct variables than a
# node stores.
_wide_names = st.integers(0, 79).map(lambda i: f"v{i}")
_wide_leaves = st.builds(Var, _wide_names | _names)


def _distinct_chain(n, first=0):
    """v{first} -> v{first+1} -> ... with n distinct variables."""
    f = Var(f"v{first + n - 1}")
    for i in range(first + n - 2, first - 1, -1):
        f = Imp(Var(f"v{i}"), f)
    return f


@st.composite
def _dags(draw):
    """A formula whose nodes reuse earlier ones, so its DAG shares subterms
    on either side; each node's tree size is kept under 4,000."""
    width = draw(st.integers(1, 80))
    nodes = [*draw(st.lists(_wide_leaves, min_size=1, max_size=20)), _distinct_chain(width)]
    sizes = [1] * (len(nodes) - 1) + [2 * width - 1]
    for _ in range(draw(st.integers(1, 60))):
        index = st.integers(0, len(nodes) - 1)
        i, j = draw(index), draw(index)
        if sizes[i] + sizes[j] < 4_000:
            nodes.append(Imp(nodes[i], nodes[j]))
            sizes.append(sizes[i] + sizes[j] + 1)
    return nodes[-1]


_wide_formulas = (
    st.recursive(_wide_leaves, lambda f: st.builds(Imp, f, f), max_leaves=120) | _dags()
)
_wide_substs = st.dictionaries(_wide_names | _names, _wide_formulas, max_size=4)


@settings(max_examples=200)
@given(_wide_formulas)
def test_variables_match_walk(f):
    assert variables(f) == _variables_walk(f)


@pytest.mark.parametrize("n", [formulas._NAMES_CAP, formulas._NAMES_CAP + 1])
def test_variables_at_the_cap(n):
    # Both sides of the cap, alone and under a node whose other operand
    # repeats the names.
    f = _distinct_chain(n)
    g = Imp(Imp(f, Var("v0")), _distinct_chain(n, first=n // 2))
    for h in (f, g):
        assert variables(h) == _variables_walk(h)


@settings(max_examples=200)
@given(_wide_formulas, _wide_substs)
def test_apply_substitution_matches_memo(f, subst):
    assert apply_substitution(subst, f) is _apply_substitution_memo(subst, f)


@settings(max_examples=200)
@given(_wide_formulas)
def test_render_matches_streamed(f):
    assert render_formula(f) == _render_streamed(f)


@pytest.mark.parametrize("word", ["aa", "abc", "aaab"])
def test_render_bundle_matches_streamed(word):
    # Encoded words are small DAGs that are large as text: the members of a
    # code share their letter codes, and a letter code repeats its hat.
    t = parse_tag_system("d=2\na -> bc\nb -> a\nc -> aaa\n")
    bundle = build_reduction(t, Calculus("weakening", (p("x -> y -> x"),)), word)
    for key in GROUP_ORDER:
        for f in bundle.groups[key]:
            assert render_formula(f) == _render_streamed(f)


@settings(max_examples=200)
@given(_wide_formulas)
def test_rendered_length_matches_render(f):
    assert rendered_length(f) == len(render_formula(f))


@pytest.mark.parametrize("side", ["left", "right"])
def test_rendered_length_deep_chain(side):
    f = Var("a")
    for _ in range(5_000):
        f = Imp(f, Var("bc")) if side == "left" else Imp(Var("bc"), f)
    assert rendered_length(f) == len(render_formula(f))


def test_unify_occurs_check_through_bindings():
    # x occurs in z -> y only through y's binding to x -> x.
    assert unify(p("(x -> x) -> x"), p("y -> z -> y")) is None
    assert unify(p("(x -> x) -> w"), p("y -> z -> y")) is not None


# --- linear cost: the cap and the shared-only memo --------------------------


def test_wide_chain_costs_linear_time():
    # A per-node tuple without the cap costs n^2 here: about 34 s and 3 GB.
    text = " -> ".join(f"v{i}" for i in range(20_000))
    start = time.perf_counter()
    f = parse_formula(text)
    assert variables(f) == tuple(f"v{i}" for i in range(20_000))
    assert render_formula(f) == text
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_chain_renders_like_streamed(side):
    # Nothing is shared, so nothing is memoised: memoising every bracketed
    # operand of the left chain would hold about 140 GB of text.
    f = Var("a")
    for _ in range(200_000):
        f = Imp(f, Var("a")) if side == "left" else Imp(Var("a"), f)
    start = time.perf_counter()
    assert render_formula(f) == _render_streamed(f)
    assert time.perf_counter() - start < 20


# --- match_instance: one image per pattern node --------------------------


@settings(max_examples=300)
@given(_wide_formulas, _wide_substs, _wide_formulas, st.booleans())
def test_match_instance_matches_pairs(pattern, subst, other, instance):
    # Half the candidates are instances; the rest mostly are not.
    candidate = apply_substitution(subst, pattern) if instance else other
    got = match_instance(candidate, pattern)
    want = _match_instance_pairs(candidate, pattern)
    assert got == want
    if got is not None:
        assert list(got) == list(want)


@pytest.mark.parametrize("word", ["abc" * 67, "abc" * 133], ids=["201-letters", "399-letters"])
def test_match_right_nested_code_against_renamed_copy(word):
    # A code of a few hundred letters is a DAG of a few thousand nodes and a
    # tree too large to walk; matching must visit each pattern node once.
    # Renaming must not recurse once per nesting level.
    code = right_nested(DEFAULT_HAT, word).formula
    renamed = rename_apart(code, set(variables(code)))
    assert renamed is not code
    start = time.perf_counter()
    assert match_instance(renamed, code) == {"p": Var("p_2")}
    assert match_instance(code, renamed) == {"p_2": Var("p")}
    assert match_instance(Imp(code, renamed), Imp(code, code)) is None
    assert time.perf_counter() - start < 2
