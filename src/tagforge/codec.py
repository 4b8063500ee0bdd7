"""Word encodings over implicational formulas.

A fixed one-variable template ("hat") turns letters and words into formulas.
The two building blocks are:

  circ(h, a, b)  =  P -> (a^ -> P)   where P = (b^ -> b^) -> b^
                                     and g^ denotes the template applied to g

which is always an instance of the weakening shape x -> (y -> x), and

  dot(h, a, b)   =  circ(h, (a -> a) -> a, b)

which concatenates encoded pieces.  A letter is encoded as circ of a
right-nested chain of the reserved variable p (chain length is the letter's
index, a=1 ... z=26); a word is encoded as the set of all dot-bracketings of
its letter codes, so a word of length n has catalan(n-1) code members.

Everything is pure.  The term kernel interns every formula, so caching a
formula only saves rebuilding it.  Four caches are kept, each for a reason
(chains benchmark medians of 3 runs on 2 vCPUs):
  dot           without it wall time rose 4% (1.32 to 1.37 s); `circ` is
                uncached, as its results are `dot`'s;
  letter_code,  equal parses are one object (see `AlphabeticFormula`), and
  dot_code      without them job tail time rose 53% (0.011 to 0.017 s);
  _bracketings  `code_word` is uncached and asked again for each run word:
                on lemma 9 for collatz `aaaaaaa` to depth 2 this cache
                turns 315,112 `dot_code` calls into 462.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .formulas import (
    Formula,
    Imp,
    Var,
    apply_substitution,
    match_instance,
    parse_formula,
    render_formula,
    variables,
)

__all__ = [
    "AlphabeticFormula",
    "CODE_VARIABLE",
    "DEFAULT_HAT",
    "HatExhaustionError",
    "HatTemplate",
    "WordCode",
    "catalan",
    "choose_hat",
    "circ",
    "code_letter",
    "code_word",
    "decode",
    "default_hat_candidates",
    "dot",
    "hat_at",
    "letter_code",
    "letter_index",
    "right_nested",
]

# Reserved for letter codes; scheme variables elsewhere must avoid it.
CODE_VARIABLE = "p"
_P = Var(CODE_VARIABLE)


class HatExhaustionError(ValueError):
    """No candidate template was compatible with the target calculus."""


@dataclass(frozen=True)
class HatTemplate:
    """A formula whose only variable is x; applied by substituting for x."""

    body: Formula

    def __post_init__(self):
        if variables(self.body) != ("x",):
            raise ValueError("hat template must use exactly the variable x")

    @classmethod
    def from_text(cls, text: str) -> "HatTemplate":
        return cls(parse_formula(text))

    @property
    def text(self) -> str:
        return render_formula(self.body)


DEFAULT_HAT = HatTemplate(Var("x"))


def default_hat_candidates() -> tuple[HatTemplate, ...]:
    """The escalation sequence x, x -> x, x -> (x -> x), ..., eight templates.

    The bare variable comes first because it minimizes formula size; later
    entries only matter when the target calculus collides with the encoding.
    """
    out = []
    body: Formula = Var("x")
    for _ in range(8):
        out.append(HatTemplate(body))
        body = Imp(Var("x"), body)
    return tuple(out)


def hat_at(h: HatTemplate, f: Formula) -> Formula:
    """The template body with every occurrence of x replaced by f."""
    return apply_substitution({"x": f}, h.body)


def circ(h: HatTemplate, a: Formula, b: Formula) -> Formula:
    hb = hat_at(h, b)
    ha = hat_at(h, a)
    pivot = Imp(Imp(hb, hb), hb)
    return Imp(pivot, Imp(ha, pivot))


def letter_index(letter: str) -> int:
    """Universal letter numbering: a=1 ... z=26."""
    if len(letter) != 1 or not ("a" <= letter <= "z"):
        raise ValueError(f"letters must be single chars a-z, got {letter!r}")
    return ord(letter) - ord("a") + 1


def code_letter(h: HatTemplate, index: int) -> Formula:
    """circ of the right-nested chain of `index` implications over p, at p."""
    if index < 1:
        raise ValueError("letter index must be positive")
    chain: Formula = _P
    for _ in range(index):
        chain = Imp(_P, chain)
    return circ(h, chain, _P)


@lru_cache(maxsize=None)
def dot(h: HatTemplate, a: Formula, b: Formula) -> Formula:
    return circ(h, Imp(Imp(a, a), a), b)


@dataclass(frozen=True, eq=False)
class AlphabeticFormula:
    """A formula together with its unique parse as letter codes joined by dot.

    Exactly one of `letter` (leaf) or `left`/`right` (interior node) is set.
    Only the cached `letter_code` and `dot_code` build these, so equal parses
    are one object, and `==` and `hash` are the identity ones: a structural
    hash would walk the whole parse on every cache lookup.
    """

    word: str
    formula: Formula
    letter: str | None = None
    left: "AlphabeticFormula | None" = None
    right: "AlphabeticFormula | None" = None

    @property
    def is_letter(self) -> bool:
        return self.letter is not None


@lru_cache(maxsize=None)
def letter_code(h: HatTemplate, letter: str) -> AlphabeticFormula:
    return AlphabeticFormula(letter, code_letter(h, letter_index(letter)), letter=letter)


@lru_cache(maxsize=None)
def dot_code(h: HatTemplate, left: AlphabeticFormula, right: AlphabeticFormula) -> AlphabeticFormula:
    return AlphabeticFormula(
        left.word + right.word,
        dot(h, left.formula, right.formula),
        left=left,
        right=right,
    )


@dataclass(frozen=True)
class WordCode:
    """All bracketings encoding one nonempty word, in canonical order."""

    word: str
    members: tuple[AlphabeticFormula, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(m.formula for m in self.members)


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


@lru_cache(maxsize=None)
def _bracketings(h: HatTemplate, word: str) -> tuple[AlphabeticFormula, ...]:
    if len(word) == 1:
        return (letter_code(h, word),)
    out = []
    for split in range(1, len(word)):
        for left in _bracketings(h, word[:split]):
            for right in _bracketings(h, word[split:]):
                out.append(dot_code(h, left, right))
    return tuple(out)


def code_word(h: HatTemplate, word: str) -> WordCode:
    """The set of all bracketings of the word's letter codes."""
    if not word:
        raise ValueError("cannot encode the empty word")
    return WordCode(word, _bracketings(h, word))


def right_nested(h: HatTemplate, word: str) -> AlphabeticFormula:
    """The fully right-nested bracketing, the spine form chains normalize to.

    Built letter by letter from the right, without enumerating the other
    bracketings.
    """
    if not word:
        raise ValueError("cannot encode the empty word")
    spine = letter_code(h, word[-1])
    for letter in reversed(word[:-1]):
        spine = dot_code(h, letter_code(h, letter), spine)
    return spine


def _unhat(h: HatTemplate, f: Formula) -> Formula | None:
    """Invert the template: g with hat_at(h, g) == f, if any."""
    if type(h.body) is Var:
        return f
    m = match_instance(f, h.body)
    if m is None:
        return None
    return m.get("x", Var("x"))


def _letter_chain_index(f: Formula) -> int | None:
    n = 0
    g = f
    while type(g) is Imp and g.left == _P:
        n += 1
        g = g.right
    if n >= 1 and g == _P:
        return n
    return None


def decode(h: HatTemplate, f: Formula) -> AlphabeticFormula | None:
    """Recover the unique parse of f under h's encoding, or None.

    Present exactly when f is an alphabetic formula (a letter code or a dot of
    two alphabetic formulas) for this template.  The right spine of each
    operand is walked in a loop, and left operands wait on an explicit stack,
    so a code of any length and bracketing decodes.
    """
    # Formulas still to parse, and 1-tuples holding a dot node whose operands'
    # parses are on top of `done`, the left one uppermost.
    todo: list[Formula | tuple[Formula]] = [f]
    done: list[AlphabeticFormula] = []
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            left = done.pop()
            result = dot_code(h, left, done.pop())
            if result.formula != item[0]:
                return None
            done.append(result)
            continue
        f = item
        while True:
            if type(f) is not Imp or type(f.right) is not Imp:
                return None
            pivot, body = f.left, f.right
            if body.right != pivot or type(pivot) is not Imp or type(pivot.left) is not Imp:
                return None
            q = pivot.right
            if pivot.left.left != q or pivot.left.right != q:
                return None
            y_arg = _unhat(h, q)
            x_arg = _unhat(h, body.left)
            if y_arg is None or x_arg is None:
                return None
            index = _letter_chain_index(x_arg)
            if index is not None:
                if y_arg != _P or not 1 <= index <= 26:
                    return None
                result = letter_code(h, chr(ord("a") + index - 1))
                if result.formula != f:
                    return None
                done.append(result)
                break
            if not (
                type(x_arg) is Imp
                and type(x_arg.left) is Imp
                and x_arg.left.left == x_arg.right
                and x_arg.left.right == x_arg.right
            ):
                return None
            todo.append((f,))
            todo.append(x_arg.right)
            f = y_arg
    return done[0]


def choose_hat(p0, candidates: Sequence[HatTemplate]) -> HatTemplate:
    """First candidate whose circ patterns are instantiated by no axiom of the
    calculus p0.

    A candidate is rejected when some axiom is an instance of circ(h, x, y) or
    of circ(h, x, y) -> z, since such an axiom could masquerade as encoded
    data.
    """
    if not candidates:
        raise HatExhaustionError("no hat candidates supplied")
    x, y, z = Var("x"), Var("y"), Var("z")
    for h in candidates:
        pat = circ(h, x, y)
        pat_imp = Imp(pat, z)
        if any(
            match_instance(ax, pat) is not None or match_instance(ax, pat_imp) is not None
            for ax in p0.axioms
        ):
            continue
        return h
    raise HatExhaustionError("every hat candidate collides with the target calculus")
