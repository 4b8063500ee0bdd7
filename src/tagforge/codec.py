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
`code_member_of` reads back the one member that a formula is an instance
of, and `decode` the member that a formula is.

Everything is pure.  The term kernel interns every formula, so caching a
formula only saves rebuilding it.  Four caches are kept, each for a reason
(chains benchmark medians of 3 runs on 2 vCPUs):
  dot           without it wall time rose 4% (1.32 to 1.37 s); `circ` is
                uncached, as its results are `dot`'s;
  letter_code,  equal parses are one object (see `AlphabeticFormula`), and
  dot_code      without them job tail time rose 53% (0.011 to 0.017 s);
  _bracketings  each left member re-reads the word's right part, so
                uncached calls grow faster than the members: the default
                lemma 3 sweep makes 1,332 `dot_code` calls without it and
                468 with it, a 12-letter word 476,102 and 106,212.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .formulas import (
    Formula,
    Imp,
    Var,
    _SlotsRecord,
    _record,
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
    "code_member_of",
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


class HatTemplate(_SlotsRecord):
    """A formula whose only variable is x; applied by substituting for x.
    Hashed by body, as it keys the codec's caches."""

    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        if variables(body) != ("x",):
            raise ValueError("hat template must use exactly the variable x")
        self._set(body)

    def __hash__(self) -> int:
        return hash((self.body,))

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


class AlphabeticFormula(_SlotsRecord):
    """A formula together with its unique parse as letter codes joined by dot.

    Exactly one of `letter` (leaf) or `left`/`right` (interior node) is set.
    Only the cached `letter_code` and `dot_code` build these, so equal parses
    are one object, and `==` and `hash` are the identity ones: a structural
    hash would walk the whole parse on every cache lookup.
    """

    __slots__ = _fields = ("word", "formula", "letter", "left", "right")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        word: str,
        formula: Formula,
        letter: str | None = None,
        left: AlphabeticFormula | None = None,
        right: AlphabeticFormula | None = None,
    ):
        self._set(word, formula, letter, left, right)

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


@_record
class WordCode(NamedTuple):
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


def _unhat(h: HatTemplate, f: Formula) -> Formula:
    """The g with hat_at(h, g) == f, if f is a hat: f's subterm where the
    template has its leftmost x.  Otherwise some subterm of f."""
    body = h.body
    while type(body) is Imp and type(f) is Imp:
        body, f = body.left, f.left
    return f


def code_member_of(h: HatTemplate, f: Formula) -> AlphabeticFormula | None:
    """The code member under h that f is an instance of, or None.

    Substituting for p leaves every circ node above the p leaves intact, so
    the member is read off f's skeleton.  A node circ(h, x, y) whose x is a
    chain y -> y -> ... -> y of 1 to 26 links over its own y is a letter;
    any other node is dot(h, a, y) with a = x.right.  A dot's x is
    (a -> a) -> a, which is never such a chain, so an instance of a member
    reads as that member, and by lemma 3 no other member generalises it.
    The one `match_instance` at the end decides.  Right operands are walked
    in a loop and left operands wait on an explicit stack, so a code of any
    length and bracketing is read.
    """
    # Formulas still to read, and None marking a dot whose operands' members
    # are on top of `done`, the left one uppermost.
    todo: list[Formula | None] = [f]
    done: list[AlphabeticFormula] = []
    while todo:
        g = todo.pop()
        if g is None:
            left = done.pop()
            done.append(dot_code(h, left, done.pop()))
            continue
        while True:
            if type(g) is not Imp or type(g.left) is not Imp or type(g.right) is not Imp:
                return None
            y = _unhat(h, g.left.right)
            x = _unhat(h, g.right.left)
            if type(x) is not Imp:
                return None
            links, chain = 0, x
            while type(chain) is Imp and chain.left is y:
                links, chain = links + 1, chain.right
            if chain is y and 1 <= links <= 26:
                done.append(letter_code(h, chr(ord("a") + links - 1)))
                break
            todo.append(None)
            todo.append(x.right)
            g = y
    member = done[0]
    return member if match_instance(f, member.formula) is not None else None


def decode(h: HatTemplate, f: Formula) -> AlphabeticFormula | None:
    """The unique parse of f under h's encoding, or None.

    Present exactly when f is itself a code member (a letter code or a dot of
    two alphabetic formulas) for this template: the member that
    `code_member_of` reads off f, when it is f and not a proper instance.
    """
    member = code_member_of(h, f)
    return member if member is not None and member.formula is f else None


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
