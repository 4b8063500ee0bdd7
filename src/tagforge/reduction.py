"""Build the calculi that make a tag system's halting question a derivability
question.

The production calculus has three axiom groups over encoded words:

  T1   code(a_i + alpha) . x  ->  x . code(omega_i)     (tail left over)
  T2   code(a_i + alpha)      ->  code(omega_i)         (nothing left over)
  R    the four rebracketing moves between dot shapes

where alpha ranges over all words of length deletion-1 and every axiom is
expanded over every bracketing of both sides.  The halting hooks H map each
code of a word shorter than the deletion number to each axiom of the target
calculus, so a halting run hands over exactly the target's theorems.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Sequence

from .codec import (
    DEFAULT_HAT,
    HatTemplate,
    choose_hat,
    code_member_of,
    code_word,
    default_hat_candidates,
    dot,
)
from .engine import Calculus, calculus_to_json
from .formulas import Formula, Imp, Var, _SlotsRecord, render_formula
from .tags import TagSystem, render_tag_file, run_words

__all__ = [
    "GROUP_ORDER",
    "ReductionBundle",
    "build_H",
    "build_PT",
    "build_reduction",
    "bundle_to_json",
    "production_axioms",
    "rebracketing_axioms",
    "short_code_members",
    "t_alpha_member",
    "words_of_length",
]

# Trailer variable of the production schemes; kept distinct from the code
# variable p so scheme instances stay unrestricted.
SCHEME_VARIABLE = "x"

# The axiom groups of the reduction calculus, in calculus order: axiom
# indices in traces and the bundle JSON follow it.  The production calculus
# is its first three groups.
GROUP_ORDER = ("T1", "T2", "R", "H", "input")
_PRODUCTION_GROUPS = GROUP_ORDER[:3]


def words_of_length(alphabet: Sequence[str], n: int) -> list[str]:
    return ["".join(c) for c in product(alphabet, repeat=n)]


def rebracketing_axioms(h: HatTemplate) -> tuple[Formula, Formula, Formula, Formula]:
    """The four dot-reassociation schemes, at the root and under a trailer.

    They come in converse pairs: axiom k ^ 1 is axiom k with its sides
    swapped, so one substitution takes either across the same rotation."""
    x, y, z, u = Var("x"), Var("y"), Var("z"), Var("u")

    def d(a: Formula, b: Formula) -> Formula:
        return dot(h, a, b)

    return (
        Imp(d(x, d(y, z)), d(d(x, y), z)),
        Imp(d(d(x, y), z), d(x, d(y, z))),
        Imp(d(d(x, d(y, z)), u), d(d(d(x, y), z), u)),
        Imp(d(d(d(x, y), z), u), d(d(x, d(y, z)), u)),
    )


def production_axioms(
    t: TagSystem, h: HatTemplate
) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
    """The T1 and T2 groups, fully expanded over bracketings.

    Order is fixed for reproducible traces: letters in alphabet order, then
    head words lexicographically, then head bracketings, then production
    bracketings.  For deletion number 1 the head degenerates to the bare
    letter (the empty alpha is admitted).
    """
    x = Var(SCHEME_VARIABLE)
    t1: list[Formula] = []
    t2: list[Formula] = []
    tails = words_of_length(t.alphabet, t.deletion - 1)
    for letter in t.alphabet:
        omega_members = code_word(h, t.productions[letter]).formulas
        for alpha in tails:
            for head in code_word(h, letter + alpha).formulas:
                for target in omega_members:
                    t1.append(Imp(dot(h, head, x), dot(h, x, target)))
                    t2.append(Imp(head, target))
    return tuple(t1), tuple(t2)


def _production_groups(t: TagSystem, h: HatTemplate) -> dict[str, tuple[Formula, ...]]:
    t1, t2 = production_axioms(t, h)
    return {"T1": t1, "T2": t2, "R": rebracketing_axioms(h)}


def _join(
    label: str, groups: dict[str, tuple[Formula, ...]], names: Sequence[str]
) -> Calculus:
    """The named groups, concatenated in the order given."""
    return Calculus(label, tuple(ax for name in names for ax in groups[name]))


def build_PT(t: TagSystem, h: HatTemplate = DEFAULT_HAT) -> Calculus:
    """The production calculus: T1, then T2, then the rebracketing moves."""
    return _join("productions", _production_groups(t, h), _PRODUCTION_GROUPS)


def short_code_members(t: TagSystem, h: HatTemplate) -> tuple[Formula, ...]:
    """Every code member of every nonempty word shorter than the deletion
    number: the codes a halting run can end on."""
    return tuple(
        member
        for length in range(1, t.deletion)
        for word in words_of_length(t.alphabet, length)
        for member in code_word(h, word).formulas
    )


def build_H(t: TagSystem, p0: Calculus, h: HatTemplate = DEFAULT_HAT) -> Calculus:
    """Halting hooks: every short-word code member implies every axiom of the
    target calculus."""
    axioms = tuple(Imp(m, a) for m in short_code_members(t, h) for a in p0.axioms)
    return Calculus("halting-hooks", axioms)


class ReductionBundle(_SlotsRecord):
    """Everything built for one (tag system, target calculus, input) triple.

    `groups` holds each axiom group once, by name; `groups["H"]` is the
    halting hooks.  The calculi are views of it in GROUP_ORDER: `full` is the
    reduction calculus and `pt` the production calculus.
    """

    _fields = ("tag", "p0", "hat", "input_word", "groups")
    __slots__ = (*_fields, "__dict__")  # the cached views live in __dict__

    def __init__(
        self,
        tag: TagSystem,
        p0: Calculus,
        hat: HatTemplate,
        input_word: str,
        groups: dict[str, tuple[Formula, ...]],
    ):
        self._set(tag, p0, hat, input_word, groups)

    @cached_property
    def full(self) -> Calculus:
        return _join(f"reduction:{self.input_word}", self.groups, GROUP_ORDER)

    @cached_property
    def pt(self) -> Calculus:
        return _join("productions", self.groups, _PRODUCTION_GROUPS)


def build_reduction(
    t: TagSystem,
    p0: Calculus,
    input_word: str,
    candidates: Sequence[HatTemplate] | None = None,
) -> ReductionBundle:
    if not input_word:
        raise ValueError("input word must be nonempty")
    for ch in input_word:
        if ch not in t.productions:
            raise ValueError(f"input letter {ch!r} outside alphabet")
    hat = choose_hat(p0, candidates if candidates is not None else default_hat_candidates())
    groups = _production_groups(t, hat)
    groups["H"] = build_H(t, p0, hat).axioms
    groups["input"] = code_word(hat, input_word).formulas
    return ReductionBundle(t, p0, hat, input_word, groups)


def t_alpha_member(
    t: TagSystem, alpha: str, f: Formula, h: HatTemplate, max_steps: int
) -> bool:
    """Is f an instance of a code member of alpha or of any word the run from
    alpha produces within max_steps productions?

    At most one member generalises f, and `code_member_of` reads it off f's
    skeleton, so no word's bracketings are enumerated: the answer is whether
    that member's word is on the run.
    """
    if not alpha:
        raise ValueError("alpha must be nonempty")
    words = run_words(t, alpha, max_steps)
    member = code_member_of(h, f)
    return member is not None and member.word in words


def bundle_to_json(bundle: ReductionBundle) -> dict:
    obj: dict = {
        key: [render_formula(f) for f in bundle.groups[key]] for key in GROUP_ORDER
    }
    obj["hat"] = bundle.hat.text
    obj["tag_file"] = render_tag_file(bundle.tag)
    obj["p0"] = calculus_to_json(bundle.p0)
    return obj
