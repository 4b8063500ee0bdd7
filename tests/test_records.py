"""The 16 records against the frozen dataclasses they replace, which are kept
here as references: equality and hash, inequality across types and with
plain tuples, refusal of assignment, validation errors, and `repr`."""

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

import pytest

from tagforge import codec, engine, lemmas, reduction, tags
from tagforge.formulas import Formula, Imp, Var, variables
from tagforge.tags import _LETTER, TagSystemError

# --- the dataclass definitions as they were ----------------------------------


@dataclass(frozen=True)
class HatTemplate:
    body: Formula

    def __post_init__(self):
        if variables(self.body) != ("x",):
            raise ValueError("hat template must use exactly the variable x")


@dataclass(frozen=True, eq=False)
class AlphabeticFormula:
    word: str
    formula: Formula
    letter: str | None = None
    left: "AlphabeticFormula | None" = None
    right: "AlphabeticFormula | None" = None


@dataclass(frozen=True)
class WordCode:
    word: str
    members: tuple


@dataclass(frozen=True)
class Calculus:
    label: str
    axioms: tuple


@dataclass(frozen=True)
class AxiomStep:
    axiom: int
    substitution: Mapping[str, Formula]
    result: Formula


@dataclass(frozen=True)
class DetachStep:
    major: int
    minor: int
    unifier: Mapping[str, Formula]
    result: Formula


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple


@dataclass(frozen=True)
class ClosureLevel:
    level: int
    generators: tuple


@dataclass(frozen=True)
class Derivable:
    trace: DerivationTrace
    generator: Formula
    level: int


@dataclass(frozen=True)
class NotFoundWithinBudget:
    depth: int


@dataclass(frozen=True)
class ChainProof:
    waypoints: tuple
    links: tuple


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    instance: str
    verdict: str
    witness: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    artifacts: tuple = ()


@dataclass(frozen=True)
class ReductionBundle:
    tag: object
    p0: object
    hat: object
    input_word: str
    groups: dict


@dataclass(frozen=True)
class TagSystem:
    alphabet: tuple
    productions: dict
    deletion: int

    def __post_init__(self):
        if not self.alphabet:
            raise TagSystemError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise TagSystemError("duplicate letter in alphabet")
        if self.deletion < 1:
            raise TagSystemError("deletion number must be positive")
        for letter in self.alphabet:
            if not _LETTER.fullmatch(letter):
                raise TagSystemError(f"letters must be single chars a-z, got {letter!r}")
            word = self.productions.get(letter)
            if word is None:
                raise TagSystemError(f"no production for letter {letter!r}")
            if not word:
                raise TagSystemError(f"empty production for letter {letter!r}")
            for ch in word:
                if ch not in self.productions:
                    raise TagSystemError(f"unknown letter {ch!r} in production of {letter!r}")
        if set(self.productions) != set(self.alphabet):
            raise TagSystemError("productions must cover exactly the alphabet")


@dataclass(frozen=True)
class Halted:
    word: str
    steps: int


@dataclass(frozen=True)
class BudgetExhausted:
    word: str


# --- samples -------------------------------------------------------------------

X, Y = Var("x"), Var("y")
XX = Imp(X, X)
SYSTEM = tags.TagSystem(("a", "b"), {"a": "b", "b": "a"}, 2)
STEP = engine.AxiomStep(0, {"x": Y}, Y)

# Each record with two samples of its field values, the second differing
# from the first in one field.
SAMPLES = {
    (codec.HatTemplate, HatTemplate): [(X,), (XX,)],
    (codec.AlphabeticFormula, AlphabeticFormula): [("a", XX, "a", None, None), ("a", XX, "b", None, None)],
    (codec.WordCode, WordCode): [("ab", (XX,)), ("ab", (XX, X))],
    (engine.Calculus, Calculus): [("k", (X,)), ("s", (X,))],
    (engine.AxiomStep, AxiomStep): [(0, {"x": Y}, Y), (0, {"x": Y}, X)],
    (engine.DetachStep, DetachStep): [(1, 0, {"x": Y}, Y), (0, 1, {"x": Y}, Y)],
    (engine.DerivationTrace, DerivationTrace): [((STEP,),), ((STEP, STEP),)],
    (engine.ClosureLevel, ClosureLevel): [(0, ()), (1, ())],
    (engine.Derivable, Derivable): [(engine.DerivationTrace(()), XX, 0), (engine.DerivationTrace(()), XX, 1)],
    (engine.NotFoundWithinBudget, NotFoundWithinBudget): [(3,), (4,)],
    (engine.ChainProof, ChainProof): [((X, Y), (engine.DerivationTrace(()),)), ((X,), ())],
    (lemmas.LemmaReport, LemmaReport): [
        ("lemma3", "i", "pass", {"n": 1}, {"pairs": 2}, (("t", engine.DerivationTrace(())),)),
        ("lemma3", "i", "fail", {"n": 1}, {"pairs": 2}, ()),
    ],
    (reduction.ReductionBundle, ReductionBundle): [
        (SYSTEM, engine.Calculus("k", (X,)), codec.DEFAULT_HAT, "ab", {"H": (XX,)}),
        (SYSTEM, engine.Calculus("k", (X,)), codec.DEFAULT_HAT, "ba", {"H": (XX,)}),
    ],
    (tags.TagSystem, TagSystem): [(("a", "b"), {"a": "b", "b": "a"}, 2), (("a", "b"), {"a": "b", "b": "a"}, 1)],
    (tags.Halted, Halted): [("a", 3), ("a", 4)],
    (tags.BudgetExhausted, BudgetExhausted): [("ab",), ("ba",)],
}
PAIRS = list(SAMPLES)
IDS = [new.__name__ for new, _ in PAIRS]


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def test_every_record_is_covered():
    assert len(SAMPLES) == 16
    assert all(new.__name__ == ref.__name__ for new, ref in PAIRS)


def _hash(obj):
    """obj's hash; "identity" for the default one, TypeError if none."""
    try:
        h = hash(obj)
    except TypeError:
        return TypeError
    return "identity" if h == object.__hash__(obj) else h


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_equality_and_hash_match_the_dataclass(new, ref):
    a, b = SAMPLES[new, ref]
    for left, right in [(a, a), (a, b), (b, a)]:
        got = new(*left) == new(*right), new(*left) != new(*right)
        assert got == (ref(*left) == ref(*right), ref(*left) != ref(*right))
    for values in (a, b):
        x, y = new(*values), ref(*values)
        assert (x == x, x != x) == (True, False)
        assert _hash(x) == _hash(y)


def test_hat_template_hash_is_by_body():
    h = codec.HatTemplate(XX)
    assert hash(h) == hash(HatTemplate(XX)) and h == codec.HatTemplate(XX)
    assert len({h, codec.HatTemplate(XX), codec.DEFAULT_HAT}) == 2


def test_alphabetic_formula_keeps_identity_equality():
    values = SAMPLES[codec.AlphabeticFormula, AlphabeticFormula][0]
    x, y = codec.AlphabeticFormula(*values), codec.AlphabeticFormula(*values)
    assert x != y and x == x and hash(x) == object.__hash__(x)


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_unequal_to_other_records_and_to_tuples(new, ref):
    values = SAMPLES[new, ref][0]
    x = new(*values)
    assert x != values and values != x and not x == values and not values == x
    assert x != ref(*values)
    for other, other_ref in PAIRS:
        if other is new:
            continue
        candidates = [other(*SAMPLES[other, other_ref][0])]
        same = _outcome(other, *values)  # the same values, where they fit
        if isinstance(same, other):
            candidates.append(same)
        for y in candidates:
            assert x != y and y != x and not x == y and not y == x


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_assignment_is_refused(new, ref):
    values = SAMPLES[new, ref][0]
    x, y = new(*values), ref(*values)
    for name in [f.name for f in dataclasses.fields(ref)] + ["extra"]:
        for obj in (x, y):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert [getattr(x, f.name) for f in dataclasses.fields(ref)] == list(values)


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_repr_matches_the_dataclass(new, ref):
    for values in SAMPLES[new, ref]:
        assert repr(new(*values)) == repr(ref(*values))


def test_defaults_match_the_dataclass():
    assert repr(codec.AlphabeticFormula("a", XX)) == repr(AlphabeticFormula("a", XX))
    report, other = lemmas.LemmaReport("l", "i", "pass"), lemmas.LemmaReport("l", "i", "pass")
    assert repr(report) == repr(LemmaReport("l", "i", "pass")) and report == other
    assert report.witness is not other.witness and report.resources is not other.resources


@pytest.mark.parametrize("body", [Y, Imp(X, Y), Imp(Y, X)], ids=["y", "x->y", "y->x"])
def test_hat_template_validation_matches(body):
    got, want = _outcome(codec.HatTemplate, body), _outcome(HatTemplate, body)
    assert got == want and want[0] is ValueError


@pytest.mark.parametrize(
    "alphabet, productions, deletion",
    [
        ((), {}, 2),
        (("a", "a"), {"a": "a"}, 2),
        (("a",), {"a": "a"}, 0),
        (("A",), {"A": "A"}, 1),
        (("ab",), {"ab": "ab"}, 1),
        (("a",), {}, 1),
        (("a",), {"a": ""}, 1),
        (("a",), {"a": "b"}, 1),
        (("a",), {"a": "a", "b": "a"}, 1),
        (("a", "b"), {"a": "b", "b": "a"}, 2),
    ],
)
def test_tag_system_validation_matches(alphabet, productions, deletion):
    got = _outcome(tags.TagSystem, alphabet, productions, deletion)
    want = _outcome(TagSystem, alphabet, productions, deletion)
    if isinstance(want, TagSystem):
        assert repr(got) == repr(want)
    else:
        assert got == want and want[0] is TagSystemError


def test_cached_views_survive_the_refusal_of_assignment():
    bundle = reduction.build_reduction(lemmas.shrinking_system(), lemmas.WEAKENING_CALCULUS, "ab")
    assert bundle.full is bundle.full and bundle.pt is bundle.pt
    with pytest.raises(AttributeError):
        bundle.full = None
