"""Desk-scale verification suite.

Each check exercises one numbered correctness lemma of the construction on a
concrete instance and returns a `LemmaReport`.  Pass verdicts are backed by
evidence that has already been re-validated through the independent kernel
(check_trace / chain_check); fail verdicts carry a concrete counterexample;
anything that runs out of budget is reported as inconclusive, never as pass.

The lemma numbering is the project's own; see the README for what each id
states.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .codec import (
    DEFAULT_HAT,
    AlphabeticFormula,
    HatTemplate,
    catalan,
    circ,
    code_word,
    decode,
    default_hat_candidates,
    dot,
    dot_code,
    right_nested,
)
from .engine import (
    AxiomStep,
    Calculus,
    ChainProof,
    ClosureLevel,
    DerivationTrace,
    Generator,
    GeneratorCapError,
    _chain_ok,
    chain_check,
    chain_trace,
    check_trace,
    closure_level,
    find_generators,
)
from .formulas import (
    Formula,
    Imp,
    Var,
    _SlotsRecord,
    _unify_banks,
    match_instance,
    parse_formula,
    render_formula,
    unify,
)
from .reduction import (
    ReductionBundle,
    build_PT,
    build_reduction,
    rebracketing_axioms,
    short_code_members,
    t_alpha_member,
    words_of_length,
)
from .tags import Halted, TagSystem, parse_tag_system, tag_path, tag_run

__all__ = [
    "LEMMA_OPTIONS",
    "LemmaReport",
    "WEAKENING_AXIOM",
    "WEAKENING_CALCULUS",
    "build_chain_lemma6",
    "build_run_chain",
    "check_halting_equivalence",
    "check_inclusion",
    "check_lemma1",
    "check_lemma3",
    "check_production",
    "check_run_chain",
    "collatz_system",
    "enumerate_alphabetic",
    "growing_system",
    "rebracketing_calculus",
    "run_lemma",
    "shrinking_system",
    "system_label",
    "unread_options",
]

WEAKENING_AXIOM = parse_formula("x -> y -> x")
WEAKENING_CALCULUS = Calculus("weakening", (WEAKENING_AXIOM,))


class LemmaReport(_SlotsRecord):
    __slots__ = _fields = ("lemma", "instance", "verdict", "witness", "resources", "artifacts")

    def __init__(
        self,
        lemma: str,
        instance: str,
        verdict: str,  # "pass" | "fail" | "inconclusive-budget"
        witness: dict | None = None,
        resources: dict | None = None,
        artifacts: tuple = (),  # (name, DerivationTrace) pairs
    ):
        witness = {} if witness is None else witness
        resources = {} if resources is None else resources
        self._set(lemma, instance, verdict, witness, resources, artifacts)


def system_label(t: TagSystem) -> str:
    rules = ",".join(f"{a}>{t.productions[a]}" for a in t.alphabet)
    return f"[{rules}|d={t.deletion}]"


def collatz_system() -> TagSystem:
    """Three letters, deletion 2; the classic arithmetic-flavoured example."""
    return parse_tag_system("d=2\na -> bc\nb -> a\nc -> aaa\n")


def shrinking_system() -> TagSystem:
    """Halts on every input: each production shortens the word."""
    return parse_tag_system("d=2\na -> b\nb -> b\n")


def growing_system() -> TagSystem:
    """Never halts on words of length >= 2: productions preserve length."""
    return parse_tag_system("d=2\na -> aa\n")


def rebracketing_calculus(h: HatTemplate = DEFAULT_HAT) -> Calculus:
    return Calculus("rebracketing", rebracketing_axioms(h))


# --- combinator separation -------------------------------------------------


def check_lemma1(h: HatTemplate) -> LemmaReport:
    """The pairing combinator never unifies with its own implication
    extension, variables shared as written."""
    pat = circ(h, Var("x"), Var("y"))
    u = unify(pat, Imp(pat, Var("z")))
    verdict = "pass" if u is None else "fail"
    witness = {} if u is None else {"unifier": {k: render_formula(v) for k, v in u.items()}}
    return LemmaReport("lemma1", f"hat={h.text}", verdict, witness)


# --- code separation --------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _check_sweep_bounds(alphabet_size: int, max_len: int) -> None:
    if not 1 <= alphabet_size <= len(_LETTERS) or max_len < 1:
        raise ValueError(
            f"alphabet_size must be 1 to {len(_LETTERS)} and max_len at least 1,"
            f" got {alphabet_size} and {max_len}"
        )


def _sweep_words(alphabet_size: int, max_len: int) -> Iterator[str]:
    """Every word of length 1 to max_len over the first alphabet_size letters,
    shorter words first.  The bounds are checked before any word is made: a
    sweep with no words, or with letters past z, would pass having checked
    nothing."""
    _check_sweep_bounds(alphabet_size, max_len)
    letters = tuple(_LETTERS[:alphabet_size])
    return (
        word for length in range(1, max_len + 1) for word in words_of_length(letters, length)
    )


def enumerate_alphabetic(
    h: HatTemplate, alphabet_size: int, max_len: int
) -> list[AlphabeticFormula]:
    """All code members for all words up to max_len over the first
    alphabet_size letters, in word order then bracketing order."""
    out: list[AlphabeticFormula] = []
    for word in _sweep_words(alphabet_size, max_len):
        out.extend(code_word(h, word).members)
    return out


# Lemma 3 checks at most this many pairs of code members.
_LEMMA3_MAX_PAIRS = 2_000_000


def _unifies(memo: dict, a: Formula, b: Formula) -> bool:
    """Whether a, read in bank 0, unifies with b, read in bank 1: memo[a][b]."""
    row = memo.get(a)
    if row is None:
        row = memo[a] = {}
    hit = row.get(b)
    if hit is None:
        hit = row[b] = _unify_banks(a, 0, b, 1) is not None
    return hit


def _first_unifiable(f: Imp, later: list[Imp], memo: dict) -> int | None:
    """Index of the first of `later` that unifies with f, f read in variable
    bank 0 and `later` in bank 1, or None.

    Any unifier of two terms also unifies each pair of their subterms at the
    same position.  So a pair is tested first at three positions: left
    halves, then the left and the right halves of the right halves (the
    right halves whole when either is not an implication); only a pair that
    passes all three is unified whole.  Each test depends on its two
    subterms alone, so one `memo` of them serves every row of a sweep."""
    fr = f.right
    for j, g in enumerate(later):
        if not _unifies(memo, f.left, g.left):
            continue
        gr = g.right
        if type(fr) is Imp and type(gr) is Imp:
            halves = _unifies(memo, fr.left, gr.left) and _unifies(memo, fr.right, gr.right)
        else:
            halves = _unifies(memo, fr, gr)
        if halves and _unify_banks(f, 0, g, 1) is not None:
            return j
    return None


def check_lemma3(h: HatTemplate, alphabet_size: int, max_len: int) -> LemmaReport:
    """No two distinct code members are unifiable, their variables read
    apart (all members share the code variable p).  Every pair is decided,
    row by row, through one `_first_unifiable` memo for the whole sweep:
    the default sweep's 110,685 pairs take 4,624 unifications."""
    _check_sweep_bounds(alphabet_size, max_len)
    instance = f"hat={h.text} alphabet={alphabet_size} max_len={max_len}"
    # The budget is checked before any member is built (an n-letter word has
    # catalan(n - 1) bracketings), up to the first length that passes it.
    n = 0
    for length in range(1, max_len + 1):
        n += alphabet_size**length * catalan(length - 1)
        pairs = n * (n - 1) // 2
        if pairs > _LEMMA3_MAX_PAIRS:
            reason = f"{pairs} pairs up to length {length} exceeds budget {_LEMMA3_MAX_PAIRS}"
            return LemmaReport("lemma3", instance, "inconclusive-budget", {"reason": reason})
    members = enumerate_alphabetic(h, alphabet_size, max_len)
    forms = [m.formula for m in members]
    memo: dict = {}
    for i in range(n):
        j = _first_unifiable(forms[i], forms[i + 1 :], memo)
        if j is not None:
            j += i + 1
            witness = {"left": render_formula(forms[i]), "right": render_formula(forms[j]),
                       "words": [members[i].word, members[j].word]}
            return LemmaReport("lemma3", instance, "fail", witness)
    return LemmaReport("lemma3", instance, "pass", {}, {"formulas": n, "pairs": pairs})


# --- rebracketing chains ----------------------------------------------------


class _Link(NamedTuple):
    """One chain link: the instance of `axiom` under `subst` that takes
    `source` to `target`."""

    axiom: Formula
    subst: dict
    source: AlphabeticFormula
    target: AlphabeticFormula


def _is_right_nested(a: AlphabeticFormula) -> bool:
    while not a.is_letter:
        if not a.left.is_letter:
            return False
        a = a.right
    return True


def _chain_to_spine(h: HatTemplate, a: AlphabeticFormula) -> list[tuple]:
    """Rotations taking `a` to the fully right-nested bracketing of its word:
    for each, its position k in rebracketing_axioms order, its substitution,
    and its source and target.

    First the right spine is combed into a single left factor (root
    rotations), then that factor is unwound letter by letter (left-factor
    rotations followed by one root rotation each round).
    """
    moves: list[tuple] = []

    def move(k: int, source: AlphabeticFormula, nxt: AlphabeticFormula, x, y, z, u=None) -> None:
        # u is bound only by the rotations under a trailer
        subst = {"x": x.formula, "y": y.formula, "z": z.formula}
        if u is not None:
            subst["u"] = u.formula
        moves.append((k, subst, source, nxt))

    if _is_right_nested(a):
        return moves
    spine: list[AlphabeticFormula] = []
    node = a
    while not node.is_letter:
        spine.append(node.left)
        node = node.right
    current = a
    for _ in range(len(spine) - 1):
        left, rest = current.left, current.right
        nxt = dot_code(h, dot_code(h, left, rest.left), rest.right)
        move(0, current, nxt, left, rest.left, rest.right)
        current = nxt
    while True:
        left, tail = current.left, current.right
        if left.is_letter:
            break
        while not left.right.is_letter:
            new_left = dot_code(h, dot_code(h, left.left, left.right.left), left.right.right)
            nxt = dot_code(h, new_left, tail)
            move(2, current, nxt, left.left, left.right.left, left.right.right, tail)
            current, left = nxt, new_left
        head, last = left.left, left.right
        nxt = dot_code(h, head, dot_code(h, last, tail))
        move(1, current, nxt, head, last, tail)
        current = nxt
    return moves


def _rotation_links(
    h: HatTemplate, source: AlphabeticFormula, target: AlphabeticFormula
) -> list[_Link]:
    """Rebracketing links from `source` to `target`, two bracketings of one
    word: normalize the source to the right-nested spine, then run the
    target's own normalization backwards, each rotation by its converse."""
    if source.word != target.word:
        raise ValueError("source and target must encode the same word")
    axioms = rebracketing_axioms(h)
    links = [_Link(axioms[k], subst, a, b) for k, subst, a, b in _chain_to_spine(h, source)]
    links += [
        _Link(axioms[k ^ 1], subst, b, a)
        for k, subst, a, b in reversed(_chain_to_spine(h, target))
    ]
    return links


def _axiom_index(calc: Calculus) -> dict[Formula, int]:
    """Position of each axiom's first occurrence in the calculus."""
    index: dict[Formula, int] = {}
    for i, ax in enumerate(calc.axioms):
        index.setdefault(ax, i)
    return index


def _chain(start: Formula, links: list[_Link], index: dict[Formula, int]) -> ChainProof:
    """The chain from `start` along the links, each link one axiom step
    numbered by `index`, the axiom index of the calculus that checks it."""
    waypoints = (start,) + tuple(l.target.formula for l in links)
    steps = (
        AxiomStep(index[l.axiom], l.subst, Imp(l.source.formula, l.target.formula)) for l in links
    )
    return ChainProof(waypoints, tuple(DerivationTrace((step,)) for step in steps))


def build_chain_lemma6(
    h: HatTemplate, source: AlphabeticFormula, target: AlphabeticFormula
) -> ChainProof:
    """A chain from one bracketing of a word to another, using only the
    rebracketing axioms and checkable against rebracketing_calculus(h):
    normalize the source to the right-nested spine, then run the target's own
    normalization backwards."""
    index = _axiom_index(rebracketing_calculus(h))
    return _chain(source.formula, _rotation_links(h, source, target), index)


# --- production chains ------------------------------------------------------


def _production_links(t: TagSystem, h: HatTemplate, word: str, nxt: str) -> list[_Link]:
    """Links from the code of `word`, at least t.deletion letters long, to
    the code of `nxt`, its successor under one production.

    Chosen endpoints are the right-nested members.  When nothing is left of
    the word beyond the consumed head, a single T2 axiom links the two codes;
    otherwise the code is rebracketed into head-and-tail form, one T1 axiom
    fires with the tail bound to the scheme variable, and the result is
    rebracketed to the spine.
    """
    d = t.deletion
    head, beta = word[:d], word[d:]
    omega = t.productions[word[0]]
    source, target = right_nested(h, word), right_nested(h, nxt)
    if not beta:
        return [_Link(Imp(source.formula, target.formula), {}, source, target)]
    head_rn, beta_rn, omega_rn = (right_nested(h, w) for w in (head, beta, omega))
    split = dot_code(h, head_rn, beta_rn)
    successor = dot_code(h, beta_rn, omega_rn)
    axiom = Imp(dot(h, head_rn.formula, Var("x")), dot(h, Var("x"), omega_rn.formula))
    return [
        *_rotation_links(h, source, split),
        _Link(axiom, {"x": beta_rn.formula}, split, successor),
        *_rotation_links(h, successor, target),
    ]


def _run_chain(
    t: TagSystem, h: HatTemplate, word: str, max_steps: int, index: dict[Formula, int]
) -> ChainProof:
    """build_run_chain with link axioms numbered by `index`."""
    path = list(tag_path(t, word, max_steps))
    links = [link for w, nxt in zip(path, path[1:]) for link in _production_links(t, h, w, nxt)]
    return _chain(right_nested(h, word).formula, links, index)


def build_run_chain(t: TagSystem, h: HatTemplate, word: str, max_steps: int) -> ChainProof:
    """The links of every production along the run from `word`, stopping at
    the halt word or when the budget runs out, checkable against
    build_PT(t, h)."""
    return _run_chain(t, h, word, max_steps, _axiom_index(build_PT(t, h)))


def check_run_chain(t: TagSystem, h: HatTemplate, word: str, max_steps: int) -> LemmaReport:
    """The run chain from `word` passes chain_check against the production
    calculus.  Waypoint formulas can be astronomically large as text, so the
    witness carries the decoded words instead."""
    pt = build_PT(t, h)
    chain = _run_chain(t, h, word, max_steps, _axiom_index(pt))
    verdict = "pass" if chain_check(pt, chain) else "fail"
    words: list[str] = []
    for w in chain.waypoints:
        parsed = decode(h, w)
        if parsed is not None and (not words or words[-1] != parsed.word):
            words.append(parsed.word)
    instance = f"tag={system_label(t)} input={word!r} budget={max_steps}"
    return LemmaReport("lemma7", instance, verdict, {"links": len(chain.links), "words": words})


# --- closure characterization ----------------------------------------------


def check_production(
    t: TagSystem, p0: Calculus, h: HatTemplate, alpha: str, n: int
) -> LemmaReport:
    """Classify every closure generator of the production calculus plus the
    input code: each must be an instance of a production-side axiom or an
    instance of a code member of a word the run can produce.

    The same classification is then applied to the full reduction bundle, but
    only to generators born strictly below the first level at which a
    short-word code instance appears (past that point the halting hooks are
    expected to inject the target calculus).
    """
    instance = f"tag={system_label(t)} alpha={alpha!r} n={n}"
    try:
        verdict, witness, resources, _ = _classify(t, p0, h, alpha, n)
    except GeneratorCapError as e:
        return LemmaReport("lemma9", instance, "inconclusive-budget", {"reason": str(e)})
    return LemmaReport("lemma9", instance, verdict, witness, resources)


def _classify(
    t: TagSystem,
    p0: Calculus,
    h: HatTemplate,
    alpha: str,
    n: int,
    bundle: ReductionBundle | None = None,
) -> tuple[str, dict, dict, ClosureLevel | None]:
    """check_production's verdict, witness and resources, with level n of
    the full reduction calculus when it was reached.  Each calculus is
    closed once, and the bundle, unless given, is built only after the
    production side passes.  A cap overflow raises `GeneratorCapError`."""

    pt = build_PT(t, h)
    base = Calculus("productions+input", pt.axioms + code_word(h, alpha).formulas)
    top = closure_level(base, n)
    resources = {"generators": len(top.generators), "levels": n}
    bad = _unclassified(t, alpha, n, top.generators, pt.axioms, h)
    if bad:
        return "fail", {"unclassified": bad}, resources, None
    if bundle is None:
        bundle = build_reduction(t, p0, alpha, (h,) + default_hat_candidates())
    top_full = closure_level(bundle.full, n)
    guard = _first_short_code_level(bundle, top_full)
    limit = guard if guard is not None else n + 1
    early = [g for g in top_full.generators if g.level < limit]
    bad = _unclassified(t, alpha, n, early, bundle.pt.axioms + bundle.groups["H"], bundle.hat)
    resources["full_generators"] = len(top_full.generators)
    resources["guard_level"] = guard
    if bad:
        return "fail", {"unclassified_full": bad}, resources, top_full
    return "pass", {}, resources, top_full


def _unclassified(
    t: TagSystem, alpha: str, n: int, generators: Iterable[Generator],
    axioms: tuple, hat: HatTemplate,
) -> list[str]:
    """The generators, rendered, that are neither an instance of one of
    `axioms` nor a t_alpha_member.  Membership decides the first: a level-0
    generator is its axiom's interned formula, and forward subsumption drops
    every later generator, and every later axiom, that is an instance of a
    retained one."""
    given = set(axioms)
    return [
        render_formula(g.formula)
        for g in generators
        if g.formula not in given and not t_alpha_member(t, alpha, g.formula, hat, n)
    ]


def _first_short_code_level(bundle: ReductionBundle, top: ClosureLevel) -> int | None:
    """Smallest level of a generator in `top`, a closure level of the full
    reduction calculus, that meets the code of a word shorter than the
    deletion number (instance in either direction), or None."""
    shorts = short_code_members(bundle.tag, bundle.hat)
    # A closure level lists its generators in the order of their levels.
    for g in top.generators:
        if any(
            match_instance(member, g.formula) is not None
            or match_instance(g.formula, member) is not None
            for member in shorts
        ):
            return g.level
    return None


# --- halting equivalence ----------------------------------------------------


def check_halting_equivalence(
    t: TagSystem, p0: Calculus, input_word: str, budget: int
) -> LemmaReport:
    """Forward: a run that halts within `budget` steps makes every target
    axiom derivable by following it: lemma 7's chain from the input's code to
    the halt word's code, numbered in the full reduction calculus and traced
    once by `chain_trace`, then for each axiom one detachment by its halting
    hook.  The axiom passes exactly when
    `check_trace` accepts that trace.  When the run does not halt within
    budget the reverse direction is undecidable at desk scale, so the
    closure characterization must hold up to level `budget` and every
    target axiom stay out of reach; that outcome, and a closure that
    outgrows the generator cap, is inconclusive, not pass.
    """
    if not p0.axioms:
        raise ValueError("target calculus must be nonempty")
    if t.deletion < 2:
        raise ValueError("deletion number must be at least 2")
    bundle = build_reduction(t, p0, input_word)
    outcome = tag_run(t, input_word, budget)
    instance = f"tag={system_label(t)} input={input_word!r} budget={budget}"
    if isinstance(outcome, Halted):
        index = _axiom_index(bundle.full)

        def axiom(f: Formula) -> DerivationTrace:
            return DerivationTrace((AxiomStep(index[f], {}, f),))

        run = _run_chain(t, bundle.hat, input_word, outcome.steps, index)
        run_trace = chain_trace(axiom(run.waypoints[0]), run.links)
        artifacts = []
        for a in p0.axioms:
            trace = chain_trace(run_trace, (axiom(Imp(run.waypoints[-1], a)),))
            if not check_trace(bundle.full, trace, a):
                witness = {"axiom": render_formula(a), "reason": "trace rejected"}
                return LemmaReport("lemma11", instance, "fail", witness)
            artifacts.append((f"trace[{render_formula(a)}]", trace))
        witness = {"direction": "halting", "axioms": len(p0.axioms), "halt_steps": outcome.steps}
        return LemmaReport("lemma11", instance, "pass", witness, {}, tuple(artifacts))
    try:
        verdict, witness, _, top = _classify(t, p0, bundle.hat, input_word, budget, bundle)
    except GeneratorCapError as e:
        witness = {"direction": "non-halting", "reason": str(e)}
        return LemmaReport("lemma11", instance, "inconclusive-budget", witness)
    if verdict == "fail":
        return LemmaReport("lemma11", instance, "fail", {"production_check": witness})
    for a in p0.axioms:
        if any(match_instance(a, g.formula) is not None for g in top.generators):
            return LemmaReport(
                "lemma11",
                instance,
                "fail",
                {
                    "reason": "axiom derivable although the run did not halt in budget",
                    "axiom": render_formula(a),
                },
            )
    return LemmaReport(
        "lemma11",
        instance,
        "inconclusive-budget",
        {"direction": "non-halting", "production_verdict": verdict},
    )


# --- derivability of the whole production calculus ---------------------------


def check_inclusion(t: TagSystem, h: HatTemplate) -> LemmaReport:
    """Every production-calculus axiom has a checkable derivation from the
    weakening axiom alone: it is an instance of a generator of the weakening
    calculus at closure level 0 or 1, whose trace `check_trace` accepts for
    the axiom.  Level 1 suffices because every axiom's consequent is a code,
    which is a `circ`, so every axiom is an instance of x1 -> x2 -> x3 -> x2."""
    instance = f"tag={system_label(t)} hat={h.text}"
    pt = build_PT(t, h)
    for ax, hit in find_generators(WEAKENING_CALCULUS, pt.axioms, 1):
        if hit is None or not check_trace(WEAKENING_CALCULUS, hit.trace, ax):
            return LemmaReport("lemma12", instance, "fail", {"axiom": render_formula(ax)})
    return LemmaReport("lemma12", instance, "pass", {"axioms": len(pt.axioms)})


# --- CLI dispatch -------------------------------------------------------------


# The options each suite item reads, in suite order, with their defaults.  A
# `system` of None is the item's built-in tag system (lemma11 has two).
LEMMA_OPTIONS: dict[str, dict] = {
    "lemma1": {},
    "lemma3": {"hat": DEFAULT_HAT, "alphabet_size": 3, "max_len": 4},
    "lemma6": {"hat": DEFAULT_HAT, "alphabet_size": 2, "max_len": 4},
    "lemma7": {"hat": DEFAULT_HAT, "system": None, "input_word": "aaa", "budget": 50},
    "lemma9": {"hat": DEFAULT_HAT, "system": None, "p0": WEAKENING_CALCULUS,
               "input_word": "aaa", "depth": 2},
    "lemma11": {"system": None, "p0": WEAKENING_CALCULUS, "input_word": "aa", "budget": 4},
    "lemma12": {"hat": DEFAULT_HAT, "system": None},
}


def unread_options(lemma_id: str, keys: Iterable[str]) -> list[str]:
    """The option keys, in the order given, that the suite item does not
    read; "all" reads every key that some item reads."""
    if lemma_id != "all" and lemma_id not in LEMMA_OPTIONS:
        raise ValueError(f"unknown lemma id: {lemma_id!r}")
    tables = LEMMA_OPTIONS.values() if lemma_id == "all" else [LEMMA_OPTIONS[lemma_id]]
    return [key for key in keys if not any(key in table for table in tables)]


def run_lemma(lemma_id: str, options: dict | None = None) -> list[LemmaReport]:
    """Run one suite item, or all of them, with the given options over the
    item's defaults in LEMMA_OPTIONS.  An option that the item does not read
    is a ValueError, and so is a negative budget or depth, both raised
    before any item runs; under "all" each item gets the options it reads."""
    given = options or {}
    unread = unread_options(lemma_id, given)
    if unread:
        raise ValueError(f"{lemma_id} does not read {', '.join(unread)}")
    for key in ("budget", "depth"):
        if given.get(key, 0) < 0:
            raise ValueError(f"{key} must be nonnegative")
    if lemma_id == "all":
        return [report for name, read in LEMMA_OPTIONS.items()
                for report in run_lemma(name, {k: v for k, v in given.items() if k in read})]
    opts = {**LEMMA_OPTIONS[lemma_id], **given}
    if lemma_id == "lemma1":
        return [check_lemma1(HatTemplate.from_text(t)) for t in ("x", "x -> x", "x -> (x -> x)")]
    if lemma_id == "lemma3":
        return [check_lemma3(opts["hat"], opts["alphabet_size"], opts["max_len"])]
    if lemma_id == "lemma6":
        return [_sweep_lemma6(opts["hat"], opts["alphabet_size"], opts["max_len"])]
    if lemma_id == "lemma7":
        system = opts["system"] or collatz_system()
        return [check_run_chain(system, opts["hat"], opts["input_word"], opts["budget"])]
    if lemma_id == "lemma9":
        system = opts["system"] or collatz_system()
        return [check_production(system, opts["p0"], opts["hat"], opts["input_word"], opts["depth"])]
    if lemma_id == "lemma11":
        systems = [opts["system"]] if opts["system"] else [shrinking_system(), growing_system()]
        return [check_halting_equivalence(t, opts["p0"], opts["input_word"], opts["budget"])
                for t in systems]
    # lemma12
    return [check_inclusion(opts["system"] or collatz_system(), opts["hat"])]


# The lemma 6 sweep checks at most this many chains.  The largest sweep in
# use, two letters up to length 5, checks 6,710 (976 distinct links) in 0.4 s.
_LEMMA6_MAX_CHAINS = 10_000


def _sweep_lemma6(h: HatTemplate, alphabet_size: int, max_len: int) -> LemmaReport:
    _check_sweep_bounds(alphabet_size, max_len)
    instance = f"hat={h.text} alphabet={alphabet_size} max_len={max_len}"
    # As in lemma 3: one chain for each ordered pair of a word's members.
    chains = 0
    for length in range(1, max_len + 1):
        chains += alphabet_size**length * catalan(length - 1) ** 2
        if chains > _LEMMA6_MAX_CHAINS:
            reason = f"{chains} chains up to length {length} exceeds budget {_LEMMA6_MAX_CHAINS}"
            return LemmaReport("lemma6", instance, "inconclusive-budget", {"reason": reason})
    calc = rebracketing_calculus(h)
    index = _axiom_index(calc)
    for word in _sweep_words(alphabet_size, max_len):
        members = code_word(h, word).members
        # Links recur across a word's chains, never across words, whose codes
        # differ: by default 1,952 links are 144 distinct (trace, claim) pairs.
        verdicts: dict = {}
        for source in members:
            for target in members:
                chain = _chain(source.formula, _rotation_links(h, source, target), index)
                if not _chain_ok(calc, chain, verdicts):
                    witness = {"word": word, "source": render_formula(source.formula),
                               "target": render_formula(target.formula)}
                    return LemmaReport("lemma6", instance, "fail", witness)
    return LemmaReport("lemma6", instance, "pass", {}, {"chains": chains})
