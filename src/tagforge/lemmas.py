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

from dataclasses import dataclass, field
from typing import Iterator

from .codec import (
    CODE_VARIABLE,
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
    GeneratorCapError,
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
    match_instance,
    parse_formula,
    rename_apart,
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
    "collatz_system",
    "enumerate_alphabetic",
    "growing_system",
    "rebracketing_calculus",
    "run_lemma",
    "shrinking_system",
    "system_label",
]

WEAKENING_AXIOM = parse_formula("x -> y -> x")
WEAKENING_CALCULUS = Calculus("weakening", (WEAKENING_AXIOM,))


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    instance: str
    verdict: str  # "pass" | "fail" | "inconclusive-budget"
    witness: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    artifacts: tuple = ()  # (name, DerivationTrace) pairs


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


def check_lemma3(h: HatTemplate, alphabet_size: int, max_len: int) -> LemmaReport:
    """No two distinct code members are unifiable (on variable-disjoint
    copies; all members share the code variable p)."""
    _check_sweep_bounds(alphabet_size, max_len)
    # The budget is checked before any member is built: an n-letter word
    # has catalan(n - 1) bracketings, so the count has a closed form.
    n = sum(alphabet_size**k * catalan(k - 1) for k in range(1, max_len + 1))
    pairs = n * (n - 1) // 2
    instance = f"hat={h.text} alphabet={alphabet_size} max_len={max_len}"
    if pairs > _LEMMA3_MAX_PAIRS:
        return LemmaReport(
            "lemma3",
            instance,
            "inconclusive-budget",
            {"reason": f"{pairs} pairs exceeds budget {_LEMMA3_MAX_PAIRS}"},
        )
    members = enumerate_alphabetic(h, alphabet_size, max_len)
    forms = [m.formula for m in members]
    renamed = [rename_apart(f, {CODE_VARIABLE}) for f in forms]
    for i in range(n):
        fi = forms[i]
        for j in range(i + 1, n):
            if unify(fi, renamed[j]) is not None:
                return LemmaReport(
                    "lemma3",
                    instance,
                    "fail",
                    {
                        "left": render_formula(fi),
                        "right": render_formula(forms[j]),
                        "words": [members[i].word, members[j].word],
                    },
                )
    return LemmaReport(
        "lemma3", instance, "pass", {}, {"formulas": n, "pairs": pairs}
    )


# --- rebracketing chains ----------------------------------------------------


@dataclass(frozen=True)
class _Link:
    axiom: int  # index into rebracketing_axioms order
    subst: dict
    source: AlphabeticFormula
    target: AlphabeticFormula


_INVERSE_ROTATION = {0: 1, 1: 0, 2: 3, 3: 2}


def _is_right_nested(a: AlphabeticFormula) -> bool:
    while not a.is_letter:
        if not a.left.is_letter:
            return False
        a = a.right
    return True


def _chain_to_spine(h: HatTemplate, a: AlphabeticFormula) -> list[_Link]:
    """Links taking `a` to the fully right-nested bracketing of its word.

    First the right spine is combed into a single left factor (root
    rotations), then that factor is unwound letter by letter (left-factor
    rotations followed by one root rotation each round).
    """
    links: list[_Link] = []
    if _is_right_nested(a):
        return links
    spine: list[AlphabeticFormula] = []
    node = a
    while not node.is_letter:
        spine.append(node.left)
        node = node.right
    current = a
    for _ in range(len(spine) - 1):
        left, rest = current.left, current.right
        nxt = dot_code(h, dot_code(h, left, rest.left), rest.right)
        links.append(
            _Link(
                0,
                {"x": left.formula, "y": rest.left.formula, "z": rest.right.formula},
                current,
                nxt,
            )
        )
        current = nxt
    while True:
        left, tail = current.left, current.right
        if left.is_letter:
            break
        while not left.right.is_letter:
            new_left = dot_code(h, dot_code(h, left.left, left.right.left), left.right.right)
            nxt = dot_code(h, new_left, tail)
            links.append(
                _Link(
                    2,
                    {
                        "x": left.left.formula,
                        "y": left.right.left.formula,
                        "z": left.right.right.formula,
                        "u": tail.formula,
                    },
                    current,
                    nxt,
                )
            )
            current, left = nxt, new_left
        head, last = left.left, left.right
        nxt = dot_code(h, head, dot_code(h, last, tail))
        links.append(
            _Link(
                1,
                {"x": head.formula, "y": last.formula, "z": tail.formula},
                current,
                nxt,
            )
        )
        current = nxt
    return links


def _invert(link: _Link) -> _Link:
    # Every rotation axiom has its converse in the group, under the same
    # substitution.
    return _Link(_INVERSE_ROTATION[link.axiom], link.subst, link.target, link.source)


def _axiom_index(calc: Calculus) -> dict[Formula, int]:
    """Position of each axiom's first occurrence in the calculus."""
    index: dict[Formula, int] = {}
    for i, ax in enumerate(calc.axioms):
        index.setdefault(ax, i)
    return index


def _rotation_chain(
    h: HatTemplate,
    source: AlphabeticFormula,
    target: AlphabeticFormula,
    index: dict[Formula, int],
) -> ChainProof:
    """build_chain_lemma6 with link axioms numbered by `index`, the axiom
    index of the calculus that checks the chain."""
    if source.word != target.word:
        raise ValueError("source and target must encode the same word")
    links = _chain_to_spine(h, source)
    links += [_invert(l) for l in reversed(_chain_to_spine(h, target))]
    positions = [index[ax] for ax in rebracketing_axioms(h)]
    waypoints = [source.formula] + [l.target.formula for l in links]
    traces = tuple(
        DerivationTrace(
            (
                AxiomStep(
                    positions[l.axiom],
                    l.subst,
                    Imp(l.source.formula, l.target.formula),
                ),
            )
        )
        for l in links
    )
    return ChainProof(tuple(waypoints), traces)


def build_chain_lemma6(
    h: HatTemplate, source: AlphabeticFormula, target: AlphabeticFormula
) -> ChainProof:
    """A chain from one bracketing of a word to another, using only the
    rebracketing axioms and checkable against rebracketing_calculus(h):
    normalize the source to the right-nested spine, then run the target's own
    normalization backwards."""
    return _rotation_chain(h, source, target, _axiom_index(rebracketing_calculus(h)))


# --- production chains ------------------------------------------------------


def _production_chain(
    t: TagSystem, h: HatTemplate, word: str, nxt: str, index: dict[Formula, int]
) -> ChainProof:
    """A chain from the code of `word`, at least t.deletion letters long, to
    the code of `nxt`, its successor under one production, with link axioms
    numbered by `index`, the axiom index of build_PT(t, h).

    Chosen endpoints are the right-nested members.  When nothing is left of
    the word beyond the consumed head, a single direct production axiom links
    the two codes; otherwise the code is rebracketed into head-and-tail form,
    one production axiom fires with the tail bound to the scheme variable,
    and the result is rebracketed to the spine.
    """
    d = t.deletion
    head, beta = word[:d], word[d:]
    omega = t.productions[word[0]]
    source = right_nested(h, word)
    target = right_nested(h, nxt)
    if not beta:
        axiom = Imp(source.formula, target.formula)
        link = DerivationTrace((AxiomStep(index[axiom], {}, axiom),))
        return ChainProof((source.formula, target.formula), (link,))
    head_rn = right_nested(h, head)
    beta_rn = right_nested(h, beta)
    omega_rn = right_nested(h, omega)
    split = dot_code(h, head_rn, beta_rn)
    successor = dot_code(h, beta_rn, omega_rn)
    first = _rotation_chain(h, source, split, index)
    axiom = Imp(
        dot(h, head_rn.formula, Var("x")), dot(h, Var("x"), omega_rn.formula)
    )
    subst = {"x": beta_rn.formula}
    step = AxiomStep(index[axiom], subst, Imp(split.formula, successor.formula))
    middle = ChainProof(
        (split.formula, successor.formula), (DerivationTrace((step,)),)
    )
    last = _rotation_chain(h, successor, target, index)
    return ChainProof.concat([first, middle, last])


def build_run_chain(
    t: TagSystem, h: HatTemplate, word: str, max_steps: int
) -> ChainProof:
    """Concatenation of per-production chains along the run from `word`,
    stopping at the halt word or when the budget runs out."""
    index = _axiom_index(build_PT(t, h))
    path = list(tag_path(t, word, max_steps))
    chains = [_production_chain(t, h, w, nxt, index) for w, nxt in zip(path, path[1:])]
    if not chains:
        start = right_nested(h, word).formula
        return ChainProof((start,), ())
    return ChainProof.concat(chains)


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

    def unclassified(generators, axioms, hat) -> list[str]:
        return [
            render_formula(g.formula)
            for g in generators
            if not any(match_instance(g.formula, ax) is not None for ax in axioms)
            and not t_alpha_member(t, alpha, g.formula, hat, n)
        ]

    pt = build_PT(t, h)
    base = Calculus("productions+input", pt.axioms + code_word(h, alpha).formulas)
    top = closure_level(base, n)
    resources = {"generators": len(top.generators), "levels": n}
    bad = unclassified(top.generators, pt.axioms, h)
    if bad:
        return "fail", {"unclassified": bad}, resources, None
    if bundle is None:
        bundle = build_reduction(t, p0, alpha, (h,) + default_hat_candidates())
    top_full = closure_level(bundle.full, n)
    guard = _first_short_code_level(bundle, top_full)
    limit = guard if guard is not None else n + 1
    bad = unclassified(
        [g for g in top_full.generators if g.level < limit],
        bundle.pt.axioms + bundle.groups["H"],
        bundle.hat,
    )
    resources["full_generators"] = len(top_full.generators)
    resources["guard_level"] = guard
    if bad:
        return "fail", {"unclassified_full": bad}, resources, top_full
    return "pass", {}, resources, top_full


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
    the halt word's code, traced once by `chain_trace`, then for each axiom
    one detachment by its halting hook.  The axiom passes exactly when
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
        def axiom(f: Formula) -> DerivationTrace:
            return DerivationTrace((AxiomStep(bundle.full.axioms.index(f), {}, f),))

        # The production calculus is the full calculus's prefix, so the run
        # chain's axiom numbers hold in the full calculus.
        run = build_run_chain(t, bundle.hat, input_word, outcome.steps)
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


def run_lemma(lemma_id: str, options: dict | None = None) -> list[LemmaReport]:
    """Run one suite item (or all) with CLI-friendly defaults."""
    opts = options or {}
    hat = opts.get("hat", DEFAULT_HAT)
    system = opts.get("system") or collatz_system()
    p0 = opts.get("p0") or WEAKENING_CALCULUS
    if lemma_id == "all":
        out: list[LemmaReport] = []
        for name in ("lemma1", "lemma3", "lemma6", "lemma7", "lemma9", "lemma11", "lemma12"):
            out.extend(run_lemma(name, options))
        return out
    if lemma_id == "lemma1":
        return [
            check_lemma1(HatTemplate.from_text(text))
            for text in ("x", "x -> x", "x -> (x -> x)")
        ]
    if lemma_id == "lemma3":
        return [
            check_lemma3(
                hat,
                opts.get("alphabet_size", 3),
                opts.get("max_len", 4),
            )
        ]
    if lemma_id == "lemma6":
        return [_sweep_lemma6(hat, opts.get("alphabet_size", 2), opts.get("max_len", 4))]
    if lemma_id == "lemma7":
        word = opts.get("input_word", "aaa")
        budget = opts.get("budget", 50)
        chain = build_run_chain(system, hat, word, budget)
        calc = build_PT(system, hat)
        ok = chain_check(calc, chain)
        # Waypoint formulas can be astronomically large as text, so the
        # reported witness carries the decoded words instead.
        words: list[str] = []
        for w in chain.waypoints:
            parsed = decode(hat, w)
            if parsed is not None and (not words or words[-1] != parsed.word):
                words.append(parsed.word)
        return [
            LemmaReport(
                "lemma7",
                f"tag={system_label(system)} input={word!r} budget={budget}",
                "pass" if ok else "fail",
                {"links": len(chain.links), "words": words},
            )
        ]
    if lemma_id == "lemma9":
        return [
            check_production(
                system, p0, hat, opts.get("input_word", "aaa"), opts.get("depth", 2)
            )
        ]
    if lemma_id == "lemma11":
        budget = opts.get("budget", 4)
        word = opts.get("input_word", "aa")
        systems = [system] if "system" in opts else [shrinking_system(), growing_system()]
        return [check_halting_equivalence(t, p0, word, budget) for t in systems]
    if lemma_id == "lemma12":
        return [check_inclusion(system, hat)]
    raise ValueError(f"unknown lemma id: {lemma_id!r}")


# The lemma 6 sweep checks at most this many chains.  The largest sweep in
# use, two letters up to length 5, checks 6,710 in about 9 s.
_LEMMA6_MAX_CHAINS = 10_000


def _sweep_lemma6(h: HatTemplate, alphabet_size: int, max_len: int) -> LemmaReport:
    _check_sweep_bounds(alphabet_size, max_len)
    instance = f"hat={h.text} alphabet={alphabet_size} max_len={max_len}"
    # As in lemma 3, the budget is checked before any chain is built: one
    # chain for each ordered pair of a k-letter word's catalan(k - 1) members.
    chains = sum(alphabet_size**k * catalan(k - 1) ** 2 for k in range(1, max_len + 1))
    if chains > _LEMMA6_MAX_CHAINS:
        reason = f"{chains} chains exceeds budget {_LEMMA6_MAX_CHAINS}"
        return LemmaReport("lemma6", instance, "inconclusive-budget", {"reason": reason})
    calc = rebracketing_calculus(h)
    index = _axiom_index(calc)
    for word in _sweep_words(alphabet_size, max_len):
        members = code_word(h, word).members
        for source in members:
            for target in members:
                chain = _rotation_chain(h, source, target, index)
                if not chain_check(calc, chain):
                    return LemmaReport(
                        "lemma6",
                        instance,
                        "fail",
                        {
                            "word": word,
                            "source": render_formula(source.formula),
                            "target": render_formula(target.formula),
                        },
                    )
    return LemmaReport("lemma6", instance, "pass", {}, {"chains": chains})
