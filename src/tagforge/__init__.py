"""tagforge: implicational Hilbert calculi, tag systems, and the reduction
that lets tag-system halting drive derivability questions."""

from .codec import (
    DEFAULT_HAT,
    AlphabeticFormula,
    HatExhaustionError,
    HatTemplate,
    WordCode,
    catalan,
    choose_hat,
    circ,
    code_letter,
    code_word,
    decode,
    default_hat_candidates,
    dot,
    hat_at,
    right_nested,
)
from .engine import (
    AxiomStep,
    Calculus,
    ChainProof,
    ClosureLevel,
    Derivable,
    DerivationTrace,
    DetachStep,
    Generator,
    GeneratorCapError,
    NotFoundWithinBudget,
    chain_check,
    check_trace,
    closure_level,
    closure_levels,
    derives,
    naive_closure_oracle,
)
from .formulas import (
    Formula,
    FormulaSyntaxError,
    Imp,
    Substitution,
    Var,
    alpha_equal,
    apply_substitution,
    canonical_rename,
    match_instance,
    parse_formula,
    rename_apart,
    render_formula,
    unify,
    variables,
)
from .lemmas import (
    LemmaReport,
    WEAKENING_AXIOM,
    WEAKENING_CALCULUS,
    build_chain_lemma6,
    build_run_chain,
    check_halting_equivalence,
    check_inclusion,
    check_lemma1,
    check_lemma3,
    check_production,
    collatz_system,
    run_lemma,
)
from .reduction import (
    ReductionBundle,
    build_H,
    build_PT,
    build_reduction,
    t_alpha_member,
)
from .tags import (
    BudgetExhausted,
    Halted,
    TagSystem,
    TagSystemError,
    parse_tag_system,
    tag_path,
    tag_reaches,
    tag_run,
    tag_step,
)

__version__ = "0.1.0"
