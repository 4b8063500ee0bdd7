"""Answer oracles for the benchmark, written without any use of tagforge.

Formulas here are either a variable name (str) or a pair
(antecedent, consequent).  Tag systems are a dict letter -> production plus a
deletion number.  Everything is a closed form or a direct simulation, so an
answer the program gets wrong cannot also be wrong here for the same reason.
"""

from __future__ import annotations

from itertools import product


def render(f, nested: bool = False) -> str:
    """Formula text in tagforge's input syntax (`->` right-associative)."""
    if isinstance(f, str):
        return f
    text = f"{render(f[0], True)} -> {render(f[1])}"
    return f"({text})" if nested else text


def formula_vars(f) -> list[str]:
    """Variable names in first-occurrence order."""
    out: list[str] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            if g not in out:
                out.append(g)
        else:
            stack.append(g[1])
            stack.append(g[0])
    return out


def _evaluate(f, env: dict[str, bool]) -> bool:
    if isinstance(f, str):
        return env[f]
    return (not _evaluate(f[0], env)) or _evaluate(f[1], env)


def is_tautology(f) -> bool:
    """Classical truth-table check.  Every calculus the benchmark uses is
    sound for classical logic, so a derivable goal must pass this."""
    names = formula_vars(f)
    return all(
        _evaluate(f, dict(zip(names, bits)))
        for bits in product((False, True), repeat=len(names))
    )


def catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def lemma3_formula_count(k: int, max_len: int) -> int:
    """Code members of all words up to max_len over k letters:
    sum of k^n * catalan(n-1)."""
    return sum(k**n * catalan(n - 1) for n in range(1, max_len + 1))


def lemma6_chain_count(k: int, max_len: int) -> int:
    """Ordered (source, target) bracketing pairs per word:
    sum of k^n * catalan(n-1)^2."""
    return sum(k**n * catalan(n - 1) ** 2 for n in range(1, max_len + 1))


def production_group_size(productions: dict[str, str], deletion: int) -> int:
    """Size of T1 (and of T2): per-letter production bracketings x tails
    x head bracketings."""
    k = len(productions)
    per_letter = sum(catalan(len(w) - 1) for w in productions.values())
    return per_letter * k ** (deletion - 1) * catalan(deletion - 1)


def reduce_group_sizes(
    productions: dict[str, str], deletion: int, input_len: int, p0_size: int
) -> dict[str, int]:
    t = production_group_size(productions, deletion)
    k = len(productions)
    short_codes = sum(k**n * catalan(n - 1) for n in range(1, deletion))
    return {
        "T1": t,
        "T2": t,
        "R": 4,
        "H": short_codes * p0_size,
        "input": catalan(input_len - 1),
    }


def tag_fate(
    productions: dict[str, str], deletion: int, word: str, max_steps: int = 10_000
) -> tuple[str, int]:
    """("halts", steps), ("cycles", steps) or ("unknown", steps).

    Runs are deterministic, so revisiting a word proves the run never halts.
    """
    seen: set[str] = set()
    steps = 0
    while len(word) >= deletion:
        if word in seen:
            return "cycles", steps
        if steps >= max_steps:
            return "unknown", steps
        seen.add(word)
        word = word[deletion:] + productions[word[0]]
        steps += 1
    return "halts", steps


def run_words(
    productions: dict[str, str], deletion: int, word: str, max_steps: int
) -> list[str]:
    """Words of the run from `word` for at most max_steps productions,
    consecutive repeats merged (what `verify lemma7` reports)."""
    out = [word]
    for _ in range(max_steps):
        if len(word) < deletion:
            break
        word = word[deletion:] + productions[word[0]]
        if word != out[-1]:
            out.append(word)
    return out
