"""Deterministic tag systems: parsing, single steps, bounded runs.

A tag system removes the first `deletion` letters of the current word and
appends the production of the letter that was at the front.  Words are plain
Python strings over single-character letters a-z.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "BudgetExhausted",
    "Halted",
    "RunOutcome",
    "TagSystem",
    "TagSystemError",
    "parse_tag_system",
    "render_tag_file",
    "run_words",
    "tag_reaches",
    "tag_run",
    "tag_step",
]

_LETTER = re.compile(r"[a-z]")
_D_LINE = re.compile(r"d\s*=\s*([0-9]+)$")
_RULE_LINE = re.compile(r"([a-z])\s*->\s*([a-z]*)$")


class TagSystemError(ValueError):
    pass


@dataclass(frozen=True)
class TagSystem:
    """Alphabet in declaration order, one nonempty production per letter,
    and a positive deletion number."""

    alphabet: tuple[str, ...]
    productions: dict[str, str]
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


RunOutcome = Halted | BudgetExhausted


def parse_tag_system(text: str) -> TagSystem:
    """Read the tag-file format.

    First nonblank line is `d=<int>`; each following nonblank line is
    `<letter> -> <word>`; lines starting with `#` are comments.
    """
    deletion: int | None = None
    alphabet: list[str] = []
    productions: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if deletion is None:
            m = _D_LINE.fullmatch(line)
            if m is None:
                raise TagSystemError(f"line {lineno}: expected 'd=<int>' first, got {line!r}")
            deletion = int(m.group(1))
            continue
        m = _RULE_LINE.fullmatch(line)
        if m is None:
            raise TagSystemError(f"line {lineno}: expected '<letter> -> <word>', got {line!r}")
        letter, word = m.group(1), m.group(2)
        if letter in productions:
            raise TagSystemError(f"line {lineno}: duplicate letter {letter!r}")
        if not word:
            raise TagSystemError(f"line {lineno}: empty production for {letter!r}")
        alphabet.append(letter)
        productions[letter] = word
    if deletion is None:
        raise TagSystemError("missing 'd=<int>' line")
    return TagSystem(tuple(alphabet), productions, deletion)


def render_tag_file(t: TagSystem) -> str:
    """Serialize back to the tag-file format (canonical spacing)."""
    lines = [f"d={t.deletion}"]
    lines.extend(f"{letter} -> {t.productions[letter]}" for letter in t.alphabet)
    return "\n".join(lines) + "\n"


def _check_word(t: TagSystem, word: str) -> None:
    for ch in word:
        if ch not in t.productions:
            raise TagSystemError(f"letter {ch!r} outside alphabet")


def tag_step(t: TagSystem, word: str) -> str | None:
    """One production, or None when the word is too short to apply."""
    _check_word(t, word)
    if len(word) < t.deletion:
        return None
    return word[t.deletion:] + t.productions[word[0]]


def tag_run(t: TagSystem, word: str, max_steps: int) -> RunOutcome:
    """Run until the word drops below the deletion number or the budget ends.

    A word already shorter than the deletion number counts as halted after
    zero steps.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    _check_word(t, word)
    current = word
    steps = 0
    while len(current) >= t.deletion:
        if steps >= max_steps:
            return BudgetExhausted(current)
        current = current[t.deletion:] + t.productions[current[0]]
        steps += 1
    return Halted(current, steps)


def tag_reaches(t: TagSystem, source: str, target: str, max_steps: int) -> bool:
    """True when the run from source produces target as a new word within
    max_steps productions (at least one production taken).

    Runs are deterministic, so revisiting any earlier word proves no unseen
    word is ever reached; the search stops there, and in particular a word
    never "reaches" itself.
    """
    words = run_words(t, source, max_steps)
    _check_word(t, target)
    return target in words[1:]


def run_words(t: TagSystem, word: str, max_steps: int) -> list[str]:
    """The distinct words visited by the run, starting with `word` itself.

    Stops on halt, on a revisit, or when the budget is exhausted.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    _check_word(t, word)
    out = [word]
    seen = {word}
    current = word
    for _ in range(max_steps):
        if len(current) < t.deletion:
            break
        current = current[t.deletion:] + t.productions[current[0]]
        if current in seen:
            break
        seen.add(current)
        out.append(current)
    return out
