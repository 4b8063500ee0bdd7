"""Deterministic tag systems: parsing, single steps, bounded runs.

A tag system removes the first `deletion` letters of the current word and
appends the production of the letter that was at the front.  Words are plain
Python strings over single-character letters a-z.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .formulas import _SlotsRecord, _record

__all__ = [
    "BudgetExhausted",
    "Halted",
    "RunOutcome",
    "TagSystem",
    "TagSystemError",
    "parse_tag_system",
    "render_tag_file",
    "run_words",
    "tag_path",
    "tag_reaches",
    "tag_run",
    "tag_step",
]

_LETTER = re.compile(r"[a-z]")
_D_LINE = re.compile(r"d\s*=\s*([0-9]+)$")
_RULE_LINE = re.compile(r"([a-z])\s*->\s*([a-z]*)$")


class TagSystemError(ValueError):
    pass


class TagSystem(_SlotsRecord):
    """Alphabet in declaration order, one nonempty production per letter,
    and a positive deletion number."""

    __slots__ = _fields = ("alphabet", "productions", "deletion")

    def __init__(self, alphabet: tuple[str, ...], productions: dict[str, str], deletion: int):
        if not alphabet:
            raise TagSystemError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise TagSystemError("duplicate letter in alphabet")
        if deletion < 1:
            raise TagSystemError("deletion number must be positive")
        for letter in alphabet:
            if not _LETTER.fullmatch(letter):
                raise TagSystemError(f"letters must be single chars a-z, got {letter!r}")
            word = productions.get(letter)
            if word is None:
                raise TagSystemError(f"no production for letter {letter!r}")
            if not word:
                raise TagSystemError(f"empty production for letter {letter!r}")
            for ch in word:
                if ch not in productions:
                    raise TagSystemError(f"unknown letter {ch!r} in production of {letter!r}")
        if set(productions) != set(alphabet):
            raise TagSystemError("productions must cover exactly the alphabet")
        self._set(alphabet, productions, deletion)


@_record
class Halted(NamedTuple):
    word: str
    steps: int


@_record
class BudgetExhausted(NamedTuple):
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


def tag_path(t: TagSystem, word: str, max_steps: int) -> Iterator[str]:
    """The run from `word`: `word` itself, then the word after each
    production, until a word is shorter than the deletion number or after
    `max_steps` productions.  The one loop that steps a run; the budget and
    the word are checked before the first word is yielded."""
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    _check_word(t, word)
    yield word
    for _ in range(max_steps):
        if len(word) < t.deletion:
            return
        word = word[t.deletion:] + t.productions[word[0]]
        yield word


def tag_step(t: TagSystem, word: str) -> str | None:
    """One production, or None when the word is too short to apply."""
    path = tag_path(t, word, 1)
    next(path)
    return next(path, None)


def tag_run(t: TagSystem, word: str, max_steps: int) -> RunOutcome:
    """Run until the word drops below the deletion number or the budget ends.

    A word already shorter than the deletion number counts as halted after
    zero steps.
    """
    for steps, current in enumerate(tag_path(t, word, max_steps)):
        pass
    if len(current) < t.deletion:
        return Halted(current, steps)
    return BudgetExhausted(current)


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
    seen: dict[str, None] = {}
    for current in tag_path(t, word, max_steps):
        if current in seen:
            break
        seen[current] = None
    return list(seen)
