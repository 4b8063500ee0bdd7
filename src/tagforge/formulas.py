"""Term kernel for implicational formulas.

Formulas are binary implication trees over named variables and are the sole
term language of the package.  Everything here is pure: substitution,
unification (with occurs check), one-sided instance matching, and renaming
helpers.

There is one unification loop and one walk that builds a term under its
bindings.  They read each term in a variable bank, so `unify` (both
formulas in one bank), the engine's condensed detachment (the minor
premise in another, in place of a renamed copy) and its goal search (the
goal in a third bank, which is never bound) share them.
Every walk here keeps an explicit stack, so nesting depth is bounded by
memory, not by the interpreter's recursion limit.

`parse_formula` lets the regex engine find the tokens, one piece of the text
at a time: about 64 KiB, cut only just after a space, a parenthesis or a
`>`, so no token is split.  Python code only folds the tokens, so beyond the
formula itself a call holds one piece's tokens and one stack entry per open
parenthesis, however long the text.

Formula values are immutable and interned (hash-consed): constructing a
formula returns the existing object when a structurally equal one is alive,
so structural equality is object identity and `==` and `hash` are the
default identity ones.  The intern tables are module-global and not locked;
the package runs on one thread.

Each node also stores, when it is built, its variable names in
first-occurrence order, so `variables` is a field read, and the occurs
check and `apply_substitution` skip any subterm that no binding reaches.
The tuple is kept only up to `_NAMES_CAP` names; a node with more stores None,
and `variables` walks it, so building a formula stays linear in its size.
`render_formula` renders a subformula that occurs more than once in the
formula's DAG to text once per call, and reuses that text.

The package's records follow one rule, and are written out by hand:
importing a record generator, and generating the methods, cost every CLI
job more than a small job's work.  A record with no validation, no mutable
default, no cached property and no identity equality is a
`typing.NamedTuple` marked `@_record`: it equals only a record of its own
type, never another record or a plain tuple with the same values, and
hashes as the tuple of its fields.  Every other record is a `_SlotsRecord`,
whose `__init__` checks its arguments and stores its `_fields`.  Either way
a record refuses assignment, and its `repr` is `Name(field=value, ...)`.  No
caller iterates, unpacks, indexes or orders a record.
"""

from __future__ import annotations

import itertools
import re
import weakref
from typing import Callable

__all__ = [
    "Formula",
    "FormulaSyntaxError",
    "Imp",
    "Substitution",
    "Var",
    "apply_substitution",
    "canonical_rename",
    "match_instance",
    "parse_formula",
    "rename_apart",
    "render_formula",
    "rendered_length",
    "unify",
    "variables",
]

_IDENT = re.compile(r"[a-z][a-z0-9_]*")


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} objects are immutable")


def _same_record(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _record(cls):
    """A NamedTuple record, made equal only to records of its own type (see
    the module docstring)."""
    cls.__eq__ = _same_record
    cls.__ne__ = lambda self, other: not _same_record(self, other)
    cls.__hash__ = tuple.__hash__
    return cls


class _SlotsRecord:
    """Base of the records that are not NamedTuples (see the module
    docstring).  A subclass names its fields in `_fields` and its slots, and
    its `__init__` stores them with `_set`.  Records are equal when their
    types and fields are; they are unhashable unless a subclass says how."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __setattr__ = __delattr__ = _immutable
    __hash__ = None

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, k) for k in self._fields] == [getattr(other, k) for k in other._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({fields})"


# Longest variable tuple a node stores.  Above it the tuple is None: storing
# it would make a chain of n distinct variables cost n^2 time and memory.
_NAMES_CAP = 32


def _merge_names(
    left: tuple[str, ...] | None, right: tuple[str, ...] | None
) -> tuple[str, ...] | None:
    if left is None or right is None:
        return None
    extra = [v for v in right if v not in left]
    if not extra:
        return left
    if len(left) + len(extra) > _NAMES_CAP:
        return None
    return left + tuple(extra)


class Var:
    """A propositional variable; one object per name."""

    __slots__ = ("name", "_names", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, name: str) -> "Var":
        ref = _VARS.get(name)
        node = None if ref is None else ref()
        if node is None:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            object.__setattr__(node, "_names", (name,))
            _VARS[name] = weakref.KeyedRef(node, _forget_var, name)
        return node

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Imp:
    """An implication node; one object per (left, right) pair."""

    __slots__ = ("left", "right", "_names", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, left: "Formula", right: "Formula") -> "Imp":
        key = (left, right)
        ref = _IMPS.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "left", left)
            object.__setattr__(node, "right", right)
            object.__setattr__(node, "_names", _merge_names(left._names, right._names))
            _IMPS[key] = weakref.KeyedRef(node, _forget_imp, key)
        return node

    def __repr__(self) -> str:
        return f"Imp({self.left!r}, {self.right!r})"


def _fold_chain(chain: list[Formula]) -> Formula:
    """`a -> b -> ... -> z` from the atoms [a, b, ..., z], emptying the list.

    Most folds rebuild a node that is alive (94% of them on the texts one
    halting benchmark pass reads back), so the intern lookup of
    `Imp.__new__` is repeated here and a hit costs no class call.
    """
    atom = chain.pop()
    while chain:
        left = chain.pop()
        ref = _IMPS.get((left, atom))
        node = None if ref is None else ref()
        atom = Imp(left, atom) if node is None else node
    return atom


def _intern_table() -> tuple[dict, Callable[[weakref.KeyedRef], None]]:
    """A plain dict from key to a weak reference to its node, and the
    callback that deletes a reference's entry when its node dies."""
    table: dict = {}

    def forget(ref: weakref.KeyedRef) -> None:
        # The entry may already hold a node rebuilt under the same key.
        if table.get(ref.key) is ref:
            del table[ref.key]

    return table, forget


# Intern tables.  An Imp key holds interned children, so one lookup decides
# structural equality.  Values are weak: a closure run builds and drops
# millions of intermediate formulas, and a strong table would keep them alive.
# They are plain dicts, not WeakValueDictionary, so a lookup costs no Python
# call.
_VARS, _forget_var = _intern_table()
_IMPS, _forget_imp = _intern_table()

Formula = Var | Imp

# A substitution is a finite mapping from variable names to formulas and is
# always applied simultaneously (no chained re-substitution).
Substitution = dict[str, Formula]


# Formula text is read as tokens: an arrow, a parenthesis, an identifier, or
# any other single non-space character, which is always a syntax error.
_TOKEN = re.compile(r"->|[()]|[a-z][a-z0-9_]*|\S")
# The text is tokenized in pieces, so the token list held at once is bounded
# however long the text is.  A piece ends just after the first whitespace
# character, parenthesis or `>` at or past _PIECE characters from its start:
# no token runs across such a cut.
_PIECE = 1 << 16
_CUT = re.compile(r"[\s()>]")


def _token_start(text: str, start: int, end: int, k: int) -> int:
    """Offset of the k-th token of text[start:end]; for error messages only."""
    return next(itertools.islice(_TOKEN.finditer(text, start, end), k, None)).start()


def parse_formula(text: str) -> Formula:
    """Parse `->` as right-associative implication over lowercase identifiers.

    Grammar: formula := atom | atom "->" formula; atom := ident | "(" formula ")".
    The regex engine tokenizes the text one bounded piece at a time, so the
    memory a call holds beyond the formula itself is one piece's tokens plus
    one stack entry per open parenthesis.  No step recurses, so nesting
    depth is bounded by memory, not by the interpreter's recursion limit.
    """
    n = len(text)
    names: dict[str, Var] = {}
    # The atoms of each unfinished `a -> b -> ...` chain: the whole formula's
    # at the bottom, then one per open parenthesis.
    chains: list[list[Formula]] = [[]]
    chain = chains[0]
    atom_next = True
    start = 0
    while start < n:
        end = start + _PIECE
        if end < n:
            cut = _CUT.search(text, end)
            end = n if cut is None else cut.end()
        for k, token in enumerate(_TOKEN.findall(text, start, end)):
            if atom_next:
                if token == "(":
                    chain = []
                    chains.append(chain)
                    continue
                atom = names.get(token)
                if atom is None:
                    if not "a" <= token[0] <= "z":
                        position = _token_start(text, start, end, k)
                        raise FormulaSyntaxError("identifier or '(' expected", position)
                    atom = names[token] = Var(token)
                chain.append(atom)
                atom_next = False
            elif token == "->":
                atom_next = True
            elif token == ")" and len(chains) > 1:
                chains.pop()
                atom = _fold_chain(chain)
                chain = chains[-1]
                chain.append(atom)
            else:
                message = "')' expected" if len(chains) > 1 else "unexpected trailing input"
                raise FormulaSyntaxError(message, _token_start(text, start, end, k))
        start = end
    if atom_next:
        raise FormulaSyntaxError("formula expected", n)
    if len(chains) > 1:
        raise FormulaSyntaxError("')' expected", n)
    return _fold_chain(chain)


def _shared_imps(f: Formula) -> dict[int, None]:
    """The implications reached more than once in f's DAG, keyed by id."""
    seen: set[int] = set()
    shared: dict[int, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Imp:
            if id(g) in seen:
                shared[id(g)] = None
            else:
                seen.add(id(g))
                stack.append(g.right)
                stack.append(g.left)
    return shared


def render_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; inverse of parse_formula.

    Iterative, like the parser: a formula nested deeper than the recursion
    limit still prints.  A subformula that occurs more than once in f's DAG
    is rendered once and its text reused; other subformulas are streamed, so
    memory stays linear in the DAG plus the text.
    """
    # id -> text of each shared implication, None until it has been rendered.
    texts = _shared_imps(f)
    parts: list[str] = []
    # Formulas still to render without outer parentheses, text pieces, and
    # (id, start) marks closing a shared implication whose text begins at
    # parts[start]; the next one last.
    todo: list[Formula | str | tuple[int, int]] = [f]
    while todo:
        g = todo.pop()
        if type(g) is str:
            parts.append(g)
            continue
        if type(g) is tuple:
            key, start = g
            text = "".join(parts[start:])
            del parts[start:]
            parts.append(text)
            texts[key] = text
            continue
        # Walk g's right spine; an implication on the left is bracketed and
        # rendered first, the rest of the spine after its ") -> ".
        while type(g) is Imp:
            if id(g) in texts:
                text = texts[id(g)]
                if text is not None:
                    parts.append(text)
                    break
                todo.append((id(g), len(parts)))
            left = g.left
            if type(left) is Imp:
                parts.append("(")
                todo.append(g.right)
                todo.append(") -> ")
                g = left
            else:
                parts.append(left.name)
                parts.append(" -> ")
                g = g.right
        else:  # the spine ends in a variable, not in reused text
            parts.append(g.name)
    return "".join(parts)


_LENGTHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def rendered_length(f: Formula) -> int:
    """len(render_formula(f)), counted without building the text: an
    implication is its operands, " -> ", and parentheses around a left one.
    Each node is counted once while it lives (`_LENGTHS`), on an explicit
    stack, so a text too large to build is counted in time linear in f's
    DAG."""
    sizes = _LENGTHS
    stack = [f]
    while stack:
        g = stack.pop()
        if g in sizes:
            continue
        if type(g) is Var:
            sizes[g] = len(g.name)
        elif todo := [h for h in (g.left, g.right) if h not in sizes]:
            stack += (g, *todo)
        else:
            sizes[g] = sizes[g.left] + 2 * (type(g.left) is Imp) + 4 + sizes[g.right]
    return sizes[f]


def variables(f: Formula) -> tuple[str, ...]:
    """Variable names in first-occurrence order, deduplicated."""
    names = f._names
    if names is not None:
        return names
    # Over the cap: walk the nodes without a stored tuple; a subterm that has
    # one contributes its names in order.
    out: list[str] = []
    seen: set[str] = set()
    visited: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        names = g._names
        if names is not None:
            for name in names:
                if name not in seen:
                    seen.add(name)
                    out.append(name)
        elif id(g) not in visited:
            visited.add(id(g))
            stack.append(g.right)
            stack.append(g.left)
    return tuple(out)


def apply_substitution(subst: Substitution, f: Formula) -> Formula:
    """Replace every occurrence of each bound variable, simultaneously.

    Iterative: a formula nested deeper than the recursion limit still
    substitutes.  Each implication is rebuilt once per call, and a subterm
    that no binding reaches is kept as it is.
    """
    if not subst:
        return f
    keys = subst.keys()
    memo: dict[Imp, Formula] = {}
    built: list[Formula] = []
    # Terms to substitute in, and (implication, None) once both operands'
    # images are on top of `built`.
    todo: list[tuple[Formula, None] | Formula] = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:
            g = g[0]
            right = built.pop()
            left = built[-1]
            built[-1] = memo[g] = (
                g if left is g.left and right is g.right else Imp(left, right)
            )
        elif type(g) is Var:
            built.append(subst.get(g.name, g))
        elif (names := g._names) is not None and keys.isdisjoint(names):
            built.append(g)
        elif (r := memo.get(g)) is not None:
            built.append(r)
        else:
            todo += ((g, None), g.right, g.left)
    return built[0]


# Unification reads each term in one of three variable banks, 0, 1 and 2:
# the same name in different banks is two variables.  `unify` reads both
# formulas in bank 0, so shared names are shared variables; condensed
# detachment reads the minor premise in bank 1, which keeps the premises
# apart without a renamed copy.  Bank 2 is rigid: its variables are never
# bound, so a goal read there is a constant.  A binding maps a variable to a
# term read in a bank: bound[bank][name] = (term, its bank); bank 2's dict is
# `_RIGID`, empty.  Bindings are triangular, not resolved as they are made,
# so a variable is read by following its chain.
_Binding = dict[str, tuple[Formula, int]]
_Bindings = tuple[_Binding, _Binding, _Binding]
_RIGID: _Binding = {}


def _unify_banks(
    s: Formula, sb: int, t: Formula, tb: int, first: _Binding | None = None
) -> _Bindings | None:
    """Most general unifier of s, read in bank sb, and t, read in bank tb,
    as bindings; None when there is none.  Bank 0 starts with a copy of
    `first`, when given.  Shared subterm pairs are unified once."""
    bound: _Bindings = ({} if first is None else dict(first), {}, _RIGID)
    seen: set[tuple[Imp, int, Imp, int]] = set()
    stack = [(s, sb, t, tb)]
    while stack:
        s, sb, t, tb = stack.pop()
        while type(s) is Var:
            nxt = bound[sb].get(s.name)
            if nxt is None:
                break
            s, sb = nxt
        while type(t) is Var:
            nxt = bound[tb].get(t.name)
            if nxt is None:
                break
            t, tb = nxt
        if s is t and sb == tb:
            continue
        if type(t) is Var and tb != 2:
            # Bind the right-hand variable so left-side names survive.
            if type(s) is not Var and _occurs(t.name, tb, s, sb, bound):
                return None
            bound[tb][t.name] = (s, sb)
        elif type(s) is Var and sb != 2:
            if _occurs(s.name, sb, t, tb, bound):
                return None
            bound[sb][s.name] = (t, tb)
        elif type(s) is Var or type(t) is Var:
            # A rigid variable met an implication or another rigid variable.
            return None
        else:
            key = (s, sb, t, tb)
            if key in seen:
                continue
            seen.add(key)
            stack.append((s.right, sb, t.right, tb))
            stack.append((s.left, sb, t.left, tb))
    return bound


def _occurs(name: str, bank: int, t: Formula, tb: int, bound: _Bindings) -> bool:
    """True when variable `name` of `bank` occurs in t, read in bank tb,
    under the bindings."""
    visited: set[tuple[Imp, int]] = set()
    stack = [(t, tb)]
    while stack:
        g, b = stack.pop()
        while type(g) is Var:
            nxt = bound[b].get(g.name)
            if nxt is None:
                break
            g, b = nxt
        names = g._names
        # A subterm none of whose names is bound in its bank reads as
        # written.  An unbound variable, which the chain ends on, always
        # takes this branch.
        if names is not None and bound[b].keys().isdisjoint(names):
            if b == bank and name in names:
                return True
        elif (g, b) not in visited:
            visited.add((g, b))
            stack.append((g.right, b))
            stack.append((g.left, b))
    return False


def _build_banks(
    roots: list[tuple[Formula, int]],
    bound: _Bindings,
    name: Callable[[Var, int], Var],
) -> list[Formula]:
    """Each root, read in its bank, under the bindings.  An unbound variable
    v of bank b becomes name(v, b), asked once per variable and bank in
    first-occurrence order, roots taken in order.  The roots share one walk:
    each implication is built once per bank.  Bank 2 is never read."""
    names: tuple[dict[Var, Var], dict[Var, Var]] = ({}, {})
    memo: tuple[dict[Imp, Formula], dict[Imp, Formula]] = ({}, {})
    built: list[Formula] = []
    # (term, bank) to read, or (implication, bank + 2) once both operands'
    # images are on top of `built`.
    todo = roots[::-1]
    while todo:
        g, b = todo.pop()
        if b > 1:
            right = built.pop()
            left = built[-1]
            built[-1] = memo[b - 2][g] = (
                g if left is g.left and right is g.right else Imp(left, right)
            )
            continue
        while type(g) is Var:
            t = bound[b].get(g.name)
            if t is None:
                v = names[b].get(g)
                if v is None:
                    v = names[b][g] = name(g, b)
                break
            g, b = t
        else:
            v = memo[b].get(g)
            if v is None:
                todo += ((g, b + 2), (g.right, b), (g.left, b))
                continue
        built.append(v)
    return built


def unify(a: Formula, b: Formula) -> Substitution | None:
    """Most general unifier of a and b, or None.

    Variables are shared as written; to treat the inputs as independent,
    unify a with rename_apart(b, set(variables(a))).  The result is
    idempotent, with bindings sorted by variable name.  The occurs check is
    mandatory: solutions must be finite formulas, so cyclic bindings are
    rejected.  Where both sides are variables the right-hand one is bound,
    so left-side names survive.
    """
    bound = _unify_banks(a, 0, b, 0)
    if bound is None:
        return None
    keys = sorted(bound[0])
    return dict(zip(keys, _build_banks([bound[0][k] for k in keys], bound, lambda v, b: v)))


def match_instance(candidate: Formula, pattern: Formula) -> Substitution | None:
    """Substitution s with s(pattern) == candidate, binding only pattern's
    variables; None when candidate is not an instance of pattern.  Identity
    bindings are omitted."""
    if candidate is pattern:
        return {}
    # The subterm of candidate that each pattern node met: for a variable its
    # binding.  s(node) is one formula, so a node met again must meet the
    # same one, and each node is walked once.
    image: dict[Formula, Formula] = {}
    stack = [(pattern, candidate)]
    while stack:
        p, c = stack.pop()
        prev = image.get(p)
        if prev is not None:
            if prev is not c:
                return None
            continue
        if type(p) is Imp:
            if type(c) is not Imp:
                return None
            stack.append((p.right, c.right))
            stack.append((p.left, c.left))
        image[p] = c
    return dict(
        sorted((p.name, c) for p, c in image.items() if type(p) is Var and c is not p)
    )


def canonical_rename(f: Formula) -> Formula:
    """Rename variables to x1, x2, ... in first-occurrence order.

    Two formulas are alpha-equal exactly when their canonical forms are equal,
    which makes deduplication a plain set lookup.
    """
    mapping: Substitution = {}
    identity = True
    for i, v in enumerate(variables(f), start=1):
        new = f"x{i}"
        mapping[v] = Var(new)
        if new != v:
            identity = False
    if identity:
        return f
    return apply_substitution(mapping, f)


def _apart_names(own: tuple[str, ...], avoid: set[str]) -> dict[str, Var]:
    """`rename_apart`'s new name for each of `own` that is in `avoid`."""
    taken = set(own) | avoid
    fresh: dict[str, Var] = {}
    for v in own:
        if v in avoid:
            k = 2
            while f"{v}_{k}" in taken:
                k += 1
            taken.add(f"{v}_{k}")
            fresh[v] = Var(f"{v}_{k}")
    return fresh


def rename_apart(f: Formula, avoid: set[str]) -> Formula:
    """Rename f's variables that clash with `avoid`.

    Deterministic scheme relied on by trace checking: each clashing variable v
    becomes v_2, v_3, ... taking the first name free of both `avoid` and f's
    own variables.
    """
    return apply_substitution(_apart_names(variables(f), avoid), f)
