"""Term kernel for implicational formulas.

Formulas are binary implication trees over named variables and are the sole
term language of the package.  Everything here is pure: substitution,
unification (with occurs check), one-sided instance matching, and renaming
helpers.

Formula values are immutable and interned (hash-consed): constructing a
formula returns the existing object when a structurally equal one is alive,
so structural equality is object identity and `==` and `hash` are the
default identity ones.  The intern tables are module-global and not locked;
the package runs on one thread.

Each node also stores, when it is built, its variable names in
first-occurrence order, so `variables` is a field read, and `unify`'s occurs
check and `apply_substitution` skip any subterm that no binding reaches.  The
tuple is kept only up to `_NAMES_CAP` names; a node with more stores None,
and `variables` walks it, so building a formula stays linear in its size.
`render_formula` renders a subformula that occurs more than once in the
formula's DAG to text once per call, and reuses that text.
"""

from __future__ import annotations

import re
import weakref

__all__ = [
    "Formula",
    "FormulaSyntaxError",
    "Imp",
    "Substitution",
    "Var",
    "alpha_equal",
    "apply_substitution",
    "canonical_rename",
    "match_instance",
    "parse_formula",
    "rename_apart",
    "render_formula",
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
    raise AttributeError(f"{type(self).__name__} nodes are interned and immutable")


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
        node = _VARS.get(name)
        if node is None:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            object.__setattr__(node, "_names", (name,))
            _VARS[name] = node
        return node

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Imp:
    """An implication node; one object per (left, right) pair."""

    __slots__ = ("left", "right", "_names", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, left: "Formula", right: "Formula") -> "Imp":
        key = (left, right)
        node = _IMPS.get(key)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "left", left)
            object.__setattr__(node, "right", right)
            object.__setattr__(node, "_names", _merge_names(left._names, right._names))
            _IMPS[key] = node
        return node

    def __repr__(self) -> str:
        return f"Imp({self.left!r}, {self.right!r})"


# Intern tables.  An Imp key holds interned children, so one lookup decides
# structural equality.  Values are weak: a closure run builds and drops
# millions of intermediate formulas, and a strong table would keep them alive.
_VARS: weakref.WeakValueDictionary[str, Var] = weakref.WeakValueDictionary()
_IMPS: weakref.WeakValueDictionary[tuple, Imp] = weakref.WeakValueDictionary()

Formula = Var | Imp

# A substitution is a finite mapping from variable names to formulas and is
# always applied simultaneously (no chained re-substitution).
Substitution = dict[str, Formula]


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def parse_formula(text: str) -> Formula:
    """Parse `->` as right-associative implication over lowercase identifiers.

    Grammar: formula := atom | atom "->" formula; atom := ident | "(" formula ")".
    The parser keeps an explicit stack, one entry per open parenthesis, so
    nesting depth is bounded by memory, not by the interpreter's recursion
    limit.
    """
    n = len(text)
    # The atoms of each unfinished `a -> b -> ...` chain: the whole formula's
    # at the bottom, then one per open parenthesis.
    chains: list[list[Formula]] = [[]]
    i = 0
    while True:
        i = _skip_ws(text, i)
        if i >= n:
            raise FormulaSyntaxError("formula expected", i)
        if text[i] == "(":
            chains.append([])
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m is None:
            raise FormulaSyntaxError("identifier or '(' expected", i)
        atom: Formula = Var(m.group())
        i = m.end()
        while True:
            chains[-1].append(atom)
            i = _skip_ws(text, i)
            if text.startswith("->", i):
                i += 2
                break
            chain = chains.pop()
            atom = chain.pop()
            while chain:
                atom = Imp(chain.pop(), atom)
            if not chains:
                if i != n:
                    raise FormulaSyntaxError("unexpected trailing input", i)
                return atom
            if i >= n or text[i] != ")":
                raise FormulaSyntaxError("')' expected", i)
            i += 1


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
    """Replace every occurrence of each bound variable, simultaneously."""
    if not subst:
        return f
    keys = subst.keys()
    memo: dict[int, Formula] = {}

    def go(g: Formula) -> Formula:
        if type(g) is Var:
            return subst.get(g.name, g)
        names = g._names
        if names is not None and keys.isdisjoint(names):
            return g
        r = memo.get(id(g))
        if r is None:
            left = go(g.left)
            right = go(g.right)
            r = g if left is g.left and right is g.right else Imp(left, right)
            memo[id(g)] = r
        return r

    return go(f)


def _walk(t: Formula, subst: dict[str, Formula]) -> Formula:
    while type(t) is Var:
        nxt = subst.get(t.name)
        if nxt is None:
            break
        t = nxt
    return t


def _occurs(name: str, t: Formula, subst: dict[str, Formula]) -> bool:
    keys = subst.keys()
    visited: set[int] = set()
    stack = [t]
    while stack:
        g = _walk(stack.pop(), subst)
        names = g._names
        # A subterm with no bound variable reads as written.  An unbound
        # variable, which _walk ends on, always takes this branch.
        if names is not None and keys.isdisjoint(names):
            if name in names:
                return True
        elif id(g) not in visited:
            visited.add(id(g))
            stack.append(g.right)
            stack.append(g.left)
    return False


def unify(a: Formula, b: Formula) -> Substitution | None:
    """Most general unifier of a and b, or None.

    Variables are shared as written; to treat the inputs as independent,
    unify a with rename_apart(b, set(variables(a))).  The result is
    idempotent, with bindings sorted by variable name.  The occurs check is
    mandatory: solutions must be finite formulas, so cyclic bindings are
    rejected.
    """
    subst: dict[str, Formula] = {}
    stack = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while stack:
        s, t = stack.pop()
        s = _walk(s, subst)
        t = _walk(t, subst)
        if s is t:
            continue
        s_var = type(s) is Var
        t_var = type(t) is Var
        if s_var and t_var:
            if s.name != t.name:
                # Bind the right-hand variable so left-side names survive.
                subst[t.name] = s
        elif t_var:
            if _occurs(t.name, s, subst):
                return None
            subst[t.name] = s
        elif s_var:
            if _occurs(s.name, t, subst):
                return None
            subst[s.name] = t
        else:
            key = (id(s), id(t))
            if key in seen:
                continue
            seen.add(key)
            stack.append((s.right, t.right))
            stack.append((s.left, t.left))
    memo: dict[int, Formula] = {}
    return {v: _resolve(subst[v], subst, memo) for v in sorted(subst)}


def _resolve(t: Formula, subst: dict[str, Formula], memo: dict[int, Formula]) -> Formula:
    t = _walk(t, subst)
    if type(t) is Var:
        return t
    r = memo.get(id(t))
    if r is None:
        left = _resolve(t.left, subst, memo)
        right = _resolve(t.right, subst, memo)
        r = t if left is t.left and right is t.right else Imp(left, right)
        memo[id(t)] = r
    return r


def match_instance(candidate: Formula, pattern: Formula) -> Substitution | None:
    """Substitution s with s(pattern) == candidate, binding only pattern's
    variables; None when candidate is not an instance of pattern.  Identity
    bindings are omitted."""
    if candidate is pattern:
        return {}
    binds: dict[str, Formula] = {}
    stack = [(pattern, candidate)]
    seen: set[tuple[int, int]] = set()
    while stack:
        p, c = stack.pop()
        if type(p) is Var:
            prev = binds.get(p.name)
            if prev is None:
                binds[p.name] = c
            elif prev is not c:
                return None
        else:
            if type(c) is not Imp:
                return None
            key = (id(p), id(c))
            if key in seen:
                continue
            seen.add(key)
            stack.append((p.right, c.right))
            stack.append((p.left, c.left))
    return {
        k: v
        for k, v in sorted(binds.items())
        if not (type(v) is Var and v.name == k)
    }


def alpha_equal(a: Formula, b: Formula) -> bool:
    """True when a and b differ only by a bijective renaming of variables."""
    fwd: dict[str, str] = {}
    back: dict[str, str] = {}
    stack = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while stack:
        s, t = stack.pop()
        if type(s) is not type(t):
            return False
        if type(s) is Var:
            if fwd.setdefault(s.name, t.name) != t.name:
                return False
            if back.setdefault(t.name, s.name) != s.name:
                return False
        else:
            key = (id(s), id(t))
            if key in seen:
                continue
            seen.add(key)
            stack.append((s.right, t.right))
            stack.append((s.left, t.left))
    return True


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


def rename_apart(f: Formula, avoid: set[str]) -> Formula:
    """Rename f's variables that clash with `avoid`.

    Deterministic scheme relied on by trace checking: each clashing variable v
    becomes v_2, v_3, ... taking the first name free of both `avoid` and f's
    own variables.
    """
    own = variables(f)
    taken = set(own) | avoid
    mapping: Substitution = {}
    for v in own:
        if v in avoid:
            k = 2
            while f"{v}_{k}" in taken:
                k += 1
            fresh = f"{v}_{k}"
            taken.add(fresh)
            mapping[v] = Var(fresh)
    if not mapping:
        return f
    return apply_substitution(mapping, f)
