"""Differential golden test: the reduction builders and the run chains give
the same JSON as when the calculus layout was spread over several builders.

Digests were recorded before the production, rebracketing and hook groups
were assembled in one place.  Chains pin their waypoints and every link's
`trace_to_json`, so the axiom index of each link is fixed, not only its
formula.

The collatz chain from `aaa` renders to 858 MB of text, so its formulas are
written as indices into a shared node table instead; every other case is
plain rendered text.
"""

import hashlib
import json

import pytest

from tagforge import engine
from tagforge.codec import DEFAULT_HAT
from tagforge.engine import Calculus, calculus_to_json, trace_to_json
from tagforge.formulas import Var, render_formula
from tagforge.lemmas import (
    WEAKENING_AXIOM,
    build_run_chain,
    collatz_system,
    growing_system,
    shrinking_system,
)
from tagforge.reduction import build_PT, build_reduction, bundle_to_json

H = DEFAULT_HAT
K_CALC = Calculus("weakening", (WEAKENING_AXIOM,))
SYSTEMS = {
    "collatz": collatz_system,
    "shrinking": shrinking_system,
    "growing": growing_system,
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


class NodeTable:
    """Names each formula by its index in a table of nodes, children first;
    an implication's entry is "i -> j" over its children's indices."""

    def __init__(self):
        self.nodes: list[str] = []
        self._ids: dict = {}

    def __call__(self, f) -> str:
        stack = [f]
        while stack:
            g = stack[-1]
            if g in self._ids:
                stack.pop()
            elif type(g) is Var:
                self._add(stack.pop(), g.name)
            elif g.left in self._ids and g.right in self._ids:
                self._add(stack.pop(), f"{self._ids[g.left]} -> {self._ids[g.right]}")
            else:
                stack += [c for c in (g.right, g.left) if c not in self._ids]
        return str(self._ids[f])

    def _add(self, g, entry: str) -> None:
        self._ids[g] = len(self.nodes)
        self.nodes.append(entry)


def _chain_json(chain, name) -> dict:
    return {
        "waypoints": [name(w) for w in chain.waypoints],
        "links": [trace_to_json(link) for link in chain.links],
    }


@pytest.mark.parametrize(
    "system,word,digest",
    [
        ("shrinking", "aa", "98d037f188a1f29c7eae429f3be6db39b61441503f84d659b775501086c0bbaa"),
        ("growing", "aa", "b272ec70966ce19e42a9c274151c980f9201bdc4126b06a76f2e5487d7ea84d6"),
    ],
)
def test_run_chain_matches_golden(system, word, digest):
    chain = build_run_chain(SYSTEMS[system](), H, word, 50)
    assert _digest(_chain_json(chain, render_formula)) == digest


def test_collatz_run_chain_matches_golden(monkeypatch):
    chain = build_run_chain(collatz_system(), H, "aaa", 50)
    table = NodeTable()
    monkeypatch.setattr(engine, "render_formula", table)
    obj = _chain_json(chain, table)
    obj["nodes"] = table.nodes
    assert len(chain.links) == 274
    assert _digest(obj) == (
        "af28dbd8a817528e6d1299fd38c8b5bb7faf0d595d56dd23848c449cbf84c94f"
    )


@pytest.mark.parametrize(
    "system,digest",
    [
        ("collatz", "9ea65b2003da1c2331d5423abf433de7397518f59f43adee3f071ae2948364a7"),
        ("shrinking", "53aa406f4697dc2436eea6c03a1c536ca513f022b1cd1d6aeef18908a5d48248"),
        ("growing", "6ebe699241a835f8f548432dc93b3bc4cdc3a2e4b45ea90b5a17a4c0bc4c0e80"),
    ],
)
def test_build_pt_matches_golden(system, digest):
    assert _digest(calculus_to_json(build_PT(SYSTEMS[system](), H))) == digest


@pytest.mark.parametrize(
    "system,digest",
    [
        ("shrinking", "ca24593f1cc7ccd0f564100a1d18bdac7053d3f6520b66389bd4464bb4fb4b8a"),
        ("growing", "e19b848102c8a11c9fa10081ecf79946fb8850b4d048dcd855ee92a4a75bb029"),
    ],
)
def test_bundle_matches_golden(system, digest):
    bundle = build_reduction(SYSTEMS[system](), K_CALC, "aa")
    assert _digest(bundle_to_json(bundle)) == digest
