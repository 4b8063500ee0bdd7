"""Differential golden test: the closure engine yields the same generators,
in the same order, at the same levels and with the same traces as the
engine whose forward subsumption scanned every retained generator.

Digests were recorded with that linear scan, before the generalisation
index replaced it.  Each digest covers, for every generator of the level,
its rendered formula, its level and `json.dumps(trace_to_json(trace))`.
"""

import hashlib
import json

import pytest

from tagforge.engine import Calculus, closure_level, trace_to_json
from tagforge.formulas import parse_formula, render_formula
from tagforge.lemmas import (
    WEAKENING_AXIOM,
    collatz_system,
    growing_system,
    shrinking_system,
)
from tagforge.reduction import build_reduction

CALCULI = {
    "ks": ["x -> y -> x", "(x -> y -> z) -> (x -> y) -> x -> z"],
    "bci": ["(x -> y) -> (z -> x) -> z -> y", "(x -> y -> z) -> y -> x -> z", "x -> x"],
    "luk": ["((x -> y) -> z) -> (z -> x) -> u -> x"],
    "tb": ["x -> y -> x", "(x -> y) -> (y -> z) -> x -> z", "((x -> y) -> x) -> x"],
}
SYSTEMS = {
    "shrinking": shrinking_system,
    "growing": growing_system,
    "collatz": collatz_system,
}
K_CALC = Calculus("weakening", (WEAKENING_AXIOM,))


def _digest(level) -> str:
    h = hashlib.sha256()
    for g in level.generators:
        for part in (
            render_formula(g.formula),
            str(g.level),
            json.dumps(trace_to_json(g.trace)),
        ):
            h.update(part.encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


def _calculus(name: str) -> Calculus:
    return Calculus(name, tuple(parse_formula(a) for a in CALCULI[name]))


@pytest.mark.parametrize(
    "name,level,subsumption,count,digest",
    [
        ("ks", 4, True, 852,
         "ebd826c20fe9993cc665a52f2492b8ca38b1ced317dae35ba762cfc083442d40"),
        ("bci", 3, True, 1137,
         "fd078448be14b60b5a906da806e0cf68b169962e8a78974489c256cc1c1b8b90"),
        ("luk", 5, True, 100,
         "ed1efaaeedbba91e383396f8b6e4cc100d6b9d8b2d0b34bf00b1c89a3a21716a"),
        ("tb", 3, True, 324,
         "a2b0e0c0c07e6715707000b6c95327e877ac2e7421da4bc074bb52b22ad69490"),
        ("ks", 3, False, 112,
         "235bb936f8a1510cc870a93b31806bfba81d848f4989a7b85ba0b17783e4d879"),
    ],
    ids=["ks-4", "bci-3", "luk-5", "tb-3", "ks-3-no-subsumption"],
)
def test_closure_matches_golden(name, level, subsumption, count, digest):
    lvl = closure_level(_calculus(name), level, subsumption=subsumption)
    assert (len(lvl.generators), _digest(lvl)) == (count, digest)


@pytest.mark.parametrize(
    "system,count,digest",
    [
        ("shrinking", 17,
         "8fe2a27cd26d861dc34fdb2e921d7acd1bda7f7c6c70135688d8b20595eca2fe"),
        ("growing", 8,
         "f5b40f75f9d8d2d4f18af1e95e59bd369079f67e504d2c24216f99d8fb2f6e36"),
        ("collatz", 34,
         "e944d0b782656ddeda90b239fc3940a4ef65c00ebd2155963aecc6253a04c3b6"),
    ],
    ids=["shrinking", "growing", "collatz"],
)
def test_bundle_closure_matches_golden(system, count, digest):
    bundle = build_reduction(SYSTEMS[system](), K_CALC, "aa")
    lvl = closure_level(bundle.full, 2)
    assert (len(lvl.generators), _digest(lvl)) == (count, digest)
