"""Per-layer spans of one traced job, recorded from outside the program.

The layers are tagforge's modules.  Each boundary function below is wrapped
by rebinding its name in every tagforge module that imported it, so a call
is attributed to the layer that made it: `formulas.unify.from_lemmas.s` is
time the lemma suite spent inside `unify`.  A span's self time is its
duration minus the time covered by the spans it caused; summing self time by
the callee's layer gives each layer's busy time, and `cli.main` is the root
span, so the self times add up to the job time.

Two boundaries are not plain function names: `Imp.__eq__` (structural
equality, reached through `==`) is wrapped on the class and counted as
kernel work, and `closure_levels` is a generator, so each `next()` on it is
a span of its own.  Calls inside a module to its own functions are not
wrapped, except where a layer's entry point is reached only that way
(`derives` -> `closure_levels`, `chain_check` -> `check_trace`,
`build_reduction` -> `production_axioms`, `run_lemma` -> each lemma check).

tagforge runs one job on one thread, so no layer ever waits on another: the
trace records busy time only, and there is no queue or wait metric.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("formulas", "tags", "codec", "engine", "reduction", "lemmas", "cli")

# Kernel functions, split by calling layer.
KERNEL = (
    "match_instance",
    "unify",
    "apply_substitution",
    "rename_apart",
    "canonical_rename",
    "variables",
    "parse_formula",
    "render_formula",
)
KERNEL_CALLERS = ("engine", "codec", "reduction", "lemmas", "cli")

# Boundary functions of the other layers, summed over callers.
BOUNDARY = {
    "tags": ("tag_run", "run_words", "tag_step", "parse_tag_system"),
    "codec": ("code_word", "right_nested", "decode"),
    "engine": (
        "derives",
        "check_trace",
        "chain_check",
        "trace_to_json",
        "trace_from_json",
        "load_calculus",
    ),
    "reduction": (
        "build_reduction",
        "production_axioms",
        "bundle_to_json",
        "t_alpha_member",
        "build_PT",
    ),
    "lemmas": (
        "run_lemma",
        "check_lemma3",
        "_sweep_lemma6",
        "build_run_chain",
        "check_production",
        "check_halting_equivalence",
        "check_inclusion",
    ),
}


def _count(key, amount):
    def measure(counts, args, result):
        counts[key] += amount(args, result)

    return measure


MEASURES = {
    "formulas.match_instance": _count(
        "formulas.match_instance.hits", lambda a, r: r is not None
    ),
    "formulas.unify": _count("formulas.unify.successes", lambda a, r: r is not None),
    "formulas.render_formula": _count("formulas.render_formula.chars", lambda a, r: len(r)),
    "formulas.parse_formula": _count("formulas.parse_formula.chars", lambda a, r: len(a[0])),
    "codec.code_word": _count("codec.code_word.members", lambda a, r: len(r.members)),
    "reduction.production_axioms": _count(
        "reduction.production_axioms.axioms", lambda a, r: len(r[0]) + len(r[1])
    ),
    "engine.check_trace": _count("engine.check_trace.steps", lambda a, r: len(a[1].steps)),
    "engine.chain_check": _count("engine.chain_check.links", lambda a, r: len(a[1].links)),
}


class Tracer:
    """Span accounting for one process.  Spans nest strictly because the
    program is single-threaded, so a stack of child-time accumulators is
    enough."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack = [0.0]

    def wrap(self, fn, layer: str, key: str, measure=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        calls_key, s_key = key + ".calls", key + ".s"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                counts[calls_key] += 1
                counts[s_key] += elapsed
            if measure is not None:
                measure(counts, args, result)
            return result

        return wrapper

    def _levels(self, fn):
        counts = self.counts

        def closure_levels(*args, **kwargs):
            step = self.wrap(fn(*args, **kwargs).__next__, "engine", "engine.closure.level")
            size = 0
            while True:
                try:
                    level = step()
                except StopIteration:
                    return
                counts["engine.closure.generators"] += len(level.generators) - size
                size = len(level.generators)
                yield level

        return closure_levels

    def install(self, cli):
        """Wrap every boundary reachable from `cli` and return the wrapped
        `cli.main`, the root span."""
        from tagforge import codec, engine, formulas, lemmas, reduction, tags

        modules = {
            "formulas": formulas,
            "tags": tags,
            "codec": codec,
            "engine": engine,
            "reduction": reduction,
            "lemmas": lemmas,
            "cli": cli,
        }
        for name in KERNEL:
            original = getattr(formulas, name)
            key = f"formulas.{name}"
            for caller in KERNEL_CALLERS:
                module = modules[caller]
                if module.__dict__.get(name) is original:
                    setattr(
                        module,
                        name,
                        self.wrap(original, "formulas", f"{key}.from_{caller}", MEASURES.get(key)),
                    )
        boundary = [(layer, name) for layer, names in BOUNDARY.items() for name in names]
        for layer, name in boundary + [("engine", "closure_levels")]:
            original = getattr(modules[layer], name)
            key = f"{layer}.{name.lstrip('_')}"
            if name == "closure_levels":
                wrapped = self._levels(original)
            else:
                wrapped = self.wrap(original, layer, key, MEASURES.get(key))
            for caller, module in modules.items():
                # codec's own calls are recursion (decode) or helpers
                # (right_nested -> code_word), not layer entries.
                if caller == "formulas" or (caller == "codec" and layer == "codec"):
                    continue
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapped)
        formulas.Imp.__eq__ = self.wrap(formulas.Imp.__eq__, "formulas", "formulas.imp_eq")
        return self.wrap(cli.main, "cli", "cli.main")

    def report(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}
