"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad input data, failed check),
2 usage error.  All JSON output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codec import HatTemplate, code_word
from .engine import (
    Derivable,
    DetachStep,
    GeneratorCapError,
    check_trace,
    derives,
    load_calculus,
    trace_from_json,
    trace_to_json,
)
from .formulas import parse_formula, render_formula, rendered_length
from .lemmas import WEAKENING_CALCULUS, LemmaReport, run_lemma
from .reduction import build_reduction, bundle_to_json
from .tags import Halted, parse_tag_system, tag_reaches, tag_run

DEFAULT_DEPTH = 3
DEFAULT_MAX_STEPS = 100
# Most formula text (step results and bound formulas) that `verify --output`
# writes as witness traces: a trace built along a long run holds gigabytes.
MAX_WITNESS_CHARS = 10_000_000


def _load_system(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_tag_system(fh.read())


def _emit(obj: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        # Streamed in chunks: a reduction bundle renders to megabytes, and
        # joining it into one string (then one bytes object) first would
        # hold two more copies of it at the peak of `reduce`.
        json.dump(obj, out, indent=2, sort_keys=False)
        out.write("\n")
    else:
        for key, value in obj.items():
            print(f"{key}: {value}", file=out)


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Implicational calculi, tag systems, and the halting reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser(
        "encode", help="encode a word as its bracketing set", formatter_class=fmt
    )
    enc.add_argument("--word", required=True)
    enc.add_argument("--hat", default="x", help="one-variable template")
    enc.set_defaults(handler=_cmd_encode)

    tag = sub.add_parser("tag", help="tag system operations")
    tag_sub = tag.add_subparsers(dest="tag_command", required=True)
    run = tag_sub.add_parser(
        "run", help="run a tag system on a word", formatter_class=fmt
    )
    run.add_argument("--system", required=True, help="path to a tag file")
    run.add_argument("--input", required=True)
    run.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    run.set_defaults(handler=_cmd_tag_run)
    reach = tag_sub.add_parser(
        "reach", help="does the run pass through a word?", formatter_class=fmt
    )
    reach.add_argument("--system", required=True)
    reach.add_argument("--from", dest="source", required=True)
    reach.add_argument("--to", dest="target", required=True)
    reach.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    reach.set_defaults(handler=_cmd_tag_reach)

    red = sub.add_parser(
        "reduce", help="build the reduction bundle", formatter_class=fmt
    )
    red.add_argument("--system", required=True)
    red.add_argument("--input", required=True)
    red.add_argument("--p0", help="path to a calculus JSON (default: weakening axiom)")
    red.set_defaults(handler=_cmd_reduce)

    der = sub.add_parser(
        "derive", help="bounded derivability query", formatter_class=fmt
    )
    der.add_argument("--calculus", required=True, help="path to a calculus JSON")
    der.add_argument("--goal", required=True, help="formula text")
    der.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    der.add_argument("--trace-out", help="write the trace JSON here when derivable")
    der.set_defaults(handler=_cmd_derive)

    chk = sub.add_parser(
        "check-trace", help="validate a trace file", formatter_class=fmt
    )
    chk.add_argument("--calculus", required=True)
    chk.add_argument("--trace", required=True)
    chk.add_argument("--claimed", required=True, help="formula text")
    chk.set_defaults(handler=_cmd_check_trace)

    for cmd in (enc, run, reach, red, der, chk):
        cmd.add_argument("--format", choices=("text", "json"), default="json")

    ver = sub.add_parser("verify", help="run the lemma suite", formatter_class=fmt)
    ver.add_argument("lemma", help="lemma id (lemma1, lemma3, lemma6, lemma7, lemma9, lemma11, lemma12) or 'all'")
    ver.add_argument("--hat", default="x")
    ver.add_argument("--alphabet", type=int, help="alphabet size for sweeps")
    ver.add_argument("--max-len", type=int, help="max word length for sweeps")
    ver.add_argument("--system", help="path to a tag file (default: built-in examples)")
    ver.add_argument("--input", help="input word")
    ver.add_argument("--p0", help="path to a calculus JSON")
    ver.add_argument("--budget", type=int, help="tag-run step budget (lemma7, lemma11); also the closure depth of lemma11's non-halting check")
    ver.add_argument("--depth", type=int, help="closure depth for structure checks")
    ver.add_argument("--output", help="directory for witness files")
    ver.set_defaults(handler=_cmd_verify)
    return parser


def _cmd_encode(args) -> int:
    hat = HatTemplate.from_text(args.hat)
    code = code_word(hat, args.word)
    _emit(
        {
            "word": code.word,
            "hat": hat.text,
            "members": [render_formula(f) for f in code.formulas],
        },
        args.format,
    )
    return 0


def _cmd_tag_run(args) -> int:
    system = _load_system(args.system)
    outcome = tag_run(system, args.input, args.max_steps)
    if isinstance(outcome, Halted):
        obj = {
            "outcome": "halted",
            "word": outcome.word,
            "steps": outcome.steps,
            "max_steps": args.max_steps,
        }
    else:
        obj = {
            "outcome": "budget-exhausted",
            "word": outcome.word,
            "max_steps": args.max_steps,
        }
    _emit(obj, args.format)
    return 0


def _cmd_tag_reach(args) -> int:
    system = _load_system(args.system)
    reached = tag_reaches(system, args.source, args.target, args.max_steps)
    _emit(
        {
            "from": args.source,
            "to": args.target,
            "max_steps": args.max_steps,
            "reached": reached,
        },
        args.format,
    )
    return 0


def _cmd_reduce(args) -> int:
    system = _load_system(args.system)
    p0 = load_calculus(args.p0) if args.p0 is not None else WEAKENING_CALCULUS
    bundle = build_reduction(system, p0, args.input)
    _emit(bundle_to_json(bundle), args.format)
    return 0


def _cmd_derive(args) -> int:
    calc = load_calculus(args.calculus)
    goal = parse_formula(args.goal)
    verdict = derives(calc, goal, args.depth)
    if isinstance(verdict, Derivable):
        trace_json = trace_to_json(verdict.trace)
        obj = {
            "verdict": "derivable",
            "goal": render_formula(goal),
            "depth": args.depth,
            "level": verdict.level,
            "generator": render_formula(verdict.generator),
            "trace": trace_json,
        }
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                _emit(trace_json, "json", fh)
    else:
        obj = {
            "verdict": "not-found-within-budget",
            "goal": render_formula(goal),
            "depth": args.depth,
        }
    _emit(obj, args.format)
    return 0


def _cmd_check_trace(args) -> int:
    calc = load_calculus(args.calculus)
    with open(args.trace, encoding="utf-8") as fh:
        trace = trace_from_json(json.load(fh))
    claimed = parse_formula(args.claimed)
    valid = check_trace(calc, trace, claimed)
    _emit({"claimed": render_formula(claimed), "valid": valid}, args.format)
    return 0 if valid else 1


def _report_to_json(report: LemmaReport) -> dict:
    return {
        "lemma": report.lemma,
        "instance": report.instance,
        "verdict": report.verdict,
        "witness": report.witness,
        "resources": report.resources,
    }


def _dump_artifacts(report: LemmaReport, directory: str, index: int) -> list[str]:
    written = []
    os.makedirs(directory, exist_ok=True)
    for k, (name, trace) in enumerate(report.artifacts):
        path = os.path.join(directory, f"{report.lemma}-{index}-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            _emit({"name": name, "trace": trace_to_json(trace)}, "json", fh)
        written.append(path)
    return written


def _cmd_verify(args) -> int:
    options: dict = {"hat": HatTemplate.from_text(args.hat)}
    if args.alphabet is not None:
        options["alphabet_size"] = args.alphabet
    if args.max_len is not None:
        options["max_len"] = args.max_len
    if args.system is not None:
        options["system"] = _load_system(args.system)
    if args.input is not None:
        options["input_word"] = args.input
    if args.p0 is not None:
        options["p0"] = load_calculus(args.p0)
    if args.budget is not None:
        options["budget"] = args.budget
    if args.depth is not None:
        options["depth"] = args.depth
    reports = run_lemma(args.lemma, options)
    # Witness files are all written before any report is printed, so a
    # witness that cannot be written leaves stdout empty.
    files: dict[int, list[str]] = {}
    if args.output:
        chars = sum(
            rendered_length(f)
            for report in reports
            for _, trace in report.artifacts
            for st in trace.steps
            for f in (st.result, *(st.unifier if isinstance(st, DetachStep) else st.substitution).values())
        )
        if chars > MAX_WITNESS_CHARS:
            raise ValueError(f"witness traces hold {chars} characters, over {MAX_WITNESS_CHARS}")
        files = {i: _dump_artifacts(r, args.output, i) for i, r in enumerate(reports) if r.artifacts}
    for i, report in enumerate(reports):
        obj = _report_to_json(report)
        if i in files:
            obj["witness_files"] = files[i]
        print(json.dumps(obj, sort_keys=False))
    return 1 if any(report.verdict == "fail" for report in reports) else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, TypeError, GeneratorCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # The term kernel is iterative, but two walks still recurse once per
        # nesting level: json.load on a deeply nested JSON file, and the
        # codec's _bracketings on a long word.
        print("error: input nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
