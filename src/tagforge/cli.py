"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad input data, failed check),
2 usage error.  All JSON output is deterministic for identical invocations.

Commands and options are rows of one table, `COMMANDS`, so adding an option
is one row.  Well-formed argv is read straight from the table; `-h` and every
usage error come from argparse, built from the same rows only then, since its
import and first message lookup cost more than a small job's work.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
from .lemmas import LEMMA_OPTIONS, WEAKENING_CALCULUS, LemmaReport, run_lemma, unread_options
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
    given = {k: v for k, v in vars(args).items() if k in args.flags and v is not None}
    # An unread option is a usage error, found before any file is opened.
    unread = unread_options(args.lemma, given)
    if unread:
        print(f"error: {args.lemma} does not read {', '.join(args.flags[k] for k in unread)}", file=sys.stderr)
        return 2
    load = {"hat": HatTemplate.from_text, "system": _load_system, "p0": load_calculus}
    options = {k: load[k](v) if k in load else v for k, v in given.items()}
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
        obj = {k: getattr(report, k) for k in ("lemma", "instance", "verdict", "witness", "resources")}
        if i in files:
            obj["witness_files"] = files[i]
        print(json.dumps(obj, sort_keys=False))
    return 1 if any(report.verdict == "fail" for report in reports) else 0


class Option(NamedTuple):
    """One argument of a command, as argparse's `add_argument` takes it.  A
    flag that does not start with `-` names a positional argument."""

    flag: str
    dest: str
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    choices: tuple | None = None
    metavar: str | None = None
    help: str | None = None


class Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    help: str
    options: tuple[Option, ...]
    show_defaults: bool = True  # `-h` appends each option's default to its help
    flags: dict[str, str] | None = None  # verify's option dest -> flag, for its messages

    def defaults(self) -> dict:
        """What the command's namespace holds after its options."""
        return {"handler": self.handler, **({} if self.flags is None else {"flags": self.flags})}


_FORMAT = Option("--format", "format", default="json", choices=("text", "json"))
# Each option's `dest` is its key in lemmas.LEMMA_OPTIONS, whose defaults
# are the only ones.
_LEMMA_OPTIONS = (
    Option("--hat", "hat", help="one-variable template"),
    Option("--alphabet", "alphabet_size", int, metavar="ALPHABET", help="alphabet size for sweeps"),
    Option("--max-len", "max_len", int, help="max word length for sweeps"),
    Option("--system", "system", help="path to a tag file (default: built-in examples)"),
    Option("--input", "input_word", metavar="INPUT", help="input word"),
    Option("--p0", "p0", help="path to a calculus JSON"),
    Option("--budget", "budget", int, help="tag-run step budget (lemma7, lemma11); also the closure depth of lemma11's non-halting check"),
    Option("--depth", "depth", int, help="closure depth for structure checks"),
)

# Command path -> command, in the order `-h` lists them.  The first word of
# a two-word path is a group, with its help in _GROUP_HELP.
COMMANDS: dict[tuple[str, ...], Command] = {
    ("encode",): Command(_cmd_encode, "encode a word as its bracketing set", (
        Option("--word", "word", required=True),
        Option("--hat", "hat", default="x", help="one-variable template"),
        _FORMAT,
    )),
    ("tag", "run"): Command(_cmd_tag_run, "run a tag system on a word", (
        Option("--system", "system", required=True, help="path to a tag file"),
        Option("--input", "input", required=True),
        Option("--max-steps", "max_steps", int, DEFAULT_MAX_STEPS),
        _FORMAT,
    )),
    ("tag", "reach"): Command(_cmd_tag_reach, "does the run pass through a word?", (
        Option("--system", "system", required=True),
        Option("--from", "source", required=True),
        Option("--to", "target", required=True),
        Option("--max-steps", "max_steps", int, DEFAULT_MAX_STEPS),
        _FORMAT,
    )),
    ("reduce",): Command(_cmd_reduce, "build the reduction bundle", (
        Option("--system", "system", required=True),
        Option("--input", "input", required=True),
        Option("--p0", "p0", help="path to a calculus JSON (default: weakening axiom)"),
        _FORMAT,
    ), show_defaults=False),  # --p0's help states its real default
    ("derive",): Command(_cmd_derive, "bounded derivability query", (
        Option("--calculus", "calculus", required=True, help="path to a calculus JSON"),
        Option("--goal", "goal", required=True, help="formula text"),
        Option("--depth", "depth", int, DEFAULT_DEPTH),
        Option("--trace-out", "trace_out", help="write the trace JSON here when derivable"),
        _FORMAT,
    )),
    ("check-trace",): Command(_cmd_check_trace, "validate a trace file", (
        Option("--calculus", "calculus", required=True),
        Option("--trace", "trace", required=True),
        Option("--claimed", "claimed", required=True, help="formula text"),
        _FORMAT,
    )),
    ("verify",): Command(_cmd_verify, "run the lemma suite", (
        Option("lemma", "lemma", choices=(*LEMMA_OPTIONS, "all"), help="lemma id"),
        *_LEMMA_OPTIONS,
        Option("--output", "output", help="directory for witness files"),
    ), show_defaults=False, flags={o.dest: o.flag for o in _LEMMA_OPTIONS}),
}
_GROUP_HELP = {"tag": "tag system operations"}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What `_build_parser().parse_args(argv)` returns, key order included,
    when argv is a command path, its positional values, then `--flag value`
    pairs, each flag a full flag of the command given once, no value starting
    with `-`, each value of its flag's type and among its choices, and each
    required flag given; otherwise None.  Never prints or raises: argparse
    judges what this declines, `-h` and every usage error included."""
    path = tuple(argv[:2]) if tuple(argv[:2]) in COMMANDS else tuple(argv[:1])
    command = COMMANDS.get(path)
    if command is None:
        return None
    rest = argv[len(path):]
    names = [o.flag for o in command.options if not o.flag.startswith("-")]
    pairs = rest[len(names):]
    given = dict(zip(names, rest))
    given.update(zip(pairs[::2], pairs[1::2]))
    options = {o.flag: o for o in command.options}
    if (
        len(rest) < len(names)
        or len(pairs) % 2
        or len(given) != len(names) + len(pairs) // 2  # a flag given twice
        or not given.keys() <= options.keys()
        or any(value.startswith("-") for value in given.values())
    ):
        return None
    namespace = dict(zip(("command", f"{path[0]}_command"), path))
    for o in command.options:
        if o.flag in given:
            try:
                value = given[o.flag] if o.type is None else o.type(given[o.flag])
            except ValueError:
                return None
            if o.choices is not None and value not in o.choices:
                return None
        elif o.required:
            return None
        else:
            value = o.default
        namespace[o.dest] = value
    return SimpleNamespace(**namespace, **command.defaults())


def _build_parser():
    """The argparse parser of COMMANDS, for `-h` and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Implicational calculi, tag systems, and the halting reduction.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, command in COMMANDS.items():
        group = path[:-1]
        if group not in groups:
            group_parser = groups[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            groups[group] = group_parser.add_subparsers(dest=f"{group[0]}_command", required=True)
        formatter = argparse.ArgumentDefaultsHelpFormatter if command.show_defaults else argparse.HelpFormatter
        sub = groups[group].add_parser(path[-1], help=command.help, formatter_class=formatter)
        for o in command.options:
            kwargs = {k: v for k, v in zip(o._fields[1:], o[1:]) if v is not None and v is not False}
            if not o.flag.startswith("-"):
                del kwargs["dest"]  # a positional's dest is its name
            sub.add_argument(o.flag, **kwargs)
        sub.set_defaults(**command.defaults())
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
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
