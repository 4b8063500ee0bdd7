"""CLI tests: subcommand behaviour, exit codes, output determinism."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagforge
from tagforge import cli, lemmas
from tagforge.cli import COMMANDS, _build_parser, _emit, _read_argv, main
from tagforge.engine import load_calculus
from tagforge.lemmas import LEMMA_OPTIONS
from tagforge.reduction import build_reduction, bundle_to_json
from tagforge.tags import parse_tag_system

COLLATZ = "d=2\na -> bc\nb -> a\nc -> aaa\n"
K_JSON = {"label": "weakening", "axioms": ["x -> y -> x"]}


@pytest.fixture
def tagfile(tmp_path):
    path = tmp_path / "collatz.tag"
    path.write_text(COLLATZ)
    return str(path)


@pytest.fixture
def calcfile(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(K_JSON))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_encode(capsys):
    code, obj = run_json(capsys, ["encode", "--word", "ace", "--hat", "x"])
    assert code == 0
    assert obj["word"] == "ace"
    assert obj["hat"] == "x"
    assert len(obj["members"]) == 2


def test_encode_deterministic(capsys):
    main(["encode", "--word", "acec"])
    first = capsys.readouterr().out
    main(["encode", "--word", "acec"])
    second = capsys.readouterr().out
    assert first == second


def test_tag_run(capsys, tagfile):
    code, obj = run_json(
        capsys,
        ["tag", "run", "--system", tagfile, "--input", "aaa", "--max-steps", "50"],
    )
    assert code == 0
    assert obj == {"outcome": "halted", "word": "a", "steps": 24, "max_steps": 50}


def test_tag_run_budget(capsys, tagfile):
    code, obj = run_json(
        capsys,
        ["tag", "run", "--system", tagfile, "--input", "aaa", "--max-steps", "3"],
    )
    assert code == 0
    assert obj["outcome"] == "budget-exhausted"


def test_tag_reach(capsys, tagfile):
    code, obj = run_json(
        capsys,
        [
            "tag",
            "reach",
            "--system",
            tagfile,
            "--from",
            "aaa",
            "--to",
            "abc",
            "--max-steps",
            "1",
        ],
    )
    assert code == 0
    assert obj["reached"] is True


def test_reduce(capsys, tagfile, calcfile):
    code, obj = run_json(
        capsys,
        ["reduce", "--system", tagfile, "--input", "aa", "--p0", calcfile],
    )
    assert code == 0
    assert {k: len(obj[k]) for k in ("T1", "T2", "R", "H", "input")} == {
        "T1": 12,
        "T2": 12,
        "R": 4,
        "H": 3,
        "input": 1,
    }
    assert obj["tag_file"] == COLLATZ
    assert obj["p0"] == K_JSON


def test_json_output_is_streamed(calcfile, tmp_path):
    """JSON output is written piece by piece: writing a reduction bundle
    allocates less than the size of its text, where joining the text first
    allocates twice that."""
    bundle = build_reduction(parse_tag_system(COLLATZ), load_calculus(calcfile), "aa")
    obj = bundle_to_json(bundle)
    path = tmp_path / "bundle.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            _emit(obj, "json", out=fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(obj, indent=2) + "\n"
    assert peak < len(text)


def test_derive_and_check_trace(capsys, calcfile, tmp_path):
    trace_path = str(tmp_path / "trace.json")
    code, obj = run_json(
        capsys,
        [
            "derive",
            "--calculus",
            calcfile,
            "--goal",
            "p -> p -> p",
            "--depth",
            "2",
            "--trace-out",
            trace_path,
        ],
    )
    assert code == 0
    assert obj["verdict"] == "derivable"
    code = main(
        [
            "check-trace",
            "--calculus",
            calcfile,
            "--trace",
            trace_path,
            "--claimed",
            "p -> p -> p",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    # a different claim makes the same trace invalid, exit 1
    code = main(
        [
            "check-trace",
            "--calculus",
            calcfile,
            "--trace",
            trace_path,
            "--claimed",
            "x -> x",
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


def test_derive_not_found(capsys, calcfile):
    code, obj = run_json(
        capsys,
        ["derive", "--calculus", calcfile, "--goal", "x -> x", "--depth", "3"],
    )
    assert code == 0
    assert obj["verdict"] == "not-found-within-budget"


def test_derive_stops_when_the_closure_stops_growing(tmp_path):
    # Level 1 of {x -> x} adds nothing, so every later level is the same
    # set: a miss at any depth answers at once.  Stepping the levels to the
    # depth took 24.6 s at depth 10**7.
    calc = tmp_path / "i.json"
    calc.write_text(json.dumps({"label": "i", "axioms": ["x -> x"]}))
    src = str(Path(tagforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = {}
    for depth in ("3", str(10**12)):
        proc = subprocess.run(
            [sys.executable, "-m", "tagforge.cli", "derive", "--calculus", str(calc),
             "--goal", "a -> b", "--depth", depth],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outs[depth] = proc.stdout
    assert json.loads(outs[str(10**12)])["depth"] == 10**12
    assert outs[str(10**12)].replace(str(10**12), "3") == outs["3"]
    assert json.loads(outs["3"]) == {
        "verdict": "not-found-within-budget", "goal": "a -> b", "depth": 3
    }


def test_verify_lemma1(capsys):
    code = main(["verify", "lemma1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 3
    assert all(json.loads(line)["verdict"] == "pass" for line in lines)


def test_verify_lemma3_flags(capsys):
    code = main(["verify", "lemma3", "--alphabet", "2", "--max-len", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["resources"]["formulas"] == 6


def test_verify_lemma11_reads_input_without_system(capsys):
    # Without --system the built-in systems run on --input, whose default is aa.
    assert main(["verify", "lemma11", "--input", "aa"]) == 0
    given = capsys.readouterr().out
    assert main(["verify", "lemma11"]) == 0
    assert given == capsys.readouterr().out
    assert main(["verify", "lemma11", "--input", "aaa"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["instance"].split()[1] for r in reports] == ["input='aaa'"] * 2


def test_verify_lemma11_writes_witnesses(capsys, tmp_path):
    outdir = str(tmp_path / "wit")
    code = main(["verify", "lemma11", "--budget", "4", "--output", outdir])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [r["verdict"] for r in lines] == ["pass", "inconclusive-budget"]
    files = lines[0]["witness_files"]
    assert files
    with open(files[0], encoding="utf-8") as fh:
        payload = json.load(fh)
    assert "trace" in payload


@pytest.mark.parametrize(
    "direction, system, cap",
    [("non-halting", "d=2\na -> aa\n", "5"), ("halting", "d=2\na -> b\nb -> b\n", "12")],
    ids=["non-halting", "halting"],
)
def test_verify_lemma11_cap_overflow_exits_0(
    capsys, tmp_path, monkeypatch, direction, system, cap
):
    path = tmp_path / "g.tag"
    path.write_text(system)
    monkeypatch.setenv("TAGFORGE_GENERATOR_CAP", cap)
    argv = ["verify", "lemma11", "--system", str(path), "--input", "aa", "--budget", "4"]
    code, obj = run_json(capsys, argv)
    assert code == 0
    assert obj["witness"]["direction"] == direction
    if direction == "halting":
        # A halting run is followed, not searched for, so no closure meets
        # the cap.
        assert obj["verdict"] == "pass"
        return
    assert obj["verdict"] == "inconclusive-budget"
    assert obj["witness"]["reason"].startswith("generator cap exceeded at level 0:")


def test_verify_lemma11_collatz_halting_run_passes_fast(capsys, tagfile):
    # The run halts in 24 steps; a closure search to depth 30 took a minute
    # and still reported inconclusive-budget.
    argv = ["verify", "lemma11", "--system", tagfile, "--input", "aaa", "--budget", "24"]
    start = time.perf_counter()
    code, obj = run_json(capsys, argv)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert obj["verdict"] == "pass"
    assert obj["witness"] == {"direction": "halting", "axioms": 1, "halt_steps": 24}


def test_verify_lemma11_oversized_witness_writes_nothing(capsys, tagfile, tmp_path):
    # The 551-step trace is a small DAG, but its formula text is 858 MB.
    outdir = tmp_path / "wit"
    argv = ["verify", "lemma11", "--system", tagfile, "--input", "aaa", "--budget", "24"]
    code = main(argv + ["--output", str(outdir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error:") and "858524601" in errors[0]
    assert not outdir.exists()


def test_verify_output_onto_a_file_prints_nothing(capsys, tmp_path):
    # Every witness file is written before the first report line, so a
    # witness directory that cannot be made leaves stdout empty.
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code = main(["verify", "all", "--output", str(taken)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_verify_lemma9_cap_overflow_exits_0(capsys, monkeypatch):
    monkeypatch.setenv("TAGFORGE_GENERATOR_CAP", "5")
    code, obj = run_json(capsys, ["verify", "lemma9"])
    assert code == 0
    assert obj["verdict"] == "inconclusive-budget"
    # 28 production axioms and the 2 code members of the input "aaa"
    assert obj["witness"] == {
        "reason": "generator cap exceeded at level 0: 30 generators, cap 5"
    }


@pytest.mark.parametrize("cap", ["abc", "1e3", "0", "-1"])
def test_bad_generator_cap_exit_1(capsys, monkeypatch, calcfile, cap):
    # int() read "abc" with a message that did not name the variable, and
    # took 0 and -1, so the closure failed at level 0 with "cap -1".
    monkeypatch.setenv("TAGFORGE_GENERATOR_CAP", cap)
    argv = ["derive", "--calculus", calcfile, "--goal", "x -> y -> x", "--depth", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: TAGFORGE_GENERATOR_CAP must be a positive integer, not {cap!r}\n"
    )


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["tag"]) == 2
    assert main(["encode"]) == 2  # missing --word


def reference_parser():
    """The argparse tree as it was built before the option table, kept to
    pin `-h` and usage-error output.  An option's help states its default
    only when it has help and a default other than None."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Implicational calculi, tag systems, and the halting reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a word as its bracketing set")
    enc.add_argument("--word", required=True)
    enc.add_argument("--hat", default="x", help="one-variable template (default: x)")
    enc.set_defaults(handler=cli._cmd_encode)

    tag = sub.add_parser("tag", help="tag system operations")
    tag_sub = tag.add_subparsers(dest="tag_command", required=True)
    run = tag_sub.add_parser("run", help="run a tag system on a word")
    run.add_argument("--system", required=True, help="path to a tag file")
    run.add_argument("--input", required=True)
    run.add_argument("--max-steps", type=int, default=cli.DEFAULT_MAX_STEPS)
    run.set_defaults(handler=cli._cmd_tag_run)
    reach = tag_sub.add_parser("reach", help="does the run pass through a word?")
    reach.add_argument("--system", required=True)
    reach.add_argument("--from", dest="source", required=True)
    reach.add_argument("--to", dest="target", required=True)
    reach.add_argument("--max-steps", type=int, default=cli.DEFAULT_MAX_STEPS)
    reach.set_defaults(handler=cli._cmd_tag_reach)

    red = sub.add_parser("reduce", help="build the reduction bundle")
    red.add_argument("--system", required=True)
    red.add_argument("--input", required=True)
    red.add_argument("--p0", help="path to a calculus JSON (default: weakening axiom)")
    red.set_defaults(handler=cli._cmd_reduce)

    der = sub.add_parser("derive", help="bounded derivability query")
    der.add_argument("--calculus", required=True, help="path to a calculus JSON")
    der.add_argument("--goal", required=True, help="formula text")
    der.add_argument("--depth", type=int, default=cli.DEFAULT_DEPTH)
    der.add_argument("--trace-out", help="write the trace JSON here when derivable")
    der.set_defaults(handler=cli._cmd_derive)

    chk = sub.add_parser("check-trace", help="validate a trace file")
    chk.add_argument("--calculus", required=True)
    chk.add_argument("--trace", required=True)
    chk.add_argument("--claimed", required=True, help="formula text")
    chk.set_defaults(handler=cli._cmd_check_trace)

    for cmd in (enc, run, reach, red, der, chk):
        cmd.add_argument("--format", choices=("text", "json"), default="json")

    ver = sub.add_parser("verify", help="run the lemma suite")
    ver.add_argument("lemma", choices=[*LEMMA_OPTIONS, "all"], help="lemma id")
    options = [
        ver.add_argument("--hat", help="one-variable template"),
        ver.add_argument("--alphabet", dest="alphabet_size", metavar="ALPHABET", type=int, help="alphabet size for sweeps"),
        ver.add_argument("--max-len", type=int, help="max word length for sweeps"),
        ver.add_argument("--system", help="path to a tag file (default: built-in examples)"),
        ver.add_argument("--input", dest="input_word", metavar="INPUT", help="input word"),
        ver.add_argument("--p0", help="path to a calculus JSON"),
        ver.add_argument("--budget", type=int, help="tag-run step budget (lemma7, lemma11); also the closure depth of lemma11's non-halting check"),
        ver.add_argument("--depth", type=int, help="closure depth for structure checks"),
    ]
    ver.add_argument("--output", help="directory for witness files")
    ver.set_defaults(handler=cli._cmd_verify, flags={a.dest: a.option_strings[0] for a in options})
    return parser


HELP_ARGV = [
    ["-h"], ["encode", "-h"], ["tag", "-h"], ["tag", "run", "-h"], ["tag", "reach", "-h"],
    ["reduce", "-h"], ["derive", "-h"], ["check-trace", "-h"], ["verify", "-h"],
]
USAGE_ERROR_ARGV = [
    [],
    ["tag"],
    ["encode"],
    ["frobnicate"],
    ["tag", "walk"],
    ["tag", "run", "--system", "c.tag"],
    ["reduce", "--system"],
    ["derive", "--calculus", "k.json", "--goal", "p -> p", "--depth", "x"],
    ["derive", "--dep", "3"],
    ["check-trace", "--calculus", "k.json", "--trace", "t.json"],
    ["encode", "--word", "ace", "--bogus"],
    ["encode", "--word", "ace", "--format", "yaml"],
    ["verify"],
    ["verify", "lemma99"],
    ["verify", "lemma3", "--alphabet", "two"],
]


@pytest.mark.parametrize("argv", HELP_ARGV + USAGE_ERROR_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_match_reference(capsys, monkeypatch, argv):
    # Compared in the same interpreter: argparse's wording differs between
    # Python versions.
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    got = (code, *capsys.readouterr())
    with pytest.raises(SystemExit) as exit_:
        reference_parser().parse_args(argv)
    assert got == (int(exit_.value.code or 0), *capsys.readouterr())
    assert code == (0 if "-h" in argv else 2)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # The installed `tagforge` script calls main() with no argv.
    assert main(["verify", "lemma1"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["tagforge", "verify", "lemma1"])
    assert main() == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["tagforge", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: tagforge ")


_PATH_WORDS = ["encode", "tag", "run", "reach", "reduce", "derive", "check-trace", "verify"]
_FLAGS = sorted({o.flag for c in COMMANDS.values() for o in c.options if o.flag.startswith("-")})
_OTHER = ["--dep", "--depth=3", "-h", "--help", "--"]
_VALUES = ["3", "0", "+2", "-1", " 3", "1_0", "", "text", "json", "yaml", "lemma3", "lemma99", "all", "p -> p", *_OTHER]
_TOKENS = [*_PATH_WORDS, *_FLAGS, *_VALUES]


@st.composite
def _argvs(draw):
    """A command path, its positional values, its required flags and some
    others, mostly once, in any order, with values; then up to two tokens
    removed or inserted anywhere."""
    path = draw(st.sampled_from(list(COMMANDS)))
    argv = list(path)
    for o in draw(st.permutations(COMMANDS[path].options)):
        values = st.sampled_from(_VALUES) if o.choices is None else st.sampled_from(o.choices) | st.sampled_from(_VALUES)
        if not o.flag.startswith("-"):
            argv.insert(len(path), draw(values))
            continue
        for _ in range(max(o.required, draw(st.sampled_from((0, 1, 1, 2))))):
            argv += [o.flag, draw(values)]
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from([None, *_TOKENS]))
        if token is not None:
            argv.insert(position, token)
        elif argv:
            del argv[position - 1]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_read_argv_agrees_with_argparse(argv):
    read = _read_argv(argv)
    if read is not None:
        try:
            parsed = _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv!r}, which the table reader read")
        assert list(vars(read).items()) == list(vars(parsed).items())


def test_read_argv_reads_every_golden_case():
    from test_cli_golden import CASES

    assert [case_id for case_id, argv, _, _ in CASES if _read_argv(argv) is None] == []


def test_golden_cases_load_no_argparse(tmp_path):
    # The benchmark times argv of these forms; argparse, and the gettext and
    # locale imports of its first message lookup, cost more than small jobs,
    # as do dataclasses and the inspect module it loads.  The child runs
    # without `site`, so no .pth file can load these modules first or hide a
    # load.
    from test_cli_golden import CASES, write_corpus

    subst = write_corpus(tmp_path)
    argvs = [[subst.get(arg, arg) for arg in argv] for _, argv, _, _ in CASES]
    script = (
        "import contextlib, io, json, sys\n"
        "from tagforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [m for m in ('argparse', 'gettext', 'locale', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = str(Path(tagforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[code for _, _, code, _ in CASES], []]


def test_domain_error_exit_1(capsys, tmp_path):
    assert main(["derive", "--calculus", "/does/not/exist.json", "--goal", "x"]) == 1
    bad = tmp_path / "bad.tag"
    bad.write_text("d=2\na -> \n")
    assert main(["tag", "run", "--system", str(bad), "--input", "a"]) == 1
    assert main(["encode", "--word", ""]) == 1
    good = tmp_path / "good.tag"
    good.write_text(COLLATZ)
    assert main(["reduce", "--system", str(good), "--input", "aa", "--p0", ""]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma6", "--max-len", "0"],
        ["lemma6", "--alphabet", "0"],
        ["lemma6", "--alphabet", "27", "--max-len", "1"],
        ["lemma3", "--alphabet", "27", "--max-len", "1"],
    ],
    ids=["lemma6-no-length", "lemma6-no-letters", "lemma6-27-letters", "lemma3-27-letters"],
)
def test_verify_sweep_bounds_exit_1(capsys, argv):
    # a sweep with no words, or with letters past z, checks nothing: it is
    # an error, not a pass
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# An empty or unread option is an error, not the default instance: each of
# these printed `pass` for a built-in input, system or target calculus.
@pytest.mark.parametrize(
    "argv",
    [
        ["lemma7", "--input", ""],
        ["lemma9", "--input", ""],
        ["lemma7", "--system", ""],
        ["lemma11", "--p0", ""],
        ["lemma7", "--budget", "-1"],
        ["lemma11", "--budget", "-1"],
        ["lemma11", "--input", "abc"],
        ["lemma9", "--input", "xyz", "--depth", "0"],
        ["lemma9", "--input", "xyz", "--depth", "2"],
    ],
    ids=[
        "lemma7-empty-input",
        "lemma9-empty-input",
        "lemma7-empty-system",
        "lemma11-empty-p0",
        "lemma7-negative-budget",
        "lemma11-negative-budget",
        "lemma11-input-outside-alphabet",
        "lemma9-input-outside-alphabet-depth-0",
        "lemma9-input-outside-alphabet-depth-2",
    ],
)
def test_verify_bad_option_exit_1(capsys, argv):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["all", "--budget", "-1"], "error: budget must be nonnegative\n"),
        (["lemma7", "--budget", "-1"], "error: budget must be nonnegative\n"),
        (["lemma9", "--depth", "-1"], "error: depth must be nonnegative\n"),
        (["all", "--depth", "-1"], "error: depth must be nonnegative\n"),
    ],
    ids=["all-budget", "lemma7-budget", "lemma9-depth", "all-depth"],
)
def test_verify_negative_budget_or_depth_runs_no_lemma(capsys, monkeypatch, argv, err):
    # `verify all --budget -1` ran lemma1 to lemma6 before lemma7 failed
    # with "max_steps must be nonnegative", a flag verify does not have.
    def ran(*args):
        raise AssertionError("a lemma ran")

    for name in ("check_lemma1", "check_lemma3", "_sweep_lemma6", "check_run_chain",
                 "check_production", "check_halting_equivalence", "check_inclusion"):
        monkeypatch.setattr(lemmas, name, ran)
    assert main(["verify", *argv]) == 1
    assert capsys.readouterr() == ("", err)


def test_verify_lemma6_budget_checked_before_any_chain(capsys):
    # 26 letters up to length 6 make about 5.5e11 chains; the sweep ran past
    # 20 s before its count was checked first.
    start = time.perf_counter()
    code, report = run_json(capsys, ["verify", "lemma6", "--alphabet", "26", "--max-len", "6"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["verdict"] == "inconclusive-budget"
    assert report["witness"] == {"reason": "71006 chains up to length 3 exceeds budget 10000"}


def test_verify_lemma3_budget_checked_before_enumeration():
    # 26 letters up to length 4 make about 2.4 M code members: building
    # them would exhaust the child's 1 GiB and take about a minute.
    src = str(Path(tagforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", "verify", "lemma3", "--alphabet", "26"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=_limit_address_space,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["verdict"] == "inconclusive-budget"
    assert report["witness"] == {"reason": "642736731 pairs up to length 3 exceeds budget 2000000"}


# Each verify option's key in LEMMA_OPTIONS, with a valid value for it.
VERIFY_OPTIONS = {
    "--hat": ("hat", "x -> x"),
    "--alphabet": ("alphabet_size", "2"),
    "--max-len": ("max_len", "2"),
    "--system": ("system", "{tag}"),
    "--input": ("input_word", "aa"),
    "--p0": ("p0", "{calc}"),
    "--budget": ("budget", "3"),
    "--depth": ("depth", "1"),
}
UNREAD_PAIRS = [
    (lemma, flag)
    for lemma, defaults in LEMMA_OPTIONS.items()
    for flag, (key, _) in VERIFY_OPTIONS.items()
    if key not in defaults
]


def test_verify_options_are_the_table_keys():
    read = {key for defaults in LEMMA_OPTIONS.values() for key in defaults}
    assert read == {key for key, _ in VERIFY_OPTIONS.values()}
    assert len(UNREAD_PAIRS) == 35


@pytest.mark.parametrize(
    "lemma, flag", UNREAD_PAIRS, ids=[f"{lemma}{flag}" for lemma, flag in UNREAD_PAIRS]
)
def test_verify_unread_option_exit_2(capsys, tagfile, calcfile, lemma, flag):
    # Each of these used to run the default instance as if the flag were not given.
    value = VERIFY_OPTIONS[flag][1].format(tag=tagfile, calc=calcfile)
    assert main(["verify", lemma, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {lemma} does not read {flag}\n"


def test_verify_unread_option_opens_no_file(capsys):
    # lemma3 reads no tag system, so the path is rejected before it is opened.
    assert main(["verify", "lemma3", "--system", "/does/not/exist"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lemma3 does not read --system\n"


def test_verify_unknown_lemma_exit_2(capsys):
    assert main(["verify", "lemma99"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_all_passes_an_option_to_the_lemmas_that_read_it(capsys):
    assert main(["verify", "all", "--alphabet", "2"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["lemma"] for r in reports] == [
        "lemma1", "lemma1", "lemma1", "lemma3", "lemma6", "lemma7", "lemma9",
        "lemma11", "lemma11", "lemma12",
    ]
    assert reports[3]["instance"] == "hat=x alphabet=2 max_len=4"
    assert reports[4]["instance"] == "hat=x alphabet=2 max_len=4"


@pytest.mark.parametrize("lemma", ["lemma3", "lemma6"])
def test_verify_sweep_count_stops_at_the_budget(capsys, lemma):
    # The full count at 20,000 letters has tens of thousands of digits: lemma 3
    # was still summing it after 120 s.
    start = time.perf_counter()
    code, report = run_json(capsys, ["verify", lemma, "--max-len", "20000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["verdict"] == "inconclusive-budget"


def test_text_format(capsys, tagfile):
    code = main(
        ["tag", "run", "--system", tagfile, "--input", "aaa", "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: halted" in out


@pytest.mark.parametrize(
    "goal,text",
    [
        ("(" * 600 + "p" + ")" * 600, "p"),
        (" -> ".join(["a"] * 3000), " -> ".join(["a"] * 3000)),
    ],
    ids=["600-parentheses", "3000-links"],
)
def test_deep_goal_is_not_a_traceback(capsys, calcfile, goal, text):
    code = main(["derive", "--calculus", calcfile, "--goal", goal])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    obj = json.loads(captured.out)
    assert obj["verdict"] == "not-found-within-budget"
    assert obj["goal"] == text


def test_deep_axiom_is_not_a_traceback(capsys, tmp_path):
    # canonical_rename substitutes into the 1,501-link axiom, which needs an
    # iterative apply_substitution.
    deep = tmp_path / "deep.json"
    axiom = " -> ".join(["x"] * 1501 + ["y"])
    deep.write_text(json.dumps({"label": "deep", "axioms": [axiom]}))
    code = main(["derive", "--depth", "0", "--calculus", str(deep), "--goal", "x"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["verdict"] == "not-found-within-budget"


@pytest.fixture(params=["nested-json-trace", "long-encode-word"])
def too_deep_argv(request, calcfile, tmp_path):
    if request.param == "nested-json-trace":
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        return ["check-trace", "--calculus", calcfile, "--trace", str(nested), "--claimed", "x"]
    # _bracketings recurses once per letter
    return ["encode", "--word", "a" * 1100]


def test_too_deep_input_is_an_error_not_a_traceback(capsys, too_deep_argv):
    assert main(too_deep_argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "option,payload,field",
    [
        ("--trace", {"steps": [{"kind": "axiom"}]}, "step 0: missing field 'axiom'"),
        (
            "--trace",
            {"steps": [{"kind": "axiom", "axiom": "0", "substitution": {}, "result": "x"}]},
            "step 0: field 'axiom' must be an integer",
        ),
        ("--trace", {"steps": ["axiom"]}, "trace step 0 must be an object"),
        ("--trace", [{"kind": "axiom"}], "trace must be an object"),
        ("--calculus", {"axioms": ["x"]}, "calculus: missing field 'label'"),
        ("--calculus", ["x -> y -> x"], "calculus must be an object"),
    ],
    ids=["missing-field", "string-index", "step-not-object", "trace-not-object",
         "calculus-no-label", "calculus-not-object"],
)
def test_malformed_json_names_the_field(capsys, calcfile, tmp_path, option, payload, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    files = {"--calculus": calcfile, "--trace": calcfile, option: str(bad)}
    argv = ["check-trace", "--claimed", "x"]
    for flag, path in files.items():
        argv += [flag, path]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
