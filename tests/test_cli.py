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

import tagforge
from tagforge.cli import _emit, main
from tagforge.engine import load_calculus
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


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["tag"]) == 2
    assert main(["encode"]) == 2  # missing --word


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
    ],
    ids=[
        "lemma7-empty-input",
        "lemma9-empty-input",
        "lemma7-empty-system",
        "lemma11-empty-p0",
        "lemma7-negative-budget",
        "lemma11-negative-budget",
        "lemma11-input-outside-alphabet",
    ],
)
def test_verify_bad_option_exit_1(capsys, argv):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_lemma6_budget_checked_before_any_chain(capsys):
    # 26 letters up to length 6 make about 5.5e11 chains; the sweep ran past
    # 20 s before its count was checked first.
    start = time.perf_counter()
    code, report = run_json(capsys, ["verify", "lemma6", "--alphabet", "26", "--max-len", "6"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["verdict"] == "inconclusive-budget"
    assert report["witness"] == {"reason": "547267673966 chains exceeds budget 10000"}


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
    assert report["witness"] == {"reason": "2692901989011 pairs exceeds budget 2000000"}


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
