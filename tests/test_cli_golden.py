"""Differential golden test: CLI output on a fixed corpus is byte-identical
to the output recorded before the term kernel was hash-consed.

Each case runs `main(argv)` in-process and compares the exit code and the
sha256 of stdout (and of the trace file, for `derive --trace-out`) with
digests recorded at that commit.  The corpus covers every subcommand and
every lemma id at small sizes.  `--output` is left out of it because its
stdout names temporary paths; one lemma 11 run pins the bytes of the
witness files it writes instead.  A few cases also run in fresh interpreters under
two hash seeds, since formula hashes are object ids.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagforge
from tagforge.cli import main

FILES = {
    "collatz.tag": "d=2\na -> bc\nb -> a\nc -> aaa\n",
    "shrink.tag": "d=2\na -> b\nb -> b\n",
    "k.json": json.dumps({"label": "weakening", "axioms": ["x -> y -> x"]}),
    "ki.json": json.dumps({"label": "k+i", "axioms": ["x -> y -> x", "y -> x -> x"]}),
    "ks.json": json.dumps(
        {
            "label": "ks",
            "axioms": ["x -> y -> x", "(x -> y -> z) -> (x -> y) -> x -> z"],
        }
    ),
}

# (case id, argv, exit code, sha256 of stdout).  "{name}" in an argument is
# the path of that corpus file; "{trace}" is the trace file that the
# preceding `derive --trace-out` case wrote.
CASES = [
    ("encode", ["encode", "--word", "ace"], 0,
     "b55d6d75716cca0f0d11c10cb80648a56ead0f94c3ee8e60f9d02e925e00c3ed"),
    ("encode-text", ["encode", "--word", "abca", "--hat", "x -> x", "--format", "text"], 0,
     "7287e7f8f307e9f725eae9133517a1fbfae85e85b2201c0cc0c6be527ea6bfe5"),
    ("tag-run", ["tag", "run", "--system", "{collatz.tag}", "--input", "aaa", "--max-steps", "50"], 0,
     "665f06c5117c52f7c65614389968ceb18cf4e40a30ac419e3bfc7791fda38e94"),
    ("tag-run-budget", ["tag", "run", "--system", "{collatz.tag}", "--input", "aaa", "--max-steps", "5", "--format", "text"], 0,
     "f9b8563b377305f713f3abd377c859b70c738c105782fdc9969b00c48a3a88f5"),
    ("tag-reach", ["tag", "reach", "--system", "{collatz.tag}", "--from", "aaa", "--to", "abc", "--max-steps", "1"], 0,
     "4ec498c144e1ba874c1fb44b97f6b0ce020b51a7bbf982f0e9ea35927d709d8b"),
    ("reduce", ["reduce", "--system", "{collatz.tag}", "--input", "aa"], 0,
     "55178c2bda61595096a580951cef42a00a495f8d9690e4f0e7011a0fb56ad3dc"),
    ("reduce-p0-text", ["reduce", "--system", "{shrink.tag}", "--input", "aab", "--p0", "{ks.json}", "--format", "text"], 0,
     "74f6f5c8752376f4d86d6ff8e33cd1e8908f626e55b839f362ebfdfeafe4e77c"),
    ("derive-k", ["derive", "--calculus", "{k.json}", "--goal", "p -> q -> r -> q", "--depth", "3", "--trace-out", "{trace}"], 0,
     "aed5afb6363852ad0152172223b822e5cf772c86f44755e7671486de67b2f066"),
    ("check-trace", ["check-trace", "--calculus", "{k.json}", "--trace", "{trace}", "--claimed", "p -> q -> r -> q"], 0,
     "ff5f9f4fb791ac77eb893effdb22d1c339ffd3940e763ca215dcdba896282b83"),
    ("check-trace-rejected", ["check-trace", "--calculus", "{k.json}", "--trace", "{trace}", "--claimed", "p -> p", "--format", "text"], 1,
     "f13fe2b009089a5d95fc3c215786882fd1cf479981963f3c6da59c9030c8676a"),
    ("derive-ks", ["derive", "--calculus", "{ks.json}", "--goal", "p -> p", "--depth", "3", "--trace-out", "{trace}"], 0,
     "7cffe7535918d0a3d02be5fbe8e7576e40337c3e38ad84da16bd31f1e67cae4f"),
    ("check-trace-ks", ["check-trace", "--calculus", "{ks.json}", "--trace", "{trace}", "--claimed", "(p -> q) -> p -> q"], 0,
     "c039b98f58abab03a96f2ed00eeea1bb007434a2fbc8dd42cb43b9922fac6f95"),
    ("derive-not-found", ["derive", "--calculus", "{k.json}", "--goal", "p -> p", "--depth", "2", "--format", "text"], 0,
     "74fca8993f24a7ec5f06fcb1e6b45184e5d0084c69650752d98dd3586202a88c"),
    ("verify-lemma1", ["verify", "lemma1"], 0,
     "80e48afa6606f1b40f59a47d438027fd1c72b0bbe0bc991b86e643fba450dad5"),
    ("verify-lemma3", ["verify", "lemma3", "--alphabet", "2", "--max-len", "3"], 0,
     "4ba3f27ce65a33e120b39367e29e95763f925111f171768fd2d35febd9caada7"),
    ("verify-lemma6", ["verify", "lemma6", "--alphabet", "1", "--max-len", "4"], 0,
     "adcbff9516b37e15e030bcf4d8093960de4633ca51ba19096296c19867435b62"),
    ("verify-lemma7", ["verify", "lemma7", "--input", "aaa", "--budget", "4"], 0,
     "c178ba5b7c295713b3fad8b0cd01d4bf0cb248e7b6a77507970dc00e2635ff94"),
    ("verify-lemma9", ["verify", "lemma9", "--input", "aa", "--depth", "1"], 0,
     "f8ce7523300a4a0388fc1a1ae038f2385b4cd5ee94ee693218119dd85d612ccb"),
    ("verify-lemma11", ["verify", "lemma11", "--budget", "4"], 0,
     "7162c58e3929237fb51f819726dfa5c0523f91fbcdcdfaa840de1de31a5df53b"),
    ("verify-lemma11-system", ["verify", "lemma11", "--system", "{shrink.tag}", "--input", "aab", "--budget", "4"], 0,
     "472ee52f8ec243e67ba94c14ebb7c97af3394b24d2c35dba0f60d4df370d5e91"),
    ("verify-lemma12", ["verify", "lemma12", "--hat", "x -> x"], 0,
     "5c4ff26b62c5221189aa55c069647761c66d766b5b82f80b8b496556b6ab06d7"),
    # Recorded later than the cases above, before lemma12 moved onto the
    # closure engine.
    ("verify-all", ["verify", "all", "--alphabet", "2", "--max-len", "3"], 0,
     "7a893afd6b717b0642508c162f628b4f9e2638a7911cf472b110aac2aca6c94e"),
]

# sha256 of the trace file each `derive --trace-out` case writes.
TRACE_DIGESTS = {
    "derive-k": "93d661c4df74a9062bb04e09cf7e6b9e4579ce4cbf63601ed3b2d48e04e7fa48",
    "derive-ks": "803800d446c8d35e60ae434190a261868d890c482d8914c9d09432d5127c8867",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_corpus(directory) -> dict[str, str]:
    """Write the corpus files; returns the argument substitutions."""
    subst = {"{trace}": str(directory / "trace.json")}
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
        subst[f"{{{name}}}"] = str(directory / name)
    return subst


def run_corpus(directory) -> tuple[dict, dict]:
    """Run every case in order.  Returns case id -> (exit code, stdout
    digest), and case id -> trace-file digest for the `--trace-out` cases."""
    subst = write_corpus(directory)
    trace = directory / "trace.json"
    outputs: dict[str, tuple[int, str]] = {}
    traces: dict[str, str] = {}
    for case_id, argv, _, _ in CASES:
        argv = [subst.get(arg, arg) for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outputs[case_id] = (code, _sha256(out.getvalue().encode("utf-8")))
        if "--trace-out" in argv:
            traces[case_id] = _sha256(trace.read_bytes())
    return outputs, traces


@pytest.fixture(scope="module")
def corpus_results(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "case_id,code,digest", [(c, code, d) for c, _, code, d in CASES]
)
def test_stdout_matches_golden(corpus_results, case_id, code, digest):
    outputs, _ = corpus_results
    assert outputs[case_id] == (code, digest)


@pytest.mark.parametrize("case_id,digest", sorted(TRACE_DIGESTS.items()))
def test_trace_file_matches_golden(corpus_results, case_id, digest):
    _, traces = corpus_results
    assert traces[case_id] == digest


# sha256 of each witness file of a lemma 11 halting run with two target
# axioms, recorded before a run's trace was built once for all axioms.
WITNESS_ARGV = ["verify", "lemma11", "--system", "{shrink.tag}", "--input", "aaaa",
                "--budget", "10", "--p0", "{ki.json}", "--output"]
WITNESS_DIGESTS = {
    "lemma11-0-0.json": "a7deb2110011b1155eebdb6de37acb433c4a9d4e5342c19aa553a1f62eda33a9",
    "lemma11-0-1.json": "6b0b01251bc39f3a3e16d20b87f122d942b2ff581fbddb22e1f785b104cab3b5",
}


def test_witness_files_match_golden(tmp_path, capsys):
    subst = write_corpus(tmp_path)
    outdir = tmp_path / "witness"
    assert main([subst.get(arg, arg) for arg in WITNESS_ARGV] + [str(outdir)]) == 0
    assert json.loads(capsys.readouterr().out)["witness_files"] == [
        str(outdir / name) for name in WITNESS_DIGESTS
    ]
    assert {f.name: _sha256(f.read_bytes()) for f in outdir.iterdir()} == WITNESS_DIGESTS


# Cases whose output passes through set or dict iteration over formulas,
# whose hashes are object ids.
HASH_SEED_CASES = ("reduce", "derive-ks", "verify-lemma9", "verify-lemma11", "verify-all")


@pytest.mark.parametrize("seed", ["1", "2"])
def test_stdout_independent_of_hash_seed(tmp_path, seed):
    """A fresh interpreter under a fixed PYTHONHASHSEED prints the golden
    bytes: CLI output does not depend on the hash seed."""
    subst = write_corpus(tmp_path)
    src = str(Path(tagforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    for case_id, argv, code, digest in CASES:
        if case_id not in HASH_SEED_CASES:
            continue
        argv = [subst.get(arg, arg) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "tagforge.cli", *argv],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert (case_id, proc.returncode, _sha256(proc.stdout)) == (case_id, code, digest)
        if "--trace-out" in argv:
            trace = Path(subst["{trace}"]).read_bytes()
            assert _sha256(trace) == TRACE_DIGESTS[case_id]
