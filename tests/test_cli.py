"""End-to-end command behaviour: exit codes, streams, and file handling."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracelang
from tracelang import formula_to_dict, parse_ldlf, parse_ltlf
from tracelang.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def formula_file(tmp_path, text, name="formula.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def trace_file(tmp_path, steps, name="trace.json"):
    path = tmp_path / name
    path.write_text(json.dumps(steps))
    return str(path)


# -------------------------------------------------------------------- check


def test_check_accepts_and_stays_silent(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--logic", "ltlf",
                         formula_file(tmp_path, "a U b"))
    assert (code, out, err) == (0, "", "")


def test_check_rejects_with_a_positioned_diagnostic(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--logic", "ltlf",
                         formula_file(tmp_path, "X[?]a"))
    assert code == 1
    assert out == ""
    assert err.startswith("1:2: ")


def test_check_reports_parse_errors_on_stderr(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--logic", "ldlf",
                         formula_file(tmp_path, "a"))
    assert code == 1
    assert err.startswith("1:1: ")
    assert "modality" in err


def test_stray_bytes_become_positioned_errors(capsys, tmp_path):
    path = tmp_path / "formula.txt"
    path.write_bytes(b"a &\n\xe9")
    code, out, err = run(capsys, "check", "--logic", "ltlf", str(path))
    assert code == 1
    assert err.startswith("2:1: ")


def test_missing_file_is_a_usage_problem(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--logic", "ltlf",
                         str(tmp_path / "absent.txt"))
    assert code == 2
    assert err.startswith("error: ")


# ---------------------------------------------------------------------- fmt


def test_fmt_canonicalises(capsys, tmp_path):
    code, out, err = run(capsys, "fmt", "--logic", "ltlf",
                         formula_file(tmp_path, "a&&b||c"))
    assert (code, out, err) == (0, "a & b | c\n", "")


def test_fmt_full_parens(capsys, tmp_path):
    code, out, _ = run(capsys, "fmt", "--logic", "ltlf", "--style", "full_parens",
                       formula_file(tmp_path, "a&&b||c"))
    assert (code, out) == (0, "((a & b) | c)\n")


def test_fmt_output_is_a_fixpoint(capsys, tmp_path):
    first = run(capsys, "fmt", "--logic", "pldlf",
                formula_file(tmp_path, "<< a >> tt ^ [[b ; c*]]ff"))
    again = run(capsys, "fmt", "--logic", "pldlf",
                formula_file(tmp_path, first[1].rstrip("\n"), "second.txt"))
    assert first[0] == again[0] == 0
    assert first[1] == again[1] == "<<a>>tt ^ [[b ; c*]]ff\n"


def test_fmt_reads_stdin(capsys, monkeypatch):
    fake = io.TextIOWrapper(io.BytesIO(b" a   ->\tb "), encoding="latin-1")
    monkeypatch.setattr("sys.stdin", fake)
    code, out, _ = run(capsys, "fmt", "--logic", "ltlf", "-")
    assert (code, out) == (0, "a -> b\n")


# ---------------------------------------------------------------------- ast


def test_ast_is_compact_single_line_json(capsys, tmp_path):
    code, out, _ = run(capsys, "ast", "--logic", "ltlf",
                       formula_file(tmp_path, "X[!]a"))
    assert code == 0
    assert out == '{"op":"next","args":[{"op":"atom","name":"a"}]}\n'


def test_ast_serialises_modalities_with_named_fields(capsys, tmp_path):
    code, out, _ = run(capsys, "ast", "--logic", "ldlf",
                       formula_file(tmp_path, "<a>tt"))
    assert code == 0
    assert out == (
        '{"op":"diamond","regex":{"op":"prop","args":'
        '[{"op":"atom","name":"a"}]},"arg":{"op":"tt"}}\n'
    )


def test_ast_matches_the_library_serialiser(capsys, tmp_path):
    text = "<(<a>tt)? ; b*>(tt & ff)"
    code, out, _ = run(capsys, "ast", "--logic", "ldlf",
                       formula_file(tmp_path, text))
    assert code == 0
    assert json.loads(out) == formula_to_dict(parse_ldlf(text))


def test_the_serialiser_refuses_what_is_not_a_node():
    with pytest.raises(TypeError, match="^cannot serialise 'a'$"):
        formula_to_dict("a")


def test_weak_and_strong_next_serialise_differently(capsys, tmp_path):
    _, weak, _ = run(capsys, "ast", "--logic", "ltlf",
                     formula_file(tmp_path, "X a"))
    _, strong, _ = run(capsys, "ast", "--logic", "ltlf",
                       formula_file(tmp_path, "X[!] a", "strong.txt"))
    assert json.loads(weak)["op"] == "weak_next"
    assert json.loads(strong)["op"] == "next"


# --------------------------------------------------------------------- eval


def test_eval_sat(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--logic", "ltlf",
                       "--trace", trace_file(tmp_path, [["p"], []]),
                       formula_file(tmp_path, "p & F last"))
    assert (code, out) == (0, "sat\n")


def test_eval_unsat(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--logic", "ltlf",
                       "--trace", trace_file(tmp_path, [["p"], []]),
                       formula_file(tmp_path, "G p"))
    assert (code, out) == (1, "unsat\n")


def test_eval_anchors_past_logics_at_the_end(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--logic", "pltlf",
                       "--trace", trace_file(tmp_path, [["p"], []]),
                       formula_file(tmp_path, "Y p"))
    assert (code, out) == (0, "sat\n")


def test_eval_empty_trace_depends_on_the_logic(capsys, tmp_path):
    trace = trace_file(tmp_path, [])
    code, _, err = run(capsys, "eval", "--logic", "ltlf",
                       "--trace", trace, formula_file(tmp_path, "tt"))
    assert code == 2
    assert "empty trace" in err
    code, out, _ = run(capsys, "eval", "--logic", "ldlf",
                       "--trace", trace, formula_file(tmp_path, "tt", "t.txt"))
    assert (code, out) == (0, "sat\n")


@pytest.mark.parametrize(
    "logic, text, steps, expected",
    [
        # <a>tt holds iff a is at the first step, <<a>>tt iff a is at the last
        ("ldlf", "<a>tt", [["a"], [], []], (0, "sat\n")),
        ("ldlf", "<a>tt", [[], [], ["a"]], (1, "unsat\n")),
        ("pldlf", "<<a>>tt", [[], [], ["a"]], (0, "sat\n")),
        ("pldlf", "<<a>>tt", [["a"], [], []], (1, "unsat\n")),
    ],
)
def test_eval_anchors_the_dynamic_logics(capsys, tmp_path, logic, text, steps, expected):
    code, out, _ = run(capsys, "eval", "--logic", logic,
                       "--trace", trace_file(tmp_path, steps),
                       formula_file(tmp_path, text))
    assert (code, out) == expected


def test_eval_rejects_malformed_traces(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for content in ['{"not": "a trace"}', "[[1]]", "not json", '["p"]']:
        bad.write_text(content)
        code, _, err = run(capsys, "eval", "--logic", "ltlf",
                           "--trace", str(bad), formula_file(tmp_path, "p"))
        assert code == 2, content
        assert err.startswith("error: ")


def test_eval_refuses_a_missing_trace_file(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--logic", "ltlf",
                         "--trace", str(tmp_path / "absent.json"), formula_file(tmp_path, "p"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read trace file ")


# -------------------------------------------------------------- conformance


def manifest_file(tmp_path, lines, name="cases.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def test_conformance_all_passing(capsys, tmp_path):
    path = manifest_file(tmp_path, [
        {"logic": "ltlf", "input": "a&&b", "expect": "ok", "canonical": "a & b"},
        {"logic": "ltlf", "input": "F", "expect": "error",
         "error_contains": "keyword"},
        {"logic": "ldlf", "input": "<a>tt", "expect": "ok"},
    ])
    code, out, _ = run(capsys, "conformance", path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ok") for line in lines[:3])
    assert lines[-1] == "PASS 3/3"


def test_conformance_reports_failures(capsys, tmp_path):
    path = manifest_file(tmp_path, [
        {"logic": "ltlf", "input": "a", "expect": "ok", "canonical": "b"},
        {"logic": "ltlf", "input": "a", "expect": "error"},
        {"logic": "ltlf", "input": "(a", "expect": "error",
         "error_contains": "no such text"},
        {"logic": "ltlf", "input": "a|b", "expect": "ok", "canonical": "a | b"},
    ])
    code, out, _ = run(capsys, "conformance", path)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "PASS 1/4"
    assert sum(line.startswith("FAIL") for line in lines) == 3
    assert "canonical mismatch" in lines[0]


def test_conformance_shows_why_an_expected_formula_was_rejected(capsys, tmp_path):
    path = manifest_file(tmp_path, [{"logic": "ltlf", "input": "a &)", "expect": "ok"}])
    code, out, _ = run(capsys, "conformance", path)
    assert code == 1
    assert out.splitlines() == [
        "FAIL  ltlf  \"a &)\"  (rejected: 1:4: expected a formula, found ')')",
        "PASS 0/1",
    ]


def test_conformance_blank_lines_are_skipped(capsys, tmp_path):
    path = tmp_path / "cases.jsonl"
    path.write_text(
        '\n{"logic": "ltlf", "input": "a", "expect": "ok"}\n\n'
    )
    code, out, _ = run(capsys, "conformance", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "PASS 1/1"


@pytest.mark.parametrize("case,needle", [
    ({"logic": "ltlf", "input": "a"}, "missing fields"),
    ({"logic": "nope", "input": "a", "expect": "ok"}, "unknown logic"),
    ({"logic": "ltlf", "input": 3, "expect": "ok"}, "'input' must be a string"),
    ({"logic": "ltlf", "input": "a", "expect": "maybe"}, "'expect' must be"),
    ({"logic": "ltlf", "input": "a", "expect": "ok", "extra": 1},
     "unknown fields"),
    ({"logic": "ltlf", "input": "a", "expect": "error", "canonical": "a"},
     "unknown fields"),
    ({"logic": "ltlf", "input": "a", "expect": "ok", "canonical": 7},
     "'canonical' must be a string"),
    (["ltlf", "a", "ok"], "expected a JSON object"),
    ({"logic": "ltlf", "input": "a", "expect": "error", "error_contains": 7},
     "'error_contains' must be a string"),
    # a logic or an expectation that JSON gives as an array or an object
    ({"logic": ["ltlf"], "input": "a", "expect": "ok"}, "unknown logic ['ltlf']"),
    ({"logic": {"ltlf": 1}, "input": "a", "expect": "ok"}, "unknown logic {'ltlf': 1}"),
    ({"logic": "ltlf", "input": "a", "expect": ["ok"]}, "'expect' must be"),
])
def test_conformance_rejects_malformed_manifests(capsys, tmp_path, case, needle):
    path = manifest_file(tmp_path, [case])
    code, out, err = run(capsys, "conformance", path)
    assert code == 2
    assert "manifest line 1" in err
    assert needle in err


def test_conformance_rejects_invalid_json_lines(capsys, tmp_path):
    path = tmp_path / "cases.jsonl"
    path.write_text('{"logic": "ltlf"\n')
    code, _, err = run(capsys, "conformance", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe" + '{"logic": "ltlf"}'.encode("utf-16-le")),
], ids=["missing", "directory", "not-utf-8"])
def test_conformance_refuses_an_unreadable_manifest(capsys, tmp_path, make):
    path = tmp_path / "cases.jsonl"
    make(path)
    code, out, err = run(capsys, "conformance", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read manifest {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# -------------------------------------------------------------------- usage


def test_usage_errors_exit_with_two(tmp_path):
    for argv in [
        [],
        ["frobnicate"],
        ["check", "formula.txt"],
        ["check", "--logic", "nope", "formula.txt"],
        ["eval", "--logic", "ltlf", "formula.txt"],
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_a_closed_stdout_ends_quietly():
    # as in `tracelang conformance corpus.jsonl | head -1`: the reader is gone
    # (here before the first write, so the outcome does not race)
    corpus = Path(__file__).resolve().parents[1] / "conformance" / "corpus.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tracelang.cli import main; sys.exit(main())",
             "conformance", str(corpus)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 2


def test_the_package_root_leaves_the_command_line_alone(tmp_path):
    # `python -m tracelang.cli` warns on stderr if importing the package has
    # already imported the module it is about to run
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    source = formula_file(tmp_path, "G(a -> F b)")
    done = subprocess.run(
        [sys.executable, "-m", "tracelang.cli", "check", "--logic", "ltlf", source],
        capture_output=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, tracelang; "
         "print(sorted({'tracelang.cli', 'argparse'} & set(sys.modules)))"],
        capture_output=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == b"[]"


def test_the_command_line_starts_without_dataclasses_or_inspect():
    # each call is a new process; these two cost a CLI call most of its import
    # (counted from after start-up, which may load them for its own reasons)
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import tracelang.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))"],
        capture_output=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == b"[]"


def test_the_command_line_starts_without_typing():
    # -S: without `site`, whose .pth files may import typing on their own
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; before = set(sys.modules); import tracelang.cli; "
         "print(sorted({'typing'} & set(sys.modules) - before))"],
        capture_output=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == b"[]"


def test_a_process_builds_only_the_scanners_it_uses():
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import tracelang; cached = tracelang.lexer._scanner.cache_info; "
         "print(cached().currsize); tracelang.parse('<a>tt', tracelang.Logic.LDLF); "
         "tracelang.parse('<a ; b>tt', tracelang.Logic.LDLF); print(cached().currsize)"],
        capture_output=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.split() == [b"0", b"1"]


# ------------------------------------------ undecodable and too-deep files


def run_process(*argv):
    """``python -m tracelang.cli`` in a child process: exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "tracelang.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )
    return done.returncode, done.stderr.decode()


@pytest.mark.parametrize("content", [b'[["p\xff"]]', b"[" * 10**5 + b"]" * 10**5],
                         ids=["not UTF-8", "nested 10^5 deep"])
def test_eval_refuses_unreadable_traces_without_a_traceback(tmp_path, content):
    trace = tmp_path / "trace.json"
    trace.write_bytes(content)
    code, err = run_process("eval", "--logic", "ltlf", "--trace", str(trace),
                            formula_file(tmp_path, "F p"))
    assert code == 2
    assert err.startswith(f"error: malformed trace file {trace}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("content, expected", [
    ("a & \u00e9".encode("utf-8"), "1:5: illegal character '\u00e9'\n"),
    (b"a &\n\xe9 b", "2:1: illegal character '\ufffd'\n"),
], ids=["UTF-8", "not UTF-8"])
def test_formula_files_are_read_as_utf8_and_columns_count_characters(tmp_path, content,
                                                                      expected):
    source = tmp_path / "formula.txt"
    source.write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]),
               PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "tracelang.cli", "check", "--logic", "ltlf", str(source)],
        capture_output=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr.decode("utf-8")) == (1, expected)


@pytest.mark.parametrize("content, needle", [
    (b'{"logic": "ltlf", "input": "\xff", "expect": "ok"}\n', "cannot read manifest "),
    (b"[" * 10**5 + b"]" * 10**5 + b"\n", "manifest line 1: invalid JSON: "),
], ids=["not UTF-8", "nested 10^5 deep"])
def test_conformance_refuses_unreadable_manifests_without_a_traceback(tmp_path, content, needle):
    manifest = tmp_path / "cases.jsonl"
    manifest.write_bytes(content)
    code, err = run_process("conformance", str(manifest))
    assert code == 2
    assert err.startswith(f"error: {needle}")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_a_manifest_line_ends_only_at_a_line_feed(capsys, tmp_path):
    # JSON strings may hold U+2028 and U+0085 unescaped; str.splitlines breaks there
    path = tmp_path / "cases.jsonl"
    path.write_text(
        '{"logic": "ltlf", "input": "a\u2028b", "expect": "error"}\r\n'
        '{"logic": "ltlf", "input": "a\x85", "expect": "error"}\n',
        encoding="utf-8", newline="",
    )
    code, out, err = run(capsys, "conformance", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "PASS 2/2"


def test_a_trace_nested_too_deep_is_refused_in_process(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_bytes(b"[" * 10**5)
    code, out, err = run(capsys, "eval", "--logic", "ltlf", "--trace", str(trace),
                         formula_file(tmp_path, "F p"))
    assert (code, out) == (2, "")
    assert err == f"error: malformed trace file {trace}: JSON nested too deep\n"


def test_a_manifest_line_nested_too_deep_is_refused_in_process(capsys, tmp_path):
    manifest = tmp_path / "cases.jsonl"
    manifest.write_bytes(b"[" * 10**5 + b"\n")
    code, out, err = run(capsys, "conformance", str(manifest))
    assert (code, out) == (2, "")
    assert err == "error: manifest line 1: invalid JSON: nested too deep\n"
