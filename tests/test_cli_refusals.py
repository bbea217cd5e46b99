"""The command line's refusals of bad trace files and of unusable standard streams.

A trace file of the wrong shape gets one message whatever is wrong inside it,
and a trace file or manifest line that Python cannot read as JSON another.
A stdin or stdout that is closed or cannot be written ends in one line on
stderr and exit 2, never a traceback; a reader that went away (``| head``)
ends quietly, as ``tests/test_cli.py`` checks.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracelang
from tracelang.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("content", [
    # an atom that is not a string, hashable or not
    '[["a", 1]]', '[["a", null]]', '[["a", true]]', '[["a", ["b"]]]', '[["a", {"b": 1}]]',
    # a step that is not an array
    '["ab"]', '[["a"], {"a": 1}]', '[["a"], 3]',
    # a whole that is not an array
    '{"a": 1}', '"ab"', "3", "null",
])
def test_each_wrong_shape_gets_the_one_message(capsys, tmp_path, content):
    trace = tmp_path / "trace.json"
    trace.write_text(content)
    formula = tmp_path / "formula.txt"
    formula.write_text("F a")
    code = main(["eval", "--logic", "ltlf", "--trace", str(trace), str(formula)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: malformed trace file {trace}: expected a JSON array "
                            f"of arrays of atom-name strings\n")


# Python refuses to read an integer of more than 4300 digits, with a plain
# ValueError that is not a JSONDecodeError
LONG_INT = "1" * 5000


def test_a_trace_file_with_an_integer_too_long_to_read_is_malformed(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(f"[[{LONG_INT}]]")
    formula = tmp_path / "formula.txt"
    formula.write_text("F a")
    code = main(["eval", "--logic", "ltlf", "--trace", str(trace), str(formula)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: malformed trace file {trace}: Exceeds the limit")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("line", [
    LONG_INT,
    f'{{"logic": "ltlf", "input": "a", "expect": "ok", "n": {LONG_INT}}}',
], ids=["bare", "in a case"])
def test_a_manifest_line_with_an_integer_too_long_to_read_is_invalid(capsys, tmp_path, line):
    manifest = tmp_path / "cases.jsonl"
    manifest.write_text('{"logic": "ltlf", "input": "a", "expect": "ok"}\n' + line + "\n")
    code = main(["conformance", str(manifest)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: manifest line 2: invalid JSON: Exceeds the limit")
    assert len(captured.err.splitlines()) == 1


def test_an_integer_too_long_to_read_ends_the_process_in_one_line(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(f"[[{LONG_INT}]]")
    formula = tmp_path / "formula.txt"
    formula.write_text("F a")
    code, err = run_with("", "eval", "--logic", "ltlf", "--trace", str(trace), str(formula))
    assert code == 2
    assert err.startswith("error: malformed trace file ") and len(err.splitlines()) == 1


def run_with(redirect, *argv, stdout=subprocess.DEVNULL):
    """``python -m tracelang.cli`` with a shell ``redirect``: exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracelang.__file__).parents[1]))
    done = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "tracelang.cli",
         *argv],
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, env=env,
        timeout=60,
    )
    err = done.stderr.decode()
    assert "Traceback" not in err
    return done.returncode, err


def test_a_closed_stdin_cannot_be_read():
    code, err = run_with("<&-", "check", "--logic", "ltlf", "-")
    assert code == 2
    assert err.startswith("error: cannot read -: ") and len(err.splitlines()) == 1


def test_a_closed_stdout_cannot_take_output(tmp_path):
    formula = tmp_path / "formula.txt"
    formula.write_text("a & b")
    code, err = run_with(">&-", "fmt", "--logic", "ltlf", str(formula))
    assert code == 2
    assert err.startswith("error: cannot write output: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, expected", [
    ("a & b", (0, "")),
    ("a &", (1, "1:4: expected a formula after '&', but the input ended\n")),
])
def test_check_writes_nothing_so_a_closed_stdout_keeps_its_verdict(tmp_path, text, expected):
    formula = tmp_path / "formula.txt"
    formula.write_text(text)
    assert run_with(">&-", "check", "--logic", "ltlf", str(formula)) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("command", ["conformance", "fmt"])
def test_a_full_device_cannot_take_output(tmp_path, command):
    formula = tmp_path / "formula.txt"
    formula.write_text("a & b")
    argv = {"conformance": ["conformance", str(ROOT / "conformance" / "corpus.jsonl")],
            "fmt": ["fmt", "--logic", "ltlf", str(formula)]}[command]
    with open("/dev/full", "wb") as full:
        code, err = run_with("", *argv, stdout=full)
    assert code == 2
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
