"""The command line on streams that are not a terminal's: an stdout whose
encoding cannot take every character, and an stdin that holds text only.
Each runs ``main`` in process with the stream swapped in."""

from __future__ import annotations

import io
import json

import pytest

from tracelang.cli import main


@pytest.mark.parametrize("case, shown", [
    ({"logic": "ltlf", "input": "a", "expect": "ok", "canonical": "é"},
     "expected '\\xe9', got 'a'"),
    ({"logic": "ltlf", "input": "a &", "expect": "error", "error_contains": "é"},
     "does not contain '\\xe9'"),
], ids=["canonical", "error_contains"])
def test_output_the_stdout_encoding_cannot_take_is_backslash_escaped(
        monkeypatch, tmp_path, case, shown):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(case) + "\n", encoding="utf-8")
    raw = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert main(["conformance", str(manifest)]) == 1
    out = raw.getvalue().decode("ascii")
    assert shown in out
    assert out.splitlines()[-1] == "PASS 0/1"


def test_a_text_only_stdin_is_read_as_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a&&b"))
    assert main(["fmt", "--logic", "ltlf", "-"]) == 0
    assert capsys.readouterr().out == "a & b\n"
