"""Command-line front end: check, fmt, ast, eval, and conformance.

Exit codes are part of the contract: 0 for success (including "sat"), 1 when
a formula is rejected or a trace does not satisfy it, 2 for usage and
environment problems such as unreadable files or malformed trace/manifest
JSON.  Diagnostics go to stderr as ``LINE:COL: message``; results go to
stdout.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .lexer import LexError, Logic
from .parser import ParseError, parse
from .printer import Style, format_formula
from .serialize import formula_to_dict

# ``json`` and the evaluator are imported only by the commands that use them:
# a process's start-up is most of what each command costs.


class _CliError(Exception):
    """An environment or input-format problem; exits with status 2."""


def _read_source(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when the interpreter started
                raise OSError(errno.EBADF, "stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as error:
        raise _CliError(f"cannot read {path}: {error}") from error
    # a byte that is not UTF-8 reads as U+FFFD, which the lexer rejects in place
    return data.decode("utf-8", "replace")


def _write(text: str) -> None:
    """Print ``text`` as a line of output; a closed or unwritable stdout raises ``OSError``."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, "stdout is closed")
    print(text, flush=True)  # so a failed write shows up here, not at exit


def _load_trace(path: str) -> Trace:
    import json
    from .semantics import Trace
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise _CliError(f"cannot read trace file {path}: {error}") from error
    except ValueError as error:  # bad UTF-8 or JSON, or an int past Python's digit limit
        raise _CliError(f"malformed trace file {path}: {error}") from error
    except RecursionError as error:
        raise _CliError(f"malformed trace file {path}: JSON nested too deep") from error
    if isinstance(data, list) and all(isinstance(step, list) for step in data):
        try:
            return Trace(data)  # which refuses an atom that is not a string
        except TypeError:
            pass
    raise _CliError(
        f"malformed trace file {path}: expected a JSON array of arrays of atom-name strings"
    )


_MANIFEST_LOGICS = {logic.value for logic in Logic}
# the optional string field each expectation allows
_EXPECT_FIELDS = {"ok": "canonical", "error": "error_contains"}


def _load_manifest(path: str) -> list[tuple[int, dict]]:
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise _CliError(f"cannot read manifest {path}: {error}") from error
    cases: list[tuple[int, dict]] = []
    for number, line in enumerate(text.split("\n"), 1):  # JSON strings may hold U+2028
        if not line.strip():
            continue
        try:
            case = json.loads(line)
        except ValueError as error:  # bad JSON, or an int past Python's digit limit
            raise _CliError(f"manifest line {number}: invalid JSON: {error}") from error
        except RecursionError as error:
            raise _CliError(f"manifest line {number}: invalid JSON: nested too deep") from error
        cases.append((number, _validate_case(number, case)))
    return cases


def _validate_case(number: int, case: object) -> dict:
    if not isinstance(case, dict):
        raise _CliError(f"manifest line {number}: expected a JSON object")
    missing = {"logic", "input", "expect"} - case.keys()
    if missing:
        raise _CliError(f"manifest line {number}: missing fields {sorted(missing)}")
    if not isinstance(case["logic"], str) or case["logic"] not in _MANIFEST_LOGICS:
        raise _CliError(f"manifest line {number}: unknown logic {case['logic']!r}")
    if not isinstance(case["input"], str):
        raise _CliError(f"manifest line {number}: 'input' must be a string")
    optional = _EXPECT_FIELDS.get(case["expect"]) if isinstance(case["expect"], str) else None
    if optional is None:
        raise _CliError(f"manifest line {number}: 'expect' must be 'ok' or 'error'")
    if optional in case and not isinstance(case[optional], str):
        raise _CliError(f"manifest line {number}: {optional!r} must be a string")
    allowed = {"logic", "input", "expect", optional}
    unknown = case.keys() - allowed
    if unknown:
        raise _CliError(f"manifest line {number}: unknown fields {sorted(unknown)}")
    return case


def _run_case(case: dict) -> tuple[bool, str]:
    logic = Logic(case["logic"])
    try:
        node = parse(case["input"], logic)
    except (LexError, ParseError) as error:
        if case["expect"] == "error":
            needle = case.get("error_contains")
            if needle is not None and needle not in str(error):
                return False, f"diagnostic {str(error)!r} does not contain {needle!r}"
            return True, ""
        return False, f"rejected: {error}"
    if case["expect"] == "error":
        return False, "parsed successfully, but an error was expected"
    printed = format_formula(node)
    expected = case.get("canonical")
    if expected is not None and printed != expected:
        return False, f"canonical mismatch: expected {expected!r}, got {printed!r}"
    return True, ""


def _cmd_check(args: argparse.Namespace) -> int:
    parse(_read_source(args.source), Logic(args.logic))
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    node = parse(_read_source(args.source), Logic(args.logic))
    _write(format_formula(node, Style(args.style)))
    return 0


def _cmd_ast(args: argparse.Namespace) -> int:
    import json
    node = parse(_read_source(args.source), Logic(args.logic))
    _write(json.dumps(formula_to_dict(node), separators=(",", ":")))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .semantics import EmptyTraceError, satisfies
    node = parse(_read_source(args.source), Logic(args.logic))
    trace = _load_trace(args.trace)
    try:
        holds = satisfies(node, trace, Logic(args.logic))
    except EmptyTraceError as error:
        raise _CliError(error) from error
    _write("sat" if holds else "unsat")
    return 0 if holds else 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    import json
    cases = _load_manifest(args.manifest)
    passed = 0
    for _, case in cases:
        success, detail = _run_case(case)
        if success:
            passed += 1
        tag = "ok  " if success else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        _write(f"{tag}  {case['logic']:<6}{json.dumps(case['input'])}{suffix}")
    _write(f"PASS {passed}/{len(cases)}")
    return 0 if passed == len(cases) else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelang",
        description="Parse, format, serialise, and evaluate formulas of the "
        "finite-trace temporal logics LTLf, LDLf, PLTLf, and PLDLf.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def formula_command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--logic",
            required=True,
            choices=[logic.value for logic in Logic],
            help="which logic's syntax to use",
        )
        sub.add_argument("source", help="path of the formula file, or - to read stdin")
        return sub

    check = formula_command("check", "parse a formula; succeed silently")
    check.set_defaults(func=_cmd_check)

    fmt = formula_command("fmt", "parse a formula and print it back")
    fmt.add_argument(
        "--style",
        choices=[style.value for style in Style],
        default=Style.CANONICAL.value,
        help="canonical keeps only required parentheses; full_parens keeps all",
    )
    fmt.set_defaults(func=_cmd_fmt)

    ast_cmd = formula_command("ast", "print the syntax tree as JSON")
    ast_cmd.set_defaults(func=_cmd_ast)

    eval_cmd = formula_command("eval", "evaluate a formula against a trace")
    eval_cmd.add_argument(
        "--trace",
        required=True,
        help="path of a JSON trace file: an array of steps, each an array of "
        "atom names",
    )
    eval_cmd.set_defaults(func=_cmd_eval)

    conformance = commands.add_parser(
        "conformance", help="run a line-delimited JSON manifest of parser cases"
    )
    conformance.add_argument("manifest", help="path of the manifest file")
    conformance.set_defaults(func=_cmd_conformance)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as error:
        # stdout is closed or unwritable, or its reader went away (``| head``),
        # which needs no word: stop without a traceback, and send what is still
        # buffered where the interpreter's last flush works
        if not isinstance(error, BrokenPipeError):
            print(f"error: cannot write output: {error}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 2
    except (LexError, ParseError) as error:
        print(error, file=sys.stderr)
        return 1
    except _CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
