"""Which modules each command runs, and the package root's lazy evaluator.

Each check runs in a fresh interpreter.  An audit hook there records the
file of every code object that ``exec`` runs, which is how the import system
runs a module's body whether it comes from source or from cached bytecode.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tracelang

SRC = Path(tracelang.__file__).parents[1]
CORPUS = Path(__file__).resolve().parents[1] / "conformance" / "corpus.jsonl"
SEMANTICS = "tracelang/semantics.py"
JSON = "json/__init__.py"

HOOK = """\
import sys
_ran = []
def _hook(event, args):
    if event == "exec":
        _ran.append(args[0].co_filename)
sys.addaudithook(_hook)
"""
# copied before the report, so that nothing the report runs is counted
REPORT = "_files = list(_ran); sys.stderr.write('\\n' + repr(_files))\n"


def child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=60, text=True)


def ran(code: str) -> list[str]:
    """The modules whose bodies ``code`` runs, as ``package/file.py``."""
    done = child(HOOK + code + "\n" + REPORT)
    assert done.returncode == 0, done.stderr
    files = ast.literal_eval(done.stderr.rsplit("\n", 1)[-1])
    return [f"{Path(name).parent.name}/{Path(name).name}" for name in files]


@pytest.fixture
def command(tmp_path):
    formula = tmp_path / "formula.txt"
    formula.write_text("G(a -> F b)")
    trace = tmp_path / "trace.json"
    trace.write_text('[["a"], ["b"]]')
    argv = {
        "check": ["check", "--logic", "ltlf", str(formula)],
        "fmt": ["fmt", "--logic", "ltlf", str(formula)],
        "ast": ["ast", "--logic", "ltlf", str(formula)],
        "conformance": ["conformance", str(CORPUS)],
        "eval": ["eval", "--logic", "ltlf", str(formula), "--trace", str(trace)],
    }

    def run_main(name: str) -> list[str]:
        return ran(f"from tracelang import cli\ncli.main({argv[name]!r})")

    return run_main


@pytest.mark.parametrize("name", ["check", "fmt", "ast", "conformance"])
def test_commands_that_evaluate_nothing_run_no_evaluator(command, name):
    assert SEMANTICS not in command(name)


@pytest.mark.parametrize("name", ["check", "fmt"])
def test_commands_that_read_and_write_no_json_run_no_json(command, name):
    assert JSON not in command(name)


def test_eval_runs_the_evaluator_once(command):
    assert command("eval").count(SEMANTICS) == 1


def test_importing_the_package_registers_the_evaluator_without_running_it():
    files = ran("import tracelang\nassert 'tracelang.semantics' in sys.modules")
    assert "tracelang/__init__.py" in files
    assert SEMANTICS not in files


@pytest.mark.parametrize("code", [
    "assert len(tracelang.Trace([['a']])) == 1",
    "from tracelang import *\nassert satisfies(parse_ltlf('a'), Trace([['a']]), Logic.LTLF)",
    "import pickle\n"
    f"assert pickle.loads({pickle.dumps(tracelang.Trace([['a']]))!r}) == tracelang.Trace([['a']])",
    "fake = lambda *args: None\ntracelang.semantics.regex_reach = fake\n"
    "assert tracelang.semantics.regex_reach is fake and tracelang.semantics.Trace",
    "assert set(tracelang.__all__) <= set(dir(tracelang))",
    "from tracelang.semantics import Trace\nassert tracelang.Trace is Trace",
    # a module with a __getattr__ gets no specialised attribute reads
    "tracelang.satisfies\nassert set(tracelang.__all__) <= vars(tracelang).keys()\n"
    "assert '__getattr__' not in vars(tracelang)",
], ids=["attribute", "star import", "unpickle", "setattr", "dir", "submodule import",
        "bound after first use"])
def test_the_evaluation_names_load_on_first_use(code):
    done = child("import tracelang\n" + code)
    assert (done.returncode, done.stderr) == (0, "")
