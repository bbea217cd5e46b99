"""The three workloads: their seeded inputs, the work of one item, and its check.

A workload builds one *round* of items in ``setup``.  ``run`` does one
item's work through ``call(span_name, function, *args)`` and returns the
raw outputs; ``check`` compares them with what the generator and the
reference evaluator predicted and returns a problem description or None.
Only ``run`` is timed.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
from reference import Labeller

# class name of a tracelang node -> the generator's op name
CLASS_OP = {
    "Atom": "atom", "TrueConst": "true", "FalseConst": "false", "Tautology": "tt",
    "Contradiction": "ff", "Last": "last", "End": "end", "First": "first",
    "Start": "start", "Not": "not", "And": "and", "Or": "or", "Implies": "impl",
    "Equiv": "equiv", "Xor": "xor", "WeakNext": "weak_next", "StrongNext": "next",
    "Until": "until", "WeakUntil": "weak_until", "Release": "release",
    "StrongRelease": "strong_release", "Eventually": "eventually", "Always": "always",
    "Before": "before", "Since": "since", "Once": "once", "Historically": "historically",
    "Diamond": "diamond", "Box": "box", "BackDiamond": "back_diamond",
    "BackBox": "back_box", "RegexProp": "prop", "RegexTest": "test",
    "RegexConcat": "concat", "RegexUnion": "union", "RegexStar": "star",
}


class Item:
    """One unit of work; the fields a workload does not use stay None."""

    __slots__ = ("kind", "logic", "text", "lexemes", "tree", "expect", "where",
                 "needle", "argv", "subject")

    def __init__(self, kind, logic=None, text=None, lexemes=None, tree=None, expect=None,
                 where=None, needle=None, argv=None, subject=None):
        self.kind = kind  # what the item exercises; deep items may fail
        self.logic = logic
        self.text = text
        self.lexemes = lexemes
        self.tree = tree  # the generator's tree
        self.expect = expect  # reference verdicts
        self.where = where  # exact (line, column) a rejection must report
        self.needle = needle  # text a rejection message must contain
        self.argv = argv
        self.subject = subject  # the parsed formula and trace an evaluation uses


def same_tree(expected: tuple, node, children) -> bool:
    """Whether a tracelang tree matches the generator's tree (iteratively,
    so trees deeper than the recursion limit compare too)."""
    stack = [(expected, node)]
    while stack:
        want, got = stack.pop()
        if CLASS_OP.get(type(got).__name__) != want[0]:
            return False
        if want[0] == "atom":
            if got.name != want[1]:
                return False
            continue
        kids = children(got)
        if len(kids) != len(want) - 1:
            return False
        stack.extend(zip(want[1:], kids))
    return True


def dict_shape(tree: dict) -> tuple[int, list[str]]:
    """Node count and pre-order atom names of an ``ast`` JSON tree."""
    count, names, stack = 0, [], [tree]
    while stack:
        d = stack.pop()
        count += 1
        if d["op"] == "atom":
            names.append(d["name"])
        elif "args" in d:
            stack.extend(reversed(d["args"]))
        elif "regex" in d:
            stack.extend((d["arg"], d["regex"]))
    return count, names


def in_range(text: str, line: int, column: int) -> bool:
    """Whether a diagnostic position lies inside ``text`` or one past its end."""
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1


def render(rng: random.Random, tree: tuple) -> str:
    """The generator's spelling of ``tree``."""
    speller = gen.Speller(rng)
    tokens = speller.tokens(tree)
    return gen.join(tokens, speller.separators(tokens))


def read_corpus(root: Path) -> list[dict]:
    with open(root / "conformance" / "corpus.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Workload:
    name = ""

    def __init__(self, tl, seed: int, root: Path):
        self.tl = tl
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.items: list[Item] = []

    def setup(self) -> list[str]:
        """Build the round; returns problems found while doing so."""
        raise NotImplementedError

    def run(self, item: Item, call):
        raise NotImplementedError

    def check(self, item: Item, out) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ================================================================= frontend


class Frontend(Workload):
    """Tokenise, parse, print in both styles, reparse and serialise.

    Per round: 128 generated formulas per logic (1 to 50 nodes, depth at most
    7); 22 one-token mutations per logic and every corpus ``error`` case, all
    rejected; 10 nested-test inputs at depths 5-9; the 8 deep inputs, which
    fail today.  That is about a second of work, so a run keeps each item's
    best time over some twenty rounds.
    """

    name = "frontend"
    ACCEPTED = 128
    # Nodes per generated formula, in turn.  Sixteen sizes put the median and
    # the 90th percentile of the round's item times inside a size, not on the
    # edge between two, so they do not jump with the seed.
    SIZES = (1, 2, 3, 4, 5, 7, 9, 11, 13, 16, 19, 23, 28, 34, 41, 50)
    MUTANTS = 22
    NESTED_DEPTHS = (5, 6, 7, 8, 9)
    NESTED = 10

    def setup(self) -> list[str]:
        rng, items = self.rng, self.items
        for logic in gen.LOGICS:
            trees = gen.TreeGen(rng, logic, gen.FRONTEND_ATOMS)
            speller = gen.Speller(rng)
            accepted = []
            for k in range(self.ACCEPTED):
                tree = trees.formula(self.SIZES[k % len(self.SIZES)])
                tokens = speller.tokens(tree)
                seps = speller.separators(tokens)
                accepted.append((tokens, seps))
                items.append(Item("accept", logic, gen.join(tokens, seps), tokens, tree))
            for k in range(self.MUTANTS):
                tokens, seps = accepted[k]
                kind = gen.MUTATIONS[k % len(gen.MUTATIONS)]
                text, where = gen.mutate(tokens, seps, logic, kind, rng)
                items.append(Item("reject", logic, text, where=where))
        for case in read_corpus(self.root):
            if case["expect"] == "error":
                items.append(Item("reject", case["logic"], case["input"],
                                  needle=case.get("error_contains")))
        for k in range(self.NESTED):
            logic = gen.DYNAMIC[k % 2]
            depth = self.NESTED_DEPTHS[k % len(self.NESTED_DEPTHS)]
            tokens, tree = gen.nested_test(logic, depth, rng)
            seps = gen.Speller(rng).separators(tokens)
            items.append(Item("nested", logic, gen.join(tokens, seps), tokens, tree))
        for logic, text, tokens, tree in gen.deep_inputs():
            items.append(Item("deep", logic, text, tokens, tree))
        for item in items:
            item.logic = self.tl.Logic(item.logic)
        rng.shuffle(items)
        return []

    def run(self, item: Item, call):
        tl, text, logic = self.tl, item.text, item.logic
        lexed = parsed = None
        try:
            lexed = call("lexer.tokenize", tl.tokenize, text, logic)
        except tl.SourceError as error:
            lexed = error
        try:
            parsed = call("parser.parse", tl.parse, text, logic)
        except tl.SourceError as error:
            return lexed, error
        canonical = call("printer.format", tl.format_formula, parsed, tl.Style.CANONICAL)
        full = call("printer.format", tl.format_formula, parsed, tl.Style.FULL_PARENS)
        call("lexer.tokenize", tl.tokenize, canonical, logic)
        reparsed = call("parser.parse", tl.parse, canonical, logic)
        call("lexer.tokenize", tl.tokenize, full, logic)
        reparsed_full = call("parser.parse", tl.parse, full, logic)
        again = call("printer.format", tl.format_formula, reparsed, tl.Style.CANONICAL)
        as_dict = call("cli.formula_to_dict", tl.formula_to_dict, parsed)
        return lexed, parsed, canonical, full, reparsed, reparsed_full, again, as_dict

    def check(self, item: Item, out) -> str | None:
        tl = self.tl
        lexed, parsed = out[0], out[1]
        if item.kind == "reject" or isinstance(parsed, tl.SourceError):
            return self.check_rejected(item, lexed, parsed)
        if isinstance(lexed, tl.SourceError):
            return f"tokenize rejected an input parse accepted: {lexed}"
        if [token.lexeme for token in lexed] != item.lexemes:
            return "tokens differ from the generated ones"
        _, _, canonical, full, reparsed, reparsed_full, again, as_dict = out
        children = tl.children
        if not same_tree(item.tree, parsed, children):
            return "parse returned another tree than the generated one"
        if not same_tree(item.tree, reparsed, children):
            return f"canonical text {canonical!r} reparses to another tree"
        if again != canonical:
            return f"canonical text {canonical!r} is not a fixpoint: {again!r}"
        if not same_tree(item.tree, reparsed_full, children):
            return f"full-parens text {full!r} reparses to another tree"
        if dict_shape(as_dict) != (gen.node_count(item.tree), gen.atom_names(item.tree)):
            return "formula_to_dict has another shape than the tree"
        return None

    def check_rejected(self, item: Item, lexed, error) -> str | None:
        tl = self.tl
        if not isinstance(error, tl.SourceError):
            return f"{item.kind} input was accepted: {item.text[:60]!r}"
        if item.kind in ("accept", "nested"):
            return f"generated input was rejected: {error}"
        # deep inputs may be refused, with a position, once the parser limits depth
        if not in_range(item.text, error.line, error.column):
            return f"rejection position {error.line}:{error.column} is outside the input"
        if item.where is not None:
            for got in (error, lexed):
                if not isinstance(got, tl.LexError) or (got.line, got.column) != item.where:
                    return f"expected a lexing error at {item.where}, got {got}"
        if item.needle is not None and item.needle not in str(error):
            return f"diagnostic {str(error)!r} does not contain {item.needle!r}"
        return None


# ========================================================= linear evaluation

_P, _Q, _R, _S = (gen.atom(x) for x in "PQRS")

LTLF_PATTERNS = (
    ("always", ("impl", _P, ("eventually", _Q))),  # response
    ("weak_until", ("not", _Q), _P),  # precedence: no q before p
    ("always", ("until", _P, _Q)),
    ("eventually", _P),
    ("always", ("not", _P)),
    ("always", ("impl", _P, ("next", _Q))),
    ("always", ("impl", _P, ("until", _Q, _R))),
    ("until", ("until", _P, _Q), _R),
    ("until", _P, ("weak_until", _Q, _R)),
    ("release", _P, ("strong_release", _Q, _R)),
    ("release", ("weak_until", _P, _Q), _R),
    ("eventually", ("and", _P, ("weak_next", ("until", _Q, _R)))),
    ("always", ("eventually", _P)),
    ("eventually", ("always", _P)),
)
PLTLF_PATTERNS = (
    ("historically", ("impl", _P, ("once", _Q))),  # precedence, looking back
    ("historically", ("impl", _P, ("before", _Q))),
    ("since", _P, _Q),
    ("historically", ("impl", _Q, ("since", ("not", _P), _R))),
    ("once", ("and", _P, ("before", _Q))),
    ("not", ("since", _P, _Q)),
    ("since", ("since", _P, _Q), _R),
    ("historically", ("once", _P)),
    ("once", ("historically", _P)),
    ("before", ("before", ("or", _P, _Q))),
)
# Every PLTLf pattern but the two with an S inside another temporal operator:
# checked at every position by the current evaluator, their cost grows with
# the fourth power of the trace length and swings tenfold with the data.
MONITOR_PATTERNS = PLTLF_PATTERNS[:3] + PLTLF_PATTERNS[4:6] + PLTLF_PATTERNS[7:]
EVAL_ATOMS = ("p", "q", "r", "s")


def instantiate(tree: tuple, names: list[str]) -> tuple:
    """Replace the placeholder atoms P, Q, R, S by ``names``."""
    if tree[0] == "atom":
        return gen.atom(names["PQRS".index(tree[1])])
    return (tree[0],) + tuple(instantiate(t, names) for t in tree[1:])


class _Evaluation(Workload):
    """Evaluation items.

    An item checks one trace against a suite of formulas: every pattern of
    its kind plus, for most kinds, three generated formulas.  Formula text is
    spelled by the generator and parsed by the package during set-up.
    Putting a whole suite in each item keeps items alike in cost, so the
    quantiles of item time do not jump with the seed.  For the same reason
    traces of a kind share one length, take the atom densities in a fixed
    order and their offsets from a low-discrepancy series, and no generated
    formula serves two items: the seed moves where the costly inputs fall,
    not how many of them a round holds.
    """

    PLAN: tuple = ()  # (kind, logic, patterns, trace lengths, items, temporal nesting)
    GENERATED = 3  # generated formulas per item
    GENERATED_SIZE = 9  # nodes of each generated formula

    def setup(self) -> list[str]:
        problems = []
        for plan in self.PLAN:
            problems += self.add(*plan)
        self.rng.shuffle(self.items)
        return problems

    def add(self, kind: str, logic: str, patterns: tuple, lengths: tuple, count: int,
            nesting: int | None) -> list[str]:
        """Add ``count`` items; ``nesting`` caps the nested temporal operators
        of the generated formulas, and None means patterns only."""
        tl, rng, problems = self.tl, self.rng, []
        trees = [instantiate(p, EVAL_ATOMS) for p in patterns]
        if nesting is not None:
            generator = gen.TreeGen(rng, logic, EVAL_ATOMS, modal_depth=nesting)
            trees += [generator.formula(self.GENERATED_SIZE)
                      for _ in range(count * self.GENERATED)]
        parsed = []
        for tree in trees:
            text = render(rng, tree)
            parsed.append(tl.parse(text, tl.Logic(logic)))
            if not same_tree(tree, parsed[-1], tl.children):
                problems.append(f"{text!r} parsed to another tree")
        base = [rng.random() for _ in EVAL_ATOMS]
        for k in range(count):
            suite = list(range(len(patterns)))
            if nesting is not None:
                suite += [len(patterns) + k * self.GENERATED + j for j in range(self.GENERATED)]
            densities = gen.DENSITY_PROFILES[k % len(gen.DENSITY_PROFILES)]
            steps = gen.trace(rng, lengths[k % len(lengths)], EVAL_ATOMS, densities,
                              gen.spread_phases(base, k))
            labels = Labeller(steps, logic)
            verdict = labels.positions if kind == "monitor" else labels.holds
            self.items.append(Item(kind, tl.Logic(logic), f"{kind} trace {k}",
                                   expect=[verdict(trees[i]) for i in suite],
                                   subject=([parsed[i] for i in suite], tl.Trace(steps))))
        return problems

    def run(self, item: Item, call):
        formulas, trace = item.subject
        if item.kind == "monitor":
            return call("semantics.monitor", monitor, self.tl.eval_pltlf, formulas, trace)
        return call(f"semantics.{item.kind}", check_all, self.tl.satisfies, formulas, trace,
                    item.logic)

    def check(self, item: Item, out) -> str | None:
        for k, (got, want) in enumerate(zip(out, item.expect)):
            if got != want:
                return f"{item.text}: formula {k} differs from the reference"
        return None


def check_all(satisfies, formulas, trace, logic) -> list[bool]:
    """Whether the trace satisfies each formula."""
    return [satisfies(formula, trace, logic) for formula in formulas]


def monitor(eval_pltlf, formulas, trace) -> list[list[bool]]:
    """Each formula's verdict after every step, as a runtime monitor reports it."""
    return [[eval_pltlf(formula, trace, i) for i in range(len(trace))] for formula in formulas]


# ======================================================== dynamic evaluation

_TRUE = ("prop", ("true",))
_TT = ("tt",)


def _step(name: str) -> tuple:
    return ("prop", gen.atom(name))


LDLF_PATTERNS = (
    ("box", ("star", _TRUE), ("diamond", ("concat", ("star", _TRUE), _step("Q")), _TT)),
    ("diamond", ("concat", ("star", _TRUE), _step("P")), _TT),
    ("box", ("star", _TRUE), ("impl", ("diamond", _step("P"), _TT),
                              ("diamond", ("concat", ("star", _TRUE), _step("Q")), _TT))),
    ("diamond", ("star", ("concat", ("test", ("diamond", _step("P"), _TT)), _TRUE)),
     ("diamond", _step("Q"), _TT)),
    ("box", ("star", ("union", _step("P"), _step("Q"))),
     ("diamond", ("union", _step("R"), _TRUE), _TT)),
    ("diamond", ("star", _TRUE), ("box", _TRUE, ("ff",))),
    ("box", ("concat", ("star", _TRUE), _step("P")),
     ("diamond", ("concat", _TRUE, _step("Q")), _TT)),
    ("box", ("star", _TRUE), ("diamond", ("concat", ("star", ("prop", ("not", _P))), _step("Q")), _TT)),
    ("diamond", ("star", ("concat", _step("P"), _step("Q"))), ("box", _TRUE, ("ff",))),
)
BACKWARD = {"diamond": "back_diamond", "box": "back_box"}


def backward(tree: tuple) -> tuple:
    """The past-time mirror of an LDLf pattern."""
    if tree[0] in ("atom", "prop"):
        return tree
    return (BACKWARD.get(tree[0], tree[0]),) + tuple(backward(t) for t in tree[1:])


PLDLF_PATTERNS = tuple(backward(t) for t in LDLF_PATTERNS)


class Eval(_Evaluation):
    """The four evaluators.

    Per round (476 items): 180 LTLf ``satisfies`` items on traces of 60
    steps, 60 one-anchor PLTLf items on 40 steps and 60 PLTLf monitor items
    (every position) on 30 steps; 72 LDLf and 72 PLDLf ``satisfies`` items on
    8 steps, and 16 of each on 0 to 3 steps, where the off-the-end positions
    decide.  A round takes about a second, so a run keeps each item's best
    time over some twenty rounds; many short items rather than a few long
    ones keep the figures from moving with the seed.  Linear suites add
    three generated formulas of 9 nodes without nested temporal operators,
    dynamic suites three with at most three nested modalities; monitor
    suites are ``MONITOR_PATTERNS`` alone.
    """

    name = "eval"
    PLAN = (
        ("ltlf", "ltlf", LTLF_PATTERNS, (60,), 180, 1),
        ("pltlf", "pltlf", PLTLF_PATTERNS, (40,), 60, 1),
        ("monitor", "pltlf", MONITOR_PATTERNS, (30,), 60, None),
        ("ldlf", "ldlf", LDLF_PATTERNS, (8,), 72, 3),
        ("pldlf", "pldlf", PLDLF_PATTERNS, (8,), 72, 3),
        ("ldlf", "ldlf", LDLF_PATTERNS, (0, 1, 2, 3), 16, 3),
        ("pldlf", "pldlf", PLDLF_PATTERNS, (0, 1, 2, 3), 16, 3),
    )


# ==================================================================== cli

# patterns whose cost grows about linearly with the trace, for long trace files
CLI_LTLF = LTLF_PATTERNS[:4] + LTLF_PATTERNS[5:6]
CLI_PLTLF = PLTLF_PATTERNS[:3]
CLI_MAIN = "import sys; from tracelang.cli import main; sys.exit(main())"
POSITION = re.compile(r"^(\d+):(\d+): ")


def run_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """One ``tracelang`` command in a fresh interpreter, as the console script runs it."""
    return subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=env,
                          capture_output=True, timeout=120, check=False)


class Cli(Workload):
    """Child processes of the command line, started one at a time.

    Per block of a round: 5 ``check``, 5 ``fmt`` (3 canonical, 2 full_parens), 5
    ``ast``, 7 ``eval`` (LTLf and PLTLf on traces of 1000-3000 steps, LDLf
    and PLDLf on 20 steps), 3 rejected files and one ``conformance`` run of
    the shipped corpus.
    """

    name = "cli"
    BLOCKS = 4  # a round is this many blocks of 26 commands: 104 in all
    LINEAR_LENGTHS = (1000, 2000, 3000)

    def __init__(self, tl, seed: int, root: Path):
        super().__init__(tl, seed, root)
        self.work = root / "bench" / ".work" / str(os.getpid())
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def write(self, name: str, data: str) -> str:
        path = self.work / name
        path.write_bytes(data.encode("latin-1"))
        return str(path)

    def setup(self) -> list[str]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for block in range(self.BLOCKS):
            self.add_block(f"b{block}")
        self.rng.shuffle(self.items)
        return []

    def add_block(self, prefix: str) -> None:
        rng = self.rng
        plan = ["check"] * 5 + ["fmt"] * 5 + ["ast"] * 5
        for k, command in enumerate(plan):
            logic = gen.LOGICS[k % 4]
            tree = gen.TreeGen(rng, logic, gen.FRONTEND_ATOMS).formula(Frontend.SIZES[k])
            text = render(rng, tree)
            argv = [command, "--logic", logic, self.write(f"{prefix}f{k}.txt", text)]
            if command == "fmt":
                argv[1:1] = ["--style", "full_parens" if k % 5 >= 3 else "canonical"]
            self.items.append(Item(command, logic, text, tree=tree, argv=argv))
        evals = [("ltlf", CLI_LTLF), ("ltlf", CLI_LTLF), ("ltlf", CLI_LTLF),
                 ("pltlf", CLI_PLTLF), ("pltlf", CLI_PLTLF),
                 ("ldlf", LDLF_PATTERNS[:2]), ("pldlf", PLDLF_PATTERNS[:2])]
        for k, (logic, patterns) in enumerate(evals):
            tree = instantiate(patterns[rng.randrange(len(patterns))], EVAL_ATOMS)
            length = self.LINEAR_LENGTHS[k % 3] if logic in ("ltlf", "pltlf") else 20
            densities = rng.choice(gen.DENSITY_PROFILES)
            phases = [rng.random() for _ in EVAL_ATOMS]
            steps = gen.trace(rng, length, EVAL_ATOMS, densities, phases)
            text = render(rng, tree)
            formula = self.write(f"{prefix}e{k}.txt", text)
            trace = self.write(f"{prefix}t{k}.json", json.dumps(steps))
            self.items.append(Item("eval", logic, text, tree=tree,
                                   expect=Labeller(steps, logic).holds(tree),
                                   argv=["eval", "--logic", logic, formula, "--trace", trace]))
        for k in range(3):
            logic = gen.LOGICS[k]
            tree = gen.TreeGen(rng, logic, gen.FRONTEND_ATOMS).formula(9)
            speller = gen.Speller(rng)
            tokens = speller.tokens(tree)
            text, where = gen.mutate(tokens, speller.separators(tokens), logic,
                                     ("illegal", "foreign")[k % 2], rng)
            self.items.append(Item("reject", logic, text, where=where, argv=[
                "check", "--logic", logic, self.write(f"{prefix}bad{k}.txt", text)]))
        corpus = self.root / "conformance" / "corpus.jsonl"
        self.items.append(Item("conformance", expect=len(read_corpus(self.root)),
                               argv=["conformance", str(corpus)]))

    def run(self, item: Item, call):
        return call(f"cli.{item.argv[0]}", run_cli, item.argv, self.env)

    def check(self, item: Item, out) -> str | None:
        tl = self.tl
        code, stdout, stderr = out.returncode, out.stdout.decode(), out.stderr.decode()
        kind = item.kind
        if kind == "reject":
            match = POSITION.match(stderr)
            if code != 1 or match is None or (int(match[1]), int(match[2])) != item.where:
                return f"rejected file: exit {code}, stderr {stderr[:80]!r}, expected {item.where}"
            return None
        if kind == "conformance":
            lines = stdout.splitlines()
            if code != 0 or not lines or lines[-1] != f"PASS {item.expect}/{item.expect}":
                return f"conformance: exit {code}, last line {lines[-1:]!r}"
            return None
        if kind == "eval":
            want = ("sat\n", 0) if item.expect else ("unsat\n", 1)
            if (stdout, code) != want:
                return f"eval printed {stdout!r} with exit {code}, expected {want}"
            return None
        if code != 0 or stderr:
            return f"{kind}: exit {code}, stderr {stderr[:80]!r}"
        if kind == "check":
            return f"check printed {stdout!r}" if stdout else None
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"{kind} printed {len(lines)} lines"
        if kind == "fmt":
            node = tl.parse(lines[0], tl.Logic(item.logic))
            return None if same_tree(item.tree, node, tl.children) else \
                f"fmt output {lines[0]!r} reparses to another tree"
        shape = dict_shape(json.loads(lines[0]))
        if shape != (gen.node_count(item.tree), gen.atom_names(item.tree)):
            return "ast JSON has another shape than the tree"
        return None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Frontend, Eval, Cli)}
