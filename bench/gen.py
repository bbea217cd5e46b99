"""Seeded input generators for the benchmark.

Every generator returns formula text together with the tree the text should
parse to.  Trees are plain tuples owned by the benchmark, named after the
``op`` fields of the documented ``ast`` JSON (``("and", l, r)``,
``("atom", name)``, ``("diamond", regex, arg)``, ...), so they share nothing
with the package's node classes.  Text is spelled from the tables below, not
by the package's printer: it mixes alias spellings, optional and required
quotes, redundant parentheses and irregular whitespace.
"""

from __future__ import annotations

import itertools
import random

LOGICS = ("ltlf", "pltlf", "ldlf", "pldlf")
DYNAMIC = ("ldlf", "pldlf")

# op -> the spellings the generator chooses from
SPELLINGS = {
    "not": ("!", "~"),
    "and": ("&", "&&"),
    "or": ("|", "||"),
    "impl": ("->", "=>"),
    "equiv": ("<->", "<=>"),
    "xor": ("^",),
    "until": ("U",),
    "weak_until": ("W",),
    "release": ("R", "V"),
    "strong_release": ("M",),
    "since": ("S",),
    "eventually": ("F",),
    "always": ("G",),
    "next": ("X[!]",),
    "weak_next": ("X",),
    "before": ("Y",),
    "once": ("O",),
    "historically": ("H",),
    "concat": (";",),
    "union": ("+",),
}
CONSTANTS = ("true", "false", "tt", "ff", "last", "end", "first", "start")
BRACKETS = {
    "diamond": ("<", ">"),
    "box": ("[", "]"),
    "back_diamond": ("<<", ">>"),
    "back_box": ("[[", "]]"),
}
UNARY = ("not", "eventually", "always", "next", "weak_next", "before", "once",
         "historically")

# Binding strength of the binary formula operators (lower binds looser) and
# whether a chain of them groups to the right.
BINARY_LEVEL = {
    "impl": (0, True),
    "equiv": (0, True),
    "xor": (1, False),
    "or": (2, False),
    "and": (3, False),
    "until": (4, True),
    "weak_until": (4, True),
    "release": (4, True),
    "strong_release": (4, True),
    "since": (4, True),
}
BOOLEAN = ("and", "or", "impl", "equiv", "xor")
REGEX_LEVEL = {"concat": 0, "union": 1}  # both group to the left

OPS = {
    "ltlf": {
        "leaves": ("true", "false", "tt", "ff", "last", "end"),
        "unary": ("not", "eventually", "always", "next", "weak_next"),
        "binary": BOOLEAN + ("until", "weak_until", "release", "strong_release"),
    },
    "pltlf": {
        "leaves": ("true", "false", "tt", "ff", "first", "start"),
        "unary": ("not", "once", "historically", "before"),
        "binary": BOOLEAN + ("since",),
    },
    "ldlf": {"leaves": ("tt", "ff"), "unary": ("not",), "binary": BOOLEAN,
             "modal": ("diamond", "box")},
    "pldlf": {"leaves": ("tt", "ff"), "unary": ("not",), "binary": BOOLEAN,
              "modal": ("back_diamond", "back_box")},
}

# Atom names for the front end: bare names, reserved words and other names
# that need quotes, and names that contain one of the quote characters.
FRONTEND_ATOMS = (
    "p", "q", "r", "req", "grant", "ack_2", "_t", "x9",
    "F", "tt", "last", "V", "Req", "a b", "x-y", "don't", 'say "hi"',
)
NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
NAME_CHARS = NAME_START | frozenset("0123456789")
RESERVED = frozenset(CONSTANTS) | frozenset("FGHMORSUVWXY")
BINARY_SPELLINGS = frozenset(
    s for op in BOOLEAN + ("until", "weak_until", "release", "strong_release",
                           "since", "concat", "union")
    for s in SPELLINGS[op]
)
BRACKET_SPELLINGS = frozenset("()") | frozenset(s for pair in BRACKETS.values() for s in pair)


def atom(name: str) -> tuple:
    return ("atom", name)


def is_binary(tree: tuple) -> bool:
    return tree[0] in BINARY_LEVEL


# ------------------------------------------------------------------ trees


def capacity(depth: int) -> int:
    """The most nodes a tree of ``depth`` levels can hold."""
    return (1 << depth) - 1


class TreeGen:
    """Random trees of one logic with a given number of nodes.

    Fixing the size of every tree (from a schedule the caller owns) keeps the
    amount of work per item from swinging between seeds; the seed picks the
    shape and the operators.  Trees are at most ``DEPTH`` levels deep, and
    ``modal_depth`` caps how many temporal operators or modalities may nest,
    which bounds the evaluation cost of what the generator emits.
    """

    DEPTH = 7  # levels a tree may have

    def __init__(self, rng: random.Random, logic: str, atoms: tuple[str, ...],
                 modal_depth: int = 99):
        self.rng = rng
        self.logic = logic
        self.ops = OPS[logic]
        self.atoms = atoms
        self.modal_depth = modal_depth

    def split(self, total: int, depth: int, low: int = 1) -> int:
        """A left share of ``total`` nodes, at least ``low``, leaving both
        sides room at ``depth`` where it can."""
        room = capacity(depth)
        lo, hi = max(low, total - room), min(room, total - 1)
        return self.rng.randint(lo, hi) if lo <= hi else max(low, min(hi, total - 1))

    def formula(self, size: int, depth: int | None = None, nest: int = 0) -> tuple:
        rng, ops = self.rng, self.ops
        depth = self.DEPTH if depth is None else depth
        if size <= 1 or depth <= 1:
            return self.leaf()
        deeper = nest < self.modal_depth
        unary_fits = size - 1 <= capacity(depth - 1)
        roll = rng.random()
        if self.logic in DYNAMIC:
            if deeper and size >= 4 and (roll < 0.5 or not unary_fits):
                left = self.split(size - 1, depth - 1, low=2)
                return (rng.choice(ops["modal"]), self.regex(left, depth - 1, nest + 1),
                        self.formula(size - 1 - left, depth - 1, nest + 1))
            if unary_fits and (roll < 0.65 or size < 3):
                return ("not", self.formula(size - 1, depth - 1, nest))
            op = rng.choice(BOOLEAN)
        else:
            if unary_fits and (roll < 0.3 or size < 3):
                op = rng.choice(ops["unary"]) if deeper else "not"
                return (op, self.formula(size - 1, depth - 1, nest + (op != "not")))
            op = rng.choice(ops["binary"]) if deeper else rng.choice(BOOLEAN)
        left = self.split(size - 1, depth - 1)
        step = op not in BOOLEAN
        return (op, self.formula(left, depth - 1, nest + step),
                self.formula(size - 1 - left, depth - 1, nest + step))

    def leaf(self) -> tuple:
        rng = self.rng
        if self.logic in DYNAMIC:
            return (rng.choice(("tt", "ff")),)
        if rng.random() < 0.85:
            return atom(rng.choice(self.atoms))
        return (rng.choice(self.ops["leaves"]),)

    def prop(self, size: int, depth: int) -> tuple:
        rng = self.rng
        if size <= 1 or depth <= 1:
            if rng.random() < 0.92:
                return atom(rng.choice(self.atoms))
            return (rng.choice(("true", "false")),)
        if size - 1 <= capacity(depth - 1) and (size < 3 or rng.random() < 0.25):
            return ("not", self.prop(size - 1, depth - 1))
        left = self.split(size - 1, depth - 1)
        return (rng.choice(BOOLEAN), self.prop(left, depth - 1),
                self.prop(size - 1 - left, depth - 1))

    def regex(self, size: int, depth: int, nest: int) -> tuple:
        """A regex of ``size`` nodes (at least 2: a step is a ``prop`` node
        over its step formula)."""
        rng = self.rng
        if size <= 2 or depth <= 2:
            return ("prop", self.prop(size - 1, depth - 1))
        roll = rng.random()
        unary_fits = size - 1 <= capacity(depth - 1)
        if unary_fits and roll < 0.35:
            return ("prop", self.prop(size - 1, depth - 1))
        if unary_fits and roll < 0.5 and nest < self.modal_depth:
            return ("test", self.formula(size - 1, depth - 1, nest))
        if unary_fits and (roll < 0.62 or size < 5):
            return ("star", self.regex(size - 1, depth - 1, nest))
        left = self.split(size - 1, depth - 1, low=2)
        return (rng.choice(("concat", "union")), self.regex(left, depth - 1, nest),
                self.regex(size - 1 - left, depth - 1, nest))


# --------------------------------------------------------------- spelling


class Speller:
    """Spells a tree as a token list, choosing among equivalent spellings.

    Parentheses go wherever the binding rules need them, and sometimes where
    they do not.
    """

    EXTRA_PARENS = 0.06  # chance of parentheses the binding rules do not need

    def __init__(self, rng: random.Random):
        self.rng = rng

    def tokens(self, tree: tuple) -> list[str]:
        out: list[str] = []
        self.formula(tree, out)
        return out

    def word(self, op: str) -> str:
        return self.rng.choice(SPELLINGS[op])

    def atom_text(self, name: str) -> str:
        rng = self.rng
        if name[:1] in NAME_START and all(c in NAME_CHARS for c in name) \
                and name not in RESERVED and rng.random() < 0.85:
            return name
        if '"' in name:
            return f"'{name}'"
        if "'" in name:
            return f'"{name}"'
        quote = rng.choice("'\"")
        return quote + name + quote

    def formula(self, t: tuple, out: list[str]) -> None:
        op = t[0]
        if op == "atom":
            out.append(self.atom_text(t[1]))
        elif op in CONSTANTS:
            out.append(op)
        elif op in BRACKETS:
            opening, closing = BRACKETS[op]
            out.append(opening)
            self.regex(t[1], out)
            out.append(closing)
            self.operand(t[2], out, need=is_binary(t[2]))
        elif op in UNARY:
            out.append(self.word(op))
            self.operand(t[1], out, need=is_binary(t[1]))
        else:
            level, right = BINARY_LEVEL[op]
            self.operand(t[1], out, need=self.looser(t[1], level, right))
            out.append(self.word(op))
            self.operand(t[2], out, need=self.looser(t[2], level, not right))

    @staticmethod
    def looser(child: tuple, level: int, same_level_needs: bool) -> bool:
        if child[0] not in BINARY_LEVEL:
            return False
        child_level = BINARY_LEVEL[child[0]][0]
        return child_level < level or (child_level == level and same_level_needs)

    def operand(self, t: tuple, out: list[str], need: bool) -> None:
        if need or self.rng.random() < self.EXTRA_PARENS:
            out.append("(")
            self.formula(t, out)
            out.append(")")
        else:
            self.formula(t, out)

    def regex(self, r: tuple, out: list[str]) -> None:
        op = r[0]
        if op == "prop":
            self.formula(r[1], out)
        elif op == "test":
            self.formula(r[1], out)
            out.append("?")
        elif op == "star":
            self.regex_operand(r[1], out, need=r[1][0] in REGEX_LEVEL)
            out.append("*")
        else:
            level = REGEX_LEVEL[op]
            left, right = r[1], r[2]
            self.regex_operand(left, out, need=REGEX_LEVEL.get(left[0], 9) < level)
            out.append(self.word(op))
            self.regex_operand(right, out, need=REGEX_LEVEL.get(right[0], 9) <= level)

    def regex_operand(self, r: tuple, out: list[str], need: bool) -> None:
        if need:
            out.append("(")
            self.regex(r, out)
            out.append(")")
        else:
            self.regex(r, out)

    def separators(self, tokens: list[str]) -> list[str]:
        """Whitespace before, between and after the tokens (one more than tokens)."""
        rng = self.rng
        seps = ["" if rng.random() < 0.8 else rng.choice((" ", "\n", "\t "))]
        for before, after in zip(tokens, tokens[1:]):
            roll = rng.random()
            sep = ("" if roll < 0.3 else " " if roll < 0.82 else "  " if roll < 0.9
                   else "\t" if roll < 0.95 else "\n")
            if sep == "" and before[-1] in NAME_CHARS and after[0] in NAME_CHARS:
                sep = " "  # the two would lex as one name
            seps.append(sep)
        seps.append("" if rng.random() < 0.8 else " \n")
        return seps


def join(tokens: list[str], seps: list[str]) -> str:
    parts = [seps[0]]
    for token, sep in zip(tokens, seps[1:]):
        parts.append(token)
        parts.append(sep)
    return "".join(parts)


def position(prefix: str) -> tuple[int, int]:
    """1-based line and column of the character that follows ``prefix``."""
    return prefix.count("\n") + 1, len(prefix) - (prefix.rfind("\n") + 1) + 1


# --------------------------------------------------------------- rejects

ILLEGAL = tuple("#$%@`=-{},./:0AZ")
FOREIGN = {
    "ltlf": ("Y", "O", "H", "S", "first", "start"),
    "pltlf": ("F", "G", "X", "U", "W", "M", "V", "last", "end"),
    "ldlf": ("F", "G", "X", "U", "Y", "O", "S", "last", "first"),
    "pldlf": ("F", "G", "X", "U", "Y", "O", "H", "end", "start"),
}
MUTATIONS = ("illegal", "foreign", "bracket", "operator")


def mutate(tokens: list[str], seps: list[str], logic: str, kind: str,
           rng: random.Random) -> tuple[str, tuple[int, int] | None]:
    """Apply one token-level edit that no valid formula survives.

    Returns the text and, when the lexer must stop at the edit, the exact
    position it must report.  Inserting a character no token starts with,
    or a keyword of another logic, is a lexing error at that spot; deleting
    one bracket unbalances the text, and doubling a binary operator leaves
    it without an operand, so both must be rejected somewhere.
    """
    n = len(tokens)
    if kind == "bracket":
        spots = [i for i, tok in enumerate(tokens) if tok in BRACKET_SPELLINGS]
        if spots:
            k = rng.choice(spots)
            return join(tokens[:k] + tokens[k + 1:], seps[:k] + [" "] + seps[k + 2:]), None
        kind = "operator"
    if kind == "operator":
        spots = [i for i, tok in enumerate(tokens) if tok in BINARY_SPELLINGS]
        if spots:
            k = rng.choice(spots)
            return join(tokens[:k + 1] + tokens[k:],
                        seps[:k + 1] + [" "] + seps[k + 1:]), None
        kind = "illegal"
    k = rng.randrange(n + 1)
    inserted = rng.choice(ILLEGAL if kind == "illegal" else FOREIGN[logic])
    new_tokens = tokens[:k] + [inserted] + tokens[k:]
    new_seps = seps[:k] + [" ", " "] + seps[k + 1:]
    prefix = join(new_tokens[:k], new_seps[:k] + [" "])
    return join(new_tokens, new_seps), position(prefix)


# ----------------------------------------------------------- shaped inputs


def nested_test(logic: str, depth: int, rng: random.Random) -> tuple[list[str], tuple]:
    """``<(<(<a>tt?)>tt?)>tt`` and its kin: tests nested inside grouped regexes.

    The group around each test forces the parser to try every reading of the
    unit inside it, so parse time grows exponentially with ``depth``.
    """
    modal = OPS[logic]["modal"]
    name = rng.choice(("a", "p", "req", "x9"))
    regex: tuple = ("prop", atom(name))
    tokens = [name]
    for _ in range(depth):
        op = rng.choice(modal)
        leaf = (rng.choice(("tt", "ff")),)
        opening, closing = BRACKETS[op]
        tokens = ["(", opening] + tokens + [closing, leaf[0], "?", ")"]
        regex = ("test", (op, regex, leaf))
    op = rng.choice(modal)
    opening, closing = BRACKETS[op]
    return [opening] + tokens + [closing, "tt"], (op, regex, ("tt",))


DEEP_PARENS = 3000
DEEP_CHAIN = 2000
DEEP_UNIT = {
    "ltlf": (["a"], atom("a")),
    "pltlf": (["a"], atom("a")),
    "ldlf": (["<", "a", ">", "tt"], ("diamond", ("prop", atom("a")), ("tt",))),
    "pldlf": (["<<", "a", ">>", "tt"], ("back_diamond", ("prop", atom("a")), ("tt",))),
}


def deep_inputs() -> list[tuple[str, str, list[str], tuple]]:
    """Fixed inputs deeper than the recursion limit: (logic, text, tokens, tree).

    For each logic, a unit inside 3000 nested parentheses and a chain of 2000
    units joined by ``->``.  They do not depend on the seed.
    """
    out = []
    for logic in LOGICS:
        unit_tokens, unit_tree = DEEP_UNIT[logic]
        tokens = ["("] * DEEP_PARENS + unit_tokens + [")"] * DEEP_PARENS
        out.append((logic, "".join(tokens), tokens, unit_tree))
        tokens = []
        for i in range(DEEP_CHAIN):
            if i:
                tokens.append("->")
            tokens.extend(unit_tokens)
        text = " ".join(tokens)
        tree = unit_tree
        for _ in range(DEEP_CHAIN - 1):
            tree = ("impl", unit_tree, tree)
        out.append((logic, text, tokens, tree))
    return out


# ----------------------------------------------------------------- traces

# Every way to give four atoms one each of a sparse to a dense share of the
# steps.  Items take them in a fixed order.
DENSITY_PROFILES = tuple(itertools.permutations((0.05, 0.15, 0.5, 0.85)))
FLIP = 0.02


# Steps of the additive recurrence behind the R_4 low-discrepancy sequence
# (powers of 1/phi_4, where phi_4 ** 5 == phi_4 + 1).
PHASE_STEPS = tuple(1.1673039782614187 ** -(j + 1) for j in range(4))


def spread_phases(base: list[float], k: int) -> list[float]:
    """The atom offsets of the ``k``-th trace of a series that starts from the
    seeded offsets ``base``: over a series the offsets cover [0, 1) evenly,
    whatever the seed, so the share of traces where an atom comes early or
    late does not change with it."""
    return [(b + k * step) % 1.0 for b, step in zip(base, PHASE_STEPS)]


def trace(rng: random.Random, length: int, names: tuple[str, ...],
          densities: tuple[float, ...], phases: list[float]) -> list[list[str]]:
    """A trace where ``names[i]`` holds at a ``densities[i]`` share of the steps.

    An atom holds at evenly spread steps from the offset ``phases[i]``, and
    each step is then flipped with a small probability.  The evaluator's
    cost depends on where an atom first or last holds; spreading the steps
    evenly keeps that cost from swinging between seeds, while the offsets
    and flips keep the traces different.
    """
    steps = []
    for i in range(length):
        step = []
        for name, density, phase in zip(names, densities, phases):
            holds = (phase + i * density) % 1.0 < density
            if holds != (rng.random() < FLIP):
                step.append(name)
        steps.append(step)
    return steps


# ---------------------------------------------------------------- helpers


def node_count(tree: tuple) -> int:
    count, stack = 0, [tree]
    while stack:
        t = stack.pop()
        count += 1
        if t[0] != "atom":
            stack.extend(t[1:])
    return count


def atom_names(tree: tuple) -> list[str]:
    """Atom names in pre-order, left to right."""
    names, stack = [], [tree]
    while stack:
        t = stack.pop()
        if t[0] == "atom":
            names.append(t[1])
        else:
            stack.extend(reversed(t[1:]))
    return names
