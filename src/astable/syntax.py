"""Text format for ground formulas and programs.

Grammar (UTF-8, `%` starts a line comment):

    program  := { formula "." }
    formula  := impl
    impl     := disj [ "->" impl ]          right associative
    disj     := conj { "|" conj }
    conj     := unary { "&" unary }
    unary    := "not" unary | primary
    primary  := "top" | "bot" | atom | "(" formula ")"
              | "And" "{" [ formula { ";" formula } ] "}"
              | "Or"  "{" [ formula { ";" formula } ] "}"
    atom     := ident [ "(" ident { "," ident } ")" ]

`&`/`|` chains collapse into one set-valued node, `not f` into `f -> bot`.
A program denotes the conjunction of its formulas.

One compiled regex splits the text into tokens, and one loop with an
explicit stack of open brackets parses formulas of this grammar and
sentences of the first-order one in `fo`, so nesting depth is bounded by
memory, not by Python's recursion limit.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .formula import KEYWORDS, Atom, AtomRef, BOT, Conj, Disj, Formula, Impl, TOP, neg


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# Groups: 1 a newline, 2 a word, 3 punctuation, 4 any other character;
# blanks and comments match no group.  Words are ASCII, so a non-ASCII
# letter is an unexpected character; a word is an identifier only if it
# starts with a letter or `_`, which `\w` alone does not check.
_TOKEN_RE = re.compile(r"(\n)|[ \t\r]+|%[^\n]*|(\w+)|(->|[&|(){};,.=])|(.)", re.ASCII)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, text, line, column) tuples, ending with an "eof"
    token; kind is "ident" or the punctuation itself."""
    toks = []
    line, bol = 1, 0  # bol: the offset where the current line begins
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        at = m.start()
        if group == 1:
            line += 1
            bol = at + 1
            continue
        word = m.group(group)
        if group == 4 or (group == 2 and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", line, at - bol + 1)
        toks.append(("ident" if group == 2 else word, word, line, at - bol + 1))
    # a comment that ends the input leaves the end-of-input column where it starts
    end = text.find("%", bol)
    toks.append(("eof", "", line, (len(text) if end < 0 else end) - bol + 1))
    return toks


class _Group:
    """An open bracket: the token that closes it, the function that makes
    its content a node (none for parentheses) and, for a `;`-separated
    brace group, the members read so far."""

    __slots__ = ("closer", "build", "items")

    def __init__(self, closer: str, build: Callable | None = None, items: list | None = None):
        self.closer = closer
        self.build = build
        self.items = items


class _Grammar(NamedTuple):
    """What a grammar gives the shared parse loop: the noun of its errors,
    its operand reader (called on an identifier other than `not`, it
    returns a node or opens a `_Group`), and its node builders for `not`,
    `->` and the `|` and `&` chains; the loop reuses the list it passes to a
    chain builder, so the builder must not keep it."""

    noun: str
    operand: Callable[["_Parser"], object]
    neg: Callable[[object], object]
    impl: Callable[[object, object], object]
    disj: Callable[[list], object]
    conj: Callable[[list], object]


_BINDS = {"->": 0, "|": 1, "&": 2}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1] or 'end of input'!r}", t[2], t[3])
        self.pos += 1
        return t

    def fail(self, message: str):
        t = self.toks[self.pos]
        raise ParseError(message, t[2], t[3])

    def at_eof(self) -> bool:
        return self.toks[self.pos][0] == "eof"

    def end(self, what: str) -> None:
        if not self.at_eof():
            self.fail(f"trailing input after {what}")

    def commas(self, item: Callable[["_Parser"], object]) -> list:
        """`item { "," item }`."""
        out = [item(self)]
        while self.toks[self.pos][0] == ",":
            self.pos += 1
            out.append(item(self))
        return out

    def arguments(self, item: Callable[["_Parser"], object]) -> tuple:
        """An optional `"(" item { "," item } ")"` after a name."""
        if self.toks[self.pos][0] != "(":
            return ()
        self.pos += 1
        out = self.commas(item)
        self.expect(")")
        return tuple(out)

    def name(self) -> str:
        return self.expect("ident")[1]

    def atom(self) -> Atom:
        _, text, line, col = self.expect("ident")
        if text in KEYWORDS:
            raise ParseError(f"{text!r} is reserved and cannot name an atom", line, col)
        return Atom(text, self.arguments(_Parser.name))

    def formula(self, g: _Grammar) -> object:
        """One formula of grammar g.  Each open bracket keeps the operand
        chains of the formula around it and the `not`s before it."""
        toks = self.toks
        groups: list[tuple[_Group, tuple[list, list, list], int]] = []
        chains: tuple[list, list, list] = ([], [], [])  # operands of `&`, `|`, `->`
        nots = 0
        while True:
            kind, text, line, col = toks[self.pos]
            if kind == "ident" and text == "not":
                self.pos += 1
                nots += 1
                continue
            if kind == "(":
                self.pos += 1
                node = _Group(")")
            elif kind == "ident":
                node = g.operand(self)
            else:
                raise ParseError(f"expected a {g.noun}, found {text or 'end of input'!r}", line, col)
            if type(node) is _Group:
                groups.append((node, chains, nots))
                chains, nots = ([], [], []), 0
                continue
            while True:  # node is a finished operand
                for _ in range(nots):
                    node = g.neg(node)
                nots = 0
                conjs, disjs, impls = chains
                conjs.append(node)
                level = _BINDS.get(toks[self.pos][0], -1)
                if level < 2:  # the `&` chain ends
                    disjs.append(g.conj(conjs))
                    conjs.clear()
                if level < 1:  # the `|` chain ends
                    impls.append(g.disj(disjs))
                    disjs.clear()
                if level >= 0:
                    self.pos += 1
                    break
                # the formula ends: `->` nests to the right, then its bracket closes
                node = impls.pop()
                while impls:
                    node = g.impl(impls.pop(), node)
                if not groups:
                    return node
                group, outer, outer_nots = groups[-1]
                if group.items is not None:
                    group.items.append(node)
                    if toks[self.pos][0] == ";":
                        self.pos += 1
                        break
                self.expect(group.closer)
                groups.pop()
                if group.items is not None:
                    node = group.build(tuple(group.items))
                elif group.build is not None:
                    node = group.build(node)
                chains, nots = outer, outer_nots

    def program(self, g: _Grammar) -> list:
        """A sequence of '.'-terminated formulas of grammar g."""
        out = []
        while not self.at_eof():
            out.append(self.formula(g))
            self.expect(".")
        return out


def _set_node(node: type) -> Callable[[list], Formula]:
    return lambda parts: parts[0] if len(parts) == 1 else node(tuple(parts))


def _operand(p: _Parser) -> Formula | _Group:
    text = p.peek()[1]
    if text == "top":
        p.pos += 1
        return TOP
    if text == "bot":
        p.pos += 1
        return BOT
    if text in ("And", "Or"):
        p.pos += 1
        p.expect("{")
        node = Conj if text == "And" else Disj
        if p.peek()[0] == "}":
            p.pos += 1
            return node(())
        return _Group("}", node, [])
    return AtomRef(p.atom())


_GROUND = _Grammar("formula", _operand, neg, Impl, _set_node(Disj), _set_node(Conj))


def parse_formula(text: str) -> Formula:
    """Parse a single formula; the whole input must be consumed."""
    p = _Parser(text)
    f = p.formula(_GROUND)
    p.end("formula")
    return f


def parse_program(text: str) -> list[Formula]:
    """Parse a sequence of '.'-terminated formulas."""
    return _Parser(text).program(_GROUND)


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.atom()
    p.end("atom")
    return a


def parse_atom_list(text: str) -> list[Atom]:
    """Comma-separated atoms; commas inside argument lists do not split."""
    p = _Parser(text.strip())
    out = p.commas(_Parser.atom)
    p.end("atom list")
    return out


def parse_interpretation(text: str) -> frozenset[Atom]:
    """Parse the `{a,b,c}` rendering of an interpretation."""
    p = _Parser(text.strip())
    p.expect("{")
    atoms = [] if p.peek()[0] == "}" else p.commas(_Parser.atom)
    p.expect("}")
    p.end("interpretation")
    return frozenset(atoms)
