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

The text becomes two flat lists, token texts and token kinds, by one
`findall` of the token regex over the text with its comments removed; a
stray character shows as a gap that the tokens and blanks leave, which
one count finds.  Line and column are computed only for an error, by a
walk over the same regex up to the token at fault.  One loop with an
explicit stack of open brackets parses formulas of this grammar and
sentences of the first-order one in `fo`, so nesting depth is bounded by
memory, not by Python's recursion limit.  A parse builds one `AtomRef`
per distinct atom and shares it between the atom's occurrences.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import islice, repeat
from typing import Callable, NamedTuple, NoReturn

from .formula import KEYWORDS, Atom, AtomRef, BOT, Conj, Disj, Formula, Impl, TOP, conj, disj, neg


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# A token is an identifier (ASCII, starting with a letter or `_`), `->` or
# one punctuation character.  Outside comments, which run from `%` to the
# end of their line, blanks are the only other characters allowed.
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|->|[&|(){};,.=]", re.ASCII)
_COMMENT_RE = re.compile(r"%[^\n]*")
_BLANKS = " \t\r\n"
# An atom from its (name, args) key, without `Atom`'s checks: the tokenizer
# has matched the name and each argument as an identifier, and `atom_ref`
# refuses a keyword as a name.
_atom = partial(tuple.__new__, Atom)
_KINDS = {p: p for p in ("->", "&", "|", "(", ")", "{", "}", ";", ",", ".", "=")}


def _tokenize(text: str) -> tuple[str, list[str], list[str]]:
    """The text without its comments, then its token texts and kinds, both
    ending with the end-of-input token ("" of kind "eof"); a kind is
    "ident" or the punctuation itself.

    Removing a comment moves no token to another line or column, and it
    leaves the end of input where a comment that ends the input starts, so
    a position in the returned text is the position in the input.  The
    tokens and blanks cover the text unless it holds a stray character.
    """
    if "%" in text:
        text = _COMMENT_RE.sub("", text)
    texts = _TOKEN_RE.findall(text)
    if sum(map(len, texts)) + sum(map(text.count, _BLANKS)) != len(text):
        _stray(text)
    kinds = list(map(_KINDS.get, texts, repeat("ident")))
    texts.append("")
    kinds.append("eof")
    return text, texts, kinds


def _stray(text: str) -> NoReturn:
    """Raise the error of the first character of text that is neither a
    blank nor part of a token: the first one left when one walk over the
    token regex blanks out every token."""
    blanked = _TOKEN_RE.sub(lambda m: " " * len(m[0]), text)
    at = len(blanked) - len(blanked.lstrip(_BLANKS))
    raise ParseError(f"unexpected character {text[at]!r}", *_line_col(text, at))


def _locate(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` of a comment-free text, by one walk
    over the token regex; the end of input when index counts every token."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return _line_col(text, len(text) if m is None else m.start())


def _line_col(text: str, at: int) -> tuple[int, int]:
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


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
    `->` and the `|` and `&` chains of at least two operands; the loop
    reuses the list it passes to a chain builder, so the builder must not
    keep it."""

    noun: str
    operand: Callable[["_Parser"], object]
    neg: Callable[[object], object]
    impl: Callable[[object, object], object]
    disj: Callable[[list], object]
    conj: Callable[[list], object]


_BINDS = {"->": 0, "|": 1, "&": 2}


class _Parser:
    def __init__(self, text: str):
        self.text, self.texts, self.kinds = _tokenize(text)
        self.pos = 0
        self.atoms: dict[tuple[str, tuple[str, ...]], AtomRef] = {}  # one per distinct atom

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise message at token `at`, by default the current token."""
        raise ParseError(message, *_locate(self.text, self.pos if at is None else at))

    def expect(self, kind: str) -> str:
        """The text of the current token, which must be of this kind."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, found {self.texts[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def end(self, what: str) -> None:
        if self.kinds[self.pos] != "eof":
            self.fail(f"trailing input after {what}")

    def commas(self, item: Callable[["_Parser"], object]) -> list:
        """`item { "," item }`."""
        out = [item(self)]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            out.append(item(self))
        return out

    def arguments(self, item: Callable[["_Parser"], object]) -> tuple:
        """An optional `"(" item { "," item } ")"` after a name."""
        if self.kinds[self.pos] != "(":
            return ()
        self.pos += 1
        out = self.commas(item)
        self.expect(")")
        return tuple(out)

    def name(self) -> str:
        return self.expect("ident")

    def atom_ref(self) -> AtomRef:
        """An atom, as the one `AtomRef` of this parse for it."""
        at = self.pos
        name = self.expect("ident")
        if name in KEYWORDS:
            self.fail(f"{name!r} is reserved and cannot name an atom", at)
        key = (name, self.arguments(_Parser.name))
        ref = self.atoms.get(key)
        if ref is None:
            ref = self.atoms[key] = AtomRef(_atom(key))
        return ref

    def atom(self) -> Atom:
        return self.atom_ref().atom

    def formula(self, g: _Grammar) -> object:
        """One formula of grammar g.  Each open bracket keeps the operand
        chains of the formula around it and the `not`s before it."""
        kinds = self.kinds
        groups: list[tuple[_Group, tuple[list, list, list], int]] = []
        chains: tuple[list, list, list] = ([], [], [])  # operands of `&`, `|`, `->`
        nots = 0
        while True:
            kind = kinds[self.pos]
            if kind == "ident" and self.texts[self.pos] == "not":
                self.pos += 1
                nots += 1
                continue
            if kind == "(":
                self.pos += 1
                node = _Group(")")
            elif kind == "ident":
                node = g.operand(self)
            else:
                self.fail(f"expected a {g.noun}, found {self.texts[self.pos] or 'end of input'!r}")
            if type(node) is _Group:
                groups.append((node, chains, nots))
                chains, nots = ([], [], []), 0
                continue
            while True:  # node is a finished operand
                while nots:
                    node = g.neg(node)
                    nots -= 1
                conjs, disjs, impls = chains
                level = _BINDS.get(kinds[self.pos], -1)
                if level == 2:
                    conjs.append(node)
                    self.pos += 1
                    break
                if conjs:  # the `&` chain ends
                    conjs.append(node)
                    node = g.conj(conjs)
                    conjs.clear()
                if level == 1:
                    disjs.append(node)
                    self.pos += 1
                    break
                if disjs:  # the `|` chain ends
                    disjs.append(node)
                    node = g.disj(disjs)
                    disjs.clear()
                if level == 0:
                    impls.append(node)
                    self.pos += 1
                    break
                # the formula ends: `->` nests to the right, then its bracket closes
                while impls:
                    node = g.impl(impls.pop(), node)
                if not groups:
                    return node
                group, outer, outer_nots = groups[-1]
                if group.items is not None:
                    group.items.append(node)
                    if kinds[self.pos] == ";":
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
        while self.kinds[self.pos] != "eof":
            out.append(self.formula(g))
            self.expect(".")
        return out


def _operand(p: _Parser) -> Formula | _Group:
    text = p.texts[p.pos]
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
        if p.kinds[p.pos] == "}":
            p.pos += 1
            return node(())
        return _Group("}", node, [])
    return p.atom_ref()


_GROUND = _Grammar("formula", _operand, neg, Impl, disj, conj)


def parse_formula(text: str) -> Formula:
    """Parse a single formula; the whole input must be consumed."""
    p = _Parser(text)
    f = p.formula(_GROUND)
    p.end("formula")
    return f


class ParsedProgram(list):
    """The formulas of a program, in order, and `atoms`, the atoms they
    mention, which the parse meets anyway."""

    __slots__ = ("atoms",)


def parse_program(text: str) -> ParsedProgram:
    """Parse a sequence of '.'-terminated formulas."""
    p = _Parser(text)
    out = ParsedProgram(p.program(_GROUND))
    out.atoms = frozenset([ref.atom for ref in p.atoms.values()])
    return out


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
    atoms = [] if p.kinds[p.pos] == "}" else p.commas(_Parser.atom)
    p.expect("}")
    p.end("interpretation")
    return frozenset(atoms)
