"""First-order fragment: AST, parser, finite-domain grounding.

Terms are variables (uppercase) or object constants (lowercase); there are no
function symbols, so the ground signature stays finite.  Grounding expands
quantifiers over a declared finite domain, maps equalities to top/bot, and is
homomorphic on connectives.  Domain elements serve as their own names: the
element written `a` grounds to the constant argument `a`.

Input format:

    #domain a, b, c.
    forall X (not p(X)) -> q.
    exists X (p(X) & X = a).

Stability of a finite interpretation under a list of intensional predicates
is defined operationally through grounding: the extent atoms must form a
stable model of the ground formula relative to all atoms of the listed
predicates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Sequence

from .depgraph import DepGraph, dep_graph
from .formula import Atom, AtomRef, BOT, Conj, Disj, Formula, Impl, TOP
from .stable import is_a_stable
from .syntax import ParseError, _Parser


class GroundingError(ValueError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Cst:
    name: str


Term = Var | Cst


class FOSentence:
    __slots__ = ()


@dataclass(frozen=True)
class FOAtom(FOSentence):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class FOEq(FOSentence):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FOTop(FOSentence):
    pass


@dataclass(frozen=True)
class FOBot(FOSentence):
    pass


@dataclass(frozen=True)
class FOAnd(FOSentence):
    lhs: FOSentence
    rhs: FOSentence


@dataclass(frozen=True)
class FOOr(FOSentence):
    lhs: FOSentence
    rhs: FOSentence


@dataclass(frozen=True)
class FOImpl(FOSentence):
    lhs: FOSentence
    rhs: FOSentence


@dataclass(frozen=True)
class FOForall(FOSentence):
    var: str
    body: FOSentence


@dataclass(frozen=True)
class FOExists(FOSentence):
    var: str
    body: FOSentence


def fo_neg(f: FOSentence) -> FOImpl:
    return FOImpl(f, FOBot())


@dataclass
class FOInterpretation:
    """A finite interpretation: named domain elements, a constant map, and
    one extent per predicate."""

    domain: tuple[str, ...]
    const_map: dict[str, str] = field(default_factory=dict)
    extents: dict[str, frozenset[tuple[str, ...]]] = field(default_factory=dict)
    arities: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.domain:
            raise GroundingError("the domain must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise GroundingError("duplicate domain elements")
        dom = set(self.domain)
        for c, e in self.const_map.items():
            if e not in dom:
                raise GroundingError(f"constant {c} maps outside the domain: {e}")
        for p, tuples in self.extents.items():
            k = self.arities.setdefault(p, len(next(iter(tuples))) if tuples else 0)
            for t in tuples:
                if len(t) != k:
                    raise GroundingError(f"extent tuple {t} of {p} has the wrong arity")
                if not set(t) <= dom:
                    raise GroundingError(f"extent tuple {t} of {p} leaves the domain")

    @classmethod
    def herbrand(
        cls,
        domain: Sequence[str],
        extents: dict[str, AbstractSet[tuple[str, ...]]] | None = None,
        arities: dict[str, int] | None = None,
    ) -> "FOInterpretation":
        """Interpretation whose constants name themselves."""
        dom = tuple(domain)
        ext = {p: frozenset(ts) for p, ts in (extents or {}).items()}
        return cls(dom, {e: e for e in dom}, ext, dict(arities or {}))


@dataclass(frozen=True)
class FOProgram:
    domain: tuple[str, ...]
    sentences: tuple[FOSentence, ...]


def _eval_term(t: Term, env: dict[str, str], m: FOInterpretation) -> str:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise GroundingError(f"unbound variable: {t.name}") from None
    try:
        return m.const_map[t.name]
    except KeyError:
        raise GroundingError(f"constant {t.name} is not interpreted") from None


def infer_arities(
    sentences: Iterable[FOSentence], known: dict[str, int] | None = None
) -> dict[str, int]:
    """Predicate arities used by the sentences; inconsistent use is an error."""
    out = dict(known or {})
    stack: list[FOSentence] = list(sentences)
    while stack:
        g = stack.pop()
        if isinstance(g, FOAtom):
            k = out.setdefault(g.pred, len(g.args))
            if k != len(g.args):
                raise GroundingError(
                    f"predicate {g.pred} used with arity {len(g.args)}, expected {k}"
                )
        elif isinstance(g, (FOAnd, FOOr, FOImpl)):
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif isinstance(g, (FOForall, FOExists)):
            stack.append(g.body)
    return out


def ground(f: FOSentence, m: FOInterpretation) -> Formula:
    """Ground formula of the closed sentence f under m.

    Predicate atoms become ground atoms over element names, equalities become
    top or bot, connectives map through, and quantifiers expand to set-valued
    conjunctions or disjunctions over the domain.
    """
    infer_arities([f], m.arities)
    return _ground(f, m, {})


def _ground(f: FOSentence, m: FOInterpretation, env: dict[str, str]) -> Formula:
    if isinstance(f, FOAtom):
        return AtomRef(Atom(f.pred, tuple(_eval_term(t, env, m) for t in f.args)))
    if isinstance(f, FOEq):
        return TOP if _eval_term(f.lhs, env, m) == _eval_term(f.rhs, env, m) else BOT
    if isinstance(f, FOTop):
        return TOP
    if isinstance(f, FOBot):
        return BOT
    if isinstance(f, FOAnd):
        return Conj((_ground(f.lhs, m, env), _ground(f.rhs, m, env)))
    if isinstance(f, FOOr):
        return Disj((_ground(f.lhs, m, env), _ground(f.rhs, m, env)))
    if isinstance(f, FOImpl):
        return Impl(_ground(f.lhs, m, env), _ground(f.rhs, m, env))
    if isinstance(f, FOForall):
        return Conj(tuple(_ground(f.body, m, {**env, f.var: u}) for u in m.domain))
    assert isinstance(f, FOExists)
    return Disj(tuple(_ground(f.body, m, {**env, f.var: u}) for u in m.domain))


def ground_program(sentences: Sequence[FOSentence], m: FOInterpretation) -> list[Formula]:
    return [ground(s, m) for s in sentences]


def fo_satisfies(m: FOInterpretation, f: FOSentence) -> bool:
    """Direct first-order evaluation over the finite domain."""
    return _fo_sat(f, m, {})


def _fo_sat(f: FOSentence, m: FOInterpretation, env: dict[str, str]) -> bool:
    if isinstance(f, FOAtom):
        args = tuple(_eval_term(t, env, m) for t in f.args)
        return args in m.extents.get(f.pred, frozenset())
    if isinstance(f, FOEq):
        return _eval_term(f.lhs, env, m) == _eval_term(f.rhs, env, m)
    if isinstance(f, FOTop):
        return True
    if isinstance(f, FOBot):
        return False
    if isinstance(f, FOAnd):
        return _fo_sat(f.lhs, m, env) and _fo_sat(f.rhs, m, env)
    if isinstance(f, FOOr):
        return _fo_sat(f.lhs, m, env) or _fo_sat(f.rhs, m, env)
    if isinstance(f, FOImpl):
        return not _fo_sat(f.lhs, m, env) or _fo_sat(f.rhs, m, env)
    if isinstance(f, FOForall):
        return all(_fo_sat(f.body, m, {**env, f.var: u}) for u in m.domain)
    assert isinstance(f, FOExists)
    return any(_fo_sat(f.body, m, {**env, f.var: u}) for u in m.domain)


def extent_atoms(m: FOInterpretation) -> frozenset[Atom]:
    """The ground atoms made true by m's extents."""
    return frozenset(
        Atom(p, t) for p, tuples in m.extents.items() for t in tuples
    )


def pred_atoms(preds: Sequence[str], m: FOInterpretation) -> frozenset[Atom]:
    """All ground atoms over the listed predicates and m's domain."""
    out: set[Atom] = set()
    for p in preds:
        try:
            k = m.arities[p]
        except KeyError:
            raise GroundingError(f"unknown predicate: {p}") from None
        out.update(Atom(p, combo) for combo in itertools.product(m.domain, repeat=k))
    return frozenset(out)


def ground_signature(m: FOInterpretation) -> tuple[Atom, ...]:
    """Every ground atom over m's predicates, in canonical order."""
    return tuple(sorted(pred_atoms(sorted(m.arities), m)))


def is_p_stable_fo(f: FOSentence, preds: Sequence[str], m: FOInterpretation) -> bool:
    """Stability of m for f with the listed predicates intensional, decided
    on the ground side: the extent atoms must be stable for the grounding of
    f relative to all atoms of those predicates."""
    g = ground(f, m)
    return is_a_stable(g, extent_atoms(m), pred_atoms(preds, m))


def fo_predicates(f: FOSentence) -> frozenset[str]:
    out: set[str] = set()
    stack: list[FOSentence] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, FOAtom):
            out.add(g.pred)
        elif isinstance(g, (FOAnd, FOOr, FOImpl)):
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif isinstance(g, (FOForall, FOExists)):
            stack.append(g.body)
    return frozenset(out)


def _skeleton(f: FOSentence) -> Formula:
    """The predicate skeleton of f as a ground formula.

    Predicate atoms lose their arguments, equalities and top become TOP, bot
    becomes BOT, connectives map through, and a quantifier becomes a
    one-child conjunction or disjunction, so that `forall X (bot)` stays
    distinct from the bot that the nonnegated analyses test for.
    """
    done: list[Formula] = []
    stack: list[tuple[FOSentence, bool]] = [(f, False)]
    while stack:
        g, children_done = stack.pop()
        t = type(g)
        if t is FOAtom:
            done.append(AtomRef(Atom(g.pred)))
        elif t is FOBot:
            done.append(BOT)
        elif t is FOEq or t is FOTop:
            done.append(TOP)
        elif not children_done:
            stack.append((g, True))
            if t is FOForall or t is FOExists:
                stack.append((g.body, False))
            else:
                stack.append((g.rhs, False))
                stack.append((g.lhs, False))
        elif t is FOForall:
            done.append(Conj((done.pop(),)))
        elif t is FOExists:
            done.append(Disj((done.pop(),)))
        else:
            rhs = done.pop()
            lhs = done.pop()
            if t is FOImpl:
                done.append(Impl(lhs, rhs))
            else:
                done.append((Conj if t is FOAnd else Disj)((lhs, rhs)))
    return done.pop()


def fo_dep_graph(f: FOSentence, preds: Sequence[str]) -> DepGraph:
    """Predicate-level positive dependency graph: the ground dependency graph
    of f's predicate skeleton, whose atoms are the predicate names."""
    return dep_graph(_skeleton(f), {Atom(p) for p in preds})


# --- parsing ---------------------------------------------------------------


class _FOParser(_Parser):
    """Recursive-descent parser for the first-order input format."""

    def sentence(self) -> FOSentence:
        lhs = self.fo_disj()
        if self.peek().kind == "->":
            self.next()
            return FOImpl(lhs, self.sentence())
        return lhs

    def fo_disj(self) -> FOSentence:
        out = self.fo_conj()
        while self.peek().kind == "|":
            self.next()
            out = FOOr(out, self.fo_conj())
        return out

    def fo_conj(self) -> FOSentence:
        out = self.fo_unary()
        while self.peek().kind == "&":
            self.next()
            out = FOAnd(out, self.fo_unary())
        return out

    def fo_unary(self) -> FOSentence:
        t = self.peek()
        if t.kind == "ident" and t.text == "not":
            self.next()
            return fo_neg(self.fo_unary())
        if t.kind == "ident" and t.text in ("forall", "exists"):
            self.next()
            v = self.expect("ident")
            if not v.text[0].isupper():
                raise ParseError(f"quantified variable must be uppercase: {v.text!r}", v.line, v.col)
            self.expect("(")
            body = self.sentence()
            self.expect(")")
            return FOForall(v.text, body) if t.text == "forall" else FOExists(v.text, body)
        return self.fo_primary()

    def fo_primary(self) -> FOSentence:
        t = self.peek()
        if t.kind == "(":
            self.next()
            f = self.sentence()
            self.expect(")")
            return f
        if t.kind != "ident":
            self.fail(f"expected a sentence, found {t.text or 'end of input'!r}")
        if t.text == "top":
            self.next()
            return FOTop()
        if t.text == "bot":
            self.next()
            return FOBot()
        first = self.fo_term()
        if self.peek().kind == "=":
            self.next()
            return FOEq(first, self.fo_term())
        if isinstance(first, Var):
            self.fail(f"a bare variable is not a sentence: {first.name}")
        # predicate atom
        pred = first.name
        args: list[Term] = []
        if self.peek().kind == "(":
            self.next()
            args.append(self.fo_term())
            while self.peek().kind == ",":
                self.next()
                args.append(self.fo_term())
            self.expect(")")
        return FOAtom(pred, tuple(args))

    def fo_term(self) -> Term:
        t = self.expect("ident")
        if t.text in ("not", "top", "bot", "forall", "exists"):
            raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
        return Var(t.text) if t.text[0].isupper() else Cst(t.text)


def parse_fo_program(text: str) -> FOProgram:
    """Parse `#domain` directives and '.'-terminated sentences."""
    domain: list[str] = []
    sentence_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("%", 1)[0].strip()
        if stripped.startswith("#domain"):
            rest = stripped[len("#domain") :].strip()
            if rest.endswith("."):
                rest = rest[:-1]
            for part in rest.split(","):
                name = part.strip()
                if not name:
                    raise ParseError("empty domain element", lineno, 1)
                if not name[0].islower():
                    raise ParseError(f"domain elements must be lowercase: {name!r}", lineno, 1)
                if name not in domain:
                    domain.append(name)
            sentence_lines.append("")
        else:
            sentence_lines.append(raw)
    body = "\n".join(sentence_lines)

    parser = _FOParser(body)
    sentences: list[FOSentence] = []
    while not parser.at_eof():
        sentences.append(parser.sentence())
        parser.expect(".")
    return FOProgram(tuple(domain), tuple(sentences))


def parse_fo_sentence(text: str) -> FOSentence:
    parser = _FOParser(text)
    s = parser.sentence()
    if not parser.at_eof():
        parser.fail("trailing input after sentence")
    return s
