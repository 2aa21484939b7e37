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
from functools import partial, reduce
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .depgraph import DepGraph, dep_graph
from .formula import _IDENT_RE, KEYWORDS, Atom, AtomRef, BOT, Conj, Disj, Formula, Impl, TOP
from .records import Record
from .stable import is_a_stable
from .syntax import ParseError, _atom, _Grammar, _Group, _Parser


class GroundingError(ValueError):
    pass


def _check_pred(name: str) -> None:
    """Refuse a predicate name that no atom may carry.  Predicate names and
    domain elements are checked where they enter, in `FOAtom` and
    `FOInterpretation`, so the grounding builds its atoms unchecked."""
    if not _IDENT_RE.match(name) or name in KEYWORDS:
        raise GroundingError(f"invalid predicate name: {name!r}")


class _Term(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Var(_Term):
    __slots__ = ()


class Cst(_Term):
    __slots__ = ()


Term = Var | Cst


class FOSentence(Record):
    __slots__ = ()


class FOAtom(FOSentence):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...] = ()) -> None:
        _check_pred(pred)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class FOEq(FOSentence):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class FOTop(FOSentence):
    __slots__ = ()


class FOBot(FOSentence):
    __slots__ = ()


class _FOConnective(FOSentence):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: FOSentence, rhs: FOSentence) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class FOAnd(_FOConnective):
    __slots__ = ()


class FOOr(_FOConnective):
    __slots__ = ()


class FOImpl(_FOConnective):
    __slots__ = ()


class _FOQuantifier(FOSentence):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: FOSentence) -> None:
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class FOForall(_FOQuantifier):
    __slots__ = ()


class FOExists(_FOQuantifier):
    __slots__ = ()


def fo_neg(f: FOSentence) -> FOImpl:
    return FOImpl(f, FOBot())


class FOInterpretation(Record):
    """A finite interpretation: named domain elements, a constant map, and
    one extent per predicate.  Unlike the other records it is mutable and
    unhashable."""

    __slots__ = ("domain", "const_map", "extents", "arities")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        domain: tuple[str, ...],
        const_map: dict[str, str] | None = None,
        extents: dict[str, frozenset[tuple[str, ...]]] | None = None,
        arities: dict[str, int] | None = None,
    ) -> None:
        self.domain = domain
        self.const_map = {} if const_map is None else const_map
        self.extents = {} if extents is None else extents
        self.arities = {} if arities is None else arities
        if not self.domain:
            raise GroundingError("the domain must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise GroundingError("duplicate domain elements")
        for e in self.domain:
            if not _IDENT_RE.match(e):
                raise GroundingError(f"invalid domain element: {e!r}")
        for p in (*self.extents, *self.arities):
            _check_pred(p)
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


class FOProgram(Record):
    __slots__ = ("domain", "sentences")

    def __init__(self, domain: tuple[str, ...], sentences: tuple[FOSentence, ...]) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "sentences", sentences)


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


def _fo_atoms(sentences: Iterable[FOSentence]) -> Iterator[FOAtom]:
    """Every predicate atom of the sentences, by one explicit-stack walk."""
    stack: list[FOSentence] = list(sentences)
    while stack:
        g = stack.pop()
        if isinstance(g, FOAtom):
            yield g
        elif isinstance(g, (FOAnd, FOOr, FOImpl)):
            stack += (g.lhs, g.rhs)
        elif isinstance(g, (FOForall, FOExists)):
            stack.append(g.body)


def infer_arities(
    sentences: Iterable[FOSentence], known: dict[str, int] | None = None
) -> dict[str, int]:
    """Predicate arities used by the sentences; inconsistent use is an error."""
    out = dict(known or {})
    for g in _fo_atoms(sentences):
        k = out.setdefault(g.pred, len(g.args))
        if k != len(g.args):
            raise GroundingError(
                f"predicate {g.pred} used with arity {len(g.args)}, expected {k}"
            )
    return out


def _build(
    f: FOSentence,
    leaf: Callable[[FOSentence, dict[str, str]], Formula],
    scope: Callable[[dict[str, str], str], Sequence[dict[str, str]]],
) -> Formula:
    """The ground formula that f maps to, built bottom-up by one
    explicit-stack walk.

    `leaf(g, env)` maps an atom, equality, top or bot under the variable
    binding env, and `scope(env, var)` gives the bindings under which a
    quantifier's body is built, one body each.  An implication maps to an
    implication, a conjunction and a forall to a conjunction of their parts,
    a disjunction and an exists to a disjunction.  Parts are built left to
    right, bodies in the order of their bindings.
    """
    done: list[Formula] = []
    stack: list[tuple] = [(f, {})]
    while stack:
        g, env = stack.pop()
        t = type(g)
        if t is int:  # the last g parts are done and env is the kind of their node
            parts = tuple(done[-g:])
            del done[-g:]
            done.append(Impl(*parts) if env is FOImpl else (Conj if env in (FOAnd, FOForall) else Disj)(parts))
        elif t is FOImpl or t is FOAnd or t is FOOr:
            stack += ((2, t), (g.rhs, env), (g.lhs, env))
        elif t is FOForall or t is FOExists:
            envs = scope(env, g.var)
            stack += [(len(envs), t)] + [(g.body, e) for e in reversed(envs)]
        else:
            done.append(leaf(g, env))
    return done[0]


def ground(
    f: FOSentence, m: FOInterpretation, atoms: dict[tuple[str, tuple[str, ...]], AtomRef] | None = None
) -> Formula:
    """Ground formula of the closed sentence f under m.

    Predicate atoms become ground atoms over element names, one `AtomRef`
    per distinct ground atom shared by its occurrences and kept in `atoms`
    (a fresh cache when not given); equalities become top or bot,
    connectives map through, and quantifiers expand to set-valued
    conjunctions or disjunctions over the domain.
    """
    infer_arities([f], m.arities)
    if atoms is None:
        atoms = {}

    def leaf(g: FOSentence, env: dict[str, str]) -> Formula:
        t = type(g)
        if t is FOAtom:
            key = (g.pred, tuple([_eval_term(a, env, m) for a in g.args]))
            ref = atoms.get(key)
            if ref is None:
                ref = atoms[key] = AtomRef(_atom(key))
            return ref
        if t is FOEq:
            return TOP if _eval_term(g.lhs, env, m) == _eval_term(g.rhs, env, m) else BOT
        return TOP if t is FOTop else BOT

    return _build(f, leaf, lambda env, var: [{**env, var: u} for u in m.domain])


def ground_program(sentences: Sequence[FOSentence], m: FOInterpretation) -> list[Formula]:
    """Each sentence grounded under m, all sharing one `AtomRef` per
    distinct ground atom."""
    atoms: dict[tuple[str, tuple[str, ...]], AtomRef] = {}
    return [ground(s, m, atoms) for s in sentences]


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
    return frozenset([_atom((p, t)) for p, tuples in m.extents.items() for t in tuples])


def pred_atoms(preds: Sequence[str], m: FOInterpretation) -> frozenset[Atom]:
    """All ground atoms over the listed predicates and m's domain."""
    out: set[Atom] = set()
    for p in preds:
        try:
            k = m.arities[p]
        except KeyError:
            raise GroundingError(f"unknown predicate: {p}") from None
        out.update(map(_atom, zip(itertools.repeat(p), itertools.product(m.domain, repeat=k))))
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
    return frozenset(g.pred for g in _fo_atoms([f]))


def _skeleton(f: FOSentence) -> Formula:
    """The predicate skeleton of f as a ground formula.

    Predicate atoms lose their arguments, equalities and top become TOP, bot
    becomes BOT, connectives map through, and a quantifier becomes a
    one-child conjunction or disjunction, so that `forall X (bot)` stays
    distinct from the bot that the nonnegated analyses test for.
    """
    def leaf(g: FOSentence, env: dict[str, str]) -> Formula:
        return AtomRef(Atom(g.pred)) if type(g) is FOAtom else BOT if type(g) is FOBot else TOP

    return _build(f, leaf, lambda env, var: (env,))


def fo_dep_graph(f: FOSentence, preds: Sequence[str]) -> DepGraph:
    """Predicate-level positive dependency graph: the ground dependency graph
    of f's predicate skeleton, whose atoms are the predicate names."""
    return dep_graph(_skeleton(f), {Atom(p) for p in preds})


# --- parsing ---------------------------------------------------------------


def _term(p: _Parser) -> Term:
    at = p.pos
    text = p.expect("ident")
    if text in ("not", "top", "bot", "forall", "exists"):
        p.fail(f"{text!r} is reserved", at)
    return Var(text) if text[0].isupper() else Cst(text)


def _operand(p: _Parser) -> FOSentence | _Group:
    text = p.texts[p.pos]
    if text in ("forall", "exists"):
        p.pos += 1
        at = p.pos
        var = p.expect("ident")
        if not var[0].isupper():
            p.fail(f"quantified variable must be uppercase: {var!r}", at)
        p.expect("(")
        return _Group(")", partial(FOForall if text == "forall" else FOExists, var))
    if text == "top":
        p.pos += 1
        return FOTop()
    if text == "bot":
        p.pos += 1
        return FOBot()
    first = _term(p)
    if p.kinds[p.pos] == "=":
        p.pos += 1
        return FOEq(first, _term(p))
    if isinstance(first, Var):
        p.fail(f"a bare variable is not a sentence: {first.name}")
    return FOAtom(first.name, p.arguments(_term))


_FO = _Grammar("sentence", _operand, fo_neg, FOImpl, partial(reduce, FOOr), partial(reduce, FOAnd))


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
                if not (name.isascii() and name.isidentifier()):
                    raise ParseError(f"invalid domain element: {name!r}", lineno, 1)
                if name not in domain:
                    domain.append(name)
            sentence_lines.append("")
        else:
            sentence_lines.append(raw)
    body = "\n".join(sentence_lines)

    return FOProgram(tuple(domain), tuple(_Parser(body).program(_FO)))


def parse_fo_sentence(text: str) -> FOSentence:
    p = _Parser(text)
    s = p.formula(_FO)
    p.end("sentence")
    return s
