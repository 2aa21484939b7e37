"""Recognizing definitions and certifying that they are conservative.

A definition for an atom set Q is a conjunction of clauses `H & C -> q` where
q is in Q, C is a set of Q atoms appearing as direct conjuncts of the
antecedent, and the remaining antecedent H mentions no Q atom.  Such a module
pins down the Q part of a model uniquely: for any Q-free context there is
exactly one Q-stable completion, computable as a least fixpoint and,
independently, as the intersection of all models sharing that context.
Conjoining a definition onto a formula that does not mention Q leaves the
stable models in one-to-one correspondence (drop the Q atoms to go back).
"""

from __future__ import annotations

import itertools
from typing import AbstractSet

from .formula import Atom, Formula, Impl, _check_cap, atoms_of, conj, read_rule, satisfies
from .records import Record
from .stable import (
    DEFAULT_MAX_ATOMS,
    Interpretation,
    ModelSet,
    _clause,
    _least_fixpoint,
    enumerate_a_stable,
    format_masks,
)


class DefinitionError(ValueError):
    pass


class Clause(Record):
    __slots__ = ("body", "pos_q", "head")

    def __init__(self, body: Formula, pos_q: frozenset[Atom], head: Atom) -> None:
        _set_body(self, body)
        _set_pos_q(self, pos_q)
        _set_head(self, head)


_set_body = Clause.body.__set__
_set_pos_q = Clause.pos_q.__set__
_set_head = Clause.head.__set__


class Rejection(Record):
    __slots__ = ("offender", "reason")

    def __init__(self, offender: Formula, reason: str) -> None:
        object.__setattr__(self, "offender", offender)
        object.__setattr__(self, "reason", reason)

    def __str__(self) -> str:
        return f"{self.reason}: {self.offender}"


class DefinitionModule(Record):
    __slots__ = ("clauses", "q_set", "source")

    def __init__(self, clauses: tuple[Clause, ...], q_set: frozenset[Atom], source: Formula) -> None:
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "q_set", q_set)
        object.__setattr__(self, "source", source)

    @property
    def is_explicit(self) -> bool:
        return all(not c.pos_q for c in self.clauses)


def recognize_definition(g: Formula, q: AbstractSet[Atom]) -> DefinitionModule | Rejection:
    """Check that g is a definition for q and split out its clauses.

    g is read as the solvers read a conjunct, into its record
    (`formula.read_rule`): nested conjunctions are opened into its pieces,
    in order, and each piece is a clause or the reason it is none.  Each
    clause must be an implication with a head atom from q; direct q-atom
    conjuncts of the antecedent are collected separately, and the rest of
    the antecedent must be q-free, as `stable._clause` reads the piece for
    the solvers (only a fact is a clause there and not here).  A failed
    check returns a Rejection naming the first offending piece; rejection
    is an answer, not an error.
    """
    q = frozenset(q)
    clauses = []
    for piece in read_rule(g).pieces:
        c = piece[0]
        clause = _clause(piece, q) if type(c) is Impl else "conjunct is not an implication"
        if type(clause) is str:
            return Rejection(c, clause)
        clauses.append(Clause(*clause))
    return DefinitionModule(tuple(clauses), q, g)


def _context(d: DefinitionModule, context: AbstractSet[Atom]) -> frozenset[Atom]:
    """The context as a set, refused with DefinitionError when it mentions
    an atom that d defines."""
    ctx = frozenset(context)
    if ctx & d.q_set:
        names = ", ".join(str(a) for a in sorted(ctx & d.q_set))
        raise DefinitionError(f"context must not mention defined atoms: {names}")
    return ctx


def unique_q_stable(d: DefinitionModule, context: AbstractSet[Atom]) -> Interpretation:
    """The unique q-stable model of d whose q-free part equals `context`.

    Least fixpoint, by the routine that decides definition parts and units
    for the solvers (`stable._least_fixpoint`) on one lane: bodies are
    q-free, so their truth is fixed by the context; a clause fires once its
    q-atom conjuncts have been derived.
    """
    ctx = _context(d, context)
    index = {x: k for k, x in enumerate(d.q_set)}
    fired = [(1, tuple(map(index.__getitem__, c.pos_q)), index[c.head]) for c in d.clauses if satisfies(ctx, c.body)]
    derived = _least_fixpoint(fired, len(index))
    return ctx.union(x for x, k in index.items() if derived[k])


def intersection_oracle(
    d: DefinitionModule,
    context: AbstractSet[Atom],
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Independent route to the same completion: intersect every model of the
    definition whose q-free part equals the context.  It shares only the
    check of its input with `unique_q_stable`."""
    ctx = _context(d, context)
    _check_cap(len(d.q_set), max_atoms)
    q_sorted = sorted(d.q_set)
    meet: set[Atom] | None = None
    for size in range(len(q_sorted) + 1):
        for combo in itertools.combinations(q_sorted, size):
            k = ctx | frozenset(combo)
            if satisfies(k, d.source):
                meet = set(k) if meet is None else meet & k
    assert meet is not None  # ctx | q_set always satisfies every clause
    return frozenset(meet)


class ConservativityReport(Record):
    """Either a certified pairing of stable models or a counterexample.

    When certified, `models` holds the stable models of f & definition and
    `q_mask` the bits of the defined atoms over `models.atoms`: each model
    pairs with its bitmask outside them.
    """

    __slots__ = ("models", "q_mask", "counterexample")

    def __init__(self, models: ModelSet | None, q_mask: int, counterexample: str | None) -> None:
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "q_mask", q_mask)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def bijection(self) -> bool:
        return self.counterexample is None

    @property
    def pairs(self) -> tuple[tuple[Interpretation, Interpretation], ...] | None:
        if self.models is None:
            return None
        q = frozenset(x for b, x in enumerate(self.models.atoms) if self.q_mask >> b & 1)
        return tuple((full, full - q) for full in self.models)

    def lines(self) -> list[str]:
        """Each pair as `{full} -> {projection}`, in the canonical order of
        the full models."""
        full = self.models
        projected = list(map((~self.q_mask).__and__, full.masks))
        return list(map("{} -> {}".format, full.lines(), format_masks(projected, full.atoms)))


def check_conservativity(
    f: Formula,
    d: DefinitionModule,
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ConservativityReport:
    """Certify that dropping the defined atoms maps the stable models of
    f & definition one-to-one onto the stable models of f.

    Requires that no defined atom occurs in f.  Returns the pairing, or the
    first interpretation witnessing a failure.  Models are compared as
    bitmasks over the atoms of the stable models of f & definition.
    """
    present = sorted(d.q_set & atoms_of(f))
    if present:
        raise DefinitionError(
            f"defined atom {present[0]} occurs in the base formula"
        )
    combined = conj((f, d.source))
    sig = frozenset(sigma) if sigma is not None else atoms_of(combined) | d.q_set
    sm_both = enumerate_a_stable(combined, sig, sig, max_atoms=max_atoms)
    sm_base = enumerate_a_stable(f, sig, sig, max_atoms=max_atoms)

    atoms = sm_both.atoms
    q_mask = sum(1 << b for b, x in enumerate(atoms) if x in d.q_set)
    base = {m: k for k, m in enumerate(sm_base.over(atoms))}  # to its index in canonical order
    seen: dict[int, int] = {}
    for full in sm_both.masks:
        projected = full & ~q_mask
        if projected not in base:
            full_text, projected_text = format_masks([full, projected], atoms)
            return ConservativityReport(
                None, 0,
                f"stable model {full_text} projects to {projected_text}, which is not stable for the base",
            )
        if projected in seen:
            first, second = format_masks([seen[projected], full], atoms)
            return ConservativityReport(None, 0, f"stable models {first} and {second} project to the same base model")
        seen[projected] = full
    uncovered = base.keys() - seen.keys()
    if uncovered:
        missing = sm_base.lines()[min(map(base.__getitem__, uncovered))]
        return ConservativityReport(None, 0, f"base stable model {missing} has no completion")
    return ConservativityReport(sm_both, q_mask, None)
