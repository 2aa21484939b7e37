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
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .formula import Atom, AtomRef, Conj, Formula, Impl, TOP, atoms_of, conj, satisfies
from .stable import (
    DEFAULT_MAX_ATOMS,
    Interpretation,
    _check_cap,
    enumerate_a_stable,
    format_interpretation,
)


class DefinitionError(ValueError):
    pass


@dataclass(frozen=True)
class Clause:
    body: Formula
    pos_q: frozenset[Atom]
    head: Atom


@dataclass(frozen=True)
class Rejection:
    offender: Formula
    reason: str

    def __str__(self) -> str:
        return f"{self.reason}: {self.offender}"


@dataclass(frozen=True)
class DefinitionModule:
    clauses: tuple[Clause, ...]
    q_set: frozenset[Atom]
    source: Formula

    @property
    def is_explicit(self) -> bool:
        return all(not c.pos_q for c in self.clauses)


def recognize_definition(g: Formula, q: AbstractSet[Atom]) -> DefinitionModule | Rejection:
    """Check that g is a definition for q and split out its clauses.

    g may be a conjunction of clauses or a single clause.  Each clause must
    be an implication with a head atom from q; direct q-atom conjuncts of the
    antecedent are collected separately, and the rest of the antecedent must
    be q-free.  A failed check returns a Rejection naming the first offending
    conjunct; rejection is an answer, not an error.
    """
    q = frozenset(q)
    conjuncts: Sequence[Formula] = g.children if isinstance(g, Conj) else (g,)
    clauses = []
    for c in conjuncts:
        if not isinstance(c, Impl):
            return Rejection(c, "conjunct is not an implication")
        head = c.rhs
        if not isinstance(head, AtomRef) or head.atom not in q:
            return Rejection(c, "consequent is not a defined atom")
        ante = c.lhs
        if isinstance(ante, Conj):
            pos_q = frozenset(
                d.atom for d in ante.children if isinstance(d, AtomRef) and d.atom in q
            )
            rest = [d for d in ante.children if not (isinstance(d, AtomRef) and d.atom in q)]
            body = rest[0] if len(rest) == 1 else conj(rest)
        elif isinstance(ante, AtomRef) and ante.atom in q:
            pos_q = frozenset((ante.atom,))
            body = TOP
        else:
            pos_q = frozenset()
            body = ante
        offending = sorted(q & atoms_of(body))
        if offending:
            return Rejection(
                c, f"defined atom {offending[0]} occurs in a clause body"
            )
        clauses.append(Clause(body, pos_q, head.atom))
    return DefinitionModule(tuple(clauses), q, g)


def unique_q_stable(d: DefinitionModule, context: AbstractSet[Atom]) -> Interpretation:
    """The unique q-stable model of d whose q-free part equals `context`.

    Least fixpoint: bodies are q-free, so their truth is fixed by the
    context; a clause fires once its q-atom conjuncts have been derived.
    Terminates within len(q_set) rounds, each adding at least one atom.
    """
    ctx = frozenset(context)
    if ctx & d.q_set:
        names = ", ".join(str(a) for a in sorted(ctx & d.q_set))
        raise DefinitionError(f"context must not mention defined atoms: {names}")
    live = [c for c in d.clauses if satisfies(ctx, c.body)]
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for c in live:
            if c.head not in derived and c.pos_q <= derived:
                derived.add(c.head)
                changed = True
    return ctx | derived


def intersection_oracle(
    d: DefinitionModule,
    context: AbstractSet[Atom],
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Interpretation:
    """Independent route to the same completion: intersect every model of the
    definition whose q-free part equals the context."""
    ctx = frozenset(context)
    if ctx & d.q_set:
        names = ", ".join(str(a) for a in sorted(ctx & d.q_set))
        raise DefinitionError(f"context must not mention defined atoms: {names}")
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


@dataclass(frozen=True)
class ConservativityReport:
    """Either a certified pairing of stable models or a counterexample."""

    pairs: tuple[tuple[Interpretation, Interpretation], ...] | None
    counterexample: str | None

    @property
    def bijection(self) -> bool:
        return self.counterexample is None


def check_conservativity(
    f: Formula,
    d: DefinitionModule,
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    workers: int = 1,
) -> ConservativityReport:
    """Certify that dropping the defined atoms maps the stable models of
    f & definition one-to-one onto the stable models of f.

    Requires that no defined atom occurs in f.  Returns the pairing, or the
    first interpretation witnessing a failure.
    """
    present = sorted(d.q_set & atoms_of(f))
    if present:
        raise DefinitionError(
            f"defined atom {present[0]} occurs in the base formula"
        )
    combined = conj((f, d.source))
    sig = frozenset(sigma) if sigma is not None else atoms_of(combined) | d.q_set
    sm_both = enumerate_a_stable(combined, sig, sig, max_atoms=max_atoms, workers=workers)
    sm_base = enumerate_a_stable(f, sig, sig, max_atoms=max_atoms, workers=workers)

    base_set = sm_base.as_set()
    seen: dict[Interpretation, Interpretation] = {}
    pairs = []
    for full in sm_both:
        projected = full - d.q_set
        if projected not in base_set:
            return ConservativityReport(
                None,
                f"stable model {format_interpretation(full)} projects to "
                f"{format_interpretation(projected)}, which is not stable for the base",
            )
        if projected in seen:
            return ConservativityReport(
                None,
                f"stable models {format_interpretation(seen[projected])} and "
                f"{format_interpretation(full)} project to the same base model",
            )
        seen[projected] = full
        pairs.append((full, projected))
    uncovered = base_set - set(seen)
    if uncovered:
        missing = min(uncovered, key=lambda m: sorted(m))
        return ConservativityReport(
            None,
            f"base stable model {format_interpretation(missing)} has no completion",
        )
    return ConservativityReport(tuple(pairs), None)
