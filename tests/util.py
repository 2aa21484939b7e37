"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

from astable import BOT, Atom, AtomRef, Conj, Disj, Formula, atom, conj, impl, neg, satisfies, reduct


def guard_program(elements=("a", "b")) -> Formula:
    """q holds when every p(e) fails: And{not p(e) ...} -> q."""
    return impl(conj([neg(atom("p", e)) for e in elements]), atom("q"))


def tc_definition(elements) -> tuple[Formula, frozenset[Atom]]:
    """Transitive closure of p as a recursive definition of the q atoms."""
    clauses: list[Formula] = []
    for x, y in itertools.product(elements, repeat=2):
        clauses.append(impl(atom("p", x, y), atom("q", x, y)))
    for x, y, z in itertools.product(elements, repeat=3):
        clauses.append(impl(conj([atom("q", x, y), atom("q", y, z)]), atom("q", x, z)))
    q_set = frozenset(Atom("q", (x, y)) for x, y in itertools.product(elements, repeat=2))
    return conj(clauses), q_set


def all_subsets(atoms) -> list[frozenset[Atom]]:
    atoms = sorted(atoms)
    return [
        frozenset(combo)
        for size in range(len(atoms) + 1)
        for combo in itertools.combinations(atoms, size)
    ]


def brute_a_stable(f: Formula, sigma, a) -> set[frozenset[Atom]]:
    """Straight-from-the-definition enumeration: i satisfies its reduct and
    is minimal under the A-order among interpretations doing so.  Kept free
    of the library's search-space pruning so it can act as an oracle."""
    sigma = frozenset(sigma)
    a = frozenset(a)
    out = set()
    for i in all_subsets(sigma):
        r = reduct(f, i)
        if not satisfies(i, r):
            continue
        if any(
            j != i and j <= i and (i - j) <= a and satisfies(j, r)
            for j in all_subsets(i)
        ):
            continue
        out.add(i)
    return out


def occurrence_sets(f):
    """Tree-walk oracle tracking antecedent depth and negation context.

    Returns (strictly positive, positive nonnegated, negative nonnegated)
    from raw occurrences: strictly positive means inside no antecedent at
    all; nonnegated means not inside the antecedent of an implication whose
    consequent is bot; the sign is the parity of enclosing antecedents.
    """
    sp, pnn, nnn = set(), set(), set()

    def walk(g, ante_depth, negated):
        if isinstance(g, AtomRef):
            if ante_depth == 0:
                sp.add(g.atom)
            if not negated:
                (pnn if ante_depth % 2 == 0 else nnn).add(g.atom)
        elif isinstance(g, (Conj, Disj)):
            for c in g.children:
                walk(c, ante_depth, negated)
        else:
            walk(g.lhs, ante_depth + 1, negated or g.rhs == BOT)
            walk(g.rhs, ante_depth, negated)

    walk(f, 0, False)
    return frozenset(sp), frozenset(pnn), frozenset(nnn)
