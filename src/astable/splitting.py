"""Splitting-based model computation.

Two checked strategies: intersecting the A-stable model sets of one formula
under the two halves of an infinitely separable partition, and intersecting
the model sets of two formulas whose strictly positive atoms avoid the other
half.  On top of them, a planner groups the conjuncts of a program into
units, the strongly connected components of the graph of which atoms each
rule head mentions, and a modular solver evaluates the units in condensation
order, carrying partial interpretations.  Units may depend on each other
through negation; positive dependency stays inside a unit, as the symmetric
splitting theorem asks.  How one unit is solved, its route, is for `stable`
to choose and run (`_unit_route`, `_unit_models`); this module keeps the
plan, the cap, the contexts each unit is solved in and the frontier.  Both
strategies verify their preconditions, and the modular solver refuses with
SplitPlanError when a conjunct's strictly positive intensional atoms span
dependency blocks; the CLI then answers by brute force.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from .depgraph import (
    Partition2,
    components,
    dep_graph,
    offending_scc,
    sccs,  # not called here; perfbench/spans.py wraps this name
    strictly_positive,
    strong_components,
    topological_order,
)
from .formula import (
    Atom,
    CapExceeded,
    Formula,
    Program,
    atoms_of,
    conj,
    satisfies,  # not called here; perfbench/spans.py wraps this name
)
from .records import Record
from .stable import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    _check_cap,
    _decode,
    _definition_route,
    _unit_models,
    _unit_program,
    _unit_route,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,  # not called here; perfbench/spans.py wraps this name
)

# a SplitPlanError shows at most this many characters of its conjunct and
# of its list of heads, so the CLI's fallback warning stays one short line
# on a deep or wide formula
_SHOWN_CHARS = 200


def _clipped(text: str) -> str:
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


class PreconditionError(ValueError):
    """One or more splitting preconditions are violated."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SplitPlanError(ValueError):
    def __init__(self, conjunct: Formula, message: str):
        super().__init__(message)
        self.conjunct = conjunct


def _separability_violation(f: Formula, p1: frozenset[Atom], p2: frozenset[Atom]) -> str | None:
    bad = offending_scc(dep_graph(f, p1 | p2), Partition2(p1, p2))
    if bad is None:
        return None
    return (
        "partition is not infinitely separable: strongly connected component "
        f"{format_interpretation(bad)} meets both parts"
    )


def split_models_lemma(
    f: Formula,
    p1: AbstractSet[Atom],
    p2: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ModelSet:
    """Models stable under p1 and under p2 at once; equals the p1|p2-stable
    models when {p1, p2} is infinitely separable on the dependency graph."""
    p1, p2 = frozenset(p1), frozenset(p2)
    violations = []
    if p1 & p2:
        names = ", ".join(str(a) for a in sorted(p1 & p2))
        raise PreconditionError([f"parts overlap on: {names}"])
    sep = _separability_violation(f, p1, p2)
    if sep:
        violations.append(sep)
    if violations:
        raise PreconditionError(violations)
    sig = frozenset(sigma) if sigma is not None else atoms_of(f) | p1 | p2
    m1 = enumerate_a_stable(f, p1, sig, max_atoms=max_atoms)
    m2 = enumerate_a_stable(f, p2, sig, max_atoms=max_atoms)
    return m1.intersection(m2)


def split_models_theorem(
    f: Formula,
    g: Formula,
    a1: AbstractSet[Atom],
    a2: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ModelSet:
    """Interpretations that are a1-stable for f and a2-stable for g; equals
    the (a1|a2)-stable models of f & g under the stated preconditions."""
    a1, a2 = frozenset(a1), frozenset(a2)
    violations = []
    if a1 & a2:
        names = ", ".join(str(a) for a in sorted(a1 & a2))
        violations.append(f"parts overlap on: {names}")
    hit = a2 & strictly_positive(f)
    if hit:
        names = ", ".join(str(a) for a in sorted(hit))
        violations.append(f"second part meets strictly positive atoms of the first formula: {names}")
    hit = a1 & strictly_positive(g)
    if hit:
        names = ", ".join(str(a) for a in sorted(hit))
        violations.append(f"first part meets strictly positive atoms of the second formula: {names}")
    if not (a1 & a2):
        sep = _separability_violation(conj((f, g)), a1, a2)
        if sep:
            violations.append(sep)
    if violations:
        raise PreconditionError(violations)
    sig = frozenset(sigma) if sigma is not None else atoms_of(f) | atoms_of(g) | a1 | a2
    mf = enumerate_a_stable(f, a1, sig, max_atoms=max_atoms)
    mg = enumerate_a_stable(g, a2, sig, max_atoms=max_atoms)
    return mf.intersection(mg)


class SplitPlan(Record):
    """Conjuncts grouped per evaluation unit, in condensation order.

    A unit is a strongly connected component of the mention graph over the
    intensional set, in which each strictly positive intensional atom of a
    conjunct (its head) reaches each intensional atom that conjunct
    mentions.  Unit atom sets are pairwise disjoint and cover the
    intensional set; a unit's formula is the conjunction of the conjuncts
    whose heads lie in it, and mentions only the unit's own atoms, atoms of
    later-listed units and atoms outside the intensional set.  Conjuncts
    without heads act as constraints and stay in the residual; the modular
    solver solves each of them last, as a unit with no atoms.
    """

    __slots__ = ("blocks", "residual")

    def __init__(self, blocks: tuple[tuple[frozenset[Atom], Formula], ...], residual: tuple[Formula, ...]) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "residual", residual)


def plan_split(
    conjuncts: Sequence[Formula],
    a: AbstractSet[Atom],
    mentions: Sequence[AbstractSet[Atom]] | None = None,
) -> SplitPlan:
    """The units of the conjuncts over the intensional set a (see
    `SplitPlan`), each listed before the units its formula mentions.
    `mentions`, when the caller has them, are the atoms of each conjunct
    (`atoms_of`), which are then not computed again.

    When some conjunct has two or more heads, the dependency graph is
    built first: each conjunct's heads must share a dependency block, else
    SplitPlanError.  The mention graph has a vertex per intensional atom,
    sorted, and no other: a headed conjunct's first head stands in for it,
    its other heads point to that one, and that one points to each
    intensional atom the conjunct mentions, so a conjunct costs heads +
    mentions edges and lies in its heads' unit.  A dependency edge is a
    mention path, so a unit is a union of blocks.
    """
    a = frozenset(a)
    heads = [strictly_positive(c) & a for c in conjuncts]
    if any(len(hs) > 1 for hs in heads):
        _, block_of = components(dep_graph(conjuncts, a))
        for c, hs in zip(conjuncts, heads):
            if len({block_of[x] for x in hs}) > 1:
                names = _clipped(", ".join(str(p) for p in sorted(hs)))
                raise SplitPlanError(
                    c,
                    f"conjunct '{_clipped(str(c))}' has strictly positive intensional atoms {names} "
                    "spanning multiple dependency blocks",
                )
    atoms = sorted(a)
    index = {x: k for k, x in enumerate(atoms)}
    succs: list[list[int]] = [[] for _ in atoms]
    headed: list[tuple[int, Formula]] = []  # (first head, conjunct)
    residual = []
    if mentions is None:
        mentions = map(atoms_of, conjuncts)
    for c, hs, mentioned in zip(conjuncts, heads, mentions):
        if hs:
            first, *others = [index[h] for h in hs]
            for h in others:
                succs[h].append(first)
            succs[first] += [index[x] for x in mentioned & a]
            headed.append((first, c))
        else:
            residual.append(c)
    comps, comp_of = strong_components(succs)
    assigned: list[list[Formula]] = [[] for _ in comps]
    for first, c in headed:
        assigned[comp_of[first]].append(c)
    listing = topological_order(succs, comps, comp_of)
    blocks = tuple((frozenset(atoms[v] for v in comps[k]), conj(assigned[k])) for k in listing)
    return SplitPlan(blocks, tuple(residual))


def _route(solved: dict, f: Formula, prog: Program, conjoin, unit: list[int], past_cap: bool = False) -> tuple | None:
    """The route of the unit at positions `unit` of prog.atoms (see
    `stable._unit_route`), built once per shape: it depends only on the
    shape of the program and where the unit atoms sit in it, so `solved`
    shares it, and the extensions it has found, between isomorphic units,
    such as the ground instances of one rule.  A unit `past_cap` gets its
    route only when it is a definition (`stable._definition_route`), else
    None, and nothing is built for it beyond the definition test."""
    key = (prog.ops, prog.root, len(prog.atoms), tuple(unit))
    route = solved.get(key)
    if route is None:
        route = _definition_route(f, prog, unit) if past_cap else _unit_route(f, prog, conjoin, unit)
        if route is not None:
            solved[key] = route
    return route


def _extend_frontier(frontier: list[int], step: tuple, bit: dict[Atom, int], solved: dict, max_atoms: int) -> list[int]:
    """Every frontier entry joined with each stable extension of the unit
    of `step` (its atoms, its formula f, and f's program prog with the
    function that continues its walk, as `stable._unit_program` gives
    them), all as bitmasks (`bit` maps atoms to their bits; an atom prog
    mentions without a bit is always false).

    The extensions depend only on the context, the entry's values of the
    non-unit atoms prog mentions, so each distinct context is solved once,
    on the unit's route (see `_route`): its A-stable assignments, A = the
    unit's atoms, with the context fixed (`stable._unit_models`).
    `stable._decode` spreads them to the bits over sigma, one call per
    context, or one for every context of a unit whose route has exactly
    one extension per context, a definition, which may have thousands.
    """
    unit_atoms, f, prog, conjoin = step
    unit: list[int] = []  # positions over prog.atoms
    sig_bits: list[int] = []
    context: list[tuple[int, int]] = []  # (bit over sigma, bit over prog.atoms)
    ctx_mask = 0
    for b, x in enumerate(prog.atoms):
        if x in unit_atoms:
            unit.append(b)
            sig_bits.append(bit[x])
        else:
            context.append((bit.get(x, 0), 1 << b))
            ctx_mask |= bit.get(x, 0)
    route = _route(solved, f, prog, conjoin, unit)
    heres: dict[int, int] = {}  # each distinct context, over prog.atoms
    for m in frontier:
        ctx = m & ctx_mask
        if ctx not in heres:
            here = 0
            for sig_bit, prog_bit in context:
                if ctx & sig_bit:
                    here |= prog_bit
            heres[ctx] = here
    found = _unit_models(route, heres.values())
    if route[0]:  # one extension per context: all of them over sigma in one decoding
        memo = dict(zip(heres, zip(_decode([found[here][0] for here in heres.values()], sig_bits, sum))))
    else:
        memo = {ctx: _decode(found[here], sig_bits, sum) for ctx, here in heres.items()}
    size = sum(len(memo[m & ctx_mask]) for m in frontier)
    if size > 1 << max_atoms:
        raise CapExceeded(
            f"modular frontier of {size} interpretations exceeds the cap of 2**{max_atoms}; "
            f"pass a larger max_atoms (or --max-atoms) if this is intended"
        )
    return [m | e for m in frontier for e in memo[m & ctx_mask]]


def modular_solve(
    conjuncts: Sequence[Formula],
    a: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    mentions: Sequence[AbstractSet[Atom]] | None = None,
) -> ModelSet:
    """A-stable models of the conjunction, computed unit by unit.

    Units (see `SplitPlan`) are evaluated in reverse listing order, so a
    unit's formula only reads atoms already decided; each step extends the
    partial interpretations with every locally stable assignment to the
    unit's atoms, so the cost is the sum of per-unit enumerations times the
    surviving frontier instead of one sweep over the whole signature.  This
    is the symmetric splitting theorem: units may depend on each other
    through negation, only positive dependency stays inside a unit.  Each
    unit formula is walked by the compiler once, a one-conjunct unit as its
    conjunct, and solved once per distinct context on the route that
    `stable._unit_route` picks for its shape, with A = the unit's atoms and
    the context fixed (see `_extend_frontier`).
    Residual conjuncts, which have no strictly positive intensional atoms,
    only filter the models classically: each is a unit with no atoms,
    solved the same way after all the others, on the few contexts its own
    atoms give.  A conjunct whose strictly positive intensional atoms span
    dependency blocks, where the splitting theorem does not hold, makes
    `plan_split` raise SplitPlanError, which propagates: a caller that
    wants an answer anyway takes `enumerate_a_stable` of the conjunction,
    as the CLI does.  A unit or an extensional context wider than
    max_atoms atoms, or a frontier of more than 2**max_atoms
    interpretations, raises CapExceeded; a unit whose route has one
    extension per context, a definition, is not enumerated, so it may be
    wider.
    `mentions`, the atoms of each conjunct when the caller has them, go to
    `plan_split`.
    """
    a = frozenset(a)
    plan = plan_split(conjuncts, a, mentions)
    units = [(atoms, f.children[0] if len(f.children) == 1 else f) for atoms, f in reversed(plan.blocks)]
    steps = [(atoms, f, *_unit_program(f, atoms)) for atoms, f in units + [(frozenset(), r) for r in plan.residual]]
    if sigma is None:
        sig = a.union(*(prog.atoms for _, _, prog, _ in steps))
    else:
        sig = frozenset(sigma)

    # The cap guards every exponential dimension: the extensional context
    # enumerated up front and the widest enumerated unit here, the frontier
    # in _extend_frontier.  Only a unit past the cap needs its route this
    # early, and only a definition's, so no other unit builds it before its
    # step, and a unit past the cap that is no definition builds none.
    solved: dict[tuple, tuple] = {}  # see _route
    wide = [
        len(atoms)
        for atoms, f, prog, conjoin in steps
        if len(atoms) > max_atoms
        and _route(solved, f, prog, conjoin, [b for b, x in enumerate(prog.atoms) if x in atoms], past_cap=True) is None
    ]
    _check_cap(max([len(sig - a), *wide]), max_atoms)

    # Partial interpretations are bitmasks over sigma (and over A, so that
    # a model leaving sigma reaches ModelSet's signature check); an atom a
    # unit mentions outside both stays false.
    order = sorted(sig | a)
    bit = {x: 1 << k for k, x in enumerate(order)}
    frontier = [0]
    for x in sig - a:
        frontier += [m | bit[x] for m in frontier]
    for step in steps:
        frontier = _extend_frontier(frontier, step, bit, solved, max_atoms)
    return ModelSet.from_masks(frontier, order, sig)
