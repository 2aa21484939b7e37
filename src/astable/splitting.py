"""Splitting-based model computation.

Two checked strategies: intersecting the A-stable model sets of one formula
under the two halves of an infinitely separable partition, and intersecting
the model sets of two formulas whose strictly positive atoms avoid the other
half.  On top of them, a planner groups the conjuncts of a program along the
strongly connected components of its dependency graph and a modular solver
evaluates the blocks in dependency order, carrying partial interpretations.
Both strategies verify their preconditions; the modular solver falls back to
brute force (with a warning) when a step cannot be validated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

from .depgraph import (
    DepGraph,
    Partition2,
    components,
    condensation_order,
    dep_graph,
    offending_scc,
    sccs,  # not called here; perfbench/spans.py wraps this name
    strictly_positive,
    topological_order,
)
from .formula import (
    Atom,
    CapExceeded,
    Formula,
    Program,
    atoms_of,
    compile_formula,
    conj,
    satisfies,  # not called here; perfbench/spans.py wraps this name
)
from .stable import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    _check_cap,
    _spread,
    _stable_models,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,  # not called here; perfbench/spans.py wraps this name
)

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class SplitPlan:
    """Conjuncts grouped per dependency block, in condensation order.

    Block atom sets are pairwise disjoint and cover the intensional set; a
    block's formula is the conjunction of the conjuncts assigned to it.
    Conjuncts without strictly positive intensional atoms act as constraints
    and stay in the residual; the modular solver solves each of them last,
    as a block with no atoms.  `programs` holds each block formula compiled,
    parallel to `blocks`.
    """

    blocks: tuple[tuple[frozenset[Atom], Formula], ...]
    residual: tuple[Formula, ...]
    programs: tuple[Program, ...] = field(compare=False, repr=False)


def plan_split(conjuncts: Sequence[Formula], a: AbstractSet[Atom]) -> SplitPlan:
    """Assign each conjunct to the dependency block holding all of its
    strictly positive intensional atoms.

    Blocks are listed topologically for the positive dependency graph; when
    atom occurrences allow, the order is refined so that a block's formula
    only mentions atoms of earlier-evaluated (later-listed) blocks, which is
    what lets the modular solver run front to back.

    One block per atom of A is tried first: every edge of the dependency
    graph runs from a conjunct's head to an atom that conjunct mentions, so
    when those blocks can be listed the graph has no cycle and they are its
    components, and it is never built.
    """
    a = frozenset(a)
    heads = [strictly_positive(c) & a for c in conjuncts]
    mentions = list(map(atoms_of, conjuncts))
    if all(len(h) <= 1 for h in heads):
        atoms = sorted(a)
        comps = [frozenset((x,)) for x in atoms]
        plan = _list_blocks(conjuncts, heads, mentions, comps, dict(zip(atoms, range(len(atoms)))))
        if plan is not None:
            return plan
    graph = dep_graph(conjuncts, a)
    comps, comp_of = components(graph)
    return _list_blocks(conjuncts, heads, mentions, comps, comp_of, graph)


def _list_blocks(
    conjuncts: Sequence[Formula],
    heads: Sequence[frozenset[Atom]],
    mentions: Sequence[frozenset[Atom]],
    comps: list[frozenset[Atom]],
    comp_of: dict[Atom, int],
    graph: DepGraph | None = None,
) -> SplitPlan | None:
    """The plan whose blocks are `comps`, the components of `graph`, given
    each conjunct's heads and atoms; with no graph, None when these blocks
    cannot be listed, which is found before any block is compiled."""
    assigned: list[list[int]] = [[] for _ in comps]
    residual: list[Formula] = []
    for i, (c, hs) in enumerate(zip(conjuncts, heads)):
        if not hs:
            residual.append(c)
            continue
        k = comp_of[next(iter(hs))]
        if not hs <= comps[k]:
            names = ", ".join(str(p) for p in sorted(hs))
            raise SplitPlanError(
                c,
                f"conjunct '{c}' has strictly positive intensional atoms {names} "
                "spanning multiple dependency blocks",
            )
        assigned[k].append(i)

    # Listing order: block j before block k when the formula of j mentions an
    # atom of k (its dependencies come later in the listing, i.e. earlier in
    # evaluation).  Every edge between components comes from a rule of a
    # conjunct assigned to the block of its head, which mentions the body,
    # so this refines condensation order; if occurrences are cyclic across
    # blocks the plain condensation order is kept and the modular solver
    # will detect the unusable step itself.
    n = len(comps)
    succs: list[set[int]] = [set() for _ in range(n)]
    for j, group in enumerate(assigned):
        for i in group:
            for x in mentions[i]:
                k = comp_of.get(x)
                if k is not None and k != j:
                    succs[j].add(k)
    listing = topological_order(succs, [min(comp) for comp in comps])
    if len(listing) < n:
        if graph is None:
            return None
        listing = condensation_order(graph, comps, comp_of)

    blocks = []
    programs = []
    for k in listing:
        group = [conjuncts[i] for i in assigned[k]]
        f = conj(group)
        blocks.append((comps[k], f))
        # a one-conjunct block compiles to the same program as its conjunct
        programs.append(compile_formula(group[0] if len(group) == 1 else f))
    return SplitPlan(tuple(blocks), tuple(residual), tuple(programs))


def _extend_frontier(
    frontier: list[int],
    prog: Program,
    block_atoms: frozenset[Atom],
    bit: dict[Atom, int],
    solved: dict[tuple, list[int]],
    max_atoms: int,
) -> list[int]:
    """Every frontier entry joined with each stable extension of the block
    compiled as prog, all as bitmasks (`bit` maps atoms to their bits; an
    atom prog mentions without a bit is always false).

    The extensions depend only on the context, the entry's values of the
    non-block atoms prog mentions, so each distinct context is solved once:
    the block's A-stable assignments, A = the block's atoms, with the
    context fixed, which is the enumerator's job and is done by the
    enumerator's routine, `stable._stable_models`.  The solution depends
    only on the shape of the program, where the block atoms sit in it and
    which others are true, so `solved` shares it between isomorphic blocks,
    such as the ground instances of one rule.
    """
    block: list[int] = []  # positions over prog.atoms
    sig_bits: list[int] = []
    context: list[tuple[int, int]] = []  # (bit over sigma, bit over prog.atoms)
    ctx_mask = 0
    for b, x in enumerate(prog.atoms):
        if x in block_atoms:
            block.append(b)
            sig_bits.append(bit[x])
        else:
            context.append((bit.get(x, 0), 1 << b))
            ctx_mask |= bit.get(x, 0)

    shape_block = tuple(block)
    memo: dict[int, list[int]] = {}
    size = 0
    for m in frontier:
        ctx = m & ctx_mask
        exts = memo.get(ctx)
        if exts is None:
            here = 0
            for sig_bit, prog_bit in context:
                if ctx & sig_bit:
                    here |= prog_bit
            shape = (prog.ops, prog.root, len(prog.atoms), shape_block, here)
            found = solved.get(shape)
            if found is None:
                found = solved[shape] = _stable_models(prog, block, here, [(1 << len(block)) - 1])
            exts = memo[ctx] = [_spread(c, sig_bits) for c in found]
        size += len(exts)
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
) -> ModelSet:
    """A-stable models of the conjunction, computed block by block.

    Blocks are evaluated in reverse listing order (dependencies first); each
    step extends the partial interpretations with every locally stable
    assignment to the block's atoms, so the cost is the sum of per-block
    enumerations times the surviving frontier instead of one sweep over the
    whole signature.  Each block formula is compiled once and solved once
    per distinct context by the enumerator's own routine, with A = the
    block's atoms and the context fixed (see `_extend_frontier`).  Residual
    conjuncts, which have no strictly positive intensional atoms, only
    filter the models classically: each is a block with no atoms, solved
    the same way after all the others, on the few contexts its own atoms
    give.  Any step that cannot be validated triggers a brute-force
    fallback; a frontier of more than 2**max_atoms interpretations raises
    CapExceeded.
    """
    a = frozenset(a)

    def fallback(reason: str) -> ModelSet:
        log.warning("modular solve falling back to brute force: %s", reason)
        return enumerate_a_stable(conj(conjuncts), a, sigma, max_atoms=max_atoms)

    try:
        plan = plan_split(conjuncts, a)
    except SplitPlanError as exc:
        return fallback(str(exc))

    steps = list(zip((block_atoms for block_atoms, _ in reversed(plan.blocks)), reversed(plan.programs)))
    residual = [(frozenset(), compile_formula(r)) for r in plan.residual]
    if sigma is None:
        sig = a.union(*(prog.atoms for _, prog in steps + residual))
    else:
        sig = frozenset(sigma)

    # The cap guards every exponential dimension: the extensional context
    # enumerated up front and the largest single block here, the frontier
    # in _extend_frontier.
    widest = max((len(b) for b, _ in plan.blocks), default=0)
    _check_cap(max(len(sig - a), widest), max_atoms)

    decided = set(sig - a)
    for block_atoms, prog in steps:
        decided |= block_atoms
        if not decided.issuperset(prog.atoms):
            names = ", ".join(str(x) for x in prog.atoms if x not in decided)
            return fallback(
                f"block {format_interpretation(block_atoms)} mentions atoms not yet decided: {names}"
            )

    # Partial interpretations are bitmasks over sigma (and over A, so that
    # a model leaving sigma reaches ModelSet's signature check); a residual
    # atom outside both stays false.
    order = sorted(sig | a)
    bit = {x: 1 << k for k, x in enumerate(order)}
    frontier = [0]
    for x in sig - a:
        frontier += [m | bit[x] for m in frontier]
    solved: dict[tuple, list[int]] = {}
    for block_atoms, prog in steps + residual:
        frontier = _extend_frontier(frontier, prog, block_atoms, bit, solved, max_atoms)
    return ModelSet.from_masks(frontier, order, sig)
