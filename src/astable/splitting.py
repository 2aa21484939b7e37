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
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .depgraph import (
    Partition2,
    dep_graph,
    offending_scc,
    sccs,
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
    satisfies,
)
from .stable import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    _candidate_models,
    _check_cap,
    _ht_minimal,
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
    and stay in the residual.
    """

    blocks: tuple[tuple[frozenset[Atom], Formula], ...]
    residual: tuple[Formula, ...]


def plan_split(conjuncts: Sequence[Formula], a: AbstractSet[Atom]) -> SplitPlan:
    """Assign each conjunct to the dependency block holding all of its
    strictly positive intensional atoms.

    Blocks are listed topologically for the positive dependency graph; when
    atom occurrences allow, the order is refined so that a block's formula
    only mentions atoms of earlier-evaluated (later-listed) blocks, which is
    what lets the modular solver run front to back.
    """
    a = frozenset(a)
    comps = sccs(dep_graph(conjuncts, a))
    comp_of = {atom: k for k, comp in enumerate(comps) for atom in comp}

    assigned: list[list[Formula]] = [[] for _ in comps]
    residual: list[Formula] = []
    for c in conjuncts:
        heads = strictly_positive(c) & a
        if not heads:
            residual.append(c)
            continue
        targets = {comp_of[p] for p in heads}
        if len(targets) > 1:
            names = ", ".join(str(p) for p in sorted(heads))
            raise SplitPlanError(
                c,
                f"conjunct '{c}' has strictly positive intensional atoms {names} "
                "spanning multiple dependency blocks",
            )
        assigned[targets.pop()].append(c)

    formulas = [conj(group) for group in assigned]

    # Listing order: block j before block k when the formula of j mentions an
    # atom of k (its dependencies come later in the listing, i.e. earlier in
    # evaluation).  This refines, and never contradicts, condensation order;
    # if occurrences are cyclic across blocks the plain condensation order is
    # kept and the modular solver will detect the unusable step itself.
    n = len(comps)
    succs: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for x in atoms_of(formulas[j]):
            k = comp_of.get(x)
            if k is not None and k != j:
                succs[j].add(k)
    listing = topological_order(succs, [min(comp) for comp in comps])
    if len(listing) < n:
        listing = list(range(n))

    blocks = tuple((comps[k], formulas[k]) for k in listing)
    return SplitPlan(blocks, tuple(residual))


def _extend_frontier(
    frontier: list[int],
    prog: Program,
    block_atoms: frozenset[Atom],
    bit: dict[Atom, int],
    patterns: dict[int, list[int]],
    max_atoms: int,
) -> list[int]:
    """Every frontier entry joined with each stable extension of the block
    compiled as prog, all as bitmasks (`bit` maps atoms to their bits).

    The extensions depend only on the context, the entry's values of the
    non-block atoms prog mentions, so each distinct context costs one sweep
    of prog over its block atoms and one here-and-there check, with A = the
    block's atoms, per candidate that makes a block atom true.
    """
    var: list[Atom] = []
    var_bits: list[tuple[int, int]] = []  # (bit over prog.atoms, bit over sigma)
    context: list[tuple[int, int, Atom]] = []  # (bit over sigma, bit over prog.atoms, atom)
    ctx_mask = a_mask = 0
    for b, x in enumerate(prog.atoms):
        if x in block_atoms:
            var.append(x)
            var_bits.append((1 << b, bit[x]))
            a_mask |= 1 << b
        else:
            context.append((bit[x], 1 << b, x))
            ctx_mask |= bit[x]

    memo: dict[int, list[int]] = {}
    size = 0
    for m in frontier:
        ctx = m & ctx_mask
        exts = memo.get(ctx)
        if exts is None:
            exts = memo[ctx] = []
            here = 0
            true = set()
            for sig_bit, prog_bit, x in context:
                if ctx & sig_bit:
                    here |= prog_bit
                    true.add(x)
            for c in _candidate_models(prog, var, true_atoms=true):
                mask, ext = here, 0
                for j, (prog_bit, sig_bit) in enumerate(var_bits):
                    if c >> j & 1:
                        mask |= prog_bit
                        ext |= sig_bit
                # with no block atom true, satisfying prog is all of A-stability
                if not c or _ht_minimal(prog, mask, a_mask, patterns):
                    exts.append(ext)
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
    per distinct context (see `_extend_frontier`).  Residual conjuncts
    are applied as satisfaction filters at the end.  Any step that cannot
    be validated triggers a brute-force fallback; a frontier of more than
    2**max_atoms interpretations raises CapExceeded.
    """
    a = frozenset(a)

    def fallback(reason: str) -> ModelSet:
        log.warning("modular solve falling back to brute force: %s", reason)
        return enumerate_a_stable(conj(conjuncts), a, sigma, max_atoms=max_atoms)

    try:
        plan = plan_split(conjuncts, a)
    except SplitPlanError as exc:
        return fallback(str(exc))

    steps = [(block_atoms, f, compile_formula(f)) for block_atoms, f in reversed(plan.blocks)]
    if sigma is None:
        sig = a.union(*(prog.atoms for _, _, prog in steps), *map(atoms_of, plan.residual))
    else:
        sig = frozenset(sigma)

    # The cap guards every exponential dimension: the extensional context
    # enumerated up front and the largest single block here, the frontier
    # in _extend_frontier.
    widest = max((len(b) for b, _ in plan.blocks), default=0)
    _check_cap(max(len(sig - a), widest), max_atoms)

    decided = set(sig - a)
    for block_atoms, block_formula, prog in steps:
        pending = [x for x in prog.atoms if x not in decided and x not in block_atoms]
        if pending:
            names = ", ".join(str(x) for x in pending)
            return fallback(
                f"block {format_interpretation(block_atoms)} mentions atoms not yet decided: {names}"
            )
        if (strictly_positive(block_formula) & a) - block_atoms:
            return fallback("conjunct assignment left strictly positive atoms outside the block")
        decided |= block_atoms

    # Partial interpretations are bitmasks over sigma (and over A, so that
    # a model leaving sigma reaches ModelSet's signature check).
    order = list(sig | a)
    bit = {x: 1 << k for k, x in enumerate(order)}
    frontier = [0]
    for x in sig - a:
        frontier += [m | bit[x] for m in frontier]
    patterns: dict[int, list[int]] = {}
    for block_atoms, _, prog in steps:
        frontier = _extend_frontier(frontier, prog, block_atoms, bit, patterns, max_atoms)

    models = []
    for m in frontier:
        true = []
        while m:
            low = m & -m
            true.append(order[low.bit_length() - 1])
            m ^= low
        models.append(frozenset(true))
    for r in plan.residual:
        models = [m for m in models if satisfies(m, r)]
    return ModelSet.from_iter(models, sig)
