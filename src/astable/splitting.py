"""Splitting-based model computation.

Two checked strategies: intersecting the A-stable model sets of one formula
under the two halves of an infinitely separable partition, and intersecting
the model sets of two formulas whose strictly positive atoms avoid the other
half.  On top of them, a planner groups the pieces of a program, its
conjuncts with every nested conjunction opened, into units, the strongly
connected components of the graph of which atoms each piece's heads
mention, listed by one Tarjan pass, and a modular solver evaluates each
unit after the units it reads, carrying partial interpretations.  Units
may depend on each other through negation; positive dependency stays
inside a unit, as the symmetric splitting theorem asks.  Each conjunct is
read once, by one walk, into one record per piece
(`formula.read_rules`): its atoms, heads, dependency edges and clause-body
atoms.  The planner, the cap and every step read the records, and no
other walker runs.  The solver numbers the signature once, sigma, A
and every atom a piece mentions in sorted order, and passes indices
into that order below it: partial interpretations are bitmasks over it,
a step's context atoms reach `stable` as (position, index) pairs, every
extension moves to the numbering by one `stable._spread`, and no table
holds a mask per atom of it.  Each enumerated unit, and each
maximal run of consecutive definition units, takes one step (`_step`):
a step that reads a decided atom gathers its distinct contexts once and
joins the frontier with their extensions (`_extend_frontier`); one that
reads none is solved once, on its one empty context, and joined with the
frontier together with the next such steps.  A unit that is a
definition for its atoms is never compiled: its clauses are read off the records
(`stable._clauses`), placed on the run's columns (`stable._definition`)
and their least fixpoint taken, unit after unit, over every context at
once by the one lane runner (`stable._lane_models`); any other unit is
enumerated, compiled and solved on its contexts by `stable`
(`stable._unit_models`), which chooses how.  This module keeps the plan,
the cap, which it reads off the records before solving any unit, the
contexts each step is solved in and the frontier.  Both strategies verify their
preconditions by one check (`_violations`), which the unsound hunt of the
verifier reads too, and share one enumerate-and-intersect tail; the
modular solver refuses with SplitPlanError when one piece's strictly
positive intensional atoms span dependency blocks, as in `x | y` or a
grounded `exists`; the CLI then answers by brute force.  A grounded
`forall` rule is a conjunction of its instances, so each instance is a
piece of its own and lands in its own unit.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, or_
from typing import AbstractSet, Callable, Sequence

from .depgraph import (
    Partition2,
    components,
    dep_graph,
    offending_scc,
    rule_graph,
    sccs,  # not called here; perfbench/spans.py wraps this name
    strictly_positive,
    strong_components,
)
from .formula import (
    Atom,
    CapExceeded,
    Formula,
    Rule,
    _check_cap,
    _clipped,
    atoms_of,
    conj,
    read_rules,
    satisfies,  # not called here; perfbench/spans.py wraps this name
)
from .records import Record
from .stable import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    _batches,
    _clauses,
    _definition,
    _lane_models,
    _mask,
    _spread,
    _unit_models,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,  # not called here; perfbench/spans.py wraps this name
)

class PreconditionError(ValueError):
    """One or more splitting preconditions are violated."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SplitPlanError(ValueError):
    def __init__(self, conjunct: Formula, message: str):
        super().__init__(message)
        self.conjunct = conjunct


def _names(atoms: AbstractSet[Atom]) -> str:
    return ", ".join(str(a) for a in sorted(atoms))


def _violations(f: Formula, g: Formula | None, p1: frozenset[Atom], p2: frozenset[Atom]) -> list[str]:
    """The violated preconditions of splitting over the parts p1 and p2,
    in this order: the parts overlap; for the theorem, whose second
    formula g is given, a part meets the strictly positive atoms of the
    other part's formula; for disjoint parts, a strongly connected
    component of the dependency graph of f (of f & g for the theorem)
    meets both parts, so they are not infinitely separable."""
    overlap = p1 & p2
    violations = [f"parts overlap on: {_names(overlap)}"] if overlap else []
    if g is not None:
        hit = p2 & strictly_positive(f)
        if hit:
            violations.append(f"second part meets strictly positive atoms of the first formula: {_names(hit)}")
        hit = p1 & strictly_positive(g)
        if hit:
            violations.append(f"first part meets strictly positive atoms of the second formula: {_names(hit)}")
    if not overlap:
        bad = offending_scc(dep_graph(f if g is None else conj((f, g)), p1 | p2), Partition2(p1, p2))
        if bad is not None:
            violations.append(
                "partition is not infinitely separable: strongly connected component "
                f"{format_interpretation(bad)} meets both parts"
            )
    return violations


def _split_models(
    f: Formula, g: Formula | None, p1: AbstractSet[Atom], p2: AbstractSet[Atom], sigma: AbstractSet[Atom] | None, max_atoms: int
) -> ModelSet:
    """The interpretations p1-stable for f and p2-stable for g (for f again
    when g is None), once `_violations` lists none."""
    p1, p2 = frozenset(p1), frozenset(p2)
    violations = _violations(f, g, p1, p2)
    if violations:
        raise PreconditionError(violations)
    sig = frozenset(sigma) if sigma is not None else atoms_of(f).union(p1, p2, () if g is None else atoms_of(g))
    m1 = enumerate_a_stable(f, p1, sig, max_atoms=max_atoms)
    m2 = enumerate_a_stable(f if g is None else g, p2, sig, max_atoms=max_atoms)
    return m1.intersection(m2)


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
    return _split_models(f, None, p1, p2, sigma, max_atoms)


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
    return _split_models(f, g, a1, a2, sigma, max_atoms)


class SplitPlan(Record):
    """Pieces grouped per evaluation unit, each unit listed before the
    units its rules mention, each piece as its record (see `formula.Rule`).

    A unit is a strongly connected component of the mention graph over the
    intensional set, in which each strictly positive intensional atom of a
    piece (its head) reaches each intensional atom that piece mentions.
    Unit atom sets are pairwise disjoint and cover the intensional set; a
    unit's rules are the records of the pieces whose heads lie in it, in
    the order given, and they mention only the unit's own atoms, atoms of
    later-listed units and atoms outside the intensional set.  Pieces
    without heads act as constraints and stay in the residual; the modular
    solver solves each of them as a unit with no atoms, right after the
    unit that decides the last of its intensional atoms.
    """

    __slots__ = ("blocks", "residual")

    def __init__(self, blocks: tuple[tuple[frozenset[Atom], tuple[Rule, ...]], ...], residual: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "residual", residual)


def plan_split(conjuncts: Sequence[Formula], a: AbstractSet[Atom]) -> SplitPlan:
    """The units of the pieces of the conjuncts over the intensional set
    a (see `SplitPlan`), each listed before the units its rules mention.
    Each conjunct is read once, into one record per piece
    (`formula.read_rules`), and the plan reads nothing else: each piece's
    atoms, its heads and, when some piece has two or more heads, the
    dependency edges of them all (`rule_graph`), whose blocks each piece's
    heads must share, else SplitPlanError.  The symmetric splitting
    theorem reads a conjunction as its conjuncts, so the instances of a
    grounded `forall` rule may lie in different blocks.  The mention graph
    has a vertex per intensional atom, sorted, and no other: a headed
    piece's least head stands in for it, its other heads point to that
    one, and that one points to each intensional atom the piece mentions,
    so a piece costs heads + mentions edges and lies in its heads' unit.
    A dependency edge is a mention path, so a unit is a union of blocks.

    The units are listed in the reverse of the order in which Tarjan's
    algorithm closes them (`strong_components`): it closes a component
    only after every component its edges reach, so no second pass is
    needed.  That order follows the order of the successor lists, so each
    piece's edges are written in index order, its targets sorted, and
    the listing is the same whatever the hash seed.  Only `sccs` keeps the
    smallest-atom-first condensation order.
    """
    a = frozenset(a)
    rules = [r for c in conjuncts for r in read_rules(c)]
    heads = [r.heads & a for r in rules]
    if any(len(hs) > 1 for hs in heads):
        _, block_of = components(rule_graph(rules, a))
        for r, hs in zip(rules, heads):
            if len({block_of[x] for x in hs}) > 1:
                names = _clipped(_names(hs))
                raise SplitPlanError(
                    r.formula,
                    f"conjunct '{_clipped(str(r.formula))}' has strictly positive intensional atoms {names} "
                    "spanning multiple dependency blocks",
                )
    atoms = sorted(a)
    index = {x: k for k, x in enumerate(atoms)}
    succs: list[list[int]] = [[] for _ in atoms]
    headed: list[tuple[int, Rule]] = []  # (least head, rule)
    for r, hs in zip(rules, heads):
        if hs:
            least, *others = sorted(map(index.__getitem__, hs))
            for h in others:
                succs[h].append(least)
            succs[least] += sorted(map(index.__getitem__, r.atoms & a))
            headed.append((least, r))
    comps, comp_of = strong_components(succs)
    assigned: list[list[Rule]] = [[] for _ in comps]
    for least, r in headed:
        assigned[comp_of[least]].append(r)
    blocks = [(frozenset(map(atoms.__getitem__, c)), tuple(rs)) for c, rs in zip(comps, assigned)]
    return SplitPlan(tuple(reversed(blocks)), tuple(r for r, hs in zip(rules, heads) if not hs))


def _check_frontier(size: int, max_atoms: int) -> None:
    if size > 1 << max_atoms:
        raise CapExceeded(
            f"modular frontier of {size} interpretations exceeds the cap of 2**{max_atoms}; "
            f"pass a larger max_atoms (or --max-atoms) if this is intended"
        )


def _shared(frontier: list[int], extensions: Sequence[int]) -> list[int]:
    """Every frontier entry joined with each of the same extensions, one
    C-level pass over the frontier per extension; the empty extension
    takes the entries as they are."""
    out: list[int] = []
    for e in extensions:
        out += map(e.__or__, frontier) if e else frontier
    return out


def _step(units: Sequence[tuple[frozenset[Atom], Sequence[Rule], list | None]], index: dict[Atom, int]) -> tuple[int, Callable]:
    """The step of one enumerated unit or of a run of definition units,
    each unit given as its atoms, its rules and what `stable._clauses`
    reads off them, None for an enumerated unit: the mask, over the
    solve's one numbering of the atoms (`index` maps each atom to the
    number of its bit), of the step's context atoms, the atoms outside its units that
    its rules mention, 0 for a context-free step; and a function that
    solves the step on distinct contexts, bitmasks over that numbering,
    giving its stable extensions, bitmasks over it too, as a list per
    context, or None when each context has exactly one, and as one flat
    list in context order.

    Both kinds of step share one position map, the atoms of their units
    and rules in index order, which is their sorted order and the order
    in which `stable` compiles an enumerated unit, and gather from it
    once, whatever the contexts, the positions of the units' atoms, their
    indices and the (position, index) pair of each context atom.  Only
    solving differs.  An enumerated unit is compiled and solved on each
    context (`stable._unit_models`).  A run of definition units, at any
    width, is a stratified program: each unit reads only the units before
    it in the run and the context, so by the paper's theorem on
    definitions its one extension per context is the least fixpoint of
    each unit's clauses, taken in solve order once the earlier units are
    complete (Lifschitz & Turner, ICLP 1994).  Each unit's clauses are
    placed on the position map (`stable._definition`), and one
    `stable._lane_models` call fills the units in order on every context
    at once, one byte lane each, with no compile of any unit.  Either way
    one `stable._spread` call moves the extensions of every context to
    the numbering by the indices of the units' atoms: the step holds
    indices, never a mask per atom, and past `stable._FEW` contexts the
    per-byte tables of `_spread` are relative to the least index of each
    8 atoms, so no entry is wider than those atoms' span.
    """
    own = frozenset().union(*[unit_atoms for unit_atoms, _, _ in units])
    atoms = sorted(own.union(*[r.atoms for _, rules, _ in units for r in rules]), key=index.__getitem__)
    var = [b for b, x in enumerate(atoms) if x in own]
    indices = [index[x] for x in atoms if x in own]
    context = [(b, index[x]) for b, x in enumerate(atoms) if x not in own]  # (position over atoms, index)
    ctx_mask = _mask(i for _, i in context)
    if units[0][2] is None:
        ((_, rules, _),) = units

        def solve(contexts: Sequence[int]) -> tuple[list[list[int]] | None, list[int]]:
            found = _unit_models(rules, var, context, contexts)
            return found, _spread([e for ext in found for e in ext], indices)

        return ctx_mask, solve
    position = dict(zip(atoms, itertools.count()))
    derived = [_definition(found, position) for _, _, found in units]

    def solve(contexts: Sequence[int]) -> tuple[None, list[int]]:
        fixed = _lane_models(len(atoms), var, 0, context, _batches(contexts), derived, (), None)
        return None, _spread(fixed, indices)

    return ctx_mask, solve


def _extend_frontier(frontier: list[int], ctx_mask: int, solve: Callable, max_atoms: int) -> list[int]:
    """Every frontier entry joined with each stable extension of a unit
    that reads decided atoms, the step `_step` gives as ctx_mask and
    solve, in no particular order.  The extensions depend only on the
    context, the entry's values of the atoms of ctx_mask, so the distinct
    contexts are gathered once and each is solved once.

    One join follows, built in C-level passes where the extensions allow:
    when every entry has one context, every entry takes the same
    extensions (`_shared`); with one extension per context, as for every
    run of definition units, each entry is joined with its context's one;
    otherwise with each of its context's.
    """
    contexts = list(set(map(ctx_mask.__and__, frontier)))
    found, spread = solve(contexts)
    if len(contexts) == 1:
        _check_frontier(len(frontier) * len(spread), max_atoms)
        return _shared(frontier, spread)
    if found is None or len(spread) == len(contexts) and all(found):
        # one extension per context, so the frontier keeps its size, which
        # the cap has already passed
        memo = dict(zip(contexts, spread))
        return list(map(or_, frontier, map(memo.__getitem__, map(ctx_mask.__and__, frontier))))
    spread = iter(spread)
    memo = {ctx: list(itertools.islice(spread, len(ext))) for ctx, ext in zip(contexts, found)}
    _check_frontier(sum(map(len, map(memo.__getitem__, map(ctx_mask.__and__, frontier)))), max_atoms)
    return [m | e for m in frontier for e in memo[m & ctx_mask]]


def modular_solve(
    conjuncts: Sequence[Formula],
    a: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ModelSet:
    """A-stable models of the conjunction, computed unit by unit.

    Units (see `SplitPlan`) are evaluated in reverse listing order, so a
    unit's rules only read atoms already decided; each step extends the
    partial interpretations with every locally stable assignment to the
    unit's atoms, so the cost is the sum of per-unit enumerations times the
    surviving frontier instead of one sweep over the whole signature.  This
    is the symmetric splitting theorem: units may depend on each other
    through negation, only positive dependency stays inside a unit.  Each
    conjunct is read once, by `plan_split`, and every later step reads the
    records of its pieces (see `_step`).  One pass over the steps, once
    each residual piece is placed, reads each step's clauses
    (`stable._clauses`), keeps the widest enumerated unit for the cap and
    groups the runs; each run is then handed to `_step` and dropped, so
    its clause readings live no longer than its step.  The solve then
    numbers sigma, A and every atom the pieces mention once, in sorted
    order, and hands each step that numbering: a partial interpretation
    is a bitmask over it, and a mask is built only for a frontier entry,
    a context, the union of a step's context atoms and the doubling of an
    extensional atom, never one per atom of sigma.  An
    atom outside sigma and A has its index too and is never set, so it
    reads false.  A unit that is a
    definition for its atoms, at any width, is never compiled nor
    enumerated: by the paper's theorem on definitions its one extension per
    context is the least fixpoint of its clauses (Ferraris, Lee, Lifschitz
    & Palla, IJCAI 2009, for the splitting; for a tight unit of one atom
    this is its completion, Erdem & Lifschitz, TPLP 2003).  A maximal run
    of consecutive definition units is a stratified program, each unit
    reading only the ones before it, so the run is one step: its units
    are filled in solve order on one run of lanes, one per distinct
    context, and joined with the frontier once.  Any other unit is
    compiled in its own step and solved once per distinct context
    (`stable._unit_models`), with A = the unit's atoms and the context
    fixed; it and residual pieces end a run.  A context-free step, whose
    rules read no atom outside its own units, such as a free choice, a
    residual piece that reads no atom, a run that reads only its own
    atoms, or the doubling of an extensional atom that
    starts the frontier, has the same extensions on every entry: it is
    solved once, on its one empty context, and a maximal run of such
    steps is joined with the frontier only when the next step reads a
    decided atom, or at the end, one C-level pass per extension
    (`_shared`).  Residual pieces, which have
    no strictly positive intensional atoms, only filter the models
    classically: each is a unit with no atoms, solved the same way right
    after the step that decides the last of its intensional atoms, or
    before every unit when it reads none, on the few contexts its own
    atoms give, so the frontier never holds an entry that such a piece
    could have dropped one step earlier.  A piece whose strictly positive
    intensional atoms span dependency blocks, where the splitting theorem
    does not hold, makes `plan_split` raise SplitPlanError, which
    propagates: a caller that wants an answer anyway takes
    `enumerate_a_stable` of the conjunction, as the CLI does.  A unit or
    an extensional context wider than max_atoms atoms, or a frontier of
    more than 2**max_atoms interpretations, raises CapExceeded; in a
    context-free run, the frontier's running product with each step's
    extension count is checked at every factor, before any entry is
    built, which refuses at the same factor, with the same count, as a
    check of each step's built frontier.  A unit
    that is not enumerated, a definition for its atoms, may be wider; the
    cap reads that off the records, by the `_clauses` result its step
    reads, before any unit is solved.  A run of definition units keeps the
    frontier's size, so solving it as one step moves no refusal.  Once the
    frontier, or a context-free run's product, is empty, no later step is
    solved, and the answer is the empty model set over the same signature:
    an empty frontier cannot grow past its cap, and the caps on enumerated
    widths and on the extensional context were decided up front.  sigma defaults to A and the atoms of the conjuncts.
    """
    a = frozenset(a)
    plan = plan_split(conjuncts, a)
    steps = list(plan.blocks[::-1])
    if plan.residual:
        # each residual piece right after the unit that decides the last
        # of its intensional atoms, or first when it reads none, so that it
        # filters the frontier as soon as it can: unit k sorts at 2k, a
        # piece after it at 2k + 1, and the sort keeps the pieces in order
        step_of = {x: 2 * k for k, (atoms, _) in enumerate(steps, 1) for x in atoms}
        pieces = [(max(map(step_of.__getitem__, r.atoms & a), default=0) + 1, (frozenset(), (r,))) for r in plan.residual]
        steps = [step for _, step in sorted([*zip(itertools.count(2, 2), steps), *pieces], key=itemgetter(0))]
    # One pass over the steps gathers the atoms of their pieces, for the
    # default sigma, reads which units are enumerated off their rules
    # (`stable._clauses`), keeps the widest for the cap and groups the
    # steps into runs, each enumerated unit alone and each maximal run of
    # definition units together; each run's step reads that same result,
    # so nothing is solved before the cap is decided.  The cap guards every
    # exponential dimension: the extensional context enumerated up front
    # and the widest enumerated unit here, the frontier in _extend_frontier.
    mentioned, widest, runs = [a], 0, []
    for atoms, rules in steps:
        mentioned += [r.atoms for r in rules]
        clauses = _clauses(rules, atoms)
        if clauses is None:
            widest = max(widest, len(atoms))
        if clauses is None or not runs or runs[-1][-1][2] is None:
            runs.append([])
        runs[-1].append((atoms, rules, clauses))
    sig = frozenset().union(*mentioned) if sigma is None else frozenset(sigma)
    _check_cap(max(len(sig - a), widest), max_atoms)
    runs.reverse()  # popped in solve order, so a run's clause readings die with its step

    # One numbering of sigma, A and every atom the pieces mention, in
    # sorted order, and partial interpretations are bitmasks over it.  The
    # extensions of the context-free steps since the frontier was last
    # built, each extensional atom's first, and the size of their product
    # with the frontier, which is checked at every factor before any entry
    # is built.
    order = sorted(sig.union(*mentioned))
    index = dict(zip(order, itertools.count()))
    frontier, run = [0], [(0, 1 << index[x]) for x in sig - a]
    size = 1 << len(run)
    while runs:
        ctx_mask, solve = _step(runs.pop(), index)
        if ctx_mask:
            for extensions in run:
                frontier = _shared(frontier, extensions)
            frontier, run = _extend_frontier(frontier, ctx_mask, solve, max_atoms), []
            size = len(frontier)
        else:
            extensions = solve([0])[1]
            size *= len(extensions)
            _check_frontier(size, max_atoms)
            run.append(extensions)
        if not size:
            # no model, and no later step can refuse: the frontier cannot
            # grow, and the other caps were decided before the first step
            return ModelSet.from_masks([], order, sig)
    for extensions in run:
        frontier = _shared(frontier, extensions)
    return ModelSet.from_masks(frontier, order, sig)
