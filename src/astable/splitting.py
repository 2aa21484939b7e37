"""Splitting-based model computation.

Two checked strategies: intersecting the A-stable model sets of one formula
under the two halves of an infinitely separable partition, and intersecting
the model sets of two formulas whose strictly positive atoms avoid the other
half.  On top of them, a planner groups the conjuncts of a program into
units, the strongly connected components of the graph of which atoms each
rule head mentions, listed by one Tarjan pass, and a modular solver
evaluates each unit after the units it reads, carrying partial
interpretations.  Units may depend on each other through negation;
positive dependency stays inside a unit, as the symmetric splitting
theorem asks.  Each conjunct is read once, by one walk, into its
record (`formula.read_rule`): its atoms, heads, dependency edges and
pieces.  The planner, the cap and every step read the records, and no
other walker runs; each conjunct is compiled once, in its unit's step,
where the unit is compiled, routed and decoded; how it is solved, its
route, is for `stable` to choose and run (`_unit_route`, `_unit_models`),
and this module never reads a route's fields.  It keeps the plan, the cap,
which it reads off the records before compiling any unit, the contexts
each unit is solved in and the frontier.  Both strategies verify their
preconditions by one check (`_violations`), which the unsound hunt of the
verifier reads too, and share one enumerate-and-intersect tail; the
modular solver refuses with SplitPlanError when a conjunct's strictly
positive intensional atoms span dependency blocks; the CLI then answers
by brute force.
"""

from __future__ import annotations

import itertools
from operator import or_
from typing import AbstractSet, Sequence

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
    atoms_of,
    compile_extensible,
    conj,
    read_rule,
    satisfies,  # not called here; perfbench/spans.py wraps this name
)
from .records import Record
from .stable import (
    DEFAULT_MAX_ATOMS,
    ModelSet,
    _decode,
    _enumerated,
    _unit_models,
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
    """Conjuncts grouped per evaluation unit, each unit listed before the
    units its rules mention, each conjunct as its record (see
    `formula.Rule`).

    A unit is a strongly connected component of the mention graph over the
    intensional set, in which each strictly positive intensional atom of a
    conjunct (its head) reaches each intensional atom that conjunct
    mentions.  Unit atom sets are pairwise disjoint and cover the
    intensional set; a unit's rules are those of the conjuncts whose heads
    lie in it, in the order given, and they mention only the unit's own
    atoms, atoms of later-listed units and atoms outside the intensional
    set.  Conjuncts without heads act as constraints and stay in the
    residual; the modular solver solves each of them last, as a unit with
    no atoms.
    """

    __slots__ = ("blocks", "residual")

    def __init__(self, blocks: tuple[tuple[frozenset[Atom], tuple[Rule, ...]], ...], residual: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "residual", residual)


def plan_split(conjuncts: Sequence[Formula], a: AbstractSet[Atom]) -> SplitPlan:
    """The units of the conjuncts over the intensional set a (see
    `SplitPlan`), each listed before the units its rules mention.  Each
    conjunct is read once, into its record (`formula.read_rule`), and the
    plan reads nothing else: its atoms, its heads and, when some conjunct
    has two or more heads, the dependency edges of them all
    (`rule_graph`), whose blocks each conjunct's heads must share, else
    SplitPlanError.  The mention graph has a vertex per intensional atom,
    sorted, and no other: a headed conjunct's least head stands in for it,
    its other heads point to that one, and that one points to each
    intensional atom the conjunct mentions, so a conjunct costs heads +
    mentions edges and lies in its heads' unit.  A dependency edge is a
    mention path, so a unit is a union of blocks.

    The units are listed in the reverse of the order in which Tarjan's
    algorithm closes them (`strong_components`): it closes a component
    only after every component its edges reach, so no second pass is
    needed.  That order follows the order of the successor lists, so each
    conjunct's edges are written in index order, its targets sorted, and
    the listing is the same whatever the hash seed.  Only `sccs` keeps the
    smallest-atom-first condensation order.
    """
    a = frozenset(a)
    rules = list(map(read_rule, conjuncts))
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


def _shared(frontier: list[int], extensions: Sequence[int], max_atoms: int) -> list[int]:
    """Every frontier entry joined with each of the same extensions, one
    C-level pass over the frontier per extension."""
    _check_frontier(len(frontier) * len(extensions), max_atoms)
    out: list[int] = []
    for e in extensions:
        out += map(e.__or__, frontier)
    return out


def _extend_frontier(
    frontier: list[int], unit_atoms: AbstractSet[Atom], rules: Sequence[Rule], bit: dict[Atom, int], solved: dict, max_atoms: int
) -> list[int]:
    """Every frontier entry joined with each stable extension of the unit
    with these atoms and rules, all as bitmasks (`bit` maps atoms to their
    bits; an atom the rules mention without a bit is always false), in no
    particular order.

    The conjunction of the rules' formulas, in the order given, is
    compiled here, each formula walked once (`formula.compile_extensible`),
    and the unit's route (see `stable._unit_route`) is built once per
    shape: it depends only on the shape of the program and where the unit
    atoms sit in it, so `solved` shares it, and the extensions it has
    found, between isomorphic units, such as the ground instances of one
    rule.  The extensions depend only on the context, the entry's values
    of the non-unit atoms the rules mention,
    so each distinct context is solved once on the route: its A-stable
    assignments, A = the unit's atoms, with the context fixed
    (`stable._unit_models`).  One `stable._decode` call spreads the
    extensions of every context to the bits over sigma.  The new frontier
    is built in C-level passes where the extensions allow: a unit that
    reads no decided atom has one context, and every entry takes the same
    extensions (`_shared`); a unit with one extension per context joins
    each entry with its context's one.
    """
    prog, conjoin = compile_extensible([r.formula for r in rules])
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
    key = (prog.ops, prog.root, len(prog.atoms), tuple(unit))
    route = solved.get(key)
    if route is None:
        route = solved[key] = _unit_route(rules, prog, conjoin, unit)
    heres: dict[int, int] = {}  # each distinct context, over prog.atoms
    for ctx in set(map(ctx_mask.__and__, frontier)):
        here = 0
        for sig_bit, prog_bit in context:
            if ctx & sig_bit:
                here |= prog_bit
        heres[ctx] = here
    found = _unit_models(route, heres.values())
    extensions = list(map(found.__getitem__, heres.values()))
    spread = _decode([e for ext in extensions for e in ext], sig_bits, sum)
    if not ctx_mask:
        return _shared(frontier, spread, max_atoms)
    if len(spread) == len(heres) and all(extensions):
        # one extension per context, so the frontier keeps its size, which
        # the cap has already passed
        memo = dict(zip(heres, spread))
        return list(map(or_, frontier, map(memo.__getitem__, map(ctx_mask.__and__, frontier))))
    spread = iter(spread)
    memo = {ctx: list(itertools.islice(spread, len(ext))) for ctx, ext in zip(heres, extensions)}
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
    conjunct is read once, by `plan_split`, and every later step reads its
    record; the conjunction of a unit's rules is compiled in its own step,
    and the unit is solved once per distinct context on the route that
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
    interpretations, raises CapExceeded.  A unit that its route does not
    enumerate, a definition for its atoms with one extension per context,
    may be wider; the cap reads that off the records by the route's own
    rule (`stable._enumerated`), before any unit is compiled.  sigma
    defaults to A and the atoms of the conjuncts.
    """
    a = frozenset(a)
    plan = plan_split(conjuncts, a)
    steps = [*reversed(plan.blocks), *((frozenset(), (r,)) for r in plan.residual)]
    sig = a.union(*(r.atoms for _, rules in steps for r in rules)) if sigma is None else frozenset(sigma)
    # The cap guards every exponential dimension: the extensional context
    # enumerated up front and the widest enumerated unit here, the frontier
    # in _extend_frontier.  Which units are enumerated is read off their
    # rules (`stable._enumerated`, as `stable._unit_route` reads it), so
    # nothing is compiled before the cap is decided.
    wide = [len(atoms) for atoms, rules in steps if len(atoms) > max_atoms and _enumerated(atoms, rules)]
    _check_cap(max([len(sig - a), *wide]), max_atoms)

    # Partial interpretations are bitmasks over sigma (and over A, so that
    # a model leaving sigma reaches ModelSet's signature check); an atom a
    # unit mentions outside both stays false.
    order = sorted(sig | a)
    bit = {x: 1 << k for k, x in enumerate(order)}
    frontier = [0]
    for x in sig - a:
        frontier += [m | bit[x] for m in frontier]
    solved: dict[tuple, tuple] = {}  # see _extend_frontier
    for atoms, rules in steps:
        frontier = _extend_frontier(frontier, atoms, rules, bit, solved, max_atoms)
    return ModelSet.from_masks(frontier, order, sig)
