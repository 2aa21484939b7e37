"""Atom occurrence analyses, the positive dependency graph, and separability.

The graph over an intensional atom set has an edge p -> q whenever some rule
(strictly positive implication) of the formula has p strictly positive in its
consequent and q positive nonnegated in its antecedent.  A partition of the
vertices is separable when no strongly connected component meets both parts;
on finite graphs that coincides with infinite separability (no infinite walk
can visit both parts infinitely often once components are monochromatic).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import AbstractSet, Iterator, Sequence

from .formula import Atom, AtomRef, Disj, Formula, Impl


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class DepGraph:
    vertices: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]

    def __post_init__(self) -> None:
        succ: dict[Atom, list[Atom]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            if u not in succ or v not in succ:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            succ[u].append(v)
        for targets in succ.values():
            targets.sort()
        # the sorted successor lists, built once and read by every graph routine
        object.__setattr__(self, "_succ", succ)

    def successors(self, v: Atom) -> list[Atom]:
        return list(self._succ.get(v, ()))


@dataclass(frozen=True)
class Partition2:
    """Two disjoint (possibly empty) atom sets."""

    part1: frozenset[Atom]
    part2: frozenset[Atom]

    def __post_init__(self) -> None:
        overlap = self.part1 & self.part2
        if overlap:
            names = ", ".join(str(a) for a in sorted(overlap))
            raise PartitionError(f"partition parts overlap on: {names}")


def _signed_atoms(f: Formula, positive: bool, antecedents: bool) -> frozenset[Atom]:
    """Atoms reached with positive sign by an iterative walk of f that starts
    with sign `positive` and flips it in every antecedent.

    Without `antecedents` the walk stays out of them; with it, the walk enters
    each antecedent whose consequent is not the structural bot, so negated
    occurrences are never reached.
    """
    if not antecedents:
        while type(f) is Impl:  # the walk would only enter the consequent
            f = f.rhs
    if type(f) is AtomRef:
        return frozenset((f.atom,)) if positive else frozenset()
    out: set[Atom] = set()
    stack = [(f, positive)]
    while stack:
        g, sign = stack.pop()
        t = type(g)
        if t is AtomRef:
            if sign:
                out.add(g.atom)
        elif t is Impl:
            rhs = g.rhs
            if antecedents:
                if type(rhs) is Disj and not rhs.children:  # the structural bot
                    continue
                stack.append((g.lhs, not sign))
            stack.append((rhs, sign))
        else:
            stack.extend((c, sign) for c in g.children)
    return frozenset(out)


def strictly_positive(f: Formula) -> frozenset[Atom]:
    """Atoms occurring under no implication antecedent."""
    return _signed_atoms(f, True, False)


def pos_nonnegated(f: Formula) -> frozenset[Atom]:
    """Positive nonnegated atoms; the consequent-is-bot test is structural."""
    return _signed_atoms(f, True, True)


def neg_nonnegated(f: Formula) -> frozenset[Atom]:
    """Negative nonnegated atoms: under an odd number of antecedents."""
    return _signed_atoms(f, False, True)


def rules(f: Formula) -> list[Formula]:
    """Strictly positive implications, outermost first, without duplicates.

    An implication reached through no set node of two or more children
    has only its ancestors and descendants among the others, so none
    equals it and it is never hashed.
    """
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False)]
    while stack:
        g, branched = stack.pop()
        t = type(g)
        if t is Impl:
            if not branched or g not in seen:
                out.append(g)
                if branched:
                    seen.add(g)
            stack.append((g.rhs, branched))
        elif t is not AtomRef:
            stack += [(c, branched or len(g.children) > 1) for c in reversed(g.children)]
    return out


def dep_graph(f: Formula | Sequence[Formula], a: AbstractSet[Atom]) -> DepGraph:
    """Positive dependency graph of f over the intensional atoms a.

    f may also be a sequence of formulas standing for their conjunction,
    which spares building it.  One iterative walk down the strictly
    positive spine (conjunction and disjunction children, implication
    consequents) carries the positive nonnegated intensional atoms of the
    antecedents passed on the way; each strictly positive intensional atom
    reached gets an edge to each of them, which is the edge set `rules`
    defines.  No formula is hashed, so any depth is safe.
    """
    a = frozenset(a)
    edges: set[tuple[Atom, Atom]] = set()
    roots = (f,) if isinstance(f, Formula) else f
    stack: list[tuple[Formula, frozenset[Atom]]] = [(g, frozenset()) for g in roots]
    while stack:
        g, bodies = stack.pop()
        t = type(g)
        if t is AtomRef:
            if bodies and g.atom in a:
                edges.update(zip(repeat(g.atom), bodies))
        elif t is Impl:
            rhs = g.rhs
            if type(rhs) is Disj and not rhs.children:  # the structural bot
                continue
            lhs = g.lhs
            if type(lhs) is AtomRef:  # a one-atom body, the common case
                if lhs.atom in a and lhs.atom not in bodies:
                    bodies = bodies | {lhs.atom}
            else:
                body = pos_nonnegated(lhs) & a
                if body - bodies:
                    bodies = bodies | body
            stack.append((rhs, bodies))
        else:
            stack.extend((c, bodies) for c in g.children)
    return DepGraph(a, frozenset(edges))


def topological_order(succs: Sequence[AbstractSet[int]], keys: Sequence) -> list[int]:
    """Indices 0..n-1, each before its successors, the smallest key first
    among those ready.  Shorter than n when the successor sets are cyclic."""
    indeg = [0] * len(keys)
    for out in succs:
        for k in out:
            indeg[k] += 1
    ready = [(keys[k], k) for k, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, k = heapq.heappop(ready)
        order.append(k)
        for nxt in succs[k]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, (keys[nxt], nxt))
    return order


def components(g: DepGraph) -> tuple[list[frozenset[Atom]], dict[Atom, int]]:
    """The strongly connected components, in the order Tarjan's algorithm
    closes them, and the index of each vertex's component in that list."""
    succ = g._succ
    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    comp_of: dict[Atom, int] = {}
    stack: list[Atom] = []
    comps: list[frozenset[Atom]] = []

    # Tarjan's algorithm on an explicit stack of successor iterators.  A
    # visited vertex stays on Tarjan's stack until comp_of assigns it.
    for root in sorted(g.vertices):
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    index[w] = lowlink[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp_of and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if work and low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low
                if low == index[v]:
                    comp = []
                    w = None
                    while w is not v:
                        w = stack.pop()
                        comp_of[w] = len(comps)
                        comp.append(w)
                    comps.append(frozenset(comp))
    return comps, comp_of


def condensation_order(g: DepGraph, comps: Sequence[frozenset[Atom]], comp_of: dict[Atom, int]) -> list[int]:
    """Indices into `comps`, the components of g, such that every edge runs
    from an earlier-or-equal to a later-or-equal component; ties are broken
    by the smallest atom of each component."""
    succs: list[set[int]] = [set() for _ in comps]
    for u, v in g.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            succs[cu].add(cv)
    return topological_order(succs, [min(c) for c in comps])


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components in condensation order (see
    `condensation_order`)."""
    comps, comp_of = components(g)
    return [comps[k] for k in condensation_order(g, comps, comp_of)]


def _check_cover(g: DepGraph, pi: Partition2) -> None:
    uncovered = g.vertices - pi.part1 - pi.part2
    if uncovered:
        names = ", ".join(str(a) for a in sorted(uncovered))
        raise PartitionError(f"partition does not cover vertices: {names}")


def offending_scc(g: DepGraph, pi: Partition2) -> frozenset[Atom] | None:
    """A strongly connected component meeting both parts, if any."""
    _check_cover(g, pi)
    for comp in sccs(g):
        if not (comp <= pi.part1 or comp <= pi.part2):
            return comp
    return None


def is_separable(g: DepGraph, pi: Partition2) -> bool:
    return offending_scc(g, pi) is None


def is_infinitely_separable(g: DepGraph, pi: Partition2) -> bool:
    """On finite graphs this coincides with separability: with finitely many
    strongly connected components, an infinite walk hitting both parts
    infinitely often forces two mutually reachable components to merge."""
    return is_separable(g, pi)


def simple_cycles(g: DepGraph) -> Iterator[tuple[Atom, ...]]:
    """All simple cycles (length <= vertex count), by DFS anchored at the
    smallest vertex of each cycle."""
    order = sorted(g.vertices)
    pos = {v: k for k, v in enumerate(order)}
    adj = g._succ

    def extend(root: Atom, path: list[Atom], seen: set[Atom]) -> Iterator[tuple[Atom, ...]]:
        for w in adj[path[-1]]:
            if w == root:
                yield tuple(path)
            elif w not in seen and pos[w] > pos[root]:
                seen.add(w)
                path.append(w)
                yield from extend(root, path, seen)
                path.pop()
                seen.discard(w)

    for root in order:
        yield from extend(root, [root], {root})


def closed_walk_infinitely_separable(g: DepGraph, pi: Partition2) -> bool:
    """Independent oracle for infinite separability on finite graphs: a walk
    that visits both parts infinitely often repeats, and re-traces a closed
    walk containing some simple cycle through both parts.  Never used on the
    fast path."""
    _check_cover(g, pi)
    for cycle in simple_cycles(g):
        touched = set(cycle)
        if touched & pi.part1 and touched & pi.part2:
            return False
    return True


def find_closed_subset(g: DepGraph, pi: Partition2) -> frozenset[Atom]:
    """A non-empty vertex set inside one part with no outgoing edges.

    Exists for every separable partition of a non-empty finite graph: some
    vertex reaches only one part, and its reachability closure qualifies.
    """
    _check_cover(g, pi)
    if not g.vertices:
        raise ValueError("the graph has no vertices")
    adj = g._succ
    for v in sorted(g.vertices):
        reach = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        if reach <= pi.part1 or reach <= pi.part2:
            return frozenset(reach)
    raise PartitionError("every vertex reaches both parts; the partition is not separable")


def to_dot(g: DepGraph, pi: Partition2 | None = None) -> str:
    """DOT text, vertices then edges in canonical order; part1 vertices are
    drawn as boxes when a partition is supplied."""
    lines = ["digraph dg {"]
    for v in sorted(g.vertices):
        if pi is not None and v in pi.part1:
            lines.append(f'  "{v}" [shape=box];')
        else:
            lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
