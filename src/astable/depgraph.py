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
from typing import AbstractSet, Iterator

from .formula import Atom, AtomRef, BOT, Conj, Disj, Formula, Impl, atoms_of


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class DepGraph:
    vertices: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")

    def successors(self, v: Atom) -> list[Atom]:
        return sorted(w for u, w in self.edges if u == v)


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


def strictly_positive(f: Formula) -> frozenset[Atom]:
    """Atoms occurring under no implication antecedent."""
    if isinstance(f, AtomRef):
        return frozenset((f.atom,))
    if isinstance(f, (Conj, Disj)):
        return frozenset().union(*(strictly_positive(c) for c in f.children))
    assert isinstance(f, Impl)
    return strictly_positive(f.rhs)


def pos_nonnegated(f: Formula) -> frozenset[Atom]:
    """Positive nonnegated atoms; the consequent-is-bot test is structural."""
    if isinstance(f, AtomRef):
        return frozenset((f.atom,))
    if isinstance(f, (Conj, Disj)):
        return frozenset().union(*(pos_nonnegated(c) for c in f.children))
    assert isinstance(f, Impl)
    if f.rhs == BOT:
        return frozenset()
    return neg_nonnegated(f.lhs) | pos_nonnegated(f.rhs)


def neg_nonnegated(f: Formula) -> frozenset[Atom]:
    """Negative nonnegated atoms, mutually recursive with pos_nonnegated."""
    if isinstance(f, AtomRef):
        return frozenset()
    if isinstance(f, (Conj, Disj)):
        return frozenset().union(*(neg_nonnegated(c) for c in f.children))
    assert isinstance(f, Impl)
    if f.rhs == BOT:
        return frozenset()
    return pos_nonnegated(f.lhs) | neg_nonnegated(f.rhs)


def rules(f: Formula) -> list[Formula]:
    """Strictly positive implications, outermost first, without duplicates."""
    out: list[Formula] = []
    seen: set[Formula] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Impl):
            if g not in seen:
                seen.add(g)
                out.append(g)
            walk(g.rhs)
        elif isinstance(g, (Conj, Disj)):
            for c in g.children:
                walk(c)

    walk(f)
    return out


def occurs_in(p: Atom, f: Formula) -> bool:
    return p in atoms_of(f)


def dep_graph(f: Formula, a: AbstractSet[Atom]) -> DepGraph:
    """Positive dependency graph of f over the intensional atoms a."""
    a = frozenset(a)
    edges: set[tuple[Atom, Atom]] = set()
    for r in rules(f):
        assert isinstance(r, Impl)
        heads = strictly_positive(r.rhs) & a
        if not heads:
            continue
        bodies = pos_nonnegated(r.lhs) & a
        edges.update((p, q) for p in heads for q in bodies)
    return DepGraph(a, frozenset(edges))


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components in condensation order.

    Every edge runs from an earlier-or-equal to a later-or-equal component;
    ties are broken by the smallest atom of each component.
    """
    order = sorted(g.vertices)
    adj: dict[Atom, list[Atom]] = {v: [] for v in order}
    for u, v in g.edges:
        adj[u].append(v)
    for targets in adj.values():
        targets.sort()

    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    on_stack: set[Atom] = set()
    stack: list[Atom] = []
    counter = iter(range(len(order)))
    comps: list[frozenset[Atom]] = []

    def connect(v: Atom) -> None:
        index[v] = lowlink[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in adj[v]:
            if w not in index:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            comps.append(frozenset(comp))

    for v in order:
        if v not in index:
            connect(v)

    # Condensation topological sort, smallest-atom tie-break.
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    succs: dict[int, set[int]] = {k: set() for k in range(len(comps))}
    indeg = {k: 0 for k in range(len(comps))}
    for u, v in g.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv and cv not in succs[cu]:
            succs[cu].add(cv)
            indeg[cv] += 1
    ready = [(min(comps[k]), k) for k in indeg if indeg[k] == 0]
    heapq.heapify(ready)
    ordered: list[frozenset[Atom]] = []
    while ready:
        _, k = heapq.heappop(ready)
        ordered.append(comps[k])
        for nxt in succs[k]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, (min(comps[nxt]), nxt))
    return ordered


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
    adj = {v: g.successors(v) for v in order}

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
    adj = {v: g.successors(v) for v in g.vertices}
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
