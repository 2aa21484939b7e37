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
from collections import Counter
from itertools import count, repeat
from typing import AbstractSet, Iterator, Sequence

from .formula import Atom, AtomRef, Disj, Formula, Impl
from .records import Record


class PartitionError(ValueError):
    pass


class DepGraph(Record):
    __slots__ = ("vertices", "edges", "_succ")

    def __init__(self, vertices: frozenset[Atom], edges: frozenset[tuple[Atom, Atom]]) -> None:
        succ: dict[Atom, list[Atom]] = {v: [] for v in vertices}
        for u, v in edges:
            if u not in succ or v not in succ:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            succ[u].append(v)
        for targets in succ.values():
            targets.sort()
        _set_vertices(self, vertices)
        _set_edges(self, edges)
        # the sorted successor lists, built once and read by every graph routine
        _set_succ(self, succ)

    def successors(self, v: Atom) -> list[Atom]:
        return list(self._succ.get(v, ()))


class Partition2(Record):
    """Two disjoint (possibly empty) atom sets."""

    __slots__ = ("part1", "part2")

    def __init__(self, part1: frozenset[Atom], part2: frozenset[Atom]) -> None:
        overlap = part1 & part2
        if overlap:
            names = ", ".join(str(a) for a in sorted(overlap))
            raise PartitionError(f"partition parts overlap on: {names}")
        _set_part1(self, part1)
        _set_part2(self, part2)


_set_vertices = DepGraph.vertices.__set__
_set_edges = DepGraph.edges.__set__
_set_succ = DepGraph._succ.__set__
_set_part1 = Partition2.part1.__set__
_set_part2 = Partition2.part2.__set__


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


def strong_components(succs: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The strongly connected components of the graph over 0..n-1 with
    successor lists succs, in the order Tarjan's algorithm closes them from
    roots in index order, and the index of each vertex's component there."""
    index = [-1] * len(succs)
    lowlink = [0] * len(succs)
    comp_of = [-1] * len(succs)
    visits = count()
    stack: list[int] = []
    comps: list[list[int]] = []

    # a visited vertex stays on Tarjan's stack until comp_of assigns it
    for root in range(len(succs)):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = next(visits)
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = lowlink[w] = next(visits)
                    stack.append(w)
                    work.append((w, iter(succs[w])))
                    break
                if comp_of[w] < 0 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if work and low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low
                if low == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp_of[w] = len(comps)
                        comp.append(w)
                    comps.append(comp)
    return comps, comp_of


def topological_order(succs: list[list[int]], comps: list[list[int]], comp_of: list[int]) -> list[int]:
    """Indices into comps, the strongly connected components of the graph
    with successor lists succs (see `strong_components`), in condensation
    order: each before the others its edges enter, the one with the
    smallest vertex first among those ready."""
    indeg = Counter(comp_of[w] for v, out in enumerate(succs) for w in out if comp_of[w] != comp_of[v])
    ready = [min(c) for k, c in enumerate(comps) if not indeg[k]]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        k = comp_of[heapq.heappop(ready)]
        order.append(k)
        for j in [comp_of[w] for v in comps[k] for w in succs[v]]:
            if j != k:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, min(comps[j]))
    return order


def _numbered_components(g: DepGraph) -> tuple[list[Atom], list[list[int]], list[list[int]], list[int]]:
    """g's vertices sorted, its successor lists over their positions, and their components."""
    verts = sorted(g.vertices)
    index = {v: k for k, v in enumerate(verts)}
    succs = [[index[w] for w in g._succ[v]] for v in verts]
    return verts, succs, *strong_components(succs)


def components(g: DepGraph) -> tuple[list[frozenset[Atom]], dict[Atom, int]]:
    """The strongly connected components, in the order Tarjan's algorithm
    closes them from the vertices in sorted order, and the index of each
    vertex's component in that list."""
    verts, _, comps, comp_of = _numbered_components(g)
    return [frozenset(map(verts.__getitem__, c)) for c in comps], dict(zip(verts, comp_of))


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components in condensation order, the one with the
    smallest atom first among those ready (see `topological_order`)."""
    verts, succs, comps, comp_of = _numbered_components(g)
    return [frozenset(map(verts.__getitem__, comps[k])) for k in topological_order(succs, comps, comp_of)]


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
