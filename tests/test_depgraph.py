import itertools
import random

import pytest

from astable import (
    Atom,
    AtomRef,
    BOT,
    Conj,
    DepGraph,
    Disj,
    Partition2,
    PartitionError,
    atom,
    atoms_of,
    closed_walk_infinitely_separable,
    conj,
    dep_graph,
    disj,
    find_closed_subset,
    impl,
    is_infinitely_separable,
    is_separable,
    neg,
    neg_nonnegated,
    pos_nonnegated,
    reduct,
    rules,
    satisfies,
    sccs,
    simple_cycles,
    strictly_positive,
    to_dot,
    TOP,
)
from astable.depgraph import components
from astable.verifier import GenConfig, _gen_program, gen_formula

from util import guard_program

P, Q, R, S = atom("p"), atom("q"), atom("r"), atom("s")
PA, PB, QA = Atom("p", ("a",)), Atom("p", ("b",)), Atom("q")


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


class TestOccurrenceAnalyses:
    def test_guard_program_values(self):
        g = guard_program()
        assert strictly_positive(g) == {QA}
        assert pos_nonnegated(g) == {QA}
        assert neg_nonnegated(g) == frozenset()

    def test_top_has_no_positive_atoms(self):
        assert strictly_positive(TOP) == frozenset()

    def test_consequent_alone_is_strictly_positive(self):
        f = impl(neg(Q), Q)
        assert occurrence_sets(f)[0] == {Atom("q")}
        assert strictly_positive(f) == {Atom("q")}

    def test_negation_empties_both_nonnegated_sets(self):
        assert pos_nonnegated(neg(P)) == frozenset()
        assert neg_nonnegated(neg(P)) == frozenset()

    def test_bot_test_is_structural_not_semantic(self):
        semantically_bot = conj([P, neg(P)])
        f = impl(Q, semantically_bot)
        # the consequent is not the empty disjunction, so the branch that
        # empties the sets must not trigger
        assert pos_nonnegated(f) == {Atom("p")}
        assert neg_nonnegated(f) == {Atom("q")}

    def test_recursions_match_occurrence_oracle(self):
        for i in range(400):
            f = gen_formula(GenConfig(seed=500 + i, max_atoms=4, max_depth=4))
            sp, pnn, nnn = occurrence_sets(f)
            assert strictly_positive(f) == sp
            assert pos_nonnegated(f) == pnn
            assert neg_nonnegated(f) == nnn

    def test_deep_implication_chain(self):
        # p -> (p -> (... -> q)) nested 5,000 deep: no recursion in the walk
        f = Q
        for _ in range(5000):
            f = impl(P, f)
        assert strictly_positive(f) == {Atom("q")}
        assert pos_nonnegated(f) == {Atom("q")}
        assert neg_nonnegated(f) == {Atom("p")}
        assert pos_nonnegated(impl(f, R)) == {Atom("p"), Atom("r")}
        assert neg_nonnegated(impl(f, R)) == {Atom("q")}

    def test_strictly_positive_not_always_within_pnn(self):
        # p is strictly positive in (p -> bot) -> p yet doubly guarded
        # occurrences can leave Pnn smaller than P elsewhere; exhibit a case
        # where the sets differ to pin the non-inclusion down.
        f = impl(neg(P), P)
        assert strictly_positive(f) == {Atom("p")}
        assert pos_nonnegated(f) == {Atom("p")}
        g = impl(impl(P, Q), R)
        assert strictly_positive(g) == {Atom("r")}
        assert pos_nonnegated(g) == {Atom("r"), Atom("p")}
        assert not strictly_positive(g) >= pos_nonnegated(g)


class TestRules:
    def test_guard_program_single_rule(self):
        g = guard_program()
        assert rules(g) == [g]

    def test_conjunction_of_atoms_has_no_rules(self):
        assert rules(conj([P, Q])) == []

    def test_nested_consequent_rules(self):
        f = impl(P, impl(Q, R))
        assert rules(f) == [f, impl(Q, R)]

    def test_rules_inside_set_nodes(self):
        # children are visited in canonical order: the disjunction sorts
        # before the implication
        f = conj([impl(P, Q), disj([impl(Q, R), P])])
        assert rules(f) == [impl(Q, R), impl(P, Q)]

    def test_deep_chain(self):
        # p -> (p -> (... -> q)) nested 5,000 deep: every implication, outermost first
        chain = [Q]
        for _ in range(5000):
            chain.append(impl(P, chain[-1]))
        assert rules(chain[-1]) == chain[:0:-1]
        # below a set node of two children, a shared implication is listed once
        twin = impl(Q, chain[199])
        assert rules(conj([twin, chain[200]])) == [*chain[200:0:-1], twin]


class TestDepGraph:
    def test_guard_program_has_no_edges(self):
        g = dep_graph(guard_program(), {PA, PB, QA})
        assert g.vertices == {PA, PB, QA}
        assert g.edges == frozenset()

    def test_finite_chain_edges(self):
        ats = [Atom(f"p{i}") for i in range(5)]
        f = conj([impl(AtomRef(ats[n + 1]), AtomRef(ats[n])) for n in range(4)])
        g = dep_graph(f, set(ats))
        assert g.edges == {(ats[n], ats[n + 1]) for n in range(4)}

    def test_transitive_closure_definition_edges(self):
        from util import tc_definition

        g_formula, q_set = tc_definition(("a", "b"))
        g = dep_graph(g_formula, q_set)
        expected = set()
        for x, y, z in itertools.product("ab", repeat=3):
            head = Atom("q", (x, z))
            expected.add((head, Atom("q", (x, y))))
            expected.add((head, Atom("q", (y, z))))
        assert g.edges == frozenset(expected)

    def test_edge_monotone_under_conjunction(self):
        rng = random.Random(17)
        for i in range(100):
            f = gen_formula(GenConfig(seed=100 + i, max_atoms=4, max_depth=3))
            g = gen_formula(GenConfig(seed=900 + i, max_atoms=4, max_depth=3))
            a = atoms_of(f) | atoms_of(g)
            assert dep_graph(conj([f, g]), a).edges >= dep_graph(f, a).edges

    def test_deep_implication_chain(self):
        # p -> (p -> (... -> q)) nested 5,000 deep: no formula is hashed
        f = Q
        for _ in range(5000):
            f = impl(P, f)
        g = dep_graph(f, {Atom("p"), Atom("q")})
        assert g.edges == {(Atom("q"), Atom("p"))}

    def test_edges_match_rules_reference(self):
        # the definition read off `rules`: heads of each strictly positive
        # implication times the positive nonnegated atoms of its antecedent
        def reference(f, a):
            edges = set()
            for r in rules(f):
                heads = strictly_positive(r.rhs) & a
                edges.update((p, q) for p in heads for q in pos_nonnegated(r.lhs) & a)
            return edges

        rng = random.Random(23)
        pool = [Atom(c) for c in "abcde"]
        for i in range(400):
            f = gen_formula(GenConfig(seed=2_000 + i, max_atoms=5, max_depth=4))
            a = frozenset(x for x in pool if rng.random() < 0.7)
            assert dep_graph(f, a).edges == reference(f, a)
            conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
            assert dep_graph(conjuncts, a) == dep_graph(conj(conjuncts), a)
            assert dep_graph(conj(conjuncts), a).edges == reference(conj(conjuncts), a)


class TestAdjacency:
    def test_successors_are_sorted_edge_targets(self):
        rng = random.Random(5)
        for _ in range(100):
            verts = [Atom(f"v{i}") for i in range(rng.randint(1, 7))]
            edges = frozenset(
                (u, v) for u in verts for v in verts if rng.random() < 0.3
            )
            g = DepGraph(frozenset(verts), edges)
            for u in verts:
                assert g.successors(u) == sorted(w for x, w in edges if x == u)

    def test_edge_outside_vertices_rejected(self):
        p, q = Atom("p"), Atom("q")
        with pytest.raises(ValueError):
            DepGraph(frozenset({p}), frozenset({(p, q)}))


class TestSccs:
    def test_long_path_in_condensation_order(self):
        # a depth-first search from the smallest vertex goes 5,000 deep
        verts = [Atom(f"v{i:05d}") for i in range(5000)]
        edges = frozenset((verts[i], verts[i + 1]) for i in range(4999))
        g = DepGraph(frozenset(verts), edges)
        assert sccs(g) == [frozenset({v}) for v in verts]

    def test_chain_graph(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        g = DepGraph(frozenset({a, b, c}), frozenset({(a, b), (b, c)}))
        assert sccs(g) == [frozenset({a}), frozenset({b}), frozenset({c})]

    def test_two_cycle(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset({(p, q), (q, p)}))
        assert sccs(g) == [frozenset({p, q})]

    def test_empty_graph_in_canonical_order(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset())
        assert sccs(g) == [frozenset({p}), frozenset({q})]

    def test_condensation_respects_edges(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 7)
            verts = [Atom(f"v{i}") for i in range(n)]
            edges = frozenset(
                (u, v) for u in verts for v in verts if rng.random() < 0.25
            )
            g = DepGraph(frozenset(verts), edges)
            comps = sccs(g)
            assert frozenset().union(*comps) == g.vertices
            index = {v: k for k, comp in enumerate(comps) for v in comp}
            for u, v in edges:
                assert index[u] <= index[v]
            # each component is a mutual-reachability class, found by BFS
            # over edges that may include self-loops
            reach = {}
            for v in verts:
                queue = [v]
                for u in queue:
                    queue += [w for x, w in edges if x == u and w not in queue]
                reach[v] = set(queue)
            classes = {frozenset(w for w in verts if w in reach[v] and v in reach[w]) for v in verts}
            plain, comp_of = components(g)
            assert len(comps) == len(plain) == len(classes)
            assert set(comps) == set(plain) == classes
            assert all(v in plain[k] for v, k in comp_of.items()) and comp_of.keys() == g.vertices
            # among the components whose predecessors are all listed, the
            # one with the smallest atom comes next
            for k, comp in enumerate(comps):
                ready = [c for c in comps[k:] if all(index[u] < k for u, v in edges if v in c and u not in c)]
                assert min(comp) == min(min(c) for c in ready)


class TestSeparability:
    def test_chain_partitions_always_separable(self):
        ats = [Atom(f"p{i}") for i in range(5)]
        g = DepGraph(frozenset(ats), frozenset((ats[i], ats[i + 1]) for i in range(4)))
        evens = frozenset(ats[0::2])
        odds = frozenset(ats[1::2])
        assert is_separable(g, Partition2(evens, odds))
        assert is_infinitely_separable(g, Partition2(evens, odds))
        assert closed_walk_infinitely_separable(g, Partition2(evens, odds))

    def test_split_cycle_is_not_separable(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset({(p, q), (q, p)}))
        pi = Partition2(frozenset({p}), frozenset({q}))
        assert not is_separable(g, pi)
        assert not is_infinitely_separable(g, pi)
        # the repeated walk p,q,p,... visits both parts forever
        assert not closed_walk_infinitely_separable(g, pi)

    def test_edgeless_graph_any_partition(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset())
        assert is_separable(g, Partition2(frozenset({p}), frozenset({q})))

    def test_non_covering_partition_rejected(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset())
        with pytest.raises(PartitionError):
            is_separable(g, Partition2(frozenset({p}), frozenset()))

    def test_overlapping_parts_rejected(self):
        with pytest.raises(PartitionError):
            Partition2(frozenset({Atom("p")}), frozenset({Atom("p")}))

    def test_infinitely_separable_implies_separable_on_random_graphs(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 6)
            verts = [Atom(f"v{i}") for i in range(n)]
            g = DepGraph(
                frozenset(verts),
                frozenset((u, v) for u in verts for v in verts if rng.random() < 0.3),
            )
            part1 = frozenset(v for v in verts if rng.random() < 0.5)
            pi = Partition2(part1, g.vertices - part1)
            if closed_walk_infinitely_separable(g, pi):
                assert is_separable(g, pi)
            assert is_separable(g, pi) == closed_walk_infinitely_separable(g, pi)


class TestSimpleCycles:
    def test_self_loop(self):
        p = Atom("p")
        g = DepGraph(frozenset({p}), frozenset({(p, p)}))
        assert list(simple_cycles(g)) == [(p,)]

    def test_triangle(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        g = DepGraph(frozenset({a, b, c}), frozenset({(a, b), (b, c), (c, a)}))
        cycles = list(simple_cycles(g))
        assert len(cycles) == 1
        assert set(cycles[0]) == {a, b, c}


class TestFindClosedSubset:
    def test_two_components(self):
        p, q = Atom("p"), Atom("q")
        g = DepGraph(frozenset({p, q}), frozenset({(p, q)}))
        pi = Partition2(frozenset({p}), frozenset({q}))
        b = find_closed_subset(g, pi)
        assert b == frozenset({q})

    def test_random_separable_partitions(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(1, 7)
            verts = [Atom(f"v{i}") for i in range(n)]
            g = DepGraph(
                frozenset(verts),
                frozenset((u, v) for u in verts for v in verts if rng.random() < 0.3),
            )
            part1 = set()
            for comp in sccs(g):
                if rng.random() < 0.5:
                    part1 |= comp
            pi = Partition2(frozenset(part1), g.vertices - frozenset(part1))
            b = find_closed_subset(g, pi)
            assert b
            assert b <= pi.part1 or b <= pi.part2
            assert not any(u in b and v not in b for u, v in g.edges)

    def test_empty_graph_rejected(self):
        g = DepGraph(frozenset(), frozenset())
        with pytest.raises(ValueError):
            find_closed_subset(g, Partition2(frozenset(), frozenset()))


class TestDot:
    def test_canonical_output_with_partition(self):
        g = dep_graph(guard_program(), {PA, PB, QA})
        text = to_dot(g, Partition2(frozenset({PA}), frozenset({PB, QA})))
        assert text == (
            'digraph dg {\n'
            '  "p(a)" [shape=box];\n'
            '  "p(b)";\n'
            '  "q";\n'
            '}\n'
        )

    def test_edges_listed_after_vertices(self):
        p0, p1 = Atom("p0"), Atom("p1")
        g = DepGraph(frozenset({p0, p1}), frozenset({(p0, p1)}))
        assert to_dot(g) == (
            'digraph dg {\n'
            '  "p0";\n'
            '  "p1";\n'
            '  "p0" -> "p1";\n'
            '}\n'
        )


class TestReductRemovalLemmas:
    def _cases(self, n, seed):
        rng = random.Random(seed)
        for k in range(n):
            f = gen_formula(GenConfig(seed=seed + k, max_atoms=4, max_depth=3))
            sigma = sorted(atoms_of(f) | {Atom("w")})
            i = frozenset(x for x in sigma if rng.random() < 0.6)
            yield rng, f, frozenset(sigma), i

    def test_pnn_removal_preserves_reduct_satisfaction(self):
        hits = 0
        for rng, f, sigma, i in self._cases(300, 2600):
            r = reduct(f, i)
            b1 = frozenset(x for x in sorted(sigma) if rng.random() < 0.3)
            b2 = frozenset(
                x for x in sorted(sigma - b1 - pos_nonnegated(f)) if rng.random() < 0.5
            )
            if satisfies(i - b1, r):
                hits += 1
                assert satisfies(i - (b1 | b2), r)
        assert hits > 50

    def test_nnn_removal_preserves_reduct_satisfaction_backwards(self):
        hits = 0
        for rng, f, sigma, i in self._cases(300, 2700):
            r = reduct(f, i)
            b1 = frozenset(x for x in sorted(sigma) if rng.random() < 0.3)
            b2 = frozenset(
                x for x in sorted(sigma - b1 - neg_nonnegated(f)) if rng.random() < 0.5
            )
            if satisfies(i - (b1 | b2), r):
                hits += 1
                assert satisfies(i - b1, r)
        assert hits > 50

    def test_edge_free_removal_lemma(self):
        hits = 0
        for rng, f, sigma, i in self._cases(400, 2800):
            b = frozenset(x for x in sorted(sigma) if rng.random() < 0.4)
            c = frozenset(x for x in sorted(sigma - b) if rng.random() < 0.4)
            g = dep_graph(f, b | c)
            if any(u in b and v in c for u, v in g.edges):
                continue
            r = reduct(f, i)
            if satisfies(i - (b | c), r):
                hits += 1
                assert satisfies(i - b, r)
        assert hits > 50
