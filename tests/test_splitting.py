import gc
import random
import time

import pytest

from astable import (
    Atom,
    AtomRef,
    CapExceeded,
    PreconditionError,
    SignatureError,
    SplitPlanError,
    TOP,
    atom,
    atoms_of,
    conj,
    dep_graph,
    disj,
    enumerate_a_stable,
    impl,
    modular_solve,
    neg,
    plan_split,
    satisfies,
    sccs,
    split_models_lemma,
    split_models_theorem,
    strictly_positive,
)
from astable import depgraph, splitting, stable
from astable.depgraph import components
from astable.verifier import _gen_program, _scc_aligned_partition
from astable.bench import (
    BenchInstance,
    chain_atoms,
    layered_chain,
    run_bench,
    truncate_chain,
    write_csv,
)

from util import all_subsets, brute_a_stable, guard_program, tc_definition

PA, PB, Q = Atom("p", ("a",)), Atom("p", ("b",)), Atom("q")
SIG = frozenset({PA, PB, Q})
G = guard_program()


class TestSplitLemma:
    def test_guard_with_fact_single_element_domain(self):
        g1 = guard_program(("a",))
        f = conj([g1, AtomRef(PA)])
        got = split_models_lemma(f, {Q}, {PA}, {PA, Q})
        assert got.as_set() == {frozenset({PA})}

    def test_partition_union_smaller_than_sigma_frees_other_atoms(self):
        # with p(b) outside both parts it is extensional and floats freely
        f = conj([G, AtomRef(PA)])
        got = split_models_lemma(f, {Q}, {PA}, SIG)
        assert got.as_set() == {frozenset({PA}), frozenset({PA, PB})}
        assert got.as_set() == brute_a_stable(f, SIG, {Q, PA})

    def test_empty_second_part_recovers_a_stable_models(self):
        got = split_models_lemma(G, {Q}, frozenset(), SIG)
        assert got.as_set() == enumerate_a_stable(G, {Q}, SIG).as_set()

    def test_overlapping_parts_rejected(self):
        with pytest.raises(PreconditionError):
            split_models_lemma(G, {Q}, {Q, PA}, SIG)

    def test_split_cycle_rejected_with_witness(self):
        p, q = Atom("p"), Atom("q")
        f = conj([impl(AtomRef(p), AtomRef(q)), impl(AtomRef(q), AtomRef(p))])
        with pytest.raises(PreconditionError) as err:
            split_models_lemma(f, {p}, {q})
        assert "strongly connected component" in str(err.value)
        assert "{p,q}" in str(err.value)

    def test_matches_brute_force_on_random_separable_partitions(self):
        rng = random.Random(42)
        pool = [Atom(c) for c in "abcd"]
        checked = 0
        for k in range(500):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 4))
            f = conj(conjuncts)
            sigma = frozenset(pool)
            a = frozenset(x for x in pool if rng.random() < 0.8)
            pi = _scc_aligned_partition(rng, dep_graph(f, a))
            got = split_models_lemma(f, pi.part1, pi.part2, sigma)
            assert got.as_set() == brute_a_stable(f, sigma, a)
            checked += 1
        assert checked == 500


class TestSplitTheorem:
    def test_guard_and_facts(self):
        facts = conj([AtomRef(PA), AtomRef(PB)])
        got = split_models_theorem(G, facts, {Q}, {PA, PB}, SIG)
        assert got.as_set() == {frozenset({PA, PB})}
        brute = enumerate_a_stable(conj([G, facts]), SIG, SIG)
        assert got.as_set() == brute.as_set()

    def test_top_second_formula_recovers_a_stable_models(self):
        got = split_models_theorem(G, TOP, {Q}, frozenset(), SIG)
        assert got.as_set() == enumerate_a_stable(G, {Q}, SIG).as_set()

    def test_each_violation_reported_separately(self):
        p, q = Atom("p"), Atom("q")
        f = impl(AtomRef(q), AtomRef(p))
        g = impl(AtomRef(p), AtomRef(q))
        with pytest.raises(PreconditionError) as err:
            split_models_theorem(f, g, {q}, {p})
        # both direction violations and the straddled component are listed
        assert len(err.value.violations) == 3
        text = str(err.value)
        assert "first formula" in text and "second formula" in text
        assert "strongly connected component" in text

    def test_agrees_with_lemma_when_both_apply(self):
        rng = random.Random(77)
        pool = [Atom(c) for c in "abcd"]
        hits = 0
        for k in range(300):
            conjuncts = _gen_program(rng, pool, rng.randint(2, 4))
            whole = conj(conjuncts)
            sigma = frozenset(pool)
            a = frozenset(x for x in pool if rng.random() < 0.8)
            pi = _scc_aligned_partition(rng, dep_graph(whole, a))
            a1, a2 = pi.part1, pi.part2
            fs, gs = [], []
            ok = True
            for c in conjuncts:
                heads = strictly_positive(c) & a
                if heads and heads <= a1:
                    fs.append(c)
                elif heads and heads <= a2:
                    gs.append(c)
                elif not heads:
                    fs.append(c)
                else:
                    ok = False
            if not ok:
                continue
            f, g = conj(fs), conj(gs)
            if (a2 & strictly_positive(f)) or (a1 & strictly_positive(g)):
                continue
            hits += 1
            via_theorem = split_models_theorem(f, g, a1, a2, sigma)
            via_lemma = split_models_lemma(conj([f, g]), a1, a2, sigma)
            brute = brute_a_stable(conj([f, g]), sigma, a1 | a2)
            assert via_theorem.as_set() == via_lemma.as_set() == brute
        assert hits > 100


def chain_program(n):
    """p1 -> p0, p2 -> p1, ... over n+1 atoms."""
    ats = [Atom(f"p{i}") for i in range(n + 1)]
    return ats, [impl(AtomRef(ats[k + 1]), AtomRef(ats[k])) for k in range(n)]


class TestPlanSplit:
    def test_chain_blocks_in_order(self):
        ats, conjuncts = chain_program(2)
        plan = plan_split(conjuncts, set(ats))
        assert [b for b, _ in plan.blocks] == [frozenset({a}) for a in ats]
        # each conjunct sits in the block of its head
        assert plan.blocks[0][1] == conj([conjuncts[0]])
        assert plan.blocks[1][1] == conj([conjuncts[1]])
        assert plan.blocks[2][1] == conj([])
        assert plan.residual == ()

    def test_transitive_closure_blocks_follow_sccs(self):
        from util import tc_definition

        g_formula, q_set = tc_definition(("a", "b"))
        conjuncts = list(g_formula.children)
        plan = plan_split(conjuncts, q_set)
        assert [b for b, _ in plan.blocks] == sccs(dep_graph(g_formula, q_set))

    def test_two_cycle_single_block(self):
        q1, q2 = Atom("q1"), Atom("q2")
        conjuncts = [impl(AtomRef(q1), AtomRef(q2)), impl(AtomRef(q2), AtomRef(q1))]
        plan = plan_split(conjuncts, {q1, q2})
        assert [b for b, _ in plan.blocks] == [frozenset({q1, q2})]

    def test_constraints_go_to_residual(self):
        p = Atom("p")
        conjuncts = [AtomRef(p), neg(AtomRef(p))]
        plan = plan_split(conjuncts, {p})
        assert plan.residual == (neg(AtomRef(p)),)

    def test_head_spanning_blocks_is_an_error(self):
        p, q = Atom("p"), Atom("q")
        with pytest.raises(SplitPlanError) as caught:
            plan_split([conj([AtomRef(p), AtomRef(q)])], {p, q})
        assert str(caught.value) == (
            "conjunct 'p & q' has strictly positive intensional atoms p, q "
            "spanning multiple dependency blocks")
        # a wide conjunct is kept whole but shown as a prefix, as are its heads
        wide = [Atom(f"a{i}") for i in range(300)]
        f = disj([AtomRef(x) for x in wide])
        with pytest.raises(SplitPlanError) as caught:
            plan_split([f], set(wide))
        assert caught.value.conjunct is f
        assert len(str(caught.value)) < 500
        assert str(caught.value).count("...") == 2

    def test_blocks_cover_intensional_set_disjointly(self):
        rng = random.Random(4)
        pool = [Atom(c) for c in "abcde"]
        for k in range(100):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 5))
            a = frozenset(x for x in pool if rng.random() < 0.7)
            try:
                plan = plan_split(conjuncts, a)
            except SplitPlanError:
                continue
            blocks = [b for b, _ in plan.blocks]
            assert frozenset().union(*blocks) if blocks else frozenset() == a
            seen = set()
            for b in blocks:
                assert not (b & seen)
                seen |= b

    def test_units_are_the_mention_graph_components(self):
        # the units are the strongly connected components of the mention
        # graph, found here by plain reachability; each is a union of
        # dependency blocks, and each unit's formula mentions only its own
        # atoms, atoms of later-listed units and atoms outside A
        rng = random.Random(11)
        pool = [Atom(c) for c in "abcdef"]
        cyclic = spanning = 0
        for k in range(300):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
            if rng.random() < 0.2:
                conjuncts.append(disj([AtomRef(x) for x in rng.sample(pool, 2)]))
            a = frozenset(x for x in pool if rng.random() < 0.8)
            heads = [strictly_positive(c) & a for c in conjuncts]
            blocks = sccs(dep_graph(conjuncts, a))
            if any(sum(1 for b in blocks if b & hs) > 1 for hs in heads):
                spanning += 1
                with pytest.raises(SplitPlanError):
                    plan_split(conjuncts, a)
                continue
            succ = {x: set() for x in a}
            for c, hs in zip(conjuncts, heads):
                for h in hs:
                    succ[h] |= atoms_of(c) & a
            reach = {}
            for x in a:
                seen, todo = {x}, [x]
                while todo:
                    for y in succ[todo.pop()] - seen:
                        seen.add(y)
                        todo.append(y)
                reach[x] = seen
            want = {frozenset(y for y in a if x in reach[y] and y in reach[x]) for x in a}
            plan = plan_split(conjuncts, a)
            units = [u for u, _ in plan.blocks]
            assert len(units) == len(want) and set(units) == want
            for u in units:
                assert all(b <= u or not (b & u) for b in blocks)
            for j, (u, f) in enumerate(plan.blocks):
                assert atoms_of(f) & a <= u.union(*units[j + 1 :])
                assert all(strictly_positive(c) & a <= u for c in f.children)
            assert list(plan.residual) == [c for c, hs in zip(conjuncts, heads) if not hs]
            cyclic += any(len(u) > 1 for u in units)
        assert cyclic > 20 and spanning > 10

    def test_dependency_graph_is_built_only_for_several_heads(self, monkeypatch):
        # the spy sees each dependency graph built and the vertex count of
        # each graph the SCC routine gets, in the order they happen
        calls = []
        real_dep_graph, real_scc = splitting.dep_graph, depgraph.strong_components
        monkeypatch.setattr(splitting, "dep_graph", lambda *args: calls.append("dep_graph") or real_dep_graph(*args))
        spy = lambda succs: calls.append(len(succs)) or real_scc(succs)
        monkeypatch.setattr(depgraph, "strong_components", spy)
        monkeypatch.setattr(splitting, "strong_components", spy)
        ats, chain = chain_program(5)
        plan_split(chain, set(ats))
        ring = chain + [impl(AtomRef(ats[0]), AtomRef(ats[5]))]
        plan = plan_split(ring, set(ats))
        # 6 atoms and a hub per rule
        assert calls == [6 + 5, 6 + 6] and [b for b, _ in plan.blocks] == [frozenset(ats)]
        calls.clear()
        x, y = Atom("x"), Atom("y")
        with pytest.raises(SplitPlanError):
            plan_split([disj([AtomRef(x), AtomRef(y)])], {x, y})
        # refused on the dependency graph, before the mention graph's 2 + 1 vertices
        assert calls == ["dep_graph", 2]

    @pytest.mark.parametrize("n", [100, 1000])
    def test_mention_graph_grows_linearly(self, n, monkeypatch):
        graphs = []  # (vertices, successor entries) of each graph the SCC routine gets
        real = depgraph.strong_components
        spy = lambda succs: graphs.append((len(succs), sum(map(len, succs)))) or real(succs)
        monkeypatch.setattr(depgraph, "strong_components", spy)
        monkeypatch.setattr(splitting, "strong_components", spy)
        ats = [Atom(f"a{i}") for i in range(n)]
        wide = disj([AtomRef(x) for x in ats])
        with pytest.raises(SplitPlanError):
            plan_split([wide], set(ats))
        assert graphs == [(n, 0)]  # the edgeless dependency graph, no mention graph
        graphs.clear()
        ring = [impl(AtomRef(ats[i]), AtomRef(ats[(i + 1) % n])) for i in range(n)]
        plan = plan_split([wide] + ring, set(ats))
        assert [b for b, _ in plan.blocks] == [frozenset(ats)]
        # the ring's n dependency edges, then the mention graph: the
        # disjunction's n heads to its hub and the hub to n atoms, and
        # per ring rule one head to its hub and the hub to two atoms
        dependency, mention = graphs
        assert dependency == (n, n)
        assert mention[0] == n + 1 + n and mention[1] <= 5 * n


class TestModularSolve:
    def test_sixteen_atom_chain_matches_brute_force_and_is_faster(self):
        ats, conjuncts = chain_program(15)
        sigma = frozenset(ats)

        def fastest(solve):
            # the least of 5 readings, each after a collection so that where
            # one falls does not depend on what ran before
            times = []
            for _ in range(5):
                gc.collect()
                t0 = time.perf_counter()
                models = solve()
                times.append(time.perf_counter() - t0)
            return models, min(times)

        modular, t_mod = fastest(lambda: modular_solve(conjuncts, sigma, sigma))
        brute, t_naive = fastest(lambda: enumerate_a_stable(conj(conjuncts), sigma, sigma))
        assert modular.as_set() == brute.as_set() == {frozenset()}
        assert t_mod < t_naive

    def test_isomorphic_blocks_share_solutions(self, monkeypatch):
        # q1 -> q0 ... q5 -> q4 and r1 -> r0 ... r5 -> r4 with the fact r5:
        # the blocks of both chains compile to the same shape, and each
        # shape is solved once per context, q's false and r's true
        solves = []
        real = splitting._stable_models
        monkeypatch.setattr(splitting, "_stable_models", lambda *args: solves.append(1) or real(*args))
        q = [Atom(f"q{i}") for i in range(6)]
        r = [Atom(f"r{i}") for i in range(6)]
        conjuncts = [impl(AtomRef(x[k + 1]), AtomRef(x[k])) for x in (q, r) for k in range(5)]
        conjuncts.append(AtomRef(r[5]))
        sigma = frozenset(q + r)
        got = modular_solve(conjuncts, sigma, sigma)
        assert got.as_set() == enumerate_a_stable(conj(conjuncts), sigma, sigma).as_set() == {frozenset(r)}
        assert len(solves) < len(sigma)

    def test_guard_plus_facts_example(self):
        conjuncts = [G, AtomRef(PA), AtomRef(PB)]
        got = modular_solve(conjuncts, SIG, SIG)
        assert got.as_set() == {frozenset({PA, PB})}

    def test_deep_conjunct_shares_a_block(self):
        # p -> (p -> (... -> q)) nested 5,000 deep and p -> q head the same block
        p, q = atom("p"), atom("q")
        deep = q
        for _ in range(5000):
            deep = impl(p, deep)
        conjuncts = [deep, impl(p, q), p]
        sigma = {p.atom, q.atom}
        got = modular_solve(conjuncts, sigma, sigma)
        assert got == enumerate_a_stable(conj(conjuncts), sigma, sigma)
        assert got.as_set() == {frozenset(sigma)}
        assert modular_solve(conjuncts[:2], sigma, sigma).as_set() == {frozenset()}

    def test_unsatisfiable_constraint_gives_empty(self):
        q = Atom("q")
        got = modular_solve([AtomRef(q), neg(AtomRef(q))], {q}, {q})
        assert got.as_set() == set()

    def test_negative_two_cycle_is_one_unit(self, caplog):
        p, q = Atom("p"), Atom("q")
        conjuncts = [impl(neg(AtomRef(q)), AtomRef(p)), impl(neg(AtomRef(p)), AtomRef(q))]
        assert [b for b, _ in plan_split(conjuncts, {p, q}).blocks] == [frozenset({p, q})]
        with caplog.at_level("WARNING"):
            got = modular_solve(conjuncts, {p, q}, {p, q})
        assert caplog.text == ""
        assert got.as_set() == {frozenset({p}), frozenset({q})}

    def test_negative_ring_is_solved_with_one_atom_parts(self, monkeypatch):
        # not x_i -> x_(i+1) around 20 atoms: one unit with no positive
        # dependency, so its parts are its 20 atoms, each a definition
        # decided by its support conjunct x_(i+1) -> not x_i in the sweep,
        # which leaves no part to check and keeps the two alternating
        # interpretations, its stable models
        calls = []
        real = splitting._stable_models
        monkeypatch.setattr(splitting, "_stable_models", lambda *args: calls.append(args[3:]) or real(*args))
        xs = [Atom(f"x{i:02d}") for i in range(20)]
        conjuncts = [impl(neg(AtomRef(xs[i])), AtomRef(xs[(i + 1) % 20])) for i in range(20)]
        got = modular_solve(conjuncts, frozenset(xs), frozenset(xs))
        assert got.as_set() == {frozenset(xs[0::2]), frozenset(xs[1::2])}
        ((parts, swept),) = calls
        assert parts == [] and len(stable._candidate_models(swept, range(20), 0)) == 2

    def test_random_wide_units_match_solve_and_the_reference(self, monkeypatch):
        # a negative cycle through 7 to 9 atoms makes them one unit, wider
        # than one run and no definition as a whole, and random rules,
        # choices and extensional atoms around it: its one-atom parts that
        # are definitions are decided by the support sweep, the rest by
        # the segment checks against the unit's own formula
        supported = []
        real = splitting.compile_extensible
        monkeypatch.setattr(splitting, "compile_extensible", lambda f: supported.append(f) or real(f))
        rng = random.Random(18)
        for _ in range(25):
            n = rng.randint(7, 9)
            xs = [Atom(f"x{i}") for i in range(n)]
            es = [Atom(f"e{j}") for j in range(rng.randint(0, 2))]
            conjuncts = [impl(neg(AtomRef(xs[i])), AtomRef(xs[(i + 1) % n])) for i in range(n)]
            conjuncts += _gen_program(rng, xs + es, rng.randint(0, 4))
            conjuncts += [disj([AtomRef(x), neg(AtomRef(x))]) for x in xs if rng.random() < 0.15]
            sigma = frozenset(xs + es)
            a = frozenset(xs) if rng.random() < 0.6 else frozenset(x for x in xs if rng.random() < 0.8)
            got = modular_solve(conjuncts, a, sigma)
            assert got == enumerate_a_stable(conj(conjuncts), a, sigma)
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)
        assert len(supported) >= 10

    def test_isomorphic_units_share_one_swept_program(self, monkeypatch):
        # two negative 8-cycles over x and y: units of one shape, each
        # decided by its support sweep, whose program is compiled once
        supported = []
        real = splitting.compile_extensible
        monkeypatch.setattr(splitting, "compile_extensible", lambda f: supported.append(f) or real(f))
        cycles = [[Atom(f"{name}{i}") for i in range(8)] for name in "xy"]
        conjuncts = [impl(neg(AtomRef(c[i])), AtomRef(c[(i + 1) % 8])) for c in cycles for i in range(8)]
        sigma = frozenset(cycles[0] + cycles[1])
        got = modular_solve(conjuncts, sigma, sigma)
        assert got.as_set() == {frozenset(cycles[0][i::2] + cycles[1][j::2]) for i in (0, 1) for j in (0, 1)}
        assert len(supported) == 1

    def test_negative_pairs_have_every_choice(self):
        # n pairs not q_i -> p_i, not p_i -> q_i: 2**n models, one atom of
        # each pair, past what one sweep over the 2n atoms may enumerate
        n = 13
        ps = [Atom(f"p{i:02d}") for i in range(n)]
        qs = [Atom(f"q{i:02d}") for i in range(n)]
        conjuncts = []
        for p, q in zip(ps, qs):
            conjuncts += [impl(neg(AtomRef(q)), AtomRef(p)), impl(neg(AtomRef(p)), AtomRef(q))]
        sigma = frozenset(ps + qs)
        assert len(sigma) > 24
        got = modular_solve(conjuncts, sigma, sigma)
        assert len(got) == 2**n
        assert all(len(m) == n and all((p in m) != (q in m) for p, q in zip(ps, qs)) for m in got)
        with pytest.raises(CapExceeded, match="over 2 atoms"):
            modular_solve(conjuncts, sigma, sigma, max_atoms=1)

    def test_matches_enumeration_on_random_programs(self):
        rng = random.Random(10)
        pool = [Atom(c) for c in "abcde"]
        for k in range(300):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 5))
            sigma = frozenset(pool)
            a = frozenset(x for x in pool if rng.random() < 0.7)
            got = modular_solve(conjuncts, a, sigma)
            want = enumerate_a_stable(conj(conjuncts), a, sigma)
            assert got.as_set() == want.as_set()

    def test_matches_oracle_with_extensional_atoms(self):
        rng = random.Random(31)
        pool = [Atom(c) for c in "abcde"]
        for k in range(200):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
            conjuncts += [disj([AtomRef(x), neg(AtomRef(x))]) for x in pool if rng.random() < 0.2]
            sigma = frozenset(pool) | {Atom("z")}  # z occurs nowhere
            a = frozenset(x for x in pool if rng.random() < 0.6)
            got = modular_solve(conjuncts, a, sigma)
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)

    def test_model_leaving_sigma_is_named(self):
        # r is intensional but outside sigma, and both models make it true:
        # the first of them in canonical order is named
        p, r = Atom("p"), Atom("r")
        with pytest.raises(SignatureError, match=r"^model \{p,r\} leaves the signature$"):
            modular_solve([disj([AtomRef(p), neg(AtomRef(p))]), AtomRef(r)], {p, r}, {p})
        # with r false in every model, nothing leaves sigma
        assert modular_solve([disj([AtomRef(p), neg(AtomRef(p))]), neg(AtomRef(r))], {p, r}, {p}).lines() == ["{}", "{p}"]

    def test_residual_atom_outside_sigma_and_a_stays_false(self):
        # x is in neither sigma nor A, so `x | not p` reads as `not p`, and
        # `not (p & x)` always holds
        p, q, x = Atom("p"), Atom("q"), Atom("x")
        choice = disj([AtomRef(p), neg(AtomRef(p))])
        sigma = frozenset({p, q})
        for residual, want in (
            (disj([AtomRef(x), neg(AtomRef(p))]), ["{}", "{q}"]),
            (neg(conj([AtomRef(p), AtomRef(x)])), ["{}", "{p}", "{p,q}", "{q}"]),
        ):
            conjuncts = [choice, residual]
            got = modular_solve(conjuncts, {p}, sigma)
            assert got.lines() == want
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, {p})
        # so is such an atom in a rule: `not x -> p` reads as `p`
        assert modular_solve([impl(neg(AtomRef(x)), AtomRef(p))], {p}, sigma).lines() == ["{p}", "{p,q}"]

    def test_constraints_across_extensional_contexts_match_the_oracle(self):
        # residual constraints over intensional and extensional atoms are
        # blocks with no atoms, each solved once per context it reads
        rng = random.Random(47)
        es = [Atom(f"e{i}") for i in range(3)]
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        ats = es + [p, q, r]
        rules = [
            impl(AtomRef(es[0]), AtomRef(p)),
            impl(conj([neg(AtomRef(p)), AtomRef(es[1])]), AtomRef(q)),
            impl(conj([AtomRef(q), neg(AtomRef(es[2]))]), AtomRef(r)),
            disj([AtomRef(r), neg(AtomRef(r))]),
        ]

        def literal():
            x = AtomRef(rng.choice(ats))
            return x if rng.random() < 0.5 else neg(x)

        sigma = frozenset(ats)
        a = frozenset({p, q, r})
        for k in range(60):
            constraints = [neg(conj([literal() for _ in range(rng.randint(1, 3))])) for _ in range(rng.randint(1, 3))]
            conjuncts = rules + constraints
            plan = plan_split(conjuncts, a)
            assert set(constraints) <= set(plan.residual)
            got = modular_solve(conjuncts, a, sigma)
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)
            assert list(got.sorted_atoms) == sorted(got.sorted_atoms)

    def test_each_constraint_is_solved_on_its_own_contexts(self, monkeypatch):
        # six constraints not (c_2i & c_2i+1) on twelve choices: each is a
        # block with no atoms whose contexts are its own two atoms, and all
        # six share one shape, so at most four contexts are ever solved
        empty = []
        real = splitting._stable_models

        def spy(prog, var, *rest):
            if not var:
                empty.append(rest)
            return real(prog, var, *rest)

        monkeypatch.setattr(splitting, "_stable_models", spy)
        cs = [Atom(f"c{i:02d}") for i in range(12)]
        conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs]
        conjuncts += [neg(conj([AtomRef(cs[2 * i]), AtomRef(cs[2 * i + 1])])) for i in range(6)]
        got = modular_solve(conjuncts, frozenset(cs), frozenset(cs))
        assert len(got) == 3**6
        assert 0 < len(empty) <= 4

    def test_block_wider_than_a_sweep_chunk(self):
        # a 17-atom positive cycle seeded by the extensional atom e: the block
        # sweep spans two chunks and the minimality check has 17 free atoms
        e, qs = Atom("e"), [Atom(f"q{i:02d}") for i in range(17)]
        conjuncts = [impl(AtomRef(qs[i]), AtomRef(qs[(i + 1) % 17])) for i in range(17)]
        conjuncts.append(impl(AtomRef(e), AtomRef(qs[0])))
        got = modular_solve(conjuncts, frozenset(qs), frozenset(qs) | {e}, max_atoms=17)
        assert got.as_set() == {frozenset(), frozenset(qs) | {e}}

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_switched_ring_block_matches_the_oracle(self, n, monkeypatch):
        # one block of n ring atoms, too wide for one run over every
        # assignment; its even links x_i & e_(i mod 3) -> x_(i+1) are switched
        # by extensional atoms, and e0 seeds the ring at x_(n // 2): across the
        # 8 contexts its classical models make any number of ring atoms true,
        # and with e0 false the stable one makes none true.  The block is a
        # definition for its atoms, so one fixpoint run decides all 8
        # contexts, one lane each, and nothing sweeps it
        solves, runs, lanes = [], [], []
        real = splitting._stable_models
        monkeypatch.setattr(splitting, "_stable_models", lambda *args: solves.append(args[1]) or real(*args))
        real_models = splitting._definition_models

        def definition_models(prog, var, clauses, heres):
            lanes.append((len(var), len(heres)))
            return real_models(prog, var, clauses, heres)

        monkeypatch.setattr(splitting, "_definition_models", definition_models)
        real_fixpoint = stable._least_fixpoint
        monkeypatch.setattr(stable, "_least_fixpoint", lambda *args: runs.append(1) or real_fixpoint(*args))
        xs = [Atom(f"x{i:02d}") for i in range(n)]
        es = [Atom(f"e{j}") for j in range(3)]
        conjuncts = [impl(AtomRef(es[0]), AtomRef(xs[n // 2]))]
        for i in range(n):
            x, y = AtomRef(xs[i]), AtomRef(xs[(i + 1) % n])
            conjuncts.append(impl(conj([x, AtomRef(es[i % 3])]) if i % 2 == 0 else x, y))
        ring, sigma = frozenset(xs), frozenset(xs + es)
        f = conj(conjuncts)
        want = brute_a_stable(f, sigma, ring)
        assert modular_solve(conjuncts, ring, sigma).as_set() == want
        assert len(runs) == 1 and lanes == [(n, 8)] and not solves  # one fixpoint run per unit
        assert {len(i & ring) for i in all_subsets(sigma) if satisfies(i, f)} == set(range(n + 1))
        assert {not (m & ring) for m in want} == {True, False}

    def test_closure_unit_takes_one_fixpoint_over_its_contexts(self, monkeypatch):
        # edge choices and their transitive closure over 3 elements: each
        # edge is a unit of one atom, the 9 closure atoms one definition
        # unit, solved by one fixpoint run over the 512 edge contexts
        lanes, solves = [], []
        real_models = splitting._definition_models

        def definition_models(prog, var, clauses, heres):
            lanes.append((len(var), len(heres)))
            return real_models(prog, var, clauses, heres)

        monkeypatch.setattr(splitting, "_definition_models", definition_models)
        real = splitting._stable_models
        monkeypatch.setattr(splitting, "_stable_models", lambda *args: solves.append(len(args[1])) or real(*args))
        clauses, q_set = tc_definition("abc")
        pairs = [(x, y) for x in "abc" for y in "abc"]
        conjuncts = [clauses] + [disj([atom("p", x, y), neg(atom("p", x, y))]) for x, y in pairs]
        sigma = atoms_of(conj(conjuncts))
        got = modular_solve(conjuncts, sigma, sigma)
        assert got == enumerate_a_stable(conj(conjuncts), sigma, sigma)
        assert len(got) == 512 and all(len(m & q_set) >= len(m - q_set) for m in got)
        assert lanes == [(9, 512)] and set(solves) == {1}

    def test_definition_unit_with_a_constraint_inside_takes_the_parts(self, monkeypatch):
        # a conjunct of the unit holds a constraint beside a ring rule, so
        # the unit is no definition as a whole: it is swept, and its ring
        # part, a definition, is decided by the fixpoint on the candidates
        lanes = []
        real_models = splitting._definition_models
        monkeypatch.setattr(splitting, "_definition_models", lambda *args: lanes.append(1) or real_models(*args))
        xs = [Atom(f"x{i}") for i in range(8)]
        e = Atom("e")
        ring = [impl(AtomRef(xs[i]), AtomRef(xs[(i + 1) % 8])) for i in range(8)]
        seeded = [impl(AtomRef(e), AtomRef(xs[0])), conj([ring[0], neg(conj([AtomRef(xs[3]), neg(AtomRef(e))]))])]
        conjuncts = ring[1:] + seeded
        sigma = frozenset(xs) | {e}
        got = modular_solve(conjuncts, frozenset(xs), sigma)
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, frozenset(xs)) == {frozenset(), sigma}
        assert not lanes

    def test_frontier_past_the_cap_is_refused(self):
        # 18 independent choices: |sigma - A| and every block fit the cap of
        # 16, but 2**18 partial interpretations do not
        cs = [Atom(f"c{i:02d}") for i in range(18)]
        conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs]
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="frontier"):
            modular_solve(conjuncts, frozenset(cs), frozenset(cs), max_atoms=16)
        assert time.perf_counter() - t0 < 5.0
        assert len(modular_solve(conjuncts[:10], frozenset(cs[:10]), max_atoms=10)) == 1024

    def test_definition_unit_wider_than_the_cap_is_solved(self):
        # the 100-atom positive cycle x_i -> x_(i+1), seeded by the choice
        # s: one unit that is a definition for its atoms, decided by one
        # fixpoint run per context, so the cap does not count its width
        xs = [Atom(f"x{i:02d}") for i in range(100)]
        s = Atom("s")
        conjuncts = [impl(AtomRef(xs[i]), AtomRef(xs[(i + 1) % 100])) for i in range(100)]
        conjuncts += [disj([AtomRef(s), neg(AtomRef(s))]), impl(AtomRef(s), AtomRef(xs[0]))]
        sigma = frozenset(xs) | {s}
        want = {frozenset(), sigma}
        assert modular_solve(conjuncts, sigma, sigma).as_set() == want
        assert modular_solve(conjuncts, sigma, sigma, max_atoms=101).as_set() == want
        # a unit that is no definition still counts: a disjunctive link
        wide = conjuncts + [impl(AtomRef(xs[5]), disj([AtomRef(xs[6]), AtomRef(xs[7])]))]
        with pytest.raises(CapExceeded, match="enumeration over 100 atoms"):
            modular_solve(wide, sigma, sigma)

    def test_layered_chain_family_exhaustive_to_sixteen_atoms(self):
        for blocks, width in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (3, 5)]:
            conjuncts = layered_chain(blocks, width)
            sigma = frozenset(chain_atoms(blocks, width))
            got = modular_solve(conjuncts, sigma, sigma)
            want = enumerate_a_stable(conj(conjuncts), sigma, sigma)
            assert got.as_set() == want.as_set()


class TestBench:
    def test_csv_shape_and_skip_marker(self, tmp_path):
        rows = run_bench(
            [
                BenchInstance("tiny", tuple(layered_chain(2, 2))),
                BenchInstance("big", tuple(layered_chain(8, 5))),
            ]
        )
        out = tmp_path / "bench.csv"
        with open(out, "w", newline="") as fh:
            write_csv(rows, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance,atoms,blocks,naive_micros,modular_micros,models"
        tiny = lines[1].split(",")
        big = lines[2].split(",")
        assert tiny[0] == "tiny" and tiny[3] != ""
        assert big[0] == "big" and big[1] == "40" and big[2] == "8"
        assert big[3] == ""  # naive skipped over the cap

    def test_truncation_keeps_only_fitting_conjuncts(self):
        full = layered_chain(8, 5)
        prefix = chain_atoms(8, 5)[:16]
        trunc = truncate_chain(full, prefix)
        assert all(atoms_of(c) <= set(prefix) for c in trunc)
        # the seed of layer 3 fits (p2_4 -> p3_0) but layer 3's cycle does not
        assert impl(neg(AtomRef(Atom("p2_4"))), AtomRef(Atom("p3_0"))) in trunc
        assert not any(Atom("p3_1") in atoms_of(c) for c in trunc)
