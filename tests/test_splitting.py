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
from astable import splitting
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

from util import all_subsets, brute_a_stable, guard_program

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
        with pytest.raises(SplitPlanError):
            plan_split([conj([AtomRef(p), AtomRef(q)])], {p, q})

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

    def test_one_atom_blocks_agree_with_the_component_blocks(self, monkeypatch):
        # the plan built from one-atom blocks, without the dependency graph,
        # equals the one built from the graph's components
        built = []
        real_dep_graph = splitting.dep_graph
        monkeypatch.setattr(splitting, "dep_graph", lambda *args: built.append(1) or real_dep_graph(*args))
        rng = random.Random(11)
        pool = [Atom(c) for c in "abcdef"]
        paths = {True: 0, False: 0}
        for k in range(300):
            conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
            a = frozenset(x for x in pool if rng.random() < 0.8)
            heads = [strictly_positive(c) & a for c in conjuncts]
            mentions = [atoms_of(c) for c in conjuncts]
            graph = real_dep_graph(conjuncts, a)
            comps, comp_of = components(graph)
            try:
                expected = splitting._list_blocks(conjuncts, heads, mentions, comps, comp_of, graph)
            except SplitPlanError:
                with pytest.raises(SplitPlanError):
                    plan_split(conjuncts, a)
                continue
            built.clear()
            plan = plan_split(conjuncts, a)
            assert plan == expected
            assert [p.atoms for p in plan.programs] == [p.atoms for p in expected.programs]
            paths[bool(built)] += 1
            assert built or all(len(b) == 1 for b, _ in plan.blocks)
        assert paths[True] > 20 and paths[False] > 20

    def test_graph_is_built_only_for_a_cycle(self, monkeypatch):
        built = []
        real_dep_graph = splitting.dep_graph
        monkeypatch.setattr(splitting, "dep_graph", lambda *args: built.append(1) or real_dep_graph(*args))
        ats, chain = chain_program(5)
        plan_split(chain, set(ats))
        assert built == []
        ring = chain + [impl(AtomRef(ats[0]), AtomRef(ats[5]))]
        plan = plan_split(ring, set(ats))
        assert built == [1] and [b for b, _ in plan.blocks] == [frozenset(ats)]


class TestModularSolve:
    def test_sixteen_atom_chain_matches_brute_force_and_is_faster(self):
        ats, conjuncts = chain_program(15)
        sigma = frozenset(ats)
        t0 = time.perf_counter()
        modular = modular_solve(conjuncts, sigma, sigma)
        t_mod = time.perf_counter() - t0
        t0 = time.perf_counter()
        brute = enumerate_a_stable(conj(conjuncts), sigma, sigma)
        t_naive = time.perf_counter() - t0
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

    def test_unsatisfiable_constraint_gives_empty(self):
        q = Atom("q")
        got = modular_solve([AtomRef(q), neg(AtomRef(q))], {q}, {q})
        assert got.as_set() == set()

    def test_negative_two_cycle_falls_back(self, caplog):
        p, q = Atom("p"), Atom("q")
        conjuncts = [impl(neg(AtomRef(q)), AtomRef(p)), impl(neg(AtomRef(p)), AtomRef(q))]
        with caplog.at_level("WARNING"):
            got = modular_solve(conjuncts, {p, q}, {p, q})
        assert "falling back" in caplog.text
        assert got.as_set() == {frozenset({p}), frozenset({q})}

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
        # and with e0 false the stable one makes none true
        solves = []
        real = splitting._stable_models
        monkeypatch.setattr(splitting, "_stable_models", lambda *args: solves.append(args[1]) or real(*args))
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
        assert [len(block) for block in solves] == [n] * 8  # one solve per context
        assert {len(i & ring) for i in all_subsets(sigma) if satisfies(i, f)} == set(range(n + 1))
        assert {not (m & ring) for m in want} == {True, False}

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
