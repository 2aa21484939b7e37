import gc
import inspect
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import astable

from astable import (
    Atom,
    AtomRef,
    BOT,
    Conj,
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
from astable import formula as formula_module
from astable.depgraph import components
from astable.verifier import GenConfig, _gen, _gen_program, _scc_aligned_partition
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

    def test_overlapping_parts_listed_without_separability(self):
        # separability is a condition on disjoint parts: overlapping parts
        # are not also checked for a straddled component
        p, q = Atom("p"), Atom("q")
        with pytest.raises(PreconditionError) as err:
            split_models_theorem(impl(AtomRef(q), AtomRef(p)), TOP, {p, q}, {q})
        assert err.value.violations == ["parts overlap on: q"]

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


# Plans a seeded corpus and prints the SHA-256 of its listings: 200 random
# rule programs of 6-10 atoms, with bodies of 1-3 literals, some heads
# disjunctive and some intensional sets partial, then the layered chain and
# the transitive closure of the benchmarks.  Its one argument is the
# directory that holds the package.
_LISTING_DIGEST = """
import hashlib, random, sys
sys.path.insert(0, sys.argv[1])
from astable import Atom, AtomRef, SplitPlanError, atoms_of, conj, disj, impl, neg, plan_split
from astable.bench import closure_program, layered_chain

rng = random.Random(39)
corpus = []
for _ in range(200):
    pool = [Atom(f"p{i}") for i in range(rng.randint(6, 10))]
    rules = []
    for _ in range(rng.randint(len(pool), 2 * len(pool))):
        lits = [neg(AtomRef(x)) if rng.random() < 0.3 else AtomRef(x) for x in rng.sample(pool, rng.randint(1, 3))]
        heads = [AtomRef(x) for x in rng.sample(pool, 1 if rng.random() < 0.9 else 2)]
        rules.append(impl(lits[0] if len(lits) == 1 else conj(lits), heads[0] if len(heads) == 1 else disj(heads)))
    corpus.append((rules, pool if rng.random() < 0.7 else rng.sample(pool, len(pool) - 2)))
corpus += [(fs, set().union(*map(atoms_of, fs))) for fs in (layered_chain(8, 5), closure_program(3))]
lines = []
for rules, a in corpus:
    try:
        plan = plan_split(rules, frozenset(a))
    except SplitPlanError:
        lines.append("refused")
        continue
    for atoms, unit in plan.blocks:
        lines.append(",".join(map(str, sorted(atoms))) + ": " + "; ".join(str(r.formula) for r in unit))
    lines.append("residual: " + "; ".join(str(r.formula) for r in plan.residual))
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


class TestPlanSplit:
    def test_chain_blocks_in_order(self):
        ats, conjuncts = chain_program(2)
        plan = plan_split(conjuncts, set(ats))
        assert [b for b, _ in plan.blocks] == [frozenset({a}) for a in ats]
        # each conjunct sits in the block of its head
        assert [r.formula for r in plan.blocks[0][1]] == [conjuncts[0]]
        assert [r.formula for r in plan.blocks[1][1]] == [conjuncts[1]]
        assert plan.blocks[2][1] == ()
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
        assert [r.formula for r in plan.residual] == [neg(AtomRef(p))]

    def test_head_spanning_blocks_is_an_error(self):
        # a conjunction is read as its pieces, so `p & q` plans as two
        # facts; the one piece `p | q` has heads in two blocks
        p, q = Atom("p"), Atom("q")
        plan = plan_split([conj([AtomRef(p), AtomRef(q)])], {p, q})
        assert [(b, [r.formula for r in rs]) for b, rs in plan.blocks] == [
            (frozenset({q}), [AtomRef(q)]), (frozenset({p}), [AtomRef(p)])]
        assert plan.residual == ()
        with pytest.raises(SplitPlanError) as caught:
            plan_split([disj([AtomRef(p), AtomRef(q)])], {p, q})
        assert str(caught.value) == (
            "conjunct 'p | q' has strictly positive intensional atoms p, q "
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
            blocks = sccs(dep_graph(conj(conjuncts), a))
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
            for j, (u, rules) in enumerate(plan.blocks):
                fs = [r.formula for r in rules]
                assert atoms_of(conj(fs)) & a <= u.union(*units[j + 1 :])
                assert all(strictly_positive(c) & a <= u for c in fs)
            assert [r.formula for r in plan.residual] == [c for c, hs in zip(conjuncts, heads) if not hs]
            cyclic += any(len(u) > 1 for u in units)
        assert cyclic > 20 and spanning > 10

    def test_dependency_graph_is_built_only_for_several_heads(self, monkeypatch):
        # the spy sees each dependency graph built and the vertex count of
        # each graph the SCC routine gets, in the order they happen
        calls = []
        real_graph, real_scc = splitting.rule_graph, depgraph.strong_components
        monkeypatch.setattr(splitting, "rule_graph", lambda *args: calls.append("rule_graph") or real_graph(*args))
        spy = lambda succs: calls.append(len(succs)) or real_scc(succs)
        monkeypatch.setattr(depgraph, "strong_components", spy)
        monkeypatch.setattr(splitting, "strong_components", spy)
        ats, chain = chain_program(5)
        plan_split(chain, set(ats))
        ring = chain + [impl(AtomRef(ats[0]), AtomRef(ats[5]))]
        plan = plan_split(ring, set(ats))
        # a vertex per atom, none per rule
        assert calls == [6, 6] and [b for b, _ in plan.blocks] == [frozenset(ats)]
        calls.clear()
        x, y = Atom("x"), Atom("y")
        with pytest.raises(SplitPlanError):
            plan_split([disj([AtomRef(x), AtomRef(y)])], {x, y})
        # refused on the dependency graph, before the mention graph
        assert calls == ["rule_graph", 2]

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
        # the ring's n dependency edges, then the mention graph over the
        # n atoms alone: the disjunction's other n - 1 heads to its least
        # head and that head to n atoms, and per ring rule its head to two
        # atoms
        dependency, mention = graphs
        assert dependency == (n, n)
        assert mention[0] == n and mention[1] <= 5 * n

    def test_listing_is_the_same_under_every_hash_seed(self):
        # Tarjan's closing order follows the order of the successor lists,
        # which a set of atoms iterates in an order set by PYTHONHASHSEED:
        # each run plans one seeded corpus in a fresh interpreter and
        # prints a digest of the listings, units and rules in order
        src = str(Path(astable.__file__).resolve().parents[1])
        digests = set()
        for seed in ("0", "1", "2", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", _LISTING_DIGEST, src], capture_output=True, text=True, env=env, timeout=120
            )
            assert (done.returncode, done.stderr) == (0, ""), seed
            digests.add(done.stdout)
        assert len(digests) == 1


def _lane_calls(monkeypatch) -> list:
    """Per call of the lane runner from a modular step, in order, the
    number of the run's atoms and of its contexts."""
    calls = []
    real = splitting._lane_models

    def lane_models(size, var, here, bits, batches, *rest):
        batches = list(batches)
        calls.append((len(var), sum(map(len, batches))))
        return real(size, var, here, bits, batches, *rest)

    monkeypatch.setattr(splitting, "_lane_models", lane_models)
    return calls


def _swept_routes(monkeypatch) -> list:
    """The rules of the units that `stable._unit_models` solves on a swept
    program with loop formulas, one per unit."""
    found, swept = [], []
    real_models, real_solve = splitting._unit_models, stable._stable_models

    def solve(prog, var, here, a, parts=(), sweep=None):
        swept.append(sweep)
        return real_solve(prog, var, here, a, parts, sweep)

    def spy(rules, *rest):
        swept.clear()
        out = real_models(rules, *rest)
        if any(sweep is not None for sweep in swept):
            found.append(rules)
        return out

    monkeypatch.setattr(stable, "_stable_models", solve)
    monkeypatch.setattr(splitting, "_unit_models", spy)
    return found


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

    def test_heads_spanning_blocks_are_refused(self):
        # x | y with x and y in two dependency blocks: the splitting theorem
        # does not apply, and no answer is given
        x, y, u, v = (Atom(n) for n in "xyuv")
        conjuncts = [disj([AtomRef(x), AtomRef(y)]), impl(AtomRef(x), AtomRef(u)), impl(AtomRef(y), AtomRef(v))]
        with pytest.raises(SplitPlanError) as caught:
            modular_solve(conjuncts, {x, y, u, v}, {x, y, u, v})
        assert str(caught.value) == (
            "conjunct 'x | y' has strictly positive intensional atoms x, y "
            "spanning multiple dependency blocks")
        assert caught.value.conjunct is conjuncts[0]

    def test_isomorphic_blocks_share_solutions(self):
        # q1 -> q0 ... q5 -> q4 and r1 -> r0 ... r5 -> r4 with the fact r5:
        # the blocks of both chains have one shape, each a definition unit
        # decided by the fixpoint of its clauses
        q = [Atom(f"q{i}") for i in range(6)]
        r = [Atom(f"r{i}") for i in range(6)]
        conjuncts = [impl(AtomRef(x[k + 1]), AtomRef(x[k])) for x in (q, r) for k in range(5)]
        conjuncts.append(AtomRef(r[5]))
        sigma = frozenset(q + r)
        got = modular_solve(conjuncts, sigma, sigma)
        assert got.as_set() == enumerate_a_stable(conj(conjuncts), sigma, sigma).as_set() == {frozenset(r)}

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
        real = stable._stable_models
        monkeypatch.setattr(stable, "_stable_models", lambda *args: calls.append(args[4:]) or real(*args))
        xs = [Atom(f"x{i:02d}") for i in range(20)]
        conjuncts = [impl(neg(AtomRef(xs[i])), AtomRef(xs[(i + 1) % 20])) for i in range(20)]
        got = modular_solve(conjuncts, frozenset(xs), frozenset(xs))
        assert got.as_set() == {frozenset(xs[0::2]), frozenset(xs[1::2])}
        ((parts, swept),) = calls
        assert parts == [] and len(stable._candidate_models(swept, range(20), 0)) == 2

    def test_random_wide_units_match_solve_and_the_reference(self, monkeypatch):
        # a negative cycle through 7 to 9 atoms makes them one unit, wider
        # than one run and no definition as a whole, and random rules,
        # choices and extensional atoms around it: its parts of at most six
        # atoms are decided by their loop formulas in the unit's sweep, a
        # wider one against the unit's own formula
        supported = _swept_routes(monkeypatch)
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

    def test_isomorphic_units_each_sweep_their_loop_formulas(self, monkeypatch):
        # two negative 8-cycles over x and y: units of one shape, each
        # compiled in its own step and decided by the sweep with its loop
        # formulas
        supported = _swept_routes(monkeypatch)
        cycles = [[Atom(f"{name}{i}") for i in range(8)] for name in "xy"]
        conjuncts = [impl(neg(AtomRef(c[i])), AtomRef(c[(i + 1) % 8])) for c in cycles for i in range(8)]
        sigma = frozenset(cycles[0] + cycles[1])
        got = modular_solve(conjuncts, sigma, sigma)
        assert got.as_set() == {frozenset(cycles[0][i::2] + cycles[1][j::2]) for i in (0, 1) for j in (0, 1)}
        assert len(supported) == 2

    def test_unit_of_two_loops_is_walked_by_the_compiler_once(self, monkeypatch):
        # the 4-loops a0 -> ... -> a3 -> a0 and b0 -> ... -> b3 -> b0 joined
        # by the even cycle not b0 -> a0, not a0 -> b0, with a3 also fed by
        # the extensional e: one unit of 8 atoms, no definition, whose parts,
        # the two loops, are narrow and decided by their loop formulas; the
        # compile walk of its conjuncts, each walked once, is continued with
        # them, not repeated
        walked = []
        real = formula_module._walk
        monkeypatch.setattr(formula_module, "_walk", lambda f, *rest: walked.append(f) or real(f, *rest))
        supported = _swept_routes(monkeypatch)
        a = [Atom(f"a{i}") for i in range(4)]
        b = [Atom(f"b{i}") for i in range(4)]
        e = Atom("e")
        conjuncts = [impl(AtomRef(x[i]), AtomRef(x[(i + 1) % 4])) for x in (a, b) for i in range(4)]
        conjuncts += [impl(neg(AtomRef(b[0])), AtomRef(a[0])), impl(neg(AtomRef(a[0])), AtomRef(b[0]))]
        conjuncts.append(impl(AtomRef(e), AtomRef(a[3])))
        intensional, sigma = frozenset(a + b), frozenset(a + b + [e])
        ((atoms, rules),) = plan_split(conjuncts, intensional).blocks
        assert atoms == intensional
        walked.clear()
        got = modular_solve(conjuncts, intensional, sigma)
        assert len(walked[0].children) == len(conjuncts) and all(g is c for g, c in zip(walked[0].children, conjuncts))
        assert supported == [rules] and not any(g is c for g in walked[1:] for c in conjuncts)
        monkeypatch.undo()
        assert got == enumerate_a_stable(conj(conjuncts), intensional, sigma)
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, intensional)
        assert got.lines() == ["{a0,a1,a2,a3}", "{a0,a1,a2,a3,e}", "{b0,b1,b2,b3}"]

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
        # so is such an atom in a rule: `not x -> p` reads as `p`, and `x ->
        # p` and `not not x -> p`, a body that is compiled, support nothing
        assert modular_solve([impl(neg(AtomRef(x)), AtomRef(p))], {p}, sigma).lines() == ["{p}", "{p,q}"]
        for body in (AtomRef(x), neg(neg(AtomRef(x)))):
            assert modular_solve([impl(body, AtomRef(p))], {p}, sigma).lines() == ["{}", "{q}"]

    def test_steps_reading_atoms_outside_sigma_and_a_match_the_oracle(self, monkeypatch):
        # x and y are in neither sigma nor A, so they have an index and are
        # never set: the enumerated unit {p, q} of `not q & not x -> p` and
        # `not p -> q` reads x, and the run of the definition units {r} and
        # {s}, `not y -> r` and `r & not y -> s`, reads y
        kinds = []
        real = splitting._step
        monkeypatch.setattr(
            splitting, "_step", lambda units, index: kinds.append([c is None for _, _, c in units]) or real(units, index)
        )
        p, q, r, s, x, y = (AtomRef(Atom(n)) for n in "pqrsxy")
        conjuncts = [
            impl(conj([neg(q), neg(x)]), p),
            impl(neg(p), q),
            impl(neg(y), r),
            impl(conj([r, neg(y)]), s),
        ]
        sigma = frozenset(a.atom for a in (p, q, r, s))
        got = modular_solve(conjuncts, sigma, sigma)
        assert kinds == [[True], [False, False]]
        assert got.lines() == ["{p,r,s}", "{q,r,s}"]
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, sigma)
        # with r extensional, `not y -> r` is a residual piece, which reads y
        # too, and the unit {s} is solved on both of r's values
        kinds.clear()
        a = sigma - {r.atom}
        got = modular_solve(conjuncts, a, sigma)
        assert kinds == [[True], [True], [False]]
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)

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
            assert set(constraints) <= {r.formula for r in plan.residual}
            got = modular_solve(conjuncts, a, sigma)
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)
            assert list(got.sorted_atoms) == sorted(got.sorted_atoms)

    def test_each_constraint_is_solved_on_its_own_contexts(self, monkeypatch):
        # six constraints not (c_2i & c_2i+1) on twelve choices: each is a
        # block with no atoms whose contexts are its own two atoms, so it is
        # solved on at most four contexts
        empty = []
        real = splitting._unit_models

        def spy(rules, unit, context, contexts):
            if not unit:
                empty.append(len(contexts))
            return real(rules, unit, context, contexts)

        monkeypatch.setattr(splitting, "_unit_models", spy)
        cs = [Atom(f"c{i:02d}") for i in range(12)]
        conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs]
        conjuncts += [neg(conj([AtomRef(cs[2 * i]), AtomRef(cs[2 * i + 1])])) for i in range(6)]
        got = modular_solve(conjuncts, frozenset(cs), frozenset(cs))
        assert len(got) == 3**6
        assert len(empty) == 6 and all(0 < n <= 4 for n in empty)

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
        # contexts, one lane each, nothing sweeps it and nothing compiles it
        solves, runs, walked = [], [], []
        real = stable._stable_models
        monkeypatch.setattr(stable, "_stable_models", lambda *args: solves.append(args[1]) or real(*args))
        lanes = _lane_calls(monkeypatch)
        real_walk = formula_module._walk
        monkeypatch.setattr(formula_module, "_walk", lambda f, *rest: walked.append(f) or real_walk(f, *rest))
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
        assert len(runs) == 1 and lanes == [(n, 8)] and not solves and not walked  # one fixpoint run per unit
        assert {len(i & ring) for i in all_subsets(sigma) if satisfies(i, f)} == set(range(n + 1))
        assert {not (m & ring) for m in want} == {True, False}

    def test_closure_unit_takes_one_fixpoint_over_its_contexts(self, monkeypatch):
        # edge choices and their transitive closure over 3 elements: each
        # edge is a unit of one atom, the 9 closure atoms one definition
        # unit, solved by one fixpoint run over the 512 edge contexts
        solves = []
        lanes = _lane_calls(monkeypatch)
        real = stable._stable_models
        monkeypatch.setattr(stable, "_stable_models", lambda *args: solves.append(len(args[1])) or real(*args))
        clauses, q_set = tc_definition("abc")
        pairs = [(x, y) for x in "abc" for y in "abc"]
        conjuncts = [clauses] + [disj([atom("p", x, y), neg(atom("p", x, y))]) for x, y in pairs]
        sigma = atoms_of(conj(conjuncts))
        got = modular_solve(conjuncts, sigma, sigma)
        monkeypatch.undo()  # the enumerator's own calls are not counted
        assert got == enumerate_a_stable(conj(conjuncts), sigma, sigma)
        assert len(got) == 512 and all(len(m & q_set) >= len(m - q_set) for m in got)
        assert lanes == [(9, 512)] and set(solves) == {1}

    def test_definition_unit_with_a_choice_inside_takes_the_parts(self, monkeypatch):
        # the ring reads w through `not w -> x4`, and the piece `x3 -> w |
        # not w`, no clause, chooses w from the ring, so w joins the ring's
        # unit and the unit is no definition as a whole: it is swept, and
        # its ring part, a definition, is derived on live lanes under the
        # unit's context, never by the definition route's fixpoint
        live = []
        lanes = _lane_calls(monkeypatch)
        real_live = stable._live_batches
        monkeypatch.setattr(stable, "_live_batches", lambda *args: live.append(1) or real_live(*args))
        xs = [Atom(f"x{i}") for i in range(8)]
        e, w = Atom("e"), Atom("w")
        ring = [impl(AtomRef(xs[i]), AtomRef(xs[(i + 1) % 8])) for i in range(8)]
        reads = [impl(AtomRef(e), AtomRef(xs[0])), impl(neg(AtomRef(w)), AtomRef(xs[4]))]
        conjuncts = ring + reads + [impl(AtomRef(xs[3]), disj([AtomRef(w), neg(AtomRef(w))]))]
        a, sigma = frozenset(xs) | {w}, frozenset(xs) | {e, w}
        got = modular_solve(conjuncts, a, sigma)
        assert [len(u) for u, _ in plan_split(conjuncts, a).blocks] == [9]
        monkeypatch.undo()
        assert got == enumerate_a_stable(conj(conjuncts), a, sigma)
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a) == {
            frozenset(xs), frozenset(xs) | {e}, frozenset(xs) | {e, w}}
        assert live and not lanes

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

    def test_definition_unit_wider_than_the_cap_is_solved(self, monkeypatch):
        # the 100-atom positive cycle x_i -> x_(i+1), seeded by the choice
        # s: one unit that is a definition for its atoms, decided by one
        # fixpoint run per context, so the cap does not count its width;
        # the cap reads its clauses off the formula, and its step reads
        # them once more, into the clauses of the fixpoint
        recognized = []
        real = splitting._definition

        def definition(*args):
            found = real(*args)
            recognized.append(found is not None)
            return found

        monkeypatch.setattr(splitting, "_definition", definition)
        xs = [Atom(f"x{i:02d}") for i in range(100)]
        s = Atom("s")
        conjuncts = [impl(AtomRef(xs[i]), AtomRef(xs[(i + 1) % 100])) for i in range(100)]
        conjuncts += [disj([AtomRef(s), neg(AtomRef(s))]), impl(AtomRef(s), AtomRef(xs[0]))]
        sigma = frozenset(xs) | {s}
        want = {frozenset(), sigma}
        assert modular_solve(conjuncts, sigma, sigma).as_set() == want
        assert recognized.count(True) == 1
        assert modular_solve(conjuncts, sigma, sigma, max_atoms=101).as_set() == want
        assert recognized.count(True) == 2
        # the fact y00 and the 30-atom cycle y_i -> y_(i+1): a definition
        # unit with no context atom, past the default cap of 24
        ys = [Atom(f"y{i:02d}") for i in range(30)]
        seeded = [AtomRef(ys[0])] + [impl(AtomRef(ys[i]), AtomRef(ys[(i + 1) % 30])) for i in range(30)]
        assert modular_solve(seeded, frozenset(ys), frozenset(ys)).as_set() == {frozenset(ys)}
        assert recognized.count(True) == 3
        # a unit that is no definition still counts: a disjunctive link
        wide = conjuncts + [impl(AtomRef(xs[5]), disj([AtomRef(xs[6]), AtomRef(xs[7])]))]
        with pytest.raises(CapExceeded, match="enumeration over 100 atoms"):
            modular_solve(wide, sigma, sigma)
        # and so does one whose body mentions a unit atom negatively
        wide = conjuncts + [impl(conj([AtomRef(xs[5]), neg(AtomRef(xs[7]))]), AtomRef(xs[6]))]
        with pytest.raises(CapExceeded, match="enumeration over 100 atoms"):
            modular_solve(wide, sigma, sigma)

    def test_unit_past_the_cap_that_is_no_definition_builds_no_parts(self, monkeypatch, tmp_path, capsys):
        # the 3,000-atom negative ring not x_i -> x_(i+1) is one unit; its
        # first clause body mentions the unit, so it is no definition, and
        # split-solve exits at the cap after the definition test alone
        from astable.cli import main

        parted = []
        real = stable._parts
        monkeypatch.setattr(stable, "_parts", lambda *args: parted.append(1) or real(*args))
        path = tmp_path / "negring.lp"
        path.write_text("".join(f"not x{i} -> x{(i + 1) % 3000}.\n" for i in range(3000)))
        assert main(["split-solve", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: enumeration over 3000 atoms exceeds the cap of 24; "
            "pass a larger max_atoms (or --max-atoms) if this is intended\n"
        )
        assert not parted

    def test_unit_past_the_cap_is_refused_before_any_compile_walk(self, monkeypatch, tmp_path, capsys):
        # the cap reads the negative ring's clauses off the records of its
        # conjuncts, so split-solve exits at the cap without compiling the
        # unit
        from astable.cli import main

        walked = []
        real = formula_module._walk
        monkeypatch.setattr(formula_module, "_walk", lambda f, *rest: walked.append(f) or real(f, *rest))
        path = tmp_path / "negring.lp"
        path.write_text("".join(f"not x{i} -> x{(i + 1) % 3000}.\n" for i in range(3000)))
        assert main(["split-solve", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: enumeration over 3000 atoms exceeds the cap of 24; "
            "pass a larger max_atoms (or --max-atoms) if this is intended\n"
        )
        assert not walked

    def test_each_step_decodes_its_contexts_in_one_call(self, monkeypatch):
        # the choices a and b, then the unit {p, q} of a & not q -> p and
        # b & not p -> q over the four contexts of a and b, with 2, 1, 1
        # and 1 extensions: one spread per step, of every context's
        # extensions at once
        decoded = []
        real = splitting._spread
        monkeypatch.setattr(splitting, "_spread", lambda masks, *rest: decoded.append(len(masks)) or real(masks, *rest))
        a, b, p, q = (AtomRef(Atom(x)) for x in "abpq")
        conjuncts = [
            disj([a, neg(a)]),
            disj([b, neg(b)]),
            impl(conj([a, neg(q)]), p),
            impl(conj([b, neg(p)]), q),
        ]
        sigma = atoms_of(conj(conjuncts))
        got = modular_solve(conjuncts, sigma, sigma)
        assert decoded == [2, 2, 5]
        assert got.lines() == ["{}", "{a,b,p}", "{a,b,q}", "{a,p}", "{b,q}"]
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, sigma)

    def test_context_pairs_carry_indices_into_the_numbering(self, monkeypatch):
        # the choices c0..c3, a run of definition units that reads c0 and
        # c3, and the enumerated unit {p, q} that reads c1 and the run:
        # every context atom reaches the solvers as its position and its
        # index in the solve's numbering, the index of that very atom
        pairs = []
        for name, at in (("_unit_models", 2), ("_lane_models", 3)):
            real = getattr(splitting, name)
            monkeypatch.setattr(splitting, name, lambda *args, real=real, at=at: pairs.append(args[at]) or real(*args))
        c = [AtomRef(Atom(f"c{j}")) for j in range(4)]
        d = [AtomRef(Atom(f"d{i}")) for i in range(6)]
        p, q = AtomRef(Atom("p")), AtomRef(Atom("q"))
        conjuncts = [disj([x, neg(x)]) for x in c]
        conjuncts += [impl(conj([c[0], neg(c[3])]), x) for x in d]
        conjuncts += [impl(conj([c[1], d[5], neg(q)]), p), impl(neg(p), q)]
        sigma = atoms_of(conj(conjuncts))
        got = modular_solve(conjuncts, sigma, sigma)
        assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, sigma)
        read = {frozenset(got.atoms[i].name for _, i in context) for context in pairs if context}
        assert read == {frozenset({"c0", "c3"}), frozenset({"c1", "d5"})}
        assert all(0 <= i < len(got.atoms) for context in pairs for _, i in context)

    def test_a_wide_run_leaves_no_table_behind(self):
        # 2,000 definition units c0 & not c1 -> p_i, one run over the four
        # contexts of the choices c0 and c1: once the solve returns,
        # `stable` and `splitting` hold under 64 KB of what it allocated,
        # its models included (about 17 KB); the cached per-byte tables
        # that read its lanes back, each entry as wide as the numbering,
        # held 10,974,676 bytes
        c0, c1 = AtomRef(Atom("c0")), AtomRef(Atom("c1"))
        conjuncts = [disj([c0, neg(c0)]), disj([c1, neg(c1)])]
        conjuncts += [impl(conj([c0, neg(c1)]), AtomRef(Atom(f"p{i}"))) for i in range(2000)]
        sigma = atoms_of(conj(conjuncts))
        gc.collect()
        tracemalloc.start()
        try:
            got = modular_solve(conjuncts, sigma, sigma)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        files = [tracemalloc.Filter(True, module.__file__) for module in (stable, splitting)]
        held = sum(stat.size for stat in snapshot.filter_traces(files).statistics("filename"))
        lines = got.lines()
        assert len(lines) == 4 and lines[0] == "{}" and max(line.count(",") for line in lines) == 2000
        assert held < 64_000, held

    def test_random_frontiers_match_the_enumerator(self):
        # context-free choice units, units that read decided atoms and
        # residual constraints, mixed in random programs; a guarded choice
        # g -> x | not x and a guarded denial h & not x -> x give a unit
        # 0, 1 or 2 extensions per context
        rng = random.Random(71)
        pool = [Atom("p"), Atom("p", ("a",)), Atom("p", ("a", "b")), Atom("p_1"), Atom("P"), Atom("q"), Atom("r")]
        for _ in range(300):
            choices = rng.sample(pool, rng.randint(0, 4))
            conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in choices]
            for x in rng.sample(pool, rng.randint(0, 2)):
                g, h = (AtomRef(rng.choice(pool)) for _ in range(2))
                conjuncts += [impl(g, disj([AtomRef(x), neg(AtomRef(x))])), impl(conj([h, neg(AtomRef(x))]), AtomRef(x))]
            conjuncts += _gen_program(rng, pool, rng.randint(0, 6))
            rng.shuffle(conjuncts)
            sigma = frozenset(pool)
            a = frozenset(x for x in pool if rng.random() < 0.8) | frozenset(choices)
            got = modular_solve(conjuncts, a, sigma)
            want = enumerate_a_stable(conj(conjuncts), a, sigma)
            assert got == want and got.text() == want.text()
            assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a)

    def test_context_free_units_share_their_extensions(self, monkeypatch):
        # each choice c | not c reads no decided atom: its two extensions
        # join every entry in one pass each; the constraint reads c0 and c1,
        # so it runs right after their units, before c2 doubles the frontier
        shared = []
        real = splitting._shared
        monkeypatch.setattr(
            splitting, "_shared", lambda frontier, ext: shared.append((len(frontier), len(ext))) or real(frontier, ext)
        )
        cs = [Atom(f"c{i}") for i in range(5)]
        conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs] + [neg(conj([AtomRef(cs[0]), AtomRef(cs[1])]))]
        got = modular_solve(conjuncts, frozenset(cs), frozenset(cs))
        assert shared == [(1, 2), (2, 2), (3, 2), (6, 2), (12, 2)]
        assert len(got) == 24 and got == enumerate_a_stable(conj(conjuncts), frozenset(cs), frozenset(cs))

    def test_each_residual_piece_runs_right_after_its_last_unit(self, monkeypatch):
        # p(x) | not p(x), q(x) | not q(x) and not (p(x) & q(x)) over 8
        # elements: each constraint filters the frontier right after the
        # units of p(x) and q(x), so it holds at most 4 * 3**7 = 8,748
        # entries, where solving the constraints after every unit held all
        # 2**16 choices; a constraint that reads no intensional atom runs
        # before every unit, right after the extensional atom e doubles the
        # frontier.  Every frontier built is counted
        sizes = _built_sizes(monkeypatch)
        p, q = ([AtomRef(Atom(n, (x,))) for x in "abcdefgh"] for n in "pq")
        conjuncts = [disj([x, neg(x)]) for x in p + q] + [neg(conj([x, y])) for x, y in zip(p, q)]
        a = frozenset(x.atom for x in p + q)
        got = modular_solve(conjuncts, a, a)
        assert max(sizes) == 8748 and len(got) == 3**8
        assert got.text() == enumerate_a_stable(conj(conjuncts), a, a).text()
        sizes.clear()
        e = AtomRef(Atom("e"))
        got = modular_solve([*conjuncts[:2], neg(e)], {p[0].atom, p[1].atom}, {p[0].atom, p[1].atom, e.atom})
        assert sizes == [2, 1, 2, 4] and got.lines() == ["{}", "{p(a)}", "{p(a),p(b)}", "{p(b)}"]

    def test_layered_chain_family_exhaustive_to_sixteen_atoms(self):
        for blocks, width in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (3, 5)]:
            conjuncts = layered_chain(blocks, width)
            sigma = frozenset(chain_atoms(blocks, width))
            got = modular_solve(conjuncts, sigma, sigma)
            want = enumerate_a_stable(conj(conjuncts), sigma, sigma)
            assert got.as_set() == want.as_set()


def _frontier_message(size: int, cap: int) -> str:
    return (
        f"modular frontier of {size} interpretations exceeds the cap of 2**{cap}; "
        "pass a larger max_atoms (or --max-atoms) if this is intended"
    )


def _built_sizes(monkeypatch) -> list:
    """The size of every frontier the modular solver builds, in order: the
    join of each step that reads decided atoms and each join of a
    context-free step's extensions with the entries."""
    sizes = []
    for name in ("_extend_frontier", "_shared"):

        def built(*args, real=getattr(splitting, name)):
            out = real(*args)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(splitting, name, built)
    return sizes


def _single_atom_units(rng: random.Random) -> tuple[list, frozenset, frozenset]:
    """A rule program whose every unit has one atom x_i and mentions only
    x_j for j < i and the extensional atoms e_k, which sigma adds: per
    atom a choice, a fact, a rule with a body of literals, the rule
    not x_i -> x_i, which has no stable model, or no rule; then up to two
    constraints not (l1 & l2) and, now and then, bot."""
    xs = [Atom(f"x{i}") for i in range(rng.randint(1, 7))]
    es = [Atom(f"e{k}") for k in range(rng.randint(0, 3))]
    literal = lambda y: AtomRef(y) if rng.random() < 0.5 else neg(AtomRef(y))
    conjuncts = []
    for i, x in enumerate(xs):
        kind = rng.choice(["choice", "choice", "choice", "fact", "rule", "loop", "none"])
        earlier = xs[:i] + es
        if kind == "choice":
            conjuncts.append(disj([AtomRef(x), neg(AtomRef(x))]))
        elif kind == "fact":
            conjuncts.append(AtomRef(x))
        elif kind == "loop":
            conjuncts.append(impl(neg(AtomRef(x)), AtomRef(x)))
        elif kind == "rule" and earlier:
            conjuncts.append(impl(conj([literal(y) for y in rng.sample(earlier, min(2, len(earlier)))]), AtomRef(x)))
    pool = xs + es
    for _ in range(rng.randint(0, 2)):
        conjuncts.append(neg(conj([literal(y) for y in rng.sample(pool, min(2, len(pool)))])))
    if rng.random() < 0.1:
        conjuncts.append(BOT)
    rng.shuffle(conjuncts)
    return conjuncts, frozenset(xs), frozenset(pool)


def _refusal_mismatches(solve, monkeypatch, draws: int) -> list:
    """The (draw, cap) pairs, caps 1 to 24, on which solve, in place of
    `modular_solve`, answers otherwise than a solver that builds every
    step's frontier and refuses at the first one past the cap: each unit
    listed, in order, by a spy on the real solver's `_step`, which takes
    one enumerated unit or a run of definition units, its frontier
    counted as the stable models of the rules of the steps up to it, over
    the extensional atoms and the atoms decided so far
    (`enumerate_a_stable`).  Every unit has one atom, so the cap refuses
    up front only the extensional atoms of sigma."""
    rng = random.Random(2009)
    mismatches = []
    for draw in range(draws):
        conjuncts, a, sigma = _single_atom_units(rng)
        steps = []
        real_step = splitting._step

        def step(units, bit):
            steps.extend((atoms, rules) for atoms, rules, _ in units)
            return real_step(units, bit)

        monkeypatch.setattr(splitting, "_step", step)
        modular_solve(conjuncts, a, sigma)
        monkeypatch.setattr(splitting, "_step", real_step)
        extensional = sigma - a
        sizes, decided, rules = [], frozenset(), []
        for atoms, step_rules in steps:
            decided |= atoms
            rules += [r.formula for r in step_rules]
            sizes.append(len(enumerate_a_stable(conj(rules), decided, extensional | decided)))
        models = enumerate_a_stable(conj(conjuncts), a, sigma).text()
        for cap in range(1, 25):
            if len(extensional) > cap:
                want = (
                    f"enumeration over {len(extensional)} atoms exceeds the cap of {cap}; "
                    "pass a larger max_atoms (or --max-atoms) if this is intended"
                )
            else:
                past = [n for n in sizes if n > 1 << cap]
                want = _frontier_message(past[0], cap) if past else models
            try:
                got = solve(conjuncts, a, sigma, max_atoms=cap).text()
            except CapExceeded as exc:
                got = str(exc)
            if got != want:
                mismatches.append((draw, cap))
    return mismatches


class TestContextFreeRuns:
    """A step is context-free when its rules read no atom with a bit
    outside its own atoms.  A run of such steps is solved step by step on
    its one empty context, and the frontier's product with their
    extension counts is checked against the cap at every factor, before
    any entry is built: the same count and message as a check of every
    frontier built."""

    @pytest.mark.parametrize("k", [2, 9, 25])
    def test_free_choices_past_the_cap_build_no_entry(self, monkeypatch, k):
        sizes = _built_sizes(monkeypatch)
        cs = [Atom(f"c{i:02d}") for i in range(k)]
        conjuncts = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs]
        with pytest.raises(CapExceeded) as info:
            modular_solve(conjuncts, frozenset(cs), frozenset(cs), max_atoms=k - 1)
        assert str(info.value) == _frontier_message(2**k, k - 1)
        assert sizes == []

    def test_a_later_factor_of_zero_does_not_lift_the_refusal(self, monkeypatch):
        # five choices, then z with not z -> z, which has no stable model:
        # 2**4 entries pass a cap of 2**3 before the run's product drops
        # to 0, so the run is refused there, as a check of each built
        # frontier refuses; listed first, a gives the product 0 before any
        # factor passes the cap, and bot, a residual piece that reads
        # nothing, runs before every unit
        sizes = _built_sizes(monkeypatch)
        cs = [Atom(f"c{i}") for i in range(5)]
        choices = [disj([AtomRef(c), neg(AtomRef(c))]) for c in cs]
        for last in ("z", "a"):
            x = AtomRef(Atom(last))
            with_loop = [*choices, impl(neg(x), x)]
            a = frozenset(cs) | {x.atom}
            if last == "z":
                with pytest.raises(CapExceeded) as info:
                    modular_solve(with_loop, a, a, max_atoms=3)
                assert str(info.value) == _frontier_message(16, 3) and sizes == []
            else:
                assert len(modular_solve(with_loop, a, a, max_atoms=3)) == 0
        assert len(modular_solve([*choices, BOT], frozenset(cs), frozenset(cs), max_atoms=1)) == 0

    def test_choices_and_bot_under_a_cap_of_one_print_nothing(self, tmp_path, capsys):
        from astable.cli import main

        path = tmp_path / "pqbot.lp"
        path.write_text("p | not p.\nq | not q.\nbot.\n")
        assert main(["split-solve", str(path), "--max-atoms", "1"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_random_programs_refuse_where_every_built_frontier_is_checked(self, monkeypatch):
        assert _refusal_mismatches(modular_solve, monkeypatch, 150) == []

    def test_refusing_on_the_final_product_of_a_run_is_caught(self, monkeypatch):
        # the mutant checks the run's product once, when the run is joined,
        # instead of at every factor
        source = textwrap.dedent(inspect.getsource(splitting.modular_solve))
        for old, new in [
            ("            _check_frontier(size, max_atoms)\n", ""),
            ("        if ctx_mask:\n", "        if ctx_mask:\n            _check_frontier(size, max_atoms)\n"),
            ("    for extensions in run:\n        frontier = _shared", "    _check_frontier(size, max_atoms)\n    for extensions in run:\n        frontier = _shared"),
        ]:
            assert source.count(old) == 1
            source = source.replace(old, new)
        namespace = dict(vars(splitting))
        exec(compile(source, "<mutant of modular_solve>", "exec"), namespace)
        assert _refusal_mismatches(namespace["modular_solve"], monkeypatch, 150)


def _definition_runs(rng: random.Random) -> tuple[list, frozenset, frozenset]:
    """A program of layers over x0, x1, ..., each unit reading only the
    layers before it and the extensional atoms e_k: a definition unit (one
    atom, or a positive ring of two or three, its clause bodies literals,
    some `not not y`, over earlier atoms), or an enumerated unit (a choice,
    `not x -> x`, or a disjunctive head over a two-atom ring), and after
    some layers a constraint, a residual piece; so runs of definition units
    are broken by enumerated units and by residual pieces.  sigma adds the
    extensional atoms and, now and then, an atom s no rule mentions."""
    es = [Atom(f"e{k}") for k in range(rng.randint(0, 2))]
    xs: list = []
    conjuncts: list = []

    def literal(y):
        kind = rng.random()
        return AtomRef(y) if kind < 0.45 else neg(AtomRef(y)) if kind < 0.85 else neg(neg(AtomRef(y)))

    def body(earlier):
        if not earlier or rng.random() < 0.15:
            return TOP
        chosen = [literal(y) for y in rng.sample(earlier, min(rng.randint(1, 2), len(earlier)))]
        return chosen[0] if len(chosen) == 1 else conj(chosen)

    while len(xs) < 6:
        earlier = xs + es
        width = 1 if len(xs) > 3 or rng.random() < 0.6 else rng.randint(2, 3)
        layer = [Atom(f"x{len(xs) + j}") for j in range(width)]
        ring = [impl(AtomRef(layer[j - 1]), AtomRef(layer[j])) for j in range(width)] if width > 1 else []
        kind = rng.random()
        if kind < 0.65:  # a definition unit
            for x in rng.sample(layer, rng.randint(1, width)):
                conjuncts += [impl(body(earlier), AtomRef(x)) for _ in range(rng.randint(1, 2))]
            conjuncts += ring
        elif kind < 0.8:
            conjuncts += [disj([AtomRef(x), neg(AtomRef(x))]) for x in layer] + ring
        elif kind < 0.9:
            conjuncts += [impl(neg(AtomRef(layer[0])), AtomRef(layer[0]))] + ring
        else:
            conjuncts += [impl(body(earlier), disj([AtomRef(x) for x in layer]))] + ring
        xs += layer
        if rng.random() < 0.3:
            pool = xs + es
            conjuncts.append(neg(conj([literal(y) for y in rng.sample(pool, min(2, len(pool)))])))
    rng.shuffle(conjuncts)
    extra = [Atom("s")] if rng.random() < 0.5 else []
    return conjuncts, frozenset(xs), frozenset(xs + es + extra)


class TestDefinitionRuns:
    """Each maximal run of consecutive definition units is one step: one
    position map over its atoms and one `_lane_models` call, which fills
    its units in solve order, each on the columns of the ones before it,
    on every distinct context at once; enumerated units and residual pieces
    end a run.  An empty frontier ends the solve."""

    def test_floor_chain_and_layered_chain_take_one_lane_run(self, monkeypatch):
        # both are one context-free run, solved on its one empty context
        lanes = _lane_calls(monkeypatch)
        ats, conjuncts = chain_program(15)
        sigma = frozenset(ats)
        assert modular_solve(conjuncts, sigma, sigma).as_set() == {frozenset()}
        assert lanes == [(16, 1)]
        lanes.clear()
        chain = layered_chain(8, 5)
        sigma = frozenset(chain_atoms(8, 5))
        got = modular_solve(chain, sigma, sigma)
        assert got.as_set() == {frozenset(x for x in sigma if int(x.name[1]) % 2 == 0)}
        assert lanes == [(40, 1)]

    def test_runs_broken_by_residual_pieces_and_enumerated_units(self, monkeypatch):
        # against the enumerator on 300 draws and the reference on the
        # first 60; the draws hold runs of several units, and runs that
        # read decided atoms on several contexts
        rng = random.Random(46)
        lanes = _lane_calls(monkeypatch)
        units_per_run = []
        real_step = splitting._step

        def step(units, bit):
            units_per_run.append(len(units) if units[0][2] is not None else 0)
            return real_step(units, bit)

        monkeypatch.setattr(splitting, "_step", step)
        for draw in range(300):
            conjuncts, a, sigma = _definition_runs(rng)
            got = modular_solve(conjuncts, a, sigma)
            assert got == enumerate_a_stable(conj(conjuncts), a, sigma), draw
            if draw < 60:
                assert got.as_set() == brute_a_stable(conj(conjuncts), sigma, a), draw
        runs = Counter(units_per_run)
        assert runs[0] > 300 and sum(n for k, n in runs.items() if k > 1) > 100
        assert sum(1 for _, contexts in lanes if contexts > 1) > 100

    def test_filling_a_run_in_reverse_is_caught(self):
        # the mutant fills a run's units last first, so a later unit reads
        # an earlier one before that one is complete
        source = textwrap.dedent(inspect.getsource(splitting._step))
        old = "_batches(contexts), derived, "
        assert source.count(old) == 1
        namespace = dict(vars(splitting))
        exec(compile(source.replace(old, "_batches(contexts), derived[::-1], "), "<mutant of _step>", "exec"), namespace)
        rng = random.Random(46)
        wrong = 0
        for _ in range(100):
            conjuncts, a, sigma = _definition_runs(rng)
            want = enumerate_a_stable(conj(conjuncts), a, sigma)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(splitting, "_step", namespace["_step"])
                wrong += modular_solve(conjuncts, a, sigma) != want
        assert wrong > 10

    def test_an_empty_frontier_ends_the_solve(self, monkeypatch, tmp_path, capsys):
        # bot, a residual piece that reads nothing, empties the frontier
        # first: none of the 12 choices after it is solved
        from astable.cli import main

        solved = []
        real = splitting._unit_models
        monkeypatch.setattr(splitting, "_unit_models", lambda rules, *rest: solved.append(rules) or real(rules, *rest))
        path = tmp_path / "bot12.lp"
        path.write_text("bot.\n" + "".join(f"c{i:02d} | not c{i:02d}.\n" for i in range(12)))
        assert main(["split-solve", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert len(solved) == 1
        # the fact x and the constraint not x, which reads it: the frontier
        # is built and emptied, and the 12 choices that read x are not solved
        solved.clear()
        x, cs = Atom("x"), [Atom(f"c{i:02d}") for i in range(12)]
        conjuncts = [AtomRef(x), neg(AtomRef(x))] + [impl(AtomRef(x), disj([AtomRef(c), neg(AtomRef(c))])) for c in cs]
        sigma = frozenset(cs) | {x}
        got = modular_solve(conjuncts, sigma, sigma | {Atom("s")})
        assert len(got) == 0 and got.signature == sigma | {Atom("s")} and len(solved) == 1


def _grouped(rng: random.Random, conjuncts: list) -> list:
    """The conjuncts with random runs of them grouped into conjunctions,
    again and again, so that groups nest."""
    out = list(conjuncts)
    while len(out) > 1 and rng.random() < 0.85:
        i = rng.randrange(len(out) - 1)
        j = rng.randint(i + 2, len(out))
        out[i:j] = [conj(out[i:j])]
    return out


class TestGroupingInvariance:
    """Grouping conjuncts into conjunctions changes neither the plan nor
    the models: the planner reads each conjunct as its pieces, so heads in
    different dependency blocks may share a conjunction."""

    def test_grouped_and_flat_programs_plan_and_solve_alike(self):
        rng = random.Random(41)
        pool = [Atom(c) for c in "abcdef"]
        cfg = GenConfig(max_atoms=6, max_depth=2)
        counts = Counter()
        for _ in range(300):
            flat = _gen_program(rng, pool, rng.randint(2, 8))
            flat += [disj([AtomRef(x), neg(AtomRef(x))]) for x in rng.sample(pool, rng.randint(0, 2))]
            flat += [_gen(rng, pool, rng.randint(1, 2), cfg) for _ in range(rng.randint(0, 2))]
            a = frozenset(x for x in pool if rng.random() < 0.8)
            grouped = _grouped(rng, flat)
            outcomes = []
            for conjuncts in (flat, grouped):
                try:
                    units = {u for u, _ in plan_split(conjuncts, a).blocks}
                except SplitPlanError:
                    outcomes.append("refused")
                    with pytest.raises(SplitPlanError):
                        modular_solve(conjuncts, a, frozenset(pool))
                    continue
                outcomes.append((units, modular_solve(conjuncts, a, frozenset(pool))))
            assert outcomes[0] == outcomes[1], (flat, grouped, a)
            counts["refused" if outcomes[0] == "refused" else "solved"] += 1
            counts["grouped"] += len(grouped) < len(flat)
        assert counts["solved"] > 150 and counts["refused"] > 10 and counts["grouped"] > 200


def _layered_chain(blocks: int, width: int) -> list:
    """Layer k a positive ring over q{k}_0 ... q{k}_(width - 1), seeded by
    `not` of the last atom of layer k - 1, and the fact q0_0."""
    q = [[AtomRef(Atom(f"q{k}_{i}")) for i in range(width)] for k in range(blocks)]
    rules = [q[0][0]] + [impl(neg(q[k - 1][-1]), q[k][0]) for k in range(1, blocks)]
    return rules + [impl(layer[i - 1], layer[i]) for layer in q for i in range(width)]


def _choices_and_definitions() -> list:
    """The choices p | not p and q | not q, the constraint not (p & q),
    and the definitions p -> r and not r & q -> s: 3 models."""
    p, q, r, t = (AtomRef(Atom(x)) for x in "pqrs")
    return [disj([p, neg(p)]), disj([q, neg(q)]), neg(conj([p, q])), impl(p, r), impl(conj([neg(r), q]), t)]


class TestOneWalkPerConjunct:
    """Each conjunct is read by one walk into its record and, unless its
    unit is a definition, whose step reads its clauses off the records,
    compiled by one walk in its unit's step, and no other walker reads it:
    the walks are counted, never timed."""

    WALKERS = (  # every module's name for each walker besides the reading and compiling walks
        [(m, "atoms_of") for m in (formula_module, splitting, stable)]
        + [(m, "strictly_positive") for m in (depgraph, splitting)]
        + [(m, "dep_graph") for m in (depgraph, splitting)]
        + [(m, "conj") for m in (formula_module, splitting)]
    )

    def _spy(self, monkeypatch):
        walked, others = [], []
        real = formula_module._walk
        monkeypatch.setattr(formula_module, "_walk", lambda f, *rest: walked.append(f) or real(f, *rest))
        for module in (splitting, stable):
            fn = module.read_rules
            monkeypatch.setattr(module, "read_rules", lambda c, fn=fn: others.append(("read", c)) or fn(c))
        for module, name in self.WALKERS:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: others.append(name) or fn(*args))
        return walked, others

    @pytest.mark.parametrize(
        "conjuncts, compiled_count",
        [(chain_program(15)[1], 0), (_layered_chain(12, 6), 0), (_choices_and_definitions(), 3)],
        ids=["chain16", "chain12x6", "choices"],
    )
    def test_modular_solve_walks_each_conjunct_once(self, monkeypatch, conjuncts, compiled_count):
        atoms = frozenset().union(*map(atoms_of, conjuncts))
        want = enumerate_a_stable(conj(conjuncts), atoms, atoms, max_atoms=len(atoms)) if len(atoms) <= 16 else None
        walked, others = self._spy(monkeypatch)
        got = modular_solve(conjuncts, atoms, atoms)
        # read in the order given; the units that are no definition, here
        # the first conjuncts, compiled unit by unit, in the order solved, a
        # unit of several conjuncts as their conjunction; a definition unit
        # walks none
        assert [c for _, c in others] == conjuncts and all(r[1] is c for r, c in zip(others, conjuncts))
        assert {name for name, _ in others} == {"read"}
        compiled = [g for w in walked for g in (w.children if type(w) is Conj else (w,))]
        assert sorted(map(id, compiled)) == sorted(map(id, conjuncts[:compiled_count]))
        monkeypatch.undo()
        assert len(got) == (1 if compiled_count == 0 else 3) and (want is None or got == want)

    def test_enumerate_walks_the_formula_once_then_loop_formulas_and_bodies(self, monkeypatch):
        # a 9-atom ring seeded by `not x` and `not not x` is a definition
        # part, whose clause bodies are the one `top` and `not x`, read as
        # literals, and `not not x`, compiled; each atom of the 16-atom
        # chain is a part of one atom, decided by its loop formulas
        ring = [AtomRef(Atom(f"q{i}")) for i in range(9)]
        x = AtomRef(Atom("x"))
        nested = neg(neg(x))
        seeds = [impl(neg(x), ring[0]), impl(nested, ring[4]), disj([x, neg(x)])]
        f = conj([impl(a, b) for a, b in zip(ring, ring[1:] + ring[:1])] + seeds)
        atoms = atoms_of(f)
        loop_formulas, bodies = [], []
        real_loops, real_compile = stable._loop_formulas, stable.compile_formula

        def loops(*args):
            found = real_loops(*args)
            loop_formulas.extend(found)
            return found

        monkeypatch.setattr(stable, "_loop_formulas", loops)
        monkeypatch.setattr(stable, "compile_formula", lambda g: bodies.append(g) or real_compile(g))
        chain = conj(chain_program(15)[1])
        cases = [(g, atoms_of(g)) for g in (f, chain)]
        walked, others = self._spy(monkeypatch)
        for g, sigma in cases:
            for found in (walked, others, loop_formulas, bodies):
                found.clear()
            enumerate_a_stable(g, sigma, sigma)
            assert walked[0] is g and others == [("read", g)]  # its parts are read off its record
            assert sorted(map(id, walked[1:])) == sorted(map(id, loop_formulas + bodies))
            assert len({id(b) for b in bodies}) == len(bodies)
            assert bodies == [nested] if g is f else loop_formulas  # the ring's compiled body; the chain's loop formulas
        monkeypatch.undo()
        assert len(enumerate_a_stable(f, atoms, atoms)) == 2


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

    def test_layer_counts_outside_one_to_nine_rejected(self):
        for blocks, width in [(0, 3), (3, 0), (10, 3), (3, 10)]:
            with pytest.raises(ValueError, match=r"^blocks and width must be between 1 and 9$"):
                layered_chain(blocks, width)

    def test_truncation_keeps_only_fitting_conjuncts(self):
        full = layered_chain(8, 5)
        prefix = chain_atoms(8, 5)[:16]
        trunc = truncate_chain(full, prefix)
        assert all(atoms_of(c) <= set(prefix) for c in trunc)
        # the seed of layer 3 fits (p2_4 -> p3_0) but layer 3's cycle does not
        assert impl(neg(AtomRef(Atom("p2_4"))), AtomRef(Atom("p3_0"))) in trunc
        assert not any(Atom("p3_1") in atoms_of(c) for c in trunc)
