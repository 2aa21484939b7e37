import pickle
import random

import pytest

from astable import (
    Atom,
    AtomRef,
    BOT,
    CapExceeded,
    Conj,
    Disj,
    Impl,
    SignatureError,
    TOP,
    atom,
    atoms_of,
    conj,
    disj,
    equivalent,
    iff,
    impl,
    neg,
    reduct,
    satisfies,
)
from astable.formula import Program, _key, compile_extensible, compile_formula, live_prefixes, truth_chunks
from astable.verifier import GenConfig, _gen, _gen_program, gen_formula

from util import guard_program

P, Q, R, S = atom("p"), atom("q"), atom("r"), atom("s")


def rank_oracle(f):
    """Independent restatement of the rank recursion, for cross-checking."""
    if isinstance(f, AtomRef):
        return 0
    if isinstance(f, (Conj, Disj)):
        r = 0
        while any(rank_oracle(c) >= r for c in f.children):
            r += 1
        return r
    r = 0
    while rank_oracle(f.lhs) >= r or rank_oracle(f.rhs) >= r:
        r += 1
    return r


def sort_key_oracle(f):
    """Independent restatement of the canonical order as nested tuples."""
    if isinstance(f, AtomRef):
        return (0, f.atom)
    if isinstance(f, Impl):
        return (3, sort_key_oracle(f.lhs), sort_key_oracle(f.rhs))
    return (1 if isinstance(f, Conj) else 2, tuple(sort_key_oracle(c) for c in f.children))


class TestAtom:
    def test_total_order_is_name_then_args(self):
        atoms = [Atom("q"), Atom("p", ("b",)), Atom("p", ("a",)), Atom("p", ("a", "b"))]
        assert sorted(atoms) == [
            Atom("p", ("a",)),
            Atom("p", ("a", "b")),
            Atom("p", ("b",)),
            Atom("q"),
        ]

    def test_equality_needs_name_and_args(self):
        assert Atom("p", ("a",)) == Atom("p", ("a",))
        assert Atom("p", ("a",)) != Atom("p", ("b",))
        assert Atom("p") != Atom("q")

    def test_keywords_rejected_as_names(self):
        with pytest.raises(ValueError):
            Atom("not")
        with pytest.raises(ValueError):
            Atom("3bad")

    def test_fields_repr_pickle_and_immutability(self):
        a = Atom("p", ("a", "b"))
        assert (a.name, a.args, str(a)) == ("p", ("a", "b"), "p(a,b)")
        assert repr(a) == "Atom(name='p', args=('a', 'b'))"
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is Atom and b == a and hash(b) == hash(a)
        with pytest.raises(AttributeError):
            a.name = "q"


class TestCanonicalForm:
    def test_children_deduplicated_and_sorted(self):
        assert conj([Q, P, Q, P]) == conj([P, Q])
        assert Conj((Q, P)).children == (P, Q)

    def test_duplicate_collapse_changes_arity(self):
        assert conj([P, P]) == Conj((P,))
        assert len(conj([P, P]).children) == 1

    def test_top_bot_are_empty_set_nodes(self):
        assert TOP == Conj(())
        assert BOT == Disj(())
        assert neg(P) == Impl(P, BOT)
        assert iff(P, Q) == conj([impl(P, Q), impl(Q, P)])

    def test_dedup_happens_before_rank(self):
        # {p, p} collapses to a singleton set; rank sees one child.
        assert conj([P, P]).rank == 1
        assert conj([P, conj([P, P])]).rank == 2


class TestCanonicalOrder:
    # names that are prefixes of each other, with and without arguments
    ATOMS = [Atom(name, args) for name in ("p", "pq", "q", "Q", "p_1")
             for args in ((), ("a",), ("a", "b"), ("ab",))]

    def random_formulas(self, seed, n=2000):
        rng = random.Random(seed)
        cfg = GenConfig(max_atoms=4, max_depth=3)
        return [_gen(rng, rng.sample(self.ATOMS, 4), rng.randint(0, 3), cfg) for _ in range(n)]

    def test_key_order_equality_and_hash_match_the_oracle(self):
        formulas = self.random_formulas(31)
        twins = self.random_formulas(31, 200)  # equal to the first 200, as other objects
        pairs = list(zip(formulas, formulas[1:])) + list(zip(formulas, twins))
        for f, g in pairs:
            want = sort_key_oracle(f), sort_key_oracle(g)
            assert (_key(f) < _key(g)) == (want[0] < want[1])
            assert (f == g) == (_key(f) == _key(g)) == (want[0] == want[1])
            if f == g:
                assert hash(f) == hash(g)
        assert sum(f == g for f, g in pairs) >= 200

    def test_set_nodes_sort_and_deduplicate_like_the_oracle(self):
        formulas = self.random_formulas(32)
        rng = random.Random(33)
        for _ in range(2000):
            kids = rng.choices(formulas[:300], k=rng.randint(0, 6))
            for node in (conj(kids), disj(kids)):
                got = [sort_key_oracle(c) for c in node.children]
                assert got == sorted({sort_key_oracle(c) for c in kids})

    def test_deep_chain_rank_and_order(self):
        f = Q
        for _ in range(5000):
            f = impl(P, f)
        assert f.rank == 5000
        assert conj([f, P]).children == (P, f)


class TestRank:
    def test_top_has_rank_zero(self):
        assert TOP.rank == 0
        assert BOT.rank == 0

    def test_atom_has_rank_zero(self):
        assert P.rank == 0

    def test_nested_example_against_oracle(self):
        f = impl(P, conj([Q, impl(R, S)]))
        assert rank_oracle(f) == 3
        assert f.rank == 3

    def test_rank_matches_oracle_on_random_formulas(self):
        for i in range(200):
            f = gen_formula(GenConfig(seed=9000 + i, max_atoms=4, max_depth=3))
            assert f.rank == rank_oracle(f)


class TestSatisfies:
    def test_empty_conjunction_holds_vacuously(self):
        assert satisfies(frozenset(), TOP)
        assert not satisfies(frozenset(), BOT)

    def test_guard_program_example(self):
        assert satisfies({Atom("q")}, guard_program())

    def test_negation_of_true_atom_fails(self):
        pa = Atom("p", ("a",))
        assert not satisfies({pa}, neg(AtomRef(pa)))

    def test_implication_truth_table(self):
        f = impl(P, Q)
        assert satisfies(frozenset(), f)
        assert satisfies({Atom("q")}, f)
        assert satisfies({Atom("p"), Atom("q")}, f)
        assert not satisfies({Atom("p")}, f)


class TestReduct:
    def test_atoms_outside_interp_become_bot(self):
        assert reduct(conj([P, Q]), {Atom("p")}) == conj([P, BOT])

    def test_guard_reduct_equivalent_to_trivially_guarded_q(self):
        g = guard_program()
        r = reduct(g, {Atom("q")})
        assert equivalent(r, impl(TOP, Q), atoms_of(g))

    def test_satisfied_negation_keeps_structure(self):
        assert reduct(neg(P), frozenset()) == Impl(BOT, BOT)

    def test_reduct_of_unsatisfied_implication_is_bot(self):
        assert reduct(impl(TOP, P), frozenset()) == BOT

    def test_no_simplification_performed(self):
        r = reduct(neg(P), frozenset())
        assert r != TOP  # equivalent, but kept syntactic

    def test_tautological_reduct_example(self):
        g = guard_program()
        r = reduct(g, {Atom("p", ("a",))})
        assert equivalent(r, TOP, atoms_of(g))


class TestEquivalent:
    def test_bot_implies_bot_is_top(self):
        assert equivalent(impl(BOT, BOT), TOP, {Atom("p")})

    def test_excluded_middle(self):
        assert equivalent(disj([P, neg(P)]), TOP, {Atom("p")})

    def test_distinguishable_formulas(self):
        assert not equivalent(P, Q, {Atom("p"), Atom("q")})

    def test_one_way_implication_is_not_enough(self):
        # p -> p | q holds everywhere, p | q -> p does not: both directions count
        assert not equivalent(P, disj([P, Q]))
        assert not equivalent(disj([P, Q]), P)
        assert equivalent(disj([P, conj([P, Q])]), P)

    def test_signature_must_cover_occurring_atoms(self):
        with pytest.raises(SignatureError):
            equivalent(P, Q, {Atom("p")})

    def test_cap_guard(self):
        f = conj([atom(f"x{i}") for i in range(30)])
        with pytest.raises(CapExceeded):
            equivalent(f, TOP, max_atoms=24)


class TestCompile:
    def test_many_rules_reuse_a_few_slots(self):
        xs = [atom(f"x{i}") for i in range(300)]
        rules = [impl(conj([neg(xs[i]), neg(xs[i + 1])]), xs[i + 2]) for i in range(298)]
        rules += [neg(conj([xs[i], xs[i + 3]])) for i in range(297)]
        prog = compile_formula(conj(rules))
        assert len(prog.ops) > 2000
        assert len({out for *_, out in prog.ops}) < 10  # each rule's vectors die once folded in

    def test_shared_and_repeated_subtrees_keep_their_values(self):
        rng = random.Random(4242)
        atoms = [Atom(x) for x in "abcd"]
        for seed in range(300):
            g = gen_formula(GenConfig(seed=seed, max_atoms=4, max_depth=3))
            h = gen_formula(GenConfig(seed=seed + 1000, max_atoms=4, max_depth=2))
            e = gen_formula(GenConfig(seed=seed + 2000, max_atoms=4, max_depth=2))
            # one object read far apart, an implication whose equal sides
            # are read there last, and distinct nodes that compile to one slot
            f = conj([g, impl(impl(e, e), impl(h, g)), impl(h, conj([g, conj([TOP]), TOP])), neg(g)])
            f = rng.choice([f, impl(f, g), disj([f, h])])
            (chunk,) = truth_chunks(f, atoms)
            for m in range(16):
                i = frozenset(x for b, x in enumerate(atoms) if m >> b & 1)
                assert (chunk >> m & 1) == satisfies(i, f)


    def test_extension_continues_the_walk(self):
        # f conjoined with formulas made of f's own subformulas, compiled
        # by continuing f's walk: f's program and every extension keep
        # their truth tables, and a subformula met again costs no op
        atoms = [Atom(x) for x in "abcd"]
        for seed in range(200):
            f = gen_formula(GenConfig(seed=5000 + seed, max_atoms=4, max_depth=3))
            subs = [f]
            stack = [f]
            while stack:
                g = stack.pop()
                kids = (g.lhs, g.rhs) if type(g) is Impl else () if type(g) is AtomRef else g.children
                subs += kids
                stack += kids
            pick = random.Random(seed).choice
            more = [impl(pick(subs), pick(subs)), neg(subs[-1])]
            prog, conjoin = compile_extensible(f)
            extended = conjoin(more)
            assert extended.atoms == prog.atoms == compile_formula(f).atoms
            assert len(extended.ops) <= len(prog.ops) + 2 * len(more)
            whole = conj([f, *more])
            for p, g in ((prog, f), (extended, whole)):
                var = list(p.atoms)
                (chunk,) = truth_chunks(p, var)
                for m in range(1 << len(var)):
                    i = frozenset(x for b, x in enumerate(var) if m >> b & 1)
                    assert (chunk >> m & 1) == satisfies(i, g)


class TestKleenePruning:
    """`truth_chunks` skips the chunks that one Kleene run rules out.  With
    `chunk_bits` at least the number of swept atoms there are no high atoms
    and nothing is skipped: the unpruned reference."""

    def test_pruned_and_unpruned_chunks_agree(self):
        rng = random.Random(5150)
        skipped = 0
        for seed in range(600):
            pool = [Atom(x) for x in "abcdefgh"[: rng.randint(2, 8)]]
            if seed % 2:
                f = gen_formula(GenConfig(seed=seed, max_atoms=len(pool), max_depth=4))
            else:
                f = conj(_gen_program(rng, pool, rng.randint(1, 10)))
            var = rng.sample(pool, rng.randint(1, len(pool)))
            true = frozenset(x for x in pool if rng.random() < 0.5)  # may hold swept atoms too
            chunk_bits = rng.randrange(len(var))  # below n, so there are high atoms
            pruned = list(truth_chunks(f, var, true, chunk_bits))
            (whole,) = truth_chunks(f, var, true, len(var))
            width = 1 << chunk_bits
            assert pruned == [whole >> k * width & ((1 << width) - 1) for k in range(len(pruned))]
            live = live_prefixes(compile_formula(f), var, true, chunk_bits)
            skipped += sum(not live >> k & 1 for k in range(len(pruned)))
        assert skipped > 500

    def test_skipped_chunks_run_nothing(self, monkeypatch):
        # h is false in every model: the chunks with h true are never run
        f = conj([neg(atom("h")), disj([P, neg(P)]), impl(Q, R), impl(conj([atom("h"), S]), P)])
        var = [Atom("p"), Atom("q"), Atom("r"), Atom("s"), Atom("h")]
        runs = []
        real = Program.run
        monkeypatch.setattr(Program, "run", lambda *args: runs.append(1) or real(*args))
        assert list(truth_chunks(f, var, chunk_bits=2))[4:] == [0, 0, 0, 0]
        assert len(runs) == 4

    def test_implication_bounds_and_context(self):
        # (p -> q) -> s with q fixed true by the context is true exactly
        # where s is: only the chunks with s true are live
        f = impl(impl(P, Q), S)
        var = [Atom("p"), Atom("s")]
        prog = compile_formula(f)
        assert live_prefixes(prog, var, {Atom("q")}, 1) == 0b10
        assert live_prefixes(prog, var, frozenset(), 1) == 0b11  # p unknown: p -> q may be false
        # s -> p with s true and p unknown may be true: no chunk is dead
        assert live_prefixes(compile_formula(impl(S, P)), var, frozenset(), 1) == 0b11


class TestFormulaProperties:
    def _random_cases(self, n, seed):
        rng = random.Random(seed)
        for i in range(n):
            f = gen_formula(GenConfig(seed=seed + i, max_atoms=4, max_depth=3))
            sigma = sorted(atoms_of(f) | {Atom("p")})
            i_set = frozenset(x for x in sigma if rng.random() < 0.5)
            yield f, frozenset(sigma), i_set

    def test_satisfaction_agrees_with_own_reduct(self):
        for f, _, i in self._random_cases(300, 1200):
            assert satisfies(i, f) == satisfies(i, reduct(f, i))

    def test_unsatisfied_formulas_have_bot_reduct(self):
        hit = 0
        for f, sigma, i in self._random_cases(300, 1300):
            if not satisfies(i, f):
                hit += 1
                assert equivalent(reduct(f, i), BOT, sigma)
        assert hit > 30

    def test_reduct_idempotent_up_to_equivalence(self):
        for f, sigma, i in self._random_cases(200, 1400):
            r = reduct(f, i)
            assert equivalent(reduct(r, i), r, sigma)

    def test_removing_nonpositive_atoms_preserves_reduct_satisfaction(self):
        from astable import strictly_positive

        rng = random.Random(77)
        hit = 0
        for f, sigma, i in self._random_cases(300, 1500):
            if not satisfies(i, f):
                continue
            spare = sorted(sigma - strictly_positive(f))
            a = frozenset(x for x in spare if rng.random() < 0.5)
            hit += 1
            assert satisfies(i - a, reduct(f, i))
        assert hit > 50
