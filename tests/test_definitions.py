import random

import pytest

from astable import (
    Atom,
    AtomRef,
    DefinitionError,
    DefinitionModule,
    Rejection,
    TOP,
    atom,
    atoms_of,
    check_conservativity,
    conj,
    disj,
    impl,
    intersection_oracle,
    is_a_stable,
    neg,
    recognize_definition,
    satisfies,
    unique_q_stable,
)
from astable.verifier import GenConfig, _gen_definition

from util import all_subsets, guard_program, tc_definition

Q = Atom("q")


class TestRecognize:
    def test_guard_program_is_an_explicit_definition(self):
        d = recognize_definition(guard_program(), {Q})
        assert not isinstance(d, Rejection)
        assert d.is_explicit
        assert len(d.clauses) == 1
        assert d.clauses[0].pos_q == frozenset()
        assert d.clauses[0].head == Q

    def test_transitive_closure_is_a_definition(self):
        g, q_set = tc_definition(("a", "b"))
        d = recognize_definition(g, q_set)
        assert not isinstance(d, Rejection)
        assert not d.is_explicit
        assert len(d.clauses) == len(g.children)
        assert all(c.pos_q <= q_set for c in d.clauses)

    def test_self_supporting_negation_rejected(self):
        d = recognize_definition(impl(neg(AtomRef(Q)), AtomRef(Q)), {Q})
        assert isinstance(d, Rejection)
        assert "occurs in a clause body" in d.reason

    def test_non_implication_conjunct_rejected(self):
        d = recognize_definition(conj([AtomRef(Q), impl(atom("p"), AtomRef(Q))]), {Q})
        assert isinstance(d, Rejection)
        assert d.offender == AtomRef(Q)

    def test_head_outside_q_rejected(self):
        d = recognize_definition(impl(atom("p"), atom("r")), {Q})
        assert isinstance(d, Rejection)
        assert "consequent" in d.reason

    def test_nested_q_atom_rejected(self):
        q2 = Atom("q2")
        bad = impl(conj([atom("p"), neg(AtomRef(q2))]), AtomRef(Q))
        d = recognize_definition(bad, {Q, q2})
        assert isinstance(d, Rejection)

    def test_empty_definition_accepted(self):
        d = recognize_definition(TOP, {Q})
        assert not isinstance(d, Rejection)
        assert d.clauses == ()

    def test_q_atom_as_whole_antecedent(self):
        q2 = Atom("q2")
        d = recognize_definition(impl(AtomRef(q2), AtomRef(Q)), {Q, q2})
        assert not isinstance(d, Rejection)
        assert d.clauses[0].pos_q == {q2}
        assert d.clauses[0].body == TOP


class TestUniqueQStable:
    def test_transitive_closure_single_fact(self):
        g, q_set = tc_definition(("a", "b"))
        d = recognize_definition(g, q_set)
        j = frozenset({Atom("p", ("a", "b"))})
        got = unique_q_stable(d, j)
        assert got == j | {Atom("q", ("a", "b"))}
        assert got == intersection_oracle(d, j)

    def test_transitive_closure_chains_propagate(self):
        g, q_set = tc_definition(("a", "b", "c"))
        d = recognize_definition(g, q_set)
        j = frozenset({Atom("p", ("a", "b")), Atom("p", ("b", "c"))})
        got = unique_q_stable(d, j)
        assert Atom("q", ("a", "c")) in got
        assert got == intersection_oracle(d, j)

    def test_guard_definition_from_empty_context(self):
        d = recognize_definition(guard_program(), {Q})
        assert unique_q_stable(d, frozenset()) == {Q}

    def test_false_bodies_add_nothing(self):
        d = recognize_definition(impl(atom("p"), AtomRef(Q)), {Q})
        assert unique_q_stable(d, frozenset()) == frozenset()

    def test_context_with_defined_atoms_rejected(self):
        d = recognize_definition(guard_program(), {Q})
        with pytest.raises(DefinitionError):
            unique_q_stable(d, {Q})
        with pytest.raises(DefinitionError):
            intersection_oracle(d, {Q})

    def test_result_is_the_only_q_stable_completion(self):
        rng = random.Random(60)
        for k in range(150):
            d = _gen_definition(rng, GenConfig(seed=6100 + k))
            assert not isinstance(d, Rejection)
            base = sorted(atoms_of(d.source) - d.q_set)
            ctx = frozenset(x for x in base if rng.random() < 0.5)
            got = unique_q_stable(d, ctx)
            assert got == intersection_oracle(d, ctx)
            completions = [
                ctx | s for s in all_subsets(d.q_set)
                if is_a_stable(d.source, ctx | s, d.q_set)
            ]
            assert completions == [got]

    def test_fixpoint_terminates_within_q_rounds(self):
        # a chain q1 <- q2 <- ... forces one new atom per round
        qs = [Atom(f"q{i}") for i in range(1, 7)]
        clauses = [impl(TOP, AtomRef(qs[0]))]
        clauses += [impl(AtomRef(qs[i - 1]), AtomRef(qs[i])) for i in range(1, 6)]
        d = recognize_definition(conj(clauses), set(qs))
        assert unique_q_stable(d, frozenset()) == frozenset(qs)


class TestEmptyAndOracleEdges:
    def test_no_clauses_returns_context(self):
        d = recognize_definition(TOP, {Q})
        j = frozenset({Atom("p")})
        assert unique_q_stable(d, j) == j
        assert intersection_oracle(d, j) == j

    def test_unconditional_clause(self):
        d = recognize_definition(impl(TOP, AtomRef(Q)), {Q})
        assert intersection_oracle(d, frozenset()) == {Q}


class TestConservativity:
    def test_transitive_closure_over_fact_base(self):
        g, q_set = tc_definition(("a", "b"))
        d = recognize_definition(g, q_set)
        f = conj([atom("p", "a", "b")])
        report = check_conservativity(f, d)
        assert report.bijection
        ((full, projected),) = report.pairs
        assert projected == {Atom("p", ("a", "b"))}
        assert full == projected | {Atom("q", ("a", "b"))}

    def test_top_base_pairs_with_guard_definition(self):
        d = recognize_definition(guard_program(), {Q})
        report = check_conservativity(TOP, d)
        assert report.bijection
        assert report.pairs == ((frozenset({Q}), frozenset()),)

    def test_defined_atom_in_base_is_an_error(self):
        d = recognize_definition(guard_program(), {Q})
        with pytest.raises(DefinitionError):
            check_conservativity(AtomRef(Q), d)

    def test_random_bases_and_definitions_always_bijective(self):
        rng = random.Random(61)
        from astable.verifier import _gen

        cfg = GenConfig(seed=62)
        for k in range(150):
            d = _gen_definition(rng, GenConfig(seed=6400 + k))
            assert not isinstance(d, Rejection)
            f = _gen(rng, [Atom(c) for c in "abc"], rng.randint(0, 3), cfg)
            report = check_conservativity(f, d)
            assert report.bijection, report.counterexample

    def test_pairing_respects_projection(self):
        g, q_set = tc_definition(("a", "b"))
        d = recognize_definition(g, q_set)
        f = conj([atom("p", "a", "a"), atom("p", "a", "b")])
        report = check_conservativity(f, d)
        assert report.bijection
        for full, projected in report.pairs:
            assert projected == full - q_set
            assert unique_q_stable(d, projected) == full


    def test_each_failure_is_named(self):
        # modules built by hand, so that none is a definition
        p, qa = AtomRef(Atom("p")), AtomRef(Atom("q", ("a",)))
        choice = lambda x: disj((x, neg(x)))
        cases = [
            (TOP, p, "stable model {p} projects to {p}, which is not stable for the base"),
            (TOP, choice(qa), "stable models {} and {q(a)} project to the same base model"),
            (choice(p), neg(p), "base stable model {p} has no completion"),
            (choice(p), conj((choice(qa), choice(p))), "stable models {p} and {p,q(a)} project to the same base model"),
        ]
        for f, source, message in cases:
            report = check_conservativity(f, DefinitionModule((), frozenset({qa.atom}), source))
            assert (report.counterexample, report.pairs) == (message, None)


class TestProjectionLemma:
    def test_covering_intensional_set_projects_to_stability(self):
        rng = random.Random(63)
        from astable.verifier import _gen

        cfg = GenConfig(seed=64)
        pool = [Atom(c) for c in "abcd"]
        for k in range(200):
            f = _gen(rng, pool, rng.randint(0, 3), cfg)
            sigma = frozenset(pool)
            a = atoms_of(f) | frozenset(x for x in pool if rng.random() < 0.4)
            i = frozenset(x for x in pool if rng.random() < 0.5)
            assert is_a_stable(f, i, a) == is_a_stable(f, i & a, sigma)

    def test_reduct_transparency_for_definition_models(self):
        rng = random.Random(65)
        from astable.formula import reduct

        for k in range(150):
            d = _gen_definition(rng, GenConfig(seed=6600 + k))
            assert not isinstance(d, Rejection)
            sigma = atoms_of(d.source) | d.q_set
            models = [
                i for i in all_subsets(sigma) if satisfies(i, d.source)
            ]
            if not models:
                continue
            i = rng.choice(models)
            k_sub = (i - d.q_set) | frozenset(
                x for x in sorted(i & d.q_set) if rng.random() < 0.5
            )
            assert satisfies(k_sub, reduct(d.source, i)) == satisfies(k_sub, d.source)
