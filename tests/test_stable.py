import random

import pytest

from astable import (
    Atom,
    AtomRef,
    CapExceeded,
    SignatureError,
    atom,
    atoms_of,
    choice_extension,
    conj,
    disj,
    enumerate_a_stable,
    format_interpretation,
    impl,
    is_a_stable,
    leq_a,
    modred,
    neg,
    parse_program,
    reduct,
    satisfies,
)
from astable.formula import compile_formula
from astable.stable import (
    _CHUNK_BITS,
    _candidate_models,
    _ht_minimal,
    _packed_minimal,
    _stable_subset,
)
from astable.verifier import GenConfig, gen_formula

from util import all_subsets, brute_a_stable, guard_program

PA, PB, Q = Atom("p", ("a",)), Atom("p", ("b",)), Atom("q")
G = guard_program()
SIG = frozenset({PA, PB, Q})


class TestLeqA:
    def test_reflexive(self):
        assert leq_a({Atom("p")}, {Atom("p")}, frozenset())

    def test_difference_within_a(self):
        assert leq_a({Atom("p")}, {Atom("p"), Q}, {Q})

    def test_difference_outside_a(self):
        assert not leq_a({Atom("p")}, {Atom("p"), Q}, {Atom("r")})

    def test_partial_order_on_random_triples(self):
        rng = random.Random(5)
        pool = sorted(SIG)
        subs = all_subsets(pool)
        for _ in range(300):
            a = frozenset(x for x in pool if rng.random() < 0.5)
            i, j, k = (rng.choice(subs) for _ in range(3))
            assert leq_a(i, i, a)
            if leq_a(i, j, a) and leq_a(j, i, a):
                assert i == j
            if leq_a(i, j, a) and leq_a(j, k, a):
                assert leq_a(i, k, a)


class TestIsAStable:
    def test_guard_stable_model_is_q_stable(self):
        assert is_a_stable(G, {Q}, {Q})

    def test_nonempty_p_sets_are_q_stable(self):
        assert is_a_stable(G, {PA}, {Q})
        assert is_a_stable(G, {PA, PB}, {Q})

    def test_adding_q_on_top_of_p_is_not_q_stable(self):
        # {p(a)} satisfies the reduct and keeps the extensional part intact,
        # so {p(a), q} is not minimal; confirmed by explicit enumeration.
        i = frozenset({PA, Q})
        r = reduct(G, i)
        witnesses = [
            j for j in all_subsets(i)
            if j != i and (i - j) <= {Q} and satisfies(j, r)
        ]
        assert witnesses == [frozenset({PA})]
        assert not is_a_stable(G, i, {Q})


class TestEnumerate:
    def test_guard_stable_models(self):
        assert enumerate_a_stable(G, SIG, SIG).as_set() == {frozenset({Q})}

    def test_guard_q_stable_models(self):
        expected = {
            frozenset({Q}),
            frozenset({PA}),
            frozenset({PB}),
            frozenset({PA, PB}),
        }
        got = enumerate_a_stable(G, {Q}, SIG)
        assert got.as_set() == expected
        assert got.as_set() == brute_a_stable(G, SIG, {Q})

    def test_empty_a_yields_classical_models(self):
        got = enumerate_a_stable(G, frozenset(), SIG).as_set()
        classical = {i for i in all_subsets(SIG) if satisfies(i, G)}
        assert got == classical

    def test_output_sorted_lexicographically(self):
        got = enumerate_a_stable(G, {Q}, SIG)
        assert got.lines() == ["{p(a)}", "{p(a),p(b)}", "{p(b)}", "{q}"]

    def test_sigma_defaults_to_occurring_atoms(self):
        assert enumerate_a_stable(G, {Q}).signature == SIG

    def test_extra_extensional_atoms_multiply_models(self):
        extra = Atom("r")
        got = enumerate_a_stable(AtomRef(Q), {Q}, {Q, extra})
        assert got.as_set() == {frozenset({Q}), frozenset({Q, extra})}

    def test_unused_intensional_atoms_never_appear(self):
        extra = Atom("r")
        got = enumerate_a_stable(AtomRef(Q), {Q, extra}, {Q, extra})
        assert got.as_set() == {frozenset({Q})}

    def test_cap_refused_with_clear_message(self):
        wide = conj([atom(f"x{i}") for i in range(25)])
        with pytest.raises(CapExceeded, match="cap"):
            enumerate_a_stable(wide, atoms_of(wide))

    def test_signature_must_cover_formula(self):
        with pytest.raises(SignatureError):
            enumerate_a_stable(G, {Q}, {Q})

    def test_matches_reference_predicate_on_random_inputs(self):
        rng = random.Random(31)
        for i in range(150):
            f = gen_formula(GenConfig(seed=2200 + i, max_atoms=4, max_depth=3))
            sigma = frozenset(atoms_of(f) | {Atom("z")})
            a = frozenset(x for x in sorted(sigma) if rng.random() < 0.5)
            got = enumerate_a_stable(f, a, sigma).as_set()
            expected = {i_ for i_ in all_subsets(sigma) if is_a_stable(f, i_, a)}
            assert got == expected


def _program(rules: list[str]):
    return conj(parse_program("".join(r + ".\n" for r in rules)))


def _negchain(n: int) -> list[str]:
    return ["p0 | not p0"] + [f"not p{i} -> p{i + 1}" for i in range(n - 1)]


def _choices(n: int) -> list[str]:
    return [f"c{i} | not c{i}" for i in range(n)]


def _packed_against_per_candidate(f):
    """(candidates, A-stable, undecided) with everything intensional, after
    checking the packed filter against one `_ht_minimal` per candidate."""
    prog = compile_formula(f)
    a_mask = (1 << len(prog.atoms)) - 1
    candidates = list(_candidate_models(prog, prog.atoms))
    reference = [m for m in candidates if _ht_minimal(prog, m, a_mask, {})]
    assert sorted(_stable_subset(prog, a_mask, candidates)) == reference
    stable, undecided = _packed_minimal(prog, a_mask, candidates)
    assert set(stable) <= set(reference) <= set(stable) | set(undecided)
    return candidates, stable, undecided


class TestPackedMinimality:
    def test_negative_chain_is_rejected_by_one_atom_witnesses(self):
        candidates, stable, undecided = _packed_against_per_candidate(_program(_negchain(16)))
        assert len(candidates) == 2584
        assert len(stable) == 2 and not undecided  # the two alternating models

    def test_twelve_choices_are_all_stable(self):
        candidates, stable, undecided = _packed_against_per_candidate(_program(_choices(12)))
        assert len(candidates) == 4096
        assert len(stable) + len(undecided) == 4096

    def test_probe_misses_an_unsupported_ring(self):
        # s feeds a positive 10-ring; with s false the true ring has only
        # the witness that drops all ten ring atoms
        ring = [f"r{i} -> r{(i + 1) % 10}" for i in range(10)]
        f = _program(ring + ["s | not s", "s -> r0"] + _choices(3))
        prog = compile_formula(f)
        ring_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("r"))
        candidates, stable, undecided = _packed_against_per_candidate(f)
        a_mask = (1 << len(prog.atoms)) - 1
        missed = [m for m in undecided if not _ht_minimal(prog, m, a_mask, {})]
        assert len(missed) == 8 and all(m & ring_mask == ring_mask for m in missed)

    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_unsupported_three_loop_needs_its_last_witness(self, extra):
        # {a, b, c} plus every true choice: the only witness drops all three
        # loop atoms, the last bit of a segment that the J-space fills
        # exactly (extra = 0) or a probe past the exact range (extra >= 2)
        f = _program(["a -> b", "b -> c", "c -> a"] + _choices(extra))
        candidates, stable, undecided = _packed_against_per_candidate(f)
        assert len(candidates) == 2 << extra

    def test_candidates_past_one_run(self):
        # more candidates than even 8-bit segments fit into one run
        f = _program(_negchain(10) + _choices(7))
        candidates, stable, undecided = _packed_against_per_candidate(f)
        assert len(candidates) * 8 > 1 << _CHUNK_BITS
        assert stable and undecided
        sigma = atoms_of(f)
        assert len(enumerate_a_stable(f, sigma, sigma)) == 2 * 128


class TestModred:
    def test_direct_construction(self):
        p, q = Atom("p"), Atom("q")
        f = impl(AtomRef(p), AtomRef(q))
        m = modred(f, {p, q}, {q})
        assert m == conj([f, AtomRef(p)])
        # minimal-model check certifies {p, q} as {q}-stable
        assert satisfies({p, q}, m)
        assert not any(satisfies(j, m) for j in all_subsets({p, q}) if j != {p, q})

    def test_all_intensional_leaves_bare_reduct(self):
        i = frozenset({Q})
        assert modred(G, i, SIG) == reduct(G, i)

    def test_guard_example_over_singleton_domain(self):
        g1 = guard_program(("a",))
        i = frozenset({PA})
        m = modred(g1, i, {Q})
        assert m == conj([reduct(g1, i), AtomRef(PA)])


class TestChoiceExtension:
    def test_direct_construction(self):
        p, q = Atom("p"), Atom("q")
        f = AtomRef(q)
        got = choice_extension(f, {q}, {q, p})
        assert got == conj([f, disj([AtomRef(p), neg(AtomRef(p))])])

    def test_everything_intensional_is_identity(self):
        assert choice_extension(G, SIG, SIG) == G

    def test_guard_over_singleton_domain(self):
        g1 = guard_program(("a",))
        got = choice_extension(g1, {Q}, {Q, PA})
        assert got == conj([g1, disj([AtomRef(PA), neg(AtomRef(PA))])])

    def test_signature_must_cover(self):
        with pytest.raises(SignatureError):
            choice_extension(G, {Q}, {Q})


class TestThreeCharacterizations:
    def test_agreement_on_random_cases(self):
        rng = random.Random(99)
        for k in range(200):
            f = gen_formula(GenConfig(seed=3500 + k, max_atoms=4, max_depth=3))
            sigma = frozenset(atoms_of(f) | {Atom("d")})
            pool = sorted(sigma)
            i = frozenset(x for x in pool if rng.random() < 0.5)
            a = frozenset(x for x in pool if rng.random() < 0.5)
            direct = is_a_stable(f, i, a)
            m = modred(f, i, a)
            minimal = satisfies(i, m) and not any(
                satisfies(j, m) for j in all_subsets(i) if j != i
            )
            via_choice = i in enumerate_a_stable(choice_extension(f, a, sigma), sigma, sigma)
            assert direct == minimal == via_choice

    def test_monotone_in_smaller_intensional_sets(self):
        rng = random.Random(123)
        hits = 0
        for k in range(200):
            f = gen_formula(GenConfig(seed=6000 + k, max_atoms=4, max_depth=3))
            pool = sorted(atoms_of(f) | {Atom("d")})
            i = frozenset(x for x in pool if rng.random() < 0.5)
            a = frozenset(x for x in pool if rng.random() < 0.6)
            b = frozenset(x for x in sorted(a) if rng.random() < 0.5)
            if is_a_stable(f, i, a):
                hits += 1
                assert is_a_stable(f, i, b)
        assert hits > 20

    def test_every_a_stable_model_satisfies_the_formula(self):
        rng = random.Random(321)
        for k in range(100):
            f = gen_formula(GenConfig(seed=7000 + k, max_atoms=4, max_depth=3))
            sigma = atoms_of(f)
            a = frozenset(x for x in sorted(sigma) if rng.random() < 0.5)
            for m in enumerate_a_stable(f, a, sigma):
                assert satisfies(m, f)

    def test_format_interpretation(self):
        assert format_interpretation({PB, Q, PA}) == "{p(a),p(b),q}"
        assert format_interpretation(frozenset()) == "{}"
