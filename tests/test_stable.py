import random

import pytest

from astable import (
    Atom,
    AtomRef,
    CapExceeded,
    ModelSet,
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
from astable.depgraph import dep_graph, sccs
from astable.formula import compile_formula
from astable.stable import (
    _CHUNK_BITS,
    _NARROW,
    _candidate_models,
    _ht_minimal,
    _layout,
    _parts,
    _stable_subset,
)
import astable.stable as stable_module
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

    @pytest.mark.parametrize("free", ["a", "c", "e", "ace", "aez"])
    def test_free_extensional_atoms_anywhere_in_the_order(self, free):
        # b and d occur; free extensional atoms sort before, between and
        # after them, and each model is spread to the merged order once
        forms = [_program(rules) for rules in (["b | not b", "not b -> d"], ["b -> d", "d -> b"], ["(b -> d) -> b"])]
        extra = frozenset(Atom(x) for x in free)
        for f in forms:
            sigma = atoms_of(f) | extra
            for a in all_subsets(sigma):
                got = enumerate_a_stable(f, a, sigma)
                want = brute_a_stable(f, sigma, a)
                assert got.as_set() == want
                assert list(got.sorted_atoms) == sorted(tuple(sorted(m)) for m in want)

    def test_every_intensional_set_on_narrow_programs(self):
        # a program of at most _NARROW atoms takes one packed run over every
        # assignment, laid out per atom count k and set of intensional atoms;
        # every A over these programs, atoms outside A occurring as
        # extensional ones, checks each such layout against the oracle
        programs = [
            _program(["top"]),
            _program(["a -> b", "b -> a", "not c -> d", "a | not a"]),
            _program(["a -> b", "b -> c", "c -> a", "a & not c -> b"]),
            # two components, the loops {a, b, c} and {d, e, f}, linked by a negative and a positive rule
            _program(["a -> b", "b -> c", "c -> a", "d -> e", "e -> f", "f -> d",
                      "not a -> d", "c -> e", "a | not a", "not (b & f)"]),
        ]
        for k in range(1, _NARROW + 1):
            forms = (gen_formula(GenConfig(seed=9400 + 50 * k + s, max_atoms=k, max_depth=3)) for s in range(50))
            programs += [f for f in forms if len(atoms_of(f)) == k][:3]
        sizes = set()
        for f in programs:
            sigma = atoms_of(f)
            sizes.add(len(sigma))
            for a in all_subsets(sigma):
                assert enumerate_a_stable(f, a, sigma).as_set() == brute_a_stable(f, sigma, a)
        assert sizes == set(range(_NARROW + 1))

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
    """(candidates, A-stable) with everything intensional, after checking
    the per-part packed filter against one `_ht_minimal` per candidate."""
    prog = compile_formula(f)
    a_mask = (1 << len(prog.atoms)) - 1
    every = range(len(prog.atoms))
    candidates = list(_candidate_models(prog, every, 0))
    reference = [m for m in candidates if _ht_minimal(prog, m, a_mask, {})]
    stable = _stable_subset(prog, every, 0, _parts(f, prog, frozenset(prog.atoms)), candidates)
    assert sorted(stable) == reference
    return candidates, stable


def _scc_parts(f, prog, a):
    """The parts of `_parts` for any size of A: the SCC bitmasks."""
    bit = {x: 1 << b for b, x in enumerate(prog.atoms) if x in a}
    return [sum(bit[x] for x in comp) for comp in sccs(dep_graph(f, bit.keys()))]


def _ring(names: list[str]) -> list[str]:
    return [f"{x} -> {y}" for x, y in zip(names, names[1:] + names[:1])]


class TestPackedMinimality:
    def test_negative_chain_is_rejected_by_one_atom_witnesses(self):
        candidates, stable = _packed_against_per_candidate(_program(_negchain(16)))
        assert len(candidates) == 2584
        assert len(stable) == 2  # the two alternating models

    def test_twelve_choices_are_all_stable(self):
        candidates, stable = _packed_against_per_candidate(_program(_choices(12)))
        assert len(candidates) == len(stable) == 4096

    def test_unsupported_ring_takes_the_rank_path(self):
        # s feeds a positive 10-ring; with s false the true ring has only
        # the witness that drops all ten ring atoms, the last slot of a part
        # wider than _NARROW
        f = _program(_ring([f"r{i}" for i in range(10)]) + ["s | not s", "s -> r0"] + _choices(3))
        prog = compile_formula(f)
        ring_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("r"))
        assert ring_mask in _parts(f, prog, frozenset(prog.atoms)) and ring_mask.bit_count() > _NARROW
        candidates, stable = _packed_against_per_candidate(f)
        rejected = set(candidates) - set(stable)
        assert len(rejected) == 8 and all(m & ring_mask == ring_mask for m in rejected)

    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_unsupported_three_loop_needs_its_last_witness(self, extra):
        # {a, b, c} plus every true choice: the only witness drops all three
        # loop atoms, the last slot of the loop's block in the segment
        f = _program(["a -> b", "b -> c", "c -> a"] + _choices(extra))
        candidates, stable = _packed_against_per_candidate(f)
        assert len(candidates) == 2 << extra
        assert len(stable) == 1 << extra

    def test_candidates_past_one_run(self):
        # 17 one-atom parts: 24-bit segments, more candidates than one run holds
        f = _program(_negchain(10) + _choices(7))
        candidates, stable = _packed_against_per_candidate(f)
        assert len(candidates) * _layout((1,) * 17)[0] > 1 << _CHUNK_BITS
        sigma = atoms_of(f)
        assert len(stable) == len(enumerate_a_stable(f, sigma, sigma)) == 2 * 128

    def test_ranks_inside_a_wide_part(self):
        # a 9-atom component whose models make any number of its atoms true:
        # x_i & c_i -> x_(i+1) and x_(i+1) -> x_i, each link switched by a
        # choice c_i, so candidates differ in how many and which ring atoms
        # they hold, and the rank of an atom varies from candidate to candidate
        xs = [f"x{i}" for i in range(9)]
        rules = [f"{x} & c{i} -> {y}" for i, (x, y) in enumerate(zip(xs, xs[1:] + xs[:1]))]
        rules += [f"{y} -> {x}" for x, y in zip(xs, xs[1:])]
        rules += _choices(9) + ["x4 | not x4", "x7 -> x2 | x8"]
        f = _program(rules)
        prog = compile_formula(f)
        assert max(p.bit_count() for p in _parts(f, prog, frozenset(prog.atoms))) == 9
        candidates, stable = _packed_against_per_candidate(f)
        x_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("x"))
        assert len({(m & x_mask).bit_count() for m in candidates}) == 10
        assert 0 < len(stable) < len(candidates)

    def test_seventeen_atom_part_takes_the_chunked_sweep(self, monkeypatch):
        # a part of 17 true atoms needs 2**17 - 1 slots, past one run, so
        # only the chunked sweep decides it, and only for candidates that
        # every other part passes
        calls = []

        def spy(prog, mask, a_mask, patterns):
            calls.append(a_mask)
            return _ht_minimal(prog, mask, a_mask, patterns)

        monkeypatch.setattr(stable_module, "_ht_minimal", spy)
        ring = [f"r{i}" for i in range(17)]
        f = _program(_ring(ring) + ["s | not s", "s -> r0", "not t -> u"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        ring_atoms = frozenset(Atom(r) for r in ring)
        s, u = Atom("s"), Atom("u")
        assert got.as_set() == {frozenset({u}), ring_atoms | {s, u}}
        # the sweep ran on the two candidates with the whole ring true
        # that pass the other parts, not on ones that fail them (t true)
        assert len(calls) == 2 and {c.bit_count() for c in calls} == {17}

    @pytest.mark.parametrize("extra, count", [([], 5), (["p1 -> p2", "p2 -> p1"], 4)])
    def test_wide_program_gets_one_part_per_component(self, extra, count):
        # a program of more than _NARROW atoms with two or more intensional
        # atoms takes its parts from the components, one atom each on the
        # negative chain, unless a positive cycle joins two of them
        f = _program(_negchain(20) + extra)
        prog = compile_formula(f)
        a = frozenset(Atom(f"p{i}") for i in range(5))
        parts = _parts(f, prog, a)
        assert len(parts) == count
        assert sorted(parts) == sorted(_scc_parts(f, prog, a))
        every = range(len(prog.atoms))
        candidates = list(_candidate_models(prog, every, 0))
        assert sorted(_stable_subset(prog, every, 0, parts, candidates)) == sorted(
            _stable_subset(prog, every, 0, [sum(parts)], candidates)
        )

    def test_one_part_agrees_with_the_component_parts(self):
        # a program of at most _NARROW atoms forms one part without a graph;
        # the component parts must give the same stable candidates
        rng = random.Random(23)
        for k in range(300):
            f = gen_formula(GenConfig(seed=9100 + k, max_atoms=5, max_depth=3))
            prog = compile_formula(f)
            a = frozenset(x for x in prog.atoms if rng.random() < 0.8)
            (one,) = _parts(f, prog, a) or [0]
            parts = _scc_parts(f, prog, a)
            assert one == sum(parts)
            every = range(len(prog.atoms))
            candidates = list(_candidate_models(prog, every, 0))
            assert sorted(_stable_subset(prog, every, 0, [one] if one else [], candidates)) == sorted(
                _stable_subset(prog, every, 0, parts, candidates)
            )


class TestModelSet:
    P, R = Atom("p"), Atom("r")
    SIG = frozenset({P, Q, R})
    MODELS = [{Q, P}, set(), {R}, {P}, {P, Q}]  # a duplicate, out of order

    def test_collection_semantics(self):
        got = ModelSet.from_iter(self.MODELS, self.SIG)
        canonical = ((), (self.P,), (self.P, Q), (self.R,))
        assert got.sorted_atoms == canonical
        assert got.models == tuple(map(frozenset, canonical))
        assert list(got) == list(got.models) and len(got) == 4
        assert got.as_set() == frozenset(map(frozenset, self.MODELS))
        assert {Q, self.P} in got and frozenset() in got and [self.R] in got
        assert {Q} not in got and {self.P, self.R} not in got
        assert got.lines() == ["{}", "{p}", "{p,q}", "{r}"]

    def test_equality_and_hash_follow_the_set(self):
        bits = {self.P: 1, Q: 2, self.R: 4}
        masks = [sum(map(bits.__getitem__, m)) for m in map(frozenset, self.MODELS)]
        via_masks = ModelSet.from_masks(list(dict.fromkeys(masks)), sorted(self.SIG), self.SIG)
        via_iter = ModelSet.from_iter(reversed(self.MODELS), self.SIG)
        assert via_masks == via_iter and hash(via_masks) == hash(via_iter)
        assert via_iter != ModelSet.from_iter(self.MODELS, self.SIG | {Atom("s")})
        assert via_iter != ModelSet.from_iter(self.MODELS[1:3], self.SIG)

    def test_intersection_keeps_the_canonical_order(self):
        left = ModelSet.from_iter([{self.R}, {self.P, Q}, set(), {Q}, {self.P}], self.SIG)
        right = ModelSet.from_iter([{self.P}, {Q}, {self.R}, {self.P, self.R}], self.SIG)
        both = left.intersection(right)
        assert both.sorted_atoms == ((self.P,), (Q,), (self.R,))
        assert both == right.intersection(left)
        with pytest.raises(SignatureError, match="different signatures"):
            left.intersection(ModelSet.from_iter([], {Q}))

    def test_a_model_leaving_the_signature_is_named(self):
        # the first such model in canonical order, from either constructor
        for make in (
            lambda: ModelSet.from_iter([{self.R}, {self.P, self.R}, {Q}], {self.P, Q}),
            lambda: ModelSet.from_masks([4, 5, 2], [self.P, Q, self.R], frozenset({self.P, Q})),
        ):
            with pytest.raises(SignatureError, match=r"^model \{p,r\} leaves the signature$"):
                make()
        assert len(ModelSet.from_masks([0, 2], [self.P, Q, self.R], frozenset({Q}))) == 2


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
