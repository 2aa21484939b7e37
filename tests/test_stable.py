import itertools
import json
import random

import pytest

from astable import (
    BOT,
    Atom,
    AtomRef,
    CapExceeded,
    Impl,
    ModelSet,
    SignatureError,
    atom,
    atoms_of,
    choice_extension,
    conj,
    disj,
    enumerate_a_stable,
    format_formula,
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
from astable.formula import compile_extensible, compile_formula, live_prefixes, truth_chunks
from astable.stable import (
    _CHUNK_BITS,
    _NARROW,
    _candidate_models,
    _conjuncts,
    _ht_minimal,
    _layout,
    _parts,
    _stable_models,
    _stable_subset,
)
import astable.stable as stable_module
from astable.verifier import GenConfig, _gen_program, _reference_models, gen_formula

from util import all_subsets, brute_a_stable, guard_program, tc_definition

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
    """(classical models, A-stable) with everything intensional, after
    checking the sweep with the support conjuncts and the per-part packed
    filter of the parts left against one `_ht_minimal` per classical model."""
    prog, conjoin = compile_extensible(f)
    a_mask = (1 << len(prog.atoms)) - 1
    every = range(len(prog.atoms))
    candidates = list(_candidate_models(prog, every, 0))
    reference = [m for m in candidates if _ht_minimal(prog, m, a_mask)]
    parts, support = _parts(f, prog, frozenset(prog.atoms))
    swept = _candidate_models(conjoin(support), every, 0) if support else candidates
    stable = _stable_subset(prog, every, 0, parts, swept)
    assert sorted(stable) == reference
    return candidates, stable


def _scc_parts(f, prog, a):
    """The parts of `_parts` for any size of A: the SCC bitmasks."""
    bit = {x: 1 << b for b, x in enumerate(prog.atoms) if x in a}
    return [sum(bit[x] for x in comp) for comp in sccs(dep_graph(f, bit.keys()))]


def _masks(parts):
    """The bitmasks of `_parts`, without their clauses."""
    return [p for p, _ in parts]


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
        # the witness that drops all ten ring atoms; the disjunctive head
        # r3 -> r5 | r7 makes the ring, a part wider than _NARROW, no
        # definition, so its own chunked sweep decides it
        f = _program(_ring([f"r{i}" for i in range(10)]) + ["s | not s", "s -> r0", "r3 -> r5 | r7"] + _choices(3))
        prog = compile_formula(f)
        ring_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("r"))
        assert (ring_mask, None) in _parts(f, prog, frozenset(prog.atoms))[0] and ring_mask.bit_count() > _NARROW
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
        # they hold, and each candidate's sweep frees a different set of them
        xs = [f"x{i}" for i in range(9)]
        rules = [f"{x} & c{i} -> {y}" for i, (x, y) in enumerate(zip(xs, xs[1:] + xs[:1]))]
        rules += [f"{y} -> {x}" for x, y in zip(xs, xs[1:])]
        rules += _choices(9) + ["x4 | not x4", "x7 -> x2 | x8"]
        f = _program(rules)
        prog = compile_formula(f)
        # x7 -> x2 | x8 makes the component no definition
        parts, _ = _parts(f, prog, frozenset(prog.atoms))
        assert [(p.bit_count(), clauses) for p, clauses in parts if p.bit_count() > 1] == [(9, None)]
        candidates, stable = _packed_against_per_candidate(f)
        x_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("x"))
        assert len({(m & x_mask).bit_count() for m in candidates}) == 10
        assert 0 < len(stable) < len(candidates)

    def test_seventeen_atom_part_takes_the_chunked_sweep(self, monkeypatch):
        # a part of 17 true atoms needs 2**17 - 1 slots, past one run, so
        # only the chunked sweep decides it, and only for candidates that
        # every other part passes; the disjunctive head r3 -> r5 | r7 makes
        # the ring no definition, which the fixpoint would decide instead.
        # The one-atom parts {t} and {u} are decided by their support
        # conjuncts in the sweep; the part {s} of `s | not s` is left, and
        # it keeps its slot in the packed segment of every candidate
        calls = []

        def spy(prog, mask, a_mask):
            calls.append(a_mask)
            return _ht_minimal(prog, mask, a_mask)

        monkeypatch.setattr(stable_module, "_ht_minimal", spy)
        ring = [f"r{i}" for i in range(17)]
        f = _program(_ring(ring) + ["s | not s", "s -> r0", "not t -> u", "r3 -> r5 | r7"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        ring_atoms = frozenset(Atom(r) for r in ring)
        s, u = Atom("s"), Atom("u")
        assert got.as_set() == {frozenset({u}), ring_atoms | {s, u}}
        # the sweep ran for the ring on the two candidates with the whole
        # ring true that pass the other parts, not on ones that fail them
        # (t true), nor on {u}, which holds no ring atom
        assert sorted(c.bit_count() for c in calls) == [17, 17]

    @pytest.mark.parametrize("extra, count", [([], 5), (["p1 -> p2", "p2 -> p1"], 4)])
    def test_wide_program_gets_one_part_per_component(self, extra, count):
        # a program of more than _NARROW atoms with two or more intensional
        # atoms takes its parts from the components, one atom each on the
        # negative chain, unless a positive cycle joins two of them; a
        # one-atom part `not p_i -> p_(i+1)` is a definition, so it comes as
        # its support conjunct `p_(i+1) -> not p_i` instead of a part
        f = _program(_negchain(20) + extra)
        prog, conjoin = compile_extensible(f)
        a = frozenset(Atom(f"p{i}") for i in range(5))
        parts, support = _parts(f, prog, a)
        assert len(parts) + len(support) == count
        bit = {x: 1 << b for b, x in enumerate(prog.atoms)}
        supported = [bit[c.lhs.atom] for c in support]
        assert sorted(_masks(parts) + supported) == sorted(_scc_parts(f, prog, a))
        every = range(len(prog.atoms))
        candidates = list(_candidate_models(prog, every, 0))
        assert sorted(_stable_models(prog, every, 0, parts, conjoin(support))) == sorted(
            _stable_subset(prog, every, 0, [(sum(_masks(parts)) | sum(supported), None)], candidates)
        )

    def test_one_part_agrees_with_the_component_parts(self):
        # a program of at most _NARROW atoms forms one part without a graph;
        # the component parts must give the same stable candidates
        rng = random.Random(23)
        for k in range(300):
            f = gen_formula(GenConfig(seed=9100 + k, max_atoms=5, max_depth=3))
            prog = compile_formula(f)
            a = frozenset(x for x in prog.atoms if rng.random() < 0.8)
            parts, support = _parts(f, prog, a)
            assert not support
            (one,) = _masks(parts) or [0]
            parts = _scc_parts(f, prog, a)
            assert one == sum(parts)
            every = range(len(prog.atoms))
            candidates = list(_candidate_models(prog, every, 0))
            assert sorted(_stable_subset(prog, every, 0, [(one, None)] if one else [], candidates)) == sorted(
                _stable_subset(prog, every, 0, [(p, None) for p in parts], candidates)
            )


def _switched_ring(n: int) -> list[str]:
    """The program of `test_ranks_inside_a_wide_part` over an n-ring:
    x_i & c_i -> x_(i+1) and x_(i+1) -> x_i, each link switched by a
    choice c_i, the choice x4 | not x4, and x7 -> x2 | x8, which makes the
    ring no definition."""
    xs = [f"x{i}" for i in range(n)]
    rules = [f"{x} & c{i} -> {y}" for i, (x, y) in enumerate(zip(xs, xs[1:] + xs[:1]))]
    rules += [f"{y} -> {x}" for x, y in zip(xs, xs[1:])]
    return rules + _choices(n) + ["x4 | not x4", "x7 -> x2 | x8"]


def _sparse_cycle(n: int, unchosen: set[int]) -> list[str]:
    """An n-cycle of x_i & x_(i+1) -> x_(i+1), one positive component,
    with no two neighbours true and a choice for every x_i but the
    unchosen ones: its candidates hold a few of its atoms, and one with an
    unchosen atom true is unsupported.  The choices make it no definition."""
    xs = [f"x{i}" for i in range(n)]
    rules = [f"{x} & {y} -> {y}" for x, y in zip(xs, xs[1:] + xs[:1])]
    rules += [f"not ({x} & {y})" for x, y in zip(xs, xs[1:] + xs[:1])]
    return rules + [f"{x} | not {x}" for i, x in enumerate(xs) if i not in unchosen]


def _unsupported_ring() -> list[str]:
    """The program of `test_unsupported_ring_takes_the_rank_path`."""
    return _ring([f"r{i}" for i in range(10)]) + ["s | not s", "s -> r0", "r3 -> r5 | r7"] + _choices(3)


def _wide_parts(f):
    """The bitmasks of the parts of f, everything intensional, that are
    wider than `_NARROW` and no definition."""
    prog = compile_formula(f)
    return [p for p, clauses in _parts(f, prog, frozenset(prog.atoms))[0] if clauses is None and p.bit_count() > _NARROW]


class TestWidePartsAgainstTheReference:
    """A part wider than `_NARROW` that is no definition is decided by one
    `_ht_minimal` sweep per candidate that holds one of its atoms; these
    check whole enumerations against the reference `is_a_stable`."""

    def test_unsupported_ring(self):
        f = _program(_unsupported_ring())
        pool = sorted(atoms_of(f))
        assert len(_wide_parts(f)) == 1
        got = enumerate_a_stable(f, frozenset(pool), frozenset(pool))
        assert got == _reference_models(f, frozenset(pool), pool) and len(got) == 16

    def test_sparse_cycle(self):
        f = _program(_sparse_cycle(14, {2, 5, 9, 12}))
        pool = sorted(atoms_of(f))
        assert [p.bit_count() for p in _wide_parts(f)] == [14]
        got = enumerate_a_stable(f, frozenset(pool), frozenset(pool))
        assert got == _reference_models(f, frozenset(pool), pool) and len(got) == 225

    def test_switched_ring(self):
        # the reference over all 18 atoms takes minutes, so A is the ring
        # and the choices are extensional: the part stays the 9-atom ring,
        # and the classical models come from one sweep, not from `satisfies`
        # on each of the 2**18 interpretations as in `_reference_models`
        f = _program(_switched_ring(9))
        prog = compile_formula(f)
        ring = frozenset(x for x in prog.atoms if x.name.startswith("x"))
        classical = ModelSet.from_masks(_candidate_models(prog, range(len(prog.atoms)), 0), prog.atoms, ring | atoms_of(f))
        want = {i for i in classical if is_a_stable(f, i, ring)}
        got = enumerate_a_stable(f, ring, atoms_of(f))
        assert [p.bit_count() for p in _wide_parts(f)] == [9]
        assert got.as_set() == want and len(want) == 1024

    def test_no_sweep_for_a_candidate_without_the_part(self, monkeypatch):
        # the 10-ring's candidates with no ring atom true are stable for the
        # ring as they are: every sweep checks a candidate holding ring atoms
        calls = []
        monkeypatch.setattr(
            stable_module, "_ht_minimal", lambda prog, mask, a_mask: calls.append((mask, a_mask)) or _ht_minimal(prog, mask, a_mask)
        )
        f = _program(_unsupported_ring())
        prog = compile_formula(f)
        (ring,) = _wide_parts(f)
        candidates = _candidate_models(prog, range(len(prog.atoms)), 0)
        sigma = atoms_of(f)
        assert len(enumerate_a_stable(f, sigma, sigma)) == 16
        assert calls and all(mask & a_mask for mask, a_mask in calls) and {a_mask for _, a_mask in calls} == {ring}
        assert len(calls) == sum(1 for m in candidates if m & ring) < len(candidates)


def _closure_with_choices(elements):
    """Choices p(x,y) | not p(x,y) and the transitive closure q of p, a
    definition for the q atoms, and the A-stable models of the whole by the
    closure of each subset of the p atoms."""
    clauses, q_set = tc_definition(elements)
    pairs = list(itertools.product(elements, repeat=2))
    f = conj([clauses] + [disj([atom("p", x, y), neg(atom("p", x, y))]) for x, y in pairs])
    models = set()
    for edges in all_subsets(pairs):
        closure = set(edges)
        while True:
            more = {(x, z) for x, y in closure for y2, z in closure if y == y2} - closure
            if not more:
                break
            closure |= more
        models.add(frozenset(Atom("p", e) for e in edges) | frozenset(Atom("q", e) for e in closure))
    return f, q_set, models


class TestDefinitionParts:
    def test_clauses_of_a_wide_part(self):
        # the 9 q atoms are one part, its 9 + 27 defining conjuncts clauses;
        # every p atom is a part of one atom, with no clauses
        f, q_set, _ = _closure_with_choices("abc")
        prog = compile_formula(f)
        parts, support = _parts(f, prog, frozenset(prog.atoms))
        defined = [(p, clauses) for p, clauses in parts if clauses is not None]
        assert not support
        assert len(parts) == 10 and len(defined) == 1
        q_mask, clauses = defined[0]
        assert {x for b, x in enumerate(prog.atoms) if q_mask >> b & 1} == q_set
        assert len(clauses) == 9 + 27
        for body, body_pos, pos, head in clauses:
            assert prog.atoms[head] in q_set and {prog.atoms[b] for b in pos} <= q_set
            assert [prog.atoms[b] for b in body_pos] == list(body.atoms)
            assert not q_set & set(body.atoms)
        # q(x,x) & q(x,x) -> q(x,x) is the one-atom body of the 3 clauses with x = y = z
        assert sorted(len(pos) for _, _, pos, _ in clauses) == [0] * 9 + [1] * 3 + [2] * 24

    @pytest.mark.parametrize(
        "extra, defined",
        [
            ([], True),
            (["r2"], True),  # a fact is the clause top -> r2
            (["s & r1 & r4 -> r2"], True),  # C = {r1, r4}, H = s
            (["r3 -> r5 | r7"], False),  # a disjunctive head
            (["not r4 -> r2"], False),  # H mentions the part
            (["s -> (r4 -> r2)"], False),  # a nested implication
            (["r1 & (r2 | s) -> r3"], False),  # the part inside H
        ],
    )
    def test_definition_recognition(self, extra, defined):
        f = _program(_ring([f"r{i}" for i in range(8)]) + ["s | not s", "s -> r0"] + extra)
        prog = compile_formula(f)
        ring_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("r"))
        (clauses,) = [c for p, c in _parts(f, prog, frozenset(prog.atoms))[0] if p == ring_mask]
        assert (clauses is not None) == defined
        candidates, stable = _packed_against_per_candidate(f)
        assert stable

    def test_narrow_programs_and_parts_are_never_recognized(self, monkeypatch):
        # no definition recognition on a program of at most _NARROW atoms,
        # nor for a part of at most _NARROW atoms
        calls = []
        real = stable_module._definition
        monkeypatch.setattr(stable_module, "_definition", lambda *args: calls.append(args) or real(*args))
        small = _program(_ring([f"r{i}" for i in range(_NARROW)]))
        prog = compile_formula(small)
        assert _parts(small, prog, frozenset(prog.atoms)) == ([((1 << _NARROW) - 1, None)], [])
        wide = _program(_ring([f"r{i}" for i in range(_NARROW)]) + _choices(4))
        prog = compile_formula(wide)
        assert _parts(wide, prog, frozenset(prog.atoms))[1] == []
        assert all(clauses is None for _, clauses in _parts(wide, prog, frozenset(prog.atoms))[0])
        assert not calls

    def test_wide_definition_part_builds_no_counters_and_no_sweep(self, monkeypatch):
        # the 17-ring seeded by s: a definition, so one fixpoint run decides
        # it for every candidate; no segment holds it and no chunked sweep
        # checks it
        sweeps, runs, widest = [], [], []
        monkeypatch.setattr(stable_module, "_ht_minimal", lambda *args: sweeps.append(args) or _ht_minimal(*args))
        real_columns = stable_module._columns

        def columns(n, slotted, batch):
            widest.append(max(s for _, s in slotted))
            return real_columns(n, slotted, batch)

        monkeypatch.setattr(stable_module, "_columns", columns)
        real_fixpoint = stable_module._least_fixpoint
        monkeypatch.setattr(stable_module, "_least_fixpoint", lambda *args: runs.append(1) or real_fixpoint(*args))
        ring = [f"r{i}" for i in range(17)]
        f = _program(_ring(ring) + ["s | not s", "s -> r0", "not t -> u"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        ring_atoms = frozenset(Atom(r) for r in ring)
        s, u = Atom("s"), Atom("u")
        assert got.as_set() == {frozenset({u}), ring_atoms | {s, u}}
        assert not sweeps and len(runs) == 1
        assert widest and max(widest) <= _NARROW

    def test_closure_part_matches_the_models_and_the_per_candidate_check(self, monkeypatch):
        sweeps, widest = [], []
        monkeypatch.setattr(stable_module, "_ht_minimal", lambda *args: sweeps.append(args) or _ht_minimal(*args))
        real_columns = stable_module._columns

        def columns(n, slotted, batch):
            widest.append(max(s for _, s in slotted))
            return real_columns(n, slotted, batch)

        monkeypatch.setattr(stable_module, "_columns", columns)
        f, _, models = _closure_with_choices("abc")
        sigma = atoms_of(f)
        assert enumerate_a_stable(f, sigma, sigma).as_set() == models
        assert not sweeps and max(widest) == 1
        # the fixpoint against one here-and-there sweep per candidate
        monkeypatch.undo()
        candidates, stable = _packed_against_per_candidate(f)
        assert len(stable) == len(models) == 512 < len(candidates)

    def test_definition_parts_inside_extensional_context(self):
        # some p atoms extensional, the rest chosen: the closure part is
        # decided with the p atoms as its context
        f, q_set, models = _closure_with_choices("ab")
        sigma = atoms_of(f)
        for k in range(5):
            a = q_set | frozenset(x for x in sigma - q_set if (hash(x) >> k) & 1)
            assert enumerate_a_stable(f, a, sigma).as_set() == brute_a_stable(f, sigma, a)


class TestSupportSweep:
    """A one-atom part that is a definition is decided by its support
    conjunct in the candidate sweep and never reaches `_stable_subset`."""

    @staticmethod
    def _spy(monkeypatch, name: str) -> list:
        calls = []
        real = getattr(stable_module, name)
        monkeypatch.setattr(stable_module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        return calls

    def test_negative_chain_sweeps_only_its_stable_models(self, monkeypatch):
        # not p_i -> p_(i+1) over 18 atoms with p0 extensional: every part
        # is a definition, so the sweep's two models are the answer and no
        # segment is ever built
        swept = []
        real = stable_module._candidate_models
        monkeypatch.setattr(stable_module, "_candidate_models", lambda *args: swept.append(real(*args)) or swept[-1])
        columns = self._spy(monkeypatch, "_columns")
        f = _program([f"not p{i} -> p{i + 1}" for i in range(17)])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma - {Atom("p0")}, sigma)
        assert got.as_set() == {frozenset(Atom(f"p{i}") for i in range(s, 18, 2)) for s in (0, 1)}
        assert [len(c) for c in swept] == [2] and not columns

    def test_support_conjuncts_of_a_program(self):
        # the bodies are the very objects of the program; a self-supporting
        # clause is left out, an atom with no clause must be false, a fact
        # needs no conjunct, and `not q -> q` or a choice leaves a part
        f = _program(["not a -> b", "c & b -> b", "d -> b", "e", "not f -> f", "g | not g", "h -> i", "i -> h"])
        prog = compile_formula(f)
        parts, support = _parts(f, prog, frozenset(prog.atoms))
        bit = {x: 1 << k for k, x in enumerate(prog.atoms)}
        assert sorted(_masks(parts)) == sorted([bit[Atom("f")], bit[Atom("g")], bit[Atom("h")] | bit[Atom("i")]])
        by_head = {c.lhs.atom: c.rhs for c in support}
        assert set(by_head) == {Atom(x) for x in "abcd"}
        bodies = [c.lhs for c in _conjuncts(f) if type(c) is Impl and c.rhs == atom("b")]
        assert set(map(id, by_head[Atom("b")].children)) <= set(map(id, bodies))
        assert format_formula(by_head[Atom("b")]) == "d | not a"
        assert all(by_head[Atom(x)] == BOT for x in "acd")

    def test_narrow_programs_never_call_clause(self, monkeypatch):
        # a program of at most _NARROW atoms takes one run over every
        # assignment and recognizes nothing; one atom more does
        calls = self._spy(monkeypatch, "_clause")
        for k in range(200):
            f = gen_formula(GenConfig(seed=9700 + k, max_atoms=_NARROW, max_depth=3))
            sigma = atoms_of(f)
            assert enumerate_a_stable(f, sigma, sigma).as_set() == brute_a_stable(f, sigma, sigma)
        f = _program(_negchain(_NARROW))
        enumerate_a_stable(f, atoms_of(f))
        assert not calls
        enumerate_a_stable(_program(_negchain(_NARROW + 1)), {Atom("p1")})
        assert calls


def _cycle_colouring(n: int) -> list[str]:
    """3-colouring of the cycle C_n: a vertex takes a colour when it has
    neither other one, and adjacent vertices differ."""
    col = [[f"k{v}_{c}" for c in range(3)] for v in range(n)]
    rules = []
    for v in range(n):
        for c in range(3):
            o1, o2 = (col[v][d] for d in range(3) if d != c)
            rules.append(f"not {o1} & not {o2} -> {col[v][c]}")
        rules += [f"not ({col[v][c]} & {col[(v + 1) % n][c]})" for c in range(3)]
    return rules


class TestHighAtoms:
    """A sweep of more than `_CHUNK_BITS` atoms puts the atoms read by the
    most ops high when that leaves fewer live chunks."""

    @staticmethod
    def _orders(monkeypatch) -> list[list[Atom]]:
        """The atom order of every sweep `stable` makes from now on."""
        orders = []
        real = stable_module.truth_chunks

        def spy(prog, var_atoms, *args, **kwargs):
            orders.append(list(var_atoms))
            return real(prog, var_atoms, *args, **kwargs)

        monkeypatch.setattr(stable_module, "truth_chunks", spy)
        return orders

    @staticmethod
    def _classical(f, prog, var, here, rng) -> list[int]:
        """Every assignment to the atoms at `var` that satisfies f with the
        context `here`, by one run over all of them, which has no high
        atoms to prune or reorder, spot-checked against `satisfies`."""
        atoms = prog.atoms
        true = {x for b, x in enumerate(atoms) if here >> b & 1}
        (whole,) = truth_chunks(prog, [atoms[b] for b in var], true, len(var))
        for c in rng.sample(range(1 << len(var)), 200):
            i = frozenset(true) | {atoms[b] for j, b in enumerate(var) if c >> j & 1}
            assert satisfies(i, f) == bool(whole >> c & 1)
        return [c for c, bit in enumerate(bin(whole)[:1:-1]) if bit == "1"]

    def test_random_wide_sweeps_match_every_assignment(self, monkeypatch):
        rng = random.Random(1776)
        orders = self._orders(monkeypatch)
        kept = reordered = 0
        for _ in range(30):
            pool = [Atom(f"x{i}") for i in range(rng.randint(17, 19))]
            rules = _gen_program(rng, pool, rng.randint(8, 30))
            rules += [disj((AtomRef(x), neg(AtomRef(x)))) for x in pool if rng.random() < 0.3]
            missing = set(pool) - atoms_of(conj(rules))
            rules += [disj((AtomRef(x), neg(AtomRef(x)))) for x in sorted(missing)]
            f = conj(rules)
            prog = compile_formula(f)
            var = rng.sample(range(len(pool)), rng.randint(17, len(pool)))  # any order of positions
            here = sum(1 << b for b in range(len(pool)) if b not in var and rng.random() < 0.5)
            got = _candidate_models(prog, var, here)
            assert sorted(got) == self._classical(f, prog, var, here, rng)
            if orders.pop() == [prog.atoms[b] for b in var]:
                kept += 1
            else:
                reordered += 1
        assert kept and reordered

    def test_most_read_atom_goes_high_only_when_it_prunes_more(self, monkeypatch):
        rng = random.Random(3)
        orders = self._orders(monkeypatch)
        xs = [f"x{i}" for i in range(16)]
        # c is read the most, yet with c high as many chunks stay live as
        # in sorted order, where the constraint on zh prunes: kept
        kept = _program([f"c -> {x}" for x in xs] + ["not zh"])
        # with c high, c -> x9 kills the chunks with c true and x9 false
        moved = _program([f"c -> {x}" for x in xs] + ["c | not c", "not h"])
        for f, same in ((kept, True), (moved, False)):
            prog = compile_formula(f)
            every = range(len(prog.atoms))
            got = _candidate_models(prog, every, 0)
            assert sorted(got) == self._classical(f, prog, every, 0, rng)
            order = orders.pop()
            assert (order == list(prog.atoms)) == same
            assert order[-1] == (Atom("zh") if same else Atom("c"))

    def test_a_chunk_of_one_model_is_read_without_its_binary_text(self, monkeypatch):
        texts = []
        monkeypatch.setattr(stable_module, "bin", lambda c: texts.append(c) or bin(c), raising=False)
        # one model, all 18 atoms true, in the last of four chunks
        chain = compile_formula(_program(["p0"] + [f"p{i} -> p{i + 1}" for i in range(17)]))
        assert _candidate_models(chain, range(18), 0) == [(1 << 18) - 1]
        assert texts == []
        choices = compile_formula(_program([f"x{i} | not x{i}" for i in range(3)]))
        assert sorted(_candidate_models(choices, range(3), 0)) == list(range(8))
        assert len(texts) == 1

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_cycle_colourings_match_the_closed_form(self, n):
        # the chromatic polynomial of C_n at 3 colours: 2**n + 2 (-1)**n;
        # from 6 vertices on (18 atoms) the sweep has high atoms, and the
        # Kleene run skips some of its chunks
        f = _program(_cycle_colouring(n))
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        assert len(got) == 2**n + 2 * (-1) ** n
        assert all(len(m) == n for m in got)
        if n == 8:
            live = live_prefixes(compile_formula(f), sorted(sigma), frozenset(), _CHUNK_BITS)
            assert live.bit_count() < 256


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

    def test_membership_reads_the_bitmasks(self):
        ms = ModelSet.from_iter([{self.P, Q}, set()], self.SIG)
        assert {self.P, Q} in ms and frozenset() in ms
        assert {self.P} not in ms and {Q, Atom("s")} not in ms


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


class TestModelSetDecode:
    """`from_masks` against an independent oracle: sort each model's atoms,
    then sort the tuples."""

    # text order and atom order are both exercised: p1 < p10 < p2, p < p(a),
    # p(a) < p(a,b) < p(b), and a model {p(a)} before {p(a),q} although
    # "}" sorts after ","
    NAMES = [Atom("p"), Atom("p1"), Atom("p10"), Atom("p2"), Atom("p", ("a",)), Atom("p", ("a", "b")),
             Atom("p", ("b",)), Atom("p", ("ab",)), Atom("q"), Atom("Q"), Atom("q_1"), Atom("r", ("a", "a")),
             Atom("a0"), Atom("z")]

    def check(self, masks, atoms, signature):
        got = ModelSet.from_masks(masks, atoms, signature)
        models = [frozenset(x for b, x in enumerate(atoms) if m >> b & 1) for m in masks]
        want = sorted(tuple(sorted(m)) for m in models)
        assert got.sorted_atoms == tuple(want)
        assert got.as_set() == frozenset(models) and len(got) == len(masks)
        assert got.lines() == ["{" + ",".join(map(str, t)) + "}" for t in want]
        assert got.lines(as_json=True) == [json.dumps({"atoms": [str(x) for x in t]}) for t in want]
        return got

    def test_random_mask_sets_match_the_oracle(self):
        rng = random.Random(41)
        for _ in range(400):
            atoms = sorted(rng.sample(self.NAMES, rng.randint(0, len(self.NAMES))))
            count = rng.choice([1, 2, 3, rng.randint(0, 40)])  # a handful, and more than one decodes at a time
            masks = rng.sample(range(1 << len(atoms)), min(count, 1 << len(atoms)))
            self.check(masks, atoms, frozenset(atoms) | {Atom("s")})

    def test_empty_sets_and_no_atoms(self):
        sig = frozenset(self.NAMES[:3])
        assert self.check([], sorted(sig), sig).lines() == []
        assert self.check([0], sorted(sig), sig).lines() == ["{}"]
        assert self.check([0], [], sig).lines(as_json=True) == ['{"atoms": []}']
        assert len(self.check([], [], frozenset())) == 0

    def test_more_than_255_atoms(self):
        # ranks past one byte: the rank string is not limited to bytes
        atoms = sorted(Atom(f"x{k}") for k in range(300))
        rng = random.Random(43)
        for count in (1, 3, 40):
            masks = list({rng.getrandbits(300) >> rng.randrange(300) for _ in range(count)})
            masks += [1 << 299, (1 << 299) | 1, 1 << 255, 1 << 256]
            self.check(list(dict.fromkeys(masks)), atoms, frozenset(atoms))

    def test_intersection_over_different_atoms(self):
        rng = random.Random(47)
        sig = frozenset(self.NAMES)
        for _ in range(200):
            sets = []
            for _ in range(2):
                atoms = sorted(rng.sample(self.NAMES, rng.randint(0, 6)))
                masks = rng.sample(range(1 << len(atoms)), min(rng.choice([2, 30]), 1 << len(atoms)))
                sets.append(ModelSet.from_masks(masks, atoms, sig))
            left, right = sets
            both = left.intersection(right)
            assert both.as_set() == left.as_set() & right.as_set()
            assert list(both.sorted_atoms) == sorted(both.sorted_atoms)
