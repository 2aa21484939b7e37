import itertools
import json
import random
import re
from collections import Counter

import pytest

from astable import (
    BOT,
    TOP,
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
from astable.definitions import check_conservativity, recognize_definition
from astable.depgraph import dep_graph, sccs
from astable.formula import compile_extensible, compile_formula, live_prefixes, truth_chunks
from astable.stable import (
    _CHUNK_BITS,
    _NARROW,
    _assignment_run,
    _candidate_models,
    _conjuncts,
    _ht_minimal,
    _loops,
    _parts,
    _read_order,
    _stable_models,
    _stable_subset,
    _unit_route,
)
import astable.formula as formula_module
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

    def test_top_and_bot_have_no_atoms_to_sweep(self):
        # no atom occurs: one segment of the packed run, whose bit 0 is
        # classical truth; a free extensional atom doubles top's one model
        assert enumerate_a_stable(TOP, frozenset()).lines() == ["{}"]
        assert enumerate_a_stable(BOT, frozenset()).lines() == []
        assert enumerate_a_stable(TOP, frozenset(), {Q}).lines() == ["{}", "{q}"]
        assert enumerate_a_stable(BOT, {Q}, {Q}).lines() == []

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


def _route_against_per_candidate(f):
    """(classical models, A-stable) with everything intensional, after
    checking the sweep with the loop formulas and the check of the wider
    parts left against one `_ht_minimal` per classical model."""
    prog, conjoin = compile_extensible(f)
    a_mask = (1 << len(prog.atoms)) - 1
    every = range(len(prog.atoms))
    candidates = sorted(_candidate_models(prog, every, 0))  # a wide sweep lists them in its own order
    reference = [m for m in candidates if _ht_minimal(prog, m, a_mask)]
    parts, loop_formulas = _parts(f, prog, frozenset(prog.atoms))
    stable = _stable_models(prog, every, 0, a_mask, parts, conjoin(loop_formulas) if loop_formulas else None)
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
        candidates, stable = _route_against_per_candidate(_program(_negchain(16)))
        assert len(candidates) == 2584
        assert len(stable) == 2  # the two alternating models

    def test_twelve_choices_are_all_stable(self):
        candidates, stable = _route_against_per_candidate(_program(_choices(12)))
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
        candidates, stable = _route_against_per_candidate(f)
        rejected = set(candidates) - set(stable)
        assert len(rejected) == 8 and all(m & ring_mask == ring_mask for m in rejected)

    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_unsupported_three_loop_needs_its_last_witness(self, extra):
        # {a, b, c} plus every true choice: the only witness drops all three
        # loop atoms, the last slot of the loop's block in the segment
        f = _program(["a -> b", "b -> c", "c -> a"] + _choices(extra))
        candidates, stable = _route_against_per_candidate(f)
        assert len(candidates) == 2 << extra
        assert len(stable) == 1 << extra

    def test_seventeen_one_atom_parts_are_decided_in_the_sweep(self, monkeypatch):
        # 17 one-atom parts, each decided by its loop formula: the sweep
        # alone keeps the stable models, and no part is left to check
        subsets = []
        monkeypatch.setattr(stable_module, "_stable_subset", lambda *args: subsets.append(args))
        f = _program(_negchain(10) + _choices(7))
        sigma = atoms_of(f)
        assert len(enumerate_a_stable(f, sigma, sigma)) == 2 * 128
        assert not subsets
        monkeypatch.undo()
        candidates, stable = _route_against_per_candidate(f)
        assert len(stable) == 2 * 128 < len(candidates)

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
        candidates, stable = _route_against_per_candidate(f)
        x_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x.name.startswith("x"))
        assert len({(m & x_mask).bit_count() for m in candidates}) == 10
        assert 0 < len(stable) < len(candidates)

    def test_seventeen_atom_part_takes_the_chunked_sweep(self, monkeypatch):
        # a part of 17 true atoms is past the loop formulas, so only the
        # chunked sweep decides it, and only for candidates that every
        # other part passes; the disjunctive head r3 -> r5 | r7 makes the
        # ring no definition, which the fixpoint would decide instead.
        # The one-atom parts {s}, {t} and {u} are decided by their loop
        # formulas in the sweep
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
        # negative chain, unless a positive cycle joins two of them; every
        # part is narrow, so each comes as its loop formulas, one per loop:
        # a one-atom part `not p_i -> p_(i+1)` as `p_(i+1) -> not p_i`, the
        # cycle {p1, p2} as the loops {p1}, {p2} and {p1, p2}
        f = _program(_negchain(20) + extra)
        prog, conjoin = compile_extensible(f)
        a = frozenset(Atom(f"p{i}") for i in range(5))
        parts, loop_formulas = _parts(f, prog, a)
        comps = _scc_parts(f, prog, a)
        assert parts == [] and len(comps) == count
        # the choice p0 | not p0 needs none: its copy in the antecedent is bot
        assert len(loop_formulas) == sum((1 << p.bit_count()) - 1 for p in comps) - 1
        every = range(len(prog.atoms))
        candidates = list(_candidate_models(prog, every, 0))
        assert sorted(_stable_models(prog, every, 0, sum(comps), parts, conjoin(loop_formulas))) == sorted(
            _stable_subset(prog, every, 0, [(sum(comps), None)], candidates)
        )

    def test_one_part_agrees_with_the_component_parts(self):
        # a program of at most _NARROW atoms is decided as one part, all of
        # A, by the packed run, without a graph; the component parts must
        # give the same stable candidates
        rng = random.Random(23)
        for k in range(300):
            f = gen_formula(GenConfig(seed=9100 + k, max_atoms=5, max_depth=3))
            prog = compile_formula(f)
            a = frozenset(x for x in prog.atoms if rng.random() < 0.8)
            one = sum(1 << b for b, x in enumerate(prog.atoms) if x in a)
            parts = _scc_parts(f, prog, a)
            assert one == sum(parts)
            every = range(len(prog.atoms))
            candidates = list(_candidate_models(prog, every, 0))
            want = sorted(_stable_subset(prog, every, 0, [(p, None) for p in parts], candidates))
            assert sorted(_stable_subset(prog, every, 0, [(one, None)] if one else [], candidates)) == want
            assert sorted(_stable_models(prog, every, 0, one)) == want


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
        # every p atom is a part of one atom, decided in the sweep (its
        # choice needs no loop formula)
        f, q_set, _ = _closure_with_choices("abc")
        prog = compile_formula(f)
        parts, loop_formulas = _parts(f, prog, frozenset(prog.atoms))
        defined = [(p, clauses) for p, clauses in parts if clauses is not None]
        assert not loop_formulas
        assert len(parts) == 1 and len(defined) == 1
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
        candidates, stable = _route_against_per_candidate(f)
        assert stable

    def test_a_ring_unit_compiles_each_body_object_once(self, monkeypatch):
        # a 9-atom ring unit of a layered chain: 9 of its 10 clause bodies
        # are the one `top`, and the seed's body is `not x`
        ring = [f"q{i}" for i in range(9)]
        f = _program(_ring(ring) + ["not x -> q0"])
        prog, conjoin = compile_extensible(f)
        unit = [b for b, x in enumerate(prog.atoms) if x.name.startswith("q")]
        compiled = []
        real = stable_module.compile_formula
        monkeypatch.setattr(stable_module, "compile_formula", lambda g: compiled.append(g) or real(g))
        one, _, _, clauses, _, _ = _unit_route(f, prog, conjoin, unit)
        assert one and len(clauses) == 10
        assert compiled == [TOP, neg(atom("x"))] or compiled == [neg(atom("x")), TOP]
        assert len({id(body) for body, _, _, _ in clauses}) == 2
        # each extension is the least fixpoint: the whole ring when x is false
        x = prog.atoms.index(Atom("x"))
        assert stable_module._unit_models(_unit_route(f, prog, conjoin, unit), [0, 1 << x]) == {
            0: ((1 << 9) - 1,),
            1 << x: (0,),
        }

    def test_narrow_programs_and_parts_are_never_recognized(self, monkeypatch):
        # no definition recognition on a program or a modular unit of at
        # most _NARROW atoms, which the packed run decides without parts,
        # nor for a part of at most _NARROW atoms
        calls, parted = [], []
        real = stable_module._definition
        monkeypatch.setattr(stable_module, "_definition", lambda *args: calls.append(args) or real(*args))
        real_parts = stable_module._parts
        monkeypatch.setattr(stable_module, "_parts", lambda *args: parted.append(args) or real_parts(*args))
        small = _program(_ring([f"r{i}" for i in range(_NARROW)]))
        prog, conjoin = compile_extensible(small)
        assert len(enumerate_a_stable(small, atoms_of(small))) == 1
        assert _unit_route(small, prog, conjoin, range(_NARROW))[3:5] == ((), None)
        assert not parted
        wide = _program(_ring([f"r{i}" for i in range(_NARROW)]) + _choices(4))
        prog = compile_formula(wide)
        parts, loop_formulas = _parts(wide, prog, frozenset(prog.atoms))
        # the ring is a narrow part: one loop formula for each of its atoms
        # and one for the whole ring, its only other loop; no part is left
        assert parts == [] and len(loop_formulas) == 1 + _NARROW
        assert not calls

    def test_wide_definition_part_builds_no_counters_and_no_sweep(self, monkeypatch):
        # the 17-ring seeded by s: a definition, so one fixpoint run decides
        # it for every candidate; no packed run holds it and no chunked
        # sweep checks it
        sweeps, runs, packed = [], [], []
        monkeypatch.setattr(stable_module, "_ht_minimal", lambda *args: sweeps.append(args) or _ht_minimal(*args))
        real_verdicts = stable_module._verdicts
        monkeypatch.setattr(stable_module, "_verdicts", lambda *args: packed.append(args) or real_verdicts(*args))
        real_fixpoint = stable_module._least_fixpoint
        monkeypatch.setattr(stable_module, "_least_fixpoint", lambda *args: runs.append(1) or real_fixpoint(*args))
        ring = [f"r{i}" for i in range(17)]
        f = _program(_ring(ring) + ["s | not s", "s -> r0", "not t -> u"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        ring_atoms = frozenset(Atom(r) for r in ring)
        s, u = Atom("s"), Atom("u")
        assert got.as_set() == {frozenset({u}), ring_atoms | {s, u}}
        assert not sweeps and len(runs) == 1 and not packed

    def test_closure_part_matches_the_models_and_the_per_candidate_check(self, monkeypatch):
        sweeps, packed = [], []
        monkeypatch.setattr(stable_module, "_ht_minimal", lambda *args: sweeps.append(args) or _ht_minimal(*args))
        real_verdicts = stable_module._verdicts
        monkeypatch.setattr(stable_module, "_verdicts", lambda *args: packed.append(args) or real_verdicts(*args))
        f, _, models = _closure_with_choices("abc")
        sigma = atoms_of(f)
        assert enumerate_a_stable(f, sigma, sigma).as_set() == models
        assert not sweeps and not packed
        # the fixpoint against one here-and-there sweep per candidate
        monkeypatch.undo()
        candidates, stable = _route_against_per_candidate(f)
        assert len(stable) == len(models) == 512 < len(candidates)

    def test_definition_parts_inside_extensional_context(self):
        # some p atoms extensional, the rest chosen: the closure part is
        # decided with the p atoms as its context
        f, q_set, models = _closure_with_choices("ab")
        sigma = atoms_of(f)
        for k in range(5):
            a = q_set | frozenset(x for x in sigma - q_set if (hash(x) >> k) & 1)
            assert enumerate_a_stable(f, a, sigma).as_set() == brute_a_stable(f, sigma, a)


def _choices_and_closure(elements):
    """Choices p(x,y) | not p(x,y) and the transitive closure q of p, a
    definition for the q atoms (see `tc_definition`)."""
    clauses, q_set = tc_definition(elements)
    base = conj([disj([atom("p", x, y), neg(atom("p", x, y))]) for x, y in itertools.product(elements, repeat=2)])
    return base, clauses, q_set


class TestDerivedParts:
    """A wide definition part on no cycle of body reads is derived, not
    swept: the sweep covers only the atoms no such part fixes.  These
    count what each route covers."""

    @staticmethod
    def _spy(monkeypatch) -> tuple[list, list]:
        """Per `_lane_models` call (swept atoms, widths of the derived
        parts, widths of the compared parts, whether the program runs),
        and per `_candidate_models` call its number of swept atoms."""
        lanes, swept = [], []
        real_lanes = stable_module._lane_models

        def lane_models(prog, var, here, where, batches, derived, compared, check):
            widths = ([p.bit_count() for p, _ in parts] for parts in (derived, compared))
            lanes.append((len(where), *widths, check))
            return real_lanes(prog, var, here, where, batches, derived, compared, check)

        real_sweep = stable_module._candidate_models
        monkeypatch.setattr(stable_module, "_lane_models", lane_models)
        monkeypatch.setattr(stable_module, "_candidate_models", lambda prog, var, here: swept.append(len(var)) or real_sweep(prog, var, here))
        return lanes, swept

    def test_closure_check_sweeps_only_the_edges(self, monkeypatch):
        # check-definition of the closure over 3 elements: the 9 closure
        # atoms are derived on the 2**9 edge assignments, never swept, and
        # never compared with their fixpoint after a sweep
        lanes, swept = self._spy(monkeypatch)
        base, clauses, q_set = _choices_and_closure("abc")
        report = check_conservativity(base, recognize_definition(clauses, q_set))
        assert report.bijection and len(report.models) == 512
        assert lanes == [(9, [9], [], True)]
        assert swept == [9]  # the base's choices alone, not the 18 atoms of both

    def test_four_element_closure_sweeps_sixteen_atoms(self, monkeypatch):
        lanes, swept = self._spy(monkeypatch)
        base, clauses, _ = _choices_and_closure("abcd")
        f = conj([base, clauses])
        sigma = atoms_of(f)
        assert len(sigma) == 32
        assert len(enumerate_a_stable(f, sigma, sigma, max_atoms=32)) == 1 << 16
        assert lanes == [(16, [16], [], True)] and not swept

    def test_parts_reading_each_other_through_not_stay_swept(self, monkeypatch):
        # two 7-rings, each seeded by the other's absence, and a choice c
        # that seeds the first: the rings read each other, so neither can
        # be derived before the other; both are swept and compared
        ps, qs = [f"p{i}" for i in range(7)], [f"q{i}" for i in range(7)]
        f = _program(_ring(ps) + _ring(qs) + ["not q0 -> p0", "not p0 -> q0", "c | not c", "c -> p3"])
        prog = compile_formula(f)
        parts, _ = _parts(f, prog, frozenset(prog.atoms))
        derived, compared = _read_order(parts)
        assert not derived and sorted(p.bit_count() for p, _ in compared) == [7, 7]
        lanes, swept = self._spy(monkeypatch)
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        p_atoms, q_atoms = frozenset(map(Atom, ps)), frozenset(map(Atom, qs))
        assert got.as_set() == {p_atoms | {Atom("c")}, p_atoms, q_atoms}
        assert swept == [15] and lanes == [(15, [], [7, 7], False)]

    def test_parts_are_derived_after_the_parts_they_read(self, monkeypatch):
        # three 7-rings: r seeded by the choice c, q by r, p by the absence
        # of q; listed p, q, r in the program, derived r, q, p
        rings = {k: [f"{k}{i}" for i in range(7)] for k in "pqr"}
        rules = [r for ring in rings.values() for r in _ring(ring)] + ["not q0 -> p0", "r3 -> q0", "c -> r0", "c | not c"]
        f = _program(rules)
        prog = compile_formula(f)
        parts, _ = _parts(f, prog, frozenset(prog.atoms))
        derived, compared = _read_order(parts)
        assert [prog.atoms[(p & -p).bit_length() - 1].name[0] for p, _ in derived] == ["r", "q", "p"] and not compared
        lanes, swept = self._spy(monkeypatch)
        sigma = atoms_of(f)
        ring_atoms = {k: frozenset(map(Atom, ring)) for k, ring in rings.items()}
        got = enumerate_a_stable(f, sigma, sigma)
        assert got.as_set() == {ring_atoms["r"] | ring_atoms["q"] | {Atom("c")}, ring_atoms["p"]}
        assert lanes == [(1, [7, 7, 7], [], True)] and not swept

    def test_seventeen_swept_atoms_leave_one_unknown_in_the_kleene_run(self, monkeypatch):
        # 17 choices and a 7-ring seeded by the first: past _KLEENE_BITS
        # swept atoms the lowest is unknown in the Kleene run, and the
        # 2**17 live assignments take two batches of _RUN_BITS lanes
        runs = []
        real = stable_module.live_prefixes
        monkeypatch.setattr(stable_module, "live_prefixes", lambda *args: runs.append(args[1:]) or real(*args))
        fixpoints = []
        real_fixpoint = stable_module._least_fixpoint
        monkeypatch.setattr(stable_module, "_least_fixpoint", lambda *args: fixpoints.append(1) or real_fixpoint(*args))
        lanes, swept = self._spy(monkeypatch)
        ring = [f"r{i}" for i in range(7)]
        f = _program(_ring(ring) + _choices(17) + ["c0 -> r0"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        assert len(got) == 1 << 17 and not swept
        assert lanes == [(17, [7], [], True)]
        ((var_atoms, _, chunk_bits),) = runs
        assert len(var_atoms) == 24 and chunk_bits == 7 + 1
        assert len(fixpoints) == 2  # one per batch
        ring_atoms = frozenset(map(Atom, ring))
        for m in got:
            assert m & ring_atoms == (ring_atoms if Atom("c0") in m else frozenset())

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 18, 30])
    def test_lanes_read_back_to_their_bitmasks(self, n):
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(1000)]
        columns = stable_module._lanes(masks, n)
        assert len(columns) == n
        for b, column in enumerate(columns):
            assert column.to_bytes(len(masks), "little") == bytes(m >> b & 1 for m in masks)
        assert stable_module._read(columns, len(masks), None) == masks
        keep = bytes(rng.random() < 0.3 for _ in masks)
        assert stable_module._read(columns, len(masks), keep) == list(itertools.compress(masks, keep))

    @pytest.mark.parametrize("n", [3, 9, 18])
    def test_few_bitmasks_decode_as_many_do(self, n):
        # up to _FEW bitmasks take the selectors, more the byte tables
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(40)]
        pieces = [f"x{b}" for b in range(n)]
        many = stable_module._decode(masks, pieces, tuple)
        assert [stable_module._decode([m], pieces, tuple)[0] for m in masks] == many
        assert many == [tuple(x for b, x in enumerate(pieces) if m >> b & 1) for m in masks]


class TestSupportSweep:
    """A part of at most `_NARROW` atoms is decided by its loop formulas in
    the candidate sweep and never reaches `_stable_subset`; for a one-atom
    part with clauses only, the formula is the support conjunct."""

    @staticmethod
    def _spy(monkeypatch, name: str) -> list:
        calls = []
        real = getattr(stable_module, name)
        monkeypatch.setattr(stable_module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        return calls

    def test_negative_chain_sweeps_only_its_stable_models(self, monkeypatch):
        # not p_i -> p_(i+1) over 18 atoms with p0 extensional: every part
        # is a one-atom loop, so the sweep's two models are the answer and
        # no part is left to check
        swept = []
        real = stable_module._candidate_models
        monkeypatch.setattr(stable_module, "_candidate_models", lambda *args: swept.append(real(*args)) or swept[-1])
        subsets = self._spy(monkeypatch, "_stable_subset")
        f = _program([f"not p{i} -> p{i + 1}" for i in range(17)])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma - {Atom("p0")}, sigma)
        assert got.as_set() == {frozenset(Atom(f"p{i}") for i in range(s, 18, 2)) for s in (0, 1)}
        assert [len(c) for c in swept] == [2] and not subsets

    def test_choices_sweep_only_their_stable_models(self, monkeypatch):
        # 12 choices, an unfounded 3-loop and a 2-loop fed by two of the
        # choices: the sweep returns exactly the stable models, with no
        # check after it
        subsets = self._spy(monkeypatch, "_stable_subset")
        f = _program(_choices(12) + ["a -> b", "b -> c", "c -> a", "c0 & not c1 -> d", "d -> e", "e -> d"])
        sigma = atoms_of(f)
        got = enumerate_a_stable(f, sigma, sigma)
        assert not subsets
        c0, c1, d, e = (Atom(x) for x in ("c0", "c1", "d", "e"))
        chosen = all_subsets(Atom(f"c{i}") for i in range(12))
        assert got.as_set() == {i | ({d, e} if c0 in i and c1 not in i else set()) for i in chosen}
        monkeypatch.undo()
        assert len(_route_against_per_candidate(f)[1]) == len(got)

    def test_support_conjuncts_of_a_program(self):
        # a one-atom loop's formula: the bodies are the very objects of the
        # program, a self-supporting body `H & q` becomes bot and drops out,
        # an atom with no clause must be false, a fact or a choice needs no
        # formula, and `not q -> q` takes its body as it is, with no edge
        f = _program(["not a -> b", "c & b -> b", "d -> b", "e", "not f -> f", "g | not g", "h -> i", "i -> h"])
        prog = compile_formula(f)
        parts, loop_formulas = _parts(f, prog, frozenset(prog.atoms))
        assert parts == []
        one_atom = {c.lhs.atom: c.rhs for c in loop_formulas if type(c.lhs) is AtomRef}
        assert set(one_atom) == {Atom(x) for x in "abcdfhi"}
        bodies = [c.lhs for c in _conjuncts(f) if type(c) is Impl and c.rhs == atom("b")]
        assert set(map(id, one_atom[Atom("b")].children)) <= set(map(id, bodies))
        assert format_formula(one_atom[Atom("b")]) == "d | not a"  # in the order of the conjuncts of f
        assert all(one_atom[Atom(x)] == BOT for x in "acd") and format_formula(one_atom[Atom("f")]) == "not f"
        assert format_formula(one_atom[Atom("h")]) == "i" and format_formula(one_atom[Atom("i")]) == "h"
        (loop,) = [c for c in loop_formulas if type(c.lhs) is not AtomRef]
        assert format_formula(loop) == "not (h & i)"  # the loop {h, i} has no support from outside

    def test_narrow_programs_build_no_loop_formulas(self, monkeypatch):
        # a program of at most _NARROW atoms takes one run over every
        # assignment and builds no loop formula; one atom more does
        calls = self._spy(monkeypatch, "_loop_formulas")
        for k in range(200):
            f = gen_formula(GenConfig(seed=9700 + k, max_atoms=_NARROW, max_depth=3))
            sigma = atoms_of(f)
            assert enumerate_a_stable(f, sigma, sigma).as_set() == brute_a_stable(f, sigma, sigma)
        f = _program(_negchain(_NARROW))
        enumerate_a_stable(f, atoms_of(f))
        assert not calls
        enumerate_a_stable(_program(_negchain(_NARROW + 1)), {Atom("p1")})
        assert calls

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_loops_match_brute_force_on_every_small_digraph(self, k):
        # every digraph over k vertices without self-loops, which change no
        # loop: a nonempty set is a loop iff each of its vertices reaches
        # every other inside it, by a transitive closure over the set
        pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
        for edges in range(1 << len(pairs)):
            succs = tuple(tuple(v for j, (u, v) in enumerate(pairs) if u == w and edges >> j & 1) for w in range(k))
            want = []
            for y in range(1, 1 << k):
                inside = [v for v in range(k) if y >> v & 1]
                reach = {(u, v) for u in inside for v in succs[u] if y >> v & 1} | {(v, v) for v in inside}
                for m in inside:
                    reach |= {(u, v) for u in inside for v in inside if (u, m) in reach and (m, v) in reach}
                if len(reach) == len(inside) ** 2:
                    want.append(y)
            assert list(_loops(succs)) == want

    def test_assignment_run_slots_are_the_subsets_of_the_free_atoms(self):
        # segment c of the run over every assignment to k atoms has a live
        # slot for exactly each nonempty subset of I & A, I = c, and each
        # atom's column is 1 there iff the subset leaves the atom in I
        for k in range(_NARROW + 1):
            for a in range(1 << k):
                columns, live, first, width = _assignment_run(k, a)
                part = [b for b in range(k) if a >> b & 1]
                assert width % 8 == 0 and width >= 1 << len(part)
                assert first == sum(1 << c * width for c in range(1 << k))
                for c in range(1 << k):
                    slots = [slot for slot in range(1, width) if live >> (c * width + slot) & 1]
                    dropped = [{part[t] for t in range(len(part)) if slot >> t & 1} for slot in slots]
                    free = [b for b in part if c >> b & 1]
                    want = [set(sub) for r in range(1, len(free) + 1) for sub in itertools.combinations(free, r)]
                    assert sorted(map(sorted, dropped)) == sorted(map(sorted, want))
                    for b, column in enumerate(columns):
                        assert column >> c * width & 1 == c >> b & 1
                        for slot, drop in zip(slots, dropped):
                            assert column >> (c * width + slot) & 1 == (c >> b & 1 and b not in drop)


class TestDeepLoopFormulas:
    """A narrow part of a program past `_NARROW` atoms whose rule body or
    other defining conjunct is nested 5,000 deep: the here-copies and their
    loop formulas are built by explicit-stack walks, and `solve` answers as
    it does for the shallow program of the same stable models, since
    `x -> (y -> G)` and `x & y -> G` are equivalent in here-and-there."""

    CHOICES = [f"{x} | not {x}" for x in ("x0", "x1", "x2", "y0", "y1", "y2")]

    @staticmethod
    def _deep(inner: str, depth: int = 5000) -> str:
        return "".join(f"x{i % 3} -> (" for i in range(depth)) + inner + ")" * depth

    def _solve(self, tmp_path, capsys, deep: str, shallow: str) -> None:
        from astable.cli import main

        path = tmp_path / "deep.lp"
        path.write_text("".join(r + ".\n" for r in [deep] + self.CHOICES))
        code = main(["solve", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in err
        f = _program([shallow] + self.CHOICES)
        sigma = atoms_of(f)
        want = enumerate_a_stable(f, sigma, sigma)
        assert want.as_set() == brute_a_stable(f, sigma, sigma)
        assert code == 0 and out.splitlines() == want.lines()

    def test_deep_rule_body(self, tmp_path, capsys):
        # h is positive nonnegated in the body, so its loop formula copies it
        self._solve(tmp_path, capsys, f"({self._deep('h')}) -> h", "(x0 & x1 & x2 -> h) -> h")

    def test_deep_other_conjunct(self, tmp_path, capsys):
        # h is strictly positive in a conjunct that is no rule, whose copy
        # stands in the antecedent of h's loop formula
        self._solve(tmp_path, capsys, self._deep("h | y0"), "x0 & x1 & x2 -> h | y0")


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
    most ops high, and makes one Kleene run, inside `truth_chunks`."""

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

    @staticmethod
    def _by_reads(prog, var) -> list[Atom]:
        """The atoms at `var`, those read by fewer ops first, ties in the
        order of var."""
        reads = Counter(slot for _, left, right, _ in prog.ops for slot in (left, right))
        return [prog.atoms[b] for b in sorted(var, key=lambda b: reads[b + 2])]

    def test_random_wide_sweeps_match_every_assignment(self, monkeypatch):
        rng = random.Random(1776)
        orders = self._orders(monkeypatch)
        reordered = 0
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
            (order,) = orders
            assert order == self._by_reads(prog, var)
            reordered += order != [prog.atoms[b] for b in var]
            orders.clear()
        assert reordered > 20

    def test_most_read_atom_goes_high(self, monkeypatch):
        rng = random.Random(3)
        orders = self._orders(monkeypatch)
        xs = [f"x{i}" for i in range(16)]
        # c is read the most and goes high in both: in the first, zh, high
        # in sorted order, would prune as much through its constraint; in
        # the second, c -> x9 kills the chunks with c true and x9 false
        zh_prunes = _program([f"c -> {x}" for x in xs] + ["not zh"])
        c_prunes = _program([f"c -> {x}" for x in xs] + ["c | not c", "not h"])
        for f in (zh_prunes, c_prunes):
            prog = compile_formula(f)
            every = range(len(prog.atoms))
            got = _candidate_models(prog, every, 0)
            assert sorted(got) == self._classical(f, prog, every, 0, rng)
            order = orders.pop()
            assert order == self._by_reads(prog, every) and order[-1] == Atom("c")

    def test_one_kleene_run_per_sweep(self, monkeypatch):
        # past _CHUNK_BITS atoms the sweep's one Kleene run is the
        # sub-chunk run inside `truth_chunks`, and `stable` makes none of
        # its own; a sweep of at most _CHUNK_BITS atoms has no high atoms
        # and makes none at all
        inner, outer = [], []
        real = formula_module.live_prefixes
        monkeypatch.setattr(formula_module, "live_prefixes", lambda *args: inner.append(args[3]) or real(*args))
        monkeypatch.setattr(stable_module, "live_prefixes", lambda *args: outer.append(args) or real(*args))
        sweeps = []
        real_chunks = stable_module.truth_chunks
        monkeypatch.setattr(
            stable_module, "truth_chunks", lambda prog, var_atoms, **kw: sweeps.append((prog, var_atoms)) or real_chunks(prog, var_atoms, **kw)
        )
        for n, want in ((12, 0), (16, 0), (17, 1), (18, 1)):
            f = _program(_negchain(n))
            sigma = atoms_of(f)
            assert len(enumerate_a_stable(f, sigma, sigma)) == 2
            assert len(inner) == want and not outer
            ((prog, order),) = sweeps  # the program with its loop formulas
            assert order == (self._by_reads(prog, range(n)) if n > _CHUNK_BITS else list(prog.atoms))
            inner.clear()
            sweeps.clear()
        # the 3-colouring of the 8-cycle, 24 atoms: one run over one bit
        # per sub-chunk of 2**8 assignments
        f = _program(_cycle_colouring(8))
        sigma = atoms_of(f)
        assert len(enumerate_a_stable(f, sigma, sigma)) == 258
        assert inner == [8] and not outer

    def test_a_chunk_of_one_model_is_read_without_its_binary_text(self, monkeypatch):
        # a chunk of one model is read by its bit length, any other from its
        # bytes (`set_bits`), and none from the text of `bin`
        texts, reads = [], []
        monkeypatch.setattr(stable_module, "bin", lambda c: texts.append(c) or bin(c), raising=False)
        real = stable_module.set_bits
        monkeypatch.setattr(stable_module, "set_bits", lambda c, offset: reads.append(c) or real(c, offset))
        # one model, all 18 atoms true, in the last of four chunks
        chain = compile_formula(_program(["p0"] + [f"p{i} -> p{i + 1}" for i in range(17)]))
        assert _candidate_models(chain, range(18), 0) == [(1 << 18) - 1]
        assert reads == []
        choices = compile_formula(_program([f"x{i} | not x{i}" for i in range(3)]))
        assert sorted(_candidate_models(choices, range(3), 0)) == list(range(8))
        assert reads == [0xFF] and texts == []
        # a chunk all of whose bits are models, in increasing order, and the
        # classical models of the negative chain, no two atoms in a row
        # false: the Fibonacci number F(20)
        assert _candidate_models(compile_formula(_program(_choices(12))), range(12), 0) == list(range(1 << 12))
        negchain = compile_formula(_program(_negchain(18)))
        assert len(set(_candidate_models(negchain, range(18), 0))) == 6765
        assert texts == []

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

    def oracle_lines(self, masks, atoms, as_json=False):
        want = sorted(tuple(x for b, x in enumerate(atoms) if m >> b & 1) for m in masks)
        if as_json:
            return [json.dumps({"atoms": [str(x) for x in t]}) for t in want]
        return ["{" + ",".join(map(str, t)) + "}" for t in want]

    def test_printed_first_sets_match_the_oracle(self):
        # a fresh set ordered by its own texts, more than _FEW models
        # each, so they are decoded through the tables
        rng = random.Random(53)
        for _ in range(150):
            atoms = sorted(rng.sample(self.NAMES, rng.randint(5, len(self.NAMES))))
            masks = rng.sample(range(1 << len(atoms)), min(rng.randint(17, 300), 1 << len(atoms)))
            for as_json in (False, True):
                got = ModelSet.from_masks(masks, atoms, frozenset(atoms))
                want = self.oracle_lines(masks, atoms, as_json)
                assert got.text(as_json) == "".join(line + "\n" for line in want)
                assert got.lines(as_json=as_json) == want
                # ordered afterwards by rank strings, into the same order
                assert got.lines(as_json=not as_json) == self.oracle_lines(masks, atoms, not as_json)
                assert [format_interpretation(m) for m in got] == self.oracle_lines(masks, atoms)

    def test_text_is_the_lines_with_newlines(self):
        rng = random.Random(59)
        for _ in range(100):
            atoms = sorted(rng.sample(self.NAMES, rng.randint(0, 8)))
            masks = rng.sample(range(1 << len(atoms)), min(rng.choice([0, 1, 5, 40]), 1 << len(atoms)))
            for as_json in (False, True):
                fresh = ModelSet.from_masks(masks, atoms, frozenset(atoms))
                ordered = ModelSet.from_masks(masks, atoms, frozenset(atoms))
                assert len(ordered.masks) == len(masks)  # ordered by rank strings first
                for ms in (fresh, ordered):
                    assert ms.text(as_json) == "".join(line + "\n" for line in ms.lines(as_json=as_json))

    def test_signature_error_names_the_canonically_first_model(self):
        # many models leave the signature; the error is raised by
        # from_masks itself and names the first of them in canonical order
        atoms = sorted(self.NAMES)
        outside = Atom("p", ("a",))
        sig = frozenset(atoms) - {outside}
        bit = 1 << atoms.index(outside)
        rng = random.Random(61)
        masks = rng.sample(range(1 << len(atoms)), 200)
        leaving = [m for m in masks if m & bit]
        first = self.oracle_lines(leaving, atoms)[0]
        with pytest.raises(SignatureError, match="^model " + re.escape(first) + " leaves the signature$"):
            ModelSet.from_masks(masks, atoms, sig)

    def test_printing_decodes_once_and_unprinted_sets_build_no_text(self, monkeypatch):
        lookups, formats = [], []
        real_lookup, real_formats = stable_module._lookup, stable_module._formats
        monkeypatch.setattr(stable_module, "_lookup", lambda *args: lookups.append(1) or real_lookup(*args))
        monkeypatch.setattr(stable_module, "_formats", lambda *args: formats.append(1) or real_formats(*args))
        atoms = sorted(Atom(f"c{k}") for k in range(12))
        masks = list(range(1 << 12))
        random.Random(67).shuffle(masks)
        printed = ModelSet.from_masks(masks, atoms, frozenset(atoms))
        assert lookups == [] and formats == []
        text = printed.text()
        assert lookups == [1] and formats == [1]  # the texts, which are also the sort keys
        assert text.startswith("{}\n{c0}\n{c0,c1}\n") and text.count("\n") == 4096
        assert printed.lines()[:2] == ["{}", "{c0}"] and lookups == [1]  # the kept text
        lookups.clear()
        formats.clear()
        left = ModelSet.from_masks(masks, atoms, frozenset(atoms))
        right = ModelSet.from_masks(masks[::-1], atoms, frozenset(atoms))
        assert left == right and left.over(atoms) == list(right.masks)
        assert left.intersection(right).sorted_atoms == left.sorted_atoms and {atoms[0]} in left
        assert formats == [] and left._text is None and right._text is None

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
