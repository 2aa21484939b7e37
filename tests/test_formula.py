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
    format_formula,
    iff,
    impl,
    neg,
    parse_program,
    reduct,
    satisfies,
)
from astable.formula import (
    Formula,
    Program,
    _key,
    _walk,
    compile_extensible,
    compile_formula,
    live_prefixes,
    read_rule,
    truth_chunks,
)
import astable.formula as formula_module
from astable.verifier import GenConfig, _gen, _gen_program, gen_formula

from util import guard_program, occurrence_sets

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


# satisfies, reduct and _finish as they were written before the walkers
# dispatched on exact type and `_finish` kept its last readers in a list:
# the rewritten ones must agree with them exactly


def satisfies_before(interp, f):
    if isinstance(f, AtomRef):
        return f.atom in interp
    if isinstance(f, Conj):
        return all(satisfies_before(interp, c) for c in f.children)
    if isinstance(f, Disj):
        return any(satisfies_before(interp, c) for c in f.children)
    assert isinstance(f, Impl)
    return not satisfies_before(interp, f.lhs) or satisfies_before(interp, f.rhs)


def reduct_before(f, interp):
    if isinstance(f, AtomRef):
        return f if f.atom in interp else BOT
    if isinstance(f, Conj):
        return Conj(tuple(reduct_before(c, interp) for c in f.children))
    if isinstance(f, Disj):
        return Disj(tuple(reduct_before(c, interp) for c in f.children))
    assert isinstance(f, Impl)
    if not satisfies_before(interp, f):
        return BOT
    return Impl(reduct_before(f.lhs, interp), reduct_before(f.rhs, interp))


def finish_before(met, ops, root):
    atoms = tuple(sorted(met))
    base = len(atoms) + 2
    rank = dict(zip(atoms, range(2, base)))
    last = {}
    for n, (_, left, right) in enumerate(ops):
        last[left] = last[right] = n
    last[root] = len(ops)
    fix = [0] * len(ops) + [*map(rank.__getitem__, reversed(met)), 1, 0]
    free = []
    out_ops = []
    for n, (kind, left, right) in enumerate(ops):
        if last[left] == n and left >= 0:
            free.append(fix[left])
        if last[right] == n and right >= 0 and right != left:
            free.append(fix[right])
        out = fix[n] = free.pop() if free else base + n
        out_ops.append((kind, fix[left], fix[right], out))
    return Program(atoms, tuple(out_ops), fix[root])


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
        p1, p2 = atom("p"), atom("p")  # of equal children the last given is kept
        assert conj([p1, p2]).children[0] is p2 and disj([p2, Q, p1]).children[0] is p1

    def test_deep_chain_rank_and_order(self):
        f = Q
        for _ in range(5000):
            f = impl(P, f)
        assert f.rank == 5000
        assert conj([f, P]).children == (P, f)

    def test_each_node_holds_the_oracle_key(self):
        for f in self.random_formulas(34):
            assert f._ok == sort_key_oracle(f)

    @staticmethod
    def chain(bottom, depth=3000):
        """p -> (p -> ... (p -> bottom)), each p a fresh node."""
        f = bottom
        for _ in range(depth):
            f = impl(atom("p"), f)
        return f

    def test_deep_keys_that_agree_order_and_compare_as_the_string_keys(self):
        low, high = self.chain(atom("q")), self.chain(atom("r"))  # differ only at the bottom
        twin, other = self.chain(atom("q")), self.chain(atom("q"))  # equal, as other objects
        assert _key(low) < _key(high)
        assert low != high and not low == high
        assert twin == other and twin == low and not twin != other
        for make in (conj, disj):
            assert make([high, low]).children == (low, high)
            kept = make([twin, other]).children
            assert len(kept) == 1 and kept[0] is other  # the last of equal children
            node = make([high, twin, P, low, other])
            assert node.children == (P, other, high) and node.children[1] is other
            assert [_key(c) for c in node.children] == sorted({_key(c) for c in (high, twin, P, low, other)})
            assert node == make([low, high, P])

    def test_parsing_the_deep_nest_spells_no_string_key(self, monkeypatch):
        text = "p & q | r & s"
        for _ in range(4999):
            text = f"p & q | r & ({text})"
        calls = []

        def spy(f):
            calls.append(f)
            return _key(f)

        monkeypatch.setattr(formula_module, "_key", spy)
        program = parse_program(text + ".")
        assert len(calls) == 0  # a count, not a timing: ordering compares node keys
        assert format_formula(program[0]) == text


class TestRewrittenWalkersMatchTheirPredecessors:
    def test_truth_reduct_and_program_on_random_conjunctions(self):
        rng = random.Random(35)
        pool = [Atom(c) for c in "abcde"]
        for seed in range(3000):
            f = conj([gen_formula(GenConfig(seed=seed, max_atoms=5, max_depth=3)),
                      gen_formula(GenConfig(seed=seed + 3000, max_atoms=5, max_depth=2))])
            interp = frozenset(a for a in pool if rng.random() < 0.5)
            assert satisfies(interp, f) is satisfies_before(interp, f)
            got, want = reduct(f, interp), reduct_before(f, interp)
            assert type(got) is type(want) and _key(got) == _key(want) and got == want
            for g in (f, got):
                met, ops = {}, []
                root = _walk(g, met, ops, {}, {})
                new, old = formula_module._finish(met, ops, root), finish_before(met, ops, root)
                assert (new.atoms, new.ops, new.root) == (old.atoms, old.ops, old.root)


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
            prog, conjoin = compile_extensible((f,))
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
    """`truth_chunks` skips the chunks and sub-chunks that one Kleene run
    rules out.  With `chunk_bits` at least the number of swept atoms there
    are no high atoms and nothing is skipped: the unpruned reference."""

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
            assert len(pruned) == 1 << len(var) - chunk_bits
            assert pruned == [whole >> k * width & ((1 << width) - 1) for k in range(len(pruned))]
            live = live_prefixes(compile_formula(f), var, true, chunk_bits)
            skipped += sum(not live >> k & 1 for k in range(len(pruned)))
        assert skipped > 500

    def test_skipped_chunks_run_nothing(self, monkeypatch):
        # h is false in every model: the chunks with h true are never run.
        # A chunk of 4 assignments, those of p and q, is under the least
        # sub-chunk of 8, so each of the 4 live chunks runs whole
        f = conj([neg(atom("h")), disj([P, neg(P)]), impl(Q, R), impl(conj([atom("h"), S]), P)])
        var = [Atom("p"), Atom("q"), Atom("r"), Atom("s"), Atom("h")]
        runs = []
        real = Program.run
        monkeypatch.setattr(Program, "run", lambda self, values, ones, keep: runs.append(ones.bit_length()) or real(self, values, ones, keep))
        assert list(truth_chunks(f, var, chunk_bits=2)) == [0b11, 0b1111, 0b11, 0b1111, 0, 0, 0, 0]
        assert runs == [4, 4, 4, 4]

    def test_partly_live_chunks_run_packed(self, monkeypatch):
        # A sub-chunk holds the 8 values of p, q and r, a chunk those and
        # u.  With h true nothing is live; with w true both halves of a
        # chunk are and it runs whole, with w false only its half with u
        # false is, and the two such halves run packed together: 48
        # assignments in 3 runs
        h, u, w, v = (atom(x) for x in "huwv")
        f = conj([neg(h), impl(u, w), impl(Q, R)])
        var = [Atom(x) for x in "pqruwvh"]
        runs = []
        real = Program.run
        monkeypatch.setattr(Program, "run", lambda self, values, ones, keep: runs.append(ones.bit_length()) or real(self, values, ones, keep))
        half = 0b11110011  # q -> r over p, q, r
        assert list(truth_chunks(f, var, chunk_bits=4)) == [half, half * 0x101] * 2 + [0] * 4
        assert runs == [16, 16, 16]

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


def _colouring(n: int) -> Formula:
    """3-colouring of the cycle C_n: a vertex takes a colour when it has
    neither other one, and adjacent vertices differ."""
    col = [[f"k{v}_{c}" for c in range(3)] for v in range(n)]
    rules = []
    for v in range(n):
        for c in range(3):
            o1, o2 = (col[v][d] for d in range(3) if d != c)
            rules.append(f"not {o1} & not {o2} -> {col[v][c]}")
        rules += [f"not ({col[v][c]} & {col[(v + 1) % n][c]})" for c in range(3)]
    return conj(parse_program("".join(r + ".\n" for r in rules)))


class TestSubChunks:
    """A chunk only some of whose sub-chunks are live runs just those,
    packed with the live sub-chunks of the chunks after it."""

    @staticmethod
    def _partly_live(monkeypatch) -> list[bool]:
        """Whether each chunk that `_packed_chunks` yields from now on
        holds a model."""
        hits = []
        real = formula_module._packed_chunks

        def spy(*args):
            for chunk in real(*args):
                hits.append(chunk != 0)
                yield chunk

        monkeypatch.setattr(formula_module, "_packed_chunks", spy)
        return hits

    def test_wide_random_programs_match_the_unpruned_sweep(self, monkeypatch):
        rng = random.Random(2525)
        hits = self._partly_live(monkeypatch)
        at_default = 0  # partly live chunks at the default width
        for _ in range(20):
            pool = [Atom(f"x{i}") for i in range(rng.randint(17, 22))]
            f = conj(_gen_program(rng, pool, rng.randint(10, 40)))
            var = rng.sample(pool, rng.randint(17, len(pool)))
            true = frozenset(x for x in pool if rng.random() < 0.5)  # may hold swept atoms too
            (whole,) = truth_chunks(f, var, true, len(var))
            for chunk_bits in (16, rng.randint(1, 12)):
                before = len(hits)
                pruned = list(truth_chunks(f, var, true, chunk_bits))
                width = 1 << chunk_bits
                assert len(pruned) == 1 << len(var) - chunk_bits
                assert pruned == [whole >> k * width & ((1 << width) - 1) for k in range(len(pruned))]
                if chunk_bits == 16:
                    at_default += len(hits) - before
        assert at_default > 30 and len(hits) > 500 and sum(hits) > 400

    def test_a_first_chunk_run_alone_reads_every_bit_of_its_index(self, monkeypatch):
        # 17 atoms: a sub-chunk index has 9 bits, 8 for x08..x15 and one
        # for x16, though the indexes of the first chunk, the only live
        # one, all fit in 8; its 3 of 4 sub-chunks with x08 -> x09 run
        # alone, x16 false on all of them
        hits = self._partly_live(monkeypatch)
        xs = [atom(f"x{i:02d}") for i in range(17)]
        f = conj([neg(xs[16]), impl(xs[8], xs[9])])
        var = [x.atom for x in xs]
        (whole,) = truth_chunks(f, var, chunk_bits=17)
        assert list(truth_chunks(f, var)) == [whole & (1 << (1 << 16)) - 1, 0]
        assert whole.bit_count() == 3 << 14 and hits == [True]

    def test_colouring_runs_far_fewer_assignments_than_its_live_chunks(self, monkeypatch):
        prog = compile_formula(_colouring(8))
        assert len(prog.atoms) == 24
        widths = []
        real = Program.run
        monkeypatch.setattr(Program, "run", lambda self, values, ones, keep: widths.append(ones.bit_length()) or real(self, values, ones, keep))
        models = sum(chunk.bit_count() for chunk in truth_chunks(prog, prog.atoms))
        # closed walks of 8 steps between the nonempty colour sets of a
        # vertex, a step joining disjoint ones
        step = [[int(not x & y) for y in range(1, 8)] for x in range(1, 8)]
        walks = step
        for _ in range(7):
            walks = [[sum(a * b for a, b in zip(row, col)) for col in zip(*step)] for row in walks]
        assert models == sum(walks[k][k] for k in range(7)) == 1248
        chunk_level = live_prefixes(prog, prog.atoms, frozenset(), 16).bit_count() << 16
        assert sum(widths) * 16 < chunk_level


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


def _opened(f):
    """The conjuncts of f, every nested conjunction opened, in order."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is Conj:
            stack.extend(reversed(g.children))
        else:
            out.append(g)
    return out


def _clause_oracle(c, q):
    """A copy of the clause reading that walked each body with `atoms_of`:
    c as a clause `H & C -> h` of a definition for q, (H, C, h), else the
    reason it is none."""
    if type(c) is AtomRef and c.atom in q:
        return TOP, frozenset(), c.atom
    if type(c) is not Impl or type(c.rhs) is not AtomRef or c.rhs.atom not in q:
        return "consequent is not a defined atom"
    ante = c.lhs
    if type(ante) is Conj:
        pos_q = frozenset(d.atom for d in ante.children if type(d) is AtomRef and d.atom in q)
        rest = [d for d in ante.children if not (type(d) is AtomRef and d.atom in q)]
        body = (rest[0] if len(rest) == 1 else Conj(tuple(rest)) if rest else TOP) if pos_q else ante
    elif type(ante) is AtomRef and ante.atom in q:
        body, pos_q = TOP, frozenset((ante.atom,))
    else:
        body, pos_q = ante, frozenset()
    mentioned = atoms_of(body)
    if not mentioned.isdisjoint(q):
        return f"defined atom {min(mentioned & q)} occurs in a clause body"
    return body, pos_q, c.rhs.atom


def _edges_oracle(f, a):
    """The dependency edges of f over a as `depgraph.rules` defines them:
    the heads of each strictly positive implication times the positive
    nonnegated atoms of its antecedent, read off the occurrence oracle."""
    from astable.depgraph import rules

    return {(h, b) for r in rules(f) for h in occurrence_sets(r.rhs)[0] & a for b in occurrence_sets(r.lhs)[1] & a}


class TestRuleRecord:
    """A conjunct's record, from its one walk, against oracles that read
    each fact on their own: `atoms_of`, the occurrence oracle of
    `tests/util.py`, the edges `depgraph.rules` defines and a copy of the
    clause reading; and the program of conjuncts compiled one by one
    against `compile_formula`."""

    @staticmethod
    def _cases():
        rng = random.Random(3434)
        pool = [Atom(x) for x in "abcde"]
        for seed in range(1500):
            cfg = GenConfig(seed=7000 + seed, max_atoms=5, max_depth=4)
            if seed % 3 == 0:
                yield conj(_gen_program(rng, pool, rng.randint(1, 6)) + [gen_formula(cfg)])
            else:
                yield gen_formula(cfg)
        # one subformula object as a head and inside an antecedent, both
        # orders: a walk that memoized it would miss its second reading
        y = disj([P, neg(Q)])
        yield conj([y, impl(y, R)])
        yield conj([impl(y, R), y])
        x = conj([P, Q])
        yield impl(x, x)
        yield impl(conj([impl(x, R), S]), disj([x, R]))

    def test_fields_match_the_walkers(self):
        from astable.depgraph import dep_graph, rule_graph
        from astable.stable import _clause

        rng = random.Random(55)
        for f in self._cases():
            rule = read_rule(f)
            everything = atoms_of(f)
            assert rule.formula is f
            assert rule.atoms == everything
            assert rule.heads == occurrence_sets(f)[0]
            for _ in range(2):
                a = frozenset(x for x in everything if rng.random() < 0.7)
                assert rule_graph([rule], a).edges == _edges_oracle(f, a)
                assert rule_graph([rule], a) == dep_graph(f, a)
            assert [p[0] for p in rule.pieces] == _opened(f)
            for piece in rule.pieces:
                assert piece[1] == occurrence_sets(piece[0])[0]
                for _ in range(3):
                    q = frozenset(x for x in everything if rng.random() < 0.5)
                    assert _clause(piece, q) == _clause_oracle(piece[0], q)

    def test_programs_match_compile_formula_op_for_op(self):
        from astable.stable import _node

        def same(p, g):
            return (p.atoms, p.ops, p.root) == (g.atoms, g.ops, g.root)

        for f in self._cases():
            children = list(f.children) if type(f) is Conj and f.children else [f]
            more = [impl(children[-1], R), neg(children[0])]
            prog, conjoin = compile_extensible(children)
            assert same(prog, compile_formula(f)) and same(compile_extensible((f,))[0], prog)
            assert same(conjoin(more), compile_formula(_node(Conj, children + more)))
