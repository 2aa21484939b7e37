import pytest

from astable import (
    AtomRef,
    Conj,
    Disj,
    Impl,
    atoms_of,
    conj,
    enumerate_a_stable,
    parse_formula,
    parse_interpretation,
    parse_program,
)
from astable.verifier import (
    GenConfig,
    SUITE_NAMES,
    gen_formula,
    prop3_exhaustive,
    run_suite,
)


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(max_atoms=0)
        with pytest.raises(ValueError):
            GenConfig(impl_prob=1.2)
        with pytest.raises(ValueError):
            GenConfig(impl_prob=0.7, neg_prob=0.7)


class TestGenFormula:
    def test_deterministic_for_fixed_seed(self):
        cfg = GenConfig(seed=12345)
        assert gen_formula(cfg) == gen_formula(cfg)

    def test_depth_zero_yields_leaf(self):
        from astable import BOT, TOP

        leaves = {gen_formula(GenConfig(seed=s, max_depth=0, max_atoms=3)) for s in range(200)}
        assert all(isinstance(f, AtomRef) or f in (TOP, BOT) for f in leaves)
        assert any(isinstance(f, AtomRef) for f in leaves)
        assert TOP in leaves and BOT in leaves

    def test_depth_one_keeps_children_at_leaves(self):
        for s in range(50):
            assert gen_formula(GenConfig(seed=s, max_depth=1, max_atoms=3)).rank <= 1

    def test_rank_respects_depth_bound(self):
        for s in range(100):
            cfg = GenConfig(seed=s, max_depth=4, max_atoms=5)
            assert gen_formula(cfg).rank <= 4

    def test_all_node_kinds_reachable(self):
        kinds = set()
        for s in range(300):
            f = gen_formula(GenConfig(seed=7000 + s, max_atoms=4, max_depth=3))
            stack = [f]
            while stack:
                g = stack.pop()
                kinds.add(type(g).__name__)
                if isinstance(g, (Conj, Disj)):
                    stack.extend(g.children)
                elif isinstance(g, Impl):
                    stack.extend((g.lhs, g.rhs))
        assert kinds >= {"AtomRef", "Conj", "Disj", "Impl"}

    def test_atom_coverage_across_samples(self):
        cfg = GenConfig(max_atoms=6)
        seen = set()
        for i in range(1000):
            seen |= atoms_of(gen_formula(cfg.replace(seed=cfg.seed + i)))
        assert len(seen) == 6


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("prop2", GenConfig())

    def test_unsound_limited_to_split_suites(self):
        with pytest.raises(ValueError, match="unsound"):
            run_suite("lemma1", GenConfig(), unsound=True)

    def test_reports_are_deterministic(self):
        cfg = GenConfig(iterations=40)
        a = run_suite("prop1", cfg)
        b = run_suite("prop1", cfg)
        assert a == b

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_green_at_default_seed(self, name):
        report = run_suite(name, GenConfig(iterations=40))
        assert report.fails == 0
        assert report.passes == 40

    def test_modular_falls_back_only_for_heads_spanning_blocks(self, monkeypatch):
        # the suite mutes the solver's logger, so its warnings are caught
        # where they are made
        from astable import splitting

        reasons = []
        monkeypatch.setattr(splitting.log, "warning", lambda fmt, *args: reasons.append(fmt % args))
        report = run_suite("stable_modular", GenConfig(iterations=200))
        assert report.fails == 0
        assert reasons
        for reason in reasons:
            assert reason.startswith("modular solve falling back to brute force: conjunct '")
            assert reason.endswith("spanning multiple dependency blocks")

    def test_unsound_split_lemma_finds_counterexample(self):
        report = run_suite("split_lemma", GenConfig(iterations=200), unsound=True)
        assert report.fails >= 1
        assert report.first_counterexample is not None

    def test_counterexample_replays(self):
        report = run_suite("split_lemma", GenConfig(iterations=200), unsound=True)
        fields = {}
        for line in report.first_counterexample.splitlines()[1:]:
            key, _, value = line.partition(": ")
            fields[key] = value
        f = parse_formula(fields["formula"])
        p1 = parse_interpretation(fields["part1"])
        p2 = parse_interpretation(fields["part2"])
        sigma = atoms_of(f) | p1 | p2
        joint = enumerate_a_stable(f, p1 | p2, sigma)
        split = enumerate_a_stable(f, p1, sigma).intersection(
            enumerate_a_stable(f, p2, sigma)
        )
        assert joint.as_set() != split.as_set()  # still a counterexample

    def test_report_lines_include_counterexample(self):
        report = run_suite("split_lemma", GenConfig(iterations=150), unsound=True)
        text = "\n".join(report.lines())
        assert "failed" in text
        assert "counterexample" in text


class TestProp3Exhaustive:
    def test_small_scale(self):
        cases, failures = prop3_exhaustive(2)
        # n=1: 2 graphs * 2 partitions; n=2: 16 graphs * 4 partitions
        assert cases == 2 * 2 + 16 * 4
        assert failures == 0


class TestStableDefinitionMutations:
    """Each mutation of the definition route, patched in here, fails the
    `stable_definition` suite: the suite sees the fixpoint, the lane
    layout and the clause recognition."""

    CFG = GenConfig(iterations=40)  # as test_every_suite_green_at_default_seed, which passes

    def test_dropping_one_fixpoint_round_fails(self, monkeypatch):
        from astable import stable

        def one_round_short(fired, size):
            # the derived lanes before the last round that derived anything
            fired = list(fired)
            derived, before = [0] * size, [0] * size
            while True:
                start = list(derived)
                for live, pos, head in fired:
                    new = live & ~derived[head]
                    for b in pos:
                        new &= derived[b]
                    derived[head] |= new
                if derived == start:
                    return before
                before = start

        monkeypatch.setattr(stable, "_least_fixpoint", one_round_short)
        assert run_suite("stable_definition", self.CFG).fails > 0

    def test_swapping_two_context_columns_fails(self, monkeypatch):
        from astable import stable

        real = stable._lanes

        def swapped(masks, n):
            # the first two columns that differ trade places
            cols = real(masks, n)
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if cols[i] != cols[j]), None)
            if pair:
                i, j = pair
                cols[i], cols[j] = cols[j], cols[i]
            return cols

        monkeypatch.setattr(stable, "_lanes", swapped)
        assert run_suite("stable_definition", self.CFG).fails > 0

    def test_accepting_a_disjunctive_head_fails(self, monkeypatch):
        from astable import stable

        real = stable._clause

        def first_disjunct(c, q):
            # `H -> y | w`, or the fact `y | w`, read as `H -> y` for the first y in q
            ante, head = (c.lhs, c.rhs) if isinstance(c, Impl) else (None, c)
            if isinstance(head, Disj):
                heads = [d for d in head.children if isinstance(d, AtomRef) and d.atom in q]
                if heads:
                    return real(heads[0] if ante is None else Impl(ante, heads[0]), q)
            return real(c, q)

        monkeypatch.setattr(stable, "_clause", first_disjunct)
        assert run_suite("stable_definition", self.CFG).fails > 0


class TestStableSupportMutations:
    """Each mutation of the support route, patched in here, fails the
    `stable_support` suite: the suite sees which clauses a support conjunct
    keeps, which parts it decides, and which program the parts left are
    checked against."""

    CFG = GenConfig(iterations=40)  # as test_every_suite_green_at_default_seed, which passes

    # r and t support each other only, so no model makes them true, and
    # `not not q` asks for q; the chain past x1 pads the program past one
    # run over every assignment
    PADDED = "r -> t. t -> r. r -> q. not not q. x1 | not x1. not x1 -> x2. not x2 -> x3. not x3 -> x4."

    def test_keeping_self_supporting_clauses_fails(self, monkeypatch):
        from astable import stable

        real = stable._clause

        def kept(c, q):
            # `H & q -> q` read as `H -> q` for a part of one atom
            clause = real(c, q)
            return (clause[0], frozenset(), clause[2]) if clause is not None and len(q) == 1 else clause

        monkeypatch.setattr(stable, "_clause", kept)
        assert run_suite("stable_support", self.CFG).fails > 0

    def test_deciding_a_two_atom_cycle_by_its_support_fails(self, monkeypatch):
        from astable import stable

        real = stable.components

        def split(g):
            # each two-atom component as two parts of one atom, which
            # then count as definitions decided by their support conjuncts
            comps, _ = real(g)
            out = [piece for c in comps for piece in ([frozenset((x,)) for x in c] if len(c) == 2 else [c])]
            return out, {x: k for k, c in enumerate(out) for x in c}

        monkeypatch.setattr(stable, "components", split)
        assert run_suite("stable_support", self.CFG).fails > 0

    def test_checking_the_parts_left_against_the_swept_program_fails(self, monkeypatch):
        from astable import splitting, stable

        real = stable._stable_models

        def swept_only(prog, var, here, parts, swept=None):
            return real(swept or prog, var, here, parts, swept)

        f = conj(parse_program(self.PADDED))
        assert len(atoms_of(f)) > stable._NARROW
        assert len(enumerate_a_stable(f, atoms_of(f))) == 0
        monkeypatch.setattr(stable, "_stable_models", swept_only)
        monkeypatch.setattr(splitting, "_stable_models", swept_only)
        assert len(enumerate_a_stable(f, atoms_of(f))) == 2
        assert run_suite("stable_support", self.CFG).fails > 0


class TestSyntaxRoundtripMutations:
    """Each fault of the parser, patched in here, fails the
    `syntax_roundtrip` suite: the suite sees the grammar, the positions of
    errors and the stray-character check."""

    CFG = GenConfig(iterations=40)  # as test_every_suite_green_at_default_seed, which passes

    def test_swapping_the_binding_of_and_and_or_fails(self, monkeypatch):
        from astable import syntax

        monkeypatch.setattr(syntax, "_BINDS", {"->": 0, "|": 2, "&": 1})
        assert run_suite("syntax_roundtrip", self.CFG).fails > 0

    def test_a_column_one_too_far_fails(self, monkeypatch):
        from astable import syntax

        real = syntax._line_col
        monkeypatch.setattr(syntax, "_line_col", lambda text, at: (real(text, at)[0], real(text, at)[1] + 1))
        assert run_suite("syntax_roundtrip", self.CFG).fails > 0

    def test_locating_the_next_token_fails(self, monkeypatch):
        from astable import syntax

        real = syntax._locate
        monkeypatch.setattr(syntax, "_locate", lambda text, index: real(text, index + 1))
        assert run_suite("syntax_roundtrip", self.CFG).fails > 0

    def test_skipping_stray_characters_fails(self, monkeypatch):
        from astable import syntax

        monkeypatch.setattr(syntax, "_stray", lambda text: None)
        assert run_suite("syntax_roundtrip", self.CFG).fails > 0
