import hashlib
import inspect
import itertools
import textwrap
from collections import Counter

import pytest

from astable import (
    AtomRef,
    Conj,
    Disj,
    Impl,
    atoms_of,
    conj,
    enumerate_a_stable,
    format_formula,
    parse_formula,
    parse_interpretation,
    parse_program,
)
from astable.formula import Program
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
    def test_every_suite_green_at_default_seed(self, name, request):
        if name in NAMED_FOR:
            # a solver suite: the route table runs it at this seed with 100
            # draws, and `run_suite` seeds each draw by its index, so its
            # first 40 draws are these; read its report there, not again
            report = request.getfixturevalue("route_table")[0][name][0]
            assert report.fails == 0
            assert report.passes == 100
            return
        report = run_suite(name, GenConfig(iterations=40))
        assert report.fails == 0
        assert report.passes == 40

    def test_modular_falls_back_only_for_heads_spanning_blocks(self, monkeypatch):
        # the suite takes the enumerator's answer where modular_solve
        # refuses, so each refusal is caught on its way out
        from astable import splitting, verifier

        reasons = []

        def spy(*args, **kwargs):
            try:
                return splitting.modular_solve(*args, **kwargs)
            except splitting.SplitPlanError as exc:
                reasons.append(str(exc))
                raise

        monkeypatch.setattr(verifier, "modular_solve", spy)
        report = run_suite("stable_modular", GenConfig(iterations=200))
        assert report.fails == 0
        assert reasons
        for reason in reasons:
            assert reason.startswith("conjunct '")
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


def _rendered_draws(name: str, draws: int) -> list[str]:
    """The report text of each of the first `draws` draws of the named
    suite, seeded as `run_suite` seeds it and rendered by `run_suite` as a
    failure, or `skipped` for a draw that misses its precondition."""
    from astable import verifier

    salt, suite = verifier._SUITES[name]
    texts = []
    for k in range(draws):
        calls = itertools.count()

        def draw_k(rng, cfg, unsound, k=k, calls=calls):
            if next(calls) != k:
                return None
            result = suite(rng, cfg, unsound)
            return result and (False, result[1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verifier._SUITES, name, (salt, draw_k))
            texts.append(run_suite(name, GenConfig(iterations=1)).first_counterexample or "skipped")
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestDrawPins:
    """The draws of every suite, and the unsound counterexamples of the
    splitting suites, pinned by the SHA-256 of their report text: a change
    to a generator, to the order of its random calls or to the rendering of
    a case shows here."""

    DRAWS = {
        "definitions_theorem": "f55bb9e712ff027bd72c4e85c3764d1a2efee449867b97a5009306391cb1e815",
        "lemma1": "89e855303cadb82bd2ea0d20f150a2f317b39ba97a9e974c776dcec4d0a98d4f",
        "lemma2": "854204f94907e389637679eb4c866177d4b15ca569bc0a1eff1b61feb44ee396",
        "lemma3": "83e2fb0f560f15699a74fcf185decc8149aa7cd7d0690c190daac24e350fb38b",
        "lemma4": "1310ce438619fa89be593519c9997f598f8e824b5df4854e89f83f4779c859f0",
        "lemma5": "ded56a0a98fb6eb9882a1a7307f37e155aded887e9fb6773156e96e4792cb504",
        "lemma6": "56fd468938ea447129cb34b704f4348ed48cfa492c11f857d76c580405ad3093",
        "lemma7": "24aece1e28007258d1eebe330d2a8ddb69ebb822d1101ad59af5b9dcec1c9fbb",
        "lemma8": "57f9017aff42427feddcc3b86987e7aa033a997cf5f929109fcb1c333fb29e48",
        "lemma9": "9b6ac05f15d87a483864ac099bdd1f1beb50693c848832ed87ba3e423bf6ae21",
        "prop1": "c8576edc5976a300aecfdaa077a840b326f85b975ae68122ada2767b8464ef37",
        "prop3": "607d4f452a4a44c73af44dad50d525e3cd681b4b729a18c36611755f95c0d4e8",
        "prop4_grounding": "954fb82c2829eae41c8ac1cafb8812c345b16ad6defa899707ddf80d40d0d9ea",
        "split_lemma": "9cd6911e8351bb5de8de1a826ad0be3618954702b5a8ee5872a540b4644d500c",
        "split_theorem": "4eb5e053dbe48d3f0d41a49a5320a1ceb3f376a0e77dc43a248497d0e0e5f663",
        "stable_definition": "92816abb1f7d6326ee7f74cde178d931c1dfb0269d36caf67932ec99a8941cf6",
        "stable_kernel": "897022b94c45c57c771c30f0d0f657c06bd1da97a4c00ab3a0a0c04d7e47d4c0",
        "stable_loops": "3baa75df6e97fd96194b0e2b21aeb8aee3a7a2aec0e4a4836f6ed055e9bddd2a",
        "stable_modular": "51363e5088266ab85d4e28ad402afdca64a607916ac5aee4e88abfd4bffd39b7",
        "stable_projection": "eb88baaf83d4b19a55c2ca9b9efcd99c65144cd6f75e18c0e94f13dabf250388",
        "stable_scc": "6d3a6bc2102688bb21c861fc3c682c97de782679155e3d0b2d99cbda8e4ec5cb",
        "sweep_kleene": "d440acefbc0e13084abfe596dc008d650ee362e3c133308b2c9621da4511fe9c",
        "syntax_roundtrip": "8a7877ae7f03b4ea50a553a3e542a18a6318f3e13800a007715865bfa76a3ad6",
    }

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_first_draws_render_as_pinned(self, name):
        assert _digest("\n".join(_rendered_draws(name, 30))) == self.DRAWS[name]

    def test_pins_cover_every_suite(self):
        assert sorted(self.DRAWS) == list(SUITE_NAMES)

    @pytest.mark.parametrize("name, case, digest", [
        ("split_lemma", 297, "d27214315d8b724972957d51b493dfb76c6e0450a400df487867be539aecbd70"),
        ("split_theorem", 2, "89ef73c73a101b0fb9e57ebddfdd8765799763f63ddfd3cf3bac5dde2f105924"),
    ])
    def test_unsound_counterexample_renders_as_pinned(self, name, case, digest):
        text = run_suite(name, GenConfig(iterations=200), unsound=True).first_counterexample
        assert text.startswith(f"case {case}\nsuite: {name}\n")
        assert _digest(text) == digest


class TestRingPrograms:
    """The switched rings of `_ring_program` never merge: no positive path
    leads from a ring into a later one, so no strongly connected component
    of a draw is wider than one ring of 8 with its context of at most 3
    atoms.  A merged component of 22 atoms would leave the reference of
    `stable_projection` a call over 2**22 subsets per classical model."""

    @pytest.mark.parametrize("suite", ["stable_definition", "stable_modular", "stable_projection"])
    @pytest.mark.parametrize("seed", [1729, 1, 7, 2016])
    def test_no_component_is_wider_than_one_ring_and_its_context(self, monkeypatch, suite, seed):
        from astable import verifier
        from astable.depgraph import dep_graph, sccs

        widths = []

        def record(conjuncts, a, pool, reference=None):
            # each draw recorded, none solved
            widths.append(max(map(len, sccs(dep_graph(conj(conjuncts), a))), default=0))
            return True, dict

        monkeypatch.setattr(verifier, "_both_solvers", record)
        run_suite(suite, GenConfig(seed=seed, iterations=300))
        assert len(widths) == 300
        assert [w for w in widths if w > 11] == []


# The routes each solver suite is named for.  The routes are those the
# solvers choose between: how `modular_solve` takes a unit (a definition by
# the fixpoint of its clauses, every body read as literals or some compiled,
# any other unit by `_unit_models`), how `_parts` decides a part of A (by its
# loop formulas, as a definition or by the fused check), which definition
# parts `_read_order` derives and which it compares, and the sweeps that
# run.
NAMED_FOR = {
    "stable_definition": {"definition part", "definition unit", "literal definition unit", "derived part", "live lanes"},
    "stable_kernel": {"fused check"},
    "stable_loops": {"one-atom loop part", "multi-atom loop part", "wide part", "candidate sweep"},
    "stable_modular": {"narrow unit", "definition unit", "literal definition unit", "wide unit", "packed run"},
    "stable_projection": {"two derived parts", "compared parts", "derived and compared parts", "live lanes under a context"},
    "stable_scc": {"multi-atom loop part", "wide part", "fused check"},
    "sweep_kleene": {"partly live chunk", "two partly live chunks"},
}


@pytest.fixture(scope="module")
def route_table():
    """Per solver suite, its report at the default seed and 100 draws and
    the routes its draws reach, counted by spies on the choice points; and
    the formulas of the units whose step does not take the route that the
    one `_clauses` result the cap of `modular_solve` read gives."""
    from astable import formula, splitting, stable

    reached = Counter()
    misread = []
    # what `_clauses` read off each unit's rules, by the id of the rules
    # and by the id of a result that is no None, each held so that no id
    # is reused
    by_rules, by_found = {}, {}

    def clauses(rules, q, found):
        # the cap exempts a unit whose every piece is a clause of a
        # definition, at any width, and its step solves just those by the
        # fixpoint of their clauses
        by_rules[id(rules)] = rules, found
        if found is not None:
            by_found[id(found)] = rules, found
        return []

    def definition(found, position, clauses):
        if id(found) not in by_found:
            misread.append(f"clauses no `_clauses` call gave: {found}")
        return ["definition unit" if any(type(body) is Program for body, _, _, _ in clauses) else "literal definition unit"]

    def unit_models(rules, unit, context, contexts, found):
        if by_rules.get(id(rules), (rules, ()))[1] is not None:
            misread.append(format_formula(conj([r.formula for r in rules])))
        return ["narrow unit" if len(unit) <= stable._NARROW else "wide unit"]

    def read_order(parts, order):
        derived, compared = order
        routes = ["derived part"] * bool(derived) + ["two derived parts"] * (len(derived) > 1)
        if compared:
            routes.append("derived and compared parts" if derived else "compared parts")
        return routes

    spies = {
        (splitting, "_clauses"): clauses,
        (splitting, "_definition"): definition,
        (splitting, "_unit_models"): unit_models,
        (stable, "_parts"): lambda rules, atoms, a, found: ["wide part" if c is None else "definition part" for _, c in found[0]],
        (stable, "_loop_formulas"): lambda comp, *_: ["one-atom loop part" if len(comp) == 1 else "multi-atom loop part"],
        (stable, "_read_order"): read_order,
        (stable, "_verdicts"): lambda *_: ["packed run"],
        (stable, "_candidate_models"): lambda *_: ["candidate sweep"],
        (stable, "_live_batches"): lambda prog, unknown, swept, true, _: ["live lanes"] + ["live lanes under a context"] * bool(true),
        (stable, "_ht_minimal"): lambda *_: ["fused check"],
    }

    def spy(real, routes):
        def call(*args):
            found = real(*args)
            reached.update(routes(*args, found))
            return found

        return call

    real_packed = formula._packed_chunks

    def packed(*args):  # a generator: count the chunks it yields
        for k, chunk in enumerate(real_packed(*args)):
            reached["two partly live chunks" if k else "partly live chunk"] += 1
            yield chunk

    table = {}
    with pytest.MonkeyPatch.context() as mp:
        for (module, name), routes in spies.items():
            mp.setattr(module, name, spy(getattr(module, name), routes))
        mp.setattr(formula, "_packed_chunks", packed)
        for suite in NAMED_FOR:
            reached.clear()
            table[suite] = run_suite(suite, GenConfig(iterations=100)), Counter(reached)
    return table, misread


class TestRouteCoverage:
    """Every route of the solvers is reached by a solver suite at its
    default seed, and each suite reaches the routes it is named for, so a
    suite whose draws drift off its route fails here rather than passing
    while it checks nothing."""

    def test_every_solver_suite_is_named_for_its_routes(self):
        assert sorted(NAMED_FOR) == [s for s in SUITE_NAMES if s.startswith("stable_") or s == "sweep_kleene"]

    def test_every_route_is_reached(self, route_table):
        # and each route a spy counts is one some suite is named for
        table, _ = route_table
        for suite, (report, _) in table.items():
            assert report.fails == 0 and report.passes == 100, suite
        assert set().union(*(routes for _, routes in table.values())) == set().union(*NAMED_FOR.values())

    @pytest.mark.parametrize("suite", sorted(NAMED_FOR))
    def test_suite_reaches_its_routes(self, route_table, suite):
        table, _ = route_table
        missing = NAMED_FOR[suite] - table[suite][1].keys()
        assert not missing, f"{suite} reaches no {', '.join(sorted(missing))}"

    def test_modular_draws_reach_compiled_definition_bodies_often(self, route_table):
        # a route reached by a handful of units would drop out on a small
        # drift of the draws
        table, _ = route_table
        assert table["stable_modular"][1]["definition unit"] >= 10

    def test_the_cap_reads_each_wide_unit_as_its_route_does(self, route_table):
        # every unit, narrow or wide: the cap skips the narrow ones, but its
        # step reads the same `_clauses` result, so it takes the fixpoint
        # exactly when that result is no None
        assert not route_table[1]


class TestStableDefinitionMutations:
    """Each mutation of the definition route, patched in here, fails the
    `stable_definition` suite: the suite sees the fixpoint, the lane
    layout and the clause recognition.  The order in which a run of
    definition units is filled shows where runs of several units are
    drawn, on `stable_modular` and `stable_projection`."""

    CFG = GenConfig(iterations=40)  # the first 40 of the route table's 100 draws, which pass

    def test_dropping_one_fixpoint_round_fails(self, monkeypatch):
        from astable import stable

        def one_round_short(fired, derived):
            # the derived lanes before the last round that derived anything
            fired = list(fired)
            heads = {head for *_, head in fired}
            before = {h: derived[h] for h in heads}
            while True:
                start = {h: derived[h] for h in heads}
                for live, pos, head in fired:
                    new = live & ~derived[head]
                    for b in pos:
                        new &= derived[b]
                    derived[head] |= new
                if all(derived[h] == start[h] for h in heads):
                    for h in heads:
                        derived[h] = before[h]
                    return
                before = start

        monkeypatch.setattr(stable, "_least_fixpoint", one_round_short)
        assert run_suite("stable_definition", self.CFG).fails > 0

    def test_swapping_two_context_columns_fails(self, monkeypatch):
        from astable import stable

        real = stable._lanes

        def swapped(masks, bits):
            # the first two columns that differ trade places
            cols = real(masks, bits)
            n = len(cols)
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if cols[i] != cols[j]), None)
            if pair:
                i, j = pair
                cols[i], cols[j] = cols[j], cols[i]
            return cols

        monkeypatch.setattr(stable, "_lanes", swapped)
        assert run_suite("stable_definition", self.CFG).fails > 0

    def test_filling_a_run_in_reverse_fails(self, monkeypatch):
        from astable import splitting

        # the units of a run filled last first, so a later unit reads an
        # earlier one before that one is complete
        reversed_run = _mutant(splitting, "_step", "_batches(contexts), derived, ", "_batches(contexts), derived[::-1], ")
        monkeypatch.setattr(splitting, "_step", reversed_run)
        # few draws of either suite hold a run in which a later unit reads
        # an earlier one, so the mutant must fail both
        assert run_suite("stable_modular", GenConfig(iterations=100)).fails > 0
        assert run_suite("stable_projection", GenConfig(iterations=100)).fails > 0

    def test_accepting_a_disjunctive_head_fails(self, monkeypatch):
        from astable import stable
        from astable.formula import read_rules

        real = stable._clause

        def first_disjunct(piece, q):
            # `H -> y | w`, or the fact `y | w`, read as `H -> y` for the first y in q
            c = piece[0]
            ante, head = (c.lhs, c.rhs) if isinstance(c, Impl) else (None, c)
            if isinstance(head, Disj):
                heads = [d for d in head.children if isinstance(d, AtomRef) and d.atom in q]
                if heads:
                    return real(read_rules(heads[0] if ante is None else Impl(ante, heads[0]))[0], q)
            return real(piece, q)

        monkeypatch.setattr(stable, "_clause", first_disjunct)
        assert run_suite("stable_definition", self.CFG).fails > 0


class TestLiteralDefinitionMutations:
    """Each mutation of the literal reading of definition bodies, which
    decides every definition unit and part whose bodies are made of
    literals, patched in here, fails `stable_modular` or
    `stable_definition`."""

    CFG = GenConfig(iterations=100)  # the route table's 100 draws, which pass

    @staticmethod
    def _is_neg_atom(d) -> bool:
        return isinstance(d, Impl) and isinstance(d.lhs, AtomRef) and d.rhs == Disj(())

    def test_dropping_a_negated_body_atom_fails(self, monkeypatch):
        from astable import stable

        # `not e` read as no literal at all, so the body holds whatever e is
        dropped = _mutant(stable, "_literals", "negated.append(position[d.lhs.atom])", "pass")
        monkeypatch.setattr(stable, "_literals", dropped)
        assert run_suite("stable_definition", self.CFG).fails > 0

    def test_accepting_not_u_with_u_in_the_unit_fails(self, monkeypatch):
        from astable import stable
        from astable.formula import Rule

        real = stable._clause

        def negated_unit_atoms_allowed(rule, q):
            # the atom u of a body conjunct `not u` no longer counts as a
            # clause-body atom, so `not u` with u in q is read as a literal
            c = rule[0]
            if isinstance(c, Impl):
                kids = c.lhs.children if isinstance(c.lhs, Conj) else (c.lhs,)
                negated = {d.lhs.atom for d in kids if self._is_neg_atom(d)}
                rule = Rule((*rule[:4], rule[4] - negated))
            return real(rule, q)

        monkeypatch.setattr(stable, "_clause", negated_unit_atoms_allowed)
        assert run_suite("stable_modular", self.CFG).fails > 0

    def test_reading_not_not_x_as_x_fails(self, monkeypatch):
        from astable import stable
        from astable.formula import read_rules

        real = stable._clause

        def double_negation_dropped(rule, q):
            # each body conjunct `not not x` read as the atom x
            c = rule[0]
            if isinstance(c, Impl):
                kids = c.lhs.children if isinstance(c.lhs, Conj) else (c.lhs,)
                plain = [d.lhs.lhs if isinstance(d, Impl) and d.rhs == Disj(()) and self._is_neg_atom(d.lhs) else d for d in kids]
                if any(p is not d for p, d in zip(plain, kids)):
                    ante = conj(plain) if isinstance(c.lhs, Conj) else plain[0]
                    rule = read_rules(Impl(ante, c.rhs))[0]
            return real(rule, q)

        monkeypatch.setattr(stable, "_clause", double_negation_dropped)
        assert run_suite("stable_modular", self.CFG).fails > 0


def _mutant(module, name: str, old: str, new: str):
    """The function `name` of `module` compiled from its own source with
    the one occurrence of `old` replaced by `new`, in a copy of the
    module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), namespace)
    return namespace[name]


class TestSweepKleeneMutations:
    """The `sweep_kleene` suite fails a sweep that drops the packed runs of
    the chunks that are only partly live (which `TestRouteCoverage` shows it
    reaches)."""

    CFG = GenConfig(iterations=300)

    def test_yielding_zero_for_every_partly_live_chunk_fails(self, monkeypatch):
        from astable import formula

        monkeypatch.setattr(formula, "_packed_chunks", lambda *args: itertools.repeat(0))
        assert run_suite("sweep_kleene", self.CFG).fails > 0


class TestStableProjectionMutations:
    """Each mutation of the derivation of wide definition parts, patched in
    here, fails the `stable_projection` suite."""

    CFG = GenConfig(iterations=100)

    def test_skipping_the_full_program_run_fails(self, monkeypatch):
        from astable import stable

        # the derived lanes kept without running the program over them
        monkeypatch.setattr(stable, "_lane_models", _mutant(stable, "_lane_models", "if check else ones", "if False else ones"))
        assert run_suite("stable_projection", self.CFG).fails > 0

    def test_deriving_a_part_on_a_cycle_fails(self, monkeypatch):
        from astable import stable

        real = stable._read_order

        def every_part_derived(parts):
            derived, compared = real(parts)
            return derived + compared, []

        monkeypatch.setattr(stable, "_read_order", every_part_derived)
        assert run_suite("stable_projection", self.CFG).fails > 0

    def test_deriving_parts_out_of_order_fails(self, monkeypatch):
        from astable import stable

        real = stable._read_order

        def reversed_order(parts):
            derived, compared = real(parts)
            return derived[::-1], compared

        monkeypatch.setattr(stable, "_read_order", reversed_order)
        assert run_suite("stable_projection", self.CFG).fails > 0


class TestStableLoopsMutations:
    """Each mutation of the loop route, patched in here, fails the
    `stable_loops` suite: the suite sees which loops get a formula, which
    bodies are copied, the there-value of an implication, which parts take
    loop formulas, and which program the wider parts left are checked
    against."""

    CFG = GenConfig(iterations=40)  # the first 40 of the route table's 100 draws, which pass

    # r0 ... r6 is a loop that supports itself only, and no definition by
    # its disjunctive head; `not not q` asks for q, derived from r2, so the
    # program has no stable model
    WIDE = "r0 -> r1. r1 -> r2. r2 -> r3. r3 -> r4. r4 -> r5. r5 -> r6. r6 -> r0. r0 -> r3 | q. r2 -> q. not not q."

    def test_keeping_only_one_atom_loops_fails(self, monkeypatch):
        from astable import stable

        monkeypatch.setattr(stable, "_loops", lambda succs: tuple(1 << v for v in range(len(succs))))
        assert run_suite("stable_loops", self.CFG).fails > 0

    def test_taking_rule_bodies_without_their_copy_fails(self, monkeypatch):
        from astable import stable

        copy = "_here(b, ys) if any(y >> w & 1 for w in succs[j]) else b"
        monkeypatch.setattr(stable, "_loop_formulas", _mutant(stable, "_loop_formulas", copy, "b"))
        assert run_suite("stable_loops", self.CFG).fails > 0

    def test_dropping_the_there_value_of_an_implication_fails(self, monkeypatch):
        from astable import stable

        # (G -> H) & (here G -> here H) read as here G -> here H, which
        # holds for ((u | v) -> w) with u in the loop, v and w false
        monkeypatch.setattr(stable, "_here", _mutant(stable, "_here", "_node(Conj, (g, Impl(*new)))", "Impl(*new)"))
        assert run_suite("stable_loops", self.CFG).fails > 0

    def test_deciding_a_two_atom_cycle_by_its_support_fails(self, monkeypatch):
        from astable import stable

        real = stable.components

        def split(g):
            # each two-atom component as two parts of one atom, whose one
            # loop formula each leaves out the loop of both
            comps, _ = real(g)
            out = [piece for c in comps for piece in ([frozenset((x,)) for x in c] if len(c) == 2 else [c])]
            return out, {x: k for k, c in enumerate(out) for x in c}

        monkeypatch.setattr(stable, "components", split)
        assert run_suite("stable_loops", self.CFG).fails > 0

    def test_checking_wide_parts_on_the_swept_program_fails(self, monkeypatch):
        from astable import stable

        real = stable._stable_models

        def swept_only(prog, var, here, a, parts=(), swept=None):
            return real(swept or prog, var, here, a, parts, swept)

        f = conj(parse_program(self.WIDE))
        assert len(atoms_of(f)) > stable._NARROW
        assert len(enumerate_a_stable(f, atoms_of(f))) == 0
        monkeypatch.setattr(stable, "_stable_models", swept_only)  # both solvers' routine
        # q's loop formula q -> r2 rejects the ring's unfounded witness
        assert len(enumerate_a_stable(f, atoms_of(f))) == 1
        assert run_suite("stable_loops", self.CFG).fails > 0


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
