import itertools
import random

import pytest

from astable import (
    Atom,
    AtomRef,
    BOT,
    Conj,
    Disj,
    Impl,
    ParseError,
    TOP,
    atoms_of,
    equivalent,
    parse_formula,
    pos_nonnegated,
    rules,
    satisfies,
    strictly_positive,
)
from astable import fo as fo_module
from astable.fo import (
    _skeleton,
    Cst,
    FOAtom,
    FOBot,
    FOEq,
    FOForall,
    FOImpl,
    FOInterpretation,
    FOExists,
    GroundingError,
    Var,
    extent_atoms,
    fo_dep_graph,
    fo_neg,
    fo_predicates,
    fo_satisfies,
    ground,
    ground_program,
    ground_signature,
    infer_arities,
    is_p_stable_fo,
    parse_fo_program,
    parse_fo_sentence,
    pred_atoms,
)

GUARD = "forall X (not p(X)) -> q"


def herbrand(domain, extents=None):
    return FOInterpretation.herbrand(domain, extents=extents, arities={"p": 1, "q": 0})


class TestParseFO:
    def test_guard_sentence_shape(self):
        s = parse_fo_sentence(GUARD)
        assert s == FOImpl(FOForall("X", fo_neg(FOAtom("p", (Var("X"),)))), FOAtom("q"))

    def test_program_with_domain(self):
        prog = parse_fo_program("#domain a, b.\n" + GUARD + ".\n")
        assert prog.domain == ("a", "b")
        assert len(prog.sentences) == 1

    def test_equality_and_exists(self):
        from astable.fo import FOAnd

        s = parse_fo_sentence("exists X (p(X) & X = a)")
        assert s == FOExists(
            "X", FOAnd(FOAtom("p", (Var("X"),)), FOEq(Var("X"), Cst("a")))
        )

    def test_quantifier_variable_must_be_uppercase(self):
        with pytest.raises(ParseError):
            parse_fo_sentence("forall x (p(x))")

    def test_bare_variable_is_not_a_sentence(self):
        with pytest.raises(ParseError):
            parse_fo_sentence("p(a) & X")

    def test_domain_elements_must_be_lowercase(self):
        with pytest.raises(ParseError):
            parse_fo_program("#domain A, b.\np(a).\n")

    @pytest.mark.parametrize("directive", ["#domain a-b, c.", "#domain a b.", "#domain é."])
    def test_domain_elements_must_be_identifiers(self, directive):
        with pytest.raises(ParseError) as err:
            parse_fo_program("q.\n" + directive + "\nq.\n")
        assert err.value.line == 2
        assert "invalid domain element" in str(err.value)


# Error texts of malformed first-order programs; identifiers are ASCII, so a
# non-ASCII letter is an unexpected character.
MALFORMED = [
    ("#domain a.\np(X) & % c", "2:8: expected a sentence, found 'end of input'"),
    ("#domain a.\nforall x (p(x)).", "2:8: quantified variable must be uppercase: 'x'"),
    ("#domain a.\nforall X p(X).", "2:10: expected '(', found 'p'"),
    ("#domain a.\nexists (p).", "2:8: expected 'ident', found '('"),
    ("#domain a.\nX.", "2:2: a bare variable is not a sentence: X"),
    ("#domain a.\np(X) & Y.", "2:9: a bare variable is not a sentence: Y"),
    ("#domain a.\nAnd.", "2:4: a bare variable is not a sentence: And"),
    ("#domain a.\np(not).", "2:3: 'not' is reserved"),
    ("#domain a.\nX = forall.", "2:5: 'forall' is reserved"),
    ("#domain a.\ntop = a.", "2:5: expected '.', found '='"),
    ("#domain a.\nforall X (p(X).", "2:15: expected ')', found '.'"),
    ("#domain a.\nforall X (forall Y (p(X, Y))", "2:29: expected ')', found 'end of input'"),
    ("#domain a.\nnot exists Y.", "2:13: expected '(', found '.'"),
    ("#domain a.\nq.\nforall", "3:7: expected 'ident', found 'end of input'"),
    ("#domain a.\np(a) | \tq(", "2:11: expected 'ident', found 'end of input'"),
    ("#domain a.\np(X,).", "2:5: expected 'ident', found ')'"),
    ("#domain a.\np(a) -> bot).", "2:12: expected '.', found ')'"),
    ("#domain a.\np(²).", "2:3: unexpected character '²'"),
    ("#domain a.\nq(a) & é @.", "2:8: unexpected character 'é'"),
    ("#domain a, .\nq.", "1:1: empty domain element"),
    ("#domain a, B.\nq.", "1:1: domain elements must be lowercase: 'B'"),
    ("#domain _a.\nq.", "1:1: domain elements must be lowercase: '_a'"),
    ("#domain a.\r\np(X) &\r\n\tq(", "3:4: expected 'ident', found 'end of input'"),
    ("#domain a.\np(a) ->\t\t@.", "2:10: unexpected character '@'"),
    ("#domain a.\nforall X (p(X)) % trailing", "2:17: expected '.', found 'end of input'"),
    ("#domain a.\n" + "p(a).\n" * 998 + "q(a) r.", "1000:6: expected '.', found 'r'"),
    ("#domain a, b.\ne(a, b) & e(a, b) -> e(a, b) e(a, b).", "2:30: expected '.', found 'e'"),
    ("#domain a.\nnot (", "2:6: expected a sentence, found 'end of input'"),
    ("#domain a.\np(a,", "2:5: expected 'ident', found 'end of input'"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_program_error_text(text, message):
    with pytest.raises(ParseError) as err:
        parse_fo_program(text)
    assert str(err.value) == message


class TestParseDepth:
    """Parsing keeps no Python frame per nesting level."""

    N = 5000

    def test_nested_quantifiers(self):
        s = parse_fo_program("#domain a.\n" + "forall X (exists Y (" * self.N + "e(X,Y)" + "))" * self.N + ".\n")
        s = s.sentences[0]
        for _ in range(self.N):
            assert type(s) is FOForall and type(s.body) is FOExists
            s = s.body.body
        assert s == FOAtom("e", (Var("X"), Var("Y")))

    def test_negations_in_parentheses(self):
        s = parse_fo_sentence("not (" * self.N + "q" + ")" * self.N)
        depth = 0
        while type(s) is FOImpl and s.rhs == FOBot():
            s, depth = s.lhs, depth + 1
        assert (s, depth) == (FOAtom("q"), self.N)

    def test_implication_chain_is_right_nested(self):
        s = parse_fo_sentence(" -> ".join(["q"] * (self.N + 1)))
        depth = 0
        while type(s) is FOImpl:
            assert s.lhs == FOAtom("q")
            s, depth = s.rhs, depth + 1
        assert (s, depth) == (FOAtom("q"), self.N)


class TestGround:
    def test_guard_over_two_elements(self):
        s = parse_fo_sentence(GUARD)
        got = ground(s, herbrand(("a", "b")))
        assert got == parse_formula("And{not p(a); not p(b)} -> q")

    def test_reflexive_equality_grounds_to_top(self):
        s = parse_fo_sentence("forall X (X = X)")
        got = ground(s, herbrand(("a", "b")))
        assert got == Conj((TOP,))
        assert equivalent(got, TOP, frozenset())

    def test_singleton_existential(self):
        s = parse_fo_sentence("exists X (p(X))")
        assert ground(s, herbrand(("a",))) == Disj((parse_formula("p(a)"),))

    def test_equality_between_distinct_elements_is_bot(self):
        s = parse_fo_sentence("a = b")
        assert ground(s, herbrand(("a", "b"))) == BOT

    def test_unknown_constant_rejected(self):
        s = parse_fo_sentence("p(c)")
        with pytest.raises(GroundingError, match="constant"):
            ground(s, herbrand(("a", "b")))

    def test_arity_mismatch_rejected(self):
        s = parse_fo_sentence("p(a) & p(a, b)")
        with pytest.raises(GroundingError, match="arity"):
            ground(s, FOInterpretation.herbrand(("a", "b")))

    def test_each_distinct_ground_atom_is_built_once_per_call(self, monkeypatch):
        s = parse_fo_sentence("forall X (forall Y (forall Z (e(X,Y) & t(Y,Z) -> t(X,Z))))")
        m = FOInterpretation.herbrand(("a", "b", "c"))
        want = ground(s, m)
        built = []
        new = fo_module._atom

        def counting(key):
            built.append(key)
            return new(key)

        monkeypatch.setattr(fo_module, "_atom", counting)
        for _ in range(2):  # 81 occurrences of 18 distinct atoms
            assert ground(s, m) == want
            assert len(built) == 18
            built.clear()

    def test_sentences_of_a_program_share_their_ground_atoms(self, monkeypatch):
        prog = parse_fo_program(
            "#domain a, b, c.\n"
            "forall X (forall Y (e(X,Y) -> t(X,Y))).\n"
            "forall X (forall Y (forall Z (e(X,Y) & t(Y,Z) -> t(X,Z)))).\n"
        )
        m = FOInterpretation.herbrand(prog.domain)
        first, second = ground_program(list(prog.sentences), m)

        def refs(f):
            out, stack = {}, [f]
            while stack:
                g = stack.pop()
                if isinstance(g, AtomRef):
                    out.setdefault(g.atom, set()).add(id(g))
                else:
                    stack.extend((g.lhs, g.rhs) if isinstance(g, Impl) else g.children)
            return out

        one, two = refs(first), refs(second)
        assert one.keys() == two.keys() and len(one) == 18
        for x in one:  # the very same object in both formulas
            assert len(one[x] | two[x]) == 1

        built = []
        new = fo_module._atom
        monkeypatch.setattr(fo_module, "_atom", lambda key: built.append(key) or new(key))
        assert ground_program(list(prog.sentences), m) == [first, second]
        assert len(built) == 18  # 36 when each sentence had its own cache

    def test_rank_bounded_by_syntax_depth(self):
        def depth(s):
            if isinstance(s, (FOAtom, FOEq)) or type(s).__name__ in ("FOTop", "FOBot"):
                return 0
            if hasattr(s, "body"):
                return 1 + depth(s.body)
            return 1 + max(depth(s.lhs), depth(s.rhs))

        for text in (GUARD, "exists X (forall Y (p(X) | not p(Y)))", "p(a) -> q"):
            s = parse_fo_sentence(text)
            g = ground(s, herbrand(("a", "b", "c")))
            assert g.rank <= depth(s)


class TestExtentAndPredAtoms:
    def test_extent_atoms_of_guard_interpretation(self):
        m = herbrand(("a", "b"), extents={"q": {()}})
        assert extent_atoms(m) == {Atom("q")}

    def test_empty_extents(self):
        assert extent_atoms(herbrand(("a", "b"))) == frozenset()

    def test_extents_list_true_tuples(self):
        m = herbrand(("a", "b"), extents={"p": {("a",), ("b",)}})
        assert extent_atoms(m) == {Atom("p", ("a",)), Atom("p", ("b",))}

    def test_pred_atoms_unary(self):
        m = herbrand(("a", "b"))
        assert pred_atoms(["p"], m) == {Atom("p", ("a",)), Atom("p", ("b",))}

    def test_pred_atoms_empty_list(self):
        assert pred_atoms([], herbrand(("a",))) == frozenset()

    def test_pred_atoms_nullary(self):
        assert pred_atoms(["q"], herbrand(("a", "b"))) == {Atom("q")}

    def test_ground_signature_sorted(self):
        m = herbrand(("a", "b"))
        assert ground_signature(m) == (
            Atom("p", ("a",)),
            Atom("p", ("b",)),
            Atom("q"),
        )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FOAtom("1p"), "invalid predicate name: '1p'"),
            (lambda: FOAtom("not", (Cst("a"),)), "invalid predicate name: 'not'"),
            (lambda: herbrand(("a", "b c")), "invalid domain element: 'b c'"),
            (lambda: herbrand(("a",), extents={"p-q": {("a",)}}), "invalid predicate name: 'p-q'"),
            (lambda: FOInterpretation.herbrand(("a",), arities={"top": 0}), "invalid predicate name: 'top'"),
        ],
    )
    def test_names_no_atom_may_carry_are_refused_where_they_enter(self, build, message):
        # the grounding, pred_atoms and extent_atoms build their atoms
        # unchecked, so a name is checked before any atom is built
        with pytest.raises(GroundingError, match=message):
            build()


class TestPStability:
    def test_empty_p_with_q_is_q_stable(self):
        s = parse_fo_sentence(GUARD)
        m = herbrand(("a", "b"), extents={"q": {()}})
        assert is_p_stable_fo(s, ["q"], m)

    def test_nonempty_p_without_q_is_q_stable(self):
        s = parse_fo_sentence(GUARD)
        m = herbrand(("a", "b"), extents={"p": {("a",)}})
        assert is_p_stable_fo(s, ["q"], m)

    def test_all_intensional_reduces_to_plain_stability(self):
        s = parse_fo_sentence(GUARD)
        m = herbrand(("a", "b"), extents={"q": {()}})
        assert is_p_stable_fo(s, ["p", "q"], m)
        both_true = herbrand(("a", "b"), extents={"q": {()}, "p": {("a",)}})
        assert not is_p_stable_fo(s, ["p", "q"], both_true)

    def test_empty_interpretation_is_not_stable(self):
        s = parse_fo_sentence(GUARD)
        assert not is_p_stable_fo(s, ["p", "q"], herbrand(("a", "b")))


class TestGroundingSoundness:
    def _random_interp(self, rng, domain):
        p_ext = frozenset(
            (e,) for e in domain if rng.random() < 0.5
        )
        q_ext = frozenset([()]) if rng.random() < 0.5 else frozenset()
        return herbrand(domain, extents={"p": p_ext, "q": q_ext})

    def test_satisfaction_commutes_with_grounding(self):
        from astable.verifier import _gen_fo

        rng = random.Random(54)
        for k in range(300):
            s = _gen_fo(rng, rng.randint(0, 3), ())
            domain = ("a", "b") if rng.random() < 0.5 else ("a", "b", "c")
            m = FOInterpretation.herbrand(
                domain, arities=infer_arities([s], {"p": 1, "q": 1, "r": 0, "s": 1})
            )
            ext = {
                p: frozenset(
                    t
                    for t in itertools.product(domain, repeat=m.arities[p])
                    if rng.random() < 0.5
                )
                for p in m.arities
            }
            m = FOInterpretation.herbrand(domain, extents=ext, arities=m.arities)
            assert fo_satisfies(m, s) == satisfies(extent_atoms(m), ground(s, m))

    def test_ground_program_batches(self):
        prog = parse_fo_program("#domain a.\np(a).\nq.\n")
        m = FOInterpretation.herbrand(prog.domain, arities=infer_arities(prog.sentences))
        assert ground_program(list(prog.sentences), m) == [
            parse_formula("p(a)"),
            parse_formula("q"),
        ]


class TestPredicateLevelGraph:
    def test_guard_graph_has_no_edges(self):
        s = parse_fo_sentence(GUARD)
        g = fo_dep_graph(s, sorted(fo_predicates(s)))
        assert g.vertices == {Atom("p"), Atom("q")}
        assert g.edges == frozenset()

    def test_positive_body_produces_edge(self):
        s = parse_fo_sentence("forall X (p(X) -> r)")
        g = fo_dep_graph(s, ["p", "r"])
        assert g.edges == {(Atom("r"), Atom("p"))}

    def test_analyses_mirror_ground_level(self):
        skeleton = _skeleton(parse_fo_sentence(GUARD))
        assert skeleton == parse_formula("And{ not p } -> q")
        assert strictly_positive(skeleton) == {Atom("q")}
        assert pos_nonnegated(skeleton) == {Atom("q")}
        assert len(rules(skeleton)) == 1

    def test_skeleton_maps_equality_to_top_and_drops_arguments(self):
        s = parse_fo_sentence("exists X (p(X, a) & X = a) | bot")
        assert _skeleton(s) == parse_formula("Or{ p & top } | bot")

    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_quantified_bot_is_not_bot(self, quantifier):
        # a quantifier over bot is not the structural bot, so the antecedent
        # p -> q stays nonnegated and yields the edge r -> p
        s = parse_fo_sentence(f"((p -> q) -> {quantifier} X (bot)) -> r")
        g = fo_dep_graph(s, ["p", "q", "r"])
        assert g.edges == {(Atom("r"), Atom("p"))}

    def test_separable_predicate_partition_transfers_to_atoms(self):
        from astable import Partition2, closed_walk_infinitely_separable, dep_graph, is_separable

        s = parse_fo_sentence("forall X (p(X) -> r) & (not r -> q)")
        preds = sorted(fo_predicates(s))
        pg = fo_dep_graph(s, preds)
        pred_pi = Partition2(frozenset({Atom("p"), Atom("r")}), frozenset({Atom("q")}))
        assert is_separable(pg, pred_pi)
        m = FOInterpretation.herbrand(("a", "b"), arities=infer_arities([s]))
        gg = dep_graph(ground(s, m), pred_atoms(preds, m))
        atom_pi = Partition2(pred_atoms(["p", "r"], m), pred_atoms(["q"], m))
        assert is_separable(gg, atom_pi)
        assert closed_walk_infinitely_separable(gg, atom_pi)
