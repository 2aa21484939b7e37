import pytest

from astable import syntax
from astable import (
    Atom,
    Conj,
    Disj,
    Impl,
    ParseError,
    atom,
    conj,
    disj,
    format_formula,
    format_program,
    impl,
    neg,
    parse_atom,
    parse_atom_list,
    parse_formula,
    parse_interpretation,
    parse_program,
)
from astable.fo import parse_fo_program
from astable.verifier import GenConfig, gen_formula

P, Q, R = atom("p"), atom("q"), atom("r")


class TestParse:
    def test_brace_conjunction_with_negations(self):
        f = parse_formula("And{ not p(a); not p(b) } -> q")
        pa, pb = atom("p", "a"), atom("p", "b")
        assert f == impl(conj([neg(pa), neg(pb)]), Q)

    def test_top_is_empty_conjunction(self):
        assert parse_formula("top") == Conj(())
        assert parse_formula("And{}") == Conj(())
        assert parse_formula("bot") == Disj(())
        assert parse_formula("Or{}") == Disj(())

    def test_implication_is_right_associative(self):
        assert parse_formula("p -> q -> r") == impl(P, impl(Q, R))
        assert parse_formula("(p -> q) -> r") == impl(impl(P, Q), R)

    def test_chains_collapse_into_one_set_node(self):
        assert parse_formula("p & q & r") == conj([P, Q, R])
        assert parse_formula("p | q | r") == disj([P, Q, R])
        assert parse_formula("p & p") == Conj((P,))

    def test_nested_chain_grouping_is_preserved(self):
        assert parse_formula("(p & q) & r") == conj([conj([P, Q]), R])

    def test_not_binds_tighter_than_arrow(self):
        assert parse_formula("not p -> q") == impl(neg(P), Q)
        assert parse_formula("not not p") == neg(neg(P))

    def test_precedence_not_over_and_over_or_over_arrow(self):
        f = parse_formula("not p & q | r -> s")
        assert f == impl(disj([conj([neg(P), Q]), R]), atom("s"))

    def test_comments_and_program_sugar(self):
        text = "% a comment\np.\nq -> r. % trailing\n"
        assert parse_program(text) == [P, impl(Q, R)]

    def test_atom_arguments(self):
        assert parse_formula("edge(a,b)") == atom("edge", "a", "b")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p.\nq ->.\n")
        assert err.value.line == 2
        assert "2:" in str(err.value)

    def test_reserved_words_cannot_be_atoms(self):
        with pytest.raises(ParseError):
            parse_formula("p & And")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_formula("p @ q")

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_program("p")


# Error texts of malformed programs; identifiers are ASCII, so a non-ASCII
# letter is an unexpected character.
MALFORMED = [
    ("a % c", "1:3: expected '.', found 'end of input'"),
    ("p.\na % c", "2:3: expected '.', found 'end of input'"),
    ("p.\n% x\nq", "3:2: expected '.', found 'end of input'"),
    ("p &\tq @.", "1:7: unexpected character '@'"),
    ("p\t&\t", "1:5: expected a formula, found 'end of input'"),
    ("x\r\ny &.", "2:1: expected '.', found 'y'"),
    ("p -> % c\n.", "2:1: expected a formula, found '.'"),
    ("é(a", "1:1: unexpected character 'é'"),
    ("é.", "1:1: unexpected character 'é'"),
    ("pé -> q.", "1:2: unexpected character 'é'"),
    ("p(²).", "1:3: unexpected character '²'"),
    ("Ⅻ.", "1:1: unexpected character 'Ⅻ'"),
    ("1p.", "1:1: unexpected character '1'"),
    ("p.\nq ->.\n", "2:5: expected a formula, found '.'"),
    ("p & And.", "1:8: expected '{', found '.'"),
    ("And p.", "1:5: expected '{', found 'p'"),
    ("not And.", "1:8: expected '{', found '.'"),
    ("Or", "1:3: expected '{', found 'end of input'"),
    ("And{p; q.", "1:9: expected '}', found '.'"),
    ("And{p q}.", "1:7: expected '}', found 'q'"),
    ("And{p;}.", "1:7: expected a formula, found '}'"),
    ("Or{;}.", "1:4: expected a formula, found ';'"),
    ("And{} & Or{.", "1:12: expected a formula, found '.'"),
    ("(p.", "1:3: expected ')', found '.'"),
    ("p).", "1:2: expected '.', found ')'"),
    ("p q.", "1:3: expected '.', found 'q'"),
    ("p;", "1:2: expected '.', found ';'"),
    ("p = q.", "1:3: expected '.', found '='"),
    ("not.", "1:4: expected a formula, found '.'"),
    ("p & not.", "1:8: expected a formula, found '.'"),
    ("->.", "1:1: expected a formula, found '->'"),
    ("top(a).", "1:4: expected '.', found '('"),
    ("p & top(a).", "1:8: expected '.', found '('"),
    ("p(a,).", "1:5: expected 'ident', found ')'"),
    ("p(,a).", "1:3: expected 'ident', found ','"),
    ("e(a,b.", "1:6: expected ')', found '.'"),
    ("p.\r\nq &\r\n\tr s.", "3:4: expected '.', found 's'"),
    ("p.\r\n\tq ->\t@.", "2:7: unexpected character '@'"),
    ("\tp\t&\tq\t(", "1:9: expected 'ident', found 'end of input'"),
    ("p.\nq -> % no newline at the end", "2:6: expected a formula, found 'end of input'"),
    ("p.\n" * 999 + "q r.", "1000:3: expected '.', found 'r'"),
    ("e(a,b) & e(a,b) -> e(a,b) | p(c).\ne(a,b) & p(c) p(c).", "2:15: expected '.', found 'p'"),
    ("p(a) & p(a) & p(a) -> p(a) ->.", "1:30: expected a formula, found '.'"),
    ("not (", "1:6: expected a formula, found 'end of input'"),
    ("p -> not (", "1:11: expected a formula, found 'end of input'"),
    ("p(a,", "1:5: expected 'ident', found 'end of input'"),
    ("q | p(a,", "1:9: expected 'ident', found 'end of input'"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_program_error_text(text, message):
    with pytest.raises(ValueError) as err:
        parse_program(text)
    assert str(err.value) == message


class TestDepth:
    """Parsing keeps no Python frame per nesting level."""

    N = 5000

    def test_nested_parentheses(self):
        assert parse_formula("(" * self.N + "p" + ")" * self.N) == P
        with pytest.raises(ParseError, match="expected '\\)', found 'end of input'"):
            parse_formula("(" * self.N + "p" + ")" * (self.N - 1))

    def test_not_chain(self):
        f = parse_program("not " * self.N + "p.")[0]
        depth = 0
        while type(f) is Impl:
            assert f.rhs == Disj(())
            f, depth = f.lhs, depth + 1
        assert (f, depth) == (P, self.N)

    def test_implication_chain_is_right_nested(self):
        f = parse_formula(" -> ".join(["p"] * self.N + ["q"]))
        depth = 0
        while type(f) is Impl:
            assert f.lhs == P
            f, depth = f.rhs, depth + 1
        assert (f, depth) == (Q, self.N)

    def test_unclosed_deep_bracket_reports_its_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("And{" * self.N + "p")
        assert str(err.value) == f"1:{4 * self.N + 2}: expected '}}', found 'end of input'"


_ATOMS = ["p", "q(a)", "r(a,b)", "s", "t(b)"]


class TestScaling:
    """Parse cost is checked by deterministic counts, never by wall time."""

    TEXT = "".join(f"{a} & {b}.\n" for a, b in zip(_ATOMS * 500, _ATOMS[1:] * 625))  # 5,000 atoms

    def test_each_distinct_atom_is_built_once_per_parse(self, monkeypatch):
        built = []
        new = Atom.__new__

        def counting(cls, name, args=()):
            built.append((name, args))
            return new(cls, name, args)

        monkeypatch.setattr(Atom, "__new__", counting)
        for _ in range(2):
            formulas = parse_program(self.TEXT)
            assert len(formulas) == 2500 and len(built) == 5
            built.clear()
        atoms = parse_atom_list("p(a),q,p(a)")
        assert len(built) == 2
        assert atoms == [Atom("p", ("a",)), Atom("q"), Atom("p", ("a",))]

    def test_occurrences_share_one_atom_node(self):
        first, second = parse_program("p(a) & q. p(a).")
        assert first.children[0] is second

    def test_a_valid_parse_never_locates_a_token(self, monkeypatch):
        located = []
        for name in ("_locate", "_line_col"):
            monkeypatch.setattr(syntax, name, lambda *args: located.append(args) or (1, 1))
        parse_program(self.TEXT + "% a comment\r\n\tnot (p -> And{q(a); Or{}}).")
        parse_formula("p & (q -> r)")
        parse_atom_list("p(a), q")
        parse_interpretation("{p, q(a,b)}")
        parse_fo_program("#domain a.\nforall X (p(X) -> q). % c")
        assert located == []
        with pytest.raises(ParseError):
            parse_program(self.TEXT + "p q.")
        assert len(located) == 1


class TestPrint:
    def test_canonical_examples(self):
        cases = [
            "top",
            "bot",
            "not p",
            "not not p",
            "not (p & q)",
            "p & (q & r)",
            "And{p}",
            "Or{p -> q}",
            "p & q -> r",
            "p -> q -> r",
            "(p -> q) -> r",
            "r | p & q",
            "q | (p -> q)",
        ]
        for text in cases:
            assert format_formula(parse_formula(text)) == text

    def test_noncanonical_spellings_reprint_canonically(self):
        assert format_formula(parse_formula("p & q | r")) == "r | p & q"
        assert format_formula(parse_formula("p -> bot")) == "not p"

    def test_parse_print_roundtrip_on_random_formulas(self):
        for i in range(400):
            f = gen_formula(GenConfig(seed=4000 + i, max_atoms=5, max_depth=4))
            assert parse_formula(format_formula(f)) == f

    def test_print_parse_identity_on_canonical_text(self):
        for i in range(200):
            f = gen_formula(GenConfig(seed=8000 + i, max_atoms=5, max_depth=4))
            text = format_formula(f)
            assert format_formula(parse_formula(text)) == text

    def test_program_roundtrip(self):
        text = "p.\nnot q -> r.\n"
        assert format_program(parse_program(text)) == text


class TestAtomHelpers:
    def test_parse_atom_list_respects_argument_commas(self):
        got = parse_atom_list("q,p(a),edge(a,b)")
        assert got == [Atom("q"), Atom("p", ("a",)), Atom("edge", ("a", "b"))]

    def test_parse_interpretation_roundtrip(self):
        from astable import format_interpretation

        i = frozenset({Atom("p", ("a",)), Atom("q")})
        assert parse_interpretation(format_interpretation(i)) == i
        assert parse_interpretation("{}") == frozenset()

    def test_parse_atom_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q")
