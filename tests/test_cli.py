import json
import random
import time
import tracemalloc

import pytest

from astable import ModelSet, atoms_of, cli, conj, fo, parse_program
from astable.cli import main
from astable.formula import format_formula
from astable.syntax import parse_formula
from astable.verifier import GenConfig, _atom_pool, _gen, _gen_fo

from util import brute_a_stable

GUARD_LP = "% q holds when every p(t) fails\nAnd{ not p(a); not p(b) } -> q.\n"
GUARD_FO = "#domain a, b.\nforall X (not p(X)) -> q.\n"


@pytest.fixture
def guard_lp(tmp_path):
    path = tmp_path / "guard.lp"
    path.write_text(GUARD_LP)
    return str(path)


@pytest.fixture
def guard_fo(tmp_path):
    path = tmp_path / "guard.fo"
    path.write_text(GUARD_FO)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_all_intensional(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional-all")
        assert code == 0
        assert out == "{q}\n"

    def test_intensional_q_four_lines(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_intensional_none_lists_classical_models(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional-none")
        assert code == 0
        assert len(out.splitlines()) == 7  # all 2^3 interpretations but {}

    def test_default_is_all_intensional(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp)
        assert out == "{q}\n"

    def test_json_lines(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q", "--json")
        got = [json.loads(line) for line in out.splitlines()]
        assert got[0] == {"atoms": ["p(a)"]}
        assert got[-1] == {"atoms": ["q"]}

    def test_fo_input_with_intensional_pred(self, capsys, guard_fo):
        code, out, _ = run(capsys, "solve", guard_fo, "--intensional-pred", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_fo_input_with_ground_intensional_atoms(self, capsys, guard_fo):
        code, out, _ = run(capsys, "solve", guard_fo, "--intensional", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_sigma_adds_extensional_atoms(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q", "--sigma", "r")
        assert code == 0
        assert "{p(a),r}" in out.splitlines()

    def test_cap_exceeded_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "wide.lp"
        path.write_text(" & ".join(f"x{i}" for i in range(25)) + ".\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "cap" in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/prog.lp")
        assert code == 1

    def test_parse_error_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("p ->.\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "parse error" in err

    def test_pred_flag_requires_fo_input(self, capsys, guard_lp):
        code, _, err = run(capsys, "solve", guard_lp, "--intensional-pred", "q")
        assert code == 1


class TestParseGround:
    def test_parse_prints_canonical_program(self, capsys, guard_lp):
        code, out, _ = run(capsys, "parse", guard_lp)
        assert code == 0
        assert out == "not p(a) & not p(b) -> q.\n"

    def test_parse_is_idempotent(self, capsys, guard_lp, tmp_path):
        _, once, _ = run(capsys, "parse", guard_lp)
        again = tmp_path / "canon.lp"
        again.write_text(once)
        _, twice, _ = run(capsys, "parse", str(again))
        assert once == twice

    def test_ground_matches_hand_grounding(self, capsys, guard_fo):
        code, out, _ = run(capsys, "ground", guard_fo)
        assert code == 0
        assert out == "not p(a) & not p(b) -> q.\n"

    def test_ground_then_solve_pipeline(self, capsys, guard_fo, tmp_path):
        _, grounded, _ = run(capsys, "ground", guard_fo)
        lp = tmp_path / "grounded.lp"
        lp.write_text(grounded)
        code, out, _ = run(capsys, "solve", str(lp), "--intensional-all")
        assert out == "{q}\n"

    def test_domain_element_that_is_no_identifier_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "dom.fo"
        path.write_text("#domain a-b, c.\nq.\n")
        code, out, err = run(capsys, "ground", str(path))
        assert (code, out) == (1, "")
        assert err == "parse error: 1:1: invalid domain element: 'a-b'\n"

    def test_non_ascii_identifier_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "word.lp"
        path.write_text("pé -> q.\n", encoding="utf-8")
        assert run(capsys, "parse", str(path)) == (1, "", "parse error: 1:2: unexpected character 'é'\n")


def _depth_cases(n: int) -> dict[str, tuple[str, dict[str, str]]]:
    """Programs nested n deep, each with the stdout of every command on it.
    A ground program is canonical text, so `parse` prints it back, and so
    does `ground` under `#domain a.`; `check-definition` pairs it with the
    module `q -> d.`."""
    chain = " -> ".join(["p"] * n + ["q"])
    prefix = " -> ".join(["p"] * (n - 1))
    alternating = "p & (q | " * (n // 2) + "r" + ")" * (n // 2)
    quantified = "forall X (exists Y (" * (n // 2) + "p(X) -> q(Y)" + "))" * (n // 2)
    return {
        "chain": (chain + ".\np.\n", {
            "solve": "{p,q}\n",
            "split-solve": "{p,q}\n",
            "graph": "vertices: p q\nedges: q->p\n",
            "check-definition": "definition for 1 atoms: conservative (1 stable models)\n"
                                "{d,p,q} -> {p,q}\n",
        }),
        "not": ("not " * n + "q.\nq.\n", {
            "solve": "{q}\n",
            "split-solve": "{q}\n",
            "graph": "vertices: q\nedges: (none)\n",
            "check-definition": "definition for 1 atoms: conservative (1 stable models)\n"
                                "{d,q} -> {q}\n",
        }),
        "alternating": (alternating + " -> s.\np.\nq.\n", {
            "solve": "{p,q,s}\n",
            "split-solve": "{p,q,s}\n",
            "graph": "vertices: p q r s\nedges: s->p; s->q; s->r\n",
            "check-definition": "definition for 1 atoms: conservative (1 stable models)\n"
                                "{d,p,q,s} -> {p,q,s}\n",
        }),
        "shared prefix": (prefix + " -> q.\n" + prefix + " -> r.\np.\n", {
            "solve": "{p,q,r}\n",
            "split-solve": "{p,q,r}\n",
            "graph": "vertices: p q r\nedges: q->p; r->p\n",
            "check-definition": "definition for 1 atoms: conservative (1 stable models)\n"
                                "{d,p,q,r} -> {p,q,r}\n",
        }),
        "quantifiers": ("#domain a.\n" + quantified + ".\np(a).\n", {
            "ground": "And{Or{" * (n // 2) + "p(a) -> q(a)" + "}}" * (n // 2) + ".\np(a).\n",
            "solve": "{p(a),q(a)}\n",
            "split-solve": "{p(a),q(a)}\n",
            "graph": "vertices: p(a) q(a)\nedges: q(a)->p(a)\n",
        }),
    }


_DEPTH_CASES = _depth_cases(5000)


class TestDepth:
    """Every command answers on input nested 5,000 deep."""

    N = 5000

    def test_long_implication_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.lp"
        text = " -> ".join(["p"] * self.N + ["q"]) + ".\n"
        path.write_text(text)
        assert run(capsys, "parse", str(path)) == (0, text, "")
        assert run(capsys, "solve", str(path)) == (0, "{}\n", "")

    def test_deep_first_order_negation(self, capsys, tmp_path):
        path = tmp_path / "deep.fo"
        path.write_text("#domain a.\n" + "not " * self.N + "q.\n")
        assert run(capsys, "ground", str(path)) == (0, "not " * self.N + "q.\n", "")

    @pytest.mark.parametrize("case", _DEPTH_CASES)
    def test_every_command_answers(self, capsys, tmp_path, case):
        text, expected = _DEPTH_CASES[case]
        first_order = text.startswith("#domain")
        (tmp_path / "deep.lp").write_text(text)
        (tmp_path / "deep.fo").write_text(text if first_order else "#domain a.\n" + text)
        (tmp_path / "module.lp").write_text("q -> d.\n")
        if not first_order:
            expected = {"parse": text, "ground": text, **expected}
        for command, out in expected.items():
            args = [command, str(tmp_path / ("deep.fo" if command == "ground" else "deep.lp"))]
            if command == "check-definition":
                args += [str(tmp_path / "module.lp"), "--defined", "d"]
            assert run(capsys, *args) == (0, out, ""), command


def _fo_text(s: fo.FOSentence) -> str:
    """Fully parenthesized text of a first-order sentence."""
    t = type(s)
    if t is fo.FOAtom:
        return s.pred + (f"({','.join(a.name for a in s.args)})" if s.args else "")
    if t is fo.FOEq:
        return f"{s.lhs.name} = {s.rhs.name}"
    if t is fo.FOTop or t is fo.FOBot:
        return "top" if t is fo.FOTop else "bot"
    if t is fo.FOForall or t is fo.FOExists:
        return f"{'forall' if t is fo.FOForall else 'exists'} {s.var} ({_fo_text(s.body)})"
    op = {fo.FOAnd: "&", fo.FOOr: "|", fo.FOImpl: "->"}[t]
    return f"({_fo_text(s.lhs)} {op} {_fo_text(s.rhs)})"


class TestFuzz:
    """Seeded round trips over the verifier's generators: parsing inverts
    printing, and every run, also on the text with one character dropped,
    ends with a known exit code and no traceback."""

    def check_runs(self, capsys, path, text, commands, rng):
        broken = rng.randrange(len(text))
        for body in (text, text[:broken] + text[broken + 1:]):
            path.write_text(body)
            for command in commands:
                code, _, err = run(capsys, command, str(path))
                assert code in (0, 1, 2, 3), body
                assert "Traceback" not in err, body

    @pytest.mark.parametrize("cfg", [GenConfig(max_depth=5), GenConfig(max_depth=2, max_branch=8)])
    def test_ground(self, capsys, tmp_path, cfg):
        pool = _atom_pool(cfg.max_atoms)
        for seed in range(60):
            rng = random.Random(seed)
            f = _gen(rng, pool, cfg.max_depth, cfg)
            text = format_formula(f)
            assert parse_formula(text) == f
            self.check_runs(capsys, tmp_path / "f.lp", text + ".\n", ("parse", "solve", "split-solve"), rng)

    def test_first_order(self, capsys, tmp_path):
        for seed in range(120):
            rng = random.Random(seed)
            s = _gen_fo(rng, 4, ())
            text = _fo_text(s)
            assert fo.parse_fo_sentence(text) == s
            program = "#domain a, b.\n" + text + ".\n"
            self.check_runs(capsys, tmp_path / "s.fo", program, ("ground", "solve"), rng)


class TestGraph:
    def test_dot_output(self, capsys, guard_lp):
        code, out, _ = run(
            capsys, "graph", guard_lp, "--intensional", "q,p(a),p(b)", "--dot"
        )
        assert code == 0
        assert out.startswith("digraph dg {\n")
        assert out.count('";') + out.count('box];') == 3  # three vertices
        assert "->" not in out.replace("digraph", "")

    def test_part1_highlighting(self, capsys, guard_lp):
        _, out, _ = run(
            capsys, "graph", guard_lp, "--intensional", "q,p(a)", "--dot",
            "--part1", "q",
        )
        assert '"q" [shape=box];' in out

    def test_text_listing(self, capsys, guard_lp):
        _, out, _ = run(capsys, "graph", guard_lp, "--intensional", "q")
        assert out == "vertices: q\nedges: (none)\n"


class TestSplitSolve:
    def test_matches_solve(self, capsys, tmp_path):
        path = tmp_path / "chain.lp"
        path.write_text("p1 -> p0.\np2 -> p1.\np2.\n")
        _, direct, _ = run(capsys, "solve", str(path))
        _, split, _ = run(capsys, "split-solve", str(path))
        assert direct == split == "{p0,p1,p2}\n"

    def test_definition_unit_wider_than_the_cap_answers(self, capsys, tmp_path):
        # one 100-atom unit that is a definition for its atoms: solve
        # refuses its 101 atoms, split-solve decides it by its fixpoint
        rules = ["s | not s", "s -> x0"] + [f"x{i} -> x{(i + 1) % 100}" for i in range(100)]
        path = tmp_path / "cycle.lp"
        path.write_text("".join(r + ".\n" for r in rules))
        everything = "{" + ",".join(sorted(["s"] + [f"x{i}" for i in range(100)])) + "}\n"
        assert run(capsys, "split-solve", str(path)) == (0, "{}\n" + everything, "")
        assert run(capsys, "split-solve", str(path), "--max-atoms", "101") == (0, "{}\n" + everything, "")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration over 101 atoms exceeds the cap of 24")

    def test_atoms_of_each_conjunct_are_computed_once(self, capsys, tmp_path, monkeypatch):
        # the loader's atom sets reach the planner, which computes none
        from astable import formula, splitting

        calls = []
        real = formula.atoms_of
        monkeypatch.setattr(cli, "atoms_of", lambda f: calls.append("cli") or real(f))
        monkeypatch.setattr(splitting, "atoms_of", lambda f: calls.append("plan") or real(f))
        path = tmp_path / "chain.lp"
        path.write_text("p1 -> p0.\np2 -> p1.\np2.\nnot (p0 & q).\nq | not q.\n")
        code, out, _ = run(capsys, "split-solve", str(path))
        assert (code, out) == (0, "{p0,p1,p2}\n")
        assert calls == ["cli"] * 5

    def test_negative_cycle_with_a_choice_matches_solve_and_the_reference(self, capsys, tmp_path):
        # one unit of 10 atoms, wider than one run: its one-atom parts are
        # definitions decided by their support conjuncts in the unit's
        # sweep, except x0, which the choice leaves to the segment check
        rules = [f"not x{i} -> x{(i + 1) % 10}" for i in range(10)] + ["x0 | not x0"]
        path = tmp_path / "cycle.lp"
        path.write_text("".join(r + ".\n" for r in rules))
        _, direct, _ = run(capsys, "solve", str(path))
        code, split, err = run(capsys, "split-solve", str(path))
        f = conj(parse_program(path.read_text()))
        sigma = atoms_of(f)
        want = ModelSet.from_iter(brute_a_stable(f, sigma, sigma), sigma).lines()
        assert (code, err) == (0, "")
        assert split == direct == "".join(line + "\n" for line in want)
        assert len(want) == 2

    def test_lemma_mode_with_parts(self, capsys, tmp_path):
        path = tmp_path / "guard_fact.lp"
        path.write_text("And{ not p(a) } -> q.\np(a).\n")
        code, out, _ = run(
            capsys, "split-solve", str(path), "--part1", "q", "--part2", "p(a)"
        )
        assert code == 0
        assert out == "{p(a)}\n"

    def test_lemma_mode_precondition_violation_exit_two(self, capsys, tmp_path):
        path = tmp_path / "cycle.lp"
        path.write_text("p -> q.\nq -> p.\n")
        code, _, err = run(
            capsys, "split-solve", str(path), "--part1", "p", "--part2", "q"
        )
        assert code == 2
        assert "strongly connected component" in err

    def test_fallback_warns_but_answers(self, capsys, tmp_path):
        # the heads x, y of one conjunct sit in two dependency blocks
        path = tmp_path / "span.lp"
        path.write_text("x | y.\nx -> u.\ny -> v.\n")
        code, out, err = run(capsys, "split-solve", str(path))
        assert code == 0
        assert out == "{u,x}\n{v,y}\n"
        assert err.count("\n") == err.count("falling back") == 1

    def test_deep_fallback_warning_is_one_short_line(self, capsys, tmp_path):
        # the conjunct prints as over 50,000 characters; the warning shows a prefix
        path = tmp_path / "deep.lp"
        path.write_text("p & (q | " * 5000 + "p" + ")" * 5000 + ".\n")
        code, out, err = run(capsys, "split-solve", str(path))
        assert (code, out) == (0, "{p}\n")
        assert err.count("\n") == err.count("falling back") == 1
        assert err.endswith("...' has strictly positive intensional atoms p, q "
                            "spanning multiple dependency blocks\n")
        assert len(err) < 400

    def test_even_negative_cycle_answers_without_fallback(self, capsys, tmp_path):
        path = tmp_path / "even.lp"
        path.write_text("not q -> p.\nnot p -> q.\n")
        assert run(capsys, "split-solve", str(path)) == (0, "{p}\n{q}\n", "")

    def test_negative_pairs_past_the_sweep_cap(self, capsys, tmp_path):
        # 13 pairs, 26 atoms: each pair is one unit of 2 atoms, and there
        # is one model per choice of an atom from each pair
        path = tmp_path / "pairs13.lp"
        path.write_text("".join(f"not q{i:02d} -> p{i:02d}.\nnot p{i:02d} -> q{i:02d}.\n" for i in range(13)))
        code, out, err = run(capsys, "split-solve", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == len(set(lines)) == 2**13
        assert all(line.count(",") == 12 for line in lines)
        code, out, err = run(capsys, "split-solve", str(path), "--max-atoms", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration over 2 atoms exceeds the cap of 1") and err.count("\n") == 1

    def test_long_positive_chain(self, capsys, tmp_path):
        # every block has width 1, but the dependency path is 1,500 deep
        names = [f"v{i:05d}" for i in range(1500)]
        path = tmp_path / "long_chain.lp"
        path.write_text(
            "".join(f"{names[i + 1]} -> {names[i]}.\n" for i in range(1499))
            + f"{names[-1]}.\n"
        )
        code, out, err = run(capsys, "split-solve", str(path))
        assert code == 0
        assert out == "{" + ",".join(names) + "}\n"
        assert err == ""

    def test_five_thousand_atom_positive_chain(self, capsys, tmp_path):
        names = [f"v{i:05d}" for i in range(5000)]
        path = tmp_path / "long_chain.lp"
        path.write_text(
            "".join(f"{names[i + 1]} -> {names[i]}.\n" for i in range(4999))
            + f"{names[-1]}.\n"
        )
        code, out, err = run(capsys, "split-solve", str(path))
        assert (code, err) == (0, "")
        assert out == "{" + ",".join(names) + "}\n"

    def test_frontier_past_the_cap_exits_two(self, capsys, tmp_path):
        path = tmp_path / "choices18.lp"
        path.write_text("".join(f"c{i:02d} | not c{i:02d}.\n" for i in range(18)))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "split-solve", str(path), "--max-atoms", "16")
        assert time.perf_counter() - t0 < 5.0
        assert (code, out) == (2, "")
        assert err.startswith("error: modular frontier of") and err.count("\n") == 1


class TestMemory:
    @pytest.mark.parametrize("command", ["solve", "split-solve"])
    def test_twelve_choices_peak_under_two_megabytes(self, capsys, tmp_path, command):
        # 4,096 models, each held once as its sorted atom tuple on the way out
        path = tmp_path / "choices12.lp"
        path.write_text("".join(f"c{i} | not c{i}.\n" for i in range(12)))
        tracemalloc.start()
        try:
            code = main([command, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4096
        assert peak < 2_000_000


class TestCheckDefinition:
    def test_conservative_definition(self, capsys, tmp_path):
        base = tmp_path / "base.lp"
        base.write_text("p(a,b).\n")
        module = tmp_path / "tc.lp"
        module.write_text(
            "p(a,b) -> q(a,b).\n"
            "q(a,b) & q(b,b) -> q(a,b).\n"
        )
        code, out, _ = run(
            capsys, "check-definition", str(base), str(module),
            "--defined", "q(a,b),q(b,b)",
        )
        assert code == 0
        assert "conservative" in out
        assert "{p(a,b),q(a,b)} -> {p(a,b)}" in out

    def test_pairs_print_in_canonical_order(self, capsys, tmp_path):
        base = tmp_path / "base.lp"
        base.write_text("p(a) | not p(a).\np1 | not p1.\n")
        module = tmp_path / "def.lp"
        module.write_text("p(a) -> q(a).\nq(a) & p1 -> r.\n")
        code, out, err = run(capsys, "check-definition", str(base), str(module), "--defined", "q(a),r")
        assert (code, err) == (0, "")
        assert out == (
            "definition for 2 atoms: conservative (4 stable models)\n"
            "{} -> {}\n"
            "{p(a),p1,q(a),r} -> {p(a),p1}\n"
            "{p(a),q(a)} -> {p(a)}\n"
            "{p1} -> {p1}\n"
        )

    def test_rejection_is_exit_two(self, capsys, tmp_path):
        base = tmp_path / "base.lp"
        base.write_text("p.\n")
        module = tmp_path / "bad.lp"
        module.write_text("not q -> q.\n")
        code, _, err = run(
            capsys, "check-definition", str(base), str(module), "--defined", "q"
        )
        assert code == 2
        assert "not a definition" in err


class TestVerifyCommand:
    def test_green_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma1", "--iters", "30", "--seed", "5")
        assert code == 0
        assert "30 passed, 0 failed" in out

    def test_unsound_finds_counterexample_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "split_lemma", "--iters", "150",
            "--seed", "5", "--unsound",
        )
        assert code == 3
        assert "counterexample" in out

    def test_env_seed_default(self, capsys, monkeypatch):
        # ASTABLE_SEED is read when verify runs, not when the parser is built
        argv = ["verify", "--suite", "lemma1", "--iters", "20"]
        seeded = run(capsys, *argv, "--seed", "99")
        assert seeded[0] == 0
        monkeypatch.setenv("ASTABLE_SEED", "99")
        assert run(capsys, *argv) == seeded
        monkeypatch.delenv("ASTABLE_SEED")
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", str(cli.DEFAULT_SEED))

    def test_non_integer_env_seed_is_a_usage_error(self, capsys, monkeypatch, guard_lp):
        monkeypatch.setenv("ASTABLE_SEED", "abc")
        assert run(capsys, "verify", "--suite", "lemma1", "--iters", "5") == (
            1, "", "error: ASTABLE_SEED must be an integer, not 'abc'\n")
        # --seed wins, and no other command reads the variable
        assert run(capsys, "verify", "--suite", "lemma1", "--iters", "5", "--seed", "3")[0] == 0
        assert run(capsys, "parse", guard_lp)[0] == 0

    def test_unknown_suite_usage_error(self, capsys):
        code = main(["verify", "--suite", "nope"])
        assert code == 1


class TestParserReuse:
    """main() builds its parser once per process; a reused parser answers
    every call as a freshly built one does."""

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, guard_lp):
        calls = [
            (["--help"], {}),
            (["solve", guard_lp, "--intensional", "q"], {}),
            (["verify", "--suite", "nope"], {}),
            (["solve", guard_lp, "--intensional-all", "--intensional-none"], {}),
            (["solve", guard_lp, "--workers", "2"], {}),
            (["solve", guard_lp, "--json"], {}),
            (["solve", "--help"], {"COLUMNS": "40"}),
            (["solve", guard_lp], {}),
            (["verify", "--suite", "lemma1", "--iters", "20"], {"ASTABLE_SEED": "99"}),
            (["verify", "--suite", "lemma1", "--iters", "20"], {}),
            (["split-solve", guard_lp, "--part1", "q"], {}),
            (["graph", guard_lp, "--dot"], {}),
            ([], {}),
        ]

        def answer(argv, env):
            for name in ("ASTABLE_SEED", "COLUMNS"):
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            return run(capsys, *argv)

        monkeypatch.setattr(cli, "_parser", None)
        reused = [answer(argv, env) for argv, env in calls]
        fresh = []
        for argv, env in calls:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(answer(argv, env))
        for (argv, _), got, want in zip(calls, reused, fresh):
            assert got == want, argv
        codes = [code for code, _, _ in fresh]
        assert codes == [0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1]
        assert fresh[8] != fresh[9]  # the seed from the environment is read

    def test_second_call_builds_no_parser(self, capsys, monkeypatch, guard_lp):
        built, build = [], cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert run(capsys, "parse", guard_lp)[0] == 0
        assert run(capsys, "solve", guard_lp)[0] == 0
        assert run(capsys, "verify", "--suite", "nope")[0] == 1
        assert len(built) == 1


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "command, removed",
        [
            (["solve", "FILE"], ["--workers", "2"]),
            (["split-solve", "FILE"], ["--workers", "2"]),
            (["check-definition", "FILE", "FILE", "--defined", "q"], ["--workers", "2"]),
            (["bench"], ["--workers", "2"]),
            (["graph", "FILE"], ["--json"]),
            (["graph", "FILE"], ["--max-atoms", "3"]),
            (["graph", "FILE"], ["--sigma", "r"]),
        ],
    )
    def test_is_one_usage_error(self, capsys, guard_lp, command, removed):
        argv = [guard_lp if a == "FILE" else a for a in command + removed]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: astable ")
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"astable: error: unrecognized arguments: {' '.join(removed)}"]


class TestConsoleScript:
    def test_output_identical_across_processes(self, guard_lp):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import astable

        # the child imports the same package as this process
        env = {**os.environ, "PYTHONPATH": str(Path(astable.__file__).resolve().parents[1])}
        cmd = [sys.executable, "-m", "astable.cli", "solve", guard_lp, "--intensional", "q"]
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_non_integer_env_seed_exits_one_without_traceback(self, guard_lp):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import astable

        env = {**os.environ, "ASTABLE_SEED": "abc",
               "PYTHONPATH": str(Path(astable.__file__).resolve().parents[1])}
        cli_cmd = [sys.executable, "-m", "astable.cli"]
        done = subprocess.run(cli_cmd + ["verify", "--suite", "lemma1", "--iters", "5"],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: ASTABLE_SEED must be an integer, not 'abc'\n"
        done = subprocess.run(cli_cmd + ["parse", guard_lp], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")


class TestBenchCommand:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "instance,atoms,blocks,naive_micros,modular_micros,models"
        assert any(line.startswith("chain8x5,40,8,,") for line in lines)
