"""The package's value classes are hand-written slotted records: each keeps
the repr, equality, hash, immutability, validation, defaults and copy and
pickle round-trips that a frozen dataclass would give it."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import astable
from astable.bench import BenchInstance, BenchRow
from astable.definitions import Clause, ConservativityReport, DefinitionModule, Rejection
from astable.depgraph import DepGraph, Partition2
from astable.fo import (
    Cst,
    FOAnd,
    FOAtom,
    FOBot,
    FOEq,
    FOExists,
    FOForall,
    FOImpl,
    FOInterpretation,
    FOOr,
    FOProgram,
    FOTop,
    GroundingError,
    Var,
)
from astable.formula import BOT, TOP, Atom, AtomRef, Conj, Disj, Impl, atom, compile_formula
from astable.splitting import SplitPlan
from astable.stable import ModelSet
from astable.verifier import GenConfig, SuiteReport

P, QA = Atom("p"), Atom("q", ("a",))
p, qa = AtomRef(P), AtomRef(QA)
P_TEXT = "Atom(name='p', args=())"
REF_P = f"AtomRef(atom={P_TEXT})"
REF_QA = "AtomRef(atom=Atom(name='q', args=('a',)))"

# one builder per record class, so that each test gets fresh, distinct objects
RECORDS = {
    "AtomRef": (lambda: AtomRef(Atom("p")), REF_P),
    "Conj": (lambda: Conj((AtomRef(Atom("q", ("a",))),)), f"Conj(children=({REF_QA},))"),
    "Disj": (lambda: Disj((p, Conj((qa,)))), f"Disj(children=({REF_P}, Conj(children=({REF_QA},))))"),
    "Impl": (lambda: Impl(p, BOT), f"Impl(lhs={REF_P}, rhs=Disj(children=()))"),
    "ModelSet": (
        lambda: ModelSet((P,), (0, 1), frozenset({P})),
        f"ModelSet(atoms=({P_TEXT},), masks=(0, 1), signature=frozenset({{{P_TEXT}}}))",
    ),
    "DepGraph": (
        lambda: DepGraph(frozenset({P}), frozenset({(P, P)})),
        f"DepGraph(vertices=frozenset({{{P_TEXT}}}), edges=frozenset({{({P_TEXT}, {P_TEXT})}}))",
    ),
    "Partition2": (
        lambda: Partition2(frozenset({P}), frozenset()),
        f"Partition2(part1=frozenset({{{P_TEXT}}}), part2=frozenset())",
    ),
    "Clause": (
        lambda: Clause(TOP, frozenset(), P),
        f"Clause(body=Conj(children=()), pos_q=frozenset(), head={P_TEXT})",
    ),
    "Rejection": (lambda: Rejection(p, "why"), f"Rejection(offender={REF_P}, reason='why')"),
    "DefinitionModule": (
        lambda: DefinitionModule((Clause(TOP, frozenset(), P),), frozenset({P}), p),
        f"DefinitionModule(clauses=(Clause(body=Conj(children=()), pos_q=frozenset(), head={P_TEXT}),), "
        f"q_set=frozenset({{{P_TEXT}}}), source={REF_P})",
    ),
    "ConservativityReport": (
        lambda: ConservativityReport(None, 0, "no"),
        "ConservativityReport(models=None, q_mask=0, counterexample='no')",
    ),
    "SplitPlan": (
        lambda: SplitPlan(((frozenset({P}), p),), ()),
        f"SplitPlan(blocks=((frozenset({{{P_TEXT}}}), {REF_P}),), residual=())",
    ),
    "GenConfig": (
        lambda: GenConfig(seed=7),
        "GenConfig(seed=7, max_atoms=5, max_depth=4, max_branch=3, impl_prob=0.3, neg_prob=0.15, iterations=500)",
    ),
    "SuiteReport": (
        lambda: SuiteReport("lemma1", 3, 0, 1, None),
        "SuiteReport(suite='lemma1', passes=3, fails=0, skipped_draws=1, first_counterexample=None)",
    ),
    "BenchRow": (
        lambda: BenchRow("x", 1, 2, None, 3, 4),
        "BenchRow(instance='x', atoms=1, blocks=2, naive_micros=None, modular_micros=3, models=4)",
    ),
    "BenchInstance": (lambda: BenchInstance("x", (p,)), f"BenchInstance(name='x', conjuncts=({REF_P},))"),
    "Var": (lambda: Var("X"), "Var(name='X')"),
    "Cst": (lambda: Cst("a"), "Cst(name='a')"),
    "FOAtom": (
        lambda: FOAtom("p", (Var("X"), Cst("a"))),
        "FOAtom(pred='p', args=(Var(name='X'), Cst(name='a')))",
    ),
    "FOEq": (lambda: FOEq(Var("X"), Cst("a")), "FOEq(lhs=Var(name='X'), rhs=Cst(name='a'))"),
    "FOTop": (FOTop, "FOTop()"),
    "FOBot": (FOBot, "FOBot()"),
    "FOAnd": (lambda: FOAnd(FOTop(), FOBot()), "FOAnd(lhs=FOTop(), rhs=FOBot())"),
    "FOOr": (lambda: FOOr(FOTop(), FOBot()), "FOOr(lhs=FOTop(), rhs=FOBot())"),
    "FOImpl": (lambda: FOImpl(FOTop(), FOBot()), "FOImpl(lhs=FOTop(), rhs=FOBot())"),
    "FOForall": (
        lambda: FOForall("X", FOAtom("p", (Var("X"),))),
        "FOForall(var='X', body=FOAtom(pred='p', args=(Var(name='X'),)))",
    ),
    "FOExists": (lambda: FOExists("X", FOTop()), "FOExists(var='X', body=FOTop())"),
    "FOProgram": (lambda: FOProgram(("a",), (FOTop(),)), "FOProgram(domain=('a',), sentences=(FOTop(),))"),
}
HASHABLE = sorted(RECORDS)
FORMULA_AND_FO = [
    "AtomRef", "Conj", "Disj", "Impl", "Var", "Cst", "FOAtom", "FOEq", "FOTop", "FOBot",
    "FOAnd", "FOOr", "FOImpl", "FOForall", "FOExists", "FOProgram",
]


class TestRepr:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_repr_lists_the_fields(self, name):
        build, text = RECORDS[name]
        assert repr(build()) == text

    def test_program_repr_and_identity_equality(self):
        a, b = compile_formula(Impl(p, qa)), compile_formula(Impl(p, qa))
        assert repr(a) == f"Program(atoms=({P_TEXT}, Atom(name='q', args=('a',))), ops=((2, 2, 3, 4),), root=4)"
        assert a == a and a != b

    def test_fo_interpretation_repr_fills_its_defaults(self):
        m = FOInterpretation(("a",), {"c": "a"}, {"p": frozenset({("a",)})})
        assert repr(m) == "FOInterpretation(domain=('a',), const_map={'c': 'a'}, extents={'p': frozenset({('a',)})}, arities={'p': 1})"
        assert repr(FOInterpretation(("a",))) == "FOInterpretation(domain=('a',), const_map={}, extents={}, arities={})"


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", HASHABLE)
    def test_distinct_equal_objects(self, name):
        build, _ = RECORDS[name]
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_atom_ref_hashes_as_its_field_tuple_and_equals_only_an_atom_ref(self):
        assert hash(AtomRef(P)) == hash((P,))
        assert AtomRef(P) != P and AtomRef(P) != Conj((AtomRef(P),))
        assert AtomRef(P) != AtomRef(QA)

    def test_set_nodes_and_implications_compare_by_canonical_key(self):
        assert Conj((qa, p, qa)) == Conj((p, qa)) and hash(Conj((qa, p))) == hash(Conj((p, qa)))
        assert Conj((p,)) != Disj((p,)) and TOP != BOT
        assert Impl(p, qa) == Impl(atom("p"), atom("q", "a")) and Impl(p, qa) != Impl(qa, p)

    def test_records_of_different_classes_differ(self):
        assert FOAnd(FOTop(), FOBot()) != FOOr(FOTop(), FOBot())
        assert FOTop() != FOBot() and Var("a") != Cst("a")

    def test_model_set_equality_ignores_its_decoding_cache(self):
        a, b = RECORDS["ModelSet"][0](), RECORDS["ModelSet"][0]()
        assert a.sorted_atoms == ((), (P,))
        assert a == b and hash(a) == hash(b)

    def test_fo_interpretation_is_mutable_and_unhashable(self):
        m = FOInterpretation(("a",))
        assert m == FOInterpretation(("a",), {}, {}, {})
        m.const_map = {"c": "a"}
        assert m.const_map == {"c": "a"}
        with pytest.raises(TypeError):
            hash(m)


class TestImmutability:
    @pytest.mark.parametrize("name", HASHABLE)
    def test_assigning_a_field_raises(self, name):
        obj = RECORDS[name][0]()
        for field in type(obj)._fields or ("anything",):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert repr(obj) == RECORDS[name][1]

    def test_program_fields_are_frozen(self):
        prog = compile_formula(p)
        with pytest.raises(AttributeError):
            prog.root = 0

    def test_new_attributes_are_refused(self):
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            GenConfig().extra = 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_atoms": 0}, "bounds must be positive"),
            ({"max_depth": -1}, "bounds must be positive"),
            ({"iterations": 0}, "bounds must be positive"),
            ({"impl_prob": 1.5}, r"probabilities must lie in \[0, 1\]"),
            ({"neg_prob": -0.1}, r"probabilities must lie in \[0, 1\]"),
            ({"impl_prob": 0.6, "neg_prob": 0.5}, "impl_prob \\+ neg_prob must not exceed 1"),
        ],
    )
    def test_gen_config(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GenConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            GenConfig().replace(**kwargs)

    def test_gen_config_defaults_and_replace(self):
        cfg = GenConfig(max_atoms=6)
        assert (cfg.seed, cfg.max_atoms, cfg.iterations) == (astable.DEFAULT_SEED, 6, 500)
        moved = cfg.replace(seed=cfg.seed + 1)
        assert moved == GenConfig(seed=cfg.seed + 1, max_atoms=6) and cfg.seed == astable.DEFAULT_SEED

    @pytest.mark.parametrize(
        "args, message",
        [
            (((),), "the domain must be non-empty"),
            ((("a", "a"),), "duplicate domain elements"),
            ((("a",), {"c": "b"}), "constant c maps outside the domain: b"),
            ((("a",), {}, {"p": frozenset({("a",), ("a", "a")})}), "has the wrong arity"),
            ((("a",), {}, {"p": frozenset({("b",)})}), "leaves the domain"),
        ],
    )
    def test_fo_interpretation(self, args, message):
        with pytest.raises(GroundingError, match=message):
            FOInterpretation(*args)

    def test_graph_and_partition(self):
        with pytest.raises(ValueError, match="leaves the vertex set"):
            DepGraph(frozenset({P}), frozenset({(P, QA)}))
        with pytest.raises(astable.PartitionError, match="overlap on: p"):
            Partition2(frozenset({P}), frozenset({P}))


class TestCopyAndPickle:
    @pytest.mark.parametrize("name", FORMULA_AND_FO)
    def test_round_trips(self, name):
        build, text = RECORDS[name]
        obj = build()
        for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)
            assert repr(back) == text

    def test_other_records_round_trip(self):
        for name in ("ModelSet", "DepGraph", "GenConfig", "Clause"):
            obj = RECORDS[name][0]()
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and repr(back) == RECORDS[name][1]
        m = FOInterpretation.herbrand(("a", "b"), {"p": {("a",)}})
        assert pickle.loads(pickle.dumps(m)) == m == copy.copy(m)


class TestColdStart:
    def test_cli_import_loads_no_dataclasses_inspect_json_or_csv(self):
        # a fresh interpreter that imports the CLI as a user's run does; a
        # module that the interpreter's own start-up loaded is not counted
        src = str(Path(astable.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import astable.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'csv', 'logging', 'traceback'} "
            "& (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "[]\n"

    def test_falling_back_split_solve_loads_no_logging_or_traceback(self, tmp_path):
        # a split-solve whose plan is refused, so that the CLI answers by
        # brute force with its warning
        src = str(Path(astable.__file__).resolve().parents[1])
        path = tmp_path / "span.lp"
        path.write_text("x | y.\nx -> u.\ny -> v.\n")
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); from astable.cli import main; "
            "main(['split-solve', sys.argv[2]]); print(sorted({'logging', 'traceback'} & (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, src, str(path)], capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "{u,x}\n{v,y}\n[]\n")
        assert done.stderr.count("falling back to brute force") == 1
