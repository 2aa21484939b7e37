"""Command-line front door.

Subcommands: parse, ground, solve, graph, split-solve, check-definition,
verify, bench.  Model sets print one interpretation per line as sorted atom
lists in braces, the lines in the canonical order of the models' sorted atom
tuples, which is not string order: `{a}` comes before `{a,b}`, which comes
before `{b}`; --json switches to one JSON object per line.  Exit codes: 0 success, 1 usage or parse error, 2 violated
precondition or cap, 3 verification counterexample found.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import bench as bench_mod
from . import fo
from .definitions import DefinitionError, Rejection, check_conservativity, recognize_definition
from .depgraph import PartitionError, Partition2, dep_graph, to_dot
from .formula import Atom, CapExceeded, Formula, SignatureError, conj, format_program
from .splitting import PreconditionError, SplitPlanError, modular_solve, split_models_lemma
from .stable import DEFAULT_MAX_ATOMS, ModelSet, enumerate_a_stable
from .syntax import ParseError, parse_atom_list, parse_program
from .verifier import DEFAULT_SEED, ConfigError, GenConfig, SUITE_NAMES, run_suite

USAGE_EXIT, PRECONDITION_EXIT, COUNTEREXAMPLE_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Flags that the command cannot take together or with its input."""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _is_fo_input(text: str) -> bool:
    return any(line.lstrip().startswith("#domain") for line in text.splitlines())


def _ground_fo(text: str) -> tuple[list[Formula], fo.FOInterpretation]:
    """Ground a first-order program over its #domain, naming each element
    by itself; the caller has seen the #domain line (`_is_fo_input`)."""
    prog = fo.parse_fo_program(text)
    arities = fo.infer_arities(prog.sentences)
    interp = fo.FOInterpretation.herbrand(prog.domain, arities=arities)
    return fo.ground_program(list(prog.sentences), interp), interp


def _atom_set(text: str) -> frozenset[Atom]:
    """The atoms of a comma-separated flag value; a blank value is no atom."""
    return frozenset(parse_atom_list(text)) if text.strip() else frozenset()


def _load_conjuncts(args) -> tuple[list[Formula], frozenset[Atom], frozenset[Atom]]:
    """Read a program file (ground or first-order), returning its conjuncts,
    the signature, and the intensional set selected by the flags."""
    text = _read(args.file)
    intensional_pred = getattr(args, "intensional_pred", None)
    if _is_fo_input(text):
        conjuncts, interp = _ground_fo(text)
        sigma = set(fo.ground_signature(interp))
    else:
        if intensional_pred is not None:
            raise _UsageError("--intensional-pred needs a first-order input with #domain")
        conjuncts = parse_program(text)
        sigma = set(conjuncts.atoms)
    if intensional_pred is not None:
        preds = [p.strip() for p in intensional_pred.split(",") if p.strip()]
        intensional = set(fo.pred_atoms(preds, interp))
    elif getattr(args, "intensional", None) is not None:
        intensional = _atom_set(args.intensional)
    elif getattr(args, "intensional_none", False):
        intensional = set()
    else:
        intensional = set(sigma)
    if getattr(args, "sigma", None) is not None:
        sigma |= _atom_set(args.sigma)
    sigma |= intensional
    return conjuncts, frozenset(sigma), frozenset(intensional)


def _print_models(models: ModelSet, as_json: bool) -> None:
    sys.stdout.write(models.text(as_json))


def _cmd_parse(args) -> int:
    formulas = parse_program(_read(args.file))
    sys.stdout.write(format_program(formulas))
    return 0


def _cmd_ground(args) -> int:
    text = _read(args.file)
    if not _is_fo_input(text):
        raise _UsageError("ground needs a first-order input with #domain")
    sys.stdout.write(format_program(_ground_fo(text)[0]))
    return 0


def _cmd_solve(args) -> int:
    conjuncts, sigma, intensional = _load_conjuncts(args)
    models = enumerate_a_stable(conj(conjuncts), intensional, sigma, max_atoms=args.max_atoms)
    _print_models(models, args.json)
    return 0


def _cmd_graph(args) -> int:
    conjuncts, _, intensional = _load_conjuncts(args)
    g = dep_graph(conj(conjuncts), intensional)
    part1 = _atom_set(args.part1 or "")  # no part1 boxes no vertex, as a blank one
    pi = Partition2(part1 & g.vertices, g.vertices - part1)
    if args.dot:
        sys.stdout.write(to_dot(g, pi))
    else:
        print("vertices:", " ".join(str(v) for v in sorted(g.vertices)) or "(none)")
        print("edges:", "; ".join(f"{u}->{v}" for u, v in sorted(g.edges)) or "(none)")
    return 0


def _cmd_split_solve(args) -> int:
    conjuncts, sigma, intensional = _load_conjuncts(args)
    if args.part1 is not None or args.part2 is not None:
        if args.part1 is None or args.part2 is None:
            raise _UsageError("--part1 and --part2 must be given together")
        p1, p2 = _atom_set(args.part1), _atom_set(args.part2)
        models = split_models_lemma(conj(conjuncts), p1, p2, sigma, max_atoms=args.max_atoms)
    else:
        try:
            models = modular_solve(conjuncts, intensional, sigma, max_atoms=args.max_atoms)
        except SplitPlanError as exc:
            # the splitting theorem does not apply: sweep the whole signature instead
            print(f"WARNING: modular solve falling back to brute force: {exc}", file=sys.stderr)
            models = enumerate_a_stable(conj(conjuncts), intensional, sigma, max_atoms=args.max_atoms)
    _print_models(models, args.json)
    return 0


def _cmd_check_definition(args) -> int:
    base = parse_program(_read(args.base))
    module = parse_program(_read(args.module))
    q = frozenset(parse_atom_list(args.defined))
    recognized = recognize_definition(conj(module), q)
    if isinstance(recognized, Rejection):
        print(f"not a definition: {recognized}", file=sys.stderr)
        return PRECONDITION_EXIT
    f = conj(base)
    report = check_conservativity(f, recognized, max_atoms=args.max_atoms)
    if not report.bijection:
        print(f"counterexample: {report.counterexample}")
        return COUNTEREXAMPLE_EXIT
    pairs = report.lines()
    head = f"definition for {len(q)} atoms: conservative ({len(pairs)} stable models)"
    sys.stdout.write("\n".join([head, *pairs, ""]))
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("ASTABLE_SEED")
        try:
            seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError:
            print(f"error: ASTABLE_SEED must be an integer, not {raw!r}", file=sys.stderr)
            return USAGE_EXIT
    report = run_suite(args.suite, GenConfig(seed=seed, iterations=args.iters), unsound=args.unsound)
    for line in report.lines():
        print(line)
    return COUNTEREXAMPLE_EXIT if report.fails else 0


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(max_naive_atoms=args.max_atoms)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            bench_mod.write_csv(rows, fh)
    else:
        bench_mod.write_csv(rows, sys.stdout)
    return 0


def _cap(text: str) -> int:
    """The value of --max-atoms: a count of atoms, so 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def _add_intensional(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--intensional", metavar="ATOMS",
                       help="comma-separated intensional ground atoms")
    group.add_argument("--intensional-all", action="store_true",
                       help="treat every atom as intensional (default)")
    group.add_argument("--intensional-none", action="store_true",
                       help="no intensional atoms: classical models")
    group.add_argument("--intensional-pred", metavar="PREDS",
                       help="intensional predicates, expanded over the domain "
                            "(first-order inputs only)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-atoms", type=_cap, default=DEFAULT_MAX_ATOMS,
                   help="enumeration cap (default %(default)s)")
    p.add_argument("--json", action="store_true", help="line-delimited JSON output")
    p.add_argument("--sigma", metavar="ATOMS",
                   help="extra extensional atoms to add to the signature")
    _add_intensional(p)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand.  Building it reads no
    environment, so main() builds it once per process and reuses it."""
    top = _Parser(prog="astable", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a ground program and print it canonically")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("ground", help="ground a first-order program over its #domain")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("solve", help="enumerate A-stable models")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("graph", help="print the positive dependency graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--part1", metavar="ATOMS", help="highlight these vertices (shape=box)")
    _add_intensional(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("split-solve", help="solve block-by-block via the split plan")
    p.add_argument("file")
    p.add_argument("--part1", metavar="ATOMS",
                   help="with --part2: intersect the stable models of the two parts instead")
    p.add_argument("--part2", metavar="ATOMS")
    _add_common(p)
    p.set_defaults(func=_cmd_split_solve)

    p = sub.add_parser("check-definition", help="certify a definition module conservative")
    p.add_argument("base", help="base program file")
    p.add_argument("module", help="definition module file")
    p.add_argument("--defined", required=True, metavar="ATOMS",
                   help="comma-separated defined atoms")
    p.add_argument("--max-atoms", type=_cap, default=DEFAULT_MAX_ATOMS)
    p.set_defaults(func=_cmd_check_definition)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int)  # else ASTABLE_SEED, read when verify runs
    p.add_argument("--unsound", action="store_true",
                   help="drop the splitting preconditions and hunt for counterexamples")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="benchmark modular vs. brute-force solving (CSV)")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.add_argument("--max-atoms", type=_cap, default=DEFAULT_MAX_ATOMS)
    p.set_defaults(func=_cmd_bench)

    return top


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (OSError, _UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PreconditionError, PartitionError, SignatureError, CapExceeded,
            DefinitionError, fo.GroundingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except RecursionError:
        # parsing, ordering, printing and grounding take any depth; only the
        # reference checks behind `verify` recurse, on shallow generated formulas
        print("error: formula nested too deeply for this command", file=sys.stderr)
        return PRECONDITION_EXIT


if __name__ == "__main__":
    sys.exit(main())
