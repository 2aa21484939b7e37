"""Command-line front door.

Subcommands: parse, ground, solve, graph, split-solve, check-definition,
verify, bench.  Model sets print one interpretation per line as sorted atom
lists in braces, lines sorted lexicographically; --json switches to one JSON
object per line.  Exit codes: 0 success, 1 usage or parse error, 2 violated
precondition or cap, 3 verification counterexample found.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from . import bench as bench_mod
from . import fo
from .definitions import DefinitionError, Rejection, check_conservativity, recognize_definition
from .depgraph import PartitionError, Partition2, dep_graph, to_dot
from .formula import Atom, CapExceeded, Formula, SignatureError, atoms_of, conj, format_program
from .splitting import PreconditionError, modular_solve, split_models_lemma
from .stable import DEFAULT_MAX_ATOMS, ModelSet, enumerate_a_stable
from .syntax import ParseError, parse_atom_list, parse_program
from .verifier import DEFAULT_SEED, GenConfig, SUITE_NAMES, run_suite

log = logging.getLogger("astable")

USAGE_EXIT, PRECONDITION_EXIT, COUNTEREXAMPLE_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _is_fo_input(text: str) -> bool:
    return any(line.lstrip().startswith("#domain") for line in text.splitlines())


def _load_conjuncts(args) -> tuple[list[Formula], frozenset[Atom], frozenset[Atom]]:
    """Read a program file (ground or first-order), returning its conjuncts,
    the signature, and the intensional set selected by the flags."""
    text = _read(args.file)
    intensional_pred = getattr(args, "intensional_pred", None)
    if _is_fo_input(text):
        prog = fo.parse_fo_program(text)
        if not prog.domain:
            raise ParseError("first-order input needs a #domain declaration", 1, 1)
        arities = fo.infer_arities(prog.sentences)
        interp = fo.FOInterpretation.herbrand(prog.domain, arities=arities)
        conjuncts = fo.ground_program(list(prog.sentences), interp)
        sigma = set(fo.ground_signature(interp))
    else:
        if intensional_pred:
            raise ParseError("--intensional-pred needs a first-order input with #domain", 1, 1)
        conjuncts = parse_program(text)
        sigma = set().union(*(atoms_of(c) for c in conjuncts)) if conjuncts else set()
    if intensional_pred:
        preds = [p.strip() for p in intensional_pred.split(",") if p.strip()]
        intensional = set(fo.pred_atoms(preds, interp))
    elif getattr(args, "intensional", None):
        intensional = set(parse_atom_list(args.intensional))
    elif getattr(args, "intensional_none", False):
        intensional = set()
    else:
        intensional = set(sigma)
    if getattr(args, "sigma", None):
        sigma |= set(parse_atom_list(args.sigma))
    sigma |= intensional
    return conjuncts, frozenset(sigma), frozenset(intensional)


def _print_models(models: ModelSet, as_json: bool) -> None:
    if as_json:
        for atoms in models.sorted_atoms:
            print(json.dumps({"atoms": [str(a) for a in atoms]}))
    else:
        for line in models.lines():
            print(line)


def _cmd_parse(args) -> int:
    formulas = parse_program(_read(args.file))
    sys.stdout.write(format_program(formulas))
    return 0


def _cmd_ground(args) -> int:
    prog = fo.parse_fo_program(_read(args.file))
    if not prog.domain:
        raise ParseError("first-order input needs a #domain declaration", 1, 1)
    arities = fo.infer_arities(prog.sentences)
    interp = fo.FOInterpretation.herbrand(prog.domain, arities=arities)
    sys.stdout.write(format_program(fo.ground_program(list(prog.sentences), interp)))
    return 0


def _cmd_solve(args) -> int:
    conjuncts, sigma, intensional = _load_conjuncts(args)
    models = enumerate_a_stable(
        conj(conjuncts), intensional, sigma, max_atoms=args.max_atoms, workers=args.workers
    )
    _print_models(models, args.json)
    return 0


def _cmd_graph(args) -> int:
    conjuncts, _, intensional = _load_conjuncts(args)
    g = dep_graph(conj(conjuncts), intensional)
    pi = None
    if args.part1:
        part1 = frozenset(parse_atom_list(args.part1))
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
            raise ParseError("--part1 and --part2 must be given together", 1, 1)
        p1 = frozenset(parse_atom_list(args.part1)) if args.part1.strip() else frozenset()
        p2 = frozenset(parse_atom_list(args.part2)) if args.part2.strip() else frozenset()
        models = split_models_lemma(
            conj(conjuncts), p1, p2, sigma, max_atoms=args.max_atoms, workers=args.workers
        )
    else:
        models = modular_solve(
            conjuncts, intensional, sigma, max_atoms=args.max_atoms, workers=args.workers
        )
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
    report = check_conservativity(f, recognized, max_atoms=args.max_atoms, workers=args.workers)
    if not report.bijection:
        print(f"counterexample: {report.counterexample}")
        return COUNTEREXAMPLE_EXIT
    assert report.pairs is not None
    print(f"definition for {len(q)} atoms: conservative ({len(report.pairs)} stable models)")
    for full, projected in report.pairs:
        full_text = "{" + ",".join(str(a) for a in sorted(full)) + "}"
        proj_text = "{" + ",".join(str(a) for a in sorted(projected)) + "}"
        print(f"{full_text} -> {proj_text}")
    return 0


def _cmd_verify(args) -> int:
    cfg = GenConfig(seed=args.seed, iterations=args.iters)
    report = run_suite(args.suite, cfg, unsound=args.unsound)
    for line in report.lines():
        print(line)
    return COUNTEREXAMPLE_EXIT if report.fails else 0


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(max_naive_atoms=args.max_atoms, workers=args.workers)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            bench_mod.write_csv(rows, fh)
    else:
        bench_mod.write_csv(rows, sys.stdout)
    return 0


def _add_common(p: argparse.ArgumentParser, *, intensional: bool = True) -> None:
    p.add_argument("--max-atoms", type=int, default=DEFAULT_MAX_ATOMS,
                   help="enumeration cap (default %(default)s)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers for enumeration")
    p.add_argument("--json", action="store_true", help="line-delimited JSON output")
    p.add_argument("--sigma", metavar="ATOMS",
                   help="extra extensional atoms to add to the signature")
    if intensional:
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


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
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
    p.add_argument("--max-atoms", type=int, default=DEFAULT_MAX_ATOMS)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_check_definition)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("ASTABLE_SEED", DEFAULT_SEED)))
    p.add_argument("--unsound", action="store_true",
                   help="drop the splitting preconditions and hunt for counterexamples")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="benchmark modular vs. brute-force solving (CSV)")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.add_argument("--max-atoms", type=int, default=DEFAULT_MAX_ATOMS)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s", force=True)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PreconditionError, PartitionError, SignatureError, CapExceeded,
            DefinitionError, fo.GroundingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT


if __name__ == "__main__":
    sys.exit(main())
