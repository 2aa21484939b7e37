"""Benchmark harness comparing the modular solver against brute force.

The instance family is a layered chain: each layer is a positive cycle of
`width` atoms forming one dependency block, seeded from the previous layer
through a negated link, with a fact anchoring layer zero.  Truncating keeps
a prefix of the atoms (layer-major order) and every conjunct that fits.
One more instance is a transitive closure over chosen edges, whose closure
atoms are a definition: both solvers decide it by its least fixpoint.
Results go to CSV; the brute-force column stays empty for instances whose
signature exceeds the enumeration cap.
"""

from __future__ import annotations

import itertools
import time
from typing import IO, Sequence

from .formula import Atom, AtomRef, Formula, Impl, atoms_of, conj, disj, neg
from .records import Record
from .splitting import modular_solve, plan_split
from .stable import DEFAULT_MAX_ATOMS, enumerate_a_stable


def layered_chain(blocks: int, width: int) -> list[Formula]:
    """Conjuncts of the chain program with `blocks` layers of `width` atoms."""
    if not (1 <= blocks <= 9 and 1 <= width <= 9):
        raise ValueError("blocks and width must be between 1 and 9")

    def at(layer: int, k: int) -> AtomRef:
        return AtomRef(Atom(f"p{layer}_{k}"))

    out: list[Formula] = [at(0, 0)]
    for layer in range(1, blocks):
        out.append(Impl(neg(at(layer - 1, width - 1)), at(layer, 0)))
    for layer in range(blocks):
        for k in range(1, width):
            out.append(Impl(at(layer, k - 1), at(layer, k)))
        if width > 1:
            out.append(Impl(at(layer, width - 1), at(layer, 0)))
    return out


def closure_program(n: int) -> list[Formula]:
    """Edge choices `e(x,y) | not e(x,y)` over n elements and the
    transitive closure `t` of the edges, a definition for the t atoms:
    one stable model per set of edges, 2**(n*n) in all."""
    elements = [f"d{k}" for k in range(n)]

    def at(name: str, *args: str) -> AtomRef:
        return AtomRef(Atom(name, args))

    pairs = list(itertools.product(elements, repeat=2))
    out: list[Formula] = [disj((at("e", x, y), neg(at("e", x, y)))) for x, y in pairs]
    out += [Impl(at("e", x, y), at("t", x, y)) for x, y in pairs]
    triples = itertools.product(elements, repeat=3)
    out += [Impl(conj((at("t", x, y), at("t", y, z))), at("t", x, z)) for x, y, z in triples]
    return out


def chain_atoms(blocks: int, width: int) -> list[Atom]:
    """The chain's atoms in layer-major order."""
    return [Atom(f"p{layer}_{k}") for layer in range(blocks) for k in range(width)]


def truncate_chain(conjuncts: Sequence[Formula], prefix_atoms: Sequence[Atom]) -> list[Formula]:
    """Conjuncts whose atoms all lie within the given prefix."""
    keep = frozenset(prefix_atoms)
    return [c for c in conjuncts if atoms_of(c) <= keep]


class BenchRow(Record):
    __slots__ = ("instance", "atoms", "blocks", "naive_micros", "modular_micros", "models")

    def __init__(
        self, instance: str, atoms: int, blocks: int, naive_micros: int | None, modular_micros: int, models: int
    ) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "naive_micros", naive_micros)
        object.__setattr__(self, "modular_micros", modular_micros)
        object.__setattr__(self, "models", models)


class BenchInstance(Record):
    __slots__ = ("name", "conjuncts")

    def __init__(self, name: str, conjuncts: tuple[Formula, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "conjuncts", conjuncts)

    @property
    def signature(self) -> frozenset[Atom]:
        return atoms_of(conj(self.conjuncts))


def default_instances() -> list[BenchInstance]:
    ladder = [("chain2x2", 2, 2), ("chain3x3", 3, 3), ("chain4x4", 4, 4)]
    out = [BenchInstance(name, tuple(layered_chain(b, w))) for name, b, w in ladder]
    full = layered_chain(8, 5)
    out.append(BenchInstance("chain8x5_trunc16", tuple(truncate_chain(full, chain_atoms(8, 5)[:16]))))
    out.append(BenchInstance("chain8x5", tuple(full)))
    out.append(BenchInstance("closure3", tuple(closure_program(3))))
    return out


def run_bench(
    instances: Sequence[BenchInstance] | None = None,
    *,
    max_naive_atoms: int = DEFAULT_MAX_ATOMS,
) -> list[BenchRow]:
    rows = []
    for inst in instances if instances is not None else default_instances():
        sigma = inst.signature
        plan = plan_split(list(inst.conjuncts), sigma)

        t0 = time.perf_counter_ns()
        modular = modular_solve(list(inst.conjuncts), sigma, sigma)
        modular_us = (time.perf_counter_ns() - t0) // 1000

        naive_us: int | None = None
        if len(sigma) <= max_naive_atoms:
            t0 = time.perf_counter_ns()
            naive = enumerate_a_stable(conj(inst.conjuncts), sigma, sigma)
            naive_us = (time.perf_counter_ns() - t0) // 1000
            if naive.as_set() != modular.as_set():
                raise AssertionError(f"bench {inst.name}: modular and naive answers differ")
        rows.append(
            BenchRow(
                instance=inst.name,
                atoms=len(sigma),
                blocks=len(plan.blocks),
                naive_micros=naive_us,
                modular_micros=modular_us,
                models=len(modular),
            )
        )
    return rows


CSV_COLUMNS = ("instance", "atoms", "blocks", "naive_micros", "modular_micros", "models")


def write_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    import csv  # only `astable bench` writes CSV: other CLI runs do not load it

    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.instance,
                r.atoms,
                r.blocks,
                "" if r.naive_micros is None else r.naive_micros,
                r.modular_micros,
                r.models,
            ]
        )
