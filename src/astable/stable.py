"""A-stable model checking and enumeration.

An interpretation I is A-stable for a formula F when I satisfies the reduct
of F w.r.t. I and no proper subset J of I with I - J contained in A does.
Atoms in A are intensional (the program decides them), all others are
extensional (fixed from outside).  With A = sigma this is ordinary stability,
with A empty it is classical satisfaction.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Sequence

from .formula import (
    Atom,
    AtomRef,
    CapExceeded,
    Conj,
    Formula,
    Program,
    SignatureError,
    _bit_pattern,
    atoms_of,
    check_signature,
    compile_formula,
    disj,
    neg,
    reduct,
    satisfies,
    truth_chunks,
)

Interpretation = frozenset[Atom]

DEFAULT_MAX_ATOMS = 24
_CHUNK_BITS = 16


def format_interpretation(interp: AbstractSet[Atom]) -> str:
    return "{" + ",".join(str(a) for a in sorted(interp)) + "}"


def interpretation_key(interp: AbstractSet[Atom]) -> tuple:
    """Canonical sort key: lexicographic over the sorted atom sequence."""
    return tuple(sorted(interp))


@dataclass(frozen=True)
class ModelSet:
    """A canonically ordered set of interpretations over a fixed signature.

    `sorted_atoms` holds each model's atoms in sorted order, parallel to
    `models`: the canonical order is computed from them and output prints
    from them, so no model is sorted twice.
    """

    models: tuple[Interpretation, ...]
    signature: frozenset[Atom]
    sorted_atoms: tuple[tuple[Atom, ...], ...] = field(compare=False, repr=False)

    @classmethod
    def from_iter(cls, models: Iterable[AbstractSet[Atom]], signature: AbstractSet[Atom]) -> "ModelSet":
        sig = frozenset(signature)
        unique = list({frozenset(m) for m in models})
        keys = list(map(interpretation_key, unique))
        order = sorted(range(len(unique)), key=keys.__getitem__)
        ordered = tuple(map(unique.__getitem__, order))
        for m in ordered:
            if not m <= sig:
                raise SignatureError(f"model {format_interpretation(m)} leaves the signature")
        return cls(ordered, sig, tuple(map(keys.__getitem__, order)))

    def __iter__(self) -> Iterator[Interpretation]:
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __contains__(self, interp: AbstractSet[Atom]) -> bool:
        return frozenset(interp) in set(self.models)

    def as_set(self) -> frozenset[Interpretation]:
        return frozenset(self.models)

    def lines(self) -> list[str]:
        text = {x: str(x) for x in self.signature}.__getitem__
        return ["{" + ",".join(map(text, atoms)) + "}" for atoms in self.sorted_atoms]

    def intersection(self, other: "ModelSet") -> "ModelSet":
        if self.signature != other.signature:
            raise SignatureError("model sets over different signatures cannot be intersected")
        common = self.as_set() & other.as_set()
        return ModelSet.from_iter(common, self.signature)


def leq_a(i: AbstractSet[Atom], j: AbstractSet[Atom], a: AbstractSet[Atom]) -> bool:
    """The order: I <= J and J - I inside A (I, J agree on extensional atoms)."""
    i, j = frozenset(i), frozenset(j)
    return i <= j and (j - i) <= frozenset(a)


def _proper_subsets(items: list[Atom]) -> Iterator[frozenset[Atom]]:
    for size in range(len(items)):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def is_a_stable(f: Formula, interp: AbstractSet[Atom], a: AbstractSet[Atom]) -> bool:
    """Reference check: satisfies the own reduct, minimally so under leq_a.

    Only subsets that keep interp - a need inspecting, worst case
    2**len(interp & a) satisfaction checks.
    """
    i = frozenset(interp)
    a = frozenset(a)
    r = reduct(f, i)
    if not satisfies(i, r):
        return False
    base = i - a
    for sub in _proper_subsets(sorted(i & a)):
        if satisfies(base | sub, r):
            return False
    return True


def modred(f: Formula, interp: AbstractSet[Atom], a: AbstractSet[Atom]) -> Formula:
    """The reduct of f w.r.t. interp conjoined with every extensional atom
    of interp.  Subset-minimal models of the result are exactly the A-stable
    models among interpretations shaped like interp outside A."""
    i = frozenset(interp)
    extras = sorted(i - frozenset(a))
    r = reduct(f, i)
    if not extras:
        return r
    return Conj((r, *(AtomRef(p) for p in extras)))


def choice_extension(f: Formula, a: AbstractSet[Atom], sigma: AbstractSet[Atom]) -> Formula:
    """f conjoined with (p | not p) for every extensional atom p of sigma.

    Stable models of the result, with everything intensional, are the
    A-stable models of f over sigma.
    """
    a = frozenset(a)
    sig = frozenset(sigma)
    check_signature(atoms_of(f) | a, sig)
    extension = sorted(sig - a)
    if not extension:
        return f
    choices = [disj((AtomRef(p), neg(AtomRef(p)))) for p in extension]
    return Conj((f, *choices))


def _check_cap(n: int, max_atoms: int) -> None:
    if n > max_atoms:
        raise CapExceeded(
            f"enumeration over {n} atoms exceeds the cap of {max_atoms}; "
            f"pass a larger max_atoms (or --max-atoms) if this is intended"
        )


def _candidate_models(prog: Program, core: Sequence[Atom], **context) -> Iterator[int]:
    """Bitmasks over `core` (bit b <-> core[b]) that classically satisfy
    prog, with the atoms of the context `true_atoms=`, when given, true and
    all others false.  The context reaches `truth_chunks` only by keyword,
    which is how perfbench/spans.py tells a block's context sweep from the
    candidate sweep of `enumerate_a_stable`."""
    offset = 0
    for chunk in truth_chunks(prog, core, chunk_bits=_CHUNK_BITS, **context):
        base = offset
        while chunk:
            low = chunk & -chunk
            yield base + low.bit_length() - 1
            chunk ^= low
        offset += 1 << min(len(core), _CHUNK_BITS)


def _ht_minimal(prog: Program, mask: int, a_mask: int, patterns: dict[int, list[int]]) -> bool:
    """True iff the interpretation I with bitmask `mask` over prog.atoms is
    A-stable, A given by `a_mask`: one here-and-there sweep over J.
    `patterns` caches the low free atoms' vectors per chunk width.

    J ranges over I - A plus any subset of the free atoms I & A.  In
    <J, I>, atoms outside I are 0, atoms of I - A are 1, and an implication
    false in I is 0; J then satisfies the reduct of f w.r.t. I exactly
    where the root vector is 1.  Every chunk carries one extra "here" bit
    standing for J = I, so the sweep knows which implications I falsifies
    in every chunk; I is A-stable iff the root is 1 there and nowhere else.
    """
    free_mask = mask & a_mask
    free = [b for b in range(free_mask.bit_length()) if free_mask >> b & 1]
    cb = min(len(free), _CHUNK_BITS)
    width = 1 << cb
    here = 1 << width
    ones = (here << 1) - 1
    values = [ones if mask >> b & 1 else 0 for b in range(len(prog.atoms))]
    low = patterns.get(cb)
    if low is None:
        low = patterns[cb] = [_bit_pattern(j, width) | here for j in range(cb)]
    for b, pattern in zip(free, low):
        values[b] = pattern
    high = free[cb:]
    last = (1 << len(high)) - 1
    for hi in range(last + 1):
        for j, b in enumerate(high):
            values[b] = ones if hi >> j & 1 else here
        root = prog.run(values, ones, here)
        # J = I is index width - 1 of the last chunk, as well as the here bit
        if root != (here | here >> 1 if hi == last else here):
            return False
    return True


def is_a_stable_ht(f: Formula, interp: AbstractSet[Atom], a: AbstractSet[Atom]) -> bool:
    """Same answer as `is_a_stable`, by the fused here-and-there sweep that
    `enumerate_a_stable` runs on every candidate its packed runs leave
    undecided."""
    prog = compile_formula(f)
    i = frozenset(interp)
    a = frozenset(a)
    if (i & a) - frozenset(prog.atoms):
        return False  # an intensional atom f never mentions is unsupported
    mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in i)
    a_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in a)
    return _ht_minimal(prog, mask, a_mask, {})


@functools.cache  # width is a power of two up to 2**_CHUNK_BITS, k at most the atom count
def _segment_layout(width: int, k: int) -> tuple[tuple[bytes, ...], bytes]:
    """The segment of a candidate I with k free atoms in a packed run.

    Segment bit i stands for J = I minus the free atoms in drops[i], with
    drops[0] empty: every such J when 2**k bits fit in `width`, else those
    that drop one or two atoms; bits past the drops are copies of J = I.
    Returns, as `width`-bit little-endian bytes, the vector of the t-th free
    atom for each t < k and the mask of the bits whose J is not I.
    """
    if 1 << k <= width:
        drops = range(1 << k)
    else:
        pairs = itertools.combinations(range(k), 2)
        drops = [0, *(1 << t for t in range(k)), *(1 << t | 1 << u for t, u in pairs)]
    nbytes = width // 8
    copies = (1 << width) - (1 << len(drops))
    free = (copies | sum(1 << i for i, d in enumerate(drops) if not d >> t & 1) for t in range(k))
    live = (1 << len(drops)) - 2
    return tuple(v.to_bytes(nbytes, "little") for v in free), live.to_bytes(nbytes, "little")


def _packed_minimal(
    prog: Program, a_mask: int, candidates: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Split the classical models `candidates` of prog (bitmasks over
    prog.atoms) into (A-stable, undecided); the rest are not A-stable.

    Packed runs of `Program.run` give each candidate one segment of a fixed
    width (see `_segment_layout`) and evaluate the here-and-there value of
    every J in it for all candidates at once.  A candidate whose whole
    J-space fits is decided exactly; any other is rejected when a J that
    drops one or two free atoms satisfies the root, and left undecided when
    none does.
    """
    counts = [(m & a_mask).bit_count() for m in candidates]
    most = max(counts, default=0)
    width = 8  # the narrowest power of two, at least a byte, that holds the widest probe
    while width < 1 + most + most * (most - 1) // 2:
        width <<= 1
    nbytes = width // 8
    zero, full = bytes(nbytes), b"\xff" * nbytes
    first = (1).to_bytes(nbytes, "little")
    per_run = (1 << _CHUNK_BITS) // width
    stable: list[int] = []
    undecided: list[int] = []
    for start in range(0, len(candidates), per_run):
        batch = candidates[start : start + per_run]
        ks = counts[start : start + per_run]
        layouts = [_segment_layout(width, k) for k in ks]
        frees = [m & a_mask for m in batch]
        values = []
        for b in range(len(prog.atoms)):
            bit = 1 << b
            if a_mask & bit:  # the t-th free atom of a candidate takes its t-th vector
                below = bit - 1
                col = [vecs[(f & below).bit_count()] if f & bit else zero
                       for f, (vecs, _) in zip(frees, layouts)]
            else:
                col = [full if m & bit else zero for m in batch]
            values.append(int.from_bytes(b"".join(col), "little"))
        size = len(batch) * width
        keep = int.from_bytes(first * len(batch), "little")
        root = prog.run(values, (1 << size) - 1, keep, width)
        live = int.from_bytes(b"".join(mask for _, mask in layouts), "little")
        hits = (root & live).to_bytes(size // 8, "little")
        for j, (m, k) in enumerate(zip(batch, ks)):
            if hits[j * nbytes : (j + 1) * nbytes] == zero:
                (stable if 1 << k <= width else undecided).append(m)
    return stable, undecided


def _stable_subset(args) -> list[int]:
    prog, a_mask, candidates = args
    stable, undecided = _packed_minimal(prog, a_mask, candidates)
    patterns: dict[int, list[int]] = {}
    return stable + [m for m in undecided if _ht_minimal(prog, m, a_mask, patterns)]


def enumerate_a_stable(
    f: Formula,
    a: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    workers: int = 1,
) -> ModelSet:
    """All A-stable models of f over sigma, canonically ordered.

    sigma defaults to the atoms occurring in f plus a; extra extensional
    atoms must be supplied explicitly since they change the result.  Models
    are found by a vectorized satisfiability sweep of f compiled once,
    followed by one here-and-there minimality sweep per model; intensional
    atoms that never occur in f cannot appear in any A-stable model and are
    pruned up front, while non-occurring extensional atoms contribute a free
    product at the end.
    """
    a = frozenset(a)
    prog = compile_formula(f)
    core = list(prog.atoms)
    occurring = frozenset(core)
    sig = frozenset(sigma) if sigma is not None else occurring | a
    check_signature(occurring | a, sig)
    _check_cap(len(sig), max_atoms)

    a_mask = sum(1 << b for b, x in enumerate(core) if x in a)
    free_ext = sorted(sig - a - occurring)

    candidates = list(_candidate_models(prog, core))
    if workers > 1 and len(candidates) > 1:
        step = (len(candidates) + workers - 1) // workers
        batches = [(prog, a_mask, candidates[k : k + step]) for k in range(0, len(candidates), step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            masks = [m for part in pool.map(_stable_subset, batches) for m in part]
    else:
        masks = _stable_subset((prog, a_mask, candidates))
    stable = [frozenset(x for b, x in enumerate(core) if m >> b & 1) for m in masks]

    if free_ext:
        models = [
            s | frozenset(extra)
            for s in stable
            for size in range(len(free_ext) + 1)
            for extra in itertools.combinations(free_ext, size)
        ]
    else:
        models = stable
    return ModelSet.from_iter(models, sig)
