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
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Sequence

from .depgraph import components, dep_graph
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


def _check_inside(models: Iterable[tuple[Atom, ...]], signature: frozenset[Atom]) -> None:
    """Raise SignatureError naming the first of `models` that leaves the signature."""
    for m in models:
        if not signature.issuperset(m):
            raise SignatureError(f"model {format_interpretation(m)} leaves the signature")


@dataclass(frozen=True)
class ModelSet:
    """A canonically ordered set of interpretations over a fixed signature.

    Each model is held as the tuple of its atoms in sorted order, and the
    canonical order of the models is the order of these tuples: output
    prints from them, and the frozensets of `models`, iteration and
    `as_set` are built from them only when asked for.
    """

    sorted_atoms: tuple[tuple[Atom, ...], ...]
    signature: frozenset[Atom]

    @classmethod
    def from_iter(cls, models: Iterable[AbstractSet[Atom]], signature: AbstractSet[Atom]) -> "ModelSet":
        """From any interpretations, each sorted once; duplicates merge."""
        sig = frozenset(signature)
        ordered = sorted(map(interpretation_key, {frozenset(m) for m in models}))
        _check_inside(ordered, sig)
        return cls(tuple(ordered), sig)

    @classmethod
    def from_masks(cls, masks: Sequence[int], atoms: Sequence[Atom], signature: frozenset[Atom]) -> "ModelSet":
        """From distinct bitmasks over the sorted `atoms` (bit b <-> atoms[b]):
        one reversed row per bitmask gives its atoms in sorted order, and
        the tuples are sorted once."""
        n = len(atoms)
        rows = _rows(masks, n)[::-1] if n else b""
        ordered = sorted(tuple(itertools.compress(atoms, rows[k * n : k * n + n])) for k in range(len(masks)))
        if not signature.issuperset(atoms):
            _check_inside(ordered, signature)
        return cls(tuple(ordered), signature)

    @property
    def models(self) -> tuple[Interpretation, ...]:
        return tuple(map(frozenset, self.sorted_atoms))

    def __iter__(self) -> Iterator[Interpretation]:
        return map(frozenset, self.sorted_atoms)

    def __len__(self) -> int:
        return len(self.sorted_atoms)

    def __contains__(self, interp: AbstractSet[Atom]) -> bool:
        return interpretation_key(frozenset(interp)) in self.sorted_atoms

    def as_set(self) -> frozenset[Interpretation]:
        return frozenset(map(frozenset, self.sorted_atoms))

    def lines(self) -> list[str]:
        text = {x: str(x) for x in self.signature}.__getitem__
        return ["{" + ",".join(map(text, atoms)) + "}" for atoms in self.sorted_atoms]

    def intersection(self, other: "ModelSet") -> "ModelSet":
        """The models of both, in the canonical order of `self`."""
        if self.signature != other.signature:
            raise SignatureError("model sets over different signatures cannot be intersected")
        common = set(other.sorted_atoms)
        return ModelSet(tuple(m for m in self.sorted_atoms if m in common), self.signature)


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


def _candidate_models(prog: Program, var: Sequence[int], here: int) -> Iterator[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that classically satisfy prog when the atoms of the
    bitmask `here` are true and all others false.  A sweep that fixes some
    atoms hands the true ones to `truth_chunks` as `true_atoms=`, only by
    keyword, which is how perfbench/spans.py tells a block's context sweep
    from the candidate sweep of `enumerate_a_stable`."""
    atoms = prog.atoms
    context = {}
    if len(var) < len(atoms):
        context["true_atoms"] = {x for b, x in enumerate(atoms) if here >> b & 1}
    offset = 0
    step = 1 << min(len(var), _CHUNK_BITS)
    for chunk in truth_chunks(prog, [atoms[b] for b in var], chunk_bits=_CHUNK_BITS, **context):
        if chunk:
            # one scan of the binary text: position p holds bit top - p
            text = bin(chunk)
            top = offset + len(text) - 1
            p = text.rfind("1", 2)
            while p >= 0:
                yield top - p
                p = text.rfind("1", 2, p)
        offset += step


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
    """Same answer as `is_a_stable`, by one fused here-and-there sweep over
    every J between I - A and I: the check `enumerate_a_stable` runs for a
    part of A too wide for a segment."""
    prog = compile_formula(f)
    i = frozenset(interp)
    a = frozenset(a)
    if (i & a) - frozenset(prog.atoms):
        return False  # an intensional atom f never mentions is unsupported
    mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in i)
    a_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in a)
    return _ht_minimal(prog, mask, a_mask, {})


_NARROW = 6  # a part this small gets a slot per nonempty subset; so few atoms take one run in all
_RUN_BITS = 1 << _CHUNK_BITS  # bits of one packed run, and so the bound on a segment
_BITS = bytes.maketrans(b"01", b"\0\1")


def _parts(f: Formula, prog: Program, a: AbstractSet[Atom]) -> list[int]:
    """The parts of A & occurring, as bitmasks over prog.atoms: the strongly
    connected components of the positive dependency graph of f over them.

    By the splitting lemma a classical model I is A-stable iff it is
    C-stable for every part C.  Any coarser partition into unions of whole
    components is as good, so one atom, or all of them in a program of at
    most `_NARROW` atoms, which `_stable_models` decides in one run that
    reads only their union, form one part without a graph.
    """
    bit = {x: 1 << b for b, x in enumerate(prog.atoms) if x in a}
    if len(bit) <= 1 or len(prog.atoms) <= _NARROW:
        return [sum(bit.values())] if bit else []
    return [sum(map(bit.__getitem__, comp)) for comp in components(dep_graph(f, bit.keys()))[0]]


def _rows(masks: Iterable[int], n: int) -> bytes:
    """Each bitmask over n >= 1 atoms as n bytes 0 or 1, atom n - 1 first."""
    return "".join(map(format, masks, itertools.repeat(f"0{n}b"))).encode().translate(_BITS)


@functools.cache  # sizes sorted, each at most 16: few distinct keys
def _layout(sizes: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """The segment of one candidate I when its parts have these sizes.

    Bit 0 stands for J = I.  A part of size s follows with 2**s - 1 slots,
    slot S - 1 of its block standing for J = I minus the part's atoms at
    the positions set in S.  Returns the width in bits, a multiple of 8;
    per part, the drop vector of each position (the slots whose J drops
    it); and the mask of every slot.
    """
    drops = []
    end = 1
    for s in sizes:
        drops.append(tuple(_bit_pattern(t, 1 << s) >> 1 << end for t in range(s)))
        end += (1 << s) - 1
    return -(-end // 8) * 8, tuple(drops), (1 << end) - 2


def _columns(n: int, slotted: Sequence[tuple[int, int]], batch: Sequence[int]) -> tuple[tuple[int, ...], int, int, int]:
    """Every atom's column for one packed run over `batch` (bitmasks over
    n atoms), one segment per member laid out as `_layout` of the sizes in
    `slotted`, a list of (part mask, size).

    A part of at most `_NARROW` atoms has one position per atom, and a
    slot whose J would drop an atom outside I is dead.  A wider part has
    size k, the number of its atoms in every member of the batch, and
    position t is the member's t-th true atom of the part, counted by
    bit-sliced counters over the run.  Every column is built for the whole
    batch at once from the members' binary rows.  Returns the columns, the
    mask of the live slots, the mask of every segment's bit 0 and the
    segment width.
    """
    width, drops, every_slot = _layout(tuple(s for _, s in slotted))
    nbytes = width // 8

    def repeat(v: int) -> int:
        return int.from_bytes(v.to_bytes(nbytes, "little") * len(batch), "little")

    rows = _rows(batch, n) if n else b""
    buf = bytearray(len(batch) * nbytes)
    values = []
    for b in range(n):
        buf[::nbytes] = rows[n - 1 - b :: n]
        starts = int.from_bytes(buf, "little")
        values.append((starts << width) - starts)  # each segment of a true atom filled
    dead = 0
    for (part, _), vecs in zip(slotted, drops):
        bits = [b for b in range(n) if part >> b & 1]
        vecs = [repeat(d) for d in vecs]
        if len(bits) <= _NARROW:
            for b, d in zip(bits, vecs):
                fill = values[b]
                t = fill & d
                values[b] = fill ^ t
                dead |= d ^ t
            continue
        depth = (len(vecs) - 1).bit_length()
        counter = [0] * depth  # bit q of each segment's count of true part atoms so far
        vecs += [0] * ((1 << depth) - len(vecs))
        for b in bits:
            fill = values[b]
            pick = vecs
            for m in counter:
                pick = [x ^ ((x ^ y) & m) for x, y in zip(pick[::2], pick[1::2])]
            values[b] = fill ^ (pick[0] & fill)
            carry = fill
            for q, c in enumerate(counter):
                counter[q], carry = c ^ carry, c & carry
    return tuple(values), repeat(every_slot) ^ dead, repeat(1), width


def _spread(c: int, bits: Sequence[int]) -> int:
    """The union of bits[j] over the bits j set in c."""
    out = 0
    for b in bits:
        if c & 1:
            out |= b
        c >>= 1
    return out


def _verdicts(prog: Program, var: Sequence[int], here: int, run: tuple, batch: Sequence[int]) -> list[int]:
    """The members of `batch` whose segment of one run of prog has the root
    true at J = I, its bit 0, and false on every live slot, when the atoms
    at positions `var` of prog.atoms take the columns of `run` (see
    `_columns`), those of the bitmask `here` are true and all others false.

    `root & live` sets no bit 0, so adding every other bit to it carries
    into the next segment's bit 0 exactly from each segment it hits."""
    columns, live, first, width = run
    ones = (first << width) - first
    values = [ones if here >> b & 1 else 0 for b in range(len(prog.atoms))]
    for b, v in zip(var, columns):
        values[b] = v
    root = prog.run(values, ones, first, width)
    rejected = ((root & live) + (ones ^ first)) >> width & first
    stable = (root & (first ^ rejected)).to_bytes(len(batch) * width // 8, "little")
    return list(itertools.compress(batch, stable[:: width // 8]))


@functools.cache  # k at most _NARROW: fewer than 2**(_NARROW + 1) keys
def _assignment_run(k: int, a: int) -> tuple[tuple[int, ...], int, int, int]:
    """`_columns` of one run over every assignment to k atoms, the atoms
    set in the bitmask `a` forming one part."""
    return _columns(k, ((a, a.bit_count()),), range(1 << k))


# built at import: the tables of every modular block, whose atoms are all of A
[_assignment_run(k, (1 << k) - 1) for k in range(_NARROW + 1)]


def _stable_subset(
    prog: Program, var: Sequence[int], here: int, parts: Sequence[int], candidates: Sequence[int]
) -> list[int]:
    """The A-stable ones among `candidates`, classical models of prog given
    as assignments to the atoms at positions `var` of prog.atoms with the
    context `here`, as in `_stable_models`; A is the union of `parts`.

    Candidates are grouped by how many atoms of each part wider than
    `_NARROW` they make true, and each group is checked in packed runs, one
    segment per candidate and as many segments per run as fit in
    `_RUN_BITS`.  When a group's segment would pass the bits of one run,
    its widest parts are left out of the segment and checked by one chunked
    sweep per candidate that every other part passes; so are all parts of
    a group of one candidate, for which building columns costs more than
    the sweeps.
    """
    narrow = [(p, p.bit_count()) for p in parts if p.bit_count() <= _NARROW]
    wide = [p for p in parts if p.bit_count() > _NARROW]
    if wide:
        counts = zip(*(map(int.bit_count, map(p.__and__, candidates)) for p in wide))
        pairs = sorted(zip(counts, candidates))
        groups = [(k, [m for _, m in g]) for k, g in itertools.groupby(pairs, key=itemgetter(0))]
    else:
        groups = [((), candidates)]
    patterns: dict[int, list[int]] = {}
    stable: list[int] = []
    for counts, group in groups:
        slotted = sorted(narrow + [(p, k) for p, k in zip(wide, counts) if k], key=itemgetter(1))
        swept = []
        while slotted and (len(group) == 1 or sum(1 << s for _, s in slotted) - len(slotted) >= _RUN_BITS):
            swept.append(slotted.pop()[0])
        passed = []
        per_run = _RUN_BITS // _layout(tuple(s for _, s in slotted))[0]
        for start in range(0, len(group), per_run):
            batch = group[start : start + per_run]
            passed += _verdicts(prog, var, here, _columns(len(var), slotted, batch), batch) if slotted else batch
        for part in swept:
            bits = [1 << b for b in var]
            a_mask = _spread(part, bits)
            passed = [c for c in passed if _ht_minimal(prog, here | _spread(c, bits), a_mask, patterns)]
        stable += passed
    return stable


def _stable_models(prog: Program, var: Sequence[int], here: int, parts: Sequence[int]) -> list[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that are A-stable models of prog when the atoms of
    the bitmask `here` are true and all others false, A the union of
    `parts`, bitmasks over `var` (see `_parts`).

    Up to `_NARROW` atoms, one packed run over every assignment decides
    classical truth and minimality together.  More atoms take a classical
    sweep, and `_stable_subset` keeps the stable models it finds.
    """
    k = len(var)
    if k <= _NARROW:
        return _verdicts(prog, var, here, _assignment_run(k, sum(parts)), range(1 << k))
    return _stable_subset(prog, var, here, parts, list(_candidate_models(prog, var, here)))


def enumerate_a_stable(
    f: Formula,
    a: AbstractSet[Atom],
    sigma: AbstractSet[Atom] | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> ModelSet:
    """All A-stable models of f over sigma, canonically ordered.

    sigma defaults to the atoms occurring in f plus a; extra extensional
    atoms must be supplied explicitly since they change the result.  f is
    compiled once, and `_stable_models` finds the A-stable assignments to
    all of its atoms, the routine that also solves every block of
    `splitting.modular_solve`: with at most `_NARROW` atoms by one packed
    run over every assignment, else by a vectorized satisfiability sweep
    whose classical models are checked one part of A at a time (see
    `_parts`) in shared packed here-and-there runs, where only a part too
    wide for a segment gets a chunked sweep per candidate in `_ht_minimal`.
    Intensional atoms that never occur in f cannot appear in any A-stable
    model and are pruned up front.  Extensional atoms of sigma that do not
    occur are free: each stable bitmask is spread once to the sorted order
    of all the atoms a model may hold, and every subset of the free atoms'
    bits is joined to it, so the models reach `ModelSet.from_masks` as
    bitmasks in every case.
    """
    a = frozenset(a)
    prog = compile_formula(f)
    occurring = frozenset(prog.atoms)
    sig = frozenset(sigma) if sigma is not None else occurring | a
    check_signature(occurring | a, sig)
    _check_cap(len(sig), max_atoms)

    masks = _stable_models(prog, range(len(prog.atoms)), 0, _parts(f, prog, a))
    order: Sequence[Atom] = prog.atoms
    free = sig - a - occurring
    if free:
        order = sorted(occurring | free)
        bit = {x: 1 << k for k, x in enumerate(order)}
        core = [bit[x] for x in prog.atoms]
        joins = [0]
        for x in free:
            joins += [j | bit[x] for j in joins]
        masks = [m | j for m in [_spread(c, core) for c in masks] for j in joins]
    return ModelSet.from_masks(masks, order, sig)
