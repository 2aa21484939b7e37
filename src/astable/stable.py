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
from collections import Counter
from operator import add, itemgetter
from typing import AbstractSet, Iterable, Iterator, Sequence

from .depgraph import components, dep_graph, strictly_positive
from .formula import (
    TOP,
    Atom,
    AtomRef,
    CapExceeded,
    Conj,
    Disj,
    Formula,
    Impl,
    Program,
    SignatureError,
    _bit_pattern,
    _chunk_patterns,
    atoms_of,
    check_signature,
    compile_extensible,
    compile_formula,
    disj,
    live_prefixes,
    neg,
    reduct,
    satisfies,
    truth_chunks,
)
from .records import Record

Interpretation = frozenset[Atom]

DEFAULT_MAX_ATOMS = 24
_CHUNK_BITS = 16


def format_interpretation(interp: AbstractSet[Atom]) -> str:
    return "{" + ",".join(str(a) for a in sorted(interp)) + "}"


_FEW = 16  # up to this many bitmasks are decoded one at a time, more through tables
_BYTE_BITS = [bytes(m >> j & 1 for j in range(8)) for m in range(256)]  # bit j of m at byte j


def _selectors(masks: Sequence[int], n: int) -> Iterable[bytes]:
    """Each bitmask over n >= 1 atoms as bytes 0 or 1, atom 0 first."""
    if n <= 8:
        return map(_BYTE_BITS.__getitem__, masks)
    rows = _rows(masks, n)[::-1]  # the last bitmask first
    return reversed([rows[k : k + n] for k in range(0, len(rows), n)])


def _tables(pieces: Sequence, join) -> list[list]:
    """Per byte of a bitmask over len(pieces) atoms, the join of the pieces
    of each subset of its (up to 8) atoms, indexed by the subset's bits."""
    out = []
    for g in range(0, max(len(pieces), 1), 8):
        table = [join(())]
        for piece in pieces[g : g + 8]:
            unit = join((piece,))
            table += [t + unit for t in table]
        out.append(table)
    return out


def _lookup(masks: Sequence[int], tables: Sequence[list]) -> list:
    """Per bitmask, the sum of its bytes' entries in `tables` (see `_tables`)."""
    if len(tables) == 1:
        return list(map(tables[0].__getitem__, masks))
    nbytes = len(tables)
    flat = b"".join(map(int.to_bytes, masks, itertools.repeat(nbytes), itertools.repeat("little")))
    out = map(tables[0].__getitem__, flat[::nbytes])
    for g in range(1, nbytes):
        out = map(add, out, map(tables[g].__getitem__, flat[g::nbytes]))
    return list(out)


@functools.cache  # one per 8 atoms of the widest model set decoded
def _rank_table(g: int) -> list[str]:
    """`_tables` of the rank string of atoms 8g to 8g + 7: the character
    of rank b + 1 stands for atom b."""
    return _tables([chr(b + 1) for b in range(8 * g, 8 * g + 8)], "".join)[0]


# built at import: the rank tables of every model set within the default cap
[_rank_table(g) for g in range(-(-DEFAULT_MAX_ATOMS // 8))]


def _decode(masks: Sequence[int], pieces: Sequence, join) -> list:
    """Per bitmask over len(pieces) atoms, in the order given, `join` of
    the pieces of the bits it sets, in increasing order: `join` takes an
    iterable, such as `tuple`, `"".join` or `sum`, and adding two of its
    results must give the join of their pieces.

    A handful of bitmasks are decoded one at a time; more through
    `_tables`, one lookup and one addition per 8 atoms, all in C.
    """
    if len(masks) > _FEW or not pieces:
        return _lookup(masks, _tables(pieces, join))
    return list(map(join, map(itertools.compress, itertools.repeat(pieces), _selectors(masks, len(pieces)))))


def format_masks(masks: Sequence[int], atoms: Sequence[Atom], *, as_json: bool = False) -> list[str]:
    """Each bitmask over the sorted `atoms` (bit b <-> atoms[b]), in the
    order given, as the text of its interpretation, `{a,b}`, or with
    `as_json` as the object `{"atoms": ["a", "b"]}`."""
    if not masks:
        return []
    if as_json:
        import json  # only --json needs it: a CLI run without it does not load it

        head, sep, tail = '{"atoms": [', ", ", "]}"
        pieces = [sep + json.dumps(str(x)) for x in atoms]
    else:
        head, sep, tail = "{", ",", "}"
        pieces = [sep + str(x) for x in atoms]
    texts = map(itemgetter(slice(len(sep), None)), _decode(masks, pieces, "".join))
    return (head + (tail + "\n" + head).join(texts) + tail).split("\n")


class ModelSet(Record):
    """A canonically ordered set of interpretations over a fixed signature.

    Each model is held as a bitmask over `atoms`, sorted and distinct (bit
    b <-> atoms[b]), and `masks` lists the models in canonical order: the
    order of their sorted atom tuples.  Since the atoms are sorted, that is
    the order of the strings with the character of rank b + 1 for each bit
    b, which `from_masks` sorts by.  `sorted_atoms` (cached), `models`,
    iteration, `in`, `as_set` and the printed `lines` are decoded from the
    bitmasks when asked for; two model sets are equal when they hold the
    same models over the same signature.
    """

    __slots__ = ("atoms", "masks", "signature", "_sorted_atoms")

    def __init__(self, atoms: tuple[Atom, ...], masks: tuple[int, ...], signature: frozenset[Atom]) -> None:
        _set_atoms(self, atoms)
        _set_masks(self, masks)
        _set_signature(self, signature)
        _set_sorted_atoms(self, None)

    @classmethod
    def from_iter(cls, models: Iterable[AbstractSet[Atom]], signature: AbstractSet[Atom]) -> "ModelSet":
        """From any interpretations, as bitmasks over the signature and the
        atoms of the models; duplicates merge."""
        sig = frozenset(signature)
        distinct = {frozenset(m) for m in models}
        atoms = sorted(sig.union(*distinct))
        bit = {x: 1 << b for b, x in enumerate(atoms)}
        return cls.from_masks([sum(map(bit.__getitem__, m)) for m in distinct], atoms, sig)

    @classmethod
    def from_masks(cls, masks: Sequence[int], atoms: Sequence[Atom], signature: frozenset[Atom]) -> "ModelSet":
        """From distinct bitmasks over the sorted `atoms` (bit b <-> atoms[b]),
        sorted by their rank strings."""
        atoms = tuple(atoms)
        tables = [_rank_table(g) for g in range(-(-len(atoms) // 8) or 1)]
        if len(tables) == 1:
            ordered = tuple(sorted(masks, key=tables[0].__getitem__))
        else:
            keys = _lookup(masks, tables)
            ordered = tuple(map(masks.__getitem__, sorted(range(len(masks)), key=keys.__getitem__)))
        if not signature.issuperset(atoms):
            outside = sum(1 << b for b, x in enumerate(atoms) if x not in signature)
            for m in ordered:
                if m & outside:
                    raise SignatureError(f"model {format_masks([m], atoms)[0]} leaves the signature")
        return cls(atoms, ordered, signature)

    @property
    def sorted_atoms(self) -> tuple[tuple[Atom, ...], ...]:
        """Each model as its atoms in sorted order, decoded once."""
        found = self._sorted_atoms
        if found is None:
            found = tuple(_decode(self.masks, self.atoms, tuple))
            _set_sorted_atoms(self, found)
        return found

    @property
    def models(self) -> tuple[Interpretation, ...]:
        return tuple(map(frozenset, self.sorted_atoms))

    def __iter__(self) -> Iterator[Interpretation]:
        return map(frozenset, self.sorted_atoms)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, interp: AbstractSet[Atom]) -> bool:
        bit = {x: 1 << b for b, x in enumerate(self.atoms)}
        return all(map(bit.__contains__, interp)) and sum(map(bit.__getitem__, interp)) in self.masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelSet):
            return NotImplemented
        return self.signature == other.signature and self.sorted_atoms == other.sorted_atoms

    def __hash__(self) -> int:
        return hash((self.sorted_atoms, self.signature))

    def as_set(self) -> frozenset[Interpretation]:
        return frozenset(map(frozenset, self.sorted_atoms))

    def lines(self, *, as_json: bool = False) -> list[str]:
        """Each model's text, in canonical order (see `format_masks`)."""
        return format_masks(self.masks, self.atoms, as_json=as_json)

    def over(self, atoms: Sequence[Atom]) -> list[int]:
        """Each model, in canonical order, as a bitmask over the sorted
        `atoms` (bit b <-> atoms[b]); an atom outside them sets bit
        len(atoms), which no bitmask over them has."""
        if tuple(atoms) == self.atoms:
            return list(self.masks)
        bit = {x: 1 << b for b, x in enumerate(atoms)}
        return _decode(self.masks, [bit.get(x, 1 << len(bit)) for x in self.atoms], sum)

    def intersection(self, other: "ModelSet") -> "ModelSet":
        """The models of both, in the canonical order of `self`."""
        if self.signature != other.signature:
            raise SignatureError("model sets over different signatures cannot be intersected")
        common = set(other.over(self.atoms))
        return ModelSet(self.atoms, tuple(filter(common.__contains__, self.masks)), self.signature)


_set_atoms = ModelSet.atoms.__set__
_set_masks = ModelSet.masks.__set__
_set_signature = ModelSet.signature.__set__
_set_sorted_atoms = ModelSet._sorted_atoms.__set__


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


def _candidate_models(prog: Program, var: Sequence[int], here: int) -> list[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that classically satisfy prog when the atoms of the
    bitmask `here` are true and all others false.  A sweep that fixes some
    atoms hands the true ones to `truth_chunks` as `true_atoms=`, only by
    keyword, which is how perfbench/spans.py tells a block's context sweep
    from the candidate sweep of `enumerate_a_stable`.

    The sweep skips every chunk that the Kleene run of `live_prefixes`
    rules out.  With more than `_CHUNK_BITS` atoms, the atoms that the most
    ops read go last, so that they are the high atoms that fix each chunk,
    when that order leaves fewer live chunks than the given one; the
    candidates are then mapped back to the bits of `var`.
    """
    atoms = prog.atoms
    context = {}
    if len(var) < len(atoms):
        context["true_atoms"] = {x for b, x in enumerate(atoms) if here >> b & 1}
    order = var
    if len(var) > _CHUNK_BITS:
        reads = Counter(slot for _, left, right, _ in prog.ops for slot in (left, right))
        by_reads = sorted(var, key=lambda b: reads[b + 2])  # atoms[b] sits in slot b + 2
        true = context.get("true_atoms", frozenset())

        def live(order: Sequence[int]) -> int:
            return live_prefixes(prog, [atoms[b] for b in order], true, _CHUNK_BITS).bit_count()

        if live(by_reads) < live(var):
            order = by_reads
    candidates = []
    offset = 0
    step = 1 << min(len(var), _CHUNK_BITS)
    for chunk in truth_chunks(prog, [atoms[b] for b in order], chunk_bits=_CHUNK_BITS, **context):
        if chunk and not chunk & (chunk - 1):  # one model
            candidates.append(offset + chunk.bit_length() - 1)
        elif chunk:
            # one scan of the binary text: position p holds bit top - p
            text = bin(chunk)
            top = offset + len(text) - 1
            p = text.rfind("1", 2)
            while p >= 0:
                candidates.append(top - p)
                p = text.rfind("1", 2, p)
        offset += step
    if order is not var:
        position = {b: j for j, b in enumerate(var)}
        candidates = _decode(candidates, [1 << position[b] for b in order], sum)
    return candidates


def _ht_minimal(prog: Program, mask: int, a_mask: int) -> bool:
    """True iff the interpretation I with bitmask `mask` over prog.atoms is
    A-stable, A given by `a_mask`: one here-and-there sweep over J, the
    low free atoms taking the shared vectors of `_chunk_patterns`.

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
    for b, pattern in zip(free, _chunk_patterns(cb)):
        values[b] = pattern | here
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
    part of A wider than `_NARROW` that is no definition."""
    prog = compile_formula(f)
    i = frozenset(interp)
    a = frozenset(a)
    if (i & a) - frozenset(prog.atoms):
        return False  # an intensional atom f never mentions is unsupported
    mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in i)
    a_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in a)
    return _ht_minimal(prog, mask, a_mask)


_NARROW = 6  # a part this small gets a slot per nonempty subset; so few atoms take one run in all
_RUN_BITS = 1 << _CHUNK_BITS  # bits of one packed run, and so the bound on a segment
_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")

# A compiled clause `H & C -> h` of a definition: the program of H, the
# positions of its atoms, the positions of C and the position of h, all
# positions into the columns of one fixpoint run (see `_least_fixpoint`).
Clause = tuple[Program, tuple[int, ...], tuple[int, ...], int]
Part = tuple[int, tuple[Clause, ...] | None]  # (bitmask, clauses when the part is a definition)


def _conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of f, every nested conjunction opened, in order."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Conj:
            stack.extend(reversed(g.children))
        else:
            out.append(g)
    return out


def _split_antecedent(ante: Formula, q: AbstractSet[Atom]) -> tuple[Formula, frozenset[Atom]]:
    """The antecedent of a clause as (H, C): C the atoms of q that are its
    direct conjuncts (or the antecedent itself), H the conjunction of the
    rest, top when nothing is left.  With C empty, H is the antecedent
    itself, the very object."""
    if type(ante) is Conj:
        pos_q = frozenset(d.atom for d in ante.children if type(d) is AtomRef and d.atom in q)
        if not pos_q:
            return ante, pos_q
        rest = [d for d in ante.children if not (type(d) is AtomRef and d.atom in q)]
        return (rest[0] if len(rest) == 1 else Conj(tuple(rest))), pos_q
    if type(ante) is AtomRef and ante.atom in q:
        return TOP, frozenset((ante.atom,))
    return ante, frozenset()


def _clause(c: Formula, q: AbstractSet[Atom]) -> tuple[Formula, frozenset[Atom], Atom] | None:
    """c as a clause `H & C -> h` of a definition for q, (H, C, h): h in q,
    C the atoms of q that are direct conjuncts of the antecedent, H the rest
    of it, which must mention no atom of q.  An atom of q is the clause
    `top -> h`.  None when c is no such clause, such as a disjunctive head."""
    if type(c) is AtomRef:
        return (TOP, frozenset(), c.atom) if c.atom in q else None
    if type(c) is not Impl or type(c.rhs) is not AtomRef or c.rhs.atom not in q:
        return None
    body, pos_q = _split_antecedent(c.lhs, q)
    if not atoms_of(body).isdisjoint(q):
        return None
    return body, pos_q, c.rhs.atom


def _definition(conjuncts: Iterable[Formula], prog: Program, part: int) -> tuple[Clause, ...] | None:
    """The conjuncts as the compiled clauses of a definition for the atoms
    of the bitmask `part` over prog.atoms, at their positions there, or
    None when one of them is no clause of such a definition."""
    q = {x for b, x in enumerate(prog.atoms) if part >> b & 1}
    found = []
    for c in conjuncts:
        clause = _clause(c, q)
        if clause is None:
            return None
        found.append(clause)
    position = {x: b for b, x in enumerate(prog.atoms)}.__getitem__
    out = []
    for body, pos_q, head in found:
        body_prog = compile_formula(body)
        out.append((body_prog, tuple(map(position, body_prog.atoms)), tuple(map(position, pos_q)), position(head)))
    return tuple(out)


def _parts(f: Formula, prog: Program, a: AbstractSet[Atom]) -> tuple[list[Part], list[Formula]]:
    """The parts of A & occurring that are left to check, as bitmasks over
    prog.atoms, and the support conjuncts that decide all the others.  The
    parts are the strongly connected components of the positive dependency
    graph of f over those atoms, each with its clauses when it is wider
    than `_NARROW` and a definition.

    By the splitting lemma a classical model I is A-stable iff it is
    C-stable for every part C.  Any coarser partition into unions of whole
    components is as good, so all the atoms of a program of at most
    `_NARROW` atoms, which `_stable_models` decides in one run that reads
    only their union, form one part without a graph, and nothing in such a
    program is ever recognized.

    The defining conjuncts of a part C are those of f, nested conjunctions
    opened, in which an atom of C is strictly positive.  When they form a
    definition for C (see `_clause`), I is C-stable iff its atoms of C are
    the least fixpoint of their clauses.  For a part of more than `_NARROW`
    atoms the part comes with its compiled clauses (see `_definition`), and
    `_stable_subset` runs that fixpoint.  A part {q} of one atom is not
    returned: its fixpoint holds q iff some body H of a clause `H -> q`
    holds (a clause `H & q -> q` derives nothing from the empty start),
    and I satisfies every clause, so I is {q}-stable iff it satisfies the
    support conjunct `q -> Or{H}`, the other half of Clark's completion
    (Fages 1994; Erdem & Lifschitz, TPLP 2003).  The bodies are the very
    objects of f, so that compiling f with its support conjuncts shares
    their ops; with no clause the conjunct is `not q`, and a fact needs
    none.  Every other part comes with None.
    """
    bit = {x: 1 << b for b, x in enumerate(prog.atoms) if x in a}
    if len(prog.atoms) <= _NARROW or not bit:
        return ([(sum(bit.values()), None)] if bit else []), []
    masks = list(bit.values())
    if len(bit) > 1:
        masks = [sum(map(bit.__getitem__, comp)) for comp in components(dep_graph(f, bit.keys()))[0]]
    conjuncts = _conjuncts(f)
    heads = []  # per conjunct, the bitmask of its strictly positive atoms of A
    for c in conjuncts:
        g = c
        while type(g) is Impl:  # only a consequent holds strictly positive atoms
            g = g.rhs
        if type(g) is AtomRef:
            heads.append(bit.get(g.atom, 0))
        else:
            heads.append(sum(map(bit.__getitem__, bit.keys() & strictly_positive(g))))
    # per one-atom part, the bodies of its clauses, None once a defining conjunct is no clause
    atom_at = {m: x for x, m in bit.items()}
    bodies: dict[int, list[Formula] | None] = {m: [] for m in masks if not m & (m - 1)}
    for c, h in zip(conjuncts, heads):
        if h in bodies:
            found = bodies[h]
            if found is not None:
                clause = _clause(c, {atom_at[h]})
                if clause is None:
                    bodies[h] = None
                elif not clause[1]:  # `H & q -> q` is left out
                    found.append(clause[0])
        elif h & (h - 1):  # two or more heads: no clause for any of them
            for m in bodies:
                if m & h:
                    bodies[m] = None
    support = []
    for m, found in bodies.items():
        if found is not None and not any(type(b) is Conj and not b.children for b in found):
            support.append(Impl(AtomRef(atom_at[m]), found[0] if len(found) == 1 else Disj(tuple(found))))
    parts = [
        (m, _definition([c for c, h in zip(conjuncts, heads) if h & m], prog, m) if m.bit_count() > _NARROW else None)
        for m in masks
        if bodies.get(m) is None
    ]
    return parts, support


def _least_fixpoint(fired: Iterable[tuple[int, Sequence[int], int]], size: int) -> list[int]:
    """The least fixpoint of a definition's clauses on every lane at once.

    A lane is one interpretation of the atoms outside the defined set Q,
    and a vector holds one byte 0 or 1 per lane, or a bit for one lane.
    Each clause `H & C -> h` comes as (the lanes where H holds, the
    positions of C, the position of h), positions below `size`; since H
    mentions no atom of Q, its truth is fixed before the first round.  A
    round derives each clause's head on the lanes where its body holds and
    every atom of C is derived, and rounds repeat until one derives nothing
    new.  A lane short of its fixpoint derives an atom in every round, so
    there are at most |Q| + 1 rounds.  Returns the derived lanes of each
    position, 0 for a position no clause derives.
    """
    fired = list(fired)
    derived = [0] * size
    changed = True
    while changed:
        changed = False
        for live, pos, head in fired:
            new = live & ~derived[head]
            for b in pos:
                new &= derived[b]
            if new:
                derived[head] |= new
                changed = True
    return derived


def _fire(clauses: Iterable[Clause], columns: Sequence[int], ones: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Each clause as `_least_fixpoint` takes it, its body's lanes from one
    classical run of its program over the columns (`ones` sets every lane)."""
    for body, body_pos, pos, head in clauses:
        yield body.run([columns[b] for b in body_pos], ones, ones), pos, head


def _lanes(masks: Sequence[int], n: int) -> list[int]:
    """Per atom b < n, the vector whose byte k is 1 iff masks[k] sets bit
    b: the layout of a fixpoint run, one byte per lane."""
    rows = _rows(masks, n)
    return [int.from_bytes(rows[n - 1 - b :: n], "little") for b in range(n)]


def _definition_passed(
    prog: Program, var: Sequence[int], here: int, defined: Sequence[Part], candidates: Sequence[int]
) -> list[int]:
    """The candidates, as in `_stable_subset`, that are C-stable for every
    part C of `defined`, each a definition with its clauses: those whose
    atoms of C are the least fixpoint of C's clauses over their other
    atoms.  One run per part checks up to `_RUN_BITS` candidates, one lane
    each."""
    passed: list[int] = []
    for start in range(0, len(candidates), _RUN_BITS):
        batch = candidates[start : start + _RUN_BITS]
        ones = int.from_bytes(b"\1" * len(batch), "little")
        columns = [ones if here >> b & 1 else 0 for b in range(len(prog.atoms))]
        for b, v in zip(var, _lanes(batch, len(var))):
            columns[b] = v
        wrong = 0
        for part, clauses in defined:
            derived = _least_fixpoint(_fire(clauses, columns, ones), len(columns))
            for j, b in enumerate(var):
                if part >> j & 1:
                    wrong |= derived[b] ^ columns[b]
        passed += itertools.compress(batch, (ones ^ wrong).to_bytes(len(batch), "little"))
    return passed


def _definition_models(prog: Program, var: Sequence[int], clauses: Sequence[Clause], heres: Sequence[int]) -> list[int]:
    """Per context, the bitmask `here` over prog.atoms of the true atoms
    outside `var`, the one assignment c to the atoms at positions `var`
    (bit j of c for var[j]) that is a var-stable model of prog, when prog
    is the conjunction of `clauses`, a definition for those atoms: their
    least fixpoint.  One fixpoint run decides every context, one lane each.
    """
    lanes = len(heres)
    ones = int.from_bytes(b"\1" * lanes, "little")
    derived = _least_fixpoint(_fire(clauses, _lanes(heres, len(prog.atoms)), ones), len(prog.atoms))
    k = len(var)
    rows = bytearray(lanes * k)  # the rows of `_rows`, read back
    for j, b in enumerate(var):
        rows[k - 1 - j :: k] = derived[b].to_bytes(lanes, "little")
    text = rows.translate(_DIGITS)
    return [int(text[i : i + k], 2) for i in range(0, lanes * k, k)]


def _rows(masks: Iterable[int], n: int) -> bytes:
    """Each bitmask over n >= 1 atoms as n bytes 0 or 1, atom n - 1 first."""
    return "".join(map(format, masks, itertools.repeat(f"0{n}b"))).encode().translate(_BITS)


@functools.cache  # sizes sorted, each at most _NARROW: few distinct keys
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
    `slotted`, a list of (part mask, size), each part of at most `_NARROW`
    atoms and its size their number.

    A part has one position per atom, and a slot whose J would drop an
    atom outside I is dead.  Every column is built for the whole batch at
    once from the members' binary rows.  Returns the columns, the mask of
    the live slots, the mask of every segment's bit 0 and the segment
    width.
    """
    sizes = tuple(s for _, s in slotted)
    width = _layout(sizes)[0]
    nbytes = width // 8
    drops, every_slot, first = _replicated(sizes, len(batch))
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
        for b, d in zip(bits, vecs):
            fill = values[b]
            t = fill & d
            values[b] = fill ^ t
            dead |= d ^ t
    return tuple(values), every_slot ^ dead, first, width


@functools.lru_cache(maxsize=16)  # each vector at most one run, 8 KB: a few MB in all
def _replicated(sizes: tuple[int, ...], count: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """`_layout(sizes)` repeated over `count` segments: per part, the drop
    vector of each position; the mask of every slot; and the mask of every
    segment's bit 0."""
    width, drops, every_slot = _layout(sizes)
    nbytes = width // 8

    def repeat(v: int) -> int:
        return int.from_bytes(v.to_bytes(nbytes, "little") * count, "little")

    return tuple(tuple(map(repeat, vecs)) for vecs in drops), repeat(every_slot), repeat(1)


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
[_assignment_run(k, (1 << k) - 1) for k in range(1, _NARROW + 1)]


def _stable_subset(
    prog: Program, var: Sequence[int], here: int, parts: Sequence[Part], candidates: Sequence[int]
) -> list[int]:
    """The A-stable ones among `candidates`, classical models of prog given
    as assignments to the atoms at positions `var` of prog.atoms with the
    context `here`, as in `_stable_models`; A is the union of `parts`.
    prog must be the program itself, never the one conjoined with support
    conjuncts that the candidates may come from (see `_stable_models`).

    By the splitting lemma a candidate I is A-stable iff it is C-stable for
    every part C.  Split prog as G & R, G its defining conjuncts for C,
    those in which an atom of C is strictly positive.  No atom of C is
    strictly positive in R, so by the symmetric splitting theorem
    (Ferraris, Lee, Lifschitz & Palla, IJCAI 2009) with the second part
    empty, SM_C[G & R] is SM_C[G] & R, and I satisfies R: I is C-stable for
    prog iff it is C-stable for G.  When G is a definition for C, clauses
    `H & C' -> q` with q in C, C' atoms of C and H free of C, it has exactly
    one C-stable model per interpretation of the other atoms, its least
    fixpoint (the paper's theorem on definitions).  So a part that comes
    with its clauses (see `_parts`) is decided first, for every candidate
    at once, by comparing its atoms with that fixpoint
    (`_definition_passed`); no subset J of I is ever inspected for it.

    The survivors are checked for the other parts.  A part of at most
    `_NARROW` atoms takes the slots of its nonempty subsets in a segment
    per candidate, and the candidates are checked in packed runs, as many
    segments per run as fit in `_RUN_BITS`.  Every wider part, and a part
    whose segment would pass the bits of one run (the widest first), is
    checked by one chunked sweep, `_ht_minimal`, per candidate that every
    other part passes; so are all parts of a lone candidate, for which
    building columns costs more than the sweeps.  A candidate that holds
    no atom of a swept part has no J below it for that part and is
    C-stable for it without a sweep.
    """
    defined = [part for part in parts if part[1] is not None]
    if defined:
        candidates = _definition_passed(prog, var, here, defined, candidates)
        if len(defined) == len(parts):
            return candidates
    masks = [p for p, clauses in parts if clauses is None]
    swept = [p for p in masks if p.bit_count() > _NARROW]
    slotted = sorted(((p, p.bit_count()) for p in masks if p.bit_count() <= _NARROW), key=itemgetter(1))
    while slotted and (len(candidates) == 1 or sum(1 << s for _, s in slotted) - len(slotted) >= _RUN_BITS):
        swept.append(slotted.pop()[0])
    passed = candidates
    if slotted:
        passed = []
        per_run = _RUN_BITS // _layout(tuple(s for _, s in slotted))[0]
        for start in range(0, len(candidates), per_run):
            batch = candidates[start : start + per_run]
            passed += _verdicts(prog, var, here, _columns(len(var), slotted, batch), batch)
    if swept and passed:
        bits = [1 << b for b in var]
        pairs = list(zip(passed, _decode(passed, bits, sum)))  # each with its bitmask over prog.atoms
        for a_mask in _decode(swept, bits, sum):
            pairs = [(c, m) for c, m in pairs if not m & a_mask or _ht_minimal(prog, here | m, a_mask)]
        passed = [c for c, _ in pairs]
    return passed


def _stable_models(
    prog: Program, var: Sequence[int], here: int, parts: Sequence[Part], swept: Program | None = None
) -> list[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that are A-stable models of prog when the atoms of
    the bitmask `here` are true and all others false, A the union of the
    parts (see `_parts`) and of the one-atom parts that the support
    conjuncts decide; `swept`, when there are support conjuncts, is the
    program of prog's formula conjoined with them, over the same atoms.

    Up to `_NARROW` atoms, one packed run over every assignment decides
    classical truth and minimality together.  More atoms take a classical
    sweep of `swept`, whose models are exactly the classical models of
    prog that are stable for every decided part, and `_stable_subset`
    keeps those that are stable for the parts left, checked against prog
    itself: a support conjunct makes the atoms of its bodies strictly
    positive, so it must not take part in any minimality check.
    """
    k = len(var)
    if not k:  # classical truth of prog in the one interpretation `here`
        return [0] if prog.run([here >> b & 1 for b in range(len(prog.atoms))], 1, 1) else []
    if k <= _NARROW:
        return _verdicts(prog, var, here, _assignment_run(k, sum(p for p, _ in parts)), range(1 << k))
    candidates = _candidate_models(swept or prog, var, here)
    return _stable_subset(prog, var, here, parts, candidates) if parts else candidates


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
    `_parts`).  A part is a strongly connected component of the positive
    dependency graph; by the splitting lemma and the symmetric splitting
    theorem a classical model is C-stable for f iff it is C-stable for the
    conjuncts in which an atom of C is strictly positive.  When those form
    a definition for C, it has one C-stable model per interpretation of
    the other atoms, the least fixpoint of its clauses.  For a part {q} of
    one atom that is the support condition `q -> Or{H}` over the bodies H
    of q's clauses, so those support conjuncts are conjoined to f in the
    walk that compiled it, and the sweep runs on f with them: its models
    are the candidates stable for every such part, and when no part is
    left they are the answer.  A part wider than `_NARROW` that is a
    definition is decided for every candidate by one bit-parallel
    fixpoint run (see `_stable_subset`).  The other parts of at most
    `_NARROW` atoms are decided in shared packed here-and-there runs on f
    itself, and a wider one by a chunked sweep in `_ht_minimal` for each
    candidate that holds one of its atoms and passes every other part.
    The sweep (`_candidate_models`) skips every chunk that
    one Kleene run of the program rules out, and past `_CHUNK_BITS` atoms
    it makes the atoms read by the most ops the high atoms, which fix each
    chunk, when that leaves fewer chunks alive.
    Intensional atoms that never occur in f cannot appear in any A-stable
    model and are pruned up front.  Extensional atoms of sigma that do not
    occur are free: each stable bitmask is spread once to the sorted order
    of all the atoms a model may hold, and every subset of the free atoms'
    bits is joined to it, so the models reach `ModelSet.from_masks` as
    bitmasks in every case.
    """
    a = frozenset(a)
    prog, conjoin = compile_extensible(f)
    occurring = frozenset(prog.atoms)
    sig = frozenset(sigma) if sigma is not None else occurring | a
    check_signature(occurring | a, sig)
    _check_cap(len(sig), max_atoms)

    parts, support = _parts(f, prog, a)
    swept = conjoin(support) if support else None
    masks = _stable_models(prog, range(len(prog.atoms)), 0, parts, swept)
    order: Sequence[Atom] = prog.atoms
    free = sig - a - occurring
    if free:
        order = sorted(occurring | free)
        bit = {x: 1 << k for k, x in enumerate(order)}
        core = [bit[x] for x in prog.atoms]
        joins = [0]
        for x in free:
            joins += [j | bit[x] for j in joins]
        masks = [m | j for m in _decode(masks, core, sum) for j in joins]
    return ModelSet.from_masks(masks, order, sig)
