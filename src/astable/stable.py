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
import struct
from collections import Counter
from operator import add, is_, itemgetter
from typing import AbstractSet, Iterable, Iterator, Sequence

from .depgraph import DepGraph, components, rule_graph, strong_components
from .formula import (
    BOT,
    TOP,
    _INDEX_CODES,
    _KLEENE_BITS,
    DEFAULT_MAX_ATOMS,
    Atom,
    AtomRef,
    Conj,
    Disj,
    Formula,
    Impl,
    Program,
    Rule,
    SignatureError,
    _check_cap,
    _chunk_patterns,
    _node,
    atoms_of,
    check_signature,
    compile_extensible,
    compile_formula,
    disj,
    live_prefixes,
    neg,
    read_rules,
    reduct,
    satisfies,
    set_bits,
    truth_chunks,
)
from .records import Record

Interpretation = frozenset[Atom]

_CHUNK_BITS = 16


def format_interpretation(interp: AbstractSet[Atom]) -> str:
    return "{" + ",".join(str(a) for a in sorted(interp)) + "}"


_FEW = 16  # up to this many bitmasks are decoded one at a time, more through tables
_BYTE_BITS = [bytes(m >> j & 1 for j in range(8)) for m in range(256)]  # bit j of m at byte j


def _selectors(masks: Sequence[int], n: int) -> Iterable[bytes]:
    """Each bitmask over n >= 1 atoms as bytes 0 or 1, atom 0 first, and
    zeros past atom n - 1 up to a whole number of bytes."""
    if n <= 8:
        return map(_BYTE_BITS.__getitem__, masks)
    width = (n + 7) >> 3
    return (b"".join(map(_BYTE_BITS.__getitem__, m.to_bytes(width, "little"))) for m in masks)


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


def _packed(masks: Sequence[int], nbytes: int) -> tuple[bytes, int]:
    """The bitmasks, each of at most nbytes bytes, as one run of bytes,
    and its stride: byte g of masks[k] is at k * stride + g.  Up to 8
    bytes, one `struct.pack` call writes them as the smallest unsigned
    code that holds nbytes (`formula._INDEX_CODES`), whose item size is
    the stride; wider ones are written by `int.to_bytes`, nbytes each."""
    if nbytes > 8:
        return b"".join(map(int.to_bytes, masks, itertools.repeat(nbytes), itertools.repeat("little"))), nbytes
    code = _INDEX_CODES[nbytes - 1]
    return struct.pack(f"<{len(masks)}{code}", *masks), struct.calcsize(code)


def _lookup(masks: Sequence[int], tables: Sequence[list]) -> list:
    """Per bitmask, the sum of its bytes' entries in `tables` (see
    `_tables`), the bytes sliced out of one `_packed` run."""
    if len(tables) == 1:
        return list(map(tables[0].__getitem__, masks))
    flat, stride = _packed(masks, len(tables))
    out = map(tables[0].__getitem__, flat[::stride])
    for g in range(1, len(tables)):
        out = map(add, out, map(tables[g].__getitem__, flat[g::stride]))
    return list(out)


@functools.cache  # one per 8 atoms of the widest model set decoded
def _rank_table(g: int) -> list[str]:
    """`_tables` of the rank string of atoms 8g to 8g + 7: the character
    of rank b + 1 stands for atom b."""
    return _tables([chr(b + 1) for b in range(8 * g, 8 * g + 8)], "".join)[0]


# built at import: the rank tables of every model set within the default cap
[_rank_table(g) for g in range(-(-DEFAULT_MAX_ATOMS // 8))]


@functools.cache  # one per 8 atoms of the widest assignment read off lanes
def _bit_table(g: int) -> list[int]:
    """`_tables` of the bits of atoms 8g to 8g + 7: entry m is m << 8g."""
    return _tables([1 << b for b in range(8 * g, 8 * g + 8)], sum)[0]


def _decode(masks: Sequence[int], pieces: Sequence, join) -> list:
    """Per bitmask over len(pieces) atoms, in the order given, `join` of
    the pieces of the bits it sets, in increasing order: `join` takes an
    iterable, such as `tuple`, `"".join` or `sum`, and adding two of its
    results must give the join of their pieces.

    A handful of bitmasks are decoded one at a time; more through
    `_tables`, one lookup and one addition per 8 atoms, all in C.  The
    texts a model set prints, its rank strings and the spreading of
    bitmasks to other atoms all come from here.
    """
    if len(masks) > _FEW or not pieces:
        return _lookup(masks, _tables(pieces, join))
    return list(map(join, map(itertools.compress, itertools.repeat(pieces), _selectors(masks, len(pieces)))))


def _rank_sorted(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """The bitmasks over n sorted atoms in canonical order: sorted by their
    rank strings (see `_rank_table`)."""
    tables = [_rank_table(g) for g in range(-(-n // 8) or 1)]
    if len(tables) == 1:
        return tuple(sorted(masks, key=tables[0].__getitem__))
    keys = _lookup(masks, tables)
    return tuple(map(masks.__getitem__, sorted(range(len(masks)), key=keys.__getitem__)))


def _formats(atoms: Sequence[Atom], as_json: bool) -> tuple[str, str, str, list[str]]:
    """The head, separator and tail of a printed model, and each atom's
    text, for plain or `--json` output."""
    if as_json:
        import json  # only --json needs it: a CLI run without it does not load it

        return '{"atoms": [', ", ", "]}", [json.dumps(str(x)) for x in atoms]
    return "{", ",", "}", list(map(str, atoms))


def format_masks(masks: Sequence[int], atoms: Sequence[Atom], *, as_json: bool = False) -> list[str]:
    """Each bitmask over the sorted `atoms` (bit b <-> atoms[b]), in the
    order given, as the text of its interpretation, `{a,b}`, or with
    `as_json` as the object `{"atoms": ["a", "b"]}`: for a few models, such
    as a counterexample, or models in an order fixed elsewhere.  A model
    set prints through `ModelSet.text`, which orders its models by these
    texts."""
    if not masks:
        return []
    head, sep, tail, names = _formats(atoms, as_json)
    texts = map(itemgetter(slice(len(sep), None)), _decode(masks, [sep + x for x in names], "".join))
    return (head + (tail + "\n" + head).join(texts) + tail).split("\n")


class ModelSet(Record):
    """A canonically ordered set of interpretations over a fixed signature.

    Each model is held as a bitmask over `atoms`, sorted and distinct (bit
    b <-> atoms[b]).  The canonical order is the order of the models'
    sorted atom tuples, and `from_masks` leaves it to the first reader,
    which sorts by what it reads:
    - `text`, the printed models, joins each model's atom texts with
      "\\x01" and sorts those strings.  "\\x01" and the end of a string sort
      below "(", ")", "," and every identifier character, so that is the
      tuple order;
    - `masks`, and through it `sorted_atoms`, `==`, `over` and
      `intersection`, sort by rank strings: the character of rank b + 1
      for each bit b, which is the tuple order since the atoms are sorted.
    Either keeps its result, and `lines` reuses the text when the set has
    it.  `models`, iteration, `in` and `as_set` are decoded from the
    bitmasks when asked for; two model sets are equal when they hold the
    same models over the same signature.
    """

    # _held: the bitmasks, in canonical order once _ordered is set
    __slots__ = ("atoms", "signature", "_held", "_ordered", "_sorted_atoms", "_text")

    def __init__(self, atoms: tuple[Atom, ...], masks: tuple[int, ...], signature: frozenset[Atom]) -> None:
        """`masks` in canonical order."""
        _set_atoms(self, atoms)
        _set_signature(self, signature)
        _set_held(self, masks)
        _set_ordered(self, True)
        _set_sorted_atoms(self, None)
        _set_text(self, None)

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
        in any order; the first reader orders them.  A model outside the
        signature raises SignatureError here, naming the canonically first
        such model."""
        atoms = tuple(atoms)
        if not signature.issuperset(atoms):
            outside = sum(1 << b for b, x in enumerate(atoms) if x not in signature)
            leaving = [m for m in masks if m & outside]
            if leaving:
                first = _rank_sorted(leaving, len(atoms))[0]
                raise SignatureError(f"model {format_masks([first], atoms)[0]} leaves the signature")
        self = cls(atoms, masks, signature)
        _set_ordered(self, False)
        return self

    @property
    def masks(self) -> tuple[int, ...]:
        """The bitmasks in canonical order, sorted by rank string once."""
        if not self._ordered:
            _set_held(self, _rank_sorted(self._held, len(self.atoms)))
            _set_ordered(self, True)
        return self._held

    def text(self, as_json: bool = False) -> str:
        """The models as printed, one line each, in canonical order (see
        `lines`): with one `_decode` of "\\x01"-joined atom texts, sorted as
        strings and kept."""
        kept = self._text
        if kept is not None and kept[0] == as_json:
            return kept[1]
        text = ""
        if self._held:
            head, sep, tail, names = _formats(self.atoms, as_json)
            keys = _decode(self._held, ["\x01" + x for x in names], "".join)
            keys.sort()
            keys[0] = head + keys[0]
            keys[-1] += tail + "\n"
            text = (tail + "\n" + head).join(keys)
            del keys  # at most two copies of the text are alive at once
            text = text.replace(head + "\x01", head)
            text = text.replace("\x01", sep)
        _set_text(self, (as_json, text))
        return text

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
        return len(self._held)

    def __contains__(self, interp: AbstractSet[Atom]) -> bool:
        bit = {x: 1 << b for b, x in enumerate(self.atoms)}
        return all(map(bit.__contains__, interp)) and sum(map(bit.__getitem__, interp)) in self._held

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelSet):
            return NotImplemented
        return self.signature == other.signature and self.sorted_atoms == other.sorted_atoms

    def __hash__(self) -> int:
        return hash((self.sorted_atoms, self.signature))

    def as_set(self) -> frozenset[Interpretation]:
        return frozenset(map(frozenset, self.sorted_atoms))

    def lines(self, *, as_json: bool = False) -> list[str]:
        """Each model's text, `{a,b}` or with `as_json` `{"atoms": ["a",
        "b"]}`, in canonical order: `text` split into lines when the set
        has that text or no order yet, else `format_masks` of `masks`."""
        kept = self._text
        if self._ordered and (kept is None or kept[0] != as_json):
            return format_masks(self._held, self.atoms, as_json=as_json)
        return self.text(as_json).split("\n")[:-1]

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


ModelSet._fields = ("atoms", "masks", "signature")  # `masks` is read through its property
_set_atoms = ModelSet.atoms.__set__
_set_signature = ModelSet.signature.__set__
_set_held = ModelSet._held.__set__
_set_ordered = ModelSet._ordered.__set__
_set_sorted_atoms = ModelSet._sorted_atoms.__set__
_set_text = ModelSet._text.__set__


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


def _candidate_models(prog: Program, var: Sequence[int], here: int) -> list[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that classically satisfy prog when the atoms of the
    bitmask `here` are true and all others false.  A sweep that fixes some
    atoms hands the true ones to `truth_chunks` as `true_atoms=`, only by
    keyword, which is how perfbench/spans.py tells a block's context sweep
    from the candidate sweep of `enumerate_a_stable`.

    The sweep runs only the sub-chunks that the Kleene run of
    `live_prefixes` leaves live (see `truth_chunks`), its one Kleene run.
    With more than `_CHUNK_BITS` atoms, the atoms that the most ops read
    go last, so that they are the high atoms that fix each chunk, and the
    candidates are mapped back to the bits of `var`.  A chunk of one model
    is read by its bit length, any other from its bytes (`set_bits`),
    lowest bits first.
    """
    atoms = prog.atoms
    context = {}
    if len(var) < len(atoms):
        context["true_atoms"] = {x for b, x in enumerate(atoms) if here >> b & 1}
    order = var
    if len(var) > _CHUNK_BITS:
        reads = Counter(slot for _, left, right, _ in prog.ops for slot in (left, right))
        order = sorted(var, key=lambda b: reads[b + 2])  # atoms[b] sits in slot b + 2
    candidates = []
    offset = 0
    step = 1 << min(len(var), _CHUNK_BITS)
    for chunk in truth_chunks(prog, [atoms[b] for b in order], chunk_bits=_CHUNK_BITS, **context):
        if chunk and not chunk & (chunk - 1):  # one model
            candidates.append(offset + chunk.bit_length() - 1)
        elif chunk:
            candidates += set_bits(chunk, offset)
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


_NARROW = 6  # a part this small is decided by its loop formulas, at most 63; so few atoms take one run in all
_RUN_BITS = 1 << _CHUNK_BITS  # lanes of one fixpoint run, a byte each

# A clause `H & C -> h` of a definition: H, as its program or, where it
# is made of literals (see `_literals`), as the positions of its atoms and
# of its negated atoms; the positions of every atom H mentions, in the
# order of its program's atoms when it has one; the positions of C; and
# the position of h, all positions into the columns of one fixpoint run
# (see `_least_fixpoint`).
Clause = tuple[Program | tuple[Sequence[int], Sequence[int]], Sequence[int], Sequence[int], int]
Part = tuple[int, tuple[Clause, ...] | None]  # (bitmask, clauses when the part is a definition)


_NO_ATOMS: frozenset[Atom] = frozenset()  # shared by every clause with no atom of q in its body


def _clause(rule: Rule, q: AbstractSet[Atom]) -> tuple[Formula, frozenset[Atom], Atom] | str:
    """The piece a record reads (see `formula.Rule`) as a clause `H & C ->
    h` of a definition for q, (H, C, h): h in q, C the atoms of q that are
    direct conjuncts of the antecedent, H the rest of it, which must
    mention no atom of q, the one object `TOP` when nothing is left, so
    that its clauses share one compiled body, and the antecedent itself,
    the very object, when C is empty.  An atom of q is the clause
    `top -> h`.  When the piece is no such clause, such as a disjunctive
    head, the reason: "consequent is not a defined atom", or "defined atom
    X occurs in a clause body" for the least such atom X, read off the
    record's clause-body atoms; the rest is read off the formula's top two
    levels.  `_definition` reads H again, as literals where it can."""
    c, _, _, _, nested = rule
    if type(c) is AtomRef and c.atom in q:
        return TOP, _NO_ATOMS, c.atom
    if type(c) is not Impl or type(c.rhs) is not AtomRef or c.rhs.atom not in q:
        return "consequent is not a defined atom"
    if not nested.isdisjoint(q):
        return f"defined atom {min(nested.intersection(q))} occurs in a clause body"
    ante, head = c.lhs, c.rhs.atom
    if type(ante) is Conj:
        pos_q = frozenset([d.atom for d in ante.children if type(d) is AtomRef and d.atom in q])
        if pos_q:
            rest = [d for d in ante.children if not (type(d) is AtomRef and d.atom in q)]
            return (rest[0] if len(rest) == 1 else Conj(tuple(rest)) if rest else TOP), pos_q, head
    elif type(ante) is AtomRef and ante.atom in q:
        return TOP, frozenset((ante.atom,)), head
    return ante, _NO_ATOMS, head


def _literals(body: Formula, position) -> tuple[list[int], list[int]] | None:
    """The positions (`position` maps atoms to them) of the atoms and of
    the negated atoms of a clause body H that is `top`, an atom, `not` an
    atom or a conjunction of such direct conjuncts, read off those
    conjuncts; None for any other body, which is compiled."""
    atoms: list[int] = []
    negated: list[int] = []
    for d in body.children if type(body) is Conj else (body,):
        if type(d) is AtomRef:
            atoms.append(position[d.atom])
        elif type(d) is Impl and type(d.lhs) is AtomRef and type(d.rhs) is Disj and not d.rhs.children:
            negated.append(position[d.lhs.atom])
        else:
            return None
    return atoms, negated


def _clauses(rules: Iterable[Rule], q: AbstractSet[Atom]) -> list[tuple[Formula, frozenset[Atom], Atom]] | None:
    """The clause pass: each rule as a clause `H & C -> h` of a definition
    for the atoms q, (H, C, h) as `_clause` reads it, or None when one of
    them is no such clause.  It reads the records alone and compiles
    nothing, so `splitting.modular_solve` reads it once per step, before
    any unit is solved: its cap counts a unit that gives None, which is
    enumerated, and the step of every other unit places these clauses
    (`_definition`)."""
    found = []
    for rule in rules:
        clause = _clause(rule, q)
        if type(clause) is str:
            return None
        found.append(clause)
    return found


def _definition(found: Iterable[tuple[Formula, frozenset[Atom], Atom]], position) -> tuple[Clause, ...]:
    """The position pass: the clauses `_clauses` found, at the positions
    `position` maps their atoms to, the columns of one fixpoint run.  Each
    body is read once per body object, such as the one `top` of a unit's
    clauses: as its literals where it is made of them (see `_literals`),
    else compiled."""
    read: dict[int, tuple] = {}  # per body object
    out = []
    for body, pos_q, head in found:
        got = read.get(id(body))
        if got is None:
            literals = _literals(body, position)
            if literals is not None:
                got = literals, literals[0] + literals[1]
            else:
                body_prog = compile_formula(body)
                got = body_prog, [position[x] for x in body_prog.atoms]
            read[id(body)] = got
        out.append((*got, [position[x] for x in pos_q], position[head]))
    return tuple(out)


def _parts(rules: Sequence[Rule], atoms: Sequence[Atom], a: AbstractSet[Atom]) -> tuple[list[Part], list[Formula]]:
    """The parts of A & occurring wider than `_NARROW` atoms, as bitmasks
    over `atoms`, the sorted atoms of the conjunction f of the rules'
    formulas, as its program has them, each with its clauses when it is a
    definition, else None; and the loop formulas that decide every other
    part in the sweep.
    The parts are the strongly connected components of the positive
    dependency graph of f over those atoms, and each part's defining
    conjuncts are the rules, one per piece of f, whose heads meet it, all
    read off the records (see `formula.Rule`).  This is where a part's
    route is chosen, as `_unit_models` chooses a modular unit's and
    `_read_order` which definition parts are derived.

    Why a classical model I of f is C-stable for a part C of at most
    `_NARROW` atoms iff I satisfies the loop formulas of C:
    1. By the splitting lemma I is A-stable iff it is C-stable for every
       part C (any coarser partition into whole components is as good).
    2. Let G be the defining conjuncts of C, those of f (nested
       conjunctions opened) in which an atom of C is strictly positive,
       and R the rest.  No atom of C is strictly positive in R, so by the
       symmetric splitting theorem (Ferraris, Lee, Lifschitz & Palla,
       IJCAI 2009) with the second part empty, SM_C[G & R] is SM_C[G] & R:
       I is C-stable for f iff it is C-stable for G.
    3. By the generalized Lin-Zhao theorem (Ferraris, Lee & Lifschitz,
       AMAI 2006) I is then C-stable iff no loop Y of C inside I, a
       nonempty set whose subgraph is strongly connected (see `_loops`),
       has <I - Y, I> satisfying G in here-and-there.  For Y inside I,
       <I - Y, I> falsifies G iff I satisfies the loop formula
       `And{Y, here_Y(c) per c in G that is no rule} -> Or{here_Y(B) per
       rule B -> h in G with h in Y}`, here_Y as in `_here`, because a
       rule with h in Y holds in <I - Y, I> iff here_Y(B) is false.
    4. A rule B -> h with h outside Y holds in <I - Y, I>: when here_Y(B)
       is true, so is B in I, hence h, which I - Y keeps.  A fact counts
       as the rule `top -> h`, so a fact in Y leaves Y no formula; a
       conjunct c with here_Y(c) = c holds in I and is left out.  For a
       one-atom part {q} with clauses only this is the support
       conjunct `q -> Or{H}`, the other half of Clark's completion (Fages
       1994; Erdem & Lifschitz, TPLP 2003): a body `H & q` becomes bot.
    5. By the here-equals-there lemma, here_Y(B) is true in I iff B is
       when no atom of Y is positive nonnegated in B, so B itself, the
       very object, stands for it, and compiling f with its loop formulas
       shares B's ops.
    A wider part that is a definition (see `_clause`) comes with its
    clauses (see `_definition`): by step 2 and the paper's theorem on
    definitions, I is C-stable iff its atoms of C are the least fixpoint
    of their clauses over I's other atoms.  So `_stable_models` derives
    such a part's atoms instead of sweeping them, unless it lies on a cycle
    of body reads between definition parts (see `_read_order`); then they
    are swept, and compared with that fixpoint.  Any other wider part is
    checked by `_ht_minimal`.
    """
    bit = {x: 1 << b for b, x in enumerate(atoms) if x in a}
    if not bit:
        return [], []
    graph = rule_graph(rules, frozenset(bit))
    comps, comp_of = components(graph)
    defining: list[list[Rule]] = [[] for _ in comps]  # per part, in the order of f
    for r in rules:
        for k in {comp_of[x] for x in r.heads if x in comp_of}:
            defining[k].append(r)
    parts, loop_formulas = [], []
    position = None  # built by the first definition part, and only then
    for comp, part_rules in zip(comps, defining):
        if len(comp) > _NARROW:
            found = _clauses(part_rules, comp)
            if found is not None:
                position = position or {x: b for b, x in enumerate(atoms)}
                found = _definition(found, position)
            parts.append((sum(map(bit.__getitem__, comp)), found))
        else:
            loop_formulas += _loop_formulas(comp, [r.formula for r in part_rules], graph)
    return parts, loop_formulas


@functools.cache  # keyed by the subgraph of a part of at most _NARROW atoms
def _loops(succs: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The loops of the digraph over 0..k-1 with these successor lists, as
    bitmasks: the nonempty vertex sets whose subgraph is strongly
    connected, every singleton among them."""
    found = []
    for y in range(1, 1 << len(succs)):
        index = {v: j for j, v in enumerate(v for v in range(len(succs)) if y >> v & 1)}
        if len(strong_components([[index[w] for w in succs[v] if w in index] for v in index])[0]) == 1:
            found.append(y)
    return tuple(found)


def _here(f: Formula, y: Sequence[Atom]) -> Formula:
    """A formula true in an interpretation I that holds every atom of Y iff
    <I - Y, I> satisfies f in here-and-there: an atom of Y becomes bot, and
    an implication G -> H becomes (G -> H) & (here G -> here H), because an
    implication also needs its there-value.  A subformula that does not
    change is kept as the very object, so that the compile walk shares its
    ops, and bot is folded: a conjunction with it is bot, a disjunction
    drops it, and an implication from it keeps only its there-value, which
    is H itself for `q -> H` with q in Y.  One explicit-stack walk, so any
    depth is safe."""
    done: dict[int, Formula] = {}
    stack: list = [f]  # a node below None has its children above it
    while stack:
        g = stack.pop()
        if g is not None:
            if type(g) is AtomRef:
                done[id(g)] = BOT if g.atom in y else g
            elif type(g) is Impl and type(g.lhs) is AtomRef and g.lhs.atom in y:
                done[id(g)] = g.rhs
            elif id(g) not in done:
                stack += (g, None, *((g.lhs, g.rhs) if type(g) is Impl else g.children))
            continue
        g = stack.pop()
        kids = (g.lhs, g.rhs) if type(g) is Impl else g.children
        new = [done[id(c)] for c in kids]
        if all(map(is_, new, kids)):
            done[id(g)] = g
        elif type(g) is Impl:
            done[id(g)] = g if new[0] is BOT else _node(Conj, (g, Impl(*new)))
        elif type(g) is Conj:
            done[id(g)] = BOT if any(c is BOT for c in new) else _node(Conj, new)
        else:
            new = [c for c in new if c is not BOT]
            done[id(g)] = (new[0] if len(new) == 1 else _node(Disj, new)) if new else BOT
    return done[id(f)]


def _loop_formulas(comp: AbstractSet[Atom], conjuncts: Sequence[Formula], graph: DepGraph) -> list[Formula]:
    """The loop formulas of a part of at most `_NARROW` atoms with its
    defining conjuncts (see `_parts`), one per loop that no fact derives
    and whose antecedent is not bot.  The body of a rule is copied only
    when the graph has an edge from the rule's head into the loop."""
    atoms = sorted(comp)
    succs = tuple([tuple([atoms.index(w) for w in graph.successors(x) if w in comp]) for x in atoms])
    facts, rules, others = 0, [], []  # rules as (body, the head's position)
    for c in conjuncts:
        if type(c) is AtomRef:
            facts |= 1 << atoms.index(c.atom)
        elif type(c) is Impl and type(c.rhs) is AtomRef:
            rules.append((c.lhs, atoms.index(c.rhs.atom)))
        else:
            others.append(c)
    out: list[Formula] = []
    for y in _loops(succs):
        ys = [x for j, x in enumerate(atoms) if y >> j & 1]
        copies = [_here(c, ys) for c in others]
        if y & facts or any(h is BOT for h in copies):
            continue
        ante = [*map(AtomRef, ys), *(h for h, c in zip(copies, others) if h is not c)]
        bodies = [_here(b, ys) if any(y >> w & 1 for w in succs[j]) else b for b, j in rules if y >> j & 1]
        bodies = [b for b in bodies if b is not BOT]
        support = bodies[0] if len(bodies) == 1 else _node(Disj, bodies)
        out.append(Impl(ante[0] if len(ante) == 1 else _node(Conj, ante), support))
    return out


def _least_fixpoint(fired: Sequence[tuple[int, Sequence[int], int]], derived) -> None:
    """The least fixpoint of a definition's clauses on every lane at once,
    written into `derived`, which maps each position of the defined set Q
    (a list of columns, or a dict of Q's positions alone) to its lanes, 0
    at the start.

    A lane is one interpretation of the atoms outside Q, and a vector holds
    one byte 0 or 1 per lane, or a bit for one lane.  Each clause `H & C
    -> h` comes as (the lanes where H holds, the positions of C, the
    position of h); since H mentions no atom of Q, its truth is fixed
    before the first firing.  A clause fires by deriving its head on the
    lanes where its body holds and every atom of C is derived.  Every
    clause fires once, in the order given, and after that again each time
    one of its C atoms gains lanes, taken from a worklist until none is
    left: the firings follow the derivation, not the listing, so a ring
    listed against its direction takes about two firings per clause, not
    one round of all of them per atom.  A position no clause derives keeps
    its 0.  Nothing here grows with the run around Q: a run of many
    definitions fills one list of columns, a definition at a time.
    """
    readers: dict[int, list] = {}  # per position, the clauses with it in C
    for clause in fired:
        for b in clause[1]:
            readers.setdefault(b, []).append(clause)
    work = fired[::-1]  # a stack, the first clause on top
    while work:
        live, pos, head = work.pop()
        new = live & ~derived[head]
        for b in pos:
            new &= derived[b]
        if new:
            derived[head] |= new
            if head in readers:
                work += readers[head]


def _fire(clauses: Iterable[Clause], columns: Sequence[int], ones: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Each clause as `_least_fixpoint` takes it, its body's lanes from one
    classical run of its program over the columns, or, for a body read as
    literals, the AND of its atoms' columns and the AND-NOT of its negated
    atoms' columns (`ones` sets every lane)."""
    out = []
    for body, reads, pos, head in clauses:
        if type(body) is Program:
            live = body.run([columns[b] for b in reads], ones, ones)
        else:
            live = ones
            for b in body[0]:
                live &= columns[b]
            for b in body[1]:
                live &= ~columns[b]
        out.append((live, pos, head))
    return out


def _lanes(masks: Sequence[int], bits: Sequence[int]) -> list[int]:
    """Per listed bit, distinct single bits, the vector whose byte k is 1
    iff masks[k] sets that bit: the layout of a fixpoint run, one byte per
    lane; the masks may set other bits too.  One bitmask gives each vector
    as one bit.  More are joined as bytes once (`_packed`), from the lowest
    byte that holds a listed bit up, and the byte of each listed bit,
    sliced out of every lane, is one vector whose bit j of each byte is
    bit j of that byte, shifted down to the listed bit's."""
    if len(masks) == 1 or not bits:
        return [1 if masks[0] & k else 0 for k in bits]
    span = 0
    for k in bits:
        span |= k
    low = ((span & -span).bit_length() - 1) & -8  # the first bit of the lowest byte that holds one
    width = (max(span, max(masks)).bit_length() - low + 7) >> 3  # bytes up to the highest a mask sets
    flat, stride = _packed(list(map(low.__rrshift__, masks)) if low else masks, width)
    ones = int.from_bytes(b"\1" * len(masks), "little")
    out = []
    for k in bits:
        j = k.bit_length() - 1 - low
        out.append(int.from_bytes(flat[j >> 3 :: stride], "little") >> (j & 7) & ones)
    return out


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _read(columns: Sequence[int], lanes: int, keep: bytes | None) -> list[int]:
    """Per lane of a fixpoint run, in order, the bitmask whose bit j is
    set iff columns[j] is 1 on it (the inverse of `_lanes`), or only the
    lanes on which `keep`, one byte 0 or 1 per lane, is 1.  On one lane
    each column is 0 or 1, the binary digits of the bitmask, last column
    first.  On more, eight columns at a time are shifted into one vector,
    whose bytes `_bit_table` turns into that byte's bits of each
    bitmask."""
    if lanes == 1:
        return [int(b"0" + bytes(columns[::-1]).translate(_DIGITS), 2)] if keep is None or keep[0] else []
    total = None
    for g in range(0, max(len(columns), 1), 8):
        byte = 0
        for j, v in enumerate(columns[g : g + 8]):
            byte |= v << j
        data = byte.to_bytes(lanes, "little")
        values = map(_bit_table(g >> 3).__getitem__, data if keep is None else itertools.compress(data, keep))
        total = values if total is None else map(add, total, values)
    return list(total)


def _lane_models(
    size: int, var: Sequence[int], here: int, bits: Sequence[tuple[int, int]], batches: Iterable[Sequence[int]],
    derived: Sequence[tuple[Clause, ...]], compared: Sequence[Part], check: Program | None,
) -> list[int]:
    """The lanes that pass, each as its assignment c to the atoms at
    positions `var` of the `size` atoms of a run (bit j of c for var[j]),
    in order: the one runner of a definition's fixpoint, for the derived
    and compared parts of `enumerate_a_stable` and for every run of
    definition units of `splitting.modular_solve`.

    A lane is one interpretation: each (position, bit) pair of `bits`
    sets the atom at that position iff the bitmask of `batches` that is
    the lane sets that bit, the atoms of the bitmask `here` are true, the
    atoms of each definition of `derived`, given as its clauses (see
    `_definition`), are the least fixpoint of those clauses, filled in
    the order given, and every other atom is false.  Each definition of
    `derived` may read only the atoms set before it, and its own atoms
    start false.  A lane passes when the atoms of each part of
    `compared`, a definition too, are the least fixpoint of its clauses
    there, and, given a `check` program over the same atoms, it is true
    there.  One run per batch, a batch at most `_RUN_BITS` lanes, one byte
    each (`_lanes`), read back by `_read`.
    """
    listed = [k for _, k in bits]
    out: list[int] = []
    for batch in batches:
        lanes = len(batch)
        ones = int.from_bytes(b"\1" * lanes, "little")
        columns = [ones if here >> b & 1 else 0 for b in range(size)] if here else [0] * size
        for (b, _), v in zip(bits, _lanes(batch, listed)):
            columns[b] = v
        for clauses in derived:
            _least_fixpoint(_fire(clauses, columns, ones), columns)
        wrong = 0
        for part, clauses in compared:
            fixed = dict.fromkeys([b for b in var if part >> b & 1], 0)
            _least_fixpoint(_fire(clauses, columns, ones), fixed)
            for b, v in fixed.items():
                wrong |= v ^ columns[b]
        keep = (check.run(columns, ones, ones) if check else ones) & ~wrong
        out += _read([columns[b] for b in var], lanes, None if keep == ones else keep.to_bytes(lanes, "little"))
    return out


def _batches(masks: Sequence[int]) -> Iterator[Sequence[int]]:
    """The bitmasks in runs of at most `_RUN_BITS`, in order."""
    return (masks[start : start + _RUN_BITS] for start in range(0, len(masks), _RUN_BITS))


def _live_batches(
    prog: Program, unknown: Sequence[Atom], swept: Sequence[Atom], true: AbstractSet[Atom]
) -> Iterator[Sequence[int]]:
    """The assignments to the atoms `swept` (bit j for swept[j]), in
    increasing order and in batches of at most `_RUN_BITS`, that one
    Kleene run of prog (`live_prefixes`) leaves live when the atoms
    `unknown` are unknown, those of `true` true and all others false.
    Past `_KLEENE_BITS` swept atoms, the low ones are unknown in that run
    too, so that its vectors stay within 2**_KLEENE_BITS bits, and each
    live assignment to the high ones stands for every one to the low."""
    low = max(0, len(swept) - _KLEENE_BITS)
    live = set_bits(live_prefixes(prog, [*unknown, *swept], true, len(unknown) + low))
    if not low:
        return _batches(live)
    lanes = itertools.chain.from_iterable(range(hi << low, (hi + 1) << low) for hi in live)
    return iter(lambda: list(itertools.islice(lanes, _RUN_BITS)), [])


def _read_order(parts: Sequence[Part]) -> tuple[list[Part], list[Part]]:
    """The definitions among `parts` as (derived, compared).  A part reads
    another when a body H of its clauses mentions one of the other's
    atoms, never one of its own.  The parts on a cycle of reads, which
    passes through a `not` since each part is a whole component of the
    positive dependency graph, are compared; every other part is derived,
    listed after each part it reads: Tarjan's algorithm closes the
    component of a part after those of the parts it reads."""
    defined = [p for p in parts if p[1] is not None]
    reads = [sum({1 << b for _, body_reads, _, _ in clauses for b in body_reads}) for _, clauses in defined]
    comps, _ = strong_components([[j for j, (q, _) in enumerate(defined) if q & r] for r in reads])
    derived = [defined[comp[0]] for comp in comps if len(comp) == 1]
    return derived, [defined[i] for comp in comps if len(comp) > 1 for i in comp]


@functools.cache  # k at most _NARROW: fewer than 2**(_NARROW + 1) keys
def _assignment_run(k: int, a: int) -> tuple[tuple[int, ...], int, int, int]:
    """One packed run over every assignment c < 2**k to k atoms, segment c
    for c, when the atoms set in the bitmask `a` form the part: the
    columns, the mask of the live slots, the mask of every segment's bit 0
    and the segment width.

    Bit 0 of a segment stands for J = I.  A part of s atoms follows with
    2**s - 1 slots, slot S for J = I minus the part's atoms at the
    positions set in S, and the slot is dead when one of them is outside
    I.  An atom's column is 1 on each segment whose I holds it, except on
    the slots that drop it."""
    s = a.bit_count()
    drops = dict(zip((b for b in range(k) if a >> b & 1), _chunk_patterns(s)))
    n = max(1, (1 << s) // 8)  # bytes per segment
    dead = [0]  # per segment, the slots that drop an atom outside its I
    for b in range(k):
        dead = [d | drops.get(b, 0) for d in dead] + dead
    live = int.from_bytes(b"".join((((1 << (1 << s)) - 2) & ~d).to_bytes(n, "little") for d in dead), "little")
    # bit b of c is 0 on 2**b segments, then 1 on the next 2**b, and so on
    on = [((1 << 8 * n) - 1 ^ drops.get(b, 0)).to_bytes(n, "little") for b in range(k)]
    columns = tuple(int.from_bytes((bytes(n << b) + on[b] * (1 << b)) * (1 << k >> b >> 1), "little") for b in range(k))
    return columns, live, int.from_bytes((b"\1" + bytes(n - 1)) * (1 << k), "little"), 8 * n


# built at import: the tables of every modular block, whose atoms are all of A
[_assignment_run(k, (1 << k) - 1) for k in range(_NARROW + 1)]


def _verdicts(prog: Program, var: Sequence[int], here: int, a: int) -> list[int]:
    """The assignments c to the k atoms at positions `var` of prog.atoms
    whose segment of one run of prog over `_assignment_run(k, a)` has the
    root true at J = I, its bit 0, and false on every live slot, when the
    atoms of the bitmask `here` are true and all others false.

    `root & live` sets no bit 0, so adding every other bit to it carries
    into the next segment's bit 0 exactly from each segment it hits."""
    columns, live, first, width = _assignment_run(len(var), a)
    ones = (first << width) - first
    values = [ones if here >> b & 1 else 0 for b in range(len(prog.atoms))]
    for b, v in zip(var, columns):
        values[b] = v
    root = prog.run(values, ones, first, width)
    rejected = ((root & live) + (ones ^ first)) >> width & first
    stable = (root & (first ^ rejected)).to_bytes(width << len(var) >> 3, "little")
    return list(itertools.compress(range(1 << len(var)), stable[:: width // 8]))


def _stable_subset(
    prog: Program, var: Sequence[int], here: int, parts: Sequence[Part], candidates: Sequence[int]
) -> list[int]:
    """The A-stable ones among `candidates`, classical models of prog given
    as assignments to the atoms at positions `var` of prog.atoms with the
    context `here`, as in `_stable_models`, in the order given; A is the
    union of `parts`, parts of `_parts` wider than `_NARROW` that are no
    definition, whose atoms were swept.  prog must be the program itself,
    never the one conjoined with loop formulas that the candidates come
    from (see `_stable_models`).

    By the splitting lemma a candidate I is A-stable iff it is C-stable for
    every part C: one chunked sweep, `_ht_minimal`, per part and per
    candidate that every earlier part passes.  A candidate that holds no
    atom of a part has no J below it for that part and is C-stable for it
    without a sweep.
    """
    pairs = zip(candidates, _decode(candidates, [1 << b for b in var], sum))  # each with its mask over prog.atoms
    for a_mask, _ in parts:
        pairs = [(c, m) for c, m in pairs if not m & a_mask or _ht_minimal(prog, here | m, a_mask)]
    return [c for c, _ in pairs]


def _stable_models(
    prog: Program, var: Sequence[int], here: int, a: int, parts: Sequence[Part] = (), swept: Program | None = None
) -> list[int]:
    """The assignments c to the atoms at positions `var` of prog.atoms (bit
    j of c for var[j]) that are A-stable models of prog when the atoms of
    the bitmask `here` are true and all others false, A the atoms of the
    bitmask `a` over `var`.

    Up to `_NARROW` atoms, one packed run over every assignment decides
    classical truth and minimality together; with none, its one segment
    is classical truth in `here`.  More atoms need A to be the union of
    `parts` (see `_parts`) and of the parts that their loop formulas
    decide; `swept`, when there are loop formulas, is the program of
    prog's formula conjoined with them, over the same atoms.  Its models
    are exactly the classical models of prog that are stable for every
    part of at most `_NARROW` atoms.

    A wide definition part on no cycle of body reads (see `_read_order`)
    has exactly one C-stable extension per interpretation of the other
    atoms, the least fixpoint of its clauses, so its atoms are derived,
    not swept: one Kleene run of `swept` over the other atoms of `var`,
    with the derived ones unknown, gives the live assignments to them
    (`_live_batches`), and `_lane_models` fills each derived part in read
    order, compares every other definition part with its fixpoint and
    keeps the lanes where `swept` is true.  With no part to derive, a
    classical sweep of `swept` over all of `var` gives the candidates
    (`_candidate_models`), and `_lane_models` compares each definition
    part, all on a cycle of reads, with its fixpoint on every candidate at
    once, one lane each; no subset J of a candidate is ever inspected for
    it.  Either way, `_stable_subset` keeps those that are stable for the
    wide parts left, checked against prog itself: a loop formula makes the
    atoms of its bodies strictly positive, so it must not take part in any
    minimality check.
    """
    if len(var) <= _NARROW:
        return _verdicts(prog, var, here, a)
    swept = swept or prog
    derived, compared = _read_order(parts) if parts else ((), ())
    if derived:
        atoms = prog.atoms
        fixed = sum(part for part, _ in derived)
        kept = [b for b in var if not fixed >> b & 1]
        unknown = [atoms[b] for b in var if fixed >> b & 1]
        true = {x for b, x in enumerate(atoms) if here >> b & 1}
        lanes = _live_batches(swept, unknown, [atoms[b] for b in kept], true)
        bits = [(b, 1 << j) for j, b in enumerate(kept)]
        candidates = _lane_models(len(atoms), var, here, bits, lanes, [c for _, c in derived], compared, swept)
    else:
        candidates = _candidate_models(swept, var, here)
        if compared:
            bits = [(b, 1 << j) for j, b in enumerate(var)]
            candidates = _lane_models(len(prog.atoms), var, here, bits, _batches(candidates), (), compared, None)
    others = [part for part in parts if part[1] is None]
    return _stable_subset(prog, var, here, others, candidates) if others else candidates


def _unit_models(
    rules: Sequence[Rule], unit: Sequence[int], context: Sequence[tuple[int, int]], contexts: Sequence[int]
) -> list[list[int]]:
    """Per context, in order, the A-stable assignments of an enumerated
    unit of `splitting.modular_solve`, one for which `_clauses` gives None,
    with these rules, A = the unit's atoms, at positions `unit` of the
    sorted atoms of the rules, with the context fixed: bit j of each for
    the atom at position unit[j].  A context is a bitmask over sigma;
    `context` pairs the position of each atom it may set with that atom's
    bit over sigma, and every other position outside the unit reads false.

    The conjunction of the rules' formulas, in the order given, is compiled
    by one walk (`formula.compile_extensible`), and each context is solved
    by one `_stable_models` call on it: a unit of at most `_NARROW` atoms
    by one packed run, a wider one by the sweep with the parts of its
    atoms (see `_parts`), its loop formulas conjoined by continuing that
    walk.  A unit that is a definition never gets here: its step places
    its clauses instead of compiling it, and `_lane_models` runs them.
    """
    prog, conjoin = compile_extensible([r.formula for r in rules])
    parts, swept = (), None
    if len(unit) > _NARROW:
        parts, loop_formulas = _parts(rules, prog.atoms, frozenset(map(prog.atoms.__getitem__, unit)))
        swept = conjoin(loop_formulas) if loop_formulas else None
    a = (1 << len(unit)) - 1
    out = []
    for ctx in contexts:
        here = 0
        for b, k in context:
            if ctx & k:
                here |= 1 << b
        out.append(_stable_models(prog, unit, here, a, parts, swept))
    return out


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
    all of its atoms, the routine that also solves every unit of
    `splitting.modular_solve` but a definition (see `_unit_models`): with at
    most `_NARROW` atoms by one packed run over every assignment, else one
    part of A at a time (see `_parts`, which reads the records of f's
    pieces, `formula.read_rules`).  A part is a strongly connected
    component of the positive dependency graph; by the splitting lemma and
    the symmetric splitting theorem a classical model is C-stable for f iff
    it is C-stable for the conjuncts in which an atom of C is strictly
    positive.  A part of at most `_NARROW` atoms is decided by its loop
    formulas, which are conjoined to f in the walk that compiled it, so
    that every classical check runs on f with them.  A wider part that is
    a definition has one C-stable model per interpretation of the other
    atoms, the least fixpoint of its clauses: unless it is on a cycle of
    body reads between definition parts (see `_read_order`), its atoms are
    not swept but derived, part after part, on every live assignment to
    the other atoms at once, one byte lane each, and one run of f with the
    loop formulas over those lanes keeps the models (see `_lane_models`).
    With no part to derive, a vectorized sweep over all the atoms gives the
    candidates (`_candidate_models`): it runs only the sub-chunks of 2**8
    assignments that one Kleene run of the program leaves live, a chunk of
    2**16 whole when all of its sub-chunks are, the live ones of the other
    chunks packed together, and past `_CHUNK_BITS` atoms it makes the atoms
    read by the most ops the high atoms, which fix each chunk; a
    definition part left is compared with its fixpoint on every candidate
    at once.  Any other wider part is checked by a chunked sweep in
    `_ht_minimal` for each candidate that holds one of its atoms and
    passes every other part (see `_stable_subset`).
    Intensional atoms that never occur in f cannot appear in any A-stable
    model and are pruned up front.  Extensional atoms of sigma that do not
    occur are free: each stable bitmask is spread once to the sorted order
    of all the atoms a model may hold, and every subset of the free atoms'
    bits is joined to it, so the models reach `ModelSet.from_masks` as
    bitmasks in every case.  A given sigma wider than max_atoms raises
    CapExceeded before f is compiled, or SignatureError when it omits an
    atom of f or a, as any other sigma that omits one does.
    """
    a = frozenset(a)
    sig = None if sigma is None else frozenset(sigma)
    if sig is not None and len(sig) > max_atoms:
        # refused before any compile, and after the signature check, which
        # then takes the atoms of f from one walk of its tree
        check_signature(atoms_of(f) | a, sig)
        _check_cap(len(sig), max_atoms)
    prog, conjoin = compile_extensible((f,))
    occurring = frozenset(prog.atoms)
    if sig is None:
        sig = occurring | a
    check_signature(occurring | a, sig)
    _check_cap(len(sig), max_atoms)

    # up to _NARROW atoms, one packed run decides A: no graph, no loop formula
    parts, loop_formulas = _parts(read_rules(f), prog.atoms, a) if len(prog.atoms) > _NARROW else ((), ())
    swept = conjoin(loop_formulas) if loop_formulas else None
    a_mask = sum(1 << b for b, x in enumerate(prog.atoms) if x in a)
    masks = _stable_models(prog, range(len(prog.atoms)), 0, a_mask, parts, swept)
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
