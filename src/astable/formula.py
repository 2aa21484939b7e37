"""Ground formula AST with set-valued connectives.

Formulas are immutable trees built from atoms, set-valued conjunction and
disjunction nodes, and implications.  Conjunction and disjunction children are
deduplicated and kept in a fixed structural order, so structural equality is
decidable and every formula has exactly one representation.  `top` is the
empty conjunction, `bot` the empty disjunction, and `not F` abbreviates
`F -> bot`; none of these is a separate node kind.
"""

from __future__ import annotations

import functools
import re
import struct
from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter, itemgetter, sub
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .records import Record

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
KEYWORDS = frozenset({"not", "top", "bot", "And", "Or"})


class SignatureError(ValueError):
    """A supplied signature does not cover all occurring atoms."""


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured atom cap."""


DEFAULT_MAX_ATOMS = 24  # the atom cap of every exhaustive enumeration that is not given one


def _check_cap(n: int, max_atoms: int) -> None:
    if n > max_atoms:
        raise CapExceeded(
            f"enumeration over {n} atoms exceeds the cap of {max_atoms}; "
            f"pass a larger max_atoms (or --max-atoms) if this is intended"
        )


class Atom(tuple):
    """A propositional atom: a name plus a tuple of constant arguments.

    Atoms are totally ordered by (name, args); that order fixes all canonical
    output in the package.  An atom is the tuple (name, args), so hashing,
    equality and that order run in C: atoms key every set and dict of the
    package.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: tuple[str, ...] = ()) -> "Atom":
        if not _IDENT_RE.match(name) or name in KEYWORDS:
            raise ValueError(f"invalid atom name: {name!r}")
        for a in args:
            if not _IDENT_RE.match(a):
                raise ValueError(f"invalid atom argument: {a!r}")
        return tuple.__new__(cls, (name, args))

    name = property(itemgetter(0))
    args = property(itemgetter(1))

    def __reduce__(self):
        # tuple's own pickling would pass (name, args) as one argument
        return (Atom, tuple(self))

    def __repr__(self) -> str:
        return f"Atom(name={self[0]!r}, args={self[1]!r})"

    def __str__(self) -> str:
        name, args = self
        if not args:
            return name
        return f"{name}({','.join(args)})"


class Formula(Record):
    """Base class for formula nodes.  Instances are immutable values.

    Each node holds its canonical order key in the cache slot `_ok`, built
    once by its constructor from its children's keys: `(0, atom)` for an
    atom, `(1, keys)` for a conjunction and `(2, keys)` for a disjunction,
    with keys the tuple of their children's keys, and `(3, lhs key, rhs
    key)` for an implication.  Keys compare in C, stopping at the first
    difference, so ordering and equality cost what two formulas share, not
    their size.  Keys nest as deep as the formula: where comparing two
    distinct keys that agree that deep raises RecursionError, ordering and
    equality fall back to the string key `_key`, which an explicit-stack
    walk spells at any depth.  Hashing walks that string every time.  Each
    node's `__init__` writes its slots through their descriptors, past the
    `__setattr__` that refuses every assignment.
    """

    __slots__ = ("_ok",)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return False
        try:
            return self._ok == other._ok
        except RecursionError:
            return _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))

    @property
    def rank(self) -> int:
        """0 for atoms, top and bot; otherwise one more than the highest
        rank among the children (both sides of an implication): the
        greatest depth of a node, by one explicit-stack walk."""
        rank, stack = 0, [(self, 0)]
        while stack:
            g, depth = stack.pop()
            rank = max(rank, depth)
            t = type(g)
            kids = (g.lhs, g.rhs) if t is Impl else () if t is AtomRef else g.children
            stack += [(c, depth + 1) for c in kids]
        return rank

    def __str__(self) -> str:
        return format_formula(self)


def _key(f: Formula) -> str:
    """The canonical key of f as a string, written in preorder by one
    explicit-stack walk: the order of `_ok`, spelled at any depth.

    An atom is `0`, its name, `,` and an argument for each argument, and
    `!`; a conjunction is `1`, then its children's keys, then `!`; a
    disjunction the same with `2`; an implication is `3` and the keys of
    its sides.  Each key ends where its node ends, and `!` and `,` sort
    below every identifier character and `!` below every tag, so comparing
    keys as strings orders formulas by node kind, then atoms by name and
    arguments, set nodes by their children and implications by their
    sides, shorter child lists first: the canonical order.
    """
    if type(f) is AtomRef:
        name, args = f.atom
        return f"0{name},{','.join(args)}!" if args else f"0{name}!"
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is AtomRef:
            out.append(_key(g))  # one call deep
        elif t is Impl:
            out.append("3")
            stack.append(g.rhs)
            stack.append(g.lhs)
        elif t is str:  # the end of a set node
            out.append(g)
        else:
            out.append("1" if t is Conj else "2")
            stack.append("!")
            stack.extend(reversed(g.children))
    return "".join(out)


def _canonical(children: Iterable[Formula]) -> tuple[tuple[Formula, ...], tuple]:
    """The children sorted by their keys (`Formula._ok`), each distinct one
    once, and their keys: of equal children the last given is kept.
    Sorting compares keys in C, so it stops where two keys first differ;
    where two agree too deep to compare, the children are sorted and
    deduplicated by their `_key` strings instead."""
    children = tuple(children)
    try:
        if len(children) == 2:
            a, b = children
            ka, kb = a._ok, b._ok
            if ka < kb:
                return children, (ka, kb)
            return ((b, a), (kb, ka)) if kb < ka else ((b,), (kb,))
        if len(children) > 2:
            ordered = sorted(children, key=_order_key)
            kept, keys = [ordered[0]], [ordered[0]._ok]
            for c in ordered[1:]:
                k = c._ok
                if k == keys[-1]:
                    kept[-1] = c
                else:
                    kept.append(c)
                    keys.append(k)
            return tuple(kept), tuple(keys)
    except RecursionError:
        keyed = {_key(c): c for c in children}
        children = tuple(map(keyed.__getitem__, sorted(keyed)))
    return children, tuple([c._ok for c in children])


class AtomRef(Formula):
    """An atom as a formula; equal to an `AtomRef` of the same atom only."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        _set_atom(self, atom)
        _set_ok(self, (0, atom))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is AtomRef:
            return self.atom == other.atom
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atom,))


class _SetNode(Formula):
    __slots__ = ("children",)
    _tag: int  # the first entry of the node's key

    def __init__(self, children: Iterable[Formula]) -> None:
        children, keys = _canonical(children)
        _set_children(self, children)
        _set_ok(self, (self._tag, keys))


class Conj(_SetNode):
    __slots__ = ()
    _tag = 1


class Disj(_SetNode):
    __slots__ = ()
    _tag = 2


class Impl(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula) -> None:
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_ok(self, (3, lhs._ok, rhs._ok))


_set_ok = Formula._ok.__set__
_order_key = attrgetter("_ok")
_set_atom = AtomRef.atom.__set__
_set_children = _SetNode.children.__set__
_set_lhs = Impl.lhs.__set__
_set_rhs = Impl.rhs.__set__

TOP: Formula = Conj(())
BOT: Formula = Disj(())


def atom(name: str, *args: str) -> AtomRef:
    return AtomRef(Atom(name, tuple(args)))


def conj(children: Iterable[Formula]) -> Conj:
    return Conj(tuple(children))


def disj(children: Iterable[Formula]) -> Disj:
    return Disj(tuple(children))


def impl(lhs: Formula, rhs: Formula) -> Impl:
    return Impl(lhs, rhs)


def neg(f: Formula) -> Impl:
    return Impl(f, BOT)


def iff(f: Formula, g: Formula) -> Conj:
    return conj((Impl(f, g), Impl(g, f)))


def atoms_of(f: Formula) -> frozenset[Atom]:
    """All atoms occurring anywhere in the tree."""
    out: set[Atom] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is AtomRef:
            out.add(g.atom)
        elif t is Impl:
            stack.append(g.lhs)
            stack.append(g.rhs)
        else:
            stack.extend(g.children)
    return frozenset(out)


def check_signature(occurring: AbstractSet[Atom], sigma: AbstractSet[Atom]) -> None:
    """Raise SignatureError naming the atoms of `occurring` outside sigma."""
    missing = frozenset(occurring).difference(sigma)
    if missing:
        names = ", ".join(str(a) for a in sorted(missing))
        raise SignatureError(f"signature omits occurring atoms: {names}")


def satisfies(interp: AbstractSet[Atom], f: Formula) -> bool:
    """Classical satisfaction of f by the set of true atoms `interp`, by a
    recursive walk that reads the children of a set node left to right and
    stops at the first that decides it."""
    t = type(f)
    if t is AtomRef:
        return f.atom in interp
    if t is Conj:
        for c in f.children:
            if not satisfies(interp, c):
                return False
        return True
    if t is Disj:
        for c in f.children:
            if satisfies(interp, c):
                return True
        return False
    return not satisfies(interp, f.lhs) or satisfies(interp, f.rhs)


def reduct(f: Formula, interp: AbstractSet[Atom]) -> Formula:
    """Reduct of f w.r.t. `interp`.

    Atoms outside `interp` become bot; an implication not satisfied by
    `interp` becomes bot, a satisfied one keeps both reduced sides.  The
    result is canonical but deliberately not simplified further.
    """
    t = type(f)
    if t is AtomRef:
        return f if f.atom in interp else BOT
    if t is Impl:
        if not satisfies(interp, f):
            return BOT
        return Impl(reduct(f.lhs, interp), reduct(f.rhs, interp))
    return t([reduct(c, interp) for c in f.children])


def _bit_pattern(bit: int, width: int) -> int:
    """Vector over assignment indexes 0..width-1 whose entry is 1 iff the
    index has `bit` set."""
    block = 1 << bit
    v = ((1 << block) - 1) << block
    span = block << 1
    while span < width:
        v |= v << span
        span <<= 1
    return v


@functools.cache  # one per chunk width: up to 2**16 bits, about 256 KB in all
def _chunk_patterns(cb: int) -> tuple[int, ...]:
    """`_bit_pattern(b, 2**cb)` for each b < cb: the vectors of the low
    atoms of a chunk of 2**cb assignments, built on first use and shared
    by every sweep of that width."""
    width = 1 << cb
    return tuple(_bit_pattern(b, width) for b in range(cb))


@functools.cache  # one per pair of widths
def _segment_starts(cb: int, s: int) -> int:
    """The vector over 2**cb assignments with bit 0 of each of its segments
    of 2**s >= 8 bits set."""
    return int.from_bytes((b"\1" + bytes((1 << s >> 3) - 1)) * (1 << cb - s), "little")


_AND, _OR, _IMPL = 0, 1, 2


class Program(Record):
    """A formula compiled to binary ops over int-indexed slots.

    Slot 0 holds bot, slot 1 top, slot k + 2 the atom `atoms[k]` (sorted),
    and the slots after them op results: op number n, a quadruple (kind,
    left slot, right slot, out slot), writes the slot of a result whose
    last reader has run, else slot len(atoms) + 2 + n, so a run holds only
    the vectors still to be read.  Ops are in topological order and `root`
    is the slot of the whole formula.  Structurally equal subtrees share a
    slot.  Programs compare and hash by identity.
    """

    __slots__ = ("atoms", "ops", "root")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, atoms: tuple[Atom, ...], ops: tuple[tuple[int, int, int, int], ...], root: int) -> None:
        _set_atoms(self, atoms)
        _set_ops(self, ops)
        _set_root(self, root)

    def run(self, values: Sequence[int], ones: int, keep: int, seg: int = 0) -> int:
        """The root's bit vector when `values[k]` is the vector of atoms[k].

        `ones` is the all-true vector.  An implication whose vector has no
        bit of `keep` is set to 0 everywhere: with keep = ones this is
        classical truth, with keep the bit of an assignment I it is the
        here-and-there value against I, where an implication false in I
        is false.  With `seg`, the vector is a row of seg-bit segments, one
        per assignment I, keep holds the lowest bit of each, and that bit is
        I itself: an implication is set to 0 on each segment whose keep bit
        it lacks.
        """
        v = [0, ones, *values] + [0] * len(self.ops)
        for kind, left, right, out in self.ops:
            if kind == _AND:
                v[out] = v[left] & v[right]
            elif kind == _OR:
                v[out] = v[left] | v[right]
            else:
                x = (ones ^ v[left]) | v[right]
                if seg:
                    h = x & keep
                    v[out] = x & ((h << seg) - h)  # (h << seg) - h fills each kept segment
                else:
                    v[out] = x if x & keep else 0
        return v[self.root]


_set_atoms = Program.atoms.__set__
_set_ops = Program.ops.__set__
_set_root = Program.root.__set__


def compile_formula(f: Formula) -> Program:
    """Compile f once, iteratively, so formulas of any depth compile: the
    program `compile_extensible` gives for (f,).

    Nodes are memoized by identity and by (kind, left slot, right slot),
    so no formula is ever hashed; set-valued nodes fold into chains of
    binary ops, with the empty conjunction top and the empty disjunction bot.
    Each child is folded in as soon as it is compiled, so a conjunction of
    many rules keeps one rule's vectors at a time besides the fold, not
    every rule's.  The same walk collects the atoms: until it ends, op n
    has slot n and the k-th atom met, top and bot have slots -3 - k, -2 and
    -1, and one pass over the ops then gives every op its out slot.
    """
    return compile_extensible((f,))[0]


def compile_extensible(fs: Sequence[Formula]) -> tuple[Program, Callable[[Sequence[Formula]], Program]]:
    """The program of the conjunction of fs, in the order given, and a
    function that gives the program of it conjoined with more formulas,
    folded in in the order given.

    The program is `compile_formula`'s of a conjunction with these
    children in this order, op for op, and `compile_formula` is this
    program when fs is (f,): one walk compiles each of fs once, with no
    canonical order spelled out.  The function continues that walk
    instead of compiling fs again, so a subformula met again, the very
    object, costs no op.  The first program's ops come first, so it is a
    prefix of the extension, and an extension over its atoms only has its
    atoms, at the same positions.  The walk memoizes nodes by identity, so
    call the function at most once, while fs are alive.
    """
    met: dict[Atom, int] = {}
    ops: list[tuple[int, int, int]] = []
    shared: dict[tuple[int, int, int], int] = {}
    slots: dict[int, int] = {}
    if len(fs) == 1:
        root = _walk(fs[0], met, ops, shared, slots)
    else:
        whole = _node(Conj, fs)
        root = _walk(whole, met, ops, shared, slots)
        del slots[id(whole)]  # it dies here, and its id may come again

    def conjoin(more: Sequence[Formula]) -> Program:
        """The program conjoined with `more`, each folded in by continuing
        the walk."""
        slot = root
        for g in more:
            key = (_AND, slot, _walk(g, met, ops, shared, slots))
            slot = shared.get(key)
            if slot is None:
                slot = shared[key] = len(ops)
                ops.append(key)
        return _finish(met, ops, slot)

    return _finish(met, ops, root), conjoin


def _node(kind: type, children: Sequence[Formula]) -> Formula:
    """A conjunction or disjunction of the children in the order given,
    neither sorted nor deduplicated, for a formula that is only compiled
    (see `stable._here`): its key holds its children's keys in that order,
    as `_key` reads them."""
    node = object.__new__(kind)
    children = tuple(children)
    _set_children(node, children)
    _set_ok(node, (kind._tag, tuple([c._ok for c in children])))
    return node


def _walk(
    f: Formula,
    met: dict[Atom, int],
    ops: list[tuple[int, int, int]],
    shared: dict[tuple[int, int, int], int],
    slots: dict[int, int],
) -> int:
    """The temporary slot of f, appending the ops of each node not met yet
    (see `compile_formula`)."""
    if type(f) is AtomRef:
        k = met.get(f.atom)
        if k is None:
            k = met[f.atom] = -3 - len(met)
        return k

    # the nodes being compiled, each with how many of its children are
    # folded so far and their slot; a node waits while its next non-atom
    # child compiles
    stack = [f]
    folded = [0]
    acc: list[int | None] = [None]
    while stack:
        g = stack[-1]
        i = folded[-1]
        slot = acc[-1]
        t = type(g)
        kids, kind = ((g.lhs, g.rhs), _IMPL) if t is Impl else (g.children, _AND if t is Conj else _OR)
        while i < len(kids):
            c = kids[i]
            if type(c) is AtomRef:
                k = met.get(c.atom)
                if k is None:
                    k = met[c.atom] = -3 - len(met)
            else:
                k = slots.get(id(c))
                if k is None:
                    break
            i += 1
            if slot is not None:
                key = (kind, slot, k)
                k = shared.get(key)
                if k is None:
                    k = shared[key] = len(ops)
                    ops.append(key)
            slot = k
        if i < len(kids):
            folded[-1] = i
            acc[-1] = slot
            stack.append(kids[i])
            folded.append(0)
            acc.append(None)
            continue
        stack.pop()
        folded.pop()
        acc.pop()
        if slot is None:  # no children: the empty conjunction or disjunction
            slot = -2 if t is Conj else -1
        slots[id(g)] = slot
    return slots[id(f)]


_NO_ATOM: frozenset[Atom] = frozenset()


class Rule(tuple):
    """A piece as `read_rules` reads it: one conjunct of a formula, every
    nested conjunction opened.  Its fields: the piece's formula; its atoms;
    its heads, the atoms strictly positive in it; its dependency edges,
    the pairs (h, b) of a head h and an atom b positive nonnegated in an
    antecedent passed on the way down to h, each with h and b intensional
    an edge of `dep_graph`; and, when it is a clause `B -> h` with h an
    atom, the atoms of B's conjuncts that are no atoms, or of all of B
    when B is neither an atom nor a conjunction, else no atom, which
    `stable._clause` reads when it reads the piece as a clause of a
    definition.

    Built from the tuple of those fields, in that order.  A rule is a
    tuple, as `Atom` is, because there is one per piece on every solve:
    building a tuple costs a fraction of a slotted record's `__init__`."""

    __slots__ = ()
    formula, atoms, heads, edges, nested = map(property, map(itemgetter, range(5)))


def read_rules(c: Formula) -> list[Rule]:
    """The records of c's pieces, in order (see `Rule`), by one walk.

    The walk opens nested conjunctions into pieces and goes down each
    piece's strictly positive spine, carrying the positive nonnegated
    atoms of the antecedents passed, each antecedent read once for its
    atoms and those (`signed_atoms`).  A clause `b -> h` of two atoms, the
    commonest piece, is read with no set built.  No formula is compiled
    or hashed, so any depth is safe."""
    rules: list[Rule] = []
    opened = [c]
    while opened:
        p = opened.pop()
        if type(p) is Conj:
            opened += reversed(p.children)
            continue
        if type(p) is Impl and type(p.lhs) is AtomRef and type(p.rhs) is AtomRef:
            h, b = p.rhs.atom, p.lhs.atom
            rules.append(Rule((p, frozenset((h, b)), frozenset((h,)), ((h, b),), _NO_ATOM)))
            continue
        atoms: set[Atom] = set()
        heads: set[Atom] = set()
        nested: set[Atom] = set()
        edges: list[tuple[Atom, Atom]] = []
        spine = [(p, _NO_ATOM)]
        while spine:
            g, bodies = spine.pop()
            t = type(g)
            if t is AtomRef:
                heads.add(g.atom)
                edges += [(g.atom, b) for b in bodies]
            elif t is Impl:  # below a negation's bot no atom is reached
                pos: set[Atom] = set()
                if g is p and type(g.rhs) is AtomRef:  # a clause: the atoms of antecedent conjuncts but atoms are nested
                    for d in g.lhs.children if type(g.lhs) is Conj else (g.lhs,):
                        signed_atoms(d, atoms if type(d) is AtomRef else nested, pos)
                else:
                    signed_atoms(g.lhs, atoms, pos)
                spine.append((g.rhs, bodies.union(pos) if pos else bodies))
            else:
                spine += [(d, bodies) for d in g.children]
        atoms |= heads
        atoms |= nested
        rules.append(Rule((p, frozenset(atoms), frozenset(heads), tuple(edges), frozenset(nested) if nested else _NO_ATOM)))
    return rules


def signed_atoms(f: Formula, found: set[Atom], signed: set[Atom], sign: bool = True, antecedents: bool = True) -> None:
    """Add the atoms of f to `found`, and to `signed` its nonnegated atoms
    of the given sign: positive, under an even number of antecedents, or
    negative, under an odd number, and in neither case under a negation,
    an antecedent whose consequent is the structural bot.  Without
    `antecedents` the walk stays out of every antecedent."""
    stack: list[tuple[Formula, bool | None]] = [(f, True)]  # None: under a negation
    while stack:
        g, here = stack.pop()
        t = type(g)
        if t is AtomRef:
            found.add(g.atom)
            if here is sign:
                signed.add(g.atom)
        elif t is not Impl:
            stack += [(d, here) for d in g.children]
        else:  # the structural bot as consequent negates, and holds no atom
            if antecedents:
                negated = here is None or type(g.rhs) is Disj and not g.rhs.children
                stack.append((g.lhs, None if negated else not here))
            stack.append((g.rhs, here))


def _finish(met: dict[Atom, int], ops: Sequence[tuple[int, int, int]], root: int) -> Program:
    """The program of the walked ops with the given root: the atoms
    sorted, and each op's out slot the slot of a result whose last reader
    has run, else a fresh one.  Per-slot tables are lists indexed by the
    walk's slot, op n at n and the atoms, top and bot at their negative
    slots, which index the list from its end."""
    atoms = tuple(sorted(met))
    base = len(atoms) + 2
    rank = dict(zip(atoms, range(2, base)))
    last = [0] * (len(ops) + base)  # each slot's last reader; the root's comes after every op
    for n, (_, left, right) in enumerate(ops):
        last[left] = last[right] = n
    last[root] = len(ops)
    fix = [0] * len(ops) + [*map(rank.__getitem__, reversed(met)), 1, 0]
    free: list[int] = []  # out slots whose last reader has run
    out_ops = []
    for n, (kind, left, right) in enumerate(ops):
        if left >= 0 and last[left] == n:
            free.append(fix[left])
        if right >= 0 and last[right] == n and right != left:
            free.append(fix[right])
        out = fix[n] = free.pop() if free else base + n
        out_ops.append((kind, fix[left], fix[right], out))
    return Program(atoms, tuple(out_ops), fix[root])


def live_prefixes(prog: Program, var_atoms: Sequence[Atom], true_atoms: AbstractSet[Atom], chunk_bits: int) -> int:
    """The chunks of `truth_chunks` that may hold a model, as a bitmask
    with bit hi for the chunk whose high atoms, var_atoms[chunk_bits:],
    take the bits of hi.

    One Kleene (three-valued) run of prog over vectors of one bit per
    chunk: each slot holds the pair (surely true, possibly true).  A low
    atom is unknown, (0, all ones), a high atom takes its prefix pattern
    on both sides and every other atom is fixed as in `truth_chunks`.
    Conjunction and disjunction act on each side separately, and an
    implication is surely true where its left side is surely false or
    its right side surely true, possibly true where its left side is
    possibly false or its right side possibly true.  Where the root is
    not possibly true, no assignment of the low atoms satisfies prog
    (ternary simulation; Bryant, JACM 1991).
    """
    n = len(var_atoms)
    cb = min(n, chunk_bits)
    width = 1 << (n - cb)
    ones = (1 << width) - 1
    index = {a: b for b, a in enumerate(var_atoms)}
    sure = [0, ones] + [0] * (len(prog.atoms) + len(prog.ops))
    maybe = sure.copy()
    for k, a in enumerate(prog.atoms, 2):
        b = index.get(a)
        if b is None:
            sure[k] = maybe[k] = ones if a in true_atoms else 0
        elif b < cb:
            maybe[k] = ones
        else:
            sure[k] = maybe[k] = _bit_pattern(b - cb, width)
    for kind, left, right, out in prog.ops:
        # both sides are read before either is written: out may be left or right
        if kind == _AND:
            sure[out], maybe[out] = sure[left] & sure[right], maybe[left] & maybe[right]
        elif kind == _OR:
            sure[out], maybe[out] = sure[left] | sure[right], maybe[left] | maybe[right]
        else:
            sure[out], maybe[out] = (ones ^ maybe[left]) | sure[right], (ones ^ sure[left]) | maybe[right]
    return maybe[prog.root]


def truth_chunks(
    f: Formula | Program,
    var_atoms: Sequence[Atom],
    true_atoms: AbstractSet[Atom] = frozenset(),
    chunk_bits: int = 16,
) -> Iterator[int]:
    """Satisfaction of f over all assignments to `var_atoms`, as bit vectors.

    f is a formula or its compiled `Program`.  Assignment index m makes
    var_atoms[b] true iff bit b of m is set.  Atoms in `true_atoms` are
    always true, every other atom is false.  Yields integers of
    2**min(len(var_atoms), chunk_bits) bits each, lowest indexes first, so
    that big signatures never materialize one huge vector.

    When there are high atoms, var_atoms[chunk_bits:], one Kleene run
    (`live_prefixes`) first finds the sub-chunks that may hold a model:
    runs of 2**s assignments, s half the chunk width, raised to at least 3
    so that a sub-chunk is whole bytes and as far as needed to keep the
    run's vectors within 2**16 bits (s >= n - 16), and never more than the
    chunk width: at a chunk width of 3 or less each sub-chunk is a chunk.
    A chunk none of whose sub-chunks is live yields 0 without a run of the
    program, one whose sub-chunks are all live runs whole, and the live
    sub-chunks of every other chunk are run packed together (see
    `_packed_chunks`), so that the sweep's cost follows its live
    assignments.
    """
    prog = f if isinstance(f, Program) else compile_formula(f)
    n = len(var_atoms)
    cb = min(n, chunk_bits)
    width = 1 << cb
    ones = (1 << width) - 1
    index = {a: b for b, a in enumerate(var_atoms)}
    fixed = [a in true_atoms for a in prog.atoms]
    values = [ones if t else 0 for t in fixed]
    low = _chunk_patterns(cb)
    swept = []  # (position in prog.atoms, position in var_atoms)
    for k, a in enumerate(prog.atoms):
        b = index.get(a)
        if b is not None:
            swept.append((k, b))
            if b < cb:
                values[k] = low[b]
    if n == cb:
        yield prog.run(values, ones, ones)
        return

    s = min(cb, max(3, cb // 2, n - _KLEENE_BITS))
    per = cb - s  # a chunk holds 2**per sub-chunks
    full = 1 << per
    live = set_bits(live_prefixes(prog, var_atoms, true_atoms, s))
    spans = {}  # per chunk with a live sub-chunk: where they begin in live, and how many
    at = 0
    while at < len(live):
        hi = live[at] >> per
        end = bisect_left(live, (hi + 1) << per, at)
        spans[hi] = (at, end - at)
        at = end
    packed = _packed_chunks(prog, fixed, swept, n, s, cb, live, [(hi, *span) for hi, span in spans.items() if span[1] < full])
    high = [(k, b - cb) for k, b in swept if b >= cb]
    for hi in range(1 << (n - cb)):
        c = spans.get(hi, (0, 0))[1]
        if c == full:
            for k, b in high:
                values[k] = ones if hi >> b & 1 else 0
            yield prog.run(values, ones, ones)
        else:
            yield next(packed) if c else 0


_KLEENE_BITS = 16  # the Kleene run of `truth_chunks` has vectors of at most 2**16 bits
_NONZERO = bytes([0] + [1] * 255)  # a `bytes.translate` table: every nonzero byte to 1
# the set bits of each byte: those of m, then those of m + 2**j for each j
_BIT_OFFSETS: list[tuple[int, ...]] = functools.reduce(lambda t, j: t + [bits + (j,) for bits in t], range(8), [()])
_INDEX_CODES = "BHIIQQQQ"  # `struct` codes of unsigned integers of 1 to 8 bytes


def set_bits(v: int, offset: int = 0) -> list[int]:
    """offset + p for each bit p set in v >= 0, in increasing order, read
    from v's bytes: the runs of zero bytes between the nonzero ones give
    the position of each nonzero byte, and a table the set bits of each."""
    data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
    runs = data.translate(_NONZERO).split(b"\1")[:-1]  # the zero bytes before each nonzero one
    starts = accumulate(map((8).__mul__, map((1).__add__, map(len, runs))), initial=offset - 8)
    next(starts)
    return [start + j for start, byte in zip(starts, data.translate(None, b"\0")) for j in _BIT_OFFSETS[byte]]


def _packed_chunks(
    prog: Program,
    fixed: Sequence[bool],
    swept: Sequence[tuple[int, int]],
    n: int,
    s: int,
    cb: int,
    live: Sequence[int],
    partial: Sequence[tuple[int, int, int]],
) -> Iterator[int]:
    """The chunks of `truth_chunks` of 2**cb assignments, over n swept
    atoms, that are only partly live, in order.  `live` lists the live
    sub-chunks of 2**s assignments by index, in increasing order, and
    `partial` each such chunk as (its index, where its live sub-chunks
    begin in live, how many it has).  `fixed` says which atoms of prog are
    always true, and `swept` pairs the position in prog.atoms of each swept
    atom with its position in the assignment index.

    The live sub-chunks of consecutive such chunks are packed into one run
    of at most 2**cb assignments, a segment of w = 2**s bits each, whole
    bytes since s >= 3, and the result of one run at a time is scattered
    back to the chunks' layout.  The s low atoms take the chunk patterns,
    which repeat the sub-chunk patterns, and every other swept atom is
    constant on each segment: it is (h << w) - h, h holding bit 0 of each
    segment whose sub-chunk index sets the atom's bit.  Every step taken
    per sub-chunk runs in C (`map`, `struct`, slicing, `join`), once per
    run and once per chunk, never once per atom.
    """
    w = 1 << s
    step = w >> 3  # bytes per segment
    per = cb - s  # a chunk holds 2**per sub-chunks
    low = _chunk_patterns(cb)
    code = _INDEX_CODES[n - s - 1 >> 3]  # a sub-chunk index, of n - s bits, packs as one of these
    width = struct.calcsize(code)
    done = 0
    while done < len(partial):
        last, size = done, 0
        while last < len(partial) and size + partial[last][2] <= 1 << per:
            size += partial[last][2]
            last += 1
        pack = partial[done:last]
        done = last
        index: list[int] = []
        for _, at, c in pack:
            index += live[at : at + c]
        octets = struct.pack(f"<{size}{code}", *index)
        bits = size * w
        ones = (1 << bits) - 1
        values = [ones if t else 0 for t in fixed]
        starts = {}  # per byte q of the indexes: that byte of each segment's index at the segment's bit 0
        bit0 = _segment_starts(cb, s) & ones
        for k, b in swept:
            u = b - s
            if u < 0:
                values[k] = low[b] & ones
                continue
            q = u >> 3
            if q not in starts:
                spread = bytearray(size * step)
                spread[::step] = octets[q::width]
                starts[q] = int.from_bytes(spread, "little")
            h = starts[q] >> (u & 7) & bit0
            values[k] = (h << w) - h
        root = prog.run(values, ones, ones).to_bytes(bits >> 3, "little")
        j = 0  # the chunk's first segment in the run
        for hi, at, c in pack:
            mine = root[j * step : (j + c) * step]
            j += c
            if not mine.strip(b"\0"):  # no model in its live sub-chunks
                yield 0
                continue
            # its segments and the zeros between them, in turn, from its
            # first live sub-chunk on
            gaps = list(map(sub, live[at + 1 : at + c], live[at : at + c - 1]))
            zeros = {d: bytes((d - 1) * step) for d in set(gaps)}
            if len(zeros) > 1:
                pieces: list = [None] * (2 * c - 1)
                pieces[::2] = struct.unpack(f"{step}s" * c, mine)
                pieces[1::2] = map(zeros.__getitem__, gaps)
                mine = b"".join(pieces)
            elif zeros and gaps[0] > 1:  # evenly spaced, not side by side: one kind of gap
                mine = zeros[gaps[0]].join(struct.unpack(f"{step}s" * c, mine))
            yield int.from_bytes(mine, "little") << (live[at] - (hi << per)) * w


def equivalent(
    f: Formula,
    g: Formula,
    sigma: AbstractSet[Atom] | None = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> bool:
    """True iff f and g are satisfied by exactly the same interpretations.

    `sigma`, when given, must cover every atom occurring in f or g; atoms of
    sigma occurring in neither cannot influence the answer and are skipped.
    One sweep checks that (f -> g) -> not (g -> f), true exactly where f
    and g differ, is true nowhere; it is built of implications only, so no
    child list is ever put in canonical order.  A sweep over more than
    max_atoms atoms raises CapExceeded, by the check every enumeration
    makes (`_check_cap`).
    """
    prog = compile_formula(Impl(Impl(f, g), neg(Impl(g, f))))
    if sigma is not None:
        check_signature(frozenset(prog.atoms), sigma)
    _check_cap(len(prog.atoms), max_atoms)
    return not any(truth_chunks(prog, prog.atoms))


_LVL_IMPL, _LVL_DISJ, _LVL_CONJ, _LVL_UNARY = 0, 1, 2, 3


def format_formula(f: Formula) -> str:
    """Canonical text form; `parse_formula` inverts it exactly.

    One explicit-stack walk writes the text: the stack holds the nodes
    still to write, each with the binding level of its context, and the
    text between them.
    """
    out: list[str] = []
    stack: list = [(f, _LVL_IMPL)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        t = type(g)
        if t is AtomRef:
            out.append(str(g.atom))
        elif t is Impl:
            if type(g.rhs) is Disj and not g.rhs.children:
                out.append("not ")
                stack.append((g.lhs, _LVL_UNARY))
                continue
            if ctx != _LVL_IMPL:
                out.append("(")
                stack.append(")")
            stack += ((g.rhs, _LVL_IMPL), " -> ", (g.lhs, _LVL_DISJ))
        elif not g.children:
            out.append("top" if t is Conj else "bot")
        elif len(g.children) == 1:
            out.append("And{" if t is Conj else "Or{")
            stack += ("}", (g.children[0], _LVL_IMPL))
        else:
            own, sep, level = (_LVL_CONJ, " & ", _LVL_UNARY) if t is Conj else (_LVL_DISJ, " | ", _LVL_CONJ)
            if ctx > own:  # the context binds tighter
                out.append("(")
                stack.append(")")
            for c in reversed(g.children):
                stack.append((c, level))
                stack.append(sep)
            stack.pop()  # no separator before the first child
    return "".join(out)


def format_program(formulas: Iterable[Formula]) -> str:
    return "".join(format_formula(f) + ".\n" for f in formulas)


# an error message shows at most this many characters of a formula or of
# a list of atoms, so that the fallback warning of `split-solve` and the
# rejection line of `check-definition` stay one short line on a deep or
# wide formula
_SHOWN_CHARS = 200


def _clipped(text: str) -> str:
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."
