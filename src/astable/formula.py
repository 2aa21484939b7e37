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
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .records import Record

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
KEYWORDS = frozenset({"not", "top", "bot", "And", "Or"})


class SignatureError(ValueError):
    """A supplied signature does not cover all occurring atoms."""


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured atom cap."""


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

    Set nodes and implications compare and hash by their canonical key
    (`_key`), which an explicit-stack walk computes at any depth.  Each
    node's `__init__` writes its slots through their descriptors, past the
    `__setattr__` that refuses every assignment.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Formula) and _key(self) == _key(other)

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
    """The canonical key of f, written in preorder by one explicit-stack walk.

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
            out.append(_TAGS[t])
            stack.append("!")
            stack.extend(reversed(g.children))
    return "".join(out)


def _canonical(children: Iterable[Formula]) -> tuple[Formula, ...]:
    children = tuple(children)
    if len(children) < 2:
        return children
    kinds = list(map(type, children))
    lone: dict[type, bool] = {}
    for t in kinds:
        lone[t] = t not in lone
    # a key spells out the whole formula, so it also finds duplicates; a
    # child alone of its kind needs only the tag its key begins with
    keyed = {_TAGS[t] if lone[t] else _key(c): c for c, t in zip(children, kinds)}
    return tuple(map(keyed.__getitem__, sorted(keyed)))


class AtomRef(Formula):
    """An atom as a formula; equal to an `AtomRef` of the same atom only."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        _set_atom(self, atom)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is AtomRef:
            return self.atom == other.atom
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atom,))


class _SetNode(Formula):
    __slots__ = ("children",)

    def __init__(self, children: Iterable[Formula]) -> None:
        _set_children(self, _canonical(children))


class Conj(_SetNode):
    __slots__ = ()


class Disj(_SetNode):
    __slots__ = ()


class Impl(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula) -> None:
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)


_set_atom = AtomRef.atom.__set__
_set_children = _SetNode.children.__set__
_set_lhs = Impl.lhs.__set__
_set_rhs = Impl.rhs.__set__

_TAGS = {AtomRef: "0", Conj: "1", Disj: "2", Impl: "3"}  # the first character of a key

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
    """Classical satisfaction of f by the set of true atoms `interp`."""
    if isinstance(f, AtomRef):
        return f.atom in interp
    if isinstance(f, Conj):
        return all(satisfies(interp, c) for c in f.children)
    if isinstance(f, Disj):
        return any(satisfies(interp, c) for c in f.children)
    assert isinstance(f, Impl)
    return not satisfies(interp, f.lhs) or satisfies(interp, f.rhs)


def reduct(f: Formula, interp: AbstractSet[Atom]) -> Formula:
    """Reduct of f w.r.t. `interp`.

    Atoms outside `interp` become bot; an implication not satisfied by
    `interp` becomes bot, a satisfied one keeps both reduced sides.  The
    result is canonical but deliberately not simplified further.
    """
    if isinstance(f, AtomRef):
        return f if f.atom in interp else BOT
    if isinstance(f, Conj):
        return Conj(tuple(reduct(c, interp) for c in f.children))
    if isinstance(f, Disj):
        return Disj(tuple(reduct(c, interp) for c in f.children))
    assert isinstance(f, Impl)
    if not satisfies(interp, f):
        return BOT
    return Impl(reduct(f.lhs, interp), reduct(f.rhs, interp))


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
    """Compile f once, iteratively, so formulas of any depth compile.

    Nodes are memoized by identity and by (kind, left slot, right slot),
    so no formula is ever hashed; set-valued nodes fold into chains of
    binary ops, with the empty conjunction top and the empty disjunction bot.
    Each child is folded in as soon as it is compiled, so a conjunction of
    many rules keeps one rule's vectors at a time besides the fold, not
    every rule's.  The same walk collects the atoms: until it ends, op n
    has slot n and the k-th atom met, top and bot have slots -3 - k, -2 and
    -1, and one pass over the ops then gives every op its out slot.
    """
    met: dict[Atom, int] = {}
    ops: list[tuple[int, int, int]] = []
    return _finish(met, ops, _walk(f, met, ops, {}, {}))


def compile_extensible(f: Formula) -> tuple[Program, Callable[[Sequence[Formula]], Program]]:
    """f's program (see `compile_formula`), and a function that gives the
    program of f conjoined with more formulas, folded in in the order given.

    The function continues the walk that compiled f instead of compiling f
    again, so a subformula of f met again, the very object, costs no op.
    f's ops come first, so f's program is a prefix of the extension, and
    an extension over atoms of f only has f's atoms, at the same positions.
    The walk memoizes nodes by identity, so call the function at most
    once, while f is alive.
    """
    met: dict[Atom, int] = {}
    ops: list[tuple[int, int, int]] = []
    shared: dict[tuple[int, int, int], int] = {}
    slots: dict[int, int] = {}
    root = _walk(f, met, ops, shared, slots)
    return _finish(met, ops, root), functools.partial(_conjoin, met, ops, shared, slots, root)


def _conjoin(
    met: dict[Atom, int],
    ops: list[tuple[int, int, int]],
    shared: dict[tuple[int, int, int], int],
    slots: dict[int, int],
    slot: int,
    more: Sequence[Formula],
) -> Program:
    """The program of the formula at `slot` conjoined with `more`, each
    folded in by continuing the walk (see `compile_extensible`)."""
    for g in more:
        key = (_AND, slot, _walk(g, met, ops, shared, slots))
        slot = shared.get(key)
        if slot is None:
            slot = shared[key] = len(ops)
            ops.append(key)
    return _finish(met, ops, slot)


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


def _finish(met: dict[Atom, int], ops: Sequence[tuple[int, int, int]], root: int) -> Program:
    """The program of the walked ops with the given root: the atoms
    sorted, and each op's out slot the slot of a result whose last reader
    has run, else a fresh one."""
    atoms = tuple(sorted(met))
    base = len(atoms) + 2
    rank = dict(zip(atoms, range(2, base)))
    last = {}  # each slot's last reader; the root's comes after every op
    for n, (_, left, right) in enumerate(ops):
        last[left] = last[right] = n
    last[root] = len(ops)
    fix = [0] * len(ops) + [*map(rank.__getitem__, reversed(met)), 1, 0]
    free: list[int] = []  # out slots whose last reader has run
    out_ops = []
    for n, (kind, left, right) in enumerate(ops):
        if last[left] == n and left >= 0:
            free.append(fix[left])
        if last[right] == n and right >= 0 and right != left:
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
    that big signatures never materialize one huge vector.  When there are
    high atoms, var_atoms[chunk_bits:], one Kleene run (`live_prefixes`)
    first finds the chunks that cannot hold a model, and each of them
    yields 0 without a run of the program.
    """
    prog = f if isinstance(f, Program) else compile_formula(f)
    n = len(var_atoms)
    cb = min(n, chunk_bits)
    width = 1 << cb
    ones = (1 << width) - 1
    index = {a: b for b, a in enumerate(var_atoms)}
    values = [ones if a in true_atoms else 0 for a in prog.atoms]
    low = _chunk_patterns(cb)
    high = []
    for k, a in enumerate(prog.atoms):
        b = index.get(a)
        if b is None:
            continue
        if b < cb:
            values[k] = low[b]
        else:
            high.append((k, b - cb))

    live = live_prefixes(prog, var_atoms, true_atoms, cb) if n > cb else 1
    for hi in range(1 << (n - cb)):
        if not live >> hi & 1:
            yield 0
            continue
        for k, b in high:
            values[k] = ones if hi >> b & 1 else 0
        yield prog.run(values, ones, ones)


def equivalent(
    f: Formula,
    g: Formula,
    sigma: AbstractSet[Atom] | None = None,
    max_atoms: int = 24,
) -> bool:
    """True iff f and g are satisfied by exactly the same interpretations.

    `sigma`, when given, must cover every atom occurring in f or g; atoms of
    sigma occurring in neither cannot influence the answer and are skipped.
    One sweep checks that (f -> g) -> not (g -> f), true exactly where f
    and g differ, is true nowhere; it is built of implications only, so no
    child list is ever put in canonical order.
    """
    prog = compile_formula(Impl(Impl(f, g), neg(Impl(g, f))))
    if sigma is not None:
        check_signature(frozenset(prog.atoms), sigma)
    if len(prog.atoms) > max_atoms:
        raise CapExceeded(
            f"equivalence check over {len(prog.atoms)} atoms exceeds the cap of "
            f"{max_atoms}; raise max_atoms explicitly if this is intended"
        )
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
