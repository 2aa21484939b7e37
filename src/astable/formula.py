"""Ground formula AST with set-valued connectives.

Formulas are immutable trees built from atoms, set-valued conjunction and
disjunction nodes, and implications.  Conjunction and disjunction children are
deduplicated and kept in a fixed structural order, so structural equality is
decidable and every formula has exactly one representation.  `top` is the
empty conjunction, `bot` the empty disjunction, and `not F` abbreviates
`F -> bot`; none of these is a separate node kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Sequence

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


class Formula:
    """Base class for formula nodes.  Instances are immutable values."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return format_formula(self)


def _sort_key(f: Formula):
    if isinstance(f, AtomRef):
        return (0, f.atom)
    if isinstance(f, Conj):
        return (1, tuple(_sort_key(c) for c in f.children))
    if isinstance(f, Disj):
        return (2, tuple(_sort_key(c) for c in f.children))
    assert isinstance(f, Impl)
    return (3, _sort_key(f.lhs), _sort_key(f.rhs))


def _canonical(children: Iterable[Formula]) -> tuple[Formula, ...]:
    children = tuple(children)
    if len(children) < 2:
        return children
    return tuple(sorted(set(children), key=_sort_key))


@dataclass(frozen=True)
class AtomRef(Formula):
    atom: Atom

    @property
    def rank(self) -> int:
        return 0


@dataclass(frozen=True)
class Conj(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _canonical(self.children))

    @property
    def rank(self) -> int:
        return max((c.rank for c in self.children), default=-1) + 1


@dataclass(frozen=True)
class Disj(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _canonical(self.children))

    @property
    def rank(self) -> int:
        return max((c.rank for c in self.children), default=-1) + 1


@dataclass(frozen=True)
class Impl(Formula):
    lhs: Formula
    rhs: Formula

    @property
    def rank(self) -> int:
        return max(self.lhs.rank, self.rhs.rank) + 1


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
        if isinstance(g, AtomRef):
            out.add(g.atom)
        elif isinstance(g, (Conj, Disj)):
            stack.extend(g.children)
        else:
            assert isinstance(g, Impl)
            stack.append(g.lhs)
            stack.append(g.rhs)
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


_AND, _OR, _IMPL = 0, 1, 2


@dataclass(eq=False)
class Program:
    """A formula compiled to binary ops over int-indexed slots.

    Slot 0 holds bot, slot 1 top, slot k + 2 the atom `atoms[k]` (sorted),
    and op number n, a triple (kind, left slot, right slot), writes slot
    len(atoms) + 2 + n; ops are in topological order and `root` is the
    slot of the whole formula.  Structurally equal subtrees share a slot.
    """

    atoms: tuple[Atom, ...]
    ops: list[tuple[int, int, int]]
    root: int

    def run(self, values: Sequence[int], ones: int, keep: int) -> int:
        """The root's bit vector when `values[k]` is the vector of atoms[k].

        `ones` is the all-true vector.  An implication whose vector has no
        bit of `keep` is set to 0 everywhere: with keep = ones this is
        classical truth, with keep the bit of an assignment I it is the
        here-and-there value against I, where an implication false in I
        is false.
        """
        v = [0, ones, *values]
        push = v.append
        for kind, left, right in self.ops:
            if kind == _AND:
                push(v[left] & v[right])
            elif kind == _OR:
                push(v[left] | v[right])
            else:
                x = (ones ^ v[left]) | v[right]
                push(x if x & keep else 0)
        return v[self.root]


def compile_formula(f: Formula) -> Program:
    """Compile f once, iteratively, so formulas of any depth compile.

    Nodes are memoized by identity and by (kind, left slot, right slot),
    so no formula is ever hashed; set-valued nodes fold into chains of
    binary ops, with the empty conjunction top and the empty disjunction bot.
    """
    atoms = tuple(sorted(atoms_of(f)))
    slot_of_atom = {a: k for k, a in enumerate(atoms, 2)}
    base = len(atoms) + 2
    ops: list[tuple[int, int, int]] = []
    shared: dict[tuple[int, int, int], int] = {}
    slots: dict[int, int] = {}
    expanded: set[int] = set()

    stack = [f]
    while stack:
        g = stack[-1]
        t = type(g)
        if t is AtomRef or id(g) in slots:
            stack.pop()
            continue
        kids = (g.lhs, g.rhs) if t is Impl else g.children
        if id(g) not in expanded:
            expanded.add(id(g))
            stack.extend(kids)
            continue
        stack.pop()
        if t is Impl:
            kind = _IMPL
        else:
            kind = _AND if t is Conj else _OR
        slot = -1
        for c in kids:
            k = slot_of_atom[c.atom] if type(c) is AtomRef else slots[id(c)]
            if slot < 0:
                slot = k
                continue
            key = (kind, slot, k)
            slot = shared.get(key, -1)
            if slot < 0:
                slot = shared[key] = base + len(ops)
                ops.append(key)
        if slot < 0:  # no children: the empty conjunction or disjunction
            slot = 1 if t is Conj else 0
        slots[id(g)] = slot
    root = slot_of_atom[f.atom] if type(f) is AtomRef else slots[id(f)]
    return Program(atoms, ops, root)


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
    """
    prog = f if isinstance(f, Program) else compile_formula(f)
    n = len(var_atoms)
    cb = min(n, chunk_bits)
    width = 1 << cb
    ones = (1 << width) - 1
    index = {a: b for b, a in enumerate(var_atoms)}
    values = [ones if a in true_atoms else 0 for a in prog.atoms]
    high = []
    for k, a in enumerate(prog.atoms):
        b = index.get(a)
        if b is None:
            continue
        if b < cb:
            values[k] = _bit_pattern(b, width)
        else:
            high.append((k, b - cb))

    for hi in range(1 << (n - cb)):
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
    """
    occurring = atoms_of(f) | atoms_of(g)
    if sigma is not None:
        check_signature(occurring, sigma)
    varying = sorted(occurring)
    if len(varying) > max_atoms:
        raise CapExceeded(
            f"equivalence check over {len(varying)} atoms exceeds the cap of "
            f"{max_atoms}; raise max_atoms explicitly if this is intended"
        )
    for cf, cg in zip(truth_chunks(f, varying), truth_chunks(g, varying)):
        if cf != cg:
            return False
    return True


_LVL_IMPL, _LVL_DISJ, _LVL_CONJ, _LVL_UNARY = 0, 1, 2, 3


def format_formula(f: Formula) -> str:
    """Canonical text form; `parse_formula` inverts it exactly."""
    return _fmt(f, _LVL_IMPL)


def format_program(formulas: Iterable[Formula]) -> str:
    return "".join(format_formula(f) + ".\n" for f in formulas)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, AtomRef):
        return str(f.atom)
    if isinstance(f, Conj):
        if not f.children:
            return "top"
        if len(f.children) == 1:
            return "And{" + _fmt(f.children[0], _LVL_IMPL) + "}"
        s = " & ".join(_fmt(c, _LVL_UNARY) for c in f.children)
        return s if ctx <= _LVL_CONJ else "(" + s + ")"
    if isinstance(f, Disj):
        if not f.children:
            return "bot"
        if len(f.children) == 1:
            return "Or{" + _fmt(f.children[0], _LVL_IMPL) + "}"
        s = " | ".join(_fmt(c, _LVL_CONJ) for c in f.children)
        return s if ctx <= _LVL_DISJ else "(" + s + ")"
    assert isinstance(f, Impl)
    if f.rhs == BOT:
        s = "not " + _fmt(f.lhs, _LVL_UNARY)
        return s if ctx <= _LVL_UNARY else "(" + s + ")"
    s = _fmt(f.lhs, _LVL_DISJ) + " -> " + _fmt(f.rhs, _LVL_IMPL)
    return s if ctx == _LVL_IMPL else "(" + s + ")"
