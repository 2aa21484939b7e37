"""Seeded random generators and executable property suites.

Each suite draws small random instances (formulas, interpretations, graphs,
partitions, definitions), checks one semantic property against a brute-force
or otherwise independent route, and reports pass/fail counts plus the first
counterexample rendered in the ground text format so it can be replayed.
Generation skews toward signatures small enough for the exhaustive oracles
to stay exact; nothing here is sampled approximately.
"""

from __future__ import annotations

import functools
import itertools
import random
import string
from typing import Callable, Iterable, Sequence

from . import fo
from .definitions import (
    DefinitionModule,
    Rejection,
    check_conservativity,
    intersection_oracle,
    recognize_definition,
    unique_q_stable,
)
from .depgraph import (
    DepGraph,
    Partition2,
    closed_walk_infinitely_separable,
    dep_graph,
    find_closed_subset,
    is_infinitely_separable,
    is_separable,
    neg_nonnegated,
    pos_nonnegated,
    sccs,
    simple_cycles,
    strictly_positive,
)
from .formula import (
    Atom,
    AtomRef,
    BOT,
    Formula,
    Impl,
    TOP,
    atoms_of,
    conj,
    disj,
    equivalent,
    format_program,
    neg,
    reduct,
    satisfies,
    set_bits,
    truth_chunks,
)
from .records import Record
from .splitting import PreconditionError, SplitPlanError, _violations, modular_solve, split_models_lemma, split_models_theorem
from .stable import (
    ModelSet,
    choice_extension,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,
    is_a_stable_ht,
    modred,
)
from .syntax import ParseError, parse_program

DEFAULT_SEED = 1729


class ConfigError(ValueError):
    """A suite run refused before any draw: a bound or probability out of
    range, an unknown suite, or unsound mode for a suite that has no
    preconditions to drop."""


class GenConfig(Record):
    """Bounds and probabilities for the random generators."""

    __slots__ = ("seed", "max_atoms", "max_depth", "max_branch", "impl_prob", "neg_prob", "iterations")

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        max_atoms: int = 5,
        max_depth: int = 4,
        max_branch: int = 3,
        impl_prob: float = 0.3,
        neg_prob: float = 0.15,
        iterations: int = 500,
    ) -> None:
        if min(max_atoms, max_depth + 1, max_branch, iterations) <= 0:
            raise ConfigError("bounds must be positive")
        if not (0.0 <= impl_prob <= 1.0 and 0.0 <= neg_prob <= 1.0):
            raise ConfigError("probabilities must lie in [0, 1]")
        if impl_prob + neg_prob > 1.0:
            raise ConfigError("impl_prob + neg_prob must not exceed 1")
        for name, value in zip(self._fields, (seed, max_atoms, max_depth, max_branch, impl_prob, neg_prob, iterations)):
            object.__setattr__(self, name, value)

    def replace(self, **changes: object) -> "GenConfig":
        """A copy with the named fields changed, validated again."""
        return GenConfig(**{**dict(zip(self._fields, self._values())), **changes})


class SuiteReport(Record):
    __slots__ = ("suite", "passes", "fails", "skipped_draws", "first_counterexample")

    def __init__(self, suite: str, passes: int, fails: int, skipped_draws: int, first_counterexample: str | None) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "fails", fails)
        object.__setattr__(self, "skipped_draws", skipped_draws)
        object.__setattr__(self, "first_counterexample", first_counterexample)

    def lines(self) -> list[str]:
        out = [
            f"suite {self.suite}: {self.passes} passed, {self.fails} failed "
            f"({self.skipped_draws} draws skipped)"
        ]
        if self.first_counterexample:
            out.append("first counterexample:")
            out.extend("  " + ln for ln in self.first_counterexample.splitlines())
        return out


_POOL = tuple(map(Atom, string.ascii_lowercase))  # built once: an atom checks its name


def _atom_pool(n: int) -> list[Atom]:
    """The first n of the atoms a to z, as a new list."""
    return list(_POOL[:n])


def _gen(rng: random.Random, pool: Sequence[Atom], depth: int, cfg: GenConfig) -> Formula:
    if depth <= 0:
        r = rng.random()
        if r < 0.85:
            return AtomRef(rng.choice(list(pool)))
        return TOP if r < 0.925 else BOT
    r = rng.random()
    if r < cfg.impl_prob:
        return Impl(_gen(rng, pool, depth - 1, cfg), _gen(rng, pool, depth - 1, cfg))
    if r < cfg.impl_prob + cfg.neg_prob:
        return neg(_gen(rng, pool, depth - 1, cfg))
    kids = [_gen(rng, pool, depth - 1, cfg) for _ in range(rng.randint(0, cfg.max_branch))]
    return conj(kids) if rng.random() < 0.5 else disj(kids)


def gen_formula(cfg: GenConfig) -> Formula:
    """Deterministic for a fixed seed; all four node kinds can occur."""
    rng = random.Random(cfg.seed)
    return _gen(rng, _atom_pool(cfg.max_atoms), cfg.max_depth, cfg)


def _draw(rng: random.Random, cfg: GenConfig) -> tuple[list[Atom], frozenset[Atom], Formula]:
    """The pool of cfg.max_atoms atoms, its set, and a formula over it of a
    depth drawn up to cfg.max_depth: how the single-formula suites open."""
    pool = _atom_pool(cfg.max_atoms)
    return pool, frozenset(pool), _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)


def _rand_subset(rng: random.Random, items: Iterable, p: float = 0.5) -> frozenset:
    return frozenset(x for x in items if rng.random() < p)


def _render(value: object) -> str:
    """A field of a case as its report prints it: an interpretation in
    braces, a model set on one line, a graph by its edges, a program as its
    conjuncts each ended by `.`, another list comma-separated, and anything
    else (a formula, a `Rejection`, an error, a plain value) as its text.
    An empty model set, edge set or list prints as `(none)`."""
    t = type(value)
    if t is frozenset:
        return format_interpretation(value)
    if t is ModelSet:
        text = " ".join(value.lines())
    elif t is DepGraph:
        text = "; ".join(f"{u}->{v}" for u, v in sorted(value.edges))
    elif t is list and value and isinstance(value[0], Formula):
        return " ".join(f"{c}." for c in value)
    elif t is list:
        text = ",".join(map(str, value))
    else:
        return str(value)
    return text or "(none)"


def _models_of(f: Formula, sigma: frozenset[Atom]) -> list[frozenset[Atom]]:
    return list(enumerate_a_stable(f, frozenset(), sigma).models)


def _biased_interp(rng: random.Random, f: Formula, sigma: frozenset[Atom]) -> frozenset[Atom]:
    """Half the time a random model of f (when one exists), else uniform."""
    if rng.random() < 0.5:
        models = _models_of(f, sigma)
        if models:
            return rng.choice(models)
    return _rand_subset(rng, sorted(sigma))


def _gen_graph(rng: random.Random, max_vertices: int = 10) -> DepGraph:
    n = rng.randint(1, max_vertices)
    verts = [Atom(f"v{i}") for i in range(n)]
    p = min(1.0, 2.0 / n)
    edges = frozenset(
        (u, v) for u in verts for v in verts if rng.random() < p
    )
    return DepGraph(frozenset(verts), edges)


def _scc_aligned_partition(rng: random.Random, g: DepGraph) -> Partition2:
    part1: set[Atom] = set()
    for comp in sccs(g):
        if rng.random() < 0.5:
            part1 |= comp
    return Partition2(frozenset(part1), g.vertices - part1)


def _gen_program(rng: random.Random, pool: Sequence[Atom], n_rules: int) -> list[Formula]:
    """Rule-shaped conjuncts: facts, implications with literal bodies, and an
    occasional constraint."""
    pool = list(pool)
    out: list[Formula] = []
    for _ in range(n_rules):
        head = AtomRef(rng.choice(pool))
        kind = rng.random()
        if kind < 0.2:
            out.append(head)
            continue
        lits: list[Formula] = []
        for _ in range(rng.randint(1, 2)):
            b = AtomRef(rng.choice(pool))
            lits.append(neg(b) if rng.random() < 0.4 else b)
        body = lits[0] if len(lits) == 1 else conj(lits)
        if kind < 0.3:
            out.append(Impl(body, BOT))
        else:
            out.append(Impl(body, head))
    return out


def _literal(rng: random.Random, atoms: Sequence[Formula], p: float = 0.4) -> Formula:
    """One of `atoms`, negated with probability p."""
    x = rng.choice(atoms)
    return neg(x) if rng.random() < p else x


def _ring_program(rng: random.Random, rings: int, width: int, extra: int) -> tuple[list[Formula], frozenset[Atom], list[Atom]]:
    """A program of `rings` switched rings of `width` intensional atoms
    beside `extra` context atoms, its A and its pool, the atoms shuffled.

    A switched ring is the positive ring `x -> y` through its atoms, each
    link switched to `x & l -> y` with probability 0.3 by a literal l of
    the atoms it reads; up to two chords of its closure, `x & y -> z`; and
    one or two seeds, each a fact, a rule `l -> x` or `l & l' -> x`, or
    `not not e -> x`, a body that is no conjunction of literals.  Ring k
    reads the context and the rings before it.  A context atom is
    extensional, a choice, or derived from a literal of the first ring or
    of the other context atoms, so no positive path leads from a ring into
    a later one and no strongly connected component is wider than the
    first ring with the context.  Up to two constraints follow, and at
    most one spoiler, which makes one ring no definition: a rule from its
    own ring to a disjunctive head, or a new intensional atom w derived
    from a ring atom that the ring reads back through `not not w`, which
    pulls w into the ring's unit.  In a quarter of the draws with two
    rings or more an earlier ring also reads a later one through `not`, a
    cycle of reads."""
    pool = _atom_pool(rings * width + extra)
    rng.shuffle(pool)
    atoms = [AtomRef(x) for x in pool]
    parts, context = [atoms[k * width : (k + 1) * width] for k in range(rings)], atoms[rings * width :]
    conjuncts: list[Formula] = []
    for k, ring in enumerate(parts):
        reads = context + atoms[: k * width]
        for x, y in zip(ring, ring[1:] + ring[:1]):
            conjuncts.append(Impl(conj((x, _literal(rng, reads))), y) if rng.random() < 0.3 else Impl(x, y))
        for _ in range(rng.randint(0, 2)):
            x, y, z = rng.sample(ring, 3)
            conjuncts.append(Impl(conj((x, y)), z))
        for _ in range(rng.randint(1, 2)):
            head, kind = rng.choice(ring), rng.random()
            if kind < 0.15:
                conjuncts.append(head)
            elif kind < 0.4:
                conjuncts.append(Impl(neg(neg(rng.choice(reads))), head))
            else:
                body = _literal(rng, reads)
                conjuncts.append(Impl(body if kind < 0.7 else conj((body, _literal(rng, reads))), head))
    if rings > 1 and rng.random() < 0.25:
        j, k = sorted(rng.sample(range(rings), 2))
        conjuncts.append(Impl(neg(rng.choice(parts[k])), rng.choice(parts[j])))
        conjuncts.append(Impl(neg(rng.choice(parts[j])), rng.choice(parts[k])))
    a = set(pool[: rings * width])
    for x in context:
        kind = rng.random()
        if kind < 0.3:
            continue  # extensional
        a.add(x.atom)
        conjuncts.append(disj((x, neg(x))) if kind < 0.6 else Impl(_literal(rng, parts[0] + [y for y in context if y is not x], 0.5), x))
    for _ in range(rng.randint(0, 2)):
        conjuncts.append(neg(conj(_literal(rng, atoms, 0.3) for _ in range(2))))
    kind, k = rng.random(), rng.randrange(rings)
    ring = parts[k]
    if kind < 0.25:  # a context head only in the first ring: no context atom leads into a later one
        conjuncts.append(Impl(_literal(rng, ring), disj((rng.choice(ring), rng.choice(ring + context if k == 0 else ring)))))
    elif kind < 0.5:
        w = AtomRef(_POOL[len(pool)])
        pool.append(w.atom)
        a.add(w.atom)
        conjuncts += [Impl(rng.choice(ring), w), Impl(neg(neg(w)), rng.choice(ring))]
    return conjuncts, frozenset(a), pool


# -- individual suites -------------------------------------------------------


def _suite_prop1(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    i = _rand_subset(rng, pool)
    a = _rand_subset(rng, pool)
    direct = is_a_stable(f, i, a)
    m = modred(f, i, a)
    minimal = satisfies(i, m) and not any(
        satisfies(frozenset(combo), m)
        for size in range(len(i))
        for combo in itertools.combinations(sorted(i), size)
    )
    via_choice = i in enumerate_a_stable(choice_extension(f, a, sigma), sigma, sigma)
    ok = direct == minimal == via_choice
    return ok, lambda: dict(formula=f, i=i, a_set=a, direct=direct, minimal_modred=minimal, via_choice=via_choice)


def _suite_prop3(rng, cfg, unsound):
    g = _gen_graph(rng)
    part1 = _rand_subset(rng, sorted(g.vertices))
    pi = Partition2(part1, g.vertices - part1)
    fast = is_separable(g, pi)
    oracle = closed_walk_infinitely_separable(g, pi)
    ok = fast == oracle == is_infinitely_separable(g, pi)
    return ok, lambda: dict(vertices=g.vertices, edges=g, part1=pi.part1, scc_route=fast, closed_walk_route=oracle)


def prop3_exhaustive(max_vertices: int = 4) -> tuple[int, int]:
    """Check SCC separability against the closed-walk oracle on every digraph
    with up to max_vertices vertices (self-loops included) and every
    2-partition.  Returns (cases, failures)."""
    cases = failures = 0
    for n in range(1, max_vertices + 1):
        verts = [Atom(f"v{i}") for i in range(n)]
        vset = frozenset(verts)
        pairs = [(u, v) for u in verts for v in verts]
        for bits in range(1 << len(pairs)):
            g = DepGraph(vset, frozenset(p for k, p in enumerate(pairs) if bits >> k & 1))
            comps = sccs(g)
            cycles = [set(c) for c in simple_cycles(g)]
            for pbits in range(1 << n):
                p1 = frozenset(v for k, v in enumerate(verts) if pbits >> k & 1)
                p2 = vset - p1
                sep = all(c <= p1 or c <= p2 for c in comps)
                walk = not any(c & p1 and c & p2 for c in cycles)
                cases += 1
                if sep != walk:
                    failures += 1
                if cases % 5000 == 0:  # spot-check the public entry points
                    pi = Partition2(p1, p2)
                    if (is_separable(g, pi) != sep
                            or closed_walk_infinitely_separable(g, pi) != walk):
                        failures += 1
    return cases, failures


def _suite_lemma1(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    i = _rand_subset(rng, pool)
    if satisfies(i, f):
        return None
    ok = equivalent(reduct(f, i), BOT, sigma)
    return ok, lambda: dict(formula=f, i=i)


def _suite_lemma2(rng, cfg, unsound):
    _, sigma, f = _draw(rng, cfg)
    i = _biased_interp(rng, f, sigma)
    if not satisfies(i, f):
        return None
    a = _rand_subset(rng, sorted(sigma - strictly_positive(f)))
    ok = satisfies(i - a, reduct(f, i))
    return ok, lambda: dict(formula=f, i=i, a_set=a)


def _suite_lemma3(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    i = _biased_interp(rng, f, sigma)
    r = reduct(f, i)
    b1 = _rand_subset(rng, pool, 0.3)
    b2_pos = _rand_subset(rng, sorted(sigma - b1 - pos_nonnegated(f)), 0.5)
    b2_neg = _rand_subset(rng, sorted(sigma - b1 - neg_nonnegated(f)), 0.5)
    ok_fwd = (not satisfies(i - b1, r)) or satisfies(i - (b1 | b2_pos), r)
    ok_bwd = (not satisfies(i - (b1 | b2_neg), r)) or satisfies(i - b1, r)
    return ok_fwd and ok_bwd, lambda: dict(formula=f, i=i, b1=b1, b2_for_pos=b2_pos, b2_for_neg=b2_neg)


def _suite_lemma4(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    b = _rand_subset(rng, pool, 0.4)
    c = _rand_subset(rng, sorted(sigma - b), 0.4)
    g = dep_graph(f, b | c)
    if any(u in b and v in c for u, v in g.edges):
        return None
    i = _biased_interp(rng, f, sigma)
    r = reduct(f, i)
    if not satisfies(i - (b | c), r):
        return None
    ok = satisfies(i - b, r)
    return ok, lambda: dict(formula=f, i=i, b_set=b, c_set=c)


def _suite_lemma5(rng, cfg, unsound):
    g = _gen_graph(rng, 8)
    pi = _scc_aligned_partition(rng, g)
    try:
        b = find_closed_subset(g, pi)
    except ValueError as exc:
        return False, functools.partial(dict, edges=g, error=exc)
    ok = (
        bool(b)
        and (b <= pi.part1 or b <= pi.part2)
        and not any(u in b and v not in b for u, v in g.edges)
    )
    return ok, lambda: dict(vertices=g.vertices, edges=g, part1=pi.part1, found=b)


def _suite_lemma6(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    g = _gen(rng, pool, rng.randint(0, cfg.max_depth - 1), cfg)
    a = _rand_subset(rng, sorted(sigma - strictly_positive(g)))
    i = _rand_subset(rng, pool)
    joint = is_a_stable(conj((f, g)), i, a)
    split = is_a_stable(f, i, a) and satisfies(i, g)
    return joint == split, lambda: dict(formula_f=f, formula_g=g, i=i, a_set=a, joint=joint, split=split)


def _suite_lemma7(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    a = atoms_of(f) | _rand_subset(rng, pool, 0.3)
    i = _rand_subset(rng, pool)
    relative = is_a_stable(f, i, a)
    projected_stable = is_a_stable(f, i & a, sigma)
    return relative == projected_stable, lambda: dict(formula=f, i=i, a_set=a)


def _gen_definition(rng: random.Random, cfg: GenConfig) -> DefinitionModule | Rejection:
    q_atoms = [Atom(f"q{k}") for k in range(1, rng.randint(2, 5))]
    base = _atom_pool(rng.randint(1, 3))
    clauses: list[Formula] = []
    for _ in range(rng.randint(0, 5)):
        head = rng.choice(q_atoms)
        pos_q = sorted(_rand_subset(rng, q_atoms, 0.3))
        body = _gen(rng, base, rng.randint(0, 2), cfg)
        parts: list[Formula] = [AtomRef(x) for x in pos_q]
        if body != TOP or not parts:
            parts.append(body)
        ante = parts[0] if len(parts) == 1 else conj(parts)
        clauses.append(Impl(ante, AtomRef(head)))
    g = clauses[0] if len(clauses) == 1 else conj(clauses)
    return recognize_definition(g, frozenset(q_atoms))


def _suite_lemma8(rng, cfg, unsound):
    d = _gen_definition(rng, cfg)
    if isinstance(d, Rejection):
        return False, lambda: dict(rejected=d)
    sigma = atoms_of(d.source) | d.q_set | frozenset(_atom_pool(2))
    models = _models_of(d.source, sigma)
    if not models:
        return False, lambda: dict(definition=d.source, error="no models")
    i = rng.choice(models)
    k = (i - d.q_set) | _rand_subset(rng, sorted(i & d.q_set))
    ok = satisfies(k, reduct(d.source, i)) == satisfies(k, d.source)
    return ok, lambda: dict(definition=d.source, i=i, k=k)


def _suite_lemma9(rng, cfg, unsound):
    d = _gen_definition(rng, cfg)
    if isinstance(d, Rejection):
        return False, lambda: dict(rejected=d)
    base = sorted(atoms_of(d.source) - d.q_set)
    ctx = _rand_subset(rng, base)
    fix = unique_q_stable(d, ctx)
    meet = intersection_oracle(d, ctx)
    stable_completions = [
        ctx | frozenset(combo)
        for size in range(len(d.q_set) + 1)
        for combo in itertools.combinations(sorted(d.q_set), size)
        if is_a_stable(d.source, ctx | frozenset(combo), d.q_set)
    ]
    ok = fix == meet and stable_completions == [fix]
    return ok, lambda: dict(
        definition=d.source, context=ctx, fixpoint=fix, intersection=meet, stable_count=len(stable_completions)
    )


def _suite_split_lemma(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    conjuncts = _gen_program(rng, pool, rng.randint(1, 4))
    if rng.random() < 0.3:
        conjuncts.append(_gen(rng, pool, 2, cfg))
    f = conj(conjuncts)
    a = _rand_subset(rng, pool, 0.8)
    if unsound:
        # Aim straight at a violation: straddle a multi-atom component.
        wide = [c for c in sccs(dep_graph(f, a)) if len(c) > 1]
        if not wide:
            return None
        cut = sorted(rng.choice(wide))
        k = rng.randint(1, len(cut) - 1)
        p1 = frozenset(cut[:k]) | _rand_subset(rng, sorted(a - set(cut)))
        p2 = a - p1
        joint = enumerate_a_stable(f, a, sigma)
        split = enumerate_a_stable(f, p1, sigma).intersection(enumerate_a_stable(f, p2, sigma))
    else:
        pi = _scc_aligned_partition(rng, dep_graph(f, a))
        p1, p2 = pi.part1, pi.part2
        joint = enumerate_a_stable(f, a, sigma)
        split = split_models_lemma(f, p1, p2, sigma)
    ok = joint.as_set() == split.as_set()
    return ok, lambda: dict(formula=f, part1=p1, part2=p2, joint_models=joint, split_models=split)


def _suite_split_theorem(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    conjuncts = _gen_program(rng, pool, rng.randint(2, 5))
    whole = conj(conjuncts)
    a = _rand_subset(rng, pool, 0.8)
    if unsound:
        a1 = _rand_subset(rng, sorted(a))
        a2 = a - a1
        fs = [c for c in conjuncts if rng.random() < 0.5]
        gs = [c for c in conjuncts if c not in fs]
        f, g = conj(fs), conj(gs)
        if not _violations(f, g, a1, a2):
            return None
        split = enumerate_a_stable(f, a1, sigma).intersection(enumerate_a_stable(g, a2, sigma))
    else:
        pi = _scc_aligned_partition(rng, dep_graph(whole, a))
        a1, a2 = pi.part1, pi.part2
        fs, gs = [], []
        for c in conjuncts:  # each has at most one head, in a1 or in a2
            heads = strictly_positive(c) & a
            if not heads:
                (fs if rng.random() < 0.5 else gs).append(c)
            else:
                (fs if heads <= a1 else gs).append(c)
        f, g = conj(fs), conj(gs)
        try:
            split = split_models_theorem(f, g, a1, a2, sigma)
        except PreconditionError as exc:
            return False, functools.partial(dict, formula_f=f, formula_g=g, error=exc)
    joint = enumerate_a_stable(conj((f, g)), a1 | a2, sigma)
    ok = joint.as_set() == split.as_set()
    return ok, lambda: dict(formula_f=f, formula_g=g, a1=a1, a2=a2, joint_models=joint, split_models=split)


def _suite_stable_kernel(rng, cfg, unsound):
    pool, sigma, f = _draw(rng, cfg)
    i = _biased_interp(rng, f, sigma)
    a = _rand_subset(rng, pool)
    if rng.random() < 0.25:
        a -= i  # I & A empty: stability reduces to satisfaction
    fused = is_a_stable_ht(f, i, a)
    reference = is_a_stable(f, i, a)
    return fused == reference, lambda: dict(formula=f, i=i, a_set=a, fused=fused, reference=reference)


def _reference_models(f: Formula, a: frozenset[Atom], pool: Sequence[Atom]) -> ModelSet:
    """The A-stable models of f over pool, by the reference `is_a_stable`
    on every classical model (I satisfies the reduct of f w.r.t. I iff it
    satisfies f, so no other interpretation is A-stable)."""
    subsets = (frozenset(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k))
    return ModelSet.from_iter((i for i in subsets if satisfies(i, f) and is_a_stable(f, i, a)), frozenset(pool))


def _both_solvers(conjuncts: list[Formula], a: frozenset[Atom], pool: Sequence[Atom], reference=None):
    """A suite's verdict on a program that both `enumerate_a_stable` and
    `modular_solve` must solve as the reference `is_a_stable` does, by
    `_reference_models` unless another `reference` is given.  Where
    `modular_solve` refuses a split it cannot make, the enumerator's answer
    stands in for it, as in the CLI."""
    f = conj(conjuncts)
    enumerated = enumerate_a_stable(f, a, frozenset(pool))
    try:
        modular = modular_solve(conjuncts, a, frozenset(pool))
    except SplitPlanError:
        modular = enumerated
    want = (reference or _reference_models)(f, a, pool)
    return enumerated == want == modular, lambda: dict(
        program=conjuncts, a_set=a, enumerated_models=enumerated, modular_models=modular, reference_models=want
    )


def _suite_stable_modular(rng, cfg, unsound):
    """Rule-shaped programs on at most 6 atoms with choices, an even
    negative cycle and extensional atoms, so that `modular_solve` extends
    several contexts unit by unit; two in five of them hold a clause `not
    not x -> y`, whose body is compiled where the unit of y is a
    definition.  A quarter of the draws are one switched ring of 7
    (`_ring_program`) beside 1 or 2 context atoms, a unit wider than
    `_NARROW` that a derived context atom may join, half of them spoiled
    so that the unit is no definition.  Both solvers must give the
    reference models (see `_both_solvers`)."""
    if rng.random() < 0.25:
        return _both_solvers(*_ring_program(rng, 1, 7, rng.randint(1, 2)))
    pool = _atom_pool(min(cfg.max_atoms, 6))
    conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
    for x in sorted(_rand_subset(rng, pool, 0.2)):
        conjuncts.append(disj((AtomRef(x), neg(AtomRef(x)))))  # frontier entries per choice
    if rng.random() < 0.2:
        conjuncts.append(_gen(rng, pool, 2, cfg))
    if rng.random() < 0.4:
        # the body `not not x` is no conjunction of literals, so the unit
        # of y, a definition unless it holds x, compiles it
        x, y = (AtomRef(x) for x in rng.sample(pool, 2))
        conjuncts.append(Impl(neg(neg(x)), y))
    if len(pool) > 1 and rng.random() < 0.2:
        # an even negative cycle: two atoms that mention each other only
        # through negation, one unit of two dependency blocks
        p, q = (AtomRef(x) for x in rng.sample(pool, 2))
        conjuncts += [Impl(neg(p), q), Impl(neg(q), p)]
    a = _rand_subset(rng, pool, 0.7)  # the rest are extensional: several contexts
    return _both_solvers(conjuncts, a, pool)


def _suite_stable_scc(rng, cfg, unsound):
    """Programs on 6 to 8 atoms made of positive loops, linked across
    components by positive and negative rules, with choices and extensional
    atoms: `enumerate_a_stable` checks each strongly connected component of
    the positive dependency graph as its own part of A, one of at most 6
    atoms by its loop formulas in the sweep.  A quarter of the draws start
    with an intensional loop of 7 atoms, wider than a part with loop
    formulas, whose links may be switched by an atom outside it, so that
    its classical models make any number of its atoms true.  Both solvers
    must give the reference models (see `_both_solvers`)."""
    wide = rng.random() < 0.25
    pool = _atom_pool(8 if wide else rng.randint(6, 8))
    rng.shuffle(pool)
    atoms = [AtomRef(x) for x in pool]
    loops: list[list[Formula]] = []
    start = 0
    while start < len(atoms):
        size = 7 if wide and not loops else rng.randint(1, 4)
        loops.append(atoms[start : start + size])
        start += size
    conjuncts: list[Formula] = []
    for loop in loops:
        others = [x for x in atoms if x not in loop]
        for x, y in zip(loop, loop[1:] + loop[:1]) if len(loop) > 1 else ():
            switched = others and rng.random() < 0.3
            conjuncts.append(Impl(conj((x, rng.choice(others))) if switched else x, y))
        if len(loop) > 2 and rng.random() < 0.3:  # a rule inside the loop with a two-atom body
            conjuncts.append(Impl(conj(rng.sample(loop, 2)), rng.choice(loop)))
        for x in loop:
            if rng.random() < (0.4 if x is loop[0] else 0.15):
                conjuncts.append(disj((x, neg(x))))
    for _ in range(rng.randint(0, 4) if len(loops) > 1 else 0):
        src, dst = rng.sample(loops, 2)
        body, head = rng.choice(src), rng.choice(dst)
        kind = rng.random()
        if kind < 0.4:
            conjuncts.append(Impl(body, head))
        elif kind < 0.8:
            conjuncts.append(Impl(neg(body), head))
        else:
            conjuncts.append(Impl(conj((body, neg(rng.choice(src)))), head))
    a = _rand_subset(rng, pool, 0.8) | (frozenset(pool[:7]) if wide else frozenset())
    return _both_solvers(conjuncts, a, pool)


def _suite_stable_definition(rng, cfg, unsound):
    """Programs on 8 to 10 atoms with a part of 7 or 8 intensional atoms,
    wider than a part with a slot per subset: a switched ring
    (`_ring_program`) whose switches and seeds read the context atoms,
    some seeds through `not not`, a body that is compiled.  Its context
    atoms are extensional, choices, or derived, some from ring atoms,
    which may pull them into the ring's unit and component; constraints
    are added, and in half the draws a spoiler makes the ring no
    definition.
    `enumerate_a_stable` then decides a definition part by one fixpoint
    over its candidates, `modular_solve` a definition unit by one
    fixpoint over its contexts; both must give the models of the
    reference `is_a_stable`."""
    width = rng.randint(7, 8)
    return _both_solvers(*_ring_program(rng, 1, width, rng.randint(1, 10 - width)))


def _suite_stable_loops(rng, cfg, unsound):
    """Programs on 7 to 9 atoms, past one run over every assignment, around
    a positive loop of 2 to 5 atoms, so that `enumerate_a_stable` decides
    its part by the loop formulas in the sweep.  Rules into the loop take
    bodies with loop atoms, other atoms, negations and nested implications
    such as `((u | v) -> w) -> h`; some heads are disjunctive, some loop
    atoms facts.  The other atoms are choices, derived, some asked for by
    `not not x`, or extensional.  A fifth of the draws take a loop of 7
    atoms instead, no definition by a rule `u -> v | w`, and derive the
    other atoms from it: it is checked per candidate against the program
    itself while the loop formulas of the other atoms read it.  Both `enumerate_a_stable` and `modular_solve` must give
    the models of the reference `is_a_stable`."""
    wide = rng.random() < 0.2
    pool = _atom_pool(9 if wide else rng.randint(7, 9))
    rng.shuffle(pool)
    atoms = [AtomRef(x) for x in pool]
    size = 7 if wide else rng.randint(2, 5)
    loop, rest = atoms[:size], atoms[size:]

    def body() -> Formula:
        u, w = rng.choice(loop), rng.choice(rest)
        kind = rng.random()
        if kind < 0.5:
            return Impl(disj((u, rng.choice(atoms))), neg(w) if kind < 0.1 else w)
        return conj((u, neg(w))) if kind < 0.65 else conj((u, w)) if kind < 0.8 else neg(w)

    conjuncts: list[Formula] = [Impl(x, y) for x, y in zip(loop, loop[1:] + loop[:1])]
    if wide:
        conjuncts.append(Impl(rng.choice(loop), disj((rng.choice(loop), rng.choice(rest)))))
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(loop)
        conjuncts.append(Impl(body(), disj((head, rng.choice(atoms))) if rng.random() < 0.15 else head))
    if rng.random() < 0.15:
        conjuncts.append(rng.choice(loop))
    for x in rest:
        kind = rng.random()
        if wide or 0.5 <= kind < 0.7:
            conjuncts.append(Impl(rng.choice(loop) if wide else body(), x))
            if rng.random() < (0.7 if wide else 0.4):
                conjuncts.append(neg(neg(x)))
        elif kind < 0.5:
            conjuncts.append(disj((x, neg(x))))
    a = frozenset(pool) - {x.atom for x in rest if rng.random() < 0.3}
    return _both_solvers(conjuncts, a, pool)


def _split_reference(f: Formula, a: frozenset[Atom], pool: Sequence[Atom]) -> ModelSet:
    """The A-stable models of f over pool: each classical model, from one
    sweep (`truth_chunks`, which the `sweep_kleene` suite checks against
    `satisfies`), that the reference `is_a_stable` finds C-stable for
    every strongly connected component C of the positive dependency graph
    over A.  By the splitting lemma that is A-stability, and a call per
    component inspects at most 2**|C| subsets, where one over all of A,
    three parts of 7 atoms, would take 2**21."""
    blocks = sccs(dep_graph(f, a))
    chunk_bits = 16
    masks: list[int] = []
    for k, chunk in enumerate(truth_chunks(f, pool, frozenset(), chunk_bits)):
        masks += set_bits(chunk, k << chunk_bits)
    classical = (frozenset(x for b, x in enumerate(pool) if m >> b & 1) for m in masks)
    return ModelSet.from_iter((i for i in classical if all(is_a_stable(f, i, c) for c in blocks if i & c)), frozenset(pool))


def _suite_stable_projection(rng, cfg, unsound):
    """Programs with 1 to 3 definition parts of 7 atoms, each a switched
    ring, beside 1 to 3 context atoms (`_ring_program`).  A part's
    switches and seeds read context atoms and atoms of earlier parts,
    positively or through `not`, so `enumerate_a_stable` derives its atoms
    after theirs instead of sweeping them; in a quarter of the draws with
    two parts or more an earlier part also reads a later one through
    `not`, a cycle of reads that keeps both swept and compared with their
    fixpoints.  Constraints, some on part atoms, only the run of the whole
    program checks.  A spoiler makes one part no definition: a
    disjunctive head, or a new atom w in its unit, which `modular_solve`
    then solves with the unit's context fixed.  Both solvers must give
    the models of the reference `is_a_stable` (see `_split_reference`)."""
    n = rng.choice((1, 1, 2, 2, 3))  # three parts take the reference longest
    return _both_solvers(*_ring_program(rng, n, 7, rng.randint(1, 4 - n if n > 1 else 3)), _split_reference)


def _suite_sweep_kleene(rng, cfg, unsound):
    """A formula or a rule-shaped program on up to 10 atoms, swept by
    `truth_chunks` over a random order of some of its atoms at a random
    chunk width, the other atoms fixed by a random context (which may also
    name swept atoms), so that most draws have high atoms and a Kleene run
    that skips sub-chunks, and many a chunk only partly live, whose live
    sub-chunks run packed: every bit must be classical truth by
    `satisfies`.  A sub-chunk has at least 3 atoms, so at least 6 are
    swept when the pool has them, and past 5 swept atoms the chunk width
    is 4 or more, with a high atom left."""
    pool = _atom_pool(rng.randint(2, 10))
    if rng.random() < 0.5:
        f = _gen(rng, pool, rng.randint(1, cfg.max_depth), cfg)
    else:
        f = conj(_gen_program(rng, pool, rng.randint(1, 8)))
    var = rng.sample(pool, rng.randint(min(6, len(pool)), len(pool)))
    true = _rand_subset(rng, pool)
    chunk_bits = rng.randint(4, len(var) - 1) if len(var) > 5 else rng.randint(0, len(var))
    width = 1 << chunk_bits
    swept = sum(c << k * width for k, c in enumerate(truth_chunks(f, var, true, chunk_bits)))
    fixed = true.difference(var)
    assignments = [fixed | frozenset(x for b, x in enumerate(var) if m >> b & 1) for m in range(1 << len(var))]
    reference = sum(satisfies(i, f) << m for m, i in enumerate(assignments))
    diff = swept ^ reference
    return not diff, lambda: dict(
        formula=f, swept_atoms=var, true_atoms=true, chunk_bits=chunk_bits,
        first_difference=assignments[(diff & -diff).bit_length() - 1],
    )


# The characters of a one-character edit: those of tokens and blanks, and
# some that no token may hold, or not where they land.
_EDIT_CHARS = "abept_ \t->&|(){};,.=@\u00e91%\n"


def _stray_index(text: str) -> int | None:
    """The index of the first character outside every comment that no
    token may hold where it stands, found by a scan of the characters: a
    character that is no ASCII letter, digit, `_`, blank or punctuation, a
    digit that starts a word, a `-` before anything but `>`, or a `>` after
    anything but `-`."""
    in_comment = False
    for i, c in enumerate(text):
        if in_comment:
            in_comment = c != "\n"
        elif c == "%":
            in_comment = True
        elif c.isascii() and c.isdigit():
            before = text[i - 1] if i else " "
            if not (before.isascii() and (before.isalnum() or before == "_")):
                return i
        elif c == "-":
            if text[i + 1 : i + 2] != ">":
                return i
        elif c == ">":
            if text[i - 1 : i] != "-":
                return i
        elif not (c in " \t\r\n&|(){};,.=_" or c.isascii() and c.isalpha()):
            return i
    return None


def _edit_problem(text: str) -> str | None:
    """None when text parses, or when its `ParseError` is the one that the
    characters confirm: for a stray character, the error names it at its
    position; otherwise the reported token starts at the position, or the
    input ends there or a trailing comment starts there."""
    stray = _stray_index(text)
    try:
        parse_program(text)
    except ParseError as exc:
        lines = text.split("\n")
        at = sum(len(ln) + 1 for ln in lines[: exc.line - 1]) + exc.col - 1
        message = str(exc).split(": ", 1)[1]
        if stray is not None:
            want = f"unexpected character {text[stray]!r}"
            return None if (at, message) == (stray, want) else f"want {want} at index {stray}: {exc}"
        # the token the message quotes, after "found" or else first; every
        # token's repr is the token in single quotes
        quoted = message.rsplit("found ", 1)[1] if "found " in message else message.split(" ", 1)[0]
        token = quoted[1:-1]
        if token == "end of input":
            rest = text[at:]
            ok = at == len(text) or rest.startswith("%") and "\n" not in rest
        else:
            ok = text.startswith(token, at)
        return None if ok else f"{token!r} is not at index {at}: {exc}"
    return None if stray is None else f"parsed with a stray {text[stray]!r} at index {stray}"


def _suite_syntax_roundtrip(rng, cfg, unsound):
    """Random formulas or a rule-shaped program, some of whose atoms have
    arguments, must print and parse back equal; then one random insertion,
    deletion or replacement of a character in the printed text must parse
    or fail where a scan of its characters confirms (`_edit_problem`)."""
    pool = _atom_pool(rng.randint(1, 4)) + [Atom("p", ("a",)), Atom("e", ("a", "b"))][: rng.randint(0, 2)]
    if rng.random() < 0.5:
        formulas = [_gen(rng, pool, rng.randint(0, cfg.max_depth), cfg) for _ in range(rng.randint(1, 3))]
    else:
        formulas = _gen_program(rng, pool, rng.randint(1, 6))
    text = format_program(formulas)
    i = rng.randint(0, len(text))
    op = rng.choice(("insert", "delete", "replace"))
    edited = text[:i] + ("" if op == "delete" else rng.choice(_EDIT_CHARS)) + text[i + (op != "insert") :]
    back = parse_program(text)
    problem = "the printed text parses to other formulas" if back != formulas else _edit_problem(edited)
    return problem is None, lambda: dict(text=repr(text), edited=repr(edited), problem=problem)


def _suite_definitions_theorem(rng, cfg, unsound):
    d = _gen_definition(rng, cfg)
    if isinstance(d, Rejection):
        return False, lambda: dict(rejected=d)
    base = _atom_pool(3)
    f = _gen(rng, base, rng.randint(0, 3), cfg)
    report = check_conservativity(f, d)
    return report.bijection, lambda: dict(
        base_formula=f, definition=d.source,
        outcome=report.counterexample or f"bijection of size {len(report.models or ())}",
    )


_FO_VARS = ("X", "Y")


def _gen_fo(rng: random.Random, depth: int, bound: tuple[str, ...]) -> fo.FOSentence:
    leaf_preds = [("p", 1), ("q", 1), ("r", 0), ("s", 1)]
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.1:
            return fo.FOTop() if rng.random() < 0.5 else fo.FOBot()
        if roll < 0.25 and bound:
            lhs = fo.Var(rng.choice(bound))
            rhs = fo.Var(rng.choice(bound)) if rng.random() < 0.5 else fo.Cst(rng.choice("ab"))
            return fo.FOEq(lhs, rhs)
        pred, arity = rng.choice(leaf_preds)
        args = tuple(
            fo.Var(rng.choice(bound)) if bound and rng.random() < 0.7 else fo.Cst(rng.choice("ab"))
            for _ in range(arity)
        )
        return fo.FOAtom(pred, args)
    roll = rng.random()
    fresh = next((v for v in _FO_VARS if v not in bound), None)
    if roll < 0.3 and fresh is not None:
        body = _gen_fo(rng, depth - 1, bound + (fresh,))
        return fo.FOForall(fresh, body) if rng.random() < 0.5 else fo.FOExists(fresh, body)
    if roll < 0.5:
        return fo.fo_neg(_gen_fo(rng, depth - 1, bound))
    ctor = rng.choice((fo.FOAnd, fo.FOOr, fo.FOImpl))
    return ctor(_gen_fo(rng, depth - 1, bound), _gen_fo(rng, depth - 1, bound))


def _suite_prop4_grounding(rng, cfg, unsound):
    sentence = _gen_fo(rng, rng.randint(1, 3), ())
    preds = sorted(fo.fo_predicates(sentence))
    if not preds:
        return None
    p1 = sorted(_rand_subset(rng, preds))
    p2 = [p for p in preds if p not in p1]
    pred_graph = fo.fo_dep_graph(sentence, preds)
    pred_pi = Partition2(frozenset(Atom(p) for p in p1), frozenset(Atom(p) for p in p2))
    if not is_separable(pred_graph, pred_pi):
        return None
    interp = fo.FOInterpretation.herbrand(("a", "b"), arities=fo.infer_arities([sentence]))
    g = fo.ground(sentence, interp)
    atom_graph = dep_graph(g, fo.pred_atoms(preds, interp))
    atom_pi = Partition2(fo.pred_atoms(p1, interp), fo.pred_atoms(p2, interp))
    ok = is_infinitely_separable(atom_graph, atom_pi) and closed_walk_infinitely_separable(
        atom_graph, atom_pi
    )
    return ok, lambda: dict(ground_formula=g, part1_preds=p1, part2_preds=p2, atom_edges=atom_graph)


# Each suite with the salt of its draws.  A salt is never reused or moved,
# so adding or removing a suite leaves every other suite's draws as they were.
_SUITES: dict[str, tuple[int, Callable]] = {
    "definitions_theorem": (0, _suite_definitions_theorem),
    "lemma1": (1, _suite_lemma1),
    "lemma2": (2, _suite_lemma2),
    "lemma3": (3, _suite_lemma3),
    "lemma4": (4, _suite_lemma4),
    "lemma5": (5, _suite_lemma5),
    "lemma6": (6, _suite_lemma6),
    "lemma7": (7, _suite_lemma7),
    "lemma8": (8, _suite_lemma8),
    "lemma9": (9, _suite_lemma9),
    "prop1": (10, _suite_prop1),
    "prop3": (11, _suite_prop3),
    "prop4_grounding": (12, _suite_prop4_grounding),
    "split_lemma": (13, _suite_split_lemma),
    "split_theorem": (14, _suite_split_theorem),
    "stable_definition": (15, _suite_stable_definition),
    "stable_kernel": (16, _suite_stable_kernel),
    "stable_modular": (17, _suite_stable_modular),
    "stable_scc": (19, _suite_stable_scc),
    "sweep_kleene": (21, _suite_sweep_kleene),
    "syntax_roundtrip": (22, _suite_syntax_roundtrip),
    "stable_loops": (23, _suite_stable_loops),
    "stable_projection": (24, _suite_stable_projection),
}

SUITE_NAMES = tuple(sorted(_SUITES))
_UNSOUND_SUITES = ("split_lemma", "split_theorem")


def run_suite(name: str, cfg: GenConfig, unsound: bool = False) -> SuiteReport:
    """Run `iterations` precondition-satisfying cases of the named suite.

    With unsound=True (splitting suites only) the preconditions are dropped
    and violating instances are searched instead; failures then demonstrate
    that the preconditions are load-bearing.

    A suite returns None for a draw that misses its precondition, else
    (ok, case), where case() gives the case's fields by name in print
    order; only the first failure's fields are rendered, by `_render`.
    """
    try:
        salt, suite = _SUITES[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ConfigError(f"unknown suite {name!r}; known suites: {known}") from None
    if unsound and name not in _UNSOUND_SUITES:
        raise ConfigError(f"unsound mode applies only to: {', '.join(_UNSOUND_SUITES)}")
    passes = fails = skipped = 0
    first: str | None = None
    attempts = 0
    budget = cfg.iterations * 60
    while passes + fails < cfg.iterations and attempts < budget:
        rng = random.Random(cfg.seed * 1_000_003 + attempts * 7_919 + salt)
        attempts += 1
        result = suite(rng, cfg, unsound)
        if result is None:
            skipped += 1
            continue
        ok, case = result
        if ok:
            passes += 1
        else:
            fails += 1
            if first is None:
                fields = "".join(f"\n{k}: {_render(v)}" for k, v in case().items())
                first = f"case {attempts - 1}\nsuite: {name}{fields}"
    return SuiteReport(name, passes, fails, skipped, first)
