"""Seeded random generators and executable property suites.

Each suite draws small random instances (formulas, interpretations, graphs,
partitions, definitions), checks one semantic property against a brute-force
or otherwise independent route, and reports pass/fail counts plus the first
counterexample rendered in the ground text format so it can be replayed.
Generation skews toward signatures small enough for the exhaustive oracles
to stay exact; nothing here is sampled approximately.
"""

from __future__ import annotations

import itertools
import logging
import random
import string
from dataclasses import dataclass
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
    format_formula,
    neg,
    reduct,
    satisfies,
)
from .splitting import PreconditionError, modular_solve, split_models_lemma, split_models_theorem
from .stable import (
    ModelSet,
    choice_extension,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,
    is_a_stable_ht,
    modred,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class GenConfig:
    """Bounds and probabilities for the random generators."""

    seed: int = DEFAULT_SEED
    max_atoms: int = 5
    max_depth: int = 4
    max_branch: int = 3
    impl_prob: float = 0.3
    neg_prob: float = 0.15
    iterations: int = 500

    def __post_init__(self) -> None:
        if min(self.max_atoms, self.max_depth + 1, self.max_branch, self.iterations) <= 0:
            raise ValueError("bounds must be positive")
        if not (0.0 <= self.impl_prob <= 1.0 and 0.0 <= self.neg_prob <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.impl_prob + self.neg_prob > 1.0:
            raise ValueError("impl_prob + neg_prob must not exceed 1")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    passes: int
    fails: int
    skipped_draws: int
    first_counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.fails == 0

    def lines(self) -> list[str]:
        out = [
            f"suite {self.suite}: {self.passes} passed, {self.fails} failed "
            f"({self.skipped_draws} draws skipped)"
        ]
        if self.first_counterexample:
            out.append("first counterexample:")
            out.extend("  " + ln for ln in self.first_counterexample.splitlines())
        return out


def _atom_pool(n: int) -> list[Atom]:
    return [Atom(c) for c in string.ascii_lowercase[:n]]


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


def _rand_subset(rng: random.Random, items: Iterable, p: float = 0.5) -> frozenset:
    return frozenset(x for x in items if rng.random() < p)


def _case_text(**fields) -> str:
    return "\n".join(f"{k}: {v}" for k, v in fields.items())


def _format_edges(g: DepGraph) -> str:
    return "; ".join(f"{u}->{v}" for u, v in sorted(g.edges)) or "(none)"


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


# -- individual suites -------------------------------------------------------


def _suite_prop1(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
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
    return ok, _case_text(
        suite="prop1",
        formula=format_formula(f),
        i=format_interpretation(i),
        a_set=format_interpretation(a),
        direct=direct,
        minimal_modred=minimal,
        via_choice=via_choice,
    )


def _suite_prop3(rng, cfg, unsound):
    g = _gen_graph(rng)
    part1 = _rand_subset(rng, sorted(g.vertices))
    pi = Partition2(part1, g.vertices - part1)
    fast = is_separable(g, pi)
    oracle = closed_walk_infinitely_separable(g, pi)
    ok = fast == oracle == is_infinitely_separable(g, pi)
    return ok, _case_text(
        suite="prop3",
        vertices=format_interpretation(g.vertices),
        edges=_format_edges(g),
        part1=format_interpretation(pi.part1),
        scc_route=fast,
        closed_walk_route=oracle,
    )


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
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    i = _rand_subset(rng, pool)
    if satisfies(i, f):
        return None
    ok = equivalent(reduct(f, i), BOT, sigma)
    return ok, _case_text(suite="lemma1", formula=format_formula(f), i=format_interpretation(i))


def _suite_lemma2(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    i = _biased_interp(rng, f, sigma)
    if not satisfies(i, f):
        return None
    a = _rand_subset(rng, sorted(sigma - strictly_positive(f)))
    ok = satisfies(i - a, reduct(f, i))
    return ok, _case_text(
        suite="lemma2",
        formula=format_formula(f),
        i=format_interpretation(i),
        a_set=format_interpretation(a),
    )


def _suite_lemma3(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    i = _biased_interp(rng, f, sigma)
    r = reduct(f, i)
    b1 = _rand_subset(rng, pool, 0.3)
    b2_pos = _rand_subset(rng, sorted(sigma - b1 - pos_nonnegated(f)), 0.5)
    b2_neg = _rand_subset(rng, sorted(sigma - b1 - neg_nonnegated(f)), 0.5)
    ok_fwd = (not satisfies(i - b1, r)) or satisfies(i - (b1 | b2_pos), r)
    ok_bwd = (not satisfies(i - (b1 | b2_neg), r)) or satisfies(i - b1, r)
    return ok_fwd and ok_bwd, _case_text(
        suite="lemma3",
        formula=format_formula(f),
        i=format_interpretation(i),
        b1=format_interpretation(b1),
        b2_for_pos=format_interpretation(b2_pos),
        b2_for_neg=format_interpretation(b2_neg),
    )


def _suite_lemma4(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
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
    return ok, _case_text(
        suite="lemma4",
        formula=format_formula(f),
        i=format_interpretation(i),
        b_set=format_interpretation(b),
        c_set=format_interpretation(c),
    )


def _suite_lemma5(rng, cfg, unsound):
    g = _gen_graph(rng, 8)
    pi = _scc_aligned_partition(rng, g)
    try:
        b = find_closed_subset(g, pi)
    except ValueError as exc:
        return False, _case_text(suite="lemma5", edges=_format_edges(g), error=str(exc))
    ok = (
        bool(b)
        and (b <= pi.part1 or b <= pi.part2)
        and not any(u in b and v not in b for u, v in g.edges)
    )
    return ok, _case_text(
        suite="lemma5",
        vertices=format_interpretation(g.vertices),
        edges=_format_edges(g),
        part1=format_interpretation(pi.part1),
        found=format_interpretation(b),
    )


def _suite_lemma6(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    g = _gen(rng, pool, rng.randint(0, cfg.max_depth - 1), cfg)
    a = _rand_subset(rng, sorted(frozenset(pool) - strictly_positive(g)))
    i = _rand_subset(rng, pool)
    joint = is_a_stable(conj((f, g)), i, a)
    split = is_a_stable(f, i, a) and satisfies(i, g)
    return joint == split, _case_text(
        suite="lemma6",
        formula_f=format_formula(f),
        formula_g=format_formula(g),
        i=format_interpretation(i),
        a_set=format_interpretation(a),
        joint=joint,
        split=split,
    )


def _suite_lemma7(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    sigma = frozenset(pool)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    a = atoms_of(f) | _rand_subset(rng, pool, 0.3)
    i = _rand_subset(rng, pool)
    relative = is_a_stable(f, i, a)
    projected_stable = is_a_stable(f, i & a, sigma)
    return relative == projected_stable, _case_text(
        suite="lemma7",
        formula=format_formula(f),
        i=format_interpretation(i),
        a_set=format_interpretation(a),
    )


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
        return False, _case_text(suite="lemma8", rejected=str(d))
    sigma = atoms_of(d.source) | d.q_set | frozenset(_atom_pool(2))
    models = _models_of(d.source, sigma)
    if not models:
        return False, _case_text(suite="lemma8", definition=format_formula(d.source), error="no models")
    i = rng.choice(models)
    k = (i - d.q_set) | _rand_subset(rng, sorted(i & d.q_set))
    ok = satisfies(k, reduct(d.source, i)) == satisfies(k, d.source)
    return ok, _case_text(
        suite="lemma8",
        definition=format_formula(d.source),
        i=format_interpretation(i),
        k=format_interpretation(k),
    )


def _suite_lemma9(rng, cfg, unsound):
    d = _gen_definition(rng, cfg)
    if isinstance(d, Rejection):
        return False, _case_text(suite="lemma9", rejected=str(d))
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
    return ok, _case_text(
        suite="lemma9",
        definition=format_formula(d.source),
        context=format_interpretation(ctx),
        fixpoint=format_interpretation(fix),
        intersection=format_interpretation(meet),
        stable_count=len(stable_completions),
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
    return ok, _case_text(
        suite="split_lemma",
        formula=format_formula(f),
        part1=format_interpretation(p1),
        part2=format_interpretation(p2),
        joint_models=" ".join(joint.lines()) or "(none)",
        split_models=" ".join(split.lines()) or "(none)",
    )


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
        if (
            not a2 & strictly_positive(f)
            and not a1 & strictly_positive(g)
            and is_separable(dep_graph(whole, a), Partition2(a1, a2))
        ):
            return None
        split = enumerate_a_stable(f, a1, sigma).intersection(enumerate_a_stable(g, a2, sigma))
    else:
        pi = _scc_aligned_partition(rng, dep_graph(whole, a))
        a1, a2 = pi.part1, pi.part2
        fs, gs = [], []
        for c in conjuncts:
            heads = strictly_positive(c) & a
            if heads <= a1 and heads:
                fs.append(c)
            elif heads <= a2 and heads:
                gs.append(c)
            elif not heads:
                (fs if rng.random() < 0.5 else gs).append(c)
            else:
                return None  # heads straddle the partition; not a theorem instance
        f, g = conj(fs), conj(gs)
        try:
            split = split_models_theorem(f, g, a1, a2, sigma)
        except PreconditionError as exc:
            return False, _case_text(
                suite="split_theorem", formula_f=format_formula(f),
                formula_g=format_formula(g), error=str(exc),
            )
    joint = enumerate_a_stable(conj((f, g)), a1 | a2, sigma)
    ok = joint.as_set() == split.as_set()
    return ok, _case_text(
        suite="split_theorem",
        formula_f=format_formula(f),
        formula_g=format_formula(g),
        a1=format_interpretation(a1),
        a2=format_interpretation(a2),
        joint_models=" ".join(joint.lines()) or "(none)",
        split_models=" ".join(split.lines()) or "(none)",
    )


def _suite_stable_kernel(rng, cfg, unsound):
    pool = _atom_pool(cfg.max_atoms)
    f = _gen(rng, pool, rng.randint(0, cfg.max_depth), cfg)
    i = _biased_interp(rng, f, frozenset(pool))
    a = _rand_subset(rng, pool)
    if rng.random() < 0.25:
        a -= i  # I & A empty: stability reduces to satisfaction
    fused = is_a_stable_ht(f, i, a)
    reference = is_a_stable(f, i, a)
    return fused == reference, _case_text(
        suite="stable_kernel",
        formula=format_formula(f),
        i=format_interpretation(i),
        a_set=format_interpretation(a),
        fused=fused,
        reference=reference,
    )


def _reference_models(f: Formula, a: frozenset[Atom], pool: Sequence[Atom]) -> ModelSet:
    """The A-stable models of f over pool, by the reference `is_a_stable`
    on every interpretation."""
    subsets = (frozenset(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k))
    return ModelSet.from_iter((i for i in subsets if is_a_stable(f, i, a)), frozenset(pool))


def _suite_stable_modular(rng, cfg, unsound):
    pool = _atom_pool(min(cfg.max_atoms, 6))
    sigma = frozenset(pool)
    conjuncts = _gen_program(rng, pool, rng.randint(1, 6))
    for x in sorted(_rand_subset(rng, pool, 0.2)):
        conjuncts.append(disj((AtomRef(x), neg(AtomRef(x)))))  # frontier entries per choice
    if rng.random() < 0.2:
        conjuncts.append(_gen(rng, pool, 2, cfg))
    if len(pool) > 1 and rng.random() < 0.2:
        # an even negative cycle: two blocks that mention each other, so the
        # solver falls back to brute force
        p, q = (AtomRef(x) for x in rng.sample(pool, 2))
        conjuncts += [Impl(neg(p), q), Impl(neg(q), p)]
    a = _rand_subset(rng, pool, 0.7)  # the rest are extensional: several contexts
    split_log = logging.getLogger(modular_solve.__module__)
    level = split_log.level
    split_log.setLevel(logging.ERROR)  # fallback warnings are expected here
    try:
        got = modular_solve(conjuncts, a, sigma)
    finally:
        split_log.setLevel(level)
    want = _reference_models(conj(conjuncts), a, pool)
    return got == want, _case_text(
        suite="stable_modular",
        program=" ".join(format_formula(c) + "." for c in conjuncts),
        a_set=format_interpretation(a),
        modular_models=" ".join(got.lines()) or "(none)",
        reference_models=" ".join(want.lines()) or "(none)",
    )


def _suite_stable_packed(rng, cfg, unsound):
    """Programs on 8 atoms built from choices, negative chains and positive
    loops, mostly intensional, so that the packed runs of
    `enumerate_a_stable` decide some candidates in the segment, reject some
    by a one- or two-atom witness and leave some (loops of 3 or more atoms
    with nothing feeding them, and wide stable models) to the chunked sweep."""
    pool = _atom_pool(8)
    rng.shuffle(pool)
    conjuncts: list[Formula] = []
    start = 0
    while start < len(pool):
        group = [AtomRef(x) for x in pool[start : start + rng.randint(1, 5)]]
        start += len(group)
        kind = rng.random()
        if kind < 0.3 or len(group) < 2:
            conjuncts += [disj((x, neg(x))) for x in group]
        elif kind < 0.6 or len(group) < 3:
            conjuncts.append(disj((group[0], neg(group[0]))))
            conjuncts += [Impl(neg(x), y) for x, y in zip(group, group[1:])]
        else:
            conjuncts += [Impl(x, y) for x, y in zip(group, group[1:] + group[:1])]
            feed = rng.random()
            if feed < 0.3:
                conjuncts.append(group[0])
            elif feed < 0.6:
                conjuncts.append(disj((group[0], neg(group[0]))))
    if rng.random() < 0.2:
        conjuncts.append(_gen(rng, pool, 2, cfg))
    f = conj(conjuncts)
    a = _rand_subset(rng, pool, 0.85)
    got = enumerate_a_stable(f, a, frozenset(pool))
    want = _reference_models(f, a, pool)
    return got == want, _case_text(
        suite="stable_packed",
        formula=format_formula(f),
        a_set=format_interpretation(a),
        packed_models=" ".join(got.lines()) or "(none)",
        reference_models=" ".join(want.lines()) or "(none)",
    )


def _suite_stable_scc(rng, cfg, unsound):
    """Programs on 6 to 8 atoms made of positive loops, linked across
    components by positive and negative rules, with choices and extensional
    atoms: `enumerate_a_stable` checks each strongly connected component of
    the positive dependency graph as its own part of A.  A quarter of the
    draws start with an intensional loop of 7 atoms, wider than a part with
    a slot per subset, whose links may be switched by an atom outside it,
    so that its classical models make any number of its atoms true."""
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
    f = conj(conjuncts)
    a = _rand_subset(rng, pool, 0.8) | (frozenset(pool[:7]) if wide else frozenset())
    got = enumerate_a_stable(f, a, frozenset(pool))
    want = _reference_models(f, a, pool)
    return got == want, _case_text(
        suite="stable_scc",
        formula=format_formula(f),
        a_set=format_interpretation(a),
        scc_models=" ".join(got.lines()) or "(none)",
        reference_models=" ".join(want.lines()) or "(none)",
    )


def _suite_definitions_theorem(rng, cfg, unsound):
    d = _gen_definition(rng, cfg)
    if isinstance(d, Rejection):
        return False, _case_text(suite="definitions_theorem", rejected=str(d))
    base = _atom_pool(3)
    f = _gen(rng, base, rng.randint(0, 3), cfg)
    report = check_conservativity(f, d)
    return report.bijection, _case_text(
        suite="definitions_theorem",
        base_formula=format_formula(f),
        definition=format_formula(d.source),
        outcome=report.counterexample or f"bijection of size {len(report.pairs or ())}",
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
    return ok, _case_text(
        suite="prop4_grounding",
        ground_formula=format_formula(g),
        part1_preds=",".join(p1) or "(none)",
        part2_preds=",".join(p2) or "(none)",
        atom_edges=_format_edges(atom_graph),
    )


_SUITES: dict[str, Callable] = {
    "prop1": _suite_prop1,
    "prop3": _suite_prop3,
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "lemma4": _suite_lemma4,
    "lemma5": _suite_lemma5,
    "lemma6": _suite_lemma6,
    "lemma7": _suite_lemma7,
    "lemma8": _suite_lemma8,
    "lemma9": _suite_lemma9,
    "split_lemma": _suite_split_lemma,
    "split_theorem": _suite_split_theorem,
    "stable_kernel": _suite_stable_kernel,
    "stable_modular": _suite_stable_modular,
    "stable_packed": _suite_stable_packed,
    "stable_scc": _suite_stable_scc,
    "definitions_theorem": _suite_definitions_theorem,
    "prop4_grounding": _suite_prop4_grounding,
}

SUITE_NAMES = tuple(sorted(_SUITES))
_UNSOUND_SUITES = ("split_lemma", "split_theorem")


def run_suite(name: str, cfg: GenConfig, unsound: bool = False) -> SuiteReport:
    """Run `iterations` precondition-satisfying cases of the named suite.

    With unsound=True (splitting suites only) the preconditions are dropped
    and violating instances are searched instead; failures then demonstrate
    that the preconditions are load-bearing.
    """
    try:
        suite = _SUITES[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; known suites: {known}") from None
    if unsound and name not in _UNSOUND_SUITES:
        raise ValueError(f"unsound mode applies only to: {', '.join(_UNSOUND_SUITES)}")
    salt = SUITE_NAMES.index(name)
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
        ok, text = result
        if ok:
            passes += 1
        else:
            fails += 1
            if first is None:
                first = f"case {attempts - 1}\n{text}"
    return SuiteReport(name, passes, fails, skipped, first)
