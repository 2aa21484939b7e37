"""Regression coverage for the chunked truth-table machinery above 16 atoms,
where satisfaction sweeps and minimality checks span several chunks."""

import random

import pytest

from astable import (
    TOP,
    Atom,
    AtomRef,
    Impl,
    conj,
    disj,
    enumerate_a_stable,
    equivalent,
    impl,
    is_a_stable,
    neg,
    satisfies,
)
from astable.formula import truth_chunks
from astable.stable import is_a_stable_ht

ATS = [Atom(f"m{i:02d}") for i in range(18)]
SIG = frozenset(ATS)


def test_chunked_truth_table_matches_direct_evaluation():
    f = conj(
        [disj([AtomRef(ATS[i]), neg(AtomRef(ATS[(i + 5) % 18]))]) for i in range(18)]
        + [impl(AtomRef(ATS[0]), AtomRef(ATS[9]))]
    )
    chunks = list(truth_chunks(f, ATS))
    assert len(chunks) == 4
    rng = random.Random(31337)
    for _ in range(1500):
        mask = rng.randrange(1 << 18)
        i = frozenset(a for b, a in enumerate(ATS) if mask >> b & 1)
        assert bool((chunks[mask >> 16] >> (mask & 0xFFFF)) & 1) == satisfies(i, f)


def test_positive_ring_has_only_the_empty_stable_model():
    ring = conj([impl(AtomRef(ATS[i]), AtomRef(ATS[(i + 1) % 18])) for i in range(18)])
    assert enumerate_a_stable(ring, SIG, SIG).as_set() == {frozenset()}
    assert is_a_stable(ring, frozenset(), SIG)
    assert not is_a_stable(ring, SIG, SIG)


def test_seeded_ring_is_stable_through_multichunk_minimality():
    # the all-true model's minimality check sweeps 2^18 - 1 proper subsets
    seeded = conj(
        [AtomRef(ATS[0])]
        + [impl(AtomRef(ATS[i]), AtomRef(ATS[(i + 1) % 18])) for i in range(18)]
    )
    assert enumerate_a_stable(seeded, SIG, SIG).as_set() == {SIG}


def test_chunked_equivalence_above_sixteen_atoms():
    seventeen = frozenset(ATS[:17])
    any_true = disj([AtomRef(a) for a in ATS[:17]])
    not_all_false = neg(conj([neg(AtomRef(a)) for a in ATS[:17]]))
    assert equivalent(any_true, not_all_false, seventeen)
    assert not equivalent(any_true, disj([AtomRef(a) for a in ATS[:16]]), seventeen)


@pytest.mark.parametrize("k", [0, 1, 16, 17])
def test_fused_minimality_matches_reference_across_the_chunk_boundary(k):
    # e is extensional and true, y extensional and false, x00.. the free
    # atoms I & A; with 17 of them x16 selects the chunk.
    e, y = AtomRef(Atom("e")), AtomRef(Atom("y"))
    xs = [AtomRef(Atom(f"x{j:02d}")) for j in range(k)]
    chain = [impl(xs[j], xs[j + 1]) for j in range(k - 1)]
    i = frozenset({e.atom} | {x.atom for x in xs})
    a = frozenset({x.atom for x in xs} | {y.atom})
    feed_first = [impl(e, xs[0])] if xs else []
    feed_last = [impl(e, xs[-1])] if xs else []
    choice_first = [disj([xs[0], neg(xs[0])])] if xs else []
    loop_back = [impl(xs[-1], xs[0])] if xs else []
    cases = {
        "supported chain": (conj([e, neg(y)] + feed_first + chain), True),
        # not x00 is false in I, so it must stay false below I
        "chosen chain": (conj([e] + choice_first + chain), True),
        # {e} is the only smaller model, in the first chunk
        "unsupported loop": (conj([e] + chain + loop_back), k == 0),
        # {e, x_last} is smaller, in the last chunk
        "only the last atom supported": (conj([e] + feed_last + chain[:-1]), k < 2),
        "not a model": (conj([e, impl(e, y)]), False),
    }
    for name, (f, expected) in cases.items():
        assert is_a_stable(f, i, a) == expected, name
        assert is_a_stable_ht(f, i, a) == expected, name


def test_deep_implication_chain_needs_no_recursion():
    p = AtomRef(Atom("p"))
    f = TOP
    for _ in range(5000):
        f = Impl(p, f)
    assert enumerate_a_stable(f, {p.atom}).lines() == ["{}"]
    assert equivalent(f, TOP, {p.atom})
