import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleydense.abelian import (
    InvariantFactors,
    add,
    canonical_invariant_factors,
    enumerate_groups,
    generates,
)
from cayleydense.cayley import upsilon
from cayleydense.mdd import phi
from conftest import chains_oracle, closure_oracle


def test_chain_validation():
    InvariantFactors((1, 1, 16))
    with pytest.raises(ValueError):
        InvariantFactors((6, 4))
    with pytest.raises(ValueError):
        InvariantFactors((0, 2))
    with pytest.raises(ValueError):
        InvariantFactors(())


@pytest.mark.parametrize("bad", [1.5, 0.0, True, "3"])
def test_group_arithmetic_rejects_non_int_input(bad):
    """No layer truncates a float or reads a bool as 0 or 1."""
    group = InvariantFactors((3, 24))
    calls = [
        lambda: phi(upsilon(2, 1), (bad, 0)),
        lambda: phi(upsilon(2, 1), (0, bad)),
        lambda: group.add((bad, 0), (0, 1)),
        lambda: group.add((0, 1), (0, bad)),
        lambda: group.scalar_mul(bad, (1, 1)),
        lambda: group.scalar_mul(2, (1, bad)),
        lambda: group.index((bad, 2)),
        lambda: group.element(bad),
        lambda: enumerate_groups(bad, 2),
        lambda: enumerate_groups(12, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="integer"):
            call()


def test_add_examples():
    assert add(InvariantFactors((1, 3)), (0, 2), (0, 2)) == (0, 1)
    assert add(InvariantFactors((16,)), (4,), (5,)) == (9,)
    assert add(InvariantFactors((2, 144)), (1, 140), (1, 8)) == (0, 4)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add(InvariantFactors((2, 4)), (1,), (0, 1))


def test_reduce_normalizes_into_range():
    g = InvariantFactors((1, 16))
    assert g.reduce((5, -12)) == (0, 4)


def test_index_element_roundtrip():
    g = InvariantFactors((2, 4, 12))
    for idx in range(g.order):
        assert g.index(g.element(idx)) == idx


def test_canonical_examples():
    assert tuple(canonical_invariant_factors((6, 4))) == (2, 12)
    assert tuple(canonical_invariant_factors((1, 1, 16))) == (1, 1, 16)
    assert tuple(canonical_invariant_factors((3, 24))) == (3, 24)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_canonical_idempotent_and_order_free(moduli):
    canon = canonical_invariant_factors(moduli)
    assert canonical_invariant_factors(canon) == canon
    shuffled = list(moduli)
    random.Random(7).shuffle(shuffled)
    assert canonical_invariant_factors(shuffled) == canon


def test_enumerate_examples():
    assert [tuple(g) for g in enumerate_groups(4, 2)] == [(1, 4), (2, 2)]
    assert [tuple(g) for g in enumerate_groups(16, 3)] == [
        (1, 1, 16),
        (1, 2, 8),
        (1, 4, 4),
        (2, 2, 4),
    ]
    assert [tuple(g) for g in enumerate_groups(7, 2)] == [(1, 7)]


@pytest.mark.parametrize("n", [1, 2, 12, 36, 60, 97, 128, 144, 200])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumerate_complete_against_bruteforce(n, d):
    got = [tuple(g) for g in enumerate_groups(n, d)]
    assert got == sorted(chains_oracle(n, d))  # the lattice pass's least chain reads this order
    for chain in got:
        prod = 1
        for s in chain:
            prod *= s
        assert prod == n


def test_generates_examples():
    g3 = InvariantFactors((1, 1, 16))
    assert generates(g3, ((0, 0, 1), (0, 1, -12), (1, 0, -11)))
    assert not generates(InvariantFactors((16,)), ((4,),))
    assert generates(InvariantFactors((2, 2)), ((1, 0), (1, 1)))


def test_generates_agrees_with_closure():
    rng = random.Random(42)
    cases = 0
    while cases < 80:
        d = rng.randint(1, 3)
        n = rng.randint(2, 64)
        groups = enumerate_groups(n, d)
        group = groups[rng.randrange(len(groups))]
        t = rng.randint(1, 3)
        gens = [
            tuple(rng.randrange(m) for m in group)
            for _ in range(t)
        ]
        if group.zero() in gens:
            continue
        expected = len(closure_oracle(tuple(group), gens)) == group.order
        assert generates(group, gens) == expected
        cases += 1
