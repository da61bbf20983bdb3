import random

import pytest

from cayleydense.abelian import generates
from cayleydense.zmatrix import (
    det,
    identity,
    invariant_factors,
    is_unimodular,
    mat_mul,
    proper_generating_set,
    scale,
    smith_normal_form,
)

M_PLANE = ((2, -1), (-1, 2))
M_SPACE = ((-1, -1, 0), (-1, 0, -4), (1, -3, 0))


def check_decomposition(m):
    dec = smith_normal_form(m)
    assert dec.S == mat_mul(mat_mul(dec.U, m), dec.V)
    assert is_unimodular(dec.U) and is_unimodular(dec.V)
    diag = dec.invariant_factors
    d = len(diag)
    for i in range(d):
        for j in range(d):
            if i != j:
                assert dec.S[i][j] == 0
        assert diag[i] >= 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    prod = 1
    for s in diag:
        prod *= s
    assert prod == abs(det(m))
    return dec


def test_snf_plane_fixture():
    dec = check_decomposition(M_PLANE)
    assert dec.invariant_factors == (1, 3)


def test_snf_space_fixture():
    dec = check_decomposition(M_SPACE)
    assert dec.invariant_factors == (1, 1, 16)


def test_snf_identity():
    dec = check_decomposition(identity(4))
    assert dec.S == identity(4)
    assert dec.U == identity(4) and dec.V == identity(4)


def test_snf_singular_matrix_trailing_zeros():
    dec = check_decomposition(((2, 4), (1, 2)))
    assert dec.invariant_factors == (1, 0)


def test_det_examples():
    assert det(M_PLANE) == 3
    assert det(M_SPACE) == 16
    assert det(identity(3)) == 1


def test_scale_examples():
    assert scale(M_PLANE, 1) == M_PLANE
    doubled = scale(M_PLANE, 2)
    assert doubled == ((4, -2), (-2, 4))
    assert smith_normal_form(doubled).invariant_factors == (2, 6)
    assert scale(((1, 0), (0, 3)), 3) == ((3, 0), (0, 9))
    with pytest.raises(ValueError):
        scale(M_PLANE, 0)


def test_scaling_scales_invariant_factors():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 3)
        m = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        t = rng.randint(2, 4)
        base = smith_normal_form(m).invariant_factors
        scaled = smith_normal_form(scale(m, t)).invariant_factors
        assert scaled == tuple(t * s for s in base)


def test_proper_generating_set_plane():
    group, gens = proper_generating_set(M_PLANE)
    assert tuple(group) == (1, 3)
    # paper-displayed set {(0,1),(1,-1)}, compared positionally in the group
    assert [group.reduce(t) for t in gens] == [(0, 1), (0, 2)]
    assert generates(group, gens)


def test_proper_generating_set_space():
    group, gens = proper_generating_set(M_SPACE)
    assert tuple(group) == (1, 1, 16)
    assert generates(group, gens)
    dec = smith_normal_form(M_SPACE)
    cols = [tuple(dec.U[i][j] for i in range(3)) for j in range(3)]
    assert list(gens) == cols


def test_proper_generating_set_diag():
    for n in (2, 5, 12):
        group, gens = proper_generating_set(((1, 0), (0, n)))
        assert tuple(group) == (1, n)
        assert generates(group, gens)


def test_proper_generating_set_rejects_singular():
    with pytest.raises(ValueError):
        proper_generating_set(((1, 2), (2, 4)))


def _random_unimodular(rng, d):
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            q = rng.randint(-3, 3)
            for k in range(d):
                m[i][k] += q * m[j][k]
    return m


def test_invariant_factors_stable_under_unimodular_multiplication():
    rng = random.Random(99)
    for _ in range(50):
        d = rng.randint(1, 4)
        m = [[rng.randint(-100, 100) for _ in range(d)] for _ in range(d)]
        base = smith_normal_form(m).invariant_factors
        left = mat_mul(_random_unimodular(rng, d), m)
        right = mat_mul(m, _random_unimodular(rng, d))
        assert smith_normal_form(left).invariant_factors == base
        assert smith_normal_form(right).invariant_factors == base


def test_snf_postconditions_fuzz():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        check_decomposition(m)


def test_rectangular_invariant_factors():
    assert invariant_factors([[4, 16]]) == (4,)
    assert invariant_factors([[1, 1, 2, 0], [0, 1, 0, 2]]) == (1, 1)
