import random
from itertools import combinations

import pytest

from cayleydense.abelian import InvariantFactors
from cayleydense.cayley import CayleyDigraph, diameter, dilate_digraph, upsilon
from cayleydense.mdd import (
    LShape,
    Mdd,
    build_mdd,
    dilate_mdd,
    extract_lshape,
    is_proper,
    lshape_solid_diameter,
    lshape_tessellation_matrix,
    lshape_validate,
    phi,
    solid_diameter,
    verify_mdd,
)
from cayleydense.zmatrix import det
from conftest import (
    bfs_distance_oracle,
    det_oracle,
    lex_least_word_oracle,
    mdd_oracle,
    proper_corpus,
)

U2 = upsilon(2, 1)
Z7 = CayleyDigraph.from_cyclic(7, (1, 2))
SPACE_SEED = CayleyDigraph(
    InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
)
GAMMA1 = CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11)))
GAMMA2 = CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3)))


def test_phi_examples():
    assert phi(CayleyDigraph.from_cyclic(3, (2, 1)), (1, 1)) == (0, 0)
    assert phi(CayleyDigraph.from_cyclic(16, (1, 4, 5)), (1, 1, 0)) == (0, 0, 5)
    assert phi(U2, (0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        phi(U2, (1, 2, 3))


def test_build_mdd_examples():
    assert build_mdd(U2).points == frozenset({(0, 0), (1, 0), (0, 1)})
    assert build_mdd(Z7).points == LShape(2, 4, 1, 1).cubes()
    h = build_mdd(SPACE_SEED)
    assert len(h.points) == 16
    assert max(sum(a) for a in h.points) == 3
    assert verify_mdd(h)


def test_verify_mdd_rejects_bad_sets():
    good = build_mdd(U2)
    assert verify_mdd(good)
    swapped = Mdd(points=frozenset({(0, 0), (1, 0), (1, 1)}), source=U2)
    assert not verify_mdd(swapped)
    z3 = CayleyDigraph.from_cyclic(3, (1, 2))
    stretched = Mdd(points=frozenset({(0, 0), (1, 0), (2, 0)}), source=z3)
    assert not verify_mdd(stretched)


def test_solid_diameter_examples():
    assert solid_diameter(build_mdd(U2)) == 3
    assert solid_diameter(build_mdd(SPACE_SEED)) == 6
    assert solid_diameter(build_mdd(CayleyDigraph.from_cyclic(2, (1,)))) == 2


def test_dilate_mdd_examples():
    h = build_mdd(U2)
    assert dilate_mdd(h, 1) is h
    doubled = dilate_mdd(h, 2)
    assert doubled.points == LShape(4, 4, 2, 2).cubes()
    assert verify_mdd(doubled)
    space = dilate_mdd(build_mdd(SPACE_SEED), 2)
    assert len(space.points) == 128
    assert solid_diameter(space) == 12
    assert verify_mdd(space)


def test_extract_lshape_examples():
    assert extract_lshape(build_mdd(GAMMA1)) == LShape(11, 8, 4, 4)
    assert extract_lshape(build_mdd(GAMMA2)) == LShape(9, 9, 3, 3)
    assert extract_lshape(build_mdd(Z7)) == LShape(2, 4, 1, 1)
    with pytest.raises(ValueError):
        extract_lshape(build_mdd(SPACE_SEED))
    rect = extract_lshape(build_mdd(CayleyDigraph.from_cyclic(6, (1, 3))))
    assert rect == LShape(3, 2, 0, 0)  # rectangles are normalized to w = y = 0


def test_lshape_validate_examples():
    assert lshape_validate(LShape(2, 2, 1, 1), upsilon(2, 1))
    assert lshape_validate(LShape(2, 4, 1, 1), Z7)
    assert not lshape_validate(LShape(3, 3, 0, 0), Z7)


def test_lshape_solid_diameter_examples():
    assert lshape_solid_diameter(LShape(11, 8, 4, 4)) == 15
    assert lshape_solid_diameter(LShape(2, 2, 1, 1)) == 3
    assert lshape_solid_diameter(LShape(9, 1, 0, 0)) == 10


def test_lshape_tessellation_matrix_examples():
    assert lshape_tessellation_matrix(LShape(2, 2, 1, 1)) == ((2, -1), (-1, 2))
    assert lshape_tessellation_matrix(LShape(6, 6, 3, 3)) == ((6, -3), (-3, 6))
    assert lshape_tessellation_matrix(LShape(9, 1, 0, 0)) == ((9, 0), (0, 1))


def test_lshape_parameter_validation():
    with pytest.raises(ValueError):
        LShape(2, 2, 2, 1)  # w must stay below l
    with pytest.raises(ValueError):
        LShape(3, 2, 1, 2)
    with pytest.raises(ValueError):
        LShape(2, 3, 3, 2)


def test_is_proper_decisions():
    assert is_proper(U2) is True
    assert is_proper(SPACE_SEED) is True  # unimodular lift matrix
    # rings: only the lift 1 generates Z_mn for every m
    assert is_proper(CayleyDigraph.from_cyclic(5, (2,))) is False
    ring = CayleyDigraph.from_cyclic(5, (4,))
    assert is_proper(ring) is False  # 4 does not generate Z10
    with pytest.raises(ValueError, match="refusing strict dilation"):
        dilate_digraph(ring, 3, strict=True)
    assert diameter(dilate_digraph(ring, 3)) == 14  # 4 generates Z15
    # (0,1),(0,2) do not generate Z2+Z6
    assert is_proper(CayleyDigraph.from_cyclic(3, (1, 2))) is False


def test_is_proper_rejects_det_three():
    g = CayleyDigraph(
        InvariantFactors((2, 2, 32)), ((0, 1, 2), (1, 0, 2), (1, 1, 1))
    )
    assert det(g.gens) == 3
    assert is_proper(g) is False
    with pytest.raises(ValueError, match="no dilate by 3"):
        dilate_digraph(g, 3)
    assert tuple(dilate_digraph(g, 2).group) == (4, 4, 64)


def test_cyclic_corpus_invariants():
    rng = random.Random(977)
    done = 0
    while done < 60:
        n = rng.randint(2, 40)
        d = rng.randint(1, 3)
        if n - 1 < d:
            continue
        steps = tuple(rng.sample(range(1, n), d))
        try:
            g = CayleyDigraph.from_cyclic(n, steps)
        except ValueError:
            continue
        h = build_mdd(g)
        assert verify_mdd(h)
        assert solid_diameter(h) - d == diameter(g)
        done += 1


def test_planar_cyclic_lshape_invariants():
    for n in range(3, 31):
        for a in range(1, n):
            for b in range(a + 1, n):
                try:
                    g = CayleyDigraph.from_cyclic(n, (a, b))
                except ValueError:
                    continue
                h = build_mdd(g)
                shape = extract_lshape(h)
                assert lshape_validate(shape, g)
                assert lshape_solid_diameter(shape) == solid_diameter(h)
                assert abs(det(lshape_tessellation_matrix(shape))) == n


def test_dilation_preserves_diagram_structure():
    for g, m in ((U2, 3), (GAMMA2, 2), (SPACE_SEED, 3)):
        h = build_mdd(g)
        hd = dilate_mdd(h, m)
        assert len(hd.points) == m ** g.degree * g.order
        assert verify_mdd(hd)
        assert solid_diameter(hd) == m * solid_diameter(h)


def _dilation_cases():
    """(g, factors): the proper corpus, cyclic digraphs and random lifts."""
    for g in proper_corpus():
        yield g, (1, 2)
    for d, top in ((1, 40), (2, 30), (3, 12)):
        for n in range(d + 1, top + 1):
            for steps in combinations(range(1, n), d):
                try:
                    g = CayleyDigraph.from_cyclic(n, steps)
                except ValueError:
                    continue
                yield g, [m for m in range(1, 5) if m**d * n <= 1000]
    rng = random.Random(7919)
    chains = [(1, 12), (2, 6), (3, 9), (1, 20), (2, 10)]
    chains += [(1, 1, 12), (1, 2, 6), (2, 2, 4), (1, 3, 6)]
    done = 0
    while done < 600:
        moduli = chains[done % len(chains)]
        d = len(moduli)
        lifts = [[rng.randint(-6, 6) for _ in moduli] for _ in moduli]
        try:
            g = CayleyDigraph(InvariantFactors(moduli), lifts)
        except ValueError:
            continue
        done += 1
        yield g, [m for m in range(1, 5) if m**d * g.order <= 1000]


def test_dilation_exists_exactly_when_lifts_generate():
    # all cyclic d <= 3, n <= 40 would take minutes; the cyclic part stops
    # at n = 30 for d = 2 and n = 12 for d = 3
    counts = {}  # (proper, dilate exists) -> number of (g, m) pairs
    for g, factors in _dilation_cases():
        d = g.degree
        proper = abs(det_oracle(g.gens)) == 1
        assert is_proper(g) is proper, str(g)
        h = k = None
        for m in factors:
            moduli = tuple(m * s for s in g.group)
            dist = bfs_distance_oracle(moduli, g.gens)
            key = (proper, dist is not None)
            counts[key] = counts.get(key, 0) + 1
            if proper:
                assert dilate_digraph(g, m, strict=True) == dilate_digraph(g, m)
            else:
                with pytest.raises(ValueError, match="refusing strict dilation") as exc:
                    dilate_digraph(g, m, strict=True)
                assert str(g) in str(exc.value)
            if dist is None:
                mods = "+".join(f"Z{s}" for s in moduli)
                with pytest.raises(ValueError) as exc:
                    dilate_digraph(g, m)
                assert str(g) in str(exc.value) and mods in str(exc.value)
                continue
            gm = dilate_digraph(g, m)
            if h is None:
                h, k = build_mdd(g), diameter(g)
            assert diameter(gm) == max(dist.values()) == m * (k + d) - d, (str(g), m)
            hd = dilate_mdd(h, m)
            assert hd.source == gm
            assert verify_mdd(hd) and solid_diameter(hd) == m * solid_diameter(h)
    assert counts[True, True] >= 3100 and (True, False) not in counts
    assert counts[False, True] >= 6800 and counts[False, False] >= 12900


def _differential_digraphs():
    yield from proper_corpus()
    rng = random.Random(4129)
    done = 0
    while done < 1000:
        n = rng.randint(2, 40)
        d = rng.randint(1, 3)
        if n - 1 < d:
            continue
        try:
            yield CayleyDigraph.from_cyclic(n, rng.sample(range(1, n), d))
        except ValueError:
            continue
        done += 1
    yield CayleyDigraph(InvariantFactors((2, 8)), ((1, 0), (1, 1)))
    yield CayleyDigraph(InvariantFactors((3, 12)), ((1, 5), (0, 1)))
    yield CayleyDigraph(InvariantFactors((1, 3, 12)), ((0, 1, 0), (0, 2, 1), (0, 0, 5)))
    yield CayleyDigraph(InvariantFactors((1, 2, 8)), ((0, 1, 0), (0, 1, 3), (0, 0, 2)))
    yield CayleyDigraph(InvariantFactors((2, 2, 8)), ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    yield CayleyDigraph(InvariantFactors((2, 2, 8)), ((1, 1, 0), (0, 1, 2), (1, 0, 1)))


def test_build_mdd_matches_lex_least_word_oracle():
    count = 0
    for g in _differential_digraphs():
        moduli = tuple(g.group)
        gens = [tuple(x % m for x, m in zip(t, moduli)) for t in g.gens]
        want = frozenset(lex_least_word_oracle(moduli, gens).values())
        assert build_mdd(g).points == want, str(g)
        count += 1
    assert count >= 1200


def _outer_corners(pts):
    """Points just above the staircase: a + e_i outside the set."""
    out = set()
    for a in pts:
        for i in range(len(a)):
            b = a[:i] + (a[i] + 1,) + a[i + 1 :]
            if b not in pts:
                out.add(b)
    return sorted(out)


def _mutations(g, pts, rng):
    """Seeded edits of a valid diagram, each named after the fault it plants."""
    ordered = sorted(pts)
    d = g.degree
    a = rng.choice(ordered)
    yield "move", pts - {a} | {rng.choice(_outer_corners(pts - {a}))}
    yield "above", pts | {rng.choice(_outer_corners(pts))}
    if len(ordered) > 1:
        a, b = rng.sample(ordered, 2)
        i = rng.randrange(d)
        a2 = a[:i] + (b[i],) + a[i + 1 :]
        b2 = b[:i] + (a[i],) + b[i + 1 :]
        yield "swap", pts - {a, b} | {a2, b2}
    a = rng.choice(ordered)
    i = rng.randrange(d)
    yield "negative", pts - {a} | {a[:i] + (-1,) + a[i + 1 :]}
    a = rng.choice(ordered)
    yield "rank", pts - {a} | {a + (0,) if rng.random() < 0.5 else a[:-1]}
    # an outer corner's image is already hit by some point of the set;
    # put the corner in place of a different point so the count stays n
    c = rng.choice(_outer_corners(pts))
    images = {phi(g, p): p for p in ordered}
    twin = images[phi(g, c)]
    victim = rng.choice([p for p in ordered if p != twin])
    yield "same-image", pts - {victim} | {c}
    # faults only the count and rank checks see: one cube short, and the
    # whole diagram lifted into one dimension more
    corners = [p for p in ordered if not any(q in pts for q in _outer_corners({p}))]
    yield "drop", pts - {rng.choice(corners)}
    yield "lift", frozenset(p + (0,) for p in ordered)


def test_verify_mdd_rejection_matches_phi_oracle():
    rng = random.Random(5501)
    verdicts = {}
    for g in proper_corpus():
        moduli = tuple(g.group)
        h = build_mdd(g)
        assert verify_mdd(h) and mdd_oracle(moduli, g.gens, h.points)
        for kind, pts in _mutations(g, h.points, rng):
            want = mdd_oracle(moduli, g.gens, frozenset(pts))
            got = verify_mdd(Mdd(points=frozenset(pts), source=g))
            assert got == want, (kind, str(g), sorted(pts))
            verdicts.setdefault(kind, []).append(want)
    assert set(verdicts) == {
        "move", "above", "swap", "negative", "rank", "same-image", "drop", "lift"
    }
    for kind in ("above", "negative", "rank", "same-image", "drop", "lift"):
        assert not any(verdicts[kind]), kind
    assert verdicts["move"].count(False) > len(verdicts["move"]) // 2
    assert verdicts["swap"].count(False) > len(verdicts["swap"]) // 2
