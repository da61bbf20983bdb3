import random
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cayleydense import cayley
from cayleydense.abelian import InvariantFactors
from cayleydense.cayley import (
    CayleyDigraph,
    diameter,
    dilate_digraph,
    distance_profile,
    upsilon,
)
from cayleydense.mdd import (
    LShape,
    Mdd,
    build_mdd,
    dilate_mdd,
    extract_lshape,
    is_proper,
    lshape_kappa,
    lshape_solid_diameter,
    lshape_tessellation_matrix,
    lshape_validate,
    optimal_lshapes,
    phi,
    solid_diameter,
    verify_mdd,
)
from cayleydense.zmatrix import det
from conftest import (
    admissible_lshapes_oracle,
    bfs_distance_oracle,
    bfs_order_mdd_oracle,
    chains_oracle,
    closure_oracle,
    det_oracle,
    dilate_points_oracle,
    lex_least_word_oracle,
    lshape_validate_oracle,
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


def test_diagram_builds_each_table_once():
    """The diameter, build and verify of a digraph build one table per generator
    between them, at any order: upsilon(3, 3) (n = 2,268) and upsilon(2, 30)
    (n = 2,700) as upsilon(3, 2) (n = 672)."""
    for g, tables in ((upsilon(3, 3), 3), (upsilon(2, 30), 2), (upsilon(3, 2), 3)):
        cayley._build_table.cache_clear()
        diameter(g)
        assert verify_mdd(build_mdd(g))
        assert cayley._build_table.cache_info().misses == tables, g


def _counted_bfs(monkeypatch):
    """The groups that `cayley.bfs_distances` searches from now on, in order."""
    calls = []
    bfs = cayley.bfs_distances

    def counted(group, gens):
        calls.append(tuple(group))
        return bfs(group, gens)

    monkeypatch.setattr(cayley, "bfs_distances", counted)
    cayley._distances.cache_clear()
    return calls


def test_diameter_build_and_verify_share_one_bfs(monkeypatch):
    """A digraph is searched once: its diameter, its profile, the build of its
    diagram and the diagram's verification all read `CayleyDigraph.distances`."""
    calls = _counted_bfs(monkeypatch)
    for named in (upsilon(3, 2), upsilon(2, 5), SPACE_SEED, Z7):
        g = CayleyDigraph(named.group, named.gens)  # a fresh digraph, never searched
        cayley._distances.cache_clear()  # nor its value
        calls.clear()
        k = diameter(g)
        h = build_mdd(g)
        assert verify_mdd(h) and solid_diameter(h) == k + g.degree
        assert distance_profile(g).max_distance == k
        assert calls == [tuple(g.group)], str(g)


def test_dilating_step_searches_its_dilate_once(monkeypatch):
    """A step of the dilating method builds the dilate's own diagram and
    verifies the dilated diagram of its base. `dilate_mdd` makes its own
    dilate, equal to the step's but not the same object, and the two share
    one BFS of the dilated group."""
    calls = _counted_bfs(monkeypatch)
    for g, m in ((U2, 3), (GAMMA2, 2), (SPACE_SEED, 2), (upsilon(3, 1), 2)):
        h = build_mdd(g)
        calls.clear()
        gm = dilate_digraph(g, m, strict=True)
        assert verify_mdd(build_mdd(gm))
        hd = dilate_mdd(h, m)
        assert hd.source == gm and hd.source is not gm
        assert verify_mdd(hd)
        assert calls == [tuple(gm.group)], str(g)


def test_distances_are_shared_by_digraph_value(monkeypatch):
    """Different lifts of the same generators search the group once; the same
    lifts over another group, or other generators, search it again."""
    calls = _counted_bfs(monkeypatch)
    a = CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3)))
    b = CayleyDigraph(InvariantFactors((3, 24)), ((3, 25), (2, -21)))
    assert a.gens != b.gens and a.normalized_gens == b.normalized_gens
    assert a.distances is b.distances and calls == [(3, 24)]
    c = CayleyDigraph(InvariantFactors((6, 48)), a.gens)  # a's dilate by 2
    d = CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (1, 3)))
    assert diameter(c) == 2 * (diameter(a) + 2) - 2 and d.distances != a.distances
    assert calls == [(3, 24), (6, 48), (3, 24)]


def test_verify_mdd_rejects_bad_sets():
    good = build_mdd(U2)
    assert verify_mdd(good)
    swapped = Mdd(points=frozenset({(0, 0), (1, 0), (1, 1)}), source=U2)
    assert not verify_mdd(swapped)
    z3 = CayleyDigraph.from_cyclic(3, (1, 2))
    stretched = Mdd(points=frozenset({(0, 0), (1, 0), (2, 0)}), source=z3)
    assert not verify_mdd(stretched)
    # a column's last coordinates sum as 0, ..., k - 1 do, but one is negative
    # and another too high: only the sign check sees it
    ring = CayleyDigraph.from_cyclic(5, (1,))
    for g, pts in (
        (ring, {(-1,), (1,), (2,), (3,), (5,)}),
        (U2, {(0, 0), (0, 2), (1, -1)}),
    ):
        assert not mdd_oracle(tuple(g.group), g.gens, frozenset(pts))
        assert not verify_mdd(Mdd(points=frozenset(pts), source=g)), pts


def test_verify_mdd_rejects_non_int_coordinates():
    """Coordinates are ints, as generator entries are: a float or a bool equal to the
    right int, or a string, makes the set no diagram, as it does for the oracle."""
    moduli = tuple(U2.group)
    for pts in (
        {(0.0, 0), (1, 0), (0, 1)},
        {(0, 0), (True, False), (0, 1)},
        {(0, 0), (1, 0), (0, 1.0)},
        {(0, 0), (1, 0), (0, "1")},
        {(0, 0), (1, 0), ("0", "1")},
    ):
        assert len(pts) == U2.order
        assert not mdd_oracle(moduli, U2.gens, frozenset(pts)), pts
        assert not verify_mdd(Mdd(points=frozenset(pts), source=U2)), pts


def test_solid_diameter_examples():
    assert solid_diameter(build_mdd(U2)) == 3
    assert solid_diameter(build_mdd(SPACE_SEED)) == 6
    assert solid_diameter(build_mdd(CayleyDigraph.from_cyclic(2, (1,)))) == 2


def test_dilate_mdd_examples():
    h = build_mdd(U2)
    assert dilate_mdd(h, 1) is h
    for m in (2.0, True, 0):  # the factor rule of dilate_digraph
        with pytest.raises(ValueError, match="dilation factor"):
            dilate_mdd(h, m)
    doubled = dilate_mdd(h, 2)
    assert doubled.points == LShape(4, 4, 2, 2).cubes()
    assert verify_mdd(doubled)
    space = dilate_mdd(build_mdd(SPACE_SEED), 2)
    assert len(space.points) == 128
    assert solid_diameter(space) == 12
    assert verify_mdd(space)


DILATION_SOURCES = {1: CayleyDigraph.from_cyclic(5, (1,)), 2: U2, 3: SPACE_SEED}


@given(
    data=st.data(),
    d=st.integers(1, 3),
    m=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_dilate_mdd_matches_blockwise_oracle(data, d, m):
    """Any point set of a proper source, a diagram or not, dilates block by block."""
    g = DILATION_SOURCES[d]
    pts = data.draw(st.frozensets(st.tuples(*[st.integers(0, 5)] * d), max_size=20))
    hd = dilate_mdd(Mdd(points=pts, source=g), m)
    assert hd.points == dilate_points_oracle(pts, m)
    assert hd.source == dilate_digraph(g, m)


def test_extract_lshape_examples():
    assert extract_lshape(build_mdd(GAMMA1)) == LShape(11, 8, 4, 4)
    assert extract_lshape(build_mdd(GAMMA2)) == LShape(9, 9, 3, 3)
    assert extract_lshape(build_mdd(Z7)) == LShape(2, 4, 1, 1)
    with pytest.raises(ValueError):
        extract_lshape(build_mdd(SPACE_SEED))
    rect = extract_lshape(build_mdd(CayleyDigraph.from_cyclic(6, (1, 3))))
    assert rect == LShape(3, 2, 0, 0)  # rectangles are normalized to w = y = 0
    # every point must be a pair of ints: (0.0, 0) and (True, 0) equal (0, 0) and (1, 0),
    # so a reader that only counts columns would take them for the L(2, 4, 1, 1) of Z7
    pts = build_mdd(Z7).points
    for bad in (
        pts - {(0, 0)} | {(0.0, 0)},
        pts - {(1, 0)} | {(True, 0)},
        pts | {()},
        pts | {(0, 0, 0)},
        pts - {(0, 3), (1, 2)} | {(0, 3, 1), (2,)},  # still 2n coordinates
        pts - {(0, 3)} | {(), (0, 3, 0, 0)},
        frozenset(),
    ):
        with pytest.raises(ValueError, match="not an L-shape"):
            extract_lshape(Mdd(points=bad, source=Z7))


def test_lshape_validate_examples():
    assert lshape_validate(LShape(2, 2, 1, 1), upsilon(2, 1))
    assert lshape_validate(LShape(2, 4, 1, 1), Z7)
    assert not lshape_validate(LShape(3, 3, 0, 0), Z7)


def test_lshape_validate_matches_five_condition_oracle():
    """Every 2-generator digraph of order n <= 20 (every chain, every ordered pair
    of distinct nonzero elements that generates) against every L-shape of area n:
    the same verdict as the five conditions, the gcd and interlock tests included."""
    pairs = valid = 0
    for n in range(2, 21):
        shapes = []
        for l, h in product(range(1, n + 1), repeat=2):
            for w, y in product(range(l), range(h)):
                if l * h - w * y == n:
                    try:
                        shapes.append(LShape(l, h, w, y))
                    except ValueError:
                        continue
        for moduli in sorted(chains_oracle(n, 2)):
            elems = list(product(*(range(m) for m in moduli)))[1:]
            for a, b in permutations(elems, 2):
                if len(closure_oracle(moduli, (a, b))) != n:
                    continue
                g = CayleyDigraph(InvariantFactors(moduli), (a, b))
                for s in shapes:
                    got = lshape_validate(s, g)
                    assert got == lshape_validate_oracle(s.l, s.h, s.w, s.y, moduli, a, b), (s, g)
                    pairs += 1
                    valid += got
    assert (pairs, valid) == (84160, 8520)


def test_lshape_solid_diameter_examples():
    assert lshape_solid_diameter(LShape(11, 8, 4, 4)) == 15
    assert lshape_solid_diameter(LShape(2, 2, 1, 1)) == 3
    assert lshape_solid_diameter(LShape(9, 1, 0, 0)) == 10


def test_lshape_tessellation_matrix_examples():
    assert lshape_tessellation_matrix(LShape(2, 2, 1, 1)) == ((2, -1), (-1, 2))
    assert lshape_tessellation_matrix(LShape(6, 6, 3, 3)) == ((6, -3), (-3, 6))
    assert lshape_tessellation_matrix(LShape(9, 1, 0, 0)) == ((9, 0), (0, 1))


def test_optimal_lshapes_match_every_admissible_lshape():
    """n = 3..40, against every admissible L-shape of area n, with its quotient
    Z^2/Λ and e_1, e_2 from the Smith form (`admissible_lshapes_oracle`). Each
    shape's Cay(Z^2/Λ, {e_1, e_2}) has BFS diameter at most the shape's
    largest norm l + h - 2 - min(w, y), so kappa(2, n) is at most the least
    norm, and the shapes attaining it are exactly those `optimal_lshapes`
    returns, on the chain (gcd(l, h, w, y), n/gcd)."""
    shapes = 0
    for n in range(3, 41):
        every = admissible_lshapes_oracle(n)
        norm = {s: s[0] + s[1] - 2 - min(s[2], s[3]) for s in every}
        for s, (moduli, gens) in every.items():
            dist = bfs_distance_oracle(moduli, gens)
            assert dist is not None and max(dist.values()) <= norm[s], (n, s)
            assert moduli == (gcd(*s), n // gcd(*s)), (n, s)
        k = min(norm.values())
        best = sorted(s for s in every if norm[s] == k)
        got = optimal_lshapes(n)
        assert (got[0], sorted(got[1])) == (k, best), n
        assert lshape_kappa(n) == (k, min(every[s][0] for s in best)), n
        shapes += len(every)
    assert shapes == 1412


def test_lshape_kappa_refuses_orders_below_three():
    assert lshape_kappa(3) == (1, (1, 3))  # Cay(Z_3, {1, 2})
    for n in (2, 1, 0, -4, 3.0, True):
        with pytest.raises(ValueError):
            optimal_lshapes(n)


def test_lshape_parameter_validation():
    with pytest.raises(ValueError):
        LShape(2, 2, 2, 1)  # w must stay below l
    with pytest.raises(ValueError):
        LShape(3, 2, 1, 2)
    with pytest.raises(ValueError):
        LShape(2, 3, 3, 2)
    for params in ((2.0, 2, 1, 1), (2, 2, 1.0, 1), (2, True, 1, 1), (2, 2, 0, False)):
        with pytest.raises(ValueError, match="must be ints"):
            LShape(*params)


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


def test_build_mdd_matches_bfs_order_oracle_at_scale():
    """The column walk against the BFS-order build it replaced, at orders the
    lex-least-word oracle cannot reach: every corpus digraph and its dilates
    by 2 and 3, upsilon(2, m) up to n = 300, upsilon(3, m) up to n = 2,268,
    and the paper seeds dilated up to n = 3,000."""
    seeds = (U2, GAMMA1, GAMMA2, SPACE_SEED, upsilon(3, 1))
    digraphs = [dilate_digraph(g, m) for g in proper_corpus() for m in (1, 2, 3)]
    digraphs += [upsilon(2, m) for m in range(1, 11)] + [upsilon(3, m) for m in range(1, 4)]
    digraphs += [dilate_digraph(g, m) for g in seeds for m in range(1, 8) if m**g.degree * g.order <= 3000]
    for g in digraphs:
        moduli = tuple(g.group)
        assert build_mdd(g).points == bfs_order_mdd_oracle(moduli, g.gens), str(g)
    assert len(digraphs) >= 3 * 200 + 13 and max(g.order for g in digraphs) == 2592


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
    # equal to the diagram's own points, but not ints: the type check alone sees
    # them (drawing nothing from rng keeps the other kinds' draws as they were)
    top = ordered[-1]
    yield "float", pts - {top} | {tuple(map(float, top))}
    yield "bool", pts - {ordered[0]} | {(False,) * d}


def _mutation_verdicts(diagrams, rng):
    """The oracle's verdict on each mutation of each diagram, by kind, after
    checking that verify_mdd gives the same one."""
    verdicts = {}
    for h in diagrams:
        g = h.source
        moduli = tuple(g.group)
        assert verify_mdd(h) and mdd_oracle(moduli, g.gens, h.points)
        for kind, pts in _mutations(g, h.points, rng):
            want = mdd_oracle(moduli, g.gens, frozenset(pts))
            got = verify_mdd(Mdd(points=frozenset(pts), source=g))
            assert got == want, (kind, str(g), sorted(pts))
            verdicts.setdefault(kind, []).append(want)
    assert set(verdicts) == {
        "move", "above", "swap", "negative", "rank", "same-image", "drop", "lift",
        "float", "bool",
    }
    for kind in ("above", "negative", "rank", "same-image", "drop", "lift", "float", "bool"):
        assert not any(verdicts[kind]), kind
    assert verdicts["move"].count(False) > len(verdicts["move"]) // 2
    assert verdicts["swap"].count(False) > len(verdicts["swap"]) // 2
    return verdicts


def test_verify_mdd_rejection_matches_phi_oracle():
    _mutation_verdicts((build_mdd(g) for g in proper_corpus()), random.Random(5501))


def test_verify_mdd_rejection_matches_phi_oracle_on_dilates():
    """The same mutations of dilated diagrams, whose points are no graded-lex
    least words, so the verdicts do not rest on the shape build_mdd gives.
    Every degree-1 and degree-3 member of the corpus is dilated, and every tenth
    of its 1,390 degree-2 L-shapes: all of them would take about 10 s."""
    corpus = proper_corpus()
    sources = [g for g in corpus if g.degree != 2] + [g for g in corpus if g.degree == 2][::10]
    diagrams = (dilate_mdd(build_mdd(g), m) for g in sources for m in (2, 3))
    verdicts = _mutation_verdicts(diagrams, random.Random(5503))
    assert len(verdicts["move"]) == 2 * len(sources) >= 2 * 200
