import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product

import pytest

from cayleydense import cayley
from cayleydense.abelian import InvariantFactors, canonical_invariant_factors
from cayleydense.cayley import (
    CayleyDigraph,
    bfs_distances,
    diameter,
    dilate_digraph,
    distance_profile,
    solid_density,
    successor_table,
    upsilon,
)
from conftest import (
    bfs_distance_oracle,
    chains_oracle,
    mixed_radix_index,
    successor_table_oracle,
    word_length_oracle,
)

GAMMA1 = CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11)))
GAMMA2 = CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3)))


def test_construction_validation():
    with pytest.raises(ValueError):
        CayleyDigraph(InvariantFactors((1, 3)), ((0, 1), (0, 3)))  # 0 in the group
    with pytest.raises(ValueError):
        CayleyDigraph(InvariantFactors((1, 3)), ((0, 1), (0, 4)))  # duplicates
    with pytest.raises(ValueError):
        CayleyDigraph(InvariantFactors((16,)), ((4,),))  # does not generate
    with pytest.raises(ValueError):
        CayleyDigraph(InvariantFactors((2, 6)), ((0, 1),))  # rank/degree mismatch


@pytest.mark.parametrize("bad", [5.0, 5.7, True, "5"])
def test_non_integer_entries_rejected(bad):
    """Moduli, generator entries and coordinates must be ints: no truncated floats, no bools."""
    with pytest.raises(ValueError, match="modulus must be an integer"):
        InvariantFactors((1, bad))
    with pytest.raises(ValueError, match="generator entries must be integers"):
        CayleyDigraph(InvariantFactors((1, 5)), ((0, 1), (1, bad)))
    with pytest.raises(ValueError, match="generator entries must be integers"):
        CayleyDigraph.from_cyclic(5, (1, bad))
    with pytest.raises(ValueError, match="modulus must be an integer"):
        canonical_invariant_factors((2, bad))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        InvariantFactors((1, 5)).reduce((0, bad))


def test_diameter_examples():
    assert diameter(CayleyDigraph.from_cyclic(3, (2, 1))) == 1
    assert diameter(CayleyDigraph.from_cyclic(16, (1, 4, 5))) == 3
    assert diameter(CayleyDigraph.from_cyclic(9, (1,))) == 8
    dilated = dilate_digraph(GAMMA2, 2)
    assert tuple(dilated.group) == (6, 48)
    assert diameter(dilated) == 28


def test_distance_profile_examples():
    p = distance_profile(CayleyDigraph.from_cyclic(3, (2, 1)))
    assert p.of((0, 1)) == 1 and p.of((0, 2)) == 1 and p.of((0, 0)) == 0
    p7 = distance_profile(CayleyDigraph.from_cyclic(7, (1, 2)))
    assert p7.of((0, 6)) == 3
    assert diameter(CayleyDigraph.from_cyclic(7, (1, 2))) == p7.max_distance


def test_profile_matches_word_length_oracle():
    rng = random.Random(123)
    done = 0
    while done < 30:
        n = rng.randint(2, 50)
        d = rng.randint(1, 3)
        steps = tuple(rng.sample(range(1, n), min(d, n - 1)))
        if len(steps) < d:
            continue
        try:
            g = CayleyDigraph.from_cyclic(n, steps)
        except ValueError:
            continue
        profile = distance_profile(g)
        k = profile.max_distance
        oracle = word_length_oracle(tuple(g.group), g.normalized_gens, k)
        assert len(oracle) == n
        for elem, dist in profile.items():
            assert oracle[elem] == dist
        done += 1


def test_solid_density_examples():
    assert solid_density(upsilon(2, 1)) == Fraction(1, 3)
    assert solid_density(upsilon(3, 1)) == Fraction(21, 250)
    # directed rings attain density 1 = n/(k+d)^d with k = n-1, d = 1
    assert solid_density(CayleyDigraph.from_cyclic(2, (1,))) == 1


def test_dilate_examples():
    two = dilate_digraph(GAMMA2, 2)
    assert two.to_literal() == {"moduli": [6, 48], "gens": [[0, 1], [-1, 3]]}
    assert dilate_digraph(GAMMA2, 1) is GAMMA2
    seed = CayleyDigraph(
        InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
    )
    five = dilate_digraph(seed, 5)
    assert tuple(five.group) == (5, 5, 80)
    assert diameter(five) == 27
    with pytest.raises(ValueError):
        dilate_digraph(GAMMA2, 0)
    # a factor is an int: no float that would be truncated, no bool taken as 1
    for m in (2.0, True, "2"):
        with pytest.raises(ValueError, match="must be an int"):
            dilate_digraph(GAMMA2, m)


def test_dilating_method_small():
    for g in (GAMMA1, GAMMA2, CayleyDigraph.from_cyclic(11, (1,))):
        k = diameter(g)
        d = g.degree
        for m in (2, 3):
            assert diameter(dilate_digraph(g, m)) == m * (k + d) - d


def test_upsilon_members():
    u2 = upsilon(2, 1)
    assert u2.to_literal() == {"moduli": [1, 3], "gens": [[0, 1], [1, -1]]}
    u3 = upsilon(3, 1)
    assert tuple(u3.group) == (1, 1, 84)
    assert diameter(u3) == 7
    u32 = upsilon(3, 2)
    assert u32.order == 672
    assert diameter(u32) == 17
    with pytest.raises(ValueError):
        upsilon(4, 1)


def test_literal_roundtrip():
    text = '{"moduli":[3,24],"gens":[[0,1],[-1,3]]}'
    g = CayleyDigraph.from_literal(text)
    assert g == GAMMA2
    assert CayleyDigraph.from_literal(g.to_literal()) == g
    assert str(g) == "Cay(Z3+Z24,{(0,1),(-1,3)})"


def test_successor_table_matches_oracle():
    rng = random.Random(6151)
    chains = 0
    for d in (1, 2, 3):
        for n in range(1, 49):
            for moduli in sorted(chains_oracle(n, d)):
                group = InvariantFactors(moduli)
                chains += 1
                for gen in product(*(range(m) for m in moduli)):
                    want = successor_table_oracle(moduli, gen)
                    assert list(successor_table(group, gen)) == want, (moduli, gen)
                    lift = tuple(x + m * rng.randint(-3, 3) for x, m in zip(gen, moduli))
                    assert list(successor_table(group, group.reduce(lift))) == want
                    assert list(successor_table(group, lift)) == want, (moduli, lift)
    assert chains == 196


def test_successor_table_memo_keeps_the_checks():
    group = InvariantFactors((2, 6))
    assert list(successor_table(group, (1, 1))) == successor_table_oracle((2, 6), (1, 1))
    for _ in range(2):  # the cache now holds a table of this group, and keeps no error
        for gen in ((1,), (1, 1, 1), ()):
            with pytest.raises(ValueError, match="rank 2"):
                successor_table(group, gen)
        for gen in ((1.0, 1), (1, 1.5), [0, 1.0]):
            with pytest.raises(TypeError):
                successor_table(group, gen)


def test_successor_table_memo_shares_one_table_per_key():
    group = InvariantFactors((3, 9))
    want = tuple(successor_table_oracle((3, 9), (2, 5)))
    tbl = successor_table(group, (2, 5))
    assert type(tbl) is tuple and tbl == want
    assert successor_table(group, [2, 5]) is tbl  # a list is the same key
    assert successor_table(group, group.reduce((-4, 23))) is tbl
    assert successor_table(group, (-4, 23)) == want  # an unreduced lift
    assert successor_table(group, [5, -13]) == want


def test_successor_table_memo_stays_within_its_budget():
    """The cache keeps the last TABLE_CACHE_SIZE tables, however wide: a hit keeps
    its table, and the next miss past the limit evicts the least recently used."""
    cache = cayley._build_table
    size = cayley.TABLE_CACHE_SIZE
    group = InvariantFactors((5000,))  # a table counts as one, however wide
    cache.cache_clear()
    for x in range(-1, size - 1):
        assert successor_table(group, (x,)) == tuple((v + x) % 5000 for v in range(5000))
    assert cache.cache_info()[:] == (0, size, size, size)  # hits, misses, maxsize, currsize
    successor_table(group, (-1,))  # a hit: now the most recently used, so it stays
    successor_table(group, (size - 1,))  # a miss past the limit evicts (0,)
    assert cache.cache_info()[:] == (1, size + 1, size, size)
    successor_table(group, (-1,))
    assert cache.cache_info()[:] == (2, size + 1, size, size)
    successor_table(group, (0,))  # built again, evicting (1,)
    assert cache.cache_info()[:] == (2, size + 2, size, size)
    successor_table(group, (1,))
    assert cache.cache_info()[:] == (2, size + 3, size, size)


def test_successor_table_memo_under_threads():
    group = InvariantFactors((1400,))
    keys = cayley.TABLE_CACHE_SIZE + 8  # more keys than the cache keeps: hits and evictions interleave
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                x = rng.randrange(keys)
                tbl = successor_table(group, (x,))
                if len(tbl) != 1400 or tbl[0] != x or tbl[-1] != (x - 1) % 1400:
                    wrong.append(x)
        except Exception as exc:  # a lost update can surface as any error
            wrong.append(exc)

    cayley._build_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    info = cayley._build_table.cache_info()
    assert info.hits + info.misses == 8 * 2000 and info.hits > 0
    assert info.misses > keys and info.currsize == cayley.TABLE_CACHE_SIZE


def test_bfs_distances_matches_oracle_from_the_memo():
    cache = cayley._build_table
    for moduli in ((12,), (2, 6), (1, 3, 9), (2, 2, 4), (4, 8)):
        group = InvariantFactors(moduli)
        elems = list(product(*(range(m) for m in moduli)))[1:]
        for run in range(2):  # the second run reads every table from the cache
            before = cache.cache_info()
            for gens in combinations(elems, 2):
                oracle = bfs_distance_oracle(moduli, gens)
                dist = bfs_distances(group, gens)
                if oracle is None:
                    assert dist is None, (moduli, gens, run)
                    continue
                by_index = sorted(oracle, key=lambda e: mixed_radix_index(moduli, e))
                assert dist == [oracle[e] for e in by_index], (moduli, gens, run)
            if run:
                after = cache.cache_info()
                assert after.misses == before.misses, moduli
                assert after.hits - before.hits == len(elems) * (len(elems) - 1), moduli


def test_bfs_distances_matches_oracle():
    for moduli in ((12,), (2, 6), (1, 3, 9), (2, 2, 4)):
        group = InvariantFactors(moduli)
        elems = list(product(*(range(m) for m in moduli)))[1:]
        for gens in combinations(elems, len(moduli)):
            oracle = bfs_distance_oracle(moduli, gens)
            dist = bfs_distances(group, gens)
            if oracle is None:
                assert dist is None
                continue
            by_index = sorted(oracle, key=lambda e: mixed_radix_index(moduli, e))
            assert dist == [oracle[e] for e in by_index]
