"""Shared test helpers: independent oracles and the proper-digraph corpus.

The oracles deliberately avoid the library code paths they are used to
check: plain modular arithmetic on tuples, exhaustive enumeration, and
divisor products only.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from math import gcd

from cayleydense.abelian import InvariantFactors
from cayleydense.cayley import CayleyDigraph
from cayleydense.mdd import LShape, lshape_tessellation_matrix
from cayleydense.zmatrix import det, proper_generating_set


def mod_add(moduli, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def mixed_radix_index(moduli, a):
    """Position of a reduced element when elements are listed last coordinate fastest."""
    idx = 0
    for x, m in zip(a, moduli):
        idx = idx * m + x
    return idx


def successor_table_oracle(moduli, gen):
    """Index of v + gen for every element v, listed by mixed_radix_index."""
    elems = list(product(*(range(m) for m in moduli)))
    return [mixed_radix_index(moduli, mod_add(moduli, v, gen)) for v in elems]


def bfs_distance_oracle(moduli, gens):
    """Word length of every element by plain BFS, or None when gens do not generate."""
    zero = tuple(0 for _ in moduli)
    dist = {zero: 0}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = mod_add(moduli, v, g)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    n = 1
    for m in moduli:
        n *= m
    return dist if len(dist) == n else None


def scan_group_oracle(
    moduli, d, symmetry, bound_hint, first=None, stop_at=None, memo=None
):
    """One group's kappa scan, by plain BFS on tuples: (best_k, best_gens, hit).

    Sets are index tuples (mixed_radix_index) in lexicographic order. The
    symmetry rules: on cyclic chains under "units" or "full-listed", skip a
    set that has a unit but not 1; on other chains under "full-listed", skip
    a set that some coordinate permutation among equal moduli maps to a
    lexicographically smaller sorted set. A set counts only when it
    generates with diameter strictly below the best so far (a tie does not
    count). `first` keeps the sets whose least index is `first`; `stop_at`
    returns at the first counted set of diameter <= stop_at. `memo` (a dict)
    keeps the scanned sets and their diameters across calls.
    """
    if memo is None:
        memo = {}
    key = (tuple(moduli), d, symmetry)
    if key not in memo:
        memo[key] = _scanned_sets_oracle(moduli, d, symmetry, memo)
    best_k, best_gens = bound_hint, None
    for idxs, k in memo[key]:
        if first is not None and idxs[0] != first:
            continue
        if k is None or (best_k is not None and k >= best_k):
            continue
        best_k, best_gens = k, idxs
        if stop_at is not None and k <= stop_at:
            return best_k, best_gens, True
    if best_gens is None:
        return None, None, False
    return best_k, best_gens, False


def _scanned_sets_oracle(moduli, d, symmetry, memo):
    """The d-sets a scan keeps under `symmetry`, each with its diameter or None."""
    elems = list(product(*(range(m) for m in moduli)))
    n = len(elems)
    cyclic = all(m == 1 for m in moduli[:-1])
    units = None
    if cyclic and symmetry in ("units", "full-listed"):
        units = [gcd(v, n) == 1 for v in range(n)]
    perms = []
    if not cyclic and symmetry == "full-listed":
        r = len(moduli)
        perms = [
            p
            for p in permutations(range(r))
            if all(moduli[p[i]] == moduli[i] for i in range(r))
        ]
    moved = [
        [mixed_radix_index(moduli, tuple(e[c] for c in p)) for e in elems]
        for p in perms
    ]
    kept = []
    for idxs in combinations(range(1, n), d):
        if units is not None and 1 not in idxs and any(units[i] for i in idxs):
            continue
        if any(tuple(sorted(m[i] for i in idxs)) < idxs for m in moved):
            continue
        diam_key = (tuple(moduli), idxs)
        if diam_key not in memo:
            dist = bfs_distance_oracle(moduli, [elems[i] for i in idxs])
            memo[diam_key] = None if dist is None else max(dist.values())
        kept.append((idxs, memo[diam_key]))
    return kept


def det_oracle(rows):
    """Determinant by the Leibniz sum over permutations (small matrices only)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def mdd_oracle(moduli, gens, points):
    """Whether points form a minimum distance diagram, with phi by plain arithmetic.

    The conditions: n points of the right rank in N^d, downward closed, phi
    injective, and each point's 1-norm equal to its image's BFS distance.
    """
    d = len(gens)
    dist = bfs_distance_oracle(moduli, gens)
    if dist is None or len(points) != len(dist):
        return False
    images = set()
    for a in points:
        if len(a) != d or any(x < 0 for x in a):
            return False
        for i in range(d):
            if a[i] > 0 and a[:i] + (a[i] - 1,) + a[i + 1 :] not in points:
                return False
        value = tuple(
            sum(c * g[j] for c, g in zip(a, gens)) % m for j, m in enumerate(moduli)
        )
        if value in images or dist[value] != sum(a):
            return False
        images.add(value)
    return True


def word_length_oracle(moduli, gens, max_norm):
    """Min 1-norm of a nonnegative word for each element, by full enumeration."""
    d = len(gens)
    best: dict[tuple, int] = {}

    def walk(i, remaining, value):
        if i == d:
            norm = max_norm - remaining
            if value not in best or norm < best[value]:
                best[value] = norm
            return
        v = value
        for times in range(remaining + 1):
            walk(i + 1, remaining - times, v)
            v = mod_add(moduli, v, gens[i])

    walk(0, max_norm, tuple(0 for _ in moduli))
    return best


def lex_least_word_oracle(moduli, gens):
    """Lexicographically least word of minimal 1-norm for each element.

    Words are listed norm by norm, each norm in lexicographic order, so the
    first word to reach an element is its least one. Stops once every
    element is reached, or after norm n - 1 when gens do not generate.
    """
    d = len(gens)
    n = 1
    for m in moduli:
        n *= m

    def words(i, remaining):
        if i == d - 1:
            yield (remaining,)
            return
        for x in range(remaining + 1):
            for rest in words(i + 1, remaining - x):
                yield (x,) + rest

    best: dict[tuple, tuple] = {}
    norm = 0
    while len(best) < n and norm < n:
        for word in words(0, norm):
            value = tuple(
                sum(c * g[j] for c, g in zip(word, gens)) % m
                for j, m in enumerate(moduli)
            )
            best.setdefault(value, word)
        norm += 1
    return best


def closure_oracle(moduli, gens):
    """Subgroup generated by the given elements, by plain closure."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = mod_add(moduli, v, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def chains_oracle(n, d):
    """All divisibility chains of length d with product n, by brute force."""
    divs = [k for k in range(1, n + 1) if n % k == 0]
    out = set()
    for combo in product(divs, repeat=d):
        ok = all(combo[i + 1] % combo[i] == 0 for i in range(d - 1))
        prod_val = 1
        for c in combo:
            prod_val *= c
        if ok and prod_val == n:
            out.add(combo)
    return out


def _lshape_seeds(max_side=9, max_order=60):
    shapes = []
    for l in range(1, max_side + 1):
        for h in range(1, max_side + 1):
            for w in range(0, l):
                for y in range(0, h):
                    if (l - y) * (h - w) < 0 or (l == y and h == w):
                        continue
                    area = l * h - w * y
                    if 2 <= area <= max_order:
                        shapes.append(LShape(l, h, w, y))
    return shapes


def _digraph_from_matrix(m, max_order=60):
    n = abs(det(m))
    if not 2 <= n <= max_order:
        return None
    group, gens = proper_generating_set(m)
    reduced = [group.reduce(t) for t in gens]
    zero = group.zero()
    if zero in reduced or len(set(reduced)) != len(reduced):
        return None
    return CayleyDigraph(group, gens)


def proper_corpus(minimum=200):
    """Deterministic corpus of proper digraphs (unimodular lift matrices).

    Degree 1: directed rings. Degree 2: tessellation matrices of small
    L-shapes. Degree 3: seeded random lattice bases plus the named seeds.
    """
    corpus = []
    for n in range(2, 22):
        corpus.append(CayleyDigraph(InvariantFactors((n,)), ((1,),)))
    for shape in _lshape_seeds():
        g = _digraph_from_matrix(lshape_tessellation_matrix(shape))
        if g is not None:
            corpus.append(g)
    rng = random.Random(20240811)
    attempts = 0
    found = 0
    while found < 60 and attempts < 20000:
        attempts += 1
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        g = _digraph_from_matrix(m)
        if g is not None:
            corpus.append(g)
            found += 1
    corpus.append(CayleyDigraph(InvariantFactors((1, 3)), ((0, 1), (1, -1))))
    corpus.append(CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11))))
    corpus.append(CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3))))
    corpus.append(
        CayleyDigraph(InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11)))
    )
    corpus.append(
        CayleyDigraph(
            InvariantFactors((1, 1, 84)), ((1, 10, -38), (0, 1, -3), (0, -2, 7))
        )
    )
    seen = set()
    unique = []
    for g in corpus:
        key = (tuple(g.group), g.gens)
        if key not in seen:
            seen.add(key)
            unique.append(g)
    assert len(unique) >= minimum, f"corpus too small: {len(unique)}"
    return unique
