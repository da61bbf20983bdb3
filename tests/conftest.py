"""Shared test helpers: independent oracles and the proper-digraph corpus.

The oracles deliberately avoid the library code paths they are used to
check: plain modular arithmetic on tuples, exhaustive enumeration, and
divisor products only.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, gcd, prod

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


def scan_group_oracle(moduli, d, bound_hint, stop_at=None, memo=None):
    """One group's kappa scan over every d-set, by plain BFS on tuples: (best_k, best_gens, hit).

    Sets are index tuples (mixed_radix_index) in lexicographic order, none
    skipped. A set counts only when it generates with diameter strictly
    below the best so far (a tie does not count). `stop_at` returns at the
    first counted set of diameter <= stop_at. `memo` (a dict) keeps the
    sets and their diameters across calls.
    """
    if memo is None:
        memo = {}
    key = (tuple(moduli), d)
    if key not in memo:
        memo[key] = _scanned_sets_oracle(moduli, d)
    best_k, best_gens = bound_hint, None
    for idxs, k in memo[key]:
        if k is None or (best_k is not None and k >= best_k):
            continue
        best_k, best_gens = k, idxs
        if stop_at is not None and k <= stop_at:
            return best_k, best_gens, True
    if best_gens is None:
        return None, None, False
    return best_k, best_gens, False


def _scanned_sets_oracle(moduli, d):
    """Every d-set of nonzero elements, each with its diameter or None."""
    elems = list(product(*(range(m) for m in moduli)))
    tables = [successor_table_oracle(moduli, e) for e in elems]
    return [
        (idxs, _diameter_oracle([tables[i] for i in idxs]))
        for idxs in combinations(range(1, len(elems)), d)
    ]


def _diameter_oracle(tables):
    """Diameter by plain BFS over element indices, or None when the gens do not generate.

    `tables[j][v]` is the index of element v plus generator j.
    """
    n = len(tables[0])
    dist = [0] + [-1] * (n - 1)
    frontier = [0]
    reached = 1
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for table in tables:
                w = table[v]
                if dist[w] < 0:
                    dist[w] = level
                    nxt.append(w)
        reached += len(nxt)
        frontier = nxt
    return level - 1 if reached == n else None


def kappa_oracle(d, n):
    """(kappa, witness literal) of a full scan of every chain, by scan_group_oracle.

    The least (k, moduli, gens) over the chains in lexicographic order: each
    chain's scan keeps its first set of least diameter.
    """
    best = None
    for moduli in sorted(chains_oracle(n, d)):
        k, gens, _ = scan_group_oracle(moduli, d, None)
        if k is not None and (best is None or (k, moduli, gens) < best):
            best = (k, moduli, gens)
    k, moduli, gens = best
    elems = list(product(*(range(m) for m in moduli)))
    return k, {"moduli": list(moduli), "gens": [list(elems[i]) for i in gens]}


CACHE_FIELDS = ("d", "n", "kappa", "witness", "millis")


def cache_scan_oracle(path, d, n):
    """The first well-formed record of (d, n) in a cache file, as a dict, or None.

    A plain first-match scan of the whole file on every call. A line counts
    when it is a JSON object with all of CACHE_FIELDS; the "settings" that
    older lines carry, whatever they hold, are not compared.
    """
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return None
    with fh:
        for line in fh:
            try:
                obj = json.loads(line)
                rec = {f: obj[f] for f in CACHE_FIELDS}
            except (ValueError, KeyError, TypeError):
                continue
            if json.dumps([rec["d"], rec["n"]]) == json.dumps([d, n]):
                return rec
    return None


def hnf_oracle(n, d):
    """Every lower-triangular HNF of index n in Z^d, by brute force.

    Row i is (b_i1, ..., b_i,i-1, a_i, 0, ..., 0) with a_1*...*a_d = n and
    0 <= b_ij < a_j.
    """
    out = []
    free = [(i, j) for i in range(d) for j in range(i)]
    for diag in product(range(1, n + 1), repeat=d):
        if prod(diag) != n:
            continue
        for bs in product(*(range(diag[j]) for _, j in free)):
            rows = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
            for (i, j), b in zip(free, bs):
                rows[i][j] = b
            out.append(tuple(tuple(row) for row in rows))
    return out


def lattice_reduce_oracle(rows, v):
    """The representative x of v + L with 0 <= x_i < a_i, by plain integer reduction.

    L is spanned by lower-triangular rows with diagonal a; subtracting
    multiples of row d, then row d - 1, ..., fixes one coordinate at a time.
    """
    v = list(v)
    for i in reversed(range(len(rows))):
        q = v[i] // rows[i][i]
        v = [x - q * r for x, r in zip(v, rows[i])]
    return tuple(v)


def in_lattice_oracle(rows, v):
    """Whether v lies in the lattice of these HNF rows: it reduces to 0."""
    return not any(lattice_reduce_oracle(rows, v))


@lru_cache(maxsize=None)
def _hnf_set_oracle(n, d):
    return frozenset(hnf_oracle(n, d))


def permuted_hnf_oracle(rows, sigma):
    """The HNF of L with its coordinates permuted, by brute force: the lattice
    whose points are (x_sigma[0], ..., x_sigma[d-1]) for the points x of L.

    Row i of an HNF is the one vector (b_1, ..., b_(i-1), a_i, 0, ..., 0) of the
    lattice with a_i > 0 least and 0 <= b_j < a_j, so each row is the first
    such vector, a_i = 1, 2, ... in turn, that lies in the lattice: its point
    moved back lies in L (`in_lattice_oracle`). The result is looked up in
    `hnf_oracle`.
    """
    d = len(rows)
    n = prod(rows[i][i] for i in range(d))

    def member(y):
        x = [0] * d
        for k, v in enumerate(y):
            x[sigma[k]] = v
        return in_lattice_oracle(rows, x)

    found = []
    for i in range(d):
        for a in range(1, n + 1):
            bs = (range(row[j]) for j, row in enumerate(found))
            shape = product(*bs, [a], *[[0]] * (d - i - 1))
            row = next((y for y in shape if member(y)), None)
            if row is not None:
                break
        found.append(row)
    found = tuple(found)
    assert found in _hnf_set_oracle(n, d), (rows, sigma, found)
    return found


def quotient_chain_oracle(rows):
    """Invariant factors of Z^d/L, from the sizes of its m-torsion subgroups.

    For the chain s, |{x : m*x in L}| is the product of gcd(m, s_i), and
    these counts over every m | n tell the chains of order n apart.
    """
    d = len(rows)
    diag = [rows[i][i] for i in range(d)]
    n = prod(diag)
    elems = list(product(*(range(a) for a in diag)))
    zero = (0,) * d
    counts = {
        m: sum(lattice_reduce_oracle(rows, [m * x for x in e]) == zero for e in elems)
        for m in range(1, n + 1)
        if n % m == 0
    }
    (chain,) = [
        s
        for s in chains_oracle(n, d)
        if all(prod(gcd(m, x) for x in s) == c for m, c in counts.items())
    ]
    return chain


def macaulay_oracle(j, h):
    """h^<j> from the j-th binomial expansion of h, built term by term.

    Each top k_i is found by counting down from h + i - 1, where
    C(h + i - 1, i) >= h already holds; the expansion is
    h = C(k_j, j) + ... + C(k_s, s) with k_j > ... > k_s >= s >= 1, and
    h^<j> replaces each C(k, i) by C(k + 1, i + 1).
    """
    terms = []
    i = j
    while h > 0:
        k = h + i - 1
        while comb(k, i) > h:
            k -= 1
        terms.append((k, i))
        h -= comb(k, i)
        i -= 1
    return sum(comb(k + 1, i + 1) for k, i in terms)


def translation_parts_oracle(rows, j):
    """Masked rotations of e_j on Z^d/L: one (mask, c, n - c) part per offset c mod n.

    Every element x + e_j is reduced at once, one coordinate column at a
    time, by the same integer reduction as lattice_reduce_oracle: subtract
    q = x_i // a_i times row i, for i = d, d - 1, ..., 1.
    """
    d = len(rows)
    diag = [rows[i][i] for i in range(d)]
    n = prod(diag)
    elems = list(product(*(range(a) for a in diag)))  # index order
    cols = [[x[i] + (i == j) for x in elems] for i in range(d)]
    for i in reversed(range(d)):
        qs = [x // diag[i] for x in cols[i]]
        for k in range(i + 1):
            cols[k] = [x - q * rows[i][k] for x, q in zip(cols[k], qs)]
    index = [0] * n
    for a, col in zip(diag, cols):
        index = [v * a + x for v, x in zip(index, col)]
    masks = {}
    for v, w in enumerate(index):
        c = (w - v) % n
        masks[c] = masks.get(c, 0) | 1 << v
    return tuple((mask, c, n - c) for c, mask in masks.items())


def tightness_coefficient_oracle(d, n, delta):
    """The largest m such that every m' <= m is tight, by stepping m' = 2, 3, ...
    one dilate at a time. m' is tight when ceil((m'**d * B)**(1/d)) equals
    m' * ceil(B**(1/d)), B = n / delta; roots by bisection on integers. Only for
    orders whose coefficient is finite and small."""
    base = Fraction(n) / delta

    def ceil_root(r):
        lo, hi = 0, 1  # lo**d < r <= hi**d
        while hi**d < r:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if mid**d >= r else (mid, hi)
        return hi

    x = ceil_root(base)
    m = 1
    while ceil_root((m + 1) ** d * base) == (m + 1) * x:
        m += 1
    return m


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


# mdd_oracle is asked about many mutations of one diagram; each digraph's plain
# BFS runs once for all of them
_bfs_distance_oracle_memo = lru_cache(maxsize=8)(bfs_distance_oracle)


def mdd_oracle(moduli, gens, points):
    """Whether points form a minimum distance diagram, with phi by plain arithmetic.

    The conditions: n points of the right rank in N^d (int coordinates only,
    no floats or bools), downward closed, phi injective, and each point's
    1-norm equal to its image's BFS distance.
    """
    d = len(gens)
    dist = _bfs_distance_oracle_memo(tuple(moduli), tuple(map(tuple, gens)))
    if dist is None or len(points) != len(dist):
        return False
    images = set()
    for a in points:
        if len(a) != d or any(type(x) is not int or x < 0 for x in a):
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


def dilate_points_oracle(points, m):
    """Every point a replaced by its block, the m^d points m*a + o with 0 <= o_i < m."""
    out = set()
    for a in points:
        for offs in product(range(m), repeat=len(a)):
            out.add(tuple(m * x + o for x, o in zip(a, offs)))
    return frozenset(out)


def bfs_order_mdd_oracle(moduli, gens):
    """The graded-lex diagram by one pass over the elements in BFS order.

    rep(0) = 0, and rep(x) is the lexicographic minimum of rep(x - g_i) + e_i
    over the generators i with dist(x - g_i) = dist(x) - 1; the pass offers
    rep(v) + e_i to every successor one level further out. Plain tables and
    a plain BFS, and fast enough for orders in the thousands, where
    lex_least_word_oracle is not.
    """
    tables = [successor_table_oracle(moduli, t) for t in gens]
    n = len(tables[0])
    dist = [0] + [-1] * (n - 1)
    order = [0]
    for v in order:  # grows as it goes: the elements in BFS order
        for table in tables:
            w = table[v]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    rep = [None] * n
    rep[0] = (0,) * len(gens)
    for v in order:
        a = rep[v]
        for i, table in enumerate(tables):
            w = table[v]
            if dist[w] == dist[v] + 1:
                b = a[:i] + (a[i] + 1,) + a[i + 1 :]
                if rep[w] is None or b < rep[w]:
                    rep[w] = b
    return frozenset(rep)


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


def _lshape_cells_oracle(l, h, w, y):
    return frozenset((x, z) for x in range(l) for z in range(h) if x < l - w or z < h - y)


@lru_cache(maxsize=None)
def _same_cells_oracle(l, h, w, y):
    """Every (w', y') that gives L(l, h, w', y') the cells of L(l, h, w, y)."""
    cells = _lshape_cells_oracle(l, h, w, y)
    return [
        (w2, y2)
        for w2 in range(l)
        for y2 in range(h)
        if _lshape_cells_oracle(l, h, w2, y2) == cells
    ]


def lshape_validate_oracle(l, h, w, y, moduli, a, b):
    """The five conditions on L(l, h, w, y) and Cay(Z_s1 + Z_s2, {a, b}), on plain tuples.

    Some (l, h, w', y') with the same cells must have area s1*s2,
    gcd(l, h, w', y') = s1, l*a = y'*b, w'*a = h*b, interlocking sides
    ((l - y')*(h - w') >= 0) and not both side differences zero.
    """

    def mul(k, v):
        return tuple(k * x % m for x, m in zip(v, moduli))

    return any(
        l * h - w2 * y2 == prod(moduli)
        and gcd(gcd(l, h), gcd(w2, y2)) == moduli[0]
        and mul(l, a) == mul(y2, b)
        and mul(w2, a) == mul(h, b)
        and (l - y2) * (h - w2) >= 0
        and not (l == y2 and h == w2)
        for w2, y2 in _same_cells_oracle(l, h, w, y)
    )


def admissible_lshapes_oracle(n):
    """Every L(l, h, w, y) of area n that LShape accepts and in whose quotient
    Z^2/Λ, Λ = <(l, -y), (-w, h)>, e_1 and e_2 are nonzero and distinct, as
    {(l, h, w, y): (moduli, (e_1, e_2))}. The quotient and e_1, e_2 come from
    the Smith form (proper_generating_set), and admissibility from that
    group's arithmetic, with every (l, h, w, y) of area n tried."""
    out = {}
    for l in range(1, n + 1):
        for h in range(1, n + 2 - l):  # area >= l + h - 1
            for w in range(l):
                for y in range(h):
                    if l * h - w * y != n:
                        continue
                    try:
                        shape = LShape(l, h, w, y)
                    except ValueError:
                        continue
                    group, gens = proper_generating_set(lshape_tessellation_matrix(shape))
                    e1, e2 = (group.reduce(g) for g in gens)
                    if group.zero() not in (e1, e2) and e1 != e2:
                        out[l, h, w, y] = (tuple(group), (e1, e2))
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
