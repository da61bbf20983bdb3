"""Correctness references that do not come from the code under test.

Everything here is plain tuple arithmetic or data recorded at the seed
commit; nothing imports cayleydense.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

# kappa(3, n) and its lexicographically least witness, recorded at the seed
# commit with one worker and with two (both gave the same witness).
KAPPA3 = {
    16: (3, {"moduli": [1, 1, 16], "gens": [[0, 0, 1], [0, 0, 4], [0, 0, 5]]}),
    24: (4, {"moduli": [1, 1, 24], "gens": [[0, 0, 1], [0, 0, 4], [0, 0, 9]]}),
    64: (7, {"moduli": [1, 1, 64], "gens": [[0, 0, 1], [0, 0, 4], [0, 0, 25]]}),
    80: (7, {"moduli": [1, 4, 20], "gens": [[0, 0, 1], [0, 1, 2], [0, 3, 9]]}),
}

# Orders 3..160 where kappa(2, n) exceeds the closed lower bound by one,
# recorded at the seed commit; every other order in that range has gap 0.
GAP1_ORDERS_D2 = frozenset(
    (25, 46, 53, 62, 67, 73, 82, 89, 93, 103, 106, 117, 122, 130, 137, 141, 142, 145, 158)
)

# The three paper seeds of the dilating method (Tables 1 and 2).
PAPER_SEEDS = (
    ((1, 72), ((-1, 4), (-3, 11))),
    ((3, 24), ((0, 1), (-1, 3))),
    ((1, 1, 16), ((0, 0, 1), (0, 1, -12), (1, 0, -11))),
)


def bfs_diameter(moduli, gens) -> int | None:
    """Diameter of Cay(Z_s1+...+Z_sd, gens), or None when gens do not generate."""
    moduli = tuple(moduli)
    steps = [tuple(x % s for x, s in zip(g, moduli)) for g in gens]
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    level = 0
    while True:
        nxt = []
        for v in frontier:
            for g in steps:
                w = tuple((a + b) % s for a, b, s in zip(v, g, moduli))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
        level += 1
    return level if len(seen) == prod(moduli) else None


def lattice_diameter(tri) -> int:
    """Diameter of Cay(Z^d / L, {e_1, ..., e_d}) for L spanned by the columns of tri.

    tri is upper triangular with positive diagonal, so reducing the last
    coordinate first gives each coset a unique representative.
    """
    d = len(tri)

    def reduce(v):
        v = list(v)
        for i in range(d - 1, -1, -1):
            q = v[i] // tri[i][i]
            if q:
                for r in range(i + 1):
                    v[r] -= q * tri[r][i]
        return tuple(v)

    units = [tuple(1 if r == i else 0 for r in range(d)) for i in range(d)]
    zero = (0,) * d
    seen = {zero}
    frontier = [zero]
    level = 0
    while True:
        nxt = []
        for v in frontier:
            for e in units:
                w = reduce([a + b for a, b in zip(v, e)])
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return level
        frontier = nxt
        level += 1


def generates_rank2(moduli, a, b) -> bool:
    """Whether a and b generate Z_s1+Z_s2: the 2x2 minors of [a b diag(s)] are coprime."""
    s1, s2 = moduli
    minors = (a[0] * b[1] - a[1] * b[0], a[1] * s1, a[0] * s2, b[1] * s1, b[0] * s2, s1 * s2)
    g = 0
    for x in minors:
        g = gcd(g, x)
    return g == 1


def lower_bound_d2(n: int) -> int:
    """ceil(sqrt(3n)) - 2, the proven degree-2 diameter lower bound."""
    return isqrt(3 * n - 1) + 1 - 2
