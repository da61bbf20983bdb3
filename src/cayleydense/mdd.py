"""Minimum distance diagrams: construction, verification, dilation, L-shapes.

A diagram for Cay(G, {g1, ..., gd}) is a set of n lattice points in N^d
(each standing for a unit cube) such that phi(a) = a1*g1 + ... + ad*gd hits
every group element exactly once, the set is downward closed, and each
point's 1-norm equals the BFS distance of its image.

Many diagrams can serve one digraph; `build_mdd` returns a canonical one.
Each element is represented by its graded-lex least word: the
lexicographically least point among those of minimal 1-norm mapping to it.
Graded lex is a term order, so these points form a downward-closed set (the
staircase of a monomial ideal, in the view of Gomez-Perez, Gutierrez and
Ibeas, SIAM J. Discrete Math. 21, 2007) and one pass in BFS order over the
n vertices and d generators finds them all, in O(n*d).

Diameter convention: the diagram's own diameter is measured at the far
corner of each cube, so it exceeds the max point norm by d. This module
only ever exposes that quantity as `solid_diameter` (= d + max point norm
= digraph diameter + d) to keep the off-by-d trap out of the API.

A digraph is proper when every dilate of it exists (`is_proper`), which is
when its stored lifts form a unimodular matrix. Whenever a dilate exists,
`dilate_mdd` gives a diagram of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .abelian import GroupElement
from .cayley import CayleyDigraph, bfs_distances, dilate_digraph, successor_table
from .errors import InternalConsistencyError
from .zmatrix import Matrix, is_unimodular


@dataclass(frozen=True)
class Mdd:
    """Lattice point set plus the digraph it was built for (dumb container)."""

    points: frozenset[tuple[int, ...]]
    source: CayleyDigraph


@dataclass(frozen=True)
class LShape:
    """Planar diagram L(l, h, w, y): an l x h rectangle missing a w x y corner."""

    l: int
    h: int
    w: int
    y: int

    def __post_init__(self):
        if not (0 <= self.w < self.l and 0 <= self.y < self.h):
            raise ValueError(f"invalid L-shape parameters {self}")
        if (self.l - self.y) * (self.h - self.w) < 0:
            raise ValueError(f"sides of {self} cannot interlock")
        if self.l == self.y and self.h == self.w:
            raise ValueError(f"both side differences vanish in {self}")

    @property
    def area(self) -> int:
        return self.l * self.h - self.w * self.y

    def cubes(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x, y)
            for x in range(self.l)
            for y in range(self.h)
            if x < self.l - self.w or y < self.h - self.y
        )

    def __str__(self) -> str:
        return f"L({self.l},{self.h},{self.w},{self.y})"


def phi(g: CayleyDigraph, a: tuple[int, ...]) -> GroupElement:
    """Group element a1*g1 + ... + ad*gd for a lattice point a in N^d."""
    group = g.group
    if len(a) != group.rank:
        raise ValueError("lattice point rank does not match the digraph")
    out = group.zero()
    for coeff, gen in zip(a, g.normalized_gens):
        if coeff:
            out = group.add(out, group.scalar_mul(coeff, gen))
    return out


def build_mdd(g: CayleyDigraph) -> Mdd:
    """The graded-lex diagram: each element's lex least word of minimal norm.

    rep(0) = 0, and rep(x) is the lexicographic minimum of rep(x - g_i) + e_i
    over the generators i with dist(x - g_i) = dist(x) - 1. One pass over the
    vertices in BFS order offers rep(v) + e_i to every successor one level
    further out, so the build is O(n*d) on top of a single BFS.

    The recurrence is exact because graded lex is compatible with
    translation: if rep(x)_i > 0, then rep(x) - e_i reaches x - g_i with norm
    dist(x) - 1, and a lex smaller word there plus e_i would beat rep(x), so
    rep(x) - e_i = rep(x - g_i). Hence rep(x) is among the offered
    candidates, and every point's lower neighbours are in the set.
    """
    group = g.group
    n = group.order
    tables = [successor_table(group, t) for t in g.normalized_gens]
    dist = bfs_distances(group, g.normalized_gens, tables)
    if dist is None:
        raise InternalConsistencyError(f"BFS does not reach every vertex of {g}")
    rep: list[tuple[int, ...] | None] = [None] * n
    rep[0] = (0,) * g.degree
    for v in sorted(range(n), key=dist.__getitem__):
        a = rep[v]
        level = dist[v] + 1
        for i, tbl in enumerate(tables):
            w = tbl[v]
            if dist[w] == level:
                b = a[:i] + (a[i] + 1,) + a[i + 1 :]
                if rep[w] is None or b < rep[w]:
                    rep[w] = b
    # copied from a set, the frozenset is sized to fit; grown from a list it
    # can take twice the memory, and callers keep many diagrams alive
    return Mdd(points=frozenset(set(rep)), source=g)


def verify_mdd(h: Mdd) -> bool:
    """Check all three diagram conditions with one set of successor tables.

    The tables drive a fresh BFS for the distances and also map the points
    to the group. After the count, rank and sign checks, the points are
    walked in norm order, which gives each point's group index without phi:
    idx(0) = 0 and idx(a) = tables[i][idx(a - e_i)] for any i with a_i > 0.
    Every lower neighbour a - e_i has norm one less, so it is in the set
    exactly when it was already walked; looking it up checks downward
    closure and gives its index. phi(a) = phi(a - e_i) + g_i makes the walk
    exact. Injectivity and norm = BFS distance are checked on those indices.
    """
    g = h.source
    group = g.group
    d = group.rank
    pts = h.points
    if len(pts) != group.order:
        return False
    if any(len(a) != d or min(a) < 0 for a in pts):
        return False
    tables = [successor_table(group, t) for t in g.normalized_gens]
    dist = bfs_distances(group, None, tables)
    if dist is None:
        raise InternalConsistencyError(f"BFS does not reach every vertex of {g}")
    index: dict[tuple[int, ...], int] = {}
    seen = [False] * group.order
    for a in sorted(pts, key=sum):
        idx = 0
        for i, x in enumerate(a):
            if x:
                below = index.get(a[:i] + (x - 1,) + a[i + 1 :])
                if below is None:
                    return False
                idx = tables[i][below]
        if seen[idx] or dist[idx] != sum(a):
            return False
        seen[idx] = True
        index[a] = idx
    return True


def solid_diameter(h: Mdd) -> int:
    """d + max point norm; equals the digraph diameter plus d."""
    return h.source.degree + max(sum(a) for a in h.points)


def dilate_mdd(h: Mdd, m: int) -> Mdd:
    """Replace every cube by an m x ... x m block; dilate the source alongside."""
    if m < 1:
        raise ValueError(f"dilation factor must be >= 1, got {m}")
    if m == 1:
        return h
    d = h.source.degree
    pts = frozenset(
        tuple(m * x + o for x, o in zip(a, offs))
        for a in h.points
        for offs in product(range(m), repeat=d)
    )
    return Mdd(points=pts, source=dilate_digraph(h.source, m))


def extract_lshape(h: Mdd) -> LShape:
    """Unique (l, h, w, y) whose cube set equals the planar diagram.

    Rectangles are normalized to w = y = 0. Failure here signals a bug:
    planar diagrams are always L-shapes or rectangles.
    """
    if h.source.degree != 2:
        raise ValueError("L-shape extraction requires a degree-2 diagram")
    pts = h.points
    width = max(a[0] for a in pts) + 1
    heights = [0] * width
    for a in pts:
        heights[a[0]] += 1
    levels = sorted(set(heights), reverse=True)
    if len(levels) == 1:
        shape = LShape(width, levels[0], 0, 0)
    elif len(levels) == 2:
        high, low = levels
        w = heights.count(low)
        shape = LShape(width, high, w, high - low)
        if heights != [high] * (width - w) + [low] * w:
            raise ValueError("point set is not an L-shape")
    else:
        raise ValueError("point set is not an L-shape")
    if shape.cubes() != pts:
        raise ValueError("point set is not an L-shape")
    return shape


def _same_cube_parametrizations(shape: LShape) -> list[LShape]:
    """All (l, h, w, y) with the same cube set; rectangles have many."""
    if shape.w and shape.y:
        return [shape]
    out = []
    for w in range(shape.l):
        try:
            out.append(LShape(shape.l, shape.h, w, 0))
        except ValueError:
            pass
    for y in range(1, shape.h):
        try:
            out.append(LShape(shape.l, shape.h, 0, y))
        except ValueError:
            pass
    return out


def _conditions_hold(shape: LShape, g: CayleyDigraph) -> bool:
    group = g.group
    a, b = g.normalized_gens
    if shape.area != group.order:
        return False
    if gcd(gcd(shape.l, shape.h), gcd(shape.w, shape.y)) != group[0]:
        return False
    if group.scalar_mul(shape.l, a) != group.scalar_mul(shape.y, b):
        return False
    if group.scalar_mul(shape.w, a) != group.scalar_mul(shape.h, b):
        return False
    return (shape.l - shape.y) * (shape.h - shape.w) >= 0 and not (
        shape.l == shape.y and shape.h == shape.w
    )


def lshape_validate(shape: LShape, g: CayleyDigraph) -> bool:
    """The five arithmetic conditions tying a candidate L-shape to a digraph.

    A rectangle keeps its cube set under any (w, 0) or (0, y) parameter
    choice but the side conditions see those parameters, so the normalized
    form is accepted if any equivalent parametrization satisfies them.
    """
    if g.degree != 2:
        raise ValueError("L-shape validation requires a degree-2 digraph")
    return any(_conditions_hold(p, g) for p in _same_cube_parametrizations(shape))


def lshape_solid_diameter(shape: LShape) -> int:
    return shape.l + shape.h - min(shape.w, shape.y)


def lshape_tessellation_matrix(shape: LShape) -> Matrix:
    """Basis [(l, -y), (-w, h)] of the translation lattice tiling the plane."""
    return ((shape.l, -shape.w), (-shape.y, shape.h))


def is_proper(g: CayleyDigraph) -> bool:
    """Whether every dilate of g exists: the stored lifts are unimodular.

    Let T hold the stored lifts as columns. If |det T| = 1, T maps Z^d onto
    Z^d and so onto every quotient; the lifts generate the group of every
    dilate. Otherwise some prime p divides det T (any p when det T = 0). The
    p-th dilate's group maps onto Z^d/pZ^d, where the lifts become the
    columns of T mod p; that matrix is singular, so they do not generate and
    the p-th dilate does not exist.
    """
    return is_unimodular(g.gens)  # rows of T^T; transposing keeps det
