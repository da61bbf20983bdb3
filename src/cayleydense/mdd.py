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
Ibeas, SIAM J. Discrete Math. 21, 2007). A walk over the columns (the points
that share all but their last coordinate), in lex order of the columns and
up each column, meets the points in lex order, so the first word of minimal
norm to reach an element is its least one, and each column ends at its
first point that is no such word. So one walk finds them all, in O(n*d),
with no sort and no backtracking. `verify_mdd` walks a given diagram's own
columns with the same walk, climbing each exactly to its height.

Diameter convention: the diagram's own diameter is measured at the far
corner of each cube, so it exceeds the max point norm by d. This module
only ever exposes that quantity as `solid_diameter` (= d + max point norm
= digraph diameter + d) to keep the off-by-d trap out of the API.

A digraph is proper when every dilate of it exists (`is_proper`), which is
when its stored lifts form a unimodular matrix. Whenever a dilate exists,
`dilate_mdd` gives a diagram of it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from math import gcd, isqrt
from operator import itemgetter

from .abelian import GroupElement
from .cayley import CayleyDigraph, dilate_digraph, successor_table
from .zmatrix import Matrix, is_unimodular

_PREFIX = itemgetter(slice(None, -1))  # a point's column: all but its last coordinate
_LAST = itemgetter(-1)


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
        if any(type(x) is not int for x in (self.l, self.h, self.w, self.y)):
            raise ValueError(f"L-shape parameters must be ints, not {self}")  # no floats, no bools
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
        """The full-height columns x < l - w, then the w columns of height h - y."""
        cut = self.l - self.w
        full = product(range(cut), range(self.h))
        return frozenset(chain(full, product(range(cut, self.l), range(self.h - self.y))))

    def __str__(self) -> str:
        return f"L({self.l},{self.h},{self.w},{self.y})"


def phi(g: CayleyDigraph, a: tuple[int, ...]) -> GroupElement:
    """Group element a1*g1 + ... + ad*gd for a lattice point a in N^d."""
    group = g.group
    if len(a) != group.rank:
        raise ValueError("lattice point rank does not match the digraph")
    out = group.zero()
    for coeff, gen in zip(a, g.normalized_gens):
        out = group.add(out, group.scalar_mul(coeff, gen))  # refuses a coeff that is no int
    return out


def _walk(
    g: CayleyDigraph, heights: dict[tuple[int, ...], int] | None = None
) -> set[tuple[int, ...]] | bool:
    """The column walk of `build_mdd` and `verify_mdd`.

    A point (p, j) has prefix p (all but its last coordinate) and height j.
    The prefixes are visited in lex order, an odometer that counts each
    coordinate up from 0 until its first empty column and then carries into
    the coordinate before it. A prefix's start index phi(p, 0) takes one step
    of the successor table of the coordinate just counted up, and its column
    climbs by the last generator's table, as phi(a) = phi(a - e_i) + g_i.
    On a downward-closed set the walk visits every column: once the column
    of (p_1, ..., p_i, 0, ..., 0) is empty, so is that of every prefix that
    starts (p_1, ..., p_i') with p_i' >= p_i.

    With no heights, a column climbs while its point's norm is its image's
    distance and no earlier point hit that image, and the walk returns the
    points it climbed. They are the graded-lex set S of least words. S is
    downward closed: if rep(x)_i > 0, then rep(x) - e_i has norm dist(x) - 1
    and reaches x - g_i, and a lex smaller word there plus e_i would beat
    rep(x), so rep(x) - e_i = rep(x - g_i). Every point with a lex smaller
    prefix is lex smaller, and two points of one column differ in norm, so
    the words of one norm that are lex smaller than (p, j) all lie in
    columns visited before it. By induction over the walk, the points
    climbed before (p, j) are exactly the members of S before it, so idx is
    hit iff a lex smaller word of the same norm reaches it: (p, j) is
    climbed iff it is in S. A column of S ends at its first failure, so the
    stops and carries skip no member of S.

    Given the column heights of a downward-closed set, each column climbs
    exactly to its height. The walk returns False at the first point whose
    norm is not its image's distance or whose image was hit before, and
    otherwise whether it climbed all n points.
    """
    group = g.group
    tables = [successor_table(group, t) for t in g.normalized_gens]
    climb = tables[-1]
    dist = g.distances
    hit = bytearray(group.order)
    points: set[tuple[int, ...]] = set()
    climbed = 0
    top = g.degree - 1  # prefix coordinates 0, ..., top - 1
    prefix = [0] * top
    starts = [0] * (top + 1)  # starts[i]: index of p's first i coordinates, then 0s
    base = 0  # |p|
    i = top  # the coordinate last counted up; none before the first column
    while True:
        idx = starts[top]
        norm = base
        if heights is None:  # build: climb to the first point that fails
            while dist[idx] == norm and not hit[idx]:
                hit[idx] = 1
                idx = climb[idx]
                norm += 1
            if norm > base:
                points.update(product(*zip(prefix), range(norm - base)))
        else:  # verify: climb to the column's height, failing on any bad point
            end = base + heights.get(tuple(prefix), 0)
            while norm < end:
                if hit[idx] or dist[idx] != norm:
                    return False
                hit[idx] = 1
                idx = climb[idx]
                norm += 1
            climbed += norm - base
        if norm > base:
            i = top - 1
        else:  # the first column of a count of coordinate i: carry
            base -= prefix[i]
            prefix[i] = 0
            i -= 1
        if i < 0:
            return points if heights is None else climbed == group.order
        prefix[i] += 1
        base += 1
        start = starts[i + 1] = tables[i][starts[i + 1]]
        for t in range(i + 2, top + 1):
            starts[t] = start


def build_mdd(g: CayleyDigraph) -> Mdd:
    """The graded-lex diagram: each element's lex least word of minimal norm.

    One column walk (`_walk`), O(n*d) on top of the digraph's one BFS
    (`CayleyDigraph.distances`), with no sort and no candidate word.
    """
    # copied from a set, the frozenset is sized to fit; grown from a list it
    # can take twice the memory, and callers keep many diagrams alive
    return Mdd(points=frozenset(_walk(g)), source=g)


def verify_mdd(h: Mdd) -> bool:
    """Check all three diagram conditions against the source's distances.

    The count, rank, integer type and sign of the points are checked first,
    by passes over the whole set. The points are then taken as columns: the
    points that share a prefix p (all but the last coordinate) form the
    column of p, of height k(p). Downward closure along the last coordinate
    holds exactly when every column's last coordinates are 0, ..., k(p) - 1.
    They are distinct and nonnegative, so that is when their sum over the
    whole set is the sum of k(p)(k(p) - 1)/2, the least it can be. Along a
    coordinate i of p, closure holds exactly when p - e_i has a column at
    least as high as p's.

    The set is then downward closed, and build's column walk (`_walk`)
    climbs each column exactly to k(p), mapping the points to the group by
    the successor tables instead of phi: it checks injectivity and norm =
    BFS distance, and accepts only the diagram's columns at their heights.
    """
    g = h.source
    group = g.group
    d = group.rank
    pts = h.points
    if len(pts) != group.order or {*map(len, pts)} != {d}:
        return False
    coords = [*chain.from_iterable(pts)]
    if {*map(type, coords)} != {int} or min(coords) < 0:
        return False  # no truncated floats, no bools, nothing below zero
    heights = Counter(map(_PREFIX, pts))
    if sum(map(_LAST, pts)) != sum(k * (k - 1) for k in heights.values()) // 2:
        return False
    for p, k in heights.items():
        for i, x in enumerate(p):
            if x and heights.get(p[:i] + (x - 1,) + p[i + 1 :], 0) < k:
                return False
    return _walk(g, heights)


def solid_diameter(h: Mdd) -> int:
    """d + max point norm; equals the digraph diameter plus d."""
    return h.source.degree + max(sum(a) for a in h.points)


def dilate_mdd(h: Mdd, m: int) -> Mdd:
    """Replace every cube by an m x ... x m block; dilate the source alongside."""
    source = dilate_digraph(h.source, m)  # refuses a factor that is no int >= 1
    if m == 1:
        return h
    pts = frozenset(
        chain.from_iterable(
            product(*[range(m * x, m * x + m) for x in a]) for a in h.points
        )
    )
    return Mdd(points=pts, source=source)


def extract_lshape(h: Mdd) -> LShape:
    """Unique (l, h, w, y) whose cube set equals the planar diagram.

    Read from the column heights: l columns, h the height of column 0, y = h
    less the height of the last column, w the number of columns lower than h.
    Rectangles come out as w = y = 0. Failure here signals a bug: planar
    diagrams are always L-shapes or rectangles.
    """
    if h.source.degree != 2:
        raise ValueError("L-shape extraction requires a degree-2 diagram")
    pts = h.points
    coords = [*chain.from_iterable(pts)]
    # ints only (no floats, no bools); 2n of them, so coords[::2] are the first
    # coordinates unless some point is no pair, and then no L-shape's cubes match
    if len(coords) == 2 * len(pts) and {*map(type, coords)} == {int}:
        heights = Counter(coords[::2])
        l, top = len(heights), heights[0]
        w = sum(k < top for k in heights.values())
        try:
            shape = LShape(l, top, w, top - heights[l - 1])
            if shape.cubes() == pts:
                return shape
        except ValueError:  # no L-shape has these parameters
            pass
    raise ValueError("point set is not an L-shape")


def lshape_validate(shape: LShape, g: CayleyDigraph) -> bool:
    """Whether a candidate L-shape has area n and (l, -y), (-w, h) in the lattice L
    of relations of the generators (l*a = y*b and w*a = h*b).

    Those two vectors then form a basis of L, as their determinant is the area
    n = [Z^2 : L], so gcd(l, h, w, y) is s_1 without a test; LShape itself
    checks that the sides interlock. A rectangle (w = 0 or y = 0) keeps its
    cube set under every parametrization LShape accepts, (w, 0) for
    0 <= w <= min(l - 1, h) and (0, y) for 1 <= y <= min(h - 1, l), but the
    conditions see those parameters, so it is accepted if any of them
    satisfies them.
    """
    if g.degree != 2:
        raise ValueError("L-shape validation requires a degree-2 digraph")
    group = g.group
    if shape.area != group.order:
        return False
    l, h, a, b = shape.l, shape.h, *g.normalized_gens
    if shape.w and shape.y:
        pairs = [(shape.w, shape.y)]
    else:
        pairs = [(w, 0) for w in range(min(l - 1, h) + 1)]
        pairs += [(0, y) for y in range(1, min(h - 1, l) + 1)]
    la, hb = group.scalar_mul(l, a), group.scalar_mul(h, b)
    return any(
        la == group.scalar_mul(y, b) and group.scalar_mul(w, a) == hb for w, y in pairs
    )


def lshape_solid_diameter(shape: LShape) -> int:
    return shape.l + shape.h - min(shape.w, shape.y)


def optimal_lshapes(n: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(kappa(2, n), shapes): the least largest norm l + h - 2 - min(w, y) of an
    admissible L-shape of area n, and every admissible (l, h, w, y) that has it.

    Admissible means what `LShape` accepts, 0 <= w < l, 0 <= y < h, y <= l and
    w <= h, with e_1 and e_2 nonzero and distinct in Z^2/Λ, where
    Λ = <(l, -y), (-w, h)> has index lh - wy = n. Its basis matrix
    [[l, -w], [-y, h]] (`lshape_tessellation_matrix`) has inverse
    (1/n)*[[h, w], [y, l]], and v lies in Λ exactly when that inverse times v
    is integral, so e_1 is 0 when n divides h and y, e_2 when n divides w and
    l, and e_1 = e_2 when n divides h - w and y - l.

    The least norm D is kappa(2, n) exactly.
    - kappa >= D: the minimum distance diagram of any Cay(G, {g_1, g_2}) is
      an L-shape (Fiol, Yebra, Alegre and Valero, IEEE Trans. Comput. C-36,
      1987; Esque, Aguilo and Fiol, Discrete Math. 114, 1993) whose tiling
      lattice is the lattice of relations of g_1 and g_2 (`lshape_validate`).
      So Z^2/Λ is G with e_i the g_i, which are nonzero and distinct, the
      shape is admissible, its largest norm is the diameter, and its s_1 =
      gcd(l, h, w, y) gives G's chain (s_1, n/s_1).
    - kappa <= D: an admissible L-shape tiles Z^2 by Λ, so every element of
      Z^2/Λ has a representative in it, of norm at most D, and
      Cay(Z^2/Λ, {e_1, e_2}) has diameter at most D.
    So the least chain attaining kappa(2, n) is the least (s_1, n/s_1) over
    the shapes of norm D (`least_chain`).

    The walk tries D = D_0, D_0 + 1, ... and stops at the first D with a
    shape. D_0 is the least D with C(D + 2, 2) >= n, the number of points of
    N^2 of norm <= D: a shape of area n holds n points of norm <= its
    largest, so no D below D_0 has one. For a D, m = min(w, y) and
    l + h = s = D + 2 + m, and lh = n + wy >= n + m^2 bounds l to a window
    around s/2; the other of w and y is (lh - n)/m, or, for m = 0, any
    value the interlock rules allow.
    """
    if type(n) is not int or n < 3:
        raise ValueError(f"need an int n >= 3 for two distinct nonzero generators, not {n!r}")
    D = 0
    while (D + 2) * (D + 1) // 2 < n:
        D += 1
    while True:
        shapes = []
        for m in range(D + 1):
            s = D + 2 + m
            disc = s * s - 4 * (n + m * m)  # l*(s - l) >= n + m^2 for l in a window
            if disc < 0:
                continue
            lo = max((s - isqrt(disc)) // 2, m + 1)
            while lo * (s - lo) < n + m * m:
                lo += 1
            for l in range(lo, s - lo + 1):
                h = s - l
                if m == 0:
                    if l * h != n:
                        continue
                    pairs = [(w, 0) for w in range(min(l - 1, h) + 1)]
                    pairs += [(0, y) for y in range(1, min(h - 1, l) + 1)]
                else:
                    t, r = divmod(l * h - n, m)
                    if r:
                        continue
                    pairs = [(m, t), (t, m)] if t != m else [(m, m)]
                for w, y in pairs:
                    if (
                        w < l and y < h and y <= l and w <= h
                        and (h % n or y % n)  # e_1 is not 0
                        and (w % n or l % n)  # e_2 is not 0
                        and ((h - w) % n or (y - l) % n)  # e_1 is not e_2
                    ):
                        shapes.append((l, h, w, y))
        if shapes:
            return D, shapes
        D += 1


def least_chain(n: int, shapes: list[tuple[int, int, int, int]]) -> tuple[int, int]:
    """The least Smith form (s_1, n/s_1), s_1 = gcd(l, h, w, y), over these
    L-shapes (l, h, w, y) of area n: the chain of the least Z^2/Λ."""
    s1 = min(gcd(*shape) for shape in shapes)
    return s1, n // s1


def lshape_kappa(n: int) -> tuple[int, tuple[int, int]]:
    """(kappa(2, n), chain): the least diameter of a degree-2 Cayley digraph of
    order n, and the least chain that attains it, from the L-shapes alone
    (`optimal_lshapes`), with no ball grown."""
    k, shapes = optimal_lshapes(n)
    return k, least_chain(n, shapes)


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
