"""Cayley digraph values, BFS distances and diameters, solid density, dilation.

A digraph is (group, generators). Generators are stored as the integer
vectors they were given as, not eagerly reduced: dilation reuses the same
coordinate vectors over the scaled group, and (-1, 3) over Z_3+Z_24 and
over Z_6+Z_48 are different residues of the same lift. All arithmetic
reduces on use. So a dilate exists only when the lifts generate the scaled
group, and every dilate exists exactly when the lifts, as the columns of a
matrix, are unimodular (`mdd.is_proper`).

`bfs_distances` is the one BFS that computes distances; elements are
indexed mixed-radix, last coordinate fastest, and `successor_table` maps
each index to the index of its sum with a generator. Distances are
searched once per digraph value (`CayleyDigraph.distances`), so a
digraph's diameter, its diagram's build and the diagram's verification
share one search, and so does an equal digraph made again, such as the
dilate `mdd.dilate_mdd` makes. A small memo keyed by the group and the
reduced generators holds the last DISTANCE_CACHE_SIZE values searched.
`bfs_distances` itself stays uncached: a census calls it once on each of
thousands of distinct sets, which no memo would serve. Successor tables are
immutable tuples shared by every caller through one least-recently-used
cache of TABLE_CACHE_SIZE tables, so a digraph's own tables always fit
together and memory stays bounded by that many tables of the largest
group in use. The kappa search
indexes elements the same way but keeps vertex sets as n-bit ints and
grows balls instead: B_L(S) = B_L(S minus g) | (B_L-1(S) + g) for any g
in S, which is exact because the group is Abelian, so every shortest word
can list its copies of g last.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .abelian import GroupElement, InvariantFactors, generates
from .errors import InternalConsistencyError


@dataclass(frozen=True)
class CayleyDigraph:
    group: InvariantFactors
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.group, InvariantFactors):
            object.__setattr__(self, "group", InvariantFactors(self.group))
        gens = tuple(tuple(t) for t in self.gens)
        for t in gens:
            for x in t:
                if type(x) is not int:  # no truncated floats, no bools
                    raise ValueError(f"generator entries must be integers, got {x!r}")
        object.__setattr__(self, "gens", gens)
        d = self.group.rank
        if len(self.gens) != d:
            raise ValueError(
                f"need {d} generators for a rank-{d} carrier, got {len(self.gens)}"
            )
        reduced = [self.group.reduce(t) for t in self.gens]
        zero = self.group.zero()
        if zero in reduced:
            raise ValueError("generators must be nonzero in the group")
        if len(set(reduced)) != len(reduced):
            raise ValueError("generators must be pairwise distinct in the group")
        if not generates(self.group, reduced):
            raise ValueError("generators do not generate the group")

    @classmethod
    def from_cyclic(cls, n: int, steps: Sequence[int]) -> "CayleyDigraph":
        """Cay(Z_n, steps) carried over the padded chain (1, ..., 1, n)."""
        d = len(steps)
        group = InvariantFactors((1,) * (d - 1) + (n,))
        gens = tuple((0,) * (d - 1) + (t,) for t in steps)
        return cls(group, gens)

    @property
    def degree(self) -> int:
        return len(self.gens)

    @property
    def order(self) -> int:
        return self.group.order

    @cached_property
    def normalized_gens(self) -> tuple[GroupElement, ...]:
        return tuple(self.group.reduce(t) for t in self.gens)

    @cached_property
    def distances(self) -> tuple[int, ...]:
        """BFS distance from the identity to each element, by mixed-radix index.

        Searched once per digraph value: digraphs with the same group and
        reduced generators share one search through a memo of the
        DISTANCE_CACHE_SIZE values searched last, so the dilate that
        `mdd.dilate_mdd` makes shares the BFS of an equal dilate made
        before it. `bfs_distances` itself keeps no cache: a census calls it
        once on each of thousands of distinct sets.
        """
        return _distances(self.group, self.normalized_gens)

    def to_literal(self) -> dict:
        return {"moduli": list(self.group), "gens": [list(t) for t in self.gens]}

    @classmethod
    def from_literal(cls, literal: dict | str) -> "CayleyDigraph":
        if isinstance(literal, str):
            literal = json.loads(literal)
        return cls(
            InvariantFactors(literal["moduli"]),
            tuple(tuple(t) for t in literal["gens"]),
        )

    def __str__(self) -> str:
        mods = "+".join(f"Z{m}" for m in self.group)
        gens = ",".join("(" + ",".join(str(x) for x in t) + ")" for t in self.gens)
        return f"Cay({mods},{{{gens}}})"


@dataclass(frozen=True)
class DistanceProfile:
    """Exact BFS distances from the identity to every group element."""

    group: InvariantFactors
    distances: tuple[int, ...]

    def __post_init__(self):
        if len(self.distances) != self.group.order or min(self.distances) < 0:
            raise ValueError("profile must cover the whole group")

    def of(self, elem: Sequence[int]) -> int:
        return self.distances[self.group.index(self.group.reduce(elem))]

    @property
    def max_distance(self) -> int:
        return max(self.distances)

    def items(self) -> Iterator[tuple[GroupElement, int]]:
        for idx, dist in enumerate(self.distances):
            yield self.group.element(idx), dist


# Successor tables kept, least recently used first out: a census of every
# pair in a group of order 65 (64 nonzero elements) still builds each once.
TABLE_CACHE_SIZE = 64


def successor_table(group: InvariantFactors, gen: Sequence[int]) -> tuple[int, ...]:
    """Dense successor map v -> index(element(v) + gen), as a mixed-radix product.

    Indices are mixed-radix with the last coordinate fastest, so the table
    over a prefix of the coordinates extends to the next coordinate (modulus
    s, shift x) as tbl' = [t*s + (y + x) % s for t in tbl for y in range(s)]:
    addition is coordinatewise with no carry, so the prefix of v + gen is the
    successor of v's prefix and its last digit is v's digit shifted. Starting
    from [0] for the empty prefix, one pass per coordinate gives exactly the
    table that adding gen to every element and re-indexing gives, with
    integer arithmetic only and no tuple built per vertex. The shift is
    reduced first, so unreduced and negative lifts give the same table.

    The table is an immutable tuple shared with every other caller that asks
    for the same group and entries; the TABLE_CACHE_SIZE tables used last
    are kept, whatever their size.
    """
    return _build_table(group, tuple(map(operator.index, gen)))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _build_table(group: InvariantFactors, gen: tuple[int, ...]) -> tuple[int, ...]:
    if len(gen) != group.rank:
        raise ValueError(f"element has {len(gen)} coordinates, group has rank {group.rank}")
    tbl = [0]
    for x, s in zip(gen, group):
        x %= s
        shifted = [*range(x, s), *range(x)]  # y -> (y + x) % s
        tbl = shifted if tbl == [0] else [t * s + y for t in tbl for y in shifted]
    return tuple(tbl)


# Distance tuples kept, least recently used first out. Sized for re-use
# within one dilating step, where `mdd.dilate_mdd` remakes the dilate the
# step has just searched; memory stays bounded by that many tuples of the
# largest group in use.
DISTANCE_CACHE_SIZE = 8


@lru_cache(maxsize=DISTANCE_CACHE_SIZE)
def _distances(group: InvariantFactors, gens: tuple[GroupElement, ...]) -> tuple[int, ...]:
    dist = bfs_distances(group, gens)
    if dist is None:  # unreachable: construction already checked generation
        raise InternalConsistencyError(f"BFS from {gens} does not reach every vertex of {group}")
    return tuple(dist)


def bfs_distances(
    group: InvariantFactors, gens: Sequence[GroupElement]
) -> list[int] | None:
    """Distances from 0 to all vertices, or None when gens do not generate."""
    n = group.order
    tables = [successor_table(group, t) for t in gens]
    dist = [-1] * n
    dist[0] = 0
    seen = 1
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for tbl in tables:
                w = tbl[v]
                if dist[w] < 0:
                    dist[w] = level
                    nxt.append(w)
                    seen += 1
        frontier = nxt
    if seen < n:
        return None
    return dist


def distance_profile(g: CayleyDigraph) -> DistanceProfile:
    """The digraph's distances, searched once per digraph value (`CayleyDigraph.distances`)."""
    return DistanceProfile(g.group, g.distances)


def diameter(g: CayleyDigraph) -> int:
    """Max BFS distance from the identity; vertex-transitivity covers all roots."""
    return max(g.distances)


def solid_density(g: CayleyDigraph) -> Fraction:
    """Exact n / (k+d)^d for order n, diameter k, degree d."""
    k = diameter(g)
    d = g.degree
    return Fraction(g.order, (k + d) ** d)


def dilate_digraph(g: CayleyDigraph, m: int, strict: bool = False) -> CayleyDigraph:
    """Same generator coordinate vectors over the group with each modulus times m.

    The m-th dilate exists when the stored lifts generate the scaled group,
    and then k(mG) = m(k+d) - d; a dilate that does not exist raises
    ValueError. Strict mode also refuses g unless every dilate exists, which
    is when the lifts are unimodular (`mdd.is_proper`).
    """
    if type(m) is not int:  # no truncated floats, no bools
        raise ValueError(f"dilation factor must be an int, not {m!r}")
    if m < 1:
        raise ValueError(f"dilation factor must be >= 1, got {m}")
    if strict:
        from .mdd import is_proper  # deferred: mdd depends on this module

        if not is_proper(g):
            raise ValueError(
                f"the lifts of {g} are not unimodular; refusing strict dilation"
            )
    if m == 1:
        return g
    group = InvariantFactors(tuple(m * s for s in g.group))
    try:
        return CayleyDigraph(group, g.gens)
    except ValueError:  # lifts nonzero and distinct mod s stay so mod m*s
        mods = "+".join(f"Z{s}" for s in group)
        raise ValueError(
            f"{g} has no dilate by {m}: its lifts do not generate {mods}"
        ) from None


# Named digraphs: the degree-2 and degree-3 seeds whose dilates stay extremal.
_UPSILON2 = (InvariantFactors((1, 3)), ((0, 1), (1, -1)))
_UPSILON3 = (InvariantFactors((1, 1, 84)), ((1, 10, -38), (0, 1, -3), (0, -2, 7)))


def upsilon(d: int, m: int) -> CayleyDigraph:
    """m-th dilate of the extremal-density seed of degree d (d in {2, 3})."""
    if m < 1:
        raise ValueError(f"dilation factor must be >= 1, got {m}")
    if d == 2:
        group, gens = _UPSILON2
    elif d == 3:
        group, gens = _UPSILON3
    else:
        raise ValueError(f"no named family for degree {d}")
    return dilate_digraph(CayleyDigraph(group, gens), m)
