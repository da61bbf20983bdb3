"""Finite Abelian groups in invariant-factor form.

A group is carried as its full modulus chain (s1, ..., sd) with
s1 | s2 | ... | sd, keeping factors equal to 1 so that the chain length
always matches the ambient rank (Z_1 + Z_1 + Z_16 is a rank-3 carrier).
Elements are plain integer tuples, reduced coordinatewise into [0, si).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

GroupElement = tuple[int, ...]


class InvariantFactors(tuple):
    """Modulus chain (s1, ..., sd) presenting Z_s1 + ... + Z_sd."""

    __slots__ = ()

    def __new__(cls, moduli: Iterable[int]) -> "InvariantFactors":
        s = tuple(moduli)
        if not s:
            raise ValueError("modulus list must be nonempty")
        for m in s:
            if type(m) is not int:  # no truncated floats, no bools
                raise ValueError(f"modulus must be an integer, got {m!r}")
            if m <= 0:
                raise ValueError(f"modulus must be positive, got {m}")
        for a, b in zip(s, s[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {a} does not divide {b}")
        return super().__new__(cls, s)

    def __repr__(self) -> str:
        return f"InvariantFactors({tuple.__repr__(self)})"

    @property
    def rank(self) -> int:
        return len(self)

    @property
    def order(self) -> int:
        return prod(self)

    def zero(self) -> GroupElement:
        return (0,) * len(self)

    def _coords(self, a: Sequence[int]) -> Sequence[int]:
        """a itself, once it has the group's rank and int coordinates."""
        if len(a) != len(self):
            raise ValueError(f"element has {len(a)} coordinates, group has rank {len(self)}")
        for c in a:
            if type(c) is not int:  # no truncated floats, no bools
                raise ValueError(f"coordinates must be integers, got {c!r}")
        return a

    def reduce(self, coords: Sequence[int]) -> GroupElement:
        return tuple(c % m for c, m in zip(self._coords(coords), self))

    def add(self, a: Sequence[int], b: Sequence[int]) -> GroupElement:
        return tuple((x + y) % m for x, y, m in zip(self._coords(a), self._coords(b), self))

    def scalar_mul(self, k: int, a: Sequence[int]) -> GroupElement:
        if type(k) is not int:
            raise ValueError(f"scalar must be an integer, got {k!r}")
        return tuple((k * x) % m for x, m in zip(self._coords(a), self))

    def index(self, a: Sequence[int]) -> int:
        """Mixed-radix encoding of a (reduced) element into 0..order-1."""
        return sum(x * p for x, p in zip(self._coords(a), _places(self)))

    def element(self, idx: int) -> GroupElement:
        if type(idx) is not int:
            raise ValueError(f"index must be an integer, got {idx!r}")
        out = []
        for p, m in zip(_places(self), self):
            q, idx = divmod(idx, p)
            out.append(q % m)
        return tuple(out)


@lru_cache(maxsize=4096)
def _places(g: InvariantFactors) -> tuple[int, ...]:
    acc = 1
    places = [1] * len(g)
    for i in range(len(g) - 1, -1, -1):
        places[i] = acc
        acc *= g[i]
    return tuple(places)


def add(g: InvariantFactors, a: Sequence[int], b: Sequence[int]) -> GroupElement:
    """Coordinatewise sum reduced modulo each modulus."""
    return g.add(g.reduce(a), g.reduce(b))


def canonical_invariant_factors(moduli: Sequence[int]) -> InvariantFactors:
    """Unique divisibility chain of the same length presenting the same group.

    Computed from the Smith normal form of the diagonal matrix of the inputs,
    so e.g. (6, 4) canonicalizes to (2, 12).
    """
    from . import zmatrix  # deferred: zmatrix depends on this module's types

    ms = list(moduli)
    if not ms:
        raise ValueError("modulus list must be nonempty")
    for m in ms:
        if type(m) is not int:  # no truncated floats, no bools
            raise ValueError(f"modulus must be an integer, got {m!r}")
        if m <= 0:
            raise ValueError(f"modulus must be positive, got {m}")
    diag = [[ms[i] if i == j else 0 for j in range(len(ms))] for i in range(len(ms))]
    return InvariantFactors(zmatrix.invariant_factors(diag))


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _factorizations(n: int, d: int) -> list[tuple[int, ...]]:
    """Every (a_1, ..., a_d) of positive integers with product n, in lex order."""
    if d == 1:
        return [(n,)]
    return [(a,) + rest for a in _divisors(n) for rest in _factorizations(n // a, d - 1)]


def enumerate_groups(n: int, d: int) -> list[InvariantFactors]:
    """All length-d chains s1 | ... | sd with product n, in ascending lex order."""
    if type(n) is not int or type(d) is not int or n < 1 or d < 1:
        raise ValueError(f"order and rank must be positive integers, got {n!r}, {d!r}")
    return [
        InvariantFactors(s)
        for s in _factorizations(n, d)
        if all(b % a == 0 for a, b in zip(s, s[1:]))
    ]


def generates(g: InvariantFactors, gens: Sequence[Sequence[int]]) -> bool:
    """True iff the subgroup generated by the given elements is the whole group.

    Decided exactly: the d x (t+d) matrix [generator columns | diag(s)] spans
    Z^d iff all its invariant factors are 1.
    """
    from . import zmatrix  # deferred: zmatrix depends on this module's types

    if not gens:
        raise ValueError("at least one generator required")
    cols = [g.reduce(t) for t in gens]
    d = g.rank
    rows = [
        [c[i] for c in cols] + [g[i] if j == i else 0 for j in range(d)]
        for i in range(d)
    ]
    return all(f == 1 for f in zmatrix.invariant_factors(rows))
