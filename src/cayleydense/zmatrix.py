"""Exact integer linear algebra: Smith normal form with unimodular witnesses.

Everything runs on arbitrary-precision Python ints; matrices are row-major
tuples of tuples, and an entry of any other type (float, bool, str) is a
`ValueError`, never truncated. The Smith form of an r x c matrix M is one
elimination of the working matrix `[[M | I_r], [I_c]]`: row operations span
the first r rows and column operations the first c columns, so the right
block ends as U and the bottom block as V. Pivots are the nonzero entries
of least absolute value in the working minor, ties broken by column-major
scan order, and pivot rows are sign-normalized as they settle so the final
diagonal is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .abelian import InvariantFactors

Matrix = tuple[tuple[int, ...], ...]


def _int_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """A mutable copy of m, which must be rectangular with int entries (no truncated floats, no bools)."""
    rows = [list(row) for row in m]
    if len(set(map(len, rows))) > 1 or not {int}.issuperset(map(type, chain.from_iterable(rows))):
        raise ValueError(f"matrix must be rectangular with integer entries, got {m!r}")
    return rows


def identity(d: int) -> Matrix:
    if type(d) is not int or d < 0:
        raise ValueError(f"identity size must be an integer >= 0, got {d!r}")
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    a, b = _int_rows(a), _int_rows(b)
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix dimensions do not match")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def scale(m: Sequence[Sequence[int]], t: int) -> Matrix:
    """Entrywise t*M for an int t >= 1; scaling commutes with the normal form."""
    if type(t) is not int or t < 1:
        raise ValueError(f"scale factor must be an integer >= 1, got {t!r}")
    return tuple(tuple(t * x for x in row) for row in _int_rows(m))


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = _int_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1  # the 0 x 0 matrix: the empty product


def is_unimodular(m: Sequence[Sequence[int]]) -> bool:
    return abs(det(m)) == 1


@dataclass(frozen=True)
class SnfDecomposition:
    """Diagonal S together with unimodular U, V satisfying S = U*M*V."""

    S: Matrix
    U: Matrix
    V: Matrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(len(self.S)))


def _eliminate(a: list[list[int]], r: int, c: int) -> list[list[int]]:
    """Diagonalize the top-left r x c block of `a` in place, s_i | s_{i+1}.

    Row operations act on the first r rows across their full width, column
    operations on the first c columns down every row, so blocks to the right
    of and below the r x c block record them (module docstring).
    """
    for t in range(min(r, c)):
        while True:
            # smallest |entry| in the working minor, column-major tie order
            best = None
            for j in range(t, c):
                for i in range(t, r):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
                if best and best[0] == 1:
                    break
            if best is None:
                break  # minor is zero; trailing invariant factors are 0
            _, bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q, rem = divmod(a[i][t], p)
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if rem:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q, rem = divmod(a[t][j], p)
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if rem:
                        dirty = True
            if dirty:
                continue
            # row/column t are clear; force p to divide the whole minor
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return a


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Smith normal form S = U*M*V with |det U| = |det V| = 1 and s_i | s_{i+1}.

    Deterministic for a fixed input; a singular M yields trailing zeros on
    the diagonal of S.
    """
    rows = _int_rows(m)
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise ValueError("Smith normal form requires a square matrix here")
    unit = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    a = _eliminate([row + e for row, e in zip(rows, unit)] + unit, d, d)
    return SnfDecomposition(
        S=tuple(tuple(row[:d]) for row in a[:d]),
        U=tuple(tuple(row[d:]) for row in a[:d]),
        V=tuple(map(tuple, a[d:])),
    )


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith form of a (possibly rectangular) integer matrix."""
    rows = _int_rows(m)
    if not rows:
        return ()
    r, c = len(rows), len(rows[0])
    _eliminate(rows, r, c)
    return tuple(rows[i][i] for i in range(min(r, c)))


def proper_generating_set(
    m: Sequence[Sequence[int]],
) -> tuple[InvariantFactors, tuple[tuple[int, ...], ...]]:
    """Group and generating vectors derived from a lattice basis matrix.

    The group is read off the diagonal of the Smith form and the generators
    are the columns of the witness U, returned as integer vectors (their
    classes modulo the group are what matter; the integer lifts are the
    canonical representatives used for dilation). U is unimodular, so every
    dilate of the resulting digraph exists.
    """
    dec = smith_normal_form(m)
    if 0 in dec.invariant_factors:
        raise ValueError("matrix must be nonsingular")
    return InvariantFactors(dec.invariant_factors), tuple(zip(*dec.U))
