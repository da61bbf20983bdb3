"""Exact integer linear algebra: Smith normal form with unimodular witnesses.

Everything runs on arbitrary-precision Python ints; matrices are row-major
tuples of tuples. The elimination is deterministic: pivots are the nonzero
entries of least absolute value in the working minor, ties broken by
column-major scan order, and pivot rows are sign-normalized as they settle
so the final diagonal is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import InvariantFactors

Matrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix dimensions do not match")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def scale(m: Sequence[Sequence[int]], t: int) -> Matrix:
    """Entrywise t*M for t >= 1; scaling commutes with the normal form."""
    if t < 1:
        raise ValueError(f"scale factor must be >= 1, got {t}")
    return tuple(tuple(t * x for x in row) for row in m)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [[int(x) for x in row] for row in m]
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
    return sign * a[n - 1][n - 1]


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


def _eliminate(rows: list[list[int]], track: bool):
    """Shared elimination core; returns (rows, U, V) with U/V None when untracked."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)] if track else None
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)] if track else None
    a = rows

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]

    def swap_rows(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        if track:
            u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        if track:
            for row in v:
                row[j], row[k] = row[k], row[j]

    def add_row(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        if track:
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        if track:
            for row in v:
                row[dst] += q * row[src]

    steps = min(r, c)
    for t in range(steps):
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
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q, rem = divmod(a[i][t], p)
                    if q:
                        add_row(i, t, -q)
                    if rem:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q, rem = divmod(a[t][j], p)
                    if q:
                        add_col(j, t, -q)
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
            add_row(t, bad, 1)
    return a, u, v


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Smith normal form S = U*M*V with |det U| = |det V| = 1 and s_i | s_{i+1}.

    Deterministic for a fixed input; a singular M yields trailing zeros on
    the diagonal of S.
    """
    d = len(m)
    if any(len(row) != d for row in m):
        raise ValueError("Smith normal form requires a square matrix here")
    rows = [[int(x) for x in row] for row in m]
    a, u, v = _eliminate(rows, track=True)
    return SnfDecomposition(S=freeze(a), U=freeze(u), V=freeze(v))


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith form of a (possibly rectangular) integer matrix."""
    rows = [[int(x) for x in row] for row in m]
    if not rows:
        return ()
    a, _, _ = _eliminate(rows, track=False)
    return tuple(a[i][i] for i in range(min(len(a), len(a[0]))))


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
    if det(m) == 0:
        raise ValueError("matrix must be nonsingular")
    dec = smith_normal_form(m)
    group = InvariantFactors(dec.invariant_factors)
    d = len(dec.U)
    gens = tuple(tuple(dec.U[i][j] for i in range(d)) for j in range(d))
    return group, gens

