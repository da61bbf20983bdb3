"""Exhaustive minimum-diameter search over all groups of a given order.

kappa(d, n) is the least diameter of Cay(G, S) over every Abelian group G
of order n and every generating d-set S of nonzero elements. The search
takes two passes, one for the value and a scan for the witness. At d = 1
and d = 3 the value comes from the lattice pass (below). At d = 2 it comes
from the L-shapes alone, with no ball grown: every degree-2 minimum
distance diagram is an L-shape, so kappa(2, n) and its least chain are the
least largest norm over the admissible L-shapes of area n and the least
Smith form among those that attain it (`mdd.optimal_lshapes`, which proves
both directions). The lattice pass still covers d = 2 when called directly.

The lattice pass. Cay(G, {g_1..g_d}) is Cay(Z^d/L, {e_1..e_d}) with L the
kernel of e_i -> g_i, a sublattice of index n. Each L has one lower
triangular Hermite normal form (HNF): row i is (b_i1, ..., b_i,i-1, a_i)
with a_1*...*a_d = n and 0 <= b_ij < a_j. One HNF stands for a whole
Aut(G) orbit of generating tuples, on every chain at once, and every HNF
generates. Permuting the coordinates of Z^d gives the same digraph, so the
pass lists one HNF of each permutation orbit at least: those where a_1, the
order of e_1, is the least order of an e_i, and of two HNFs that differ by
swapping coordinates 2 and 3, the one whose a_3 is not the larger or, where
the two share a diagonal, the one whose (b_32, b_21, b_31) is not the
larger. On the cyclic diagonal (n, 1, 1) it lists one HNF of each orbit:
there an HNF is Cay(Z_n, {1, p, q}) with p and q units, and of its three
normalizations, by 1, p^-1 and q^-1, each pair sorted, the least (none where
b_21 is above its inverse mod n, which `_plan` drops). It skips
the diagonals with a_1 = 1, where e_1 is 0, and a listed HNF where two e_i
coincide; no other e_i is 0, since each has order >= a_1 >= 2. `_plan` and
`_hnfs` decide all of this in closed form, before any rotation is built. A
cut HNF is the same digraph as one the pass keeps, so the cuts are exact
quotients: they change no (k, chain). The pass judges each HNF by its
balls (below) and returns k, the least diameter, together with the least
chain (in `enumerate_groups` order) that attains it. That chain is the
Smith form of the HNF basis (`zmatrix.invariant_factors`). Ties therefore
count: an HNF counts when its ball of radius best_k is the whole group,
unless the best chain is already the cyclic one, which no chain precedes.
The pass is exhaustive, with no pruning by any bound on kappa.

The pass starts from the seed Cay(Z_n, {1, ..., d}) (`_seed`), whose lattice
is an HNF of index n or in the orbit of one, so it changes no (k, chain).
At d = 1 it is the one HNF, (n), and the pass lists no diagonal.

The witness pass is one scan of that chain for the lexicographically first
d-set whose ball of radius k is the whole group. Every order takes it, after
the value pass of its degree. The scan ranges over every d-subset of nonzero
elements of the chain in lexicographic order, so its first hit is the
lexicographically least set of diameter k on the least chain that attains
k: the witness a full scan of every chain would keep, whatever --jobs is.
On the cyclic chain at k >= the seed's diameter that hit is the first set,
{1, ..., d}: the seed, which the scan returns without growing a ball.
The scan's diameter must equal k, and k must not beat the lower bound:
below a proven bound (d <= 2) that is an InternalConsistencyError, below
the conjectural one (d = 3) a ConjectureRefutation that carries the
witness. No bound on kappa ever cuts a search.

The lattice pass and the scan judge a candidate by its balls, not by a BFS.
A vertex set is an n-bit int (bit v is the element of index v), and
translating it by an element is a union of masked rotations: each element's
index moves by an offset mod n that is constant on each of a few periodic
masks. The ball B_L of a set S is the set of sums of at most L elements of
S, so S generates with diameter k exactly when B_k is the first ball that
is the whole group. The group is Abelian, so a word of length <= L in g_1..g_j
either avoids g_j or is g_j plus a word of length <= L - 1, which gives the
exact recursion

    B_L(g_1..g_j) = B_L(g_1..g_j-1) | (B_L-1(g_1..g_j) + g_j).

The balls of a prefix are built once and shared by every candidate that
starts with it. Once a ball equals the one before it stays fixed, so if
that happens before it is the whole group, the set generates a proper
subgroup.

The last element's balls stop early, by Macaulay's theorem, once they
cannot be the whole group by the radius sought (`_reach`). The sphere sizes
h(j) = |B_j| - |B_j-1| are the Hilbert function of the associated graded
ring of the group algebra filtered by word length, which is commutative
and generated in degree 1 by the d elements, so h(j+1) <= h(j)^<j>
(Macaulay, Proc. London Math. Soc. 26, 1927; Bruns and Herzog, Cohen-Macaulay
Rings, 4.2). A ball of radius L stops when |B_L| plus the most it can still
grow up to the limit is below n. The bound is a fact about every ball, not
a bound on kappa, so the abort is exact: it stops only balls that would not
have been the whole group, the search judges every candidate as before, and
a set that beats the lower bound is still found, so no refutation can hide.
A prefix's balls are shared and never stop early.

--jobs shards a search's lattice pass (none runs at d = 2) by (diagonal,
b_21) on a pool of its own, at most one worker per CPU this process may run
on. `_plan` counts the same number of HNFs for every kept b_21 of a diagonal,
and each diagonal splits into runs of b_21 of equal length, about 8 shards
per worker in all, which run largest first on a free-worker queue, at most
workers + 1 in flight. Each shard's hint is the best (k, chain) known when it
is submitted, and shards merge by one (k, chain) comparison, so the result
does not depend on the order they finish in. A pass whose shards hold fewer
than POOL_MIN_HNFS HNFs runs here on one worker, since shipping them would
cost more than they take. A `gaps` sweep may pool whole orders (`gap_table`).

Each search logs one DEBUG line on this module's logger. At d = 2 it gives
the seconds of the L-shape walk and of the witness scan, the number of
L-shapes that attain kappa and workers=1. At d = 1 and 3 it gives the
seconds of the lattice pass and of the witness scan, the HNFs the lattice
pass listed (every HNF with a_1 > 1), cut (by order, as a swap twin or as
another unit normalization on the cyclic diagonal), found degenerate,
evaluated (grew up to the whole group within the limit) and aborted
(stopped by Macaulay's bound below the limit), its number of shards and the
seconds of the slowest, and the number of processes it ran on (1 when it
ran in this process), so a traced run shows where the pass ran and whether
--jobs kept its workers evenly busy.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import time
import zlib
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, as_completed, wait
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations
from math import ceil, comb, gcd, prod
from pathlib import Path

from .abelian import InvariantFactors, _factorizations
from .cayley import CayleyDigraph, diameter
from .density import bound_violation, lower_bound
from .errors import InternalConsistencyError
from .mdd import least_chain, optimal_lshapes
from .zmatrix import invariant_factors

logger = logging.getLogger(__name__)

# A lattice pass whose shards hold fewer HNFs than this (`_shards`) runs in one
# process, whatever --jobs is: on two workers, a d = 3 pass with its own pool
# broke even near 11,000-12,700 held HNFs. Every d = 3 order to n = 90 holds
# fewer (n = 90: 10,712; n = 96: 14,262; of n <= 1024 only 100, 104 and 145 hold
# 12,000-12,700), and no d = 2 order to n = 400 holds 1,000. A sweep pools whole
# orders only if one holds this many (`gap_table`), a reuse not measured there.
POOL_MIN_HNFS = 12_000


@dataclass(frozen=True)
class SearchSpec:
    d: int
    n: int
    worker_count: int = 1

    def __post_init__(self):
        for name in ("d", "n", "worker_count"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.n <= self.d:
            raise ValueError(
                f"need n > d: {self.d} distinct nonzero generators need a group of "
                f"order at least {self.d + 1}, not {self.n}"
            )
        if self.worker_count < 1:
            raise ValueError("worker count must be positive")


@dataclass(frozen=True)
class KappaRecord:
    d: int
    n: int
    kappa: int
    witness: dict
    millis: int

    def to_json(self) -> str:
        # field by field: asdict deep-copies the witness, and vars() would keep a
        # __dict__ on every record written
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "KappaRecord":
        """The record of a line; the `settings` that older lines carry are ignored."""
        obj = json.loads(line)
        return cls(
            d=obj["d"],
            n=obj["n"],
            kappa=obj["kappa"],
            witness=obj["witness"],
            millis=obj["millis"],
        )


def _key(d: int, n: int) -> str:
    """The cache key (d, n), as JSON so that 1, 1.0 and true stay apart."""
    return json.dumps([d, n])


def _signature(st: os.stat_result) -> tuple[int, int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


class KappaCache:
    """Append-only line-delimited record store keyed by (d, n).

    The first record of a key wins, whatever settings older lines carry.
    The cache indexes its file once, mapping each key to the line of its
    first record (the line, not the parsed record), and before each lookup
    compares the file's (dev, inode, size, mtime_ns, ctime_ns) with what it
    indexed: the same means the index holds;
    a larger file is read on from the end of the last newline-terminated
    line, once the CRC-32 of the bytes before it shows them unchanged;
    anything else (shorter, another inode, the same size with another mtime
    or ctime, other bytes) is indexed again from scratch, and a missing file
    is empty. The ctime catches a replacement that carries the old mtime, as
    `cp -p` leaves it, onto a recycled inode number. This relies on the file
    being append-only: a rewrite that keeps the size within one timestamp
    tick is not seen. A last line without a newline is looked up as
    any other, but read again once the file grows. A corrupt line is skipped
    with one warning each time it is read.

    A hit is re-checked before it is returned: its witness literal must have
    order n, degree d and diameter kappa, or the lookup raises
    InternalConsistencyError naming the file and line (CLI exit 3). `put`
    holds an exclusive `fcntl.flock` on the file while it reads any new tail,
    checks for a conflicting record and appends, so records that other
    processes appended meanwhile are checked too. When the last line has no
    newline, `put` ends it before appending, so neither record is lost.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._reset()

    def _reset(self) -> None:
        self._sig: tuple[int, int, int, int, int] | None = None  # of the indexed file
        self._index: dict[str, tuple[int, str]] = {}  # key -> (line number, line)
        self._offset = 0  # bytes read up to the last newline
        self._lineno = 0  # lines read up to the last newline
        self._crc = 0  # CRC-32 of the bytes before _offset
        self._tail: dict[str, tuple[int, str]] = {}  # the line after _offset, if unterminated

    def _refresh(self) -> None:
        try:
            if _signature(os.stat(self.path)) == self._sig:
                return
            fh = self.path.open("rb")
        except FileNotFoundError:
            self._reset()
            return
        with fh:
            st = os.fstat(fh.fileno())
            old = self._sig
            if not (
                old is not None
                and st.st_size > old[2]
                and zlib.crc32(fh.read(self._offset)) == self._crc
            ):
                self._reset()
            self._sig = _signature(st)
            self._tail = {}
            fh.seek(self._offset)
            for raw in fh:
                if raw.endswith(b"\n"):
                    self._offset += len(raw)
                    self._lineno += 1
                    self._crc = zlib.crc32(raw, self._crc)
                    self._index_line(self._index, self._lineno, raw)
                else:
                    self._index_line(self._tail, self._lineno + 1, raw)

    def _index_line(self, into: dict, lineno: int, raw: bytes) -> None:
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                return
            rec = KappaRecord.from_json(line)
            key = _key(rec.d, rec.n)
        except (ValueError, KeyError, TypeError, RecursionError):
            logger.warning("skipping corrupt cache line %d in %s", lineno, self.path)
            return
        into.setdefault(key, (lineno, line))

    def _checked(self, lineno: int, line: str) -> KappaRecord:
        rec = KappaRecord.from_json(line)
        try:
            g = CayleyDigraph.from_literal(rec.witness)
            ok = g.order == rec.n and g.degree == rec.d and diameter(g) == rec.kappa
        except (ValueError, KeyError, TypeError, RecursionError):
            ok = False
        if not ok:
            raise InternalConsistencyError(
                f"cache line {lineno} of {self.path}: the witness of kappa({rec.d},{rec.n}) "
                f"= {rec.kappa} does not have order {rec.n}, degree {rec.d} and that diameter"
            )
        return rec

    def get(self, d: int, n: int) -> KappaRecord | None:
        key = _key(d, n)
        self._refresh()
        found = self._index.get(key) or self._tail.get(key)
        return None if found is None else self._checked(*found)

    def put(self, record: KappaRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
            existing = self.get(record.d, record.n)
            if existing is not None:
                if existing.kappa != record.kappa:
                    raise InternalConsistencyError(
                        f"cache already holds kappa={existing.kappa} for "
                        f"(d={record.d}, n={record.n}), refusing kappa={record.kappa}"
                    )
                return
            line = record.to_json().encode("utf-8") + b"\n"
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line  # end the last line first, or the record joins it
            fh.write(line)


def _digit_below(n: int, stride: int, modulus: int, t: int) -> int:
    """The indices whose digit of this stride and modulus is below t, as a bitset.

    They are the low t*stride bits of every modulus*stride-bit period: one
    multiplication by the repunit full // (2**(modulus*stride) - 1), so no
    mask is ever built bit by bit.
    """
    return ((1 << t * stride) - 1) * (((1 << n) - 1) // ((1 << modulus * stride) - 1))


def _parts(n: int, parts) -> tuple[tuple[int, int, int], ...]:
    """Masked rotations of the map that moves each index of a mask by its offset.

    `parts` are (mask, offset) pairs whose masks partition the n indices. An
    index v of offset c goes to v + c mod n, so one (mask, c, n - c) part per
    offset c mod n moves its bits x to (x << c) | (x >> (n - c)), masked to the
    n indices: the bits below n - c go up by c, the rest down by n - c. Masks of
    equal offset merge, so a rotation of the whole set is a single part, and
    empty masks are dropped.
    """
    merged: dict[int, int] = {}
    for mask, c in parts:
        if mask:
            c %= n
            merged[c] = merged.get(c, 0) | mask
    return tuple((mask, c, n - c) for c, mask in merged.items())


def _rotations(group: InvariantFactors, gen) -> tuple[tuple[int, int, int], ...]:
    """Masked rotations that translate a vertex bitset of `group` by `gen`, as parts.

    Bit v of a set stands for the element of mixed-radix index v (last
    coordinate fastest, as in `successor_table`). Adding x to a digit of
    modulus s and stride w moves v by x*w when the digit is below s - x and
    by (x - s)*w otherwise, so each nonzero digit splits every mask in two;
    `_parts` then merges the masks whose offsets agree mod n.
    """
    n = group.order
    parts = [((1 << n) - 1, 0)]
    w = n
    for x, s in zip(gen, group):
        w //= s
        x %= s
        if x:
            below = _digit_below(n, w, s, s - x)
            parts = [
                part
                for mask, c in parts
                for part in ((mask & below, c + x * w), (mask & ~below, c + (x - s) * w))
            ]
    return _parts(n, parts)


def _grow_balls(below: list[int], rots, limit: int, full: int) -> list[int]:
    """Balls B_0, B_1, ... of a set of elements, given those of all but one.

    `below` lists the balls of the set without its element g (`rots` are
    g's rotations); its last entry stands for every larger radius. Every
    word of length <= L either avoids g or is g plus a word of length
    <= L - 1, so B_L = below[L] | (B_L-1 + g). The list ends at the first
    ball that is the whole group (`full`; the set generates, with diameter
    len - 1), at a ball equal to the one before (it stopped growing, so it
    is a proper subgroup and the set does not generate), or at radius
    `limit`. In each case its last entry again stands for larger radii up to
    `limit`. The search grows only the balls of a prefix with it, which are
    shared and so never stop early; `_reach` grows the last element's.
    """
    balls = [1]
    ball = 1
    top = len(below) - 1
    for level in range(1, limit + 1):
        prev = ball
        grown = below[level if level < top else top]
        for mask, up, down in rots:  # ball + g
            x = ball & mask
            grown |= (x << up) | (x >> down)
        ball = grown & full
        if ball == prev:
            break
        balls.append(ball)
        if ball == full:
            break
    return balls


@lru_cache(maxsize=4096)
def _macaulay(j: int, h: int) -> int:
    """h^<j>, Macaulay's bound on h(j + 1) given h(j) = h, for j >= 1.

    h has one expansion h = C(k_j, j) + C(k_(j-1), j-1) + ... + C(k_s, s)
    with k_j > k_(j-1) > ... > k_s >= s >= 1, found greedily (each k the
    largest with C(k, i) <= what is left), and h^<j> = C(k_j+1, j+1) + ... +
    C(k_s+1, s+1). Where h <= j every term is C(i, i) = 1, so h^<j> = h.
    """
    if h <= j:
        return h
    out = 0
    while h:
        k = j
        while comb(k + 1, j) <= h:
            k += 1
        h -= comb(k, j)
        out += comb(k + 1, j + 1)
        j -= 1
    return out


@lru_cache(maxsize=64)
def _rows(n: int, d: int, limit: int) -> list:
    """One slot per level 0..limit for `_row(n, d, level, limit)`, filled by `_reach` on
    first use. Every caller may fill a slot, since a row depends on its key alone."""
    return [None] * (limit + 1)


def _row(n: int, d: int, level: int, limit: int) -> list[int]:
    """The abort thresholds at `level` for spheres h > level, as row[h].

    A ball of radius `level` with sphere h grows by at most h_1 + ... + h_r
    over the r = limit - level levels left, with h_0 = h and
    h_t = h_(t-1)^<level+t-1> (`_macaulay`, which is monotone in h), so it
    cannot be the whole group by radius `limit` when its size is below
    n - that sum. The row has an entry for every sphere a ball can have, up to
    the C(level+d-1, d-1) words of length `level` in d generators, and holds 0
    (no abort) for h <= level, where `_reach` needs no table, and from the
    first h where no ball can abort: its size is at least level + h, and the
    sum only grows with h. A sum stops once it rules out an abort, so the
    operator is never evaluated past n. A full sphere stays full under the
    operator, so its sum is the count of words of length level+1..limit.
    """
    words = comb(level + d - 1, d - 1)
    top = min(words, n)
    row = [0] * (top + 1)
    for h in range(level + 1, top + 1):
        if h == words:
            grown = comb(limit + d, d) - comb(level + d, d)
        else:
            grown, sphere = 0, h
            for j in range(level, limit):
                if level + h + grown >= n:
                    break
                sphere = _macaulay(j, sphere)
                grown += sphere
        if level + h + grown >= n:
            break
        row[h] = n - grown
    return row


def _reach(below, rots, limit: int, full: int, n: int, d: int):
    """(radius, level): the radius at which the ball of a d-set of elements becomes
    the whole group, or None, and the level at which the loop stopped.

    `below` and `rots` are as for `_grow_balls`, which this follows level by
    level, but it keeps only the last ball, and it stops as soon as that ball
    cannot be the whole group by radius `limit`. The spheres
    h(j) = |B_j| - |B_j-1| are the Hilbert function of the associated graded
    ring of the group algebra, filtered by word length. That ring is
    commutative and generated in degree 1 by the d generators, so Macaulay's
    theorem gives h(j+1) <= h(j)^<j> (`_macaulay`), and the ball of radius
    `limit` holds at most |B_L| plus the iterated bound over the levels left.
    Where h(L) <= L, h^<j> = h for every j >= L, so the test is
    |B_L| + (limit - L)*h < n with no table; else it reads `_row`. A ball that
    stopped growing (h = 0) fails the same test. The bound is the whole
    set's, never a prefix's, and uses no bound on the diameter, so the
    radius is exactly the one `_grow_balls` implies.
    """
    ball = size = 1
    top = len(below) - 1
    rows = None
    for level in range(1, limit + 1):
        grown = below[level if level < top else top]
        for mask, up, down in rots:  # ball + g
            x = ball & mask
            grown |= (x << up) | (x >> down)
        ball = grown & full
        h = -size
        size = ball.bit_count()
        if size == n:
            return level, level
        h += size
        if h <= level:
            if size + (limit - level) * h < n:
                return None, level
            continue
        if rows is None:
            rows = _rows(n, d, limit)
        row = rows[level]
        if row is None:
            row = rows[level] = _row(n, d, level, limit)
        if size < row[h]:
            return None, level
    return None, limit


def _twin(a2: int, a3: int, b32: int) -> tuple[int, int, int, int]:
    """The (2 3) twin of the HNFs of a diagonal (a_1, a_2, a_3) with this b_32 and
    gcd(a_2, b_32) = a_3, in closed form, as (u, v, y, z): the twin of
    (b_21, b_31, b_32) is ((u*b_31 - v*b_21) mod a_1, (y*b_21 + z*b_31) mod a_1,
    z*a_3) on the same diagonal, with u = a_2/a_3, v = b_32/a_3, z = v^-1 mod u
    (0 when u = 1) and y = (1 - z*v)/u.

    Swapping coordinates 2 and 3 maps L to the lattice spanned by (a_1, 0, 0),
    (b_21, 0, a_2) and (b_31, a_3, b_32). The combination s*(b_21, 0, a_2) +
    t*(b_31, a_3, b_32) has third coordinate a_3*(s*u + t*v), and
    gcd(u, v) = 1: (s, t) = (-v, u) gives its least vector with third
    coordinate 0, (u*b_31 - v*b_21, a_2, 0), and (s, t) = (y, z) one with the
    least positive third coordinate, (y*b_21 + z*b_31, z*a_3, a_3), where
    z*a_3 < a_2 is already reduced.
    """
    u, v = a2 // a3, b32 // a3
    z = pow(v, -1, u)
    return u, v, (1 - z * v) // u, z


def _b32s(a2: int, a3: int) -> list[int]:
    """The b_32 that the swap cut keeps on a diagonal (a_1, a_2, a_3): those with
    gcd(a_2, b_32) > a_3, and those with gcd(a_2, b_32) = a_3 whose (2 3) twin
    (`_twin`) has a b_32 that is not below theirs. None at all when a_2 < a_3,
    since each gcd divides a_2."""
    return [
        b32
        for b32 in range(a2)
        if (g := gcd(a2, b32)) > a3 or g == a3 and _twin(a2, a3, b32)[3] * a3 >= b32
    ]


def _hnfs(n: int, diag: tuple[int, ...], b21s):
    """The HNFs of index n with this diagonal (d = 2 or 3) and b_21 in `b21s`
    that the lattice pass judges, given the b21s that `_plan` keeps.

    Yields (rows, rots), with rots[j] the masked rotations of e_(j+1) on
    Z^d/L. An element is its reduced x (0 <= x_i < a_i), indexed with x_1
    most significant, so x_i has stride w_i = a_(i+1)*...*a_d. e_1 adds w_1
    to every index mod n. e_j adds w_j where x_j < a_j - 1; where x_j wraps
    it subtracts row j instead, which moves the index by
    (1 - a_j)*w_j - b_j1*w_1 - ... mod n. When e_3 wraps where x_2 < b_32,
    x_2 borrows row 2 back, a further (1 + b_21)*w_1. The masks depend only
    on the diagonal and b_32, so they are built once per diagonal; the
    rotations of e_1 once per diagonal and those of e_2 once per b_21. e_3
    is three (mask, c, n - c) parts, built directly for each HNF: where x_3
    does not wrap, where it wraps alone and where it also borrows (no part
    when b_32 = 0). Across b_31 only the two wrap offsets change, and they
    are not merged even when they agree.

    The cuts are decided in closed form before any rotation is built. The
    orbit cut keeps one HNF of each coordinate-permutation orbit at least.
    Permuting the coordinates maps L to a lattice with the same quotient and
    the same generators, so the same (k, chain), and a_1 is the order of e_1
    in Z^d/L, so some member of each orbit has a_1 = the least order of an
    e_i. The cut skips an HNF where e_2 or e_3 has order below a_1. The
    orders are exact: ord(e_2) = a_2*a_1/gcd(a_1, b_21), below a_1 exactly
    when a_2 < gcd(a_1, b_21), which `_plan` decides per b_21, and, with
    g = gcd(a_2, b_32), u = a_2/g and v = b_32/g,
    ord(e_3) = a_3*u*a_1/gcd(a_1, u*b_31 - v*b_21), below a_1 exactly when
    a_3*u < gcd(a_1, u*b_31 - v*b_21), which is decided here.

    The swap cut (d = 3) keeps one of each pair of HNFs that differ by
    swapping coordinates 2 and 3, the same digraph with e_2 and e_3
    exchanged. The twin has the same a_1, a_3' = g and a_2' = a_2*a_3/g, and
    the same generator orders, so the orbit cut keeps both or neither. The
    cut skips every b_32 with g < a_3, whose twin has g' = a_3 > a_3' and is
    kept (`_b32s`); `_plan` lists no diagonal with a_2 < a_3, which keeps
    none. Where g = a_3 the twin lies on the same diagonal, with b_32' =
    z*a_3 (`_twin`): `_b32s` skips the b_32 whose twin's b_32' is below it,
    and where b_32' = b_32 the cut keeps an HNF when its (b_21, b_31) is not
    above the twin's, so exactly one of each pair.

    The cyclic cut (d = 3) replaces the swap cut's tie rule on the diagonal
    (n, 1, 1), where the orbit cut keeps only units b_21 and b_31. An HNF
    there is Cay(Z_n, {1, p, q}) with p = -b_21 and q = -b_31, and each
    member of its coordinate-permutation orbit has all three generators
    units, so lies on this diagonal, normalized by the inverse of the
    generator moved first: by 1, p^-1 or q^-1, in either order. The cut
    keeps an HNF when its (b_21, b_31) is the least of its three
    normalizations, each pair sorted, so exactly one of each orbit; the
    inverses come from one table per diagonal. As its own normalization by
    1, sorted, is (min, max), only b_31 >= b_21 can be kept (b_31 = b_21 is
    degenerate, below). The normalization by p^-1 starts with b_21^-1 mod n,
    so no HNF of a b_21 above its inverse is kept, and `_plan` drops them.

    An HNF where two e_i coincide, e_i - e_j in L, is yielded with rots None.
    A triangular solve gives: e_1 = e_2 iff a_2 = 1 and b_21 = a_1 - 1;
    e_1 = e_3 iff a_3 = 1, b_32 = 0 and b_31 = a_1 - 1; e_2 = e_3 iff
    a_3 = 1, b_32 = a_2 - 1 and b_31 = b_21.
    """
    full = (1 << n) - 1
    a1, a2 = diag[0], diag[1]
    a3 = diag[2] if len(diag) == 3 else 1
    w1, w2 = a2 * a3, a3
    e1 = _parts(n, [(full, w1)])
    below2 = _digit_below(n, w2, a2, a2 - 1)
    if len(diag) == 3:  # a degree-2 HNF has no e_3
        below3 = _digit_below(n, 1, a3, a3 - 1)
        up3 = _parts(n, [(below3, 1)])  # e_3 where x_3 does not wrap
        borrows = [(b32, (full ^ below3) & _digit_below(n, w2, a2, b32)) for b32 in _b32s(a2, a3)]
    cyclic = diag[1:] == (1, 1)  # the d = 3 diagonal (n, 1, 1)
    if cyclic:  # the orbit cut keeps units b_21 and b_31 only
        inv = [pow(x, -1, n) if gcd(x, n) == 1 else 0 for x in range(n)]
    for b21 in b21s:
        e2 = _parts(n, [(below2, w2), (full ^ below2, (1 - a2) * w2 - b21 * w1)])
        e12 = a2 == 1 and b21 == a1 - 1  # e_1 = e_2
        if len(diag) == 2:
            yield ((a1, 0), (b21, a2)), (None if e12 else (e1, e2))
            continue
        lift = (1 + b21) * w1  # x_2 borrowing row 2 back
        for b32, borrow in borrows:
            g = gcd(a2, b32)
            u, v = a2 // g, b32 // g
            cut = a3 * u < a1  # else no gcd with a_1 exceeds a_3*u
            tied = False  # the twin has this b_32 too
            if g == a3 and not cyclic:
                _, _, y, z = _twin(a2, a3, b32)
                tied = z == v
            same = ()  # the b_31 where e_3 = e_1 or e_3 = e_2
            if a3 == 1:
                same = (a1 - 1 if b32 == 0 else -1, b21 if b32 == a2 - 1 else -1)
            wrap = full ^ below3 ^ borrow
            for b31 in range(b21 if cyclic else 0, a1):
                if cut and a3 * u < gcd(a1, u * b31 - v * b21):
                    continue  # ord(e_3) < a_1
                if tied and (b21, b31) > ((u * b31 - v * b21) % a1, (y * b21 + z * b31) % a1):
                    continue  # the twin is kept
                if cyclic:  # (b_21, b_31) normalized by p^-1 and by q^-1, each sorted
                    p21, p31 = inv[b21], -b31 * inv[b21] % n
                    q21, q31 = inv[b31], -b21 * inv[b31] % n
                    by_p = (p21, p31) if p21 <= p31 else (p31, p21)
                    by_q = (q21, q31) if q21 <= q31 else (q31, q21)
                    if (b21, b31) > min(by_p, by_q):
                        continue  # another normalization is kept
                rows = ((a1, 0, 0), (b21, a2, 0), (b31, b32, a3))
                if e12 or b31 in same:
                    yield rows, None
                    continue
                c = (1 - a3 - b32 * a3 - b31 * w1) % n
                if borrow:
                    c2 = (c + lift) % n
                    e3 = up3 + ((wrap, c, n - c), (borrow, c2, n - c2))
                else:
                    e3 = up3 + ((wrap, c, n - c),)
                yield rows, (e1, e2, e3)


def _lattice_task(args):
    """(best, counts, seconds) for one shard of HNFs.

    `best` is the least (k, chain) of the incoming hint and the shard's HNFs.
    `counts` says how many HNFs `_hnfs` kept of it, how many of those it
    found degenerate, how many it evaluated (grew balls up to the whole group
    within the limit) and how many `_reach` stopped below the limit, and
    `seconds` how long the shard took. An HNF counts when its ball of radius
    best_k is the whole group, so a tie on a lesser chain wins; once the best
    chain is the cyclic one, which no chain precedes, only radius best_k - 1
    can win. The hint is at most the seed, so the limit is below n - 1 (d > 1).
    """
    started = time.monotonic()
    n, diag, b21s, best = args
    d = len(diag)
    full = (1 << n) - 1
    cyclic = _seed(n, d)[1]
    balls = [[1]] * d  # balls[j]: the balls of e_1..e_j
    held = [None] * (d - 1)  # the rotations they grew from; _hnfs shares them
    kept = degenerate = evaluated = aborted = 0
    limit = best[0] - (best[1] == cyclic)
    for rows, rots in _hnfs(n, diag, b21s):
        kept += 1
        if rots is None:  # two e_i coincide
            degenerate += 1
            continue
        j = 0
        while j < d - 1 and rots[j] is held[j]:
            j += 1
        for t in range(j, d - 1):  # best only falls, so held balls stay deep enough
            balls[t + 1] = _grow_balls(balls[t], rots[t], limit, full)
            held[t] = rots[t]
        radius, level = _reach(balls[-1], rots[-1], limit, full, n, d)
        if radius is None:
            aborted += level < limit
            continue
        evaluated += 1
        candidate = (radius, invariant_factors(rows))
        if candidate < best:
            best = candidate
            limit = radius - (best[1] == cyclic)
    counts = {"kept": kept, "degenerate": degenerate, "evaluated": evaluated, "aborted": aborted}
    return best, counts, time.monotonic() - started


def _plan(n: int, d: int):
    """The diagonals of the lattice pass, as (diag, b21s, per): none at d = 1.

    A diagonal with a_1 = 1 is not listed (e_1 is in L), nor one where the
    swap cut keeps no b_32 (a_2 < a_3). Of the others, only the b_21 that
    survive the orbit cut's closed form, a_2 >= gcd(a_1, b_21), are kept,
    and on (n, 1, 1) only those not above their inverse mod n, of which the
    cyclic cut keeps no HNF: `_hnfs` lists the HNFs of these b21s and no
    others. `per` bounds how many HNFs each kept b_21 holds, a_1 per b_32
    that `_b32s` keeps at d = 3 and one at d = 2, counting the HNFs that
    `_hnfs` cuts HNF by HNF.
    """
    plan = []
    for diag in _factorizations(n, d):
        if diag[0] == 1 or d == 1:  # e_1 is in L, or the one HNF, (n), is the seed
            continue
        a1, a2 = diag[0], diag[1]
        per = a1 * len(_b32s(a2, diag[2])) if d == 3 else 1
        b21s = [b21 for b21 in range(a1) if per and a2 >= gcd(a1, b21)]
        if diag[1:] == (1, 1):  # d = 3, every b_21 a unit
            b21s = [b21 for b21 in b21s if b21 <= pow(b21, -1, a1)]
        if b21s:
            plan.append((diag, b21s, per))
    return plan


def _held(plan) -> int:
    """How many HNFs the shards of a `_plan` hold in all."""
    return sum(per * len(b21s) for _, b21s, per in plan)


def _shards(n: int, d: int, workers: int):
    """The shards (diag, b21s) of the lattice pass, largest first, and
    the workers they are cut for: one when the shards hold fewer than
    POOL_MIN_HNFS HNFs in all, since shipping them would cost more than they
    take, else `workers`.

    A shard holds consecutive kept b_21 of one diagonal (`_plan`), each
    counted as `per` HNFs. A diagonal splits into runs of equal length (to
    one b_21) that hold about 1/(8*workers) of the HNFs in shards each, or
    one b_21 where that holds more, so the shards that run last are small.
    """
    plan = _plan(n, d)
    held = _held(plan)
    if held < POOL_MIN_HNFS:
        workers = 1
    size = held / (8 * workers)
    shards = []
    for diag, b21s, per in plan:
        count = min(len(b21s), ceil(per * len(b21s) / size))
        cuts = [-(-len(b21s) * i // count) for i in range(count + 1)]
        shards += [(per * (hi - lo), diag, b21s[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    shards.sort(key=lambda shard: -shard[0])  # stable: equal sizes keep diagonal order
    return [(diag, b21s) for _, diag, b21s in shards], workers


def _run_here(fn, arg) -> Future:
    """fn(arg) run in this process, as a completed future."""
    future = Future()
    future.set_result(fn(arg))
    return future


def _pool_size(worker_count: int) -> int:
    """The processes a search of `worker_count` workers may run on: no more than
    the CPUs in this process's affinity mask (or the machine's, with no mask),
    since a pool under the fork start method forks all its workers at its first
    submit, and more than the CPUs only queue for them."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(worker_count, cpus or 1)


def _seed(n: int, d: int) -> tuple[int, tuple[int, ...]]:
    """(k, chain) of Cay(Z_n, {1, ..., d}): x in Z_n is a sum of ceil(x/d) steps of
    at most d, so the diameter is ceil((n-1)/d), on the chain (1, ..., 1, n)."""
    return -(-(n - 1) // d), (1,) * (d - 1) + (n,)


def _lattice_pass(n: int, d: int, workers: int):
    """(k, chain), the least diameter of the seed (`_seed`) and every HNF of index n
    with the least chain attaining it, and the pass's counts: the HNFs listed,
    every HNF of a diagonal with a_1 > 1 (the product of a_i^(d-i): 1 at
    d = 1, a_1 at d = 2, a_1*a_1*a_2 at d = 3), those cut (listed but not kept
    by `_hnfs`; the seed (n) at d = 1), the shards' degenerate, evaluated and
    aborted HNFs summed, the number of shards, the seconds of the slowest and
    the number of processes the pass ran on.

    The shards (`_shards`) run largest first, each hinted with the best
    (k, chain) known when it is submitted: on a pool opened here, workers + 1
    in flight, where `_shards` plans more than one worker, else here."""
    shards, workers = _shards(n, d, workers)
    listed = sum(prod(map(pow, a, range(d - 1, -1, -1))) for a in _factorizations(n, d) if a[0] > 1)
    totals = Counter(listed=listed, cut=listed, kept=0, degenerate=0, evaluated=0, aborted=0)
    totals["shards"] = len(shards)
    shards.reverse()  # pop() takes the largest first
    best = _seed(n, d)
    slowest = 0.0
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        submit, in_flight = (pool.submit, workers + 1) if workers > 1 else (_run_here, 1)
        pending = set()
        while shards or pending:
            while shards and len(pending) < in_flight:
                diag, b21s = shards.pop()
                pending.add(submit(_lattice_task, (n, diag, b21s, best)))
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                found, counts, seconds = future.result()
                totals.update(counts)
                slowest = max(slowest, seconds)
                best = min(best, found)
    totals["cut"] -= totals.pop("kept")
    return best, {**totals, "slowest_shard_s": slowest, "workers": workers}


def _witness(group: InvariantFactors, d: int, k: int):
    """(k', gens): the lexicographically first d-set of this chain whose ball of
    radius k is the whole group, with its diameter k' <= k, or None.

    Sets come in lexicographic order. The balls of each proper prefix of the
    current set are kept in `balls` and shared by every set that starts with
    it; the sets that share a prefix come one after another. The last
    element's balls are `_reach`'s, which stop a set once Macaulay's bound
    shows its ball of radius k cannot be the whole group. On the seed's chain,
    with n > d and k at least its diameter, the hit is the first set, the
    seed's {1, ..., d}, returned with no ball grown.
    """
    n = group.order
    seed_k, cyclic = _seed(n, d)
    if n > d and group == cyclic and k >= seed_k:
        return seed_k, tuple(range(1, d + 1))
    full = (1 << n) - 1
    rotations: list = [None] * n  # per element index, built on first use

    def rots_of(idx: int):
        rots = rotations[idx]
        if rots is None:
            rots = rotations[idx] = _rotations(group, group.element(idx))
        return rots

    balls = [[1]] * d  # balls[j]: the balls of the set's first j elements
    held = (0,) * (d - 1)  # the prefix they belong to; 0 is in no set, so all differ
    for idxs in combinations(range(1, n), d):
        prefix = idxs[:-1]
        if prefix != held:
            j = 0
            while prefix[j] == held[j]:
                j += 1
            for t in range(j, d - 1):
                balls[t + 1] = _grow_balls(balls[t], rots_of(idxs[t]), k, full)
            held = prefix
        radius = _reach(balls[d - 1], rots_of(idxs[-1]), k, full, n, d)[0]
        if radius is not None:
            return radius, idxs
    return None


def kappa(spec: SearchSpec, cache: KappaCache | None = None) -> KappaRecord:
    """Exact minimum diameter over all groups and generating sets of (d, n).

    The value and its least chain come from the L-shapes at d = 2
    (`mdd.optimal_lshapes`), in this process, and from the lattice pass at
    d = 1 and 3, on `spec.worker_count` workers but no more than the CPUs
    this process may run on (`_pool_size`). The witness scan of that chain
    must find a set of exactly that diameter, or the search raises
    InternalConsistencyError. A diameter below the lower bound raises
    InternalConsistencyError where the bound is proven (d <= 2) and
    ConjectureRefutation where it is conjectural (d = 3).
    """
    if cache is not None:
        hit = cache.get(spec.d, spec.n)
        if hit is not None:
            return hit
    started = time.monotonic()
    target = lower_bound(spec.d, spec.n)
    stats = {}  # seconds per pass and the value pass's counts, logged once
    clock = time.monotonic()
    if spec.d == 2:
        k, shapes = optimal_lshapes(spec.n)
        value = k, least_chain(spec.n, shapes)
        stats.update(lshape_s=time.monotonic() - clock, shapes=len(shapes), workers=1)
    else:
        value, counts = _lattice_pass(spec.n, spec.d, _pool_size(spec.worker_count))
        stats["lattice_s"] = time.monotonic() - clock
        stats.update(counts)
    clock = time.monotonic()
    group = InvariantFactors(value[1])
    found = _witness(group, spec.d, value[0])
    stats["witness_s"] = time.monotonic() - clock
    logger.debug(
        "kappa(%d,%d) search: %s",
        spec.d,
        spec.n,
        " ".join(f"{key}={round(val, 3)}" for key, val in stats.items()),
    )

    if found is None or found[0] != value[0]:
        raise InternalConsistencyError(
            f"the {'L-shapes give' if spec.d == 2 else 'lattice pass gives'} "
            f"kappa({spec.d},{spec.n}) = {value[0]} on {value[1]}, but the scan of that "
            "chain disagrees"
        )
    k, gens = found
    witness = CayleyDigraph(group, tuple(group.element(i) for i in gens))
    if k < target:
        raise bound_violation(witness, f"kappa({spec.d},{spec.n}) = {k} below", target)
    record = KappaRecord(
        d=spec.d,
        n=spec.n,
        kappa=k,
        witness=witness.to_literal(),
        millis=int((time.monotonic() - started) * 1000),
    )
    if cache is not None:
        cache.put(record)
    return record


def gap_table(
    d: int,
    n_from: int,
    n_to: int,
    worker_count: int = 1,
    cache: KappaCache | None = None,
) -> list[tuple[int, int]]:
    """Per-order gaps kappa(d, n) - lower_bound(d, n) over an order range, in n order.

    Every order's SearchSpec is checked before any cache read. This process alone
    reads `cache`, and appends each record as its search ends. Missed orders run
    as 1-worker `kappa`s, largest `_held` first, on one pool of more than one
    worker (`_pool_size`) if the largest holds POOL_MIN_HNFS HNFs but no more
    than a worker's share of all; else here in n order, on `worker_count` each,
    as at d = 2, where no lattice pass runs and no held count is computed."""
    if n_to < n_from:
        raise ValueError("empty order range")
    specs = [SearchSpec(d=d, n=n, worker_count=worker_count) for n in range(n_from, n_to + 1)]
    records = {spec.n: None if cache is None else cache.get(d, spec.n) for spec in specs}
    missed = [spec for spec in specs if records[spec.n] is None]
    workers = _pool_size(worker_count)
    held = {spec.n: _held(_plan(spec.n, d)) for spec in missed} if workers > 1 and d != 2 else {}
    pooled = held and POOL_MIN_HNFS <= max(held.values()) <= sum(held.values()) / workers
    pool = ProcessPoolExecutor(max_workers=workers) if pooled else None
    try:
        if pool is None:
            searched = map(kappa, missed)
        else:
            largest = sorted(held, key=held.get, reverse=True)
            futures = [pool.submit(kappa, SearchSpec(d=d, n=n)) for n in largest]
            searched = (future.result() for future in as_completed(futures))
        for rec in searched:
            records[rec.n] = rec
            if cache is not None:
                cache.put(rec)
    finally:  # on a raise, the orders the pool has not started never start
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [(n, rec.kappa - lower_bound(d, n)) for n, rec in records.items()]
