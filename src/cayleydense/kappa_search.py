"""Exhaustive minimum-diameter search over all groups of a given order.

kappa(d, n) ranges over every invariant-factor chain of order n and every
d-subset of nonzero elements. Reductions are exact digraph symmetries
only, so the minimum is never approximated:

  * units: on cyclic groups, generating sets are identified under
    multiplication by a unit. Skipping a set is sound exactly when another
    member of its orbit is still scanned, so the rule keeps every set that
    contains 1 and every set without unit elements.
  * full-listed: additionally quotient by coordinate permutations among
    equal moduli on non-cyclic groups.

A candidate is judged by its balls, not by a BFS. A vertex set is an n-bit
int (bit v is the element of mixed-radix index v), and translating it by an
element is one masked rotation per nonzero coordinate. The ball B_L of a
set S is the set of sums of at most L elements of S, so S generates with
diameter k exactly when B_k is the first ball that is the whole group. The
group is Abelian, so a word of length <= L in g_1..g_j either avoids g_j or
is g_j plus a word of length <= L - 1, which gives the exact recursion

    B_L(g_1..g_j) = B_L(g_1..g_j-1) | (B_L-1(g_1..g_j) + g_j).

The balls of a prefix are built once and shared by every set that starts
with it. Once a ball equals the one before it stays fixed, so if that
happens before it is the whole group, the set generates a proper subgroup.

A candidate counts only when B_(best_k - 1) is the whole group, that is,
when its diameter is strictly below the best found so far. A candidate whose
diameter equals the running minimum is rejected too, so not every minimizer
is fully evaluated. The reported witness is still the lexicographically
least one regardless of worker count: each scan runs in lexicographic order,
so a tie rejected this way comes after the minimizer already held, and the
merge across groups and shards keeps the least of the scanned minimizers.

One loop runs every search over shards (moduli, first), in chain order: a
whole chain per shard on one worker, one per chain and least element on a
pool of several. Shards run in waves (one shard, or 4 x workers), and each
wave's hint is the least diameter found before it, so the merge of one
(k, moduli, gens) comparison sees every tie inside a wave. A pruned search
stops at its first hit on the bound, so it always runs on one worker.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

from .abelian import InvariantFactors, enumerate_groups
from .cayley import CayleyDigraph
from .density import is_conjectural, lower_bound
from .errors import ConjectureRefutation, InternalConsistencyError

logger = logging.getLogger(__name__)

SYMMETRY_LEVELS = ("none", "units", "full-listed")


@dataclass(frozen=True)
class SearchSpec:
    d: int
    n: int
    prune_with_lower_bound: bool = True
    symmetry_level: str = "units"
    worker_count: int = 1
    conjectural_prune: bool = False  # opt-in: lets d=3 prune against the conjectural bound

    def __post_init__(self):
        if self.n < 2 or self.d < 1:
            raise ValueError("need n >= 2 and d >= 1")
        if self.symmetry_level not in SYMMETRY_LEVELS:
            raise ValueError(f"unknown symmetry level {self.symmetry_level!r}")
        if self.worker_count < 1:
            raise ValueError("worker count must be positive")

    @property
    def effective_prune(self) -> bool:
        """The bound may cut the search only when it is proven (or opted into)."""
        if not self.prune_with_lower_bound:
            return False
        return not is_conjectural(self.d) or self.conjectural_prune

    def settings(self) -> dict:
        return {
            "symmetry": self.symmetry_level,
            "prune": self.effective_prune,
        }


@dataclass(frozen=True)
class KappaRecord:
    d: int
    n: int
    kappa: int
    witness: dict
    settings: dict
    millis: int

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "n": self.n,
            "kappa": self.kappa,
            "witness": self.witness,
            "settings": self.settings,
            "millis": self.millis,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "KappaRecord":
        obj = json.loads(line)
        return cls(
            d=obj["d"],
            n=obj["n"],
            kappa=obj["kappa"],
            witness=obj["witness"],
            settings=obj["settings"],
            millis=obj["millis"],
        )


def _settings_key(d: int, n: int, settings: dict) -> str:
    return json.dumps([d, n, settings], sort_keys=True, separators=(",", ":"))


class KappaCache:
    """Append-only line-delimited record store keyed by (d, n, settings)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _iter_records(self):
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield KappaRecord.from_json(line)
                except (json.JSONDecodeError, KeyError, TypeError):
                    logger.warning(
                        "skipping corrupt cache line %d in %s", lineno, self.path
                    )

    def get(self, d: int, n: int, settings: dict) -> KappaRecord | None:
        key = _settings_key(d, n, settings)
        for rec in self._iter_records():
            if _settings_key(rec.d, rec.n, rec.settings) == key:
                return rec
        return None

    def put(self, record: KappaRecord) -> None:
        existing = self.get(record.d, record.n, record.settings)
        if existing is not None:
            if existing.kappa != record.kappa:
                raise InternalConsistencyError(
                    f"cache already holds kappa={existing.kappa} for "
                    f"(d={record.d}, n={record.n}), refusing kappa={record.kappa}"
                )
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")


def _unit_values(n: int) -> list[bool]:
    return [gcd(v, n) == 1 for v in range(n)]


def _is_cyclic_chain(group: InvariantFactors) -> bool:
    return all(s == 1 for s in group[:-1])


def _coordinate_permutation_maps(group: InvariantFactors) -> list[list[int]]:
    """Index permutations induced by permuting coordinates with equal moduli."""
    d = group.rank
    blocks: dict[int, list[int]] = {}
    for i, s in enumerate(group):
        if s > 1:
            blocks.setdefault(s, []).append(i)
    swappable = [idxs for idxs in blocks.values() if len(idxs) > 1]
    if not swappable:
        return []
    maps = []
    base = list(range(d))
    perm_sets = [list(permutations(idxs)) for idxs in swappable]

    def build(level: int, assignment: list[int]) -> None:
        if level == len(perm_sets):
            if assignment == base:
                return
            table = [0] * group.order
            for idx in range(group.order):
                e = group.element(idx)
                table[idx] = group.index(tuple(e[assignment[i]] for i in range(d)))
            maps.append(table)
            return
        idxs = swappable[level]
        for perm in perm_sets[level]:
            nxt = assignment[:]
            for src, dst in zip(idxs, perm):
                nxt[src] = dst
            build(level + 1, nxt)

    build(0, base)
    return maps


def _rotations(group: InvariantFactors, gen) -> tuple[tuple[int, int, int, int], ...]:
    """Masked rotations that translate a vertex bitset by `gen`.

    Bit v of a set stands for the element of mixed-radix index v (last
    coordinate fastest, as in `successor_table`). Adding x to a coordinate of
    modulus s and stride w moves v up by x*w when v's digit there is below
    s - x, and down by (s - x)*w otherwise. `lo` marks the first kind: the low
    (s - x)*w bits of every s*w-bit period, one multiplication by the repunit
    full // (2**(s*w) - 1), so no mask is ever built bit by bit.
    """
    full = (1 << group.order) - 1
    rots = []
    w = group.order
    for x, s in zip(gen, group):
        w //= s
        x %= s
        if x:
            lo = ((1 << (s - x) * w) - 1) * (full // ((1 << s * w) - 1))
            rots.append((lo, full ^ lo, x * w, (s - x) * w))
    return tuple(rots)


def _translate(bits: int, rots) -> int:
    """The vertex set `bits` shifted by the element whose `_rotations` are `rots`."""
    for lo, hi, up, down in rots:
        bits = ((bits & lo) << up) | ((bits & hi) >> down)
    return bits


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
    `limit`.
    """
    balls = [1]
    ball = 1
    top = len(below) - 1
    for level in range(1, limit + 1):
        prev = ball
        ball = _translate(ball, rots) | below[level if level < top else top]
        if ball == prev:
            break
        balls.append(ball)
        if ball == full:
            break
    return balls


def _scan_group(
    group: InvariantFactors,
    d: int,
    symmetry: str,
    bound_hint: int | None,
    first: int | None = None,
    stop_at: int | None = None,
):
    """Scan candidate sets for one group; returns (best_k, best_gens, hit_stop).

    `first` restricts to sets whose least element index is `first` (the
    parallel work unit). `stop_at` makes the scan return as soon as a set
    achieving that diameter is found (sequential pruned mode only).

    A set counts only if its ball of radius best_k - 1 is the whole group.
    The balls of each proper prefix of the current set are kept in `balls`
    and shared by every set that starts with it; `combinations` yields those
    sets one after another.
    """
    n = group.order
    cyclic = _is_cyclic_chain(group)
    units = _unit_values(n) if cyclic and symmetry in ("units", "full-listed") else None
    perm_maps = (
        _coordinate_permutation_maps(group)
        if (not cyclic and symmetry == "full-listed")
        else []
    )
    full = (1 << n) - 1
    rotations: list = [None] * n  # per element index, built on first use

    def rots_of(idx: int):
        rots = rotations[idx]
        if rots is None:
            rots = rotations[idx] = _rotations(group, group.element(idx))
        return rots

    balls = [[1]] * d  # balls[j]: the balls of the set's first j elements
    held = (0,) * (d - 1)  # the prefix they belong to; 0 is in no set, so all differ
    best_k = bound_hint
    best_gens: tuple[int, ...] | None = None
    if first is None:
        pools = combinations(range(1, n), d)
    else:
        pools = (
            (first,) + rest for rest in combinations(range(first + 1, n), d - 1)
        )
    for idxs in pools:
        if units is not None and 1 not in idxs and any(units[i] for i in idxs):
            continue  # the orbit member containing 1 is scanned instead
        if perm_maps and any(
            tuple(sorted(pm[i] for i in idxs)) < idxs for pm in perm_maps
        ):
            continue
        limit = n - 1 if best_k is None else best_k - 1
        prefix = idxs[:-1]
        if prefix != held:
            j = 0
            while prefix[j] == held[j]:
                j += 1
            for t in range(j, d - 1):  # best_k only falls, so these stay deep enough
                balls[t + 1] = _grow_balls(balls[t], rots_of(idxs[t]), limit, full)
            held = prefix
        reach = _grow_balls(balls[d - 1], rots_of(idxs[-1]), limit, full)
        if reach[-1] != full:
            continue  # does not generate, or no better than best_k
        best_k, best_gens = len(reach) - 1, idxs
        if stop_at is not None and best_k <= stop_at:
            return best_k, best_gens, True
    if best_gens is None:
        return None, None, False  # nothing beat the incoming hint here
    return best_k, best_gens, False


def _scan_task(args):
    return _scan_group(*args)  # (group, d, symmetry, bound_hint, first, stop_at)


def _witness_record(group: InvariantFactors, idxs: tuple[int, ...]) -> dict:
    g = CayleyDigraph(group, tuple(group.element(i) for i in idxs))
    return g.to_literal()


def kappa(spec: SearchSpec, cache: KappaCache | None = None) -> KappaRecord:
    """Exact minimum diameter over all groups and generating sets of (d, n)."""
    settings = spec.settings()
    if cache is not None:
        hit = cache.get(spec.d, spec.n, settings)
        if hit is not None:
            return hit
    started = time.monotonic()
    target = lower_bound(spec.d, spec.n)
    stop_at = target if spec.effective_prune else None
    workers = 1 if spec.effective_prune else spec.worker_count
    firsts = [None] if workers == 1 else range(1, spec.n)
    shards = [(group, first) for group in enumerate_groups(spec.n, spec.d) for first in firsts]
    wave = 1 if workers == 1 else 4 * workers
    best: tuple[int, InvariantFactors, tuple[int, ...]] | None = None  # (k, group, gens)
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        run = map if pool is None else pool.map
        for start in range(0, len(shards), wave):
            batch = shards[start : start + wave]
            hint = best[0] if best else None
            tasks = [(g, spec.d, spec.symmetry_level, hint, f, stop_at) for g, f in batch]
            for (group, _), (k, gens, hit) in zip(batch, run(_scan_task, tasks)):
                if k is not None and (best is None or (k, group, gens) < best):
                    best = (k, group, gens)
            if hit:  # only a pruned search hits, and it runs one shard per wave
                break

    if best is None:
        raise InternalConsistencyError(f"no generating set found for d={spec.d}, n={spec.n}")
    k, group, gens = best
    if k < target:
        if is_conjectural(spec.d):
            raise ConjectureRefutation(
                f"kappa({spec.d},{spec.n}) = {k} beats the conjectural bound {target}",
                witness=_witness_record(group, gens),
            )
        raise InternalConsistencyError(
            f"kappa({spec.d},{spec.n}) = {k} below the proven bound {target}"
        )
    record = KappaRecord(
        d=spec.d,
        n=spec.n,
        kappa=k,
        witness=_witness_record(group, gens),
        settings=settings,
        millis=int((time.monotonic() - started) * 1000),
    )
    if cache is not None:
        cache.put(record)
    return record


def gap_table(
    d: int,
    n_from: int,
    n_to: int,
    spec_template: SearchSpec | None = None,
    cache: KappaCache | None = None,
) -> list[tuple[int, int]]:
    """Per-order gaps kappa(d, n) - lower_bound(d, n) over an order range."""
    if n_to < n_from:
        raise ValueError("empty order range")
    rows = []
    for n in range(n_from, n_to + 1):
        spec = replace(spec_template or SearchSpec(d=d, n=2), d=d, n=n)
        rec = kappa(spec, cache=cache)
        rows.append((n, rec.kappa - lower_bound(d, n)))
    return rows
