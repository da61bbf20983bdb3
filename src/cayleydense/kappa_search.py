"""Exhaustive minimum-diameter search over all groups of a given order.

kappa(d, n) ranges over every invariant-factor chain of order n and every
d-subset of nonzero elements; non-generating sets are detected by the BFS
itself (it fails to reach the whole group). Reductions are exact digraph
symmetries only, so the minimum is never approximated:

  * units: on cyclic groups, generating sets are identified under
    multiplication by a unit. Skipping a set is sound exactly when another
    member of its orbit is still scanned, so the rule keeps every set that
    contains 1 and every set without unit elements.
  * full-listed: additionally quotient by coordinate permutations among
    equal moduli on non-cyclic groups.

A candidate's BFS (`bfs_distances` with `abort_above`) is aborted once its
level exceeds the best diameter found so far. That also aborts a candidate
whose diameter equals the running minimum, so not every minimizer is fully
evaluated. The reported witness is still the lexicographically least one
regardless of worker count: each scan runs in lexicographic order, so a tie
aborted this way comes after the minimizer already held, and the merge
across groups and shards keeps the least of the scanned minimizers.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

from .abelian import InvariantFactors, enumerate_groups
from .cayley import CayleyDigraph, bfs_distances, successor_table
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


def cache_put(path: str | Path, record: KappaRecord) -> None:
    KappaCache(path).put(record)


def cache_get(path: str | Path, d: int, n: int, settings: dict) -> KappaRecord | None:
    return KappaCache(path).get(d, n, settings)


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
    """
    n = group.order
    cyclic = _is_cyclic_chain(group)
    units = _unit_values(n) if cyclic and symmetry in ("units", "full-listed") else None
    perm_maps = (
        _coordinate_permutation_maps(group)
        if (not cyclic and symmetry == "full-listed")
        else []
    )
    tables: dict[int, list[int]] = {}

    def table_for(idx: int) -> list[int]:
        tbl = tables.get(idx)
        if tbl is None:
            tbl = successor_table(group, group.element(idx))
            tables[idx] = tbl
        return tbl

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
        dist = bfs_distances(group, None, [table_for(i) for i in idxs], best_k)
        if dist is None:
            continue
        k = max(dist)
        if best_k is None or k < best_k:
            best_k, best_gens = k, idxs
        elif k == best_k and (best_gens is None or idxs < best_gens):
            best_gens = idxs
        if stop_at is not None and best_gens is not None and best_k <= stop_at:
            return best_k, best_gens, True
    if best_gens is None:
        return None, None, False  # nothing beat (or matched) the incoming hint here
    return best_k, best_gens, False


def _scan_task(args):
    moduli, d, symmetry, bound_hint, first = args
    group = InvariantFactors(moduli)
    k, gens, _ = _scan_group(group, d, symmetry, bound_hint, first=first)
    return k, gens


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
    groups = enumerate_groups(spec.n, spec.d)
    target = lower_bound(spec.d, spec.n)
    best: tuple[int, tuple[int, ...], InvariantFactors] | None = None

    if spec.effective_prune or spec.worker_count == 1:
        stop_at = target if spec.effective_prune else None
        for group in groups:
            hint = best[0] if best else None
            k, gens, hit = _scan_group(
                group, spec.d, spec.symmetry_level, hint, stop_at=stop_at
            )
            if k is not None and (
                best is None
                or k < best[0]
                or (k == best[0] and (tuple(group), gens) < (tuple(best[2]), best[1]))
            ):
                best = (k, gens, group)
            if hit:
                break
    else:
        jobs = [
            (tuple(group), spec.d, spec.symmetry_level, first)
            for group in groups
            for first in range(1, spec.n)
        ]
        with ProcessPoolExecutor(max_workers=spec.worker_count) as pool:
            wave = max(1, 4 * spec.worker_count)
            while jobs:
                batch, jobs = jobs[:wave], jobs[wave:]
                hint = best[0] if best else None
                args = [(m, d, s, hint, f) for (m, d, s, f) in batch]
                for (m, _, _, _), (k, gens) in zip(batch, pool.map(_scan_task, args)):
                    if k is None:
                        continue
                    if (
                        best is None
                        or k < best[0]
                        or (k == best[0] and (m, gens) < (tuple(best[2]), best[1]))
                    ):
                        best = (k, gens, InvariantFactors(m))

    if best is None:
        raise InternalConsistencyError(f"no generating set found for d={spec.d}, n={spec.n}")
    k, gens, group = best
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
        if spec_template is None:
            spec = SearchSpec(d=d, n=n)
        else:
            spec = SearchSpec(
                d=d,
                n=n,
                prune_with_lower_bound=spec_template.prune_with_lower_bound,
                symmetry_level=spec_template.symmetry_level,
                worker_count=spec_template.worker_count,
                conjectural_prune=spec_template.conjectural_prune,
            )
        rec = kappa(spec, cache=cache)
        rows.append((n, rec.kappa - lower_bound(d, n)))
    return rows
