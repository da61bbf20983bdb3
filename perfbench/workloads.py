"""The four benchmark workloads: inputs, one timed pass, and its correctness checks.

Each workload has the same shape:
  setup(cd)      builds inputs from the seed, seeds caches and warms up (timed as setup_s,
                 the median of `setup_reps` fresh set-ups; quick set-ups repeat more often
                 so that a few milliseconds are still measured steadily)
  reference()    computes the expected outputs without cayleydense (untimed, once per run)
  run_pass(cd)   one timed pass; returns its raw outputs, exceptions included
  check(out, t)  compares a pass's outputs with the references, counting each operation

`cd` holds the freshly imported layer modules; every call goes through a
module attribute so that the tracer's rebinding takes effect. README.md
explains why each workload exists and which layer it isolates.
"""

from __future__ import annotations

import json
import random
import shutil
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import NamedTuple

import reference as ref

FULL = {
    "census2": {"orders": [3, 40]},
    "kappa3": {"runs": [[64, 1], [80, 2]]},
    "mdd_dilate": {
        "seed_order_cap": 2000,
        "random": [
            {"count": 8, "dim": 2, "diag": 6, "order_cap": 800},
            {"count": 8, "dim": 3, "diag": 3, "order_cap": 400},
        ],
    },
    "gaps_cache": {"d1_to": 1000, "d2_to": 140, "query_to": 160},
}

SMOKE = {
    "census2": {"orders": [3, 12]},
    "kappa3": {"runs": [[16, 1], [24, 2]]},
    "mdd_dilate": {
        "seed_order_cap": 300,
        "random": [
            {"count": 2, "dim": 2, "diag": 3, "order_cap": 100},
            {"count": 2, "dim": 3, "diag": 2, "order_cap": 60},
        ],
    },
    "gaps_cache": {"d1_to": 60, "d2_to": 30, "query_to": 36},
}


class Tally:
    """Operations attempted and failed; a wrong answer or an exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _call(fn, *args, **kwargs):
    """Run one operation; an exception becomes its output so the check counts it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the check records it and counts a failed operation
        return exc


class Census2:
    """Every 2-subset of nonzero elements of every rank-2 chain, through bfs_distances."""

    setup_reps = 15

    def __init__(self, size, seed, workdir, root):
        self.lo, self.hi = size["orders"]

    def setup(self, cd):
        self._pass(cd, self.lo, min(self.hi, self.lo + 5))  # warm-up on the smallest orders

    def reference(self):
        self.chains = {
            n: [(s1, n // s1) for s1 in range(1, n + 1) if n % s1 == 0 and (n // s1) % s1 == 0]
            for n in range(self.lo, self.hi + 1)
        }
        self.expected = {}
        for n, chains in self.chains.items():
            for moduli in chains:
                elems = [(x, y) for x in range(moduli[0]) for y in range(moduli[1])][1:]
                diams = []
                for a, b in combinations(elems, 2):
                    k = ref.bfs_diameter(moduli, (a, b))
                    if (k is not None) != ref.generates_rank2(moduli, a, b):
                        raise RuntimeError(f"reference BFS and gcd test disagree on {moduli} {a} {b}")
                    diams.append(k)
                self.expected[moduli] = diams

    def run_pass(self, cd):
        return self._pass(cd, self.lo, self.hi)

    def _pass(self, cd, lo, hi):
        bfs = cd.cayley.bfs_distances
        diameters = {}
        densities = {}
        for n in range(lo, hi + 1):
            best = Fraction(0)
            for group in cd.abelian.enumerate_groups(n, 2):
                elems = [group.element(i) for i in range(1, n)]
                out = []
                for pair in combinations(elems, 2):
                    dist = _call(bfs, group, pair)
                    k = max(dist) if isinstance(dist, list) else dist
                    out.append(k)
                    if isinstance(k, int):
                        best = max(best, Fraction(n, (k + 2) ** 2))
                diameters[tuple(group)] = out
            densities[n] = best
        return diameters, densities

    def check(self, out, tally):
        diameters, densities = out
        want_chains = {m for chains in self.chains.values() for m in chains}
        tally.op(set(diameters) == want_chains, f"census2: chains {sorted(diameters)}")
        for moduli, want in self.expected.items():
            got = diameters.get(moduli, [])
            for i, k in enumerate(want):
                g = got[i] if i < len(got) else "missing"
                tally.op(g == k, f"census2: set {i} of {moduli}: diameter {g!r}, want {k}")
        third = Fraction(1, 3)
        extremal = {n for n, dens in densities.items() if dens == third}
        tally.op(
            all(dens <= third for dens in densities.values())
            and extremal == {3, 12, 27} & set(densities),
            f"census2: density 1/3 at {sorted(extremal)}",
        )


class Kappa3:
    """kappa(3, n) sequentially and on the 2-worker process pool."""

    setup_reps = 15

    def __init__(self, size, seed, workdir, root):
        self.runs = [tuple(r) for r in size["runs"]]

    def setup(self, cd):
        ks = cd.kappa_search
        ks.kappa(ks.SearchSpec(d=3, n=8))  # warm-up

    def reference(self):
        for n, _ in self.runs:
            k, witness = ref.KAPPA3[n]
            if ref.bfs_diameter(witness["moduli"], witness["gens"]) != k:
                raise RuntimeError(f"recorded witness for kappa(3,{n}) is wrong")

    def run_pass(self, cd):
        ks = cd.kappa_search
        return [
            (n, workers, _call(ks.kappa, ks.SearchSpec(d=3, n=n, worker_count=workers)))
            for n, workers in self.runs
        ]

    def check(self, out, tally):
        for n, workers, rec in out:
            k, witness = ref.KAPPA3[n]
            ok = not isinstance(rec, Exception) and rec.kappa == k and rec.witness == witness
            if ok:  # recompute the returned witness's diameter independently
                ok = ref.bfs_diameter(rec.witness["moduli"], rec.witness["gens"]) == k
            tally.op(ok, f"kappa3: kappa(3,{n}) with {workers} workers gave {rec!r}")


class Base(NamedTuple):
    """A digraph the dilating method starts from: a paper seed or a random lattice."""

    label: str
    degree: int
    order: int
    cap: int  # the largest dilated order stepped to
    literal: tuple | None = None  # (moduli, gens) of a paper seed
    lattice: tuple | None = None  # (triangular basis, the same lattice scrambled) of a random lattice


def _factors(base: Base):
    """Dilation factors m = 1, 2, ... while the dilated order stays within the cap."""
    m = 1
    while m**base.degree * base.order <= base.cap:
        yield m
        m += 1


class MddDilate:
    """CLI tables plus the dilating method on the paper seeds and random lattices."""

    setup_reps = 10

    def __init__(self, size, seed, workdir, root):
        self.size = size
        self.seed = seed
        self.golden = {t: root / "tests" / "golden" / f"{t}.txt" for t in ("table1", "table2")}
        self.first: dict = {}

    def setup(self, cd):
        rng = random.Random(self.seed)
        self.bases = [
            Base(f"seed{i}", len(moduli), prod(moduli), self.size["seed_order_cap"], literal=(moduli, gens))
            for i, (moduli, gens) in enumerate(ref.PAPER_SEEDS)
        ]
        for spec in self.size["random"]:
            d, diag = spec["dim"], spec["diag"]
            for j in range(spec["count"]):
                lattice = _random_lattice(rng, d, diag)
                self.bases.append(Base(f"lattice{d}_{j}", d, diag**d, spec["order_cap"], lattice=lattice))
        # warm-up: table2 and one undilated step on the last base
        cd.cli.run(["table2"])
        self._steps(cd, self.bases[-1]._replace(cap=self.bases[-1].order))

    def reference(self):
        self.golden_text = {t: p.read_text() for t, p in self.golden.items()}
        self.k0 = {
            b.label: ref.bfs_diameter(*b.literal) if b.literal else ref.lattice_diameter(b.lattice[0])
            for b in self.bases
        }

    def run_pass(self, cd):
        tables = [(t, _call(cd.cli.run, [t])) for t in ("table1", "table2")]
        steps = []
        for base in self.bases:
            steps += self._steps(cd, base)
        return tables, steps

    def _steps(self, cd, base):
        cayley, mdd = cd.cayley, cd.mdd
        if base.literal:
            moduli, gens = base.literal
            g = _call(cayley.CayleyDigraph, cd.abelian.InvariantFactors(moduli), gens)
        else:
            built = _call(cd.zmatrix.proper_generating_set, base.lattice[1])
            g = built if isinstance(built, Exception) else _call(cayley.CayleyDigraph, *built)
        if isinstance(g, Exception):
            return [(base.label, 1, g)]
        out = []
        h1 = None
        for m in _factors(base):
            try:
                gm = cayley.dilate_digraph(g, m, strict=True)
                km = cayley.diameter(gm)
                h = mdd.build_mdd(gm)
                built_ok = mdd.verify_mdd(h)
                if h1 is None:
                    h1 = h
                hd = mdd.dilate_mdd(h1, m)
                dilated_ok = mdd.verify_mdd(hd)
                shape = str(mdd.extract_lshape(h)) if base.degree == 2 else ""
                out.append((base.label, m, (gm.order, km, h.points, built_ok, dilated_ok, hd.source == gm, shape)))
            except Exception as exc:  # the check records it and counts a failed operation
                out.append((base.label, m, exc))
        return out

    def check(self, out, tally):
        tables, steps = out
        for t, res in tables:
            ok = not isinstance(res, Exception) and res.exit_code == 0 and res.human == self.golden_text[t]
            tally.op(ok, f"mdd_dilate: {t} differs from tests/golden/{t}.txt")
        want_steps = sum(len(list(_factors(b))) for b in self.bases)
        tally.op(len(steps) == want_steps, f"mdd_dilate: {len(steps)} steps, want {want_steps}")
        bases = {b.label: b for b in self.bases}
        for label, m, res in steps:
            what = f"mdd_dilate: {label} m={m}"
            if isinstance(res, Exception):
                tally.op(False, f"{what}: {res!r}")
                continue
            n, km, points, built_ok, dilated_ok, same_source, shape = res
            d = bases[label].degree
            want_k = m * (self.k0[label] + d) - d
            first = self.first.setdefault((label, m), points)
            ok = (
                n == m**d * bases[label].order
                and km == want_k
                and len(points) == n
                and max(map(sum, points)) == km
                and built_ok
                and dilated_ok
                and same_source
                and (d != 2 or shape.startswith("L("))
                and points == first
            )
            tally.op(ok, f"{what}: k={km} want {want_k}, verify {built_ok}/{dilated_ok}, shape {shape}")


def _random_lattice(rng, d, diag):
    """A random upper-triangular basis with constant diagonal, and the same lattice in a scrambled basis.

    A diagonal of at least 2 keeps every e_i and e_i - e_j out of the
    lattice, so the digraph's generators are nonzero and distinct. The
    constant diagonal fixes every order, and so the work of a pass, across
    seeds; the off-diagonal entries and the scrambling vary the lattice.
    """
    tri = [[0] * d for _ in range(d)]
    for i in range(d):
        tri[i][i] = diag
        for j in range(i + 1, d):
            tri[i][j] = rng.randrange(tri[i][i])
    basis = [row[:] for row in tri]
    for _ in range(2 * d):  # unimodular column operations keep the lattice
        i, j = rng.sample(range(d), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in basis:
            row[i] += q * row[j]
    return tri, basis


class GapsCache:
    """The gaps CLI over a seeded record cache: reads for the hits, searches and appends for the misses."""

    setup_reps = 3

    def __init__(self, size, seed, workdir, root):
        self.size = size
        self.seed = seed
        self.seeded = workdir / "seeded.jsonl"
        self.copy = workdir / "pass.jsonl"
        self.d2_from = 3

    def argv(self, path, n_to):
        return ["--format", "jsonl", "gaps", "-d", "2", "--from", str(self.d2_from),
                "--to", str(n_to), "--cache", str(path), "--long-running"]

    def setup(self, cd):
        ks = cd.kappa_search
        d1 = [ks.kappa(ks.SearchSpec(d=1, n=n)).to_json() for n in range(2, self.size["d1_to"] + 1)]
        d2 = [ks.kappa(ks.SearchSpec(d=2, n=n)).to_json() for n in range(self.d2_from, self.size["d2_to"] + 1)]
        self.seeded.write_text("".join(line + "\n" for line in _spread(d1, d2, random.Random(self.seed))))
        warm = self.seeded.with_name("warm.jsonl")
        shutil.copyfile(self.seeded, warm)
        cd.cli.run(self.argv(warm, self.d2_from + 5))  # warm-up: hits only

    def want_kappa(self, d, n):
        if d == 1:
            return n - 1
        return ref.lower_bound_d2(n) + (n in ref.GAP1_ORDERS_D2)

    def reference(self):
        self.seeded_failures = [
            line for line in self.seeded.read_text().splitlines() if not self._record_ok(line)
        ]
        self.want_rows = [
            {"n": n, "gap": int(n in ref.GAP1_ORDERS_D2)}
            for n in range(self.d2_from, self.size["query_to"] + 1)
        ]
        self.want_keys = {(1, n) for n in range(2, self.size["d1_to"] + 1)} | {
            (2, n) for n in range(self.d2_from, self.size["query_to"] + 1)
        }

    def _record_ok(self, line):
        """The record's kappa is the expected one and its witness has that diameter."""
        rec = json.loads(line)
        if rec["kappa"] != self.want_kappa(rec["d"], rec["n"]):
            return False
        w = rec["witness"]
        return prod(w["moduli"]) == rec["n"] and ref.bfs_diameter(w["moduli"], w["gens"]) == rec["kappa"]

    def run_pass(self, cd):
        shutil.copyfile(self.seeded, self.copy)
        return _call(cd.cli.run, self.argv(self.copy, self.size["query_to"]))

    def check(self, res, tally):
        tally.op(not self.seeded_failures, f"gaps_cache: bad seeded records {self.seeded_failures[:3]}")
        if isinstance(res, Exception) or res.exit_code != 0:
            tally.op(False, f"gaps_cache: gaps failed: {res!r}")
            return
        rows = res.rows
        for i, want in enumerate(self.want_rows):
            got = rows[i] if i < len(rows) else None
            tally.op(got == want, f"gaps_cache: row {got}, want {want}")
        lines = self.copy.read_text().splitlines()
        keys = [(r["d"], r["n"]) for r in map(json.loads, lines)]
        searched = [line for line, (d, n) in zip(lines, keys) if d == 2 and n > self.size["d2_to"]]
        ok = (
            len(keys) == len(self.want_keys)
            and set(keys) == self.want_keys
            and all(self._record_ok(line) for line in searched)
        )
        tally.op(ok, f"gaps_cache: cache holds {len(keys)} records, want {len(self.want_keys)}")


def _spread(d1, d2, rng):
    """Seeded record order with the d=2 records spread evenly through the d=1 records.

    A cache hit costs a scan up to its record, so one d=2 record per equal
    block of d=1 records keeps the total hit cost the same for every seed.
    """
    d1, d2 = d1[:], d2[:]
    rng.shuffle(d1)
    rng.shuffle(d2)
    out = []
    for i, rec in enumerate(d2):
        block = d1[i * len(d1) // len(d2) : (i + 1) * len(d1) // len(d2)]
        at = rng.randint(0, len(block))
        out += block[:at] + [rec] + block[at:]
    return out


WORKLOADS = {"census2": Census2, "kappa3": Kappa3, "mdd_dilate": MddDilate, "gaps_cache": GapsCache}
