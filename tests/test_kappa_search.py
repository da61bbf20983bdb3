import fcntl
import hashlib
import json
import multiprocessing
import os
import random
import re
import threading
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from itertools import combinations, permutations, product
from math import comb, gcd, prod
from pathlib import Path

import pytest

from cayleydense import kappa_search
from cayleydense.abelian import InvariantFactors, _factorizations
from cayleydense.cayley import CayleyDigraph, diameter
from cayleydense.cli import main as cli_main
from cayleydense.density import lower_bound
from cayleydense.errors import ConjectureRefutation, InternalConsistencyError
from cayleydense.kappa_search import (
    KappaCache,
    KappaRecord,
    SearchSpec,
    _b32s,
    _grow_balls,
    _hnfs,
    _lattice_pass,
    _macaulay,
    _plan,
    _reach,
    _rotations,
    _seed,
    _shards,
    _twin,
    _witness,
    gap_table,
    kappa,
)
from cayleydense.mdd import lshape_kappa, optimal_lshapes
from cayleydense.zmatrix import invariant_factors
from conftest import (
    bfs_distance_oracle,
    cache_scan_oracle,
    chains_oracle,
    hnf_oracle,
    in_lattice_oracle,
    kappa_oracle,
    lattice_reduce_oracle,
    macaulay_oracle,
    mixed_radix_index,
    permuted_hnf_oracle,
    quotient_chain_oracle,
    scan_group_oracle,
    successor_table_oracle,
    translation_parts_oracle,
)


def test_kappa_fixtures():
    assert kappa(SearchSpec(d=2, n=3)).kappa == 1
    assert kappa(SearchSpec(d=2, n=72)).kappa == 13
    rec = kappa(SearchSpec(d=3, n=16))
    assert rec.kappa == 3
    witness = CayleyDigraph.from_literal(rec.witness)
    assert witness.order == 16 and witness.degree == 3
    assert diameter(witness) == 3


def test_search_spec_and_record_carry_no_prune_setting():
    """Whether a search may stop at the bound follows from d, so no setting says it."""
    assert [f.name for f in fields(SearchSpec)] == ["d", "n", "worker_count"]
    assert [f.name for f in fields(KappaRecord)] == ["d", "n", "kappa", "witness", "millis"]
    rec = kappa(SearchSpec(d=2, n=12))
    assert sorted(json.loads(rec.to_json())) == ["d", "kappa", "millis", "n", "witness"]


def test_search_spec_refuses_bad_values():
    for fields in (
        {"d": 2, "n": 2},  # n <= d: fewer than d nonzero elements
        {"d": 3, "n": 3},
        {"d": 3, "n": 1},
        {"d": 0, "n": 5},
        {"d": 2.0, "n": 12},  # floats and bools are not integers here
        {"d": 2, "n": 12.0},
        {"d": True, "n": 12},
        {"d": 2, "n": 12, "worker_count": True},
        {"d": 2, "n": 12, "worker_count": 2.0},
        {"d": 2, "n": 12, "worker_count": 0},
    ):
        with pytest.raises(ValueError):
            SearchSpec(**fields)
    assert SearchSpec(d=2, n=3).n == 3


def test_worker_count_independence(monkeypatch):
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
    base = kappa(SearchSpec(d=3, n=24, worker_count=1))
    multi = kappa(SearchSpec(d=3, n=24, worker_count=3))
    assert base.kappa == multi.kappa
    assert base.witness == multi.witness
    for d in (1, 2, 3):  # two workers shard the lattice pass of every d = 3 order
        for n in range(4, 25):
            base, multi = (kappa(SearchSpec(d=d, n=n, worker_count=w)) for w in (1, 2))
            assert (base.kappa, base.witness) == (multi.kappa, multi.witness), (d, n)


@pytest.fixture
def two_cpus(monkeypatch):
    """A search on two workers runs on two, whatever CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for the search's ProcessPoolExecutor that runs each task in this
    process and records the pool sizes opened and the tasks submitted: it
    starts no process."""
    opened, submitted = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            submitted.append(arg)
            future = Future()
            future.set_result(fn(arg))
            return future

    RecordingPool.opened, RecordingPool.submitted = opened, submitted
    monkeypatch.setattr(kappa_search, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def _held(n, d):
    """How many HNFs the shards of the lattice pass of (d, n) hold in all."""
    return sum(per * len(b21s) for _, b21s, per in _plan(n, d))


def test_process_pool_only_for_a_pass_of_pool_size(monkeypatch, two_cpus, recording_pool):
    """A pass whose shards hold fewer than POOL_MIN_HNFS HNFs submits nothing to a
    pool, at any d, whether the search opens its own or is handed one; kappa(3, 96),
    whose shards hold 14,262, runs on two workers. The rule is the same for the
    d = 2 lattice pass, which a d = 2 search never takes: such a search opens and
    submits nothing, even where its pass would use the pool. Every search gives
    the 1-worker record."""
    RecordingPool = recording_pool
    opened, submitted = RecordingPool.opened, RecordingPool.submitted
    assert _held(90, 3) == 10712 < kappa_search.POOL_MIN_HNFS <= _held(96, 3) == 14262
    assert _shards(90, 3, 2)[1] == 1 and _shards(96, 3, 2)[1] == 2  # the workers planned for
    for d, n in ((1, 30), (1, 7), (2, 30), (2, 7), (3, 30), (3, 7), (3, 16), (3, 90)):
        alone = kappa(SearchSpec(d=d, n=n))
        rec = kappa(SearchSpec(d=d, n=n, worker_count=2))
        handed = kappa(SearchSpec(d=d, n=n, worker_count=2), pool=RecordingPool(2))
        assert submitted == [] and opened == [2], (d, n)  # only the pool handed in
        assert (rec.kappa, rec.witness) == (alone.kappa, alone.witness), (d, n)
        assert (handed.kappa, handed.witness) == (alone.kappa, alone.witness), (d, n)
        opened.clear()
    alone = kappa(SearchSpec(d=3, n=96))
    assert opened == [] and submitted == []
    rec = kappa(SearchSpec(d=3, n=96, worker_count=2))
    assert opened == [2] and len(submitted) == len(_shards(96, 3, 2)[0]) > 1
    assert (rec.kappa, rec.witness) == (alone.kappa, alone.witness)
    opened.clear()
    submitted.clear()
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", _held(30, 2))
    assert _held(29, 2) < _held(30, 2)
    for n, pooled in ((29, False), (30, True)):
        alone = _lattice_pass(n, 2, 1)[0]
        value, counts = _lattice_pass(n, 2, 2)
        assert (opened, bool(submitted)) == (([2], True) if pooled else ([], False)), n
        assert counts["workers"] == (2 if pooled else 1) and value == alone, n
        opened.clear()
        submitted.clear()
        rec = kappa(SearchSpec(d=2, n=n, worker_count=2))
        assert (opened, submitted) == ([], []), n
        assert (rec.kappa, tuple(rec.witness["moduli"])) == alone, n


def test_gap_sweep_holds_one_pool(monkeypatch, two_cpus):
    """A sweep on two workers holds one pool, closed when it ends or raises. A
    sweep of small orders, below POOL_MIN_HNFS, starts no worker process in it."""
    opened, closed, started, submitted = [], [], [], []

    class CountingPool(kappa_search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            submitted.append(self)
            return super().submit(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            closed.append(self)
            started.append(len(self._processes))
            super().shutdown(*args, **kwargs)

    want = gap_table(3, 4, 40)
    want2 = gap_table(2, 3, 40)
    monkeypatch.setattr(kappa_search, "ProcessPoolExecutor", CountingPool)
    assert gap_table(3, 4, 40) == want
    assert opened == []
    for d, rows in ((2, want2), (3, want)):  # every pass below the constant
        assert gap_table(d, 3 if d == 2 else 4, 40, worker_count=2) == rows
        assert len(opened) == 1 and closed == opened, d
        assert submitted == [] and started == [0], d
        for seen in (opened, closed, started):
            seen.clear()
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
    assert gap_table(3, 4, 40, worker_count=2) == want
    assert len(opened) == 1 and closed == opened
    assert opened[0]._max_workers == 2
    assert set(submitted) == set(opened) and started[0] > 0
    search = kappa_search.kappa

    def failing(spec, cache=None, pool=None):
        if spec.n == 30:
            raise InternalConsistencyError("planted")
        return search(spec, cache=cache, pool=pool)

    monkeypatch.setattr(kappa_search, "kappa", failing)
    with pytest.raises(InternalConsistencyError, match="planted"):
        gap_table(3, 4, 40, worker_count=2)
    assert len(opened) == 2 and closed == opened
    monkeypatch.setattr(kappa_search, "kappa", search)
    kappa(SearchSpec(d=3, n=36, worker_count=2))  # a search on its own opens its own
    assert len(opened) == 3 and closed == opened


def test_witness_upper_bounds():
    g = CayleyDigraph.from_cyclic(16, (1, 4, 5))
    assert kappa(SearchSpec(d=3, n=16)).kappa <= diameter(g)


def test_gap_table_small_range():
    rows = gap_table(2, 3, 20)
    assert [n for n, _ in rows] == list(range(3, 21))
    assert all(gap == 0 for n, gap in rows if n in (3, 12))
    assert all(gap >= 0 for _, gap in rows)
    with pytest.raises(ValueError):
        gap_table(2, 10, 5)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "kappa.jsonl"
    cache = KappaCache(path)
    spec = SearchSpec(d=3, n=16)
    rec = kappa(spec, cache=cache)
    again = cache.get(3, 16)
    assert again == rec
    assert KappaRecord.from_json(rec.to_json()) == rec
    # a second search hits the cache and returns the identical record
    assert kappa(spec, cache=cache) == rec


def test_cache_rejects_conflicting_kappa(tmp_path):
    path = tmp_path / "kappa.jsonl"
    cache = KappaCache(path)
    rec = kappa(SearchSpec(d=2, n=12), cache=cache)
    clash = KappaRecord(
        d=rec.d,
        n=rec.n,
        kappa=rec.kappa + 1,
        witness=rec.witness,
        millis=0,
    )
    with pytest.raises(InternalConsistencyError):
        cache.put(clash)


# Records of (2, 12) as successive versions wrote them: with a symmetry level
# and whether the search pruned, with the latter alone, and with no settings.
OLD_FORMAT_LINES = [
    '{"d":2,"kappa":4,"millis":0,"n":12,"settings":{"prune":true,"symmetry":"none"},'
    '"witness":{"gens":[[0,1],[1,2]],"moduli":[2,6]}}\n',
    '{"d":2,"kappa":4,"millis":1,"n":12,"settings":{"prune":false},'
    '"witness":{"gens":[[0,1],[1,2]],"moduli":[2,6]}}\n',
    '{"d":2,"kappa":4,"millis":2,"n":12,"witness":{"gens":[[0,1],[1,2]],"moduli":[2,6]}}\n',
]


def test_cache_reads_records_that_carry_a_symmetry_level(tmp_path):
    """The key is (d, n): of the lines with any settings or none the first wins,
    the conflict check spans them all, and a search appends nothing."""
    path = tmp_path / "kappa.jsonl"
    text = "".join(OLD_FORMAT_LINES)
    path.write_text(text, encoding="utf-8")
    cache = KappaCache(path)
    first = cache.get(2, 12)
    assert first == KappaRecord.from_json(OLD_FORMAT_LINES[0])
    assert first.millis == 0
    with pytest.raises(InternalConsistencyError, match="refusing"):
        cache.put(replace(first, kappa=first.kappa + 1, millis=3))
    assert path.read_text(encoding="utf-8") == text
    assert kappa(SearchSpec(d=2, n=12), cache=cache) == first
    assert path.read_text(encoding="utf-8") == text


def test_cache_missing_and_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "kappa.jsonl"
    cache = KappaCache(path)
    assert cache.get(2, 5) is None
    path.write_text("{not json}\n", encoding="utf-8")
    rec = kappa(SearchSpec(d=2, n=5), cache=cache)
    with caplog.at_level("WARNING"):
        assert cache.get(2, 5) == rec
    assert any("corrupt" in message for message in caplog.messages)


def _d1_record(n):
    return KappaRecord(
        d=1,
        n=n,
        kappa=n - 1,
        witness={"moduli": [n], "gens": [[1]]},
        millis=0,
    )


@pytest.fixture(scope="module")
def cache_pool():
    """Valid records of 20 keys: d = 1 and 2, ten orders each."""
    return [kappa(SearchSpec(d=d, n=n)) for d, orders in ((1, range(2, 12)), (2, range(3, 13))) for n in orders]


def _with_settings(line, rng):
    """The line as an older version might have written it: with settings, or as it is."""
    obj = json.loads(line)
    obj["settings"] = rng.choice([{"prune": True}, {"prune": False, "symmetry": "units"}])
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) if rng.random() < 0.5 else line


@pytest.mark.parametrize("seed", range(4))
def test_cache_index_matches_scan_oracle(tmp_path, cache_pool, seed):
    """get, put and outside edits of the file, every lookup against a plain rescan.

    Records come in same-length variants (millis 0-9), some with kappa off by
    one, which a hit must refuse. Outside edits: appends (duplicates, and lines
    with the settings older versions wrote, included),
    corrupt lines, a last line without a newline, truncation, a same-size
    rewrite (lines shuffled, millis redrawn), a replacement by another file,
    deletion.
    """
    rng = random.Random(seed)
    path = tmp_path / "kappa.jsonl"
    cache = KappaCache(path)

    def variant():
        rec = rng.choice(cache_pool)
        bad = rng.random() < 0.15
        return rec, replace(rec, kappa=rec.kappa + bad, millis=rng.randrange(10))

    def append(text):
        with path.open("a", encoding="utf-8") as fh:
            fh.write(text)

    def expect(rec):
        """The oracle's record for rec's key, and whether a hit on it must be refused."""
        want = cache_scan_oracle(path, rec.d, rec.n)
        return want, want is not None and want["kappa"] != rec.kappa

    def lines():
        return path.read_text(encoding="utf-8").splitlines(keepends=True) if path.exists() else []

    for _ in range(200):
        step = rng.choice(
            ["get", "get", "put", "put", "append", "corrupt", "partial", "newline",
             "truncate", "rewrite", "replace", "delete"]
        )
        if step == "get":
            for rec in cache_pool:
                want, refused = expect(rec)
                if refused:
                    with pytest.raises(InternalConsistencyError, match="cache line"):
                        cache.get(rec.d, rec.n)
                else:
                    got = cache.get(rec.d, rec.n)
                    assert (got and asdict(got)) == want
        elif step == "put":
            rec, put = variant()
            want, refused = expect(rec)
            before = path.read_bytes() if path.exists() else None
            if refused or (want is not None and want["kappa"] != put.kappa):
                with pytest.raises(InternalConsistencyError):
                    cache.put(put)
                assert (path.read_bytes() if path.exists() else None) == before
            else:
                cache.put(put)
                after = path.read_bytes()
                assert after == before if want is not None else after.endswith(put.to_json().encode() + b"\n")
                won = want if want is not None else asdict(put)
                fresh = KappaCache(path)  # reads the file back from scratch
                if won["kappa"] != rec.kappa:
                    with pytest.raises(InternalConsistencyError, match="cache line"):
                        fresh.get(put.d, put.n)
                else:
                    assert asdict(fresh.get(put.d, put.n)) == won
        elif step == "append":
            append("".join(_with_settings(variant()[1].to_json(), rng) + "\n" for _ in range(rng.randint(1, 3))))
        elif step == "corrupt":
            append(rng.choice(["{not json}", '{"d": 1}', "[1, 2]", '"text"', ""]) + "\n")
        elif step == "partial":
            text = variant()[1].to_json()
            append(text[: rng.choice([len(text), rng.randrange(1, len(text))])])
        elif step == "newline":
            append("\n")
        elif step == "truncate" and path.exists():
            with path.open("r+b") as fh:
                fh.truncate(rng.randint(0, path.stat().st_size))
        elif step == "rewrite" and path.exists():
            old = path.stat().st_mtime_ns
            shuffled = lines()
            rng.shuffle(shuffled)
            text = re.sub(r'"millis":\d', lambda m: f'"millis":{rng.randrange(10)}', "".join(shuffled))
            if rng.random() < 0.5:
                with path.open("r+", encoding="utf-8") as fh:  # in place: same inode
                    fh.write(text)
                if path.stat().st_mtime_ns == old:
                    # A rewrite inside one timestamp tick keeps mtime_ns, which the
                    # cache cannot see (it assumes appends only); a later tick moves it.
                    os.utime(path, ns=(old, old + 1))
            else:  # another inode with the old mtime, as `cp -p` leaves it
                fresh = tmp_path / "fresh.jsonl"
                fresh.write_text(text, encoding="utf-8")
                os.utime(fresh, ns=(old, old))
                os.replace(fresh, path)
        elif step == "replace":  # by another file: some lines dropped, or the first edited and one added
            text = "".join(line for line in lines() if rng.random() < 0.7)
            if rng.random() < 0.5:
                text = re.sub(r'"millis":\d', lambda m: f'"millis":{rng.randrange(10)}', "".join(lines()), count=1)
                text += variant()[1].to_json() + "\n"
            fresh = tmp_path / "fresh.jsonl"
            fresh.write_text(text, encoding="utf-8")
            os.replace(fresh, path)
        elif step == "delete":
            path.unlink(missing_ok=True)


def test_cache_corrupt_line_warns_once_per_indexing(tmp_path, caplog):
    path = tmp_path / "kappa.jsonl"
    rec = kappa(SearchSpec(d=2, n=5))
    path.write_text("{not json}\n" + rec.to_json() + "\n", encoding="utf-8")
    cache = KappaCache(path)

    def warned():
        return sum("corrupt cache line 1 " in message for message in caplog.messages)

    with caplog.at_level("WARNING"):
        for _ in range(5):
            assert cache.get(2, 5) == rec
        assert warned() == 1
        more = kappa(SearchSpec(d=2, n=6), cache=cache)  # the append is read from the tail
        for _ in range(5):
            assert cache.get(2, 6) == more
        assert warned() == 1
        with path.open("r+b") as fh:  # shrinking the file makes the cache index it again
            fh.truncate(path.stat().st_size - 1)
        for _ in range(5):
            assert cache.get(2, 5) == rec
        assert warned() == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec, other: replace(rec, kappa=rec.kappa + 1),
        lambda rec, other: replace(rec, kappa=rec.kappa - 1),
        lambda rec, other: replace(rec, witness=other.witness),  # order 13, not 12
        lambda rec, other: replace(rec, witness={"moduli": [12]}),  # not a literal
    ],
    ids=["kappa+1", "kappa-1", "order", "literal"],
)
def test_cache_rechecks_witness_on_hit(tmp_path, edit):
    path = tmp_path / "kappa.jsonl"
    rec = kappa(SearchSpec(d=2, n=12))
    other = kappa(SearchSpec(d=2, n=13))
    path.write_text(other.to_json() + "\n" + edit(rec, other).to_json() + "\n", encoding="utf-8")
    cache = KappaCache(path)
    assert cache.get(2, 13) == other  # only a hit is checked
    with pytest.raises(InternalConsistencyError, match=f"cache line 2 of {re.escape(str(path))}"):
        cache.get(2, 12)
    assert cli_main(["kappa", "-d", "2", "-n", "12", "--cache", str(path)]) == 3


def test_cache_put_checks_what_another_instance_appended(tmp_path):
    path = tmp_path / "kappa.jsonl"
    first, second = KappaCache(path), KappaCache(path)
    rec = kappa(SearchSpec(d=2, n=12))
    assert second.get(2, 12) is None
    first.put(rec)
    with pytest.raises(InternalConsistencyError, match="refusing"):
        second.put(replace(rec, kappa=rec.kappa + 1))
    before = path.read_bytes()
    second.put(replace(rec, millis=rec.millis + 1))
    assert path.read_bytes() == before


def test_cache_put_waits_for_the_lock_then_checks_the_new_tail(tmp_path):
    """A put blocks while another writer holds the lock, then sees what that writer appended."""
    path = tmp_path / "kappa.jsonl"
    rec = _d1_record(7)
    cache = KappaCache(path)
    assert cache.get(1, 7) is None
    raised = []

    def put_clash():
        try:
            cache.put(replace(rec, kappa=rec.kappa + 1))
        except InternalConsistencyError as exc:
            raised.append(exc)

    with path.open("ab") as other:
        fcntl.flock(other, fcntl.LOCK_EX)
        worker = threading.Thread(target=put_clash)
        worker.start()
        worker.join(timeout=0.5)
        assert worker.is_alive()
        other.write(rec.to_json().encode() + b"\n")
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(raised) == 1 and "refusing" in str(raised[0])
    assert path.read_text(encoding="utf-8") == rec.to_json() + "\n"


def _put_d1_records(path, orders, barrier):
    cache = KappaCache(path)
    barrier.wait(timeout=60)
    for n in orders:
        cache.put(_d1_record(n))


def test_cache_concurrent_puts_append_each_record_once(tmp_path):
    """Processes putting the same records in the same order at once: each record lands once.

    Without the lock, two processes can both miss a record and both append it.
    """
    path = tmp_path / "kappa.jsonl"
    orders = range(2, 202)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(3)
    procs = [ctx.Process(target=_put_d1_records, args=(path, orders, barrier)) for _ in range(3)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert [p.exitcode for p in procs] == [0, 0, 0]
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sorted(lines) == sorted(_d1_record(n).to_json() for n in orders)


def test_kappa_never_beats_the_bound():
    for n in range(3, 26):
        rec = kappa(SearchSpec(d=2, n=n))
        assert rec.kappa >= lower_bound(2, n)


def test_a_false_bound_is_reported_not_stored(monkeypatch):
    """A conjectural bound above kappa never stops a search early. With every
    bound raised by one, kappa(3, 16) (several chains) and kappa(3, 30) (one
    chain) raise a ConjectureRefutation whose witness has the true diameter,
    and kappa(2, 12) (two chains), kappa(2, 7) (one chain) and kappa(1, 9)
    raise an InternalConsistencyError, since the degree-1 and 2 bounds are
    proven."""
    monkeypatch.setattr(kappa_search, "lower_bound", lambda d, n: lower_bound(d, n) + 1)
    for n, k in ((16, 3), (30, 5)):
        with pytest.raises(ConjectureRefutation) as caught:
            kappa(SearchSpec(d=3, n=n))
        assert diameter(CayleyDigraph.from_literal(caught.value.witness)) == k, n
    for d, n in ((2, 12), (2, 7), (1, 9)):
        with pytest.raises(InternalConsistencyError, match="below the proven bound"):
            kappa(SearchSpec(d=d, n=n))


def _translate(bits, rots, full):
    """The vertex set `bits` shifted by the element whose masked rotations are
    `rots`, one part at a time, as `_grow_balls` applies them; `full` is the group."""
    out = 0
    for mask, up, down in rots:
        x = bits & mask
        out |= (x << up) | (x >> down)
    return out & full


def test_translate_matches_successor_oracle():
    rng = random.Random(4111)
    chains = 0
    for d in (1, 2, 3):
        for n in range(1, 49):
            for moduli in sorted(chains_oracle(n, d)):
                group = InvariantFactors(moduli)
                chains += 1
                sets = [rng.getrandbits(n) for _ in range(3)] + [(1 << n) - 1]
                for gen in product(*(range(m) for m in moduli)):
                    rots = _rotations(group, gen)
                    table = successor_table_oracle(moduli, gen)
                    for bits in sets:
                        want = sum(1 << table[v] for v in range(n) if bits >> v & 1)
                        assert _translate(bits, rots, (1 << n) - 1) == want, (moduli, gen, bits)
    assert chains == 196


def _ball_bits(moduli, dist, radius):
    return sum(1 << mixed_radix_index(moduli, e) for e, k in dist.items() if k <= radius)


def test_scan_abort_rule():
    """At bound b, a set's balls reach the whole group only when its diameter is below b."""
    for moduli in ((12,), (2, 6), (1, 3, 9), (2, 2, 4)):
        group = InvariantFactors(moduli)
        n = group.order
        full = (1 << n) - 1
        elems = list(product(*(range(m) for m in moduli)))[1:]
        for gens in combinations(elems, len(moduli)):
            oracle = bfs_distance_oracle(moduli, gens)
            k = None if oracle is None else max(oracle.values())
            for bound in range(1, (n if k is None else k) + 3):
                balls = [1]
                for g in gens:
                    below = balls
                    balls = _grow_balls(balls, _rotations(group, g), bound - 1, full)
                case = (moduli, gens, bound)
                assert (balls[-1] == full) == (k is not None and k < bound), case
                assert all(a != b for a, b in zip(balls, balls[1:]))  # stops once fixed
                if k is not None:
                    assert len(balls) - 1 == min(k, bound - 1), case
                    assert balls == [_ball_bits(moduli, oracle, r) for r in range(len(balls))]
                # the last generator's loop, with the Macaulay abort, from the same prefix
                rots = _rotations(group, gens[-1])
                radius, level = _reach(below, rots, bound - 1, full, n, len(gens))
                assert radius == (k if k is not None and k < bound else None), case
                assert level == radius if radius is not None else level <= bound - 1, case


def test_macaulay_matches_binomial_expansion_oracle():
    """h^<j> against the oracle's expansion on every (j, h) with h up to the
    C(j+2, 2) elements at distance j from three generators and beyond, and
    against hand values; it is monotone in h, as `_row` needs."""
    for j in range(1, 21):
        values = [_macaulay(j, h) for h in range(comb(j + 2, 2) + 40)]
        assert values == [macaulay_oracle(j, h) for h in range(len(values))], j
        assert values == sorted(values), j
        assert values[: j + 1] == list(range(j + 1)), j  # h^<j> = h for h <= j
    assert [_macaulay(1, h) for h in range(50)] == [comb(h + 1, 2) for h in range(50)]
    assert _macaulay(2, 5) == 7  # 5 = C(3, 2) + C(2, 1) -> C(4, 3) + C(3, 2)
    assert _macaulay(2, 6) == 10 and _macaulay(3, 10) == 15  # full spheres of degree 3
    assert _macaulay(2, 4) == 5 and _macaulay(4, 4) == 4


@pytest.mark.parametrize("d,sets", [(2, (4471, 19395)), (3, (38652, 30322))])
def test_spheres_obey_macaulays_bound(d, sets):
    """The premise of the abort: on every generating d-set of every chain of
    order n <= 30, the sphere sizes h(j) of the BFS oracle obey
    h(j+1) <= h(j)^<j>, as the Hilbert function of a standard graded ring must."""
    generating = attained = 0
    for n in range(2, 31):
        for moduli in sorted(chains_oracle(n, d)):
            elems = list(product(*(range(m) for m in moduli)))[1:]
            for gens in combinations(elems, d):
                dist = bfs_distance_oracle(moduli, gens)
                if dist is None:
                    continue
                generating += 1
                h = Counter(dist.values())
                for j in range(1, max(h)):
                    assert h[j + 1] <= _macaulay(j, h[j]), (moduli, gens, j)
                    attained += h[j + 1] == _macaulay(j, h[j])
    assert (generating, attained) == sets  # sets, and levels that meet the bound exactly


def check_reach_against_grow_balls(d, orders):
    """On every HNF of each index n in `orders` (hnf_oracle, n >= 2) and every
    limit from 1 to its diameter + 2, `_reach` from the balls of e_1..e_(d-1)
    gives the radius, or None, that `_grow_balls` implies: the diameter when it
    is at most the limit, else None. The rotations come from the oracle, and
    every HNF generates. Returns the number of (HNF, limit) cases."""
    cases = 0
    for n in orders:
        full = (1 << n) - 1
        held = None
        for rows in hnf_oracle(n, d):
            if (rows[:-1], rows[-1][-1]) != held:  # e_1..e_(d-1) move by these rows only
                held = (rows[:-1], rows[-1][-1])
                below = [1]
                for j in range(d - 1):
                    below = _grow_balls(below, translation_parts_oracle(rows, j), n, full)
            rots = translation_parts_oracle(rows, d - 1)
            balls = _grow_balls(below, rots, n, full)
            assert balls[-1] == full, rows
            diameter = len(balls) - 1
            for limit in range(1, diameter + 3):
                radius, level = _reach(below, rots, limit, full, n, d)
                assert radius == (diameter if diameter <= limit else None), (rows, limit)
                assert level == diameter if radius is not None else level <= limit, (rows, limit)
                cases += 1
    return cases


@pytest.mark.parametrize("d,cases", [(2, 25928), (3, 717622)])
def test_reach_matches_grow_balls_on_every_hnf(d, cases):
    """The abort is exact on every HNF of index n <= 48 (CI runs d = 3 to n = 96)."""
    assert check_reach_against_grow_balls(d, range(2, 49)) == cases


@pytest.mark.parametrize("d,max_n,total", [(1, 40, 858), (2, 40, 481), (3, 30, 245)])
def test_witness_scan_matches_oracle(d, max_n, total):
    """Every chain and every k from 1 to the chain's least diameter + 2: the
    witness scan against a scan of every set for the first one of diameter <= k."""
    cases = 0
    for n in range(2, max_n + 1):
        for moduli in sorted(chains_oracle(n, d)):
            group = InvariantFactors(moduli)
            memo = {}
            least = scan_group_oracle(moduli, d, None, memo=memo)[0]
            for k in range(1, (n - 1 if least is None else least) + 3):
                got = _witness(group, d, k)
                best_k, best_gens, hit = scan_group_oracle(moduli, d, k + 1, k, memo)
                assert got == ((best_k, best_gens) if hit else None), (moduli, k)
                cases += 1
    assert cases == total


def test_seed_is_the_cyclic_digraph():
    """The seed of every search, for d = 1, 2, 3 and n = d + 1..300, is the BFS
    diameter and the chain of Cay(Z_n, {1, ..., d})."""
    for d in (1, 2, 3):
        for n in range(d + 1, 301):
            g = CayleyDigraph.from_cyclic(n, range(1, d + 1))
            assert _seed(n, d) == (diameter(g), g.group), (d, n)


def test_degree_one_grows_no_ball(monkeypatch):
    """A degree-1 search takes both passes without growing a ball: the lattice
    pass lists no diagonal, and the scan's first candidate is the seed."""

    def refuse(*args):
        raise AssertionError("a degree-1 search grew a ball")

    monkeypatch.setattr(kappa_search, "_grow_balls", refuse)
    monkeypatch.setattr(kappa_search, "_reach", refuse)
    for n in [*range(2, 401), 10**6]:
        rec = kappa(SearchSpec(d=1, n=n))
        assert (rec.kappa, rec.witness) == (n - 1, {"moduli": [n], "gens": [[1]]}), n


# sha256 of repr((d, n, _plan(n, d))) for d = 2, 3 and n = 1..300: it pins the
# diagonals, their lex order (the least witness chain is a tuple comparison),
# and the b_21 and per-b_21 count the lattice pass shards by.
PINNED_PLAN_DIGEST = "251493b15aa161ecca6d017afd6b207ecace3d60d2f10e4cf02b50b6b834fcea"


def test_lshape_kappa_matches_the_lattice_pass():
    """The L-shapes give the (k, chain) of the d = 2 lattice pass, n = 3..300
    (CI compares them for 300 < n <= 1000)."""
    for n in range(3, 301):
        assert lshape_kappa(n) == _lattice_pass(n, 2, 1)[0], n


def test_lshape_kappa_matches_full_scan_oracle():
    """kappa(2, n) and its least chain against a scan of every set on every
    chain, n <= 48."""
    for n in range(3, 49):
        k, witness = kappa_oracle(2, n)
        assert lshape_kappa(n) == (k, tuple(witness["moduli"])), n


def _kappa_table(d):
    table = Path(__file__).parent / "golden" / f"kappa_d{d}.jsonl"
    return [json.loads(line) for line in table.read_text().splitlines() if not line.startswith("#")]


def test_degree_two_takes_no_lattice_pass(monkeypatch):
    """A degree-2 search takes its value from the L-shapes and grows no lattice
    ball: with the lattice pass refusing d = 2, it still gives every row of
    kappa_d2.jsonl, on one and two workers."""
    lattice_pass = kappa_search._lattice_pass

    def refuse(n, d, *args):
        if d == 2:
            raise AssertionError(f"a degree-2 search of n = {n} took the lattice pass")
        return lattice_pass(n, d, *args)

    monkeypatch.setattr(kappa_search, "_lattice_pass", refuse)
    rows = _kappa_table(2)
    assert len(rows) == 298
    for row in rows:
        for workers in (1, 2):
            rec = kappa(SearchSpec(d=2, n=row["n"], worker_count=workers))
            assert [rec.kappa, rec.witness] == [row["kappa"], row["witness"]], (row, workers)
    assert kappa(SearchSpec(d=3, n=7)).kappa == 2  # d = 3 still takes it


def test_plan_output_is_pinned():
    h = hashlib.sha256()
    for d in (2, 3):
        for n in range(1, 301):
            h.update(repr((d, n, _plan(n, d))).encode())
    assert h.hexdigest() == PINNED_PLAN_DIGEST


# sha256 of repr((rows, rots is None)) for every HNF the lattice pass judges, in
# plan order, for d = 2, 3 and n = d + 1..128 (289,134 HNFs): however the plan
# cuts a diagonal's b_21 into shards, `_hnfs` yields these HNFs in this order.
KEPT_HNF_DIGEST = "8f2d68702a8b4f64168f88ed00509f4767d55fa2a667e84af66aa071278bce9e"


def test_kept_hnfs_are_pinned():
    h = hashlib.sha256()
    count = 0
    for d in (2, 3):
        for n in range(d + 1, 129):
            for rows, rots in _kept_hnfs(n, d):
                h.update(repr((rows, rots is None)).encode())
                count += 1
    assert (h.hexdigest(), count) == (KEPT_HNF_DIGEST, 289_134)


def test_cyclic_b21_above_its_inverse_keeps_no_hnf():
    """On the diagonal (n, 1, 1), n <= 128, `_hnfs` over every unit b_21 keeps no
    HNF whose b_21 is above its inverse mod n, so the plan may drop those b_21."""
    for n in range(2, 129):
        units = [b21 for b21 in range(n) if gcd(n, b21) == 1]
        kept = {rows[1][0] for rows, _ in _hnfs(n, (n, 1, 1), units)}
        assert kept and all(b21 <= pow(b21, -1, n) for b21 in kept), n


def test_factorizations_list_every_product_in_lex_order():
    for d in (1, 2, 3, 4):
        for n in (1, 2, 12, 36, 97, 128):
            divs = [a for a in range(1, n + 1) if n % a == 0]
            want = [t for t in product(divs, repeat=d) if prod(t) == n]
            assert _factorizations(n, d) == want, (n, d)


def _kept_hnfs(n, d):
    """The HNFs the lattice pass of (d, n) judges, with their rotations."""
    return [hnf for diag, b21s, _ in _plan(n, d) for hnf in _hnfs(n, diag, b21s)]


def test_hnf_rotations_match_lattice_oracle():
    """Each e_j's masked rotations move every element of Z^d/L to its sum with e_j,
    on every HNF the pass judges with d = 2 and 3, n <= 24 (a degenerate one has
    no rotations)."""
    hnfs = degenerate = 0
    for d in (2, 3):
        for n in range(1, 25):
            every = set(hnf_oracle(n, d))
            for rows, rots in _kept_hnfs(n, d):
                assert rows in every, rows
                if n <= 16:
                    assert invariant_factors(rows) == quotient_chain_oracle(rows), rows
                hnfs += 1
                if rots is None:
                    degenerate += 1
                    continue
                diag = [rows[i][i] for i in range(d)]
                elems = list(product(*(range(a) for a in diag)))
                for j in range(d):
                    for x in elems:
                        y = lattice_reduce_oracle(rows, [v + (i == j) for i, v in enumerate(x)])
                        got = _translate(1 << mixed_radix_index(diag, x), rots[j], (1 << n) - 1)
                        assert got == 1 << mixed_radix_index(diag, y), (rows, j, x)
    assert (hnfs, degenerate) == (2311, 482)


def _sigma(m):
    return sum(k for k in range(1, m + 1) if m % k == 0)


def test_hnf_count_matches_sublattice_formula():
    """Gruber's counts on the HNF oracle: sigma(n) sublattices of index n in Z^2,
    sum m*sigma(m) over m | n in Z^3."""
    for n in range(1, 41):
        assert len(hnf_oracle(n, 2)) == _sigma(n), n
        want = sum(m * _sigma(m) for m in range(1, n + 1) if n % m == 0)
        assert len(hnf_oracle(n, 3)) == want, n
    assert sum(m * _sigma(m) for m in (1, 2, 4, 8, 16, 32, 64, 128)) == 43435
    # the pass judges these of the 255 and 43,435 HNFs of index 128, those with
    # a_1 > 1 that the cuts keep; 274 of the 9,162 are degenerate
    assert len(_kept_hnfs(128, 2)) == 169
    kept = _kept_hnfs(128, 3)
    assert (len(kept), sum(rots is None for _, rots in kept)) == (9162, 274)


def _order_oracle(rows, j):
    """The order of e_j in Z^d/L, by adding e_j until the sum reduces to 0."""
    x = (0,) * len(rows)
    for m in range(1, prod(row[i] for i, row in enumerate(rows)) + 1):
        x = lattice_reduce_oracle(rows, [v + (i == j) for i, v in enumerate(x)])
        if not any(x):
            return m


def _degenerate_oracle(rows):
    """Whether two e_i coincide in Z^d/L: e_i - e_j reduces to 0."""
    d = len(rows)
    units = [[int(k == i) for k in range(d)] for i in range(d)]
    return any(
        not any(lattice_reduce_oracle(rows, [x - y for x, y in zip(units[i], units[j])]))
        for i, j in combinations(range(d), 2)
    )


def test_orbit_cut_orders_match_lattice_oracle():
    """The closed-form orders of e_2 and e_3, and the HNFs the pass judges, every
    HNF with d = 2 and 3, n <= 24: those with a_1 > 1 where no e_i has order below
    a_1 and, at d = 3, gcd(a_2, b_32) >= a_3 and, where gcd(a_2, b_32) = a_3,
    (b_32, b_21, b_31) not above that of the (2 3) twin, and, on the diagonal
    (n, 1, 1), the least HNF of its S_3 orbit, each once; the twins and orbits
    come from `permuted_hnf_oracle`. A kept HNF has its rotations unless two
    e_i coincide, which the oracle decides."""
    for d in (2, 3):
        for n in range(1, 25):
            listed = _kept_hnfs(n, d)
            kept = dict(listed)
            assert len(kept) == len(listed), (d, n)
            for rows in hnf_oracle(n, d):
                orders = [_order_oracle(rows, j) for j in range(d)]
                a1, a2 = rows[0][0], rows[1][1]
                b21 = rows[1][0]
                assert orders[0] == a1, rows
                assert orders[1] == a2 * a1 // gcd(a1, b21), rows
                keep = a1 > 1 and min(orders) == a1
                if d == 3:
                    (b31, b32, a3) = rows[2]
                    g = gcd(a2, b32)
                    u, v = a2 // g, b32 // g
                    assert orders[2] == a3 * u * a1 // gcd(a1, u * b31 - v * b21), rows
                    keep = keep and g >= a3
                    if keep and g == a3:
                        twin = permuted_hnf_oracle(rows, (0, 2, 1))
                        keep = (b32, b21, b31) <= (twin[2][1], twin[1][0], twin[2][0])
                    if keep and a1 == n:
                        orbit = [permuted_hnf_oracle(rows, p) for p in permutations(range(3))]
                        keep = rows == min(orbit)
                assert (rows in kept) == keep, rows
                if keep:
                    assert (kept[rows] is None) == _degenerate_oracle(rows), rows


def _closed_form_twin(rows):
    """The (2 3) twin of a d = 3 HNF with gcd(a_2, b_32) = a_3, by `_twin`."""
    (a1, _, _), (b21, a2, _), (b31, b32, a3) = rows
    u, v, y, z = _twin(a2, a3, b32)
    return ((a1, 0, 0), ((u * b31 - v * b21) % a1, a2, 0), ((y * b21 + z * b31) % a1, z * a3, a3))


def _unit_normalizations(n, b21, b31):
    """The (b_21, b_31) of Cay(Z_n, {1, p, q}), p = -b_21 and q = -b_31 units,
    normalized by 1, p^-1 and q^-1 (coordinate 1, 2 or 3 moved first), unsorted."""
    p, q = -b21 % n, -b31 % n
    out = []
    for first, rest in ((1, (p, q)), (p, (1, q)), (q, (1, p))):
        m = pow(first, -1, n)
        out.append(tuple(-m * x % n for x in rest))
    return out


def test_closed_forms_match_permuted_lattice_oracle():
    """d = 3, n <= 48. Every HNF with gcd(a_2, b_32) = a_3: the closed-form twin
    is an HNF of index n (`hnf_oracle`) whose rows, with coordinates 2 and 3
    swapped back, lie in L, so it spans L swapped, which has the same index;
    for n <= 16 it is `permuted_hnf_oracle`'s, found by brute force. The twin's
    twin is the HNF. `_b32s` keeps only b_32 with gcd(a_2, b_32) >= a_3, and up
    to a_2*a_3 = 16 exactly those with gcd(a_2, b_32) > a_3 or whose oracle
    twin's b_32 is not below theirs. On the cyclic diagonal (n, 1, 1), each unit
    normalization of Cay(Z_n, {1, p, q}) is the HNF of L with that generator's
    coordinate moved first, and the pass keeps exactly the HNFs whose
    (b_21, b_31) is the least of the three, each pair sorted."""
    swap = (0, 2, 1)
    for a2 in range(1, 49):
        for a3 in range(1, 48 // a2 + 1):
            got = _b32s(a2, a3)
            assert all(gcd(a2, b32) >= a3 for b32 in got), (a2, a3)
            if a2 * a3 <= 16:  # the twin's b_32 does not depend on a_1
                want = []
                for b32 in range(a2):
                    g = gcd(a2, b32)
                    rows = ((1, 0, 0), (0, a2, 0), (0, b32, a3))
                    if g > a3 or g == a3 and permuted_hnf_oracle(rows, swap)[2][1] >= b32:
                        want.append(b32)
                assert got == want, (a2, a3)
    for n in range(1, 49):
        every = set(hnf_oracle(n, 3))
        for rows in every:
            if gcd(rows[1][1], rows[2][1]) != rows[2][2]:
                continue
            twin = _closed_form_twin(rows)
            assert twin in every, (rows, twin)
            back = [[row[i] for i in swap] for row in twin]
            assert all(in_lattice_oracle(rows, v) for v in back), (rows, twin)
            assert _closed_form_twin(twin) == rows, (rows, twin)
            if n <= 16:
                assert twin == permuted_hnf_oracle(rows, swap), rows
        if n < 4:
            continue
        units = [x for x in range(n) if gcd(x, n) == 1]
        want = set()
        for b21 in units:
            for b31 in units:
                rows = ((n, 0, 0), (b21, 1, 0), (b31, 0, 1))
                normal = _unit_normalizations(n, b21, b31)
                for k, (c21, c31) in enumerate(normal):
                    sigma = (k,) + tuple(i for i in range(3) if i != k)
                    other = ((n, 0, 0), (c21, 1, 0), (c31, 0, 1))
                    back = [[row[sigma.index(i)] for i in range(3)] for row in other]
                    assert all(in_lattice_oracle(rows, v) for v in back), (rows, k)
                    if n <= 16:
                        assert other == permuted_hnf_oracle(rows, sigma), (rows, k)
                if (b21, b31) == min(tuple(sorted(pair)) for pair in normal):
                    want.add(rows)
        assert {rows for rows, _ in _kept_hnfs(n, 3) if rows[0][0] == n} == want, n


def test_orbit_cut_keeps_every_coordinate_permutation_orbit():
    """d = 3, n <= 16: the orbit of L under S_3, each member from
    `permuted_hnf_oracle`. Every orbit where no e_i is 0 (no member has a_1 = 1)
    holds an HNF that the pass judges, and one with its rotations unless two e_i
    coincide in it, which the oracle decides; the pass judges no member of the
    others. It judges exactly one HNF of each orbit on the cyclic diagonal
    (n, 1, 1), and exactly one of each pair of (2 3) twins off it that the
    orbit cut keeps (a_1 > 1 and no e_i of order below a_1)."""
    for n in range(1, 17):
        kept = dict(_kept_hnfs(n, 3))
        seen = set()
        for rows in hnf_oracle(n, 3):
            if rows in seen:
                continue
            orbit = {permuted_hnf_oracle(rows, sigma) for sigma in permutations(range(3))}
            assert rows in orbit and len(orbit) <= 6, rows
            judged = all(other[0][0] > 1 for other in orbit)  # no e_i is 0
            held = orbit & kept.keys()
            assert bool(held) == judged, sorted(orbit)
            if judged and all(kept[other] is None for other in held):
                assert all(_degenerate_oracle(other) for other in orbit), sorted(orbit)
            if judged and all(other[0][0] == n for other in orbit):
                assert len(held) == 1, sorted(orbit)
            for other in orbit:
                a1 = other[0][0]
                if 1 < a1 < n and min(_order_oracle(other, j) for j in range(3)) == a1:
                    pair = {other, permuted_hnf_oracle(other, (0, 2, 1))}
                    assert len(pair & kept.keys()) == 1, sorted(pair)
            seen |= orbit


def _debug_fields(caplog, d, n, workers=1):
    """The fields of the one DEBUG line of kappa(d, n) on this many workers."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="cayleydense.kappa_search"):
        kappa(SearchSpec(d=d, n=n, worker_count=workers))
    (line,) = [r.getMessage() for r in caplog.records if r.name == "cayleydense.kappa_search"]
    first = "lshape_s" if d == 2 else "lattice_s"
    assert line.startswith(f"kappa({d},{n}) search: {first}="), line
    return dict(field.split("=") for field in line.split(": ", 1)[1].split()), line


def _reach_without_abort(below, rots, limit, full, n, d):
    """`_reach` with no early abort: the last generator's balls grown to `limit`."""
    balls = _grow_balls(below, rots, limit, full)
    return (len(balls) - 1 if balls[-1] == full else None), limit


def test_kappa_logs_its_pass_once(caplog, monkeypatch, two_cpus):
    """One DEBUG line per search: seconds per pass, the lattice pass's HNF counts,
    which are the same on 1 and 2 workers and with or without the abort, its
    shards, its slowest shard and the number of processes it ran on; at d = 2
    the L-shapes that attain kappa in place of the lattice pass's fields."""
    every = [rows for rows in hnf_oracle(48, 3) if rows[0][0] > 1]
    kept = _kept_hnfs(48, 3)
    lines = []
    with monkeypatch.context() as patch:
        patch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
        for workers in (1, 2):
            lines.append(_debug_fields(caplog, 3, 48, workers))
        planned = [len(_shards(48, 3, workers)[0]) for workers in (1, 2)]
    for workers, shards, (fields, line) in zip((1, 2), planned, lines):
        assert {"witness_s", "lattice_s"} <= fields.keys(), line
        assert int(fields["workers"]) == workers, line
        assert int(fields["listed"]) == len(every)
        assert int(fields["cut"]) == len(every) - len(kept)
        judged = len(kept) - int(fields["degenerate"])
        assert 0 < int(fields["evaluated"]) <= judged < len(kept)
        assert 0 < int(fields["aborted"]) <= judged - int(fields["evaluated"]), line
        assert int(fields["shards"]) == shards > 1, line
        assert 0 <= float(fields["slowest_shard_s"]) <= float(fields["lattice_s"]), line
    counted = [[fields[key] for key in ("listed", "cut", "degenerate")] for fields, _ in lines]
    assert counted[0] == counted[1]  # evaluated depends on the hint each shard starts from
    # the abort changes no count but its own: on one worker, in this process, the
    # same pass with every last generator's balls grown to the limit
    with monkeypatch.context() as patch:
        patch.setattr(kappa_search, "_reach", _reach_without_abort)
        plain, line = _debug_fields(caplog, 3, 48)
    assert int(plain["aborted"]) == 0, line
    keys = ("listed", "cut", "degenerate", "evaluated")
    assert [plain[key] for key in keys] == [lines[0][0][key] for key in keys], line
    # on both sides of the constant: the shards of n = 90 hold 10,712 HNFs and it
    # runs in process on the 1-worker plan, those of n = 96 hold 14,262 and it runs
    # on both workers
    for n, workers in ((90, 1), (96, 2)):
        fields, line = _debug_fields(caplog, 3, n, 2)
        listed = sum(a[0] * a[0] * a[1] for a in _factorizations(n, 3) if a[0] > 1)
        assert int(fields["listed"]) == listed, line
        assert int(fields["workers"]) == workers, line
        assert int(fields["shards"]) == len(_shards(n, 3, workers)[0]), line
    # d = 3 and d = 1 take the lattice pass, then the scan: d = 3 on one chain, and
    # d = 1, whose one HNF is the seed, judged in closed form: listed and cut, with
    # no shard
    for d, n in ((3, 7), (1, 7)):
        fields, line = _debug_fields(caplog, d, n, 2)
        assert {"witness_s", "lattice_s"} <= fields.keys() and "scan_s" not in fields, line
        listed = len([rows for rows in hnf_oracle(n, d) if rows[0][0] > 1])
        assert int(fields["listed"]) == listed == {3: 49, 1: 1}[d], line
        assert int(fields["shards"]) == (0 if d == 1 else len(_shards(n, d, 1)[0])), line
        assert int(fields["workers"]) == 1, line
    seeded = "listed=1 cut=1 degenerate=0 evaluated=0 aborted=0 shards=0 workers=1"
    assert fields.items() >= dict(field.split("=") for field in seeded.split()).items(), line
    # d = 2 takes the L-shapes, then the scan, in this process on any worker count:
    # the seconds of each, the number of L-shapes that attain kappa(2, 7) = 3, and
    # no lattice count
    fields, line = _debug_fields(caplog, 2, 7, 2)
    assert list(fields) == ["lshape_s", "shapes", "workers", "witness_s"], line
    shapes = [(2, 4, 1, 1), (3, 3, 1, 2), (3, 3, 2, 1), (4, 2, 1, 1), (4, 4, 3, 3)]
    assert optimal_lshapes(7) == (3, shapes) and int(fields["shapes"]) == 5, line
    assert int(fields["workers"]) == 1, line


def test_jobs_open_no_more_workers_than_cpus(caplog, monkeypatch, capsys, recording_pool):
    """--jobs above the CPU count runs on as many workers as the CPUs in this
    process's affinity mask or, on a platform without one, os.cpu_count(), and on
    one, with no pool, when the count is 1 or unknown: the pool a search or a
    sweep opens, the shard plan and the DEBUG line's workers= all use that
    number, and the records are those of one worker. The fake pool starts no
    process."""
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
    opened, submitted = recording_pool.opened, recording_pool.submitted
    alone = kappa(SearchSpec(d=3, n=24))
    rows = gap_table(3, 4, 12)
    # (CPUs, whether the platform has an affinity mask, workers)
    cases = ((3, True, 3), (2, True, 2), (1, True, 1), (2, False, 2), (None, False, 1))
    for cpus, mask, workers in cases:
        if mask:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools = [workers] if workers > 1 else []
        shards = len(_shards(24, 3, workers)[0])
        fields, line = _debug_fields(caplog, 3, 24, 100_000)
        assert int(fields["workers"]) == workers and int(fields["shards"]) == shards, line
        assert opened == pools and len(submitted) == (shards if pools else 0), cpus
        opened.clear()
        assert gap_table(3, 4, 12, worker_count=100_000) == rows
        assert opened == pools, cpus
        opened.clear()
        assert cli_main(["--format", "jsonl", "kappa", "-d", "3", "-n", "24", "--jobs", "100000"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["kappa"], row["witness"]) == (alone.kappa, alone.witness), cpus
        assert opened == pools, cpus
        opened.clear()
        submitted.clear()


def test_jobs_follow_the_affinity_mask(caplog, monkeypatch, recording_pool):
    """A process that may run on one CPU of two runs every search on one worker:
    kappa(3, 96), whose shards hold more than POOL_MIN_HNFS HNFs, opens no pool
    on two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert kappa_search._pool_size(4) == 1
    fields, line = _debug_fields(caplog, 3, 96, 2)
    assert int(fields["workers"]) == 1, line
    assert recording_pool.opened == [] and recording_pool.submitted == []


def test_shards_hold_each_kept_b21_once_on_any_worker_count(monkeypatch):
    """d = 2 and 3, n <= 48, on 1, 2, 3 and 5 workers: every (diagonal, b_21) that
    the cuts keep is in exactly one shard, the shards come largest first, and
    the pass gives the 1-worker (k, chain) and the same HNF counts: it lists
    every HNF with a_1 > 1 (the oracle's), and cuts all but those `_hnfs` keeps.
    A diagonal's `per` bounds the HNFs `_hnfs` keeps of each of its b_21."""
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        for d in (2, 3):
            for n in range(d + 1, 49):
                diags = [diag for diag in _factorizations(n, d) if diag[0] > 1]
                per = {diag: diag[0] * diag[1] if d == 3 else 1 for diag in diags}
                kept = Counter(
                    (diag, b21)
                    for diag in diags
                    for b21 in range(diag[0])
                    if diag[1] >= gcd(diag[0], b21) and diag[1] >= diag[-1]
                    # the cyclic cut keeps nothing of a b_21 above its inverse
                    and not (diag[1:] == (1, 1) and pow(b21, -1, n) < b21)
                )
                hnfs = [rows for rows, _ in _kept_hnfs(n, d)]
                pairs = Counter((tuple(rows[i][i] for i in range(d)), rows[1][0]) for rows in hnfs)
                assert pairs.keys() <= kept.keys(), (d, n)
                size = {(diag, b21): x for diag, b21s, x in _plan(n, d) for b21 in b21s}
                assert size.keys() == kept.keys(), (d, n)
                assert all(pairs[key] <= x for key, x in size.items()), (d, n)
                listed = sum(diag[0] * per[diag] for diag in diags)
                assert listed == len([rows for rows in hnf_oracle(n, d) if rows[0][0] > 1])
                alone, counts = _lattice_pass(n, d, 1)
                assert (counts["listed"], counts["cut"]) == (listed, listed - len(hnfs)), (d, n)
                for workers in (1, 2, 3, 5):
                    shards, planned = _shards(n, d, workers)
                    case = (d, n, workers)
                    assert planned == workers, case
                    assert Counter((diag, b21) for diag, b21s in shards for b21 in b21s) == kept, case
                    sizes = [sum(size[diag, b21] for b21 in b21s) for diag, b21s in shards]
                    assert sizes == sorted(sizes, reverse=True), case
                    runs = {}  # the lengths of each diagonal's runs of b_21, equal to one b_21
                    for diag, b21s in shards:
                        runs.setdefault(diag, []).append(len(b21s))
                    assert all(max(x) - min(x) <= 1 for x in runs.values()), case
                    value, got = _lattice_pass(n, d, workers, pool)
                    assert value == alone, case
                    assert (got["shards"], got["workers"]) == (len(shards), workers), case
                    for key in ("listed", "cut", "degenerate"):
                        assert got[key] == counts[key], (case, key)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kappa_matches_full_scan_oracle(d, monkeypatch):
    """Value and witness against a scan of every set on every chain: every n <= 48,
    on 1 and 2 workers."""
    monkeypatch.setattr(kappa_search, "POOL_MIN_HNFS", 0)  # every pass on the pool
    for n in range(d + 1, 49):
        want = kappa_oracle(d, n)
        for workers in (1, 2):
            rec = kappa(SearchSpec(d=d, n=n, worker_count=workers))
            assert (rec.kappa, rec.witness) == want, (d, n, workers)


# the orders each committed kappa table holds, one record per order
KAPPA_TABLES = {1: range(2, 401), 2: range(3, 301), 3: range(4, 513)}


def test_kappa_tables_match_the_search():
    """tests/golden/kappa_d{d}.jsonl holds one {d, kappa, n, witness} record per
    order, with no gap. Every witness has order n, degree d and diameter kappa,
    and kappa is at least the lower bound. The witness is the seed,
    Cay(Z_n, {1, ..., d}), exactly where kappa is the seed's diameter: every
    d = 1 row, the d = 2 rows of n <= 9 and the d = 3 rows of n <= 10. On 1
    and 2 workers the search gives the record of every d = 1 and d = 2 order
    and of every d = 3 order n <= 100; CI's north-star step searches the
    d = 3 rows of 100 < n <= 200 again."""
    seeded = Counter()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for d, orders in KAPPA_TABLES.items():
            rows = _kappa_table(d)
            assert [row["n"] for row in rows] == list(orders), d
            for row in rows:
                n, k = row["n"], row["kappa"]
                assert sorted(row) == ["d", "kappa", "n", "witness"] and row["d"] == d, row
                g = CayleyDigraph.from_literal(row["witness"])
                assert (g.order, g.degree, diameter(g)) == (n, d, k), row
                assert k >= lower_bound(d, n), row
                seed = CayleyDigraph.from_cyclic(n, range(1, d + 1)).to_literal()
                assert (row["witness"] == seed) == (k == _seed(n, d)[0]), row
                seeded[d] += row["witness"] == seed
                if d < 3 or n <= 100:
                    for w in (1, 2):
                        rec = kappa(SearchSpec(d=d, n=n, worker_count=w), pool=pool if w > 1 else None)
                        assert [rec.kappa, rec.witness] == [k, row["witness"]], (d, n, w)
    assert seeded == {1: 399, 2: 6, 3: 5}
