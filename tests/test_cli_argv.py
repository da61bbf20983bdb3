"""Every command line ends in exit 0, 2, 3 or 4: a property test over drawn argvs.

Each draw is one argv for one subcommand, with literals well formed or not
(bad types, bad keys, ragged rows, nesting past the recursion limit), numeric
flags at and past their limits, and options argparse does not know. Orders
stay at most 40, dilation factors at most 3 and gap ranges a few orders wide,
so no draw starts a long search; a stand-in pool fails the draw that would
submit or map work to a process pool, and two explicit argvs search on two
workers.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from cayleydense import kappa_search
from cayleydense.cayley import CayleyDigraph, upsilon
from cayleydense.cli import main, write_mdd_file
from cayleydense.mdd import build_mdd


def _mostly(good, bad):
    """Draws from `good` three times in four, so that most argvs reach a handler."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


def _one(strategy):
    """One argv token drawn from `strategy`."""
    return strategy.map(lambda token: [token])


# -- literals ------------------------------------------------------------------

SMALL = st.integers(-3, 12)
NOT_INTS = st.one_of(
    st.floats(-3, 12, allow_nan=False), st.booleans(), st.none(), st.text(max_size=2)
)


def _order_at_most_40(moduli) -> bool:
    return prod(abs(m) or 1 for m in moduli) <= 40


def _small(obj) -> bool:
    """A literal whose moduli are integers names a group of order at most 40."""
    moduli = obj.get("moduli") if isinstance(obj, dict) else None
    if isinstance(moduli, list) and all(type(m) is int for m in moduli):
        return _order_at_most_40(moduli)
    return True


JSON_JUNK = st.recursive(
    st.one_of(SMALL, NOT_INTS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["moduli", "gens", "bogus"]), inner, max_size=3),
    max_leaves=8,
).filter(_small)
DEEP = st.builds(
    lambda depth, closed: "[" * depth + ("]" * depth if closed else ""),
    st.sampled_from([1, 2, 999, 1000, 1001, 100_000]),
    st.booleans(),
)
GARBAGE = st.one_of(JSON_JUNK.map(json.dumps), DEEP, st.text(max_size=8))

DIGRAPH = st.builds(
    lambda moduli, gens, extra: {"moduli": moduli, "gens": gens, **extra},
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 0, -3]), min_size=1, max_size=3).filter(
        _order_at_most_40
    ),
    st.lists(st.lists(st.integers(-13, 13), max_size=4), max_size=4),
    _mostly(st.just({}), st.dictionaries(st.sampled_from(["bogus", "Moduli"]), SMALL, min_size=1)),
)

MATRIX = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=k, max_size=k
    )
)
MATRIX_LITERAL = st.one_of(
    MATRIX.map(json.dumps),
    st.lists(st.lists(st.one_of(SMALL, NOT_INTS), max_size=3), max_size=3).map(json.dumps),
    GARBAGE,
)

# diagrams: those that build_mdd writes for small digraphs, edited or not, and junk
SOURCES = [
    upsilon(2, 1),
    CayleyDigraph.from_cyclic(7, (1, 2)),
    CayleyDigraph.from_cyclic(16, (1, 4, 5)),
    CayleyDigraph.from_cyclic(40, (1,)),
    CayleyDigraph.from_literal('{"moduli":[3,12],"gens":[[0,1],[-1,3]]}'),
    CayleyDigraph.from_literal('{"moduli":[1,1,16],"gens":[[0,0,1],[0,1,-12],[1,0,-11]]}'),
]
BUILT = [write_mdd_file(build_mdd(g)).splitlines() for g in SOURCES]
DIGRAPH_LITERAL = st.one_of(
    st.sampled_from([json.dumps(g.to_literal()) for g in SOURCES]),
    DIGRAPH.map(json.dumps),
    GARBAGE,
)
POINT_LINE = st.one_of(
    st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(lambda a: " ".join(map(str, a))),
    st.sampled_from(["1.5 0", "x", "# a comment", "0 0 0 0 0"]),
)
DIAGRAM = _mostly(
    st.builds(
        lambda lines, cut, extra: "\n".join(lines[: len(lines) - cut] + extra) + "\n",
        st.sampled_from(BUILT),
        st.sampled_from([0, 0, 1]),
        st.lists(POINT_LINE, max_size=2),
    ),
    st.builds(
        lambda header, points: "\n".join(["# " + header] + points) + "\n",
        DIGRAPH_LITERAL,
        st.lists(POINT_LINE, max_size=12),
    )
    | st.text(max_size=20),
)

# -- flags -----------------------------------------------------------------------

NOT_INT_TOKENS = st.sampled_from(["1.5", "x", "", "1e3", "0x10", "--"])


def _flag(name, values):
    """The flag with a value drawn from `values` or a token int() refuses."""
    return _mostly(values.map(str), NOT_INT_TOKENS).map(lambda v: [name, v])


ORDER = st.integers(-2, 40)
BIG = st.one_of(st.integers(-2, 40), st.sampled_from([-(2**63), 2**63, 10**30]))
DEGREE = _mostly(st.integers(1, 3), st.integers(-1, 5))
FACTOR = st.integers(-2, 3)


def _opt(strategy):
    return st.one_of(st.just([]), strategy)


def _args(*parts):
    """Concatenate drawn argv pieces (lists of tokens) in order."""
    return st.tuples(*parts).map(lambda pieces: [token for piece in pieces for token in piece])


def _argvs(files):
    diagram, missing, out = files["diagram"], files["missing"], files["out"]
    path = _mostly(st.just(diagram), st.sampled_from([missing, files["dir"], "-"]))
    out_flag = _opt(
        st.sampled_from([["-o", out], ["-o", "-"], ["-o", files["dir"]], ["-o", missing + "/x"]])
    )
    search = _args(
        _flag("-d", DEGREE),
        _opt(_flag("--jobs", st.integers(-2, 2))),
        _opt(_mostly(st.just(["--cache", files["cache"]]), st.just(["--cache", files["dir"]]))),
        _opt(st.just(["--long-running"])),
    )
    low = st.integers(-2, 36)
    gaps = low.flatmap(
        lambda n: _args(_flag("--from", st.just(n)), _flag("--to", st.integers(n - 2, n + 4)))
    )
    commands = st.one_of(
        _args(st.just(["snf"]), _one(MATRIX_LITERAL)),
        _args(st.just(["proper"]), _one(MATRIX_LITERAL)),
        _args(
            st.sampled_from([["diameter"], ["density"], ["tight", "value"]]), _one(DIGRAPH_LITERAL)
        ),
        _args(st.just(["mdd", "build"]), _one(DIGRAPH_LITERAL), out_flag),
        _args(st.sampled_from([["mdd", "verify"], ["mdd", "render"]]), _one(path), out_flag),
        _args(
            st.just(["dilate"]),
            _flag("-m", FACTOR),
            _opt(st.just(["--strict"])),
            _one(DIGRAPH_LITERAL),
            out_flag,
        ),
        _args(st.just(["dilate", "--mdd"]), _flag("-m", FACTOR), _one(path), out_flag),
        _args(
            st.just(["bound"]), _flag("-d", DEGREE), _opt(_flag("-n", BIG)), _opt(_flag("-k", BIG))
        ),
        _args(st.just(["tight", "coeff"]), _flag("-d", DEGREE), _flag("-n", ORDER)),
        _args(st.just(["tight", "cd"]), _flag("-d", DEGREE), _flag("-x", BIG)),
        _args(st.just(["tight", "xd"]), _flag("-d", DEGREE)),
        _args(st.just(["kappa"]), search, _flag("-n", ORDER)),
        _args(
            st.just(["gaps"]),
            search,
            gaps,
            _opt(st.sampled_from([["--csv-out", out], ["--svg-out", out], ["--csv-out", "-"]])),
        ),
        st.sampled_from([["table1"], ["table2"]]),
        _args(st.just(["upsilon"]), _flag("-d", DEGREE), _flag("-m", FACTOR)),
    )
    fmt = _mostly(
        st.sampled_from([[], ["--format", "human"], ["--format", "jsonl"], ["--format", "csv"]]),
        st.just(["--format", "xml"]),
    )
    extra = _mostly(
        st.just([]),
        st.one_of(st.sampled_from([["--bogus"], ["-h"], ["x"]]), _one(st.text(max_size=4))),
    )
    return _args(fmt, commands, extra)


# -- the property -------------------------------------------------------------------


class _NoPool:
    """Stands in for the search's ProcessPoolExecutor: it may be opened and shut down,
    never used."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        raise AssertionError("a drawn argv submitted work to a process pool")

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


ERROR_LINE = re.compile(r"cayleydense( [\w-]+)*: error: ")


def _error_rows(out: str, fmt: str) -> list[dict]:
    """The rows a handler's exit 2 printed, read back from its format."""
    if fmt == "jsonl":
        return [json.loads(line) for line in out.splitlines()]
    if fmt == "csv":  # the message is one line; a field can pass csv's size limit
        header, *values = out.splitlines()
        return [{header: value} for value in values]
    assert out.count("\n") == 1 and out.startswith("error: "), out
    return [{"error": out[len("error: ") : -1]}]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    return {
        "diagram": str(root / "drawn.mdd"),
        "missing": str(root / "missing"),
        "dir": str(root),
        "out": str(root / "out"),
        "cache": str(root / "cache.jsonl"),
    }


def test_every_argv_exits_0_2_3_or_4(files):
    """main lets no exception out and returns 0, 2, 3 or 4; an exit 2 from a handler
    prints exactly one {"error": ...} row, and one from argparse one error line
    on stderr (after its usage text) and nothing on stdout."""

    @settings(
        max_examples=600,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        # the explain phase traces every line, which at the recursion limit of a
        # deeply nested literal prints its own errors on stderr
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
    )
    @given(argv=_argvs(files), diagram=DIAGRAM)
    # drawn argvs seldom reach a search on two workers, which must still open no pool
    @example(argv=["gaps", "-d", "3", "--jobs", "2", "--from", "30", "--to", "34"], diagram="")
    @example(argv=["kappa", "-d", "3", "--jobs", "2", "-n", "40"], diagram="")
    def check(argv, diagram):
        with open(files["diagram"], "w", encoding="utf-8") as fh:
            fh.write(diagram)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        if err.getvalue():
            errors = [line for line in err.getvalue().splitlines() if ERROR_LINE.match(line)]
            assert code == 2 and len(errors) == 1 and out.getvalue() == "", (argv, err.getvalue())
        elif code == 2:
            fmt = argv[1] if argv[:1] == ["--format"] else "human"
            rows = _error_rows(out.getvalue(), fmt)
            assert len(rows) == 1 and list(rows[0]) == ["error"], (argv, out.getvalue())
            assert isinstance(rows[0]["error"], str) and rows[0]["error"], argv

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CAYLEYDENSE_CACHE", raising=False)
        patch.setattr(kappa_search, "ProcessPoolExecutor", _NoPool)
        check()
