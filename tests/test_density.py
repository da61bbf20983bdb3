import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cayleydense.abelian import InvariantFactors
from cayleydense.cayley import CayleyDigraph, dilate_digraph
from cayleydense import density as density_mod
from cayleydense.cli import main as cli_main
from cayleydense.density import (
    INFINITE,
    REGISTRY,
    bound_violation,
    ceil_root,
    delta,
    floor_root,
    in_Cd,
    is_conjectural,
    lower_bound,
    max_order,
    min_attaining_x,
    tightness,
    tightness_coefficient,
)
from cayleydense.errors import ConjectureRefutation, InternalConsistencyError
from conftest import tightness_coefficient_oracle

GAMMA1 = CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11)))
SPACE_SEED = CayleyDigraph(
    InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
)


def test_registry_contents():
    assert REGISTRY[1].delta == 1 and REGISTRY[1].status == "proven"
    assert REGISTRY[2].delta == Fraction(1, 3) and REGISTRY[2].status == "proven"
    assert REGISTRY[3].delta == Fraction(21, 250) and REGISTRY[3].status == "conjectural"
    assert not is_conjectural(2) and is_conjectural(3)
    with pytest.raises(TypeError):
        REGISTRY[4] = None
    with pytest.raises(ValueError):
        delta(5)


def test_ceil_root_examples():
    assert ceil_root(216, 2) == 15
    assert ceil_root(Fraction(4000, 21), 3) == 6
    assert ceil_root(27, 3) == 3
    with pytest.raises(ValueError):
        ceil_root(0, 2)


@given(
    num=st.integers(min_value=1, max_value=10**30),
    den=st.integers(min_value=1, max_value=10**30),
    d=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_ceil_root_is_exact(num, den, d):
    r = Fraction(num, den)
    x = ceil_root(r, d)
    assert x >= 1
    assert Fraction(x**d) >= r
    assert x == 1 or Fraction((x - 1) ** d) < r


@given(n=st.integers(min_value=0, max_value=10**36), d=st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_floor_root_is_exact(n, d):
    x = floor_root(n, d)
    assert x**d <= n < (x + 1) ** d


def test_lower_bound_examples():
    assert lower_bound(2, 72) == 13
    assert lower_bound(1, 10) == 9
    assert lower_bound(3, 2000) == 26
    assert lower_bound(2, 1152) == 57


def test_lower_bound_monotone():
    for d in (1, 2, 3):
        values = [lower_bound(d, n) for n in range(1, 400)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_tightness_examples():
    assert tightness(GAMMA1) == 0
    assert tightness(dilate_digraph(GAMMA1, 4)) == 1
    assert tightness(dilate_digraph(SPACE_SEED, 5)) == 1


def test_a_broken_bound_is_a_refutation_only_where_it_is_conjectural(monkeypatch, capsys):
    """One rule for every consumer of a bound: a digraph that breaks the degree-3
    bound, which is conjectural, is a ConjectureRefutation that carries it (exit 4),
    one that breaks a proven bound (d <= 2) an InternalConsistencyError (exit 3).
    `tightness` and the density command raise it here; kappa in
    test_a_false_bound_is_reported_not_stored."""
    real_lower_bound, real_delta = lower_bound, delta
    monkeypatch.setattr(density_mod, "lower_bound", lambda d, n: real_lower_bound(d, n) + 1)
    monkeypatch.setattr(density_mod, "delta", lambda d: real_delta(d) / 2)
    for g in (CayleyDigraph.from_cyclic(9, [1]), GAMMA1, SPACE_SEED):
        conjectural = g.degree == 3
        error = ConjectureRefutation if conjectural else InternalConsistencyError
        status = "conjectural" if conjectural else "proven"
        caught = bound_violation(g, "diameter 1 below", 2)
        assert type(caught) is error, g
        assert str(caught).startswith(f"diameter 1 below the {status} bound 2 for d={g.degree}")
        assert getattr(caught, "witness", None) == (g.to_literal() if conjectural else None)
        with pytest.raises(error, match=f"below the {status} bound"):
            tightness(g)
        literal = json.dumps(g.to_literal())
        assert cli_main(["--format", "jsonl", "density", literal]) == (4 if conjectural else 3)
        row = json.loads(capsys.readouterr().out)
        assert f"exceeds the {status} bound" in row["error"], row
        assert row.get("witness") == (g.to_literal() if conjectural else None), row


def test_in_Cd_examples():
    assert in_Cd(3, 2)
    assert in_Cd(10, 3)
    assert not in_Cd(2, 2)


def test_min_attaining_x_examples():
    assert min_attaining_x(2) == 3
    assert min_attaining_x(3) == 10
    assert min_attaining_x(1) == 1
    assert in_Cd(min_attaining_x(2), 2) and in_Cd(min_attaining_x(3), 3)


def test_tightness_coefficient_examples():
    assert tightness_coefficient(2, 72) == 3
    assert tightness_coefficient(3, 16) == 4
    assert tightness_coefficient(2, 3) is INFINITE
    for n in range(1, 101):
        assert tightness_coefficient(1, n) is INFINITE


def test_tightness_coefficient_characterization():
    # finite c: the ceiling identity holds for m <= c and fails at c + 1
    for d in (2, 3):
        for n in range(2, 501):
            c = tightness_coefficient(d, n)
            if c is INFINITE:
                continue
            base = Fraction(n, 1) / delta(d)
            x1 = ceil_root(base, d)
            for m in range(1, c + 1):
                assert ceil_root(m**d * base, d) == m * x1
            assert ceil_root((c + 1) ** d * base, d) != (c + 1) * x1


def test_tightness_coefficient_matches_stepping_oracle():
    """The bisection against the loop that stepped m one dilate at a time: every
    d = 2 and 3 order up to 2,000 with a finite coefficient, and the orders
    3*10**k - 1, whose coefficient at d = 2 grows as 2*10**(k/2)."""
    orders = list(range(1, 2001)) + [3 * 10**k - 1 for k in range(3, 8)]
    for d in (2, 3):
        for n in orders:
            c = tightness_coefficient(d, n)
            if c is not INFINITE:
                assert c == tightness_coefficient_oracle(d, n, delta(d)), (d, n)
    assert tightness_coefficient(2, 3 * 10**6 - 1) == 1999


def test_tightness_coefficient_of_a_30_digit_order(capsys):
    """Orders far beyond any stepping loop: c is tight and c + 1 is not, by the
    exact inequality (m*X - 1)**d < m**d * n / Delta_d, and the CLI prints it."""
    for d, n, want in (
        (2, 3 * 10**29 - 1, 4),
        (2, 3 * 10**30 - 1, 2 * 10**15 - 1),
        (3, 672 * 10**27 - 1, 1008 * 10**17 - 1),  # 672*10**27 = Delta_3 * (2*10**10)**3
    ):
        c = tightness_coefficient(d, n)
        assert c == want, (d, n)
        base = Fraction(n) / delta(d)
        x = ceil_root(base, d)
        assert (c * x - 1) ** d < c**d * base
        assert ((c + 1) * x - 1) ** d >= (c + 1) ** d * base
    assert cli_main(["--format", "jsonl", "tight", "coeff", "-d", "2", "-n", str(3 * 10**30 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["coefficient"] == 2 * 10**15 - 1


def test_infinite_iff_order_attains_maximum():
    for d in (1, 2, 3):
        dd = delta(d)
        for n in range(1, 400):
            expected = any(
                Fraction(n) == dd * Fraction(x**d)
                for x in range(1, ceil_root(Fraction(n, 1) / dd, d) + 1)
            )
            assert (tightness_coefficient(d, n) is INFINITE) == expected


def test_max_order_examples():
    assert max_order(3, 7) == 84
    assert max_order(2, 1) == 3
    assert max_order(1, 5) == 6
    assert max_order(3, 8) == 111
