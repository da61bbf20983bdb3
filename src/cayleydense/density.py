"""Exact evaluation of density-derived bounds and tightness.

All arithmetic here is integer/rational; floating point is deliberately
absent because the interesting cases are exactly the ones where a ceiling
lands next to an integer. The degree-3 constant 21/250 is conjectural and
every consumer of it is expected to mark outputs accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .cayley import CayleyDigraph, diameter
from .errors import CayleyDenseError, ConjectureRefutation, InternalConsistencyError

Rational = Fraction


@dataclass(frozen=True)
class DensityConstant:
    degree: int
    delta: Fraction
    status: str  # "proven" | "conjectural"


REGISTRY = MappingProxyType(
    {
        1: DensityConstant(1, Fraction(1, 1), "proven"),
        2: DensityConstant(2, Fraction(1, 3), "proven"),
        3: DensityConstant(3, Fraction(21, 250), "conjectural"),
    }
)


def delta(d: int) -> Fraction:
    try:
        return REGISTRY[d].delta
    except KeyError:
        raise ValueError(f"no density constant registered for degree {d}") from None


def is_conjectural(d: int) -> bool:
    return REGISTRY[d].status == "conjectural" if d in REGISTRY else True


class _Infinite:
    """Marker for families whose every dilate stays tight."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


def floor_root(n: int, d: int) -> int:
    """Largest x >= 0 with x**d <= n, by integer Newton iteration."""
    if d < 1:
        raise ValueError("root degree must be positive")
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if d == 1:
        return n
    x = 1 << ((n.bit_length() - 1) // d + 1)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    return x


def ceil_root(r: Fraction | int, d: int) -> int:
    """Least integer x with x**d >= r, for rational r > 0; never touches floats."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radicand must be positive")
    c = -((-r.numerator) // r.denominator)  # ceil(r); x**d >= r iff x**d >= ceil(r)
    x = floor_root(c, d)
    return x if x**d == c else x + 1


def lower_bound(d: int, n: int) -> int:
    """Closed diameter lower bound for degree d and order n.

    ceil((n / Delta_d)^(1/d)) - d; for d = 3 the value rests on the
    conjectural constant and should be rendered with a prime mark.
    """
    if n < 1:
        raise ValueError("order must be positive")
    return ceil_root(n / delta(d), d) - d


def bound_violation(g: CayleyDigraph, what: str, bound) -> CayleyDenseError:
    """The error for a digraph that breaks its degree's bound, `what` being the
    value that breaks it and how ("diameter 5 below"): a ConjectureRefutation
    that carries g where the bound is conjectural, else an
    InternalConsistencyError, since a proven bound never fails."""
    d, n = g.degree, g.order
    if is_conjectural(d):
        return ConjectureRefutation(
            f"{what} the conjectural bound {bound} for d={d}, n={n}", witness=g.to_literal()
        )
    return InternalConsistencyError(f"{what} the proven bound {bound} for d={d}, n={n}: {g}")


def tightness(g: CayleyDigraph) -> int:
    """diameter - lower_bound; zero means the digraph is tight."""
    k = diameter(g)
    bound = lower_bound(g.degree, g.order)
    if k < bound:
        raise bound_violation(g, f"diameter {k} below", bound)
    return k - bound


def in_Cd(x: int, d: int) -> bool:
    """True iff Delta_d * x**d is an integer."""
    dd = delta(d)
    return (dd.numerator * x**d) % dd.denominator == 0


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def min_attaining_x(d: int) -> int:
    """Least positive integer x with Delta_d * x**d integral."""
    q = delta(d).denominator
    x = 1
    for p, a in _prime_factors(q).items():
        x *= p ** ((a + d - 1) // d)
    return x


def attains_maximum_order(d: int, n: int) -> bool:
    """True iff n = Delta_d * x**d for some positive integer x in C_d."""
    dd = delta(d)
    num = n * dd.denominator
    if num % dd.numerator:
        return False
    r = num // dd.numerator
    x = floor_root(r, d)
    return x**d == r  # q | x**d is then automatic since gcd(s, q) = 1


def tightness_coefficient(d: int, n: int):
    """Number of consecutive dilates of a tight digraph that stay tight.

    INFINITE exactly when n = Delta_d * x**d for integer x in C_d; otherwise
    the largest m such that every m' <= m satisfies the ceiling
    characterization ceil((m'**d * B)**(1/d)) = m'*X, with B = n / Delta_d and
    X = ceil(B**(1/d)). That holds exactly when (m'*X - 1)**d < m'**d * B,
    that is m'*(X - B**(1/d)) < 1, so the tight m' are 1..c. c is found in
    O(log c) probes, doubling m until a probe is not tight and then bisecting.
    At every probe, and at c and c + 1, the ceiling test is cross-checked
    against that exact inequality.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if attains_maximum_order(d, n):
        return INFINITE
    base = Fraction(n, 1) / delta(d)
    x1 = ceil_root(base, d)

    def tight(m: int) -> bool:
        ceiling = ceil_root(m**d * base, d) == m * x1
        closed = (m * x1 - 1) ** d * base.denominator < m**d * base.numerator
        if ceiling != closed:
            raise InternalConsistencyError(
                f"tightness coefficient cross-check failed at d={d}, n={n}, m={m}"
            )
        return ceiling

    lo, hi = 1, 2  # m = 1 is tight; hi is not known to be yet
    while tight(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # lo is tight and hi is not
        mid = (lo + hi) // 2
        if tight(mid):
            lo = mid
        else:
            hi = mid
    if not tight(lo) or tight(lo + 1):
        raise InternalConsistencyError(f"tightness coefficient of d={d}, n={n} is not {lo}")
    return lo


def max_order(d: int, k: int) -> int:
    """Largest order a degree-d digraph of diameter k can have: floor(Delta_d*(k+d)**d)."""
    if k < 0:
        raise ValueError("diameter must be nonnegative")
    dd = delta(d)
    return dd.numerator * (k + d) ** d // dd.denominator
