"""Command-line front end.

Every subcommand honors --format {human,csv,jsonl}. Exit codes: 0 success,
2 usage error (bad arguments, values out of range, unreadable files, an
order too large to hold in memory), 3 internal-consistency violation (a
proven bound failed, which must never happen), 4 conjecture-refutation
event (a degree-3 result beats the conjectural constant; the payload
carries the witness).
Degree-3 bound outputs rest on the conjectural constant 21/250 and are
always rendered with a prime mark (l', c', N').
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import density as density_mod
from . import kappa_search, mdd as mdd_mod, zmatrix
from .abelian import InvariantFactors
from .cayley import CayleyDigraph, diameter, dilate_digraph, solid_density, upsilon
from .errors import ConjectureRefutation, InternalConsistencyError

CACHE_ENV_VAR = "CAYLEYDENSE_CACHE"
GAPS_DEFAULT_LIMIT = 60
KAPPA_D3_LIMIT = 256

TABLE1_SEEDS = (
    CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11))),
    CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3))),
)
TABLE2_SEED = CayleyDigraph(
    InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
)
# table name -> (seeds, last m): the Dilating Method to one step past c(d, n)
TABLES = {"table1": (TABLE1_SEEDS, 4), "table2": ((TABLE2_SEED,), 5)}


@dataclass
class CommandResult:
    exit_code: int
    rows: list[dict]
    human: str
    fmt: str = "human"


def _int_rows(x) -> bool:
    """A JSON list of lists of integers; floats and bools are not integers here."""
    return isinstance(x, list) and all(
        isinstance(r, list) and all(type(v) is int for v in r) for r in x
    )


def _parse_matrix(text: str):
    """A nonempty rectangular list of integer rows; anything else is a usage error."""
    try:
        m = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
        m = None
    if not (_int_rows(m) and m and all(r and len(r) == len(m[0]) for r in m)):
        raise ValueError(f"cannot parse matrix literal: {text!r}")
    return tuple(tuple(row) for row in m)


def _parse_digraph(text: str) -> CayleyDigraph:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        obj = None
    if not (
        isinstance(obj, dict) and _int_rows([obj.get("moduli")]) and _int_rows(obj.get("gens"))
    ):
        raise ValueError(f"cannot parse digraph literal: {text!r}")
    extra = sorted(obj.keys() - {"moduli", "gens"})
    if extra:
        raise ValueError(f"digraph literal takes the keys moduli and gens only, not {extra}")
    return CayleyDigraph.from_literal(obj)


def _rat(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def _mat_str(m) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m) + "]"


def _bound_label(d: int, base: str) -> str:
    return base + ("'" if density_mod.is_conjectural(d) else "")


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def lshape_svg(shape: mdd_mod.LShape, cell: int = 24) -> str:
    pts = sorted(shape.cubes())
    height = shape.h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{shape.l * cell + 2}"'
        f' height="{height * cell + 2}" viewBox="0 0 {shape.l * cell + 2} {height * cell + 2}">'
    ]
    for x, y in pts:
        parts.append(
            f'<rect x="{1 + x * cell}" y="{1 + (height - 1 - y) * cell}"'
            f' width="{cell}" height="{cell}" fill="#9ecae1" stroke="#333"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def mdd_layers_text(h: mdd_mod.Mdd) -> str:
    """Per-layer rendering of a rank-3 diagram: one grid per z slice."""
    pts = h.points
    zs = sorted({a[2] for a in pts})
    max_x = max(a[0] for a in pts)
    max_y = max(a[1] for a in pts)
    blocks = []
    for z in zs:
        lines = [f"z={z}"]
        for y in range(max_y, -1, -1):
            lines.append(
                "".join("#" if (x, y, z) in pts else "." for x in range(max_x + 1))
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_mdd_file(h: mdd_mod.Mdd) -> str:
    lines = ["# " + json.dumps(h.source.to_literal(), sort_keys=True)]
    for a in sorted(h.points):
        lines.append(" ".join(str(x) for x in a))
    return "\n".join(lines) + "\n"


def read_mdd_file(text: str) -> mdd_mod.Mdd:
    source = None
    points = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if source is None:
                source = _parse_digraph(line[1:].strip())
            continue
        points.add(tuple(int(x) for x in line.split()))
    if source is None:
        raise ValueError("diagram file has no digraph header line")
    return mdd_mod.Mdd(points=frozenset(points), source=source)


def gaps_svg(rows: list[tuple[int, int]], cell: int = 6) -> str:
    max_gap = max(g for _, g in rows)
    h = (max_gap + 1) * 4 * cell + 20
    w = len(rows) * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    ]
    for i, (_, gap) in enumerate(rows):
        y = h - 10 - gap * 4 * cell
        parts.append(
            f'<circle cx="{10 + i * cell}" cy="{y}" r="2" fill="#333"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


# --- subcommand handlers -------------------------------------------------


def _cmd_snf(args) -> CommandResult:
    m = _parse_matrix(args.matrix)
    dec = zmatrix.smith_normal_form(m)
    ok = dec.S == zmatrix.mat_mul(zmatrix.mat_mul(dec.U, m), dec.V)
    row = {
        "S": _mat_str(dec.S),
        "U": _mat_str(dec.U),
        "V": _mat_str(dec.V),
        "verified": ok,
    }
    human = (
        f"S = {row['S']}\nU = {row['U']}\nV = {row['V']}\n"
        f"S = U*M*V verified: {ok}\n"
    )
    if not ok:
        raise InternalConsistencyError("Smith witness identity failed")
    return CommandResult(0, [row], human)


def _cmd_proper(args) -> CommandResult:
    m = _parse_matrix(args.matrix)
    group, gens = zmatrix.proper_generating_set(m)
    if group.order == 1:
        raise ValueError("an index-1 lattice gives the trivial group, which has no nonzero generators")
    for j, gen in enumerate(gens, 1):
        if not any(group.reduce(gen)):  # e_j maps to gen, so e_j lies in L
            raise ValueError(
                f"the lattice contains e_{j}, so generator {j} is zero in Z^{len(gens)}/L"
            )
    g = CayleyDigraph(group, gens)
    row = {"digraph": g.to_literal()}
    return CommandResult(0, [row], f"{g}\n")


def _cmd_diameter(args) -> CommandResult:
    g = _parse_digraph(args.digraph)
    k = diameter(g)
    return CommandResult(0, [{"diameter": k}], f"{k}\n")


def _cmd_density(args) -> CommandResult:
    g = _parse_digraph(args.digraph)
    d = g.degree
    value = solid_density(g)
    bound = density_mod.delta(d)
    if value > bound:
        raise density_mod.bound_violation(g, f"solid density {value} exceeds", bound)
    row = {
        "density": _rat(value),
        "bound": _rat(bound),
        "conjectural_bound": density_mod.is_conjectural(d),
    }
    human = f"density = {_rat(value)} (<= {_bound_label(d, 'Delta')}_{d} = {_rat(bound)})\n"
    return CommandResult(0, [row], human)


def _read_mdd(path: str):
    with open(path, encoding="utf-8") as fh:
        return read_mdd_file(fh.read())


def _verified_mdd(path: str):
    """The diagram in a file, checked first: render and dilate --mdd act only on a
    minimum distance diagram of its digraph, and exit 2 on anything else."""
    h = _read_mdd(path)
    if not mdd_mod.verify_mdd(h):
        raise ValueError(f"{path} holds no minimum distance diagram of its digraph")
    return h


def _cmd_mdd(args) -> CommandResult:
    if args.action == "build":
        g = _parse_digraph(args.digraph)
        h = mdd_mod.build_mdd(g)
        content = write_mdd_file(h)
        _emit(args.out, content)
        return CommandResult(0, [{"points": len(h.points)}], "")
    if args.action == "verify":
        ok = mdd_mod.verify_mdd(_read_mdd(args.digraph))
        return CommandResult(0, [{"valid": ok}], f"{str(ok).lower()}\n")
    h = _verified_mdd(args.digraph)  # render
    if h.source.degree == 2:
        content = lshape_svg(mdd_mod.extract_lshape(h))
    elif h.source.degree == 3:
        content = mdd_layers_text(h)
    else:
        raise ValueError("rendering supports degree 2 (SVG) and 3 (layers) only")
    _emit(args.out, content)
    return CommandResult(0, [{"rendered": True}], "")


def _cmd_dilate(args) -> CommandResult:
    if args.mdd:
        out = mdd_mod.dilate_mdd(_verified_mdd(args.digraph), args.m)
        _emit(args.out, write_mdd_file(out))
        return CommandResult(0, [{"points": len(out.points)}], "")
    g = _parse_digraph(args.digraph)
    out = dilate_digraph(g, args.m, strict=args.strict)
    row = {"digraph": out.to_literal()}
    return CommandResult(0, [row], f"{out}\n")


def _cmd_bound(args) -> CommandResult:
    if (args.n is None) == (args.k is None):
        raise ValueError("bound: give exactly one of -n (lower bound) or -k (max order)")
    kind, key, base = ("lower_bound", "n", "l") if args.k is None else ("max_order", "k", "N")
    arg = getattr(args, key)
    value = getattr(density_mod, kind)(args.d, arg)  # density.lower_bound or .max_order
    row = {
        "kind": kind,
        "d": args.d,
        key: arg,
        "value": value,
        "conjectural": density_mod.is_conjectural(args.d),
    }
    return CommandResult(0, [row], f"{_bound_label(args.d, base)}({args.d},{arg}) = {value}\n")


def _cmd_tight(args) -> CommandResult:
    if args.what == "value":
        g = _parse_digraph(args.digraph)
        t = density_mod.tightness(g)
        row = {"tightness": t, "conjectural": density_mod.is_conjectural(g.degree)}
        return CommandResult(0, [row], f"{_bound_label(g.degree, 't')} = {t}\n")
    conj = density_mod.is_conjectural(args.d)
    if args.what == "coeff":
        c = density_mod.tightness_coefficient(args.d, args.n)
        label = _bound_label(args.d, "c")
        value = "INFINITE" if c is density_mod.INFINITE else c
        row = {"coefficient": value, "conjectural": conj}
        return CommandResult(0, [row], f"{label}({args.d},{args.n}) = {value}\n")
    if args.what == "cd":
        member = density_mod.in_Cd(args.x, args.d)
        row = {"x": args.x, "in_Cd": member, "conjectural": conj}
        return CommandResult(0, [row], f"{str(member).lower()}\n")
    # xd
    x = density_mod.min_attaining_x(args.d)
    row = {"min_x": x, "conjectural": conj}
    return CommandResult(0, [row], f"x_{args.d} = {x}\n")


def _cache_from(args) -> kappa_search.KappaCache | None:
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    return kappa_search.KappaCache(path) if path else None


def _cmd_kappa(args) -> CommandResult:
    if args.d == 3 and args.n > KAPPA_D3_LIMIT and not args.long_running:
        raise ValueError(
            f"kappa(3, n > {KAPPA_D3_LIMIT}) is not a desk-scale default; "
            "rerun with --long-running"
        )
    spec = kappa_search.SearchSpec(d=args.d, n=args.n, worker_count=args.jobs)
    rec = kappa_search.kappa(spec, cache=_cache_from(args))
    human = (
        f"kappa({args.d},{args.n}) = {rec.kappa}\n"
        f"witness: {CayleyDigraph.from_literal(rec.witness)}\n"
    )
    return CommandResult(0, [asdict(rec)], human)


def _cmd_gaps(args) -> CommandResult:
    if args.n_to > GAPS_DEFAULT_LIMIT and not args.long_running:
        raise ValueError(
            f"gap ranges beyond n = {GAPS_DEFAULT_LIMIT} are not desk-scale defaults; "
            "rerun with --long-running"
        )
    rows = kappa_search.gap_table(args.d, args.n_from, args.n_to, args.jobs, _cache_from(args))
    label = _bound_label(args.d, "l")
    payload = [{"n": n, "gap": gap} for n, gap in rows]
    human = _render_table(
        ["n", f"kappa-{label}"], [[str(n), str(g)] for n, g in rows]
    )
    result = CommandResult(0, payload, human)
    if args.csv_out:
        _emit(args.csv_out, _render(result, "csv"))
    if args.svg_out:
        _emit(args.svg_out, gaps_svg(rows))
    return result


def _cmd_table(args) -> CommandResult:
    """Each seed's m-th dilate, its diameter k and l(d, n), for m = 1, ..., last."""
    seeds, last = TABLES[args.command]
    d = seeds[0].degree
    rows = []
    for m in range(1, last + 1):
        for seed in seeds:
            g = dilate_digraph(seed, m)
            row = {"m": m, "n": g.order, "digraph": str(g)}
            if d == 2:
                row["lshape"] = str(mdd_mod.extract_lshape(mdd_mod.build_mdd(g)))
            row["k"] = diameter(g)
            row["lower_bound"] = density_mod.lower_bound(d, g.order)
            if density_mod.is_conjectural(d):
                row["conjectural"] = True
            rows.append(row)
    keys = [key for key in rows[0] if key != "conjectural"]
    labels = {"lshape": "L-shape", "lower_bound": f"{_bound_label(d, 'l')}({d},n)"}
    human = _render_table(
        [labels.get(key, key) for key in keys], [[str(r[key]) for key in keys] for r in rows]
    )
    return CommandResult(0, rows, human)


def _cmd_upsilon(args) -> CommandResult:
    g = upsilon(args.d, args.m)
    k = diameter(g)
    dens = solid_density(g)
    row = {
        "digraph": g.to_literal(),
        "diameter": k,
        "density": _rat(dens),
        "conjectural": density_mod.is_conjectural(args.d),
    }
    human = f"{g}\nk = {k}\ndensity = {_rat(dens)}\n"
    return CommandResult(0, [row], human)


# --- parser / dispatch ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayleydense",
        description="Exact diameter, density and tightness tools for Cayley digraphs "
        "on finite Abelian groups.",
    )
    p.add_argument(
        "--format",
        choices=("human", "csv", "jsonl"),
        default="human",
        help="output rendering (default: human)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("snf", help="Smith normal form with unimodular witnesses")
    s.add_argument("matrix", help='matrix literal, e.g. "[[2,-1],[-1,2]]"')
    s.set_defaults(handler=_cmd_snf)

    s = sub.add_parser("proper", help="derive a proper generating set from a lattice basis")
    s.add_argument("matrix")
    s.set_defaults(handler=_cmd_proper)

    s = sub.add_parser("diameter", help="BFS diameter of a digraph literal")
    s.add_argument("digraph", help='e.g. \'{"moduli":[3,24],"gens":[[0,1],[-1,3]]}\'')
    s.set_defaults(handler=_cmd_diameter)

    s = sub.add_parser("density", help="exact solid density n/(k+d)^d")
    s.add_argument("digraph")
    s.set_defaults(handler=_cmd_density)

    s = sub.add_parser("mdd", help="build/verify/render minimum distance diagrams")
    s.add_argument("action", choices=("build", "verify", "render"))
    s.add_argument("digraph", help="digraph literal (build) or diagram file (verify/render)")
    s.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    s.set_defaults(handler=_cmd_mdd)

    s = sub.add_parser("dilate", help="dilate a digraph or a diagram file")
    s.add_argument("digraph", help="digraph literal, or diagram file with --mdd")
    s.add_argument("-m", type=int, required=True, help="dilation factor (>= 1)")
    s.add_argument("--mdd", action="store_true", help="treat the argument as a diagram file")
    s.add_argument("--strict", action="store_true", help="refuse lifts that are not unimodular")
    s.add_argument("-o", "--out", default=None)
    s.set_defaults(handler=_cmd_dilate)

    s = sub.add_parser("bound", help="closed lower bound (by -n) or max order (by -k)")
    s.add_argument("-d", type=int, required=True)
    s.add_argument("-n", type=int, default=None)
    s.add_argument("-k", type=int, default=None)
    s.set_defaults(handler=_cmd_bound)

    s = sub.add_parser("tight", help="tightness values and the tightness coefficient")
    tsub = s.add_subparsers(dest="what", required=True)
    t = tsub.add_parser("value", help="tightness of a digraph literal")
    t.add_argument("digraph")
    t.set_defaults(handler=_cmd_tight, what="value")
    t = tsub.add_parser("coeff", help="tightness coefficient c(d,n)")
    t.add_argument("-d", type=int, required=True)
    t.add_argument("-n", type=int, required=True)
    t.set_defaults(handler=_cmd_tight, what="coeff")
    t = tsub.add_parser("cd", help="membership of x in C_d")
    t.add_argument("-d", type=int, required=True)
    t.add_argument("-x", type=int, required=True)
    t.set_defaults(handler=_cmd_tight, what="cd")
    t = tsub.add_parser("xd", help="least integer x with Delta_d * x^d integral")
    t.add_argument("-d", type=int, required=True)
    t.set_defaults(handler=_cmd_tight, what="xd")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("-d", type=int, required=True)
    search.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most one per CPU this process may run on: they shard a lattice "
        "pass by HNF diagonal and b21, or search whole orders of a gaps sweep, and none start "
        f"unless a pass or a sweep's largest order holds {kappa_search.POOL_MIN_HNFS:,} HNFs",
    )
    search.add_argument("--cache", default=None, help=f"cache path (or ${CACHE_ENV_VAR})")
    search.add_argument("--long-running", action="store_true")

    s = sub.add_parser("kappa", parents=[search], help="exhaustive minimum diameter search")
    s.add_argument("-n", type=int, required=True)
    s.set_defaults(handler=_cmd_kappa)

    s = sub.add_parser(
        "gaps", parents=[search], help="kappa minus the lower bound over an order range"
    )
    s.add_argument("--from", dest="n_from", type=int, required=True)
    s.add_argument("--to", dest="n_to", type=int, required=True)
    s.add_argument("--csv-out", default=None, help="write a two-column n,gap CSV")
    s.add_argument("--svg-out", default=None, help="write a point-plot SVG")
    s.set_defaults(handler=_cmd_gaps)

    s = sub.add_parser("table1", help="dilation table for the two order-72 degree-2 seeds")
    s.set_defaults(handler=_cmd_table)

    s = sub.add_parser("table2", help="dilation table for the order-16 degree-3 seed")
    s.set_defaults(handler=_cmd_table)

    s = sub.add_parser("upsilon", help="extremal-density family member")
    s.add_argument("-d", type=int, required=True, choices=(2, 3))
    s.add_argument("-m", type=int, required=True)
    s.set_defaults(handler=_cmd_upsilon)

    return p


def _render(result: CommandResult, fmt: str) -> str:
    if fmt == "human":
        return result.human
    if fmt == "jsonl":
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.rows)
    out = io.StringIO()
    if result.rows:
        writer = csv.DictWriter(out, fieldnames=list(result.rows[0].keys()))
        writer.writeheader()
        for row in result.rows:
            writer.writerow(
                {
                    k: json.dumps(v, sort_keys=True)
                    if isinstance(v, (dict, list))
                    else v
                    for k, v in row.items()
                }
            )
    return out.getvalue()


def run(argv: list[str] | None = None) -> CommandResult:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except ConjectureRefutation as exc:
        payload = {"error": str(exc), "witness": exc.witness}
        result = CommandResult(4, [payload], f"CONJECTURE REFUTATION: {exc}\n")
    except InternalConsistencyError as exc:
        result = CommandResult(3, [{"error": str(exc)}], f"INTERNAL CONSISTENCY: {exc}\n")
    except (ValueError, OSError, OverflowError, MemoryError) as exc:  # bad values, files, sizes
        message = " ".join(str(exc).split())
        if isinstance(exc, (OverflowError, MemoryError)):
            message = f"too large to hold in memory ({type(exc).__name__})"
        result = CommandResult(2, [{"error": message}], f"error: {message}\n")
    result.fmt = args.format
    return result


def main(argv: list[str] | None = None) -> int:
    try:
        result = run(argv)
    except SystemExit as exc:  # argparse: --help, or a malformed command line
        return exc.code if exc.code is not None else 0
    sys.stdout.write(_render(result, result.fmt))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
