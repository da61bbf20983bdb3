"""Command-line front end.

Every subcommand honors --format {human,csv,jsonl}. Exit codes: 0 success,
2 usage error (bad arguments, values out of range, unreadable files),
3 internal-consistency violation (a proven bound failed,
which must never happen), 4 conjecture-refutation event (a degree-3 result
beats the conjectural constant; the payload carries the witness).
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
from dataclasses import dataclass
from fractions import Fraction

from . import density as density_mod
from . import kappa_search, mdd as mdd_mod, zmatrix
from .abelian import InvariantFactors
from .cayley import CayleyDigraph, diameter, dilate_digraph, solid_density, upsilon
from .errors import ConjectureRefutation, InternalConsistencyError

CACHE_ENV_VAR = "CAYLEYDENSE_CACHE"
GAPS_DEFAULT_LIMIT = 60
KAPPA_D3_LIMIT = 128

TABLE1_SEEDS = (
    CayleyDigraph(InvariantFactors((1, 72)), ((-1, 4), (-3, 11))),
    CayleyDigraph(InvariantFactors((3, 24)), ((0, 1), (-1, 3))),
)
TABLE2_SEED = CayleyDigraph(
    InvariantFactors((1, 1, 16)), ((0, 0, 1), (0, 1, -12), (1, 0, -11))
)


@dataclass
class CommandResult:
    exit_code: int
    rows: list[dict]
    human: str
    fmt: str = "human"


def _parse_matrix(text: str):
    """A nonempty rectangular list of integer rows; anything else is a usage error."""
    try:
        m = json.loads(text)
    except json.JSONDecodeError:
        m = None
    if not (
        isinstance(m, list)
        and m
        and all(isinstance(r, list) and r and len(r) == len(m[0]) for r in m)
        and all(type(x) is int for r in m for x in r)
    ):
        raise ValueError(f"cannot parse matrix literal: {text!r}")
    return tuple(tuple(row) for row in m)


def _parse_digraph(text: str) -> CayleyDigraph:
    try:
        return CayleyDigraph.from_literal(text)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse digraph literal: {text!r} ({exc})")


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


def render_gaps_csv(rows: list[tuple[int, int]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "gap"])
    for n, gap in rows:
        writer.writerow([n, gap])
    return out.getvalue()


def gaps_svg(rows: list[tuple[int, int]], cell: int = 6) -> str:
    if not rows:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>\n'
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
        if density_mod.is_conjectural(d):
            raise ConjectureRefutation(
                f"solid density {value} exceeds the conjectural bound {bound}",
                witness=g.to_literal(),
            )
        raise InternalConsistencyError(
            f"solid density {value} exceeds the proven bound {bound}"
        )
    row = {
        "density": _rat(value),
        "bound": _rat(bound),
        "conjectural_bound": density_mod.is_conjectural(d),
    }
    mark = "'" if density_mod.is_conjectural(d) else ""
    human = f"density = {_rat(value)} (<= Delta{mark}_{d} = {_rat(bound)})\n"
    return CommandResult(0, [row], human)


def _cmd_mdd(args) -> CommandResult:
    if args.action == "build":
        g = _parse_digraph(args.digraph)
        h = mdd_mod.build_mdd(g)
        content = write_mdd_file(h)
        _emit(args.out, content)
        return CommandResult(0, [{"points": len(h.points)}], "")
    with open(args.digraph, encoding="utf-8") as fh:
        h = read_mdd_file(fh.read())
    if args.action == "verify":
        ok = mdd_mod.verify_mdd(h)
        return CommandResult(0, [{"valid": ok}], f"{str(ok).lower()}\n")
    # render
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
        with open(args.digraph, encoding="utf-8") as fh:
            h = read_mdd_file(fh.read())
        out = mdd_mod.dilate_mdd(h, args.m)
        _emit(args.out, write_mdd_file(out))
        return CommandResult(0, [{"points": len(out.points)}], "")
    g = _parse_digraph(args.digraph)
    out = dilate_digraph(g, args.m, strict=args.strict)
    row = {"digraph": out.to_literal()}
    return CommandResult(0, [row], f"{out}\n")


def _cmd_bound(args) -> CommandResult:
    if (args.n is None) == (args.k is None):
        raise ValueError("bound: give exactly one of -n (lower bound) or -k (max order)")
    if args.n is not None:
        value = density_mod.lower_bound(args.d, args.n)
        label = _bound_label(args.d, "l")
        row = {
            "kind": "lower_bound",
            "d": args.d,
            "n": args.n,
            "value": value,
            "conjectural": density_mod.is_conjectural(args.d),
        }
        return CommandResult(0, [row], f"{label}({args.d},{args.n}) = {value}\n")
    value = density_mod.max_order(args.d, args.k)
    label = _bound_label(args.d, "N")
    row = {
        "kind": "max_order",
        "d": args.d,
        "k": args.k,
        "value": value,
        "conjectural": density_mod.is_conjectural(args.d),
    }
    return CommandResult(0, [row], f"{label}({args.d},{args.k}) = {value}\n")


def _cmd_tight(args) -> CommandResult:
    if args.what == "value":
        g = _parse_digraph(args.digraph)
        t = density_mod.tightness(g)
        mark = "'" if density_mod.is_conjectural(g.degree) else ""
        row = {"tightness": t, "conjectural": density_mod.is_conjectural(g.degree)}
        return CommandResult(0, [row], f"t{mark} = {t}\n")
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
    spec = kappa_search.SearchSpec(
        d=args.d,
        n=args.n,
        prune_with_lower_bound=not args.no_prune,
        symmetry_level=args.symmetry,
        worker_count=args.jobs,
        conjectural_prune=args.prune_conjectural,
    )
    rec = kappa_search.kappa(spec, cache=_cache_from(args))
    row = {
        "d": rec.d,
        "n": rec.n,
        "kappa": rec.kappa,
        "witness": rec.witness,
        "millis": rec.millis,
    }
    human = (
        f"kappa({args.d},{args.n}) = {rec.kappa}\n"
        f"witness: {CayleyDigraph.from_literal(rec.witness)}\n"
    )
    return CommandResult(0, [row], human)


def _cmd_gaps(args) -> CommandResult:
    if args.n_from < 2:
        raise ValueError("gaps: the order range must start at n >= 2")
    if args.n_to > GAPS_DEFAULT_LIMIT and not args.long_running:
        raise ValueError(
            f"gap ranges beyond n = {GAPS_DEFAULT_LIMIT} are not desk-scale defaults; "
            "rerun with --long-running"
        )
    template = kappa_search.SearchSpec(
        d=args.d,
        n=max(args.n_from, 2),
        prune_with_lower_bound=not args.no_prune,
        symmetry_level=args.symmetry,
        worker_count=args.jobs,
        conjectural_prune=args.prune_conjectural,
    )
    rows = kappa_search.gap_table(
        args.d, args.n_from, args.n_to, spec_template=template, cache=_cache_from(args)
    )
    if args.csv_out:
        _emit(args.csv_out, render_gaps_csv(rows))
    if args.svg_out:
        _emit(args.svg_out, gaps_svg(rows))
    label = _bound_label(args.d, "l")
    payload = [{"n": n, "gap": gap} for n, gap in rows]
    human = _render_table(
        ["n", f"kappa-{label}"], [[str(n), str(g)] for n, g in rows]
    )
    return CommandResult(0, payload, human)


def _table1_rows() -> list[dict]:
    rows = []
    for m in range(1, 5):
        for seed in TABLE1_SEEDS:
            g = dilate_digraph(seed, m)
            shape = mdd_mod.extract_lshape(mdd_mod.build_mdd(g))
            rows.append(
                {
                    "m": m,
                    "n": g.order,
                    "digraph": str(g),
                    "lshape": str(shape),
                    "k": diameter(g),
                    "lower_bound": density_mod.lower_bound(2, g.order),
                }
            )
    return rows


def _cmd_table1(args) -> CommandResult:
    rows = _table1_rows()
    human = _render_table(
        ["m", "n", "digraph", "L-shape", "k", "l(2,n)"],
        [
            [str(r["m"]), str(r["n"]), r["digraph"], r["lshape"], str(r["k"]), str(r["lower_bound"])]
            for r in rows
        ],
    )
    return CommandResult(0, rows, human)


def _table2_rows() -> list[dict]:
    rows = []
    for m in range(1, 6):
        g = dilate_digraph(TABLE2_SEED, m)
        rows.append(
            {
                "m": m,
                "n": g.order,
                "digraph": str(g),
                "k": diameter(g),
                "lower_bound": density_mod.lower_bound(3, g.order),
                "conjectural": True,
            }
        )
    return rows


def _cmd_table2(args) -> CommandResult:
    rows = _table2_rows()
    human = _render_table(
        ["m", "n", "digraph", "k", "l'(3,n)"],
        [
            [str(r["m"]), str(r["n"]), r["digraph"], str(r["k"]), str(r["lower_bound"])]
            for r in rows
        ],
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

    s = sub.add_parser("kappa", help="exhaustive minimum diameter search")
    s.add_argument("-d", type=int, required=True)
    s.add_argument("-n", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1, help="worker processes")
    s.add_argument("--symmetry", choices=kappa_search.SYMMETRY_LEVELS, default="units")
    s.add_argument("--no-prune", action="store_true", help="disable the lower-bound early exit")
    s.add_argument(
        "--prune-conjectural",
        action="store_true",
        help="let d=3 prune against the conjectural bound (off by default)",
    )
    s.add_argument("--cache", default=None, help=f"cache path (or ${CACHE_ENV_VAR})")
    s.add_argument("--long-running", action="store_true")
    s.set_defaults(handler=_cmd_kappa)

    s = sub.add_parser("gaps", help="kappa minus the lower bound over an order range")
    s.add_argument("-d", type=int, required=True)
    s.add_argument("--from", dest="n_from", type=int, required=True)
    s.add_argument("--to", dest="n_to", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--symmetry", choices=kappa_search.SYMMETRY_LEVELS, default="units")
    s.add_argument("--no-prune", action="store_true")
    s.add_argument("--prune-conjectural", action="store_true")
    s.add_argument("--cache", default=None)
    s.add_argument("--csv-out", default=None, help="write a two-column n,gap CSV")
    s.add_argument("--svg-out", default=None, help="write a point-plot SVG")
    s.add_argument("--long-running", action="store_true")
    s.set_defaults(handler=_cmd_gaps)

    s = sub.add_parser("table1", help="dilation table for the two order-72 degree-2 seeds")
    s.set_defaults(handler=_cmd_table1)

    s = sub.add_parser("table2", help="dilation table for the order-16 degree-3 seed")
    s.set_defaults(handler=_cmd_table2)

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
    except (ValueError, OSError) as exc:  # out-of-range values, unreadable files
        message = " ".join(str(exc).split())
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
