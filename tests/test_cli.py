import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cayleydense.cli import (
    TABLES,
    _render,
    build_parser,
    main,
    read_mdd_file,
    run,
    write_mdd_file,
)
from cayleydense.mdd import build_mdd
from cayleydense.cayley import upsilon
from cayleydense.density import tightness_coefficient

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def _human(argv):
    result = run(argv)
    assert result.exit_code == 0, result.human
    return result.human


def _assert_table_golden(name):
    """The human table, its jsonl rows and its csv (CRLF rows, so read as bytes)."""
    assert _human([name]) == (GOLDEN / f"{name}.txt").read_text()
    for fmt in ("jsonl", "csv"):
        result = run(["--format", fmt, name])
        assert _render(result, fmt) == (GOLDEN / f"{name}.{fmt}").read_bytes().decode()


def test_table1_matches_golden():
    _assert_table_golden("table1")


def test_table2_matches_golden():
    _assert_table_golden("table2")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tables_stop_one_step_past_the_tightness_coefficient(name):
    """The Dilating Method keeps k = l(d, n) for m <= c(d, n) and loses it at m = c + 1."""
    seeds, last = TABLES[name]
    d, n = seeds[0].degree, seeds[0].order
    c = tightness_coefficient(d, n)
    assert all(seed.degree == d and seed.order == n for seed in seeds)
    assert last == c + 1
    rows = run(["--format", "jsonl", name]).rows
    assert [r["m"] for r in rows] == [m for m in range(1, last + 1) for _ in seeds]
    assert all(r["k"] == r["lower_bound"] for r in rows if r["m"] <= c)
    assert all(r["k"] > r["lower_bound"] for r in rows if r["m"] == last)


SEED2 = '{"moduli":[1,72],"gens":[[-1,4],[-3,11]]}'
SEED3 = '{"moduli":[1,1,16],"gens":[[0,0,1],[0,1,-12],[1,0,-11]]}'


@pytest.mark.parametrize(
    "argv, jsonl, csv",
    [
        (
            ["bound", "-d", "2", "-n", "72"],
            '{"conjectural": false, "d": 2, "kind": "lower_bound", "n": 72, "value": 13}\n',
            "kind,d,n,value,conjectural\r\nlower_bound,2,72,13,False\r\n",
        ),
        (
            ["bound", "-d", "3", "-k", "7"],
            '{"conjectural": true, "d": 3, "k": 7, "kind": "max_order", "value": 84}\n',
            "kind,d,k,value,conjectural\r\nmax_order,3,7,84,True\r\n",
        ),
        (
            ["kappa", "-d", "2", "-n", "12"],
            '{"d": 2, "kappa": 4, "millis": 0, "n": 12,'
            ' "witness": {"gens": [[0, 1], [1, 2]], "moduli": [2, 6]}}\n',
            'd,n,kappa,witness,millis\r\n'
            '2,12,4,"{""gens"": [[0, 1], [1, 2]], ""moduli"": [2, 6]}",0\r\n',
        ),
        (
            ["density", SEED2],
            '{"bound": "1/3", "conjectural_bound": false, "density": "8/25"}\n',
            "density,bound,conjectural_bound\r\n8/25,1/3,False\r\n",
        ),
        (
            ["density", SEED3],
            '{"bound": "21/250", "conjectural_bound": true, "density": "2/27"}\n',
            "density,bound,conjectural_bound\r\n2/27,21/250,True\r\n",
        ),
        (
            ["tight", "value", SEED2],
            '{"conjectural": false, "tightness": 0}\n',
            "tightness,conjectural\r\n0,False\r\n",
        ),
        (
            ["tight", "value", SEED3],
            '{"conjectural": true, "tightness": 0}\n',
            "tightness,conjectural\r\n0,True\r\n",
        ),
    ],
)
def test_machine_rows_pinned(argv, jsonl, csv):
    """The jsonl and csv bytes of single-row commands; a kappa row's millis reads 0."""
    for fmt, want in (("jsonl", jsonl), ("csv", csv)):
        result = run(["--format", fmt, *argv])
        assert result.exit_code == 0, result.human
        (row,) = result.rows
        if "millis" in row:
            row["millis"] = 0
        assert _render(result, fmt) == want


def test_bound_examples():
    assert _human(["bound", "-d", "2", "-n", "72"]) == "l(2,72) = 13\n"
    assert _human(["bound", "-d", "3", "-n", "2000"]) == "l'(3,2000) = 26\n"
    assert _human(["bound", "-d", "3", "-k", "7"]) == "N'(3,7) = 84\n"


def test_tight_subcommands():
    assert _human(["tight", "coeff", "-d", "2", "-n", "72"]) == "c(2,72) = 3\n"
    assert _human(["tight", "coeff", "-d", "3", "-n", "16"]) == "c'(3,16) = 4\n"
    assert _human(["tight", "coeff", "-d", "2", "-n", "3"]) == "c(2,3) = INFINITE\n"
    assert _human(["tight", "xd", "-d", "3"]) == "x_3 = 10\n"
    assert _human(["tight", "cd", "-d", "2", "-x", "3"]) == "true\n"


def test_diameter_and_density():
    literal = '{"moduli":[1,3],"gens":[[0,1],[1,-1]]}'
    assert _human(["diameter", literal]) == "1\n"
    assert "1/3" in _human(["density", literal])


def test_snf_and_proper():
    out = _human(["snf", "[[2,-1],[-1,2]]"])
    assert "S = [[1,0],[0,3]]" in out and "verified: True" in out
    assert _human(["proper", "[[2,-1],[-1,2]]"]).startswith("Cay(Z1+Z3,")


def test_formats_roundtrip():
    literal = '{"moduli":[1,3],"gens":[[0,1],[1,-1]]}'
    result = run(["--format", "jsonl", "diameter", literal])
    assert result.fmt == "jsonl"
    rows = [json.loads(line) for line in _render_lines(result)]
    assert rows == [{"diameter": 1}]
    result = run(["--format", "csv", "gaps", "-d", "2", "--from", "3", "--to", "6"])
    lines = _render_lines(result)
    assert lines[0] == "n,gap"
    assert lines[1].startswith("3,")


def _render_lines(result):
    return _render(result, result.fmt).strip().splitlines()


def test_mdd_file_roundtrip(tmp_path):
    h = build_mdd(upsilon(2, 1))
    text = write_mdd_file(h)
    back = read_mdd_file(text)
    assert back.points == h.points
    assert back.source == h.source


def test_mdd_cli_cycle(tmp_path, capsys):
    literal = '{"moduli":[1,3],"gens":[[0,1],[1,-1]]}'
    target = tmp_path / "u2.mdd"
    assert main(["mdd", "build", literal, "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["mdd", "verify", str(target)]) == 0
    assert capsys.readouterr().out == "true\n"
    svg = tmp_path / "u2.svg"
    assert main(["mdd", "render", str(target), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_mdd_verify_cli_reports_hand_edited_failure(tmp_path, capsys):
    literal = '{"moduli":[1,3],"gens":[[0,1],[1,-1]]}'
    target = tmp_path / "u2.mdd"
    assert main(["mdd", "build", literal, "-o", str(target)]) == 0
    capsys.readouterr()
    text = target.read_text()
    assert text.splitlines()[1:] == ["0 0", "0 1", "1 0"]
    # (2, 0) reaches 2*g1 = g2, which is one step from 0, not two
    target.write_text(text.replace("0 1\n", "2 0\n"))
    assert main(["mdd", "verify", str(target)]) == 0
    assert capsys.readouterr().out == "false\n"


def test_mdd_render_layers(tmp_path, capsys):
    literal = '{"moduli":[1,1,16],"gens":[[0,0,1],[0,1,-12],[1,0,-11]]}'
    target = tmp_path / "g.mdd"
    assert main(["mdd", "build", literal, "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["mdd", "render", str(target)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z=0") and "#" in out


def test_dilate_cli(capsys):
    literal = '{"moduli":[3,24],"gens":[[0,1],[-1,3]]}'
    assert main(["dilate", "-m", "2", literal]) == 0
    assert capsys.readouterr().out == "Cay(Z6+Z48,{(0,1),(-1,3)})\n"


def test_dilate_strict_cli_refuses_non_unimodular_lifts(capsys):
    literal = '{"moduli":[1,5],"gens":[[0,1],[0,2]]}'
    assert main(["--format", "jsonl", "dilate", "-m", "2", "--strict", literal]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert "not unimodular" in json.loads(line)["error"]


def test_dilate_mdd_cli(tmp_path, capsys):
    literal = '{"moduli":[1,3],"gens":[[0,1],[1,-1]]}'
    target = tmp_path / "u2.mdd"
    main(["mdd", "build", literal, "-o", str(target)])
    capsys.readouterr()
    out_path = tmp_path / "u2x2.mdd"
    assert main(["dilate", "--mdd", "-m", "2", str(target), "-o", str(out_path)]) == 0
    assert len(read_mdd_file(out_path.read_text()).points) == 12
    assert main(["dilate", "--mdd", "-m", "0", str(target), "-o", str(out_path)]) == 2


def test_dilate_mdd_refuses_a_file_that_holds_no_diagram(tmp_path, capsys):
    """dilate --mdd verifies the diagram first, as mdd render does: a header with no
    points, or a point with too few coordinates, exits 2 with one error row, through
    cli.run and main, and writes no dilate."""
    header = "# " + json.dumps(upsilon(2, 1).to_literal(), separators=(",", ":")) + "\n"
    empty = tmp_path / "empty.mdd"
    empty.write_text(header)
    short = tmp_path / "short.mdd"
    short.write_text(header + "".join(f"{x}\n" for x in range(upsilon(2, 1).order)))
    out_path = tmp_path / "out.mdd"
    for path in (empty, short):
        argv = ["dilate", "--mdd", "-m", "2", str(path), "-o", str(out_path)]
        result = run(argv)
        assert result.exit_code == 2 and len(result.rows) == 1, path
        assert set(result.rows[0]) == {"error"} and str(path) in result.rows[0]["error"]
        assert main(["--format", "jsonl"] + argv) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert set(json.loads(line)) == {"error"}
        assert not out_path.exists()


def test_gaps_csv_and_svg(tmp_path):
    csv_path = tmp_path / "gaps.csv"
    svg_path = tmp_path / "gaps.svg"
    result = run(
        [
            "gaps",
            "-d",
            "2",
            "--from",
            "3",
            "--to",
            "12",
            "--csv-out",
            str(csv_path),
            "--svg-out",
            str(svg_path),
        ]
    )
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,gap"
    assert len(lines) == 11
    assert svg_path.read_text().startswith("<svg")
    shown = run(["--format", "csv", "gaps", "-d", "2", "--from", "3", "--to", "12"])
    with open(csv_path, newline="") as fh:
        assert fh.read() == _render(shown, shown.fmt)


def test_usage_errors_exit_2(capsys):
    assert main(["bound", "-d", "2"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nonsense"])
    assert exc.value.code == 2
    # the witness scan takes every set; there is no symmetry level to choose
    assert main(["kappa", "-d", "2", "-n", "12", "--symmetry", "units"]) == 2
    assert "unrecognized arguments: --symmetry" in capsys.readouterr().err
    # whether a search stops at the bound follows from whether the bound is proven
    assert main(["kappa", "-d", "2", "-n", "12", "--no-prune"]) == 2
    assert "unrecognized arguments: --no-prune" in capsys.readouterr().err
    assert main(["gaps", "-d", "3", "--from", "4", "--to", "8", "--prune-conjectural"]) == 2
    assert "unrecognized arguments: --prune-conjectural" in capsys.readouterr().err


BAD_MATRIX_LITERALS = [
    '{"a":1}',  # not a list
    "[]",  # empty
    "[[]]",  # empty row
    "[1,2]",  # rows are not lists
    "[[1,2],[3]]",  # ragged
    '[[1,"x"]]',  # non-integer entry
    "[[1.5,2],[0,1]]",  # a float would be truncated
    "[[2.0,0],[0,1]]",
    "[[true,0],[0,1]]",  # bools are not integers
    "not json",
    "[" * 100000,  # nested past the recursion limit
]


@pytest.mark.parametrize("command", ["snf", "proper"])
def test_bad_matrix_literals_exit_2(command, capsys):
    for literal in BAD_MATRIX_LITERALS:
        assert main(["--format", "jsonl", command, literal]) == 2, literal
        out = capsys.readouterr().out
        assert json.loads(out) == {"error": f"cannot parse matrix literal: {literal!r}"}


VALUE_ERROR_PROBES = [
    ["snf", "[[1,2,3]]"],  # not square
    ["snf", "not json"],
    ["proper", "[[2,0],[0,0]]"],  # singular
    ["bound", "-d", "4", "-n", "10"],  # no density constant for degree 4
    ["bound", "-d", "2", "-n", "0"],
    ["tight", "coeff", "-d", "2", "-n", "0"],
    ["dilate", "-m", "0", '{"moduli":[3],"gens":[[1]]}'],
    ["kappa", "-d", "3", "-n", "1"],
    ["gaps", "-d", "2", "--from", "10", "--to", "5"],  # empty range
    # options reordered so that each probe's id (its first two words) is new
    ["gaps", "--from", "1", "--to", "5", "-d", "2"],
    ["gaps", "--to", "61", "--from", "3", "-d", "2"],  # needs --long-running
    ["kappa", "-n", "257", "-d", "3"],  # needs --long-running
    ["kappa", "--jobs", "1", "-d", "3", "-n", "3"],  # n <= d: too few nonzero elements
    ["kappa", "--long-running", "-d", "2", "-n", "2"],
    ["gaps", "--jobs", "1", "-d", "2", "--from", "2", "--to", "4"],
    ["bound", "-n", "5", "-k", "3", "-d", "2"],  # both -n and -k
    ["diameter", "not json"],
    ["diameter", '{"moduli":[3]}'],  # no generators
    ["diameter", '{"moduli":[5.7],"gens":[[1.5]]}'],  # floats would be truncated
    ["diameter", '{"moduli":[5],"gens":[[true]]}'],  # bools are not integers
    ["diameter", '{"moduli":"5","gens":["1"]}'],  # strings are not integers
    ["mdd", "verify", "MISSING"],  # no such file
    ["tight", "value", "[" * 100000],  # nested past the recursion limit
    # an order too large to index: the successor table raises OverflowError at once
    ["diameter", '{"moduli":[1,100000000000000000000],"gens":[[0,1],[0,2]]}'],
]


@pytest.mark.parametrize("argv", VALUE_ERROR_PROBES, ids=lambda a: " ".join(a[:2]))
def test_value_and_os_errors_exit_2(argv, tmp_path, capsys):
    argv = [str(tmp_path / "missing.mdd") if a == "MISSING" else a for a in argv]
    result = run(argv)
    assert result.exit_code == 2
    assert len(result.rows) == 1 and set(result.rows[0]) == {"error"}
    assert result.human.count("\n") == 1 and result.human.startswith("error: ")
    assert main(["--format", "jsonl"] + argv) == 2
    out = capsys.readouterr().out
    assert [json.loads(line) for line in out.splitlines()] == result.rows


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["diameter", '{"moduli":[5],"gens":[[1]],"bogus":1}'],
            "digraph literal takes the keys moduli and gens only, not ['bogus']",
        ),
        (
            ["density", '{"gens":[[1]],"moduli":[5],"Moduli":[7],"name":"c5"}'],
            "digraph literal takes the keys moduli and gens only, not ['Moduli', 'name']",
        ),
        (["proper", "[[1]]"], "an index-1 lattice gives the trivial group, which has no nonzero generators"),
        (["proper", "[[0,1],[1,0]]"], "an index-1 lattice gives the trivial group, which has no nonzero generators"),
        (["proper", "[[2,0],[0,1]]"], "the lattice contains e_2, so generator 2 is zero in Z^2/L"),
        (["proper", "[[1,1],[0,2]]"], "the lattice contains e_1, so generator 1 is zero in Z^2/L"),
        (["proper", "[[2,0,0],[0,3,0],[0,0,1]]"], "the lattice contains e_3, so generator 3 is zero in Z^3/L"),
    ],
    ids=["unknown-key", "unknown-keys", "index-1", "index-1-swap", "e2-in-L", "e1-in-L", "e3-in-L"],
)
def test_unknown_literal_keys_and_index_1_lattices_exit_2(argv, message, capsys):
    """A digraph literal with a key other than moduli and gens is refused, not
    read without it, an index-1 lattice is named as the trivial group, and a
    lattice that contains a basis vector e_j is named with it: generator j is
    zero in Z^d/L."""
    result = run(argv)
    assert (result.exit_code, result.rows) == (2, [{"error": message}])
    assert result.human == f"error: {message}\n"
    assert main(["--format", "jsonl"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


def test_diagram_file_usage_errors_exit_2(tmp_path, capsys):
    headerless = tmp_path / "headerless.mdd"
    headerless.write_text("0 0\n0 1\n")
    float_header = tmp_path / "float-header.mdd"
    float_header.write_text('# {"moduli":[5.7],"gens":[[1.5]]}\n0\n')
    four = tmp_path / "four.mdd"
    literal = '{"moduli":[1,1,1,5],"gens":[[0,0,0,1],[0,0,0,2],[0,0,0,3],[0,0,0,4]]}'
    assert main(["mdd", "build", literal, "-o", str(four)]) == 0
    capsys.readouterr()
    # hand-edited diagrams that are no diagram: render checks before it draws
    negative = tmp_path / "negative.mdd"
    negative.write_text('# {"moduli":[1,3],"gens":[[0,1],[1,-1]]}\n-100 0\n0 0\n0 1\n')
    short = tmp_path / "short.mdd"
    short.write_text('# {"moduli":[1,1,16],"gens":[[0,0,1],[0,0,4],[0,0,5]]}\n0\n')
    for argv in (
        ["mdd", "verify", str(headerless)],
        ["mdd", "verify", str(float_header)],
        ["mdd", "render", str(four)],
        ["mdd", "render", str(negative)],
        ["mdd", "render", str(short)],
    ):
        assert main(["--format", "jsonl"] + argv) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert set(json.loads(line)) == {"error"}


def test_bad_matrix_literal_exit_2_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for literal in ('{"a":1}', "[]"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "cayleydense.cli", "snf", literal],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every line of README's CLI block, in order (mdd verify reads what mdd build wrote)."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(lines) == 17 and all(argv[0] == "cayleydense" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        result = run(argv[1:])
        assert result.exit_code == 0, (argv, result.human)


def test_kappa_cli_with_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    assert main(["kappa", "-d", "3", "-n", "16", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "kappa(3,16) = 3" in out
    assert cache.exists()
    assert main(["kappa", "-d", "3", "-n", "500"]) == 2  # refused without --long-running


def test_upsilon_cli(capsys):
    assert main(["upsilon", "-d", "3", "-m", "1"]) == 0
    out = capsys.readouterr().out
    assert "k = 7" in out and "21/250" in out


def test_refutation_and_consistency_exit_codes(monkeypatch, capsys):
    import cayleydense.cli as cli_mod
    from cayleydense.errors import ConjectureRefutation, InternalConsistencyError

    def boom_conjecture(args):
        raise ConjectureRefutation("density above the assumed constant", witness={"n": 1})

    monkeypatch.setattr(cli_mod, "_cmd_diameter", boom_conjecture)
    parser_result = cli_mod.run(["diameter", '{"moduli":[2],"gens":[[1]]}'])
    assert parser_result.exit_code == 4
    assert "CONJECTURE REFUTATION" in parser_result.human
    assert parser_result.rows[0]["witness"] == {"n": 1}

    def boom_internal(args):
        raise InternalConsistencyError("proven bound violated")

    monkeypatch.setattr(cli_mod, "_cmd_diameter", boom_internal)
    parser_result = cli_mod.run(["diameter", '{"moduli":[2],"gens":[[1]]}'])
    assert parser_result.exit_code == 3


def test_out_of_memory_exits_2(monkeypatch, capsys):
    """A command that runs out of memory, as `upsilon -d 2 -m 100000000000` does,
    comes back as one error row with exit code 2; the handler only raises."""
    import cayleydense.cli as cli_mod

    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "_cmd_upsilon", out_of_memory)
    result = run(["upsilon", "-d", "2", "-m", "100000000000"])
    message = "too large to hold in memory (MemoryError)"
    assert (result.exit_code, result.rows, result.human) == (2, [{"error": message}], f"error: {message}\n")
    assert main(["--format", "jsonl", "upsilon", "-d", "2", "-m", "100000000000"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("CAYLEYDENSE_CACHE", str(cache))
    assert main(["kappa", "-d", "2", "-n", "12"]) == 0
    capsys.readouterr()
    assert cache.exists()
