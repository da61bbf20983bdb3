import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cayleydense.cli import (
    build_parser,
    main,
    read_mdd_file,
    render_gaps_csv,
    run,
    write_mdd_file,
)
from cayleydense.mdd import build_mdd
from cayleydense.cayley import upsilon

GOLDEN = Path(__file__).parent / "golden"


def _human(argv):
    result = run(argv)
    assert result.exit_code == 0, result.human
    return result.human


def test_table1_matches_golden():
    assert _human(["table1"]) == (GOLDEN / "table1.txt").read_text()


def test_table2_matches_golden():
    assert _human(["table2"]) == (GOLDEN / "table2.txt").read_text()


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
    from cayleydense.cli import _render

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


def test_render_gaps_csv_empty():
    assert render_gaps_csv([]) == "n,gap\r\n"


def test_usage_errors_exit_2(capsys):
    assert main(["bound", "-d", "2"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nonsense"])
    assert exc.value.code == 2


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
    ["kappa", "-n", "129", "-d", "3"],  # needs --long-running
    ["bound", "-n", "5", "-k", "3", "-d", "2"],  # both -n and -k
    ["diameter", "not json"],
    ["diameter", '{"moduli":[3]}'],  # no generators
    ["mdd", "verify", "MISSING"],  # no such file
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


def test_diagram_file_usage_errors_exit_2(tmp_path, capsys):
    headerless = tmp_path / "headerless.mdd"
    headerless.write_text("0 0\n0 1\n")
    four = tmp_path / "four.mdd"
    literal = '{"moduli":[1,1,1,5],"gens":[[0,0,0,1],[0,0,0,2],[0,0,0,3],[0,0,0,4]]}'
    assert main(["mdd", "build", literal, "-o", str(four)]) == 0
    capsys.readouterr()
    for argv in (["mdd", "verify", str(headerless)], ["mdd", "render", str(four)]):
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


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("CAYLEYDENSE_CACHE", str(cache))
    assert main(["kappa", "-d", "2", "-n", "12"]) == 0
    capsys.readouterr()
    assert cache.exists()


def test_cache_function_wrappers(tmp_path):
    from cayleydense.kappa_search import SearchSpec, cache_get, cache_put, kappa

    rec = kappa(SearchSpec(d=2, n=9))
    path = tmp_path / "wrap.jsonl"
    cache_put(path, rec)
    assert cache_get(path, 2, 9, rec.settings) == rec
    assert cache_get(path, 2, 10, rec.settings) is None
