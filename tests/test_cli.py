import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shearfield.cli import CliError, parse_shear_file, run


def write_shears(tmp_path, edges, name="shears.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"edges": edges}))
    return str(path)


def test_parse_empty(tmp_path):
    path = write_shears(tmp_path, [])
    sdot = parse_shear_file(path)
    assert len(sdot) == 0


def test_parse_single_edge(tmp_path):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 1.0}])
    sdot = parse_shear_file(path)
    assert len(sdot) == 1
    from shearfield.farey import ExtRational, INFINITY, oriented_edge
    assert sdot.value(oriented_edge(ExtRational(0), INFINITY)) == 1.0


def test_parse_rejects_non_farey_edge(tmp_path):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [2, 1], "value": 1.0}])
    with pytest.raises(CliError) as err:
        parse_shear_file(path)
    assert "edges[0]" in str(err.value)


def test_parse_rejects_duplicates(tmp_path):
    path = write_shears(tmp_path, [
        {"p": [0, 1], "q": [1, 0], "value": 1.0},
        {"p": [1, 0], "q": [0, 1], "value": 2.0},
    ])
    with pytest.raises(CliError) as err:
        parse_shear_file(path)
    assert "duplicate" in str(err.value)
    assert "edges[1]" in str(err.value)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CliError):
        parse_shear_file(str(path))


def test_parse_missing_field_named(tmp_path):
    path = write_shears(tmp_path, [{"p": [0, 1], "value": 1.0}])
    with pytest.raises(CliError) as err:
        parse_shear_file(path)
    assert err.value.field_name == "edges[0].q"


@pytest.mark.parametrize("token", [
    "NaN", "Infinity", "-Infinity",
    pytest.param("1" + "0" * 400, id="int-beyond-float"),
    # not JSON numbers: bool is an int subclass, and float() reads strings
    "true", "false", '"0.5"', "null"])
def test_non_finite_value_rejected(tmp_path, capsys, token):
    path = tmp_path / "shears.json"
    path.write_text('{"edges": [{"p": [0, 1], "q": [1, 0], "value": 1.0}, '
                    '{"p": [0, 1], "q": [1, 1], "value": %s}]}' % token)
    assert run(["field", "eval", "--shears", str(path), "--format",
                "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == "edges[1].value"


def test_integer_value_accepted(tmp_path):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 1}])
    [(_, value)] = list(parse_shear_file(path))
    assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("doc, field", [
    ('{"edges": 5}', "edges"),
    ('{"edges": {"p": [0, 1]}}', "edges"),
    ('{"edges": [1]}', "edges[0]"),
    ('{"edges": [{"p": [0, 1], "q": [1, 0], "value": 1}, "x"]}', "edges[1]"),
    ('{"edges": [{"p": [1e400, 1], "q": [1, 0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": [0.5, 1], "q": [1, 0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": [0, 1], "q": [1, 1.0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": [true, 1], "q": [1, 0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": ["0", 1], "q": [1, 0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": [0, 1, 1], "q": [1, 0], "value": 1}]}', "edges[0]"),
    ('{"edges": [{"p": 0, "q": [1, 0], "value": 1}]}', "edges[0]"),
])
def test_malformed_entry_rejected(tmp_path, capsys, doc, field):
    path = tmp_path / "shears.json"
    path.write_text(doc)
    assert run(["field", "eval", "--shears", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["field"] == field


def test_field_eval_huge_denominator_edge(tmp_path, capsys):
    """The tip 1/10^9 has Farey order 10^9 + 1; finding that is O(log)."""
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 10 ** 9],
                                    "value": 1.0}])
    assert run(["field", "eval", "--shears", path, "--samples", "3"]) == 0
    assert capsys.readouterr().out.startswith("x,value\n")


def _run_fresh(tmp_path, commands, watched):
    """Exit codes of the CLI commands run in one fresh interpreter, and
    which of the watched module prefixes it has loaded by the end."""
    import shearfield
    src = os.path.dirname(os.path.dirname(shearfield.__file__))
    shears = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 1],
                                      "value": 1.0}])
    argvs = [[a.format(shears=shears) for a in argv]
             + ["--output", str(tmp_path / f"out{i}")]
             for i, argv in enumerate(commands)]
    code = ("import json, sys, shearfield.cli\n"
            f"codes = [shearfield.cli.run(a) for a in {argvs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules"
            f" if m.startswith({tuple(watched)!r}))]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    codes, loaded = json.loads(out)
    assert codes == [0] * len(argvs)
    return loaded


@pytest.mark.parametrize("commands", [
    [["farey", "edges", "--max-order", "3"],
     ["field", "eval", "--shears", "{shears}", "--samples", "5"],
     ["wp", "gram", "--depth", "2"]],
    [["hilbert", "eval", "--shears", "{shears}", "--mode", "oracle",
      "--samples", "2", "--max-order", "3"]],
], ids=["stdlib", "oracle"])
def test_no_command_loads_numpy_or_scipy(tmp_path, commands):
    """Importing the CLI and running its commands, the quadrature oracle
    included, loads neither numpy nor scipy: the package runs on the
    standard library."""
    assert _run_fresh(tmp_path, commands, ["numpy", "scipy"]) == []


_SHEARS = ["--shears", "{shears}"]


@pytest.mark.parametrize("commands, modules", [
    ([], ["cli"]),
    ([["farey", "vertices"], ["farey", "edges"]], ["cli", "farey"]),
    ([["field", "eval", *_SHEARS, "--samples", "3"]],
     ["cli", "farey", "fields"]),
    ([["zygmund", "check", *_SHEARS]], ["cli", "farey", "fields"]),
    ([["hilbert", "eval", *_SHEARS, "--samples", "3"],
      ["hilbert", "shear", *_SHEARS]],
     ["cli", "farey", "fields", "hilbert"]),
    ([["hilbert", "eval", *_SHEARS, "--mode", "oracle", "--samples", "2",
       "--max-order", "3"]],
     ["cli", "farey", "fields", "hilbert", "quadrature"]),
    ([["fourier", *_SHEARS, "--n-max", "2"]],
     ["cli", "farey", "fields", "fourier", "moebius"]),
    ([["wp", "gram", "--depth", "2"], ["wp", "pair", "--depth", "2"]],
     ["cli", "farey", "fields", "hilbert", "torus"]),
], ids=["import", "farey", "field", "zygmund", "hilbert", "oracle",
        "fourier", "wp"])
def test_command_loads_only_what_it_runs(tmp_path, commands, modules):
    """`import shearfield.cli` loads no other package module, and each
    subcommand loads only the modules it computes with; none loads
    dataclasses, inspect or fractions."""
    loaded = _run_fresh(tmp_path, commands, ["shearfield.", "dataclasses",
                                             "inspect", "fractions"])
    assert loaded == [f"shearfield.{m}" for m in modules]


def test_field_eval_zero_file(tmp_path, capsys):
    path = write_shears(tmp_path, [])
    out = tmp_path / "out.csv"
    code = run(["field", "eval", "--shears", path, "--from", "-2",
                "--to", "2", "--samples", "9", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 10
    assert all(line.split(",")[1] == "0" for line in lines[1:])


def test_hilbert_closed_vs_oracle_files(tmp_path):
    path = write_shears(tmp_path,
                        [{"p": [2, 1], "q": [3, 1], "value": 1.0}])
    closed_out = tmp_path / "closed.csv"
    oracle_out = tmp_path / "oracle.csv"
    args = ["hilbert", "eval", "--shears", path, "--from", "3.6", "--to",
            "5.4", "--samples", "5", "--max-order", "5"]
    assert run(args + ["--mode", "closed", "--output", str(closed_out)]) == 0
    assert run(args + ["--mode", "oracle", "--output", str(oracle_out)]) == 0
    rows_c = closed_out.read_text().strip().splitlines()[1:]
    rows_o = oracle_out.read_text().strip().splitlines()[1:]
    for rc, ro in zip(rows_c, rows_o):
        xc, vc = map(float, rc.split(","))
        xo, vo = map(float, ro.split(","))
        assert xc == xo
        assert abs(vc - vo) < 1e-6


def test_hilbert_shear_subcommand(tmp_path):
    path = write_shears(tmp_path,
                        [{"p": [2, 1], "q": [3, 1], "value": 1.0}])
    out = tmp_path / "shear.json"
    code = run(["hilbert", "shear", "--shears", path, "--edge", "0,1,1,1",
                "--max-order", "5", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["data"]["edge"] == [0, 1, 1, 1]
    assert len(doc["data"]["partials_by_order"]) == 5
    assert math.isfinite(doc["data"]["value"])
    assert "unit_tail_bound" in doc["meta"]


def test_zygmund_check(tmp_path):
    path = write_shears(tmp_path,
                        [{"p": [0, 1], "q": [1, 0], "value": 1.5}])
    out = tmp_path / "z.json"
    assert run(["zygmund", "check", "--shears", path, "--window", "8",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["data"][0]["sup"] >= 1.5


def test_zygmund_check_far_apart_fan_indices(tmp_path, capsys):
    """The fan at 0 holds the edges {0, 1} and {0, 1/10^9}, whose fan
    indices lie about 10^9 apart; the scan visits only the m near them."""
    import time
    path = write_shears(tmp_path, [
        {"p": [0, 1], "q": [1, 1], "value": 1.0},
        {"p": [0, 1], "q": [1, 10 ** 9], "value": -0.5}])
    start = time.perf_counter()
    assert run(["zygmund", "check", "--shears", path, "--window", "2"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["data"][0]["sup"] == 1.0


def test_fourier_command(tmp_path):
    path = write_shears(tmp_path,
                        [{"p": [0, 1], "q": [1, 1], "value": 1.0}])
    out = tmp_path / "f.json"
    assert run(["fourier", "--shears", path, "--n-min", "0", "--n-max", "4",
                "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["data"]) == 5
    assert doc["meta"]["low_order_shear_fraction"] == 1.0


def test_wp_gram_symmetric(tmp_path):
    out = tmp_path / "gram.json"
    assert run(["wp", "gram", "--depth", "4", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    gram = doc["data"]["gram"]
    assert len(gram) == 2 and len(gram[0]) == 2
    assert abs(gram[0][1] - gram[1][0]) <= 1e-3 * abs(gram[0][1])
    assert doc["data"]["depth_prev_gram"] is not None


def test_wp_pair_cusp_violation_exit(tmp_path, capsys):
    code = run(["wp", "pair", "--t1", "1,0,0", "--t2", "0,1,-1",
                "--depth", "3"])
    assert code != 0
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert diag["field"] == "t1"


def test_wp_pair_negative_triple_as_separate_argument(capsys):
    attached = ["wp", "pair", "--depth", "3", "--t1=-3,2,1", "--t2=1,-2,1"]
    separate = ["wp", "pair", "--depth", "3", "--t1", "-3,2,1",
                "--t2", "1,-2,1"]
    assert run(attached) == 0
    want = capsys.readouterr().out
    assert run(separate) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["data"]["t1"] == [-3.0, 2.0, 1.0]


def test_hilbert_shear_negative_edge_as_separate_argument(tmp_path, capsys):
    path = write_shears(tmp_path, [{"p": [-1, 1], "q": [0, 1], "value": 0.5},
                                   {"p": [0, 1], "q": [1, 1], "value": -1.0}])
    assert run(["hilbert", "shear", "--shears", path,
                "--edge=-1,1,0,1"]) == 0
    want = capsys.readouterr().out
    assert run(["hilbert", "shear", "--shears", path,
                "--edge", "-1,1,0,1"]) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["data"]["edge"] == [-1, 1, 0, 1]


def test_grid_end_in_exponent_form_as_separate_argument(tmp_path, capsys):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 0.5}])
    assert run(["field", "eval", "--shears", path, "--samples", "5",
                "--from=-1e3", "--to=-1e-1"]) == 0
    want = capsys.readouterr().out
    assert run(["field", "eval", "--shears", path, "--samples", "5",
                "--from", "-1e3", "--to", "-1e-1"]) == 0
    assert capsys.readouterr().out == want
    assert want.splitlines()[1].startswith("-1000,")


@pytest.mark.parametrize("argv, field", [
    (["field", "eval", "--shears", "s.json", "--bogus"], "bogus"),
    (["field", "eval"], "shears"),
    (["wp", "gram", "--depth", "x"], "depth"),
    (["nosuch"], "command"),
    # --tolerance is read by the oracle only, so only `hilbert` takes it
    (["field", "eval", "--shears", "s.json", "--tolerance", "1e-6"],
     "tolerance"),
    (["field", "eval", "--shears", "s.json", "--n-max=3"], "n-max"),
])
def test_usage_error_is_one_json_line(capsys, argv, field):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["field"] == field


@pytest.mark.parametrize("argv", [
    ["wp", "gram", "--depth", "3"],
    ["wp", "pair", "--depth", "3", "--t1", "-3,2,1", "--t2", "1,-2,1"],
])
def test_wp_walks_the_word_ball_once(monkeypatch, capsys, argv):
    """The reported depth and the one before come from one walk."""
    import shearfield.torus
    walks = []
    walk = shearfield.torus._reduced_words

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(shearfield.torus, "_reduced_words", counted)
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["depth"] == 3
    assert len(walks) == 1


@pytest.mark.parametrize("argv, digest", [
    (["wp", "gram", "--depth", "8"],
     "86ed86a341ae17d98b2514774ebb70be821b9cc29a9d20312d1fa7e59540d0d5"),
    (["wp", "pair", "--depth", "8", "--t1=-3,2,1", "--t2=1,-2,1"],
     "6c1f08fd03d6b178287e72343c84bde4c3a02bea496df8fba41ad0229e8199e5"),
], ids=["gram", "pair"])
def test_wp_stdout_golden_bytes(capsys, argv, digest):
    """The exact bytes `wp` printed when W was summed one lift at a time:
    evaluating the word ball in batches changes no bit of the output."""
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_farey_commands(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["farey", "vertices", "--max-order", "3",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9            # header + 8 vertices
    out2 = tmp_path / "e.csv"
    assert run(["farey", "edges", "--max-order", "3",
                "--output", str(out2)]) == 0
    assert len(out2.read_text().strip().splitlines()) == 14   # header + 13


def test_determinism_byte_identical(tmp_path):
    path = write_shears(tmp_path, [
        {"p": [0, 1], "q": [1, 0], "value": 0.3},
        {"p": [1, 2], "q": [1, 1], "value": -1.1},
    ])
    outs = []
    for name in ("a", "b"):
        o1 = tmp_path / f"field_{name}.csv"
        run(["field", "eval", "--shears", path, "--samples", "31",
             "--output", str(o1)])
        o2 = tmp_path / f"gram_{name}.json"
        run(["wp", "gram", "--depth", "3", "--output", str(o2)])
        o3 = tmp_path / f"four_{name}.json"
        run(["fourier", "--shears", path, "--format", "json",
             "--output", str(o3)])
        outs.append((o1.read_bytes(), o2.read_bytes(), o3.read_bytes()))
    assert outs[0] == outs[1]


def test_bad_numeric_knobs_rejected(tmp_path, capsys):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 1.0}])
    assert run(["field", "eval", "--shears", path, "--max-order", "0"]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["field"] == "max-order"
    assert run(["field", "eval", "--shears", path, "--window", "-1"]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["field"] == "window"
    for value in ("nan", "inf", "0", "-1"):
        assert run(["hilbert", "eval", "--shears", path, "--mode", "oracle",
                    "--samples", "1", f"--tolerance={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["field"] == "tolerance"


@pytest.mark.parametrize("action", ["gram", "pair"])
@pytest.mark.parametrize("depth", ["11", "20"])
def test_wp_depth_beyond_limit_rejected(monkeypatch, capsys, action, depth):
    import shearfield.torus

    def no_walk(*args):
        raise AssertionError("the word ball was walked")

    monkeypatch.setattr(shearfield.torus, "_reduced_words", no_walk)
    assert run(["wp", action, "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == "depth"


@pytest.mark.parametrize("argv, code, field", [
    (["field", "eval", "--from=-inf", "--to", "1"], 2, "from"),
    (["field", "eval", "--from=-1e308", "--to", "1e308"], 2, "grid"),
    (["hilbert", "eval", "--to", "1e308"], 1, "value"),
])
def test_non_finite_output_refused(tmp_path, capsys, argv, code, field):
    """No exit-0 output carries nan or inf: a non-finite grid end or step
    is a usage error, and a non-finite computed value writes nothing."""
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 0.5},
                                   {"p": [1, 2], "q": [1, 1], "value": -1.1}])
    assert run(argv + ["--shears", path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["field"] == field


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_refuse_non_finite_values(tmp_path, capsys, fmt):
    from shearfield.cli import _emit
    with pytest.raises(CliError) as err:
        _emit(fmt, None, ["x", "value"], [(0.0, 1.0), (1.0, math.nan)], {})
    assert (err.value.code, err.value.field_name) == (1, "value")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, patched, field", [
    (["farey", "edges", "--max-order", "15"], "enumerate_edges", "max-order"),
    (["farey", "vertices", "--max-order", "40"], "enumerate_vertices",
     "max-order"),
    (["field", "eval", "--samples", "10001"], "assemble_field", "samples"),
    (["hilbert", "eval", "--samples", "1000000"], "hilbert_series_eval",
     "samples"),
    (["zygmund", "check", "--window", "201"], "zygmund_condition_sup",
     "window"),
    (["fourier", "--n-min", "-5000", "--n-max", "5000"], "field_fourier",
     "n-max"),
    (["hilbert", "shear", "--max-order", "10001"], "parse_shear_file",
     "max-order"),
])
def test_size_beyond_limit_rejected(tmp_path, monkeypatch, capsys, argv,
                                    patched, field):
    # each command imports what it calls at call time, so the function is
    # replaced in the module that defines it
    owner = {"enumerate_edges": "farey", "enumerate_vertices": "farey",
             "assemble_field": "fields", "hilbert_series_eval": "hilbert",
             "zygmund_condition_sup": "fields", "field_fourier": "fourier",
             "parse_shear_file": "cli"}[patched]

    def no_work(*args):
        raise AssertionError(f"{patched} was called")

    monkeypatch.setattr(f"shearfield.{owner}.{patched}", no_work)
    if argv[0] != "farey":
        argv = argv + ["--shears", write_shears(tmp_path, [
            {"p": [0, 1], "q": [1, 0], "value": 0.5}])]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == field


@pytest.mark.parametrize("argv", [
    ["farey", "vertices", "--max-order", "14"],
    ["field", "eval", "--samples", "10000"],
    ["zygmund", "check", "--window", "200"],
    ["fourier", "--n-min", "-2048", "--n-max", "2047"],
    ["hilbert", "shear", "--max-order", "10000"],
])
def test_size_at_limit_accepted(tmp_path, capsys, argv):
    if argv[0] != "farey":
        argv = argv + ["--shears", write_shears(tmp_path, [
            {"p": [0, 1], "q": [1, 0], "value": 0.5}])]
    assert run(argv) == 0


def test_error_exit_codes(tmp_path, capsys):
    assert run(["field", "eval", "--shears", "/nonexistent.json"]) != 0
    diag = json.loads(capsys.readouterr().err)
    assert diag["field"] == "input"
    bad = write_shears(tmp_path, [{"p": [0, 1], "q": [2, 1], "value": 1.0}])
    assert run(["field", "eval", "--shears", bad]) != 0
    diag = json.loads(capsys.readouterr().err)
    assert "edges[0]" in diag["error"]


# ---------------------------------------------------------------------------
# fuzzing: malformed shear files and arguments
# ---------------------------------------------------------------------------

def _mostly(good, bad):
    """good seven times in eight, bad otherwise."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)


_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.floats(), st.integers(-10 ** 400, 10 ** 400),
                  st.lists(st.integers(-3, 3), max_size=3))
# [num, den] endpoints, with both spellings of infinity and 0/0
_ENDPOINT = st.one_of(
    st.sampled_from([[0, 1], [1, 0], [-1, 0], [1, 1], [-1, 1], [1, 2],
                     [0, 0]]),
    _JUNK)
_FAREY_EDGES = [([0, 1], [1, 0]), ([1, 1], [1, 0]), ([0, 1], [1, 1]),
                ([-1, 1], [0, 1]), ([-1, 0], [-1, 1]), ([1, 2], [1, 1]),
                ([1, 3], [1, 2]), ([2, 1], [1, 0])]
# finite values mostly, and now and then one large enough to overflow
_HUGE = st.sampled_from([1e308, -1.5e308, 1e200, 1e154])
_VALUE = _mostly(st.floats(-10.0, 10.0),
                 st.one_of(_HUGE, st.floats(allow_nan=False), _JUNK))
_EDGE = _mostly(
    st.builds(lambda pq, v: {"p": pq[0], "q": pq[1], "value": v},
              st.sampled_from(_FAREY_EDGES), _VALUE),
    st.one_of(st.fixed_dictionaries({"p": _ENDPOINT, "q": _ENDPOINT,
                                     "value": _VALUE}),
              st.dictionaries(st.sampled_from(["p", "q", "value"]),
                              _ENDPOINT, max_size=3),
              _JUNK))
_SHEAR_TEXT = _mostly(
    st.builds(lambda es: json.dumps({"edges": es}),
              st.lists(_EDGE, max_size=3)),
    st.one_of(st.builds(json.dumps, _JUNK), st.text(max_size=12)))


def _number_text(ints):
    return _mostly(ints.map(str), st.one_of(
        _HUGE.map(repr), st.floats().map(repr),
        st.sampled_from(["", "x", "1e400", "-1e400", "0x10"])))


_OPTIONS = {
    "--max-order": _number_text(st.integers(0, 4)),
    "--window": _number_text(st.integers(-1, 3)),
    "--samples": _number_text(st.integers(0, 5)),
    "--from": _number_text(st.integers(-3, 3)),
    "--to": _number_text(st.integers(-3, 3)),
    "--n-min": _number_text(st.integers(-3, 3)),
    "--n-max": _number_text(st.integers(-3, 3)),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--edge": st.one_of(
        st.sampled_from(["0,1,1,0", "0,1,1,1", "1,2,1,1", "-1,1,0,1"]),
        st.lists(st.integers(-3, 3), min_size=3, max_size=5).map(
            lambda v: ",".join(map(str, v))),
        st.text(max_size=6)),
    "--depth": _number_text(st.integers(0, 3)),
    "--t1": st.one_of(
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(
            lambda ab: f"{ab[0]!r},{ab[1]!r},{-ab[0] - ab[1]!r}"),
        st.lists(st.floats(), min_size=2, max_size=4).map(
            lambda v: ",".join(map(repr, v))),
        st.text(max_size=6)),
    "--t2": st.sampled_from(["1,-1,0", "0,1,-1", "1e308,-1e308,0",
                             "1e200,-1e200,0", "1,1,1"]),
    "--bogus": st.just("1"),
}
_COMMON = ["--max-order", "--window", "--format"]
_GRID = _COMMON + ["--from", "--to", "--samples"]
# the options each command takes; the quadrature oracle is left out for
# its cost, and at most 3 edges of small endpoints keep the rest cheap
_COMMANDS = {
    ("field", "eval"): _GRID,
    ("hilbert", "eval"): _GRID,
    ("hilbert", "shear"): _GRID + ["--edge"],
    ("zygmund", "check"): _COMMON,
    ("fourier",): _COMMON + ["--n-min", "--n-max"],
    ("wp", "gram"): ["--depth"],
    ("wp", "pair"): ["--depth", "--t1", "--t2"],
    ("wp", "bogus"): ["--depth"],
}


@st.composite
def _cli_calls(draw):
    """(argv, shear-file text or None for a missing file); now and then an
    option the command does not take."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    names = draw(_mostly(st.just(_COMMANDS[command]),
                         st.just(sorted(_OPTIONS))))
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    argv = list(command) + [f"{name}={draw(_OPTIONS[name])}"
                            for name in chosen]
    text = None
    if command[0] != "wp":
        text = draw(_mostly(_SHEAR_TEXT, st.none()))
    return argv, text


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=50, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_cli_calls())
def test_cli_fuzz_fails_cleanly_or_answers_finitely(tmp_path_factory, call):
    """Whatever the shear file and the arguments, the CLI either exits
    nonzero with exactly one JSON diagnostic line on stderr and nothing on
    stdout, or exits 0 with no nan or inf in its output; it never raises."""
    argv, text = call
    if argv[0] != "wp":
        path = tmp_path_factory.mktemp("fuzz") / "shears.json"
        if text is not None:           # None: the file does not exist
            path.write_text(text)
        argv += ["--shears", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code != 0:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        diag = json.loads(lines[0])
        assert set(diag) == {"error", "field"}
    else:
        assert err.getvalue() == ""
        assert not _NON_FINITE.search(out.getvalue()), out.getvalue()
