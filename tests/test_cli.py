import ast
import contextlib
import errno
import hashlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shearfield import cli
from shearfield.cli import CliError, parse_shear_file, run
from shearfield.farey import enumerate_edges


def write_shears(tmp_path, edges, name="shears.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"edges": edges}))
    return str(path)


def test_parse_empty(tmp_path):
    path = write_shears(tmp_path, [])
    sdot = parse_shear_file(path)
    assert list(sdot) == []


def test_parse_single_edge(tmp_path):
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 1.0}])
    sdot = parse_shear_file(path)
    from shearfield.farey import ExtRational, INFINITY, oriented_edge
    assert list(sdot) == [(oriented_edge(ExtRational(0), INFINITY), 1.0)]


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
    ('{"edges": [{"p": [0, 0], "q": [1, 0], "value": 1}]}', "edges[0]"),
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


def test_module_entry_point_runs_the_cli():
    """`python -m shearfield.cli ARGS` runs the CLI in a fresh process: it
    prints what `run` prints, and a usage error exits 2 with one JSON line
    on stderr and nothing on stdout."""
    import shearfield
    src = os.path.dirname(os.path.dirname(shearfield.__file__))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "shearfield.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    done = cli("farey", "vertices", "--max-order", "2")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["vertex,num,den,order", "0,0,1,1",
                                        "oo,1,0,1", "1,1,1,2", "-1,-1,1,2"]
    done = cli("hilbert", "shear", "--format", "csv")
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1
    assert set(json.loads(done.stderr)) == {"error", "field"}


def test_bench_worker_traces_the_parse_seam():
    """The benchmark's traced in-process worker, started as the benchmark
    starts it, runs a job through `cli.run` and times the front end through
    `build_parser().parse_args`, the seam its tracer wraps."""
    import shearfield
    src = os.path.dirname(os.path.dirname(shearfield.__file__))
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "bench", "worker.py")
    done = subprocess.run(
        [sys.executable, worker, "--trace"], capture_output=True, text=True,
        input=json.dumps({"jobs": [["wp", "gram", "--depth", "1"]]}) + "\n",
        env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    ready, reply = map(json.loads, done.stdout.splitlines())
    assert ready == {"ready": True}
    assert reply["rc"] == [0]
    assert reply["trace"]["calls"]["cli.parse"] >= 1


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
     ["cli", "farey", "fields", "fourier"]),
    ([["wp", "gram", "--depth", "2"], ["wp", "pair", "--depth", "2"]],
     ["cli", "farey", "hilbert", "torus"]),
], ids=["import", "farey", "field", "zygmund", "hilbert", "oracle",
        "fourier", "wp"])
def test_command_loads_only_what_it_runs(tmp_path, commands, modules):
    """`import shearfield.cli` loads no other package module, and each
    subcommand loads only the modules it computes with; none loads
    argparse, dataclasses, inspect or fractions."""
    loaded = _run_fresh(tmp_path, commands, ["shearfield.", "argparse",
                                             "dataclasses", "inspect",
                                             "fractions"])
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


def test_hilbert_closed_eval_makes_one_kernel_call_per_block(
        tmp_path, monkeypatch):
    """A closed `hilbert eval` whose grid fits in one _X_BLOCK block takes
    S(0), S(1) and S at every grid point from one hilbert_main_terms
    call."""
    import shearfield.hilbert as hilbert
    calls = []
    kernel = hilbert.hilbert_main_terms

    def counting(ends, pairs, xs):
        calls.append(len(xs))
        return kernel(ends, pairs, xs)

    monkeypatch.setattr(hilbert, "hilbert_main_terms", counting)
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 1.0},
                                   {"p": [2, 1], "q": [3, 1], "value": 0.5}])
    assert run(["hilbert", "eval", "--shears", path, "--samples", "13",
                "--output", str(tmp_path / "out.csv")]) == 0
    assert calls == [2 + 13]


def test_hilbert_oracle_next_to_the_pole_at_1(tmp_path):
    """x = 1.005 puts quadrature nodes within an ulp of the kernel's pole
    at 1, where V(1) = 0: the oracle answers, as the closed form does."""
    path = write_shears(tmp_path, [{"p": [1, 0], "q": [0, 1], "value": 1.0}])
    args = ["hilbert", "eval", "--shears", path, "--from", "1.005", "--to",
            "2", "--samples", "1"]
    values = {}
    for mode in ("closed", "oracle"):
        out = tmp_path / f"{mode}.csv"
        assert run(args + ["--mode", mode, "--output", str(out)]) == 0
        (row,) = out.read_text().strip().splitlines()[1:]
        values[mode] = float(row.split(",")[1])
    # measured 2.8e-15
    assert abs(values["oracle"] - values["closed"]) < 1e-9


def test_hilbert_oracle_meets_a_tight_tolerance(tmp_path, capsys):
    """Each quadrature piece of the oracle is asked for its share of the
    error gate, so a tolerance far below the default is met rather than
    refused: on 60 edges with seeded values, --tolerance 2e-14 exits 0 and
    agrees with the closed form."""
    rng = random.Random(2)
    path = write_shears(tmp_path, [
        {"p": e.to_json()[:2], "q": e.to_json()[2:], "value": rng.gauss(0, 1)}
        for e in enumerate_edges(6)[:60]])
    args = ["hilbert", "eval", "--shears", path, "--from", "-2.9", "--to",
            "3.1", "--samples", "7"]
    assert run(args + ["--mode", "closed"]) == 0
    closed = capsys.readouterr().out.splitlines()[1:]
    assert run(args + ["--mode", "oracle", "--tolerance", "2e-14"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    oracle = captured.out.splitlines()[1:]
    assert len(oracle) == len(closed) == 7
    for rc, ro in zip(closed, oracle):
        xc, vc = map(float, rc.split(","))
        xo, vo = map(float, ro.split(","))
        assert xc == xo
        assert abs(vc - vo) < 1e-10


def test_hilbert_oracle_beyond_its_reach_exits_with_diagnostic(tmp_path,
                                                               capsys):
    """Beyond the oracle's reach (|x| and the breakpoints at most 1e10)
    every x exits 1 before any quadrature, with the same one-line
    PVConvergenceError diagnostic and nothing on stdout; none reaches
    the growth gate, whose squares overflow from 1.2e154 on."""
    path = write_shears(tmp_path, [{"p": [1, 0], "q": [0, 1], "value": 1.0},
                                   {"p": [1, 1], "q": [1, 0], "value": -2.0}])
    errors = set()
    for x in ("1e12", "8e16", "1e153", "1.2e154", "-1e300"):
        assert run(["hilbert", "eval", "--shears", path, "--mode", "oracle",
                    "--samples", "1", f"--from={x}", "--to=1e301"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        errors.add(json.loads(line)["error"])
    (error,) = errors
    assert error.startswith("principal-value quadrature did not settle")
    assert "reach" in error


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


_P, _Q = {"p": [0, 1]}, {"q": [1, 0]}
_EDGE = {**_P, **_Q, "value": 1.0}


@pytest.mark.parametrize("doc, message, field", [
    ([], "shear file must be an object with an 'edges' list", "edges"),
    ({"edges": "x"}, "shear file must be an object with an 'edges' list",
     "edges"),
    ({"edges": [_EDGE, 3]}, "edges[1] is not an object", "edges[1]"),
    ({"edges": [{**_Q, "value": 1}]}, "edges[0] is missing 'p'",
     "edges[0].p"),
    ({"edges": [{**_P, "value": 1}]}, "edges[0] is missing 'q'",
     "edges[0].q"),
    ({"edges": [{**_P, **_Q}]}, "edges[0] is missing 'value'",
     "edges[0].value"),
    ({"edges": [{"p": [True, 1], **_Q, "value": 1}]},
     "edges[0]: endpoint [true, 1] is not a pair of integers", "edges[0]"),
    ({"edges": [{**_P, "q": [1, 0.0], "value": 1}]},
     "edges[0]: endpoint [1, 0.0] is not a pair of integers", "edges[0]"),
    ({"edges": [{"p": [0, 1, 1], **_Q, "value": 1}]},
     "edges[0]: endpoint [0, 1, 1] is not a pair of integers", "edges[0]"),
    ({"edges": [{**_P, "q": [0, 0], "value": 1}]},
     "edges[0]: bad endpoint (0/0 is not a point of the circle)",
     "edges[0]"),
    ({"edges": [{"p": [2, 1], "q": [0, 1], "value": 1}]},
     "edges[0]: 2 and 0 are not Farey-adjacent", "edges[0]"),
    ({"edges": [{"p": [-1, 0], "q": [2, 4], "value": 1}]},
     "edges[0]: oo and 1/2 are not Farey-adjacent", "edges[0]"),
    ({"edges": [_EDGE, {"p": [1, 0], "q": [0, 2], "value": 0.0}]},
     "edges[1]: duplicate edge oo, 0", "edges[1]"),
    ({"edges": [{**_P, **_Q, "value": 0.0}, {"p": [1, 0], "q": [0, 1],
                                             "value": 2}]},
     "edges[1]: duplicate edge oo, 0", "edges[1]"),
    ({"edges": [{**_P, **_Q, "value": True}]},
     "edges[0]: value is not a number", "edges[0].value"),
    ({"edges": [{**_P, **_Q, "value": "1.0"}]},
     "edges[0]: value is not a number", "edges[0].value"),
    ({"edges": [{**_P, **_Q, "value": 10 ** 400}]},
     "edges[0]: value is not finite", "edges[0].value"),
])
def test_parse_shear_file_diagnostics(tmp_path, capsys, doc, message, field):
    """Every diagnostic of parse_shear_file, word for word: its message,
    the field it names and exit code 2, with nothing on stdout."""
    path = tmp_path / "shears.json"
    path.write_text(json.dumps(doc))
    assert run(["zygmund", "check", "--shears", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message, "field": field}


def _not_utf8(tmp_path, monkeypatch):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"edges": [], "note": "\xe9"}')
    return path, ("'utf-8' codec can't decode byte 0xe9 in position 23: "
                  "invalid continuation byte")


def _directory(tmp_path, monkeypatch):
    return tmp_path, "Is a directory"


def _unreadable(tmp_path, monkeypatch):
    """A file with no read permission; where the process reads it anyway
    (as root does), open refuses it as the system would for others."""
    path = tmp_path / "locked.json"
    path.write_text('{"edges": []}')
    path.chmod(0)
    if os.access(path, os.R_OK):
        def locked(name, *args, **kwargs):
            if name == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                      name)
            return open(name, *args, **kwargs)
        monkeypatch.setattr(cli, "open", locked, raising=False)
    return path, "Permission denied"


def _too_many_digits(tmp_path, monkeypatch):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no integer digit limit in this interpreter")
    path = tmp_path / "digits.json"
    path.write_text('{"edges": [{"p": [0, 1], "q": [1, 1%s], "value": 1}]}'
                    % ("0" * limit))
    return path, f"Exceeds the limit ({limit} digits)"


def _nested_too_deeply(tmp_path, monkeypatch):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    return path, "JSON nested too deeply"


@pytest.mark.parametrize("make", [_not_utf8, _directory, _unreadable,
                                  _too_many_digits, _nested_too_deeply],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_unreadable_shear_file_is_an_input_error(tmp_path, monkeypatch,
                                                 capsys, make):
    """A shear file that cannot be read or decoded exits 2 with field
    `input`, as a missing file does, and one line naming the path."""
    path, reason = make(tmp_path, monkeypatch)
    assert run(["zygmund", "check", "--shears", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    diag = json.loads(captured.err)
    assert diag["field"] == "input"
    assert diag["error"].startswith(f"cannot read {path}: {reason}")


def test_zygmund_overflow_is_never_skipped(tmp_path, capsys):
    """A fan whose running sums overflow is scanned even when its mass lies
    below the sup found so far.  The 4-cycle 0, 1, oo, -1 with shears
    alternating +-2e306 reaches the sup 2e306 with no sum overflowing; the
    edge {1/2, 2/3} then holds 1e306 alone in the fans at 1/2 and 2/3,
    whose running sums reach k 1e306 and overflow before k = 200.  So the
    sup is infinite, and the command refuses it."""
    big = 2e306
    path = write_shears(tmp_path, [
        {"p": [0, 1], "q": [1, 1], "value": big},
        {"p": [1, 1], "q": [1, 0], "value": -big},
        {"p": [1, 0], "q": [-1, 1], "value": big},
        {"p": [-1, 1], "q": [0, 1], "value": -big},
        {"p": [1, 2], "q": [2, 3], "value": 1e306}])
    assert run(["zygmund", "check", "--shears", path,
                "--window", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "the result holds a non-finite value", "field": "value"}
    # below 200 the fan at 1/2 cannot overflow, and the cycle keeps the sup
    assert run(["zygmund", "check", "--shears", path,
                "--window", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"][0] == {"sup": big,
                              "witness": {"tip": [0, 1], "m": 0, "k": 1}}


def test_zygmund_reads_tips_beyond_float_range(tmp_path, capsys):
    """The fan scan needs no float of a tip: a tip at 10^400 is indexed and
    sorted exactly, and its fan's sup and witness come out."""
    path = write_shears(tmp_path, [
        {"p": [_BEYOND_FLOAT, 1], "q": [1, 0], "value": 1.5},
        {"p": [0, 1], "q": [1, 0], "value": -1.0}])
    assert run(["zygmund", "check", "--shears", path, "--window", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"][0] == {
        "sup": 1.5, "witness": {"tip": [1, 0], "m": _BEYOND_FLOAT, "k": 1}}


_FAN_TIPS = [(1, 0), (0, 1), (1, 1), (-1, 1), (-2, 3), (-5, 2), (3, 7)]


def _unoriented(e):
    """The key of an edge as a set of two ends, whatever its orientation."""
    return frozenset((e.initial, e.terminal))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(_FAN_TIPS),
                          st.integers(min_value=-40, max_value=40)),
                min_size=1, max_size=12))
def test_fan_index_is_the_fan_map_inverse(tmp_path, picks):
    """For every support edge of a shear file, the fan entries of
    ShearFunction's index give at each of its two tips the index
    farey.fan_index gives, tips oo, 0 and negative ones included."""
    from shearfield.farey import ExtRational, fan_edge, fan_index
    edges = {}
    for (num, den), n in picks:
        e = fan_edge(ExtRational(num, den), n)
        edges.setdefault(_unoriented(e), e)
    sdot = parse_shear_file(write_shears(
        tmp_path, _edge_entries(edges.values(), range(1, len(edges) + 1))))
    support, tips = sdot._index()
    seen = 0
    for tip, _, fan in tips.values():
        for n, _, j in fan:
            u, v = support[j][:2]
            other = ExtRational(*(v if u == (tip.num, tip.den) else u))
            assert n == fan_index(tip, other)
            seen += 1
    assert seen == 2 * len(edges)


def test_fourier_reads_each_arc_once(tmp_path, monkeypatch):
    """On the benchmark's grid file the 120 halved terms name 60 distinct
    arcs, and _arc_fourier runs once for each; the coefficients equal, bit
    for bit, the loop that takes every term's tables apart."""
    from shearfield import fourier
    from shearfield.fields import halved_terms
    terms = halved_terms(parse_shear_file(_bench_grid_shears(tmp_path)),
                         6, 20)
    ns = range(0, 17)
    want = [0j] * len(ns)
    for _, coef, ends in terms:
        cs = fourier._arc_fourier(fourier.edge_to_arc(ends), ns, {})
        want = [total + coef * c for total, c in zip(want, cs)]
    calls = []
    arc_fourier = fourier._arc_fourier

    def counted(arc, ns, tables):
        calls.append(arc)
        return arc_fourier(arc, ns, tables)

    monkeypatch.setattr(fourier, "_arc_fourier", counted)
    got = fourier.fourier_coefficients(terms, ns)
    assert len(terms) == 120
    assert len(calls) == len(set(calls)) == 60
    assert [(c.real.hex(), c.imag.hex()) for c in got] == [
        (c.real.hex(), c.imag.hex()) for c in want]


def test_fourier_takes_exponentials_once_per_angle(tmp_path, monkeypatch):
    """`fourier --n-max 16` on the benchmark's grid file makes 19
    exponentials per distinct endpoint angle, one per m of the 19 in
    {2 - n, 1 - n, -n}, and the arcs read their ends e^{i phi0} and
    e^{i phi1} at m = 1 of those tables: 627 for its 60 arcs on 33 angles
    (747 with the ends taken per arc, 2,280 with two per m per arc)."""
    import cmath
    from shearfield.fields import halved_terms
    from shearfield.fourier import edge_to_arc
    path = _bench_grid_shears(tmp_path)
    arcs = {edge_to_arc(ends) for _, _, ends in
            halved_terms(parse_shear_file(path), 6, 20)}
    angles = {phi for arc in arcs for phi in (arc.phi0, arc.phi1)}
    assert (len(arcs), len(angles)) == (60, 33)
    calls = []
    exp = cmath.exp

    def counted(z):
        calls.append(z)
        return exp(z)

    monkeypatch.setattr(cmath, "exp", counted)
    assert run(["fourier", "--shears", path, "--n-max", "16"]) == 0
    assert len(calls) == 19 * len(angles) == 627


def test_front_end_builds_no_edge_objects(tmp_path, monkeypatch):
    """From the benchmark's grid file to its 120 halved terms the shear
    function stays on integer (num, den) pairs: parse_shear_file, the
    index and halved_terms build no FareyEdge and no IntegerMoebius, and
    one ExtRational per fan tip at most (for support_tips, the tip sort
    and the Zygmund witness)."""
    from shearfield import farey
    from shearfield.fields import halved_terms
    path = _bench_grid_shears(tmp_path)
    built = dict.fromkeys(["ExtRational", "FareyEdge", "IntegerMoebius"], 0)
    for name in built:
        cls = getattr(farey, name)

        def counted(self, *args, _init=cls.__init__, _name=name):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    sdot = parse_shear_file(path)
    terms = halved_terms(sdot, 6, 20)
    tips = len(sdot._index()[1])
    assert (len(terms), tips) == (120, 32)
    assert built["FareyEdge"] == built["IntegerMoebius"] == 0
    assert built["ExtRational"] <= tips


# JSON endpoints left unreduced: 1/2 as [2, 4], and oo as [-1, 0] and [5, 0]
_UNREDUCED = [([2, 4], [1, 1], 0.5), ([-1, 0], [-1, 1], -2.0),
              ([5, 0], [10 ** 400, 1], 1.5)]


def _ends_view(call, *args):
    """call(*args), or the error it raised as (type name, message)."""
    try:
        return call(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _reference_index(edge_values):
    """(support, tips) of ShearFunction._index for the (edge, value) pairs,
    built from oriented_edge, fan_index and tip_sort_key."""
    from shearfield.farey import farey_order, fan_index, oriented_edge
    from shearfield.fields import tip_sort_key
    pairs = lambda e: ((e.initial.num, e.initial.den),
                       (e.terminal.num, e.terminal.den))
    support = sorted(((oriented_edge(e.initial, e.terminal), v)
                      for e, v in edge_values),
                     key=lambda ev: sorted(pairs(ev[0])))
    tips = sorted({p for e, _ in support for p in (e.initial, e.terminal)},
                  key=lambda p: tip_sort_key(p, farey_order(p)))
    return ([(*pairs(e), v) for e, v in support],
            [(p, farey_order(p), [
                (fan_index(p, e.terminal if e.initial == p else e.initial),
                 v, pairs(e))
                for e, v in support if p in (e.initial, e.terminal)])
             for p in tips])


def _index_view(sdot):
    """ShearFunction._index in _reference_index's form."""
    support, tips = sdot._index()
    assert list(tips) == [(tip.num, tip.den) for tip, _, _ in tips.values()]
    return (support,
            [(tip, order, [(n, value, support[j][:2]) for n, value, j in fan])
             for tip, order, fan in tips.values()])


def _kept_ends(e, value):
    """The ends of the one-edge shear function {e: value} in every term
    halved_terms keeps, each of its two fans taken whole."""
    from shearfield.farey import farey_order, fan_index
    from shearfield.fields import ShearFunction, halved_terms
    ends = (e.initial, e.terminal)
    order = max(map(farey_order, ends))
    N = max(abs(fan_index(ends[0], ends[1])), abs(fan_index(*ends[::-1])))
    terms = halved_terms(ShearFunction([(e, value)]), order, N)
    assert len(terms) == 2
    return {t[-1] for t in terms}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(_FAN_TIPS + [(10 ** 400, 1)]),
                          st.integers(min_value=-40, max_value=40),
                          st.sampled_from([1, -1, 2, 5]),
                          st.sampled_from([1, -1, 3]), st.booleans()),
                max_size=12))
def test_integer_index_matches_reference(tmp_path, picks):
    """ShearFunction's integer index, built through set() and through
    parse_shear_file, equals the one that oriented_edge, fan_index and
    tip_sort_key give: the same support and tip order, orders, fan indices
    and values.  halved_terms takes each edge's float ends as edge_ends
    does, or raises the same error where edge_ends has none (a tip at
    10^400).  Tips oo, 0 and negative ones are drawn, each edge in either
    orientation, and the file writes its endpoints unreduced (scaled by
    -1, 2, 3 or 5), [2, 4], [-1, 0] and [5, 0] among them."""
    from shearfield.farey import (ExtRational, FareyEdge, fan_edge,
                                  oriented_edge)
    from shearfield.fields import ShearFunction, edge_ends
    entries, edges = [], {}

    def add(p, q, value):
        e = FareyEdge(ExtRational(*p), ExtRational(*q))
        if edges.setdefault(_unoriented(e), (e, value))[0] is e:
            entries.append({"p": p, "q": q, "value": value})

    for p, q, value in _UNREDUCED:
        add(p, q, value)
    for k, (tip, n, a, b, flip) in enumerate(picks):
        e = fan_edge(ExtRational(*tip), n)
        p, q = (e.terminal, e.initial) if flip else (e.initial, e.terminal)
        add([a * p.num, a * p.den], [b * q.num, b * q.den],
            (k + 1) * (-0.75) ** k)
    by_set = ShearFunction()
    for e, value in edges.values():
        by_set.set(e, value)
    by_file = parse_shear_file(write_shears(tmp_path, entries))
    want = _reference_index(edges.values())
    assert _index_view(by_set) == want
    assert _index_view(by_file) == want
    for e, value in edges.values():
        assert _ends_view(_kept_ends, e, value) == _ends_view(
            lambda e: {edge_ends(e)}, oriented_edge(e.initial, e.terminal))


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


@pytest.mark.parametrize("far_edge, fraction", [
    ({"p": [1, 1], "q": [1, 0]}, 1.0),
    ({"p": [1, 3], "q": [1, 2]}, 0.5),
], ids=["both-low", "one-low"])
def test_fourier_low_order_fraction_of_huge_shears(tmp_path, far_edge,
                                                   fraction):
    """Two shears of 1e308 sum past the float range, yet the fraction of
    their mass at Farey order <= 2 is read off exactly, as CSV's
    coefficients are."""
    path = write_shears(tmp_path, [{"p": [1, 0], "q": [0, 1], "value": 1e308},
                                   {**far_edge, "value": 1e308}])
    out = tmp_path / "f.json"
    assert run(["fourier", "--shears", path, "--n-max", "2",
                "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["low_order_shear_fraction"] == fraction


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


@pytest.mark.parametrize("t1", ["100000000.1,-100000000.3,0.2",
                                "100.0000001,-100.0000003,0.0000002"])
def test_wp_pair_accepts_decimal_triple_summing_to_zero(capsys, t1):
    """The float sum of the first triple is -3e-9: zero to rounding at its
    scale, so the cusp condition holds."""
    assert run(["wp", "pair", "--depth", "2", "--t1", t1]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["t1"] == [float(v) for v in t1.split(",")]


_BEYOND_FLOAT = 10 ** 400           # an integer beyond the float range


@pytest.mark.parametrize("argv", [
    ["hilbert", "shear", "--edge", f"{_BEYOND_FLOAT},1,1,0"],
    ["field", "eval", "--window", str(10 * _BEYOND_FLOAT)],
    ["hilbert", "eval", "--window", str(10 * _BEYOND_FLOAT)],
    ["hilbert", "shear", "--window", str(10 * _BEYOND_FLOAT)],
    ["fourier", "--window", str(10 * _BEYOND_FLOAT)],
], ids=["edge", "field", "hilbert-eval", "hilbert-shear", "fourier"])
def test_end_beyond_float_range_exits_with_diagnostic(tmp_path, capsys,
                                                      argv):
    """An edge end of 10^400, given by --edge or kept in the window of the
    fan at oo, overflows float conversion: exit 1 with the one-line JSON
    diagnostic, nothing on stdout."""
    edge = [{"p": [_BEYOND_FLOAT, 1], "q": [1, 0], "value": 0.5}]
    if "--edge" in argv:
        edge = [{"p": [0, 1], "q": [1, 0], "value": 0.5}]
    path = write_shears(tmp_path, edge)
    assert run([*argv, "--shears", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["field"] == ""


@pytest.mark.parametrize("command", [["field", "eval"], ["hilbert", "eval"],
                                     ["fourier"]],
                         ids=["field", "hilbert", "fourier"])
def test_ends_that_round_together_exit_with_one_diagnostic(tmp_path, capsys,
                                                          command):
    """The edge {N/(N+1), (N+1)/(N+2)}, N = 10^17, is a Farey edge whose
    two ends both round to the float 1.0, so its field has no float name:
    each float command exits 1 with check_ends' diagnostic."""
    n = 10 ** 17
    path = write_shears(tmp_path, [{"p": [n, n + 1], "q": [n + 1, n + 2],
                                    "value": 1.0}])
    assert run([*command, "--shears", path,
                "--max-order", str(2 * n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith(
        "ends (1.0, 1.0) name no elementary field")


def test_overflowing_quadratic_coefficient_names_its_term(tmp_path, capsys):
    """The shear 1e300 on {1/(10^6 + 1), 1/10^6} gives an interval term
    whose coefficient c/(a - b) overflows, though its field stays below
    3e287: the field and the oracle exit 1 naming the term, and the closed
    form, which never builds the coefficient, answers."""
    n = 10 ** 6
    path = write_shears(tmp_path, [{"p": [1, n + 1], "q": [1, n],
                                    "value": 1e300}])
    common = ["--shears", path, "--max-order", str(2 * n), "--samples", "3"]
    for command in (["field", "eval"], ["hilbert", "eval", "--mode", "oracle"]):
        assert run([*command, *common]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == (
            "term 5e+299 on (9.99999000001e-07, 1e-06): its quadratic "
            "coefficient c/(a - b) overflows")
    assert run(["hilbert", "eval", "--mode", "closed", *common]) == 0
    assert capsys.readouterr().out.startswith("x,value\n")


def test_field_beyond_float_range_exits_with_non_finite_diagnostic(
        tmp_path, capsys):
    """The shears 1e308 on {0, 1} and {1/2, 1} are finite, and so is each
    term's c/(a - b), but their sum, the field's x^2 coefficient on
    (1/2, 1), lies beyond the float range: the field, the oracle and the
    closed form each exit 1 with the non-finite diagnostic, nothing on
    stdout."""
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 1], "value": 1e308},
                                   {"p": [1, 2], "q": [1, 1], "value": 1e308}])
    for command in (["field", "eval"], ["hilbert", "eval", "--mode", "oracle"],
                    ["hilbert", "eval"]):
        assert run([*command, "--shears", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "the result holds a non-finite value", "field": "value"}


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
    # `zygmund check` writes JSON only, and `farey` reads no fan window
    (["zygmund", "check", "--shears", "s.json", "--format", "json"],
     "format"),
    (["farey", "edges", "--window", "3"], "window"),
    # each `hilbert` and `wp` action takes only the options it reads
    (["hilbert", "shear", "--shears", "s.json", "--format", "csv"], "format"),
    (["hilbert", "shear", "--shears", "s.json", "--from=-1"], "from"),
    (["hilbert", "shear", "--shears", "s.json", "--to", "2"], "to"),
    (["hilbert", "shear", "--shears", "s.json", "--samples", "20000"],
     "samples"),
    (["hilbert", "shear", "--shears", "s.json", "--mode", "oracle"], "mode"),
    (["hilbert", "shear", "--shears", "s.json", "--tolerance=1e-6"],
     "tolerance"),
    (["hilbert", "eval", "--shears", "s.json", "--edge", "1,2,3,4"], "edge"),
    (["wp", "gram", "--t1", "1,2,3"], "t1"),
    (["wp", "gram", "--t2=1,2,3"], "t2"),
    (["wp", "pair", "--t1", "1,2"], "t1"),
    ([], "command"),
    (["wp"], "action"),
    (["wp", "nosuch"], "action"),
    (["wp", "gram", "--depth"], "depth"),
    # "--" ends nothing: it is a stray token, named "-"
    (["wp", "gram", "--", "--depth", "1"], "-"),
    (["wp", "pair", "--t", "1,2,-3"], "t"),
    # of two bad tokens, the first in argv order is named
    (["wp", "pair", "--t2", "1,1,1", "--depth", "0"], "t2"),
    (["wp", "gram", "--depth", "0", "--bogus"], "depth"),
    (["field", "eval", "--bogus", "--from", "nan"], "bogus"),
    (["hilbert", "eval", "--from", "nan", "--tolerance", "0"], "from"),
])
def test_usage_error_is_one_json_line(capsys, argv, field):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["field"] == field


def test_options_by_prefix_last_value_and_negative_values(tmp_path, capsys):
    """A unique prefix names its option, the last of a repeated option
    wins, and a value may start with a minus sign."""
    assert run(["wp", "gram", "--depth", "3"]) == 0
    want = capsys.readouterr().out
    assert run(["wp", "gram", "--dep", "3"]) == 0
    assert capsys.readouterr().out == want
    assert run(["wp", "gram", "--depth", "5", "--depth", "3"]) == 0
    assert capsys.readouterr().out == want
    path = write_shears(tmp_path, [{"p": [0, 1], "q": [1, 0], "value": 0.5}])
    assert run(["fourier", "--shears", path, "--n-min", "-5",
                "--n-max", "-3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows] == ["n", "-5", "-4", "-3"]


def test_action_help_lists_only_its_options(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["hilbert", "shear", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--edge" in out and "--max-order" in out
    assert "--tolerance" not in out and "--samples" not in out


def _args_read(func, action):
    """The attributes of `args` that `func` can read when run for `action`,
    in its body and in the cli functions it passes `args` to.  A branch on
    `args.action == "..."` (or `!=`) is followed only where the test holds,
    and a followed branch that returns ends the scan of its block."""
    read = set()

    def scan(block):
        for stmt in block:
            test = stmt.test if isinstance(stmt, ast.If) else None
            if (isinstance(test, ast.Compare)
                    and ast.unparse(test.left) == "args.action"):
                holds = ((test.comparators[0].value == action)
                         == isinstance(test.ops[0], ast.Eq))
                if scan(stmt.body if holds else stmt.orelse):
                    return True
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and ast.unparse(node.value) == "args"):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and "args" in map(ast.unparse, node.args)):
                    read.update(_args_read(
                        getattr(cli, ast.unparse(node.func)), action))
            if isinstance(stmt, ast.Return):
                return True
        return False

    scan(ast.parse(inspect.getsource(func)).body[0].body)
    return read


@pytest.mark.parametrize("command, action", [
    (command, action) for command, (_, _, actions) in cli._COMMANDS.items()
    for action in actions], ids=str)
def test_option_table_holds(capsys, command, action):
    """Each action's entry in _COMMANDS is its whole contract: -h lists
    exactly its options, every default passes its option's own type, and
    the command's function reads no `args` attribute beyond those the
    parser fills for the action."""
    _, func, actions = cli._COMMANDS[command]
    names = actions[action]
    words = [command] + ([action] if action else [])
    with pytest.raises(SystemExit) as exc:
        run(words + ["-h"])
    assert exc.value.code == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed == list(names)
    for name in names:
        spec = cli._OPTIONS[name]
        if "default" in spec:
            spec.get("type", str)(spec["default"])      # raises if it fails
    required = ["--shears", "s.json"] if "--shears" in names else []
    filled = vars(cli.build_parser().parse_args(words + required))
    read = _args_read(func, action)
    assert "output" in read
    assert read <= set(filled), read - set(filled)


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


def _edge_entries(edges, values):
    return [{"p": e.to_json()[:2], "q": e.to_json()[2:], "value": v}
            for e, v in zip(edges, values)]


def _bench_grid_shears(tmp_path):
    """The benchmark's `grid` shear file at seed 0: the first 60 edges of
    enumerate_edges(6), valued by the nonzero standard normal draws of
    random.Random("grid:0")."""
    rng, values = random.Random("grid:0"), []
    while len(values) < 60:
        v = rng.gauss(0.0, 1.0)
        if v != 0.0:
            values.append(v)
    return write_shears(tmp_path, _edge_entries(enumerate_edges(6), values))


def _negative_tip_shears(tmp_path):
    """The first 40 edges of enumerate_edges(7) with a negative end, the
    k-th valued sin(k + 1)."""
    edges = [e for e in enumerate_edges(7)
             if min(float(e.initial), float(e.terminal)) < 0][:40]
    return write_shears(tmp_path, _edge_entries(
        edges, [math.sin(k + 1.0) for k in range(len(edges))]))


@pytest.mark.parametrize("shears, argv, digest", [
    (_bench_grid_shears, ["--edge", "0,1,1,1", "--max-order", "6"],
     "15db5a5fe046f7b30cb4f83454759755db966d0f84afad24df6d384333ee25f0"),
    (_negative_tip_shears, ["--edge=-1,2,0,1", "--max-order", "8"],
     "820a7af0152e72ab1192e6e35cc0f077581a46c558055b092003c9fb43e196f5"),
], ids=["grid", "negative"])
def test_hilbert_shear_stdout_golden_bytes(tmp_path, capsys, shears, argv,
                                           digest):
    """The exact bytes `hilbert shear` printed when each term's weight was
    its own delta_weight call: the batched edge weights change no bit."""
    assert run(["hilbert", "shear", "--shears", shears(tmp_path),
                *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_GRID_X = ["--from", "-2.9", "--to", "3.1", "--samples", "7"]


@pytest.mark.parametrize("command, argv, digest", [
    (["fourier"], ["--n-max", "16"],
     "1255bc73d17a574a385aebda3a7e4054f9b581866478635772447a5c6cdf288c"),
    (["zygmund", "check"], [],
     "9d33c891b9f49f782c77ea1e6edf97266f83e5927262f0fdf361521ccbb146c9"),
    (["field", "eval"], _GRID_X,
     "035f01df8933ebc340f5c4ce4ee5005db3e83538b2cc72725a2e5f1ffc7e64ad"),
    (["hilbert", "eval"], _GRID_X,
     "eaece1677258cd394e29420d73c35ca730e76c1a288056033c4667fa8c3929a3"),
    (["hilbert", "eval", "--mode", "oracle"], _GRID_X,
     "d401e7a67bb81ba660b11559dd91ad8f0249403faa7efa0eaaab52c1b4d1bf02"),
], ids=["fourier", "zygmund", "field", "hilbert", "oracle"])
def test_shear_file_stdout_golden_bytes(tmp_path, capsys, command, argv,
                                        digest):
    """The exact bytes the shear-file commands printed on the benchmark's
    grid file when every edge was oriented by its arc, every fan index had
    a fan map of its own, the Zygmund scan read a dict per index, each
    Fourier coefficient took its own exponentials and the oracle's
    integrand took one list per pole: the integer orientation, one fan map
    per tip, the windowed scan, one exponential table per endpoint angle
    and one integrand pass per node change no bit."""
    assert run([*command, "--shears", _bench_grid_shears(tmp_path),
                *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_grid_integrand_nodes(tmp_path, monkeypatch):
    """The oracle's pieces end at twice the farthest of x and the
    breakpoints, not at 1e3: on the benchmark's grid file its seven points
    hand quad's rule 5,334 nodes (9,618 with pieces out to 1e3)."""
    from shearfield import quadrature
    nodes = []
    quad = quadrature.quad

    def counted(f, *args, **kwargs):
        def g(xs):
            nodes.append(len(xs))
            return f(xs)
        return quad(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", counted)
    assert run(["hilbert", "eval", "--shears", _bench_grid_shears(tmp_path),
                "--mode", "oracle", *_GRID_X]) == 0
    assert 0 < sum(nodes) <= 6000


@pytest.mark.parametrize("argv, want", [
    (["farey", "edges", "--max-order", "2", "--format", "json"],
     '{"data":[[1,0,0,1],[0,1,1,1],[1,1,1,0],[1,0,-1,1],[-1,1,0,1]],'
     '"meta":{"max_order":2,"version":"0.1.0"}}\n'),
    # one sample is the one row at --from
    (["field", "eval", "--from", "0.5", "--to", "2", "--samples", "1"],
     "x,value\n0.5,0\n"),
], ids=["farey-edges-json", "field-one-sample"])
def test_stdout_exact_bytes(tmp_path, capsys, argv, want):
    if argv[0] != "farey":
        argv = argv + ["--shears", write_shears(tmp_path, [])]
    assert run(argv) == 0
    assert capsys.readouterr().out == want


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
    (["fourier", "--n-min", "-5000", "--n-max", "5000"], "parse_shear_file",
     "n-max"),
    (["hilbert", "shear", "--max-order", "10001"], "parse_shear_file",
     "max-order"),
    (["zygmund", "check", "--window", "0"], "parse_shear_file", "window"),
    (["fourier", "--n-min", "3", "--n-max", "2"], "parse_shear_file", "n"),
    # the grid is checked before the shear file is read
    (["field", "eval", "--samples", "0"], "parse_shear_file", "samples"),
    (["hilbert", "eval", "--samples", "-1"], "parse_shear_file", "samples"),
    (["hilbert", "eval", "--from=-inf"], "parse_shear_file", "from"),
    (["field", "eval", "--to", "nan"], "parse_shear_file", "to"),
    (["field", "eval", "--from", "2", "--to", "1"], "parse_shear_file",
     "grid"),
    (["hilbert", "eval", "--from=-1e308", "--to", "1e308"],
     "parse_shear_file", "grid"),
    # so are the target edge and, before the word ball is walked, the
    # tangent vectors
    (["hilbert", "shear", "--edge", "1,2,3,4"], "parse_shear_file", "edge"),
    (["wp", "pair", "--t1", "1,2"], "_reduced_words", "t1"),
    (["wp", "pair", "--t2", "1,0,0"], "_reduced_words", "t2"),
])
def test_size_beyond_limit_rejected(tmp_path, monkeypatch, capsys, argv,
                                    patched, field):
    # each command imports what it calls at call time, so the function is
    # replaced in the module that defines it
    owner = {"enumerate_edges": "farey", "enumerate_vertices": "farey",
             "assemble_field": "fields", "hilbert_series_eval": "hilbert",
             "zygmund_condition_sup": "fields",
             "parse_shear_file": "cli", "_reduced_words": "torus"}[patched]

    def no_work(*args):
        raise AssertionError(f"{patched} was called")

    monkeypatch.setattr(f"shearfield.{owner}.{patched}", no_work)
    if argv[0] not in ("farey", "wp"):
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
_BIG = 10 ** 20


def _up_to_big(lo):
    """Integers from lo to 10^20, their sizes spread over every power of
    ten, as a plain integer range draws mostly small ones."""
    return st.integers(0, 20).flatmap(lambda k: st.integers(lo, 10 ** k))


def _parent_edge(num, den, upper):
    """The Farey edge from num/den (finite, nonzero) to one of the two
    parents its Stern-Brocot walk ends on."""
    from shearfield.farey import _walk, reduced
    p = reduced(num, den)
    return list(p), list(_walk(*p)[2 if upper else 1])


# a fan edge at a tip of numerator and denominator up to 10^20
_DEEP_EDGE = st.builds(
    _parent_edge, st.tuples(_up_to_big(1), st.sampled_from([1, -1])).map(
        lambda nk: nk[0] * nk[1]), _up_to_big(1), st.booleans())
# finite values mostly, some at the ends of the float range, and now and
# then one large enough to overflow
_HUGE = st.sampled_from([1e308, -1.5e308, 1e200, 1e154])
_VALUE = _mostly(
    _mostly(st.floats(-10.0, 10.0),
            st.sampled_from([5e-324, -5e-324, 1e308, -1e308])),
    st.one_of(_HUGE, st.floats(allow_nan=False), _JUNK))
_EDGE = _mostly(
    st.builds(lambda pq, v: {"p": pq[0], "q": pq[1], "value": v},
              st.sampled_from(_FAREY_EDGES) | _DEEP_EDGE, _VALUE),
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
    "--max-order": _number_text(st.integers(0, 4) | _up_to_big(0)),
    "--window": _number_text(st.integers(-1, 3) | _up_to_big(-1)),
    "--samples": _number_text(st.integers(0, 5)),
    "--from": _number_text(st.integers(-3, 3)),
    "--to": _number_text(st.integers(-3, 3)),
    "--n-min": _number_text(st.integers(-3, 3)),
    "--n-max": _number_text(st.integers(-3, 3)),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--tolerance": _number_text(st.sampled_from([1e-8, 1e-3, 0.0])),
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
_TRUNCATION = ["--max-order", "--window"]
_COMMON = _TRUNCATION + ["--format"]
_GRID = _COMMON + ["--from", "--to", "--samples"]
# the options each command takes; the quadrature oracle (--mode) is left
# out for its cost, and at most 3 edges of small endpoints keep the rest
# cheap
_COMMANDS = {
    ("field", "eval"): _GRID,
    ("hilbert", "eval"): _GRID + ["--tolerance"],
    ("hilbert", "shear"): _TRUNCATION + ["--edge"],
    ("zygmund", "check"): _TRUNCATION,
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


def _shear_text(edges, values):
    return json.dumps({"edges": [{"p": p, "q": q, "value": v}
                                 for (p, q), v in zip(edges, values)]})


# the corners of the generator's ranges: edges at tips +-1/10^20 with
# shears +-1e308 and 5e-324, the edge at (10^20 - 1)/10^20 whose ends
# round to one float, and --window and --max-order at 10^20
_WIDE = _shear_text([_parent_edge(1, _BIG, False),
                     _parent_edge(-1, _BIG, False), ([0, 1], [1, 0])],
                    [1e308, -1e308, -5e-324])
_ROUND = _shear_text([_parent_edge(_BIG - 1, _BIG, True)], [5e-324])
_W, _M = f"--window={_BIG}", f"--max-order={_BIG}"


@settings(max_examples=50, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_cli_calls())
@example(call=(["field", "eval", _W, _M], _WIDE))
@example(call=(["hilbert", "eval", _W, _M], _WIDE))
@example(call=(["fourier", _W, _M], _WIDE))
@example(call=(["zygmund", "check", _M], _WIDE))
@example(call=(["hilbert", "shear", "--max-order=4", _W], _ROUND))
def test_cli_fuzz_fails_cleanly_or_answers_finitely(tmp_path_factory, call):
    """Whatever the shear file and the arguments, the CLI either exits
    nonzero with exactly one JSON diagnostic line on stderr and nothing on
    stdout, or exits 0 with no nan or inf in its output; it never raises."""
    argv, text = call
    if argv[0] != "wp":
        path = tmp_path_factory.mktemp("fuzz") / "shears.json"
        if text is not None:           # None: the file does not exist
            path.write_text(text)
        argv = [*argv, "--shears", str(path)]
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
