"""Command-line front end: shear-file ingestion and subcommand dispatch.

Input shear functions are JSON files

    {"edges": [{"p": [num, den], "q": [num, den], "value": 0.25}, ...]}

with oo written as [1, 0].  Every edge must satisfy the Farey determinant
condition and appear at most once; violations are reported with the entry
index and offending field.  Numeric output is CSV with a header row or a
JSON envelope {"meta": ..., "data": ...}; floats are printed with 17
significant digits so reruns are byte-identical.

Each subcommand imports the package modules it runs inside its function,
so a process loads only those (`farey` loads only `shearfield.farey`).
The command line is read straight from the option tables below by
`_Parser`, so the CLI loads no argparse.  Each option's type holds the
whole rule for its value, so a bad value is a usage error before any work.
"""

from __future__ import annotations

import json
import math
import sys
import types

from . import __version__ as VERSION


# deepest word ball `wp` walks: 3 (2 * 3^10 - 1) = 354,291 lifted edges
MAX_WP_DEPTH = 10
# largest `farey --max-order`: the edge count doubles per order, 32,765
# edges at order 14
MAX_FAREY_ORDER = 14
# most grid points: each costs a pass over the term list, or one
# principal-value integration (a few ms) with `--mode oracle`
MAX_SAMPLES = 10_000
# widest `zygmund check --window` K: the scan visits at most 2K - 1 fan
# indices m per support edge, at O(K) each
MAX_ZYGMUND_WINDOW = 200
# largest `hilbert shear --max-order`: the output lists one partial sum per
# order, deep tips or not (`hilbert eval`, `field` and `zygmund` print no
# such list and take any order)
MAX_SHEAR_ORDER = 10_000
# most coefficients in `fourier --n-min..--n-max`, each a column per term
MAX_FOURIER_COEFFICIENTS = 4_096


class CliError(Exception):
    def __init__(self, message: str, field_name: str = "", code: int = 2):
        super().__init__(message)
        self.field_name = field_name
        self.code = code


def _endpoint(raw, where: str) -> list:
    """A JSON endpoint, checked to be two JSON integers (not floats or
    booleans); parse_shear_file reduces it (farey.reduced)."""
    if not (isinstance(raw, list) and len(raw) == 2 and
            type(raw[0]) is type(raw[1]) is int):
        raise CliError(f"{where}: endpoint {json.dumps(raw)} is not "
                       "a pair of integers", where)
    return raw


def parse_shear_file(path: str) -> ShearFunction:
    """Load and validate a shear JSON file.

    Endpoints stay integer (num, den) pairs from the file to the
    ShearFunction: each is checked (_endpoint) and reduced
    (farey.reduced), adjacency is one cross-multiplication, and the edge
    is stored under its key.  An ExtRational is built only to word a
    diagnostic.  A file that cannot be read or decoded is an `input`
    error."""
    from .farey import ExtRational, reduced
    from .fields import ShearFunction, _edge_key
    try:
        with open(path, encoding="utf-8") as fh:    # JSON is UTF-8
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", "input")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}", "input")
    except OSError as exc:      # a directory, no read permission
        raise CliError(f"cannot read {path}: {exc.strerror or exc}",
                       "input")
    except ValueError as exc:   # not UTF-8, an integer past the digit limit
        raise CliError(f"cannot read {path}: {exc}", "input")
    except RecursionError:      # arrays or objects nested past the stack
        raise CliError(f"cannot read {path}: JSON nested too deeply",
                       "input") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise CliError("shear file must be an object with an 'edges' list",
                       "edges")
    sdot = ShearFunction()
    seen = set()
    for idx, entry in enumerate(doc["edges"]):
        where = f"edges[{idx}]"
        if not isinstance(entry, dict):
            raise CliError(f"{where} is not an object", where)
        for key in ("p", "q", "value"):
            if key not in entry:
                raise CliError(f"{where} is missing '{key}'", f"{where}.{key}")
        try:
            u = reduced(*_endpoint(entry["p"], where))
            v = reduced(*_endpoint(entry["q"], where))
        except ZeroDivisionError as exc:
            raise CliError(f"{where}: bad endpoint ({exc})", where) from None
        if abs(u[0] * v[1] - v[0] * u[1]) != 1:
            raise CliError(f"{where}: {ExtRational(*u)} and {ExtRational(*v)}"
                           " are not Farey-adjacent", where)
        key = _edge_key(u, v)
        if key in seen:
            raise CliError(f"{where}: duplicate edge {ExtRational(*u)}, "
                           f"{ExtRational(*v)}", where)
        seen.add(key)
        value = entry["value"]
        # a JSON number only: bool is an int subclass, strings convert
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CliError(f"{where}: value is not a number",
                           f"{where}.value")
        try:
            value = float(value)
        except OverflowError:          # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise CliError(f"{where}: value is not finite", f"{where}.value")
        sdot._put(key, value)
    return sdot


def _grid(args) -> list[float]:
    """The --samples points from --from to --to, before any file is read."""
    lo, hi, n = args.grid_from, args.grid_to, args.samples
    if not hi > lo:
        raise CliError("need --to > --from", "grid")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    if not math.isfinite(step):
        raise CliError("grid step --to - --from overflows", "grid")
    return [lo + i * step for i in range(n)]


def _write(output, text: str) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _not_finite() -> CliError:
    return CliError("the result holds a non-finite value", "value", code=1)


def _emit_json(output, meta, data) -> None:
    """Write the JSON envelope {"meta": ..., "data": ...}; deterministic bytes.
    A non-finite float anywhere is an error, and nothing is written."""
    try:
        text = json.dumps({"meta": meta, "data": data}, sort_keys=True,
                          separators=(",", ":"), default=float,
                          allow_nan=False)
    except ValueError:
        raise _not_finite() from None
    _write(output, text + "\n")


def _emit(cfg_format: str, output, header, rows, meta):
    """Write CSV (header + rows) or a JSON envelope of row objects."""
    if cfg_format == "csv":
        lines = [",".join(header)]
        for row in rows:
            if not all(math.isfinite(v) for v in row if isinstance(v, float)):
                raise _not_finite()
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float)
                                  else str(v) for v in row))
        _write(output, "\n".join(lines) + "\n")
    else:
        _emit_json(output, meta, [dict(zip(header, row)) for row in rows])


def _meta(**kw):
    return {"version": VERSION, **kw}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_farey(args) -> int:
    from .farey import enumerate_edges, enumerate_vertices, farey_order
    if args.max_order > MAX_FAREY_ORDER:
        raise CliError(f"max-order must be at most {MAX_FAREY_ORDER}",
                       "max-order")
    meta = _meta(max_order=args.max_order)
    if args.action == "vertices":
        header = ["vertex", "num", "den", "order"]
        rows = [(str(v), v.num, v.den, farey_order(v))
                for v in enumerate_vertices(args.max_order)]
    else:
        # every tessellation edge with both ends of order <= max_order, in
        # JSON too the flat array [p_num, p_den, q_num, q_den]
        header = ["p_num", "p_den", "q_num", "q_den"]
        rows = [e.to_json() for e in enumerate_edges(args.max_order)]
        if args.format == "json":
            _emit_json(args.output, meta, rows)
            return 0
    _emit(args.format, args.output, header, rows, meta)
    return 0


def cmd_field(args) -> int:
    from .fields import assemble_field, halved_terms, tail_bound
    grid = _grid(args)
    sdot = parse_shear_file(args.shears)
    bound = tail_bound(args.max_order + 1)
    V = assemble_field(halved_terms(sdot, args.max_order, args.window))
    try:
        rows = list(zip(grid, V.values(grid)))
    except OverflowError:       # a panel coefficient beyond the float range
        raise _not_finite() from None
    _emit(args.format, args.output, ["x", "value"], rows,
          _meta(max_order=args.max_order, window=args.window,
                unit_tail_bound=bound))
    return 0


def cmd_zygmund(args) -> int:
    from .fields import zygmund_condition_sup
    if not 1 <= args.window <= MAX_ZYGMUND_WINDOW:
        raise CliError(f"window must be between 1 and {MAX_ZYGMUND_WINDOW}",
                       "window")
    sdot = parse_shear_file(args.shears)
    report = zygmund_condition_sup(sdot, sdot.support_tips(), args.window)
    witness = None
    if report.witness is not None:
        tip, m, k = report.witness
        witness = {"tip": [tip.num, tip.den], "m": m, "k": k}
    _emit("json", args.output, ["sup", "witness"],
          [(report.sup_value, witness)],
          _meta(window=args.window))
    return 0


def cmd_hilbert(args) -> int:
    from .fields import assemble_field, halved_terms, tail_bound
    from .hilbert import (hilbert_pv_oracle, hilbert_series_eval,
                          hilbert_shear_series)
    if args.action == "eval":
        grid = _grid(args)
    elif args.max_order > MAX_SHEAR_ORDER:
        raise CliError(f"max-order must be at most {MAX_SHEAR_ORDER} for "
                       "hilbert shear", "max-order")
    sdot = parse_shear_file(args.shears)
    terms = halved_terms(sdot, args.max_order, args.window)
    if args.action == "eval":
        if args.mode == "oracle":
            V = assemble_field(terms)
            try:
                values = [hilbert_pv_oracle(V, x, args.tolerance)
                          for x in grid]
            except OverflowError:   # as in cmd_field
                raise _not_finite() from None
        else:
            values = hilbert_series_eval(terms, grid)
        rows = list(zip(grid, values))
        _emit(args.format, args.output, ["x", "value"], rows,
              _meta(mode=args.mode, max_order=args.max_order,
                    window=args.window))
        return 0
    # shear: recovered transform shear on one edge, with partials per order
    partials = hilbert_shear_series(terms, args.edge, args.max_order)
    _emit_json(args.output,
               _meta(max_order=args.max_order, window=args.window,
                     unit_tail_bound=tail_bound(args.max_order + 1)),
               {"edge": args.edge.to_json(), "value": partials[-1],
                "partials_by_order": partials})
    return 0


def cmd_fourier(args) -> int:
    from .farey import left_sum
    from .fields import halved_terms
    from .fourier import fourier_coefficients
    lo, hi = args.n_min, args.n_max
    if hi < lo:
        raise CliError("need --n-max >= --n-min", "n")
    if hi - lo >= MAX_FOURIER_COEFFICIENTS:
        raise CliError(f"--n-min..--n-max may span at most "
                       f"{MAX_FOURIER_COEFFICIENTS} coefficients", "n-max")
    sdot = parse_shear_file(args.shears)
    coefficients = fourier_coefficients(
        halved_terms(sdot, args.max_order, args.window), range(lo, hi + 1))
    rows = [(n, c.real, c.imag) for n, c in enumerate(coefficients, lo)]
    low = {(0, 1), (1, 0), (1, 1), (-1, 1)}     # Farey order <= 2
    support = sdot._index()[0]      # (u, v, value) as in edges()
    # each |v| scaled by a power of two so the masses cannot overflow; the
    # scaling is exact, so the fraction keeps its bits
    scale = -math.frexp(max((abs(v) for _, _, v in support),
                            default=0.0))[1]
    low_mass = left_sum(math.ldexp(abs(v), scale) for p, q, v in support
                        if p in low or q in low)
    total_mass = left_sum(math.ldexp(abs(v), scale)
                          for _, _, v in support)
    _emit(args.format, args.output, ["n", "re", "im"], rows,
          _meta(max_order=args.max_order, window=args.window,
                low_order_shear_fraction=low_mass / (total_mass or 1.0)))
    return 0


def cmd_wp(args) -> int:
    from .torus import wp_gram, wp_pairing
    if args.action == "pair":
        values = wp_pairing(args.t1, args.t2, args.depth)
        prev = values[-2] if args.depth > 1 else None
        data = {"t1": list(args.t1), "t2": list(args.t2),
                "value": values[-1], "value_prev_depth": prev}
    else:
        grams = wp_gram(args.depth)
        prev = grams[-2]["gram"] if args.depth > 1 else None
        data = {**grams[-1], "depth_prev_gram": prev}
    _emit_json(args.output, _meta(depth=args.depth), data)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_DESCRIPTION = ("Shear functions on the Farey tessellation: field evaluation, "
                "Hilbert transform, Fourier coefficients, Weil-Petersson "
                "pairing.")


def _integer(lo: int, hi: float = math.inf):
    """The type of an integer option that must lie in lo..hi."""
    def convert(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise ValueError(f"must be >= {lo}" if hi == math.inf
                             else f"must be between {lo} and {hi}")
        return n
    return convert


def _real(above: float = -math.inf):
    """The type of a float option that must be finite and above `above`."""
    def convert(text: str) -> float:
        x = float(text)
        if not above < x < math.inf:
            raise ValueError("must be finite" if above == -math.inf
                             else f"must be finite and > {above}")
        return x
    return convert


def _edge(text: str) -> FareyEdge:
    """p_num,p_den,q_num,q_den: a Farey edge, canonically oriented."""
    from .farey import ExtRational, oriented_edge
    a, b, c, d = map(int, text.split(","))
    return oriented_edge(ExtRational(a, b), ExtRational(c, d))


def _tangent(text: str) -> tuple:
    """Three shears on the torus's edges that meet the cusp condition."""
    from .torus import cusp_condition_check
    a, b, c = map(float, text.split(","))
    if not cusp_condition_check((a, b, c)):
        raise ValueError("violates the cusp condition (sum must be 0)")
    return a, b, c


# every option: the type that reads and checks its value text (str when
# absent), allowed values, default text, whether it is required, the attribute
# it fills (its name without dashes, - as _, when no dest) and help text
_OPTIONS = {
    "--shears": {"required": True,
                 "help": "shear JSON file (see module docstring)"},
    "--window": {"type": _integer(0), "default": "20",
                 "help": "fan index window |n| <= window"},
    "--max-order": {"type": _integer(1), "default": "6", "help": "largest "
                    "Farey order of fan tips in truncated sums"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--output": {"help": "output path (default stdout)"},
    "--from": {"type": _real(), "default": "-3.0", "dest": "grid_from"},
    "--to": {"type": _real(), "default": "3.0", "dest": "grid_to"},
    "--samples": {"type": _integer(1, MAX_SAMPLES), "default": "61"},
    "--mode": {"choices": ["closed", "oracle"], "default": "closed"},
    "--tolerance": {"type": _real(0.0), "default": "1e-8",
                    "help": "principal-value oracle tolerance"},
    "--edge": {"type": _edge, "default": "0,1,1,0",
               "help": "target edge as p_num,p_den,q_num,q_den"},
    "--n-min": {"type": int, "default": "0"},
    "--n-max": {"type": int, "default": "10"},
    "--t1": {"type": _tangent, "default": "1,-1,0"},
    "--t2": {"type": _tangent, "default": "0,1,-1"},
    "--depth": {"type": _integer(1, MAX_WP_DEPTH), "default": "6"},
}
_FILE = ("--shears", "--window", "--max-order")
_GRID = _FILE + ("--format", "--output", "--from", "--to", "--samples")
# command: (help, function, {action: the options it reads}); `fourier`
# takes no action word, keyed None
_COMMANDS = {
    "farey": ("tessellation combinatorics", cmd_farey,
              dict.fromkeys(["vertices", "edges"],
                            ("--max-order", "--format", "--output"))),
    "field": ("evaluate the vector field of a shear file", cmd_field,
              {"eval": _GRID}),
    # --max-order is checked but not read: the bench's deep job passes it
    "zygmund": ("admissibility condition checker", cmd_zygmund,
                {"check": _FILE + ("--output",)}),
    "hilbert": ("Hilbert transform of the field", cmd_hilbert,
                {"eval": _GRID + ("--mode", "--tolerance"),
                 "shear": _FILE + ("--edge", "--output")}),
    "fourier": ("Fourier coefficients of the field", cmd_fourier,
                {None: _FILE + ("--format", "--output", "--n-min",
                                "--n-max")}),
    "wp": ("Weil-Petersson pairing on the punctured torus", cmd_wp,
           {"pair": ("--t1", "--t2", "--depth", "--output"),
            "gram": ("--depth", "--output")}),
}


def _usage_error(message: str, token: str) -> CliError:
    """A usage error naming the option (or stray token) without dashes."""
    return CliError(message, token.lstrip("-").partition("=")[0] or "-")


def _value(name: str, text: str):
    """Option `name`'s value, read from `text` by its type and choices."""
    spec = _OPTIONS[name]
    try:
        value = spec.get("type", str)(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _usage_error(f"{name} {text!r}: {exc}", name) from None
    if "choices" in spec and value not in spec["choices"]:
        raise _usage_error(f"{name}: invalid choice {value!r} (choose from "
                           f"{', '.join(spec['choices'])})", name)
    return value


class _Parser:
    """Reads argv as COMMAND [ACTION] [--OPTION VALUE ...] against
    _COMMANDS and _OPTIONS.  Every option takes exactly one value, as
    `--name value` or `--name=value`, whatever its first character, and a
    unique prefix of an option name is accepted; a default is read by the
    option's type too.  A usage error raises CliError naming `command`,
    `action`, or the first bad option or stray token in argv order; -h
    prints what may follow at that point and exits 0."""

    def parse_args(self, argv):
        rest = list(argv)
        if not rest:
            raise CliError("the following arguments are required: command",
                           "command")
        command = rest.pop(0)
        if command in ("-h", "--help"):
            _help(None, None)
        if command not in _COMMANDS:
            raise CliError(f"invalid command {command!r} (choose from "
                           f"{', '.join(_COMMANDS)})", "command")
        _, func, actions = _COMMANDS[command]
        action = None
        if None not in actions:
            if not rest:
                raise CliError("the following arguments are required: "
                               "action", "action")
            action = rest.pop(0)
            if action in ("-h", "--help"):
                _help(command, None)
            if action not in actions:
                raise CliError(f"invalid {command} action {action!r} (choose "
                               f"from {', '.join(actions)})", "action")
        names = actions[action]
        values = {}
        while rest:
            token = rest.pop(0)
            key, eq, value = token.partition("=")
            if key in names:
                match = [key]
            elif key.startswith("--") and len(key) > 2:
                match = [n for n in (*names, "--help") if n.startswith(key)]
            else:
                match = []
            if key == "-h" or match == ["--help"]:
                _help(command, action)
            if len(match) > 1:
                raise _usage_error(f"ambiguous option: {key} could match "
                                   f"{', '.join(match)}", key)
            if not match:
                raise _usage_error(f"unrecognized argument: {token}", token)
            name = match[0]
            if not eq:
                if not rest:
                    raise _usage_error(f"{name} expects one value", name)
                value = rest.pop(0)
            values[name] = _value(name, value)
        args = types.SimpleNamespace(command=command, action=action,
                                     func=func)
        for name in names:
            spec = _OPTIONS[name]
            if name not in values:
                if spec.get("required"):
                    raise _usage_error("the following arguments are "
                                       "required: " + name, name)
                if "default" in spec:
                    values[name] = _value(name, spec["default"])
            setattr(args, spec.get("dest", name[2:].replace("-", "_")),
                    values.get(name))
        return args


def _help(command, action) -> None:
    """Print what may follow at this point of the command line (the
    commands, a command's actions or an action's options); exit 0."""
    if command is None:
        follow, title = "COMMAND [ACTION] [--OPTION VALUE ...]", _DESCRIPTION
        rows = [(name, text) for name, (text, _, _) in _COMMANDS.items()]
    elif action is None and None not in _COMMANDS[command][2]:
        follow, title = "ACTION [--OPTION VALUE ...]", _COMMANDS[command][0]
        rows = [(a, " ".join(names))
                for a, names in _COMMANDS[command][2].items()]
    else:
        follow, title = "[--OPTION VALUE ...]", _COMMANDS[command][0]
        rows = []
        for name in _COMMANDS[command][2][action]:
            spec = _OPTIONS[name]
            notes = [spec["help"]] if "help" in spec else []
            if "choices" in spec:
                notes.append("one of " + ", ".join(spec["choices"]))
            if spec.get("required"):
                notes.append("required")
            elif spec.get("default") is not None:
                notes.append(f"default {spec['default']}")
            rows.append((name, "; ".join(notes)))
    words = " ".join(w for w in ("shearfield", command, action, follow) if w)
    sys.stdout.write("\n".join([f"usage: {words}", "", title, ""]
                               + [f"  {a:12} {b}" for a, b in rows]) + "\n")
    sys.exit(0)


def build_parser() -> _Parser:
    return _Parser()


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except CliError as exc:
        diag = {"error": str(exc), "field": exc.field_name}
        sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
        return exc.code
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        diag = {"error": str(exc), "field": ""}
        sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
