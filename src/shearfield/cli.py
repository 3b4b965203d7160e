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
`_Parser`, so the CLI loads no argparse.
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


def _check_knobs(args) -> None:
    """Central validation of the numeric knobs shared by the subcommands,
    the grid of `field eval` and `hilbert eval` included: all run before
    any file is read."""
    if getattr(args, "max_order", 6) < 1:
        raise CliError("max-order must be >= 1", "max-order")
    if getattr(args, "window", 20) < 0:
        raise CliError("window must be >= 0", "window")
    if hasattr(args, "samples"):
        lo, hi, n = args.grid_from, args.grid_to, args.samples
        if not 1 <= n <= MAX_SAMPLES:
            raise CliError(f"samples must be between 1 and {MAX_SAMPLES}",
                           "samples")
        for name, end in (("from", lo), ("to", hi)):
            if not math.isfinite(end):
                raise CliError(f"--{name} must be finite", name)
        if not hi > lo:
            raise CliError("need --to > --from", "grid")
        if n > 1 and not math.isfinite((hi - lo) / (n - 1)):
            raise CliError("grid step --to - --from overflows", "grid")
    tolerance = getattr(args, "tolerance", 1e-8)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise CliError("tolerance must be finite and positive", "tolerance")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_shear_file(path: str) -> ShearFunction:
    """Load and validate a shear JSON file."""
    from .farey import FareyEdge
    from .fields import ShearFunction
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", "input")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}", "input")
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
        p = _parse_endpoint(entry["p"], where)
        q = _parse_endpoint(entry["q"], where)
        try:
            edge = FareyEdge(p, q)      # ShearFunction orients it
        except ValueError as exc:
            raise CliError(f"{where}: {exc}", where)
        key = edge.unordered()
        if key in seen:
            raise CliError(f"{where}: duplicate edge {p}, {q}", where)
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
        sdot.set(edge, value)
    return sdot


def _parse_endpoint(raw, where: str) -> ExtRational:
    """An endpoint [num, den] of two JSON integers (not floats or booleans)."""
    from .farey import ExtRational
    if not (isinstance(raw, list) and len(raw) == 2 and
            all(type(v) is int for v in raw)):
        raise CliError(f"{where}: endpoint {json.dumps(raw)} is not a pair "
                       "of integers", where)
    try:
        return ExtRational(*raw)
    except ZeroDivisionError as exc:
        raise CliError(f"{where}: bad endpoint ({exc})", where)


def _parse_edge_arg(text: str) -> FareyEdge:
    from .farey import ExtRational, oriented_edge
    try:
        nums = [int(v) for v in text.split(",")]
        if len(nums) != 4:
            raise ValueError("need four integers")
        return oriented_edge(ExtRational(nums[0], nums[1]),
                             ExtRational(nums[2], nums[3]))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad edge '{text}': {exc}", "edge")


def _parse_triple(text: str, name: str) -> tuple:
    try:
        vals = [float(v) for v in text.split(",")]
        if len(vals) != 3:
            raise ValueError("need three numbers")
        return tuple(vals)
    except ValueError as exc:
        raise CliError(f"bad {name} '{text}': {exc}", name)


def _grid(args) -> list[float]:
    """The --samples points from --from to --to (checked by _check_knobs)."""
    lo, hi, n = args.grid_from, args.grid_to, args.samples
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
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
            lines.append(",".join(fmt(v) if isinstance(v, float) else str(v)
                                  for v in row))
        _write(output, "\n".join(lines) + "\n")
    else:
        _emit_json(output, meta, [dict(zip(header, row)) for row in rows])


def _meta(**kw):
    base = {"version": VERSION}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_farey(args) -> int:
    from .farey import enumerate_edges, enumerate_vertices, farey_order
    if args.max_order > MAX_FAREY_ORDER:
        raise CliError(f"max-order must be at most {MAX_FAREY_ORDER}",
                       "max-order")
    if args.action == "vertices":
        verts = enumerate_vertices(args.max_order)
        rows = [(str(v), v.num, v.den, farey_order(v)) for v in verts]
        _emit(args.format, args.output,
              ["vertex", "num", "den", "order"], rows,
              _meta(max_order=args.max_order))
        return 0
    # edges: every tessellation edge with both endpoints of order <= max_order
    edges = enumerate_edges(args.max_order)
    if args.format == "json":
        # an edge serializes as the flat array [p_num, p_den, q_num, q_den]
        _emit_json(args.output, _meta(max_order=args.max_order),
                   [e.to_json() for e in edges])
        return 0
    rows = [tuple(e.to_json()) for e in edges]
    _emit(args.format, args.output,
          ["p_num", "p_den", "q_num", "q_den"], rows,
          _meta(max_order=args.max_order))
    return 0


def cmd_field(args) -> int:
    from .fields import assemble_field, halved_terms, tail_bound
    sdot = parse_shear_file(args.shears)
    bound = tail_bound(args.max_order + 1, 1.0)
    V = assemble_field(halved_terms(sdot, args.max_order, args.window))
    rows = [(float(x), float(V(x))) for x in _grid(args)]
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
    if args.action == "shear" and args.max_order > MAX_SHEAR_ORDER:
        raise CliError(f"max-order must be at most {MAX_SHEAR_ORDER} for "
                       "hilbert shear", "max-order")
    sdot = parse_shear_file(args.shears)
    terms = halved_terms(sdot, args.max_order, args.window)
    if args.action == "eval":
        grid = _grid(args)
        if args.mode == "oracle":
            V = assemble_field(terms)
            values = [hilbert_pv_oracle(V, x, args.tolerance) for x in grid]
        else:
            values = hilbert_series_eval(terms, grid)
        rows = list(zip(grid, values))
        _emit(args.format, args.output, ["x", "value"], rows,
              _meta(mode=args.mode, max_order=args.max_order,
                    window=args.window))
        return 0
    # shear: recovered transform shear on one edge, with partials per order
    edge = _parse_edge_arg(args.edge)
    partials = hilbert_shear_series(terms, edge, args.max_order)
    _emit_json(args.output,
               _meta(max_order=args.max_order, window=args.window,
                     unit_tail_bound=tail_bound(args.max_order + 1, 1.0)),
               {"edge": edge.to_json(), "value": partials[-1],
                "partials_by_order": partials})
    return 0


def cmd_fourier(args) -> int:
    from .farey import INFINITY, ONE, ZERO, ExtRational
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
    low_mass = total_mass = 0.0
    low = {ZERO, INFINITY, ONE, ExtRational(-1)}     # Farey order <= 2
    for e, v in sdot:
        if e.initial in low or e.terminal in low:
            low_mass += abs(v)
        total_mass += abs(v)
    _emit(args.format, args.output, ["n", "re", "im"], rows,
          _meta(max_order=args.max_order, window=args.window,
                low_order_shear_fraction=low_mass / (total_mass or 1.0)))
    return 0


def cmd_wp(args) -> int:
    from .torus import cusp_condition_check, wp_gram, wp_pairing
    if not 1 <= args.depth <= MAX_WP_DEPTH:
        raise CliError(f"depth must be between 1 and {MAX_WP_DEPTH}", "depth")
    if args.action == "pair":
        t1 = _parse_triple(args.t1, "t1")
        t2 = _parse_triple(args.t2, "t2")
        for name, t in (("t1", t1), ("t2", t2)):
            if not cusp_condition_check(t):
                raise CliError(f"{name} violates the cusp condition "
                               f"(components must sum to 0)", name)
        values = wp_pairing(t1, t2, args.depth)
        prev = values[-2] if args.depth > 1 else None
        data = {"t1": list(t1), "t2": list(t2),
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
# every option: its value's type (str when absent), allowed values,
# default, whether it is required, the attribute it fills (its name without
# the dashes, - as _, when no dest) and help text
_OPTIONS = {
    "--shears": {"required": True,
                 "help": "shear JSON file (see module docstring)"},
    "--window": {"type": int, "default": 20,
                 "help": "fan index window |n| <= window"},
    "--max-order": {"type": int, "default": 6, "help": "largest Farey order "
                    "of fan tips in truncated sums"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--output": {"help": "output path (default stdout)"},
    "--from": {"type": float, "default": -3.0, "dest": "grid_from"},
    "--to": {"type": float, "default": 3.0, "dest": "grid_to"},
    "--samples": {"type": int, "default": 61},
    "--mode": {"choices": ["closed", "oracle"], "default": "closed"},
    "--tolerance": {"type": float, "default": 1e-8,
                    "help": "principal-value oracle tolerance"},
    "--edge": {"default": "0,1,1,0",
               "help": "target edge as p_num,p_den,q_num,q_den"},
    "--n-min": {"type": int, "default": 0},
    "--n-max": {"type": int, "default": 10},
    "--t1": {"default": "1,-1,0"},
    "--t2": {"default": "0,1,-1"},
    "--depth": {"type": int, "default": 6},
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


class _Parser:
    """Reads argv as COMMAND [ACTION] [--OPTION VALUE ...] against
    _COMMANDS and _OPTIONS.  Every option takes exactly one value, as
    `--name value` or `--name=value`, whatever its first character, and a
    unique prefix of an option name is accepted.  A usage error raises
    CliError naming `command`, `action`, the option or the stray token;
    -h prints what may follow at that point and exits 0."""

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
        strays = []                     # tokens not understood
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
                strays.append(token)
                continue
            name, spec = match[0], _OPTIONS[match[0]]
            if not eq:
                if not rest:
                    raise _usage_error(f"{name} expects one value", name)
                value = rest.pop(0)
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                raise _usage_error(f"{name}: invalid value {value!r}",
                                   name) from None
            if "choices" in spec and value not in spec["choices"]:
                raise _usage_error(f"{name}: invalid choice {value!r} (choose "
                                   f"from {', '.join(spec['choices'])})", name)
            values[name] = value
        args = types.SimpleNamespace(command=command, action=action,
                                     func=func)
        for name in names:
            spec = _OPTIONS[name]
            if spec.get("required") and name not in values:
                raise _usage_error("the following arguments are required: "
                                   + name, name)
            setattr(args, spec.get("dest", name[2:].replace("-", "_")),
                    values.get(name, spec.get("default")))
        if strays:
            raise _usage_error("unrecognized arguments: " + " ".join(strays),
                               strays[0])
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
        _check_knobs(args)
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
