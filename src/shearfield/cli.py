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
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

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
# most coefficients in `fourier --n-min..--n-max`, each a pass over the terms
MAX_FOURIER_COEFFICIENTS = 4_096


class CliError(Exception):
    def __init__(self, message: str, field_name: str = "", code: int = 2):
        super().__init__(message)
        self.field_name = field_name
        self.code = code


def _check_knobs(args) -> None:
    """Central validation of the numeric knobs shared by the subcommands."""
    if getattr(args, "max_order", 6) < 1:
        raise CliError("max-order must be >= 1", "max-order")
    if getattr(args, "window", 20) < 0:
        raise CliError("window must be >= 0", "window")
    if getattr(args, "samples", 1) > MAX_SAMPLES:
        raise CliError(f"samples must be at most {MAX_SAMPLES}", "samples")
    tolerance = getattr(args, "tolerance", 1e-8)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise CliError("tolerance must be finite and positive", "tolerance")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_shear_file(path: str) -> ShearFunction:
    """Load and validate a shear JSON file."""
    from .farey import oriented_edge
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
            edge = oriented_edge(p, q)
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


def _parse_triple(text: str, name: str) -> TangentShear:
    from .torus import TangentShear
    try:
        vals = [float(v) for v in text.split(",")]
        if len(vals) != 3:
            raise ValueError("need three numbers")
        return TangentShear(*vals)
    except ValueError as exc:
        raise CliError(f"bad {name} '{text}': {exc}", name)


def _grid(args) -> list[float]:
    lo, hi, n = args.grid_from, args.grid_to, args.samples
    for name, end in (("from", lo), ("to", hi)):
        if not math.isfinite(end):
            raise CliError(f"--{name} must be finite", name)
    if not (hi > lo) or n < 1:
        raise CliError("need --to > --from and --samples >= 1", "grid")
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
    if args.window > MAX_ZYGMUND_WINDOW:
        raise CliError(f"window must be at most {MAX_ZYGMUND_WINDOW}",
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
        if args.mode == "oracle":
            V = assemble_field(terms)
            rows = [(float(x), hilbert_pv_oracle(V, x, args.tolerance))
                    for x in _grid(args)]
        else:
            rows = [(float(x), hilbert_series_eval(terms, x))
                    for x in _grid(args)]
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
    from .farey import farey_order
    from .fields import halved_terms
    from .fourier import edge_to_arc, field_fourier
    sdot = parse_shear_file(args.shears)
    lo, hi = args.n_min, args.n_max
    if hi < lo:
        raise CliError("need --n-max >= --n-min", "n")
    if hi - lo >= MAX_FOURIER_COEFFICIENTS:
        raise CliError(f"--n-min..--n-max may span at most "
                       f"{MAX_FOURIER_COEFFICIENTS} coefficients", "n-max")
    terms = halved_terms(sdot, args.max_order, args.window)
    arcs = [edge_to_arc(t.ends) for t in terms]
    rows = []
    for n in range(lo, hi + 1):
        c = field_fourier(terms, n, arcs)
        rows.append((n, c.real, c.imag))
    low_mass = sum(abs(v) for e, v in sdot
                   if min(farey_order(e.initial), farey_order(e.terminal)) <= 2)
    total_mass = sum(abs(v) for _, v in sdot) or 1.0
    _emit(args.format, args.output, ["n", "re", "im"], rows,
          _meta(max_order=args.max_order, window=args.window,
                low_order_shear_fraction=low_mass / total_mass))
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
        data = {"t1": list(t1.values), "t2": list(t2.values),
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

def _add_common(p, shears=True, grid=False):
    if shears:
        p.add_argument("--shears", required=True,
                       help="shear JSON file (see module docstring)")
    p.add_argument("--max-order", type=int, default=6, dest="max_order",
                   help="largest Farey order of fan tips in truncated sums")
    p.add_argument("--window", type=int, default=20,
                   help="fan index window |n| <= window")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    if grid:
        p.add_argument("--from", type=float, default=-3.0, dest="grid_from")
        p.add_argument("--to", type=float, default=3.0, dest="grid_to")
        p.add_argument("--samples", type=int, default=61)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError (exit 2, one JSON line) instead
    of printing the usage text; subparsers reuse the class."""

    def error(self, message):
        # "argument --depth: ...", "... required: --shears", "unrecognized
        # arguments: --tolerance 1e-6" or "--tolerance=1e-6": the first
        # option argparse names
        named = re.match(r"(?:argument |.*?: )-*([^\s:/,=]+)", message)
        raise CliError(message, named.group(1) if named else "")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="shearfield",
        description="Shear functions on the Farey tessellation: field "
                    "evaluation, Hilbert transform, Fourier coefficients, "
                    "Weil-Petersson pairing.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("farey", help="tessellation combinatorics")
    p.add_argument("action", choices=["vertices", "edges"])
    _add_common(p, shears=False)
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("field", help="evaluate the vector field of a shear file")
    p.add_argument("action", choices=["eval"])
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("zygmund", help="admissibility condition checker")
    p.add_argument("action", choices=["check"])
    _add_common(p)
    p.set_defaults(func=cmd_zygmund)

    p = sub.add_parser("hilbert", help="Hilbert transform of the field")
    p.add_argument("action", choices=["eval", "shear"])
    _add_common(p, grid=True)
    p.add_argument("--mode", choices=["closed", "oracle"], default="closed")
    p.add_argument("--tolerance", type=float, default=1e-8,
                   help="principal-value oracle tolerance")
    p.add_argument("--edge", default="0,1,1,0",
                   help="target edge as p_num,p_den,q_num,q_den")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("fourier", help="Fourier coefficients of the field")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=0, dest="n_min")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("wp", help="Weil-Petersson pairing on the punctured torus")
    p.add_argument("action", choices=["pair", "gram"])
    p.add_argument("--t1", default="1,-1,0")
    p.add_argument("--t2", default="0,1,-1")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_wp)

    return ap


def _attach_values(argv: list) -> list:
    """Join "--t1 -3,2,1" into "--t1=-3,2,1" (likewise --t2, --edge, --from
    and --to): argparse would otherwise read a value with a leading minus
    sign, such as -1e3, as an option."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--t1", "--t2", "--edge", "--from", "--to")
                and tok.startswith("-")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_values(
            sys.argv[1:] if argv is None else list(argv)))
        _check_knobs(args)
        return args.func(args)
    except CliError as exc:
        diag = {"error": str(exc), "field": exc.field_name}
        sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
        return exc.code
    except (ValueError, OSError, RuntimeError) as exc:
        diag = {"error": str(exc), "field": ""}
        sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(run())
