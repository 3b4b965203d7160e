"""Shear functions on the tessellation and the vector fields they induce.

A shear function assigns a real weight to finitely many tessellation edges.
Each edge {u, v} contributes an elementary field: a bump supported on the
boundary arc cut off by the edge away from the base triangle, quadratic in
the chart, of unit shear on its own edge.  Summing a fan's contributions
with halved weights (every edge lies in exactly two fans) and pushing the
standard fan at infinity around by integer Moebius maps yields the field of
the whole shear function as an absolutely convergent sum over fan tips in
increasing Farey order.

The Zygmund-type checks live here as well: the fan-wise averaged-coefficient
condition that characterizes admissible shear functions, the sampled
second-difference quotient, the quasisymmetry ratio, and the geometric tail
estimate for truncation by Farey order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .farey import (ExtRational, FareyEdge, as_extrational, fan_index,
                    farey_order, oriented_edge)

DELTA_GAP = 2.0 * math.log(1.0 + math.sqrt(2.0))  # distance between nested fan walls


# ---------------------------------------------------------------------------
# shear functions
# ---------------------------------------------------------------------------

def _edge_key(e: FareyEdge):
    u, v = e.unordered()
    return ((u.num, u.den), (v.num, v.den))


class ShearFunction:
    """Finite-support real-valued function on (unoriented) tessellation edges.

    The canonically oriented support and the fan index of every tip are
    built on first use and kept until the next set().
    """

    def __init__(self, assignments=None):
        self._data = {}
        self._cache = None
        if assignments:
            for edge, value in assignments:
                self.set(edge, value)

    def set(self, edge, value: float):
        if not isinstance(edge, FareyEdge):
            edge = oriented_edge(*edge)
        key = _edge_key(edge)
        if value == 0.0:
            self._data.pop(key, None)
        else:
            self._data[key] = float(value)
        self._cache = None

    def value(self, edge) -> float:
        if not isinstance(edge, FareyEdge):
            edge = oriented_edge(*edge)
        return self._data.get(_edge_key(edge), 0.0)

    def _index(self):
        """The pair (edges, fans): the support edges, canonically oriented,
        in key order; and tip -> (Farey order, [(fan index, value, edge),
        ...]), tips in (order, circular position), each fan's edges in
        support order."""
        if self._cache is None:
            keys = sorted(self._data)
            edges = [oriented_edge(ExtRational(*u), ExtRational(*v))
                     for u, v in keys]
            fans = {}
            for key, edge in zip(keys, edges):
                for p, q in ((edge.initial, edge.terminal),
                             (edge.terminal, edge.initial)):
                    fans.setdefault(p, []).append(
                        (fan_index(p, q), self._data[key], edge))
            tips = {p: tip_sort_key(p) for p in fans}
            self._cache = (edges, {p: (tips[p][0], fans[p])
                                   for p in sorted(fans, key=tips.get)})
        return self._cache

    def edges(self) -> list[FareyEdge]:
        """Support edges, canonically oriented, in deterministic order."""
        return list(self._index()[0])

    def fan(self, tip) -> list[tuple[int, float, FareyEdge]]:
        """(fan index, value, edge) of each support edge at tip."""
        entry = self._index()[1].get(as_extrational(tip))
        return entry[1] if entry else []

    def support_tips(self) -> list[ExtRational]:
        return list(self._index()[1])

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        for e in self.edges():
            yield e, self.value(e)

    def max_abs(self) -> float:
        return max((abs(v) for v in self._data.values()), default=0.0)


def tip_sort_key(p: ExtRational):
    """(Farey order, circular position from 0 counterclockwise)."""
    order = farey_order(p)
    if p.is_infinity:
        pos = (1, Fraction(0))
    elif p.num >= 0:
        pos = (0, Fraction(p.num, p.den))
    else:
        pos = (2, Fraction(p.num, p.den))
    return (order, pos)


# ---------------------------------------------------------------------------
# elementary fields and field expressions
# ---------------------------------------------------------------------------

def edge_ends(edge) -> tuple[float, float]:
    """Name of an edge's elementary field: the float pair (initial,
    terminal) of a canonically oriented FareyEdge, with infinity as
    math.inf; a pair of numbers passes through as floats."""
    if isinstance(edge, FareyEdge):
        return float(edge.initial), float(edge.terminal)
    u, v = edge
    return float(u), float(v)


def check_ends(ends) -> None:
    """Raise ValueError, naming the pair, unless ends = (a, b) names an
    elementary field: distinct, not NaN, and each finite or +inf."""
    a, b = ends
    # false for NaN, -inf and equal ends, (inf, inf) among them
    if not (a != b and a > -math.inf and b > -math.inf):
        raise ValueError(f"ends {(a, b)!r} name no elementary field: they "
                         f"must be distinct, not NaN, and finite or +inf")


def elementary_eval(ends, x: float) -> float:
    """Evaluate the elementary shear field of ends = (a, b).

    (a, b) finite:  (x-a)(x-b)/(a-b) between a and b, else 0.
    (a, inf):       x-a for x > a, else 0 (right ray).
    (inf, b):       -(x-b) for x < b, else 0 (left ray).

    Ends that name no field raise ValueError (see check_ends).
    """
    check_ends(ends)
    a, b = ends
    if b == math.inf:
        return x - a if x > a else 0.0
    if a == math.inf:
        return -(x - b) if x < b else 0.0
    lo, hi = (a, b) if a < b else (b, a)
    if lo < x < hi:
        return (x - a) * (x - b) / (a - b)
    return 0.0


class FieldExpr:
    """Finite combination of elementary fields plus a quadratic polynomial.

    Evaluable at every real x; the quadratic part is kept symbolic so that
    normalization and growth questions stay exact.  Terms are (coefficient,
    ends) pairs, ends naming an elementary field as edge_ends does; ends
    that name none (equal, NaN or -inf) raise ValueError.

    The field is one quadratic on each panel between consecutive
    breakpoints.  The first call builds a table of those quadratics, each
    expanded about a breakpoint (see _panel_table); every call then costs
    one bisection and one Horner step.  A FieldExpr is not mutated after
    its first call: plus_quad, scaled and + return new fields with tables
    of their own.
    """

    def __init__(self, terms=(), quad=(0.0, 0.0, 0.0)):
        self.terms = [(float(c), ends) for c, ends in terms if c != 0.0]
        for _, ends in self.terms:
            check_ends(ends)
        self.quad = (float(quad[0]), float(quad[1]), float(quad[2]))
        self._table = None

    def __call__(self, x: float) -> float:
        if self._table is None:
            self._table = _panel_table(self.terms, self.quad,
                                       self.breakpoints())
        cuts, rows = self._table
        x = float(x)
        m, c2, c1, c0 = rows[bisect_right(cuts, x)]
        t = x - m
        return (c2 * t + c1) * t + c0

    def breakpoints(self) -> list[float]:
        """The finite endpoints of the terms, sorted."""
        return sorted({p for _, ends in self.terms for p in ends
                       if p != math.inf})

    def plus_quad(self, quad) -> "FieldExpr":
        a2, a1, a0 = self.quad
        return FieldExpr(self.terms,
                         (a2 + quad[0], a1 + quad[1], a0 + quad[2]))

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        q = tuple(u + v for u, v in zip(self.quad, other.quad))
        return FieldExpr(self.terms + other.terms, q)

    def scaled(self, factor: float) -> "FieldExpr":
        return FieldExpr([(factor * c, ends) for c, ends in self.terms],
                         tuple(factor * q for q in self.quad))


def _panel_table(terms, quad, points):
    """The pair (cuts, rows) behind FieldExpr.__call__.  The field of
    (terms, quad) is one quadratic on each panel between consecutive
    breakpoints (sorted `points`); cuts adds each panel's midpoint, and
    rows[bisect_right(cuts, x)] = (m, c2, c1, c0) gives the field at x as
    (c2 t + c1) t + c0 with t = x - m, m the breakpoint nearest x.  Every
    term vanishes at its breakpoints, so expanding about the nearest one
    keeps the error relative to the terms' size at x.

    One sweep from left to right.  Each term adds its x^2, x and 1
    coefficients where it switches on and subtracts them where it switches
    off, and the running sums are kept exactly: every float involved (the
    quadratic part, the breakpoints, a ray's coefficient c and an
    interval's k = c/(a - b)) is an integer multiple of 2^-s for one s, so
    the three moments are Python ints at scales 2^-s, 2^-2s and 2^-3s.
    Each coefficient is rounded once."""
    inf = math.inf
    intervals, rays = [], []
    for c, (a, b) in terms:
        if b == inf:                   # c (x - a) on (a, inf)
            rays.append((a, inf, c, a))
        elif a == inf:                 # -c (x - b) on (-inf, b)
            rays.append((-inf, b, -c, b))
        else:                          # k (x - a)(x - b) between a and b
            lo, hi = (a, b) if a < b else (b, a)
            intervals.append((lo, hi, c / (a - b), a, b))
    floats = [*quad, *points, *(k for *_, k, _, _ in intervals),
              *(g for *_, g, _ in rays)]
    s = max(f.as_integer_ratio()[1].bit_length() - 1 for f in floats)
    one = 1 << s

    def fix(f):
        num, den = f.as_integer_ratio()
        return num * (one // den)

    jumps = {p: [0, 0, 0] for p in (-inf, *points, inf)}

    def switch(lo, hi, deltas):
        on, off = jumps[lo], jumps[hi]
        for i, d in enumerate(deltas):
            on[i] += d
            off[i] -= d

    for lo, hi, k, a, b in intervals:
        K, A, B = fix(k), fix(a), fix(b)
        switch(lo, hi, (K, -K * (A + B), K * A * B))
    for lo, hi, g, p in rays:
        G = fix(g)
        switch(lo, hi, (0, G << s, -(G * fix(p)) << s))
    q2, q1, q0 = (fix(v) for v in quad)
    moments = [q + d for q, d in zip((q2, q1 << s, q0 << 2 * s), jumps[-inf])]
    den1, den2, den3 = one, one << s, one << 2 * s

    def row(m):
        M2, M1, M0 = moments
        mm = fix(m)
        return (m, M2 / den1, (2 * M2 * mm + M1) / den2,
                ((M2 * mm + M1) * mm + M0) / den3)

    if not points:
        return [], [row(0.0)]
    cuts, rows = [points[0]], [row(points[0])]
    for p, q in zip(points, points[1:] + [None]):
        for i, d in enumerate(jumps[p]):
            moments[i] += d
        rows.append(row(p))
        if q is not None:
            cuts += [0.5 * p + 0.5 * q, q]
            rows.append(row(q))
    return cuts, rows


def fan_field_eval(shears, x: float) -> float:
    """Field of a single fan at infinity: zero on [0, 1], slope added left
    and right per the integer-indexed shears (index n >= 1 contributes
    (x - n) for x > n, index n <= 0 contributes -(x - n) for x < n)."""
    x = float(x)
    total = 0.0
    for n, s in shears.items():
        if s == 0.0:
            continue
        if n >= 1:
            if x > n:
                total += s * (x - n)
        else:
            if x < n:
                total -= s * (x - n)
    return total


class HalfTerm(NamedTuple):
    """One halved elementary term of the truncated field sum."""

    order: int          # Farey order of the tip
    coef: float         # half the edge's shear
    ends: tuple         # edge_ends(edge), edge canonically oriented


def tip_field(p, sdot: ShearFunction, N: int) -> FieldExpr:
    """Field contributed by the fan with tip p, with halved shears on fan
    indices |n| <= N.  Vanishes at 0, 1 and infinity by construction; a
    degenerate window (N <= 0) is the zero field, not an error."""
    if N <= 0:
        return FieldExpr()
    return FieldExpr((0.5 * value, edge_ends(edge))
                     for n, value, edge in sdot.fan(p) if abs(n) <= N)


def halved_terms(sdot: ShearFunction, max_order: int, N: int) -> list[HalfTerm]:
    """The truncated field sum as one ordered term list: tips of Farey order
    <= max_order in increasing (order, circular position), each with its
    fan edges of index |n| <= N at half their shear.  Field, Hilbert,
    shear-series and Fourier evaluation all sum this list in this order."""
    terms = []
    if N <= 0:
        return terms
    for order, fan in sdot._index()[1].values():
        if order > max_order:
            break
        terms += [HalfTerm(order, 0.5 * value, edge_ends(edge))
                  for n, value, edge in fan if abs(n) <= N]
    return terms


def assemble_field(terms) -> FieldExpr:
    """The field of a halved term list (see halved_terms)."""
    return FieldExpr((t.coef, t.ends) for t in terms)


def tail_bound(n: int, C: float) -> float:
    """Closed form of C * sum_{i>=n} i * exp(-(i-2)*delta/2) with
    delta = 2 log(1 + sqrt 2), via the geometric-derivative identity."""
    if n < 1:
        raise ValueError("tail index must be >= 1")
    q = math.exp(-DELTA_GAP / 2.0)
    return C * q ** (n - 2) * (n * (1.0 - q) + q) / (1.0 - q) ** 2


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

@dataclass
class ZygmundReport:
    sup_value: float
    witness: tuple


def fan_shears_at_tip(sdot: ShearFunction, tip) -> dict[int, float]:
    """Shear values of sdot on the fan at tip, indexed by fan position."""
    return {n: value for n, value, _ in sdot.fan(tip)}


def averaged_coefficient_sum(shears, m: int, k: int) -> float:
    """s(m) + sum_{j=1}^{k-1} ((k-j)/k) (s(m+j) + s(m-j)) for one fan."""
    if k < 1:
        raise ValueError("window k must be >= 1")
    get = lambda i: shears.get(i, 0.0)
    total = get(m)
    for j in range(1, k):
        total += (k - j) / k * (get(m + j) + get(m - j))
    return total


def zygmund_condition_sup(sdot: ShearFunction, tips, K: int) -> ZygmundReport:
    """Sup over the given tips, all relevant m, and 1 <= k <= K of the
    absolute averaged-coefficient sum, with a reproducing witness.

    k A(m, k) = sum_{|j|<k} (k - |j|) s(m+j) grows by the box sum
    sum_{|j|<k+1} s(m+j) from k to k + 1, so running sums cost O(1) per
    (m, k); they agree with :func:`averaged_coefficient_sum` to rounding.
    Only m within K - 1 of a support index can give a nonzero sum, so the
    scan walks the union of those windows in increasing m, each m once:
    O(support * K^2) per fan, whatever the span of its indices."""
    best, best_w = 0.0, None
    for tip in tips:
        shears = fan_shears_at_tip(sdot, tip)
        if not shears:
            continue
        get = lambda i: shears.get(i, 0.0)
        done = min(shears) - K + 1          # first m not yet visited
        for i in sorted(shears):
            for m in range(max(done, i - K + 1), i + K):
                box = total = get(m)
                for k in range(1, K + 1):
                    if k > 1:
                        box += get(m + k - 1) + get(m - k + 1)
                        total += box
                    v = abs(total / k)
                    if v > best:
                        best, best_w = v, (as_extrational(tip), m, k)
            done = i + K
    return ZygmundReport(best, best_w)


def qs_ratio(s: ShearFunction, tip, m: int, k: int) -> float:
    """Quasisymmetry ratio of a fan: e^{s(e_m)} times the ratio of the
    partial exponential sums over the k following and k preceding edges."""
    if k < 0:
        raise ValueError("k must be >= 0")
    shears = fan_shears_at_tip(s, tip)
    get = lambda i: shears.get(i, 0.0)
    num = 1.0
    acc = 0.0
    for j in range(1, k + 1):
        acc += get(m + j)
        num += math.exp(acc)
    den = 1.0
    acc = 0.0
    for j in range(1, k + 1):
        acc -= get(m - j)
        den += math.exp(acc)
    return math.exp(get(m)) * num / den


def zygmund_quotient_sup(V, xs, ts) -> ZygmundReport:
    """Sampled sup of |V(x+t) + V(x-t) - 2 V(x)| / t over the grids."""
    best, best_w = 0.0, None
    for x in xs:
        vx = V(x)
        for t in ts:
            if t <= 0:
                raise ValueError("offsets t must be positive")
            q = abs(V(x + t) + V(x - t) - 2.0 * vx) / t
            if q > best:
                best, best_w = q, (float(x), float(t))
    return ZygmundReport(best, best_w)


def partial_sum_diag(sdot: ShearFunction, tip, k: int, n: int) -> float:
    """Raw partial sum of fan shears over indices k..k+n (sublinearity
    diagnostic for admissible shear functions)."""
    shears = fan_shears_at_tip(sdot, tip)
    return sum(shears.get(i, 0.0) for i in range(k, k + n + 1))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _interp_quadratic(pts, vals):
    """Coefficients (a2, a1, a0) of the quadratic through three points."""
    (x1, x2, x3), (y1, y2, y3) = pts, vals
    d = (x1 - x2) * (x1 - x3) * (x2 - x3)
    a2 = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / d
    a1 = (x3 * x3 * (y1 - y2) + x2 * x2 * (y3 - y1) + x1 * x1 * (y2 - y3)) / d
    a0 = (x2 * x3 * (x2 - x3) * y1 + x3 * x1 * (x3 - x1) * y2
          + x1 * x2 * (x1 - x2) * y3) / d
    return (a2, a1, a0)


def normalize_at(V, x1, x2, x3=math.inf):
    """Subtract the unique quadratic making V vanish at x1, x2, x3.

    With x3 infinite the subtracted quadratic instead carries the field's own
    leading coefficient (zero for a bare callable, the explicit quadratic
    part for a FieldExpr) and interpolates at x1, x2.  FieldExpr in,
    FieldExpr out; callables come back wrapped.
    """
    pts = [x1, x2, x3]
    finite = [float(p) for p in pts if not math.isinf(float(p))]
    if len(set(float(p) for p in pts)) != 3:
        raise ValueError("normalization points must be distinct")
    if len(finite) < 2:
        raise ValueError("at most one normalization point may be infinite")
    if len(finite) == 3:
        q = _interp_quadratic(tuple(finite), tuple(V(p) for p in finite))
    else:
        a2 = V.quad[0] if isinstance(V, FieldExpr) else 0.0
        u, w = finite
        ru, rw = V(u) - a2 * u * u, V(w) - a2 * w * w
        a1 = (rw - ru) / (w - u)
        a0 = ru - a1 * u
        q = (a2, a1, a0)
    if isinstance(V, FieldExpr):
        return V.plus_quad((-q[0], -q[1], -q[2]))
    return lambda x: V(x) - ((q[0] * x + q[1]) * x + q[2])
