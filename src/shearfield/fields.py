"""Shear functions on the tessellation and the vector fields they induce.

A shear function assigns a real weight to finitely many tessellation edges.
Each edge {u, v} contributes an elementary field: a bump supported on the
boundary arc cut off by the edge away from the base triangle, quadratic in
the chart, of unit shear on its own edge.  Summing a fan's contributions
with halved weights (every edge lies in exactly two fans) and pushing the
standard fan at infinity around by integer Moebius maps yields the field of
the whole shear function as an absolutely convergent sum over fan tips in
increasing Farey order.

A shear function keeps its values under integer keys, its edges' ends as
(num, den) pairs, and builds its fan index from them on the integers: the
orientation rule, one Stern-Brocot walk per tip for its Farey order and
the fan map whose entries index its edges, and one ExtRational per tip.
FareyEdges are built only for edges() and iteration.  halved_terms reads
that index and takes one float pair per edge it keeps.  The Zygmund-type
checks live here as well: the fan-wise averaged-coefficient condition
that characterizes admissible shear functions (read from 4K - 3 shears
per support edge; a fan whose mass M = sum |s| bounds its sums below the
sup found so far, with the rounding factor 1 + (len(fan) + 4K) 2^-50, is
skipped unless 2K M overflows), the sampled second-difference quotient,
and the unit geometric tail bound for truncation by Farey order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict

from .farey import (ExtRational, FareyEdge, Value, fan_entries, left_sum,
                    runs_forward)

DELTA_GAP = 2.0 * math.log(1.0 + math.sqrt(2.0))  # distance between nested fan walls


# ---------------------------------------------------------------------------
# shear functions
# ---------------------------------------------------------------------------

def _edge_key(u, v):
    """The key of the unordered edge {u, v}, u and v reduced (num, den)
    pairs with oo as (1, 0): the flat tuple of both, the smaller pair
    first."""
    return u + v if u < v else v + u


class ShearFunction:
    """Finite-support real-valued function on (unoriented) tessellation edges.

    Values are kept under integer keys: the edge's ends as reduced
    (num, den) pairs, oo as (1, 0), the smaller pair first (_edge_key).
    set() takes a FareyEdge to its key; parse_shear_file puts the keys it
    reads off a file.  The index (_index) is built from the keys on first
    use and kept until the next change.  FareyEdges are built only when
    edges() or iteration asks for them.
    """

    def __init__(self, assignments=None):
        self._data = {}             # edge key -> value
        self._cache = None
        if assignments:
            for edge, value in assignments:
                self.set(edge, value)

    def set(self, edge: FareyEdge, value: float):
        i, t = edge.initial, edge.terminal
        self._put(_edge_key((i.num, i.den), (t.num, t.den)), value)

    def _put(self, key, value: float):
        """set() on an edge key (see _edge_key), as parse_shear_file
        takes it to find duplicates."""
        if value == 0.0:
            self._data.pop(key, None)
        else:
            self._data[key] = float(value)
        self._cache = None

    def _index(self):
        """The pair (support, tips), read off the integer keys.

        support holds (u, v, value) for each edge in key order: u -> v its
        canonical orientation (farey.runs_forward) as (num, den) pairs.
        tips maps each tip's (num, den) to (tip, order, fan), tip an
        ExtRational, in increasing (order, circular position)
        (tip_sort_key); fan holds (fan index, value, support position) for
        each edge at the tip, in support order.  The index holds no floats
        of the ends: halved_terms takes them for the edges it keeps.

        One integer walk per tip gives its order and fan map
        B = (a b; c d) (farey.fan_entries).  B carries {n, oo} onto the
        n-th fan edge {p, q}, so n = B^-1(q) = (d q.num - b q.den) /
        (a q.den - c q.num), whose denominator is p.num q.den - p.den q.num
        = +-1 by adjacency: n is the product of the two."""
        if self._cache is None:
            support, fans = [], defaultdict(list)
            for key in sorted(self._data):
                un, ud, vn, vd = key
                if not runs_forward(un, ud, vn, vd):
                    un, ud, vn, vd = vn, vd, un, ud
                u, v, value = (un, ud), (vn, vd), self._data[key]
                fans[u].append((vn, vd, value, len(support)))
                fans[v].append((un, ud, value, len(support)))
                support.append((u, v, value))
            tips = []
            for p, fan in fans.items():
                order, a, b, c, d = fan_entries(*p)     # one walk per tip
                tip = ExtRational(*p)
                tips.append((tip_sort_key(tip, order), p, [
                    ((d * qn - b * qd) * (a * qd - c * qn), value, j)
                    for qn, qd, value, j in fan]))
            tips.sort()     # tips are distinct, so only their keys compare
            self._cache = (support, {p: (tip, order, fan) for
                                     (order, _, _, tip), p, fan in tips})
        return self._cache

    def edges(self) -> list[FareyEdge]:
        """Support edges, canonically oriented, in deterministic order."""
        return [_farey_edge(u, v) for u, v, _ in self._index()[0]]

    def support_tips(self) -> list[ExtRational]:
        return [tip for tip, _, _ in self._index()[1].values()]

    def __iter__(self):
        """(edge, value) of each support edge, in edges() order."""
        return iter([(_farey_edge(u, v), value)
                     for u, v, value in self._index()[0]])


def _farey_edge(u, v) -> FareyEdge:
    """The FareyEdge u -> v of two (num, den) pairs."""
    return FareyEdge(ExtRational(*u), ExtRational(*v))


def tip_sort_key(p: ExtRational, order: int):
    """(order, arc, f, p): tips by their Farey order, then by circular
    position from 0 counterclockwise, the arc being 0 for [0, oo), 1 for oo
    and 2 for the negative reals.  On one arc, tips compare first by f, p
    as a float (+-inf beyond the float range, inf at oo), and where f ties
    by ExtRational's exact order: rounding is monotone, so f never puts
    two tips the wrong way round.  oo is alone on its arc, so it is never
    compared."""
    arc = 1 if p.is_infinity else 0 if p.num >= 0 else 2
    try:
        f = p.num / p.den if p.den else math.inf
    except OverflowError:
        f = math.inf if p.num > 0 else -math.inf
    return (order, arc, f, p)


# ---------------------------------------------------------------------------
# elementary fields and field expressions
# ---------------------------------------------------------------------------

def edge_ends(edge) -> tuple[float, float]:
    """Name of an edge's elementary field: the float pair (initial,
    terminal) of a canonically oriented FareyEdge, with infinity as
    math.inf; a pair of numbers passes through as floats.  Raises
    ValueError (see check_ends) when the floats name no field, as when
    both ends of a tiny edge round to one float."""
    if isinstance(edge, FareyEdge):
        edge = edge.initial, edge.terminal
    u, v = edge
    ends = float(u), float(v)
    check_ends(ends)
    return ends


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

    Ends that name no field raise ValueError (see check_ends).  No command
    calls it: it is the definition, term by term, that the tests hold
    FieldExpr's panel table to.
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
    breakpoints, the list of the terms' finite ends, sorted once in the
    constructor.  The first call builds a table of those quadratics, each
    expanded about a breakpoint (see _panel_table); every point then costs
    one bisection and one Horner step, and values(xs) takes a whole list
    of points in one call.  A FieldExpr is not mutated after its first
    call: plus_quad returns a new field with a table of its own.
    """

    def __init__(self, terms=(), quad=(0.0, 0.0, 0.0)):
        self.terms = [(float(c), ends) for c, ends in terms if c != 0.0]
        for _, ends in self.terms:
            check_ends(ends)
        self.breakpoints = sorted({p for _, ends in self.terms for p in ends
                                   if p != math.inf})
        self.quad = (float(quad[0]), float(quad[1]), float(quad[2]))
        self._table = None

    def __call__(self, x: float) -> float:
        return self.values((x,))[0]

    def values(self, xs) -> list[float]:
        """The field at each x of xs, in one pass: a bisection and a
        Horner step per point (__call__ is the one-point case)."""
        if self._table is None:
            self._table = _panel_table(self.terms, self.quad,
                                       self.breakpoints)
        cuts, rows = self._table
        out = []
        for x in xs:
            x = float(x)
            m, c2, c1, c0 = rows[bisect_right(cuts, x)]
            t = x - m
            out.append((c2 * t + c1) * t + c0)
        return out

    def plus_quad(self, quad) -> "FieldExpr":
        a2, a1, a0 = self.quad
        return FieldExpr(self.terms,
                         (a2 + quad[0], a1 + quad[1], a0 + quad[2]))


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
            k = c / (a - b)
            if not math.isfinite(k):
                raise ValueError(f"term {c!r} on ({a!r}, {b!r}): its quadratic"
                                 " coefficient c/(a - b) overflows")
            intervals.append((lo, hi, k, a, b))
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
    """Field of a single fan at infinity, zero on [0, 1]: the shear s of
    each index n times the elementary field of its ray, (n, oo) for
    n >= 1 (x - n for x > n) and (oo, n) for n <= 0 (-(x - n) for x < n),
    summed in the shears' order; a term whose s or ray value is 0 is
    skipped."""
    x, inf = float(x), math.inf
    rays = ((s, elementary_eval((n, inf) if n >= 1 else (inf, n), x))
            for n, s in shears.items() if s != 0.0)
    return left_sum(s * v for s, v in rays if v != 0.0)


def halved_terms(sdot: ShearFunction, max_order: int, N: int) -> list:
    """The truncated field sum as one ordered list of plain (order, coef,
    ends) tuples: tips of Farey order <= max_order in increasing (order,
    circular position), each with its fan edges of index |n| <= N, coef
    half the edge's shear and ends edge_ends of the canonically oriented
    edge.  Field, Hilbert, shear-series and Fourier evaluation all unpack
    and sum this list in this order.  It reads the index of sdot and takes
    a kept edge's float ends once, so the edge's two terms share one ends
    tuple; a kept edge whose ends name no field raises edge_ends' error,
    a fresh one on every call."""
    terms, ends_at = [], {}         # support position -> float ends
    if N <= 0:
        return terms
    support, tips = sdot._index()
    for _, order, fan in tips.values():
        if order > max_order:
            break
        for n, value, j in fan:
            if abs(n) <= N:
                ends = ends_at.get(j)
                if ends is None:
                    (un, ud), (vn, vd), _ = support[j]
                    ends = (un / ud if ud else math.inf,
                            vn / vd if vd else math.inf)
                    check_ends(ends)
                    ends_at[j] = ends
                terms.append((order, 0.5 * value, ends))
    return terms


def assemble_field(terms) -> FieldExpr:
    """The field of a halved term list (see halved_terms)."""
    return FieldExpr((coef, ends) for _, coef, ends in terms)


def tail_bound(n: int) -> float:
    """The unit tail bound: the closed form of sum_{i>=n} i *
    exp(-(i-2)*delta/2) with delta = 2 log(1 + sqrt 2), via the
    geometric-derivative identity.  A bound with constant C is C times
    this value."""
    if n < 1:
        raise ValueError("tail index must be >= 1")
    q = math.exp(-DELTA_GAP / 2.0)
    return q ** (n - 2) * (n * (1.0 - q) + q) / (1.0 - q) ** 2


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

class ZygmundReport(Value):
    """A sampled sup and the arguments that reach it (witness None when
    the sup is 0); mutable, so unhashable."""

    __slots__ = ("sup_value", "witness")
    __hash__ = None

    def __init__(self, sup_value: float, witness: tuple):
        self.sup_value = sup_value
        self.witness = witness


def fan_shears_at_tip(sdot: ShearFunction, tip) -> dict[int, float]:
    """Shear values of sdot on the fan at tip, indexed by fan position."""
    entry = sdot._index()[1].get((tip.num, tip.den))
    return {n: value for n, value, _ in entry[2]} if entry else {}


def averaged_coefficient_sum(shears, m: int, k: int) -> float:
    """s(m) + sum_{j=1}^{k-1} ((k-j)/k) (s(m+j) + s(m-j)) for one fan.

    Summed with the integer weights k - j and divided by k once, as
    :func:`zygmund_condition_sup` does: rounding each weight (k-j)/k
    apart makes the two differ by a whole unit on subnormal shears."""
    if k < 1:
        raise ValueError("window k must be >= 1")
    get = lambda i: shears.get(i, 0.0)
    return left_sum(((k - j) * (get(m + j) + get(m - j))
                     for j in range(1, k)), k * get(m)) / k


def _cannot_beat(shears, K: int, best: float) -> bool:
    """True when no |A(m, k)|, k <= K, of the fan `shears` (index -> shear)
    can exceed best as zygmund_condition_sup computes it.

    |A(m, k)| <= sum_{|j|<k} |s(m+j)| <= M, the fan's mass sum |s|.  The
    test is M (1 + (len(shears) + 4K) 2^-50) < best: the factor covers the
    rounding of M and of the running sums, at most (len(shears) + 3K)
    2^-53 to first order, and the final division rounds monotonically.
    That holds only while no running sum, at most about k M, overflows, so
    the answer is False unless 2K M is finite: an overflowing fan is still
    scanned and its infinite sum still reaches the sup."""
    mass = left_sum(map(abs, shears.values()))
    return (math.isfinite(2 * K * mass) and
            mass * (1.0 + (len(shears) + 4 * K) * 2.0 ** -50) < best)


def zygmund_condition_sup(sdot: ShearFunction, tips, K: int) -> ZygmundReport:
    """Sup over the given tips, all relevant m, and 1 <= k <= K of the
    absolute averaged-coefficient sum, with a reproducing witness.

    k A(m, k) = sum_{|j|<k} (k - |j|) s(m+j) grows by the box sum
    sum_{|j|<k+1} s(m+j) from k to k + 1, so running sums cost O(1) per
    (m, k); they agree with :func:`averaged_coefficient_sum` to rounding.
    Only m within K - 1 of a support index i can give a nonzero sum, so the
    scan walks the union of those windows in increasing m, each m once,
    reading the shears at i - 2K + 2 .. i + 2K - 2 from one dense list per
    i: O(support * K^2) per fan, whatever the span of its indices.

    A fan is skipped when its mass M = sum |s|, which bounds every
    |A(m, k)|, times the rounding factor 1 + (len(fan) + 4K) 2^-50 is
    below the running sup, and only while 2K M is finite, so a fan whose
    running sums overflow is still scanned (see _cannot_beat).  Tips are
    scanned in the given order and a skipped fan holds no value above the
    running sup, so the sup and the first-found witness are those of the
    full scan."""
    best, best_w = 0.0, None
    for tip in tips:
        shears = fan_shears_at_tip(sdot, tip)
        if not shears or _cannot_beat(shears, K, best):
            continue
        done = min(shears) - K + 1          # first m not yet visited
        for i in sorted(shears):
            lo = i - 2 * K + 2              # index of s[0]
            s = [shears.get(j, 0.0) for j in range(lo, i + 2 * K - 1)]
            for m in range(max(done, i - K + 1), i + K):
                c = m - lo
                box = total = s[c]
                for k in range(1, K + 1):
                    if k > 1:
                        box += s[c + k - 1] + s[c - k + 1]
                        total += box
                    v = abs(total / k)
                    if v > best:
                        best, best_w = v, (tip, m, k)
            done = i + K
    return ZygmundReport(best, best_w)


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


def normalize_at(V: FieldExpr, x1, x2, x3=math.inf) -> FieldExpr:
    """Subtract the unique quadratic making V vanish at x1, x2, x3.

    With x3 infinite the subtracted quadratic instead carries V's own
    leading coefficient (its explicit quadratic part) and interpolates at
    x1, x2.
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
        a2 = V.quad[0]
        u, w = finite
        ru, rw = V(u) - a2 * u * u, V(w) - a2 * w * w
        a1 = (rw - ru) / (w - u)
        a0 = ru - a1 * u
        q = (a2, a1, a0)
    return V.plus_quad((-q[0], -q[1], -q[2]))
