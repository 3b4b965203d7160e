"""Hilbert transforms of elementary shear fields and shear-space weights.

The Hilbert transform used throughout is the principal-value integral

    H(V)(x) = -(1/pi) p.v. Integral  x(x-1) / (xi (xi-1) (xi-x)) V(xi) dxi,

the boundary form of the almost-complex structure on normalized vector
fields.  Closed forms for the elementary fields are derived by partial
fractions and pinned against the numerical principal-value oracle below;
they are normalized to vanish at 0, 1 and grow like x log|x|.

Shears are read off a field by the four-point difference-quotient bracket
(the first variation of the log cross-ratio of a quadrilateral); applying
the bracket to the transform of one elementary field yields the weight with
which one edge's shear feeds the transformed shear of another.  Those
weights admit hyperbolic-distance expressions case by case, each distance
read from a cross-ratio of geodesic ends (moebius.geodesic_cosh_distance);
the bracket is the ground truth and the distance expressions are verified
against it.
"""

from __future__ import annotations

import math
import operator
from itertools import takewhile

from .farey import (ExtRational, FareyEdge, Value, _before, in_ccw_arc,
                    left_sum)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

# most (x, distinct ends) entries hilbert_series_eval hands
# hilbert_main_terms at once
_X_BLOCK = 4096


def hilbert_main_terms(ends: list, pairs, xs) -> list:
    """Unnormalized main terms (no 1/pi, no affine part) of the transforms
    of elementary fields: per (i, j) of pairs, one list per x of xs, whose
    n-th entry is the term at x of the ends (a, b) = (ends[i][n],
    ends[j][n]), ends being equally long float columns.  The interval
    (a, b) gives -(x-a)(x-b)/(a-b) log|(x-b)/(x-a)|, 0 at x = a, b (the
    limit); a ray with finite end a gives (x-a) log|x-a|.  The term is
    orientation-free.  x - a and log|x - a| are taken once per end and x,
    a - b once per pair, each as one list over all x; entries with an
    infinite end or an end at x are then patched."""
    inf, log = math.inf, math.log
    n, xs = (len(ends[0]) if ends else 0), list(xs)
    xa, logs, zeros, rays = [], [], [], []
    for col in ends:
        xa.append([x - a for x in xs for a in col])
        zeros.append(_where(xa[-1], 0.0))
        d = xa[-1][:]
        for m in zeros[-1]:
            d[m] = 1.0      # log(1.0) stands in at x = a; patched below
        # map calls log from C: the torus walk is about 8% faster than with
        # a comprehension
        logs.append(list(map(log, map(abs, d))))
        rays.append([k + q * n for k in _where(col, inf)
                     for q in range(len(xs))])
    out = []
    for i, j in pairs:
        ba = [b - a for a, b in zip(ends[i], ends[j])] * len(xs)
        # -(x-a)(x-b)/(a-b) is (x-a)(x-b)/(b-a), bit for bit
        t = [u * v / w * (lv - lu) for u, v, w, lu, lv
             in zip(xa[i], xa[j], ba, logs[i], logs[j])]
        for m in zeros[i] + zeros[j]:
            t[m] = 0.0
        # a ray's term is (x-a) log|x-a| at its finite end a
        for c, far in ((j, i), (i, j)):
            for m in rays[far]:
                t[m] = xa[c][m] * logs[c][m] if xa[c][m] else 0.0
        out.append([t[q * n:q * n + n] for q in range(len(xs))])
    return out


def _where(values: list, v) -> list:
    """Indices of the entries of values equal to v, by list scans."""
    found = [-1]
    for _ in range(values.count(v)):
        found.append(values.index(v, found[-1] + 1))
    return found[1:]


def _end_columns(lifts) -> tuple:
    """The end columns of the distinct (a, b) in lifts, pair (0, 1) of
    hilbert_main_terms, and each lift's index among them: an edge's two
    halved terms share their ends, and equal ends have equal terms."""
    index = {}
    at = [index.setdefault(tuple(ends), len(index)) for ends in lifts]
    return [[a for a, _ in index], [b for _, b in index]], at


def hilbert_series_eval(terms, xs) -> list:
    """Closed-form transform of the field sum of terms at each x of xs:
    terms is a halved term list (see fields.halved_terms) or a FieldExpr's
    (coefficient, ends) pairs.  With S(x) the coefficients times the main
    terms (see hilbert_main_terms) summed in list order, the transform is
    (S(x) - x S(1) + (x - 1) S(0)) / pi: S less its chord through 0 and 1,
    so it vanishes at 0 and 1 exactly and grows like x log|x|.  S is taken
    from the main terms of the distinct ends at 0, 1 and then xs, one
    hilbert_main_terms call per block of _X_BLOCK (x, ends) entries."""
    terms = list(terms)             # (order, coef, ends) or (coef, ends)
    coefs = [t[-2] for t in terms]
    ends, at = _end_columns(t[-1] for t in terms)
    step = max(1, _X_BLOCK // max(len(ends[0]), 1))
    xs = list(map(float, xs))
    grid = [0.0, 1.0, *xs]
    s0, s1, *S = [
        left_sum(map(operator.mul, coefs, map(col.__getitem__, at)))
        for k in range(0, len(grid), step)
        for col in hilbert_main_terms(ends, [(0, 1)], grid[k:k + step])[0]]
    return [(s - x * s1 + (x - 1.0) * s0) / math.pi for x, s in zip(xs, S)]


def elementary_hilbert(ends, x: float) -> float:
    """Closed-form Hilbert transform of the elementary field of ends,
    normalized to vanish at 0 and 1 (and at infinity in the x log|x| growth
    sense)."""
    return hilbert_series_eval([(1.0, ends)], [x])[0]


def closed_hilbert_field(F: FieldExpr):
    """Closed-form transform of a field expression with no quadratic part.

    Returns a callable with the same coefficients' transform (see
    hilbert_series_eval) at one x, and at a list of points through its
    values(xs), one hilbert_series_eval call each; it vanishes at 0 and 1
    and grows like x log|x|.
    """
    if any(q != 0.0 for q in F.quad):
        raise ValueError("closed-form transform is defined for fields with "
                         "zero quadratic part; normalize first")
    H = lambda x: hilbert_series_eval(F.terms, [x])[0]
    H.values = lambda xs: hilbert_series_eval(F.terms, xs)
    H.breakpoints = F.breakpoints
    H.quad = (0.0, 0.0, 0.0)
    return H


# ---------------------------------------------------------------------------
# principal-value oracle
# ---------------------------------------------------------------------------

# Reach and quadrature budget of the oracle.  It answers only where |x| and
# every breakpoint are at most PV_REACH: beyond it a 21-point rule on a piece
# such as [1, 2|x|] no longer samples the 1/xi structure near its left end,
# and its error estimate passes values that are wrong.  Inside R = 2 max(1,
# |x|, |breakpoints|) the kernel's poles are subtracted and the bounded
# remainder is integrated piece by piece; beyond R the integrand is mapped
# through xi -> 1/u and the two tails are integrated jointly from u = 0, so
# no |xi| is left out.  The growth gate probes V at radii derived from
# PV_TAIL_RADIUS, |x| + 5 and the breakpoints + 5, wider than R near the
# origin.  Each piece and the tail asks quad for PV_QUAD_TOL, or for its
# even share of the error gate where a small `tolerance` makes that share
# smaller.
PV_REACH = 1e10
PV_TAIL_RADIUS = 1e3
PV_QUAD_TOL = 1e-11


class PVConvergenceError(RuntimeError):
    """The oracle's quadrature cannot be trusted: `residual` is its summed
    error estimate, or None where x or a breakpoint lies beyond PV_REACH
    and nothing was integrated."""

    def __init__(self, residual=None):
        why = (f"(error estimate {residual:.3e})" if residual is not None
               else f"beyond the oracle's reach: |x| and every breakpoint "
                    f"must be at most {PV_REACH:.0e}")
        super().__init__(f"principal-value quadrature did not settle {why}")
        self.residual = residual


def hilbert_pv_oracle(V, x: float, tolerance: float = 1e-8) -> float:
    """Numerical principal-value Hilbert transform of an evaluable field.

    V must grow strictly slower than quadratically.  By partial fractions
    the kernel is (x-1)/xi - x/(xi-1) + 1/(xi-x), the sum of w_a/(xi-a)
    over the poles a = 0, 1, x.  On [-R, R], with R twice the largest of
    1, |x| and |breakpoints|, the principal value is then the integral of
    the bounded sum of w_a (V(xi) - V(a))/(xi - a), taken between
    consecutive breakpoints and poles, plus the closed form sum of
    w_a V(a) log((R-a)/(R+a)); V need not vanish at 0 or 1.  The
    breakpoints are V's list of them where it has one (a FieldExpr or a
    closed transform), else none.  Raises
    PVConvergenceError, before any quadrature, when |x| or a breakpoint
    exceeds PV_REACH, and when the summed quadrature error estimate does
    not meet the tolerance, as where V jumps at a pole and no principal
    value exists.  Every piece is integrated by quadrature.quad; a V with
    a values(xs) method (a FieldExpr or a closed transform) is evaluated at
    each rule's 21 nodes in one call, and at the growth probes and the
    poles in one call, so the oracle never calls it at a single point.
    The bounded integrand is one pass over those nodes, each adding its
    three poles' terms in pole order.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    from .quadrature import quad    # on first use: other commands never load it

    x = float(x)
    brk = set(getattr(V, "breakpoints", ()))
    far = max(map(abs, brk), default=0.0)
    if not (abs(x) <= PV_REACH and far <= PV_REACH):
        raise PVConvergenceError()

    # growth gate: V(x)/x^2 must decay between two probe radii, else the
    # field carries a genuine quadratic part and is outside the domain
    probe = max(PV_TAIL_RADIUS, abs(x) + 5.0, far + 5.0)
    big = 0.5 * (probe + max(abs(x), 2.0))
    evaluate = getattr(V, "values", None) or (lambda xis: map(V, xis))
    vb, vmb, v2b, vm2b, v0, v1, vx = evaluate(
        [big, -big, 2 * big, -2 * big, 0.0, 1.0, x])
    r1 = max(abs(vb), abs(vmb)) / big ** 2
    r2_probe = max(abs(v2b), abs(vm2b)) / (2 * big) ** 2
    if r1 > 1e-6 and r2_probe > 0.8 * r1:
        raise ValueError("field grows at least quadratically; "
                         "not in the domain of the transform")

    # (w_a, a, V(a)) for each pole a of the kernel
    poles = ((x - 1.0, 0.0, v0), (-x, 1.0, v1), (1.0, x, vx))
    (w0, a0, va0), (w1, a1, va1), (w2, a2, va2) = poles

    def subtracted(xis: list) -> list:
        # one pass per node, the poles' terms added in pole order; a node
        # rounded onto a pole adds 0.0, which changes no bit of a sum that
        # starts at +0.0
        return [((0.0 + (w0 * (v - va0) / (xi - a0) if xi != a0 else 0.0))
                 + (w1 * (v - va1) / (xi - a1) if xi != a1 else 0.0))
                + (w2 * (v - va2) / (xi - a2) if xi != a2 else 0.0)
                for xi, v in zip(xis, evaluate(xis))]

    R = 2.0 * max(1.0, abs(x), far)
    value = left_sum(w * va * math.log((R - a) / (R + a))
                     for w, a, va in poles)
    err = 0.0
    cuts = sorted({*brk, -R, 0.0, 1.0, x, R})
    # the gate below, shared by the len(cuts) - 1 pieces and the tail
    gate = max(tolerance * 1e3, 1e-12)
    tol = min(PV_QUAD_TOL, gate / len(cuts))
    for a, b in zip(cuts, cuts[1:]):
        piece, e = quad(subtracted, a, b, tol, limit=200)
        value += piece
        err += e

    # the integrand kernel(x, xi) V(xi), kernel = x(x-1) / (xi(xi-1)(xi-x)),
    # beyond R, where it has no pole
    num = x * (x - 1.0)

    def f(xis: list) -> list:
        return [num / (xi * (xi - 1.0) * (xi - x)) * v
                for xi, v in zip(xis, evaluate(xis))]

    def tails(us: list) -> list:
        xis = [1.0 / u for u in us]
        right, left = f(xis), f([-xi for xi in xis])
        return [(fr + fl) / u ** 2 for u, fr, fl in zip(us, right, left)]

    tail, e = quad(tails, 0.0, 1.0 / R, tol, limit=200)
    err += e
    if not err < gate * max(1.0, abs(value)):
        raise PVConvergenceError(err)
    return 0.0 - (value + tail) / math.pi      # +0.0, not -0.0, at zero


# ---------------------------------------------------------------------------
# quadrilaterals and the recovery bracket
# ---------------------------------------------------------------------------

class Quadrilateral(Value):
    """Ideal quadrilateral (a, b, c, d) in counterclockwise order with
    diagonal (b, d); a and c are the off-diagonal vertices."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        pts = self.points()
        if len({p for p in pts}) != 4:
            raise ValueError("quadrilateral needs four distinct points")
        if len([p for p in pts if math.isinf(p)]) > 1:
            raise ValueError("at most one vertex may be infinite")
        a, b, c, d = pts
        if not (in_ccw_arc(a, b, c) and in_ccw_arc(c, d, a)):
            raise ValueError("vertices are not in counterclockwise order "
                             "(a, b, c, d)")

    def points(self) -> tuple[float, float, float, float]:
        return tuple(float(p) for p in (self.a, self.b, self.c, self.d))


def edge_quadrilateral(edge: FareyEdge) -> Quadrilateral:
    """The quadrilateral formed by the two tessellation triangles adjacent
    to an edge, labeled with the edge as diagonal (b, d) = (initial,
    terminal) and c the off-diagonal vertex on the arc swept from initial
    to terminal.

    For ends p/q and r/s (oo = 1/0) the third vertices are the mediant
    (p+r)/(q+s) and the difference vertex (p-r)/(q-s).  The mediant lies
    between the ends on the line cut at oo, so it is c exactly when the
    initial end comes first there: one exact comparison, for either
    orientation of the edge."""
    i, t = edge.initial, edge.terminal
    m = ExtRational(i.num + t.num, i.den + t.den)
    w = ExtRational(i.num - t.num, i.den - t.den)
    c, a = (m, w) if _before(i, t) else (w, m)
    return Quadrilateral(a, i, c, t)


class BracketPlan(Value):
    """The recovery bracket of one quadrilateral with its infinite vertex
    resolved: the finite vertices V is read at (points), the difference
    quotients that remain (plus, minus), each (u, v, v - u) standing for
    [V(v)-V(u)]/(v-u), and the span that multiplies the quadratic
    coefficient (None when every vertex is finite)."""

    __slots__ = ("points", "plus", "minus", "span")

    def __init__(self, points: tuple, plus: tuple, minus: tuple, span):
        self.points, self.plus = points, plus
        self.minus, self.span = minus, span


def bracket_plan(Q: Quadrilateral) -> BracketPlan:
    """Resolve the bracket of Q once; bracket_values evaluates it.

    The four-point bracket reading the shear of the diagonal (b, d) is

        [V(c)-V(b)]/(c-b) + [V(d)-V(a)]/(d-a)
      - [V(b)-V(a)]/(b-a) - [V(d)-V(c)]/(d-c).

    When one vertex is infinite, the two terms containing it converge
    jointly; the limit is the quadratic coefficient (= lim V(x)/x^2) times
    the difference of the other diagonal's endpoints, zero for normalized
    fields.  So the plan keeps the quotients (b, c), (a, d) as plus and
    (a, b), (c, d) as minus, less any with an infinite end, and an infinite
    vertex in slot i of (a, b, c, d) gives the span (d-b, c-a, b-d, a-c)[i].
    """
    a, b, c, d = pts = Q.points()

    def quotients(*pairs):
        return tuple((u, v, v - u) for u, v in pairs
                     if not (math.isinf(u) or math.isinf(v)))

    infinite = [i for i, p in enumerate(pts) if math.isinf(p)]
    span = (d - b, c - a, b - d, a - c)[infinite[0]] if infinite else None
    return BracketPlan(tuple(p for p in pts if not math.isinf(p)),
                       quotients((b, c), (a, d)), quotients((a, b), (c, d)),
                       span)


def bracket_values(plan: BracketPlan, columns,
                   quadratic_coefficient: float = 0.0) -> list:
    """The bracket of a plan on many fields at once, columns[p] listing
    each field's value at p, p the plan's finite vertices: per field, the
    plus quotients summed in order, less the minus quotients in order, plus
    the quadratic coefficient times the span (added even when it is 0.0,
    which turns a -0.0 total into +0.0).  A plan has two plus and two minus
    quotients, or one of each and a span."""
    quotients = [(columns[u], columns[v], h)
                 for u, v, h in plan.plus + plan.minus]
    if plan.span is None:
        (U, V, h), (U1, V1, h1), (U2, V2, h2), (U3, V3, h3) = quotients
        return [(fv - fu) / h + (fv1 - fu1) / h1 - (fv2 - fu2) / h2
                - (fv3 - fu3) / h3 for fu, fv, fu1, fv1, fu2, fv2, fu3, fv3
                in zip(U, V, U1, V1, U2, V2, U3, V3)]
    (U, V, h), (U2, V2, h2) = quotients
    shift = quadratic_coefficient * plan.span
    return [(fv - fu) / h - (fv2 - fu2) / h2 + shift
            for fu, fv, fu2, fv2 in zip(U, V, U2, V2)]


def shear_recover(V, Q: Quadrilateral, quadratic_coefficient=None) -> float:
    """Shear of the diagonal of Q under the field V.

    The quadratic growth coefficient is taken from a FieldExpr's explicit
    quadratic part when not supplied; a bare callable evaluated on an
    unbounded quadrilateral is probed for super-quadratic growth and
    rejected if it fails the x log|x| class.
    """
    pts = Q.points()
    if quadratic_coefficient is None:
        if hasattr(V, "quad"):
            quadratic_coefficient = V.quad[0]
        else:
            quadratic_coefficient = 0.0
            if any(math.isinf(p) for p in pts):
                T = 1e8
                probe = max(abs(V(T)), abs(V(-T))) / T ** 2
                if probe > 1e-4:
                    raise ValueError("field grows too fast for an unbounded "
                                     "quadrilateral; supply its quadratic "
                                     "coefficient")
    plan = bracket_plan(Q)
    return bracket_values(plan, {p: (V(p),) for p in plan.points},
                          quadratic_coefficient)[0]


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------

def _cosh_factors(e: tuple, u: float, v: float):
    """(sinh^2(d/2) L, cosh^2(d/2) L, L), L = log coth^2(d/2), for d the
    distance between the geodesics with ends e and (u, v)."""
    # on use: no command that loads hilbert needs moebius
    from .moebius import geodesic_cosh_distance
    ch = geodesic_cosh_distance(e, (u, v))
    s2 = 0.5 * (ch - 1.0)
    c2 = 0.5 * (ch + 1.0)
    if s2 <= 0.0:
        raise ValueError("degenerate distance in weight formula")
    L = math.log(c2 / s2)
    return s2 * L, c2 * L, L


def edge_weights(plans, ends: list, pairs) -> list:
    """delta_weight, bit for bit, of every edge (a, b) = (ends[i][n],
    ends[j][n]) over the quadrilateral of every plan: per (i, j) of pairs,
    one list per plan, in end order.  One hilbert_main_terms call takes the
    main terms at every distinct plan vertex, as columns that the plans'
    brackets share."""
    xs = list(dict.fromkeys(x for P in plans for x in P.points))
    return [[bracket_values(P, dict(zip(xs, columns))) for P in plans]
            for columns in hilbert_main_terms(ends, pairs, xs)]


def delta_weight(edge, Q: Quadrilateral) -> float:
    """Weight with which the shear on `edge` (a FareyEdge or its ends) feeds
    the recovered transform shear on the diagonal of Q: the bracket of the
    unnormalized main-term transform of the edge's elementary field over Q.
    Covers every admissible position, the edge crossing the diagonal
    included.  The scalar form of edge_weights."""
    from .fields import edge_ends   # on use: `wp` never loads fields
    a, b = edge_ends(edge)
    ((w,),), = edge_weights([bracket_plan(Q)], [[a], [b]], [(0, 1)])
    return w


def delta_weight_hyperbolic(edge, Q: Quadrilateral) -> float:
    """delta_weight by the equivalent hyperbolic-distance expressions, an
    independent second route for the disjoint and shared-endpoint positions;
    raises ValueError where only the bracket applies."""
    from .fields import edge_ends   # on use: `wp` never loads fields
    e = u, v = edge_ends(edge)
    pts = list(Q.points())
    shared = [i for i, p in enumerate(pts) if p == u or p == v]

    def rot(k):
        return pts[k:] + pts[:k]

    def S(p, q):                # sinh^2(d/2) L for d = dist(e, {p, q})
        return _cosh_factors(e, p, q)[0]

    def C(p, q):                # cosh^2(d/2) L
        return _cosh_factors(e, p, q)[1]

    if not shared:
        # the gap (pts[i], pts[i + 1]) that holds the whole edge
        for i in range(4):
            lo, hi = pts[i], pts[(i + 1) % 4]
            if in_ccw_arc(lo, u, hi) and in_ccw_arc(lo, v, hi):
                shift = (i + 1) % 4
                sign = -1.0 if shift % 2 else 1.0
                a, b, c, d = rot(shift)
                return sign * (S(b, c) + C(a, d) - C(a, b) - C(c, d))
    elif len(shared) == 1:
        pos = shared[0]
        free = v if (pts[pos] == u) else u
        if pos in (0, 2):                       # off-diagonal vertex
            a, b, c, d = rot(2) if pos == 2 else pts
            if in_ccw_arc(d, free, a):
                return S(b, c) + _cosh_factors(e, b, d)[2] - C(c, d)
            if in_ccw_arc(a, free, b):
                return S(b, c) - C(c, d)
        else:                                   # diagonal vertex
            a, b, c, d = rot(2) if pos == 1 else pts
            if in_ccw_arc(c, free, d):
                return S(b, c) - C(a, b)
            if in_ccw_arc(d, free, a):
                return C(b, c) - S(a, b)
    else:
        pos = set(shared)
        if pos == {1, 3}:
            raise ValueError("edge equals the diagonal: the weight has no "
                             "distance expression; use the bracket route")
        if pos == {0, 2}:
            raise ValueError("edge crosses the diagonal; use the bracket "
                             "route")
        if pos == {3, 0} or pos == {1, 2}:
            a, b, c, d = pts if pos == {3, 0} else rot(2)
            return C(b, c)
        # remaining sides {0,1} and {2,3}
        a, b, c, d = pts if pos == {0, 1} else rot(2)
        return -C(c, d)
    raise ValueError("edge crosses the quadrilateral; use the bracket route")


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def hilbert_shear_series(terms, edge: FareyEdge, max_order: int) -> list[float]:
    """Recovered shear of the transform on `edge`, truncated at each Farey
    order 1..max_order: prefix sums over a halved term list (see
    fields.halved_terms) of each term's coefficient times its edge weight
    over the quadrilateral of `edge`, scaled so that a unit shear on a
    single edge e returns exactly the bracket of e's normalized closed-form
    transform."""
    kept = list(takewhile(lambda t: t[0] <= max_order, terms))
    plan = bracket_plan(edge_quadrilateral(edge))
    ends, at = _end_columns(e for _, _, e in kept)
    (weights,), = edge_weights([plan], ends, [(0, 1)])
    partials = []
    total = 0.0
    for (order, coef, _), w in zip(kept, map(weights.__getitem__, at)):
        partials += [total / math.pi] * (order - 1 - len(partials))
        total += coef * w
    return partials + [total / math.pi] * (max_order - len(partials))
