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
weights admit hyperbolic-distance expressions case by case; the bracket is
the ground truth and the distance expressions are verified against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .farey import FareyEdge, edge_neighbors, in_ccw_arc
from .fields import FieldExpr, edge_ends


def _xlogx(t: float) -> float:
    return 0.0 if t == 0.0 else t * math.log(abs(t))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def hilbert_main_terms(lifts, x: float) -> list:
    """Unnormalized main terms (no 1/pi, no affine part) of the transforms
    of the elementary fields of the ends (a, b) in lifts, all at x, in
    order.  A ray with finite end a gives (x-a) log|x-a| for either side;
    the interval (a, b) gives -(x-a)(x-b)/(a-b) log|(x-b)/(x-a)|, with the
    removable singularities at x = a, b set to their limit 0.  The main
    term is orientation-free."""
    inf, log = math.inf, math.log
    out = []
    append = out.append
    for a, b in lifts:
        if b == inf:
            append(_xlogx(x - a))
        elif a == inf:
            append(_xlogx(x - b))
        elif x == a or x == b:
            append(0.0)
        else:
            xa, xb = x - a, x - b
            append(-(xa * xb / (a - b)) * (log(abs(xb)) - log(abs(xa))))
    return out


def hilbert_main_term(ends, x: float) -> float:
    """Main term of the one elementary field of ends = (a, b) at x (see
    hilbert_main_terms)."""
    return hilbert_main_terms((ends,), x)[0]


def elementary_hilbert(ends, x: float) -> float:
    """Closed-form Hilbert transform of the elementary field of ends,
    normalized to vanish at 0 and 1 (and at infinity in the x log|x| growth
    sense)."""
    x = float(x)
    a, b = ends
    if a == math.inf:                   # a left ray: its finite end is b
        a, b = b, a
    if b == math.inf:
        return (_xlogx(x - a) + _xlogx(a - 1.0) * x - _xlogx(a) * (x - 1.0)) / math.pi
    main = hilbert_main_term(ends, x)
    t1 = 0.0 if b == 1.0 else (1.0 - a) * (1.0 - b) * math.log(abs(b - 1.0))
    t1 -= 0.0 if a == 1.0 else (1.0 - a) * (1.0 - b) * math.log(abs(a - 1.0))
    t0 = 0.0 if b == 0.0 else a * b * math.log(abs(b))
    t0 -= 0.0 if a == 0.0 else a * b * math.log(abs(a))
    return (main + (x * t1 - (x - 1.0) * t0) / (a - b)) / math.pi


def closed_hilbert_field(F: FieldExpr):
    """Closed-form transform of a field expression with no quadratic part.

    Returns a callable summing the elementary closed forms with the same
    coefficients; it vanishes at 0 and 1 and grows like x log|x|.
    """
    if any(q != 0.0 for q in F.quad):
        raise ValueError("closed-form transform is defined for fields with "
                         "zero quadratic part; normalize first")
    terms = list(F.terms)

    def H(x: float) -> float:
        return sum(c * elementary_hilbert(ends, x) for c, ends in terms)

    H.breakpoints = F.breakpoints
    H.quad = (0.0, 0.0, 0.0)
    return H


# ---------------------------------------------------------------------------
# principal-value oracle
# ---------------------------------------------------------------------------

# Excision schedule and quadrature budget of the oracle.  The excision
# radius starts at PV_EPS0 and is halved PV_HALVINGS times with the same
# radius applied symmetrically at every pole of the integrand; the excised
# integrals are Richardson-extrapolated twice (error model c1*eps + c2*eps^2
# + ...).  Beyond PV_TAIL_RADIUS the integrand is mapped through xi -> 1/u
# and the two tails are integrated jointly, which both bounds and evaluates
# the o(R^-alpha) remainder exactly up to quadrature tolerance.
PV_EPS0 = 1e-2
PV_HALVINGS = 8
PV_TAIL_RADIUS = 1e3
PV_QUAD_TOL = 1e-11


class PVConvergenceError(RuntimeError):
    def __init__(self, residual):
        super().__init__(f"principal-value extrapolation did not settle "
                         f"(residual {residual:.3e})")
        self.residual = residual


def hilbert_pv_oracle(V, x: float, tolerance: float = 1e-8) -> float:
    """Numerical principal-value Hilbert transform of an evaluable field.

    V must grow strictly slower than quadratically; if it fails to vanish at
    0 or 1 the kernel poles there are excised symmetrically as well (the
    principal value still exists for the piecewise-quadratic fields used
    here).  Raises PVConvergenceError when the excision extrapolation does
    not settle below the tolerance.  Every piece is integrated by
    quadrature.quad; a V with a values(xs) method (a FieldExpr) is
    evaluated at each rule's 21 nodes in one call.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    from .quadrature import quad    # on first use: other commands never load it

    x = float(x)
    brk = sorted(set(getattr(V, "breakpoints", list)() or []))
    R = max(PV_TAIL_RADIUS, abs(x) + 5.0,
            max((abs(b) for b in brk), default=0.0) + 5.0)

    # growth gate: V(x)/x^2 must decay between two probe radii, else the
    # field carries a genuine quadratic part and is outside the domain
    big = 0.5 * (R + max(abs(x), 2.0))
    r1 = max(abs(V(big)), abs(V(-big))) / big ** 2
    r2_probe = max(abs(V(2 * big)), abs(V(-2 * big))) / (2 * big) ** 2
    if r1 > 1e-6 and r2_probe > 0.8 * r1:
        raise ValueError("field grows at least quadratically; "
                         "not in the domain of the transform")

    # the integrand kernel(x, xi) V(xi), kernel = x(x-1) / (xi(xi-1)(xi-x)),
    # at a list of nodes
    evaluate = getattr(V, "values", None) or (lambda xis: map(V, xis))
    num = x * (x - 1.0)

    def f(xis: list) -> list:
        return [num / (xi * (xi - 1.0) * (xi - x)) * v
                for xi, v in zip(xis, evaluate(xis))]

    poles = [x]
    for s in (0.0, 1.0):
        if abs(s - x) > 1e-12 and abs(V(s)) > 1e-13:
            poles.append(s)
    poles.sort()
    cuts = sorted({c for c in brk + [0.0, 1.0] if -R < c < R})

    def integrate(a: float, b: float) -> float:
        if b <= a:
            return 0.0
        inner = [a] + [c for c in cuts if a < c < b] + [b]
        total = 0.0
        for u, v in zip(inner[:-1], inner[1:]):
            val, _ = quad(f, u, v, PV_QUAD_TOL, PV_QUAD_TOL, limit=200)
            total += val
        return total

    eps_list = [PV_EPS0 * 0.5 ** k for k in range(PV_HALVINGS + 1)]

    # widest excision once, then add back strips as eps shrinks
    def excised(eps: float) -> list[tuple[float, float]]:
        segs, cur = [], -R
        for p in poles:
            segs.append((cur, p - eps))
            cur = p + eps
        segs.append((cur, R))
        return segs

    base = sum(integrate(a, b) for a, b in excised(eps_list[0]))
    vals = [base]
    for eps_prev, eps in zip(eps_list[:-1], eps_list[1:]):
        add = 0.0
        for p in poles:
            add += integrate(p - eps_prev, p - eps)
            add += integrate(p + eps, p + eps_prev)
        base += add
        vals.append(base)

    r1 = [2.0 * vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    r2 = [(4.0 * r1[i + 1] - r1[i]) / 3.0 for i in range(len(r1) - 1)]
    residual = abs(r2[-1] - r2[-2]) if len(r2) >= 2 else math.inf
    scale = max(1.0, abs(r2[-1]))
    if not residual < max(tolerance * 1e3, 1e-12) * scale:
        raise PVConvergenceError(residual)

    def tails(us: list) -> list:
        xis = [1.0 / u for u in us]
        right, left = f(xis), f([-xi for xi in xis])
        return [(fr + fl) / u ** 2 for u, fr, fl in zip(us, right, left)]

    tail, _ = quad(tails, 1e-12, 1.0 / R, PV_QUAD_TOL, PV_QUAD_TOL,
                   limit=200)

    return -(r2[-1] + tail) / math.pi


# ---------------------------------------------------------------------------
# quadrilaterals and the recovery bracket
# ---------------------------------------------------------------------------

class Quadrilateral:
    """Ideal quadrilateral (a, b, c, d) in counterclockwise order with
    diagonal (b, d); a and c are the off-diagonal vertices.  Equal only to
    a Quadrilateral with the same vertices, and hashed as the tuple
    (a, b, c, d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        pts = self.points()
        if len({p for p in pts}) != 4:
            raise ValueError("quadrilateral needs four distinct points")
        inf_count = sum(1 for p in pts if math.isinf(p))
        if inf_count > 1:
            raise ValueError("at most one vertex may be infinite")
        a, b, c, d = pts
        if not (in_ccw_arc(a, b, c) and in_ccw_arc(c, d, a)):
            raise ValueError("vertices are not in counterclockwise order "
                             "(a, b, c, d)")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.a, self.b, self.c, self.d)
                    == (other.a, other.b, other.c, other.d))
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return (f"Quadrilateral(a={self.a!r}, b={self.b!r}, c={self.c!r}, "
                f"d={self.d!r})")

    def points(self) -> tuple[float, float, float, float]:
        return tuple(float(p) for p in (self.a, self.b, self.c, self.d))


def edge_quadrilateral(edge: FareyEdge) -> Quadrilateral:
    """The quadrilateral formed by the two tessellation triangles adjacent
    to an edge, labeled with the edge as diagonal (b, d) = (initial,
    terminal) and c the off-diagonal vertex on the arc swept from initial
    to terminal."""
    m, w = edge_neighbors(edge)
    i, t = edge.initial, edge.terminal
    if in_ccw_arc(i, m, t):
        c, a = m, w
    else:
        c, a = w, m
    return Quadrilateral(a, i, c, t)


class BracketPlan(NamedTuple):
    """The recovery bracket of one quadrilateral with its infinite vertex
    resolved: the finite vertices V is read at, the difference quotients
    that remain, each (u, v, v - u) standing for [V(v)-V(u)]/(v-u), and
    the span that multiplies the quadratic coefficient (None when every
    vertex is finite)."""

    points: tuple
    plus: tuple
    minus: tuple
    span: float | None


def bracket_plan(Q: Quadrilateral) -> BracketPlan:
    """Resolve the bracket of Q once; bracket_value evaluates it.

    The four-point bracket reading the shear of the diagonal (b, d) is

        [V(c)-V(b)]/(c-b) + [V(d)-V(a)]/(d-a)
      - [V(b)-V(a)]/(b-a) - [V(d)-V(c)]/(d-c).

    When one vertex is infinite, the two terms containing it converge
    jointly; the limit is the quadratic coefficient (= lim V(x)/x^2) times
    the difference of the other diagonal's endpoints, zero for normalized
    fields.
    """
    a, b, c, d = pts = Q.points()

    def quo(u, v):
        return (u, v, v - u)

    infs = [i for i, p in enumerate(pts) if math.isinf(p)]
    if not infs:
        return BracketPlan(pts, (quo(b, c), quo(a, d)),
                           (quo(a, b), quo(c, d)), None)
    i = infs[0]
    finite = pts[:i] + pts[i + 1:]
    if i == 0:
        return BracketPlan(finite, (quo(b, c),), (quo(c, d),), d - b)
    if i == 1:
        return BracketPlan(finite, (quo(a, d),), (quo(c, d),), c - a)
    if i == 2:
        return BracketPlan(finite, (quo(a, d),), (quo(a, b),), b - d)
    return BracketPlan(finite, (quo(b, c),), (quo(a, b),), a - c)


def bracket_values(plan: BracketPlan, columns,
                   quadratic_coefficient: float = 0.0) -> list:
    """The bracket of a plan on many fields at once, columns[p] listing
    each field's value at p, p the plan's finite vertices: per field, the
    plus quotients summed in order, less the minus quotients in order, plus
    the quadratic coefficient times the span (added even when it is 0.0,
    which turns a -0.0 total into +0.0)."""
    def quotients(u, v, h):
        return [(fv - fu) / h for fu, fv in zip(columns[u], columns[v])]

    first, *plus = plan.plus
    total = quotients(*first)
    for q in plus:
        total = [t + w for t, w in zip(total, quotients(*q))]
    for q in plan.minus:
        total = [t - w for t, w in zip(total, quotients(*q))]
    if plan.span is not None:
        shift = quadratic_coefficient * plan.span
        total = [t + shift for t in total]
    return total


def bracket_value(plan: BracketPlan, values,
                  quadratic_coefficient: float = 0.0) -> float:
    """The bracket of a plan on values[p] = V(p), p its finite vertices
    (see bracket_values)."""
    return bracket_values(plan, {p: (values[p],) for p in plan.points},
                          quadratic_coefficient)[0]


def recovery_bracket(V, Q: Quadrilateral, quadratic_coefficient: float = 0.0) -> float:
    """Four-point bracket reading the shear of the diagonal of Q off V (see
    bracket_plan), V evaluated once at each finite vertex."""
    plan = bracket_plan(Q)
    return bracket_value(plan, {p: V(p) for p in plan.points},
                         quadratic_coefficient)


def shear_recover(V, Q: Quadrilateral, quadratic_coefficient=None) -> float:
    """Shear of the diagonal of Q under the field V.

    The quadratic growth coefficient is taken from a FieldExpr's explicit
    quadratic part when not supplied; a bare callable evaluated on an
    unbounded quadrilateral is probed for super-quadratic growth and
    rejected if it fails the x log|x| class.
    """
    pts = Q.points()
    if quadratic_coefficient is None:
        if isinstance(V, FieldExpr) or hasattr(V, "quad"):
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
    return recovery_bracket(V, Q, quadratic_coefficient)


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------

def _cosh_factors(e_geo: HalfPlaneGeodesic, u: float, v: float):
    """(sinh^2(d/2), cosh^2(d/2), log coth^2(d/2)) for d = dist(e, {u,v})."""
    # on use: no command that loads hilbert needs moebius
    from .moebius import HalfPlaneGeodesic, geodesic_cosh_distance
    ch = geodesic_cosh_distance(e_geo, HalfPlaneGeodesic(u, v))
    s2 = 0.5 * (ch - 1.0)
    c2 = 0.5 * (ch + 1.0)
    if s2 <= 0.0:
        raise ValueError("degenerate distance in weight formula")
    return s2, c2, math.log(c2 / s2)


def delta_weight(edge, Q: Quadrilateral) -> float:
    """Weight with which the shear on `edge` (a FareyEdge or its ends) feeds
    the recovered transform shear on the diagonal of Q: the bracket of the
    unnormalized main-term transform of the edge's elementary field over Q.
    Covers every admissible position, the edge crossing the diagonal
    included."""
    ends = edge_ends(edge)
    return recovery_bracket(lambda x: hilbert_main_term(ends, x), Q)


def delta_weight_hyperbolic(edge, Q: Quadrilateral) -> float:
    """delta_weight by the equivalent hyperbolic-distance expressions, an
    independent second route for the disjoint and shared-endpoint positions;
    raises ValueError where only the bracket applies."""
    # on use: no command that loads hilbert needs moebius
    from .moebius import HalfPlaneGeodesic
    u, v = edge_ends(edge)
    pts = list(Q.points())
    e_geo = HalfPlaneGeodesic(u, v)
    shared = [i for i, p in enumerate(pts) if p == u or p == v]

    def rot(k):
        return pts[k:] + pts[:k]

    if len(shared) == 0:
        gap = None
        for i in range(4):
            lo, hi = pts[i], pts[(i + 1) % 4]
            if in_ccw_arc(lo, u, hi) and in_ccw_arc(lo, v, hi):
                gap = i
                break
        if gap is None:
            raise ValueError("edge crosses the quadrilateral; "
                             "use the bracket route")
        shift = (gap + 1) % 4
        sign = -1.0 if shift % 2 else 1.0
        a, b, c, d = rot(shift)
        s2bc, _, Lbc = _cosh_factors(e_geo, b, c)
        _, c2ad, Lad = _cosh_factors(e_geo, a, d)
        _, c2ab, Lab = _cosh_factors(e_geo, a, b)
        _, c2cd, Lcd = _cosh_factors(e_geo, c, d)
        return sign * (s2bc * Lbc + c2ad * Lad - c2ab * Lab - c2cd * Lcd)

    if len(shared) == 1:
        pos = shared[0]
        if pos in (0, 2):                       # off-diagonal vertex
            a, b, c, d = rot(2) if pos == 2 else pts
            free = v if (pts[pos] == u) else u
            s2bc, _, Lbc = _cosh_factors(e_geo, b, c)
            _, c2cd, Lcd = _cosh_factors(e_geo, c, d)
            if in_ccw_arc(d, free, a):
                _, _, Lbd = _cosh_factors(e_geo, b, d)
                return s2bc * Lbc + Lbd - c2cd * Lcd
            if in_ccw_arc(a, free, b):
                return s2bc * Lbc - c2cd * Lcd
            raise ValueError("edge crosses the quadrilateral; "
                             "use the bracket route")
        # diagonal vertex
        a, b, c, d = rot(2) if pos == 1 else pts
        free = v if (pts[pos] == u) else u
        if in_ccw_arc(c, free, d):
            s2bc, _, Lbc = _cosh_factors(e_geo, b, c)
            _, c2ab, Lab = _cosh_factors(e_geo, a, b)
            return s2bc * Lbc - c2ab * Lab
        if in_ccw_arc(d, free, a):
            _, c2bc, Lbc = _cosh_factors(e_geo, b, c)
            s2ab, _, Lab = _cosh_factors(e_geo, a, b)
            return c2bc * Lbc - s2ab * Lab
        raise ValueError("edge crosses the quadrilateral; "
                         "use the bracket route")

    pos = set(shared)
    if pos == {1, 3}:
        raise ValueError("edge equals the diagonal: the weight has no "
                         "distance expression; use the bracket route")
    if pos == {0, 2}:
        raise ValueError("edge crosses the diagonal; use the bracket route")
    if pos == {3, 0} or pos == {1, 2}:
        a, b, c, d = pts if pos == {3, 0} else rot(2)
        _, c2bc, Lbc = _cosh_factors(e_geo, b, c)
        return c2bc * Lbc
    # remaining sides {0,1} and {2,3}
    a, b, c, d = pts if pos == {0, 1} else rot(2)
    _, c2cd, Lcd = _cosh_factors(e_geo, c, d)
    return -c2cd * Lcd


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def hilbert_series_eval(terms, x: float) -> float:
    """Transform of the truncated field sum of a halved term list (see
    fields.halved_terms): elementary closed forms summed in list order."""
    total = 0.0
    for t in terms:
        total += t.coef * elementary_hilbert(t.ends, x)
    return total


def hilbert_shear_series(terms, edge: FareyEdge, max_order: int) -> list[float]:
    """Recovered shear of the transform on `edge`, truncated at each Farey
    order 1..max_order: prefix sums over a halved term list (see
    fields.halved_terms) of each term's coefficient times its edge weight
    over the quadrilateral of `edge`, scaled so that a unit shear on a
    single edge e returns exactly the bracket of e's normalized closed-form
    transform."""
    Q = edge_quadrilateral(edge)
    partials = []
    total = 0.0
    for t in terms:
        if t.order > max_order:
            break
        partials += [total / math.pi] * (t.order - 1 - len(partials))
        total += t.coef * delta_weight(t.ends, Q)
    return partials + [total / math.pi] * (max_order - len(partials))
