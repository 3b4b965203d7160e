import math
import random

import numpy as np
import pytest

import shearfield.hilbert
from shearfield.farey import (ExtRational, FareyEdge, INFINITY, ONE, ZERO,
                              enumerate_edges, fan_edges, in_ccw_arc,
                              oriented_edge)
from shearfield.fields import (FieldExpr, ShearFunction, assemble_field,
                               edge_ends, halved_terms)
from shearfield.hilbert import (PV_REACH, BracketPlan, PVConvergenceError,
                                Quadrilateral, bracket_plan, bracket_values,
                                closed_hilbert_field, delta_weight,
                                delta_weight_hyperbolic, edge_quadrilateral,
                                edge_weights, elementary_hilbert,
                                hilbert_main_terms, hilbert_pv_oracle,
                                hilbert_series_eval, hilbert_shear_series,
                                shear_recover)

INF = float("inf")
RNG = np.random.default_rng(11)


def _real_moebius(m):
    """x -> (m0 x + m1)/(m2 x + m3) on the extended reals, oo as inf."""
    a, b, c, d = m

    def M(x):
        if math.isinf(x):
            return a / c if c != 0 else INF
        den = c * x + d
        return INF if den == 0 else (a * x + b) / den
    return M


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_ray_transform_reference_values():
    assert elementary_hilbert((0.0, INF), math.e) == pytest.approx(
        math.e / math.pi)
    assert elementary_hilbert((0.0, INF), 1.0) == 0.0
    assert elementary_hilbert((0.0, INF), 0.0) == 0.0
    # both rays at a share a transform (their sum differs by a linear field)
    for a in (-1.5, 0.0, 0.6, 2.0):
        for x in (-2.2, 0.3, 1.7, 5.0):
            assert elementary_hilbert((a, INF), x) == pytest.approx(
                elementary_hilbert((INF, a), x), abs=1e-14)


def test_interval_transform_vanishes_at_0_1():
    for _ in range(20):
        a, b = np.sort(RNG.uniform(-6, 6, 2))
        if abs(a) < 1e-3 or abs(b) < 1e-3 or abs(a - 1) < 1e-3 \
                or abs(b - 1) < 1e-3 or b - a < 1e-2:
            continue
        assert elementary_hilbert((a, b), 0.0) == pytest.approx(
            0.0, abs=1e-12)
        assert elementary_hilbert((a, b), 1.0) == pytest.approx(
            0.0, abs=1e-12)


def test_interval_transform_removable_points():
    a, b = 2.0, 3.0
    va = elementary_hilbert((a, b), a)
    near = elementary_hilbert((a, b), a + 1e-9)
    assert va == pytest.approx(near, abs=1e-7)
    # endpoint at the kernel pole: the affine terms have their own limits
    assert math.isfinite(elementary_hilbert((0.0, 2.0), 0.5))
    assert math.isfinite(elementary_hilbert((1.0, 2.0), 1.5))


def _main_terms(lifts, x):
    """The main terms of lifts (a, b) at x: one pair of end columns."""
    ends = [[a for a, _ in lifts], [b for _, b in lifts]]
    (terms,), = hilbert_main_terms(ends, [(0, 1)], [x])
    return terms


def _main_term(ends, x):
    return _main_terms((ends,), x)[0]


def test_main_term_orientation_free():
    for _ in range(10):
        a, b = np.sort(RNG.uniform(-4, 4, 2))
        x = RNG.uniform(-5, 5)
        assert _main_term((a, b), x) == pytest.approx(_main_term((b, a), x),
                                                      abs=1e-12)


def _hex(values):
    return [v.hex() for v in values]


def test_main_term_at_an_end_is_positive_zero():
    """At x on an end the term is +0.0, though (x-a)(x-b)/(b-a) carries
    a sign there: the limit is patched in, not left to the formula.  The
    ends sit in one pair of columns, among lifts that x does not touch,
    and at several x in one call."""
    lifts = [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.5), (0.5, -1.0), (2.0, 3.0)]
    ends = [[a for a, _ in lifts], [b for _, b in lifts]]
    (at0, at_half), = hilbert_main_terms(ends, [(0, 1)], [0.0, 0.5])
    assert _hex(at0[:2]) == [(0.0).hex()] * 2
    assert _hex(at_half[2:4]) == [(0.0).hex()] * 2
    assert all(v != 0.0 for v in at0[2:] + at_half[4:])


def test_batched_main_terms_are_the_scalar_main_term_bitwise():
    """A column of main terms is, entry by entry, the main term of each
    lift alone: rays with inf at either end, x at an end, and results of
    either zero sign, all in one column."""
    lifts = [(0.0, INF), (INF, 0.0), (1.0, INF), (INF, 1.0), (0.0, 1.0),
             (1.0, 0.0), (0.5, 2.0), (-1.0, 0.5), (0.25, 0.5)]
    for x in (-1.0, 0.0, 0.5, 0.7, 1.0, 2.0):
        assert _hex(_main_terms(lifts, x)) == [
            _main_term(ends, x).hex() for ends in lifts]
    assert _main_terms([], 0.5) == []
    # the written-out formulas, with their signed zeros
    r = (0.7 - 0.5) * (0.7 - 2.0) / (0.5 - 2.0)
    want = -r * (math.log(abs(0.7 - 2.0)) - math.log(abs(0.7 - 0.5)))
    assert _main_term((0.5, 2.0), 0.7).hex() == want.hex()
    assert _main_term((INF, 1.0), 0.0).hex() == (-0.0).hex()
    assert _main_term((0.0, 1.0), 0.5).hex() == (-0.0).hex()
    assert _main_term((1.0, 0.0), 0.5).hex() == (0.0).hex()
    assert _main_term((0.0, 1.0), 1.0).hex() == (0.0).hex()
    assert _main_term((0.0, INF), 0.0).hex() == (0.0).hex()


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_field():
    Z = FieldExpr([])
    assert hilbert_pv_oracle(Z, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_interval_closed_form():
    V = FieldExpr([(1.0, (2.0, 3.0))])
    got = hilbert_pv_oracle(V, 5.0)
    want = elementary_hilbert((2.0, 3.0), 5.0)
    assert got == pytest.approx(want, abs=1e-6)


def test_oracle_matches_ray_closed_form():
    V = FieldExpr([(1.0, (0.0, INF))])
    got = hilbert_pv_oracle(V, math.e)
    assert got == pytest.approx(math.e / math.pi, abs=1e-6)
    W = FieldExpr([(1.0, (INF, -1.5))])
    got = hilbert_pv_oracle(W, 1.8)
    assert got == pytest.approx(elementary_hilbert((INF, -1.5), 1.8),
                                abs=1e-6)


@pytest.mark.parametrize("x", [1e6, 1e9])
def test_oracle_tail_reaches_infinity(x):
    """The pieces end at R = 2|x| and the mapped tail is integrated from
    u = 0, so no |xi| is left out: far beyond the breakpoints the oracle
    meets the closed form (measured 1.8e-13 relative at 1e6 and 3.9e-9 at
    1e9)."""
    V = FieldExpr([(1.0, (0.5, INF)), (-0.7, (INF, -2.0)),
                   (0.3, (0.0, 1.0))])
    want = closed_hilbert_field(V)(x)
    assert abs(hilbert_pv_oracle(V, x) - want) <= 1e-7 * abs(want)


_RAYS = [(1.0, (INF, 0.0)), (-2.0, (1.0, INF))]


@pytest.mark.parametrize("terms", [_RAYS, _RAYS + [(0.7, (0.25, 3.0))]],
                         ids=["rays", "rays+interval"])
def test_oracle_is_right_or_beyond_its_reach(terms):
    """On x = +-10^(k/2), k = 0..615, every value the oracle returns is
    within 1e-6 max(1, |closed|) of the closed form (measured 2.5e-7 at
    x = 1e10), and every other x raises the one reach diagnostic before
    any quadrature: no domain or overflow error, and no silently wrong
    value (with no reach, the rays give +2.1e19 at x = 1e19, where the
    closed form is -1.4e20)."""
    V = FieldExpr(terms)
    for k in range(616):
        for x in (10.0 ** (k / 2), -10.0 ** (k / 2)):
            if abs(x) > PV_REACH:
                with pytest.raises(PVConvergenceError, match="reach") as exc:
                    hilbert_pv_oracle(V, x)
                assert exc.value.residual is None
                continue
            want, = hilbert_series_eval(terms, [x])
            assert abs(hilbert_pv_oracle(V, x) - want) <= (
                1e-6 * max(1.0, abs(want)))


def test_oracle_reach_covers_the_breakpoints():
    """A breakpoint beyond PV_REACH is refused like such an x."""
    V = FieldExpr([(1.0, (2.0 * PV_REACH, INF))])
    with pytest.raises(PVConvergenceError, match="reach"):
        hilbert_pv_oracle(V, 0.5)


def test_oracle_rejects_quadratic_growth():
    V = FieldExpr([], quad=(0.2, 0.0, 0.0))
    with pytest.raises(ValueError):
        hilbert_pv_oracle(V, 0.5)


def test_oracle_raises_when_the_quadrature_does_not_settle():
    """A jump at x leaves no principal value: (V(xi) - V(x))/(xi - x) is
    1/(xi - x) on (2.5, 3.5), whose integral diverges, so the bisection
    runs to its limit and the summed error estimate it reports (9.0e-4)
    fails the default gate of 1e-5."""
    def V(x):
        return 1.0 if 2.5 < x < 3.5 else 0.0

    V.breakpoints = [2.5, 3.5]
    with pytest.raises(PVConvergenceError) as exc:
        hilbert_pv_oracle(V, 2.5)
    assert exc.value.residual > 1e-5


@pytest.mark.parametrize("x", [0.012, 0.008, 0.005, 0.001, 0.995, -0.005,
                               1e-6, 1 - 1e-6, 1 + 1e-6])
def test_oracle_separates_close_poles(x):
    """V(0) = V(1) = 2/3, so 0 and 1 are poles beside x, as close as 1e-6
    to it."""
    V = FieldExpr([(1.0, (-1.0, 2.0))])
    got = hilbert_pv_oracle(V, x)
    # measured 4.8e-16
    assert abs(got - elementary_hilbert((-1.0, 2.0), x)) < 1e-8


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_oracle_zero_at_0_and_1_is_positive(x):
    """The kernel vanishes at 0 and 1; the oracle's zero there prints as
    0, as the closed form's does, not as -0."""
    for V in (FieldExpr([(1.0, (-1.0, 2.0))]), FieldExpr([(1.0, (2.0, 3.0))])):
        assert math.copysign(1.0, hilbert_pv_oracle(V, x)) == 1.0


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        hilbert_pv_oracle(FieldExpr([]), 0.5, tolerance=float("nan"))


# ---------------------------------------------------------------------------
# shear recovery
# ---------------------------------------------------------------------------

def test_recover_quadratic_is_zero():
    for _ in range(50):
        quad = tuple(RNG.uniform(-1, 1, 3))
        V = FieldExpr([], quad=quad)
        pts = np.sort(RNG.uniform(-5, 5, 4))
        Q = Quadrilateral(*pts)
        assert abs(shear_recover(V, Q)) < 1e-12
        Qinf = Quadrilateral(pts[0], pts[1], pts[2], INF)
        assert abs(shear_recover(V, Qinf)) < 1e-12


def test_recover_plus_quadratic_invariant():
    V = FieldExpr([(1.3, (-1.0, 2.0)), (0.4, (1.0, INF))])
    for _ in range(25):
        quad = tuple(RNG.uniform(-1, 1, 3))
        W = V.plus_quad(quad)
        pts = np.sort(RNG.uniform(-4, 4, 4))
        Q = Quadrilateral(*pts)
        assert shear_recover(W, Q) == pytest.approx(shear_recover(V, Q),
                                                    abs=1e-12)
        Qinf = Quadrilateral(pts[1], pts[2], pts[3], INF)
        assert shear_recover(W, Qinf) == pytest.approx(
            shear_recover(V, Qinf), abs=1e-12)


def test_recover_unit_shear_on_own_diagonal():
    for _ in range(30):
        a, b, c, d = np.sort(RNG.uniform(-5, 5, 4))
        # diagonal (b, d), c inside the support (b, d)
        V = FieldExpr([(1.0, (b, d))])
        Q = Quadrilateral(a, b, c, d)
        assert shear_recover(V, Q) == pytest.approx(1.0, abs=1e-12)
    # with the far vertex at infinity
    V = FieldExpr([(1.0, (0.0, 1.0))])
    Q = Quadrilateral(INF, 0.0, 0.5, 1.0)
    assert shear_recover(V, Q) == pytest.approx(1.0, abs=1e-12)


def test_recover_xlogx_reference():
    W = lambda x: x * math.log(abs(x)) if x else 0.0
    Q = Quadrilateral(-1.0, 0.0, 2.0, INF)
    assert shear_recover(W, Q) == pytest.approx(math.log(2.0), abs=1e-12)


def test_recover_rejects_fast_growth_callable():
    Q = Quadrilateral(-1.0, 0.0, 2.0, INF)
    with pytest.raises(ValueError):
        shear_recover(lambda x: x * x, Q)
    # but an explicit coefficient makes it exact
    got = shear_recover(lambda x: x * x, Q, quadratic_coefficient=1.0)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_quadrilateral_validation():
    with pytest.raises(ValueError):
        Quadrilateral(0.0, 2.0, 1.0, 3.0)       # not ccw
    with pytest.raises(ValueError):
        Quadrilateral(0.0, 0.0, 1.0, 2.0)       # repeated
    Q = Quadrilateral(ExtRational(-1), ZERO, ONE, INFINITY)
    assert Q.points() == (-1.0, 0.0, 1.0, INF)


def test_edge_quadrilateral_neighbors():
    e = oriented_edge(ZERO, INFINITY)
    Q = edge_quadrilateral(e)
    assert Q.points() == (1.0, INF, -1.0, 0.0)
    e2 = oriented_edge(ZERO, ONE)
    Q2 = edge_quadrilateral(e2)
    assert Q2.points() == (INF, 0.0, 0.5, 1.0)


def _arc_test_quadrilateral(edge):
    """Reference: the two third vertices of an edge, the mediant and the
    difference vertex, with c the one the three-way arc test puts on the
    counterclockwise arc from the initial to the terminal end."""
    i, t = edge.initial, edge.terminal
    m = ExtRational(i.num + t.num, i.den + t.den)
    w = ExtRational(i.num - t.num, i.den - t.den)
    c, a = (m, w) if in_ccw_arc(i, m, t) else (w, m)
    return Quadrilateral(a, i, c, t)


def test_third_vertex_by_one_comparison_matches_arc_test():
    """edge_quadrilateral, which takes the mediant as c exactly when the
    edge's frame g = (r p; s q), for i = p/q -> t = r/s, has det g > 0,
    equals the arc-test route on every edge of order <= 12 and on fan
    edges at oo, 0, negative tips and random tips with denominators up to
    10^6, each edge in both orientations; and it is the frame's image of
    (-1, 0, 1, oo) when det g > 0, of (1, 0, -1, oo) otherwise."""
    rng = random.Random(34)
    tips = [INFINITY, ZERO, ExtRational(-1), ExtRational(-7, 3)] + [
        ExtRational(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        for _ in range(40)]
    edges = enumerate_edges(12) + [e for p in tips
                                   for e in fan_edges(p, -6, 6)]
    assert len(edges) == 8189 + 44 * 13
    for e in edges:
        for edge in (e, FareyEdge(e.terminal, e.initial)):
            Q = edge_quadrilateral(edge)
            assert Q == _arc_test_quadrilateral(edge)
            p, q, r, s = edge.to_json()
            g = [ExtRational(r * x + p * y, s * x + q * y)
                 for x, y in ((-1, 1), (0, 1), (1, 1), (1, 0))]
            assert g[1] == edge.initial and g[3] == edge.terminal
            if r * q - p * s < 0:
                g[0], g[2] = g[2], g[0]
            assert (Q.a, Q.b, Q.c, Q.d) == tuple(g)


@pytest.mark.parametrize("points, plan", [
    ((-2.0, 0.0, 1.0, 3.0),
     ((-2.0, 0.0, 1.0, 3.0), ((0.0, 1.0, 1.0), (-2.0, 3.0, 5.0)),
      ((-2.0, 0.0, 2.0), (1.0, 3.0, 2.0)), None)),
    ((INF, -2.0, 0.0, 1.0),
     ((-2.0, 0.0, 1.0), ((-2.0, 0.0, 2.0),), ((0.0, 1.0, 1.0),), 3.0)),
    ((1.0, INF, -2.0, 0.0),
     ((1.0, -2.0, 0.0), ((1.0, 0.0, -1.0),), ((-2.0, 0.0, 2.0),), -3.0)),
    ((0.0, 1.0, INF, -2.0),
     ((0.0, 1.0, -2.0), ((0.0, -2.0, -2.0),), ((0.0, 1.0, 1.0),), 3.0)),
    ((-2.0, 0.0, 1.0, INF),
     ((-2.0, 0.0, 1.0), ((0.0, 1.0, 1.0),), ((-2.0, 0.0, 2.0),), -3.0)),
], ids=["finite", "a", "b", "c", "d"])
def test_bracket_plan_per_infinite_slot(points, plan):
    """The plan for no infinite vertex and for oo in each slot: the plus
    quotients (b, c), (a, d) and the minus quotients (a, b), (c, d) less
    those with an infinite end, and the span (d-b, c-a, b-d, a-c)[i] for
    oo in slot i.  edge_quadrilateral never puts oo in slot c."""
    assert bracket_plan(Quadrilateral(*points)) == BracketPlan(*plan)


def _four_point_bracket(plan, values, quadratic_coefficient):
    """The bracket of a plan on one field, quotient by quotient."""
    (u, v, h), *plus = plan.plus
    total = (values[v] - values[u]) / h
    for u, v, h in plus:
        total += (values[v] - values[u]) / h
    for u, v, h in plan.minus:
        total -= (values[v] - values[u]) / h
    if plan.span is not None:
        total += quadratic_coefficient * plan.span
    return total


def test_batched_brackets_are_the_scalar_bracket_bitwise():
    """A column of brackets is, entry by entry, the bracket of each field
    alone and the four-point bracket in the plan's order: on the
    three fundamental plans (one infinite vertex each) and on the plan of
    {1/2, 1}, whose four vertices are finite."""
    edges = [oriented_edge(ZERO, INFINITY), oriented_edge(ONE, INFINITY),
             oriented_edge(ZERO, ONE), oriented_edge(ExtRational(1, 2), ONE)]
    plans = [bracket_plan(edge_quadrilateral(e)) for e in edges]
    assert [len(P.points) for P in plans] == [3, 3, 3, 4]
    rng = np.random.default_rng(5)     # the module's RNG feeds later tests
    for P in plans:
        fields = [{p: float(v) for p, v in zip(P.points,
                                                rng.uniform(-2, 2, 4))}
                  for _ in range(6)]
        fields += [dict.fromkeys(P.points, c) for c in (0.0, -0.0, 1.0)]
        columns = {p: [V[p] for V in fields] for p in P.points}
        for q in (0.0, 1.5):
            got = _hex(bracket_values(P, columns, q))
            assert got == [_hex(bracket_values(
                P, {p: (V[p],) for p in P.points}, q))[0] for V in fields]
            assert got == [_four_point_bracket(P, V, q).hex() for V in fields]
    # the quotients leave -0.0 here; adding 0.0 * span makes it +0.0
    P = plans[2]
    zeros = {0.0: 0.0, 0.5: -0.0, 1.0: 0.0}
    assert P.span == 1.0
    one = {p: (v,) for p, v in zeros.items()}
    assert bracket_values(P, one)[0].hex() == (0.0).hex()
    assert bracket_values(P, {p: [] for p in P.points}) == []


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------

def test_edge_weights_are_delta_weights_bitwise():
    """Per plan, the batched weights are delta_weight of each edge alone:
    over the three fundamental quadrilaterals and the all-finite one of
    {1/2, 1}, which share vertices, for rays of either side, intervals and
    edges with an end at a plan vertex."""
    targets = [oriented_edge(ZERO, INFINITY), oriented_edge(ONE, INFINITY),
               oriented_edge(ZERO, ONE), oriented_edge(ExtRational(1, 2), ONE)]
    quads = [edge_quadrilateral(e) for e in targets]
    lifts = [(0.0, INF), (INF, -1.0), (2.0, INF), (0.5, 1.0), (-3.0, -2.0),
             (1.0, 2.0), (1 / 3, 0.5), (0.0, 1.0), (-1.0, 0.0)]
    got, = edge_weights([bracket_plan(Q) for Q in quads],
                        [[a for a, _ in lifts], [b for _, b in lifts]],
                        [(0, 1)])
    assert [_hex(ws) for ws in got] == \
        [[delta_weight(e, Q).hex() for e in lifts] for Q in quads]

def _two_route(edge, Q):
    return delta_weight(edge, Q), delta_weight_hyperbolic(edge, Q)


def test_delta_two_route_all_disjoint_positions():
    for _ in range(40):
        pts = np.sort(RNG.uniform(0.1, 9.0, 4))
        for labels in (tuple(pts), tuple(-pts[::-1])):
            br, hy = _two_route((0.0, INF), Quadrilateral(*labels))
            assert br == pytest.approx(hy, abs=1e-9)
        # other-gap variant: rotate the labels once (diagonal swaps)
        b, c, d, a = pts
        br, hy = _two_route((0.0, INF), Quadrilateral(a, b, c, d))
        assert br == pytest.approx(hy, abs=1e-9)


def test_delta_two_route_shared_vertex():
    for _ in range(40):
        b, c, d = np.sort(RNG.uniform(0.1, 9.0, 3))
        # shared at the off-diagonal vertex, both sides
        br, hy = _two_route((0.0, INF), Quadrilateral(0.0, b, c, d))
        assert br == pytest.approx(hy, abs=1e-9)
        br, hy = _two_route((0.0, INF), Quadrilateral(0.0, -d, -c, -b))
        assert br == pytest.approx(hy, abs=1e-9)
        # shared at a diagonal vertex, both sides
        br, hy = _two_route((0.0, INF), Quadrilateral(-d, -c, -b, INF))
        assert br == pytest.approx(hy, abs=1e-9)
        br, hy = _two_route((0.0, INF), Quadrilateral(b, c, d, INF))
        assert br == pytest.approx(hy, abs=1e-9)


def test_delta_two_route_edge_as_side():
    for _ in range(40):
        b, c = np.sort(RNG.uniform(0.1, 9.0, 2))
        br, hy = _two_route((0.0, INF), Quadrilateral(0.0, b, c, INF))
        assert br == pytest.approx(hy, abs=1e-9)
        d, c2 = -b, -c
        br, hy = _two_route((0.0, INF), Quadrilateral(0.0, INF, c2, d))
        assert br == pytest.approx(hy, abs=1e-9)


def test_delta_intersecting_case_bracket_only():
    Q = Quadrilateral(-1.0, 0.0, 2.0, INF)
    assert delta_weight((0.0, INF), Q) == pytest.approx(math.log(2.0),
                                                        abs=1e-12)
    with pytest.raises(ValueError):
        delta_weight_hyperbolic((0.0, INF), Q)
    with pytest.raises(ValueError):
        delta_weight_hyperbolic((-0.5, 3.0),
                                Quadrilateral(-1.0, 0.0, 2.0, 5.0))


def test_delta_self_weight_vanishes_on_own_quadrilateral():
    for e in (oriented_edge(ZERO, INFINITY), oriented_edge(ZERO, ONE),
              oriented_edge(ONE, ExtRational(2))):
        Q = edge_quadrilateral(e)
        assert delta_weight(e, Q) == pytest.approx(0.0, abs=1e-12)


def test_delta_moebius_invariance():
    count = 0
    while count < 40:
        a, b, c, d = np.sort(RNG.uniform(0.3, 8.0, 4))
        Q = Quadrilateral(a, b, c, d)
        v0 = delta_weight((0.0, INF), Q)
        m = RNG.uniform(-1.5, 1.5, 4)
        det = m[0] * m[3] - m[1] * m[2]
        if abs(det) < 0.3:
            continue
        if det < 0:
            m[0], m[1] = -m[0], -m[1]
        M = _real_moebius(m)
        img = [M(p) for p in (a, b, c, d, 0.0, INF)]
        if any(math.isinf(t) for t in img[:4]) or \
                math.isinf(img[4]) or math.isinf(img[5]):
            pass
        try:
            Q2 = Quadrilateral(*img[:4])
            v1 = delta_weight((img[4], img[5]), Q2)
        except ValueError:
            continue
        assert v1 == pytest.approx(v0, abs=1e-9 * max(1.0, abs(v0)) * 10)
        count += 1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _random_shears(n_edges=4, seed_pool=None):
    sdot = ShearFunction()
    pool = seed_pool or [oriented_edge(ZERO, INFINITY),
                         oriented_edge(ZERO, ONE),
                         oriented_edge(ONE, INFINITY),
                         oriented_edge(ExtRational(1, 2), ONE),
                         oriented_edge(ExtRational(-1), ZERO),
                         oriented_edge(ExtRational(2), ExtRational(3))]
    idx = RNG.choice(len(pool), size=min(n_edges, len(pool)), replace=False)
    for i in idx:
        sdot.set(pool[i], float(RNG.uniform(-1.5, 1.5)))
    return sdot


def test_series_zero():
    assert hilbert_series_eval(halved_terms(ShearFunction(), 5, 10),
                               [0.3]) == [0.0]


def _bench_grid_terms():
    """The benchmark's `grid` term list at seed 0, at the CLI's default
    order 6 and window 20: the first 60 edges of enumerate_edges(6),
    valued by the nonzero standard normal draws of random.Random("grid:0")."""
    rng, sdot = random.Random("grid:0"), ShearFunction()
    for e in enumerate_edges(6)[:60]:
        v = 0.0
        while v == 0.0:
            v = rng.gauss(0.0, 1.0)
        sdot.set(e, v)
    return halved_terms(sdot, 6, 20)


def test_series_vanishes_exactly_at_0_and_1():
    """The summed main terms less their chord through 0 and 1 are +0.0
    there, bit for bit: on the elementary field of every edge of order
    <= 9 and on the benchmark's grid term list."""
    zeros = [(0.0).hex()] * 2
    for e in enumerate_edges(9):
        assert _hex(hilbert_series_eval([(1.0, edge_ends(e))],
                                        [0.0, 1.0])) == zeros
    terms = _bench_grid_terms()
    assert len(terms) > 60
    assert _hex(hilbert_series_eval(terms, [0.0, 1.0])) == zeros


@pytest.mark.parametrize("terms", [
    [(1.5, (0.25, INF))],
    [(1.0, (0.0, INF)), (-2.0, (INF, 1.0)), (0.7, (0.25, 3.0)),
     (-0.4, (0.25, 3.0))]], ids=["one-ray", "rays-and-interval"])
def test_series_bits_do_not_depend_on_the_x_block(monkeypatch, terms):
    """0 and 1 share the first block with the grid, and each S(x) is
    summed for its x alone: with _X_BLOCK at 1, 2 and 3 (one x per block,
    and blocks that split 0, 1 and the grid in several ways) the transform
    has the default's bits, x on an end included."""
    xs = [-1.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 7.5]
    want = _hex(hilbert_series_eval(terms, xs))
    for block in (1, 2, 3):
        monkeypatch.setattr(shearfield.hilbert, "_X_BLOCK", block)
        assert _hex(hilbert_series_eval(terms, xs)) == want, block


def test_oracle_reads_a_field_expr_through_values_only(monkeypatch):
    """The growth probes, the poles and every quadrature rule read V
    through values(xs): the oracle never calls a FieldExpr at a point,
    and its answer keeps its bits."""
    V = FieldExpr([(1.0, (0.0, INF)), (-2.0, (INF, 1.0)),
                   (0.7, (0.25, 3.0))])
    want = hilbert_pv_oracle(V, 0.63).hex()

    def scalar_call(self, x):
        raise AssertionError("FieldExpr.__call__ was called")

    monkeypatch.setattr(FieldExpr, "__call__", scalar_call)
    assert hilbert_pv_oracle(V, 0.63).hex() == want


def test_series_single_fan_matches_direct_sum():
    sdot = ShearFunction()
    vals = {}
    from shearfield.farey import fan_edge
    for n in range(-3, 4):
        v = float(RNG.uniform(-1, 1))
        e = fan_edge(INFINITY, n)
        sdot.set(e, v)
        vals[n] = v
    terms = halved_terms(sdot, 6, 10)
    xs = np.linspace(-3.3, 3.3, 11)
    for x, got in zip(xs, hilbert_series_eval(terms, xs)):
        # direct single-fan sum: halved shears on the infinity fan plus the
        # other tips' fans (integer tips), all of whose edges are the same
        direct = 0.0
        for n, v in vals.items():
            ends = (float(n), INF) if n >= 1 else (INF, float(n))
            direct += 0.5 * v * elementary_hilbert(ends, x)
        # each edge also occurs in the fan of its integer tip
        for n, v in vals.items():
            ends = (float(n), INF) if n >= 1 else (INF, float(n))
            direct += 0.5 * v * elementary_hilbert(ends, x)
        assert got == pytest.approx(direct, abs=1e-12)


def test_series_matches_oracle_on_grid():
    sdot = _random_shears(4)
    terms = halved_terms(sdot, 6, 40)
    V = assemble_field(terms)
    xs = (-2.37, -0.41, 0.63, 2.29, 4.11)
    for x, closed in zip(xs, hilbert_series_eval(terms, xs)):
        oracle = hilbert_pv_oracle(V, x)
        assert closed == pytest.approx(oracle, abs=1e-4)


def test_shear_series_zero():
    e = oriented_edge(ZERO, ONE)
    assert hilbert_shear_series(halved_terms(ShearFunction(), 5, 10),
                                e, 5)[-1] == 0.0


def test_shear_series_single_edge_identity():
    e = oriented_edge(ExtRational(2), ExtRational(3))
    target = oriented_edge(ZERO, ONE)
    sdot = ShearFunction()
    sdot.set(e, 1.0)
    got = hilbert_shear_series(halved_terms(sdot, 4, 10), target, 4)[-1]
    Q = edge_quadrilateral(target)
    want_dw = delta_weight(e, Q) / math.pi
    H = closed_hilbert_field(FieldExpr([(1.0, (2.0, 3.0))]))
    want_recover = shear_recover(H, Q)
    assert got == pytest.approx(want_dw, abs=1e-12)
    assert got == pytest.approx(want_recover, abs=1e-12)


def test_shear_series_matches_recovered_closed_transform():
    sdot = _random_shears(5)
    targets = [oriented_edge(ZERO, INFINITY), oriented_edge(ZERO, ONE),
               oriented_edge(ExtRational(1), ExtRational(2))]
    terms = halved_terms(sdot, 6, 40)
    for target in targets:
        got = hilbert_shear_series(terms, target, 6)[-1]
        V = assemble_field(terms)
        H = closed_hilbert_field(V)
        want = shear_recover(H, edge_quadrilateral(target))
        assert got == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# involution (spot; the acceptance suite runs the full grid)
# ---------------------------------------------------------------------------

def test_involution_spot():
    V = FieldExpr([(1.0, (2.0, 3.0))])
    H1 = closed_hilbert_field(V)
    xs = [2.2, 2.6, 3.4]
    H2 = {x: hilbert_pv_oracle(H1, x) for x in xs + [0.0, 1.0]}
    # normalize H2 at 0, 1, infinity: subtract the line through its values
    b = H2[1.0] - H2[0.0]
    c = H2[0.0]
    for x in xs:
        assert H2[x] - (b * x + c) == pytest.approx(-V(x), abs=1e-3)
