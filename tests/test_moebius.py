import math

import numpy as np
import pytest
from scipy.optimize import minimize

from shearfield.fields import FieldExpr
from shearfield.moebius import (HalfPlaneGeodesic, RealMoebius, cayley_angle,
                                cayley_to_disk, cross_ratio, cross_ratio_sym,
                                geodesic_angle, geodesic_distance,
                                geodesic_relation, pushforward_field)

INF = float("inf")
RNG = np.random.default_rng(20240817)


def random_moebius(rng=RNG, scale=2.0):
    while True:
        a, b, c, d = rng.uniform(-scale, scale, 4)
        det = a * d - b * c
        if det > 0.2:
            return RealMoebius(a, b, c, d)
        if det < -0.2:
            return RealMoebius(a, -b, c, -d)


def test_cross_ratio_infinity_limits():
    assert cross_ratio(0, 1, 2, INF) == pytest.approx(1.0)
    assert cross_ratio(-1, 0, 1, INF) == pytest.approx(1.0)


def test_cross_ratio_moebius_invariance():
    for _ in range(1000):
        pts = np.sort(RNG.uniform(-10, 10, 4))
        a, b, c, d = pts[[0, 2, 1, 3]]   # generic order, distinct
        M = random_moebius()
        v1 = cross_ratio(a, b, c, d)
        v2 = cross_ratio(M(a), M(b), M(c), M(d))
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_cross_ratio_sym_reference_quadruple():
    delta = math.log((1 + math.sqrt(2)) ** 2)
    q = (-math.exp(delta), -1.0, 1.0, math.exp(delta))
    assert cross_ratio_sym(*q) == pytest.approx(2.0, abs=1e-14)
    assert cross_ratio_sym(0, 1, 2, 3) == pytest.approx(4.0 / 3.0)


def test_cross_ratio_sym_invariance():
    for _ in range(200):
        a, b, c, d = np.sort(RNG.uniform(-5, 5, 4))
        M = random_moebius()
        v1 = cross_ratio_sym(a, b, c, d)
        v2 = cross_ratio_sym(M(a), M(b), M(c), M(d))
        assert abs(v1 - v2) <= 1e-11 * max(1.0, abs(v1))


def test_rejects_repeated_points():
    with pytest.raises(ValueError):
        cross_ratio(0, 0, 1, 2)
    with pytest.raises(ValueError):
        cross_ratio_sym(INF, 1, 2, INF)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _point_distance(z, w):
    return math.acosh(1 + (abs(z - w) ** 2) / (2 * z.imag * w.imag))


def _geodesic_point(g: HalfPlaneGeodesic, t: float) -> complex:
    u, v = g.floats()
    if math.isinf(u) or math.isinf(v):
        x = v if math.isinf(u) else u
        return complex(x, math.exp(t))
    m, r = 0.5 * (u + v), 0.5 * abs(v - u)
    # angle in (0, pi) via a sigmoid in t
    theta = math.pi / (1 + math.exp(-t))
    return complex(m + r * math.cos(theta), r * math.sin(theta))


def brute_geodesic_distance(g1, g2):
    """Minimize the point distance over both geodesic parameters.

    The distance between points of two disjoint geodesics is convex in
    their arclength parameters, and each parameter here is monotone in
    arclength, so the only local minimum is the global one: a single
    Nelder-Mead run from the best node of a 9 x 9 grid finds it."""
    def obj(params):
        z = _geodesic_point(g1, params[0])
        w = _geodesic_point(g2, params[1])
        return _point_distance(z, w)

    grid = np.linspace(-4, 4, 9)
    start = min(([t1, t2] for t1 in grid for t2 in grid), key=obj)
    res = minimize(obj, x0=start, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return res.fun


def test_distance_reference_value():
    g1 = HalfPlaneGeodesic(0.0, INF)
    g2 = HalfPlaneGeodesic(1.0, 3.0)
    assert geodesic_distance(g1, g2) == pytest.approx(math.acosh(2.0),
                                                      abs=1e-14)
    assert geodesic_distance(g1, g2) == pytest.approx(
        math.log(2 + math.sqrt(3)), abs=1e-12)


def test_distance_matches_brute_force_minimization():
    checked = 0
    while checked < 100:
        vals = np.sort(RNG.uniform(-8, 8, 4))
        g1 = HalfPlaneGeodesic(vals[0], vals[1])
        g2 = HalfPlaneGeodesic(vals[2], vals[3])
        if geodesic_relation(g1, g2) != "disjoint":
            continue
        d_formula = geodesic_distance(g1, g2)
        if d_formula > 8:
            continue   # wildly separated pairs stress the generic minimizer
        d_brute = brute_geodesic_distance(g1, g2)
        assert abs(d_formula - d_brute) < 1e-8
        checked += 1


def test_distance_scaling_invariance():
    g1 = HalfPlaneGeodesic(0.0, INF)
    for _ in range(25):
        b, c = np.sort(RNG.uniform(0.2, 7, 2))
        t = RNG.uniform(0.1, 9)
        d1 = geodesic_distance(g1, HalfPlaneGeodesic(b, c))
        d2 = geodesic_distance(g1, HalfPlaneGeodesic(t * b, t * c))
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_distance_reflection_symmetry():
    g1 = HalfPlaneGeodesic(0.0, INF)
    for _ in range(25):
        b, c = np.sort(RNG.uniform(0.2, 7, 2))
        d1 = geodesic_distance(g1, HalfPlaneGeodesic(b, c))
        d2 = geodesic_distance(g1, HalfPlaneGeodesic(-c, -b))
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_distance_and_angle_moebius_invariance():
    done_d = done_a = 0
    while done_d < 60 or done_a < 60:
        vals = RNG.uniform(-6, 6, 4)
        if len(set(vals)) < 4:
            continue
        g1 = HalfPlaneGeodesic(vals[0], vals[1])
        g2 = HalfPlaneGeodesic(vals[2], vals[3])
        M = random_moebius()
        h1 = HalfPlaneGeodesic(M(vals[0]), M(vals[1]))
        h2 = HalfPlaneGeodesic(M(vals[2]), M(vals[3]))
        rel = geodesic_relation(g1, g2)
        if rel == "disjoint" and done_d < 60:
            assert abs(geodesic_distance(g1, g2)
                       - geodesic_distance(h1, h2)) < 1e-10
            done_d += 1
        elif rel == "intersect" and done_a < 60:
            assert abs(geodesic_angle(g1, g2)
                       - geodesic_angle(h1, h2)) < 1e-10
            done_a += 1


def test_shared_endpoint_flagged_not_faked():
    g1 = HalfPlaneGeodesic(0.0, INF)
    g2 = HalfPlaneGeodesic(0.0, 4.0)
    assert geodesic_relation(g1, g2) == "shared"
    assert geodesic_distance(g1, g2) == 0.0


def test_intersecting_distance_rejected():
    g1 = HalfPlaneGeodesic(0.0, INF)
    g2 = HalfPlaneGeodesic(-1.0, 1.0)
    with pytest.raises(ValueError):
        geodesic_distance(g1, g2)


def test_angle_examples():
    g1 = HalfPlaneGeodesic(0.0, INF)
    assert geodesic_angle(g1, HalfPlaneGeodesic(-1.0, 1.0)) == pytest.approx(
        math.pi / 2)
    assert geodesic_angle(g1, HalfPlaneGeodesic(-1.0, 2.0)) == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-14)
    # symmetry
    for _ in range(20):
        a, c = np.sort(RNG.uniform(-5, -0.1, 2))
        b, d = np.sort(RNG.uniform(0.1, 5, 2))
        g = HalfPlaneGeodesic(a, b)
        h = HalfPlaneGeodesic(c, d)
        if geodesic_relation(g, h) != "intersect":
            continue
        assert geodesic_angle(g, h) == pytest.approx(geodesic_angle(h, g),
                                                     abs=1e-12)
    with pytest.raises(ValueError):
        geodesic_angle(g1, HalfPlaneGeodesic(1.0, 2.0))


# ---------------------------------------------------------------------------
# pushforward and the Cayley map
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    V = FieldExpr([(1.0, (0.0, INF))])
    W = pushforward_field(RealMoebius(1, 0, 0, 1), V)
    for x in np.linspace(-3, 3, 13):
        assert W(x) == pytest.approx(V(x), abs=1e-15)


def test_pushforward_translation_moves_support():
    V = FieldExpr([(1.0, (0.0, INF))])
    W = pushforward_field(RealMoebius(1, 1, 0, 1), V)   # x -> x + 1
    target = FieldExpr([(1.0, (1.0, INF))])
    for x in np.linspace(-2, 4, 25):
        assert W(x) == pytest.approx(target(x), abs=1e-14)


def test_pushforward_scaling_value():
    V = FieldExpr([(1.0, (0.0, INF))])
    W = pushforward_field(RealMoebius(2, 0, 0, 1), V)   # x -> 2x
    assert W(2.0) == pytest.approx(2.0)


def test_pushforward_composition():
    V = FieldExpr([(1.0, (-1.0, 2.0)), (0.5, (1.0, INF))])
    for _ in range(30):
        B1, B2 = random_moebius(), random_moebius()
        both = pushforward_field(B1.compose(B2), V)
        nested = pushforward_field(B1, pushforward_field(B2, V))
        for x in RNG.uniform(-4, 4, 8):
            v1, v2 = both(x), nested(x)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_pushforward_refuses_bare_callable_at_pole():
    B = RealMoebius(0, -1, 1, 0)      # x -> -1/x, pole image at 0
    W = pushforward_field(B, lambda x: x * math.log(abs(x)) if x else 0.0)
    with pytest.raises(ValueError):
        W(0.0)


def test_cayley_examples():
    assert cayley_to_disk(0.0) == pytest.approx(1.0)
    assert cayley_to_disk(1.0) == pytest.approx(1j)
    assert cayley_to_disk(INF) == pytest.approx(-1.0)
    # interior goes to interior: the same formula at z = i
    z = (1 + 1j * 1j) / (1 - 1j * 1j)
    assert abs(z) < 1.0
    # unit modulus on the boundary
    for x in RNG.uniform(-20, 20, 50):
        assert abs(abs(cayley_to_disk(x)) - 1.0) < 1e-14


def test_cayley_angle_monotone_circular():
    xs = [-50.0, -2.0, -0.5, 0.0, 0.7, 3.0, 40.0]
    angles = [cayley_angle(x) for x in xs]
    assert angles[3] == 0.0
    assert cayley_angle(INF) == pytest.approx(math.pi)
    # increasing x sweeps counterclockwise: angles of positives increase,
    # negatives sit above pi
    assert 0 < angles[4] < angles[5] < angles[6] < math.pi
    assert math.pi < angles[0] < angles[1] < angles[2] < 2 * math.pi
