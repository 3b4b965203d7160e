import math

import numpy as np
import pytest
from scipy.optimize import minimize

from shearfield.moebius import geodesic_cosh_distance

INF = float("inf")
RNG = np.random.default_rng(20240817)


def random_moebius(rng=RNG, scale=2.0):
    """A random orientation-preserving map x -> (a x + b)/(c x + d) on the
    extended reals, with det ad - bc at least 0.2."""
    while True:
        a, b, c, d = rng.uniform(-scale, scale, 4)
        det = a * d - b * c
        if det < -0.2:
            b, d = -b, -d
        if abs(det) > 0.2:
            break

    def M(x):
        if math.isinf(x):
            return a / c if c != 0 else INF
        den = c * x + d
        return INF if den == 0 else (a * x + b) / den
    return M


def geodesic_distance(e, f):
    """The distance the hyperbolic weight route uses: acosh of
    geodesic_cosh_distance."""
    return math.acosh(geodesic_cosh_distance(e, f))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _point_distance(z, w):
    return math.acosh(1 + (abs(z - w) ** 2) / (2 * z.imag * w.imag))


def _geodesic_point(g: tuple, t: float) -> complex:
    u, v = g
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
    """cosh d = 2 for (0, oo)-(1, 3) and for its image (oo, 0)-(-1, -1/3)
    under the isometry x -> -1/x, each with the first pair's ends in both
    orders and with the two pairs in both orders: infinity in every slot."""
    for e, f in (((0.0, INF), (1.0, 3.0)), ((INF, 0.0), (1.0, 3.0)),
                 ((INF, 0.0), (-1.0, -1 / 3)), ((0.0, INF), (-1 / 3, -1.0))):
        for g1, g2 in ((e, f), (f, e)):
            assert geodesic_distance(g1, g2) == pytest.approx(
                math.acosh(2.0), abs=1e-14)
            assert geodesic_distance(g1, g2) == pytest.approx(
                math.log(2 + math.sqrt(3)), abs=1e-12)


def test_distance_matches_brute_force_minimization():
    checked = 0
    while checked < 100:
        vals = np.sort(RNG.uniform(-8, 8, 4))
        g1, g2 = (vals[0], vals[1]), (vals[2], vals[3])
        d_formula = geodesic_distance(g1, g2)
        if d_formula > 8:
            continue   # wildly separated pairs stress the generic minimizer
        d_brute = brute_geodesic_distance(g1, g2)
        assert abs(d_formula - d_brute) < 1e-8
        checked += 1


def test_distance_scaling_invariance():
    g1 = (0.0, INF)
    for _ in range(25):
        b, c = np.sort(RNG.uniform(0.2, 7, 2))
        t = RNG.uniform(0.1, 9)
        d1 = geodesic_distance(g1, (b, c))
        d2 = geodesic_distance(g1, (t * b, t * c))
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_distance_reflection_symmetry():
    g1 = (0.0, INF)
    for _ in range(25):
        b, c = np.sort(RNG.uniform(0.2, 7, 2))
        d1 = geodesic_distance(g1, (b, c))
        d2 = geodesic_distance(g1, (-c, -b))
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_distance_moebius_invariance():
    done = 0
    while done < 60:
        vals = RNG.uniform(-6, 6, 4)
        if len(set(vals)) < 4:
            continue
        g1, g2 = (vals[0], vals[1]), (vals[2], vals[3])
        M = random_moebius()
        h1, h2 = (M(vals[0]), M(vals[1])), (M(vals[2]), M(vals[3]))
        try:
            d = geodesic_distance(g1, g2)
        except ValueError:          # crossing geodesics have no distance
            continue
        assert abs(d - geodesic_distance(h1, h2)) < 1e-10
        done += 1


def test_shared_endpoint_flagged_not_faked():
    """A shared end, finite or infinite (+oo and -oo are one end), in every
    slot pairing gives exactly 1, not a rounded value near 1."""
    for s, t, e_other, f_other in ((2.5, 2.5, -1.0, 4.0),
                                   (0.0, 0.0, INF, 7.0),
                                   (INF, INF, 0.0, 4.0),
                                   (INF, -INF, -3.0, 1.5)):
        for e in ((s, e_other), (e_other, s)):
            for f in ((t, f_other), (f_other, t)):
                assert geodesic_cosh_distance(e, f) == 1.0
                assert geodesic_cosh_distance(f, e) == 1.0
                assert geodesic_distance(e, f) == 0.0


def test_intersecting_distance_rejected():
    for e, f in (((0.0, INF), (-1.0, 1.0)), ((-1.0, 1.0), (0.0, 5.0)),
                 ((INF, 2.0), (3.0, 1.0))):
        for g, h in ((e, f), (f, e), (e[::-1], f)):
            with pytest.raises(ValueError, match="geodesics intersect"):
                geodesic_cosh_distance(g, h)


@pytest.mark.parametrize("e", [(1.0, 1.0), (INF, INF), (INF, -INF)])
def test_equal_ends_rejected(e):
    for g, h in ((e, (2.0, 3.0)), ((2.0, 3.0), e)):
        with pytest.raises(ValueError,
                           match="geodesic endpoints must be distinct"):
            geodesic_cosh_distance(g, h)
