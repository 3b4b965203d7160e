"""The in-package Gauss-Kronrod rule, and the list evaluator it feeds on.

scipy.integrate.quad (QUADPACK's qagse) is the reference here only."""

import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from scipy.integrate import quad as scipy_quad

from shearfield.farey import ExtRational, enumerate_edges, oriented_edge
from shearfield.fields import (FieldExpr, ShearFunction, assemble_field,
                               halved_terms)
from shearfield.quadrature import _qk21, quad

INF = math.inf


def batched(g):
    return lambda xs: [g(x) for x in xs]


def test_one_rule_integrates_monomials_exactly():
    """21 Kronrod nodes integrate polynomials of degree <= 31 exactly; on
    [a, b] = [-0.75, 2.25] the rule lands within a few ulp of the exact
    integral of (t - c)^k, c the midpoint, and of t^k itself."""
    a, b = -0.75, 2.25
    c = 0.5 * (a + b)
    for k in range(32):
        for shift in (c, 0.0):
            exact = (Fraction(b - shift) ** (k + 1)
                     - Fraction(a - shift) ** (k + 1)) / (k + 1)
            value, _, _ = _qk21(batched(lambda t: (t - shift) ** k), a, b)
            scale = float(sum(abs(Fraction(p - shift)) ** k
                              for p in (a, b))) * (b - a)
            assert abs(value - float(exact)) <= 8 * math.ulp(scale), (k, shift)


def test_log_endpoint_singularity_converges_by_bisection():
    n = [0]

    def f(ts):
        n[0] += 1
        return [math.log(t) for t in ts]

    value, err = quad(f, 0.0, 1.0, 1e-11, limit=200)
    assert abs(value + 1.0) < 1e-11
    assert err < 1e-11
    assert 2 < n[0] < 2 * 200


def test_complex_integrand():
    """One complex integrand: (1/2pi) Integral_0^{2pi} e^{3 i phi}
    e^{-i n phi} d phi is 1 at n = 3 and 0 elsewhere, and a complex cubic
    integrates exactly."""
    for n in (0, 3, 7):
        value, err = quad(batched(lambda p: complex(math.cos((3 - n) * p),
                                                    math.sin((3 - n) * p))),
                          0.0, 2 * math.pi, 1e-13, limit=300)
        assert isinstance(value, complex)
        assert abs(value / (2 * math.pi) - (1.0 if n == 3 else 0.0)) < 1e-13
    value, _ = quad(batched(lambda t: (1 + 2j) * t ** 3 - 1j), 0.0, 2.0,
                    1e-13, limit=50)
    assert abs(value - (4 + 6j)) < 1e-14


def test_nan_integrand_stops_at_limit():
    calls = [0]

    def f(ts):
        calls[0] += 1
        return [math.nan if 0.3 < t < 0.4 else t for t in ts]

    value, err = quad(f, 0.0, 1.0, 1e-12, limit=50)
    assert not math.isfinite(value)
    assert not err <= 1e-12
    assert calls[0] <= 2 * 50 - 1     # one rule, then two per bisection


def seeded_field(edges, stream, max_order):
    """The field of a benchmark workload's shear file: nonzero normal
    shears drawn from random.Random(stream), summed with window 20."""
    rng = random.Random(stream)
    sdot = ShearFunction()
    for edge in edges:
        value = 0.0
        while value == 0.0:
            value = rng.gauss(0.0, 1.0)
        sdot.set(edge, value)
    return assemble_field(halved_terms(sdot, max_order, 20))


def bench_grid_field():
    """The 60-edge field of the grid and oracle workloads (seed 0): the
    first 60 edges of the order-6 tessellation, max order 6."""
    return seeded_field(enumerate_edges(6)[:60], "grid:0", 6)


def deep_field():
    """The deep workload's field (seed 0): edges {0, 1/n} and
    {1/n, 1/(n+1)}, n = 1000, 2000, 4000, 8000, every tip kept."""
    edges = [oriented_edge(ExtRational(*p), ExtRational(*q))
             for n in (1000, 2000, 4000, 8000)
             for p, q in (((0, 1), (1, n)), ((1, n), (1, n + 1)))]
    return seeded_field(edges, "deep:0", 10_000)


def test_oracle_integrand_matches_scipy_quad():
    """The principal-value oracle's integrands over the pieces it
    integrates, against QUADPACK's qagse: the kernel's poles subtracted,
    sum of w_a (V(xi) - V(a))/(xi - a) over (w_a, a) = (x - 1, 0), (-x, 1),
    (1, x), between breakpoints and up to the pole at x; and kernel(x, xi)
    V(xi) over the mapped tail."""
    V = bench_grid_field()
    x = 0.1
    num = x * (x - 1.0)
    poles = [(x - 1.0, 0.0), (-x, 1.0), (1.0, x)]

    def subtracted(xi):
        return sum(w * (V(xi) - V(a)) / (xi - a) for w, a in poles
                   if xi != a)

    def kernel_field(xi):
        return num / (xi * (xi - 1.0) * (xi - x)) * V(xi)

    def tails(u):
        return (kernel_field(1.0 / u) + kernel_field(-1.0 / u)) / u ** 2

    pieces = [(subtracted, x, 0.2), (subtracted, 1.0, 4.0 / 3.0),
              (subtracted, -5.0, -3.0), (subtracted, -1e3, -5.0),
              (tails, 0.0, 1e-3)]
    for g, a, b in pieces:
        want, _ = scipy_quad(g, a, b, limit=200, epsabs=1e-11, epsrel=1e-11)
        got, _ = quad(batched(g), a, b, 1e-11, limit=200)
        assert abs(got - want) <= 1e-13 * abs(want), (a, b)


def table_lookup(V, x):
    """The scalar panel-table step, as FieldExpr.__call__ made it before
    values() existed: one bisection and one Horner step."""
    cuts, rows = V._table
    m, c2, c1, c0 = rows[bisect_right(cuts, x)]
    t = x - m
    return (c2 * t + c1) * t + c0


@pytest.mark.parametrize("field", [bench_grid_field, deep_field],
                         ids=["grid", "deep"])
def test_field_values_is_call_bit_for_bit(field):
    """values(xs) is [V(x) for x in xs] and the scalar table lookup by
    .hex(): on breakpoints, on panel midpoints, next to both, and beyond
    the outermost breakpoints."""
    V = field()
    brk = V.breakpoints
    xs = [brk[0] - 1.0, brk[-1] + 1.0, -1e9, 1e9]
    for p, q in zip(brk, brk[1:]):
        m = 0.5 * p + 0.5 * q
        xs += [p, math.nextafter(p, INF), m, math.nextafter(m, -INF), q]
    got = [v.hex() for v in V.values(xs)]
    assert got == [V(x).hex() for x in xs]
    assert got == [table_lookup(V, x).hex() for x in xs]
    assert FieldExpr().values([0.5, -2.0]) == [0.0, 0.0]
