import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearfield.farey import (ExtRational, INFINITY, ONE, ZERO,
                              enumerate_vertices, fan_edge, farey_order,
                              oriented_edge)
from shearfield.fields import (DELTA_GAP, FieldExpr, ShearFunction,
                               _cannot_beat, assemble_field, averaged_coefficient_sum,
                               elementary_eval, fan_field_eval,
                               fan_shears_at_tip, halved_terms, normalize_at,
                               tail_bound, tip_sort_key,
                               zygmund_condition_sup, zygmund_quotient_sup)
from shearfield.hilbert import edge_quadrilateral, shear_recover
from test_halved_terms import tip_field

INF = math.inf
RNG = np.random.default_rng(7)


def test_elementary_eval_examples():
    assert elementary_eval((0.0, INF), 2.0) == 2.0
    assert elementary_eval((0.0, INF), -1.0) == 0.0
    assert elementary_eval((0.0, 1.0), 0.5) == pytest.approx(0.25)
    assert elementary_eval((0.0, 1.0), 0.0) == 0.0
    assert elementary_eval((0.0, 1.0), 1.0) == 0.0
    assert elementary_eval((INF, 0.0), -2.0) == 2.0
    assert elementary_eval((INF, 0.0), 1.0) == 0.0


def test_fan_field_examples():
    assert fan_field_eval({1: 1.0}, 2.5) == pytest.approx(1.5)
    assert fan_field_eval({1: 1.0}, 0.5) == 0.0
    for x in np.linspace(0, 1, 7):
        assert fan_field_eval({0: 2.0, 1: -3.0, -2: 1.0}, x) == 0.0
    assert fan_field_eval({0: 1.0}, -2.0) == pytest.approx(2.0)


def fan_field_eval_reference(shears, x):
    """fan_field_eval written out case by case: index n >= 1 adds
    s (x - n) for x > n, index n <= 0 subtracts s (x - n) for x < n, and a
    zero shear is skipped."""
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


_ODD_SHEARS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, INF, -INF,
               math.nan, 1.0, -2.5, 0.1]
_ODD_X = [0, 1, -1, 3, -4, 0.0, -0.0, 0.5, 2.999999999999999, INF, -INF,
          math.nan, 1e308, -1e308, 5e-324]


def _same_bits(a, b):
    """a and b are the same double, NaN sign and payload included."""
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-12, 12),
                       st.one_of(st.sampled_from(_ODD_SHEARS),
                                 st.floats(allow_nan=True,
                                           allow_infinity=True)),
                       max_size=10),
       st.one_of(st.sampled_from(_ODD_X), st.integers(-15, 15),
                 st.floats(allow_nan=True, allow_infinity=True)))
def test_fan_field_eval_matches_reference(shears, x):
    """fan_field_eval, the left sum of s times elementary_eval over the
    fan's rays, equals the case-by-case loop bit for bit, on signed zeros,
    subnormal, huge and infinite shears, NaN, and integer, infinite and NaN
    x.  (For indices beyond 2^53, x - n can round to 0 at x > n; there an
    infinite shear gives NaN in the loop and a skipped zero term here.)"""
    assert _same_bits(fan_field_eval(shears, x),
                      fan_field_eval_reference(shears, x))


def test_fan_field_piecewise_branches():
    s = {n: float(v) for n, v in zip(range(-3, 4), [0.3, -1, 2, 0.5, 1, -2, 1])}
    # x in (n, n+1]: sum over 1..n of s(k)(x-k)
    x = 2.7
    assert fan_field_eval(s, x) == pytest.approx(
        s[1] * (x - 1) + s[2] * (x - 2))
    x = -2.4   # in [-3, -2): -(s(0) x + s(-1)(x+1) + s(-2)(x+2))
    assert fan_field_eval(s, x) == pytest.approx(
        -(s[0] * x + s[-1] * (x + 1) + s[-2] * (x + 2)))


def test_fan_field_continuity_at_breakpoints():
    s = {n: float(RNG.uniform(-2, 2)) for n in range(-6, 7)}
    for n in range(-5, 6):
        left = fan_field_eval(s, n - 1e-12)
        right = fan_field_eval(s, n + 1e-12)
        assert abs(left - right) < 1e-11
        assert abs(fan_field_eval(s, float(n)) - left) < 1e-11


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50),
                min_size=9, max_size=9),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_condition_is_second_difference_of_fan_field(vals, m, k):
    """k times the averaged-coefficient sum equals the symmetric second
    difference of the induced fan field at integer points."""
    s = {n: v / 7.0 for n, v in zip(range(-4, 5), vals)}
    expr = averaged_coefficient_sum(s, m, k)
    second = (fan_field_eval(s, float(m + k)) + fan_field_eval(s, float(m - k))
              - 2.0 * fan_field_eval(s, float(m)))
    assert abs(k * expr - second) < 1e-9


def test_tip_field_at_infinity_matches_fan_field():
    sdot = ShearFunction()
    shears = {}
    for n in range(-3, 4):
        v = float(RNG.uniform(-1, 1))
        sdot.set(oriented_edge(ExtRational(n), INFINITY), v)
        shears[n] = 0.5 * v
    F = tip_field(INFINITY, sdot, 10)
    for x in np.linspace(-4.7, 4.7, 37):
        assert F(x) == pytest.approx(fan_field_eval(shears, x), abs=1e-13)


def test_tip_field_support_and_normalization():
    sdot = ShearFunction()
    p = ExtRational(2, 5)      # order >= 3 tip
    assert p not in (ZERO, ONE, INFINITY)
    for n in range(-2, 3):
        from shearfield.farey import fan_edge
        sdot.set(fan_edge(p, n), float(RNG.uniform(-1, 1)))
    F = tip_field(p, sdot, 5)
    pts = F.breakpoints
    lo, hi = min(pts), max(pts)
    for x in [lo - 0.5, lo - 2.0, hi + 0.5, hi + 2.0]:
        assert F(x) == 0.0
    assert F(0.0) == 0.0 and F(1.0) == 0.0


def test_sum_field_zero_shears():
    sdot = ShearFunction()
    for x in np.linspace(-3, 3, 13):
        assert assemble_field(halved_terms(sdot, 5, 10))(x) == 0.0


def test_tip_order_matches_fraction_key():
    """Tips sort by (Farey order, circular position from 0) exactly as the
    key of two Fractions per tip did, on every vertex of order <= 8, their
    negatives, and deep tips that share an order and lie about 1.5e-18
    apart, the last pair near 1 so that their floats are equal."""
    from fractions import Fraction

    def fraction_key(p):
        if p.is_infinity:
            pos = (1, Fraction(0))
        elif p.num >= 0:
            pos = (0, Fraction(p.num, p.den))
        else:
            pos = (2, Fraction(p.num, p.den))
        return (farey_order(p), pos)

    N = 10 ** 9
    deep = [ExtRational(1, N), ExtRational(1, N + 1), ExtRational(N),
            ExtRational(N + 1), ExtRational(N + 1, N),
            ExtRational(2, 2 * N - 3), ExtRational(2, 2 * N - 1),
            ExtRational(2 * N - 3, 2 * N - 1),
            ExtRational(3 * N - 8, 3 * N - 5)]
    tips = enumerate_vertices(8)
    mirrored = [ExtRational(-p.num, p.den) for p in tips + deep]
    tips = list(dict.fromkeys(tips + mirrored + deep))
    random.Random(11).shuffle(tips)
    assert (sorted(tips, key=lambda p: tip_sort_key(p, farey_order(p)))
            == sorted(tips, key=fraction_key))
    assert farey_order(deep[0]) == farey_order(deep[5]) == N + 1
    assert farey_order(deep[7]) == farey_order(deep[8]) == N + 2
    assert float(deep[7]) == float(deep[8])


def test_round_trip_recovery_exact_at_modest_truncation():
    sdot = ShearFunction()
    pool = [oriented_edge(ZERO, INFINITY),
            oriented_edge(ZERO, ONE),
            oriented_edge(ExtRational(1, 2), ONE),
            oriented_edge(ExtRational(-1), ZERO),
            oriented_edge(ExtRational(2), ExtRational(3))]
    vals = RNG.uniform(-2, 2, len(pool))
    for e, v in zip(pool, vals):
        sdot.set(e, float(v))
    V = assemble_field(halved_terms(sdot, 6, 40))
    for e, v in zip(pool, vals):
        got = shear_recover(V, edge_quadrilateral(e))
        assert got == pytest.approx(float(v), abs=1e-9)


def test_tail_bound_examples():
    assert DELTA_GAP == pytest.approx(2 * math.log(1 + math.sqrt(2)))
    assert DELTA_GAP == pytest.approx(1.76275, abs=1e-5)
    for n in range(1, 12):
        assert 1.3 * tail_bound(n + 1) < 1.3 * tail_bound(n)
    # closed form vs direct summation
    q = math.exp(-DELTA_GAP / 2)
    for n in (1, 2, 5, 9):
        brute = sum(i * q ** (i - 2) for i in range(n, 10 ** 6))
        assert tail_bound(n) == pytest.approx(brute, abs=1e-12)


def test_zygmund_condition_sup_zero():
    report = zygmund_condition_sup(ShearFunction(), [INFINITY], 10)
    assert report.sup_value == 0.0


def test_zygmund_condition_sup_constant_fan():
    c, K = 0.75, 12
    sdot = ShearFunction()
    for n in range(-2 * K, 2 * K + 1):
        sdot.set(oriented_edge(ExtRational(n), INFINITY), c)
    report = zygmund_condition_sup(sdot, [INFINITY], K)
    assert report.sup_value == pytest.approx(c * K, abs=1e-12)
    tip, m, k = report.witness
    assert k == K
    # witness reproduces the sup
    shears = fan_shears_at_tip(sdot, tip)
    assert abs(averaged_coefficient_sum(shears, m, k)) == pytest.approx(
        report.sup_value)


def test_zygmund_condition_sup_alternating_fan():
    K = 15
    sdot = ShearFunction()
    for n in range(-3 * K, 3 * K + 1):
        sdot.set(oriented_edge(ExtRational(n), INFINITY), float((-1) ** n))
    report = zygmund_condition_sup(sdot, [INFINITY], K)
    assert report.sup_value <= 2.0 + 1e-12


@settings(max_examples=60, deadline=None)
@example(INFINITY, {0: 5e-324, 1: 5e-324}, 2)
@example(INFINITY, {0: 5e-324, 1: 5e-324}, 3)
@given(st.sampled_from([INFINITY, ZERO, ONE, ExtRational(-2, 3)]),
       st.dictionaries(st.integers(min_value=-8, max_value=8),
                       st.floats(min_value=-5.0, max_value=5.0),
                       min_size=1, max_size=10),
       st.integers(min_value=1, max_value=8))
def test_zygmund_condition_sup_matches_brute_force(tip, fan, K):
    """The running-sum scan equals the max of averaged_coefficient_sum."""
    sdot = ShearFunction()
    for n, v in fan.items():
        sdot.set(fan_edge(tip, n), v)
    shears = fan_shears_at_tip(sdot, tip)
    brute = max(abs(averaged_coefficient_sum(shears, m, k))
                for m in range(min(fan) - K, max(fan) + K + 1)
                for k in range(1, K + 1))
    report = zygmund_condition_sup(sdot, [tip], K)
    assert report.sup_value == pytest.approx(brute, rel=1e-12, abs=0.0)
    if brute == 0.0:
        assert report.witness is None
        return
    # ties may pick another (m, k): check the witness by the value it gives
    w_tip, m, k = report.witness
    assert w_tip == tip
    assert abs(averaged_coefficient_sum(shears, m, k)) == pytest.approx(
        report.sup_value, rel=1e-12, abs=0.0)


def _full_span_scan(shears, tip, K, best=0.0, best_w=None):
    """The scan over every m from min - K to max + K of a fan's indices,
    kept as the reference for the windowed scan; it starts from the
    running (best, best_w) of the fans scanned before."""
    get = lambda i: shears.get(i, 0.0)
    for m in range(min(shears) - K, max(shears) + K + 1):
        box = total = get(m)
        for k in range(1, K + 1):
            if k > 1:
                box += get(m + k - 1) + get(m - k + 1)
                total += box
            if abs(total / k) > best:
                best, best_w = abs(total / k), (tip, m, k)
    return best, best_w


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([INFINITY, ZERO, ExtRational(-2, 3)]),
       st.dictionaries(st.integers(min_value=-300, max_value=300),
                       st.floats(min_value=-5.0, max_value=5.0),
                       min_size=1, max_size=8),
       st.integers(min_value=0, max_value=8))
def test_zygmund_scan_skips_only_zero_windows(tip, fan, K):
    """Visiting only the m within K - 1 of a support index gives the same
    sup and the same first-found witness as the full index span."""
    sdot = ShearFunction()
    for n, v in fan.items():
        sdot.set(fan_edge(tip, n), v)
    shears = fan_shears_at_tip(sdot, tip)
    report = zygmund_condition_sup(sdot, [tip], K)
    want = _full_span_scan(shears, tip, K) if shears else (0.0, None)
    assert (report.sup_value, report.witness) == want


_BIG = 1e308
_TINY = 5e-324


def _multi_tip_sup(sdot, tips, K):
    """_full_span_scan chained over the tips in order, one running best."""
    best, best_w = 0.0, None
    for tip in tips:
        shears = fan_shears_at_tip(sdot, tip)
        if shears:
            best, best_w = _full_span_scan(shears, tip, K, best, best_w)
    return best, best_w


_TIPS = [INFINITY, ZERO, ONE, ExtRational(-1), ExtRational(1, 2),
         ExtRational(-2, 3), ExtRational(3, 5)]


@settings(max_examples=20, deadline=None)
# the skip firing: the fan at 1/2 holds only the edge {1/2, 1/3}, far
# below the sup 4 that the fan at oo reached first
@example([(INFINITY, 0, 4.0), (ExtRational(1, 2), 2, 0.25)], 3)
# a tie: the fans at 0 and at 1/2 both reach 2.0; 0 is scanned first
@example([(ZERO, 5, 2.0), (ExtRational(1, 2), -3, -2.0)], 2)
# all-zero fans: their edges leave the support, their tips stay listed
@example([(ZERO, 1, 0.0), (ONE, 4, 0.0), (INFINITY, 3, -0.5)], 20)
@example([(ZERO, 1, 0.0), (ONE, 4, 0.0)], 1)
# subnormal shears, where every sum and quotient is exact or rounds once
@example([(INFINITY, 0, _TINY), (INFINITY, 1, _TINY), (ZERO, 2, -_TINY),
          (ExtRational(-2, 3), 1, _TINY)], 3)
# magnitudes at the top of the float range: running sums overflow
@example([(INFINITY, 0, _BIG), (INFINITY, 1, -_BIG), (ONE, 3, 0.5)], 2)
@example([(ExtRational(3, 5), 0, -_BIG), (ZERO, 2, 1.0)], 200)
@example([(ZERO, 0, 1.0), (ExtRational(-2, 3), 7, _BIG)], 1)
@given(st.lists(st.tuples(st.sampled_from(_TIPS),
                          st.integers(min_value=-6, max_value=6),
                          st.one_of(st.floats(min_value=-5.0, max_value=5.0),
                                    st.sampled_from([0.0, _TINY, -_TINY,
                                                     _BIG, -_BIG]))),
                min_size=1, max_size=6),
       st.sampled_from([1, 2, 3, 20, 200]))
def test_zygmund_skip_matches_multi_tip_reference(entries, K):
    """Over many tips, skipping the fans whose mass cannot beat the running
    sup leaves the sup and the first-found witness bit for bit those of
    the full scan chained over the same tips in the same order.  The tips
    listed first may have empty fans; every support tip follows."""
    sdot = ShearFunction()
    for tip, n, v in entries:
        sdot.set(fan_edge(tip, n), v)
    tips = list(dict.fromkeys([t for t, _, _ in entries]
                              + sdot.support_tips()))
    report = zygmund_condition_sup(sdot, tips, K)
    best, best_w = _multi_tip_sup(sdot, tips, K)
    assert (report.sup_value.hex(), report.witness) == (best.hex(), best_w)


def test_zygmund_skip_fires_and_keeps_ties():
    """The fan at 1/2 (mass 0.25) cannot beat the sup 4.0 of the edge
    {0, oo}, and is skipped; a later fan that only ties the sup keeps the
    earlier witness."""
    half = ExtRational(1, 2)
    sdot = ShearFunction([(fan_edge(INFINITY, 0), 4.0),
                          (fan_edge(half, 2), 0.25)])
    assert _cannot_beat(fan_shears_at_tip(sdot, half), 3, 4.0)
    assert not _cannot_beat(fan_shears_at_tip(sdot, half), 3, 0.25)
    sdot.set(fan_edge(half, 2), -4.0)
    report = zygmund_condition_sup(sdot, sdot.support_tips(), 3)
    assert report.sup_value == 4.0
    assert report.witness[0] == ZERO        # scanned before oo and 1/2


@pytest.mark.parametrize("mass, K, best, skip", [
    (1.0, 1, 2.0, True),
    (1.0, 1, 1.0, False),                   # M times the factor > best
    (1e306, 1, 2e306, True),                # 2K M = 2e306, finite
    (1e306, 200, 2e306, False),             # 2K M = 4e308 overflows
    (1e308, 1, math.inf, False),            # 2K M = 2e308 overflows
    (_TINY, 200, 2 * _TINY, True),
    (math.inf, 1, math.inf, False),
])
def test_zygmund_skip_needs_finite_running_sums(mass, K, best, skip):
    """The mass test never fires when 2K M is not finite, however far M
    lies below the running sup."""
    assert _cannot_beat({0: mass}, K, best) is skip


def test_zygmund_scan_cost_is_independent_of_index_span():
    """A fan with indices 1 and 10^9 at K = 20: the scan reads one window
    of 4K - 3 shears per support index, never the 10^9 indices between,
    and gives the brute-force max of averaged_coefficient_sum.  Every m
    farther than K - 1 from both indices has a zero sum, so the brute force
    runs over the two windows.  The shears are dyadic and never meet in
    one window, so both routes round once and agree exactly."""
    import time
    K, far = 20, 10 ** 9
    sdot = ShearFunction()
    sdot.set(fan_edge(INFINITY, 1), 0.75)
    sdot.set(fan_edge(INFINITY, far), -1.25)
    start = time.perf_counter()
    report = zygmund_condition_sup(sdot, [INFINITY], K)
    assert time.perf_counter() - start < 0.5
    shears = fan_shears_at_tip(sdot, INFINITY)
    assert shears == {1: 0.75, far: -1.25}
    brute = max(abs(averaged_coefficient_sum(shears, m, k))
                for i in shears for m in range(i - K + 1, i + K)
                for k in range(1, K + 1))
    assert report.sup_value == brute > 0.0
    tip, m, k = report.witness
    assert tip == INFINITY
    assert abs(averaged_coefficient_sum(shears, m, k)) == brute


def test_zygmund_quotient_examples():
    xs = np.linspace(-2, 2, 41)
    ts = np.geomspace(1e-4, 1.0, 25)
    linear = lambda x: 3.0 * x - 1.0
    assert zygmund_quotient_sup(linear, xs, ts).sup_value < 1e-10
    report = zygmund_quotient_sup(abs, [0.0], ts)
    assert report.sup_value == pytest.approx(2.0)
    xlogx = lambda x: x * math.log(abs(x)) if x else 0.0
    report = zygmund_quotient_sup(xlogx, xs, ts)
    assert report.sup_value < 3.0
    x, t = report.witness
    assert abs(xlogx(x + t) + xlogx(x - t) - 2 * xlogx(x)) / t == \
        pytest.approx(report.sup_value)


def _averaged_sums(shears, ms, K):
    """averaged_coefficient_sum(shears, m, k) for m in ms (rows) and
    1 <= k < K (columns), from prefix sums: k A(m, k) is the sum over i < k
    of the box sums s(m - i) + ... + s(m + i)."""
    lo = min(ms) - K
    s = np.zeros(max(ms) + K + 1 - lo)
    for n, v in shears.items():
        s[n - lo] = v
    P = np.concatenate(([0.0], np.cumsum(s)))
    m = np.asarray(ms)[:, None] - lo
    i = np.arange(K - 1)[None, :]
    return np.cumsum(P[m + i + 1] - P[m - i], axis=1) / np.arange(1, K)


def _spot_checked_C(shears, ms, K):
    """max |A(m, k)| over the scan, with the maximizer and three corners
    checked against averaged_coefficient_sum."""
    A = np.abs(_averaged_sums(shears, ms, K))
    top = np.unravel_index(np.argmax(A), A.shape)
    for r, c in (top, (0, 0), (len(ms) // 2, 6), (len(ms) - 1, K - 2)):
        want = abs(averaged_coefficient_sum(shears, ms[r], c + 1))
        assert abs(A[r, c] - want) <= 1e-12
    return A[top]


def test_fan_field_zygmund_bound():
    """Sampled quotient of a fan field never exceeds 2C + 18 sup|s|."""
    for _ in range(8):
        width = int(RNG.integers(2, 7))
        sdot = ShearFunction()
        for n in range(-width, width + 1):
            sdot.set(oriented_edge(ExtRational(n), INFINITY),
                     float(RNG.uniform(-1.5, 1.5)))
        shears = fan_shears_at_tip(sdot, INFINITY)
        C = _spot_checked_C(shears, range(-width - 25, width + 26), 120)
        V = FieldExpr((2.0 * c, ends) for c, ends     # the unhalved fan
                      in tip_field(INFINITY, sdot, width + 1).terms)
        xs = np.linspace(-width - 3, width + 3, 120)
        ts = np.geomspace(1e-3, 3.0, 40)
        sup = zygmund_quotient_sup(V, xs, ts).sup_value
        top = max(abs(v) for v in shears.values())
        assert sup <= 2 * C + 18 * top + 1e-9


def test_normalize_at_examples():
    V = FieldExpr([(1.0, (2.0, 3.0))])
    W = normalize_at(V, 0.0, 1.0, math.inf)
    for x in np.linspace(-1, 4, 21):
        assert W(x) == pytest.approx(V(x), abs=1e-15)   # already normalized

    sq = FieldExpr([], quad=(1.0, 0.0, 0.0))
    Z = normalize_at(sq, 0.0, 1.0, 2.0)
    for x in np.linspace(-3, 3, 25):
        assert Z(x) == pytest.approx(0.0, abs=1e-14)

    ray = FieldExpr([(1.0, (0.0, INF))])
    W = normalize_at(ray, 0.0, 1.0, math.inf)
    for x in np.linspace(-2, 2, 17):
        assert W(x) == pytest.approx(ray(x) - x, abs=1e-14)


def test_normalize_at_rejects_repeats():
    V = FieldExpr([(1.0, (0.0, INF))])
    with pytest.raises(ValueError):
        normalize_at(V, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        normalize_at(V, math.inf, 0.0, math.inf)


def test_tail_rate_is_not_uniform_over_shallow_nested_edges():
    """The geometric order-tail describes bounded-geometry nesting; a unit
    shear on the single deep edge {2, 2 + 1/k} (whose width decays only
    like 1/k while its Farey order grows linearly) escapes any fixed
    geometric constant.  This documents the caveat: truncation-by-order
    reports carry the bound for bounded-type data, not adversarial support.
    """
    k = 6
    deep = oriented_edge(ExtRational(2), ExtRational(2 * k + 1, k))
    order = max(farey_order(deep.initial), farey_order(deep.terminal))
    assert order == k + 3
    sdot = ShearFunction()
    sdot.set(deep, 1.0)
    mid = 2.0 + 0.5 / k
    full = assemble_field(halved_terms(sdot, order, 50))
    # truncating just below the deep tip's order leaves the entire half-bump
    part = assemble_field(halved_terms(sdot, order - 1, 50))
    missing = abs(full(mid) - part(mid))
    assert missing > 0.5 / (8 * k)          # half a bump of width 1/k
    # ... which is far above the geometric tail at that order with the
    # constant any low-order fit would produce (unit-scale shears)
    assert missing > 0.05 * tail_bound(order - 1)


def test_degenerate_window_gives_zero_field():
    sdot = ShearFunction()
    sdot.set(oriented_edge(ExtRational(2), ExtRational(3)), 1.0)
    sdot.set(oriented_edge(ExtRational(2), INFINITY), -1.0)
    for F in (tip_field(ExtRational(2), sdot, 0),
              tip_field(INFINITY, sdot, 0)):
        assert F.terms == []
        for x in np.linspace(0, 5, 11):
            assert F(x) == 0.0


def _field_by_definition(F, x):
    """F(x) summed term by term from elementary_eval, with the absolute
    size of the summands (the terms and the quadratic part)."""
    a2, a1, a0 = F.quad
    parts = [a2 * x * x, a1 * x, a0]
    parts += [c * elementary_eval(ends, x) for c, ends in F.terms]
    return math.fsum(parts), sum(abs(p) for p in parts)


def _assert_matches_definition(F, xs):
    """Relative to the summands' size; 1e-300 absorbs subnormal underflow
    next to a breakpoint at 0."""
    for x in xs:
        want, size = _field_by_definition(F, x)
        assert abs(F(x) - want) <= 1e-13 * size + 1e-300, x


def _mixed_terms(rng, n_terms, shared_ends=False):
    """Rays, intervals and the nested {0, 1/n}, {1/n, 1/(n+1)} intervals of
    deep Farey tips, with standard normal coefficients.  With shared_ends
    the rays and intervals end on a few small Farey points, so that every
    term active on a panel may vanish at the same panel end."""
    terms = []
    for _ in range(n_terms):
        c, kind = rng.normal(), rng.integers(5)
        if shared_ends:
            u, v = rng.choice([-2.0, -1.0, 0.0, 1 / 3, 0.5, 1.0, 3.0], size=2,
                              replace=False)
        else:
            u, v = rng.uniform(-6.0, 6.0, size=2)
        n = int(rng.integers(1, 10_000))
        ends = [(u, INF), (INF, u), (u, v), (0.0, 1.0 / n),
                (1.0 / n, 1.0 / (n + 1))][kind]
        terms.append((c, (float(ends[0]), float(ends[1]))))
    return terms


def test_field_table_matches_definition():
    """The panel table agrees with the term-by-term sum at random points,
    at every breakpoint and its two float neighbours, and far out."""
    rng = np.random.default_rng(2024)
    for trial in range(60):
        quad = tuple(rng.normal(size=3)) if trial % 2 else (0.0, 0.0, 0.0)
        if trial % 3:
            terms = _mixed_terms(rng, int(rng.integers(1, 80)))
        else:
            terms = _mixed_terms(rng, int(rng.integers(1, 5)), True)
        F = FieldExpr(terms, quad)
        xs = list(rng.uniform(-8.0, 8.0, size=20))
        xs += list(rng.uniform(0.0, 1e-3, size=10)) + [1e12, -1e12]
        for p in F.breakpoints:
            xs += [p, math.nextafter(p, -INF), math.nextafter(p, INF)]
        _assert_matches_definition(F, xs)


def test_field_derived_after_first_call_get_fresh_tables():
    rng = np.random.default_rng(5)
    F = FieldExpr(_mixed_terms(rng, 30))
    G = FieldExpr(_mixed_terms(rng, 10), quad=(0.5, -1.0, 2.0))
    xs = list(rng.uniform(-6.0, 6.0, size=25)) + F.breakpoints
    _assert_matches_definition(F, xs)
    _assert_matches_definition(G, xs)
    for derived in (F.plus_quad((1.5, -0.25, 3.0)),
                    G.plus_quad((-0.5, 1.0, -2.0)),
                    normalize_at(F, 0.0, 1.0, 2.0)):
        _assert_matches_definition(derived, xs + derived.breakpoints)
    _assert_matches_definition(F, xs)


def test_field_table_build_is_not_quadratic_in_size():
    """19,999 terms and as many panels: a build that summed every term for
    every panel would take minutes."""
    import time
    terms = [(1.0, (float(n), INF)) for n in range(1, 10_001)]
    terms += [(1.0, (0.0, 1.0 / n)) for n in range(2, 10_001)]
    F = FieldExpr(terms)
    start = time.perf_counter()
    _assert_matches_definition(F, [-1.0, 1e-5, 3e-4, 0.3, 2.5, 777.7, 1e4])
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("ends", [(INF, INF), (-INF, 1.0), (math.nan, 2.0),
                                  (1.0, 1.0)])
def test_field_rejects_ends_naming_no_field(ends):
    """Equal ends, NaN and -inf name no elementary field: the constructor
    and the definition elementary_eval refuse them and name the pair,
    instead of returning nan or a silent 0.0."""
    with pytest.raises(ValueError, match="name no elementary field") as err:
        FieldExpr([(1.0, ends)])
    assert repr(ends) in str(err.value)
    for x in (0.5, 1.5):
        with pytest.raises(ValueError,
                           match="name no elementary field") as err:
            elementary_eval(ends, x)
        assert repr(ends) in str(err.value)

