"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; every tolerance is pinned here and nowhere else.
"""

import cmath
import json
import math
import time

import numpy as np

from shearfield.farey import (INFINITY, ONE, ZERO, ExtRational,
                              enumerate_edges, enumerate_vertices, fan_index,
                              farey_order, oriented_edge)
from shearfield.fields import (FieldExpr, ShearFunction, assemble_field,
                               averaged_coefficient_sum, edge_ends,
                               fan_field_eval, halved_terms, tail_bound,
                               zygmund_condition_sup, zygmund_quotient_sup)
from shearfield.fourier import (CircleArc, assemble_circle_field,
                                cayley_angle, circle_elementary_eval,
                                edge_to_arc, elementary_fourier,
                                field_fourier, fourier_quadrature_oracle)
from shearfield.hilbert import (Quadrilateral, closed_hilbert_field,
                                delta_weight, delta_weight_hyperbolic,
                                edge_quadrilateral, elementary_hilbert,
                                hilbert_pv_oracle, shear_recover)
from shearfield.quadrature import quad
from shearfield.torus import wp_gram
from shearfield.cli import run as cli_run

INF = float("inf")
RNG = np.random.default_rng(424242)


def _real_moebius(m):
    """x -> (m0 x + m1)/(m2 x + m3) on the extended reals, oo as inf."""
    a, b, c, d = m

    def M(x):
        if math.isinf(x):
            return a / c if c != 0 else INF
        den = c * x + d
        return INF if den == 0 else (a * x + b) / den
    return M


def report(num, name, detail):
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. closed forms vs principal-value oracle
# ---------------------------------------------------------------------------

def _sample_points(avoid, n=20, lo=-8.0, hi=8.0, margin=0.05):
    pts = []
    while len(pts) < n:
        x = float(RNG.uniform(lo, hi))
        if all(abs(x - a) > margin for a in avoid):
            pts.append(x)
    return pts


def test_criterion_1_closed_vs_oracle():
    t0 = time.time()
    cases = [(0.0, INF)]                                    # x log|x| / pi
    cases += [(float(RNG.uniform(0.05, 5.0)), INF) for _ in range(20)]
    cases += [(INF, float(RNG.uniform(-5.0, -0.05))) for _ in range(20)]
    for _ in range(20):
        a, b = np.sort(RNG.uniform(-5.0, 5.0, 2))
        while b - a < 0.1:
            a, b = np.sort(RNG.uniform(-5.0, 5.0, 2))
        cases.append((float(a), float(b)))
    worst = 0.0
    n_evals = 0
    for ends in cases:
        V = FieldExpr([(1.0, ends)])
        avoid = [0.0, 1.0] + [p for p in ends if p != INF]
        for x in _sample_points(avoid, n=20):
            got = hilbert_pv_oracle(V, x)
            want = elementary_hilbert(ends, x)
            worst = max(worst, abs(got - want))
            n_evals += 1
            assert abs(got - want) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, "closed vs oracle", f"{n_evals} comparisons, max err "
                                  f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. round-trip shear recovery
# ---------------------------------------------------------------------------

def test_criterion_2_round_trip_recovery():
    pool = enumerate_edges(5)
    max_idx = 0
    for e in pool:
        for tip, other in ((e.initial, e.terminal), (e.terminal, e.initial)):
            max_idx = max(max_idx, abs(fan_index(tip, other)))
    window = max_idx + 1
    worst = 0.0
    for _ in range(50):
        k = int(RNG.integers(1, 11))
        idx = RNG.choice(len(pool), size=k, replace=False)
        sdot = ShearFunction()
        vals = {}
        for i in idx:
            v = float(RNG.uniform(-2, 2))
            sdot.set(pool[i], v)
            vals[i] = v
        V = assemble_field(halved_terms(sdot, 5, window))
        for i in idx:
            got = shear_recover(V, edge_quadrilateral(pool[i]))
            worst = max(worst, abs(got - vals[i]))
            assert abs(got - vals[i]) < 1e-9
    report(2, "round-trip recovery", f"50 shear functions, max err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. quadratic annihilation
# ---------------------------------------------------------------------------

def test_criterion_3_quadratic_annihilation():
    quads = [tuple(RNG.uniform(-1, 1, 3)) for _ in range(100)]
    quadrilaterals = []
    while len(quadrilaterals) < 100:
        pts = np.sort(RNG.uniform(-5, 5, 4))
        if np.min(np.diff(pts)) < 0.2:
            continue
        if len(quadrilaterals) % 4 == 3:
            quadrilaterals.append(Quadrilateral(pts[0], pts[1], pts[2], INF))
        else:
            quadrilaterals.append(Quadrilateral(*pts))
    worst = 0.0
    for q3 in quads:
        V = FieldExpr([], quad=q3)
        for Q in quadrilaterals:
            got = abs(shear_recover(V, Q))
            worst = max(worst, got)
            assert got < 1e-12
    report(3, "quadratic annihilation", f"100 x 100 brackets, max "
                                        f"{worst:.2e}")


# ---------------------------------------------------------------------------
# 4. weight two-route equality and Moebius invariance
# ---------------------------------------------------------------------------

def _random_config(case):
    """Admissible (edge, Quadrilateral) pair for one weight-formula case,
    with the edge in standard position {0, oo}."""
    if case == "disjoint":
        pts = np.sort(RNG.uniform(0.1, 9.0, 4))
        while np.min(np.diff(pts)) < 0.05:
            pts = np.sort(RNG.uniform(0.1, 9.0, 4))
        variant = RNG.integers(4)
        if variant == 0:
            Q = Quadrilateral(*pts)
        elif variant == 1:
            Q = Quadrilateral(*(-pts[::-1]))
        elif variant == 2:           # edge in an adjacent-side gap
            b, c, d, a = pts
            Q = Quadrilateral(a, b, c, d)
        else:
            b, c, d, a = -pts[::-1]
            Q = Quadrilateral(a, b, c, d)
    elif case == "shared-offdiag":
        b, c, d = np.sort(RNG.uniform(0.1, 9.0, 3))
        Q = Quadrilateral(0.0, b, c, d) if RNG.integers(2) == 0 else \
            Quadrilateral(0.0, -d, -c, -b)
    elif case == "shared-diag":
        a, b, c = np.sort(RNG.uniform(0.1, 9.0, 3))
        Q = Quadrilateral(-c, -b, -a, INF) if RNG.integers(2) == 0 else \
            Quadrilateral(a, b, c, INF)
    else:                            # edge is a side of the quadrilateral
        b, c = np.sort(RNG.uniform(0.1, 9.0, 2))
        Q = Quadrilateral(0.0, b, c, INF) if RNG.integers(2) == 0 else \
            Quadrilateral(0.0, INF, -c, -b)
    return (0.0, INF), Q


def test_criterion_4_weight_two_route_and_invariance():
    worst = 0.0
    for case in ("disjoint", "shared-offdiag", "shared-diag", "side"):
        for _ in range(100):
            edge, Q = _random_config(case)
            br = delta_weight(edge, Q)
            hy = delta_weight_hyperbolic(edge, Q)
            worst = max(worst, abs(br - hy))
            assert abs(br - hy) < 1e-9
    # Moebius invariance of the weight, and two-route equality in general
    # position (the pushed edge is no longer {0, oo})
    worst_m = 0.0
    count = 0
    while count < 100:
        case = ("disjoint", "shared-offdiag", "shared-diag",
                "side")[count % 4]
        edge, Q = _random_config(case)
        m = RNG.uniform(-1.5, 1.5, 4)
        det = m[0] * m[3] - m[1] * m[2]
        if abs(det) < 0.3:
            continue
        if det < 0:
            m[0], m[1] = -m[0], -m[1]
        M = _real_moebius(m)
        pts = [M(p) for p in Q.points()]
        img_edge = (M(edge[0]), M(edge[1]))
        if any(abs(p) > 1e4 for p in pts if not math.isinf(p)):
            continue
        if sum(1 for p in pts + list(img_edge) if math.isinf(p)) > \
                sum(1 for p in list(Q.points()) + list(edge)
                    if math.isinf(p)):
            continue
        try:
            Q2 = Quadrilateral(*pts)
        except ValueError:
            continue
        v0 = delta_weight(edge, Q)
        v1 = delta_weight(img_edge, Q2)
        v2 = delta_weight_hyperbolic(img_edge, Q2)
        worst_m = max(worst_m, abs(v0 - v1), abs(v1 - v2))
        assert abs(v0 - v1) < 1e-9
        assert abs(v1 - v2) < 1e-9
        count += 1
    report(4, "weight two-route", f"400 canonical + 100 general-position "
                                  f"configs max {worst:.2e}; invariance max "
                                  f"{worst_m:.2e}")


# ---------------------------------------------------------------------------
# 5. double transform is minus the identity
# ---------------------------------------------------------------------------

def test_criterion_5_involution():
    fields = [(2.0, 3.0), (0.25, 0.6), (-1.5, -0.5), (2.5, INF), (INF, -2.0)]
    sup = 0.0
    for ends in fields:
        V = FieldExpr([(1.0, ends)])
        H1 = closed_hilbert_field(V)
        avoid = [0.0, 1.0] + [p for p in ends if p != INF]
        grid = _sample_points(avoid, n=50, lo=-2.5, hi=3.5, margin=0.07)
        h0 = hilbert_pv_oracle(H1, 0.0)
        h1 = hilbert_pv_oracle(H1, 1.0)
        slope, offset = h1 - h0, h0
        for x in grid:
            h2 = hilbert_pv_oracle(H1, x)
            err = abs((h2 - (slope * x + offset)) - (-V(x)))
            sup = max(sup, err)
    assert sup < 1e-3
    report(5, "involution", f"5 fields x 50 points, sup err {sup:.2e}")


# ---------------------------------------------------------------------------
# 6. geometric tail bound for order truncation
# ---------------------------------------------------------------------------

def _mediant_walk_edges(max_order=9):
    """Support edges along an alternating mediant walk: one edge per order,
    widths shrinking by ~ 1/golden^2 per order (the bounded-geometry nesting
    the geometric tail estimate describes)."""
    starts = [e for e in enumerate_edges(3)
              if abs(float(e.initial)) <= 2.0 and abs(float(e.terminal)) <= 2.0]
    e = starts[int(RNG.integers(len(starts)))]
    u, v = e.initial, e.terminal
    fixed_first = bool(RNG.integers(2))
    out = []
    while True:
        order = max(farey_order(u), farey_order(v))
        out.append(oriented_edge(u, v))
        if order >= max_order:
            return out
        m = ExtRational(u.num + v.num, u.den + v.den)
        # alternate which endpoint survives: bounded partial quotients
        if fixed_first:
            u, v = u, m
        else:
            u, v = m, v
        fixed_first = not fixed_first


def test_criterion_6_tail_bound():
    window = 600
    base_grid = list(np.linspace(-2.5, 2.5, 41))
    checked = 0
    for _ in range(10):
        sdot = ShearFunction()
        supports = []
        for edge in _mediant_walk_edges(9):
            if max(farey_order(edge.initial), farey_order(edge.terminal)) < 4:
                continue
            sdot.set(edge, float(RNG.choice([-1.0, 1.0])))
            supports.append((float(edge.initial), float(edge.terminal)))
        grid = list(base_grid)
        for a, b in supports:      # sample inside each (narrow) bump
            grid += [a + f * (b - a) for f in (0.25, 0.5, 0.75)]
        full = assemble_field(halved_terms(sdot, 9, window))
        full_vals = np.array([full(x) for x in grid])
        measured = {}
        for n in range(3, 8):
            part = assemble_field(halved_terms(sdot, n, window))
            vals = np.array([part(x) for x in grid])
            measured[n] = float(np.max(np.abs(full_vals - vals)))
        assert measured[3] > 0.0
        # one constant, fitted on the first two truncation orders; the
        # remaining orders are out-of-sample and test the geometric rate
        C_fit = max(measured[3] / tail_bound(3, 1.0),
                    measured[4] / tail_bound(4, 1.0))
        for n in range(3, 8):
            assert measured[n] <= C_fit * tail_bound(n, 1.0) * (1 + 1e-9)
        checked += 1
    report(6, "tail bound", f"{checked} shear functions, orders 3..7 "
                            f"dominated by a single fitted geometric tail")


# ---------------------------------------------------------------------------
# 7. fan-field Zygmund bound
# ---------------------------------------------------------------------------

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


def test_criterion_7_fan_zygmund_bound():
    worst_margin = math.inf
    for _ in range(20):
        width = int(RNG.integers(2, 7))
        shears = {n: float(RNG.uniform(-1.5, 1.5))
                  for n in range(-width, width + 1)}
        C = _spot_checked_C(shears, range(-width - 30, width + 31), 150)
        sup_norm = max(abs(v) for v in shears.values())
        V = lambda x: fan_field_eval(shears, x)
        xs = np.linspace(-width - 3, width + 3, 140)
        ts = np.geomspace(1e-3, 3.0, 42)
        sup = zygmund_quotient_sup(V, xs, ts).sup_value
        bound = 2 * C + 18 * sup_norm
        assert sup <= bound + 1e-9
        worst_margin = min(worst_margin, bound - sup)
    report(7, "fan Zygmund bound", f"20 fans, smallest margin "
                                   f"{worst_margin:.3f}")


# ---------------------------------------------------------------------------
# 8. Fourier closed form vs quadrature
# ---------------------------------------------------------------------------

def test_criterion_8_fourier():
    worst = 0.0
    for _ in range(200):
        phi0, phi1 = np.sort(RNG.uniform(0.0, 2 * math.pi, 2))
        if phi1 - phi0 < 1e-3:
            phi1 = min(phi0 + 0.5, 2 * math.pi - 1e-6)
        arc = CircleArc(float(phi0), float(phi1))
        n = int(RNG.integers(-50, 51))
        got = elementary_fourier(arc, n)
        want = fourier_quadrature_oracle(
            lambda z: circle_elementary_eval(arc, z), n,
            breakpoints=[arc.phi0, arc.phi1])
        err = abs(got - want)
        worst = max(worst, err)
        assert err < 1e-10
    pool = enumerate_edges(5)
    worst_f = 0.0
    for _ in range(10):
        idx = RNG.choice(len(pool), size=5, replace=False)
        sdot = ShearFunction()
        for i in idx:
            sdot.set(pool[i], float(RNG.uniform(-1, 1)))
        terms = halved_terms(sdot, 5, 64)
        V = assemble_circle_field(terms)
        for n in (int(RNG.integers(-20, 21)) for _ in range(3)):
            closed = field_fourier(terms, n)
            oracle = fourier_quadrature_oracle(V, n,
                                               breakpoints=V.breakpoints)
            err = abs(closed - oracle)
            worst_f = max(worst_f, err)
            assert err < 1e-8
    report(8, "Fourier coefficients", f"200 arcs max {worst:.2e}; "
                                      f"10 fields max {worst_f:.2e}")


def test_transform_is_conjugation_on_the_fourier_side():
    """The closed-form Hilbert transform against the closed-form Fourier
    coefficients.  The Cayley map C(x) = (1 + ix)/(1 - ix) pushes a line
    field v to the circle field w(z) = C'(x) v(x), C'(x) = 2i/(1 - ix)^2,
    and elementary_fourier is the z^m coefficient of the pushforward of an
    elementary field.  For H = closed_hilbert_field(V) the coefficients
    obey w_H(m) = -i sgn(m - 1) w_V(m) off the three sl(2) frequencies
    m = 0, 1, 2, which carry the normalization at 0, 1 and infinity: the
    conjugate function, -i sgn(n), on the angular component.  Here
    w_H(m) = (1/2pi) Integral w_H(e^{i theta}) e^{-i m theta} d theta with
    x = tan(theta/2), by quadrature.quad on H.values, split at theta = 0,
    pi/2, pi (the images of 0, 1, infinity) and at the edge's ends."""
    E = ExtRational
    edges = [oriented_edge(E(1, 2), ONE), oriented_edge(E(2), E(3)),
             oriented_edge(E(-1), ZERO), oriented_edge(ZERO, INFINITY),
             oriented_edge(ONE, INFINITY), oriented_edge(E(2, 5), E(1, 2))]
    worst = 0.0
    for e in edges:
        ends = edge_ends(e)
        H = closed_hilbert_field(FieldExpr([(1.0, ends)]))
        cuts = sorted({0.0, 0.5 * math.pi, math.pi, 2.0 * math.pi}
                      | {cayley_angle(p) for p in ends})
        for m in (-6, -4, -3, -2, -1, 3, 4, 5, 8):
            def w_H(thetas):
                xs = [math.tan(0.5 * t) for t in thetas]
                return [2j / (1.0 - 1j * x) ** 2 * h * cmath.exp(-1j * m * t)
                        for x, t, h in zip(xs, thetas, H.values(xs))]
            got = sum(quad(w_H, lo, hi, 1e-13, 1e-13, limit=300)[0]
                      for lo, hi in zip(cuts, cuts[1:])) / (2.0 * math.pi)
            want = -1j * math.copysign(1.0, m - 1) * elementary_fourier(
                edge_to_arc(e), m)
            worst = max(worst, abs(got - want))
    # measured 2.3e-16 against coefficients of up to 0.106
    assert worst < 1e-13


# ---------------------------------------------------------------------------
# 9. Weil-Petersson Gram matrix
# ---------------------------------------------------------------------------

def test_criterion_9_wp_gram():
    grams = wp_gram(6)
    g4 = np.array(grams[4]["gram"])
    g5 = np.array(grams[5]["gram"])
    out6 = grams[6]
    g6 = np.array(out6["gram"])
    asym = abs(g6[0, 1] - g6[1, 0]) / max(abs(g6[0, 1]), abs(g6[1, 0]))
    assert asym <= 1e-3
    eig = np.array(out6["eigenvalues"])
    assert eig.shape == (2,) and np.all(eig > 0)
    drift_45 = float(np.max(np.abs(g5 - g4)))
    drift_56 = float(np.max(np.abs(g6 - g5)))
    assert drift_56 < drift_45
    report(9, "WP Gram", f"eigenvalues {eig.round(4).tolist()}, asym "
                         f"{asym:.1e}, drift {drift_45:.3f} -> {drift_56:.3f}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    shears = tmp_path / "s.json"
    shears.write_text(json.dumps({"edges": [
        {"p": [0, 1], "q": [1, 0], "value": 0.4},
        {"p": [1, 2], "q": [1, 1], "value": -0.9},
        {"p": [2, 1], "q": [3, 1], "value": 1.3},
    ]}))
    commands = [
        ["field", "eval", "--shears", str(shears), "--samples", "41"],
        ["hilbert", "eval", "--shears", str(shears), "--mode", "closed",
         "--samples", "11"],
        ["hilbert", "shear", "--shears", str(shears), "--edge", "0,1,1,1",
         "--max-order", "4"],
        ["fourier", "--shears", str(shears), "--format", "json",
         "--n-max", "6"],
        ["wp", "gram", "--depth", "3"],
        ["farey", "vertices", "--max-order", "5", "--format", "json"],
    ]
    snapshots = []
    for attempt in ("a", "b"):
        blobs = []
        for i, cmd in enumerate(commands):
            out = tmp_path / f"{attempt}_{i}.out"
            assert cli_run(cmd + ["--output", str(out)]) == 0
            blobs.append(out.read_bytes())
        snapshots.append(blobs)
    assert snapshots[0] == snapshots[1]
    report(10, "CLI determinism", f"{len(commands)} commands byte-identical "
                                  f"across reruns")


# ---------------------------------------------------------------------------
# 11. shears of a field not built from shears rebuild it at the vertices
# ---------------------------------------------------------------------------

def test_criterion_11_recovered_shears_interpolate_x_log_x():
    """V = x log|x| is a Zygmund field not built from shears.  Read its
    shear s(e) off every edge of order <= n and sum s(e) E_e: V - V_n has
    zero shear on every such edge and vanishes at 0, 1 and oo, so it
    vanishes at each new mediant in turn, and V_n interpolates V at every
    finite vertex of order <= n + 1 (measured 5.6e-17 at each n)."""
    def V(x):
        return 0.0 if x == 0.0 else x * math.log(abs(x))

    worst = 0.0
    for n in (6, 8, 10):
        edges = enumerate_edges(n)
        Vn = FieldExpr([(shear_recover(V, edge_quadrilateral(e), 0.0),
                         edge_ends(e)) for e in edges])
        xs = [float(p) for p in enumerate_vertices(n + 1) if p != INFINITY]
        err = max(abs(got - V(x)) for x, got in zip(xs, Vn.values(xs)))
        worst = max(worst, err)
        assert err <= 1e-15
    report(11, "shears of x log|x| rebuild it",
           f"n = 6, 8, 10, max vertex err {worst:.1e}")


# ---------------------------------------------------------------------------
# 12. the fan condition separates a Zygmund field from one outside
# ---------------------------------------------------------------------------

def test_criterion_12_fan_condition_separates_fields():
    """The fan-averaged condition tells a Zygmund field from one that is
    not.  Each field's shears s(e) = shear_recover(V, Q_e) on every edge
    of Farey order <= 10 (2,045 edges, set one at a time into a
    ShearFunction) give the sup over all tips, m and k <= K of |A(m, k)|:
    - V = x log|x|, a Zygmund field: 1.386 and 1.648 at K = 1, 2, then
      1.7582 for every K from 3 to 10, so bounded;
    - V = |x|^(1/2) - x, Hoelder-1/2 at 0 and so outside the class:
      2 sqrt(K), reached at the tip 0 with m = 1 and k = K.
    Measured over n = 6..12 and K <= n: x log|x| reads 1.7582 for K >= 3
    up to n = 11 and 1.7626 at n = 12 (1.763 at n = 14), hence the bound
    1.77; |x|^(1/2) - x is within 2.3e-16 relative of 2 sqrt(K) at every
    n and K, with that witness.  n = 10 is the smallest order with
    thousands of edges, and both fields take about 0.1 s."""
    def x_log_x(x):
        return 0.0 if x == 0.0 else x * math.log(abs(x))

    def root_less_x(x):
        return math.sqrt(abs(x)) - x

    edges = enumerate_edges(10)
    ladder = {}
    for V in (x_log_x, root_less_x):
        sdot = ShearFunction()
        for e in edges:
            sdot.set(e, shear_recover(V, edge_quadrilateral(e), 0.0))
        tips = sdot.support_tips()
        ladder[V] = [zygmund_condition_sup(sdot, tips, K)
                     for K in range(1, 11)]
    bounded = [r.sup_value for r in ladder[x_log_x]]
    assert max(bounded) <= 1.77
    assert bounded[-1] - bounded[4] <= 1e-12      # flat from K = 5 to 10
    worst = 0.0
    for K, r in enumerate(ladder[root_less_x], 1):
        err = abs(r.sup_value / (2.0 * math.sqrt(K)) - 1.0)
        assert err <= 1e-15
        assert r.witness == (ZERO, 1, K)
        worst = max(worst, err)
    report(12, "fan condition separates fields",
           f"n = 10, K <= 10: x log|x| <= {max(bounded):.4f}, "
           f"|x|^1/2 - x = 2 sqrt(K) to {worst:.1e}")
