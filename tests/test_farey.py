from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearfield.farey import (ExtRational, FareyEdge, INFINITY, ONE,
                              ZERO, IntegerMoebius, _walk,
                              enumerate_edges, enumerate_vertices, fan_edge,
                              fan_edges, fan_index, fan_moebius, farey_order,
                              in_ccw_arc, mediant, oriented_edge, reduced)


def test_extrational_canonical():
    assert ExtRational(2, 4) == ExtRational(1, 2)
    assert ExtRational(-3, -6) == ExtRational(1, 2)
    assert ExtRational(-1, 0) == INFINITY
    assert ExtRational(5, 0).num == 1 and ExtRational(5, 0).den == 0
    with pytest.raises(ZeroDivisionError):
        ExtRational(0, 0)


_HUGE = 10 ** 400


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-50, 50), st.integers(-_HUGE, _HUGE),
                 st.sampled_from([0, _HUGE, -_HUGE, 6 * _HUGE])),
       st.one_of(st.integers(-50, 50), st.integers(-_HUGE, _HUGE),
                 st.sampled_from([0, _HUGE, -_HUGE, 4 * _HUGE])))
def test_reduced_is_the_extrational_reduction(num, den):
    """farey.reduced, the one reduction the shear-file reader and
    ExtRational share: the sign on the numerator, the gcd divided out
    (as Fraction reduces), k/0 read as (1, 0), and 0/0 an error."""
    if num == den == 0:
        for make in (reduced, ExtRational):
            with pytest.raises(ZeroDivisionError,
                               match="0/0 is not a point of the circle"):
                make(num, den)
        return
    got = reduced(num, den)
    p = ExtRational(num, den)
    assert got == (p.num, p.den)
    if den == 0:
        assert got == (1, 0)
    else:
        f = Fraction(num, den)
        assert got == (f.numerator, f.denominator)


def test_extrational_order_excludes_infinity():
    assert ExtRational(1, 2) < ExtRational(2, 3)
    with pytest.raises(ValueError):
        _ = INFINITY < ZERO


def test_mediant_examples():
    assert mediant(ZERO, ONE) == ExtRational(1, 2)
    assert mediant(ZERO, INFINITY) == ONE
    assert mediant(INFINITY, ZERO) == ExtRational(-1)


def test_mediant_of_parents_in_counterclockwise_order():
    """oo takes its side from its position in mediant: the parents of
    every vertex of order <= 12 but 0 and oo, from the Stern-Brocot walk
    and put in counterclockwise order by the arc test, have the vertex as
    their mediant; -3 comes from (oo, -2) and 3 from (2, oo)."""
    assert mediant(INFINITY, ExtRational(-2)) == ExtRational(-3)
    assert mediant(ExtRational(2), INFINITY) == ExtRational(3)
    vertices = enumerate_vertices(12)[2:]
    assert len(vertices) == 2 ** 12 - 2
    for p in vertices:
        u, v = (ExtRational(*q) for q in _walk(p.num, p.den)[1:])
        if not in_ccw_arc(u, p, v):
            u, v = v, u
        assert mediant(u, v) == p


def test_mediant_rejects_non_adjacent():
    with pytest.raises(ValueError):
        mediant(ZERO, ExtRational(2, 1))


def test_farey_order_examples():
    assert farey_order(ZERO) == 1
    assert farey_order(INFINITY) == 1
    assert farey_order(ONE) == 2
    assert farey_order(ExtRational(-1)) == 2
    assert farey_order(ExtRational(1, 2)) == 3
    assert farey_order(ExtRational(2)) == 3
    assert farey_order(ExtRational(3, 2)) == 4
    assert farey_order(ExtRational(1, 10 ** 9)) == 10 ** 9 + 1


def test_farey_parents():
    """The parents that fan_entries reads off the Stern-Brocot walk."""
    parents = lambda p: [ExtRational(*q) for q in _walk(p.num, p.den)[1:]]
    assert set(parents(ONE)) == {ZERO, INFINITY}
    assert set(parents(ExtRational(1, 2))) == {ZERO, ONE}
    assert set(parents(ExtRational(-1))) == {ZERO, INFINITY}
    u, v = parents(ExtRational(3, 5))
    assert mediant(u, v) == ExtRational(3, 5)
    assert set(parents(ExtRational(1, 10 ** 9))) == \
        {ZERO, ExtRational(1, 10 ** 9 - 1)}


def test_enumerate_vertices_low_orders():
    assert enumerate_vertices(1) == [ZERO, INFINITY]
    assert enumerate_vertices(2) == [ZERO, INFINITY, ONE, ExtRational(-1)]


def test_enumerate_vertices_counts():
    for n in range(1, 8):
        verts = enumerate_vertices(n)
        expected = 2 + sum(2 ** (j - 1) for j in range(2, n + 1))
        assert len(verts) == expected
        assert len(set(verts)) == expected
    exactly4 = [v for v in enumerate_vertices(4) if farey_order(v) == 4]
    assert len(exactly4) == 8


def test_fan_edges_at_infinity():
    for n in range(-5, 6):
        e = fan_edge(INFINITY, n)
        assert {e.initial, e.terminal} == {ExtRational(n), INFINITY}
        if n >= 1:
            assert e.terminal == INFINITY
        else:
            assert e.initial == INFINITY


def test_fan_edges_at_zero_match_known_values():
    # n = 1 joins 0 and oo; otherwise 0 and 1/(1-n)
    e1 = fan_edge(ZERO, 1)
    assert {e1.initial, e1.terminal} == {ZERO, INFINITY}
    for n in (-3, -2, -1, 0, 2, 3):
        e = fan_edge(ZERO, n)
        assert {e.initial, e.terminal} == {ZERO, ExtRational(1, 1 - n)}
    e0 = fan_edge(ZERO, 0)
    assert {e0.initial, e0.terminal} == {ZERO, ONE}


def test_fan_anchoring_convention():
    # e_0 leaves the tip, e_1 enters it
    for p in enumerate_vertices(5):
        assert fan_edge(p, 0).initial == p
        assert fan_edge(p, 1).terminal == p


def test_fan_moebius_examples():
    assert fan_moebius(INFINITY) == IntegerMoebius(1, 0, 0, 1)
    B = fan_moebius(ZERO)
    # x -> 1/(1 - x), i.e. rows (0, 1), (-1, 1) up to projective sign
    assert B(ZERO) == ONE and B(INFINITY) == ZERO
    assert (B.a, B.b, B.c, B.d) in ((0, 1, -1, 1), (0, -1, 1, -1))
    B1 = fan_moebius(ONE)
    assert B1(INFINITY) == ONE
    assert B1(ZERO) == fan_edge(ONE, 0).terminal


def test_apply_moebius_examples():
    assert IntegerMoebius(1, 0, 0, 1)(ExtRational(5)) == ExtRational(5)
    B = IntegerMoebius(0, 1, -1, 1)
    assert B(INFINITY) == ZERO
    T = IntegerMoebius(1, 1, 0, 1)
    assert T(ExtRational(1, 2)) == ExtRational(3, 2)


def test_edge_determinant_enforced():
    with pytest.raises(ValueError):
        FareyEdge(ZERO, ExtRational(2))
    for e in enumerate_edges(5):
        i, t = e.initial, e.terminal
        assert abs(i.num * t.den - t.num * i.den) == 1


def test_fan_consistency_deep():
    # consecutive fan edges share exactly the tip; other endpoints adjacent
    for p in enumerate_vertices(6):
        prev = fan_edge(p, -20)
        for n in range(-19, 21):
            cur = fan_edge(p, n)
            s1 = {prev.initial, prev.terminal}
            s2 = {cur.initial, cur.terminal}
            assert s1 & s2 == {p}
            q1 = (s1 - {p}).pop()
            q2 = (s2 - {p}).pop()
            assert abs(q1.num * q2.den - q2.num * q1.den) == 1
            prev = cur


def test_fan_moebius_maps_standard_fan_exactly():
    # pushing the fan of oo through fan_moebius(p) reproduces the fan of p,
    # orientation (checked against the independent arc rule) included
    for p in enumerate_vertices(5):
        B = fan_moebius(p)
        for n in range(-10, 11):
            std = fan_edge(INFINITY, n)
            img = B.map_edge(std)
            expect = fan_edge(p, n)
            assert (img.initial, img.terminal) == (expect.initial,
                                                   expect.terminal)
            canon = oriented_edge(img.initial, img.terminal)
            assert (img.initial, img.terminal) == (canon.initial,
                                                   canon.terminal)


def test_fan_index_inverts_fan_edge():
    for p in enumerate_vertices(4):
        for n in range(-8, 9):
            e = fan_edge(p, n)
            q = e.terminal if e.initial == p else e.initial
            assert fan_index(p, q) == n


def test_enumerate_edges_counts():
    assert len(enumerate_edges(1)) == 1
    for n in range(2, 7):
        assert len(enumerate_edges(n)) == 2 ** (n + 1) - 3


def test_edge_serialization_round_trip():
    e = oriented_edge(ZERO, INFINITY)
    assert e.to_json() == [1, 0, 0, 1]


def _orientation_by_anchors(u, v):
    """The canonical orientation by its definition: the one (initial,
    terminal) order of {u, v} whose counterclockwise arc avoids whichever
    of 0, 1, oo are not ends of the edge."""
    anchors = [a for a in (ZERO, ONE, INFINITY) if a not in (u, v)]
    fits = [(i, t) for i, t in ((u, v), (v, u))
            if not any(in_ccw_arc(i, a, t) for a in anchors)]
    assert len(fits) == 1
    return fits[0]


_BIG = 10 ** 9
_BIG_EDGES = [
    (ExtRational(0), ExtRational(1, _BIG)),
    (ExtRational(1, _BIG), ExtRational(1, _BIG + 1)),
    (ExtRational(_BIG), ExtRational(_BIG + 1)),
    (ExtRational(-_BIG - 1), ExtRational(-_BIG)),
    (ExtRational(_BIG), INFINITY),
    (ExtRational(-_BIG), INFINITY),
    (ExtRational(_BIG, _BIG + 1), ONE),
    (ExtRational(-1), ExtRational(-_BIG, _BIG + 1)),
] + [(e.initial, e.terminal) for p in (ExtRational(_BIG + 1, _BIG),
                                        ExtRational(-1, _BIG))
     for e in fan_edges(p, -3, 3)]


def test_oriented_edge_integer_rule_is_the_anchor_rule():
    """The integer rule (smaller finite end first; n -> oo for n >= 1,
    oo -> n otherwise) gives the arc-avoids-the-base-triangle orientation
    on every edge of order <= 12 and on edges with 10^9-sized ends, in
    both argument orders."""
    pairs = [(e.initial, e.terminal) for e in enumerate_edges(12)]
    assert len(pairs) == 8189
    for u, v in pairs + _BIG_EDGES:
        want = _orientation_by_anchors(u, v)
        for a, b in ((u, v), (v, u)):
            e = oriented_edge(a, b)
            assert (e.initial, e.terminal) == want


@pytest.mark.parametrize("u, v", [(ExtRational(-1), ONE),
                                  (ZERO, ExtRational(2)),
                                  (ExtRational(1, 2), INFINITY),
                                  (ExtRational(1, 3), ExtRational(2, 3)),
                                  (ONE, ONE), (INFINITY, INFINITY)])
def test_oriented_edge_rejects_non_adjacent_pairs(u, v):
    for a, b in ((u, v), (v, u)):
        with pytest.raises(ValueError, match="not Farey-adjacent"):
            oriented_edge(a, b)


def test_in_ccw_arc_basic():
    assert in_ccw_arc(0.0, 0.5, 1.0)
    assert not in_ccw_arc(0.0, 1.5, 1.0)
    assert in_ccw_arc(1.0, float("inf"), 0.0)
    assert in_ccw_arc(float("inf"), -3.0, 0.0)
    assert not in_ccw_arc(float("inf"), 3.0, 0.0)


def stern_brocot_walk(p):
    """Reference: (order, parents) of p by the one-step Stern-Brocot walk,
    one mediant per step; linear in the size of p, so small p only."""
    neg = p.num < 0
    target = (abs(p.num), p.den)
    lo, hi = (0, 1), (1, 0)   # as (num, den) pairs
    steps = 0
    while True:
        m = (lo[0] + hi[0], lo[1] + hi[1])
        steps += 1
        if m == target:
            par = (ExtRational(*lo), ExtRational(*hi))
            if neg:
                par = tuple(ExtRational(-q.num, q.den) for q in par)
            return steps + 1, par
        if target[0] * m[1] < m[0] * target[1]:
            hi = m
        else:
            lo = m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_order_of_mediant_with_parents(num, den):
    p = ExtRational(num, den)
    if p in (ZERO, INFINITY):
        return
    u, v = (ExtRational(*q) for q in _walk(p.num, p.den)[1:])
    # the parents in counterclockwise order: the mirrored walk of p < 0
    # gives them the other way round
    assert (mediant(u, v) if p.num > 0 else mediant(v, u)) == p
    assert farey_order(p) == max(farey_order(u), farey_order(v)) + 1
    order, parents = stern_brocot_walk(p)
    assert farey_order(p) == order
    assert (u, v) == parents
    # the fan anchor B(0) is the parent that the canonical edge leaves p for
    anchor, = [q for q in parents if oriented_edge(p, q).initial == p]
    assert fan_moebius(p)(ZERO) == anchor


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-9, max_value=9),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=-15, max_value=15))
def test_fan_tip_membership(num, den, n):
    p = ExtRational(num, den)
    e = fan_edge(p, n)
    assert p in (e.initial, e.terminal)
