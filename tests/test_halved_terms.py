"""The shared halved term list against per-tip sums, and the support cache."""

import math
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearfield.farey import (ExtRational, INFINITY, ONE, ZERO,
                              enumerate_edges, fan_index, farey_order,
                              oriented_edge)
from shearfield.fields import (FieldExpr, ShearFunction, assemble_field,
                               edge_ends, fan_shears_at_tip, halved_terms)
from shearfield.fourier import edge_to_arc, elementary_fourier, field_fourier
from shearfield.hilbert import (delta_weight, edge_quadrilateral,
                                elementary_hilbert, hilbert_series_eval,
                                hilbert_shear_series)

INF = math.inf
POOL = enumerate_edges(5)
XS = (-2.9, -0.7, 0.3, 0.55, 1.6, 3.1)
NS = (-5, 0, 1, 2, 7)
TARGET = oriented_edge(ZERO, ONE)


def tip_field(p, sdot, N):
    """The field of the fan with tip p, with halved shears on fan indices
    |n| <= N, by the Moebius route: sdot's support edges in order, those
    with an end at p, each kept when farey.fan_index of its other end is
    in the window.  It reads neither the fan entries nor the integer
    fan-index formula of ShearFunction's index, which halved_terms reads.
    A degenerate window (N <= 0) is the zero field, as in halved_terms."""
    if N <= 0:
        return FieldExpr()
    terms = []
    for e, value in sdot:
        if p in (e.initial, e.terminal):
            other = e.terminal if e.initial == p else e.initial
            if abs(fan_index(p, other)) <= N:
                terms.append((0.5 * value, edge_ends(e)))
    return FieldExpr(terms)


def _per_tip(sdot, max_order, N):
    """(Farey order, tip_field) of every support tip of order <= max_order."""
    return [(farey_order(p), tip_field(p, sdot, N))
            for p in sdot.support_tips() if farey_order(p) <= max_order]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(range(len(POOL))),
                          st.floats(-2.0, 2.0, allow_subnormal=False)
                          .filter(lambda v: v != 0.0)),
                max_size=12),
       st.integers(1, 6), st.integers(0, 4))
def test_term_list_matches_per_tip_sums(entries, max_order, N):
    sdot = ShearFunction()
    for i, v in entries:
        sdot.set(POOL[i], v)
    terms = halved_terms(sdot, max_order, N)
    tips = _per_tip(sdot, max_order, N)
    pieces = [t for _, F in tips for t in F.terms]
    assert [(coef, ends) for _, coef, ends in terms] == pieces

    V = assemble_field(terms)
    for x, h in zip(XS, hilbert_series_eval(terms, XS)):
        want = sum(F(x) for _, F in tips)
        assert abs(V(x) - want) <= 1e-12
        want = sum(c * elementary_hilbert(ends, x) for c, ends in pieces)
        assert abs(h - want) <= 1e-12
    for n in NS:
        want = sum(c * elementary_fourier(edge_to_arc(ends), n)
                   for c, ends in pieces)
        assert abs(field_fourier(terms, n) - want) <= 1e-12

    Q = edge_quadrilateral(TARGET)
    partials = hilbert_shear_series(terms, TARGET, max_order)
    assert len(partials) == max_order
    for k in range(1, max_order + 1):
        want = sum(c * delta_weight(ends, Q)
                   for order, F in tips if order <= k
                   for c, ends in F.terms) / math.pi
        assert abs(partials[k - 1] - want) <= 1e-12


def test_caches_follow_set():
    e1 = oriented_edge(ZERO, INFINITY)
    e2 = oriented_edge(ExtRational(1, 2), ONE)
    sdot = ShearFunction([(e1, 1.5)])
    assert sdot.edges() == [e1]
    assert sdot.support_tips() == [ZERO, INFINITY]
    assert fan_shears_at_tip(sdot, ZERO) == {1: 1.5}

    sdot.set(e2, -0.25)
    assert set(sdot.edges()) == {e1, e2}
    assert sdot.support_tips() == [ZERO, INFINITY, ONE, ExtRational(1, 2)]
    assert [coef for _, coef, ends in halved_terms(sdot, 6, 10)
            if ends == edge_ends(e2)] == [-0.125, -0.125]

    sdot.set(e1, 3.0)                   # new value on a cached edge
    assert fan_shears_at_tip(sdot, INFINITY) == {0: 3.0}
    assert tip_field(INFINITY, sdot, 10).terms == [(1.5, (INF, 0.0))]

    sdot.set(e1, 0.0)                   # zero removes the edge
    assert sdot.edges() == [e2]
    assert sdot.support_tips() == [ONE, ExtRational(1, 2)]
    assert fan_shears_at_tip(sdot, INFINITY) == {}
    assert tip_field(ZERO, sdot, 10).terms == []
    assert all(ends == edge_ends(e2)
               for _, _, ends in halved_terms(sdot, 6, 10))
    assert list(sdot) == [(e2, -0.25)]


def test_failing_edge_raises_a_fresh_error_per_call():
    """A kept edge whose ends leave the float range ({10^400, oo}, kept
    at the tip oo) raises a new OverflowError on every call, with the
    same message and a traceback of the same length: no call holds on to
    an earlier call's error or its frames."""
    sdot = ShearFunction([(oriented_edge(ExtRational(10 ** 400), INFINITY),
                           1.0)])
    errors, depths = [], []
    for _ in range(3):
        with pytest.raises(OverflowError) as info:
            halved_terms(sdot, 3, 10 ** 401)
        errors.append(info.value)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert len({id(e) for e in errors}) == 3
    assert {str(e) for e in errors} == {
        "integer division result too large for a float"}
    assert len(set(depths)) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOL), st.sampled_from(POOL))
def test_edge_and_its_ends_name_one_field(edge, target):
    """An edge and its float ends give bitwise the same weight and arc; a
    ray's breakpoints are its finite end only."""
    ends = edge_ends(edge)
    Q = edge_quadrilateral(target)
    assert delta_weight(edge, Q).hex() == delta_weight(ends, Q).hex()
    arc, arc_of_ends = edge_to_arc(edge), edge_to_arc(ends)
    assert (arc.phi0.hex(), arc.phi1.hex()) == (arc_of_ends.phi0.hex(),
                                                arc_of_ends.phi1.hex())
    assert FieldExpr([(1.0, ends)]).breakpoints == sorted(
        p for p in ends if math.isfinite(p))
