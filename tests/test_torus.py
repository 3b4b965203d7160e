import math

import numpy as np
import pytest

import shearfield.torus
from shearfield.farey import (IDENTITY, INFINITY, ExtRational,
                              IntegerMoebius, ONE, ZERO, oriented_edge)
from shearfield.hilbert import delta_weight, edge_quadrilateral
from shearfield.torus import (CoveringGroup, SurfaceTriangulation,
                              TangentShear, _reduced_words, _transform,
                              _vertex_images, _weight_matrices,
                              cusp_condition_check,
                              edge_class, hilbert_shear_vector,
                              invariant_hilbert_shear, lift_edges,
                              moebius_abelianized, punctured_torus,
                              thurston_form, wp_gram, wp_pairing)

RNG = np.random.default_rng(31)


def test_cusp_condition_examples():
    assert cusp_condition_check((0.0, 0.0, 0.0))
    assert cusp_condition_check((1.0, 1.0, -2.0))
    assert not cusp_condition_check((1.0, 1.0, 1.0))


def test_abelianization_is_homomorphism():
    mats = [IntegerMoebius(1, 1, 0, 1), IntegerMoebius(0, -1, 1, 0),
            IntegerMoebius(2, 1, 1, 1), IntegerMoebius(1, -3, 0, 1),
            IntegerMoebius(5, 2, 2, 1), IntegerMoebius(1, 0, -4, 1)]
    for g in mats:
        for h in mats:
            lhs = moebius_abelianized(g.compose(h))
            rhs = (moebius_abelianized(g) + moebius_abelianized(h)) % 6
            assert lhs == rhs
    assert moebius_abelianized(IDENTITY) == 0
    assert moebius_abelianized(IntegerMoebius(1, 1, 0, 1)) == 1   # x -> x+1
    assert moebius_abelianized(IntegerMoebius(0, -1, 1, 0)) == 3  # x -> -1/x


def test_edge_classes_partition_base_triangle():
    tri, _ = punctured_torus()
    for j, e in enumerate(tri.edges):
        assert edge_class(e) == j
    # translated edges keep their class
    _, grp = punctured_torus()
    for img, j in lift_edges(grp, 3):
        assert edge_class(img) == j


def test_covering_group_validation():
    with pytest.raises(ValueError):
        CoveringGroup(IntegerMoebius(1, 1, 0, 1),      # bare translation
                      IntegerMoebius(1, 1, 1, 2))
    A = IntegerMoebius(2, 1, 1, 1)
    A2 = A.compose(A)
    with pytest.raises(ValueError):
        CoveringGroup(A, A2)                           # commuting pair


def test_triangulation_validation():
    e0 = oriented_edge(ZERO, INFINITY)
    e1 = oriented_edge(ONE, INFINITY)
    e2 = oriented_edge(ZERO, ONE)
    with pytest.raises(ValueError):
        SurfaceTriangulation(edges=(e0, e1, e2),
                             triangles=((0, 1, 2), (0, 1, 1)))


def test_lift_edges_depth_zero_and_growth():
    tri, grp = punctured_torus()
    lifted = lift_edges(grp, 0)
    assert len(lifted) == 3
    assert {e.unordered() for e, _ in lifted} == \
        {e.unordered() for e in tri.edges}
    for d in (1, 2, 3, 4):
        lifted = lift_edges(grp, d)
        assert len(lifted) <= 2 * 3 * 3 ** d
        assert len(lifted) == 3 * (2 * 3 ** d - 1)   # free action, no overlap
        # distinct words give distinct edges, with no dedup in the walk
        assert len({e.unordered() for e, _ in lifted}) == len(lifted)


def test_lift_edges_triangle_closure():
    """Every word's three fundamental-edge images appear together."""
    tri, grp = punctured_torus()
    lifted = {e.unordered() for e, _ in lift_edges(grp, 3)}
    for _, g in _reduced_words(grp, 3):
        for e in tri.edges:
            assert g.map_edge(e).unordered() in lifted


def test_invariant_hilbert_zero():
    t = TangentShear(0.0, 0.0, 0.0)
    for j in range(3):
        assert invariant_hilbert_shear(t, j, 4) == 0.0


def test_invariant_hilbert_rejects_cusp_violation():
    with pytest.raises(ValueError):
        invariant_hilbert_shear(TangentShear(1.0, 0.0, 0.0), 0, 3)


def test_invariant_hilbert_linearity():
    t1 = TangentShear(1.0, -1.0, 0.0)
    t2 = TangentShear(0.0, 1.0, -1.0)
    a, b = 0.7, -1.9
    comb = TangentShear(*(a * x + b * y
                          for x, y in zip(t1.values, t2.values)))
    for j in range(3):
        lhs = invariant_hilbert_shear(comb, j, 4)
        rhs = (a * invariant_hilbert_shear(t1, j, 4)
               + b * invariant_hilbert_shear(t2, j, 4))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_invariant_hilbert_depth_plateau():
    t = TangentShear(1.0, -1.0, 0.0)
    vals = [invariant_hilbert_shear(t, 0, d) for d in range(2, 7)]
    diffs = [abs(b - a) for a, b in zip(vals[:-1], vals[1:])]
    assert all(math.isfinite(v) for v in vals)
    assert diffs[-1] < diffs[0]


def test_invariant_hilbert_representative_free():
    tri, grp = punctured_torus()
    t = TangentShear(1.0, 0.5, -1.5)
    lifted = lift_edges(grp, 2)
    for idx in (4, 9, 17, 30):
        img, cls = lifted[idx]
        v_canon = invariant_hilbert_shear(t, cls, 4)
        v_rep = invariant_hilbert_shear(t, img, 4)
        assert v_rep == pytest.approx(v_canon, abs=1e-8)


def test_delta_weight_covering_invariance():
    """The class reduction rests on delta_weight(g e, g Q) = delta_weight(e,
    Q) for covering-group elements g.  Some weights vanish and others come
    from cancelling brackets, so the error is measured relative to the
    largest weight on the quadrilateral, the scale of the sum they enter."""
    tri, grp = punctured_torus()
    lifted = lift_edges(grp, 3)
    for _, g in _reduced_words(grp, 2):
        for f in tri.edges:
            Q = edge_quadrilateral(f)
            gQ = edge_quadrilateral(g.map_edge(f))
            want = [delta_weight(e, Q) for e, _ in lifted]
            got = [delta_weight(g.map_edge(e), gQ) for e, _ in lifted]
            scale = max(abs(w) for w in want)
            assert max(abs(a - b) for a, b in zip(got, want)) \
                <= 1e-10 * scale


def _per_lift_shear_vector(t, depth):
    """Transformed shears summed lift by lift over a walk to ``depth``."""
    tri, grp = punctured_torus()
    quads = [edge_quadrilateral(e) for e in tri.edges]
    want = [0.0, 0.0, 0.0]
    seen = set()
    for _, g in _reduced_words(grp, depth):
        for j, e in enumerate(tri.edges):
            img = g.map_edge(e)
            if img.unordered() in seen:
                continue
            seen.add(img.unordered())
            for i, Q in enumerate(quads):
                want[i] += t[j] * delta_weight(img, Q) / math.pi
    return want


@pytest.mark.parametrize("depth", [3, 4])
def test_hilbert_shear_vector_matches_per_lift_sum(depth):
    """Every shell of the one walk matches its own per-lift loop."""
    t = TangentShear(1.0, 0.5, -1.5)
    shells = _weight_matrices(depth)
    assert len(shells) == depth + 1
    assert hilbert_shear_vector(t, depth) == _transform(shells[-1], t)
    for d, W in enumerate(shells):
        got = _transform(W, t)
        want = _per_lift_shear_vector(t, d)
        for i in range(3):
            assert got[i] == pytest.approx(want[i], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("depth", range(5))
def test_weight_matrices_are_delta_weight_sums_bitwise(depth):
    """Every shell is, bit for bit, the W that delta_weight builds: lift
    by lift in walk order, each lifted edge over each fundamental
    quadrilateral, with no vertex image, main term or bracket plan
    shared."""
    tri, grp = punctured_torus()
    quads = [edge_quadrilateral(f) for f in tri.edges]
    W = [[0.0] * 3 for _ in quads]
    want = []
    for length, g in _reduced_words(grp, depth):
        if length > len(want):
            want.append([[w.hex() for w in row] for row in W])
        for k, e in enumerate(tri.edges):
            for i, Q in enumerate(quads):
                W[i][k] += delta_weight(g.map_edge(e), Q)
    want.append([[w.hex() for w in row] for row in W])
    got = [[[w.hex() for w in row] for row in shell]
           for shell in _weight_matrices(depth)]
    assert got == want


def test_weight_matrices_flushed_in_chunks_bitwise(monkeypatch):
    """With a chunk of 7 words, every shell of word length 2 or more is
    evaluated in several flushes, and each still gives the delta_weight
    sum."""
    tri, grp = punctured_torus()
    quads = [edge_quadrilateral(f) for f in tri.edges]
    W = [[0.0] * 3 for _ in quads]
    want = []
    for length, g in _reduced_words(grp, 4):
        if length > len(want):
            want.append([[w.hex() for w in row] for row in W])
        for k, e in enumerate(tri.edges):
            for i, Q in enumerate(quads):
                W[i][k] += delta_weight(g.map_edge(e), Q)
    want.append([[w.hex() for w in row] for row in W])
    monkeypatch.setattr(shearfield.torus, "_WORD_CHUNK", 7)
    got = [[[w.hex() for w in row] for row in shell]
           for shell in _weight_matrices(4)]
    assert got == want


def test_vertex_images_equal_exact_images_bitwise():
    """The float image read off the matrix entries is float(g(x)), the sign
    of zero and infinity included, across the depth-4 ball; the last two
    maps send oo to 0 through a denominator of either sign."""
    _, grp = punctured_torus()
    words = [g for _, g in _reduced_words(grp, 4)]
    words += [IntegerMoebius(0, 1, -1, 0), IntegerMoebius(0, -1, 1, 0)]
    points = [ZERO, ONE, INFINITY, ExtRational(-1), ExtRational(1, 2),
              ExtRational(2)]
    entries = [(g.a, g.b, g.c, g.d) for g in words]
    for x in points:
        assert ([w.hex() for w in _vertex_images(entries, x)]
                == [float(g(x)).hex() for g in words]), x
    assert _vertex_images(entries[-2:-1], INFINITY)[0].hex() == (0.0).hex()


def test_thurston_form_structure():
    t1 = TangentShear(1.0, -1.0, 0.0)
    t2 = TangentShear(0.0, 1.0, -1.0)
    assert thurston_form(t1, t1) == 0.0
    assert thurston_form(t1, t2) == -thurston_form(t2, t1)
    assert thurston_form(t1, t2) != 0.0
    # bilinear
    t3 = TangentShear(0.4, 0.1, -0.5)
    lhs = thurston_form(t1, TangentShear(*(2 * a + b for a, b in
                                           zip(t2.values, t3.values))))
    rhs = 2 * thurston_form(t1, t2) + thurston_form(t1, t3)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_thurston_nondegenerate_on_cusp_subspace():
    u1 = TangentShear(1.0, -1.0, 0.0)
    u2 = TangentShear(0.0, 1.0, -1.0)
    assert abs(thurston_form(u1, u2)) == pytest.approx(3.0)


def test_wp_pairing_zero_and_bilinearity():
    t1 = TangentShear(1.0, -1.0, 0.0)
    zero = TangentShear(0.0, 0.0, 0.0)
    assert wp_pairing(t1, zero, 4) == [0.0] * 5
    t2 = TangentShear(0.0, 1.0, -1.0)
    t3 = TangentShear(1.0, 1.0, -2.0)
    lhs = wp_pairing(t1, TangentShear(*(x + 0.5 * y for x, y in
                                        zip(t2.values, t3.values))), 4)[-1]
    rhs = wp_pairing(t1, t2, 4)[-1] + 0.5 * wp_pairing(t1, t3, 4)[-1]
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_wp_pairing_rejects_cusp_violation():
    with pytest.raises(ValueError):
        wp_pairing(TangentShear(1.0, 0.0, 0.0), TangentShear(0, 1, -1), 3)


def test_wp_symmetry_at_depth():
    t1 = TangentShear(1.0, -1.0, 0.0)
    t2 = TangentShear(0.0, 1.0, -1.0)
    v12 = wp_pairing(t1, t2, 6)[-1]
    v21 = wp_pairing(t2, t1, 6)[-1]
    assert abs(v12 - v21) <= 1e-3 * max(abs(v12), abs(v21))


def test_wp_gram_positive_definite_and_converging():
    grams = wp_gram(6)
    g4 = np.array(grams[4]["gram"])
    g5 = np.array(grams[5]["gram"])
    g6 = grams[6]
    gram6 = np.array(g6["gram"])
    assert np.all(np.array(g6["eigenvalues"]) > 0)
    assert abs(gram6[0, 1] - gram6[1, 0]) <= 1e-3 * abs(gram6[0, 1])
    drift_45 = np.max(np.abs(g5 - g4))
    drift_56 = np.max(np.abs(gram6 - g5))
    assert drift_56 < drift_45


def test_wp_gram_eigenvalues_match_eigvalsh():
    """The closed-form 2x2 spectrum is the one eigvalsh gives for the
    symmetrized Gram, ascending, with its trace and determinant."""
    for d, out in enumerate(wp_gram(6)):
        gram = np.array(out["gram"])
        sym = 0.5 * (gram + gram.T)
        lo, hi = out["eigenvalues"]
        assert lo <= hi
        for got, want in zip((lo, hi), np.linalg.eigvalsh(sym)):
            assert abs(got - want) <= 1e-14 * abs(want), d
        assert abs(lo + hi - np.trace(sym)) <= 1e-14 * abs(np.trace(sym))
        det = sym[0, 0] * sym[1, 1] - sym[0, 1] ** 2
        assert abs(lo * hi - det) <= 1e-14 * abs(det)


def test_wp_gram_symmetric_point_structure():
    """At the basepoint all three quotient edges play symmetric roles, so
    the limiting Gram on the basis (1,-1,0), (0,1,-1) is proportional to
    [[2,-1],[-1,2]]; one proportion (g22 = -2 g12, i.e. the middle
    transformed shear is the mean of the outer two) holds exactly at every
    depth, the other emerges as the depth sum settles."""
    out = wp_gram(6)[-1]
    g = np.array(out["gram"])
    assert abs(g[1, 1] + 2 * g[0, 1]) <= 1e-8 * abs(g[1, 1])
    assert abs(g[0, 0] - g[1, 1]) <= 0.05 * abs(g[0, 0])


def test_hilbert_shear_vector_components():
    t = TangentShear(1.0, -1.0, 0.0)
    vec = hilbert_shear_vector(t, 4)
    for j in range(3):
        assert vec[j] == pytest.approx(invariant_hilbert_shear(t, j, 4),
                                       abs=1e-14)


def test_one_walk_gives_every_depth():
    """Entry k of a depth-6 call equals the last entry of a depth-k call:
    the shells are snapshotted as they close, not one step early or late."""
    t1 = TangentShear(-3.0, 2.0, 1.0)
    t2 = TangentShear(1.0, -2.0, 1.0)
    grams = wp_gram(6)
    pairs = wp_pairing(t1, t2, 6)
    assert len(grams) == len(pairs) == 7
    for k in range(7):
        assert grams[k] == wp_gram(k)[-1]
        assert grams[k]["depth"] == k
        assert pairs[k] == wp_pairing(t1, t2, k)[-1]
