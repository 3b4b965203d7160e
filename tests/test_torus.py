import hashlib
import math

import numpy as np
import pytest

import shearfield.torus
from shearfield.farey import (INFINITY, ExtRational, IntegerMoebius, ONE,
                              ZERO, enumerate_edges, oriented_edge)
from shearfield.hilbert import (bracket_plan, delta_weight,
                               edge_quadrilateral)
from shearfield.torus import (EDGES, GENERATORS, TRIANGLES, _reduced_words,
                              _transform, _vertex_images, _weight_matrices,
                              cusp_condition_check, edge_class, lift_edges,
                              thurston_form, wp_gram, wp_pairing)

RNG = np.random.default_rng(31)


def _words(depth):
    """The word ball to ``depth`` as IntegerMoebius maps, in walk order."""
    return [IntegerMoebius(*entries) for shell in _reduced_words(depth)
            for _, *entries in shell]


def test_cusp_condition_examples():
    assert cusp_condition_check((0.0, 0.0, 0.0))
    assert cusp_condition_check((1.0, 1.0, -2.0))
    assert not cusp_condition_check((1.0, 1.0, 1.0))


def test_cusp_condition_tolerance_scales_with_the_shears():
    """A decimal triple summing to zero passes at any scale, though its
    float sum is -3e-9 at the first; a sum that is no rounding error
    fails however large the shears."""
    assert cusp_condition_check((100000000.1, -100000000.3, 0.2))
    assert cusp_condition_check((100.0000001, -100.0000003, 0.0000002))
    assert not cusp_condition_check((1e12, -1e12, 1.0))
    assert not cusp_condition_check((1.0, 1.0, 1.0))


def _tree_classes(max_order):
    """Class of every edge with endpoints of order <= max_order, by the
    gap recursion: {0, oo} is class 0, and in the gap (lo, hi) of class c
    the left child {lo, m} gets c + 2 and the right child {m, hi} c + 1
    (mod 3), m the mediant; the negative side is the mirror image, each
    mirrored edge of the negated class."""
    classes = {oriented_edge(ZERO, INFINITY).unordered(): 0}

    def walk(lo, hi, c, order):
        m = (lo[0] + hi[0], lo[1] + hi[1])
        for a, b, k in ((lo, m, (c + 2) % 3), (m, hi, (c + 1) % 3)):
            for sign in (1, -1):
                edge = oriented_edge(ExtRational(sign * a[0], a[1]),
                                     ExtRational(sign * b[0], b[1]))
                classes[edge.unordered()] = sign * k % 3
            if order < max_order:
                walk(a, b, k, order + 1)

    walk((0, 1), (1, 0), 0, 2)
    return classes


def test_edge_class_is_the_tree_recursion():
    edges = enumerate_edges(12)
    classes = _tree_classes(12)
    assert len(edges) == len(classes) == 8189
    for e in edges:
        assert edge_class(e) == classes[e.unordered()], e


def test_edge_classes_partition_base_triangle():
    for j, e in enumerate(EDGES):
        assert edge_class(e) == j
    # translated edges keep their class
    lifted = lift_edges(6)
    assert len(lifted) == 4371
    for img, j in lifted:
        assert edge_class(img) == j


def test_covering_group_validation():
    """Each generator lies in the commutator subgroup of the modular group,
    the kernel of its abelianization Z/6 = Z/3 x Z/2: it keeps every edge
    class (the Z/3 part), and mod 2 it is even, in A3 inside
    PSL(2, F2) = S3 (the Z/2 part).  The generators do not commute, even
    up to sign, so they span a free group of rank two; the last two are
    the inverses of the first."""
    # the identity and the two 3-cycles of PSL(2, F2) acting on 0, 1, oo
    a3 = {(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)}
    for g in GENERATORS:
        for k, e in enumerate(EDGES):
            assert edge_class(g.map_edge(e)) == k
        assert tuple(x % 2 for x in (g.a, g.b, g.c, g.d)) in a3
    a, b, a_inv, b_inv = GENERATORS
    assert (a_inv, b_inv) == (a.inverse(), b.inverse())
    ab, ba = a.compose(b), b.compose(a)
    entries = (ba.a, ba.b, ba.c, ba.d)
    assert (ab.a, ab.b, ab.c, ab.d) not in (entries,
                                            tuple(-x for x in entries))


def test_triangulation_validation():
    """The two triangles fill each class's two slots, and the gluing is a
    once-punctured torus: 1 vertex - 3 edges + 2 faces = 0."""
    slots = [s for tri in TRIANGLES for s in tri]
    assert all(slots.count(k) == 2 for k in range(len(EDGES)))
    assert 1 - len(EDGES) + len(TRIANGLES) == 0


def test_reduced_words_are_the_breadth_first_walk():
    """Each shell lists, in order, what a breadth-first frontier of maps
    builds: every word of the shell before composed with each generator
    in turn, the inverse of its last letter skipped; the identity's last
    letter is -1, the inverse of none."""
    shells = list(_reduced_words(5))
    assert shells[0] == [(-1, 1, 0, 0, 1)]
    frontier = [(None, IntegerMoebius(1, 0, 0, 1))]
    for shell in shells[1:]:
        nxt = []
        for last, g in frontier:
            for k, gen in enumerate(GENERATORS):
                if last is not None and k == last ^ 2:
                    continue
                nxt.append((k, g.compose(gen)))
        frontier = nxt
        assert shell == [(k, g.a, g.b, g.c, g.d) for k, g in frontier]
    assert [len(shell) for shell in shells] == [1, 4, 12, 36, 108, 324]


def test_lift_edges_depth_zero_and_growth():
    lifted = lift_edges(0)
    assert len(lifted) == 3
    assert {e.unordered() for e, _ in lifted} == \
        {e.unordered() for e in EDGES}
    for d in (1, 2, 3, 4):
        lifted = lift_edges(d)
        assert len(lifted) <= 2 * 3 * 3 ** d
        assert len(lifted) == 3 * (2 * 3 ** d - 1)   # free action, no overlap
        # distinct words give distinct edges, with no dedup in the walk
        assert len({e.unordered() for e, _ in lifted}) == len(lifted)


def test_lift_edges_triangle_closure():
    """Every word's three fundamental-edge images appear together."""
    lifted = {e.unordered() for e, _ in lift_edges(3)}
    for g in _words(3):
        for e in EDGES:
            assert g.map_edge(e).unordered() in lifted


def test_delta_weight_covering_invariance():
    """The class reduction rests on delta_weight(g e, g Q) = delta_weight(e,
    Q) for covering-group elements g.  Some weights vanish and others come
    from cancelling brackets, so the error is measured relative to the
    largest weight on the quadrilateral, the scale of the sum they enter."""
    lifted = lift_edges(3)
    for g in _words(2):
        for f in EDGES:
            Q = edge_quadrilateral(f)
            gQ = edge_quadrilateral(g.map_edge(f))
            want = [delta_weight(e, Q) for e, _ in lifted]
            got = [delta_weight(g.map_edge(e), gQ) for e, _ in lifted]
            scale = max(abs(w) for w in want)
            assert max(abs(a - b) for a, b in zip(got, want)) \
                <= 1e-10 * scale


def _per_lift_shear_vector(t, depth):
    """Transformed shears summed lift by lift over a walk to ``depth``."""
    quads = [edge_quadrilateral(e) for e in EDGES]
    want = [0.0, 0.0, 0.0]
    seen = set()
    for g in _words(depth):
        for j, e in enumerate(EDGES):
            img = g.map_edge(e)
            if img.unordered() in seen:
                continue
            seen.add(img.unordered())
            for i, Q in enumerate(quads):
                want[i] += t[j] * delta_weight(img, Q) / math.pi
    return want


@pytest.mark.parametrize("depth", [3, 4])
def test_hilbert_shear_vector_matches_per_lift_sum(depth):
    """Every shell of the one walk gives the transformed shear vector
    W t / pi of its own per-lift loop."""
    t = (1.0, 0.5, -1.5)
    shells = _weight_matrices(depth)
    assert len(shells) == depth + 1
    for d, W in enumerate(shells):
        got = _transform(W, t)
        want = _per_lift_shear_vector(t, d)
        for i in range(3):
            assert got[i] == pytest.approx(want[i], rel=1e-12, abs=0.0)


def _delta_weight_shells(depth):
    """W after each shell, as hex, summed by delta_weight lift by lift in
    walk order: each lifted edge over each fundamental quadrilateral, with
    no vertex image, main term or bracket plan shared."""
    quads = [edge_quadrilateral(f) for f in EDGES]
    W = [[0.0] * 3 for _ in quads]
    out = []
    for shell in _reduced_words(depth):
        for _, *entries in shell:
            g = IntegerMoebius(*entries)
            for k, e in enumerate(EDGES):
                for i, Q in enumerate(quads):
                    W[i][k] += delta_weight(g.map_edge(e), Q)
        out.append([[w.hex() for w in row] for row in W])
    return out


@pytest.mark.parametrize("depth", range(5))
def test_weight_matrices_are_delta_weight_sums_bitwise(depth):
    """Every shell is, bit for bit, the W that delta_weight builds."""
    got = [[[w.hex() for w in row] for row in shell]
           for shell in _weight_matrices(depth)]
    assert got == _delta_weight_shells(depth)


@pytest.mark.parametrize("chunk", [1, 7])
def test_weight_matrices_flushed_in_chunks_bitwise(monkeypatch, chunk):
    """With a chunk of 7 words, every shell of word length 2 or more is
    evaluated in several slices; with a chunk of 1, some slices hold only
    a ray lift (a vertex image at oo) or only a lift with an end on a plan
    vertex, so that every entry of their main terms is patched.  Each
    still gives the delta_weight sum."""
    plan_points = {x for e in EDGES
                   for x in bracket_plan(edge_quadrilateral(e)).points}
    images = [[col[0] for col in _vertex_images([w])]
              for shell in _reduced_words(4) for w in shell]
    assert any(math.inf in im for im in images)
    assert any(plan_points & set(im) for im in images)
    monkeypatch.setattr(shearfield.torus, "_WORD_CHUNK", chunk)
    got = [[[w.hex() for w in row] for row in shell]
           for shell in _weight_matrices(4)]
    assert got == _delta_weight_shells(4)


def test_weight_matrices_bits_to_depth_8():
    """The sha256 of every shell of the depth-8 walk, each entry written
    as float.hex, row by row and one shell per line.  The digest was
    recorded at commit 92b10ce, where each lift's main terms were summed
    one lift at a time, before the columnar main-term kernel."""
    text = "\n".join(" ".join(w.hex() for row in W for w in row)
                     for W in _weight_matrices(8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d1aacfb7f4117658f91f594053f858d74d336a17447eaa861f9cd4c00c09b37c")


def test_weight_matrices_take_one_log_per_vertex_image_and_plan_vertex(
        monkeypatch):
    """Each vertex image g(0), g(1), g(oo) ends two classes' lifts, yet
    log|x - image| is taken once per plan vertex x: at most 5 * 3 = 15
    math.log calls per word of the depth-5 ball (a ray's term reuses the
    log of its finite end)."""
    calls = []
    log = math.log

    def counting(*args):
        calls.append(args)
        return log(*args)

    words = sum(len(shell) for shell in _reduced_words(5))
    points = {x for e in EDGES
              for x in bracket_plan(edge_quadrilateral(e)).points}
    assert len(points) == 5
    monkeypatch.setattr(math, "log", counting)
    _weight_matrices(5)
    assert 0 < len(calls) <= 15 * words


def test_vertex_images_equal_exact_images_bitwise():
    """The float images of 0, 1 and oo read off the matrix entries are
    float(g(x)), the sign of zero and infinity included, across the
    depth-4 ball; the last two maps send oo to 0 through a denominator of
    either sign."""
    words = _words(4)
    words += [IntegerMoebius(0, 1, -1, 0), IntegerMoebius(0, -1, 1, 0)]
    # shell entries: the last letter is not read
    entries = [(None, g.a, g.b, g.c, g.d) for g in words]
    columns = _vertex_images(entries)
    for x, column in zip((ZERO, ONE, INFINITY), columns):
        assert ([w.hex() for w in column]
                == [float(g(x)).hex() for g in words]), x
    assert [w.hex() for w in columns[2][-2:]] == [(0.0).hex()] * 2


def test_thurston_form_structure():
    t1 = (1.0, -1.0, 0.0)
    t2 = (0.0, 1.0, -1.0)
    assert thurston_form(t1, t1) == 0.0
    assert thurston_form(t1, t2) == -thurston_form(t2, t1)
    assert thurston_form(t1, t2) != 0.0
    # bilinear
    t3 = (0.4, 0.1, -0.5)
    lhs = thurston_form(t1, tuple(2 * a + b for a, b in zip(t2, t3)))
    rhs = 2 * thurston_form(t1, t2) + thurston_form(t1, t3)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_thurston_nondegenerate_on_cusp_subspace():
    u1 = (1.0, -1.0, 0.0)
    u2 = (0.0, 1.0, -1.0)
    assert abs(thurston_form(u1, u2)) == pytest.approx(3.0)


def test_wp_pairing_zero_and_bilinearity():
    t1 = (1.0, -1.0, 0.0)
    zero = (0.0, 0.0, 0.0)
    assert wp_pairing(t1, zero, 4) == [0.0] * 5
    t2 = (0.0, 1.0, -1.0)
    t3 = (1.0, 1.0, -2.0)
    lhs = wp_pairing(t1, tuple(x + 0.5 * y for x, y in zip(t2, t3)), 4)[-1]
    rhs = wp_pairing(t1, t2, 4)[-1] + 0.5 * wp_pairing(t1, t3, 4)[-1]
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_wp_pairing_rejects_cusp_violation():
    with pytest.raises(ValueError):
        wp_pairing((1.0, 0.0, 0.0), (0, 1, -1), 3)


def test_wp_symmetry_at_depth():
    t1 = (1.0, -1.0, 0.0)
    t2 = (0.0, 1.0, -1.0)
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


def test_one_walk_gives_every_depth():
    """Entry k of a depth-6 call equals the last entry of a depth-k call:
    the shells are snapshotted as they close, not one step early or late."""
    t1 = (-3.0, 2.0, 1.0)
    t2 = (1.0, -2.0, 1.0)
    grams = wp_gram(6)
    pairs = wp_pairing(t1, t2, 6)
    assert len(grams) == len(pairs) == 7
    for k in range(7):
        assert grams[k] == wp_gram(k)[-1]
        assert grams[k]["depth"] == k
        assert pairs[k] == wp_pairing(t1, t2, k)[-1]
