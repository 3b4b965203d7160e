"""Invariant shear calculus on the once-punctured torus.

The once-punctured torus is uniformized by the commutator subgroup of the
modular group, a free group of rank two; the Farey tessellation descends to
an ideal triangulation with two triangles, three edges and a single cusp
where every edge ends twice.  A tangent vector to its deformation space is a
float sequence of the three edge shears summing to zero (the cusp condition).

The surface is three constants: the fundamental edges (the sides of the
base triangle), the two triangles' slot order, and the two generators of
the covering group with their inverses.  A tessellation edge's quotient edge
is read off the Stern-Brocot path to its younger endpoint: the gaps of the
tree, walked from (0, oo) and from (-oo, 0), give a left child the class
of its parent gap plus 2 and a right child plus 1 (mod 3), with {0, oo} of
class 0.

Everything the pairing needs at every truncation depth up to d comes from
one walk of the word ball to depth d: the 3x3 edge-weight matrix W, copied
as each shell of words closes, with W[i][k] the sum of edge weights of the
distinct class-k lifts over the quadrilateral of fundamental edge i.  The
walk is evaluated as columns: the images of the three fundamental vertices
under a slice of words are three end columns, each class the pair of
columns its edge joins, so hilbert.edge_weights takes each image's
log|x - image| once per plan vertex x for the two classes it ends.  The
transformed shear vector of a tangent triple t is W t / pi (unhalved
shears: the invariant field is a plain sum of elementary fields, one per
edge).  The pairing is twice the antisymmetric corner form of the
triangulation applied against the transformed shears.
"""

from __future__ import annotations

import math

from .farey import (FareyEdge, INFINITY, IntegerMoebius, ONE, ZERO, left_sum,
                    oriented_edge)
from .hilbert import bracket_plan, edge_quadrilateral, edge_weights

# most words of a shell _weight_matrices evaluates at once, so the float
# images and weights of a slice add O(_WORD_CHUNK) memory to the shells'
_WORD_CHUNK = 2048


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

# Fundamental representatives of the three quotient edges, indexed by
# edge_class: the sides of the base triangle.
EDGES = (oriented_edge(ZERO, INFINITY), oriented_edge(ONE, INFINITY),
         oriented_edge(ZERO, ONE))
# Each triangle's edge slots in the cyclic order of the surface orientation;
# both triangles traverse the classes in the same order.  The corner form
# changes sign with that order, and this one makes the pairing positive
# definite: the corner-form convention leaves the global sign free, so
# positivity is the anchor that fixes it.
TRIANGLES = ((0, 1, 2), (0, 1, 2))
# Generators a, b of the covering group, the commutator subgroup of the
# modular group, in walk order (a, b, a^-1, b^-1): letter k has inverse k ^ 2.
GENERATORS = (IntegerMoebius(2, 1, 1, 1), IntegerMoebius(1, 1, 1, 2),
              IntegerMoebius(1, -1, -1, 2), IntegerMoebius(2, -1, -1, 1))


def edge_class(edge: FareyEdge) -> int:
    """Quotient edge of a tessellation edge: 0, 1 or 2, in O(log) of its
    endpoints.

    {0, oo} is class 0.  Every other edge joins its younger end u (the
    larger |num| + den) to one of u's two Stern-Brocot parents.  Walking
    the tree's gaps from (0, oo), the left child of a class-c gap has class
    c + 2 and the right child c + 1 (mod 3), so for u > 0 the walk to u's
    gap, read off u's partial quotients as in farey._walk (the last block
    one step short), reaches class c = (right steps) + 2 (left steps);
    the edge is the right child, c + 1, when its other end is the parent
    farther from 0 (oo included), else the left child, c + 2.  An edge with
    u < 0 has the negative class of its mirror image.

    No command calls it: the tests check the covering group's generators
    against it, and a walk of the tree's gaps must agree with it.
    """
    u, v = edge.initial, edge.terminal
    if abs(u.num) + u.den < abs(v.num) + v.den:
        u, v = v, u
    if u.num == 0 or u.den == 0:
        return 0
    x, y = abs(u.num), u.den
    c, right = 0, True
    while y:
        q, r = divmod(x, y)
        c += (q if r else q - 1) * (1 if right else 2)
        x, y, right = y, r, not right
    far = v.den == 0 or abs(v.num) * u.den > abs(u.num) * v.den
    c += 1 if far else 2
    return (c if u.num > 0 else -c) % 3


# ---------------------------------------------------------------------------
# tangent vectors and lifts
# ---------------------------------------------------------------------------

def cusp_condition_check(t) -> bool:
    """True iff the doubled shear sum at the cusp vanishes: to 1e-12, or to
    2^-50 times the shears' summed magnitude where that is larger, a few
    units of rounding of the sum and of the shears' decimal input.  So a
    triple that sums to zero as decimals passes at any scale."""
    t = [float(v) for v in t]
    mass = left_sum(map(abs, t))
    return abs(2.0 * left_sum(t)) < max(1e-12, 2.0 ** -50 * mass)


def _reduced_words(depth: int):
    """Freely reduced words in GENERATORS of length 0..depth, breadth-first
    in the generator order; deterministic.  Yields one shell per length, a
    list of (last letter, a, b, c, d) with a..d the word's matrix entries;
    each shell is built from the one before, appending every letter k but
    the inverse k ^ 2 of the last.  The identity's last letter is -1, and
    -1 ^ 2 is no letter."""
    gens = [(k, g.a, g.b, g.c, g.d) for k, g in enumerate(GENERATORS)]
    shell = [(-1, 1, 0, 0, 1)]
    for length in range(depth + 1):
        yield shell
        if length < depth:
            shell = [(k, a * p + b * r, a * q + b * s,
                      c * p + d * r, c * q + d * s)
                     for last, a, b, c, d in shell
                     for k, p, q, r, s in gens if k != last ^ 2]


def lift_edges(depth: int):
    """All word-translates of the fundamental edges up to the given word
    length, each tagged with its quotient edge index, in walk order.  No
    lift repeats: the covering group is free, so no element but the
    identity fixes an edge (an edge flip has order 2), and the fundamental
    edges lie in distinct orbits; distinct reduced words thus give distinct
    lifts."""
    return [(IntegerMoebius(*entries).map_edge(e), j)
            for shell in _reduced_words(depth) for _, *entries in shell
            for j, e in enumerate(EDGES)]


def _vertex_images(words) -> list:
    """The float columns of g(0), g(1) and g(oo), that is b/d, (a + b)/(c +
    d) and a/c, over the words (last letter, a, b, c, d) of a shell: the
    correctly rounded quotient of the unreduced image, which is the reduced
    one's; + 0.0 gives zero the positive sign that ExtRational's positive
    denominator gives."""
    return [[b / d + 0.0 if d else math.inf for _, a, b, c, d in words],
            [(a + b) / s + 0.0 if (s := c + d) else math.inf
             for _, a, b, c, d in words],
            [a / c + 0.0 if c else math.inf for _, a, b, c, d in words]]


def _weight_matrices(depth: int) -> list:
    """[W_0, ..., W_depth] from one walk of the word ball: W_d[i][k] is the
    summed weight of the class-k lifts of word length <= d on the
    quadrilateral of fundamental edge i.  The walk to depth d is a prefix
    of the longer walk, so W_d is bitwise what a walk to depth d builds.

    Each entry is the sum of delta_weight(g.map_edge(e_k), Q_i) in walk
    order, bit for bit, from work done in batches: the three
    quadrilaterals' bracket plans once per walk; each shell in slices of
    _WORD_CHUNK words, and per slice one edge_weights call on the image
    columns of 0, 1 and oo, with class k the pair of columns of EDGES[k],
    whose weights are added to W one by one.  W is copied as each shell
    ends."""
    plans = [bracket_plan(edge_quadrilateral(e)) for e in EDGES]
    vertices = (ZERO, ONE, INFINITY)
    pairs = [(vertices.index(e.initial), vertices.index(e.terminal))
             for e in EDGES]
    W = [[0.0] * len(EDGES) for _ in plans]
    shells = []
    for shell in _reduced_words(depth):
        for start in range(0, len(shell), _WORD_CHUNK):
            words = shell[start:start + _WORD_CHUNK]
            images = _vertex_images(words)
            for k, per_plan in enumerate(edge_weights(plans, images, pairs)):
                for i, weights in enumerate(per_plan):
                    W[i][k] = left_sum(weights, W[i][k])
        shells.append([row[:] for row in W])
    return shells


def _transform(W: list, t) -> tuple:
    """W t / pi for a shear sequence t, each row summed left to right."""
    return tuple(left_sum(w * v for w, v in zip(row, t)) / math.pi
                 for row in W)


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

def thurston_form(t1, t2) -> float:
    """Antisymmetric corner form: half the sum over triangle corners of the
    cross products of consecutive edge weights in the cyclic slot order."""
    return 0.5 * left_sum(t1[e] * t2[e2] - t1[e2] * t2[e]
                          for slots in TRIANGLES
                          for e, e2 in zip(slots, slots[1:] + slots[:1]))


def wp_pairing(t1, t2, depth: int) -> list:
    """Weil-Petersson pairing at every depth 0..depth, from one walk: twice
    the corner form of the first vector against the transformed shears of
    the second."""
    if not (cusp_condition_check(t1) and cusp_condition_check(t2)):
        raise ValueError("tangent vectors must satisfy the cusp condition")
    return [2.0 * thurston_form(t1, _transform(W, t2))
            for W in _weight_matrices(depth)]


def wp_gram(depth: int) -> list:
    """Gram matrix of the pairing on the standard cusp-subspace basis
    (1, -1, 0), (0, 1, -1), with eigenvalues, at every depth 0..depth, from
    one walk.  The eigenvalues, ascending, are those of the symmetrized
    Gram [[p, m], [m, s]], m the mean of the two off-diagonal entries:
    (p + s)/2 -+ hypot((p - s)/2, m)."""
    basis = [(1.0, -1.0, 0.0), (0.0, 1.0, -1.0)]
    out = []
    for d, W in enumerate(_weight_matrices(depth)):
        hs = [_transform(W, b) for b in basis]
        gram = [[2.0 * thurston_form(bi, hj) for hj in hs] for bi in basis]
        (p, g01), (g10, s) = gram
        mean = 0.5 * (p + s)
        radius = math.hypot(0.5 * (p - s), 0.5 * (g01 + g10))
        out.append({"basis": [list(b) for b in basis],
                    "gram": gram,
                    "eigenvalues": [mean - radius, mean + radius],
                    "depth": d})
    return out
