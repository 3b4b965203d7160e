"""Invariant shear calculus on the once-punctured torus.

The once-punctured torus is uniformized by the commutator subgroup of the
modular group, a free group of rank two; the Farey tessellation descends to
an ideal triangulation with two triangles, three edges and a single cusp
where every edge ends twice.  Tangent vectors to its deformation space are
triples of edge shears summing to zero (the cusp condition).

Edge classification uses the abelianization of the modular group: the group
acts simply transitively on oriented tessellation edges, so an oriented
edge corresponds to a unique group element, and its residue in Z/6 (kernel
= the commutator subgroup) labels the quotient edge.  The three sides of
the base triangle land in the three distinct unordered-residue classes
{0,3}, {2,5}, {1,4}.

Everything the pairing needs at every truncation depth up to d comes from
one walk of the word ball to depth d: the 3x3 edge-weight matrix W, copied
as each shell of words closes, with W[i][k] the sum of edge weights of the
distinct class-k lifts over the quadrilateral of fundamental edge i.  The
transformed shear vector of a tangent triple t is W t / pi (unhalved
shears: the invariant field is a plain sum of elementary fields, one per
edge).  Weights are invariant under the covering group, so a lifted
representative of a class has its class's transformed shear.  The pairing
is twice the antisymmetric corner form of the triangulation applied against
the transformed shears.
"""

from __future__ import annotations

import math

from .farey import (ExtRational, FareyEdge, IDENTITY, INFINITY, IntegerMoebius,
                    ONE, ZERO, oriented_edge)
from .hilbert import (bracket_plan, bracket_value, edge_quadrilateral,
                      hilbert_main_term)


# ---------------------------------------------------------------------------
# modular-group bookkeeping
# ---------------------------------------------------------------------------

def moebius_abelianized(g: IntegerMoebius) -> int:
    """Image of g in Z/6, the abelianization of the modular group.

    Computed by peeling translations: with S: x -> -1/x and T: x -> x + 1,
    every element is a word in S, T; the map sends T to 1 and S to 3.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    total = 0
    while c != 0:
        q = a // c
        total += q
        a, b = a - q * c, b - q * d
        # multiply by S^{-1} on the left: (a b; c d) -> (c, d; -a, -b)
        a, b, c, d = c, d, -a, -b
        total += 3
    if a < 0:
        a, b, d = -a, -b, -d     # projective sign
    # now (1 b; 0 1) = T^b
    total += b
    return total % 6


def edge_group_element(initial: ExtRational, terminal: ExtRational) -> IntegerMoebius:
    """The unique modular transformation carrying the oriented edge
    (oo -> 0) onto (initial -> terminal)."""
    det = initial.num * terminal.den - terminal.num * initial.den
    if abs(det) != 1:
        raise ValueError("endpoints are not Farey-adjacent")
    return IntegerMoebius(initial.num, det * terminal.num,
                          initial.den, det * terminal.den)


def edge_class(edge: FareyEdge) -> int:
    """Residue pair index of an unoriented edge: 0, 1 or 2.

    Classes are the unordered residue pairs {0,3}, {2,5}, {1,4} of Z/6,
    realized by the base-triangle sides {0,oo}, {0,1}, {1,oo}.
    """
    r = moebius_abelianized(edge_group_element(edge.initial, edge.terminal))
    return r % 3


class SurfaceTriangulation:
    """Combinatorial ideal triangulation of the once-punctured torus.

    ``edges`` are fundamental tessellation representatives of the three
    quotient edges, indexed by their residue class; ``triangles`` list each
    triangle's edge slots in the cyclic order induced by the surface
    orientation; every edge has both ends at the single cusp.  Equal only
    to a SurfaceTriangulation with the same (edges, triangles), and hashed
    as that pair.
    """

    __slots__ = ("edges", "triangles")

    def __init__(self, edges: tuple, triangles: tuple):
        slots = [s for tri in triangles for s in tri]
        for j in range(len(edges)):
            if slots.count(j) != 2:
                raise ValueError("each edge must bound exactly two triangle "
                                 "slots")
        # punctured torus: 1 vertex - 3 edges + 2 faces = 0
        if len(edges) - len(triangles) != 1:
            raise ValueError("not a once-punctured torus gluing")
        self.edges = edges
        self.triangles = triangles

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.edges, self.triangles)
                    == (other.edges, other.triangles))
        return NotImplemented

    def __hash__(self):
        return hash((self.edges, self.triangles))

    def __repr__(self) -> str:
        return (f"SurfaceTriangulation(edges={self.edges!r}, "
                f"triangles={self.triangles!r})")


class CoveringGroup:
    """Two modular generators of the covering group of the quotient.  Equal
    only to a CoveringGroup with the same (gen_a, gen_b), and hashed as that
    pair."""

    __slots__ = ("gen_a", "gen_b")

    def __init__(self, gen_a: IntegerMoebius, gen_b: IntegerMoebius):
        for g in (gen_a, gen_b):
            if moebius_abelianized(g) != 0:
                raise ValueError("generator is not in the commutator "
                                 "subgroup; it would not act freely on the "
                                 "quotient data")
        ab = gen_a.compose(gen_b)
        ba = gen_b.compose(gen_a)
        if (ab.a, ab.b, ab.c, ab.d) in ((ba.a, ba.b, ba.c, ba.d),
                                        (-ba.a, -ba.b, -ba.c, -ba.d)):
            raise ValueError("generators commute; the group is not free of "
                             "rank two")
        self.gen_a = gen_a
        self.gen_b = gen_b

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.gen_a, self.gen_b) == (other.gen_a, other.gen_b)
        return NotImplemented

    def __hash__(self):
        return hash((self.gen_a, self.gen_b))

    def __repr__(self) -> str:
        return f"CoveringGroup(gen_a={self.gen_a!r}, gen_b={self.gen_b!r})"

    def generators(self):
        g1, g2 = self.gen_a, self.gen_b
        return [g1, g2, g1.inverse(), g2.inverse()]


def punctured_torus() -> tuple[SurfaceTriangulation, CoveringGroup]:
    """The standard once-punctured torus: quotient of the tessellation by
    the commutator subgroup of the modular group, with all shears zero at
    the basepoint.

    Fundamental edges (by residue class): {0, oo}, {0, 1}, {1, oo}, the
    sides of the base triangle.  Both triangles traverse the classes in the
    same cyclic order; the corner form changes sign with that cyclic order,
    and the order below is the one making the pairing positive definite
    (the adopted corner-form convention leaves the global sign free, so
    positivity is the anchor that fixes it).
    """
    e0 = oriented_edge(ZERO, INFINITY)   # residue class 0
    e1 = oriented_edge(ONE, INFINITY)    # residue class 1
    e2 = oriented_edge(ZERO, ONE)        # residue class 2
    tri = SurfaceTriangulation(
        edges=(e0, e1, e2),
        triangles=((0, 1, 2), (0, 1, 2)),
    )
    group = CoveringGroup(IntegerMoebius(2, 1, 1, 1),
                          IntegerMoebius(1, 1, 1, 2))
    return tri, group


# the one punctured torus every function below works on
_TRI, _GROUP = punctured_torus()


# ---------------------------------------------------------------------------
# tangent vectors and lifts
# ---------------------------------------------------------------------------

class TangentShear:
    """Shear triple on the quotient edges; tangent vectors satisfy the cusp
    condition that all six edge ends at the puncture sum to zero.  Equal
    only to a TangentShear with the same values, and hashed as the 1-tuple
    (values,)."""

    __slots__ = ("values",)

    def __init__(self, v0, v1, v2):
        self.values = (float(v0), float(v1), float(v2))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.values,) == (other.values,)
        return NotImplemented

    def __hash__(self):
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"TangentShear(values={self.values!r})"

    def __getitem__(self, j):
        return self.values[j]


def cusp_condition_check(t) -> bool:
    """True iff the doubled shear sum at the cusp vanishes (tol 1e-12)."""
    vals = t.values if isinstance(t, TangentShear) else tuple(t)
    return abs(2.0 * sum(float(v) for v in vals)) < 1e-12


def _reduced_words(group: CoveringGroup, depth: int):
    """Freely reduced words of length <= depth, breadth-first, with the
    generator order (a, b, a^-1, b^-1); deterministic.  Yields (word length,
    element); the frontier keeps only each word's last letter (the letter k
    has inverse k ^ 2)."""
    gens = group.generators()
    frontier = [(None, IDENTITY)]
    yield 0, IDENTITY
    for length in range(1, depth + 1):
        nxt = []
        for last, g in frontier:
            for k, gen in enumerate(gens):
                if last is not None and k == last ^ 2:
                    continue
                g2 = g.compose(gen)
                nxt.append((k, g2))
                yield length, g2
        frontier = nxt


def lift_edges(group: CoveringGroup, depth: int):
    """All word-translates of the fundamental edges up to the given word
    length, each tagged with its quotient edge index, in walk order.  No
    lift repeats: the covering group is free, so no element but the
    identity fixes an edge (an edge flip has order 2), and the fundamental
    edges lie in distinct orbits; distinct reduced words thus give distinct
    lifts."""
    return [(g.map_edge(e), j) for _, g in _reduced_words(group, depth)
            for j, e in enumerate(_TRI.edges)]


def _vertex_image(g: IntegerMoebius, p: ExtRational) -> float:
    """float(g(p)) straight from the matrix entries: the correctly rounded
    quotient of the unreduced image, which is the reduced one's; + 0.0 gives
    zero the positive sign that ExtRational's positive denominator gives."""
    num = g.a * p.num + g.b * p.den
    den = g.c * p.num + g.d * p.den
    return num / den + 0.0 if den else math.inf


def _weight_matrices(depth: int) -> list:
    """[W_0, ..., W_depth] from one walk of the word ball: W_d[i][k] is the
    summed weight of the class-k lifts of word length <= d on the
    quadrilateral of fundamental edge i.  The walk to depth d is a prefix
    of the longer walk, so W_d is bitwise what a walk to depth d builds.

    Each entry is delta_weight(g.map_edge(e_k), Q_i), bit for bit, from
    work done once: the three quadrilaterals' bracket plans once per walk;
    per word, the float images of the fundamental edges' ends; per lift,
    the main term at the five finite vertices the plans read."""
    plans = [bracket_plan(edge_quadrilateral(e)) for e in _TRI.edges]
    xs = sorted({x for P in plans for x in P.points})
    vertices = list(dict.fromkeys(p for e in _TRI.edges
                                  for p in (e.initial, e.terminal)))
    slots = [(vertices.index(e.initial), vertices.index(e.terminal))
             for e in _TRI.edges]
    W = [[0.0] * len(_TRI.edges) for _ in plans]
    shells = []
    for length, g in _reduced_words(_GROUP, depth):
        if length > len(shells):       # the shell length - 1 is closed
            shells.append([row[:] for row in W])
        images = [_vertex_image(g, p) for p in vertices]
        for k, (s, t) in enumerate(slots):
            lift = (images[s], images[t])
            values = {x: hilbert_main_term(lift, x) for x in xs}
            for i, P in enumerate(plans):
                W[i][k] += bracket_value(P, values)
    return shells + [W]


def _transform(W: list, t: TangentShear) -> TangentShear:
    """W t / pi, summed in a fixed order."""
    return TangentShear(*(sum(w * v for w, v in zip(row, t.values)) / math.pi
                          for row in W))


def hilbert_shear_vector(t: TangentShear, depth: int) -> TangentShear:
    """Transformed shears of all three quotient edges at truncation
    ``depth``: the weight matrix applied to the (unhalved) shears, divided
    by pi to match the normalized transform."""
    if not cusp_condition_check(t):
        raise ValueError("shear triple violates the cusp condition")
    return _transform(_weight_matrices(depth)[-1], t)


def invariant_hilbert_shear(t: TangentShear, edge, depth: int) -> float:
    """Transformed shear of one quotient edge at truncation ``depth``.

    ``edge`` is a quotient index (0, 1, 2) or any lifted representative,
    which stands for its class: the weights are invariant under the
    covering group, so every representative has its class's value.
    """
    j = edge if isinstance(edge, int) else edge_class(edge)
    return hilbert_shear_vector(t, depth)[j]


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

def thurston_form(t1, t2) -> float:
    """Antisymmetric corner form: half the sum over triangle corners of the
    cross products of consecutive edge weights in the cyclic slot order."""
    v1 = t1.values if isinstance(t1, TangentShear) else tuple(t1)
    v2 = t2.values if isinstance(t2, TangentShear) else tuple(t2)
    total = 0.0
    for slots in _TRI.triangles:
        k = len(slots)
        for i in range(k):
            e, e2 = slots[i], slots[(i + 1) % k]
            total += v1[e] * v2[e2] - v1[e2] * v2[e]
    return 0.5 * total


def wp_pairing(t1: TangentShear, t2: TangentShear, depth: int) -> list:
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
    basis = [TangentShear(1.0, -1.0, 0.0), TangentShear(0.0, 1.0, -1.0)]
    out = []
    for d, W in enumerate(_weight_matrices(depth)):
        hs = [_transform(W, b) for b in basis]
        gram = [[2.0 * thurston_form(bi, hj) for hj in hs] for bi in basis]
        (p, g01), (g10, s) = gram
        mean = 0.5 * (p + s)
        radius = math.hypot(0.5 * (p - s), 0.5 * (g01 + g10))
        out.append({"basis": [list(b.values) for b in basis],
                    "gram": gram,
                    "eigenvalues": [mean - radius, mean + radius],
                    "depth": d})
    return out
