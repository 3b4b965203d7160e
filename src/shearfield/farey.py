"""Exact combinatorics of the Farey tessellation.

Vertices are extended rationals (with a single point at infinity, stored as
1/0), edges join Farey-adjacent fractions ``p/q``, ``r/s`` with
``|p*s - r*q| = 1``, and the tessellation is swept out from the base triangle
(0, 1, oo) by repeated mediants.  In a mediant oo takes its sign from its
position, -1/0 as the first argument and +1/0 as the second, so the mediant
of two adjacent vertices in counterclockwise order is the vertex born on
the arc between them: that of a vertex's parents is the vertex.

Every edge carries a canonical orientation: the edge points to the left as
seen from the base triangle, which concretely means the counterclockwise
boundary arc from the initial to the terminal endpoint avoids the vertices
0, 1, oo (other than the edge's own endpoints).  No edge crosses {0, oo} or
{1, oo}, so this is an integer rule: a finite edge runs from its smaller to
its larger end (one cross-multiplication), and {n, oo} runs n -> oo for
n >= 1, oo -> n otherwise.  The fan of edges sharing a tip ``p`` is indexed
by the integers so that consecutive edges are adjacent, ``e_0`` has initial
point ``p`` and ``e_1`` has terminal point ``p``; when ``p`` is itself a
vertex of the base triangle this anchoring is still unambiguous and we keep
it (the adjacent pair with opposite roles at ``p`` is unique).  One
Stern-Brocot walk on the integers gives a tip its Farey order and the
entries of its fan map (fan_entries); farey_order reads the order off
it, fan_edge and frame_index read the entries as integers (fan_index
and ShearFunction's index through frame_index), and fan_moebius dresses
them as an IntegerMoebius.

All arithmetic is exact over Python integers; denominators of deep vertices
grow like Fibonacci numbers, so fixed-width integers would overflow around
combinatorial depth 90.

As the base module every other one imports, farey also holds the package's
shared Value protocol and left_sum, the one way it adds floats.
"""

from __future__ import annotations

import math


class Value:
    """Base of the package's value classes.  An instance is equal only to
    an instance of the same class with equal slots, hashes as the tuple of
    its slots, and prints as Class(slot=value, ...)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        slots = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{self.__class__.__name__}({slots})"


def left_sum(values, start=0.0):
    """start + v1 + v2 + ... over values, added left to right and rounded
    at every step.  Every float sum in the package goes through here,
    because its printed bits depend on that order: sum() compensates from
    Python 3.12 on, and math.fsum always does, so either gives other bits."""
    total = start
    for v in values:
        total += v
    return total


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den as a reduced (num, den) pair: the sign on the numerator, the
    gcd divided out, and k/0 read as oo = (1, 0).  0/0 raises
    ZeroDivisionError.  ExtRational and the shear-file reader both reduce
    through here."""
    if not den:
        if not num:
            raise ZeroDivisionError("0/0 is not a point of the circle")
        return 1, 0
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


class ExtRational(Value):
    """Reduced fraction on the extended real line; oo is stored as 1/0.

    Value's equality and hash read its slots (num, den), so it is equal
    only to an ExtRational with the same pair and hashes as that pair.
    Its repr is the fraction (1/2, oo)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num, self.den = reduced(int(num), int(den))

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    def __float__(self) -> float:
        if self.den == 0:
            return math.inf
        return self.num / self.den

    def __lt__(self, other) -> bool:
        if self.is_infinity or other.is_infinity:
            raise ValueError("infinity has no place in the linear order; "
                             "use circular predicates")
        return self.num * other.den < other.num * self.den

    def __repr__(self) -> str:
        if self.is_infinity:
            return "oo"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


INFINITY = ExtRational(1, 0)
ZERO = ExtRational(0, 1)
ONE = ExtRational(1, 1)


class FareyEdge(Value):
    """Oriented tessellation edge with exact rational endpoints.

    The determinant condition |p*s - r*q| = 1 (with oo = 1/0) is enforced;
    the orientation is whatever the caller supplies, with
    :func:`oriented_edge` producing the canonical one.
    """

    __slots__ = ("initial", "terminal")

    def __init__(self, initial: ExtRational, terminal: ExtRational):
        i, t = initial, terminal
        if not isinstance(i, ExtRational) or not isinstance(t, ExtRational):
            raise TypeError("FareyEdge endpoints must be ExtRational")
        if abs(i.num * t.den - t.num * i.den) != 1:
            raise ValueError(f"{i} and {t} are not Farey-adjacent")
        self.initial = i
        self.terminal = t

    def to_json(self):
        """Serialize as [p_num, p_den, q_num, q_den]; oo is [1, 0]."""
        return [self.initial.num, self.initial.den,
                self.terminal.num, self.terminal.den]


class IntegerMoebius(Value):
    """Element of PSL(2, Z) acting as x -> (a x + b) / (c x + d); equal
    entries make equal maps (a matrix, not its projective class)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("integer Moebius map must have determinant 1")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __call__(self, x: ExtRational) -> ExtRational:
        """The map at an extended rational, exactly (oo = 1/0 goes to
        a/c)."""
        return ExtRational(self.a * x.num + self.b * x.den,
                           self.c * x.num + self.d * x.den)

    def compose(self, other: "IntegerMoebius") -> "IntegerMoebius":
        return IntegerMoebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def map_edge(self, e: FareyEdge) -> FareyEdge:
        return FareyEdge(self(e.initial), self(e.terminal))


# ---------------------------------------------------------------------------
# circular order on the extended line
# ---------------------------------------------------------------------------

def _before(a, b) -> bool:
    """a < b in the order of the circle cut at oo: the reals increasing,
    then oo (an ExtRational's 1/0, or an infinite float).  Exact for two
    ExtRationals; otherwise both are compared as floats."""
    if isinstance(a, ExtRational) and isinstance(b, ExtRational):
        return not a.is_infinity and (b.is_infinity
                                      or a.num * b.den < b.num * a.den)
    a, b = float(a), float(b)
    return not math.isinf(a) and (math.isinf(b) or a < b)


def in_ccw_arc(u, w, v) -> bool:
    """True if w lies strictly inside the counterclockwise arc from u to v.

    Counterclockwise means increasing along the reals, passing through oo
    between +oo and -oo (the image of the upper half-plane boundary under
    the disk model).  The arc is empty when u and v are the same point.
    """
    if _before(u, v):
        return _before(u, w) and _before(w, v)
    return _before(v, u) and (_before(u, w) or _before(w, v))


def runs_forward(un: int, ud: int, vn: int, vd: int) -> bool:
    """True when u -> v is the canonical orientation of the edge {u, v},
    u = un/ud and v = vn/vd reduced with oo as 1/0: the integer rule of
    the module docstring, the smaller finite end first, n -> oo for n >= 1
    and oo -> n otherwise."""
    if vd == 0:
        return un >= 1
    if ud == 0:
        return vn < 1
    return un * vd < vn * ud


def oriented_edge(u: ExtRational, v: ExtRational) -> FareyEdge:
    """The canonically oriented tessellation edge on {u, v} (see
    runs_forward).  A pair that is not Farey-adjacent raises FareyEdge's
    ValueError."""
    if runs_forward(u.num, u.den, v.num, v.den):
        return FareyEdge(u, v)
    return FareyEdge(v, u)


# ---------------------------------------------------------------------------
# mediants and the Farey order
# ---------------------------------------------------------------------------

def mediant(p, q) -> ExtRational:
    """Mediant (a+c)/(b+d) of two Farey-adjacent extended rationals.

    oo takes its side from its position: as p, where a counterclockwise
    arc from p starts, it enters as -1/0; as q, where an arc to q ends,
    as +1/0.  So mediant(oo, 0) is -1 and mediant(0, oo) is 1: with p
    and q in counterclockwise order the mediant is the vertex born on the
    arc from p to q.
    """
    pn = -1 if p.is_infinity else p.num
    if abs(pn * q.den - q.num * p.den) != 1:
        raise ValueError(f"{p} and {q} are not Farey-adjacent")
    return ExtRational(pn + q.num, p.den + q.den)


def _walk(num: int, den: int):
    """(order, lo, hi) of a finite nonzero reduced num/den from its
    continued fraction, lo and hi as (num, den) pairs.

    The Stern-Brocot walk towards |p| starts at lo = 0/1, hi = 1/0 and
    replaces one endpoint by the mediant until the mediant is |p|.  Each
    partial quotient q of |p| is a block of q steps in one direction, taken
    at once, so the cost is O(log) in the size of p; the last block stops one
    step short, where lo and hi are the parents.  The order is 1 plus the
    sum of the partial quotients.  For negative p the result is mirrored
    (hi may then be (-1, 0), which is oo).
    """
    x, y = abs(num), den
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0
    order, right = 1, True
    while y:
        q, r = divmod(x, y)
        order += q
        steps = q if r else q - 1
        if right:
            lo_n, lo_d = lo_n + steps * hi_n, lo_d + steps * hi_d
        else:
            hi_n, hi_d = hi_n + steps * lo_n, hi_d + steps * lo_d
        x, y, right = y, r, not right
    sign = -1 if num < 0 else 1
    return order, (sign * lo_n, lo_d), (sign * hi_n, hi_d)


def farey_order(p) -> int:
    """Order of a vertex under the mediant recursion: 0 and oo have order 1,
    1 and -1 order 2, and the mediant of adjacent vertices of maximal order
    n has order n + 1 (the walk of fan_entries)."""
    return fan_entries(p.num, p.den)[0]


def _mediant_sweep(max_order: int):
    """The (u, m, v) gaps of generations 2..max_order: m is the mediant born
    between counterclockwise-consecutive vertices u and v of the previous
    generation's circle, which starts at 0, so each generation's mediants
    come out in circular order from 0."""
    circle = [ZERO, INFINITY]
    for _ in range(2, max_order + 1):
        nxt = []
        for u, v in zip(circle, circle[1:] + circle[:1]):
            m = mediant(u, v)
            nxt.extend((u, m))
            yield u, m, v
        circle = nxt


def enumerate_vertices(max_order: int) -> list[ExtRational]:
    """All vertices of order <= max_order, sorted by (order, circular
    position), the circular position running counterclockwise from 0
    (increasing reals first, then oo, then the negative reals)."""
    if max_order < 1:
        return []
    return [ZERO, INFINITY] + [m for _, m, _ in _mediant_sweep(max_order)]


def enumerate_edges(max_order: int) -> list[FareyEdge]:
    """All tessellation edges whose endpoints both have order <= max_order,
    canonically oriented, in birth order (the edge {0, oo} first, then the
    two edges created by each new mediant, generation by generation)."""
    if max_order < 1:
        return []
    out = [oriented_edge(ZERO, INFINITY)]
    for u, m, v in _mediant_sweep(max_order):
        out.extend((oriented_edge(u, m), oriented_edge(m, v)))
    return out


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

def fan_entries(num: int, den: int) -> tuple[int, int, int, int, int]:
    """(order, a, b, c, d) of the tip p = num/den, reduced with oo as 1/0:
    its Farey order and the entries of its fan map B = (a b; c d), both
    from one Stern-Brocot walk.

    B carries the fan at oo onto the fan at p: it sends oo to p and 0 to
    the terminal endpoint of e_0 at p, which is 1 at p = 0 and otherwise
    the parent above p on the real line (oo counts as +oo for p > 0; for
    p < 0 the mirrored walk puts it below).  So B maps the edge (n, oo)
    onto the n-th fan edge at p, orientation included.
    """
    if den == 0:
        return 1, 1, 0, 0, 1
    if num == 0:
        order, (an, ad) = 1, (1, 1)
    else:
        order, lo, hi = _walk(num, den)
        an, ad = hi if num > 0 else lo
    det = num * ad - an * den   # +-1 by adjacency
    return order, num, det * an, den, det * ad


def fan_moebius(p) -> IntegerMoebius:
    """The fan map of fan_entries: it carries the fan at oo onto that at p."""
    _, *entries = fan_entries(p.num, p.den)
    return IntegerMoebius(*entries)


def fan_edge(p, n: int) -> FareyEdge:
    """The n-th edge of the fan with tip p (e_0 leaves p, e_1 enters p):
    its far end is B(n) = (a n + b)/(c n + d), B = (a b; c d) the fan map
    of fan_entries."""
    _, a, b, c, d = fan_entries(p.num, p.den)
    other = ExtRational(a * n + b, c * n + d)
    return FareyEdge(other, p) if n >= 1 else FareyEdge(p, other)


def fan_edges(p, n_lo: int, n_hi: int) -> list[FareyEdge]:
    """Fan edges e_n for n in [n_lo, n_hi], in increasing n."""
    return [fan_edge(p, n) for n in range(n_lo, n_hi + 1)]


def frame_index(a: int, b: int, c: int, d: int, qn: int, qd: int) -> int:
    """Fan index of q = qn/qd at the tip whose fan map of fan_entries is
    B = (a b; c d), for q adjacent to the tip.

    B carries {n, oo} onto the n-th fan edge {p, q}, so n = B^-1(q) =
    (d qn - b qd) / (a qd - c qn), whose denominator is
    p.num qd - p.den qn = +-1 by adjacency: n is the product of the two."""
    return (d * qn - b * qd) * (a * qd - c * qn)


def fan_index(p, q) -> int:
    """Index n with fan_edge(p, n) joining p and q (q adjacent to p), read
    off p's fan map by frame_index."""
    if abs(p.num * q.den - p.den * q.num) != 1:
        raise ValueError(f"{q} is not adjacent to {p}")
    return frame_index(*fan_entries(p.num, p.den)[1:], q.num, q.den)
