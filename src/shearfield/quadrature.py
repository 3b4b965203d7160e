"""Adaptive Gauss-Kronrod quadrature for the oracles, standard library only.

The 21-point Gauss-Kronrod rule and error estimate of QUADPACK's qk21
under global adaptive bisection: the interval with the largest error
estimate is bisected until the summed estimate meets
max(tol, tol |value|) or `limit` intervals exist (R. Piessens et al.,
QUADPACK, Springer 1983).  One tolerance serves as both of qagse's
epsabs and epsrel, as every caller sets them equal.  The arithmetic
follows qk21 and qagse step by step, without qagse's epsilon
extrapolation and its roundoff and small-interval exits; where those do
not act, the value is qagse's with epsabs = epsrel = tol, bit for bit.
"""

from __future__ import annotations

import heapq
import sys

from .farey import left_sum

# xgk(1..10) of qk21, descending; xgk(2), xgk(4), ..., xgk(10) are the
# 10-point Gauss nodes.  _WGK are their Kronrod weights, _WG the Gauss
# weights of the even entries, _WGK_CENTRE the Kronrod weight at 0.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208645608135, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk21(f, a, b):
    """(value, error, resasc) of the 21-point rule on [a, b]."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f([c] + [c - h * x for x in _XGK] + [c + h * x for x in _XGK])
    fc = fv[0]
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    resg = 0.0
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):     # Gauss pairs first
        f1, f2 = fv[1 + j], fv[11 + j]
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv[1 + j] - reskh) + abs(fv[11 + j] - reskh))
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max((_EPS * 50.0) * resabs, err)
    return resk * h, err, resasc


def quad(f, a: float, b: float, tol: float, limit: int) -> tuple:
    """(value, error) of the integral of f over [a, b], bisected until the
    error estimate is at most max(tol, tol |value|), that is tol times
    max(1, |value|).

    f is batched: it takes a list of nodes and returns the list of its
    values there, real or complex.  When `limit` intervals exist the best
    estimate is returned as it stands; callers judge it by the error (or,
    like the oracles, by a check of their own).  A NaN from f makes the
    error NaN, so the bisection runs to `limit` and returns NaN."""
    value, err, resasc = _qk21(f, a, b)
    if (limit <= 1 or err == 0.0
            or (err <= max(tol, tol * abs(value)) and err != resasc)):
        return value, err
    # parts[k] is the value of the interval in slot k; the result is their
    # sum in slot order, as qagse forms it
    parts = [value]
    heap = [(-err, 0, a, b)]
    area, errsum = value, err
    while len(parts) < limit:
        negerr, k, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, _ = _qk21(f, lo, mid)
        v2, e2, _ = _qk21(f, mid, hi)
        area = area + (v1 + v2) - parts[k]
        errsum = errsum + (e1 + e2) + negerr
        new = len(parts)
        if e2 > e1:           # the larger error keeps the slot
            parts[k], left, right = v2, new, k
            parts.append(v1)
        else:
            parts[k], left, right = v1, k, new
            parts.append(v2)
        heapq.heappush(heap, (-e1, left, lo, mid))
        heapq.heappush(heap, (-e2, right, mid, hi))
        if errsum <= max(tol, tol * abs(area)):
            break
    return left_sum(parts), errsum
