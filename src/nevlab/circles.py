"""A rational's circle form and the closed-form circle means.

``_circle_form(f, r)``, a form of a rational given by its divisor valid on
|z| = r only, serves its closed-form mean and its argument-principle
counts: it folds the points with |b| <= r/2 or |b| >= 2r into Laurent
series in z/r, each cut where its log|f| tail is at most 2^-54, whenever a
group has more points than its series has terms; the rest go through the
broadcast kernel.  Its log|f| and slope (:func:`_log_slope`) feed the
kink search of ``kinks``, and its arg f (:func:`_arg_sum`) the certified
winding counts.  The proximity mean is integrated exactly between the
certified |f| = 1 angles: by the dilogarithm (:func:`_dilog`) for a
rational and by a trigonometric antiderivative for exp(p) and for the
series of e^p (:func:`_exp_series`) of exp(exp(p)).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import _EPS, _LOG_HUGE, MAX_PANELS, TWO_PI, Polynomial
from .divisor import Divisor, _arg_term, _divisor_sums, _inv_term, _log_term, _node_chunks

if TYPE_CHECKING:  # the expressions are built on this module
    from .fnmodel import FunctionExpr, RationalFromDivisor

# Divisor points b with ||b| - r| <= CIRCLE_BAND r are near the circle |z| = r:
# circle means cut their panels at them, and the |f| = 1 search samples there.
CIRCLE_BAND = 0.1
# The circle form of a rational folds its divisor points with |b| <= rho r
# or |b| >= r / rho into truncated series, each cut where its tail in log|f|
# is at most _FOLD_TOL (absolute).
_FOLD_RATIO = 0.5
_FOLD_TOL = 2.0**-54
# The |f| = 1 search of a rational's circle mean samples log|f| on this
# many equispaced angles and at the divisor points near the circle.
_SCAN_POINTS = 64
# powers e^{ij theta} of a trigonometric arc mean taken by exp; the rest are their products
_EXP_POWERS = 8


_NO_ANGLES = np.empty(0)
_SCAN_GRID = np.arange(_SCAN_POINTS) * (TWO_PI / _SCAN_POINTS)


def _divisor_sign(f: RationalFromDivisor, r: float) -> int:
    """1 or -1 where the divisor alone keeps log|f| above or below 0 on
    |z| = r, else 0: each log|z - b| lies in [log||b| - r|, log(|b| + r)]."""
    b, m = f.divisor._rows
    mod = np.abs(b)
    with np.errstate(divide="ignore"):
        near, far = np.log(np.abs(mod - r)), np.log(mod + r)
    start = math.log(abs(f.scale))
    up = m > 0
    if start + float(np.sum(np.where(up, m * near, m * far))) > 0.0:
        return 1
    return -1 if start + float(np.sum(np.where(up, m * far, m * near))) < 0.0 else 0


_NO_SERIES = np.empty(0, dtype=np.complex128)


def _unit_powers(theta: np.ndarray, k: int) -> np.ndarray:
    """e^{ij theta} for j = 1..k, a row per angle: a folded series at few
    angles is one product with this matrix, not a Horner loop.  A call on
    at least as many angles as the scan grid (the kink search's scan) reads
    the rows at its angles from :func:`_scan_powers`: the same exps, so the
    same bits.  Smaller calls seldom hold a grid angle and skip the lookup."""
    if theta.size < _SCAN_POINTS:
        return np.exp(1j * np.multiply.outer(theta, np.arange(1, k + 1)))
    at = np.rint(theta * (_SCAN_POINTS / TWO_PI)).astype(np.intp) % _SCAN_POINTS
    hit = _SCAN_GRID[at] == theta
    out = np.empty((theta.size, k), dtype=np.complex128)
    out[hit] = _scan_powers(1 << (k - 1).bit_length())[at[hit], :k]
    miss = ~hit
    out[miss] = np.exp(1j * np.multiply.outer(theta[miss], np.arange(1, k + 1)))
    return out


@lru_cache(maxsize=None)
def _scan_powers(width: int) -> np.ndarray:
    """e^{ij theta} of the scan grid's angles for j = 1..width, made once a
    process for each power of two that a series length rounds up to."""
    table = np.exp(1j * np.multiply.outer(_SCAN_GRID, np.arange(1, width + 1)))
    table.flags.writeable = False
    return table


def _log_slope(form, r: float, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|f| and its theta-derivative -Im(z f'/f) at z = r e^{i theta}."""
    div, start, a, _ = form
    z = r * np.exp(1j * theta)
    lm, ld = _divisor_sums(z, div, ((start, _log_term), (0j, _inv_term)))
    slope = -(z * ld).imag
    if a.size:
        s = _unit_powers(theta, a.size) @ np.column_stack((a, a * np.arange(1, a.size + 1)))
        lm -= s[:, 0].real
        slope += s[:, 1].imag
    return lm, slope


def _arg_sum(form, r: float, theta: np.ndarray) -> np.ndarray:
    """arg f at z = r e^{i theta} from the circle form ``form`` of f, less
    a constant and origin_order * theta: sum m arg(z - b) over the direct
    points and Im sum b_k w^k.  On |w| = 1 an inner group adds
    M theta + Im sum conj(C_k / k) w^k to arg f and an outer one
    sum m arg(-b) - Im sum (C_k / k) w^k (see :func:`_circle_form`)."""
    div, _, _, b = form
    out = np.zeros(theta.size)
    if div.points.size:
        points = Divisor._of(div.points, div.mults, div.moduli, 0)
        out += _divisor_sums(r * np.exp(1j * theta), points, ((0.0, _arg_term),))[0]
    if b.size:
        out += (_unit_powers(theta, b.size) @ b).imag
    return out


def _log_antiderivative(form, r: float, theta: np.ndarray):
    """(C, G, err) with log|f(r e^{i theta})| = C + G'(theta), G given at
    the angles ``theta``, and err a rounding bound on C and each G.

    C is Jensen's mean start + sum m log max(r, |b|) over the direct
    divisor, summed by ``math.fsum``.  A direct point contributes
    m Im Li2(b/r e^{-i theta}) to G for |b| <= r and -m Im Li2(r/b e^{i theta})
    otherwise, both on the closed unit disc (Lewin, *Polylogarithms and
    Associated Functions*, 1981), and the folded series
    -Im sum_k (a_k / k) e^{ik theta}.
    """
    div, start, a, _ = form
    b, m = div._rows
    mod = np.abs(b)
    t = m * np.log(np.maximum(mod, r))
    mean = math.fsum([start] + t.tolist())
    a = a / np.arange(1, a.size + 1)
    err = 2.0 * _EPS * (abs(start) + float(np.sum(np.abs(t)) + 2.0 * np.sum(np.abs(m))
                                           + np.sum(np.abs(a))))
    if not theta.size:
        return mean, _NO_ANGLES, err
    inner = mod <= r
    u = np.empty_like(b)
    u[inner], u[~inner] = b[inner] / r, r / b[~inner]
    g = -(_unit_powers(theta, a.size) @ a).imag
    for c in _node_chunks(theta.size, b.size):
        e = np.exp(1j * theta[c])
        g[c] += np.where(inner, m, -m) @ _dilog(u[:, None] * np.where(inner[:, None], e.conj(), e)).imag
    return mean, g, err


def _arc_mean(theta: np.ndarray, mean: float, g: np.ndarray, err: float) -> tuple[float, float]:
    """(m, its rounding bound) for h = mean + G'(theta), whose sign changes
    at the sorted angles ``theta`` alone, G given there with rounding
    ``err``: 1/2pi times the sum of G(hi) - G(lo) + mean (hi - lo) over the
    arcs between neighbouring angles where it is positive, the last arc
    wrapping round to the first, or max(mean, 0) without angles."""
    if not theta.size:
        return max(mean, 0.0), err * (mean > -err)
    arcs = np.empty(theta.size)
    arcs[:-1] = mean * (theta[1:] - theta[:-1]) + (g[1:] - g[:-1])
    arcs[-1] = mean * (theta[0] + TWO_PI - theta[-1]) + (g[0] - g[-1])
    return math.fsum(arcs[arcs > 0.0].tolist()) / TWO_PI, err * (1 + theta.size)


def _trig_arc_means(f: FunctionExpr, radii, series) -> list:
    """:meth:`FunctionExpr.closed_proximity` of f = exp(p) or exp(exp(p)),
    where log|f| = Re sum_j c_j e^{ij theta} on |z| = r, whose sign changes
    at f's level angles alone.  ``series(r)`` gives (c, err, slack): the
    c_j, a bound err on what their rounding and truncation move the mean,
    and a further rounding bound slack on each G, or None.  With
    h = Re c_0 + G', G = Im sum_{j >= 1} (c_j / j) e^{ij theta}, the mean
    is integrated exactly between the angles (:func:`_arc_mean`), and each
    G is charged 2 eps (|Re c_0| + sum |c_j| / j) + slack.  A block of
    (angles, terms) holds about ``_DIVISOR_CELLS`` cells; its first
    ``_EXP_POWERS`` powers e^{ij theta} are :func:`_unit_powers`, and each
    later e^{i(j + h) theta} is e^{ij theta} e^{ih theta}, a product where
    an exp costs more.  Each row is summed by numpy, not by a BLAS
    matrix-vector product: with its threads free, OpenBLAS stalled such
    products on two cores for up to half a second.  A circle without angles
    or series gets None."""
    out = []
    for r, (theta, _, _) in zip(radii, f.level_angles(radii)):
        found = None if theta is None else series(r)
        if found is None:
            out.append((None, theta, 0))
            continue
        c, err, slack = found
        a = c[1:] / np.arange(1, c.size)
        g = np.empty(theta.size)
        for rows in _node_chunks(theta.size, a.size):
            u = np.empty((theta[rows].size, a.size), dtype=np.complex128)
            h = min(a.size, _EXP_POWERS)
            u[:, :h] = _unit_powers(theta[rows], h)
            while h < a.size:
                n = min(h, a.size - h)
                np.multiply(u[:, :n], u[:, h - 1:h], out=u[:, h:h + n])
                h += n
            g[rows] = (u * a).sum(axis=1).imag
        mean = float(c[0].real)
        m, g_err = _arc_mean(theta, mean, g, 2.0 * _EPS * (abs(mean) + float(np.sum(np.abs(a))))
                             + slack)
        out.append(((m, g_err + err), theta, 0))
    return out


# B_2n / (2n + 1)! for n = 1..10, the series of Li2 in w = -log(1 - x)
_DILOG_SERIES = tuple(c / math.factorial(2 * n + 1) for n, c in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), 1))


def _dilog(x) -> np.ndarray:
    """Li2(x) = sum_k x^k / k^2 on the closed unit disc, elementwise.

    Where Re x > 1/2 the reflection Li2(x) = pi^2/6 - log x log(1 - x)
    - Li2(1 - x) moves the argument to 1 - x, inside the disc with real
    part below 1/2.  There w = -log(1 - x) has |w| <= pi/3, and
    Li2 = w - w^2/4 + sum_n B_2n w^(2n+1) / (2n+1)!, whose terms fall like
    (|w| / 2pi)^2n (Zagier, "The dilogarithm function", 2007).
    """
    x = np.asarray(x, dtype=np.complex128)
    refl = x.real > 0.5
    w = -np.log(1.0 - np.where(refl, 1.0 - x, x))
    w2 = w * w
    s = 0.0
    for c in _DILOG_SERIES[::-1]:
        s = s * w2 + c
    out = w - 0.25 * w2 + w * w2 * s
    if refl.any():
        xr = x[refl]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(xr) * np.log(1.0 - xr)
        out[refl] = math.pi**2 / 6.0 - np.where(xr == 1.0, 0.0, t) - out[refl]
    return out


def _power_sums(u: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """``C_j = sum m u^j`` for j = 1..k; u^j is formed by doubling."""
    powers = np.empty((k, u.size), dtype=np.complex128)
    powers[:1] = u
    h = 1
    while h < k:
        np.multiply(powers[:min(h, k - h)], powers[h - 1], out=powers[h:2 * h])
        h *= 2
    powers *= m
    return np.add.reduce(powers, axis=1)


def _circle_form(f: RationalFromDivisor, r: float):
    """(div, start, a, b): log|f| and arg f of a rational on the circle
    |z| = r alone, with the divisor points far from it folded into series
    in w = z/r, for the closed-form mean and the contour counts.

    With u = b/r for an inner point (|b| <= rho r) and u = r/b for an outer
    one (|b| >= r/rho), C_k = sum m u^k over a group and M = sum m over the
    inner one, on |w| = 1 (where r/z = conj w):

        inner: sum m log|z - b| = M log|z| - Re sum_k (C_k / k) (r/z)^k
               sum m z / (z - b) = M + sum_k C_k (r/z)^k
        outer: sum m log|z - b| = sum m log|b| - Re sum_k (C_k / k) (z/r)^k
               sum m z / (z - b) = -sum_k C_k (z/r)^k

    A group of total |multiplicity| W with |u| <= q has a log|f| tail past
    the w^K term of at most W q^(K+1) / ((K + 1) (1 - q)), and a z f'/f tail
    K + 1 times that.  Its series is cut at the fewest terms K that keep the
    first within _FOLD_TOL, and it folds only if it has more points.  ``div``
    holds the origin, the points near the circle and the groups left
    unfolded, with M added to the origin order when the inner group folds,
    and ``start`` is log|scale| plus the outer group's sum m log|b|.  Since
    Re P(conj w) = Re P*(w), P* with conjugate coefficients, the folded
    groups are two series in w:

        a_k = conj(C_in,k / k) + C_out,k / k,   log|f| = ... - Re sum a_k w^k
        b_k = conj(C_in,k / k) - C_out,k / k,   arg f = ... + Im sum b_k w^k

    and Re(z f'/f) = ... + Re sum k b_k w^k, the theta-slope of arg f.
    """
    d, start = f.divisor, math.log(abs(f.scale))
    pts, m = d.points, d.mults
    mod = np.abs(pts)
    keep, origin, series = np.ones(pts.size, dtype=bool), d.origin_order, []
    for inner, mask in ((True, mod <= _FOLD_RATIO * r), (False, mod >= r / _FOLD_RATIO)):
        n = int(np.count_nonzero(mask))
        if not n:
            continue
        u = pts[mask] / r if inner else r / pts[mask]
        q, weight = float(np.max(np.abs(u))), float(np.sum(np.abs(m[mask])))
        k = 0
        while weight * q ** (k + 1) / ((k + 1) * (1.0 - q)) > _FOLD_TOL:
            k += 1
        if n <= k:
            continue
        keep &= ~mask
        if inner:
            origin += int(np.sum(m[mask]))
        else:  # summed exactly: these logs cancel
            start += math.fsum(m[mask] * np.log(mod[mask]))
        if k:
            series.append((inner, _power_sums(u, m[mask], k) / np.arange(1, k + 1)))
    div = d if keep.all() else Divisor._of(pts[keep], m[keep], d.moduli[keep], origin)
    a = np.zeros(max((c.size for _, c in series), default=0), dtype=np.complex128)
    b = a.copy()
    for inner, c in series:
        a[:c.size] += np.conj(c) if inner else c
        b[:c.size] += np.conj(c) if inner else -c
    return div, start, a, b


# (x, log x) for the ratios x > 1 at which the majorant e^{s(x)} may bound
# the tail of a series of exp(p)
_TAIL_RATIOS = tuple((x, math.log(x)) for x in (1.0625, 1.125, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0,
                                               8.0, 16.0, 32.0, 64.0))


def _exp_series(p: Polynomial, r: float) -> tuple[np.ndarray, float, float] | None:
    """(E, err, slack): e^{p(r e^{i theta})} = sum_n E_n e^{in theta} cut at n = N,
    with E_n = [z^n] e^p r^n, and err a bound on sum_n |E_n - true E_n|,
    the dropped terms included; None where the majorant leaves the double
    range or N would exceed ``MAX_PANELS``.  It is asked only on circles
    whose level angles are known, where the P_k = p_k r^k are finite.

    E is e^{P_0} times the series of each e^{P_k u^k}, whose terms
    P_k^j / j! are one ``np.cumprod``, joined by ``np.convolve``.  |E_n| is
    at most the coefficient M_n of the majorant e^{s(x)}, s(x) = Re P_0 +
    sum |P_k| x^k, so for any x > 1 the tail sum_{n > N} M_n is at most
    x^-N e^{s(x)}: N is the fewest terms that bound puts below
    eps e^{s(1)} over ``_TAIL_RATIOS`` (for a constant p, N = 0 and no tail).
    Each of the K factors rounds its terms by at most 4N eps, and each
    convolution by (N + 3) eps, of the majorant, whose sum is e^{s(1)}:
    (K + 3)(N + 3) eps e^{s(1)} bounds them all.  Each G of
    :func:`_trig_arc_means` also rounds e^{in theta} by 7n eps, its
    products included, and its sum of N terms: the slack."""
    c = [p_k * float(r)**k for k, p_k in enumerate(p.coeffs)]
    mods = [abs(c_k) for c_k in c[:0:-1]]  # |P_d|, ..., |P_1|
    s1 = c[0].real + sum(mods)
    if not abs(s1) < _LOG_HUGE:
        return None
    floor = s1 + math.log(_EPS)  # log of the tail wanted, eps e^{s(1)}
    N, tail = (MAX_PANELS + 1, 0.0) if p.degree else (0, 0.0)
    for x, log_x in _TAIL_RATIOS if p.degree else ():
        sx = 0.0
        for m in mods:  # by Horner's rule
            sx = (sx + m) * x
        sx += c[0].real
        n = math.ceil((sx - floor) / log_x)
        if sx < _LOG_HUGE and n < N:
            N, tail = n, math.exp(sx - n * log_x)
    if N > MAX_PANELS:
        return None
    E, factors = np.ones(1, dtype=np.complex128), 0
    for k, c_k in enumerate(c[1:], 1):
        if c_k:
            f = np.zeros(N + 1, dtype=np.complex128)
            f[0] = 1.0
            f[k::k] = np.cumprod(c_k / np.arange(1, N // k + 1))
            E = np.convolve(E, f)[:N + 1]
            factors += 1
    E *= cmath.exp(c[0])
    n = np.arange(1, N + 1)
    return (E, tail + (factors + 3) * (N + 3) * _EPS * math.exp(s1),
            _EPS * float(np.sum(np.abs(E[1:]) * (7.0 + (2 * N + 4) / n))))
