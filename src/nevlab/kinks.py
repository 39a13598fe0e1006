"""The certified searches for the angles where |f| equals a level on a
circle, which cut the quadrature's panels and end the arcs of the closed
means: in closed form for exp(p) and exp(exp(p)) (:func:`_im_level_angles`),
in lockstep over a radius grid for exp(p) - a (:func:`_band_search`), and
for a rational through its circle form (:func:`_level_search`), whose
winding numbers are certified the same way (:func:`_winding_count`).
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

import numpy as np

from .circles import (_NO_ANGLES, _SCAN_GRID, _SCAN_POINTS, CIRCLE_BAND, _arg_sum,
                      _log_slope)
from .core import _EPS, TWO_PI, Polynomial
from .divisor import Divisor, _node_chunks

if TYPE_CHECKING:  # the expressions are built on this module
    from .fnmodel import RationalFromDivisor

# The |f| = 1 search of a rational's circle mean polishes each crossing by
# at most _SEARCH_STEPS steps, frozen once a step is below _SEARCH_TOL (in
# radians).
_SEARCH_STEPS = 6
_SEARCH_TOL = 1e-10
# The search certifies its crossings by bisecting the scan intervals at most
# _CERTIFY_ROUNDS times, on at most _CERTIFY_NODES new angles in all.
_CERTIFY_ROUNDS = 16
_CERTIFY_NODES = 1024
# It first tests the scan intervals with the slope bounds of groups of this
# many neighbours, and computes an interval's own bounds only where that fails.
_BOUND_GROUP = 8
# The |f| = level search of exp(p) - a scans each arc of its band at this
# many equispaced angles, ends included.  Where |a| = level the band has no
# lower end; it stops at e^{Re p} = _BAND_DEPTH |a|, and kinks below that
# are not searched.
_BAND_SCAN = 24
_BAND_DEPTH = 2.0**-40


def _im_level_angles(p: Polynomial, r: float, shifts) -> np.ndarray | None:
    """Sorted angles theta in [0, 2pi) with Im p(r e^{i theta}) = s, for
    every shift s (Re p = Im(ip) takes the same path); None where the
    coefficients p_j r^j over- or underflow.

    With c_j = p_j r^j and u = e^{i theta}: where c_0 and c_d are the only
    nonzero coefficients, the equation is |c_d| sin(d theta + arg c_d) =
    s - Im c_0, solved by arcsin.  Otherwise, times 2i u^d, it is the
    degree-2d polynomial sum c_j u^{d+j} - sum conj(c_j) u^{d-j}
    - 2is u^d, whose unimodular roots are wanted.  The shifts differ in the
    u^d coefficient only, so their companion matrices are stacked into one
    eigenvalue call.  A root is kept where the residual at its angle is
    within 1e-9 of the equation's scale, which only a root on (or within
    about 1e-9 of) the unit circle meets, and polished by one Newton step
    in theta.  The few roots per shift are handled as Python complex
    numbers, which costs less than numpy calls on arrays this small.
    """
    d, n = p.degree, 2 * p.degree
    if d < 1 or not len(shifts):
        return _NO_ANGLES
    try:
        c = [a * float(r)**k for k, a in enumerate(p.coeffs)]
    except OverflowError:
        return None
    lead = c[-1]
    if not lead or not all(map(cmath.isfinite, c)):
        return None
    if not any(c[1:-1]):
        scale, phase, angles = abs(lead), math.atan2(lead.imag, lead.real), set()
        for s in shifts:
            x = (s - c[0].imag) / scale
            if abs(x) <= 1.0:
                a = math.asin(x)
                for b in (a, math.pi - a):
                    for m in range(d):
                        t = (b - phase + TWO_PI * m) / d % TWO_PI
                        angles.add(t if t < TWO_PI else 0.0)  # % can round up to 2pi
        return np.array(sorted(angles))
    # companion matrices: first row minus the coefficients of u^(n-1), ...,
    # u^0 over c_d, ones below the diagonal; built as lists, one array call
    head = [-x / lead for x in c[-2:0:-1]]
    tail = [x.conjugate() / lead for x in c[1:]]
    below = [[float(k == i) for k in range(n)] for i in range(n - 1)]
    mats = np.array([[head + [2j * (s - c[0].imag) / lead] + tail] + below for s in shifts])
    if not np.isfinite(mats).all():  # a subnormal c_d
        return None
    roots = np.linalg.eigvals(mats).tolist()
    tol = 1e-9 * sum(map(abs, c))
    angles = []
    for s, row_roots in zip(shifts, roots):
        for u in row_roots:
            theta = math.atan2(u.imag, u.real)
            w = cmath.exp(1j * theta)
            v = dv = 0j  # sum c_j w^j and sum j c_j w^j, by Horner
            for j in range(d, -1, -1):
                v, dv = v * w + c[j], dv * w + j * c[j]
            g = v.imag - s  # Im p(r e^{i theta}) - s; its theta-derivative is Re dv
            if abs(g) <= tol + 1e-9 * abs(s):
                angles.append(theta - g / dv.real if dv.real else theta)
    return _angles(np.array(angles))


def _band_search(p: Polynomial, a: complex, level: float, radii) -> list:
    """(kinks, edges, spent) of exp(p) - a, a != 0, at ``level`` on each
    circle |z| = r of ``radii`` (see :meth:`FunctionExpr.level_angles`),
    found in lockstep over the whole grid.

    |e^p - a| = level puts e^{Re p} in the band [||a| - level|, |a| + level]:
    above it |f| >= e^{Re p} - |a| > level, and below it either |f| >=
    |a| - e^{Re p} > level (|a| > level) or |f| <= e^{Re p} + |a| < level.
    Where |a| = level the band has no lower end, so it stops at e^{Re p} =
    2^-40 |a| (``_BAND_DEPTH``), and so where |a| is within that of level:
    below it |f| / |a| is within about 2^-40 of 1, and its kinks are not
    searched.  The edges, where Re p = Im(ip) meets the logs of the band's
    ends, come in closed form (:func:`_im_level_angles`) at no evaluation;
    they are returned as ``edges``, and a circle whose coefficients over-
    or underflow gets (None, no edges, 0).  An arc between neighbouring
    edges lies in the band or out of it whole, which Re p at its midpoint
    tells.  Each band arc is scanned at ``_BAND_SCAN`` equispaced angles,
    ends included.  The sign read is that
    of G = (|f|^2 - level^2) e^{-x} = e^x + (|a|^2 - level^2) e^{-x}
    - 2|a| cos(y - arg a), with p = x + iy: that of log|f| - log(level),
    without its cancellation deep in the band.  Its theta-derivative
    takes dp/dtheta = iz p'(z).  Each sign change between neighbouring
    angles is a bracket.  Where G heads for 0 between two angles of one
    sign and turns back (the end slopes differ in sign), at most
    ``_SEARCH_STEPS`` bisections toward the turn look for an angle of the
    other sign, which splits the interval into two brackets.
    :func:`_polish` polishes every bracket.  Each step, the midpoints
    included, evaluates the angles of every circle in one call, and
    ``spent`` counts them per circle.
    """
    ra, phase = abs(a), math.atan2(a.imag, a.real)
    gap = ra * ra - level * level
    shifts = [math.log(max(abs(ra - level), _BAND_DEPTH * ra)), math.log(ra + level)]
    q, dp = p.scale(1j), p.deriv()

    def g_slope(theta, r):
        z = r * np.exp(1j * theta)
        w, dw = p(z), 1j * z * dp(z)
        y = w.imag - phase
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # off the band
            ex = np.exp(w.real)
            return (ex + gap / ex - 2.0 * ra * np.cos(y),
                    (ex - gap / ex) * dw.real + 2.0 * ra * np.sin(y) * dw.imag)

    out, arcs = [(None, _NO_ANGLES, 0)] * len(radii), []  # arcs: (circle, start, end)
    for k, r in enumerate(radii):
        edges = _im_level_angles(q, r, shifts)
        if edges is None:
            continue
        out[k] = (_NO_ANGLES, edges, 0)
        if edges.size:
            arcs += zip([k] * edges.size, edges.tolist(), edges[1:].tolist() + [edges[0] + TWO_PI])
        else:  # the whole circle lies on one side of both edges
            arcs.append((k, 0.0, TWO_PI))
    if not arcs:
        return out
    circle, start, end = map(np.array, zip(*arcs))
    r_of = np.asarray(radii, dtype=float)
    spent = np.bincount(circle, minlength=len(radii))
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the double range
        middle = p(r_of[circle] * np.exp(0.5j * (start + end))).real
    inside = (shifts[0] <= middle) & (middle <= shifts[1])
    circle, start, end = circle[inside], start[inside], end[inside]
    arc = np.repeat(np.arange(circle.size), _BAND_SCAN)
    theta = (start[:, None] + (end - start)[:, None] * np.linspace(0.0, 1.0, _BAND_SCAN)).ravel()
    g, dg = g_slope(theta, r_of[circle[arc]])
    spent += _BAND_SCAN * np.bincount(circle, minlength=len(radii))
    up, rising = g > 0.0, dg > 0.0
    same = arc[1:] == arc[:-1]
    i = np.flatnonzero(same & (up[1:] != up[:-1]))  # a crossing between i and i + 1
    brackets = [(i, theta[i], theta[i + 1], g[i], g[i + 1])]
    # where G heads for 0 and turns back between two angles of one sign, a
    # pair of crossings may lie in between: bisect toward the turn, on the
    # sign of the slope, until an angle of the other sign splits the pair
    t = np.flatnonzero(same & (up[1:] == up[:-1]) & (rising[:-1] != up[:-1])
                       & (rising[1:] != rising[:-1]))
    lo, hi = theta[t], theta[t + 1]
    for _ in range(_SEARCH_STEPS if t.size else 0):
        mid = 0.5 * (lo + hi)
        gm, dm = g_slope(mid, r_of[circle[arc[t]]])
        spent += np.bincount(circle[arc[t]], minlength=len(radii))
        split = (gm > 0.0) != up[t]
        brackets += [(t[split], theta[t[split]], mid[split], g[t[split]], gm[split]),
                     (t[split], mid[split], theta[t[split] + 1], gm[split], g[t[split] + 1])]
        toward = (dm > 0.0) == rising[t]  # the turn lies between mid and hi
        lo, hi = np.where(toward, mid, lo), np.where(toward, hi, mid)
        t, lo, hi = t[~split], lo[~split], hi[~split]
    i, lo, hi, glo, ghi = map(np.concatenate, zip(*brackets))
    on = circle[arc[i]]

    def step(theta, live):
        nonlocal spent
        spent += np.bincount(on[live], minlength=len(radii))
        return g_slope(theta, r_of[on[live]])

    roots, _ = _polish(step, lo, hi, glo, ghi)
    for k, (kinks, edges, _) in enumerate(out):
        if kinks is not None:
            out[k] = (_angles(roots[on == k]), edges, int(spent[k]))
    return out


def _slope_bounds(div: Divisor, a: np.ndarray, r: float, second: bool = True):
    """The bounds on the first and, if ``second``, the second
    theta-derivative of log|f| (or of arg f) over the arcs [lo, hi] of
    |z| = r, as a function of (lo, hi), for the direct divisor ``div`` of a
    circle form and its series ``a`` (``a`` of log|f|, ``b`` of arg f): a
    term m log|z - b| or m arg(z - b) contributes |m| r / dist and
    |m| r |b| / dist^2, dist the distance from b to the arc, and a series
    term a_k e^{ik theta} k |a_k| and k^2 |a_k|."""
    k = np.arange(1, a.size + 1)
    ka = k * np.abs(a)
    l1, l2 = float(ka.sum()), float((k * ka).sum())
    b, m = div.points[:, None], div.mults[:, None]
    mod, w = np.abs(b), np.abs(m) * r
    phi, gap2, cross, w2 = np.angle(b) % TWO_PI, (mod - r) ** 2, 4.0 * r * mod, w * mod

    def bounds(lo, hi):
        out = np.empty((1 + second, lo.size))
        for c in _node_chunks(lo.size, b.size):
            t = (phi - lo[c]) % TWO_PI  # from lo to b, counterclockwise
            gap = np.maximum(np.minimum(t - (hi[c] - lo[c]), TWO_PI - t), 0.0)  # b to the arc
            d2 = gap2 + cross * np.sin(0.5 * gap) ** 2  # dist^2
            out[0, c] = np.sum(w / np.sqrt(d2), axis=0)
            if second:
                out[1, c] = np.sum(w2 / d2, axis=0)
        return (l1 + out[0], l2 + out[1]) if second else (l1 + out[0],)

    return bounds


def _level_search(f: RationalFromDivisor, form, r: float) -> tuple[np.ndarray, int, bool]:
    """The angles where |f| = 1 on |z| = r, the evaluations spent finding
    them, and whether they are certified to be all the crossings.  ``form``
    is the circle form of ``f`` (:func:`_circle_form`); its log|f| is read
    through :func:`_log_slope`, the folded series with one product per
    call.

    log|f| and its theta-derivative are sampled at ``_SCAN_POINTS``
    equispaced angles and at the angles of the divisor points within
    ``CIRCLE_BAND`` of the circle.  Each interval [lo, hi] of width h
    between neighbouring samples is then certified (Moore, Kearfott and
    Cloud, *Introduction to Interval Analysis*, 2009) with the bounds L1
    on the slope and L2 on the second derivative of :func:`_slope_bounds`.
    It holds no crossing where its end values share a sign and either
    their sum exceeds L1 h (a Lipschitz bound) or the smaller exceeds
    L2 h^2 / 8 (the error bound of the linear interpolant).  log|f| is
    monotone on it, so it holds exactly one crossing where its end values
    differ in sign and none where they agree, where its end slopes share a
    sign and their sum exceeds L2 h.  All three tests leave a margin for
    the rounding of the sums.  An interval that passes none is bisected
    (:func:`_certify`, with bounds borrowed from the scan group or the
    parent arc); past its limits the angles found are returned
    uncertified.

    Every interval whose ends differ in sign is a bracket, polished
    together with the others by at most ``_SEARCH_STEPS`` safeguarded
    Newton steps in theta: a step that leaves its bracket bisects it, and
    a bracket is frozen once its step is below ``_SEARCH_TOL``.
    """
    theta = np.sort(np.concatenate([_SCAN_GRID, np.angle(f.divisor.band(r, CIRCLE_BAND)) % TWO_PI]))
    # the rounding of a value's and a slope's sums, a share of their terms
    b, m = f.divisor._rows
    rel = (b.size + 2) * _EPS
    slack = rel * (abs(form[1]) + float(np.sum(np.abs(m) * (np.abs(np.log(np.abs(b) + r)) + 1.0))))

    def passes(flo, fhi, dlo, dhi, h, l1, l2):
        alo, ahi = np.abs(flo), np.abs(fhi)
        with np.errstate(invalid="ignore"):
            value = (flo * fhi > 0.0) & ((alo + ahi > l1 * h + 2.0 * slack)
                                         | (np.minimum(alo, ahi) > 0.125 * l2 * h * h + 2.0 * slack))
            return value | ((dlo * dhi > 0.0) & (np.abs(dlo) + np.abs(dhi) > l2 * h + 2.0 * rel * l1))

    (lo, hi, flo, fhi, _, _), spent, certified = _certify(
        theta, _log_slope(form, r, theta), _slope_bounds(form[0], form[2], r), passes,
        lambda x: _log_slope(form, r, x))
    spent += theta.size
    change = (flo > 0.0) != (fhi > 0.0)
    if not change.any():
        return _NO_ANGLES, spent, certified
    out, used = _polish(lambda x, _: _log_slope(form, r, x),
                        lo[change], hi[change], flo[change], fhi[change])
    return _angles(out), spent + used, certified


def _winding_count(f: RationalFromDivisor, form, r: float) -> tuple[int | None, int]:
    """Zeros minus poles of f inside |z| < r as a certified winding number
    of f round the circle (Ying and Katz, *Numer. Math.* 53, 1988; Johnson
    and Tucker, *J. Comput. Appl. Math.* 228, 2009), or None where it is
    not certified, and the evaluations spent.  ``form`` is the circle form
    of f (:func:`_circle_form`); a point on the circle leaves it
    uncertified.

    The folded inner group and the origin add exactly origin_order
    windings, as z^M does: that holds by construction, as a zero-free leaf
    counts 0, and the folded series are single-valued on the circle.  The
    rest of arg f, :func:`_arg_sum`, is sampled on the kink search's scan
    (``_SCAN_POINTS`` equispaced angles and the angles of the divisor
    points within ``CIRCLE_BAND`` of the circle), graded toward each such
    point as the quadrature grades its seed panels toward a cut: at s / 2,
    s / 4, ... from its angle, s the scan's step, until the last is within
    the point's distance |log(|b| / r)| off the real axis of angles, so
    that a close point does not use up the bisection rounds.  An interval
    of width h whose sampled arg changes by Delta, wrapped to [-pi, pi),
    passes where L1 h < 2pi - |Delta| - slack, L1 the first bound of
    :func:`_slope_bounds` with the series term sum k |b_k|: its true change
    is Delta plus a multiple of 2pi, and at most L1 h in size, so that
    multiple is 0.  An interval that fails is bisected (:func:`_certify`).
    The count is origin_order plus the sum of Delta over the passed
    intervals divided by 2pi, where that is an integer to within its
    rounding.
    """
    div, _, _, b = form
    d, step = f.divisor, TWO_PI / _SCAN_POINTS
    near = np.abs(d.moduli - r) <= CIRCLE_BAND * r
    phi = np.angle(d.points[near])
    pts, mod, m = div.points, div.moduli, np.abs(div.mults)
    # |arg sum| <= weight; a sample's rounding, of each arg, of the sums and
    # of z - b, which moves arg(z - b) by up to its size over |z - b|
    weight = math.pi * float(np.sum(m)) + float(np.sum(np.abs(b)))
    rel = (pts.size + b.size + 4) * _EPS
    with np.errstate(divide="ignore"):
        levels = np.minimum(np.ceil(np.log2(step / np.abs(np.log(d.moduli[near] / r)))), 52.0)
        slack = 2.0 * rel * (weight + float(np.sum(m * (r + mod) / np.abs(mod - r)))
                             + 8.0 * float(np.arange(1, b.size + 1) @ np.abs(b)))
    grade = step * 0.5 ** np.arange(1, int(levels.max(initial=0.0)) + 1)
    within = np.arange(grade.size) < levels[:, None]
    theta = _angles(np.concatenate([_SCAN_GRID, phi, (phi[:, None] - grade)[within],
                                    (phi[:, None] + grade)[within]]))

    def turn(slo, shi):  # the change of the sampled arg, wrapped to [-pi, pi)
        return (shi - slo + math.pi) % TWO_PI - math.pi

    def passes(slo, shi, h, l1):
        with np.errstate(invalid="ignore"):
            return l1 * h * (1.0 + rel) + slack < TWO_PI - np.abs(turn(slo, shi))

    (_, _, slo, shi), spent, certified = _certify(
        theta, (_arg_sum(form, r, theta),), _slope_bounds(div, b, r, second=False), passes,
        lambda x: (_arg_sum(form, r, x),))
    spent += theta.size
    if not certified:
        return None, spent
    windings = math.fsum(turn(slo, shi).tolist()) / TWO_PI
    count = round(windings)
    # each wrapped change rounds by at most 2 eps (weight + 2pi)
    if abs(windings - count) > slo.size * _EPS * (weight + TWO_PI) / math.pi:
        return None, spent
    return div.origin_order + count, spent


def _certify(theta: np.ndarray, values, bounds, passes, sample) -> tuple[list, int, bool]:
    """The certificate rounds of the circle's intervals between the sorted
    angles ``theta``, the last wrapping round to the first: the final
    intervals as arrays ``[lo, hi, *ends]``, the evaluations spent on
    bisection, and whether every interval passed.

    ``values`` holds each sampled channel at ``theta``, and ``ends`` its
    values at the intervals' ends, a pair (at lo, at hi) per channel.  An
    interval of width h passes where ``passes(*ends, h, *bounds)`` holds,
    with bounds that ``bounds(lo, hi)`` gives for arcs; ``sample(x)``
    gives every channel at new angles.  A scan interval is tested first
    with the bounds of its group of ``_BOUND_GROUP`` neighbours and a child
    of a bisection with its parent's; an interval's own bounds are computed
    only where that fails, and since the bounds of an arc also bound every
    sub-arc and every test only gets harder as they grow, it passes exactly
    where they pass it.  An interval that fails is bisected, at most
    ``_CERTIFY_ROUNDS`` times and on at most ``_CERTIFY_NODES`` angles in
    all; past that the last round's intervals are returned uncertified.
    """
    lo, hi = theta, np.concatenate((theta[1:], [theta[0] + TWO_PI]))
    ends = [e for v in values for e in (v, np.concatenate((v[1:], v[:1])))]
    n = lo.size
    last = np.minimum(np.arange(_BOUND_GROUP, n + _BOUND_GROUP, _BOUND_GROUP), n) - 1  # in each group
    held = [np.repeat(c, _BOUND_GROUP)[:n] for c in bounds(lo[::_BOUND_GROUP], hi[last])]
    done, certified, budget, spent = [], False, _CERTIFY_NODES, 0
    for rounds_left in range(_CERTIFY_ROUNDS, -1, -1):
        h = hi - lo
        ok = passes(*ends, h, *held)
        loose = np.flatnonzero(~ok)  # failed on borrowed bounds: try its own
        if loose.size:
            for c, own in zip(held, bounds(lo[loose], hi[loose])):
                c[loose] = own
            ok[loose] = passes(*(e[loose] for e in ends), h[loose], *(c[loose] for c in held))
        open_ = ~ok
        n_open = int(np.count_nonzero(open_))
        certified = not n_open
        if certified or not rounds_left or n_open > budget:
            done.append([lo, hi, *ends])
            break
        done.append([lo[ok], hi[ok], *(e[ok] for e in ends)])
        lo, hi = lo[open_], hi[open_]
        held, ends = [c[open_] for c in held], [e[open_] for e in ends]
        mid = 0.5 * (lo + hi)
        at_mid = sample(mid)
        spent += n_open
        budget -= n_open
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        held = [np.concatenate([c, c]) for c in held]
        ends = [np.concatenate(p) for elo, ehi, em in zip(ends[::2], ends[1::2], at_mid)
                for p in ((elo, em), (em, ehi))]
    return [np.concatenate(c) for c in zip(*done)], spent, certified


def _polish(f, lo, hi, flo, fhi) -> tuple[np.ndarray, int]:
    """The roots of a function of the angle bracketed by [lo, hi], where its
    values ``flo`` and ``fhi`` differ in sign, and the evaluations spent.
    ``f(x, live)`` returns the values and the derivatives at the angles
    ``x`` of the brackets ``live`` (indices into ``lo``).

    From the regula falsi point, every bracket takes at most
    ``_SEARCH_STEPS`` safeguarded Newton steps in lockstep, one call of
    ``f`` a step: a step that leaves its bracket bisects it, and a bracket
    is frozen once its step is below ``_SEARCH_TOL``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        x = _inside(hi - fhi * (hi - lo) / (fhi - flo), lo, hi)  # regula falsi
    out, live, used = x.copy(), np.arange(x.size), 0
    for _ in range(_SEARCH_STEPS if x.size else 0):
        fx, dx = f(x, live)
        used += x.size
        below = (fx > 0.0) == (fhi > 0.0)  # the crossing lies between lo and x
        lo, hi, fhi = np.where(below, lo, x), np.where(below, x, hi), np.where(below, fx, fhi)
        with np.errstate(invalid="ignore", divide="ignore"):
            step = -fx / dx
        going = ~(np.abs(step) <= _SEARCH_TOL)  # a NaN step goes on, bisecting
        # a converged step may cross a bracket end that x itself has become
        out[live] = x = np.where(going, _inside(x + step, lo, hi), x + step)
        if not going.all():
            live, x, lo, hi, fhi = live[going], x[going], lo[going], hi[going], fhi[going]
            if not live.size:
                break
    return out, used


def _angles(theta: np.ndarray) -> np.ndarray:
    """The angles taken to [0, 2pi) and sorted."""
    theta = theta % TWO_PI
    return np.sort(np.where(theta < TWO_PI, theta, 0.0))  # % can round up to 2pi


def _inside(x, lo, hi):
    """``x`` where it lies strictly between ``lo`` and ``hi``, else (NaN
    included) the midpoint."""
    return np.where((x - lo) * (x - hi) < 0.0, x, 0.5 * (lo + hi))
