"""Circle averages and growth functionals for the closed function family.

The three basic quantities, all at radius ``r``:

* proximity: the circle mean of ``max(log|f|, 0)``;
* counting: logarithmically weighted tally of poles (or zeros) in the disc,
  ``sum mult * log(r/|b|)`` over nonzero divisor points plus
  ``origin_order * log r``;
* characteristic: their sum, the central growth gauge.

On top of those sit a first-main-theorem balance check, a hyper-order
estimator working on the increments of ``log T``, and an argument-principle
contour count used as an independent cross-check on divisor bookkeeping.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import reduce

import numpy as np

from .circles import CIRCLE_BAND, _NO_ANGLES, _circle_form
from .core import InsufficientGrowth, NonIntegerResidual, NonMonotone, TWO_PI, logplus, record
from .divisor import Divisor
from .fnmodel import (
    Const,
    FunctionExpr,
    Quotient,
    RationalFromDivisor,
    _may_have_poles,
    _signed_leaves,
    subtract,
)
from .kinks import _winding_count
from .quadrature import QuadratureResult, adaptive_circle, adaptive_circles, check_tolerances

# nudge applied when a divisor point sits essentially on the contour
NUDGE_FACTOR = 1.0 + 1e-7
ON_CIRCLE_REL = 1e-9
# share of a sweep's smallest radii that the hyper-order fit discards
HYPERORDER_DROP = 0.2
# farthest a contour count by quadrature may land from an integer; its tolerances
COUNT_INTEGER_TOL = 0.1
COUNT_ATOL = COUNT_RTOL = 1e-7
# tolerances of the circle mean of log|f| in the Jensen oracle
JENSEN_ATOL, JENSEN_RTOL = 1e-10, 1e-9


@record
class CharacteristicSample:
    """One radius worth of growth data.  ``r_used`` differs from ``r`` only
    when the contour had to be nudged off a divisor point.  ``quad_err``,
    ``panels`` and ``evaluations`` describe how the proximity mean was
    found: by quadrature, its error estimate and counts (the kink search's
    evaluations included); in closed form (see :func:`proximity`), the
    rounding bound, 0 panels, and the evaluations of the kink search and
    its certificate, where Jensen's formula is part of the computation and
    mpmath and tighter quadrature are the independent checks."""

    r: float
    m: float
    N: float
    T: float
    quad_err: float
    nudged: bool
    r_used: float
    panels: int
    evaluations: int


def _ragged(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[k], ..., start[k] + size[k] - 1 of every k, in order."""
    return np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)


def _grid_cuts(expr: FunctionExpr, radii, kinks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panel cuts of the circles |z| = radii[c], as the flat arrays
    ``(angle, distance, circle)`` that :func:`adaptive_circles` takes, from
    one read of the divisor on the largest radius's band.

    Each circle's band points b, those within ``CIRCLE_BAND`` of it (a
    slice of the modulus-sorted columns, then the band's test), are cut at
    their angle, with the distance |log(|b|/r)| off the real axis of
    angles, where log|z - b| is singular as a function of theta; then each
    kink of log+|f| in ``kinks[c]`` (band edges included), with the
    distance in the plane of complex angles to the nearest zero among its
    b (none: inf).  Around such a zero log+|f| = 0 between two kinks, and
    the panels beyond them, where log+|f| = log|f|, see the zero as a
    singularity at that distance: they are refined toward the kink as they
    would be toward the zero.  A pole lies where log+|f| = log|f|, and its
    own cut refines its panels.  As plain cuts, the kinks and band edges of
    e^{z^2} - 1 missed by up to 21.9 tolerances on ``log_radii(5, 40,
    25)``; graded, by at most 0.18.  Unknown kinks (None) cut the ends 0
    and 2pi as a singularity on the circle, seeded ``SEED_LEVELS`` deep,
    as uniform seeding did (six panels with no divisor point near), so
    that the seed panels are narrow enough for the split-and-compare test
    to see them."""
    r = np.array(radii, dtype=float)
    div = expr.divisor_in_disc(max(radii) * (1.0 + CIRCLE_BAND))
    # each radius's slice runs from well inside its band to the disc it reads
    lo = div.moduli.searchsorted((1.0 - 2.0 * CIRCLE_BAND) * r)
    size = div.moduli.searchsorted(r * (1.0 + CIRCLE_BAND), "right") - lo
    j, of = _ragged(lo, size), np.repeat(np.arange(r.size), size)
    near = np.abs(div.moduli[j] - r[of]) <= CIRCLE_BAND * r[of]
    j, of = j[near], of[near]
    b, zero = div.points[j], div.mults[j] > 0
    angle, off = np.angle(b), np.log(np.abs(b) / r[of])
    # each kink's distance to the nearest zero among its circle's points;
    # unknown kinks are the one cut (0, 0)
    size = [1 if k is None else k.size for k in kinks]
    kink = np.concatenate([np.zeros(1) if k is None else k for k in kinks])
    kink_of = np.repeat(np.arange(r.size), size)
    per = np.bincount(of[zero], minlength=r.size)[kink_of]  # the zeros each kink meets
    z = _ragged(np.searchsorted(of[zero], kink_of), per)
    gap = (angle[zero][z] - np.repeat(kink, per) + math.pi) % TWO_PI - math.pi
    dist = np.full(kink.size, math.inf)
    np.minimum.at(dist, np.repeat(np.arange(kink.size), per), np.hypot(gap, off[zero][z]))
    dist[np.repeat([k is None for k in kinks], size)] = 0.0
    return (np.concatenate((angle % TWO_PI, kink)), np.concatenate((np.abs(off), dist)),
            np.concatenate((of, kink_of)))


def _nudged(expr: FunctionExpr, r: float) -> float:
    """r, or r moved out by ``NUDGE_FACTOR`` where a divisor point sits on |z| = r."""
    div = expr.divisor_in_disc(r * (1.0 + 2.0 * ON_CIRCLE_REL))
    return r * NUDGE_FACTOR if div.band(r, ON_CIRCLE_REL).size else r


def _circle_means(expr: FunctionExpr, circles, integrand, atol: float,
                  rtol: float) -> list[QuadratureResult]:
    """Means of ``integrand(z)`` over circles |z| = r by quadrature.

    Each circle is ``(r, kinks, spent)``, the kinks and evaluations as
    :meth:`FunctionExpr.closed_proximity` returns them; ``spent`` counts
    in the result.  :func:`_grid_cuts` cuts the panels of every circle
    from one divisor read, the disc of the largest radius's band, which
    :func:`proximities` has solved ahead; each circle's cuts are those of
    that disc restricted to its own band.  A grid runs in lockstep
    (:func:`adaptive_circles`), its panels seeded in one pass; one circle
    runs through :func:`adaptive_circle`, which bench/ wraps.  The values
    and error estimates are means, the counts the quadrature's.
    """
    # a finite atol stays finite when scaled; inf and NaN reach the check as given
    scaled_atol = min(atol * TWO_PI, sys.float_info.max) if math.isfinite(atol) else atol
    radii, kinks, spent = zip(*circles)
    cuts = _grid_cuts(expr, radii, kinks)
    if len(circles) == 1:
        r = radii[0]
        res = [adaptive_circle(lambda theta: integrand(r * np.exp(1j * theta)),
                               np.column_stack(cuts[:2]), atol=scaled_atol, rtol=rtol,
                               evaluations=spent[0])]
    else:
        r_of = np.array(radii)
        res = adaptive_circles(lambda theta, c: integrand(r_of[c] * np.exp(1j * theta)),
                               cuts, len(circles), atol=scaled_atol, rtol=rtol,
                               evaluations=spent)
    return [q.replace(value=q.value / TWO_PI, err_estimate=q.err_estimate / TWO_PI)
            for q in res]


def _logplus(f: FunctionExpr):
    """The proximity integrand of f: log+|f| at z (an exact zero gives 0)."""
    return lambda z: logplus(f._log_mod(z))


def proximities(expr: FunctionExpr, radii,
                atol: float = 1e-9, rtol: float = 1e-8) -> list[CharacteristicSample]:
    """Circle means of log+|f| at each radius, packaged with nudge/error metadata.

    The radii must be positive, and the tolerances pass
    :func:`check_tolerances`, before anything is evaluated.  Each radius is
    nudged off any divisor point on its circle.  Then one call of
    :meth:`FunctionExpr.closed_proximity` on the whole grid answers where it
    can: for a rational given by its divisor, Jensen's formula where the
    divisor alone decides the sign of log|f|, else the dilogarithm arcs
    between its certified kinks; for exp(p), the trigonometric arcs between
    its zeros of Re p; for exp(exp(p)), the same arcs of the series of e^p
    between its zeros of Re e^p.  A closed mean whose rounding bound
    exceeds max(atol, rtol |m|) counts as unanswered, whatever its form.
    Such a sample has ``panels == 0``, the search's and the certificate's
    evaluations, and the rounding bound as ``quad_err``.
    Jensen's formula is then part of the computation, not a check of it:
    the independent checks of these means are mpmath integrals and
    quadrature at tighter tolerances (``_circle_means``).  The other
    circles run one quadrature of log+|f| on the expression itself, in
    lockstep, cut where that same answer says: a rational's uncertified
    circles; exp(p) - a and c / (exp(p) - a), whose kinks and band edges
    one band search over the grid finds (:func:`kinks._band_search`);
    exp(exp(p)) where its series leaves the double range or its term cap,
    other exp towers, quotients and products, and every closed mean
    that missed its tolerance.
    The samples have ``N = 0``; :func:`characteristic_sweep` adds N.
    A grid of two or more radii first asks for the largest disc that its
    panel cuts read (:meth:`FunctionExpr.solve_ahead`), so each radius
    restricts that one divisor instead of solving the discs it crosses.
    """
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    check_tolerances(atol, rtol)
    if len(radii) > 1:
        expr.solve_ahead(max(radii) * (1.0 + CIRCLE_BAND))  # the disc _grid_cuts reads
    used = [_nudged(expr, r) for r in radii]
    closed = [(mean if mean and mean[1] <= max(atol, rtol * abs(mean[0])) else None,
               kinks, spent) for mean, kinks, spent in expr.closed_proximity(used)]
    rest = [(u, kinks, spent) for u, (mean, kinks, spent) in zip(used, closed) if mean is None]
    means = iter(rest and _circle_means(expr, rest, _logplus(expr), atol, rtol))
    samples = []
    for r, r_used, (mean, _, spent) in zip(radii, used, closed):
        res = next(means) if mean is None else None
        m, err = mean or (res.value, res.err_estimate)
        samples.append(CharacteristicSample(r=r, m=m, N=0.0, T=m, quad_err=err,
                                            nudged=r_used != r, r_used=r_used,
                                            panels=res.panels if res else 0,
                                            evaluations=res.evaluations if res else spent))
    return samples


def proximity(expr: FunctionExpr, r: float,
              atol: float = 1e-9, rtol: float = 1e-8) -> CharacteristicSample:
    """The circle mean of log+|f| at radius r: :func:`proximities` at one radius."""
    return proximities(expr, [r], atol=atol, rtol=rtol)[0]


def counting(divisor: Divisor, r: float, kind: str = "poles") -> float:
    """Integrated counting function N(r) for the requested divisor sign: the
    origin's term, then m log(r/|b|) in column order, summed left to right,
    with ``math.log`` (``np.log`` can differ from it in the last bit).  It
    reads the columns' prefix in |b| <= r, masked by sign, as
    ``divisor.restrict(r).signed(kind)`` would give them."""
    if not r > 0:  # NaN included
        raise ValueError("radius must be positive")
    if kind not in ("zeros", "poles"):
        raise ValueError(f"kind must be 'zeros' or 'poles', got {kind!r}")
    sign = 1 if kind == "zeros" else -1
    k = int(divisor.moduli.searchsorted(r, "right"))
    m = sign * divisor.mults[:k]
    keep = m > 0
    origin = max(sign * divisor.origin_order, 0)
    start = origin * math.log(r) if origin else 0.0
    terms = map(operator.mul, m[keep].tolist(),
                map(math.log, (r / divisor.moduli[:k][keep]).tolist()))
    return reduce(operator.add, terms, start)


def n_count(divisor: Divisor, r: float, kind: str = "poles") -> int:
    """Unintegrated count n(r): points in the closed disc, with multiplicity."""
    if math.isnan(r):
        raise ValueError("radius must be a number")
    return divisor.restrict(r).total(kind)


def _with_poles(expr: FunctionExpr, sample: CharacteristicSample) -> CharacteristicSample:
    """The sample with N(r) of the expression's poles, and T = m + N: N = 0,
    with no divisor read, where no pole can sit (:func:`_may_have_poles`)."""
    N = (counting(expr.divisor_in_disc(sample.r_used), sample.r_used, "poles")
         if _may_have_poles(expr) else 0.0)
    return sample.replace(N=N, T=sample.m + N)


def characteristic(expr: FunctionExpr, r: float,
                   atol: float = 1e-9, rtol: float = 1e-8) -> CharacteristicSample:
    """T(r) = m(r) + N(r) for the expression's poles."""
    return _with_poles(expr, proximity(expr, r, atol=atol, rtol=rtol))


def characteristic_sweep(expr: FunctionExpr, radii,
                         atol: float = 1e-9, rtol: float = 1e-8) -> list[CharacteristicSample]:
    """T(r) at every radius, from one :func:`proximities` run."""
    return [_with_poles(expr, s)
            for s in proximities(expr, [float(r) for r in radii], atol=atol, rtol=rtol)]


def log_radii(rmin: float, rmax: float, count: int = 50) -> np.ndarray:
    """Log-spaced radius grid, the default sweep layout."""
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise ValueError("need a finite rmin and rmax")
    if not (0 < rmin < rmax):
        raise ValueError("need 0 < rmin < rmax")
    if count < 1:
        raise ValueError("need a radius count of at least 1")
    return np.exp(np.linspace(math.log(rmin), math.log(rmax), count))


# ---------------------------------------------------------------------------
# first-main-theorem balance
# ---------------------------------------------------------------------------


@record
class BalanceSample:
    r: float
    T_f: float
    T_shifted: float
    delta: float


def fmt_delta(expr: FunctionExpr, a: complex, r: float) -> BalanceSample:
    """|T(r, 1/(f-a)) - T(r, f)|, which stays bounded in r.

    The poles of 1/(f-a) are the a-points of f, so its N(r) counts them.
    """
    recip = Quotient(Const(1.0), subtract(expr, Const(complex(a))))
    base = characteristic(expr, r)
    T_shift = characteristic(recip, r).T
    return BalanceSample(r=r, T_f=base.T, T_shifted=T_shift,
                         delta=abs(T_shift - base.T))


# ---------------------------------------------------------------------------
# hyper-order estimation
# ---------------------------------------------------------------------------


@record
class HyperOrderEstimate:
    varsigma: float
    fit_window: tuple[float, float]
    residual: float
    clamped: bool
    points_used: int


def hyperorder_estimate(radii, T_values) -> HyperOrderEstimate:
    """Hyper-order from a sweep of (r, T(r)) samples.

    Works on first differences: for genuinely fast growth,
    ``log(T(r_{k+1})) - log(T(r_k))`` scales like ``r^varsigma`` up to slowly
    varying factors, so the least-squares slope of the log-increments of
    ``log T`` against log-midpoint radii estimates the hyper-order while
    cancelling additive constants that poison a direct double-log fit.  The
    smallest radii (a ``HYPERORDER_DROP`` share) are discarded as transient.
    Functions of finite order produce a slope near or below zero, clamped to
    zero and flagged.
    """
    r = np.asarray(radii, dtype=float)
    T = np.asarray(T_values, dtype=float)
    if not (np.isfinite(r).all() and np.isfinite(T).all()):
        raise ValueError("radii and characteristic samples must be finite")
    if r.ndim != 1 or r.shape != T.shape or r.size < 6:
        raise ValueError("need matching 1-D arrays with at least 6 samples")
    if np.any(np.diff(r) <= 0):
        raise NonMonotone("radii must be strictly increasing")
    if np.any(T <= 0):
        raise InsufficientGrowth("characteristic samples must be positive")

    k0 = int(math.floor(HYPERORDER_DROP * r.size))
    r, T = r[k0:], T[k0:]
    if T[-1] < math.e:
        raise InsufficientGrowth(
            "largest characteristic sample is below e; growth too weak to classify"
        )
    logT = np.log(T)
    inc = np.diff(logT)
    mid = np.sqrt(r[:-1] * r[1:])
    good = inc > 0
    if int(np.sum(good)) < 4:
        raise InsufficientGrowth("too few increasing characteristic increments")
    x = np.log(mid[good])
    y = np.log(inc[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    clamped = slope < 0
    return HyperOrderEstimate(
        varsigma=float(max(slope, 0.0)),
        fit_window=(float(mid[good][0]), float(mid[good][-1])),
        residual=resid,
        clamped=bool(clamped),
        points_used=int(np.sum(good)),
    )


# ---------------------------------------------------------------------------
# argument-principle cross-check
# ---------------------------------------------------------------------------


def argument_principle_count(expr: FunctionExpr, r: float) -> int:
    """Zeros minus poles inside |z| < r, by the argument principle.

    The count is additive: that of f g is the sum of the sides' counts, and
    that of f / g their difference.  So the count of a tree is the signed
    sum over its leaves (:func:`_signed_leaves`), all on one circle: the
    radius is nudged once where a point of any leaf lies on it, even one
    that the tree's divisor cancels.  A constant, exp(p) and exp(exp(p))
    count 0 by construction, not by measurement: they have no zeros or
    poles, and no contour is integrated for them.  A rational given by its divisor
    counts the winding of its arg f round the circle, certified from its
    circle form (:func:`kinks._winding_count`).  exp(p) - a, and a
    rational whose winding is not certified, count by the real part of the
    mean of ``z f'(z)/f(z)`` over the circle, read from its ``_logderivs``
    by quadrature; a residual further than ``COUNT_INTEGER_TOL`` from an
    integer raises :class:`NonIntegerResidual`.
    """
    leaves = list(_signed_leaves(expr))
    r = max([_nudged(leaf, r) for leaf, _ in leaves], default=r)
    total = 0
    for leaf, sign in leaves:
        count = None
        if isinstance(leaf, RationalFromDivisor):
            count, _ = _winding_count(leaf, _circle_form(leaf, r), r)
        if count is None:
            raw = _circle_means(leaf, [(r, _NO_ANGLES, 0)], lambda z: (z * leaf._logderivs(z)).real,
                                COUNT_ATOL, COUNT_RTOL)[0].value
            count = round(raw)
            if abs(raw - count) > COUNT_INTEGER_TOL:
                raise NonIntegerResidual(
                    f"contour count {raw:.6f} is not within {COUNT_INTEGER_TOL} of an integer"
                )
        total += sign * int(count)
    return total


# ---------------------------------------------------------------------------
# Poisson-Jensen style oracle (testing aid)
# ---------------------------------------------------------------------------


def jensen_lhs_rhs(expr: FunctionExpr, r: float) -> tuple[float, float]:
    """Both sides of Jensen's identity at radius r, for validation.

    lhs: circle mean of log|f|.
    rhs: log|c| + sum over zeros log(r/|b|) - sum over poles log(r/|b|),
    where c is the leading coefficient of f at the origin (the first nonzero
    Laurent coefficient) and origin order contributes ``order * log r``.
    """
    lhs = _circle_means(expr, [(r, _NO_ANGLES, 0)], expr._log_mod,
                        JENSEN_ATOL, JENSEN_RTOL)[0].value

    div = expr.divisor_in_disc(r)
    rhs = counting(div, r, "zeros") - counting(div, r, "poles")
    rhs += _origin_leading_logmod(expr, div.origin_order)
    return lhs, rhs


def _origin_leading_logmod(expr: FunctionExpr, o: int) -> float:
    """log| lim z^-o f(z) | at the origin, o the origin order of f.

    For ``o != 0`` this is the mean of log|z^-o f| on a tiny circle: the
    mean-value property makes it exact for the harmonic part, and the grid
    error is spectrally small.
    """
    if o == 0:
        lm, _ = expr.logmod_eval(0.0)
        return lm
    eps = 1e-4
    thetas = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    z = eps * np.exp(1j * thetas)
    return float(np.mean(expr._log_mod(z))) - o * math.log(eps)
