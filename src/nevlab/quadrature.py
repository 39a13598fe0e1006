"""Adaptive Gauss-Legendre quadrature on the unit circle of angles.

It computes every circle mean that has no closed form: the proximity of
exp towers, of exp(p) - a with a != 0, of products and quotients, of a
rational whose kinks could not be certified (read from the expression
itself), and every contour count (read from ``near_circle(r)``).  Where
the kinks are known (exp towers, exp(p) - a and its reciprocals
c / (exp(p) - a), rationals), the caller cuts at them.  For a rational
given by its divisor and for exp(p), ``nevanlinna.proximity`` takes the
closed form instead (``FunctionExpr.closed_proximity``), so Jensen's
formula is part of that computation; its independent checks are mpmath
integrals and this quadrature run at tighter tolerances.

Circle averages of log-type integrands have integrable singularities where
a zero or pole sits on (or near) the contour, and kinks where log+|f| meets
|f| = 1.  The caller hands these over as cuts, (angle, distance) pairs: the
angle becomes a panel edge, and the distance -- how far the singularity
sits off the real axis of angles, 0 on the circle, infinite for a plain
edge such as a kink -- sets how many dyadic levels the seed refines toward
that edge.  Gauss-Legendre on a panel converges at a rate set by how far
the nearest singularity lies off the panel relative to its width
(Trefethen, SIAM Review 50, 2008), so a base panel of width w is cut toward
an edge at distance d until its end panel is no wider than 2d, at most
``SEED_LEVELS`` times.  The ends 0 and 2pi are plain edges unless a cut
at angle 0 gives them a distance.  Cuts are hints: a missing one costs
refinement rounds, and at a kink it can cost accuracy, since the
split-and-compare estimate sees a kink only in a narrow enough panel; a
spurious cut costs a panel.

A plain split-and-compare loop then drives the refinement: a panel is
accepted when the difference between its one-panel value and the sum over
its two halves is below the width-proportional share of the error budget.
It runs many circles in lockstep, each with its own budget and exit
(Shampine, J. Comput. Appl. Math. 211, 2008, as in quadgk): each round
calls the integrand for all of them, on both halves of every active panel
(the first round adds the seed panels), in calls of at most
``MAX_CALL_NODES`` nodes, with one gemv per block (coarse, left, right):
one gemv over the stacked blocks would move last bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Callable

import numpy as np

from .fnmodel import MAX_PANELS, TWO_PI, QuadratureFailure, record

PANEL_ORDER = 16
SEED_LEVELS = 3
MAX_CALL_NODES = 4096  # nodes per integrand call: bounds the integrand's temporaries
MIN_WIDTH = 1e-15
_MAX_ROUNDS = 60  # refinement rounds of one run
MERGE_GAP = 1e-12  # cuts closer than this share one edge

# The PANEL_ORDER Gauss-Legendre nodes and weights on [-1, 1], bit for bit
# those of numpy.polynomial.legendre.leggauss(16), which are symmetric: the
# positive nodes ascending and their weights, mirrored below.  A table, so
# that no quadrature imports numpy.polynomial.
_GL_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_GL_X = np.array([-x for x, _ in reversed(_GL_HALF)] + [x for x, _ in _GL_HALF])
_GL_W = np.array([w for _, w in reversed(_GL_HALF)] + [w for _, w in _GL_HALF])


@record
class QuadratureResult:
    value: float
    err_estimate: float
    panels: int
    evaluations: int


# clip(ceil(log2(w / (2d))), 0, SEED_LEVELS) counts the ratios below w / d
_LEVEL_RATIOS = tuple(2.0 ** (k + 1) for k in range(SEED_LEVELS))
# the dyadic knots of L levels, as fractions of the width off the edge
_KNOT_STEPS = tuple(tuple(0.5**k for k in range(1, L + 1)) for L in range(SEED_LEVELS + 1))
_first = itemgetter(0)  # cuts sort by angle alone: tuples compare slower


def _seed_panels(cuts) -> tuple[np.ndarray, np.ndarray]:
    """Seed panel edges from (angle, distance) cuts: the angles, taken mod
    2pi and merged within ``MERGE_GAP`` (keeping the smaller distance), cut
    [0, 2pi] into base panels, each refined toward an edge at distance d by
    clip(ceil(log2(w / (2d))), 0, SEED_LEVELS) levels, the levels that make
    the end panel no wider than twice the distance."""
    cuts = sorted(cuts, key=_first)
    if cuts and not 0.0 <= cuts[0][0] <= cuts[-1][0] < TWO_PI:
        cuts = sorted(((a % TWO_PI, d) for a, d in cuts), key=_first)
    angle, dist = [0.0], [math.inf]
    for a, d in cuts:
        if a - angle[-1] > MERGE_GAP:
            angle.append(a)
            dist.append(d)
        elif d < dist[-1]:
            dist[-1] = d
    if TWO_PI - angle[-1] <= MERGE_GAP:  # 2pi is the angle 0
        angle.pop()
        dist[0] = min(dist[0], dist.pop())
    angle.append(TWO_PI)
    dist.append(dist[0])

    knots = [TWO_PI]
    for a, b, da, db in zip(angle, angle[1:], dist, dist[1:]):
        w = b - a
        la = bisect_left(_LEVEL_RATIOS, w / da) if da else SEED_LEVELS
        lb = bisect_left(_LEVEL_RATIOS, w / db) if db else SEED_LEVELS
        knots.append(a)
        knots += [a + w * h for h in _KNOT_STEPS[la]]
        knots += [b - w * h for h in _KNOT_STEPS[lb]]
    knots = sorted(set(knots))
    return np.array(knots[:-1]), np.array(knots[1:])


def check_tolerances(atol: float, rtol: float) -> None:
    """Raise ValueError unless ``atol`` and ``rtol`` are finite and
    nonnegative, and not both zero."""
    if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf) or atol == rtol == 0.0:
        raise ValueError("quadrature tolerances must be finite and nonnegative, "
                         "and not both zero")


def adaptive_circle(f: Callable[[np.ndarray], np.ndarray],
                    cuts=(),
                    atol: float = 1e-10,
                    rtol: float = 1e-8,
                    evaluations: int = 0) -> QuadratureResult:
    """Integrate ``f`` over [0, 2pi) with panels seeded from ``cuts``: the
    one-circle case of :func:`adaptive_circles`, for an ``f`` of the angles.

    ``cuts`` holds (angle, distance) pairs: each angle becomes a panel edge,
    refined toward by the number of dyadic levels its distance calls for
    (see the module docstring); distance 0 marks a singularity on the
    circle, ``math.inf`` a plain edge.  ``evaluations`` counts those already
    spent on the integrand's structure, such as a search for the cuts; the
    result's count starts from it.
    """
    return adaptive_circles(lambda theta, _: f(theta), [cuts], atol, rtol, [evaluations])[0]


def adaptive_circles(f: Callable[[np.ndarray, np.ndarray], np.ndarray], cuts_per_circle,
                     atol: float = 1e-10, rtol: float = 1e-8,
                     evaluations=()) -> list[QuadratureResult]:
    """Integrate over [0, 2pi) on many circles in lockstep, circle c with
    panels seeded from ``cuts_per_circle[c]`` (see :func:`adaptive_circle`).

    ``f(theta, circle)`` takes angles and the circle index of each, one
    index where a call's angles all lie on one circle, and returns real
    values of matching shape.  Each round calls it on both
    halves of every active panel of the unfinished circles (the first round
    adds the seed panels), at most ``MAX_CALL_NODES`` nodes a call, with one
    gemv per block of panels -- coarse, left, right -- as separate calls
    would have.  A non-finite panel gets one nudge retry, then
    :class:`QuadratureFailure`.  The rest is each circle's own, as in a lone
    run: a panel is accepted when ``|coarse - fine| <= max(atol,
    rtol*|total|) * width / 2pi``; the circle ends once its summed error
    estimate is inside the global budget, which cancellation noise near
    contour-touching zeros needs; ``MAX_PANELS``, ``_MAX_ROUNDS`` (both
    read per call) and the evaluation count, from ``evaluations[c]`` (0 if
    not given).  A circle keeps its panels in a lone run's order and sums
    its own slice, so a lone circle runs bit for bit as before.  The tolerances go through
    :func:`check_tolerances` before any evaluation.
    """
    check_tolerances(atol, rtol)
    seeds = [_seed_panels(cuts) for cuts in cuts_per_circle]
    n = len(seeds)
    lo, hi = (np.concatenate(ends) for ends in zip(*seeds))
    live, counts = list(range(n)), [s[0].size for s in seeds]  # unfinished circles, panels
    circle = np.repeat(live, counts)  # of each panel
    spent = list(evaluations) if evaluations else [0] * n
    x, w = _GL_X, _GL_W

    def panel_values(lo_b, hi_b, circle, retry=True):
        """Gauss-Legendre values of f over the panels [lo_b, hi_b], given
        as (blocks, panels) arrays of the circles ``circle``; ``retry``
        allows the nudge retry of the panels whose value is non-finite."""
        half, mid = 0.5 * (hi_b - lo_b), (0.5 * (hi_b + lo_b)).ravel()
        lone = circle[0] == circle[-1]  # one circle: its index, a scalar, serves every node
        of = circle[0] if lone else np.concatenate((circle,) * len(half))
        out = np.empty(half.shape)
        flat, per_block, per_call = out.ravel(), half.shape[1], MAX_CALL_NODES // PANEL_ORDER
        for a in range(0, flat.size, per_call):  # the panels of one call
            end = min(a + per_call, flat.size)
            theta = mid[a:end, None] + half.ravel()[a:end, None] * x
            vals = f(theta.ravel(), of if lone else np.repeat(of[a:end], PANEL_ORDER))
            vals = vals.reshape(theta.shape)
            for u in range(a - a % per_block, end, per_block):  # one gemv per block:
                b0, b1 = max(u, a), min(u + per_block, end)  # a stacked gemv moves last bits
                flat[b0:b1] = vals[b0 - a:b1 - a] @ w
        out *= half
        if np.isfinite(out).all():
            return out
        if not retry:
            raise QuadratureFailure(
                "integrand is non-finite inside a panel after a nudge retry"
            )
        for k, bad in enumerate(~np.isfinite(out)):
            if bad.any():
                # nudge the offending panels inward once; a singular endpoint is
                # legal, a singular interior node means the split angles missed it
                a, b = lo_b[k, bad], hi_b[k, bad]
                shrink = 1e-9 * (b - a)
                for c in circle[bad].tolist():
                    spent[c] += PANEL_ORDER
                out[k, bad] = panel_values((a + shrink)[None], (b - shrink)[None],
                                           circle[bad], False)[0]
        return out

    accepted_val, accepted_err, accepted_cnt = [0.0] * n, [0.0] * n, [0] * n
    coarse = None

    for _ in range(_MAX_ROUNDS):
        edges = np.array((lo, 0.5 * (lo + hi), hi))
        if coarse is None:  # the seed panels' own values ride in the first call
            coarse, left, right = blocks = panel_values(edges[[0, 0, 1]], edges[[2, 1, 2]], circle)
        else:
            left, right = blocks = panel_values(edges[:2], edges[1:], circle)
        fine = left + right
        err = np.abs(coarse - fine)
        etol, ended, a = [], [], 0
        for c, m in zip(live, counts):
            spent[c] += len(blocks) * PANEL_ORDER * m
            total_now = accepted_val[c] + float(fine[a:a + m].sum())
            etol.append(max(atol, rtol * abs(total_now)))
            residual = accepted_err[c] + float(err[a:a + m].sum())
            ended.append(residual <= etol[-1])
            if ended[-1]:  # inside its global budget: the circle is done
                accepted_val[c], accepted_err[c] = total_now, residual
                accepted_cnt[c] += m
            a += m
        if all(ended):
            break
        width = hi - lo
        done = (err <= np.repeat(etol, counts) * width / TWO_PI) | (width <= MIN_WIDTH)
        kept, a = [], 0
        for c, m, end in zip(live, counts, ended):
            s, a = slice(a, a + m), a + m
            if end:
                done[s] = True
                kept.append(0)
                continue
            took = done[s]
            n_done = int(np.count_nonzero(took))
            if n_done:
                accepted_val[c] += float(fine[s][took].sum())
                accepted_err[c] += float(err[s][took].sum())
                accepted_cnt[c] += n_done
            kept.append(m - n_done)
        live, counts = [c for c, k in zip(live, kept) if k], [2 * k for k in kept if k]
        if not live:
            break
        keep = ~done
        edges = edges[:, keep]
        lo, hi = edges[:2].ravel(), edges[1:].ravel()
        coarse = blocks[-2:, keep].ravel()
        if len(live) > 1:  # each circle's left halves, then its right halves
            order = np.argsort(np.concatenate((circle[keep], circle[keep])), kind="stable")
            lo, hi, coarse = lo[order], hi[order], coarse[order]
        circle = np.repeat(live, counts)
        if any(m + accepted_cnt[c] > MAX_PANELS for c, m in zip(live, counts)):
            raise QuadratureFailure(
                f"panel count exceeded {MAX_PANELS} before reaching tolerance"
            )
    else:
        raise QuadratureFailure(
            f"tolerance not reached after {_MAX_ROUNDS} refinement rounds "
            f"({counts[0]} panels still active)"
        )

    return [QuadratureResult(value=v, err_estimate=e, panels=p, evaluations=k)
            for v, e, p, k in zip(accepted_val, accepted_err, accepted_cnt, spent)]
