"""Adaptive Gauss-Legendre quadrature on the unit circle of angles.

It computes every circle mean that has no closed form: the proximity of
exp towers, of exp(p) - a with a != 0, of products and quotients, of a
rational whose kinks could not be certified (read from the expression
itself), and the contour counts of exp(p) - a and of a rational whose
winding number was not certified (``fnmodel._winding_count``), each read
from its f'/f.  Where
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
at angle 0 gives them a distance.  A batch of circles hands its cuts over
as three flat arrays, (angle, distance, circle), and one pass seeds the
panels of every circle (``_seed_panels``); the angles are merged within
``MERGE_GAP`` as a walk along each circle would merge them.  A cut with a
non-finite angle, or a NaN or negative distance, raises ValueError before
any evaluation.  Cuts are hints: a missing one costs refinement rounds,
and at a kink it can cost accuracy, since the split-and-compare estimate
sees a kink only in a narrow enough panel; a spurious cut costs a panel.

A plain split-and-compare loop then drives the refinement: a panel is
accepted when the difference between its one-panel value and the sum over
its two halves is below the width-proportional share of the error budget.
That is the one acceptance test: a circle whose summed error estimate is
inside its budget is done, its budget becomes infinite, and the same test
accepts all its panels.
It runs many circles in lockstep, each with its own budget and exit
(Shampine, J. Comput. Appl. Math. 211, 2008, as in quadgk): each round
calls the integrand for all of them, on both halves of every active panel
(the first round adds the seed panels), in calls of at most
``MAX_CALL_NODES`` nodes, with one gemv per block (coarse, left, right):
one gemv over the stacked blocks would move last bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .fnmodel import MAX_PANELS, TWO_PI, QuadratureFailure, record

PANEL_ORDER = 16
SEED_LEVELS = 3
MAX_CALL_NODES = 4096  # nodes per integrand call: bounds the integrand's temporaries
MIN_WIDTH = 1e-15
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
_LEVEL_RATIOS = np.array([2.0 ** (k + 1) for k in range(SEED_LEVELS)])
# the dyadic knots of the levels, deepest first, as fractions of the width off the edge
_KNOT_STEPS = np.array([0.5**k for k in range(SEED_LEVELS, 0, -1)])


def _seed_panels(angle: np.ndarray, dist: np.ndarray, of: np.ndarray,
                 count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed panels ``(lo, hi, circle)`` of ``count`` circles, by circle and
    then angle, from the cuts ``(angle[i], dist[i])`` of circle ``of[i]``.

    On each circle the edge 0 and the angles, taken mod 2pi, cut [0, 2pi]
    into base panels: an angle more than ``MERGE_GAP`` past the last edge
    kept starts an edge, else it merges into that edge, which keeps the
    smaller distance; a last edge within ``MERGE_GAP`` of 2pi is the edge 0.
    Each base panel of width w is refined toward an edge at distance d by
    clip(ceil(log2(w / (2d))), 0, SEED_LEVELS) levels, the levels that make
    the end panel no wider than twice the distance; equal knots are one.
    """
    # each circle's edge 0, a plain edge, ahead of its cuts; mod 2pi keeps
    # an angle in [0, 2pi) as it is
    out = ((angle < 0.0) | (angle >= TWO_PI)).any()
    angle = np.append(np.zeros(count), angle % TWO_PI if out else angle)
    dist = np.append(np.full(count, math.inf), dist)
    of = np.append(np.arange(count), of)
    order = np.lexsort((angle, of))
    angle, dist, of = angle[order], dist[order], of[order]
    # a cut more than MERGE_GAP past the cut before it starts an edge; in a
    # chain of close cuts, so does one that far past the last edge kept:
    # each pass adds the first such after each edge
    edge = np.append(True, (np.diff(of) != 0) | (np.diff(angle) > MERGE_GAP))
    while True:
        last = np.maximum.accumulate(np.where(edge, np.arange(edge.size), 0))
        late = np.flatnonzero(~edge & (angle - angle[last] > MERGE_GAP))
        if not late.size:
            break
        edge[late[np.append(True, np.diff(last[late]) != 0)]] = True
    edge = np.flatnonzero(edge)
    angle, dist, of = angle[edge], np.minimum.reduceat(dist, edge), of[edge]
    fold = TWO_PI - angle <= MERGE_GAP  # at most a circle's last edge: 2pi is the angle 0
    head = np.searchsorted(of, of[fold])
    dist[head] = np.minimum(dist[head], dist[fold])
    angle, dist, of = angle[~fold], dist[~fold], of[~fold]

    # base panel [a, b] from each edge to the next, the last to 2pi
    last = np.append(np.diff(of) != 0, True)
    a, b = angle, np.where(last, TWO_PI, np.roll(angle, -1))
    db = np.where(last, dist[np.searchsorted(of, of)], np.roll(dist, -1))
    w = b - a
    with np.errstate(divide="ignore"):
        la, lb = (np.where(d > 0.0, np.searchsorted(_LEVEL_RATIOS, w / d), SEED_LEVELS)
                  for d in (dist, db))
    # each panel's knots in ascending order, and 2pi after a circle's last:
    # a, a + w/8, a + w/4, a + w/2, b - w/2, b - w/4, b - w/8, b; only the
    # midpoints can round out of order, or to one knot
    step, levels = w[:, None] * _KNOT_STEPS, np.arange(SEED_LEVELS, 0, -1)
    knots = np.column_stack((a, a[:, None] + step, b[:, None] - step[:, ::-1], b))
    keep = np.column_stack((np.full(a.size, True), la[:, None] >= levels,
                            lb[:, None] >= levels[::-1], last))
    mid, both = knots[:, SEED_LEVELS:-SEED_LEVELS], keep[:, SEED_LEVELS:-SEED_LEVELS].all(1)
    mid[both] = np.sort(mid[both], axis=1)
    keep[both, SEED_LEVELS + 1] = mid[both, 0] != mid[both, 1]
    knots, on = knots[keep], np.repeat(of, keep.sum(1))
    pair = on[1:] == on[:-1]  # consecutive knots of one circle
    return knots[:-1][pair], knots[1:][pair], on[:-1][pair]


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

    ``cuts`` holds (angle, distance) pairs, or a two-column array of them:
    each angle becomes a panel edge, refined toward by the number of dyadic
    levels its distance calls for (see the module docstring); distance 0
    marks a singularity on the circle, ``math.inf`` a plain edge.
    ``evaluations`` counts those already spent on the integrand's
    structure, such as a search for the cuts; the result's count starts
    from it.
    """
    cuts = np.asarray(cuts, dtype=float).reshape(len(cuts), 2)
    return adaptive_circles(lambda theta, _: f(theta),
                            (cuts[:, 0], cuts[:, 1], np.zeros(len(cuts), dtype=np.intp)), 1,
                            atol, rtol, [evaluations])[0]


def adaptive_circles(f: Callable[[np.ndarray, np.ndarray], np.ndarray], cuts, count: int,
                     atol: float = 1e-10, rtol: float = 1e-8,
                     evaluations=()) -> list[QuadratureResult]:
    """Integrate over [0, 2pi) on ``count`` circles in lockstep, circle c
    with panels seeded from its cuts (see :func:`adaptive_circle`).

    ``cuts`` is three flat arrays, ``(angle, distance, circle)``: cut i at
    angle[i] with distance[i] on circle circle[i], in any order.  One pass
    (:func:`_seed_panels`) seeds the panels of every circle; a circle with
    no cut gets the one panel [0, 2pi].  A cut with a non-finite angle, or
    a distance that is NaN or negative, raises ValueError, checked with
    the tolerances (:func:`check_tolerances`) before any evaluation.

    ``f(theta, circle)`` takes angles and the circle index of each, one
    index where a call's angles all lie on one circle, and returns real
    values of matching shape.  Each round calls it on both
    halves of every active panel of the unfinished circles (the first round
    adds the seed panels), at most ``MAX_CALL_NODES`` nodes a call, with one
    gemv per block of panels -- coarse, left, right -- as separate calls
    would have.  A non-finite panel gets one nudge retry, then
    :class:`QuadratureFailure`.  The rest is each circle's own, as in a lone
    run: a panel is accepted when ``|coarse - fine| <= etol * width / 2pi``,
    with ``etol = max(atol, rtol*|total|)``, or infinite once the circle's
    summed error estimate is inside that global budget (which cancellation
    noise near contour-touching zeros needs), so that the one test accepts
    a finished circle's panels and the run ends when no panel is left;
    ``MAX_PANELS`` (read per call) and the evaluation count, from
    ``evaluations[c]`` (0 if not given).  A circle keeps its panels in a
    lone run's order and sums its own slice, so a lone circle runs bit for
    bit as before.  The run needs no round cap: every live panel halves
    each round, and one at most ``MIN_WIDTH`` wide is accepted, which a
    panel at most 2pi wide is within 56 rounds.
    """
    check_tolerances(atol, rtol)
    angle, dist, of = cuts
    angle, dist = np.asarray(angle, dtype=float), np.asarray(dist, dtype=float)
    if not (np.isfinite(angle).all() and (dist >= 0.0).all()):
        raise ValueError("cuts need finite angles and nonnegative distances")
    lo, hi, circle = _seed_panels(angle, dist, np.asarray(of, dtype=np.intp), count)
    live = list(range(count))  # the unfinished circles, and their panels
    counts = np.bincount(circle, minlength=count).tolist()
    spent = list(evaluations) if evaluations else [0] * count
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

    accepted_val, accepted_err, accepted_cnt = [0.0] * count, [0.0] * count, [0] * count
    coarse = None

    while True:  # within 56 rounds: see the docstring
        edges = np.array((lo, 0.5 * (lo + hi), hi))
        if coarse is None:  # the seed panels' own values ride in the first call
            coarse, left, right = blocks = panel_values(edges[[0, 0, 1]], edges[[2, 1, 2]], circle)
        else:
            left, right = blocks = panel_values(edges[:2], edges[1:], circle)
        fine = left + right
        err = np.abs(coarse - fine)
        etol, a = [], 0
        for c, m in zip(live, counts):
            spent[c] += len(blocks) * PANEL_ORDER * m
            tol = max(atol, rtol * abs(accepted_val[c] + float(fine[a:a + m].sum())))
            # inside its global budget the circle is done: every panel passes
            etol.append(math.inf if accepted_err[c] + float(err[a:a + m].sum()) <= tol else tol)
            a += m
        width = hi - lo
        done = (err <= np.repeat(etol, counts) * width / TWO_PI) | (width <= MIN_WIDTH)
        kept, a = [], 0
        for c, m in zip(live, counts):
            s, a = slice(a, a + m), a + m
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

    return [QuadratureResult(value=v, err_estimate=e, panels=p, evaluations=k)
            for v, e, p, k in zip(accepted_val, accepted_err, accepted_cnt, spent)]
