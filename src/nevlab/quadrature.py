"""Adaptive Gauss-Legendre quadrature on the unit circle of angles.

Circle averages of log-type integrands have integrable singularities where
a zero or pole sits on (or near) the contour.  The splitter therefore takes
the known singular angles up front, makes them panel endpoints, pre-refines
dyadically toward them, and then drives a plain split-and-compare loop: a
panel is accepted when the difference between its one-panel value and the
sum over its two halves is below the width-proportional share of the error
budget.  Each round calls the integrand once, on the nodes of both halves
of every active panel (the first round adds the seed panels' own nodes),
and forms the panel values with one gemv per block (coarse, left, right):
one gemv over the stacked blocks would move last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fnmodel import TWO_PI, QuadratureFailure

PANEL_ORDER = 16
SEED_LEVELS = 3
MIN_WIDTH = 1e-15


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@dataclass
class QuadratureResult:
    value: float
    err_estimate: float
    panels: int
    evaluations: int


def adaptive_circle(f: Callable[[np.ndarray], np.ndarray],
                    singular_angles=(),
                    atol: float = 1e-10,
                    rtol: float = 1e-8,
                    max_rounds: int = 60,
                    max_panels: int = 20000) -> QuadratureResult:
    """Integrate ``f`` over [0, 2pi) with singular-aware panel refinement.

    ``f`` must accept a 1-D angle array and return real values of matching
    shape.  It is called once per refinement round, on the nodes of both
    halves of every active panel (the first round adds the seed panels'
    nodes).  Each block of panels -- coarse, left, right -- gets its own
    gemv, so the values match separate calls per block bit for bit.  A
    panel whose value is non-finite gets one nudge retry, one more call per
    block, after which :class:`QuadratureFailure` is raised.  The error control accepts a panel
    when ``|coarse - fine| <= max(atol, rtol*|total|) * width / 2pi``, and
    the whole run finishes early once the summed error estimate over every
    remaining panel is already inside the global budget.  The global check
    matters near contour-touching zeros: cancellation noise in the integrand
    puts a floor under per-panel errors that a width-proportional share of
    the budget would chase forever.  ``atol`` and ``rtol`` must be finite
    and nonnegative, and not both zero, or ValueError is raised before any
    evaluation.
    """
    if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf) or atol == rtol == 0.0:
        raise ValueError("quadrature tolerances must be finite and nonnegative, "
                         "and not both zero")
    pts = sorted({0.0, TWO_PI} | {float(a) % TWO_PI for a in singular_angles})
    merged = [pts[0]]
    for a in pts[1:]:
        if a - merged[-1] > 1e-12:
            merged.append(a)
    if merged[-1] < TWO_PI - 1e-12:
        merged.append(TWO_PI)

    lo_list, hi_list = [], []
    for a, b in zip(merged[:-1], merged[1:]):
        # geometric pre-refinement toward both endpoints of each base panel
        width = b - a
        knots = [a]
        for k in range(SEED_LEVELS, 0, -1):
            knots.append(a + width * 0.5**k)
        for k in range(1, SEED_LEVELS + 1):
            knots.append(b - width * 0.5**k)
        knots.append(b)
        knots = sorted(set(knots))
        lo_list += knots[:-1]
        hi_list += knots[1:]

    lo, hi = np.array(lo_list), np.array(hi_list)
    x, w = _gl_nodes(PANEL_ORDER)
    evaluations = 0

    def panel_values(lo_b, hi_b, retry=True):
        """Gauss-Legendre values of f over the panels [lo_b, hi_b], given
        as (blocks, panels) arrays, from one call to f; ``retry`` allows
        the nudge retry of the panels whose value is non-finite."""
        nonlocal evaluations
        half = 0.5 * (hi_b - lo_b)
        theta = (0.5 * (hi_b + lo_b))[..., None] + half[..., None] * x
        vals = f(theta.ravel()).reshape(theta.shape)
        evaluations += theta.size
        out = np.empty(half.shape)
        for k, block in enumerate(vals):
            out[k] = block @ w  # one gemv per block: a stacked gemv moves last bits
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
                out[k, bad] = panel_values((a + shrink)[None], (b - shrink)[None], False)[0]
        return out

    accepted_val, accepted_err, accepted_cnt = 0.0, 0.0, 0
    coarse = None

    for _ in range(max_rounds):
        edges = np.array((lo, 0.5 * (lo + hi), hi))
        if coarse is None:  # the seed panels' own values ride in the first call
            coarse, left, right = blocks = panel_values(edges[[0, 0, 1]], edges[[2, 1, 2]])
        else:
            left, right = blocks = panel_values(edges[:2], edges[1:])
        fine = left + right
        err = np.abs(coarse - fine)

        total_now = accepted_val + float(fine.sum())
        etol = max(atol, rtol * abs(total_now))

        residual = accepted_err + float(err.sum())
        if residual <= etol:
            accepted_val = total_now
            accepted_err = residual
            accepted_cnt += lo.size
            break

        width = hi - lo
        done = (err <= etol * width / TWO_PI) | (width <= MIN_WIDTH)
        n_done = int(np.count_nonzero(done))
        if n_done:
            accepted_val += float(fine[done].sum())
            accepted_err += float(err[done].sum())
            accepted_cnt += n_done
        if n_done == lo.size:
            break
        keep = ~done
        edges = edges[:, keep]
        lo, hi = edges[:2].ravel(), edges[1:].ravel()
        coarse = blocks[-2:, keep].ravel()
        if lo.size + accepted_cnt > max_panels:
            raise QuadratureFailure(
                f"panel count exceeded {max_panels} before reaching tolerance"
            )
    else:
        raise QuadratureFailure(
            f"tolerance not reached after {max_rounds} refinement rounds "
            f"({lo.size} panels still active)"
        )

    return QuadratureResult(value=accepted_val, err_estimate=accepted_err,
                            panels=accepted_cnt, evaluations=evaluations)
