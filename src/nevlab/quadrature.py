"""Adaptive Gauss-Legendre quadrature on the unit circle of angles.

Circle averages of log-type integrands have integrable singularities where
a zero or pole sits on (or near) the contour.  The splitter therefore takes
the known singular angles up front, makes them panel endpoints, pre-refines
dyadically toward them, and then drives a plain split-and-compare loop: a
panel is accepted when the difference between its one-panel value and the
sum over its two halves is below the width-proportional share of the error
budget.
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


def _panel_values(f: Callable[[np.ndarray], np.ndarray],
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre value of f over each [lo_i, hi_i], batched."""
    x, w = _gl_nodes(PANEL_ORDER)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    theta = mid[:, None] + half[:, None] * x[None, :]
    vals = f(theta.ravel()).reshape(theta.shape)
    return half * (vals @ w)


def adaptive_circle(f: Callable[[np.ndarray], np.ndarray],
                    singular_angles=(),
                    atol: float = 1e-10,
                    rtol: float = 1e-8,
                    max_rounds: int = 60,
                    max_panels: int = 20000) -> QuadratureResult:
    """Integrate ``f`` over [0, 2pi) with singular-aware panel refinement.

    ``f`` must accept a 1-D angle array and return values of matching shape;
    non-finite values at a quadrature node get one nudge retry, after which
    :class:`QuadratureFailure` is raised.  The error control accepts a panel
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
    cuts = {0.0, TWO_PI}
    for a in singular_angles:
        a = float(a) % TWO_PI
        cuts.add(a)
    pts = sorted(cuts)
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
        for u, v in zip(knots[:-1], knots[1:]):
            lo_list.append(u)
            hi_list.append(v)

    lo = np.array(lo_list)
    hi = np.array(hi_list)
    evaluations = 0

    def safe_values(lo_arr, hi_arr):
        nonlocal evaluations
        evaluations += lo_arr.size * PANEL_ORDER
        vals = _panel_values(f, lo_arr, hi_arr)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            # nudge the offending panels inward once; a singular endpoint is
            # legal, a singular interior node means the split angles missed it
            shrink = 1e-9 * (hi_arr[bad] - lo_arr[bad])
            vals2 = _panel_values(f, lo_arr[bad] + shrink, hi_arr[bad] - shrink)
            evaluations += int(np.sum(bad)) * PANEL_ORDER
            if np.any(~np.isfinite(vals2)):
                raise QuadratureFailure(
                    "integrand is non-finite inside a panel after a nudge retry"
                )
            vals = vals.copy()
            vals[bad] = vals2
        return vals

    coarse = safe_values(lo, hi)

    accepted_val = 0.0
    accepted_err = 0.0
    accepted_cnt = 0

    for _ in range(max_rounds):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        left = safe_values(lo, mid)
        right = safe_values(mid, hi)
        fine = left + right
        err = np.abs(coarse - fine)

        total_now = accepted_val + float(np.sum(fine))
        etol = max(atol, rtol * abs(total_now))

        residual = accepted_err + float(np.sum(err))
        if residual <= etol:
            accepted_val = total_now
            accepted_err = residual
            accepted_cnt += int(lo.size)
            lo = np.empty(0)
            break

        budget = etol * (hi - lo) / TWO_PI
        done = (err <= budget) | (hi - lo <= MIN_WIDTH)

        accepted_val += float(np.sum(fine[done]))
        accepted_err += float(np.sum(err[done]))
        accepted_cnt += int(np.sum(done))

        keep = ~done
        if not np.any(keep):
            lo = np.empty(0)
            break
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        if lo.size + accepted_cnt > max_panels:
            raise QuadratureFailure(
                f"panel count exceeded {max_panels} before reaching tolerance"
            )
    else:
        raise QuadratureFailure(
            f"tolerance not reached after {max_rounds} refinement rounds "
            f"({lo.size} panels still active)"
        )

    return QuadratureResult(
        value=accepted_val,
        err_estimate=accepted_err,
        panels=accepted_cnt,
        evaluations=evaluations,
    )
