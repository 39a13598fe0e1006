"""Polynomial roots: closed forms up to degree 2 and a batched
Aberth/Ehrlich iteration above, behind one row solver (:func:`_solve_rows`)
and one residual contract (:func:`_sorted_checked`), for one polynomial
(:func:`poly_roots`) or for the shifts p(z) = w of one (:func:`roots_of_shifts`).
"""

from __future__ import annotations

import numpy as np

from .core import TWO_PI, Polynomial, RootFindFailure

# A root z of a polynomial p of degree n has |p(z)| <= _ROOT_TOL (1 + |z|)^n
# |leading|, after at most _ABERTH_ITER Aberth steps; an Aberth iterate
# freezes at a step below _ABERTH_STEP (1 + |z|), in poly_roots and in the
# a-point solver of a rational.
_ROOT_TOL = 1e-10
_ABERTH_ITER = 200
_ABERTH_STEP = 1e-14
# Rows per batched Aberth solve are capped so that its (rows, n, n) array of
# pairwise root differences stays near 1 MB whatever the branch count.
_ABERTH_CELLS = 1 << 16


def _horner(cs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row k of ``cs`` (lowest degree first) evaluated at the points of row k of ``z``."""
    v = np.repeat(cs[:, -1:], z.shape[1], axis=1)
    for j in range(cs.shape[1] - 2, -1, -1):
        v = v * z + cs[:, j:j + 1]
    return v


def _aberth(cs: np.ndarray) -> np.ndarray:
    """Simultaneous (Aberth/Ehrlich) iterates for every row of ``cs``.

    ``cs`` is ``(K, n + 1)``, lowest degree first, with nonzero constant and
    leading terms; :func:`_solve_rows` sends it the rows of degree 3 and up.
    Each row starts on its own perturbed Cauchy circle and is frozen once its
    largest relative step drops below ``_ABERTH_STEP`` (or after ``_ABERTH_ITER``
    steps), so a row comes out as it would alone.  Returns ``(K, n)``.
    """
    n = cs.shape[1] - 1
    mon = cs / cs[:, -1:]
    bound = 1.0 + np.max(np.abs(mon[:, :-1]), axis=1)
    idx = np.arange(n)
    angles = TWO_PI * idx / n + 0.39996 / n + 0.5
    radii = bound[:, None] * (1.0 + 0.06 * np.sin(2.7 * idx + 0.4))
    z = radii * np.exp(1j * angles)
    dmon = mon[:, 1:] * np.arange(1, n + 1)

    out = np.empty_like(z)
    live = np.arange(len(cs))
    for _ in range(_ABERTH_ITER):
        dv = _horner(dmon, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        w = _horner(mon, z) / dv
        diff = z[:, :, None] - z[:, None, :]
        diff[:, idx, idx] = np.inf
        s = np.sum(1.0 / diff, axis=2)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        done = np.max(np.abs(step) / (1.0 + np.abs(z)), axis=1) < _ABERTH_STEP
        if done.any():
            out[live[done]] = z[done]
            keep = ~done
            live, z, mon, dmon = live[keep], z[keep], mon[keep], dmon[keep]
            if not live.size:
                break
    out[live] = z
    return out


def _quadratic(cs: np.ndarray) -> np.ndarray:
    """Both roots of every row of the ``(K, 3)`` array ``cs``.

    A row is brought to the monic form z^2 + 2hz + g and scaled by t, the
    least power of two above max(|h|, sqrt|g|), so that neither the
    discriminant nor a root overflows.  The root -t (h/t + s), with the sign
    of s = sqrt(h^2/t^2 - g/t^2) that adds to h/t, has no cancellation; the
    other is g over it (Vieta), or -t (h/t - s) where that has none either.
    """
    h = cs[:, 1] / (2.0 * cs[:, 2])
    g = cs[:, 0] / cs[:, 2]
    # scaling by a power of two is exact
    t = np.ldexp(1.0, np.frexp(np.maximum(np.abs(h), np.sqrt(np.abs(g))))[1])
    hs, gs = h / t, g / t / t
    s = np.sqrt(hs * hs - gs)
    s = np.where(hs.real * s.real + hs.imag * s.imag < 0, -s, s)
    z1 = -t * (hs + s)
    # -t (h/t - s) is the other root, cancellation-free where |h/t| <= |s| / 2
    z2 = np.where(2.0 * np.abs(hs) <= np.abs(s), -t * (hs - s), g / z1)
    return np.stack((z1, z2), axis=1)


def _solve_rows(cs: np.ndarray) -> np.ndarray:
    """Roots of every row of ``cs`` (``(K, n + 1)``, lowest degree first,
    nonzero constant and leading terms), unsorted: degree 1 as -c0 / c1,
    degree 2 by :func:`_quadratic`, higher degrees by :func:`_aberth`."""
    n = cs.shape[1] - 1
    if n == 1:
        return -cs[:, :1] / cs[:, 1:]
    if n == 2:
        return _quadratic(cs)
    return _aberth(cs)


def _sorted_checked(roots: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Sort each row of ``roots`` by (modulus, re, im) and enforce the residual
    contract of its polynomial, row ``cs`` (lowest degree first).

    The contract |p(z)| <= _ROOT_TOL (1 + |z|)^n |leading| is tested
    divided by (1 + |z|)^n, so that it holds for every finite root, however
    large; a non-finite root or residual fails it.
    """
    roots = np.take_along_axis(
        roots, np.lexsort((roots.imag, roots.real, np.abs(roots)), axis=-1), axis=-1)
    n = cs.shape[1] - 1
    rho = 1.0 / (1.0 + np.abs(roots))
    zeta, power = roots * rho, rho
    v = np.repeat(cs[:, -1:], roots.shape[1], axis=1)
    for j in range(n - 1, -1, -1):  # Horner on p(z) / (1 + |z|)^n
        v = v * zeta + cs[:, j:j + 1] * power
        power = power * rho
    resid = np.abs(v)
    limit = np.maximum(_ROOT_TOL * np.abs(cs[:, -1:]), 1e-300)
    if not np.all(resid <= limit):
        worst = float(np.max(np.nan_to_num(resid / limit, nan=np.inf)))
        raise RootFindFailure(
            f"root residual contract violated (worst ratio {worst:.3g}, degree {n})"
        )
    return roots


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p``: in closed form up to degree 2, by simultaneous
    (Aberth/Ehrlich) iteration above.

    Roots at the origin are peeled off exactly first, and the rest solved by
    :func:`_solve_rows`: degree 1 as -c0 / c1, degree 2 by a scaled,
    cancellation-free quadratic formula, higher degrees by :func:`_aberth`.
    Residuals are checked against ``_ROOT_TOL * (1 + |root|)^degree *
    |leading|``; a violation, or a root or residual that is not finite,
    raises :class:`RootFindFailure`.
    """
    cs = np.asarray(p.coeffs, dtype=np.complex128)
    if p.is_zero:
        raise RootFindFailure("zero polynomial has no well-defined root set")
    n = p.degree
    if n == 0:
        return np.empty(0, dtype=np.complex128)

    # Exact roots at the origin peel off cheaply and help conditioning; they
    # occupy the tail until the sort.
    k0 = 0
    while k0 < n and cs[k0] == 0:
        k0 += 1
    roots = np.zeros((1, n), dtype=np.complex128)
    if k0 < n:
        roots[:, :n - k0] = _solve_rows(cs[None, k0:])
    return _sorted_checked(roots, cs[None, :])[0]


def roots_of_shifts(p: Polynomial, ws) -> np.ndarray:
    """Roots of ``p(z) = w`` for every ``w`` in ``ws``, one row per target.

    Row ``j`` equals ``poly_roots(p - Polynomial((ws[j],)))`` bit for bit:
    the rows go through the same row solver, :func:`_solve_rows` (closed
    form up to degree 2, one Aberth iteration over a ``(K, degree)`` array
    above), with the same residual contract, checked per row.  Rows whose
    constant term is exactly 0 go through :func:`poly_roots`, which peels the
    origin roots.  Returns ``(K, degree)``.
    """
    ws = np.asarray(ws, dtype=np.complex128).reshape(-1)
    # The arithmetic of p - Polynomial((w,)): 0j is added to the upper
    # coefficients (which can flip a signed zero) and -w to the constant.
    cs = np.tile(np.asarray(p.coeffs, dtype=np.complex128) + 0j, (len(ws), 1))
    cs[:, 0] = p.coeffs[0] + (-ws)
    roots = np.empty((len(ws), p.degree), dtype=np.complex128)
    at_origin = cs[:, 0] == 0
    for j in np.flatnonzero(at_origin):
        roots[j] = poly_roots(p - Polynomial((ws[j],)))
    rest = np.flatnonzero(~at_origin)
    if p.degree:
        chunk = max(1, _ABERTH_CELLS // p.degree**2)
        for i in range(0, rest.size, chunk):
            rows = rest[i:i + chunk]
            roots[rows] = _sorted_checked(_solve_rows(cs[rows]), cs[rows])
    return roots
