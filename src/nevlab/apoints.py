"""The a-points of a rational given by its divisor: every solution of
f = a in a disc, by an Ehrlich-Aberth iteration in product form, with no
coefficient expanded, whose roots are certified complete by inclusion
discs, or RootFindFailure; and the one log channel of e^w - a, which
exp(p) - a evaluates and every test of f = a reads.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import RootFindFailure, _carray
from .divisor import _DIVISOR_CELLS, Divisor, _differences, _node_step
from .roots import _ABERTH_ITER, _ABERTH_STEP

if TYPE_CHECKING:  # the expressions are built on this module
    from .fnmodel import RationalFromDivisor

_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


# The residual |f - a| / (1 + |a|) every certified a-point in the disc meets;
# the census re-tests unmatched images against the same bound.
PREIMAGE_RESIDUAL_TOL = 1e-6


def _log_minus(w: np.ndarray, a: complex, with_arg: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(log|e^w - a|, arg(e^w - a) or None) at the complex array w, each
    point in its regime of |e^w| against |a|: above e^0.7 |a|, log(e^w - a)
    = w + log(1 - s) with s = a e^-w; below e^-0.7 |a|, log(-a) + log(1 -
    s) with s = e^w / a; between, the plain log.  So |s| < e^-0.7 wherever
    log|1 - s| is taken, by log1p.  a = 0 gives (Re w, Im w)."""
    if a == 0:
        return w.real.copy(), w.imag.copy() if with_arg else None
    la = math.log(abs(a))
    big, small = w.real > la + 0.7, w.real < la - 0.7
    mid = ~(big | small)
    lm, ag = np.empty(w.shape), np.empty(w.shape) if with_arg else None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for mask, s, base in ((big, a * np.exp(-w[big]), w[big]),
                              (small, np.exp(w[small]) / a, cmath.log(-a)),
                              (mid, np.exp(w[mid]) - a, None)):
            if base is None:
                lm[mask] = np.log(np.abs(s))
            else:  # log|1 - s| = log1p(|1 - s|^2 - 1) / 2 keeps the bits of a small s
                lm[mask] = base.real + 0.5 * np.log1p((s.real - 2.0) * s.real + s.imag**2)
            if with_arg:
                ag[mask] = np.angle(s) if base is None else base.imag + np.angle(1.0 - s)
    return lm, ag


def _value_hits(lm: np.ndarray, ag: np.ndarray, a: complex) -> np.ndarray:
    """Where |f - a| <= PREIMAGE_RESIDUAL_TOL (1 + |a|), f = e^(lm + i ag),
    compared as logs through :func:`_log_minus`, so that no |f| overflows.
    A NaN never hits."""
    bound = math.log(PREIMAGE_RESIDUAL_TOL * (1.0 + abs(a)))
    return _log_minus(lm + 1j * ag, a, False)[0] <= bound


class _Workspace:
    """The work memory of one a-point solve, allocated once and written by
    every Aberth round and by the certificate, so that no round maps fresh
    (points, nodes) blocks.

    It holds the rows ``b`` and ``m`` of the divisor ``d``
    (``Divisor._rows``) as columns, with its pole rows and the rows of
    |m| > 1, and one complex arena.  Its first three blocks of ``points *
    step`` cells, ``step`` the nodes of a chunk (:func:`_node_step`), are
    ``diff``, into which :func:`_differences` writes z - b, and ``inv`` and
    ``w``, into which the sums write their reciprocals, terms and logs.
    The pair sums of ``n`` roots (:func:`_pair_reduce`) take a complex
    block ``pair`` and a float one ``pair_mod`` of ``rows * n`` cells each,
    ``rows`` the most rows within ``_DIVISOR_CELLS`` cells, from the start
    of the same arena: no pair sum runs while a divisor sum holds its
    blocks, so the pages a round touches once serve both.
    """

    def __init__(self, d: Divisor, n: int):
        b, m = d._rows
        self.b, self.m, self.abs_m = b[:, None], m[:, None], np.abs(m)[:, None]
        self.is_pole, self.pole = (m < 0)[:, None], np.flatnonzero(m < 0)
        self.neg_pole_m, self.multi = -self.m[self.pole], np.flatnonzero(np.abs(m) > 1)
        self.step = _node_step(b.size)
        self.rows = max(1, _DIVISOR_CELLS // max(n, 1))
        cells, pair = b.size * self.step, self.rows * n
        arena = np.empty(max(3 * cells, pair + (pair + 1) // 2), dtype=np.complex128)
        self.diff, self.inv, self.w = (arena[k * cells:(k + 1) * cells] for k in range(3))
        self.pair, self.pair_mod = arena[:pair], arena[pair:].view(np.float64)[:pair]
        self.acc = np.empty(self.step, dtype=np.complex128)  # one chunk's sums


def _block(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols cells of the flat block ``buf`` as a contiguous (rows, cols) array."""
    return buf[:rows * cols].reshape(rows, cols)


def _pair_reduce(z: np.ndarray, rows: np.ndarray, diag: float, reduce, ws: _Workspace,
                 dtype=np.float64) -> np.ndarray:
    """``reduce(d, mod, out)`` per row chunk of ``d[k, j] = z[rows[k]] -
    z[j]``, ``diag`` at ``j = rows[k]``, written into ``out``, the chunk's
    slice of the result: ``d`` and ``mod`` are contiguous views of the pair
    blocks of ``ws``, complex and float, of at most ``_DIVISOR_CELLS``
    cells (or one row), and ``reduce`` may overwrite both."""
    out = np.empty(rows.size, dtype=dtype)
    for i in range(0, rows.size, ws.rows):
        idx = rows[i:i + ws.rows]
        d = _block(ws.pair, idx.size, z.size)
        np.subtract(z[idx, None], z, out=d)
        d[np.arange(idx.size), idx] = diag
        reduce(d, _block(ws.pair_mod, idx.size, z.size), out[i:i + idx.size])
    return out


def _inverse_sums(d: np.ndarray, _, out: np.ndarray) -> None:
    """sum_j 1 / d per row, the reciprocals taken in place."""
    np.add.reduce(np.divide(1.0, d, out=d), axis=1, out=out)


def _log_moduli(d: np.ndarray, mod: np.ndarray, out: np.ndarray) -> None:
    """sum_j log|d| per row."""
    np.add.reduce(np.log(np.abs(d, out=mod), out=mod), axis=1, out=out)


def _dropped_lead(zeros: Divisor, poles: Divisor, a: complex) -> tuple[complex, int]:
    """Lead coefficient and degree of N = a (Z - Q), Z and Q the monic zero
    and pole polynomials of equal degree n.  By Newton's identities the top
    k - 1 coefficients cancel where the power sums sum p^j of the poles and
    of the zeros agree for j < k, and the next is a (sum p^k - sum z^k) / k.
    Sums that agree to their rounding count as equal."""
    n = zeros.total("zeros")
    (bz, mz), (bp, mp) = zeros._rows, poles._rows
    wz, wp = bz, bp
    for k in range(1, n + 1):
        gap = np.sum(mp * wp) - np.sum(mz * wz)
        size = np.sum(mp * np.abs(wp)) + np.sum(mz * np.abs(wz))
        if abs(gap) > (k + len(bz) + len(bp)) * 2.0**-50 * size:
            return a * complex(gap) / k, n - k
        wz, wp = wz * bz, wp * bp
    raise ValueError("f is identically equal to a")


def _is_normal(x: np.ndarray) -> np.ndarray:
    """Where |x| is a normal, finite, nonzero double."""
    mag = np.abs(x)
    return (mag >= _TINY) & (mag <= _HUGE)


def _aberth_sums(z: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f/scale, f'/f and Q'/Q at the nodes z, for the rational f of the
    divisor of ``ws`` and Q its monic pole polynomial, in one pass: each
    block of :func:`_differences` takes its reciprocals once.
    f'/f sums m/(z - b) and Q'/Q the same reciprocals, times |m|, over the
    pole rows, both in row order; f/scale is the row-order product of the
    differences at zero rows and of the reciprocals at pole rows, each
    raised to |m|.  The product may leave the double range: the caller
    tests it.  Every block is one of ``ws``.
    """
    flat = _carray(z).reshape(-1)
    prod, dl, dq = (np.empty(flat.size, dtype=np.complex128) for _ in range(3))
    with np.errstate(all="ignore"):
        for c, k, diff in _differences(flat, ws.b, ws.diff):
            cols, acc = diff.shape[1], ws.acc[:diff.shape[1]]
            inv, w = _block(ws.inv, *diff.shape), _block(ws.w, *diff.shape)
            np.divide(1.0, diff, out=inv)
            np.multiply(ws.m, inv, out=w)
            dl[c] = np.add.reduce(w, axis=0, out=acc)[:k]
            np.copyto(diff, inv, where=ws.is_pole)
            poles = _block(ws.inv, ws.pole.size, cols)  # the reciprocals are spent
            np.take(w, ws.pole, axis=0, out=poles, mode="clip")
            np.negative(np.add.reduce(poles, axis=0, out=acc)[:k], out=dq[c])
            if ws.multi.size:
                diff[ws.multi] **= ws.abs_m[ws.multi]
            prod[c] = np.multiply.reduce(diff, axis=0, out=acc)[:k]
    return prod, dl, dq


def _log_sums(z: np.ndarray, ws: _Workspace, scale: complex) -> tuple[np.ndarray, ...]:
    """log|f|, arg f, the rounding spread |log|scale|| + 7 + sum |m| (|log|z -
    b|| + 7) and log|Q| at the nodes z, for the rational f = scale prod (z -
    b)^m of the divisor of ``ws`` and Q its monic pole polynomial: the sums
    of :func:`_divisor_sums`' log and arg channels, bit for bit, with each
    block's log|z - b| taken once for the three log sums, into the float
    views of the blocks of ``ws``."""
    flat = _carray(z).reshape(-1)
    lm, ag, spread, log_q = (np.empty(flat.size) for _ in range(4))
    log_scale = math.log(abs(scale))
    inv, w, acc = ws.inv.view(np.float64), ws.w.view(np.float64), ws.acc.view(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, k, diff in _differences(flat, ws.b, ws.diff):
            rows, cols = diff.shape
            logs, term = _block(inv, rows, cols), _block(inv[diff.size:], rows, cols)
            poles, acc_c = _block(w, ws.pole.size, cols), acc[:cols]
            np.log(np.abs(diff, out=logs), out=logs)
            np.multiply(ws.m, logs, out=term)
            lm[c] = np.add.reduce(term, axis=0, initial=log_scale, out=acc_c)[:k]
            np.multiply(ws.m, np.arctan2(diff.imag, diff.real, out=term), out=term)  # m arg(z - b)
            ag[c] = np.add.reduce(term, axis=0, initial=math.atan2(scale.imag, scale.real),
                                  out=acc_c)[:k]
            np.multiply(ws.abs_m, np.add(np.abs(logs, out=term), 7.0, out=term), out=term)
            spread[c] = np.add.reduce(term, axis=0, initial=abs(log_scale) + 7.0, out=acc_c)[:k]
            np.take(logs, ws.pole, axis=0, out=poles, mode="clip")
            np.multiply(ws.neg_pole_m, poles, out=poles)
            log_q[c] = np.add.reduce(poles, axis=0, initial=0.0, out=acc_c)[:k]
    return lm, ag, spread, log_q


def _rational_preimages(expr: RationalFromDivisor, a: complex,
                        r: float) -> tuple[complex, np.ndarray]:
    """Lead coefficient of N = Q (f - a), Q the monic pole polynomial, and
    every root of N in |z| <= r, certified, or RootFindFailure.

    N has degree n = the number of zeros of f and lead ``scale`` if f has
    more zeros than poles, degree n_poles and lead -a if it has fewer, and
    with as many of each lead ``scale - a``, unless a = ``scale``, where the
    degree drops (:func:`_dropped_lead`).  An Ehrlich-Aberth iteration (Bini
    and Fiorentino, 2000) starts next to the first ``deg`` zeros of f, or
    next to its poles when those set the degree.  Each round takes N'/N =
    f'/(f - a) + Q'/Q from one pass of reciprocals (:func:`_aberth_sums`),
    with a/f from its product form and no log or angle, except at a node
    whose product or f is not a normal, finite, nonzero double: that node
    alone takes f from the log and arg channels (:func:`_log_sums`), as a
    product that leaves the range in row order needs.  Each root freezes at
    a relative step below ``_ABERTH_STEP`` (at most ``_ABERTH_ITER``
    rounds).  Every round and the certificate write their blocks into one
    :class:`_Workspace`.  The certificate reads the log channels
    once: root z_i gets the disc of radius deg |W_i|, W_i = N(z_i) /
    (lead prod_{j != i} (z_i - z_j)), |N| bounded with its rounding; disjoint
    such discs hold one root each (Braess and Hadeler, 1973).  The roots in
    |z| <= r are returned if no two discs meet, none crosses |z| = r and
    each root meets the residual bound.
    """
    zeros, poles = expr.divisor.signed("zeros"), expr.divisor.signed("poles")
    n, n_poles = expr.divisor.total("zeros"), expr.divisor.total("poles")
    if n < n_poles:
        lead, deg, near = -a, n_poles, poles
    elif n > n_poles:
        lead, deg, near = expr.scale, n, zeros
    elif expr.scale != a:
        lead, deg, near = expr.scale - a, n, zeros
    else:
        (lead, deg), near = _dropped_lead(zeros, poles, a), zeros
    if not deg:
        return lead, np.empty(0, dtype=np.complex128)
    zs = np.asarray(near.multiset()[:deg], dtype=np.complex128)
    live = k = np.arange(deg)
    z = zs + 1e-3 * (1.0 + np.abs(zs)) * np.exp(1j * (2.7 * k + 0.4))
    s, ws = expr.scale, _Workspace(expr.divisor, deg)
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_ITER):
            zl = z[live]
            prod, dl, dq = _aberth_sums(zl, ws)
            f = s * prod
            t = a / f
            far = ~(_is_normal(prod) & _is_normal(f))
            if far.any():  # f from the log channels where the product left the range
                lm, ag = _log_sums(zl[far], ws, s)[:2]
                t[far] = a * np.exp(-(lm + 1j * ag))
            corr = dl / (1.0 - t) + dq
            step = 1.0 / (corr - _pair_reduce(z, live, np.inf, _inverse_sums, ws, np.complex128))
            step[~np.isfinite(step)] = 0.0  # left to the certificate
            z[live] = zl - step
            live = live[np.abs(step) >= _ABERTH_STEP * (1.0 + np.abs(z[live]))]
            if not live.size:
                break
        # log f sums k rounded terms: f is off by a relative err <= (k + 2) eps
        # sum(|term| + 7), and 1 - a/f by (1 + |a/f|) (err + 4 eps)
        lm, ag, spread, log_q = _log_sums(z, ws, s)
        err = (len(expr.divisor._rows[0]) + 2) * 2.0**-52 * spread
        t = a * np.exp(-(lm + 1j * ag))
        log_n = log_q + lm + err + np.log(np.abs(1.0 - t) + (1.0 + np.abs(t)) * (err + 2.0**-50))
        rad = deg * np.exp(log_n - math.log(abs(lead)) - _pair_reduce(z, k, 1.0, _log_moduli, ws))

        def gaps(d, mod, out):  # min_j |d| - rad_j per row
            np.minimum.reduce(np.subtract(np.abs(d, out=mod), rad, out=mod), axis=1, out=out)

        gap = _pair_reduce(z, k, np.inf, gaps, ws)
        mod = np.abs(z)
        inside = mod <= r
        hits = _value_hits(lm[inside], ag[inside], a)
    for ok, why in (
            (hits, "in the disc misses the "
             "residual bound: double precision cannot separate it from the divisor"),
            (gap > rad, "has an inclusion disc that meets another"),
            ((mod + rad <= r) | (mod - rad > r), f"has an inclusion disc across |z| = {r!r}")):
        if not np.all(ok):
            raise RootFindFailure(f"a solution of f = a {why}")
    return lead, z[inside]
