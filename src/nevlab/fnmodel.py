"""Closed family of meromorphic test functions with log-domain evaluation.

Everything downstream (circle averages, pole/zero counts, bound verifiers)
works through three channels defined on a small symbolic expression family:

* ``eval``          -- plain complex value, for tests and orbit work;
* ``logmod_eval``   -- (log|f(z)|, arg f(z)) computed structurally, so that
  towers like exp(exp(z)) never leave the floating range; its array form
  ``_log_parts`` has a modulus-only twin ``_log_mod`` for the circle means
  (proximity, Jensen), which never read arg f;
* ``_logderivs``    -- f'(z)/f(z) on arrays, in closed form (never by
  numeric differentiation), for the contour counts of exp(p) - a; a
  rational given by its divisor has one too, for a count whose winding
  number its circle form does not certify.

Every member of the family knows its zero/pole divisor inside a disc
(``divisor``), which is what the counting functions and the quadrature
panel splitter consume: no member lacks one, so no consumer asks whether
a divisor exists.  A rational given by its divisor evaluates every channel
with one broadcast kernel over (points, nodes) chunks, bit-identical to a
loop over its points.

The proximity mean of a rational given by its divisor, of exp(p) and of
exp(exp(p)) has a closed form (``FunctionExpr.closed_proximity``): Jensen's
formula where the divisor alone decides the sign of log|f|, else the exact
integrals between the certified |f| = 1 angles (``circles``, with the
searches of ``kinks``).  The quadrature reads ``_log_mod`` of the
expression itself.  A product or quotient is counted by its leaves, of
which only rationals and exp(p) - a with a != 0 can have zeros or poles.

The family is deliberately closed: constants, rationals given by their
divisor, exp of a polynomial minus a constant (``ExpPoly(p, a)``; ``a = 0``
is plain exp(p)), the tower exp(exp(p)) (``Exp(p)``), products and
quotients.  Smart constructors rewrite combinations into it.
`compose_poly` takes every member to its precomposition with a nonconstant
polynomial, a rational to the rational of its pulled-back divisor, so f(p)
evaluates, folds, cuts its kinks and solves its a-points as the family
does.  `subtract` rewrites the differences that have a normal form in the
family, e.g. ``e^P - e^Q  ->  e^Q * (e^(P-Q) - 1)``, and raises
:class:`OpaqueExpr` on every other; the a-points of f are the zeros of
``subtract(f, Const(a))``, and those of a rational come from the certified
solver of ``apoints``.  Every a-point query reads a through
``target_value``, in which None, "inf", "oo" and +inf all mean the poles.

All array-shaped internals are numpy-vectorized; the public scalar wrappers
enforce the pole/overflow signalling contract.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from .apoints import _log_minus, _rational_preimages
from .circles import (_NO_ANGLES, _NO_SERIES, _arc_mean, _circle_form, _divisor_sign,
                      _exp_series, _log_antiderivative, _trig_arc_means)
from .core import (_EPS, _LOG_HUGE, MAX_PANELS, TWO_PI, IdenticalComposition, OpaqueExpr,
                   OverflowSignal, PoleSignal, Polynomial, ToolkitError, _carray,
                   parse_complex, record)
from .divisor import (EMPTY_DIVISOR, Divisor, _arg_term, _divisor_sums, _inv_term, _log_term,
                      _pull_back)
from .kinks import _band_search, _im_level_angles, _level_search
from .roots import poly_roots  # noqa: F401  (the bench wraps fnmodel.poly_roots)

# Proximity scale under which a point counts as sitting on a divisor point.
POLE_TOL = 1e-12
# Most log-branches of exp(p) = a one disc may need (2 kmax + 1): e^z - 1
# reaches r = 2^20 (333,777) and a larger disc raises OverflowSignal.
_MAX_BRANCHES = 1 << 19


class FunctionExpr:
    """Base class; every variant is a frozen :func:`record`, hence hashable
    (``_divisor_cached`` keys on it)."""

    # -- vectorized channels (numpy arrays in/out) --------------------------------
    def _log_parts(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log|f|, arg f) with +/-inf sentinels at poles/zeros."""
        raise NotImplementedError

    def _log_mod(self, z: np.ndarray) -> np.ndarray:
        """log|f| alone, equal to ``_log_parts(z)[0]``, for callers that never read arg f."""
        return self._log_parts(z)[0]

    def closed_proximity(self, radii) -> list[tuple[tuple[float, float] | None,
                                                    np.ndarray | None, int]]:
        """(mean, cuts, spent) for each circle |z| = r of ``radii``: the one
        question a grid of circle means asks of the expression.

        ``mean`` is (m(r, f), its rounding bound) in closed form, or None
        where the quadrature must find it: Jensen's formula for a rational
        given by its divisor where the divisor bound keeps log|f| off 0,
        else the dilogarithm arcs between its certified kinks; the
        trigonometric arcs of exp(p); and for exp(exp(p)) the same arcs of
        the series of e^p, where it stays in the double range and within
        ``MAX_PANELS`` terms (:func:`_exp_series`).  ``cuts`` are the
        sorted angles in [0, 2pi) at which the quadrature cuts its panels:
        the kinks where |f| = 1, with the band edges of
        :meth:`level_angles` for exp(p) - a and its reciprocals.  The kinks
        are found at no
        evaluation for constants (none), exp(p) and exp(exp(p))
        (:func:`_im_level_angles`), by a certified search through
        :func:`_circle_form` for a rational (:func:`_level_search`), and by
        one band search over the whole grid for exp(p) - a with a != 0 and
        for c / (exp(p) - a) (:func:`_band_search`); ``spent`` counts the
        searches' evaluations.  ``cuts`` is None where the kinks are not
        known: for every other expression (products, other quotients, ...),
        where the coefficients over- or underflow at ``r`` or the angles
        would exceed ``MAX_PANELS``, where the divisor bound keeps a
        rational's log|f| off 0, and where its search finds no crossing."""
        return [(None, kinks if kinks is None or not edges.size
                 else np.sort(np.concatenate((kinks, edges))), spent)
                for kinks, edges, spent in self.level_angles(radii)]

    def level_angles(self, radii, level: float = 1.0) -> list[tuple[np.ndarray | None,
                                                                    np.ndarray, int]]:
        """(kinks, edges, spent) for each circle |z| = r of ``radii``: the
        sorted angles in [0, 2pi) where |f| = ``level``, or None where they
        are not known; more sorted angles where a quadrature of log+|f| /
        level should cut its panels (:func:`_band_search`'s band edges),
        else none; and the evaluations spent finding them.  Known for
        constants (none), for exp(p) - a, for exp(exp(p)) at level 1, where
        they end the arcs of its closed mean, and for c / g with a constant
        c != 0, which are g's angles at the level |c| / level; unknown for
        every other expression."""
        return [(None, _NO_ANGLES, 0)] * len(radii)

    def _divisor_impl(self, r: float) -> Divisor:
        raise NotImplementedError

    # -- public ops ----------------------------------------------------------------
    def divisor_in_disc(self, r: float) -> Divisor:
        """Divisor restricted to |z| <= r.

        This decides which disc a divisor is solved on.  With rq the
        smallest power of two at least ``max(r, 1e-6)``: where a disc R >=
        rq was already solved for an equal expression (``_divisor_cached``),
        its divisor is restricted to r; else the divisor is solved on rq,
        which becomes the expression's largest disc.  So a grid that asks
        for its largest disc first (:meth:`solve_ahead`) solves one disc,
        and a query with no larger disc solved solves rq.  The result is
        monotone in ``r``.  It equals a fresh solve on rq unless a group of
        points that the merge (:meth:`Divisor.build`) joins straddles
        |z| = rq, which the larger disc merges to one point at its centroid:
        for the product of the rationals with one zero at 8 - 1e-9 and at
        8 + 1e-9, disc 8 read from disc 16 holds a zero of order 2 at 8, a
        fresh solve on 8 one of order 1 at 8 - 1e-9.
        Raises :class:`OverflowSignal` when rq, or a bound the divisor
        needs, leaves the double range.
        """
        if r < 0:
            raise ValueError("disc radius must be nonnegative")
        if not math.isfinite(r):
            raise ValueError("disc radius must be finite")
        mant, exp = math.frexp(max(r, 1e-6))  # r = mant * 2**exp, 0.5 <= mant < 1
        try:
            rq = math.ldexp(1.0, exp - 1 if mant == 0.5 else exp)
        except OverflowError:
            raise OverflowSignal(
                f"disc radius {r!r} rounds up past the floating range") from None
        return _divisor_cached(self, rq).restrict(r)

    def solve_ahead(self, r: float) -> None:
        """Solve the divisor on the disc that ``divisor_in_disc(r)`` reads,
        so that the queries of a radius grid up to r restrict it instead of
        solving each smaller disc they cross.  Best-effort: a failure to
        solve it is dropped, and the grid's own queries raise as they would
        have without it."""
        try:
            self.divisor_in_disc(r)
        except (ToolkitError, ArithmeticError, ValueError):
            pass

    def eval(self, z: complex) -> complex:
        """Plain value; raises PoleSignal near poles, OverflowSignal past range.
        The poles are read from the divisor only where one can sit
        (:func:`_may_have_poles`), and only near z (:meth:`_divisor_near`)."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z={z} is not a finite point")
        if _may_have_poles(self):
            tol = POLE_TOL * (1.0 + abs(z))
            div = self._divisor_near(z, tol)
            poles = div.points[div.mults < 0]
            near = poles[np.hypot((z - poles).real, (z - poles).imag) <= tol]
            if near.size:
                raise PoleSignal(f"z={z} is within {tol:.2e} of a pole at {near[0].item()}")
            if div.origin_order < 0 and abs(z) <= tol:
                raise PoleSignal(f"z={z} is within {tol:.2e} of the pole at 0")
        lm, ag = self._log_parts(_carray([z]))
        if lm[0] == np.inf:
            raise PoleSignal(f"f has a pole at z={z}")
        if lm[0] == -np.inf:
            return 0j
        with np.errstate(over="ignore", invalid="ignore"):
            v = complex(np.exp(lm + 1j * ag)[0])
        if not (lm[0] < _LOG_HUGE and cmath.isfinite(v)):  # a NaN log|f| or arg f too
            raise OverflowSignal(f"|f(z)| exceeds the floating range at z={z}")
        return v

    def _divisor_near(self, z: complex, tol: float) -> Divisor:
        """The divisor whose poles within ``tol`` of z :meth:`eval` tests:
        that on the disc |w| <= |z| + 1, merged over the leaves of a product
        or quotient as its divisor is, where a zero-free leaf
        (:func:`_signed_leaves`) reads none and exp(p) - a solves only the
        log-branches near z (:meth:`ExpPoly._divisor_near`)."""
        if next(_signed_leaves(self), None) is None:
            return EMPTY_DIVISOR
        return self.divisor_in_disc(abs(z) + 1.0)

    def logmod_eval(self, z: complex) -> tuple[float, float]:
        """(log|f(z)|, arg f(z) mod 2pi); -inf at exact zeros, PoleSignal at poles."""
        lm, ag = self._log_parts(_carray([complex(z)]))
        if lm[0] == np.inf:
            raise PoleSignal(f"f has a pole at z={z}")
        a = float(ag[0]) % TWO_PI if np.isfinite(ag[0]) else 0.0
        return float(lm[0]), a


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _DivisorCache:
    """Each expression's divisor on the largest disc solved for it.

    A call ``(expr, rq)`` returns the divisor on the recorded disc R where
    R >= rq (a hit), else solves it on rq, which becomes R (a miss: one
    solve).  At most ``maxsize`` expressions are held, the least recently
    read dropped first.  ``cache_info`` and ``cache_clear`` count and reset
    it as those of an ``lru_cache`` do."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.cache_clear()

    def __call__(self, expr: FunctionExpr, rq: float) -> Divisor:
        solved = self._solved.get(expr)
        if solved is not None and solved[0] >= rq:
            self._hits += 1
        else:
            self._misses += 1
            solved = rq, expr._divisor_impl(rq)
        self._solved.pop(expr, None)  # reinserted as the most recently read
        self._solved[expr] = solved
        if len(self._solved) > self.maxsize:
            del self._solved[next(iter(self._solved))]
        return solved[1]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._solved))

    def cache_clear(self) -> None:
        self._solved: dict[FunctionExpr, tuple[float, Divisor]] = {}
        self._hits = self._misses = 0


_divisor_cached = _DivisorCache(maxsize=4096)


@record
class Const(FunctionExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _log_parts(self, z):
        shape = z.shape
        if self.value == 0:
            return np.full(shape, -np.inf), np.zeros(shape)
        # math.atan2, not cmath.phase, which raises where the angle underflows
        v = self.value
        return np.full(shape, math.log(abs(v))), np.full(shape, math.atan2(v.imag, v.real))

    def level_angles(self, radii, level=1.0):
        return [(_NO_ANGLES, _NO_ANGLES, 0)] * len(radii)  # |f| is constant: no kinks

    def _divisor_impl(self, r):
        return EMPTY_DIVISOR


@record
class RationalFromDivisor(FunctionExpr):
    """scale * z^origin_order * prod (z - p)^mult over the divisor's points."""

    scale: complex
    divisor: Divisor

    def __post_init__(self):
        object.__setattr__(self, "scale", complex(self.scale))
        if self.scale == 0:
            raise ValueError("scale must be nonzero")

    # A pole (negative mult) hit exactly gives +inf through -m * (-inf).
    def _log_parts(self, z):
        s = self.scale
        return _divisor_sums(z, self.divisor, ((math.log(abs(s)), _log_term),
                                               (math.atan2(s.imag, s.real), _arg_term)))

    def _log_mod(self, z):
        return _divisor_sums(z, self.divisor, ((math.log(abs(self.scale)), _log_term),))[0]

    def _logderivs(self, z):
        return _divisor_sums(z, self.divisor, ((0j, _inv_term),))[0]

    def closed_proximity(self, radii):
        return [self._closed_proximity_at(r) for r in radii]

    def _closed_proximity_at(self, r):
        kinks = None if self.divisor.points.size else _NO_ANGLES  # |scale z^k| is constant
        sign = 1 if kinks is _NO_ANGLES else _divisor_sign(self, r)
        if sign < 0:
            return (0.0, 0.0), kinks, 0
        form = self.divisor, math.log(abs(self.scale)), _NO_SERIES, _NO_SERIES  # Jensen
        angles, spent, certified = _NO_ANGLES, 0, True
        if not sign:
            form = _circle_form(self, r)
            angles, spent, certified = _level_search(self, form, r)
            kinks = angles if angles.size else None
        mean = _arc_mean(angles, *_log_antiderivative(form, r, angles)) if certified else None
        return mean, kinks, spent

    def _divisor_impl(self, r):
        return self.divisor.restrict(r)


@record
class ExpPoly(FunctionExpr):
    """exp(p(z)) - a for a polynomial p, evaluated stably across all
    magnitude regimes; the default ``a = 0`` is the zero-free exp(p(z))."""

    p: Polynomial
    a: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))

    def _log_parts(self, z):
        return self._logs(z, True)

    def _log_mod(self, z):
        return self._logs(z, False)[0]

    def _logs(self, z, with_arg: bool):
        """(log|f|, arg f or None) from the log channel of e^w - a at w = p(z)."""
        with np.errstate(over="ignore", invalid="ignore"):
            w = _carray(self.p(z))
        finite = np.isfinite(w)
        if not finite.all() and np.isfinite(z[~finite]).any():  # a NaN z gives NaN
            raise OverflowSignal("the exponent of exp(p) is not finite here: "
                                 "log|f| leaves the floating range")
        return _log_minus(w, self.a, with_arg)

    def _logderivs(self, z):  # f'/f = p' e^p / f = p' e^(p - log f)
        w = _carray(self.p(z))
        lm, ag = _log_minus(w, self.a, True)
        return _carray(self.p.deriv()(z)) * np.exp(w - (lm + 1j * ag))

    def level_angles(self, radii, level=1.0):
        if self.a != 0:
            return _band_search(self.p, self.a, level, radii)
        # |e^p| = level where Re p = log(level), and Re p = Im(ip)
        q, shift = self.p.scale(1j), [math.log(level)]
        return [(_im_level_angles(q, r, shift), _NO_ANGLES, 0) for r in radii]

    def closed_proximity(self, radii):
        if self.a != 0:  # exp(p) - a has no closed form
            return super().closed_proximity(radii)
        # log|e^p| = Re p = Re sum c_j e^{ij theta}, c_j = p_j r^j, exactly
        return _trig_arc_means(self, radii, lambda r: (
            np.array([p_k * float(r)**k for k, p_k in enumerate(self.p.coeffs)]), 0.0, 0.0))

    def _divisor_impl(self, r):
        if self.a == 0:
            return EMPTY_DIVISOR
        la = cmath.log(self.a)  # principal
        bound = self.p.coeff_bound(r)
        kmax = int(math.ceil((bound + abs(la)) / TWO_PI)) + 1
        if 2 * kmax + 1 > _MAX_BRANCHES:
            raise OverflowSignal(
                f"exp(p) = a has up to {2 * kmax + 1} log-branches in |z| <= {r!r}, "
                f"more than {_MAX_BRANCHES}")
        w = la + (TWO_PI * 1j) * np.arange(-kmax, kmax + 1)
        w = w[np.abs(w) <= bound + 1e-9]  # the log-branches that p can reach
        if self.p.degree == 0 and (w == self.p.coeffs[0]).any():
            raise OpaqueExpr("exp argument is constant and equals log(a)")
        return _pull_back(self.p, w, np.ones(w.size, dtype=np.int64), r)

    def _divisor_near(self, z, tol):
        """The zeros of the log-branches p(w) = log a + 2 pi i k whose roots
        can lie within ``tol`` of z: |p(w) - p(z)| <= B = tol sum_j j |p_j|
        (|z| + tol)^(j - 1) there, so k is within B (and the rounding of
        p(z)) of (p(z) - log a) / 2 pi i.  A constant p, and a p(z) or a
        branch count past the range, read the whole disc instead."""
        if self.a == 0:
            return EMPTY_DIVISOR
        la = cmath.log(self.a)
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.p(z) - la
        if self.p.degree == 0 or not cmath.isfinite(c):
            return super()._divisor_near(z, tol)
        reach = (tol * self.p.deriv().coeff_bound(abs(z) + tol)
                 + 4.0 * (self.p.degree + 1) * _EPS * (self.p.coeff_bound(abs(z)) + abs(la)))
        lo, hi = math.ceil((c.imag - reach) / TWO_PI), math.floor((c.imag + reach) / TWO_PI)
        if abs(c.real) > reach or hi < lo:
            return EMPTY_DIVISOR
        if hi - lo >= _MAX_BRANCHES:
            return super()._divisor_near(z, tol)
        w = la + (TWO_PI * 1j) * np.arange(lo, hi + 1)
        return _pull_back(self.p, w, np.ones(w.size, dtype=np.int64), abs(z) + 1.0)


@record
class Exp(FunctionExpr):
    """exp(exp(p(z))) for a :class:`Polynomial` p, else ``TypeError``; the
    tower of the sharpness example, e^{e^z}, is ``Exp(Polynomial((0j, 1.0)))``."""

    p: Polynomial

    def __post_init__(self):
        if not isinstance(self.p, Polynomial):
            raise TypeError(f"Exp(p) is exp(exp(p)) for a Polynomial p, not {self.p!r}")

    def _log_parts(self, z):
        # log f = e^p, made from Re p and Im p as eval makes f (np.exp(p) can flip the sign
        # of a zero arg); Re p = -inf at an infinite z gives e^p = 0
        with np.errstate(over="ignore", invalid="ignore"):
            w = _carray(self.p(z))
            e = np.exp(w.real + 1j * w.imag)
        zero = (w.real == -np.inf) & ~np.isfinite(z)
        # a NaN z gives NaN
        if not ((np.isfinite(w) & (w.real < _LOG_HUGE)) | zero | np.isnan(z)).all():
            raise OverflowSignal("the exponent of exp(exp(p)) is not finite here: "
                                 "log|f| leaves the floating range")
        e[zero] = 0.0
        return e.real.copy(), e.imag.copy()

    def _divisor_impl(self, r):
        return EMPTY_DIVISOR

    def closed_proximity(self, radii):
        # log|e^{e^p}| = Re e^p = Re sum E_n e^{in theta}
        return _trig_arc_means(self, radii, lambda r: _exp_series(self.p, r))

    def level_angles(self, radii, level=1.0):
        # |f| = 1 where Re e^p = 0: Im p = pi/2 + k pi, |Im p| <= bound
        if level != 1.0:
            return super().level_angles(radii, level)
        out = []
        for r in radii:
            bound = self.p.coeff_bound(r)
            k_lo = math.ceil(-bound / math.pi - 0.5)
            k_hi = math.floor(bound / math.pi - 0.5)
            if 2 * self.p.degree * (k_hi - k_lo + 1) > MAX_PANELS:
                out.append((None, _NO_ANGLES, 0))
                continue
            # a constant p has no angles, however many levels its bound spans
            shifts = [math.pi * (k + 0.5) for k in range(k_lo, k_hi + 1)] if self.p.degree else []
            out.append((_im_level_angles(self.p, r, shifts), _NO_ANGLES, 0))
        return out


class _Pair(FunctionExpr):
    """lhs * rhs or lhs / rhs: each channel is the sides' channels combined
    by ``_op``, ``np.add`` or ``np.subtract`` (the ufuncs of ``+`` and ``-``)."""

    def _log_parts(self, z):
        la, aa = self.lhs._log_parts(z)
        lb, ab = self.rhs._log_parts(z)
        return self._op(la, lb), self._op(aa, ab)

    def _log_mod(self, z):
        return self._op(self.lhs._log_mod(z), self.rhs._log_mod(z))


@record
class Product(_Pair):
    lhs: FunctionExpr
    rhs: FunctionExpr

    _op = np.add

    def _divisor_impl(self, r):
        return self.lhs.divisor_in_disc(r).merge(self.rhs.divisor_in_disc(r))

    def _divisor_near(self, z, tol):
        return self.lhs._divisor_near(z, tol).merge(self.rhs._divisor_near(z, tol))


@record
class Quotient(_Pair):
    lhs: FunctionExpr
    rhs: FunctionExpr

    _op = np.subtract

    def level_angles(self, radii, level=1.0):
        # |c / g| = level where |g| = |c| / level
        c = self.lhs.value if isinstance(self.lhs, Const) else 0
        if not c:
            return super().level_angles(radii, level)
        return self.rhs.level_angles(radii, abs(c) / level)

    def _divisor_impl(self, r):
        return self.lhs.divisor_in_disc(r).merge(self.rhs.divisor_in_disc(r).negate())

    def _divisor_near(self, z, tol):
        return self.lhs._divisor_near(z, tol).merge(self.rhs._divisor_near(z, tol).negate())


def _signed_leaves(expr: FunctionExpr, sign: int = 1):
    """(leaf, sign) for each leaf of the product and quotient tree that may
    have zeros or poles: a quotient's right side counts with the opposite
    sign.  A constant, exp(p) and exp(exp(p)) are zero-free and yield nothing.
    This is the one rule of where an expression's zeros and poles can be:
    ``nevanlinna.argument_principle_count`` counts the leaves, and
    :func:`_may_have_poles` says where a leaf can give a pole."""
    if isinstance(expr, (Product, Quotient)):
        yield from _signed_leaves(expr.lhs, sign)
        yield from _signed_leaves(expr.rhs, sign if isinstance(expr, Product) else -sign)
    elif not isinstance(expr, (Const, Exp)) and not (isinstance(expr, ExpPoly) and expr.a == 0):
        yield expr, sign


def _may_have_poles(expr: FunctionExpr) -> bool:
    """Whether a pole can sit anywhere: only at a leaf of
    :func:`_signed_leaves` that divides, or at a pole of a rational leaf.
    Where neither is, :meth:`FunctionExpr.eval` and N(r) read no divisor."""
    return any(sign < 0 or isinstance(leaf, RationalFromDivisor)
               and (leaf.divisor.origin_order < 0 or (leaf.divisor.mults < 0).any())
               for leaf, sign in _signed_leaves(expr))


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def compose_poly(expr: FunctionExpr, p: Polynomial) -> FunctionExpr:
    """expr(p(z)) for a nonconstant polynomial p, rewritten into the family:
    exp(q) - a becomes exp(q(p)) - a, exp(exp(q)) becomes exp(exp(q(p))),
    products and quotients compose each side, and a rational s w^o
    prod (w - b)^m becomes the rational of the pulled-back points, since
    p(z) - b = lead prod_j (z - z_j(b)) gives it the scale s lead^(o + sum m).
    A constant p raises ValueError, and a scale that leaves the double range
    raises :class:`OverflowSignal`."""
    if p.degree < 1:
        raise ValueError("the inner polynomial of a composition must be nonconstant")
    if p.degree == 1 and p.coeffs[0] == 0 and p.coeffs[1] == 1:
        return expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, (ExpPoly, Exp)):
        return expr.replace(p=expr.p.compose(p))
    if isinstance(expr, (Product, Quotient)):
        return type(expr)(compose_poly(expr.lhs, p), compose_poly(expr.rhs, p))
    d = expr.divisor
    try:
        scale = expr.scale * p.leading ** (d.origin_order + int(d.mults.sum()))
    except (OverflowError, ZeroDivisionError):  # a power past the range either way
        scale = math.inf
    if scale == 0 or not cmath.isfinite(scale):
        raise OverflowSignal(f"the scale of a composed rational, {scale!r}, "
                             "leaves the floating range")
    ws, ms = d.points, d.mults
    if d.origin_order:  # the origin is a target after the points
        ws, ms = np.append(ws, 0j), np.append(ms, d.origin_order)
    return RationalFromDivisor(scale, _pull_back(p, ws, ms, math.inf))


def subtract(expr: FunctionExpr, other: FunctionExpr) -> FunctionExpr:
    """expr - other rewritten into the family, whose every member has a
    divisor: f - 0 is f, a - b of constants a constant, exp(p) - a an
    ``ExpPoly``, a rational minus a constant the rational of its certified
    a-points (or RootFindFailure), and e^P - e^Q the product e^Q (e^(P-Q) -
    1), or c e^Q where P - Q is a constant (IdenticalComposition where P =
    Q).  This is the one owner of "no rewrite": every other difference
    raises :class:`OpaqueExpr`."""
    if isinstance(expr, Const) and isinstance(other, Const):
        return Const(expr.value - other.value)
    if isinstance(other, Const):
        a = other.value
        if a == 0:
            return expr
        if isinstance(expr, ExpPoly):
            # a alone keeps its signed zeros, which 0j + a would not
            return ExpPoly(expr.p, a if expr.a == 0 else expr.a + a)
        if isinstance(expr, RationalFromDivisor):
            lead, points = _rational_preimages(expr, a, math.inf)
            poles = expr.divisor.signed("poles").negate()
            return RationalFromDivisor(lead, Divisor._from_arrays(
                np.concatenate((points, poles.points)),
                np.concatenate((np.ones(points.size, dtype=np.int64), poles.mults)),
                poles.origin_order, 0.0))
    if (isinstance(expr, ExpPoly) and isinstance(other, ExpPoly)
            and expr.a == 0 and other.a == 0):
        diff = expr.p - other.p
        if diff.is_zero:
            raise IdenticalComposition("the two exponentials coincide")
        if diff.degree == 0:
            c = cmath.exp(diff.coeffs[0]) - 1.0
            if c == 0:
                raise IdenticalComposition("the two exponentials coincide")
            return Product(Const(c), other)
        # e^P - e^Q = e^Q (e^(P-Q) - 1)
        return Product(other, ExpPoly(diff, 1.0))
    raise OpaqueExpr(f"{type(expr).__name__} - {type(other).__name__} has no rewrite "
                     "into the family")


# ---------------------------------------------------------------------------
# pre-images of a finite value
# ---------------------------------------------------------------------------


def target_value(a) -> complex | None:
    """The value a of an equation f = a, or None for the poles: None,
    "inf" or "oo" in any case and with blanks around, or any value equal
    to +inf.  Other strings go through :func:`parse_complex`; one it cannot
    read, and other non-finite values, raise ValueError."""
    if a is None or (isinstance(a, str) and a.strip().lower() in ("inf", "oo")):
        return None
    try:
        a = parse_complex(a) if isinstance(a, str) else complex(a)
    except ValueError:
        raise ValueError(f"cannot read the target value {a!r}") from None
    if a == math.inf:
        return None
    if not cmath.isfinite(a):
        raise ValueError(f"target value {a!r} is not finite")
    return a


def preimages_in_disc(expr: FunctionExpr, a, r: float) -> Divisor:
    """Divisor of solutions of f(z) = a in |z| <= r.

    ``a`` is read by :func:`target_value`: the poles for None, ``"inf"``
    and the other spellings of infinity.  A finite nonzero ``a`` is solved
    as the zeros of ``subtract(f, Const(a))``, the same set that
    N(r, 1/(f - a)) counts, so an f - a that ``subtract`` cannot rewrite
    raises its :class:`OpaqueExpr`; a rational, composed or not, runs the
    certified solver of ``subtract`` on this disc alone: all of its
    a-points in the disc, or RootFindFailure.
    """
    a = target_value(a)
    if a is None:
        return expr.divisor_in_disc(r).signed("poles")
    if a == 0:
        return expr.divisor_in_disc(r).signed("zeros")
    if isinstance(expr, RationalFromDivisor):
        points = _rational_preimages(expr, a, r)[1]
        return Divisor._from_arrays(points, np.ones(points.size, dtype=np.int64), 0, 0.0)
    if isinstance(expr, Const) and expr.value == a:
        raise ValueError("constant expression equals the target everywhere")
    return subtract(expr, Const(a)).divisor_in_disc(r).signed("zeros")
