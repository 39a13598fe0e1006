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

Every member of the family knows its zero/pole divisor inside a disc, which
is what the counting functions and the quadrature panel splitter consume:
no member lacks one, so no consumer asks whether a divisor exists.  A
rational given by its divisor evaluates every channel with one broadcast
kernel over (points, nodes) chunks, bit-identical to a loop over its points.

The proximity mean of a rational given by its divisor, of exp(p) and of
exp(exp(p)) has a closed form (``FunctionExpr.closed_proximity``): Jensen's
formula where the divisor alone decides the sign of log|f|, else the exact
integrals between the certified |f| = 1 angles, by the dilogarithm
(``_dilog``) for a rational and by a trigonometric antiderivative for
exp(p) and for the series of e^p (``_exp_series``).  The quadrature reads
``_log_mod`` of the expression itself.  ``_circle_form(f, r)``, a form of
a rational given by its divisor valid on |z| = r only, serves its closed
form and its argument-principle counts, certified winding numbers of its
arg f (``_winding_count``): it folds the points with
|b| <= r/2 or |b| >= 2r into Laurent series in z/r, each cut where its
log|f| tail is at most 2^-54, whenever a group has more points than its
series has terms; the rest go through the broadcast kernel.  A product or
quotient is counted by its leaves, of which only rationals and exp(p) - a
with a != 0 can have zeros or poles.

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
``subtract(f, Const(a))``.  A rational of any degree solves
f = a in product form, with no coefficient expanded, by an Ehrlich-Aberth
iteration whose roots are certified complete by inclusion discs, or it
raises.  Every a-point query reads a through ``target_value``, in which
None, "inf", "oo" and +inf all mean the poles.

All array-shaped internals are numpy-vectorized; the public scalar wrappers
enforce the pole/overflow signalling contract.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Proximity scale under which a point counts as sitting on a divisor point.
POLE_TOL = 1e-12
# Points closer to 0 than this are folded into the divisor's origin order.
ORIGIN_SNAP = 1e-10
# Relative tolerance for merging near-coincident divisor points.
MERGE_TOL = 1e-9
# Relative cluster width when grouping near-coincident polynomial roots.
ROOT_CLUSTER_TOL = 1e-5
# Most panels one circle quadrature may hold; a closed-form level set with
# more angles than this is not solved for panel cuts.
MAX_PANELS = 20000
# Divisor points b with ||b| - r| <= CIRCLE_BAND r are near the circle |z| = r:
# circle means cut their panels at them, and the |f| = 1 search samples there.
CIRCLE_BAND = 0.1

_LOG_HUGE = 709.0  # log of the largest finite double, rounded down
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
# Most log-branches of exp(p) = a one disc may need (2 kmax + 1): e^z - 1
# reaches r = 2^20 (333,777) and a larger disc raises OverflowSignal.
_MAX_BRANCHES = 1 << 19
# Nodes per chunk of a divisor sum are capped so that its (points, nodes)
# temporaries hold about this many cells (256 kB as complex) each.
_DIVISOR_CELLS = 1 << 14
# The circle form of a rational folds its divisor points with |b| <= rho r
# or |b| >= r / rho into truncated series, each cut where its tail in log|f|
# is at most _FOLD_TOL (absolute).
_FOLD_RATIO = 0.5
_FOLD_TOL = 2.0**-54
# The |f| = 1 search of a rational's circle mean samples log|f| on this
# many equispaced angles and at the divisor points near the circle, and
# polishes each crossing by at most _SEARCH_STEPS steps, frozen once a step
# is below _SEARCH_TOL (in radians).
_SCAN_POINTS = 64
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
_EPS = 2.0**-52
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
# powers e^{ij theta} of a trigonometric arc mean taken by exp; the rest are their products
_EXP_POWERS = 8


class ToolkitError(Exception):
    """Base class for typed failures raised by the toolkit."""


class PoleSignal(ToolkitError):
    """Evaluation requested at (or within tolerance of) a pole."""


class OverflowSignal(ToolkitError):
    """|f(z)| exceeds the floating range and no log-channel fallback applies."""


class OpaqueExpr(ToolkitError):
    """No divisor can be given: a difference :func:`subtract` cannot rewrite
    into the family, or exp(c) - a for a constant c with e^c = a, which
    vanishes everywhere."""


class RootFindFailure(ToolkitError):
    """Polynomial/pre-image root finding did not meet its residual contract."""


class QuadratureFailure(ToolkitError):
    """Adaptive circle quadrature could not reach the requested tolerance."""


class InsufficientGrowth(ToolkitError):
    """A growth-based estimate needs more increase than the samples show."""


class NonIntegerResidual(ToolkitError):
    """Contour count did not land near an integer."""


class IdenticalComposition(ToolkitError):
    """The two compositions coincide, so the comparison is degenerate."""


class OrderMismatch(ToolkitError):
    """Algebraic-map order does not match the requested polynomialization."""


class BranchAmbiguity(ToolkitError):
    """An orbit iterate landed on the branch cut while tracking continuity."""


class OrbitCollision(ToolkitError):
    """Orbit families expected to be disjoint share a point."""


class NonMonotone(ToolkitError):
    """Input samples violate a required monotonicity."""


class GrowthConditionError(ToolkitError):
    """A hyper-order smallness precondition failed."""


# ---------------------------------------------------------------------------
# frozen records
# ---------------------------------------------------------------------------

_MISSING = object()


class field:
    """A :func:`record` field's default (a value or a factory called per
    instance) and whether ``repr`` shows it."""

    __slots__ = ("default", "default_factory", "repr")

    def __init__(self, *, default=_MISSING, default_factory=None, repr=True):
        self.default, self.default_factory, self.repr = default, default_factory, repr


_set = object.__setattr__  # stores past the frozen __setattr__, as dataclasses do


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


# a record's hash, cached in its __dict__ on first use; not pickled, since
# strings hash differently in each process
_HASH = "_record_hash"


def _unhashed_state(self):
    state = self.__dict__
    return {k: v for k, v in state.items() if k != _HASH} if _HASH in state else state


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order, as
    ``dataclass(frozen=True)`` does, without generating source: ``__init__``
    (positional or keyword, then ``__post_init__`` if defined), ``__repr__``,
    ``__eq__`` between instances of the same class, ``__hash__`` equal to
    the hash of the field tuple (cached on first use, and left out of a
    pickle), assignment that raises ``AttributeError``,
    and ``replace(**changes)``, a copy through ``__init__``.  A field's
    class-level value is its default, or a :class:`field`.  Instances keep
    a ``__dict__``, so ``cached_property`` works on them."""
    names = tuple(vars(cls).get("__annotations__", ()))
    n, qual = len(names), cls.__qualname__
    defaults, factories, shown = {}, {}, []
    for name in names:
        spec = vars(cls).get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        if spec.default_factory is not None:
            factories[name] = spec.default_factory
            delattr(cls, name)
        elif spec.default is not _MISSING:  # the class attribute is the default
            defaults[name] = spec.default
            setattr(cls, name, spec.default)
        if spec.repr:
            shown.append(name)
    post = hasattr(cls, "__post_init__")
    slots = tuple(enumerate(names))  # cheaper to walk than zip(names, args)
    lead = n  # fields from names[lead:] on all have plain defaults
    while lead and names[lead - 1] in defaults:
        lead -= 1
    tail = tuple(defaults[name] for name in names[lead:])
    pick = itemgetter(*names)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{qual}() takes {n} positional arguments but {len(args)} were given")
        if not kwargs and len(args) >= lead:
            return args + tail[len(args) - lead:]
        if not args and len(kwargs) == n > 1:
            try:
                return pick(kwargs)
            except KeyError:
                pass  # an unknown name among them, reported below
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            elif name in factories:
                values.append(factories[name]())
            else:
                raise TypeError(f"{qual}() missing argument {name!r}")
        for name in kwargs:  # left over: unknown, or also given by position
            what = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qual}() got {what} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, name in slots:
            _set(self, name, args[i])
        if post:
            self.__post_init__()

    if n == 1:  # attrgetter of one name returns the value, not a 1-tuple
        get = attrgetter(names[0])

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        cache = self.__dict__
        if _HASH not in cache:
            cache[_HASH] = hash(key(self))
        return cache[_HASH]

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in shown)})"

    def replace(self, **changes):
        for name in names:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__getstate__": _unhashed_state, "__repr__": __repr__, "replace": replace,
               "__setattr__": _no_setattr, "__delattr__": _no_delattr}
    for name, fn in methods.items():
        if name not in vars(cls):  # a method the class defines itself stays
            setattr(cls, name, fn)
    return cls


def _carray(z) -> np.ndarray:
    return np.asarray(z, dtype=np.complex128)


def logplus(x):
    """max(log-quantity, 0), elementwise."""
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@record
class Polynomial:
    """Dense polynomial, coefficients lowest degree first.

    The zero polynomial is ``Polynomial((0j,))``; otherwise the leading
    coefficient is nonzero (exact trailing zeros are trimmed on build).
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            cs = (0j,)
        k = len(cs)
        while k > 1 and cs[k - 1] == 0:
            k -= 1
        object.__setattr__(self, "coeffs", cs[:k])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        zs = _carray(z)
        out = np.full(zs.shape, self.coeffs[-1], dtype=np.complex128)
        for c in self.coeffs[-2::-1]:
            out = out * zs + c
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def deriv(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def scale(self, c: complex) -> "Polynomial":
        return Polynomial(tuple(c * a for a in self.coeffs))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(z)) by Horner in the polynomial ring."""
        out = Polynomial((self.coeffs[-1],))
        for c in self.coeffs[-2::-1]:
            out = out * inner + Polynomial((c,))
        return out

    def coeff_bound(self, r: float) -> float:
        """sum_j |c_j| r^j, an upper bound for |p| on the closed disc.

        Raises :class:`OverflowSignal` when the bound leaves the double range.
        """
        try:
            bound = float(sum(abs(c) * r**k for k, c in enumerate(self.coeffs)))
        except OverflowError:
            bound = math.inf
        if bound == math.inf:
            raise OverflowSignal(f"coefficient bound at r={r!r} exceeds the floating range")
        return bound

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "Polynomial":
        out = cls((complex(leading),))
        for rt in roots:
            out = out * cls((-complex(rt), 1.0))
        return out

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse sums of monomials, e.g. ``z^2+z``, ``2z-1``, ``(0.5+0.2i)z``."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        terms: list[str] = []
        depth, start = 0, 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "eE(+-":
                terms.append(s[start:i])
                start = i
        terms.append(s[start:])
        coeffs: dict[int, complex] = {}
        for term in terms:
            coeffs_part, power = term, 0
            if "z" in term:
                head, _, tail = term.partition("z")
                if "z" in tail:
                    raise ValueError(f"cannot parse term {term!r}")
                if tail == "":
                    power = 1
                elif tail.startswith("^"):
                    power = int(tail[1:])
                else:
                    raise ValueError(f"cannot parse term {term!r}")
                coeffs_part = head.rstrip("*")
            if coeffs_part in ("", "+"):
                c = 1.0 + 0j
            elif coeffs_part == "-":
                c = -1.0 + 0j
            else:
                c = parse_complex(coeffs_part)
            coeffs[power] = coeffs.get(power, 0j) + c
        n = max(coeffs) + 1
        return cls(tuple(coeffs.get(k, 0j) for k in range(n)))


def parse_complex(text: str) -> complex:
    """Accept ``1``, ``-0.5``, ``0.37+0.21i``, ``(2-i)``, ``2j`` and friends."""
    s = text.strip().strip("()").replace(" ", "")
    s = s.replace("i", "j")
    if s in ("j", "+j"):
        return 1j
    if s == "-j":
        return -1j
    return complex(s)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


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


def _greedy_cluster(pairs: Iterable[tuple[complex, int]],
                    rel_tol: float) -> list[tuple[complex, int, int]]:
    """Group near-coincident weighted points into (centroid, count, weight sum).

    Points are visited by (modulus, re, im).  A point joins the latest
    cluster whose first member lies within ``rel_tol * (1 + |rep|)``; the
    backward scan stops once the moduli differ by more than the cluster
    width can bridge.  This loop is the reference; :func:`_close_points`
    spares it wherever it would leave every point a cluster of its own.
    """
    pts = sorted(pairs, key=lambda e: (abs(e[0]), e[0].real, e[0].imag))
    clusters: list[list] = []  # [first member, point sum, count, weight sum]
    for w, m in pts:
        hit = None
        for cl in reversed(clusters):
            rep = cl[0]
            if abs(w - rep) <= rel_tol * (1.0 + abs(rep)):
                hit = cl
                break
            if abs(w) - abs(rep) > 2.0 * rel_tol * (1.0 + abs(w)):
                break
        if hit is None:
            clusters.append([w, w, 1, m])
        else:
            hit[1] += w
            hit[2] += 1
            hit[3] += m
    return [(total / count, count, weight) for _, total, count, weight in clusters]


def _close_points(z: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit order, sorted moduli and "close" flag of each point of each row of ``z``.

    ``order`` sorts every row by (|z|, re, im), stably, as the greedy loop
    of :func:`_greedy_cluster` does; ``mod`` holds the sorted moduli, from
    ``np.hypot``, which rounds as Python's ``abs`` does (``np.abs`` of a
    complex array does not).  ``close[k, j]`` flags the j-th sorted point
    of row k if a point i < j that the loop's backward scan reaches,
    ``|z_j| - |z_i| <= 2 rel_tol (1 + |z_j|)``, lies within ``rel_tol (1 +
    |z_i|)``, both computed as the loop computes them, or if it is not
    finite.  The pairs are tested one offset j - i at a time, in all rows
    at once; a pair leaves the scan where it leaves the window, as the
    loop's backward scan breaks, so the work is the pairs the loop tests.
    """
    z = np.atleast_2d(z)
    mod = np.hypot(z.real, z.imag)
    order = np.lexsort((z, mod), axis=-1)  # complex keys sort by (re, im)
    mod = np.take_along_axis(mod, order, -1)
    n = z.shape[1]
    close = ~np.isfinite(mod)
    flags = close.reshape(-1)  # a view: flagging it flags ``close``
    z = np.take_along_axis(z, order, -1).ravel()
    re, im, flat = z.real, z.imag, mod.ravel()
    reach, width = 2.0 * rel_tol * (1.0 + flat), rel_tol * (1.0 + flat)
    j = np.flatnonzero(np.arange(flat.size) % max(n, 1))  # every point but its row's first
    for d in range(1, n):
        j = j[j % n >= d]
        j = j[flat[j] - flat[j - d] <= reach[j]]
        if not j.size:
            break
        i = j - d
        flags[j[np.hypot(re[j] - re[i], im[j] - im[i]) <= width[i]]] = True
    return order, mod, close


def cluster_roots(roots: Iterable[complex]) -> list[tuple[complex, int]]:
    """Group near-coincident roots into (centroid, multiplicity) pairs by the
    greedy loop of :func:`_greedy_cluster`, at ``ROOT_CLUSTER_TOL``."""
    return [(c, n) for c, n, _ in _greedy_cluster(((w, 1) for w in roots), ROOT_CLUSTER_TOL)]


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


class Divisor:
    """Multiset of zeros (positive multiplicity) and poles (negative).

    A divisor is its read-only columns ``points`` (complex), ``mults``
    (int64) and ``moduli`` (|p| by ``np.hypot``, which rounds as ``abs``
    does), sorted by modulus, then real, then imaginary part, and
    ``origin_order``, the signed order at 0 (+k is a zero of order k),
    which no point carries.  Each operation slices or masks the columns;
    ``entries``, the (point, multiplicity) pairs, is derived on first read,
    and equal divisors hash as ``(entries, origin_order)``.
    ``Divisor(entries, origin_order)`` sorts the pairs but does not merge
    them.  :meth:`build` merges them, and so decides when two points
    coincide, the orbit families' included: by the greedy rule of
    :func:`_greedy_cluster`, visited in that order, a point joins the
    latest group whose first member lies within ``MERGE_TOL * (1 +
    |first|)``, and each group becomes one point at its centroid.  So two
    points can sit closer than the tolerance (1 and 1 + 0.99 t merge at
    1 + 0.495 t, and 1 + 1.0100001 t, past t = 2e-9 from the first member,
    stays apart), and building the entries again can merge them.
    """

    def __init__(self, entries: Iterable[tuple[complex, int]] = (), origin_order: int = 0):
        pairs = sorted(entries, key=lambda e: (abs(e[0]), e[0].real, e[0].imag))
        z = np.array([p for p, _ in pairs], dtype=np.complex128)
        m = np.array([k for _, k in pairs], dtype=np.int64)
        vars(self).update(vars(Divisor._of(z, m, np.hypot(z.real, z.imag), origin_order)))

    @staticmethod
    def _of(points: np.ndarray, mults: np.ndarray, moduli: np.ndarray,
            origin_order: int) -> "Divisor":
        """The divisor of columns that are already sorted, taken as they are."""
        d = object.__new__(Divisor)
        for col in (points, mults, moduli):
            col.setflags(write=False)
        vars(d).update(points=points, mults=mults, moduli=moduli, origin_order=origin_order)
        return d

    @staticmethod
    def build(pairs: Iterable[tuple[complex, int]], origin_order: int = 0) -> "Divisor":
        """Divisor of the points ``p`` with multiplicities ``m``: pairs with
        m == 0 are dropped, points with |p| < ORIGIN_SNAP add m to the
        origin order, and the rest (m truncated to int) are merged by the
        greedy rule at ``MERGE_TOL``, read per call, and sorted."""
        pairs = [(p, m) for p, m in pairs if m != 0]
        z = np.array([p for p, _ in pairs], dtype=np.complex128)
        snap = np.hypot(z.real, z.imag) < ORIGIN_SNAP
        for k in np.flatnonzero(snap).tolist():
            origin_order += pairs[k][1]  # as given, so a float or numpy m keeps its type
        m = np.array([int(m) for _, m in pairs], dtype=np.int64)
        return Divisor._from_arrays(z[~snap], m[~snap], origin_order, MERGE_TOL)

    @staticmethod
    def _from_arrays(z: np.ndarray, m: np.ndarray, origin: int, merge_tol: float) -> "Divisor":
        """Divisor of points ``z`` with int multiplicities ``m``: points with
        |z| < ORIGIN_SNAP add to the origin order; the rest are merged by the
        greedy rule (a zero m takes part), groups of total 0 dropped, sorted.
        The loop runs only on the runs of sorted points that hold a point
        :func:`_close_points` flags, a run ending where the moduli step past
        the loop's scan window, which its backward scan cannot cross; every
        other point is a group of its own, at the loop's centroid ``w / 1``.
        """
        snap = np.hypot(z.real, z.imag) < ORIGIN_SNAP
        origin, z, m = origin + int(m[snap].sum()), z[~snap], m[~snap]
        order, mod, close = (a[0] for a in _close_points(z, merge_tol))
        z, m = z[order], m[order]
        if not close.any():
            nz = m != 0
            return Divisor._of(z[nz] / 1, m[nz], mod[nz], origin)
        run = np.cumsum(np.diff(mod, prepend=mod[:1]) > 2.0 * merge_tol * (1.0 + mod))
        loop = np.isin(run, run[close])
        found = [(c, w) for c, _, w in _greedy_cluster(zip(z[loop].tolist(), m[loop].tolist()),
                                                       merge_tol) if w != 0]
        alone = ~loop & (m != 0)
        z = np.concatenate((z[alone] / 1, np.array([c for c, _ in found], dtype=np.complex128)))
        m = np.concatenate((m[alone], np.array([w for _, w in found], dtype=np.int64)))
        mod = np.hypot(z.real, z.imag)
        order = np.lexsort((z, mod))
        return Divisor._of(z[order], m[order], mod[order], origin)

    @cached_property
    def entries(self) -> tuple[tuple[complex, int], ...]:
        """(point, multiplicity) pairs in column order, derived on first read."""
        return tuple(zip(self.points.tolist(), self.mults.tolist()))

    def __eq__(self, other):
        if other.__class__ is not Divisor:
            return NotImplemented
        return bool(self.origin_order == other.origin_order and np.array_equal(
            self.mults, other.mults) and np.array_equal(self.points, other.points))

    def __hash__(self):  # a record holding the divisor caches its own hash
        return hash((self.entries, self.origin_order))

    def __repr__(self):
        return f"Divisor(entries={self.entries!r}, origin_order={self.origin_order!r})"

    def __reduce__(self):
        return Divisor, (self.entries, self.origin_order)

    __setattr__, __delattr__ = _no_setattr, _no_delattr

    @property
    def is_empty(self) -> bool:
        return not self.points.size and self.origin_order == 0

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Points and float multiplicities for the kernels that take the
        origin as a point at 0: its row first where its order is nonzero."""
        b, m = self.points, self.mults.astype(np.float64)
        if self.origin_order:
            b, m = np.append(0j, b), np.append(np.float64(self.origin_order), m)
        b.setflags(write=False)
        m.setflags(write=False)
        return b, m

    def restrict(self, r: float) -> "Divisor":
        """The points with |p| <= r, a prefix of the columns; none for NaN."""
        k = 0 if math.isnan(r) else int(self.moduli.searchsorted(r, "right"))
        if k == self.points.size:
            return self
        return Divisor._of(self.points[:k], self.mults[:k], self.moduli[:k], self.origin_order)

    def band(self, r: float, rel: float) -> np.ndarray:
        """The points with ||p| - r| <= rel * r, in column order."""
        return self.points[np.abs(self.moduli - r) <= rel * r]

    def negate(self) -> "Divisor":
        return Divisor._of(self.points, -self.mults, self.moduli, -self.origin_order)

    def merge(self, other: "Divisor") -> "Divisor":
        """Both sides' points, merged as :meth:`build` merges them.  Where
        one side has no points, the other side's columns are kept as they
        are, neither sorted nor screened again, with the two origin orders
        added: so ``EMPTY_DIVISOR.merge(d)`` is ``d``, and a pair of points
        that building ``d.entries`` again would merge stays apart."""
        for a, b in ((self, other), (other, self)):
            if not b.points.size:
                return Divisor._of(a.points, a.mults, a.moduli, a.origin_order + b.origin_order)
        return Divisor._from_arrays(np.concatenate((self.points, other.points)),
                                    np.concatenate((self.mults, other.mults)),
                                    self.origin_order + other.origin_order, MERGE_TOL)

    def signed(self, kind: str) -> "Divisor":
        """Restrict to zeros (``kind='zeros'``) or poles, multiplicities made
        positive: the divisor itself where that drops and flips nothing."""
        if kind == "zeros":
            keep, org = self.mults > 0, max(self.origin_order, 0)
        elif kind == "poles":
            keep, org = self.mults < 0, max(-self.origin_order, 0)
        else:
            raise ValueError(f"kind must be 'zeros' or 'poles', got {kind!r}")
        if (kind == "zeros" or not keep.size) and org == self.origin_order and keep.all():
            return self
        return Divisor._of(self.points[keep], np.abs(self.mults[keep]), self.moduli[keep], org)

    def multiset(self) -> list[complex]:
        """Points (origin included) repeated by |multiplicity|."""
        return [0j] * abs(self.origin_order) + np.repeat(self.points, np.abs(self.mults)).tolist()

    def total(self, kind: str) -> int:
        d = self.signed(kind)
        return d.origin_order + int(d.mults.sum())


EMPTY_DIVISOR = Divisor()


def _divisor_sums(z: np.ndarray, d: Divisor, channels) -> tuple[np.ndarray, ...]:
    """``start + sum_b term(m_b, z - b)`` at every node, per ``(start, term)``.

    b runs over the divisor points with multiplicity m_b, the origin first and
    then the points in order (``Divisor._rows``).  Each block of
    :func:`_differences` sums every channel's terms along the point axis, in
    that order from ``start``, so each value equals that of a loop over the
    points bit for bit.
    """
    b, m = (col[:, None] for col in d._rows)
    flat = _carray(z).reshape(-1)
    outs = [np.empty(flat.size, dtype=np.result_type(start)) for start, _ in channels]
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, k, diff in _differences(flat, b):
            for out, (start, term) in zip(outs, channels):
                out[c] = np.add.reduce(term(m, diff), axis=0, initial=start)[:k]
    return tuple(out.reshape(z.shape) for out in outs)


def _differences(flat: np.ndarray, b: np.ndarray):
    """Per chunk ``c`` of the nodes ``flat``: ``(c, k, flat[c] - b)``, the
    (points, nodes) block of the chunk's k nodes against the column ``b``.

    numpy sums a single column pairwise, so a lone node is doubled and the
    sums keep their first k columns; z - b is taken in place, as numpy is
    slow when both operands are broadcast.
    """
    for c in _node_chunks(flat.size, len(b)):
        zc = flat[c]
        diff = np.tile(np.resize(zc, max(zc.size, 2)), (len(b), 1))
        diff -= b
        yield c, zc.size, diff


def _node_chunks(n: int, points: int) -> list[slice]:
    """Slices of n nodes whose (points, nodes) blocks hold about
    ``_DIVISOR_CELLS`` cells."""
    step = max(2, _DIVISOR_CELLS // max(points, 1))
    return [slice(i, i + step) for i in range(0, n, step)]


def _log_term(m, d):
    return m * np.log(np.abs(d))


def _arg_term(m, d):
    return m * np.angle(d)


def _inv_term(m, d):
    return m / d


def _pull_back(p: Polynomial, ws: np.ndarray, ms: np.ndarray, r: float) -> Divisor:
    """Divisor in |z| <= r of the solutions of p(z) = w, each weighted by
    its multiplicity times the target's m, over the targets (ws[k], ms[k]).

    The rows of :func:`roots_of_shifts` are screened in one pass
    (:func:`_close_points`); only a row with a close pair, such as the double
    root of z^2 = 0, goes through :func:`cluster_roots`, and a lone root
    is the loop's centroid ``w / 1``.  The merge of
    :meth:`Divisor._from_arrays` sorts the points: their order does not matter.
    """
    rows = roots_of_shifts(p, ws)
    m = np.asarray(ms, dtype=np.int64)
    alone = ~_close_points(rows, ROOT_CLUSTER_TOL)[2].any(-1)
    parts = [(rows[alone].ravel() / 1, np.repeat(m[alone], rows.shape[1]))]
    for k in np.flatnonzero(~alone).tolist():
        c = cluster_roots(rows[k])
        parts.append((np.array([x for x, _ in c]), m[k] * np.array([j for _, j in c])))
    z, w = (np.concatenate(a) for a in zip(*parts))
    inside = np.hypot(z.real, z.imag) <= r
    return Divisor._from_arrays(z[inside], w[inside], 0, MERGE_TOL)


# ---------------------------------------------------------------------------
# expression family
# ---------------------------------------------------------------------------


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
        (:func:`_may_have_poles`)."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z={z} is not a finite point")
        if _may_have_poles(self):
            tol = POLE_TOL * (1.0 + abs(z))
            div = self.divisor_in_disc(abs(z) + 1.0)
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

    def logmod_eval(self, z: complex) -> tuple[float, float]:
        """(log|f(z)|, arg f(z) mod 2pi); -inf at exact zeros, PoleSignal at poles."""
        lm, ag = self._log_parts(_carray([complex(z)]))
        if lm[0] == np.inf:
            raise PoleSignal(f"f has a pole at z={z}")
        a = float(ag[0]) % TWO_PI if np.isfinite(ag[0]) else 0.0
        return float(lm[0]), a


_NO_ANGLES = np.empty(0)
_SCAN_GRID = np.arange(_SCAN_POINTS) * (TWO_PI / _SCAN_POINTS)


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


def _inside(x, lo, hi):
    """``x`` where it lies strictly between ``lo`` and ``hi``, else (NaN
    included) the midpoint."""
    return np.where((x - lo) * (x - hi) < 0.0, x, 0.5 * (lo + hi))


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


@record
class ExpPoly(FunctionExpr):
    """exp(p(z)) - a for a polynomial p, evaluated stably across all
    magnitude regimes; the default ``a = 0`` is the zero-free exp(p(z))."""

    p: Polynomial
    a: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))

    def _regimes(self, w):
        """Masks big, small, mid for the regimes of |e^w| against |a| != 0."""
        la = math.log(abs(self.a))
        big = w.real > la + 0.7
        small = w.real < la - 0.7
        return big, small, ~(big | small)

    def _log_parts(self, z):
        return self._logs(z, True)

    def _log_mod(self, z):
        return self._logs(z, False)[0]

    def _logs(self, z, with_arg: bool):
        """(log|f|, arg f or None): log f = base + log(1 - s) in the big and
        small regimes, where |s| < e^-0.7, and log t in the mid one."""
        with np.errstate(over="ignore", invalid="ignore"):
            w = _carray(self.p(z))
        finite = np.isfinite(w)
        if not finite.all() and np.isfinite(z[~finite]).any():  # a NaN z gives NaN
            raise OverflowSignal("the exponent of exp(p) is not finite here: "
                                 "log|f| leaves the floating range")
        if self.a == 0:
            return w.real.copy(), w.imag.copy() if with_arg else None
        big, small, mid = self._regimes(w)
        parts = []  # (mask, s or t, base)
        if np.any(big):  # |e^p| >> |a|:  log f = p + log(1 - a e^-p)
            parts.append((big, self.a * np.exp(-w[big]), w[big]))
        if np.any(small):  # |e^p| << |a|:  log f = log(-a) + log(1 - e^p / a)
            parts.append((small, np.exp(w[small]) / self.a, cmath.log(-self.a)))
        if np.any(mid):
            parts.append((mid, np.exp(w[mid]) - self.a, None))
        lm, ag = np.empty(w.shape), np.empty(w.shape) if with_arg else None
        with np.errstate(divide="ignore", invalid="ignore"):
            for mask, s, base in parts:
                if base is None:
                    lm[mask] = np.log(np.abs(s))
                else:  # log|1 - s| = log1p(|1 - s|^2 - 1) / 2 keeps the bits of a small s
                    lm[mask] = base.real + 0.5 * np.log1p((s.real - 2.0) * s.real + s.imag**2)
                if with_arg:
                    ag[mask] = np.angle(s) if base is None else base.imag + np.angle(1.0 - s)
        return lm, ag

    def _logderivs(self, z):  # a != 0: zero-free exp(p) counts 0 with no contour
        dp = _carray(self.p.deriv()(z))
        w = _carray(self.p(z))
        big, small, mid = self._regimes(w)
        out = np.empty(w.shape, dtype=np.complex128)
        if np.any(big):
            out[big] = dp[big] / (1.0 - self.a * np.exp(-w[big]))
        if np.any(small):
            t = np.exp(w[small]) / self.a
            out[small] = dp[small] * t / (t - 1.0)
        if np.any(mid):
            ew = np.exp(w[mid])
            out[mid] = dp[mid] * ew / (ew - self.a)
        return out

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


# The residual |f - a| / (1 + |a|) every certified a-point in the disc meets;
# the census re-tests unmatched images against the same bound.
PREIMAGE_RESIDUAL_TOL = 1e-6


def _pair_reduce(z: np.ndarray, rows: np.ndarray, diag: float, reduce) -> np.ndarray:
    """``reduce(d)`` per row of ``d[k, j] = z[rows[k]] - z[j]``, ``diag`` at
    ``j = rows[k]``, built in row chunks of at most ``_DIVISOR_CELLS`` cells."""
    step = max(1, _DIVISOR_CELLS // z.size)
    parts = []
    for i in range(0, rows.size, step):
        idx = rows[i:i + step]
        d = z[idx, None] - z
        d[np.arange(idx.size), idx] = diag
        parts.append(reduce(d))
    return np.concatenate(parts)


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


def _aberth_sums(z: np.ndarray, d: Divisor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f/scale, f'/f and Q'/Q at the nodes z, for the rational f of divisor
    ``d`` and Q its monic pole polynomial, in one pass: each block of
    :func:`_differences` takes its reciprocals once.  f'/f sums m/(z - b) and
    Q'/Q the same reciprocals, times |m|, over the pole rows, both in row
    order; f/scale is the row-order product of the differences at zero rows
    and of the reciprocals at pole rows, each raised to |m|.  The product may
    leave the double range: the caller tests it.
    """
    b, m = (col[:, None] for col in d._rows)
    pole = m[:, 0] < 0
    multi = np.flatnonzero(np.abs(m[:, 0]) > 1)
    flat = _carray(z).reshape(-1)
    prod, dl, dq = (np.empty(flat.size, dtype=np.complex128) for _ in range(3))
    with np.errstate(all="ignore"):
        for c, k, diff in _differences(flat, b):
            inv = 1.0 / diff
            w = m * inv
            dl[c] = np.add.reduce(w, axis=0)[:k]
            dq[c] = -np.add.reduce(w[pole], axis=0)[:k]
            np.copyto(diff, inv, where=pole[:, None])
            if multi.size:
                diff[multi] **= np.abs(m[multi])
            prod[c] = np.multiply.reduce(diff, axis=0)[:k]
    return prod, dl, dq


def _log_sums(z: np.ndarray, d: Divisor, scale: complex) -> tuple[np.ndarray, ...]:
    """log|f|, arg f, the rounding spread |log|scale|| + 7 + sum |m| (|log|z -
    b|| + 7) and log|Q| at the nodes z, for the rational f = scale prod (z -
    b)^m of divisor ``d`` and Q its monic pole polynomial: the sums of
    :func:`_divisor_sums`' log and arg channels, bit for bit, with each block's
    log|z - b| taken once for the three log sums."""
    b, m = (col[:, None] for col in d._rows)
    pole = m[:, 0] < 0
    flat = _carray(z).reshape(-1)
    outs = [np.empty(flat.size) for _ in range(4)]
    starts = (math.log(abs(scale)), math.atan2(scale.imag, scale.real),
              abs(math.log(abs(scale))) + 7.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, k, diff in _differences(flat, b):
            logs = np.log(np.abs(diff))
            terms = (m * logs, m * np.angle(diff), np.abs(m) * (np.abs(logs) + 7.0),
                     -m[pole] * logs[pole])
            for out, start, term in zip(outs, starts, terms):
                out[c] = np.add.reduce(term, axis=0, initial=start)[:k]
    return tuple(outs)


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
    rounds).  The certificate reads the log channels
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
    s = expr.scale
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_ITER):
            zl = z[live]
            prod, dl, dq = _aberth_sums(zl, expr.divisor)
            f = s * prod
            t = a / f
            far = ~(_is_normal(prod) & _is_normal(f))
            if far.any():  # f from the log channels where the product left the range
                lm, ag = _log_sums(zl[far], expr.divisor, s)[:2]
                t[far] = a * np.exp(-(lm + 1j * ag))
            corr = dl / (1.0 - t) + dq
            step = 1.0 / (corr - _pair_reduce(z, live, np.inf,
                                              lambda d: np.sum(1.0 / d, axis=1)))
            step[~np.isfinite(step)] = 0.0  # left to the certificate
            z[live] = zl - step
            live = live[np.abs(step) >= _ABERTH_STEP * (1.0 + np.abs(z[live]))]
            if not live.size:
                break
        # log f sums k rounded terms: f is off by a relative err <= (k + 2) eps
        # sum(|term| + 7), and 1 - a/f by (1 + |a/f|) (err + 4 eps)
        lm, ag, spread, log_q = _log_sums(z, expr.divisor, s)
        err = (len(expr.divisor._rows[0]) + 2) * 2.0**-52 * spread
        t = a * np.exp(-(lm + 1j * ag))
        log_n = log_q + lm + err + np.log(np.abs(1.0 - t) + (1.0 + np.abs(t)) * (err + 2.0**-50))
        rad = deg * np.exp(log_n - math.log(abs(lead)) - _pair_reduce(
            z, k, 1.0, lambda d: np.sum(np.log(np.abs(d)), axis=1)))
        gap = _pair_reduce(z, k, np.inf, lambda d: np.min(np.abs(d) - rad, axis=1))
        mod = np.abs(z)
        inside = mod <= r
        resid = np.abs(np.exp(lm[inside] + 1j * ag[inside]) - a)
    for ok, why in (
            (resid <= PREIMAGE_RESIDUAL_TOL * (1.0 + abs(a)), "in the disc misses the "
             "residual bound: double precision cannot separate it from the divisor"),
            (gap > rad, "has an inclusion disc that meets another"),
            ((mod + rad <= r) | (mod - rad > r), f"has an inclusion disc across |z| = {r!r}")):
        if not np.all(ok):
            raise RootFindFailure(f"a solution of f = a {why}")
    return lead, z[inside]
