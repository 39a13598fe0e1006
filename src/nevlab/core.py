"""The ground every other module of nevlab stands on: the shared
constants, the typed errors of the toolkit, the :func:`record` decorator
that makes every value type a frozen record, and dense polynomials.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter, itemgetter
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Most panels one circle quadrature may hold; a closed-form level set with
# more angles than this is not solved for panel cuts.
MAX_PANELS = 20000

_LOG_HUGE = 709.0  # log of the largest finite double, rounded down
_EPS = 2.0**-52


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
        """Parse sums of monomials, e.g. ``z^2+z``, ``2*z-1``, ``(0.5+0.2i)z``: a
        coefficient, at most one ``*``, and ``z`` with an exponent of plain
        digits; a term that is not of this form, or whose coefficient is not
        finite, raises ``ValueError("cannot parse term ...")``."""
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
            elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "eE(+-^":
                terms.append(s[start:i])
                start = i
        terms.append(s[start:])
        coeffs: dict[int, complex] = {}
        for term in terms:
            coeffs_part, power = term, 0
            if "z" in term:
                head, _, tail = term.partition("z")
                digits = tail[1:] if tail.startswith("^") else None
                if tail and not (digits and digits.isascii() and digits.isdigit()):
                    raise ValueError(f"cannot parse term {term!r}")
                power = int(digits) if tail else 1
                coeffs_part = head[:-1] if head.endswith("*") else head
            if coeffs_part in ("", "+"):
                c = 1.0 + 0j
            elif coeffs_part == "-":
                c = -1.0 + 0j
            else:
                try:
                    c = parse_complex(coeffs_part)
                except ValueError:
                    raise ValueError(f"cannot parse term {term!r}") from None
            coeffs[power] = coeffs.get(power, 0j) + c
            if not cmath.isfinite(coeffs[power]):
                raise ValueError(f"cannot parse term {term!r}: its coefficient is not finite")
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
