"""Fixed-branch algebraic self-maps of the plane and their orbit machinery.

A map here is tau(z) = z + a_{n-1} w^{n-1} + ... + a_1 w + a_0 where w is a
chosen single-valued branch of z^{1/n}.  The branch is fixed relative to the
principal argument (Arg in (-pi, pi]); an optional continuity-tracking orbit
mode follows the root along the trajectory instead and reports when it
leaves the principal sheet.

The census operation checks forward invariance of solution multisets: every
point of f^{-1}(a) inside a disc should map under tau onto another point of
the same multiset, up to matching tolerance, unless the image escapes the
disc (counted separately, not a violation).  Each image is matched by
bisecting a window of the multiset sorted by real part, since only points
within 11 match tolerances of it can change the result, and the images left
unmatched are re-checked by value in one batched evaluation per value.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from .fnmodel import (
    BranchAmbiguity,
    FunctionExpr,
    OrderMismatch,
    PREIMAGE_RESIDUAL_TOL,
    Polynomial,
    TWO_PI,
    field,
    preimages_in_disc,
    record,
    target_value,
)


@record
class AlgebraicMap:
    """tau(z) = z + sum_k alphas[k] * w^k with w a fixed n-th root branch."""

    n: int
    alphas: tuple[complex, ...]
    branch: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("root order must be at least 1")
        al = tuple(complex(a) for a in self.alphas)
        if len(al) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(al)}")
        object.__setattr__(self, "alphas", al)
        if not 0 <= self.branch < self.n:
            raise ValueError("branch index out of range")

    def root(self, z: complex, branch: int | None = None) -> complex:
        """The selected branch of z^{1/n}."""
        if self.n == 1:
            return complex(z)
        b = self.branch if branch is None else branch
        if z == 0:
            return 0j
        mag = abs(z) ** (1.0 / self.n)
        # cmath.phase raises OverflowError where the angle underflows (2 + 5e-324j)
        ang = (math.atan2(z.imag, z.real) + TWO_PI * b) / self.n
        return mag * cmath.exp(1j * ang)

    def _shift(self, w: complex) -> complex:
        """The increment sum_k alphas[k] w^k, evaluated one fixed way.

        Orbit stepping and census image-pushing must agree bit for bit, so
        both funnel through here rather than re-deriving the sum.
        """
        acc = 0j
        for a in reversed(self.alphas):
            acc = acc * w + a
        return acc

    def __call__(self, z: complex) -> complex:
        return complex(z) + self._shift(self.root(z))


def binomial_shift_map(n: int, c: complex) -> AlgebraicMap:
    """The map (z^{1/n} + c)^n on branch 0, written out in powers of the root."""
    c = complex(c)
    alphas = [math.comb(n, k) * c ** (n - k) for k in range(n)]
    return AlgebraicMap(n=n, alphas=tuple(alphas))


def polynomialize(m: AlgebraicMap, n: int) -> Polynomial:
    """The polynomial obtained by precomposing tau with z -> z^n and writing
    the root formally as z: z^n + a_{n-1} z^{n-1} + ... + a_0."""
    if n != m.n:
        raise OrderMismatch(f"map has root order {m.n}, not {n}")
    return Polynomial(m.alphas + (1.0 + 0j,))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


@record
class Orbit:
    seed: complex
    points: tuple[complex, ...]
    classification: str  # escaped | bounded | undecided
    cut_crossed: tuple[bool, ...]


def _classify(points: tuple[complex, ...]) -> str:
    mods = np.abs(np.asarray(points))
    window = max(5, len(points) // 4)
    tail = mods[-window:]
    if tail.size < 3:
        return "undecided"
    diffs = np.diff(tail)
    if np.all(diffs > 0):
        return "escaped"
    if np.all(np.abs(diffs) <= 1e-9 * (1.0 + tail[:-1])):
        return "bounded"
    if tail.max() <= mods.max() and tail[-1] < mods.max():
        return "bounded"
    return "undecided"


def orbit(m: AlgebraicMap, seed: complex, K: int, mode: str = "fixed") -> Orbit:
    """Iterate tau K times from the seed.

    ``mode='fixed'`` evaluates every step on the map's own branch.
    ``mode='track'`` picks, at each step, the n-th root nearest the previous
    step's root, flagging steps where that choice left the principal branch;
    an exact tie between candidate roots raises :class:`BranchAmbiguity`.
    A non-finite seed raises ValueError.
    """
    if not cmath.isfinite(seed):
        raise ValueError(f"orbit seed {seed!r} is not finite")
    if K < 0:
        raise ValueError("iteration count must be nonnegative")
    if mode not in ("fixed", "track"):
        raise ValueError("mode must be 'fixed' or 'track'")
    z = complex(seed)
    points = [z]
    cuts = [False]
    prev_w = None
    for _ in range(K):
        if mode == "fixed" or prev_w is None or m.n == 1:
            w = m.root(z)
            crossed = False
        else:
            cands = [m.root(z, b) for b in range(m.n)]
            dists = [abs(w_c - prev_w) for w_c in cands]
            order = sorted(range(m.n), key=dists.__getitem__)
            best = order[0]
            gap = dists[order[1]] - dists[best]
            if gap <= 1e-12 * (1.0 + abs(cands[best])):
                raise BranchAmbiguity(
                    f"two root branches equidistant from the tracked root at z={z}"
                )
            w = cands[best]
            crossed = best != m.branch
        prev_w = w
        z = z + m._shift(w)
        points.append(z)
        cuts.append(crossed)
    return Orbit(seed=complex(seed), points=tuple(points),
                 classification=_classify(tuple(points)),
                 cut_crossed=tuple(cuts))


def escape_probe(m: AlgebraicMap, seeds, K: int = 40) -> list[tuple[complex, str]]:
    """Classify each seed's orbit as escaped / bounded / undecided."""
    if K < 10:
        raise ValueError("need at least 10 iterations for a trend test")
    return [(complex(s), orbit(m, s, K).classification) for s in seeds]


# ---------------------------------------------------------------------------
# forward-invariance census
# ---------------------------------------------------------------------------


@record
class InvarianceReport:
    value: complex | None  # None encodes the pole set
    verdict: bool
    n_points: int
    n_matched: int
    n_boundary_leaks: int
    n_violations: int
    max_matched_distance: float
    assignment_ambiguous: bool
    n_value_matched: int = 0
    matched: tuple[tuple[complex, complex, complex, float], ...] = field(repr=False, default=())
    violations: tuple[tuple[complex, complex], ...] = ()

    def describe(self) -> str:
        tag = "inf" if self.value is None else format_complex(self.value)
        state = "pass" if self.verdict else "FAIL"
        extra = (f", {self.n_value_matched} matched by value"
                 if self.n_value_matched else "")
        return (f"value {tag}: {state} ({self.n_matched} matched{extra}, "
                f"{self.n_boundary_leaks} left disc, {self.n_violations} violations, "
                f"max distance {self.max_matched_distance:.3e})")


def format_complex(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:g}"
    return f"{v.real:g}{v.imag:+g}i"


def _image_hits_value(expr: FunctionExpr, q, a: complex | None):
    """Overflow-safe test of |f(q) - a| <= PREIMAGE_RESIDUAL_TOL (1 + |a|), elementwise.

    ``q`` is one point or an array of them; the result is a bool or a bool
    array of its shape, from one ``_log_parts`` call.  Works through the log
    channel so poles and astronomically large values never overflow;
    ``a=None`` stands for the pole set.  A NaN image never hits.
    """
    qs = np.asarray(q, dtype=complex)
    lm, ag = expr._log_parts(qs.reshape(-1))
    lv = math.log(PREIMAGE_RESIDUAL_TOL)
    if a is None:
        hit = lm >= -lv
    elif a == 0:
        hit = lm <= lv
    else:
        la, bound = math.log(abs(a)), PREIMAGE_RESIDUAL_TOL * (1.0 + abs(a))
        dwarfs = lm - la > 40.0  # |f(q)| dwarfs |a|: refuted without exponentiating
        tiny = la - lm > 40.0  # |f(q)| negligible next to |a|
        hit = tiny & (abs(a) <= bound)
        for k in np.flatnonzero(~(dwarfs | tiny)).tolist():
            v = cmath.exp(complex(float(lm[k]), float(ag[k])))
            hit[k] = abs(v - a) <= bound
    return hit.reshape(qs.shape)[()]


def _match_images(images, pts, R: float, tol: float):
    """Greedy nearest-point matching of in-disc images, in the images' order.

    Each image q with |q| <= R takes the unconsumed point t with the
    smallest ``(abs(q - t), index in pts)`` when that distance is at most
    limit = tol * (1 + |q|); it is ambiguous when an unconsumed point other
    than the best (not a copy of it) lies within 10 * limit of the best.
    So only points within 11 * limit of q can decide either test, and the
    search bisects the points, sorted by real part, on a window of
    half-width 16 * limit.  Rounding is
    monotone, so a point outside it has |Re(q - t)| > 16 * limit before
    and >= 16 * limit after rounding, hence a computed distance of at least
    16 * limit: it can neither match nor come within 10 * limit of a match.
    A NaN image has a NaN limit and matches nothing.

    Returns ``(matched, unmatched, leaks, ambiguous)``: matched
    ``(p, q, t, distance)`` tuples, unmatched in-disc ``(p, q)`` pairs and
    the count of images outside the disc.
    """
    order = sorted(range(len(pts)), key=lambda i: pts[i].real)
    keys = [pts[i].real for i in order]
    matched, unmatched = [], []
    leaks = 0
    ambiguous = False
    for p, q in images:
        aq = abs(q)
        if aq > R:
            leaks += 1
            continue
        limit = tol * (1.0 + aq)
        reach = 16.0 * limit
        lo = bisect.bisect_left(keys, q.real - reach)
        hi = bisect.bisect_right(keys, q.real + reach, lo)
        near = sorted((abs(q - pts[i]), i, k) for k, i in enumerate(order[lo:hi], lo))
        if near and near[0][0] <= limit:
            d, i, k = near[0]
            if len(near) > 1 and not ambiguous:
                # the nearest other point, not a copy of this one: copies of a
                # multiple point give the same assignment
                t = pts[i]
                e = next((e for e, j, _ in near if pts[j] != t), None)
                ambiguous = e is not None and e - d <= 10.0 * limit
            matched.append((p, q, pts[i], d))
            del keys[k], order[k]
        else:
            unmatched.append((p, q))
    return matched, unmatched, leaks, ambiguous


def invariance_census(expr: FunctionExpr, m: AlgebraicMap, values, R: float,
                      tol: float = 1e-9) -> list[InvarianceReport]:
    """Check tau(f^{-1}(a)) stays inside f^{-1}(a) for each requested value.

    For each value: collect the solution multiset in |z| <= R, push every
    point through tau, drop images leaving the disc (boundary leaks), and
    greedily match the rest, in order of modulus, to the nearest unconsumed
    multiset point.  A match requires distance <= limit = tol * (1 +
    |image|), and a different point within 10 * limit of the nearest (not
    a copy of a multiple point) marks the assignment ambiguous; only points
    within 11 * limit of an image can matter, so :func:`_match_images`
    searches a window of the multiset bisected on the real part, not the
    whole multiset.

    The multiset is complete (:func:`preimages_in_disc` returns every
    solution in the disc or raises), but tau can carry a computed point
    further than ``tol`` from the solution it maps to, so an unmatched
    in-disc image q is re-tried by value: it counts as matched when f(q) = a
    holds to ``PREIMAGE_RESIDUAL_TOL``.  A value check consumes no point,
    so the unmatched images of a value are checked after its matching, in
    one :func:`_image_hits_value` call.  Only value-refuted images are
    violations, and the verdict is true when no in-disc image ends up
    refuted.

    Each value is read by :func:`target_value` (None or +inf census the
    poles).  ``R`` must be finite and positive (a census of an empty disc
    proves nothing), and ``tol`` finite and nonnegative; anything else
    raises ValueError before any solve.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"census radius {R!r} must be finite and positive")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"census tol {tol!r} must be finite and nonnegative")
    reports = []
    for aval in [target_value(a) for a in values]:
        div = preimages_in_disc(expr, aval, R)
        pts = div.multiset()
        images = []
        for p in pts:
            images.append((p, m(p)))
        # sort images for deterministic greedy order
        images.sort(key=lambda pq: (abs(pq[1]), pq[1].real, pq[1].imag))
        matched, unmatched, leaks, ambiguous = _match_images(images, pts, R, tol)
        violations = []
        if unmatched:
            hits = _image_hits_value(expr, [q for _, q in unmatched], aval)
            violations = [pq for pq, hit in zip(unmatched, hits.tolist()) if not hit]
        verdict = not violations
        reports.append(InvarianceReport(
            value=aval,
            verdict=verdict,
            n_points=len(pts),
            n_matched=len(matched),
            n_boundary_leaks=leaks,
            n_violations=len(violations),
            max_matched_distance=max((d for *_, d in matched), default=0.0),
            assignment_ambiguous=ambiguous,
            n_value_matched=len(unmatched) - len(violations),
            matched=tuple(matched),
            violations=tuple(violations),
        ))
    return reports
