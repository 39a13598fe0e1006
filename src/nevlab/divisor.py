"""Divisors: the zeros and poles of an expression as sorted, read-only
columns, the one greedy merge of near-coincident points
(:func:`_greedy_cluster`, screened by :func:`_close_points`), the broadcast
kernel that sums a channel over a divisor's points
(:func:`_divisor_sums`), and the pull-back of a divisor through a
polynomial (:func:`_pull_back`).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import Polynomial, _carray, _no_delattr, _no_setattr
from .roots import roots_of_shifts

# Points closer to 0 than this are folded into the divisor's origin order.
ORIGIN_SNAP = 1e-10
# Relative tolerance for merging near-coincident divisor points.
MERGE_TOL = 1e-9
# Relative cluster width when grouping near-coincident polynomial roots.
ROOT_CLUSTER_TOL = 1e-5
# Nodes per chunk of a divisor sum are capped so that its (points, nodes)
# temporaries hold about this many cells (256 kB as complex) each.
_DIVISOR_CELLS = 1 << 14


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


def _differences(flat: np.ndarray, b: np.ndarray, block: np.ndarray | None = None):
    """Per chunk ``c`` of the nodes ``flat``: ``(c, k, flat[c] - b)``, the
    (points, nodes) block of the chunk's k nodes against the column ``b``,
    fresh, or a contiguous view of the first cells of the flat complex
    ``block`` where one is given.

    numpy sums a single column pairwise, so a lone node is doubled and the
    sums keep their first k columns; z - b is taken in place, as numpy is
    slow when both operands are broadcast.
    """
    for c in _node_chunks(flat.size, len(b)):
        zc = flat[c]
        shape = (len(b), max(zc.size, 2))
        diff = (np.empty(shape, dtype=np.complex128) if block is None
                else block[:shape[0] * shape[1]].reshape(shape))
        np.copyto(diff, zc)
        diff -= b
        yield c, zc.size, diff


def _node_step(points: int) -> int:
    """Nodes per chunk whose (points, nodes) blocks hold about
    ``_DIVISOR_CELLS`` cells."""
    return max(2, _DIVISOR_CELLS // max(points, 1))


def _node_chunks(n: int, points: int) -> list[slice]:
    """Slices of n nodes of at most :func:`_node_step` nodes each."""
    step = _node_step(points)
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
