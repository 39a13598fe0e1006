"""Fixed-branch maps, orbit iteration and the forward-invariance census."""

import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nevlab import (
    AlgebraicMap,
    Divisor,
    Exp,
    ExpPoly,
    InvarianceReport,
    Polynomial,
    RationalFromDivisor,
    binomial_shift_map,
    build_orbit_function,
    escape_probe,
    figure_family,
    invariance_census,
    left_figure_map,
    orbit,
    polynomialize,
)
from nevlab import apoints
from nevlab.algmap import _image_hits_value
from nevlab.core import BranchAmbiguity, OrderMismatch
from nevlab.fnmodel import preimages_in_disc

Z = Polynomial((0j, 1.0))

TAU2_OF_4 = 6.101052360167807 + 0.8922563354910713j  # hand-chained oracle

nonzero = st.builds(complex,
                    st.floats(min_value=-4.0, max_value=4.0),
                    st.floats(min_value=-4.0, max_value=4.0)).filter(
                        lambda w: abs(w) > 1e-3)


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------


def test_map_validation():
    with pytest.raises(ValueError):
        AlgebraicMap(n=0, alphas=())
    with pytest.raises(ValueError):
        AlgebraicMap(n=2, alphas=(1.0,))
    with pytest.raises(ValueError):
        AlgebraicMap(n=2, alphas=(0j, 1.0), branch=2)


@given(nonzero, st.integers(min_value=1, max_value=5))
@example(z=2 + 5e-324j, n=2)  # its angle underflows
@settings(max_examples=60, deadline=None)
def test_root_branches_are_nth_roots(z, n):
    m = AlgebraicMap(n=n, alphas=(0j,) * n)
    for b in range(n):
        w = m.root(z, b)
        assert abs(w ** n - z) <= 1e-10 * (1.0 + abs(z))
    # branches differ by the n-th roots of unity
    w0 = m.root(z, 0)
    for b in range(1, n):
        rot = cmath.exp(2j * math.pi * b / n)
        assert abs(m.root(z, b) - w0 * rot) <= 1e-10 * (1.0 + abs(w0))


def test_principal_branch_of_negative_real():
    m = AlgebraicMap(n=2, alphas=(0j, 0j))
    assert m.root(-1.0) == pytest.approx(1j)


@given(nonzero, st.integers(min_value=1, max_value=6),
       st.builds(complex, st.floats(min_value=-2, max_value=2),
                 st.floats(min_value=-2, max_value=2)))
@settings(max_examples=60, deadline=None)
def test_binomial_shift_is_shifted_root_power(z, n, c):
    m = binomial_shift_map(n, c)
    w = m.root(z)
    want = (w + c) ** n
    assert abs(m(z) - want) <= 1e-9 * (1.0 + abs(want))


def test_binomial_coefficients():
    m = binomial_shift_map(3, 2.0)
    assert m.alphas == (8.0 + 0j, 12.0 + 0j, 6.0 + 0j)


def test_polynomialize_and_order_mismatch():
    m = AlgebraicMap(n=2, alphas=(0.5j, 1.0))
    p = polynomialize(m, 2)
    assert p.coeffs == (0.5j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(OrderMismatch):
        polynomialize(m, 3)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_left_map_first_steps_exact():
    m = left_figure_map()
    assert m(4.0) == 5.0 + 0.4j
    assert abs(m(m(4.0)) - TAU2_OF_4) < 1e-12


def test_orbit_steps_bitwise_match_direct_application():
    m = left_figure_map()
    orb = orbit(m, 4.0, 8)
    z = 4.0 + 0j
    for k in range(8):
        z = m(z)
        assert orb.points[k + 1] == z   # exact equality, same code path


def test_orbit_classification_and_flags():
    m = left_figure_map()
    orb = orbit(m, 4.0, 40)
    assert orb.classification == "escaped"
    assert orb.cut_crossed == (False,) * 41

    still = AlgebraicMap(n=1, alphas=(0j,))     # identity map
    assert orbit(still, 1.0, 40).classification == "bounded"


def test_orbit_track_mode_agrees_on_principal_orbits():
    # the documented seed stays in the right half plane, so tracking never
    # leaves the principal branch and both modes coincide bitwise
    m = left_figure_map()
    fixed = orbit(m, 4.0, 15, mode="fixed")
    tracked = orbit(m, 4.0, 15, mode="track")
    assert fixed.points == tracked.points
    assert not any(tracked.cut_crossed)


def test_orbit_track_mode_flags_exact_tie():
    # tau(z) = z - 2: after one step the iterate is -1, whose two square
    # roots +-i are equidistant from the previous root 1
    m = AlgebraicMap(n=2, alphas=(-2.0 + 0j, 0j))
    with pytest.raises(BranchAmbiguity):
        orbit(m, 1.0, 3, mode="track")


def test_orbit_input_validation():
    m = left_figure_map()
    with pytest.raises(ValueError):
        orbit(m, 1.0, -1)
    with pytest.raises(ValueError):
        orbit(m, 1.0, 5, mode="sideways")


def test_escape_probe_classifies_seeds():
    m = left_figure_map()
    out = escape_probe(m, [4.0, -4.0], K=40)
    assert all(tag == "escaped" for _, tag in out)
    with pytest.raises(ValueError):
        escape_probe(m, [4.0], K=5)


# ---------------------------------------------------------------------------
# invariance census
# ---------------------------------------------------------------------------


def lattice_exp():
    """e^z with tau(z) = z + 2 pi i: the 1-set is exactly forward invariant."""
    shift = AlgebraicMap(n=1, alphas=(2j * math.pi,))
    return ExpPoly(Z), shift


def test_census_exact_lattice_invariance():
    f, shift = lattice_exp()
    rep, = invariance_census(f, shift, [1.0], R=20.0)
    assert rep.verdict
    assert rep.n_violations == 0
    assert rep.max_matched_distance == 0.0
    assert rep.n_boundary_leaks >= 1      # the topmost lattice point leaves
    assert rep.n_matched + rep.n_boundary_leaks == rep.n_points


def test_census_detects_broken_invariance():
    # zeros at 1 and 5: tau moves 1 to 5+..., nothing sits at tau(5)
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 1), (5.0, 1)]))
    m = left_figure_map()
    rep, = invariance_census(f, m, [0.0], R=50.0)
    assert not rep.verdict
    assert rep.n_violations >= 1


def test_census_counts_boundary_leaks_not_violations():
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 1)]))
    m = left_figure_map()
    rep, = invariance_census(f, m, [0.0], R=1.5)   # tau(1) = 1.7+0.2i leaves
    assert rep.verdict
    assert rep.n_boundary_leaks == 1 and rep.n_matched == 0


def test_census_pole_set():
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, -1), (5.0, 1)]))
    m = left_figure_map()
    rep, = invariance_census(f, m, ["inf"], R=50.0)
    assert rep.value is None
    assert not rep.verdict   # single pole cannot be invariant under motion


POLE_SPELLINGS = [None, "inf", "INF", "oo", math.inf, complex(math.inf, 0.0), "1e400"]
NOT_FINITE = [-math.inf, math.nan, complex(0.0, math.inf)]


def test_census_of_the_poles_is_one_census_whatever_the_spelling():
    # a wrong map moves every pole of the left m6 family off the pole set,
    # and math.inf must not turn the census into a value check against inf
    fam = figure_family("left", 6)
    f, R = build_orbit_function(fam), fam.census_radius()
    wrong = AlgebraicMap(2, (0.0, 0.5 - 0.2j))
    want, = invariance_census(f, wrong, [None], R)
    assert want.value is None and not want.verdict and want.n_violations == 16
    for a in POLE_SPELLINGS:
        assert invariance_census(f, wrong, [a], R) == [want], a


def test_preimages_and_census_read_the_value_alike():
    fam = figure_family("left", 6)
    f, R = build_orbit_function(fam), fam.census_radius()
    poles = preimages_in_disc(f, None, R)
    for a in POLE_SPELLINGS:
        assert preimages_in_disc(f, a, R) == poles, a
        assert invariance_census(f, fam.map, [a], R)[0].n_points == len(poles.multiset()), a
    for a in NOT_FINITE:
        with pytest.raises(ValueError, match="is not finite") as solve:
            preimages_in_disc(f, a, R)
        with pytest.raises(ValueError, match="is not finite") as census:
            invariance_census(f, fam.map, [0.0, a], R)
        assert str(solve.value) == str(census.value), a


def test_census_describe_mentions_verdict():
    f, shift = lattice_exp()
    rep, = invariance_census(f, shift, [1.0], R=20.0)
    assert "pass" in rep.describe()


# value-confirmation fallback -------------------------------------------------


def test_image_hits_value_zero_target():
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 1)]))  # z - 1
    assert _image_hits_value(f, 1.0 + 1e-9, 0.0)
    assert not _image_hits_value(f, 1.1, 0.0)


def test_image_hits_value_pole_target():
    f = RationalFromDivisor(1.0, Divisor((), -1))            # 1/z
    assert _image_hits_value(f, 1e-12, None)
    assert not _image_hits_value(f, 1.0, None)


def test_image_hits_value_finite_target():
    f = ExpPoly(Z)
    assert _image_hits_value(f, 0.0, 1.0)              # e^0 = 1
    assert _image_hits_value(f, 2j * math.pi, 1.0)
    assert not _image_hits_value(f, 0.1, 1.0)
    # huge |f| against a moderate target: decided in the log domain
    assert not _image_hits_value(f, 800.0, 1.0)
    # |f| = e^720 leaves the double range, and so would e^720 - 1e308
    assert not _image_hits_value(f, 720.0, 1e308)


def test_value_hits_compare_logs_as_the_per_element_test_did():
    """_value_hits agrees with the per-element test it replaced on a grid of
    (log|f|, arg f, a) across its 40-log shortcuts, and both with a 50-digit
    |f - a|, away from the bound.  The per-element test misses twice: its
    shortcut refuted every |f| > e^40 |a| though |f| and |a| both sit below
    the bound, and its exponential overflowed at a huge a.  A NaN never
    hits."""
    mpmath = pytest.importorskip("mpmath")
    tol = apoints.PREIMAGE_RESIDUAL_TOL
    got, want, old, shortcut = [], [], [], []
    for a in (1.0, -2.5 + 0.5j, 2j, 1e-30, 1e-9, 3e5, 1e300):
        la, phase = math.log(abs(a)), cmath.phase(a)
        grid = [(la + d, phase + t) for d in np.linspace(-60.0, 60.0, 97)
                for t in (0.0, 0.3, -2.0, math.pi)]
        grid += [(la + e, phase + e2) for e in (0.0, 1e-9, -3e-7, 1e-5, 1e-3)
                 for e2 in (0.0, 2e-7, -1e-4)]
        kept = []
        for lm, ag in grid:
            with mpmath.workdps(50):
                gap = abs(mpmath.exp(mpmath.mpc(lm, ag)) - a)
                margin = float(mpmath.log(gap) - mpmath.log(tol * (1.0 + abs(a))))
            if abs(margin) > 1e-6:  # away from the bound
                kept.append((lm, ag))
                want.append(margin < 0)
                try:
                    old.append(_logs_hit_value(lm, ag, a, tol))
                except OverflowError:  # cmath.exp past the double range
                    old.append(None)
                shortcut.append(lm - la > 40.0 and margin < 0)
        lms, ags = np.array(kept).T
        got += apoints._value_hits(lms, ags, a).tolist()
    want, shortcut = np.array(want), np.array(shortcut)
    crashed = np.array([hit is None for hit in old])
    assert want.any() and not want.all() and crashed.any()
    assert np.array_equal(np.array(got), want)
    assert shortcut.any() and np.array_equal((np.array(old) != want) & ~crashed, shortcut)
    lm, ag = np.array([math.nan, 0.0, math.nan]), np.array([0.0, math.nan, math.nan])
    for a in (0.0, 1.0, 1e-30):
        assert not apoints._value_hits(lm, ag, a).any()


# batched value check and windowed matching, against the scalar and quadratic
# forms they replace --------------------------------------------------------


def _scalar_hits_value(expr, q, a, vtol):
    """The one-image value check, as it was before batching."""
    lm, ag = expr._log_parts(np.asarray([complex(q)], dtype=complex))
    return _logs_hit_value(float(lm[0]), float(ag[0]), a, vtol)


def _logs_hit_value(lm, ag, a, vtol):
    """The value check of one (log|f|, arg f), as it was before it compared
    logs: two 40-log shortcuts, else |e^(lm + i ag) - a| by cmath."""
    if a is None:
        return lm >= -math.log(vtol)
    if a == 0:
        return lm <= math.log(vtol)
    la = math.log(abs(a))
    if lm - la > 40.0:
        return False
    if la - lm > 40.0:
        return abs(a) <= vtol * (1.0 + abs(a))
    v = cmath.exp(complex(lm, ag))
    return abs(v - a) <= vtol * (1.0 + abs(a))


def _quadratic_census(expr, m, values, R, tol=1e-9, value_tol=1e-6):
    """The census with the full scan over unconsumed points per image and a
    value check per unmatched image, as it was before the window (with the
    ambiguity test counting only a runner-up that is a different point)."""
    reports = []
    for a in values:
        is_inf = a is None or (isinstance(a, str) and a.lower() in ("inf", "oo"))
        aval = None if is_inf else complex(a)
        pts = preimages_in_disc(expr, aval, R).multiset()
        images = [(p, m(p)) for p in pts]
        images.sort(key=lambda pq: (abs(pq[1]), pq[1].real, pq[1].imag))
        available = list(pts)
        matched, violations = [], []
        leaks = by_value = 0
        ambiguous = False
        for p, q in images:
            if abs(q) > R:
                leaks += 1
                continue
            j = -1
            if available:
                dists = [abs(q - t) for t in available]
                j = int(np.argmin(dists))
            limit = tol * (1.0 + abs(q))
            if j >= 0 and dists[j] <= limit:
                # a runner-up counts only as a different point, not a copy
                rest = [d for t, d in zip(available, dists) if t != available[j]]
                if rest and min(rest) - dists[j] <= 10.0 * limit:
                    ambiguous = True
                matched.append((p, q, available[j], dists[j]))
                available.pop(j)
            elif _scalar_hits_value(expr, q, aval, value_tol):
                by_value += 1
            else:
                violations.append((p, q))
        reports.append(InvarianceReport(
            value=aval, verdict=not violations, n_points=len(pts),
            n_matched=len(matched), n_boundary_leaks=leaks,
            n_violations=len(violations),
            max_matched_distance=max((d for *_, d in matched), default=0.0),
            assignment_ambiguous=ambiguous, n_value_matched=by_value,
            matched=tuple(matched), violations=tuple(violations)))
    return reports


def _fields(rep):
    # repr, not ==: a NaN image in the violations is unequal to itself
    return repr(tuple(getattr(rep, name) for name in InvarianceReport.__annotations__))


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _designed_set(rng, tol, side):
    """Points on one side of the imaginary axis, each group placed about a
    dyadic anchor q: an exact duplicate, three points at one exact distance
    (a tie), a point within a few ulps of limit = tol * (1 + |q|), or a
    match with a runner-up a few ulps either side of 10 * limit farther."""
    points, anchors = [], []
    for _ in range(rng.randint(0, 12)):
        q = complex(side * rng.randint(4, 40) / 8, rng.randint(-40, 40) / 8)
        limit = tol * (1.0 + abs(q))
        kind = rng.choice(("dup", "tie", "limit", "runner-up", "far"))
        if kind == "dup":
            points += [q] * rng.randint(2, 3)
        elif kind == "tie":
            h = 2.0 ** -rng.randint(3, 40)
            points += [q + h, q - h, q + 1j * h]
        elif kind == "limit":
            points.append(complex(_ulps(q.real + limit, rng.randint(-3, 3)), q.imag))
        elif kind == "runner-up":
            d0 = rng.choice((0.0, 0.5 * limit, limit))
            points.append(complex(q.real + d0, q.imag))
            points.append(complex(q.real - _ulps(d0 + 10.0 * limit, rng.randint(-3, 3)),
                                  q.imag))
        else:
            points.append(q + rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        anchors.append(q)
    return points, anchors


def _designed_census(seed, tol):
    """A rational with the designed zeros and poles and a table map sending
    each point to an anchor, a point, an image outside the disc or on its
    circle, a NaN or a free point."""
    rng = random.Random(seed)
    R = 8.0
    zeros, zero_anchors = _designed_set(rng, tol, 1)
    poles, pole_anchors = _designed_set(rng, tol, -1)
    pool = zero_anchors + pole_anchors + zeros + poles
    table = {}
    for p in zeros + poles:
        kind = rng.random()
        if pool and kind < 0.7:
            table[p] = rng.choice(pool)
        elif kind < 0.75:
            table[p] = complex(R * 2, 1.0)
        elif kind < 0.8:
            table[p] = complex(0.0, R)  # on the circle: in the disc
        elif kind < 0.85:
            table[p] = complex(math.nan, 1.0)
        else:
            table[p] = complex(rng.uniform(-R, R), rng.uniform(-R, R)) / 2
    pairs = [(p, 1) for p in zeros] + [(p, -1) for p in poles]
    expr = RationalFromDivisor(1.0, Divisor(pairs))  # exact points, duplicates kept
    return expr, table.__getitem__, R  # the map: a table lookup


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 1e-16, 0.0, 1e6])
def test_windowed_matching_equals_the_quadratic_loop(tol):
    # 1e-16 puts limit within a few ulps of the anchors, and 1e6 makes the
    # window span every point
    seen = Counter()
    for seed in range(60):
        expr, m, R = _designed_census(seed, tol)
        want = _quadratic_census(expr, m, [0.0, "inf"], R, tol=tol)
        got = invariance_census(expr, m, [0.0, "inf"], R, tol=tol)
        assert [_fields(r) for r in got] == [_fields(r) for r in want]
        for rep in got:
            seen["points"] += rep.n_points
            seen["matched"] += rep.n_matched
            seen["ambiguous"] += rep.assignment_ambiguous
            seen["by value"] += rep.n_value_matched
            seen["violations"] += rep.n_violations
            seen["leaks"] += rep.n_boundary_leaks
            seen["empty"] += rep.n_points == 0
            seen["nan"] += any(math.isnan(q.real) for _, q in rep.violations)
    if tol > 1.0:  # every finite in-disc image finds a point while any is left
        del seen["by value"]
    if tol == 0.0:  # only copies of one point lie 0 apart, and copies are no tie
        del seen["ambiguous"]
    assert min(seen.values()) > 0, seen


def test_copies_of_a_multiple_point_are_not_an_ambiguous_assignment():
    # tau(z) = 2z sends both copies of the double zero 1 onto the double zero
    # 2, whose two copies sit at the same distance from the image
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 2), (2.0, 2)]))
    rep, = invariance_census(f, AlgebraicMap(n=1, alphas=(1.0,)), [0.0], R=2.5)
    assert (rep.n_matched, rep.n_boundary_leaks, rep.assignment_ambiguous) == (2, 2, False)


def test_a_near_tie_between_two_points_is_ambiguous():
    # tau is the identity: the image of 1 - 1e-12 is the point itself, and
    # 1 + 1e-12 is 2e-12 further off, inside 10 * limit = 2e-8
    f = RationalFromDivisor(1.0, Divisor([(1.0 + 1e-12, 1), (1.0 - 1e-12, 1)]))
    rep, = invariance_census(f, AlgebraicMap(n=1, alphas=(0.0,)), [0.0], R=2.5)
    assert (rep.n_matched, rep.assignment_ambiguous) == (2, True)
    # the bound itself: at tol 2^-30 the image 1 has limit 2^-29, and the
    # other point lies exactly 10 * limit off, then one ulp further
    for ulp, ambiguous in ((0.0, True), (2.0**-52, False)):
        f = RationalFromDivisor(1.0, Divisor([(1.0, 1), (1.0 + 10 * 2.0**-29 + ulp, 1)]))
        rep, = invariance_census(f, AlgebraicMap(n=1, alphas=(0.0,)), [0.0], R=2.5,
                                 tol=2.0**-30)
        assert (rep.n_matched, rep.assignment_ambiguous) == (2, ambiguous)


def test_census_of_an_empty_multiset():
    f = RationalFromDivisor(1.0, Divisor.build([(5.0, -1)]))  # no zeros
    rep, = invariance_census(f, left_figure_map(), [0.0], R=10.0)
    assert (rep.n_points, rep.n_matched, rep.verdict) == (0, 0, True)
    assert _fields(rep) == _fields(_quadratic_census(f, left_figure_map(), [0.0], 10.0)[0])


def test_batched_image_hits_value_equals_scalar_calls():
    nan = complex(math.nan, 0.0)
    cases = [
        # z - 1 at 0: a hit, a refutation, the exact zero, a NaN
        (RationalFromDivisor(1.0, Divisor.build([(1.0, 1)])), 0.0,
         [1.0 + 1e-9, 1.1, 1.0, nan]),
        # 1/z at the pole set: near the pole, far from it, on it, a NaN
        (RationalFromDivisor(1.0, Divisor((), -1)), None, [1e-12, 1.0, 0.0, nan]),
        # e^z at 1: hits on the lattice, a refutation, |f| >> |a|, |f| << |a|
        (ExpPoly(Z), 1.0, [0.0, 2j * math.pi, 0.1, 800.0, -800.0, nan]),
        # e^z at a tiny a: |f| << |a| is then a hit and |f| ~ 1 dwarfs a
        (ExpPoly(Z), 1e-30, [-800.0, 0.0, -69.0, nan]),
        (ExpPoly(Z), 2j, [math.log(2) + 0.5j * math.pi, 1.0, 100.0, -100.0]),
        # e^{e^z} at 1: a hit where e^z = 2 pi i, a refutation, a NaN
        (Exp(Z), 1.0, [math.log(2.0 * math.pi) + 0.5j * math.pi, 0.3, nan]),
    ]
    for f, a, qs in cases:
        want = [_scalar_hits_value(f, q, a, 1e-6) for q in qs]
        got = _image_hits_value(f, np.array(qs, dtype=complex), a)
        assert got.dtype == bool and got.shape == (len(qs),)
        assert got.tolist() == want == [bool(_image_hits_value(f, q, a)) for q in qs]
        assert True in want and False in want


@pytest.mark.parametrize("kwargs", [{"R": 0.0}, {"R": -1.0}, {"R": math.inf},
                                    {"R": math.nan}, {"tol": math.inf},
                                    {"tol": math.nan}, {"tol": -1.0}])
def test_census_rejects_bad_radius_and_tolerances(kwargs):
    f, shift = lattice_exp()
    args = {"R": 20.0} | kwargs
    with pytest.raises(ValueError):
        invariance_census(f, shift, [1.0], **args)
