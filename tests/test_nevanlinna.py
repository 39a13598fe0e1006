"""Circle means, counting functions and the growth gauges built from them."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nevlab import (
    Const,
    Divisor,
    Exp,
    ExpPoly,
    Polynomial,
    Product,
    Quotient,
    RationalFromDivisor,
    argument_principle_count,
    build_orbit_function,
    characteristic,
    characteristic_sweep,
    compose_poly,
    counting,
    figure_family,
    fmt_delta,
    hyperorder_estimate,
    jensen_lhs_rhs,
    log_radii,
    n_count,
    proximity,
    subtract,
)
from nevlab import circles, core, divisor, fnmodel, kinks, nevanlinna, quadrature
from nevlab.core import InsufficientGrowth, NonMonotone
from nevlab.nevanlinna import _circle_means, _logplus

Z = Polynomial((0j, 1.0))
EXP_Z = ExpPoly(Z)
EXP_Z2 = ExpPoly(Polynomial((0j, 0j, 1.0)))
EXP_Z3 = ExpPoly(Polynomial((0j, 0j, 0j, 1.0)))
INV_Z = RationalFromDivisor(1.0, Divisor((), -1))


# ---------------------------------------------------------------------------
# closed-form anchors
# ---------------------------------------------------------------------------


# m(r, e^{z^d}) = r^d / pi: log+|f| = max(r^d cos(d theta), 0), whose kinks
# are the level cuts, so each panel integrates an entire function
CLOSED_FORM_RADII = (0.7, 3.0, 7.0, 13.0, 30.0)


def test_proximity_of_exp_is_r_over_pi():
    for r in (1.0, math.pi, 7.5) + CLOSED_FORM_RADII:
        s = proximity(EXP_Z, r)
        assert s.m == pytest.approx(r / math.pi, rel=1e-13, abs=0)


def test_characteristic_of_exp_square():
    for r in (2.0,) + CLOSED_FORM_RADII:
        s = characteristic(EXP_Z2, r)
        assert s.T == pytest.approx(r * r / math.pi, rel=1e-13, abs=0)
        assert s.N == 0.0


def test_characteristic_of_exp_cube():
    for r in CLOSED_FORM_RADII:
        s = characteristic(EXP_Z3, r)
        assert s.T == pytest.approx(r**3 / math.pi, rel=1e-13, abs=0)
        assert s.N == 0.0


def test_reciprocal_identity_splits_into_pure_counting():
    # 1/z: everything sits in N(r) = log r; the circle mean of log+(1/r) is 0
    # once r >= 1
    for r in (2.0, 10.0):
        s = characteristic(INV_Z, r)
        assert s.m == 0.0
        assert s.N == pytest.approx(math.log(r), abs=1e-12)
        assert s.T == pytest.approx(math.log(r), abs=1e-12)


def test_with_poles_reads_a_divisor_only_where_a_leaf_can_give_a_pole(monkeypatch):
    """N is counted only where a leaf of the tree divides or is a rational
    with a pole: 1/e^z and 1/e^{e^z} count nothing, and 1/(e^z - 1) counts
    the zeros of e^z - 1 as its poles."""
    read = []

    def spy(divisor, r, kind="poles"):
        read.append(kind)
        return counting(divisor, r, kind)

    monkeypatch.setattr(nevanlinna, "counting", spy)
    no_poles = (Quotient(Const(1.0), EXP_Z), Quotient(Const(1.0), Exp(Z)),
                Product(RationalFromDivisor(2.0, Divisor.build([(1.0, 1)])), ExpPoly(Z, 1.0)))
    for f in no_poles:
        for s in characteristic_sweep(f, [0.5, 2.0]):
            assert s.N == 0.0 and s.T == s.m, f
    assert read == []
    # the poles 2 pi i k, k = -1, 0, 1, inside r = 7: N = log 7 + 2 log(7 / 2pi)
    s = characteristic(Quotient(Const(1.0), ExpPoly(Z, 1.0)), 7.0)
    assert read == ["poles"]
    assert s.N == pytest.approx(math.log(7.0) + 2.0 * math.log(7.0 / (2.0 * math.pi)), rel=1e-12)
    assert characteristic(Product(INV_Z, EXP_Z), 2.0).N == pytest.approx(math.log(2.0), abs=1e-12)
    assert read == ["poles"] * 2


def _m_exp_exp_reference(r: float):
    """m(r, e^{e^z}) at 30 digits: the mean of max(e^{r cos t} cos(r sin t), 0),
    integrated by mpmath between its kinks r sin t = pi/2 + k pi."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r, two_pi = mpmath.mpf(r), 2 * mpmath.pi
        cuts = {mpmath.mpf(0), two_pi}
        kmax = int(r / mpmath.pi) + 1
        for k in range(-kmax, kmax + 1):
            v = mpmath.pi / 2 + k * mpmath.pi
            if abs(v) <= r:
                a = mpmath.asin(v / r)
                cuts |= {a % two_pi, (mpmath.pi - a) % two_pi}
        integral = mpmath.quad(lambda t: max(mpmath.exp(r * mpmath.cos(t))
                                             * mpmath.cos(r * mpmath.sin(t)), 0),
                               sorted(cuts))
        return float(integral / two_pi)


# the last two are the sweep radii (Sweep.generate, seeds 3 and 7) where
# uniform seeding without level cuts missed by 132x and 596x the tolerance
@pytest.mark.parametrize("r", [0.5, 2.0, 3.0, 5.0, 7.0, 8.0, 10.0, 15.0, 20.0, 25.0, 28.0,
                               60.0, 24.169538390665046, 24.123900982041413])
def test_proximity_of_exp_exp_z_against_mpmath(members, r):
    # in closed form, whose rounding bound covers the true error
    s = proximity(members["exp_exp_z"].expr, r)
    err = abs(s.m - _m_exp_exp_reference(r))
    assert err <= max(1e-9, 1e-8 * s.m)
    assert (s.panels, s.evaluations) == (0, 0) and err <= s.quad_err


def _m_exp_exp_p_reference(p: Polynomial, r: float):
    """m(r, e^{e^p}) at 30 digits: the mean of max(Re e^{p(r e^{it})}, 0),
    integrated by mpmath over the arcs between its kinks where it is
    positive; the kinks, where cos Im p changes sign, are bracketed on
    4,096 angles and polished by mpmath's root finder."""
    mpmath = pytest.importorskip("mpmath")
    t = np.linspace(0.0, 2 * math.pi, 4097)
    cos_im = np.cos(p(r * np.exp(1j * t)).imag)
    with mpmath.workdps(30):
        r, two_pi = mpmath.mpf(r), 2 * mpmath.pi
        cs = [mpmath.mpc(c.real, c.imag) for c in p.coeffs]

        def p_at(t):
            z, w = r * mpmath.expj(t), 0
            for c in reversed(cs):
                w = w * z + c
            return w

        def re_exp_p(t):
            return mpmath.re(mpmath.exp(p_at(t)))

        cuts = [mpmath.mpf(0), two_pi] + [
            mpmath.findroot(lambda x: mpmath.cos(mpmath.im(p_at(x))), (t[i], t[i + 1]),
                            solver="anderson")
            for i in np.flatnonzero(np.sign(cos_im[1:]) != np.sign(cos_im[:-1]))]
        cuts.sort()
        integral = mpmath.fsum(mpmath.quad(re_exp_p, [a, b], method="gauss-legendre")
                               for a, b in zip(cuts, cuts[1:]) if re_exp_p((a + b) / 2) > 0)
        return float(integral / two_pi)


@pytest.mark.parametrize("p", [Polynomial((3.0, 1 - 2j, 1.0)), Polynomial((0.5j, 0.0, 0.0, 1.0))],
                         ids=["z^2+(1-2i)z+3", "z^3+0.5i"])
@pytest.mark.parametrize("r", [0.7, 1.5, 2.5, 4.0])
def test_proximity_of_an_exp_tower_against_mpmath(p, r):
    s = proximity(Exp(p), r)
    err = abs(s.m - _m_exp_exp_p_reference(p, r))
    assert err <= max(1e-9, 1e-8 * s.m)
    assert (s.panels, s.evaluations) == (0, 0) and err <= s.quad_err


@pytest.mark.parametrize("c, m", [(2.0, math.exp(2.0)), (2 + 2j, 0.0),
                                  (1e6j, max(math.cos(1e6), 0.0))])
def test_proximity_of_an_exp_tower_over_a_constant(c, m, monkeypatch):
    # log|e^{e^c}| = Re e^c on every circle: the series [e^c], with no
    # angles, and no level of Im c = pi/2 + k pi is listed to find them
    shifts, angles = [], kinks._im_level_angles
    monkeypatch.setattr(fnmodel, "_im_level_angles",
                        lambda p, r, s: shifts.extend(s) or angles(p, r, s))
    f = Exp(Polynomial((c,)))
    for r in (0.5, 3.0, 100.0):
        s = proximity(f, r)
        assert abs(s.m - m) <= s.quad_err <= 1e-13 and s.panels == 0
    assert not shifts


def test_sweep_grid_of_exp_exp_z_leaves_the_quadrature(members, monkeypatch):
    # the sweep's grid runs no quadrature; past the term cap, and past the
    # double range at r = 700, the quadrature answers, and at r = 800 it
    # raises as the CLI's char does
    f = members["exp_exp_z"].expr
    calls, lockstep = [], nevanlinna.adaptive_circles
    monkeypatch.setattr(nevanlinna, "adaptive_circles",
                        lambda *a, **k: calls.append(a) or lockstep(*a, **k))
    sweep = characteristic_sweep(f, log_radii(0.5, 28.0, 60))
    assert not calls and all((s.panels, s.evaluations) == (0, 0) for s in sweep)
    assert f.closed_proximity([700.0])[0][0] is None
    assert proximity(f, 700.0).panels > 0
    with pytest.raises(core.OverflowSignal):
        proximity(f, 800.0)
    monkeypatch.setattr(circles, "MAX_PANELS", 50)  # 84 terms at r = 28, 36 angles
    s = proximity(f, 28.0)
    assert s.panels > 0 and abs(s.m - sweep[-1].m) <= 1e-8 * s.m


def test_a_closed_mean_that_misses_its_tolerance_goes_to_the_quadrature(members):
    # at r = 28 the tower's closed mean is bounded by about 0.27, and a
    # 1e-12 tolerance of m = 3.5e10 is 0.035
    f = members["exp_exp_z"].expr
    (m, bound), _, _ = f.closed_proximity([28.0])[0]
    assert 1e-12 * m < bound <= 1e-8 * m
    s = proximity(f, 28.0, atol=1e-12, rtol=1e-12)
    assert s.panels > 0 and s.quad_err <= 1e-12 * s.m
    assert abs(s.m - _m_exp_exp_reference(28.0)) <= 1e-11 * s.m


def _m_rat_zero1_pole2_reference(r: float):
    """m(r, (z - 1)/(z - 2)) at 30 digits: log|f| > 0 where Re z > 3/2, so
    the mean of log|z - 1| - log|z - 2| over |theta| < arccos(3/(2r)),
    integrated by mpmath between those kinks and the angle 0 of both
    divisor points."""
    mpmath = pytest.importorskip("mpmath")
    if r <= 1.5:
        return 0.0
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        a = mpmath.acos(mpmath.mpf(3) / (2 * r))

        def logf(t):
            z = r * mpmath.expj(t)
            return mpmath.log(abs(z - 1)) - mpmath.log(abs(z - 2))

        return float(mpmath.quad(logf, [-a, 0, a]) / (2 * mpmath.pi))


# the third radius is where the mean, with its ends seeded in place of the
# searched cuts, missed by 15.9x its tolerance against a 1000x tighter run
@pytest.mark.parametrize("r", [1.2, 1.6, 3.78921641565047, 2.262853668568036, 10.0, 39.0])
def test_proximity_of_rat_zero1_pole2_against_mpmath(members, r):
    s = proximity(members["rat_zero1_pole2"].expr, r)
    assert abs(s.m - _m_rat_zero1_pole2_reference(r)) <= max(1e-9, 1e-8 * s.m)


def _m_rat_zero1_pole2_at_z2_plus_z_reference(r: float):
    """m(r, (w - 1)/(w - 2)) at w = z^2 + z, at 30 digits: log|f| > 0 where
    Re w = r^2 (2 cos^2 t - 1) + r cos t > 3/2, so its kinks are the angles
    whose cosine solves 2 r^2 c^2 + r c - r^2 - 3/2 = 0; mpmath integrates
    log+|f| between them and 0, pi and 2pi."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r, two_pi = mpmath.mpf(r), 2 * mpmath.pi
        cuts = {mpmath.mpf(0), mpmath.pi, two_pi}
        root = mpmath.sqrt(r**2 + 8 * r**2 * (r**2 + mpmath.mpf(3) / 2))
        for c in ((-r + root) / (4 * r**2), (-r - root) / (4 * r**2)):
            if abs(c) <= 1:
                cuts |= {mpmath.acos(c), two_pi - mpmath.acos(c)}

        def logplus_f(t):
            z = r * mpmath.expj(t)
            w = z * z + z
            return max(mpmath.log(abs(w - 1)) - mpmath.log(abs(w - 2)), 0)

        return float(mpmath.quad(logplus_f, sorted(cuts)) / two_pi)


# the second radius is where the precomposition node, which had neither the
# circle fold nor the kink search, missed by 67.5x its tolerance
@pytest.mark.parametrize("r", [1.1, 10.315273952952696, 25.0])
def test_proximity_of_a_composed_rational_against_mpmath(members, r):
    f = compose_poly(members["rat_zero1_pole2"].expr, Polynomial((0j, 1.0, 1.0)))
    s = proximity(f, r)
    assert abs(s.m - _m_rat_zero1_pole2_at_z2_plus_z_reference(r)) <= max(1e-9, 1e-8 * s.m)


_ORACLES = {"exp_exp_z": _m_exp_exp_reference, "rat_zero1_pole2": _m_rat_zero1_pole2_reference}


@pytest.mark.parametrize("key, r", [
    pytest.param("exp_exp_z", 10.0, id="10.0"),
    pytest.param("exp_exp_z", 24.123900982041413, id="24.123900982041413"),
    pytest.param("rat_zero1_pole2", 3.78921641565047, id="rat_zero1_pole2-3.78921641565047"),
])
def test_level_cuts_are_only_hints(members, key, r):
    # a missing kink costs refinement rounds, a spurious one a panel: with
    # any one level angle dropped, or one added, the mean meets its tolerance
    expr = members[key].expr
    _, angles, _ = expr.closed_proximity([r])[0]
    ref = _ORACLES[key](r)
    for edited in [np.delete(angles, i) for i in range(angles.size)] + [
            np.sort(np.append(angles, 1.234))]:
        m = _circle_means(expr, [(r, edited, 0)], _logplus(expr), 1e-9, 1e-8)[0].value
        assert abs(m - ref) <= max(1e-9, 1e-8 * m)


def test_proximity_counts_the_search_and_keeps_seeded_ends_without_a_crossing(members):
    # the quadrature of a rational's mean, its fallback: with crossings, the
    # searched angles as cuts, the search's evaluations counted on top of
    # the quadrature's; without, the ends seeded as for an unknown level
    # set, and the scan's evaluations counted on top
    f, g = members["rat_zero1_pole2"].expr, members["orbit_left_m6"].expr

    def quad(expr, r, kinks, spent):
        return _circle_means(expr, [(r, kinks, spent)], _logplus(expr), 1e-9, 1e-8)[0]

    for expr, r, found in ((f, 3.78921641565047, True), (g, 0.7, False)):
        _, angles, spent = expr.closed_proximity([r])[0]
        assert (angles is not None) == found and spent > 0
        searched = quad(expr, r, angles, spent)
        given = quad(expr, r, angles, 0)
        assert searched.value == given.value
        assert searched.evaluations == given.evaluations + spent
    # plain cuts at the two kinks and no seeded ends: with the angle 0 they
    # make three panels, each accepted in the first round (48 nodes each)
    _, angles, spent = f.closed_proximity([3.78921641565047])[0]
    res = quad(f, 3.78921641565047, angles, spent)
    assert res.panels == 3 and res.evaluations == 3 * 48 + spent


def test_an_uncertified_circle_searches_once(members, monkeypatch):
    # with no bisection allowed the certificate fails on this circle (a
    # crossing pair between two scan samples), and the quadrature runs with
    # the one search's kinks as cuts and its evaluations counted
    f, r = members["orbit_left_m6"].expr, 8.21086325832621
    calls, search = [], kinks._level_search
    monkeypatch.setattr(kinks, "_CERTIFY_ROUNDS", 0)
    monkeypatch.setattr(fnmodel, "_level_search",
                        lambda *args: calls.append(args) or search(*args))
    s = proximity(f, r)
    assert len(calls) == 1
    assert (s.panels, s.evaluations) == (54, 2792)
    mean, angles, spent = f.closed_proximity([r])[0]
    assert mean is None and angles.size
    res = _circle_means(f, [(r, angles, spent)], _logplus(f), 1e-9, 1e-8)[0]
    assert (s.m, s.quad_err, s.evaluations) == (res.value, res.err_estimate, res.evaluations)
    monkeypatch.undo()
    assert abs(s.m - proximity(f, r).m) <= max(1e-9, 1e-8 * s.m)


def test_an_uncertified_circle_builds_its_fold_once(members, monkeypatch):
    # the kink search reads the fold's log form; the quadrature that follows
    # reads the expression itself, so the fold is not built again for it
    folds, fold = [], circles._circle_form
    monkeypatch.setattr(kinks, "_CERTIFY_ROUNDS", 0)
    monkeypatch.setattr(fnmodel, "_circle_form", lambda f, r: folds.append(r) or fold(f, r))
    s = proximity(members["orbit_left_m6"].expr, 8.21086325832621)
    assert s.panels > 0 and folds == [8.21086325832621]


def test_a_grid_with_a_folded_circle_runs_in_one_lockstep_call(members, monkeypatch):
    # neither circle of (z - 1)/(z - 2) is closed: at r = 1.5 the line
    # |f| = 1 touches the circle, and at r = 1e200 log|f| is below the
    # rounding of its sums; there its points fold into a series, and still
    # both circles share one quadrature run
    f, runs, quad = members["rat_zero1_pole2"].expr, [], quadrature.adaptive_circles
    assert circles._circle_form(f, 1.5)[0] == f.divisor
    assert circles._circle_form(f, 1e200)[0] != f.divisor

    def spy(g, cuts, count, *args, **kwargs):
        runs.append(count)
        return quad(g, cuts, count, *args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_circles", spy)  # adaptive_circle's too
    monkeypatch.setattr(nevanlinna, "adaptive_circles", spy)
    samples = nevanlinna.proximities(f, [1.5, 1e200])
    assert runs == [2] and all(s.panels > 0 for s in samples)


def test_closed_form_samples_count_the_search_and_plan_no_fold_for_jensen(
        members, monkeypatch):
    # a closed-form mean has no panels, the search's and the certificate's
    # nodes as its evaluations, and a quad_err at the rounding level; a
    # circle whose sign the divisor bound decides, or on which |f| is
    # constant, evaluates nothing and plans no fold
    nodes, folds = [], []
    slope, fold = circles._log_slope, circles._circle_form
    monkeypatch.setattr(kinks, "_log_slope",
                        lambda form, r, theta: nodes.append(theta.size) or slope(form, r, theta))
    monkeypatch.setattr(fnmodel, "_circle_form", lambda f, r: folds.append(r) or fold(f, r))
    cases = [("rat_zero1_pole2", 3.78921641565047, True), ("orbit_left_m6", 8.21086325832621, True),
             ("orbit_right_m6", 5.0, False), ("rat_pole0", 0.5, False),
             ("exp_z3", 7.0, False), ("exp_z2", 3.0, False)]
    for key, r, searched in cases:
        nodes.clear()
        folds.clear()
        s = proximity(members[key].expr, r)
        assert s.panels == 0 and s.evaluations == sum(nodes), key
        assert type(s.m) is float and type(s.quad_err) is float, key  # the CLI prints repr
        assert (s.evaluations > 0) == searched and (bool(folds) <= searched), key
        assert 0.0 <= s.quad_err <= 1e-11 * (1.0 + s.m), key  # rounding, not tolerance
    assert proximity(members["orbit_right_m6"].expr, 5.0).quad_err > 0.0


@pytest.mark.parametrize("atol, rtol", [(math.nan, 1e-8), (math.inf, 1e-8), (0.0, 0.0), (-1.0, 1e-8)])
def test_tolerances_are_checked_before_a_closed_form(members, atol, rtol):
    for key in ("exp_z", "orbit_right_m6", "rat_pole0"):
        with pytest.raises(ValueError, match="tolerances"):
            proximity(members[key].expr, 2.0, atol=atol, rtol=rtol)


P_EIGEN = Polynomial((3.0, 1.0 - 2.0j, 1.0))  # z^2 + (1 - 2i) z + 3


@pytest.mark.parametrize("r", [2.5, 4.0, 6.0])
def test_proximity_of_exp_of_a_nonmonomial_against_mpmath(r):
    # Re p on the circle is a trigonometric polynomial whose zeros come from
    # eigenvalues; mpmath finds them from its own sign scan and integrates
    # max(Re p, 0) between them
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rr = mpmath.mpf(r)

        def re_p(t):
            z = rr * mpmath.expj(t)
            return mpmath.re(z * z + mpmath.mpc(1, -2) * z + 3)

        grid = [2 * mpmath.pi * k / 96 for k in range(97)]
        cuts = [grid[0], grid[-1]] + [mpmath.findroot(re_p, (a, b), solver="anderson")
                                      for a, b in zip(grid, grid[1:]) if re_p(a) * re_p(b) < 0]
        ref = float(mpmath.quad(lambda t: max(re_p(t), 0), sorted(cuts)) / (2 * mpmath.pi))
    assert len(cuts) > 2
    s = proximity(ExpPoly(P_EIGEN), r)
    assert s.panels == 0 and s.evaluations == 0
    assert abs(s.m - ref) <= 1e-3 * max(1e-9, 1e-8 * ref)


def _mp_exp_minus_1_mean(mpmath, coeffs, r, zero_angles, depth=50.0, n=1 << 16):
    """m(r, e^{p(z)} - 1) for p with these coefficients (lowest first) by
    mpmath at 30 digits.  |e^w - 1| > 1 exactly where e^{Re w} > 2 cos(Im w),
    so the kinks are bracketed by that sign on n + 1 angles, in double, and
    polished by ``findroot``; the integral is cut there, at the given angles
    of the zeros near the circle and where Re w = -depth, below which
    log+|f| <= e^-depth is left out."""
    theta = np.linspace(0.0, 2 * math.pi, n + 1)
    w = np.polyval(coeffs[::-1], r * np.exp(1j * theta))
    live = w.real > -depth
    with np.errstate(invalid="ignore"):
        pos = ~(np.cos(w.imag) > 0) | (w.real > np.log(2 * np.cos(w.imag)))
    with mpmath.workdps(30):
        c = [mpmath.mpf(x) for x in coeffs[::-1]]

        def w_at(t):
            return mpmath.polyval(c, r * mpmath.expj(t))

        def h(t):  # of the sign of log|f|
            v = w_at(t)
            return mpmath.exp(v.real) - 2 * mpmath.cos(v.imag)

        kinks = [mpmath.findroot(h, (theta[i], theta[i + 1]), solver="anderson")
                 for i in np.flatnonzero(live[:-1] & live[1:] & (pos[:-1] != pos[1:]))]
        edges = [mpmath.mpf(theta[i]) for i in np.flatnonzero(live[:-1] != live[1:])]
        cuts = sorted(set(kinks + edges + [mpmath.mpf(t) for t in zero_angles]
                          + [mpmath.mpf(0), 2 * mpmath.pi]))
        total = mpmath.mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            if w_at(mid).real > -depth and h(mid) > 0:
                total += mpmath.quad(lambda t: mpmath.log(abs(mpmath.exp(w_at(t)) - 1)), [lo, hi])
        return float(total / (2 * mpmath.pi)), len(kinks)


@pytest.mark.parametrize("key, coeffs, r, zero_angles, kinks", [
    # the radius where the uncut quadrature missed by 6.4 tolerances
    ("expz_minus_1", (0.0, 1.0), 0.970, (), 2),
    # four zeros of e^{z^2} - 1 lie 2.3e-4 off this circle in log-distance
    ("expz2_minus_1", (0.0, 0.0, 1.0), 30.911, [k * math.pi / 4 for k in (1, 3, 5, 7)], 4),
])
def test_proximity_of_exp_minus_1_against_mpmath(members, key, coeffs, r, zero_angles, kinks):
    mpmath = pytest.importorskip("mpmath")
    ref, found = _mp_exp_minus_1_mean(mpmath, coeffs, r, zero_angles)
    assert found == kinks
    s = proximity(members[key].expr, r)
    assert s.r_used == r and s.panels > 0
    assert abs(s.m - ref) <= max(1e-9, 1e-8 * ref)


def test_proximity_of_a_sign_decided_orbit_circle_against_mpmath(members):
    # the divisor bound keeps log|f| of orbit_right_m6 above 0 on |z| = 5, so
    # the mean is Jensen's; mpmath integrates log|f| over the circle itself
    mpmath = pytest.importorskip("mpmath")
    f, r = members["orbit_right_m6"].expr, 5.0
    assert circles._divisor_sign(f, r) == 1
    with mpmath.workdps(20):
        pts = [(mpmath.mpc(p.real, p.imag), m) for p, m in f.divisor.entries]
        start = mpmath.log(abs(mpmath.mpc(f.scale.real, f.scale.imag)))
        o = f.divisor.origin_order

        def log_f(t):
            z = r * mpmath.expj(t)
            return start + o * mpmath.log(r) + mpmath.fsum(m * mpmath.log(abs(z - p)) for p, m in pts)

        ref = float(mpmath.quad(log_f, mpmath.linspace(0, 2 * mpmath.pi, 5)) / (2 * mpmath.pi))
    s = proximity(f, r)
    assert s.panels == 0 and s.evaluations == 0
    assert abs(s.m - ref) <= 1e-3 * max(1e-9, 1e-8 * ref)


def test_proximity_of_identity_function_is_log_r():
    ident = RationalFromDivisor(1.0, Divisor((), 1))
    for r in (2.0, 10.0):
        s = proximity(ident, r)
        assert s.m == pytest.approx(math.log(r), abs=1e-9)


def test_proximity_of_reciprocal_below_radius_one():
    # inside the unit disc 1/|z| exceeds 1, so the mean of log+ is log(1/r)
    s = proximity(INV_Z, 0.5)
    assert s.m == pytest.approx(math.log(2.0), abs=1e-9)


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        proximity(EXP_Z, 0.0)
    with pytest.raises(ValueError):
        counting(Divisor((), 1), -1.0)


def test_counting_and_n_count_reject_a_nan_radius():
    d = Divisor.build([(1, 1), (2, -1)], 1)
    for count in (counting, n_count):
        with pytest.raises(ValueError):
            count(d, math.nan)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------


def test_counting_hand_value():
    d = Divisor.build([(1.0, 2), (3.0, -1)])
    assert counting(d, 2.0, "zeros") == pytest.approx(2.0 * math.log(2.0))
    assert counting(d, 4.0, "poles") == pytest.approx(math.log(4.0 / 3.0))
    assert n_count(d, 2.0, "zeros") == 2
    assert n_count(d, 2.0, "poles") == 0


points = st.builds(complex,
                   st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-3.0, max_value=3.0)).filter(
                       lambda w: abs(w) > 1e-2)


@given(st.lists(st.tuples(points, st.integers(min_value=1, max_value=3)), max_size=6),
       st.floats(min_value=1.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_counting_monotone_in_radius(pairs, r, dr):
    d = Divisor.build(pairs)
    assert counting(d, r + dr, "zeros") >= counting(d, r, "zeros") - 1e-12


@given(st.lists(st.tuples(points, st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_counting_dominates_scaled_count(pairs):
    # n(r) log(R/r) <= N(R) - N(r) for R > r: integrating a nondecreasing
    # step function against dt/t
    d = Divisor.build(pairs)
    r, R = 1.5, 4.0
    lhs = n_count(d, r, "zeros") * math.log(R / r)
    rhs = counting(d, R, "zeros") - counting(d, r, "zeros")
    assert lhs <= rhs + 1e-9


def _counting_of_a_restricted_divisor(d, r, kind):
    """N(r) as ``counting`` formed it from a restricted, signed divisor."""
    d = d.restrict(r).signed(kind)
    start = d.origin_order * math.log(r) if d.origin_order else 0.0
    terms = map(operator.mul, d.mults.tolist(), map(math.log, (r / d.moduli).tolist()))
    return functools.reduce(operator.add, terms, start)


def test_counting_reads_the_columns_bit_for_bit(members):
    left = build_orbit_function(figure_family("left", 30))
    right = build_orbit_function(figure_family("right", 60))
    # the sweep workload's functions on its radius ranges
    grids = [(left, log_radii(1.0, 3e3, 16)), (right, log_radii(1.0, 1e12, 16)),
             *((members[key].expr, log_radii(0.5, 1e3, 8))
               for key in ("exp_exp_z", "exp_z3", "rat_pole0"))]
    cases = [(f.divisor_in_disc(r), float(r)) for f, radii in grids for r in radii]
    d = left.divisor_in_disc(30.0)
    cases += [(divisor.EMPTY_DIVISOR, 2.0), (Divisor((), 3), 0.5), (Divisor((), -2), 7.0),
              *((d, float(mod)) for mod in d.moduli[[0, 17, -1]])]  # radii on a point
    for d, r in cases:
        for kind in ("zeros", "poles"):
            got, want = counting(d, r, kind), _counting_of_a_restricted_divisor(d, r, kind)
            assert got.hex() == want.hex(), (r, kind)
    with pytest.raises(ValueError, match="kind must be"):
        counting(d, 1.0, "both")


def test_counting_additive_over_merge():
    d1 = Divisor.build([(1.0, 1)])
    d2 = Divisor.build([(2.0j, 3)])
    merged = d1.merge(d2)
    r = 3.0
    assert counting(merged, r, "zeros") == pytest.approx(
        counting(d1, r, "zeros") + counting(d2, r, "zeros"))


# ---------------------------------------------------------------------------
# Jensen identity and first-main-theorem balance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["rat_zero1_pole2", "rat_zero1_polem1",
                                 "expz_minus_1", "expz2_minus_1",
                                 "orbit_left_m6"])
def test_jensen_identity(members, key):
    expr = members[key].expr
    for r in (3.0, 6.0):
        lhs, rhs = jensen_lhs_rhs(expr, r)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_fmt_balance_is_bounded_for_rationals(members):
    # f = (z-1)/(z-2), a = 3: T(r, f) ~ log(r/2) while the a-point sits at
    # 5/2, so T(r, 1/(f-a)) ~ log(r/2.5) and the gap converges to log(5/4)
    expr = members["rat_zero1_pole2"].expr
    deltas = [fmt_delta(expr, 3.0, r).delta for r in (5.0, 20.0, 80.0)]
    assert max(deltas) < 0.5
    assert deltas[-1] == pytest.approx(math.log(1.25), abs=0.01)


def test_fmt_balance_exp(members):
    d = fmt_delta(members["exp_z"].expr, 1.0, 10.0)
    assert d.delta < 1.0  # bounded gap, not growing with T(r) ~ 3.18


def test_fmt_balance_of_a_large_rational_meets_jensen(members):
    # f - a, with 36 a-points solved in product form, obeys Jensen's formula
    # T(r, 1/(f - a)) = T(r, f - a) - log|f(0) - a|
    f, a = members["orbit_left_m6"].expr, 0.3 + 0.2j
    shifted = subtract(f, Const(a))
    for r in (2.0, 10.0, 40.0):
        got = fmt_delta(f, a, r).T_shifted
        want = characteristic(shifted, r).T - math.log(abs(f.eval(0.0) - a))
        assert got == pytest.approx(want, abs=1e-8), r


def test_fmt_balance_without_a_rewrite_raises_before_any_circle_mean(members, monkeypatch):
    # exp(e^z) - 1 has no rewrite into the family: no circle mean is run
    calls, real = [], nevanlinna.proximities

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nevanlinna, "proximities", spy)
    with pytest.raises(core.OpaqueExpr, match="Exp - Const has no rewrite"):
        fmt_delta(members["exp_exp_z"].expr, 1.0, 2.0)
    assert calls == []


def test_characteristic_of_an_entire_expression_reads_no_divisor(members, monkeypatch):
    # an entire expression has no poles: N = 0.0, what counting gives, bit for bit
    keys, radii = ("exp_z3", "exp_exp_z", "expz_minus_1"), (0.5, 3.0, 7.0)
    for key in keys:
        for r in radii:
            N = counting(members[key].expr.divisor_in_disc(r), r, "poles")
            assert type(N) is float and N == 0.0 and math.copysign(1.0, N) == 1.0
    monkeypatch.setattr(nevanlinna, "counting", lambda *args: pytest.fail("counting called"))
    for key in keys:
        for r in radii:
            s = characteristic(members[key].expr, r)
            assert type(s.N) is float and math.copysign(1.0, s.N) == 1.0
            assert s.N == 0.0 and s.T == s.m


# ---------------------------------------------------------------------------
# contour nudging
# ---------------------------------------------------------------------------


# radii of log_radii(0.5, 40, 120) where expz2_minus_1 missed a 1000x tighter
# run by 1.2x-10x when its ends were plain edges
@pytest.mark.parametrize("r", [1.0834513468817937, 2.026186474430008,
                               2.102189026760176, 2.181042445994056])
def test_unknown_kinks_keep_the_ends_seeded(members, monkeypatch, r):
    # e^{z^2} - 1 times the constant 1 has the same log|f|, and no kink
    # search: its ends are cut as a singularity on the circle, and the mean
    # meets its tolerance; e^{z^2} - 1 itself is cut at its searched kinks
    f = members["expz2_minus_1"].expr
    orig, seen = nevanlinna.adaptive_circle, []

    def spy(g, cuts, **kw):
        seen.append([tuple(cut) for cut in np.asarray(cuts).tolist()])
        return orig(g, cuts, **kw)

    monkeypatch.setattr(nevanlinna, "adaptive_circle", spy)
    s = proximity(Product(Const(1.0), f), r)
    assert (0.0, 0.0) in seen[0]
    t = proximity(f, r, atol=1e-12, rtol=1e-11)
    assert abs(s.m - t.m) <= max(1e-9, 1e-8 * t.m)
    kinks = f.level_angles([r])[0][0]
    cut = proximity(f, r)
    assert kinks.size and (0.0, 0.0) not in seen[-1]
    assert {(a, math.inf) for a in kinks.tolist()} <= set(seen[-1])
    assert abs(cut.m - t.m) <= max(1e-9, 1e-8 * t.m)


def _dense_kinks(f, r, n=1 << 16):
    """The sign changes of log|f| on |z| = r at n equispaced angles, each
    bisected to the last bit."""
    def up(theta):
        return f._log_mod(r * np.exp(1j * theta)) > 0.0

    theta = np.arange(n) * (core.TWO_PI / n)
    lo = theta[np.flatnonzero(up(theta) != np.roll(up(theta), -1))]
    hi, up_lo = lo + core.TWO_PI / n, up(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = up(mid) == up_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.sort(0.5 * (lo + hi) % core.TWO_PI)


# the four largest radii of log_radii(5, 40, 25), where plain cuts at the
# kinks and band edges of e^{z^2} - 1 missed by 11.9-21.9 tolerances
@pytest.mark.parametrize("r", [30.84421650815882, 33.63585661014858, 36.68016172818685, 40.0])
def test_kinks_near_zeros_are_graded_cuts(members, r):
    # the dense-cut reference: 1000x tighter tolerances, cut at the kinks of
    # 2^16 samples and bisection
    f = members["expz2_minus_1"].expr
    ref = _circle_means(f, [(r, _dense_kinks(f, r), 0)], _logplus(f), 1e-12, 1e-11)[0].value
    assert abs(proximity(f, r).m - ref) <= 1e-9 + 1e-8 * ref
    cuts = f.closed_proximity([r])[0][1]
    angle, dist, _ = nevanlinna._grid_cuts(f, [r], [cuts])
    graded = angle[-cuts.size:], dist[-cuts.size:]  # the kink cuts follow the points'
    assert graded[0].tolist() == cuts.tolist()
    assert graded[1].min() < 0.01  # a zero of e^{z^2} - 1 lies near the circle
    # a reciprocal's near points are poles: its kinks stay plain cuts
    angle, dist, _ = nevanlinna._grid_cuts(Quotient(Const(1.0), f), [r], [cuts])
    assert angle[-cuts.size:].tolist() == cuts.tolist() and (dist[-cuts.size:] == math.inf).all()


def test_divisor_cuts_carry_their_distance_off_the_circle():
    # the points within 10% of |z| = 4 become cuts at their angles, each with
    # |log(|b|/r)|; the point at 1.2 r is left to the quadrature
    r = 4.0
    pts = [(0.95 * r * np.exp(1j), 1), (1.05 * r * np.exp(2j), -2), (1.2 * r * 1j, 1)]
    angle, dist, of = nevanlinna._grid_cuts(RationalFromDivisor(1.0, Divisor.build(pts)), [r],
                                            [circles._NO_ANGLES])
    want = [[1.0, -math.log(0.95)], [2.0, math.log(1.05)]]
    assert of.tolist() == [0, 0]
    assert np.array(sorted(zip(angle, dist))) == pytest.approx(np.array(want), rel=1e-12)


def _reference_cuts(expr, r, kinks):
    """One circle's cuts, as the per-circle read built them: the band
    points, then the kinks, or (0, 0) where the kinks are unknown."""
    div = expr.divisor_in_disc(r * (1.0 + circles.CIRCLE_BAND))
    near = np.abs(div.moduli - r) <= circles.CIRCLE_BAND * r
    b = div.points[near]
    angle, off = np.angle(b), np.log(np.abs(b) / r)
    cuts = list(zip((angle % core.TWO_PI).tolist(), np.abs(off).tolist()))
    if kinks is None:
        return cuts + [(0.0, 0.0)]
    zero = div.mults[near] > 0
    if kinks.size and zero.any():
        gap = (angle[zero] - kinks[:, None] + math.pi) % core.TWO_PI - math.pi
        dist = np.hypot(gap, off[zero]).min(axis=1)
        return cuts + list(zip(kinks.tolist(), dist.tolist()))
    return cuts + [(a, math.inf) for a in kinks.tolist()]


def _hex_cuts(cuts):
    return [(float(a).hex(), float(d).hex()) for a, d in cuts]


GRID_CUT_CASES = {
    "smt 1": (lambda m: Quotient(Const(1.0), subtract(EXP_Z2, Const(1.0))),
              [float(r) for r in log_radii(5.0, 40.0, 25)], "searched"),
    "smt -1": (lambda m: Quotient(Const(1.0), subtract(EXP_Z2, Const(-1.0))),
               [float(r) for r in log_radii(5.0, 40.0, 25)], "searched"),
    "char grid": (lambda m: m["expz2_minus_1"].expr,
                  [float(r) for r in log_radii(5.0, 40.0, 25)], "searched"),
    "kinks given": (lambda m: m["expz2_minus_1"].expr, [30.911], "searched"),
    "kinks None": (lambda m: m["expz2_minus_1"].expr, [30.911], None),
    "mixed": (lambda m: m["expz2_minus_1"].expr, [30.911, 12.0, 5.0],
              [None, np.array([0.1, 3.0]), circles._NO_ANGLES]),
}


@pytest.mark.parametrize("case", sorted(GRID_CUT_CASES))
def test_grid_cuts_equal_the_per_circle_reads(members, case):
    """One divisor read cuts every circle of a grid bit for bit as a read
    per circle did, each circle's points in column order, then its kinks."""
    make, radii, kinks = GRID_CUT_CASES[case]
    expr = make(members)
    expr.solve_ahead(max(radii) * (1.0 + circles.CIRCLE_BAND))
    radii = [nevanlinna._nudged(expr, r) for r in radii]
    if kinks == "searched":
        kinks = [k for _, k, _ in expr.closed_proximity(radii)]
        assert all(k is not None and k.size for k in kinks)
    elif kinks is None:
        kinks = [None] * len(radii)
    angle, dist, of = nevanlinna._grid_cuts(expr, radii, kinks)
    for c, (r, k) in enumerate(zip(radii, kinks)):
        got = zip(angle[of == c].tolist(), dist[of == c].tolist())
        assert _hex_cuts(got) == _hex_cuts(_reference_cuts(expr, r, k)), r


def test_on_circle_zero_is_nudged():
    f = ExpPoly(Z, 1.0)  # zeros at 2 pi i k
    s = characteristic(f, 2.0 * math.pi)
    assert s.nudged
    assert s.r_used > s.r
    assert math.isfinite(s.T)


def test_off_circle_needs_no_nudge():
    s = characteristic(ExpPoly(Z, 1.0), 5.0)
    assert not s.nudged and s.r_used == 5.0


# ---------------------------------------------------------------------------
# hyper-order estimation
# ---------------------------------------------------------------------------


def test_hyperorder_exact_profiles():
    r = np.exp(np.linspace(math.log(5.0), math.log(40.0), 50))
    est_half = hyperorder_estimate(r, np.exp(np.sqrt(r)))
    assert est_half.varsigma == pytest.approx(0.5, abs=1e-6)
    est_one = hyperorder_estimate(r, np.exp(r))
    assert est_one.varsigma == pytest.approx(1.0, abs=1e-6)


def test_hyperorder_finite_order_clamps_to_zero():
    r = np.exp(np.linspace(math.log(5.0), math.log(40.0), 50))
    est = hyperorder_estimate(r, r ** 2)   # order 2, hyper-order 0
    assert est.clamped and est.varsigma == 0.0


def test_hyperorder_from_toolkit_sweeps(members):
    radii = log_radii(5.0, 30.0, 40)
    tower = [s.T for s in characteristic_sweep(members["exp_exp_z"].expr, radii)]
    est = hyperorder_estimate(radii, tower)
    assert 0.85 <= est.varsigma <= 1.15

    flat = [s.T for s in characteristic_sweep(members["exp_z"].expr, radii)]
    est0 = hyperorder_estimate(radii, flat)
    assert est0.varsigma <= 0.1


def test_hyperorder_input_validation():
    r = np.linspace(1.0, 10.0, 20)
    with pytest.raises(NonMonotone):
        hyperorder_estimate(r[::-1], np.exp(r))
    with pytest.raises(InsufficientGrowth):
        hyperorder_estimate(r, np.full(20, 1.5))   # never reaches e
    with pytest.raises(ValueError):
        hyperorder_estimate(r[:4], np.exp(r[:4]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["radius", "sample"])
def test_hyperorder_rejects_a_non_finite_radius_or_sample(bad, where):
    r = np.linspace(1.0, 10.0, 20)
    T = np.exp(r)
    (r if where == "radius" else T)[7] = bad
    with pytest.raises(ValueError, match="must be finite"):
        hyperorder_estimate(r, T)


# ---------------------------------------------------------------------------
# argument principle
# ---------------------------------------------------------------------------


def test_argument_principle_simple_cases():
    assert argument_principle_count(INV_Z, 2.0) == -1
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 2), (3.0, -1)]))
    assert argument_principle_count(f, 2.0) == 2
    assert argument_principle_count(f, 4.0) == 1


def test_argument_principle_matches_divisor(members):
    for key in ("expz_minus_1", "orbit_right_m6"):
        expr = members[key].expr
        for r in (2.0, 7.0):
            d = expr.divisor_in_disc(r)
            want = d.total("zeros") - d.total("poles")
            assert argument_principle_count(expr, r) == want, (key, r)


def test_argument_principle_through_compound_expressions():
    # e^z - 1 has the zeros 2 pi i k: 1, 3 and 7 of them in |z| < 3, 7 and 20
    one, em1 = Const(1.0), ExpPoly(Z, 1.0)
    for r, count in ((3.0, 1), (7.0, 3), (20.0, 7)):
        assert argument_principle_count(em1, r) == count
        assert argument_principle_count(Quotient(one, em1), r) == -count  # 1/(e^z - 1)
        assert argument_principle_count(Product(EXP_Z2, em1), r) == count  # e^{z^2} (e^z - 1)
    # (z - 2)(z - 1/2) / (z - 2): the leaves' points at 2 cancel in the tree's
    # divisor, and on |z| = 2 the count still nudges off them
    f = Product(RationalFromDivisor(1.0, Divisor.build([(2.0, 1), (0.5, 1)])),
                RationalFromDivisor(1.0, Divisor.build([(2.0, -1)])))
    assert [argument_principle_count(f, r) for r in (1.0, 2.0, 3.0)] == [1, 1, 1]


def test_argument_principle_counts_no_zeros_of_exp_exp_z(members, monkeypatch):
    # e^{e^z} has no zeros or poles, so it counts 0 by construction: its
    # integrand Re(z u'), u = e^z, grows like r e^r, and at r = 20 a
    # quadrature of it needed more panels than MAX_PANELS
    monkeypatch.setattr(nevanlinna, "_circle_means", None)  # no contour is integrated
    tower = members["exp_exp_z"].expr
    for f in (tower, Exp(Polynomial((0j, 0j, 1.0))), Product(tower, Quotient(Const(2.0), tower))):
        assert argument_principle_count(f, 20.0) == 0


# the contour-count radii of the benchmark's sweep on seeds 3, 7 and 4242
SWEEP_COUNT_RADII = {
    ("left", 30): (2.4637809487369093, 7.105909920517207, 10.078659295099346,
                   38.9656314178639, 64.20141667812175, 176.26106157566622,
                   524.6512578025684, 2941.357634676381,
                   1.0843954356733176, 3.1107786987856114, 10.594008325054357,
                   45.09804782186688, 128.12800406899436, 304.6506289359066,
                   1053.177035731571, 2564.046795687486,
                   2.335534017737827, 5.076920160116082, 16.15432381582416,
                   20.78241701794241, 123.00857694868593, 267.3501747232362,
                   566.2859182512241, 1529.3407565891252),
    ("right", 60): (6.403868601299425, 646.8603902201833, 5396.727593856682,
                    272639.4065702617, 13596473.972298713, 273665737.1212176,
                    6015715801.214959, 361600593566.87164,
                    2.562750137824812, 190.95471856786222, 8006.473152375364,
                    44608.46153462189, 2874469.096267894, 626473986.7965541,
                    10981613792.967705, 363891471296.7554,
                    5.346580427574314, 301.3207764471879, 1597.0424542781516,
                    96217.47107454807, 3353553.2429184774, 113312643.34718749,
                    1556908757.8754451, 81888856514.00418),
}


@pytest.mark.parametrize("family", sorted(SWEEP_COUNT_RADII))
def test_argument_principle_through_the_fold_matches_divisor(family, monkeypatch):
    # every count is a certified winding number: no quadrature runs
    expr = build_orbit_function(figure_family(*family))
    monkeypatch.setattr(nevanlinna, "_circle_means", None)
    for r in SWEEP_COUNT_RADII[family]:
        assert circles._circle_form(expr, r)[0] != expr.divisor
        d = expr.divisor_in_disc(r)
        assert argument_principle_count(expr, r) == d.total("zeros") - d.total("poles"), r


def test_the_corpus_rationals_count_by_certified_winding(members, monkeypatch):
    # acceptance criterion 11's radii: every rational count is certified
    monkeypatch.setattr(nevanlinna, "_circle_means", None)
    for key, member in members.items():
        f = member.expr
        if not isinstance(f, RationalFromDivisor):
            continue
        top = 5.0 if key.startswith("rat_") else 1.2 * float(f.divisor.moduli.max())
        for r in log_radii(0.37, top, 20):
            d = f.divisor_in_disc(r)
            assert argument_principle_count(f, r) == d.total("zeros") - d.total("poles"), (key, r)


def _stress_rational(rng):
    """A radius r and a rational of 3-39 points with multiplicities +-1 or
    +-2, each point 1e-7 r to 0.3 r off |z| = r, log-uniformly, on either
    side, at a uniform angle."""
    r = math.exp(rng.uniform(math.log(1e-2), math.log(1e8)))
    n = int(rng.integers(3, 40))
    off = np.exp(rng.uniform(math.log(1e-7), math.log(0.3), n)) * rng.choice([-1.0, 1.0], n)
    points = r * (1.0 + off) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    mults = rng.choice([-2, -1, 1, 2], n)
    scale = complex(rng.normal(), rng.normal())
    return r, RationalFromDivisor(scale, Divisor.build(zip(points.tolist(), mults.tolist())))


def test_random_rationals_count_by_certified_winding(monkeypatch):
    # close points would use up flat bisection rounds; the certificate's
    # first intervals are graded toward them, and no count falls back
    monkeypatch.setattr(nevanlinna, "_circle_means", None)
    rng = np.random.default_rng(272)
    for i in range(272):
        r, f = _stress_rational(rng)
        d = f.divisor_in_disc(r)
        assert argument_principle_count(f, r) == d.total("zeros") - d.total("poles"), i


def test_an_uncertified_winding_falls_back_to_the_quadrature(monkeypatch):
    # with no bisection allowed this circle's winding is not certified, and
    # the quadrature of Re(z f'/f) gives the same integer
    expr, r = build_orbit_function(figure_family("left", 30)), 7.105909920517207
    d = expr.divisor_in_disc(r)
    want = d.total("zeros") - d.total("poles")
    assert argument_principle_count(expr, r) == want
    runs, means = [], nevanlinna._circle_means
    monkeypatch.setattr(kinks, "_CERTIFY_ROUNDS", 0)
    monkeypatch.setattr(nevanlinna, "_circle_means", lambda *a: runs.append(a) or means(*a))
    assert kinks._winding_count(expr, circles._circle_form(expr, r), r)[0] is None
    assert argument_principle_count(expr, r) == want and len(runs) == 1


def test_samples_keep_the_quadrature_counts(members, monkeypatch):
    # exp(z) - 1 has no closed-form mean: its sample carries the quadrature's counts
    seen, quad = [], nevanlinna.adaptive_circle
    monkeypatch.setattr(nevanlinna, "adaptive_circle",
                        lambda *a, **k: seen.append(quad(*a, **k)) or seen[-1])
    s = characteristic(members["expz_minus_1"].expr, 3.0)
    assert (s.panels, s.evaluations) == (seen[0].panels, seen[0].evaluations)
    assert s.evaluations > 0 and s.panels > 0


# the smt workload's means 1/(e^{z^2} -+ 1) at its tolerances, and a char sweep
LOCKSTEP_SWEEPS = {
    "smt 1": (lambda m: Quotient(Const(1.0), subtract(EXP_Z2, Const(1.0))), 1e-8, 1e-7),
    "smt -1": (lambda m: Quotient(Const(1.0), subtract(EXP_Z2, Const(-1.0))), 1e-8, 1e-7),
    "char expz2_minus_1": (lambda m: m["expz2_minus_1"].expr, 1e-9, 1e-8),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_SWEEPS))
def test_proximities_match_per_radius_runs(members, monkeypatch, case):
    """The lockstep run over a grid gives each circle's mean within 1e-3 of
    its tolerance of a lone run, with the same panels and evaluations."""
    make, atol, rtol = LOCKSTEP_SWEEPS[case]
    expr, radii = make(members), [float(r) for r in log_radii(5.0, 40.0, 25)]
    runs, lockstep = [], nevanlinna.adaptive_circles
    monkeypatch.setattr(nevanlinna, "adaptive_circles",
                        lambda *a, **k: runs.append(a[2]) or lockstep(*a, **k))
    batch = nevanlinna.proximities(expr, radii, atol=atol, rtol=rtol)
    assert runs == [len(radii)]  # every circle in one lockstep run
    for r, s in zip(radii, batch):
        lone = proximity(expr, r, atol=atol, rtol=rtol)
        assert abs(s.m - lone.m) <= 1e-3 * max(atol, rtol * abs(lone.m)), r
        assert (s.panels, s.evaluations, s.r_used) == (lone.panels, lone.evaluations, lone.r_used)
    if case.startswith("char"):
        sweep = characteristic_sweep(expr, radii, atol=atol, rtol=rtol)
        assert [s.m for s in sweep] == [s.m for s in batch]


def test_proximities_check_every_radius_first(members, monkeypatch):
    nudged = []
    monkeypatch.setattr(nevanlinna, "_nudged", lambda e, r: nudged.append(r) or r)
    with pytest.raises(ValueError, match="positive"):
        nevanlinna.proximities(members["expz_minus_1"].expr, [2.0, 3.0, -1.0])
    assert not nudged


def test_log_radii_shape_and_bounds():
    g = log_radii(2.0, 32.0, 5)
    assert g[0] == pytest.approx(2.0) and g[-1] == pytest.approx(32.0)
    assert np.all(np.diff(np.log(g)) > 0)
    with pytest.raises(ValueError):
        log_radii(5.0, 2.0)
    with pytest.raises(ValueError):
        log_radii(2.0, 32.0, 0)
    for ends in ((1.0, math.inf), (math.nan, 4.0), (-math.inf, 4.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="need a finite rmin and rmax"):
            log_radii(*ends)
