"""Inequality harnesses: explicit constants, sweeps and measure bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nevlab import (
    BoundConfig,
    Const,
    Divisor,
    ExpPoly,
    Polynomial,
    PolyPair,
    Quotient,
    RationalFromDivisor,
    asym_ratio,
    borel_closed_form,
    borel_probe,
    first_stable_radius,
    growth_lemma_probe,
    k_constant,
    lemma1_check,
    pestimate_check,
    smt_check,
)
from nevlab import boundslab, fnmodel
from nevlab.boundslab import BoundReport
from nevlab.fnmodel import (
    GrowthConditionError,
    IdenticalComposition,
    InsufficientGrowth,
    NonMonotone,
    QuadratureFailure,
    TWO_PI,
    compose_poly,
    subtract,
)
from nevlab.nevanlinna import _circle_means, _logplus, log_radii, proximities

Z = Polynomial((0j, 1.0))
Z_PLUS_1 = Polynomial((1.0, 1.0))
Z2 = Polynomial((0j, 0j, 1.0))
Z2_PLUS_Z = Polynomial((0j, 1.0, 1.0))


def rational(zeros, poles):
    pairs = [(z, 1) for z in zeros] + [(p, -1) for p in poles]
    return RationalFromDivisor(1.0, Divisor.build(pairs))


# ---------------------------------------------------------------------------
# configuration and constants
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(alpha=1.0)
    with pytest.raises(ValueError):
        BoundConfig(delta=0.0)
    with pytest.raises(ValueError):
        BoundConfig(delta=1.0)


def test_polypair_build_rules():
    with pytest.raises(ValueError):
        PolyPair.build(Z2, Z)                      # degree mismatch
    with pytest.raises(ValueError):
        PolyPair.build(Z2, Polynomial((0j, 0j, 2.0)))  # leading mismatch
    with pytest.raises(ValueError):
        PolyPair.build(Polynomial((1.0,)), Polynomial((1.0,)))
    pair = PolyPair.build(Z2_PLUS_Z, Z2)
    assert pair.n == 2 and pair.c == 1.0
    assert pair.subleading_sum == 2.0              # 1 + |1| + |0|


def test_k_constant_documented_values():
    cfg = BoundConfig(alpha=2.0, delta=0.5)
    assert k_constant(cfg, PolyPair.build(Z_PLUS_1, Z)) == pytest.approx(1984.0)
    assert k_constant(cfg, PolyPair.build(Z, Z)) == pytest.approx(992.0)


def test_k_constant_scale_law():
    # doubling |c| multiplies K by 2^(-delta/n)
    cfg = BoundConfig(alpha=2.0, delta=0.5)
    base = k_constant(cfg, PolyPair.build(Polynomial((1.0, 1.0)), Polynomial((0j, 1.0))))
    doubled = k_constant(cfg, PolyPair.build(Polynomial((1.0, 2.0)), Polynomial((0j, 2.0))))
    assert doubled == pytest.approx(base * 2.0 ** -0.5)


# ---------------------------------------------------------------------------
# circle integral of a negative power
# ---------------------------------------------------------------------------


def test_pestimate_closed_form_monomial():
    # p = z: |p| = r exactly, lhs = 2 pi r^{-gamma}, rhs doubles it at gamma=1/2
    rep = pestimate_check(Z, 0.5, 4.0)
    assert rep.lhs == pytest.approx(math.pi, rel=1e-9)
    assert rep.rhs == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert rep.passed


def test_pestimate_off_circle_oracle():
    # independently computed with mpmath: integral of |2e^{it}-1|^{-1/2}
    rep = pestimate_check(Polynomial((-1.0, 1.0)), 0.5, 2.0)
    assert rep.lhs == pytest.approx(4.5202281879712916, rel=1e-7)
    assert rep.passed


def test_pestimate_roots_on_the_circle():
    # (z-1)(z+1) at r=1: two singular angles, still integrable and bounded
    rep = pestimate_check(Polynomial.from_roots([1.0, -1.0]), 0.9, 1.0)
    assert rep.lhs == pytest.approx(7.1283328107215635, rel=1e-6)
    assert rep.passed


def test_pestimate_validation():
    with pytest.raises(ValueError):
        pestimate_check(Z, 1.0, 2.0)
    with pytest.raises(ValueError):
        pestimate_check(Z, 0.5, 0.0)
    with pytest.raises(ValueError):
        pestimate_check(Polynomial((3.0,)), 0.5, 1.0)


root_pts = st.builds(complex,
                     st.floats(min_value=-2.0, max_value=2.0),
                     st.floats(min_value=-2.0, max_value=2.0))


@given(st.lists(root_pts, min_size=1, max_size=4),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_pestimate_holds_for_random_inputs(roots, gamma, r):
    # A root sitting on the contour with gamma/deg past ~1/2 puts the
    # integrable singularity beyond what panel refinement can resolve in
    # doubles; the checker refuses with QuadratureFailure instead of
    # guessing, and a refusal carries no verdict on the inequality.
    try:
        rep = pestimate_check(Polynomial.from_roots(roots), gamma, r)
    except QuadratureFailure:
        assume(False)
    assert rep.passed, (roots, gamma, r, rep.margin)


# ---------------------------------------------------------------------------
# composition proximity bound
# ---------------------------------------------------------------------------


def test_lemma1_constant_ratio_case():
    # f = e^z, omega = z+1, phi = z: the quotient is the constant e, so the
    # left side is exactly 1 while the right side decays like r^{-1/2} T(2r)
    cfg = BoundConfig(alpha=2.0, delta=0.5)
    pair = PolyPair.build(Z_PLUS_1, Z)
    reports = lemma1_check(ExpPoly(Z), pair, cfg, [1.0, 4.0, 16.0])
    for rep in reports:
        assert rep.lhs == pytest.approx(1.0, abs=1e-7)
        assert rep.meta["K"] == pytest.approx(1984.0)
        assert rep.passed
    assert first_stable_radius(reports) == 1.0


def test_lemma1_origin_reduction_is_recorded():
    f = rational([1.0], [-1.0])        # f(0) = -1, no reduction
    pair = PolyPair.build(Z2_PLUS_Z, Z2)
    cfg = BoundConfig()
    rep = lemma1_check(f, pair, cfg, [3.0])[0]
    assert rep.meta["origin_reduced"] == 0

    g = RationalFromDivisor(1.0, Divisor((), 1))   # plain z: zero at origin
    rep2 = lemma1_check(g, pair, cfg, [3.0])[0]
    assert rep2.meta["origin_reduced"] == 1


def test_lemma1_pushout_radius_meta():
    pair = PolyPair.build(Z_PLUS_1, Z)
    cfg = BoundConfig(alpha=2.0, delta=0.5)
    rep = lemma1_check(ExpPoly(Z), pair, cfg, [2.0])[0]
    # (alpha+1)(|c| r + (|p_0|+1)... ) / 2 with n=1: 1.5 * (2 + 2) = 6
    assert rep.meta["s"] == pytest.approx(1.5 * (2.0 + 2.0))


def test_first_stable_radius_none_when_tail_fails():
    mk = lambda r, ok: BoundReport(r=r, lhs=0.0, rhs=0.0, margin=0.0, passed=ok)
    assert first_stable_radius([mk(1, True), mk(2, False), mk(3, True)]) == 3
    assert first_stable_radius([mk(1, True), mk(2, False)]) is None
    assert first_stable_radius([]) is None


# ---------------------------------------------------------------------------
# characteristic ratio asymptotics
# ---------------------------------------------------------------------------


def test_asym_identity_composition():
    radii = np.linspace(5.0, 12.0, 8)
    samples = asym_ratio(ExpPoly(Z), Z, radii)
    for s in samples:
        assert s.ratio == pytest.approx(1.0, abs=1e-9)


def test_asym_exp_with_quadratic():
    radii = np.exp(np.linspace(math.log(5.0), math.log(20.0), 8))
    samples = asym_ratio(ExpPoly(Z), Z2_PLUS_Z, radii)
    assert abs(samples[-1].ratio - 1.0) < 0.1


def test_asym_rejects_fast_growth():
    from nevlab import Exp
    tower = Exp(Z)
    with pytest.raises(GrowthConditionError):
        asym_ratio(tower, Z2_PLUS_Z, list(np.linspace(2.0, 4.0, 12)))


# ---------------------------------------------------------------------------
# deficiency-sum inequality
# ---------------------------------------------------------------------------


def test_smt_rejects_identical_compositions():
    pair = PolyPair.build(Z, Z)
    with pytest.raises(IdenticalComposition):
        smt_check(ExpPoly(Z), pair, [1.0, -1.0], 0.05, [5.0, 6.0])


def test_smt_rejects_degenerate_targets():
    pair = PolyPair.build(Z2_PLUS_Z, Z2)
    with pytest.raises(ValueError):
        smt_check(ExpPoly(Z), pair, [1.0], 0.05, [5.0])
    with pytest.raises(ValueError):
        smt_check(ExpPoly(Z), pair, [1.0, 1.0], 0.05, [5.0])
    with pytest.raises(ValueError):
        smt_check(ExpPoly(Z), pair, [1.0, -1.0], 0.05, [])


@pytest.mark.parametrize("rgrid", [[40.0, 10.0], [10.0, 10.0], [10.0, -5.0], [0.0, 5.0],
                                   [5.0, math.nan], [5.0, math.inf]])
def test_smt_rejects_a_bad_grid_before_evaluating(monkeypatch, rgrid):
    def no_composition(*args):
        raise AssertionError("evaluated before the grid check")

    monkeypatch.setattr(boundslab, "compose_poly", no_composition)
    with pytest.raises(ValueError, match="strictly increasing"):
        smt_check(ExpPoly(Z), PolyPair.build(Z2_PLUS_Z, Z2), [1.0, -1.0], 0.05, rgrid)


def test_smt_passes_on_documented_configuration():
    pair = PolyPair.build(Z2_PLUS_Z, Z2)
    result = smt_check(ExpPoly(Z), pair, [1.0, -1.0], 0.05,
                       np.exp(np.linspace(math.log(5.0), math.log(12.0), 6)))
    assert result.exceptional_logmeasure == 0.0
    assert result.total_logmeasure == pytest.approx(math.log(12.0 / 5.0))
    for rep in result.reports:
        assert rep.passed
        assert rep.meta["N_corr"] >= 0.0


def test_smt_reciprocal_mean_meets_its_tolerance():
    """m(r, 1/(e^{z^2} - 1)) as smt_check finds it on the c05 grid, at
    r = 25.9368, against the quadrature at 1000x tighter tolerances cut
    where |e^{z^2} - 1| = 1, at angles found by 2^16 samples and bisection.
    Uncut at its kinks it read 5.6044e-4 against 6.3108e-4, about 7,000
    tolerances off."""
    atol, rtol = 1e-8, 1e-7  # smt_check's
    grid = [float(r) for r in log_radii(5.0, 40.0, 25)]
    k = 19
    r = grid[k]
    assert round(r, 4) == 25.9368
    recip = Quotient(Const(1.0), subtract(compose_poly(ExpPoly(Z), Z2), Const(1.0)))
    assert recip.rhs == ExpPoly(Z2, 1.0)
    got = proximities(recip, grid, atol=atol, rtol=rtol)[k].m

    def outside(theta):  # |f| > 1
        return recip._log_mod(r * np.exp(1j * theta)) > 0.0

    n = 1 << 16
    theta = np.arange(n) * (TWO_PI / n)
    up = outside(theta)
    lo = theta[np.flatnonzero(up != np.roll(up, -1))]
    hi, up_lo = lo + TWO_PI / n, outside(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = outside(mid) == up_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    kinks = np.sort(0.5 * (lo + hi) % TWO_PI)
    # log|f| keeps its bits deep below |a|, so its sign shows the crossings
    # where |e^{z^2}| < 2^-40 too (856 here, all with Re z^2 < -51); there
    # ||f| - 1| < 1e-22 and they cannot move the mean.  Four lie above.
    kinks = kinks[((r * np.exp(1j * kinks)) ** 2).real > math.log(2.0**-40)]
    assert kinks.size == 4
    ref = _circle_means(recip, [(r, kinks, 0)], _logplus(recip), atol / 1000, rtol / 1000)[0].value
    assert abs(got - ref) <= atol + rtol * abs(ref)


def test_smt_searches_the_kinks_of_each_reciprocal_once_per_grid(monkeypatch):
    # one lockstep band search per target over the whole c05 grid, at the
    # level 1 of 1/(e^{z^2} -+ 1)
    calls, search = [], fnmodel._band_search
    monkeypatch.setattr(fnmodel, "_band_search",
                        lambda *args: calls.append(args) or search(*args))
    grid = [float(r) for r in log_radii(5.0, 40.0, 25)]
    result = smt_check(ExpPoly(Z), PolyPair.build(Z2_PLUS_Z, Z2), [1.0, -1.0], 0.05, grid)
    assert all(rep.passed for rep in result.reports)
    assert [(p, a, level, len(radii)) for p, a, level, radii in calls] == [
        (Z2, 1.0, 1.0, 25), (Z2, -1.0, 1.0, 25)]


def _m_recip_exp_z2_reference(a, r):
    """m(r, 1/(e^{z^2} - a)) for |a| = 1 by mpmath at 30 digits, with no
    nevlab quadrature.  log+|1/f| > 0 needs |e^{z^2} - a| < 1, so
    x = Re z^2 < log 2; where x < -45 it is below -log(1 - e^x) < 3e-20 and
    is left out.  On each of the four arcs where -45 <= r^2 cos 2theta <=
    log 2, the kinks are the sign changes of log|1/f| on 400 samples,
    polished by ``findroot``, and ``mp.quad`` integrates between them."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(30):
        r = mpmath.mpf(r)

        def h(t):  # log|1/f| at r e^{it}
            return -mpmath.log(abs(mpmath.exp((r * mpmath.expj(t)) ** 2) - a))

        hi, lo = (mpmath.acos(x / r**2) / 2 for x in (mpmath.log(2), -45))
        total = mpmath.mpf(0)
        for shift in (0, mp.pi):
            for s, e in ((hi, lo), (mp.pi - lo, mp.pi - hi)):
                t = [s + (e - s) * k / 399 for k in range(400)]
                v = [h(x) for x in t]
                ends = [s] + [mpmath.findroot(h, (t[k], t[k + 1]), solver="illinois")
                              for k in range(399) if (v[k] > 0) != (v[k + 1] > 0)] + [e]
                for u, w in zip(ends, ends[1:]):
                    if h((u + w) / 2) > 0:
                        total += mpmath.quad(h, [u + shift, w + shift])
        return float(total / (2 * mp.pi))


@pytest.mark.parametrize("a, k, want", [(1.0, 19, 6.31083e-4), (-1.0, 21, 3.57414e-4)])
def test_smt_reciprocal_means_meet_mpmath(a, k, want):
    # the two circles of the c05 grid where the uncut quadrature missed by
    # about 7,020 and 3,255 tolerances
    atol, rtol = 1e-8, 1e-7  # smt_check's
    grid = [float(r) for r in log_radii(5.0, 40.0, 25)]
    recip = Quotient(Const(1.0), subtract(compose_poly(ExpPoly(Z), Z2), Const(a)))
    s = proximities(recip, grid, atol=atol, rtol=rtol)[k]
    ref = _m_recip_exp_z2_reference(a, s.r_used)
    assert ref == pytest.approx(want, rel=1e-5)
    assert abs(s.m - ref) <= atol + rtol * ref


# ---------------------------------------------------------------------------
# growth dichotomy probe
# ---------------------------------------------------------------------------


def grid(lo=1.0, hi=200.0, n=120):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def test_growth_probe_finite_measure_profile():
    # the step condition exp(sqrt r) <= 0.9 exp(sqrt(r + r^(1/4))) holds up
    # to r ~ (2 log(1/0.9))^-4 ~ 507 and never again, so the grid must
    # extend well beyond that crossover for the tail windows to empty out
    r = grid(1.0, 1.0e5, 200)
    probe = growth_lemma_probe(r, np.exp(np.sqrt(r)), step_K=1.0, step_mu=0.25,
                               alpha=0.9)
    assert probe.verdict == "consistent-finite-measure"
    assert probe.tail_cauchy
    assert probe.window_increments[-1] < 0.01
    assert 0.0 < probe.logmeasure_F < math.log(600.0)
    assert probe.hyper_slope == pytest.approx(0.5, abs=0.02)


def test_growth_probe_fast_profile_uses_slope():
    r = grid(1.0, 60.0, 100)
    probe = growth_lemma_probe(r, np.exp(r), step_K=1.0, step_mu=0.0, alpha=0.9)
    # e^r <= 0.9 e^{r+1} everywhere: F has full measure, the slope rescues it
    assert not probe.tail_cauchy
    assert probe.hyper_slope == pytest.approx(1.0, abs=0.02)
    assert probe.verdict == "consistent-hyper-slope"


def test_growth_probe_degenerate_below_e():
    r = grid(1.0, 10.0, 20)
    probe = growth_lemma_probe(r, np.full_like(r, 2.0), step_K=1.0,
                               step_mu=0.25, alpha=0.9)
    assert probe.verdict == "degenerate"


def test_growth_probe_validation():
    r = grid(1.0, 10.0, 20)
    with pytest.raises(NonMonotone):
        growth_lemma_probe(r[::-1], np.exp(r), 1.0, 0.25, 0.9)
    with pytest.raises(ValueError):
        growth_lemma_probe(r, np.exp(r), 1.0, 0.25, 1.5)
    with pytest.raises(ValueError):
        growth_lemma_probe(r, np.exp(r), 1.0, 1.0, 0.9)
    falling = np.exp(r)[::-1].copy()
    with pytest.raises(NonMonotone):
        growth_lemma_probe(r, falling, 1.0, 0.25, 0.9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["radius", "sample"])
def test_growth_probe_rejects_a_non_finite_radius_or_sample(bad, where):
    # NaN compares False, so neither the monotone tests nor the T >= e mask saw it
    r = grid(1.0, 12.0, 12)
    T = np.exp(r)
    (r if where == "radius" else T)[5] = bad
    with pytest.raises(ValueError, match="must be finite"):
        growth_lemma_probe(r, T, 1.0, 0.25, 0.9)


# ---------------------------------------------------------------------------
# doubling-set probe
# ---------------------------------------------------------------------------


def test_borel_closed_form_limits():
    assert borel_closed_form(1.0, math.e) == pytest.approx(1.0)
    # monotone toward 1 + 1/log 2 from below
    cap = 1.0 + 1.0 / math.log(2.0)
    v = borel_closed_form(1.0, 1e6)
    assert v < cap
    assert borel_closed_form(1.0, 1e12) > v
    with pytest.raises(InsufficientGrowth):
        borel_closed_form(1.0, 2.0)


@pytest.mark.parametrize("epsilon", [1e-12, 1e-16, 1e-300])
def test_borel_closed_form_keeps_its_digits_for_small_epsilon(epsilon):
    # 1 - (log g)^-eps cancels as a difference; the bound tends to
    # 1 + log(log g) / log 2 as eps -> 0
    limit = 1.0 + math.log(math.log(1e6)) / math.log(2.0)
    assert borel_closed_form(epsilon, 1e6) == pytest.approx(limit, rel=1e-11)


def test_borel_probe_smooth_growth_has_empty_exceptional_set():
    res = borel_probe(ExpPoly(Z), n=1, c=1.0, epsilon=1.0, rmax=60.0,
                      rmin=1.0, count=40)
    assert res.measured_logmeasure == 0.0
    assert res.n_exceptional == 0
    assert res.measured_logmeasure <= res.closed_form_bound


def test_borel_probe_needs_growth():
    tiny = rational([1.0], [2.0])   # T stays under e on this grid
    with pytest.raises(InsufficientGrowth):
        borel_probe(tiny, n=1, c=1.0, epsilon=1.0, rmax=5.0, count=12)


def test_borel_probe_validation():
    with pytest.raises(ValueError):
        borel_probe(ExpPoly(Z), n=1, c=1.0, epsilon=1.0, rmax=1.0, rmin=2.0)
    for eps in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            borel_probe(ExpPoly(Z), n=1, c=1.0, epsilon=eps, rmax=60.0)
