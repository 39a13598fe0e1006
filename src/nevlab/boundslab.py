"""Numerical verification harnesses for the explicit growth inequalities.

Each harness compares an independently computed left side against a closed
form or toolkit-evaluated right side, radius by radius, and reports margins
rather than stopping at the first failure.  Radii where an inequality that
is only claimed outside an exceptional set fails are flagged and their
logarithmic measure is accumulated, so the caller can check the measure
stays finite/small instead of pretending the bound is pointwise.

The harnesses:

* ``pestimate_check``  -- circle integral of a negative power of |p| against
  an explicit closed-form bound;
* ``k_constant`` / ``lemma1_check`` -- proximity of a composition quotient
  f(omega(z))/f(phi(z)) against an explicit-constant multiple of the
  characteristic at a pushed-out radius;
* ``asym_ratio``       -- characteristic ratio T(r, f(omega))/T(|c|r^n, f);
* ``smt_check``        -- second-main-theorem style inequality for the
  composed function with the correction term built from f(omega)-f(phi);
* ``growth_lemma_probe`` -- dichotomy test on sampled growth data;
* ``borel_probe``      -- doubling-set detection with its closed-form
  logarithmic-measure bound.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .fnmodel import (
    CIRCLE_BAND,
    Const,
    Divisor,
    FunctionExpr,
    GrowthConditionError,
    IdenticalComposition,
    InsufficientGrowth,
    NonMonotone,
    OpaqueExpr,
    Polynomial,
    Product,
    Quotient,
    RationalFromDivisor,
    TWO_PI,
    compose_poly,
    field,
    logplus,
    poly_roots,
    record,
    subtract,
)
from .nevanlinna import (
    _origin_leading_logmod,
    characteristic_sweep,
    counting,
    hyperorder_estimate,
    log_radii,
    proximities,
)
from .quadrature import adaptive_circle

# a bound check passes where its margin (rhs - lhs) is at least -PASS_TOL
PASS_TOL = 1e-9
# fixed settings of growth_lemma_probe (hyper-slope tolerance, tail-Cauchy
# threshold, window count) and pestimate_check (absolute tolerance of its
# circle quadrature)
GROWTH_FIT_TOL = 0.1
GROWTH_CAUCHY_TOL = 0.01
GROWTH_WINDOWS = 10
PEST_ATOL = 1e-10


@record
class BoundConfig:
    alpha: float = 2.0
    delta: float = 0.5

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")


@record
class PolyPair:
    """Two polynomials sharing degree and leading coefficient exactly."""

    omega: Polynomial
    phi: Polynomial
    n: int
    c: complex

    @classmethod
    def build(cls, omega: Polynomial, phi: Polynomial) -> "PolyPair":
        if omega.degree < 1 or phi.degree < 1:
            raise ValueError("both polynomials must be nonconstant")
        if omega.degree != phi.degree:
            raise ValueError(
                f"degree mismatch: {omega.degree} vs {phi.degree}"
            )
        if omega.leading != phi.leading:
            raise ValueError("leading coefficients must agree exactly")
        return cls(omega=omega, phi=phi, n=omega.degree, c=omega.leading)

    @property
    def subleading_sum(self) -> float:
        """C = 1 + |p_{n-1}| + |q_{n-1}|, the constant's coefficient input."""
        return 1.0 + abs(self.omega.coeffs[self.n - 1]) + abs(self.phi.coeffs[self.n - 1])

    def pushout_radius(self, cfg: BoundConfig, r: float) -> float:
        """The auxiliary radius used by the boundary-representation step:
        (alpha+1)(|c|r^n + (|p_{n-1}|+1)r^{n-1} + ... + |p_0|)/2."""
        total = abs(self.c) * r**self.n + (abs(self.omega.coeffs[self.n - 1]) + 1.0) * r ** (self.n - 1)
        for j in range(self.n - 2, -1, -1):
            total += abs(self.omega.coeffs[j]) * r**j
        return 0.5 * (cfg.alpha + 1.0) * total


@record
class BoundReport:
    r: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    meta: dict = field(default_factory=dict)


def k_constant(cfg: BoundConfig, pair: PolyPair) -> float:
    """Explicit constant of the composition proximity bound."""
    a, d, n = cfg.alpha, cfg.delta, pair.n
    C = pair.subleading_sum
    num = 8.0 * a * C * (d * (a + 1.0) + n * (6.0 * a + 2.0))
    den = d * (1.0 - d) * abs(pair.c) ** (d / n) * (a - 1.0)
    return num / den


# ---------------------------------------------------------------------------
# circle integral of |p|^{-gamma/deg}
# ---------------------------------------------------------------------------


def pestimate_check(p: Polynomial, gamma: float, r: float,
                    rtol: float = 1e-8) -> BoundReport:
    """Check the closed-form bound on the circle integral of a negative
    fractional power of |p|.

    lhs: integral over [0, 2pi) of |p(r e^{i theta})|^{-gamma/deg p};
    rhs: 2pi / ((1-gamma) |lead|^{gamma/deg p} r^gamma), valid for every
    r > 0.  Roots near the contour become quadrature panel cuts, each with
    its distance |log(|w|/r)| off the circle; the singularities are
    integrable because gamma < 1.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0,1)")
    if r <= 0:
        raise ValueError("radius must be positive")
    if p.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    expo = gamma / p.degree
    roots = poly_roots(p)
    cuts = [(math.atan2(w.imag, w.real) % TWO_PI, abs(math.log(abs(w) / r)))
            for w in roots if abs(abs(w) - r) <= CIRCLE_BAND * r]

    def integrand(theta: np.ndarray) -> np.ndarray:
        z = r * np.exp(1j * theta)
        with np.errstate(divide="ignore"):
            return np.exp(-expo * np.log(np.abs(p(z))))

    res = adaptive_circle(integrand, cuts, atol=PEST_ATOL, rtol=rtol)
    rhs = TWO_PI / ((1.0 - gamma) * abs(p.leading) ** expo * r**gamma)
    margin = rhs - res.value
    return BoundReport(r=r, lhs=res.value, rhs=rhs, margin=margin,
                       passed=margin >= -PASS_TOL,
                       meta={"quad_err": res.err_estimate, "gamma": gamma,
                             "degree": p.degree})


# ---------------------------------------------------------------------------
# composition proximity bound with explicit constant
# ---------------------------------------------------------------------------


def _origin_order_of(expr: FunctionExpr) -> int:
    return expr.divisor_in_disc(0.5).origin_order


def _origin_normalized(expr: FunctionExpr) -> tuple[FunctionExpr, int]:
    """Strip a zero/pole at the origin: returns (z^-o * f, o)."""
    o = _origin_order_of(expr)
    if o == 0:
        return expr, 0
    reducer = RationalFromDivisor(1.0, Divisor((), -o))
    return Product(reducer, expr), o


def lemma1_check(expr: FunctionExpr, pair: PolyPair, cfg: BoundConfig,
                 rgrid, atol: float = 1e-9, rtol: float = 1e-8) -> list[BoundReport]:
    """Per-radius check of m(r, f(omega)/f(phi)) against the explicit bound.

    rhs = K / r^{delta/n} * (T(alpha |c| r^n, f) + log+ 1/|f(0)|).  A zero
    or pole of f at the origin is removed first (both sides are computed for
    z^-o f(z)); the report meta records the reduction.
    """
    work, o = _origin_normalized(expr)
    anchor = logplus(np.array(-_origin_leading_logmod(expr, o))).item()
    K = k_constant(cfg, pair)
    ratio_expr = Quotient(compose_poly(work, pair.omega), compose_poly(work, pair.phi))
    radii = [float(r) for r in rgrid]
    bigs = characteristic_sweep(work, [cfg.alpha * abs(pair.c) * r**pair.n for r in radii],
                                atol=atol, rtol=rtol)
    out = []
    for r, prox, big in zip(radii, proximities(ratio_expr, radii, atol=atol, rtol=rtol), bigs):
        T_big = big.T
        rhs = K / r ** (cfg.delta / pair.n) * (T_big + anchor)
        margin = rhs - prox.m
        out.append(BoundReport(
            r=r, lhs=prox.m, rhs=rhs, margin=margin,
            passed=margin >= -PASS_TOL,
            meta={"s": pair.pushout_radius(cfg, r), "K": K,
                  "origin_reduced": o, "nudged": prox.nudged,
                  "T_pushed": T_big},
        ))
    return out


def first_stable_radius(reports: list[BoundReport]) -> float | None:
    """Smallest sampled radius beyond which every report passes."""
    r0 = None
    for rep in reports:
        if rep.passed:
            if r0 is None:
                r0 = rep.r
        else:
            r0 = None
    return r0


# ---------------------------------------------------------------------------
# characteristic ratio asymptotics
# ---------------------------------------------------------------------------


@record
class AsymSample:
    r: float
    ratio: float
    T_composed: float
    T_base: float


def asym_ratio(expr: FunctionExpr, omega: Polynomial, rgrid,
               atol: float = 1e-9, rtol: float = 1e-8) -> list[AsymSample]:
    """T(r, f(omega)) / T(|c| r^n, f) over the grid.

    Precondition: f must grow slowly enough for the asymptotic to apply;
    the hyper-order estimated from the base samples must stay below
    1/n^2, else it raises :class:`GrowthConditionError`.
    """
    n = omega.degree
    if n < 1:
        raise ValueError("omega must be nonconstant")
    c = abs(omega.leading)
    composed = compose_poly(expr, omega)
    base_radii = [c * float(r) ** n for r in rgrid]
    T_base = [s.T for s in characteristic_sweep(expr, base_radii, atol=atol, rtol=rtol)]
    est = hyperorder_estimate(base_radii, T_base)
    limit = 1.0 / n**2
    if est.varsigma >= limit:
        raise GrowthConditionError(
            f"hyper-order estimate {est.varsigma:.3f} >= 1/n^2 = {limit:.3f}; "
            "the ratio asymptotic does not apply"
        )
    composed_T = characteristic_sweep(composed, rgrid, atol=atol, rtol=rtol)
    out = []
    for r, Tb, s in zip(rgrid, T_base, composed_T):
        out.append(AsymSample(r=float(r), ratio=s.T / Tb, T_composed=s.T, T_base=Tb))
    return out


# ---------------------------------------------------------------------------
# second-main-theorem style check for compositions
# ---------------------------------------------------------------------------


@record
class SmtResult:
    reports: list[BoundReport]
    exceptional_logmeasure: float
    total_logmeasure: float


def _compositions_identical(comp_omega: FunctionExpr, comp_phi: FunctionExpr) -> bool:
    """Probe 20 deterministic off-axis points through the log channel."""
    ks = np.arange(20)
    z = np.where(ks % 2 == 0, 1.3, 2.7) * np.exp(1j * (0.37 + 0.61 * ks))
    la, aa = comp_omega._log_parts(z)
    lb, ab = comp_phi._log_parts(z)
    ok = np.isfinite(la) & np.isfinite(lb)
    if not np.any(ok):
        return True
    dl = np.abs(la[ok] - lb[ok])
    da = np.abs((aa[ok] - ab[ok] + math.pi) % TWO_PI - math.pi)
    return bool(np.all(dl <= 1e-9 * (1.0 + np.abs(la[ok]))) and np.all(da <= 1e-9))


def _cell_logwidths(rgrid: np.ndarray) -> np.ndarray:
    """Per-point logarithmic cell width on an arbitrary increasing grid."""
    u = np.log(rgrid)
    widths = np.empty_like(u)
    if u.size == 1:
        widths[0] = 0.0
        return widths
    mids = 0.5 * (u[:-1] + u[1:])
    widths[0] = mids[0] - u[0]
    widths[-1] = u[-1] - mids[-1]
    if u.size > 2:
        widths[1:-1] = mids[1:] - mids[:-1]
    return widths


def smt_check(expr: FunctionExpr, pair: PolyPair, targets, slack: float,
              rgrid, atol: float = 1e-8, rtol: float = 1e-7) -> SmtResult:
    """Deficiency-sum inequality for f(phi) with the composition correction.

    lhs: m(r, f(phi)) + sum over targets a of m(r, 1/(f(phi) - a)).
    rhs: 2 T(r, f(phi)) - N_corr + slack * T(r, f(phi)), where
    N_corr = 2 N(r, f(phi)) - N(r, D) + N(r, 1/D) and D = f(omega) - f(phi).
    Radii violating the inequality are flagged as exceptional candidates and
    their grid cells' logarithmic measure is accumulated.  D's divisor is
    solved once, on the disc of the largest radius used
    (:meth:`FunctionExpr.solve_ahead`), and each radius restricts it; the
    circle means of f(phi) and of the reciprocals do the same through
    :func:`proximities`, and N(r, f(phi)) is the one its sweep counted.
    """
    grid = np.asarray([float(r) for r in rgrid])
    if not (grid.size and np.isfinite(grid).all() and grid[0] > 0 and (np.diff(grid) > 0).all()):
        raise ValueError("smt_check needs one or more finite positive radii, "
                         "strictly increasing")
    targets = [complex(a) for a in targets]
    if (len(targets) < 2 or len(set(targets)) != len(targets)
            or not all(map(cmath.isfinite, targets))):
        raise ValueError("need at least two distinct finite targets")
    if not math.isfinite(slack):
        raise ValueError("slack must be finite")
    comp_phi = compose_poly(expr, pair.phi)
    comp_omega = compose_poly(expr, pair.omega)
    if _compositions_identical(comp_omega, comp_phi):
        raise IdenticalComposition("f(omega) and f(phi) agree at all probe points")
    try:
        diff = subtract(comp_omega, comp_phi)
    except OpaqueExpr:
        raise OpaqueExpr("f(omega) - f(phi) has no divisor-transparent rewrite; "
                         "the correction term cannot be assembled exactly") from None
    recips = [Quotient(Const(1.0), subtract(comp_phi, Const(a))) for a in targets]

    widths = _cell_logwidths(grid)
    phi_samples = characteristic_sweep(comp_phi, grid, atol=atol, rtol=rtol)
    recip_means = [proximities(q, grid, atol=atol, rtol=rtol) for q in recips]
    diff.solve_ahead(max(s.r_used for s in phi_samples))
    reports = []
    exc_measure = 0.0
    for k, (r, w, phi_sample) in enumerate(zip(grid, widths, phi_samples)):
        m_sum = phi_sample.m
        for means in recip_means:
            m_sum += means[k].m
        r_used = phi_sample.r_used
        div_diff = diff.divisor_in_disc(r_used)
        N_corr = (2.0 * phi_sample.N - counting(div_diff, r_used, "poles")
                  + counting(div_diff, r_used, "zeros"))
        rhs = 2.0 * phi_sample.T - N_corr + slack * phi_sample.T
        margin = rhs - m_sum
        passed = margin >= -PASS_TOL
        if not passed:
            exc_measure += float(w)
        reports.append(BoundReport(
            r=float(r), lhs=m_sum, rhs=rhs, margin=margin, passed=passed,
            meta={"exceptional": not passed, "N_corr": N_corr,
                  "T_phi": phi_sample.T, "slack": slack},
        ))
    total = float(np.sum(widths))
    return SmtResult(reports=reports, exceptional_logmeasure=exc_measure,
                     total_logmeasure=total)


# ---------------------------------------------------------------------------
# growth dichotomy probe on sampled data
# ---------------------------------------------------------------------------


@record
class GrowthProbe:
    radii: tuple[float, ...]
    step_K: float
    step_mu: float
    alpha: float
    logmeasure_F: float
    hyper_slope: float
    window_increments: tuple[float, ...]
    tail_cauchy: bool
    verdict: str


def growth_lemma_probe(radii, T_values, step_K: float, step_mu: float,
                       alpha: float) -> GrowthProbe:
    """Dichotomy probe: either the fast-growth set has small tail measure or
    the growth is fast everywhere and the hyper-slope accounts for it.

    F is the set of grid radii r with T(r) <= alpha * T(r + K r^mu), alpha
    in (0,1); T between samples is interpolated log-log linearly.  The probe
    reports F's logarithmic measure in ``GROWTH_WINDOWS`` expanding windows,
    the tail-Cauchy flag (last window increment below ``GROWTH_CAUCHY_TOL``),
    the difference-based hyper-slope, and a combined verdict (a slope of
    (1 - mu)(1 - ``GROWTH_FIT_TOL``) or more is consistent).
    """
    r = np.asarray(radii, dtype=float)
    T = np.asarray(T_values, dtype=float)
    if not (np.isfinite(r).all() and np.isfinite(T).all()):
        raise ValueError("radii and growth samples must be finite")
    if r.ndim != 1 or r.shape != T.shape or r.size < 10:
        raise ValueError("need matching 1-D arrays with at least 10 samples")
    if np.any(np.diff(r) <= 0):
        raise NonMonotone("radii must be strictly increasing")
    if np.any(np.diff(T) < -1e-9 * np.abs(T[:-1])):
        raise NonMonotone("growth samples must be nondecreasing")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    if not 0 <= step_mu < 1:
        raise ValueError("mu must lie in [0,1)")
    if not 0 < step_K < math.inf:
        raise ValueError("K must be positive and finite")

    keep = T >= math.e
    if int(np.sum(keep)) < 10:
        return GrowthProbe(
            radii=tuple(r), step_K=step_K, step_mu=step_mu, alpha=alpha,
            logmeasure_F=0.0, hyper_slope=0.0, window_increments=(),
            tail_cauchy=False, verdict="degenerate",
        )
    r, T = r[keep], T[keep]
    u = np.log(r)
    logT = np.log(T)

    def interp_T(rq: np.ndarray) -> np.ndarray:
        return np.exp(np.interp(np.log(rq), u, logT))

    stepped = r + step_K * r**step_mu
    in_range = stepped <= r[-1]
    cond = np.zeros(r.shape, dtype=bool)
    cond[in_range] = T[in_range] <= alpha * interp_T(stepped[in_range])

    widths = _cell_logwidths(r)
    measure_F = float(np.sum(widths[cond]))

    edges = np.linspace(u[0], u[-1], GROWTH_WINDOWS + 1)
    cumulative = []
    for edge in edges[1:]:
        sel = cond & (u <= edge)
        cumulative.append(float(np.sum(widths[sel])))
    increments = tuple(np.diff([0.0] + cumulative))
    tail_cauchy = bool(increments[-1] < GROWTH_CAUCHY_TOL)

    est = hyperorder_estimate(r, T)
    slope = est.varsigma

    if tail_cauchy:
        verdict = "consistent-finite-measure"
    elif slope >= (1.0 - step_mu) * (1.0 - GROWTH_FIT_TOL):
        verdict = "consistent-hyper-slope"
    else:
        verdict = "inconsistent"
    return GrowthProbe(
        radii=tuple(float(x) for x in r), step_K=step_K, step_mu=step_mu,
        alpha=alpha, logmeasure_F=measure_F, hyper_slope=slope,
        window_increments=increments, tail_cauchy=tail_cauchy,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# doubling-set probe with closed-form measure bound
# ---------------------------------------------------------------------------


@record
class BorelResult:
    measured_logmeasure: float
    closed_form_bound: float
    r0: float
    n_exceptional: int
    n_tested: int


def borel_closed_form(epsilon: float, g_top: float) -> float:
    """1/xi(e) + (1/(eps log 2)) (1 - (log g_top)^-eps), xi(x)=(log x)^{1+eps};
    the difference is taken by expm1, as it cancels for small eps."""
    if g_top < math.e:
        raise InsufficientGrowth("top growth sample below e")
    return 1.0 - math.expm1(-epsilon * math.log(math.log(g_top))) / (epsilon * math.log(2.0))


def borel_probe(expr: FunctionExpr, n: int, c: complex, epsilon: float,
                rmax: float, rmin: float = 1.0, count: int = 50,
                atol: float = 1e-8, rtol: float = 1e-7) -> BorelResult:
    """Scan for radii where g(r) = T(|c| r^n, f) doubles too fast.

    A radius is exceptional when g(beta r) > 2 g(r) for
    beta = 1 + 1/(log g(r))^{1+eps}.  The measured logarithmic measure of
    the exceptional cells must stay below the closed-form bound; that
    inequality is theorem-backed, so callers treat it as hard.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    grid = log_radii(rmin, rmax, count)
    cmod = abs(complex(c))

    def g(radii) -> np.ndarray:  # T(|c| r^n, f) over a grid
        return np.array([s.T for s in characteristic_sweep(
            expr, [cmod * r**n for r in radii], atol=atol, rtol=rtol)])

    gvals = g(grid)
    above = np.nonzero(gvals >= math.e)[0]
    if above.size == 0:
        raise InsufficientGrowth("growth never reaches e on the grid")
    i0 = int(above[0])
    widths = _cell_logwidths(grid)
    measured = 0.0
    n_exc = 0
    betas = [1.0 + 1.0 / math.log(gr) ** (1.0 + epsilon) for gr in gvals[i0:]]
    for i, gr, g_beta in zip(range(i0, grid.size), gvals[i0:], g(betas * grid[i0:])):
        if g_beta > 2.0 * gr * (1.0 + 1e-9):
            measured += float(widths[i])
            n_exc += 1
    bound = borel_closed_form(epsilon, float(gvals[-1]))
    return BorelResult(measured_logmeasure=measured, closed_form_bound=bound,
                       r0=float(grid[i0]), n_exceptional=n_exc,
                       n_tested=int(grid.size - i0))
