"""End-to-end acceptance checks, one test per criterion.

Every test prints a single verdict line (repeated in the terminal summary)
and, where a wall-clock budget is part of the bar, the budget is asserted
alongside the mathematical claim.  Expected values here were computed
independently before being frozen; nothing is tuned to make a test pass.
"""

import math
import time

import numpy as np

from nevlab import (
    BoundConfig,
    Divisor,
    ExpPoly,
    PolyPair,
    Polynomial,
    RationalFromDivisor,
    RootFindFailure,
    argument_principle_count,
    asym_ratio,
    borel_probe,
    build_orbit_function,
    characteristic,
    characteristic_sweep,
    compose_poly,
    corpus,
    counterexample_kit,
    counterexample_preimages,
    figure_family,
    first_stable_radius,
    growth_lemma_probe,
    hyperorder_estimate,
    identity_probe_points,
    identity_residuals,
    invariance_census,
    k_constant,
    left_figure_map,
    lemma1_check,
    log_radii,
    orbit,
    pestimate_check,
    proximity,
    smt_check,
    subtract,
)
from nevlab.cli import main as cli_main
from nevlab.fnmodel import TWO_PI

POLY_Z = Polynomial((0j, 1.0))
POLY_Z2 = Polynomial((0j, 0j, 1.0))
POLY_Z_PLUS_1 = Polynomial((1.0 + 0j, 1.0))
POLY_Z2_PLUS_Z = Polynomial((0j, 1.0, 1.0))

# tau(tau(4)) for the left figure map, chained by hand through
# tau(z) = z + (1/2 + i/5) sqrt(z) at full precision.
TAU2_OF_4 = 6.101052360167807 + 0.8922563354910713j

RESULTS: list[str] = []


def _run(n, label, body, budget=None):
    """Execute one criterion, record its verdict line, re-raise on failure."""
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:  # the verdict line must print either way
        failure = exc
    elapsed = time.perf_counter() - t0
    over = budget is not None and elapsed >= budget
    verdict = "PASS" if failure is None and not over else "FAIL"
    line = f"[criterion {n:2d}] {label}: {verdict} ({elapsed:.1f}s)"
    RESULTS.append(line)
    print(line, flush=True)
    if failure is not None:
        raise failure
    if over:
        raise AssertionError(f"took {elapsed:.1f}s, budget {budget:.0f}s")


# ---------------------------------------------------------------------------
# 1. closed-form circle means
# ---------------------------------------------------------------------------


def test_c01_closed_form_circle_means():
    inv_z = RationalFromDivisor(1.0, Divisor.build([(0j, -1)]))
    ident = RationalFromDivisor(1.0, Divisor((), 1))

    def body():
        m_exp = proximity(ExpPoly(POLY_Z), math.pi).m
        assert abs(m_exp - 1.0) <= 1e-6
        # On |z| = r >= 1, |1/z| = 1/r <= 1, so log+|1/z| = 0 on the whole
        # circle and m(r, 1/z) = 0.  The simple pole at 0 gives
        # N(r, 1/z) = log r, hence T(r, 1/z) = 0 + log r.  Conversely
        # log+|z| = log r on the circle, so m(r, z) = log r.
        for r in (2.0, 10.0):
            log_r = math.log(r)
            m_inv = proximity(inv_z, r).m
            c_inv = characteristic(inv_z, r)
            m_z = proximity(ident, r).m
            parts = (f"r={r:g}: m(r,1/z)={m_inv!r} N(r,1/z)={c_inv.N!r} "
                     f"T(r,1/z)={c_inv.T!r} m(r,z)={m_z!r}; "
                     f"want 0, log r, log r, log r = {log_r!r}")
            assert abs(m_inv) <= 1e-9, parts
            assert abs(c_inv.N - log_r) <= 1e-9, parts
            assert abs(c_inv.T - log_r) <= 1e-9, parts
            assert abs(m_z - log_r) <= 1e-9, parts

    _run(1, "closed-form circle means", body, budget=1.0)


# ---------------------------------------------------------------------------
# 2. randomized fractional-power circle bounds
# ---------------------------------------------------------------------------


def test_c02_randomized_power_integral_bounds():
    def body():
        rng = np.random.default_rng(20260815)
        failures = 0
        for _ in range(100):
            deg = int(rng.integers(1, 5))
            roots = [complex(re, im)
                     for re, im in rng.uniform(-3.0, 3.0, size=(deg, 2))]
            lead = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            p = Polynomial((lead,))
            for root in roots:
                p = p * Polynomial((-root, 1.0))
            gamma = float(rng.uniform(0.05, 0.95))
            r = float(rng.uniform(0.5, 10.0))
            rep = pestimate_check(p, gamma, r, rtol=1e-8)
            if not rep.passed:
                failures += 1
        assert failures == 0, f"{failures} of 100 randomized cases violated"

    _run(2, "randomized power-integral bounds, 100 cases", body, budget=30.0)


# ---------------------------------------------------------------------------
# 3. composition proximity bound on the documented triples
# ---------------------------------------------------------------------------


def test_c03_composition_bound_documented_triples():
    cfg = BoundConfig(alpha=2.0, delta=0.5)
    rat = RationalFromDivisor(
        1.0, Divisor.build([(1.0 + 0j, 1), (-1.0 + 0j, -1)]))
    triples = [
        ("exp, unit shift", ExpPoly(POLY_Z),
         PolyPair.build(POLY_Z_PLUS_1, POLY_Z), 40.0, 1984.0),
        ("rational, quadratic pair", rat,
         PolyPair.build(POLY_Z2_PLUS_Z, POLY_Z2), 40.0, None),
        ("squared exponent, unit shift", ExpPoly(POLY_Z2),
         PolyPair.build(POLY_Z_PLUS_1, POLY_Z), 20.0, None),
    ]

    def body():
        for label, f, pair, rmax, k_expected in triples:
            if k_expected is not None:
                assert k_constant(cfg, pair) == k_expected, label
            reports = lemma1_check(f, pair, cfg, log_radii(1.0, rmax, 12))
            r0 = first_stable_radius(reports)
            assert r0 is not None, f"{label}: bound never stabilized"
            tail = [rep for rep in reports if rep.r >= r0]
            assert tail and all(rep.passed for rep in tail), label

    _run(3, "composition proximity bound, three documented triples",
         body, budget=120.0)


# ---------------------------------------------------------------------------
# 4. characteristic of a composition vs the pushed-radius characteristic
# ---------------------------------------------------------------------------


def test_c04_composed_characteristic_ratio():
    def body():
        samples = asym_ratio(ExpPoly(POLY_Z), POLY_Z2_PLUS_Z,
                             log_radii(1.0, 20.0, 50))
        assert abs(samples[-1].ratio - 1.0) < 0.1
        quartile = [abs(s.ratio - 1.0) for s in samples[-13:]]
        drifting = [a >= b - 1e-12 for a, b in zip(quartile, quartile[1:])]
        assert all(drifting), f"top-quartile deviations not monotone: {quartile}"

    _run(4, "composed characteristic approaches the pushed radius",
         body, budget=120.0)


# ---------------------------------------------------------------------------
# 5. deficiency sum with the composition correction
# ---------------------------------------------------------------------------


def test_c05_deficiency_sum_with_correction():
    f = ExpPoly(POLY_Z)
    pair = PolyPair.build(POLY_Z2_PLUS_Z, POLY_Z2)

    def body():
        res = smt_check(f, pair, targets=(1.0, -1.0), slack=0.05,
                        rgrid=log_radii(5.0, 40.0, 25))
        assert res.total_logmeasure > 0.0
        assert res.exceptional_logmeasure < 0.1 * res.total_logmeasure, (
            f"exceptional measure {res.exceptional_logmeasure:.4f} vs "
            f"total {res.total_logmeasure:.4f}"
        )
        # The correction difference here is exp(z^2) (exp(z) - 1): a simple
        # zero at the origin plus the lattice 2 pi i k, no poles.  The
        # enumerated divisor must agree with that closed form bit for bit.
        diff = subtract(compose_poly(f, pair.omega), compose_poly(f, pair.phi))
        for r in (10.0, 25.0, 40.0):
            kmax = int(r // TWO_PI)
            expected = Divisor.build(
                [(TWO_PI * 1j * k, 1)
                 for k in range(-kmax, kmax + 1) if k != 0],
                origin_order=1)
            assert diff.divisor_in_disc(r) == expected, f"r = {r:g}"

    _run(5, "deficiency sum with composition correction", body, budget=180.0)


# ---------------------------------------------------------------------------
# 6. doubling-scan measure under the closed-form cap
# ---------------------------------------------------------------------------


def test_c06_doubling_scan_measure_cap(members):
    cap = 1.0 + 1.0 / math.log(2.0)
    rmax = {"exp_z": 40.0, "exp_z2": 40.0, "exp_z3": 40.0,
            "rat_zero1_pole2": 2.0e4, "rat_zero1_polem1": 2.0e4,
            "rat_pole0": 2.0e4, "exp_exp_z": 25.0, "expz_minus_1": 40.0,
            "expz2_minus_1": 40.0, "orbit_left_m6": 1.0e3,
            "orbit_right_m6": 1.0e3}

    def body():
        for key, member in members.items():
            res = borel_probe(member.expr, n=1, c=1.0, epsilon=1.0,
                              rmax=rmax[key])
            assert res.measured_logmeasure <= res.closed_form_bound, key
            assert res.measured_logmeasure <= cap, (
                f"{key}: measured {res.measured_logmeasure!r} exceeds the "
                f"cap {cap!r}"
            )

    _run(6, "doubling-scan measure under 1 + 1/log 2 on the corpus", body)


# ---------------------------------------------------------------------------
# 7. growth-lemma tail
# ---------------------------------------------------------------------------


def test_c07_growth_lemma_tail_is_cauchy():
    def body():
        radii = np.exp(np.linspace(0.0, math.log(1e5), 200))
        tvals = [math.exp(math.sqrt(r)) for r in radii]
        probe = growth_lemma_probe(radii, tvals, step_K=1.0, step_mu=0.25,
                                   alpha=0.9)
        assert probe.verdict == "consistent-finite-measure"
        assert probe.window_increments[-1] < 0.01

    _run(7, "growth-lemma exceptional-set tail is Cauchy", body)


# ---------------------------------------------------------------------------
# 8. hyper-order estimates
# ---------------------------------------------------------------------------


def test_c08_hyperorder_estimates(members):
    def body():
        grid = log_radii(5.0, 30.0, 40)
        sweep = characteristic_sweep(members["exp_z"].expr, grid)
        flat = hyperorder_estimate([s.r for s in sweep], [s.T for s in sweep])
        assert flat.varsigma <= 0.1, flat
        sweep = characteristic_sweep(members["exp_exp_z"].expr, grid)
        tower = hyperorder_estimate([s.r for s in sweep], [s.T for s in sweep])
        assert 0.85 <= tower.varsigma <= 1.15, tower

    _run(8, "hyper-order estimates for flat and towered growth", body)


# ---------------------------------------------------------------------------
# 9. orbit values and self-map censuses
# ---------------------------------------------------------------------------


def test_c09_orbit_values_and_censuses(tmp_path):
    def body():
        out = tmp_path / "orbit.csv"
        code = cli_main(["orbit", "--figure1", "left", "--seed", "4",
                         "--k", "2", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        points = [complex(float(row[3]), float(row[4])) for row in rows]
        assert points[0] == 4.0 + 0j
        assert points[1] == 5.0 + 0.4j
        assert abs(points[2] - TAU2_OF_4) <= 1e-5
        # same numbers straight from the library
        orb = orbit(left_figure_map(), 4.0 + 0j, 2)
        assert orb.points[1] == 5.0 + 0.4j
        assert abs(orb.points[2] - TAU2_OF_4) <= 1e-5

        for side in ("left", "right"):
            fam = figure_family(side)
            fn = build_orbit_function(fam)
            radius = fam.census_radius()
            for rep in invariance_census(fn, fam.map, (0.0, None), radius):
                assert rep.verdict, f"{side}: {rep.describe()}"
                assert not rep.violations
                assert rep.max_matched_distance <= 1e-9

        # A generic third value must not survive the census.  On the left
        # family the mismatch is measured directly; the right family's
        # generic solutions sit exponentially close to its zeros, so there
        # the refusal to resolve them is the failure.
        fam = figure_family("left", generations=12)
        fn = build_orbit_function(fam)
        rep = invariance_census(fn, fam.map, (0.3 + 0.2j,),
                                fam.census_radius())[0]
        assert not rep.verdict
        fam = figure_family("right")
        fn = build_orbit_function(fam)
        try:
            rep = invariance_census(fn, fam.map, (0.3 + 0.2j,),
                                    fam.census_radius())[0]
            assert not rep.verdict
        except RootFindFailure:
            pass

    _run(9, "orbit values, value censuses, generic-value failure", body)


# ---------------------------------------------------------------------------
# 10. shift identity and preimage stability
# ---------------------------------------------------------------------------


def test_c10_shift_identity_and_preimages():
    def body():
        probes = identity_probe_points(100)
        for k in (1, 2, 5):
            kit = counterexample_kit(k)
            assert max(identity_residuals(kit, probes)) <= 1e-12
            for j in range(len(kit.targets)):
                target = kit.targets[j]
                for z in counterexample_preimages(kit, j, count=6):
                    assert abs(kit.g.eval(z) - target) <= 1e-9
                    assert abs(kit.g.eval(z + kit.shift) - target) <= 1e-9

    _run(10, "shift identity holds and preimages survive the shift", body)


# ---------------------------------------------------------------------------
# 11. contour counts against divisors
# ---------------------------------------------------------------------------


def test_c11_contour_counts_match_divisors(members):
    r_top = {"exp_z": 6.0, "exp_z2": 6.0, "exp_z3": 6.0,
             "rat_zero1_pole2": 5.0, "rat_zero1_polem1": 5.0,
             "rat_pole0": 5.0, "exp_exp_z": 3.5, "expz_minus_1": 21.0,
             "expz2_minus_1": 6.5}

    def body():
        for key, member in members.items():
            expr = member.expr
            if key in r_top:
                top = r_top[key]
            else:
                top = 1.2 * max(abs(p) for p, _ in expr.divisor.entries)
            for r in log_radii(0.37, top, 20):
                count = argument_principle_count(expr, r)
                div = expr.divisor_in_disc(r)
                net = div.total("zeros") - div.total("poles")
                assert count == net, f"{key} at r = {r:.6g}: {count} vs {net}"

    _run(11, "contour integer counts equal divisor counts", body)
