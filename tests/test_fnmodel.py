"""Expression layer: polynomials, root finding, divisors, log-channel eval."""

import cmath
import decimal
import math
import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nevlab
from nevlab import (
    Const,
    Divisor,
    Exp,
    ExpPoly,
    Polynomial,
    PolyPair,
    Product,
    Quotient,
    RationalFromDivisor,
    build_orbit_function,
    cluster_roots,
    figure_family,
    logplus,
    parse_complex,
    poly_roots,
    preimages_in_disc,
    subtract,
)
from nevlab import cli, fnmodel, nevanlinna
from nevlab.fnmodel import (
    CIRCLE_BAND,
    OpaqueExpr,
    OverflowSignal,
    PoleSignal,
    TWO_PI,
    RootFindFailure,
    compose_poly,
    roots_of_shifts,
)
from nevlab.algmap import InvarianceReport
from nevlab.boundslab import AsymSample, BoundConfig, BoundReport
from nevlab.nevanlinna import (ON_CIRCLE_REL, BalanceSample, CharacteristicSample,
                               _circle_means, _logplus, counting, log_radii, proximity)
from nevlab.quadrature import QuadratureResult, adaptive_circle

Z = Polynomial((0j, 1.0))
Z2 = Polynomial((0j, 0j, 1.0))

finite_floats = st.floats(min_value=-5.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite_floats, finite_floats)


def rational(zeros, poles, scale=1.0):
    pairs = [(z, 1) for z in zeros] + [(p, -1) for p in poles]
    return RationalFromDivisor(scale, Divisor.build(pairs))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_polynomial_product_difference_of_squares():
    p = Polynomial.from_roots([1.0, -1.0])
    assert p.coeffs == (-1 + 0j, 0j, 1 + 0j)


def test_polynomial_trims_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1 and p.leading == 2.0


def test_polynomial_compose_matches_pointwise():
    outer = Polynomial((1.0, 0j, 1.0))  # 1 + w^2
    inner = Polynomial((0j, 1.0, 1.0))  # z + z^2
    comp = outer.compose(inner)
    for z in (0.3 + 0.1j, -1.2j, 2.0):
        assert abs(comp(z) - outer(inner(z))) <= 1e-12 * (1.0 + abs(outer(inner(z))))


def test_polynomial_derivative():
    p = Polynomial((5.0, 3.0, 0j, 2.0))
    assert p.deriv().coeffs == (3 + 0j, 0j, 6 + 0j)


@given(complexes, st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_coeff_bound_dominates_on_disc(c, r):
    p = Polynomial((c, 1.0, -2.0j))
    bound = p.coeff_bound(r)
    for k in range(8):
        z = r * cmath.exp(2j * math.pi * k / 8)
        assert abs(p(z)) <= bound + 1e-9 * (1.0 + bound)


def test_parse_complex_accepts_the_usual_spellings():
    assert parse_complex("1") == 1
    assert parse_complex("-0.5") == -0.5
    assert parse_complex("0.37+0.21i") == 0.37 + 0.21j
    assert parse_complex("(2-i)") == 2 - 1j
    assert parse_complex("2j") == 2j
    assert parse_complex("-j") == -1j


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_poly_roots_quadratic_exact():
    roots = poly_roots(Polynomial((-1.0, 0j, 1.0)))
    assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert max(abs(r.imag) for r in roots) < 1e-12


def test_poly_roots_origin_peeling():
    # z^3 (z - 2): three exact origin roots plus one at 2
    p = Polynomial((0j, 0j, 0j, -2.0, 1.0))
    roots = poly_roots(p)
    assert np.sum(roots == 0) == 3
    assert abs(sorted(roots, key=abs)[-1] - 2.0) < 1e-10


LATTICE = [complex(x, y) for x in range(-2, 3) for y in range(-2, 3)]


@given(st.lists(st.sampled_from(LATTICE), unique=True, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_roots_recover_separated_roots(ws):
    """Unit-separated roots are recovered sharply (clustered roots only obey
    the eps^(1/multiplicity) conditioning law, so they are not probed here)."""
    p = Polynomial.from_roots(ws)
    roots = poly_roots(p)
    assert len(roots) == p.degree
    for w in ws:
        assert min(abs(w - r) for r in roots) <= 1e-5 * (1.0 + abs(w))


@given(st.lists(complexes, min_size=1, max_size=6), complexes.filter(lambda c: abs(c) > 0.1))
@settings(max_examples=60, deadline=None)
def test_poly_roots_residual_contract(cs, lead):
    p = Polynomial(tuple(cs) + (lead,))
    roots = poly_roots(p)
    assert len(roots) == p.degree
    for r in roots:
        assert abs(p(r)) <= 1e-10 * (1.0 + abs(r)) ** p.degree * abs(p.leading)


def test_poly_roots_rejects_zero_polynomial():
    with pytest.raises(RootFindFailure):
        poly_roots(Polynomial((0j,)))


def test_closed_form_roots_of_degree_one_and_two():
    assert np.array_equal(poly_roots(Polynomial((-3.0, 2.0))), [1.5])
    assert np.array_equal(poly_roots(Polynomial((-4.0, 0j, 1.0))), [-2.0, 2.0])
    assert np.array_equal(poly_roots(Polynomial((2.0, -3.0, 1.0))), [1.0, 2.0])
    # z^2 + z after peeling its origin root: z + 1
    assert np.array_equal(poly_roots(Polynomial((0j, 1.0, 1.0))), [0.0, -1.0])


def test_scaled_quadratic_keeps_roots_far_apart_in_range():
    """No intermediate of the scaled formula overflows: the roots of
    z^2 + 1e200 z + 1 and z^2 + 1e200 z - w are finite and sharp."""
    roots = poly_roots(Polynomial((1.0, 1e200, 1.0)))
    assert roots == pytest.approx([-1e-200, -1e200], rel=1e-15)
    rows = roots_of_shifts(Polynomial((0j, 1e200, 1.0)), [1.0, 2.0])
    assert rows == pytest.approx(np.array([[1e-200, -1e200], [2e-200, -1e200]]), rel=1e-15)


@pytest.mark.parametrize("coeffs", [(1.0, 1e200, 0j, 1.0), (1.0, 1e308, 1e-308)])
def test_non_finite_roots_raise(coeffs):
    """The Aberth iterates of the cubic and the scaled quadratic of the
    second polynomial (whose large root is out of range) are not finite."""
    with np.errstate(all="ignore"), pytest.raises(RootFindFailure):
        poly_roots(Polynomial(coeffs))


def test_non_finite_roots_of_shifts_raise():
    with np.errstate(all="ignore"), pytest.raises(RootFindFailure):
        roots_of_shifts(Polynomial((0j, 1e308, 1e-308)), [1.0, 2.0])


@pytest.mark.parametrize("text", ["z^2+z", "z^2"])
def test_closed_form_roots_of_branch_shifts_match_mpmath(text):
    """The shifts smt's branches solve, w = i pi k for |k| <= 500 and 200
    random w of scale 30: every root within 2 ulps of 40-digit roots."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    ws = [1j * np.pi * k for k in range(-500, 501)]
    ws += list(30.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200)))
    p = Polynomial.parse(text)
    rows = roots_of_shifts(p, ws)
    worst = 0.0
    with mpmath.workdps(40):
        c1 = mpmath.mpc(p.coeffs[1])
        for w, row in zip(ws, rows):
            d = mpmath.sqrt(c1 * c1 + 4 * mpmath.mpc(w))
            ref = ((d - c1) / 2, (-d - c1) / 2)
            for z in row:
                err = min(abs(mpmath.mpc(z) - x) for x in ref)
                scale = abs(min(ref, key=lambda x: abs(mpmath.mpc(z) - x)))
                worst = max(worst, float(err / scale) if scale else float(err))
    assert worst <= 2 * 2.0**-52


def test_smt_solves_its_pull_backs_without_aberth(monkeypatch, capsys):
    """Every divisor of smt's c05 grid is a pull-back through a polynomial
    of degree 2 (or 1 at the origin rows): none reaches the iteration."""
    degrees = {"_solve_rows": [], "_aberth": []}
    for name, degree_list in degrees.items():
        def spy(cs, solve=getattr(fnmodel, name), seen=degree_list):
            seen.append(cs.shape[1] - 1)
            return solve(cs)
        monkeypatch.setattr(fnmodel, name, spy)
    fnmodel._divisor_cached.cache_clear()
    argv = ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
            "--targets", "1,-1", "--rmin", "5", "--rmax", "40", "--count", "25"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert set(degrees["_solve_rows"]) == {1, 2} and degrees["_aberth"] == []


def _branch_sets(monkeypatch, r=16.0):
    """The shifts ExpPoly(p, 1) solves for at radius r, per p."""
    seen = {}

    def spy(p, ws):
        seen[p] = list(ws)
        return solve(p, ws)

    solve = fnmodel.roots_of_shifts
    monkeypatch.setattr(fnmodel, "roots_of_shifts", spy)
    for text in ("z^2", "z^2+z", "z^3-2z+1"):
        ExpPoly(Polynomial.parse(text), 1.0)._divisor_impl(r)
    monkeypatch.undo()
    return list(seen.items())


def test_roots_of_shifts_rows_equal_single_solves_bitwise(monkeypatch):
    sets = _branch_sets(monkeypatch)
    assert [p.degree for p, _ in sets] == [2, 2, 3]
    ws = sets[0][1]
    sets += [(Polynomial((-0.5, 1 + 2j)), ws),
             (Polynomial((1.0, 0.5 + 0.2j, 0j, -3.0, 0j, 0j, 0j, 0j, 1.0)), ws)]
    for p, ws in sets:
        rows = roots_of_shifts(p, ws)
        assert rows.shape == (len(ws), p.degree)
        for w, row in zip(ws, rows):
            single = poly_roots(p - Polynomial((w,)))
            assert np.array_equal(row.view(np.float64), single.view(np.float64))


def test_roots_of_shifts_zero_constant_row_keeps_exact_origin_root():
    p = Polynomial((0j, 1.0, 1.0))  # z^2 + z
    rows = roots_of_shifts(p, [0j, 2.0])
    assert np.sum(rows[0] == 0) == 1
    assert np.array_equal(rows[0], poly_roots(p))
    assert abs(rows[0][rows[0] != 0][0] + 1.0) < 1e-12


def test_roots_of_shifts_enforces_residual_contract(monkeypatch):
    p, ws = _branch_sets(monkeypatch)[2]
    monkeypatch.setattr(fnmodel, "_ABERTH_ITER", 1)
    with pytest.raises(RootFindFailure):
        roots_of_shifts(p, ws)


def test_divisor_radius_quantum_is_the_next_power_of_two(monkeypatch):
    computed = []

    def spy(self, rq):
        computed.append(rq)
        return fnmodel.EMPTY_DIVISOR

    monkeypatch.setattr(Const, "_divisor_impl", spy)
    radii = [32.0, math.nextafter(32.0, math.inf), 1e-7, 0.5, 0.7, 1.0, 3.0,
             63.99999, 64.0, 64.0 * (1 + 2.0**-52)]
    for i, r in enumerate(radii):
        Const(0.123 + 1e-3j * (i + 1)).divisor_in_disc(r)  # fresh cache key
    assert computed[:2] == [32.0, 64.0]
    for r, rq in zip(radii, computed):
        assert rq >= r
        assert rq / 2 < max(r, 1e-6)
        assert math.frexp(rq)[0] == 0.5


def test_cluster_roots_merges_multiplicities():
    pts = [1.0, 1.0 + 1e-12, 2.0j, 1.0 - 1e-12]
    clusters = cluster_roots(pts)
    by_mult = sorted(clusters, key=lambda cm: cm[1])
    assert by_mult[-1][1] == 3
    assert abs(by_mult[-1][0] - 1.0) < 1e-9
    assert by_mult[0][1] == 1


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


def test_divisor_build_snaps_origin_and_merges():
    d = Divisor.build([(1e-14 + 0j, 2), (3.0, 1), (3.0 + 1e-14j, 1), (2.0, 0)])
    assert d.origin_order == 2
    assert len(d.entries) == 1
    assert d.entries[0][1] == 2


def test_divisor_signed_split():
    d = Divisor.build([(1.0, 2), (2.0, -3)], origin_order=-1)
    zeros = d.signed("zeros")
    poles = d.signed("poles")
    assert zeros.total("zeros") == 2
    assert poles.origin_order == 1 and poles.entries[0][1] == 3


def test_divisor_signed_returns_itself_where_it_drops_nothing():
    zeros = Divisor.build([(1.0, 2), (2.0 + 1j, 1)], origin_order=1)
    empty = fnmodel.EMPTY_DIVISOR
    assert zeros.signed("zeros") is zeros and empty.signed("poles") is empty
    # a pole's multiplicity is made positive: a new divisor, never the input
    poles = Divisor.build([(1.0, -2)])
    assert poles.signed("poles") is not poles
    assert poles.signed("poles") == Divisor.build([(1.0, 2)])
    # mixed divisors, and ones whose origin alone is dropped, against the columns
    for d in (Divisor.build([(1.0, 2), (2.0, -3), (-0.5j, 1)], origin_order=-1),
              Divisor.build([(1.0, 2), (2.0, -3)], origin_order=2),
              Divisor.build([(3.0, 1)], origin_order=-1), Divisor((), -2)):
        for kind, sign in (("zeros", 1), ("poles", -1)):
            keep = sign * np.array([m for _, m in d.entries]) > 0
            want = Divisor.build([(b, abs(m)) for (b, m), k in zip(d.entries, keep) if k],
                                 origin_order=max(sign * d.origin_order, 0))
            got = d.signed(kind)
            assert got == want and got is not d


def test_divisor_multiset_repeats_by_multiplicity():
    d = Divisor.build([(1.0, 2), (2.0, -1)], origin_order=1)
    ms = d.multiset()
    assert ms.count(0j) == 1 and ms.count(1.0 + 0j) == 2 and len(ms) == 4


@given(st.lists(st.tuples(complexes.filter(lambda w: abs(w) > 1e-3),
                          st.integers(min_value=-3, max_value=3)),
                max_size=8),
       st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_divisor_restrict_is_monotone(pairs, r1, dr):
    d = Divisor.build(pairs)
    small, big = d.restrict(r1), d.restrict(r1 + dr)
    inner = {p for p, _ in small.entries}
    outer = {p for p, _ in big.entries}
    assert inner <= outer
    assert small.signed("zeros").total("zeros") <= big.signed("zeros").total("zeros")


def _ulp_walk(x, steps=3):
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def test_divisor_radius_queries_equal_the_linear_scan():
    """restrict and band read the sorted moduli column; the reference scans
    test every entry.  Queries sit at |p| itself, at 0, -1, inf and NaN, and
    within a few ulps of the radii that put |p| exactly on a band edge,
    (1 -+ rel) r = |p|."""
    rng = np.random.default_rng(11)
    edges_hit = set()
    for _ in range(12):
        n = int(rng.integers(1, 40))
        mods = np.exp(rng.uniform(-4.0, 6.0, n))
        mods[: n // 3] = mods[0]  # a shell of points at one modulus
        pts = mods * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        pts[0] = complex(mods[0], 0.0)  # |p| exact
        d = Divisor.build([(complex(p), int(rng.choice([-2, -1, 1, 3]))) for p in pts])
        for entry in d.entries[:: max(1, len(d.entries) // 6)]:
            a = abs(entry[0])
            queries = [a, 0.0, -1.0, math.inf, math.nan]
            for rel in (CIRCLE_BAND, ON_CIRCLE_REL):
                queries += _ulp_walk(a / (1.0 - rel)) + _ulp_walk(a / (1.0 + rel))
            for q in queries:
                kept = d.restrict(q)
                assert kept.entries == tuple(e for e in d.entries if abs(e[0]) <= q)
                assert kept.moduli.tolist() == [abs(e[0]) for e in kept.entries]
                for rel in (CIRCLE_BAND, ON_CIRCLE_REL, 0.0):
                    want = [e for e in d.entries if abs(abs(e[0]) - q) <= rel * q]
                    assert d.band(q, rel).tolist() == [p for p, _ in want]
                    assert kept.band(q, rel).tolist() == [p for p, m in want
                                                          if (p, m) in kept.entries]
                    if q != a and rel and math.isfinite(q) and q > 0:
                        edges_hit.add((rel, entry in want))
    assert len(edges_hit) == 4  # each band edge seen both admitting p and not


def test_divisor_build_merges_by_the_greedy_rule_not_by_distance():
    """The docstring's example: the first group's centroid ends 0.515
    tolerances from the next entry, and building the entries again merges
    them."""
    t = 2e-9  # MERGE_TOL * (1 + |1|)
    d = Divisor.build([(1.0, 1), (1 + 0.99 * t, 1), (1 + 1.0100001 * t, 1)])
    assert repr(d.entries) == "(((1.00000000099+0j), 2), ((1.0000000020200002+0j), 1))"
    gap = abs(d.entries[1][0] - d.entries[0][0])
    assert 0.515 * t < gap < 0.516 * t
    assert repr(Divisor.build(d.entries).entries) == "(((1.0000000015050001+0j), 3),)"


def _merge_state(d):
    return d.entries, d.origin_order, d.moduli.tolist()


@pytest.mark.parametrize("other", [
    Divisor.build([(2.0, 1), (3j, -2), (-1.5 + 0.5j, 3)], origin_order=2),
    Divisor.build([(1.0, 1), (1 + 0.99 * 2e-9, 1), (1 + 1.0100001 * 2e-9, 1)]),  # a close pair
    Divisor(((1e-12, 1), (2.0, 1))),  # an entry that build snaps into the origin
    Divisor((), -3),
], ids=["plain", "close pair", "near origin", "origin only"])
def test_merge_with_an_empty_side_equals_build(other):
    """With one side's points empty, merge returns the other side's columns
    as they are, with the two origin orders added.  Where build made those
    columns that is build's result; a close pair that building the entries
    again would merge stays two points, and a raw entry below ORIGIN_SNAP
    stays a point."""
    for empty in (Divisor(), Divisor((), 1)):
        for a, b in ((empty, other), (other, empty), (empty, other.negate())):
            side = b if b.points.size else a
            merged = a.merge(b)
            assert repr(_merge_state(merged)) == repr(
                (side.entries, a.origin_order + b.origin_order, side.moduli.tolist()))
            assert merged.points is side.points  # neither sorted nor screened again
    rebuilt = Divisor.build(other.entries, other.origin_order)
    if other.points.size == 2:  # the close pair merges, the raw entry snaps
        assert rebuilt.points.size == 1
    else:
        assert rebuilt == other


def test_a_reciprocal_keeps_the_negated_divisor():
    """1/g carries g's divisor negated, even where building its entries
    again would merge a close pair (the Divisor docstring's)."""
    x = Divisor.build([(1.0, 1), (1 + 1.98e-9, 1), (1 + 2.0200002e-9, 1)])
    assert x.points.size == 2
    got = Quotient(Const(1.0), RationalFromDivisor(1.0, x)).divisor_in_disc(4.0)
    assert got == x.negate()


def _greedy_build(pairs, origin_order=0, merge_tol=fnmodel.MERGE_TOL):
    """(entries, origin order) of Divisor.build with the greedy loop run on
    every point: the reference the screen must reproduce."""
    origin, pts = origin_order, []
    for p, m in pairs:
        if m == 0:
            continue
        p = complex(p)
        if abs(p) < fnmodel.ORIGIN_SNAP:
            origin += m
        else:
            pts.append((p, int(m)))
    entries = tuple(sorted(
        ((p, m) for p, _, m in fnmodel._greedy_cluster(pts, merge_tol) if m != 0),
        key=lambda e: (abs(e[0]), e[0].real, e[0].imag)))
    return entries, origin


_MULTS = (1, -1, 2, -3, 0, 1.0, -2.0, 2.5, 0.5, np.int64(2), np.int32(-1), np.int64(0))


def _edge_points(rng, tol):
    """A shuffled point set on the screen's edges.  Each feature comes with
    probability 1/2, so some sets have no close pair and some do: a shell of
    one modulus with a conjugate, a negative and an exact duplicate; a pair
    within 4 ulps of the merge distance and one of the scan window; parts
    equal to -0.0 and points below ORIGIN_SNAP."""
    pts = list(np.exp(rng.uniform(-5.0, 5.0, 4) + 1j * rng.uniform(0.0, TWO_PI, 4)))
    if rng.random() < 0.5:
        shell = np.exp(rng.uniform(-3.0, 4.0)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 5))
        pts += list(shell) + [shell[0].conjugate(), -shell[1]]
        if rng.random() < 0.5:
            pts.append(shell[2])
    if rng.random() < 0.5:
        # b on an axis and w = b + x off it, so |w - b| is x exactly: x is
        # within 4 ulps of the merge distance tol (1 + |b|)
        a = float(np.exp(rng.uniform(-2.0, 2.0)))
        x = tol * (1.0 + a)
        for _ in range(abs(k := int(rng.integers(-4, 5)))):
            x = math.nextafter(x, math.copysign(math.inf, k))
        pts += [complex(a, 0.0), complex(a, x)] if rng.random() < 0.5 else [
            complex(0.0, -a), complex(x, -a)]
    if rng.random() < 0.5:  # moduli within 4 ulps of the scan window's edge
        b = complex(3.0 * rng.standard_normal(), 3.0 * rng.standard_normal())
        x = b.real + 2.0 * tol * (1.0 + abs(b))
        for _ in range(abs(k := int(rng.integers(-4, 5)))):
            x = math.nextafter(x, math.copysign(math.inf, k))
        pts += [b, complex(x, b.imag)]
    if rng.random() < 0.5:
        y = float(rng.standard_normal())
        pts += [complex(-0.0, y), complex(y, -0.0), complex(-0.0, -0.0)]
        if rng.random() < 0.5:
            pts.append(complex(0.0, y))
    if rng.random() < 0.5:
        pts += list(1e-11 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    return [pts[k] for k in rng.permutation(len(pts))]


# shells of one modulus, signed zeros, pairs around the merge distance, and
# points below ORIGIN_SNAP
_BASE_POINTS = (1.0, -1.0, 1j, complex(-0.0, 1.0), complex(2.0, -0.0), 2j, -2.0, 1 + 1j, 0.5j)
_DIVISOR_POINTS = st.one_of(
    st.sampled_from(_BASE_POINTS),
    st.builds(lambda b, k: b + k * 1e-9, st.sampled_from(_BASE_POINTS), st.integers(-3, 3)),
    st.builds(complex, st.floats(-1e-10, 1e-10), st.floats(-1e-10, 1e-10)),
    complexes)
_DIVISOR_PAIRS = st.lists(st.tuples(_DIVISOR_POINTS, st.integers(-3, 3)), max_size=12)


def _pair_counting(entries, origin, r, kind):
    """N(r) by the loop over (point, multiplicity) pairs."""
    sign = 1 if kind == "zeros" else -1
    order = max(sign * origin, 0)
    total = order * math.log(r) if order else 0.0
    for p, m in entries:
        if abs(p) <= r and sign * m > 0:
            total += sign * m * math.log(r / abs(p))
    return total


_REMERGE = [(1.0, 1), (1 + 0.99 * 2e-9, 1), (1 + 1.0100001 * 2e-9, 1)]  # the Divisor docstring's


@given(_DIVISOR_PAIRS, st.integers(-2, 2), _DIVISOR_PAIRS, st.floats(0.05, 5.0))
@example(_REMERGE, 0, [], 1.0)
@example([], 0, _REMERGE, 1.0)
@settings(max_examples=150, deadline=None)
def test_divisor_columns_equal_the_pair_reference(pairs, origin, others, r):
    """Every operation on the columns against plain Python over the
    (point, multiplicity) pairs, at radii on the points too."""
    entries, org = _greedy_build(pairs, origin)
    d = Divisor.build(pairs, origin)
    assert repr((d.entries, d.origin_order)) == repr((entries, org))
    twin = Divisor([(complex(p.real or 0.0, p.imag or 0.0), m) for p, m in entries], org)
    assert d == twin and hash(d) == hash(twin) == hash((entries, org))  # -0.0 == 0.0
    for q in [r] + [abs(p) for p, _ in entries]:
        assert d.restrict(q).entries == tuple(e for e in entries if abs(e[0]) <= q)
        for rel in (CIRCLE_BAND, ON_CIRCLE_REL, 0.0):
            want = [p for p, _ in entries if abs(abs(p) - q) <= rel * q]
            assert d.band(q, rel).tolist() == want
        for kind in ("zeros", "poles"):
            assert counting(d, q, kind) == _pair_counting(entries, org, q, kind)
    for kind, sign in (("zeros", 1), ("poles", -1)):
        part = d.signed(kind)
        want = tuple((p, sign * m) for p, m in entries if sign * m > 0)
        assert (part.entries, part.origin_order) == (want, max(sign * org, 0))
        assert d.total(kind) == max(sign * org, 0) + sum(m for _, m in want)
    neg = d.negate()
    assert (neg.entries, neg.origin_order) == (tuple((p, -m) for p, m in entries), -org)
    assert d.multiset() == [0j] * abs(org) + [p for p, m in entries for _ in range(abs(m))]
    other = Divisor.build(others)
    if entries and other.entries:
        want = _greedy_build(list(entries) + list(other.entries), org + other.origin_order)
    else:  # a side with no points leaves the other's columns as they are
        want = (entries or other.entries, org + other.origin_order)
    merged = d.merge(other)
    assert repr((merged.entries, merged.origin_order)) == repr(want)


def test_divisor_merge_loops_only_over_the_runs_with_a_close_pair(monkeypatch):
    """The pole of 1/(z - 10 pi i) sits on a zero of exp(z) - 1: the two
    cancel, and of the lattice only the shell |z| = 10 pi that holds them
    goes through the greedy loop, with the divisor that the loop over the
    whole set gives."""
    lattice, pole = ExpPoly(Z, 1).divisor_in_disc(2e4), Divisor.build([(10j * math.pi, -1)])
    want = _greedy_build(list(lattice.entries) + list(pole.entries), lattice.origin_order)
    looped, greedy = [], fnmodel._greedy_cluster
    monkeypatch.setattr(fnmodel, "_greedy_cluster",
                        lambda pairs, tol: greedy(looped.append(list(pairs)) or looped[-1], tol))
    d = Product(ExpPoly(Z, 1), RationalFromDivisor(1, pole))._divisor_impl(2e4)
    assert repr((d.entries, d.origin_order)) == repr(want)
    assert len(d.entries) == len(lattice.entries) - 1
    assert [len(run) for run in looped] == [3]


@pytest.mark.parametrize("tol", [fnmodel.MERGE_TOL, fnmodel.ROOT_CLUSTER_TOL, 1e-13, 0.0])
def test_screened_clustering_equals_the_greedy_loop(tol, monkeypatch):
    """Divisor.build and cluster_roots give what the greedy loop over every
    point gives, signed zeros, value types and origin order included."""
    monkeypatch.setattr(fnmodel, "ROOT_CLUSTER_TOL", tol)  # the width cluster_roots reads
    rng = np.random.default_rng(13)
    paths = set()
    for _ in range(150):
        pts = _edge_points(rng, tol)
        pairs = [(p, _MULTS[int(rng.integers(len(_MULTS)))]) for p in pts]
        entries, origin = _greedy_build(pairs, 2, tol)
        d = Divisor.build(pairs, 2, merge_tol=tol)
        assert repr(d.entries) == repr(entries)
        assert repr(d.origin_order) == repr(origin)
        assert d.moduli.tolist() == [abs(p) for p, _ in d.entries]
        for roots in (pts, np.array(pts)):
            want = [(c, n) for c, n, _ in fnmodel._greedy_cluster(((w, 1) for w in roots), tol)]
            assert repr(cluster_roots(roots)) == repr(want)
        paths.add(bool(fnmodel._screen(np.array(pts), tol)[2][0]))
    assert paths == {True, False}  # both the screen and the loop were taken


def test_screen_pairs_points_within_a_row_only():
    """3j ends the first row and, after -3 on its shell, sits in the second:
    no close pair.  The last row has a double root."""
    rows = np.array([[2.0, 1.0, 3j], [3j, -3.0, 5.0], [7.0, 4.0 + 1e-7, 4.0]])
    order, mod, alone = fnmodel._screen(rows, fnmodel.ROOT_CLUSTER_TOL)
    assert alone.tolist() == [True, True, False]
    assert order.tolist() == [[1, 0, 2], [1, 0, 2], [2, 1, 0]]
    assert mod.tolist() == [[1.0, 2.0, 3.0], [3.0, 3.0, 5.0], [4.0, 4.0 + 1e-7, 7.0]]


@pytest.mark.parametrize("coeffs, double_roots", [
    ((0j, 0j, 1.0), 1), ((0j, -3.0, 0j, 1.0), 2), ((1.0, -2.0, 1.0), 1), ((0j, 1.0, 1.0), 0)])
def test_pull_back_equals_clustering_every_row(coeffs, double_roots):
    """Only rows with a close pair go through cluster_roots; the result is
    that of clustering every row.  The targets 0, 2 and -2 give the double
    roots of z^2 = 0, z^3 - 3z = -+2 and (z - 1)^2 = 0."""
    p = Polynomial(coeffs)
    rng = np.random.default_rng(5)
    ws = [0j, 2.0, -2.0] + list(3.0 * (rng.standard_normal(12) + 1j * rng.standard_normal(12)))
    targets = [(w, int(rng.choice([1, -1, 2, -3]))) for w in ws]
    rows = roots_of_shifts(p, ws)
    assert np.sum(~fnmodel._screen(rows, fnmodel.ROOT_CLUSTER_TOL)[2]) == double_roots
    for r in (0.5, 1.0, 1.5, 2.0, 10.0):
        pairs = [(root, m * k) for (_, m), row in zip(targets, rows)
                 for root, k, _ in fnmodel._greedy_cluster(((w, 1) for w in row),
                                                           fnmodel.ROOT_CLUSTER_TOL)
                 if abs(root) <= r]
        entries, origin = _greedy_build(pairs)
        d = fnmodel._pull_back(p, np.array(ws), np.array([m for _, m in targets]), r)
        assert repr(d.entries) == repr(entries) and repr(d.origin_order) == repr(origin)


def test_c05_divisors_merge_without_the_greedy_loop(monkeypatch):
    """On the divisors c05 reads at rq = 8 ... 64, the screen leaves the
    greedy loop only the w = 0 row of z^2 = w, which has a double root; no
    Divisor merge runs it."""
    greedy, calls = fnmodel._greedy_cluster, []

    def counted(pairs, rel_tol):
        pairs = list(pairs)
        calls.append((rel_tol, [w for w, _ in pairs]))
        return greedy(pairs, rel_tol)

    monkeypatch.setattr(fnmodel, "_greedy_cluster", counted)
    f, pair = ExpPoly(Z), PolyPair.build(Polynomial((0j, 1.0, 1.0)), Z2)
    phi = compose_poly(f, pair.phi)
    exprs = [subtract(compose_poly(f, pair.omega), phi)] + [
        Quotient(Const(1.0), subtract(phi, Const(a))) for a in (1.0, -1.0)]
    fnmodel._divisor_cached.cache_clear()
    sizes = [len(e.divisor_in_disc(rq).entries) for rq in (8.0, 16.0, 32.0, 64.0) for e in exprs]
    assert min(sizes) > 0 and max(sizes) > 2000
    assert [tol for tol, _ in calls] == [fnmodel.ROOT_CLUSTER_TOL] * 4
    for _, row in calls:
        assert len(row) == 2 and abs(row[0]) < 1e-7 and abs(row[1]) < 1e-7


def test_a_disc_read_from_a_larger_one_equals_a_fresh_solve(members):
    """Queried in random order, a disc that lies inside the largest disc
    already solved restricts that divisor; it equals the divisor solved
    afresh on the disc itself."""
    rng = np.random.default_rng(24)
    z2_z = Polynomial((0j, 1.0, 1.0))
    exp_z = members["exp_z"].expr
    exprs = [ExpPoly(Z2, 1.0), ExpPoly(Z2, -1.0), Quotient(Const(1.0), ExpPoly(Z2, 1.0)),
             subtract(compose_poly(exp_z, z2_z), compose_poly(exp_z, Z2)),
             compose_poly(members["orbit_left_m6"].expr, z2_z)]
    radii = rng.permutation(np.concatenate((np.exp(rng.uniform(-1.0, math.log(60.0), 24)),
                                            [0.5, 4.0, 8.0, 16.0, 32.0, 33.0])))
    for f in exprs:
        fnmodel._divisor_cached.cache_clear()
        read = [f.divisor_in_disc(r) for r in radii]
        assert fnmodel._divisor_cached.cache_info().hits > 0
        for r, d in zip(radii, read):
            fnmodel._divisor_cached.cache_clear()
            assert d == f.divisor_in_disc(r)


def test_a_group_across_the_disc_edge_merges_on_the_larger_disc_only():
    """The exception of divisor_in_disc's docstring: a merged group that
    straddles |z| = 8 is one point read from disc 16, not from disc 8."""
    f = Product(RationalFromDivisor(1.0, Divisor([(8 - 1e-9, 1)])),
                RationalFromDivisor(1.0, Divisor([(8 + 1e-9, 1)])))
    fnmodel._divisor_cached.cache_clear()
    f.divisor_in_disc(16.0)
    assert f.divisor_in_disc(8.0).entries == ((8 + 0j, 2),)
    fnmodel._divisor_cached.cache_clear()
    assert f.divisor_in_disc(8.0).entries == ((8 - 1e-9 + 0j, 1),)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


def test_exppoly_eval_matches_cmath():
    f = ExpPoly(Polynomial((0.5, 0j, 1.0)))
    for z in (0.2 - 0.7j, 1.5, -2.0j):
        want = cmath.exp(0.5 + z * z)
        assert abs(f.eval(z) - want) <= 1e-12 * abs(want)


def test_exp_minus_a_keeps_its_bits_deep_below_a():
    # on |z| = 7 near theta = 1.106, Re z^2 is about -29.3: e^{z^2} is about
    # 2e-13, and log|e^{z^2} - 1| (about 1e-13, crossing 0) must keep the
    # relative bits of log|1 - s|, not the absolute bits of 1 - s
    mpmath = pytest.importorskip("mpmath")
    f = ExpPoly(Polynomial((0j, 0j, 1.0)), 1.0)
    z = 7.0 * np.exp(1j * np.linspace(1.1055, 1.1065, 41))
    with mpmath.workdps(30):
        want = np.array([float(mpmath.log(abs(mpmath.exp(mpmath.mpc(v.real, v.imag) ** 2) - 1)))
                         for v in z])
    assert np.all(np.abs(f._log_mod(z) - want) <= 1e-11 * np.abs(want))
    assert np.array_equal(f._log_parts(z)[0], f._log_mod(z))


def test_rational_eval_matches_direct_product():
    f = rational([1.0, -2.0j], [3.0], scale=2.0)
    z = 0.4 + 0.9j
    want = 2.0 * (z - 1.0) * (z + 2.0j) / (z - 3.0)
    assert abs(f.eval(z) - want) <= 1e-12 * abs(want)


def test_rational_eval_raises_at_pole():
    f = rational([1.0], [2.0])
    with pytest.raises(PoleSignal):
        f.eval(2.0)


def test_scalar_eval_signals_poles_and_overflow(members):
    pole0 = members["rat_pole0"].expr  # 1/z
    for z in (0.0, 1e-13):  # on the pole, and within POLE_TOL of it
        with pytest.raises(PoleSignal):
            pole0.eval(z)
    for key, z in (("exp_z", 800.0), ("exp_exp_z", 10.0)):
        with pytest.raises(OverflowSignal):
            members[key].expr.eval(z)
    for f, z in ((pole0, 0.0), (rational([1.0], [2.0]), 2.0)):
        with pytest.raises(PoleSignal):
            f.logmod_eval(z)
    assert Const(0.0).logmod_eval(1.0) == (-math.inf, 0.0)


def test_quotient_and_product_agree_with_parts():
    a = ExpPoly(Z)
    b = rational([1.0], [])
    z = 0.3 + 0.2j
    q = Quotient(a, b)
    p = Product(a, b)
    assert abs(q.eval(z) - a.eval(z) / b.eval(z)) < 1e-12 * abs(a.eval(z) / b.eval(z))
    assert abs(p.eval(z) - a.eval(z) * b.eval(z)) < 1e-12 * abs(a.eval(z) * b.eval(z))


def test_tower_eval_is_double_exponential():
    g = Exp(ExpPoly(Z))
    z = 0.1 + 0.2j
    want = cmath.exp(cmath.exp(z))
    assert abs(g.eval(z) - want) <= 1e-12 * abs(want)


def test_logplus_scalar_and_array():
    assert logplus(np.array(-3.0)).item() == 0.0
    out = logplus(np.array([-1.0, 0.0, 2.0]))
    assert out.tolist() == [0.0, 0.0, 2.0]


@given(complexes.filter(lambda w: 0.05 < abs(w) < 4.0))
@settings(max_examples=40, deadline=None)
def test_log_parts_consistent_with_values(w):
    f = ExpPoly(Z, 1.0)  # e^z - 1
    lm, ag = f._log_parts(np.asarray([w]))
    v = f._values(np.asarray([w]))[0]
    if math.isfinite(lm[0]):
        assert abs(abs(v) - math.exp(lm[0])) <= 1e-9 * (1.0 + abs(v))
        assert abs(cmath.exp(1j * (ag[0] - cmath.phase(v))) - 1.0) <= 1e-7


def test_values_are_nan_where_log_modulus_is_nan():
    z = np.full(4096, complex(math.nan, math.nan))
    for f in (ExpPoly(Z2), ExpPoly(Z2, 1.0)):
        junk = np.full(4096, 7 + 3j)
        del junk  # a freed block of the size _values allocates
        assert np.all(np.isnan(f._values(z)))


def _loop_reference(f: RationalFromDivisor, z):
    """log|f|, arg f and f'/f of a rational by one pass per divisor point."""
    lm = np.full(z.shape, math.log(abs(f.scale)))
    ag = np.full(z.shape, cmath.phase(f.scale))
    ld = np.zeros(z.shape, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        if f.divisor.origin_order:
            o = f.divisor.origin_order
            lm = lm + o * np.log(np.abs(z))
            ag = ag + o * np.angle(z)
            ld = ld + o / z
        for p, m in f.divisor.entries:
            d = z - p
            lm = lm + m * np.log(np.abs(d))
            ag = ag + m * np.angle(d)
            ld = ld + m / (z - p)
    return lm, ag, ld


@pytest.fixture(scope="module")
def reference_rationals(members):
    out = {key: m.expr for key, m in members.items()
           if isinstance(m.expr, RationalFromDivisor)}
    out["orbit_left_30"] = build_orbit_function(figure_family("left", 30))
    out["orbit_right_60"] = build_orbit_function(figure_family("right", 60))
    out["constant"] = RationalFromDivisor(-2.5, Divisor())
    # At x - 0j right of its zeros every arg term is -0.0, and so is the
    # phase: a sum started from 0 instead of the phase would give +0.0.
    out["signed_zero_phase"] = RationalFromDivisor(
        complex(2.0, -0.0), Divisor.build([(-1.0, 1), (-0.5, 2)], 1))
    return out


def _reference_nodes(f: RationalFromDivisor):
    thetas = {n: np.linspace(0.0, 2 * math.pi, n, endpoint=False) + 0.1
              for n in (1, 2, 7, 64, 1525)}
    for r in (0.3, 1.0, 2.5, 20.0, 1e3, 1e6, 1e11):
        for t in thetas.values():
            yield r * np.exp(1j * t)
    exact = np.array([0j] + [p for p, _ in f.divisor.entries])
    yield exact
    yield exact[:1]
    yield np.array([complex(x, y) for x in (3.0, 4.0) for y in (0.0, -0.0)])
    yield np.full((3, 4), 1.5 - 0.25j)  # not 1-D


def test_divisor_channels_equal_the_loop_bit_for_bit(reference_rationals):
    for key, f in reference_rationals.items():
        for z in _reference_nodes(f):
            lm, ag, ld = _loop_reference(f, z)
            got_lm, got_ag = f._log_parts(z)
            for want, got in ((lm, got_lm), (ag, got_ag), (lm, f._log_mod(z)),
                              (ld, f._logderivs(z))):
                assert got.shape == want.shape, key
                for part in (np.real, np.imag):  # signed zeros too
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), key
                assert np.array_equal(got, want, equal_nan=True), (key, z.size)


def test_divisor_channels_keep_the_sentinels(reference_rationals):
    f = reference_rationals["orbit_right_60"]
    zeros = np.array([p for p, m in f.divisor.entries if m > 0])
    poles = np.array([p for p, m in f.divisor.entries if m < 0])
    assert zeros.size and poles.size
    assert np.all(f._log_mod(zeros) == -np.inf)
    assert np.all(f._log_mod(poles) == np.inf)
    g = reference_rationals["rat_pole0"]
    assert g._log_mod(np.zeros(1, dtype=complex))[0] == np.inf


def test_angles_survive_an_underflowing_phase():
    """cmath.phase raises OverflowError where the angle underflows, as for
    2 + 5e-324j; math.atan2 gives 0.0, and the bits of cmath.phase on
    normal values."""
    z = np.array([0.5j, 3.0, -2.0 + 1.0j])
    lm, ag = Const(2 + 5e-324j)._log_parts(z)
    assert np.all(lm == math.log(2.0)) and np.all(ag == 0.0)
    f = RationalFromDivisor(2 + 5e-324j, Divisor.build([(1.0, 1)]))
    want = RationalFromDivisor(2.0, f.divisor)._log_parts(z)
    assert all(np.array_equal(a, b) for a, b in zip(f._log_parts(z), want))
    assert subtract(f, Const(1.0)).divisor.entries == ((1.5 + 0j, 1),)  # 2 (z - 1) = 1
    # Re((5e-324 - 2i) e^{it}) = 0 has the lead 2 + 5e-324j in the arcsin path
    assert np.allclose(_closed_form_angles(ExpPoly(Polynomial((0j, 5e-324 - 2j))), 1.0),
                       [0.0, math.pi])
    for v in (complex(-1.0, 0.0), complex(-1.0, -0.0), 1j, complex(3.0, -4.0), complex(-0.0, -2.0)):
        assert repr(float(Const(v)._log_parts(z)[1][0])) == repr(cmath.phase(v))


def test_log_mod_is_the_modulus_of_log_parts_through_the_tree(reference_rationals):
    left = reference_rationals["orbit_left_m6"]
    right = reference_rationals["orbit_right_m6"]
    exprs = [Product(left, right), Quotient(Const(1.0), right),
             compose_poly(left, Polynomial((0.5, 0j, 1.0))),
             Product(ExpPoly(Z2, 1.0), Quotient(Const(1), compose_poly(right, Z2)))]
    z = np.concatenate([r * np.exp(1j * np.linspace(0.1, 6.3, 64))
                        for r in (0.3, 2.0, 9.0)])
    z = np.concatenate([z, [0j], [p for p, _ in right.divisor.entries]])
    for f in exprs:
        assert np.array_equal(f._log_mod(z), f._log_parts(z)[0], equal_nan=True)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    for part in (np.real, np.imag):  # signed zeros too
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
    assert np.array_equal(got, want, equal_nan=True)


def test_products_and_quotients_combine_their_sides_bit_for_bit():
    """Each log channel of f g is the sides' sum, and of f / g their
    difference, exactly: on the compound counts of the contour tests and on
    smt's reciprocal 1/(e^{z^2} - 1), through the zeros of e^z - 1.  Their
    contour counts read the one side with zeros, signed as the channels
    combine."""
    one, em1 = Const(1.0), ExpPoly(Z, 1.0)
    cases = [(Quotient(one, em1), np.subtract), (Product(ExpPoly(Z2), em1), np.add),
             (Quotient(one, ExpPoly(Z2, 1.0)), np.subtract)]
    z = np.concatenate([r * np.exp(1j * np.linspace(0.05, 6.3, 97)) for r in (0.5, 3.0, 7.0, 20.0)]
                       + [2j * math.pi * np.arange(-3, 4)])
    for f, op in cases:
        (la, aa), (lb, ab) = f.lhs._log_parts(z), f.rhs._log_parts(z)
        lm, ag = f._log_parts(z)
        _assert_same_bits(lm, op(la, lb))
        _assert_same_bits(ag, op(aa, ab))
        _assert_same_bits(f._log_mod(z), op(f.lhs._log_mod(z), f.rhs._log_mod(z)))
        assert list(nevanlinna._signed_leaves(f)) == [(f.rhs, 1 if op is np.add else -1)]


def test_exp_values_are_exp_of_the_exponent_below_the_overflow():
    """exp(u) takes its values through its log channel: exp(u(z)) where
    Re u < 709 and inf above, on a grid that has both."""
    for f, x_max in ((Exp(ExpPoly(Z)), 7.5), (Exp(Exp(ExpPoly(Z))), 2.6)):
        x, y = np.meshgrid(np.linspace(-2.0, x_max, 24), np.linspace(-3.2, 3.2, 25))
        z = (x + 1j * y).ravel()
        w = f.child._values(z)
        assert np.isfinite(w).all()
        small = w.real < 709.0
        assert small.any() and not small.all()
        got = f._values(z)
        assert np.array_equal(got[small], np.exp(w[small]))
        assert np.all(got[~small] == np.inf)


def test_eval_where_the_exponent_overflows():
    exp_z, tower = Exp(ExpPoly(Z)), Exp(Exp(ExpPoly(Z)))
    for f, z in ((exp_z, 800.0), (tower, 7.0)):  # e^800 and e^{e^7} leave the range
        with pytest.raises(OverflowSignal, match=r"^the exponent of exp\(child\) is not finite here"):
            f.eval(z)
    for f, z in ((exp_z, 10.0), (tower, 3.0)):  # a finite exponent above 709
        with pytest.raises(OverflowSignal, match="exceeds the floating range"):
            f.eval(z)
    with pytest.raises(ValueError):
        exp_z.eval(complex(math.nan, 0.0))


def test_divisor_sums_stay_chunked():
    f = build_orbit_function(figure_family("right", 6))
    n_points = len(f.divisor.entries) + bool(f.divisor.origin_order)
    z = 7.0 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 200_000))
    tracemalloc.start()
    try:
        f._log_parts(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unchunked = n_points * z.size * 16  # one complex (points, nodes) array
    outputs = 2 * z.size * 8
    assert peak < outputs + 4 * 1024 * 1024
    assert peak < unchunked / 10


# ---------------------------------------------------------------------------
# circle fold of divisor rationals
# ---------------------------------------------------------------------------

FOLD_RADII = {"orbit_left_30": (3.0, 20.0, 50.0, 300.0),
              "orbit_right_60": (10.0, 1e4, 1e8, 1e11)}
# the radius ranges the benchmark's sweep draws from
SWEEP_RANGES = {"orbit_left_30": (1.0, 3e3), "orbit_right_60": (1.0, 1e12)}


def _angles(n):
    return np.linspace(0.0, 2 * math.pi, n, endpoint=False) + 0.3


def _circle(r, n):
    return r * np.exp(1j * _angles(n))


def _form_log(form, r, n):
    """log|f| at ``_circle(r, n)`` through a circle form, as the closed-form
    mean reads it."""
    return fnmodel._log_slope(form, r, _angles(n))[0]


def _form_slope(form, r, n):
    """The theta-slope -Im(z f'/f) of log|f| at ``_circle(r, n)`` through a
    circle form, as the kink search reads it."""
    return fnmodel._log_slope(form, r, _angles(n))[1]


def _wrap(x):
    return (x + math.pi) % TWO_PI - math.pi


def _arg_offsets(form, r, n, want_arg):
    """The arg channel of a circle form plus origin_order * theta, less
    arg f, at ``_circle(r, n)``, taken to [-pi, pi) about its first value:
    0 where the channel is arg f up to a constant, modulo 2pi."""
    d = fnmodel._arg_sum(form, r, _angles(n)) + form[0].origin_order * _angles(n) - want_arg
    return np.abs(_wrap(d - d[0]))


def _arg_channel_slope(form, r, n, h=1e-5):
    """The theta-slope of the arg channel of a circle form at
    ``_circle(r, n)``, by the four-point central difference of its wrapped
    changes; for f it is Re(z f'/f) - origin_order."""
    t = _angles(n)
    s = [fnmodel._arg_sum(form, r, t + k * h) for k in (-2, -1, 1, 2)]
    return (8.0 * _wrap(s[2] - s[1]) - _wrap(s[3] - s[0])) / (12.0 * h)


def _exact_channels(f: RationalFromDivisor, z):
    """log|f|, z f'/f and arg f at each z, from the divisor in 40-digit
    decimals: arg f is read from the direction of f |den|^2, the product of
    scale, z^origin_order and each (z - b)^m, conjugated where m < 0."""
    D = decimal.Decimal
    lms, zlds, args = [], [], []
    with decimal.localcontext(decimal.Context(prec=40)):
        for zz in z:
            x, y = D(zz.real), D(zz.imag)
            # |f|^2 as one product, so that a single logarithm is taken
            mod2 = ((D(f.scale.real) ** 2 + D(f.scale.imag) ** 2)
                    * (x * x + y * y) ** f.divisor.origin_order)
            zld_re, zld_im = D(f.divisor.origin_order), D(0)
            qr, qi = D(f.scale.real), D(f.scale.imag)
            for p, m in ((0j, f.divisor.origin_order),) + f.divisor.entries:
                dx, dy = x - D(p.real), y - D(p.imag)
                if p:
                    s = dx * dx + dy * dy
                    mod2 *= s ** m
                    zld_re += m * (x * dx + y * dy) / s  # m z conj(z - b) / |z - b|^2
                    zld_im += m * (y * dx - x * dy) / s
                dy = dy if m > 0 else -dy
                for _ in range(abs(m)):
                    qr, qi = qr * dx - qi * dy, qr * dy + qi * dx
            big = max(abs(qr), abs(qi))
            lms.append(float(mod2.ln() / 2))
            zlds.append(complex(float(zld_re), float(zld_im)))
            args.append(math.atan2(float(qi / big), float(qr / big)))
    return np.array(lms), np.array(zlds), np.array(args)


def test_circle_fold_matches_a_40_digit_sum(reference_rationals):
    # log|f| and its theta-slope -Im(z f'/f), and the arg channel of the
    # contour counts: arg f modulo 2pi, its slope Re(z f'/f) less the origin
    for key, radii in FOLD_RADII.items():
        f = reference_rationals[key]
        for r in radii:
            form = fnmodel._circle_form(f, r)
            assert form[0] != f.divisor, (key, r)  # some group folds
            z = _circle(r, 7)
            want_lm, want_zld, want_arg = _exact_channels(f, z)
            for got, want in ((_form_log(form, r, 7), want_lm),
                              (_form_slope(form, r, 7), -want_zld.imag)):
                assert np.all(np.abs(got - want) <= 1e-14 * (1 + np.abs(want))), (key, r)
            assert _arg_offsets(form, r, 7, want_arg).max() <= 1e-12, (key, r)
            want = want_zld.real - form[0].origin_order
            got = _arg_channel_slope(form, r, 7)
            assert np.all(np.abs(got - want) <= 1e-7 * (1 + np.abs(want))), (key, r)


def test_circle_fold_agrees_with_the_direct_sum(reference_rationals):
    for key, (lo, hi) in SWEEP_RANGES.items():
        f = reference_rationals[key]
        for r in np.geomspace(lo, hi, 40):
            form = fnmodel._circle_form(f, r)
            z = _circle(r, 64)
            zld = z * f._logderivs(z)
            for got, want in ((_form_log(form, r, 64), f._log_mod(z)),
                              (_form_slope(form, r, 64), -zld.imag)):
                assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want))), (key, r)
            assert _arg_offsets(form, r, 64, f._log_parts(z)[1]).max() <= 1e-11, (key, r)


def _fold_terms(weight, q, log=True):
    """Fewest series terms K with weight q^(K+1) / ((K+1 if log) (1-q)) <= 2^-54."""
    k = 0
    while weight * q ** (k + 1) / ((k + 1 if log else 1) * (1 - q)) > 2.0**-54:
        k += 1
    return k


def test_circle_fold_splits_at_half_and_twice_the_radius(reference_rationals):
    # one plan: both series of the form are cut at the K of log|f|
    folded = 0
    for key, (lo, hi) in SWEEP_RANGES.items():
        f = reference_rationals[key]
        entries = f.divisor.entries
        for r in np.geomspace(lo, hi, 40):
            div, _, a, b = fnmodel._circle_form(f, r)
            groups = {True: [e for e in entries if abs(e[0]) <= r / 2],
                      False: [e for e in entries if abs(e[0]) >= 2 * r]}
            direct = {e for e in entries if r / 2 < abs(e[0]) < 2 * r}
            origin, terms = f.divisor.origin_order, {}
            for inner, group in groups.items():
                if not group:
                    continue
                q = max(abs(p) / r if inner else r / abs(p) for p, _ in group)
                k = _fold_terms(sum(abs(m) for _, m in group), q)
                if len(group) > k:
                    terms[inner] = k
                    origin += inner * sum(m for _, m in group)
                else:
                    direct |= set(group)
            assert set(div.entries) == direct and div.origin_order == origin, (key, r)
            assert a.size == b.size == max(terms.values(), default=0), (key, r)
            folded += bool(terms)
    assert folded > 70


def test_fold_series_helpers_keep_every_term():
    rng = np.random.default_rng(5)
    u = 0.5 * rng.uniform(size=30) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 30))
    m = rng.integers(-3, 4, 30).astype(float)
    want = [np.sum(m * u**j) for j in range(1, 12)]
    assert np.max(np.abs(fnmodel._power_sums(u, m, 11) - want)) < 1e-13


def _eager_fold_plans(f, r):
    """The fold's two channel plans, log|f| and z f'/f, each cut at its own
    K as they were before one circle form: every group's powers formed up
    to the longer series of the two, and each channel's coefficients sliced
    from them."""
    d = f.divisor
    b, m = d.points, d.mults
    mod = np.abs(b)
    groups = []
    for inner, mask in ((True, mod <= 0.5 * r), (False, mod >= r / 0.5)):
        n = int(np.count_nonzero(mask))
        if not n:
            continue
        u = b[mask] / r if inner else r / b[mask]
        q, weight = float(np.max(np.abs(u))), float(np.sum(np.abs(m[mask])))
        ks = [_fold_terms(weight, q, log) for log in (True, False)]
        ks = [k if n > k else None for k in ks]
        top = max((k for k in ks if k is not None), default=0)
        groups.append((inner, mask, fnmodel._power_sums(u, m[mask], top), ks))
    plans = []
    for channel, start in ((0, math.log(abs(f.scale))), (1, 0j)):
        keep, origin, series = np.ones(b.size, dtype=bool), d.origin_order, []
        for inner, mask, c, ks in groups:
            k = ks[channel]
            if k is None:
                continue
            keep &= ~mask
            if inner:
                origin += int(np.sum(m[mask]))
            elif channel == 0:
                start += math.fsum(m[mask] * np.log(mod[mask]))
            if k:
                series.append((inner, c[:k] / np.arange(1, k + 1) if channel == 0 else c[:k]))
        div = d if keep.all() else Divisor(
            tuple(d.entries[i] for i in np.flatnonzero(keep).tolist()), origin)
        plans.append((div, start, series))
    (div, start, series), der = plans
    coeffs = np.zeros(max((c.size for _, c in series), default=0), dtype=np.complex128)
    for inner, c in series:
        coeffs[:c.size] += np.conj(c) if inner else c
    return (div, start, coeffs), der


def _eager_zlogderiv(der, r, z):
    """z f'/f from the eager plan of that channel, each group's series cut
    at its own K and summed by a Horner loop of its own."""
    div, _, series = der
    zld = z * RationalFromDivisor(1.0, div)._logderivs(z)
    w = z / r
    for inner, c in series:
        s = np.zeros_like(w)
        for ck in c[::-1]:
            s = (s + ck) * (np.conj(w) if inner else w)
        zld += s if inner else -s
    return zld


def test_circle_form_equals_the_eager_log_plan(reference_rationals):
    # the sweep's functions over its radius ranges, 32 and 64 radii as it runs them
    for key, count in (("orbit_left_30", 32), ("orbit_right_60", 64)):
        f = reference_rationals[key]
        lo, hi = SWEEP_RANGES[key]
        for r in np.geomspace(lo, hi, count):
            (div, start, coeffs), der = _eager_fold_plans(f, r)
            form = fnmodel._circle_form(f, r)
            assert form[0] == div and form[1] == start, (key, r)
            assert np.array_equal(form[2], coeffs), (key, r)
            if div == f.divisor:  # nothing folds: the divisor itself, no series
                assert form[0] is f.divisor and not form[3].size, (key, r)
            # z f'/f read from the one plan, against the eager channel's own:
            # -Im as the slope of log|f|, Re as the slope of the arg channel
            want = _eager_zlogderiv(der, r, _circle(r, 64))
            got = _form_slope(form, r, 64)
            assert np.all(np.abs(got + want.imag) <= 1e-14 * (1 + np.abs(want))), (key, r)
            got = _arg_channel_slope(form, r, 64)
            want = want.real - form[0].origin_order
            assert np.all(np.abs(got - want) <= 1e-7 * (1 + np.abs(want))), (key, r)


def test_circle_fold_memory_stays_a_few_node_arrays(reference_rationals):
    # a contour count samples the form's arg channel on the certificate's
    # few hundred angles only, and a count that falls back to the
    # quadrature reads z f'/f of the expression through the chunked divisor
    # kernel, on up to MAX_CALL_NODES nodes a call
    f = reference_rationals["orbit_right_60"]
    form = fnmodel._circle_form(f, 1e4)
    assert form[3].size
    z = _circle(1e4, 50_000)
    peaks = []
    for run in (lambda: fnmodel._winding_count(f, form, 1e4), lambda: f._logderivs(z)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    cell = 16 * fnmodel._DIVISOR_CELLS  # one chunk's (points, nodes) block
    assert peaks[0] < 4 * cell
    assert peaks[1] < 8 * z.nbytes  # one (points, nodes) array would be over 200 z.nbytes


def test_circle_form_of_a_small_rational_is_its_divisor_and_others_build_none(
        members, monkeypatch):
    # a rational with too few points to fold is read unfolded; the counts of
    # every other member read its own f'/f and build no circle form
    for key in ("rat_pole0", "rat_zero1_pole2"):
        f = members[key].expr
        for r in (0.5, 3.0, 1e3):
            div, start, a, b = fnmodel._circle_form(f, r)
            assert div is f.divisor and start == math.log(abs(f.scale)), (key, r)
            assert not a.size and not b.size, (key, r)
    monkeypatch.setattr(fnmodel, "_circle_form", None)
    monkeypatch.setattr(nevanlinna, "_circle_form", None)
    for key in ("exp_z", "exp_exp_z", "expz_minus_1"):
        for r in (0.5, 3.0):
            nevanlinna.argument_principle_count(members[key].expr, r)


# ---------------------------------------------------------------------------
# structural rewrites
# ---------------------------------------------------------------------------


def test_subtract_const_from_exppoly():
    g = subtract(ExpPoly(Z), Const(1.0))
    assert isinstance(g, ExpPoly)
    assert g.a == 1.0


def test_subtract_folds_nested_constants():
    g = subtract(ExpPoly(Z, 1.0), Const(2.0))
    assert isinstance(g, ExpPoly) and g.a == 3.0


def test_subtract_keeps_a_signed_zero_in_a():
    g = subtract(ExpPoly(Z), Const(complex(-1.0, -0.0)))
    assert math.copysign(1.0, g.a.imag) == -1.0


def test_subtract_exp_exp_rewrite_needs_plain_exponentials():
    for f, g in ((ExpPoly(Z2, 1.0), ExpPoly(Z)), (ExpPoly(Z2), ExpPoly(Z, 1.0))):
        with pytest.raises(OpaqueExpr):
            subtract(f, g)
    # e^{z^2} - e^z = e^z (e^{z^2 - z} - 1): the zeros of z^2 - z = 2 pi i k
    d = subtract(ExpPoly(Z2), ExpPoly(Z)).divisor_in_disc(1.5)
    assert d.origin_order == 1 and d.entries == ((1.0 + 0j, 1),)


def test_compose_poly_keeps_the_constant():
    assert compose_poly(ExpPoly(Z, 2.0), Z2) == ExpPoly(Z2, 2.0)


def test_quotient_is_entire_only_over_zero_free_denominators():
    assert Quotient(Const(1.0), ExpPoly(Z)).is_entire
    assert Quotient(Const(1.0), Exp(ExpPoly(Z))).is_entire
    assert not Quotient(Const(1.0), ExpPoly(Z, 1.0)).is_entire


def test_subtract_rational_const_moves_zeros():
    # (z-1)/(z-2) - 3 has its only zero where z-1 = 3(z-2), i.e. z = 2.5
    f = rational([1.0], [2.0])
    g = subtract(f, Const(3.0))
    d = g.divisor_in_disc(5.0)
    zeros = d.signed("zeros").multiset()
    assert len(zeros) == 1 and abs(zeros[0] - 2.5) < 1e-10
    poles = d.signed("poles").multiset()
    assert len(poles) == 1 and abs(poles[0] - 2.0) < 1e-10


def test_subtract_exp_exp_rewrite_evaluates_correctly():
    a = ExpPoly(Polynomial((0j, 0j, 1.0)))  # e^{z^2}
    b = ExpPoly(Z)                          # e^z
    g = subtract(a, b)
    for z in (0.7, 0.2 + 0.3j, -1.1j):
        want = a.eval(z) - b.eval(z)
        assert abs(g.eval(z) - want) <= 1e-10 * (1.0 + abs(want))


def test_generic_difference_stays_opaque():
    with pytest.raises(OpaqueExpr, match="ExpPoly - RationalFromDivisor has no rewrite"):
        subtract(ExpPoly(Z), rational([1.0], []))


def test_the_family_stays_closed():
    """subtract raises where no rewrite exists, and every member of the
    family that the package exports solves its own divisor."""
    for f, g in ((Exp(ExpPoly(Z)), Const(1.0)),
                 (rational([1.0], [2.0]), rational([3.0], [])),
                 (ExpPoly(Z2, 2.0), ExpPoly(Z))):
        with pytest.raises(OpaqueExpr, match="has no rewrite into the family"):
            subtract(f, g)
    members = [v for v in vars(nevlab).values() if isinstance(v, type)
               and issubclass(v, fnmodel.FunctionExpr) and v is not fnmodel.FunctionExpr]
    assert {cls.__name__ for cls in members} == {
        "Const", "RationalFromDivisor", "ExpPoly", "Exp", "Product", "Quotient"}
    for cls in members:
        assert "_divisor_impl" in vars(cls), cls


def test_compose_poly_evaluates_as_composition():
    w = Polynomial((0j, 1.0, 1.0))  # z^2 + z
    # 2 (z - 3) / z^2 at a p with lead 3 - i: the scale takes lead^(1 - 2)
    p = Polynomial((1.0, 0.5, 3.0 - 1.0j))
    cases = [(rational([1.0], [-1.0]), w),
             (RationalFromDivisor(2.0, Divisor.build([(3.0, 1)], -2)), p),
             (Exp(ExpPoly(Z, 0.5)), p), (Product(ExpPoly(Z), rational([1.0], [])), p)]
    for f, q in cases:
        g = compose_poly(f, q)
        assert type(g) is type(f)
        for z in (0.3 - 0.4j, 1.1 + 0.2j):
            want = f.eval(q(z))
            assert abs(g.eval(z) - want) <= 1e-11 * (1.0 + abs(want))
    assert compose_poly(cases[1][0], p).scale == pytest.approx(2.0 / (3.0 - 1.0j), rel=1e-15)


COMPOSE_P = {"z+1": Polynomial((1.0, 1.0)), "z^2+z": Polynomial((0j, 1.0, 1.0)),
             "0.5+z^2": Polynomial((0.5, 0j, 1.0))}


@pytest.mark.parametrize("p", COMPOSE_P.values(), ids=COMPOSE_P.keys())
@pytest.mark.parametrize("key", ["rat_zero1_pole2", "rat_pole0", "orbit_left_m6",
                                 "orbit_right_m6"])
def test_composed_rational_channels_are_the_child_channels_at_p(members, key, p):
    """f(p) is the rational of the pulled-back divisor: its log|f| is that of
    f at p(z), and its f'/f is p'(z) (f'/f)(p(z)), to rounding."""
    f = members[key].expr
    g = compose_poly(f, p)
    assert isinstance(g, RationalFromDivisor)
    z = np.concatenate([r * np.exp(1j * np.linspace(0.1, 6.3, 64)) for r in (0.3, 2.0, 9.0)])
    for got, want in ((g._log_mod(z), f._log_mod(p(z))),
                      (g._logderivs(z), p.deriv()(z) * f._logderivs(p(z)))):
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_compose_poly_rejects_a_constant_and_an_overflowing_scale():
    f = rational([1.0], [3.0])
    for p in (Polynomial((1.0,)), Polynomial((0j,))):
        with pytest.raises(ValueError, match="nonconstant"):
            compose_poly(f, p)
    # the scale lead^(zeros - poles) leaves the range either way
    big = Polynomial((0j, 1e200))
    for g in (rational([1.0, 2.0], []), rational([], [1.0, 2.0])):
        with pytest.raises(OverflowSignal, match="scale"):
            compose_poly(g, big)
    with pytest.raises(OverflowSignal, match="scale"):
        compose_poly(rational([1.0, 2.0], []), Polynomial((0j, 1e-200)))
    assert compose_poly(rational([1.0], [2.0]), big).scale == 1.0  # lead^0


# ---------------------------------------------------------------------------
# level angles |f| = 1, the kinks of log+|f|
# ---------------------------------------------------------------------------

GENERIC_P = Polynomial((0.3 - 0.2j, 1.0 + 0.5j, -0.4j))


def _sign_changes(f, r, n=400_000):
    """Angles of the sign changes of log|f| on a fine uniform grid."""
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    lm = f._log_mod(r * np.exp(1j * theta))
    i = np.nonzero(np.sign(lm) != np.sign(np.roll(lm, -1)))[0]
    return theta[i]


def _closed_form_angles(f, r):
    """The kinks of ``f.closed_proximity`` on |z| = r, which a closed form
    finds at no evaluation."""
    _, angles, spent = f.closed_proximity([r])[0]
    assert spent == 0
    return angles


@pytest.mark.parametrize("f, radii", [
    (ExpPoly(Z), (0.7, 3.0, 7.0, 13.0, 30.0)),
    (ExpPoly(Polynomial((0j, 0j, 1.0))), (0.7, 3.0, 7.0, 13.0, 30.0)),
    (ExpPoly(Polynomial((0j, 0j, 0j, 1.0))), (0.7, 3.0, 7.0, 13.0, 30.0)),
    (ExpPoly(GENERIC_P), (0.7, 3.0, 7.0, 13.0)),
    (Exp(ExpPoly(Z)), (2.0, 3.0, 7.0, 10.0)),
    (Exp(ExpPoly(GENERIC_P)), (0.7, 1.5, 3.0)),
    # c_0 + c_d z^d: solved by arcsin, not by eigenvalues
    (ExpPoly(Polynomial((0.3 - 0.2j, 0j, 0j, 1.0 - 2.0j))), (0.7, 3.0, 7.0)),
    (Exp(ExpPoly(Polynomial((0.5 + 0.4j, 0j, 2.0j)))), (1.2, 2.0)),
], ids=["exp_z", "exp_z2", "exp_z3", "exp_p", "exp_exp_z", "exp_exp_p",
        "exp_binomial", "exp_exp_binomial"])
def test_level_angles_are_the_kinks_of_log_plus(f, radii):
    for r in radii:
        angles = _closed_form_angles(f, r)
        assert np.all(np.diff(angles) > 0) and np.all((angles >= 0) & (angles < TWO_PI))
        # after the Newton polish every angle sits on |f| = 1 ...
        assert np.abs(f._log_mod(r * np.exp(1j * angles))).max(initial=0.0) <= 1e-10, r
        # ... and every sign change of log|f| has its angle
        changes = _sign_changes(f, r)
        assert changes.size == angles.size, r
        gap = np.abs((changes[:, None] - angles + math.pi) % TWO_PI - math.pi)
        assert gap.min(axis=1, initial=math.inf).max(initial=0.0) <= 2.0 * TWO_PI / 400_000, r
    if f == ExpPoly(Z):
        assert _closed_form_angles(f, 3.0) == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                                           rel=1e-15)


def test_level_angles_stay_below_two_pi():
    # Im p = pi/2 at theta = -1e-300, which mod 2pi rounds up to 2pi: it comes back as 0
    f = Exp(ExpPoly(Polynomial((0.5j * math.pi, complex(1.0, 1e-300)))))
    angles = _closed_form_angles(f, 3.0)
    assert angles[0] == 0.0 and angles.max() < TWO_PI and np.all(np.diff(angles) > 0)


@pytest.mark.parametrize("r", [13.0, 20.0, 24.123900982041413, 28.0])
def test_level_angles_of_exp_exp_z_are_exact_to_rounding(r):
    # log|f| = |e^z| cos(r sin theta): rounding theta alone moves it by about
    # |e^z| r 2^-53, so the level set is met relative to |e^z|
    f = Exp(ExpPoly(Z))
    angles = _closed_form_angles(f, r)
    z = r * np.exp(1j * angles)
    assert np.all(np.abs(f._log_mod(z)) <= 1e-10 * np.exp(z.real))
    kmax = math.floor(r / math.pi - 0.5)
    assert angles.size == 2 * (2 * kmax + 2)  # r sin theta = pi/2 + k pi, |k + 1/2| <= r / pi


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 4.5])
def test_level_angles_of_a_composed_exp_exp_are_exact_to_rounding(r):
    # exp(e^z) at z^2 + z + 1 is exp(e^(z^2 + z + 1)), whose kinks have a
    # closed form; log|f| = e^Re p cos(Im p), so rounding theta moves it by
    # about e^Re p |p'| r 2^-53
    p = Polynomial((1.0, 1.0, 1.0))
    f = compose_poly(Exp(ExpPoly(Z)), p)
    angles = _closed_form_angles(f, r)
    z = r * np.exp(1j * angles)
    assert np.all(np.abs(f._log_mod(z)) <= 1e-14 * np.exp(p(z).real) * np.abs(p.deriv()(z)) * r)
    changes = _sign_changes(f, r)
    assert changes.size == angles.size > 0, r
    gap = np.abs((changes[:, None] - angles + math.pi) % TWO_PI - math.pi)
    assert gap.min(axis=1).max() <= 2.0 * TWO_PI / 400_000, r


@pytest.mark.parametrize("coeffs, r", [
    ((0j, 1.0), 0.5), ((0j, 1.0), 28.0), ((0j, 1.0), 200.0),
    ((3.0, 1 - 2j, 1.0), 4.0), ((0.5j, 0.0, 0.0, 1.0), 2.5), ((-40.0, 2.0), 30.0)])
def test_exp_series_bounds_its_rounding_and_dropped_terms(coeffs, r):
    """The series of e^p on |z| = r against the recurrence
    n E_n = sum_k k P_k E_{n-k} at 40 digits: the reported bound covers the
    rounding of every kept term and the terms past the cut."""
    mpmath = pytest.importorskip("mpmath")
    E, err, _ = fnmodel._exp_series(Polynomial(coeffs), r)
    with mpmath.workdps(40):
        P = [mpmath.mpc(c) * mpmath.mpf(r)**k for k, c in enumerate(coeffs)]
        ref = [mpmath.exp(P[0])]
        for n in range(1, E.size + 400):
            ref.append(mpmath.fsum(k * P[k] * ref[n - k] for k in range(1, min(n, len(P) - 1) + 1)) / n)
        miss = mpmath.fsum(abs(mpmath.mpc(e) - x) for e, x in zip(E.tolist(), ref))
        miss += mpmath.fsum(abs(x) for x in ref[E.size:])
        assert 0 < miss <= err, (miss, err)


@pytest.mark.parametrize("f", [
    # exp(p) - a and c / (exp(p) - a) have searched kinks
    # (test_band_search_finds_every_dense_kink): a product and quotients
    # that hold them have none
    Product(ExpPoly(Z, 1.0), ExpPoly(Z)), Exp(ExpPoly(Z, 1.0)), Exp(Exp(ExpPoly(Z))),
    Quotient(ExpPoly(Z2), ExpPoly(Z2, 1.0)), Quotient(Const(1.0), Exp(ExpPoly(Z, 0.5))),
    Product(ExpPoly(Z), ExpPoly(Z)),
])
def test_level_angles_are_unknown_without_a_closed_form(f):
    assert _closed_form_angles(f, 3.0) is None


@pytest.mark.parametrize("f", [ExpPoly(Polynomial((2.0,))), Exp(ExpPoly(Polynomial((2.0,)))),
                               Exp(ExpPoly(Z)), Exp(ExpPoly(Polynomial((0j, 0j, 1.0)))),
                               Const(3.0), RationalFromDivisor(2.0, Divisor((), -1)),
                               RationalFromDivisor(1.0, Divisor((), 2))])
def test_level_angles_are_empty_where_log_plus_has_no_kink(f):
    # |e^2|, e^{e^2} and, for |Im p| < pi/2 on the circle, e^{Re e^p} exceed 1;
    # |3|, |2/z| and |z^2| are constant on the circle, |z^2| = 1 on all of it
    assert _closed_form_angles(f, 1.0).size == 0


@pytest.mark.parametrize("f, r", [
    (ExpPoly(Polynomial((0j, 0j, 1.0))), 1e-200),  # r^2 underflows to 0
    (ExpPoly(Polynomial((0j, 0j, 0j, 1.0))), 1e-110),
    (ExpPoly(GENERIC_P), 1e-160),  # a subnormal lead: the companion matrix overflows
    (ExpPoly(Polynomial((0j, 0j, 1.0)), 1.0), 1e-200),  # the band search's edges too
])
def test_level_angles_are_unknown_where_the_coefficients_underflow(f, r):
    assert _closed_form_angles(f, r) is None


def _above_level(p, a, level, r, theta):
    """log|e^p - a| > log(level) at z = r e^{i theta}, read as log|a| +
    log|1 - t|, t = e^p / a, with log|1 - t| = log1p(|t|^2 - 2 Re t) / 2,
    which keeps its bits where |t| is small."""
    w = p(r * np.exp(1j * theta))
    t = np.exp(np.minimum(w.real, 50.0) + 1j * w.imag) / a  # Re p > 50 is far above
    return math.log(abs(a)) + 0.5 * np.log1p((t * t.conj()).real - 2.0 * t.real) > math.log(level)


def _dense_kinks(p, a, level, r, n=1 << 16):
    """The sign changes of log|e^p - a| - log(level) on n equispaced angles,
    each bisected to the last bit."""
    theta = np.arange(n) * (TWO_PI / n)
    up = _above_level(p, a, level, r, theta)
    lo = theta[np.flatnonzero(up != np.roll(up, -1))]
    hi, up_lo = lo + TWO_PI / n, _above_level(p, a, level, r, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = _above_level(p, a, level, r, mid) == up_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.sort(0.5 * (lo + hi) % TWO_PI)


@pytest.mark.parametrize("a", [1.0, -1.0, 2.0, 0.5])
@pytest.mark.parametrize("p", [Z, Polynomial((0j, 1.0, 1.0)), Polynomial((0j, 0j, 0j, 1.0))],
                         ids=["z", "z2+z", "z3"])
def test_band_search_finds_every_dense_kink(p, a):
    # one search over the grid; every kink of 2^16 samples and bisection
    # above the band's depth has a returned kink within 1e-10 rad, and
    # log|f| changes sign within 1e-10 rad of every returned kink
    radii = [float(r) for r in log_radii(5.0, 40.0, 25)]
    found = ExpPoly(p, a).level_angles(radii)
    assert len(found) == len(radii)
    for r, (kinks, edges, spent) in zip(radii, found):
        assert np.all(np.diff(kinks) > 0) and np.all((kinks >= 0) & (kinks < TWO_PI))
        assert edges.size and spent > 0
        dense = _dense_kinks(p, a, 1.0, r)
        deep = np.exp(p(r * np.exp(1j * dense)).real) < fnmodel._BAND_DEPTH * abs(a)
        dense = dense[~deep]
        if dense.size:
            assert kinks.size, r
            gap = np.abs((dense[:, None] - kinks + math.pi) % TWO_PI - math.pi)
            assert gap.min(axis=1).max() <= 1e-10, r
        h = 1e-10
        assert np.all(_above_level(p, a, 1.0, r, kinks - h)
                      != _above_level(p, a, 1.0, r, kinks + h)), r


def test_reciprocals_of_exp_minus_a_are_cut_at_their_kinks():
    # c / g asks g for its angles at the level |c|; the cuts of the circle
    # mean are the kinks and the band edges (Re z^2 >= -25 > log 2^-40 here:
    # no kink lies below the band's depth)
    radii = [1.5, 3.0, 5.0]
    for f, g, level in ((ExpPoly(Z, 1.0), ExpPoly(Z, 1.0), 1.0),
                        (ExpPoly(Z2, 1.0), ExpPoly(Z2, 1.0), 1.0),
                        (Quotient(Const(1.0), ExpPoly(Z, 0.5)), ExpPoly(Z, 0.5), 1.0),
                        (Quotient(Const(-2.0j), ExpPoly(Z2, 1.0)), ExpPoly(Z2, 1.0), 2.0)):
        answers = f.closed_proximity(radii)
        for r, (kinks, edges, spent), (mean, cuts, cost) in zip(
                radii, g.level_angles(radii, level), answers):
            assert mean is None and cost == spent > 0
            assert np.array_equal(cuts, np.sort(np.concatenate((kinks, edges))))
            assert np.abs(f._log_mod(r * np.exp(1j * kinks))).max() <= 1e-10, r
            changes = _sign_changes(f, r)
            assert changes.size == kinks.size > 0, r
            gap = np.abs((changes[:, None] - kinks + math.pi) % TWO_PI - math.pi)
            assert gap.min(axis=1).max() <= 2.0 * TWO_PI / 400_000, r


def test_level_set_solve_is_bounded_by_the_panel_limit(monkeypatch):
    # exp(e^z): 2 deg p angles for each shift pi/2 + k pi with |pi/2 + k pi| <= r
    f = Exp(ExpPoly(Z))
    assert _closed_form_angles(f, 5000 * math.pi).size == 2 * 10_000 == fnmodel.MAX_PANELS
    solves = []
    monkeypatch.setattr(fnmodel, "_im_level_angles",
                        lambda *args: solves.append(args) or np.empty(0))
    for g, r in ((f, 5001 * math.pi),  # 10,002 shifts
                 (Exp(ExpPoly(Polynomial((0j, 0j, 1.0)))), math.sqrt(2501 * math.pi))):
        assert _closed_form_angles(g, r) is None
    assert not solves
    _closed_form_angles(Exp(ExpPoly(Polynomial((0j, 0j, 1.0)))), math.sqrt(2500 * math.pi))
    assert len(solves) == 1  # 5,000 shifts of degree 4: exactly the limit


def test_dilog_meets_mpmath_on_the_closed_unit_disc():
    # the disc's interior, its boundary, and the approach to the
    # logarithmic point x = 1 from inside and along the circle
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    rho = np.concatenate([np.sqrt(rng.uniform(size=150)), np.ones(80),
                          1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 40)])
    x = np.concatenate([rho * np.exp(1j * rng.uniform(-math.pi, math.pi, rho.size)),
                        [0.0, 0.5, -1.0, 1.0, 1.0 - 1e-12, 1.0 - 1e-300,
                         np.exp(1e-8j), np.exp(-1e-15j), np.exp(1j * math.pi / 3),
                         0.5 + 0.5j, 0.5000000001 + 0.8660254j]])
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.polylog(2, mpmath.mpc(v.real, v.imag))) for v in x])
    assert np.abs(fnmodel._dilog(x) - want).max() <= 1e-15


# r = 22.64... holds the closest crossing pair of sweep seed 5 (0.0038 rad
# apart, near a divisor point) and 4.40... lies inside the orbit's cloud
@pytest.mark.parametrize("key, radii", [
    ("rat_zero1_pole2", (1.7, 2.262853668568036, 3.78921641565047, 10.0, 30.0)),
    ("orbit_left_m6", (1.5, 2.6, 8.0, 13.749337077019009, 30.0)),
    ("orbit_left_30", (22.640683396050477, 4.400682804935932)),
])
def test_level_search_finds_one_angle_per_sign_change(reference_rationals, key, radii):
    f = reference_rationals[key]
    for r in radii:
        _, angles, spent = f.closed_proximity([r])[0]
        assert np.all(np.diff(angles) > 0) and np.all((angles >= 0) & (angles < TWO_PI))
        assert np.abs(f._log_mod(r * np.exp(1j * angles))).max() <= 1e-10, (key, r)
        changes = _sign_changes(f, r)
        assert changes.size == angles.size, (key, r)
        gap = np.abs((changes[:, None] - angles + math.pi) % TWO_PI - math.pi)
        assert gap.min(axis=1).max() <= 2.0 * TWO_PI / 400_000, (key, r)
        # the scan's samples, the certificate's bisections, then at most
        # _SEARCH_STEPS steps per crossing
        band = len(f.divisor.band(r, CIRCLE_BAND))
        assert fnmodel._SCAN_POINTS + band < spent
        assert spent <= (fnmodel._SCAN_POINTS + band + fnmodel._CERTIFY_NODES
                         + fnmodel._SEARCH_STEPS * angles.size)
        assert fnmodel._level_search(f, fnmodel._circle_form(f, r), r)[2], (key, r)


def test_level_search_certifies_a_shallow_pair_between_its_samples(reference_rationals):
    # near theta = 2, orbit_left_m6 at this radius rises to log|f| = 0.028 for
    # 0.036 rad, between two scan samples 0.098 apart with no divisor angle in
    # between: the scan alone misses the pair, and the certificate's
    # bisections find it, so the closed-form mean integrates that arc too
    f = reference_rationals["orbit_left_m6"]
    r = 8.21086325832621
    angles, spent, certified = fnmodel._level_search(f, fnmodel._circle_form(f, r), r)
    changes = _sign_changes(f, r)
    assert certified and angles.size == changes.size == 10
    gap = np.abs((changes[:, None] - angles + math.pi) % TWO_PI - math.pi).min(axis=1)
    assert gap.max() <= 2.0 * TWO_PI / 400_000
    # the scan's own samples show 8 of the 10 sign changes
    scan = np.sort(np.concatenate([fnmodel._SCAN_GRID,
                                   np.angle(f.divisor.band(r, CIRCLE_BAND)) % TWO_PI]))
    lm = f._log_mod(r * np.exp(1j * scan))
    assert np.count_nonzero(np.sign(lm) != np.sign(np.roll(lm, -1))) == 8
    s = proximity(f, r)
    tight = _circle_means(f, [(r, angles, spent)], _logplus(f), atol=1e-12, rtol=1e-11)[0]
    assert s.panels == 0 and s.evaluations == spent
    assert abs(s.m - tight.value) <= 0.01 * max(1e-9, 1e-8 * s.m)


def test_level_search_gives_up_where_log_f_keeps_one_sign(reference_rationals):
    # the divisor bound alone keeps log|f| of orbit_right_60 above 0 at r = 1e4
    f = reference_rationals["orbit_right_60"]
    assert f.closed_proximity([1e4])[0][1:] == (None, 0)
    # inside the m6 orbit's cloud the bound allows a crossing, the scan finds none
    f = reference_rationals["orbit_left_m6"]
    _, angles, spent = f.closed_proximity([0.7])[0]
    assert angles is None and spent >= fnmodel._SCAN_POINTS
    assert _sign_changes(f, 0.7).size == 0


def test_slope_bounds_hold_on_random_arcs(reference_rationals):
    # on an arc of |z| = r, _slope_bounds' first bound dominates |d/dtheta
    # log|f|| of the circle form (and, read from the series b, the slope of
    # its arg channel) and its second |d^2/dtheta^2 log|f||,
    # here the central difference of the slope (by the mean value theorem
    # a second derivative inside the arc), less the difference's rounding;
    # the certificate's second-order value test rests on the second bound.
    # Arcs are drawn anywhere, and at or beside a divisor point 1e-4 r off
    # the circle, where both bounds are nearly attained
    rng = np.random.default_rng(30)
    for key, f in reference_rationals.items():
        pts = f.divisor.points
        if not pts.size:
            continue
        near = pts[rng.choice(pts.size, size=min(3, pts.size), replace=False)]
        circles = ([(r, None) for r in (0.7, 2.6, 13.0, 80.0, 1e4)]
                   + [(abs(b) * (1.0 + s * 1e-4), b) for b in near for s in (1.0, -1.0)])
        eps = (f.divisor._rows[0].size + 2) * 2.0**-52
        for r, b in circles:
            form = fnmodel._circle_form(f, r)
            width = 10.0 ** rng.uniform(-4.0, 0.0, 10)
            if b is None:
                lo = rng.uniform(0.0, TWO_PI, 10)
            else:
                lo = np.angle(b) % TWO_PI - rng.uniform(-0.5, 1.5, 10) * width
            l1, l2 = fnmodel._slope_bounds(form[0], form[2], r)(lo, lo + width)
            (arg_l1,) = fnmodel._slope_bounds(form[0], form[3], r, second=False)(lo, lo + width)
            for a, h, b1, b2, b3 in zip(lo, width, l1, l2, arg_l1):
                theta = np.linspace(a, a + h, 401)
                slope = fnmodel._log_slope(form, r, theta)[1]
                step = h / 400
                second = np.abs(slope[2:] - slope[:-2]) / (2.0 * step)
                assert np.abs(slope).max() <= b1 * (1.0 + 1e-12), (key, r, a, h)
                assert second.max() <= b2 * (1.0 + 1e-12) + 4.0 * eps * b1 / step, (key, r, a, h)
                # the arg channel's slope, Re(z f'/f) less the form's origin order
                z = r * np.exp(1j * theta)
                arg_slope = (z * f._logderivs(z)).real - form[0].origin_order
                assert np.abs(arg_slope).max() <= b3 * (1.0 + 1e-12), (key, r, a, h)


def test_level_search_certifies_the_crossings_near_a_divisor_point(members):
    # 30 circles of orbit_left_m6, each with a divisor point 1e-6 r to
    # 0.03 r off it: every search is certified and finds one angle per sign
    # change of log|f| on a grid of 2^16 angles.  A circle whose angles lie
    # closer than 4 grid steps is skipped, since the grid cannot resolve
    # them (none of these 30 is); orbit_left_30 at r = 58.929028399265896,
    # for one, has two crossings 2.5e-6 rad apart beside a zero 1.1e-6 r
    # off the circle, which not even 10^6 angles resolve
    f = members["orbit_left_m6"].expr
    rng, n = np.random.default_rng(6), 2**16
    grid = np.arange(n) * (TWO_PI / n)
    skipped = 0
    for _ in range(30):
        b = f.divisor.points[rng.integers(f.divisor.points.size)]
        d = 10.0 ** rng.uniform(-6.0, math.log10(0.03))
        r = abs(b) / (1.0 + d) if rng.integers(2) else abs(b) / (1.0 - d)
        angles, _, certified = fnmodel._level_search(f, fnmodel._circle_form(f, r), r)
        assert certified, r
        if angles.size > 1 and np.diff(np.append(angles, angles[0] + TWO_PI)).min() < 4 * TWO_PI / n:
            skipped += 1
            continue
        lm = f._log_mod(r * np.exp(1j * grid))
        changes = grid[np.sign(lm) != np.sign(np.roll(lm, -1))]
        assert changes.size == angles.size, (r, d)
        if changes.size:
            gap = np.abs((changes[:, None] - angles + math.pi) % TWO_PI - math.pi).min(axis=1)
            assert gap.max() <= 2.0 * TWO_PI / n, (r, d)
    assert skipped == 0


# ---------------------------------------------------------------------------
# a-point enumeration
# ---------------------------------------------------------------------------


def test_exp_branch_count_is_capped(monkeypatch):
    solved = []
    monkeypatch.setattr(fnmodel, "_pull_back",
                        lambda p, ws, ms, r: solved.append((ws.size, ms.size)) or Divisor())
    f = ExpPoly(Z, 1.0)
    f._divisor_impl(2.0**20)  # r = 1e6 rounds up to 2^20
    assert solved == [(2 * math.floor(2.0**20 / (2 * math.pi)) + 1,) * 2]
    assert fnmodel._MAX_BRANCHES >= 100 * 1304  # far above the largest smt batch
    with pytest.raises(fnmodel.OverflowSignal, match="log-branches"):
        f._divisor_impl(2.0**21)
    assert len(solved) == 1


def _reference_exp_branches(f, r):
    """The log-branches of exp(p) = a in |z| <= r, built one complex at a
    time as the comprehension over k did."""
    la = cmath.log(f.a)
    bound = f.p.coeff_bound(r)
    kmax = int(math.ceil((bound + abs(la)) / TWO_PI)) + 1
    if 2 * kmax + 1 > fnmodel._MAX_BRANCHES:
        return None
    return [w for w in (la + TWO_PI * 1j * k for k in range(-kmax, kmax + 1))
            if abs(w) <= bound + 1e-9]


@pytest.mark.parametrize("p", [Z, Z2, Polynomial((0.5j, 0j, 0j, 1.0))], ids=["z", "z^2", "z^3+i/2"])
@pytest.mark.parametrize("a", [1.0, -1.0, 0.3 + 0.2j])
def test_exp_divisor_branches_equal_the_comprehension(monkeypatch, p, a):
    """The log-branches, built as one array, are the comprehension's bit for
    bit, and so is the divisor pulled back from them.  The pull-back is a
    function of the branches, so past 2000 of them only the branches are
    compared (z^2 on disc 1024 has 333,772-333,773 of them)."""
    f, pull_back, seen = ExpPoly(p, a), fnmodel._pull_back, []

    def spy(p, ws, ms, r):
        seen.append((ws, ms))
        return pull_back(p, ws, ms, r) if ws.size < 2000 else fnmodel.EMPTY_DIVISOR

    monkeypatch.setattr(fnmodel, "_pull_back", spy)
    for r in (8.0, 64.0, 1024.0):
        want = _reference_exp_branches(f, r)
        if want is None:
            with pytest.raises(OverflowSignal, match="log-branches"):
                f._divisor_impl(r)
            continue
        d = f._divisor_impl(r)
        ws, ms = seen.pop()
        assert ws.tobytes() == np.array(want, dtype=np.complex128).tobytes()
        assert ms.tobytes() == np.ones(len(want), dtype=np.int64).tobytes()
        if len(want) < 2000:
            ref = pull_back(p, np.array(want), np.ones(len(want), dtype=np.int64), r)
            assert d.points.tobytes() == ref.points.tobytes()
            assert d.mults.tobytes() == ref.mults.tobytes()
            assert d.origin_order == ref.origin_order
    with pytest.raises(OpaqueExpr):  # a degree-0 p equal to a branch
        ExpPoly(Polynomial((cmath.log(a),)), a)._divisor_impl(8.0)


def test_constant_exp_argument_equal_to_log_a_is_opaque():
    with pytest.raises(OpaqueExpr):
        ExpPoly(Polynomial((math.log(2.0),)), 2.0).divisor_in_disc(5.0)
    assert ExpPoly(Polynomial((1.0,)), 2.0).divisor_in_disc(5.0).is_empty


def test_preimages_are_the_zeros_of_f_minus_a(members):
    """The census and N(r, 1/(f - a)) read the same a-points."""
    refused, opaque = set(), set()
    for key, member in members.items():
        f = member.expr
        for a in (1.0, -1.0, 0.3 + 0.2j, 2.5j):
            try:
                shifted = subtract(f, Const(a))
            except (RootFindFailure, OpaqueExpr) as exc:
                (refused if isinstance(exc, RootFindFailure) else opaque).add(key)
                for r in (0.7, 3.0, 9.5):
                    with pytest.raises(type(exc)):
                        preimages_in_disc(f, a, r)
                continue
            for r in (0.7, 3.0, 9.5):
                want = shifted.divisor_in_disc(r).signed("zeros")
                assert preimages_in_disc(f, a, r) == want, (key, a, r)
    # its a-points lie closer to its zeros than double precision can tell
    assert refused == {"orbit_right_m6"}
    assert opaque == {"exp_exp_z"}  # exp(e^z) - a has no rewrite


@pytest.mark.parametrize("a", [0.5, 2j])
@pytest.mark.parametrize("key", ["rat_zero1_pole2", "orbit_left_m6"])
def test_preimages_of_a_composed_rational_are_the_pulled_back_a_points(members, key, a):
    """The certified solver on f(p) finds the pull-back of f's a-points."""
    f = members[key].expr
    for p in COMPOSE_P.values():
        g = compose_poly(f, p)
        for r in (0.8, 2.5, 6.0):
            base = preimages_in_disc(f, a, p.coeff_bound(r))  # rat_zero1_pole2 = 0.5 at 0
            origin = [base.origin_order] * bool(base.origin_order)
            want = fnmodel._pull_back(p, np.append(base.points, [0j] * len(origin)),
                                      np.append(base.mults, origin), r).multiset()
            got = preimages_in_disc(g, a, r).multiset()
            assert len(got) == len(want), (key, a, r)
            if got:
                gap = np.abs(np.subtract.outer(got, want))
                assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-9, (key, a, r)


def test_preimages_exp_lattice():
    # e^z = 1 exactly at 2 pi i k
    d = preimages_in_disc(ExpPoly(Z), 1.0, 10.0)
    pts = sorted(d.multiset(), key=lambda w: w.imag)
    assert len(pts) == 3
    for p, k in zip(pts, (-1, 0, 1)):
        assert abs(p - 2j * math.pi * k) < 1e-12


def test_preimages_small_rational_direct():
    f = rational([1.0], [2.0])
    d = preimages_in_disc(f, 3.0, 5.0)
    pts = d.multiset()
    assert len(pts) == 1 and abs(pts[0] - 2.5) < 1e-10


def test_preimages_zero_and_pole_values():
    f = rational([1.0, -1.0], [2.0j])
    zeros = preimages_in_disc(f, 0.0, 3.0).multiset()
    poles = preimages_in_disc(f, None, 3.0).multiset()
    assert sorted(z.real for z in zeros) == pytest.approx([-1.0, 1.0])
    assert len(poles) == 1 and abs(poles[0] - 2.0j) < 1e-12


def test_preimages_large_rational_are_verified_solutions():
    """The iterative path must return residual-checked, deduplicated points."""
    from nevlab import build_orbit_function, figure_family

    f = build_orbit_function(figure_family("left", 8))
    a = 0.3 + 0.2j
    d = preimages_in_disc(f, a, 9.0)
    pts = d.multiset()
    assert pts, "expected at least one solution"
    for z in pts:
        assert abs(f.eval(z) - a) <= 1e-8 * (1.0 + abs(a))
        assert abs(z) <= 9.0
    # pairwise distinct: simple a-points only
    arr = np.asarray(pts)
    for i in range(len(arr)):
        d_i = np.abs(arr - arr[i])
        d_i[i] = np.inf
        assert d_i.min() > 1e-8


def test_preimages_unresolvable_raises():
    """Solutions hiding exponentially close to zeros must not be silently
    dropped; the enumeration refuses rather than returning garbage."""
    from nevlab import build_orbit_function, figure_family

    f = build_orbit_function(figure_family("right", 20))
    with pytest.raises(RootFindFailure):
        preimages_in_disc(f, 0.3 + 0.2j, figure_family("right", 20).census_radius())


LEFT_VALUES = (0.9 + 0.8j, -1.1 + 0.4j, 0.3 + 0.2j, 1.5, -2j)


def _a_point_count(f: RationalFromDivisor, a: complex, r: float) -> int:
    """a-points in |z| < r by the argument principle on f - a: the mean of
    Re z f'/(f - a) over the circle counts them minus the poles inside."""
    def integrand(theta):
        z = r * np.exp(1j * theta)
        lm, ag = f._log_parts(z)
        return (z * f._logderivs(z) / (1.0 - a * np.exp(-(lm + 1j * ag)))).real

    mean = adaptive_circle(integrand, atol=1e-6).value / (2 * math.pi)
    assert abs(mean - round(mean)) < 1e-3
    return round(mean) + f.divisor_in_disc(r).total("poles")


@pytest.fixture(scope="module")
def left_a_points():
    out = {}
    for gen in (8, 12, 30):
        fam = figure_family("left", gen)
        f, r = build_orbit_function(fam), fam.census_radius()
        out[gen] = f, r, {a: preimages_in_disc(f, a, r) for a in LEFT_VALUES}
    return out


def test_large_rational_preimages_are_complete(left_a_points):
    for gen, (f, r, found) in left_a_points.items():
        for a, d in found.items():
            assert d.origin_order == 0
            assert all(m == 1 for _, m in d.entries)
            assert len(d.entries) == _a_point_count(f, a, r), (gen, a)
    # -2i has one a-point fewer in the disc at both generations
    assert [len(d.entries) for d in left_a_points[30][2].values()] == [152] * 4 + [151]
    assert [len(d.entries) for d in left_a_points[12][2].values()] == [49] * 4 + [48]


def test_large_rational_preimages_are_distinct_solutions(left_a_points):
    for gen, (f, r, found) in left_a_points.items():
        for a, d in found.items():
            pts = np.array([p for p, _ in d.entries])
            assert np.all(np.abs(pts) <= r)
            lm, ag = f._log_parts(pts)
            resid = np.abs(np.exp(lm + 1j * ag) - a)
            assert np.all(resid <= fnmodel.PREIMAGE_RESIDUAL_TOL * (1.0 + abs(a))), (gen, a)
            gaps = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 1e-8 * (1.0 + np.abs(pts).max()), (gen, a)


def test_large_rational_preimages_refuse_a_disc_through_a_solution(left_a_points):
    f, _, found = left_a_points[12]
    q = found[1.5].entries[-1][0]
    with pytest.raises(RootFindFailure):
        preimages_in_disc(f, 1.5, abs(q))


def _roots_over_unit_roots(n=26):
    """z^n / (z^n - 1), whose a-points solve z^n = a / (a - 1)."""
    poles = [(cmath.exp(2j * math.pi * k / n), -1) for k in range(n)]
    return RationalFromDivisor(1.0, Divisor.build(poles, n))


def test_large_rational_preimages_match_a_closed_form():
    f = _roots_over_unit_roots()
    for a in (1.5, -2j, 1.0 + 1e-8):
        c = (a / (a - 1)) ** (1 / 26)
        exact = c * np.exp(2j * np.pi * np.arange(26) / 26)
        pts = np.array(preimages_in_disc(f, a, 2 * abs(c)).multiset())
        assert pts.size == 26
        err = np.abs(pts[:, None] - exact[None, :]).min(axis=1)
        assert err.max() < 1e-6 * abs(c), a
    # at a = 1 + 1e-12 the rounding of f moves the computed a-points by
    # about 1e-3, so the discs, widened by that rounding, must overlap
    with pytest.raises(RootFindFailure):
        preimages_in_disc(f, 1.0 + 1e-12, 10.0)


def test_large_rational_preimages_refuse_a_double_solution():
    # (z^2 - 1)^13 = -1 has a double root at 0 and 24 simple ones
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 13), (-1.0, 13)]))
    assert len(preimages_in_disc(f, -0.999, 2.0).multiset()) == 26
    with pytest.raises(RootFindFailure):
        preimages_in_disc(f, -1.0, 2.0)


def test_large_rational_preimages_enforce_the_residual_bound(monkeypatch):
    f = build_orbit_function(figure_family("left", 8))
    monkeypatch.setattr(fnmodel, "PREIMAGE_RESIDUAL_TOL", 1e-20)
    with pytest.raises(RootFindFailure):
        preimages_in_disc(f, 1.5, 9.0)


def _rel_close(got, want, rel):
    return np.all(np.abs(got - want) <= rel * np.abs(want))


@pytest.mark.parametrize("name", ["left_30", "power_13", "inverse_power_13"])
def test_aberth_pass_agrees_with_the_channels(name):
    if name == "left_30":
        f = build_orbit_function(figure_family("left", 30))
    else:  # (z^2 - 1)^13, and z^2 over it: multiple rows and an origin row
        sign, origin = (1, 0) if name == "power_13" else (-1, 2)
        f = RationalFromDivisor(1.0, Divisor.build([(1.0, 13 * sign), (-1.0, 13 * sign)], origin))
    d, s = f.divisor, f.scale
    rng = np.random.default_rng(11)
    z = 1.5 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    prod, dl, dq = fnmodel._aberth_sums(z, d)
    lm, ag, _, log_q = fnmodel._log_sums(z, d, s)
    assert np.array_equal(np.array((lm, ag)), np.array(f._log_parts(z)))
    assert fnmodel._is_normal(prod).all()
    assert _rel_close(s * prod, np.exp(lm + 1j * ag), 1e-12)
    inv, = fnmodel._divisor_sums(z, d, ((0j, fnmodel._inv_term),))
    assert _rel_close(dl, inv, 1e-12)
    poles = d.signed("poles")
    q_inv, q_log = fnmodel._divisor_sums(z, poles, ((0j, fnmodel._inv_term),
                                                    (0.0, fnmodel._log_term)))
    assert _rel_close(dq, q_inv, 1e-12)
    assert np.array_equal(log_q, q_log)
    assert (name == "power_13") == (not dq.any())


def _log_sums_spy(monkeypatch):
    """Node counts of every call to the log channels of the a-point solver."""
    calls, log_sums = [], fnmodel._log_sums
    monkeypatch.setattr(fnmodel, "_log_sums", lambda z, *args: (
        calls.append(np.size(z)), log_sums(z, *args))[1])
    return calls


def test_a_product_that_leaves_the_range_solves_through_the_guard(monkeypatch):
    # in row order the three zeros near 1e120 come first, so the product of
    # the differences overflows before the poles near 2e120 bring it back
    unit = np.exp(2j * np.pi * np.array([0.1, 0.45, 0.8]))

    def rational(size):
        return RationalFromDivisor(1.0, Divisor.build(
            [(complex(w), 1) for w in size * unit] + [(complex(w), -1) for w in 2 * size * unit]))
    calls = _log_sums_spy(monkeypatch)
    a = 0.3 - 0.2j
    small = fnmodel._rational_preimages(rational(1.0), a, math.inf)[1]
    assert calls == [3]  # the certificate alone
    del calls[:]
    large = fnmodel._rational_preimages(rational(1e120), a, math.inf)[1]
    assert len(calls) > 1 and calls[-1] == 3  # the guard ran, then the certificate
    assert large.size == small.size == 3
    assert _rel_close(np.sort_complex(large), 1e120 * np.sort_complex(small), 1e-12)


def test_the_left_census_takes_logs_only_in_the_certificate(monkeypatch):
    from nevlab.algmap import invariance_census

    fam = figure_family("left", 30)
    f = build_orbit_function(fam)
    calls = _log_sums_spy(monkeypatch)
    rep, = invariance_census(f, fam.map, ["-0.5751455743105502-0.8005678919708082i"],
                             fam.census_radius())
    assert not rep.verdict and rep.n_points == 152
    assert calls == [f.divisor.total("zeros")]


def _assert_is_f_minus_a(g, f, a):
    """g = f - a at points off the divisor, which checks lead and a-points."""
    for z in (0.37 + 1.91j, -2.3 - 0.4j, 4.1 + 3.3j, 11.0 - 7.0j):
        want = f.eval(z) - a
        assert abs(g.eval(z) - want) <= 1e-9 * (1.0 + abs(want)), z


@pytest.mark.parametrize("gen, count", [(12, 49), (30, 152)])
def test_rational_a_points_where_the_degree_drops_by_one(left_a_points, gen, count):
    # the left family has as many zeros as poles and scale 1, so at a = 1 the
    # lead of N cancels; its next coefficient, sum poles - sum zeros, does not
    f, r, _ = left_a_points[gen]
    d = preimages_in_disc(f, 1.0, r)
    assert all(m == 1 for _, m in d.entries) and d.origin_order == 0
    assert len(d.entries) == _a_point_count(f, 1.0, r) == count
    pts = np.array([p for p, _ in d.entries])
    lm, ag = f._log_parts(pts)
    assert np.all(np.abs(np.exp(lm + 1j * ag) - 1.0) <= 2 * fnmodel.PREIMAGE_RESIDUAL_TOL)
    g = subtract(f, Const(1.0))
    assert g.divisor.total("zeros") == f.divisor.total("zeros") - 1
    _assert_is_f_minus_a(g, f, 1.0)


def test_rational_a_points_where_the_degree_drops_by_two():
    # (z^2 - 1)/(z^2 - 4) - 1 = 3/(z^2 - 4): sum z = sum p = 0, and
    # (sum p^2 - sum z^2) / 2 = (8 - 2) / 2 = 3; degree 0, so no a-points
    f = rational([1.0, -1.0], [2.0, -2.0])
    g = subtract(f, Const(1.0))
    assert g.scale == 3.0
    assert g.divisor == f.divisor.signed("poles").negate()
    assert preimages_in_disc(f, 1.0, 10.0).is_empty
    _assert_is_f_minus_a(g, f, 1.0)
    # z^3 - 1 over z^3 - 2: sums of cube roots of unity are 0 only to rounding
    w = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    f = rational(w, [2.0 ** (1 / 3) * c for c in w])
    g = subtract(f, Const(1.0))
    assert g.scale == pytest.approx(1.0, abs=1e-14) and g.divisor.total("zeros") == 0
    _assert_is_f_minus_a(g, f, 1.0)


def test_rational_equal_to_the_target_everywhere_raises():
    f = RationalFromDivisor(2.0, Divisor())
    with pytest.raises(ValueError):
        subtract(f, Const(2.0))
    with pytest.raises(ValueError):
        preimages_in_disc(f, 2.0, 5.0)
    assert preimages_in_disc(f, 3.0, 5.0).is_empty


def test_rational_a_points_with_more_poles_than_zeros_match_a_closed_form():
    # 1/(z^26 - 1) = a where z^26 = 1 + 1/a; N = 1 - a (z^26 - 1) has lead -a
    f = RationalFromDivisor(1.0, Divisor.build(
        [(cmath.exp(2j * math.pi * k / 26), -1) for k in range(26)]))
    for a in (1.5, -2j, 0.3 + 0.2j):
        c = (1 + 1 / a) ** (1 / 26)
        exact = c * np.exp(2j * np.pi * np.arange(26) / 26)
        pts = np.array(preimages_in_disc(f, a, 2 * abs(c)).multiset())
        assert pts.size == 26
        err = np.abs(pts[:, None] - exact[None, :]).min(axis=1)
        assert err.max() < 1e-14 * abs(c), a
        g = subtract(f, Const(a))
        assert g.scale == -a
        _assert_is_f_minus_a(g, f, a)


def test_preimages_reject_non_finite_targets():
    f = build_orbit_function(figure_family("left", 6))
    for a in (complex(math.inf, 1.0), complex(math.nan, 0.0), math.nan, -math.inf):
        with pytest.raises(ValueError):
            preimages_in_disc(f, a, 5.0)
    assert preimages_in_disc(f, math.inf, 5.0) == preimages_in_disc(f, None, 5.0)


def test_preimages_unresolvable_at_sixty_generations_raise():
    fam = figure_family("right", 60)
    with pytest.raises(RootFindFailure):
        preimages_in_disc(build_orbit_function(fam), 0.3 + 0.2j, fam.census_radius())


def test_divisor_columns_are_cached_and_read_only():
    d = build_orbit_function(figure_family("left", 6)).divisor
    b, m = d._rows
    assert d._rows[0] is b
    assert b.shape == m.shape == (len(d.entries) + bool(d.origin_order),)
    for col in (b, m, d.points, d.mults, d.moduli):
        with pytest.raises(ValueError):
            col[0] = 0.0


def test_pair_reduce_chunks_rows_without_changing_them():
    rng = np.random.default_rng(5)
    z = rng.normal(size=300) + 1j * rng.normal(size=300)
    rows = np.arange(3, 300, 2)
    sizes = []

    def inverse_sums(d):
        sizes.append(d.size)
        return np.sum(1.0 / d, axis=1)

    got = fnmodel._pair_reduce(z, rows, np.inf, inverse_sums)
    full = z[rows, None] - z
    full[np.arange(rows.size), rows] = np.inf
    assert len(sizes) > 1 and max(sizes) <= fnmodel._DIVISOR_CELLS
    assert np.array_equal(got, np.sum(1.0 / full, axis=1))


# ---------------------------------------------------------------------------
# frozen records
# ---------------------------------------------------------------------------

# (record, its field tuple, its repr as the dataclass implementation printed it)
RECORDS = [
    (Const(2), (2 + 0j,), "Const(value=(2+0j))"),
    (ExpPoly(Polynomial((0, 1)), 1 + 1j), (Polynomial((0j, 1 + 0j)), 1 + 1j),
     "ExpPoly(p=Polynomial(coeffs=(0j, (1+0j))), a=(1+1j))"),
    (ExpPoly(Polynomial((0.5, 0, 2j))), (Polynomial((0.5, 0, 2j)), 0j),
     "ExpPoly(p=Polynomial(coeffs=((0.5+0j), 0j, 2j)), a=0j)"),
    (Divisor.build([(1, 2), (-2j, -1)], origin_order=-1), (((1 + 0j, 2), (-2j, -1)), -1),
     "Divisor(entries=(((1+0j), 2), ((-0-2j), -1)), origin_order=-1)"),
    (InvarianceReport(None, True, 3, 3, 0, 0, 1e-12, False, n_value_matched=1,
                      matched=((1j, 1j, 1j, 0.0),)),
     (None, True, 3, 3, 0, 0, 1e-12, False, 1, ((1j, 1j, 1j, 0.0),), ()),
     "InvarianceReport(value=None, verdict=True, n_points=3, n_matched=3, "
     "n_boundary_leaks=0, n_violations=0, max_matched_distance=1e-12, "
     "assignment_ambiguous=False, n_value_matched=1, violations=())"),
    (BoundReport(2.0, 1.5, 2.5, 1.0, False, meta={"n": 3}), (2.0, 1.5, 2.5, 1.0, False, {"n": 3}),
     "BoundReport(r=2.0, lhs=1.5, rhs=2.5, margin=1.0, passed=False, meta={'n': 3})"),
    (CharacteristicSample(r=2.0, m=0.5, N=0.0, T=0.5, quad_err=1e-16, nudged=False,
                          r_used=2.0, panels=4, evaluations=128),
     (2.0, 0.5, 0.0, 0.5, 1e-16, False, 2.0, 4, 128),
     "CharacteristicSample(r=2.0, m=0.5, N=0.0, T=0.5, quad_err=1e-16, nudged=False, "
     "r_used=2.0, panels=4, evaluations=128)"),
    (QuadratureResult(1.25, 3e-17, 6, 192), (1.25, 3e-17, 6, 192),
     "QuadratureResult(value=1.25, err_estimate=3e-17, panels=6, evaluations=192)"),
]


@pytest.mark.parametrize("rec, fields, text", RECORDS)
def test_record_hash_equality_and_repr_follow_the_field_tuple(rec, fields, text):
    assert repr(rec) == text
    twin = type(rec)(*fields)
    assert twin == rec and twin is not rec and not twin != rec
    if isinstance(rec, BoundReport):  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == hash(fields)
    assert rec != fields and rec != object()


def test_record_hash_is_cached_and_left_out_of_a_pickle(members):
    f = members["orbit_left_m6"].expr
    twin = RationalFromDivisor(f.scale, Divisor(f.divisor.entries, f.divisor.origin_order))
    assert twin == f and twin is not f
    assert hash(f) == hash(twin) == hash((f.scale, f.divisor)) == hash(f)  # the last cached
    copy = pickle.loads(pickle.dumps(f))
    assert fnmodel._HASH in vars(f) and fnmodel._HASH not in vars(copy)
    assert fnmodel._HASH not in vars(copy.divisor) and copy == f and hash(copy) == hash(f)
    # strings hash differently in another process: a record with a string
    # field, hashed here, hashes there as its field tuple does there
    member = members["rat_zero1_pole2"]
    hash(member)
    blob = pickle.dumps(member).hex()
    src = str(pathlib.Path(fnmodel.__file__).parents[1])
    code = ("import pickle, sys; m = pickle.loads(bytes.fromhex(sys.argv[1])); "
            "print(hash(m) == hash((m.key, m.expr, m.hyper_tag, m.note)))")
    out = subprocess.run([sys.executable, "-c", code, blob], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"},
                         check=True)
    assert out.stdout.strip() == "True"


def test_records_of_different_classes_with_equal_fields_differ():
    a, b = Const(2.0), Const(-1j)
    pairs = [(Product(a, b), Quotient(a, b)),
             (AsymSample(1.0, 2.0, 3.0, 4.0), BalanceSample(1.0, 2.0, 3.0, 4.0))]
    for x, y in pairs:
        assert hash(x) == hash(y)  # the same field tuple
        assert x != y and y != x and not x == y
        assert len({x, y}) == 2


@pytest.mark.parametrize("rec, fields, text", RECORDS)
def test_records_are_frozen(rec, fields, text):
    name = repr(rec).split("(", 1)[1].split("=", 1)[0]
    value = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) is value


def test_record_construction_by_position_keyword_and_default():
    assert ExpPoly(Z, 1) == ExpPoly(p=Z, a=1) == ExpPoly(Z, a=1 + 0j)
    assert ExpPoly(Z) == ExpPoly(Z, 0) and ExpPoly(Z).a == 0j
    assert Divisor() == Divisor((), 0) and Divisor().entries == ()
    rep = InvarianceReport(0.5, True, 3, 3, 0, 0, 0.0, False)
    assert (rep.n_value_matched, rep.matched, rep.violations) == (0, (), ())
    assert InvarianceReport.matched == () and " matched=" not in repr(rep)  # repr=False
    with pytest.raises(TypeError):
        Const()
    with pytest.raises(TypeError):
        Const(1, 2)
    with pytest.raises(TypeError):
        Const(1, value=2)
    with pytest.raises(TypeError):
        ExpPoly(Z, b=1)
    with pytest.raises(TypeError):
        QuadratureResult(value=1.0, err_estimate=0.0, panels=1, evals=2)


def test_record_default_factory_gives_a_fresh_dict():
    a, b = BoundReport(1.0, 0.0, 1.0, 1.0, True), BoundReport(1.0, 0.0, 1.0, 1.0, True)
    assert a.meta == b.meta == {} and a.meta is not b.meta
    assert a == b
    assert repr(a) == "BoundReport(r=1.0, lhs=0.0, rhs=1.0, margin=1.0, passed=True, meta={})"
    assert not hasattr(BoundReport, "meta")


def test_record_replace_builds_a_new_record_through_init():
    q = QuadratureResult(1.25, 3e-17, 6, 192)
    r = q.replace(value=2.0)
    assert r == QuadratureResult(2.0, 3e-17, 6, 192) and q.value == 1.25
    c = Const(2).replace(value=3)
    assert c == Const(3) and type(c.value) is complex  # __post_init__ ran
    with pytest.raises(ValueError):
        BoundConfig().replace(alpha=1.0)
    with pytest.raises(TypeError):
        q.replace(evals=1)


def test_record_post_init_normalises_and_rejects():
    assert type(Const(2).value) is complex
    assert Polynomial((1, 0, 0)).coeffs == (1 + 0j,)
    with pytest.raises(ValueError):
        BoundConfig(alpha=1)
    with pytest.raises(ValueError):
        RationalFromDivisor(0, Divisor())


def test_divisor_cache_hits_on_a_rebuilt_equal_expression():
    f = ExpPoly(Polynomial((0, 0, 1)), 1.0)
    f.divisor_in_disc(3.0)
    before = fnmodel._divisor_cached.cache_info()
    g = ExpPoly(Polynomial((0j, 0j, 1 + 0j)), 1)
    assert g == f and g is not f and g.p is not f.p
    assert g.divisor_in_disc(3.0) == f.divisor_in_disc(3.0)
    after = fnmodel._divisor_cached.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2


def test_divisor_cache_reads_the_largest_disc_and_drops_the_least_recent():
    cache = fnmodel._DivisorCache(maxsize=2)
    f, g, h = ExpPoly(Z, 1.0), ExpPoly(Z, -1.0), ExpPoly(Z2, 1.0)
    big = cache(f, 16.0)
    assert cache(f, 4.0) is big and big.moduli[-1] > 8.0  # disc 16, not 4
    cache(g, 4.0)
    cache(f, 4.0)
    cache(h, 4.0)  # g, the least recently read, is dropped
    assert cache.cache_info() == (2, 3, 2, 2)
    assert cache(f, 8.0) is big and cache(g, 4.0) == g.divisor_in_disc(4.0)
    assert cache.cache_info() == (3, 4, 2, 2)
    cache.cache_clear()
    assert cache.cache_info() == (0, 0, 2, 0)


def test_solve_ahead_leaves_a_failure_to_the_queries():
    f = ExpPoly(Z, 1.0)
    f.solve_ahead(1e200)  # more log-branches than a disc may hold
    with pytest.raises(OverflowSignal):
        f.divisor_in_disc(1e200)


def test_divisor_cached_properties_live_on_the_instance():
    d = Divisor.build([(1, 1), (2j, -1), (-3, 2)])
    assert d.moduli.tolist() == [1.0, 2.0, 3.0] and "moduli" in vars(d)
    assert d.restrict(2.5).moduli.tolist() == [1.0, 2.0]
    assert d == Divisor(d.entries, 0)  # cached values take no part in equality
