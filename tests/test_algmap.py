"""Fixed-branch maps, orbit iteration and the forward-invariance census."""

import cmath
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from nevlab import (
    AlgebraicMap,
    Divisor,
    ExpPoly,
    Polynomial,
    RationalFromDivisor,
    binomial_shift_map,
    escape_probe,
    invariance_census,
    left_figure_map,
    orbit,
    polynomialize,
)
from nevlab.algmap import _image_hits_value
from nevlab.fnmodel import BranchAmbiguity, OrderMismatch

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
    assert orb.escape_flag
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


def test_census_describe_mentions_verdict():
    f, shift = lattice_exp()
    rep, = invariance_census(f, shift, [1.0], R=20.0)
    assert "pass" in rep.describe()


# value-confirmation fallback -------------------------------------------------


def test_image_hits_value_zero_target():
    f = RationalFromDivisor(1.0, Divisor.build([(1.0, 1)]))  # z - 1
    assert _image_hits_value(f, 1.0 + 1e-9, 0.0, 1e-6)
    assert not _image_hits_value(f, 1.1, 0.0, 1e-6)


def test_image_hits_value_pole_target():
    f = RationalFromDivisor(1.0, Divisor((), -1))            # 1/z
    assert _image_hits_value(f, 1e-12, None, 1e-6)
    assert not _image_hits_value(f, 1.0, None, 1e-6)


def test_image_hits_value_finite_target():
    f = ExpPoly(Z)
    assert _image_hits_value(f, 0.0, 1.0, 1e-6)              # e^0 = 1
    assert _image_hits_value(f, 2j * math.pi, 1.0, 1e-6)
    assert not _image_hits_value(f, 0.1, 1.0, 1e-6)
    # huge |f| against a moderate target: decided in the log domain
    assert not _image_hits_value(f, 800.0, 1.0, 1e-6)
