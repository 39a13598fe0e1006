"""Showcase object builders: orbit families, the tower kit, the corpus."""

import cmath
import math
import re

import pytest

from nevlab import (
    build_orbit_family,
    build_orbit_function,
    corpus,
    counterexample_kit,
    counterexample_preimages,
    divisor_cloud,
    figure_family,
    identity_probe_points,
    identity_residuals,
    left_figure_map,
    left_figure_seeds,
    right_figure_map,
    right_figure_seeds,
)
from nevlab.core import OrbitCollision


# ---------------------------------------------------------------------------
# orbit families
# ---------------------------------------------------------------------------


def test_left_seeds_sit_on_the_documented_circles():
    zeros, poles = left_figure_seeds()
    assert len(zeros) == 6 and len(poles) == 6
    for p in zeros + poles:
        assert abs(p) == pytest.approx(4.0)


def test_right_seeds_are_unit_modulus():
    zeros, poles = right_figure_seeds()
    assert len(zeros) == 5 and len(poles) == 3
    for p in zeros + poles:
        assert abs(p) == pytest.approx(1.0)


def test_right_map_is_binomial_with_ten_sheets():
    m = right_figure_map()
    assert m.n == 10
    assert m.alphas[-1] == pytest.approx(10 * (0.5 + 0.5j))


def test_family_shape_and_generation_layout():
    fam = figure_family("left", 6)
    assert fam.generations == 6
    assert len(fam.points_zero) == 6 and all(len(o) == 6 for o in fam.points_zero)
    assert len(fam.next_zero) == 6
    # generation 0 is the seed itself
    for seed, orb in zip(fam.seeds_zero, fam.points_zero):
        assert orb[0] == seed
    # each stored generation is the map image of the previous one, bitwise
    m = fam.map
    for orb in fam.points_zero + fam.points_pole:
        for a, b in zip(orb, orb[1:]):
            assert m(a) == b


def test_family_validation():
    m = left_figure_map()
    with pytest.raises(ValueError):
        build_orbit_family(m, [4.0], [4j], 0)
    with pytest.raises(OrbitCollision):
        build_orbit_family(m, [4.0, 4.0], [4j], 3)
    with pytest.raises(ValueError):
        # a fixed point of tau never escapes: shift vanishes at 0
        build_orbit_family(m, [0.0], [4j], 3)


def test_orbit_collision_names_the_point():
    # the pole seed is generation 1 of the zero orbit
    m = left_figure_map()
    with pytest.raises(OrbitCollision, match=re.escape(f"at {m(4.0)}")):
        build_orbit_family(m, [4.0], [m(4.0)], 3)


def test_census_radius_excludes_next_generation():
    for side in ("left", "right"):
        fam = figure_family(side, 6)
        R = fam.census_radius()
        assert all(abs(p) > R for p in fam.next_zero + fam.next_pole)
        # and no stored point sits numerically on the boundary
        for p in fam.all_points():
            assert abs(abs(p) - R) > 1e-7 * R


def test_orbit_function_divisor_totals():
    fam = figure_family("left", 6)
    f = build_orbit_function(fam)
    big = max(abs(p) for p in fam.all_points()) + 1.0
    d = f.divisor_in_disc(big)
    assert d.total("zeros") == 36
    assert d.total("poles") == 36

    fam_r = figure_family("right", 6)
    d_r = build_orbit_function(fam_r).divisor_in_disc(1e12)
    assert d_r.total("zeros") == 30    # 5 seeds
    assert d_r.total("poles") == 18    # 3 seeds


def test_divisor_cloud_rows():
    fam = figure_family("right", 4)
    rows = divisor_cloud(fam)
    assert len(rows) == (5 + 3) * 4
    sets = {row[0] for row in rows}
    assert sets == {"P1", "P2"}
    gens = {row[1] for row in rows if row[0] == "P1"}
    assert gens == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# the tower kit
# ---------------------------------------------------------------------------


def test_kit_targets_are_roots_of_unity():
    kit = counterexample_kit(5)
    assert kit.shift == pytest.approx(math.log(6.0))
    assert len(kit.targets) == 5
    for xi in kit.targets:
        assert abs(xi ** 5 - 1.0) < 1e-12
        assert abs(xi ** 6 - xi) < 1e-12   # the invariance identity's kernel


def test_kit_validation():
    with pytest.raises(ValueError):
        counterexample_kit(0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_identity_residuals_are_machine_small(k):
    kit = counterexample_kit(k)
    pts = identity_probe_points(25, seed=11)
    res = identity_residuals(kit, pts)
    assert res.max() < 1e-12


def test_probe_points_are_deterministic():
    a = identity_probe_points(10, seed=3)
    b = identity_probe_points(10, seed=3)
    assert (a == b).all()
    assert (abs(a) <= 2.0 + 1e-12).all()


def test_preimages_land_on_target_and_stay_after_shift():
    kit = counterexample_kit(3)
    for j in range(3):
        pts = counterexample_preimages(kit, j, 4)
        assert len(pts) == 4
        for z in pts:
            assert abs(kit.g.eval(z) - kit.targets[j]) <= 1e-9
            assert abs(kit.g.eval(z + kit.shift) - kit.targets[j]) <= 1e-9


def test_preimages_index_validation():
    kit = counterexample_kit(2)
    with pytest.raises(ValueError):
        counterexample_preimages(kit, 2, 3)


# ---------------------------------------------------------------------------
# corpus registry
# ---------------------------------------------------------------------------


def test_corpus_is_stable(members):
    assert len(members) == 11
    assert set(members) == {
        "exp_z", "exp_z2", "exp_z3", "rat_zero1_pole2", "rat_zero1_polem1",
        "rat_pole0", "exp_exp_z", "expz_minus_1", "expz2_minus_1",
        "orbit_left_m6", "orbit_right_m6",
    }
    for key, m in members.items():
        assert m.key == key
    assert corpus() == members  # a second build gives equal records


def test_corpus_growth_tags(members):
    assert members["exp_exp_z"].hyper_tag == 1.0
    assert members["exp_z"].hyper_tag == 0.0
