"""Adaptive circle quadrature against independently computed integrals."""

import math

import numpy as np
import pytest

from nevlab.fnmodel import QuadratureFailure, TWO_PI
from nevlab.quadrature import adaptive_circle

# reference values computed with mpmath.quad at 30 digits
EXP_SIN_INTEGRAL = 7.9549265210128452745       # = 2 pi I_0(1)
NEG_POWER_ON_CIRCLE = 7.1283328107215635462    # integral of |e^{2it}-1|^{-0.45}
OFF_CIRCLE_NEG_SQRT = 4.5202281879712915817    # integral of |2e^{it}-1|^{-1/2}


def test_constant_integrand():
    res = adaptive_circle(lambda t: np.ones_like(t))
    assert res.value == pytest.approx(TWO_PI, rel=1e-13)


def test_smooth_periodic_integrand():
    res = adaptive_circle(lambda t: np.exp(np.sin(t)), atol=1e-12, rtol=1e-11)
    assert res.value == pytest.approx(EXP_SIN_INTEGRAL, rel=1e-10)
    assert res.err_estimate < 1e-8


def test_cos_squared():
    res = adaptive_circle(lambda t: np.cos(t) ** 2)
    assert res.value == pytest.approx(math.pi, rel=1e-12)


def test_integrable_singularity_off_circle():
    def f(t):
        return np.abs(2.0 * np.exp(1j * t) - 1.0) ** -0.5

    res = adaptive_circle(f, atol=1e-10, rtol=1e-9)
    assert res.value == pytest.approx(OFF_CIRCLE_NEG_SQRT, rel=1e-8)


def test_singularity_on_circle_with_split_angles():
    # |z^2 - 1|^{-0.45} on |z| = 1: genuine integrable singularities at 0, pi
    def f(t):
        with np.errstate(divide="ignore"):
            return np.exp(-0.45 * np.log(np.abs(np.exp(2j * t) - 1.0)))

    res = adaptive_circle(f, singular_angles=[0.0, math.pi], atol=1e-8, rtol=1e-7)
    assert res.value == pytest.approx(NEG_POWER_ON_CIRCLE, rel=1e-6)


def test_log_singularity_cancels_to_zero():
    """Circle mean of log|z^2-1| on |z|=1 vanishes (mean-value property);
    this is the cancellation-noise regime the global error cutoff exists for."""
    def f(t):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.exp(2j * t) - 1.0))

    res = adaptive_circle(f, singular_angles=[0.0, math.pi], atol=1e-9, rtol=1e-8)
    assert abs(res.value) < 1e-8
    assert res.panels < 20000


def test_interior_nan_raises():
    def f(t):
        out = np.sin(t)
        out[(t > 1.0) & (t < 1.2)] = np.nan
        return out

    with pytest.raises(QuadratureFailure):
        adaptive_circle(f)


def test_split_angles_are_normalized():
    # duplicated and out-of-range cuts must not break panel construction
    res = adaptive_circle(lambda t: np.ones_like(t),
                          singular_angles=[0.0, TWO_PI, -math.pi, math.pi, math.pi])
    assert res.value == pytest.approx(TWO_PI, rel=1e-13)


@pytest.mark.parametrize("atol, rtol", [(math.nan, 1e-8), (1e-9, math.nan),
                                        (math.inf, 1e-8), (1e-9, math.inf),
                                        (-1.0, 1e-8), (1e-9, -1e-3), (0.0, 0.0)])
def test_bad_tolerances_raise_before_any_evaluation(atol, rtol):
    calls = []
    with pytest.raises(ValueError):
        adaptive_circle(lambda t: calls.append(t) or np.ones_like(t), atol=atol, rtol=rtol)
    assert not calls
