"""Closed-form ReLU kernel moments against the quadrature oracle and
Monte Carlo."""

import math

import numpy as np
import pytest

from levynet import kernels, levy
from levynet.kernels import (gp_relu_kernel, j_alpha_quadrature, kappa,
                             kernel_cond_stats, relu_moment)
from levynet.rng import RngStream

RHO_GRID = np.linspace(-0.95, 0.95, 19)


@pytest.mark.parametrize("alpha", kernels.CLOSED_FORM_ALPHAS)
def test_kappa_closed_forms_vs_quadrature(alpha):
    for rho in RHO_GRID:
        oracle = j_alpha_quadrature(alpha, math.acos(rho))
        assert abs(kappa(alpha, rho) - oracle) < 1e-8


def test_kappa_known_values_at_zero():
    # independent Gaussians: E[X+ Y+] factorizes, so kappa_1(0) = 1
    assert abs(kappa(0.0, 0.0) - math.pi / 2.0) < 1e-14
    assert abs(kappa(1.0, 0.0) - 1.0) < 1e-14
    assert abs(kappa(2.0, 0.0) - math.pi / 2.0) < 1e-14


def test_kappa_at_full_correlation():
    # at rho = 1 the pair collapses onto one Gaussian:
    # kappa_alpha(1) = 2 pi E[(X+)^{2 alpha}]
    for alpha in kernels.CLOSED_FORM_ALPHAS:
        assert abs(kappa(alpha, 1.0)
                   - 2.0 * math.pi * relu_moment(alpha, 1.0)) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5])
def test_kappa_at_full_correlation_outside_the_closed_forms(alpha):
    # the quadrature's integrand is singular at theta = 0, so rho = 1 takes
    # kappa_alpha(1) = 2 pi E[(X+)^{2 alpha}] directly
    assert kappa(alpha, 1.0) == 2.0 * math.pi * relu_moment(alpha, 1.0)
    assert kappa(alpha, np.array([1.0]))[0] == kappa(alpha, 1.0)


def test_kappa_three_halves_at_and_near_full_correlation():
    # 2 pi E[(X+)^3] = 2 pi sqrt(2) / sqrt(pi) = 5.01326; the slope there is
    # alpha^2 kappa_{1/2}(1) = 5.6, so 1 - cos(1e-3) = 5e-7 moves it ~3e-6
    assert abs(kappa(1.5, 1.0) - 5.013256549) < 1e-8
    assert abs(kappa(1.5, 1.0) - kappa(1.5, math.cos(1e-3))) < 1e-5
    # 0 < arccos rho < 1e-6 is still refused rather than integrated badly
    with pytest.raises(ValueError, match="nearly singular"):
        kappa(1.5, math.cos(1e-7))


def test_kappa_monotone_in_rho():
    for alpha in kernels.CLOSED_FORM_ALPHAS:
        vals = [kappa(alpha, r) for r in np.linspace(-1.0, 1.0, 41)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_kappa_domain_error():
    with pytest.raises(ValueError):
        kappa(1.0, 1.5)


# the closed forms written with the math module, one rho at a time
_KAPPA_LOOP = {
    0.0: lambda r: math.pi / 2.0 + math.asin(r),
    1.0: lambda r: (math.sqrt(1.0 - r * r)
                    + (math.pi / 2.0 + math.asin(r)) * r),
    2.0: lambda r: (3.0 * math.sqrt(1.0 - r * r) * r
                    + (math.pi / 2.0 + math.asin(r)) * (1.0 + 2.0 * r * r)),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 1.5])
def test_kappa_on_arrays_matches_scalar_entries(alpha):
    rho = np.linspace(-0.95, 0.95, 12).reshape(3, 4)
    got = kappa(alpha, rho)
    assert isinstance(got, np.ndarray) and got.shape == (3, 4)
    for idx in np.ndindex(rho.shape):
        assert got[idx] == kappa(alpha, float(rho[idx]))
        if alpha in _KAPPA_LOOP:
            # numpy's and libm's arcsin may differ in the last bit
            assert abs(got[idx] - _KAPPA_LOOP[alpha](rho[idx])) <= 4e-15
    assert isinstance(kappa(alpha, 0.25), float)
    assert kappa(alpha, np.array([0.25])).shape == (1,)
    assert kappa(alpha, np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError):
        kappa(alpha, np.array([0.2, -1.0 - 1e-12]))


def test_kappa_generic_alpha_vs_mc():
    rng = RngStream(71, 0).generator
    n = 400_000
    for alpha, rho in [(0.3, 0.4), (0.8, -0.2)]:
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        mc = np.mean(np.maximum(z1, 0) ** alpha * np.maximum(z2, 0) ** alpha)
        se = np.std(np.maximum(z1, 0) ** alpha
                    * np.maximum(z2, 0) ** alpha) / math.sqrt(n)
        assert abs(kappa(alpha, rho) / (2 * math.pi) - mc) < 4 * se


def test_j_alpha_near_zero_theta_guard():
    with pytest.raises(ValueError):
        j_alpha_quadrature(1.0, 1e-8)
    # alpha <= 1/2 stays integrable near theta = 0
    assert math.isfinite(j_alpha_quadrature(0.3, 1e-3))


def test_relu_moment_closed_form():
    # 2 alpha = 1: E[X+] = 1/sqrt(2 pi); 2 alpha = 2: E[(X+)^2] = 1/2
    assert abs(relu_moment(0.5, 1.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-14
    assert abs(relu_moment(1.0, 1.0) - 0.5) < 1e-14
    assert abs(relu_moment(1.0, 4.0) - 2.0) < 1e-14


def test_relu_moment_vs_mc():
    rng = RngStream(72, 0).generator
    z = rng.standard_normal(500_000)
    for alpha in (0.3, 0.5, 0.8):
        vals = np.maximum(z, 0) ** (2 * alpha)
        mc, se = vals.mean(), vals.std() / math.sqrt(z.size)
        assert abs(relu_moment(alpha, 1.0) - mc) < 4 * se


def test_gp_relu_kernel_basic_properties():
    x = np.array([1.0, 2.0])
    y = np.array([-1.0, 0.5])
    d = 2
    assert gp_relu_kernel(x, y, d) == gp_relu_kernel(y, x, d)
    assert gp_relu_kernel(np.zeros(2), y, d) == 0.0
    # diagonal: kappa_1(1) = pi, so K(x,x) = |x|^2 / d_in
    assert abs(gp_relu_kernel(x, x, d) - float(x @ x) / d) < 1e-12
    # Cauchy-Schwarz for the kernel
    kxy = gp_relu_kernel(x, y, d)
    assert kxy ** 2 <= gp_relu_kernel(x, x, d) * gp_relu_kernel(y, y, d) + 1e-12


def test_kernel_cond_stats_beta_model():
    # variance model with M1 = 2, M2 = 4 / (2 + beta)
    beta = 10.0
    m = levy.beta_measure(beta, beta / 2.0)
    t = levy.LevyTriple(0.0, m)
    k_prev = np.array([[1.0, 0.5], [0.5, 1.0]])
    mean, var = kernel_cond_stats(k_prev, t, sigma_v=1.0, sigma_b=0.0)
    assert abs(mean - 2.0 * kappa(1.0, 0.5) / (2 * math.pi)) < 1e-12
    assert abs(var - (4.0 / (2.0 + beta)) * kappa(2.0, 0.5) / (2 * math.pi)) < 1e-12


def test_kernel_cond_stats_degenerate_block():
    t = levy.LevyTriple(1.0, levy.trivial_measure())
    mean, var = kernel_cond_stats(np.zeros((2, 2)), t, 1.0, 0.3)
    assert mean == 0.09 and var == 0.0


def test_kernel_cond_stats_requires_finite_moments():
    t = levy.LevyTriple(0.0, levy.stable_measure(0.5, 1.0))
    with pytest.raises(ValueError):
        kernel_cond_stats(np.eye(2), t, 1.0, 0.0)
