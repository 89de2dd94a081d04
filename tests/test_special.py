"""Special functions against quadrature oracles and exact identities."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from levynet.special import elliptic_E, elliptic_K, upper_incomplete_gamma

M_GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999]


@pytest.mark.parametrize("m", M_GRID)
def test_elliptic_k_vs_quadrature(m):
    oracle, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=500)
    res = elliptic_K(m)
    assert abs(res.value - oracle) < 1e-10
    assert res.abs_error_estimate >= 0.0


@pytest.mark.parametrize("m", M_GRID + [1.0])
def test_elliptic_e_vs_quadrature(m):
    oracle, _ = integrate.quad(
        lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=500)
    assert abs(elliptic_E(m).value - oracle) < 1e-10


def test_elliptic_scipy_cross_check():
    for m in M_GRID:
        assert abs(elliptic_K(m).value - sp.ellipk(m)) < 1e-12
        assert abs(elliptic_E(m).value - sp.ellipe(m)) < 1e-12


def test_elliptic_special_values():
    assert abs(elliptic_K(0.0).value - math.pi / 2.0) < 1e-15
    assert abs(elliptic_E(0.0).value - math.pi / 2.0) < 1e-15
    assert elliptic_E(1.0).value == 1.0


def test_elliptic_domain_errors():
    with pytest.raises(ValueError):
        elliptic_K(1.0)
    with pytest.raises(ValueError):
        elliptic_K(-0.1)
    with pytest.raises(ValueError):
        elliptic_E(1.0 + 1e-9)


def test_special_result_float_conversion():
    assert float(elliptic_K(0.5)) == elliptic_K(0.5).value


@pytest.mark.parametrize("s", [-1.7, -0.5, -0.3, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 3.0, 10.0])
def test_upper_gamma_recurrence_residual(s, x):
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}, valid for all s
    lhs = upper_incomplete_gamma(s + 1.0, x)
    rhs = s * upper_incomplete_gamma(s, x) + x ** s * math.exp(-x)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
def test_upper_gamma_vs_quadrature(s, x):
    oracle, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t),
                               x, math.inf, epsabs=1e-13, epsrel=1e-13)
    assert abs(upper_incomplete_gamma(s, x) - oracle) < 1e-10 * max(1.0, abs(oracle))


@pytest.mark.parametrize("s", [-0.1, -0.3, -0.5, -0.7, -0.9, -1.7])
def test_upper_gamma_negative_order_vs_mpmath(s):
    # 1e-13 relative on x in [1, 700]; where Gamma(s, x) is subnormal (s = -1.7
    # near x = 700) one unit of the subnormal grid, 2^-1074, is the finest
    # float64 result, so that much absolute error is allowed on top
    mp = pytest.importorskip("mpmath")
    x = np.geomspace(1.0, 700.0, 97)
    got = upper_incomplete_gamma(s, x)
    with mp.workdps(40):
        ref = np.array([float(mp.gammainc(s, a=v)) for v in x])
    assert np.all(np.abs(got - ref) <= 1e-13 * ref + 2.0 ** -1074)


def test_lower_plus_upper_is_gamma():
    for s in (0.3, 1.0, 2.5):
        for x in (0.2, 1.0, 4.0):
            total = (sp.gammainc(s, x) * math.gamma(s)
                     + upper_incomplete_gamma(s, x))
            assert abs(total - math.gamma(s)) < 1e-12 * math.gamma(s)


def test_incomplete_gamma_vectorized():
    x = np.array([0.5, 1.0, 2.0])
    out = upper_incomplete_gamma(-0.5, x)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


def test_incomplete_gamma_domain_errors():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-0.5, 0.0)
