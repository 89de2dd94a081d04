"""Closed-form ReLU kernel moments.

For a centred bivariate Gaussian (X, Y) with unit variances and correlation
rho, E[max(0,X)^alpha max(0,Y)^alpha] = kappa_alpha(rho) / (2 pi) up to the
(Sigma11 Sigma22)^{alpha/2} scale.  The four alpha values 0, 1/2, 1, 2 have
closed forms (the 1/2 case through complete elliptic integrals); everything
else is served by adaptive quadrature of the J_alpha integral.
"""

import math

import numpy as np
from scipy import integrate

from .special import elliptic_E, elliptic_K

__all__ = [
    "kappa",
    "j_alpha_quadrature",
    "relu_moment",
    "homogeneous_moment",
    "gp_relu_kernel",
    "kernel_cond_stats",
]

CLOSED_FORM_ALPHAS = (0.0, 0.5, 1.0, 2.0)


def kappa(alpha, rho):
    """kappa_alpha(rho) = 2 pi E[max(0,X)^alpha max(0,Y)^alpha] for standard
    Gaussians with correlation rho, elementwise over an array rho (a scalar
    gives a float): vectorised closed forms for alpha in {0, 1, 2}, entry by
    entry otherwise (elliptic integrals at 1/2, quadrature elsewhere)."""
    r = np.asarray(rho, dtype=float)
    if not (np.abs(r) <= 1.0).all():
        raise ValueError("rho must lie in [-1, 1]")
    if alpha not in (0.0, 1.0, 2.0):
        out = np.array([_kappa_entry(alpha, float(v)) for v in r.flat])
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)
    theta = math.pi / 2.0 + np.arcsin(r)
    if alpha == 0.0:
        out = theta
    elif alpha == 1.0:
        out = np.sqrt(1.0 - r * r) + theta * r
    else:
        out = 3.0 * np.sqrt(1.0 - r * r) * r + theta * (1.0 + 2.0 * r * r)
    return float(out) if out.ndim == 0 else out


def _kappa_entry(alpha, rho):
    """kappa_alpha(rho) of one rho for alpha outside {0, 1, 2}."""
    if alpha == 0.5:
        m = (rho + 1.0) / 2.0
        if m == 1.0:
            # E(1) = 1 and the K term carries a vanishing (1 - rho) factor
            return math.sqrt(math.pi / 2.0) * 2.0
        return math.sqrt(math.pi / 2.0) * (
            2.0 * elliptic_E(m).value - (1.0 - rho) * elliptic_K(m).value)
    if rho == 1.0:
        # the pair collapses onto one Gaussian: kappa_alpha(1) = 2 pi E[(X+)^{2 alpha}]
        return 2.0 * math.pi * relu_moment(alpha, 1.0)
    return j_alpha_quadrature(alpha, math.acos(rho))


def j_alpha_quadrature(alpha, theta):
    """J_alpha(theta) = Gamma(alpha+1) sin^{2 alpha + 1}(theta)
    int_0^{pi/2} cos^alpha(x) / (1 - cos(theta) cos(x))^{alpha+1} dx,
    the quadrature oracle behind kappa via kappa_alpha(rho) = J_alpha(arccos rho)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    ct = math.cos(theta)
    if theta < 1e-6 and alpha > 0.5:
        raise ValueError(
            "J_alpha integrand is nearly singular at theta ~ 0 for alpha > 1/2; "
            "use the closed forms or a larger theta")

    def integrand(x):
        return math.cos(x) ** alpha / (1.0 - ct * math.cos(x)) ** (alpha + 1.0)

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0,
                            epsabs=1e-12, epsrel=1e-12, limit=500,
                            points=[0.0] if ct > 0.999 else None)
    return math.gamma(alpha + 1.0) * math.sin(theta) ** (2.0 * alpha + 1.0) * val


def relu_moment(alpha, sigma11):
    """E[max(0, X)^{2 alpha}] for X ~ N(0, sigma11):
    sigma11^alpha 2^{alpha-1} Gamma(alpha + 1/2) / Gamma(1/2)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if sigma11 < 0:
        raise ValueError("sigma11 must be >= 0")
    return (sigma11 ** alpha * 2.0 ** (alpha - 1.0)
            * math.gamma(alpha + 0.5) / math.sqrt(math.pi))


def homogeneous_moment(act, alpha, sigma11):
    """E|phi(X)|^{2 alpha} for X ~ N(0, sigma11) and a positive homogeneous
    phi with slopes (p, q): (|p|^{2 alpha} + |q|^{2 alpha}) E[max(0, X)^{2 alpha}]."""
    weight = sum(abs(s) ** (2.0 * alpha) for s in act.slopes)
    return weight * relu_moment(alpha, sigma11)


def gp_relu_kernel(x, x_prime, d_in):
    """The deterministic one-hidden-layer ReLU Gaussian-process kernel
    (|x| |x'| / d_in) (1/pi) kappa_1(rho) with rho = x.x' / (|x| |x'|)."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    nx, nxp = np.linalg.norm(x), np.linalg.norm(xp)
    if nx == 0.0 or nxp == 0.0:
        return 0.0
    rho = float(np.clip(x @ xp / (nx * nxp), -1.0, 1.0))
    return nx * nxp / d_in * kappa(1.0, rho) / math.pi


def kernel_cond_stats(k_prev, triple, sigma_v, sigma_b):
    """Conditional mean and variance of the next-layer ReLU kernel entry given
    the 2x2 previous-layer block [[K, K12], [K12, K']]:

    mean = sigma_b^2 + sigma_v^2 (M1 + a) sqrt(K K') kappa_1(rho) / (2 pi)
    var  = sigma_v^4 M2 (K K') kappa_2(rho) / (2 pi)
    """
    from . import levy

    k_prev = np.asarray(k_prev, dtype=float)
    if k_prev.shape != (2, 2):
        raise ValueError("k_prev must be a 2x2 kernel block")
    kxx, kyy, kxy = k_prev[0, 0], k_prev[1, 1], k_prev[0, 1]
    m1 = levy.moment(triple.measure, 1)
    m2 = levy.moment(triple.measure, 2)
    if not math.isfinite(m1) or not math.isfinite(m2):
        raise ValueError("kernel_cond_stats requires finite M1 and M2 "
                         "(first two moments of the Levy measure)")
    prod = kxx * kyy
    if prod <= 0.0:
        return sigma_b ** 2, 0.0
    rho = float(np.clip(kxy / math.sqrt(prod), -1.0, 1.0))
    mean = (sigma_b ** 2 + sigma_v ** 2 * (m1 + triple.location_a)
            * math.sqrt(prod) * kappa(1.0, rho) / (2.0 * math.pi))
    var = sigma_v ** 4 * m2 * prod * kappa(2.0, rho) / (2.0 * math.pi)
    return mean, var
