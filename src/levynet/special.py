"""Special functions: complete elliptic integrals via the arithmetic-geometric
mean, and the upper incomplete gamma function, negative parameters included."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

__all__ = [
    "SpecialFnResult",
    "elliptic_K",
    "elliptic_E",
    "upper_incomplete_gamma",
]

_AGM_TOL = 1e-15


@dataclass(frozen=True)
class SpecialFnResult:
    """A computed value together with an absolute error estimate."""
    value: float
    abs_error_estimate: float

    def __float__(self):
        return self.value


def elliptic_K(m):
    """Complete elliptic integral of the first kind, parameter convention
    K(m) = int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt, computed by the AGM."""
    if not (0.0 <= m < 1.0):
        raise ValueError("elliptic_K requires m in [0, 1)")
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > _AGM_TOL:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    value = math.pi / (2.0 * a)
    err = max(abs(a - b) / a * value, 1e-15 * value)
    return SpecialFnResult(value, err)


def elliptic_E(m):
    """Complete elliptic integral of the second kind,
    E(m) = int_0^{pi/2} (1 - m sin^2 t)^{1/2} dt, computed by the AGM with the
    running-sum correction E = K (1 - sum_n 2^{n-1} c_n^2)."""
    if not (0.0 <= m <= 1.0):
        raise ValueError("elliptic_E requires m in [0, 1]")
    if m == 1.0:
        return SpecialFnResult(1.0, 1e-15)
    a, b = 1.0, math.sqrt(1.0 - m)
    c = math.sqrt(m)
    total = 0.5 * c * c  # 2^{-1} c_0^2
    power = 0.5
    while abs(a - b) > _AGM_TOL:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        total += power * c * c
    k = math.pi / (2.0 * a)
    value = k * (1.0 - total)
    err = max(abs(a - b) / a * abs(value), 1e-15 * abs(value) + 1e-16)
    return SpecialFnResult(value, err)


# Gamma(s, x) for s < 0 takes the continued fraction from this x on.  Against
# 40-digit mpmath, the recurrence's relative error reaches 3.6e-13 on
# [1, 2) (s = -0.05) and grows with x (1.5e-10 at x = 600), while below 1 it
# stays under 8.1e-14 for s in [-2.5, -0.05]; the continued fraction stays
# under 1e-14 on [1, 700] and needs at most 90 terms at x = 1.
_CF_FROM_X = 1.0
_CF_MAX_TERMS = 200
# past this x, Gamma(s, x) < x^{-1} e^{-x} rounds to 0 for s <= 0
_UNDERFLOW_X = 746.0


def _upper_gamma_cf(s, x):
    """Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1 (1 - s) / (x + 3 - s -
    2 (2 - s) / (x + 5 - s - ...))) for the 1-d array x > 0 and s < 0, by the
    modified Lentz method; each entry leaves the working arrays once it
    converges.  Both Lentz ratios stay at or above x + i + 1 - s > 0 at
    term i (by induction on i), so neither needs a guard against 0."""
    h = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - s
    c = np.full_like(x, math.inf)
    d = 1.0 / b
    hi = d.copy()
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        hi *= delta
        done = np.abs(delta - 1.0) <= 2.0 ** -52
        if done.any():
            h[idx[done]] = hi[done]
            left = ~done
            idx, b, c, d, hi = idx[left], b[left], c[left], d[left], hi[left]
            if not idx.size:
                break
    h[idx] = hi
    return np.exp(-x) * h * x ** s


def _upper_gamma_recurrence(s, x):
    # shift s up to positive territory, then walk back down with
    # Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s
    n = int(math.ceil(-s))
    if s + n == 0.0:
        n += 1
    top = sp.gammaincc(s + n, x) * sp.gamma(s + n)
    for k in range(n):
        sk = s + n - 1 - k
        top = (top - x**sk * np.exp(-x)) / sk
    return top


def upper_incomplete_gamma(s, x):
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt.

    For s < 0 (with x strictly positive) the value is 0 past x = 746, the
    continued fraction of Gamma(s, x) on [1, 746], and below 1 the
    recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s walked down
    from a positive parameter; Gamma(0, x) = E_1(x) is handled directly.
    """
    x = np.asarray(x, dtype=float)
    s = float(s)
    if s > 0:
        if np.any(x < 0):
            raise ValueError("upper_incomplete_gamma requires x >= 0 for s > 0")
        out = sp.gammaincc(s, x) * sp.gamma(s)
        return out if out.shape else float(out)
    if np.any(x <= 0):
        raise ValueError("upper_incomplete_gamma requires x > 0 when s <= 0")
    if s == 0.0:
        out = sp.exp1(x)
        return out if out.shape else float(out)
    out = np.where(x > _UNDERFLOW_X, 0.0, math.nan)
    far = (x >= _CF_FROM_X) & (x <= _UNDERFLOW_X)
    near = x < _CF_FROM_X
    if far.any():
        out[far] = _upper_gamma_cf(s, x[far])
    if near.any():
        out[near] = _upper_gamma_recurrence(s, x[near])
    return out if out.shape else float(out)
