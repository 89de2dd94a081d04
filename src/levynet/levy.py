"""Levy measures on (0, infinity), their tail intensities and transforms, and
samplers for Poisson point processes and infinitely divisible variables.

A nonnegative infinitely divisible variable X ~ ID(a, rho) decomposes as a
location a >= 0 plus the sum of the points of a Poisson process with mean
measure rho.  Everything here is driven by the tail intensity
rhobar(x) = rho((x, inf)) and its generalized inverse
rhobar^{-1}(u) = inf{x > 0 : rhobar(x) < u}, which turns cumulative sums of
unit exponentials into the decreasing atom sequence of the point process.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import laguerre
from scipy import integrate
from scipy import special as sp

from .activations import ActivationKind

__all__ = [
    "MeasureDescriptor",
    "LevyTriple",
    "PointProcessSample",
    "trivial_measure",
    "atomic_measure",
    "stable_measure",
    "horseshoe_measure",
    "gamma_measure",
    "beta_measure",
    "gg_pareto_measure",
    "scaled_stable_beta_measure",
    "finite_measure",
    "scale_mass",
    "dilate",
    "add_measures",
    "tail_intensity",
    "inverse_tail_intensity",
    "moment",
    "mean_mass_below",
    "mix_with_chi2",
    "activation_transform",
    "sample_ppp",
    "sample_ppp_matrix",
    "sample_id",
    "sample_id_batch",
    "default_atom_floor",
]

QUAD_ABS_TOL = 1e-10
INVERSE_REL_TOL = 1e-12
DEFAULT_FLOOR_REL = 1e-8

# chi-square(1) helpers (the law of a squared standard normal)
_chi2_sf = lambda x: sp.gammaincc(0.5, np.asarray(x, dtype=float) / 2.0)
_chi2_pdf = lambda x: np.exp(-np.asarray(x, dtype=float) / 2.0) / np.sqrt(
    2.0 * math.pi * np.asarray(x, dtype=float))


@dataclass
class MeasureDescriptor:
    """Descriptor of a Levy measure on (0, inf).

    kind is one of "trivial", "atomic", "analytic".  Atomic measures carry a
    list of (location, mass) pairs.  Analytic measures carry a vectorized tail
    intensity, optionally a closed-form inverse tail, density, moments,
    small-mass integral, and power-law metadata at 0 and infinity.
    """

    kind: str
    name: str = "measure"
    params: dict = field(default_factory=dict)
    atoms: tuple = ()
    support: tuple = (0.0, math.inf)
    tail_fn: object = None
    inverse_tail_fn: object = None
    density_fn: object = None
    moment_fn: object = None          # k -> M_k (may return inf)
    mean_below_fn: object = None      # eps -> int_0^eps x rho(dx)
    alpha_at_zero: float = None       # rhobar(x) ~ c0 x^{-alpha} as x -> 0
    zero_constant_c: float = None
    tau_at_infinity: float = None     # rhobar(x) ~ c x^{-tau} as x -> inf
    tail_constant_c: float = None
    finite_sampler: object = None     # rng, size -> draws from rho/|rho| (finite measures)

    @property
    def is_trivial(self):
        return self.kind == "trivial"

    def total_mass(self):
        """rho((0, inf)); inf for infinite activity measures."""
        if self.kind == "trivial":
            return 0.0
        if self.kind == "atomic":
            return float(sum(m for _, m in self.atoms))
        lo = self.support[0]
        probe = max(lo * (1 + 1e-12), 1e-300) if lo > 0 else 1e-300
        val = float(self.tail_fn(np.asarray([probe]))[0])
        return val

    def to_dict(self):
        return {"kind": self.kind, "name": self.name, "params": dict(self.params)}

    def __repr__(self):
        return f"MeasureDescriptor({self.name}, kind={self.kind}, params={self.params})"


@dataclass
class LevyTriple:
    """A location a >= 0 together with a Levy measure (the pair (a, rho))."""

    location_a: float
    measure: MeasureDescriptor

    def __post_init__(self):
        if self.location_a < 0:
            raise ValueError("location_a must be >= 0")
        m = self.measure
        if m.kind == "analytic":
            # integrability check: int min(1, x) rho(dx) < inf
            t1 = tail_intensity(m, 1.0) if m.support[1] > 1.0 else 0.0
            small = mean_mass_below(m, min(1.0, m.support[1]))
            if not np.isfinite(t1) or not np.isfinite(small):
                raise ValueError("measure fails int min(1,x) rho(dx) < inf")

    def to_dict(self):
        return {"location_a": self.location_a, "measure": self.measure.to_dict()}


@dataclass
class PointProcessSample:
    """Decreasing atoms of a Poisson process, with truncation metadata.

    truncated_mean_mass is int_0^threshold x rho(dx) when the measure has a
    finite first moment; infinite (flagging an uncompensated sample) otherwise.
    """

    atoms: np.ndarray
    truncation_threshold: float
    truncated_mean_mass: float

    @property
    def uncompensated(self):
        return not math.isfinite(self.truncated_mean_mass)


# ---------------------------------------------------------------------------
# quadrature and root-finding helpers
# ---------------------------------------------------------------------------

def _quad(f, lo, hi):
    """Adaptive quadrature with absolute tolerance QUAD_ABS_TOL, done entirely
    under the substitution x = e^y so endpoints at 0 and infinity are handled
    and integrands spanning many scales stay resolved."""
    y_lo = -700.0 if lo <= 0 else max(math.log(lo), -700.0)
    y_hi = 700.0 if hi == math.inf else math.log(hi)
    if y_hi <= y_lo:
        return 0.0
    g = lambda y: float(f(np.exp(y)) * np.exp(y))
    # chunk the log-axis so adaptive quadrature cannot step over a localized
    # bump on an interval spanning ~1400 units
    nchunk = max(int((y_hi - y_lo) / 30.0), 1)
    edges = np.linspace(y_lo, y_hi, nchunk + 1)
    total = 0.0
    for aa, bb in zip(edges[:-1], edges[1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(g, aa, bb, epsabs=QUAD_ABS_TOL / nchunk,
                                    epsrel=1e-11, limit=400)
        total += val
    return total


def _bisect_tail(tail, u, support, rel=INVERSE_REL_TOL):
    """Scalar generalized inverse inf{x : tail(x) < u} by bracketed bisection."""
    lo_s, hi_s = support
    # Bracket: lo with tail(lo) >= u, hi with tail(hi) < u.
    hi = min(hi_s, 1.0) if hi_s < math.inf else 1.0
    while float(tail(np.asarray([hi]))[0]) >= u:
        if hi_s < math.inf and hi >= hi_s * (1 - 1e-15):
            return hi_s
        hi = min(hi * 4.0, hi_s) if hi_s < math.inf else hi * 4.0
        if hi > 1e300:
            return math.inf
    lo = max(lo_s, min(hi / 4.0, 1.0))
    while lo > lo_s and float(tail(np.asarray([lo]))[0]) < u:
        lo = lo_s + (lo - lo_s) / 4.0 if lo_s > 0 else lo / 4.0
        if lo < 1e-300:
            lo = 1e-300
            break
    # bisect in log space first (robust across scales), then linearly
    for _ in range(200):
        if hi <= lo * (1.0 + 1e-12):
            break
        # geometric midpoint in log space (lo * hi can underflow to 0)
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if mid <= lo or mid >= hi:
            break
        if float(tail(np.asarray([mid]))[0]) >= u:
            lo = mid
        else:
            hi = mid
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * max(abs(mid), 1e-300):
            break
        if float(tail(np.asarray([mid]))[0]) >= u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _TabulatedInverse:
    """Interpolated generalized inverse of a tail intensity, built once and
    evaluated with np.interp; used on hot sampling paths where a closed-form
    inverse is unavailable.  Accuracy is validated against bisection in tests."""

    def __init__(self, m, u_max, u_min=1e-16, points_per_decade=800):
        x_lo = _bisect_tail(lambda x: m.tail_fn(x), u_max, m.support)
        x_hi = _bisect_tail(lambda x: m.tail_fn(x), u_min, m.support)
        x_lo = max(x_lo, 1e-300)
        if not math.isfinite(x_hi):
            raise ValueError("tail does not decay; cannot tabulate inverse")
        n = max(int(points_per_decade * (math.log10(x_hi) - math.log10(x_lo))), 64)
        n = min(n, 400000)
        grid_x = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), n))
        grid_u = np.asarray(m.tail_fn(grid_x), dtype=float)
        keep = np.concatenate(([True], np.diff(grid_u) < 0))
        # bounded-support tails hit exactly zero past the support; drop those
        # points before taking logs
        keep &= grid_u > 0
        grid_x, grid_u = grid_x[keep], grid_u[keep]
        self._log_u = np.log(grid_u[::-1])       # increasing
        self._log_x = np.log(grid_x[::-1])
        self.x_at_u_min = x_hi
        self.x_at_u_max = x_lo

    def __call__(self, u):
        lu = np.log(np.asarray(u, dtype=float))
        return np.exp(np.interp(lu, self._log_u, self._log_x,
                                left=self._log_x[0], right=self._log_x[-1]))


def _get_fast_inverse(m, u_max):
    if m.inverse_tail_fn is not None:
        return m.inverse_tail_fn
    cache = getattr(m, "_inv_cache", None)
    if cache is not None and cache[0] >= u_max:
        return cache[1]
    table = _TabulatedInverse(m, u_max * 1.0000001)
    m._inv_cache = (u_max, table)
    return table


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def trivial_measure():
    """The zero measure (GP regime)."""
    return MeasureDescriptor(kind="trivial", name="trivial", support=(0.0, 0.0))


def atomic_measure(atoms, name="atomic"):
    """A finite purely atomic measure given as (location, mass) pairs."""
    atoms = tuple((float(x), float(w)) for x, w in atoms)
    if not atoms or any(x <= 0 or w <= 0 for x, w in atoms):
        raise ValueError("atoms must be positive locations with positive mass")
    locs = np.array([x for x, _ in atoms])
    return MeasureDescriptor(
        kind="atomic", name=name, atoms=atoms,
        params={"atoms": [list(a) for a in atoms]},
        support=(float(locs.min()), float(locs.max())),
        moment_fn=lambda k: float(sum(w * x**k for x, w in atoms)),
        mean_below_fn=lambda e: float(sum(w * x for x, w in atoms if x <= e)),
    )


def stable_measure(alpha, c):
    """rho_stable(dx; alpha, c) = alpha c^alpha x^{-alpha-1} dx, so that
    rhobar(x) = c^alpha x^{-alpha}; ID(0, rho_stable) is the positive
    alpha-stable law with Laplace exponent (gamma t)^alpha for
    gamma = c Gamma(1-alpha)^{1/alpha}."""
    if not (0 < alpha < 1) or c <= 0:
        raise ValueError("stable measure needs alpha in (0,1), c > 0")
    ca = c**alpha

    def mom(k):
        return math.inf

    return MeasureDescriptor(
        kind="analytic", name="stable", params={"alpha": alpha, "c": c},
        tail_fn=lambda x: ca * np.asarray(x, dtype=float) ** (-alpha),
        inverse_tail_fn=lambda u: c * np.asarray(u, dtype=float) ** (-1.0 / alpha),
        density_fn=lambda x: alpha * ca * np.asarray(x, dtype=float) ** (-alpha - 1.0),
        moment_fn=mom,
        mean_below_fn=lambda e: alpha * ca * e ** (1.0 - alpha) / (1.0 - alpha),
        alpha_at_zero=alpha, zero_constant_c=ca,
        tau_at_infinity=alpha, tail_constant_c=ca,
    )


def horseshoe_measure(c):
    """The horseshoe limit measure (sqrt(c)/2) x^{-3/2} dx, i.e. the 1/2-stable
    measure with scaling c; ID(0, rho) = IG(1/2, c pi / 4)."""
    m = stable_measure(0.5, c)
    m.name = "horseshoe"
    m.params = {"c": c}
    return m


def gamma_measure(eta, rate):
    """rho(dx) = eta x^{-1} e^{-rate x} dx; ID(0, rho) = Gamma(eta, rate)."""
    if eta <= 0 or rate <= 0:
        raise ValueError("gamma measure needs eta > 0, rate > 0")

    def mom(k):
        return eta * math.gamma(k) / rate**k

    return MeasureDescriptor(
        kind="analytic", name="gamma", params={"eta": eta, "rate": rate},
        tail_fn=lambda x: eta * sp.exp1(rate * np.asarray(x, dtype=float)),
        density_fn=lambda x: eta * np.exp(-rate * np.asarray(x, dtype=float))
        / np.asarray(x, dtype=float),
        moment_fn=mom,
        mean_below_fn=lambda e: eta * (-math.expm1(-rate * e)) / rate,
        alpha_at_zero=0.0,
    )


# the beta tail for b not in {1/2, 1}: the length of its two series and of
# its Laguerre rule, and the points per block of that rule
_BETA_TERMS = 60
_LAGUERRE = laguerre.laggauss(_BETA_TERMS)
_BETA_ROWS = 1024


def _power_sum(v, coef, cut):
    """sum_k coef[k] v^(k+1) for the 1-d v >= 0 by Horner's rule, up to the
    last term that reaches cut at the largest point."""
    if v.size == 0:
        return v
    big = np.abs(coef) * v.max() ** np.arange(1, coef.size + 1) >= cut
    acc = np.zeros_like(v)
    for c in coef[:np.flatnonzero(big)[-1] + 1 if big.any() else 0][::-1]:
        acc += c
        acc *= v
    return acc


def _beta_tail_factory(eta, b):
    """(tail, inverse) of the beta measure, tail(x) = eta int_x^1 u^{-1}
    (1-u)^{b-1} du; inverse is None where no closed form exists."""
    if b == 1.0:
        tail = lambda x: -eta * np.log(np.asarray(x, dtype=float))
        inverse = lambda u: np.exp(-np.asarray(u, dtype=float) / eta)
        return tail, inverse
    if b == 0.5:
        def tail(x):
            # 2 arctanh(sqrt(1-x)) = log((1+w)^2 / x), stable down to tiny x
            x = np.asarray(x, dtype=float)
            w = np.sqrt(np.maximum(1.0 - x, 0.0))
            return eta * np.log((1.0 + w) ** 2 / x)

        def inverse(u):
            # 1 - tanh^2(v) = sech^2(v), written with decaying exponentials
            v = np.asarray(u, dtype=float) / (2.0 * eta)
            e = np.exp(-v)
            return (2.0 * e / (1.0 + e * e)) ** 2
        return tail, inverse

    k = np.arange(1.0, _BETA_TERMS + 1)
    x_coef = np.cumprod((k - b) / k) / k
    y_coef = 1.0 / (b + k)
    const = -sp.digamma(b) - np.euler_gamma
    # a dropped term stays under 1e-16 of the tail it is part of: the x-series
    # branch is above 0.026 (its least value, near b = 4, x = 1/2) and the
    # y-series sum above 1/b
    cut = 1e-18 * min(1.0, 1.0 / b)
    nodes, weights = _LAGUERRE

    def tail(x):
        # int_x^1 u^{-1} (1-u)^{b-1} du, y = 1 - x, by one of three expansions:
        # for x <= 1/2 and b x <= 2 the binomial series in x,
        #   -log x - psi(b) - gamma_E - sum_k (-1)^k C(b-1, k) x^k / k;
        # for x > 1/2 the series in y, y^b sum_n y^n / (b + n);
        # otherwise, with s = -log y, y^b int_0^inf e^{-b w} / (1 - e^{-s-w}) dw
        # by Gauss-Laguerre in b w (its pole at b w = -b s <= -2 is far enough)
        x = np.clip(np.asarray(x, dtype=float), 1e-320, 1.0)
        flat = x.reshape(-1)
        out = np.empty_like(flat)
        near_one = flat > 0.5
        small = ~near_one & (b * flat <= 2.0)
        xs = flat[small]
        out[small] = -np.log(xs) + const - _power_sum(xs, x_coef, cut)
        yn = 1.0 - flat[near_one]
        out[near_one] = yn ** b * (1.0 / b + _power_sum(yn, y_coef, cut))
        mid = np.flatnonzero(~near_one & ~small)
        for s in range(0, mid.size, _BETA_ROWS):
            idx = mid[s:s + _BETA_ROWS]
            log_y = np.log1p(-flat[idx])
            g = -np.expm1(log_y[:, None] - nodes / b)
            out[idx] = np.exp(b * log_y) / b * ((1.0 / g) @ weights)
        return eta * out.reshape(x.shape)
    return tail, None


def beta_measure(eta, b):
    """The beta Levy measure eta x^{-1} (1-x)^{b-1} dx on (0, 1); infinite
    with bounded support, rhobar(x) ~ eta log(1/x) at 0."""
    if eta <= 0 or b <= 0:
        raise ValueError("beta measure needs eta > 0, b > 0")
    tail, inverse = _beta_tail_factory(float(eta), float(b))

    def mom(k):
        return eta * sp.beta(k, b)

    return MeasureDescriptor(
        kind="analytic", name="beta", params={"eta": eta, "b": b},
        support=(0.0, 1.0),
        tail_fn=tail, inverse_tail_fn=inverse,
        density_fn=lambda x: eta * (1.0 - np.asarray(x, dtype=float)) ** (b - 1.0)
        / np.asarray(x, dtype=float),
        moment_fn=mom,
        mean_below_fn=lambda e: eta * (1.0 - (1.0 - min(e, 1.0)) ** b) / b,
        alpha_at_zero=0.0,
    )


def gg_pareto_measure(eta, alpha, tau):
    """The generalized gamma Pareto measure
    rho(dx) = (eta / Gamma(1-alpha)) x^{-1-tau} gammainc_lower(tau-alpha, x) dx,
    whose tail intensity behaves like c1 x^{-alpha} at 0 and c2 x^{-tau} at
    infinity.  Integrating by parts gives the closed form
    rhobar(x) = (eta / (tau Gamma(1-alpha))) (x^{-tau} g(tau-alpha, x) + G(-alpha, x))
    with g/G the lower/upper incomplete gamma functions."""
    if not (0 < alpha < 1) or tau <= alpha or eta <= 0:
        raise ValueError("gg_pareto needs alpha in (0,1), tau > alpha, eta > 0")
    g1ma = math.gamma(1.0 - alpha)
    pref = eta / (tau * g1ma)
    gshape = tau - alpha

    def tail(x):
        x = np.asarray(x, dtype=float)
        small = x < 1e-4
        xs = np.where(small, 0.5, x)
        lower = sp.gammainc(gshape, xs) * math.gamma(gshape)
        upper_neg = (sp.gammaincc(1.0 - alpha, xs) * g1ma
                     - xs ** (-alpha) * np.exp(-xs)) / (-alpha)
        exact = pref * (xs ** (-tau) * lower + upper_neg)
        # series of x^{-tau} g(tau-a, x) + G(-a, x) around 0:
        # Gamma(-a) + x^{-a} sum_n (-x)^n/n! [1/(gshape+n) - 1/(n-a)]
        xa = np.where(small, x, 0.5)
        asym = pref * (xa ** (-alpha) * tau / (alpha * gshape)
                       + g1ma / (-alpha)
                       + xa ** (1.0 - alpha) * (1.0 / (1.0 - alpha) - 1.0 / (gshape + 1.0))
                       + xa ** (2.0 - alpha) * (1.0 / (gshape + 2.0) - 1.0 / (2.0 - alpha)) / 2.0
                       + xa ** (3.0 - alpha) * (1.0 / (3.0 - alpha) - 1.0 / (gshape + 3.0)) / 6.0)
        return np.where(small, asym, exact)

    def mom(k):
        if k >= tau:
            return math.inf
        return eta * math.gamma(k - alpha) / (g1ma * (tau - k))

    def mean_below(e):
        if tau <= 1:
            return math.inf
        lo1 = sp.gammainc(1.0 - alpha, e) * g1ma
        lo2 = sp.gammainc(gshape, e) * math.gamma(gshape)
        return float(eta / g1ma * (lo1 - e ** (1.0 - tau) * lo2) / (tau - 1.0))

    return MeasureDescriptor(
        kind="analytic", name="gg_pareto",
        params={"eta": eta, "alpha": alpha, "tau": tau},
        tail_fn=tail,
        density_fn=lambda x: np.where(
            np.asarray(x, dtype=float) < 1e-6,
            eta / (g1ma * gshape) * np.asarray(x, dtype=float) ** (-1.0 - alpha),
            eta / g1ma * np.maximum(np.asarray(x, dtype=float), 1e-6) ** (-1.0 - tau)
            * sp.gammainc(gshape, np.asarray(x, dtype=float)) * math.gamma(gshape)),
        moment_fn=mom, mean_below_fn=mean_below,
        inverse_tail_fn=None,
        alpha_at_zero=alpha,
        zero_constant_c=eta / (g1ma * alpha * (tau - alpha)),
        tau_at_infinity=tau,
        tail_constant_c=eta * math.gamma(tau - alpha) / (tau * g1ma),
    )


def scaled_stable_beta_measure(c):
    """The regularized-horseshoe limit measure
    (1/pi) x^{-3/2} (1 - x/c^2)^{-1/2} dx on (0, c^2), with closed tail
    rhobar(x) = (2/pi) sqrt(1/x - 1/c^2)."""
    if c <= 0:
        raise ValueError("scaled stable beta needs c > 0")
    c2 = c * c

    def tail(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / math.pi * np.sqrt(np.maximum(c2 - x, 0.0) / c2) * x ** (-0.5)

    def inverse(u):
        u = np.asarray(u, dtype=float)
        return 1.0 / ((math.pi * u / 2.0) ** 2 + 1.0 / c2)

    def mom(k):
        return c ** (2 * k - 1) * math.gamma(k - 0.5) / (math.sqrt(math.pi) * math.gamma(k))

    return MeasureDescriptor(
        kind="analytic", name="scaled_stable_beta", params={"c": c},
        support=(0.0, c2),
        tail_fn=tail, inverse_tail_fn=inverse,
        density_fn=lambda x: (np.asarray(x, dtype=float) ** (-1.5)
                              / (math.pi * np.sqrt(1.0 - np.asarray(x, dtype=float) / c2))),
        moment_fn=mom,
        mean_below_fn=lambda e: 2.0 * c / math.pi * math.asin(min(math.sqrt(e) / c, 1.0)),
        alpha_at_zero=0.5, zero_constant_c=2.0 / math.pi,
    )


def finite_measure(total_mass, survival, sampler=None, density=None,
                   mean_fn=None, name="finite", params=None, support=(0.0, math.inf)):
    """A finite measure c*H given by its total mass and the survival function
    of the normalized probability law H, plus an optional exact sampler."""
    if total_mass <= 0:
        raise ValueError("total mass must be > 0")

    def mom(k):
        return math.nan if density is None else total_mass * _quad(
            lambda x: np.asarray(x) ** k * density(x), support[0], support[1])

    return MeasureDescriptor(
        kind="analytic", name=name, params=params or {},
        support=support,
        tail_fn=lambda x: total_mass * np.asarray(survival(x), dtype=float),
        density_fn=None if density is None else (lambda x: total_mass * density(x)),
        moment_fn=None if density is None else mom,
        mean_below_fn=mean_fn,
        finite_sampler=sampler,
    )


# ---------------------------------------------------------------------------
# measure algebra
# ---------------------------------------------------------------------------

def scale_mass(m, factor):
    """The measure factor * rho (same atoms, scaled intensity)."""
    if factor <= 0:
        raise ValueError("factor must be > 0")
    if m.kind == "trivial":
        return trivial_measure()
    if m.kind == "atomic":
        return atomic_measure([(x, w * factor) for x, w in m.atoms], name=m.name)
    if m.name == "stable" or m.name == "horseshoe":
        alpha = m.params.get("alpha", 0.5)
        c = m.params["c"]
        return stable_measure(alpha, c * factor ** (1.0 / alpha))
    if m.name == "gamma":
        return gamma_measure(m.params["eta"] * factor, m.params["rate"])
    if m.name == "beta":
        return beta_measure(m.params["eta"] * factor, m.params["b"])
    if m.name == "gg_pareto":
        return gg_pareto_measure(m.params["eta"] * factor,
                                 m.params["alpha"], m.params["tau"])
    tail0, inv0, dens0 = m.tail_fn, m.inverse_tail_fn, m.density_fn
    mom0, mb0 = m.moment_fn, m.mean_below_fn
    return MeasureDescriptor(
        kind="analytic", name=f"scaled({m.name})",
        params={"factor": factor, "base": m.params},
        support=m.support,
        tail_fn=lambda x: factor * tail0(x),
        inverse_tail_fn=None if inv0 is None else
        (lambda u: inv0(np.asarray(u, dtype=float) / factor)),
        density_fn=None if dens0 is None else (lambda x: factor * dens0(x)),
        moment_fn=None if mom0 is None else (lambda k: factor * mom0(k)),
        mean_below_fn=None if mb0 is None else (lambda e: factor * mb0(e)),
        alpha_at_zero=m.alpha_at_zero,
        zero_constant_c=None if m.zero_constant_c is None else factor * m.zero_constant_c,
        tau_at_infinity=m.tau_at_infinity,
        tail_constant_c=None if m.tail_constant_c is None else factor * m.tail_constant_c,
    )


def dilate(m, s):
    """The pushforward of rho under x -> s x (atom sizes scaled by s > 0)."""
    if s <= 0:
        raise ValueError("s must be > 0")
    if m.kind == "trivial":
        return trivial_measure()
    if m.kind == "atomic":
        return atomic_measure([(x * s, w) for x, w in m.atoms], name=m.name)
    if m.name == "stable" or m.name == "horseshoe":
        return stable_measure(m.params.get("alpha", 0.5), m.params["c"] * s)
    if m.name == "gamma":
        return gamma_measure(m.params["eta"], m.params["rate"] / s)
    tail0, inv0, dens0 = m.tail_fn, m.inverse_tail_fn, m.density_fn
    mom0, mb0 = m.moment_fn, m.mean_below_fn
    return MeasureDescriptor(
        kind="analytic", name=f"dilated({m.name})",
        params={"s": s, "base": m.params},
        support=(m.support[0] * s, m.support[1] * s),
        tail_fn=lambda x: tail0(np.asarray(x, dtype=float) / s),
        inverse_tail_fn=None if inv0 is None else (lambda u: s * inv0(u)),
        density_fn=None if dens0 is None else
        (lambda x: dens0(np.asarray(x, dtype=float) / s) / s),
        moment_fn=None if mom0 is None else (lambda k: s**k * mom0(k)),
        mean_below_fn=None if mb0 is None else (lambda e: s * mb0(e / s)),
        alpha_at_zero=m.alpha_at_zero,
        zero_constant_c=None if m.zero_constant_c is None
        else m.zero_constant_c * s**m.alpha_at_zero,
        tau_at_infinity=m.tau_at_infinity,
        tail_constant_c=None if m.tail_constant_c is None
        else m.tail_constant_c * s**m.tau_at_infinity,
    )


def add_measures(m1, m2):
    """The superposition rho1 + rho2."""
    if m1.kind == "trivial":
        return m2
    if m2.kind == "trivial":
        return m1
    if m1.kind == "atomic" and m2.kind == "atomic":
        return atomic_measure(list(m1.atoms) + list(m2.atoms))
    if (m1.name == "stable" and m2.name == "stable"
            and m1.params["alpha"] == m2.params["alpha"]):
        a = m1.params["alpha"]
        c = (m1.params["c"] ** a + m2.params["c"] ** a) ** (1.0 / a)
        return stable_measure(a, c)
    t1, t2 = m1.tail_fn, m2.tail_fn
    if m1.kind == "atomic":
        t1 = lambda x: tail_intensity(m1, x)
    if m2.kind == "atomic":
        t2 = lambda x: tail_intensity(m2, x)
    mom1 = (lambda k: moment(m1, k))
    mom2 = (lambda k: moment(m2, k))

    def tau_meta():
        taus = [t for t in (m1.tau_at_infinity, m2.tau_at_infinity) if t is not None]
        if not taus:
            return None, None
        tau = min(taus)
        c = 0.0
        for mm in (m1, m2):
            if mm.tau_at_infinity == tau and mm.tail_constant_c is not None:
                c += mm.tail_constant_c
        return tau, (c if c > 0 else None)

    tau, tc = tau_meta()
    return MeasureDescriptor(
        kind="analytic", name=f"sum({m1.name},{m2.name})",
        params={"left": m1.to_dict(), "right": m2.to_dict()},
        support=(min(m1.support[0], m2.support[0]), max(m1.support[1], m2.support[1])),
        tail_fn=lambda x: t1(x) + t2(x),
        density_fn=None if (m1.density_fn is None or m2.density_fn is None)
        else (lambda x: m1.density_fn(x) + m2.density_fn(x)),
        moment_fn=lambda k: mom1(k) + mom2(k),
        mean_below_fn=lambda e: mean_mass_below(m1, e) + mean_mass_below(m2, e),
        alpha_at_zero=max(a for a in (m1.alpha_at_zero, m2.alpha_at_zero, 0.0)
                          if a is not None),
        tau_at_infinity=tau, tail_constant_c=tc,
    )


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def tail_intensity(m, x):
    """rhobar(x) = rho((x, inf)) for x > 0 (vectorized)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("tail intensity requires x > 0")
    if m.kind == "trivial":
        out = np.zeros_like(x_arr)
    elif m.kind == "atomic":
        out = np.zeros_like(x_arr, dtype=float)
        for loc, w in m.atoms:
            out = out + w * (x_arr < loc)
    else:
        lo, hi = m.support
        out = np.where(x_arr >= hi, 0.0,
                       m.tail_fn(np.minimum(np.maximum(x_arr, 1e-300), hi)))
        out = np.maximum(out, 0.0)
    if np.isscalar(x) or np.asarray(x).shape == ():
        return float(np.asarray(out).ravel()[0])
    return out


def inverse_tail_intensity(m, u):
    """Generalized inverse rhobar^{-1}(u) = inf{x > 0 : rhobar(x) < u}."""
    scalar = np.isscalar(u) or np.asarray(u).shape == ()
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr <= 0):
        raise ValueError("inverse tail intensity requires u > 0")
    if m.kind == "trivial":
        out = np.zeros_like(u_arr)
    elif m.kind == "atomic":
        locs = np.array(sorted((x for x, _ in m.atoms), reverse=True))
        tails = np.array([tail_intensity(m, x * (1 - 1e-15)) for x in locs])
        out = np.zeros_like(u_arr)
        for loc, t in zip(locs[::-1], tails[::-1]):
            out = np.where(u_arr <= t, loc, out)
    elif m.inverse_tail_fn is not None:
        out = np.minimum(np.asarray(m.inverse_tail_fn(u_arr), dtype=float),
                         m.support[1])
        out = np.maximum(out, 0.0)
    else:
        out = np.array([_bisect_tail(m.tail_fn, float(ui), m.support)
                        for ui in u_arr])
        mass0 = m.total_mass()
        out = np.where(u_arr > mass0, 0.0, out) if math.isfinite(mass0) else out
    return float(out[0]) if scalar else out


def moment(m, k):
    """M_k = int x^k rho(dx), or +inf when divergent."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if m.kind == "trivial":
        return 0.0
    if m.kind == "atomic":
        return float(sum(w * x**k for x, w in m.atoms))
    if m.tau_at_infinity is not None and m.tau_at_infinity <= k \
            and m.support[1] == math.inf:
        return math.inf
    if m.moment_fn is not None:
        val = m.moment_fn(k)
        if not (isinstance(val, float) and math.isnan(val)):
            return float(val)
    # quadrature of k x^{k-1} rhobar(x), capped where the tail is negligible
    hi = m.support[1]
    remainder = 0.0
    if hi == math.inf:
        hi = _bisect_tail(m.tail_fn, 1e-24, m.support)
        if not math.isfinite(hi):
            return math.inf
        if m.tau_at_infinity is not None and m.tail_constant_c is not None \
                and m.tau_at_infinity > k:
            tau, c = m.tau_at_infinity, m.tail_constant_c
            remainder = k * c * hi ** (k - tau) / (tau - k)
    return _quad(lambda x: k * np.asarray(x) ** (k - 1) * m.tail_fn(x),
                 m.support[0], hi) + remainder


def mean_mass_below(m, eps):
    """int_0^eps x rho(dx); the deterministic compensation for atoms dropped
    below a truncation threshold."""
    if m.kind == "trivial":
        return 0.0
    if m.kind == "atomic":
        return float(sum(w * x for x, w in m.atoms if x <= eps))
    if m.mean_below_fn is not None:
        return float(m.mean_below_fn(eps))
    eps = min(eps, m.support[1])
    # int_0^e x rho(dx) = int_0^e (rhobar(x) - rhobar(e)) dx
    te = float(m.tail_fn(np.asarray([eps]))[0])
    return _quad(lambda x: m.tail_fn(x) - te, m.support[0], eps)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _chi2_moment(order):
    # E[(Z^2)^order] for standard normal Z
    return 2.0**order * math.gamma(order + 0.5) / math.sqrt(math.pi)


# Fixed nodes of the chi-square mixture rule: z = z0(x) + e^t on the uniform
# grid t = -70, -69.8, ..., 4.6 (374 nodes, step 0.2).  As rhobar(x/z) grows
# with z and chi2_1(z) <= z^{-1/2} / sqrt(2 pi), cutting t below -70 drops at
# most 0.8 e^{-35} rhobar(x / (z0 + e^{-70})), under 1e-15 rhobar(x) for
# unbounded support; cutting e^t above 100 drops a factor e^{-50} of the
# chi-square weight.
_MIX_STEP = 0.2
_MIX_EXP_T = np.exp(np.arange(-70.0, math.log(100.0), _MIX_STEP))[None, :]
# points per block: keeps each (points, nodes) temporary near 0.2 MB however
# many points a caller asks for (a tabulated inverse can ask for 400 000)
_MIX_BLOCK = 64


def _chi2_mix_rule(base_tail, hi, x, density):
    """nubar(x) = int rhobar(x/z) chi2_1(z) dz (or, with density=True, the
    density nu(x) = (2x)^{-1} int rhobar(x/z) chi2_1(z) (z - 1) dz) by the
    trapezoid rule in t on z = z0 + e^t, z0 = x/hi, with one call of
    base_tail per block of points.  The output has the shape of x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 1)
    out = np.empty(flat.shape[0])
    for s in range(0, flat.shape[0], _MIX_BLOCK):
        xb = flat[s:s + _MIX_BLOCK]
        z = _MIX_EXP_T if hi == math.inf else xb / hi + _MIX_EXP_T
        r = xb / z
        v = np.where(r >= hi, 0.0, base_tail(np.minimum(np.maximum(r, 1e-300), hi)))
        w = _chi2_pdf(z) * _MIX_EXP_T
        if density:
            w = w * (z - 1.0) / (2.0 * xb)
        out[s:s + _MIX_BLOCK] = _MIX_STEP * (v * w).sum(axis=1)
    return out.reshape(x.shape)


def mix_with_chi2(m):
    """The measure nu with nubar(x) = int_0^inf rhobar(x/z) chi2_1(z) dz — the
    Levy measure of the sum of squared weights when the node variances have
    Levy measure rho.  Power-law exponents are preserved; a power-law constant
    at either end is multiplied by 2^t Gamma(t + 1/2) / sqrt(pi).

    Stable (and horseshoe) measures map to stable measures in closed form and
    atomic ones to finite sums of scaled chi-square laws.  Otherwise nubar is a
    fixed-node quadrature: with hi the right end of rho's support,
    z = z0 + e^t with z0 = x/hi (0 for unbounded support), so the kink of
    rhobar(x/z) at z = z0 sits at t = -inf and an endpoint factor (1 - r)^b
    decays like e^{b t}; the integrand then decays exponentially in t at both
    ends and the trapezoid rule on a uniform t-grid converges geometrically
    in 1/step (the exp-sinh idea of Takahasi and Mori, 1974).  The grid is
    374 nodes, t in [-70, 4.6] with step 0.2, shared by all x, and each
    block of 64 points costs one vectorised call of rho's tail on a
    (64, 374) array.  The density comes from the same tail values through
    nu(x) = -d/dx nubar(x) = (2x)^{-1} int rhobar(x/z) chi2_1(z) (z - 1) dz
    (differentiate nubar(x) = int_0^hi rhobar(r) chi2_1(x/r) x r^{-2} dr
    under the integral), so it needs no density of rho and avoids the
    (1 - r)^{b-1} endpoint singularity, which a float r cannot resolve.
    Measured against the closed form mix(beta(eta, 1/2)) = 2 gamma(eta/2,
    1/2) on x in [1e-3, 30], tail and density agree to 1.5e-14 relative.
    Against a step-0.05 rule on t in [-110, ln 500], for x in [1e-10, 100],
    they agree to 1e-13 relative for gamma, gg_pareto, scaled stable beta
    and beta measures with b in {0.3, 1/2, 1, 1.5, 2, 2.7, 3, 5, 7.3}."""
    if m.kind == "trivial":
        return trivial_measure()
    if m.name in ("stable", "horseshoe"):
        a = m.params.get("alpha", 0.5)
        c = m.params["c"]
        return stable_measure(a, c * _chi2_moment(a) ** (1.0 / a))
    if m.kind == "atomic":
        atoms = m.atoms

        def tail(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for loc, w in atoms:
                out = out + w * _chi2_sf(x / loc)
            return out

        def dens(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for loc, w in atoms:
                out = out + w * _chi2_pdf(x / loc) / loc
            return out

        return MeasureDescriptor(
            kind="analytic", name=f"chi2mix({m.name})",
            params={"base": m.params}, support=(0.0, math.inf),
            tail_fn=tail, density_fn=dens,
            moment_fn=lambda k: moment(m, k) * _chi2_moment(k),
        )

    base_tail, hi = m.tail_fn, m.support[1]
    tau = m.tau_at_infinity
    return MeasureDescriptor(
        kind="analytic", name=f"chi2mix({m.name})", params={"base": m.params},
        support=(0.0, math.inf),
        tail_fn=lambda x: _chi2_mix_rule(base_tail, hi, x, density=False),
        density_fn=lambda x: _chi2_mix_rule(base_tail, hi, x, density=True),
        moment_fn=lambda k: moment(m, k) * _chi2_moment(k),
        alpha_at_zero=m.alpha_at_zero,
        zero_constant_c=None if m.zero_constant_c is None or m.alpha_at_zero is None
        else m.zero_constant_c * _chi2_moment(m.alpha_at_zero),
        tau_at_infinity=tau,
        tail_constant_c=None if m.tail_constant_c is None or tau is None
        else m.tail_constant_c * _chi2_moment(tau),
    )


def activation_transform(t, act):
    """Map a layer's (a, rho) to the (c, eta) driving the next layer's
    single-input recursion: c = a * E[phi(Z)^2] and
    etabar(x) = int_{phi(z) != 0} rhobar(x / phi(z)^2) phi_N(z) dz.

    Closed forms: linear gives (a, nu); ReLU gives (a/2, nu/2); leaky ReLU with
    slope beta gives (a (1+beta^2)/2, (nubar(x) + nubar(x/beta^2))/2), where nu
    is the chi-square mixture of rho.
    """
    if not isinstance(act, ActivationKind) or not act.homogeneous:
        raise ValueError("activation transform requires a positive homogeneous activation")
    a = t.location_a
    m = t.measure
    if act.name == "linear":
        return a, mix_with_chi2(m)
    if act.name == "relu":
        c = a / 2.0
        if m.kind == "trivial":
            return c, trivial_measure()
        if m.name == "beta" and m.params["b"] == 0.5:
            # stable-beta calculus: the ReLU transform of the beta(eta, 1/2)
            # measure is the gamma measure with eta/2 and rate 1/2
            return c, gamma_measure(m.params["eta"] / 2.0, 0.5)
        return c, scale_mass(mix_with_chi2(m), 0.5)
    if act.name == "leaky_relu":
        beta = act.beta
        c = a * (1.0 + beta * beta) / 2.0
        if m.kind == "trivial":
            return c, trivial_measure()
        nu = mix_with_chi2(m)
        return c, scale_mass(add_measures(nu, dilate(nu, beta * beta)), 0.5)
    raise ValueError(f"unsupported homogeneous activation {act.name}")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def default_atom_floor(m):
    """Default truncation threshold: 1e-8 relative to rhobar^{-1}(1).
    Deterministic per measure, so the (possibly bisection-backed) reference
    point is computed once and cached on the descriptor."""
    if m.kind != "analytic":
        return 0.0
    cached = getattr(m, "_floor_cache", None)
    if cached is not None:
        return cached
    mass = m.total_mass()
    u_ref = 1.0 if not math.isfinite(mass) or mass > 1.0 else 0.5 * mass
    ref = inverse_tail_intensity(m, u_ref)
    if ref <= 0:
        ref = m.support[1] if math.isfinite(m.support[1]) else 1.0
    floor = DEFAULT_FLOOR_REL * ref
    m._floor_cache = floor
    return floor


def _finite_counts_and_draws(m, rng, n):
    gen = rng.generator
    if m.kind == "atomic":
        locs = np.array([x for x, _ in m.atoms])
        ws = np.array([w for _, w in m.atoms])
        total = ws.sum()
        counts = gen.poisson(total, size=n)
        draws = locs[gen.choice(len(locs), p=ws / total, size=int(counts.sum()))]
        return counts, draws
    total = m.total_mass()
    counts = gen.poisson(total, size=n)
    draws = np.asarray(m.finite_sampler(rng, int(counts.sum())), dtype=float)
    return counts, draws


def sample_ppp_matrix(m, rng, atom_floor=None, n=1):
    """n independent point-process draws as a (n, J) array of atoms sorted
    decreasing along each row and padded with zeros.  Returns
    (atoms, truncation_threshold, truncated_mean_mass)."""
    if m.kind == "trivial":
        return np.zeros((n, 0)), 0.0, 0.0
    if m.kind == "atomic" or m.finite_sampler is not None:
        counts, draws = _finite_counts_and_draws(m, rng, n)
        j = int(counts.max()) if n else 0
        out = np.zeros((n, max(j, 1)))
        pos = 0
        for i, c in enumerate(counts):
            row = np.sort(draws[pos:pos + c])[::-1]
            out[i, :c] = row
            pos += c
        return out, 0.0, 0.0
    if atom_floor is None:
        atom_floor = default_atom_floor(m)
    if atom_floor <= 0:
        raise ValueError("atom_floor must be > 0 for infinite-activity measures")
    mass = float(tail_intensity(m, atom_floor))
    inv = _get_fast_inverse(m, mass * (1 + 1e-9) + 1e-12)
    gen = rng.generator
    ncols = int(mass + 10.0 * math.sqrt(mass + 1.0) + 20.0)
    out = np.zeros((n, ncols))
    g = gen.standard_exponential((n, ncols)).cumsum(axis=1)
    active = g <= mass
    # rows where even the last column is still active are extended serially
    overflow = np.where(active[:, -1])[0]
    out[active] = inv(g[active])
    for i in overflow:
        extra = []
        last = g[i, -1]
        while True:
            last += gen.standard_exponential()
            if last > mass:
                break
            extra.append(float(inv(last)))
        if extra:
            pad = np.zeros((n, len(extra)))
            pad[i] = extra
            out = np.concatenate([out, pad], axis=1)
    mean_below = mean_mass_below(m, atom_floor) if moment(m, 1) < math.inf else math.inf
    return out, float(atom_floor), float(mean_below)


def sample_ppp(m, rng, atom_floor=None):
    """One draw of the Poisson process with mean measure rho, as a decreasing
    atom sequence truncated at atom_floor (exact for finite measures)."""
    atoms, thr, mean_below = sample_ppp_matrix(m, rng, atom_floor, n=1)
    row = atoms[0]
    return PointProcessSample(atoms=row[row > 0], truncation_threshold=thr,
                              truncated_mean_mass=mean_below)


def _truncated_atom_sums(m, rng, n, atom_floor):
    """Row sums of n point-process draws truncated at atom_floor, computed in
    row chunks so heavy measures (many atoms per draw) stay within memory."""
    mass = float(tail_intensity(m, atom_floor))
    inv = _get_fast_inverse(m, mass * (1 + 1e-9) + 1e-12)
    gen = rng.generator
    ncols = int(mass + 10.0 * math.sqrt(mass + 1.0) + 20.0)
    rows_per_chunk = max(int(2e7 / ncols), 1)
    sums = np.empty(n)
    done = 0
    while done < n:
        k = min(rows_per_chunk, n - done)
        g = gen.standard_exponential((k, ncols)).cumsum(axis=1)
        active = g <= mass
        vals = np.zeros_like(g)
        vals[active] = inv(g[active])
        s = vals.sum(axis=1)
        for i in np.where(active[:, -1])[0]:
            last = g[i, -1]
            while True:
                last += gen.standard_exponential()
                if last > mass:
                    break
                s[i] += float(inv(last))
        sums[done:done + k] = s
        done += k
    return sums


def sample_id_batch(t, rng, n, atom_floor=None):
    """n draws of ID(a, rho): location + atom sums + deterministic
    compensation of the truncated small-atom mass when M1 < inf."""
    m = t.measure
    if m.kind == "trivial":
        return np.full(n, t.location_a, dtype=float)
    if m.kind == "atomic" or m.finite_sampler is not None:
        atoms, _, _ = sample_ppp_matrix(m, rng, atom_floor, n=n)
        return t.location_a + atoms.sum(axis=1)
    if m.name in ("stable", "horseshoe") and atom_floor is None:
        # the total atom mass of a stable measure (the horseshoe's is the
        # 1/2-stable one) has an exact sampler
        from .rng import sample_positive_stable
        draws = sample_positive_stable(m.params.get("alpha", 0.5), m.params["c"],
                                       rng, n)
        return t.location_a + np.atleast_1d(np.asarray(draws, dtype=float))
    if atom_floor is None:
        atom_floor = default_atom_floor(m)
    sums = _truncated_atom_sums(m, rng, n, atom_floor)
    mean_below = mean_mass_below(m, atom_floor) if moment(m, 1) < math.inf else math.inf
    comp = mean_below if math.isfinite(mean_below) else 0.0
    return t.location_a + sums + comp


def sample_id(t, rng, atom_floor=None):
    """A single draw of ID(a, rho)."""
    return float(sample_id_batch(t, rng, 1, atom_floor)[0])
