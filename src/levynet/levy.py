"""Levy measures on (0, infinity), their tail intensities and transforms, and
samplers for Poisson point processes and infinitely divisible variables.

A nonnegative infinitely divisible variable X ~ ID(a, rho) decomposes as a
location a >= 0 plus the sum of the points of a Poisson process with mean
measure rho.  Everything here is driven by the tail intensity
rhobar(x) = rho((x, inf)) and its generalized inverse
rhobar^{-1}(u) = inf{x > 0 : rhobar(x) < u}, which maps uniforms scaled by
the mass above a floor to the atoms of the point process above that floor.

The atoms of an infinite measure are drawn down to a floor eps, and the
dropped atoms are replaced by their mean int_0^eps x rho(dx).  By default
eps is set by a budget on the variance of what is dropped (Asmussen and
Rosinski 2001): the largest eps <= x_ref with
V(eps) = int_0^eps x^2 rho(dx) <= DROPPED_VARIANCE_TOL x_ref^2, x_ref the
reference atom rhobar^{-1}(1).  No row may expect more than MAX_ROW_ATOMS
atoms, whatever the floor.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial import laguerre
from scipy import integrate
from scipy import special as sp

from .activations import LINEAR, ActivationKind
from .kernels import homogeneous_moment
from .rng import _BLOCK, _marked_sums, sample_gamma, sample_positive_stable
from .special import upper_incomplete_gamma

__all__ = [
    "MeasureDescriptor",
    "LevyTriple",
    "trivial_measure",
    "atomic_measure",
    "stable_measure",
    "horseshoe_measure",
    "gamma_measure",
    "beta_measure",
    "gg_pareto_measure",
    "scaled_stable_beta_measure",
    "finite_measure",
    "tail_intensity",
    "inverse_tail_intensity",
    "moment",
    "mean_mass_below",
    "mix_with_chi2",
    "activation_transform",
    "sample_ppp_matrix",
    "sample_id_batch",
    "default_atom_floor",
]

QUAD_ABS_TOL = 1e-10
# the default floor drops atoms of variance at most this times x_ref^2
DROPPED_VARIANCE_TOL = 1e-6
# no floor may keep more than this many atoms a row on average
MAX_ROW_ATOMS = 1e7

# chi-square(1) helpers (the law of a squared standard normal)
_chi2_sf = lambda x: sp.gammaincc(0.5, np.asarray(x, dtype=float) / 2.0)
_chi2_pdf = lambda x: np.exp(-np.asarray(x, dtype=float) / 2.0) / np.sqrt(
    2.0 * math.pi * np.asarray(x, dtype=float))


@dataclass
class MeasureDescriptor:
    """A Levy measure on (0, inf), given by its functions: a vectorized tail
    intensity and moments, and optionally a closed-form inverse tail, density,
    small-atom moments int_0^eps x^k rho(dx) for k = 1, 2 and exact sampler.

    A measure with a finite_sampler is finite and drawn exactly as
    compound-Poisson rows; one without is drawn by the truncated series.
    family keys the closed forms of the activation transform (the chi-square
    mixture is its linear case) and the ID sampler: ("stable", alpha, c) for
    alpha c^alpha x^{-alpha-1} dx, the horseshoe measure included,
    ("gamma", eta, rate) for eta x^{-1} e^{-rate x} dx, ("beta", eta, b) and
    ("atomic", atoms) for (location, mass) pairs.  Support (0, 0) marks the
    zero measure (the GP regime).
    truncation_cache holds the last truncation, (atom_floor argument,
    `_truncation` record); it takes no part in == or repr.
    """

    name: str = "measure"
    params: dict = field(default_factory=dict)
    support: tuple = (0.0, math.inf)
    tail_fn: object = None
    inverse_tail_fn: object = None
    density_fn: object = None
    moment_fn: object = None          # k -> M_k (may return inf)
    moment_below_fn: object = None    # eps, k -> int_0^eps x^k rho(dx), k = 1, 2
    finite_sampler: object = None     # rng, size -> draws from rho/|rho| (finite measures)
    family: tuple = None              # ("stable" | "gamma" | "beta" | "atomic", *params)
    truncation_cache: tuple = field(default=None, repr=False, compare=False)

    @property
    def is_trivial(self):
        return self.support == (0.0, 0.0)

    def total_mass(self):
        """rho((0, inf)); inf for infinite activity measures."""
        lo = self.support[0]
        probe = max(lo * (1 + 1e-12), 1e-300) if lo > 0 else 1e-300
        return float(self.tail_fn(np.asarray([probe]))[0])

    def to_dict(self):
        return {"name": self.name, "params": dict(self.params)}

    def __repr__(self):
        return f"MeasureDescriptor({self.name}, params={self.params})"


@dataclass
class LevyTriple:
    """A location a >= 0 together with a Levy measure (the pair (a, rho))."""

    location_a: float
    measure: MeasureDescriptor

    def __post_init__(self):
        if self.location_a < 0:
            raise ValueError("location_a must be >= 0")
        m = self.measure
        # integrability check: int min(1, x) rho(dx) < inf
        t1 = tail_intensity(m, 1.0) if m.support[1] > 1.0 else 0.0
        small = mean_mass_below(m, min(1.0, m.support[1]))
        if not np.isfinite(t1) or not np.isfinite(small):
            raise ValueError("measure fails int min(1,x) rho(dx) < inf")


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


# halvings of the log-x bracket in `_generalized_inverse`: 60 leave a width
# of ln(1e600) / 2^60, about 1.2e-15 relative in x
_INVERSE_HALVINGS = 60


def _generalized_inverse(f, y, support):
    """inf{x in support : f(x) < y} for a non-increasing, vectorised f at
    every entry of the array y at once, by halving the bracket in log x a
    fixed number of times over the support clipped to [1e-300, 1e300], with
    one call of f on the whole array per halving.  Where f is still >= y at
    the top of the support the answer is that end: inf for an unbounded
    support.  Where f < y on the whole support it is the lower end."""
    y = np.asarray(y, dtype=float)
    lo_s, hi_s = support
    x_top = min(hi_s, 1e300)
    lo = np.full(y.shape, math.log(max(lo_s, 1e-300)))
    hi = np.full(y.shape, math.log(x_top))
    # far from the answer f may overflow or underflow on its way to 0 or inf
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(_INVERSE_HALVINGS):
            mid = 0.5 * (lo + hi)
            above = f(np.exp(mid)) >= y
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        top = f(np.full(y.shape, x_top)) >= y
    return np.where(top, hi_s, np.exp(0.5 * (lo + hi)))


# the tabulated inverse covers u in [1e-16, u_max] at 800 points per decade of x
_TABLE_U_MIN, _TABLE_PER_DECADE = 1e-16, 800


class _TabulatedInverse:
    """Interpolated generalized inverse of a tail intensity, built once and
    evaluated with np.interp; used on hot sampling paths where a closed-form
    inverse is unavailable.  Accuracy is validated against bisection in tests."""

    def __init__(self, m, u_max):
        x_lo, x_hi = _generalized_inverse(m.tail_fn, [u_max, _TABLE_U_MIN], m.support)
        x_lo = max(x_lo, 1e-300)
        if not math.isfinite(x_hi):
            raise ValueError("tail does not decay; cannot tabulate inverse")
        n = max(int(_TABLE_PER_DECADE * (math.log10(x_hi) - math.log10(x_lo))), 64)
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

    def __call__(self, u):
        lu = np.log(np.asarray(u, dtype=float))
        return np.exp(np.interp(lu, self._log_u, self._log_x,
                                left=self._log_x[0], right=self._log_x[-1]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def trivial_measure():
    """The zero measure (GP regime): zero tail, inverse and moments, and a
    sampler that draws nothing."""
    zero = lambda x: np.zeros(np.shape(x))
    return MeasureDescriptor(
        name="trivial", support=(0.0, 0.0), tail_fn=zero, inverse_tail_fn=zero,
        moment_fn=lambda k: 0.0, moment_below_fn=lambda e, k: 0.0,
        finite_sampler=lambda rng, size: np.zeros(size))


def atomic_measure(atoms, name="atomic"):
    """A finite purely atomic measure given as (location, mass) pairs: a step
    tail with its exact inverse, and a sampler that picks the locations with
    probabilities proportional to their masses."""
    atoms = tuple((float(x), float(w)) for x, w in atoms)
    if not atoms or any(x <= 0 or w <= 0 for x, w in atoms):
        raise ValueError("atoms must be positive locations with positive mass")
    locs, ws = np.array(atoms).T
    tail = lambda x: sum(w * (np.asarray(x, dtype=float) < loc) for loc, w in atoms)
    # rhobar just below each location, non-increasing in the location; the
    # inverse at u is the largest location whose value is >= u, else 0
    asc = np.sort(locs)
    below = tail(asc * (1 - 1e-15))
    ends = np.concatenate(([0.0], asc))
    inverse = lambda u: ends[np.searchsorted(-below, -np.asarray(u, dtype=float),
                                             side="right")]
    return MeasureDescriptor(
        name=name, params={"atoms": [list(a) for a in atoms]},
        support=(0.0, float(locs.max())),
        tail_fn=tail, inverse_tail_fn=inverse,
        moment_fn=lambda k: float(sum(w * x**k for x, w in atoms)),
        moment_below_fn=lambda e, k: float(sum(w * x**k for x, w in atoms if x <= e)),
        finite_sampler=lambda rng, size: locs[rng.generator.choice(
            len(locs), p=ws / ws.sum(), size=size)],
        family=("atomic", atoms),
    )


def stable_measure(alpha, c):
    """rho_stable(dx; alpha, c) = alpha c^alpha x^{-alpha-1} dx, so that
    rhobar(x) = c^alpha x^{-alpha}; ID(0, rho_stable) is the positive
    alpha-stable law with Laplace exponent (gamma t)^alpha for
    gamma = c Gamma(1-alpha)^{1/alpha}."""
    if not (0 < alpha < 1) or c <= 0:
        raise ValueError("stable measure needs alpha in (0,1), c > 0")
    ca = c**alpha
    return MeasureDescriptor(
        name="stable", params={"alpha": alpha, "c": c},
        tail_fn=lambda x: ca * np.asarray(x, dtype=float) ** (-alpha),
        inverse_tail_fn=lambda u: c * np.asarray(u, dtype=float) ** (-1.0 / alpha),
        density_fn=lambda x: alpha * ca * np.asarray(x, dtype=float) ** (-alpha - 1.0),
        moment_fn=lambda k: math.inf,
        moment_below_fn=lambda e, k: alpha * ca * e ** (k - alpha) / (k - alpha),
        family=("stable", alpha, c),
    )


def horseshoe_measure(c):
    """The horseshoe limit measure (sqrt(c)/2) x^{-3/2} dx, i.e. the 1/2-stable
    measure with scaling c; ID(0, rho) = IG(1/2, c pi / 4)."""
    m = stable_measure(0.5, c)
    m.name = "horseshoe"
    m.params = {"c": c}
    return m


def gamma_measure(eta, rate):
    """rho(dx) = eta x^{-1} e^{-rate x} dx; ID(0, rho) = Gamma(eta, rate),
    which `sample_id_batch` draws exactly."""
    if eta <= 0 or rate <= 0:
        raise ValueError("gamma measure needs eta > 0, rate > 0")

    def mom(k):
        return eta * math.gamma(k) / rate**k

    return MeasureDescriptor(
        name="gamma", params={"eta": eta, "rate": rate},
        tail_fn=lambda x: eta * sp.exp1(rate * np.asarray(x, dtype=float)),
        density_fn=lambda x: eta * np.exp(-rate * np.asarray(x, dtype=float))
        / np.asarray(x, dtype=float),
        moment_fn=mom,
        # eta gamma_lower(k, rate e) / rate^k
        moment_below_fn=lambda e, k: mom(k) * sp.gammainc(k, rate * e),
        family=("gamma", eta, rate),
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

    def below(e, k):
        # eta B(k, b) I_e(k, b); the mean in its elementary form
        e = min(e, 1.0)
        if k == 1:
            return eta * (1.0 - (1.0 - e) ** b) / b
        return mom(k) * sp.betainc(k, b, e)

    return MeasureDescriptor(
        name="beta", params={"eta": eta, "b": b},
        support=(0.0, 1.0),
        tail_fn=tail, inverse_tail_fn=inverse,
        density_fn=lambda x: eta * (1.0 - np.asarray(x, dtype=float)) ** (b - 1.0)
        / np.asarray(x, dtype=float),
        moment_fn=mom,
        moment_below_fn=below,
        family=("beta", eta, b),
    )


# terms of gg_pareto's small-mass series: at e <= 1 the first term left out
# is at most 1/24! < 2e-24 of the leading one
_GG_TERMS = 24


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
        exact = pref * (xs ** (-tau) * lower + upper_incomplete_gamma(-alpha, xs))
        # series of x^{-tau} g(tau-a, x) + G(-a, x) around 0:
        # Gamma(-a) + x^{-a} sum_n (-x)^n/n! [1/(gshape+n) - 1/(n-a)]
        xa = np.where(small, x, 0.5)
        asym = pref * (xa ** (-alpha) * tau / (alpha * gshape)
                       + g1ma / (-alpha)
                       + xa ** (1.0 - alpha) * (1.0 / (1.0 - alpha) - 1.0 / (gshape + 1.0))
                       + xa ** (2.0 - alpha) * (1.0 / (gshape + 2.0) - 1.0 / (2.0 - alpha)) / 2.0
                       + xa ** (3.0 - alpha) * (1.0 / (3.0 - alpha) - 1.0 / (gshape + 3.0)) / 6.0)
        return np.where(small, asym, exact)

    def density(x):
        x = np.asarray(x, dtype=float)
        return eta / g1ma * x ** (-1.0 - tau) * sp.gammainc(gshape, x) * math.gamma(gshape)

    def mom(k):
        if k >= tau:
            return math.inf
        return eta * math.gamma(k - alpha) / (g1ma * (tau - k))

    def moment_below(e, k):
        # int_0^e x^k rho(dx); by parts, for k != tau,
        # eta / Gamma(1-alpha) (g(k-alpha, e) - e^{k-tau} g(gshape, e)) / (tau - k).
        # The mean takes it at every e; k = 2 only past e = 1, since the
        # floor's bisection reads it down to e = 1e-300, where e^{k-tau}
        # overflows
        if tau >= k + 0.1 and (k == 1 or e > 1.0):
            lo1 = sp.gammainc(k - alpha, e) * math.gamma(k - alpha)
            lo2 = sp.gammainc(gshape, e) * math.gamma(gshape)
            return float(eta / g1ma * (lo1 - e ** (k - tau) * lo2) / (tau - k))
        # the closed form above cancels as tau -> k; integrate the series
        # x^{-tau} g(gshape, x) = sum_n (-1)^n x^{n-alpha} / (n! (n+gshape))
        # term by term up to min(e, 1), and by quadrature beyond 1
        n = np.arange(_GG_TERMS, dtype=float)
        head = min(e, 1.0) ** (n + k - alpha) / ((n + gshape) * (n + k - alpha))
        below = float(eta / g1ma * np.sum((-1.0) ** n * head / sp.factorial(n)))
        return below if e <= 1.0 else below + _quad(lambda x: x**k * density(x), 1.0, e)

    return MeasureDescriptor(
        name="gg_pareto",
        params={"eta": eta, "alpha": alpha, "tau": tau},
        tail_fn=tail,
        density_fn=lambda x: np.where(
            np.asarray(x, dtype=float) < 1e-6,
            eta / (g1ma * gshape) * np.asarray(x, dtype=float) ** (-1.0 - alpha),
            density(np.maximum(np.asarray(x, dtype=float), 1e-6))),
        moment_fn=mom, moment_below_fn=moment_below,
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

    def below(e, k):
        # (c^{2k-1} / pi) B(k - 1/2, 1/2) I_{e/c^2}(k - 1/2, 1/2); the mean
        # in its elementary form
        if k == 1:
            return 2.0 * c / math.pi * math.asin(min(math.sqrt(e) / c, 1.0))
        return mom(k) * sp.betainc(k - 0.5, 0.5, min(e / c2, 1.0))

    return MeasureDescriptor(
        name="scaled_stable_beta", params={"c": c},
        support=(0.0, c2),
        tail_fn=tail, inverse_tail_fn=inverse,
        density_fn=lambda x: (np.asarray(x, dtype=float) ** (-1.5)
                              / (math.pi * np.sqrt(1.0 - np.asarray(x, dtype=float) / c2))),
        moment_fn=mom,
        moment_below_fn=below,
    )


def finite_measure(total_mass, law, sampler, name="finite", params=None):
    """A finite measure c*H given by its total mass c, the frozen scipy law H
    (survival function, density and exact moments) and an exact sampler
    sampler(rng, size) of H."""
    if total_mass <= 0:
        raise ValueError("total mass must be > 0")
    return MeasureDescriptor(
        name=name, params=params or {},
        tail_fn=lambda x: total_mass * np.asarray(law.sf(x), dtype=float),
        density_fn=lambda x: total_mass * law.pdf(x),
        moment_fn=lambda k: total_mass * law.moment(k),
        finite_sampler=sampler,
    )


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def tail_intensity(m, x):
    """rhobar(x) = rho((x, inf)) for x > 0 (vectorized)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("tail intensity requires x > 0")
    hi = m.support[1]
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
    if m.inverse_tail_fn is not None:
        out = np.clip(np.asarray(m.inverse_tail_fn(u_arr), dtype=float), 0.0, m.support[1])
    else:
        out = _generalized_inverse(m.tail_fn, u_arr, m.support)
    # past the total mass (rhobar(1e-300) for an infinite measure) the inverse is 0
    mass0 = m.total_mass()
    out = np.where(u_arr > mass0, 0.0, out) if math.isfinite(mass0) else out
    return float(out[0]) if scalar else out


def moment(m, k):
    """M_k = int x^k rho(dx), or +inf when divergent."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    return float(m.moment_fn(k))


def mean_mass_below(m, eps):
    """int_0^eps x rho(dx); the deterministic compensation for atoms dropped
    below a truncation threshold."""
    return _moment_below(m, eps, 1)


def _moment_below(m, eps, k):
    """int_0^eps x^k rho(dx) for k = 1 or 2: the measure's closed form, else
    int_0^eps k x^{k-1} (rhobar(x) - rhobar(eps)) dx by `_quad`."""
    if m.moment_below_fn is not None:
        return float(m.moment_below_fn(eps, k))
    eps = min(eps, m.support[1])
    te = float(m.tail_fn(np.asarray([eps]))[0])
    return _quad(lambda x: (m.tail_fn(x) - te) * (k * x ** (k - 1)), m.support[0], eps)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

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


def _chi2_mix_rule(base_tail, hi, x):
    """nubar(x) = int rhobar(x/z) chi2_1(z) dz by the trapezoid rule in t on
    z = z0 + e^t, z0 = x/hi, with one call of base_tail per block of points.
    The output has the shape of x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 1)
    out = np.empty(flat.shape[0])
    for s in range(0, flat.shape[0], _MIX_BLOCK):
        xb = flat[s:s + _MIX_BLOCK]
        z = _MIX_EXP_T if hi == math.inf else xb / hi + _MIX_EXP_T
        r = xb / z
        v = np.where(r >= hi, 0.0, base_tail(np.minimum(np.maximum(r, 1e-300), hi)))
        w = _chi2_pdf(z) * _MIX_EXP_T
        out[s:s + _MIX_BLOCK] = _MIX_STEP * (v * w).sum(axis=1)
    return out.reshape(x.shape)


def _chi2_mix(m):
    """The chi-square mixture nu, nubar(x) = int_0^inf rhobar(x/z) chi2_1(z) dz,
    of a measure that is neither zero nor stable, with moments
    M_k(nu) = E[Z^{2k}] M_k(rho).  An atomic rho maps to a finite sum of
    scaled chi-square tails.  Otherwise nubar is a fixed-node quadrature:
    with hi the right end of rho's support, z = z0 + e^t with z0 = x/hi (0
    for unbounded support), so the kink of rhobar(x/z) at z = z0 sits at
    t = -inf and an endpoint factor (1 - r)^b decays like e^{b t}; the
    integrand then decays exponentially in t at both ends and the trapezoid
    rule on a uniform t-grid converges geometrically in 1/step (the exp-sinh
    idea of Takahasi and Mori, 1974).  The grid is 374 nodes, t in
    [-70, 4.6] with step 0.2, shared by all x, and each block of 64 points
    costs one vectorised call of rho's tail on a (64, 374) array.  Measured
    against the closed form mix(beta(eta, 1/2)) = 2 gamma(eta/2, 1/2) on x
    in [1e-3, 30], the tail agrees to 1.5e-14 relative.  Against a step-0.05
    rule on t in [-110, ln 500], for x in [1e-10, 100], it agrees to 1e-13
    relative for gamma, gg_pareto, scaled stable beta and beta measures with
    b in {0.3, 1/2, 1, 1.5, 2, 2.7, 3, 5, 7.3}."""
    tag, *args = m.family or (None,)
    if tag == "atomic":
        tail = lambda x: sum(w * _chi2_sf(np.asarray(x, dtype=float) / loc)
                             for loc, w in args[0])
    else:
        base_tail, hi = m.tail_fn, m.support[1]
        tail = lambda x: _chi2_mix_rule(base_tail, hi, x)
    return MeasureDescriptor(
        name=f"chi2mix({m.name})", params={"base": m.params},
        support=(0.0, math.inf), tail_fn=tail,
        moment_fn=lambda k: moment(m, k) * homogeneous_moment(LINEAR, k, 1.0))


def mix_with_chi2(m):
    """The measure nu with nubar(x) = int_0^inf rhobar(x/z) chi2_1(z) dz — the
    Levy measure of the sum of squared weights when the node variances have
    Levy measure rho: `activation_transform`'s image of (0, rho) under the
    linear phi."""
    return activation_transform(LevyTriple(0.0, m), LINEAR)[1]


def activation_transform(t, act):
    """Map a layer's (a, rho) to the (c, eta) driving the next layer's
    single-input recursion, the one place a measure is mapped through phi:
    c = a * E[phi(Z)^2] and etabar(x) = int_{phi(z) != 0} rhobar(x / phi(z)^2) phi_N(z) dz.

    A homogeneous phi(u) = p u_+ + q u_- (p = phi(1), q = phi(-1)) gives
    c = a (p^2 + q^2) / 2 and etabar(x) = (nubar(x / p^2) + nubar(x / q^2)) / 2
    with nu the chi-square mixture of rho (`_chi2_mix`): nu itself for the
    linear phi, one term of weight 1 when p^2 = q^2, and a zero slope drops
    its term.  A stable(alpha, s) rho maps to stable(alpha, s w^{1/alpha})
    with w = E|phi(Z)|^{2 alpha}, and ReLU maps beta(eta, 1/2) to the
    gamma(eta/2, rate 1/2) measure; `sample_id_batch` draws those two images
    exactly.
    """
    if not isinstance(act, ActivationKind) or not act.homogeneous:
        raise ValueError("activation transform requires a positive homogeneous activation")
    p, q = act.slopes
    p2, q2 = p * p, q * q
    c = t.location_a * act.c_phi
    m = t.measure
    tag, *args = m.family or (None,)
    if m.is_trivial or p2 + q2 == 0.0:
        return c, trivial_measure()
    if tag == "stable":
        alpha, s = args
        w = homogeneous_moment(act, alpha, 1.0)
        return c, stable_measure(alpha, s * w ** (1.0 / alpha))
    if tag == "beta" and args[1] == 0.5 and (p, q) == (1.0, 0.0):
        return c, gamma_measure(args[0] / 2.0, 0.5)
    nu = _chi2_mix(m)
    if p2 == q2 == 1.0:
        return c, nu
    w = 1.0 if p2 == q2 else 0.5
    scales = [s for s in dict.fromkeys((p2, q2)) if s > 0.0]
    tail0 = nu.tail_fn
    return c, MeasureDescriptor(
        name=f"transform({m.name})",
        params={"base": m.params, "slopes": [p, q]},
        tail_fn=lambda x: w * sum(tail0(np.asarray(x, dtype=float) / s)
                                  for s in scales),
        moment_fn=lambda k: w * sum(s**k * moment(nu, k) for s in scales),
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _reference_atom(m):
    """x_ref, the scale of a row's largest atoms: rhobar^{-1}(1), or
    rhobar^{-1}(|rho| / 2) for a measure of mass at most 1, or the end of the
    support (1 if unbounded) where that inverse is 0."""
    mass = m.total_mass()
    u_ref = 1.0 if not math.isfinite(mass) or mass > 1.0 else 0.5 * mass
    ref = inverse_tail_intensity(m, u_ref)
    if ref <= 0:
        ref = m.support[1] if math.isfinite(m.support[1]) else 1.0
    return ref


def default_atom_floor(m):
    """Default truncation threshold: the largest eps <= x_ref whose dropped
    atoms have variance V(eps) = int_0^eps x^2 rho(dx) at most
    DROPPED_VARIANCE_TOL x_ref^2, x_ref = `_reference_atom`; 0 for a finite
    measure with an exact sampler.  eps comes from `_generalized_inverse` on
    V, in closed form where the measure has one and by `_quad` otherwise.
    Its bracket is aimed 1e-9 below the budget, so V(eps) never exceeds it."""
    if m.finite_sampler is not None:
        return 0.0
    ref = _reference_atom(m)
    budget = DROPPED_VARIANCE_TOL * ref * ref * (1.0 - 1e-9)
    neg_var = lambda x: -np.array([_moment_below(m, float(e), 2) for e in x])
    return float(_generalized_inverse(neg_var, [-budget], (0.0, ref))[0])


class _Truncation(NamedTuple):
    """How the rows drawn for a measure are cut: the floor, the mean atoms a
    row rhobar(floor), the mean and variance of the dropped atoms
    int_0^floor x^k rho(dx) for k = 1, 2, and the inverse tail (None for a
    finite measure, whose rows are exact)."""

    floor: float
    mass: float
    mean_below: float
    var_below: float
    inverse: object


def _truncation(m, atom_floor):
    """The truncation of the rows drawn for m, the one place a floor is
    chosen, as a `_Truncation` record.  The floor is the given atom_floor,
    which must be > 0, or `default_atom_floor` if None: the largest floor
    whose dropped variance is within DROPPED_VARIANCE_TOL x_ref^2.  inverse
    is the closed-form inverse tail, or a table built for u up to just past
    rhobar(floor).  A finite measure's rows are exact: (0, |rho|, 0, 0, None)
    whatever the floor.  A floor that keeps more than MAX_ROW_ATOMS atoms a
    row on average raises a ValueError before anything is built or drawn.
    The record depends on m and atom_floor alone, and the last one is kept
    in m.truncation_cache."""
    cached = m.truncation_cache  # read once: threads may replace it
    if cached is not None and cached[0] == atom_floor:
        return cached[1]
    if m.finite_sampler is not None:
        floor, mass = 0.0, m.total_mass()
    else:
        floor = default_atom_floor(m) if atom_floor is None else float(atom_floor)
        if floor <= 0:
            raise ValueError("atom_floor must be > 0 for infinite-activity measures")
        mass = float(tail_intensity(m, floor))
    if not mass <= MAX_ROW_ATOMS:
        raise ValueError(
            f"the floor {floor:.3g} keeps rhobar(floor) = {mass:.3g} atoms a row of "
            f"{m.name}, past the atom budget of MAX_ROW_ATOMS = {MAX_ROW_ATOMS:.0e} "
            f"(the default floor drops a variance of DROPPED_VARIANCE_TOL = "
            f"{DROPPED_VARIANCE_TOL:g} times x_ref^2)")
    if m.finite_sampler is not None:
        record = _Truncation(0.0, mass, 0.0, 0.0, None)
    else:
        inverse = m.inverse_tail_fn or _TabulatedInverse(
            m, (mass * (1 + 1e-9) + 1e-12) * 1.0000001)
        record = _Truncation(floor, mass, mean_mass_below(m, floor),
                             _moment_below(m, floor, 2), inverse)
    m.truncation_cache = (atom_floor, record)
    return record


def _rows(m, rng, n, mass, inv):
    """n rows of the Poisson process with mean measure rho above a floor of
    mass = rhobar(floor), as an (n, width) array sorted decreasing along rows
    and padded with zeros, width the largest count (at least 1 if mass > 0).
    Given Poisson(mass) counts the atoms are iid: one call of a finite
    measure's sampler, else inv(mass U), inv the inverse tail, for U uniform
    on (0, 1] (Ferguson and Klass 1972; Rosinski 2001).  Their keys, -atom or
    U, are sorted along rows before the map, so a tabulated inverse reads in
    order."""
    counts = rng.generator.poisson(mass, size=n)
    total = int(counts.sum())
    hit = np.arange(max(int(counts.max()) if n else 0, int(mass > 0))) < counts[:, None]
    keyed = np.full(hit.shape, np.inf)
    if m.finite_sampler is not None:
        keyed[hit] = -np.asarray(m.finite_sampler(rng, total), dtype=float)
        to_atoms = np.negative
    else:
        keyed[hit] = 1.0 - rng.generator.random(total)
        to_atoms = lambda u: inv(np.multiply(u, mass, out=u))
    keyed.sort(axis=1)
    # map before allocating the output: one (n, width) array beside inv's temps
    atoms = to_atoms(keyed[hit])
    out = np.zeros(hit.shape)
    out[hit] = atoms
    return out


def sample_ppp_matrix(m, rng, atom_floor=None, n=1):
    """n independent point-process draws as a (n, J) array of atoms sorted
    decreasing along each row and padded with zeros, truncated at atom_floor
    (exact for finite measures).  If None, the default floor drops atoms of
    variance at most DROPPED_VARIANCE_TOL x_ref^2 (`default_atom_floor`).
    A floor that keeps more than MAX_ROW_ATOMS atoms a row raises a
    ValueError before anything is drawn.  Returns (atoms,
    truncation_threshold, truncated_mean_mass), the last being
    int_0^threshold x rho(dx), the mean of the atoms dropped below the
    threshold; it is finite for every Levy measure.

    Every measure's rows come from `_rows`, exact for a finite measure and by
    the inverse tail at sorted uniforms otherwise, J their largest count."""
    cut = _truncation(m, atom_floor)
    return _rows(m, rng, n, cut.mass, cut.inverse), cut.floor, cut.mean_below


_EXACT_ID = {"stable": sample_positive_stable, "gamma": sample_gamma}  # f(*params, rng, size)


def sample_id_batch(t, rng, n, atom_floor=None, act=None):
    """n draws of a E[mark] + sum_j lam_j mark_j + E[mark] int_0^floor x rho(dx)
    over the atoms lam_j > floor of the Poisson process with mean measure rho,
    for t = (a, rho).  With act None every mark is 1 and the law is ID(a, rho);
    with a positive homogeneous act the marks are phi(g_j)^2, g_j iid N(0, 1),
    and the law is the ID law of activation_transform(t, act), the one-input
    step of the infinite-width kernel.  The last term is the mean of the marked
    atoms dropped below the floor, which `_truncation` chooses: atom_floor, or
    if None the default floor, whose dropped atoms have variance at most
    DROPPED_VARIANCE_TOL x_ref^2; past MAX_ROW_ATOMS atoms a row it raises.

    The image (c, eta), (a, rho) itself when act is None, is drawn exactly,
    whatever the floor, when eta is stable or gamma.  Otherwise `_rows` draws
    blocks of about rng._BLOCK expected atoms of rho from the one truncation
    record that the measure keeps, and `rng._marked_sums` marks each block's
    atoms after them."""
    if act is not None and not act.homogeneous:
        raise ValueError("marked ID sums require a positive homogeneous activation")
    loc, image = (t.location_a, t.measure) if act is None else activation_transform(t, act)
    tag, *params = image.family or (None,)
    if tag in _EXACT_ID:
        return loc + np.atleast_1d(_EXACT_ID[tag](*params, rng, n))
    m, w = t.measure, 1.0 if act is None else act.c_phi
    cut = _truncation(m, atom_floor)
    rows = max(int(_BLOCK / max(cut.mass, 1.0)), 1)
    out = np.empty(n)
    for s in range(0, n, rows):
        atoms = _rows(m, rng, min(rows, n - s), cut.mass, cut.inverse)
        if act is None:
            sums = atoms.sum(axis=1)
        else:
            hit = atoms > 0.0
            sums = _marked_sums(rng.generator, atoms[hit], hit.sum(1), act)
        out[s:s + rows] = cut.mean_below * w + sums
    return loc + out
