"""Seedable, counter-based random streams and the distribution samplers built on them.

A stream is identified by a ``(master_seed, stream_index)`` pair.  The pair keys
a Philox counter-based bit generator, so distinct indices give independent
streams without any coordination, and the same pair always reproduces the same
sequence of draws.

The samplers build an array draw in the array numpy returns, operating in
place, so a request of any size holds one output-sized array; as for numpy's
own samplers, the parameters must then broadcast to ``size``.  A scalar draw
(``size=None``) keeps the type the plain expression gives.
"""

import math
import numbers

import numpy as np
from scipy import special as sp

from .special import upper_incomplete_gamma

__all__ = [
    "RngStream",
    "sample_gamma",
    "sample_beta",
    "sample_inverse_gamma",
    "sample_half_cauchy",
    "sample_pareto",
    "sample_positive_stable",
    "sample_etbfry",
    "etbfry_tail",
    "etbfry_pdf",
]


def _integer(label, value):
    """int(value) for an integer other than a bool, numpy integers included;
    anything else raises a ValueError naming label."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_index).

    The underlying generator is Philox (counter-based), keyed directly by the
    two integers, so streams can be split by index without touching each other.
    Two ``RngStream`` objects built from the same pair produce byte-identical
    sequences of draws.
    """

    def __init__(self, master_seed, stream_index=0):
        self.master_seed = _integer("master_seed", master_seed)
        self.stream_index = _integer("stream_index", stream_index)
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= self.stream_index < 2**64:
            raise ValueError("stream_index must fit in 64 bits")
        self._generator = None

    @property
    def generator(self):
        """The numpy Generator for this stream (created lazily)."""
        if self._generator is None:
            bitgen = np.random.Philox(key=np.array(
                [self.master_seed, self.stream_index], dtype=np.uint64))
            self._generator = np.random.Generator(bitgen)
        return self._generator

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


# entries per block of an array worked on in place, piece by piece
_BLOCK = 1 << 16


def _blocks(a):
    """Consecutive views, in C order, of at most _BLOCK entries each that
    together cover the contiguous array a; `_marked_sums` blocks its normals
    by the same size, in whole rows."""
    flat = a.reshape(-1)
    return (flat[start:start + _BLOCK] for start in range(0, flat.size, _BLOCK))


def _marked_sums(gen, weights, counts, act):
    """Marked sums S_r = sum_{j in row r} w_j act(g_j)^2, g iid N(0, 1) from
    gen, row r holding the next counts[r] weights w.  The normals are drawn
    in blocks of whole rows, at most _BLOCK unless one row is longer, and
    each row is summed by one np.bincount in draw order, so S does not
    depend on the block size; an empty row gets 0.  (np.add.reduceat would
    sum pairwise, moving S in its last bits, and mishandles empty rows.)"""
    step = max(1, _BLOCK // max(1, int(counts.max(initial=0))))
    s = np.empty(counts.size)
    pos = 0
    for r in range(0, counts.size, step):
        rows = counts[r:r + step]
        stop = pos + int(rows.sum())
        marks = act(gen.standard_normal(stop - pos))
        marks **= 2
        marks *= weights[pos:stop]
        s[r:r + step] = np.bincount(np.repeat(np.arange(rows.size), rows),
                                    weights=marks, minlength=rows.size)
        pos = stop
    return s


def _positive(name, value):
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be > 0, got {value}")


def sample_gamma(shape, rate, rng, size=None):
    """Gamma(shape, rate) draw(s); mean is shape/rate."""
    _positive("shape", shape)
    _positive("rate", rate)
    return rng.generator.gamma(shape, size=size) / rate


def sample_beta(a, b, rng, size=None):
    """Beta(a, b) draw(s)."""
    _positive("a", a)
    _positive("b", b)
    return rng.generator.beta(a, b, size=size)


def sample_inverse_gamma(shape, scale, rng, size=None):
    """Inverse-gamma draw(s) with density scale^shape/Gamma(shape) x^{-shape-1} e^{-scale/x}."""
    _positive("shape", shape)
    _positive("scale", scale)
    g = rng.generator.gamma(shape, size=size)
    return scale / g if size is None else np.divide(scale, g, out=g)


def sample_half_cauchy(rng, size=None):
    """|Cauchy(0,1)| draw(s); the median is 1.

    Inversion of the CDF (2/pi) arctan x: tan(pi U / 2), one uniform per draw,
    formed in the uniforms' array (Devroye 1986, *Non-Uniform Random Variate
    Generation*).  U lies on numpy's 2^-53 grid, so the largest draw is
    tan((1 - 2^-53) pi / 2) ~ 5.7e15 in exact arithmetic (3.5e15 once the
    argument is rounded to a double); the law lost beyond it has
    P(half-Cauchy > 5.7e15) ~ 1.1e-16.
    """
    u = rng.generator.random(size)
    u *= math.pi / 2.0
    return np.tan(u) if size is None else np.tan(u, out=u)


def sample_pareto(tau, c, rng, size=None):
    """Pareto draw(s) with density tau c^tau x^{-tau-1} on (c, inf), via inversion c*u^{-1/tau}."""
    _positive("tau", tau)
    _positive("c", c)
    u = rng.generator.random(size)
    u **= -1.0 / tau
    u *= c
    return u


def sample_positive_stable(alpha, c, rng, size=None):
    """Positive stable draw(s) with Laplace transform e^{-(gamma s)^alpha},
    gamma = c Gamma(1-alpha)^{1/alpha}, matching the Levy measure
    alpha c^alpha x^{-alpha-1} dx.  Kanter's representation: for U ~ Unif(0, pi)
    and E ~ Exp(1), (a(U)/E)^{(1-alpha)/alpha} has unit Laplace scale, where
    a(u) = sin((1-alpha)u) sin(alpha u)^{alpha/(1-alpha)} / sin(u)^{1/(1-alpha)}.
    The degenerate alpha = 1 case is the constant c."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    _positive("c", c)
    if alpha == 1.0:
        shape = () if size is None else size
        return np.full(shape, float(c)) if shape else float(c)
    gen = rng.generator
    u = gen.random(size) * math.pi
    e = gen.standard_exponential(size)
    a = (np.sin((1.0 - alpha) * u) * np.sin(alpha * u) ** (alpha / (1.0 - alpha))
         / np.sin(u) ** (1.0 / (1.0 - alpha)))
    gamma_scale = c * math.gamma(1.0 - alpha) ** (1.0 / alpha)
    return gamma_scale * (a / e) ** ((1.0 - alpha) / alpha)


def sample_etbfry(alpha, t, xi, rng, size=None):
    """Exponentially tilted BFRY draw(s).

    The target density is

        g(s) = alpha s^{-1-alpha} e^{-xi s} (1 - e^{-t s})
               / (Gamma(1-alpha) ((t+xi)^alpha - xi^alpha)).

    Writing s^{-1-alpha}(e^{-xi s} - e^{-(t+xi)s}) = s^{-alpha} int_xi^{t+xi} e^{-bs} db
    shows g is an exact mixture of Gamma(1-alpha, rate=b) densities with the
    mixing rate b drawn from the density proportional to b^{alpha-1} on
    (xi, t+xi).  Both stages invert in closed form, so the sampler is exact.
    The rates b are formed in the uniforms' array and the gamma draws are
    divided into it block by block, so an array request holds one
    output-sized array.  At alpha = 1/2 the Gamma(1/2) stage is Z^2/2 for a
    standard normal Z, an identity in law that costs one normal draw in place
    of numpy's gamma(0.5); other alpha draw gamma(1 - alpha).
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    _positive("t", t)
    _positive("xi", xi)
    gen = rng.generator
    b = gen.random(size)
    b *= (t + xi) ** alpha - xi**alpha
    b += xi**alpha
    b **= 1.0 / alpha
    if size is None:
        return _gamma_one_minus(alpha, gen, None) / b
    for block in _blocks(b):
        np.divide(_gamma_one_minus(alpha, gen, block.size), block, out=block)
    return b


def _gamma_one_minus(alpha, gen, size):
    """Gamma(1 - alpha) draw(s) of unit rate; Z^2/2 at alpha = 1/2, squared
    in place so that a block makes no temporaries."""
    if alpha != 0.5:
        return gen.gamma(1.0 - alpha, size=size)
    z = gen.standard_normal(size)
    z *= z
    z *= 0.5
    return z


def etbfry_tail(s, alpha, t, xi):
    """Survival function P(S > s) of the exponentially tilted BFRY law.

    Integrating the density term by term gives

        T(s) = alpha [ xi^a Gamma(-a, xi s) - (t+xi)^a Gamma(-a, (t+xi) s) ]
               / (Gamma(1-a) ((t+xi)^a - xi^a)),   a = alpha,

    using the upper incomplete gamma function with negative parameter.
    """
    s = np.asarray(s, dtype=float)
    num = xi**alpha * upper_incomplete_gamma(-alpha, xi * s) \
        - (t + xi) ** alpha * upper_incomplete_gamma(-alpha, (t + xi) * s)
    den = sp.gamma(1.0 - alpha) * ((t + xi) ** alpha - xi**alpha)
    return alpha * num / den


def etbfry_pdf(s, alpha, t, xi):
    """Density of the exponentially tilted BFRY law."""
    s = np.asarray(s, dtype=float)
    den = sp.gamma(1.0 - alpha) * ((t + xi) ** alpha - xi**alpha)
    return alpha * s ** (-1.0 - alpha) * np.exp(-xi * s) * (-np.expm1(-t * s)) / den
