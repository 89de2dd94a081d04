"""Workloads, operations and output checks of the levynet benchmark.

The benchmark drives levynet from outside: experiments go through the same
in-process entry point as the command line, `levynet.cli.main([...])`, and
write to a temporary directory inside the checkout; the limit samplers are
called directly.  An operation is one experiment invocation or one direct
sampler call.  It fails if it raises or if its output fails a check below.
Tolerances are sized from the sample's own size (and, where the output carries
it, its spread) so that a correct program passes at any seed.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("finite_pruning", "limit_kernels", "finite_outputs")
EXPERIMENTS = ("truncation_error", "compressibility", "kernel_realizations",
               "output_dist", "max_weight", "output_corr", "verify")

# Replicate counts.  "bench" is the measured size; "small" is the size of the
# benchmark's own determinism tests.
SIZES = {
    "bench": {
        "truncation_error": 4, "compressibility": 10,
        "kernel_realizations": 30, "limit_cauchy": 200_000,
        "limit_beta": 50_000, "limit_stable": 50_000,
        "id_horseshoe": 1_000, "ppp_gg_pareto": 100,
        "output_dist": 4_000, "max_weight": 1_000, "output_corr": 500,
        "verify": 200,
    },
    "small": {
        "truncation_error": 2, "compressibility": 4,
        "kernel_realizations": 4, "limit_cauchy": 2_000,
        "limit_beta": 2_000, "limit_stable": 2_000,
        "id_horseshoe": 50, "ppp_gg_pareto": 10,
        "output_dist": 1_200, "max_weight": 1_200, "output_corr": 200,
        "verify": 200,
    },
}

# Statistical checks use z = 6 standard errors, or the Kolmogorov-Smirnov
# critical value at level 1e-6, so a correct program fails one of a run's
# checks far less often than once in a thousand runs.
Z = 6.0
KS_LEVEL = 1e-6


def import_levynet():
    """Import levynet from this checkout's src/ (never from elsewhere), plus
    scipy, which the checks use."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import levynet
    if not os.path.abspath(levynet.__file__).startswith(SRC + os.sep):
        raise ImportError(f"levynet was imported from {levynet.__file__}, "
                          f"not from {SRC}")
    import scipy.stats  # noqa: F401
    return levynet


@dataclass
class Op:
    """One operation.  run(workers) is the timed call into levynet and
    returns its raw result; finish(raw) reads and checks that result outside
    the timed region and returns an OpOutput."""
    name: str
    run: object
    finish: object


@dataclass
class OpOutput:
    digest_parts: list                       # bytes hashed into the digest
    failures: list = field(default_factory=list)
    bytes_written: int = 0
    notes: list = field(default_factory=list)


@dataclass
class OpResult:
    name: str
    seconds: float
    failures: list
    digest: str
    bytes_written: int
    notes: list


def ks_critical(n):
    """One-sample Kolmogorov-Smirnov critical value at level KS_LEVEL (the
    Dvoretzky-Kiefer-Wolfowitz bound)."""
    return math.sqrt(math.log(2.0 / KS_LEVEL) / (2.0 * n))


# ---------------------------------------------------------------------------
# experiments through the command-line entry point
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _nonfinite_cells(tables):
    bad = []
    for fname, (_, rows) in sorted(tables.items()):
        for row in rows:
            for cell in row:
                try:
                    v = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(v):
                    bad.append(f"{fname}: non-finite {cell!r} in {row[:3]}")
    return bad[:5]


def cli_op(command, seed, replicates, check):
    """An experiment run through levynet.cli.main into a fresh directory.
    check(tables, replicates) returns failure strings."""

    def run(workers):
        from levynet import cli

        os.makedirs(SCRATCH, exist_ok=True)
        out = tempfile.mkdtemp(prefix=f"{command}-", dir=SCRATCH)
        argv = [command, "--seed", str(seed), "--replicates", str(replicates),
                "--workers", str(workers), "--out", out]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return out, code

    def finish(raw):
        out, code = raw
        try:
            parts, tables, written = [], {}, 0
            for fname in sorted(os.listdir(out)):
                path = os.path.join(out, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                parts += [fname.encode(), data]
                written += len(data)
                if fname.endswith(".csv"):
                    tables[fname[len(command) + 1:-4]] = _read_csv(path)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failures = _nonfinite_cells(tables) + check(tables, replicates)
        notes = [] if code == 0 else [f"{command} exit code {code}"]
        return OpOutput(parts, failures, written, notes)

    return Op(f"experiments.{command}", run, finish)


def _rows(tables, table):
    """Rows as dicts.  The CLI does not quote cells, so a label containing a
    comma (verify's "stable(0.5,1)") spills into extra cells; those are
    joined back into the first column."""
    header, rows = tables[table]
    extra = [len(r) - len(header) for r in rows]
    return [dict(zip(header, [",".join(r[:k + 1])] + r[k + 1:]))
            for r, k in zip(rows, extra)]


def _expect_rows(tables, table, count):
    n = len(tables[table][1]) if table in tables else 0
    return [] if n == count else [f"{table}: {n} rows, expected {count}"]


def check_truncation_error(tables, n):
    return _expect_rows(tables, "truncation_error", 3 * 8)


# The compressibility table carries only the mean mass ratio, not its spread,
# so the inverse-gamma check uses an upper bound on the per-replicate standard
# deviation at width 8000 (0.0051 measured over 2000 replicates) and on the
# finite-width bias (mean 0.18692 over those replicates against the limit
# 0.18668).
_IG_RATIO_SD = 0.01
_IG_RATIO_BIAS = 0.002


def check_compressibility(tables, n):
    from scipy import stats as st

    fails = _expect_rows(tables, "compressibility", 5 * 3)
    rows = _rows(tables, "compressibility")
    for r in rows:
        if r["model"] == "deterministic" and float(r["mass_ratio"]) != 1.0:
            fails.append(f"deterministic mass ratio {r['mass_ratio']} != 1 "
                         f"at width {r['width']}")
    ig = max((r for r in rows if r["model"] == "inverse_gamma"),
             key=lambda r: int(r["width"]))
    # lambda = (2/p)/G with G ~ Gamma(2): the kappa = 1/2 mass ratio tends to
    # exp(-median G)
    target = math.exp(-st.gamma(2.0).median())
    tol = Z * _IG_RATIO_SD / math.sqrt(n) + _IG_RATIO_BIAS
    if abs(float(ig["mass_ratio"]) - target) > tol:
        fails.append(f"inverse_gamma mass ratio {ig['mass_ratio']} vs "
                     f"{target:.4f} +/- {tol:.4f}")
    return fails


def _fourth_moment_bound(tail_rows):
    """Upper bound on the mean of |z|^4 over the nonzero outputs, from the
    output_dist tail table, whose rows are the order statistics |z|_(k)
    (decreasing in k) at survival (k+1)/m.  Every value ranked between two
    listed ranks is at most the larger listed value.  Returns (bound, m)."""
    pts = sorted((float(r["survival"]), float(r["abs_output"]))
                 for r in tail_rows)
    m = round(1.0 / pts[0][0])
    ranks = [round(s * m) - 1 for s, _ in pts] + [m]
    total = sum((ranks[i + 1] - ranks[i]) * x ** 4
                for i, (_, x) in enumerate(pts))
    return total / m, m


def output_dist_second_moments(p):
    """Exact E[Z^2] = p E[lambda_p] / 2 at finite width p (one ReLU hidden
    layer, unit input, sigma_v = 1) for the standard models whose E[lambda]
    is finite; the horseshoe's is not."""
    # generalized_bfry(eta=4, alpha=1/2, tau=5): lambda = Pareto(tau) times
    # an exponentially tilted BFRY(alpha, t, 1) with t = (p alpha tau /
    # eta)^(1/alpha), whose mean is alpha (1 - (1+t)^(alpha-1)) /
    # ((1+t)^alpha - 1)
    eta, alpha, tau = 4.0, 0.5, 5.0
    t = (p * alpha * tau / eta) ** (1.0 / alpha)
    etbfry_mean = (alpha * (1.0 - (1.0 + t) ** (alpha - 1.0))
                   / ((1.0 + t) ** alpha - 1.0))
    return {
        "deterministic": 0.5,
        "inverse_gamma": 1.0,
        # beta(eta=1, b=1/2): lambda ~ Beta(1/p, 1/2)
        "beta": 0.5 * p * (1.0 / p) / (1.0 / p + 0.5),
        "generalized_bfry": 0.5 * p * tau / (tau - 1.0) * etbfry_mean,
    }


def check_output_dist(tables, n):
    """E[Z^2] (the reported std squared) against its exact value, within Z
    standard errors computed from the sample's own fourth moment."""
    fails = []
    stds = {r["label"].split("/")[0]: float(r["value"])
            for r in _rows(tables, "estimates") if r["label"].endswith("/std")}
    tails = _rows(tables, "tail")
    for model, target in output_dist_second_moments(2000).items():
        m2 = stds[model] ** 2
        m4, nonzero = _fourth_moment_bound(
            [r for r in tails if r["model"] == model])
        m4 *= nonzero / n
        tol = Z * math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        if abs(m2 - target) > tol:
            fails.append(f"output_dist {model}: E[Z^2] {m2:.5f} vs "
                         f"{target:.5f} +/- {tol:.5f}")
    return fails


# Allowance for the gap between the finite-width largest-weight law at width
# 2000 and the limit CDF as max_weight evaluates it (quadrature interpolated
# on a 50-point log grid).  At 1e5 replicates the whole gap, sampling noise
# included, is 0.0023 for beta and 0.0036 for generalized_bfry.
_MAX_WEIGHT_BIAS = 0.006


def check_max_weight(tables, n):
    """Empirical CDF of the largest |weight| against the limit CDF at the
    largest width, as a Kolmogorov-Smirnov distance over the listed points."""
    fails = []
    rows = _rows(tables, "max_weight_cdf")
    top = max(int(r["width"]) for r in rows)
    tol = ks_critical(n) + _MAX_WEIGHT_BIAS
    for model in ("beta", "generalized_bfry"):
        gap = max(abs(float(r["empirical_cdf"]) - float(r["limit_cdf"]))
                  for r in rows
                  if r["model"] == model and int(r["width"]) == top)
        if gap > tol:
            fails.append(f"max_weight {model} width {top}: CDF gap "
                         f"{gap:.4f} > {tol:.4f}")
    return fails


def check_output_corr(tables, n):
    return _expect_rows(tables, "correlation", 5 * 4)


# verify's 16 Monte-Carlo checks sit at 3 standard errors each, and their
# standard errors understate the spread of rare-event and heavy-tailed
# estimates: a correct program fails verify at 7 of 200 seeds (200
# replicates), by up to 1.73 times a stated tolerance.  The benchmark holds
# those checks to 3 times their tolerance and the exact checks (closed forms
# against quadrature, inverse round trips) to theirs; verify's own exit code
# is recorded as a note.
_VERIFY_MC_PREFIXES = ("id_conditions/", "max_variance_law/")
_VERIFY_MC_FACTOR = 3.0


def check_verify(tables, n):
    fails = []
    for r in _rows(tables, "checks"):
        tol = float(r["tolerance"])
        if r["label"].startswith(_VERIFY_MC_PREFIXES):
            tol *= _VERIFY_MC_FACTOR
        if abs(float(r["value"]) - float(r["target"])) > tol:
            fails.append(f"verify {r['label']}: {r['value']} vs "
                         f"{r['target']} +/- {tol:.3g}")
    return fails


# The kernel draws are skewed (for beta = 1 the diagonal entry is
# chi-square(1)), and the mean of 30 of them reaches 6.4 exact standard errors
# in a bootstrap of 20000 resamples; 8 keeps a correct program passing.
Z_KERNEL = 8.0


def _relu_kappa(alpha, rho):
    """kappa_alpha(rho) = 2 pi E[relu(X)^alpha relu(Y)^alpha] for standard
    normals with correlation rho, alpha in {1, 2} (arc-cosine kernels)."""
    th = math.acos(max(-1.0, min(1.0, rho)))
    s, c = math.sin(th), math.cos(th)
    if alpha == 1:
        return s + (math.pi - th) * c
    return 3.0 * s * c + (math.pi - th) * (1.0 + 2.0 * c * c)


def check_kernel_realizations(tables, n):
    """Each kernel entry's mean over the draws against its exact law: for
    the beta(eta, eta/2) measure (M1 = 2, M2 = 2 / (eta/2 + 1)) on unit-norm
    inputs, K(x, x') has mean M1 kappa_1(rho) / (2 pi), the one-layer ReLU GP
    kernel, and variance M2 kappa_2(rho) / (2 pi)."""
    fails = _expect_rows(tables, "kernel_draws", 3 * 41)
    for r in _rows(tables, "kernel_draws"):
        beta, rho = float(r["beta"]), float(r["rho"])
        draws = [float(v) for k, v in r.items() if k.startswith("draw_")]
        mean = sum(draws) / len(draws)
        target = 2.0 * _relu_kappa(1, rho) / (2.0 * math.pi)
        var = 2.0 / (beta / 2.0 + 1.0) * _relu_kappa(2, rho) / (2.0 * math.pi)
        tol = Z_KERNEL * math.sqrt(max(var, 0.0) / len(draws)) + 1e-6
        if abs(float(r["gp_kernel"]) - target) > 1e-9:
            fails.append(f"kernel beta={beta} rho={rho}: GP column "
                         f"{r['gp_kernel']} vs {target:.9f}")
        if abs(mean - target) > tol:
            fails.append(f"kernel beta={beta} rho={rho}: mean {mean:.5f} vs "
                         f"{target:.5f} +/- {tol:.5f}")
    return fails[:5]


# ---------------------------------------------------------------------------
# direct sampler calls
# ---------------------------------------------------------------------------

def _finite(label, arr):
    import numpy as np
    return [] if np.all(np.isfinite(arr)) else [f"{label}: non-finite output"]


def _mean_check(label, values, target):
    import numpy as np
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    tol = Z * values.std(ddof=1) / math.sqrt(values.size)
    if abs(mean - target) > tol:
        return [f"{label}: mean {mean:.5g} vs {target:.5g} +/- {tol:.3g}"]
    return []


def _ks_check(label, values, cdf):
    from levynet.stats import ks_distance
    ks = ks_distance(values, cdf)
    crit = ks_critical(len(values))
    return [] if ks <= crit else [f"{label}: KS {ks:.4f} > {crit:.4f}"]


def _limit_run(model_name, params, depth, seed, stream, n):
    def run(workers):
        import numpy as np
        from levynet import RELU, NetworkConfig, RngStream, make_model, network

        model = make_model(model_name, **params)
        cfg = NetworkConfig(1, 1, [1] * depth, 1.0, 0.0, RELU,
                            [model] * depth)
        return cfg, network.simulate_limit_single_input(
            cfg, np.array([1.0]), RngStream(seed, stream), replicates=n)
    return run


def limit_cauchy_op(seed, n):
    """Horseshoe c=4, ReLU, depth 1: the limit output is standard Cauchy."""

    def finish(raw):
        from scipy import stats as st
        _, (chains, out) = raw
        fails = _finite("chains", chains) + _finite("outputs", out)
        fails += _ks_check("horseshoe limit vs Cauchy", out[:, 0],
                           st.cauchy().cdf)
        return OpOutput([chains.tobytes(), out.tobytes()], fails)

    return Op("network.simulate_limit_single_input.horseshoe",
              _limit_run("horseshoe", {"c": 4.0}, 1, seed, 1, n), finish)


def limit_beta_op(seed, n):
    """beta(1, 1/2), ReLU, depth 2: the ReLU transform of the beta measure is
    gamma(1/2, rate 1/2), so the layer-1 variance is chi-square(1); E[Z^2]
    follows the variance recursion."""

    def finish(raw):
        import numpy as np
        from scipy import stats as st
        from levynet import network
        cfg, (chains, out) = raw
        fails = _finite("chains", chains) + _finite("outputs", out)
        fails += _ks_check("beta layer-1 variance vs chi2(1)", chains[:, 1],
                           st.chi2(1).cdf)
        target = float(network.variance_recursion(cfg, np.array([1.0]))[-1])
        fails += _mean_check("beta depth-2 E[Z^2]", out[:, 0] ** 2, target)
        return OpOutput([chains.tobytes(), out.tobytes()], fails)

    return Op("network.simulate_limit_single_input.beta",
              _limit_run("beta", {"eta": 1.0, "b": 0.5}, 2, seed, 2, n),
              finish)


def limit_stable_op(seed, n):
    """inverse_gamma_stable alpha=1/2, ReLU, depth 3: the ReLU transform of
    stable(1/2, 1) is stable(1/2, 1/(2 pi)), whose ID law, the layer-1
    variance, is inverse-gamma(1/2, scale 1/8)."""

    def finish(raw):
        from scipy import stats as st
        _, (chains, out) = raw
        fails = _finite("chains", chains) + _finite("outputs", out)
        fails += _ks_check("stable layer-1 variance vs IG(1/2, 1/8)",
                           chains[:, 1], st.invgamma(0.5, scale=0.125).cdf)
        return OpOutput([chains.tobytes(), out.tobytes()], fails)

    return Op("network.simulate_limit_single_input.inverse_gamma_stable",
              _limit_run("inverse_gamma_stable", {"alpha": 0.5}, 3, seed, 3,
                         n), finish)


def id_horseshoe_op(seed, n):
    """sample_id_batch on horseshoe_measure(1), a renamed stable measure that
    misses the exact stable path and sums a truncated atom series.  ID(0, rho)
    is inverse-gamma(1/2, scale pi/4)."""

    def run(workers):
        from levynet import RngStream, levy
        t = levy.LevyTriple(0.0, levy.horseshoe_measure(1.0))
        return levy.sample_id_batch(t, RngStream(seed, 4), n)

    def finish(draws):
        from scipy import stats as st
        fails = _finite("draws", draws)
        fails += _ks_check("horseshoe ID vs IG(1/2, pi/4)", draws,
                           st.invgamma(0.5, scale=math.pi / 4.0).cdf)
        return OpOutput([draws.tobytes()], fails)

    return Op("levy.sample_id_batch.horseshoe", run, finish)


def ppp_gg_pareto_op(seed, n):
    """sample_ppp_matrix on gg_pareto(4, 1/2, 5): the atoms per row are
    Poisson(rhobar(floor)), and atom sums plus the truncated mean mass have
    mean M1 = eta / (tau - 1) = 1."""

    def run(workers):
        from levynet import RngStream, levy
        m = levy.gg_pareto_measure(4.0, 0.5, 5.0)
        return m, levy.sample_ppp_matrix(m, RngStream(seed, 5), n=n)

    def finish(raw):
        import numpy as np
        from levynet import levy
        m, (atoms, floor, below) = raw
        fails = _finite("atoms", atoms)
        fails += _mean_check("atoms per row vs rhobar(floor)",
                             np.count_nonzero(atoms, axis=1),
                             levy.tail_intensity(m, floor))
        fails += _mean_check("atom sums + truncated mass vs M1",
                             atoms.sum(axis=1) + below, 1.0)
        if np.any(atoms[atoms > 0] < floor):
            fails.append("atom below the truncation floor")
        if np.any(np.diff(atoms, axis=1) > 0):
            fails.append("atoms not decreasing along rows")
        return OpOutput([atoms.tobytes()], fails)

    return Op("levy.sample_ppp_matrix.gg_pareto", run, finish)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_ops(workload, seed, size="bench"):
    """The workload's operations for one seed: the benchmark's inputs."""
    s = SIZES[size]
    if workload == "finite_pruning":
        return [
            cli_op("truncation_error", seed, s["truncation_error"],
                   check_truncation_error),
            cli_op("compressibility", seed, s["compressibility"],
                   check_compressibility),
        ]
    if workload == "limit_kernels":
        return [
            cli_op("kernel_realizations", seed, s["kernel_realizations"],
                   check_kernel_realizations),
            limit_cauchy_op(seed, s["limit_cauchy"]),
            limit_beta_op(seed, s["limit_beta"]),
            limit_stable_op(seed, s["limit_stable"]),
            id_horseshoe_op(seed, s["id_horseshoe"]),
            ppp_gg_pareto_op(seed, s["ppp_gg_pareto"]),
        ]
    if workload == "finite_outputs":
        return [
            cli_op("output_dist", seed, s["output_dist"], check_output_dist),
            cli_op("max_weight", seed, s["max_weight"], check_max_weight),
            cli_op("output_corr", seed, s["output_corr"], check_output_corr),
            cli_op("verify", seed, s["verify"], check_verify),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")


def setup(workload, seed, size="bench"):
    """Everything a run needs before its first pass: levynet and scipy
    imported, the workload's operations built."""
    import_levynet()
    return build_ops(workload, seed, size)


def run_pass(ops, workers, tracer=None):
    """One pass over the operations, in order.  Only the calls into levynet
    are timed (and traced); reading and checking their outputs is not."""
    results = []
    for op in ops:
        span = tracer.op(op.name) if tracer else contextlib.nullcontext()
        failures, out = [], OpOutput([])
        t0 = perf_counter()
        try:
            with span:
                raw = op.run(workers)
        except Exception as exc:  # an operation that raises has failed
            seconds = perf_counter() - t0
            failures.append(f"raised {type(exc).__name__}: {exc}")
        else:
            seconds = perf_counter() - t0
            try:
                out = op.finish(raw)
                failures += out.failures
            except Exception as exc:
                failures.append(f"output unreadable: "
                                f"{type(exc).__name__}: {exc}")
        digest = hashlib.sha256()
        for part in out.digest_parts:
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
        results.append(OpResult(op.name, seconds, failures,
                                digest.hexdigest(), out.bytes_written,
                                out.notes))
    return results


def pass_digest(results):
    """Digest of every output of a pass, independent of its timing."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.name.encode())
        h.update(r.digest.encode())
    return h.hexdigest()
