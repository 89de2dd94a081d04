"""Benchmark of levynet, driven from outside the package.

    python3 perfbench/run.py --workload finite_pruning --seed 0 --seconds 24 --trace 0

Run from the root of a levynet checkout.  levynet is imported from the
checkout's src/; without it the benchmark exits with code 2 and prints no
result.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A record of the run
(environment, every pass and operation, and with tracing the spans) is
written to .perfbench/<workload>-trace<0|1>.json.  See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3          # untraced passes with --trace 0
MIN_TRACED_PASSES = 2   # of each kind with --trace 1
WORKERS_MAX = 2
# work counts that must repeat exactly in every traced pass of one seed
EXACT_COUNTS = ("network.sample_network.normals", "models.sample.draws",
                "levy.sample_ppp_matrix.atoms", "kernels.kappa.calls",
                "cli.bytes_written")


def measure_setup(workload, seed):
    """Median wall time, over SETUP_REPEATS fresh interpreters, from start to
    levynet and scipy imported and the workload's operations built."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import harness; "
            f"harness.setup({workload!r}, {seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def _git_describe():
    if not os.path.isdir(os.path.join(harness.ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--tags", "--always",
                              "--dirty"], cwd=harness.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of each OpenBLAS the process has loaded, left at the
    library default; {} where it cannot be read."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def environment(workload, seed, workers):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy's config layout is not an API
        blas = f"unknown ({type(exc).__name__})"
    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "git_describe": _git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
    }


def per_layer_metrics(tr, untraced, traced):
    """The per-layer metrics of one traced pass (tracer tr, results traced),
    plus the experiment times from the untraced passes."""
    calls, self_s, counts = tr.calls, tr.self_s, tr.counts

    def group_self(names):
        return sum((self_s[n] for n in names), 0.0)

    def per(seconds, count):
        return 1e9 * seconds / count if count else 0.0

    out = {}
    for name in ("network.sample_network", "network.weight", "network.forward",
                 "pruning.compressibility_ratio", "levy.sample_ppp_matrix",
                 "levy.sample_id_batch", "network.sample_random_kernel",
                 "network.simulate_limit_single_input", "kernels.kappa",
                 "levy.tail_intensity", "levy.inverse_tail_intensity",
                 "models.sample"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in ("network.sample_network.normals",
                "pruning.epsilon_sweep_error.replicates",
                "pruning.paired_pruning_error.replicates",
                "levy.sample_ppp_matrix.atoms", "levy.sample_id_batch.draws",
                "levy.tail_intensity.points", "models.sample.draws",
                "stats.map_replicates.tasks"):
        out[key] = counts[key]
    for name in ("pruning.epsilon_sweep_error", "pruning.paired_pruning_error",
                 "kernels.j_alpha_quadrature"):
        out[f"{name}.self_s"] = self_s[name]
    out["levy.sample_ppp_matrix.ns_per_atom"] = per(
        self_s["levy.sample_ppp_matrix"], counts["levy.sample_ppp_matrix.atoms"])
    out["models.sample.ns_per_draw"] = per(self_s["models.sample"],
                                           counts["models.sample.draws"])
    out["levy.quadrature.self_s"] = group_self(
        f"levy.{n}" for n in ("moment", "mean_mass_below",
                              "default_atom_floor", "activation_transform"))
    samplers = [f"rng.{n}" for n in tracing.RNG_SAMPLERS]
    out["rng.samplers.draws"] = sum(counts[f"{n}.draws"] for n in samplers)
    out["rng.samplers.self_s"] = group_self(samplers)
    special = [n for n in calls if n.startswith("special.")]
    out["special.calls"] = sum(calls[n] for n in special)
    out["special.self_s"] = group_self(special)
    out["stats.oracles.self_s"] = group_self(
        f"stats.{n}" for n in ("ks_distance", "tail_exponent",
                               "order_stat_cdf"))
    out["stats.map_replicates.wall_s"] = tr.pool["wall_s"]
    out["stats.map_replicates.busy_frac"] = (
        tr.pool["task_s"] / tr.pool["slot_s"] if tr.pool["slot_s"] else 0.0)
    out["experiments.self_s"] = group_self(
        n for n in self_s if n.startswith("experiments."))
    out["cli.self_s"] = group_self(n for n in self_s if n.startswith("cli."))
    out["cli.bytes_written"] = sum(r.bytes_written for r in traced)
    for name in harness.EXPERIMENTS:
        times = [r.seconds for p in untraced for r in p
                 if r.name == f"experiments.{name}"]
        out[f"experiments.{name}.s"] = statistics.median(times) if times else 0.0

    def share(op, names):
        total = tr.op_s.get(f"experiments.{op}", 0.0)
        part = sum(tr.op_self_s[(f"experiments.{op}", n)] for n in names)
        return part / total if total else 0.0

    out["share.truncation_error.network"] = share(
        "truncation_error", ("network.sample_network", "network.weight"))
    out["share.max_weight.tail_intensity"] = share(
        "max_weight", ("levy.tail_intensity",))
    return out


def typical_pass_s(passes):
    """Wall seconds of one typical pass: the sum over the operations of each
    one's median time across the passes.  Taking the median per operation
    filters a slow operation in one pass without discarding the others'
    times, which makes run-to-run spread smaller than the median of whole
    pass times does."""
    return sum(statistics.median(res[i].seconds for res in passes)
               for i in range(len(passes[0])))


def run_passes(ops, workers, seconds, trace):
    """Passes until about `seconds` have gone by: another pass starts only if
    it would end nearer the target than stopping now, and the minimum count
    is always met.  With tracing, untraced and traced passes alternate, each
    traced pass with its own Tracer."""
    start = perf_counter()
    untraced, traced, pass_s = [], [], []
    minimum = MIN_TRACED_PASSES if trace else MIN_PASSES
    while True:
        elapsed = perf_counter() - start
        enough = (untraced and elapsed + statistics.median(pass_s) / 2.0
                  >= seconds)
        if enough and len(untraced) >= minimum:
            break
        t0 = perf_counter()
        untraced.append(harness.run_pass(ops, workers))
        if trace:
            tr = tracing.Tracer()
            traced.append((tr, harness.run_pass(ops, workers, tr)))
        pass_s.append(perf_counter() - t0)
    return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an integer in [0, 2^64)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        harness.import_levynet()
    except ImportError as exc:
        print(f"perfbench: cannot import levynet from this checkout: {exc}",
              file=sys.stderr)
        return 2

    workers = min(WORKERS_MAX, len(os.sched_getaffinity(0)))
    env = environment(args.workload, args.seed, workers)
    print("environment: " + json.dumps(env, sort_keys=True))

    setup_s, setup_runs = measure_setup(args.workload, args.seed)
    ops = harness.setup(args.workload, args.seed)
    untraced, traced = run_passes(ops, workers, args.seconds, args.trace)

    # every pass of one seed, traced or not, must produce the same outputs
    passes = untraced + [res for _, res in traced]
    reference = [r.digest for r in passes[0]]
    attempted = failed = 0
    problems = []
    for res in passes:
        for r, ref in zip(res, reference):
            attempted += 1
            fails = list(r.failures)
            if r.digest != ref:
                fails.append("output differs from the run's first pass")
            if fails:
                failed += 1
                problems.append(f"{r.name}: {'; '.join(fails)}")
    correct = failed == 0

    if args.trace:
        layers = [per_layer_metrics(tr, untraced, res) for tr, res in traced]
        for key in EXACT_COUNTS:
            if len({m[key] for m in layers}) != 1:
                correct = False
                problems.append(f"{key} differs between traced passes: "
                                f"{[m[key] for m in layers]}")
        values = {k: statistics.median(m[k] for m in layers)
                  if isinstance(layers[0][k], float) else layers[0][k]
                  for k in layers[0]}
        values["trace.overhead_s"] = (
            typical_pass_s([res for _, res in traced])
            - typical_pass_s(untraced))
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": typical_pass_s(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "environment": env,
        "setup_runs_s": setup_runs,
        "passes": [{"traced": i >= len(untraced),
                    "ops": [vars(r) for r in res]}
                   for i, res in enumerate(passes)],
        "problems": problems,
        "metrics": metrics,
    }
    if traced:
        names = sorted({s[2] for tr, _ in traced for s in tr.spans})
        index = {n: i for i, n in enumerate(names)}
        record["span_names"] = names
        record["spans"] = [
            [[sid, parent, index[name], thread, round(t0, 7), round(t1, 7)]
             for sid, parent, name, thread, t0, t1 in tr.spans]
            for tr, _ in traced]
    os.makedirs(harness.SCRATCH, exist_ok=True)
    path = os.path.join(harness.SCRATCH,
                        f"{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for p in problems[:20]:
        print("problem: " + p, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
