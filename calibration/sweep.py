"""Pass-rate records for the statistical checks that a correct program can fail.

    python calibration/sweep.py --check 01 --seeds 1000-1039

Runs the experiment behind one check at every seed of an inclusive range,
with the same call, sizes and worker count as the check, and writes
calibration/CALIBRATION_<check>.json: the value of every statistic at every
seed, the pass rate with its 95 % Wilson interval, the mean and standard
deviation of each statistic with its band and the number of seeds in band, the
exact target where one is known, the commit and the environment.  It changes
no test, bound or seed; it only records how often a correct program passes.

Checks:
  01      tests/test_acceptance.py::test_criterion_01_truncation_error_slopes
  02      tests/test_acceptance.py::test_criterion_02_output_correlation
          (through the test module's own output_correlation_statistics)
  04      tests/test_acceptance.py::test_criterion_04_single_input_output_laws
          (through the test module's own single_input_output_statistics)
  05      tests/test_acceptance.py::test_criterion_05_kernel_moments
          (through the test module's own kernel_moment_statistics)
  07      tests/test_acceptance.py::test_criterion_07_extreme_value_law
          (through the test module's own extreme_value_statistics)
  09      tests/test_acceptance.py::test_criterion_09_compressibility
          (through the test module's own compressibility_statistics)
  verify  tests/test_experiments.py::test_verify_all_checks_pass
          (and the exit code of `levynet verify` at its default replicates)
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from scipy import stats as st  # noqa: E402

from levynet.stats import run_experiment  # noqa: E402
from test_acceptance import (GP_RATIO_TARGETS,  # noqa: E402
                             compressibility_statistics,
                             extreme_value_statistics,
                             kernel_moment_statistics,
                             output_correlation_statistics,
                             single_input_output_statistics)


def _all_checks(rep):
    """Every check of the report, each in band when it passes."""
    return {c.label: (c.value, c.passed) for c in rep.checks}


def _experiment(spec, replicates, workers, statistics):
    """A check that is one run_experiment call: seed -> statistics."""
    return {"call": (f"run_experiment({spec!r}, seed, {replicates}, "
                     f"worker_count={workers})"),
            "run": lambda seed: statistics(run_experiment(
                spec, seed, replicates, worker_count=workers))}


def _shared(statistics):
    """A check whose body the test module shares: seed -> statistics."""
    return {"call": f"{statistics.__name__}(seed)",
            "run": lambda seed: statistics(seed)[0]}


# p = 5000 in criterion 07: the exact median of the largest of p variances,
# c1 / p for deterministic and F^{-1}(2^{-1/p}) for InvGamma(2, 2/p)
_P07 = 5000

CHECKS = {
    "01": {
        "test": "tests/test_acceptance.py::test_criterion_01_truncation_error_slopes",
        **_experiment("truncation_error", 1000, 8, _all_checks), "exact": {},
    },
    "02": {
        "test": "tests/test_acceptance.py::test_criterion_02_output_correlation",
        **_shared(output_correlation_statistics),
        # the exact squared-output correlation of the beta model
        "exact": {"beta": 0.2501},
    },
    "04": {
        "test": "tests/test_acceptance.py::test_criterion_04_single_input_output_laws",
        **_shared(single_input_output_statistics), "exact": {},
    },
    "05": {
        "test": "tests/test_acceptance.py::test_criterion_05_kernel_moments",
        **_shared(kernel_moment_statistics), "exact": {},
    },
    "07": {
        "test": "tests/test_acceptance.py::test_criterion_07_extreme_value_law",
        **_shared(extreme_value_statistics),
        "exact": {"deterministic/median_max": 1.0 / _P07,
                  "inverse_gamma/median_max": float(st.invgamma(
                      2.0, scale=2.0 / _P07).ppf(2.0 ** (-1.0 / _P07)))},
    },
    "09": {
        "test": "tests/test_acceptance.py::test_criterion_09_compressibility",
        **_shared(compressibility_statistics),
        "exact": {f"{name}/ratio_final": target
                  for name, target in GP_RATIO_TARGETS.items()},
    },
    "verify": {
        "test": "tests/test_experiments.py::test_verify_all_checks_pass",
        **_experiment("verify", 200, 1, _all_checks), "exact": {},
    },
}


def wilson_interval(passes, n, z=1.959963984540054):
    """The 95 % Wilson score interval of a binomial proportion."""
    if n == 0:
        return [0.0, 1.0]
    phat = passes / n
    centre = (phat + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * math.sqrt(phat * (1 - phat) / n
                                             + z * z / (4 * n * n))
    return [max(0.0, centre - half), min(1.0, centre + half)]


def _git(*args):
    """git's stripped standard output, or None when git cannot run."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "cpu": cpu, "cpu_count": os.cpu_count()}


def sweep(check, seeds):
    spec = CHECKS[check]
    per_seed = []
    for seed in seeds:
        t0 = perf_counter()
        stats = spec["run"](seed)
        per_seed.append({
            "seed": seed, "passed": all(ok for _, ok in stats.values()),
            "values": {k: v for k, (v, _) in stats.items()},
            "in_band": {k: ok for k, (_, ok) in stats.items()},
            "seconds": round(perf_counter() - t0, 3)})
        print(f"seed {seed}: {'pass' if per_seed[-1]['passed'] else 'FAIL'}"
              f" ({per_seed[-1]['seconds']} s)", flush=True)
    passes = sum(r["passed"] for r in per_seed)
    summary = {}
    for name in per_seed[0]["values"]:
        vals = [r["values"][name] for r in per_seed]
        summary[name] = {
            "mean": statistics.fmean(vals),
            "sd": statistics.stdev(vals) if len(vals) > 1 else 0.0,
            "in_band": sum(r["in_band"][name] for r in per_seed),
            "exact_target": spec["exact"].get(name)}
    return {
        "check": check, "test": spec["test"],
        "call": spec["call"],
        "seeds": [seeds[0], seeds[-1]], "runs": len(per_seed),
        "passes": passes, "pass_rate": passes / len(per_seed),
        "wilson_95": wilson_interval(passes, len(per_seed)),
        "statistics": summary,
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "worktree": {None: "unknown", "": "clean"}.get(
            _git("status", "--porcelain", "--", "src", "calibration/sweep.py",
                 "tests/test_acceptance.py"),
            "dirty"),
        "environment": _environment(),
        "per_seed": per_seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seeds", required=True,
                        help="inclusive seed range A-B, e.g. 1000-1039")
    parser.add_argument("--out", default=HERE, help="output directory")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        parser.error("empty seed range")
    record = sweep(args.check, seeds)
    path = os.path.join(args.out, f"CALIBRATION_{args.check}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{record['passes']}/{record['runs']} pass; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
