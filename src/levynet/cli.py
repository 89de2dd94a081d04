"""Command-line entry point for the seeded simulation experiments.

Each subcommand dispatches one registered experiment and writes its report to
an output directory: one CSV per table plus estimates/checks CSVs (or a single
JSON file), and a manifest recording the seed, configuration, and version.
Files are written atomically and are byte-identical for a fixed seed whatever
the worker count.

CSV schema: UTF-8, comma-delimited, '.' decimal point, a header row always
present; a cell containing a comma or a double quote is quoted (RFC 4180
style, as the csv module reads it back); nonzero numbers of magnitude below
1e-4 are written in scientific notation.  Per-command columns:

  output_dist:         histogram(model, output, density),
                       tail(model, abs_output, survival)
  output_corr:         correlation(model, width, sq_output_corr)
  max_weight:          max_weight_cdf(model, width, max_abs_weight,
                       empirical_cdf, limit_cdf)
  truncation_error:    truncation_error(alpha, eps, mc_error, std_error, bound)
  kernel_realizations: kernel_draws(beta, rho, gp_kernel, draw_1..draw_n)
  compressibility:     compressibility(model, width, mass_ratio,
                       pruning_error, error_fraction)
  verify:              checks only; exits nonzero if any check fails
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys

from .stats import run_experiment

DEFAULT_REPLICATES = {
    "output_dist": 50_000,
    "output_corr": 5_000,
    "max_weight": 10_000,
    "truncation_error": 1_000,
    "kernel_realizations": 20,
    "compressibility": 200,
    "verify": 200,
}

FORMATS = ("csv", "json")

_EXPERIMENT_HELP = {
    "output_dist": "output histogram and log-log tail per variance model",
    "output_corr": "squared-output correlation across widths and models",
    "max_weight": "empirical CDFs of the largest weight vs the limit law",
    "truncation_error": "pruning error over an epsilon grid with fitted slope",
    "kernel_realizations": "random kernel draws over an input-angle grid",
    "compressibility": "mass ratio and paired pruning error across widths",
    "verify": "invariant battery; nonzero exit if any check fails",
}


def _version():
    """A git-describe-style version string, falling back to the package
    version when the tool runs outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version
        return version("levynet")
    except Exception:
        return "unknown"


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v != v:  # nan
            return "nan"
        if v != 0.0 and abs(v) < 1e-4:
            return "%.17e" % v
        return "%.17g" % v
    if v is None:
        return ""
    return str(v)


def _csv_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_format_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_report(report, out_dir, fmt):
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(filename, text):
        _write_atomic(os.path.join(out_dir, filename), text)
        written.append(filename)

    if fmt == "json":
        emit(f"{report.name}.json", report.to_json() + "\n")
    else:
        for tname, table in sorted(report.tables.items()):
            emit(f"{report.name}_{tname}.csv",
                 _csv_text(table["columns"], table["rows"]))
        emit(f"{report.name}_estimates.csv",
             _csv_text(["label", "value", "std_error"],
                       [e.to_row() for e in report.estimates]))
        emit(f"{report.name}_checks.csv",
             _csv_text(["label", "value", "target", "tolerance", "status"],
                       [c.to_row() for c in report.checks]))
    manifest = {
        "command": report.name,
        "config": report.config,
        "files": sorted(written),
        "format": fmt,
        "master_seed": report.master_seed,
        "replicates": report.replicate_count,
        "version": _version(),
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written + ["manifest.json"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levynet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _EXPERIMENT_HELP.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; command-line flags override it")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (u64); mandatory, no wall-clock default")
        p.add_argument("--replicates", type=int, default=None,
                       help=f"Monte-Carlo replicates "
                            f"(default {DEFAULT_REPLICATES[name]})")
        p.add_argument("--workers", type=int,
                       help="worker threads (default 1); outputs do not depend on it")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--format", choices=FORMATS, help="default csv")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise SystemExit("config file must contain a JSON object")

    def setting(key, default):
        # an explicit flag wins, then the config value, then the default
        for value in (getattr(args, key), config.pop(key, None), default):
            if value is not None:
                return value

    def integer(key, default):
        # a config value gets the same check as the flag; a bool is refused
        value = setting(key, default)
        if value is not None and type(value) is not int:
            parser.error(f"argument --{key}: invalid int value: {value!r}")
        return value

    seed = integer("seed", None)
    if seed is None:
        raise SystemExit("a master seed is required (--seed or config)")
    replicates = integer("replicates", DEFAULT_REPLICATES[args.command])
    workers = integer("workers", 1)
    out_dir = setting("out", ".")
    fmt = setting("format", "csv")
    if fmt not in FORMATS:
        parser.error(f"argument --format: invalid choice: {fmt!r} "
                     f"(choose from {', '.join(map(repr, FORMATS))})")
    config["name"] = args.command

    report = run_experiment(config, seed, replicates, worker_count=workers)
    files = _write_report(report, out_dir, fmt)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.label}: {check.value:.6g} "
              f"(target {check.target:.6g} +/- {check.tolerance:.3g})")
    print(f"wrote {len(files)} file(s) to {out_dir}")
    if args.command == "verify" and not report.all_passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
