"""Self-tests of the benchmark, at a small size.

    python3 -m pytest perfbench/test_perfbench.py -q

For each workload: the outputs of a pass are byte-identical for 1 and 2
workers and with tracing on or off, no operation fails, the exact work
counts repeat across traced passes and reach the workload's layers, every
span keeps its parent (also across the replicate thread pool), and tracing
leaves every levynet binding as it found it.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 3

# per-layer counts each workload must reach
EXERCISED = {
    "finite_pruning": ("network.sample_network.normals",
                       "pruning.epsilon_sweep_error.replicates",
                       "pruning.paired_pruning_error.replicates"),
    "limit_kernels": ("levy.sample_ppp_matrix.atoms",
                      "levy.sample_id_batch.draws", "kernels.kappa.calls",
                      "network.sample_random_kernel.calls"),
    "finite_outputs": ("models.sample.draws", "levy.tail_intensity.points",
                       "special.calls", "stats.map_replicates.tasks"),
}


def _wrapped_bindings():
    return [f"{name}.{attr}" for name, mod in sorted(sys.modules.items())
            if name == "levynet" or name.startswith("levynet.")
            for attr, val in vars(mod).items()
            if hasattr(val, "__wrapped__")]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_outputs_and_counts_are_deterministic(workload):
    ops = harness.setup(workload, SEED, size="small")
    plain = [harness.run_pass(ops, w) for w in (1, 2)]
    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced = [harness.run_pass(ops, w, tr) for w, tr in zip((2, 1), tracers)]

    assert _wrapped_bindings() == []
    passes = plain + traced
    for res in passes:
        assert [r.failures for r in res] == [[] for _ in res]
    digests = {harness.pass_digest(res) for res in passes}
    assert len(digests) == 1, "outputs depend on workers or tracing"

    layers = [run.per_layer_metrics(tr, plain, res)
              for tr, res in zip(tracers, traced)]
    # Counts of lazily cached set-up (inverse_tail_intensity, for one) are
    # not among them: two replicate threads can both fill a measure's
    # unlocked cache.
    for key in run.EXACT_COUNTS:
        assert layers[0][key] == layers[1][key], key
    for key in EXERCISED[workload]:
        assert layers[0][key] > 0, key

    for tr in tracers:
        span_ids = {s[0] for s in tr.spans}
        for sid, parent, name, *_ in tr.spans:
            if name.startswith("bench."):
                assert parent == 0
            else:
                assert parent in span_ids, f"{name} lost its parent span"
