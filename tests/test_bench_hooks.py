"""The benchmark's use of the package still works.

``perfbench/tracer.py`` wraps package attributes by name, and a refactor
that renames a hooked kernel or stops calling it turns its per-layer
metrics into ``absent`` markers. The first test runs a tiny experiment (sc,
gc2 and fc at R = 4, one trial, three iterations) under the tracer, read
from the benchmark's own file, so such a change fails here instead of in a
traced benchmark run. Only the Takagi fallback of the final projection may
go uncalled: it runs only on degenerate blocks.

The fc-r32 and sc-r64 workloads solve one architecture each, so the second
test traces direct solves of sc, gc2 and fc separately and computes the
benchmark's own per-layer metrics from them: a kernel that only one
architecture stops calling makes a metric ``absent`` there.

The last test builds the benchmark's workloads from
``perfbench/workloads.py`` the same way, so a change to the spec loader, the
config or the solver calls that the workloads make fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import bdris
from bdris import ExperimentSpec, Geometry, LinkGeometry

from helpers import config_for_tag

ROOT = Path(__file__).resolve().parent.parent
LOSSLESS = Geometry(bs_ris=LinkGeometry(1.0, 0.0, 0.0),
                    ris_user=LinkGeometry(1.0, 0.0, 0.0))
MAY_GO_UNCALLED = {"optimizer.takagi"}


def load_bench_module(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first, as an import would: dataclasses look the module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_is_called(tmp_path):
    tracing = load_bench_module("tracer")
    config = config_for_tag("sc", n_users=2, n_tx=2, n_elements=4,
                            max_iters=3)
    spec = ExperimentSpec(config=config, geometry=LOSSLESS,
                          architectures=("sc", "gc2", "fc"),
                          sweep_variable="p_max", sweep_values=(2.0,),
                          n_trials=1, seed_base=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = bdris.run_experiment(spec, workers=1)
        bdris.emit_outputs(table, [], tmp_path, spec=spec)
    finally:
        tracer.uninstall()
    assert len(table.rows) == 3
    assert tracer.absent == []
    summary = tracer.summary()
    uncalled = [name for name, _ in tracing.HOOKS
                if name not in MAY_GO_UNCALLED and summary[name]["calls"] == 0]
    assert uncalled == []


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_traced_metrics_complete(tmp_path, monkeypatch, tag):
    # run.py imports the tracer by its plain module name.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = load_bench_module("tracer")
    workloads = load_bench_module("workloads")
    run = load_bench_module("run")

    def direct_solves():
        return workloads.DirectSolves(ROOT, 0, 0, tag, 8, count=1,
                                      max_iters=3)

    plain = direct_solves().run_pass(tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = direct_solves().run_pass(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = run.per_layer(tracer, [plain], [traced])
    incomplete = {name: metric for name, metric in metrics.items()
                  if "absent" in metric or metric["value"] is None}
    assert incomplete == {}


@pytest.mark.parametrize("tag", ["sc", "fc"])
def test_workloads_build_and_solve(tmp_path, tag):
    workloads = load_bench_module("workloads")
    cdf = workloads.CdfR8(ROOT, 0, 0)
    assert cdf.planned == len(cdf.spec.architectures) > 0
    solves = workloads.DirectSolves(ROOT, 0, 0, tag, 8, count=1, max_iters=3)
    result = solves.run_pass(tmp_path)
    assert result.problems == []
    assert len(result.solves) == result.planned == 1
    assert all(solve.error is None for solve in result.solves)
