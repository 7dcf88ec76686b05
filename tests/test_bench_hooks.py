"""Every span the benchmark's tracer hooks still resolves and is reached.

``perfbench/tracer.py`` wraps package attributes by name, and a refactor
that renames a hooked kernel or stops calling it turns its per-layer
metrics into ``absent`` markers. This runs a tiny experiment (sc, gc2 and
fc at R = 4, one trial, three iterations) under the tracer, read from the
benchmark's own file, so such a change fails here instead of in a traced
benchmark run. Only the Takagi fallback of the final projection may go
uncalled: it runs only on degenerate blocks.
"""

import importlib.util
from pathlib import Path

import bdris
from bdris import ExperimentSpec, Geometry, LinkGeometry

from helpers import config_for_tag

TRACER_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
LOSSLESS = Geometry(bs_ris=LinkGeometry(1.0, 0.0, 0.0),
                    ris_user=LinkGeometry(1.0, 0.0, 0.0))
MAY_GO_UNCALLED = {"optimizer.takagi"}


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_is_called(tmp_path):
    tracing = load_tracer_module()
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
