import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris import (ExperimentSpec, Geometry, LinkGeometry, empirical_cdf,
                   emit_outputs, load_experiment_spec, run_experiment)
from bdris.bench import _run_cell

from helpers import make_config


LOSSLESS = Geometry(bs_ris=LinkGeometry(1.0, 0.0, 0.0),
                    ris_user=LinkGeometry(1.0, 0.0, 0.0))


def tiny_spec(n_trials=2, architectures=("sc", "gc2"), values=(1.0, 2.0),
              variable="p_max", max_iters=40, n_elements=4):
    config = make_config(n_elements=n_elements, n_groups=1,
                         max_iters=max_iters)
    return ExperimentSpec(config=config, geometry=LOSSLESS,
                          architectures=tuple(architectures),
                          sweep_variable=variable,
                          sweep_values=tuple(values),
                          n_trials=n_trials, seed_base=11)


class TestEmpiricalCdf:
    def test_singleton(self):
        out = empirical_cdf(np.array([5.0]))
        assert out.shape == (1, 2)
        assert out[0, 0] == 5.0 and out[0, 1] == 1.0

    def test_four_values(self):
        out = empirical_cdf(np.array([3.0, 1.0, 4.0, 2.0]))
        assert np.array_equal(out[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(out[:, 1], [0.25, 0.5, 0.75, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_monotone_and_normalized(self, values):
        out = empirical_cdf(np.array(values))
        assert (np.diff(out[:, 0]) >= 0).all()
        assert (np.diff(out[:, 1]) > 0).all()
        assert out[-1, 1] == 1.0


class TestSpecValidation:
    def test_requires_trials(self):
        with pytest.raises(ValueError):
            tiny_spec(n_trials=0)

    def test_requires_known_variable(self):
        with pytest.raises(ValueError):
            tiny_spec(variable="bandwidth")

    def test_requires_integer_element_counts(self):
        with pytest.raises(ValueError):
            tiny_spec(variable="n_elements", values=(2.5,))

    # gc0 divides no element count, so it would skip every cell; a tag
    # repeated in another case would solve every cell twice. The CLI's bad
    # specs cover the other unknown and repeated tags.
    @pytest.mark.parametrize("architectures", [("sc", "gc0"), ("sc", "SC")])
    def test_unknown_or_repeated_tags_rejected(self, architectures):
        with pytest.raises(ValueError, match="architectures"):
            tiny_spec(architectures=architectures)

    def test_load_from_yaml(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "config:\n"
            "  n_tx: 2\n  n_users: 2\n  n_elements: 4\n  n_groups: 2\n"
            "  p_max: 2.0\n  noise_power: 1.0\n  max_iters: 30\n"
            "architectures: [sc, fc]\n"
            "sweep: {variable: n_elements, values: [4, 8]}\n"
            "n_trials: 3\n"
            "seed_base: 5\n")
        spec = load_experiment_spec(path)
        assert spec.architectures == ("sc", "fc")
        assert spec.sweep_values == (4, 8)
        assert spec.n_trials == 3
        assert spec.seed_base == 5

    @pytest.mark.parametrize("text", [
        "sweep: {variable: n_elements, values: [4.9, 8]}\nn_trials: 3\n",
        "n_trials: 2.5\n",
        "n_trials: 3\nseed_base: 1.5\n"],
        ids=["sweep_values", "n_trials", "seed_base"])
    def test_non_integral_counts_rejected(self, tmp_path, text):
        path = tmp_path / "spec.yaml"
        path.write_text("config: {n_tx: 2, n_users: 2, n_elements: 4, "
                        "n_groups: 1, p_max: 2.0, noise_power: 1.0}\n"
                        "architectures: [sc]\n" + text)
        with pytest.raises(ValueError):
            load_experiment_spec(path)


    @pytest.mark.parametrize("key, value", [
        ("n_trials", 2.5), ("n_trials", True), ("n_trials", None),
        ("seed_base", 0.5), ("seed_base", True), ("seed_base", None)])
    def test_direct_spec_rejects_non_integers(self, key, value):
        # A spec built without the loader used to take these, and
        # run_experiment then failed inside numpy.
        with pytest.raises(ValueError, match=f"^{key} must be"):
            replace(tiny_spec(), **{key: value})

    @pytest.mark.parametrize("variable, value", [
        ("p_max", float("inf")), ("p_max", float("nan")), ("p_max", True),
        ("p_max", -1.0), ("n_elements", True), ("n_elements", 0)])
    def test_direct_spec_rejects_values_no_config_takes(self, variable,
                                                        value):
        # Each sweep value becomes a SystemConfig field, and is checked by
        # its rule: an infinite p_max used to pass here and stop the run
        # after every finite cell was solved, and True ran as 1 element.
        with pytest.raises(ValueError, match=f"^{variable} sweep values"):
            replace(tiny_spec(), sweep_variable=variable,
                    sweep_values=(value,))

    def test_direct_spec_reads_integral_floats(self):
        spec = replace(tiny_spec(), n_trials=2.0, seed_base=3.0)
        assert (spec.n_trials, spec.seed_base) == (2, 3)
        assert all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (spec.n_trials, spec.seed_base))


class TestRunExperiment:
    def test_single_cell_single_row(self):
        spec = tiny_spec(n_trials=1, architectures=("sc",), values=(1.0,))
        table = run_experiment(spec)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert (row.architecture, row.sweep_value, row.trial) == ("sc", 1.0, 0)
        assert row.seed == spec.seed_base
        assert row.sum_rate_bits > 0

    def test_deterministic_tables(self):
        spec = tiny_spec()
        a, b = run_experiment(spec), run_experiment(spec)
        strip = lambda t: [(r.architecture, r.sweep_value, r.trial, r.seed,
                            r.sum_rate_bits, r.iters, r.converged,
                            r.channel_digest) for r in t.rows]
        assert strip(a) == strip(b)

    def test_workers_do_not_change_results(self):
        spec = tiny_spec(n_trials=2, architectures=("sc",), values=(1.0,),
                         max_iters=20)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        strip = lambda t: [(r.architecture, r.sweep_value, r.trial,
                            r.sum_rate_bits) for r in t.rows]
        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize("workers", [0, -2, True])
    def test_workers_must_be_positive_integer(self, workers):
        # Counts below 1 used to run serially without a word, and True ran
        # as 1.
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_spec(), workers=workers)

    def test_channels_shared_within_cell(self):
        spec = tiny_spec(n_trials=2, architectures=("sc", "gc2", "fc"),
                         values=(1.0,))
        table = run_experiment(spec)
        by_cell = {}
        for row in table.rows:
            by_cell.setdefault((row.sweep_value, row.trial),
                               set()).add(row.channel_digest)
        assert all(len(digests) == 1 for digests in by_cell.values())
        # different trials draw different channels
        digests = {row.channel_digest for row in table.rows}
        assert len(digests) == 2

    def test_invalid_sweep_combination_reported_not_fatal(self):
        spec = tiny_spec(variable="n_elements", values=(6,),
                         architectures=("sc", "gc4", "gc2"))
        table = run_experiment(spec)
        assert len(table.skipped) == spec.n_trials  # gc4 does not divide 6
        assert all(s["architecture"] == "gc4" for s in table.skipped)
        assert {r.architecture for r in table.rows} == {"sc", "gc2"}


class TestEmitOutputs:
    def test_file_set_and_columns(self, tmp_path):
        spec = tiny_spec()
        table = run_experiment(spec)
        written = emit_outputs(table, [], tmp_path, spec=spec)
        names = {p.name for p in written}
        assert names == {"results.csv", "cdf_sc.csv", "cdf_gc2.csv",
                         "manifest.json"}
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == ("architecture,sweep_value,trial,seed,"
                          "sum_rate_bits,iters,converged")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiment"]["n_trials"] == 2
        assert manifest["channel_digests"]

    def test_empty_table_and_traces(self, tmp_path):
        from bdris.bench import ResultTable
        written = emit_outputs(ResultTable(), [], tmp_path)
        assert {p.name for p in written} == {"results.csv", "manifest.json"}

    def test_trace_file_count(self, tmp_path):
        spec = tiny_spec(values=(4,), variable="n_elements", max_iters=25)
        traces = [trace for trial in range(spec.n_trials)
                  for trace in _run_cell((spec, 4, trial))[2]]
        assert [(t.architecture, t.trial, t.seed) for t in traces] == [
            ("sc", 0, 11), ("gc2", 0, 11), ("sc", 1, 12), ("gc2", 1, 12)]
        written = emit_outputs(run_experiment(spec), traces, tmp_path)
        trace_files = [p for p in written if p.name.startswith("trace_")]
        assert len(trace_files) == 4
        assert (tmp_path / "trace_sc_11.csv").exists()
        assert (tmp_path / "trace_gc2_12.csv").exists()

    def test_unlabeled_trace_rejected(self, tmp_path):
        from bdris.bench import ResultTable
        from bdris.optimizer import OptimizerTrace
        with pytest.raises(ValueError):
            emit_outputs(ResultTable(), [OptimizerTrace()], tmp_path)

    def test_rerun_byte_identical(self, tmp_path):
        spec = tiny_spec(n_trials=1, max_iters=25)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_experiment(spec), [], out_a, spec=spec)
        emit_outputs(run_experiment(spec), [], out_b, spec=spec)
        for name in ("results.csv", "cdf_sc.csv", "cdf_gc2.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_architecture_ordering_small_sample():
    # Mean rates over a few shared-channel trials line up with connectivity.
    spec = tiny_spec(n_trials=4, architectures=("sc", "gc2", "fc"),
                     values=(2.0,), max_iters=500, n_elements=4)
    table = run_experiment(spec)
    means = {tag: np.mean([r.sum_rate_bits for r in table.rows
                           if r.architecture == tag])
             for tag in ("sc", "gc2", "fc")}
    assert means["fc"] >= means["gc2"] >= means["sc"]
