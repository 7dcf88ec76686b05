"""Monte Carlo experiment harness.

An experiment sweeps one variable (element count or power budget) over a set
of architectures with ``n_trials`` independent channel realizations. Within a
(sweep value, trial) cell every architecture consumes the identical channel
set and beamformer; channels are drawn with seed ``seed_base + trial``, so a
spec fully determines the results regardless of worker count.

Outputs are CSV files plus a JSON manifest. ``results.csv`` contains only
deterministic columns (wall-clock timings go to the manifest, which is the
one volatile output file): rerunning the same spec reproduces it byte for
byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelSet, generate_channels
from .config import (Geometry, SystemConfig, config_from_dict, config_to_dict,
                     float_field, integer_field, mapping_field,
                     positive_finite, positive_integer, reject_unknown_keys)
from .optimizer import OptimizerTrace, cga_optimize, write_trace_csv
from .system import (init_beamformer_uniform, parse_architecture_tag,
                     read_architecture_tag)

SWEEP_VARIABLES = ("n_elements", "p_max")
_SPEC_KEYS = ("config", "geometry", "architectures", "sweep", "n_trials",
              "seed_base", "output_dir")


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    geometry: Geometry
    architectures: tuple[str, ...]
    sweep_variable: str
    sweep_values: tuple
    n_trials: int
    seed_base: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        # The loader's check, for specs built directly: 2.5 and True raise
        # with the key's name, and 2.0 reads as 2, as it does in a file.
        for key in ("n_trials", "seed_base"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                object.__setattr__(self, key, integer_field(key, value))
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"sweep variable must be one of {SWEEP_VARIABLES}")
        if self.seed_base < 0:
            raise ValueError(
                f"seed_base must be nonnegative, got {self.seed_base!r}")
        if not self.architectures:
            raise ValueError("at least one architecture is required")
        # A tag that only fails to divide a sweep's element count is a
        # skipped cell; an unknown one would skip every cell, and a repeated
        # one would solve every cell twice.
        try:
            kinds = [read_architecture_tag(tag) for tag in self.architectures]
        except ValueError as exc:
            raise ValueError(f"architectures: {exc}") from None
        if len(set(kinds)) < len(kinds):
            raise ValueError("architectures must not repeat a tag, got "
                             f"{list(self.architectures)!r}")
        if not self.sweep_values:
            raise ValueError("at least one sweep value is required")
        # The rules of SystemConfig's fields: every sweep value becomes one.
        for value in self.sweep_values:
            if self.sweep_variable == "n_elements":
                if not positive_integer(value):
                    raise ValueError(
                        f"n_elements sweep values must be positive integers, got {value!r}")
            elif not positive_finite(value):
                raise ValueError(
                    f"p_max sweep values must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ResultRow:
    architecture: str
    sweep_value: float | int
    trial: int
    seed: int
    sum_rate_bits: float
    iters: int
    wall_time_s: float
    converged: bool
    channel_digest: str


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)


def _required(raw: dict, key: str, where: str = ""):
    if key not in raw:
        raise ValueError(f"experiment spec is missing {where}{key}")
    return raw[key]


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec file (YAML/JSON).

    ``architectures`` (a list of tags) and ``n_trials`` are required and
    unknown keys rejected; a missing ``sweep`` runs the config's elements.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"experiment spec {path} must contain a mapping")
    reject_unknown_keys("experiment spec", raw, _SPEC_KEYS)
    config_raw = dict(mapping_field("config", raw.get("config", {})))
    if "geometry" in raw:
        config_raw["geometry"] = raw["geometry"]
    config, geometry = config_from_dict(config_raw)
    sweep = raw.get("sweep")
    if sweep is None:
        sweep = {"variable": "n_elements", "values": [config.n_elements]}
    variable = _required(mapping_field("sweep", sweep), "variable", "sweep.")
    values = _required(sweep, "values", "sweep.")
    reject_unknown_keys("sweep", sweep, ("variable", "values"))
    if not isinstance(values, list):
        raise ValueError(f"sweep.values must be a list, got {values!r}")
    if variable == "n_elements":
        values = [integer_field("sweep.values", v) for v in values]
    else:
        values = [float_field("sweep.values", v) for v in values]
    output_dir = raw.get("output_dir")
    if output_dir is not None and not (isinstance(output_dir, str)
                                       and output_dir):
        raise ValueError(
            f"output_dir must be a directory path, got {output_dir!r}")
    architectures = _required(raw, "architectures")
    if not (isinstance(architectures, list)
            and all(isinstance(tag, str) for tag in architectures)):
        raise ValueError("architectures must be a list of tags, "
                         f"got {architectures!r}")
    return ExperimentSpec(
        config=config,
        geometry=geometry,
        architectures=tuple(architectures),
        sweep_variable=variable,
        sweep_values=tuple(values),
        n_trials=integer_field("n_trials", _required(raw, "n_trials")),
        seed_base=integer_field("seed_base", raw.get("seed_base", 0)),
        output_dir=output_dir)


def _neutral_config(config: SystemConfig, sweep_variable: str, value) -> SystemConfig:
    """Cell config before the architecture is chosen (group count 1)."""
    if sweep_variable == "n_elements":
        return replace(config, n_elements=int(value), n_groups=1)
    return replace(config, p_max=float(value), n_groups=1)


def channel_digest(channels: ChannelSet) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(channels.h_tx).tobytes())
    digest.update(np.ascontiguousarray(channels.h_rx).tobytes())
    return digest.hexdigest()


def _run_cell(args) -> tuple[list[ResultRow], list[dict], list[OptimizerTrace]]:
    """All architectures of one (sweep value, trial) cell on shared channels.

    Returns the result rows, the skipped architectures, and one trace per
    solve labelled with its architecture and trial.
    """
    spec, value, trial = args
    seed = spec.seed_base + trial
    base = _neutral_config(spec.config, spec.sweep_variable, value)
    channels = generate_channels(base, spec.geometry, seed)
    digest = channel_digest(channels)
    beam = init_beamformer_uniform(base)
    rows: list[ResultRow] = []
    skipped: list[dict] = []
    traces: list[OptimizerTrace] = []
    for tag in spec.architectures:
        try:
            _, group_size = parse_architecture_tag(tag, base.n_elements)
        except ValueError as exc:
            skipped.append({"architecture": tag, "sweep_value": value,
                            "trial": trial, "reason": str(exc)})
            continue
        cell_config = replace(base, n_groups=base.n_elements // group_size)
        started = time.perf_counter()
        _, trace = cga_optimize(channels, beam, cell_config, seed)
        elapsed = time.perf_counter() - started
        trace.architecture = tag
        trace.trial = trial
        traces.append(trace)
        rows.append(ResultRow(
            architecture=tag,
            sweep_value=value,
            trial=trial,
            seed=seed,
            sum_rate_bits=trace.final.projected_rate,
            iters=trace.final.iters_used,
            wall_time_s=elapsed,
            converged=trace.final.converged,
            channel_digest=digest))
    return rows, skipped, traces


def _cell_rows(args) -> tuple[list[ResultRow], list[dict]]:
    """``_run_cell`` without the traces, so workers do not send them back."""
    rows, skipped, _ = _run_cell(args)
    return rows, skipped


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Run the full (sweep value, trial, architecture) grid.

    Cells are independent jobs; seeds derive from trial indices, so the table
    does not depend on ``workers``, a positive integer (1 runs the cells in
    this process). Architecture/value combinations that do not divide
    evenly are reported in ``table.skipped`` and the run continues.
    """
    if (isinstance(workers, bool) or not isinstance(workers, int)
            or workers < 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    jobs = [(spec, value, trial)
            for value in spec.sweep_values
            for trial in range(spec.n_trials)]
    if workers == 1:
        outcomes = list(map(_cell_rows, jobs))
    else:
        # Imported here: it adds about 19 ms to ``import bdris``.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_cell_rows, jobs))
    table = ResultTable()
    for rows, skipped in outcomes:
        table.rows.extend(rows)
        table.skipped.extend(skipped)
    return table


def empirical_cdf(values: np.ndarray) -> np.ndarray:
    """Pairs (sorted value, k/n) for k = 1..n."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empirical_cdf requires a non-empty input")
    ordered = np.sort(values)
    probabilities = np.arange(1, ordered.size + 1) / ordered.size
    return np.column_stack([ordered, probabilities])


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_outputs(table: ResultTable, traces: list[OptimizerTrace],
                 output_dir: str | Path,
                 spec: ExperimentSpec | None = None) -> list[Path]:
    """Write results.csv, per-architecture CDFs, trace files, and a manifest.

    Everything except the manifest (which carries wall-clock timings and a
    timestamp) is byte-reproducible for identical inputs.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    results_path = out / "results.csv"
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["architecture", "sweep_value", "trial", "seed",
                         "sum_rate_bits", "iters", "converged"])
        for row in table.rows:
            writer.writerow([row.architecture, _format(row.sweep_value),
                             row.trial, row.seed, _format(row.sum_rate_bits),
                             row.iters, _format(row.converged)])
    written.append(results_path)

    architectures = []
    for row in table.rows:
        if row.architecture not in architectures:
            architectures.append(row.architecture)
    for tag in architectures:
        rates = np.array([r.sum_rate_bits for r in table.rows
                          if r.architecture == tag])
        cdf = empirical_cdf(rates)
        cdf_path = out / f"cdf_{tag}.csv"
        with open(cdf_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sum_rate_bits", "probability"])
            for value, probability in cdf:
                writer.writerow([repr(float(value)), repr(float(probability))])
        written.append(cdf_path)

    for trace in traces:
        if trace.architecture is None or trace.seed is None:
            raise ValueError("traces passed to emit_outputs need "
                             "architecture and seed labels")
        trace_path = out / f"trace_{trace.architecture}_{trace.seed}.csv"
        write_trace_csv(trace, trace_path)
        written.append(trace_path)

    digests = {}
    timings = {}
    for row in table.rows:
        digests[f"{row.sweep_value}/{row.trial}"] = row.channel_digest
        timings[f"{row.architecture}/{row.sweep_value}/{row.trial}"] = row.wall_time_s
    manifest = {
        "package": {"name": "bdris", "version": _package_version()},
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__},
        "experiment": manifest_with_spec(spec) if spec is not None else None,
        "seeds": sorted({row.seed for row in table.rows}),
        "channel_digests": digests,
        "skipped_cells": table.skipped,
        "timings_s": timings,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written


def manifest_with_spec(spec: ExperimentSpec) -> dict:
    """Spec echo for inclusion in run metadata."""
    return {
        "config": config_to_dict(spec.config, spec.geometry),
        "architectures": list(spec.architectures),
        "sweep": {"variable": spec.sweep_variable,
                  "values": list(spec.sweep_values)},
        "n_trials": spec.n_trials,
        "seed_base": spec.seed_base,
    }


def _package_version() -> str:
    from . import __version__
    return __version__
