"""Benchmark workloads: inputs made from a seed, one timed pass, output checks.

Every workload drives ``bdris`` only through its public calls. A pass runs
the workload's fixed list of ``cga_optimize`` solves and writes the results
with ``emit_outputs``; the pass is the timed section. Each solve is then
checked: it must return a finite final rate and a matrix that passes
``validate_feasibility``. A solve that raises or fails a check counts as
failed and stays in every denominator.

Why these workloads:

- ``cdf-r8``: the paper's headline experiment (``configs/bench_cdf.yaml``,
  R = 8, sc/gc2/gc4/fc on shared channels) cut to one trial, run through
  ``run_experiment(workers=1)`` and ``emit_outputs`` exactly as
  ``bdris bench`` runs it. Blocks are at most 8 x 8, so time goes to
  per-call overhead and line-search trials.
- ``fc-r32``: one 32 x 32 block. The batched QR retraction dominates, so
  flop-bound kernel changes show here. Each solve stops after
  ``FC_R32_ITERS`` iterations: uncapped, fc solves at R = 32 always run to
  the 2000-iteration cap, about 13 s each, and every iteration does the
  same kinds of work, so capped solves cost the same per iteration.
- ``sc-r64``: 64 blocks of 1 x 1. The same kernels on many tiny blocks; the
  penalty is identically zero and the final projection is trivial, so
  penalty and projection changes should leave it unchanged.

A pass is kept short (2-5 s) so that one run repeats it several times and
reports the median pass (see ``run.py``): on a shared host the same pass
takes from 1x to 2x its time, in spells of seconds to minutes.

Seeds: the instances are fixed by the workload seed ``w``, which uses
channel (and starting-point) seeds ``w * SEED_STRIDE + i``; ``w = 0`` of
``cdf-r8`` reproduces the first trial of ``configs/bench_cdf.yaml``
exactly. The order seed shuffles the order in which those instances are
solved (for ``cdf-r8``, the architecture order). Runs vary the order seed
and keep the workload seed, because solve cost differs between random
instances far more than one run can average out: sc-r64 solves take from
under 100 iterations to the 2000 cap. Another workload seed gives a
held-out instance set with the same metric names.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import bdris

WORKLOADS = ("cdf-r8", "fc-r32", "sc-r64")
SEED_STRIDE = 1000
# Solves per pass, sized so that one pass takes 2-5 s on a 2-core x86-64
# box with one BLAS thread.
FC_R32_SOLVES = 2
FC_R32_ITERS = 200
SC_R64_SOLVES = 3


@dataclass(frozen=True)
class Solve:
    """Outcome of one ``cga_optimize`` call."""

    seconds: float
    iters: int
    converged: bool
    rate: float               # final (projected) sum-rate, bit/s/Hz
    projection_loss: float    # pre-projection rate minus final rate
    error: str | None         # why the solve counts as failed, else None


@dataclass(frozen=True)
class PassResult:
    seconds: float            # time in solves and output writing, not checks
    planned: int              # solves the pass was meant to run
    solves: list[Solve]
    results_sha256: str | None      # results.csv as written
    rows_sha256: str | None         # its lines sorted, so solve order drops out
    problems: list[str]             # output checks that failed


def check_solve(theta, trace) -> str | None:
    """None if the solve passed the correctness gate, else the reason."""
    rate = trace.final.projected_rate
    if not math.isfinite(rate):
        return f"non-finite final rate {rate!r}"
    report = bdris.validate_feasibility(theta)
    if not report.passed:
        return (f"infeasible matrix: unitarity {report.max_unitarity:.3e}, "
                f"symmetry {report.max_symmetry:.3e}")
    return None


def _solve(seconds: float, theta, trace) -> Solve:
    final = trace.final
    return Solve(seconds=seconds, iters=final.iters_used,
                 converged=final.converged, rate=final.projected_rate,
                 projection_loss=final.pre_projection_rate - final.projected_rate,
                 error=check_solve(theta, trace))


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def check_outputs(out_dir: Path, rows: list, planned: int
                  ) -> tuple[str | None, str | None, list[str]]:
    """Hash results.csv and check it and the CDF files against the rows."""
    problems = []
    results = out_dir / "results.csv"
    if not results.is_file():
        return None, None, ["results.csv was not written"]
    data = results.read_bytes()
    with open(results, encoding="utf-8", newline="") as fh:
        written = list(csv.DictReader(fh))
    if len(written) != planned or len(rows) != planned:
        problems.append(f"results.csv has {len(written)} rows and the table "
                        f"{len(rows)}, expected {planned}")
    for line, row in zip(written, rows):
        if (line["architecture"] != row.architecture
                or float(line["sum_rate_bits"]) != row.sum_rate_bits
                or int(line["iters"]) != row.iters):
            problems.append(f"results.csv row {line} does not match {row}")
            break
    for tag in dict.fromkeys(row.architecture for row in rows):
        expected = sorted(row.sum_rate_bits for row in rows
                          if row.architecture == tag)
        path = out_dir / f"cdf_{tag}.csv"
        if not path.is_file():
            problems.append(f"{path.name} was not written")
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            cdf = list(csv.DictReader(fh))
        values = [float(line["sum_rate_bits"]) for line in cdf]
        if values != expected or float(cdf[-1]["probability"]) != 1.0:
            problems.append(f"cdf_{tag}.csv does not match the results")
    sorted_rows = b"".join(sorted(data.splitlines(keepends=True)))
    return (hashlib.sha256(data).hexdigest(),
            hashlib.sha256(sorted_rows).hexdigest(), problems)


class CdfR8:
    """``configs/bench_cdf.yaml`` cut to ``TRIALS`` trials."""

    TRIALS = 1

    def __init__(self, root: Path, workload_seed: int, order_seed: int):
        spec = bdris.load_experiment_spec(root / "configs" / "bench_cdf.yaml")
        architectures = list(spec.architectures)
        random.Random(order_seed).shuffle(architectures)
        self.spec = replace(spec, n_trials=self.TRIALS,
                            architectures=tuple(architectures),
                            seed_base=spec.seed_base + workload_seed * SEED_STRIDE)
        self.planned = (self.TRIALS * len(spec.sweep_values)
                        * len(spec.architectures))

    def run_pass(self, out_dir: Path) -> PassResult:
        # bench calls cga_optimize through its module global; checking each
        # returned matrix there is the only way to see it. The time spent
        # checking is taken out of the pass time.
        bench = bdris.bench
        inner = bench.cga_optimize
        solves = []
        checking = 0.0

        def checked(*args, **kwargs):
            nonlocal checking
            theta, trace = inner(*args, **kwargs)
            began = time.perf_counter()
            solves.append(_solve(math.nan, theta, trace))
            checking += time.perf_counter() - began
            return theta, trace

        bench.cga_optimize = checked
        start = time.perf_counter()
        try:
            table = bdris.run_experiment(self.spec, workers=1)
            bdris.emit_outputs(table, [], out_dir, self.spec)
        except Exception as exc:  # a failing solve fails the whole pass
            return PassResult(time.perf_counter() - start - checking,
                              self.planned, [], None, None, [_failure(exc)])
        finally:
            bench.cga_optimize = inner
        seconds = time.perf_counter() - start - checking

        sha, rows_sha, problems = check_outputs(out_dir, table.rows,
                                                self.planned)
        if table.skipped:
            problems.append(f"skipped cells: {table.skipped}")
        if len(solves) != len(table.rows):
            problems.append(f"{len(solves)} solves for {len(table.rows)} rows")
        for row, solve in zip(table.rows, solves):
            if row.sum_rate_bits != solve.rate or row.iters != solve.iters:
                problems.append(f"table row {row.architecture}/{row.trial} "
                                "differs from the solver's result")
                break
        solves = [replace(solve, seconds=row.wall_time_s)
                  for row, solve in zip(table.rows, solves)]
        return PassResult(seconds, self.planned, solves, sha, rows_sha,
                          problems)


class DirectSolves:
    """Direct ``cga_optimize`` calls on desk-geometry channels, one tag and size."""

    def __init__(self, root: Path, workload_seed: int, order_seed: int,
                 tag: str, n_elements: int, count: int,
                 max_iters: int | None = None):
        self.tag = tag
        config, geometry = bdris.load_config(root / "configs" / "desk.yaml")
        base = replace(config, n_elements=n_elements, n_groups=1)
        _, group_size = bdris.parse_architecture_tag(tag, n_elements)
        self.config = replace(base, n_groups=n_elements // group_size)
        self.settings = bdris.CgaSettings.from_config(
            self.config, max_iters=max_iters or self.config.max_iters)
        self.beam = bdris.init_beamformer_uniform(base)
        first = workload_seed * SEED_STRIDE
        self.cases = [(trial, first + trial,
                       bdris.generate_channels(base, geometry, first + trial))
                      for trial in range(count)]
        random.Random(order_seed).shuffle(self.cases)
        self.planned = count

    def run_pass(self, out_dir: Path) -> PassResult:
        solves = []
        rows = []
        seconds = 0.0
        for trial, seed, channels in self.cases:
            began = time.perf_counter()
            try:
                theta, trace = bdris.cga_optimize(channels, self.beam,
                                                  self.config, seed,
                                                  self.settings)
            except Exception as exc:  # counted as a failed solve
                elapsed = time.perf_counter() - began
                seconds += elapsed
                solves.append(Solve(elapsed, 0, False, math.nan, math.nan,
                                    _failure(exc)))
                continue
            elapsed = time.perf_counter() - began
            seconds += elapsed
            solves.append(_solve(elapsed, theta, trace))
            rows.append(bdris.ResultRow(
                architecture=self.tag, sweep_value=self.config.n_elements,
                trial=trial, seed=seed,
                sum_rate_bits=trace.final.projected_rate,
                iters=trace.final.iters_used, wall_time_s=elapsed,
                converged=trace.final.converged,
                channel_digest=bdris.bench.channel_digest(channels)))
        began = time.perf_counter()
        bdris.emit_outputs(bdris.ResultTable(rows=rows), [], out_dir)
        seconds += time.perf_counter() - began
        sha, rows_sha, problems = check_outputs(out_dir, rows, self.planned)
        return PassResult(seconds, self.planned, solves, sha, rows_sha,
                          problems)


def warm_up(root: Path) -> None:
    """A few iterations of a small solve, so lazy set-up is not timed."""
    config, geometry = bdris.load_config(root / "configs" / "desk.yaml")
    channels = bdris.generate_channels(config, geometry, 0)
    settings = bdris.CgaSettings.from_config(config, max_iters=5)
    bdris.cga_optimize(channels, bdris.init_beamformer_uniform(config), config,
                       0, settings)


def make(name: str, root: Path, workload_seed: int, order_seed: int):
    """Build a workload's inputs; this is the set-up that ``setup_s`` times."""
    if name == "cdf-r8":
        return CdfR8(root, workload_seed, order_seed)
    if name == "fc-r32":
        return DirectSolves(root, workload_seed, order_seed, "fc", 32,
                            count=FC_R32_SOLVES, max_iters=FC_R32_ITERS)
    if name == "sc-r64":
        return DirectSolves(root, workload_seed, order_seed, "sc", 64,
                            count=SC_R64_SOLVES)
    raise ValueError(f"unknown workload {name!r}")
