"""Command-line interface.

Subcommands:
  optimize     one optimization run, prints the final rate and residuals
  bench        full Monte Carlo experiment from a spec file
  convergence  per-iteration traces for the standard architectures
  validate     feasibility report for a scattering matrix stored in a file

The matrix file format is plain text: a header line ``R G`` followed by R
rows of R complex entries written as ``re+imj`` pairs, whitespace separated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (ExperimentSpec, ResultTable, _run_cell, emit_outputs,
                    load_experiment_spec, run_experiment)
from .channel import generate_channels
from .config import load_config
from .manifold import random_feasible
from .optimizer import (TOL_SYMMETRY, TOL_UNITARY, cga_optimize,
                        validate_feasibility, write_trace_csv)
from .system import (ScatteringMatrix, block_mask, init_beamformer_mmse,
                     init_beamformer_uniform, parse_architecture_tag)

DEFAULT_ARCHITECTURES = ["sc", "gc2", "gc4", "fc"]


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def write_matrix_file(path: str | Path, theta: ScatteringMatrix) -> None:
    """Store a scattering matrix in the text format used by ``validate``."""
    r = theta.n_elements
    lines = [f"{r} {theta.n_groups}"]
    for row in theta.theta:
        lines.append(" ".join(_format_complex(z) for z in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_file(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a matrix file; returns (dense R x R array, group count G)."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ValueError(f"matrix file {path} is empty")
    header = text[0].split()
    if len(header) != 2:
        raise ValueError("matrix file header must be 'R G'")
    r, g = int(header[0]), int(header[1])
    if r < 1 or g < 1:
        raise ValueError(f"header R={r} G={g}: both must be positive")
    if r % g != 0:
        raise ValueError(f"header R={r} not divisible by G={g}")
    if len(text) != r + 1:
        raise ValueError(f"expected {r} matrix rows, found {len(text) - 1}")
    rows = []
    for line in text[1:]:
        entries = [complex(token) for token in line.split()]
        if len(entries) != r:
            raise ValueError(f"expected {r} entries per row, found {len(entries)}")
        rows.append(entries)
    return np.array(rows, dtype=complex), g


def _seed_range(spec: str) -> list[int]:
    """Parse 'a..b' (inclusive) or a single integer."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def cmd_optimize(args) -> int:
    config, geometry = load_config(args.config)
    if args.arch is not None:
        _, group_size = parse_architecture_tag(args.arch, config.n_elements)
        config = replace(config, n_groups=config.n_elements // group_size)
    channels = generate_channels(config, geometry, args.seed)
    if args.beam == "mmse":
        theta0 = random_feasible(config, args.seed)
        # Keep Theta @ H_tx first: the product order sets the rounding of E
        # and with it the whole MMSE run.
        e = channels.h_rx @ (theta0.theta @ channels.h_tx)
        beam = init_beamformer_mmse(e, config)
    else:
        beam = init_beamformer_uniform(config)
    theta_opt, trace = cga_optimize(channels, beam, config, args.seed)
    final = trace.final
    print(f"architecture: {theta_opt.architecture.value} "
          f"(R={config.n_elements}, group size {config.group_size})")
    print(f"seed: {args.seed}")
    print(f"iterations: {final.iters_used}")
    print(f"converged: {str(final.converged).lower()}")
    print(f"stop_reason: {final.stop_reason}")
    print(f"grad_norm: {final.grad_norm:.3e}")
    print(f"grad_norm_ratio: {final.grad_norm_ratio:.3e}")
    print(f"sum_rate_bits: {final.projected_rate!r}")
    print(f"pre_projection_rate_bits: {final.pre_projection_rate!r}")
    print(f"projection_rate_delta: {final.projection_rate_delta:.3e}")
    print(f"unitarity_residual: {final.unitarity_residual:.3e}")
    print(f"symmetry_residual: {final.symmetry_residual:.3e}")
    if args.trace is not None:
        write_trace_csv(trace, args.trace)
        print(f"trace written to {args.trace}")
    if args.save_matrix is not None:
        write_matrix_file(args.save_matrix, theta_opt)
        print(f"matrix written to {args.save_matrix}")
    return 0


def cmd_bench(args) -> int:
    spec = load_experiment_spec(args.spec)
    out = args.out or spec.output_dir
    if out is None:
        print("error: no output directory (use --out or set output_dir)",
              file=sys.stderr)
        return 2
    table = run_experiment(spec, workers=args.workers)
    written = emit_outputs(table, [], out, spec=spec)
    for skip in table.skipped:
        print(f"skipped {skip['architecture']} at {skip['sweep_value']} "
              f"(trial {skip['trial']}): {skip['reason']}", file=sys.stderr)
    for tag in spec.architectures:
        for value in spec.sweep_values:
            rates = [row.sum_rate_bits for row in table.rows
                     if row.architecture == tag and row.sweep_value == value]
            if rates:
                print(f"{tag:4s} {spec.sweep_variable}={value}: "
                      f"mean {np.mean(rates):7.3f}  "
                      f"median {np.median(rates):7.3f}  n={len(rates)}")
    print(f"{len(table.rows)} rows written to {out} "
          f"({len(written)} files)")
    return 0


def cmd_convergence(args) -> int:
    config, geometry = load_config(args.config)
    seeds = _seed_range(args.seeds)
    spec = ExperimentSpec(
        config=config, geometry=geometry,
        architectures=tuple(args.arch or DEFAULT_ARCHITECTURES),
        sweep_variable="n_elements", sweep_values=(config.n_elements,),
        n_trials=len(seeds), seed_base=seeds[0])
    table, traces = ResultTable(), []
    for trial in range(spec.n_trials):
        rows, skipped, cell_traces = _run_cell((spec, config.n_elements, trial))
        table.rows.extend(rows)
        table.skipped.extend(skipped)
        traces.extend(cell_traces)
    emit_outputs(table, traces, args.out, spec=spec)
    for skip in table.skipped:
        print(f"skipped {skip['architecture']}: {skip['reason']}",
              file=sys.stderr)
    print(f"{len(traces)} traces written to {args.out}")
    return 0


def cmd_validate(args) -> int:
    dense, n_groups = read_matrix_file(args.matrix)
    r = dense.shape[0]
    group_size = r // n_groups
    mask = block_mask(r, group_size)
    off_block = np.abs(dense[~mask])
    off_block_max = float(off_block.max()) if off_block.size else 0.0
    blocked = np.where(mask, dense, 0.0)
    theta = ScatteringMatrix(theta=blocked, group_size=group_size)
    report = validate_feasibility(theta, tol_unitary=args.tol_unitary,
                                  tol_symmetry=args.tol_symmetry)
    passed = report.passed and off_block_max == 0.0
    print(f"matrix: R={r}, G={n_groups}, group size {group_size}, "
          f"architecture {theta.architecture.value}")
    print(f"off_block_max: {off_block_max:.3e}")
    for g, (unit, sym) in enumerate(zip(report.unitarity_residuals,
                                        report.symmetry_residuals), start=1):
        print(f"block {g}: unitarity_residual {unit:.3e} "
              f"symmetry_residual {sym:.3e}")
    if report.diag_modulus_error is not None:
        print(f"diag_modulus_error: {report.diag_modulus_error:.3e}")
        print(f"off_diagonal_max: {report.off_diagonal_max:.3e}")
    print(f"unitary_ok: {str(report.unitary_ok).lower()} "
          f"(tolerance {args.tol_unitary:g})")
    print(f"symmetric_ok: {str(report.symmetric_ok).lower()} "
          f"(tolerance {args.tol_symmetry:g})")
    print(f"result: {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Scattering-matrix design and benchmarks for "
                    "reconfigurable surfaces with grouped elements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one optimization")
    p_opt.add_argument("--config", required=True, help="config file (YAML)")
    p_opt.add_argument("--seed", type=int, required=True)
    p_opt.add_argument("--arch",
                       help="architecture tag (sc, gc<k>, fc); overrides the "
                            "config's group count")
    p_opt.add_argument("--trace", help="write the per-iteration trace CSV here")
    p_opt.add_argument("--beam", choices=["uniform", "mmse"], default="uniform")
    p_opt.add_argument("--save-matrix", help="store the optimized matrix here")
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = sub.add_parser("bench", help="run a Monte Carlo experiment")
    p_bench.add_argument("--spec", required=True, help="experiment spec (YAML)")
    p_bench.add_argument("--out", help="output directory")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_conv = sub.add_parser("convergence",
                            help="per-iteration traces over a seed range")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--seeds", required=True,
                        help="seed range a..b (inclusive) or one seed")
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--arch", action="append",
                        help="architecture tag, repeatable "
                             "(default sc gc2 gc4 fc)")
    p_conv.set_defaults(func=cmd_convergence)

    p_val = sub.add_parser("validate", help="check a stored matrix")
    p_val.add_argument("--matrix", required=True)
    p_val.add_argument("--tol-unitary", type=float, default=TOL_UNITARY)
    p_val.add_argument("--tol-symmetry", type=float, default=TOL_SYMMETRY)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad input files and values end in one line, not a traceback.
        print(f"bdris {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
