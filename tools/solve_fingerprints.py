"""Fingerprint every benchmark solve: a bit-identity claim in one command.

Run from the repository root:

    python3 tools/solve_fingerprints.py > before.json
    python3 tools/solve_fingerprints.py --compare before.json

Each workload of ``perfbench/workloads.py`` is built for workload seeds 0
and 1 at order seed 0 and runs one pass, as the benchmark runs it. Every
``cga_optimize`` call of the pass gets three sha256 hashes: of the reprs of
its ``IterationRecord``s, of the repr of its ``TraceFinal``, and of the
returned matrix's bytes. The pass adds the two ``results.csv`` hashes of
the benchmark (the file's bytes and its sorted lines). The output is one
JSON object on stdout.

``--compare FILE`` diffs the output against a saved one: every entry that
differs or exists on one side only is listed on stderr, and the exit code
is 1 if any does. BLAS is pinned to one thread, as in ``perfbench/run.py``.
``perfbench/`` is only imported, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEEDS = (0, 1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(theta, trace) -> dict[str, str]:
    """Hashes of one solve's records, final fields and returned matrix."""
    return {"records": _sha("\n".join(repr(r) for r in trace.records)),
            "final": _sha(repr(trace.final)),
            "matrix": hashlib.sha256(theta.theta.tobytes()).hexdigest()}


def fingerprint_pass(name: str, workload_seed: int, out_dir: Path) -> dict:
    """Run one pass of a benchmark workload and fingerprint its solves.

    The solves are keyed by their call order, element count, group size
    and seed; the order is fixed by the order seed 0.
    """
    import bdris
    import workloads

    inner = bdris.cga_optimize
    signature = inspect.signature(inner)
    solves = {}

    def recording(*args, **kwargs):
        theta, trace = inner(*args, **kwargs)
        call = signature.bind(*args, **kwargs).arguments
        config = call["config"]
        key = (f"{len(solves):02d} R{config.n_elements} "
               f"R_G{config.group_size} seed{call['seed']}")
        solves[key] = fingerprint(theta, trace)
        return theta, trace

    # Direct solves call the package attribute, run_experiment the global
    # of bdris.bench.
    bdris.cga_optimize = bdris.bench.cga_optimize = recording
    try:
        result = workloads.make(name, ROOT, workload_seed, 0).run_pass(out_dir)
    finally:
        bdris.cga_optimize = bdris.bench.cga_optimize = inner
    if result.problems:
        raise RuntimeError(f"{name} w{workload_seed}: {result.problems}")
    return {"solves": solves, "results_sha256": result.results_sha256,
            "results_rows_sha256": result.rows_sha256}


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, path + " / "))
        else:
            flat[path] = value
    return flat


def differences(current: dict, saved: dict) -> list[str]:
    """One line per entry that differs between two outputs or exists in
    only one of them."""
    now, then = _flatten(current), _flatten(saved)
    lines = []
    for path in sorted(now.keys() | then.keys()):
        if path not in then:
            lines.append(f"only in this run: {path}")
        elif path not in now:
            lines.append(f"only in the saved run: {path}")
        elif now[path] != then[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path,
                        help="saved output to diff this run against")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bdris
    import workloads
    if not Path(bdris.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported bdris from {bdris.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    output = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                output[f"{name} w{seed}"] = fingerprint_pass(
                    name, seed, Path(scratch) / f"{name}-w{seed}")
    print(json.dumps(output, indent=1))
    if args.compare is None:
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        lines = differences(output, json.load(fh))
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(lines)} differences in {len(_flatten(output))} entries "
          f"against {args.compare}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
