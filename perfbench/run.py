"""Benchmark for bdris: solve throughput and design quality.

Run from the repository root:

    python3 perfbench/run.py --workload cdf-r8 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --workload sc-r64 --workload-seed 1   # held out

The package is imported from ``src/`` of the checkout, with BLAS pinned to
one thread. ``--workload-seed`` (default 0) fixes the solved instances and
``--seed`` the order in which they are solved (see ``workloads.py`` for
why); the same pair gives the same inputs, results and ``results.csv``
bytes.

``--trace 0`` measures the end-to-end metrics: set-up time is the median of
several fresh processes that import ``bdris``, load the spec or config and
build the inputs; then passes of the workload (a few seconds each, every
one over the same instances) run until the next one would end after
``--seconds``. ``--trace 1`` alternates untraced passes and passes with
span hooks installed (see ``tracer.py``) for ``--seconds`` and reports the
per-layer metrics and the tracing overhead.

End-to-end metrics (untraced, all in the report): ``setup_s``;
``solves_per_s`` (completed ``cga_optimize`` runs per second of pass, the
median over the run's passes of each pass's rate scaled to the nominal host
speed by a fixed numpy kernel timed before and after it, see
``hostref.py``; the unscaled median rate and the per-pass factors are in
the report as ``solves_per_s.wall`` and ``host_factor``); ``solve_s.p50``
and ``solve_s.tail`` (wall clock, highest percentile with ten solves above
it, omitted below eleven solves);
``iters_per_solve``; ``sum_rate_bits.mean`` (final projected rate);
``converged_frac`` (stopped on the tolerance, not the iteration cap);
``failed_frac``; ``peak_rss_mb``. ``BENCHMARK.json`` bounds those that are
never zero and hold steady from run to run on a shared host;
``converged_frac`` is 0 on fc-r32 and failures are the result's ``failed``
count. The same pass takes from 1x to 2x its time on a shared host: the
host scaling takes out most of that, and the median over many short
passes the rest.

Per-layer metrics (traced) and the end-to-end metric each should move: the
retraction and batched objective costs, line-search candidates per
iteration and their useful ratio move ``solves_per_s`` on every workload
(retraction most on fc-r32); signal/stats/objective/gradient/projection
per-call costs and the optimizer's self share move it on cdf-r8;
``optimizer.ms_per_iter`` and
``optimizer.stalls_per_solve`` move ``solve_s.p50``; the final projection,
Takagi fallbacks and projection loss move ``sum_rate_bits.mean`` on cdf-r8
and fc-r32 (loss is 0 on sc-r64); bench, channel and start-point costs
guard ``setup_s`` and cdf-r8.

Every solve is checked (finite rate, ``validate_feasibility``), and the
written ``results.csv`` and CDF files are checked against the solves; a
failed solve counts in ``failed`` and in every denominator. The
second-to-last line of output is a report with every metric, the
environment (Python, numpy, BLAS and its thread count, CPUs, git commit)
and the ``results.csv`` hashes; the last line is the result object whose
metrics are the ones ``BENCHMARK.json`` lists for the mode. Outputs, spans,
per-solve records and reports go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_REPEATS = 7
OUT = ROOT / ".bench_out"


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


# -- environment ---------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be queried."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_requested": BLAS_THREADS,
                 "threads_reported": _blas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# -- measurement -------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    value = float(value)
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def probe_setup(name: str, workload_seed: int, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(ROOT),
         str(workload_seed), str(seed)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def solve_metrics(passes, host_factors: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, plus the report-only extras.

    ``solves_per_s`` is the median over passes of each pass's rate times its
    host factor (see ``hostref.py``): the rate the run would have had on a
    host running at the nominal speed.
    """
    solves = [s for p in passes for s in p.solves]
    done = [s for s in solves if s.error is None]
    first = [s for s in passes[0].solves if s.error is None]
    attempted = sum(p.planned for p in passes)
    rates = [_ratio(sum(s.error is None for s in p.solves), p.seconds)
             for p in passes]
    times = sorted(s.seconds for s in done)
    metrics = {
        "solves_per_s": _metric(statistics.median(
            rate * factor for rate, factor in zip(rates, host_factors)), "1/s"),
        "solve_s.p50": _metric(statistics.median(times) if times else math.nan,
                               "s"),
        "iters_per_solve": _metric(_ratio(sum(s.iters for s in first),
                                          len(first)), "count"),
        "sum_rate_bits.mean": _metric(_ratio(math.fsum(s.rate for s in first),
                                             len(first)), "bit/s/Hz"),
        "converged_frac": _metric(_ratio(sum(s.converged for s in first),
                                         passes[0].planned), "fraction"),
        "failed_frac": _metric(_ratio(attempted - len(done), attempted),
                               "fraction"),
    }
    # Highest percentile with at least ten solves above it.
    if len(times) > 10:
        tail = {"value": times[-11], "unit": "s",
                "percentile": 100.0 * (len(times) - 10) / len(times),
                "solves": len(times)}
    else:
        tail = {"value": None, "unit": "s", "solves": len(times),
                "omitted": "fewer than 11 solves in the run"}
    extras = {"solve_s.tail": tail,
              "solves_per_s.wall": _metric(statistics.median(rates), "1/s"),
              "host_factor": host_factors}
    return metrics, extras


def per_layer(tracer, plain, traced) -> dict:
    """Per-layer metrics of the traced passes, with the untraced ones as base.

    The tracer holds the spans of every traced pass. Totals that do not
    depend on time (rank-deficient candidates, Takagi fallbacks, cells) are
    given per pass, so they read the same whatever the pass count.
    """
    from tracer import SOLVE_SPAN

    summary = tracer.summary()
    counts = tracer.counts
    done = [s for p in traced for s in p.solves if s.error is None]
    iters = sum(s.iters for s in done)
    n_traced = len(traced)
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    solve_seconds = summary[SOLVE_SPAN]["solve_seconds"]
    metrics = {}

    def put(name, unit, spans, compute, zero_calls_ok=False):
        missing = [span for span in spans if span in tracer.absent
                   or not (zero_calls_ok or summary[span]["calls"])]
        if missing:
            metrics[name] = {"value": 0.0, "unit": unit, "absent": missing}
        else:
            metrics[name] = _metric(compute(), unit)

    def per_call(span, scale=1e6):
        return lambda: summary[span]["seconds"] / summary[span]["calls"] * scale

    def share(span):
        return lambda: summary[span]["solve_self_seconds"] / solve_seconds

    def per_iter(span):
        return lambda: summary[span]["solve_calls"] / iters

    for span, cost in (("manifold.retract_batch", "retract"),
                       ("optimizer.objective_batch", "objective_batch")):
        put(f"{span}.us_per_call", "us", [span], per_call(span))
        put(f"{span}.share", "fraction", [span], share(span))
        put(f"{span}.mflop_computed", "MFLOP", [span],
            lambda c=cost, s=span: counts[f"{c}.flops"] / summary[s]["solve_calls"] / 1e6)
        put(f"{span}.mbytes_computed", "MB", [span],
            lambda c=cost, s=span: counts[f"{c}.bytes"] / summary[s]["solve_calls"] / 1e6)
    retract, ls = "manifold.retract_batch", "optimizer.ls"
    put(f"{retract}.calls_per_iter", "count", [retract], per_iter(retract))
    put(f"{retract}.rank_deficient", "count", [retract],
        lambda: counts["retract.rank_deficient"] / n_traced)
    put("optimizer.ls.candidates_per_iter", "count", [retract, ls],
        lambda: counts["retract.candidates"] / iters)
    put("optimizer.ls.useful_ratio", "fraction", [retract, ls],
        lambda: counts["ls.accepted"] / counts["retract.candidates"])
    put("optimizer.stalls_per_solve", "count", [ls],
        lambda: counts["ls.stalled"] / len(done))
    for span in ("optimizer.signal", "optimizer.stats", "optimizer.objective",
                 "gradient.gradient_stack", "manifold.project_stack",
                 "optimizer.project_symmetric_unitary",
                 "channel.generate_channels", "gradient.channel_stacks",
                 "manifold.random_feasible"):
        put(f"{span}.us_per_call", "us", [span], per_call(span))
    put("manifold.project_stack.calls_per_iter", "count",
        ["manifold.project_stack"], per_iter("manifold.project_stack"))
    put("manifold.unitarity_residuals.share", "fraction",
        ["manifold.unitarity_residuals"], share("manifold.unitarity_residuals"))
    put("optimizer.cga_optimize.self_share", "fraction", [SOLVE_SPAN],
        share(SOLVE_SPAN))
    put("bench.emit_outputs.ms", "ms", ["bench.emit_outputs"],
        per_call("bench.emit_outputs", 1e3))
    put("bench.cells", "count", ["bench.cell"],
        lambda: summary["bench.cell"]["calls"] / n_traced, zero_calls_ok=True)
    put("optimizer.takagi_fallbacks", "count", ["optimizer.takagi"],
        lambda: summary["optimizer.takagi"]["calls"] / n_traced,
        zero_calls_ok=True)

    plain_done = [s for s in plain[0].solves if s.error is None]
    metrics["optimizer.ms_per_iter"] = _metric(
        _ratio(1000.0 * plain_s, sum(s.iters for s in plain_done)), "ms")
    metrics["optimizer.iters_per_solve"] = _metric(
        _ratio(iters, len(done)), "count")
    metrics["optimizer.converged_frac"] = _metric(
        _ratio(sum(s.converged for s in done),
               sum(p.planned for p in traced)), "fraction")
    metrics["optimizer.projection_loss_bits.mean"] = _metric(
        _ratio(math.fsum(s.projection_loss for s in done), len(done)),
        "bit/s/Hz")
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = _metric(
        _ratio(traced_s - plain_s, plain_s), "fraction")
    return metrics


def _same_results(a, b) -> bool:
    key = [(s.iters, s.rate, s.error) for s in a.solves]
    return (a.results_sha256 == b.results_sha256
            and key == [(s.iters, s.rate, s.error) for s in b.solves])


def measure(name: str, workload_seed: int, seed: int, seconds: float,
            trace: bool) -> dict:
    import workloads
    from hostref import HostReference

    out = OUT / f"{name}-w{workload_seed}-s{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workloads.warm_up(ROOT)
    report = {"workload": name, "workload_seed": workload_seed, "seed": seed,
              "trace": int(trace)}

    if not trace:
        setup = [probe_setup(name, workload_seed, seed)
                 for _ in range(SETUP_REPEATS)]
        workload = workloads.make(name, ROOT, workload_seed, seed)
        reference = HostReference()
        passes = []
        started = time.perf_counter()
        reference.sample()
        while True:
            passes.append(workload.run_pass(out / f"pass{len(passes)}"))
            reference.sample()
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        metrics, extras = solve_metrics(passes, reference.factors())
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        report.update(setup_samples_s=setup, passes=len(passes),
                      timed_s=sum(p.seconds for p in passes),
                      pass_s=[p.seconds for p in passes],
                      reference_s=reference.samples, **extras)
    else:
        from tracer import Tracer

        # Untraced and traced passes alternate, so both see the same host
        # speed. The traced workload is built with the hooks installed, so
        # that its channel generation is traced too.
        tracer = Tracer()
        plain, traced = [], []
        started = time.perf_counter()
        while True:
            plain.append(workloads.make(name, ROOT, workload_seed, seed)
                         .run_pass(out / f"untraced{len(plain)}"))
            tracer.install()
            try:
                traced.append(workloads.make(name, ROOT, workload_seed, seed)
                              .run_pass(out / f"traced{len(traced)}"))
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - started
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
        tracer.write(out / "spans.npz")
        metrics = per_layer(tracer, plain, traced)
        report.update(spans=str((out / "spans.npz").relative_to(ROOT)),
                      spans_recorded=len(tracer.start_ns),
                      absent_hooks=tracer.absent,
                      timed_s={"untraced": [p.seconds for p in plain],
                               "traced": [p.seconds for p in traced]})
        passes = plain + traced

    problems = [f"pass {i}: {p}" for i, run in enumerate(passes)
                for p in run.problems]
    problems += [f"pass {i}: solve {j}: {s.error}" for i, run in enumerate(passes)
                 for j, s in enumerate(run.solves) if s.error is not None]
    repeat_match = all(_same_results(passes[0], p) for p in passes[1:])
    if not repeat_match:
        problems.append("passes over the same inputs gave different results")
    attempted = sum(p.planned for p in passes)
    failed = attempted - sum(s.error is None for p in passes for s in p.solves)
    report.update(metrics=metrics, problems=problems,
                  results_sha256=passes[0].results_sha256,
                  results_rows_sha256=passes[0].rows_sha256,
                  results_repeat_match=repeat_match if len(passes) > 1 else None,
                  environment=environment())
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(dict(report, solves=[[asdict(s) for s in p.solves]
                                       for p in passes]), fh, indent=2)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def listed_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="order in which the instances are solved")
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="which instances are solved")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.workload_seed < 0:
        parser.error("seeds must be nonnegative")

    needed = [ROOT / "src" / "bdris" / "__init__.py",
              ROOT / "configs" / "bench_cdf.yaml", ROOT / "configs" / "desk.yaml",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark needs the bdris source tree; missing: {missing}",
              file=sys.stderr)
        return 2

    _pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import bdris
    if not Path(bdris.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported bdris from {bdris.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    wanted = listed_metrics(bool(args.trace))

    results = {}
    for name in names:
        result = measure(name, args.workload_seed, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result.pop("report")), flush=True)
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            print(f"{name}: metrics {missing} were not measured", file=sys.stderr)
            return 2
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
        results[name] = result

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
