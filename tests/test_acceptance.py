"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s or check the captured output). Heavy shared computations live in
module-scoped fixtures. All instances use unit-gain channels with noise
power 1 and a uniform beamformer, the package's numerically comfortable
desk-scale regime; absolute rates at this scale are not comparable to any
external measurement campaign.
"""

import time

import numpy as np
import pytest

from bdris import (ExperimentSpec, Geometry, LinkGeometry, cga_optimize,
                   emit_outputs, generate_channels_from_gains,
                   init_beamformer_uniform, run_experiment,
                   validate_feasibility)

from helpers import (central_difference_gradient, config_for_tag,
                     make_instance, reference_sum_rate, workspace_at)

pytestmark = pytest.mark.acceptance

LOSSLESS = Geometry(bs_ris=LinkGeometry(1.0, 0.0, 0.0),
                    ris_user=LinkGeometry(1.0, 0.0, 0.0))
ALL_TAGS = ("sc", "gc2", "gc4", "fc")


def report(number: int, name: str, passed: bool, detail: str = "") -> bool:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"CRITERION {number} {name}: {verdict}{suffix}")
    return passed


def standard_config(tag: str, n_elements: int = 8, **overrides):
    return config_for_tag(tag, n_users=4, n_tx=4, n_elements=n_elements,
                          max_iters=2000, **overrides)


@pytest.fixture(scope="module")
def trace_bundle():
    """20 default-setting runs with full traces: 4 architectures x 5 seeds."""
    bundle = []
    for tag in ALL_TAGS:
        config = standard_config(tag)
        for seed in range(2000, 2005):
            channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
            beam = init_beamformer_uniform(config)
            theta, trace = cga_optimize(channels, beam, config, seed=seed)
            bundle.append((tag, seed, theta, trace))
    return bundle


@pytest.fixture(scope="module")
def ordering_table():
    """Shared-channel experiment: 4 architectures x 100 trials at K=N=4, R=8."""
    config = standard_config("sc")
    spec = ExperimentSpec(config=config, geometry=LOSSLESS,
                          architectures=ALL_TAGS, sweep_variable="p_max",
                          sweep_values=(4.0,), n_trials=100, seed_base=1000)
    started = time.perf_counter()
    table = run_experiment(spec)
    return table, time.perf_counter() - started


def test_c1_gradient_correctness():
    # (K, R, group size) with N = K, plus the single-user, single-antenna
    # instance; the gradient and objective are the optimizer's own kernels.
    cases = [(2, 2, 1), (2, 2, 2), (2, 4, 1), (2, 4, 2), (2, 4, 4),
             (2, 8, 2), (2, 8, 8), (4, 4, 4), (4, 8, 1), (4, 8, 2),
             (4, 8, 4), (4, 8, 8), (2, 8, 1), (4, 4, 1), (4, 4, 2),
             (2, 2, 1), (2, 4, 4), (4, 8, 8), (2, 8, 4), (4, 8, 4),
             (1, 2, 2)]
    started = time.perf_counter()
    worst = 0.0
    for index, (k, r, group_size) in enumerate(cases):
        config, channels, theta, beam = make_instance(
            seed=7000 + index, n_users=k, n_tx=k, n_elements=r,
            n_groups=r // group_size)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        cf = ws.gradient(c, aux)
        fd = central_difference_gradient(
            lambda s: ws.objective(ws.signal(s), aux), stack, step=1e-6)
        num = max(np.linalg.norm(a - b) for a, b in zip(cf, fd))
        den = max(np.linalg.norm(a) for a in cf)
        worst = max(worst, num / den)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(1, "gradient matches finite differences", ok,
                  f"{len(cases)} instances, max rel err {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_c2_constraint_preservation(trace_bundle):
    worst_iterate = max(rec.unitarity_residual
                        for _, _, _, trace in trace_bundle
                        for rec in trace.records)
    worst_unit = max(trace.final.unitarity_residual
                     for _, _, _, trace in trace_bundle)
    worst_sym = max(trace.final.symmetry_residual
                    for _, _, _, trace in trace_bundle)
    final_ok = all(validate_feasibility(theta, 1e-8, 1e-6).passed
                   for _, _, theta, _ in trace_bundle)
    ok = worst_iterate <= 1e-8 and worst_unit <= 1e-8 \
        and worst_sym <= 1e-6 and final_ok
    assert report(2, "constraints preserved along traces", ok,
                  f"iterate unitarity <= {worst_iterate:.2e}, final unitarity "
                  f"<= {worst_unit:.2e}, final symmetry <= {worst_sym:.2e}")


def test_c3_surrogate_tightness():
    # The optimizer's objective at its own closed-form auxiliaries against
    # the dense reference sum-rate.
    worst = 0.0
    for seed in range(100):
        dims = [(2, 2, 4, 2), (3, 3, 8, 4), (4, 4, 8, 1), (2, 2, 6, 6)][seed % 4]
        k, n, r, g = dims
        config, channels, theta, beam = make_instance(
            seed=3000 + seed, n_users=k, n_tx=n, n_elements=r, n_groups=g)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        gap = abs(ws.objective(c, aux)
                  - reference_sum_rate(channels, theta.theta, beam.v,
                                       config.noise_power))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    assert report(3, "surrogate tight at optimal auxiliaries", ok,
                  f"100 instances, max gap {worst:.2e}")


def test_c4_monotone_ascent(trace_bundle):
    # The optimizer iterates the Takagi factor U of each block
    # (Theta_g = U_g U_g^T), so every iterate is exactly symmetric and no
    # penalty trades rate for symmetry. An accepted step raises the
    # surrogate at frozen auxiliaries, the surrogate never exceeds the
    # sum-rate and equals it at the refreshed auxiliaries, so the raw
    # sum-rate is monotone for every architecture.
    worst_dip = 0.0
    worst_run = None
    final_ok = True
    for tag, seed, _, trace in trace_bundle:
        rates = np.array([rec.true_rate for rec in trace.records])
        if len(rates) > 1:
            dip = float(np.diff(rates).min())
            if dip < worst_dip:
                worst_dip, worst_run = dip, (tag, seed)
        if trace.final.projected_rate < rates[0]:
            final_ok = False
    per_step_ok = worst_dip >= -1e-9
    ok = per_step_ok and final_ok
    report(4, "true sum-rate monotone ascent", ok,
           f"20 runs, worst step {worst_dip:+.2e} at {worst_run}, "
           f"final>=initial {final_ok}")
    assert final_ok, "final rate fell below the initial rate"
    assert per_step_ok, (
        f"raw sum-rate dipped {worst_dip:+.3e} per step at {worst_run}; "
        "accepted steps raise the frozen-auxiliary surrogate, which is a "
        "lower bound of the sum-rate tight at the refreshed auxiliaries, so "
        "a dip means a step passed the Armijo test without a real increase")


def test_c5_architecture_ordering(ordering_table):
    table, elapsed = ordering_table
    means = {tag: float(np.mean([row.sum_rate_bits for row in table.rows
                                 if row.architecture == tag]))
             for tag in ALL_TAGS}
    shared = all(len({row.channel_digest for row in table.rows
                      if row.trial == trial}) == 1 for trial in range(100))
    ordered = means["fc"] > means["gc4"] > means["gc2"] > means["sc"]
    ok = ordered and shared and elapsed < 600.0
    assert report(5, "mean sum-rate ordering fc>gc4>gc2>sc", ok,
                  f"means sc {means['sc']:.2f} gc2 {means['gc2']:.2f} "
                  f"gc4 {means['gc4']:.2f} fc {means['fc']:.2f}, "
                  f"{elapsed:.0f}s, shared channels {shared}")


def test_c6_convergence_effort_ordering(ordering_table):
    table, _ = ordering_table
    medians = {tag: float(np.median([row.iters for row in table.rows
                                     if row.architecture == tag
                                     and row.trial < 20]))
               for tag in ALL_TAGS}
    ordered = (medians["sc"] <= medians["gc2"] <= medians["gc4"]
               <= medians["fc"])
    ok = ordered and medians["sc"] <= 200.0
    assert report(6, "median iterations ordered sc<=gc2<=gc4<=fc", ok,
                  f"medians sc {medians['sc']:.0f} gc2 {medians['gc2']:.0f} "
                  f"gc4 {medians['gc4']:.0f} fc {medians['fc']:.0f} "
                  f"over 20 seeds")


def grid_best_rate(channels, beam, noise_power, points=50):
    """Exhaustive sweep of 2x2 symmetric unitary matrices.

    Parameterization: R(psi) diag(exp(i f1), exp(i f2)) R(psi)^T with a real
    rotation R; every 2x2 symmetric unitary matrix has this form.
    """
    psi = np.linspace(0.0, np.pi, points, endpoint=False)
    phi = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    big_p, big_f1, big_f2 = (a.ravel() for a in
                             np.meshgrid(psi, phi, phi, indexing="ij"))
    c, s = np.cos(big_p), np.sin(big_p)
    d1, d2 = np.exp(1j * big_f1), np.exp(1j * big_f2)
    thetas = np.empty((big_p.size, 2, 2), dtype=complex)
    thetas[:, 0, 0] = c * c * d1 + s * s * d2
    thetas[:, 0, 1] = c * s * (d1 - d2)
    thetas[:, 1, 0] = thetas[:, 0, 1]
    thetas[:, 1, 1] = s * s * d1 + c * c * d2
    mixed = channels.h_tx @ beam.v
    amplitudes = np.einsum("kr,mrs,sj->mkj", channels.h_rx, thetas, mixed)
    powers = np.abs(amplitudes) ** 2
    signal = np.einsum("mkk->mk", powers)
    interference = powers.sum(axis=2) - signal
    rates = np.log2(1.0 + signal / (interference + noise_power)).sum(axis=1)
    return float(rates.max())


def test_c7_small_instance_optimality_gap():
    config = config_for_tag("fc", n_users=2, n_tx=2, n_elements=2,
                            max_iters=2000)
    started = time.perf_counter()
    hits = 0
    worst_gap = -np.inf
    for trial in range(50):
        channels = generate_channels_from_gains(config, 1.0, 1.0,
                                                seed=4000 + trial)
        beam = init_beamformer_uniform(config)
        _, trace = cga_optimize(channels, beam, config, seed=4000 + trial)
        best = grid_best_rate(channels, beam, config.noise_power)
        gap = best - trace.final.projected_rate
        worst_gap = max(worst_gap, gap)
        hits += gap <= 0.05
    elapsed = time.perf_counter() - started
    ok = hits >= 40 and elapsed < 300.0
    assert report(7, "within 0.05 bits of 50^3 grid optimum", ok,
                  f"{hits}/50 within tolerance, worst gap {worst_gap:.3f}, "
                  f"{elapsed:.0f}s")


def test_c8_determinism(tmp_path):
    config = config_for_tag("sc", n_users=2, n_tx=2, n_elements=4,
                            max_iters=30)
    spec = ExperimentSpec(config=config, geometry=LOSSLESS,
                          architectures=("sc", "gc2"),
                          sweep_variable="p_max", sweep_values=(2.0,),
                          n_trials=2, seed_base=77)
    outputs = {}
    for label, workers in (("a", 1), ("b", 1), ("four", 4)):
        out_dir = tmp_path / label
        emit_outputs(run_experiment(spec, workers=workers), [], out_dir,
                     spec=spec)
        outputs[label] = (out_dir / "results.csv").read_bytes()
    reruns_equal = outputs["a"] == outputs["b"]
    workers_equal = outputs["a"] == outputs["four"]
    ok = reruns_equal and workers_equal
    assert report(8, "results.csv byte-identical across runs and workers", ok,
                  f"rerun {reruns_equal}, workers 1 vs 4 {workers_equal}")


def test_c9_scaling_trend():
    config = config_for_tag("sc", n_elements=16, max_iters=2000)
    spec = ExperimentSpec(config=config, geometry=LOSSLESS,
                          architectures=ALL_TAGS,
                          sweep_variable="n_elements",
                          sweep_values=(4, 8, 16), n_trials=50,
                          seed_base=5000)
    started = time.perf_counter()
    table = run_experiment(spec)
    elapsed = time.perf_counter() - started
    ok = True
    details = []
    for tag in ALL_TAGS:
        means = [float(np.mean([row.sum_rate_bits for row in table.rows
                                if row.architecture == tag
                                and row.sweep_value == r]))
                 for r in (4, 8, 16)]
        ok = ok and means[0] <= means[1] <= means[2]
        details.append(f"{tag} " + "->".join(f"{m:.1f}" for m in means))
    assert report(9, "mean sum-rate non-decreasing in element count", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")
