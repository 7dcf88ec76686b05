import csv
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings
from hypothesis import strategies as st

from bdris import (CgaSettings, ScatteringMatrix, cga_optimize,
                   generate_channels, generate_channels_from_gains,
                   init_beamformer_uniform, load_config,
                   project_symmetric_unitary, random_feasible,
                   validate_feasibility, write_trace_csv)
from bdris.manifold import Geodesic, geodesic_frame, unitarity_residuals
from bdris import optimizer
from bdris.gradient import LN2
from bdris.optimizer import _armijo_stack, _re_vdot, _Workspace

from helpers import (body_gradient_at, config_for_tag, explicit_armijo_step,
                     explicit_scores, make_config, make_instance, rate_weights,
                     reference_outer_hessian, reference_sum_rate, start_state,
                     workspace_at)


def small_run(seed, tag="gc2", n_elements=4, max_iters=400, **overrides):
    config = config_for_tag(tag, n_users=2, n_tx=2, n_elements=n_elements,
                            max_iters=max_iters, **overrides)
    from bdris import generate_channels_from_gains
    channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
    beam = init_beamformer_uniform(config)
    return cga_optimize(channels, beam, config, seed=seed), config, channels, beam


# The line search's step rule; a test that forces another patches these.
ALPHAS, SLOPES = optimizer._ALPHAS, optimizer._SLOPES


def force_step_rule(monkeypatch, coeff, first=1.0):
    """Make every line search try the steps first * 0.75^m and demand coeff
    times each step per unit of directional derivative."""
    alphas = first * ALPHAS
    monkeypatch.setattr(optimizer, "_ALPHAS", alphas)
    monkeypatch.setattr(optimizer, "_SLOPES", coeff * alphas)


class TestSettings:
    def test_defaults(self):
        # SystemConfig holds the iteration cap, and CgaSettings holds nothing
        # else: the step rule, the L-BFGS memory, the Newton shifts and the
        # gradient ratio of the stop are module constants.
        s = CgaSettings.from_config(make_config())
        assert [f.name for f in fields(CgaSettings)] == ["max_iters"]
        assert (s.max_iters, optimizer._GRADIENT_RATIO, len(ALPHAS),
                optimizer._ARMIJO_CHUNK, optimizer._MEMORY) == \
            (8000, 1e-3, 200, 4, 5)
        assert optimizer._NEWTON_SHIFTS[:3] == (1e-10, 1e-6, 1e-5)
        assert (optimizer._NEWTON_DIMENSION, optimizer._NEWTON_SHIFTS[
            optimizer._CONNECTED_SHIFTS - 1]) == (64, 1e-2)
        assert (ALPHAS[0], ALPHAS[1]) == (1.0, 0.75)
        assert np.array_equal(SLOPES, 2e-11 * ALPHAS)
        with pytest.raises(TypeError):
            CgaSettings()

    def test_from_config(self):
        # An override replaces the cap, and the removed line-search settings
        # are rejected like any unknown one; the noise power is read from
        # the config by the workspace and nowhere else.
        config, channels, theta, beam = make_instance(
            seed=0, max_iters=123, noise_power=2.0)
        s = CgaSettings.from_config(config)
        assert s == CgaSettings(max_iters=123)
        assert CgaSettings.from_config(config, max_iters=5).max_iters == 5
        assert not hasattr(s, "noise_power")
        for key in ("noise_power", "tolerance", "step_init"):
            with pytest.raises(TypeError):
                CgaSettings.from_config(config, **{key: 1.0})
        ws, *_ = workspace_at(theta, channels, beam, config)
        assert ws.noise == 2.0

    @pytest.mark.parametrize("key, value", [
        # max_iters=2.5 used to solve through from_config and ran 3
        # iterations.
        ("max_iters", 0), ("max_iters", 2.5),
        # Booleans are ints to Python; this used to solve.
        ("max_iters", True),
    ])
    def test_invalid_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            CgaSettings(**{"max_iters": 10, key: value})
        with pytest.raises(ValueError, match=key):
            CgaSettings.from_config(make_config(), **{key: value})


def symmetric_direction(rng, shape, scale=1.0):
    """A random real symmetric body-coordinate direction."""
    s = rng.standard_normal(shape)
    return scale * (s + np.swapaxes(s, -1, -2))


class TestArmijo:
    """The line search ``cga_optimize`` runs, ``_armijo_stack``, from the
    Takagi-factor state of a 2 x 2 block instance, on the true sum-rate."""

    def _setup(self, seed):
        config, channels, theta, beam = make_instance(seed=seed)
        ws, *_ = workspace_at(theta, channels, beam, config)
        state = start_state(config, seed + 1)
        c = ws.signal(ws.theta(state))
        aux, rate, _ = ws.stats(c)
        return ws, state, rate, body_gradient_at(ws, state, c, aux)

    def _rate(self, ws, state):
        return ws.rate(ws.signal(ws.theta(state)))

    def test_zero_direction_stalls(self):
        ws, stack, f0, grad = self._setup(0)
        assert _armijo_stack(ws, stack, np.zeros_like(grad), f0,
                             1.0) == (0.0, None, None, 0)
        # a direction that is not an ascent direction stalls as well, and so
        # does a zero slope
        for slope in (-_re_vdot(grad, grad), 0.0):
            alpha, candidate, _, trials = _armijo_stack(
                ws, stack, grad, f0, slope)
            assert (alpha, candidate, trials) == (0.0, None, 0)

    def test_accepted_step_satisfies_inequality(self):
        for seed in range(5):
            ws, stack, f0, grad = self._setup(seed)
            dd = _re_vdot(grad, grad)
            alpha, candidate, c_new, _ = _armijo_stack(
                ws, stack, grad, f0, dd)
            assert alpha > 0
            index = list(ALPHAS).index(alpha)
            # direct recheck of the accepted step and its signal matrix
            explicit = ws.signal(ws.theta(candidate))
            assert np.abs(c_new - explicit).max() <= \
                1e-12 * np.abs(explicit).max()
            f_new = ws.rate(c_new)
            assert self._rate(ws, candidate) == pytest.approx(
                f_new, rel=1e-12, abs=1e-12)
            assert f_new >= f0 + SLOPES[index] * dd - 1e-12
            # the step is the first in the contraction schedule that passes
            if index > 0:
                previous = ALPHAS[index - 1]
                f_prev = explicit_scores(ws, stack, grad,
                                         np.array([previous]))[0]
                assert f_prev < f0 + SLOPES[index - 1] * dd

    def test_zero_coeff_accepts_any_increase(self, monkeypatch):
        ws, stack, f0, grad = self._setup(7)
        force_step_rule(monkeypatch, 0.0)
        alpha, candidate, c_new, _ = _armijo_stack(
            ws, stack, grad, f0, _re_vdot(grad, grad))
        assert alpha > 0
        assert ws.rate(c_new) > f0

    def test_impossible_increase_stalls(self, monkeypatch):
        # The last trial steps (0.75^199 ~ 1e-25) demand less than one ulp of
        # the rate even at a coefficient of 1e9; the candidate there is the
        # state up to the rounding of its exponential map, and that rounding
        # must not pass as an increase.
        force_step_rule(monkeypatch, 1e9)
        for seed in range(50):
            ws, stack, f0, grad = self._setup(seed)
            alpha, candidate, c_new, trials = _armijo_stack(
                ws, stack, grad, f0, _re_vdot(grad, grad))
            assert (alpha, candidate, c_new) == (0.0, None, None), seed
            assert trials == len(ALPHAS), seed

    def test_same_step_as_explicit_search(self, monkeypatch):
        # Scoring in the geodesic's eigenbasis accepts the step, and scores
        # the step sizes, that scoring explicitly formed candidates does, at
        # the default coefficient and at a greedy one that stalls.
        for seed in range(50):
            ws, stack, f0, grad = self._setup(seed)
            dd = _re_vdot(grad, grad)
            for coeff in (2e-11, 1e9):
                force_step_rule(monkeypatch, coeff)
                alpha, _, _, trials = _armijo_stack(ws, stack, grad, f0, dd)
                assert (alpha, trials) == explicit_armijo_step(
                    ws, stack, grad, f0, dd), (seed, coeff)


class TestDirectionSearch:
    """Searches along the directions the solver takes: along the gradient,
    the Newton step and any body-coordinate direction, as the L-BFGS steps
    are, ``_armijo_stack`` against the explicit oracle; and for every
    architecture the rule that a failed Newton or L-BFGS search retries
    along the gradient, so that only a failed search along the gradient
    ends a run."""

    @staticmethod
    def _setup(tag, seed):
        config = config_for_tag(tag, n_users=2, n_tx=2, n_elements=8)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        beam = init_beamformer_uniform(config)
        ws, *_ = workspace_at(random_feasible(config, seed), channels, beam,
                              config)
        state = start_state(config, seed + 1)
        c = ws.signal(ws.theta(state))
        aux, rate, _ = ws.stats(c)
        return ws, state, c, rate, body_gradient_at(ws, state, c, aux)

    @pytest.mark.parametrize("tag", ["sc", "gc2", "gc4", "fc"])
    def test_same_step_as_explicit_search(self, tag, monkeypatch):
        # Along the gradient, the Newton step at any shift and random
        # symmetric directions of sizes from 1e-3 to 1e3 (accepted at many
        # grid indices, or none): the accepted step, the step sizes scored
        # and the signal matrix are the oracle's. At a greedy coefficient
        # the search along the gradient stalls after scoring every step.
        rng = np.random.default_rng(3)
        for seed in range(6):
            ws, state, c, f0, grad = self._setup(tag, seed)
            newton, _ = ws.newton_step(state, c, grad, 0,
                                       len(optimizer._NEWTON_SHIFTS))
            assert newton is not None, seed
            directions = [grad, newton] + [
                symmetric_direction(rng, grad.shape, scale)
                for scale in (1e-3, 1e-1, 1e1, 1e3)]
            for direction in directions:
                slope = _re_vdot(grad, direction)
                if slope <= 0:
                    direction, slope = -direction, -slope
                alpha, candidate, c_new, trials = _armijo_stack(
                    ws, state, direction, f0, slope)
                assert (alpha, trials) == explicit_armijo_step(
                    ws, state, direction, f0, slope), seed
                if candidate is None:
                    assert (alpha, trials) == (0.0, len(ALPHAS)), seed
                    continue
                assert alpha in ALPHAS, seed
                explicit = ws.signal(ws.theta(candidate))
                assert np.abs(c_new - explicit).max() <= \
                    1e-12 * np.abs(explicit).max()
            force_step_rule(monkeypatch, 1e9)
            dd = _re_vdot(grad, grad)
            assert _armijo_stack(ws, state, grad, f0, dd) == (
                0.0, None, None, len(ALPHAS)), seed
            assert explicit_armijo_step(ws, state, grad, f0, dd) == (
                0.0, len(ALPHAS)), seed
            monkeypatch.undo()

    @pytest.mark.parametrize("index", [0, 31, 32, 63])
    def test_accepts_at_chunk_edges(self, index, monkeypatch):
        # At coefficient 0.5 the passing steps are the small ones. The first
        # of them on a grid from 1e12 (where no step passes), put at
        # ``index`` of the search's own grid, is the step both searches
        # accept: at the first and last entry of a chunk and across a
        # chunk boundary.
        for tag, seed in [("sc", seed) for seed in range(25)] + [
                ("fc", seed) for seed in range(5)]:
            ws, state, _, f0, grad = self._setup(tag, seed)
            dd = _re_vdot(grad, grad)
            force_step_rule(monkeypatch, 0.5, first=1e12)
            first, _ = explicit_armijo_step(ws, state, grad, f0, dd)
            force_step_rule(monkeypatch, 0.5, first=first / 0.75 ** index)
            alpha, candidate, c_new, trials = _armijo_stack(
                ws, state, grad, f0, dd)
            assert alpha == optimizer._ALPHAS[index], (tag, seed)
            assert (alpha, trials) == explicit_armijo_step(ws, state, grad,
                                                           f0, dd), (tag, seed)
            chunk = optimizer._ARMIJO_CHUNK
            assert trials == (index // chunk + 1) * chunk, (tag, seed)
            explicit = ws.signal(ws.theta(candidate))
            assert np.abs(c_new - explicit).max() <= \
                1e-12 * np.abs(explicit).max()

    @pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
    def test_failed_search_cannot_end_a_run(self, tag, monkeypatch):
        # Every search along a Newton or L-BFGS direction is made to fail,
        # and so is every search from the thirtieth on. After such a failure
        # the run goes on along the gradient at the same state; it stops as
        # stalled only when a search along the gradient fails.
        search, calls = optimizer._armijo_stack, []

        def forcing(ws, state, direction, f, slope):
            # Along the gradient g the slope is g.g.
            along = slope == _re_vdot(direction, direction)
            calls.append((along, state.tobytes()))
            if not along or len(calls) >= 30:
                return 0.0, None, None, 0
            return search(ws, state, direction, f, slope)

        monkeypatch.setattr(optimizer, "_armijo_stack", forcing)
        (_, trace), *_ = small_run(seed=0, tag=tag, n_elements=8)
        assert trace.final.stop_reason == "stalled"
        assert len(calls) == trace.final.iters_used >= 30
        failed = [i for i, (along, _) in enumerate(calls) if not along]
        assert len(failed) > 5
        for i in failed:
            assert calls[i + 1] == (True, calls[i][1])
        # The last search, the one that ended the run, went along the
        # gradient.
        assert calls[-1][0]


def test_step_grid_matches_per_chunk_powers():
    # The grid, built once at import, holds bit for bit the steps that a
    # chunk of any width starting anywhere computes on its own, and neither
    # it nor its slopes can be written to.
    assert not (ALPHAS.flags.writeable or SLOPES.flags.writeable)
    for width in (1, 7, 16, 32):
        for start in range(0, len(ALPHAS), width):
            count = min(width, len(ALPHAS) - start)
            chunk = 0.75 ** np.arange(start, start + count, dtype=float)
            assert np.array_equal(ALPHAS[start:start + count], chunk)
            assert np.array_equal(SLOPES[start:start + count], 2e-11 * chunk)


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_chunk_width_changes_no_result(tag, monkeypatch):
    # Chunks 16 and 4 wide score the same steps and accept the same one:
    # every record but the count of step sizes scored is equal.
    runs = {}
    for width in (16, 4):
        monkeypatch.setattr(optimizer, "_ARMIJO_CHUNK", width)
        runs[width] = [small_run(seed=seed, tag=tag, n_elements=8)[0]
                       for seed in range(3)]
    for (theta16, trace16), (theta32, trace32) in zip(runs[16], runs[4]):
        assert np.array_equal(theta16.theta, theta32.theta)
        assert trace16.final == trace32.final
        assert [replace(r, armijo_trials=0) for r in trace16.records] == \
            [replace(r, armijo_trials=0) for r in trace32.records]


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_coefficients_reproduce_surrogate_sum(tag):
    # ``objective`` at the auxiliaries of ``stats``, with and without its
    # totals, gives exactly the sum of the surrogate formula written out
    # from (tau, y), and the batched true-rate scores are exactly the rates
    # that ``stats`` gives at their rows of the same product. (The signal
    # matrix a search returns for its accepted step is another product, so
    # the rate recorded there is only near its score: see
    # ``test_accepted_rate_rises_and_stays_near_its_score``.)
    def reference(c, tau, y, noise):
        total = (np.abs(c) ** 2).sum(axis=-1) + noise
        quad = (2.0 * np.real(np.conj(y) * np.diagonal(c, axis1=-2, axis2=-1))
                - np.abs(y) ** 2 * total)
        return (np.log2(1.0 + tau) - tau / LN2
                + (1.0 + tau) / LN2 * quad).sum(axis=-1)

    for seed in range(10):
        config = config_for_tag(tag, n_elements=8)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        ws = _Workspace(channels, init_beamformer_uniform(config), config)
        state = start_state(config, seed)
        c = ws.signal(ws.theta(state))
        aux, rate, total = ws.stats(c)
        assert ws.objective(c, aux, total) == reference(c, aux.tau, aux.y,
                                                         ws.noise)
        assert ws.objective(c, aux) == reference(c, aux.tau, aux.y, ws.noise)
        diagonals = np.exp(1j * np.random.default_rng(seed).uniform(
            0.0, 2.0 * np.pi, (5,) + state.shape[:2]))
        assert ws.objective_batch(diagonals).tolist() == [
            ws.stats(c)[1] for c in ws.signals(diagonals)]
        assert rate == float(np.log2(1.0 + aux.tau).sum())


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_gradient_reproduces_closed_form(tag):
    # ``_Workspace.gradient`` (conjugate factors formed once per solve) has
    # exactly the bits of the closed form written out from a.conj() and
    # b.conj(): a reassociation that would move 1 x 1 iterates fails here.
    def reference(a, b, c, tau, y):
        b_h = b.conj().transpose(0, 2, 1)
        weight = ((1.0 + tau) / LN2)[None, :, None]
        inner = (y[None, :, None] * b_h
                 - (np.abs(y) ** 2)[None, :, None] * (c @ b_h))
        return 2.0 * (a.conj().transpose(0, 2, 1) @ (weight * inner))

    for seed in range(10):
        config = config_for_tag(tag, n_elements=8)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        ws = _Workspace(channels, init_beamformer_uniform(config), config)
        c = ws.signal(ws.theta(start_state(config, seed)))
        aux = ws.stats(c)[0]
        assert np.array_equal(ws.gradient(c, aux),
                              reference(ws.a, ws.b, c, aux.tau, aux.y))


def gradient_at_start(tag, r):
    """(workspace, state, auxiliaries, Riemannian gradient) at the start state
    of a connected-block instance with unit link gains."""
    config = config_for_tag(tag, n_elements=r)
    channels = generate_channels_from_gains(config, 1.0, 1.0, seed=r)
    beam = init_beamformer_uniform(config)
    ws, *_ = workspace_at(random_feasible(config, seed=r), channels, beam,
                          config)
    state = start_state(config, seed=r + 1)
    c = ws.signal(ws.theta(state))
    aux, _, _ = ws.stats(c)
    return ws, state, aux, ws.riemannian_gradient(state, c, aux)


def line_scores(ws, state, body, alphas):
    """The line search's true-rate scores on connected blocks: the phases of
    the geodesic's diagonals in the workspace of its bases, for the real
    symmetric ``body`` S = Q diag(w) Q^T, with the frame P = U Q built from
    its own ``eigh``."""
    w, q = np.linalg.eigh(body)
    frame = Geodesic(state @ q, w, q.transpose(0, 2, 1))
    return ws.in_bases(frame.p).objective_batch(frame.diagonals(alphas))


@pytest.mark.parametrize("r", [8, 32, 64])
@pytest.mark.parametrize("tag", ["gc2", "gc4", "fc"])
def test_eigenbasis_scores_match_explicit_candidates(tag, r):
    # The line search scores the true rate at the diagonals
    # exp(2 i alpha w) in the bases P = U Q; the same steps scored at
    # explicitly formed U(alpha) U(alpha)^T agree to 1e-12.
    ws, state, aux, xi = gradient_at_start(tag, r)
    alphas = np.concatenate([[0.0, 1e-6, 1.0], 0.75 ** np.arange(200.0)])
    body = ws.body_gradient(state, xi)
    oracle = explicit_scores(ws, state, body, alphas)
    np.testing.assert_allclose(line_scores(ws, state, body, alphas),
                               oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("r", [8, 32])
@pytest.mark.parametrize("tag", ["gc2", "gc4", "fc"])
def test_gradient_is_horizontal(tag, r):
    # The generator skew(U^H xi) of the Riemannian gradient is i S with S
    # real symmetric: its real antisymmetric (vertical) part is rounding.
    ws, state, aux, xi = gradient_at_start(tag, r)
    lift = state.conj().transpose(0, 2, 1) @ xi
    generator = 0.5 * (lift - lift.conj().transpose(0, 2, 1))
    assert np.linalg.norm(generator.real) <= 1e-12 * np.linalg.norm(generator)


@pytest.mark.parametrize("tag", ["gc2", "gc4", "fc"])
def test_vertical_direction_changes_nothing(tag):
    # U K with K real antisymmetric only turns the Takagi factor within its
    # O(R_G) orbit: U O U^T with O real orthogonal, and so every score,
    # stays at the rate of the state, and its body-coordinate part is zero.
    ws, state, aux, _ = gradient_at_start(tag, 8)
    rng = np.random.default_rng(11)
    k = rng.standard_normal(state.shape)
    vertical = state @ (k - k.transpose(0, 2, 1))
    assert np.abs(ws.body_gradient(state, vertical)).max() <= 1e-12
    f0 = ws.rate(ws.signal(ws.theta(state)))
    turned = state @ np.linalg.qr(rng.standard_normal(state.shape))[0]
    assert np.abs(ws.theta(turned) - ws.theta(state)).max() <= 1e-12
    assert ws.rate(ws.signal(ws.theta(turned))) == pytest.approx(
        f0, rel=1e-12, abs=0)


class TestProjection:
    def test_symmetric_unitary_fixed_point(self):
        config, _, theta, _ = make_instance(seed=0, n_elements=6, n_groups=2)
        projected = project_symmetric_unitary(theta)
        assert np.allclose(projected.theta, theta.theta, atol=1e-9)

    def test_diagonal_block_projects_to_identity(self):
        theta = ScatteringMatrix(theta=np.diag([2.0, 0.5]).astype(complex),
                                 group_size=2)
        projected = project_symmetric_unitary(theta)
        assert np.allclose(projected.theta, np.eye(2), atol=1e-12)

    def test_matches_polar_factor_of_symmetrized_input(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            theta = ScatteringMatrix(theta=block,
                                     group_size=3)
            projected = project_symmetric_unitary(theta)
            sym = 0.5 * (block + block.T)
            # independent polar oracle: sym (sym^H sym)^(-1/2)
            w, v = np.linalg.eigh(sym.conj().T @ sym)
            polar = sym @ (v @ np.diag(w ** -0.5) @ v.conj().T)
            assert np.allclose(projected.theta, polar, atol=1e-9)
            report = validate_feasibility(projected, 1e-10, 1e-10)
            assert report.passed

    def test_zero_block_falls_back_to_symmetric_unitary(self):
        theta = ScatteringMatrix(theta=np.zeros((3, 3), dtype=complex),
                                 group_size=3)
        projected = project_symmetric_unitary(theta)
        report = validate_feasibility(projected, 1e-10, 1e-10)
        assert report.passed

    def test_degenerate_singular_values(self):
        # exchange matrix: symmetric, unitary, eigenvalues +1/-1, sigma = 1,1
        block = np.array([[0, 1], [1, 0]], dtype=complex)
        theta = ScatteringMatrix(theta=block,
                                 group_size=2)
        projected = project_symmetric_unitary(theta)
        assert np.allclose(projected.theta, block, atol=1e-9)

    def test_rank_deficient_asymmetric_block(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        block = u @ u.T  # symmetric rank one
        block[0, 1] += 0.3  # break symmetry
        theta = ScatteringMatrix(theta=block,
                                 group_size=3)
        projected = project_symmetric_unitary(theta)
        report = validate_feasibility(projected, 1e-9, 1e-9)
        assert report.passed

    def test_only_failing_blocks_take_the_fallback(self, monkeypatch):
        # One rank-one block among symmetric unitary ones: its polar factor
        # U V^H is not symmetric, so it alone goes through the Takagi
        # fallback, and every block has the bits of a per-block check.
        config = make_config(n_elements=12, n_groups=4)
        stack = random_feasible(config, seed=4).block_stack().copy()
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        stack[2] = u @ u.T
        takagi, calls = optimizer._takagi_symmetric_unitary, []

        def recording(sym):
            calls.append(sym)
            return takagi(sym)

        monkeypatch.setattr(optimizer, "_takagi_symmetric_unitary", recording)
        projected = project_symmetric_unitary(
            ScatteringMatrix.from_block_stack(stack)).block_stack()
        sym = 0.5 * (stack + stack.transpose(0, 2, 1))
        assert len(calls) == 1 and np.array_equal(calls[0], sym[2])
        u_svd, _, vh = np.linalg.svd(sym)
        expected = u_svd @ vh
        for g in range(len(expected)):
            if np.linalg.norm(expected[g] - expected[g].T) > 1e-6:
                expected[g] = takagi(sym[g])
        assert np.array_equal(projected, expected)
        assert validate_feasibility(
            ScatteringMatrix.from_block_stack(projected), 1e-10, 1e-10).passed

    def test_takagi_fallback_direct(self):
        from bdris.optimizer import _takagi_symmetric_unitary
        rng = np.random.default_rng(3)
        cases = [np.zeros((3, 3), dtype=complex),
                 np.eye(4, dtype=complex),
                 np.array([[0, 1], [1, 0]], dtype=complex)]
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cases.append(a + a.T)
        rank_def = np.zeros((4, 4), dtype=complex)
        rank_def[:2, :2] = cases[2]
        cases.append(rank_def)
        for sym in cases:
            out = _takagi_symmetric_unitary(sym)
            assert np.linalg.norm(out - out.T) <= 1e-10
            assert np.linalg.norm(out @ out.conj().T - np.eye(len(out))) <= 1e-10


class TestValidator:
    def test_identity_passes_all_architectures(self):
        for gs in (1, 2, 4):
            theta = ScatteringMatrix(theta=np.eye(4, dtype=complex),
                                     group_size=gs)
            assert validate_feasibility(theta).passed

    def test_scaled_diagonal_fails_unitarity(self):
        theta = ScatteringMatrix(theta=np.diag([2.0, 1.0]).astype(complex),
                                 group_size=1)
        report = validate_feasibility(theta)
        assert not report.unitary_ok
        assert not report.passed
        assert report.diag_modulus_error == pytest.approx(1.0)

    def test_random_feasible_passes_tight(self):
        config = make_config(n_elements=8, n_groups=4)
        theta = random_feasible(config, seed=5)
        report = validate_feasibility(theta, tol_unitary=1e-10,
                                      tol_symmetry=1e-10)
        assert report.passed

    def test_asymmetric_block_fails_symmetry(self):
        block = np.array([[0, 1], [-1, 0]], dtype=complex)  # unitary, asymmetric
        theta = ScatteringMatrix(theta=block,
                                 group_size=2)
        report = validate_feasibility(theta)
        assert report.unitary_ok and not report.symmetric_ok


class TestCgaRun:
    def test_output_feasible_and_trace_consistent(self):
        (theta, trace), config, channels, beam = small_run(seed=0)
        report = validate_feasibility(theta, tol_unitary=1e-8,
                                      tol_symmetry=1e-6)
        assert report.passed
        final = trace.final
        assert final.iters_used == trace.records[-1].iter
        assert len(trace.records) == final.iters_used + 1
        assert final.projected_rate == pytest.approx(
            reference_sum_rate(channels, theta.theta, beam.v,
                               config.noise_power), rel=1e-12)

    def test_deterministic(self):
        (theta_a, trace_a), *_ = small_run(seed=3)
        (theta_b, trace_b), *_ = small_run(seed=3)
        assert np.array_equal(theta_a.theta, theta_b.theta)
        assert trace_a.records == trace_b.records

    def test_surrogate_records_monotone(self):
        # Accepted steps raise the true rate, and the recorded surrogate is
        # taken at the refreshed auxiliaries, where it equals that rate: the
        # recorded surrogate never decreases.
        runs = 0
        for tag in ("sc", "gc2", "fc"):
            for seed in range(7):
                (theta, trace), *_ = small_run(seed=seed, tag=tag)
                surr = np.array([r.surrogate for r in trace.records])
                assert (np.diff(surr) >= -1e-9).all()
                runs += 1
        assert runs >= 20

    @pytest.mark.parametrize("tag", ["sc", "gc2", "gc4", "fc"])
    def test_accepted_rate_rises_and_stays_near_its_score(self, tag,
                                                          monkeypatch):
        # The recorded rate of an accepted point comes from its own signal
        # matrix, not from the chunk row that passed the search: it may
        # differ from that score in the last ulps, but by less than the
        # noise floor, so it is strictly above its predecessor's.
        search, scores = optimizer._armijo_stack, []

        def rescoring(ws, state, direction, f_current, slope):
            result = search(ws, state, direction, f_current, slope)
            alpha, _, _, trials = result
            if alpha:
                path = geodesic_frame(state, direction)
                low = (trials - 1) // optimizer._ARMIJO_CHUNK * \
                    optimizer._ARMIJO_CHUNK
                alphas = optimizer._ALPHAS[low:trials]
                chunk = ws.in_bases(path.p).objective_batch(
                    path.diagonals(alphas))
                scores.append(float(chunk[list(alphas).index(alpha)]))
            return result

        monkeypatch.setattr(optimizer, "_armijo_stack", rescoring)
        accepted = 0
        for seed in range(3):
            (_, trace), config, *_ = small_run(seed=seed, tag=tag,
                                               n_elements=8)
            moved = [(before.true_rate, after.true_rate)
                     for before, after in zip(trace.records,
                                              trace.records[1:])
                     if after.step > 0.0]
            assert len(moved) == len(scores)
            for (before, after), score in zip(moved, scores):
                floor = optimizer._NOISE_FLOOR * (abs(before)
                                                  + config.n_users)
                assert after > before
                assert abs(after - score) < floor
            accepted += len(scores)
            scores.clear()
        assert accepted > 20

    def test_iterates_stay_blockwise_unitary(self):
        for tag in ("gc2", "fc"):
            (theta, trace), *_ = small_run(seed=5, tag=tag, n_elements=4)
            assert max(r.unitarity_residual for r in trace.records) <= 1e-8

    def test_true_rate_monotone_for_single_connected(self):
        for seed in range(5):
            (theta, trace), *_ = small_run(seed=seed, tag="sc", n_elements=8)
            rates = np.array([r.true_rate for r in trace.records])
            assert (np.diff(rates) >= -1e-9).all()
            assert trace.final.projection_rate_delta <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_connected_converges_at_high_snr(self, seed):
        # Desk geometry at 1e3 times its power, sc at R = 64: iterated in
        # the phases of theta with a tangent retraction, these solves
        # crawled to the gradient ratio in 1,542 and 1,363 iterations; on
        # the geodesics of the Takagi factors they take 1,031 and 1,000.
        desk, geometry = load_config(
            Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
        config = replace(desk, n_elements=64, n_groups=64, p_max=1e3)
        channels = generate_channels(replace(config, n_groups=1), geometry,
                                     seed)
        _, trace = cga_optimize(channels, init_beamformer_uniform(config),
                                config, seed=seed)
        assert trace.final.stop_reason == "tolerance"
        assert trace.final.iters_used < 1200

    def test_true_rate_monotone_for_connected_blocks(self):
        # Every iterate is exactly symmetric, so nothing trades rate for
        # symmetry: the raw sum-rate is monotone for connected blocks too.
        for seed in range(3):
            (theta, trace), *_ = small_run(seed=seed, tag="fc")
            rates = np.array([r.true_rate for r in trace.records])
            assert (np.diff(rates) >= -1e-9).all()

    def test_surrogate_equals_rate_and_both_ascend(self):
        # There is no penalty: at refreshed auxiliaries the recorded
        # surrogate is the sum-rate itself, and both ascend.
        for seed in range(3):
            (theta, trace), *_ = small_run(seed=seed, tag="fc")
            f_vals = np.array([r.surrogate for r in trace.records])
            rates = np.array([r.true_rate for r in trace.records])
            assert (np.diff(f_vals) >= -1e-9).all()
            assert np.allclose(rates, f_vals, rtol=0, atol=1e-10)

    def test_projection_keeps_connected_rate(self):
        # The final projection only rounds an exactly symmetric unitary
        # iterate, so it gives up no rate.
        for tag in ("gc2", "gc4", "fc"):
            for seed in range(3):
                (theta, trace), *_ = small_run(seed=seed, tag=tag,
                                               n_elements=8)
                final = trace.final
                assert np.isfinite(final.pre_projection_rate), (tag, seed)
                assert final.projection_rate_delta <= 1e-9, (tag, seed)
                assert final.symmetry_residual <= 1e-12, (tag, seed)

    def test_final_rate_not_below_initial(self):
        for tag in ("sc", "gc2", "fc"):
            for seed in range(3):
                (theta, trace), *_ = small_run(seed=seed, tag=tag)
                assert trace.final.projected_rate >= trace.records[0].true_rate

    def test_stop_reason(self):
        (_, capped), *_ = small_run(seed=0, max_iters=2)
        assert (capped.final.stop_reason, capped.final.converged,
                capped.final.iters_used) == ("max_iters", False, 2)
        (_, full), *_ = small_run(seed=0, tag="sc")
        assert full.final.iters_used < 400
        assert (full.final.stop_reason, full.final.converged) == (
            "tolerance", True)

    def test_stall_policy_terminates_unconverged(self, monkeypatch):
        config = config_for_tag("gc2", n_users=2, n_tx=2, n_elements=4,
                                max_iters=50)
        from bdris import generate_channels_from_gains
        beam = init_beamformer_uniform(config)
        settings = CgaSettings.from_config(config)
        force_step_rule(monkeypatch, 1e9)
        for seed in range(20):
            channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
            theta, trace = cga_optimize(channels, beam, config, seed=seed,
                                        settings=settings)
            assert not trace.final.converged, seed
            assert trace.final.stop_reason == "stalled", seed
            # The first search goes along the gradient, so its stall ends the
            # run: repeating it on the unchanged iterate would stall again.
            assert trace.final.iters_used == 1, seed
            assert all(r.step == 0.0 for r in trace.records[1:]), seed

    def test_no_search_repeats_on_identical_inputs(self, monkeypatch):
        # Desk sc at R = 64 and gc2 at R = 8, seed 1: a stalled search used
        # to be retried on the unchanged iterate and direction, and stalled
        # again. Desk solves do not stall, so every tenth search is made to:
        # the next search goes from the same state along another direction.
        config, geometry = load_config(
            Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
        for r, group_size in ((64, 1), (8, 2)):
            base = replace(config, n_elements=r, n_groups=1)
            channels = generate_channels(base, geometry, 1)
            inputs = []

            def recording_search(ws, state, direction, f, slope):
                inputs.append((state.tobytes(), direction.tobytes(), f, slope))
                if len(inputs) % 10 == 0:
                    return 0.0, None, None, 0
                return _armijo_stack(ws, state, direction, f, slope)

            monkeypatch.setattr(optimizer, "_armijo_stack", recording_search)
            _, trace = cga_optimize(
                channels, init_beamformer_uniform(base),
                replace(base, n_groups=r // group_size), seed=1)
            assert trace.final.stop_reason == "tolerance", r
            assert trace.final.iters_used == len(inputs) >= 20, r
            assert all(a != b for a, b in zip(inputs, inputs[1:])), r


class TestObservability:
    def test_armijo_trials_count_the_chunks_scored(self):
        # Every search starts at grid index 0, alpha = 1, and scores whole
        # chunks of ``_ARMIJO_CHUNK``; a stalled search scores every step of
        # the grid, or none when its slope is not positive. The Newton and
        # L-BFGS steps pass at alpha = 1 in most iterations.
        width = optimizer._ARMIJO_CHUNK
        for tag in ("sc", "gc2", "fc"):
            (_, trace), config, *_ = small_run(seed=1, tag=tag, n_elements=8)
            size = len(ALPHAS)
            assert trace.records[0].armijo_trials == 0
            for rec in trace.records[1:]:
                if rec.step == 0.0:
                    assert rec.armijo_trials in (0, size)
                    continue
                index = list(ALPHAS).index(rec.step)
                assert rec.armijo_trials == min((index // width + 1) * width,
                                                size)
            unit = [rec.step == 1.0 for rec in trace.records[1:]]
            assert sum(unit) > len(unit) / 2, tag

    def test_final_gradient_norm(self):
        for tag in ("sc", "gc2", "fc"):
            (_, trace), *_ = small_run(seed=2, tag=tag)
            final = trace.final
            assert final.grad_norm == trace.records[-1].grad_norm
            assert final.grad_norm_ratio == (final.grad_norm
                                             / trace.records[0].grad_norm)

    @pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
    def test_overflowing_powers_stop_as_nonfinite(self, tag):
        # Finite channels whose signal powers |c|^2 overflow: the rate at the
        # start point is NaN, and the run says so instead of returning it
        # silently.
        config = config_for_tag(tag, n_users=2, n_tx=2, n_elements=4)
        channels = generate_channels_from_gains(config, 1e300, 1e300, seed=0)
        assert np.isfinite(channels.h_tx).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # only the stop reason reports it
            theta, trace = cga_optimize(channels,
                                        init_beamformer_uniform(config),
                                        config, seed=0)
        assert trace.final.stop_reason == "nonfinite"
        assert not trace.final.converged
        assert trace.final.iters_used == 0
        assert len(trace.records) == 1
        assert not math.isfinite(trace.records[0].true_rate)
        assert validate_feasibility(theta).passed

    def test_nonfinite_rate_after_a_step_stops(self, monkeypatch):
        # The third call of ``stats`` (after the second accepted step)
        # reports a NaN rate: the run stops there with its reason.
        stats = _Workspace.stats
        calls = []

        def failing_stats(ws, c):
            aux, rate, total = stats(ws, c)
            calls.append(rate)
            return aux, (math.nan if len(calls) >= 3 else rate), total

        monkeypatch.setattr(_Workspace, "stats", failing_stats)
        (_, trace), *_ = small_run(seed=0, tag="gc2")
        assert trace.final.stop_reason == "nonfinite"
        assert trace.final.iters_used == 2
        assert [math.isfinite(r.true_rate) for r in trace.records] == [
            True, True, False]

    @pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
    def test_batched_residuals_match_per_iterate_oracle(self, tag,
                                                        monkeypatch):
        # A 40-entry budget holds 10 sc, 5 gc2 or 2 fc states at R = 4, so
        # the solve computes its residuals in many batches. Every seventh
        # search is made to stall, so stalled records are checked too:
        # their state is the one the search started from.
        monkeypatch.setattr(optimizer, "_RESIDUAL_BUDGET", 40)
        search, states = optimizer._armijo_stack, []

        def recording(ws, state, *args):
            if (len(states) + 1) % 7:
                result = search(ws, state, *args)
            else:
                result = 0.0, None, None, 0
            states.append(state if result[1] is None else result[1])
            return result

        monkeypatch.setattr(optimizer, "_armijo_stack", recording)
        (_, trace), config, channels, beam = small_run(seed=3, tag=tag,
                                                       max_iters=40)
        ws = _Workspace(channels, beam, config)
        expected = [float(unitarity_residuals(ws.theta(state)).max())
                    for state in [start_state(config, 3)] + states]
        assert len(trace.records) > 10
        assert any(r.step == 0.0 for r in trace.records[1:])
        assert [r.unitarity_residual for r in trace.records] == expected

    @pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
    def test_batched_surrogates_match_per_iterate_oracle(self, tag,
                                                         monkeypatch):
        # The surrogate values are computed at flushes, over all waiting
        # points at once: each is still ``objective`` at its own point,
        # bit for bit, a Python float, with stalled records (every seventh
        # search) at the point their search started from.
        monkeypatch.setattr(optimizer, "_RESIDUAL_BUDGET", 40)
        search, stats = optimizer._armijo_stack, _Workspace.stats
        searches, points = [], []

        def stalling(*args):
            searches.append(None)
            return (search(*args) if len(searches) % 7
                    else (0.0, None, None, 0))

        def recording(ws, c):
            points.append(c)
            return stats(ws, c)

        monkeypatch.setattr(optimizer, "_armijo_stack", stalling)
        monkeypatch.setattr(_Workspace, "stats", recording)
        (_, trace), config, channels, beam = small_run(seed=3, tag=tag,
                                                       max_iters=40)
        ws = _Workspace(channels, beam, config)
        expected, c = [], None
        for r in trace.records:
            if r.iter == 0 or r.step > 0.0:
                c = points.pop(0)
            aux, _, total = stats(ws, c)
            expected.append(float(ws.objective(c, aux, total)))
        assert len(points) == 1  # the final projection's rate
        assert len(trace.records) > 10
        assert any(r.step == 0.0 for r in trace.records[1:])
        assert [r.surrogate for r in trace.records] == expected
        assert all(type(r.surrogate) is float for r in trace.records)

    @pytest.mark.parametrize("reason", ["tolerance", "max_iters", "stalled",
                                        "nonfinite"])
    def test_every_stop_records_every_iterate(self, reason, monkeypatch):
        # A budget below one gc2 state at R = 4 (8 entries) still buffers
        # one, and every exit must write the last record.
        monkeypatch.setattr(optimizer, "_RESIDUAL_BUDGET", 4)
        calls = []
        if reason == "stalled":  # every search from the sixth on fails
            search = optimizer._armijo_stack

            def stalling(*args):
                calls.append(None)
                return (search(*args) if len(calls) < 6
                        else (0.0, None, None, 0))

            monkeypatch.setattr(optimizer, "_armijo_stack", stalling)
        if reason == "nonfinite":  # the eighth rate is NaN
            stats = _Workspace.stats

            def failing_stats(ws, c):
                aux, rate, total = stats(ws, c)
                calls.append(None)
                return aux, (math.nan if len(calls) >= 8 else rate), total

            monkeypatch.setattr(_Workspace, "stats", failing_stats)
        # The gc2 solve of seed 1 stops on the gradient ratio after 9
        # iterations; a cap of 8 stops it on the cap.
        cap = 8 if reason == "max_iters" else 60
        (_, trace), *_ = small_run(seed=0 if reason == "tolerance" else 1,
                                   tag="gc2", max_iters=cap)
        assert trace.final.stop_reason == reason
        assert trace.final.iters_used > 3
        assert len(trace.records) == trace.final.iters_used + 1
        assert [r.iter for r in trace.records] == list(
            range(len(trace.records)))


def test_trace_csv_roundtrip(tmp_path):
    (theta, trace), *_ = small_run(seed=2, max_iters=50)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["iter", "eta", "eta_breve", "alpha",
                                    "grad_norm", "armijo_trials"]
    assert len(rows) == len(trace.records)
    assert float(rows[-1]["eta"]) == trace.records[-1].true_rate


# Link gains: exactly zero, or log-uniform from 1e-12 to 1.
LINK_GAINS = st.one_of(st.just(0.0),
                       st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))


@hypothesis_settings(deadline=None, max_examples=60)
@given(tag=st.sampled_from(["sc", "gc2", "gc4", "fc"]),
       n_elements=st.sampled_from([4, 8, 16]), n_users=st.sampled_from([2, 4]),
       gain_tx=LINK_GAINS, gain_rx=LINK_GAINS,
       noise=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 2 ** 16))
# Unit gains at noise 1e-12: own powers dominate each SINR denominator.
@example(tag="fc", n_elements=4, n_users=2, gain_tx=1.0, gain_rx=1.0,
         noise=1e-12, seed=4)
@example(tag="sc", n_elements=4, n_users=2, gain_tx=1.0, gain_rx=1.0,
         noise=1e-12, seed=13)
@example(tag="gc2", n_elements=4, n_users=2, gain_tx=1.0, gain_rx=1.0,
         noise=1e-12, seed=9)
def test_solver_properties_over_gains_and_noise(tag, n_elements, n_users,
                                                gain_tx, gain_rx, noise, seed):
    # Every solve returns a feasible matrix whose rate is finite, no lower
    # than the start, and the dense reference rate at the config's noise
    # power; every iterate is unitary, and zero-gain links end as stalled.
    # Settings built from the config with an iteration override solve
    # exactly as the overridden config.
    config = config_for_tag(tag, n_users=n_users, n_tx=n_users,
                            n_elements=n_elements, noise_power=noise)
    channels = generate_channels_from_gains(config, gain_tx, gain_rx, seed)
    beam = init_beamformer_uniform(config)
    theta, trace = cga_optimize(
        channels, beam, config, seed,
        CgaSettings.from_config(config, max_iters=30))

    assert validate_feasibility(theta).passed
    assert max(r.unitarity_residual for r in trace.records) <= 1e-8
    rate, initial = trace.final.projected_rate, trace.records[0].true_rate
    assert np.isfinite(rate)
    assert rate >= initial * (1.0 - 1e-12)
    reference = reference_sum_rate(channels, theta.theta, beam.v,
                                   config.noise_power)
    if reference > 1e-6:
        assert rate == pytest.approx(reference, rel=1e-9, abs=0)
    if gain_tx == 0.0 or gain_rx == 0.0:
        assert rate == 0.0
        assert trace.final.stop_reason == "stalled"

    same_theta, same_trace = cga_optimize(channels, beam,
                                          replace(config, max_iters=30), seed)
    assert np.array_equal(same_theta.theta, theta.theta)
    assert same_trace.records == trace.records
    assert same_trace.final == trace.final


def symmetric_basis(rg):
    """The orthonormal basis of real symmetric R_G x R_G matrices, in the
    order of ``triu_indices``: E_aa, and (E_ab + E_ba) / sqrt(2) for a < b."""
    basis = []
    for a, b in zip(*np.triu_indices(rg)):
        e = np.zeros((rg, rg))
        e[a, b] = e[b, a] = 1.0 if a == b else math.sqrt(0.5)
        basis.append(e)
    return np.array(basis)


def hessian_instance(tag, r, gains):
    """(config, channels, beam, workspace, start state) with unit link gains
    or the desk geometry of ``configs/desk.yaml``."""
    config = config_for_tag(tag, n_elements=r)
    if gains == "desk":
        desk, geometry = load_config(
            Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
        config = replace(desk, n_elements=r, n_groups=config.n_groups)
        channels = generate_channels(replace(config, n_groups=1), geometry,
                                     r)
    else:
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=r)
    beam = init_beamformer_uniform(config)
    ws = _Workspace(channels, beam, config)
    return config, channels, beam, ws, start_state(config, r + 1)


@pytest.mark.parametrize("gains", ["unit", "desk"])
@pytest.mark.parametrize("r", [4, 8])
@pytest.mark.parametrize("tag", ["sc", "gc2", "gc4", "fc"])
def test_body_hessian_matches_central_differences(tag, r, gains):
    # The Hessian of the sum-rate in the orthonormal coordinates x of
    # U_g exp(i S_g), S_g = sum_j x_j E_j, against second central
    # differences of the dense reference rate at explicitly formed blocks.
    config, channels, beam, ws, state = hessian_instance(tag, r, gains)
    hess = ws.body_hessian(state, ws.signal(ws.theta(state)))
    basis = symmetric_basis(config.group_size)
    size = len(basis)

    def rate(x):
        body = np.einsum("gj,jab->gab", x.reshape(-1, size), basis)
        w, q = np.linalg.eigh(body)
        u = (state @ q * np.exp(1j * w)[:, None, :]) @ q.transpose(0, 2, 1)
        theta = ScatteringMatrix.from_block_stack(u @ u.transpose(0, 2, 1))
        return reference_sum_rate(channels, theta.theta, beam.v,
                                  config.noise_power)

    h = 2e-4
    steps = h * np.eye(len(hess))
    fd = np.array([[(rate(e + f) - rate(e - f) - rate(f - e) + rate(-e - f))
                    / (4.0 * h * h) for f in steps] for e in steps])
    scale = np.abs(hess).max()
    assert hess.shape == (config.n_groups * size,) * 2
    assert np.abs(hess - hess.T).max() <= 1e-14 * scale
    assert np.abs(hess - fd).max() <= 1e-6 * scale
    # The coordinates are those of this basis.
    x = np.random.default_rng(r).standard_normal(len(hess))
    body = np.einsum("gj,jab->gab", x.reshape(-1, size), basis)
    assert np.abs(ws.from_coordinates(x) - body).max() <= 1e-15
    assert np.abs(ws.to_coordinates(body) - x).max() <= 1e-14


@pytest.mark.parametrize("tag", ["sc", "gc2", "gc4", "fc"])
def test_hessian_first_order_part_is_body_gradient(tag):
    # The first derivatives i D of ``signal_derivatives`` that the Hessian
    # assembles give the rate's gradient, sum_(k,i) w_ki d|c_ki|^2/dx_j / ln2
    # with d|c_ki|^2/dx_j = -2 Im(conj(c_ki) D_j,ki): the body gradient in
    # ``to_coordinates``.
    for seed in range(3):
        config = config_for_tag(tag, n_elements=8)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        ws = _Workspace(channels, init_beamformer_uniform(config), config)
        state = start_state(config, seed + 1)
        c = ws.signal(ws.theta(state))
        aux = ws.stats(c)[0]
        w = rate_weights(c, config.noise_power)[2].ravel()
        moved = c.conj().ravel() * ws.signal_derivatives(state)
        expected = ws.to_coordinates(body_gradient_at(ws, state, c, aux))
        np.testing.assert_allclose(-2.0 * (moved.imag @ w) / LN2, expected,
                                   rtol=0, atol=1e-13 * np.abs(expected).max())


def spy(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, which still runs."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("r, dense", [(8, True), (32, False)])
def test_body_dimension_picks_the_direction(r, dense, monkeypatch):
    # fc at R = 8 (n = 36) factors the dense Hessian; fc at R = 32 (n = 528,
    # above _NEWTON_DIMENSION) takes the same Newton steps from the
    # diagonal plus low-rank Hessian in the eigenbasis of M, and never
    # forms an (n, n) Hessian. Both form one Hessian per iteration.
    hessians = spy(monkeypatch, _Workspace, "body_hessian")
    rotated = spy(monkeypatch, _Workspace, "rotated_hessian")
    factored = spy(monkeypatch, optimizer._DenseHessian, "__init__")
    newton = []
    original = optimizer._newton_direction

    def counting(*args):
        step, m = original(*args)
        newton.append(step is not None)
        return step, m

    monkeypatch.setattr(optimizer, "_newton_direction", counting)
    (_, trace), *_ = small_run(seed=0, tag="fc", n_elements=r, max_iters=8)
    assert trace.final.iters_used > 3
    assert len(newton) == trace.final.iters_used
    if dense:
        assert len(hessians) == len(factored) == trace.final.iters_used
        assert not rotated
    else:
        assert len(rotated) == trace.final.iters_used
        assert not hessians and not factored


def test_body_maps_shared_per_shape(monkeypatch):
    # Workspaces of one shape (G, R_G, K, K) share one set of read-only
    # index arrays; another shape, or the dense curvature map of the same
    # shape, gets its own.
    def workspace(tag, r, seed, n_users=4):
        config = config_for_tag(tag, n_elements=r, n_users=n_users)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        return _Workspace(channels, init_beamformer_uniform(config), config)

    names = ("rows", "cols", "lift", "derivative_lift", "curvature_sources",
             "curvature_weights", "curvature_targets", "curvature_slots")
    first, second = workspace("gc2", 8, 0), workspace("gc2", 8, 1)
    assert first.dense
    for name in names:
        array = getattr(first, name)
        assert array is getattr(second, name), name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = array[0]
    for ours, theirs in zip(first.derivative_indices,
                            second.derivative_indices):
        assert ours is theirs and not ours.flags.writeable
    for other in (workspace("gc2", 8, 0, n_users=2), workspace("gc4", 8, 0)):
        assert other.derivative_lift is not first.derivative_lift
        assert not set(map(id, other.derivative_indices)) & set(
            map(id, first.derivative_indices))
    monkeypatch.setattr(optimizer, "_NEWTON_DIMENSION", 0)
    structured = workspace("gc2", 8, 0)
    assert not structured.dense
    assert not hasattr(structured, "curvature_targets")
    np.testing.assert_array_equal(structured.derivative_indices[0],
                                  first.derivative_indices[0])


@pytest.mark.parametrize("tag, r", [("sc", 8), ("gc2", 8), ("fc", 8),
                                    ("fc", 32)])
def test_newton_step_reuses_the_sinr_of_stats(tag, r, monkeypatch):
    # ``stats`` forms the SINR terms of an accepted point, and the Newton
    # step there takes them instead of calling ``sinr`` again: no call of
    # ``sinr`` runs inside ``newton_step``, and the Hessians are those of
    # a fresh ``sinr``, bit for bit.
    inside, sinr_calls, hessians = [], [], []
    newton_step, sinr = _Workspace.newton_step, _Workspace.sinr
    body_hessian = _Workspace.body_hessian

    def stepping(ws, state, c, *args):
        inside.append(True)
        try:
            return newton_step(ws, state, c, *args)
        finally:
            inside.pop()

    def counting(ws, c):
        sinr_calls.append(bool(inside))
        return sinr(ws, c)

    def checked(ws, state, c):
        hess = body_hessian(ws, state, c)
        hessians.append(np.array_equal(hess, body_hessian(ws, state,
                                                          c.copy())))
        return hess

    monkeypatch.setattr(_Workspace, "newton_step", stepping)
    monkeypatch.setattr(_Workspace, "sinr", counting)
    monkeypatch.setattr(_Workspace, "body_hessian", checked)
    (_, trace), *_ = small_run(seed=1, tag=tag, n_elements=r, max_iters=12)
    assert trace.final.iters_used > 3
    # Only the bit check's copies miss the stored terms.
    assert sinr_calls.count(True) == len(hessians)
    assert all(hessians) and (len(hessians) > 0) == (r == 8)


def low_rank_instances():
    """(tag, R, gains) of the structured-Hessian checks."""
    return [(tag, r, gains) for tag in ("sc", "gc2", "gc4", "fc")
            for r in (4, 8) for gains in ("unit", "desk")]


def rotated_instance(tag, r, gains):
    """(workspace, state U Q, the rotated Hessian, its dense rebuild, the
    gradient coordinates at U Q) at the start state of ``hessian_instance``.
    """
    config, channels, beam, ws, state = hessian_instance(tag, r, gains)
    c = ws.signal(ws.theta(state))
    q, *parts = ws.rotated_hessian(state, c)
    curvature, factor, signs = parts
    rebuilt = np.diag(curvature) + (factor.T * signs) @ factor
    rotated = state @ q
    aux = ws.stats(c)[0]
    grad = ws.to_coordinates(body_gradient_at(ws, rotated, c, aux))
    return ws, rotated, c, parts, rebuilt, grad


@pytest.mark.parametrize("tag, r, gains", low_rank_instances())
def test_rotated_hessian_is_body_hessian_at_rotated_state(tag, r, gains):
    # At U Q, with Q the eigenvectors of M, the Hessian is diagonal plus
    # rank 2 K^2; rebuilt densely it is ``body_hessian`` there. Q leaves
    # the blocks U U^T, and so the signal matrix, unchanged.
    ws, rotated, c, parts, rebuilt, _ = rotated_instance(tag, r, gains)
    dense = ws.body_hessian(rotated, c)
    assert parts[1].shape == (2 * ws.users * ws.streams, len(dense))
    low = optimizer._LowRankHessian(*parts)
    scale = np.abs(dense).max()
    assert np.abs(rebuilt - dense).max() <= 1e-12 * scale
    assert np.abs(ws.signal(ws.theta(rotated)) - c).max() <= 1e-12 * np.abs(
        c).max()
    assert low.scale == pytest.approx(np.abs(dense.diagonal()).max(),
                                      rel=1e-12)


def second_derivative_term(ws, state, c):
    """The Hessian's term of the second derivatives of the c_ki, times ln2:
    sum_ki w_ki 2 Re(conj(c_ki) d2c_ki/dx_j dx_l), with
    d2c/dx_j dx_l = -2 A_g (E_j E_l + E_l E_j) B_g for j, l in block g,
    written out entry by entry."""
    basis = symmetric_basis(state.shape[1])
    size = len(basis)
    w = rate_weights(c, ws.noise)[2]
    big_a, big_b = ws.a @ state, state.transpose(0, 2, 1) @ ws.b
    term = np.zeros((len(state) * size,) * 2)
    for g in range(len(state)):
        for j, e_j in enumerate(basis):
            for l, e_l in enumerate(basis):
                second = -2.0 * big_a[g] @ (e_j @ e_l + e_l @ e_j) @ big_b[g]
                term[g * size + j, g * size + l] = 2.0 * (
                    w * (c.conj() * second).real).sum()
    return term


@pytest.mark.parametrize("tag, r, gains", low_rank_instances())
def test_first_derivative_term_matches_reference(tag, r, gains):
    # Both Hessians' first-derivative term, sum_k X_k W_k X_k^T, against the
    # concatenated 2 Re((D w) D^H) - gT gT^T + gI gI^T of ``helpers``: in
    # ``body_hessian`` after the second-derivative term written out here,
    # and as the low-rank part of ``rotated_hessian`` at U Q.
    _, _, _, ws, state = hessian_instance(tag, r, gains)
    c = ws.signal(ws.theta(state))
    expected = reference_outer_hessian(ws.signal_derivatives(state), c,
                                       ws.noise) / LN2
    outer = (ws.body_hessian(state, c)
             - second_derivative_term(ws, state, c) / LN2)
    assert np.abs(outer - expected).max() <= 1e-12 * np.abs(expected).max()
    q, _, factor, signs = ws.rotated_hessian(state, c)
    expected = reference_outer_hessian(ws.signal_derivatives(state @ q), c,
                                       ws.noise) / LN2
    low_rank = (factor.T * signs) @ factor
    assert np.abs(low_rank - expected).max() <= 1e-12 * np.abs(
        expected).max()


@pytest.mark.parametrize("tag, r, gains", low_rank_instances())
def test_low_rank_scan_matches_dense_scan(tag, r, gains):
    # The inertia verdict is ``cholesky``'s at every listed shift, and the
    # Woodbury step and shift index are the dense scan's, from every start
    # and under both limits.
    ws, rotated, c, parts, rebuilt, grad = rotated_instance(tag, r, gains)
    low = optimizer._LowRankHessian(*parts)
    dense = optimizer._DenseHessian(rebuilt)
    for factor in optimizer._NEWTON_SHIFTS:
        mu = factor * low.scale
        assert low.definite(mu) == dense.definite(mu), (factor, mu)
    for limit in (optimizer._CONNECTED_SHIFTS,
                  len(optimizer._NEWTON_SHIFTS)):
        for start in range(limit):
            expected, m = optimizer._newton_direction(
                optimizer._DenseHessian(rebuilt), grad, start, limit)
            step, same = optimizer._newton_direction(
                optimizer._LowRankHessian(*parts), grad, start, limit)
            assert same == m, (start, limit)
            if expected is None:
                assert step is None
            else:
                np.testing.assert_allclose(
                    step, expected, rtol=0,
                    atol=1e-12 * np.abs(expected).max())


def test_low_rank_degenerate_parts():
    # A zero entry of Delta = mu - curvature is not definite, like the
    # singular dense matrix; rows of sign 0 are dropped; non-finite parts
    # give no step. None of it warns (warnings are errors here).
    curvature = np.array([1e-2, -1.0, -2.0])
    factor = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, -1.0]]) * 0.03
    signs = np.array([0.0, 1.0])
    low = optimizer._LowRankHessian(curvature, factor, signs)
    rebuilt = np.diag(curvature) + (factor.T * signs) @ factor
    assert low.factor.shape == (1, 3)
    assert low.scale == np.abs(rebuilt.diagonal()).max()
    dense = optimizer._DenseHessian(rebuilt)
    for factor_mu in optimizer._NEWTON_SHIFTS:
        mu = factor_mu * low.scale
        assert low.definite(mu) == dense.definite(mu), factor_mu
    assert not low.definite(curvature[0])
    grad = np.ones(3)
    step, m = optimizer._newton_direction(low, grad, 0, 11)
    expected, same = optimizer._newton_direction(
        optimizer._DenseHessian(rebuilt), grad, 0, 11)
    assert m == same
    np.testing.assert_allclose(step, expected, rtol=1e-12)
    for bad in (np.nan, np.inf):
        parts = [curvature.copy(), factor.copy(), signs.copy()]
        for part in parts:
            part.flat[-1] = bad
            assert optimizer._newton_direction(
                optimizer._LowRankHessian(*parts), grad, 2, 6) == (None, 2)
            part.flat[-1] = 1.0


@pytest.mark.parametrize("case", ["zero-gain", "silent-user", "unit",
                                  "sc-zero-gain", "sc-silent-user",
                                  "sc-unit"])
def test_structured_newton_on_degenerate_inputs(case, monkeypatch):
    # fc at R = 32, and sc at R = 72 (n = 72 1 x 1 blocks), on zero-gain
    # links, with a user whose own signal is exactly zero (a zero beam
    # column: its w_ki, i != k, and so rows of the factor, are zero), and
    # on unit gains: the structured Newton path raises nothing, warns
    # nothing and stops for the reason the dense path (forced by a larger
    # _NEWTON_DIMENSION) stops for.
    tag, r = ("sc", 72) if case.startswith("sc-") else ("fc", 32)
    case = case.removeprefix("sc-")
    config = config_for_tag(tag, n_elements=r, max_iters=15)
    gain = 0.0 if case == "zero-gain" else 1.0
    channels = generate_channels_from_gains(config, gain, 1.0, seed=3)
    beam = init_beamformer_uniform(config)
    if case == "silent-user":
        v = beam.v.copy()
        v[:, 1] = 0.0
        beam = replace(beam, v=v)
    assert not _Workspace(channels, beam, config).dense
    reasons = []
    for dimension in (optimizer._NEWTON_DIMENSION, 10 ** 6):
        monkeypatch.setattr(optimizer, "_NEWTON_DIMENSION", dimension)
        theta, trace = cga_optimize(channels, beam, config, seed=4)
        assert np.isfinite(trace.final.projected_rate)
        assert validate_feasibility(theta).passed
        reasons.append(trace.final.stop_reason)
    assert reasons[0] == reasons[1]
    if case == "zero-gain":
        assert reasons[0] == "stalled"
        assert trace.final.projected_rate == 0.0


def test_shift_cap_of_connected_blocks():
    # mu I - H is positive definite only from mu = 1e-1 max |H_jj| on: 1 x 1
    # blocks take that shift, connected blocks none (``None``), and the
    # next scan starts at their last allowed shift.
    hess = -np.diag([1.0, 2.0, 4.0])
    hess[0, 0] = 0.2
    grad = np.array([1.0, 1.0, 1.0])
    step, m = optimizer._newton_direction(optimizer._DenseHessian(hess),
                                          grad, 0,
                                          len(optimizer._NEWTON_SHIFTS))
    assert optimizer._NEWTON_SHIFTS[m] == 1e-1
    np.testing.assert_allclose(step, np.linalg.solve(
        0.4 * np.eye(3) - hess, grad), rtol=1e-15)
    for start in range(optimizer._CONNECTED_SHIFTS):
        assert optimizer._newton_direction(
            optimizer._DenseHessian(hess), grad, start,
            optimizer._CONNECTED_SHIFTS) == (
                None, optimizer._CONNECTED_SHIFTS - 1)


def scan_hessians():
    """Symmetric Hessians whose smallest definite shift index takes every
    value, and ones that no listed shift makes definite: random 6 x 6 ones
    whose largest eigenvalue is 10^e max |H_jj| of the negative definite
    rest, e over -13 .. 0, and [[1, a], [a, -1]], whose eigenvalues
    +-sqrt(1 + a^2) exceed max |H_jj| = 1 by up to 10^4."""
    rng = np.random.default_rng(7)
    hessians = []
    for exponent in np.linspace(-13.0, 0.0, 27):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        values = -rng.uniform(0.5, 2.0, 6)
        hess = (q * values) @ q.T
        values[0] = 10.0 ** exponent * np.abs(hess.diagonal()).max()
        hessians.append((q * values) @ q.T)
    for exponent in np.linspace(-1.0, 4.0, 11):
        off = 10.0 ** exponent
        hessians.append(np.array([[1.0, off], [off, -1.0]]))
    return hessians


def test_scan_finds_smallest_definite_shift_from_every_start():
    # From every start, capped and uncapped: the step and index of the
    # smallest listed shift at which every eigenvalue of mu I - H is
    # positive, or (None, limit - 1) when none below the limit is.
    grad_rng = np.random.default_rng(8)
    found = set()
    for hess in scan_hessians():
        grad = grad_rng.standard_normal(len(hess))
        scale = np.abs(hess.diagonal()).max()
        for limit in (optimizer._CONNECTED_SHIFTS,
                      len(optimizer._NEWTON_SHIFTS)):
            shifted = [factor * scale * np.eye(len(hess)) - hess
                       for factor in optimizer._NEWTON_SHIFTS[:limit]]
            definite = [bool(np.all(np.linalg.eigvalsh(m) > 0))
                        for m in shifted]
            smallest = definite.index(True) if any(definite) else None
            found.add((limit, smallest))
            for start in range(limit):
                step, m = optimizer._newton_direction(
                    optimizer._DenseHessian(hess), grad, start, limit)
                if smallest is None:
                    assert (step, m) == (None, limit - 1), (start, limit)
                    continue
                assert m == smallest, (start, limit)
                np.testing.assert_allclose(
                    step, np.linalg.solve(shifted[m], grad), rtol=1e-9)
    assert found == {(6, m) for m in (*range(6), None)} | {
        (11, m) for m in (*range(11), None)}


def test_failing_capped_streak_factors_once_per_call(monkeypatch):
    # A capped scan that finds no shift restarts at the cap: the first
    # call of a failing streak tests its start and the last allowed
    # shift, every later one that last shift alone.
    factored = spy(monkeypatch, optimizer._DenseHessian, "definite")
    hess = np.diag([-1.0, -2.0, 0.5])
    grad, start, costs = np.ones(3), 0, []
    for _ in range(5):
        before = len(factored)
        step, start = optimizer._newton_direction(
            optimizer._DenseHessian(hess), grad, start,
            optimizer._CONNECTED_SHIFTS)
        assert step is None
        costs.append(len(factored) - before)
    assert start == optimizer._CONNECTED_SHIFTS - 1
    assert costs == [2, 1, 1, 1, 1]


@pytest.mark.parametrize("tag, r", [("gc2", 8), ("fc", 8), ("fc", 32)],
                         ids=["gc2", "fc", "fc32"])
def test_non_concave_hessian_falls_back_to_lbfgs(tag, r, monkeypatch):
    # A Hessian that no allowed shift makes negative definite (here -H has
    # an eigenvalue of -1 at max |H_jj| = 1) sends every iteration to the
    # L-BFGS step: the run is bit for bit the one without Newton steps.
    # Dense (R = 8) and structured (R = 32) workspaces alike.
    def convex(ws, state, c):
        return np.eye(len(ws.rows) * len(state))

    def convex_low_rank(ws, state, c):
        n = len(ws.rows) * len(state)
        return (np.broadcast_to(np.eye(state.shape[-1]), state.shape),
                np.ones(n), np.zeros((1, n)), np.ones(1))

    def no_newton(ws, state, c, grad, start, limit):
        return None, start

    runs = []
    for patch in ("hessian", "none"):
        with monkeypatch.context() as m:
            if patch == "hessian":
                m.setattr(_Workspace, "body_hessian", convex)
                m.setattr(_Workspace, "rotated_hessian", convex_low_rank)
            else:
                m.setattr(_Workspace, "newton_step", no_newton)
            runs.append(small_run(seed=2, tag=tag, n_elements=r)[0])
    (theta, trace), (same_theta, same_trace) = runs
    assert np.array_equal(theta.theta, same_theta.theta)
    assert trace.records == same_trace.records
    assert trace.final == same_trace.final


@pytest.mark.parametrize("pairs", [1, 2, 5])
def test_two_loop_matches_dense_inverse_bfgs(pairs):
    # The two-loop recursion gives H g for the inverse-BFGS matrix built
    # densely from the same pairs: H0 = (s.y / y.y) I from the newest pair,
    # then H <- (I - rho y s^T)^T H (I - rho y s^T) + rho s s^T, oldest
    # first.
    rng = np.random.default_rng(pairs)
    shape = (3, 2, 2)
    n = int(np.prod(shape))
    a = rng.standard_normal((n, n))
    curvature = a @ a.T + n * np.eye(n)
    memory = []
    for _ in range(pairs):
        s = rng.standard_normal(n)
        y = curvature @ s
        memory.append((s, y, 1.0 / float(s @ y)))
    grad = rng.standard_normal(shape)
    _, y, rho = memory[-1]
    dense = np.eye(n) / (rho * float(y @ y))
    for s, y, rho in memory:
        v = np.eye(n) - rho * np.outer(y, s)
        dense = v.T @ dense @ v + rho * np.outer(s, s)
    direction = optimizer._two_loop(grad, memory)
    assert direction.shape == shape
    np.testing.assert_allclose(direction.ravel(), dense @ grad.ravel(),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_stops_at_first_gradient_below_ratio(tag):
    # A converged run stops at the first iterate whose body-coordinate
    # gradient norm is at most _GRADIENT_RATIO of the start point's.
    for seed in range(3):
        (_, trace), *_ = small_run(seed=seed, tag=tag, n_elements=8)
        final = trace.final
        assert final.stop_reason == "tolerance", (tag, seed)
        limit = optimizer._GRADIENT_RATIO * trace.records[0].grad_norm
        norms = [r.grad_norm for r in trace.records]
        assert norms[-1] <= limit and min(norms[:-1]) > limit, (tag, seed)
        assert final.grad_norm_ratio <= optimizer._GRADIENT_RATIO
