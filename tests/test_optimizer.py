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
from bdris.manifold import geodesic, retract_batch, unitarity_residuals
from bdris import optimizer
from bdris.gradient import LN2
from bdris.optimizer import _armijo_stack, _re_vdot, _Workspace

from helpers import (config_for_tag, explicit_armijo_step, explicit_scores,
                     make_config, make_instance, reference_sum_rate,
                     start_state, workspace_at)


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
        # else: the step rule and the tolerance are module constants.
        s = CgaSettings.from_config(make_config())
        assert [f.name for f in fields(CgaSettings)] == ["max_iters"]
        assert (s.max_iters, optimizer._TOLERANCE, len(ALPHAS)) == \
            (8000, 1e-8, 200)
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


class TestArmijo:
    """The line search ``cga_optimize`` runs, ``_armijo_stack``, from the
    Takagi-factor state of a 2 x 2 block instance."""

    def _setup(self, seed):
        config, channels, theta, beam = make_instance(seed=seed)
        ws, _, c, aux = workspace_at(theta, channels, beam, config)
        state = start_state(config, seed + 1)
        grad = ws.riemannian_gradient(state, c, aux)
        f0 = ws.objective(c, aux)
        return ws, state, aux, f0, grad

    def _value(self, ws, state, aux):
        return ws.objective(ws.signal(ws.theta(state)), aux)

    def test_zero_direction_stalls(self):
        ws, stack, aux, f0, grad = self._setup(0)
        assert _armijo_stack(ws, stack, np.zeros_like(stack), aux, f0,
                             1.0) == (0.0, None, None, 0, None)
        # a direction that is not an ascent direction stalls as well
        alpha, candidate, _, trials, index = _armijo_stack(
            ws, stack, grad, aux, f0, -_re_vdot(grad, grad))
        assert (alpha, candidate, trials, index) == (0.0, None, 0, None)

    def test_accepted_step_satisfies_inequality(self):
        for seed in range(5):
            ws, stack, aux, f0, grad = self._setup(seed)
            dd = _re_vdot(grad, grad)
            alpha, candidate, c_new, _, index = _armijo_stack(
                ws, stack, grad, aux, f0, dd)
            assert alpha > 0 and alpha == ALPHAS[index]
            # direct recheck of the accepted step and its signal matrix
            explicit = ws.signal(ws.theta(candidate))
            assert np.abs(c_new - explicit).max() <= \
                1e-12 * np.abs(explicit).max()
            f_new = ws.objective(c_new, aux)
            recheck = self._value(ws, candidate, aux)
            assert recheck == pytest.approx(f_new, rel=1e-12, abs=1e-12)
            assert f_new >= f0 + SLOPES[index] * dd - 1e-12
            # the step is the first in the contraction schedule that passes
            if index > 0:
                previous = ALPHAS[index - 1]
                trial, ok = retract_batch(stack, grad, np.array([previous]))
                f_prev = self._value(ws, trial[0], aux)
                assert not ok[0] or f_prev < f0 + SLOPES[index - 1] * dd

    def test_zero_coeff_accepts_any_increase(self, monkeypatch):
        ws, stack, aux, f0, grad = self._setup(7)
        force_step_rule(monkeypatch, 0.0)
        alpha, candidate, c_new, _, _ = _armijo_stack(
            ws, stack, grad, aux, f0, _re_vdot(grad, grad))
        assert alpha > 0
        assert ws.objective(c_new, aux) >= f0

    def test_impossible_increase_stalls(self, monkeypatch):
        # The last trial steps (0.75^199 ~ 1e-25) demand less than one ulp of
        # f even at a coefficient of 1e9; the candidate there is the state up
        # to the rounding of its exponential map, and that rounding must not
        # pass as an increase.
        force_step_rule(monkeypatch, 1e9)
        for seed in range(50):
            ws, stack, aux, f0, grad = self._setup(seed)
            alpha, candidate, c_new, trials, index = _armijo_stack(
                ws, stack, grad, aux, f0, _re_vdot(grad, grad))
            assert (alpha, candidate, c_new, index) == (0.0, None, None,
                                                        None), seed
            assert trials == len(ALPHAS), seed


    def test_same_step_as_explicit_search(self, monkeypatch):
        # Scoring in the geodesic's eigenbasis accepts the step that scoring
        # explicitly formed candidates accepts, at the default coefficient
        # and at a greedy one that stalls.
        for seed in range(50):
            ws, stack, aux, f0, grad = self._setup(seed)
            dd = _re_vdot(grad, grad)
            for coeff in (2e-11, 1e9):
                force_step_rule(monkeypatch, coeff)
                alpha, *_ = _armijo_stack(ws, stack, grad, aux, f0, dd)
                assert alpha == explicit_armijo_step(
                    ws, stack, grad, aux, f0, dd), (seed, coeff)


class TestArmijoSingleConnected:
    """``_armijo_stack`` on 1 x 1 blocks, which score their phase-normalized
    candidates directly, against the explicit oracle of ``helpers``."""

    def _setup(self, seed):
        config, channels, theta, beam = make_instance(
            seed=seed, n_elements=8, n_groups=8)
        ws, _, c, aux = workspace_at(theta, channels, beam, config)
        state = start_state(config, seed + 1)
        grad = ws.riemannian_gradient(state, c, aux)
        return (ws, state, aux, ws.objective(c, aux), _re_vdot(grad, grad),
                grad)

    def test_same_step_as_explicit_search(self, monkeypatch):
        # At the default coefficient, and at a greedy one that stalls after
        # scoring every step of the grid.
        for seed in range(25):
            ws, state, aux, f0, dd, grad = self._setup(seed)
            for coeff in (2e-11, 1e9):
                force_step_rule(monkeypatch, coeff)
                alpha, candidate, _, trials, _ = _armijo_stack(
                    ws, state, grad, aux, f0, dd)
                assert alpha == explicit_armijo_step(
                    ws, state, grad, aux, f0, dd), (seed, coeff)
                if coeff == 1e9:
                    assert (alpha, candidate) == (0.0, None), seed
                    assert trials == len(ALPHAS), seed

    @pytest.mark.parametrize("index", [0, 31, 32, 63])
    def test_accepts_at_chunk_edges(self, index, monkeypatch):
        # At coefficient 0.5 the passing steps are the small ones. The first
        # of them on a grid from 1e12 (where no step passes), put at
        # ``index`` of the search's own grid, is the step both searches
        # accept: at the first and last entry of a chunk and across a
        # chunk boundary.
        for seed in range(25):
            ws, state, aux, f0, dd, grad = self._setup(seed)
            force_step_rule(monkeypatch, 0.5, first=1e12)
            first = explicit_armijo_step(ws, state, grad, aux, f0, dd)
            force_step_rule(monkeypatch, 0.5, first=first / 0.75 ** index)
            alpha, candidate, c_new, trials, accepted = _armijo_stack(
                ws, state, grad, aux, f0, dd)
            grid = optimizer._ALPHAS
            assert alpha == grid[index] and accepted == index, seed
            assert alpha == explicit_armijo_step(ws, state, grad, aux, f0,
                                                 dd), seed
            chunk = optimizer._ARMIJO_CHUNK
            assert trials == (index // chunk + 1) * chunk, seed
            explicit = ws.signal(candidate)
            assert np.abs(c_new - explicit).max() <= \
                1e-12 * np.abs(explicit).max()


class TestWarmStart:
    """Searches on factored blocks that start above grid index 0, after an
    accepted step: ``_armijo_stack`` from ``start`` against the explicit
    oracle, and the rule that such a search never ends a run."""

    @staticmethod
    def _setup(tag, seed):
        config = config_for_tag(tag, n_users=2, n_tx=2, n_elements=8)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        beam = init_beamformer_uniform(config)
        ws, *_ = workspace_at(random_feasible(config, seed), channels, beam,
                              config)
        state = start_state(config, seed + 1)
        c = ws.signal(ws.theta(state))
        aux, _, _ = ws.stats(c)
        grad = ws.riemannian_gradient(state, c, aux)
        return (ws, state, aux, ws.objective(c, aux), _re_vdot(grad, grad),
                grad)

    @pytest.mark.parametrize("tag", ["gc2", "gc4", "fc"])
    def test_same_step_as_explicit_search_from_any_start(self, tag):
        # The accepted step is the oracle's: the first qualifying grid index
        # at or after the start. A warm search scores whole chunks of
        # ``_WARM_CHUNK`` from its start, one from 0 whole chunks of
        # ``_ARMIJO_CHUNK``, and a search that finds nothing scores every
        # step from its start to the end of the grid.
        warm = optimizer._WARM_CHUNK
        cold = optimizer._ARMIJO_CHUNK
        for seed in range(6):
            ws, state, aux, f0, dd, grad = self._setup(tag, seed)
            size = len(ALPHAS)
            for start in (0, 1, 2, 7, 13, 18, 22, 27, 40, 120, size - 3):
                alpha, candidate, c_new, trials, index = _armijo_stack(
                    ws, state, grad, aux, f0, dd, start)
                expected = explicit_armijo_step(ws, state, grad, aux, f0, dd,
                                                start)
                assert alpha == expected, (seed, start)
                width = warm if start else cold
                if candidate is None:
                    assert (trials, index) == (size - start, None), \
                        (seed, start)
                    continue
                assert alpha == ALPHAS[index], (seed, start)
                assert index >= start
                assert trials == min(((index - start) // width + 1) * width,
                                     size - start), (seed, start)
                explicit = ws.signal(ws.theta(candidate))
                assert np.abs(c_new - explicit).max() <= \
                    1e-12 * np.abs(explicit).max()

    @pytest.mark.parametrize("tag", ["gc2", "fc"])
    def test_warm_search_cannot_end_a_run(self, tag, monkeypatch):
        # Every warm search is made to fail, and so is every search from the
        # thirtieth on. After a failed warm search the run goes on along
        # the gradient from index 0 at the same state; it stops as stalled
        # only when a search from 0 along the gradient fails.
        search, calls = optimizer._armijo_stack, []

        def forcing(ws, state, xi, aux, f, directional, start=0):
            calls.append((start, directional == _re_vdot(xi, xi),
                          state.tobytes()))
            if start or len(calls) >= 30:
                return 0.0, None, None, 0, None
            return search(ws, state, xi, aux, f, directional, start)

        monkeypatch.setattr(optimizer, "_armijo_stack", forcing)
        (_, trace), *_ = small_run(seed=0, tag=tag, n_elements=8)
        assert trace.final.stop_reason == "stalled"
        assert len(calls) == trace.final.iters_used >= 30
        warm = [i for i, (start, *_) in enumerate(calls) if start]
        assert len(warm) > 5
        for i in warm:
            start, along_gradient, state = calls[i + 1]
            assert (start, along_gradient, state) == (0, True, calls[i][2])
        # The last search, the one that ended the run, went from index 0
        # along the gradient.
        assert calls[-1][:2] == (0, True)


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
    # Chunks 16 and 32 wide from index 0, and 3 and 4 wide from a warm
    # start, score the same steps and accept the same one: every record but
    # the count of step sizes scored is equal.
    runs = {}
    for width, warm in ((16, 3), (32, 4)):
        monkeypatch.setattr(optimizer, "_ARMIJO_CHUNK", width)
        monkeypatch.setattr(optimizer, "_WARM_CHUNK", warm)
        runs[width] = [small_run(seed=seed, tag=tag, n_elements=8)[0]
                       for seed in range(3)]
    for (theta16, trace16), (theta32, trace32) in zip(runs[16], runs[32]):
        assert np.array_equal(theta16.theta, theta32.theta)
        assert trace16.final == trace32.final
        assert [replace(r, armijo_trials=0) for r in trace16.records] == \
            [replace(r, armijo_trials=0) for r in trace32.records]


@pytest.mark.parametrize("tag", ["sc", "gc2", "fc"])
def test_coefficients_reproduce_surrogate_sum(tag):
    # The per-iterate coefficients of ``stats``, with and without its
    # totals, and the batched scores give exactly the sum of the surrogate
    # formula written out from (tau, y).
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
        assert np.array_equal(
            ws.objective_batch(diagonals, aux),
            reference(ws.signals(diagonals), aux.tau, aux.y, ws.noise))
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
    """(workspace, state, auxiliaries, Riemannian gradient) at the start state of
    a connected-block instance with unit link gains."""
    config = config_for_tag(tag, n_elements=r)
    channels = generate_channels_from_gains(config, 1.0, 1.0, seed=r)
    beam = init_beamformer_uniform(config)
    ws, *_ = workspace_at(random_feasible(config, seed=r), channels, beam,
                          config)
    state = start_state(config, seed=r + 1)
    c = ws.signal(ws.theta(state))
    aux, _, _ = ws.stats(c)
    return ws, state, aux, ws.riemannian_gradient(state, c, aux)


def line_scores(ws, state, direction, alphas, aux):
    """The line search's scores on connected blocks: the phases of the
    geodesic's diagonals in the workspace of its bases."""
    frame = geodesic(state, direction)
    return ws.in_bases(frame.p).objective_batch(frame.diagonals(alphas),
                                                aux)


@pytest.mark.parametrize("r", [8, 32, 64])
@pytest.mark.parametrize("tag", ["gc2", "gc4", "fc"])
def test_eigenbasis_scores_match_explicit_candidates(tag, r):
    # The line search scores the diagonals exp(2 i alpha w) in the bases
    # P = U Q; the same steps scored at explicitly formed U(alpha) U(alpha)^T
    # agree to 1e-12.
    ws, state, aux, xi = gradient_at_start(tag, r)
    alphas = np.concatenate([[0.0, 1e-6, 1.0], 0.75 ** np.arange(200.0)])
    oracle = explicit_scores(ws, state, xi, alphas, aux)
    np.testing.assert_allclose(line_scores(ws, state, xi, alphas, aux),
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
    # O(R_G) orbit: U U^T, and so every score, stays at f(state).
    ws, state, aux, _ = gradient_at_start(tag, 8)
    rng = np.random.default_rng(11)
    k = rng.standard_normal(state.shape)
    vertical = state @ (k - k.transpose(0, 2, 1))
    f0 = ws.objective(ws.signal(ws.theta(state)), aux)
    alphas = np.concatenate([[1.0, 1e-6], 0.75 ** np.arange(16.0)])
    np.testing.assert_allclose(line_scores(ws, state, vertical, alphas, aux),
                               f0, rtol=1e-12, atol=0)
    moved, _ = retract_batch(state, vertical, alphas)
    assert np.abs(moved - state[None]).max() <= 1e-12


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

    def test_surrogate_records_monotone_and_beta_nonnegative(self):
        # Composite of the two guaranteed monotonicity pieces: accepted steps
        # never decrease the frozen-auxiliary objective, refreshes never
        # decrease it either, so the recorded surrogate never decreases.
        runs = 0
        for tag in ("sc", "gc2", "fc"):
            for seed in range(7):
                (theta, trace), *_ = small_run(seed=seed, tag=tag)
                surr = np.array([r.surrogate for r in trace.records])
                assert (np.diff(surr) >= -1e-9).all()
                assert all(r.beta >= 0.0 for r in trace.records)
                runs += 1
        assert runs >= 20

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
        # Desk sc at R = 64, seed 1: a stalled conjugate search used to be
        # retried on the unchanged iterate and direction, and stalled again.
        config, geometry = load_config(
            Path(__file__).resolve().parent.parent / "configs" / "desk.yaml")
        base = replace(config, n_elements=64, n_groups=1)
        config = replace(base, n_groups=64)
        channels = generate_channels(base, geometry, 1)
        inputs, stalls = [], []

        def recording_search(ws, state, xi, aux, f, directional, *rest):
            inputs.append((state.tobytes(), xi.tobytes(), f, directional,
                           rest))
            result = _armijo_stack(ws, state, xi, aux, f, directional, *rest)
            stalls.append(result[1] is None)
            return result

        monkeypatch.setattr(optimizer, "_armijo_stack", recording_search)
        _, trace = cga_optimize(channels, init_beamformer_uniform(base),
                                config, seed=1)
        assert any(stalls[:-1])  # a stall the run recovered from
        assert all(a != b for a, b in zip(inputs, inputs[1:]))
        assert trace.final.iters_used == len(inputs)


class TestObservability:
    def test_armijo_trials_count_the_chunks_scored(self):
        # Each search starts at grid index 0 (always on sc; on gc/fc at the
        # start point and after a stall) and then scores whole chunks of
        # ``_ARMIJO_CHUNK``, or on gc/fc after an accepted step at index m
        # at max(m - _WARM_BACKOFF, 0) and scores whole chunks of
        # ``_WARM_CHUNK``; a stalled search scores every step from its
        # start.
        for tag in ("sc", "gc2", "fc"):
            (_, trace), config, *_ = small_run(seed=1, tag=tag, n_elements=8)
            size = len(ALPHAS)
            assert trace.records[0].armijo_trials == 0
            start, warm_searches = 0, 0
            for rec in trace.records[1:]:
                if rec.step == 0.0:
                    assert rec.armijo_trials in (0, size - start)
                    start = 0
                    continue
                index = list(ALPHAS).index(rec.step)
                width = (optimizer._WARM_CHUNK if start
                         else optimizer._ARMIJO_CHUNK)
                assert rec.armijo_trials == min(
                    ((index - start) // width + 1) * width, size - start)
                warm_searches += start > 0
                if tag != "sc":
                    start = max(index - optimizer._WARM_BACKOFF, 0)
            if tag == "sc":
                assert warm_searches == 0
            else:
                assert warm_searches > 10

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
                result = 0.0, None, None, 0, None
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

    @pytest.mark.parametrize("reason", ["tolerance", "max_iters", "stalled",
                                        "nonfinite"])
    def test_every_stop_records_every_iterate(self, reason, monkeypatch):
        # A budget below one gc2 state at R = 4 (8 entries) still buffers
        # one, and every exit must write the last record.
        monkeypatch.setattr(optimizer, "_RESIDUAL_BUDGET", 4)
        calls = []
        if reason == "stalled":  # every search from the tenth on fails
            search = optimizer._armijo_stack

            def stalling(*args):
                calls.append(None)
                return (search(*args) if len(calls) < 10
                        else (0.0, None, None, 0, None))

            monkeypatch.setattr(optimizer, "_armijo_stack", stalling)
        if reason == "nonfinite":  # the twelfth rate is NaN
            stats = _Workspace.stats

            def failing_stats(ws, c):
                aux, rate, total = stats(ws, c)
                calls.append(None)
                return aux, (math.nan if len(calls) >= 12 else rate), total

            monkeypatch.setattr(_Workspace, "stats", failing_stats)
        (_, trace), *_ = small_run(seed=0 if reason == "tolerance" else 1,
                                   tag="gc2", max_iters=60)
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
                                    "grad_norm", "beta", "armijo_trials"]
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
