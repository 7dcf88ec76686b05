"""The fractional-programming surrogate as the optimizer evaluates it.

Auxiliaries come from ``_Workspace.stats``, per-user surrogate values from
``_Workspace.surrogate`` (the one definition of the formula), and the
objective from ``_Workspace.objective``, which sums it. The line search's
score ``_Workspace.objective_batch`` is the true sum-rate of a batch of
candidates, which the surrogate equals at the closed-form auxiliaries; the
true rate they are compared with is the dense reference in ``helpers``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris import Beamformer, ScatteringMatrix, validate_feasibility
from bdris.manifold import Geodesic, retract_batch

from helpers import (make_instance, random_aux, reference_sinr,
                     reference_sum_rate, start_diagonals, start_state,
                     workspace_at, zero_aux)


def bent_stack(stack, rng, scale=0.3):
    return stack + scale * (rng.standard_normal(stack.shape)
                            + 1j * rng.standard_normal(stack.shape))


class TestAuxiliaryUpdates:
    def test_tau_zero_beam(self):
        config, channels, theta, beam = make_instance(seed=0)
        beam0 = Beamformer(v=np.zeros_like(beam.v), power_budget=beam.power_budget)
        _, _, _, aux = workspace_at(theta, channels, beam0, config)
        assert np.all(aux.tau == 0.0)
        assert np.all(aux.y == 0.0)

    def test_tau_unit_when_signal_equals_noise(self):
        config, channels, theta, beam = make_instance(
            seed=0, n_users=1, n_tx=1, n_elements=1, n_groups=1, p_max=1.0)
        ws, *_ = workspace_at(theta, channels, beam, config)
        # |c|^2 = |2 * 0.5|^2 = 1 = noise power
        aux, _, _ = ws.stats(np.array([[2.0 * 0.5 + 0j]]))
        assert aux.tau[0] == pytest.approx(1.0, rel=1e-14)

    def test_tau_equals_sinr(self):
        config, channels, theta, beam = make_instance(seed=1)
        _, _, _, aux = workspace_at(theta, channels, beam, config)
        expected = reference_sinr(channels, theta.theta, beam.v,
                                  config.noise_power)
        for k in range(config.n_users):
            assert aux.tau[k] == pytest.approx(expected[k], rel=1e-13)

    def test_y_single_user_half(self):
        config, channels, theta, beam = make_instance(
            seed=0, n_users=1, n_tx=1, n_elements=1, n_groups=1, p_max=1.0)
        ws, *_ = workspace_at(theta, channels, beam, config)
        aux, _, _ = ws.stats(np.array([[1.0 + 0j]]))
        assert aux.y[0] == pytest.approx(0.5, rel=1e-14)

    def test_y_scalar_oracle_includes_own_stream(self):
        config, channels, theta, beam = make_instance(seed=2)
        _, _, _, aux = workspace_at(theta, channels, beam, config)
        e = channels.h_rx @ theta.theta @ channels.h_tx
        for k in range(config.n_users):
            c = [e[k] @ beam.v[:, i] for i in range(config.n_users)]
            denom = sum(abs(ci) ** 2 for ci in c) + config.noise_power
            assert aux.y[k] == pytest.approx(c[k] / denom, rel=1e-13)

    def test_tau_must_be_nonnegative(self):
        # The closed-form multipliers are SINRs, never negative, including
        # the zero-signal case.
        for seed in range(10):
            config, channels, theta, beam = make_instance(seed=seed)
            ws, _, c, aux = workspace_at(theta, channels, beam, config)
            assert (aux.tau >= 0).all()
        assert (ws.stats(np.zeros_like(c))[0].tau == 0).all()


class TestSurrogate:
    def test_zero_aux_gives_zero(self):
        config, channels, theta, beam = make_instance(seed=3)
        ws, _, c, _ = workspace_at(theta, channels, beam, config)
        terms = ws.surrogate(c, zero_aux(2))
        assert np.allclose(terms, 0.0, atol=1e-15)

    def test_tight_at_optimal_aux(self):
        for seed in range(30):
            config, channels, theta, beam = make_instance(
                seed=seed, n_users=3, n_tx=3, n_elements=6, n_groups=2)
            ws, _, c, aux = workspace_at(theta, channels, beam, config)
            terms = ws.surrogate(c, aux)
            rates = np.log2(1 + reference_sinr(channels, theta.theta, beam.v,
                                               config.noise_power))
            for k in range(config.n_users):
                assert terms[k] == pytest.approx(rates[k], abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 1000), aux_seed=st.integers(0, 10**6))
    def test_minorization(self, seed, aux_seed):
        config, channels, theta, beam = make_instance(seed=seed)
        ws, _, c, _ = workspace_at(theta, channels, beam, config)
        aux = random_aux(np.random.default_rng(aux_seed), config.n_users)
        terms = ws.surrogate(c, aux)
        rates = np.log2(1 + reference_sinr(channels, theta.theta, beam.v,
                                           config.noise_power))
        assert (terms <= rates + 1e-12).all()

    def test_joint_update_never_decreases_surrogate(self):
        rng = np.random.default_rng(99)
        for seed in range(20):
            config, channels, theta, beam = make_instance(seed=seed)
            ws, stack, c, aux = workspace_at(theta, channels, beam, config)
            before = ws.objective(c, random_aux(rng, config.n_users))
            after = ws.objective(c, aux)
            assert after >= before - 1e-12


class TestAsymmetryResidual:
    """The asymmetry ||Theta_g - Theta_g^T||_F that the objective used to
    penalize, as ``validate_feasibility`` measures it. The optimizer has no
    penalty: every state it visits maps to exactly symmetric blocks."""

    def test_symmetric_matrix_zero(self):
        config, channels, theta, beam = make_instance(seed=4)
        ws, *_ = workspace_at(theta, channels, beam, config)
        u = start_state(config, seed=5)
        body = np.random.default_rng(4).standard_normal(u.shape)
        w, q = np.linalg.eigh(body + body.transpose(0, 2, 1))
        moved, _ = retract_batch(u, Geodesic(u @ q, w, q.transpose(0, 2, 1)),
                                 np.array([0.0, 0.3, 5.0]))
        for blocks in ws.theta(moved):
            report = validate_feasibility(
                ScatteringMatrix.from_block_stack(blocks), 1e-13, 1e-14)
            assert report.passed

    def test_hand_computed_asymmetry(self):
        stack = np.array([[[0, 1], [-1, 0]]], dtype=complex)
        report = validate_feasibility(ScatteringMatrix.from_block_stack(stack))
        assert report.symmetry_residuals[0] == pytest.approx(np.sqrt(8.0),
                                                             rel=1e-14)

    def test_single_connected_always_zero(self):
        # A 1 x 1 block is the square of its unit Takagi factor.
        rng = np.random.default_rng(5)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, 4)).reshape(4, 1, 1)
        config, channels, theta, beam = make_instance(seed=5, n_groups=4)
        ws, *_ = workspace_at(theta, channels, beam, config)
        stack = ws.theta(u)
        assert np.abs(stack - u ** 2).max() <= 1e-15
        report = validate_feasibility(ScatteringMatrix.from_block_stack(stack))
        assert report.max_symmetry == 0.0

    def test_blockwise_equals_dense(self):
        # The blockwise residuals add up to the dense asymmetry, and with
        # zero auxiliaries the objective is exactly 0 at any point.
        rng = np.random.default_rng(6)
        config, channels, theta, beam = make_instance(
            seed=6, n_elements=6, n_groups=2)
        ws, _, _, _ = workspace_at(theta, channels, beam, config)
        stack = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        dense = np.zeros((6, 6), dtype=complex)
        dense[:3, :3], dense[3:, 3:] = stack
        expected = np.linalg.norm(dense - dense.T) ** 2
        report = validate_feasibility(ScatteringMatrix.from_block_stack(stack))
        assert np.sum(report.symmetry_residuals ** 2) == pytest.approx(
            expected, rel=1e-12)
        assert ws.objective(ws.signal(stack), zero_aux(2)) == 0.0


class TestObjective:
    def test_equals_sum_rate_at_optimal_aux(self):
        config, channels, theta, beam = make_instance(seed=7)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        value = ws.objective(c, aux)
        assert value == pytest.approx(
            reference_sum_rate(channels, theta.theta, beam.v,
                               config.noise_power), abs=1e-10)

    def test_matches_per_user_formula(self):
        # The one surrogate formula against the optimizer docstring's
        # expression written out user by user, at arbitrary auxiliaries.
        config, channels, theta, beam = make_instance(seed=8, n_users=3,
                                                      n_tx=3)
        ws, stack, c, _ = workspace_at(theta, channels, beam, config)
        aux = random_aux(np.random.default_rng(8), config.n_users)
        tau, y = aux.tau, aux.y
        ln2 = np.log(2.0)
        for k, term in enumerate(ws.surrogate(c, aux)):
            denom = sum(abs(c[k, i]) ** 2 for i in range(3)) + config.noise_power
            quad = (2.0 * (np.conj(y[k]) * c[k, k]).real
                    - abs(y[k]) ** 2 * denom)
            expected = (np.log2(1.0 + tau[k]) - tau[k] / ln2
                        + (1.0 + tau[k]) / ln2 * quad)
            assert term == pytest.approx(expected, rel=1e-13, abs=1e-13)
        assert ws.objective(c, aux) == pytest.approx(
            ws.surrogate(c, aux).sum(), rel=0, abs=0)

    @pytest.mark.parametrize("dims", [(2, 4, 2), (3, 6, 1), (2, 4, 4),
                                      (4, 8, 1), (4, 64, 64), (4, 8, 4),
                                      (4, 8, 2), (4, 32, 1)])
    def test_batch_matches_single(self, dims):
        # objective_batch (the line search's true-rate score) on diagonals
        # in the bases P of a geodesic against the rate of ``stats`` (per
        # iterate) at the explicitly formed blocks P diag(d) P^T, for the
        # diagonals of a line search and for arbitrary ones.
        k, r, n_groups = dims
        rng = np.random.default_rng(r * 10 + n_groups)
        config, channels, theta, beam = make_instance(
            seed=r + n_groups, n_users=k, n_tx=k, n_elements=r,
            n_groups=n_groups)
        ws, *_, aux = workspace_at(theta, channels, beam, config)
        state = start_state(config, seed=r + n_groups + 1)
        direction = bent_stack(np.zeros_like(state), rng, scale=1.0)
        alphas = 0.75 ** np.arange(6, dtype=float)
        # The frame of S = Re(direction) made symmetric, from its own
        # eigendecomposition S = Q diag(w) Q^T: P = U Q.
        body = direction.real + direction.real.transpose(0, 2, 1)
        w, q = np.linalg.eigh(body)
        frame = Geodesic(state @ q, w, q.transpose(0, 2, 1))
        line, p = ws.in_bases(frame.p), frame.p
        diagonals = frame.diagonals(alphas)
        arbitrary = bent_stack(np.zeros_like(diagonals[:3]), rng, scale=1.0)
        batch = np.concatenate([diagonals, arbitrary])
        values = line.objective_batch(batch)
        for diagonal, value in zip(batch, values):
            blocks = (p * diagonal[:, None, :]) @ p.transpose(0, 2, 1)
            single = ws.rate(ws.signal(blocks))
            assert value == pytest.approx(single, rel=1e-12, abs=0)

    @pytest.mark.parametrize("tag, r, n_groups", [
        ("sc", 64, 64), ("gc2", 8, 4), ("gc4", 8, 2), ("fc", 8, 1),
        ("fc", 32, 1)])
    def test_batch_at_optimal_aux_equals_rate(self, tag, r, n_groups):
        # At a feasible point the batched score, the true sum-rate, equals
        # the objective at the closed-form auxiliaries and the dense
        # reference rate, whichever contraction computes the signal matrix:
        # the point's diagonals in the bases cga_optimize starts from, or its
        # blocks.
        config, channels, theta, beam = make_instance(
            seed=r + n_groups, n_users=4, n_tx=4, n_elements=r,
            n_groups=n_groups)
        ws, _, c, aux = workspace_at(theta, channels, beam, config)
        rate = reference_sum_rate(channels, theta.theta, beam.v,
                                  config.noise_power)
        line, diagonals = start_diagonals(ws, config, seed=r + n_groups + 1)
        value = line.objective_batch(diagonals)[0]
        assert value == pytest.approx(ws.objective(c, aux),
                                      rel=1e-12, abs=0)
        assert value == pytest.approx(rate, rel=1e-12, abs=0)


def test_tightness_invariant_many_instances():
    # Sum-level identity at the closed-form auxiliaries, 100 instances.
    count = 0
    for seed in range(100):
        dims = [(2, 2, 4, 2), (3, 4, 8, 4), (4, 4, 16, 4), (2, 3, 6, 1)][seed % 4]
        k, n, r, g = dims
        config, channels, theta, beam = make_instance(
            seed=seed, n_users=k, n_tx=n, n_elements=r, n_groups=g)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        gap = abs(ws.objective(c, aux)
                  - reference_sum_rate(channels, theta.theta, beam.v,
                                       config.noise_power))
        assert gap <= 1e-10
        count += 1
    assert count == 100
