import numpy as np
import pytest

from bdris import (Architecture, Beamformer, ScatteringMatrix,
                   generate_channels_from_gains, init_beamformer_mmse,
                   init_beamformer_uniform, parse_architecture_tag)
from bdris.gradient import channel_stacks

from helpers import make_config, make_instance, reference_sinr, workspace_at


def identity_theta(config):
    return ScatteringMatrix(theta=np.eye(config.n_elements, dtype=complex),
                            group_size=config.group_size)


class TestScatteringMatrix:
    def test_rejects_off_block_entries(self):
        theta = np.ones((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="off-block"):
            ScatteringMatrix(theta=theta, group_size=2)

    def test_architecture_follows_group_size(self):
        theta = np.eye(4, dtype=complex)
        expected = {1: Architecture.SINGLE_CONNECTED,
                    2: Architecture.GROUP_CONNECTED,
                    4: Architecture.FULLY_CONNECTED}
        for group_size, architecture in expected.items():
            matrix = ScatteringMatrix(theta=theta, group_size=group_size)
            assert matrix.architecture is architecture
        with pytest.raises(ValueError, match="does not divide"):
            ScatteringMatrix(theta=theta, group_size=3)

    def test_block_roundtrip(self):
        config, channels, theta, beam = make_instance(seed=0, n_elements=6,
                                                      n_groups=3)
        rebuilt = ScatteringMatrix.from_block_stack(theta.block_stack())
        assert np.array_equal(rebuilt.theta, theta.theta)
        assert rebuilt.n_groups == 3
        for g, block in enumerate(theta.block_stack()):
            rows = slice(2 * g, 2 * g + 2)
            assert np.array_equal(block, theta.theta[rows, rows])
        # Blocks are copies, complex even for a real input.
        real = ScatteringMatrix(theta=np.eye(6), group_size=3)
        blocks = real.block_stack()
        assert blocks.dtype == complex and np.array_equal(blocks[1], np.eye(3))
        blocks[0] = 0.0
        assert real.theta[0, 0] == 1.0

    def test_parse_tags(self):
        assert parse_architecture_tag("sc", 8) == (Architecture.SINGLE_CONNECTED, 1)
        assert parse_architecture_tag("gc4", 8) == (Architecture.GROUP_CONNECTED, 4)
        assert parse_architecture_tag("fc", 8) == (Architecture.FULLY_CONNECTED, 8)
        with pytest.raises(ValueError):
            parse_architecture_tag("gc3", 8)
        with pytest.raises(ValueError):
            parse_architecture_tag("mesh", 8)
        with pytest.raises(ValueError, match="unknown architecture tag"):
            parse_architecture_tag("gc0", 8)


class TestEquivalentChannel:
    """The composite signal matrix C = H_rx Theta H_tx V of the workspace."""

    def test_identity_scattering(self):
        config, channels, _, beam = make_instance(seed=1)
        ws, _, c, _ = workspace_at(identity_theta(config), channels, beam,
                                   config)
        assert np.allclose(c, channels.h_rx @ channels.h_tx @ beam.v,
                           atol=1e-13)

    def test_matches_dense_triple_product(self):
        config, channels, theta, beam = make_instance(seed=2, n_elements=4,
                                                      n_groups=2)
        _, _, c, _ = workspace_at(theta, channels, beam, config)
        dense = channels.h_rx @ theta.theta @ channels.h_tx @ beam.v
        assert np.allclose(c, dense, atol=1e-12)

    def test_diagonal_phases_scale_rows(self):
        config = make_config(n_elements=2, n_groups=2)
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=5)
        beam = init_beamformer_uniform(config)
        phases = np.exp(1j * np.array([0.3, -1.2]))
        theta = ScatteringMatrix(theta=np.diag(phases),
                                 group_size=1)
        _, _, c, _ = workspace_at(theta, channels, beam, config)
        scaled = channels.h_rx @ (phases[:, None] * channels.h_tx) @ beam.v
        assert np.allclose(c, scaled, atol=1e-13)

    def test_linear_in_theta(self):
        config, channels, theta_a, beam = make_instance(seed=3)
        _, _, theta_b, _ = make_instance(seed=4)
        ws, stack_a, c_a, _ = workspace_at(theta_a, channels, beam, config)
        stack_b = theta_b.block_stack()
        assert np.allclose(ws.signal(stack_a + stack_b),
                           c_a + ws.signal(stack_b), atol=1e-12)

    def test_shape_mismatch(self):
        config, channels, theta, beam = make_instance(seed=0)
        ws, *_ = workspace_at(theta, channels, beam, config)
        _, _, theta8, _ = make_instance(seed=0, n_elements=8, n_groups=2)
        with pytest.raises(ValueError):
            ws.signal(theta8.block_stack())


class TestGroupSlice:
    """Groupwise channel factors: C = sum_g a[g] @ Theta_g @ b[g]."""

    def test_single_group_returns_everything(self):
        config, channels, _, beam = make_instance(seed=6, n_elements=4,
                                                  n_groups=1)
        a, b = channel_stacks(channels, beam.v, 4)
        assert np.array_equal(a[0], channels.h_rx)
        assert np.allclose(b[0], channels.h_tx @ beam.v, atol=1e-15)

    def test_scalar_groups(self):
        config, channels, _, beam = make_instance(seed=7, n_elements=4,
                                                  n_groups=4)
        a, b = channel_stacks(channels, beam.v, 1)
        assert a.shape == (4, config.n_users, 1)
        assert b.shape == (4, 1, config.n_users)

    def test_reconstruction_and_row_sum(self):
        config, channels, theta, beam = make_instance(seed=8, n_elements=6,
                                                      n_groups=2)
        a, b = channel_stacks(channels, beam.v, theta.group_size)
        parts = [a[g] @ block @ b[g]
                 for g, block in enumerate(theta.block_stack())]
        dense = channels.h_rx @ theta.theta @ channels.h_tx @ beam.v
        assert np.allclose(sum(parts), dense, atol=1e-12)
        assert np.array_equal(np.hstack(list(a)), channels.h_rx)
        assert np.allclose(np.vstack(list(b)), channels.h_tx @ beam.v,
                           atol=1e-15)

    def test_out_of_range(self):
        # A group size that does not divide R has no block structure.
        config, channels, _, beam = make_instance(seed=9)
        with pytest.raises(ValueError):
            channel_stacks(channels, beam.v, 3)


class TestRates:
    """Closed-form SINRs (tau) and sum-rate of ``_Workspace.stats``."""

    def test_single_user_no_interference(self):
        config, channels, theta, beam = make_instance(seed=10, n_users=1,
                                                      n_tx=1, n_elements=2,
                                                      n_groups=1,
                                                      noise_power=0.5)
        _, _, _, aux = workspace_at(theta, channels, beam, config)
        e = channels.h_rx @ theta.theta @ channels.h_tx
        expected = abs(e[0] @ beam.v[:, 0]) ** 2 / 0.5
        assert aux.tau[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_beam_column(self):
        config, channels, theta, beam = make_instance(seed=11)
        v = beam.v.copy()
        v[:, 0] = 0
        beam2 = Beamformer(v=v, power_budget=beam.power_budget)
        _, _, _, aux = workspace_at(theta, channels, beam2, config)
        assert aux.tau[0] == 0.0

    def test_two_user_scalar_oracle(self):
        config, channels, theta, beam = make_instance(seed=12)
        _, _, _, aux = workspace_at(theta, channels, beam, config)
        e = channels.h_rx @ theta.theta @ channels.h_tx
        n0 = config.noise_power
        for k in range(2):
            c = [e[k] @ beam.v[:, i] for i in range(2)]
            expected = abs(c[k]) ** 2 / (abs(c[1 - k]) ** 2 + n0)
            assert aux.tau[k] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(aux.tau, reference_sinr(channels, theta.theta, beam.v,
                                               n0), rtol=1e-12)

    def test_sinr_phase_invariance(self):
        config, channels, theta, beam = make_instance(seed=13)
        ws, _, c, aux = workspace_at(theta, channels, beam, config)
        rotated, _, _ = ws.stats(np.exp(1j * 0.7) * c)
        assert np.allclose(rotated.tau, aux.tau, rtol=1e-12)

    def test_sum_rate_zero_when_no_signal(self):
        config, channels, theta, beam = make_instance(seed=14)
        beam0 = Beamformer(v=np.zeros_like(beam.v), power_budget=beam.power_budget)
        ws, _, c, _ = workspace_at(theta, channels, beam0, config)
        assert ws.rate(c) == 0.0

    def test_sum_rate_unit_sinr(self):
        config, channels, theta, beam = make_instance(
            seed=0, n_users=1, n_tx=1, n_elements=2, n_groups=1, p_max=1.0)
        ws, *_ = workspace_at(theta, channels, beam, config)
        assert ws.rate(np.array([[1.0 + 0j]])) == pytest.approx(1.0, abs=1e-12)

    def test_sum_rate_matches_per_user_sum(self):
        config, channels, theta, beam = make_instance(seed=15)
        ws, _, c, aux = workspace_at(theta, channels, beam, config)
        total = sum(np.log2(1 + t) for t in reference_sinr(
            channels, theta.theta, beam.v, config.noise_power))
        assert ws.rate(c) == pytest.approx(total, rel=1e-12)
        assert ws.rate(c) == pytest.approx(np.log2(1 + aux.tau).sum(), rel=1e-15)

    def test_zero_phase_single_connected_equals_direct_product(self):
        config, channels, _, beam = make_instance(seed=16, n_elements=4,
                                                  n_groups=4)
        theta = ScatteringMatrix(theta=np.eye(4, dtype=complex),
                                 group_size=1)
        ws, _, c, _ = workspace_at(theta, channels, beam, config)
        direct = ws.rate(channels.h_rx @ channels.h_tx @ beam.v)
        assert ws.rate(c) == pytest.approx(direct, rel=1e-12)


class TestBeamformers:
    def test_uniform_fully_loaded_identity(self):
        config = make_config(n_users=4, n_tx=4, n_elements=4, n_groups=2,
                             p_max=4.0)
        beam = init_beamformer_uniform(config)
        assert np.allclose(beam.v, np.eye(4), atol=1e-15)

    def test_uniform_two_user(self):
        config = make_config(p_max=1.0)
        beam = init_beamformer_uniform(config)
        assert np.allclose(beam.v, np.diag([np.sqrt(0.5), np.sqrt(0.5)]),
                           atol=1e-15)

    def test_uniform_exact_power(self):
        config = make_config(n_users=3, n_tx=5, n_elements=4, n_groups=2,
                             p_max=2.7)
        beam = init_beamformer_uniform(config)
        assert np.linalg.norm(beam.v) ** 2 == pytest.approx(2.7, rel=1e-14)
        assert beam.v.shape == (5, 3)

    def test_power_budget_enforced(self):
        with pytest.raises(ValueError, match="power"):
            Beamformer(v=np.eye(2, dtype=complex), power_budget=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_nonfinite_entries_rejected(self, bad):
        # NaN slips past the power check (nan > budget is False).
        v = np.eye(2, dtype=complex) * 0.5
        v[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Beamformer(v=v, power_budget=1.0)

    def test_mmse_identity_channel(self):
        config = make_config(n_users=2, n_tx=2, p_max=2.0, noise_power=1e-9)
        beam = init_beamformer_mmse(np.eye(2, dtype=complex), config)
        assert np.allclose(beam.v, np.eye(2), atol=1e-6)

    def test_mmse_power_normalization(self):
        config, channels, theta, _ = make_instance(seed=17, p_max=3.0)
        e = channels.h_rx @ theta.theta @ channels.h_tx
        beam = init_beamformer_mmse(e, config)
        assert np.linalg.norm(beam.v) ** 2 == pytest.approx(3.0, abs=1e-10)

    def test_mmse_matches_direct_solve(self):
        config, channels, theta, _ = make_instance(seed=18)
        e = channels.h_rx @ theta.theta @ channels.h_tx
        beam = init_beamformer_mmse(e, config)
        reg = config.n_users * config.noise_power / config.p_max
        raw = e.conj().T @ np.linalg.inv(e @ e.conj().T + reg * np.eye(2))
        expected = raw * np.sqrt(config.p_max) / np.linalg.norm(raw)
        assert np.allclose(beam.v, expected, atol=1e-12)
