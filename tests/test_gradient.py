"""The closed-form gradients the optimizer runs.

``_Workspace.gradient`` (with respect to the scattering blocks) and its
Takagi-factor chain rule ``factor_gradient`` are checked against central
differences of ``_Workspace.objective`` with the stacked finite-difference
oracle from ``helpers``, which is itself checked on functions with known
gradients.
"""

import numpy as np
import pytest

from bdris import Beamformer
from bdris.gradient import factor_gradient

from helpers import (central_difference_gradient, make_instance, start_state,
                     workspace_at, zero_aux)


def rel_error(closed_form: np.ndarray, reference: np.ndarray) -> float:
    num = max(np.linalg.norm(x - y) for x, y in zip(closed_form, reference))
    den = max(max(np.linalg.norm(x) for x in closed_form), 1e-300)
    return num / den


def bent_copy(stack, rng, scale=0.2):
    return stack + scale * (rng.standard_normal(stack.shape)
                            + 1j * rng.standard_normal(stack.shape))


def fd_of_objective(ws, stack, aux, step):
    """Central differences of the frozen-auxiliary objective at ``stack``."""
    return central_difference_gradient(
        lambda s: ws.objective(ws.signal(s), aux), stack, step)


class TestClosedForm:
    def test_zero_aux_symmetric_point_gives_zero(self):
        config, channels, theta, beam = make_instance(seed=0)
        ws, stack, c, _ = workspace_at(theta, channels, beam, config)
        grad = ws.gradient(c, zero_aux(2))
        assert np.allclose(grad, 0, atol=1e-14)

    def test_zero_aux_reduces_to_penalty_gradient(self):
        # There is no penalty term any more: zero auxiliaries leave a zero
        # gradient at any point, symmetric or not.
        rng = np.random.default_rng(1)
        config, channels, theta, beam = make_instance(seed=1)
        ws, stack, _, _ = workspace_at(theta, channels, beam, config)
        bent = bent_copy(stack, rng)
        grad = ws.gradient(ws.signal(bent), zero_aux(2))
        assert np.array_equal(grad, np.zeros_like(bent))

    def test_matches_finite_differences(self):
        config, channels, theta, beam = make_instance(seed=2, n_elements=4,
                                                      n_groups=2)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        cf = ws.gradient(c, aux)
        fd = fd_of_objective(ws, stack, aux, step=1e-6)
        assert rel_error(cf, fd) <= 1e-6

    def test_oracle_agreement_across_architectures(self):
        cases = [(2, 2, 1), (2, 4, 1), (2, 4, 2), (2, 4, 4), (2, 8, 2),
                 (4, 4, 4), (4, 8, 1), (4, 8, 2), (4, 8, 4), (4, 8, 8)]
        count = 0
        for seed_base, (k, r, group_size) in enumerate(cases * 2):
            config, channels, theta, beam = make_instance(
                seed=31 * seed_base, n_users=k, n_tx=k, n_elements=r,
                n_groups=r // group_size)
            ws, stack, c, aux = workspace_at(theta, channels, beam, config)
            cf = ws.gradient(c, aux)
            fd = fd_of_objective(ws, stack, aux, step=1e-6)
            assert rel_error(cf, fd) <= 1e-6
            count += 1
        assert count >= 20

    def test_directional_derivative_consistency(self):
        rng = np.random.default_rng(3)
        config, channels, theta, beam = make_instance(seed=3)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        grad = ws.gradient(c, aux)
        direction = rng.standard_normal(grad.shape) \
            + 1j * rng.standard_normal(grad.shape)
        predicted = float(np.real(np.vdot(grad, direction)))
        f0 = ws.objective(c, aux)
        errors = []
        for t in (1e-4, 5e-5):
            moved = stack + t * direction
            f1 = ws.objective(ws.signal(moved), aux)
            errors.append(abs((f1 - f0) - t * predicted))
        # first-order term dominates, remainder shrinks ~quadratically
        assert errors[0] <= 1e-5
        assert errors[1] <= errors[0] / 2.5


class TestDiagonalBeamFastPath:
    """Diagonal-beamformer instances, on the general kernel the solver runs."""

    def test_single_user_matches_finite_differences(self):
        config, channels, theta, beam = make_instance(
            seed=5, n_users=1, n_tx=1, n_elements=2, n_groups=1, p_max=1.0)
        assert np.array_equal(beam.v, np.eye(1))
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        cf = ws.gradient(c, aux)
        fd = fd_of_objective(ws, stack, aux, step=1e-6)
        assert rel_error(cf, fd) <= 1e-6

    def test_zero_power_leaves_penalty_term(self):
        # A zero-power beamformer gives zero auxiliaries at every point, and
        # with no penalty term the gradient there is zero.
        rng = np.random.default_rng(6)
        config, channels, theta, beam = make_instance(seed=6)
        beam0 = Beamformer(v=np.zeros_like(beam.v), power_budget=beam.power_budget)
        ws, stack, _, _ = workspace_at(theta, channels, beam0, config)
        bent = bent_copy(stack, rng)
        c = ws.signal(bent)
        aux, _, _ = ws.stats(c)
        assert np.array_equal(ws.gradient(c, aux), np.zeros_like(bent))


class TestFiniteDifferenceOracle:
    def test_quadratic_test_function(self):
        rng = np.random.default_rng(8)
        config, channels, theta, _ = make_instance(seed=8)
        stack = theta.block_stack()
        target = rng.standard_normal(stack.shape) \
            + 1j * rng.standard_normal(stack.shape)

        def objective(candidate):
            return -float(np.sum(np.abs(candidate - target) ** 2))

        fd = central_difference_gradient(objective, stack, step=1e-5)
        assert np.allclose(fd, 2.0 * (target - stack), atol=1e-8)

    def test_exact_on_quadratic_objective(self):
        # The frozen-auxiliary objective is quadratic in every coordinate, so
        # central differences carry no truncation error even at coarse steps.
        config, channels, theta, beam = make_instance(seed=9)
        ws, stack, c, aux = workspace_at(theta, channels, beam, config)
        cf = ws.gradient(c, aux)
        fd = fd_of_objective(ws, stack, aux, step=1e-2)
        assert max(np.linalg.norm(a - b) for a, b in zip(cf, fd)) <= 1e-10

    def test_second_order_accuracy_on_cubic(self):
        # Truncation error needs a third derivative to show; use Re tr(X^3),
        # whose ascent gradient is 3 (X^2)^H.
        config, channels, theta, _ = make_instance(seed=9)
        stack = theta.block_stack()

        def objective(candidate):
            return float(np.real(np.trace(candidate @ candidate @ candidate,
                                          axis1=1, axis2=2)).sum())

        exact = 3.0 * (stack @ stack).conj().transpose(0, 2, 1)
        errors = []
        for step in (2e-3, 1e-3):
            fd = central_difference_gradient(objective, stack, step)
            errors.append(max(np.linalg.norm(a - b) for a, b in zip(exact, fd)))
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0  # ~4x for halved step

    def test_penalty_only_objective(self):
        # An asymmetry penalty -nu ||X - X^T||_F^2, whose ascent gradient is
        # -4 nu (X - X^T).
        rng = np.random.default_rng(10)
        config, channels, theta, _ = make_instance(seed=10)
        bent = bent_copy(theta.block_stack(), rng)
        nu = 1.7

        def objective(candidate):
            diff = candidate - candidate.transpose(0, 2, 1)
            return -nu * float(np.sum(np.abs(diff) ** 2))

        fd = central_difference_gradient(objective, bent, step=1e-6)
        assert np.allclose(fd, -4.0 * nu * (bent - bent.transpose(0, 2, 1)),
                           atol=1e-7)

    def test_rejects_nonpositive_step(self):
        config, channels, theta, beam = make_instance(seed=11)
        ws, stack, _, aux = workspace_at(theta, channels, beam, config)
        with pytest.raises(ValueError):
            fd_of_objective(ws, stack, aux, 0.0)


class TestTakagiFactor:
    """``factor_gradient``: the gradient with respect to U of the objective
    at Theta = U U^T, the ambient gradient ``cga_optimize`` projects."""

    @pytest.mark.parametrize("n_groups", [4, 2, 1])   # gc2, gc4, fc at R = 8
    def test_matches_finite_differences(self, n_groups):
        for seed in range(3):
            config, channels, theta, beam = make_instance(
                seed=40 + seed, n_users=4, n_tx=4, n_elements=8,
                n_groups=n_groups)
            ws, _, c, aux = workspace_at(theta, channels, beam, config)
            u = start_state(config, seed=41 + seed)
            assert np.array_equal(ws.theta(u), theta.block_stack())
            cf = factor_gradient(ws.gradient(c, aux), u)
            fd = central_difference_gradient(
                lambda s: ws.objective(ws.signal(ws.theta(s)), aux), u,
                step=1e-6)
            assert rel_error(cf, fd) <= 1e-6
