"""Blockwise unitary-manifold kernels on (G, R_G, R_G) stacks.

``project_stack``, ``geodesic_frame``, ``retract_batch`` and the inner
product ``_re_vdot`` are the functions ``cga_optimize`` calls;
``random_feasible`` and the Takagi factors of ``random_feasible_stack`` are
its start. ``retract_batch`` moves along the ``geodesic_frame`` of a real
symmetric S, on blocks of every size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris import random_feasible, validate_feasibility
from bdris.manifold import (geodesic_frame, project_stack,
                            random_feasible_stack, retract_batch,
                            unitarity_residuals)
from bdris.optimizer import _re_vdot

from helpers import make_config, make_instance

# A retraction at zero step reproduces its base point up to the rounding of
# (U V) V^H with V unitary.
ROUNDING = 1e-14


def random_blocks(rng, n_groups, size):
    shape = (n_groups, size, size)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def symmetric_blocks(rng, n_groups, size):
    """A stack of real symmetric S_g, the body coordinates of a step."""
    s = rng.standard_normal((n_groups, size, size))
    return s + s.transpose(0, 2, 1)


def step_along(stack, direction):
    """What ``retract_batch`` takes for the step: the ``geodesic_frame`` of
    the real part of ``direction`` made symmetric."""
    body = direction.real
    return geodesic_frame(stack, body + body.transpose(0, 2, 1))


def tangency_residual(direction: np.ndarray, stack: np.ndarray) -> float:
    lift = stack.conj().transpose(0, 2, 1) @ direction
    return float(np.linalg.norm(lift + lift.conj().transpose(0, 2, 1),
                                axis=(1, 2)).max())


class TestTangentProject:
    def test_base_point_projects_to_zero(self):
        config, _, theta, _ = make_instance(seed=0)
        stack = theta.block_stack()
        assert np.linalg.norm(project_stack(stack, stack)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        config, _, theta, _ = make_instance(seed=1, n_elements=6, n_groups=2)
        stack = theta.block_stack()
        once = project_stack(random_blocks(rng, 2, 3), stack)
        twice = project_stack(once, stack)
        assert np.linalg.norm(once - twice, axis=(1, 2)).max() <= 1e-12

    def test_output_is_tangent(self):
        rng = np.random.default_rng(2)
        config, _, theta, _ = make_instance(seed=2, n_elements=6, n_groups=2)
        stack = theta.block_stack()
        projected = project_stack(random_blocks(rng, 2, 3), stack)
        assert tangency_residual(projected, stack) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(3)
        config, _, theta, _ = make_instance(seed=3)
        stack = theta.block_stack()
        a, b = random_blocks(rng, 2, 2), random_blocks(rng, 2, 2)
        lhs = project_stack(2.0 * a + 3.0 * b, stack)
        rhs = 2.0 * project_stack(a, stack) + 3.0 * project_stack(b, stack)
        assert np.linalg.norm(lhs - rhs, axis=(1, 2)).max() <= 1e-12


class TestRetract:
    def test_zero_step_returns_theta_exactly(self):
        # "Exactly" up to the rounding of (U V) V^H, about 1e-15: the kernel
        # has no zero-step short-circuit.
        rng = np.random.default_rng(4)
        for n_elements, n_groups in ((4, 2), (4, 4), (6, 1)):
            config, _, theta, _ = make_instance(seed=4, n_elements=n_elements,
                                                n_groups=n_groups)
            stack = theta.block_stack()
            direction = random_blocks(rng, n_groups, n_elements // n_groups)
            moved, ok = retract_batch(stack, step_along(stack, direction),
                                      np.array([0.0]))
            assert ok[0]
            assert np.abs(moved[0] - stack).max() <= ROUNDING

    def test_zero_direction_returns_theta_for_any_alpha(self):
        config, _, theta, _ = make_instance(seed=5)
        stack = theta.block_stack()
        moved, ok = retract_batch(stack, step_along(stack,
                                                    np.zeros_like(stack)),
                                  np.array([0.0, 0.5, 10.0]))
        assert ok.all()
        assert np.abs(moved - stack[None]).max() <= ROUNDING

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10**6), alpha=st.floats(0.0, 5.0))
    def test_output_blockwise_unitary(self, seed, alpha):
        rng = np.random.default_rng(seed)
        config, _, theta, _ = make_instance(seed=seed % 100, n_elements=6,
                                            n_groups=2)
        stack = theta.block_stack()
        moved, ok = retract_batch(
            stack, step_along(stack, random_blocks(rng, 2, 3)),
            np.array([alpha]))
        assert ok[0]
        assert unitarity_residuals(moved[0]).max() <= 1e-10

    def test_rank_deficient_target_raises(self):
        # The step that took the old tangent retraction of a 1 x 1 block
        # through zero: the exponential map is never rank deficient, so
        # every candidate is flagged valid and stays unitary, whatever the
        # block size.
        for size in (1, 2):
            theta_stack = np.stack([np.eye(size, dtype=complex)])
            direction = np.stack([-np.eye(size, dtype=complex)])
            moved, ok = retract_batch(theta_stack,
                                      step_along(theta_stack, direction),
                                      np.array([1.0, 0.5]))
            assert ok.all()
            assert max(unitarity_residuals(m).max() for m in moved) <= 1e-12


@pytest.mark.parametrize("size", [1, 2, 4, 8])
class TestExponentialMap:
    """``retract_batch`` on blocks of every size: U exp(i alpha S) along the
    ``geodesic_frame`` of a real symmetric S."""

    def _point(self, size, seed=0):
        rng = np.random.default_rng(seed)
        u = random_feasible_stack(rng, 3, size)
        return u, symmetric_blocks(rng, 3, size)

    def test_zero_step_returns_base(self, size):
        u, body = self._point(size)
        moved, ok = retract_batch(u, geodesic_frame(u, body), np.array([0.0]))
        assert ok.all()
        assert np.abs(moved[0] - u).max() <= 1e-14

    def test_unitary_for_large_steps(self, size):
        u, body = self._point(size, seed=1)
        alphas = np.concatenate([np.linspace(0.0, 10.0, 21),
                                 0.75 ** np.arange(32.0)])
        moved, ok = retract_batch(u, geodesic_frame(u, body), alphas)
        assert ok.all()
        assert max(unitarity_residuals(m).max() for m in moved) <= 1e-13

    def test_velocity_at_zero_is_horizontal_part(self, size):
        # The velocity at zero is U (i S), a horizontal direction: it moves
        # U U^T, unlike the vertical U K with K real antisymmetric.
        u, body = self._point(size, seed=2)
        h = 1e-5
        moved, _ = retract_batch(u, geodesic_frame(u, body),
                                 np.array([h, -h]))
        velocity = (moved[0] - moved[1]) / (2.0 * h)
        assert np.abs(velocity - u @ (1j * body)).max() <= 1e-6

    def test_matches_matrix_exponential(self, size):
        # The candidates are U exp(i alpha S), with the exponential formed
        # as the power series of i alpha S (steps small enough for it to
        # converge without cancellation).
        u, body = self._point(size, seed=4)
        alphas = np.array([0.0, 1e-6, 0.1, 0.5])
        moved, _ = retract_batch(u, geodesic_frame(u, body), alphas)
        for alpha, candidate in zip(alphas, moved):
            generator = 1j * alpha * body
            term = np.broadcast_to(np.eye(size, dtype=complex), u.shape)
            series = term
            for k in range(1, 80):
                term = term @ generator / k
                series = series + term
            assert np.abs(candidate - u @ series).max() <= 1e-12


class TestInner:
    """The real trace inner product Re sum_g tr(A_g^H B_g)."""

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        x = random_blocks(rng, 3, 2)
        assert _re_vdot(x, x) > 0
        zero = np.zeros((3, 2, 2), dtype=complex)
        assert _re_vdot(zero, zero) == 0.0

    def test_orthonormal_basis_table(self):
        basis = []
        for p in range(2):
            for q in range(2):
                for unit in (1.0, 1j):
                    block = np.zeros((1, 2, 2), dtype=complex)
                    block[0, p, q] = unit
                    basis.append(block)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert _re_vdot(a, b) == pytest.approx(float(i == j), abs=1e-15)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), s=st.floats(-3, 3), t=st.floats(-3, 3))
    def test_symmetric_and_bilinear(self, seed, s, t):
        rng = np.random.default_rng(seed)
        a, b, c = (random_blocks(rng, 2, 2) for _ in range(3))
        assert _re_vdot(a, b) == pytest.approx(_re_vdot(b, a), rel=1e-12,
                                               abs=1e-12)
        assert _re_vdot(a, s * b + t * c) == pytest.approx(
            s * _re_vdot(a, b) + t * _re_vdot(a, c), rel=1e-10, abs=1e-10)

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(9)
        a, b = random_blocks(rng, 2, 3), random_blocks(rng, 2, 3)
        expected = sum(np.real(np.conj(x[p, q]) * y[p, q])
                       for x, y in zip(a, b)
                       for p in range(3) for q in range(3))
        assert _re_vdot(a, b) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _re_vdot(np.zeros((1, 2, 2), dtype=complex),
                     np.zeros((1, 3, 3), dtype=complex))


class TestRandomFeasible:
    def test_scalar_blocks_unit_modulus(self):
        config = make_config(n_elements=4, n_groups=4)
        theta = random_feasible(config, seed=0)
        diag = np.diagonal(theta.theta)
        assert np.allclose(np.abs(diag), 1.0, atol=1e-12)

    def test_feasible_at_tight_tolerance(self):
        for seed in range(10):
            config = make_config(n_elements=8, n_groups=2)
            theta = random_feasible(config, seed=seed)
            report = validate_feasibility(theta, tol_unitary=1e-10,
                                          tol_symmetry=1e-10)
            assert report.passed

    def test_takagi_factor_reproduces_blocks(self):
        # cga_optimize iterates the factor U of the start point U U^T.
        for n_elements, n_groups in ((8, 4), (8, 2), (8, 1), (4, 4)):
            config = make_config(n_elements=n_elements, n_groups=n_groups)
            u = random_feasible_stack(np.random.default_rng(3), n_groups,
                                      n_elements // n_groups)
            assert unitarity_residuals(u).max() <= 1e-14
            assert np.array_equal(u @ u.transpose(0, 2, 1),
                                  random_feasible(config, 3).block_stack())

    def test_deterministic(self):
        config = make_config(n_elements=6, n_groups=3)
        a = random_feasible(config, seed=42)
        b = random_feasible(config, seed=42)
        assert np.array_equal(a.theta, b.theta)
