"""Blockwise unitary-manifold primitives.

Each block of the scattering matrix lives on the unitary group (the square
complex Stiefel manifold). The primitives here act on (G, R_G, R_G) block
stacks: orthogonal projection onto the tangent space, a batched QR-based
retraction, and a random feasible (symmetric unitary) starting point. The
real trace inner product is ``optimizer._re_vdot``.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .system import Architecture, ScatteringMatrix


def project_stack(grad_stack: np.ndarray, theta_stack: np.ndarray) -> np.ndarray:
    """Batched tangent projection: X - T (T^H X + X^H T) / 2.

    At a unitary base block T the result X' is tangent, T^H X' + X'^H T = 0,
    and the map is idempotent.
    """
    lift = theta_stack.conj().transpose(0, 2, 1) @ grad_stack
    sym = 0.5 * (lift + lift.conj().transpose(0, 2, 1))
    return grad_stack - theta_stack @ sym


def unitarity_residuals(theta_stack: np.ndarray) -> np.ndarray:
    """Per-block Frobenius norm of T T^H - I."""
    rg = theta_stack.shape[-1]
    gram = theta_stack @ theta_stack.conj().transpose(0, 2, 1)
    gram = gram - np.eye(rg)
    return np.sqrt(np.sum(np.abs(gram) ** 2, axis=(1, 2)))


def retract_batch(theta_stack: np.ndarray, direction_stack: np.ndarray,
                  alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Retraction of many candidate steps at once.

    Candidate m is the Q-factor of the QR decomposition of
    Theta_g + alphas[m] * Xi_g per block, with the triangular factor's
    diagonal forced real positive so that a zero step reproduces theta up to
    rounding. For 1 x 1 blocks that Q-factor is the phase z / |z| of the
    moved entry z, computed directly instead of by one LAPACK QR per block.
    Returns (candidates, ok) with candidates of shape (M, G, R_G, R_G) and a
    boolean validity flag per candidate; rank-deficient candidates (a
    triangular diagonal entry, |z| for 1 x 1 blocks, at most 1e-12 of the
    largest moved entry) are marked invalid instead of raising so that the
    surviving ones stay usable.
    """
    moved = theta_stack[None] + alphas[:, None, None, None] * direction_stack[None]
    sizes = np.abs(moved)
    if moved.shape[-1] == 1:
        mags = sizes
        q = moved / np.where(mags > 0, mags, 1.0)
    else:
        q, r = np.linalg.qr(moved)
        diag = np.diagonal(r, axis1=2, axis2=3)
        mags = np.abs(diag)
        q = q * (diag / np.where(mags > 0, mags, 1.0))[:, :, None, :]
    scale = np.maximum(sizes.reshape(len(alphas), -1).max(axis=1), 1.0)
    ok = mags.reshape(len(alphas), -1).min(axis=1) > 1e-12 * scale
    return q, ok


def random_feasible_stack(rng: np.random.Generator, n_groups: int,
                          group_size: int) -> np.ndarray:
    """Random symmetric unitary blocks, U U^T with U a Haar-ish unitary.

    U is the sign-fixed Q-factor of a complex Gaussian matrix, so each block
    is symmetric by construction and unitary to rounding. Draw order (one
    real block then one imaginary block over all groups) is part of the
    determinism contract.
    """
    shape = (n_groups, group_size, group_size)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q @ q.transpose(0, 2, 1)


def random_feasible(config: SystemConfig, seed: int,
                    architecture: Architecture | None = None
                    ) -> ScatteringMatrix:
    """Random blockwise symmetric unitary scattering matrix for the config."""
    rng = np.random.default_rng(seed)
    stack = random_feasible_stack(rng, config.n_groups, config.group_size)
    return ScatteringMatrix.from_block_stack(stack, architecture=architecture)
