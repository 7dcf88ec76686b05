"""Blockwise unitary-manifold primitives.

The optimizer's state is a (G, R_G, R_G) stack of unitary blocks, the
Takagi factors U_g of the scattering blocks Theta_g = U_g U_g^T (every
symmetric unitary matrix has this form; a 1 x 1 block is the square of a
unit scalar). The primitives here act on such stacks: orthogonal
projection onto the tangent space, the frame of the geodesics along a
real symmetric S_g given in body coordinates, a batched retraction along
those geodesics, and a random feasible starting point.
The real trace inner product is ``optimizer._re_vdot``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .system import ScatteringMatrix


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
    # In place on the diagonals: every (rg + 1)-th entry of each fresh,
    # C-ordered block.
    gram.reshape(len(gram), -1)[:, ::rg + 1] -= 1.0
    return np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2)))


class Geodesic(NamedTuple):
    """Frame of the geodesics U_g exp(i alpha S_g) from one stack of Takagi
    factors, S_g real symmetric: its eigenvectors Q_g, stored as p = U Q and
    vh = Q^T, and its eigenvalues w, so that the factor at step alpha is
    p diag(exp(i alpha w)) vh and its scattering block U U^T is
    p diag(exp(2 i alpha w)) p^T."""

    p: np.ndarray
    w: np.ndarray
    vh: np.ndarray

    def diagonals(self, alphas: np.ndarray) -> np.ndarray:
        """(M, G, R_G) diagonals of the scattering blocks at the steps
        ``alphas``, written in the bases p."""
        return np.exp(2j * alphas[:, None, None] * self.w)


def geodesic_frame(stack: np.ndarray, body: np.ndarray) -> Geodesic:
    """The frame of the geodesics U_g exp(i alpha S_g) for a stack of real
    symmetric S_g given directly (body coordinates): one real ``eigh`` per
    block."""
    w, q = np.linalg.eigh(body)
    return Geodesic(stack @ q, w, q.transpose(0, 2, 1))


def retract_batch(stack: np.ndarray, direction_stack: Geodesic,
                  alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Retraction of many candidate steps at once.

    ``direction_stack`` is the ``geodesic_frame`` of the step's real
    symmetric S_g, and candidate m follows its geodesic,
    U_g exp(i alphas[m] S_g) = P_g diag(exp(i alphas[m] w_g)) Q_g^T:
    unitary for every step. Returns (candidates, ok) with candidates of
    shape (M, G, R_G, R_G) and a validity flag per candidate, true for
    every one: the exponential map is never rank deficient. The frame
    alone gives the candidates; the base point ``stack`` and the flags
    stay in the interface that the benchmark's tracer reads
    (``perfbench/tracer.py`` sizes each call from ``stack`` and counts
    flagged candidates).

    The candidates are (P_g diag(exp(i alphas[m] w_g))) @ Q_g^T: one phase
    array, one elementwise product and one matrix product, each broadcast
    over the M steps and already in the returned order.
    """
    phases = np.exp(1j * alphas[:, None, None] * direction_stack.w)
    moved = (direction_stack.p * phases[:, :, None, :]) @ direction_stack.vh
    return moved, np.ones(len(alphas), dtype=bool)


def random_feasible_stack(rng: np.random.Generator, n_groups: int,
                          group_size: int) -> np.ndarray:
    """Random unitary Takagi factors U of symmetric unitary blocks U U^T.

    U is the sign-fixed Q-factor of a complex Gaussian matrix, unitary to
    rounding. Draw order (one real block then one imaginary block over all
    groups) is part of the determinism contract.
    """
    shape = (n_groups, group_size, group_size)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def random_feasible(config: SystemConfig, seed: int) -> ScatteringMatrix:
    """Random blockwise symmetric unitary scattering matrix for the config.

    Its blocks are U U^T for U = ``random_feasible_stack`` of
    ``default_rng(seed)``, so that factor reproduces them bit for bit.
    """
    u = random_feasible_stack(np.random.default_rng(seed), config.n_groups,
                              config.group_size)
    return ScatteringMatrix.from_block_stack(u @ u.transpose(0, 2, 1))
