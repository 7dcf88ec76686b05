"""Blockwise unitary-manifold primitives.

The optimizer's state is a (G, R_G, R_G) stack of unitary blocks: for
R_G > 1 the Takagi factor U_g of each scattering block Theta_g = U_g U_g^T
(every symmetric unitary matrix has this form), for 1 x 1 blocks the unit
scalar Theta_g itself. The primitives here act on such stacks: orthogonal
projection onto the tangent space, the frame of the geodesics along a
real symmetric S_g given in body coordinates, a batched retraction
(geodesics of the symmetric unitary matrices for R_G > 1, phase
normalization for 1 x 1 blocks), and a random feasible starting point.
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


def _pairs(entries: np.ndarray) -> np.ndarray:
    """The (re, im) pairs of a (G, 1, 1) stack as a (G, 2) real array: a
    view of a contiguous complex128 stack, else of a complex128 copy, so
    real and complex64 stacks are read by value."""
    flat = np.ascontiguousarray(entries, dtype=complex)
    return flat.view(float).reshape(-1, 2)


def retract_batch(stack: np.ndarray, direction_stack: np.ndarray | Geodesic,
                  alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Retraction of many candidate steps at once.

    For R_G > 1 ``direction_stack`` is the ``geodesic_frame`` of the step's
    real symmetric S_g, and candidate m follows its geodesic,
    U_g exp(i alphas[m] S_g) = P_g diag(exp(i alphas[m] w_g)) Q_g^T:
    unitary for every step. For 1 x 1 blocks it is the tangent xi, and
    candidate m is the phase z / |z| of the moved entry
    z = theta + alphas[m] * xi, which is rank-deficient when |z| is at most
    1e-12 of max(1, largest |z| of the candidate).
    Returns (candidates, ok) with candidates of shape (M, G, R_G, R_G) and a
    boolean validity flag per candidate; only 1 x 1 blocks can be flagged,
    and flagged candidates stay in the batch so that the others stay usable.

    For R_G > 1 the candidates are (P_g diag(exp(i alphas[m] w_g))) @ Q_g^T:
    one phase array, one elementwise product and one matrix product, each
    broadcast over the M steps and already in the returned order.

    The 1 x 1 branch works in real arithmetic on the (re, im) pairs: one
    real product alpha * xi and one sum form z, and the phase is z times
    1 / |z|, with |z| = 0 taken as 1. Both give the bits of the complex
    operations (a real alpha cast to complex, complex division by the real
    |z|). The per-candidate rank test runs only when one test over the
    whole batch fails, min |z| > 1e-12 max(1, max |z|). For a tangent
    direction at unit entries, Re(conj(theta) xi) = 0, so
    |z|^2 = 1 + alpha^2 |xi|^2 >= 1 and that test always passes.
    """
    if stack.shape[-1] == 1:
        # On (M, G) arrays of the entries; returned as (M, G, 1, 1) views.
        moved = np.empty((len(alphas), stack.shape[0]), dtype=complex)
        pairs = moved.view(float).reshape(len(alphas), -1, 2)
        np.multiply(alphas[:, None, None], _pairs(direction_stack), out=pairs)
        pairs += _pairs(stack)
        mags = np.abs(moved)
        if mags.min() > 1e-12 * max(mags.max(), 1.0):
            ok = np.ones(len(alphas), dtype=bool)
        else:
            ok = mags.min(axis=1) > 1e-12 * np.maximum(mags.max(axis=1), 1.0)
            mags = np.where(mags > 0, mags, 1.0)
        pairs *= (1.0 / mags)[:, :, None]
        return moved[:, :, None, None], ok
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
