"""Closed-form gradients of the surrogate objective.

Gradients follow the convention that for a perturbation D of block g,

    f(Theta_g + D) = f(Theta_g) + Re tr(G_g^H D) + O(||D||^2),

so G_g points in the direction of steepest ascent under the real trace inner
product. With u_i = W_g @ v_i (the group slice of the BS-RIS channel times
beamformer column i), c_ki = e_k @ v_i the full composite amplitude, and
weights w_k = (1 + tau_k)/ln2, the surrogate part of the gradient for block
g is

    G_g = 2 sum_k w_k conj(h_k_g) (y_k conj(u_k) - |y_k|^2 sum_i c_ki conj(u_i))^T

The constant tau-terms of the surrogate do not depend on Theta and drop
out. The scalar c_ki deliberately uses the full composite channel (all
groups), not the group-local slice: differentiating |e_k v_i|^2 with e_k
summed over groups leaves the full scalar multiplying the group-local
factor, which the finite-difference checks in the tests confirm.

For blocks Theta_g = U_g U_g^T parametrized by their Takagi factor, the
chain rule gives the gradient with respect to U_g in the same convention,
(G_g + G_g^T) conj(U_g) (``factor_gradient``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import ChannelSet

LN2 = float(np.log(2.0))


class Auxiliaries(NamedTuple):
    """Frozen auxiliaries of the surrogate (see the ``optimizer`` module
    docstring): the (K,) multipliers tau and the (K,) complex y."""

    tau: np.ndarray
    y: np.ndarray


def channel_stacks(channels: ChannelSet, beam_v: np.ndarray,
                   group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Groupwise factors of the composite channel.

    Returns (a, b) with a[g] = H_rx[:, group g] of shape (K, R_G) and
    b[g] = H_tx[group g, :] @ V of shape (R_G, K), so that
    C = sum_g a[g] @ Theta_g @ b[g].
    """
    k, r = channels.h_rx.shape
    n_groups = r // group_size
    a = np.ascontiguousarray(
        channels.h_rx.reshape(k, n_groups, group_size).transpose(1, 0, 2))
    b = channels.h_tx.reshape(n_groups, group_size, -1) @ beam_v
    return a, b


def gradient_stack(a_h: np.ndarray, b_h: np.ndarray, c: np.ndarray,
                   aux: Auxiliaries) -> np.ndarray:
    """Batched gradient over all blocks; see the module docstring.

    Takes the conjugate transposes a_h[g] = a[g]^H (R_G, K) and
    b_h[g] = b[g]^H (K, R_G) of the ``channel_stacks`` factors, which stay
    fixed for a whole solve.
    """
    t1 = aux.y[:, None] * b_h
    t2 = (np.abs(aux.y) ** 2)[:, None] * (c @ b_h)
    weighted = ((1.0 + aux.tau) / LN2)[:, None] * (t1 - t2)
    return 2.0 * (a_h @ weighted)


def factor_gradient(grad_stack: np.ndarray, u_stack: np.ndarray) -> np.ndarray:
    """Gradient with respect to U of a function of Theta = U U^T.

    ``grad_stack`` is the gradient with respect to Theta at U U^T. The
    first-order change Re tr(G^H (dU U^T + U dU^T)) equals
    Re tr(((G + G^T) conj(U))^H dU).
    """
    return (grad_stack + grad_stack.transpose(0, 2, 1)) @ u_stack.conj()
