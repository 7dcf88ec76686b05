"""Closed-form gradients of the penalized surrogate objective.

Gradients follow the convention that for a perturbation D of block g,

    f(Theta_g + D) = f(Theta_g) + Re tr(G_g^H D) + O(||D||^2),

so G_g points in the direction of steepest ascent under the real trace inner
product. With u_i = W_g @ v_i (the group slice of the BS-RIS channel times
beamformer column i), c_ki = e_k @ v_i the full composite amplitude, and
weights w_k = (1 + tau_k)/ln2, the surrogate part of the gradient for block
g is

    G_g = 2 sum_k w_k conj(h_k_g) (y_k conj(u_k) - |y_k|^2 sum_i c_ki conj(u_i))^T

and the penalty contributes -4 nu (Theta_g - Theta_g^T). The constant
tau-terms of the surrogate do not depend on Theta and drop out. The scalar
c_ki deliberately uses the full composite channel (all groups), not the
group-local slice: differentiating |e_k v_i|^2 with e_k summed over groups
leaves the full scalar multiplying the group-local factor, which the
finite-difference checks in the tests confirm.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .fp import LN2


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


def gradient_stack(theta_stack: np.ndarray, a: np.ndarray, b: np.ndarray,
                   c: np.ndarray, tau: np.ndarray, y: np.ndarray,
                   nu: float) -> np.ndarray:
    """Batched gradient over all blocks; see the module docstring."""
    weights = (1.0 + tau) / LN2
    b_conj_t = b.conj().transpose(0, 2, 1)              # (G, K, R_G)
    t1 = y[None, :, None] * b_conj_t
    t2 = (np.abs(y) ** 2)[None, :, None] * (c @ b_conj_t)
    weighted = weights[None, :, None] * (t1 - t2)
    grad = 2.0 * (a.conj().transpose(0, 2, 1) @ weighted)
    grad -= 4.0 * nu * (theta_stack - theta_stack.transpose(0, 2, 1))
    return grad
