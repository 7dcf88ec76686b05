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
    """Frozen auxiliaries (tau, y) and the per-user coefficients that every
    surrogate score and gradient at them uses, formed once per iterate.

    The surrogate of user k is offset_k + weight_k * quad_k with
    quad_k = Re(y_conj2_k c_kk) - y_power_k * total_k (see the
    ``optimizer`` module docstring). ``y_conj2`` holds 2 conj(y): doubling
    is exact in floating point, so Re(y_conj2 c) has the bits of
    2 Re(conj(y) c) with one product fewer.
    """

    tau: np.ndarray
    y: np.ndarray
    offset: np.ndarray       # log2(1 + tau) - tau / ln2
    weight: np.ndarray       # (1 + tau) / ln2
    y_conj2: np.ndarray      # 2 conj(y)
    y_power: np.ndarray      # |y|^2

    @classmethod
    def of(cls, tau: np.ndarray, y: np.ndarray,
           log_term: np.ndarray | None = None,
           one_plus: np.ndarray | None = None) -> "Auxiliaries":
        """Coefficients at (tau, y); ``log_term`` is log2(1 + tau) and
        ``one_plus`` is 1 + tau, if the caller has them already."""
        if one_plus is None:
            one_plus = 1.0 + tau
        if log_term is None:
            log_term = np.log2(one_plus)
        return cls(tau, y, log_term - tau / LN2, one_plus / LN2,
                   2.0 * y.conj(), np.abs(y) ** 2)


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
    t2 = aux.y_power[:, None] * (c @ b_h)
    weighted = aux.weight[:, None] * (t1 - t2)
    return 2.0 * (a_h @ weighted)


def factor_gradient(grad_stack: np.ndarray, u_stack: np.ndarray) -> np.ndarray:
    """Gradient with respect to U of a function of Theta = U U^T.

    ``grad_stack`` is the gradient with respect to Theta at U U^T. The
    first-order change Re tr(G^H (dU U^T + U dU^T)) equals
    Re tr(((G + G^T) conj(U))^H dU).
    """
    return (grad_stack + grad_stack.transpose(0, 2, 1)) @ u_stack.conj()
