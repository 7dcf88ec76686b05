"""Fractional-programming surrogate of the sum-rate.

The log-of-ratio rate is replaced in two steps. A multiplier tau_k moves the
SINR ratio out of the log:

    log2(1 + tau_k) - tau_k/ln2 + (1 + tau_k)/ln2 * F_k,
    F_k = |c_kk|^2 / (sum_i |c_ki|^2 + n0),   c_ki = e_k @ v_i,

tight at tau_k = SINR_k. The remaining ratio F_k is replaced by a concave
quadratic in an auxiliary y_k:

    2 Re{conj(y_k) c_kk} - |y_k|^2 (sum_i |c_ki|^2 + n0),

tight at y_k = c_kk / (sum_i |c_ki|^2 + n0). Note both denominators run over
all i, including i = k. For any tau >= 0 and any y the surrogate never
exceeds the true rate, and at the closed-form (tau, y) it equals it; the
closed-form values come from ``optimizer._Workspace.stats``.

The optimizer maximizes the surrogate sum itself: its iterates are exactly
symmetric, so no penalty term is added, and a step that raises the surrogate
at frozen auxiliaries raises the true sum-rate at least as much.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


def _surrogate_terms(c: np.ndarray, tau: np.ndarray, y: np.ndarray,
                     noise_power: float) -> np.ndarray:
    """Per-user surrogate values from the signal matrix C = E @ V."""
    denom = (np.abs(c) ** 2).sum(axis=1) + noise_power
    quad = 2.0 * np.real(np.conj(y) * np.diagonal(c)) - np.abs(y) ** 2 * denom
    return np.log2(1.0 + tau) - tau / LN2 + (1.0 + tau) / LN2 * quad
