"""Shared builders and reference oracles for test instances.

All tests use unit-gain channels (no pathloss) with noise power 1 and a
uniform beamformer at p_max = K, which puts typical SINRs in an
interference-limited, numerically comfortable range.
"""

from dataclasses import replace

import numpy as np

from bdris import (SystemConfig, generate_channels_from_gains,
                   init_beamformer_uniform, parse_architecture_tag,
                   optimizer, random_feasible)
from bdris.gradient import Auxiliaries
from bdris.manifold import random_feasible_stack
from bdris.optimizer import _NOISE_ULPS, _Workspace


def make_config(n_users=2, n_tx=2, n_elements=4, n_groups=2, noise_power=1.0,
                **overrides) -> SystemConfig:
    defaults = dict(n_tx=n_tx, n_users=n_users, n_elements=n_elements,
                    n_groups=n_groups, p_max=float(n_users),
                    noise_power=noise_power)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def config_for_tag(tag: str, n_users=4, n_tx=4, n_elements=8, **overrides):
    config = make_config(n_users=n_users, n_tx=n_tx, n_elements=n_elements,
                         n_groups=1, **overrides)
    _, group_size = parse_architecture_tag(tag, config.n_elements)
    return replace(config, n_groups=config.n_elements // group_size)


def make_instance(seed, n_users=2, n_tx=2, n_elements=4, n_groups=2,
                  **overrides):
    """(config, channels, theta, beam) with unit link gains."""
    config = make_config(n_users=n_users, n_tx=n_tx, n_elements=n_elements,
                         n_groups=n_groups, **overrides)
    channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
    theta = random_feasible(config, seed=seed + 1)
    beam = init_beamformer_uniform(config)
    return config, channels, theta, beam


def start_state(config, seed) -> np.ndarray:
    """The state ``cga_optimize`` starts from for ``seed``: the stack of
    Takagi factors U of ``random_feasible(config, seed)``, whose blocks are
    U U^T bit for bit."""
    return random_feasible_stack(np.random.default_rng(seed), config.n_groups,
                                 config.group_size)


def workspace_at(theta, channels, beam, config):
    """(workspace, block stack, signal matrix, auxiliaries) at the given
    point.

    The workspace is the one ``cga_optimize`` builds; the auxiliaries are
    its closed-form optimal (tau, y) at theta, with their coefficients.
    """
    ws = _Workspace(channels, beam, config)
    stack = theta.block_stack()
    c = ws.signal(stack)
    aux, _, _ = ws.stats(c)
    return ws, stack, c, aux


def start_diagonals(ws, config, seed):
    """(workspace, diagonals) on which ``objective_batch`` scores the start
    point ``random_feasible(config, seed)`` as ``cga_optimize`` does: its
    blocks U U^T are the identity in the bases of their Takagi factors U."""
    state = start_state(config, seed)
    return ws.in_bases(state), np.ones((1,) + state.shape[:2])


def body_gradient_at(ws, state, c, aux) -> np.ndarray:
    """The gradient ``cga_optimize`` steps along, in body coordinates."""
    return ws.body_gradient(state, ws.riemannian_gradient(state, c, aux))


def explicit_scores(ws, state, direction, alphas) -> np.ndarray:
    """True sum-rate at explicitly formed candidates along the body-coordinate
    ``direction`` and their blocks ``ws.theta``, each scored by ``ws.rate``
    at its ``ws.signal``. The candidates are U Q diag(exp(i alpha w)) Q^T
    from ``np.linalg.eigh`` of the real symmetric S = Q diag(w) Q^T."""
    w, q = np.linalg.eigh(direction)
    phases = np.exp(1j * alphas[:, None, None] * w)
    candidates = ((state @ q) * phases[:, :, None, :]) @ np.swapaxes(q, -1, -2)
    return np.array([ws.rate(ws.signal(blocks))
                     for blocks in ws.theta(candidates)])


# Step sizes the oracle counts per chunk, as the line search scores them.
ORACLE_CHUNK = 4


def explicit_armijo_step(ws, state, direction, f_current,
                         slope) -> tuple[float, int]:
    """The step the backtracking rule of ``_armijo_stack`` accepts along the
    body-coordinate ``direction`` and the step sizes it scores, found by
    scoring every step of the grid at explicitly formed candidates on the
    true sum-rate; (0.0, grid size) when none passes. Trials count whole
    chunks of ``ORACLE_CHUNK`` from grid index 0 up to the accepted step.
    The grid and its slopes are read from ``optimizer`` at call time, so a
    test that patches them patches this search too."""
    alphas = optimizer._ALPHAS
    floor = _NOISE_ULPS * np.finfo(float).eps * (abs(f_current) + ws.users)
    values = explicit_scores(ws, state, direction, alphas)
    demand = np.maximum(optimizer._SLOPES * slope, floor)
    hits = np.flatnonzero(values >= f_current + demand)
    if not hits.size:
        return 0.0, len(alphas)
    first = int(hits[0])
    return (float(alphas[first]),
            min((first // ORACLE_CHUNK + 1) * ORACLE_CHUNK, len(alphas)))


def random_aux(rng: np.random.Generator, n_users: int) -> Auxiliaries:
    """Arbitrary feasible auxiliaries (tau >= 0, y complex)."""
    tau = rng.uniform(0.0, 5.0, n_users)
    y = rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)
    return Auxiliaries.of(tau, y * rng.uniform(0.0, 1.0))


def zero_aux(n_users: int) -> Auxiliaries:
    """tau = 0 and y = 0, at which the surrogate and its gradient vanish."""
    return Auxiliaries.of(np.zeros(n_users), np.zeros(n_users, dtype=complex))


def reference_sinr(channels, theta: np.ndarray, v: np.ndarray,
                   noise_power: float) -> np.ndarray:
    """Per-user SINR from the dense composite channel E = H_rx Theta H_tx.

    Written out user by user from the definition, independently of the
    stacked kernels: |c_kk|^2 / (sum_{i != k} |c_ki|^2 + n0), c = E V.
    """
    e = channels.h_rx @ theta @ channels.h_tx
    out = np.empty(e.shape[0])
    for k in range(e.shape[0]):
        amplitudes = [e[k] @ v[:, i] for i in range(v.shape[1])]
        interference = sum(abs(a) ** 2 for i, a in enumerate(amplitudes) if i != k)
        out[k] = abs(amplitudes[k]) ** 2 / (interference + noise_power)
    return out


def reference_sum_rate(channels, theta, v, noise_power) -> float:
    """Sum over users of log2(1 + SINR) from ``reference_sinr``."""
    return float(np.log2(1.0 + reference_sinr(channels, theta, v,
                                               noise_power)).sum())


def central_difference_gradient(objective, stack: np.ndarray,
                                step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a block stack.

    Perturbs every real and imaginary coordinate of every block and returns
    an array shaped like ``stack`` with the ascent convention of the
    closed-form gradient: entry (g, p, q) is d f/d Re + 1j * d f/d Im.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grad = np.empty(stack.shape, dtype=complex)
    for index in np.ndindex(*stack.shape):
        partials = []
        for delta in (step, 1j * step):
            plus, minus = stack.copy(), stack.copy()
            plus[index] += delta
            minus[index] -= delta
            partials.append((objective(plus) - objective(minus)) / (2.0 * step))
        grad[index] = partials[0] + 1j * partials[1]
    return grad
