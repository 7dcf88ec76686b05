"""Scattering matrix, architecture tags, and transmit beamformers.

The surface's scattering matrix Theta is block diagonal with G square blocks
of size R_G = R/G. The composite channel seen by the users for a fixed Theta
is E = H_rx @ Theta @ H_tx; the optimizer evaluates it, the SINRs and the
sum-rate on the stacked blocks (see ``optimizer._Workspace``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import SystemConfig


class Architecture(Enum):
    SINGLE_CONNECTED = "single-connected"
    GROUP_CONNECTED = "group-connected"
    FULLY_CONNECTED = "fully-connected"


def infer_architecture(n_elements: int, group_size: int) -> Architecture:
    """Default architecture tag for a group size: 1 -> SC, R -> FC, else GC."""
    if group_size == 1:
        return Architecture.SINGLE_CONNECTED
    if group_size == n_elements:
        return Architecture.FULLY_CONNECTED
    return Architecture.GROUP_CONNECTED


def read_architecture_tag(tag: str) -> tuple[Architecture, int | None]:
    """The architecture a short tag (sc, gc<k>, fc) names and its group
    size, None for fc, whose one group holds every element. Any other tag,
    gc0 among them, raises a ValueError."""
    tag = tag.strip().lower()
    if tag == "sc":
        return Architecture.SINGLE_CONNECTED, 1
    if tag == "fc":
        return Architecture.FULLY_CONNECTED, None
    if tag.startswith("gc") and tag[2:].isdigit() and int(tag[2:]) >= 1:
        return Architecture.GROUP_CONNECTED, int(tag[2:])
    raise ValueError(f"unknown architecture tag {tag!r} (expected sc, gc<k>, fc)")


def parse_architecture_tag(tag: str, n_elements: int) -> tuple[Architecture, int]:
    """Map a short tag (sc, gc<k>, fc) to (architecture, group size)."""
    architecture, size = read_architecture_tag(tag)
    if size is None:
        return architecture, n_elements
    if n_elements % size != 0:
        raise ValueError(
            f"group size {size} does not divide n_elements={n_elements}")
    return architecture, size


@functools.cache
def block_mask(n_elements: int, group_size: int) -> np.ndarray:
    """Boolean mask of the block-diagonal support, built once per
    (R, R_G) and shared read-only."""
    n_groups = n_elements // group_size
    mask = np.kron(np.eye(n_groups, dtype=bool),
                   np.ones((group_size, group_size), dtype=bool))
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class ScatteringMatrix:
    """Block-diagonal R x R scattering matrix with blocks of ``group_size``.

    Off-block entries must be exactly zero. Feasibility (blockwise unitarity
    and symmetry) is deliberately not enforced here; it is checked by
    ``optimizer.validate_feasibility`` so that intermediate optimizer iterates
    can be represented.
    """

    theta: np.ndarray
    group_size: int

    def __post_init__(self):
        r = self.theta.shape[0]
        if self.theta.ndim != 2 or self.theta.shape != (r, r):
            raise ValueError(f"theta must be square, got shape {self.theta.shape}")
        if r % self.group_size != 0:
            raise ValueError(
                f"group_size={self.group_size} does not divide R={r}")
        mask = block_mask(r, self.group_size)
        if np.count_nonzero(self.theta[~mask]):
            raise ValueError("off-block entries of theta must be exactly zero")

    @property
    def n_elements(self) -> int:
        return self.theta.shape[0]

    @property
    def n_groups(self) -> int:
        return self.n_elements // self.group_size

    @property
    def architecture(self) -> Architecture:
        return infer_architecture(self.n_elements, self.group_size)

    def block_stack(self) -> np.ndarray:
        """All blocks as one (G, R_G, R_G) array."""
        rg, n = self.group_size, self.n_groups
        g = np.arange(n)
        blocks = self.theta.reshape(n, rg, n, rg)[g, :, g, :]
        return blocks.astype(complex, copy=False)

    @classmethod
    def from_block_stack(cls, stack: np.ndarray) -> "ScatteringMatrix":
        n, rg, _ = stack.shape
        theta = np.zeros((n, rg, n, rg), dtype=complex)
        g = np.arange(n)
        theta[g, :, g, :] = stack
        return cls(theta=theta.reshape(n * rg, n * rg), group_size=rg)


@dataclass(frozen=True)
class Beamformer:
    """Fixed transmit beamformer V (N x K, column k serves user k)."""

    v: np.ndarray
    power_budget: float

    def __post_init__(self):
        if self.v.ndim != 2:
            raise ValueError("v must be 2-D (N, K)")
        if not np.isfinite(self.v).all():
            raise ValueError("beamformer entries must be finite")
        # Relative: the initializers scale V to the budget, and ||V||_F^2
        # rounds to a few ulps of it, whatever the budget's size.
        used = float(np.linalg.norm(self.v) ** 2)
        if used > self.power_budget * (1.0 + 16.0 * np.finfo(float).eps):
            raise ValueError(
                f"beamformer power {used:.6g} exceeds budget {self.power_budget:.6g}")


def init_beamformer_uniform(config: SystemConfig) -> Beamformer:
    """Uniform power allocation: sqrt(p_max/K) on the first K diagonal slots.

    For a fully loaded system (K = N) this is the diagonal power-allocation
    beamformer; for K < N the same diagonal is embedded in the N x K matrix.
    """
    v = np.zeros((config.n_tx, config.n_users), dtype=complex)
    amp = np.sqrt(config.p_max / config.n_users)
    for k in range(config.n_users):
        v[k, k] = amp
    return Beamformer(v=v, power_budget=config.p_max)


def init_beamformer_mmse(e: np.ndarray, config: SystemConfig) -> Beamformer:
    """Regularized channel-inverse beamformer, scaled to the full power budget.

    ``e`` is the (K, N) composite channel H_rx @ Theta @ H_tx for some fixed
    Theta. V is proportional to E^H (E E^H + (K n0 / p_max) I)^{-1}. This is
    an initialization heuristic only; the scattering design afterwards treats
    V as fixed.
    """
    k = e.shape[0]
    gram = e @ e.conj().T + (k * config.noise_power / config.p_max) * np.eye(k)
    v0 = np.linalg.solve(gram, e).conj().T
    scale = np.linalg.norm(v0)
    if scale < 1e-300:
        # Degenerate all-zero channel; fall back to uniform allocation.
        return init_beamformer_uniform(config)
    v = v0 * (np.sqrt(config.p_max) / scale)
    return Beamformer(v=v, power_budget=config.p_max)
