"""Random channel realizations for the BS-RIS and RIS-user links.

Entries are i.i.d. circularly-symmetric complex Gaussian with per-entry
variance equal to the link's pathloss gain (Rayleigh fading). Draws come from
numpy's PCG64 generator seeded with the realization seed, so a
(config, geometry, seed) triple fully determines the channel set. The draw
order is fixed: BS-RIS real part, BS-RIS imaginary part, RIS-user real part,
RIS-user imaginary part, each as one (rows, cols) standard-normal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Geometry, SystemConfig


def pathloss(distance: float, exponent: float, ref_loss_db: float,
             ref_distance: float = 1.0) -> float:
    """Linear power gain 10^(-ref_loss_db/10) * (distance/ref_distance)^(-exponent)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if ref_distance <= 0:
        raise ValueError(f"ref_distance must be positive, got {ref_distance}")
    return 10.0 ** (-ref_loss_db / 10.0) * (distance / ref_distance) ** (-exponent)


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization.

    h_tx: (R, N) BS to RIS matrix.
    h_rx: (K, R) RIS to user matrix, row k is the k-th user's channel.
    """

    h_tx: np.ndarray
    h_rx: np.ndarray
    seed: int

    def __post_init__(self):
        if self.h_tx.ndim != 2 or self.h_rx.ndim != 2:
            raise ValueError("h_tx and h_rx must be 2-D")
        if self.h_rx.shape[1] != self.h_tx.shape[0]:
            raise ValueError(
                f"shape mismatch: h_rx is {self.h_rx.shape}, h_tx is {self.h_tx.shape}")
        if not (np.isfinite(self.h_tx).all() and np.isfinite(self.h_rx).all()):
            raise ValueError("channel entries must be finite")

    @property
    def n_elements(self) -> int:
        return self.h_tx.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h_tx.shape[1]

    @property
    def n_users(self) -> int:
        return self.h_rx.shape[0]


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, int],
                      gain: float) -> np.ndarray:
    # Real block drawn before imaginary block; this order is part of the
    # determinism contract.
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return np.sqrt(gain / 2.0) * (re + 1j * im)


def generate_channels_from_gains(config: SystemConfig, gain_tx: float,
                                 gain_rx: float, seed: int) -> ChannelSet:
    """Draw a channel set with explicit linear link gains (variance per entry)."""
    if gain_tx < 0 or gain_rx < 0:
        raise ValueError("link gains must be nonnegative")
    rng = np.random.default_rng(seed)
    h_tx = _complex_gaussian(rng, (config.n_elements, config.n_tx), gain_tx)
    h_rx = _complex_gaussian(rng, (config.n_users, config.n_elements), gain_rx)
    return ChannelSet(h_tx=h_tx, h_rx=h_rx, seed=seed)


def generate_channels(config: SystemConfig, geometry: Geometry,
                      seed: int) -> ChannelSet:
    """Draw a channel set with link gains given by the geometry's pathloss."""
    gain_tx = pathloss(geometry.bs_ris.distance_m, geometry.bs_ris.exponent,
                       geometry.bs_ris.ref_loss_db, geometry.bs_ris.ref_distance_m)
    gain_rx = pathloss(geometry.ris_user.distance_m, geometry.ris_user.exponent,
                       geometry.ris_user.ref_loss_db, geometry.ris_user.ref_distance_m)
    return generate_channels_from_gains(config, gain_tx, gain_rx, seed)
