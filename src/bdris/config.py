"""System configuration, link geometry, and config-file loading.

A run is fully described by a :class:`SystemConfig` (dimensions, power/noise,
solver hyperparameters) plus a :class:`Geometry` (pathloss parameters for the
two links). Both can be read from a single YAML/JSON config file, see
:func:`load_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import yaml


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, power budget, noise power, and solver hyperparameters.

    Solver defaults: tolerance 1e-8, at most 8000 conjugate-gradient
    iterations, at most 200 Armijo trials per search with sufficient-increase
    coefficient 2e-11, initial step 1 contracted by 0.75. Reciprocity needs
    no setting: the optimizer keeps every block exactly symmetric.
    """

    n_tx: int                      # BS transmit antennas N
    n_users: int                   # single-antenna users K
    n_elements: int                # reflecting elements R
    n_groups: int                  # element groups G (group size R/G)
    p_max: float                   # transmit power budget, linear W
    noise_power: float             # receiver noise power, linear W
    epsilon: float = 1e-8          # convergence tolerance on the sum-rate
    max_iters: int = 8000          # conjugate-gradient iteration cap
    armijo_max_steps: int = 200    # line-search trial cap
    armijo_coeff: float = 2e-11    # sufficient-increase coefficient
    step_init: float = 1.0         # initial line-search step
    step_contract: float = 0.75    # line-search contraction factor

    def __post_init__(self):
        for name in ("n_tx", "n_users", "n_elements", "n_groups", "max_iters",
                     "armijo_max_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_tx < self.n_users:
            raise ValueError(
                f"n_tx={self.n_tx} must be at least n_users={self.n_users}")
        if self.n_elements % self.n_groups != 0:
            raise ValueError(
                f"n_elements={self.n_elements} must be divisible by "
                f"n_groups={self.n_groups}")
        # Comparisons with NaN are false, so these reject NaN too.
        for name in ("p_max", "noise_power", "epsilon", "step_init"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.armijo_coeff < math.inf:
            raise ValueError("armijo_coeff must be nonnegative and finite")
        if not 0 < self.step_contract < 1:
            raise ValueError("step_contract must lie in (0, 1)")

    @property
    def group_size(self) -> int:
        """Elements per group, R/G."""
        return self.n_elements // self.n_groups


@dataclass(frozen=True)
class LinkGeometry:
    """Pathloss parameters of one link."""

    distance_m: float
    exponent: float
    ref_loss_db: float
    ref_distance_m: float = 1.0

    def __post_init__(self):
        for name in ("distance_m", "ref_distance_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("exponent", "ref_loss_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


# Desk-scale defaults chosen for numerically well-behaved experiments; they
# are not calibrated against any measured deployment.
DEFAULT_BS_RIS = LinkGeometry(distance_m=50.0, exponent=2.2, ref_loss_db=30.0)
DEFAULT_RIS_USER = LinkGeometry(distance_m=2.5, exponent=2.8, ref_loss_db=30.0)


@dataclass(frozen=True)
class Geometry:
    """Link geometry for the BS-RIS and RIS-user channels."""

    bs_ris: LinkGeometry = DEFAULT_BS_RIS
    ris_user: LinkGeometry = DEFAULT_RIS_USER


_CONFIG_FIELDS = {f.name for f in fields(SystemConfig)}
_LINK_FIELDS = {f.name for f in fields(LinkGeometry)}
_INT_FIELDS = {"n_tx", "n_users", "n_elements", "n_groups", "max_iters",
               "armijo_max_steps"}


def mapping_field(key: str, value) -> dict:
    """``value`` itself if it is a mapping; anything else raises a
    ValueError that names the key."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a mapping, got {value!r}")
    return value


def _link_from_dict(raw: dict, where: str) -> LinkGeometry:
    unknown = set(mapping_field(where, raw)) - _LINK_FIELDS
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    return LinkGeometry(**{k: float_field(f"{where}.{k}", v)
                           for k, v in raw.items()})


def float_field(key: str, value) -> float:
    """``value`` as a float; null, nested or non-numeric values raise a
    ValueError that names the key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def integer_field(key: str, value) -> int:
    """``value`` as an int; a non-integral number raises instead of truncating."""
    number = float_field(key, value)
    if not number.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def config_from_dict(raw: dict) -> tuple[SystemConfig, Geometry]:
    """Build (SystemConfig, Geometry) from a parsed key-value tree."""
    raw = dict(raw)
    geo_raw = raw.pop("geometry", None)
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key not in _INT_FIELDS:
            kwargs[key] = float_field(key, value)
            continue
        kwargs[key] = integer_field(key, value)
    config = SystemConfig(**kwargs)
    if geo_raw is None:
        geometry = Geometry()
    else:
        mapping_field("geometry", geo_raw)
        links = {}
        for name in ("bs_ris", "ris_user"):
            if name in geo_raw:
                links[name] = _link_from_dict(geo_raw[name], f"geometry.{name}")
        extra = set(geo_raw) - {"bs_ris", "ris_user"}
        if extra:
            raise ValueError(f"unknown geometry keys: {sorted(extra)}")
        geometry = Geometry(**links)
    return config, geometry


def config_to_dict(config: SystemConfig, geometry: Geometry | None = None) -> dict:
    """Inverse of :func:`config_from_dict`, suitable for YAML/JSON dumping."""
    out = {f.name: getattr(config, f.name) for f in fields(SystemConfig)}
    if geometry is not None:
        out["geometry"] = {
            name: {f.name: getattr(getattr(geometry, name), f.name)
                   for f in fields(LinkGeometry)}
            for name in ("bs_ris", "ris_user")
        }
    return out


def load_config(path: str | Path) -> tuple[SystemConfig, Geometry]:
    """Read a config file (YAML, or JSON which parses as YAML)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a mapping")
    return config_from_dict(raw)
