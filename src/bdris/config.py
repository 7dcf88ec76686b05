"""System configuration, link geometry, and config-file loading.

A run is fully described by a :class:`SystemConfig` (dimensions, power/noise,
iteration cap) plus a :class:`Geometry` (pathloss parameters for the two
links). Both can be read from a single YAML/JSON config file, see
:func:`load_config`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import yaml


# Field name -> resolved annotation of a dataclass, in declaration order.
_field_types = functools.cache(get_type_hints)


def check_fields(obj, positive=()) -> None:
    """Raise a ValueError that names the first int field of the dataclass
    ``obj`` that is not a positive integer, or the first field named in
    ``positive`` that is not positive and finite. A bool is neither: it
    is an int to Python, but ``True`` is no iteration cap."""
    for name, kind in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if kind is int and (not isinstance(value, int)
                            or isinstance(value, bool) or value < 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    # Comparisons with NaN are false, so this rejects NaN too.
    for name in positive:
        value = getattr(obj, name)
        if isinstance(value, bool) or not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, power budget, noise power, and the iteration cap.

    The line search has no settings: its step rule is fixed in
    ``optimizer``. Reciprocity
    needs no setting: the optimizer keeps every block exactly symmetric.
    """

    n_tx: int                      # BS transmit antennas N
    n_users: int                   # single-antenna users K
    n_elements: int                # reflecting elements R
    n_groups: int                  # element groups G (group size R/G)
    p_max: float                   # transmit power budget, linear W
    noise_power: float             # receiver noise power, linear W
    max_iters: int = 8000          # solver iteration cap

    def __post_init__(self):
        check_fields(self, positive=("p_max", "noise_power"))
        if self.n_tx < self.n_users:
            raise ValueError(
                f"n_tx={self.n_tx} must be at least n_users={self.n_users}")
        if self.n_elements % self.n_groups != 0:
            raise ValueError(
                f"n_elements={self.n_elements} must be divisible by "
                f"n_groups={self.n_groups}")

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
        check_fields(self, positive=("distance_m", "ref_distance_m"))
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


def mapping_field(key: str, value) -> dict:
    """``value`` itself if it is a mapping; anything else raises a
    ValueError that names the key."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a mapping, got {value!r}")
    return value


def reject_unknown_keys(where: str, raw, allowed) -> None:
    """Raise a ValueError unless ``raw`` is a mapping with keys in ``allowed``."""
    unknown = set(mapping_field(where, raw)) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def float_field(key: str, value) -> float:
    """``value`` as a float; null, nested, boolean or non-numeric values
    raise a ValueError that names the key (YAML reads ``true`` as a bool,
    which ``float`` would take for 1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def integer_field(key: str, value) -> int:
    """``value`` as an int; a non-integral number or a bool raises instead
    of truncating."""
    number = float_field(key, value)
    if not number.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _from_mapping(cls, raw, where: str):
    """Dataclass ``cls`` from the tree ``raw``, each value read as its field
    is annotated (int, float or a nested dataclass); a ValueError names each
    unknown, missing or unreadable key, dotted under ``where``."""
    types = _field_types(cls)
    reject_unknown_keys(where, raw, types)
    missing = [f.name for f in fields(cls)
               if f.name not in raw and f.default is MISSING]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(missing)}")
    kwargs = {}
    for key, value in raw.items():
        kind, name = types[key], f"{where}.{key}"
        if is_dataclass(kind):
            kwargs[key] = _from_mapping(kind, value, name)
        elif kind is int:
            kwargs[key] = integer_field(name, value)
        else:
            kwargs[key] = float_field(name, value)
    return cls(**kwargs)


def config_from_dict(raw: dict) -> tuple[SystemConfig, Geometry]:
    """Build (SystemConfig, Geometry) from a parsed key-value tree: the
    config's fields plus an optional ``geometry`` mapping."""
    raw = dict(raw)
    geometry = raw.pop("geometry", None)
    return (_from_mapping(SystemConfig, raw, "config"),
            _from_mapping(Geometry, {} if geometry is None else geometry,
                          "geometry"))


def config_to_dict(config: SystemConfig, geometry: Geometry | None = None) -> dict:
    """Inverse of :func:`config_from_dict`, suitable for YAML/JSON dumping."""
    out = asdict(config)
    if geometry is not None:
        out["geometry"] = asdict(geometry)
    return out


def load_config(path: str | Path) -> tuple[SystemConfig, Geometry]:
    """Read a config file (YAML, or JSON which parses as YAML)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return config_from_dict(mapping_field(f"config file {path}", raw))
