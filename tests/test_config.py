from pathlib import Path

import pytest

from bdris import (CgaSettings, LinkGeometry, SystemConfig, config_from_dict,
                   config_to_dict, load_config, load_experiment_spec)

from helpers import make_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_defaults_and_group_size():
    config = make_config(n_elements=8, n_groups=4)
    assert config.group_size == 2
    assert config.max_iters == 8000


@pytest.mark.parametrize("overrides", [
    dict(n_elements=6, n_groups=4),       # not divisible
    dict(n_tx=2, n_users=3),              # fewer antennas than users
    dict(p_max=0.0),
    dict(noise_power=0.0),
    dict(max_iters=0),
    # Non-finite floats: an infinite noise power used to end "stalled" at
    # rate 0.
    dict(noise_power=float("inf")),
    dict(p_max=float("inf")),
    dict(n_tx=0),
    dict(n_users=0),
    dict(n_elements=0),
    dict(n_groups=0),
    dict(max_iters=2.5),
    dict(p_max=-1.0),
    dict(p_max=float("nan")),
    dict(noise_power=float("nan")),
    # A bool is an int to Python; True used to pass as a 1-iteration cap.
    dict(max_iters=True),
    dict(n_users=True),
    dict(p_max=True),
])
def test_invalid_configs_rejected(overrides):
    base = dict(n_tx=4, n_users=2, n_elements=8, n_groups=4, p_max=1.0,
                noise_power=1.0)
    base.update(overrides)
    with pytest.raises(ValueError, match=next(iter(overrides))):
        SystemConfig(**base)


@pytest.mark.parametrize("key, value", [
    ("distance_m", float("inf")), ("exponent", float("nan")),
    ("ref_loss_db", float("-inf")), ("ref_distance_m", float("inf"))])
def test_non_finite_link_geometry_rejected(key, value):
    link = dict(distance_m=10.0, exponent=2.0, ref_loss_db=30.0)
    link[key] = value
    with pytest.raises(ValueError, match=key):
        LinkGeometry(**link)


def test_dict_roundtrip():
    config = make_config(n_elements=8, n_groups=2, max_iters=123)
    rebuilt, geometry = config_from_dict(config_to_dict(config))
    assert rebuilt == config
    assert CgaSettings.from_config(rebuilt) == CgaSettings(max_iters=123)
    assert (CgaSettings.from_config(rebuilt, max_iters=7)
            == CgaSettings(max_iters=7))


@pytest.mark.parametrize("key, value", [("n_elements", 8.9), ("n_groups", 2.5),
                                        ("max_iters", 10.5)])
def test_non_integral_counts_rejected(key, value):
    # These used to be truncated silently (8.9 elements loaded as 8).
    raw = config_to_dict(make_config(n_elements=8, n_groups=2))
    raw[key] = value
    with pytest.raises(ValueError, match=key):
        config_from_dict(raw)
    raw[key] = float(int(value))
    assert getattr(config_from_dict(raw)[0], key) == int(value)


def test_unknown_keys_rejected():
    raw = config_to_dict(make_config())
    raw["bandwidth"] = 1.0
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(raw)


def test_unknown_geometry_keys_rejected():
    raw = config_to_dict(make_config())
    raw["geometry"] = {"bs_ris": {"distance_m": 1.0, "colour": "red"}}
    with pytest.raises(ValueError, match="geometry.bs_ris"):
        config_from_dict(raw)


def test_load_config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "n_tx: 4\nn_users: 2\nn_elements: 8\nn_groups: 2\n"
        "p_max: 1.5\nnoise_power: 1.0e-9\n"
        "geometry:\n"
        "  bs_ris: {distance_m: 20.0, exponent: 2.0, ref_loss_db: 30.0}\n")
    config, geometry = load_config(path)
    assert config.n_elements == 8
    assert config.p_max == 1.5
    assert geometry.bs_ris.distance_m == 20.0
    assert geometry.ris_user.distance_m == 2.5  # default link kept


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                         ids=lambda path: path.name)
def test_shipped_configs_load(path):
    if path.name.startswith("bench_"):
        config = load_experiment_spec(path).config
    else:
        config, _ = load_config(path)
    # desk.yaml used to restate the line-search settings; the step rule is
    # fixed now, and every shipped config sets the same iteration cap.
    assert CgaSettings.from_config(config) == CgaSettings(max_iters=2000)
