import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris import (ChannelSet, generate_channels, generate_channels_from_gains,
                   pathloss)
from bdris.config import Geometry, LinkGeometry

from helpers import make_config


def test_pathloss_reference_distance():
    assert pathloss(1.0, 2.0, 30.0, 1.0) == pytest.approx(1e-3, rel=1e-12)


def test_pathloss_hand_evaluated():
    # 30 dB reference loss and 20 dB of distance falloff.
    assert pathloss(10.0, 2.0, 30.0, 1.0) == pytest.approx(1e-5, rel=1e-12)


def test_pathloss_lossless():
    assert pathloss(1.0, 0.0, 0.0, 1.0) == 1.0


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss(0.0, 2.0, 30.0)
    with pytest.raises(ValueError):
        pathloss(-1.0, 2.0, 30.0)
    with pytest.raises(ValueError):
        pathloss(1.0, 2.0, 30.0, ref_distance=0.0)


@given(d1=st.floats(0.1, 1e4), d2=st.floats(0.1, 1e4),
       exponent=st.floats(0.0, 6.0), ref_db=st.floats(0.0, 80.0))
def test_pathloss_monotone_in_distance(d1, d2, exponent, ref_db):
    lo, hi = sorted((d1, d2))
    assert pathloss(hi, exponent, ref_db) <= pathloss(lo, exponent, ref_db) * (1 + 1e-12)
    assert pathloss(d1, exponent, ref_db) > 0


def test_generation_deterministic_per_seed():
    config = make_config()
    a = generate_channels_from_gains(config, 0.5, 2.0, seed=0)
    b = generate_channels_from_gains(config, 0.5, 2.0, seed=0)
    assert np.array_equal(a.h_tx, b.h_tx)
    assert np.array_equal(a.h_rx, b.h_rx)
    c = generate_channels_from_gains(config, 0.5, 2.0, seed=1)
    assert not np.array_equal(a.h_tx, c.h_tx)


def test_generation_shapes():
    config = make_config(n_users=3, n_tx=5, n_elements=8, n_groups=2)
    ch = generate_channels_from_gains(config, 1.0, 1.0, seed=0)
    assert ch.h_tx.shape == (8, 5)
    assert ch.h_rx.shape == (3, 8)


@settings(deadline=None, max_examples=20)
@given(gain=st.floats(1e-6, 1e3), seed=st.integers(0, 2**31))
def test_entry_variance_matches_gain(gain, seed):
    # 100 x 100 entries keep the sample variance within 5 percent.
    config = make_config(n_users=2, n_tx=100, n_elements=100, n_groups=1)
    ch = generate_channels_from_gains(config, gain, 1.0, seed=seed)
    sample = np.mean(np.abs(ch.h_tx) ** 2)
    assert sample == pytest.approx(gain, rel=0.05)


def test_zero_gain_link_is_all_zero():
    config = make_config()
    ch = generate_channels_from_gains(config, 0.0, 1.0, seed=3)
    assert np.all(ch.h_tx == 0)
    assert np.any(ch.h_rx != 0)


def test_negative_gain_rejected():
    config = make_config()
    with pytest.raises(ValueError):
        generate_channels_from_gains(config, -1.0, 1.0, seed=0)


@pytest.mark.parametrize("link", ["h_tx", "h_rx"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_nonfinite_entries_rejected(link, bad):
    # A NaN channel used to run to a silent NaN rate.
    channels = generate_channels_from_gains(make_config(), 1.0, 1.0, seed=0)
    entries = {"h_tx": channels.h_tx.copy(), "h_rx": channels.h_rx.copy()}
    entries[link][0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ChannelSet(seed=0, **entries)


def test_geometry_generation_scales_by_pathloss():
    config = make_config(n_users=2, n_tx=100, n_elements=100, n_groups=1)
    geometry = Geometry(bs_ris=LinkGeometry(10.0, 2.0, 30.0),
                        ris_user=LinkGeometry(1.0, 2.0, 30.0))
    ch = generate_channels(config, geometry, seed=11)
    assert np.mean(np.abs(ch.h_tx) ** 2) == pytest.approx(1e-5, rel=0.05)
    assert np.mean(np.abs(ch.h_rx) ** 2) == pytest.approx(1e-3, rel=0.05)
