"""``tools/solve_fingerprints.py`` tells solves apart by their bits."""

import importlib.util
from pathlib import Path

from bdris import (cga_optimize, generate_channels_from_gains,
                   init_beamformer_uniform)

from helpers import config_for_tag

TOOL = (Path(__file__).resolve().parent.parent / "tools"
        / "solve_fingerprints.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("solve_fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_repeats_and_tells_seeds_apart():
    tool = load_tool()
    config = config_for_tag("gc2", n_users=2, n_tx=2, n_elements=4,
                            max_iters=10)
    beam = init_beamformer_uniform(config)

    def fingerprint(seed):
        channels = generate_channels_from_gains(config, 1.0, 1.0, seed=seed)
        return tool.fingerprint(*cga_optimize(channels, beam, config, seed))

    first = fingerprint(0)
    assert fingerprint(0) == first
    other = fingerprint(1)
    assert sorted(first) == ["final", "matrix", "records"]
    assert all(other[key] != first[key] for key in first)
    assert tool.differences({"w": first}, {"w": first}) == []
    assert tool.differences({"w": first, "new": {"x": "1"}}, {"w": other}) == [
        "only in this run: new / x", "differs: w / final",
        "differs: w / matrix", "differs: w / records"]
