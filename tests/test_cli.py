import numpy as np
import pytest

from bdris import ScatteringMatrix, random_feasible
from bdris.cli import main, read_matrix_file, write_matrix_file

from helpers import make_config

CONFIG_YAML = """\
n_tx: 2
n_users: 2
n_elements: 4
n_groups: 2
p_max: 2.0
noise_power: 1.0
max_iters: 60
geometry:
  bs_ris: {distance_m: 1.0, exponent: 0.0, ref_loss_db: 0.0}
  ris_user: {distance_m: 1.0, exponent: 0.0, ref_loss_db: 0.0}
"""

SPEC_YAML = """\
config:
  n_tx: 2
  n_users: 2
  n_elements: 4
  n_groups: 2
  p_max: 2.0
  noise_power: 1.0
  max_iters: 40
geometry:
  bs_ris: {distance_m: 1.0, exponent: 0.0, ref_loss_db: 0.0}
  ris_user: {distance_m: 1.0, exponent: 0.0, ref_loss_db: 0.0}
architectures: [sc, fc]
sweep: {variable: p_max, values: [1.0, 2.0]}
n_trials: 2
seed_base: 3
"""


# Broken experiment specs and the key each error message must name.
BAD_SPECS = {
    SPEC_YAML.replace("architectures: [sc, fc]\n", ""): "architectures",
    SPEC_YAML.replace("n_trials: 2\n", ""): "n_trials",
    SPEC_YAML.replace("values: [1.0, 2.0]", "value: [1.0, 2.0]"):
        "sweep.values",
    # A bare tag is not a list: iterating it would give the tags f and c.
    SPEC_YAML.replace("architectures: [sc, fc]", "architectures: fc"):
        "architectures",
    # Null and nested values name their key instead of raising TypeError.
    SPEC_YAML.replace("n_trials: 2", "n_trials: ~"): "n_trials",
    SPEC_YAML.replace("values: [1.0, 2.0]", "values: [~]"): "sweep.values",
    SPEC_YAML.replace("n_tx: 2", "n_tx: [4]"): "n_tx",
    SPEC_YAML.replace("p_max: 2.0", "p_max: {w: 2.0}"): "p_max",
    SPEC_YAML.replace("distance_m: 1.0, exponent", "distance_m: ~, exponent"):
        "geometry.bs_ris.distance_m",
    SPEC_YAML.replace("seed_base: 3", "seed_base: [3]"): "seed_base",
    SPEC_YAML.replace(
        "bs_ris: {distance_m: 1.0, exponent: 0.0, ref_loss_db: 0.0}",
        "bs_ris: ~"): "geometry.bs_ris",
    # Unknown keys used to be ignored: seed_bas loaded with seed_base 0.
    SPEC_YAML.replace("seed_base: 3", "seed_bas: 7"): "seed_bas",
    SPEC_YAML.replace("values: [1.0, 2.0]}", "values: [1.0], step: 2}"):
        "'step'",
    # Missing keys used to end in a TypeError traceback.
    SPEC_YAML.replace("  n_groups: 2\n", ""): "config is missing n_groups",
    SPEC_YAML.replace("bs_ris: {distance_m: 1.0, exponent: 0.0,",
                      "bs_ris: {distance_m: 1.0,"):
        "geometry.bs_ris is missing exponent",
    # A bad n_elements sweep value used to be named n_elements.
    SPEC_YAML.replace("variable: p_max, values: [1.0, 2.0]",
                      "variable: n_elements, values: [4.5]"): "sweep.values",
    # YAML booleans are not numbers: float(True) would read them as 1.
    SPEC_YAML.replace("n_trials: 2", "n_trials: true"): "n_trials",
    SPEC_YAML.replace("values: [1.0, 2.0]", "values: [true]"): "sweep.values",
    # This used to load; without --out the run solved every cell and then
    # ended in a TypeError traceback.
    SPEC_YAML + "output_dir: 5\n": "output_dir",
    # An unknown tag used to skip every cell and exit 0; a repeated one
    # solved every cell twice and wrote each row twice.
    SPEC_YAML.replace("architectures: [sc, fc]", "architectures: [sc, f]"):
        "architectures",
    SPEC_YAML.replace("architectures: [sc, fc]", "architectures: [sc, sc]"):
        "architectures",
    # A negative seed ended in numpy's error, which names no key.
    SPEC_YAML.replace("seed_base: 3", "seed_base: -1"): "seed_base",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG_YAML)
    return path


def test_matrix_file_roundtrip(tmp_path):
    config = make_config(n_elements=6, n_groups=2)
    theta = random_feasible(config, seed=4)
    path = tmp_path / "theta.txt"
    write_matrix_file(path, theta)
    dense, n_groups = read_matrix_file(path)
    assert n_groups == 2
    assert np.array_equal(dense, theta.theta)


def test_matrix_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix_file(path)
    path.write_text("2 1\n1+0j\n0+0j 1+0j\n")
    with pytest.raises(ValueError, match="entries per row"):
        read_matrix_file(path)
    for header in ("4 0", "0 1", "-2 1"):
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="positive"):
            read_matrix_file(path)


def test_optimize_command(tmp_path, config_file, capsys):
    trace = tmp_path / "trace.csv"
    matrix = tmp_path / "theta.txt"
    rc = main(["optimize", "--config", str(config_file), "--seed", "5",
               "--arch", "fc", "--trace", str(trace),
               "--save-matrix", str(matrix)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sum_rate_bits:" in out
    assert "architecture: fully-connected" in out
    assert "stop_reason: " in out
    assert "grad_norm: " in out and "grad_norm_ratio: " in out
    assert trace.exists()
    header = trace.read_text().splitlines()[0]
    assert header == "iter,eta,eta_breve,alpha,grad_norm,armijo_trials"
    assert matrix.exists()


@pytest.mark.parametrize("command, filename, text", [
    ("validate", "header.txt", "4 0\n"),
    ("optimize", "config.yaml", CONFIG_YAML.replace("n_elements: 4",
                                                    "n_elements: 8.9")),
    # The asymmetry penalty weight and the line-search settings are gone;
    # old configs must say so.
    ("optimize", "config.yaml", CONFIG_YAML + "nu: 1.0\n"),
    ("optimize", "config.yaml", CONFIG_YAML + "armijo_coeff: 1.0e-9\n"),
    # ``max_iters: true`` used to load as a 1-iteration cap.
    ("optimize", "config.yaml", CONFIG_YAML.replace("max_iters: 60",
                                                    "max_iters: true")),
    ("optimize", "config.yaml", CONFIG_YAML.replace("p_max: 2.0",
                                                    "p_max: true")),
    *(pytest.param("bench", "spec.yaml", text, id=f"bench-{key}-{i}")
      for i, (text, key) in enumerate(BAD_SPECS.items())),
    # A valid spec with a worker count below 1 used to run serially.
    *(pytest.param(f"bench --workers {count}", "spec.yaml", SPEC_YAML,
                   id=f"bench-workers-{count}") for count in ("-2", "0")),
])
def test_bad_input_is_one_line_error(tmp_path, capsys, command, filename,
                                     text):
    path = tmp_path / filename
    path.write_text(text)
    command, *options = command.split()
    if command == "validate":
        argv = ["validate", "--matrix", str(path)]
    elif command == "bench":
        argv = ["bench", "--spec", str(path), "--out", str(tmp_path / "out"),
                *options]
    else:
        argv = ["optimize", "--config", str(path), "--seed", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"bdris {command}: error: ")
    assert len(err.strip().splitlines()) == 1
    for key in ("nu", "armijo_coeff"):
        if f"\n{key}:" in text:
            assert f"unknown config keys: ['{key}']" in err
    if command == "bench":
        assert (BAD_SPECS[text] if text in BAD_SPECS else "workers") in err
        assert not (tmp_path / "out").exists()


def test_optimize_mmse_beam(config_file, capsys):
    rc = main(["optimize", "--config", str(config_file), "--seed", "2",
               "--beam", "mmse"])
    assert rc == 0
    assert "sum_rate_bits:" in capsys.readouterr().out


def test_validate_command_pass_and_fail(tmp_path, capsys):
    config = make_config(n_elements=4, n_groups=2)
    good = random_feasible(config, seed=0)
    good_path = tmp_path / "good.txt"
    write_matrix_file(good_path, good)
    assert main(["validate", "--matrix", str(good_path)]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out

    bad = ScatteringMatrix(theta=np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex),
                           group_size=1)
    bad_path = tmp_path / "bad.txt"
    write_matrix_file(bad_path, bad)
    assert main(["validate", "--matrix", str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "result: fail" in out


@pytest.mark.parametrize("value", ["inf", "nan", "-1e-8", "0"])
@pytest.mark.parametrize("option", ["--tol-unitary", "--tol-symmetry"])
def test_validate_rejects_tolerance_not_positive_and_finite(tmp_path, capsys,
                                                            option, value):
    # An infinite tolerance passed a 1 x 1 block of modulus 2, and a NaN or
    # negative one failed every matrix: each is now a one-line error.
    bad = ScatteringMatrix(theta=np.diag([2.0, 1.0]).astype(complex),
                           group_size=1)
    path = tmp_path / "bad.txt"
    write_matrix_file(path, bad)
    assert main(["validate", "--matrix", str(path), f"{option}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bdris validate: error: ")
    assert len(err.strip().splitlines()) == 1
    assert option[2:].replace("-", "_") in err


def test_validate_reports_off_block_entries(tmp_path, capsys):
    lines = ["2 2", "1+0j 0.5+0j", "0+0j 1+0j"]
    path = tmp_path / "offblock.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--matrix", str(path)]) == 1
    out = capsys.readouterr().out
    assert "off_block_max: 5.000e-01" in out


def test_bench_command(tmp_path, capsys):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(SPEC_YAML)
    out_dir = tmp_path / "out"
    rc = main(["bench", "--spec", str(spec_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "cdf_sc.csv").exists()
    assert (out_dir / "manifest.json").exists()
    body = (out_dir / "results.csv").read_text().splitlines()
    assert len(body) == 1 + 2 * 2 * 2  # header + archs x values x trials
    summary = [line for line in capsys.readouterr().out.splitlines()
               if "median" in line]
    assert [line.split(":")[0] for line in summary] == [
        "sc   p_max=1.0", "sc   p_max=2.0", "fc   p_max=1.0", "fc   p_max=2.0"]
    assert all(line.endswith("n=2") for line in summary)


def test_bench_requires_output_dir(tmp_path, capsys):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(SPEC_YAML)
    rc = main(["bench", "--spec", str(spec_path)])
    assert rc == 2


def test_convergence_rejects_unknown_tag(tmp_path, config_file, capsys):
    # --arch f used to print one skip line per seed and exit 0.
    out_dir = tmp_path / "conv"
    rc = main(["convergence", "--config", str(config_file), "--seeds", "3..4",
               "--out", str(out_dir), "--arch", "sc", "--arch", "f"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bdris convergence: error: architectures")
    assert not out_dir.exists()


def test_convergence_command(tmp_path, config_file):
    out_dir = tmp_path / "conv"
    rc = main(["convergence", "--config", str(config_file), "--seeds", "3..4",
               "--out", str(out_dir), "--arch", "sc", "--arch", "gc2"])
    assert rc == 0
    assert sorted(p.name for p in out_dir.glob("trace_*.csv")) == [
        "trace_gc2_3.csv", "trace_gc2_4.csv", "trace_sc_3.csv",
        "trace_sc_4.csv"]
    rows = (out_dir / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [
        ["0", "3"], ["0", "3"], ["1", "4"], ["1", "4"]]  # trial, seed


def test_seed_range_parsing():
    from bdris.cli import _seed_range
    assert _seed_range("3..6") == [3, 4, 5, 6]
    assert _seed_range("9") == [9]
    with pytest.raises(ValueError):
        _seed_range("6..3")
