"""``tools/compare_results.py`` on two small hand-written results files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = (Path(__file__).resolve().parent.parent / "tools"
        / "compare_results.py")
HEADER = "architecture,sweep_value,trial,seed,sum_rate_bits,iters,converged\n"
PARENT = HEADER + """\
sc,1.0,0,0,5.0,20,true
sc,1.0,1,1,6.0,2000,false
fc,1.0,0,0,10.0,300,true
fc,1.0,1,1,12.0,2000,false
sc,10.0,0,0,7.0,30,true
sc,10.0,1,1,8.0,40,true
fc,10.0,0,0,15.0,500,true
fc,10.0,1,1,16.0,2000,false
"""
# Against the parent: sc 1.0 trial 0 and sc 10.0 trial 0 move by less than
# the threshold, and so does fc 10.0 trial 1 (not at all).
CHANGE = HEADER + """\
sc,1.0,0,0,5.0005,10,true
sc,1.0,1,1,6.5,100,true
fc,1.0,0,0,9.0,200,true
fc,1.0,1,1,12.5,2000,false
sc,10.0,0,0,7.0,15,true
sc,10.0,1,1,7.9,25,true
fc,10.0,0,0,15.2,400,true
fc,10.0,1,1,16.0,1500,true
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name, text, cap=None):
    folder = tmp_path / name
    folder.mkdir()
    (folder / "results.csv").write_text(text)
    if cap is not None:
        (folder / "manifest.json").write_text(json.dumps(
            {"experiment": {"config": {"max_iters": cap}}}))
    return folder / "results.csv"


def test_per_instance_wins_losses_and_caps(tmp_path):
    tool = load_tool()
    parent = tool.read_results(write(tmp_path, "parent", PARENT))
    change = tool.read_results(write(tmp_path, "change", CHANGE))
    summaries = tool.compare(parent, change, 0.001, (2000, 2000))
    rows = {(s["architecture"], s["sweep_value"]): s for s in summaries}
    assert list(rows) == [("sc", "1.0"), ("fc", "1.0"), ("sc", "10.0"),
                          ("fc", "10.0"), ("sc", "all"), ("fc", "all")]
    assert [(s["wins"], s["losses"]) for s in summaries] == [
        (1, 0), (1, 1), (0, 1), (1, 0), (1, 1), (2, 1)]
    sc = rows[("sc", "1.0")]
    assert (sc["instances"], sc["parent_mean"]) == (2, 5.5)
    assert sc["change_mean"] == pytest.approx(5.75025, rel=1e-15)
    assert (sc["parent_median_iters"], sc["change_median_iters"]) == \
        (1010, 55)
    assert [(s["parent_at_cap"], s["change_at_cap"]) for s in summaries] == [
        (1, 0), (1, 1), (0, 0), (1, 0), (1, 0), (2, 1)]
    assert rows[("fc", "all")]["instances"] == 4


def test_report_reads_caps_from_manifests(tmp_path, capsys):
    tool = load_tool()
    parent = write(tmp_path, "parent", PARENT, cap=2000)
    change = write(tmp_path, "change", CHANGE, cap=1500)
    assert tool.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["arch", "sweep"]
    # fc at 10.0: the change's trial 1 sits at its own cap of 1500.
    assert lines[4].split() == ["fc", "10.0", "2", "15.5000", "15.6000",
                                "1250/950", "1/1", "+1/-0"]
    assert lines[6].split()[-1] == "+2/-1"
    assert lines[0].endswith("wins/losses (> 0.001 bit)")


def test_missing_manifest_rejected(tmp_path, capsys):
    tool = load_tool()
    parent = write(tmp_path, "parent", PARENT, cap=2000)
    change = write(tmp_path, "change", CHANGE)
    assert tool.main([str(parent), str(change)]) == 2
    assert "no manifest.json" in capsys.readouterr().err


def test_different_solves_rejected(tmp_path, capsys):
    tool = load_tool()
    parent = write(tmp_path, "parent", PARENT)
    change = write(tmp_path, "change", CHANGE.rsplit("fc,10.0,1", 1)[0])
    assert tool.main([str(parent), str(change)]) == 2
    assert "1 only in the first" in capsys.readouterr().err


def test_closed_pipe_ends_quietly(tmp_path):
    # As ``compare_results.py A B | head -1``: the reader takes one line and
    # closes the pipe. A thousand sweep values make a report larger than a
    # pipe's buffer, so the tool is still writing when the pipe closes.
    rows = "".join(f"sc,{value}.0,0,0,5.0,20,true\n" for value in range(1000))
    parent = write(tmp_path, "parent", HEADER + rows, cap=2000)
    change = write(tmp_path, "change", HEADER + rows, cap=2000)
    proc = subprocess.Popen([sys.executable, str(TOOL), str(parent),
                             str(change)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"arch")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""
