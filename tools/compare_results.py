"""Compare two ``results.csv`` files of one experiment, instance by instance.

Run from the repository root:

    python3 tools/compare_results.py PARENT.csv CHANGE.csv

Both files come from ``bdris bench`` on the same spec, so they hold the same
(architecture, sweep value, trial) solves. Per architecture and sweep value,
and per architecture over all sweep values, the report gives both mean
sum-rates, both median iteration counts, the solves of each side at the
iteration cap, and the wins and losses of the change: instances whose rate
rose or fell by more than ``THRESHOLD`` bits. The start point decides which
local maximum a solve reaches, so a change that moves rates is judged by
these per-instance counts, not by the means alone.

Each side's cap is the ``experiment.config.max_iters`` of the
``manifest.json`` that ``bdris bench`` writes beside its ``results.csv``.
A missing manifest, or files whose solves differ, end with exit code 2; a
reader that closes the output early (``| head -1``) ends it quietly, with
exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from pathlib import Path

# Rate change in bits that counts as a win or a loss.
THRESHOLD = 0.001


def read_results(path: Path) -> dict[tuple[str, str, int], tuple[float, int]]:
    """(architecture, sweep value, trial) -> (sum-rate, iterations)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(row["architecture"], row["sweep_value"], int(row["trial"])):
                (float(row["sum_rate_bits"]), int(row["iters"]))
                for row in csv.DictReader(fh)}


def manifest_cap(path: Path) -> int:
    """The iteration cap in the manifest beside a results file."""
    with open(path.parent / "manifest.json", encoding="utf-8") as fh:
        return int(json.load(fh)["experiment"]["config"]["max_iters"])


def compare(parent: dict, change: dict, threshold: float,
            caps: tuple[int, int]) -> list[dict]:
    """One summary per (architecture, sweep value), then one per
    architecture over all its sweep values (sweep value ``all``)."""
    groups: dict[tuple[str, str], list] = {}
    for key in parent:
        groups.setdefault(key[:2], []).append(key)
    for tag in dict.fromkeys(arch for arch, _ in list(groups)):
        groups[(tag, "all")] = [key for key in parent if key[0] == tag]
    summaries = []
    for (tag, value), keys in groups.items():
        summary = {"architecture": tag, "sweep_value": value,
                   "instances": len(keys)}
        for side, table, cap in (("parent", parent, caps[0]),
                                 ("change", change, caps[1])):
            summary[f"{side}_mean"] = statistics.fmean(
                table[key][0] for key in keys)
            summary[f"{side}_median_iters"] = statistics.median(
                table[key][1] for key in keys)
            summary[f"{side}_at_cap"] = sum(table[key][1] >= cap
                                            for key in keys)
        deltas = [change[key][0] - parent[key][0] for key in keys]
        summary["wins"] = sum(delta > threshold for delta in deltas)
        summary["losses"] = sum(delta < -threshold for delta in deltas)
        summaries.append(summary)
    return summaries


def format_table(summaries: list[dict], threshold: float) -> str:
    header = (f"{'arch':<6} {'sweep':>8} {'n':>4} {'mean parent':>12} "
              f"{'mean change':>12} {'med it':>13} {'at cap':>9} "
              f"  wins/losses (> {threshold:g} bit)")
    lines = [header]
    for s in summaries:
        caps = f"{s['parent_at_cap']}/{s['change_at_cap']}"
        iters = (f"{s['parent_median_iters']:g}/"
                 f"{s['change_median_iters']:g}")
        lines.append(f"{s['architecture']:<6} {s['sweep_value']:>8} "
                     f"{s['instances']:>4} {s['parent_mean']:>12.4f} "
                     f"{s['change_mean']:>12.4f} {iters:>13} {caps:>9}"
                     f"   +{s['wins']}/-{s['losses']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = read_results(args.parent), read_results(args.change)
    if parent.keys() != change.keys():
        print(f"{args.parent} and {args.change} hold different solves: "
              f"{len(parent.keys() - change.keys())} only in the first, "
              f"{len(change.keys() - parent.keys())} only in the second",
              file=sys.stderr)
        return 2
    try:
        caps = (manifest_cap(args.parent), manifest_cap(args.change))
    except FileNotFoundError as exc:
        print(f"no manifest.json beside the results: {exc.filename}",
              file=sys.stderr)
        return 2
    print(format_table(compare(parent, change, THRESHOLD, caps), THRESHOLD))
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): the rest of the report
        # is unwanted, not an error. stdout goes to devnull so that the
        # interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
