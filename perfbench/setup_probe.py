"""Time one set-up in a fresh process: import bdris, load inputs, build them.

Usage: python3 setup_probe.py <workload> <root> <workload seed> <order seed>.
Prints the seconds from just before ``import bdris`` until the workload's
first solve could start.
"""

import sys
import time
from pathlib import Path

root = Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
start = time.perf_counter()
import bdris  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

workloads.make(sys.argv[1], root, int(sys.argv[3]), int(sys.argv[4]))
print(repr(time.perf_counter() - start))
