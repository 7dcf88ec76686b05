"""Span tracing for the benchmark's traced run.

The tracer replaces module and class attributes of the ``bdris`` package
with wrappers that record one span per call: name, start, end, parent span
and solve id. Only attributes that the package looks up at call time are
hooked (module globals such as ``bdris.optimizer.retract_batch`` and methods
of ``bdris.optimizer._Workspace``), so no file of the package changes. A
hook whose attribute no longer exists is reported as absent instead of
failing the run, so a refactor that removes a kernel leaves its metrics
marked absent.

Spans live in flat in-memory arrays while the run is in progress and are
written to one ``.npz`` file when it ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, [(module path, attribute path), ...]). The same function can be
# bound under several names; every binding is wrapped so calls through any
# of them are recorded. Attribute paths with a dot name a class attribute.
HOOKS = [
    ("bench.cell", [("bdris.bench", "_run_cell")]),
    ("bench.emit_outputs", [("bdris", "emit_outputs")]),
    ("channel.generate_channels", [("bdris", "generate_channels"),
                                   ("bdris.bench", "generate_channels")]),
    ("optimizer.cga_optimize", [("bdris", "cga_optimize"),
                                ("bdris.bench", "cga_optimize")]),
    ("manifold.random_feasible", [("bdris.optimizer", "random_feasible")]),
    ("gradient.channel_stacks", [("bdris.optimizer", "channel_stacks")]),
    ("optimizer.signal", [("bdris.optimizer", "_Workspace.signal")]),
    ("optimizer.stats", [("bdris.optimizer", "_Workspace.stats")]),
    ("optimizer.objective", [("bdris.optimizer", "_Workspace.objective")]),
    ("optimizer.objective_batch", [("bdris.optimizer",
                                    "_Workspace.objective_batch")]),
    ("gradient.gradient_stack", [("bdris.optimizer", "gradient_stack")]),
    ("manifold.project_stack", [("bdris.optimizer", "project_stack")]),
    ("manifold.unitarity_residuals", [("bdris.optimizer",
                                       "unitarity_residuals")]),
    ("optimizer.ls", [("bdris.optimizer", "_armijo_stack")]),
    ("manifold.retract_batch", [("bdris.optimizer", "retract_batch")]),
    ("optimizer.project_symmetric_unitary", [("bdris.optimizer",
                                              "project_symmetric_unitary")]),
    ("optimizer.takagi", [("bdris.optimizer", "_takagi_symmetric_unitary")]),
]

SOLVE_SPAN = "optimizer.cga_optimize"


def _resolve(module_path: str, attr_path: str):
    """(owner object, attribute name) for a hook target, or None if gone."""
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _retract_cost(args, result) -> tuple[float, float]:
    """Computed real flops and interface bytes of one retract_batch call.

    Per candidate block of size n: the axpy theta + alpha * xi (4 n^2), a
    complex Householder QR with explicit Q (32/3 n^3: geqrf plus ungqr, each
    16/3 n^3 real flops) and the phase fix of the Q columns (6 n^2).
    Bytes are those of the arrays passed in and returned.
    """
    theta, _, alphas = args[:3]
    groups, n = theta.shape[0], theta.shape[-1]
    flops = len(alphas) * groups * (32.0 / 3.0 * n ** 3 + 10.0 * n ** 2)
    return flops, float(_nbytes(args[:3]) + _nbytes(result))


def _objective_batch_cost(args, result) -> tuple[float, float]:
    """Computed real flops and interface bytes of one objective_batch call.

    Per candidate: a_g @ theta_g @ b_g over G groups (8 K n^2 + 8 K^2 n real
    flops per group) and the sum over groups (2 K^2 per group), the K x K
    power and quadratic terms (about 4 K^2), and the asymmetry penalty
    (5 n^2 per group). Bytes are those of the arrays passed in (the
    workspace's channel factors included) and returned.
    """
    ws, theta_batch = args[0], args[1]
    m, groups, n = theta_batch.shape[0], theta_batch.shape[1], theta_batch.shape[-1]
    k = ws.a.shape[1]
    per_group = 8.0 * k * n * n + 8.0 * k * k * n + 2.0 * k * k + 5.0 * n * n
    flops = m * (groups * per_group + 4.0 * k * k)
    nbytes = _nbytes(args[1:4]) + ws.a.nbytes + ws.b.nbytes + _nbytes((result,))
    return flops, float(nbytes)


class Tracer:
    """Hook installer and in-memory span store."""

    def __init__(self):
        self.names: list[str] = [name for name, _ in HOOKS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self._stack: list[int] = []
        self._solve = -1
        self._solves = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        self.absent.clear()
        for name, targets in HOOKS:
            found = False
            for module_path, attr_path in targets:
                resolved = _resolve(module_path, attr_path)
                if resolved is None:
                    continue
                owner, attr = resolved
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        observe = self._observers().get(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends = self.name_id, self.start_ns, self.end_ns
        parents, solves = self.parent, self.solve
        is_solve = name == SOLVE_SPAN

        def wrapper(*args, **kwargs):
            if is_solve:
                self._solve = self._solves
                self._solves += 1
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            solves.append(self._solve)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if is_solve:
                    self._solve = -1
            if observe is not None and self._solve >= 0:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def retract(args, result):
            flops, nbytes = _retract_cost(args, result)
            counts["retract.candidates"] += len(args[2])
            counts["retract.rank_deficient"] += int(np.count_nonzero(~result[1]))
            counts["retract.flops"] += flops
            counts["retract.bytes"] += nbytes

        def objective_batch(args, result):
            flops, nbytes = _objective_batch_cost(args, result)
            counts["objective_batch.flops"] += flops
            counts["objective_batch.bytes"] += nbytes

        def line_search(args, result):
            counts["ls.accepted" if result[1] is not None else "ls.stalled"] += 1

        return {"manifold.retract_batch": retract,
                "optimizer.objective_batch": objective_batch,
                "optimizer.ls": line_search}

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.int32),
                "start_ns": np.array(self.start_ns, dtype=np.int64),
                "end_ns": np.array(self.end_ns, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int32),
                "solve": np.array(self.solve, dtype=np.int32)}

    def write(self, path) -> None:
        np.savez(path, **self.span_table())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, in and out of solves.

        Self time is a span's duration minus the durations of its direct
        children. The ``solve_*`` entries count only spans recorded inside a
        ``cga_optimize`` call, whose total duration is the base of every
        share.
        """
        t = self.span_table()
        duration = (t["end_ns"] - t["start_ns"]).astype(np.float64) * 1e-9
        child = np.zeros_like(duration)
        has_parent = t["parent"] >= 0
        np.add.at(child, t["parent"][has_parent], duration[has_parent])
        own = duration - child
        in_solve = t["solve"] >= 0
        out = {}
        for nid, name in enumerate(self.names):
            mask = t["name_id"] == nid
            solve_mask = mask & in_solve
            out[name] = {
                "calls": int(mask.sum()),
                "seconds": float(duration[mask].sum()),
                "solve_calls": int(solve_mask.sum()),
                "solve_seconds": float(duration[solve_mask].sum()),
                "solve_self_seconds": float(own[solve_mask].sum()),
            }
        return out
